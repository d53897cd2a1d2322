//! Output verification: the paper verifies the transformed program against
//! the original code base "for every single run" (§6.1.2). Both programs
//! execute functionally on the simulator from identical seeded inputs and
//! every device array is compared.
//!
//! One verifier, [`verify_executions`], compares two executions. Inside the
//! pipeline each program runs **once** per compile: the functional profile
//! of the original (stage 1) and of the transformed program (the stage-6
//! re-profile) start from the profiler's seed with hazard detection on,
//! so their final memory images and hazards are the verdict's inputs. The
//! verifier executes only a side no profile executed — an analytic
//! profile, a `--metadata` run, or an image the heap budget had no room to
//! keep — through the same governed run, from the same seed.
//! [`verify_equivalence`] is that comparison with both sides executed
//! here; `sf-fuzz`'s `differential` oracle calls it at a seed of its own,
//! which keeps an independent second opinion on every fuzzed compile.

use sf_core::{Accounted, Limits, ResourceError, ResourceGovernor, ResourceKind};
use sf_gpusim::{ExecErrorKind, GlobalMemory, Interpreter};
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::Program;
use std::sync::Arc;

/// The verification verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Verification {
    /// Maximum absolute difference across all arrays (NaN positions are
    /// excluded — they are reported in `nan_arrays` instead, because
    /// `f64::max` would silently drop them).
    pub max_abs_diff: f64,
    /// Array with the largest difference.
    pub worst_array: Option<String>,
    /// Arrays holding a NaN in either run, sorted by name. NaN cannot be
    /// compared meaningfully, so any NaN is a hard failure.
    pub nan_arrays: Vec<String>,
    /// Hazards reported by either run (races, cross-block reads).
    pub hazards: Vec<String>,
}

impl Verification {
    /// Verified equal (bit-identical, no NaN, no hazards).
    pub fn passed(&self) -> bool {
        self.max_abs_diff == 0.0 && self.nan_arrays.is_empty() && self.hazards.is_empty()
    }

    /// One-line reason for the failure; `None` when the verdict passed.
    pub fn failure(&self) -> Option<String> {
        if self.passed() {
            return None;
        }
        let mut parts = Vec::new();
        if self.max_abs_diff != 0.0 {
            parts.push(format!(
                "max abs diff {:e} in {:?}",
                self.max_abs_diff, self.worst_array
            ));
        }
        if !self.nan_arrays.is_empty() {
            parts.push(format!("NaN in {:?}", self.nan_arrays));
        }
        if !self.hazards.is_empty() {
            parts.push(format!("{} hazard(s)", self.hazards.len()));
        }
        Some(parts.join("; "))
    }
}

/// Why a governed verification could not produce a verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyFailure {
    /// A resource budget (memory images, interpreter steps) was exhausted
    /// before or during the runs; the structured error attributes which.
    Exhausted(ResourceError),
    /// The interpreter itself failed (trap, invalid plan, ...).
    Failed(String),
}

impl std::fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyFailure::Exhausted(e) => write!(f, "{e}"),
            VerifyFailure::Failed(s) => f.write_str(s),
        }
    }
}

/// Run one side of a governed verification: the interpreter's step limit
/// is set to whatever step budget remains, and the steps it actually
/// executed are charged afterwards so the second side sees the remainder.
fn run_governed(
    program: &Program,
    plan: &ExecutablePlan,
    mem: &mut GlobalMemory,
    label: &str,
    governor: &Arc<ResourceGovernor>,
) -> Result<Vec<String>, VerifyFailure> {
    let mut interp = Interpreter::new(program);
    interp.detect_hazards = true;
    interp.step_limit = governor.remaining(ResourceKind::InterpreterSteps);
    let outcome = interp.run_plan(plan, mem);
    let used = interp.steps_used();
    match outcome {
        Ok(stats) => {
            governor
                .charge(ResourceKind::InterpreterSteps, used)
                .map_err(VerifyFailure::Exhausted)?;
            Ok(stats.into_iter().flat_map(|s| s.hazards).collect())
        }
        Err(e) => Err(match e.1 {
            ExecErrorKind::StepBudget { .. } => VerifyFailure::Exhausted(ResourceError {
                resource: ResourceKind::InterpreterSteps,
                used: governor
                    .used(ResourceKind::InterpreterSteps)
                    .saturating_add(used),
                limit: governor
                    .limits()
                    .limit(ResourceKind::InterpreterSteps)
                    .unwrap_or(u64::MAX),
            }),
            ExecErrorKind::Trap => VerifyFailure::Failed(format!("{label}: {e}")),
        }),
    }
}

/// One side of a verification: a program, its executable plan, and the
/// functional run a profile already made of it, if one did.
#[derive(Debug, Clone, Copy)]
pub struct Side<'a> {
    /// The program.
    pub program: &'a Program,
    /// Its executable plan.
    pub plan: &'a ExecutablePlan,
    /// A run from `seed_all(seed)` with hazard detection on — the seed the
    /// verification is given; `None` makes the verifier execute this side.
    pub run: Option<Execution<'a>>,
}

/// What one functional run left behind.
#[derive(Debug, Clone, Copy)]
pub struct Execution<'a> {
    /// The final memory image.
    pub image: &'a GlobalMemory,
    /// The hazards the run reported.
    pub hazards: &'a [String],
}

/// Compare two executions of the same seeded inputs, executing only the
/// sides that arrive without a run. The images still to be made are
/// charged as accounted heap bytes in one charge *before* any is
/// materialized, and each run draws on the scope's step budget.
/// Exhaustion is a structured [`VerifyFailure::Exhausted`], never an OOM
/// or a hang.
pub fn verify_executions(
    original: Side,
    transformed: Side,
    seed: u64,
    governor: &Arc<ResourceGovernor>,
) -> Result<Verification, VerifyFailure> {
    let sides = [("original", original), ("transformed", transformed)];
    let image_bytes = sides
        .iter()
        .filter(|(_, side)| side.run.is_none())
        .map(|(_, side)| GlobalMemory::plan_bytes(side.plan))
        .sum();
    let mut fresh = Accounted::build(governor, ResourceKind::HeapBytes, image_bytes, || {
        sides.map(|(_, side)| {
            side.run.is_none().then(|| {
                let mut mem = GlobalMemory::from_plan(side.plan);
                mem.seed_all(seed);
                mem
            })
        })
    })
    .map_err(VerifyFailure::Exhausted)?;

    let mut hazards = Vec::new();
    for ((label, side), mem) in sides.iter().zip(fresh.iter_mut()) {
        match (side.run, mem) {
            (Some(run), _) => hazards.extend_from_slice(run.hazards),
            (None, Some(mem)) => {
                hazards.extend(run_governed(side.program, side.plan, mem, label, governor)?)
            }
            (None, None) => unreachable!("every side without a run got a fresh image"),
        }
    }
    let image = |i: usize| {
        let ran = sides[i].1.run.map(|run| run.image);
        fresh[i].as_ref().or(ran).expect("every side has an image")
    };
    Ok(compare_images(image(0), image(1), hazards))
}

/// [`verify_equivalence`] under a resource governor: [`verify_executions`]
/// with both programs executed here.
pub fn verify_equivalence_governed(
    original: &Program,
    transformed: &Program,
    seed: u64,
    governor: &Arc<ResourceGovernor>,
) -> Result<Verification, VerifyFailure> {
    let plan_a =
        ExecutablePlan::from_program(original).map_err(|e| VerifyFailure::Failed(e.to_string()))?;
    let plan_b = ExecutablePlan::from_program(transformed)
        .map_err(|e| VerifyFailure::Failed(e.to_string()))?;
    let unexecuted = |program, plan| Side {
        program,
        plan,
        run: None,
    };
    verify_executions(
        unexecuted(original, &plan_a),
        unexecuted(transformed, &plan_b),
        seed,
        governor,
    )
}

/// Run both programs with identical seeded inputs and compare all arrays:
/// [`verify_equivalence_governed`] with nothing capped.
pub fn verify_equivalence(
    original: &Program,
    transformed: &Program,
    seed: u64,
) -> Result<Verification, String> {
    let unlimited = ResourceGovernor::new(Limits::unlimited());
    verify_equivalence_governed(original, transformed, seed, &unlimited).map_err(|e| e.to_string())
}

/// Fold two finished memory images into a [`Verification`] verdict.
fn compare_images(
    mem_a: &GlobalMemory,
    mem_b: &GlobalMemory,
    hazards: Vec<String>,
) -> Verification {
    let mut max_abs_diff = 0.0f64;
    let mut worst_array = None;
    let mut nan_arrays = Vec::new();
    let mut diffs: Vec<_> = mem_a.compare(mem_b).into_iter().collect();
    diffs.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, d) in diffs {
        if d.has_nan {
            nan_arrays.push(name.clone());
        }
        if d.max_abs_diff > max_abs_diff {
            max_abs_diff = d.max_abs_diff;
            worst_array = Some(name);
        }
    }
    Verification {
        max_abs_diff,
        worst_array,
        nan_arrays,
        hazards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::parse_program;

    #[test]
    fn identical_programs_verify() {
        let src = r#"
__global__ void k(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = a[i] * 2.0; }
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  k<<<2, 32>>>(a, n);
}
"#;
        let p = parse_program(src).unwrap();
        let v = verify_equivalence(&p, &p, 3).unwrap();
        assert!(v.passed());
    }

    #[test]
    fn different_programs_fail() {
        let a = parse_program(
            r#"
__global__ void k(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = a[i] * 2.0; }
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  k<<<2, 32>>>(a, n);
}
"#,
        )
        .unwrap();
        let b = parse_program(
            r#"
__global__ void k(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = a[i] * 3.0; }
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  k<<<2, 32>>>(a, n);
}
"#,
        )
        .unwrap();
        let v = verify_equivalence(&a, &b, 3).unwrap();
        assert!(!v.passed());
        assert_eq!(v.worst_array.as_deref(), Some("a"));
    }

    /// Mutation test: corrupt exactly one output array element in the
    /// "transformed" program and assert the verifier flags it.
    #[test]
    fn single_corrupted_output_element_is_flagged() {
        use sf_minicuda::ast::{BinaryOp, Expr, Stmt};
        let src = r#"
__global__ void k(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  a[i] = a[i] * 2.0;
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  k<<<2, 32>>>(a, n);
}
"#;
        let original = parse_program(src).unwrap();
        let mut mutant = original.clone();
        let kernel = mutant.kernel_mut("k").unwrap();
        let Some(Stmt::Assign { value, .. }) = kernel.body.get_mut(1) else {
            panic!("expected the array store at body[1], got {:?}", kernel.body);
        };
        // a[7] gets an extra +1.0; every other element is untouched.
        *value = Expr::Ternary {
            cond: Box::new(Expr::Binary {
                op: BinaryOp::Eq,
                lhs: Box::new(Expr::Var("i".into())),
                rhs: Box::new(Expr::Int(7)),
            }),
            then_val: Box::new(Expr::Binary {
                op: BinaryOp::Add,
                lhs: Box::new(value.clone()),
                rhs: Box::new(Expr::Float(1.0)),
            }),
            else_val: Box::new(value.clone()),
        };
        let v = verify_equivalence(&original, &mutant, 3).unwrap();
        assert!(!v.passed(), "one corrupted element must fail verification");
        assert_eq!(v.worst_array.as_deref(), Some("a"));
        assert_eq!(v.max_abs_diff, 1.0);
    }

    /// Regression test for the NaN blind spot: `max_abs_diff` folds with
    /// `f64::max`, and `f64::max(0.0, NaN) == 0.0`, so a transformed
    /// program producing NaN everywhere used to *pass* verification. NaN
    /// in any output array must be a hard failure naming the array.
    #[test]
    fn nan_output_is_a_hard_failure() {
        let original = parse_program(
            r#"
__global__ void k(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = a[i] * 2.0; }
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  k<<<2, 32>>>(a, n);
}
"#,
        )
        .unwrap();
        let mutant = parse_program(
            r#"
__global__ void k(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = 0.0 / 0.0; }
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  k<<<2, 32>>>(a, n);
}
"#,
        )
        .unwrap();
        let v = verify_equivalence(&original, &mutant, 3).unwrap();
        assert!(!v.passed(), "NaN output must fail verification: {v:?}");
        assert_eq!(v.nan_arrays, vec!["a".to_string()]);
        assert!(v.failure().unwrap().contains("NaN"));
        assert!(v.failure().unwrap().contains('a'));
    }

    #[test]
    fn governed_verification_matches_ungoverned_and_enforces_budgets() {
        use sf_core::{Limits, ResourceGovernor, ResourceKind};
        let src = r#"
__global__ void k(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = a[i] * 2.0; }
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  k<<<2, 32>>>(a, n);
}
"#;
        let p = parse_program(src).unwrap();

        // Unlimited governor: identical verdict, but usage is accounted.
        let g = ResourceGovernor::new(Limits::unlimited());
        let v = verify_equivalence_governed(&p, &p, 3, &g).unwrap();
        assert!(v.passed());
        // Two 64-element f64 images were charged and credited back.
        assert_eq!(g.high_water(ResourceKind::HeapBytes), 2 * 64 * 8);
        assert_eq!(
            g.used(ResourceKind::HeapBytes),
            0,
            "images credited on drop"
        );
        assert_eq!(g.used(ResourceKind::InterpreterSteps), 2 * 64);

        // A heap budget below two images rejects before materialization.
        let g = ResourceGovernor::new(Limits::unlimited().cap(ResourceKind::HeapBytes, 1000));
        let err = verify_equivalence_governed(&p, &p, 3, &g).unwrap_err();
        let VerifyFailure::Exhausted(e) = err else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(e.resource, ResourceKind::HeapBytes);

        // A step budget below one run stops the interpreter mid-flight.
        let g = ResourceGovernor::new(Limits::unlimited().cap(ResourceKind::InterpreterSteps, 50));
        let err = verify_equivalence_governed(&p, &p, 3, &g).unwrap_err();
        let VerifyFailure::Exhausted(e) = err else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(e.resource, ResourceKind::InterpreterSteps);
        // The second block of the first run is the one that does not fit.
        assert_eq!((e.used, e.limit), (64, 50));

        // A trap is a failed run, not exhaustion.
        let trapping = parse_program(&src.replace("a[i] * 2.0", "a[i + 64]")).unwrap();
        let g = ResourceGovernor::new(Limits::unlimited());
        let err = verify_equivalence_governed(&p, &trapping, 3, &g).unwrap_err();
        let VerifyFailure::Failed(why) = err else {
            panic!("expected a failed run, got {err:?}");
        };
        assert!(
            why.starts_with("transformed: execution error: out-of-bounds"),
            "{why}"
        );
    }

    #[test]
    fn a_side_that_already_ran_is_compared_not_executed() {
        use sf_core::{Limits, ResourceGovernor, ResourceKind};
        use sf_gpusim::Interpreter;
        let p = parse_program(
            r#"
__global__ void k(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = a[i] * 2.0; }
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  k<<<2, 32>>>(a, n);
}
"#,
        )
        .unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut image = GlobalMemory::from_plan(&plan);
        image.seed_all(3);
        Interpreter::new(&p).run_plan(&plan, &mut image).unwrap();
        let hazards = vec!["reported by the earlier run".to_string()];
        let ran = Side {
            program: &p,
            plan: &plan,
            run: Some(Execution {
                image: &image,
                hazards: &hazards,
            }),
        };
        let unexecuted = Side { run: None, ..ran };

        // One side ran: only the other is materialized and executed, and
        // the earlier run's hazards are folded into the verdict.
        let g = ResourceGovernor::new(Limits::unlimited());
        let v = verify_executions(ran, unexecuted, 3, &g).unwrap();
        assert_eq!((v.max_abs_diff, v.hazards.clone()), (0.0, hazards.clone()));
        assert_eq!(g.used(ResourceKind::InterpreterSteps), 64);
        assert_eq!(g.high_water(ResourceKind::HeapBytes), 64 * 8);

        // Both ran: nothing executes and nothing is charged.
        let g = ResourceGovernor::new(Limits::unlimited());
        let v = verify_executions(ran, ran, 3, &g).unwrap();
        assert_eq!(v.hazards.len(), 2);
        assert_eq!(g.used(ResourceKind::InterpreterSteps), 0);
        assert_eq!(g.high_water(ResourceKind::HeapBytes), 0);

        // The executed side starts from the seed it is given: another seed
        // than the earlier run's is a mismatch, not a pass.
        let v = verify_executions(ran, unexecuted, 4, &g).unwrap();
        assert!(v.max_abs_diff > 0.0);
    }

    /// Mutation test: swap the array bindings of one launch and assert the
    /// verifier flags the resulting dataflow change.
    #[test]
    fn corrupted_launch_binding_is_flagged() {
        use sf_minicuda::ast::{HostStmt, LaunchArg};
        let src = r#"
__global__ void k(const double* __restrict__ a, double* b, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  b[i] = a[i] + 1.0;
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  double* b = cudaAlloc1D(n);
  cudaMemcpyH2D(a);
  k<<<2, 32>>>(a, b, n);
  cudaMemcpyD2H(b);
}
"#;
        let original = parse_program(src).unwrap();
        let mut mutant = original.clone();
        let launch = mutant
            .host
            .iter_mut()
            .find_map(|s| match s {
                HostStmt::Launch { args, .. } => Some(args),
                _ => None,
            })
            .unwrap();
        // Bind the launch backwards: now `a` is written from `b`'s data.
        launch[0] = LaunchArg::Array("b".into());
        launch[1] = LaunchArg::Array("a".into());
        let v = verify_equivalence(&original, &mutant, 3).unwrap();
        assert!(
            !v.passed(),
            "a swapped launch binding must fail verification"
        );
        assert!(v.worst_array.is_some());
        assert!(v.max_abs_diff > 0.0);
    }
}
