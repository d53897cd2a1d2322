//! The failure surface as one table: every `(ErrorKind, Recoverability,
//! Stage)` a run can end in, each reached through a product entry point
//! with a fault plan, an input program or a configuration — and nothing
//! else. A row pins four columns: `kind.label()`, the class, the stage and
//! `PipelineError::exit_code()`. A fifth pins what the same reach does
//! under `Degrade`: a non-fatal row is reached under `Strict`, and the
//! ladder must absorb it under `Degrade` unless the row says otherwise.
//!
//! Three entry points reach the rows: a driver request (which runs
//! `Pipeline::run` the way `sfd` and `sfc --cache-dir` do), the guided
//! mode's `Pipeline::run_with` for the two rows only an intervention
//! reaches, and `BatchDriver::new` for the store that will not open.
//! The table is the whole reachable set: a combination no input,
//! configuration or fault plan reaches has no row (ROADMAP item 6 tracks
//! what is left of the failure surface).

use sf_analysis::metadata::MetadataBundle;
use sf_codegen::{CodegenMode, GroupPlan, MemberRef, TransformPlan};
use sf_core::{IslandFaults, Limits, ResourceKind};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::Interpreter;
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::parse_program;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use stencilfuse::{
    BatchDriver, BatchOptions, BatchRequest, BatchStatus, DegradePolicy, FaultPlan, Interventions,
    Pipeline, PipelineConfig, PipelineError, Recoverability, Stage,
};
use Recoverability::{Degradable, Fatal};

/// Two fusible kernels: the base program every fault plan and cap targets.
const DEMO: &str = r#"
__global__ void flux(const double* __restrict__ q, double* f, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { f[k][j][i] = 0.5 * q[k][j][i] * q[k][j][i]; }
  }
}
__global__ void upd(const double* __restrict__ f, double* d, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) { d[k][j][i] = f[k][j][i+1] - f[k][j][i-1]; }
  }
}
void host() {
  int nx = 64; int ny = 32; int nz = 8;
  double* q = cudaAlloc3D(nz, ny, nx);
  double* f = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(q);
  flux<<<dim3(4, 4), dim3(16, 8)>>>(q, f, nx, ny, nz);
  upd<<<dim3(4, 4), dim3(16, 8)>>>(f, d, nx, ny, nz);
  cudaMemcpyD2H(d);
}
"#;

/// `flux` as a fissionable kernel writing two independent arrays, and a
/// host time loop with a copy inside it, which no transform preserves. The
/// search prices `flux`'s products without transforming the program, so it
/// ends at codegen, like every program with such a loop.
const OPAQUE_LOOP_FISSION: &str = r#"
__global__ void flux(const double* __restrict__ q, const double* __restrict__ p, double* f, double* g, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { f[k][j][i] = 0.5 * q[k][j][i] * q[k][j][i]; g[k][j][i] = p[k][j][i] + 1.0; }
  }
}
__global__ void upd(const double* __restrict__ f, double* d, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) { d[k][j][i] = f[k][j][i+1] - f[k][j][i-1]; }
  }
}
void host() {
  int nx = 64; int ny = 32; int nz = 8;
  double* q = cudaAlloc3D(nz, ny, nx);
  double* p = cudaAlloc3D(nz, ny, nx);
  double* f = cudaAlloc3D(nz, ny, nx);
  double* g = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(q);
  flux<<<dim3(4, 4), dim3(16, 8)>>>(q, p, f, g, nx, ny, nz);
  for (int t = 0; t < 2; t++) {
    upd<<<dim3(4, 4), dim3(16, 8)>>>(f, d, nx, ny, nz);
    cudaMemcpyD2H(d);
  }
}
"#;

/// `smear` reads a neighbour another block writes: the profiles' hazards
/// fail verification.
const CROSS_BLOCK: &str = r#"
__global__ void smear(double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 8 && i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = a[k][j][i - 8] * 0.5; } }
}
__global__ void scale(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = u[k][j][i] * 2.0; } }
}
__global__ void shift(const double* __restrict__ b, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = b[k][j][i] + 1.0; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 2;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* u = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(a);
  cudaMemcpyH2D(u);
  smear<<<dim3(4, 4), dim3(16, 8)>>>(a, nx, ny, nz);
  scale<<<dim3(4, 4), dim3(16, 8)>>>(u, b, nx, ny, nz);
  shift<<<dim3(4, 4), dim3(16, 8)>>>(b, c, nx, ny, nz);
  cudaMemcpyD2H(a);
  cudaMemcpyD2H(c);
}
"#;

/// `DEMO` with one edit.
fn demo_with(from: &str, to: &str) -> String {
    assert!(DEMO.contains(from), "`{from}` is in DEMO");
    DEMO.replacen(from, to, 1)
}

/// `upd` without its halo guard reads `f[..][..][-1]`: the interpreter
/// traps, which the profiler counts as a deterministic failure — the same
/// run traps the same way, so it is not retried.
fn out_of_bounds() -> String {
    demo_with(
        "if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1)",
        "if (i < nx && j < ny)",
    )
}

/// `DEMO` whose `flux` adds `MIN / -1`, which overflows: the interpreter
/// traps, as it does on a zero divisor, instead of panicking.
const INT_OVERFLOW: &str = include_str!("inputs/int_overflow.cu");

/// `flux` sweeps every other plane, which the access analysis refuses.
fn strided_sweep() -> String {
    demo_with(
        "for (int k = 0; k < nz; k++) { f[k]",
        "for (int k = 0; k < nz; k += 2) { f[k]",
    )
}

fn quick() -> PipelineConfig {
    PipelineConfig::quick(DeviceSpec::k20x())
}

/// `DEMO`'s stage-1 metadata bundle, for the runs that skip profiling.
fn demo_metadata() -> MetadataBundle {
    let mut config = quick();
    config.run_until = Some(Stage::Metadata);
    let run = Pipeline::new(parse_program(DEMO).expect("DEMO parses"), config)
        .and_then(|p| p.run())
        .expect("DEMO profiles");
    run.metadata.expect("stage 1 ran")
}

/// A plan over `DEMO`'s two launches on `device`, each its own group.
fn singletons(device: DeviceSpec, seqs: [usize; 2]) -> TransformPlan {
    let groups = seqs.map(|s| GroupPlan::singleton(MemberRef::original(s)));
    TransformPlan::new(device, CodegenMode::Auto, false, groups.to_vec())
}

/// Skip stage 1 with `DEMO`'s bundle and replay an all-singleton plan: the
/// first thing to execute the program is the codegen stage's re-profile.
fn replayed_without_profile() -> PipelineConfig {
    let mut config = quick()
        .with_plan(singletons(DeviceSpec::k20x(), [0, 1]))
        .strict();
    config.preloaded_metadata = Some(demo_metadata());
    config
}

/// How a row is reached.
enum Reach {
    /// One request through a `BatchDriver`.
    Request(String, Box<PipelineConfig>),
    /// `Pipeline::run_with` with the guided mode's filter intervention
    /// dropping one decision.
    DroppedDecision,
    /// `Pipeline::run_with` with the guided mode's metadata intervention
    /// giving the profiled bundle a negative runtime.
    CorruptedAmendment,
    /// `BatchDriver::new` over a cache directory below a regular file.
    UnopenableStore,
}

/// One row of the table.
struct Row {
    kind: &'static str,
    class: Recoverability,
    stage: Stage,
    exit: i32,
    /// How the same reach ends under `Degrade`: `None` when the ladder
    /// absorbs it, else the class of the error (same kind and stage).
    degrade: Option<Recoverability>,
    reach: Reach,
}

#[rustfmt::skip]
fn rows() -> Vec<Row> {
    let request = |source: &str, config| Reach::Request(source.into(), Box::new(config));
    let row = |kind, class, stage, exit, degrade, reach| Row { kind, class, stage, exit, degrade, reach };
    let fault = |faults| request(DEMO, quick().with_faults(faults).strict());
    let cap = |kind, cap| quick().with_budget(Limits::unlimited().cap(kind, cap));

    let mut bad_metadata = quick().strict();
    let mut bundle = demo_metadata();
    bundle.perf[0].runtime_us = -1.0;
    bad_metadata.preloaded_metadata = Some(bundle);
    let mut short_metadata = quick();
    let mut bundle = demo_metadata();
    bundle.perf.pop();
    short_metadata.preloaded_metadata = Some(bundle);
    let mut unknown_kernel = quick();
    unknown_kernel.preloaded_metadata = Some(demo_metadata());
    let out_of_range = singletons(DeviceSpec::k20x(), [0, 5]);
    let demo = parse_program(DEMO).expect("DEMO parses");
    // Room for the original's profile, none for the re-profile.
    let steps = Interpreter::plan_steps(&ExecutablePlan::from_program(&demo).expect("DEMO evaluates"));
    let island_panic = FaultPlan {
        islands: IslandFaults { panic_at: [(0, 0)].into(), ..IslandFaults::default() },
        ..FaultPlan::none()
    };

    vec![
        //   kind                  class       stage              exit under Degrade  reach
        row("parse",              Fatal,      Stage::Metadata,   3,  Some(Fatal),      request("__global__ void oops(", quick())),
        row("host-eval",          Fatal,      Stage::Metadata,   3,  Some(Fatal),      request(&demo_with("(q, f, nx,", "(q, f, nw,"), quick())),
        row("config",             Fatal,      Stage::Metadata,   4,  Some(Fatal),      request("void host() { int n = 4; double* a = cudaAlloc1D(n); }", quick())),
        // A preloaded bundle is checked at the door — the ladder would
        // restore the same one — while a bad amendment of a profiled bundle
        // is discarded for the profile under `Degrade`.
        row("config",             Fatal,      Stage::Metadata,   4,  Some(Fatal),      request(DEMO, bad_metadata)),
        row("config",             Fatal,      Stage::Metadata,   4,  Some(Fatal),      request(DEMO, short_metadata)),
        row("config",             Degradable, Stage::Metadata,   4,  None,             Reach::CorruptedAmendment),
        row("config",             Fatal,      Stage::Filter,     4,  Some(Fatal),      Reach::DroppedDecision),
        row("config",             Fatal,      Stage::Search,     5,  Some(Fatal),      request(DEMO, quick().with_port_plan(out_of_range.clone()))),
        row("config",             Fatal,      Stage::NewGraphs,  6,  Some(Fatal),      request(DEMO, quick().with_plan(out_of_range))),
        row("device-mismatch",    Fatal,      Stage::NewGraphs,  9,  Some(Fatal),      request(DEMO, quick().with_plan(singletons(DeviceSpec::k40(), [0, 1])))),
        row("graph",              Fatal,      Stage::Graphs,     4,  Some(Fatal),      request(&demo_with("upd<<<", "nokernel<<<"), unknown_kernel)),
        row("profile",            Degradable, Stage::Metadata,   4,  None,             request(&out_of_bounds(), quick().strict())),
        row("profile",            Degradable, Stage::Metadata,   4,  None,             request(INT_OVERFLOW, quick().strict())),
        row("profile",            Degradable, Stage::Metadata,   4,  None,             request(&strided_sweep(), quick().strict())),
        row("profile",            Degradable, Stage::Codegen,    6,  None,             request(&strided_sweep(), replayed_without_profile())),
        row("profile",            Degradable, Stage::Codegen,    6,  None,             request(&out_of_bounds(), replayed_without_profile())),
        row("codegen",            Degradable, Stage::Codegen,    6,  None,             fault(FaultPlan { reject_groups: [0].into(), ..FaultPlan::none() })),
        row("codegen",            Degradable, Stage::Codegen,    6,  None,             request(OPAQUE_LOOP_FISSION, quick().strict())),
        row("verify",             Degradable, Stage::Codegen,    7,  None,             request(CROSS_BLOCK, quick().strict())),
        row("injected-fault",     Degradable, Stage::Metadata,   4,  None,             fault(FaultPlan { corrupt_metadata: true, ..FaultPlan::none() })),
        row("injected-fault",     Degradable, Stage::Codegen,    6,  None,             fault(FaultPlan { interpreter_trap: true, ..FaultPlan::none() })),
        row("panic",              Degradable, Stage::Search,     5,  None,             fault(island_panic)),
        row("panic",              Degradable, Stage::Codegen,    6,  None,             fault(FaultPlan { panic_groups: [0].into(), ..FaultPlan::none() })),
        row("resource-exhausted", Fatal,      Stage::Metadata,   10, Some(Fatal),      request(DEMO, cap(ResourceKind::Launches, 1))),
        row("resource-exhausted", Fatal,      Stage::Graphs,     10, Some(Fatal),      request(DEMO, cap(ResourceKind::PrecedenceDepth, 1))),
        row("resource-exhausted", Degradable, Stage::Search,     10, None,             request(DEMO, cap(ResourceKind::CandidateSet, 1).strict())),
        row("resource-exhausted", Degradable, Stage::Codegen,    10, None,             request(DEMO, cap(ResourceKind::InterpreterSteps, steps).strict())),
        row("cache",              Degradable, Stage::NewGraphs,  6,  Some(Degradable), Reach::UnopenableStore),
    ]
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "sf-failure-surface-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Where `reach` ends under `policy`: `None` when the run completed, else
/// the error.
fn reach(reach: &Reach, policy: DegradePolicy) -> Option<PipelineError> {
    match reach {
        Reach::Request(source, config) => {
            let config = PipelineConfig {
                degrade: policy,
                ..PipelineConfig::clone(config)
            };
            let dir = scratch_dir("request");
            let mut driver =
                BatchDriver::new(&dir, config, BatchOptions::default()).expect("store opens");
            driver
                .submit(BatchRequest::new("row", source.as_str()))
                .expect("admitted");
            let outcome = driver.run().outcomes.remove(0);
            let _ = std::fs::remove_dir_all(&dir);
            let failed = outcome.status == BatchStatus::Failed;
            failed.then(|| outcome.error.expect("a failed request's error"))
        }
        Reach::DroppedDecision => {
            let hooks = Interventions {
                amend_decisions: Some(Box::new(|ds: &mut Vec<_>| {
                    ds.pop();
                })),
                ..Interventions::default()
            };
            let config = PipelineConfig {
                degrade: policy,
                ..quick()
            };
            Pipeline::new(parse_program(DEMO).expect("DEMO parses"), config)
                .and_then(|p| p.run_with(&hooks))
                .err()
        }
        Reach::CorruptedAmendment => {
            let hooks = Interventions {
                amend_metadata: Some(Box::new(|bundle: &mut MetadataBundle| {
                    bundle.perf[0].runtime_us = -1.0;
                })),
                ..Interventions::default()
            };
            let config = PipelineConfig {
                degrade: policy,
                ..quick()
            };
            Pipeline::new(parse_program(DEMO).expect("DEMO parses"), config)
                .and_then(|p| p.run_with(&hooks))
                .err()
        }
        Reach::UnopenableStore => {
            let dir = scratch_dir("file");
            std::fs::create_dir_all(&dir).expect("scratch dir");
            let file = dir.join("not-a-directory");
            std::fs::write(&file, "x").expect("scratch file");
            let config = PipelineConfig {
                degrade: policy,
                ..quick()
            };
            let opened = BatchDriver::new(&file, config, BatchOptions::default());
            let _ = std::fs::remove_dir_all(&dir);
            opened.err()
        }
    }
}

/// Check one row; returns its mismatches.
fn check(row: &Row) -> Vec<String> {
    let name = format!("{} / {} / {}", row.kind, row.class.name(), row.stage.name());
    let mut wrong = Vec::new();
    match reach(&row.reach, DegradePolicy::Strict) {
        None => wrong.push(format!("{name}: the run completed under Strict")),
        Some(e) => {
            let seen = (e.kind.label(), e.class, e.stage, e.exit_code());
            if seen != (row.kind, row.class, row.stage, row.exit) {
                wrong.push(format!("{name}: reached {seen:?} ({e})"));
            }
        }
    }
    match (reach(&row.reach, DegradePolicy::Degrade), row.degrade) {
        (None, None) => {}
        (Some(e), Some(class))
            if (e.kind.label(), e.class, e.stage) == (row.kind, class, row.stage) => {}
        (None, Some(_)) => wrong.push(format!("{name}: completed under Degrade")),
        (Some(e), _) => wrong.push(format!("{name}: under Degrade: {e}")),
    }
    wrong
}

#[test]
fn every_failure_is_reached_with_its_columns() {
    let rows = rows();
    // Each row is a handful of small compiles; two workers halve the wall.
    let (even, odd): (Vec<_>, Vec<_>) = rows.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let wrong: Vec<String> = std::thread::scope(|scope| {
        [even, odd]
            .map(|half| {
                scope.spawn(move || half.iter().flat_map(|(_, r)| check(r)).collect::<Vec<_>>())
            })
            .into_iter()
            .flat_map(|h| h.join().expect("a row checker panicked"))
            .collect()
    });
    assert!(
        wrong.is_empty(),
        "{} mismatch(es):\n{}",
        wrong.len(),
        wrong.join("\n")
    );

    // The closed set: 22 combinations. Some are reached more than once — a
    // trap (out of bounds or an integer overflow) and a refused access are
    // both degradable profile errors, and an empty
    // program and a bad or short preloaded bundle are all fatal
    // configuration at stage 1 — so the count is pinned rather than the
    // rows, and a lost combination still shows.
    let mut keys: Vec<_> = rows
        .iter()
        .map(|r| (r.kind, r.class.name(), r.stage))
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), 22, "{keys:?}");
    // Every kind has a row.
    let kinds: std::collections::BTreeSet<_> = rows.iter().map(|r| r.kind).collect();
    assert_eq!(kinds.len(), 12, "{kinds:?}");
}

/// The one driver failure that is not an error kind: a request past its
/// wall-clock budget.
#[test]
fn an_over_budget_request_is_counted_as_over_budget() {
    let dir = scratch_dir("budget");
    let options = BatchOptions {
        request_budget: Duration::from_nanos(1),
        ..BatchOptions::default()
    };
    let mut driver = BatchDriver::new(&dir, quick(), options).expect("store opens");
    driver
        .submit(BatchRequest::new("slow", DEMO))
        .expect("admitted");
    let outcome = driver.run().outcomes.remove(0);
    assert_eq!(outcome.status, BatchStatus::OverBudget);
    assert!(
        outcome.error.is_none(),
        "no error kind: {:?}",
        outcome.error
    );
    let _ = std::fs::remove_dir_all(&dir);
}
