//! The precedence model of one program: the single analysis pass stage 3
//! makes over `(program, plan)` and everything later stages may ask about
//! launch order — the search builds its space from it, the new OEG is
//! rendered from it, code generation takes its instance numbering.
//!
//! It also makes the one decision about the redundant-instance relaxation
//! (§3.2.3) that is not Algorithm 1's own: **under a recorded host time
//! loop no array gets a second instance.** Renaming is sound only because
//! each instance is written once and then read; a loop re-executes its
//! body, so a loop-carried anti-dependence would leave readers on the
//! instance holding the previous iteration's value. With loops present no
//! write is offered to the DDG as a full overwrite, every array keeps
//! instance 0 and its base name, and the scratch-reuse anti/output
//! dependences stand as hard OEG edges — for the search and for code
//! generation alike, because both read them here.

use crate::build::{all_accesses, all_accesses_with_allocs, LaunchAccesses};
use crate::ddg::Ddg;
use crate::oeg::Oeg;
use sf_minicuda::ast::Program;
use sf_minicuda::host::ExecutablePlan;

/// Access sets, DDG and OEG of one program.
#[derive(Debug, Clone, PartialEq)]
pub struct Precedence {
    /// Per-launch read/write sets, parallel to `plan.launches`.
    pub accesses: Vec<LaunchAccesses>,
    /// The DDG over them; its instance maps number every array per launch.
    pub ddg: Ddg,
    /// The launch-level precedence edges.
    pub oeg: Oeg,
}

/// The access sets the DDG is built from. Whole-extent write detection
/// (a footprint analysis per launch) only ever feeds instance relaxation,
/// so it runs only where relaxation applies.
fn accesses(program: &Program, plan: &ExecutablePlan) -> Result<Vec<LaunchAccesses>, String> {
    if plan.loops.is_empty() {
        all_accesses_with_allocs(program, plan)
    } else {
        all_accesses(program, &plan.launches)
    }
}

impl Precedence {
    /// Analyse a program once.
    pub fn build(program: &Program, plan: &ExecutablePlan) -> Result<Precedence, String> {
        let accesses = accesses(program, plan)?;
        let ddg = Ddg::build(&accesses);
        let kernels = plan.launches.iter().map(|l| l.kernel.clone()).collect();
        let oeg = Oeg::build(kernels, &accesses, &ddg, &plan.transfers);
        Ok(Precedence { accesses, ddg, oeg })
    }

    /// The DDG alone — all that instance renaming reads — for a caller that
    /// holds no [`Precedence`] (a plan replay runs no graphs stage).
    pub fn instances(program: &Program, plan: &ExecutablePlan) -> Result<Ddg, String> {
        Ok(Ddg::build(&accesses(program, plan)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::parse_program;

    /// `tmp` is written, read, overwritten and read again; `looped` adds a
    /// host time loop after the four launches.
    fn scratch_reuse(looped: bool) -> (Program, ExecutablePlan) {
        let kernel = |name: &str| {
            format!(
                "__global__ void {name}(const double* __restrict__ x, double* y, int n) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {{ y[i] = x[i] + 1.0; }}
}}\n"
            )
        };
        let tail = if looped {
            "for (int t = 0; t < 2; t++) { w<<<1, 32>>>(c, d, n); }"
        } else {
            "w<<<1, 32>>>(c, d, n);"
        };
        let src = format!(
            "{}{}void host() {{
  int n = 32;
  double* a = cudaAlloc1D(n); double* tmp = cudaAlloc1D(n);
  double* b = cudaAlloc1D(n); double* c = cudaAlloc1D(n); double* d = cudaAlloc1D(n);
  k<<<1, 32>>>(a, tmp, n);
  k<<<1, 32>>>(tmp, b, n);
  k<<<1, 32>>>(a, tmp, n);
  k<<<1, 32>>>(tmp, c, n);
  {tail}
}}\n",
            kernel("k"),
            kernel("w"),
        );
        let p = parse_program(&src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        (p, plan)
    }

    #[test]
    fn flat_hosts_relax_scratch_reuse() {
        let (p, plan) = scratch_reuse(false);
        let pr = Precedence::build(&p, &plan).unwrap();
        assert_eq!(pr.ddg.write_instance[&(2, "tmp".to_string())], 1);
        assert!(!pr.oeg.edges.contains_key(&(0, 2)));
        assert!(!pr.oeg.edges.contains_key(&(1, 2)));
        assert_eq!(Precedence::instances(&p, &plan).unwrap(), pr.ddg);
    }

    #[test]
    fn a_host_time_loop_pins_every_array() {
        let (p, plan) = scratch_reuse(true);
        let pr = Precedence::build(&p, &plan).unwrap();
        assert!(pr.ddg.write_instance.values().all(|&inst| inst == 0));
        assert!(pr.ddg.read_instance.values().all(|&inst| inst == 0));
        assert!(!pr
            .ddg
            .report
            .iter()
            .any(|l| l.contains("redundant instance")));
        assert!(pr.oeg.edges[&(0, 2)].output.contains("tmp"));
        assert!(pr.oeg.edges[&(1, 2)].anti.contains("tmp"));
        assert_eq!(Precedence::instances(&p, &plan).unwrap(), pr.ddg);
    }
}
