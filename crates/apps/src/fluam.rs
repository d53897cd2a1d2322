//! Fluam analog: fluctuating particle hydrodynamics with a 3rd-order
//! Runge-Kutta scheme (§6.1.1). Paper attributes: 169 stencil kernels, 144
//! arrays, only 42 targets after filtering — the search space is large and
//! convergence is comparatively poor. A handful of kernels have "latency
//! problems (poor computation and memory overlapping)" that make them look
//! memory-bound to the automated filter (the Figure 8 anomaly).

use crate::builder::{App, AppBuilder, AppConfig, PaperRow};

/// Build the Fluam analog.
pub fn build(cfg: &AppConfig) -> App {
    let mut b = AppBuilder::new(cfg, 0xF10A);

    // Hydrodynamic fields.
    for a in ["dens", "velx", "vely", "velz"] {
        b.array(a);
    }

    // Three RK substeps: per substep, per field, a flux → update chain plus
    // substep-private scratch (the huge array count comes from here).
    let substeps = cfg.stages(3);
    for s in 0..substeps {
        for f in ["dens", "velx", "vely", "velz"] {
            let flux = format!("fx_{f}_{s}");
            let upd = format!("up_{f}_{s}");
            b.pointwise(&format!("flux_{f}_rk{s}"), &[f, "dens"], &flux);
            b.lateral_stencil(&format!("adv_{f}_rk{s}"), &flux, &[], &upd, 1);
            b.interior_pointwise(&format!("accum_{f}_rk{s}"), &[f, &upd], f);
        }
        // Random thermal forcing: compute-bound transcendental kernels.
        for r in 0..cfg.stages(12) {
            b.compute_bound(&format!("noise_{s}_{r}"), "dens", &format!("rng_{s}_{r}"));
        }
        // Cell / particle bookkeeping: boundary-sized kernels.
        for p in 0..cfg.stages(10) {
            let f = ["velx", "vely", "velz"][p % 3];
            b.boundary(&format!("cell_{s}_{p}"), f);
        }
        // Diagnostics over private scratch plus a pool of parameter fields
        // (the long tail of Fluam's 144 arrays).
        for d in 0..cfg.stages(18) {
            let src = format!("fx_{}_{s}", ["dens", "velx", "vely", "velz"][d % 4]);
            let prm = format!("prm_{}", (s * 7 + d) % 20);
            b.array(&prm);
            b.pointwise(
                &format!("diag_{s}_{d}"),
                &[&src, &prm],
                &format!("dg_{s}_{d}"),
            );
        }
    }

    // Latency-bound stragglers: long dependent load chains crush the
    // register budget; the roofline test still classifies them as
    // memory-bound targets (the automated filter keeps them, §6.2.2).
    for l in 0..cfg.stages(6) {
        b.latency_bound(&format!("bond_{l}"), "dens", &format!("bd_{l}"), 96);
    }

    // Remaining boundary handling.
    for p in 0..cfg.stages(7) {
        b.boundary(&format!("wall_{p}"), ["dens", "velx"][p % 2]);
    }

    b.build(PaperRow {
        name: "Fluam",
        original_kernels: 169,
        arrays: 144,
        target_kernels: 42,
        new_kernels: 17,
        speedup_low: 1.10,
        speedup_high: 1.35,
        fission_driven: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_paper_attributes() {
        let app = build(&AppConfig::full());
        // 3*(4*3 + 12 + 10 + 12) + 6 + 7 = 151... counted below.
        let plan = sf_minicuda::host::ExecutablePlan::from_program(&app.program).unwrap();
        assert_eq!(app.program.kernels.len(), plan.launches.len());
        assert_eq!(plan.launches.len(), 169);
        assert_eq!(plan.allocs.len(), 144);
    }

    #[test]
    fn latency_kernels_have_many_locals() {
        let app = build(&AppConfig::full());
        let bond = app
            .program
            .kernels
            .iter()
            .find(|k| k.name.starts_with("bond_"))
            .unwrap();
        let text = sf_minicuda::printer::print_kernel(bond);
        assert!(text.matches("double v").count() >= 90);
    }
}
