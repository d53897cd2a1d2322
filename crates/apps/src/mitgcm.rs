//! MITgcm analog: an oceanic general circulation model in non-hydrostatic
//! mode (§6.1.1). Paper attributes: 37 kernels, 29 arrays, 14 targets; the
//! hotspot is a 3-D conjugate-gradient solver for surface pressure built
//! from simple radius-1 stencils. Occupancy is already near-optimal
//! (Table 2: 0.95 before tuning), so block tuning has little headroom.

use crate::builder::{App, AppBuilder, AppConfig, PaperRow};

/// Build the MITgcm analog.
pub fn build(cfg: &AppConfig) -> App {
    let mut b = AppBuilder::new(cfg, 0x317);

    for a in ["pres", "uvel", "vvel", "wvel", "theta", "salt", "mask"] {
        b.array(a);
    }

    // CG iterations for the non-hydrostatic pressure: laplacian → combine
    // chains over p/r/q work vectors (simple radius-1 stencils).
    let iters = cfg.stages(4);
    for it in 0..iters {
        b.lateral_stencil(
            &format!("cg_lap_{it}"),
            "cg_p",
            &["mask", "hfac"],
            &format!("cg_q_{it}"),
            1,
        );
        b.interior_pointwise(&format!("cg_upd_x_{it}"), &["pres", "cg_p"], "pres");
        b.interior_pointwise(
            &format!("cg_upd_r_{it}"),
            &["cg_r", &format!("cg_q_{it}")],
            "cg_r",
        );
        b.interior_pointwise(&format!("cg_dir_{it}"), &["cg_r", "cg_p"], "cg_p");
    }

    // Momentum and tracer steps sharing velocity fields.
    for f in ["uvel", "vvel", "wvel"] {
        let cori = format!("cori_{f}");
        b.pointwise(
            &format!("mom_rhs_{f}"),
            &[f, "pres", &cori, "taux"],
            &format!("gu_{f}"),
        );
        b.lateral_stencil(&format!("mom_adv_{f}"), &format!("gu_{f}"), &[], f, 1);
    }
    for t in ["theta", "salt"] {
        let kappa = format!("kappa_{t}");
        b.stencil(
            &format!("trc_{t}"),
            t,
            &["mask", &kappa],
            &format!("gt_{t}"),
            1,
        );
    }

    // Equation of state and vertical mixing: compute-bound (filtered).
    for c in 0..cfg.stages(4) {
        b.compute_bound(&format!("eos_{c}"), "theta", &format!("rho_{c}"));
    }
    // Boundary masks and open-boundary forcing (filtered).
    for p in 0..cfg.stages(9) {
        let f = ["uvel", "vvel", "theta", "pres"][p % 4];
        b.boundary(&format!("obc_{p}"), f);
    }

    b.build(PaperRow {
        name: "MITgcm",
        original_kernels: 37,
        arrays: 29,
        target_kernels: 14,
        new_kernels: 6,
        speedup_low: 1.10,
        speedup_high: 1.30,
        fission_driven: false,
    })
}

/// Build the time-stepped MITgcm analog: the non-hydrostatic pressure
/// relaxation as a recorded host time loop — a ping-pong Jacobi pair over
/// `pres`/`pres_new` framed by a pointwise right-hand-side prologue and a
/// diagnostic epilogue. This is the temporal-blocking target shape of
/// §5.5.3; blocks are forced square (`by = 32`) so the folded halo
/// (`2·T·Σr < block edge`) stays legal at degrees up to 4.
pub fn build_temporal(cfg: &AppConfig) -> App {
    let mut cfg = cfg.clone();
    cfg.by = cfg.by.max(32);
    let mut b = AppBuilder::new(&cfg, 0x318);

    b.pointwise("rhs_init", &["theta", "salt"], "pres");
    b.begin_time_loop();
    b.lateral_stencil("relax_fwd", "pres", &["mask"], "pres_new", 1);
    b.lateral_stencil("relax_bwd", "pres_new", &["mask"], "pres", 1);
    b.end_time_loop(8);
    b.pointwise("diag_norm", &["pres"], "resid");

    b.build(PaperRow {
        name: "MITgcm-ts",
        original_kernels: 4,
        arrays: 6,
        target_kernels: 4,
        new_kernels: 3,
        speedup_low: 1.10,
        speedup_high: 2.00,
        fission_driven: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temporal_analog_records_one_time_loop() {
        let app = build_temporal(&AppConfig::full());
        let plan = sf_minicuda::host::ExecutablePlan::from_program(&app.program).unwrap();
        assert_eq!(app.program.kernels.len(), 4);
        let repeats: Vec<(i64, usize)> = app
            .program
            .host
            .iter()
            .filter_map(|s| match s {
                sf_minicuda::ast::HostStmt::Repeat {
                    count: sf_minicuda::ast::Expr::Int(n),
                    body,
                    ..
                } => Some((*n, body.len())),
                _ => None,
            })
            .collect();
        // Eight iterations of a two-member body: degrees 2 and 4 both
        // divide the trip count.
        assert_eq!(repeats, vec![(8, 2)]);
        // The recorder keeps loop launches un-unrolled: 1 + 2 + 1.
        assert_eq!(plan.launches.len(), 4);
        assert!(app.program.kernels.iter().any(|k| k.name == "relax_fwd"));
    }

    #[test]
    fn full_scale_matches_paper_attributes() {
        let app = build(&AppConfig::full());
        // 4*4 + 3*2 + 2 + 4 + 9 = 37
        assert_eq!(app.program.kernels.len(), 37);
        let plan = sf_minicuda::host::ExecutablePlan::from_program(&app.program).unwrap();
        // 7 fields + hfac + cg_p/cg_r + cg_q(4) + cori(3) + taux + gu(3)
        // + kappa(2) + gt(2) + rho(4) = 29.
        assert_eq!(plan.allocs.len(), 29, "{:?}", plan.allocs.len());
    }
}
