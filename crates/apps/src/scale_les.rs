//! SCALE-LES analog: a next-generation weather model's dynamical core
//! (§6.1.1). Paper attributes: 142 kernels, 63 arrays, mostly memory-bound
//! iterative stencils; flux → tendency → update chains per prognostic
//! variable and Runge-Kutta stage; deep-nested tracer kernels whose fusion
//! the automatic code generator handles sub-optimally (Figure 6).

use crate::builder::{App, AppBuilder, AppConfig, PaperRow};

/// The prognostic variables of the dynamical core.
const VARS: [&str; 10] = [
    "dens", "momx", "momy", "momz", "rhot", "qv", "qc", "qr", "qi", "qs",
];

/// Build the SCALE-LES analog.
pub fn build(cfg: &AppConfig) -> App {
    let mut b = AppBuilder::new(cfg, 0x5CA1E);
    // Metric terms, read everywhere.
    for m in ["gsqrt", "mapf", "rcdz", "rcdx", "rcdy"] {
        b.array(m);
    }

    let stages = cfg.stages(3);
    for s in 0..stages {
        for v in VARS {
            // Flux: full-domain pointwise producer over the variable and
            // the metric terms.
            b.pointwise(
                &format!("flux_{v}_s{s}"),
                &[v, "gsqrt", "mapf"],
                &format!("flux_{v}"),
            );
            // Tendency: lateral radius-1 stencil on the flux (the
            // complex-fusion candidate with the flux producer).
            b.lateral_stencil(
                &format!("tend_{v}_s{s}"),
                &format!("flux_{v}"),
                &["rcdz"],
                &format!("tend_{v}"),
                1,
            );
            // Update: interior pointwise read-modify-write of the variable
            // (its domain matches the tendency's write domain).
            b.interior_pointwise(&format!("update_{v}_s{s}"), &[v, &format!("tend_{v}")], v);
        }
        // Deep-nested tracer advection (4-D fields): producer + consumer
        // pair sharing the tracer and density fields — the Figure 6 case.
        b.deep(&format!("trc_adv_s{s}"), "qtrc", "dens", "qtrc_t", 4);
        b.deep(&format!("trc_upd_s{s}"), "qtrc_t", "dens", "qtrc", 4);
    }

    // Numerical diffusion: radius-2 stencils, one per variable.
    for v in VARS {
        b.stencil(
            &format!("numdiff_{v}"),
            v,
            &["rcdx", "rcdy"],
            &format!("dif_{v}"),
            2,
        );
    }

    // Diagnostics: pointwise consumers sharing prognostic inputs.
    let diags = cfg.stages(15);
    for d in 0..diags {
        let v1 = VARS[d % VARS.len()];
        let v2 = VARS[(d + 3) % VARS.len()];
        b.pointwise(
            &format!("diag_{d}"),
            &[v1, v2, "gsqrt"],
            &format!("wk_{}", d % 13),
        );
    }

    // Boundary kernels (filtered out as targets).
    let bnds = cfg.stages(15);
    for bi in 0..bnds {
        let v = VARS[bi % VARS.len()];
        b.boundary(&format!("bnd_{bi}"), v);
    }

    // Compute-bound microphysics (filtered out as targets).
    let micro = cfg.stages(6);
    for m in 0..micro {
        let v = VARS[(m + 5) % VARS.len()];
        b.compute_bound(&format!("mp_{m}"), v, &format!("mpout_{}", m % 3));
    }

    b.build(PaperRow {
        name: "SCALE-LES",
        original_kernels: 142,
        arrays: 63,
        target_kernels: 117,
        new_kernels: 38,
        speedup_low: 1.25,
        speedup_high: 1.45,
        fission_driven: false,
    })
}

/// Build the time-stepped SCALE-LES analog: one short-time-step
/// flux→update chain for `dens` inside a recorded host time loop (the
/// acoustic sub-stepping of the dynamical core, with the 4th-order
/// numerical diffusion folded into the step — hence radius-2 stencils),
/// framed by an initializer and a diagnostic. Blocks are forced square
/// (`by = 32`): with radius-2 members the accumulated halo keeps degree 2
/// legal but excludes degree 4 (`2·4·(2+2) ≥ 32`), so this analog pins
/// the geometry constraint the mitgcm analog does not exercise.
pub fn build_temporal(cfg: &AppConfig) -> App {
    let mut cfg = cfg.clone();
    cfg.by = cfg.by.max(32);
    let mut b = AppBuilder::new(&cfg, 0x5CA1F);

    b.pointwise("init_dens", &["dens0", "gsqrt"], "dens");
    b.begin_time_loop();
    b.lateral_stencil("flux_div", "dens", &["rcdx"], "dens_t", 2);
    b.lateral_stencil("time_integ", "dens_t", &["rcdx"], "dens", 2);
    b.end_time_loop(8);
    b.pointwise("diagnose", &["dens"], "qv_diag");

    b.build(PaperRow {
        name: "SCALE-LES-ts",
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
        assert!(app.program.kernels.iter().any(|k| k.name == "flux_div"));
    }

    #[test]
    fn full_scale_matches_paper_attributes() {
        let app = build(&AppConfig::full());
        let kernels = app.program.kernels.len();
        // 3*(10*3+2) + 10 + 15 + 15 + 6 = 142
        assert_eq!(kernels, 142, "kernel count");
        let plan = sf_minicuda::host::ExecutablePlan::from_program(&app.program).unwrap();
        assert_eq!(plan.launches.len(), 142);
        // Arrays: 10 vars + flux/tend per var (20) + metrics (5) + dif (10)
        // + qtrc/qtrc_t (2) + wk (13) + mpout (3) = 63.
        assert_eq!(plan.allocs.len(), 63, "array count");
    }

    #[test]
    fn test_scale_is_smaller_but_valid() {
        let app = build(&AppConfig::test());
        let plan = sf_minicuda::host::ExecutablePlan::from_program(&app.program).unwrap();
        assert!(plan.launches.len() < 80);
        assert!(!plan.launches.is_empty());
    }
}
