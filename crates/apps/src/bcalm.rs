//! B-CALM analog: a 3-D FDTD simulator for electromagnetic waves in
//! dispersive (multi-pole) materials (§6.1.1). Paper attributes: 23
//! kernels, 24 arrays, 8 targets. B-CALM deliberately breaks the E/H field
//! updates into separate kernels per pole to minimize thread divergence —
//! at the cost of extra global traffic for the intermediate results. The
//! remaining update kernels are fat and separable per field component, so
//! (as for AWP-ODC-GPU) fission+fusion, not plain fusion, delivers the
//! speedup, and Table 2 reports no tuning headroom (occupancy stays 0.72).

use crate::builder::{App, AppBuilder, AppConfig, PaperRow};

/// Build the B-CALM analog.
pub fn build(cfg: &AppConfig) -> App {
    let mut b = AppBuilder::new(cfg, 0xBCA);

    // E and H field components plus per-component material coefficients.
    for a in [
        "ex", "ey", "ez", "hx", "hy", "hz", "cex", "cey", "cez", "chx", "chy", "chz", "eps",
        "sigma", "srcf",
    ] {
        b.array(a);
    }

    // Fat, separable field updates ("almost fused": all three components of
    // a field in one kernel, each with its own curl input and coefficients).
    b.fat(
        "update_e",
        &[
            (vec!["hx", "cex", "eps"], "ex".to_string()),
            (vec!["hy", "cey"], "ey".to_string()),
            (vec!["hz", "cez"], "ez".to_string()),
        ],
        60,
    );
    b.fat(
        "update_h",
        &[
            (vec!["ex", "chx", "sigma"], "hx".to_string()),
            (vec!["ey", "chy"], "hy".to_string()),
            (vec!["ez", "chz"], "hz".to_string()),
        ],
        60,
    );

    // Per-pole polarization currents: the split kernels whose intermediate
    // results round-trip through global memory between invocations (the
    // extra traffic the paper's high-resolution setting amplifies).
    let poles = cfg.stages(3);
    for p in 0..poles {
        let jp = format!("jp_{p}");
        let cjp = format!("cjp_{p}");
        b.pointwise(&format!("pole_acc_{p}"), &["ex", &jp, &cjp, "srcf"], &jp);
        b.lateral_stencil(&format!("pole_apply_{p}"), &jp, &["cex"], "ex", 1);
    }

    // PML absorbing boundaries: boundary kernels per face (filtered).
    for f in 0..cfg.stages(9) {
        let a = ["ex", "ey", "ez", "hx", "hy", "hz"][f % 6];
        b.boundary(&format!("pml_{f}"), a);
    }
    // Dispersive material coefficients + observables: compute-bound.
    for c in 0..cfg.stages(6) {
        let src = ["ex", "hy"][c % 2];
        b.compute_bound(&format!("disp_{c}"), src, &format!("obs_{}", c % 3));
    }

    b.build(PaperRow {
        name: "B-CALM",
        original_kernels: 23,
        arrays: 24,
        target_kernels: 8,
        new_kernels: 3,
        speedup_low: 1.25,
        speedup_high: 1.80,
        fission_driven: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_paper_attributes() {
        let app = build(&AppConfig::full());
        // 2 fat + 3*2 pole + 9 pml + 6 disp = 23
        assert_eq!(app.program.kernels.len(), 23);
        let plan = sf_minicuda::host::ExecutablePlan::from_program(&app.program).unwrap();
        // 15 fields/coefs/materials + 3 jp + 3 cjp + 3 obs = 24.
        assert_eq!(plan.allocs.len(), 24);
    }

    #[test]
    fn update_kernels_are_separable() {
        let app = build(&AppConfig::full());
        for name in ["update_e", "update_h"] {
            let k = app.program.kernel(name).unwrap();
            let g = sf_analysis::dependence::ArrayDependenceGraph::build(k);
            assert_eq!(g.components().len(), 3, "{name}");
        }
    }
}
