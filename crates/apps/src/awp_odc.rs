//! AWP-ODC-GPU analog: an earthquake wave-propagation simulator solving
//! 3-D velocity-stress equations with staggered-grid finite differences
//! (§6.1.1). Paper attributes: 12 kernels, 24 arrays, 6 targets — but the
//! kernels are large and "already in an almost-fused state": the velocity
//! update touches all velocity components (each with its own staggered
//! density field) in one kernel, and the stress update all six stress
//! components. Plain fusion finds nothing (Figures 4–5 show no fusion-only
//! speedup); *fission* splits the fat kernels into per-component pieces
//! with lower register pressure and better-matched fusion partners — which
//! is where the speedup comes from.

use crate::builder::{App, AppBuilder, AppConfig, PaperRow};

/// Build the AWP-ODC-GPU analog.
pub fn build(cfg: &AppConfig) -> App {
    let mut b = AppBuilder::new(cfg, 0xA3D);

    // 3 velocity + 6 stress components; staggered-grid material fields are
    // pre-averaged per component (so the fat kernels' parts are separable).
    for a in [
        "vx", "vy", "vz", "xx", "yy", "zz", "xy", "xz", "yz", "rhox", "rhoy", "rhoz", "lam1",
        "lam2", "lam3", "mu1", "mu2", "mu3",
    ] {
        b.array(a);
    }

    // The "almost fused" fat kernels, with the register pressure of the
    // real 100+-register kernels.
    b.fat(
        "velocity_update",
        &[
            (vec!["xx", "rhox"], "vx".to_string()),
            (vec!["yy", "rhoy"], "vy".to_string()),
            (vec!["zz", "rhoz"], "vz".to_string()),
        ],
        48,
    );
    b.fat(
        "stress_update",
        &[
            (vec!["vx", "lam1"], "xx".to_string()),
            (vec!["vy", "lam2"], "yy".to_string()),
            (vec!["vz", "lam3"], "zz".to_string()),
            (vec!["vx", "mu1"], "xy".to_string()),
            (vec!["vy", "mu2"], "xz".to_string()),
            (vec!["vz", "mu3"], "yz".to_string()),
        ],
        72,
    );
    // Attenuation memory variables: separable pairs consuming the fresh
    // stresses (fusable with the stress products after fission).
    b.fat(
        "memvar_update",
        &[
            (vec!["xx"], "r1".to_string()),
            (vec!["yy"], "r2".to_string()),
        ],
        32,
    );
    // Free-surface stencil and source handling (targets).
    b.lateral_stencil("free_surface", "vz", &["rhoz"], "fs", 1);
    b.pointwise("src_inject", &["src", "rhoz"], "szz_src");
    b.pointwise("swap_buffers", &["fs", "szz_src"], "src");

    // Absorbing boundary + halo pack kernels (filtered as boundary).
    for p in 0..4 {
        let f = ["vx", "vy", "xx", "yy"][p];
        b.boundary(&format!("abc_{p}"), f);
    }
    // Source time function + media scaling: compute-bound (filtered).
    b.compute_bound("stf", "src", "stf_out");
    b.compute_bound("media", "lam1", "media_out");

    b.build(PaperRow {
        name: "AWP-ODC-GPU",
        original_kernels: 12,
        arrays: 24,
        target_kernels: 6,
        new_kernels: 3,
        speedup_low: 1.30,
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
        assert_eq!(app.program.kernels.len(), 12);
        let plan = sf_minicuda::host::ExecutablePlan::from_program(&app.program).unwrap();
        // 18 fields/materials + r1 r2 + fs + src + szz_src + stf_out
        // + media_out = 25... src counted once; exact:
        assert_eq!(plan.allocs.len(), 25);
    }

    #[test]
    fn fat_kernels_are_fissionable() {
        let app = build(&AppConfig::full());
        let vel = app.program.kernel("velocity_update").unwrap();
        let g = sf_analysis::dependence::ArrayDependenceGraph::build(vel);
        assert_eq!(g.components().len(), 3);
        let stress = app.program.kernel("stress_update").unwrap();
        let g = sf_analysis::dependence::ArrayDependenceGraph::build(stress);
        // vx links {xx, xy}; vy links {yy, xz}; vz links {zz, yz}.
        assert_eq!(g.components().len(), 3);
        let mem = app.program.kernel("memvar_update").unwrap();
        let g = sf_analysis::dependence::ArrayDependenceGraph::build(mem);
        assert_eq!(g.components().len(), 2);
    }
}
