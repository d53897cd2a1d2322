//! HOMME analog: the dynamical core of the Community Atmospheric Model
//! (§6.1.1). Paper attributes: 43 kernels, 30 arrays, 22 targets. The
//! distinguishing structures: element kernels with *staggered guard bounds*
//! (the intra-warp-divergence source behind Figure 7) and medium-fat
//! fissionable kernels (fission lifts guided HOMME above the manual
//! baseline, §6.2.2).

use crate::builder::{App, AppBuilder, AppConfig, PaperRow};
use sf_minicuda::ast::Kernel;
use sf_minicuda::builder as b;

/// A stencil with a *staggered* guard: lower bound 1, upper bound `nx - 3`
/// on x (spectral-element interior), unlike the symmetric guards of other
/// apps. All staggered kernels share the same guard so the manual oracle's
/// guard coalescing can pay off.
fn staggered(builder: &mut AppBuilder, name: &str, read: &str, write: &str, cfg: &AppConfig) {
    builder.array(read);
    builder.array(write);
    let w0 = builder.coef();
    let w1 = builder.coef();
    let e = b::add(
        b::mul(b::flt(w0), b::at3(read, 0, 0, 0)),
        b::mul(
            b::flt(w1),
            b::add(b::at3(read, 0, 0, 1), b::at3(read, 0, 0, -1)),
        ),
    );
    let mut body = b::thread_mapping_2d();
    let cond = b::all(vec![
        b::ge(b::var("i"), b::int(1)),
        b::lt(b::var("i"), b::sub(b::var("nx"), b::int(3))),
        b::lt(b::var("j"), b::var("ny")),
    ]);
    body.push(sf_minicuda::ast::Stmt::If {
        cond,
        then_body: vec![b::vertical_loop(0, vec![b::store3(write, e)])],
        else_body: vec![],
    });
    let kernel = Kernel {
        name: name.into(),
        params: b::params_3d(&[read], &[write]),
        body,
    };
    let _ = cfg;
    builder.custom(kernel, vec![read.to_string(), write.to_string()]);
}

/// Build the HOMME analog.
pub fn build(cfg: &AppConfig) -> App {
    let mut b = AppBuilder::new(cfg, 0x40E);

    // State fields.
    for a in ["ps", "temp", "uvel", "vvel", "omega", "phi", "dp3d"] {
        b.array(a);
    }

    let stages = cfg.stages(2);
    for s in 0..stages {
        // Gradient/divergence chains with staggered guards: groups of
        // kernels sharing the same spectral field — the Fig. 7 fusion
        // candidates.
        for (gi, field) in ["temp", "uvel", "vvel", "omega"].iter().enumerate() {
            staggered(
                &mut b,
                &format!("grad_{field}_s{s}"),
                field,
                &format!("g{gi}_a"),
                cfg,
            );
            staggered(
                &mut b,
                &format!("div_{field}_s{s}"),
                field,
                &format!("g{gi}_b"),
                cfg,
            );
            staggered(
                &mut b,
                &format!("vort_{field}_s{s}"),
                field,
                &format!("g{gi}_c"),
                cfg,
            );
        }
        // Fissionable vertical-remap kernels: two independent component
        // groups in one fat kernel.
        b.fat(
            &format!("remap_s{s}"),
            &[
                (vec!["temp", "dp3d"], format!("rtemp_s{s}")),
                (vec!["phi", "ps"], format!("rphi_s{s}")),
            ],
            16,
        );
        // Pressure update chain (flow pair).
        let pwork = format!("pwork_s{s}");
        b.pointwise(&format!("pgrad_s{s}"), &["ps", "dp3d", "metdet"], &pwork);
        b.lateral_stencil(&format!("pupd_s{s}"), &pwork, &[], "ps", 1);
    }

    // Boundary + pack/unpack kernels (filtered).
    let bnds = cfg.stages(9);
    for bi in 0..bnds {
        let f = ["temp", "uvel", "vvel"][bi % 3];
        b.boundary(&format!("pack_{bi}"), f);
    }
    // Physics columns: compute-bound (filtered).
    let phys = cfg.stages(4);
    for p in 0..phys {
        b.compute_bound(&format!("phys_{p}"), "temp", &format!("pout_{p}"));
    }

    b.build(PaperRow {
        name: "HOMME",
        original_kernels: 43,
        arrays: 30,
        target_kernels: 22,
        new_kernels: 9,
        speedup_low: 1.25,
        speedup_high: 1.55,
        fission_driven: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_paper_attributes() {
        let app = build(&AppConfig::full());
        // 2*(4*3 + 1 + 2) + 9 + 4 = 43
        assert_eq!(app.program.kernels.len(), 43);
        let plan = sf_minicuda::host::ExecutablePlan::from_program(&app.program).unwrap();
        // 7 state + metdet + 12 g-work + 4 remap outs + 2 pwork + 4 pout
        // = 30 arrays
        assert_eq!(plan.allocs.len(), 30);
    }

    #[test]
    fn staggered_guards_present() {
        let app = build(&AppConfig::full());
        let text = sf_minicuda::printer::print_program(&app.program);
        assert!(text.contains("i < nx - 3"));
    }
}
