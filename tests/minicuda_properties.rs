//! Property-based tests over the minicuda frontend: for any generated
//! stencil kernel, unparse ∘ parse is the identity, the analyses are
//! deterministic, and fission is complete (products partition the work).

use proptest::prelude::*;
use sf_minicuda::ast::*;
use sf_minicuda::builder as b;
use sf_minicuda::{parse_program, printer, reparse};

/// Strategy: a random literal-coefficient stencil expression over `arrays`.
fn arb_expr(arrays: Vec<String>) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0usize..arrays.len(), -2i64..=2, -2i64..=2).prop_map({
            let arrays = arrays.clone();
            move |(a, dj, di)| b::at3(&arrays[a], 0, dj, di)
        }),
        (-4.0f64..4.0).prop_map(b::flt),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| b::add(x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| b::mul(x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| b::sub(x, y)),
            inner.prop_map(|x| Expr::Call {
                fun: Intrinsic::Fabs,
                args: vec![x]
            }),
        ]
    })
}

/// Strategy: a full single-sweep stencil kernel reading `u`, writing `v`.
fn arb_kernel() -> impl Strategy<Value = Kernel> {
    (arb_expr(vec!["u".into()]), 0i64..=2).prop_map(|(expr, radius)| {
        let mut body = b::thread_mapping_2d();
        body.push(b::interior_guard(
            radius.max(2), // guard must cover the offsets (|d| <= 2)
            vec![b::vertical_loop(0, vec![b::store3("v", expr)])],
        ));
        Kernel {
            name: "k".into(),
            params: b::params_3d(&["u"], &["v"]),
            body,
        }
    })
}

fn host_for(kernels: &[&str]) -> Vec<HostStmt> {
    b::simple_host(
        &["u", "v"],
        &kernels
            .iter()
            .map(|k| (*k, vec!["u", "v"]))
            .collect::<Vec<_>>(),
        (32, 16, 8),
        (16, 8),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn print_parse_round_trip(kernel in arb_kernel()) {
        let program = Program {
            kernels: vec![kernel],
            host: host_for(&["k"]),
        };
        let back = reparse(&program).expect("generated source parses");
        prop_assert_eq!(&back, &program);
        // And printing is a fixpoint after one round.
        let s1 = printer::print_program(&program);
        let s2 = printer::print_program(&back);
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn access_analysis_is_deterministic_and_bounded(kernel in arb_kernel()) {
        let ka1 = sf_analysis::access::KernelAccess::analyze(&kernel).expect("analyzable");
        let ka2 = sf_analysis::access::KernelAccess::analyze(&kernel).expect("analyzable");
        prop_assert_eq!(&ka1, &ka2);
        // Exactly one sweep; its radius never exceeds the generator bound.
        prop_assert_eq!(ka1.sweeps.len(), 1);
        // A constant index selects a plane rather than offsetting the
        // iteration point, so it adds no radius.
        use sf_analysis::IdxBase;
        let radius = ka1.sweeps[0]
            .accesses
            .iter()
            .flat_map(|acc| &acc.pats)
            .filter(|p| !matches!(p.base, IdxBase::Const | IdxBase::Unknown))
            .map(|p| p.off.abs())
            .max()
            .unwrap_or(0);
        prop_assert!(radius <= 2, "radius {}", radius);
    }

    #[test]
    fn traffic_is_consistent_with_interpreter_footprint(kernel in arb_kernel()) {
        use sf_gpusim::{GlobalMemory, Interpreter};
        let program = Program {
            kernels: vec![kernel.clone()],
            host: host_for(&["k"]),
        };
        let plan = sf_minicuda::host::ExecutablePlan::from_program(&program).expect("plan");
        let ka = sf_analysis::access::KernelAccess::analyze(&kernel).expect("analyzable");
        let t = sf_analysis::access::launch_traffic(
            &ka, &kernel, &plan.launches[0], &|n| plan.alloc(n).cloned(),
        ).expect("traffic");
        let mut mem = GlobalMemory::from_plan(&plan);
        mem.seed_all(1);
        let mut interp = Interpreter::new(&program);
        interp.track_footprint = true;
        let stats = interp.run_plan(&plan, &mut mem).expect("runs");
        // The analytic model is a bounding box of the exact footprint: it
        // can only overestimate, and writes (no offsets) match exactly.
        let exact_reads = stats[0].footprint_read_elems * 8;
        let exact_writes = stats[0].footprint_write_elems * 8;
        prop_assert!(t.read_bytes >= exact_reads,
            "model reads {} < exact {}", t.read_bytes, exact_reads);
        prop_assert_eq!(t.write_bytes, exact_writes);
        // Bounding-box slack on a radius<=2 stencil stays moderate.
        if exact_reads > 0 {
            prop_assert!(t.read_bytes <= exact_reads * 3,
                "model reads {} vs exact {}", t.read_bytes, exact_reads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fission_products_partition_fat_kernels(nparts in 2usize..5) {
        // Build a fat kernel with `nparts` separable components and check
        // Algorithm 2's contract: products are pairwise disjoint on writes
        // and their union covers every written array.
        let mut stmts = Vec::new();
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for p in 0..nparts {
            let r = format!("in{p}");
            let w = format!("out{p}");
            stmts.push(b::store3(&w, b::mul(b::flt(1.5), b::at3(&r, 0, 0, 0))));
            reads.push(r);
            writes.push(w);
        }
        let read_refs: Vec<&str> = reads.iter().map(|s| s.as_str()).collect();
        let write_refs: Vec<&str> = writes.iter().map(|s| s.as_str()).collect();
        let mut body = b::thread_mapping_2d();
        body.push(b::interior_guard(0, vec![b::vertical_loop(0, stmts)]));
        let kernel = Kernel {
            name: "fat".into(),
            params: b::params_3d(&read_refs, &write_refs),
            body,
        };
        let products = sf_codegen::fission_kernel(&kernel).expect("separable");
        prop_assert_eq!(products.len(), nparts);
        let mut covered = std::collections::BTreeSet::new();
        for prod in &products {
            for w in sf_minicuda::visit::arrays_written(&prod.kernel.body) {
                prop_assert!(covered.insert(w.clone()), "write {} appears twice", w);
            }
        }
        prop_assert_eq!(covered.len(), nparts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fuzzer's whole-program generator feeds the same round-trip
    /// property: any generated multi-kernel program (stencils, boundary
    /// kernels, fat kernels, in-place updates) survives unparse ∘ parse
    /// unchanged, and printing is a fixpoint.
    #[test]
    fn generated_programs_round_trip(seed in 0u64..512) {
        let g = sf_fuzz::generate(seed, &sf_fuzz::GenConfig::default());
        let back = reparse(&g.program).expect("generated source parses");
        prop_assert_eq!(&back, &g.program);
        let s1 = printer::print_program(&g.program);
        let s2 = printer::print_program(&back);
        prop_assert_eq!(s1, s2);
    }
}

#[test]
fn parse_rejects_malformed_programs() {
    for bad in [
        "__global__ void k(double* a { }",
        "__global__ void k(double* a) { a[0] = ; }",
        "__global__ void k(double* a) { for (int i = 0; i < 4; j++) a[i] = 0.0; }",
        "void host() { double* a = cudaAlloc9D(4); }",
    ] {
        assert!(parse_program(bad).is_err(), "should reject: {bad}");
    }
}
