#![warn(missing_docs)]
//! # sf-fuzz
//!
//! Generative differential testing for the stencilfuse pipeline: a seeded
//! random stencil-program generator ([`gen`]), a pipeline-wide equivalence
//! oracle ([`oracle`]), an automatic shrinker ([`shrink`](mod@shrink)), and
//! reproducer emission ([`repro`]).
//!
//! The fuzzer's contract, per seed:
//!
//! 1. [`gen::generate`] builds a random but *analyzable* stencil program
//!    (affine accesses, standard thread mapping) — same seed, same program.
//! 2. [`oracle::check_program`] runs the full pipeline on it (Degrade
//!    policy, plan replay, and all fault-injected degradation rungs) and
//!    checks equivalence against the untransformed program on the gpusim
//!    interpreter, hazards included.
//! 3. On failure, [`shrink::shrink`] removes launches and statements while
//!    the same check keeps failing, and [`repro::write_repro`] emits a
//!    minimal self-contained `.sfir` reproducer plus the offending
//!    `TransformPlan` JSON.
//!
//! Beyond the per-seed oracle, two robustness harnesses ride in the same
//! binary: [`hostile`] (compile-bomb archetypes the resource governor must
//! reject with structured attribution — `sf-fuzz --hostile`) and [`soak`]
//! (the long-running seeded chaos soak over the batch driver —
//! `sf-fuzz --soak`).
//!
//! Replay a failure with `cargo run -p sf-fuzz -- --seed N`.

pub mod gen;
pub mod hostile;
pub mod oracle;
pub mod repro;
pub mod shrink;
pub mod soak;

pub use gen::{generate, GenConfig, Generated};
pub use hostile::{Archetype, ARCHETYPES};
pub use oracle::{check_program, check_program_with, OracleFailure, OracleOptions};
pub use repro::write_repro;
pub use shrink::{shrink, shrink_with};
pub use soak::{run_soak, SoakConfig, SoakReport, SoakViolation};

/// Fuzz one seed end-to-end: generate, check, and on failure shrink down
/// to a minimal program that still fails the same check. Returns the
/// failure (with the *shrunk* program's detail and plan) and the shrunk
/// program, or `None` when the seed is clean.
pub fn fuzz_seed(seed: u64, cfg: &GenConfig) -> Option<(OracleFailure, sf_minicuda::ast::Program)> {
    fuzz_seed_with(seed, cfg, OracleOptions::default())
}

/// [`fuzz_seed`] with optional oracle checks enabled; the shrinker runs
/// the same option set, so a minimized reproducer still fails the same
/// (possibly optional) check.
pub fn fuzz_seed_with(
    seed: u64,
    cfg: &GenConfig,
    opts: OracleOptions,
) -> Option<(OracleFailure, sf_minicuda::ast::Program)> {
    let generated = generate(seed, cfg);
    let failure = check_program_with(&generated.program, seed, opts).err()?;
    let check = failure.check;
    let small = shrink::shrink_with(
        &generated.program,
        |p| {
            check_program_with(p, seed, opts)
                .err()
                .is_some_and(|f| f.check == check)
        },
        200,
    );
    // Re-run the oracle on the shrunk program so the reported detail and
    // plan belong to the minimized reproducer, not the original.
    let final_failure = check_program_with(&small, seed, opts)
        .err()
        .unwrap_or(failure);
    Some((final_failure, small))
}

#[cfg(test)]
mod sabotage_tests {
    //! The harness self-test demanded by the acceptance criteria: a
    //! deliberately broken fused kernel (staging barrier removed — the
    //! effect of swapping the staging/barrier order in `codegen::fuse`)
    //! must be caught by the oracle's equivalence check via the
    //! interpreter's shared-memory read-after-write hazard detector.

    use sf_codegen::{transform_program, CodegenMode, GroupPlan, MemberRef, TransformPlan};
    use sf_gpusim::device::DeviceSpec;
    use sf_minicuda::ast::{Kernel, Program, Stmt};
    use sf_minicuda::builder as b;
    use sf_minicuda::host::ExecutablePlan;
    use stencilfuse::verify_equivalence;

    /// Producer (pointwise) feeding a lateral stencil consumer: fusing
    /// them stages the intermediate array in shared memory behind a
    /// `__syncthreads()` barrier.
    fn producer_consumer() -> Program {
        let producer = Kernel {
            name: "produce".into(),
            params: b::params_3d(&["u"], &["a"]),
            body: {
                let mut body = b::thread_mapping_2d();
                // Full-domain producer: its write domain must cover the
                // consumer's halo reads for complex fusion to be legal.
                body.push(b::interior_guard(
                    0,
                    vec![b::vertical_loop(
                        0,
                        vec![b::store3("a", b::mul(b::flt(2.0), b::at3("u", 0, 0, 0)))],
                    )],
                ));
                body
            },
        };
        let lateral = [
            b::at3("a", 0, 0, 1),
            b::at3("a", 0, 0, -1),
            b::at3("a", 0, 1, 0),
            b::at3("a", 0, -1, 0),
        ]
        .into_iter()
        .reduce(b::add)
        .expect("four points");
        let consumer = Kernel {
            name: "consume".into(),
            params: b::params_3d(&["a"], &["c"]),
            body: {
                let mut body = b::thread_mapping_2d();
                body.push(b::interior_guard(
                    1,
                    vec![b::vertical_loop(
                        0,
                        vec![b::store3("c", b::mul(b::flt(0.25), lateral))],
                    )],
                ));
                body
            },
        };
        let host = b::simple_host(
            &["u", "a", "c"],
            &[("produce", vec!["u", "a"]), ("consume", vec!["a", "c"])],
            (32, 16, 6),
            (16, 8),
        );
        Program {
            kernels: vec![producer, consumer],
            host,
        }
    }

    /// Remove the first `__syncthreads()` in a statement list, recursing
    /// into `if`/`for` bodies. Returns true when one was removed.
    fn remove_first_sync(stmts: &mut Vec<Stmt>) -> bool {
        for i in 0..stmts.len() {
            if matches!(stmts[i], Stmt::SyncThreads) {
                stmts.remove(i);
                return true;
            }
            let removed = match &mut stmts[i] {
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => remove_first_sync(then_body) || remove_first_sync(else_body),
                Stmt::For { body, .. } => remove_first_sync(body),
                _ => false,
            };
            if removed {
                return true;
            }
        }
        false
    }

    #[test]
    fn missing_staging_barrier_is_caught_as_a_hazard() {
        let original = producer_consumer();
        let plan = ExecutablePlan::from_program(&original).expect("executable");
        let tplan = TransformPlan::new(
            DeviceSpec::k20x(),
            CodegenMode::Auto,
            false,
            vec![GroupPlan::of(vec![
                MemberRef::original(0),
                MemberRef::original(1),
            ])],
        );
        let out = transform_program(&original, &plan, &tplan).expect("fusion succeeds");
        let fused = out.program;
        let has_sync = fused.kernels.iter().any(|k| kernel_has_sync(&k.body));
        assert!(
            has_sync,
            "fused producer→stencil-consumer must stage behind a barrier"
        );

        // Correct fusion verifies cleanly, hazards included.
        let good = verify_equivalence(&original, &fused, 7).expect("interpretable");
        assert!(
            good.passed(),
            "correct fusion must verify: {:?}",
            good.failure()
        );

        // Sabotage: drop the staging barrier (same effect as swapping the
        // staging/barrier order in the fuser) — the oracle must now see a
        // shared read-after-write hazard.
        let mut sabotaged = fused.clone();
        let mut removed = false;
        for k in &mut sabotaged.kernels {
            if remove_first_sync(&mut k.body) {
                removed = true;
                break;
            }
        }
        assert!(removed, "a barrier was present to remove");
        let bad = verify_equivalence(&original, &sabotaged, 7).expect("interpretable");
        assert!(!bad.passed(), "missing barrier must fail verification");
        assert!(
            !bad.hazards.is_empty(),
            "the failure is detected as a shared-memory hazard"
        );
        assert!(
            bad.hazards.iter().any(|h| h.contains("read-after-write")),
            "hazards: {:?}",
            bad.hazards
        );
    }

    fn kernel_has_sync(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::SyncThreads => true,
            Stmt::If {
                then_body,
                else_body,
                ..
            } => kernel_has_sync(then_body) || kernel_has_sync(else_body),
            Stmt::For { body, .. } => kernel_has_sync(body),
            _ => false,
        })
    }
}
