//! End-to-end island-search guarantees on the paper's application analogs
//! (MITgcm and AWP-ODC at test scale), sharded and at the default one
//! island — both go through the same search loop:
//!
//! - the emitted plan is byte-identical for `RAYON_NUM_THREADS` ∈ {1,2,8}
//!   (exercised through the real `sfc` binary, since the thread count is
//!   a per-process environment variable);
//! - a search killed at *every* checkpoint epoch resumes to the
//!   byte-identical program the uninterrupted run produces;
//! - one island fault-killed per epoch still yields a verified plan,
//!   degraded and reported instead of aborting;
//! - where (and whether) a run checkpoints never changes its plan or its
//!   output.

use sf_apps::AppConfig;
use sf_gpusim::device::DeviceSpec;
use sf_minicuda::ast::Program;
use sf_minicuda::printer::print_program;
use stencilfuse::{FaultPlan, Pipeline, PipelineConfig};

fn apps() -> Vec<(&'static str, Program)> {
    let cfg = AppConfig::test();
    vec![
        ("mitgcm", sf_apps::mitgcm::build(&cfg).program),
        ("awp-odc", sf_apps::awp_odc::build(&cfg).program),
    ]
}

/// The island pipeline configuration under test: quick profile, short
/// epochs so the kill-at-every-epoch matrix stays cheap (4 epochs).
fn island_config(islands: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::quick(DeviceSpec::k20x());
    cfg.search.islands = islands;
    cfg.search.generations = 8;
    cfg.search.migration_interval = 2;
    cfg.search.migrants = 1;
    cfg
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-island-search-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

fn run(cfg: PipelineConfig, program: &Program) -> stencilfuse::TransformResult {
    Pipeline::new(program.clone(), cfg)
        .expect("pipeline accepts the app")
        .run()
        .expect("island run succeeds")
}

/// RAYON_NUM_THREADS is read per process, so the determinism matrix runs
/// the real `sfc` binary once per thread count and compares the emitted
/// plans byte for byte.
#[test]
fn emitted_plans_are_byte_identical_across_thread_counts() {
    for (name, program) in apps() {
        let input = tmp(&format!("{name}.cu"));
        std::fs::write(&input, print_program(&program)).unwrap();
        for islands in ["1", "4"] {
            let mut plans = Vec::new();
            for threads in ["1", "2", "8"] {
                let plan = tmp(&format!("{name}-i{islands}-t{threads}.plan.json"));
                let status = std::process::Command::new(env!("CARGO_BIN_EXE_sfc"))
                    .env("RAYON_NUM_THREADS", threads)
                    .args([
                        input.to_str().unwrap(),
                        "--quick",
                        "--islands",
                        islands,
                        "--until",
                        "search",
                        "--emit-plan",
                        plan.to_str().unwrap(),
                        "-o",
                        tmp(&format!("{name}-i{islands}-t{threads}.out.cu"))
                            .to_str()
                            .unwrap(),
                    ])
                    .status()
                    .expect("sfc runs");
                assert!(
                    status.success(),
                    "{name}: sfc --islands {islands} failed at {threads} threads"
                );
                plans.push(std::fs::read_to_string(&plan).unwrap());
            }
            assert!(!plans[0].is_empty(), "{name}: a plan was emitted");
            assert_eq!(plans[0], plans[1], "{name} --islands {islands}: 1 vs 2 threads");
            assert_eq!(plans[0], plans[2], "{name} --islands {islands}: 1 vs 8 threads");
        }
    }
}

#[test]
fn killed_search_resumes_to_the_identical_plan_at_every_epoch() {
    for (name, program) in apps() {
        for islands in [1, 3] {
            killed_search_resumes_at_every_epoch(name, &program, islands);
        }
    }
}

fn killed_search_resumes_at_every_epoch(name: &str, program: &Program, islands: usize) {
    // The kill matrix only needs the search stage: the plan the search
    // lowers is what codegen consumes, so byte-identical plans imply
    // byte-identical programs (proven end to end by the other tests).
    let until_search = || {
        let mut cfg = island_config(islands);
        cfg.run_until = Some(stencilfuse::Stage::Search);
        cfg
    };

    // Golden: the uninterrupted run, which never checkpoints.
    let golden = run(until_search(), program);
    let golden_plan = golden.planned().expect(name).to_json();

    // 8 generations at interval 2 → 4 migration epochs; kill the run
    // right after each one and resume from the snapshot it left.
    for epoch in 0..4 {
        let ckpt = tmp(&format!("{name}-i{islands}-epoch{epoch}.ckpt"));
        let killed_cfg = until_search().with_checkpoint(&ckpt).with_faults(FaultPlan {
            islands: sf_search::IslandFaults {
                kill_at_epoch: Some(epoch),
                ..sf_search::IslandFaults::default()
            },
            ..FaultPlan::default()
        });
        run(killed_cfg, program);
        assert!(ckpt.exists(), "{name}: epoch {epoch} left a checkpoint");

        let resumed = run(until_search().with_resume(&ckpt), program);
        assert_eq!(
            resumed.planned().expect(name).to_json(),
            golden_plan,
            "{name} at {islands} island(s): resume after a kill at epoch {epoch} diverged"
        );
    }
}

#[test]
fn checkpointing_never_changes_the_plan_or_the_output() {
    for (name, program) in apps() {
        let base = PipelineConfig::quick(DeviceSpec::k20x());
        assert_eq!(base.search.islands, 1);
        let ckpt = tmp(&format!("{name}-plain.ckpt"));
        let plain = run(base.clone(), &program);
        let checkpointed = run(base.with_checkpoint(&ckpt), &program);
        assert!(ckpt.exists(), "{name}: the run checkpointed");
        assert_eq!(
            checkpointed.planned().expect(name).to_json(),
            plain.planned().expect(name).to_json(),
            "{name}: --checkpoint changed the plan"
        );
        assert_eq!(
            print_program(&checkpointed.program),
            print_program(&plain.program),
            "{name}: --checkpoint changed the output"
        );
    }
}

#[test]
fn one_island_killed_per_epoch_still_returns_a_verified_degraded_plan() {
    for (name, program) in apps() {
        // Panic island e at the first generation of epoch e: every epoch
        // loses one island, and by the last epoch all three are dead.
        let mut faults = sf_search::IslandFaults::default();
        for island in 0..3usize {
            faults.panic_at.insert(island, island * 2);
        }
        let cfg = island_config(3).with_faults(FaultPlan {
            islands: faults,
            ..FaultPlan::default()
        });
        let result = run(cfg, &program);

        let quarantines: Vec<_> = result
            .degradations()
            .into_iter()
            .filter(|d| d.scope.contains("island"))
            .collect();
        assert!(
            !quarantines.is_empty(),
            "{name}: island quarantines are reported as degradations"
        );
        for d in &quarantines {
            assert!(
                !d.action.contains("verification failed") && !d.reason.contains("output mismatch"),
                "{name}: quarantine must not read like a miscompile: {} ({})",
                d.action,
                d.reason
            );
        }
        let verification = result
            .verification
            .as_ref()
            .expect(name);
        assert!(
            verification.passed(),
            "{name}: the degraded search still produced a verified program"
        );
    }
}
