//! Tier-1 smoke slice of the differential fuzzer: a small fixed corpus
//! must pass every oracle check, deterministically. The full 300-seed
//! corpus runs in the CI fuzz job (`sf-fuzz --seed-range 0..300`).

use sf_apps::{app_by_name, AppConfig, APP_NAMES};
use sf_fuzz::oracle::check_tuning_monotone;
use sf_fuzz::{check_program, fuzz_seed, generate, GenConfig};
use sf_gpusim::device::DeviceSpec;
use sf_minicuda::printer::print_program;
use stencilfuse::{Pipeline, PipelineConfig};

const SMOKE_SEEDS: std::ops::Range<u64> = 0..12;

#[test]
fn smoke_corpus_is_clean() {
    let cfg = GenConfig::default();
    for seed in SMOKE_SEEDS {
        let g = generate(seed, &cfg);
        if let Err(f) = check_program(&g.program, seed) {
            panic!(
                "seed {seed} fails oracle check [{}]: {}\nreplay: cargo run -p sf-fuzz -- --seed {seed}",
                f.check, f.detail
            );
        }
    }
}

#[test]
fn generation_and_verdicts_are_deterministic() {
    let cfg = GenConfig::default();
    for seed in [0u64, 5, 11] {
        let a = generate(seed, &cfg);
        let b = generate(seed, &cfg);
        assert_eq!(
            print_program(&a.program),
            print_program(&b.program),
            "seed {seed}: generator must be a pure function of the seed"
        );
        // Two oracle runs agree (the whole pipeline is deterministic).
        let r1 = check_program(&a.program, seed).err().map(|f| f.check);
        let r2 = check_program(&b.program, seed).err().map(|f| f.check);
        assert_eq!(r1, r2, "seed {seed}: oracle verdict must be reproducible");
    }
}

#[test]
fn fuzz_seed_reports_nothing_on_a_clean_seed() {
    assert!(
        fuzz_seed(3, &GenConfig::default()).is_none(),
        "seed 3 is part of the clean corpus"
    );
}

/// `tuning-monotone` on the application analogs, whose fused kernels the
/// tuner retunes far more often than the generated corpus's: under the
/// pipeline's own (functional) profile no tuned kernel and no tuned
/// program prices slower than at its initial blocks.
#[test]
fn tuning_is_monotone_on_the_analogs() {
    let narrow = AppConfig {
        nx: 32,
        ny: 8,
        nz: 2,
        ..AppConfig::test()
    };
    let mut tuned = 0;
    for domain in [AppConfig::test(), narrow] {
        for name in APP_NAMES {
            let app = app_by_name(name, &domain).expect("registered analog");
            let mut config = PipelineConfig::quick(DeviceSpec::k20x());
            if name.ends_with("-ts") {
                config = config.with_max_temporal(4);
            }
            let profiler = config.profiler();
            let result = Pipeline::new(app.program.clone(), config)
                .and_then(|p| p.run())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let transform = result.transform.as_ref().expect("codegen ran");
            tuned += transform.tuning.iter().filter(|n| n.tuned).count();
            if let Err(f) = check_tuning_monotone(&app.program, &result, &profiler) {
                panic!("{name} ({}x{}): {}", domain.nx, domain.ny, f.detail);
            }
        }
    }
    assert!(tuned > 0, "no analog retuned a kernel");
}
