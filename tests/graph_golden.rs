//! Golden-file tests for the graph stage's DOT renderings: two fixed
//! fuzzer seeds are pushed through the pipeline up to the graphs stage
//! and their DDG/OEG DOT output is compared byte-for-byte against
//! checked-in goldens. This pins both the generator (same seed, same
//! program) and the graph construction + rendering (same program, same
//! graphs).
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test graph_golden`

use sf_fuzz::{generate, GenConfig};
use sf_gpusim::device::DeviceSpec;
use std::path::PathBuf;
use stencilfuse::{Pipeline, PipelineConfig, Stage};

const GOLDEN_SEEDS: [u64; 2] = [2, 9];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("mkdir tests/golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden `{}` unreadable ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "`{name}` diverged from its golden.\n\
         If the change is intentional, regenerate with UPDATE_GOLDEN=1.\n\
         --- golden ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn graph_dots_match_goldens() {
    for seed in GOLDEN_SEEDS {
        let g = generate(seed, &GenConfig::default());
        let mut cfg = PipelineConfig::quick(DeviceSpec::k20x());
        cfg.run_until = Some(Stage::Graphs);
        let result = Pipeline::new(g.program, cfg)
            .expect("pipeline")
            .run()
            .expect("graphs stage runs");
        assert!(!result.ddg_dot.is_empty(), "seed {seed}: DDG rendered");
        assert!(!result.oeg_dot.is_empty(), "seed {seed}: OEG rendered");
        check_golden(&format!("seed{seed}.ddg.dot"), &result.ddg_dot);
        check_golden(&format!("seed{seed}.oeg.dot"), &result.oeg_dot);
    }
}
