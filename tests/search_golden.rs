//! Golden fixture for the search trajectory: everything a seeded search
//! decides, for every budget and island count the CLI can ask for.
//!
//! For each of the eight application analogs (`AppConfig::test()`,
//! analytic profile, K20X) and each of `SearchConfig::quick()` and the
//! default 100 × 500 budget, at `islands` 1 and 4 — plus the same four
//! runs at `max_temporal 4` on the `-ts` pair, and one `for_port` run of
//! mitgcm seeded with its own K20X plan raised onto the V100 — one line in
//! `tests/golden/search/<app>.txt` records the best genome's JSON, its
//! fitness bits, `evaluations`, `generations_run`, `stop_reason`, the bits
//! of the fission-move and retained-fission averages, the bits of every
//! `history` entry (run-length coded: a GGA's best fitness is a staircase)
//! and — at `islands = 1`, where they are a pure function of the
//! trajectory — the projection cache's hit and miss counts.
//!
//! The fixture was last generated when the first population gained the
//! greedy fusion seed, so a change to the search's data structures that
//! is meant to keep every trajectory must leave it untouched.
//! `tests/golden/compat/checkpoints/` holds frozen checkpoints (quick
//! budget, killed after epoch 2), one per schema version and island count
//! (`awp-odc.i{1,3}.v{1,2,3,4,5}.ckpt`): the current version's must keep
//! resuming to the plan the uninterrupted run emits, and every older one
//! must be rejected with its version named. They are frozen bytes: nothing
//! regenerates them.
//!
//! To regenerate the text fixture after an intentional change to the
//! search: `UPDATE_GOLDEN=1 cargo test --release --test search_golden`

use sf_apps::{AppConfig, APP_NAMES};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_minicuda::host::ExecutablePlan;
use sf_search::{
    raise_plan, search_islands, IslandOptions, IslandSearchResult, SearchConfig, SearchSpace,
    CHECKPOINT_VERSION,
};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/search")
}

fn space_for(name: &str, device: DeviceSpec) -> SearchSpace {
    let app = sf_apps::app_by_name(name, &AppConfig::test()).expect("known app");
    let plan = ExecutablePlan::from_program(&app.program).expect("plan");
    let profile = Profiler::analytic(device.clone())
        .profile_with_plan(&app.program, &plan)
        .expect("profile");
    let decisions = sf_analysis::filter::identify_targets(
        &profile.metadata.perf,
        &profile.metadata.ops,
        &profile.metadata.device,
        &sf_analysis::filter::FilterConfig::default(),
    );
    SearchSpace::build(&app.program, &plan, &profile, &decisions, device).expect("space")
}

/// `bits` of every entry, run-length coded as `bits*count`.
fn history_rle(history: &[f64]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < history.len() {
        let bits = history[i].to_bits();
        let run = history[i..]
            .iter()
            .take_while(|h| h.to_bits() == bits)
            .count();
        if !out.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "{bits:016x}*{run}");
        i += run;
    }
    out
}

fn digest(r: &IslandSearchResult) -> String {
    assert!(
        r.degradations.is_empty(),
        "clean run degraded: {:?}",
        r.degradations
    );
    let s = &r.result;
    let mut line = format!(
        "best={} fitness={:016x} evaluations={} generations={} stop={} \
         fission_moves={:016x} retained_fissions={:016x}",
        serde_json::to_string(&s.best).expect("genome serializes"),
        s.best_gflops.to_bits(),
        s.evaluations,
        s.generations_run,
        s.stop_reason.name(),
        s.fission_moves_per_generation.to_bits(),
        s.fissions_per_generation.to_bits(),
    );
    if r.islands == 1 {
        let _ = write!(
            line,
            " hits={} misses={}",
            s.projection.hits, s.projection.misses
        );
    }
    let _ = write!(line, " history={}", history_rle(&s.history));
    line
}

fn cases(app: &str) -> Vec<(String, String)> {
    let space = space_for(app, DeviceSpec::k20x());
    let mut caps = vec![1u32];
    if app.ends_with("-ts") {
        caps.push(4);
    }
    let mut out = Vec::new();
    for cap in caps {
        for (budget, base) in [
            ("quick", SearchConfig::quick()),
            ("default", SearchConfig::default()),
        ] {
            for islands in [1usize, 4] {
                let config = SearchConfig {
                    max_temporal: cap,
                    ..base.clone()
                }
                .with_islands(islands);
                let r = search_islands(&space, &config, &IslandOptions::default());
                out.push((format!("{budget} t{cap} i{islands}"), digest(&r)));
            }
        }
    }
    if app == "mitgcm" {
        // The plan-port path: the K20X quick plan, raised onto the V100's
        // space and planted as an elite seed of a reduced-budget search.
        let source = search_islands(&space, &SearchConfig::quick(), &IslandOptions::default());
        let target = space_for(app, DeviceSpec::v100());
        let opts = IslandOptions {
            seeds: vec![raise_plan(&target, &source.result.plan)],
            ..IslandOptions::default()
        };
        let r = search_islands(&target, &SearchConfig::quick().for_port(), &opts);
        out.push(("port k20x->v100 i1".to_string(), digest(&r)));
    }
    out
}

/// One analog's cases against its fixture file (or, under `UPDATE_GOLDEN`,
/// into it).
fn check(app: &str) {
    let rendered: String = cases(app)
        .iter()
        .map(|(name, line)| format!("{name}: {line}\n"))
        .collect();
    let path = golden_dir().join(format!("{app}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with UPDATE_GOLDEN=1)", path.display()));
    let mut moved = Vec::new();
    for (got, want) in rendered.lines().zip(golden.lines()) {
        if got != want {
            moved.push(format!("   got {got}\n  want {want}"));
        }
    }
    assert!(
        moved.is_empty(),
        "{app}: {} search trajectories moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "{app}: case count differs from the fixture"
    );
}

/// One test per analog, so they run side by side.
macro_rules! trajectories_match_the_parent_generated_fixture {
    ($($test:ident: $app:literal,)*) => {
        $(
            #[test]
            fn $test() {
                check($app);
            }
        )*

        #[test]
        fn every_analog_has_a_trajectory_fixture() {
            assert_eq!([$($app),*], APP_NAMES);
        }
    };
}

trajectories_match_the_parent_generated_fixture! {
    scale_les_trajectories: "scale-les",
    homme_trajectories: "homme",
    fluam_trajectories: "fluam",
    mitgcm_trajectories: "mitgcm",
    awp_odc_trajectories: "awp-odc",
    bcalm_trajectories: "bcalm",
    mitgcm_ts_trajectories: "mitgcm-ts",
    scale_les_ts_trajectories: "scale-les-ts",
}

/// Copy a frozen checkpoint out of the compat corpus (a resume may
/// rewrite nothing, but the fixture must not depend on that).
fn thawed(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-search-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let to = dir.join(name);
    let frozen = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compat/checkpoints");
    std::fs::copy(frozen.join(name), &to).expect("frozen checkpoint present");
    to
}

/// The uninterrupted quick search of awp-odc on `islands` islands, and the
/// same search resumed from the frozen checkpoint `name`.
fn resumed_from(name: &str, islands: usize) -> (IslandSearchResult, IslandSearchResult) {
    let space = space_for("awp-odc", DeviceSpec::k20x());
    let config = SearchConfig::quick().with_islands(islands);
    let golden = search_islands(&space, &config, &IslandOptions::default());
    let ckpt = thawed(name);
    let resumed = search_islands(
        &space,
        &config,
        &IslandOptions {
            resume_path: Some(ckpt.clone()),
            ..IslandOptions::default()
        },
    );
    let _ = std::fs::remove_file(&ckpt);
    assert_eq!(
        resumed.result.plan.to_json(),
        golden.result.plan.to_json(),
        "{name}: the run diverged from the uninterrupted one"
    );
    assert_eq!(resumed.result.best, golden.result.best, "{name}");
    assert_eq!(resumed.result.history, golden.result.history, "{name}");
    (golden, resumed)
}

/// Frozen checkpoints an older build wrote (quick budget, killed after
/// epoch 2): this build rejects them with their `version` named and
/// restarts — and the restarted run emits the uninterrupted plan.
fn rejected_and_restarted(version: u32) {
    for islands in [1usize, 3] {
        let name = format!("awp-odc.i{islands}.v{version}.ckpt");
        let (_, restarted) = resumed_from(&name, islands);
        assert_eq!(restarted.resumed_from_epoch, None, "{name}");
        let reasons: Vec<&str> = restarted
            .degradations
            .iter()
            .map(|d| d.reason.as_str())
            .collect();
        let speaks =
            format!("checkpoint schema version {version} (this build speaks {CHECKPOINT_VERSION})");
        assert_eq!(reasons, [speaks.as_str()], "{name}");
    }
}

/// Checkpoints the parent of the one-driver search wrote (schema version
/// 1): per-island mirror structs with a millisecond wall counter, ranked
/// in genome order.
#[test]
fn v1_checkpoints_are_rejected_and_restart_to_the_uninterrupted_plan() {
    rejected_and_restarted(1);
}

/// Checkpoints the parent of the legality verdict wrote (schema version
/// 2): their scores were priced without codegen's verdict.
#[test]
fn v2_checkpoints_are_rejected_and_restart_to_the_uninterrupted_plan() {
    rejected_and_restarted(2);
}

/// Checkpoints the parent of the greedy seed wrote (schema version 3):
/// their populations were bred from a first generation without it.
#[test]
fn v3_checkpoints_are_rejected_and_restart_to_the_uninterrupted_plan() {
    rejected_and_restarted(3);
}

/// Checkpoints the parent of the retry removal wrote (schema version 4):
/// their fingerprints carry the search's `eval_retries`.
#[test]
fn v4_checkpoints_are_rejected_and_restart_to_the_uninterrupted_plan() {
    rejected_and_restarted(4);
}

/// Checkpoints this build writes (schema version 5, quick budget, killed
/// after epoch 2) resume to the uninterrupted plan.
#[test]
fn v5_checkpoints_resume_to_the_uninterrupted_plan() {
    for islands in [1usize, 3] {
        let name = format!("awp-odc.i{islands}.v5.ckpt");
        let (golden, resumed) = resumed_from(&name, islands);
        assert_eq!(
            resumed.degradations,
            vec![],
            "{name}: the checkpoint was not accepted"
        );
        assert_eq!(resumed.resumed_from_epoch, Some(2), "{name}");
        assert!(
            resumed.epochs_run < golden.epochs_run,
            "{name}: a mid-run checkpoint leaves epochs to run"
        );
    }
}
