//! Integration tests for the programmer-guided workflow (§3.2): stage
//! artifacts are real files the programmer can read or amend — DOT graphs
//! draw the edges and fusion clusters, the GA parameter file round trips
//! through JSON, and every intervention hook changes the outcome it should.

use sf_apps::AppConfig;
use sf_codegen::{GroupPlan, TransformPlan};
use sf_gpusim::device::DeviceSpec;
use stencilfuse::{Interventions, Pipeline, PipelineConfig, Stage};

fn mitgcm() -> sf_apps::App {
    sf_apps::app_by_name("mitgcm", &AppConfig::test()).expect("known app")
}

#[test]
fn dot_artifacts_draw_the_graphs() {
    let app = mitgcm();
    let mut cfg = PipelineConfig::quick(DeviceSpec::k20x());
    cfg.run_until = Some(Stage::Graphs);
    let r = Pipeline::new(app.program.clone(), cfg)
        .expect("valid")
        .run()
        .expect("analysis runs");
    assert!(r.ddg_dot.contains("digraph DDG"));
    assert!(r.oeg_dot.contains("digraph OEG"));
    // The precedence edges, one `kI -> kJ [style=…]` line each.
    let edge = |l: &str| l.starts_with("  k") && l.contains(" -> k") && l.contains("[style=");
    assert!(r.oeg_dot.lines().any(edge), "{}", r.oeg_dot);
}

#[test]
fn new_oeg_dot_shows_fusion_clusters() {
    let app = mitgcm();
    let r = Pipeline::new(
        app.program.clone(),
        PipelineConfig::quick(DeviceSpec::k20x()),
    )
    .expect("valid")
    .run()
    .expect("pipeline runs");
    // Each `subgraph cluster_` block lists its members, one `kN;` a line.
    let members = |block: &str| {
        let body = block.split("\n  }").next().unwrap_or_default();
        body.lines()
            .filter(|l| l.trim_start().starts_with('k'))
            .count()
    };
    let mut clusters = r.new_oeg_dot.split("subgraph cluster_").skip(1);
    assert!(
        clusters.any(|block| members(block) >= 2),
        "new OEG must contain at least one fusion cluster:\n{}",
        r.new_oeg_dot
    );
}

#[test]
fn search_config_round_trips_as_parameter_file() {
    // "There is a default parameter file provided for the programmer."
    let default = sf_search::SearchConfig::default();
    let text = serde_json::to_string_pretty(&default).expect("serialize");
    let parsed: sf_search::SearchConfig = serde_json::from_str(&text).expect("parse");
    assert_eq!(parsed, default);
    assert_eq!(parsed.population, 100);
    assert_eq!(parsed.generations, 500);
}

#[test]
fn amend_plan_intervention_forces_no_fusion() {
    // The programmer dissolves every fusion group in the lowered plan
    // before codegen: the transformed program must then keep the original
    // launch count.
    let app = mitgcm();
    let before = app.program.static_launches().len();
    let hooks = Interventions {
        amend_plan: Some(Box::new(|plan: &mut TransformPlan| {
            let singles: Vec<GroupPlan> = plan
                .groups
                .drain(..)
                .flat_map(|g| {
                    g.members
                        .into_iter()
                        .map(GroupPlan::singleton)
                        .collect::<Vec<_>>()
                })
                .collect();
            plan.groups = singles;
        })),
        ..Interventions::default()
    };
    let mut cfg = PipelineConfig::quick(DeviceSpec::k20x());
    cfg.enable_fission = false;
    cfg.search = cfg.search.without_fission();
    let r = Pipeline::new(app.program.clone(), cfg)
        .expect("valid")
        .run_with(&hooks)
        .expect("pipeline runs");
    assert_eq!(r.program.static_launches().len(), before);
    assert!(r.verification.expect("verified").passed());
    // No fusion → no speedup from reuse; modeled time identical.
    assert!((r.speedup - 1.0).abs() < 0.05, "speedup {:.3}", r.speedup);
}

#[test]
fn amend_metadata_can_force_compute_bound() {
    // Inflating a kernel's measured flops pushes its operational intensity
    // past the ridge: the filter must then exclude it.
    let app = mitgcm();
    let hooks = Interventions {
        amend_metadata: Some(Box::new(|md| {
            for p in md.perf.iter_mut() {
                if p.kernel == "trc_theta" {
                    p.flops = p.flops.saturating_mul(10_000);
                }
            }
        })),
        ..Interventions::default()
    };
    let r = Pipeline::new(
        app.program.clone(),
        PipelineConfig::quick(DeviceSpec::k20x()),
    )
    .expect("valid")
    .run_with(&hooks)
    .expect("pipeline runs");
    let d = r
        .decisions
        .iter()
        .find(|d| d.kernel == "trc_theta")
        .expect("decision exists");
    assert_eq!(d.reason, sf_analysis::filter::FilterReason::ComputeBound);
    assert!(r.verification.expect("verified").passed());
}

#[test]
fn run_until_each_stage_is_consistent() {
    let app = mitgcm();
    let mut launches_done = 0;
    for stage in Stage::ALL {
        let mut cfg = PipelineConfig::quick(DeviceSpec::k20x());
        cfg.run_until = Some(stage);
        let r = Pipeline::new(app.program.clone(), cfg)
            .expect("valid")
            .run()
            .expect("runs");
        let expected_reports = match stage {
            Stage::Metadata => 1,
            Stage::Filter => 2,
            Stage::Graphs => 3,
            Stage::Search => 4,
            Stage::NewGraphs => 5,
            Stage::Codegen => 6,
        };
        assert_eq!(r.reports.len(), expected_reports, "stage {stage:?}");
        if stage == Stage::Codegen {
            launches_done = r.program.static_launches().len();
        } else {
            assert_eq!(r.program, app.program, "no codegen before the last stage");
        }
    }
    assert!(launches_done > 0);
}

#[test]
fn pipeline_runs_from_preloaded_metadata() {
    // The "execute from a given stage" workflow: stage 1 emits the
    // metadata files, the programmer amends them, and a second run starts
    // from the amended bundle without re-profiling.
    let app = mitgcm();
    let mut probe = PipelineConfig::quick(DeviceSpec::k20x());
    probe.run_until = Some(Stage::Metadata);
    let first = Pipeline::new(app.program.clone(), probe)
        .expect("valid")
        .run()
        .expect("metadata stage runs");
    let mut bundle = first.metadata.expect("metadata emitted");
    // Amend: make one kernel look compute-bound.
    for p in bundle.perf.iter_mut() {
        if p.kernel == "trc_salt" {
            p.flops = p.flops.saturating_mul(10_000);
        }
    }
    let mut cfg = PipelineConfig::quick(DeviceSpec::k20x());
    cfg.preloaded_metadata = Some(bundle);
    let r = Pipeline::new(app.program.clone(), cfg)
        .expect("valid")
        .run()
        .expect("runs from metadata");
    let d = r
        .decisions
        .iter()
        .find(|d| d.kernel == "trc_salt")
        .expect("decision exists");
    assert_eq!(d.reason, sf_analysis::filter::FilterReason::ComputeBound);
    assert!(r.verification.expect("verified").passed());
    assert!(r.speedup > 1.0);
}

#[test]
fn amend_decisions_must_keep_one_decision_per_launch() {
    // The other three hooks are validated; this one used to reach the
    // search-space builder's length assertion and panic the process.
    type Amend = fn(&mut Vec<sf_analysis::FilterDecision>);
    let drops: Amend = |ds| {
        ds.pop();
    };
    let appends: Amend = |ds| ds.push(ds[0].clone());
    for amend in [drops, appends] {
        let hooks = Interventions {
            amend_decisions: Some(Box::new(amend)),
            ..Interventions::default()
        };
        let err = Pipeline::new(mitgcm().program, PipelineConfig::quick(DeviceSpec::k20x()))
            .expect("valid")
            .run_with(&hooks)
            .expect_err("a decision vector of the wrong length is a configuration error");
        assert_eq!(err.stage, Stage::Filter);
        assert_eq!(err.class, stencilfuse::Recoverability::Fatal);
        assert!(
            matches!(err.kind, stencilfuse::ErrorKind::Config(_)),
            "{err}"
        );
        assert_eq!(err.exit_code(), stencilfuse::error::EXIT_ANALYSIS);
    }
}
