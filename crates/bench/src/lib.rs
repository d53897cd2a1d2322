#![warn(missing_docs)]
//! # sf-bench
//!
//! The paper's evaluation (§6) as one checked binary:
//!
//! ```sh
//! sf-bench paper <experiment|all> [--scale test|full] [--device NAME]
//! sf-bench inspect APP [--kernel K] [--scale test|full] [--device NAME]
//! ```
//!
//! | experiment    | reproduces |
//! |---------------|------------|
//! | `table1`      | Table 1 — application attributes and transformation effect |
//! | `table2`      | Table 2 — thread-block tuning occupancy |
//! | `fig4_5`      | Figures 4–5 — speedups per app and variant (Figure 5: `--device k40`) |
//! | `fig6`        | Figure 6 — SCALE-LES per-kernel runtimes, auto vs manual codegen |
//! | `fig7`        | Figure 7 — HOMME per-kernel runtimes, the divergence gap |
//! | `fig8`        | Figure 8 — automated vs manual target filtering |
//! | `convergence` | §6.1.2 — GA convergence with and without filtering |
//! | `ablation`    | §4.1 — no, lazy and eager fission |
//! | `port`        | porting a plan across registry devices vs searching from scratch |
//! | `temporal`    | temporal blocking (degree cap 4 vs 1) on every registry device |
//!
//! Each experiment prints the rows the paper reports, then its shape
//! claims ([`Claims`]): a gated claim that breaks fails the run and names
//! its cell, a known-broken one is printed with the ROADMAP item that owns
//! it. A full-scale run also writes `results/<name>.json`, stamped with the
//! commit and the resolved configuration. One [`Harness`] serves the whole
//! invocation, so each `(app, variant, device)` compiles once. The
//! compiler's own speed is measured by the benchmark of record under
//! `benchmark/`, not here.

pub mod paper;

use serde_json::{json, Value};
use sf_analysis::filter::{identify_targets, FilterConfig, FilterReason};
use sf_apps::{App, AppConfig};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::Program;
use sf_search::{SearchConfig, SearchSpace};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use stencilfuse::{Pipeline, PipelineConfig, TransformResult};

/// Which transformation variant to run — the bar groups of Figures 4–5,
/// plus the two configurations Figure 8 and the temporal study add.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Kernel fusion only (the prior-work transformation).
    Fusion,
    /// Fusion + lazy fission (§4.1).
    FissionFusion,
    /// Fusion + fission + thread-block tuning (§4.2) — the full framework.
    Full,
    /// Manual baseline: expert codegen, fusion only (the hand transformation
    /// of the prior work, available for SCALE-LES and HOMME in the paper).
    Manual,
    /// Programmer-guided: full framework plus the §6.2.2 interventions
    /// (expert codegen fixes, latency-bound filter fix).
    Guided,
    /// Fusion + fission with the manual target filter (Figure 8's manual
    /// column): latency-bound kernels are not targets.
    ManualFilter,
    /// The full framework with temporal blocking up to degree 4.
    Temporal,
}

/// Benchmark-quality search budget: heavier than `SearchConfig::quick`, far
/// lighter than the paper's 500×100 (the projection objective converges on
/// our app sizes well before that; `paper convergence` measures this).
pub(crate) fn bench_search() -> SearchConfig {
    SearchConfig {
        population: 60,
        generations: 240,
        stagnation_window: 60,
        ..SearchConfig::default()
    }
}

/// The pipeline configuration for a variant.
pub(crate) fn variant_config(variant: Variant, device: DeviceSpec) -> PipelineConfig {
    let base = PipelineConfig {
        search: bench_search(),
        ..PipelineConfig::automated(device)
    };
    let latency_filter = FilterConfig {
        detect_latency_bound: true,
    };
    match variant {
        Variant::Fusion => base.without_fission().without_tuning(),
        Variant::FissionFusion => base.without_tuning(),
        Variant::Full => base,
        Variant::Manual => base.manual_oracle().without_fission().without_tuning(),
        Variant::Guided => PipelineConfig {
            filter: latency_filter,
            ..base.manual_oracle()
        },
        Variant::ManualFilter => PipelineConfig {
            filter: latency_filter,
            ..base.without_tuning()
        },
        Variant::Temporal => base.with_max_temporal(4),
    }
}

/// The search space the pipeline's search stage would build for `program`:
/// profiled by `profiler`, filtered with the default filter — or, when
/// `unfiltered`, with every kernel a target (§3.2.2's rejected scenario).
pub(crate) fn search_space(
    program: &Program,
    profiler: &Profiler,
    unfiltered: bool,
) -> SearchSpace {
    let plan = ExecutablePlan::from_program(program).expect("app plan");
    let profile = profiler.profile_with_plan(program, &plan).expect("profile");
    let (meta, filter) = (&profile.metadata, FilterConfig::default());
    let mut decisions = identify_targets(&meta.perf, &meta.ops, &meta.device, &filter);
    if unfiltered {
        for d in &mut decisions {
            d.reason = FilterReason::Target;
        }
    }
    let device = profiler.device.clone();
    SearchSpace::build(program, &plan, &profile, &decisions, device).expect("search space")
}

/// The problem size of an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The test suite's scaled-down analogs; writes nothing under `results/`.
    Test,
    /// The paper-sized analogs.
    Full,
}

/// One compile and the wall time it took.
pub struct Run {
    /// The pipeline's result.
    pub result: TransformResult,
    /// Wall-clock seconds of the compile.
    pub seconds: f64,
}

/// What one invocation's experiments share: the scale, the device, and
/// every `(app, variant, device)` compiled so far.
pub struct Harness {
    scale: Scale,
    /// The app generators' configuration for the scale.
    pub apps: AppConfig,
    /// The device `--device` resolved to.
    pub(crate) device: DeviceSpec,
    runs: RefCell<HashMap<(String, Variant, String), Rc<Run>>>,
    unverified: RefCell<Vec<String>>,
}

impl Harness {
    /// A harness with nothing compiled yet.
    pub fn new(scale: Scale, device: DeviceSpec) -> Harness {
        let apps = match scale {
            Scale::Test => AppConfig::test(),
            Scale::Full => AppConfig::full(),
        };
        Harness {
            scale,
            apps,
            device,
            runs: RefCell::default(),
            unverified: RefCell::default(),
        }
    }

    /// `app` under `variant` on the harness's device.
    pub fn run(&self, app: &App, variant: Variant) -> Rc<Run> {
        self.run_on(app, variant, &self.device)
    }

    /// `app` under `variant` on `device`, compiled on first use.
    pub(crate) fn run_on(&self, app: &App, variant: Variant, device: &DeviceSpec) -> Rc<Run> {
        let key = (app.paper.name.to_string(), variant, device.fingerprint());
        if let Some(run) = self.runs.borrow().get(&key) {
            return run.clone();
        }
        let what = format!("{} {variant:?} on {}", app.paper.name, device.name);
        let t0 = std::time::Instant::now();
        let result = self.compile(&what, &app.program, variant_config(variant, device.clone()));
        let run = Rc::new(Run {
            result,
            seconds: t0.elapsed().as_secs_f64(),
        });
        self.runs.borrow_mut().insert(key, run.clone());
        run
    }

    /// Compile `program` under `config`. A compile whose output fails
    /// verification is kept, and named as `what` by
    /// [`Self::take_unverified`].
    pub(crate) fn compile(
        &self,
        what: &str,
        program: &Program,
        config: PipelineConfig,
    ) -> TransformResult {
        let result = Pipeline::new(program.clone(), config)
            .expect("valid app program")
            .run()
            .expect("pipeline completes");
        if let Some(v) = result.verification.as_ref().filter(|v| !v.passed()) {
            let why = v.failure().unwrap_or_else(|| "unknown".into());
            self.unverified.borrow_mut().push(format!("{what}: {why}"));
        }
        result
    }

    /// The compiles that failed verification since the last call.
    pub fn take_unverified(&self) -> Vec<String> {
        self.unverified.take()
    }

    /// A stamp entry for `variant`: its name and the parameters its
    /// search runs with.
    pub(crate) fn searched_with(&self, variant: Variant) -> (String, SearchConfig) {
        let config = variant_config(variant, self.device.clone());
        (format!("{variant:?}"), config.search_config())
    }

    /// The commit and the resolved configuration behind an experiment's
    /// rows: `searches` names each search they came from, with the
    /// parameters it ran with.
    pub(crate) fn stamp(
        &self,
        searches: impl IntoIterator<Item = (String, SearchConfig)>,
    ) -> Value {
        let searches: BTreeMap<String, SearchConfig> = searches.into_iter().collect();
        json!({
            "commit": commit(),
            "scale": "full",
            "grid": [self.apps.nx, self.apps.ny, self.apps.nz],
            "device": { "name": self.device.name, "fingerprint": self.device.fingerprint() },
            "search": searches,
        })
    }

    /// At full scale, write `results/<name>.json`: `body` plus its
    /// [`Self::stamp`]. A test-scale run writes nothing.
    pub(crate) fn write(
        &self,
        name: &str,
        mut body: Value,
        searches: impl IntoIterator<Item = (String, SearchConfig)>,
    ) {
        if self.scale != Scale::Full {
            return;
        }
        body["stamp"] = self.stamp(searches);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let path = dir.join(format!("{name}.json"));
        let text = serde_json::to_string_pretty(&body).expect("a JSON value serializes");
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text + "\n")) {
            Ok(()) => eprintln!("[results written to results/{name}.json]"),
            Err(e) => eprintln!("sf-bench: cannot write {}: {e}", path.display()),
        }
    }
}

/// The checkout's commit (`-dirty` when the tree has changes), or
/// `unknown` outside a checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The verdicts of one experiment's shape claims. A claim is checked row
/// by row; each row it does not hold for is a *cell*, named so a reader can
/// find it in the printed table.
#[derive(Debug, Default)]
pub struct Claims {
    lines: Vec<String>,
    broken: Vec<String>,
}

impl Claims {
    /// A claim the experiment gates: each row it fails for fails the run.
    pub fn gate<R>(
        &mut self,
        claim: &str,
        rows: &[R],
        holds: impl Fn(&R) -> bool,
        cell: impl Fn(&R) -> String,
    ) {
        let cells: Vec<String> = rows.iter().filter(|r| !holds(r)).map(cell).collect();
        self.lines.push(if cells.is_empty() {
            format!("  ok     {claim}")
        } else {
            format!("  FAIL   {claim}: {}", cells.join("; "))
        });
        let broken = cells
            .iter()
            .map(|cell| format!("`{claim}` breaks at {cell}"));
        self.broken.extend(broken);
    }

    /// A claim that does not hold today and that ROADMAP item `item` owns:
    /// printed with the first row it fails for, never gated.
    pub(crate) fn known<R>(
        &mut self,
        claim: &str,
        item: &str,
        rows: &[R],
        holds: impl Fn(&R) -> bool,
        cell: impl Fn(&R) -> String,
    ) {
        self.lines
            .push(match rows.iter().find(|r| !holds(r)).map(cell) {
                None => format!("  holds  {claim} (not gated: ROADMAP item {item})"),
                Some(cell) => format!("  known  {claim}: breaks at {cell} (ROADMAP item {item})"),
            });
    }

    /// The claim section of the experiment's output.
    pub fn report(&self) -> String {
        format!("shape claims:\n{}\n", self.lines.join("\n"))
    }

    /// `Ok` when every gated claim holds; otherwise one line per breaking
    /// cell, naming the experiment, the claim and the cell.
    pub fn verdict(&self, experiment: &str) -> Result<(), Vec<String>> {
        if self.broken.is_empty() {
            return Ok(());
        }
        let lines = self
            .broken
            .iter()
            .map(|b| format!("paper {experiment}: {b}"));
        Err(lines.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each variant is stamped with the parameters its own search ran
    /// with, not the shared budget: a tuned variant says so, and the
    /// temporal one carries its degree cap.
    #[test]
    fn a_stamp_records_what_each_variant_searched_with() {
        let h = Harness::new(Scale::Test, DeviceSpec::k20x());
        let variants = [
            Variant::Full,
            Variant::FissionFusion,
            Variant::Manual,
            Variant::Temporal,
        ];
        let stamp = h.stamp(variants.map(|v| h.searched_with(v)));
        let search = &stamp["search"];
        assert_eq!(
            search["Full"]["block_tuning"].as_bool(),
            Some(true),
            "{stamp}"
        );
        assert_eq!(
            search["FissionFusion"]["block_tuning"].as_bool(),
            Some(false)
        );
        assert_eq!(search["Manual"]["mode"].as_str(), Some("Manual"));
        assert_eq!(search["Temporal"]["max_temporal"].as_u64(), Some(4));
        assert_eq!(search["Full"]["max_temporal"].as_u64(), Some(1));
    }
}
