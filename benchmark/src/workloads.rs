//! The four workloads. Each knows how to make its inputs from a seed, run
//! one pass the way a user would (untraced), check its outputs against
//! the interpreter running the *original* program, and run one pass as a
//! staged, traced sequence whose bytes must match the untraced pass.

use crate::compile::{compile, compile_staged, pipeline_staged, Compiled};
use crate::inputs::{paper_apps, replay_apps, synthetic_chains, Input};
use crate::stats::{fastest, median};
use crate::trace::Tracer;
use sf_cache::{CacheKey, Lookup, PlanStore, Published};
use sf_gpusim::device::DeviceSpec;
use sf_minicuda::parse_program;
use sf_minicuda::printer::print_program;
use sf_plan::TransformPlan;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use stencilfuse::{
    verify_equivalence, BatchDriver, BatchOptions, BatchRequest, BatchStatus, PipelineConfig,
};

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Bound the rayon shim's fan-out for what runs next; it reads the
/// variable at every `par_iter`. Called between operations, when no
/// worker thread is alive. Every timed operation runs on one thread: left
/// alone, even the "serial" search evaluates each generation on `nproc`
/// freshly spawned threads — slower on a two-core box than one thread —
/// and anything on two threads there times the host's scheduler.
fn set_workers(workers: usize) {
    std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
}

/// Operations attempted and the reasons any of them failed.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }
}

/// What one operation produced, compared byte for byte across passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The plan the search lowered (`None` when no search ran here).
    pub lowered_plan: Option<String>,
    /// The as-executed plan: what `sfd` caches and `--emit-plan` writes.
    pub plan: String,
    pub output: String,
    pub speedup: f64,
}

/// One pass: the wall of each component, and each operation's output.
#[derive(Debug, Default)]
pub struct Pass {
    /// `(component, seconds)`: one compile, or one batch.
    pub walls: Vec<(String, f64)>,
    pub outputs: BTreeMap<String, Output>,
}

impl Pass {
    pub fn wall(&self) -> f64 {
        self.walls.iter().map(|(_, s)| s).sum()
    }
}

pub trait Workload {
    /// Make the inputs (and prepared plans) from the seed. Timed as set-up.
    fn setup(&mut self, seed: u64) -> Result<(), String>;
    /// One pass through the user-facing entry points.
    fn pass(&mut self, ops: &mut Ops) -> Pass;
    /// Out-of-band correctness of a pass's outputs; not timed.
    fn check(&mut self, ops: &mut Ops, pass: &Pass);
    /// One pass as the staged, traced sequence.
    fn traced_pass(&mut self, tr: &mut Tracer, ops: &mut Ops) -> Pass;
    /// Per-layer metrics that need the untraced pass beside the trace.
    fn compare(&mut self, _untraced: &Pass) -> BTreeMap<String, f64> {
        BTreeMap::new()
    }
}

/// `traced` is the `--trace 1` run: the search workload then also searches
/// each chain with `islands = 2` on two threads, next to the serial search
/// that is the base of `search.islands.speedup`.
pub fn by_name(name: &str, scratch: PathBuf, traced: bool) -> Option<Box<dyn Workload>> {
    let kind = match name {
        "apps_cold" => Kind::AppsCold,
        "interp_replay" => Kind::InterpReplay,
        "search_synth" => Kind::Search { islands: traced },
        "sfd_warm" => return Some(Box::new(SfdBatch::new(scratch))),
        _ => return None,
    };
    Some(Box::new(Jobs {
        kind,
        jobs: Vec::new(),
    }))
}

/// Run `transformed` and `original` on the interpreter from identical
/// seeded inputs and compare every array: the reference is the original
/// program's execution, never the compiler's own opinion.
fn interpreter_agrees(original: &str, transformed: &str) -> Result<(), String> {
    let a = parse_program(original).map_err(|e| e.to_string())?;
    let b = parse_program(transformed).map_err(|e| format!("output does not parse: {e}"))?;
    let verdict = verify_equivalence(&a, &b, 99)?;
    match verdict.failure() {
        None => Ok(()),
        Some(why) => Err(why),
    }
}

/// The automated configuration with the interpreter idle (analytic
/// profile, verification off) and 150 of the default 500 generations, so
/// that one search of a synthetic chain takes ~0.04 s (see `inputs.rs`).
fn search_bound_config() -> PipelineConfig {
    let mut config = PipelineConfig::automated(DeviceSpec::k20x());
    config.functional_profile = false;
    config.verify = false;
    config.search.generations = 150;
    config
}

// ---------------------------------------------------------------------
// apps_cold, interp_replay, search_synth: a list of compile jobs.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    AppsCold,
    InterpReplay,
    /// The synthetic chains, searched serially and, if asked, once more
    /// with `islands = 2`.
    Search {
        islands: bool,
    },
}

struct Job {
    name: String,
    source: String,
    config: PipelineConfig,
    /// Threads this compile may use: one, except for island searches.
    workers: usize,
    /// Transformed source the cold compile in set-up produced, which a
    /// replay of its plan must reproduce.
    cold_output: Option<String>,
}

struct Jobs {
    kind: Kind,
    jobs: Vec<Job>,
}

fn job(input: Input, config: PipelineConfig) -> Job {
    Job {
        name: input.name,
        source: input.source,
        workers: config.search.islands.min(nproc()),
        config,
        cold_output: None,
    }
}

impl Job {
    fn compile(&self) -> Result<Compiled, String> {
        set_workers(self.workers);
        compile(&self.source, &self.config)
    }
}

impl Workload for Jobs {
    fn setup(&mut self, seed: u64) -> Result<(), String> {
        let k20x = DeviceSpec::k20x();
        self.jobs = match self.kind {
            Kind::AppsCold => paper_apps(seed)
                .into_iter()
                .map(|input| job(input, PipelineConfig::quick(k20x.clone())))
                .collect(),
            Kind::InterpReplay => {
                let mut jobs = Vec::new();
                for input in replay_apps(seed) {
                    // The plan comes from a cheap cold compile; what is
                    // timed later is only its replay with every check on.
                    let mut cold = PipelineConfig::quick(k20x.clone());
                    cold.functional_profile = false;
                    cold.verify = false;
                    if input.name.ends_with("-ts") {
                        cold = cold.with_max_temporal(4);
                    }
                    set_workers(1);
                    let compiled = compile(&input.source, &cold)?;
                    let plan =
                        TransformPlan::from_json(&compiled.plan).map_err(|e| e.to_string())?;
                    let mut replay = job(
                        input,
                        PipelineConfig::automated(k20x.clone()).with_plan(plan),
                    );
                    replay.cold_output = Some(compiled.output);
                    jobs.push(replay);
                }
                jobs
            }
            Kind::Search { islands } => {
                let base = search_bound_config();
                let mut jobs = Vec::new();
                for input in synthetic_chains(seed, "s", 2) {
                    let twin = Input {
                        name: format!("{}+islands", input.name),
                        source: input.source.clone(),
                    };
                    jobs.push(job(input, base.clone()));
                    if islands {
                        jobs.push(job(twin, base.clone().with_islands(2)));
                    }
                }
                jobs
            }
        };
        Ok(())
    }

    fn pass(&mut self, ops: &mut Ops) -> Pass {
        let mut pass = Pass::default();
        for job in &self.jobs {
            ops.attempted += 1;
            let start = Instant::now();
            let compiled = job.compile();
            pass.walls
                .push((job.name.clone(), start.elapsed().as_secs_f64()));
            record(ops, &mut pass, job, compiled);
        }
        pass
    }

    fn check(&mut self, ops: &mut Ops, pass: &Pass) {
        // apps_cold and interp_replay verify inside the pipeline on every
        // compile (`record` fails the operation otherwise). The search
        // workloads compile with verification off, so each distinct output
        // is run against the original here, and its plan is replayed once.
        if !matches!(self.kind, Kind::Search { .. }) {
            return;
        }
        let mut seen: Vec<(&str, &str)> = Vec::new();
        for job in &self.jobs {
            let Some(out) = pass.outputs.get(&job.name) else {
                continue;
            };
            if seen.contains(&(job.source.as_str(), out.output.as_str())) {
                continue;
            }
            seen.push((&job.source, &out.output));
            ops.attempted += 1;
            if let Err(why) = interpreter_agrees(&job.source, &out.output) {
                ops.fail(format!(
                    "{}: output differs from the original: {why}",
                    job.name
                ));
            }
            ops.attempted += 1;
            let replayed = TransformPlan::from_json(&out.plan)
                .map_err(|e| e.to_string())
                .and_then(|plan| compile(&job.source, &job.config.clone().with_plan(plan)));
            match replayed {
                Ok(r) if r.output == out.output && r.plan == out.plan => {}
                Ok(_) => ops.fail(format!(
                    "{}: replay bytes differ from the cold compile",
                    job.name
                )),
                Err(e) => ops.fail(format!("{}: replay failed: {e}", job.name)),
            }
        }
    }

    fn traced_pass(&mut self, tr: &mut Tracer, ops: &mut Ops) -> Pass {
        let mut pass = Pass::default();
        for job in &self.jobs {
            ops.attempted += 1;
            tr.set_op(format!("{}/0", job.name));
            set_workers(job.workers);
            let start = Instant::now();
            let compiled = tr.span("op.compile", |tr| {
                compile_staged(tr, &job.source, &job.config)
            });
            pass.walls
                .push((job.name.clone(), start.elapsed().as_secs_f64()));
            if let Ok(c) = &compiled {
                tr.count("core.degradations", c.degradations as u64);
            }
            record(ops, &mut pass, job, compiled);
        }
        pass
    }
}

/// File one compile's result into the pass, failing the operation on an
/// error, a verification that did not pass, or a replay whose bytes differ
/// from the cold compile's.
fn record(ops: &mut Ops, pass: &mut Pass, job: &Job, compiled: Result<Compiled, String>) {
    match compiled {
        Ok(c) => {
            if c.verified == Some(false) {
                ops.fail(format!(
                    "{}: in-pipeline verification did not pass",
                    job.name
                ));
            }
            if job
                .cold_output
                .as_ref()
                .is_some_and(|cold| *cold != c.output)
            {
                ops.fail(format!(
                    "{}: replay bytes differ from the cold compile",
                    job.name
                ));
            }
            pass.outputs.insert(
                job.name.clone(),
                Output {
                    lowered_plan: c.lowered_plan,
                    plan: c.plan,
                    output: c.output,
                    speedup: c.speedup,
                },
            );
        }
        Err(e) => ops.fail(format!("{}: {e}", job.name)),
    }
}

// ---------------------------------------------------------------------
// sfd_warm: the service path over an on-disk plan store.
// ---------------------------------------------------------------------

/// The first serving of a request defines its outputs; every later
/// serving must reproduce them byte for byte.
fn keep_or_compare(ops: &mut Ops, pass: &mut Pass, name: String, out: Output) {
    match pass.outputs.get(&name) {
        None => {
            pass.outputs.insert(name, out);
        }
        Some(first) if *first == out => {}
        Some(_) => ops.fail(format!("{name}: warm bytes differ from cold")),
    }
}

/// One batch is the whole fleet submitted to a `BatchDriver` and run, on
/// one worker. Set-up fills a fresh store with a cold batch (every request
/// misses, compiles and publishes); every pass is a batch of hits on it.
struct SfdBatch {
    scratch: PathBuf,
    fleet: Vec<Input>,
    config: PipelineConfig,
    stores_made: usize,
    /// The driver over the store set-up filled, and what the cold batch
    /// that filled it returned.
    filled: Option<(BatchDriver, Pass)>,
    /// The cold sweep that filled the traced run's store: the cache-write
    /// side, reported beside the warm path's own spans.
    cold_trace: Tracer,
    /// Wall of every in-pipeline replay of a member's plan (traced run
    /// only).
    replay_walls: Vec<f64>,
}

impl SfdBatch {
    fn new(scratch: PathBuf) -> SfdBatch {
        // As `benches/cache.rs`, with the interpreter idle on both paths:
        // warm is then parse/key/lookup/decode/codegen-bound.
        SfdBatch {
            scratch,
            fleet: Vec::new(),
            config: search_bound_config(),
            stores_made: 0,
            filled: None,
            cold_trace: Tracer::new(),
            replay_walls: Vec::new(),
        }
    }

    fn fresh_store(&mut self) -> PathBuf {
        self.stores_made += 1;
        self.scratch.join(format!("store-{}", self.stores_made))
    }

    fn driver(&self, store: &PathBuf) -> Result<BatchDriver, String> {
        BatchDriver::new(store, self.config.clone(), BatchOptions::default())
            .map_err(|e| format!("store does not open: {e}"))
    }

    /// Submit the whole fleet, run it, and check statuses and bytes
    /// against what `pass` already holds.
    fn batch(&self, ops: &mut Ops, pass: &mut Pass, driver: &mut BatchDriver, expect: BatchStatus) {
        set_workers(1);
        let start = Instant::now();
        for member in &self.fleet {
            driver
                .submit(BatchRequest::new(
                    member.name.clone(),
                    member.source.clone(),
                ))
                .expect("the fleet fits the default queue limit");
        }
        let report = driver.run();
        pass.walls
            .push(("batch".into(), start.elapsed().as_secs_f64()));
        for outcome in report.outcomes {
            ops.attempted += 1;
            if outcome.status != expect {
                ops.fail(format!(
                    "{}: status {} where {} was expected{}",
                    outcome.name,
                    outcome.status.label(),
                    expect.label(),
                    outcome.error.map(|e| format!(": {e}")).unwrap_or_default()
                ));
                continue;
            }
            let (Some(plan), Some(output)) = (outcome.plan_json, outcome.output) else {
                ops.fail(format!("{}: no plan or output returned", outcome.name));
                continue;
            };
            let out = Output {
                lowered_plan: None,
                plan,
                output,
                speedup: outcome.speedup,
            };
            keep_or_compare(ops, pass, outcome.name, out);
        }
    }

    /// The request state machine of `batch.rs`, one span per call, once
    /// over the fleet; every request must hit, or every request miss.
    fn traced_sweep(
        &self,
        tr: &mut Tracer,
        ops: &mut Ops,
        pass: &mut Pass,
        store: &PlanStore,
        expect_hit: bool,
    ) {
        let fingerprint = self.config.cache_fingerprint();
        let device = self.config.device.fingerprint();
        let sweep = if expect_hit { "warm" } else { "cold" };
        set_workers(1);
        let start = Instant::now();
        for member in &self.fleet {
            ops.attempted += 1;
            tr.set_op(format!("{}/{sweep}", member.name));
            let served = tr.span("op.request", |tr| {
                traced_request(
                    tr,
                    store,
                    &self.config,
                    &fingerprint,
                    &device,
                    &member.source,
                )
            });
            match served {
                Ok((hit, _)) if hit != expect_hit => {
                    ops.fail(format!("{}: {sweep} request hit={hit}", member.name))
                }
                Ok((_, out)) => keep_or_compare(ops, pass, member.name.clone(), out),
                Err(e) => ops.fail(format!("{}: {e}", member.name)),
            }
        }
        pass.walls
            .push(("batch".into(), start.elapsed().as_secs_f64()));
    }

    /// The same plans replayed inside one pipeline, without the driver:
    /// what a warm request costs beyond this is the service's overhead.
    fn replay_in_pipeline(&mut self, ops: &mut Ops, pass: &Pass) {
        for member in &self.fleet {
            let Some(out) = pass.outputs.get(&member.name) else {
                continue;
            };
            let Ok(plan) = TransformPlan::from_json(&out.plan) else {
                continue;
            };
            let config = self.config.clone().with_plan(plan);
            let start = Instant::now();
            let replayed = compile(&member.source, &config);
            self.replay_walls.push(start.elapsed().as_secs_f64());
            ops.attempted += 1;
            match replayed {
                Ok(r) if r.output == out.output => {}
                Ok(_) => ops.fail(format!("{}: in-pipeline replay bytes differ", member.name)),
                Err(e) => ops.fail(format!("{}: in-pipeline replay failed: {e}", member.name)),
            }
        }
    }
}

impl Workload for SfdBatch {
    fn setup(&mut self, seed: u64) -> Result<(), String> {
        self.fleet = synthetic_chains(seed, "m", 6);
        self.filled = None;
        let _ = std::fs::remove_dir_all(&self.scratch);
        std::fs::create_dir_all(&self.scratch).map_err(|e| e.to_string())?;
        let store = self.fresh_store();
        let mut driver = self.driver(&store)?;
        let (mut ops, mut cold) = (Ops::default(), Pass::default());
        self.batch(&mut ops, &mut cold, &mut driver, BatchStatus::Compiled);
        if let Some(why) = ops.failures.first() {
            return Err(format!("filling the store: {why}"));
        }
        self.filled = Some((driver, cold));
        Ok(())
    }

    fn pass(&mut self, ops: &mut Ops) -> Pass {
        let (mut driver, cold) = self.filled.take().expect("set-up filled a store");
        // Starts from the cold outputs, so warm bytes are compared with
        // them; the cold batch's wall is not part of the pass.
        let mut pass = Pass {
            walls: Vec::new(),
            outputs: cold.outputs.clone(),
        };
        self.batch(ops, &mut pass, &mut driver, BatchStatus::Hit);
        self.filled = Some((driver, cold));
        pass
    }

    fn check(&mut self, ops: &mut Ops, pass: &Pass) {
        for member in &self.fleet {
            let Some(out) = pass.outputs.get(&member.name) else {
                continue;
            };
            ops.attempted += 1;
            if let Err(why) = interpreter_agrees(&member.source, &out.output) {
                ops.fail(format!(
                    "{}: output differs from the original: {why}",
                    member.name
                ));
            }
        }
    }

    fn traced_pass(&mut self, tr: &mut Tracer, ops: &mut Ops) -> Pass {
        let mut pass = Pass::default();
        let dir = self.fresh_store();
        let store = match PlanStore::open(&dir) {
            Ok(s) => s,
            Err(e) => {
                ops.attempted += 1;
                ops.fail(format!("store does not open: {e}"));
                return pass;
            }
        };
        // Fill the store first; those spans are not the warm path's.
        let mut cold_trace = Tracer::new();
        self.traced_sweep(&mut cold_trace, ops, &mut pass, &store, false);
        self.cold_trace = cold_trace;
        pass.walls.clear();
        self.traced_sweep(tr, ops, &mut pass, &store, true);
        let stats = store.stats();
        tr.count("cache.hits", stats.hits);
        tr.count("cache.misses", stats.misses);
        tr.count("cache.quarantined", stats.recovered);

        self.replay_in_pipeline(ops, &pass);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        pass
    }

    fn compare(&mut self, untraced: &Pass) -> BTreeMap<String, f64> {
        // One worker, so a warm batch's wall divides evenly among its
        // requests.
        let per_request = untraced.wall() / self.fleet.len().max(1) as f64;
        let overhead = per_request - fastest(&self.replay_walls);
        let mut values = BTreeMap::from([("core.batch.warm_overhead_s".to_string(), overhead)]);
        // The cache-write side, from the sweep that filled the store.
        let cold = &self.cold_trace;
        for span in ["cache.lookup_miss", "plan.encode", "cache.publish"] {
            values.insert(format!("{span}.wall_s"), median(&cold.self_times(span)));
        }
        for count in ["plan.bytes", "cache.entry_bytes"] {
            values.insert(count.to_string(), cold.counted(count) as f64);
        }
        values
    }
}

/// One request through the store, traced. Returns whether it was a hit.
fn traced_request(
    tr: &mut Tracer,
    store: &PlanStore,
    config: &PipelineConfig,
    fingerprint: &str,
    device: &str,
    source: &str,
) -> Result<(bool, Output), String> {
    let program = tr
        .span("minicuda.parse", |_| parse_program(source))
        .map_err(|e| e.to_string())?;
    tr.count("minicuda.parse.bytes", source.len() as u64);
    let canonical = tr.span("minicuda.print", |_| print_program(&program));
    let key = tr.span("cache.key", |_| {
        CacheKey::derive(&canonical, device, fingerprint)
    });
    let entry_exists = store.entry_path(&key).exists();
    let lookup_span = if entry_exists {
        "cache.lookup_hit"
    } else {
        "cache.lookup_miss"
    };
    let found = tr
        .span(lookup_span, |_| store.lookup(&key))
        .map_err(|e| e.to_string())?;
    let (hit, staged, plan) = match found {
        Lookup::Hit(entry) => {
            let plan = tr
                .span("plan.decode", |_| TransformPlan::from_json(&entry.payload))
                .map_err(|e| e.to_string())?;
            let staged = pipeline_staged(tr, &program, &config.clone().with_plan(plan))?;
            (true, staged, entry.payload)
        }
        Lookup::Miss => {
            let staged = pipeline_staged(tr, &program, config)?;
            let payload = tr.span("plan.encode", |_| staged.executed.to_json());
            tr.count("plan.bytes", payload.len() as u64);
            let published = tr
                .span("cache.publish", |_| store.publish(&key, &payload))
                .map_err(|e| e.to_string())?;
            if published != Published::Stored {
                return Err(format!("publish returned {published:?}"));
            }
            let entry_bytes = std::fs::metadata(store.entry_path(&key))
                .map(|m| m.len())
                .unwrap_or(0);
            tr.count("cache.entry_bytes", entry_bytes);
            (false, staged, payload)
        }
        Lookup::Recovered { reason, .. } => return Err(format!("entry quarantined: {reason}")),
    };
    tr.count("core.degradations", staged.degradations as u64);
    let output = tr.span("minicuda.print", |_| print_program(&staged.program));
    tr.count("codegen.output_bytes", output.len() as u64);
    Ok((
        hit,
        Output {
            lowered_plan: None,
            plan,
            output,
            speedup: staged.speedup,
        },
    ))
}
