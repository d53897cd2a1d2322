//! The concurrent, cache-backed batch compiler behind `sfd`.
//!
//! A [`BatchDriver`] owns one [`sf_cache::PlanStore`] and one base
//! [`PipelineConfig`]. Requests are admitted through [`BatchDriver::submit`]
//! up to a bounded queue limit (reject-with-backpressure, never unbounded
//! growth), then [`BatchDriver::run`] compiles the whole queue concurrently
//! over the rayon pool:
//!
//! - **warm path** — the request's content-addressed key hits the cache,
//!   and the cached plan replays through
//!   [`PipelineConfig::preloaded_plan`], skipping stages 2–5 exactly like
//!   `sfc --from-plan`;
//! - **cold path** — the pipeline runs end to end and the resulting plan is
//!   published with first-writer-wins discipline (losers of the publish
//!   race simply re-read);
//! - **recovery path** — a torn / corrupt / version-skewed entry is
//!   quarantined by the store and the driver recompiles; a cached plan
//!   whose replay fails falls through to a fresh compile the same way.
//!   This is the degradation ladder's cache rung:
//!   *cache hit → cache recompile → normal pipeline* — no cache fault ever
//!   aborts the batch.
//!
//! Every request also runs under a wall-clock budget: a request that
//! exceeds it is reported as [`BatchStatus::OverBudget`] instead of
//! stalling the batch.
//!
//! The driver also protects itself:
//!
//! - **cache quota** ([`BatchOptions::cache_quota`]) — the store evicts
//!   least-recently-used plans instead of growing without bound;
//! - **publish retry** — transient store failures (lock I/O) retry on
//!   the one [`sf_core::retry`] schedule.
//!
//! Fault injection reaches the store through the base config: the driver
//! arms its store with the `cache` section of [`PipelineConfig::faults`],
//! the same plan whose other sections the pipeline reads.

use crate::config::{PipelineConfig, Stage};
use crate::error::PipelineError;
use crate::pipeline::{Interventions, Pipeline, TransformResult};
use rayon::prelude::*;
use sf_cache::{CacheKey, Lookup, PlanStore, Published, StoreOptions};
use sf_codegen::TransformPlan;
use sf_gpusim::device::DeviceSpec;
use sf_minicuda::Program;
use std::fmt;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// One program to compile.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Display name (file stem, app name) used in reports.
    pub name: String,
    /// The program source text (canonicalized internally before hashing).
    pub source: String,
    /// Per-request target device, overriding the driver's base config.
    /// Cache keys are derived from the effective device's fingerprint, so
    /// entries never cross devices within one batch.
    pub device: Option<DeviceSpec>,
}

impl BatchRequest {
    /// Convenience constructor (compiles for the driver's base device).
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> BatchRequest {
        BatchRequest {
            name: name.into(),
            source: source.into(),
            device: None,
        }
    }

    /// Target a specific device for this request only.
    pub fn with_device(mut self, device: DeviceSpec) -> BatchRequest {
        self.device = Some(device);
        self
    }
}

/// How one request was satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchStatus {
    /// Served from the cache; the plan replayed through the stage-skipping
    /// path.
    Hit,
    /// Compiled end to end (cache miss or caching disabled).
    Compiled,
    /// A cache-level recovery happened first (quarantined entry, failed
    /// replay), then the request compiled fresh. The label says why
    /// ("torn", "corrupt", "version-skew", "key-mismatch", "replay").
    Recovered(String),
    /// The pipeline failed; see [`BatchOutcome::error`].
    Failed,
    /// The request exceeded its wall-clock budget.
    OverBudget,
    /// A graceful shutdown was requested before this request started, so
    /// it was never compiled (see [`crate::shutdown`]). In-flight requests
    /// drain normally; only not-yet-started ones are cancelled.
    Cancelled,
}

impl BatchStatus {
    /// Short display label.
    pub fn label(&self) -> &str {
        match self {
            BatchStatus::Hit => "hit",
            BatchStatus::Compiled => "compiled",
            BatchStatus::Recovered(_) => "recovered",
            BatchStatus::Failed => "failed",
            BatchStatus::OverBudget => "over-budget",
            BatchStatus::Cancelled => "cancelled",
        }
    }
}

/// The result of one request.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Request name, as submitted.
    pub name: String,
    /// How the request was satisfied.
    pub status: BatchStatus,
    /// The transform plan JSON as served (warm) or published (cold).
    pub plan_json: Option<String>,
    /// The transformed program text.
    pub output: Option<String>,
    /// Modeled speedup (1.0 when unavailable).
    pub speedup: f64,
    /// The pipeline failure, when `status` is [`BatchStatus::Failed`].
    pub error: Option<PipelineError>,
    /// Non-fatal cache observations (lost publish race, injected-crash
    /// publish failure, ...). The request itself still succeeded.
    pub cache_note: Option<String>,
}

/// A submission rejected by bounded admission: the queue is full. The
/// caller must drain (run) or back off — the driver never grows unbounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// The rejected request's name.
    pub name: String,
    /// The configured queue limit that was hit.
    pub queue_limit: usize,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "request `{}` rejected: queue full ({} pending); run the batch or back off",
            self.name, self.queue_limit
        )
    }
}

impl std::error::Error for Rejected {}

/// Driver tuning knobs.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Maximum pending requests before [`BatchDriver::submit`] rejects.
    pub queue_limit: usize,
    /// Per-request wall-clock budget.
    pub request_budget: Duration,
    /// Store lock timeout (stale-lock breaking threshold).
    pub lock_timeout: Duration,
    /// Poll the process-wide [`crate::shutdown`] flag between requests:
    /// once raised, not-yet-started requests are reported as
    /// [`BatchStatus::Cancelled`] while in-flight ones drain within their
    /// budgets. Off by default — the flag is process-global, so embedders
    /// (and parallel tests) must opt in per driver.
    pub honor_shutdown: bool,
    /// Give every request its own search checkpoint at
    /// `<dir>/<name>.ckpt`, auto-resuming when one is already there: a
    /// killed batch continues where it stopped and converges to the
    /// byte-identical plans (`sfd --checkpoint-dir`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Byte quota on the plan store: past it, least-recently-used entries
    /// are evicted on publish (`sfd --cache-quota`). `None` = unbounded.
    pub cache_quota: Option<u64>,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            queue_limit: 256,
            request_budget: Duration::from_secs(120),
            lock_timeout: Duration::from_secs(10),
            honor_shutdown: false,
            checkpoint_dir: None,
            cache_quota: None,
        }
    }
}

/// A whole-batch report.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-request outcomes, in submission order.
    pub outcomes: Vec<BatchOutcome>,
    /// Store counters accumulated across the batch.
    pub stats: sf_cache::StoreStats,
}

impl BatchReport {
    /// Requests served from the cache.
    pub fn hits(&self) -> usize {
        self.count(|o| o.status == BatchStatus::Hit)
    }

    /// Requests compiled end to end.
    pub fn compiled(&self) -> usize {
        self.count(|o| matches!(o.status, BatchStatus::Compiled | BatchStatus::Recovered(_)))
    }

    /// Requests that went through a cache recovery.
    pub fn recovered(&self) -> usize {
        self.count(|o| matches!(o.status, BatchStatus::Recovered(_)))
    }

    /// Requests that failed or ran over budget.
    pub fn failures(&self) -> usize {
        self.count(|o| matches!(o.status, BatchStatus::Failed | BatchStatus::OverBudget))
    }

    /// Requests cancelled by a graceful shutdown (never started).
    pub fn cancelled(&self) -> usize {
        self.count(|o| o.status == BatchStatus::Cancelled)
    }

    fn count(&self, pred: impl Fn(&BatchOutcome) -> bool) -> usize {
        self.outcomes.iter().filter(|o| pred(o)).count()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} requests: {} hits, {} compiled ({} after cache recovery), {} failed",
            self.outcomes.len(),
            self.hits(),
            self.compiled(),
            self.recovered(),
            self.failures(),
        );
        if self.cancelled() > 0 {
            line.push_str(&format!(", {} cancelled by shutdown", self.cancelled()));
        }
        line
    }
}

/// The batch driver. See the module docs for the three request paths.
pub struct BatchDriver {
    store: Arc<PlanStore>,
    config: PipelineConfig,
    options: BatchOptions,
    /// Derived once: config fingerprint + device descriptor, shared by
    /// every request's key derivation.
    fingerprint: Arc<String>,
    device: Arc<String>,
    /// Whether results can be cached at all: replay substitutes stages 2–5,
    /// so only runs that reach codegen produce a replayable plan.
    cache_enabled: bool,
    queue: Vec<BatchRequest>,
}

impl BatchDriver {
    /// Open (or create) the store at `cache_dir` and build a driver over
    /// it, the store armed with the store section of `config.faults`.
    pub fn new(
        cache_dir: impl Into<PathBuf>,
        config: PipelineConfig,
        options: BatchOptions,
    ) -> Result<BatchDriver, PipelineError> {
        let store = PlanStore::open_with(
            cache_dir,
            StoreOptions {
                lock_timeout: options.lock_timeout,
                faults: config.faults.as_ref().map(|f| f.cache).unwrap_or_default(),
                quota_bytes: options.cache_quota,
            },
        )?;
        let fingerprint = Arc::new(config.cache_fingerprint());
        let device = Arc::new(config.device.fingerprint());
        let cache_enabled =
            config.preloaded_plan.is_none() && config.run_until.is_none_or(|s| s >= Stage::Codegen);
        Ok(BatchDriver {
            store: Arc::new(store),
            config,
            options,
            fingerprint,
            device,
            cache_enabled,
            queue: Vec::new(),
        })
    }

    /// The underlying store (stats, integrity checks).
    pub fn store(&self) -> &PlanStore {
        &self.store
    }

    /// Pending request count.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Admit a request, or reject it when the queue is at its limit.
    pub fn submit(&mut self, request: BatchRequest) -> Result<usize, Rejected> {
        if self.queue.len() >= self.options.queue_limit {
            return Err(Rejected {
                name: request.name,
                queue_limit: self.options.queue_limit,
            });
        }
        self.queue.push(request);
        Ok(self.queue.len())
    }

    /// Compile everything queued, concurrently, and drain the queue.
    /// Outcomes come back in submission order regardless of scheduling.
    pub fn run(&mut self) -> BatchReport {
        let requests = std::mem::take(&mut self.queue);
        let outcomes: Vec<BatchOutcome> = requests
            .par_iter()
            .map(|request| self.process_with_budget(request))
            .collect();
        BatchReport {
            outcomes,
            stats: self.store.stats(),
        }
    }

    /// The effective config for one request: the base config, plus the
    /// request's device override and its own checkpoint file when a
    /// checkpoint directory is set. Checkpoint placement is excluded from
    /// the cache fingerprint, so requests without a device override still
    /// share the driver's precomputed fingerprint.
    fn request_config(&self, request: &BatchRequest) -> PipelineConfig {
        let mut config = self.config.clone();
        if let Some(device) = &request.device {
            config.device = device.clone();
        }
        match &self.options.checkpoint_dir {
            Some(dir) => {
                let stem: String = request
                    .name
                    .chars()
                    .map(|c| if std::path::is_separator(c) { '_' } else { c })
                    .collect();
                config.with_resume(dir.join(format!("{stem}.ckpt")))
            }
            None => config,
        }
    }

    /// Run one request on a watchdog'd worker thread. On budget overrun the
    /// batch moves on; the abandoned worker finishes (or not) in the
    /// background and its result is discarded.
    fn process_with_budget(&self, request: &BatchRequest) -> BatchOutcome {
        // Graceful shutdown: poll the flag at the request boundary, the
        // one place where nothing is half-done yet. Everything already
        // past this point drains normally (publishes stay atomic).
        if self.options.honor_shutdown && crate::shutdown::shutdown_requested() {
            return BatchOutcome {
                name: request.name.clone(),
                status: BatchStatus::Cancelled,
                plan_json: None,
                output: None,
                speedup: 1.0,
                error: None,
                cache_note: Some("shutdown requested before this request started".into()),
            };
        }
        let (tx, rx) = mpsc::channel();
        let store = Arc::clone(&self.store);
        let config = self.request_config(request);
        // A device override changes both key materials; re-derive them from
        // the effective config so cache entries never cross devices.
        let (fingerprint, device) = if request.device.is_some() {
            (
                Arc::new(config.cache_fingerprint()),
                Arc::new(config.device.fingerprint()),
            )
        } else {
            (Arc::clone(&self.fingerprint), Arc::clone(&self.device))
        };
        let cache_enabled = self.cache_enabled;
        let req = request.clone();
        std::thread::spawn(move || {
            let outcome = process(&store, &config, &fingerprint, &device, cache_enabled, &req);
            let _ = tx.send(outcome);
        });
        match rx.recv_timeout(self.options.request_budget) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => BatchOutcome {
                name: request.name.clone(),
                status: BatchStatus::OverBudget,
                plan_json: None,
                output: None,
                speedup: 1.0,
                error: None,
                cache_note: Some(format!(
                    "exceeded the {:?} request budget",
                    self.options.request_budget
                )),
            },
            Err(mpsc::RecvTimeoutError::Disconnected) => BatchOutcome {
                name: request.name.clone(),
                status: BatchStatus::Failed,
                plan_json: None,
                output: None,
                speedup: 1.0,
                error: None,
                cache_note: Some("worker thread died before reporting".into()),
            },
        }
    }
}

/// The full per-request state machine (runs on the worker thread).
fn process(
    store: &PlanStore,
    base: &PipelineConfig,
    fingerprint: &str,
    device: &str,
    cache_enabled: bool,
    request: &BatchRequest,
) -> BatchOutcome {
    let mut outcome = BatchOutcome {
        name: request.name.clone(),
        status: BatchStatus::Failed,
        plan_json: None,
        output: None,
        speedup: 1.0,
        error: None,
        cache_note: None,
    };
    // Parse + canonicalize: the cache key hashes the *printed* program, so
    // formatting-only differences in the submitted text still hit.
    let program = match sf_minicuda::parse_program(&request.source) {
        Ok(p) => p,
        Err(e) => {
            outcome.error = Some(e.into());
            return outcome;
        }
    };
    let canonical = sf_minicuda::printer::print_program(&program);
    let key = CacheKey::derive(&canonical, device, fingerprint);
    let served = compile_through_cache(cache_enabled.then_some((store, &key)), program, base);
    outcome.status = served.status;
    outcome.plan_json = served.plan_json;
    if !served.notes.is_empty() {
        outcome.cache_note = Some(served.notes.join("; "));
    }
    match served.result {
        Ok(result) => {
            outcome.output = Some(sf_minicuda::printer::print_program(&result.program));
            outcome.speedup = result.speedup;
        }
        Err(e) => outcome.error = Some(e),
    }
    outcome
}

/// What [`compile_through_cache`] did for one program.
#[derive(Debug)]
pub struct Served {
    /// The run behind the output: a warm replay or a cold compile.
    pub result: Result<TransformResult, PipelineError>,
    /// [`BatchStatus::Hit`], [`BatchStatus::Compiled`] or
    /// [`BatchStatus::Recovered`]; [`BatchStatus::Failed`] exactly when
    /// `result` is an error.
    pub status: BatchStatus,
    /// The transform plan JSON as served (warm) or published (cold).
    pub plan_json: Option<String>,
    /// Non-fatal cache observations, in the order they happened (quarantined
    /// entry, failed replay, publish retry, lost race, publish failure).
    pub notes: Vec<String>,
}

/// The cache rung of the degradation ladder, shared by `sfd`'s batch driver
/// and `sfc --cache-dir`: *cache hit → cache recompile → normal pipeline*.
/// A hit replays the cached plan through the stage-skipping path; a miss, a
/// quarantined entry or a plan that will not replay compiles cold and
/// publishes the result (retrying transient store trouble, re-reading after
/// a lost race). No cache misfortune fails the compile — it becomes a note.
/// `cache` is `None` when the run is not cacheable or no store is open.
pub fn compile_through_cache(
    cache: Option<(&PlanStore, &CacheKey)>,
    program: Program,
    config: &PipelineConfig,
) -> Served {
    let run = |program: Program, config: PipelineConfig| {
        Pipeline::new(program, config).and_then(|p| p.run_with(&Interventions::default()))
    };
    let mut notes = Vec::new();
    let mut recovery: Option<String> = None;
    if let Some((store, key)) = cache {
        match store.lookup(key) {
            Ok(Lookup::Hit(entry)) => match TransformPlan::from_json(&entry.payload) {
                // Warm path: replay through the stage-skipping path.
                Ok(plan) => match run(program.clone(), config.clone().with_plan(plan)) {
                    Ok(result) => {
                        return Served {
                            result: Ok(result),
                            status: BatchStatus::Hit,
                            plan_json: Some(entry.payload),
                            notes,
                        }
                    }
                    // Cache recompile rung: the plan was served but would
                    // not replay; fall through to a cold compile rather
                    // than failing the request.
                    Err(e) => {
                        recovery = Some("replay".into());
                        notes.push(format!("cached plan failed to replay: {e}"));
                    }
                },
                // Checksum-valid bytes that are not a plan this build
                // understands (e.g. plan-version skew inside a valid
                // entry). Recompile; the slot will be overwritten.
                Err(e) => {
                    recovery = Some("plan-parse".into());
                    notes.push(format!("cached plan rejected: {e}"));
                }
            },
            Ok(Lookup::Miss) => {}
            Ok(Lookup::Recovered { reason, .. }) => {
                recovery = Some(reason.label().to_string());
                notes.push(format!("quarantined cache entry: {reason}"));
            }
            // Store-level I/O trouble must not abort the batch either:
            // note it and compile without the cache.
            Err(e) => notes.push(format!("cache lookup failed: {e}")),
        }
    }

    // Cold path: full pipeline.
    let result = match run(program, config.clone()) {
        Ok(r) => r,
        Err(e) => {
            return Served {
                result: Err(e),
                status: BatchStatus::Failed,
                plan_json: None,
                notes,
            }
        }
    };
    let plan_json = result
        .executed_plan()
        .or_else(|| result.planned())
        .map(|plan| plan.to_json());
    if let (Some((store, key)), Some(payload)) = (cache, &plan_json) {
        // Transient store trouble (lock I/O) retries on the one schedule;
        // deterministic failures short-circuit.
        let retried = sf_core::retry::run(
            |_| store.publish(key, payload),
            sf_cache::CacheError::is_transient,
        );
        if retried.attempts > 1 {
            notes.push(format!(
                "publish retried {} time(s) ({} µs virtual backoff)",
                retried.attempts - 1,
                retried.virtual_backoff_us
            ));
        }
        match retried.result {
            Ok(Published::Stored | Published::AlreadyPresent) => {}
            // First writer wins; we just re-read to confirm the winner
            // committed (and keep our own plan regardless).
            Ok(Published::LostRace) => notes.push(
                match store.lookup(key) {
                    Ok(Lookup::Hit(_)) => "lost publish race; winner's entry verified",
                    _ => "lost publish race; winner not committed yet",
                }
                .to_string(),
            ),
            // Publish failures (injected crash, disk trouble) never fail
            // the request — the compile already succeeded.
            Err(e) => notes.push(format!("publish failed: {e}")),
        }
    }
    Served {
        result: Ok(result),
        status: recovery.map_or(BatchStatus::Compiled, BatchStatus::Recovered),
        plan_json,
        notes,
    }
}
