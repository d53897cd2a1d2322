//! `sfd` — the stencilfuse batch compilation driver.
//!
//! Compiles many programs in one invocation against a persistent,
//! crash-safe plan cache: warm requests replay their cached `TransformPlan`
//! through the stage-skipping path (byte-identical to a cold compile),
//! cold requests compile end to end and publish their plan for the next
//! run. Cache corruption is quarantined and recompiled, never fatal.
//!
//! ```sh
//! cargo run --example emit_app -- mitgcm > mitgcm.cu
//! cargo run --example emit_app -- awp-odc > awp.cu
//! sfd --cache-dir .plan-cache --out-dir out --quick mitgcm.cu awp.cu
//! sfd --cache-dir .plan-cache --out-dir out2 --quick mitgcm.cu awp.cu
//! cmp out/mitgcm.plan.json out2/mitgcm.plan.json   # warm == cold
//! ```
//!
//! Exit codes: 0 all requests succeeded; 1 a request failed or ran over
//! budget; 2 usage / file I/O error; 3 a graceful shutdown (SIGINT /
//! SIGTERM) cancelled part of the batch — everything that started drained
//! cleanly, the rest is reported as cancelled and safe to resubmit.

use sf_gpusim::DeviceRegistry;
use std::path::Path;
use std::time::{Duration, Instant};
use stencilfuse::{BatchDriver, BatchOptions, BatchRequest, BatchStatus, PipelineConfig};

const EXIT_SHUTDOWN: i32 = 3;

const USAGE: &str = "\
usage: sfd --cache-dir DIR [options] INPUT.cu [INPUT.cu ...]
  --cache-dir DIR     plan cache directory (created if missing; default .sf-cache)
  --out-dir DIR       write <stem>.fused.cu and <stem>.plan.json per input
  --device NAME       registry device for the inputs that follow it (default
                      k20x; built-ins: k20x, k40, hawaii, v100). The flag is
                      positional: each input compiles for the most recent
                      --device, so one batch can mix targets —
                      `sfd a.cu --device v100 b.cu` compiles a.cu for k20x
                      and b.cu for v100. Cache entries key on the device
                      fingerprint and never cross devices.
  --device-file FILE  extend the device registry with JSON descriptors
                      (one DeviceSpec object or an array; repeatable)
  --quick             scaled-down search budget
  --jobs N            cap concurrent workers (sets RAYON_NUM_THREADS)
  --islands N         shard each request's search into N supervised islands
  --max-temporal N    allow temporal blocking up to degree N for whole-loop
                      fusion groups (default 1 = disabled)
  --checkpoint-dir D  checkpoint every request's search to D/<stem>.ckpt at
                      each migration epoch and auto-resume from it: a killed
                      batch continues where it stopped, byte-identically
  --queue-limit N     bounded admission: reject submissions past N pending
  --budget-secs N     per-request wall-clock budget (default 120)
  --mem-budget SIZE   run every request under the service resource budget
                      with its heap allowance capped at SIZE (K/M/G
                      suffixes). Hostile inputs are rejected with a
                      structured resource-exhausted error, never an OOM or
                      a hang
  --cache-quota SIZE  bound the plan store at SIZE bytes (K/M/G suffixes):
                      past it, least-recently-used entries are evicted on
                      publish; committed entries are never corrupted
  --breaker N         trip a failure class's circuit breaker after N
                      failures in a minute; tripped classes reject new
                      submissions with a retry-after hint until the
                      cooldown and a half-open probe pass
  --breaker-cooldown-ms MS
                      how long a tripped class stays open (default 10000)
  --no-verify         skip output verification
  --strict            fail on the first degradable error
  --verify-store      integrity-scan the cache (quarantining bad entries),
                      print the result, and exit
  --report            per-request status lines to stderr

On SIGINT/SIGTERM the driver stops admitting work, drains in-flight
requests within their budgets (cache publishes stay atomic), reports every
request's status, and exits 3.
";

struct Args {
    cache_dir: String,
    out_dir: Option<String>,
    device_files: Vec<String>,
    quick: bool,
    jobs: Option<usize>,
    islands: Option<usize>,
    max_temporal: Option<u32>,
    checkpoint_dir: Option<String>,
    queue_limit: Option<usize>,
    budget_secs: Option<u64>,
    mem_budget: Option<u64>,
    cache_quota: Option<u64>,
    breaker: Option<u32>,
    breaker_cooldown_ms: Option<u64>,
    no_verify: bool,
    strict: bool,
    verify_store: bool,
    report: bool,
    /// (input path, device name in scope at that position — None = base).
    inputs: Vec<(String, Option<String>)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cache_dir: ".sf-cache".into(),
        out_dir: None,
        device_files: Vec::new(),
        quick: false,
        jobs: None,
        islands: None,
        max_temporal: None,
        checkpoint_dir: None,
        queue_limit: None,
        budget_secs: None,
        mem_budget: None,
        cache_quota: None,
        breaker: None,
        breaker_cooldown_ms: None,
        no_verify: false,
        strict: false,
        verify_store: false,
        report: false,
        inputs: Vec::new(),
    };
    let mut scoped_device: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let take = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
    };
    // Parses into the flag's own type, so a value that does not fit is a
    // usage error rather than a silent wrap.
    fn parse_num<T: std::str::FromStr>(what: &str, v: String) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad {what} `{v}`"))
    }
    while i < argv.len() {
        match argv[i].as_str() {
            "--cache-dir" => args.cache_dir = take(&mut i)?,
            "--out-dir" => args.out_dir = Some(take(&mut i)?),
            "--device" => scoped_device = Some(take(&mut i)?),
            "--device-file" => args.device_files.push(take(&mut i)?),
            "--quick" => args.quick = true,
            "--jobs" => args.jobs = Some(parse_num("job count", take(&mut i)?)?),
            "--islands" => {
                let n: usize = parse_num("island count", take(&mut i)?)?;
                if n == 0 {
                    return Err("island count must be at least 1".into());
                }
                args.islands = Some(n);
            }
            "--max-temporal" => {
                let n: u32 = parse_num("temporal degree", take(&mut i)?)?;
                if n == 0 {
                    return Err("temporal degree must be at least 1".into());
                }
                args.max_temporal = Some(n);
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(take(&mut i)?),
            "--queue-limit" => {
                args.queue_limit = Some(parse_num("queue limit", take(&mut i)?)?)
            }
            "--budget-secs" => args.budget_secs = Some(parse_num("budget", take(&mut i)?)?),
            "--mem-budget" => {
                let v = take(&mut i)?;
                args.mem_budget = Some(
                    sf_core::parse_bytes(&v).ok_or_else(|| format!("bad memory budget `{v}`"))?,
                );
            }
            "--cache-quota" => {
                let v = take(&mut i)?;
                args.cache_quota = Some(
                    sf_core::parse_bytes(&v).ok_or_else(|| format!("bad cache quota `{v}`"))?,
                );
            }
            "--breaker" => {
                let n: u32 = parse_num("breaker threshold", take(&mut i)?)?;
                if n == 0 {
                    return Err("breaker threshold must be at least 1".into());
                }
                args.breaker = Some(n);
            }
            "--breaker-cooldown-ms" => {
                args.breaker_cooldown_ms = Some(parse_num("breaker cooldown", take(&mut i)?)?)
            }
            "--no-verify" => args.no_verify = true,
            "--strict" => args.strict = true,
            "--verify-store" => args.verify_store = true,
            "--report" => args.report = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => args
                .inputs
                .push((other.to_string(), scoped_device.clone())),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sfd: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    if let Some(jobs) = args.jobs {
        // The vendored rayon shim sizes its per-call worker set from this,
        // like upstream's global pool.
        std::env::set_var("RAYON_NUM_THREADS", jobs.max(1).to_string());
    }

    let mut registry = DeviceRegistry::builtin();
    for path in &args.device_files {
        if let Err(e) = registry.load_file(Path::new(path)) {
            eprintln!("sfd: {e}");
            std::process::exit(2);
        }
    }
    // The driver's base config always targets the default device; inputs
    // scoped under a --device flag carry a per-request override (with its
    // own fingerprint-derived cache key), so one batch can mix targets.
    let base_device = match registry.resolve("k20x") {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sfd: {e}");
            std::process::exit(2);
        }
    };

    let mut config = if args.quick {
        PipelineConfig::quick(base_device.clone())
    } else {
        PipelineConfig::automated(base_device.clone())
    };
    if args.no_verify {
        config.verify = false;
    }
    if args.strict {
        config = config.strict();
    }
    if let Some(n) = args.islands {
        config = config.with_islands(n);
    }
    if let Some(n) = args.max_temporal {
        config = config.with_max_temporal(n);
    }
    if let Some(bytes) = args.mem_budget {
        config = config.with_budget(
            sf_core::Limits::service().cap(sf_core::ResourceKind::HeapBytes, bytes),
        );
    }

    let mut options = BatchOptions::default();
    if let Some(limit) = args.queue_limit {
        options.queue_limit = limit;
    }
    if let Some(secs) = args.budget_secs {
        options.request_budget = Duration::from_secs(secs);
    }
    if let Some(dir) = &args.checkpoint_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("sfd: cannot create checkpoint dir {dir}: {e}");
            std::process::exit(2);
        }
        options.checkpoint_dir = Some(dir.into());
    }
    options.cache_quota = args.cache_quota;
    if args.breaker.is_some() || args.breaker_cooldown_ms.is_some() {
        let mut breaker = sf_core::BreakerConfig::default();
        if let Some(threshold) = args.breaker {
            breaker.threshold = threshold;
        }
        if let Some(cooldown) = args.breaker_cooldown_ms {
            breaker.cooldown_ms = cooldown;
        }
        options.breaker = Some(breaker);
    }
    // Graceful shutdown: SIGINT/SIGTERM stop admission, drain in-flight
    // work, and report everything (exit code 3).
    options.honor_shutdown = true;
    stencilfuse::install_signal_handlers();

    let mut driver = match BatchDriver::new(&args.cache_dir, config, options) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sfd: cannot open cache at {}: {e}", args.cache_dir);
            std::process::exit(2);
        }
    };

    if args.verify_store {
        match driver.store().verify_integrity() {
            Ok((valid, quarantined)) => {
                println!("cache {}: {valid} valid entries, {quarantined} quarantined", args.cache_dir);
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("sfd: integrity scan failed: {e}");
                std::process::exit(2);
            }
        }
    }

    if args.inputs.is_empty() {
        eprintln!("sfd: no input files\n{USAGE}");
        std::process::exit(2);
    }
    if let Some(dir) = &args.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("sfd: cannot create {dir}: {e}");
            std::process::exit(2);
        }
    }

    for (input, device_name) in &args.inputs {
        if stencilfuse::shutdown_requested() {
            eprintln!("sfd: shutdown requested; not admitting {input}");
            continue;
        }
        let source = match std::fs::read_to_string(input) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sfd: cannot read {input}: {e}");
                std::process::exit(2);
            }
        };
        let name = Path::new(input)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| input.clone());
        let mut request = BatchRequest::new(name, source);
        // Positional --device scope: only inputs whose in-scope device
        // differs from the base carry an override (and their own key).
        if let Some(dname) = device_name {
            let device = match registry.resolve(dname) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("sfd: {e}");
                    std::process::exit(2);
                }
            };
            if device.fingerprint() != base_device.fingerprint() {
                request = request.with_device(device);
            }
        }
        if let Err(rejected) = driver.submit(request) {
            eprintln!("sfd: {rejected}");
            std::process::exit(2);
        }
    }

    let started = Instant::now();
    let report = driver.run();
    let elapsed = started.elapsed();

    let mut failed = false;
    let mut cancelled = false;
    for outcome in &report.outcomes {
        if args.report {
            let mut line = format!(
                "{}: {} (speedup {:.3}x)",
                outcome.name,
                outcome.status.label(),
                outcome.speedup
            );
            if let Some(note) = &outcome.cache_note {
                line.push_str(&format!(" [{note}]"));
            }
            eprintln!("sfd: {line}");
        }
        match &outcome.status {
            BatchStatus::Failed => {
                failed = true;
                if let Some(e) = &outcome.error {
                    eprintln!("sfd: {} failed: {e}", outcome.name);
                } else {
                    eprintln!("sfd: {} failed", outcome.name);
                }
            }
            BatchStatus::OverBudget => {
                failed = true;
                eprintln!("sfd: {} exceeded its wall-clock budget", outcome.name);
            }
            BatchStatus::Cancelled => {
                cancelled = true;
                eprintln!("sfd: {} cancelled by shutdown (safe to resubmit)", outcome.name);
            }
            _ => {}
        }
        if let Some(dir) = &args.out_dir {
            let write = |suffix: &str, contents: &Option<String>| {
                if let Some(text) = contents {
                    let path = Path::new(dir).join(format!("{}{suffix}", outcome.name));
                    if let Err(e) = std::fs::write(&path, text) {
                        eprintln!("sfd: cannot write {}: {e}", path.display());
                        std::process::exit(2);
                    }
                }
            };
            write(".fused.cu", &outcome.output);
            write(".plan.json", &outcome.plan_json);
        }
    }

    println!(
        "sfd: {} in {:.2}s ({} store: {} hits, {} misses, {} recovered, {} stored, {} evicted)",
        report.summary(),
        elapsed.as_secs_f64(),
        args.cache_dir,
        report.stats.hits,
        report.stats.misses,
        report.stats.recovered,
        report.stats.stored,
        report.stats.evicted,
    );
    if stencilfuse::shutdown_requested() {
        cancelled = true;
    }
    std::process::exit(if failed {
        1
    } else if cancelled {
        EXIT_SHUTDOWN
    } else {
        0
    });
}
