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
//! Every flag is one [`Opt`] item below (or in [`cli::SHARED`], for the
//! seven `sfc` shares); `--help` is generated from the same items, and the
//! shared flags reach the configuration through [`cli::pipeline_config`].
//!
//! Exit codes (the constants live in `stencilfuse::error`): 0 all requests
//! succeeded; 1 a request failed or ran over budget; 2 usage / file I/O
//! error; 3 a graceful shutdown (SIGINT / SIGTERM) cancelled part of the
//! batch — everything that started drained cleanly, the rest is reported
//! as cancelled and safe to resubmit.

use std::fmt::Display;
use std::path::Path;
use std::time::{Duration, Instant};
use stencilfuse::cli::{self, Opt};
use stencilfuse::error::{EXIT_FAILED, EXIT_SHUTDOWN, EXIT_USAGE};
use stencilfuse::{BatchDriver, BatchOptions, BatchRequest, BatchStatus};

stencilfuse::option_table! {
    /// The flags only `sfd` has (or that mean something else to `sfc`).
    SFD {
        CACHE_DIR = Opt::valued("--cache-dir", "DIR", "cache directory",
            "plan cache directory (created if missing; default .sf-cache)");
        OUT_DIR = Opt::valued("--out-dir", "DIR", "output directory",
            "write <stem>.fused.cu and <stem>.plan.json per input");
        DEVICE = Opt::valued("--device", "NAME", "device",
            "registry device for the inputs that follow it (default\n\
             k20x; built-ins: k20x, k40, hawaii, v100). The flag is\n\
             positional: each input compiles for the most recent\n\
             --device, so one batch can mix targets —\n\
             `sfd a.cu --device v100 b.cu` compiles a.cu for k20x\n\
             and b.cu for v100. Cache entries key on the device\n\
             fingerprint and never cross devices.");
        JOBS = Opt::valued("--jobs", "N", "job count",
            "cap concurrent workers (sets RAYON_NUM_THREADS)");
        CHECKPOINT_DIR = Opt::valued("--checkpoint-dir", "D", "checkpoint directory",
            "checkpoint every request's search to D/<stem>.ckpt at\n\
             each migration epoch and auto-resume from it: a killed\n\
             batch continues where it stopped, byte-identically");
        QUEUE_LIMIT = Opt::valued("--queue-limit", "N", "queue limit",
            "bounded admission: reject submissions past N pending");
        BUDGET_SECS = Opt::valued("--budget-secs", "N", "budget",
            "per-request wall-clock budget (default 120)");
        CACHE_QUOTA = Opt::valued("--cache-quota", "SIZE", "cache quota",
            "bound the plan store at SIZE bytes (K/M/G suffixes):\n\
             past it, least-recently-used entries are evicted on\n\
             publish; committed entries are never corrupted");
        BREAKER = Opt::valued("--breaker", "N", "breaker threshold",
            "trip a failure class's circuit breaker after N\n\
             failures in a minute; tripped classes reject new\n\
             submissions with a retry-after hint until the\n\
             cooldown and a half-open probe pass");
        BREAKER_COOLDOWN_MS = Opt::valued("--breaker-cooldown-ms", "MS", "breaker cooldown",
            "how long a tripped class stays open (default 10000)");
        VERIFY_STORE = Opt::switch("--verify-store",
            "integrity-scan the cache (quarantining bad entries),\n\
             print the result, and exit");
        REPORT = Opt::switch("--report", "per-request status lines to stderr");
    }
}
const TABLES: &[&[Opt]] = &[SFD, cli::SHARED, &[cli::HELP]];

const ON_SIGNAL: &str = "
On SIGINT/SIGTERM the driver stops admitting work, drains in-flight
requests within their budgets (cache publishes stay atomic), reports every
request's status, and exits 3.
";

fn usage() -> String {
    let synopsis = "sfd --cache-dir DIR [options] INPUT.cu [INPUT.cu ...]";
    cli::usage(synopsis, TABLES, ON_SIGNAL)
}

/// A file, directory or device the batch needs is unusable: exit 2.
fn fail(message: impl Display) -> ! {
    eprintln!("sfd: {message}");
    std::process::exit(EXIT_USAGE);
}

/// The command line itself is wrong: say so, print the usage, exit 2.
fn usage_error(message: impl Display) -> ! {
    fail(format_args!("{message}\n{}", usage()));
}

/// The batch options the flags ask for. An `Err` is a usage error.
fn batch_options(args: &cli::Parsed) -> Result<BatchOptions, String> {
    let mut options = BatchOptions::default();
    if let Some(limit) = args.number(&QUEUE_LIMIT)? {
        options.queue_limit = limit;
    }
    if let Some(secs) = args.number(&BUDGET_SECS)? {
        options.request_budget = Duration::from_secs(secs);
    }
    options.checkpoint_dir = args.value(&CHECKPOINT_DIR).map(Into::into);
    options.cache_quota = args.bytes(&CACHE_QUOTA)?;
    let threshold = args.at_least_one(&BREAKER)?;
    let cooldown_ms = args.number(&BREAKER_COOLDOWN_MS)?;
    if threshold.is_some() || cooldown_ms.is_some() {
        let default = sf_core::BreakerConfig::default();
        options.breaker = Some(sf_core::BreakerConfig {
            threshold: threshold.unwrap_or(default.threshold),
            cooldown_ms: cooldown_ms.unwrap_or(default.cooldown_ms),
            ..default
        });
    }
    // Graceful shutdown: SIGINT/SIGTERM stop admission, drain in-flight
    // work, and report everything (exit code 3).
    options.honor_shutdown = true;
    Ok(options)
}

fn main() {
    let args = cli::parse(std::env::args().skip(1), TABLES).unwrap_or_else(|e| usage_error(e));
    if args.has(&cli::HELP) {
        print!("{}", usage());
        return;
    }
    if let Some(jobs) = args
        .at_least_one::<usize>(&JOBS)
        .unwrap_or_else(|e| usage_error(e))
    {
        // The vendored rayon shim sizes its per-call worker set from this,
        // like upstream's global pool.
        std::env::set_var("RAYON_NUM_THREADS", jobs.to_string());
    }

    let registry = cli::device_registry(&args).unwrap_or_else(|e| fail(e));
    // The driver's base config always targets the default device; inputs
    // scoped under a --device flag carry a per-request override (with its
    // own fingerprint-derived cache key), so one batch can mix targets.
    let base_device = registry.resolve("k20x").unwrap_or_else(|e| fail(e));
    // Positional --device scope: every name is resolved where it stands
    // (a trailing or misspelt one is an error even with no input after
    // it), and only inputs whose in-scope device differs from the base
    // carry an override (and their own key).
    let mut scope = None;
    let mut inputs = Vec::new();
    for (opt, text) in args.iter() {
        match opt {
            None => inputs.push((text, scope.clone())),
            Some(opt) if *opt == DEVICE => {
                let device = registry.resolve(text).unwrap_or_else(|e| fail(e));
                scope = Some(device).filter(|d| d.fingerprint() != base_device.fingerprint());
            }
            Some(_) => {}
        }
    }
    let config = cli::pipeline_config(&args, base_device, |preset| preset)
        .unwrap_or_else(|e| usage_error(e));
    let options = batch_options(&args).unwrap_or_else(|e| usage_error(e));
    if let Some(dir) = &options.checkpoint_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            fail(format_args!(
                "cannot create checkpoint dir {}: {e}",
                dir.display()
            ))
        });
    }
    stencilfuse::install_signal_handlers();

    let cache_dir = args.value(&CACHE_DIR).unwrap_or(".sf-cache");
    let mut driver = BatchDriver::new(cache_dir, config, options)
        .unwrap_or_else(|e| fail(format_args!("cannot open cache at {cache_dir}: {e}")));

    if args.has(&VERIFY_STORE) {
        match driver.store().verify_integrity() {
            Ok((valid, quarantined)) => {
                println!("cache {cache_dir}: {valid} valid entries, {quarantined} quarantined");
                return;
            }
            Err(e) => fail(format_args!("integrity scan failed: {e}")),
        }
    }

    if inputs.is_empty() {
        usage_error("no input files");
    }
    let out_dir = args.value(&OUT_DIR);
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(format_args!("cannot create {dir}: {e}")));
    }

    for (input, device) in inputs {
        if stencilfuse::shutdown_requested() {
            eprintln!("sfd: shutdown requested; not admitting {input}");
            continue;
        }
        let source = std::fs::read_to_string(input)
            .unwrap_or_else(|e| fail(format_args!("cannot read {input}: {e}")));
        let name = Path::new(input)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| input.to_string());
        let mut request = BatchRequest::new(name, source);
        if let Some(device) = device {
            request = request.with_device(device);
        }
        if let Err(rejected) = driver.submit(request) {
            fail(rejected);
        }
    }

    let started = Instant::now();
    let report = driver.run();
    let elapsed = started.elapsed();

    let mut failed = false;
    let mut cancelled = false;
    for outcome in &report.outcomes {
        if args.has(&REPORT) {
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
                eprintln!(
                    "sfd: {} cancelled by shutdown (safe to resubmit)",
                    outcome.name
                );
            }
            _ => {}
        }
        if let Some(dir) = out_dir {
            let write = |suffix: &str, contents: &Option<String>| {
                if let Some(text) = contents {
                    let path = Path::new(dir).join(format!("{}{suffix}", outcome.name));
                    std::fs::write(&path, text).unwrap_or_else(|e| {
                        fail(format_args!("cannot write {}: {e}", path.display()))
                    });
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
        cache_dir,
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
        EXIT_FAILED
    } else if cancelled {
        EXIT_SHUTDOWN
    } else {
        0
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The accepted flag set is the one the parent commit's hand-written
    /// usage listed, every flag is in the generated usage with its
    /// metavar, and every flag parses with a sample value.
    #[test]
    fn the_option_tables_are_the_whole_surface() {
        let mut parent = [
            "--cache-dir",
            "--out-dir",
            "--device",
            "--device-file",
            "--quick",
            "--jobs",
            "--islands",
            "--max-temporal",
            "--checkpoint-dir",
            "--queue-limit",
            "--budget-secs",
            "--mem-budget",
            "--cache-quota",
            "--breaker",
            "--breaker-cooldown-ms",
            "--no-verify",
            "--strict",
            "--verify-store",
            "--report",
        ];
        let mut flags: Vec<&str> = SFD.iter().chain(cli::SHARED).map(|o| o.flag).collect();
        parent.sort_unstable();
        flags.sort_unstable();
        assert_eq!(flags, parent);
        let usage = usage();
        for opt in SFD.iter().chain(cli::SHARED) {
            let head = format!("  {} {}", opt.flag, opt.value.unwrap_or_default());
            assert_eq!(
                usage.matches(head.trim_end()).count(),
                1,
                "{} in:\n{usage}",
                opt.flag
            );
            let argv = [opt.flag].into_iter().chain(opt.value.map(|_| "1"));
            let args = cli::parse(argv.map(String::from), TABLES).expect(opt.flag);
            assert!(args.has(opt), "{}", opt.flag);
        }
        assert!(usage.ends_with(ON_SIGNAL));
    }
}
