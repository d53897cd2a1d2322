//! `sfc` — the stencilfuse source-to-source transformer CLI.
//!
//! The paper's framework is "intended to be used as a standalone
//! source-to-source transformer" driven by command-line arguments that can
//! run the workflow up to / from any stage and exchange intermediate
//! artifacts as files (§3.2). This binary is that interface:
//!
//! ```sh
//! sfc input.cu -o fused.cu --device k20x \
//!     --emit-ddg ddg.dot --emit-oeg oeg.dot --emit-new-oeg new_oeg.dot \
//!     --emit-metadata metadata.json --params ga_params.json --report
//! ```
//!
//! Exit codes identify the failure class so scripted callers can react
//! without scraping stderr:
//!
//! | code | meaning                                          |
//! |------|--------------------------------------------------|
//! | 0    | success                                          |
//! | 1    | unclassified failure                             |
//! | 2    | usage error or file I/O failure                  |
//! | 3    | the input program did not parse / evaluate       |
//! | 4    | analysis failed (metadata, filter, graphs)       |
//! | 5    | the search failed                                |
//! | 6    | code generation failed                           |
//! | 7    | output verification failed                       |
//! | 8    | success, but cache corruption was detected and   |
//! |      | recovered (entry quarantined / replay recompiled)|
//! | 9    | plan/device mismatch: the replayed plan targets  |
//! |      | a different device than this run is configured   |
//! |      | for (re-target explicitly with --port-plan)      |
//! | 10   | a resource budget (`--mem-budget`) was exhausted;|
//! |      | stderr names the budget and its used/limit pair  |

use sf_cache::{CacheKey, PlanStore};
use sf_gpusim::DeviceRegistry;
use stencilfuse::batch::compile_through_cache;
use stencilfuse::{BatchStatus, ErrorKind, PipelineConfig, PipelineError, Stage};

const EXIT_USAGE: i32 = 2;
const EXIT_PARSE: i32 = 3;
const EXIT_ANALYSIS: i32 = 4;
const EXIT_SEARCH: i32 = 5;
const EXIT_CODEGEN: i32 = 6;
const EXIT_VERIFY: i32 = 7;
/// The run *succeeded*, but only after the plan cache misbehaved: a
/// corrupt/torn/version-skewed entry was quarantined, or a cached plan
/// failed to replay and the program was recompiled. Scripted callers can
/// treat this as success while still counting cache incidents.
const EXIT_CACHE_RECOVERED: i32 = 8;
/// A preloaded plan (`--from-plan` or a cache entry) targets a different
/// device than this run is configured for; replaying it would silently
/// project with the wrong device model, so the run is rejected instead.
const EXIT_DEVICE_MISMATCH: i32 = 9;
/// A resource budget (`--mem-budget`) was exhausted: the program is a
/// compile bomb for the configured limits, or the limits are too tight.
/// The error on stderr names the exact budget (`launches`, `domain-cells`,
/// `heap-bytes`, ...) with its used/limit pair.
const EXIT_RESOURCE: i32 = 10;

/// Map a structured pipeline error to the exit-code taxonomy: the error
/// kind wins when it names a failure class, the stage decides otherwise.
fn exit_code_for(e: &PipelineError) -> i32 {
    match (&e.kind, e.stage) {
        (ErrorKind::Parse(_) | ErrorKind::HostEval(_), _) => EXIT_PARSE,
        (ErrorKind::Verify(_), _) => EXIT_VERIFY,
        (ErrorKind::DeviceMismatch { .. }, _) => EXIT_DEVICE_MISMATCH,
        (ErrorKind::ResourceExhausted { .. }, _) => EXIT_RESOURCE,
        (_, Stage::Metadata | Stage::Filter | Stage::Graphs) => EXIT_ANALYSIS,
        (_, Stage::Search) => EXIT_SEARCH,
        (_, Stage::NewGraphs | Stage::Codegen) => EXIT_CODEGEN,
    }
}

struct Args {
    input: Option<String>,
    output: Option<String>,
    device: Option<String>,
    device_files: Vec<String>,
    manual: bool,
    no_fission: bool,
    no_tuning: bool,
    until: Option<Stage>,
    emit_ddg: Option<String>,
    emit_oeg: Option<String>,
    emit_new_oeg: Option<String>,
    emit_metadata: Option<String>,
    load_metadata: Option<String>,
    emit_plan: Option<String>,
    from_plan: Option<String>,
    port_plan: Option<String>,
    cache_dir: Option<String>,
    params: Option<String>,
    report: bool,
    no_verify: bool,
    quick: bool,
    strict: bool,
    profile_reps: Option<u32>,
    noise_seed: Option<u64>,
    islands: Option<usize>,
    checkpoint: Option<String>,
    resume: Option<String>,
    kill_at_epoch: Option<usize>,
    max_temporal: Option<u32>,
    mem_budget: Option<u64>,
}

const USAGE: &str = "\
usage: sfc INPUT.cu [options]
  -o FILE             write the transformed program (default: stdout)
  --device NAME       target device from the registry (default k20x);
                      built-ins: k20x, k40, hawaii, v100
  --device-file FILE  extend the device registry with JSON descriptors
                      (one DeviceSpec object or an array; repeatable);
                      a descriptor may also override a built-in by name
  --mode auto|manual  code generator flavor (default auto)
  --no-fission        disable the lazy-fission moves (fusion only)
  --no-tuning         disable thread-block-size tuning
  --until STAGE       stop after metadata|filter|graphs|search|new-graphs
  --params FILE       GA parameter file (JSON; see --emit-params)
  --emit-params FILE  write the default GA parameter file and exit
  --emit-ddg FILE     write the data dependency graph as DOT
  --emit-oeg FILE     write the order-of-execution graph as DOT
  --emit-new-oeg FILE write the post-search OEG (fusion clusters) as DOT
  --emit-metadata FILE write the metadata bundle as JSON
  --metadata FILE     skip profiling; run from this (amended) metadata file
  --emit-plan FILE    write the transform plan as JSON (`-` for stdout); a
                      full run emits the as-executed plan, `--until search`
                      emits the search's lowered plan
  --from-plan FILE    replay a transform plan (`-` for stdin): skips the
                      analysis/search stages and reproduces the run exactly;
                      the plan must target this run's --device (exit code 9
                      otherwise — use --port-plan to re-target)
  --port-plan FILE    port a transform plan to --device: re-runs block-size
                      tuning and a short search seeded with the old plan's
                      grouping (elite injection), byte-deterministic per
                      (seed, device)
  --cache-dir DIR     consult (and populate) a persistent plan cache: a hit
                      replays the cached plan like --from-plan, a miss runs
                      the pipeline and publishes the plan; corruption is
                      quarantined and recompiled (exit code 8 reports it)
  --profile-reps N    profile with N repetitions and robust (median + MAD)
                      aggregation; reports per-kernel measurement confidence
  --noise-seed N      inject the standard seeded measurement-noise model
                      (jitter, outliers, dropped counters, transients); the
                      same seed reproduces the same measurements exactly
  --islands N         shard the search population across N supervised
                      islands evaluated in parallel; a panicked island is
                      quarantined (search degrades, never aborts) and the
                      final plan is byte-identical for a given seed
                      regardless of RAYON_NUM_THREADS
  --checkpoint FILE   atomically snapshot the search state to FILE at every
                      migration epoch (crash-safe: temp + fsync + rename);
                      works at any --islands and never changes the plan
  --resume FILE       resume a killed search from FILE (and keep
                      checkpointing there); the resumed run converges to
                      the byte-identical plan the uninterrupted run would
                      have produced
  --kill-at-epoch N   chaos testing: abort the search right after the
                      checkpoint of migration epoch N commits, simulating
                      a crash for --resume to recover from
  --max-temporal N    allow temporal blocking up to degree N for fusion
                      groups covering a whole recorded host time loop
                      (default 1 = disabled; at 1 the run makes the same
                      decisions as a build without temporal support)
  --mem-budget SIZE   enforce resource budgets: the service limits (IR
                      size, launch count, precedence depth, domain cells,
                      search-space caps, interpreter steps) with the
                      accounted-heap cap set to SIZE (digits with an
                      optional K/M/G suffix). A program that exceeds a
                      budget is rejected with exit code 10 and a
                      structured `resource-exhausted` error naming the
                      budget — never an OOM or a hang
  --report            print per-stage reports to stderr
  --no-verify         skip output verification
  --quick             scaled-down search budget (for quick experiments)
  --strict            fail on the first degradable error instead of
                      walking the degradation ladder
";

fn parse_stage(s: &str) -> Option<Stage> {
    Some(match s {
        "metadata" => Stage::Metadata,
        "filter" => Stage::Filter,
        "graphs" => Stage::Graphs,
        "search" => Stage::Search,
        "new-graphs" => Stage::NewGraphs,
        "codegen" => Stage::Codegen,
        _ => return None,
    })
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        output: None,
        device: None,
        device_files: Vec::new(),
        manual: false,
        no_fission: false,
        no_tuning: false,
        until: None,
        emit_ddg: None,
        emit_oeg: None,
        emit_new_oeg: None,
        emit_metadata: None,
        load_metadata: None,
        emit_plan: None,
        from_plan: None,
        port_plan: None,
        cache_dir: None,
        params: None,
        report: false,
        no_verify: false,
        quick: false,
        strict: false,
        profile_reps: None,
        noise_seed: None,
        islands: None,
        checkpoint: None,
        resume: None,
        kill_at_epoch: None,
        max_temporal: None,
        mem_budget: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let take = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "-o" => args.output = Some(take(&mut i)?),
            "--device" => args.device = Some(take(&mut i)?),
            "--device-file" => args.device_files.push(take(&mut i)?),
            "--mode" => {
                let m = take(&mut i)?;
                args.manual = match m.as_str() {
                    "manual" => true,
                    "auto" => false,
                    _ => return Err(format!("unknown mode `{m}`")),
                };
            }
            "--no-fission" => args.no_fission = true,
            "--no-tuning" => args.no_tuning = true,
            "--until" => {
                let s = take(&mut i)?;
                args.until = Some(parse_stage(&s).ok_or_else(|| format!("unknown stage `{s}`"))?);
            }
            "--params" => args.params = Some(take(&mut i)?),
            "--emit-params" => {
                let path = take(&mut i)?;
                let text = serde_json::to_string_pretty(&sf_search::SearchConfig::default())
                    .expect("serializable");
                std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))?;
                println!("default GA parameter file written to {path}");
                std::process::exit(0);
            }
            "--emit-ddg" => args.emit_ddg = Some(take(&mut i)?),
            "--emit-oeg" => args.emit_oeg = Some(take(&mut i)?),
            "--emit-new-oeg" => args.emit_new_oeg = Some(take(&mut i)?),
            "--emit-metadata" => args.emit_metadata = Some(take(&mut i)?),
            "--metadata" => args.load_metadata = Some(take(&mut i)?),
            "--emit-plan" => args.emit_plan = Some(take(&mut i)?),
            "--from-plan" => args.from_plan = Some(take(&mut i)?),
            "--port-plan" => args.port_plan = Some(take(&mut i)?),
            "--cache-dir" => args.cache_dir = Some(take(&mut i)?),
            "--profile-reps" => {
                let n = take(&mut i)?;
                args.profile_reps = Some(
                    n.parse()
                        .map_err(|_| format!("bad repetition count `{n}`"))?,
                );
            }
            "--noise-seed" => {
                let n = take(&mut i)?;
                args.noise_seed =
                    Some(n.parse().map_err(|_| format!("bad noise seed `{n}`"))?);
            }
            "--islands" => {
                let n = take(&mut i)?;
                let n: usize = n.parse().map_err(|_| format!("bad island count `{n}`"))?;
                if n == 0 {
                    return Err("island count must be at least 1".into());
                }
                args.islands = Some(n);
            }
            "--checkpoint" => args.checkpoint = Some(take(&mut i)?),
            "--resume" => args.resume = Some(take(&mut i)?),
            "--kill-at-epoch" => {
                let n = take(&mut i)?;
                args.kill_at_epoch =
                    Some(n.parse().map_err(|_| format!("bad epoch `{n}`"))?);
            }
            "--max-temporal" => {
                let n = take(&mut i)?;
                let n: u32 = n
                    .parse()
                    .map_err(|_| format!("bad temporal degree `{n}`"))?;
                if n == 0 {
                    return Err("temporal degree must be at least 1".into());
                }
                args.max_temporal = Some(n);
            }
            "--mem-budget" => {
                let n = take(&mut i)?;
                args.mem_budget = Some(
                    sf_core::parse_bytes(&n)
                        .ok_or_else(|| format!("bad size `{n}` (digits with optional K/M/G)"))?,
                );
            }
            "--report" => args.report = true,
            "--no-verify" => args.no_verify = true,
            "--quick" => args.quick = true,
            "--strict" => args.strict = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') && args.input.is_none() => {
                args.input = Some(other.to_string());
            }
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
            eprintln!("sfc: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(input) = &args.input else {
        eprintln!("sfc: no input file\n{USAGE}");
        std::process::exit(2);
    };
    if args.from_plan.is_some() && args.port_plan.is_some() {
        eprintln!("sfc: --from-plan (exact replay) and --port-plan (re-target) are exclusive");
        std::process::exit(2);
    }
    // Device registry: built-ins plus any user descriptor files, resolved
    // case-insensitively. Unknown names report the available devices.
    let mut registry = DeviceRegistry::builtin();
    for path in &args.device_files {
        if let Err(e) = registry.load_file(std::path::Path::new(path)) {
            eprintln!("sfc: {e}");
            std::process::exit(2);
        }
    }
    let device = match registry.resolve(args.device.as_deref().unwrap_or("k20x")) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sfc: {e}");
            std::process::exit(2);
        }
    };
    let source = match std::fs::read_to_string(input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sfc: cannot read {input}: {e}");
            std::process::exit(2);
        }
    };
    let program = match sf_minicuda::parse_program(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sfc: {input}:{e}");
            eprint!("{}", e.render(&source));
            std::process::exit(EXIT_PARSE);
        }
    };

    let mut config = if args.quick {
        PipelineConfig::quick(device.clone())
    } else {
        PipelineConfig::automated(device)
    };
    if args.manual {
        config = config.manual_oracle();
    }
    if args.no_fission {
        config = config.without_fission();
    }
    if args.no_tuning {
        config = config.without_tuning();
    }
    if args.no_verify {
        config.verify = false;
    }
    if args.strict {
        config = config.strict();
    }
    if let Some(reps) = args.profile_reps {
        config = config.with_profile_reps(reps);
    }
    if let Some(seed) = args.noise_seed {
        config = config.with_noise_seed(seed);
    }
    if let Some(n) = args.islands {
        config = config.with_islands(n);
    }
    // --resume first: it also arms checkpointing at the same path, and an
    // explicit --checkpoint then redirects where new snapshots land.
    if let Some(path) = &args.resume {
        config = config.with_resume(path);
    }
    if let Some(path) = &args.checkpoint {
        config = config.with_checkpoint(path);
    }
    if let Some(epoch) = args.kill_at_epoch {
        let mut faults = config.faults.take().unwrap_or_default();
        faults.islands.kill_at_epoch = Some(epoch);
        config = config.with_faults(faults);
    }
    config.run_until = args.until;
    if let Some(path) = &args.load_metadata {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sfc: cannot read metadata file {path}: {e}");
                std::process::exit(2);
            }
        };
        match serde_json::from_str(&text) {
            Ok(bundle) => config.preloaded_metadata = Some(bundle),
            Err(e) => {
                eprintln!("sfc: bad metadata file {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &args.from_plan {
        let text = if path == "-" {
            use std::io::Read;
            let mut s = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut s) {
                eprintln!("sfc: cannot read plan from stdin: {e}");
                std::process::exit(2);
            }
            s
        } else {
            match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("sfc: cannot read plan file {path}: {e}");
                    std::process::exit(2);
                }
            }
        };
        match sf_codegen::TransformPlan::from_json(&text) {
            Ok(plan) => config.preloaded_plan = Some(plan),
            Err(e) => {
                eprintln!("sfc: bad plan file {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &args.port_plan {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sfc: cannot read plan file {path}: {e}");
                std::process::exit(2);
            }
        };
        match sf_codegen::TransformPlan::from_json(&text) {
            Ok(plan) => config = config.with_port_plan(plan),
            Err(e) => {
                eprintln!("sfc: bad plan file {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &args.params {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sfc: cannot read parameter file {path}: {e}");
                std::process::exit(2);
            }
        };
        match serde_json::from_str::<sf_search::SearchConfig>(&text) {
            // A port run re-applies its reduced budget on top of the file.
            Ok(sc) => {
                config.search = if config.port_plan.is_some() {
                    sc.for_port()
                } else {
                    sc
                }
            }
            Err(e) => {
                eprintln!("sfc: bad parameter file {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    // After --params so the explicit flag overrides the parameter file.
    if let Some(n) = args.max_temporal {
        config = config.with_max_temporal(n);
    }
    if let Some(bytes) = args.mem_budget {
        config = config.with_budget(
            sf_core::Limits::service().cap(sf_core::ResourceKind::HeapBytes, bytes),
        );
    }

    // Plan cache: the same ladder `sfd` runs (lookup → replay → recompile →
    // publish with retry). Only runs that reach codegen produce a
    // replayable plan, and an explicit --from-plan already carries one —
    // both fall back to plain compilation, as does a store that will not
    // open. Every cache misfortune is a note on stderr, never a failure;
    // the final exit code 8 reports that a recovery happened.
    let cacheable = config.preloaded_plan.is_none()
        && config.run_until.is_none_or(|s| s >= Stage::Codegen);
    let cache = args.cache_dir.as_ref().filter(|_| cacheable).and_then(|dir| {
        let store = PlanStore::open(dir)
            .map_err(|e| eprintln!("sfc: cannot open cache at {dir} ({e}); compiling without it"))
            .ok()?;
        let key = CacheKey::derive(
            &sf_minicuda::printer::print_program(&program),
            &config.device.fingerprint(),
            &config.cache_fingerprint(),
        );
        Some((store, key))
    });
    let served = compile_through_cache(
        cache.as_ref().map(|(store, key)| (store, key)),
        program,
        &config,
        sf_core::RetryPolicy::default(),
    );
    for note in &served.notes {
        eprintln!("sfc: {note}");
    }
    let cache_recovered = matches!(served.status, BatchStatus::Recovered(_));
    let result = match served.result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sfc: {e}");
            std::process::exit(exit_code_for(&e));
        }
    };

    // Degradations always go to stderr, with or without --report: the run
    // succeeded, but not at the rung the search selected.
    for d in result.degradations() {
        eprintln!("sfc: degraded: {d}");
    }

    if args.report {
        for r in &result.reports {
            eprint!("{r}");
        }
        eprintln!(
            "speedup {:.3}x ({:.1} µs -> {:.1} µs)",
            result.speedup, result.original_time_us, result.transformed_time_us
        );
    }

    let write_file = |path: &Option<String>, contents: &str, what: &str| {
        if let Some(p) = path {
            if let Err(e) = std::fs::write(p, contents) {
                eprintln!("sfc: cannot write {what} to {p}: {e}");
                std::process::exit(EXIT_USAGE);
            }
        }
    };
    write_file(&args.emit_ddg, &result.ddg_dot, "DDG");
    write_file(&args.emit_oeg, &result.oeg_dot, "OEG");
    write_file(&args.emit_new_oeg, &result.new_oeg_dot, "new OEG");
    if let Some(p) = &args.emit_metadata {
        let text = result
            .metadata
            .as_ref()
            .map(|m| serde_json::to_string_pretty(m).expect("serializable"))
            .unwrap_or_default();
        if let Err(e) = std::fs::write(p, text) {
            eprintln!("sfc: cannot write metadata to {p}: {e}");
            std::process::exit(EXIT_USAGE);
        }
    }

    if let Some(p) = &args.emit_plan {
        let Some(plan) = result.executed_plan().or_else(|| result.planned()) else {
            eprintln!("sfc: no transform plan to emit (stopped before the search stage?)");
            std::process::exit(EXIT_USAGE);
        };
        let text = plan.to_json();
        if p == "-" {
            print!("{text}");
        } else if let Err(e) = std::fs::write(p, &text) {
            eprintln!("sfc: cannot write plan to {p}: {e}");
            std::process::exit(EXIT_USAGE);
        }
    }

    if let Some(v) = &result.verification {
        if !v.passed() {
            eprintln!(
                "sfc: VERIFICATION FAILED: {}; hazards {:?}",
                v.failure().unwrap_or_else(|| "unknown".into()),
                v.hazards
            );
            std::process::exit(EXIT_VERIFY);
        }
    }

    let text = sf_minicuda::printer::print_program(&result.program);
    match &args.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("sfc: cannot write {path}: {e}");
                std::process::exit(EXIT_USAGE);
            }
        }
        None => print!("{text}"),
    }

    if cache_recovered {
        // Flush explicitly: process::exit skips the usual stdout teardown.
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::process::exit(EXIT_CACHE_RECOVERED);
    }
}
