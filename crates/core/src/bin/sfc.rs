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
//! Every flag is one [`Opt`] item below (or in [`cli::SHARED`], for the
//! seven `sfd` shares), and `--help` is generated from the same items.
//! Where a setting can come from more than one place the order is the one
//! [`cli::pipeline_config`] states: the preset (`--quick`) < the parameter
//! file (`--params`, then the port run's reduced budget) < explicit flags.
//!
//! Exit codes identify the failure class so scripted callers can react
//! without scraping stderr (the constants and the error → code mapping
//! live in `stencilfuse::error`):
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
use sf_codegen::TransformPlan;
use sf_gpusim::device::DeviceSpec;
use std::fmt::Display;
use stencilfuse::batch::compile_through_cache;
use stencilfuse::cli::{self, Opt, Parsed};
use stencilfuse::error::{EXIT_CACHE_RECOVERED, EXIT_PARSE, EXIT_USAGE, EXIT_VERIFY};
use stencilfuse::{BatchStatus, PipelineConfig, Stage};

stencilfuse::option_table! {
    /// The flags only `sfc` has (or that mean something else to `sfd`).
    SFC {
        OUTPUT = Opt::valued("-o", "FILE", "output file",
            "write the transformed program (default: stdout)");
        DEVICE = Opt::valued("--device", "NAME", "device",
            "target device from the registry (default k20x);\n\
             built-ins: k20x, k40, hawaii, v100");
        MODE = Opt::valued("--mode", "auto|manual", "mode", "code generator flavor (default auto)");
        NO_FISSION = Opt::switch("--no-fission", "disable the lazy-fission moves (fusion only)");
        NO_TUNING = Opt::switch("--no-tuning", "disable thread-block-size tuning");
        UNTIL = Opt::valued("--until", "STAGE", "stage",
            "stop after metadata|filter|graphs|search|new-graphs");
        PARAMS = Opt::valued("--params", "FILE", "parameter file",
            "GA parameter file (JSON; see --emit-params); it\n\
             replaces the preset's search budget, and explicit\n\
             flags (--islands, --max-temporal, ...) override it");
        EMIT_PARAMS = Opt::valued("--emit-params", "FILE", "parameter file",
            "write the GA parameters a default run searches\n\
             with and exit");
        EMIT_DDG = Opt::valued("--emit-ddg", "FILE", "DDG",
            "write the data dependency graph as DOT");
        EMIT_OEG = Opt::valued("--emit-oeg", "FILE", "OEG",
            "write the order-of-execution graph as DOT");
        EMIT_NEW_OEG = Opt::valued("--emit-new-oeg", "FILE", "new OEG",
            "write the post-search OEG (fusion clusters) as DOT");
        EMIT_METADATA = Opt::valued("--emit-metadata", "FILE", "metadata",
            "write the metadata bundle as JSON");
        METADATA = Opt::valued("--metadata", "FILE", "metadata file",
            "skip profiling; run from this (amended) metadata file");
        EMIT_PLAN = Opt::valued("--emit-plan", "FILE", "plan",
            "write the transform plan as JSON (`-` for stdout); a\n\
             full run emits the as-executed plan, `--until search`\n\
             emits the search's lowered plan");
        FROM_PLAN = Opt::valued("--from-plan", "FILE", "plan file",
            "replay a transform plan (`-` for stdin): skips the\n\
             analysis/search stages and reproduces the run exactly;\n\
             the plan must target this run's --device (exit code 9\n\
             otherwise — use --port-plan to re-target)");
        PORT_PLAN = Opt::valued("--port-plan", "FILE", "plan file",
            "port a transform plan to --device: re-runs block-size\n\
             tuning and a short search seeded with the old plan's\n\
             grouping (elite injection), byte-deterministic per\n\
             (seed, device)");
        CACHE_DIR = Opt::valued("--cache-dir", "DIR", "cache directory",
            "consult (and populate) a persistent plan cache: a hit\n\
             replays the cached plan like --from-plan, a miss runs\n\
             the pipeline and publishes the plan; corruption is\n\
             quarantined and recompiled (exit code 8 reports it)");
        PROFILE_REPS = Opt::valued("--profile-reps", "N", "repetition count",
            "profile with N repetitions and robust (median + MAD)\n\
             aggregation; reports per-kernel measurement confidence");
        NOISE_SEED = Opt::valued("--noise-seed", "N", "noise seed",
            "inject the standard seeded measurement-noise model\n\
             (jitter, outliers, dropped counters, transients); the\n\
             same seed reproduces the same measurements exactly");
        CHECKPOINT = Opt::valued("--checkpoint", "FILE", "checkpoint file",
            "atomically snapshot the search state to FILE at every\n\
             migration epoch (crash-safe: temp + fsync + rename);\n\
             works at any --islands and never changes the plan");
        RESUME = Opt::valued("--resume", "FILE", "checkpoint file",
            "resume a killed search from FILE (and keep\n\
             checkpointing there, unless --checkpoint redirects\n\
             it); the resumed run converges to the byte-identical\n\
             plan the uninterrupted run would have produced");
        KILL_AT_EPOCH = Opt::valued("--kill-at-epoch", "N", "epoch",
            "chaos testing: abort the search right after the\n\
             checkpoint of migration epoch N commits, simulating\n\
             a crash for --resume to recover from");
        REPORT = Opt::switch("--report", "print per-stage reports to stderr");
    }
}
const TABLES: &[&[Opt]] = &[SFC, cli::SHARED, &[cli::HELP]];

fn usage() -> String {
    cli::usage("sfc INPUT.cu [options]", TABLES, cli::PRECEDENCE)
}

/// A file, device or plan the run needs is unusable: say so and exit 2.
fn fail(message: impl Display) -> ! {
    eprintln!("sfc: {message}");
    std::process::exit(EXIT_USAGE);
}

/// The command line itself is wrong: say so, print the usage, exit 2.
fn usage_error(message: impl Display) -> ! {
    fail(format_args!("{message}\n{}", usage()));
}

fn read_file(path: &str, what: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format_args!("cannot read {what} {path}: {e}")))
}

fn read_json<T: serde::Deserialize>(path: &str, what: &str) -> T {
    serde_json::from_str(&read_file(path, what))
        .unwrap_or_else(|e| fail(format_args!("bad {what} {path}: {e}")))
}

/// A transform plan from `path`, or from stdin when the flag allows `-`.
fn read_plan(path: &str, stdin_allowed: bool) -> TransformPlan {
    let text = if stdin_allowed && path == "-" {
        std::io::read_to_string(std::io::stdin())
            .unwrap_or_else(|e| fail(format_args!("cannot read plan from stdin: {e}")))
    } else {
        read_file(path, FROM_PLAN.what)
    };
    TransformPlan::from_json(&text)
        .unwrap_or_else(|e| fail(format_args!("bad plan file {path}: {e}")))
}

/// Write an artifact where its `--emit-*` flag says to, if it was given.
fn emit(args: &Parsed, opt: &Opt, contents: &str) {
    if let Some(path) = args.value(opt) {
        std::fs::write(path, contents)
            .unwrap_or_else(|e| fail(format_args!("cannot write {} to {path}: {e}", opt.what)));
    }
}

/// The run's configuration: [`cli::pipeline_config`] for the preset and
/// the shared flags, with `sfc`'s parameter-file layer in the middle and
/// its own explicit flags on top. An `Err` is a usage error.
fn configure(args: &Parsed, device: DeviceSpec) -> Result<PipelineConfig, String> {
    let mut config = cli::pipeline_config(args, device, |mut config| {
        if let Some(path) = args.value(&PARAMS) {
            config.search = read_json(path, PARAMS.what);
        }
        // A port run re-applies its reduced budget on top of the file.
        match args.value(&PORT_PLAN) {
            Some(path) => config.with_port_plan(read_plan(path, false)),
            None => config,
        }
    })?;
    match args.value(&MODE) {
        None | Some("auto") => {}
        Some("manual") => config = config.manual_oracle(),
        Some(mode) => return Err(format!("unknown mode `{mode}`")),
    }
    if args.has(&NO_FISSION) {
        config = config.without_fission();
    }
    if args.has(&NO_TUNING) {
        config = config.without_tuning();
    }
    if let Some(reps) = args.at_least_one(&PROFILE_REPS)? {
        config = config.with_profile_reps(reps);
    }
    if let Some(seed) = args.number(&NOISE_SEED)? {
        config = config.with_noise_seed(seed);
    }
    // --resume first: it also arms checkpointing at the same path, and an
    // explicit --checkpoint then redirects where new snapshots land.
    if let Some(path) = args.value(&RESUME) {
        config = config.with_resume(path);
    }
    if let Some(path) = args.value(&CHECKPOINT) {
        config = config.with_checkpoint(path);
    }
    if let Some(epoch) = args.number(&KILL_AT_EPOCH)? {
        let mut faults = config.faults.take().unwrap_or_default();
        faults.islands.kill_at_epoch = Some(epoch);
        config = config.with_faults(faults);
    }
    if let Some(name) = args.value(&UNTIL) {
        let stage = Stage::ALL.into_iter().find(|stage| stage.name() == name);
        config.run_until = Some(stage.ok_or_else(|| format!("unknown stage `{name}`"))?);
    }
    if let Some(path) = args.value(&METADATA) {
        config.preloaded_metadata = Some(read_json(path, METADATA.what));
    }
    if let Some(path) = args.value(&FROM_PLAN) {
        config.preloaded_plan = Some(read_plan(path, true));
    }
    Ok(config)
}

fn main() {
    let args = cli::parse(std::env::args().skip(1), TABLES).unwrap_or_else(|e| usage_error(e));
    if args.has(&cli::HELP) {
        print!("{}", usage());
        return;
    }
    if let Some(path) = args.value(&EMIT_PARAMS) {
        let params = PipelineConfig::automated(DeviceSpec::k20x()).search_config();
        let text = serde_json::to_string_pretty(&params).expect("serializable");
        std::fs::write(path, text)
            .unwrap_or_else(|e| usage_error(format_args!("write {path}: {e}")));
        println!("default GA parameter file written to {path}");
        return;
    }
    let mut inputs = args.positionals();
    let Some(input) = inputs.next() else {
        usage_error("no input file");
    };
    if let Some(second) = inputs.next() {
        usage_error(format_args!(
            "takes one input file, got `{input}` and `{second}`"
        ));
    }
    if args.has(&FROM_PLAN) && args.has(&PORT_PLAN) {
        fail("--from-plan (exact replay) and --port-plan (re-target) are exclusive");
    }
    // Device registry: built-ins plus any user descriptor files, resolved
    // case-insensitively. Unknown names report the available devices.
    let registry = cli::device_registry(&args).unwrap_or_else(|e| fail(e));
    let device = registry
        .resolve(args.value(&DEVICE).unwrap_or("k20x"))
        .unwrap_or_else(|e| fail(e));
    // Every flag is checked before the input is read.
    let config = configure(&args, device).unwrap_or_else(|e| usage_error(e));
    let source = std::fs::read_to_string(input)
        .unwrap_or_else(|e| fail(format_args!("cannot read {input}: {e}")));
    let program = match sf_minicuda::parse_program(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sfc: {input}:{e}");
            eprint!("{}", e.render(&source));
            std::process::exit(EXIT_PARSE);
        }
    };

    // Plan cache: the same ladder `sfd` runs (lookup → replay → recompile →
    // publish with retry). Only runs that reach codegen produce a
    // replayable plan, and an explicit --from-plan already carries one —
    // both fall back to plain compilation, as does a store that will not
    // open. Every cache misfortune is a note on stderr, never a failure;
    // the final exit code 8 reports that a recovery happened.
    let cacheable =
        config.preloaded_plan.is_none() && config.run_until.is_none_or(|s| s >= Stage::Codegen);
    let cache = args
        .value(&CACHE_DIR)
        .filter(|_| cacheable)
        .and_then(|dir| {
            let store = PlanStore::open(dir)
                .map_err(|e| {
                    eprintln!("sfc: cannot open cache at {dir} ({e}); compiling without it")
                })
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
    );
    for note in &served.notes {
        eprintln!("sfc: {note}");
    }
    let cache_recovered = matches!(served.status, BatchStatus::Recovered(_));
    let result = match served.result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sfc: {e}");
            std::process::exit(e.exit_code());
        }
    };

    // Degradations always go to stderr, with or without --report: the run
    // succeeded, but not at the rung the search selected.
    for d in result.degradations() {
        eprintln!("sfc: degraded: {d}");
    }

    if args.has(&REPORT) {
        for r in &result.reports {
            eprint!("{r}");
        }
        eprintln!(
            "speedup {:.3}x ({:.1} µs -> {:.1} µs)",
            result.speedup, result.original_time_us, result.transformed_time_us
        );
    }

    emit(&args, &EMIT_DDG, &result.ddg_dot);
    emit(&args, &EMIT_OEG, &result.oeg_dot);
    emit(&args, &EMIT_NEW_OEG, &result.new_oeg_dot);
    if args.has(&EMIT_METADATA) {
        let text = result
            .metadata
            .as_ref()
            .map(|m| serde_json::to_string_pretty(m).expect("serializable"))
            .unwrap_or_default();
        emit(&args, &EMIT_METADATA, &text);
    }

    if let Some(path) = args.value(&EMIT_PLAN) {
        let Some(plan) = result.executed_plan().or_else(|| result.planned()) else {
            fail("no transform plan to emit (stopped before the search stage?)");
        };
        match path {
            "-" => print!("{}", plan.to_json()),
            _ => emit(&args, &EMIT_PLAN, &plan.to_json()),
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
    match args.value(&OUTPUT) {
        Some(path) => std::fs::write(path, &text)
            .unwrap_or_else(|e| fail(format_args!("cannot write {path}: {e}"))),
        None => print!("{text}"),
    }

    if cache_recovered {
        // Flush explicitly: process::exit skips the usual stdout teardown.
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::process::exit(EXIT_CACHE_RECOVERED);
    }
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
            "-o",
            "--device",
            "--device-file",
            "--mode",
            "--no-fission",
            "--no-tuning",
            "--until",
            "--params",
            "--emit-params",
            "--emit-ddg",
            "--emit-oeg",
            "--emit-new-oeg",
            "--emit-metadata",
            "--metadata",
            "--emit-plan",
            "--from-plan",
            "--port-plan",
            "--cache-dir",
            "--profile-reps",
            "--noise-seed",
            "--islands",
            "--checkpoint",
            "--resume",
            "--kill-at-epoch",
            "--max-temporal",
            "--mem-budget",
            "--report",
            "--no-verify",
            "--quick",
            "--strict",
        ];
        let mut flags: Vec<&str> = SFC.iter().chain(cli::SHARED).map(|o| o.flag).collect();
        parent.sort_unstable();
        flags.sort_unstable();
        assert_eq!(flags, parent);
        let usage = usage();
        for opt in SFC.iter().chain(cli::SHARED) {
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
        assert!(usage.ends_with(cli::PRECEDENCE));
    }
}
