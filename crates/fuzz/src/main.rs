//! `sf-fuzz` — the differential fuzzing driver.
//!
//! ```text
//! sf-fuzz --seed 42                      # one seed
//! sf-fuzz --seed 1 --seed 2              # several seeds
//! sf-fuzz --seed-range 0..300            # a corpus
//! sf-fuzz --seed-range 0..300 --repro-dir tests/repros --max-wall-secs 240
//! sf-fuzz --hostile                      # compile-bomb contract checks
//! sf-fuzz --emit-hostile deep-chain      # print one bomb's source (for sfc)
//! sf-fuzz --soak --seed 1 --max-wall-secs 300   # seeded chaos soak
//! ```
//!
//! Exit codes: 0 = all seeds clean, 1 = at least one failure (reproducers
//! written / soak violation / hostile contract broken), 2 = usage error.

use sf_fuzz::{fuzz_seed_with, Archetype, GenConfig, OracleOptions, SoakConfig, ARCHETYPES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use stencilfuse::cli::{self, Opt, Parsed};

stencilfuse::option_table! {
    /// Every flag of `sf-fuzz`.
    FUZZ {
        SEED = Opt::valued("--seed", "N", "seed",
            "check seed N (repeatable; the first one seeds --soak)");
        SEED_RANGE = Opt::valued("--seed-range", "A..B", "range",
            "check every seed of the half-open range A..B");
        REPRO_DIR = Opt::valued("--repro-dir", "DIR", "reproducer directory",
            "write shrunk reproducers here (default tests/repros)");
        MAX_WALL_SECS = Opt::valued("--max-wall-secs", "S", "duration",
            "stop starting new seeds (or soak rounds) after S seconds");
        NOISE = Opt::switch("--noise", "add the noisy-profiling checks");
        CACHE = Opt::switch("--cache", "add the plan-cache checks (seeded store faults)");
        ISLANDS = Opt::switch("--islands", "add the island-search checks (faults, kill/resume)");
        DEVICES = Opt::switch("--devices", "add the cross-device replay/port checks");
        TEMPORAL = Opt::switch("--temporal",
            "fuzz the time-loop corpus with the temporal-blocking checks");
        HOSTILE = Opt::switch("--hostile",
            "check every compile-bomb archetype's contract and exit");
        EMIT_HOSTILE = Opt::valued("--emit-hostile", "ARCHETYPE", "archetype",
            "print one archetype's source and exit; one of: deep-chain,\n\
             thousand-launches, huge-domain, huge-grid, one-cell-domain");
        SOAK = Opt::switch("--soak", "run the seeded chaos soak over the batch driver");
        SOAK_ROUNDS = Opt::valued("--soak-rounds", "R", "round count", "soak for at most R rounds");
        SOAK_DIR = Opt::valued("--soak-dir", "DIR", "soak directory",
            "keep the soak's store here (default: a temp dir, removed on success)");
    }
}
const TABLES: &[&[Opt]] = &[FUZZ];

const SYNOPSIS: &str = "sf-fuzz [--seed N]... [--seed-range A..B] [--repro-dir DIR] \
[--max-wall-secs S] [--noise] [--cache] [--islands] [--devices] [--temporal]
     | sf-fuzz --hostile
     | sf-fuzz --emit-hostile ARCHETYPE
     | sf-fuzz --soak [--seed N] [--soak-rounds R] [--soak-dir DIR] [--max-wall-secs S]";

fn usage_error(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprint!("{}", cli::usage(SYNOPSIS, TABLES, ""));
    ExitCode::from(2)
}

/// The seeds the command line names, in command-line order.
fn seeds(args: &Parsed) -> Result<Vec<u64>, String> {
    let mut seeds = Vec::new();
    for (opt, v) in args.iter() {
        match opt {
            Some(opt) if *opt == SEED => seeds.push(SEED.parse(v)?),
            Some(opt) if *opt == SEED_RANGE => {
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("bad range `{v}` (want A..B)"))?;
                let a: u64 = a.parse().map_err(|_| format!("bad range start `{a}`"))?;
                let b: u64 = b.parse().map_err(|_| format!("bad range end `{b}`"))?;
                if a >= b {
                    return Err(format!("empty range `{v}`"));
                }
                seeds.extend(a..b);
            }
            Some(_) => {}
            None => return Err(format!("unknown argument `{v}`")),
        }
    }
    Ok(seeds)
}

/// `--hostile`: run every archetype's contract check under the service
/// budget and report pass/fail per archetype.
fn run_hostile() -> ExitCode {
    let mut failures = 0usize;
    for archetype in ARCHETYPES {
        match sf_fuzz::hostile::check(archetype) {
            Ok(detail) => println!("sf-fuzz: PASS {detail}"),
            Err(detail) => {
                failures += 1;
                eprintln!("sf-fuzz: FAIL {detail}");
            }
        }
    }
    println!(
        "sf-fuzz: {} archetype(s) checked, {failures} failure(s)",
        ARCHETYPES.len()
    );
    if failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `--soak`: run the seeded chaos soak and report the outcome. The soak
/// directory is kept on failure (CI uploads it as the evidence artifact).
fn run_soak_cli(seed: u64, rounds: usize, max_wall_secs: u64, soak_dir: Option<&str>) -> ExitCode {
    // An explicit --soak-dir is kept even on success (CI verifies the
    // store afterwards and uploads it on failure); the temp-dir default
    // is cleaned up on success.
    let explicit_dir = soak_dir.is_some();
    let dir = soak_dir.map_or_else(
        || std::env::temp_dir().join(format!("sf-soak-{}", std::process::id())),
        PathBuf::from,
    );
    let mut cfg = SoakConfig::new(seed, dir.clone());
    cfg.rounds = rounds;
    cfg.max_wall_secs = max_wall_secs;
    match sf_fuzz::run_soak(&cfg) {
        Ok(report) => {
            println!("sf-fuzz: soak clean (seed {seed}): {}", report.summary());
            for (kind, used, cap) in &report.high_water {
                println!(
                    "sf-fuzz: high-water {kind}: {used}{}",
                    cap.map(|c| format!(" / {c}")).unwrap_or_default()
                );
            }
            if !explicit_dir {
                let _ = std::fs::remove_dir_all(&dir);
            }
            ExitCode::SUCCESS
        }
        Err(violation) => {
            eprintln!("sf-fuzz: SOAK VIOLATION (seed {seed}): {violation}");
            eprintln!(
                "sf-fuzz: store state preserved at {} for inspection",
                dir.display()
            );
            ExitCode::from(1)
        }
    }
}

/// Everything the command line asks for; an `Err` is a usage error, and
/// every value is checked before any mode starts.
fn run(argv: Vec<String>) -> Result<ExitCode, String> {
    let args = cli::parse(argv, TABLES)?;
    let seeds = seeds(&args)?;
    let max_wall_secs: u64 = args.number(&MAX_WALL_SECS)?.unwrap_or(0);
    let soak_rounds = args.number(&SOAK_ROUNDS)?.unwrap_or(0);
    let emit_hostile = args
        .value(&EMIT_HOSTILE)
        .map(|v| Archetype::from_name(v).ok_or_else(|| format!("unknown archetype `{v}`")))
        .transpose()?;

    if let Some(archetype) = emit_hostile {
        print!("{}", sf_fuzz::hostile::source(archetype));
        return Ok(ExitCode::SUCCESS);
    }
    if args.has(&HOSTILE) {
        return Ok(run_hostile());
    }
    if args.has(&SOAK) {
        let seed = seeds.first().copied().unwrap_or(1);
        return Ok(run_soak_cli(seed, soak_rounds, max_wall_secs, args.value(&SOAK_DIR)));
    }
    if seeds.is_empty() {
        return Err("no seeds given (use --seed or --seed-range)".into());
    }
    let repro_dir = Path::new(args.value(&REPRO_DIR).unwrap_or("tests/repros"));

    // `--temporal` switches both the corpus (every program carries a host
    // time loop) and the oracle (the `temporal-*` checks).
    let cfg = if args.has(&TEMPORAL) {
        GenConfig::temporal()
    } else {
        GenConfig::default()
    };
    let opts = OracleOptions {
        noise: args.has(&NOISE),
        cache: args.has(&CACHE),
        islands: args.has(&ISLANDS),
        devices: args.has(&DEVICES),
        temporal: args.has(&TEMPORAL),
    };
    let start = Instant::now();
    let mut checked = 0usize;
    let mut failures = 0usize;
    let mut capped = false;
    for &seed in &seeds {
        // The wall cap stops *launching* new seeds; a seed in flight always
        // finishes, so the corpus prefix that did run is deterministic
        // per seed even under the cap.
        if max_wall_secs > 0 && start.elapsed().as_secs() >= max_wall_secs {
            capped = true;
            break;
        }
        checked += 1;
        let Some((failure, small)) = fuzz_seed_with(seed, &cfg, opts) else {
            continue;
        };
        failures += 1;
        eprintln!("seed {seed}: FAIL [{}] {}", failure.check, failure.detail);
        match sf_fuzz::write_repro(
            repro_dir,
            seed,
            failure.check,
            &failure.detail,
            &small,
            failure.plan_json.as_deref(),
        ) {
            Ok(paths) => eprintln!("seed {seed}: reproducer written to {}", paths.source.display()),
            Err(e) => eprintln!("seed {seed}: could not write reproducer: {e}"),
        }
    }

    let skipped = seeds.len() - checked;
    println!(
        "sf-fuzz: {checked} seed(s) checked, {failures} failure(s){}",
        if capped {
            format!(", {skipped} skipped (wall cap)")
        } else {
            String::new()
        }
    );
    Ok(if failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    run(std::env::args().skip(1).collect()).unwrap_or_else(|e| usage_error(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Parsed {
        cli::parse(s.iter().map(|s| s.to_string()), TABLES).unwrap()
    }

    fn run_err(s: &[&str]) -> String {
        run(s.iter().map(|s| s.to_string()).collect()).unwrap_err()
    }

    #[test]
    fn parses_seeds_and_ranges() {
        let a = parse(&["--seed", "7", "--seed-range", "0..3"]);
        assert_eq!(seeds(&a).unwrap(), vec![7, 0, 1, 2]);
        let a = parse(&["--seed-range", "0..3", "--seed", "7"]);
        assert_eq!(seeds(&a).unwrap(), vec![0, 1, 2, 7], "command-line order");
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(run_err(&[]), "no seeds given (use --seed or --seed-range)");
        assert_eq!(run_err(&["--seed"]), "missing value for --seed");
        assert_eq!(run_err(&["--seed", "x"]), "bad seed `x`");
        assert_eq!(run_err(&["--seed-range", "5..5"]), "empty range `5..5`");
        assert_eq!(run_err(&["--frobnicate"]), "unknown argument `--frobnicate`");
        assert_eq!(run_err(&["stray"]), "unknown argument `stray`");
        // sf-fuzz has no --help: its usage is what every error prints.
        assert_eq!(run_err(&["--help"]), "unknown argument `--help`");
        // A bad value is an error whichever mode would have read it.
        assert_eq!(run_err(&["--seed", "1", "--soak-rounds", "x"]), "bad round count `x`");
        assert_eq!(run_err(&["--hostile", "--max-wall-secs", "-1"]), "bad duration `-1`");
    }

    #[test]
    fn parses_noise_flag() {
        assert!(parse(&["--seed", "1", "--noise"]).has(&NOISE));
        assert!(!parse(&["--seed", "1"]).has(&NOISE));
    }

    #[test]
    fn parses_cache_flag() {
        assert!(parse(&["--seed", "1", "--cache"]).has(&CACHE));
        assert!(!parse(&["--seed", "1"]).has(&CACHE));
    }

    #[test]
    fn parses_islands_flag() {
        assert!(parse(&["--seed", "1", "--islands"]).has(&ISLANDS));
        assert!(!parse(&["--seed", "1"]).has(&ISLANDS));
    }

    #[test]
    fn parses_devices_flag() {
        assert!(parse(&["--seed", "1", "--devices"]).has(&DEVICES));
        assert!(!parse(&["--seed", "1"]).has(&DEVICES));
    }

    #[test]
    fn parses_temporal_flag() {
        assert!(parse(&["--seed", "1", "--temporal"]).has(&TEMPORAL));
        assert!(!parse(&["--seed", "1"]).has(&TEMPORAL));
    }

    #[test]
    fn parses_hostile_and_soak_modes() {
        assert!(parse(&["--hostile"]).has(&HOSTILE));
        let a = parse(&["--emit-hostile", "deep-chain"]);
        assert_eq!(a.value(&EMIT_HOSTILE).and_then(Archetype::from_name), Some(Archetype::DeepChain));
        assert_eq!(run_err(&["--emit-hostile", "nope"]), "unknown archetype `nope`");
        let a = parse(&[
            "--soak",
            "--seed",
            "9",
            "--soak-rounds",
            "4",
            "--soak-dir",
            "/tmp/soak",
            "--max-wall-secs",
            "300",
        ]);
        assert!(a.has(&SOAK));
        assert_eq!(a.number::<usize>(&SOAK_ROUNDS), Ok(Some(4)));
        assert_eq!(a.value(&SOAK_DIR), Some("/tmp/soak"));
        // The soak/hostile modes do not require seeds.
        assert_eq!(seeds(&parse(&["--soak"])), Ok(vec![]));
    }

    #[test]
    fn parses_cap_and_dir() {
        let a = parse(&["--seed", "1", "--repro-dir", "/tmp/x", "--max-wall-secs", "60"]);
        assert_eq!(a.number::<u64>(&MAX_WALL_SECS), Ok(Some(60)));
        assert_eq!(a.value(&REPRO_DIR), Some("/tmp/x"));
    }

    /// The accepted flag set is the parent's, every flag is documented in
    /// the generated usage, and every flag parses with a sample value.
    #[test]
    fn the_option_table_is_the_whole_surface() {
        let parent = [
            "--seed",
            "--seed-range",
            "--repro-dir",
            "--max-wall-secs",
            "--noise",
            "--cache",
            "--islands",
            "--devices",
            "--temporal",
            "--hostile",
            "--emit-hostile",
            "--soak",
            "--soak-rounds",
            "--soak-dir",
        ];
        assert_eq!(FUZZ.iter().map(|o| o.flag).collect::<Vec<_>>(), parent);
        let usage = cli::usage(SYNOPSIS, TABLES, "");
        for opt in FUZZ {
            let head = format!("  {} {}", opt.flag, opt.value.unwrap_or_default());
            assert!(usage.contains(head.trim_end()), "{} undocumented:\n{usage}", opt.flag);
            let argv: Vec<&str> = [opt.flag].into_iter().chain(opt.value.map(|_| "1")).collect();
            assert!(parse(&argv).has(opt), "{} does not parse", opt.flag);
        }
        for archetype in ARCHETYPES {
            assert!(usage.contains(archetype.name()), "{} not listed", archetype.name());
        }
    }
}
