//! The stencilfuse benchmark of record. See `README.md` beside this crate.
//!
//! ```text
//! sf-benchmark --workload W --seed N --seconds S --trace 0|1   one workload (what the driver runs)
//! sf-benchmark run [--seed N] [--seconds S] [--trace]          every workload, one child process each
//! sf-benchmark check-agreement [A.json B.json]                 two runs of the same code must agree
//! ```

mod compile;
mod inputs;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{Better, END_TO_END, WORKLOADS};
use serde_json::{json, Map, Value};
use stats::{fastest, max, median, tail};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Ops, Pass};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 28.0;
/// Timed passes never drop below this, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// A traced run alternates this many times between two untraced and two
/// staged passes.
const TRACED_ROUNDS: usize = 10;
/// Set-up is repeated this often at least, and until the budget is spent.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 0.5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("check-agreement") => check_agreement(&args[1..]),
        Some(_) => run_one(&args),
        None => Err(usage()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("sf-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: sf-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         sf-benchmark run [--seed N] [--seconds S] [--trace]\n       \
         sf-benchmark check-agreement [FIRST.json SECOND.json] [--seed N] [--seconds S]",
        names.join("|")
    )
}

/// `--name value` flags, and the words that are not flags.
struct Flags {
    named: BTreeMap<String, String>,
    words: Vec<String>,
}

fn parse_flags(args: &[String], switches: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags {
        named: BTreeMap::new(),
        words: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(name) if switches.contains(&name) => {
                flags.named.insert(name.to_string(), "1".to_string());
            }
            Some(name) => {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.named.insert(name.to_string(), value.clone());
            }
            None => flags.words.push(arg.clone()),
        }
    }
    Ok(flags)
}

impl Flags {
    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.named.get(name) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: `{text}` is not a number")),
            None => Ok(default),
        }
    }
}

/// `benchmark/out`, beside the crate: the only place the benchmark writes.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// One workload in this process.
// ---------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Outputs must not change between passes of one seed.
fn same_bytes(ops: &mut Ops, first: &Pass, later: &Pass, what: &str) {
    for (name, out) in &later.outputs {
        if first.outputs.get(name).is_some_and(|f| f != out) {
            ops.fail(format!("{name}: plan or output bytes differ {what}"));
        }
    }
}

fn sample_row(value: f64, unit: &str, samples: &[f64]) -> Value {
    let mut row = json!({
        "value": value,
        "unit": unit,
        "n": samples.len(),
        "median": median(samples),
        "max": max(samples),
    });
    if let Some((percent, at)) = tail(samples) {
        row["tail_percent"] = json!(percent);
        row["tail"] = json!(at);
    }
    row
}

fn run_one(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &[])?;
    let name = flags.named.get("workload").ok_or_else(usage)?.clone();
    let seed: u64 = flags.number("seed", inputs::DEFAULT_SEED)?;
    let seconds: f64 = flags.number("seconds", DEFAULT_SECONDS)?;
    let traced = flags.number::<u8>("trace", 0)? != 0;

    let out = out_dir();
    let scratch = out.join(format!("tmp-{}", std::process::id()));
    let mut workload = workloads::by_name(&name, scratch.clone(), traced)
        .ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))?;
    let mut stamp = json!({
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "nproc": workloads::nproc(),
        "rustc": command_line("rustc", &["--version"]),
        "git_revision": command_line("git", &["rev-parse", "HEAD"]),
    });

    let mut ops = Ops::default();
    let measured = if traced {
        run_traced(workload.as_mut(), &name, seed, &mut ops, &out)
    } else {
        run_untraced(workload.as_mut(), seed, seconds, &mut ops)
    };
    // The warm service workload holds a driver over a store in there.
    drop(workload);
    let _ = std::fs::remove_dir_all(&scratch);
    let (metrics, detail) = measured?;

    for failure in &ops.failures {
        eprintln!("sf-benchmark: FAILED {failure}");
    }
    let failed = (ops.failures.len() as u64).min(ops.attempted);
    let line = json!({
        "correct": ops.failures.is_empty(),
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": metrics,
    });
    stamp["result"] = line.clone();
    stamp["detail"] = detail;
    stamp["failures"] = json!(ops.failures);
    let suffix = if traced { "-trace" } else { "" };
    write_json(&out.join(format!("result-{name}{suffix}.json")), &stamp)?;
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(())
}

type Measured = (Map, Value);

fn run_untraced(
    workload: &mut dyn workloads::Workload,
    seed: u64,
    seconds: f64,
    ops: &mut Ops,
) -> Result<Measured, String> {
    // Set-up is cheap next to a pass, so one sample of it would be mostly
    // noise: it is repeated before the first pass (the same seed gives
    // the same inputs) and its median reported.
    let mut setup = Vec::new();
    let begun = Instant::now();
    while setup.len() < MIN_SETUPS || begun.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let start = Instant::now();
        workload.setup(seed)?;
        setup.push(start.elapsed().as_secs_f64());
    }

    // Only the first pass's outputs are kept: later passes are compared
    // with them and dropped, so peak_rss_mb does not grow with the run.
    let mut first: Option<Pass> = None;
    let mut pass_walls = Vec::new();
    let mut by_component: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let begun = Instant::now();
    while pass_walls.len() < MIN_PASSES || begun.elapsed().as_secs_f64() < seconds {
        let pass = workload.pass(ops);
        pass_walls.push(pass.wall());
        for (component, wall) in &pass.walls {
            by_component
                .entry(component.clone())
                .or_default()
                .push(*wall);
        }
        match &first {
            Some(first) => same_bytes(ops, first, &pass, "between passes"),
            None => first = Some(pass),
        }
    }
    let first = first.expect("at least one pass ran");
    workload.check(ops, &first);

    // Sum over the pass's components (one compile, or one batch) of each
    // component's fastest sample. The host's speed moves by tens of per
    // cent from second to second and nothing ever runs faster than on a
    // quiet machine, so the floor is what a code change moves and what
    // repeats from run to run; the median and the tail are reported
    // beside it.
    let compile_s: f64 = by_component.values().map(|s| fastest(s)).sum();
    let passes = pass_walls.len();
    let speedups: Vec<f64> = first.outputs.values().map(|o| o.speedup).collect();
    let rss = peak_rss_mb();

    let values = [
        ("compile_s", compile_s, pass_walls),
        ("projected_speedup", geometric_mean(&speedups), speedups),
        ("peak_rss_mb", rss, vec![rss]),
        ("setup_s", median(&setup), setup),
    ];
    let mut metrics = Map::new();
    let mut rows = Map::new();
    for ((name, unit, _, _), (value_name, value, samples)) in END_TO_END.iter().zip(values) {
        assert_eq!(*name, value_name, "metric table order");
        metrics.insert(name.to_string(), json!({ "value": value, "unit": unit }));
        rows.insert(name.to_string(), sample_row(value, unit, &samples));
    }
    let components: Vec<Value> = by_component
        .iter()
        .map(|(component, samples)| {
            let mut row = sample_row(fastest(samples), "s", samples);
            row["component"] = json!(component);
            row["samples"] = json!(samples);
            if let Some(out) = first.outputs.get(component) {
                row["projected_speedup"] = json!(out.speedup);
                row["output_bytes"] = json!(out.output.len());
            }
            row
        })
        .collect();
    let detail = json!({
        "passes": passes,
        "plans_per_s": first.outputs.len() as f64 / compile_s,
        "metrics": rows,
        "components": components,
    });
    Ok((metrics, detail))
}

fn run_traced(
    workload: &mut dyn workloads::Workload,
    name: &str,
    seed: u64,
    ops: &mut Ops,
    out: &Path,
) -> Result<Measured, String> {
    workload.setup(seed)?;
    // A pass takes a fraction of a second, and one sample of it is mostly
    // the host's noise: untraced and staged passes alternate and the
    // fastest of each is reported. Each runs twice back to back, so that
    // one of the two starts on caches its own kind left warm, as every
    // pass of the untraced run but the first does.
    let mut fastest_untraced: Option<Pass> = None;
    let mut fastest_traced: Option<(Pass, trace::Tracer)> = None;
    for _ in 0..TRACED_ROUNDS {
        for _ in 0..2 {
            let pass = workload.pass(ops);
            if fastest_untraced
                .as_ref()
                .is_none_or(|best| pass.wall() < best.wall())
            {
                fastest_untraced = Some(pass);
            }
        }
        let untraced = fastest_untraced.as_ref().expect("a pass just ran");
        for _ in 0..2 {
            let mut tr = trace::Tracer::new();
            let pass = workload.traced_pass(&mut tr, ops);
            // The equivalence guard: the staged sequence must have
            // compiled the same program to the same bytes, or its spans
            // describe something else.
            ops.attempted += 1;
            if pass.outputs.len() != untraced.outputs.len() {
                ops.fail("the traced pass lost or gained outputs");
            }
            same_bytes(
                ops,
                untraced,
                &pass,
                "between Pipeline::run and the staged sequence",
            );
            if fastest_traced
                .as_ref()
                .is_none_or(|(best, _)| pass.wall() < best.wall())
            {
                fastest_traced = Some((pass, tr));
            }
        }
    }
    let untraced = fastest_untraced.expect("at least one round ran");
    let (traced, tr) = fastest_traced.expect("at least one round ran");

    let operations = untraced.outputs.len().max(1) as f64;
    let layer_time = metrics::layer_seconds(&tr);
    let mut values = metrics::from_trace(&tr, traced.wall());
    values.insert(
        "core.pipeline.other_s".into(),
        (untraced.wall() - layer_time) / operations,
    );
    values.insert(
        "trace.overhead_share".into(),
        (traced.wall() - untraced.wall()) / untraced.wall().max(1e-12),
    );
    values.extend(workload.compare(&untraced));

    let mut metrics = Map::new();
    for (metric, unit, _) in metrics::per_layer() {
        let value = values.get(&metric).copied().unwrap_or(0.0);
        metrics.insert(metric, json!({ "value": value, "unit": unit }));
    }
    let mut trace_file = tr.to_json();
    trace_file["workload"] = json!(name);
    trace_file["seed"] = json!(seed);
    write_json(&out.join(format!("trace-{name}.json")), &trace_file)?;
    let detail = json!({
        "passes": 2 * TRACED_ROUNDS,
        "untraced_pass_s": untraced.wall(),
        "traced_pass_s": traced.wall(),
    });
    Ok((metrics, detail))
}

// ---------------------------------------------------------------------
// `run`: every workload, one child process each.
// ---------------------------------------------------------------------

/// Re-exec this binary for one workload; returns its saved result file.
fn child(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("workload {name} exited with {status}"));
    }
    let suffix = if traced { "-trace" } else { "" };
    read_json(&out_dir().join(format!("result-{name}{suffix}.json")))
}

fn run_command(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["trace"])?;
    let seed = flags.number("seed", inputs::DEFAULT_SEED)?;
    let seconds = flags.number("seconds", DEFAULT_SECONDS)?;
    let with_trace = flags.named.contains_key("trace");
    run_suite(seed, seconds, with_trace, &out_dir().join("run.json")).map(|_| ())
}

fn run_suite(seed: u64, seconds: f64, with_trace: bool, out_file: &Path) -> Result<Value, String> {
    let mut results = Map::new();
    let mut all_correct = true;
    for (name, why) in WORKLOADS {
        eprintln!("== {name}: {why}");
        let untraced = child(name, seed, seconds, false)?;
        print_workload(name, &untraced);
        all_correct &= untraced["result"]["correct"].as_bool() == Some(true);
        let mut entry = json!({ "untraced": untraced });
        if with_trace {
            let traced = child(name, seed, seconds, true)?;
            print_layers(&traced);
            all_correct &= traced["result"]["correct"].as_bool() == Some(true);
            entry["traced"] = traced;
        }
        results.insert(name.to_string(), entry);
    }
    let run = json!({ "seed": seed, "seconds": seconds, "workloads": results });
    write_json(out_file, &run)?;
    eprintln!("[results written to {}]", out_file.display());
    if all_correct {
        Ok(run)
    } else {
        Err("at least one operation failed; see the FAILED lines above".into())
    }
}

fn print_workload(name: &str, result: &Value) {
    let line = &result["result"];
    println!(
        "{name}  seed {}  {} passes  {:.3} plans/s  attempted {}  failed {}  correct {}",
        result["seed"],
        result["detail"]["passes"],
        result["detail"]["plans_per_s"].as_f64().unwrap_or(0.0),
        line["attempted"],
        line["failed"],
        line["correct"],
    );
    println!(
        "  {:<28} {:>6} {:>5} {:>12} {:>12} {:>12}",
        "metric", "unit", "n", "value", "median", "max"
    );
    for (metric, _, _, _) in END_TO_END {
        let row = &result["detail"]["metrics"][metric];
        print_row(metric, row);
    }
    for row in result["detail"]["components"]
        .as_array()
        .into_iter()
        .flatten()
    {
        let label = format!("  {}", row["component"].as_str().unwrap_or("?"));
        print_row(&label, row);
    }
}

fn print_row(label: &str, row: &Value) {
    let number = |v: &Value| v.as_f64().map(|f| format!("{f:.4}")).unwrap_or_default();
    let tail = match (row["tail_percent"].as_f64(), row["tail"].as_f64()) {
        (Some(p), Some(v)) => format!("  p{p:.0} {v:.4}"),
        _ => String::new(),
    };
    println!(
        "  {:<28} {:>6} {:>5} {:>12} {:>12} {:>12}{tail}",
        label,
        row["unit"].as_str().unwrap_or(""),
        row["n"].as_u64().unwrap_or(0),
        number(&row["value"]),
        number(&row["median"]),
        number(&row["max"]),
    );
}

fn print_layers(result: &Value) {
    println!(
        "  traced pass {:.3} s beside an untraced {:.3} s",
        result["detail"]["traced_pass_s"].as_f64().unwrap_or(0.0),
        result["detail"]["untraced_pass_s"].as_f64().unwrap_or(0.0),
    );
    for (metric, unit, _) in metrics::per_layer() {
        let value = result["result"]["metrics"][metric.as_str()]["value"]
            .as_f64()
            .unwrap_or(0.0);
        if value != 0.0 {
            println!("    {metric:<32} {value:>16.6} {unit}");
        }
    }
}

// ---------------------------------------------------------------------
// `check-agreement`: two runs of the same code must agree.
// ---------------------------------------------------------------------

fn check_agreement(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &[])?;
    let (first, second) = match flags.words.as_slice() {
        [a, b] => (read_json(Path::new(a))?, read_json(Path::new(b))?),
        [] => {
            let seed = flags.number("seed", inputs::DEFAULT_SEED)?;
            let seconds = flags.number("seconds", DEFAULT_SECONDS)?;
            let first = run_suite(seed, seconds, false, &out_dir().join("agreement-1.json"))?;
            let second = run_suite(seed, seconds, false, &out_dir().join("agreement-2.json"))?;
            (first, second)
        }
        _ => return Err(usage()),
    };

    println!(
        "{:<14} {:<18} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    let mut disagreements = 0;
    for (workload, _) in WORKLOADS {
        for (metric, _, better, bound) in END_TO_END {
            let value = |run: &Value| {
                run["workloads"][workload]["untraced"]["result"]["metrics"][metric]["value"]
                    .as_f64()
                    .ok_or_else(|| format!("{workload}/{metric} is missing from a run file"))
            };
            let (a, b) = (value(&first)?, value(&second)?);
            let higher = better == Better::Higher;
            // `+ 0.0` turns the -0.0 of two equal values into 0.0 for printing.
            let differ = stats::worsening(a, b, higher).max(stats::worsening(b, a, higher)) + 0.0;
            // `setup_s` is a median of half a second of samples, and a
            // median follows the host (README.md, Steadiness): one pair of
            // runs does not resolve it. The driver compares medians of ten
            // runs, which does.
            let resolved = metric != "setup_s";
            let verdict = match (resolved, differ > bound) {
                (false, _) => "  not gated: a median",
                (true, true) => "  DISAGREE",
                (true, false) => "",
            };
            disagreements += usize::from(resolved && differ > bound);
            println!(
                "{workload:<14} {metric:<18} {a:>12.4} {b:>12.4} {:>8.2}% {:>6.0}%{verdict}",
                100.0 * differ,
                100.0 * bound
            );
        }
    }
    if disagreements == 0 {
        Ok(())
    } else {
        Err(format!(
            "{disagreements} end-to-end metric(s) differ by more than their bound between two runs of the same code"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seconds_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = read_json(Path::new(path)).unwrap();
        assert_eq!(doc["run_seconds"].as_f64(), Some(DEFAULT_SECONDS));
        assert_eq!(doc["paths"][0].as_str(), Some("benchmark"));
    }

    #[test]
    fn flags_split_values_switches_and_words() {
        let args: Vec<String> = ["a.json", "--seed", "7", "--trace", "b.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args, &["trace"]).unwrap();
        assert_eq!(flags.words, ["a.json", "b.json"]);
        assert_eq!(flags.number("seed", 0u64), Ok(7));
        assert_eq!(flags.number("seconds", 20.0), Ok(20.0));
        assert!(flags.named.contains_key("trace"));
        assert!(parse_flags(&["--seed".to_string()], &[]).is_err());
        assert!(flags.number::<u64>("trace", 0).is_ok());
    }

    #[test]
    fn geometric_mean_averages_ratios() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
