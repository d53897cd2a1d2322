//! `sf-bench` — the paper's evaluation as one checked binary.
//!
//! ```sh
//! sf-bench paper <experiment|all> [--scale test|full] [--device NAME]
//! sf-bench inspect APP [--kernel K] [--scale test|full] [--device NAME]
//! ```
//!
//! `paper` runs experiments (the list is `sf_bench::paper::EXPERIMENTS`;
//! `--help` prints it) and checks their shape claims. `inspect` runs one
//! application analog through the full framework and dumps what the
//! programmer would look at in guided mode: stage reports, group
//! structure, fallbacks, the hottest transformed kernels, and optionally
//! the generated source of one kernel.
//!
//! Exit codes: 0 every gated claim holds; 1 a gated claim broke (stderr
//! names the experiment, the claim and the cell); 2 usage error.

use sf_bench::paper::EXPERIMENTS;
use sf_bench::{Harness, Scale, Variant};
use sf_gpusim::DeviceRegistry;
use std::fmt::Display;
use stencilfuse::cli::{self, Opt};

stencilfuse::option_table! {
    /// The flags of both subcommands.
    BENCH {
        SCALE = Opt::valued("--scale", "test|full", "scale",
            "the test suite's analogs or the paper-sized ones\n\
             (default full; only full writes results/)");
        DEVICE = Opt::valued("--device", "NAME", "device",
            "device from the registry (default k20x); `port`\n\
             ports from it, `temporal` sweeps every device");
        KERNEL = Opt::valued("--kernel", "K", "kernel",
            "inspect: also print transformed kernel K's source");
    }
}
const TABLES: &[&[Opt]] = &[BENCH, &[cli::HELP]];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    let footer = format!(
        "\nexperiments (or `all`: every one, in this order):\n  {}\n",
        names.join(" ")
    );
    cli::usage(
        "sf-bench paper EXPERIMENT [options]\n       sf-bench inspect APP [options]",
        TABLES,
        &footer,
    )
}

/// The command line is wrong: say so, print the usage, exit 2.
fn usage_error(message: impl Display) -> ! {
    eprintln!("sf-bench: {message}\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let args = cli::parse(std::env::args().skip(1), TABLES).unwrap_or_else(|e| usage_error(e));
    if args.has(&cli::HELP) {
        print!("{}", usage());
        return;
    }
    let scale = match args.value(&SCALE) {
        None | Some("full") => Scale::Full,
        Some("test") => Scale::Test,
        Some(v) => usage_error(format_args!("bad scale `{v}` (test or full)")),
    };
    let device = DeviceRegistry::builtin()
        .resolve(args.value(&DEVICE).unwrap_or("k20x"))
        .unwrap_or_else(|e| usage_error(e));
    let harness = Harness::new(scale, device);
    match args.positionals().collect::<Vec<_>>()[..] {
        ["paper", name] if !args.has(&KERNEL) => paper(&harness, name),
        ["inspect", app] => inspect(&harness, app, args.value(&KERNEL)),
        _ => usage_error("expected `paper EXPERIMENT` or `inspect APP [--kernel K]`"),
    }
}

/// Run the named experiment (or all), print each one's claims, and exit 1
/// naming every broken gated claim.
fn paper(harness: &Harness, name: &str) {
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| name == "all" || e.0 == name)
        .collect();
    if selected.is_empty() {
        usage_error(format_args!("unknown experiment `{name}`"));
    }
    let mut broken = Vec::new();
    for (name, experiment) in selected {
        let mut claims = experiment(harness);
        let unverified = harness.take_unverified();
        claims.gate(
            "every compile verifies",
            &unverified,
            |_| false,
            String::clone,
        );
        println!("\n{}", claims.report());
        broken.extend(claims.verdict(name).err().into_iter().flatten());
    }
    for line in &broken {
        eprintln!("sf-bench: {line}");
    }
    if !broken.is_empty() {
        std::process::exit(1);
    }
}

fn inspect(harness: &Harness, name: &str, kernel: Option<&str>) {
    let app = sf_apps::app_by_name(name, &harness.apps).unwrap_or_else(|| {
        usage_error(format_args!(
            "unknown app `{name}` (scale-les, homme, fluam, mitgcm, awp-odc, bcalm)"
        ))
    });
    let run = harness.run(&app, Variant::Full);
    let r = &run.result;
    for rep in &r.reports {
        print!("{rep}");
    }
    if let Some(t) = &r.transform {
        println!("=== fusion groups ===");
        for rep in &t.reports {
            let staged: Vec<_> = rep
                .staged
                .iter()
                .map(|s| (s.array.as_str(), s.flow, s.rx, s.ry))
                .collect();
            println!(
                "  members {:?}: merged={} complex={} smem={}B staged={staged:?}",
                rep.members, rep.merged, rep.complex, rep.smem_bytes
            );
        }
        for d in t.unfused() {
            println!("  fallback group {}: {}", d.group, d.reason);
        }
    }
    if let Some(prof) = &r.transformed_profile {
        println!("=== hottest transformed kernels ===");
        let mut rows: Vec<_> = prof.metadata.perf.iter().collect();
        rows.sort_by(|a, b| b.runtime_us.total_cmp(&a.runtime_us));
        for p in rows.iter().take(10) {
            println!(
                "  {:>9.1}us occ {:.2} dram {:>8.2}MB div {:>6}  {}",
                p.runtime_us,
                p.occupancy,
                (p.dram_read_bytes + p.dram_write_bytes) as f64 / 1e6,
                p.divergent_evals,
                p.kernel
            );
        }
    }
    if let Some(kname) = kernel {
        match r.program.kernel(kname) {
            Some(k) => println!("{}", sf_minicuda::printer::print_kernel(k)),
            None => eprintln!("no kernel `{kname}` in the transformed program"),
        }
    }
    let verified = r.verification.as_ref().map(|v| v.passed());
    println!("speedup {:.3}x verified={verified:?}", r.speedup);
}
