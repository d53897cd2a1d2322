#![warn(missing_docs)]
//! # sf-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation section (§6). The compiler's own speed is measured by the
//! benchmark of record under `benchmark/`, not here.
//!
//! | binary        | reproduces |
//! |---------------|------------|
//! | `table1`      | Table 1 — application attributes and transformation effect |
//! | `table2`      | Table 2 — thread-block tuning occupancy |
//! | `fig4_5`      | Figures 4–5 — speedups per app/mode/device |
//! | `fig6`        | Figure 6 — SCALE-LES per-kernel runtimes, auto vs manual codegen |
//! | `fig7`        | Figure 7 — HOMME per-kernel runtimes / divergence gap |
//! | `fig8`        | Figure 8 — automated vs manual target filtering |
//! | `convergence` | §6.1.2/§6.2.2 — GA convergence with/without filtering |
//! | `smoke`       | quick end-to-end sanity run over all six apps |
//!
//! Each binary prints the rows/series the paper reports and appends a
//! machine-readable JSON record under `results/`.

use sf_analysis::filter::FilterConfig;
use sf_apps::App;
use sf_gpusim::device::DeviceSpec;
use stencilfuse::{Interventions, Pipeline, PipelineConfig, TransformResult};

/// Which transformation variant to run — the bar groups of Figures 4–5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
}

impl Variant {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Fusion => "fusion",
            Variant::FissionFusion => "fission+fusion",
            Variant::Full => "fission+fusion+tuning",
            Variant::Manual => "manual",
            Variant::Guided => "guided",
        }
    }

    /// All automated variants.
    pub const AUTOMATED: [Variant; 3] = [Variant::Fusion, Variant::FissionFusion, Variant::Full];
}

/// Benchmark-quality search budget: heavier than `SearchConfig::quick`, far
/// lighter than the paper's 500×100 (the projection objective converges on
/// our app sizes well before that; the convergence binary measures this).
pub fn bench_search() -> sf_search::SearchConfig {
    sf_search::SearchConfig {
        population: 60,
        generations: 240,
        stagnation_window: 60,
        ..sf_search::SearchConfig::default()
    }
}

/// Build the pipeline configuration for a variant.
pub fn variant_config(variant: Variant, device: DeviceSpec) -> PipelineConfig {
    let base = PipelineConfig {
        search: bench_search(),
        ..PipelineConfig::automated(device)
    };
    match variant {
        Variant::Fusion => base.without_fission().without_tuning(),
        Variant::FissionFusion => base.without_tuning(),
        Variant::Full => base,
        Variant::Manual => base.manual_oracle().without_fission().without_tuning(),
        Variant::Guided => {
            let mut c = base.manual_oracle();
            c.filter = FilterConfig {
                detect_latency_bound: true,
                ..FilterConfig::default()
            };
            c
        }
    }
}

/// Run one app under one variant.
pub fn run_variant(app: &App, variant: Variant, device: DeviceSpec) -> TransformResult {
    let cfg = variant_config(variant, device);
    let pipeline = Pipeline::new(app.program.clone(), cfg).expect("valid app program");
    pipeline
        .run_with(&Interventions::default())
        .expect("pipeline completes")
}

/// Assert-and-report helper: marks a measured value against an expectation.
pub fn check(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "MISMATCH"
    }
}

/// Write a JSON record to `results/<name>.json`.
pub fn write_results(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.json"));
    if let Ok(text) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, text);
        eprintln!("[results written to {}]", path.display());
    }
}

/// Parse `--scale test|full` style flags (default full).
pub fn app_config_from_args() -> sf_apps::AppConfig {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--scale=test" || a == "test") {
        sf_apps::AppConfig::test()
    } else {
        sf_apps::AppConfig::full()
    }
}

/// Parse an optional `--device NAME` flag (default K20X), resolved
/// case-insensitively through the device registry. An unknown name aborts
/// with the registry's available-device listing — the same error path the
/// `sfc`/`sfd` binaries use — instead of silently falling back.
pub fn device_from_args() -> DeviceSpec {
    let args: Vec<String> = std::env::args().collect();
    let registry = sf_gpusim::DeviceRegistry::builtin();
    let mut name: Option<String> = None;
    for (i, a) in args.iter().enumerate() {
        if a == "--device" {
            name = args.get(i + 1).cloned();
        }
        if let Some(n) = a.strip_prefix("--device=") {
            name = Some(n.to_string());
        }
    }
    match name {
        Some(n) => registry.resolve(&n).unwrap_or_else(|e| {
            eprintln!("bench: {e}");
            std::process::exit(2);
        }),
        None => DeviceSpec::k20x(),
    }
}

/// Verify a result and panic with context if the transformed program is not
/// output-equivalent (the paper verifies every run).
pub fn require_verified(app: &App, r: &TransformResult) {
    if let Some(v) = &r.verification {
        assert!(
            v.passed(),
            "{}: verification failed ({})",
            app.paper.name,
            v.failure().unwrap_or_else(|| "unknown".into())
        );
    }
}

// ---------------------------------------------------------------------
// Shared logic for the per-kernel auto-vs-manual comparisons (Figs 6–7).
// ---------------------------------------------------------------------

use sf_codegen::{transform_program, CodegenMode, TransformPlan};
use sf_gpusim::profiler::Profiler;
use sf_minicuda::host::ExecutablePlan;
use serde_json::json;
use stencilfuse::verify_equivalence;

/// Run one app's fusion plan through both code generators and print the
/// per-fused-kernel runtime comparison (Figures 6 and 7).
pub fn per_kernel_compare(app_name: &str, out_name: &str) {
    let cfg = app_config_from_args();
    let device = device_from_args();
    let app = sf_apps::app_by_name(app_name, &cfg).expect("known app");
    // One search (automated settings) fixes the fusion plan for both modes.
    let r = run_variant(&app, Variant::FissionFusion, device.clone());
    let groups = r.search.as_ref().expect("search ran").plan.groups.clone();
    let plan = ExecutablePlan::from_program(&app.program).expect("app plan");

    let mut rows = Vec::new();
    println!(
        "Figure {} style: per-kernel runtime of new {} kernels ({})",
        if out_name == "fig6" { "6" } else { "7" },
        app.paper.name,
        device.name
    );
    println!(
        "{:<12} {:>12} {:>12} {:>8}  members",
        "kernel", "auto(us)", "manual(us)", "ratio"
    );
    let mut profiles = Vec::new();
    for mode in [CodegenMode::Auto, CodegenMode::Manual] {
        let tplan = TransformPlan::new(device.clone(), mode, false, groups.clone());
        let out = transform_program(&app.program, &plan, &tplan).expect("codegen");
        let v = verify_equivalence(&app.program, &out.program, 99).expect("runs");
        assert!(v.passed(), "{mode:?} output mismatch: {v:?}");
        let prof = Profiler::new(device.clone())
            .profile(&out.program)
            .expect("profile");
        profiles.push((out, prof));
    }
    let (auto_out, auto_prof) = &profiles[0];
    let (_, manual_prof) = &profiles[1];

    // Pair fused kernels by name (same groups → same fused_<gi> naming).
    let mut total_auto = 0.0;
    let mut total_manual = 0.0;
    for ap in &auto_prof.metadata.perf {
        if !ap.kernel.starts_with("fused_") {
            continue;
        }
        let Some(mp) = manual_prof
            .metadata
            .perf
            .iter()
            .find(|m| m.kernel == ap.kernel)
        else {
            continue;
        };
        let gi: usize = ap.kernel.trim_start_matches("fused_").parse().unwrap_or(0);
        let members: Vec<String> = groups
            .get(gi)
            .map(|g| {
                g.members
                    .iter()
                    .map(|m| {
                        let base = plan.launches[m.seq].kernel.clone();
                        match m.fission_component {
                            Some(c) => format!("{base}.f{c}"),
                            None => base,
                        }
                    })
                    .collect()
            })
            .unwrap_or_default();
        total_auto += ap.runtime_us;
        total_manual += mp.runtime_us;
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>8.2}  {}",
            ap.kernel,
            ap.runtime_us,
            mp.runtime_us,
            ap.runtime_us / mp.runtime_us.max(1e-9),
            members.join("+")
        );
        rows.push(json!({
            "kernel": ap.kernel,
            "auto_us": ap.runtime_us,
            "manual_us": mp.runtime_us,
            "members": members,
            "auto_divergent_evals": ap.divergent_evals,
            "manual_divergent_evals": mp.divergent_evals,
        }));
    }
    println!(
        "total fused-kernel runtime: auto {:.1}us manual {:.1}us (manual/auto {:.1}%)",
        total_auto,
        total_manual,
        100.0 * total_manual / total_auto.max(1e-9)
    );
    let fallback_groups: Vec<usize> = auto_out
        .reports
        .iter()
        .enumerate()
        .filter(|(_, rep)| !rep.merged)
        .map(|(i, _)| i)
        .collect();
    println!(
        "auto-mode groups concatenated without merging (the gap contributors): {:?}",
        fallback_groups
    );
    write_results(
        out_name,
        &json!({
            "app": app.paper.name,
            "device": device.name,
            "total_auto_us": total_auto,
            "total_manual_us": total_manual,
            "rows": rows,
        }),
    );
}
