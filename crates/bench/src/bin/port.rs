//! Cross-device plan portability study (the registry arc's benchmark):
//! how expensive is porting a K20X-optimal transform plan to each other
//! registry device compared to searching that device from scratch, and how
//! much does the unmodified K20X plan lose if projected on the target
//! as-is (the mistake the device-mismatch rejection exists to prevent)?
//!
//! For mitgcm and awp-odc:
//! - search K20X from scratch and keep the winning plan;
//! - for every other registry device: search from scratch (the reference),
//!   then re-run the search seeded with the K20X plan's raised genome under
//!   a hard `max_evaluations = scratch/3` budget (`sfc --port-plan`);
//! - record both eval budgets, the projected-GFLOPS gap between the ported
//!   and from-scratch plans, and the projected slowdown of replaying the
//!   K20X grouping unmodified.
//!
//! Appends the machine-readable record to `results/BENCH_port.json`.

use sf_analysis::filter::{identify_targets, FilterConfig};
use sf_bench::bench_search;
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_gpusim::DeviceRegistry;
use sf_minicuda::host::ExecutablePlan;
use sf_search::objective::projected_time_us;
use sf_search::{raise_plan, search, search_islands, IslandOptions, SearchSpace};
use serde_json::json;

/// Build the search space for one app on one device.
fn space_for(app: &sf_apps::App, device: DeviceSpec) -> SearchSpace {
    let plan = ExecutablePlan::from_program(&app.program).expect("app plan");
    let profile = Profiler::new(device.clone())
        .profile_with_plan(&app.program, &plan)
        .expect("profile");
    let decisions = identify_targets(
        &profile.metadata.perf,
        &profile.metadata.ops,
        &profile.metadata.device,
        &FilterConfig::default(),
    );
    SearchSpace::build(&app.program, &plan, &profile, &decisions, device).expect("space")
}

fn main() {
    let cfg = sf_bench::app_config_from_args();
    let registry = DeviceRegistry::builtin();
    let source = registry.resolve("k20x").expect("k20x is built in");
    let search_cfg = bench_search();

    println!(
        "plan-port cost vs from-scratch search (source device {})",
        source.name
    );
    println!(
        "{:<9} {:<8} {:>10} {:>9} {:>7} {:>10} {:>10} {:>9}",
        "app", "target", "scratch_ev", "port_ev", "ratio", "scratch_gf", "port_gf", "unmod_dt"
    );

    let mut rows = Vec::new();
    for app_name in ["mitgcm", "awpodc"] {
        let app = sf_apps::app_by_name(app_name, &cfg).expect("known app");
        let src_space = space_for(&app, source.clone());
        let src_result = search(&src_space, &search_cfg);
        let src_plan = &src_result.plan;

        for target in registry.devices() {
            if target.fingerprint() == source.fingerprint() {
                continue;
            }
            let space = space_for(&app, target.clone());

            // Reference: from-scratch search on the target device.
            let scratch = search(&space, &search_cfg);

            // Unmodified projection: the K20X grouping raised onto the
            // target space and projected as-is, no re-tuning.
            let raised = raise_plan(&space, src_plan);
            let unmod_us = projected_time_us(&space, &raised);
            let scratch_us = projected_time_us(&space, &scratch.best);
            let unmod_loss_pct = 100.0 * (unmod_us / scratch_us.max(1e-9) - 1.0);

            // Port: seeded search under a hard third of the scratch budget.
            let mut port_cfg = search_cfg.clone().for_port();
            port_cfg.max_evaluations = (scratch.evaluations / 3).max(1);
            let opts = IslandOptions {
                seeds: vec![raised],
                ..IslandOptions::default()
            };
            let port = search_islands(&space, &port_cfg, &opts).result;

            let eval_ratio = port.evaluations as f64 / scratch.evaluations.max(1) as f64;
            let gflops_ratio = port.best_gflops / scratch.best_gflops.max(1e-9);
            println!(
                "{:<9} {:<8} {:>10} {:>9} {:>7.3} {:>10.1} {:>10.1} {:>8.1}%",
                app.paper.name,
                target.name,
                scratch.evaluations,
                port.evaluations,
                eval_ratio,
                scratch.best_gflops,
                port.best_gflops,
                unmod_loss_pct,
            );
            assert!(
                eval_ratio <= 1.0 / 3.0 + 1e-9,
                "port budget exceeded a third of scratch"
            );
            rows.push(json!({
                "app": app.paper.name,
                "source_device": source.name,
                "target_device": target.name,
                "scratch_evaluations": scratch.evaluations,
                "port_evaluations": port.evaluations,
                "eval_ratio": eval_ratio,
                "scratch_gflops": scratch.best_gflops,
                "port_gflops": port.best_gflops,
                "port_vs_scratch": gflops_ratio,
                "port_within_5pct": gflops_ratio >= 0.95,
                "scratch_projected_us": scratch_us,
                "unmodified_projected_us": unmod_us,
                "unmodified_loss_pct": unmod_loss_pct,
            }));
        }
    }
    println!();
    println!(
        "shape checks: the seeded port spends at most a third of the \
         from-scratch evaluation budget and still projects within 5% of \
         the from-scratch plan on every target; replaying the K20X plan \
         unmodified forfeits the difference the port recovers."
    );
    sf_bench::write_results("BENCH_port", &json!({ "rows": rows }));
}
