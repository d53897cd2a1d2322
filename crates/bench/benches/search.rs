//! Search-stage throughput: the one search driver at `islands = 1` (the
//! serial GGA) vs sharded across 4 islands, on the same synthetic
//! ~50-kernel program the projection bench uses, and writes
//! `results/BENCH_search.json`.
//!
//! ## Methodology
//!
//! Both runs go through the same loop (`sf_search::search_islands`) with
//! the identical budget (same population, generations, seed, operators)
//! over the identical space; the island run shards the population across
//! 4 supervised islands that only synchronize at migration epochs. Three
//! numbers are reported:
//!
//! - `serial_wall_ms` — measured wall time of `sf_search::search`, i.e.
//!   the driver at `islands = 1`;
//! - `island_measured_wall_ms` — measured wall time of `search_islands`
//!   on *this* host, whatever its core count (on a single-core CI box the
//!   islands timeslice and this is ≈ serial);
//! - `island_critical_path_ms` — `max` of the per-island busy times
//!   reported by the search (accumulated in microseconds, so epochs
//!   shorter than a millisecond count), plus every millisecond the driver spent
//!   outside the islands (migration, canonical merge, spawn/clone
//!   overhead, attributed *in full* to the critical path). This is the
//!   search-stage wall time on a machine with one free worker per island,
//!   which is the deployment `islands > 1` exists for.
//!
//! `speedup` is `serial_wall_ms / island_critical_path_ms`; the measured
//! single-host ratio is recorded alongside as
//! `measured_single_host_speedup` so the file never overstates what this
//! runner itself observed. The acceptance bar is `speedup >= 2` at 4
//! islands. The projection-cache numbers that previously lived in this
//! file are preserved under `projection_cache` (same workload as before:
//! transient engine per evaluation vs one shared engine).
//!
//! ```sh
//! cargo bench --bench search
//! ```

use sf_apps::{AppBuilder, AppConfig, PaperRow};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_minicuda::host::ExecutablePlan;
use sf_search::objective::{self, Penalty};
use sf_search::{search, search_islands, Individual, IslandOptions, ProjectionEngine, SearchConfig, SearchSpace};
use std::time::Instant;

const KERNELS: usize = 50;
const ISLANDS: usize = 4;
const POPULATION: usize = 96;
const GENERATIONS: usize = 240;
const MIGRATION_INTERVAL: usize = 20;

/// The projection bench's GA-shaped cache workload, preserved as a
/// subsection of the results file.
const CACHE_POPULATION: usize = 24;
const CACHE_GENERATIONS: usize = 12;

/// A synthetic pipeline of ~50 memory-bound kernels: stage `i` reads the
/// previous stage's output plus a shared forcing field, so every adjacent
/// pair is fusible and the search space is rich in recurring groups.
fn synthetic_program() -> sf_apps::App {
    let cfg = AppConfig::test();
    let mut b = AppBuilder::new(&cfg, 0xBEEF);
    b.array("u");
    b.array("s0");
    for i in 0..KERNELS {
        let prev = format!("s{i}");
        let next = format!("s{}", i + 1);
        b.array(&next);
        b.pointwise(&format!("stage{i}"), &[&prev, "u"], &next);
    }
    b.build(PaperRow {
        name: "synthetic-50",
        original_kernels: KERNELS,
        arrays: KERNELS + 2,
        target_kernels: KERNELS,
        new_kernels: 0,
        speedup_low: 1.0,
        speedup_high: 10.0,
        fission_driven: false,
    })
}

fn build_space(app: &sf_apps::App) -> SearchSpace {
    let plan = ExecutablePlan::from_program(&app.program).expect("plan");
    let device = DeviceSpec::k20x();
    let profile = Profiler::analytic(device.clone())
        .profile_with_plan(&app.program, &plan)
        .expect("profile");
    let decisions = sf_analysis::filter::identify_targets(
        &profile.metadata.perf,
        &profile.metadata.ops,
        &profile.metadata.device,
        &sf_analysis::filter::FilterConfig::default(),
    );
    SearchSpace::build(&app.program, &plan, &profile, &decisions, device).expect("space")
}

fn bench_config() -> SearchConfig {
    SearchConfig {
        population: POPULATION,
        generations: GENERATIONS,
        migration_interval: MIGRATION_INTERVAL,
        migrants: 2,
        stagnation_window: 0, // fixed budget: no early stop on either side
        seed: 0x5EA_4C4,
        ..SearchConfig::default()
    }
}

/// The projection bench's population: seeded random merge sequences.
fn cache_population(space: &SearchSpace) -> Vec<Individual> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    (0..CACHE_POPULATION)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut ind = Individual::singletons(space);
            for _ in 0..KERNELS {
                let units = ind.active_units();
                let a = units[rng.gen_range(0..units.len())];
                let b = units[rng.gen_range(0..units.len())];
                if a != b {
                    let _ = ind.try_merge(space, a, b);
                }
            }
            ind
        })
        .collect()
}

fn cache_throughput(mut eval: impl FnMut(&Individual) -> f64, pop: &[Individual]) -> (f64, f64) {
    let start = Instant::now();
    let mut checksum = 0.0;
    for _ in 0..CACHE_GENERATIONS {
        for ind in pop {
            checksum += eval(ind);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    ((CACHE_POPULATION * CACHE_GENERATIONS) as f64 / secs, checksum)
}

fn main() {
    // Cargo runs bench targets from the package dir; write results/ at the
    // workspace root like the harness binaries do.
    let _ = std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let app = synthetic_program();
    let space = build_space(&app);
    eprintln!(
        "synthetic program: {} kernels, {} search units; population {POPULATION} x {GENERATIONS} \
         generations, {ISLANDS} islands at interval {MIGRATION_INTERVAL}",
        KERNELS,
        space.units.len(),
    );

    // Serial baseline: the classic single-population GGA on the full budget.
    let serial_cfg = bench_config();
    let started = Instant::now();
    let serial = search(&space, &serial_cfg);
    let serial_wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // Island run: same budget sharded across 4 supervised islands.
    let island_cfg = bench_config().with_islands(ISLANDS);
    let started = Instant::now();
    let islands = search_islands(&space, &island_cfg, &IslandOptions::default());
    let island_measured_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        islands.degradations.is_empty(),
        "an unfaulted bench run must not degrade: {:?}",
        islands.degradations
    );

    // Determinism sanity: a second island run must reproduce the plan
    // byte for byte (the merge makes the thread schedule unobservable).
    let again = search_islands(&space, &island_cfg, &IslandOptions::default());
    assert_eq!(
        islands.result.plan.to_json(),
        again.result.plan.to_json(),
        "island search must be deterministic for a fixed seed"
    );

    // Critical path: the slowest island's busy time, plus *all* driver
    // time (migration, merge, spawn/clone) charged to the critical path.
    let busy_sum: u64 = islands.island_wall_ms.iter().sum();
    let busy_max: u64 = islands.island_wall_ms.iter().copied().max().unwrap_or(0);
    let driver_ms = (island_measured_wall_ms - busy_sum as f64).max(0.0);
    let island_critical_path_ms = busy_max as f64 + driver_ms;
    let speedup = serial_wall_ms / island_critical_path_ms.max(1e-9);
    let measured_single_host_speedup = serial_wall_ms / island_measured_wall_ms.max(1e-9);

    let serial_evals_per_sec = serial.evaluations as f64 / (serial_wall_ms / 1e3).max(1e-9);
    let island_evals_per_sec =
        islands.result.evaluations as f64 / (island_critical_path_ms / 1e3).max(1e-9);

    println!("serial:  {serial_wall_ms:>8.1} ms ({} evaluations)", serial.evaluations);
    println!(
        "islands: {island_measured_wall_ms:>8.1} ms measured on this host; critical path \
         {island_critical_path_ms:.1} ms (busiest island {busy_max} ms, driver {driver_ms:.1} ms)"
    );
    println!("search-stage speedup at {ISLANDS} islands: {speedup:.2}x (critical path)");

    // Projection-cache subsection (the numbers this file carried before).
    let pop = cache_population(&space);
    let penalty = Penalty::default();
    for ind in &pop {
        objective::fitness(&space, ind, &penalty);
    }
    let (before_eps, before_sum) =
        cache_throughput(|ind| objective::fitness(&space, ind, &penalty), &pop);
    let engine = ProjectionEngine::new(&space);
    let (after_eps, after_sum) =
        cache_throughput(|ind| objective::fitness_with(&engine, ind, &penalty), &pop);
    assert!(
        (before_sum - after_sum).abs() < 1e-6 * before_sum.abs().max(1.0),
        "cached fitness diverged from direct: {before_sum} vs {after_sum}"
    );
    let stats = engine.stats();
    let cache_ratio = after_eps / before_eps.max(1e-12);
    println!(
        "projection cache: {before_eps:.0} -> {after_eps:.0} evals/sec ({cache_ratio:.2}x, \
         {:.1}% hit rate)",
        100.0 * stats.hit_rate()
    );

    sf_bench::write_results(
        "BENCH_search",
        &serde_json::json!({
            "methodology": "Identical budget (population, generations, seed, operators) on the \
                50-kernel synthetic chain. serial_wall_ms is the measured wall time of the \
                classic GGA. island_critical_path_ms is max(per-island busy time) plus ALL \
                driver time (migration, canonical merge, spawn/clone overhead) — i.e. the \
                search-stage wall time with one free worker per island. speedup = \
                serial_wall_ms / island_critical_path_ms; measured_single_host_speedup is what \
                this runner itself observed with its own core count and is ~1 on a 1-core CI \
                host where the islands timeslice.",
            "workload": {
                "kernels": KERNELS,
                "search_units": space.units.len(),
                "population": POPULATION,
                "generations": GENERATIONS,
                "islands": ISLANDS,
                "migration_interval": MIGRATION_INTERVAL,
            },
            "serial_wall_ms": serial_wall_ms,
            "serial_evaluations": serial.evaluations,
            "island_measured_wall_ms": island_measured_wall_ms,
            "island_wall_ms": islands.island_wall_ms,
            "island_critical_path_ms": island_critical_path_ms,
            "island_evaluations": islands.result.evaluations,
            "serial_evals_per_sec": serial_evals_per_sec,
            "island_evals_per_sec": island_evals_per_sec,
            "speedup": speedup,
            "measured_single_host_speedup": measured_single_host_speedup,
            "projection_cache": {
                "workload": {
                    "population": CACHE_POPULATION,
                    "generations": CACHE_GENERATIONS,
                },
                "before_evals_per_sec": before_eps,
                "after_evals_per_sec": after_eps,
                "speedup": cache_ratio,
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": stats.hit_rate(),
                "distinct_groups": stats.entries,
            },
        }),
    );

    assert!(
        speedup >= 2.0,
        "island search must deliver >=2x search-stage speedup at {ISLANDS} islands, got {speedup:.2}x"
    );
}
