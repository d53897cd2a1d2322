//! The paper's experiments. Each prints its table row by row, writes its
//! record, and returns the verdicts of its shape claims, checked over its
//! own rows. The gated claims are the ones that hold at both scales on
//! K20X; the rest are printed with the ROADMAP item that owns them.

use crate::{bench_search, search_space, variant_config, Claims, Harness, Variant};
use serde::Serialize;
use serde_json::json;
use sf_apps::App;
use sf_codegen::tuning::TuneNote;
use sf_codegen::{CodegenMode, GroupPlan, MemberRef, TransformPlan};
use sf_gpusim::profiler::Profiler;
use sf_gpusim::DeviceRegistry;
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::Program;
use sf_search::objective::projected_time_us;
use sf_search::{raise_plan, search, search_islands, IslandOptions, SearchResult, SearchSpace};
use stencilfuse::TransformResult;

/// One experiment: its name and its body.
pub type Experiment = (&'static str, fn(&Harness) -> Claims);

/// Every experiment, in the order `paper all` runs them.
pub const EXPERIMENTS: [Experiment; 10] = [
    ("table1", table1),
    ("table2", table2),
    ("fig4_5", fig4_5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("convergence", convergence),
    ("ablation", ablation),
    ("port", port),
    ("temporal", temporal),
];

fn app(h: &Harness, name: &str) -> App {
    sf_apps::app_by_name(name, &h.apps).expect("known app")
}

fn searched(r: &TransformResult) -> &SearchResult {
    r.search.as_ref().expect("search ran")
}

fn plan_of(program: &Program) -> ExecutablePlan {
    ExecutablePlan::from_program(program).expect("app plan")
}

fn targets(r: &TransformResult) -> usize {
    r.decisions.iter().filter(|d| d.is_target()).count()
}

#[derive(Serialize)]
struct Table1Row {
    app: String,
    fission_driven: bool,
    original_kernels: usize,
    arrays: usize,
    target_kernels: usize,
    new_kernels: usize,
    fissions_per_generation: f64,
    array_sharing_sets: usize,
    transformation_seconds: f64,
    speedup: f64,
}

/// Table 1: application attributes and the effect of automated
/// transformation — original kernels, data arrays, target kernels, new
/// kernels, average fissions per GA generation, array sharing sets, and
/// transformation wall time.
fn table1(h: &Harness) -> Claims {
    let (dev, nx, ny, nz) = (&h.device.name, h.apps.nx, h.apps.ny, h.apps.nz);
    println!("Table 1: Applications Attributes and the Effect of Automated Transformation ({dev}, scale {nx}x{ny}x{nz})");
    println!("app            kernels  arrays  targets      new  fissions/gen   sharing   time(s)");
    let mut rows = Vec::new();
    for app in sf_apps::all_apps(&h.apps) {
        let run = h.run(&app, Variant::Full);
        let r = &run.result;
        let (name, kernels) = (app.paper.name, app.program.kernels.len());
        let arrays = plan_of(&app.program).allocs.len();
        let targets = targets(r);
        // The paper's "new kernels" counts the kernels that replace the
        // target kernels; non-target launches pass through 1:1.
        let new = r.program.static_launches().len() + targets - app.program.static_launches().len();
        let fissions = searched(r).fissions_per_generation;
        // Array sharing sets from the DDG (reported in the graphs stage).
        let lines = r.reports.iter().flat_map(|rep| rep.lines.iter());
        let sharing = lines
            .filter_map(|l| l.strip_suffix(" array sharing sets")?.trim().parse().ok())
            .next()
            .unwrap_or(0);
        let secs = run.seconds;
        println!("{name:<13} {kernels:>8} {arrays:>7} {targets:>8} {new:>8} {fissions:>13.3} {sharing:>9} {secs:>9.1}");
        rows.push(Table1Row {
            app: name.into(),
            fission_driven: app.paper.fission_driven,
            original_kernels: kernels,
            arrays,
            target_kernels: targets,
            new_kernels: new,
            fissions_per_generation: fissions,
            array_sharing_sets: sharing,
            transformation_seconds: secs,
            speedup: r.speedup,
        });
    }
    h.write(
        "table1",
        json!({ "rows": rows }),
        [h.searched_with(Variant::Full)],
    );
    table1_claims(&rows)
}

fn table1_claims(rows: &[Table1Row]) -> Claims {
    let mut claims = Claims::default();
    let fusion_driven = rows.iter().filter(|r| !r.fission_driven);
    let most = fusion_driven.max_by(|a, b| {
        a.fissions_per_generation
            .total_cmp(&b.fissions_per_generation)
    });
    let (top, most) = most.map_or(("-", 0.0), |m| (&m.app[..], m.fissions_per_generation));
    claims.gate(
        "the fission-driven apps fission >= 10x as often as every fusion-driven app",
        rows,
        |r| !r.fission_driven || r.fissions_per_generation >= 10.0 * most,
        |r| {
            let (app, f) = (&r.app, r.fissions_per_generation);
            format!("{app}: {f:.3} fissions/gen < 10 x {top}'s {most:.3}")
        },
    );
    claims
}

#[derive(Serialize)]
struct Table2Row {
    app: String,
    kernels_output_of_fusion: usize,
    tuned_kernels: usize,
    avg_occupancy_before: f64,
    avg_occupancy_after: f64,
}

/// Table 2: tuning thread block size for the new kernels — number of
/// kernels output of fusion, how many the tuner changed, and the average
/// occupancy before/after tuning.
fn table2(h: &Harness) -> Claims {
    println!(
        "Table 2: Tuning Thread Block Size for New Kernels ({})",
        h.device.name
    );
    println!("app              fused out    tuned   occ before    occ after");
    let mut rows = Vec::new();
    for app in sf_apps::all_apps(&h.apps) {
        let run = h.run(&app, Variant::Full);
        let t = run.result.transform.as_ref().expect("codegen ran");
        let n = t.tuning.len().max(1) as f64;
        let avg = |occupancy: fn(&TuneNote) -> f64| {
            t.tuning.iter().map(occupancy).fold(0.0, |a, o| a + o) / n
        };
        let (name, fused, before, after) = (
            app.paper.name,
            t.reports.len(),
            avg(|n| n.occupancy_before),
            avg(|n| n.occupancy_after),
        );
        let tuned = t.tuning.iter().filter(|n| n.tuned).count();
        println!("{name:<13} {fused:>12} {tuned:>8} {before:>12.2} {after:>12.2}");
        rows.push(Table2Row {
            app: name.into(),
            kernels_output_of_fusion: fused,
            tuned_kernels: tuned,
            avg_occupancy_before: before,
            avg_occupancy_after: after,
        });
    }
    h.write(
        "table2",
        json!({ "rows": rows }),
        [h.searched_with(Variant::Full)],
    );
    table2_claims(&rows)
}

fn table2_claims(rows: &[Table2Row]) -> Claims {
    let mut claims = Claims::default();
    claims.gate(
        "tuning never lowers occupancy",
        rows,
        |r| r.avg_occupancy_after >= r.avg_occupancy_before,
        |r| {
            let (b, a) = (r.avg_occupancy_before, r.avg_occupancy_after);
            format!("{}: occupancy {b:.4} -> {a:.4}", r.app)
        },
    );
    claims
}

#[derive(Serialize)]
struct Fig45Row {
    app: String,
    fission_driven: bool,
    fusion: f64,
    fission_fusion: f64,
    full: f64,
    /// Only for the two apps the paper has a hand transformation of.
    manual: Option<f64>,
    guided: f64,
    paper_band: (f64, f64),
}

/// Figures 4–5: speedups over the original codebases for every application
/// under each transformation variant. Figure 4 is the K20X series, Figure 5
/// the K40 (`--device k40`). The "manual" bars exist for SCALE-LES and
/// HOMME only, as in the paper.
fn fig4_5(h: &Harness) -> Claims {
    println!(
        "Figures 4-5: speedup vs original codebase ({})",
        h.device.name
    );
    println!("app             fusion  fission+fusion  fission+fusion+tuning   manual   guided");
    let mut rows = Vec::new();
    for app in sf_apps::all_apps(&h.apps) {
        let speedup = |v| h.run(&app, v).result.speedup;
        let has_manual = matches!(app.paper.name, "SCALE-LES" | "HOMME");
        let row = Fig45Row {
            app: app.paper.name.into(),
            fission_driven: app.paper.fission_driven,
            fusion: speedup(Variant::Fusion),
            fission_fusion: speedup(Variant::FissionFusion),
            full: speedup(Variant::Full),
            manual: has_manual.then(|| speedup(Variant::Manual)),
            guided: speedup(Variant::Guided),
            paper_band: (app.paper.speedup_low, app.paper.speedup_high),
        };
        let Fig45Row {
            app,
            fusion: f,
            fission_fusion: ff,
            full,
            guided: g,
            ..
        } = &row;
        let m = row.manual.map_or_else(|| "-".into(), |m| format!("{m:.3}"));
        println!("{app:<13} {f:>8.3} {ff:>15.3} {full:>22.3} {m:>8} {g:>8.3}");
        rows.push(row);
    }
    let name = format!("fig4_5_{}", h.device.name.to_lowercase());
    let variants = [
        Variant::Fusion,
        Variant::FissionFusion,
        Variant::Full,
        Variant::Manual,
        Variant::Guided,
    ];
    h.write(
        &name,
        json!({ "rows": rows }),
        variants.map(|v| h.searched_with(v)),
    );
    fig4_5_claims(&rows)
}

fn fig4_5_claims(rows: &[Fig45Row]) -> Claims {
    let mut claims = Claims::default();
    claims.gate(
        "every app speeds up under the full framework",
        rows,
        |r| r.full > 1.0,
        |r| format!("{}: {:.3}", r.app, r.full),
    );
    claims.gate(
        "fission+fusion beats fusion alone on the fission-driven apps",
        rows,
        |r| !r.fission_driven || r.fission_fusion > r.fusion,
        |r| {
            format!(
                "{}: {:.3} vs fusion {:.3}",
                r.app, r.fission_fusion, r.fusion
            )
        },
    );
    claims.gate(
        "automated reaches >= 85% of manual",
        rows,
        |r| r.manual.is_none_or(|m| r.full >= 0.85 * m),
        |r| {
            format!(
                "{}: {:.3} vs manual {:.3}",
                r.app,
                r.full,
                r.manual.unwrap_or(0.0)
            )
        },
    );
    claims.known(
        "guided >= automated",
        "2",
        rows,
        |r| r.guided >= r.full,
        |r| {
            format!(
                "{}: guided {:.3} < automated {:.3}",
                r.app, r.guided, r.full
            )
        },
    );
    claims.gate(
        "tuning never hurts (fission+fusion+tuning >= fission+fusion)",
        rows,
        |r| r.full >= r.fission_fusion,
        |r| format!("{}: {:.3} < {:.3}", r.app, r.full, r.fission_fusion),
    );
    claims.known(
        "fission never hurts (fission+fusion >= fusion)",
        "5",
        rows,
        |r| r.fission_fusion >= r.fusion,
        |r| format!("{}: {:.3} < {:.3}", r.app, r.fission_fusion, r.fusion),
    );
    claims
}

#[derive(Serialize)]
struct KernelRow {
    kernel: String,
    auto_us: f64,
    manual_us: f64,
    members: Vec<String>,
    auto_divergent_evals: u64,
    manual_divergent_evals: u64,
}

/// Figures 6–7's totals over one app's fused kernels.
struct PerKernel {
    app: String,
    auto_us: f64,
    manual_us: f64,
    /// Groups the automated generator concatenated instead of merging.
    concatenated: Vec<usize>,
}

/// One app's fused kernels under both code generators, on the grouping the
/// fission+fusion search chose: the manual side replays that plan with the
/// expert generator.
fn per_kernel(h: &Harness, name: &str, figure: &str) -> PerKernel {
    let app = app(h, name);
    let auto = h.run(&app, Variant::FissionFusion);
    let groups = &searched(&auto.result).plan.groups;
    let plan = TransformPlan::new(h.device.clone(), CodegenMode::Manual, false, groups.clone());
    let config = variant_config(Variant::FissionFusion, h.device.clone()).with_plan(plan);
    let what = format!("{} manual replay on {}", app.paper.name, h.device.name);
    let manual = h.compile(&what, &app.program, config);
    let perf = |r: &TransformResult| {
        let profile = r.transformed_profile.as_ref().expect("codegen ran");
        profile.metadata.perf.clone()
    };
    let (auto_perf, manual_perf) = (perf(&auto.result), perf(&manual));
    let launches = plan_of(&app.program).launches;
    let member = |m: &MemberRef| {
        let base = &launches[m.seq].kernel;
        m.fission_component
            .map_or_else(|| base.clone(), |c| format!("{base}.f{c}"))
    };

    let (app_name, dev) = (app.paper.name, &h.device.name);
    println!("Figure {figure} style: per-kernel runtime of new {app_name} kernels ({dev})");
    println!("kernel           auto(us)   manual(us)    ratio  members");
    let mut rows = Vec::new();
    // Pair fused kernels by name (same groups → same fused_<gi> naming).
    for ap in auto_perf.iter().filter(|p| p.kernel.starts_with("fused_")) {
        let Some(mp) = manual_perf.iter().find(|m| m.kernel == ap.kernel) else {
            continue;
        };
        let gi: usize = ap.kernel.trim_start_matches("fused_").parse().unwrap_or(0);
        let members: Vec<String> = groups
            .get(gi)
            .map_or(vec![], |g| g.members.iter().map(member).collect());
        let (kernel, a, m) = (&ap.kernel, ap.runtime_us, mp.runtime_us);
        let (ratio, joined) = (a / m.max(1e-9), members.join("+"));
        println!("{kernel:<12} {a:>12.1} {m:>12.1} {ratio:>8.2}  {joined}");
        rows.push(KernelRow {
            kernel: kernel.clone(),
            auto_us: a,
            manual_us: m,
            members,
            auto_divergent_evals: ap.divergent_evals,
            manual_divergent_evals: mp.divergent_evals,
        });
    }
    let reports = &auto.result.transform.as_ref().expect("codegen ran").reports;
    let k = PerKernel {
        app: app_name.into(),
        auto_us: rows.iter().fold(0.0, |t, r| t + r.auto_us),
        manual_us: rows.iter().fold(0.0, |t, r| t + r.manual_us),
        concatenated: (0..reports.len()).filter(|&i| !reports[i].merged).collect(),
    };
    let (a, m) = (k.auto_us, k.manual_us);
    let pct = 100.0 * m / a.max(1e-9);
    println!("total fused-kernel runtime: auto {a:.1}us manual {m:.1}us (manual/auto {pct:.1}%)");
    let gap = &k.concatenated;
    println!("auto-mode groups concatenated without merging (the gap contributors): {gap:?}");
    let body = json!({ "app": app_name, "total_auto_us": a, "total_manual_us": m,
                       "concatenated_groups": gap, "rows": rows });
    // The replay runs no search: both sides execute the one plan the
    // fission+fusion search chose.
    let searched = h.searched_with(Variant::FissionFusion);
    h.write(&format!("fig{figure}"), body, [searched]);
    k
}

fn manual_faster(k: &PerKernel) -> bool {
    k.manual_us < k.auto_us
}

fn totals(k: &PerKernel) -> String {
    format!(
        "{}: manual {:.1}us vs auto {:.1}us",
        k.app, k.manual_us, k.auto_us
    )
}

/// Figure 6: the new SCALE-LES kernels. A few kernels — the ones whose
/// members have deep nested loops, which the automated generator
/// concatenates instead of merging — contribute most of the difference
/// (§6.2.2).
fn fig6(h: &Harness) -> Claims {
    let k = [per_kernel(h, "scale-les", "6")];
    let mut claims = Claims::default();
    claims.gate(
        "the manual generator's kernels are faster in total",
        &k,
        manual_faster,
        totals,
    );
    claims.gate(
        "the automated generator concatenates at least one group",
        &k,
        |k| !k.concatenated.is_empty(),
        |k| format!("{}: no group", k.app),
    );
    claims
}

/// Figure 7: the new HOMME kernels. Unlike SCALE-LES, the gap is spread
/// evenly across kernels and stems from intra-warp divergence: the
/// automated generator emits one guard branch per fused segment while the
/// expert coalesces identical guards (§6.2.2).
fn fig7(h: &Harness) -> Claims {
    let k = [per_kernel(h, "homme", "7")];
    let mut claims = Claims::default();
    let claim = "the manual generator's kernels are faster in total (divergence)";
    claims.known(claim, "7", &k, manual_faster, totals);
    claims
}

#[derive(Serialize)]
struct Fig8Row {
    app: String,
    speedup_auto_filter: f64,
    speedup_manual_filter: f64,
    targets_auto: usize,
    targets_manual: usize,
}

/// Figure 8: speedups with automated vs manual target filtering. All
/// applications match except Fluam, whose latency-bound kernels falsely
/// appear memory-bound to the automated filter, bloat the search space and
/// hurt convergence (§6.2.2).
fn fig8(h: &Harness) -> Claims {
    println!(
        "Figure 8: automated vs manual kernel filtering ({})",
        h.device.name
    );
    println!("app                 auto     manual    auto tgts  manual tgts");
    let mut rows = Vec::new();
    for app in sf_apps::all_apps(&h.apps) {
        let auto = h.run(&app, Variant::FissionFusion);
        let manual = h.run(&app, Variant::ManualFilter);
        let (name, a, m) = (app.paper.name, auto.result.speedup, manual.result.speedup);
        let (ta, tm) = (targets(&auto.result), targets(&manual.result));
        println!("{name:<13} {a:>10.3} {m:>10.3} {ta:>12} {tm:>12}");
        rows.push(Fig8Row {
            app: name.into(),
            speedup_auto_filter: a,
            speedup_manual_filter: m,
            targets_auto: ta,
            targets_manual: tm,
        });
    }
    let searches = [Variant::FissionFusion, Variant::ManualFilter].map(|v| h.searched_with(v));
    h.write("fig8", json!({ "rows": rows }), searches);
    let mut claims = Claims::default();
    claims.known(
        "only Fluam's speedup depends on the filter",
        "2",
        &rows,
        |r| {
            let (a, m) = (r.speedup_auto_filter, r.speedup_manual_filter);
            (format!("{a:.3}") == format!("{m:.3}")) != (r.app == "Fluam")
        },
        |r| {
            let (a, m) = (r.speedup_auto_filter, r.speedup_manual_filter);
            format!("{}: auto {a:.3} vs manual {m:.3}", r.app)
        },
    );
    claims
}

#[derive(Serialize)]
struct ConvergenceRow {
    app: String,
    units: usize,
    gens_filtered: usize,
    gens_unfiltered: usize,
    eval_ms_per_individual: f64,
    best_filtered: f64,
    best_unfiltered: f64,
}

/// Generations needed to reach 99% of the final best fitness.
fn generations_to_converge(history: &[f64]) -> usize {
    let target = history.iter().cloned().fold(0.0f64, f64::max) * 0.99;
    let reached = history.iter().position(|&v| v >= target);
    reached.map_or(history.len(), |p| p + 1)
}

/// GA convergence (§6.1.2 / §6.2.2): objective evaluation dominates the
/// optimization runtime, and with no target filtering at all convergence
/// is ~2.5x slower.
fn convergence(h: &Harness) -> Claims {
    let dev = &h.device.name;
    println!("GA convergence, filtered vs unfiltered search space ({dev})");
    println!("app              units  gens(flt)  gens(noflt)     slowdown    eval_ms");
    let profiler = Profiler::new(h.device.clone());
    let mut cfg = bench_search();
    cfg.stagnation_window = 0; // fixed budget for fair comparison
    let mut rows = Vec::new();
    for app in sf_apps::all_apps(&h.apps) {
        let space = search_space(&app.program, &profiler, false);
        let t0 = std::time::Instant::now();
        let filtered = search(&space, &cfg);
        let ms = t0.elapsed().as_secs_f64() * 1e3 / filtered.evaluations.max(1) as f64;
        let unfiltered = search(&search_space(&app.program, &profiler, true), &cfg);
        let (name, units) = (app.paper.name, space.units.len());
        let g_f = generations_to_converge(&filtered.history);
        let g_u = generations_to_converge(&unfiltered.history);
        let slowdown = g_u as f64 / g_f.max(1) as f64;
        println!("{name:<13} {units:>8} {g_f:>10} {g_u:>12} {slowdown:>12.2} {ms:>10.3}");
        rows.push(ConvergenceRow {
            app: name.into(),
            units,
            gens_filtered: g_f,
            gens_unfiltered: g_u,
            eval_ms_per_individual: ms,
            best_filtered: filtered.best_gflops,
            best_unfiltered: unfiltered.best_gflops,
        });
    }
    let searched = ("filtered and unfiltered".to_string(), cfg);
    h.write("convergence", json!({ "rows": rows }), [searched]);
    let mut claims = Claims::default();
    claims.gate(
        "the unfiltered search converges no faster (paper: 2.5x slower)",
        &rows,
        |r| r.gens_unfiltered >= r.gens_filtered,
        |r| {
            let slowdown = r.gens_unfiltered as f64 / r.gens_filtered.max(1) as f64;
            format!("{}: {slowdown:.2}x", r.app)
        },
    );
    claims
}

#[derive(Serialize)]
struct Strategy {
    units: usize,
    generations: usize,
    evaluations: u64,
    projected_gflops: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct AblationRow {
    app: String,
    fission_driven: bool,
    none: Strategy,
    lazy: Strategy,
    eager: Strategy,
}

/// Eager mode: pre-split every fissionable kernel of the program, so the
/// search starts from the products.
fn eager_program(app: &App, h: &Harness) -> Program {
    let plan = plan_of(&app.program);
    let mut groups = Vec::new();
    for launch in &plan.launches {
        let kernel = app.program.kernel(&launch.kernel).expect("kernel");
        let products = sf_codegen::fission_kernel(kernel).map_or(0, |p| p.len());
        groups.extend((0..products).map(|c| MemberRef::product(launch.seq, c)));
        if products == 0 {
            groups.push(MemberRef::original(launch.seq));
        }
    }
    let groups = groups.into_iter().map(|m| GroupPlan::of(vec![m])).collect();
    let tplan = TransformPlan::new(h.device.clone(), CodegenMode::Auto, false, groups);
    let out = sf_codegen::transform_program(&app.program, &plan, &tplan);
    out.expect("eager pre-split").program
}

/// Ablation of the lazy-fission design (§4.1). The paper rejects **eager**
/// fission ("apply an initial round of iterative fission before running
/// the optimization algorithm") for "an explosive expansion in the search
/// space size", and **none** is the prior-work transformation. Per
/// strategy: unit count (search-space size), projected quality at the
/// benchmark budget, and the achieved speedup.
fn ablation(h: &Harness) -> Claims {
    let dev = &h.device.name;
    println!("Lazy-fission ablation ({dev}): search-space size and outcome per strategy");
    println!("app                 strategy        units         gens        evals  proj GFLOPS      speedup");
    let profiler = Profiler::analytic(h.device.clone());
    let originals = |s: &SearchSpace| s.units.iter().filter(|u| u.parent.is_none()).count();
    let strategy = |r: &TransformResult, units, speedup| {
        let s = searched(r);
        Strategy {
            units,
            generations: s.generations_run,
            evaluations: s.evaluations,
            projected_gflops: s.best_gflops,
            speedup,
        }
    };
    let mut rows = Vec::new();
    for name in ["awp-odc", "bcalm", "homme"] {
        let app = app(h, name);
        let space = search_space(&app.program, &profiler, false);
        let none = h.run(&app, Variant::Fusion);
        let lazy = h.run(&app, Variant::FissionFusion);
        // Eager: the products are the program's kernels, so no fission
        // moves; its speedup is against the true original's time.
        let program = eager_program(&app, h);
        let config = variant_config(Variant::Fusion, h.device.clone());
        let what = format!("{} eager fission", app.paper.name);
        let eager = h.compile(&what, &program, config);
        let eager_speedup = lazy.result.original_time_us / eager.transformed_time_us.max(1e-9);
        let eager_units = originals(&search_space(&program, &profiler, false));
        let row = AblationRow {
            app: app.paper.name.into(),
            fission_driven: app.paper.fission_driven,
            none: strategy(&none.result, originals(&space), none.result.speedup),
            lazy: strategy(&lazy.result, space.units.len(), lazy.result.speedup),
            eager: strategy(&eager, eager_units, eager_speedup),
        };
        for (label, s) in [
            ("none", &row.none),
            ("lazy", &row.lazy),
            ("eager", &row.eager),
        ] {
            let Strategy {
                units: u,
                generations: g,
                evaluations: e,
                ..
            } = s;
            let (gf, x) = (s.projected_gflops, s.speedup);
            println!(
                "{:<13} {label:>14} {u:>12} {g:>12} {e:>12} {gf:>12.2} {x:>12.3}",
                row.app
            );
        }
        rows.push(row);
    }
    // Eager compiles the pre-split program under the fusion-only variant.
    let searches = [Variant::Fusion, Variant::FissionFusion].map(|v| h.searched_with(v));
    h.write("ablation", json!({ "rows": rows }), searches);
    ablation_claims(&rows)
}

/// `a >= b` up to a relative 1e-12: two plans whose projections differ
/// only in the last bits of a floating-point sum tie.
fn no_worse(a: f64, b: f64) -> bool {
    a >= b - 1e-12 * b.abs()
}

fn ablation_claims(rows: &[AblationRow]) -> Claims {
    let mut claims = Claims::default();
    let gflops = |r: &AblationRow, a: &str, x: &Strategy, b: &str, y: &Strategy| {
        let (x, y) = (x.projected_gflops, y.projected_gflops);
        format!("{}: {a} {x:.2} vs {b} {y:.2} GFLOPS", r.app)
    };
    claims.gate(
        "`none` projects below `lazy` on the fission-driven apps",
        rows,
        |r| !r.fission_driven || r.none.projected_gflops < r.lazy.projected_gflops,
        |r| gflops(r, "none", &r.none, "lazy", &r.lazy),
    );
    claims.known(
        "lazy projects no worse than eager at the same budget",
        "5",
        rows,
        |r| no_worse(r.lazy.projected_gflops, r.eager.projected_gflops),
        |r| gflops(r, "lazy", &r.lazy, "eager", &r.eager),
    );
    claims
}

#[derive(Serialize)]
struct PortRow {
    app: String,
    target_device: String,
    scratch_evaluations: u64,
    port_evaluations: u64,
    /// The most the port may spend: its budget plus one generation per
    /// island, since the search checks the budget at generation boundaries.
    port_evaluation_cap: u64,
    scratch_gflops: f64,
    port_gflops: f64,
    unmodified_loss_pct: f64,
}

/// Cross-device plan portability: how expensive is porting the `--device`
/// plan (K20X by default) to each other registry device compared to
/// searching that device from scratch, and how much does the unmodified
/// plan lose if projected there as-is (the mistake the device-mismatch
/// rejection exists to prevent)? The port re-runs the search seeded with
/// the source plan's raised genome under a third of the scratch budget
/// (`sfc --port-plan`).
fn port(h: &Harness) -> Claims {
    let (source, cfg) = (&h.device, bench_search());
    println!(
        "plan-port cost vs from-scratch search (source device {})",
        source.name
    );
    println!("app       target   scratch_ev   port_ev   ratio scratch_gf    port_gf  unmod_dt");
    let mut rows = Vec::new();
    for name in ["mitgcm", "awpodc"] {
        let app = app(h, name);
        let space_on = |device| search_space(&app.program, &Profiler::new(device), false);
        let source_plan = search(&space_on(source.clone()), &cfg).plan;
        for target in DeviceRegistry::builtin().devices() {
            if target.fingerprint() == source.fingerprint() {
                continue;
            }
            let space = space_on(target.clone());
            let scratch = search(&space, &cfg);
            // The source grouping raised onto the target space and
            // projected as-is, no re-tuning.
            let raised = raise_plan(&space, &source_plan);
            let unmod_us = projected_time_us(&space, &raised);
            let loss =
                100.0 * (unmod_us / projected_time_us(&space, &scratch.best).max(1e-9) - 1.0);
            let mut port_cfg = cfg.clone().for_port();
            port_cfg.max_evaluations = (scratch.evaluations / 3).max(1);
            let opts = IslandOptions {
                seeds: vec![raised],
                ..IslandOptions::default()
            };
            let port = search_islands(&space, &port_cfg, &opts).result;
            let islands = port_cfg.islands;
            let shard = port_cfg.population.div_ceil(islands) as u64;
            let (s_ev, p_ev) = (scratch.evaluations, port.evaluations);
            let ratio = p_ev as f64 / s_ev.max(1) as f64;
            let (s_gf, p_gf) = (scratch.best_gflops, port.best_gflops);
            let (app, dev) = (app.paper.name, &target.name);
            println!("{app:<9} {dev:<8} {s_ev:>10} {p_ev:>9} {ratio:>7.3} {s_gf:>10.1} {p_gf:>10.1} {loss:>8.1}%");
            rows.push(PortRow {
                app: app.into(),
                target_device: dev.clone(),
                scratch_evaluations: s_ev,
                port_evaluations: p_ev,
                port_evaluation_cap: port_cfg.max_evaluations + islands as u64 * shard,
                scratch_gflops: s_gf,
                port_gflops: p_gf,
                unmodified_loss_pct: loss,
            });
        }
    }
    let searches = [
        ("source and scratch".to_string(), cfg.clone()),
        (
            "port, max_evaluations a third of the row's scratch_evaluations".to_string(),
            cfg.for_port(),
        ),
    ];
    h.write("BENCH_port", json!({ "rows": rows }), searches);
    let mut claims = Claims::default();
    claims.gate(
        "the port keeps its budget (a third of scratch, checked per generation)",
        &rows,
        |r| r.port_evaluations <= r.port_evaluation_cap,
        |r| {
            let (ev, cap) = (r.port_evaluations, r.port_evaluation_cap);
            format!("{} on {}: {ev} evaluations > {cap}", r.app, r.target_device)
        },
    );
    claims.gate(
        "the ported plan projects within 5% of the from-scratch plan",
        &rows,
        |r| r.port_gflops >= 0.95 * r.scratch_gflops,
        |r| {
            let (p, s) = (r.port_gflops, r.scratch_gflops);
            format!("{} on {}: {p:.1} vs {s:.1} GFLOPS", r.app, r.target_device)
        },
    );
    claims
}

#[derive(Serialize)]
struct TemporalRow {
    app: String,
    device: String,
    device_fingerprint: String,
    spatial_projected_us: f64,
    temporal_projected_us: f64,
    temporal_degree: u32,
    projected_speedup: f64,
    verified: bool,
}

fn final_plan(r: &TransformResult) -> Option<&TransformPlan> {
    r.executed_plan().or_else(|| r.planned())
}

/// Temporal blocking: the projected speedup of the degree cap 4 over the
/// spatial-only pipeline (cap 1, `sfc --max-temporal`) on the time-stepped
/// mitgcm and scale-les analogs, per registry device; nothing else
/// differs. The speedup is the ratio of the two winning plans' projected
/// times under the §5 timing model with its `TemporalFold` extension — a
/// modeling claim, not a hardware measurement — and both programs must
/// verify bit-exactly. A cap-4 plan that stays at degree 1 reports 1.0.
fn temporal(h: &Harness) -> Claims {
    println!("temporal blocking: projected speedup of --max-temporal 4 over 1");
    println!("app           device     spatial_us  temporal_us  degree speedup  verified");
    let mut rows = Vec::new();
    let apps = [
        sf_apps::mitgcm::build_temporal(&h.apps),
        sf_apps::scale_les::build_temporal(&h.apps),
    ];
    for app in apps {
        for device in DeviceRegistry::builtin().devices() {
            let spatial = h.run_on(&app, Variant::Full, device);
            let temporal = h.run_on(&app, Variant::Temporal, device);
            let proj = |r| {
                final_plan(r)
                    .and_then(|p| p.projected_time_us)
                    .unwrap_or(f64::NAN)
            };
            let (s_us, t_us) = (proj(&spatial.result), proj(&temporal.result));
            let groups = final_plan(&temporal.result).map_or(&[][..], |p| &p.groups[..]);
            let degree = groups.iter().map(|g| g.temporal).max().unwrap_or(1);
            let runs = [&spatial.result, &temporal.result];
            let verified = runs
                .iter()
                .all(|r| r.verification.as_ref().is_some_and(|v| v.passed()));
            let (name, dev, speedup) = (app.paper.name, &device.name, s_us / t_us);
            let ok = if verified { "ok" } else { "MISMATCH" };
            println!(
                "{name:<13} {dev:<8} {s_us:>12.2} {t_us:>12.2} {degree:>7} {speedup:>7.3} {ok:>9}"
            );
            rows.push(TemporalRow {
                app: name.into(),
                device: dev.clone(),
                device_fingerprint: device.fingerprint(),
                spatial_projected_us: s_us,
                temporal_projected_us: t_us,
                temporal_degree: degree,
                projected_speedup: speedup,
                verified,
            });
        }
    }
    let searches = [Variant::Full, Variant::Temporal].map(|v| h.searched_with(v));
    h.write("BENCH_temporal", json!({ "rows": rows }), searches);
    let mut claims = Claims::default();
    let cell = |r: &TemporalRow, what: String| format!("{} on {}: {what}", r.app, r.device);
    claims.gate(
        "both programs verify on every row",
        &rows,
        |r| r.verified,
        |r| cell(r, "MISMATCH".into()),
    );
    claims.gate(
        "temporal blocking never projects slower",
        &rows,
        |r| r.projected_speedup >= 1.0,
        |r| cell(r, format!("{:.3}", r.projected_speedup)),
    );
    claims.gate(
        "MITgcm-ts folds (degree >= 2) on every device",
        &rows,
        |r| r.app != "MITgcm-ts" || r.temporal_degree >= 2,
        |r| cell(r, format!("degree {}", r.temporal_degree)),
    );
    claims
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(app: &str, fusion: f64, fission_fusion: f64, full: f64, guided: f64) -> Fig45Row {
        Fig45Row {
            app: app.into(),
            fission_driven: app == "B-CALM",
            fusion,
            fission_fusion,
            full,
            manual: (app == "HOMME").then_some(1.5),
            guided,
            paper_band: (1.0, 2.0),
        }
    }

    /// AWP-ODC's lazy and eager plans tie but for the last bits of their
    /// sums; HOMME's lazy plan is really worse, and the report names it.
    #[test]
    fn a_last_ulp_tie_is_no_break_and_the_real_one_is_named() {
        let row = |app: &str, fission_driven, none: f64, lazy: f64, eager: f64| {
            let strategy = |projected_gflops| Strategy {
                units: 1,
                generations: 1,
                evaluations: 1,
                projected_gflops,
                speedup: 1.0,
            };
            AblationRow {
                app: app.into(),
                fission_driven,
                none: strategy(none),
                lazy: strategy(lazy),
                eager: strategy(eager),
            }
        };
        let awp = row(
            "AWP-ODC",
            false,
            150.0,
            169.4685284613574,
            169.46852846135744,
        );
        assert!(awp.lazy.projected_gflops < awp.eager.projected_gflops);
        let rows = [
            awp,
            row("B-CALM", true, 9.0, 10.0, 10.0),
            row("HOMME", false, 160.0, 168.21, 176.07),
        ];
        let claims = ablation_claims(&rows);
        assert_eq!(claims.verdict("ablation"), Ok(()));
        let report = claims.report();
        let known = "known  lazy projects no worse than eager at the same budget: breaks at \
                     HOMME: lazy 168.21 vs eager 176.07 GFLOPS (ROADMAP item 5)";
        assert!(report.contains(known), "{report}");
    }

    #[test]
    fn a_broken_gated_claim_names_its_cell_and_a_known_one_does_not_fail() {
        // Guided below automated and fission below fusion alone: known, not
        // gated.
        let rows = [
            row("HOMME", 1.5, 1.45, 1.46, 1.0),
            row("B-CALM", 1.0, 1.7, 1.7, 1.7),
        ];
        let claims = fig4_5_claims(&rows);
        assert_eq!(claims.verdict("fig4_5"), Ok(()));
        let report = claims.report();
        let known = "known  guided >= automated: breaks at HOMME: guided 1.000 < automated 1.460";
        assert!(report.contains(known), "{report}");
        assert!(report.contains("known  fission never hurts"), "{report}");

        // B-CALM's fission no longer pays and HOMME's tuning hurts: gated
        // claims, so the verdict names the experiment, the claim and the
        // cell.
        let rows = [
            row("HOMME", 1.4, 1.45, 1.44, 1.0),
            row("B-CALM", 1.0, 0.9, 1.7, 1.7),
        ];
        let err = fig4_5_claims(&rows).verdict("fig4_5").unwrap_err();
        let fission = "paper fig4_5: `fission+fusion beats fusion alone on the fission-driven \
                       apps` breaks at B-CALM: 0.900 vs fusion 1.000";
        let tuning = "paper fig4_5: `tuning never hurts (fission+fusion+tuning >= \
                      fission+fusion)` breaks at HOMME: 1.440 < 1.450";
        assert_eq!(err, [fission, tuning]);

        // Automated below 85 % of manual, and an app that slows down.
        let rows = [
            row("HOMME", 1.1, 1.2, 1.2, 1.3),
            row("B-CALM", 0.8, 0.9, 0.9, 1.7),
        ];
        let err = fig4_5_claims(&rows).verdict("fig4_5").unwrap_err();
        assert_eq!(err.len(), 2, "{err:?}");
        assert!(
            err[0].contains("speeds up") && err[0].ends_with("B-CALM: 0.900"),
            "{err:?}"
        );
        assert!(err[1].ends_with("HOMME: 1.200 vs manual 1.500"), "{err:?}");
    }

    #[test]
    fn the_table_claims_name_their_cells() {
        let t2 = |before, after| Table2Row {
            app: "MITgcm".into(),
            kernels_output_of_fusion: 3,
            tuned_kernels: 1,
            avg_occupancy_before: before,
            avg_occupancy_after: after,
        };
        assert!(table2_claims(&[t2(0.5, 0.5), t2(0.5, 0.6)])
            .verdict("table2")
            .is_ok());
        let err = table2_claims(&[t2(0.6, 0.5)])
            .verdict("table2")
            .unwrap_err();
        assert!(
            err[0].ends_with("MITgcm: occupancy 0.6000 -> 0.5000"),
            "{err:?}"
        );

        let t1 = |app: &str, fission_driven, fissions_per_generation| Table1Row {
            app: app.into(),
            fission_driven,
            original_kernels: 1,
            arrays: 1,
            target_kernels: 1,
            new_kernels: 1,
            fissions_per_generation,
            array_sharing_sets: 0,
            transformation_seconds: 0.0,
            speedup: 1.0,
        };
        let rows = [
            t1("HOMME", false, 0.037),
            t1("AWP", true, 2.554),
            t1("B-CALM", true, 0.3),
        ];
        let err = table1_claims(&rows).verdict("table1").unwrap_err();
        assert_eq!(err.len(), 1);
        let cell = "B-CALM: 0.300 fissions/gen < 10 x HOMME's 0.037";
        assert!(err[0].ends_with(cell), "{err:?}");
    }
}
