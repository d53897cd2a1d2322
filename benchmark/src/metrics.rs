//! The metric and workload tables. `BENCHMARK.json` at the repository
//! root states the same tables for the driver; a unit test keeps the two
//! in step.

use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Workload names and the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "apps_cold",
        "six paper analogs on a 16x8x2 domain compiled from scratch, quick search, every check on: the cold sfc compile; codegen ~38%, search ~37%, interpreter ~21%; the only one with fission and halos",
    ),
    (
        "interp_replay",
        "mitgcm and degree-4 temporally blocked mitgcm-ts replayed from a plan with functional profile and verification on: no search, ~83% interpreter; a search speed-up must show no change here",
    ),
    (
        "search_synth",
        "two seeded 12-stage chains, analytic profile, verification off, automated serial search (150 generations) on one thread: search ~87% of wall; an interpreter speed-up must show no change here",
    ),
    (
        "sfd_warm",
        "BatchDriver on a store a cold batch filled, fleet of six chains, every request a hit: parse + key + lookup + decode + replay with search and interpreter idle, the cache-read side",
    ),
];

/// End-to-end metrics: `(name, unit, better, bound)`. Every workload
/// reports every one of them; the driver gates each workload on its own.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("compile_s", "s", Better::Lower, 0.25),
    ("projected_speedup", "x", Better::Higher, 0.01),
    ("peak_rss_mb", "MB", Better::Lower, 0.25),
    ("setup_s", "s", Better::Lower, 0.25),
];

/// Span names whose per-operation median self time is reported as
/// `<name>.wall_s`.
const TIMED_SPANS: [&str; 18] = [
    "minicuda.parse",
    "minicuda.print",
    "minicuda.exec_plan",
    "gpusim.profile",
    "gpusim.reprofile",
    "gpusim.profile_analytic",
    "analysis.filter",
    "graphs.build",
    "search.space",
    "search.gga",
    "search.islands",
    "plan.encode",
    "plan.decode",
    "codegen.transform",
    "cache.key",
    "cache.lookup_hit",
    "cache.lookup_miss",
    "cache.publish",
];

/// Counts reported under the name they were recorded with.
const COUNTS: [(&str, Better); 17] = [
    ("gpusim.interp.steps", Better::Lower),
    ("analysis.filter.targets", Better::Lower),
    ("graphs.ddg_edges", Better::Lower),
    ("graphs.oeg_edges", Better::Lower),
    ("search.space.units", Better::Lower),
    ("search.gga.evaluations", Better::Lower),
    ("search.gga.generations", Better::Lower),
    ("search.projection.hits", Better::Higher),
    ("search.projection.misses", Better::Lower),
    ("plan.bytes", Better::Lower),
    ("codegen.fused_groups", Better::Higher),
    ("codegen.degradations", Better::Lower),
    ("codegen.launches_out", Better::Lower),
    ("codegen.output_bytes", Better::Lower),
    ("cache.entry_bytes", Better::Lower),
    ("cache.hits", Better::Higher),
    ("cache.misses", Better::Lower),
];

/// Layers whose summed span self time is reported as a share of the
/// traced pass (`share.<layer>`); `core` is `core.verify`.
const LAYERS: [&str; 9] = [
    "minicuda", "gpusim", "analysis", "graphs", "search", "plan", "codegen", "cache", "core",
];

/// Derived per-layer metrics: `(name, unit, better)`.
const DERIVED: [(&str, &str, Better); 12] = [
    ("minicuda.parse.bytes_per_s", "B/s", Better::Higher),
    ("gpusim.interp.steps_per_s", "1/s", Better::Higher),
    ("search.gga.evals_per_s", "1/s", Better::Higher),
    ("search.islands.evals_per_s", "1/s", Better::Higher),
    ("search.islands.speedup", "x", Better::Higher),
    ("search.projection.hit_share", "share", Better::Higher),
    ("cache.quarantined", "count", Better::Lower),
    ("core.verify.wall_s", "s", Better::Lower),
    ("core.pipeline.other_s", "s", Better::Lower),
    ("core.batch.warm_overhead_s", "s", Better::Lower),
    ("core.degradations", "count", Better::Lower),
    ("trace.overhead_share", "share", Better::Lower),
];

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for span in TIMED_SPANS {
        out.push((format!("{span}.wall_s"), "s", Better::Lower));
    }
    for (name, better) in COUNTS {
        let unit = if name.ends_with("bytes") {
            "B"
        } else {
            "count"
        };
        out.push((name.to_string(), unit, better));
    }
    for (name, unit, better) in DERIVED {
        out.push((name.to_string(), unit, better));
    }
    for layer in LAYERS {
        out.push((format!("share.{layer}"), "share", Better::Lower));
    }
    out
}

/// Seconds of the traced pass spent inside any layer's span.
pub fn layer_seconds(tr: &Tracer) -> f64 {
    LAYERS
        .iter()
        .map(|layer| tr.self_total(&format!("{layer}.")))
        .sum()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The per-layer metrics one traced pass supports, from its spans and
/// counts. A layer that did not run in this workload reads 0. The caller
/// adds the metrics that need the untraced pass beside it.
pub fn from_trace(tr: &Tracer, traced_pass_s: f64) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for span in TIMED_SPANS {
        m.insert(format!("{span}.wall_s"), median(&tr.self_times(span)));
    }
    for (name, _) in COUNTS {
        m.insert(name.to_string(), tr.counted(name) as f64);
    }
    m.insert(
        "core.verify.wall_s".into(),
        median(&tr.self_times("core.verify")),
    );
    // `0.0 +`: an empty f64 sum is -0.0, which would print as "-0".
    let total = |name: &str| 0.0 + tr.self_times(name).iter().sum::<f64>();
    m.insert(
        "minicuda.parse.bytes_per_s".into(),
        ratio(
            tr.counted("minicuda.parse.bytes") as f64,
            total("minicuda.parse"),
        ),
    );
    let interpreting = total("gpusim.profile") + total("gpusim.reprofile") + total("core.verify");
    m.insert(
        "gpusim.interp.steps_per_s".into(),
        ratio(tr.counted("gpusim.interp.steps") as f64, interpreting),
    );
    let (serial_s, islands_s) = (total("search.gga"), total("search.islands"));
    m.insert(
        "search.gga.evals_per_s".into(),
        ratio(tr.counted("search.gga.evaluations") as f64, serial_s),
    );
    m.insert(
        "search.islands.evals_per_s".into(),
        ratio(tr.counted("search.islands.evaluations") as f64, islands_s),
    );
    // Measured, same programs searched both ways: serial wall ÷ islands wall.
    m.insert("search.islands.speedup".into(), ratio(serial_s, islands_s));
    let (hits, misses) = (
        tr.counted("search.projection.hits") as f64,
        tr.counted("search.projection.misses") as f64,
    );
    m.insert(
        "search.projection.hit_share".into(),
        ratio(hits, hits + misses),
    );
    m.insert(
        "core.degradations".into(),
        tr.counted("core.degradations") as f64,
    );
    m.insert(
        "cache.quarantined".into(),
        tr.counted("cache.quarantined") as f64,
    );
    for layer in LAYERS {
        m.insert(
            format!("share.{layer}"),
            ratio(tr.self_total(&format!("{layer}.")), traced_pass_s),
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary reports and gates on. They must say the same thing.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");

        let workloads: Vec<(String, String)> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w["name"].as_str().unwrap().to_string(),
                    w["why"].as_str().unwrap().to_string(),
                )
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));

        let end_to_end = doc["end_to_end"].as_array().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (name, unit, better, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(entry["name"].as_str(), Some(name));
            assert_eq!(entry["unit"].as_str(), Some(unit));
            assert_eq!(entry["better"].as_str(), Some(better.name()));
            assert_eq!(entry["bound"].as_f64(), Some(bound));
        }

        let layers = doc["per_layer"].as_array().unwrap();
        let table = per_layer();
        assert_eq!(layers.len(), table.len());
        assert!(table.len() <= 128);
        for (entry, (name, unit, better)) in layers.iter().zip(&table) {
            assert_eq!(entry["name"].as_str(), Some(name.as_str()));
            assert_eq!(entry["unit"].as_str(), Some(*unit));
            assert_eq!(entry["better"].as_str(), Some(better.name()));
        }
    }

    #[test]
    fn every_per_layer_metric_is_produced_even_by_an_idle_trace() {
        let produced = from_trace(&Tracer::new(), 1.0);
        for (name, _, _) in per_layer() {
            let needs_untraced = [
                "core.pipeline.other_s",
                "core.batch.warm_overhead_s",
                "trace.overhead_share",
            ]
            .contains(&name.as_str());
            assert!(
                needs_untraced || produced.contains_key(&name),
                "{name} is not produced from the trace"
            );
        }
        assert!(produced.values().all(|v| *v == 0.0));
    }
}
