//! The GA parameter file (§3.2.4): "a parameter input file for the
//! optimization algorithm is required. The parameter file configures the
//! population, genetic operators, generations, and constraints. There is a
//! default parameter file provided."
//!
//! `SearchConfig` serializes to/from JSON so the pipeline can emit the
//! default file (`sfc --emit-params`) and the programmer can amend it and
//! pass it back (`sfc --params`).

use serde::{Deserialize, Serialize};
use sf_plan::CodegenMode;

/// GA configuration. Defaults follow the paper's evaluation settings
/// (population 100, 500 generations).
///
/// This is the one home of the search's settings, penalty weights
/// included: the objective, the greedy seeds and the island loop read them
/// here. A pipeline run stamps `mode` and `block_tuning` with its own
/// (`sfc --mode`, `--no-tuning`) and zeroes the fission rates under
/// `--no-fission` (`PipelineConfig::search_config`), so a parameter file's
/// values for those never reach the search. `sfc --emit-params` writes the
/// stamped parameters of a default run, so its `"block_tuning"` is `true`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct SearchConfig {
    pub population: usize,
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Number of elites copied unchanged each generation.
    pub elites: usize,
    /// Probability of applying group-injection crossover to an offspring.
    pub crossover_rate: f64,
    /// Per-offspring mutation probabilities.
    pub p_merge: f64,
    pub p_split: f64,
    pub p_move: f64,
    /// Lazy fission / defission move probabilities (0 disables fission).
    pub p_fission: f64,
    pub p_defission: f64,
    /// Shared-memory penalty multipliers (§4.1): soft for a violating group
    /// with a fission escape, hard for one without.
    pub penalty_soft: f64,
    pub penalty_hard: f64,
    /// Random-merge steps used to seed each initial individual.
    pub init_merges: usize,
    /// RNG seed (the framework is deterministic given a seed).
    pub seed: u64,
    /// Stop early when the best fitness has not improved for this many
    /// generations (0 disables early stopping).
    pub stagnation_window: usize,
    /// Watchdog: wall-clock budget for the whole search, in milliseconds
    /// (0 = unlimited). Checked at generation boundaries, so a given seed's
    /// trajectory is unchanged — only where it stops can vary.
    pub max_wall_ms: u64,
    /// Watchdog: objective-evaluation budget (0 = unlimited), also checked
    /// at generation boundaries.
    pub max_evaluations: u64,
    /// Codegen mode stamped into the lowered [`sf_plan::TransformPlan`]
    /// (automated vs programmer-guided run); a pipeline run sets it.
    pub mode: CodegenMode,
    /// Whether the lowered plan requests block-size tuning from codegen; a
    /// pipeline run sets it.
    pub block_tuning: bool,
    /// Number of islands the population is sharded into. Every run goes
    /// through the one supervised island loop (`crate::islands`): 1 is the
    /// classic GGA as a single island on the run seed's own RNG stream;
    /// more add per-island streams, seeded migration and a canonical merge
    /// — deterministic per seed regardless of the worker thread count.
    pub islands: usize,
    /// Generations per migration epoch: islands exchange elites (and
    /// checkpoints are written) every this many generations.
    pub migration_interval: usize,
    /// Elites each island sends to its ring neighbor at a migration epoch.
    pub migrants: usize,
    /// Highest temporal-blocking degree the search may assign to a fusion
    /// group that covers an entire recorded host time loop. 1 disables the
    /// temporal dimension entirely and reproduces the pre-temporal search
    /// byte for byte.
    pub max_temporal: u32,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            population: 100,
            generations: 500,
            tournament: 3,
            elites: 4,
            crossover_rate: 0.7,
            p_merge: 0.5,
            p_split: 0.15,
            p_move: 0.25,
            p_fission: 0.15,
            p_defission: 0.05,
            penalty_soft: 0.85,
            penalty_hard: 0.40,
            init_merges: 3,
            seed: 20150615, // HPDC'15
            stagnation_window: 0,
            max_wall_ms: 0,
            max_evaluations: 0,
            mode: CodegenMode::Auto,
            block_tuning: false,
            islands: 1,
            migration_interval: 8,
            migrants: 2,
            max_temporal: 1,
        }
    }
}

impl SearchConfig {
    /// A scaled-down configuration for unit tests and examples.
    pub fn quick() -> SearchConfig {
        SearchConfig {
            population: 24,
            generations: 60,
            stagnation_window: 20,
            ..SearchConfig::default()
        }
    }

    /// The differential fuzzer's configuration: small enough that hundreds
    /// of generated programs search in bounded time, with both watchdogs
    /// disabled so a seed's search trajectory is a pure function of the
    /// seed (wall-clock cutoffs would make reruns diverge).
    pub fn fuzz(seed: u64) -> SearchConfig {
        SearchConfig {
            population: 12,
            generations: 24,
            stagnation_window: 8,
            seed,
            ..SearchConfig::default()
        }
    }

    /// Disable kernel fission entirely (the "fusion only" ablation of
    /// Figures 4–5).
    pub fn without_fission(mut self) -> SearchConfig {
        self.p_fission = 0.0;
        self.p_defission = 0.0;
        self
    }

    /// Shard the population across `n` supervised islands (1 = the whole
    /// population on one island, the classic GGA).
    pub fn with_islands(mut self, n: usize) -> SearchConfig {
        self.islands = n.max(1);
        self
    }

    /// Reduced-budget preset for the plan-port path: the search starts
    /// from a known-good elite-injected genome, so it needs a short
    /// re-tuning pass, not a from-scratch schedule. Generations drop to a
    /// third and a tight stagnation window lets an already-optimal seed
    /// stop almost immediately.
    pub fn for_port(mut self) -> SearchConfig {
        self.generations = (self.generations / 3).max(1);
        self.stagnation_window = if self.stagnation_window == 0 {
            8
        } else {
            (self.stagnation_window / 3).max(1)
        };
        if self.max_evaluations > 0 {
            self.max_evaluations = (self.max_evaluations / 3).max(1);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_as_parameter_file() {
        let c = SearchConfig::default();
        let text = serde_json::to_string_pretty(&c).unwrap();
        let c2: SearchConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn paper_defaults() {
        let c = SearchConfig::default();
        assert_eq!(c.population, 100);
        assert_eq!(c.generations, 500);
    }

    #[test]
    fn watchdog_defaults_are_unlimited() {
        let c = SearchConfig::default();
        assert_eq!(c.max_wall_ms, 0);
        assert_eq!(c.max_evaluations, 0);
    }

    #[test]
    fn without_fission_zeroes_moves() {
        let c = SearchConfig::default().without_fission();
        assert_eq!(c.p_fission, 0.0);
        assert_eq!(c.p_defission, 0.0);
    }

    #[test]
    fn island_defaults_are_one_island() {
        let c = SearchConfig::default();
        assert_eq!(c.islands, 1);
        assert!(c.migration_interval > 0);
        assert!(c.migrants > 0);
        assert_eq!(SearchConfig::default().with_islands(0).islands, 1);
        assert_eq!(SearchConfig::default().with_islands(4).islands, 4);
    }
}
