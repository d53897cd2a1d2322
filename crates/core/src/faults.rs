//! Deterministic fault injection at stage boundaries.
//!
//! A [`FaultPlan`] describes *which* faults to inject; it is plain data, so a
//! failing run can be reproduced exactly by re-running with the same plan
//! (and the same seed when the plan was derived with [`FaultPlan::seeded`]).
//! The pipeline reads the plan at each stage boundary (the only run-time
//! state is its count of profiler failures left to fire); under
//! [`crate::config::DegradePolicy::Degrade`] every injected fault must
//! degrade into a valid result — either a verified transformed program or
//! the original program unchanged — never a panic or an invalid program.

use sf_analysis::metadata::MetadataBundle;
use std::collections::BTreeSet;

/// A deterministic set of faults to inject into one pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Corrupt the metadata bundle after stage 1 (non-finite runtimes), as
    /// if the profiler or a programmer amendment produced garbage.
    pub corrupt_metadata: bool,
    /// Fail this many profiler invocations (transient errors) before
    /// letting them succeed.
    pub profiler_failures: u32,
    /// Reject code generation for these fusion-group indices, as if the
    /// fuser found them infeasible.
    pub reject_groups: BTreeSet<usize>,
    /// Panic inside per-group code generation for these group indices
    /// (exercises the `catch_unwind` isolation boundary).
    pub panic_groups: BTreeSet<usize>,
    /// Reject only the *tuned* fusion attempt for these group indices, so
    /// the tuned → untuned ladder rung can be exercised deterministically
    /// (the untuned attempt then succeeds).
    pub reject_tuned_groups: BTreeSet<usize>,
    /// Panic inside the objective evaluation for these evaluation indices
    /// (a "poisoned candidate" in the genetic search).
    pub poison_evaluations: BTreeSet<u64>,
    /// Make the verification interpreter trap instead of producing output.
    pub interpreter_trap: bool,
    /// Run the whole pipeline under a standard measurement-noise model with
    /// this seed, as if the profiler ran on a loaded machine
    /// ([`sf_gpusim::noise::NoiseModel::standard`]).
    pub noise_seed: Option<u64>,
    /// Fail this many individual profiling *repetitions* inside the robust
    /// profiler (per-rep transients, retried with virtual backoff) on each
    /// profiling invocation.
    pub rep_failures: u32,
    /// Faults injected into the plan cache (torn write, bit flip, version
    /// skew, stale lock, kill-at-write-step) — exercised by the batch
    /// driver and the fuzz oracle; the pipeline itself ignores them.
    pub cache: sf_cache::CacheFaults,
    /// Faults injected into the supervised island search (island panic,
    /// island stall, torn checkpoint, kill-after-checkpoint) — consumed by
    /// the search stage on every run, `islands = 1` included (a torn
    /// checkpoint needs a checkpoint path to bite).
    pub islands: sf_search::IslandFaults,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Corrupt `metadata` in place when the plan asks for it. Returns true
    /// when a corruption was applied.
    pub(crate) fn corrupt(&self, metadata: &mut MetadataBundle) -> bool {
        if self.corrupt_metadata {
            for p in &mut metadata.perf {
                p.runtime_us = f64::NAN;
                p.occupancy = -1.0;
            }
        }
        self.corrupt_metadata
    }

    /// Derive a pseudo-random fault mix from a seed. Same seed, same plan —
    /// the harness logs only the seed to reproduce a failure.
    pub fn seeded(seed: u64) -> FaultPlan {
        // SplitMix64: tiny, deterministic, no external dependency.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan {
            corrupt_metadata: next() % 4 == 0,
            profiler_failures: (next() % 3) as u32,
            interpreter_trap: next() % 5 == 0,
            ..FaultPlan::default()
        };
        for _ in 0..next() % 3 {
            plan.reject_groups.insert((next() % 4) as usize);
        }
        for _ in 0..next() % 3 {
            plan.panic_groups.insert((next() % 4) as usize);
        }
        for _ in 0..next() % 4 {
            plan.poison_evaluations.insert(next() % 200);
        }
        // Appended after the original draws so existing seeds keep their
        // historical fault mixes for the earlier fields.
        for _ in 0..next() % 3 {
            plan.reject_tuned_groups.insert((next() % 4) as usize);
        }
        // Appended after the reject_tuned_groups draws, same convention.
        // The noise-seed draw is unconditional so the draw count (and thus
        // every later field) never depends on an earlier value.
        let noise_draw = next();
        if noise_draw % 3 == 0 {
            plan.noise_seed = Some(noise_draw >> 8);
        }
        plan.rep_failures = (next() % 3) as u32;
        // Appended after all earlier draws (same convention): one
        // unconditional draw feeds the cache-fault sub-generator, so every
        // historical seed keeps its fault mix for the fields above.
        plan.cache = sf_cache::CacheFaults::seeded(next());
        // Island faults: four unconditional draws appended after the cache
        // draw, same convention. Generation/epoch targets stay small so
        // they land inside the fuzzer's short island schedules.
        let island_panic = next();
        if island_panic % 4 == 0 {
            plan.islands.panic_at.insert(
                ((island_panic >> 8) % 4) as usize,
                ((island_panic >> 16) % 12) as usize,
            );
        }
        let island_stall = next();
        if island_stall % 5 == 0 {
            plan.islands.stall_at.insert(
                ((island_stall >> 8) % 4) as usize,
                ((island_stall >> 16) % 12) as usize,
            );
        }
        let torn_ckpt = next();
        if torn_ckpt % 6 == 0 {
            plan.islands.torn_checkpoint_at_epoch = Some(((torn_ckpt >> 8) % 4) as usize);
        }
        let island_kill = next();
        if island_kill % 6 == 0 {
            plan.islands.kill_at_epoch = Some(((island_kill >> 8) % 4) as usize);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in 0..64 {
            assert_eq!(FaultPlan::seeded(seed), FaultPlan::seeded(seed));
        }
        // Different seeds produce different mixes somewhere in this range.
        assert!((0..64).any(|s| FaultPlan::seeded(s) != FaultPlan::seeded(s + 64)));
    }

    #[test]
    fn every_fault_kind_is_reachable_over_a_seed_range() {
        // Satellite: no fault kind may be dead weight in the seeded
        // generator — each must fire for at least one seed in a modest
        // range, or the fuzzing corpus silently stops covering it.
        let plans: Vec<FaultPlan> = (0..512).map(FaultPlan::seeded).collect();
        assert!(plans.iter().any(|p| p.corrupt_metadata), "corrupt_metadata never drawn");
        assert!(plans.iter().any(|p| p.profiler_failures > 0), "profiler_failures never drawn");
        assert!(plans.iter().any(|p| p.interpreter_trap), "interpreter_trap never drawn");
        assert!(plans.iter().any(|p| !p.reject_groups.is_empty()), "reject_groups never drawn");
        assert!(plans.iter().any(|p| !p.panic_groups.is_empty()), "panic_groups never drawn");
        assert!(
            plans.iter().any(|p| !p.poison_evaluations.is_empty()),
            "poison_evaluations never drawn"
        );
        assert!(
            plans.iter().any(|p| !p.reject_tuned_groups.is_empty()),
            "reject_tuned_groups never drawn"
        );
        assert!(plans.iter().any(|p| p.noise_seed.is_some()), "noise_seed never drawn");
        assert!(plans.iter().any(|p| p.rep_failures > 0), "rep_failures never drawn");
        // Cache faults: every kind reachable through the seeded plan too.
        assert!(plans.iter().any(|p| p.cache.torn_write.is_some()), "cache torn_write never drawn");
        assert!(plans.iter().any(|p| p.cache.bit_flip.is_some()), "cache bit_flip never drawn");
        assert!(plans.iter().any(|p| p.cache.version_skew), "cache version_skew never drawn");
        assert!(plans.iter().any(|p| p.cache.stale_lock), "cache stale_lock never drawn");
        assert!(
            plans.iter().any(|p| p.cache.kill_at_step.is_some()),
            "cache kill_at_step never drawn"
        );
        // Island faults: every kind reachable through the seeded plan.
        assert!(
            plans.iter().any(|p| !p.islands.panic_at.is_empty()),
            "island panic_at never drawn"
        );
        assert!(
            plans.iter().any(|p| !p.islands.stall_at.is_empty()),
            "island stall_at never drawn"
        );
        assert!(
            plans.iter().any(|p| p.islands.torn_checkpoint_at_epoch.is_some()),
            "island torn_checkpoint_at_epoch never drawn"
        );
        assert!(
            plans.iter().any(|p| p.islands.kill_at_epoch.is_some()),
            "island kill_at_epoch never drawn"
        );
        // And none fires always: plans must also be fault-free sometimes
        // per kind, or every fuzz run carries the same forced fault.
        assert!(plans.iter().any(|p| !p.corrupt_metadata));
        assert!(plans.iter().any(|p| p.noise_seed.is_none()));
        assert!(plans.iter().any(|p| p.rep_failures == 0));
        assert!(plans.iter().any(|p| p.cache.is_empty()));
        assert!(plans.iter().any(|p| p.islands.is_empty()));
    }

    mod properties {
        use super::super::FaultPlan;
        use proptest::prelude::*;

        proptest! {
            /// Satellite: seed determinism over arbitrary u64 seeds, not
            /// just a small dense range.
            #[test]
            fn seeded_plans_are_deterministic_for_any_seed(seed in 0u64..u64::MAX) {
                prop_assert_eq!(FaultPlan::seeded(seed), FaultPlan::seeded(seed));
            }

            /// Bounds the generator promises: group indices stay small and
            /// budgets bounded, so injected faults always target plausible
            /// pipeline entities.
            #[test]
            fn seeded_plans_stay_in_bounds(seed in 0u64..u64::MAX) {
                let p = FaultPlan::seeded(seed);
                prop_assert!(p.profiler_failures < 3);
                prop_assert!(p.rep_failures < 3);
                prop_assert!(p.reject_groups.iter().all(|&g| g < 4));
                prop_assert!(p.panic_groups.iter().all(|&g| g < 4));
                prop_assert!(p.reject_tuned_groups.iter().all(|&g| g < 4));
                prop_assert!(p.poison_evaluations.iter().all(|&e| e < 200));
                prop_assert!(p.cache.kill_at_step.is_none_or(|s| s < 8));
                prop_assert!(p.islands.panic_at.iter().all(|(&i, &g)| i < 4 && g < 12));
                prop_assert!(p.islands.stall_at.iter().all(|(&i, &g)| i < 4 && g < 12));
                prop_assert!(p.islands.torn_checkpoint_at_epoch.is_none_or(|e| e < 4));
                prop_assert!(p.islands.kill_at_epoch.is_none_or(|e| e < 4));
            }
        }
    }
}
