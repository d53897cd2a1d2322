//! The one fault plan: every deterministic fault a run can inject.
//!
//! A [`FaultPlan`] is plain data, so a failing run reproduces from the same
//! plan, or from the seed of [`FaultPlan::seeded`]. Under the default
//! degrade policy every injected fault must end in a valid result, never a
//! panic or an invalid program. Each injection site reads the plan it is
//! handed, in place; sites are named by the benchmark's spans:
//!
//! | site                | fields                                                        |
//! |---------------------|---------------------------------------------------------------|
//! | `gpusim.profile`    | `corrupt_metadata`                                            |
//! | `search.islands`    | `poison_evaluations`, the `islands` section                   |
//! | `codegen.transform` | `reject_groups`, `panic_groups`, `reject_tuned_groups`        |
//! | `core.verify`       | `interpreter_trap`                                            |
//! | `cache.publish`     | the `cache` section, which a batch driver arms its store with |
//!
//! The sections, [`CacheFaults`] and [`IslandFaults`], are plain data with
//! no generator or emptiness test of their own: `Default` is "no faults".
//!
//! **Append-only draws.** [`FaultPlan::seeded`] walks one [`splitmix64`]
//! stream, and a new fault is only ever drawn after every existing draw, so
//! every historical seed keeps its mix. Draws since the group sets are
//! unconditional, so no later field depends on whether an earlier fault
//! fired; the store section is one sub-seeded draw under the same rule. A
//! retired field's draw stays in the stream, drawn and discarded.

use crate::hash::splitmix64;
use std::collections::{BTreeMap, BTreeSet};

/// A deterministic set of faults to inject into one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// `gpusim.profile`: corrupt the metadata bundle after stage 1
    /// (non-finite runtimes), as if the profiler or a programmer amendment
    /// produced garbage.
    pub corrupt_metadata: bool,
    /// `codegen.transform`: reject code generation for these fusion-group
    /// indices, as if the fuser found them infeasible.
    pub reject_groups: BTreeSet<usize>,
    /// `codegen.transform`: panic inside per-group code generation for
    /// these group indices (exercises the `catch_unwind` boundary).
    pub panic_groups: BTreeSet<usize>,
    /// `codegen.transform`: reject the block tuner's result for these group
    /// indices, temporal or spatial, so the group keeps the kernel emitted
    /// at its initial block and the tuned → untuned step fires
    /// deterministically.
    pub reject_tuned_groups: BTreeSet<usize>,
    /// `search.islands`: panic inside the objective evaluation for these
    /// evaluation indices (a "poisoned candidate"). Evaluations are indexed
    /// `(island << 40) | island-local count`, so a one-island run's indices
    /// are simply its evaluation count.
    pub poison_evaluations: BTreeSet<u64>,
    /// `core.verify`: make the verification interpreter trap instead of
    /// producing output.
    pub interpreter_trap: bool,
    /// `cache.publish`: the plan store's faults. The pipeline never reads
    /// them (a store fault cannot change a compiled plan); the batch driver
    /// arms its store with them.
    pub cache: CacheFaults,
    /// `search.islands`: the supervised search's faults, read by every run,
    /// `islands = 1` included (a torn checkpoint needs a checkpoint path to
    /// bite).
    pub islands: IslandFaults,
}

/// The plan store's section of a [`FaultPlan`]. The corruption faults
/// (torn write, bit flip, version skew) strike a committed entry *after* a
/// successful publish — what a crash or bit rot does between the write and
/// the next read; the others strike inside the write protocol. Each fires
/// at most once per store instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheFaults {
    /// Truncate the published entry file, as a crash between `write` and
    /// `fsync` would. The value picks the cut point (modded into range).
    pub torn_write: Option<u32>,
    /// Flip one bit of the published entry file (bit index modded into
    /// range) — bit rot, or a partial sector write.
    pub bit_flip: Option<u32>,
    /// Rewrite the published entry's schema-version header, as if a build
    /// speaking a different cache schema had written it.
    pub version_skew: bool,
    /// Plant a dead writer's lock file before the first publish, so the
    /// stale-lock breaking path runs.
    pub stale_lock: bool,
    /// Simulate a process kill at the N-th write-protocol step. The store
    /// stops dead, leaving temp files and locks behind as a real crash
    /// would.
    pub kill_at_step: Option<u32>,
    /// Fail the next publish with an injected `ENOSPC` before a byte
    /// reaches the temp file. Committed entries are untouched.
    pub enospc_write: bool,
    /// Write only a prefix of the entry to the temp file and then fail, as
    /// a disk that fills mid-write does.
    pub short_write: bool,
}

/// The supervised island search's section of a [`FaultPlan`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IslandFaults {
    /// Island index → island-local generation at which its epoch panics.
    pub panic_at: BTreeMap<usize, usize>,
    /// Island index → island-local generation at which its epoch stalls
    /// (reported as a supervision-budget overrun, not a panic).
    pub stall_at: BTreeMap<usize, usize>,
    /// Tear the checkpoint written at this epoch (truncated payload; the
    /// next resume must detect and reject it).
    pub torn_checkpoint_at_epoch: Option<usize>,
    /// Simulate a crash: stop the search right after the checkpoint of
    /// this epoch is written.
    pub kill_at_epoch: Option<usize>,
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

    /// Derive a pseudo-random fault mix from a seed. Same seed, same plan —
    /// a harness logs only the seed to reproduce a failure. Group and
    /// generation targets stay small so they land inside short runs.
    pub fn seeded(mut seed: u64) -> FaultPlan {
        let s = &mut seed;
        let corrupt_metadata = fires(s, 4, 0).is_some();
        // The retired whole-profile failure count.
        splitmix64(s);
        let mut plan = FaultPlan {
            corrupt_metadata,
            interpreter_trap: fires(s, 5, 0).is_some(),
            ..FaultPlan::default()
        };
        for _ in 0..splitmix64(s) % 3 {
            plan.reject_groups.insert((splitmix64(s) % 4) as usize);
        }
        for _ in 0..splitmix64(s) % 3 {
            plan.panic_groups.insert((splitmix64(s) % 4) as usize);
        }
        for _ in 0..splitmix64(s) % 4 {
            plan.poison_evaluations.insert(splitmix64(s) % 200);
        }
        for _ in 0..splitmix64(s) % 3 {
            plan.reject_tuned_groups
                .insert((splitmix64(s) % 4) as usize);
        }
        // The retired measurement-noise seed and repetition failure count.
        fires(s, 3, 0);
        splitmix64(s);
        plan.cache = store_faults(splitmix64(s));
        let islands = &mut plan.islands;
        if let Some(d) = fires(s, 4, 0) {
            islands
                .panic_at
                .insert((d % 4) as usize, ((d >> 8) % 12) as usize);
        }
        if let Some(d) = fires(s, 5, 0) {
            islands
                .stall_at
                .insert((d % 4) as usize, ((d >> 8) % 12) as usize);
        }
        islands.torn_checkpoint_at_epoch = fires(s, 6, 0).map(|d| (d % 4) as usize);
        islands.kill_at_epoch = fires(s, 6, 0).map(|d| (d % 4) as usize);
        plan
    }
}

/// The store section, drawn from its own stream (seeded by one draw of the
/// plan's), every draw unconditional and appended in order.
fn store_faults(mut seed: u64) -> CacheFaults {
    let s = &mut seed;
    CacheFaults {
        torn_write: fires(s, 4, 0).map(|d| d as u32),
        bit_flip: fires(s, 4, 1).map(|d| d as u32),
        version_skew: fires(s, 5, 0).is_some(),
        stale_lock: fires(s, 4, 2).is_some(),
        kill_at_step: fires(s, 5, 3).map(|d| (d % 8) as u32),
        enospc_write: fires(s, 5, 1).is_some(),
        short_write: fires(s, 6, 2).is_some(),
    }
}

/// One draw of the stream at `s` that fires when it is `hit` modulo `m`:
/// the draw's remaining bits (above the low byte), or `None`.
fn fires(s: &mut u64, m: u64, hit: u64) -> Option<u64> {
    let draw = splitmix64(s);
    (draw % m == hit).then_some(draw >> 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drawn values of five seeds, every section included, as the build
    /// before the plan moved into this crate drew them. A change here moves
    /// every seeded golden row and every fuzz seed's fault mix.
    #[test]
    fn seeded_plans_keep_their_historical_draws() {
        let expected = [
            (
                0,
                FaultPlan {
                    corrupt_metadata: false,
                    reject_groups: BTreeSet::from([3]),
                    panic_groups: BTreeSet::new(),
                    reject_tuned_groups: BTreeSet::from([1, 2]),
                    poison_evaluations: BTreeSet::from([140]),
                    interpreter_trap: false,
                    cache: CacheFaults {
                        torn_write: Some(1060389376),
                        bit_flip: None,
                        version_skew: true,
                        stale_lock: false,
                        kill_at_step: None,
                        enospc_write: false,
                        short_write: false,
                    },
                    islands: IslandFaults {
                        panic_at: BTreeMap::new(),
                        stall_at: BTreeMap::new(),
                        torn_checkpoint_at_epoch: None,
                        kill_at_epoch: None,
                    },
                },
            ),
            (
                1,
                FaultPlan {
                    corrupt_metadata: false,
                    reject_groups: BTreeSet::from([0, 1]),
                    panic_groups: BTreeSet::new(),
                    reject_tuned_groups: BTreeSet::from([1]),
                    poison_evaluations: BTreeSet::from([120]),
                    interpreter_trap: true,
                    cache: CacheFaults {
                        torn_write: None,
                        bit_flip: None,
                        version_skew: false,
                        stale_lock: false,
                        kill_at_step: None,
                        enospc_write: true,
                        short_write: true,
                    },
                    islands: IslandFaults {
                        panic_at: BTreeMap::from([(3, 4)]),
                        stall_at: BTreeMap::new(),
                        torn_checkpoint_at_epoch: None,
                        kill_at_epoch: None,
                    },
                },
            ),
            (
                7,
                FaultPlan {
                    corrupt_metadata: false,
                    reject_groups: BTreeSet::new(),
                    panic_groups: BTreeSet::from([1]),
                    reject_tuned_groups: BTreeSet::from([0, 3]),
                    poison_evaluations: BTreeSet::from([182, 185]),
                    interpreter_trap: false,
                    cache: CacheFaults {
                        torn_write: None,
                        bit_flip: None,
                        version_skew: false,
                        stale_lock: false,
                        kill_at_step: None,
                        enospc_write: false,
                        short_write: false,
                    },
                    islands: IslandFaults {
                        panic_at: BTreeMap::from([(1, 3)]),
                        stall_at: BTreeMap::new(),
                        torn_checkpoint_at_epoch: None,
                        kill_at_epoch: None,
                    },
                },
            ),
            (
                42,
                FaultPlan {
                    corrupt_metadata: false,
                    reject_groups: BTreeSet::new(),
                    panic_groups: BTreeSet::from([2]),
                    reject_tuned_groups: BTreeSet::from([2]),
                    poison_evaluations: BTreeSet::from([108]),
                    interpreter_trap: false,
                    cache: CacheFaults {
                        torn_write: Some(2578525853),
                        bit_flip: None,
                        version_skew: false,
                        stale_lock: false,
                        kill_at_step: None,
                        enospc_write: false,
                        short_write: true,
                    },
                    islands: IslandFaults {
                        panic_at: BTreeMap::new(),
                        stall_at: BTreeMap::new(),
                        torn_checkpoint_at_epoch: None,
                        kill_at_epoch: None,
                    },
                },
            ),
            (
                511,
                FaultPlan {
                    corrupt_metadata: false,
                    reject_groups: BTreeSet::new(),
                    panic_groups: BTreeSet::new(),
                    reject_tuned_groups: BTreeSet::new(),
                    poison_evaluations: BTreeSet::new(),
                    interpreter_trap: true,
                    cache: CacheFaults {
                        torn_write: Some(4169210372),
                        bit_flip: None,
                        version_skew: false,
                        stale_lock: false,
                        kill_at_step: None,
                        enospc_write: true,
                        short_write: false,
                    },
                    islands: IslandFaults {
                        panic_at: BTreeMap::new(),
                        stall_at: BTreeMap::new(),
                        torn_checkpoint_at_epoch: None,
                        kill_at_epoch: None,
                    },
                },
            ),
        ];
        for (seed, plan) in expected {
            assert_eq!(FaultPlan::seeded(seed), plan, "seed {seed}");
        }
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in 0..64 {
            assert_eq!(FaultPlan::seeded(seed), FaultPlan::seeded(seed));
        }
        // Different seeds produce different mixes somewhere in this range.
        assert!((0..64).any(|s| FaultPlan::seeded(s) != FaultPlan::seeded(s + 64)));
    }

    /// No fault kind may be dead weight in the generator: each must fire
    /// for some seed in a modest range, or the fuzzing corpus silently
    /// stops covering it — and none may fire always.
    #[test]
    fn every_fault_kind_is_reachable_over_a_seed_range() {
        type Fires = fn(&FaultPlan) -> bool;
        let plans: Vec<FaultPlan> = (0..512).map(FaultPlan::seeded).collect();
        let kinds: [(&str, Fires); 17] = [
            ("corrupt_metadata", |p| p.corrupt_metadata),
            ("reject_groups", |p| !p.reject_groups.is_empty()),
            ("panic_groups", |p| !p.panic_groups.is_empty()),
            ("reject_tuned_groups", |p| !p.reject_tuned_groups.is_empty()),
            ("poison_evaluations", |p| !p.poison_evaluations.is_empty()),
            ("interpreter_trap", |p| p.interpreter_trap),
            ("cache.torn_write", |p| p.cache.torn_write.is_some()),
            ("cache.bit_flip", |p| p.cache.bit_flip.is_some()),
            ("cache.version_skew", |p| p.cache.version_skew),
            ("cache.stale_lock", |p| p.cache.stale_lock),
            ("cache.kill_at_step", |p| p.cache.kill_at_step.is_some()),
            ("cache.enospc_write", |p| p.cache.enospc_write),
            ("cache.short_write", |p| p.cache.short_write),
            ("islands.panic_at", |p| !p.islands.panic_at.is_empty()),
            ("islands.stall_at", |p| !p.islands.stall_at.is_empty()),
            ("islands.torn_checkpoint_at_epoch", |p| {
                p.islands.torn_checkpoint_at_epoch.is_some()
            }),
            ("islands.kill_at_epoch", |p| {
                p.islands.kill_at_epoch.is_some()
            }),
        ];
        for (name, fires) in kinds {
            assert!(plans.iter().any(fires), "{name} never drawn");
            assert!(!plans.iter().all(fires), "{name} drawn for every seed");
        }
        assert!(
            plans.iter().any(|p| p.cache == CacheFaults::default()),
            "no store-fault-free seed"
        );
        assert!(
            plans.iter().any(|p| p.islands == IslandFaults::default()),
            "no island-fault-free seed"
        );
    }

    mod properties {
        use super::super::FaultPlan;
        use proptest::prelude::*;

        proptest! {
            /// Seed determinism over arbitrary u64 seeds, not just a small
            /// dense range.
            #[test]
            fn seeded_plans_are_deterministic_for_any_seed(seed in 0u64..u64::MAX) {
                prop_assert_eq!(FaultPlan::seeded(seed), FaultPlan::seeded(seed));
            }

            /// Bounds the generator promises: group indices stay small and
            /// budgets bounded, so injected faults always target plausible
            /// entities.
            #[test]
            fn seeded_plans_stay_in_bounds(seed in 0u64..u64::MAX) {
                let p = FaultPlan::seeded(seed);
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
