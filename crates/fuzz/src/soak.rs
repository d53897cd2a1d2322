//! The chaos-soak harness (`sf-fuzz --soak`): a long-running, fully seeded
//! stress run that drives hostile and benign requests through the batch
//! driver concurrently, with every fault family armed at once — one
//! seeded fault plan per chaos round, whose stage faults the pipeline reads
//! and whose store faults (torn writes, bit flips, kills, ENOSPC, short
//! writes) the driver arms its store with — plus a byte quota forcing
//! eviction and the service resource budget.
//!
//! The run is a sequence of "process lifetimes": each round opens a fresh
//! [`BatchDriver`] over the *same* store directory (the crash/reboot
//! boundary), so state left behind by one round's kills and tears is the
//! next round's recovery problem. Rounds alternate:
//!
//! - **benign rounds** (fault-free): every request must succeed and its
//!   plan must be **byte-identical** to the fault-free reference run;
//! - **chaos rounds** (seeded faults + hostile archetypes): failures must
//!   be structured (never a panic), compile bombs must be rejected by the
//!   resource governor, and the store must verify clean afterwards.
//!
//! Violations are structured ([`SoakViolation`] names the round, the check,
//! and the evidence) so a CI failure pinpoints the broken invariant; the
//! soak directory is left in place for artifact upload.

use crate::hostile::{self, Archetype};
use crate::{gen, oracle, GenConfig};
use sf_core::{splitmix64, Limits, ResourceGovernor, RESOURCE_KINDS};
use sf_minicuda::printer::print_program;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use stencilfuse::{BatchDriver, BatchOptions, BatchRequest, BatchStatus, FaultPlan};

/// Soak-run knobs (`sf-fuzz --soak ...`).
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Master seed: the whole run is a pure function of it.
    pub seed: u64,
    /// Round count (0 = the default of 8; the wall cap can stop earlier).
    pub rounds: usize,
    /// Wall-clock cap in seconds (0 = uncapped). Checked between rounds,
    /// so a round in flight always finishes and stays deterministic.
    pub max_wall_secs: u64,
    /// Store directory shared by every round (the persistent state the
    /// chaos is trying to corrupt). Left in place on failure.
    pub dir: PathBuf,
    /// Assert the *process-wide* governor high-water marks stay within the
    /// service budget at the end. On for the `sf-fuzz` binary (the process
    /// is ours); off when soaking inside a shared test process, where
    /// unrelated tests charge the same root governor.
    pub strict_high_water: bool,
}

impl SoakConfig {
    /// The binary's defaults for a given seed and scratch directory.
    pub fn new(seed: u64, dir: PathBuf) -> SoakConfig {
        SoakConfig {
            seed,
            rounds: 0,
            max_wall_secs: 0,
            dir,
            strict_high_water: true,
        }
    }
}

/// A broken soak invariant: which round, which check, what happened.
#[derive(Debug, Clone)]
pub struct SoakViolation {
    /// Round index (`usize::MAX` for the reference / final phases).
    pub round: usize,
    /// Short name of the violated invariant.
    pub check: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl SoakViolation {
    fn new(round: usize, check: &'static str, detail: impl Into<String>) -> SoakViolation {
        SoakViolation {
            round,
            check,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SoakViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.round == usize::MAX {
            write!(f, "[{}] {}", self.check, self.detail)
        } else {
            write!(f, "round {}: [{}] {}", self.round, self.check, self.detail)
        }
    }
}

/// What a completed soak did — printed by the binary, asserted by tests.
#[derive(Debug, Default)]
pub struct SoakReport {
    /// Rounds actually run (wall cap may stop early).
    pub rounds: usize,
    /// Requests processed across all rounds.
    pub requests: usize,
    /// Benign requests that succeeded with the byte-identical plan.
    pub benign_identical: usize,
    /// Hostile requests rejected by the resource governor.
    pub hostile_rejected: usize,
    /// Structured benign failures under chaos (tolerated, counted).
    pub tolerated_failures: usize,
    /// Cache-level recoveries (quarantine + recompile) observed.
    pub recoveries: usize,
    /// Entries evicted by the byte quota across all rounds.
    pub evicted: u64,
    /// Entries quarantined by per-round integrity sweeps.
    pub quarantined: u64,
    /// Process-governor high-water marks at the end, `(kind, used, cap)`.
    pub high_water: Vec<(&'static str, u64, Option<u64>)>,
}

impl SoakReport {
    /// One-line summary for the binary's stdout.
    pub fn summary(&self) -> String {
        format!(
            "{} round(s), {} request(s): {} benign identical, {} hostile rejected, \
             {} tolerated failure(s), {} recovery(ies), {} evicted, {} quarantined",
            self.rounds,
            self.requests,
            self.benign_identical,
            self.hostile_rejected,
            self.tolerated_failures,
            self.recoveries,
            self.evicted,
            self.quarantined
        )
    }
}

/// How many benign programs ride in every round.
const BENIGN: usize = 3;

/// The hostile mix for chaos rounds. The two admission-stage bombs are
/// cheap (rejected before any profiling); the deep chain costs a profile
/// pass, so it rides along on every other chaos round.
const CHEAP_BOMBS: [Archetype; 2] = [Archetype::ThousandLaunches, Archetype::HugeDomain];

fn options(quota: u64) -> BatchOptions {
    BatchOptions {
        queue_limit: 64,
        // Zero so locks leaked by simulated kills are broken on "reboot"
        // (the crash-recovery convention of the cache tests).
        lock_timeout: Duration::ZERO,
        cache_quota: Some(quota),
        ..BatchOptions::default()
    }
}

/// Run the soak. `Ok` carries the report; `Err` is the first violated
/// invariant (the store directory is left in place as evidence).
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, SoakViolation> {
    let start = Instant::now();
    let wall_capped = || cfg.max_wall_secs > 0 && start.elapsed().as_secs() >= cfg.max_wall_secs;
    let rounds = if cfg.rounds == 0 { 8 } else { cfg.rounds };
    let mut rng = cfg.seed;
    let mut report = SoakReport::default();

    // Quota sized to hold a few plans: chaos rounds have per-round cache
    // fingerprints (the plan's stage faults are part of the key), so the
    // namespace grows every round and the quota must actually evict.
    let quota: u64 = 48 * 1024;

    // The benign corpus (seeded off the master seed) and the hostile mix.
    let corpus: Vec<(String, String)> = (0..BENIGN)
        .map(|i| {
            let g = gen::generate(cfg.seed.wrapping_add(i as u64), &GenConfig::default());
            (format!("benign-{i}"), print_program(&g.program))
        })
        .collect();
    let base_config = || oracle::config(cfg.seed).with_budget(Limits::service());

    // ------------------------------------------------------------------
    // Reference run: fault-free, on a fresh store — the plans every
    // benign round must reproduce byte for byte.
    // ------------------------------------------------------------------
    let reference: HashMap<String, Option<String>> = {
        let mut driver = BatchDriver::new(&cfg.dir, base_config(), options(quota))
            .map_err(|e| SoakViolation::new(usize::MAX, "reference-open", e.to_string()))?;
        for (name, source) in &corpus {
            driver
                .submit(BatchRequest::new(name.clone(), source.clone()))
                .map_err(|r| SoakViolation::new(usize::MAX, "reference-admit", r.to_string()))?;
        }
        let rep = driver.run();
        report.requests += rep.outcomes.len();
        let mut plans = HashMap::new();
        for o in rep.outcomes {
            if matches!(o.status, BatchStatus::Failed | BatchStatus::OverBudget) {
                return Err(SoakViolation::new(
                    usize::MAX,
                    "reference-clean",
                    format!(
                        "reference request `{}` did not succeed: {} ({})",
                        o.name,
                        o.status.label(),
                        o.error.map(|e| e.to_string()).unwrap_or_default()
                    ),
                ));
            }
            plans.insert(o.name, o.plan_json);
        }
        plans
    };

    // ------------------------------------------------------------------
    // Rounds: each one a fresh "process lifetime" over the same store.
    // ------------------------------------------------------------------
    for round in 0..rounds {
        if wall_capped() {
            break;
        }
        let round_seed = splitmix64(&mut rng);
        let chaos = round % 2 == 1;
        // One plan arms both the pipeline and the driver's store.
        let config = if chaos {
            base_config().with_faults(FaultPlan::seeded(round_seed))
        } else {
            base_config()
        };
        let mut driver = BatchDriver::new(&cfg.dir, config, options(quota))
            .map_err(|e| SoakViolation::new(round, "round-open", e.to_string()))?;

        for (name, source) in &corpus {
            driver
                .submit(BatchRequest::new(name.clone(), source.clone()))
                .map_err(|r| SoakViolation::new(round, "benign-admit", r.to_string()))?;
        }
        if chaos {
            let mut bombs: Vec<Archetype> = CHEAP_BOMBS.to_vec();
            if round % 4 == 1 {
                bombs.push(Archetype::DeepChain);
            }
            for bomb in bombs {
                driver
                    .submit(BatchRequest::new(
                        format!("hostile-{}", bomb.name()),
                        hostile::source(bomb),
                    ))
                    .map_err(|r| SoakViolation::new(round, "hostile-admit", r.to_string()))?;
            }
        }

        let rep = driver.run();
        report.requests += rep.outcomes.len();
        for o in &rep.outcomes {
            let label = o.error.as_ref().map(|e| e.kind.label()).unwrap_or("");
            if label == "panic" {
                return Err(SoakViolation::new(
                    round,
                    "no-panic",
                    format!(
                        "request `{}` surfaced a caught panic: {:?}",
                        o.name, o.error
                    ),
                ));
            }
            if matches!(o.status, BatchStatus::Recovered(_)) {
                report.recoveries += 1;
            }
            if o.name.starts_with("hostile-") {
                // A compile bomb must never succeed, hang, or fail in an
                // unstructured way. The admission-stage bombs are rejected
                // before fault injection can even run, so they must carry
                // resource attribution even mid-chaos; the deep chain is
                // rejected later and an injected stage fault may get there
                // first — any structured failure is in-contract for it.
                if !matches!(o.status, BatchStatus::Failed) {
                    return Err(SoakViolation::new(
                        round,
                        "hostile-rejected",
                        format!("bomb `{}` ended as `{}`", o.name, o.status.label()),
                    ));
                }
                let admission_bomb = CHEAP_BOMBS
                    .iter()
                    .any(|b| o.name == format!("hostile-{}", b.name()));
                if admission_bomb && label != "resource-exhausted" {
                    return Err(SoakViolation::new(
                        round,
                        "hostile-attribution",
                        format!(
                            "bomb `{}` failed as `{label}`, not `resource-exhausted`",
                            o.name
                        ),
                    ));
                }
                report.hostile_rejected += 1;
            } else if chaos {
                // Benign under chaos: success preferred, structured
                // failure tolerated (faults are armed), panic already
                // excluded above.
                match o.status {
                    BatchStatus::Failed | BatchStatus::OverBudget => report.tolerated_failures += 1,
                    _ => {}
                }
            } else {
                // Benign, fault-free round: must succeed and must match
                // the reference plan byte for byte.
                if matches!(o.status, BatchStatus::Failed | BatchStatus::OverBudget) {
                    return Err(SoakViolation::new(
                        round,
                        "benign-clean",
                        format!(
                            "benign `{}` failed in a fault-free round: {}",
                            o.name,
                            o.error.as_ref().map(|e| e.to_string()).unwrap_or_default()
                        ),
                    ));
                }
                if reference.get(&o.name) != Some(&o.plan_json) {
                    return Err(SoakViolation::new(
                        round,
                        "benign-identity",
                        format!(
                            "benign `{}` produced a plan differing from the reference",
                            o.name
                        ),
                    ));
                }
                report.benign_identical += 1;
            }
        }
        report.evicted += rep.stats.evicted;

        // Per-round hygiene: the store must verify (quarantining whatever
        // the round's faults damaged — counted, not fatal).
        let (_, quarantined) = driver
            .store()
            .verify_integrity()
            .map_err(|e| SoakViolation::new(round, "store-verify", e.to_string()))?;
        report.quarantined += quarantined as u64;
        report.rounds += 1;
    }

    // ------------------------------------------------------------------
    // Final reconciliation, fault-free.
    // ------------------------------------------------------------------
    let mut driver = BatchDriver::new(&cfg.dir, base_config(), options(quota))
        .map_err(|e| SoakViolation::new(usize::MAX, "final-open", e.to_string()))?;

    // Double sweep: the first quarantines stragglers, the second must be
    // completely clean — no torn state may survive in the entry namespace.
    driver
        .store()
        .verify_integrity()
        .map_err(|e| SoakViolation::new(usize::MAX, "final-verify", e.to_string()))?;
    let (_, quarantined) = driver
        .store()
        .verify_integrity()
        .map_err(|e| SoakViolation::new(usize::MAX, "final-verify", e.to_string()))?;
    if quarantined != 0 {
        return Err(SoakViolation::new(
            usize::MAX,
            "final-clean",
            format!("second integrity sweep still quarantined {quarantined} entrie(s)"),
        ));
    }

    // Benign identity one last time, over whatever cache state survived.
    for (name, source) in &corpus {
        driver
            .submit(BatchRequest::new(name.clone(), source.clone()))
            .map_err(|r| SoakViolation::new(usize::MAX, "final-admit", r.to_string()))?;
    }
    let rep = driver.run();
    report.requests += rep.outcomes.len();
    for o in rep.outcomes {
        if matches!(o.status, BatchStatus::Failed | BatchStatus::OverBudget) {
            return Err(SoakViolation::new(
                usize::MAX,
                "final-benign-clean",
                format!(
                    "final benign `{}` failed: {}",
                    o.name,
                    o.error.map(|e| e.to_string()).unwrap_or_default()
                ),
            ));
        }
        if reference.get(&o.name) != Some(&o.plan_json) {
            return Err(SoakViolation::new(
                usize::MAX,
                "final-benign-identity",
                format!("final benign `{}` plan differs from the reference", o.name),
            ));
        }
        report.benign_identical += 1;
    }
    report.evicted += rep.stats.evicted;

    // A clean publish must re-establish the byte quota no matter what
    // over-quota state the kills left behind (a kill can land between
    // rename and eviction).
    let sentinel = sf_cache::CacheKey::derive("soak-sentinel", "soak", &cfg.seed.to_string());
    driver
        .store()
        .publish(&sentinel, "{\"plan\":\"soak-sentinel\"}")
        .map_err(|e| SoakViolation::new(usize::MAX, "sentinel-publish", e.to_string()))?;
    let usage = driver.store().disk_usage();
    if usage > quota {
        return Err(SoakViolation::new(
            usize::MAX,
            "quota-bound",
            format!("store over quota after a clean publish: {usage} > {quota}"),
        ));
    }

    // Governor high-water marks: every accepted peak across the whole run,
    // as recorded by the process root.
    let service = Limits::service();
    let root = ResourceGovernor::process();
    for kind in RESOURCE_KINDS {
        let used = root.high_water(kind);
        let cap = service.limit(kind);
        report.high_water.push((kind.name(), used, cap));
        if cfg.strict_high_water {
            if let Some(cap) = cap {
                if used > cap {
                    return Err(SoakViolation::new(
                        usize::MAX,
                        "high-water",
                        format!(
                            "process high-water for `{}` exceeds the service cap: {used} > {cap}",
                            kind.name()
                        ),
                    ));
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sf-soak-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn short_soak_holds_every_invariant() {
        let dir = scratch_dir("unit");
        let cfg = SoakConfig {
            seed: 7,
            rounds: 4,
            max_wall_secs: 0,
            dir: dir.clone(),
            // This test shares its process with the rest of the suite,
            // which charges the same root governor under other budgets.
            strict_high_water: false,
        };
        let report = run_soak(&cfg).unwrap_or_else(|v| panic!("soak violation: {v}"));
        assert_eq!(report.rounds, 4);
        assert!(
            report.benign_identical >= 3 * 3,
            "reference + 2 benign rounds + final"
        );
        assert!(report.hostile_rejected >= 2, "chaos rounds carry bombs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn soak_is_deterministic_per_seed() {
        let (d1, d2) = (scratch_dir("det-a"), scratch_dir("det-b"));
        let mk = |dir: &PathBuf| SoakConfig {
            seed: 11,
            rounds: 2,
            max_wall_secs: 0,
            dir: dir.clone(),
            strict_high_water: false,
        };
        let a = run_soak(&mk(&d1)).unwrap_or_else(|v| panic!("{v}"));
        let b = run_soak(&mk(&d2)).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.benign_identical, b.benign_identical);
        assert_eq!(a.hostile_rejected, b.hostile_rejected);
        assert_eq!(a.tolerated_failures, b.tolerated_failures);
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }
}
