//! Crash checkpoint/resume for the supervised island search.
//!
//! At every migration epoch the island driver snapshots the *complete*
//! search state — per-island RNG words, populations, scores, watchdog
//! counters, quarantine status, carried degradations, and the projection
//! cache counters — and commits it with the sf-cache atomic protocol
//! (temp file + fsync + rename, [`sf_cache::atomic_write`]). The payload
//! rides inside the cache entry format ([`sf_cache::encode`]), so a torn
//! or corrupted checkpoint is *detected* at load (checksum + version
//! first) and classified, never trusted.
//!
//! Because the snapshot captures every bit of state the epoch loop reads,
//! a search resumed from the epoch-`e` checkpoint replays the exact
//! trajectory of the uninterrupted run from epoch `e+1` on — the final
//! plan is byte-identical, which `tests/island_search.rs` pins by killing
//! a run at every epoch and diffing the emitted plans.
//!
//! What a snapshot *means* includes the loop's ranking rules (which
//! individual is an elite, which is the champion), so a change to those
//! bumps [`CHECKPOINT_VERSION`] just like a layout change does: an older
//! checkpoint is rejected with its version named and the run restarts.
//!
//! A checkpoint is bound to its run by a fingerprint over the search
//! configuration and the search space; resuming against a different
//! program, device, or configuration is rejected (and the caller starts
//! fresh, reporting the degradation) rather than silently continuing an
//! unrelated search.

use crate::islands::{IslandState, SearchDegradation};
use serde::{Deserialize, Serialize};
use sf_cache::{atomic_write, decode, encode, CacheError, CacheKey, DecodeFailure};
use std::path::Path;

/// Checkpoint payload schema version; bumped on incompatible changes to
/// the layout *or* to the loop rules a snapshot is replayed under, so an
/// old checkpoint is rejected, not misread. History: 1 = per-island
/// mirror struct, millisecond wall counter, genome-order in-island
/// ranking; 2 = the island state itself, microsecond wall counter, the
/// serial GGA's score-only in-island ranking; 3 = the same layout, scored
/// under codegen's fusion legality verdict (a group the code generator
/// would not fuse projects to infinite time); 4 = the same layout, bred
/// under lazy fission from a first population that holds the greedy
/// fusion seeds; 5 = the same layout, fingerprinted without
/// `eval_retries` (a poisoned evaluation is no longer retried).
pub const CHECKPOINT_VERSION: u32 = 5;

/// The complete search state written at a migration epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointState {
    /// Payload schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Binds the checkpoint to (config, search space); a resume against
    /// anything else is rejected.
    pub fingerprint: String,
    /// The migration epoch *after* which this snapshot was taken; a
    /// resumed run continues at `epoch + 1`.
    pub epoch: usize,
    /// Projection-cache counters accumulated before the snapshot, carried
    /// so a resumed run's stage report reflects the whole search.
    pub prior_hits: u64,
    /// See `prior_hits`.
    pub prior_misses: u64,
    /// Degradations recorded before the snapshot (quarantined islands),
    /// carried so a resumed run still reports them.
    pub degradations: Vec<SearchDegradation>,
    /// Every island's state, in island order.
    pub islands: Vec<IslandState>,
}

/// Outcome of [`load_checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointLoad {
    /// No checkpoint file at the path — start fresh, nothing to report.
    Missing,
    /// A valid, matching checkpoint: resume from it.
    Resumed(Box<CheckpointState>),
    /// A checkpoint exists but cannot be trusted (torn, corrupt, version
    /// skew, or written by a different run). Start fresh and report why.
    Rejected(String),
}

fn checkpoint_key(fingerprint: &str) -> CacheKey {
    CacheKey::derive(
        fingerprint,
        "search-checkpoint",
        &format!("ckpt-v{CHECKPOINT_VERSION}"),
    )
}

/// Just the version field of a payload of any schema version.
#[derive(Deserialize)]
struct VersionProbe {
    version: u32,
}

/// Atomically commit `state` to `path`. `torn` injects a torn write (the
/// payload is truncated before the — still atomic — commit), modelling a
/// crash that the checksum must catch at the next load.
pub fn save_checkpoint(path: &Path, state: &CheckpointState, torn: bool) -> Result<(), CacheError> {
    let payload = serde_json::to_string(state).map_err(|e| {
        CacheError::new(
            sf_cache::CacheErrorKind::Io,
            format!("encoding checkpoint: {e}"),
        )
    })?;
    let mut bytes = encode(&checkpoint_key(&state.fingerprint), &payload);
    if torn {
        // A torn write loses the file's tail; keep the header so the
        // damage is classified as Torn, not as a missing file.
        bytes.truncate(bytes.len() - bytes.len() / 3);
    }
    let tmp = path.with_extension("ckpt.tmp");
    atomic_write(&tmp, path, &bytes)
}

/// Load and verify the checkpoint at `path` for the run identified by
/// `fingerprint`. Never panics and never returns corrupt state: any
/// verification failure is a [`CheckpointLoad::Rejected`].
pub fn load_checkpoint(path: &Path, fingerprint: &str) -> CheckpointLoad {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CheckpointLoad::Missing,
        Err(e) => return CheckpointLoad::Rejected(format!("unreadable checkpoint: {e}")),
    };
    // The entry envelope checks its own version first, then the payload
    // checksum; then the payload's schema version (the key tag carries it
    // too, so it must be named before the key is compared), then the key —
    // so skew, tearing, an old-format checkpoint, and a checkpoint from a
    // different (config, space) are each named precisely.
    let entry = match decode(&bytes, None) {
        Ok(entry) => entry,
        Err(reason) => return CheckpointLoad::Rejected(reason.to_string()),
    };
    match serde_json::from_str::<VersionProbe>(&entry.payload) {
        Ok(probe) if probe.version == CHECKPOINT_VERSION => {}
        Ok(probe) => {
            return CheckpointLoad::Rejected(format!(
                "checkpoint schema version {} (this build speaks {CHECKPOINT_VERSION})",
                probe.version
            ))
        }
        Err(e) => {
            return CheckpointLoad::Rejected(format!("checkpoint payload does not parse: {e}"))
        }
    }
    if entry.key != checkpoint_key(fingerprint) {
        return CheckpointLoad::Rejected(
            DecodeFailure::KeyMismatch { found: entry.key }.to_string(),
        );
    }
    let state: CheckpointState = match serde_json::from_str(&entry.payload) {
        Ok(s) => s,
        Err(e) => {
            return CheckpointLoad::Rejected(format!("checkpoint payload does not parse: {e}"))
        }
    };
    if state.fingerprint != fingerprint {
        return CheckpointLoad::Rejected(
            "checkpoint belongs to a different search configuration".into(),
        );
    }
    CheckpointLoad::Resumed(Box::new(state))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::genome::Individual;
    use crate::gga::StopReason;
    use crate::islands::IslandRng;
    use rand::rngs::SmallRng;
    use std::path::PathBuf;

    /// A checkpoint exactly as schema version 1 wrote it (frozen bytes:
    /// v1 payload layout under the v1 key tag), for `fingerprint`.
    pub(crate) fn write_v1_checkpoint(path: &Path, fingerprint: &str) {
        let payload = format!(
            r#"{{"version":1,"fingerprint":"{fingerprint}","epoch":0,"prior_hits":4,"prior_misses":2,"degradations":[],"islands":[{{"index":0,"alive":true,"rng_state":[1,2,3,4],"population":[{{"fissioned":[],"group_of":[[0,0],[1,1]]}}],"scores":[1.25],"evaluations":7,"eval_budget":0,"wall_spent_ms":3,"poisoned":0,"generations_run":4,"history":[1.0,1.25],"fission_moves":0,"retained_fissions":0,"stagnant":0,"stop":null,"elite_scores":[1.25],"elites":[{{"fissioned":[],"group_of":[[0,0],[1,1]]}}]}}]}}"#
        );
        let key = CacheKey::derive(fingerprint, "search-checkpoint", "ckpt-v1");
        std::fs::write(path, encode(&key, &payload)).unwrap();
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sf-search-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> CheckpointState {
        let ind = Individual::from_parts([3], [(0, 0), (1, 0), (4, 2)]);
        CheckpointState {
            version: CHECKPOINT_VERSION,
            fingerprint: "fp".into(),
            epoch: 2,
            prior_hits: 10,
            prior_misses: 3,
            degradations: vec![SearchDegradation {
                scope: "island 1".into(),
                action: "quarantined island; retained last-good elites".into(),
                reason: "panicked: injected".into(),
            }],
            islands: vec![IslandState {
                index: 0,
                alive: true,
                rng: IslandRng(SmallRng::from_state([1, 2, 3, 4])),
                population: vec![ind.clone()],
                scores: vec![1.25],
                evaluations: 7,
                eval_budget: 100,
                wall_spent_us: 0,
                poisoned: 0,
                generations_run: 16,
                history: vec![1.0, 1.25],
                fission_moves: 1,
                retained_fissions: 2,
                stagnant: 1,
                stop: Some(StopReason::Plateaued),
                elite_scores: vec![1.25],
                elites: vec![ind],
            }],
        }
    }

    #[test]
    fn save_load_round_trip_is_lossless() {
        let dir = scratch("roundtrip");
        let path = dir.join("search.ckpt");
        let state = sample();
        save_checkpoint(&path, &state, false).unwrap();
        match load_checkpoint(&path, "fp") {
            CheckpointLoad::Resumed(back) => assert_eq!(*back, state),
            other => panic!("expected resume, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_missing_not_an_error() {
        let dir = scratch("missing");
        assert_eq!(
            load_checkpoint(&dir.join("none.ckpt"), "fp"),
            CheckpointLoad::Missing
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_checkpoint_is_rejected_with_a_reason() {
        let dir = scratch("torn");
        let path = dir.join("search.ckpt");
        save_checkpoint(&path, &sample(), true).unwrap();
        match load_checkpoint(&path, "fp") {
            CheckpointLoad::Rejected(reason) => {
                assert!(reason.contains("torn"), "{reason}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprint_is_rejected() {
        let dir = scratch("foreign");
        let path = dir.join("search.ckpt");
        save_checkpoint(&path, &sample(), false).unwrap();
        match load_checkpoint(&path, "other-run") {
            CheckpointLoad::Rejected(reason) => {
                assert!(reason.contains("key"), "{reason}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_checkpoint_is_rejected_with_its_version_named() {
        let dir = scratch("v1");
        let path = dir.join("search.ckpt");
        write_v1_checkpoint(&path, "fp");
        match load_checkpoint(&path, "fp") {
            CheckpointLoad::Rejected(reason) => {
                assert!(reason.contains("schema version 1"), "{reason}");
                let speaks = format!("speaks {CHECKPOINT_VERSION}");
                assert!(reason.contains(&speaks), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_malformed_rng_never_resumes() {
        let dir = scratch("rng");
        let path = dir.join("search.ckpt");
        let payload = serde_json::to_string(&sample())
            .unwrap()
            .replace("[1,2,3,4]", "[1,2,3]");
        std::fs::write(&path, encode(&checkpoint_key("fp"), &payload)).unwrap();
        match load_checkpoint(&path, "fp") {
            CheckpointLoad::Rejected(reason) => assert!(reason.contains("four"), "{reason}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_anywhere_never_resumes() {
        let dir = scratch("cuts");
        let path = dir.join("search.ckpt");
        save_checkpoint(&path, &sample(), false).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in (0..bytes.len()).step_by(17) {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            match load_checkpoint(&path, "fp") {
                CheckpointLoad::Rejected(_) => {}
                other => panic!("cut at {cut}: expected rejection, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
