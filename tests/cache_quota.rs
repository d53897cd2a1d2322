//! Disk-governance invariants of the quota'd plan store, under arbitrary
//! seeded interleavings of inserts, evictions, and crashes:
//!
//! - the store returns to (and stays within) its byte quota after any
//!   clean publish, no matter what state crashes left behind;
//! - every entry that survives eviction round-trips **byte-identical** to
//!   what was published — eviction never tears a neighbour;
//! - a warm hit is always the exact published payload; anything less
//!   decodes as corrupt and is quarantined, never served;
//! - disk-full faults (ENOSPC, short write) lose only the entry being
//!   written, never a committed one.

use proptest::prelude::*;
use sf_cache::{CacheErrorKind, CacheKey, Lookup, PlanStore, Published, StoreOptions};
use sf_core::{splitmix64, CacheFaults, FaultPlan};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sf-cache-quota-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn seeded_insert_evict_crash_interleavings_keep_the_quota_invariants(
        seed in 0u64..(1u64 << 48),
    ) {
        let dir = scratch_dir("interleave");
        let mut rng = seed;

        // Ten distinct (key, payload) pairs with fixed payloads, so a hit
        // has exactly one legal byte sequence.
        let universe: Vec<(CacheKey, String)> = (0..10)
            .map(|i| {
                let payload =
                    format!("{{\"plan\":{i},\"pad\":\"{}\"}}", "x".repeat(40 + 7 * i));
                (CacheKey::derive(&format!("src {i}"), "dev", "cfg"), payload)
            })
            .collect();
        // Holds a handful of entries, so the op mix below forces real
        // evictions while still leaving survivors to check.
        let quota = 1200u64;
        let options = |faults| StoreOptions {
            lock_timeout: Duration::ZERO,
            faults,
            quota_bytes: Some(quota),
        };

        // Ten "process lifetimes", each with its own seeded fault mix
        // (torn writes, bit flips, kills, ENOSPC, short writes, ...) and a
        // few operations; the drop is the crash/reboot boundary.
        for _round in 0..10 {
            let faults = FaultPlan::seeded(splitmix64(&mut rng)).cache;
            let store = PlanStore::open_with(&dir, options(faults)).unwrap();
            for _op in 0..4 {
                let draw = splitmix64(&mut rng);
                let (key, payload) = &universe[(draw % 10) as usize];
                if draw.is_multiple_of(3) {
                    match store.lookup(key).unwrap() {
                        Lookup::Hit(e) => prop_assert_eq!(
                            &e.payload, payload,
                            "warm hit must be byte-identical"
                        ),
                        Lookup::Miss | Lookup::Recovered { .. } => {}
                    }
                } else {
                    match store.publish(key, payload) {
                        Ok(_) => {}
                        Err(e) => prop_assert!(
                            matches!(e.kind, CacheErrorKind::Killed | CacheErrorKind::Io),
                            "unexpected publish failure: {}", e
                        ),
                    }
                }
            }
        }

        // Reboot fault-free. The first sweep quarantines whatever the
        // corruption faults damaged; the second must be completely clean —
        // nothing torn may remain in the entry namespace.
        let store = PlanStore::open_with(&dir, options(CacheFaults::default())).unwrap();
        store.verify_integrity().unwrap();
        let (_, quarantined) = store.verify_integrity().unwrap();
        prop_assert_eq!(quarantined, 0, "second integrity sweep must be clean");

        // Every survivor round-trips byte-identical.
        for (key, payload) in &universe {
            match store.lookup(key).unwrap() {
                Lookup::Hit(e) => prop_assert_eq!(&e.payload, payload),
                Lookup::Miss | Lookup::Recovered { .. } => {}
            }
        }

        // One clean publish re-establishes the quota regardless of what
        // state the crashes left the store in.
        let sentinel = CacheKey::derive("sentinel", "dev", "cfg");
        prop_assert_eq!(
            store.publish(&sentinel, "{\"plan\":\"sentinel\"}").unwrap(),
            Published::Stored
        );
        prop_assert!(
            store.disk_usage() <= quota,
            "store over quota after clean publish: {} > {}", store.disk_usage(), quota
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Deterministic (non-proptest) replay of the sharpest corner: eviction
/// racing a disk that fills, with committed entries on the line.
#[test]
fn disk_full_during_eviction_pressure_never_loses_committed_entries() {
    let dir = scratch_dir("enospc-pressure");
    let keys: Vec<CacheKey> = (0..4)
        .map(|i| CacheKey::derive(&format!("k{i}"), "dev", "cfg"))
        .collect();
    let payload = "q".repeat(64);

    // Fill a small store to its quota.
    let probe = PlanStore::open(&dir).unwrap();
    probe.publish(&keys[0], &payload).unwrap();
    let entry_len = std::fs::metadata(probe.entry_path(&keys[0])).unwrap().len();
    drop(probe);
    let open = |faults| {
        PlanStore::open_with(
            &dir,
            StoreOptions {
                quota_bytes: Some(2 * entry_len),
                faults,
                ..StoreOptions::default()
            },
        )
        .unwrap()
    };
    let store = open(CacheFaults::default());
    store.publish(&keys[1], &payload).unwrap();

    // The disk fills while a third entry is being written: the publish
    // fails, and both committed entries are still there, byte-identical.
    for faults in [
        CacheFaults {
            enospc_write: true,
            ..CacheFaults::default()
        },
        CacheFaults {
            short_write: true,
            ..CacheFaults::default()
        },
    ] {
        let store = open(faults);
        let err = store.publish(&keys[2], &payload).unwrap_err();
        assert_eq!(err.kind, CacheErrorKind::Io);
        for k in [&keys[0], &keys[1]] {
            assert_eq!(store.lookup(k).unwrap().payload(), Some(payload.as_str()));
        }
    }

    // Disk freed: publishing again succeeds and eviction resumes, keeping
    // the just-written entry and the quota.
    let store = open(CacheFaults::default());
    assert_eq!(
        store.publish(&keys[3], &payload).unwrap(),
        Published::Stored
    );
    assert_eq!(
        store.lookup(&keys[3]).unwrap().payload(),
        Some(payload.as_str())
    );
    assert!(store.disk_usage() <= 2 * entry_len);
    assert!(store.stats().evicted >= 1, "quota pressure must evict");
    let _ = std::fs::remove_dir_all(&dir);
}
