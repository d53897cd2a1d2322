//! Crash-safety and resilience contract of the persistent plan cache and
//! the `sfd` batch driver:
//!
//! - a simulated crash at **every** write point leaves the store readable
//!   (the entry is either absent, quarantined, or completely committed —
//!   never a torn read served as a hit);
//! - every injected fault kind (torn write, bit flip, version skew, stale
//!   lock) is detected, quarantined with the evidence preserved, and the
//!   slot recovers on the next publish;
//! - a warm batch (served from the cache through the stage-skipping replay
//!   path) is **byte-identical** to the cold batch that populated it;
//! - admission is bounded (reject-with-backpressure) and requests carry a
//!   wall-clock budget, so no input can hang or grow the driver unboundedly;
//! - no cache fault ever aborts a batch: the driver degrades rung by rung
//!   (cache hit → cache recompile → normal pipeline).

use proptest::prelude::*;
use sf_cache::{CacheError, CacheErrorKind, CacheKey, Lookup, PlanStore, Published, StoreOptions};
use sf_core::CacheFaults;
use sf_gpusim::device::DeviceSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use stencilfuse::{
    BatchDriver, BatchOptions, BatchRequest, BatchStatus, FaultPlan, PipelineConfig,
};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sf-plan-cache-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Store options for crash tests: zero lock timeout so a lock leaked by a
/// simulated kill is immediately considered stale after the "reboot".
fn crash_options(faults: CacheFaults) -> StoreOptions {
    StoreOptions {
        lock_timeout: Duration::ZERO,
        faults,
        ..StoreOptions::default()
    }
}

/// Two-kernel producer/consumer program: fusible, so a full pipeline run
/// produces a non-trivial transform plan worth caching.
const SMALL_APP: &str = r#"
__global__ void heat(const double* __restrict__ u, double* v, int nx, int ny) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { v[j][i] = u[j][i] * 0.5; }
}
__global__ void scale(const double* __restrict__ v, double* w, int nx, int ny) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { w[j][i] = v[j][i] + 3.0; }
}
void host() {
  int nx = 64; int ny = 32;
  double* u = cudaAlloc2D(ny, nx);
  double* v = cudaAlloc2D(ny, nx);
  double* w = cudaAlloc2D(ny, nx);
  cudaMemcpyH2D(u);
  heat<<<dim3(4, 4), dim3(16, 8)>>>(u, v, nx, ny);
  scale<<<dim3(4, 4), dim3(16, 8)>>>(v, w, nx, ny);
  cudaMemcpyD2H(w);
}
"#;

/// The same program with different formatting only: must hit the same
/// cache slot, because keys hash the *canonical* (re-printed) source.
const SMALL_APP_REFORMATTED: &str = r#"
__global__ void heat(const double* __restrict__ u, double* v, int nx, int ny) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    v[j][i] = u[j][i] * 0.5;
  }
}
__global__ void scale(const double* __restrict__ v, double* w, int nx, int ny) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    w[j][i] = v[j][i] + 3.0;
  }
}
void host() {
  int nx = 64;
  int ny = 32;
  double* u = cudaAlloc2D(ny, nx);
  double* v = cudaAlloc2D(ny, nx);
  double* w = cudaAlloc2D(ny, nx);
  cudaMemcpyH2D(u);
  heat<<<dim3(4, 4), dim3(16, 8)>>>(u, v, nx, ny);
  scale<<<dim3(4, 4), dim3(16, 8)>>>(v, w, nx, ny);
  cudaMemcpyD2H(w);
}
"#;

fn quick_config() -> PipelineConfig {
    PipelineConfig::quick(DeviceSpec::k20x())
}

// ---------------------------------------------------------------------------
// Crash consistency: kill at every write point.
// ---------------------------------------------------------------------------

/// After a kill at write step `step`, "reboot" (reopen) the store and check
/// the crash-consistency contract for `key`/`payload`. Returns whether the
/// entry survived the crash already committed.
fn check_after_crash(dir: &PathBuf, key: &CacheKey, payload: &str) -> bool {
    let store = PlanStore::open_with(dir, crash_options(CacheFaults::default())).expect("reopen");
    // The store must be readable: either the write never became visible
    // (Miss), or it committed completely (Hit with *exactly* the payload),
    // or the partial write was detected and quarantined (Recovered). A torn
    // entry served as a hit would be a correctness bug, not a perf bug.
    let committed = match store.lookup(key).expect("post-crash lookup must not error") {
        Lookup::Hit(entry) => {
            assert_eq!(entry.payload, payload, "post-crash hit must be complete");
            true
        }
        Lookup::Miss => false,
        Lookup::Recovered { .. } => false,
    };
    // The slot must recover: publishing again (breaking the leaked lock if
    // any) must succeed and the entry must then read back verbatim.
    match store.publish(key, payload).expect("post-crash publish") {
        Published::Stored | Published::AlreadyPresent => {}
        Published::LostRace => panic!("no concurrent writer exists in this test"),
    }
    assert_eq!(
        store.lookup(key).expect("post-recovery lookup").payload(),
        Some(payload),
        "slot must serve the payload after recovery"
    );
    committed
}

#[test]
fn a_crash_at_every_write_step_leaves_the_store_readable() {
    let payload = "{\"plan\":\"crash-matrix\"}";
    let mut committed_at = Vec::new();
    for step in 0..8u32 {
        let dir = scratch_dir("kill-matrix");
        let key = CacheKey::derive("source", "k20x", "cfg");
        let store = PlanStore::open_with(
            &dir,
            crash_options(CacheFaults {
                kill_at_step: Some(step),
                ..CacheFaults::default()
            }),
        )
        .expect("open");
        match store.publish(&key, payload) {
            Err(e) => assert_eq!(e.kind, CacheErrorKind::Killed),
            // A kill step past the end of the write protocol never fires:
            // the publish simply completes.
            Ok(Published::Stored) => {}
            Ok(other) => panic!("step {step}: unexpected {other:?}"),
        }
        drop(store);
        if check_after_crash(&dir, &key, payload) {
            committed_at.push(step);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Sanity on the simulation itself: early kills must lose the entry and
    // a kill after the rename point must preserve it — otherwise the write
    // protocol is not actually atomic-at-rename.
    assert!(
        !committed_at.contains(&0),
        "a kill before any bytes are written cannot commit an entry"
    );
    assert!(
        committed_at.iter().any(|&s| s >= 5),
        "a kill after the rename must leave the entry committed (got {committed_at:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The crash matrix holds for *arbitrary* payloads (sizes, newlines,
    /// non-ASCII), not just the fixed fixture — torn-write detection must
    /// not depend on payload shape.
    #[test]
    fn crash_consistency_holds_for_arbitrary_payloads(
        len in 0usize..300,
        seed in 0u64..u64::MAX,
        step in 0u32..8,
        salt in 0u64..u64::MAX,
    ) {
        // The vendored proptest has no string strategies; derive the
        // payload from the seed over a palette that includes newlines,
        // quotes, and a non-ASCII char to stress the entry format.
        const PALETTE: &[char] = &['a', 'Z', '0', ' ', '\n', '"', '\\', 'é', '{', '}'];
        let mut state = seed;
        let payload: String = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                PALETTE[(state >> 33) as usize % PALETTE.len()]
            })
            .collect();
        let dir = scratch_dir("kill-prop");
        let key = CacheKey::derive(&format!("source-{salt}"), "k20x", "cfg");
        let store = PlanStore::open_with(
            &dir,
            crash_options(CacheFaults { kill_at_step: Some(step), ..CacheFaults::default() }),
        ).expect("open");
        match store.publish(&key, &payload) {
            Err(e) => prop_assert_eq!(e.kind, CacheErrorKind::Killed),
            Ok(Published::Stored) => {} // kill step beyond the protocol
            Ok(other) => panic!("unexpected publish result {other:?}"),
        }
        drop(store);
        check_after_crash(&dir, &key, &payload);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Per-fault corruption: inject, detect, quarantine, recover.
// ---------------------------------------------------------------------------

fn check_fault_recovers(name: &str, faults: CacheFaults, expect_reason: Option<&str>) {
    let dir = scratch_dir(name);
    let key = CacheKey::derive("source", "k20x", "cfg");
    let payload = "{\"plan\":\"faulted\"}";
    let store = PlanStore::open_with(&dir, crash_options(faults)).expect("open");
    // The faulted publish itself reports success — the corruption models
    // damage that lands *after* the commit (media decay, torn sector).
    assert_eq!(store.publish(&key, payload).unwrap(), Published::Stored);
    match store.lookup(&key).expect("lookup must not error") {
        Lookup::Recovered {
            reason,
            quarantined,
        } => {
            if let Some(expected) = expect_reason {
                assert_eq!(reason.label(), expected, "fault {name}");
            }
            let stem = quarantined
                .file_name()
                .unwrap()
                .to_string_lossy()
                .into_owned();
            assert!(
                quarantined.exists(),
                "quarantine must preserve the evidence ({stem})"
            );
        }
        other => panic!("fault {name} was not detected: {other:?}"),
    }
    // Faults are one-shot: the slot recovers on the next publish.
    assert_eq!(store.publish(&key, payload).unwrap(), Published::Stored);
    assert_eq!(store.lookup(&key).unwrap().payload(), Some(payload));
    let (valid, quarantined) = store.verify_integrity().unwrap();
    assert_eq!((valid, quarantined), (1, 0), "store clean after recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_write_is_quarantined_and_the_slot_recovers() {
    check_fault_recovers(
        "torn",
        CacheFaults {
            torn_write: Some(7),
            ..CacheFaults::default()
        },
        None, // truncation point decides torn vs corrupt; either is detected
    );
}

#[test]
fn a_bit_flip_is_quarantined_and_the_slot_recovers() {
    check_fault_recovers(
        "flip",
        CacheFaults {
            bit_flip: Some(0x5_0001),
            ..CacheFaults::default()
        },
        None, // the flipped bit decides the decode failure class
    );
}

#[test]
fn version_skew_is_reported_as_skew_not_corruption() {
    // Version skew must be distinguished from corruption: a cache written
    // by a newer build is *valid data we cannot read*, and the error must
    // say so (operators react differently to "upgrade raced" vs "disk bad").
    check_fault_recovers(
        "skew",
        CacheFaults {
            version_skew: true,
            ..CacheFaults::default()
        },
        Some("version-skew"),
    );
}

#[test]
fn a_stale_lock_is_broken_not_waited_on() {
    let dir = scratch_dir("stale-lock");
    let key = CacheKey::derive("source", "k20x", "cfg");
    let store = PlanStore::open_with(
        &dir,
        crash_options(CacheFaults {
            stale_lock: true,
            ..CacheFaults::default()
        }),
    )
    .expect("open");
    // The fault plants a dead writer's lock before our acquire; with the
    // crash-test zero timeout the store must break it and publish anyway.
    assert_eq!(store.publish(&key, "payload").unwrap(), Published::Stored);
    assert_eq!(store.lookup(&key).unwrap().payload(), Some("payload"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_errors_surface_on_the_recoverability_ladder() {
    // The publish retry of the batch driver and `sfc --cache-dir` retries
    // exactly the store failures `is_transient` names: lock contention.
    let kinds = [
        CacheErrorKind::Lock,
        CacheErrorKind::Io,
        CacheErrorKind::Killed,
    ];
    for kind in kinds {
        let e = CacheError::new(kind, "held");
        assert_eq!(e.is_transient(), kind == CacheErrorKind::Lock, "{e}");
        // As a pipeline error, every store failure degrades to a fresh compile.
        let e: stencilfuse::PipelineError = e.into();
        assert_eq!(e.class, stencilfuse::Recoverability::Degradable);
    }
}

// ---------------------------------------------------------------------------
// Batch driver: determinism, admission, budgets, fault resilience.
// ---------------------------------------------------------------------------

#[test]
fn warm_batch_replay_is_byte_identical_to_cold() {
    let dir = scratch_dir("warm-cold");

    let run = |source: &str| {
        let mut driver =
            BatchDriver::new(&dir, quick_config(), BatchOptions::default()).expect("driver");
        driver
            .submit(BatchRequest::new("small", source))
            .expect("admitted");
        let report = driver.run();
        assert_eq!(report.outcomes.len(), 1);
        report
    };

    let cold = run(SMALL_APP);
    assert_eq!(cold.outcomes[0].status, BatchStatus::Compiled);
    let cold_plan = cold.outcomes[0].plan_json.clone().expect("cold plan");
    let cold_out = cold.outcomes[0].output.clone().expect("cold output");

    // Warm run over the same store: served from the cache, and the replayed
    // plan and program are byte-identical to the cold run's.
    let warm = run(SMALL_APP);
    assert_eq!(warm.outcomes[0].status, BatchStatus::Hit);
    assert_eq!(
        warm.outcomes[0].plan_json.as_deref(),
        Some(cold_plan.as_str())
    );
    assert_eq!(warm.outcomes[0].output.as_deref(), Some(cold_out.as_str()));
    assert_eq!(warm.stats.hits, 1);

    // Formatting-only differences in the submitted source hit the same
    // slot: the key hashes the canonical (re-printed) program.
    let reformatted = run(SMALL_APP_REFORMATTED);
    assert_eq!(reformatted.outcomes[0].status, BatchStatus::Hit);
    assert_eq!(
        reformatted.outcomes[0].output.as_deref(),
        Some(cold_out.as_str())
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_placement_shares_one_cache_entry() {
    // Checkpoint placement is deliberately outside the cache key, so a
    // request compiled with `checkpoint_dir` and one compiled without must
    // publish — and be served — the very same bytes.
    let dir = scratch_dir("ckpt-key");
    let ckpts = scratch_dir("ckpt-key-files");
    std::fs::create_dir_all(&ckpts).expect("checkpoint dir");
    // An app analog, not SMALL_APP: its search has ties to break, so the
    // plan is sensitive to the loop's ranking rules.
    let app = sf_apps::mitgcm::build(&sf_apps::AppConfig::test());
    let source = sf_minicuda::printer::print_program(&app.program);
    let run = |store: &PathBuf, checkpoint_dir: Option<PathBuf>| {
        let options = BatchOptions {
            checkpoint_dir,
            ..BatchOptions::default()
        };
        let mut driver = BatchDriver::new(store, quick_config(), options).expect("driver");
        driver
            .submit(BatchRequest::new("mitgcm", source.as_str()))
            .expect("admitted");
        driver.run().outcomes.remove(0)
    };

    let cold = run(&dir, Some(ckpts.clone()));
    assert_eq!(cold.status, BatchStatus::Compiled);
    assert!(
        ckpts.join("mitgcm.ckpt").exists(),
        "the cold run checkpointed"
    );
    let warm = run(&dir, None);
    assert_eq!(warm.status, BatchStatus::Hit);
    assert_eq!(warm.plan_json, cold.plan_json);
    assert_eq!(warm.output, cold.output);

    // And a from-scratch compile that never checkpointed agrees with both.
    let other = scratch_dir("ckpt-key-plain");
    let plain = run(&other, None);
    assert_eq!(plain.status, BatchStatus::Compiled);
    assert_eq!(plain.plan_json, cold.plan_json);
    assert_eq!(plain.output, cold.output);

    for d in [dir, ckpts, other] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn admission_is_bounded_and_rejects_with_backpressure() {
    let dir = scratch_dir("admission");
    let mut driver = BatchDriver::new(
        &dir,
        quick_config(),
        BatchOptions {
            queue_limit: 2,
            ..BatchOptions::default()
        },
    )
    .expect("driver");
    assert_eq!(driver.submit(BatchRequest::new("a", SMALL_APP)).unwrap(), 1);
    assert_eq!(driver.submit(BatchRequest::new("b", SMALL_APP)).unwrap(), 2);
    let rejected = driver
        .submit(BatchRequest::new("c", SMALL_APP))
        .expect_err("third submission must be rejected");
    assert_eq!(rejected.name, "c");
    assert_eq!(rejected.queue_limit, 2);
    // Rejection is backpressure, not failure: the queue is intact and the
    // admitted requests still run.
    assert_eq!(driver.queued(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn over_budget_requests_are_reported_not_hung() {
    let dir = scratch_dir("budget");
    let mut driver = BatchDriver::new(
        &dir,
        quick_config(),
        BatchOptions {
            request_budget: Duration::from_nanos(1),
            ..BatchOptions::default()
        },
    )
    .expect("driver");
    driver
        .submit(BatchRequest::new("slow", SMALL_APP))
        .expect("admitted");
    let report = driver.run();
    assert_eq!(report.outcomes[0].status, BatchStatus::OverBudget);
    assert_eq!(report.failures(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parse_failures_fail_the_request_not_the_batch() {
    let dir = scratch_dir("bad-input");
    let mut driver =
        BatchDriver::new(&dir, quick_config(), BatchOptions::default()).expect("driver");
    driver
        .submit(BatchRequest::new("bad", "__global__ void oops("))
        .expect("admitted");
    driver
        .submit(BatchRequest::new("good", SMALL_APP))
        .expect("admitted");
    let report = driver.run();
    assert_eq!(report.outcomes[0].status, BatchStatus::Failed);
    assert!(report.outcomes[0].error.is_some());
    assert_eq!(report.outcomes[1].status, BatchStatus::Compiled);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_cache_faults_never_abort_the_batch() {
    // Seeds chosen (and asserted below) to cover corruption faults through
    // the seeded generator — the same mix the fuzz oracle draws. Whatever
    // the cache does under fault, every request must still be served.
    let seeds: Vec<u64> = (0..512)
        .filter(|&s| {
            let c = FaultPlan::seeded(s).cache;
            c.torn_write.is_some() || c.bit_flip.is_some() || c.version_skew
        })
        .take(3)
        .collect();
    assert_eq!(seeds.len(), 3, "seed range must reach corruption faults");

    for seed in seeds {
        let faults = FaultPlan::seeded(seed).cache;
        let dir = scratch_dir("faulted-batch");
        // Two rounds over the same store: the first publishes (possibly
        // corrupted by the fault), the second reads whatever that left
        // behind and must recover rung by rung.
        for round in 0..2 {
            let config = quick_config().with_faults(FaultPlan {
                cache: faults,
                ..FaultPlan::default()
            });
            let mut driver = BatchDriver::new(
                &dir,
                config,
                BatchOptions {
                    lock_timeout: Duration::ZERO,
                    ..BatchOptions::default()
                },
            )
            .expect("driver");
            driver
                .submit(BatchRequest::new("small", SMALL_APP))
                .expect("admitted");
            let report = driver.run();
            let outcome = &report.outcomes[0];
            assert!(
                matches!(
                    outcome.status,
                    BatchStatus::Hit | BatchStatus::Compiled | BatchStatus::Recovered(_)
                ),
                "seed {seed} round {round}: cache fault aborted the request: \
                 {:?} (note: {:?})",
                outcome.status,
                outcome.cache_note,
            );
            assert!(
                outcome.output.is_some(),
                "seed {seed} round {round}: no program came back"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_configs_store_faults_arm_the_drivers_store() {
    // The driver arms its store from the config's fault plan, and store
    // faults stay out of the cache key: the flipped entry is the one a
    // fault-free driver over the same directory reads next.
    let dir = scratch_dir("config-faults");
    let run = |config: PipelineConfig| {
        let mut driver = BatchDriver::new(&dir, config, BatchOptions::default()).expect("driver");
        driver
            .submit(BatchRequest::new("small", SMALL_APP))
            .expect("admitted");
        driver.run().outcomes.remove(0)
    };
    let flip = FaultPlan {
        cache: CacheFaults {
            bit_flip: Some(0x5_0001),
            ..CacheFaults::default()
        },
        ..FaultPlan::default()
    };
    assert_eq!(
        run(quick_config().with_faults(flip)).status,
        BatchStatus::Compiled
    );
    let clean = run(quick_config());
    assert!(
        matches!(clean.status, BatchStatus::Recovered(_)),
        "the flipped entry was not read back: {:?}",
        clean.status
    );
    let quarantined = std::fs::read_dir(dir.join("quarantine"))
        .expect("quarantine/")
        .count();
    assert_eq!(quarantined, 1, "the flipped entry is kept as evidence");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Self-protection: cache quota.
// ---------------------------------------------------------------------------

#[test]
fn cache_quota_evicts_old_plans_but_requests_always_succeed() {
    let dir = scratch_dir("driver-quota");
    // Quota of one byte: after every publish, all *other* entries are
    // evicted (the entry just written is never a victim).
    let run = |name: &str, source: &str| {
        let mut driver = BatchDriver::new(
            &dir,
            quick_config(),
            BatchOptions {
                cache_quota: Some(1),
                ..BatchOptions::default()
            },
        )
        .expect("driver");
        driver
            .submit(BatchRequest::new(name, source))
            .expect("admitted");
        let report = driver.run();
        assert!(
            matches!(
                report.outcomes[0].status,
                BatchStatus::Compiled | BatchStatus::Hit
            ),
            "{name}: {:?}",
            report.outcomes[0].status
        );
        report
    };

    run("first", SMALL_APP);
    // A different program (different constant => different key) busts the
    // quota: the first plan is evicted, but the request itself succeeds.
    let variant = SMALL_APP.replace("* 0.5", "* 0.25");
    let report = run("second", &variant);
    assert!(
        report.stats.evicted >= 1,
        "quota must evict: {:?}",
        report.stats
    );
    // The evicted program compiles cold again — an eviction is a miss,
    // never an error or a torn entry.
    let again = run("first-again", SMALL_APP);
    assert!(again.stats.misses >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cache envelopes a released build wrote keep serving. `tests/golden/
/// compat/store/` freezes the store `sfd --cache-quota 1M --quick` left
/// after compiling `failure_surface.rs`'s `DEMO` once: one committed entry
/// and the quota journal its publish appended to.
#[test]
fn a_frozen_store_is_served_and_evicted_in_its_journals_order() {
    let frozen = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compat/store");
    let stem = "ade493c17d0174f4";
    let bytes = std::fs::read(frozen.join(format!("entries/{stem}.plan"))).expect("frozen entry");
    let journal = std::fs::read(frozen.join("journal")).expect("frozen journal");
    let entry = sf_cache::decode(&bytes, None).expect("the frozen entry decodes");
    assert_eq!(entry.key.hex(), stem);
    sf_plan::TransformPlan::from_json(&entry.payload).expect("its payload is a plan");
    assert_eq!(sf_cache::encode(&entry.key, &entry.payload), bytes);

    // A scratch copy, with a newer entry the journal never names beside the
    // frozen one and a quota with room for two: publishing a third evicts
    // the unjournaled entry although the frozen one is older by mtime —
    // the frozen journal decides.
    let dir = scratch_dir("compat");
    let entries = dir.join("entries");
    std::fs::create_dir_all(&entries).expect("scratch store");
    std::fs::write(dir.join("journal"), &journal).expect("copy the journal");
    std::fs::write(entries.join(format!("{stem}.plan")), &bytes).expect("copy the entry");
    let old = std::time::SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000);
    let copied = std::fs::File::options()
        .write(true)
        .open(entries.join(format!("{stem}.plan")));
    copied
        .and_then(|f| f.set_modified(old))
        .expect("age the frozen entry");
    let key = |n: u8| CacheKey::derive(&format!("program {n}"), "k20x", "compat");
    let (unjournaled, published) = (key(1), key(2));
    let envelope = sf_cache::encode(&unjournaled, &entry.payload);
    std::fs::write(entries.join(format!("{unjournaled}.plan")), &envelope).expect("unjournaled");
    let options = StoreOptions {
        quota_bytes: Some(2 * bytes.len().max(envelope.len()) as u64 + 1),
        ..StoreOptions::default()
    };
    let store = PlanStore::open_with(&dir, options).expect("the frozen store opens");
    let publish = store.publish(&published, &entry.payload).expect("publish");
    assert_eq!((publish, store.stats().evicted), (Published::Stored, 1));
    let mut appended = journal;
    appended.extend_from_slice(format!("{published}\n").as_bytes());
    assert_eq!(
        std::fs::read(dir.join("journal")).expect("journal"),
        appended
    );
    assert_eq!(store.lookup(&unjournaled).expect("lookup"), Lookup::Miss);
    assert_eq!(
        store.lookup(&entry.key).expect("lookup"),
        Lookup::Hit(entry)
    );
    assert!(store
        .lookup(&published)
        .expect("lookup")
        .payload()
        .is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
