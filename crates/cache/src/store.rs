//! The on-disk plan store.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   entries/<key-hex>.plan        committed entries (only ever renamed in)
//!   tmp/<key-hex>.<token>.tmp     in-flight writes (swept on open)
//!   locks/<key-hex>.lock          single-writer locks (token + liveness)
//!   quarantine/<key-hex>.<why>.<n>  entries that failed to decode
//!   journal                       recency log driving LRU quota eviction
//! ```
//!
//! ## Atomicity protocol
//!
//! A publish never updates an entry in place. The write protocol is:
//!
//! 1. acquire the key's lock (create-exclusive; stale locks broken),
//! 2. create a temp file under `tmp/`,
//! 3. write the encoded entry,
//! 4. `fsync` the temp file,
//! 5. `rename` it over `entries/<hex>.plan` (atomic on POSIX),
//! 6. `fsync` the `entries/` directory, release the lock.
//!
//! A crash before step 5 leaves at most a temp file and a lock — the entry
//! namespace is untouched. A crash after step 5 leaves a fully-written
//! entry (the rename only happens after the data is durable). There is no
//! step at which a reader can observe a half-written entry file, which is
//! what the kill-at-every-step proptest verifies.
//!
//! ## Quarantine
//!
//! A committed entry that fails to decode (torn, corrupt, version-skewed,
//! or belonging to another key) is *moved* to `quarantine/` — never
//! silently deleted — and the lookup reports [`Lookup::Recovered`] so the
//! caller can recompile and observe the degradation.
//!
//! ## Disk governance
//!
//! With [`StoreOptions::quota_bytes`] set, every hit and store appends the
//! key to an append-only recency `journal`, and a publish that pushes the
//! committed set past the quota evicts least-recently-used entries (last
//! journal mention wins; never-journaled entries fall back to file mtime)
//! until the store fits. Eviction only ever unlinks *committed* entries:
//! the entry just written, in-flight temp files, locks, and quarantined
//! evidence are never victims.

use crate::entry::{decode, encode, DecodeFailure, Entry};
use crate::error::{CacheError, CacheErrorKind};
use crate::faults::CacheFaults;
use crate::key::CacheKey;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// Result of a cache read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// The entry decoded and verified; the payload is byte-identical to
    /// what was published.
    Hit(Entry),
    /// No entry under this key.
    Miss,
    /// An entry existed but failed verification; it was quarantined and the
    /// caller must recompile (the cache rung of the degradation ladder).
    Recovered {
        /// Why the entry was rejected.
        reason: DecodeFailure,
        /// Where the bad entry now lives.
        quarantined: PathBuf,
    },
}

impl Lookup {
    /// The payload, when this is a hit.
    pub fn payload(&self) -> Option<&str> {
        match self {
            Lookup::Hit(e) => Some(&e.payload),
            _ => None,
        }
    }
}

/// Result of a cache write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Published {
    /// This call wrote the entry.
    Stored,
    /// A valid entry was already committed; nothing written.
    AlreadyPresent,
    /// Another live writer holds the key's lock. First writer wins; the
    /// loser should re-read the entry once the winner finishes.
    LostRace,
}

/// Monotonic operation counters (a snapshot; see [`PlanStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names are the documentation
pub struct StoreStats {
    pub hits: u64,
    pub misses: u64,
    pub recovered: u64,
    pub stored: u64,
    pub already_present: u64,
    pub lost_races: u64,
    pub evicted: u64,
}

/// Tuning + fault knobs for [`PlanStore::open_with`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// A lock older than this is presumed abandoned by a dead writer and
    /// broken. `Duration::ZERO` makes every existing lock breakable, which
    /// single-threaded tests use to exercise the stale path directly.
    pub lock_timeout: Duration,
    /// Seeded faults to inject into this store instance's operations.
    pub faults: CacheFaults,
    /// Byte quota over the committed entry set. A publish that pushes the
    /// store past the quota evicts least-recently-used entries until it
    /// fits (the just-written entry is never a victim). `None` disables
    /// eviction entirely.
    pub quota_bytes: Option<u64>,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            lock_timeout: Duration::from_secs(10),
            faults: CacheFaults::none(),
            quota_bytes: None,
        }
    }
}

/// A crash-safe, content-addressed store of serialized `TransformPlan`s.
/// Safe to share across threads (`sfd` publishes from its worker pool).
#[derive(Debug)]
pub struct PlanStore {
    root: PathBuf,
    lock_timeout: Duration,
    faults: CacheFaults,
    quota_bytes: Option<u64>,
    /// Write-protocol step counter; the kill fault fires when it reaches
    /// `faults.kill_at_step`.
    write_step: AtomicU32,
    /// One-shot latches so each armed fault fires exactly once.
    kill_armed: AtomicBool,
    corruption_armed: AtomicBool,
    stale_lock_armed: AtomicBool,
    enospc_armed: AtomicBool,
    short_write_armed: AtomicBool,
    /// Distinguishes quarantine filenames and lock tokens within a process.
    op_counter: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    recovered: AtomicU64,
    stored: AtomicU64,
    already_present: AtomicU64,
    lost_races: AtomicU64,
    evicted: AtomicU64,
}

impl PlanStore {
    /// Open (creating if needed) a store rooted at `root`, with defaults.
    pub fn open(root: impl Into<PathBuf>) -> Result<PlanStore, CacheError> {
        PlanStore::open_with(root, StoreOptions::default())
    }

    /// Open with explicit options. Sweeps `tmp/` — anything there is an
    /// in-flight write abandoned by a crash, by construction.
    pub fn open_with(
        root: impl Into<PathBuf>,
        options: StoreOptions,
    ) -> Result<PlanStore, CacheError> {
        let root = root.into();
        for sub in ["entries", "tmp", "locks", "quarantine"] {
            let dir = root.join(sub);
            fs::create_dir_all(&dir).map_err(|e| {
                CacheError::io(format!("creating {sub}/: {e}")).at_path(dir.clone())
            })?;
        }
        let tmp = root.join("tmp");
        if let Ok(listing) = fs::read_dir(&tmp) {
            for file in listing.flatten() {
                // Best-effort: a sweep failure only wastes disk, never
                // correctness, so it must not fail open().
                let _ = fs::remove_file(file.path());
            }
        }
        Ok(PlanStore {
            root,
            lock_timeout: options.lock_timeout,
            faults: options.faults,
            quota_bytes: options.quota_bytes,
            write_step: AtomicU32::new(0),
            kill_armed: AtomicBool::new(options.faults.kill_at_step.is_some()),
            corruption_armed: AtomicBool::new(
                options.faults.corrupt_entry(b"probe\n").is_some(),
            ),
            stale_lock_armed: AtomicBool::new(options.faults.stale_lock),
            enospc_armed: AtomicBool::new(options.faults.enospc_write),
            short_write_armed: AtomicBool::new(options.faults.short_write),
            op_counter: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            stored: AtomicU64::new(0),
            already_present: AtomicU64::new(0),
            lost_races: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Committed-entry path for `key`.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.root.join("entries").join(format!("{}.plan", key.hex()))
    }

    fn lock_path(&self, key: &CacheKey) -> PathBuf {
        self.root.join("locks").join(format!("{}.lock", key.hex()))
    }

    fn journal_path(&self) -> PathBuf {
        self.root.join("journal")
    }

    /// Operation counters so far.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
            already_present: self.already_present.load(Ordering::Relaxed),
            lost_races: self.lost_races.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// Total bytes of committed entries — the set the quota governs.
    pub fn disk_usage(&self) -> u64 {
        self.committed_entries()
            .iter()
            .map(|e| e.len)
            .sum()
    }

    /// Read the entry for `key`. Never fails on a bad entry — bad entries
    /// are quarantined and reported as [`Lookup::Recovered`]. Only real I/O
    /// trouble (permissions, unreadable directories) is an `Err`.
    pub fn lookup(&self, key: &CacheKey) -> Result<Lookup, CacheError> {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(Lookup::Miss);
            }
            Err(e) => {
                return Err(CacheError::io(format!("reading entry: {e}"))
                    .for_key(*key)
                    .at_path(path))
            }
        };
        match decode(&bytes, Some(key)) {
            Ok(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.touch(key);
                Ok(Lookup::Hit(entry))
            }
            Err(reason) => {
                let quarantined = self.quarantine(key, &path, &reason)?;
                self.recovered.fetch_add(1, Ordering::Relaxed);
                Ok(Lookup::Recovered { reason, quarantined })
            }
        }
    }

    /// Move a bad entry aside (never delete it) so the slot frees up and
    /// the evidence survives for postmortems.
    fn quarantine(
        &self,
        key: &CacheKey,
        path: &Path,
        reason: &DecodeFailure,
    ) -> Result<PathBuf, CacheError> {
        let qdir = self.root.join("quarantine");
        loop {
            let n = self.op_counter.fetch_add(1, Ordering::Relaxed);
            let dest = qdir.join(format!("{}.{}.{n}", key.hex(), reason.label()));
            if dest.exists() {
                continue; // counter collision with an older process; retry
            }
            return match fs::rename(path, &dest) {
                Ok(()) => Ok(dest),
                // Someone else already moved or replaced it; that is fine.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(dest),
                Err(e) => Err(CacheError::io(format!("quarantining entry: {e}"))
                    .for_key(*key)
                    .at_path(dest)),
            };
        }
    }

    /// One write-protocol step: advance the step counter and fire the kill
    /// fault when armed for this step. A fired kill leaves every file
    /// exactly as it is — temp files and locks leak, like a real crash.
    fn step(&self, what: &str) -> Result<(), CacheError> {
        let step = self.write_step.fetch_add(1, Ordering::Relaxed);
        if self.faults.kill_at_step == Some(step)
            && self.kill_armed.swap(false, Ordering::Relaxed)
        {
            return Err(CacheError::new(
                CacheErrorKind::Killed,
                format!("simulated crash at write step {step} ({what})"),
            ));
        }
        Ok(())
    }

    /// Publish `payload` under `key` with first-writer-wins discipline.
    ///
    /// Returns [`Published::LostRace`] when another live writer holds the
    /// lock — callers re-read after the winner commits. A [`CacheError`]
    /// with kind `Killed` means the injected crash fired; the store is left
    /// in whatever state the protocol had reached, which the crash-recovery
    /// tests then re-open and verify.
    pub fn publish(&self, key: &CacheKey, payload: &str) -> Result<Published, CacheError> {
        // Injected fault: a dead writer's lock planted before we start.
        if self.stale_lock_armed.swap(false, Ordering::Relaxed) {
            let _ = fs::write(self.lock_path(key), b"dead");
        }

        self.step("acquire lock")?;
        if !self.try_lock(key)? {
            self.lost_races.fetch_add(1, Ordering::Relaxed);
            return Ok(Published::LostRace);
        }
        let result = self.publish_locked(key, payload);
        match &result {
            // A kill is a simulated process death: leak the lock, exactly
            // as a real crash would.
            Err(e) if e.kind == CacheErrorKind::Killed => {}
            _ => {
                let _ = fs::remove_file(self.lock_path(key));
            }
        }
        result
    }

    fn publish_locked(&self, key: &CacheKey, payload: &str) -> Result<Published, CacheError> {
        // Double-check under the lock: a racing writer may have committed
        // while we waited, and first writer wins. A bad existing entry is
        // quarantined (evidence preserved) before we write a fresh one.
        let entry_path = self.entry_path(key);
        match fs::read(&entry_path) {
            Ok(bytes) => match decode(&bytes, Some(key)) {
                Ok(_) => {
                    self.already_present.fetch_add(1, Ordering::Relaxed);
                    return Ok(Published::AlreadyPresent);
                }
                Err(reason) => {
                    self.quarantine(key, &entry_path, &reason)?;
                    self.recovered.fetch_add(1, Ordering::Relaxed);
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(CacheError::io(format!("probing entry: {e}"))
                    .for_key(*key)
                    .at_path(entry_path))
            }
        }

        let bytes = encode(key, payload);
        let token = self.op_counter.fetch_add(1, Ordering::Relaxed);
        let tmp_path = self
            .root
            .join("tmp")
            .join(format!("{}.{}.tmp", key.hex(), token));

        // Injected disk-exhaustion faults. Both strike before the entry
        // namespace is touched, so a full disk can lose only the entry
        // being written — never a committed one. The caller sees a plain
        // `Io` error (the lock is released on the way out) and falls back
        // to an uncached compile.
        if self.enospc_armed.swap(false, Ordering::Relaxed) {
            return Err(CacheError::io("injected ENOSPC: no space left on device")
                .for_key(*key)
                .at_path(tmp_path));
        }
        let written = if self.short_write_armed.swap(false, Ordering::Relaxed) {
            // The disk filled mid-write: a strict prefix reached the temp
            // file before the write call failed.
            let keep = bytes.len() / 2;
            let _ = fs::write(&tmp_path, &bytes[..keep]);
            Err(CacheError::io(format!(
                "injected short write: {keep} of {} bytes before the disk filled",
                bytes.len()
            ))
            .at_path(tmp_path.clone()))
        } else {
            // Steps 2–6 of the protocol are the shared atomic-commit
            // primitive; the step hook keeps the kill-at-step fault
            // injection working at every protocol point.
            crate::atomic::atomic_write_with(&tmp_path, &entry_path, &bytes, &mut |what| {
                self.step(what)
            })
        };
        if let Err(e) = written {
            // A write that failed under a live process is that process's to
            // clean up: a full disk must not also keep the partial temp
            // file. Only a (simulated) crash leaks it, for the next open's
            // sweep.
            if e.kind != CacheErrorKind::Killed {
                let _ = fs::remove_file(&tmp_path);
            }
            return Err(e.for_key(*key));
        }

        self.stored.fetch_add(1, Ordering::Relaxed);

        // Injected corruption faults strike the committed entry, modelling
        // damage that happens after the write and before the next read.
        if self.corruption_armed.swap(false, Ordering::Relaxed) {
            if let Ok(clean) = fs::read(&entry_path) {
                if let Some(damaged) = self.faults.corrupt_entry(&clean) {
                    let _ = fs::write(&entry_path, damaged);
                }
            }
        }

        self.touch(key);
        self.enforce_quota(key);

        Ok(Published::Stored)
    }

    /// Append a recency record for `key` to the LRU journal. Best-effort:
    /// a failed or torn append only degrades eviction ordering toward the
    /// mtime fallback, never correctness. Only quota-governed stores pay
    /// the journal write.
    fn touch(&self, key: &CacheKey) {
        if self.quota_bytes.is_none() {
            return;
        }
        if let Ok(mut file) = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.journal_path())
        {
            let _ = writeln!(file, "{}", key.hex());
        }
    }

    /// Every committed entry the store owns: `(hex stem, path, len, mtime)`.
    /// Foreign files under `entries/` are not included — they are not the
    /// store's to count or evict.
    fn committed_entries(&self) -> Vec<CommittedEntry> {
        let entries_dir = self.root.join("entries");
        let Ok(listing) = fs::read_dir(&entries_dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for file in listing.flatten() {
            let path = file.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if u64::from_str_radix(stem, 16).is_err() {
                continue;
            }
            let Ok(meta) = file.metadata() else { continue };
            out.push(CommittedEntry {
                hex: stem.to_string(),
                path,
                len: meta.len(),
                modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        out
    }

    /// Evict least-recently-used committed entries until the store fits
    /// the quota again. Runs under the publishing key's lock; `protect`
    /// (the entry this publish just wrote) is never a victim, nor are temp
    /// files, locks, or quarantined evidence. Failures are swallowed: the
    /// quota is a hygiene property, and a failed unlink only leaves the
    /// store temporarily over budget until the next publish retries.
    fn enforce_quota(&self, protect: &CacheKey) {
        let Some(quota) = self.quota_bytes else { return };
        let mut entries = self.committed_entries();
        let mut total: u64 = entries.iter().map(|e| e.len).sum();

        // LRU rank: the *last* journal mention wins; entries that were
        // never journaled sort before any journaled entry, oldest mtime
        // first (they predate quota governance, so they are the coldest).
        let mut last_seen: HashMap<String, usize> = HashMap::new();
        let mut journal_lines = 0usize;
        if let Ok(journal) = fs::read_to_string(self.journal_path()) {
            for (i, line) in journal.lines().enumerate() {
                journal_lines += 1;
                let line = line.trim();
                if !line.is_empty() {
                    last_seen.insert(line.to_string(), i);
                }
            }
        }
        entries.sort_by(|a, b| match (last_seen.get(&a.hex), last_seen.get(&b.hex)) {
            (Some(x), Some(y)) => x.cmp(y),
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (None, None) => a.modified.cmp(&b.modified),
        });

        let protect_hex = protect.hex();
        for entry in &entries {
            if total <= quota {
                break;
            }
            if entry.hex == protect_hex {
                continue;
            }
            if fs::remove_file(&entry.path).is_ok() {
                total = total.saturating_sub(entry.len);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Keep the journal bounded: once it is much longer than the live
        // entry set, rewrite it as one line per survivor in LRU order,
        // through the same atomic-commit primitive as entries so a reader
        // never sees a torn journal.
        if journal_lines > entries.len().saturating_mul(8) + 64 {
            let body: String = entries
                .iter()
                .filter(|e| e.path.exists())
                .map(|e| format!("{}\n", e.hex))
                .collect();
            let tmp = self.root.join("tmp").join(format!(
                "journal.{}.tmp",
                self.op_counter.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = crate::atomic::atomic_write(&tmp, &self.journal_path(), body.as_bytes());
        }
    }

    /// Create-exclusive lock acquisition with stale-lock breaking. Returns
    /// false when a live writer holds the lock.
    fn try_lock(&self, key: &CacheKey) -> Result<bool, CacheError> {
        let path = self.lock_path(key);
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    // The token carries pid + process start time so a
                    // reader can tell a slow-but-alive holder (never
                    // preempted) from a dead one (broken immediately, even
                    // if the pid was recycled).
                    let pid = std::process::id();
                    let token = format!(
                        "live {pid} {} {}",
                        process_start_time(pid).unwrap_or(0),
                        self.op_counter.fetch_add(1, Ordering::Relaxed)
                    );
                    file.write_all(token.as_bytes()).map_err(|e| {
                        CacheError::new(CacheErrorKind::Lock, format!("writing lock: {e}"))
                            .for_key(*key)
                            .at_path(path.clone())
                    })?;
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if attempt > 0 || !self.lock_is_stale(&path) {
                        return Ok(false);
                    }
                    // Break the stale lock and retry the exclusive create
                    // exactly once; losing that retry means a live writer
                    // beat us to it.
                    let _ = fs::remove_file(&path);
                }
                Err(e) => {
                    return Err(CacheError::new(
                        CacheErrorKind::Lock,
                        format!("creating lock: {e}"),
                    )
                    .for_key(*key)
                    .at_path(path))
                }
            }
        }
        Ok(false)
    }

    /// A lock is stale when its writer declared itself dead, when its
    /// holder (pid + start time from the token) is no longer running, or —
    /// for tokens without liveness info — when it has outlived the timeout.
    ///
    /// A parseable token whose holder is verifiably alive is *never*
    /// stale: a writer that is merely slow is not preempted no matter how
    /// far past the timeout its lock is, and the start-time check defeats
    /// pid recycling (a new process under the old pid has a different
    /// start time, so the dead writer's lock still breaks immediately).
    fn lock_is_stale(&self, path: &Path) -> bool {
        let token = fs::read_to_string(path).unwrap_or_default();
        if token.trim() == "dead" {
            return true;
        }
        if self.lock_timeout.is_zero() {
            return true;
        }
        if let Some((pid, start)) = parse_live_token(token.trim()) {
            if let Some(alive) = holder_alive(pid, start) {
                return !alive;
            }
            // No procfs on this platform: fall through to the age check.
        }
        match fs::metadata(path).and_then(|m| m.modified()) {
            Ok(modified) => modified
                .elapsed()
                .is_ok_and(|age| age >= self.lock_timeout),
            // Vanished while we looked: treat as stale and let the
            // exclusive create decide.
            Err(_) => true,
        }
    }

    /// Scan every committed entry, quarantining any that fail to decode.
    /// Returns `(valid, quarantined)` counts. Used by crash-recovery tests
    /// and `sfd --verify` to prove the store is readable end to end.
    pub fn verify_integrity(&self) -> Result<(usize, usize), CacheError> {
        let entries_dir = self.root.join("entries");
        let listing = fs::read_dir(&entries_dir).map_err(|e| {
            CacheError::io(format!("listing entries: {e}")).at_path(entries_dir)
        })?;
        let mut valid = 0;
        let mut quarantined = 0;
        let mut files: Vec<PathBuf> = listing.flatten().map(|f| f.path()).collect();
        files.sort();
        for path in files {
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Ok(hash) = u64::from_str_radix(stem, 16) else {
                // Foreign file in entries/: leave it alone; only files the
                // store could have written are its responsibility.
                continue;
            };
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(_) => continue,
            };
            match decode(&bytes, None) {
                Ok(entry) if entry.key.hash == hash => valid += 1,
                Ok(entry) => {
                    // Internally consistent but filed under the wrong name.
                    let reason = DecodeFailure::KeyMismatch { found: entry.key };
                    self.quarantine(&entry.key, &path, &reason)?;
                    quarantined += 1;
                }
                Err(reason) => {
                    let key = CacheKey { hash, tripwire: 0 };
                    self.quarantine(&key, &path, &reason)?;
                    quarantined += 1;
                }
            }
        }
        Ok((valid, quarantined))
    }
}

/// One committed entry file, as seen by quota accounting.
#[derive(Debug)]
struct CommittedEntry {
    hex: String,
    path: PathBuf,
    len: u64,
    modified: SystemTime,
}

/// Parse a `"live <pid> <starttime> <op>"` lock token. Legacy two-field
/// tokens (`"live <op>"`) return `None` and fall back to the age check, so
/// locks written by older builds still break on timeout.
fn parse_live_token(token: &str) -> Option<(u32, u64)> {
    let mut parts = token.split_whitespace();
    if parts.next() != Some("live") {
        return None;
    }
    let pid = parts.next()?.parse().ok()?;
    let start = parts.next()?.parse().ok()?;
    Some((pid, start))
}

/// The process's start time from `/proc/<pid>/stat` (field 22), parsed
/// from after the parenthesised comm field so hostile process names with
/// spaces or digits cannot confuse the split. `None` when the process
/// does not exist (or procfs is absent).
fn process_start_time(pid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let (_, rest) = stat.rsplit_once(')')?;
    // After the comm field, `state` is field 3, so starttime (field 22)
    // is the 20th whitespace-separated value.
    rest.split_whitespace().nth(19)?.parse().ok()
}

/// Whether the process that wrote a lock token is still the same process
/// running under that pid. `None` when liveness cannot be determined at
/// all (no procfs), in which case callers fall back to lock age.
fn holder_alive(pid: u32, start: u64) -> Option<bool> {
    if !Path::new("/proc/self").exists() {
        return None;
    }
    Some(process_start_time(pid) == Some(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as TestCounter, Ordering as TestOrdering};

    static DIR_SEQ: TestCounter = TestCounter::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, TestOrdering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "sf-cache-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key() -> CacheKey {
        CacheKey::derive("kernel source", "k20x", "cfg")
    }

    #[test]
    fn miss_then_publish_then_hit_round_trips() {
        let dir = scratch_dir("roundtrip");
        let store = PlanStore::open(&dir).unwrap();
        let k = key();
        assert_eq!(store.lookup(&k).unwrap(), Lookup::Miss);
        assert_eq!(store.publish(&k, "{\"plan\":1}").unwrap(), Published::Stored);
        let hit = store.lookup(&k).unwrap();
        assert_eq!(hit.payload(), Some("{\"plan\":1}"));
        // Republishing the same key is a no-op.
        assert_eq!(
            store.publish(&k, "{\"plan\":1}").unwrap(),
            Published::AlreadyPresent
        );
        let s = store.stats();
        assert_eq!((s.misses, s.hits, s.stored, s.already_present), (1, 1, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_entry_is_quarantined_and_slot_recovers() {
        let dir = scratch_dir("quarantine");
        let store = PlanStore::open(&dir).unwrap();
        let k = key();
        store.publish(&k, "payload").unwrap();
        // Corrupt the committed entry in place (external damage).
        let path = store.entry_path(&k);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        match store.lookup(&k).unwrap() {
            Lookup::Recovered { reason, quarantined } => {
                assert_eq!(reason.label(), "corrupt");
                assert!(quarantined.exists(), "evidence must survive");
                assert!(
                    quarantined.to_string_lossy().contains("corrupt"),
                    "{quarantined:?}"
                );
            }
            other => panic!("expected recovery, got {other:?}"),
        }
        // The slot is free again: miss, then a clean republish hits.
        assert_eq!(store.lookup(&k).unwrap(), Lookup::Miss);
        assert_eq!(store.publish(&k, "payload").unwrap(), Published::Stored);
        assert_eq!(store.lookup(&k).unwrap().payload(), Some("payload"));
        assert_eq!(store.stats().recovered, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_corrupt_then_recover() {
        for (tag, faults) in [
            ("torn", CacheFaults { torn_write: Some(31), ..CacheFaults::default() }),
            ("flip", CacheFaults { bit_flip: Some(777), ..CacheFaults::default() }),
            ("skew", CacheFaults { version_skew: true, ..CacheFaults::default() }),
        ] {
            let dir = scratch_dir(tag);
            let store =
                PlanStore::open_with(&dir, StoreOptions { faults, ..StoreOptions::default() })
                    .unwrap();
            let k = key();
            assert_eq!(store.publish(&k, "the payload").unwrap(), Published::Stored);
            // The fault struck after commit; the next read must recover.
            match store.lookup(&k).unwrap() {
                Lookup::Recovered { .. } => {}
                other => panic!("fault {tag}: expected recovery, got {other:?}"),
            }
            // The fault fired once; a republish is clean.
            assert_eq!(store.publish(&k, "the payload").unwrap(), Published::Stored);
            assert_eq!(store.lookup(&k).unwrap().payload(), Some("the payload"));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn stale_lock_is_broken_live_lock_wins() {
        let dir = scratch_dir("locks");
        let k = key();
        // A dead writer's lock (injected) must not block publishing.
        let store = PlanStore::open_with(
            &dir,
            StoreOptions {
                faults: CacheFaults { stale_lock: true, ..CacheFaults::default() },
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(store.publish(&k, "x").unwrap(), Published::Stored);

        // A live lock (fresh mtime, live token) must force a lost race.
        let k2 = CacheKey::derive("other", "dev", "cfg");
        fs::write(store.lock_path(&k2), b"live 0").unwrap();
        assert_eq!(store.publish(&k2, "y").unwrap(), Published::LostRace);
        assert_eq!(store.stats().lost_races, 1);

        // With a zero timeout every lock is breakable.
        let zero = PlanStore::open_with(
            &dir,
            StoreOptions { lock_timeout: Duration::ZERO, ..StoreOptions::default() },
        )
        .unwrap();
        assert_eq!(zero.publish(&k2, "y").unwrap(), Published::Stored);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_writer_is_never_preempted_dead_writer_breaks_immediately() {
        let dir = scratch_dir("liveness");
        // Timeout of 1ms: under the old age-only rule every lock below
        // would be breakable after the sleep.
        let store = PlanStore::open_with(
            &dir,
            StoreOptions { lock_timeout: Duration::from_millis(1), ..StoreOptions::default() },
        )
        .unwrap();

        // A slow-but-alive writer (this process, correct start time) far
        // past the timeout: must NOT be preempted.
        let k = key();
        let pid = std::process::id();
        let start = super::process_start_time(pid).expect("procfs start time");
        fs::write(store.lock_path(&k), format!("live {pid} {start} 0")).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(store.publish(&k, "x").unwrap(), Published::LostRace);

        // A dead writer: same pid but a start time no process has (pid
        // recycling), broken immediately with no timeout wait.
        let k2 = CacheKey::derive("recycled", "dev", "cfg");
        fs::write(store.lock_path(&k2), format!("live {pid} {} 0", start + 1)).unwrap();
        assert_eq!(store.publish(&k2, "y").unwrap(), Published::Stored);

        // A pid that does not exist at all: also broken immediately.
        let k3 = CacheKey::derive("gone", "dev", "cfg");
        fs::write(store.lock_path(&k3), "live 4194000 12345 0").unwrap();
        assert_eq!(store.publish(&k3, "z").unwrap(), Published::Stored);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_concurrent_writers_first_wins_second_loses_then_reads() {
        let dir = scratch_dir("two-writers");
        let k = key();
        // Writer A (a separate store handle, as sfd worker threads have)
        // takes the lock and goes slow.
        let a = PlanStore::open(&dir).unwrap();
        assert!(a.try_lock(&k).unwrap());

        // Writer B arrives with a timeout far smaller than A's hold time.
        // Regression: the age-only staleness rule would break A's lock
        // here and let both writers race the rename.
        let b = PlanStore::open_with(
            &dir,
            StoreOptions { lock_timeout: Duration::from_millis(1), ..StoreOptions::default() },
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(b.publish(&k, "from b").unwrap(), Published::LostRace);

        // A finishes and releases; B re-reads the winner's entry.
        assert_eq!(a.publish_locked(&k, "from a").unwrap(), Published::Stored);
        fs::remove_file(a.lock_path(&k)).unwrap();
        assert_eq!(b.lookup(&k).unwrap().payload(), Some("from a"));

        // And a genuinely concurrent pile-up settles to one winner with
        // everyone observing the same committed payload.
        let store = std::sync::Arc::new(b);
        let k2 = CacheKey::derive("pileup", "dev", "cfg");
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = std::sync::Arc::clone(&store);
                std::thread::spawn(move || s.publish(&k2, "same payload").unwrap())
            })
            .collect();
        let outcomes: Vec<Published> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(outcomes.contains(&Published::Stored) || outcomes.contains(&Published::AlreadyPresent));
        assert_eq!(store.lookup(&k2).unwrap().payload(), Some("same payload"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_evicts_least_recently_used_entries_only() {
        let dir = scratch_dir("quota");
        let keys: Vec<CacheKey> =
            (0..4).map(|i| CacheKey::derive(&format!("src {i}"), "dev", "cfg")).collect();
        let payload = "p".repeat(64); // same length => same entry size

        // Measure one entry's on-disk size, then reopen with room for 3.
        let probe = PlanStore::open(&dir).unwrap();
        probe.publish(&keys[0], &payload).unwrap();
        let entry_len = fs::metadata(probe.entry_path(&keys[0])).unwrap().len();
        drop(probe);
        let store = PlanStore::open_with(
            &dir,
            StoreOptions { quota_bytes: Some(3 * entry_len), ..StoreOptions::default() },
        )
        .unwrap();

        store.publish(&keys[1], &payload).unwrap();
        store.publish(&keys[2], &payload).unwrap();
        assert_eq!(store.stats().evicted, 0, "under quota: nothing evicted");

        // Touch keys[0] (the oldest by mtime) so recency outranks age.
        assert!(matches!(store.lookup(&keys[0]).unwrap(), Lookup::Hit(_)));

        // A fourth entry busts the quota: the LRU victim is keys[1], not
        // the freshly-touched keys[0] and never the just-written keys[3].
        store.publish(&keys[3], &payload).unwrap();
        assert_eq!(store.stats().evicted, 1);
        assert!(store.disk_usage() <= 3 * entry_len);
        assert_eq!(store.lookup(&keys[1]).unwrap(), Lookup::Miss, "LRU entry evicted");
        for k in [&keys[0], &keys[2], &keys[3]] {
            assert_eq!(store.lookup(k).unwrap().payload(), Some(payload.as_str()));
        }
        // Survivors are pristine, nothing was quarantined by eviction.
        let (valid, quarantined) = store.verify_integrity().unwrap();
        assert_eq!((valid, quarantined), (3, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_full_faults_never_touch_committed_entries() {
        let dir = scratch_dir("enospc");
        let committed = key();
        PlanStore::open(&dir).unwrap().publish(&committed, "committed").unwrap();

        for (tag, faults) in [
            ("enospc", CacheFaults { enospc_write: true, ..CacheFaults::default() }),
            ("short", CacheFaults { short_write: true, ..CacheFaults::default() }),
        ] {
            let store = PlanStore::open_with(
                &dir,
                StoreOptions { faults, ..StoreOptions::default() },
            )
            .unwrap();
            let victim = CacheKey::derive(tag, "dev", "cfg");
            let err = store.publish(&victim, "doomed").unwrap_err();
            assert_eq!(err.kind, CacheErrorKind::Io, "{tag}: {err}");

            // The failed entry never became visible; the committed entry
            // is intact; the store as a whole is clean.
            assert_eq!(store.lookup(&victim).unwrap(), Lookup::Miss, "{tag}");
            assert_eq!(store.lookup(&committed).unwrap().payload(), Some("committed"));
            let (_, quarantined) = store.verify_integrity().unwrap();
            assert_eq!(quarantined, 0, "{tag}: disk-full tore an entry");
            // The writer outlived its failed write, so it removed the
            // partial temp file itself — nothing waits for the next open.
            let leftovers = fs::read_dir(dir.join("tmp")).unwrap().count();
            assert_eq!(leftovers, 0, "{tag}: a failed write left a temp file");

            // The fault is one-shot and the lock was released: a retry
            // (disk freed) succeeds.
            assert_eq!(store.publish(&victim, "doomed").unwrap(), Published::Stored);
        }

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_at_every_step_leaves_the_store_readable() {
        // The unit-level crash matrix; the top-level proptest replays this
        // with arbitrary payloads and multi-entry stores.
        let k = key();
        for step in 0..8 {
            let dir = scratch_dir("kill");
            let store = PlanStore::open_with(
                &dir,
                StoreOptions {
                    faults: CacheFaults {
                        kill_at_step: Some(step),
                        ..CacheFaults::default()
                    },
                    ..StoreOptions::default()
                },
            )
            .unwrap();
            match store.publish(&k, "payload") {
                Ok(Published::Stored) => {} // kill step beyond the protocol
                Err(e) => assert_eq!(e.kind, CacheErrorKind::Killed, "step {step}: {e}"),
                Ok(other) => panic!("step {step}: unexpected {other:?}"),
            }
            drop(store);

            // "Reboot": a fresh process opens the same root. The store must
            // be fully readable; the entry is either absent or perfect.
            let store = PlanStore::open_with(
                &dir,
                StoreOptions { lock_timeout: Duration::ZERO, ..StoreOptions::default() },
            )
            .unwrap();
            let (valid, quarantined) = store.verify_integrity().unwrap();
            assert_eq!(quarantined, 0, "step {step}: torn entry escaped the protocol");
            match store.lookup(&k).unwrap() {
                Lookup::Hit(e) => {
                    assert_eq!(e.payload, "payload", "step {step}");
                    assert_eq!(valid, 1);
                }
                Lookup::Miss => assert_eq!(valid, 0, "step {step}"),
                Lookup::Recovered { reason, .. } => {
                    panic!("step {step}: partial entry became visible: {reason}")
                }
            }
            // And the slot still works (stale lock from the crash breaks).
            store.publish(&k, "payload").unwrap();
            assert_eq!(store.lookup(&k).unwrap().payload(), Some("payload"));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn open_sweeps_abandoned_temp_files() {
        let dir = scratch_dir("sweep");
        let store = PlanStore::open(&dir).unwrap();
        let leftover = dir.join("tmp").join("deadbeef.0.tmp");
        fs::write(&leftover, b"half an entry").unwrap();
        drop(store);
        let _ = PlanStore::open(&dir).unwrap();
        assert!(!leftover.exists(), "open() must sweep tmp/");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_integrity_quarantines_wrong_named_entries() {
        let dir = scratch_dir("verify");
        let store = PlanStore::open(&dir).unwrap();
        let k = key();
        store.publish(&k, "good").unwrap();
        // A valid entry filed under the wrong hash name.
        let misfiled = dir.join("entries").join("00000000deadbeef.plan");
        fs::copy(store.entry_path(&k), &misfiled).unwrap();
        // A foreign file the store must not touch.
        let foreign = dir.join("entries").join("README");
        fs::write(&foreign, "not an entry").unwrap();

        let (valid, quarantined) = store.verify_integrity().unwrap();
        assert_eq!((valid, quarantined), (1, 1));
        assert!(!misfiled.exists());
        assert!(foreign.exists(), "foreign files are not the store's to move");
        assert_eq!(store.lookup(&k).unwrap().payload(), Some("good"));
        let _ = fs::remove_dir_all(&dir);
    }
}
