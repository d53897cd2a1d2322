//! The shared atomic-commit primitive: temp file + fsync + rename.
//!
//! This is the write protocol behind every durable artifact in the
//! workspace — plan-cache entries ([`crate::PlanStore`]) and search
//! checkpoints (`sf-search`) commit through the same five steps:
//!
//! 1. create a temp file next to (never at) the destination,
//! 2. write the full payload,
//! 3. `fsync` the temp file,
//! 4. `rename` it over the destination (atomic on POSIX),
//! 5. `fsync` the destination's parent directory.
//!
//! A crash before step 4 leaves at most a temp file; a crash after leaves
//! a complete, durable destination. No reader ever observes a partial
//! file at the destination path.
//!
//! The `step` hook runs before each step with its name and may abort the
//! protocol by returning an error — that is how the kill-at-step fault
//! injection simulates a crash at every protocol point. Production
//! callers pass a no-op (or use [`atomic_write`]).

use crate::error::CacheError;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Commit `bytes` to `dest_path` via `tmp_path` with the five-step
/// protocol above, calling `step` before each step. An error from `step`
/// aborts mid-protocol leaving files exactly as they are, like a crash.
pub fn atomic_write_with(
    tmp_path: &Path,
    dest_path: &Path,
    bytes: &[u8],
    step: &mut dyn FnMut(&'static str) -> Result<(), CacheError>,
) -> Result<(), CacheError> {
    step("create temp file")?;
    let mut tmp = fs::File::create(tmp_path)
        .map_err(|e| CacheError::io(format!("creating temp file: {e}")).at_path(tmp_path))?;

    step("write payload")?;
    tmp.write_all(bytes)
        .map_err(|e| CacheError::io(format!("writing payload: {e}")).at_path(tmp_path))?;

    step("fsync temp file")?;
    tmp.sync_all()
        .map_err(|e| CacheError::io(format!("fsyncing payload: {e}")).at_path(tmp_path))?;
    drop(tmp);

    step("rename into place")?;
    fs::rename(tmp_path, dest_path)
        .map_err(|e| CacheError::io(format!("committing file: {e}")).at_path(dest_path))?;

    step("fsync destination directory")?;
    if let Some(parent) = dest_path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            // Directory fsync is advisory on some filesystems; failure to
            // sync is not failure to commit.
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// [`atomic_write_with`] with no fault hook — the production path.
pub fn atomic_write(tmp_path: &Path, dest_path: &Path, bytes: &[u8]) -> Result<(), CacheError> {
    atomic_write_with(tmp_path, dest_path, bytes, &mut |_| Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CacheErrorKind;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sf-cache-atomic-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn commits_bytes_and_cleans_up_the_temp_path() {
        let dir = scratch("commit");
        let tmp = dir.join("x.tmp");
        let dest = dir.join("x");
        atomic_write(&tmp, &dest, b"payload").unwrap();
        assert_eq!(fs::read(&dest).unwrap(), b"payload");
        assert!(!tmp.exists(), "temp file must be renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn abort_at_every_step_never_exposes_a_partial_destination() {
        for kill in 0..6u32 {
            let dir = scratch(&format!("kill{kill}"));
            let tmp = dir.join("x.tmp");
            let dest = dir.join("x");
            let mut at = 0u32;
            let result = atomic_write_with(&tmp, &dest, b"payload", &mut |what| {
                let step = at;
                at += 1;
                if step == kill {
                    Err(CacheError::new(
                        CacheErrorKind::Killed,
                        format!("simulated crash before {what}"),
                    ))
                } else {
                    Ok(())
                }
            });
            if kill < 5 {
                assert_eq!(result.unwrap_err().kind, CacheErrorKind::Killed);
            } else {
                result.unwrap(); // kill step beyond the protocol
            }
            // The destination is either absent or complete — never torn.
            match fs::read(&dest) {
                Ok(bytes) => assert_eq!(bytes, b"payload", "kill at {kill}"),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
