//! Structured cache errors.

use crate::key::CacheKey;
use std::fmt;
use std::path::PathBuf;

/// What went wrong in a cache operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheErrorKind {
    /// Filesystem operation failed (permissions, disk full, ...).
    Io,
    /// Lock acquisition failed in a way that retrying may fix.
    Lock,
    /// A simulated crash ([`sf_core::CacheFaults::kill_at_step`]) stopped the
    /// write protocol mid-flight. Test-only: the store behaves exactly as
    /// if the process died at that write point.
    Killed,
}

impl CacheErrorKind {
    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            CacheErrorKind::Io => "io",
            CacheErrorKind::Lock => "lock",
            CacheErrorKind::Killed => "killed",
        }
    }

    /// Whether retrying the same operation may succeed.
    pub fn is_transient(self) -> bool {
        matches!(self, CacheErrorKind::Lock)
    }
}

/// A failed cache operation, with the key and path when known.
///
/// Note what is *not* an error: a corrupt, torn, or version-skewed entry.
/// Those are expected states of a crash-prone world — the read path
/// quarantines the entry and reports [`crate::Lookup::Recovered`], and the
/// caller falls through to a fresh compile (the cache rung of the
/// degradation ladder).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheError {
    /// Failure class.
    pub kind: CacheErrorKind,
    /// The key in play, when the operation had one.
    pub key: Option<CacheKey>,
    /// The path in play, when one is known.
    pub path: Option<PathBuf>,
    /// Human-readable detail.
    pub message: String,
}

impl CacheError {
    /// Construct an error of `kind` with no key/path attribution.
    pub fn new(kind: CacheErrorKind, message: impl Into<String>) -> CacheError {
        CacheError {
            kind,
            key: None,
            path: None,
            message: message.into(),
        }
    }

    pub(crate) fn io(message: impl Into<String>) -> CacheError {
        CacheError::new(CacheErrorKind::Io, message)
    }

    pub(crate) fn for_key(mut self, key: CacheKey) -> CacheError {
        self.key = Some(key);
        self
    }

    pub(crate) fn at_path(mut self, path: impl Into<PathBuf>) -> CacheError {
        self.path = Some(path.into());
        self
    }

    /// Whether retrying the same operation may succeed.
    pub fn is_transient(&self) -> bool {
        self.kind.is_transient()
    }
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache error [{}]", self.kind.label())?;
        if let Some(k) = &self.key {
            write!(f, " key {k}")?;
        }
        if let Some(p) = &self.path {
            write!(f, " path {}", p.display())?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for CacheError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_kind_key_and_path() {
        let e = CacheError::io("disk full")
            .for_key(CacheKey::derive("s", "d", "c"))
            .at_path("/tmp/x");
        let text = e.to_string();
        assert!(text.contains("[io]"), "{text}");
        assert!(text.contains("key "), "{text}");
        assert!(text.contains("/tmp/x"), "{text}");
        assert!(text.contains("disk full"), "{text}");
        assert!(!e.is_transient());
        assert!(CacheError::new(CacheErrorKind::Lock, "busy").is_transient());
    }
}
