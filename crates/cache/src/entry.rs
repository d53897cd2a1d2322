//! On-disk entry format.
//!
//! An entry is a small text header followed by the plan JSON payload:
//!
//! ```text
//! sfcache 1
//! key 9f86d081884c7d65 a3b2c1d0e9f84756
//! payload 1234 6c62272e07bb0142
//!
//! { ... TransformPlan JSON ... }
//! ```
//!
//! Line 1 carries the cache schema version — checked *first*, before
//! anything else is parsed, so a version-skewed entry written by a
//! different build is always classified as skew, never as corruption.
//! Line 2 carries the primary key (must match the filename-derived key) and
//! the collision tripwire. Line 3 declares the payload length in bytes and
//! its FNV-1a checksum; a payload shorter than declared is a *torn* write
//! (crash mid-append), a checksum mismatch with the right length is
//! *corruption* (bit rot / bit flip).
//!
//! Decoding never panics and classifies every failure so the store can
//! report *why* an entry was quarantined.

use crate::key::CacheKey;
use sf_core::fnv1a64;
use std::fmt;

/// Cache schema version. Bumped on any incompatible change to the entry
/// format or the key-material layout; part of the key material, so a bump
/// also invalidates (misses) every old entry rather than misreading it.
pub const SCHEMA_VERSION: u32 = 1;

const MAGIC: &str = "sfcache";

/// A decoded cache entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The key the entry was written under.
    pub key: CacheKey,
    /// The plan JSON payload, byte-identical to what was published.
    pub payload: String,
}

/// Why an entry failed to decode. Every variant is recoverable: the store
/// quarantines the file and the caller recompiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeFailure {
    /// The file ends before the declared structure does — the classic
    /// torn-write shape left by a crash between `write` and `fsync`.
    Torn {
        /// What was missing.
        detail: String,
    },
    /// The structure is complete but the bytes are wrong: bad magic,
    /// checksum mismatch, unparseable header fields, trailing garbage.
    Corrupt {
        /// What failed to verify.
        detail: String,
    },
    /// The entry was written by a build speaking a different cache schema.
    VersionSkew {
        /// The version found on disk.
        found: u32,
    },
    /// The entry decodes but belongs to a different key — either a
    /// misplaced file or a primary-hash collision caught by the tripwire.
    KeyMismatch {
        /// The key found in the entry header.
        found: CacheKey,
    },
}

impl DecodeFailure {
    /// Stable label used in quarantine filenames and reports.
    pub fn label(&self) -> &'static str {
        match self {
            DecodeFailure::Torn { .. } => "torn",
            DecodeFailure::Corrupt { .. } => "corrupt",
            DecodeFailure::VersionSkew { .. } => "version-skew",
            DecodeFailure::KeyMismatch { .. } => "key-mismatch",
        }
    }
}

impl fmt::Display for DecodeFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeFailure::Torn { detail } => write!(f, "torn entry: {detail}"),
            DecodeFailure::Corrupt { detail } => write!(f, "corrupt entry: {detail}"),
            DecodeFailure::VersionSkew { found } => write!(
                f,
                "cache schema version {found} (this build speaks {SCHEMA_VERSION})"
            ),
            DecodeFailure::KeyMismatch { found } => {
                write!(f, "entry belongs to key {found}, not this one")
            }
        }
    }
}

/// Encode `payload` under `key` into the on-disk byte format.
pub fn encode(key: &CacheKey, payload: &str) -> Vec<u8> {
    let header = format!(
        "{MAGIC} {SCHEMA_VERSION}\nkey {:016x} {:016x}\npayload {} {:016x}\n\n",
        key.hash,
        key.tripwire,
        payload.len(),
        fnv1a64(payload.as_bytes()),
    );
    let mut bytes = Vec::with_capacity(header.len() + payload.len());
    bytes.extend_from_slice(header.as_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    bytes
}

fn torn(detail: impl Into<String>) -> DecodeFailure {
    DecodeFailure::Torn {
        detail: detail.into(),
    }
}

fn corrupt(detail: impl Into<String>) -> DecodeFailure {
    DecodeFailure::Corrupt {
        detail: detail.into(),
    }
}

fn parse_hex64(text: &str) -> Option<u64> {
    (text.len() == 16).then(|| u64::from_str_radix(text, 16).ok())?
}

/// Decode an entry, verifying structure, version, checksum, and — when
/// `expect` is given — that it belongs to that key (tripwire included).
pub fn decode(bytes: &[u8], expect: Option<&CacheKey>) -> Result<Entry, DecodeFailure> {
    if bytes.is_empty() {
        return Err(torn("empty file"));
    }
    // The header is ASCII; decode only as far as we need so a payload
    // containing arbitrary bytes after truncation still classifies.
    let text = std::str::from_utf8(bytes).map_err(|_| corrupt("entry is not valid UTF-8"))?;

    let mut rest = text;
    let mut next_line = |what: &str| -> Result<&str, DecodeFailure> {
        match rest.split_once('\n') {
            Some((line, tail)) => {
                rest = tail;
                Ok(line)
            }
            None => Err(torn(format!("missing {what} line"))),
        }
    };

    // Line 1: magic + schema version. Version skew is decided here, before
    // any other structure is trusted.
    let line = next_line("magic")?;
    let version_text = line
        .strip_prefix(MAGIC)
        .and_then(|t| t.strip_prefix(' '))
        .ok_or_else(|| corrupt(format!("bad magic line {line:?}")))?;
    let version: u32 = version_text
        .trim()
        .parse()
        .map_err(|_| corrupt(format!("unparseable schema version {version_text:?}")))?;
    if version != SCHEMA_VERSION {
        return Err(DecodeFailure::VersionSkew { found: version });
    }

    // Line 2: key + tripwire.
    let line = next_line("key")?;
    let key = line
        .strip_prefix("key ")
        .and_then(|t| t.split_once(' '))
        .and_then(|(h, t)| {
            Some(CacheKey {
                hash: parse_hex64(h)?,
                tripwire: parse_hex64(t)?,
            })
        })
        .ok_or_else(|| corrupt(format!("bad key line {line:?}")))?;

    // Line 3: payload length + checksum.
    let line = next_line("payload")?;
    let (declared_len, checksum) = line
        .strip_prefix("payload ")
        .and_then(|t| t.split_once(' '))
        .and_then(|(l, c)| Some((l.parse::<usize>().ok()?, parse_hex64(c)?)))
        .ok_or_else(|| corrupt(format!("bad payload line {line:?}")))?;

    // Blank separator line.
    let line = next_line("separator")?;
    if !line.is_empty() {
        return Err(corrupt(format!("expected blank separator, got {line:?}")));
    }

    // Payload: exact declared length, then checksum.
    let payload = rest;
    if payload.len() < declared_len {
        return Err(torn(format!(
            "payload has {} of {declared_len} declared bytes",
            payload.len()
        )));
    }
    if payload.len() > declared_len {
        return Err(corrupt(format!(
            "{} trailing bytes past declared payload",
            payload.len() - declared_len
        )));
    }
    let actual = fnv1a64(payload.as_bytes());
    if actual != checksum {
        return Err(corrupt(format!(
            "payload checksum {actual:016x} != declared {checksum:016x}"
        )));
    }

    // Key identity last: the entry is internally consistent, but is it the
    // one we were asked for?
    if let Some(want) = expect {
        if key != *want {
            return Err(DecodeFailure::KeyMismatch { found: key });
        }
    }

    Ok(Entry {
        key,
        payload: payload.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CacheKey {
        CacheKey::derive("source", "device", "config")
    }

    #[test]
    fn round_trip_is_lossless() {
        let k = key();
        let bytes = encode(&k, "{\"version\":1}");
        let entry = decode(&bytes, Some(&k)).unwrap();
        assert_eq!(entry.key, k);
        assert_eq!(entry.payload, "{\"version\":1}");
        // Without an expectation too.
        assert_eq!(decode(&bytes, None).unwrap(), entry);
    }

    #[test]
    fn truncation_anywhere_is_torn_or_classified() {
        let k = key();
        let bytes = encode(&k, "payload text with some length to truncate");
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut], Some(&k)).unwrap_err();
            // Any prefix must classify (usually Torn; a cut inside a header
            // line can read as Corrupt) — never panic, never succeed.
            assert!(
                matches!(
                    err,
                    DecodeFailure::Torn { .. } | DecodeFailure::Corrupt { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn single_bit_flips_never_decode_to_the_original() {
        let k = key();
        let payload = "{\"v\":1}";
        let bytes = encode(&k, payload);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                if let Ok(entry) = decode(&flipped, Some(&k)) {
                    // A flip that survives decode must not alter the payload
                    // (e.g. it landed in ignorable whitespace — none here).
                    assert_eq!(entry.payload, payload, "flip {byte}.{bit} changed payload");
                }
            }
        }
    }

    #[test]
    fn version_skew_is_detected_before_anything_else() {
        let k = key();
        let mut bytes = encode(&k, "{}");
        // Rewrite the version and deliberately garble the rest: skew must
        // still win the classification.
        let text = String::from_utf8(bytes.clone()).unwrap();
        let skewed = text.replacen(
            &format!("{MAGIC} {SCHEMA_VERSION}"),
            &format!("{MAGIC} {}", SCHEMA_VERSION + 7),
            1,
        );
        bytes = skewed.into_bytes();
        bytes.truncate(bytes.len() - 1); // also tear it
        match decode(&bytes, Some(&k)).unwrap_err() {
            DecodeFailure::VersionSkew { found } => assert_eq!(found, SCHEMA_VERSION + 7),
            other => panic!("expected version skew, got {other}"),
        }
    }

    #[test]
    fn wrong_key_is_a_mismatch_not_corruption() {
        let k = key();
        let other = CacheKey::derive("other source", "device", "config");
        let bytes = encode(&k, "{}");
        match decode(&bytes, Some(&other)).unwrap_err() {
            DecodeFailure::KeyMismatch { found } => assert_eq!(found, k),
            e => panic!("expected key mismatch, got {e}"),
        }
        // Tripwire divergence alone (primary hash forced equal) also trips.
        let mut collided = other;
        collided.hash = k.hash;
        assert!(matches!(
            decode(&bytes, Some(&collided)).unwrap_err(),
            DecodeFailure::KeyMismatch { .. }
        ));
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let k = key();
        let mut bytes = encode(&k, "{}");
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            decode(&bytes, Some(&k)).unwrap_err(),
            DecodeFailure::Corrupt { .. }
        ));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(torn("x").label(), "torn");
        assert_eq!(corrupt("x").label(), "corrupt");
        assert_eq!(
            DecodeFailure::VersionSkew { found: 2 }.label(),
            "version-skew"
        );
        assert_eq!(
            DecodeFailure::KeyMismatch { found: key() }.label(),
            "key-mismatch"
        );
    }
}
