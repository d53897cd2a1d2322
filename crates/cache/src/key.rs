//! Content-addressed cache keys.
//!
//! A key is a 64-bit FNV-1a hash over the *key material*: the canonical
//! source text, the device descriptor, the pipeline-configuration
//! fingerprint, and the cache schema / plan schema versions. Any change in
//! any of those inputs produces a different key, so a cached plan can never
//! be replayed against a program, device, or configuration it was not
//! compiled for. The raw material is never stored — only its hash — but a
//! secondary hash of the material is recorded in each entry header as a
//! collision tripwire.

use crate::entry::SCHEMA_VERSION;
use sf_core::fnv1a64;
use std::fmt;

/// A content hash identifying one (source, device, config) compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Primary hash: names the entry file.
    pub hash: u64,
    /// Secondary hash over the same material with a different offset basis;
    /// stored in the entry header and checked on read, so a primary-hash
    /// collision is detected instead of replaying the wrong plan.
    pub tripwire: u64,
}

impl CacheKey {
    /// Derive a key from the canonical source text, the device descriptor
    /// (serialized), and the pipeline-configuration fingerprint.
    pub fn derive(source: &str, device: &str, config_fingerprint: &str) -> CacheKey {
        let material = format!(
            "sf-cache schema {SCHEMA_VERSION}\nplan version {}\ndevice {device}\n\
             config {config_fingerprint}\nsource:\n{source}",
            sf_plan::PLAN_VERSION
        );
        let hash = fnv1a64(material.as_bytes());
        // Different basis, same prime: an independent check stream.
        let mut tripwire: u64 = 0x6c62_272e_07bb_0142;
        for &b in material.as_bytes() {
            tripwire ^= u64::from(b);
            tripwire = tripwire.wrapping_mul(0x0000_0100_0000_01b3);
        }
        CacheKey { hash, tripwire }
    }

    /// Hex file stem of the entry (`entries/<hex>.plan`).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_separate_every_input() {
        let base = CacheKey::derive("src", "dev", "cfg");
        assert_eq!(base, CacheKey::derive("src", "dev", "cfg"));
        assert_ne!(base, CacheKey::derive("src2", "dev", "cfg"));
        assert_ne!(base, CacheKey::derive("src", "dev2", "cfg"));
        assert_ne!(base, CacheKey::derive("src", "dev", "cfg2"));
    }

    #[test]
    fn hex_is_stable_and_filename_safe() {
        let k = CacheKey::derive("s", "d", "c");
        assert_eq!(k.hex().len(), 16);
        assert!(k.hex().chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(k.to_string(), k.hex());
    }
}
