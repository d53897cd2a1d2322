//! The workspace's two deterministic hash primitives: the SplitMix64 step
//! behind every seeded draw, and 64-bit FNV-1a over bytes. Both are tiny,
//! dependency-free and identical on every platform, so anything derived
//! from them (fault mixes, cache keys, device fingerprints) reproduces from
//! its inputs alone.

/// One SplitMix64 step: advance `state` and return the next draw. Every
/// seeded draw in the workspace ([`crate::FaultPlan::seeded`], the chaos
/// soak's round seeds) walks this one generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a. Collision resistance is adequate for its users: the plan
/// cache's read path verifies a per-entry material tripwire and its payloads
/// are self-validating, and a device fingerprint also carries the name.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
