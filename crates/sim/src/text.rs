//! The FNV-1a hash: the one byte-level hash every layer's on-disk and
//! pinned contracts share.

/// Stable 64-bit FNV-1a over a byte slice. Deterministic across runs and
/// platforms: the store's shard routing (an on-disk contract — it decides
/// which shard directory holds a key) and the pinned content hashes of the
/// format tests and `fig_compact` all depend on these exact values.
///
/// # Examples
///
/// ```
/// assert_eq!(nob_sim::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(nob_sim::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
