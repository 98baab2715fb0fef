//! 64-bit FNV-1a: the one stable hash behind system fingerprints, memo
//! keys and the exploration dedup table. Deterministic (no per-process
//! seed) and dependency-free, so every value it produces can be pinned.

use std::hash::{BuildHasher, Hasher};

const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a streaming hasher. The default (seed 0) is standard
/// FNV-1a; a nonzero seed perturbs the offset basis, so passes under
/// different seeds give independent halves of a wider key.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl FnvHasher {
    pub(crate) fn with_seed(seed: u64) -> Self {
        FnvHasher(BASIS ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher::with_seed(0)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

/// [`BuildHasher`] for FNV-keyed maps such as the dedup table.
#[derive(Debug, Clone, Default)]
pub struct BuildFnv;

impl BuildHasher for BuildFnv {
    type Hasher = FnvHasher;
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

/// FNV-1a of `bytes` under `seed` (0 for the standard function).
pub(crate) fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = FnvHasher::with_seed(seed);
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_vectors() {
        assert_eq!(fnv1a64(b"", 0), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a", 0), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar", 0), 0x8594_4171_f739_67e8);
    }
}
