//! Instance-placement bitmaps (§4.2.2).
//!
//! After a node splits under vertical partitioning, only the worker owning
//! the split feature knows each instance's side; it broadcasts one bit per
//! instance ("we use a bitmap to represent the instance placement, which can
//! reduce the network overhead by 32×" — versus sending 32-bit instance
//! ids). All workers then apply the same bitmap to their node-to-instance
//! indexes, which keeps those indexes identical across the cluster.

use gbdt_data::frame::{DecodeError, Reader};
use serde::{Deserialize, Serialize};

/// A packed left/right placement bitmap: bit `i` set means the `i`-th
/// instance *of the node being split* (in index order) goes left.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementBitmap {
    n_bits: usize,
    words: Vec<u64>,
}

impl PlacementBitmap {
    /// An all-right (all zero) bitmap for `n_bits` instances.
    pub fn new(n_bits: usize) -> Self {
        PlacementBitmap { n_bits, words: vec![0; n_bits.div_ceil(64)] }
    }

    /// Builds a bitmap by evaluating `goes_left` on `0..n_bits`.
    pub fn from_predicate(n_bits: usize, mut goes_left: impl FnMut(usize) -> bool) -> Self {
        let mut bm = Self::new(n_bits);
        for i in 0..n_bits {
            if goes_left(i) {
                bm.set(i);
            }
        }
        bm
    }

    /// Number of instances covered.
    pub fn len(&self) -> usize {
        self.n_bits
    }

    /// True when covering zero instances.
    pub fn is_empty(&self) -> bool {
        self.n_bits == 0
    }

    /// Marks instance `i` as going left.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.n_bits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether instance `i` goes left.
    #[inline]
    pub fn goes_left(&self, i: usize) -> bool {
        debug_assert!(i < self.n_bits);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of instances going left.
    pub fn count_left(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Exact wire encoding: ⌈N/8⌉ bytes plus an 8-byte header — the `⌈N/8⌉`
    /// of the paper's §3.1.3 communication formula.
    pub fn encode_bytes(&self) -> Vec<u8> {
        let n_bytes = self.n_bits.div_ceil(8);
        let mut out = Vec::with_capacity(8 + n_bytes);
        out.extend_from_slice(&(self.n_bits as u64).to_le_bytes());
        for chunk in 0..n_bytes {
            let word = self.words[chunk / 8];
            out.push((word >> ((chunk % 8) * 8)) as u8);
        }
        out
    }

    /// Decodes [`Self::encode_bytes`] output.
    pub fn decode_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let n_bits = r.u64()? as usize;
        let payload = r.take(n_bits.div_ceil(8))?;
        r.finish()?;
        let mut words = vec![0u64; n_bits.div_ceil(64)];
        for (chunk, &b) in payload.iter().enumerate() {
            words[chunk / 8] |= u64::from(b) << ((chunk % 8) * 8);
        }
        // Reject stray bits beyond n_bits (defensive: malformed input).
        let stray = |last: &u64| last >> (n_bits % 64) != 0;
        if !n_bits.is_multiple_of(64) && words.last().is_some_and(stray) {
            return Err(r.error(format!("bits set past bit {n_bits}")));
        }
        Ok(PlacementBitmap { n_bits, words })
    }

    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        8 + self.n_bits.div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut bm = PlacementBitmap::new(130);
        bm.set(0);
        bm.set(64);
        bm.set(129);
        assert!(bm.goes_left(0));
        assert!(!bm.goes_left(1));
        assert!(bm.goes_left(64));
        assert!(bm.goes_left(129));
        assert_eq!(bm.count_left(), 3);
        assert_eq!(bm.len(), 130);
    }

    #[test]
    fn from_predicate_matches() {
        let bm = PlacementBitmap::from_predicate(100, |i| i % 3 == 0);
        for i in 0..100 {
            assert_eq!(bm.goes_left(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.count_left(), 34);
    }

    #[test]
    fn wire_roundtrip_various_sizes() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 128, 1000] {
            let bm = PlacementBitmap::from_predicate(n, |i| (i * 7) % 3 == 1);
            let bytes = bm.encode_bytes();
            assert_eq!(bytes.len(), bm.wire_bytes(), "n={n}");
            assert_eq!(PlacementBitmap::decode_bytes(&bytes).unwrap(), bm, "n={n}");
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(PlacementBitmap::decode_bytes(&[1, 2, 3]).is_err());
        let bm = PlacementBitmap::from_predicate(20, |i| i % 2 == 0);
        let mut bytes = bm.encode_bytes();
        bytes.push(0);
        assert!(PlacementBitmap::decode_bytes(&bytes).is_err());
    }

    #[test]
    fn achieves_32x_reduction_vs_u32_ids() {
        // One bit per instance vs one u32 per instance.
        let n = 1_000_000;
        let bm = PlacementBitmap::new(n);
        let naive = n * 4;
        assert!(naive as f64 / bm.wire_bytes() as f64 > 31.0);
    }
}
