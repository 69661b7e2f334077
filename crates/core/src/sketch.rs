//! Mergeable quantile sketch for candidate split proposal.
//!
//! The histogram-based algorithm proposes `q` candidate splits per feature
//! from an approximation of the feature's distribution (§2.1.2), built with
//! a *mergeable* sketch so that per-worker local sketches can be repartitioned
//! and merged into global ones (§4.2.1 step 1). This is a KLL-style compactor
//! hierarchy: level `h` stores items of weight `2^h`; when a level overflows
//! it is sorted and every other item is promoted to the next level.
//!
//! Compaction offsets alternate deterministically instead of randomly, so
//! that identical inputs always produce identical sketches — the property the
//! cross-quadrant equivalence tests rely on. The paper's sketches are
//! similarly "usually small in size" (§4.2.1); the wire encoding is exact
//! and ships each level as sorted keys, delta-coded where that is smaller
//! ([`QuantileSketch::encode_bytes`]), for the repartition of step 1.
//!
//! Between calls every level holds at most `capacity` items (a compaction
//! empties the level it compacts, and [`QuantileSketch::decode_bytes`]
//! rejects anything else), so an insert compacts only when level 0
//! overflows.

use gbdt_data::frame::{DecodeError, Reader};
use serde::{Deserialize, Serialize};

/// A mergeable streaming quantile sketch over `f32` values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantileSketch {
    capacity: usize,
    /// `levels[h]` holds items of weight `2^h`, unsorted between compactions.
    levels: Vec<Vec<f32>>,
    n: u64,
    min: f32,
    max: f32,
    /// Deterministic compaction-offset alternator.
    flip: bool,
}

/// Two sketches are equal when they encode to the same bytes: the same
/// items at each level, in any order, bit for bit.
impl PartialEq for QuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        self.encode_bytes() == other.encode_bytes()
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAP)
    }
}

/// The key `f32::total_cmp` compares, as a `u32`: keys ascend exactly as
/// values do under `total_cmp`, and equal keys are equal bits.
#[inline]
fn total_key(v: f32) -> u32 {
    let bits = v.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// The value whose [`total_key`] is `key`.
#[inline]
fn from_total_key(key: u32) -> f32 {
    f32::from_bits(if key >> 31 == 1 { key & !(1 << 31) } else { !key })
}

/// `values` sorted by `f32::total_cmp`, as their [`total_key`]s: the same
/// bits any correct `total_cmp` sort yields, sorted as integers.
fn sorted_keys(values: Vec<f32>) -> Vec<u32> {
    // Same size and alignment: the keys reuse `values`' allocation.
    let mut keys: Vec<u32> = values.into_iter().map(total_key).collect();
    keys.sort_unstable();
    keys
}

impl QuantileSketch {
    /// Default per-level capacity, giving ≈1% rank error.
    pub const DEFAULT_CAP: usize = 256;

    /// Creates an empty sketch with the given per-level capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 4, "capacity must be at least 4");
        QuantileSketch {
            capacity,
            levels: vec![Vec::new()],
            n: 0,
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
            flip: false,
        }
    }

    /// Number of values observed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Σ len·2^h over the levels: the total weight `quantile` and
    /// `candidate_splits` sum. `None` when it does not fit a `u64`, which
    /// only a peer's hostile sketch (or a merge with one) can reach.
    pub fn weight(&self) -> Option<u64> {
        self.levels.iter().enumerate().try_fold(0u64, |total, (h, level)| {
            let w = if level.is_empty() { 0 } else { 1u64.checked_shl(h as u32)? };
            total.checked_add((level.len() as u64).checked_mul(w)?)
        })
    }

    /// True when no values have been observed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Smallest observed value (exact).
    pub fn min(&self) -> Option<f32> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observed value (exact).
    pub fn max(&self) -> Option<f32> {
        (self.n > 0).then_some(self.max)
    }

    /// Inserts one value. NaN values are ignored (missing data).
    pub fn insert(&mut self, value: f32) {
        if value.is_nan() {
            return;
        }
        self.n += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.levels[0].push(value);
        if self.levels[0].len() > self.capacity {
            self.compact_cascade();
        }
    }

    /// Merges another sketch into this one.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.n == 0 {
            return;
        }
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if other.levels.len() > self.levels.len() {
            self.levels.resize(other.levels.len(), Vec::new());
        }
        for (h, level) in other.levels.iter().enumerate() {
            self.levels[h].extend_from_slice(level);
        }
        self.compact_cascade();
    }

    fn compact_cascade(&mut self) {
        let mut h = 0;
        while h < self.levels.len() {
            if self.levels[h].len() > self.capacity {
                if h + 1 == self.levels.len() {
                    self.levels.push(Vec::new());
                }
                let level = sorted_keys(std::mem::take(&mut self.levels[h]));
                let offset = usize::from(self.flip);
                self.flip = !self.flip;
                let promoted = level.iter().skip(offset).step_by(2);
                self.levels[h + 1].extend(promoted.map(|&key| from_total_key(key)));
                // Items at the other parity are discarded; their weight is
                // implicitly transferred to the promoted neighbours.
            }
            h += 1;
        }
    }

    /// Weighted items `(value, weight)` in ascending `total_cmp` order.
    fn weighted_items(&self) -> Vec<(f32, u64)> {
        // One integer sort of 〈total_key, level〉 words. Ties share their
        // bits, so their order cannot change what a walk over them returns.
        let mut items: Vec<u64> = Vec::with_capacity(self.levels.iter().map(Vec::len).sum());
        for (h, level) in self.levels.iter().enumerate() {
            items.extend(level.iter().map(|&v| (u64::from(total_key(v)) << 32) | h as u64));
        }
        items.sort_unstable();
        let item = |word: u64| (from_total_key((word >> 32) as u32), 1 << (word & 63));
        items.into_iter().map(item).collect()
    }

    /// Approximate `phi`-quantile (`phi ∈ [0, 1]`); `None` when empty.
    pub fn quantile(&self, phi: f64) -> Option<f32> {
        if self.n == 0 {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        let items = self.weighted_items();
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        let target = (phi * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for &(v, w) in &items {
            cum += w;
            if cum >= target {
                return Some(v);
            }
        }
        Some(self.max)
    }

    /// `q` candidate split values at quantiles `1/q, 2/q, …, 1`, deduplicated
    /// and ending at the exact maximum so every value maps to some bin.
    ///
    /// Equal to `q` calls of [`Self::quantile`] from one sort: the targets
    /// never decrease, so one forward walk finds each target's first item
    /// at or after the previous target's.
    pub fn candidate_splits(&self, q: usize) -> Vec<f32> {
        if self.n == 0 || q == 0 {
            return Vec::new();
        }
        let items = self.weighted_items();
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        let mut walk = items.into_iter();
        // The running weight and the item that last raised it.
        let (mut cum, mut at) = (0u64, self.max);
        let mut cuts = Vec::with_capacity(q);
        for i in 1..=q {
            let phi = i as f64 / q as f64;
            let target = (phi * total as f64).ceil().max(1.0) as u64;
            while cum < target {
                let Some((v, w)) = walk.next() else { break };
                (cum, at) = (cum + w, v);
            }
            let v = if cum >= target { at } else { self.max };
            if cuts.last().is_none_or(|&last| v > last) {
                cuts.push(v);
            }
        }
        // Guarantee the exact maximum is covered WITHOUT exceeding q cuts:
        // replace the top cut when the budget is already spent.
        match cuts.last_mut() {
            Some(last) if *last < self.max => {
                if cuts.len() < q {
                    cuts.push(self.max);
                } else {
                    *cuts.last_mut().expect("non-empty") = self.max;
                }
            }
            None => cuts.push(self.max),
            _ => {}
        }
        debug_assert!(cuts.len() <= q);
        cuts
    }

    /// Exact wire encoding: a 25-byte header, then each level as a `u32`
    /// word — its length, bit 31 set when delta-coded — and its items in
    /// ascending [`total_key`] order (level order carries no meaning: every
    /// compaction and every walk sorts first). A delta-coded level is its
    /// first key in full, then the LEB128 gap to each next key; a level whose
    /// gaps would not be smaller ships raw `f32`s, so no level outgrows its
    /// 4 + 4·len raw bytes.
    pub fn encode_bytes(&self) -> Vec<u8> {
        // Raw levels bound the length from above.
        let bound = 25 + self.levels.iter().map(|l| 4 + 4 * l.len()).sum::<usize>();
        let mut out = Vec::with_capacity(bound);
        out.extend_from_slice(&(self.capacity as u32).to_le_bytes());
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&self.min.to_le_bytes());
        out.extend_from_slice(&self.max.to_le_bytes());
        out.push(u8::from(self.flip));
        out.extend_from_slice(&(self.levels.len() as u32).to_le_bytes());
        let mut keys = Vec::new();
        for level in &self.levels {
            keys.clear();
            keys.extend(level.iter().map(|&v| total_key(v)));
            keys.sort_unstable();
            debug_assert!(keys.len() < DELTA_CODED as usize);
            // Gaps first; raw `f32`s over them when they are not smaller.
            let (start, raw) = (out.len(), 4 + 4 * keys.len());
            out.extend_from_slice(&(keys.len() as u32 | DELTA_CODED).to_le_bytes());
            if let Some((&first, rest)) = keys.split_first() {
                out.extend_from_slice(&first.to_le_bytes());
                let mut prev = first;
                for &key in rest {
                    put_leb128(&mut out, key - prev);
                    prev = key;
                }
            }
            if out.len() - start >= raw {
                out.truncate(start);
                out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                for &key in &keys {
                    out.extend_from_slice(&from_total_key(key).to_le_bytes());
                }
            }
        }
        out
    }

    /// Decodes [`Self::encode_bytes`] output. Refuses malformed input,
    /// which includes a level longer than the capacity, a key gap past
    /// `u32`, and a total weight past `u64`.
    pub fn decode_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let capacity = r.u32()? as usize;
        let (n, min, max, flip) = (r.u64()?, r.f32()?, r.f32()?, r.flag()?);
        let n_levels = r.u32()? as usize;
        if capacity < 4 || n_levels > 64 {
            return Err(r.error(format!("capacity {capacity} with {n_levels} levels")));
        }
        let mut levels = Vec::with_capacity(n_levels.max(1));
        for _ in 0..n_levels {
            let word = r.u32()?;
            let len = (word & !DELTA_CODED) as usize;
            if len > capacity {
                return Err(r.error(format!("a level of {len} past capacity {capacity}")));
            }
            let level = if word & DELTA_CODED != 0 && len > 0 {
                // Every item takes at least one byte of what is left.
                let mut level = Vec::with_capacity(r.count(len, 1)?);
                let mut key = r.u32()?;
                level.push(from_total_key(key));
                for _ in 1..len {
                    key = key.checked_add(leb128(&mut r)?).ok_or_else(|| r.error("key past u32"))?;
                    level.push(from_total_key(key));
                }
                level
            } else {
                r.f32s(len)?.collect()
            };
            levels.push(level);
        }
        if levels.is_empty() {
            levels.push(Vec::new());
        }
        r.finish()?;
        let sketch = QuantileSketch { capacity, levels, n, min, max, flip };
        sketch.weight().ok_or_else(|| r.error("total weight past u64"))?;
        Ok(sketch)
    }

    /// Bytes the sketch occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.encode_bytes().len()
    }
}

/// Bit 31 of a level's length word: its items are delta-coded keys.
const DELTA_CODED: u32 = 1 << 31;

/// Appends `x` as LEB128: seven bits a byte, low groups first, the high bit
/// set on every byte but the last.
fn put_leb128(out: &mut Vec<u8>, mut x: u32) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// A LEB128 value of at most five bytes that fits a `u32`.
fn leb128(r: &mut Reader<'_>) -> Result<u32, DecodeError> {
    let mut value = 0u64;
    for shift in (0..35).step_by(7) {
        let byte = r.u8()?;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return u32::try_from(value).map_err(|_| r.error("LEB128 gap past u32"));
        }
    }
    Err(r.error("LEB128 gap past five bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: impl IntoIterator<Item = f32>) -> QuantileSketch {
        let mut s = QuantileSketch::new(64);
        for v in values {
            s.insert(v);
        }
        s
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::default();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert!(s.candidate_splits(10).is_empty());
    }

    #[test]
    fn small_stream_is_exact() {
        // Below capacity nothing is compacted, so quantiles are exact.
        let s = filled((1..=50).map(|i| i as f32));
        assert_eq!(s.count(), 50);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(50.0));
        assert_eq!(s.quantile(0.5), Some(25.0));
        assert_eq!(s.quantile(1.0), Some(50.0));
        assert_eq!(s.quantile(0.02), Some(1.0));
    }

    #[test]
    fn nan_values_are_ignored() {
        let mut s = QuantileSketch::new(16);
        s.insert(1.0);
        s.insert(f32::NAN);
        s.insert(2.0);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn large_stream_has_bounded_rank_error() {
        let n = 20_000;
        let s = {
            let mut s = QuantileSketch::new(256);
            // Deterministic pseudo-shuffled order.
            for i in 0..n {
                let v = ((i * 7919) % n) as f32;
                s.insert(v);
            }
            s
        };
        for phi in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let got = s.quantile(phi).unwrap() as f64;
            let want = phi * n as f64;
            let err = (got - want).abs() / n as f64;
            assert!(err < 0.05, "phi={phi}: got {got}, want {want}, err {err}");
        }
    }

    #[test]
    fn merge_equals_union_statistically() {
        let a = filled((0..5_000).map(|i| i as f32));
        let b = filled((5_000..10_000).map(|i| i as f32));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 10_000);
        assert_eq!(merged.min(), Some(0.0));
        assert_eq!(merged.max(), Some(9_999.0));
        let mid = merged.quantile(0.5).unwrap() as f64;
        assert!((mid - 5_000.0).abs() / 10_000.0 < 0.05, "median {mid}");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = filled([3.0, 1.0, 2.0]);
        let mut b = a.clone();
        b.merge(&QuantileSketch::default());
        assert_eq!(a, b);
        let mut empty = QuantileSketch::new(64);
        empty.merge(&a);
        assert_eq!(empty.count(), 3);
        assert_eq!(empty.quantile(1.0), Some(3.0));
    }

    #[test]
    fn candidate_splits_are_sorted_distinct_and_end_at_max() {
        let s = filled((0..1000).map(|i| (i % 10) as f32));
        let cuts = s.candidate_splits(20);
        assert!(!cuts.is_empty());
        for w in cuts.windows(2) {
            assert!(w[0] < w[1], "cuts not strictly ascending: {cuts:?}");
        }
        assert_eq!(*cuts.last().unwrap(), 9.0);
        // Only 10 distinct values -> at most 10 cuts even with q=20.
        assert!(cuts.len() <= 10);
    }

    #[test]
    fn constant_feature_yields_single_cut() {
        let s = filled(std::iter::repeat_n(4.2, 100));
        let cuts = s.candidate_splits(20);
        assert_eq!(cuts, vec![4.2]);
    }

    #[test]
    fn wire_roundtrip_is_exact() {
        let s = filled((0..3_000).map(|i| (i as f32).sin()));
        let bytes = s.encode_bytes();
        assert_eq!(bytes.len(), s.wire_bytes());
        assert!(bytes.len() < raw_bytes(&s), "delta-coded levels");
        let back = QuantileSketch::decode_bytes(&bytes).unwrap();
        assert_eq!(s, back);
        // Truncated input is rejected.
        assert!(QuantileSketch::decode_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(QuantileSketch::decode_bytes(&[1, 2, 3]).is_err());
        // A level length past the bytes is rejected before it sizes anything.
        let hostile = [&bytes[..25], &u32::MAX.to_le_bytes()].concat();
        assert!(QuantileSketch::decode_bytes(&hostile).is_err());
    }

    /// Bytes of `s` with every level as raw `f32`s.
    fn raw_bytes(s: &QuantileSketch) -> usize {
        25 + s.levels.iter().map(|l| 4 + 4 * l.len()).sum::<usize>()
    }

    #[test]
    fn close_keys_ship_as_gaps_and_far_keys_raw() {
        // 64 neighbouring floats from 1.0 up: the first key, then 63
        // one-byte gaps.
        let close = filled((0..64).map(|i| f32::from_bits(1f32.to_bits() + i)));
        assert_eq!(close.wire_bytes(), 25 + 4 + 4 + 63);
        let bytes = close.encode_bytes();
        assert_eq!(bytes[28] >> 7, 1, "delta flag");
        assert_eq!(QuantileSketch::decode_bytes(&bytes), Ok(close));
        // ±inf around 0.0: two five-byte gaps, so the level stays raw.
        let far = filled([f32::INFINITY, 0.0, f32::NEG_INFINITY]);
        assert_eq!(far.wire_bytes(), raw_bytes(&far));
        // -0.0 next to 0.0 is a one-byte gap, and stays -0.0.
        let signed = filled([f32::INFINITY, -0.0, 0.0, f32::NEG_INFINITY]);
        assert_eq!(signed.wire_bytes(), 25 + 4 + 4 + 5 + 1 + 5);
        let back = QuantileSketch::decode_bytes(&signed.encode_bytes()).unwrap();
        let bits: Vec<u32> = back.levels[0].iter().map(|v| v.to_bits()).collect();
        let want = [f32::NEG_INFINITY, -0.0, 0.0, f32::INFINITY].map(f32::to_bits);
        assert_eq!(bits, want);
        // A gap past u32, and a six-byte gap, are malformed.
        let mut bytes = filled([1.0, 2.0]).encode_bytes();
        bytes.truncate(25);
        bytes.extend((2 | DELTA_CODED).to_le_bytes());
        bytes.extend(u32::MAX.to_le_bytes());
        assert!(QuantileSketch::decode_bytes(&[&bytes[..], &[1]].concat()).is_err());
        assert!(QuantileSketch::decode_bytes(&[&bytes[..], &[0x80; 5], &[0]].concat()).is_err());
        assert!(QuantileSketch::decode_bytes(&[&bytes[..], &[0]].concat()).is_ok());
    }

    /// The wire bytes of a sketch of capacity 4 holding `lens[h]` copies of
    /// `1.0` at level `h`.
    fn with_levels(lens: &[usize]) -> Vec<u8> {
        let mut out = [&4u32.to_le_bytes()[..], &1u64.to_le_bytes(), &1f32.to_le_bytes()].concat();
        out.extend_from_slice(&1f32.to_le_bytes());
        out.push(0);
        out.extend_from_slice(&(lens.len() as u32).to_le_bytes());
        for &len in lens {
            out.extend_from_slice(&(len as u32).to_le_bytes());
            (0..len).for_each(|_| out.extend_from_slice(&1f32.to_le_bytes()));
        }
        out
    }

    #[test]
    fn decode_rejects_a_level_over_capacity() {
        assert!(QuantileSketch::decode_bytes(&with_levels(&[4, 0, 4])).is_ok());
        assert!(QuantileSketch::decode_bytes(&with_levels(&[5])).is_err());
        assert!(QuantileSketch::decode_bytes(&with_levels(&[0, 0, 5])).is_err());
    }

    #[test]
    fn decode_rejects_a_total_weight_past_u64() {
        // One item at level 63 weighs 2^63; two, or four at level 62, 2^64.
        let top = |h: usize, len: usize| {
            let mut lens = vec![0; h + 1];
            lens[h] = len;
            QuantileSketch::decode_bytes(&with_levels(&lens))
        };
        assert!(top(63, 1).is_ok());
        assert!(top(63, 2).is_err());
        assert!(top(62, 3).is_ok());
        assert!(top(62, 4).is_err());
        let mut lens = vec![0; 64];
        (lens[62], lens[63]) = (1, 1);
        assert!(QuantileSketch::decode_bytes(&with_levels(&lens)).is_ok());
        lens[61] = 2;
        assert!(QuantileSketch::decode_bytes(&with_levels(&lens)).is_err());
    }

    #[test]
    fn determinism_across_identical_streams() {
        let a = filled((0..10_000).map(|i| ((i * 31) % 997) as f32));
        let b = filled((0..10_000).map(|i| ((i * 31) % 997) as f32));
        assert_eq!(a, b);
    }

    /// FNV-1a (64-bit) of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
    }

    #[test]
    fn sketch_bytes_are_pinned() {
        // Three fixed 10 000-value streams through the default capacity:
        // every compaction and its offset show in the bytes (each level's
        // items, sorted, delta-coded where that is smaller).
        let n = 10_000u32;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let random = (0..n).map(move |i| {
            state = state.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match i % 13 {
                0 => 0.0,
                1 => -0.0,
                _ => ((state >> 33) % 1_000) as f32 * 0.5 - 250.0,
            }
        });
        let mut hashes = Vec::new();
        for stream in [
            Box::new((0..n).map(|i| i as f32)) as Box<dyn Iterator<Item = f32>>,
            Box::new((0..n).rev().map(|i| i as f32)),
            Box::new(random),
        ] {
            let mut sketch = QuantileSketch::default();
            stream.for_each(|v| sketch.insert(v));
            hashes.push(fnv1a(&sketch.encode_bytes()));
        }
        assert_eq!(hashes, [0x11f6_55f4_b1d8_166e, 0x500e_4451_9c89_08de, 0x64a0_0124_3e81_3faf]);
    }

    #[test]
    fn sketch_stays_small() {
        let mut s = QuantileSketch::new(256);
        for i in 0..1_000_000 {
            s.insert((i % 100_000) as f32);
        }
        // Logarithmic level count, bounded per-level size.
        assert!(s.wire_bytes() < 64 * 1024, "sketch grew to {} bytes", s.wire_bytes());
    }
}
