//! Fixed-width SIMD lane primitives for the histogram fill kernels.
//!
//! Zero-dependency, portable lane structs in the style of the `wide`
//! crate: each type wraps a fixed-size array and exposes exactly the
//! element-wise operations the kernels need, written as straight-line
//! per-lane loops that LLVM lowers to vector instructions on every tier
//! of x86-64 (SSE2 `pcmpeqb`/`pmovmskb` for the cell masks, `addpd` for
//! the f64 accumulates) without any target-feature gates or intrinsics.
//!
//! This module is the **only** place in the workspace allowed to contain
//! `unsafe` — every manifest sets rustc's `unsafe_code = "deny"`, and the
//! `#[allow(unsafe_code)]` on `pub mod simd` is the one product-code
//! exemption. The unsafe surface is one accumulate helper, [`add_pair`],
//! whose bounds precondition is documented below, asserted in debug
//! builds, and established by the callers in [`crate::kernels`] through a
//! per-lane-group range check
//! (every present cell's bin is vector-compared against the pack's bin
//! count before any unchecked index is formed).
//!
//! Determinism: nothing here reorders floating-point accumulation. The
//! masks only *classify* lanes; the kernels still visit lanes in ascending
//! order and issue one scalar-equivalent `+=` per (slot, instance), so a
//! SIMD fill is bit-identical to the scalar and sparse fills.

/// 16 packed `u8` cells — one 128-bit lane group.
#[derive(Debug, Copy, Clone)]
pub struct U8x16([u8; 16]);

/// 8 packed `u16` cells — one 128-bit lane group.
#[derive(Debug, Copy, Clone)]
pub struct U16x8([u16; 8]);

impl U8x16 {
    /// Lanes per group.
    pub const LANES: usize = 16;

    /// Loads the first 16 cells of `s` (panics when shorter).
    #[inline(always)]
    pub fn load(s: &[u8]) -> U8x16 {
        U8x16(s[..16].try_into().expect("u8 lane group needs 16 cells"))
    }

    /// Bitmask with bit `j` set when lane `j` is strictly below `limit`
    /// (compiles to `pcmpgtb` + `pmovmskb`).
    #[inline(always)]
    pub fn lt_mask(self, limit: u8) -> u32 {
        let mut m = 0u32;
        for j in 0..Self::LANES {
            m |= u32::from(self.0[j] < limit) << j;
        }
        m
    }

    /// Bitmask with bit `j` set when lane `j` equals `v` (the missing
    /// sentinel, in kernel use).
    #[inline(always)]
    pub fn eq_mask(self, v: u8) -> u32 {
        let mut m = 0u32;
        for j in 0..Self::LANES {
            m |= u32::from(self.0[j] == v) << j;
        }
        m
    }

    /// Lane `j` widened to a bin index.
    #[inline(always)]
    pub fn lane(self, j: usize) -> usize {
        self.0[j] as usize
    }
}

impl U16x8 {
    /// Lanes per group.
    pub const LANES: usize = 8;

    /// Loads the first 8 cells of `s` (panics when shorter).
    #[inline(always)]
    pub fn load(s: &[u16]) -> U16x8 {
        U16x8(s[..8].try_into().expect("u16 lane group needs 8 cells"))
    }

    /// Bitmask with bit `j` set when lane `j` is strictly below `limit`.
    #[inline(always)]
    pub fn lt_mask(self, limit: u16) -> u32 {
        let mut m = 0u32;
        for j in 0..Self::LANES {
            m |= u32::from(self.0[j] < limit) << j;
        }
        m
    }

    /// Bitmask with bit `j` set when lane `j` equals `v`.
    #[inline(always)]
    pub fn eq_mask(self, v: u16) -> u32 {
        let mut m = 0u32;
        for j in 0..Self::LANES {
            m |= u32::from(self.0[j] == v) << j;
        }
        m
    }

    /// Lane `j` widened to a bin index.
    #[inline(always)]
    pub fn lane(self, j: usize) -> usize {
        self.0[j] as usize
    }
}

/// 4 `f64` accumulator lanes (one 256-bit `addpd` group).
#[derive(Debug, Copy, Clone)]
pub struct F64x4([f64; 4]);

impl F64x4 {
    /// Loads the first 4 elements of `s` (panics when shorter).
    #[inline(always)]
    pub fn load(s: &[f64]) -> F64x4 {
        F64x4(s[..4].try_into().expect("f64 lane group needs 4 elements"))
    }

    /// Stores into the first 4 elements of `s`.
    #[inline(always)]
    pub fn store(self, s: &mut [f64]) {
        s[..4].copy_from_slice(&self.0);
    }
}

/// Lane-wise IEEE addition — identical bits to four scalar `+`s.
impl std::ops::Add for F64x4 {
    type Output = F64x4;

    #[inline(always)]
    fn add(self, o: F64x4) -> F64x4 {
        F64x4([
            self.0[0] + o.0[0],
            self.0[1] + o.0[1],
            self.0[2] + o.0[2],
            self.0[3] + o.0[3],
        ])
    }
}

/// Adds `(g, h)` into `data[idx]` / `data[idx + 1]` with no bounds checks —
/// the innermost accumulate of the SIMD dense fills, one per present cell.
///
/// # Bounds precondition (debug-asserted)
///
/// `idx + 1 < data.len()`. The kernels in [`crate::kernels`] establish it
/// as `idx = f·stride + bin·2` with `f < n_features`, `bin < n_bins` (the
/// per-lane-group `lt_mask` range check), and
/// `data.len() = n_features·stride`, `bin·2 + 1 < stride`; any cell that
/// cannot prove `bin < n_bins` panics in the kernel before reaching here.
#[inline(always)]
pub fn add_pair(data: &mut [f64], idx: usize, g: f64, h: f64) {
    debug_assert!(idx + 1 < data.len(), "add_pair out of bounds: {idx}+1 vs {}", data.len());
    // SAFETY: `idx + 1 < data.len()` per the documented precondition above,
    // which every caller derives from the lane-group range check. The pair
    // is read, added, and written as one 128-bit `[f64; 2]` so the cell
    // costs one load + one `addpd` + one store instead of 2 + 2 + 2;
    // lane-wise IEEE addition keeps the bits identical to two scalar `+=`s.
    unsafe {
        let p = data.as_mut_ptr().add(idx).cast::<[f64; 2]>();
        let v = p.read_unaligned();
        p.write_unaligned([v[0] + g, v[1] + h]);
    }
}

/// `data[idx..idx + gh.len()] += gh`, element-wise, in f64×4 lane groups —
/// the multiclass accumulate: `gh` is one instance's interleaved
/// `[g0, h0, g1, h1, …]` pairs and the destination is one `(feature, bin)`
/// slot. Element-wise lane addition makes this bit-identical to the scalar
/// per-class loop.
///
/// The destination subslice is formed with a single checked range (one
/// branch per present cell instead of `2·C`); the lane loop itself is
/// safe code.
#[inline(always)]
pub fn add_span(data: &mut [f64], idx: usize, gh: &[f64]) {
    let dst = &mut data[idx..idx + gh.len()];
    let mut chunks = dst.chunks_exact_mut(4);
    let mut src = gh.chunks_exact(4);
    for (d, s) in (&mut chunks).zip(&mut src) {
        (F64x4::load(d) + F64x4::load(s)).store(d);
    }
    for (d, s) in chunks.into_remainder().iter_mut().zip(src.remainder()) {
        *d += *s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_masks_classify_lanes() {
        let mut cells = [0u8; 16];
        cells[3] = 255; // sentinel
        cells[7] = 19; // last valid bin for limit 20
        cells[11] = 20; // out of range for limit 20
        let v = U8x16::load(&cells);
        let present = v.lt_mask(20);
        let missing = v.eq_mask(255);
        assert_eq!(missing, 1 << 3);
        assert_eq!(present & (1 << 3), 0);
        assert_eq!(present & (1 << 7), 1 << 7);
        assert_eq!(present & (1 << 11), 0);
        // Lane 11 is neither present nor missing: the kernels treat that
        // as a corrupt pack and panic.
        assert_eq!((present | missing) & (1 << 11), 0);
        assert_eq!(v.lane(7), 19);
    }

    #[test]
    fn u16_masks_classify_lanes() {
        let mut cells = [5u16; 8];
        cells[0] = u16::MAX;
        cells[6] = 300;
        let v = U16x8::load(&cells);
        assert_eq!(v.eq_mask(u16::MAX), 1);
        assert_eq!(v.lt_mask(301) & (1 << 6), 1 << 6);
        assert_eq!(v.lt_mask(300) & (1 << 6), 0);
        assert_eq!(v.lane(6), 300);
    }

    #[test]
    fn add_pair_accumulates() {
        let mut data = vec![0.0; 6];
        add_pair(&mut data, 2, 0.5, 1.5);
        add_pair(&mut data, 2, 0.25, 0.5);
        assert_eq!(&data[2..4], &[0.75, 2.0]);
    }

    #[test]
    fn add_span_matches_scalar_loop_bitwise() {
        for c in [1usize, 2, 3, 5, 8] {
            let gh: Vec<f64> = (0..2 * c).map(|k| (k as f64) * 0.371 - 0.9).collect();
            let mut simd = vec![0.1234567891011; 2 * c + 3];
            let mut scalar = simd.clone();
            add_span(&mut simd, 3, &gh);
            for (k, &v) in gh.iter().enumerate() {
                scalar[3 + k] += v;
            }
            assert_eq!(simd, scalar, "C = {c}");
        }
    }

    #[test]
    #[should_panic]
    fn add_span_rejects_out_of_range() {
        let mut data = vec![0.0; 4];
        add_span(&mut data, 2, &[1.0, 2.0, 3.0]);
    }
}
