//! Histogram wire codecs: how flat f64 buffers are serialized for the
//! collectives (DESIGN.md §4.7).
//!
//! Histogram aggregation ships `D·q·C·2` f64s per built node every layer
//! (§3.1.3) even when most bins are empty, which on high-dimensional sparse
//! data is the bulk of all simulated traffic. Two [`WireCodec`]s cover it:
//!
//! * [`WireCodec::Grid`] (lossless, the default) — every gradient sum is a
//!   whole number of power-of-two grid units (`gbdt_core::loss::GradGrid`),
//!   so a message ships each nonzero cell as that integer:
//!
//!   ```text
//!   0xD6 | unit: i16 | w: u8 | bitmap: ⌈n/8⌉ bytes | nnz × w bytes
//!   ```
//!
//!   `unit` is the smallest lowest-set-bit exponent over the nonzero cells,
//!   bit `i` of the bitmap says whether cell `i` is nonzero, and each
//!   nonzero cell is `zigzag(v / 2^unit)` in `w` little-endian bytes, `w`
//!   the fewest bytes that hold `zigzag(max |v| / 2^unit)`. Decoding is
//!   `k as f64 × 2^unit`, exact because `k` came from one f64 and so has at
//!   most 53 significant bits. A buffer the frame cannot carry exactly
//!   (`-0.0`, NaN, ±inf, subnormals, more than 62 bits between its largest
//!   and smallest bit) or one whose frame would not be smaller than `8·n`
//!   ships as raw little-endian f64s instead, so the codec is lossless for
//!   *any* buffer.
//! * [`WireCodec::F32`] (lossy, opt-in) — DimBoost's low-precision
//!   compressed histograms (§4.1): dense f32s (`4·n`) or sparse
//!   `(u32 index, f32 value)` pairs behind a marker and a `u32` count
//!   (`5 + 8·nnz`), whichever is strictly smaller.
//!
//! The decoder knows `n`, so length then marker tell every layout apart:
//! `8·n` bytes is raw f64, `4·n` is dense f32, anything else starts with a
//! marker. The grid encoder never emits a frame of either reserved length
//! (it falls back to raw f64 there).
//!
//! **Determinism.** A decoded absent cell is `+0.0`, and decode-add adds it
//! like any other value, so decode-add is bit-identical to the element-wise
//! add of the raw layout whatever the target holds. Every merge runs in the
//! same rank/segment order whatever the codec, so [`WireCodec::Grid`]
//! trains bit-identical ensembles.
//!
//! **Cost.** The encoder's two passes and the decoder's one are branch-free
//! over zero and nonzero cells: the bitmap is built a byte at a time, every
//! cell stores (or loads) a whole 8-byte word at `w × (its rank among the
//! group's nonzero cells)`, read from a table, and the cursor advances by
//! `w × popcount` a group.

use bytes::Bytes;
pub use gbdt_core::config::WireCodec;
use gbdt_data::frame::{DecodeError, Reader};

/// First byte of a grid frame.
const MARKER_GRID: u8 = 0xD6;
/// First byte of a sparse-f32 payload.
const MARKER_SPARSE_F32: u8 = 0xD4;
/// Marker byte + u32 nonzero count.
const SPARSE_HEADER: usize = 5;
/// Marker byte + i16 unit + u8 width.
const GRID_HEADER: usize = 4;
const SIGN: u64 = 1 << 63;
const FRACTION: u64 = (1 << 52) - 1;
const IMPLICIT_BIT: u64 = 1 << 52;
/// Bits of +inf: every NaN and ±inf magnitude is at least this.
const INFINITY_BITS: u64 = 0x7ff << 52;
/// Widest `max |v| / 2^unit` the frame carries: its zigzag fits 63 bits.
const MAX_SPREAD_BITS: i32 = 62;
/// Bytes a group of 8 cells touches from its first slot on: 7 slots of up
/// to 8 bytes, then the last cell's whole u64.
const WINDOW: usize = 72;

/// Converts f64s to raw little-endian bytes (the raw-f64 layout) via a
/// pre-sized buffer and fixed-width chunk copies.
pub(crate) fn f64s_to_bytes(buf: &[f64]) -> Bytes {
    let mut out = vec![0u8; buf.len() * 8];
    for (dst, v) in out.chunks_exact_mut(8).zip(buf) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
    Bytes::from(out)
}

/// Bytes the message carries logically: the decoded f64 width.
pub fn logical_bytes(n_elements: usize) -> u64 {
    (n_elements * 8) as u64
}

/// Encoded size of a sparse-f32 payload with `nnz` nonzero bins.
pub fn sparse_f32_bytes(nnz: usize) -> usize {
    SPARSE_HEADER + 8 * nnz
}

/// Encoded size of a grid frame over `n` cells, `nnz` of them nonzero, at
/// `w` bytes a cell.
fn grid_frame_bytes(n: usize, nnz: usize, w: usize) -> usize {
    GRID_HEADER + n.div_ceil(8) + nnz * w
}

/// `2^unit` built from its bits (`powi` underflows below `2^-1022`), or
/// `None` past the f64 range.
fn pow2(unit: i32) -> Option<f64> {
    match unit {
        -1022..=1023 => Some(f64::from_bits(((unit + 1023) as u64) << 52)),
        -1074..=-1023 => Some(f64::from_bits(1 << (unit + 1074))),
        _ => None,
    }
}

/// The grid frame's header for `buf`: `(unit, w, nnz)`, or `None` when the
/// buffer holds a value the frame cannot carry exactly. One branch-free
/// pass.
fn grid_header(buf: &[f64]) -> Option<(i32, usize, usize)> {
    let mut nnz = 0usize;
    let mut low = u32::MAX;
    let mut max_abs = 0u64;
    let mut min_bits = i64::MAX;
    let mut min_abs_less_one = u64::MAX;
    for v in buf {
        let bits = v.to_bits();
        let abs = bits & !SIGN;
        let zero = abs == 0;
        // Biased exponent of the lowest set bit; past every real one for a
        // zero cell.
        let key = (abs >> 52) as u32 + (abs | IMPLICIT_BIT).trailing_zeros();
        low = low.min(key | (u32::from(zero) << 12));
        max_abs = max_abs.max(abs);
        min_bits = min_bits.min(bits as i64);
        min_abs_less_one = min_abs_less_one.min(abs.wrapping_sub(1));
        nnz += usize::from(!zero);
    }
    // -0.0 is the one f64 whose bits are i64::MIN, NaN and ±inf are the
    // largest magnitudes, subnormals the nonzero ones below 2^52.
    if min_bits == i64::MIN || max_abs >= INFINITY_BITS || min_abs_less_one < FRACTION {
        return None;
    }
    if nnz == 0 {
        return Some((0, 0, 0));
    }
    let unit = low as i32 - 1075;
    // max |v| / 2^unit has `spread` bits; its zigzag one more.
    let spread = (max_abs >> 52) as i32 - 1023 - unit + 1;
    if spread > MAX_SPREAD_BITS {
        return None;
    }
    Some((unit, (spread as usize + 1).div_ceil(8), nnz))
}

/// `RANK[b][j]`: how many of the low `j` bits of `b` are set — the value
/// slot of cell `j` in a group of 8 with presence byte `b`. A table, so no
/// cell's offset waits on the cell before it.
const RANK: [[u8; 9]; 256] = {
    let mut table = [[0u8; 9]; 256];
    let mut b = 0;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            table[b][j + 1] = table[b][j] + ((b >> j) & 1) as u8;
            j += 1;
        }
        b += 1;
    }
    table
};

/// Encodes a group of up to 8 cells into `window` (the value bytes from
/// the group's first slot on): every cell stores a whole u64 at its slot,
/// an absent cell a zero that the next slot overwrites. Returns the
/// group's presence byte.
fn put_group(cells: &[f64], inverse: (f64, f64), w: usize, window: &mut [u8; WINDOW]) -> u8 {
    let mut presence = 0u8;
    for (j, v) in cells.iter().enumerate() {
        presence |= u8::from(v.to_bits() << 1 != 0) << j;
    }
    for (&v, &slot) in cells.iter().zip(&RANK[usize::from(presence)]) {
        // Two exact power-of-two multiplies (2^-unit alone can be out of
        // range), then an exact conversion.
        let k = (v * inverse.0 * inverse.1) as i64;
        let zigzag = ((k << 1) ^ (k >> 63)) as u64;
        let at = (w * usize::from(slot)) % 64;
        window[at..at + 8].copy_from_slice(&zigzag.to_le_bytes());
    }
    presence
}

/// Encodes `buf` as a grid frame, or as raw f64s where the frame cannot
/// carry it or would not be smaller.
#[expect(
    clippy::expect_used,
    reason = "the frame carries WINDOW bytes of slack past its last slot"
)]
fn encode_grid(buf: &[f64]) -> Bytes {
    let n = buf.len();
    let Some((unit, w, nnz)) = grid_header(buf) else {
        return f64s_to_bytes(buf);
    };
    let len = grid_frame_bytes(n, nnz, w);
    if len >= 8 * n || len == 4 * n {
        return f64s_to_bytes(buf);
    }
    // WINDOW bytes of slack past the last slot for the last group's stores.
    let mut out = vec![0u8; len + WINDOW];
    out[0] = MARKER_GRID;
    out[1..3].copy_from_slice(&(unit as i16).to_le_bytes());
    out[3] = w as u8;
    let (head, values) = out.split_at_mut(GRID_HEADER + n.div_ceil(8));
    let half = -unit / 2;
    let inverse = (pow2(half).unwrap_or(1.0), pow2(-unit - half).unwrap_or(1.0));
    let mut pos = 0usize;
    for (cells, byte) in buf.chunks(8).zip(&mut head[GRID_HEADER..]) {
        let window = (&mut values[pos..pos + WINDOW]).try_into().expect("slack holds a window");
        *byte = put_group(cells, inverse, w, window);
        pos += w * byte.count_ones() as usize;
    }
    out.truncate(len);
    Bytes::from(out)
}

fn count_nonzero(buf: &[f64]) -> usize {
    buf.iter().filter(|v| **v != 0.0).count()
}

fn encode_sparse_f32(buf: &[f64], nnz: usize) -> Bytes {
    let mut out = Vec::with_capacity(sparse_f32_bytes(nnz));
    out.push(MARKER_SPARSE_F32);
    out.extend_from_slice(&(nnz as u32).to_le_bytes());
    for (i, v) in buf.iter().enumerate() {
        if *v != 0.0 {
            out.extend_from_slice(&(i as u32).to_le_bytes());
            out.extend_from_slice(&(*v as f32).to_le_bytes());
        }
    }
    Bytes::from(out)
}

fn encode_dense_f32(buf: &[f64]) -> Bytes {
    let mut out = vec![0u8; buf.len() * 4];
    for (dst, v) in out.chunks_exact_mut(4).zip(buf) {
        dst.copy_from_slice(&(*v as f32).to_le_bytes());
    }
    Bytes::from(out)
}

/// Encodes `buf` under `codec`, choosing the layout per message.
pub fn encode(codec: WireCodec, buf: &[f64]) -> Bytes {
    match codec {
        WireCodec::Grid => encode_grid(buf),
        WireCodec::F32 => {
            let nnz = count_nonzero(buf);
            if sparse_f32_bytes(nnz) < buf.len() * 4 {
                encode_sparse_f32(buf, nnz)
            } else {
                encode_dense_f32(buf)
            }
        }
    }
}

/// A validated grid frame.
struct Grid<'a> {
    scale: f64,
    w: usize,
    bitmap: &'a [u8],
    values: &'a [u8],
}

enum Payload<'a> {
    RawF64(&'a [u8]),
    DenseF32(&'a [u8]),
    Grid(Grid<'a>),
    /// `(u32 index, f32 value)` pair bytes.
    SparseF32(&'a [u8]),
}

/// Validates the rest of a grid frame, its marker read, for a decode
/// target of `n` elements: a width of at most 8 bytes, a unit inside the
/// f64 range, no presence bit past the target, and popcount × w value
/// bytes.
fn parse_grid<'a>(r: &mut Reader<'a>, n: usize) -> Result<Grid<'a>, DecodeError> {
    let unit = r.u16()? as i16;
    let w = usize::from(r.u8()?);
    let scale = pow2(i32::from(unit)).ok_or_else(|| r.error(format!("unit 2^{unit} past f64")))?;
    if w > 8 {
        return Err(r.error(format!("{w}-byte cells")));
    }
    let bitmap = r.take(n.div_ceil(8))?;
    if bitmap.last().is_some_and(|last| !n.is_multiple_of(8) && last >> (n % 8) != 0) {
        return Err(r.error(format!("presence bits past cell {n}")));
    }
    let nnz: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
    let values = r.take(nnz * w)?;
    r.finish()?;
    Ok(Grid { scale, w, bitmap, values })
}

/// Classifies a payload for a decode target of `n` elements. A length that
/// fits no layout, an unknown marker, a refused grid frame or a sparse
/// frame that is not 8 bytes a pair is a [`DecodeError`]; the collectives
/// report it as [`crate::CommError::Malformed`] from the rank that sent it.
fn classify(bytes: &Bytes, n: usize) -> Result<Payload<'_>, DecodeError> {
    if bytes.len() == n * 8 {
        return Ok(Payload::RawF64(bytes));
    }
    if bytes.len() == n * 4 {
        return Ok(Payload::DenseF32(bytes));
    }
    let mut r = Reader::new(bytes);
    match r.u8()? {
        MARKER_GRID => parse_grid(&mut r, n).map(Payload::Grid),
        MARKER_SPARSE_F32 => {
            let nnz = r.u32()? as usize;
            let body = r.take(8 * nnz)?;
            r.finish()?;
            Ok(Payload::SparseF32(body))
        }
        marker => Err(DecodeError { offset: 0, what: format!("unknown marker {marker:#x}") }),
    }
}

/// Decodes a group of up to 8 cells from `window` (the value bytes from
/// the group's first slot on, zero-padded past the frame), calling `f` on
/// each; absent cells decode to `+0.0`. Returns the bytes the group took.
#[expect(clippy::expect_used, reason = "`window[at..at + 8]` is 8 bytes")]
#[expect(clippy::disallowed_methods, reason = "hot loop: the grid cell decode")]
fn take_group(
    grid: &Grid<'_>,
    mask: u64,
    presence: u8,
    window: &[u8; WINDOW],
    cells: &mut [f64],
    f: &mut impl FnMut(&mut f64, f64),
) -> usize {
    let rank = &RANK[usize::from(presence)];
    for (j, (cell, &slot)) in cells.iter_mut().zip(rank).enumerate() {
        let present = u64::from(presence >> j & 1);
        let at = (grid.w * usize::from(slot)) % 64;
        let word = u64::from_le_bytes(window[at..at + 8].try_into().expect("8 of WINDOW bytes"));
        let zigzag = word & mask & present.wrapping_neg();
        let k = (zigzag >> 1) as i64 ^ (zigzag & 1).wrapping_neg() as i64;
        f(cell, k as f64 * grid.scale);
    }
    grid.w * usize::from(rank[8])
}

/// Calls `f(cell, value)` for every cell of `out` in order. Branch-free
/// over the presence bits: every cell loads a whole u64 from its slot.
#[expect(clippy::expect_used, reason = "both windows are WINDOW-byte slices")]
fn for_each_grid(grid: &Grid<'_>, out: &mut [f64], mut f: impl FnMut(&mut f64, f64)) {
    let mask = u64::MAX.checked_shr(64 - 8 * grid.w as u32).unwrap_or(0);
    let values = grid.values;
    let mut pos = 0usize;
    let mut groups = out.chunks_mut(8).zip(grid.bitmap);
    while let Some((cells, &presence)) = groups.next() {
        if let Some(window) = values.get(pos..pos + WINDOW) {
            let window = window.try_into().expect("WINDOW bytes");
            pos += take_group(grid, mask, presence, window, cells, &mut f);
            continue;
        }
        // Fewer than WINDOW bytes left: finish from a zero-padded copy.
        let rest = values.get(pos..).unwrap_or_default();
        let mut padded = [0u8; 2 * WINDOW];
        padded[..rest.len()].copy_from_slice(rest);
        let mut at = 0usize;
        for (cells, &presence) in std::iter::once((cells, &presence)).chain(groups) {
            let window = padded[at..at + WINDOW].try_into().expect("WINDOW bytes");
            at += take_group(grid, mask, presence, window, cells, &mut f);
        }
        return;
    }
}

#[expect(clippy::expect_used, reason = "fixed-width chunks convert to arrays of their width")]
#[expect(clippy::disallowed_methods, reason = "hot loop: the sparse-f32 pair decode")]
fn for_each_sparse_f32(
    body: &[u8],
    n: usize,
    mut f: impl FnMut(usize, f64),
) -> Result<(), DecodeError> {
    for (k, pair) in body.chunks_exact(8).enumerate() {
        let idx = u32::from_le_bytes(pair[..4].try_into().expect("4-byte index")) as usize;
        if idx >= n {
            let offset = SPARSE_HEADER + 8 * k;
            return Err(DecodeError { offset, what: format!("index {idx} past {n} cells") });
        }
        f(idx, f64::from(f32::from_le_bytes(pair[4..].try_into().expect("4-byte value"))));
    }
    Ok(())
}

/// Decodes `bytes` and accumulates (`+=`) into `out`, element-wise. Every
/// grid cell is added, absent ones as `+0.0`, so this is bit-identical to
/// adding the raw f64 layout.
pub fn decode_add(bytes: &Bytes, out: &mut [f64]) -> Result<(), DecodeError> {
    decode_each(bytes, out, false, |a, v| *a += v)
}

/// Decodes `bytes` into `out`, overwriting it completely (absent cells
/// become `0.0`).
pub fn decode_into(bytes: &Bytes, out: &mut [f64]) -> Result<(), DecodeError> {
    decode_each(bytes, out, true, |a, v| *a = v)
}

/// Calls `set(cell, value)` for every cell of `out` that `bytes` carries: all
/// of them but a sparse payload's absent ones, zeroed first if `zero_absent`.
fn decode_each(
    bytes: &Bytes,
    out: &mut [f64],
    zero_absent: bool,
    set: impl Fn(&mut f64, f64),
) -> Result<(), DecodeError> {
    let n = out.len();
    match classify(bytes, n)? {
        Payload::RawF64(body) => {
            out.iter_mut().zip(Reader::new(body).f64s(n)?).for_each(|(a, v)| set(a, v));
        }
        Payload::DenseF32(body) => {
            out.iter_mut().zip(Reader::new(body).f32s(n)?).for_each(|(a, v)| set(a, f64::from(v)));
        }
        Payload::Grid(grid) => for_each_grid(&grid, out, set),
        Payload::SparseF32(body) => {
            if zero_absent {
                out.fill(0.0);
            }
            return for_each_sparse_f32(body, n, |i, v| set(&mut out[i], v));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: WireCodec, buf: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; buf.len()];
        decode_into(&encode(codec, buf), &mut out).unwrap();
        out
    }

    fn bits(buf: &[f64]) -> Vec<u64> {
        buf.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn grid_roundtrips_exactly() {
        let buf = vec![0.0, 1.5, 0.0, 0.0, -2.25, 1e300, 0.0, f64::MIN_POSITIVE];
        assert_eq!(bits(&roundtrip(WireCodec::Grid, &buf)), bits(&buf));
        let grid: Vec<f64> =
            (0..40).map(|i| if i % 3 == 0 { 0.0 } else { f64::from(i) * -0.125 }).collect();
        assert_eq!(bits(&roundtrip(WireCodec::Grid, &grid)), bits(&grid));
    }

    #[test]
    fn grid_frame_layout_is_the_documented_one() {
        // 3.0 = 6 half-units, -1.5 = -3: unit -1, zigzag 12 and 5, one byte each.
        let buf = [0.0, 3.0, 0.0, -1.5, 0.0, 0.0, 0.0, 0.0, 0.0];
        let frame = encode(WireCodec::Grid, &buf);
        let unit = (-1i16).to_le_bytes();
        assert_eq!(&frame[..], &[MARKER_GRID, unit[0], unit[1], 1, 0b1010, 0, 12, 5]);
        assert_eq!(frame.len(), grid_frame_bytes(9, 2, 1));
    }

    #[test]
    fn values_off_the_grid_ship_as_raw_f64() {
        let tiny = f64::from_bits(1); // the smallest subnormal
        let spread_63 = [1.0, f64::from_bits((1023 - 62) << 52)]; // 1 and 2^-62
        for buf in [
            vec![1.0, -0.0, 2.0],
            vec![1.0, f64::NAN, 2.0],
            vec![1.0, f64::INFINITY, 2.0],
            vec![1.0, f64::NEG_INFINITY, 2.0],
            vec![1.0, tiny, 2.0],
            spread_63.to_vec(),
        ] {
            let frame = encode(WireCodec::Grid, &buf);
            assert_eq!(frame.len(), 8 * buf.len(), "{buf:?}");
            assert_eq!(bits(&roundtrip(WireCodec::Grid, &buf)), bits(&buf), "{buf:?}");
        }
        // 62 bits between the largest and smallest bit still fit.
        let spread_62 = [1.0, f64::from_bits((1023 - 61) << 52), 0.0, 0.0];
        assert_eq!(encode(WireCodec::Grid, &spread_62).len(), grid_frame_bytes(4, 2, 8));
    }

    #[test]
    fn the_extreme_units_build_their_scale_from_bits() {
        // 2^-1074 is the smallest subnormal: `2f64.powi(-1074)` underflows to 0.
        assert_eq!(pow2(-1074), Some(f64::from_bits(1)));
        assert_eq!(pow2(-1023), Some(f64::from_bits(1 << 51)));
        assert_eq!(pow2(-1022), Some(f64::MIN_POSITIVE));
        assert_eq!(pow2(1023), Some(f64::from_bits(2046 << 52)));
        assert_eq!((pow2(-1075), pow2(1024)), (None, None));
        // The smallest normal and the largest finite value share no unit
        // within 62 bits; each alone rides the grid at its own unit.
        assert_eq!(encode(WireCodec::Grid, &[f64::MIN_POSITIVE, f64::MAX]).len(), 16);
        for v in [f64::MIN_POSITIVE, -f64::MIN_POSITIVE, f64::MAX, f64::MIN] {
            let buf = [v, 0.0, 0.0, 0.0];
            assert!(encode(WireCodec::Grid, &buf).len() < 32, "{v}");
            assert_eq!(bits(&roundtrip(WireCodec::Grid, &buf)), bits(&buf), "{v}");
        }
    }

    #[test]
    fn grid_frames_never_take_the_reserved_lengths() {
        // `8n` is raw f64 and `4n` dense f32 to the decoder. Sweep sizes,
        // densities and widths across both boundaries.
        for n in 1..=48usize {
            for nnz in 0..=n {
                for scale in [1.0, 300.0, 70_000.0, 2e7, 5e9, 1e12, 3e14] {
                    let buf: Vec<f64> =
                        (0..n).map(|i| if i < nnz { scale + i as f64 } else { 0.0 }).collect();
                    let frame = encode(WireCodec::Grid, &buf);
                    let raw = frame.len() == 8 * n;
                    assert!(
                        raw || (frame.len() < 8 * n && frame.len() != 4 * n),
                        "n={n} nnz={nnz}"
                    );
                    assert_eq!(bits(&roundtrip(WireCodec::Grid, &buf)), bits(&buf));
                }
            }
        }
    }

    #[test]
    fn f32_roundtrips_to_f32_precision() {
        let buf = vec![0.0, 1.5, core::f64::consts::PI, -7.25e10];
        let expected: Vec<f64> = buf.iter().map(|v| f64::from(*v as f32)).collect();
        assert_eq!(roundtrip(WireCodec::F32, &buf), expected);
    }

    #[test]
    fn empty_buffers_encode_and_decode() {
        for codec in WireCodec::ALL {
            let payload = encode(codec, &[]);
            assert!(payload.is_empty(), "{codec}");
            let mut out: Vec<f64> = vec![];
            decode_into(&payload, &mut out).unwrap();
            decode_add(&payload, &mut out).unwrap();
        }
    }

    #[test]
    fn all_zero_buffers_are_header_and_bitmap() {
        let zeros = vec![0.0; 16];
        assert_eq!(encode(WireCodec::Grid, &zeros).len(), GRID_HEADER + 2);
        assert_eq!(encode(WireCodec::F32, &zeros).len(), sparse_f32_bytes(0));
    }

    #[test]
    fn decode_add_is_the_raw_element_wise_add() {
        let buf = vec![0.0, 2.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let mut acc = vec![10.0, 10.0, -0.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0];
        let mut raw = acc.clone();
        decode_add(&encode(WireCodec::Grid, &buf), &mut acc).unwrap();
        decode_add(&f64s_to_bytes(&buf), &mut raw).unwrap();
        // -0.0 + 0.0 is +0.0: an absent cell adds like an explicit zero.
        assert_eq!(bits(&acc), bits(&raw));
        assert_eq!(acc, vec![10.0, 12.0, 0.0, 9.0, 10.0, 10.0, 10.0, 10.0, 10.0]);
    }

    /// One frame per refusal of the grid parser, from a valid one.
    #[test]
    fn every_grid_malformed_arm_is_reachable() {
        let buf = [0.0, 3.0, 0.0, -1.5, 0.0, 0.0, 0.0, 0.0, 0.0];
        let frame = encode(WireCodec::Grid, &buf).to_vec();
        let n = buf.len();
        let with = |i: usize, b: u8| {
            let mut f = frame.clone();
            f[i] = b;
            Bytes::from(f)
        };
        let mut extra_value = frame.clone();
        extra_value.push(0);
        let mut bit_past_n = extra_value.clone();
        bit_past_n[GRID_HEADER + 1] = 0b10;
        let mut unit_past_range = frame.clone();
        unit_past_range[1..3].copy_from_slice(&(-1075i16).to_le_bytes());
        let cases = [
            ("short header", Bytes::from(frame[..3].to_vec())),
            ("bitmap cut short", Bytes::from(frame[..GRID_HEADER + 1].to_vec())),
            ("w > 8", with(3, 9)),
            ("unit past the f64 range", Bytes::from(unit_past_range)),
            ("bitmap bit past n", Bytes::from(bit_past_n)),
            ("value bytes > popcount × w", Bytes::from(extra_value)),
            ("value bytes < popcount × w", Bytes::from(frame[..frame.len() - 1].to_vec())),
            ("unknown marker", with(0, 0x11)),
        ];
        for (arm, bytes) in cases {
            assert!(decode_into(&bytes, &mut vec![0.0; n]).is_err(), "{arm}");
            assert!(decode_add(&bytes, &mut vec![0.0; n]).is_err(), "{arm}");
        }
    }

    /// `8n` and `4n` bytes are the raw and dense-f32 layouts whatever their
    /// first byte, so a grid frame of either length would be misread:
    /// the encoder must never emit one (`grid_frames_never_take_the_reserved_lengths`).
    #[test]
    fn reserved_lengths_are_never_read_as_grid_frames() {
        // n = 12, six cells of width 7: 4 + 2 + 42 = 48 = 4n.
        let buf: Vec<f64> = (0..12).map(|i| if i < 6 { 1e15 + i as f64 } else { 0.0 }).collect();
        assert_eq!(grid_frame_bytes(12, 6, 7), 4 * 12);
        assert_eq!(encode(WireCodec::Grid, &buf).len(), 8 * 12, "falls back to raw");
        let mut frame = vec![MARKER_GRID, 0, 0, 7, 0b11_1111, 0];
        frame.resize(4 * 12, 1);
        let mut out = vec![0.0; 12];
        decode_into(&Bytes::from(frame.clone()), &mut out).unwrap();
        assert_ne!(out, buf, "a 4n frame is dense f32");
        frame.resize(8 * 12, 1);
        decode_into(&Bytes::from(frame), &mut out).unwrap();
        assert_ne!(out, buf, "an 8n frame is raw f64");
    }

    #[test]
    fn sparse_f32_malformed_arms() {
        let sparse = encode(WireCodec::F32, &[0.0, 0.0, 4.0, 0.0]);
        assert_eq!(sparse[0], MARKER_SPARSE_F32);
        let mut bad_index = sparse.to_vec();
        bad_index[5..9].copy_from_slice(&9u32.to_le_bytes());
        for bytes in [
            Bytes::from_static(&[MARKER_SPARSE_F32, 0, 0]),
            sparse.slice(..sparse.len() - 2),
            Bytes::from(bad_index),
        ] {
            assert!(decode_into(&bytes, &mut [0.0; 4]).is_err(), "{bytes:?}");
        }
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let payload = f64s_to_bytes(&[1.0, 2.0]);
        let mut out = vec![0.0; 3];
        assert!(decode_into(&payload, &mut out).is_err());
        assert!(decode_add(&payload, &mut out).is_err());
    }

    #[test]
    fn bulk_f64_helpers_roundtrip() {
        let buf: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.5 - 10.0).collect();
        let bytes = f64s_to_bytes(&buf);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.f64s(buf.len()).map(Iterator::collect::<Vec<_>>), Ok(buf));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(f64s_to_bytes(&[]).len(), 0);
    }
}
