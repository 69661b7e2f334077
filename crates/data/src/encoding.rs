//! Key-value pair encodings for the horizontal-to-vertical repartition
//! (paper §4.2.1 step 3 and Appendix A / Table 5).
//!
//! Three wire formats are implemented, matching the paper's ablation:
//!
//! * **Naïve** — each pair is the original 〈u32 feature index, f64 feature
//!   value〉, 12 bytes.
//! * **Compressed** — feature ids are renumbered inside their column group
//!   (so `⌈log₂ p⌉` bits suffice for `p` group features) and values are
//!   replaced by histogram bin indexes (`⌈log₂ q⌉` bits for `q` bins); both
//!   are rounded up to whole bytes, as in the paper ("we use ⌈log(p)⌉ bytes
//!   to encode the new feature id").
//! * **Blockified** — the compressed pairs of one (file split × column
//!   group) cell as three flat arrays with a single header, eliminating
//!   per-vector framing (paper Figure 9). The receiver decodes every
//!   sender's block in place into one row-store ([`decode_blocks`]).
//!
//! All encoders really produce bytes — the byte counts reported to the cost
//! model are the lengths of these buffers, not estimates.

use crate::binned::BinnedRows;
use crate::block::{Assembly, Block, SliceError};
use crate::error::DataError;
use crate::{BinId, FeatureId};
use bytes::Bytes;

/// Bytes of one naïvely encoded 〈feature index, feature value〉 pair.
pub const NAIVE_PAIR_BYTES: usize = 12;

/// Whole bytes needed to address `cardinality` distinct values
/// (`⌈⌈log₂ cardinality⌉ / 8⌉`, minimum 1).
pub fn bytes_for_cardinality(cardinality: usize) -> usize {
    let bits = usize::BITS - cardinality.next_power_of_two().leading_zeros() - 1;
    usize::max(1, (bits as usize).div_ceil(8))
}

/// Bytes of one compressed pair for a group of `p` features and `q` bins.
pub fn compressed_pair_bytes(p: usize, q: usize) -> usize {
    bytes_for_cardinality(p) + bytes_for_cardinality(q)
}

/// Writes `value` big-endian into the `dst.len()`-byte slot (the wire
/// format stays big-endian, matching the original `put_uint` framing).
#[inline]
fn put_be(dst: &mut [u8], value: u64) {
    let w = dst.len();
    dst.copy_from_slice(&value.to_be_bytes()[8 - w..]);
}

/// Reads a big-endian unsigned integer of `src.len()` bytes.
#[inline]
fn get_be(src: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[8 - src.len()..].copy_from_slice(src);
    u64::from_be_bytes(buf)
}

/// Stages a `u32` array into `out` at the given element width with bulk
/// chunked copies — width-specialized for the common 1- and 2-byte cases so
/// the hot repartition loop compiles to straight stores instead of
/// per-element variable-width framing.
fn put_u32s(out: &mut [u8], values: &[u32], width: usize) {
    debug_assert_eq!(out.len(), values.len() * width);
    match width {
        1 => {
            for (dst, &v) in out.iter_mut().zip(values) {
                *dst = v as u8;
            }
        }
        2 => {
            for (dst, &v) in out.chunks_exact_mut(2).zip(values) {
                dst.copy_from_slice(&(v as u16).to_be_bytes());
            }
        }
        4 => {
            for (dst, &v) in out.chunks_exact_mut(4).zip(values) {
                dst.copy_from_slice(&v.to_be_bytes());
            }
        }
        _ => {
            for (dst, &v) in out.chunks_exact_mut(width).zip(values) {
                put_be(dst, u64::from(v));
            }
        }
    }
}

/// Appends a `u32` array encoded at the given element width.
fn extend_u32s(dst: &mut Vec<u32>, src: &[u8], width: usize) {
    debug_assert!(src.len().is_multiple_of(width));
    match width {
        1 => dst.extend(src.iter().map(|&b| u32::from(b))),
        2 => dst.extend(src.chunks_exact(2).map(|c| u32::from(u16::from_be_bytes([c[0], c[1]])))),
        4 => dst.extend(src.chunks_exact(4).map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))),
        _ => dst.extend(src.chunks_exact(width).map(|c| get_be(c) as u32)),
    }
}

/// Encodes pairs in the naïve 12-byte format (for the Table 5 baseline).
pub fn encode_naive(pairs: &[(FeatureId, f64)]) -> Bytes {
    let mut out = vec![0u8; pairs.len() * NAIVE_PAIR_BYTES];
    for (dst, &(f, v)) in out.chunks_exact_mut(NAIVE_PAIR_BYTES).zip(pairs) {
        dst[0..4].copy_from_slice(&f.to_be_bytes());
        dst[4..12].copy_from_slice(&v.to_be_bytes());
    }
    Bytes::from(out)
}

/// Decodes the naïve format.
pub fn decode_naive(bytes: Bytes) -> Result<Vec<(FeatureId, f64)>, DataError> {
    if !bytes.len().is_multiple_of(NAIVE_PAIR_BYTES) {
        return Err(DataError::Shape(format!(
            "naive buffer len {} not a multiple of {NAIVE_PAIR_BYTES}",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(NAIVE_PAIR_BYTES)
        .map(|c| {
            let f = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
            let v = f64::from_be_bytes([c[4], c[5], c[6], c[7], c[8], c[9], c[10], c[11]]);
            (f, v)
        })
        .collect())
}

/// Encodes compressed 〈group-local feature id, bin index〉 pairs.
pub fn encode_compressed(pairs: &[(FeatureId, BinId)], p: usize, q: usize) -> Bytes {
    let fw = bytes_for_cardinality(p);
    let bw = bytes_for_cardinality(q);
    let mut out = vec![0u8; pairs.len() * (fw + bw)];
    match (fw, bw) {
        // The §5.1 workloads land here (p ≤ 65536, q ≤ 256): fixed-shape
        // stores the optimizer unrolls.
        (1, 1) => {
            for (dst, &(f, b)) in out.chunks_exact_mut(2).zip(pairs) {
                dst[0] = f as u8;
                dst[1] = b as u8;
            }
        }
        (2, 1) => {
            for (dst, &(f, b)) in out.chunks_exact_mut(3).zip(pairs) {
                dst[0..2].copy_from_slice(&(f as u16).to_be_bytes());
                dst[2] = b as u8;
            }
        }
        _ => {
            for (dst, &(f, b)) in out.chunks_exact_mut(fw + bw).zip(pairs) {
                put_be(&mut dst[..fw], u64::from(f));
                put_be(&mut dst[fw..], u64::from(b));
            }
        }
    }
    Bytes::from(out)
}

/// Decodes the compressed format given the same `p` and `q`.
pub fn decode_compressed(
    bytes: Bytes,
    p: usize,
    q: usize,
) -> Result<Vec<(FeatureId, BinId)>, DataError> {
    let fw = bytes_for_cardinality(p);
    let bw = bytes_for_cardinality(q);
    let pair = fw + bw;
    if !bytes.len().is_multiple_of(pair) {
        return Err(DataError::Shape(format!(
            "compressed buffer len {} not a multiple of {pair}",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(pair)
        .map(|c| (get_be(&c[..fw]) as FeatureId, get_be(&c[fw..]) as BinId))
        .collect())
}

/// Encodes a whole [`Block`] in the blockified wire format: a fixed header
/// followed by the three flat arrays with compact element widths.
pub fn encode_block(block: &Block, p: usize, q: usize) -> Bytes {
    let fw = bytes_for_cardinality(p);
    let bw = bytes_for_cardinality(q);
    let nnz = block.nnz();
    let ptr_start = 16 + nnz * (fw + bw);
    let mut out = vec![0u8; ptr_start + (block.n_rows() + 1) * 4];
    out[0..4].copy_from_slice(&block.file_split_index.to_be_bytes());
    out[4..8].copy_from_slice(&block.row_offset.to_be_bytes());
    out[8..12].copy_from_slice(&(block.n_rows() as u32).to_be_bytes());
    out[12..16].copy_from_slice(&(nnz as u32).to_be_bytes());
    put_u32s(&mut out[16..16 + nnz * fw], &block.feats, fw);
    {
        let bins = &mut out[16 + nnz * fw..ptr_start];
        match bw {
            1 => {
                for (dst, &b) in bins.iter_mut().zip(&block.bins) {
                    *dst = b as u8;
                }
            }
            _ => {
                for (dst, &b) in bins.chunks_exact_mut(bw).zip(&block.bins) {
                    put_be(dst, u64::from(b));
                }
            }
        }
    }
    put_u32s(&mut out[ptr_start..], &block.row_ptr, 4);
    Bytes::from(out)
}

/// The header of a blockified payload, checked against the payload's length.
struct BlockHeader {
    file_split_index: u32,
    row_offset: u32,
    n_rows: usize,
    nnz: usize,
}

fn block_header(bytes: &[u8], p: usize, q: usize) -> Result<BlockHeader, DataError> {
    if bytes.len() < 16 {
        return Err(DataError::Shape("block buffer shorter than header".into()));
    }
    let hdr = |i: usize| u32::from_be_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
    let (n_rows, nnz) = (hdr(8) as usize, hdr(12) as usize);
    let need =
        nnz.checked_mul(compressed_pair_bytes(p, q)).and_then(|v| v.checked_add((n_rows + 1) * 4));
    if need != Some(bytes.len() - 16) {
        return Err(DataError::Shape(format!(
            "block buffer has {} payload bytes, header implies {need:?}",
            bytes.len() - 16
        )));
    }
    Ok(BlockHeader { file_split_index: hdr(0), row_offset: hdr(4), n_rows, nnz })
}

/// Decodes blockified payloads — one per sender, in file-split order — into
/// one row-store of `n_rows` rows over a `p`-feature group. The headers size
/// its pair arrays exactly; each payload is decoded in place, appended, and
/// dropped before the next. Every malformed payload is a [`SliceError`]
/// (which says whom it blames): a length its header does not imply, slices
/// that do not tile the rows, pointers that do not run from 0 to the slice's pair count
/// without descending, or a row whose features are not strictly ascending
/// and `< p`.
pub fn decode_blocks(
    payloads: Vec<Bytes>,
    n_rows: usize,
    p: usize,
    q: usize,
) -> Result<BinnedRows, SliceError> {
    let headers = payloads
        .iter()
        .enumerate()
        .map(|(slice, b)| block_header(b, p, q).map_err(|error| SliceError { slice, error }))
        .collect::<Result<Vec<_>, _>>()?;
    let (fw, bw) = (bytes_for_cardinality(p), bytes_for_cardinality(q));
    let mut rows = Assembly::new(p, n_rows, headers.iter().map(|h| h.nnz).sum());
    for (slice, (payload, h)) in payloads.into_iter().zip(headers).enumerate() {
        rows.begin(h.file_split_index, h.row_offset)?;
        let feats_end = 16 + h.nnz * fw;
        let bins_end = feats_end + h.nnz * bw;
        extend_u32s(&mut rows.feats, &payload[16..feats_end], fw);
        let bins = &payload[feats_end..bins_end];
        match bw {
            1 => rows.bins.extend(bins.iter().map(|&b| BinId::from(b))),
            _ => rows.bins.extend(bins.chunks_exact(bw).map(|c| get_be(c) as BinId)),
        }
        let ptrs = &payload[bins_end..];
        let ptr = |k: usize| get_be(&ptrs[4 * k..4 * k + 4]) as usize;
        if ptr(0) != 0 || ptr(h.n_rows) != h.nnz {
            return Err(SliceError {
                slice,
                error: DataError::Shape(format!(
                    "slice {} row_ptr does not run from 0 to its {} pairs",
                    h.file_split_index, h.nnz
                )),
            });
        }
        let base = rows.feats.len() - h.nnz;
        rows.row_ptr.extend((1..=h.n_rows).map(|k| base + ptr(k)));
    }
    rows.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(split: u32, offset: u32, feats: Vec<u32>, bins: Vec<u16>, row_ptr: Vec<u32>) -> Block {
        Block { file_split_index: split, row_offset: offset, feats, bins, row_ptr }
    }

    #[test]
    fn cardinality_widths_match_paper_arithmetic() {
        assert_eq!(bytes_for_cardinality(1), 1);
        assert_eq!(bytes_for_cardinality(2), 1);
        assert_eq!(bytes_for_cardinality(20), 1); // q = 20 bins -> 1 byte
        assert_eq!(bytes_for_cardinality(256), 1);
        assert_eq!(bytes_for_cardinality(257), 2);
        assert_eq!(bytes_for_cardinality(41_250), 2); // 330k feats / 8 workers
        assert_eq!(bytes_for_cardinality(65_536), 2);
        assert_eq!(bytes_for_cardinality(65_537), 3);
    }

    #[test]
    fn compression_ratio_reaches_4x() {
        // p <= 65536 group features, q <= 256 bins: pair shrinks 12 -> 3
        // bytes; the paper reports "up to 4x compression".
        let ratio = NAIVE_PAIR_BYTES as f64 / compressed_pair_bytes(50_000, 20) as f64;
        assert!(ratio >= 4.0, "ratio = {ratio}");
    }

    #[test]
    fn naive_roundtrip() {
        let pairs = vec![(0u32, 1.5f64), (7, -2.25), (100_000, 0.0)];
        let enc = encode_naive(&pairs);
        assert_eq!(enc.len(), pairs.len() * NAIVE_PAIR_BYTES);
        assert_eq!(decode_naive(enc).unwrap(), pairs);
    }

    #[test]
    fn naive_rejects_truncated_buffer() {
        let enc = encode_naive(&[(1, 2.0)]);
        assert!(decode_naive(enc.slice(0..5)).is_err());
    }

    #[test]
    fn compressed_roundtrip_various_widths() {
        let pairs = vec![(0u32, 0u16), (199, 19), (63, 7)];
        for (p, q) in [(200, 20), (70_000, 300), (1 << 20, 65_000)] {
            let enc = encode_compressed(&pairs, p, q);
            assert_eq!(
                enc.len(),
                pairs.len() * compressed_pair_bytes(p, q),
                "p={p} q={q}"
            );
            assert_eq!(decode_compressed(enc, p, q).unwrap(), pairs, "p={p} q={q}");
        }
    }

    #[test]
    fn compressed_rejects_misaligned_buffer() {
        let enc = encode_compressed(&[(1, 1)], 200, 20);
        assert!(decode_compressed(enc.slice(0..1), 200, 20).is_err());
    }

    #[test]
    fn blocks_decode_into_one_row_store() {
        // Four rows of a 64-feature group, sent as two slices.
        let a = block(0, 0, vec![0, 5, 2], vec![1, 19, 0], vec![0, 2, 2, 3]);
        let b = block(1, 3, vec![1, 63], vec![7, 3], vec![0, 2]);
        let wire = vec![encode_block(&a, 64, 20), encode_block(&b, 64, 20)];
        let rows = decode_blocks(wire, 4, 64, 20).unwrap();
        assert_eq!((rows.n_rows(), rows.nnz()), (4, 5));
        assert_eq!(rows.row(0), (&[0u32, 5][..], &[1u16, 19][..]));
        assert_eq!(rows.row(1), (&[][..], &[][..]));
        assert_eq!(rows.row(2), (&[2u32][..], &[0u16][..]));
        assert_eq!(rows.row(3), (&[1u32, 63][..], &[7u16, 3][..]));
    }

    #[test]
    fn block_decode_rejects_wrong_length() {
        let enc = encode_block(&block(0, 0, vec![1], vec![1], vec![0, 1]), 64, 20);
        assert!(decode_blocks(vec![enc.slice(0..enc.len() - 1)], 1, 64, 20).is_err());
        assert!(decode_blocks(vec![enc.slice(0..8)], 1, 64, 20).is_err());
        assert!(decode_blocks(vec![enc.clone()], 2, 64, 20).is_err(), "a row no block covers");
        assert!(decode_blocks(vec![enc], 1, 64, 20).is_ok());
    }

    #[test]
    fn blockified_beats_per_pair_framing() {
        // 1000 pairs in one block: header amortizes to nothing, while even a
        // 4-byte per-row length prefix on tiny vectors would dominate.
        let n = 1000usize;
        let feats: Vec<u32> = (0..n as u32).map(|i| i % 64).collect();
        let bins: Vec<u16> = (0..n as u16).map(|i| i % 20).collect();
        let row_ptr: Vec<u32> = (0..=n as u32).collect(); // one pair per row
        let enc = encode_block(&block(0, 0, feats, bins, row_ptr), 64, 20);
        // 16-byte header + 2 bytes/pair + 4 bytes/row pointer.
        assert_eq!(enc.len(), 16 + n * 2 + (n + 1) * 4);
    }
}
