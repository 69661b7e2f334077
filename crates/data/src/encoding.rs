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
//!   group) cell under a single header, eliminating per-vector framing
//!   (paper Figure 9), at the bit width both ends derive rather than whole
//!   bytes: one little-endian bitstream of `⌈log₂ p⌉ + ⌈log₂ q⌉`-bit pairs,
//!   then each row's length at the width of the longest row (the header
//!   carries that width). The receiver decodes every sender's block in place
//!   into one row-store ([`decode_blocks`]).
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
pub fn decode_naive(bytes: &[u8]) -> Result<Vec<(FeatureId, f64)>, DataError> {
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
    bytes: &[u8],
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

/// Bytes of a blockified payload's header: file-split index, first row,
/// row count and pair count (big-endian `u32`s), then the bit width of a
/// row length.
pub const BLOCK_HEADER_BYTES: usize = 17;

/// Bits needed to address `cardinality` distinct values
/// (`⌈log₂ cardinality⌉`, minimum 1).
pub fn bits_for_cardinality(cardinality: usize) -> u32 {
    usize::BITS - (cardinality.max(2) - 1).leading_zeros()
}

/// Bits of a row length in a block whose longest row holds `max_row_len`
/// pairs (`⌈log₂(max_row_len + 1)⌉`; 0 when every row is empty).
pub fn row_len_bits(max_row_len: usize) -> u32 {
    usize::BITS - max_row_len.leading_zeros()
}

/// Bytes of a blockified payload of `nnz` pairs in `n_rows` rows whose
/// lengths are `len_bits` wide, for a group of `p` features and `q` bins;
/// `None` past `usize`.
pub fn block_bytes(nnz: usize, n_rows: usize, len_bits: u32, p: usize, q: usize) -> Option<usize> {
    let pair_bits = u128::from(bits_for_cardinality(p) + bits_for_cardinality(q));
    let bits = nnz as u128 * pair_bits + n_rows as u128 * u128::from(len_bits);
    usize::try_from(bits.div_ceil(8)).ok()?.checked_add(BLOCK_HEADER_BYTES)
}

/// Appends fields of up to 32 bits to a little-endian bitstream: field `k`
/// starts at the bit where field `k − 1` ended, counting from bit 0 of
/// byte 0.
struct BitWriter {
    out: Vec<u8>,
    /// Bits written but not yet stored, lowest first.
    acc: u64,
    filled: u32,
}

impl BitWriter {
    #[inline]
    fn put(&mut self, value: u64, bits: u32) {
        debug_assert!(bits <= 32 && value >> bits == 0);
        self.acc |= value << self.filled;
        self.filled += bits;
        if self.filled >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.filled -= 32;
        }
    }

    /// The stream, its last byte zero-padded.
    fn finish(mut self) -> Vec<u8> {
        let tail = self.filled.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.out
    }
}

/// Reads fields of up to 57 bits back from a [`BitWriter`] stream.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl BitReader<'_> {
    /// The next `bits`-bit field. Past the end of the stream it reads zero
    /// bits, which a caller that checked the stream's length never reaches.
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "hot loop: the blockified bitstream read")]
    fn get(&mut self, bits: u32) -> u64 {
        let at = self.pos >> 3;
        let word = match self.bytes.get(at..at + 8) {
            Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
            None => {
                let mut word = [0u8; 8];
                let tail = self.bytes.get(at..).unwrap_or_default();
                word[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(word)
            }
        };
        let field = (word >> (self.pos & 7)) & ((1 << bits) - 1);
        self.pos += bits as usize;
        field
    }
}

/// Encodes a whole [`Block`] in the blockified wire format: a
/// [`BLOCK_HEADER_BYTES`] header, then one little-endian bitstream of every
/// pair — feature in the low [`bits_for_cardinality`]`(p)` bits, bin in the
/// next `bits_for_cardinality(q)` — followed by every row's length at
/// [`row_len_bits`] of the longest row.
pub fn encode_block(block: &Block, p: usize, q: usize) -> Bytes {
    let (fb, bb) = (bits_for_cardinality(p), bits_for_cardinality(q));
    let (nnz, n_rows) = (block.nnz(), block.n_rows());
    let max_len = block.row_ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let lb = row_len_bits(max_len as usize);
    let len = block_bytes(nnz, n_rows, lb, p, q).expect("a block that fits in memory");
    let mut out = Vec::with_capacity(len);
    for word in [block.file_split_index, block.row_offset, n_rows as u32, nnz as u32] {
        out.extend_from_slice(&word.to_be_bytes());
    }
    out.push(lb as u8);
    let mut bits = BitWriter { out, acc: 0, filled: 0 };
    let pairs = 0..nnz;
    if fb + bb <= 32 {
        block.pairs.for_each(pairs, |f, b| bits.put(u64::from(f) | u64::from(b) << fb, fb + bb));
    } else {
        block.pairs.for_each(pairs, |f, b| {
            bits.put(u64::from(f), fb);
            bits.put(u64::from(b), bb);
        });
    }
    for w in block.row_ptr.windows(2) {
        bits.put(u64::from(w[1] - w[0]), lb);
    }
    let out = bits.finish();
    debug_assert_eq!(out.len(), len);
    Bytes::from(out)
}

/// The header of a blockified payload, checked against the payload's length.
struct BlockHeader {
    file_split_index: u32,
    row_offset: u32,
    n_rows: usize,
    nnz: usize,
    len_bits: u32,
}

fn block_header(bytes: &[u8], p: usize, q: usize) -> Result<BlockHeader, DataError> {
    if bytes.len() < BLOCK_HEADER_BYTES {
        return Err(DataError::Shape("block buffer shorter than header".into()));
    }
    let hdr = |i: usize| u32::from_be_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
    let (n_rows, nnz, len_bits) = (hdr(8) as usize, hdr(12) as usize, u32::from(bytes[16]));
    if len_bits > 32 {
        return Err(DataError::Shape(format!("row lengths {len_bits} bits wide")));
    }
    let need = block_bytes(nnz, n_rows, len_bits, p, q);
    if need != Some(bytes.len()) {
        return Err(DataError::Shape(format!(
            "block buffer has {} bytes, header implies {need:?}",
            bytes.len()
        )));
    }
    Ok(BlockHeader { file_split_index: hdr(0), row_offset: hdr(4), n_rows, nnz, len_bits })
}

/// Decodes blockified payloads — one per sender, in file-split order, bins
/// `⌈log₂ q⌉` bits wide — into one row-store of `n_rows` rows over a group of
/// `p = n_bins.len()` features, feature `f` with `n_bins[f]` bins. The headers
/// size its keys exactly (a pair is at least two bits of its payload); each
/// payload is decoded straight into keys, appended, and dropped before the
/// next.
/// Every malformed payload is a [`SliceError`] (which says whom it blames):
/// a length its header does not imply, slices that do not tile the rows or
/// run past `n_rows`, row lengths that do not sum to the slice's pair count,
/// a row whose features are not strictly ascending and `< p`, or a bin
/// `≥ n_bins[f]`.
pub fn decode_blocks(
    payloads: Vec<Bytes>,
    n_rows: usize,
    n_bins: &[usize],
    q: usize,
) -> Result<BinnedRows, SliceError> {
    let p = n_bins.len();
    let headers = payloads
        .iter()
        .enumerate()
        .map(|(slice, b)| block_header(b, p, q).map_err(|error| SliceError { slice, error }))
        .collect::<Result<Vec<_>, _>>()?;
    let (fb, bb) = (bits_for_cardinality(p), bits_for_cardinality(q));
    let mut rows = Assembly::new(n_bins, n_rows, headers.iter().map(|h| h.nnz).sum());
    for (slice, (payload, h)) in payloads.into_iter().zip(headers).enumerate() {
        let fail = |error| SliceError { slice, error };
        rows.begin(h.file_split_index, h.row_offset)?;
        if h.row_offset as usize + h.n_rows > n_rows {
            return Err(fail(DataError::Shape(format!(
                "slice {} runs {} rows past the {n_rows} rows",
                h.file_split_index,
                h.row_offset as usize + h.n_rows - n_rows
            ))));
        }
        let mut bits = BitReader { bytes: &payload[BLOCK_HEADER_BYTES..], pos: 0 };
        let feature_mask = (1 << fb) - 1;
        let base = rows.pairs.len();
        rows.extend(h.nnz, || {
            let pair = bits.get(fb + bb);
            ((pair & feature_mask) as FeatureId, (pair >> fb) as BinId)
        })?;
        let mut end = base;
        for _ in 0..h.n_rows {
            end += bits.get(h.len_bits) as usize;
            rows.row_ptr.push(end);
        }
        if end - base != h.nnz {
            return Err(fail(DataError::Shape(format!(
                "slice {} row lengths sum to {}, not its {} pairs",
                h.file_split_index,
                end - base,
                h.nnz
            ))));
        }
    }
    rows.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::PairKeys;

    fn block(split: u32, offset: u32, feats: Vec<u32>, bins: Vec<u16>, row_ptr: Vec<u32>) -> Block {
        let n_ids = feats.iter().max().map_or(0, |&f| f as usize + 1);
        let n_bins = bins.iter().max().map_or(0, |&b| usize::from(b) + 1);
        let mut pairs = PairKeys::with_capacity(n_ids, n_bins, feats.len());
        for (&f, &b) in feats.iter().zip(&bins) {
            pairs.push(f, b);
        }
        Block { file_split_index: split, row_offset: offset, pairs, row_ptr }
    }

    fn row(m: &BinnedRows, i: usize) -> (Vec<FeatureId>, Vec<BinId>) {
        let mut out = (Vec::new(), Vec::new());
        m.for_each_in_row(i, |f, b| {
            out.0.push(f);
            out.1.push(b);
        });
        out
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
        assert_eq!(decode_naive(&enc).unwrap(), pairs);
    }

    #[test]
    fn naive_rejects_truncated_buffer() {
        let enc = encode_naive(&[(1, 2.0)]);
        assert!(decode_naive(&enc[0..5]).is_err());
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
            assert_eq!(decode_compressed(&enc, p, q).unwrap(), pairs, "p={p} q={q}");
        }
    }

    #[test]
    fn compressed_rejects_misaligned_buffer() {
        let enc = encode_compressed(&[(1, 1)], 200, 20);
        assert!(decode_compressed(&enc[0..1], 200, 20).is_err());
    }

    #[test]
    fn blocks_decode_into_one_row_store() {
        // Four rows of a 64-feature group, sent as two slices.
        let a = block(0, 0, vec![0, 5, 2], vec![1, 19, 0], vec![0, 2, 2, 3]);
        let b = block(1, 3, vec![1, 63], vec![7, 3], vec![0, 2]);
        let wire = vec![encode_block(&a, 64, 20), encode_block(&b, 64, 20)];
        let rows = decode_blocks(wire, 4, &[20; 64], 20).unwrap();
        assert_eq!((rows.n_rows(), rows.nnz()), (4, 5));
        assert_eq!(row(&rows, 0), (vec![0, 5], vec![1, 19]));
        assert_eq!(row(&rows, 1), (vec![], vec![]));
        assert_eq!(row(&rows, 2), (vec![2], vec![0]));
        assert_eq!(row(&rows, 3), (vec![1, 63], vec![7, 3]));
    }

    #[test]
    fn block_decode_rejects_wrong_length() {
        let enc = encode_block(&block(0, 0, vec![1], vec![1], vec![0, 1]), 64, 20);
        assert!(decode_blocks(vec![enc.slice(0..enc.len() - 1)], 1, &[20; 64], 20).is_err());
        assert!(decode_blocks(vec![enc.slice(0..8)], 1, &[20; 64], 20).is_err());
        let uncovered = decode_blocks(vec![enc.clone()], 2, &[20; 64], 20);
        assert!(uncovered.is_err(), "a row no block covers");
        assert!(decode_blocks(vec![enc], 1, &[20; 64], 20).is_ok());
    }

    #[test]
    fn bit_widths_match_log2() {
        let bits: Vec<u32> = [0, 1, 2, 3, 16, 17, 20, 2_000, 2_048, 2_049, 65_536, 65_537]
            .map(bits_for_cardinality)
            .into();
        assert_eq!(bits, [1, 1, 1, 2, 4, 5, 5, 11, 11, 12, 16, 17]);
        let lens: Vec<u32> = [0, 1, 2, 3, 4, 255, 256].map(row_len_bits).into();
        assert_eq!(lens, [0, 1, 2, 2, 3, 8, 9]);
    }

    #[test]
    fn blocks_pack_pairs_and_row_lengths_into_bits() {
        // 1000 pairs, one per row, over 64 features and 20 bins: 6 + 5 bits
        // a pair and 1 bit a row length, after the 17-byte header.
        let n = 1000usize;
        let feats: Vec<u32> = (0..n as u32).map(|i| i % 64).collect();
        let bins: Vec<u16> = (0..n as u16).map(|i| i % 20).collect();
        let row_ptr: Vec<u32> = (0..=n as u32).collect();
        let enc = encode_block(&block(0, 0, feats.clone(), bins.clone(), row_ptr), 64, 20);
        assert_eq!(enc.len(), 17 + (n * 11 + n).div_ceil(8));
        assert_eq!(Some(enc.len()), block_bytes(n, n, 1, 64, 20));
        assert!(enc.len() * 2 < 16 + n * 2 + (n + 1) * 4, "half the byte-aligned size");
        let rows = decode_blocks(vec![enc], n, &[20; 64], 20).unwrap();
        assert_eq!(row(&rows, 999), (feats[999..].to_vec(), bins[999..].to_vec()));
        // Pairs wider than the 32 bits one store takes: 2^17 features and
        // 2^16 bins write each pair as two fields.
        let wide = block(0, 0, vec![(1 << 17) - 1, 7], vec![65_535, 1], vec![0, 1, 1, 2]);
        let enc = encode_block(&wide, 1 << 17, 1 << 16);
        assert_eq!(enc.len(), 17 + 9, "two 33-bit pairs and three 1-bit lengths");
        let rows = decode_blocks(vec![enc], 3, &vec![1 << 16; 1 << 17], 1 << 16).unwrap();
        assert_eq!(row(&rows, 0), (vec![(1 << 17) - 1], vec![65_535]));
        assert_eq!(row(&rows, 2), (vec![7], vec![1]));
        assert_eq!(rows.pairs().key_bytes(), 8, "2^17 features at 16-bit bins");
    }
}
