//! Histogram wire codecs: how flat f64 buffers are serialized for the
//! collectives (DESIGN.md §4.7).
//!
//! Histogram aggregation ships `D·q·C·2` f64s per built node every layer
//! (§3.1.3) even when most bins are empty, which on high-dimensional sparse
//! data is the bulk of all simulated traffic. This module provides four wire
//! layouts behind three [`WireCodec`]s:
//!
//! * **dense f64** — raw little-endian f64s, `8·n` bytes. The legacy format;
//!   byte counts of existing experiments are unchanged.
//! * **sparse f64** — COO-style `(u32 bin index, f64 value)` pairs for the
//!   nonzero bins only: 1 marker byte + `u32` count + `12·nnz` bytes.
//! * **dense/sparse f32** — the same two layouts with f32 values (DimBoost's
//!   low-precision compressed histograms, §4.1). Lossy; opt-in.
//!
//! [`WireCodec::Dense`] always ships dense f64. [`WireCodec::Auto`] picks
//! sparse iff it is strictly smaller than dense for the message at hand:
//! `5 + 12·nnz < 8·n`, i.e. density below roughly 2/3 — so it is never
//! larger than either fixed layout. [`WireCodec::F32`] is sparsity-aware
//! the same way against its own break-even `5 + 8·nnz < 4·n` (density
//! ≈ 1/2).
//!
//! Formats are self-describing without tagging the dense fast path: sparse
//! payloads start with a marker byte and have odd length (`5 + 12k` or
//! `5 + 8k`), dense payloads have even length (`8n` or `4n`), and the
//! decoder knows `n`, so every case is unambiguous.
//!
//! **Determinism.** Histogram buffers are built by `+=` accumulation from
//! `+0.0`, so they never hold `-0.0`; skipping zero bins on decode-add is
//! therefore bit-identical to adding an explicit `+0.0`, and all merges run
//! in the same rank/segment order as the dense path. The lossless codecs
//! (`Dense`, `Auto`) are guaranteed to train bit-identical ensembles.

use bytes::Bytes;
pub use gbdt_core::config::WireCodec;

/// First byte of a sparse-f64 payload.
const MARKER_SPARSE_F64: u8 = 0xD5;
/// First byte of a sparse-f32 payload.
const MARKER_SPARSE_F32: u8 = 0xD4;
/// Marker byte + u32 nonzero count.
const SPARSE_HEADER: usize = 5;

/// Converts f64s to raw little-endian bytes (the dense-f64 wire format) via
/// a pre-sized buffer and fixed-width chunk copies.
pub(crate) fn f64s_to_bytes(buf: &[f64]) -> Bytes {
    let mut out = vec![0u8; buf.len() * 8];
    for (dst, v) in out.chunks_exact_mut(8).zip(buf) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
    Bytes::from(out)
}

/// Inverse of [`f64s_to_bytes`], pre-sized.
pub(crate) fn bytes_to_f64s(bytes: &Bytes) -> Vec<f64> {
    let mut out = Vec::with_capacity(bytes.len() / 8);
    out.extend(bytes.chunks_exact(8).map(|ch| f64::from_le_bytes(ch.try_into().expect("8-byte chunk"))));
    out
}

/// Bytes the message carries logically: the decoded f64 width.
pub fn logical_bytes(n_elements: usize) -> u64 {
    (n_elements * 8) as u64
}

/// Encoded size of a sparse-f64 payload with `nnz` nonzero bins.
pub fn sparse_f64_bytes(nnz: usize) -> usize {
    SPARSE_HEADER + 12 * nnz
}

/// Encoded size of a sparse-f32 payload with `nnz` nonzero bins.
pub fn sparse_f32_bytes(nnz: usize) -> usize {
    SPARSE_HEADER + 8 * nnz
}

/// Whether [`WireCodec::Auto`] picks the sparse-f64 layout for a buffer of
/// `len` elements with `nnz` nonzeros: sparse must be strictly smaller.
pub fn sparse_wins(len: usize, nnz: usize) -> bool {
    sparse_f64_bytes(nnz) < len * 8
}

fn count_nonzero(buf: &[f64]) -> usize {
    buf.iter().filter(|v| **v != 0.0).count()
}

fn encode_sparse_f64(buf: &[f64], nnz: usize) -> Bytes {
    let mut out = Vec::with_capacity(sparse_f64_bytes(nnz));
    out.push(MARKER_SPARSE_F64);
    out.extend_from_slice(&(nnz as u32).to_le_bytes());
    for (i, v) in buf.iter().enumerate() {
        if *v != 0.0 {
            out.extend_from_slice(&(i as u32).to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    Bytes::from(out)
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
        WireCodec::Dense => f64s_to_bytes(buf),
        WireCodec::Auto => {
            let nnz = count_nonzero(buf);
            if sparse_wins(buf.len(), nnz) {
                encode_sparse_f64(buf, nnz)
            } else {
                f64s_to_bytes(buf)
            }
        }
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

enum Payload<'a> {
    DenseF64(&'a [u8]),
    DenseF32(&'a [u8]),
    /// `(index, value)` pair bytes; values are f64 or f32 wide.
    SparseF64(&'a [u8]),
    SparseF32(&'a [u8]),
}

/// A payload that does not decode into its target: a length that fits no
/// layout for the target's element count, an unknown sparse marker, or a
/// sparse index past the end. The collectives report it as
/// [`crate::CommError::Malformed`] from the rank that sent it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed;

/// Classifies a payload for a decode target of `n` elements.
fn classify(bytes: &Bytes, n: usize) -> Result<Payload<'_>, Malformed> {
    if bytes.len() % 2 == 1 {
        let header = bytes.get(1..SPARSE_HEADER).ok_or(Malformed)?;
        let nnz = u32::from_le_bytes(header.try_into().expect("4-byte header")) as usize;
        let body = &bytes[SPARSE_HEADER..];
        return match bytes[0] {
            MARKER_SPARSE_F64 if body.len() == 12 * nnz => Ok(Payload::SparseF64(body)),
            MARKER_SPARSE_F32 if body.len() == 8 * nnz => Ok(Payload::SparseF32(body)),
            _ => Err(Malformed),
        };
    }
    if bytes.len() == n * 8 {
        Ok(Payload::DenseF64(bytes))
    } else if n > 0 && bytes.len() == n * 4 {
        Ok(Payload::DenseF32(bytes))
    } else {
        Err(Malformed)
    }
}

fn for_each_sparse_f64(
    body: &[u8],
    n: usize,
    mut f: impl FnMut(usize, f64),
) -> Result<(), Malformed> {
    for pair in body.chunks_exact(12) {
        let idx = u32::from_le_bytes(pair[..4].try_into().expect("4-byte index")) as usize;
        if idx >= n {
            return Err(Malformed);
        }
        f(idx, f64::from_le_bytes(pair[4..].try_into().expect("8-byte value")));
    }
    Ok(())
}

fn for_each_sparse_f32(
    body: &[u8],
    n: usize,
    mut f: impl FnMut(usize, f64),
) -> Result<(), Malformed> {
    for pair in body.chunks_exact(8) {
        let idx = u32::from_le_bytes(pair[..4].try_into().expect("4-byte index")) as usize;
        if idx >= n {
            return Err(Malformed);
        }
        f(idx, f64::from(f32::from_le_bytes(pair[4..].try_into().expect("4-byte value"))));
    }
    Ok(())
}

/// Decodes `bytes` and accumulates (`+=`) into `out`, element-wise. Sparse
/// payloads touch only their nonzero indices, which is bit-identical to the
/// dense add because histogram buffers never hold `-0.0`.
pub fn decode_add(bytes: &Bytes, out: &mut [f64]) -> Result<(), Malformed> {
    match classify(bytes, out.len())? {
        Payload::DenseF64(body) => {
            for (a, ch) in out.iter_mut().zip(body.chunks_exact(8)) {
                *a += f64::from_le_bytes(ch.try_into().expect("8-byte chunk"));
            }
            Ok(())
        }
        Payload::DenseF32(body) => {
            for (a, ch) in out.iter_mut().zip(body.chunks_exact(4)) {
                *a += f64::from(f32::from_le_bytes(ch.try_into().expect("4-byte chunk")));
            }
            Ok(())
        }
        Payload::SparseF64(body) => for_each_sparse_f64(body, out.len(), |i, v| out[i] += v),
        Payload::SparseF32(body) => for_each_sparse_f32(body, out.len(), |i, v| out[i] += v),
    }
}

/// Decodes `bytes` into `out`, overwriting it completely (absent sparse
/// indices become `0.0`).
pub fn decode_into(bytes: &Bytes, out: &mut [f64]) -> Result<(), Malformed> {
    match classify(bytes, out.len())? {
        Payload::DenseF64(body) => {
            for (a, ch) in out.iter_mut().zip(body.chunks_exact(8)) {
                *a = f64::from_le_bytes(ch.try_into().expect("8-byte chunk"));
            }
            Ok(())
        }
        Payload::DenseF32(body) => {
            for (a, ch) in out.iter_mut().zip(body.chunks_exact(4)) {
                *a = f64::from(f32::from_le_bytes(ch.try_into().expect("4-byte chunk")));
            }
            Ok(())
        }
        Payload::SparseF64(body) => {
            out.fill(0.0);
            for_each_sparse_f64(body, out.len(), |i, v| out[i] = v)
        }
        Payload::SparseF32(body) => {
            out.fill(0.0);
            for_each_sparse_f32(body, out.len(), |i, v| out[i] = v)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn roundtrip(codec: WireCodec, buf: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; buf.len()];
        decode_into(&encode(codec, buf), &mut out).unwrap();
        out
    }

    #[test]
    fn lossless_codecs_roundtrip_exactly() {
        let buf = vec![0.0, 1.5, 0.0, 0.0, -2.25, 1e300, 0.0, f64::MIN_POSITIVE];
        for codec in [WireCodec::Dense, WireCodec::Auto] {
            assert_eq!(roundtrip(codec, &buf), buf, "{codec}");
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
            let mut out: Vec<f64> = vec![];
            decode_into(&payload, &mut out).unwrap();
            decode_add(&payload, &mut out).unwrap();
        }
    }

    #[test]
    fn auto_picks_the_smaller_layout() {
        // All-zero: sparse header only (5 bytes) beats 8·n.
        let zeros = vec![0.0; 16];
        assert_eq!(encode(WireCodec::Auto, &zeros).len(), sparse_f64_bytes(0));
        // Fully dense: raw f64s win.
        let dense: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(encode(WireCodec::Auto, &dense).len(), 16 * 8);
        // Auto is never larger than both fixed layouts.
        for nnz in 0..=16usize {
            let mut buf = vec![0.0; 16];
            for slot in buf.iter_mut().take(nnz) {
                *slot = 3.0;
            }
            let auto = encode(WireCodec::Auto, &buf).len();
            assert_eq!(auto, (16 * 8).min(sparse_f64_bytes(nnz)), "nnz={nnz}");
        }
    }

    #[test]
    fn break_even_matches_formula() {
        // 5 + 12·nnz < 8·n ⇔ nnz < (8n − 5) / 12.
        let n = 24;
        for nnz in 0..=n {
            assert_eq!(sparse_wins(n, nnz), 12 * nnz + 5 < 8 * n);
        }
    }

    #[test]
    fn sparse_payloads_have_odd_length_dense_even() {
        let buf = vec![1.0, 0.0, 2.0, 0.0, 0.0, 0.0];
        assert_eq!(encode(WireCodec::Dense, &buf).len() % 2, 0);
        assert_eq!(encode(WireCodec::Auto, &buf).len() % 2, 1);
        assert_eq!(encode(WireCodec::F32, &buf).len() % 2, 1);
        let densebuf = vec![1.0; 6];
        assert_eq!(encode(WireCodec::F32, &densebuf).len() % 2, 0);
    }

    #[test]
    fn decode_add_accumulates() {
        let buf = vec![0.0, 2.0, 0.0, -1.0];
        for codec in [WireCodec::Dense, WireCodec::Auto] {
            let mut acc = vec![10.0, 10.0, 10.0, 10.0];
            decode_add(&encode(codec, &buf), &mut acc).unwrap();
            assert_eq!(acc, vec![10.0, 12.0, 10.0, 9.0], "{codec}");
        }
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let payload = encode(WireCodec::Dense, &[1.0, 2.0]);
        let mut out = vec![0.0; 3];
        assert_eq!(decode_into(&payload, &mut out), Err(Malformed));
        assert_eq!(decode_add(&payload, &mut out), Err(Malformed));
        // A sparse header cut short, an unknown marker, a pair count the
        // body does not hold, and an index past the target.
        let sparse = encode(WireCodec::Auto, &[0.0, 0.0, 4.0, 0.0]);
        let mut bad_marker = sparse.to_vec();
        bad_marker[0] = 0x11;
        let mut bad_index = sparse.to_vec();
        bad_index[5..9].copy_from_slice(&9u32.to_le_bytes());
        for bytes in [
            Bytes::from_static(&[MARKER_SPARSE_F64, 0, 0]),
            Bytes::from(bad_marker),
            sparse.slice(..sparse.len() - 2),
            Bytes::from(bad_index),
        ] {
            assert_eq!(decode_into(&bytes, &mut [0.0; 4]), Err(Malformed), "{bytes:?}");
        }
    }

    #[test]
    fn bulk_f64_helpers_roundtrip() {
        let buf: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.5 - 10.0).collect();
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&buf)), buf);
        assert_eq!(f64s_to_bytes(&[]).len(), 0);
    }
}
