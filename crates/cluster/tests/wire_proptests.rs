//! Property-based round-trips and hostile bytes for the histogram wire
//! codecs (DESIGN.md §4.7).
//!
//! Buffers come in two shapes: histogram-shaped — `(g, h)` pairs per bin on
//! a power-of-two grid, with a random fraction of completely empty bins, the
//! zero patterns the trainers actually produce — and arbitrary bit patterns
//! (-0.0, NaN payloads, ±inf, subnormals, exponents far apart), which the
//! lossless codec must carry bit-exactly too.

use bytes::Bytes;
use gbdt_cluster::wire::{self, WireCodec};
use gbdt_data::frame::DecodeError;
use gbdt_data::hostile;
use proptest::prelude::*;

/// Histogram-shaped buffers: bins of `(g, h)` pairs on a `2^-shift` grid,
/// ~half of them empty.
fn histogram_buffer() -> impl Strategy<Value = Vec<f64>> {
    let bins = prop::collection::vec(prop::option::of((-1e6f64..1e6, 0.0f64..1e3)), 0..96);
    (bins, 0i32..40).prop_map(|(bins, shift)| {
        let unit = f64::from_bits(((1023 - shift) as u64) << 52);
        let mut buf = Vec::with_capacity(bins.len() * 2);
        for bin in bins {
            let (g, h) = bin.unwrap_or((0.0, 0.0));
            buf.push((g / unit).round() * unit + 0.0);
            buf.push((h / unit).round() * unit + 0.0);
        }
        buf
    })
}

/// Arbitrary bit patterns, weighted towards the values the grid frame must
/// refuse or stretch for: zeros of both signs, NaN payloads, infinities,
/// subnormals, and exponents anywhere in the f64 range.
fn bit_pattern_buffer() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((any::<u64>(), 0u8..8), 0..64).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(bits, kind)| {
                let sign = bits & (1 << 63);
                let fraction = bits & ((1 << 52) - 1);
                let exponent = (bits >> 52) & 0x7ff;
                f64::from_bits(match kind {
                    0 => bits,
                    1 | 2 => 0,
                    3 => sign,                                  // ±0.0
                    4 => sign | (0x7ff << 52) | (fraction | 1), // NaN, any payload
                    5 => sign | (0x7ff << 52),                  // ±inf
                    6 => sign | fraction,                       // subnormal (or ±0.0)
                    _ => sign | (exponent.clamp(1, 0x7fe) << 52) | (fraction & !0xffff), // normal, short mantissa
                })
            })
            .collect()
    })
}

fn bits(buf: &[f64]) -> Vec<u64> {
    buf.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lossless codec reproduces the exact input bits of a histogram.
    #[test]
    fn grid_roundtrips_histograms(buf in histogram_buffer()) {
        let mut out = vec![1.0; buf.len()]; // nonzero garbage must be overwritten
        wire::decode_into(&wire::encode(WireCodec::Grid, &buf), &mut out)
            .expect("an encoded payload decodes");
        prop_assert_eq!(bits(&out), bits(&buf));
    }

    /// ...and of any bit pattern at all.
    #[test]
    fn grid_roundtrips_any_bit_pattern(buf in bit_pattern_buffer()) {
        let mut out = vec![1.0; buf.len()];
        wire::decode_into(&wire::encode(WireCodec::Grid, &buf), &mut out)
            .expect("an encoded payload decodes");
        prop_assert_eq!(bits(&out), bits(&buf));
    }

    /// The f32 codec quantizes each value through f32 and nothing else.
    #[test]
    fn f32_codec_roundtrips_to_f32_precision(buf in histogram_buffer()) {
        let mut out = vec![0.0; buf.len()];
        wire::decode_into(&wire::encode(WireCodec::F32, &buf), &mut out)
            .expect("an encoded payload decodes");
        let expected: Vec<f64> = buf.iter().map(|v| f64::from(*v as f32)).collect();
        prop_assert_eq!(out, expected);
    }

    /// Grid decode-add (absent cells add as `+0.0`) matches the raw
    /// element-wise add bit for bit, whatever the target holds.
    #[test]
    fn decode_add_matches_the_raw_add(buf in histogram_buffer(), base in bit_pattern_buffer()) {
        let base: Vec<f64> = (0..buf.len()).map(|i| base.get(i).copied().unwrap_or(-0.0)).collect();
        let reference: Vec<f64> = base.iter().zip(&buf).map(|(b, v)| b + v).collect();
        let mut acc = base.clone();
        wire::decode_add(&wire::encode(WireCodec::Grid, &buf), &mut acc)
            .expect("an encoded payload decodes");
        prop_assert_eq!(bits(&acc), bits(&reference));
    }

    /// The grid frame is never larger than the raw layout, and never takes
    /// the raw or dense-f32 length.
    #[test]
    fn grid_is_never_larger_than_raw(buf in histogram_buffer()) {
        let n = buf.len();
        let len = wire::encode(WireCodec::Grid, &buf).len();
        prop_assert!(len <= 8 * n, "{} > {}", len, 8 * n);
        prop_assert!(len == 8 * n || len != 4 * n, "a grid frame of 4n = {} bytes", len);
    }

    /// Every truncation and every single-byte flip of a grid frame either
    /// decodes or is refused — never a panic.
    #[test]
    fn hostile_grid_bytes_decode_or_are_malformed(buf in histogram_buffer(), flip in 1u8..=255) {
        let frame = wire::encode(WireCodec::Grid, &buf).to_vec();
        let n = buf.len();
        let mut out = vec![0.0; n];
        let mut decoded = |bytes: Vec<u8>| -> Result<(), DecodeError> {
            let bytes = Bytes::from(bytes);
            let into = wire::decode_into(&bytes, &mut out);
            let add = wire::decode_add(&bytes, &mut out);
            assert_eq!(into, add, "decode_into and decode_add disagree on validity");
            into
        };
        for variant in hostile::variants(&frame, flip) {
            let _ = decoded(variant);
        }
        prop_assert_eq!(decoded(frame), Ok(()));
    }
}

/// Deterministic edge shapes: empty, all-zero, single-nonzero, fully dense,
/// and a multi-class histogram (C = 3 widens the per-bin stride).
#[test]
fn edge_case_buffers_roundtrip_under_every_codec() {
    let single_nonzero = {
        let mut v = vec![0.0; 41];
        v[17] = 3.5;
        v
    };
    let multiclass: Vec<f64> = (0..3 * 4 * 3 * 2)
        .map(|i| if i % 5 == 0 { 0.0 } else { (i as f64) * 0.25 - 8.0 })
        .collect();
    let cases: Vec<Vec<f64>> = vec![
        vec![],
        vec![0.0; 40],
        single_nonzero,
        (1..=40).map(f64::from).collect(),
        multiclass,
    ];
    for buf in &cases {
        let mut out = vec![1.0; buf.len()]; // nonzero garbage must be overwritten
        wire::decode_into(&wire::encode(WireCodec::Grid, buf), &mut out)
            .expect("an encoded payload decodes");
        assert_eq!(bits(&out), bits(buf), "grid len={}", buf.len());
        let mut out = vec![1.0; buf.len()];
        wire::decode_into(&wire::encode(WireCodec::F32, buf), &mut out)
            .expect("an encoded payload decodes");
        let expected: Vec<f64> = buf.iter().map(|v| f64::from(*v as f32)).collect();
        assert_eq!(out, expected, "f32 len={}", buf.len());
    }
}
