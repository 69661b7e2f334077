//! Property-based round-trips of the histogram wire codecs (DESIGN.md §4.7).
//!
//! Buffers are shaped like real gradient histograms — `(g, h)` pairs per
//! bin, with a random fraction of completely empty bins — so the sparse
//! encoder sees the zero patterns the trainers actually produce.

use gbdt_cluster::wire::{self, WireCodec};
use proptest::prelude::*;

/// Histogram-shaped buffers: bins of `(g, h)` pairs, ~half of them empty.
fn histogram_buffer() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(prop::option::of((-1e6f64..1e6, 0.0f64..1e3)), 0..96).prop_map(
        |bins| {
            let mut buf = Vec::with_capacity(bins.len() * 2);
            for bin in bins {
                let (g, h) = bin.unwrap_or((0.0, 0.0));
                buf.push(g);
                buf.push(h);
            }
            buf
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every lossless codec must reproduce the exact input.
    #[test]
    fn lossless_codecs_roundtrip(buf in histogram_buffer()) {
        for codec in [WireCodec::Dense, WireCodec::Auto] {
            let mut out = vec![0.0; buf.len()];
            wire::decode_into(&wire::encode(codec, &buf), &mut out)
                .expect("an encoded payload decodes");
            prop_assert_eq!(&out, &buf, "{}", codec);
        }
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

    /// Sparse decode-add (which skips empty bins) must match the dense
    /// element-wise add bit for bit.
    #[test]
    fn decode_add_matches_dense_add(buf in histogram_buffer(), base in -1e3f64..1e3) {
        let reference: Vec<f64> = buf.iter().map(|v| base + v).collect();
        let mut acc = vec![base; buf.len()];
        wire::decode_add(&wire::encode(WireCodec::Auto, &buf), &mut acc)
            .expect("an encoded payload decodes");
        prop_assert_eq!(&acc, &reference);
    }

    /// Auto always ships the smaller of the two lossless layouts: `8·n`
    /// dense bytes, or the documented sparse size `5 + 12·nnz`.
    #[test]
    fn auto_is_the_minimum_of_both_layouts(buf in histogram_buffer()) {
        let auto = wire::encode(WireCodec::Auto, &buf).len();
        let dense = wire::encode(WireCodec::Dense, &buf).len();
        let nnz = buf.iter().filter(|v| **v != 0.0).count();
        prop_assert_eq!(auto, dense.min(5 + 12 * nnz));
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
        for codec in [WireCodec::Dense, WireCodec::Auto] {
            let mut out = vec![1.0; buf.len()]; // nonzero garbage must be overwritten
            wire::decode_into(&wire::encode(codec, buf), &mut out)
                .expect("an encoded payload decodes");
            assert_eq!(&out, buf, "{codec} len={}", buf.len());
        }
        let mut out = vec![1.0; buf.len()];
        wire::decode_into(&wire::encode(WireCodec::F32, buf), &mut out)
            .expect("an encoded payload decodes");
        let expected: Vec<f64> = buf.iter().map(|v| f64::from(*v as f32)).collect();
        assert_eq!(out, expected, "f32 len={}", buf.len());
    }
}
