//! Hostile bytes for the vertical partition's two broadcasts: the column
//! grouping the master sends before the transformation
//! (`ColumnGrouping::decode_bytes`) and the instance placement a split
//! feature's owner sends after every split (`PlacementBitmap::decode_bytes`).
//! Every truncation of an encoding is `None`, and every single-byte flip is
//! `None` or a value that encodes back to exactly the flipped bytes — never
//! a panic, and never a value the sender could not have sent.

use gbdt_partition::{ColumnGrouping, GroupingStrategy, PlacementBitmap};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The byte masks every position is flipped with: the seeded one and the
/// lowest, highest and all bits.
fn masks(flip: u8) -> [u8; 4] {
    [flip, 0x01, 0x80, 0xff]
}

/// Checks `decode` against every truncation and single-byte flip of
/// `bytes`, which it must decode to something that encodes back to `bytes`.
fn sweep<T: PartialEq + std::fmt::Debug>(
    bytes: &[u8],
    flip: u8,
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> Result<(), TestCaseError> {
    let whole = decode(bytes);
    prop_assert!(whole.as_ref().map(&encode).as_deref() == Some(bytes), "a sound encoding");
    for cut in 0..bytes.len() {
        prop_assert!(decode(&bytes[..cut]).is_none(), "cut at {}", cut);
    }
    for at in 0..bytes.len() {
        for mask in masks(flip) {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= mask;
            if let Some(value) = decode(&flipped) {
                prop_assert_eq!(encode(&value), flipped, "byte {} ^ {:#x}", at, mask);
            }
        }
    }
    Ok(())
}

const STRATEGIES: [GroupingStrategy; 4] = [
    GroupingStrategy::RoundRobin,
    GroupingStrategy::Hash,
    GroupingStrategy::Range,
    GroupingStrategy::GreedyBalanced,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hostile_grouping_bytes_are_none_or_canonical(
        weights in prop::collection::vec(0u64..1000, 0..40),
        world in 1usize..6,
        strategy in 0usize..4,
        flip in 1u8..=255,
    ) {
        let grouping = ColumnGrouping::build(STRATEGIES[strategy], weights.len(), world, &weights);
        sweep(
            &grouping.encode_bytes(),
            flip,
            |b| ColumnGrouping::decode_bytes(b, world),
            ColumnGrouping::encode_bytes,
        )?;
        // Another world than the one it was sent for is never accepted.
        prop_assert!(ColumnGrouping::decode_bytes(&grouping.encode_bytes(), world + 1).is_none());
    }

    #[test]
    fn hostile_bitmap_bytes_are_none_or_canonical(
        left in prop::collection::vec(any::<bool>(), 0..200),
        flip in 1u8..=255,
    ) {
        let bitmap = PlacementBitmap::from_predicate(left.len(), |i| left[i]);
        let bytes = bitmap.encode_bytes();
        sweep(&bytes, flip, PlacementBitmap::decode_bytes, PlacementBitmap::encode_bytes)?;
    }
}
