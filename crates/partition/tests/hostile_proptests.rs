//! Hostile bytes for the vertical partition's two broadcasts: the column
//! grouping the master sends before the transformation
//! (`ColumnGrouping::decode_bytes`) and the instance placement a split
//! feature's owner sends after every split (`PlacementBitmap::decode_bytes`).
//! Every truncation of an encoding is refused, and every single-byte flip is
//! refused or a value that encodes back to exactly the flipped bytes — never
//! a panic, and never a value the sender could not have sent.

use gbdt_data::hostile;
use gbdt_partition::{ColumnGrouping, GroupingStrategy, PlacementBitmap};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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
        hostile::sweep(
            &grouping.encode_bytes(),
            flip,
            |b| ColumnGrouping::decode_bytes(b, world),
            ColumnGrouping::encode_bytes,
        )
        .map_err(TestCaseError::fail)?;
        // Another world than the one it was sent for is never accepted.
        prop_assert!(ColumnGrouping::decode_bytes(&grouping.encode_bytes(), world + 1).is_err());
    }

    #[test]
    fn hostile_bitmap_bytes_are_none_or_canonical(
        left in prop::collection::vec(any::<bool>(), 0..200),
        flip in 1u8..=255,
    ) {
        let bitmap = PlacementBitmap::from_predicate(left.len(), |i| left[i]);
        let bytes = bitmap.encode_bytes();
        hostile::sweep(&bytes, flip, PlacementBitmap::decode_bytes, PlacementBitmap::encode_bytes)
            .map_err(TestCaseError::fail)?;
    }
}
