//! Vertical (column) partitioning: assigning features to column groups.
//!
//! The paper lists round-robin, hash-based, and range-based grouping and
//! observes that none guarantee load balance; Vero balances the number of
//! key-value pairs per group with a greedy assignment over per-feature
//! occurrence counts taken from the global quantile sketches (§4.2.3).

use crate::balance::greedy_partition;
use gbdt_data::frame::{DecodeError, Reader};
use gbdt_data::FeatureId;
use serde::{Deserialize, Serialize};

/// Column grouping strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupingStrategy {
    /// Feature `f` goes to group `f mod W`.
    RoundRobin,
    /// Feature `f` goes to group `hash(f) mod W`.
    Hash,
    /// Contiguous feature ranges of equal width.
    Range,
    /// Greedy balance over per-feature key-value counts (Vero's default).
    GreedyBalanced,
}

/// A complete assignment of D features to W column groups, with local-id
/// renumbering (paper §4.2.1 step 3: "for each feature, we assign a new
/// feature id starting from 0 inside the column group").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnGrouping {
    /// `assignment[f]` — group (worker) owning global feature `f`.
    assignment: Vec<u32>,
    /// `local_ids[f]` — the feature's id inside its group.
    local_ids: Vec<u32>,
    /// `groups[w]` — global feature ids owned by group `w`, ascending; the
    /// position of a feature in this list is its local id.
    groups: Vec<Vec<FeatureId>>,
}

fn fnv1a(x: u32) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl ColumnGrouping {
    /// Builds a grouping of `n_features` features into `world` groups.
    ///
    /// `weights[f]` is the number of stored key-value pairs of feature `f`
    /// (only used by [`GroupingStrategy::GreedyBalanced`]).
    pub fn build(
        strategy: GroupingStrategy,
        n_features: usize,
        world: usize,
        weights: &[u64],
    ) -> Self {
        assert!(world >= 1, "need at least one group");
        let assignment: Vec<u32> = match strategy {
            GroupingStrategy::RoundRobin => {
                (0..n_features).map(|f| (f % world) as u32).collect()
            }
            GroupingStrategy::Hash => {
                (0..n_features).map(|f| (fnv1a(f as u32) % world as u64) as u32).collect()
            }
            GroupingStrategy::Range => {
                let p = crate::horizontal::HorizontalPartition::new(n_features, world);
                (0..n_features).map(|f| p.owner_of(f) as u32).collect()
            }
            GroupingStrategy::GreedyBalanced => {
                assert_eq!(weights.len(), n_features, "need one weight per feature");
                greedy_partition(weights, world).into_iter().map(|g| g as u32).collect()
            }
        };
        Self::from_assignment(assignment, world)
    }

    /// Builds the grouping directly from a per-feature group assignment.
    pub fn from_assignment(assignment: Vec<u32>, world: usize) -> Self {
        let mut groups: Vec<Vec<FeatureId>> = vec![Vec::new(); world];
        let mut local_ids = vec![0u32; assignment.len()];
        for (f, &g) in assignment.iter().enumerate() {
            assert!((g as usize) < world, "group {g} out of range");
            local_ids[f] = groups[g as usize].len() as u32;
            groups[g as usize].push(f as FeatureId);
        }
        ColumnGrouping { assignment, local_ids, groups }
    }

    /// Number of global features.
    pub fn n_features(&self) -> usize {
        self.assignment.len()
    }

    /// Number of groups (workers).
    pub fn world(&self) -> usize {
        self.groups.len()
    }

    /// Group owning global feature `f`.
    #[inline]
    pub fn group_of(&self, f: FeatureId) -> usize {
        self.assignment[f as usize] as usize
    }

    /// Group-local id of global feature `f`.
    #[inline]
    pub fn local_id(&self, f: FeatureId) -> u32 {
        self.local_ids[f as usize]
    }

    /// Global feature ids owned by group `w` (position = local id).
    pub fn group_features(&self, w: usize) -> &[FeatureId] {
        &self.groups[w]
    }

    /// Global id of `(group, local id)`.
    #[inline]
    pub fn global_id(&self, w: usize, local: u32) -> FeatureId {
        self.groups[w][local as usize]
    }

    /// Number of features in group `w` (the paper's `p`).
    pub fn group_len(&self, w: usize) -> usize {
        self.groups[w].len()
    }

    /// Exact wire encoding of the assignment (step 3 broadcast).
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.assignment.len() * 4);
        out.extend_from_slice(&(self.world() as u32).to_le_bytes());
        out.extend_from_slice(&(self.assignment.len() as u32).to_le_bytes());
        for &g in &self.assignment {
            out.extend_from_slice(&g.to_le_bytes());
        }
        out
    }

    /// Decodes [`Self::encode_bytes`] output of a grouping into `world`
    /// groups; anything else is refused.
    pub fn decode_bytes(bytes: &[u8], world: usize) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let (encoded_world, d) = (r.u32()? as usize, r.u32()? as usize);
        if world == 0 || encoded_world != world {
            return Err(r.error(format!("a grouping into {encoded_world} groups, not {world}")));
        }
        let assignment: Vec<u32> = r.u32s(d)?.collect();
        r.finish()?;
        if let Some(f) = assignment.iter().position(|&g| g as usize >= world) {
            return Err(r.error(format!("feature {f} in a group past {world}")));
        }
        Ok(Self::from_assignment(assignment, world))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{group_loads, imbalance};

    fn check_bijection(g: &ColumnGrouping) {
        // Every feature appears in exactly one group at its local position.
        let mut seen = vec![false; g.n_features()];
        for w in 0..g.world() {
            for (local, &f) in g.group_features(w).iter().enumerate() {
                assert!(!seen[f as usize], "feature {f} in two groups");
                seen[f as usize] = true;
                assert_eq!(g.group_of(f), w);
                assert_eq!(g.local_id(f), local as u32);
                assert_eq!(g.global_id(w, local as u32), f);
            }
        }
        assert!(seen.iter().all(|&s| s), "some feature unassigned");
    }

    #[test]
    fn round_robin_cycles() {
        let g = ColumnGrouping::build(GroupingStrategy::RoundRobin, 7, 3, &[]);
        assert_eq!(g.group_of(0), 0);
        assert_eq!(g.group_of(4), 1);
        assert_eq!(g.group_of(5), 2);
        check_bijection(&g);
    }

    #[test]
    fn range_is_contiguous() {
        let g = ColumnGrouping::build(GroupingStrategy::Range, 10, 3, &[]);
        check_bijection(&g);
        for w in 0..3 {
            let feats = g.group_features(w);
            for pair in feats.windows(2) {
                assert_eq!(pair[1], pair[0] + 1, "range group not contiguous");
            }
        }
    }

    #[test]
    fn hash_covers_all_groups() {
        let g = ColumnGrouping::build(GroupingStrategy::Hash, 100, 4, &[]);
        check_bijection(&g);
        for w in 0..4 {
            assert!(g.group_len(w) > 0, "hash left group {w} empty");
        }
    }

    #[test]
    fn greedy_balances_skewed_weights() {
        let mut weights = vec![10_000u64, 9_000, 8_000];
        weights.extend(std::iter::repeat_n(100, 97));
        let g = ColumnGrouping::build(GroupingStrategy::GreedyBalanced, 100, 4, &weights);
        check_bijection(&g);
        let assignment: Vec<usize> = (0..100).map(|f| g.group_of(f)).collect();
        let loads = group_loads(&weights, &assignment, 4);
        assert!(imbalance(&loads) < 1.1, "imbalance {}", imbalance(&loads));
        // Round-robin on the same weights is far worse.
        let rr = ColumnGrouping::build(GroupingStrategy::RoundRobin, 100, 4, &[]);
        let rr_assignment: Vec<usize> = (0..100).map(|f| rr.group_of(f)).collect();
        assert!(imbalance(&group_loads(&weights, &rr_assignment, 4)) > 1.2);
    }

    #[test]
    fn wire_roundtrip() {
        let g = ColumnGrouping::build(GroupingStrategy::RoundRobin, 9, 4, &[]);
        let bytes = g.encode_bytes();
        assert_eq!(ColumnGrouping::decode_bytes(&bytes, 4).unwrap(), g);
        assert!(ColumnGrouping::decode_bytes(&bytes[..5], 4).is_err());
        // Corrupt a group id beyond world.
        let mut bad = bytes.clone();
        bad[8] = 200;
        assert!(ColumnGrouping::decode_bytes(&bad, 4).is_err());
        // A header naming another world, the receiver's own or a hostile
        // one that would size a group per claimed worker.
        assert!(ColumnGrouping::decode_bytes(&bytes, 3).is_err());
        let mut hostile = bytes.clone();
        hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ColumnGrouping::decode_bytes(&hostile, 4).is_err());
    }

    #[test]
    fn local_ids_are_dense_and_ascending() {
        let g = ColumnGrouping::build(GroupingStrategy::Hash, 50, 3, &[]);
        for w in 0..3 {
            let feats = g.group_features(w);
            for pair in feats.windows(2) {
                assert!(pair[0] < pair[1], "group features must ascend");
            }
        }
    }
}
