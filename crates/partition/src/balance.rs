//! Greedy multiway number partitioning.
//!
//! Assigning features to W column groups so the per-group key-value counts
//! are "as close as possible" is NP-hard; the paper uses a greedy method
//! (§4.2.3): sort items by descending weight, repeatedly give the next item
//! to the lightest group.

/// Assigns `weights.len()` items to `n_groups` groups; returns the group id
/// of each item. Deterministic: ties (equal weights or equal group loads)
/// break toward the smaller index.
pub fn greedy_partition(weights: &[u64], n_groups: usize) -> Vec<usize> {
    assert!(n_groups >= 1, "need at least one group");
    let mut order: Vec<usize> = (0..weights.len()).collect();
    // Descending weight, ascending index on ties.
    order.sort_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
    let mut loads = vec![0u64; n_groups];
    let mut assignment = vec![0usize; weights.len()];
    for item in order {
        #[expect(clippy::expect_used, reason = "asserted above: n_groups >= 1")]
        let lightest = (0..n_groups).min_by_key(|&g| (loads[g], g)).expect("n_groups >= 1");
        assignment[item] = lightest;
        loads[lightest] += weights[item];
    }
    assignment
}

/// Total weight per group for a given assignment.
pub fn group_loads(weights: &[u64], assignment: &[usize], n_groups: usize) -> Vec<u64> {
    let mut loads = vec![0u64; n_groups];
    for (item, &g) in assignment.iter().enumerate() {
        loads[g] += weights[item];
    }
    loads
}

/// Load imbalance ratio: `max_load / mean_load` (1.0 = perfect balance).
pub fn imbalance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if total == 0 || loads.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_items_are_assigned() {
        let weights = [5, 3, 8, 1, 9, 2];
        let asg = greedy_partition(&weights, 3);
        assert_eq!(asg.len(), 6);
        assert!(asg.iter().all(|&g| g < 3));
    }

    #[test]
    fn balances_known_instance() {
        // Classic: {9, 8, 5, 3, 2, 1} into 2 groups -> loads {14, 14}.
        let weights = [5, 3, 8, 1, 9, 2];
        let asg = greedy_partition(&weights, 2);
        let loads = group_loads(&weights, &asg, 2);
        assert_eq!(loads.iter().sum::<u64>(), 28);
        assert_eq!(*loads.iter().max().unwrap(), 14);
        assert!((imbalance(&loads) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn beats_round_robin_on_skewed_weights() {
        // One heavy feature plus many light ones — the situation the paper's
        // load-balance concern describes.
        let mut weights = vec![1_000u64];
        weights.extend(std::iter::repeat_n(10, 99));
        let greedy = greedy_partition(&weights, 4);
        let greedy_imb = imbalance(&group_loads(&weights, &greedy, 4));
        let rr: Vec<usize> = (0..weights.len()).map(|i| i % 4).collect();
        let rr_imb = imbalance(&group_loads(&weights, &rr, 4));
        assert!(greedy_imb < rr_imb, "greedy {greedy_imb} vs rr {rr_imb}");
    }

    #[test]
    fn deterministic_under_ties() {
        let weights = [4, 4, 4, 4];
        assert_eq!(greedy_partition(&weights, 2), greedy_partition(&weights, 2));
        assert_eq!(greedy_partition(&weights, 2), vec![0, 1, 0, 1]);
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(greedy_partition(&[], 3), Vec::<usize>::new());
        assert_eq!(greedy_partition(&[7], 3), vec![0]);
        let asg = greedy_partition(&[1, 2, 3], 1);
        assert_eq!(asg, vec![0, 0, 0]);
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
    }
}
