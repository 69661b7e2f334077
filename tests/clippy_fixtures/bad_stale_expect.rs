// Known-bad (`stale-pragma`): an exemption that suppresses nothing fails
// the build, so an allowlist cannot outlive the code it once excused.

/// Fully deterministic: iterates a slice, not a hash map.
#[expect(
    clippy::iter_over_hash_type, //~ unfulfilled_lint_expectations
    reason = "stale: the HashMap this excused is long gone"
)]
pub fn total(values: &[f64]) -> f64 {
    let mut sum = 0.0;
    for v in values {
        sum += *v;
    }
    sum
}

/// A clock read that moved out of this function leaves its exemption stale.
#[expect(clippy::disallowed_methods, reason = "stale: times nothing")] //~ unfulfilled_lint_expectations
pub fn count(values: &[f64]) -> usize {
    values.len()
}
