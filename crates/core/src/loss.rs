//! Second-order training objectives.
//!
//! GBDT optimizes a second-order Taylor expansion of the loss (§2.1.1), so
//! each objective must provide first- and second-order gradients `gᵢ, hᵢ`
//! per instance (and per class for multi-class softmax, where the gradient
//! is "a vector of partial derivatives on all classes", §3.1.1).
//!
//! Every `g` and `h` is rounded onto one power-of-two [`GradGrid`] here, and
//! nowhere else, so every sum a training run forms is exact and has the same
//! bits in any order (DESIGN.md item 6).

use crate::gradients::GradBuffer;
use serde::{Deserialize, Serialize};

/// Training objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Squared-error regression: `l(y, ŷ) = (y − ŷ)² / 2`.
    SquaredError,
    /// Binary logistic loss on a single raw score.
    Logistic,
    /// Multi-class softmax cross-entropy over `n_classes` raw scores.
    Softmax {
        /// Number of classes C (≥ 2 meaningful, ≥ 3 typical).
        n_classes: usize,
    },
}

impl Objective {
    /// C — number of raw scores per instance (1 except for softmax).
    pub fn n_outputs(&self) -> usize {
        match self {
            Objective::SquaredError | Objective::Logistic => 1,
            Objective::Softmax { n_classes } => *n_classes,
        }
    }

    /// Constant initial raw score(s) before any tree is added.
    pub fn init_scores(&self) -> Vec<f64> {
        vec![0.0; self.n_outputs()]
    }

    /// The grid for gradients summed over the N rows of `labels`, whose raw
    /// scores are at most `score_bound` in magnitude. The bound B on every
    /// |g| and h is 1 for logistic (|g| ≤ 1, h ≤ ¼) and softmax (h ≤ ½), and
    /// max |label| + `score_bound` for squared error (h = 1).
    pub fn grid(&self, labels: &[f32], score_bound: f64) -> GradGrid {
        let bound = match self {
            Objective::SquaredError => {
                labels.iter().fold(score_bound, |m, &y| m.max(score_bound + f64::from(y).abs()))
            }
            Objective::Logistic | Objective::Softmax { .. } => 1.0,
        };
        GradGrid::new(labels.len(), bound)
    }

    /// [`Self::compute_gradients_on`] the grid of these rows alone, bounded
    /// by their own scores (a caller with every row and no model).
    pub fn compute_gradients(&self, scores: &[f64], labels: &[f32], out: &mut GradBuffer) {
        let grid = self.grid(labels, scores.iter().fold(0.0, |m: f64, s| m.max(s.abs())));
        self.compute_gradients_on(grid, scores, labels, out)
    }

    /// Fills `out` with the gradient pairs of every instance given the
    /// current raw scores, each rounded onto `grid`; a hessian is at least
    /// one grid unit, so no node's H is 0.
    ///
    /// `scores` is row-major `[instance][class]` with `n_outputs()` scores
    /// per instance; `labels` holds the regression target or the class id.
    pub fn compute_gradients_on(
        &self,
        grid: GradGrid,
        scores: &[f64],
        labels: &[f32],
        out: &mut GradBuffer,
    ) {
        let c = self.n_outputs();
        let n = labels.len();
        assert_eq!(scores.len(), n * c, "scores shape mismatch");
        assert_eq!(out.n_instances(), n, "gradient buffer shape mismatch");
        assert_eq!(out.n_outputs(), c, "gradient buffer class mismatch");
        match self {
            Objective::SquaredError => {
                for i in 0..n {
                    let g = scores[i] - f64::from(labels[i]);
                    out.set(i, 0, grid.round(g), grid.hessian(1.0));
                }
            }
            Objective::Logistic => {
                for i in 0..n {
                    let p = sigmoid(scores[i]);
                    let g = p - f64::from(labels[i]);
                    out.set(i, 0, grid.round(g), grid.hessian(p * (1.0 - p)));
                }
            }
            Objective::Softmax { n_classes } => {
                let mut probs = vec![0f64; *n_classes];
                for i in 0..n {
                    softmax_into(&scores[i * c..(i + 1) * c], &mut probs);
                    let label = labels[i] as usize;
                    for (k, &p) in probs.iter().enumerate() {
                        let y = if k == label { 1.0 } else { 0.0 };
                        let h = grid.hessian(2.0 * p * (1.0 - p));
                        out.set(i, k, grid.round(p - y), h);
                    }
                }
            }
        }
    }

    /// Transforms raw scores into predictions (probabilities for
    /// classification, identity for regression). `scores` is one instance's
    /// `n_outputs()` raw scores.
    pub fn transform(&self, scores: &[f64]) -> Vec<f64> {
        match self {
            Objective::SquaredError => scores.to_vec(),
            Objective::Logistic => vec![sigmoid(scores[0])],
            Objective::Softmax { n_classes } => {
                let mut probs = vec![0f64; *n_classes];
                softmax_into(scores, &mut probs);
                probs
            }
        }
    }

    /// Mean loss of raw scores against labels (for convergence reporting).
    pub fn mean_loss(&self, scores: &[f64], labels: &[f32]) -> f64 {
        let c = self.n_outputs();
        let n = labels.len();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        match self {
            Objective::SquaredError => {
                for i in 0..n {
                    let d = scores[i] - f64::from(labels[i]);
                    total += 0.5 * d * d;
                }
            }
            Objective::Logistic => {
                for i in 0..n {
                    let p = sigmoid(scores[i]).clamp(1e-15, 1.0 - 1e-15);
                    let y = f64::from(labels[i]);
                    total -= y * p.ln() + (1.0 - y) * (1.0 - p).ln();
                }
            }
            Objective::Softmax { n_classes } => {
                let mut probs = vec![0f64; *n_classes];
                for i in 0..n {
                    softmax_into(&scores[i * c..(i + 1) * c], &mut probs);
                    let p = probs[labels[i] as usize].clamp(1e-15, 1.0);
                    total -= p.ln();
                }
            }
        }
        total / n as f64
    }
}

/// The power-of-two grid `2^-s = N'·B' / 2^51` that gradients are rounded
/// onto, with N' and B' ≥ 1 the powers of two at or above the row count N
/// and the bound B on every |g| and h. A sum of up to N grid values is a
/// whole number of units below 2^51, inside f64's exact integers, so it is
/// exact in any order, bracketing or worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradGrid {
    unit: f64,
}

impl GradGrid {
    /// The grid for sums of `n_rows` values of magnitude at most `bound`.
    pub fn new(n_rows: usize, bound: f64) -> GradGrid {
        assert!(bound.is_finite(), "gradient bound {bound} is not finite");
        let mut b = 1.0;
        while b < bound {
            b *= 2.0;
        }
        GradGrid { unit: n_rows.max(1).next_power_of_two() as f64 * b / 2f64.powi(51) }
    }

    /// One grid unit, `2^-s`.
    pub fn unit(self) -> f64 {
        self.unit
    }

    /// `x` rounded to the nearest grid point, ties to even, for |x| ≤ 2^51
    /// units (so every |x| ≤ B'): the ulp of `1.5·2^52` units is one unit.
    /// Never −0.0, because `y − y` is +0.0.
    #[inline]
    pub fn round(self, x: f64) -> f64 {
        let shift = (3u64 << 51) as f64 * self.unit;
        (x + shift) - shift
    }

    /// A hessian on the grid, at least one unit.
    #[inline]
    pub fn hessian(self, h: f64) -> f64 {
        self.round(h).max(self.unit)
    }
}

/// Numerically stable logistic function.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softmax into a preallocated buffer.
#[inline]
pub fn softmax_into(scores: &[f64], out: &mut [f64]) {
    debug_assert_eq!(scores.len(), out.len());
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for (o, &s) in out.iter_mut().zip(scores) {
        *o = (s - max).exp();
        sum += *o;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-800.0) >= 0.0); // no underflow panic
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut out = [0.0; 3];
        softmax_into(&[1.0, 2.0, 3.0], &mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(out[2] > out[1] && out[1] > out[0]);
        // Large values do not overflow.
        softmax_into(&[1000.0, 999.0, 0.0], &mut out);
        assert!(out[0] > out[1] && out.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn squared_error_gradients() {
        let obj = Objective::SquaredError;
        let mut buf = GradBuffer::new(2, 1);
        obj.compute_gradients(&[3.0, -1.0], &[1.0, 2.0], &mut buf);
        assert_eq!(buf.get(0, 0).grad, 2.0);
        assert_eq!(buf.get(0, 0).hess, 1.0);
        assert_eq!(buf.get(1, 0).grad, -3.0);
    }

    #[test]
    fn logistic_gradients_point_toward_label() {
        let obj = Objective::Logistic;
        let mut buf = GradBuffer::new(2, 1);
        obj.compute_gradients(&[0.0, 0.0], &[1.0, 0.0], &mut buf);
        // Positive label: gradient negative (score should rise).
        assert!(buf.get(0, 0).grad < 0.0);
        assert!(buf.get(1, 0).grad > 0.0);
        assert!((buf.get(0, 0).hess - 0.25).abs() < 1e-12);
    }

    #[test]
    fn softmax_gradients_sum_to_zero_per_instance() {
        let obj = Objective::Softmax { n_classes: 3 };
        let mut buf = GradBuffer::new(1, 3);
        obj.compute_gradients(&[0.5, -0.5, 1.0], &[2.0], &mut buf);
        let sum: f64 = (0..3).map(|k| buf.get(0, k).grad).sum();
        assert!(sum.abs() < 1e-12);
        // Gradient of the true class is negative.
        assert!(buf.get(0, 2).grad < 0.0);
        assert!(buf.get(0, 0).grad > 0.0);
    }

    #[test]
    fn grid_is_sized_by_rows_and_bound() {
        // 2^-s = N'·B' / 2^51.
        assert_eq!(GradGrid::new(1, 1.0).unit(), 2f64.powi(-51));
        assert_eq!(GradGrid::new(1000, 1.0).unit(), 2f64.powi(-41));
        assert_eq!(GradGrid::new(1024, 3.05).unit(), 2f64.powi(-39));
        let labels = [-70.0f32, 3.0, 0.5];
        assert_eq!(Objective::Logistic.grid(&labels, 9.0), GradGrid::new(3, 1.0));
        assert_eq!(Objective::SquaredError.grid(&labels, 9.0), GradGrid::new(3, 128.0));
        let grid = GradGrid::new(8, 1.0);
        let u = grid.unit();
        assert_eq!(grid.round(0.5 * u), 0.0); // ties to even
        assert_eq!(grid.round(1.5 * u), 2.0 * u);
        assert_eq!(grid.round(-0.25 * u).to_bits(), 0.0f64.to_bits());
        assert_eq!(grid.hessian(1e-300), u);
    }

    #[test]
    fn sums_at_the_bound_are_exact_in_any_order() {
        // N rows with |g| at or just below B, all of one sign: the largest
        // sums the grid admits, with arbitrary low unit bits. Any order of
        // f64 additions must give the i128 sum of their grid units.
        let n = 3_000;
        let score_bound = 0.3;
        let obj = Objective::SquaredError;
        let labels: Vec<f32> = (0..n).map(|i| -2.75 + (i % 977) as f32 * 3.1e-6).collect();
        let grid = obj.grid(&labels, score_bound);
        let mut buf = GradBuffer::new(n, 1);
        obj.compute_gradients_on(grid, &vec![score_bound; n], &labels, &mut buf);
        let g: Vec<f64> = (0..n).map(|i| buf.get(i, 0).grad).collect();
        assert!(g.iter().all(|&v| v > 3.0 && v < 4.0), "B = 3.05, so B' = 4");
        let units: i128 = g.iter().map(|&v| (v / grid.unit()) as i128).sum();
        assert!(units > 1 << 50, "the sum reaches the top of the grid's range");
        let want = units as f64 * grid.unit();
        let mut shuffled = g.clone();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        for (order, values) in [
            ("ascending", g.clone()),
            ("descending", g.iter().rev().copied().collect()),
            ("shuffled", shuffled),
        ] {
            let sum = values.iter().fold(0.0, |acc, v| acc + v);
            assert_eq!(sum.to_bits(), want.to_bits(), "{order}: {sum} vs {want}");
        }
    }

    #[test]
    fn mean_loss_decreases_with_better_scores() {
        let obj = Objective::Logistic;
        let labels = [1.0f32, 0.0];
        let bad = obj.mean_loss(&[-2.0, 2.0], &labels);
        let good = obj.mean_loss(&[2.0, -2.0], &labels);
        assert!(good < bad);

        let obj = Objective::Softmax { n_classes: 2 };
        let bad = obj.mean_loss(&[0.0, 3.0, 3.0, 0.0], &[0.0, 1.0]);
        let good = obj.mean_loss(&[3.0, 0.0, 0.0, 3.0], &[0.0, 1.0]);
        assert!(good < bad);
    }

    #[test]
    fn transform_produces_probabilities() {
        assert_eq!(Objective::SquaredError.transform(&[4.2]), vec![4.2]);
        let p = Objective::Logistic.transform(&[0.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        let p = Objective::Softmax { n_classes: 2 }.transform(&[0.0, 0.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }
}
