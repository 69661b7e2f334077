//! Training hyper-parameters.

use crate::loss::Objective;
use gbdt_data::{BinWidth, BinnedRows, BinnedStore, DenseBinnedRows};
use serde::{Deserialize, Serialize};

/// Histogram wire codec for distributed aggregation (§3.1.3 traffic).
///
/// Selects how flat f64 histogram buffers are serialized by the
/// codec-aware collectives in `gbdt-cluster`. `Grid` is lossless and
/// guaranteed to produce bit-identical ensembles; `F32` is an opt-in lossy
/// mode that halves payload width the way DimBoost's low-precision
/// compressed histograms do (§4.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WireCodec {
    /// Lossless: every nonzero cell as a whole number of the message's
    /// power-of-two unit, behind a presence bitmap; raw f64s for a buffer
    /// off the grid or where the frame would not be smaller.
    #[default]
    Grid,
    /// Lossy f32 payloads (sparsity-aware: picks sparse or dense f32
    /// pairs per message). Changes the trained ensemble; opt-in only.
    F32,
}

impl WireCodec {
    /// All codecs, in display order.
    pub const ALL: [WireCodec; 2] = [WireCodec::Grid, WireCodec::F32];

    /// Whether decoded payloads are bit-identical to the encoder's input.
    pub fn is_lossless(self) -> bool {
        !matches!(self, WireCodec::F32)
    }

    /// Short label for reports and CLI echo.
    pub fn label(self) -> &'static str {
        match self {
            WireCodec::Grid => "grid",
            WireCodec::F32 => "f32",
        }
    }
}

impl std::str::FromStr for WireCodec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "grid" => Ok(WireCodec::Grid),
            "f32" => Ok(WireCodec::F32),
            other => Err(format!("unknown wire codec '{other}' (expected grid|f32)")),
        }
    }
}

impl std::fmt::Display for WireCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Binned-storage layout policy (§3.2 storage patterns).
///
/// Decides, at binning time, whether trainers scan the sparse
/// 〈feature, bin〉-pair layout or the dense one-cell-per-`(row, feature)`
/// layout with width-specialized histogram kernels. Every choice trains a
/// **bit-identical** ensemble — both layouts scan values in the same
/// ascending order — so only memory and scan throughput differ. `Auto` is
/// what every entry point uses; the forced layouts are test oracles (and
/// the benchmark's per-layer probes set them on `TrainConfig::storage`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Storage {
    /// Pick dense when the stored-value density of the binned matrix
    /// reaches `gbdt_data::DEFAULT_DENSE_THRESHOLD`, sparse otherwise.
    #[default]
    Auto,
    /// Always the sparse pair layout (the pre-existing storage).
    Sparse,
    /// Always the dense cell layout (u8 cells when `q ≤ 255`, else u16).
    Dense,
}

impl Storage {
    /// All policies, in display order.
    pub const ALL: [Storage; 3] = [Storage::Auto, Storage::Sparse, Storage::Dense];

    /// Short label for reports and test tags.
    pub fn label(self) -> &'static str {
        match self {
            Storage::Auto => "auto",
            Storage::Sparse => "sparse",
            Storage::Dense => "dense",
        }
    }

    /// The policy's decision for an `n_rows × n_features` binned matrix
    /// holding `nnz` values: the dense cell width, or `None` for the sparse
    /// layout. `n_bins` is the global histogram width (it fixes the cell
    /// width deterministically, so every shard of one dataset packs
    /// identically).
    pub fn dense_width(
        self,
        nnz: usize,
        n_rows: usize,
        n_features: usize,
        n_bins: usize,
    ) -> Option<BinWidth> {
        match self {
            Storage::Sparse => None,
            Storage::Dense => Some(BinWidth::for_bins(n_bins)),
            Storage::Auto => {
                gbdt_data::dense_at_density(nnz, n_rows, n_features)
                    .then(|| BinWidth::for_bins(n_bins))
            }
        }
    }

    /// Applies the policy to already-binned rows.
    pub fn bin_store(self, rows: BinnedRows, n_bins: usize) -> BinnedStore {
        match self.dense_width(rows.nnz(), rows.n_rows(), rows.n_features(), n_bins) {
            None => BinnedStore::Sparse(rows),
            Some(width) => {
                BinnedStore::Dense(DenseBinnedRows::from_sparse_with_width(&rows, n_bins, width))
            }
        }
    }
}

/// Histogram fill-kernel selection for the dense storage layout.
///
/// `Simd` (the default) scans packed cells in fixed-width lane groups
/// with unchecked accumulates whose bounds come from a per-group vector
/// range check (see `gbdt_core::kernels::simd`); `Scalar` is the PR-4
/// reference loop. Both visit values in the same ascending order, so the
/// trained ensemble is **bit-identical** either way — only scan throughput
/// differs. `Scalar` is the oracle the SIMD fills are tested against (and
/// the benchmark's per-layer probes set it on `TrainConfig::kernel`).
/// Sparse storage has a single kernel and ignores this knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Kernel {
    /// Lane-group SIMD fills (u8×16 / u16×8 classify, f64×4 accumulate).
    #[default]
    Simd,
    /// The scalar reference fills.
    Scalar,
}

impl Kernel {
    /// All kernels, in display order.
    pub const ALL: [Kernel; 2] = [Kernel::Simd, Kernel::Scalar];

    /// Short label for reports and test tags.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Simd => "simd",
            Kernel::Scalar => "scalar",
        }
    }
}

/// GBDT training configuration, using the paper's symbols.
///
/// Defaults follow §5.1: `T = 100` trees, `L = 8` layers, `q = 20` candidate
/// splits. Build with [`TrainConfig::builder`] for fluent construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// T — number of boosted trees.
    pub n_trees: usize,
    /// L — number of tree layers (a root-only tree has L = 1; an L-layer
    /// tree has at most `2^(L-1)` leaves).
    pub n_layers: usize,
    /// q — number of candidate splits per feature (histogram bins).
    pub n_bins: usize,
    /// η — learning rate (step size) applied to every leaf.
    pub learning_rate: f64,
    /// λ — L2 regularization on leaf weights (Eq. 1, 2).
    pub lambda: f64,
    /// γ — per-leaf complexity penalty (Eq. 2).
    pub gamma: f64,
    /// Minimum sum of hessians on each child for a split to be valid.
    pub min_child_weight: f64,
    /// Minimum number of instances on a node for it to be split.
    pub min_node_instances: usize,
    /// The training objective.
    pub objective: Objective,
    /// Histogram wire codec for distributed aggregation. The lossless
    /// [`WireCodec::Grid`] trains bit-identical ensembles; trainers that
    /// never ship histograms (the vertical quadrants) ignore it entirely.
    pub wire: WireCodec,
    /// Binned-storage layout policy. Every choice trains a bit-identical
    /// ensemble; `Auto` densifies when the binned matrix is dense enough
    /// for the cell layout to win on bytes and scan speed.
    pub storage: Storage,
    /// Dense histogram fill kernel (SIMD lane groups vs the scalar
    /// reference). Bit-identical ensembles either way; speed only.
    pub kernel: Kernel,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            n_trees: 100,
            n_layers: 8,
            n_bins: 20,
            learning_rate: 0.1,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1e-3,
            min_node_instances: 2,
            objective: Objective::Logistic,
            wire: WireCodec::Grid,
            storage: Storage::Auto,
            kernel: Kernel::Simd,
        }
    }
}

impl TrainConfig {
    /// Starts a fluent builder from the §5.1 defaults.
    pub fn builder() -> TrainConfigBuilder {
        TrainConfigBuilder { cfg: TrainConfig::default(), threads: 1 }
    }

    /// C — the gradient dimension: 1 for regression/binary, the class count
    /// for multi-class (paper §3: "C equals 1 in binary-classification or
    /// the number of classes in multi-classification").
    pub fn n_outputs(&self) -> usize {
        self.objective.n_outputs()
    }

    /// Validates parameter ranges, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_trees == 0 {
            return Err("n_trees must be >= 1".into());
        }
        if self.n_layers == 0 || self.n_layers > 24 {
            return Err("n_layers must be in 1..=24".into());
        }
        if self.n_bins < 2 || self.n_bins > u16::MAX as usize {
            return Err("n_bins must be in 2..=65535".into());
        }
        if self.learning_rate <= 0.0 || self.learning_rate.is_nan() {
            return Err("learning_rate must be positive".into());
        }
        if self.lambda.is_nan() || self.lambda < 0.0 || self.gamma.is_nan() || self.gamma < 0.0 {
            return Err("lambda and gamma must be non-negative".into());
        }
        if self.min_child_weight.is_nan() || self.min_child_weight < 0.0 {
            return Err("min_child_weight must be non-negative".into());
        }
        Ok(())
    }
}

/// Fluent builder for [`TrainConfig`].
#[derive(Debug, Clone)]
pub struct TrainConfigBuilder {
    cfg: TrainConfig,
    threads: usize,
}

impl TrainConfigBuilder {
    /// Sets T, the number of trees.
    pub fn n_trees(mut self, t: usize) -> Self {
        self.cfg.n_trees = t;
        self
    }

    /// Sets L, the number of tree layers.
    pub fn n_layers(mut self, l: usize) -> Self {
        self.cfg.n_layers = l;
        self
    }

    /// Sets q, the number of candidate splits (histogram bins).
    pub fn n_bins(mut self, q: usize) -> Self {
        self.cfg.n_bins = q;
        self
    }

    /// Sets η, the learning rate.
    pub fn learning_rate(mut self, eta: f64) -> Self {
        self.cfg.learning_rate = eta;
        self
    }

    /// Sets λ, the L2 leaf regularization.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.cfg.lambda = lambda;
        self
    }

    /// Sets γ, the per-leaf complexity penalty.
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.cfg.gamma = gamma;
        self
    }

    /// Sets the minimum child hessian sum.
    pub fn min_child_weight(mut self, w: f64) -> Self {
        self.cfg.min_child_weight = w;
        self
    }

    /// Sets the minimum instance count for splitting a node.
    pub fn min_node_instances(mut self, n: usize) -> Self {
        self.cfg.min_node_instances = n;
        self
    }

    /// Sets the training objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.cfg.objective = objective;
        self
    }

    /// Accepts the one thread every simulated worker trains on: 0 and 1
    /// build, anything larger makes [`build`](Self::build) fail. Kept only
    /// because the benchmark calls `.threads(1)`; it sets nothing.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the histogram wire codec (default [`WireCodec::Grid`]).
    pub fn wire(mut self, wire: WireCodec) -> Self {
        self.cfg.wire = wire;
        self
    }

    /// Finalizes, validating all parameters.
    pub fn build(self) -> Result<TrainConfig, String> {
        if self.threads > 1 {
            return Err("threads must be 0 or 1: each simulated worker trains on one thread".into());
        }
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper_section_5_1() {
        let cfg = TrainConfig::default();
        assert_eq!(cfg.n_trees, 100);
        assert_eq!(cfg.n_layers, 8);
        assert_eq!(cfg.n_bins, 20);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = TrainConfig::builder()
            .n_trees(5)
            .n_layers(4)
            .n_bins(16)
            .learning_rate(0.3)
            .lambda(2.0)
            .gamma(0.5)
            .objective(Objective::Softmax { n_classes: 7 })
            .build()
            .unwrap();
        assert_eq!(cfg.n_trees, 5);
        assert_eq!(cfg.n_outputs(), 7);
        assert_eq!(cfg.gamma, 0.5);
    }

    #[test]
    fn threads_accepts_only_one_thread() {
        assert!(TrainConfig::builder().threads(0).build().is_ok());
        assert!(TrainConfig::builder().threads(1).build().is_ok());
        assert!(TrainConfig::builder().threads(2).build().is_err());
    }

    #[test]
    fn default_wire_codec_is_the_lossless_grid() {
        assert_eq!(TrainConfig::default().wire, WireCodec::Grid);
        assert!(WireCodec::Grid.is_lossless());
        assert!(!WireCodec::F32.is_lossless());
    }

    #[test]
    fn wire_codec_parses_cli_names() {
        for codec in WireCodec::ALL {
            assert_eq!(codec.label().parse::<WireCodec>().unwrap(), codec);
            assert_eq!(format!("{codec}"), codec.label());
        }
        for gone in ["gzip", "dense", "auto"] {
            assert!(gone.parse::<WireCodec>().is_err(), "{gone}");
        }
    }

    #[test]
    fn builder_sets_wire_codec() {
        let cfg = TrainConfig::builder().wire(WireCodec::F32).build().unwrap();
        assert_eq!(cfg.wire, WireCodec::F32);
    }

    #[test]
    fn default_storage_is_auto() {
        assert_eq!(TrainConfig::default().storage, Storage::Auto);
    }

    #[test]
    fn bin_store_follows_policy() {
        use gbdt_data::binned::BinnedRowsBuilder;
        let rows = || {
            let mut b = BinnedRowsBuilder::new(2, 2);
            b.push_row(&[(0, 0), (1, 1)]).unwrap();
            b.push_row(&[(0, 1), (1, 0)]).unwrap();
            b.build()
        };
        assert!(!Storage::Sparse.bin_store(rows(), 2).is_dense());
        assert_eq!(Storage::Dense.bin_store(rows(), 2).label(), "dense-u8");
        // Past 255 bins the same policy packs u16 cells.
        assert_eq!(Storage::Dense.bin_store(rows(), 256).label(), "dense-u16");
        // Fully dense data crosses the auto threshold.
        assert!(Storage::Auto.bin_store(rows(), 2).is_dense());
    }

    #[test]
    fn default_kernel_is_simd() {
        assert_eq!(TrainConfig::default().kernel, Kernel::Simd);
    }

    #[test]
    fn builder_rejects_invalid() {
        assert!(TrainConfig::builder().n_trees(0).build().is_err());
        assert!(TrainConfig::builder().n_bins(1).build().is_err());
        assert!(TrainConfig::builder().learning_rate(0.0).build().is_err());
        assert!(TrainConfig::builder().lambda(-1.0).build().is_err());
        assert!(TrainConfig::builder().lambda(f64::NAN).build().is_err());
        assert!(TrainConfig::builder().gamma(f64::NAN).build().is_err());
        assert!(TrainConfig::builder().min_child_weight(-1.0).build().is_err());
        assert!(TrainConfig::builder().min_child_weight(f64::NAN).build().is_err());
        assert!(TrainConfig::builder().min_child_weight(0.0).build().is_ok());
        assert!(TrainConfig::builder().n_layers(25).build().is_err());
    }
}
