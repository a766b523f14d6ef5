//! Operation and memory-traffic accounting.
//!
//! Every sparse/dense kernel in this crate reports into an [`OpCounter`].
//! Besides verifying kernels against each other, the counters regenerate
//! Table I of the paper (operation counts for prediction and for the MLP
//! block) and feed the GPU cost model, whose latency estimates are driven by
//! bytes moved and operations executed.

use sparseinfer_model::ModelConfig;
use sparseinfer_tensor::{Matrix, WeightRows};

/// Accumulated operation and traffic counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounter {
    /// Multiply–accumulate operations executed (weight-precision math).
    pub macs: u64,
    /// 32-bit XOR+popcount pairs executed by the sign-bit predictor.
    pub xor_popc: u64,
    /// Predictor MACs (DejaVu-style low-rank projections).
    pub predictor_macs: u64,
    /// Weight bytes actually loaded from "DRAM".
    pub weight_bytes_loaded: u64,
    /// Activation bytes loaded or stored (inter-kernel traffic; kernel
    /// fusion reduces this term).
    pub activation_bytes: u64,
    /// Elementwise atomic additions (the transposed down projection).
    pub atomic_adds: u64,
    /// Gate/up/down rows skipped thanks to sparsity.
    pub rows_skipped: u64,
    /// Rows computed.
    pub rows_computed: u64,
}

impl OpCounter {
    /// Bytes per full-precision weight element (FP16 storage, as on the
    /// paper's GPU) — what the kernels count per [`Matrix`] element.
    pub const WEIGHT_BYTES: u64 = <Matrix as WeightRows>::ACCOUNTED_BYTES;
    /// Bytes per activation element (FP32 intermediate, llama.cpp default).
    pub const ACTIVATION_BYTES: u64 = 4;

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &OpCounter) {
        self.macs += other.macs;
        self.xor_popc += other.xor_popc;
        self.predictor_macs += other.predictor_macs;
        self.weight_bytes_loaded += other.weight_bytes_loaded;
        self.activation_bytes += other.activation_bytes;
        self.atomic_adds += other.atomic_adds;
        self.rows_skipped += other.rows_skipped;
        self.rows_computed += other.rows_computed;
    }

    /// Fraction of rows skipped among all rows seen.
    pub fn skip_fraction(&self) -> f64 {
        let total = self.rows_skipped + self.rows_computed;
        if total == 0 {
            0.0
        } else {
            self.rows_skipped as f64 / total as f64
        }
    }
}

/// Analytic Table I rows: operation counts per MLP block for the three
/// engines, computed from the paper dimensions (no simulation involved).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Engine label.
    pub engine: &'static str,
    /// Prediction operations per block.
    pub prediction_ops: u64,
    /// MLP block operations per block.
    pub mlp_ops: u64,
}

/// Computes the three rows of Table I for `config` at activation sparsity
/// `sparsity` and DejaVu rank `rank`.
///
/// # Example
///
/// ```
/// use sparseinfer_model::ModelConfig;
/// use sparseinfer_sparse::ops::table1;
///
/// let rows = table1(&ModelConfig::prosparse_13b_paper(), 0.92, 1024);
/// assert_eq!(rows[0].engine, "llama.cpp (dense)");
/// assert_eq!(rows[0].prediction_ops, 0);
/// assert_eq!(rows[2].prediction_ops, 2_211_840); // 2.211e6
/// ```
pub fn table1(config: &ModelConfig, sparsity: f64, rank: usize) -> [Table1Row; 3] {
    [
        Table1Row {
            engine: "llama.cpp (dense)",
            prediction_ops: 0,
            mlp_ops: config.mlp_macs_per_block(),
        },
        Table1Row {
            engine: "PowerInfer",
            prediction_ops: config.dejavu_predictor_ops_per_block(rank),
            mlp_ops: config.sparse_mlp_macs_per_block(sparsity),
        },
        Table1Row {
            engine: "SparseInfer (proposed)",
            prediction_ops: config.signbit_predictor_ops_per_block(),
            mlp_ops: config.sparse_mlp_macs_per_block(sparsity),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_componentwise_addition() {
        let mut a = OpCounter {
            macs: 1,
            xor_popc: 2,
            ..Default::default()
        };
        let b = OpCounter {
            macs: 10,
            atomic_adds: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.macs, 11);
        assert_eq!(a.xor_popc, 2);
        assert_eq!(a.atomic_adds, 5);
    }

    #[test]
    fn skip_fraction_handles_zero() {
        assert_eq!(OpCounter::default().skip_fraction(), 0.0);
        let c = OpCounter {
            rows_skipped: 9,
            rows_computed: 1,
            ..Default::default()
        };
        assert!((c.skip_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn table1_matches_paper_13b() {
        let rows = table1(&ModelConfig::prosparse_13b_paper(), 0.92, 1024);
        // llama.cpp dense: 2.123e8.
        assert_eq!(rows[0].mlp_ops, 212_336_640);
        // PowerInfer prediction: 1.940e7.
        assert_eq!(rows[1].prediction_ops, 19_398_656);
        // Both sparse engines: 1.699e7 MLP ops.
        assert_eq!(rows[1].mlp_ops, rows[2].mlp_ops);
        assert!((rows[1].mlp_ops as f64 - 1.699e7).abs() / 1.699e7 < 0.01);
        // SparseInfer prediction: 2.211e6, an order of magnitude below
        // PowerInfer's.
        assert_eq!(rows[2].prediction_ops, 2_211_840);
        assert!(rows[1].prediction_ops / rows[2].prediction_ops >= 8);
    }

    #[test]
    fn powerinfer_prediction_exceeds_its_own_mlp_ops() {
        // The paper's observation: the trained predictor costs more than the
        // sparse MLP itself.
        let rows = table1(&ModelConfig::prosparse_13b_paper(), 0.92, 1024);
        assert!(rows[1].prediction_ops > rows[1].mlp_ops);
    }
}
