//! Device specifications.

/// A GPU device model for the roofline cost estimates.
///
/// All bandwidth figures are in bytes per second; throughputs in operations
/// per second.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Human-readable device name.
    pub name: String,
    /// Peak DRAM bandwidth (bytes/s).
    pub dram_bytes_per_s: f64,
    /// Fraction of peak achieved by long contiguous streams (dense GEMV).
    pub stream_efficiency: f64,
    /// Fraction of peak achieved by row-granular gathers (sparse GEMV
    /// visiting a scattered subset of rows).
    pub gather_efficiency: f64,
    /// Integer (XOR/popcount) throughput on CUDA cores (ops/s).
    pub int_ops_per_s: f64,
    /// FP32 MAC throughput on CUDA cores (MACs/s).
    pub fp32_macs_per_s: f64,
    /// FP16 MAC throughput on tensor cores (MACs/s).
    pub tensor_macs_per_s: f64,
    /// Fixed kernel launch overhead (seconds).
    pub kernel_launch_s: f64,
}

impl GpuSpec {
    /// NVIDIA Jetson Orin AGX 64GB (the paper's platform): 204.8 GB/s
    /// LPDDR5 shared between CPU and GPU, Ampere GPU with 2048 CUDA cores
    /// and 64 tensor cores at ~1.3 GHz.
    pub fn jetson_orin_agx_64gb() -> Self {
        Self {
            name: "Jetson Orin AGX 64GB".into(),
            dram_bytes_per_s: 204.8e9,
            stream_efficiency: 0.75,
            gather_efficiency: 0.35,
            int_ops_per_s: 2.0e12,
            fp32_macs_per_s: 2.6e12,
            tensor_macs_per_s: 42.0e12,
            kernel_launch_s: 5.0e-6,
        }
    }

    /// Effective streamed bandwidth (bytes/s).
    pub fn stream_bandwidth(&self) -> f64 {
        self.dram_bytes_per_s * self.stream_efficiency
    }

    /// Effective gathered bandwidth (bytes/s).
    pub fn gather_bandwidth(&self) -> f64 {
        self.dram_bytes_per_s * self.gather_efficiency
    }

    /// Validates the spec (all quantities strictly positive, efficiencies in
    /// `(0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("dram_bytes_per_s", self.dram_bytes_per_s),
            ("int_ops_per_s", self.int_ops_per_s),
            ("fp32_macs_per_s", self.fp32_macs_per_s),
            ("tensor_macs_per_s", self.tensor_macs_per_s),
        ];
        for (name, v) in positive {
            if v <= 0.0 {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if self.kernel_launch_s < 0.0 {
            return Err("kernel_launch_s must be non-negative".into());
        }
        for (name, v) in [
            ("stream_efficiency", self.stream_efficiency),
            ("gather_efficiency", self.gather_efficiency),
        ] {
            if !(0.0..=1.0).contains(&v) || v == 0.0 {
                return Err(format!("{name} must be in (0, 1], got {v}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jetson_preset_is_valid() {
        let spec = GpuSpec::jetson_orin_agx_64gb();
        spec.validate().unwrap();
        assert!(spec.stream_bandwidth() < spec.dram_bytes_per_s);
        assert!(spec.gather_bandwidth() < spec.stream_bandwidth());
    }

    #[test]
    fn validate_rejects_bad_fields() {
        let mut spec = GpuSpec::jetson_orin_agx_64gb();
        spec.stream_efficiency = 1.5;
        assert!(spec.validate().is_err());
        let mut spec = GpuSpec::jetson_orin_agx_64gb();
        spec.dram_bytes_per_s = 0.0;
        assert!(spec.validate().is_err());
        let mut spec = GpuSpec::jetson_orin_agx_64gb();
        spec.kernel_launch_s = -1.0;
        assert!(spec.validate().is_err());
    }
}
