//! System models for every serving stack in the paper's comparison
//! (Figures 2b, 15, 17; Tables 4, 6).

use qserve_gpusim::attention_model::AttentionKernel;
use qserve_gpusim::gemm_model::GemmConfig;
use qserve_model::ModelConfig;

/// One serving system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemConfig {
    /// TensorRT-LLM, FP16 weights/activations/KV.
    TrtFp16,
    /// TensorRT-LLM, W8A8 + KV8 (its best large-batch config).
    TrtW8A8,
    /// TensorRT-LLM, W4A16 g128 + KV8.
    TrtW4A16,
    /// Atom, W4A4 g128 + KV4.
    AtomW4A4,
    /// QuaRot, W4A4 + KV4 with runtime Hadamard in attention.
    QuarotW4A4,
    /// QServe W4A8KV4, per-channel weights (the A100 configuration).
    QServePerChannel,
    /// QServe W4A8KV4 g128 (the L40S configuration).
    QServePerGroup,
}

impl SystemConfig {
    /// All systems, in the figures' legend order.
    pub fn all() -> Vec<Self> {
        vec![
            Self::TrtFp16,
            Self::TrtW4A16,
            Self::TrtW8A8,
            Self::AtomW4A4,
            Self::QuarotW4A4,
            Self::QServePerChannel,
            Self::QServePerGroup,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::TrtFp16 => "TRT-LLM-FP16",
            Self::TrtW8A8 => "TRT-LLM-W8A8",
            Self::TrtW4A16 => "TRT-LLM-W4A16",
            Self::AtomW4A4 => "Atom-W4A4",
            Self::QuarotW4A4 => "QuaRot-W4A4",
            Self::QServePerChannel => "QServe-W4A8KV4",
            Self::QServePerGroup => "QServe-W4A8KV4-g128",
        }
    }

    /// The GEMM kernel design this system runs.
    pub fn gemm_config(self) -> GemmConfig {
        match self {
            Self::TrtFp16 => GemmConfig::TrtFp16,
            Self::TrtW8A8 => GemmConfig::TrtW8A8,
            Self::TrtW4A16 => GemmConfig::TrtW4A16,
            Self::AtomW4A4 => GemmConfig::AtomW4A4,
            Self::QuarotW4A4 => GemmConfig::QuarotW4A4,
            Self::QServePerChannel => GemmConfig::QServeW4A8PerChannel,
            Self::QServePerGroup => GemmConfig::QServeW4A8PerGroup,
        }
    }

    /// The decode attention kernel this system runs.
    pub fn attention_kernel(self) -> AttentionKernel {
        match self {
            Self::TrtFp16 => AttentionKernel::Fp16Kv,
            Self::TrtW8A8 | Self::TrtW4A16 => AttentionKernel::Kv8Static,
            Self::AtomW4A4 => AttentionKernel::Kv4Naive,
            Self::QuarotW4A4 => AttentionKernel::Kv4Hadamard,
            Self::QServePerChannel | Self::QServePerGroup => AttentionKernel::Kv4QServe,
        }
    }

    /// Weight storage bits (for the memory plan): what the GEMM kernel reads.
    pub fn weight_bits(self) -> u32 {
        self.gemm_config().weight_bits()
    }

    /// KV cache bits (for the memory plan): what the attention kernel reads.
    pub fn kv_bits(self) -> u32 {
        self.attention_kernel().kv_bits()
    }

    /// End-to-end runtime efficiency: scheduler/runtime maturity outside the
    /// kernels. TRT-LLM is the industrial bar; Atom/QuaRot are research
    /// prototypes whose runtimes the paper observes to be a further drag
    /// (§3.2 "this performance gap can be partially explained by the
    /// inefficient runtime in these two systems").
    pub fn runtime_efficiency(self) -> f64 {
        match self {
            Self::TrtFp16 | Self::TrtW8A8 | Self::TrtW4A16 => 0.85,
            Self::AtomW4A4 => 0.45,
            Self::QuarotW4A4 => 0.40,
            Self::QServePerChannel | Self::QServePerGroup => 0.85,
        }
    }

    /// Whether this system can serve the model at all (§6.3: "Atom only
    /// supports Llama-2-7B, and QuaRot does not support GQA").
    pub fn supports(self, model: &ModelConfig) -> bool {
        match self {
            Self::AtomW4A4 => model.name == "Llama-2-7B",
            Self::QuarotW4A4 => model.kv_heads == model.heads && model.experts == 1,
            _ => true,
        }
    }

    /// Whether this is one of the two QServe configurations.
    pub fn is_qserve(self) -> bool {
        matches!(self, Self::QServePerChannel | Self::QServePerGroup)
    }

    /// The paper's per-GPU QServe choice: per-channel on A100, per-group on
    /// L40S ("L40S has stronger CUDA cores for dequantization").
    pub fn qserve_for(gpu_name: &str) -> Self {
        if gpu_name.contains("L40S") {
            Self::QServePerGroup
        } else {
            Self::QServePerChannel
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_only_supports_llama2_7b() {
        assert!(SystemConfig::AtomW4A4.supports(&ModelConfig::llama2_7b()));
        assert!(!SystemConfig::AtomW4A4.supports(&ModelConfig::llama2_13b()));
        assert!(!SystemConfig::AtomW4A4.supports(&ModelConfig::llama3_8b()));
    }

    #[test]
    fn quarot_rejects_gqa() {
        assert!(SystemConfig::QuarotW4A4.supports(&ModelConfig::llama2_7b()));
        assert!(!SystemConfig::QuarotW4A4.supports(&ModelConfig::llama3_8b()));
        assert!(!SystemConfig::QuarotW4A4.supports(&ModelConfig::mixtral_8x7b()));
    }

    #[test]
    fn trt_supports_everything() {
        for m in ModelConfig::throughput_suite() {
            assert!(SystemConfig::TrtW8A8.supports(&m));
        }
    }

    #[test]
    fn qserve_per_gpu_selection() {
        assert_eq!(SystemConfig::qserve_for("A100-80G-SXM4"), SystemConfig::QServePerChannel);
        assert_eq!(SystemConfig::qserve_for("L40S-48G"), SystemConfig::QServePerGroup);
    }

    #[test]
    fn precision_bits_consistent() {
        // The memory plan budgets what the two kernels move, and the display
        // name advertises the same precision — three tables, one answer.
        for sys in SystemConfig::all() {
            let (gemm, attn) = (sys.gemm_config(), sys.attention_kernel());
            assert_eq!(sys.weight_bits(), gemm.weight_bits(), "{}", sys.name());
            assert_eq!(sys.kv_bits(), attn.kv_bits(), "{}", sys.name());
            let advertised = if gemm == GemmConfig::TrtFp16 {
                format!("FP{}", gemm.weight_bits())
            } else {
                format!("W{}A{}", gemm.weight_bits(), gemm.act_bits())
            };
            assert!(sys.name().contains(&advertised), "{} is not {}", sys.name(), advertised);
            if sys.is_qserve() {
                assert!(sys.name().contains(&format!("KV{}", attn.kv_bits())));
            }
        }
    }
}
