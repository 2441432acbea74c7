//! Architectural metadata for the evaluated models (§6.1-6.3).


/// Full-size architecture of one evaluated LLM.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Model name as the paper's tables print it.
    pub name: String,
    /// Hidden width (`H·D`).
    pub hidden: usize,
    /// Transformer layer count.
    pub layers: usize,
    /// Query heads `H`.
    pub heads: usize,
    /// Key/value heads `H_KV` (GQA when < heads).
    pub kv_heads: usize,
    /// FFN intermediate width.
    pub ffn: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Total experts (1 for dense models).
    pub experts: usize,
    /// Experts active per token (1 for dense models).
    pub active_experts: usize,
}

impl ModelConfig {
    /// Per-head dimension `D`.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Llama-3-8B.
    pub fn llama3_8b() -> Self {
        Self::dense("Llama-3-8B", 4096, 32, 32, 8, 14336, 128_256)
    }

    /// Llama-2-7B.
    pub fn llama2_7b() -> Self {
        Self::dense("Llama-2-7B", 4096, 32, 32, 32, 11008, 32_000)
    }

    /// Llama-2-13B.
    pub fn llama2_13b() -> Self {
        Self::dense("Llama-2-13B", 5120, 40, 40, 40, 13824, 32_000)
    }

    /// Llama-2-70B.
    pub fn llama2_70b() -> Self {
        Self::dense("Llama-2-70B", 8192, 80, 64, 8, 28672, 32_000)
    }

    /// Llama (v1) 7B.
    fn llama_7b() -> Self {
        Self::dense("Llama-7B", 4096, 32, 32, 32, 11008, 32_000)
    }

    /// Llama (v1) 13B.
    fn llama_13b() -> Self {
        Self::dense("Llama-13B", 5120, 40, 40, 40, 13824, 32_000)
    }

    /// Llama (v1) 30B.
    pub fn llama_30b() -> Self {
        Self::dense("Llama-30B", 6656, 60, 52, 52, 17920, 32_000)
    }

    /// Mistral-7B.
    pub fn mistral_7b() -> Self {
        Self::dense("Mistral-7B", 4096, 32, 32, 8, 14336, 32_000)
    }

    /// Mixtral-8x7B (sparse MoE: 8 experts, 2 active).
    pub fn mixtral_8x7b() -> Self {
        Self {
            experts: 8,
            active_experts: 2,
            ..Self::dense("Mixtral-8x7B", 4096, 32, 32, 8, 14336, 32_000)
        }
    }

    /// Yi-34B.
    fn yi_34b() -> Self {
        Self::dense("Yi-34B", 7168, 60, 56, 8, 20480, 64_000)
    }

    /// Qwen1.5-72B.
    pub fn qwen15_72b() -> Self {
        Self::dense("Qwen1.5-72B", 8192, 80, 64, 64, 24576, 152_064)
    }

    /// The eight models in the throughput evaluation (Table 4 / Figure 15),
    /// in the tables' column order.
    pub fn throughput_suite() -> Vec<Self> {
        vec![
            Self::llama3_8b(),
            Self::llama2_7b(),
            Self::mistral_7b(),
            Self::llama2_13b(),
            Self::llama_30b(),
            Self::yi_34b(),
            Self::llama2_70b(),
            Self::qwen15_72b(),
        ]
    }

    /// The ten models in the perplexity table (Table 2), column order.
    pub fn accuracy_suite() -> Vec<Self> {
        vec![
            Self::llama3_8b(),
            Self::llama2_7b(),
            Self::llama2_13b(),
            Self::llama2_70b(),
            Self::llama_7b(),
            Self::llama_13b(),
            Self::llama_30b(),
            Self::mistral_7b(),
            Self::mixtral_8x7b(),
            Self::yi_34b(),
        ]
    }

    fn dense(
        name: &str,
        hidden: usize,
        layers: usize,
        heads: usize,
        kv_heads: usize,
        ffn: usize,
        vocab: usize,
    ) -> Self {
        Self {
            name: name.to_string(),
            hidden,
            layers,
            heads,
            kv_heads,
            ffn,
            vocab,
            experts: 1,
            active_experts: 1,
        }
    }

    /// Linear-layer parameter count of one transformer block (all experts).
    fn block_params(&self) -> u64 {
        let h = self.hidden as u64;
        let kv = (self.kv_heads * self.head_dim()) as u64;
        let f = self.ffn as u64;
        let attn = h * h + 2 * h * kv + h * h; // q, k, v, o
        let ffn = 3 * h * f * self.experts as u64; // gate, up, down per expert
        attn + ffn
    }

    /// Device bytes for the weights at `weight_bits` for block linears;
    /// embeddings/LM head and norms stay FP16 (as QServe deploys).
    pub fn weight_bytes(&self, weight_bits: u32) -> u64 {
        let block = self.block_params() * self.layers as u64 * u64::from(weight_bits) / 8;
        let embed = 2 * (self.vocab as u64 * self.hidden as u64) * 2;
        // Group scales/zeros ≈ 2 bytes per 128 weights — noise; fold into a
        // 2% overhead.
        block + embed + block / 50
    }

    /// KV-cache bytes per cached token at `kv_bits`, including the per-head
    /// dynamic FP16 scale+zero pairs QServe stores inline (§5.1).
    pub fn kv_bytes_per_token(&self, kv_bits: u32) -> u64 {
        let feats = 2 * (self.kv_heads * self.head_dim()) as u64; // K and V
        let data = feats * u64::from(kv_bits) / 8;
        let params = if kv_bits < 16 {
            2 * self.kv_heads as u64 * 4 // scale+zero (2×f16) per head, K and V
        } else {
            0
        };
        (data + params) * self.layers as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ModelConfig {
        /// Total parameters including embeddings and LM head.
        fn total_params(&self) -> u64 {
            self.block_params() * self.layers as u64 + 2 * (self.vocab as u64 * self.hidden as u64)
        }
    }

    #[test]
    fn llama2_7b_param_count_close_to_7b() {
        let p = ModelConfig::llama2_7b().total_params() as f64;
        assert!((6.4e9..7.2e9).contains(&p), "got {}", p);
    }

    #[test]
    fn llama2_70b_param_count_close_to_70b() {
        let p = ModelConfig::llama2_70b().total_params() as f64;
        assert!((65e9..72e9).contains(&p), "got {}", p);
    }

    #[test]
    fn llama3_8b_param_count() {
        let p = ModelConfig::llama3_8b().total_params() as f64;
        assert!((7.5e9..8.5e9).contains(&p), "got {}", p);
    }

    #[test]
    fn qwen_72b_param_count() {
        let p = ModelConfig::qwen15_72b().total_params() as f64;
        assert!((68e9..75e9).contains(&p), "got {}", p);
    }

    #[test]
    fn mixtral_active_vs_total_experts() {
        let m = ModelConfig::mixtral_8x7b();
        let p = m.total_params() as f64;
        assert!((44e9..50e9).contains(&p), "got {}", p);
        assert_eq!(m.active_experts, 2);
    }

    #[test]
    fn gqa_models_have_fewer_kv_heads() {
        assert!(ModelConfig::llama3_8b().kv_heads < ModelConfig::llama3_8b().heads);
        assert_eq!(ModelConfig::llama2_7b().kv_heads, ModelConfig::llama2_7b().heads);
    }

    #[test]
    fn w4_weights_fit_llama2_70b_in_48gb() {
        // The L40S feasibility claim: 70B at W4 ≈ 35 GB + embeddings.
        let bytes = ModelConfig::llama2_70b().weight_bytes(4);
        assert!(bytes < 40 * (1u64 << 30), "W4 70B = {} GiB", bytes >> 30);
        let fp16 = ModelConfig::llama2_70b().weight_bytes(16);
        assert!(fp16 > 48 * (1u64 << 30), "FP16 70B must NOT fit L40S");
    }

    #[test]
    fn kv4_halves_kv8_bytes_approximately() {
        let cfg = ModelConfig::llama2_7b();
        let kv4 = cfg.kv_bytes_per_token(4) as f64;
        let kv8 = cfg.kv_bytes_per_token(8) as f64;
        let ratio = kv8 / kv4;
        assert!((1.7..2.0).contains(&ratio), "ratio {}", ratio);
    }

    #[test]
    fn gqa_shrinks_kv_bytes() {
        let mha = ModelConfig::llama2_7b().kv_bytes_per_token(4);
        let gqa = ModelConfig::llama3_8b().kv_bytes_per_token(4);
        assert!(gqa < mha);
    }

    #[test]
    fn suites_have_expected_sizes() {
        assert_eq!(ModelConfig::throughput_suite().len(), 8);
        assert_eq!(ModelConfig::accuracy_suite().len(), 10);
    }
}
