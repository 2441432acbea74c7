//! Device memory budgeting and max-batch search (§6.3: "the maximum
//! achievable throughput within the same memory constraints").

use qserve_gpusim::GpuSpec;
use qserve_model::ModelConfig;

/// Workspace reserved for activations, cublas scratch, CUDA context etc.,
/// as a fraction of device memory.
const WORKSPACE_FRACTION: f64 = 0.08;

/// A memory plan for serving one model on one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryPlan {
    /// Weight bytes at the system's weight precision.
    pub weight_bytes: u64,
    /// Bytes reserved for workspace.
    pub workspace_bytes: u64,
    /// Bytes left for KV pages.
    pub kv_budget_bytes: u64,
    /// KV bytes per cached token (all layers).
    pub kv_bytes_per_token: u64,
    /// Maximum cached tokens.
    pub max_tokens: u64,
}

impl MemoryPlan {
    /// Builds the plan for a `tp_ways`-GPU tensor-parallel group (1 = one
    /// GPU); returns `None` when the weights alone exceed the device (the
    /// "OOM" entries of Table 4). Weights and KV heads shard evenly, so each
    /// GPU holds a `1/tp_ways` slice of both and the group's token capacity
    /// is what one GPU's KV budget can hold at the per-GPU per-token cost.
    /// All quantities stay exact integers (`div_ceil`).
    ///
    /// The KV split is exact only when `tp_ways` divides the model's KV
    /// head count — [`crate::ServingEngine::with_tp`] enforces that, so the
    /// per-GPU token cost here equals the attention shard the cost model
    /// prices. (Weight bytes round up by at most one tensor row per GPU.)
    ///
    /// # Panics
    /// Panics if `tp_ways` is zero.
    pub fn plan_tp(
        model: &ModelConfig,
        gpu: &GpuSpec,
        weight_bits: u32,
        kv_bits: u32,
        tp_ways: usize,
    ) -> Option<Self> {
        assert!(tp_ways > 0, "a TP group needs at least one GPU");
        let weight_bytes = model.weight_bytes(weight_bits).div_ceil(tp_ways as u64);
        let workspace_bytes = (gpu.memory_bytes as f64 * WORKSPACE_FRACTION) as u64;
        let used = weight_bytes + workspace_bytes;
        if used >= gpu.memory_bytes {
            return None;
        }
        let kv_budget_bytes =
            gpu.memory_bytes.checked_sub(used).expect("weights + workspace exceed GPU memory");
        let kv_bytes_per_token = model
            .kv_bytes_per_token(kv_bits)
            .div_ceil(tp_ways as u64)
            .max(1);
        Some(Self {
            weight_bytes,
            workspace_bytes,
            kv_budget_bytes,
            kv_bytes_per_token,
            max_tokens: kv_budget_bytes / kv_bytes_per_token,
        })
    }

    /// Max concurrent sequences when each holds `max_seq_len` tokens at peak
    /// (the conservative sizing real schedulers use for admission).
    pub fn max_batch(&self, max_seq_len: usize) -> usize {
        usize::try_from(self.max_tokens / max_seq_len.max(1) as u64)
            .expect("concurrent-sequence count fits usize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp16_70b_oom_on_both_gpus() {
        let m = ModelConfig::llama2_70b();
        assert!(MemoryPlan::plan_tp(&m, &GpuSpec::a100(), 16, 16, 1).is_none());
        assert!(MemoryPlan::plan_tp(&m, &GpuSpec::l40s(), 16, 16, 1).is_none());
    }

    #[test]
    fn w4_70b_fits_both_gpus() {
        let m = ModelConfig::llama2_70b();
        assert!(MemoryPlan::plan_tp(&m, &GpuSpec::a100(), 4, 4, 1).is_some());
        let l40s = MemoryPlan::plan_tp(&m, &GpuSpec::l40s(), 4, 4, 1).expect("fits");
        assert!(l40s.max_batch(1536) >= 1, "must admit at least one sequence");
    }

    #[test]
    fn qserve_batches_larger_than_w8a8() {
        // "QServe effectively maintains the same batch size as TensorRT-LLM
        // on the A100" despite L40S's smaller memory — driven by W4 + KV4.
        let m = ModelConfig::llama2_7b();
        let a100_w8 = MemoryPlan::plan_tp(&m, &GpuSpec::a100(), 8, 8, 1).unwrap();
        let l40s_qserve = MemoryPlan::plan_tp(&m, &GpuSpec::l40s(), 4, 4, 1).unwrap();
        let b_w8 = a100_w8.max_batch(1536);
        let b_qs = l40s_qserve.max_batch(1536);
        assert!(
            b_qs as f64 >= b_w8 as f64 * 0.5,
            "L40S QServe batch {} should approach A100 W8A8 batch {}",
            b_qs,
            b_w8
        );
    }

    #[test]
    fn kv4_doubles_max_tokens_vs_kv8() {
        let m = ModelConfig::llama2_7b();
        let gpu = GpuSpec::a100();
        let kv8 = MemoryPlan::plan_tp(&m, &gpu, 4, 8, 1).unwrap();
        let kv4 = MemoryPlan::plan_tp(&m, &gpu, 4, 4, 1).unwrap();
        let ratio = kv4.max_tokens as f64 / kv8.max_tokens as f64;
        assert!((1.7..2.1).contains(&ratio), "ratio {}", ratio);
    }

    #[test]
    fn tp_sharding_lifts_capacity_and_rescues_oom() {
        let m = ModelConfig::llama2_70b();
        let gpu = GpuSpec::a100();
        // FP16 70B OOMs on one A100 but fits once weights shard 4 ways.
        assert!(MemoryPlan::plan_tp(&m, &gpu, 16, 16, 1).is_none());
        let tp4 = MemoryPlan::plan_tp(&m, &gpu, 16, 16, 4).expect("shards fit");
        assert!(tp4.max_batch(1536) >= 1);
        // More ways ⇒ smaller per-GPU KV cost ⇒ more group tokens.
        let m7 = ModelConfig::llama2_7b();
        let t1 = MemoryPlan::plan_tp(&m7, &gpu, 4, 4, 1).unwrap().max_tokens;
        let t2 = MemoryPlan::plan_tp(&m7, &gpu, 4, 4, 2).unwrap().max_tokens;
        assert!(t2 > t1, "TP=2 capacity {} must exceed TP=1 {}", t2, t1);
    }

    #[test]
    fn plan_accounts_sum_to_capacity() {
        let m = ModelConfig::llama2_7b();
        let gpu = GpuSpec::a100();
        let p = MemoryPlan::plan_tp(&m, &gpu, 4, 4, 1).unwrap();
        assert_eq!(
            p.weight_bytes + p.workspace_bytes + p.kv_budget_bytes,
            gpu.memory_bytes
        );
    }
}
