//! The serving engine: continuous batching over the GPU cost model (§6.3).
//!
//! The benchmark protocol mirrors the paper: every request carries 1024
//! input tokens and 512 output tokens; the engine admits requests with
//! in-flight batching up to the memory-derived batch limit, charges prefill
//! on admission, then advances decode steps for the whole active batch;
//! throughput is generated tokens over wall-clock.
//!
//! The engine itself owns only the *cost model* — what a prefill wave or a
//! decode step costs on this (GPU, model, system) triple, charged
//! per-sequence at each sequence's true KV length. Every such price has one
//! implementation, [`CostModel`]: a replica's [`TickExecutor`] and, fresh,
//! behind each public pricing method. The request lifecycle (admission
//! order, memory gating, preemption, per-request timing) lives in the shared
//! [`crate::scheduler`] core, whose [`Scheduler::tick`] owns the order of a
//! step. [`ServingEngine::serve`] runs it as a one-replica fleet
//! of the [`crate::cluster`] driver, so the single engine and every cluster
//! replica are one loop over one page ledger, and [`crate::report`] folds
//! both kinds of run into their reports the same way. Every protocol — the
//! fixed-batch Figure 17 runs, worst-case-sized heterogeneous serving, paged
//! on-demand admission — is a declarative [`ServeConfig`] over that one
//! entry point, so making the engine spec-parametric (heterogeneous fleets)
//! changes a single code path.

use crate::baselines::SystemConfig;
use crate::kv_cache::PAGE_TOKENS;
use crate::ledger::{PageBudget, Reservation};
use crate::memory::MemoryPlan;
use crate::request::{RequestId, WorkloadSpec};
use crate::scheduler::{
    Fcfs, PreemptionMode, SchedOptions, Scheduler, SchedulingPolicy, TickExecutor,
};
use qserve_gpusim::attention_model::{attention_prefill_latency_chunked, DecodeAttention};
use qserve_gpusim::gemm_model::{gemm_latency, GemmShape};
use qserve_gpusim::tp::{HostLink, TpGroup};
use qserve_gpusim::GpuSpec;
use qserve_model::ModelConfig;

/// Per-decode-step CPU/scheduler overhead (batching, sampling, detokenize).
const STEP_OVERHEAD_S: f64 = 2.5e-4;
/// Auxiliary kernels per layer (norms, activation quant, RoPE, residual).
const MISC_KERNELS_PER_LAYER: f64 = 4.0;
/// Host-tier pages per device page under swap preemption. Host DRAM dwarfs
/// device HBM: a deliberately generous tier, so swap policy, not host
/// capacity, decides preemption outcomes.
const HOST_TIER_FACTOR: usize = 4;

/// Result of one serving simulation, folded by [`crate::report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingReport {
    /// Output tokens per second — the headline number of Table 4.
    pub throughput_tps: f64,
    /// Wall-clock seconds for the whole workload.
    pub total_time_s: f64,
    /// Seconds spent in prefill.
    pub prefill_time_s: f64,
    /// Seconds spent in decode.
    pub decode_time_s: f64,
    /// The batch limit used.
    pub max_batch: usize,
    /// Requests completed (always == submitted on success).
    pub completed: usize,
    /// Mean end-to-end request latency (admission wait + prefill + decode),
    /// seconds.
    pub mean_request_latency_s: f64,
    /// Worst-case request latency, seconds — bounds scheduler fairness.
    pub max_request_latency_s: f64,
    /// Mean time-to-first-token (arrival → first output token), seconds.
    pub mean_ttft_s: f64,
    /// Median end-to-end latency, seconds.
    pub p50_latency_s: f64,
    /// 95th-percentile end-to-end latency, seconds.
    pub p95_latency_s: f64,
    /// 99th-percentile end-to-end latency, seconds — the SLO number.
    pub p99_latency_s: f64,
    /// Preemption events during the run (0 under peak-reserving admission).
    pub preemptions: usize,
    /// High-water mark of unique KV pages in use (0 under
    /// [`KvModel::BatchOnly`], whose ledger is sized never to bind) — prefix
    /// sharing lowers this, more requests fit, and that is the capacity
    /// story of the `prefix_sweep` grid.
    pub peak_unique_pages: usize,
    /// Median latency from the streaming percentile sketch — always
    /// computed, and the authoritative percentile source above
    /// [`crate::sketch::EXACT_STATS_MAX`] completions.
    pub sketch_p50_latency_s: f64,
    /// 99th-percentile latency from the streaming percentile sketch.
    pub sketch_p99_latency_s: f64,
}

/// The analytic [`TickExecutor`] and the one implementation of every price
/// the engine quotes: nothing runs, each step of [`Scheduler::tick`] is
/// priced from the hook's arguments alone (whole prompts and chunks are the
/// same `(new, past)` slices), its GEMM term through a [`GemmMemo`]. A
/// replica owns one for its whole run; each public pricing method quotes
/// through a fresh one, so warm and cold prices are the same `f64`s.
pub(crate) struct CostModel<'e> {
    pub(crate) engine: &'e ServingEngine,
    memo: GemmMemo,
    /// The engine's decode-attention price, its constants resolved once.
    attention: DecodeAttention,
    /// `(new_tokens, past_tokens)` pairs handed to the cost model, reused
    /// across ticks so pricing allocates nothing.
    pairs: Vec<(usize, usize)>,
}

impl<'e> CostModel<'e> {
    /// A cost model over `engine` with a cold memo.
    pub(crate) fn new(engine: &'e ServingEngine) -> Self {
        let (model, tp) = (&engine.model, &engine.tp);
        let attention = DecodeAttention::new(
            &engine.gpu,
            engine.system.attention_kernel(),
            tp.shard(model.heads),
            tp.shard(model.kv_heads),
            model.head_dim(),
        );
        Self { engine, memo: GemmMemo::default(), attention, pairs: Vec::new() }
    }

    /// [`ServingEngine::decode_layer_cost`], its GEMM term from the memo.
    #[inline]
    fn decode_layer(&mut self, batch: usize, total_tokens: usize) -> LayerCost {
        let gemm_s = self.memo.get(self.engine, batch);
        self.engine.layer_cost(batch, self.attention.latency(batch, total_tokens).total_s, gemm_s)
    }

    /// [`ServingEngine::decode_step_latency_hetero`] of `batch` sequences
    /// holding `total_tokens` cached tokens — what the tick prices from,
    /// straight off [`Scheduler::decode_totals`].
    fn decode_step(&mut self, batch: usize, total_tokens: usize) -> f64 {
        self.engine.step_latency(self.decode_layer(batch, total_tokens))
    }

    /// [`ServingEngine::prefill_latency_chunked`].
    fn prefill_wave(&mut self, chunks: &[(usize, usize)]) -> f64 {
        if chunks.is_empty() {
            return 0.0;
        }
        let (e, model) = (self.engine, &self.engine.model);
        let attention_s = attention_prefill_latency_chunked(
            &e.gpu,
            e.system.attention_kernel(),
            chunks,
            e.tp.shard(model.heads),
            e.tp.shard(model.kv_heads),
            model.head_dim(),
        );
        let tokens = chunks.iter().map(|&(c, _)| c).sum();
        e.step_latency(e.layer_cost(tokens, attention_s, self.memo.get(e, tokens)))
    }
}

impl TickExecutor for CostModel<'_> {
    fn prefill(&mut self, _: &Scheduler, slices: &[(RequestId, usize, usize)]) -> f64 {
        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        pairs.extend(slices.iter().map(|&(_, new, past)| (new, past)));
        let price = self.prefill_wave(&pairs);
        self.pairs = pairs;
        price
    }

    /// A PCIe round trip per page.
    fn swap(&mut self, _: &Scheduler, pages: usize) -> f64 {
        HostLink::pcie4().transfer_latency(pages as f64 * self.engine.kv_page_bytes() as f64)
    }

    fn decode(&mut self, sched: &Scheduler) -> f64 {
        let (batch, total_tokens) = sched.decode_totals();
        self.decode_step(batch, total_tokens)
    }
}

/// A [`CostModel`]'s memo of [`ServingEngine::layer_gemm_latency`]: the
/// GEMM model is a pure function of `(engine spec, tokens)`, and a replica
/// prices the same handful of token counts millions of times per run. Small
/// counts (decode batches, chunk slices) hit a dense direct-indexed table;
/// large prefill-wave totals spill to a sparse map. Cached values are the
/// very `f64`s the model produced, so memoized runs are bit-identical.
#[derive(Debug, Default)]
struct GemmMemo {
    /// Direct-indexed slots for token counts below [`GEMM_MEMO_DENSE`].
    dense: Vec<Option<f64>>,
    /// Overflow for larger (rarer) token counts.
    sparse: std::collections::BTreeMap<usize, f64>,
}

impl GemmMemo {
    /// `engine`'s layer GEMM latency at `tokens`, from the table or, on a
    /// miss, from the model (and then kept).
    fn get(&mut self, engine: &ServingEngine, tokens: usize) -> f64 {
        if tokens < GEMM_MEMO_DENSE {
            if self.dense.len() <= tokens {
                self.dense.resize(tokens + 1, None);
            }
            *self.dense[tokens].get_or_insert_with(|| engine.layer_gemm_latency(tokens))
        } else {
            *self.sparse.entry(tokens).or_insert_with(|| engine.layer_gemm_latency(tokens))
        }
    }
}

/// Dense-slot ceiling of [`GemmMemo`] — covers every decode batch and
/// prefill chunk the schedulers produce; whole-wave totals go sparse.
const GEMM_MEMO_DENSE: usize = 4096;

/// A serving engine instance for (GPU, model, system), optionally running
/// as a tensor-parallel group of identical GPUs.
#[derive(Debug, Clone)]
pub struct ServingEngine {
    gpu: GpuSpec,
    model: ModelConfig,
    system: SystemConfig,
    plan: MemoryPlan,
    tp: TpGroup,
}

/// Why an engine could not be constructed (the `OOM` / `N.S.` cells of
/// Figure 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineUnavailable {
    /// Weights don't fit device memory.
    OutOfMemory,
    /// The system does not support this model architecture.
    NotSupported,
}

impl std::fmt::Display for EngineUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineUnavailable::OutOfMemory => write!(f, "OOM"),
            EngineUnavailable::NotSupported => write!(f, "N.S."),
        }
    }
}

impl std::error::Error for EngineUnavailable {}

/// How [`ServingEngine::serve`] derives the concurrency (batch) limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchLimit {
    /// An explicit limit (the Figure 17 same-batch protocol): memory is
    /// whatever the caller encoded in the number.
    Fixed(usize),
    /// What the memory plan guarantees for the *largest possible* request —
    /// conservative peak sizing, so growth can never fail.
    WorstCase,
    /// Concurrency capped by the *smallest possible* request — optimistic;
    /// pair with [`KvModel::Paged`], whose ledger is the real gate.
    Optimistic,
}

/// How KV memory is modeled during a [`ServingEngine::serve`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvModel {
    /// The batch limit alone encodes memory (the legacy fixed-shape
    /// protocol, where the limit is already peak-derived): the run's page
    /// ledger reserves each resident's peak and is sized never to bind.
    BatchOnly,
    /// A page-granular ledger mirroring [`crate::PagedKvCache`] geometry.
    Paged(Reservation),
}

/// One serving run, declaratively: batch-limit derivation, memory model and
/// scheduler options — the one argument that tells [`ServingEngine::serve`]
/// which protocol to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Concurrency-limit derivation.
    pub batch: BatchLimit,
    /// KV memory model.
    pub memory: KvModel,
    /// Prefix-sharing / chunked-prefill options.
    pub opts: SchedOptions,
}

impl ServeConfig {
    /// The Figure 17 same-batch protocol: explicit limit, memory encoded in
    /// it.
    pub fn fixed_batch(limit: usize) -> Self {
        Self {
            batch: BatchLimit::Fixed(limit),
            memory: KvModel::BatchOnly,
            opts: SchedOptions::default(),
        }
    }

    /// Conservative peak-sized admission: the limit covers the largest
    /// possible request, so no preemption can occur.
    pub fn worst_case() -> Self {
        Self {
            batch: BatchLimit::WorstCase,
            memory: KvModel::BatchOnly,
            opts: SchedOptions::default(),
        }
    }

    /// Paged admission against the simulated page ledger, optimistic
    /// concurrency (the `prefix_sweep` / cluster-replica path).
    pub fn paged(reservation: Reservation) -> Self {
        Self {
            batch: BatchLimit::Optimistic,
            memory: KvModel::Paged(reservation),
            opts: SchedOptions::default(),
        }
    }

    /// Replaces the scheduler options (builder-style).
    pub fn with_opts(mut self, opts: SchedOptions) -> Self {
        self.opts = opts;
        self
    }
}

/// Reference-shape speed summary of one engine, for routers and admission
/// policies that must compare replicas of *different* hardware: how fast
/// this engine drains decode work, chews through prompt tokens, and spaces
/// consecutive tokens of one sequence. Exact cost-model numbers at a fixed
/// reference shape — relative magnitudes are what matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedProfile {
    /// GPU name of the underlying spec (e.g. `"A100-80G-SXM4"`).
    pub gpu: &'static str,
    /// Aggregate decode throughput at the reference batch, tokens/s — the
    /// work-normalization constant for load balancing.
    pub decode_tps: f64,
    /// Prefill bandwidth for a lone reference prompt, prompt tokens/s.
    pub prefill_tps: f64,
    /// Per-step decode latency at the reference batch, seconds — the
    /// inter-token gap one resident sequence observes.
    pub decode_step_s: f64,
}

/// What one decoder layer of a step costs, by kernel family — the split
/// Figure 2a plots. Every step price the engine quotes is
/// `total_s() × layers / runtime efficiency + step overhead`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// The layer's GEMMs (attention projections + FFN / routed experts).
    pub gemm_s: f64,
    /// The attention launch.
    pub attention_s: f64,
    /// Auxiliary elementwise kernels (norms, activation quant, RoPE,
    /// residual): activation reads + writes and their launches.
    pub misc_s: f64,
    /// The two tensor-parallel all-reduces. Exactly `0.0` at TP=1.
    pub all_reduce_s: f64,
}

impl LayerCost {
    /// The layer's total, seconds.
    pub fn total_s(&self) -> f64 {
        self.gemm_s + self.attention_s + self.misc_s + self.all_reduce_s
    }
}

impl ServingEngine {
    /// Builds an engine, checking model support and device memory.
    ///
    /// # Errors
    /// [`EngineUnavailable::NotSupported`] or [`EngineUnavailable::OutOfMemory`].
    pub fn new(
        gpu: GpuSpec,
        model: ModelConfig,
        system: SystemConfig,
    ) -> Result<Self, EngineUnavailable> {
        Self::with_tp(gpu, model, system, TpGroup::single())
    }

    /// Builds an engine over a tensor-parallel group of `tp.ways` identical
    /// GPUs: weights and KV heads shard across the group (a 70B model that
    /// OOMs one GPU can fit four), every layer runs per-GPU shard shapes,
    /// and each row-parallel projection ends in a ring all-reduce priced by
    /// [`TpGroup::all_reduce_latency`]. `TpGroup::single()` reproduces the
    /// single-GPU engine bit for bit.
    ///
    /// The group size must divide the model's query *and* KV head counts
    /// (the Megatron requirement): every GPU then holds exactly
    /// `kv_heads / ways` KV heads, so the memory plan's per-GPU token cost
    /// and the attention shard the cost model prices are the same exact
    /// integer. Ragged groups, where the busiest GPU would hold more heads
    /// than the plan charges, are rejected rather than silently
    /// under-budgeted.
    ///
    /// # Errors
    /// [`EngineUnavailable::NotSupported`] (unsupported model, or `tp.ways`
    /// does not divide the head counts) or
    /// [`EngineUnavailable::OutOfMemory`].
    pub fn with_tp(
        gpu: GpuSpec,
        model: ModelConfig,
        system: SystemConfig,
        tp: TpGroup,
    ) -> Result<Self, EngineUnavailable> {
        if !system.supports(&model) {
            return Err(EngineUnavailable::NotSupported);
        }
        if tp.ways > 1 && (model.heads % tp.ways != 0 || model.kv_heads % tp.ways != 0) {
            return Err(EngineUnavailable::NotSupported);
        }
        let plan =
            MemoryPlan::plan_tp(&model, &gpu, system.weight_bits(), system.kv_bits(), tp.ways)
                .ok_or(EngineUnavailable::OutOfMemory)?;
        Ok(Self { gpu, model, system, plan, tp })
    }

    /// The memory plan in force.
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// The tensor-parallel group this engine models.
    pub fn tp(&self) -> &TpGroup {
        &self.tp
    }

    /// The engine's [`SpeedProfile`] at the reference shape (batch 32,
    /// sequence length 1024) — what a cluster router sees of this replica's
    /// hardware. Derived entirely from the engine's own cost model, so a
    /// faster spec, a wider TP group or a cheaper system config all move it.
    pub fn speed_profile(&self) -> SpeedProfile {
        const REF_BATCH: usize = 32;
        const REF_LEN: usize = 1024;
        let mut cost = CostModel::new(self);
        let step_s = cost.decode_step(REF_BATCH, REF_BATCH * REF_LEN);
        SpeedProfile {
            gpu: self.gpu.name,
            decode_tps: REF_BATCH as f64 / step_s,
            prefill_tps: REF_LEN as f64 / cost.prefill_wave(&[(REF_LEN, 0)]),
            decode_step_s: step_s,
        }
    }

    /// GEMM latency of one decoder layer at token batch `batch` — 4–8 GEMM
    /// shapes, evaluated cold; every price reads it through a
    /// [`CostModel`]'s [`GemmMemo`].
    ///
    /// Dense models run four fused GEMMs per layer: QKV, attention out, FFN
    /// gate+up, FFN down. MoE models route each token to
    /// `active_experts` of `experts` FFNs: every touched expert's weights
    /// stream from HBM while each processes only its share of tokens — the
    /// memory-bound regime that makes Mixtral expensive to serve.
    fn layer_gemm_latency(&self, batch: usize) -> f64 {
        let cfg = self.system.gemm_config();
        let h = self.model.hidden;
        let kv = self.model.kv_heads * self.model.head_dim();
        // Megatron sharding: QKV and FFN-up are column-parallel (output dim
        // per GPU), attention-out and FFN-down are row-parallel (inner dim
        // per GPU). `TpGroup::shard` is the exact integer quotient, so a
        // TP=1 engine runs the very same shapes it always did.
        let qkv_n = self.tp.shard(h) + 2 * self.tp.shard(kv);
        let ffn_shard = self.tp.shard(self.model.ffn);
        let mut t = 0.0;
        // Attention projections (shared by dense and MoE).
        for (n, k) in [(qkv_n, h), (h, self.tp.shard(h))] {
            t += gemm_latency(&self.gpu, cfg, GemmShape { m: batch, n, k }).total_s;
        }
        let e = self.model.experts;
        if e == 1 {
            for (n, k) in [(2 * ffn_shard, h), (h, ffn_shard)] {
                t += gemm_latency(&self.gpu, cfg, GemmShape { m: batch, n, k }).total_s;
            }
        } else {
            let routed = batch * self.model.active_experts;
            let touched = e.min(routed.max(1));
            let tokens_per_expert = (routed / touched).max(1);
            for (n, k) in [(2 * ffn_shard, h), (h, ffn_shard)] {
                t += touched as f64
                    * gemm_latency(&self.gpu, cfg, GemmShape { m: tokens_per_expert, n, k })
                        .total_s;
            }
        }
        t
    }

    /// The one step price: a step pushing `tokens` tokens through every layer
    /// — a decode batch or a prefill wave — around the given attention
    /// launch and GEMM seconds.
    fn layer_cost(&self, tokens: usize, attention_s: f64, gemm_s: f64) -> LayerCost {
        // One FP16 activation tile.
        let tile_bytes = 2.0 * tokens as f64 * self.model.hidden as f64;
        LayerCost {
            gemm_s,
            attention_s,
            // Each auxiliary kernel reads and writes the tile and is launched.
            misc_s: MISC_KERNELS_PER_LAYER
                * (2.0 * tile_bytes / self.gpu.dram_bytes_per_s + self.gpu.kernel_overhead_s),
            // The two row-parallel projections (attention out, FFN down) each
            // end in a ring all-reduce over the tile.
            all_reduce_s: 2.0 * self.tp.all_reduce_latency(tile_bytes),
        }
    }

    /// A whole step from its per-layer cost.
    fn step_latency(&self, layer: LayerCost) -> f64 {
        layer.total_s() * self.model.layers as f64 / self.system.runtime_efficiency()
            + STEP_OVERHEAD_S
    }

    /// Latency of one decode step over a heterogeneous batch: attention is
    /// charged per-sequence at each sequence's true KV length (summed), not
    /// at the batch-mean length, so mixed-length batches are costed honestly.
    pub fn decode_step_latency_hetero(&self, seq_lens: &[usize]) -> f64 {
        CostModel::new(self).decode_step(seq_lens.len(), seq_lens.iter().sum())
    }

    /// The per-layer cost of a decode step over `batch` sequences holding
    /// `total_tokens` cached tokens between them — what Figure 2a splits
    /// into attention / GEMM / others.
    pub fn decode_layer_cost(&self, batch: usize, total_tokens: usize) -> LayerCost {
        CostModel::new(self).decode_layer(batch, total_tokens)
    }

    /// Latency to prefill a wave of prompt chunks `(new_tokens,
    /// past_tokens)`: only the new tokens run through the GEMMs and write
    /// KV, while attention still covers the cached past (aliased shared
    /// prefix and/or earlier chunks). A wave of whole prompts is one `(s, 0)`
    /// chunk each.
    pub fn prefill_latency_chunked(&self, chunks: &[(usize, usize)]) -> f64 {
        CostModel::new(self).prefill_wave(chunks)
    }

    /// The one entry point: serves `spec` under the batch-limit derivation,
    /// memory model and scheduler options `cfg` declares. It sizes the limit
    /// and the page ledger, then runs them as a one-replica fleet of the
    /// [`crate::cluster`] driver — so there is exactly one serving code path
    /// to keep spec-parametric.
    ///
    /// # Errors
    /// [`EngineUnavailable::OutOfMemory`] when the config's sizing cannot
    /// hold even one worst-case request.
    pub fn serve(
        &self,
        spec: &WorkloadSpec,
        policy: Box<dyn SchedulingPolicy>,
        cfg: ServeConfig,
    ) -> Result<ServingReport, EngineUnavailable> {
        let (limit, budget) = match cfg.memory {
            KvModel::BatchOnly => {
                // The ledger below never binds, so nothing catches an
                // over-optimistic limit: "not even the smallest request fits"
                // must error rather than clamp to 1.
                let limit = match cfg.batch {
                    BatchLimit::Fixed(n) => n,
                    BatchLimit::WorstCase => self.peak_sized_batch(spec.max_peak_len())?,
                    BatchLimit::Optimistic => self.peak_sized_batch(spec.min_peak_len())?,
                };
                // Every resident reserves at most its own peak, so a pool of
                // `limit` worst-case peaks fills only after the limit does.
                let layers = self.model.layers;
                let pages = (spec.max_peak_len().div_ceil(PAGE_TOKENS) * layers)
                    .checked_mul(limit)
                    .expect("the batch limit's page pool fits usize");
                (limit, PageBudget::new(PAGE_TOKENS, layers, pages, Reservation::Peak))
            }
            KvModel::Paged(reservation) => {
                let (budget, optimistic) =
                    self.paged_budget(spec, reservation, cfg.opts.preemption)?;
                let limit = match cfg.batch {
                    BatchLimit::Fixed(n) => n,
                    BatchLimit::WorstCase => self.plan.max_batch(spec.max_peak_len()).max(1),
                    BatchLimit::Optimistic => optimistic,
                };
                (limit, budget)
            }
        };
        let sched = Scheduler::open(limit, policy, cfg.opts);
        let (mut sched, budget) = crate::cluster::serve_one(self, spec, sched, budget);
        let peak_unique_pages = match cfg.memory {
            KvModel::BatchOnly => 0,
            KvModel::Paged(_) => budget.peak_pages(),
        };
        Ok(ServingReport::fold(&mut sched, limit, peak_unique_pages))
    }

    /// [`MemoryPlan::max_batch`] for requests peaking at `peak_len` tokens,
    /// or [`EngineUnavailable::OutOfMemory`] when not even one fits.
    fn peak_sized_batch(&self, peak_len: usize) -> Result<usize, EngineUnavailable> {
        match self.plan.max_batch(peak_len) {
            0 => Err(EngineUnavailable::OutOfMemory),
            b => Ok(b),
        }
    }

    /// Bytes one simulated KV page holds: [`PAGE_TOKENS`] tokens of one
    /// layer's K+V at this engine's KV precision — what a page's trip over
    /// the host link is priced at.
    pub fn kv_page_bytes(&self) -> u64 {
        let page_tokens = u64::try_from(PAGE_TOKENS).expect("page size fits u64");
        let layers = u64::try_from(self.model.layers).expect("layer count fits u64");
        page_tokens * self.plan.kv_bytes_per_token / layers
    }

    /// Sizes the page ledger — with its host tier attached under
    /// [`PreemptionMode::Swap`] — and the optimistic batch limit this engine
    /// uses for paged serving of `spec`: what every [`crate::cluster`]
    /// replica runs against, [`ServingEngine::serve`]'s lone one included.
    ///
    /// # Errors
    /// [`EngineUnavailable::OutOfMemory`] when a worst-case request exceeds
    /// the whole page pool.
    pub(crate) fn paged_budget(
        &self,
        spec: &WorkloadSpec,
        reservation: Reservation,
        preemption: PreemptionMode,
    ) -> Result<(PageBudget, usize), EngineUnavailable> {
        let layers = self.model.layers;
        // `max_tokens` counts whole-model tokens; each occupies a slot in
        // every layer's page table.
        let total_pages = (usize::try_from(self.plan.max_tokens).expect("KV token budget fits usize")
            * layers)
            / PAGE_TOKENS;
        let mut budget = PageBudget::new(PAGE_TOKENS, layers, total_pages, reservation);
        let worst = spec.max_peak_len().div_ceil(PAGE_TOKENS) * layers;
        if worst > total_pages {
            return Err(EngineUnavailable::OutOfMemory);
        }
        if preemption == PreemptionMode::Swap {
            budget.enable_host_tier(HOST_TIER_FACTOR * total_pages);
        }
        // The batch limit caps concurrency at what the pool could hold if
        // every request were as small as possible; the page budget is the
        // real gate.
        let optimistic = self.plan.max_batch(spec.min_peak_len()).max(1);
        Ok((budget, optimistic))
    }

    /// The paper's headline measurement: maximum achievable throughput under
    /// the device memory constraint.
    ///
    /// # Errors
    /// [`EngineUnavailable::OutOfMemory`] when not even one sequence fits.
    pub fn max_throughput(&self, spec: &WorkloadSpec) -> Result<ServingReport, EngineUnavailable> {
        // Memory-derived batch limit: every request sized at its peak.
        let batch = self.peak_sized_batch(spec.max_peak_len())?;
        // Serve enough requests for steady state (≥2 full waves).
        let spec = WorkloadSpec { num_requests: spec.num_requests.max(batch * 2), ..spec.clone() };
        self.serve(&spec, Box::new(Fcfs), ServeConfig::fixed_batch(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ArrivalPattern;
    use crate::scheduler::{FinishedRequest, MemoryAware, ShortestJobFirst};

    fn engine(gpu: GpuSpec, model: ModelConfig, sys: SystemConfig) -> ServingEngine {
        ServingEngine::new(gpu, model, sys).expect("engine must build")
    }

    /// The old `run_with_batch` protocol through the unified entry point:
    /// FCFS at an explicit limit, memory encoded in the limit.
    fn run_batch(e: &ServingEngine, wl: &WorkloadSpec, limit: usize) -> ServingReport {
        e.serve(wl, Box::new(Fcfs), ServeConfig::fixed_batch(limit)).expect("serves")
    }

    /// The old `run_with_arrivals` protocol: uniformly staggered arrivals
    /// at `rate_rps`, FCFS at an explicit limit.
    fn run_arrivals(e: &ServingEngine, wl: &WorkloadSpec, limit: usize, rate_rps: f64) -> ServingReport {
        let spec = wl.clone().with_arrivals(ArrivalPattern::Uniform { rate_rps });
        e.serve(&spec, Box::new(Fcfs), ServeConfig::fixed_batch(limit)).expect("serves")
    }

    fn tput(gpu: GpuSpec, model: ModelConfig, sys: SystemConfig) -> f64 {
        engine(gpu, model, sys)
            .max_throughput(&WorkloadSpec::paper(64))
            .expect("serves")
            .throughput_tps
    }

    fn best_trt(gpu: GpuSpec, model: ModelConfig) -> f64 {
        [SystemConfig::TrtFp16, SystemConfig::TrtW8A8, SystemConfig::TrtW4A16]
            .into_iter()
            .filter_map(|s| {
                ServingEngine::new(gpu.clone(), model.clone(), s)
                    .ok()?
                    .max_throughput(&WorkloadSpec::paper(64))
                    .ok()
            })
            .map(|r| r.throughput_tps)
            .fold(0.0, f64::max)
    }

    #[test]
    fn qserve_beats_best_trt_on_a100_llama2_7b() {
        // Table 4: 1.25× on A100 for Llama-2-7B.
        let m = ModelConfig::llama2_7b();
        let q = tput(GpuSpec::a100(), m.clone(), SystemConfig::QServePerChannel);
        let t = best_trt(GpuSpec::a100(), m);
        let speedup = q / t;
        assert!(
            (1.05..2.2).contains(&speedup),
            "A100 Llama-2-7B speedup {} out of band",
            speedup
        );
    }

    #[test]
    fn qserve_l40s_speedup_larger_than_a100() {
        // Figure 15: the L40S gains (1.47-3.47×) exceed the A100 gains
        // (1.17-2.4×) for the same models.
        let m = ModelConfig::llama2_13b();
        let a100 = tput(GpuSpec::a100(), m.clone(), SystemConfig::QServePerChannel)
            / best_trt(GpuSpec::a100(), m.clone());
        let l40s = tput(GpuSpec::l40s(), m.clone(), SystemConfig::QServePerGroup)
            / best_trt(GpuSpec::l40s(), m);
        assert!(l40s > a100, "L40S speedup {} should exceed A100 {}", l40s, a100);
    }

    #[test]
    fn atom_and_quarot_slower_than_trt_w8a8() {
        // Figure 2b on A100, Llama-2-7B.
        let m = ModelConfig::llama2_7b();
        let w8a8 = tput(GpuSpec::a100(), m.clone(), SystemConfig::TrtW8A8);
        let atom = tput(GpuSpec::a100(), m.clone(), SystemConfig::AtomW4A4);
        let quarot = tput(GpuSpec::a100(), m, SystemConfig::QuarotW4A4);
        assert!(atom < w8a8, "Atom {} must lose to W8A8 {}", atom, w8a8);
        assert!(quarot < w8a8, "QuaRot {} must lose to W8A8 {}", quarot, w8a8);
    }

    #[test]
    fn l40s_qserve_competitive_with_a100_trt() {
        // Figure 1 / §6.3: QServe on the $8K L40S rivals TRT-LLM on the
        // $25K A100. In our cost model the crossover lands slightly lower
        // for Llama-2-7B (≈0.8×, attention-bandwidth-bound at max batch; see
        // EXPERIMENTS.md) but holds outright for GQA models, and the
        // per-dollar advantage is ≈2.5× everywhere.
        let m7 = ModelConfig::llama2_7b();
        let l40s_7b = tput(GpuSpec::l40s(), m7.clone(), SystemConfig::QServePerGroup);
        let a100_7b = best_trt(GpuSpec::a100(), m7);
        assert!(
            l40s_7b > a100_7b * 0.75,
            "L40S QServe {} should approach A100 TRT {}",
            l40s_7b,
            a100_7b
        );
        let per_dollar = (l40s_7b / GpuSpec::l40s().price_usd) / (a100_7b / GpuSpec::a100().price_usd);
        assert!(per_dollar > 2.0, "per-dollar advantage {} should be ≈2.5×", per_dollar);
        // GQA models: outright win (Table 4's Llama-3/Mistral/Yi rows).
        let m3 = ModelConfig::llama3_8b();
        let l40s_8b = tput(GpuSpec::l40s(), m3.clone(), SystemConfig::QServePerGroup);
        let a100_8b = best_trt(GpuSpec::a100(), m3);
        assert!(
            l40s_8b > a100_8b,
            "L40S QServe {} should beat A100 TRT {} for Llama-3-8B",
            l40s_8b,
            a100_8b
        );
    }

    #[test]
    fn fp16_70b_oom_everywhere() {
        assert_eq!(
            ServingEngine::new(GpuSpec::a100(), ModelConfig::llama2_70b(), SystemConfig::TrtFp16)
                .err(),
            Some(EngineUnavailable::OutOfMemory)
        );
    }

    #[test]
    fn unsupported_models_rejected() {
        assert_eq!(
            ServingEngine::new(GpuSpec::a100(), ModelConfig::llama3_8b(), SystemConfig::QuarotW4A4)
                .err(),
            Some(EngineUnavailable::NotSupported)
        );
    }

    #[test]
    fn engine_unavailable_is_a_std_error() {
        // Callers can `?` engine construction into boxed-error contexts.
        fn build() -> Result<ServingEngine, Box<dyn std::error::Error>> {
            Ok(ServingEngine::new(
                GpuSpec::a100(),
                ModelConfig::llama2_70b(),
                SystemConfig::TrtFp16,
            )?)
        }
        let err = build().expect_err("70B FP16 cannot fit");
        assert_eq!(err.to_string(), "OOM");
    }

    #[test]
    fn larger_batch_higher_throughput_until_saturation() {
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let wl = WorkloadSpec::paper(256);
        let t8 = run_batch(&e, &wl, 8).throughput_tps;
        let t64 = run_batch(&e, &wl, 64).throughput_tps;
        assert!(t64 > t8 * 2.0, "batching should pay: {} vs {}", t64, t8);
    }

    #[test]
    fn all_requests_complete_and_tokens_conserved() {
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let wl = WorkloadSpec::fixed(128, 32, 100);
        let r = run_batch(&e, &wl, 16);
        assert_eq!(r.completed, 100);
        assert!((r.throughput_tps * r.total_time_s - 3200.0).abs() < 1.0);
        assert!(r.prefill_time_s + r.decode_time_s <= r.total_time_s + 1e-9);
    }

    #[test]
    fn same_batch_qserve_beats_w8a8() {
        // Figure 17: ~1.45× same-batch speedup for Llama-2-7B on L40S.
        let m = ModelConfig::llama2_7b();
        let q = engine(GpuSpec::l40s(), m.clone(), SystemConfig::QServePerGroup);
        let t = engine(GpuSpec::l40s(), m, SystemConfig::TrtW8A8);
        let wl = WorkloadSpec::paper(128);
        for batch in [16usize, 32, 64] {
            let sq = run_batch(&q, &wl, batch).throughput_tps;
            let st = run_batch(&t, &wl, batch).throughput_tps;
            assert!(
                sq > st,
                "batch {}: QServe {} should beat W8A8 {} at the same batch",
                batch,
                sq,
                st
            );
        }
    }

    #[test]
    fn decode_latency_increases_with_seq_len() {
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let step = |len| e.decode_step_latency_hetero(&[len; 64]);
        assert!(step(2048) > step(256));
    }

    #[test]
    fn totals_priced_step_equals_the_per_sequence_price_bit_for_bit() {
        // The tick prices decode from the scheduler's `(count, Σ prefilled)`
        // counters, through its memo; the lengths themselves are never
        // materialized. On every tick of a chunked, preempting run that price
        // and the cold per-sequence one must agree to the bit — the
        // counters, the adapter and the memo in one check.
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let opts = SchedOptions { chunk_tokens: Some(64), ..SchedOptions::default() };
        let reqs = WorkloadSpec::chat(24, 5).sample();
        let mut sched = Scheduler::open(6, Box::new(Fcfs), opts);
        for r in reqs {
            sched.submit(r);
        }
        let mut budget = PageBudget::new(16, 2, 160, Reservation::OnDemand);
        let mut exec = CostModel::new(&e);
        let mut compared = 0usize;
        while !sched.is_done() {
            let lens: Vec<usize> = sched
                .running()
                .filter(|r| r.prefill_remaining() == 0)
                .map(|r| r.prefilled())
                .collect();
            let (batch, total_tokens) = sched.decode_totals();
            assert_eq!((batch, total_tokens), (lens.len(), lens.iter().sum()));
            if batch > 0 {
                assert_eq!(
                    exec.decode_step(batch, total_tokens).to_bits(),
                    e.decode_step_latency_hetero(&lens).to_bits()
                );
                compared += 1;
            }
            sched.tick(&mut budget, &mut exec);
        }
        assert!(sched.preemptions() > 0 && compared > 100, "the run must churn");
    }

    qserve_tensor::props! {
        /// A replica's memo is invisible in the prices: a warm `CostModel`
        /// quotes every decode step, its layer split field by field, and
        /// every chunked prefill wave with the very bits of the engine's
        /// public methods, each of which quotes through a fresh (cold) one —
        /// dense and MoE layers, TP 1 and 4, token counts repeating (hits)
        /// and fresh (misses), GEMM totals on both sides of
        /// `GEMM_MEMO_DENSE`.
        fn the_memo_returns_exactly_the_cold_price(rng, cases = 24) {
            let (model, tp) = match rng.index(3) {
                0 => (ModelConfig::llama2_7b(), TpGroup::single()),
                1 => (ModelConfig::mixtral_8x7b(), TpGroup::single()),
                _ => (ModelConfig::llama2_70b(), TpGroup::nvlink(4)),
            };
            let e = ServingEngine::with_tp(GpuSpec::a100(), model, SystemConfig::QServePerChannel, tp)
                .expect("builds");
            let mut cost = CostModel::new(&e);
            let unused = Scheduler::open(1, Box::new(Fcfs), SchedOptions::default());
            let bits = |c: LayerCost| [c.gemm_s, c.attention_s, c.misc_s, c.all_reduce_s].map(f64::to_bits);
            for _ in 0..48 {
                // Few distinct batch sizes, so most decode prices are hits.
                let lens: Vec<usize> = (0..1 + rng.index(24)).map(|_| 1 + rng.index(4096)).collect();
                let (batch, total_tokens) = (lens.len(), lens.iter().sum());
                let cold = e.decode_step_latency_hetero(&lens).to_bits();
                let cold_layer = bits(e.decode_layer_cost(batch, total_tokens));
                for _ in 0..2 {
                    assert_eq!(cost.decode_step(batch, total_tokens).to_bits(), cold);
                    assert_eq!(bits(cost.decode_layer(batch, total_tokens)), cold_layer);
                }
                // Chunk slices (dense) or a few wide chunk sizes whose
                // totals repeat above the dense ceiling (sparse).
                let wide = rng.index(2) == 1;
                let slices: Vec<(RequestId, usize, usize)> = (0..1 + rng.index(8))
                    .map(|i| {
                        let new = if wide { [511, 1024, 1537, 2048][rng.index(4)] } else { 1 + rng.index(32) };
                        (RequestId(i as u64), new, rng.index(4096))
                    })
                    .collect();
                let pairs: Vec<(usize, usize)> = slices.iter().map(|&(_, new, past)| (new, past)).collect();
                let cold = e.prefill_latency_chunked(&pairs).to_bits();
                for _ in 0..2 {
                    assert_eq!(cost.prefill(&unused, &slices).to_bits(), cold);
                }
            }
            assert!(!cost.memo.sparse.is_empty(), "no GEMM total reached the sparse map");
        }
    }

    #[test]
    fn hetero_decode_charges_true_lengths() {
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        // A mixed batch must cost more than its shortest-uniform batch and
        // less than its longest-uniform batch.
        let mixed = e.decode_step_latency_hetero(&[256, 512, 1024, 2048]);
        assert!(mixed > e.decode_step_latency_hetero(&[256; 4]));
        assert!(mixed < e.decode_step_latency_hetero(&[2048; 4]));
    }

    #[test]
    fn mixtral_moe_served_and_slower_than_dense_twin() {
        // Mixtral routes 2 of 8 experts per token; at serving batches every
        // expert's weights stream each step, so a Mixtral decode step must
        // cost more than a dense model of the same *active* compute.
        let moe = engine(GpuSpec::a100(), ModelConfig::mixtral_8x7b(), SystemConfig::QServePerChannel);
        let dense = engine(GpuSpec::a100(), ModelConfig::mistral_7b(), SystemConfig::QServePerChannel);
        let t_moe = moe.decode_step_latency_hetero(&[1024; 64]);
        let t_dense = dense.decode_step_latency_hetero(&[1024; 64]);
        assert!(
            t_moe > t_dense * 1.5,
            "MoE step {} should clearly exceed dense step {}",
            t_moe,
            t_dense
        );
        // And it still serves end to end.
        let r = moe.max_throughput(&WorkloadSpec::paper(16)).expect("serves");
        assert!(r.throughput_tps > 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let wl = WorkloadSpec::paper(32);
        let a = run_batch(&e, &wl, 16);
        let b = run_batch(&e, &wl, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn online_arrivals_latency_grows_with_load() {
        // Under light load each request sails through; near saturation,
        // queueing delay dominates. Throughput under light load tracks the
        // offered rate, not the system's peak.
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let output_len = 64;
        let wl = WorkloadSpec::fixed(256, output_len, 48);
        let offline = run_batch(&e, &wl, 16);
        let peak_rps = offline.throughput_tps / output_len as f64;
        let light = run_arrivals(&e, &wl, 16, peak_rps * 0.3);
        let heavy = run_arrivals(&e, &wl, 16, peak_rps * 3.0);
        assert!(
            light.mean_request_latency_s < heavy.mean_request_latency_s,
            "light-load latency {} should beat heavy-load {}",
            light.mean_request_latency_s,
            heavy.mean_request_latency_s
        );
        // Light load: throughput ≈ offered load, well below peak.
        assert!(light.throughput_tps < offline.throughput_tps * 0.75);
        assert_eq!(light.completed, 48);
        assert_eq!(heavy.completed, 48);
    }

    #[test]
    fn latency_stats_sane_and_fifo_bounded() {
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let wl = WorkloadSpec::fixed(128, 32, 64);
        let r = run_batch(&e, &wl, 8);
        assert!(r.mean_request_latency_s > 0.0);
        assert!(r.max_request_latency_s >= r.mean_request_latency_s);
        // FIFO admission: the worst request waits at most the full run.
        assert!(r.max_request_latency_s <= r.total_time_s + 1e-9);
        // With 8 waves of 8, the mean must be well below the max (no
        // starvation pile-up at the end).
        assert!(r.mean_request_latency_s < r.max_request_latency_s);
        // Percentiles are ordered and TTFT precedes completion.
        assert!(r.p50_latency_s <= r.p95_latency_s);
        assert!(r.p95_latency_s <= r.p99_latency_s);
        assert!(r.p99_latency_s <= r.max_request_latency_s + 1e-12);
        assert!(r.mean_ttft_s > 0.0 && r.mean_ttft_s < r.mean_request_latency_s);
    }

    #[test]
    fn sjf_beats_fcfs_mean_latency_on_mixed_workload() {
        // A tight batch limit creates real queueing, where admission order
        // matters: shortest-job-first clears the chat turns instead of
        // parking them behind long-document requests.
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let spec = WorkloadSpec::mixed(48, 17);
        let fcfs = e.serve(&spec, Box::new(Fcfs), ServeConfig::fixed_batch(4)).expect("serves");
        let sjf = e
            .serve(&spec, Box::new(ShortestJobFirst), ServeConfig::fixed_batch(4))
            .expect("serves");
        assert_eq!(fcfs.completed, 48);
        assert_eq!(sjf.completed, 48);
        assert!(
            sjf.mean_request_latency_s < fcfs.mean_request_latency_s,
            "SJF {} should beat FCFS {} on a bimodal mix",
            sjf.mean_request_latency_s,
            fcfs.mean_request_latency_s
        );
        // Same work either way: identical token totals, similar makespan.
        assert!((sjf.throughput_tps * sjf.total_time_s
            - fcfs.throughput_tps * fcfs.total_time_s)
            .abs()
            < 1.0);
    }

    #[test]
    fn memory_aware_paged_serving_completes_heterogeneous_mix() {
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let spec = WorkloadSpec::mixed(32, 23);
        let r = e
            .serve(
                &spec,
                Box::new(MemoryAware::default()),
                ServeConfig::paged(Reservation::OnDemand),
            )
            .expect("serves");
        assert_eq!(r.completed, 32);
        assert!(r.throughput_tps > 0.0);
        assert!(r.p99_latency_s >= r.p50_latency_s);
    }

    #[test]
    fn sharing_cuts_unique_pages_and_ttft() {
        // The acceptance bar for prefix sharing: the same multi-tenant
        // workload, same policy, same pool — sharing ON must finish with a
        // strictly lower unique-page high-water mark *and* a lower mean
        // TTFT than sharing OFF (it skips recomputing resident prefixes and
        // stores them once).
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let spec = WorkloadSpec::shared_prefix(4, 512, 32, 41);
        let opts = crate::scheduler::SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() };
        let shared = e
            .serve(&spec, Box::new(Fcfs), ServeConfig::paged(Reservation::Peak).with_opts(opts))
            .expect("serves");
        let private = e
            .serve(&spec, Box::new(Fcfs), ServeConfig::paged(Reservation::Peak))
            .expect("serves");
        assert_eq!(shared.completed, 32);
        assert_eq!(private.completed, 32);
        assert!(
            shared.peak_unique_pages < private.peak_unique_pages,
            "sharing must shrink true residency: {} vs {}",
            shared.peak_unique_pages,
            private.peak_unique_pages
        );
        assert!(
            shared.mean_ttft_s < private.mean_ttft_s,
            "sharing must cut TTFT: {} vs {}",
            shared.mean_ttft_s,
            private.mean_ttft_s
        );
        // Same tokens served either way.
        assert!(
            (shared.throughput_tps * shared.total_time_s
                - private.throughput_tps * private.total_time_s)
                .abs()
                < 1.0
        );
    }

    #[test]
    fn chunked_prefill_serves_identical_tokens() {
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let spec = WorkloadSpec::mixed(24, 19)
            .with_arrivals(ArrivalPattern::Uniform { rate_rps: 4.0 });
        let whole = e
            .serve(&spec, Box::new(Fcfs), ServeConfig::paged(Reservation::Peak))
            .expect("serves");
        for chunk in [256usize, 1024] {
            let opts = crate::scheduler::SchedOptions {
                share_prefixes: false,
                chunk_tokens: Some(chunk),
                ..SchedOptions::default()
            };
            let chunked = e
                .serve(&spec, Box::new(Fcfs), ServeConfig::paged(Reservation::Peak).with_opts(opts))
                .expect("serves");
            assert_eq!(chunked.completed, 24);
            // Work conserved: identical generated-token totals.
            assert!(
                (chunked.throughput_tps * chunked.total_time_s
                    - whole.throughput_tps * whole.total_time_s)
                    .abs()
                    < 1.0
            );
            // Deterministic replay.
            let again = e
                .serve(&spec, Box::new(Fcfs), ServeConfig::paged(Reservation::Peak).with_opts(opts))
                .expect("serves");
            assert_eq!(chunked, again);
        }
    }

    #[test]
    fn chunked_prefill_bounds_decode_stalls() {
        // One 4096-token document arrives amid a stream of chat turns.
        // Whole-prompt prefill inserts its entire latency between two decode
        // ticks — every running request's next token stalls behind it.
        // 256-token chunks bound that stall near a single chunk's cost.
        // Metric: the worst clock advance between consecutive decode steps
        // while requests were mid-decode.
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let mk_reqs = || {
            let mut reqs = WorkloadSpec::fixed(64, 48, 24)
                .with_arrivals(ArrivalPattern::Uniform { rate_rps: 8.0 })
                .sample();
            reqs[4] = crate::request::Request::new(RequestId(4), 4096, 48, reqs[4].arrival_s);
            reqs
        };
        let worst_gap = |chunk_tokens: Option<usize>| -> f64 {
            let opts = crate::scheduler::SchedOptions { share_prefixes: false, chunk_tokens, ..SchedOptions::default() };
            let mut sched = Scheduler::open(8, Box::new(Fcfs), opts);
            for r in mk_reqs() {
                sched.submit(r);
            }
            // The engine's own pricing, plus a note of which ticks decoded
            // and a count of retirements.
            struct Watched<'a>(CostModel<'a>, bool, usize);
            impl TickExecutor for Watched<'_> {
                fn prefill(&mut self, s: &Scheduler, slices: &[(RequestId, usize, usize)]) -> f64 {
                    self.0.prefill(s, slices)
                }
                fn swap(&mut self, s: &Scheduler, pages: usize) -> f64 {
                    self.0.swap(s, pages)
                }
                fn decode(&mut self, s: &Scheduler) -> f64 {
                    self.1 = true;
                    self.0.decode(s)
                }
                fn retired(&mut self, _: &Scheduler, done: &[FinishedRequest]) {
                    self.2 += done.len();
                }
            }
            let mut exec = Watched(CostModel::new(&e), false, 0);
            // A ledger the 24 requests cannot fill: the batch limit gates.
            let mut budget = PageBudget::new(PAGE_TOKENS, 1, 1 << 40, Reservation::OnDemand);
            let (mut last_decode, mut worst) = (None::<f64>, 0.0f64);
            while !sched.is_done() {
                sched.tick(&mut budget, &mut exec);
                if std::mem::take(&mut exec.1) {
                    if let Some(t) = last_decode {
                        worst = worst.max(sched.clock() - t);
                    }
                    // Survivors: someone who decoded this tick is still mid-decode.
                    last_decode = (sched.decode_totals().0 > 0).then_some(sched.clock());
                } else if sched.running().len() == 0 {
                    last_decode = None; // idled
                }
            }
            assert_eq!(exec.2, 24);
            worst
        };
        let whole = worst_gap(None);
        let chunked = worst_gap(Some(256));
        assert!(
            chunked < whole / 2.0,
            "chunking must bound the inter-token stall: {} vs {}",
            chunked,
            whole
        );
    }

    #[test]
    fn tp1_engine_bit_identical_to_legacy() {
        // `with_tp(TpGroup::single())` must reproduce the single-GPU engine
        // bit for bit — the identity the golden-snapshot CSVs rest on once
        // clusters model replicas as TP groups.
        let m = ModelConfig::llama2_7b();
        let legacy = engine(GpuSpec::a100(), m.clone(), SystemConfig::QServePerChannel);
        let tp1 = ServingEngine::with_tp(
            GpuSpec::a100(),
            m,
            SystemConfig::QServePerChannel,
            TpGroup::single(),
        )
        .expect("builds");
        assert_eq!(legacy.plan(), tp1.plan());
        for (batch, len) in [(1usize, 128usize), (16, 1024), (64, 1536)] {
            let lens = vec![len; batch];
            assert_eq!(
                legacy.decode_step_latency_hetero(&lens).to_bits(),
                tp1.decode_step_latency_hetero(&lens).to_bits()
            );
            let whole_prompts = vec![(len, 0); batch];
            assert_eq!(
                legacy.prefill_latency_chunked(&whole_prompts).to_bits(),
                tp1.prefill_latency_chunked(&whole_prompts).to_bits()
            );
        }
        let wl = WorkloadSpec::paper(32);
        assert_eq!(run_batch(&legacy, &wl, 16), run_batch(&tp1, &wl, 16));
    }

    #[test]
    fn tp_shards_compute_and_charges_communication() {
        let m = ModelConfig::llama2_7b();
        let mk = |tp: TpGroup| {
            ServingEngine::with_tp(GpuSpec::a100(), m.clone(), SystemConfig::QServePerChannel, tp)
                .expect("builds")
        };
        let tp1 = mk(TpGroup::single());
        let tp4 = mk(TpGroup::nvlink(4));
        // Sharding must speed a step up, but sublinearly: the all-reduce
        // and the unsharded auxiliary kernels don't scale.
        let t1 = tp1.decode_step_latency_hetero(&[1024; 64]);
        let t4 = tp4.decode_step_latency_hetero(&[1024; 64]);
        assert!(t4 < t1, "TP=4 step {} must beat TP=1 {}", t4, t1);
        assert!(t4 > t1 / 4.0, "TP=4 speedup cannot be ideal: {} vs {}", t4, t1);
        // A slow interconnect erodes the gain.
        let pcie = mk(TpGroup::pcie(4)).decode_step_latency_hetero(&[1024; 64]);
        assert!(pcie > t4, "PCIe all-reduce {} must cost more than NVLink {}", pcie, t4);
        // And the group holds more KV tokens than one GPU.
        assert!(tp4.plan().max_tokens > tp1.plan().max_tokens);
    }

    #[test]
    fn tp_rejects_ragged_head_splits() {
        // 32 query/KV heads cannot split 3 ways evenly: the busiest GPU
        // would hold 11 heads while the memory plan charged the even share,
        // silently over-admitting KV. Such groups are refused outright.
        let m = ModelConfig::llama2_7b();
        assert_eq!(
            ServingEngine::with_tp(
                GpuSpec::a100(),
                m.clone(),
                SystemConfig::QServePerChannel,
                TpGroup::nvlink(3),
            )
            .err(),
            Some(EngineUnavailable::NotSupported)
        );
        // GQA: Llama-3-8B has 8 KV heads — 16 ways divides the 32 query
        // heads but not the KV heads, so it is refused too; 8 ways works.
        let g = ModelConfig::llama3_8b();
        assert_eq!(
            ServingEngine::with_tp(
                GpuSpec::a100(),
                g.clone(),
                SystemConfig::QServePerGroup,
                TpGroup::nvlink(16),
            )
            .err(),
            Some(EngineUnavailable::NotSupported)
        );
        assert!(ServingEngine::with_tp(
            GpuSpec::a100(),
            g,
            SystemConfig::QServePerGroup,
            TpGroup::nvlink(8),
        )
        .is_ok());
    }

    #[test]
    fn tp_rescues_fp16_70b_from_oom() {
        // FP16 70B OOMs a single A100 (Table 4's OOM cell) but serves once
        // the weights shard across a 4-GPU TP group.
        let m = ModelConfig::llama2_70b();
        assert_eq!(
            ServingEngine::new(GpuSpec::a100(), m.clone(), SystemConfig::TrtFp16).err(),
            Some(EngineUnavailable::OutOfMemory)
        );
        let tp4 = ServingEngine::with_tp(
            GpuSpec::a100(),
            m,
            SystemConfig::TrtFp16,
            TpGroup::nvlink(4),
        )
        .expect("70B FP16 fits a 4-way group");
        let r = tp4.max_throughput(&WorkloadSpec::paper(8)).expect("serves");
        assert!(r.throughput_tps > 0.0);
    }

    #[test]
    fn poisson_arrivals_served_to_completion() {
        let e = engine(GpuSpec::a100(), ModelConfig::llama2_7b(), SystemConfig::QServePerChannel);
        let spec = WorkloadSpec::chat(24, 3)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 2.0 });
        let r = e.serve(&spec, Box::new(Fcfs), ServeConfig::worst_case()).expect("serves");
        assert_eq!(r.completed, 24);
        assert!(r.total_time_s > 0.0);
    }
}
