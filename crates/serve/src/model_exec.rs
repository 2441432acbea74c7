//! End-to-end functional inference: a whole synthetic model deployed through
//! the QServe stack — QoQ-quantized weights in every block, W4A8 GEMM
//! kernels, paged KV4 caches per layer, fused FP16 attention — generating
//! tokens autoregressively.

use crate::block_exec::BlockRuntime;
use crate::kv_cache::{KvCacheConfig, KvCacheError, PagedKvCache, SequenceId};
use crate::prefix::PrefixIndex;
use crate::request::{RequestId, WorkloadSpec};
use crate::scheduler::{
    AdmittedWave, PageBudget, Reservation, SchedOptions, Scheduler, SchedulingPolicy,
    TickExecutor,
};
use qserve_core::pipeline::QoqConfig;
use qserve_kernels::attention::HeadTile;
use qserve_model::eval::{argmax, quantize_blocks};
use qserve_model::forward::{embed, lm_head};
use qserve_model::synth::SyntheticModel;
use qserve_tensor::Matrix;
use std::collections::HashMap;

/// A fully-deployed synthetic model: per-block runtimes plus one paged KV
/// cache per layer.
#[derive(Debug)]
pub struct ModelRuntime {
    model: SyntheticModel,
    blocks: Vec<BlockRuntime>,
    cache: PagedKvCache,
    next_seq: u64,
}

impl ModelRuntime {
    /// Quantizes every block of `model` with `cfg` (calibrating on
    /// `calib_tokens`) and allocates a KV cache with `pages` pages.
    pub fn deploy(model: &SyntheticModel, cfg: &QoqConfig, calib_tokens: &[u32], pages: usize) -> Self {
        let blocks = quantize_blocks(model, cfg, calib_tokens).iter().map(BlockRuntime::new).collect();
        let cache = PagedKvCache::new(
            KvCacheConfig {
                page_tokens: 16,
                kv_heads: model.config.kv_heads,
                head_dim: model.config.head_dim(),
                layers: model.config.layers,
                precision: cfg.kv_precision,
            },
            pages,
        );
        Self {
            model: model.clone(),
            blocks,
            cache,
            next_seq: 0,
        }
    }

    /// The underlying KV cache (for inspection).
    pub fn cache(&self) -> &PagedKvCache {
        &self.cache
    }

    /// Starts a new sequence, returning its id.
    ///
    /// # Errors
    /// Propagates cache registration errors.
    pub fn start_sequence(&mut self) -> Result<SequenceId, KvCacheError> {
        let id = SequenceId(self.next_seq);
        self.next_seq += 1;
        self.cache.register(id)?;
        Ok(id)
    }

    /// Releases a finished sequence's pages.
    ///
    /// # Errors
    /// Propagates cache errors.
    pub fn finish_sequence(&mut self, seq: SequenceId) -> Result<(), KvCacheError> {
        self.cache.release(seq)
    }

    /// The batched step: runs `rows` — each one token of one sequence —
    /// through every layer as a single `m = rows.len()` activation matrix,
    /// one W4A8 GEMM per projection, and returns the logits of the rows
    /// named in `logits_for` (indices into `rows`, in that order); the
    /// final norm and the vocabulary projection run for those rows only.
    ///
    /// A row's position is its sequence's cached length plus the number of
    /// earlier rows of the same sequence, so a sequence repeated in
    /// consecutive rows is a prefill chunk (see
    /// [`BlockRuntime::decode_step`]). Rows are independent of their batch:
    /// every result is bit-identical to feeding the same tokens through
    /// [`ModelRuntime::step`] one at a time.
    ///
    /// # Errors
    /// Propagates cache errors (e.g. out of pages).
    ///
    /// # Panics
    /// Panics if an index in `logits_for` is out of range.
    pub fn step_batch(
        &mut self,
        rows: &[(SequenceId, u32)],
        logits_for: &[usize],
    ) -> Result<Vec<Vec<f32>>, KvCacheError> {
        if rows.is_empty() {
            assert!(logits_for.is_empty(), "logits requested from an empty batch");
            return Ok(Vec::new());
        }
        let (seqs, tokens): (Vec<SequenceId>, Vec<u32>) = rows.iter().copied().unzip();
        let mut x = embed(&self.model, &tokens);
        let mut positions = Vec::with_capacity(rows.len());
        let mut next_pos: HashMap<SequenceId, usize> = HashMap::new();
        for &seq in &seqs {
            let pos = next_pos.entry(seq).or_insert_with(|| self.cache.seq_len(seq));
            positions.push(*pos);
            *pos += 1;
        }
        // One attention tile for the whole step: its buffers are reused by
        // every head, run and layer, and dropped with the step.
        let mut tile = HeadTile::default();
        for (layer, (runtime, (attn_norm, ffn_norm))) in
            self.blocks.iter().zip(&self.model.norms).enumerate()
        {
            x = runtime.decode_step_with(
                &x,
                &seqs,
                &positions,
                layer,
                &mut self.cache,
                attn_norm,
                ffn_norm,
                self.model.rope_base,
                &mut tile,
            )?;
        }
        if logits_for.is_empty() {
            return Ok(Vec::new());
        }
        let mut wanted = Matrix::zeros(logits_for.len(), x.cols());
        for (i, &row) in logits_for.iter().enumerate() {
            wanted.row_mut(i).copy_from_slice(x.row(row));
        }
        let logits = lm_head(&self.model, &wanted);
        Ok((0..logits.rows()).map(|i| logits.row(i).to_vec()).collect())
    }

    /// Runs one token through every layer (a one-row
    /// [`ModelRuntime::step_batch`]), returning the logits row.
    ///
    /// # Errors
    /// Propagates cache errors (e.g. out of pages).
    pub fn step(&mut self, seq: SequenceId, token: u32) -> Result<Vec<f32>, KvCacheError> {
        let mut logits = self.step_batch(&[(seq, token)], &[0])?;
        Ok(logits.pop().expect("one row requested"))
    }

    /// Runs `tokens` of one sequence as a single prefill batch, returning
    /// the last token's logits when `want_logits` (and there is a token),
    /// an empty row otherwise.
    fn prefill_slice(
        &mut self,
        seq: SequenceId,
        tokens: &[u32],
        want_logits: bool,
    ) -> Result<Vec<f32>, KvCacheError> {
        let rows: Vec<(SequenceId, u32)> = tokens.iter().map(|&t| (seq, t)).collect();
        let last = rows.len().checked_sub(1).filter(|_| want_logits);
        let mut logits = self.step_batch(&rows, last.as_slice())?;
        Ok(logits.pop().unwrap_or_default())
    }

    /// Greedy generation: prefills `prompt`, then emits `max_new` tokens by
    /// argmax. Returns the generated token ids.
    ///
    /// # Errors
    /// Propagates cache errors.
    pub fn generate_greedy(
        &mut self,
        seq: SequenceId,
        prompt: &[u32],
        max_new: usize,
    ) -> Result<Vec<u32>, KvCacheError> {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        let mut logits = Vec::new();
        for &t in prompt {
            logits = self.step(seq, t)?;
        }
        let mut out = Vec::with_capacity(max_new);
        for _ in 0..max_new {
            let next = argmax(&logits) as u32;
            out.push(next);
            logits = self.step(seq, next)?;
        }
        Ok(out)
    }
}

/// One request served end-to-end through [`ModelRuntime::serve_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedRequest {
    /// The scheduler-side identity (also the cache [`SequenceId`]).
    pub id: RequestId,
    /// The synthetic prompt that was prefilled.
    pub prompt: Vec<u32>,
    /// Greedily generated output tokens.
    pub output: Vec<u32>,
    /// Scheduler step at which the first output token completed.
    pub first_token_step: usize,
    /// Scheduler step at which the request finished.
    pub finish_step: usize,
}

/// The functional [`TickExecutor`] behind [`ModelRuntime::serve_with`]: every
/// step [`Scheduler::tick`] sequences runs through the deployed model over
/// the real [`PagedKvCache`], and the clock is charged *model steps* — one per
/// prefilled token, `1.0` per decode.
struct FunctionalExecutor<'a> {
    rt: &'a mut ModelRuntime,
    prompts: HashMap<RequestId, Vec<u32>>,
    index: PrefixIndex,
    /// Prompt/recompute tokens still to run through the model, per live
    /// request (the post-fork remainder).
    pending: HashMap<RequestId, Vec<u32>>,
    outputs: HashMap<RequestId, Vec<u32>>,
    logits: HashMap<RequestId, Vec<f32>>,
    /// The first cache error a hook met (hooks return costs, not results):
    /// every later hook is a no-op and `serve_with` returns it after the tick.
    failed: Option<KvCacheError>,
}

impl<'a> FunctionalExecutor<'a> {
    /// The executor, and the peak-reserving page ledger that gates it.
    fn new(rt: &'a mut ModelRuntime, prompts: HashMap<RequestId, Vec<u32>>) -> (Self, PageBudget) {
        let cfg = *rt.cache.config();
        let total_pages = rt.cache.free_pages() + rt.cache.used_pages();
        let budget = PageBudget::new(cfg.page_tokens, cfg.layers, total_pages, Reservation::Peak);
        let (index, failed) = (PrefixIndex::new(), None);
        let (pending, outputs, logits) = (HashMap::new(), HashMap::new(), HashMap::new());
        (Self { rt, prompts, index, pending, outputs, logits, failed }, budget)
    }

    /// Runs `step` unless an earlier one failed; a failure costs nothing.
    fn attempt(&mut self, step: impl FnOnce(&mut Self) -> Result<f64, KvCacheError>) -> f64 {
        if self.failed.is_some() {
            return 0.0;
        }
        step(self).unwrap_or_else(|e| {
            self.failed = Some(e);
            0.0
        })
    }
}

impl TickExecutor for FunctionalExecutor<'_> {
    fn prefill_wave(&mut self, sched: &Scheduler, wave: &AdmittedWave) -> f64 {
        self.attempt(|this| {
            let mut prefill_steps = 0usize;
            for ((&id, &full), &shared) in
                wave.ids.iter().zip(&wave.prefill_lens).zip(&wave.shared_lens)
            {
                let seq = SequenceId(id.0);
                let prompt = &this.prompts[&id];
                if shared > 0 {
                    // The prefix layer: a live donor holding at least the
                    // granted prefix, found by longest-prefix match with a
                    // same-group fallback (the index may surface a sibling
                    // that matches further but is not yet fully cached).
                    let donor = this
                        .index
                        .longest_shared_prefix(prompt)
                        .filter(|&(d, lcp)| lcp >= shared && this.rt.cache.seq_len(d) >= shared)
                        .map(|(d, _)| d)
                        .or_else(|| {
                            sched.running().iter().map(|r| SequenceId(r.id.0)).find(|&d| {
                                this.rt.cache.seq_len(d) >= shared
                                    && this
                                        .prompts
                                        .get(&RequestId(d.0))
                                        .is_some_and(|p| p.len() >= shared && p[..shared] == prompt[..shared])
                            })
                        })
                        .expect("scheduler granted a prefix no live sequence can donate");
                    this.rt.cache.fork(donor, seq, shared)?;
                } else {
                    this.rt.cache.register(seq)?;
                }
                this.index.insert(seq, prompt.clone());
                // Recompute-style remainder: un-aliased prompt plus any
                // generated tokens (peak reservation means none in practice).
                let mut feed: Vec<u32> = prompt[shared..].to_vec();
                feed.extend(this.outputs.get(&id).into_iter().flatten().copied());
                debug_assert_eq!(shared + feed.len(), full);
                if sched.options().chunk_tokens.is_none() {
                    // Whole remainder runs right here, member by member — so
                    // a same-wave sibling's prefix is cached before the next
                    // member's fork (the cascade the scheduler's grants
                    // assume).
                    this.logits.insert(id, this.rt.prefill_slice(seq, &feed, true)?);
                    prefill_steps += feed.len();
                    feed.clear();
                }
                this.pending.insert(id, feed);
            }
            Ok(prefill_steps as f64)
        })
    }

    /// Chunked work is metered by the scheduler and interleaved with decode
    /// steps for the already-full residents.
    fn prefill_chunks(&mut self, _: &Scheduler, chunks: &[(RequestId, usize, usize)]) -> f64 {
        self.attempt(|this| {
            let mut prefill_steps = 0usize;
            for &(id, n, _past) in chunks {
                let feed = this.pending.get_mut(&id).expect("chunk for a live request");
                let slice: Vec<u32> = feed.drain(..n).collect();
                let finished = feed.is_empty();
                let last = this.rt.prefill_slice(SequenceId(id.0), &slice, finished)?;
                prefill_steps += n;
                if finished {
                    this.logits.insert(id, last);
                }
            }
            Ok(prefill_steps as f64)
        })
    }

    fn swap(&mut self, _: &Scheduler, _pages: usize) -> f64 {
        unreachable!("peak-reserving budget cannot swap")
    }

    /// One real decode step for all decodable sequences at once: sample
    /// greedily from the last logits, then advance the model with a single
    /// batched step (sequences that just finished stay out of the batch).
    fn decode(&mut self, sched: &Scheduler) -> f64 {
        self.attempt(|this| {
            let mut rows = Vec::new();
            for r in sched.running().iter().filter(|r| r.prefill_remaining() == 0) {
                let next = argmax(&this.logits[&r.id]) as u32;
                this.outputs.entry(r.id).or_default().push(next);
                if r.remaining() > 1 {
                    rows.push((SequenceId(r.id.0), next));
                }
            }
            let every_row: Vec<usize> = (0..rows.len()).collect();
            for (&(seq, _), l) in rows.iter().zip(this.rt.step_batch(&rows, &every_row)?) {
                this.logits.insert(RequestId(seq.0), l);
            }
            Ok(1.0)
        })
    }

    /// Peak reservation means growth can never fail; if this driver ever
    /// moves to on-demand reservation, preempted ids must also be released
    /// from the real cache here.
    fn preempted(&mut self, _: &Scheduler, ids: &[RequestId]) {
        assert!(ids.is_empty(), "peak-reserving budget cannot preempt");
    }

    fn retired(&mut self, _: &Scheduler, ids: &[RequestId]) {
        self.attempt(|this| {
            for &id in ids {
                this.rt.finish_sequence(SequenceId(id.0))?;
                this.index.remove(SequenceId(id.0));
                this.logits.remove(&id);
                this.pending.remove(&id);
            }
            Ok(0.0)
        });
    }
}

impl ModelRuntime {
    /// Serves a whole heterogeneous workload through the real quantized
    /// stack, driven by the shared [`Scheduler`] core: the policy orders
    /// admission, a page ledger mirroring this runtime's [`PagedKvCache`]
    /// geometry gates it (peak-reserving, so the cache can never run out of
    /// pages mid-flight), and every decode tick runs one true batched step
    /// ([`ModelRuntime::step_batch`]) — W4A8 GEMMs at `m = B`, paged KV4
    /// attention — over all decodable sequences; each prefill remainder or
    /// chunk slice runs as one `m = tokens` batch of its own.
    ///
    /// With [`SchedOptions::share_prefixes`] on, admission consults a
    /// [`PrefixIndex`] over the live sequences' prompts and *forks* the
    /// scheduler-granted shared prefix (copy-on-write pages, stored once)
    /// instead of recomputing it; with [`SchedOptions::chunk_tokens`] set,
    /// prompts run through the model in chunks interleaved with decode
    /// steps for the already-full residents.
    ///
    /// The scheduler clock counts *model steps* (one decode tick = 1.0), so
    /// per-request `first_token_step`/`finish_step` are step indices, not
    /// seconds. Prompts are synthesized deterministically from `spec` (its
    /// seed and sharing structure), making the whole serve reproducible.
    ///
    /// # Errors
    /// Propagates cache errors (which indicate a ledger/cache divergence —
    /// the budget is sized to prevent them).
    ///
    /// # Panics
    /// Panics if a request's peak footprint exceeds the whole cache.
    pub fn serve_with(
        &mut self,
        spec: &WorkloadSpec,
        batch_limit: usize,
        policy: Box<dyn SchedulingPolicy>,
        opts: SchedOptions,
    ) -> Result<Vec<ServedRequest>, KvCacheError> {
        let requests = spec.sample();
        let prompts = spec.synth_prompts(&requests, self.model.config.vocab);
        let mut sched = Scheduler::with_options(requests, batch_limit, policy, opts);
        let (mut exec, mut budget) = FunctionalExecutor::new(self, prompts);
        while !sched.is_done() {
            sched.tick(&mut budget, &mut exec);
            if let Some(e) = exec.failed.take() {
                return Err(e);
            }
        }
        let mut done: Vec<ServedRequest> = sched
            .finished()
            .iter()
            .map(|r| ServedRequest {
                id: r.id,
                prompt: exec.prompts[&r.id].clone(),
                output: exec.outputs.remove(&r.id).unwrap_or_default(),
                first_token_step: r.first_token_s as usize,
                finish_step: r.finish_s as usize,
            })
            .collect();
        done.sort_by_key(|r| r.id);
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_core::pipeline::WeightGranularity;
    use qserve_model::eval::top1_agreement;
    use qserve_model::forward::forward_logits;
    use qserve_tensor::rng::TensorRng;

    fn deploy_small() -> (SyntheticModel, ModelRuntime) {
        let model = SyntheticModel::small(2);
        let calib = TensorRng::seed(1).token_sequence(32, model.config.vocab);
        let cfg = QoqConfig {
            weight_granularity: WeightGranularity::PerGroup(32),
            ..QoqConfig::w4a8kv4_g128()
        };
        let rt = ModelRuntime::deploy(&model, &cfg, &calib, 1024);
        (model, rt)
    }

    #[test]
    fn deployed_logits_track_reference() {
        // The quantized deployment's next-token prediction should mostly
        // agree with the FP16 reference model.
        let (model, mut rt) = deploy_small();
        let seq = rt.start_sequence().unwrap();
        let tokens = TensorRng::seed(2).token_sequence(12, model.config.vocab);
        let ref_logits = forward_logits(&model, &tokens);
        let mut deployed_rows = Vec::new();
        for &t in &tokens {
            deployed_rows.push(rt.step(seq, t).unwrap());
        }
        let deployed = Matrix::from_vec(
            tokens.len(),
            model.config.vocab,
            deployed_rows.into_iter().flatten().collect(),
        );
        let agree = top1_agreement(&ref_logits, &deployed);
        assert!(agree >= 0.5, "deployment diverged from reference: {}", agree);
        // Agreement is a coarse oracle (the residual stream decides most
        // argmaxes on its own); the logits themselves separate a deployment
        // that computes the quantized function (0.006 here) from one whose
        // blocks add noise (0.061 with the reorder gather missing).
        let err = qserve_tensor::stats::relative_error(&ref_logits, &deployed);
        assert!(err < 0.02, "deployed logits off the reference by {}", err);
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let (_, mut rt1) = deploy_small();
        let (_, mut rt2) = deploy_small();
        let s1 = rt1.start_sequence().unwrap();
        let s2 = rt2.start_sequence().unwrap();
        let g1 = rt1.generate_greedy(s1, &[3, 5, 7], 8).unwrap();
        let g2 = rt2.generate_greedy(s2, &[3, 5, 7], 8).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(g1.len(), 8);
    }

    #[test]
    fn sequences_are_isolated() {
        // Interleaving a second sequence must not change the first's output.
        let (_, mut rt) = deploy_small();
        let a = rt.start_sequence().unwrap();
        let b = rt.start_sequence().unwrap();
        let la1 = rt.step(a, 11).unwrap();
        let _ = rt.step(b, 42).unwrap();
        let la2 = rt.step(a, 12).unwrap();

        let (_, mut rt_solo) = deploy_small();
        let a2 = rt_solo.start_sequence().unwrap();
        let solo1 = rt_solo.step(a2, 11).unwrap();
        let solo2 = rt_solo.step(a2, 12).unwrap();
        assert_eq!(la1, solo1);
        assert_eq!(la2, solo2);
    }

    #[test]
    fn finish_releases_pages() {
        let (_, mut rt) = deploy_small();
        let free0 = rt.cache().free_pages();
        let s = rt.start_sequence().unwrap();
        rt.generate_greedy(s, &[1, 2], 4).unwrap();
        assert!(rt.cache().free_pages() < free0);
        rt.finish_sequence(s).unwrap();
        assert_eq!(rt.cache().free_pages(), free0);
    }

    fn tiny_spec(n: usize, seed: u64) -> crate::request::WorkloadSpec {
        crate::request::WorkloadSpec {
            num_requests: n,
            input: crate::request::LengthDist::Uniform { lo: 2, hi: 6 },
            output: crate::request::LengthDist::Uniform { lo: 2, hi: 5 },
            arrival: crate::request::ArrivalPattern::Batch,
            sharing: crate::request::PrefixSharing::None,
            slo: crate::request::SloSpec::None,
            seed,
        }
    }

    #[test]
    fn scheduled_serve_matches_solo_generation() {
        // Batched serving through the scheduler core must produce, for every
        // request, exactly what a solo greedy run of the same prompt
        // produces — sequence isolation survives the scheduler.
        use crate::scheduler::Fcfs;
        let (_, mut rt) = deploy_small();
        let spec = tiny_spec(4, 21);
        let served = rt.serve_with(&spec, 2, Box::new(Fcfs), SchedOptions::default()).unwrap();
        assert_eq!(served.len(), 4);
        for r in &served {
            let (_, mut solo) = deploy_small();
            let s = solo.start_sequence().unwrap();
            let expect = solo.generate_greedy(s, &r.prompt, r.output.len()).unwrap();
            assert_eq!(r.output, expect, "request {:?} diverged under batching", r.id);
            assert!(r.first_token_step <= r.finish_step);
        }
        // Every page returned after the workload drains.
        assert_eq!(rt.cache().used_pages(), 0);
    }

    fn shared_spec(n: usize, seed: u64) -> crate::request::WorkloadSpec {
        crate::request::WorkloadSpec {
            num_requests: n,
            // Page size is 16: a 40-token prefix = 2 full shared pages + a
            // COW boundary page per fork.
            input: crate::request::LengthDist::Uniform { lo: 3, hi: 6 },
            output: crate::request::LengthDist::Uniform { lo: 2, hi: 4 },
            arrival: crate::request::ArrivalPattern::Batch,
            sharing: crate::request::PrefixSharing::Groups { groups: 2, prefix_len: 40 },
            slo: crate::request::SloSpec::None,
            seed,
        }
    }

    #[test]
    fn forked_serve_tokens_identical_to_private_serve() {
        // The whole point of COW sharing: byte-identical results, fewer
        // unique pages. Sharing ON must reproduce sharing OFF token for
        // token (the forked reads hit the same quantized bytes), with a
        // strictly lower unique-page high-water mark and TTFT no worse.
        use crate::scheduler::Fcfs;
        let spec = shared_spec(6, 33);
        let (_, mut private_rt) = deploy_small();
        let private = private_rt.serve_with(&spec, 3, Box::new(Fcfs), SchedOptions::default()).unwrap();
        let private_peak = private_rt.cache().peak_used_pages();
        let (_, mut shared_rt) = deploy_small();
        let shared = shared_rt
            .serve_with(
                &spec,
                3,
                Box::new(Fcfs),
                SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() },
            )
            .unwrap();
        let shared_peak = shared_rt.cache().peak_used_pages();
        assert_eq!(shared.len(), 6);
        for (s, p) in shared.iter().zip(&private) {
            assert_eq!(s.id, p.id);
            assert_eq!(s.prompt, p.prompt);
            assert_eq!(s.output, p.output, "fork changed request {:?}'s tokens", s.id);
            assert!(
                s.first_token_step <= p.first_token_step,
                "sharing must not delay first tokens: {} vs {} for {:?}",
                s.first_token_step,
                p.first_token_step,
                s.id
            );
        }
        assert!(
            shared_peak < private_peak,
            "sharing must lower the unique-page high-water: {} vs {}",
            shared_peak,
            private_peak
        );
        // Every page returned either way.
        assert_eq!(shared_rt.cache().used_pages(), 0);
        assert_eq!(private_rt.cache().used_pages(), 0);
    }

    #[test]
    fn forked_serve_matches_solo_generation() {
        // Beyond matching the unshared batch: each forked request must equal
        // a solo greedy run of its full prompt on a fresh deployment.
        use crate::scheduler::Fcfs;
        let spec = shared_spec(4, 51);
        let (_, mut rt) = deploy_small();
        let served = rt
            .serve_with(
                &spec,
                2,
                Box::new(Fcfs),
                SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() },
            )
            .unwrap();
        for r in &served {
            let (_, mut solo) = deploy_small();
            let s = solo.start_sequence().unwrap();
            let expect = solo.generate_greedy(s, &r.prompt, r.output.len()).unwrap();
            assert_eq!(r.output, expect, "request {:?} diverged under forking", r.id);
        }
    }

    #[test]
    fn chunked_serve_tokens_identical_to_whole_prompt() {
        use crate::scheduler::Fcfs;
        let spec = tiny_spec(5, 13);
        let (_, mut whole_rt) = deploy_small();
        let whole = whole_rt.serve_with(&spec, 2, Box::new(Fcfs), SchedOptions::default()).unwrap();
        for chunk in [1usize, 3] {
            let (_, mut chunked_rt) = deploy_small();
            let chunked = chunked_rt
                .serve_with(
                    &spec,
                    2,
                    Box::new(Fcfs),
                    SchedOptions { share_prefixes: false, chunk_tokens: Some(chunk), ..SchedOptions::default() },
                )
                .unwrap();
            assert_eq!(chunked.len(), whole.len());
            for (c, w) in chunked.iter().zip(&whole) {
                assert_eq!(c.id, w.id);
                assert_eq!(c.output, w.output, "chunk {} changed tokens", chunk);
            }
            assert_eq!(chunked_rt.cache().used_pages(), 0);
        }
    }

    fn multi_turn_spec() -> crate::request::WorkloadSpec {
        crate::request::WorkloadSpec {
            num_requests: 6,
            input: crate::request::LengthDist::Uniform { lo: 2, hi: 5 },
            output: crate::request::LengthDist::Uniform { lo: 2, hi: 3 },
            arrival: crate::request::ArrivalPattern::Batch,
            sharing: crate::request::PrefixSharing::MultiTurn { conversations: 2, turns: 3 },
            slo: crate::request::SloSpec::None,
            seed: 27,
        }
    }

    #[test]
    fn multi_turn_serve_with_sharing_completes_consistently() {
        use crate::scheduler::Fcfs;
        let spec = multi_turn_spec();
        let (_, mut private_rt) = deploy_small();
        let private = private_rt.serve_with(&spec, 3, Box::new(Fcfs), SchedOptions::default()).unwrap();
        let (_, mut shared_rt) = deploy_small();
        let shared = shared_rt
            .serve_with(
                &spec,
                3,
                Box::new(Fcfs),
                SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() },
            )
            .unwrap();
        assert_eq!(shared.len(), 6);
        for (s, p) in shared.iter().zip(&private) {
            assert_eq!(s.output, p.output, "sharing changed {:?}", s.id);
        }
        assert_eq!(shared_rt.cache().used_pages(), 0);
    }

    /// ROADMAP 3a end to end — analytic vs. functional driver as a
    /// differential: the functional executor over the real `PagedKvCache`
    /// and a counts-only twin that executes nothing (and charges the
    /// functional clock: tokens per prefill, `1.0` per decode) tick the same
    /// workload through `Scheduler::tick` side by side. Tick by tick the
    /// two schedulers hold equal residents (so equal admitted ids and equal
    /// per-request progress), equal finished records (`first_token_s`,
    /// `finish_s`) and the same clock bits; the peak-reserving ledger books
    /// ahead of the cache throughout; and everything drains.
    #[test]
    fn functional_serve_ticks_in_lockstep_with_a_counts_only_twin() {
        use crate::scheduler::Fcfs;
        struct Counts;
        impl TickExecutor for Counts {
            fn prefill_wave(&mut self, sched: &Scheduler, wave: &AdmittedWave) -> f64 {
                if sched.options().chunk_tokens.is_some() {
                    return 0.0;
                }
                let computed: usize =
                    wave.prefill_lens.iter().zip(&wave.shared_lens).map(|(full, shared)| full - shared).sum();
                computed as f64
            }
            fn prefill_chunks(&mut self, _: &Scheduler, chunks: &[(RequestId, usize, usize)]) -> f64 {
                chunks.iter().map(|&(_, new, _)| new).sum::<usize>() as f64
            }
            fn swap(&mut self, _: &Scheduler, _: usize) -> f64 {
                unreachable!("peak-reserving budget cannot swap")
            }
            fn decode(&mut self, _: &Scheduler) -> f64 {
                1.0
            }
        }
        let sharing = SchedOptions { share_prefixes: true, ..SchedOptions::default() };
        for (spec, opts) in [
            (tiny_spec(5, 13), SchedOptions::default()),
            (shared_spec(6, 33), sharing),
            (shared_spec(6, 33), SchedOptions { chunk_tokens: Some(8), ..sharing }),
            (multi_turn_spec(), sharing),
        ] {
            let (_, mut rt) = deploy_small();
            let requests = spec.sample();
            let prompts = spec.synth_prompts(&requests, rt.model.config.vocab);
            let mut counted = Scheduler::with_options(requests.clone(), 3, Box::new(Fcfs), opts);
            let mut served = Scheduler::with_options(requests, 3, Box::new(Fcfs), opts);
            let (mut exec, mut ledger) = FunctionalExecutor::new(&mut rt, prompts);
            let mut counted_ledger = ledger.clone();
            let mut ticks = 0usize;
            while !served.is_done() {
                ticks += 1;
                served.tick(&mut ledger, &mut exec);
                assert_eq!(exec.failed, None, "tick {ticks}: the cache refused what the ledger admitted");
                counted.tick(&mut counted_ledger, &mut Counts);
                assert_eq!(served.running(), counted.running(), "tick {ticks}: residents");
                assert_eq!(served.finished(), counted.finished(), "tick {ticks}: finished records");
                assert_eq!(served.clock().to_bits(), counted.clock().to_bits(), "tick {ticks}: clock");
                assert_eq!(ledger.used_pages(), counted_ledger.used_pages(), "tick {ticks}: ledgers");
                assert!(
                    ledger.used_pages() >= exec.rt.cache.used_pages(),
                    "tick {ticks}: ledger books {} pages, the cache holds {}",
                    ledger.used_pages(),
                    exec.rt.cache.used_pages()
                );
            }
            assert!(counted.is_done() && served.finished().len() == spec.num_requests);
            for drained in [&ledger, &counted_ledger] {
                assert_eq!(drained.free_pages(), drained.total_pages(), "a ledger kept pages");
            }
            assert_eq!(rt.cache.used_pages(), 0, "the cache kept pages");
        }
    }

    #[test]
    fn scheduled_serve_is_deterministic_and_policy_sensitive() {
        use crate::scheduler::{Fcfs, ShortestJobFirst};
        let spec = tiny_spec(5, 8);
        let (_, mut a) = deploy_small();
        let (_, mut b) = deploy_small();
        let ra = a.serve_with(&spec, 2, Box::new(Fcfs), SchedOptions::default()).unwrap();
        let rb = b.serve_with(&spec, 2, Box::new(Fcfs), SchedOptions::default()).unwrap();
        assert_eq!(ra, rb, "same spec + policy must replay identically");
        // Admission order must never change what a request generates —
        // only when it runs.
        let (_, mut c) = deploy_small();
        let rc = c.serve_with(&spec, 2, Box::new(ShortestJobFirst), SchedOptions::default()).unwrap();
        for (f, s) in ra.iter().zip(&rc) {
            assert_eq!(f.id, s.id);
            assert_eq!(f.prompt, s.prompt);
            assert_eq!(f.output, s.output, "policy changed request {:?}'s tokens", f.id);
        }
        // And SJF genuinely reorders: the shortest job's first token lands
        // no later (in decode ticks) than under FCFS.
        let shortest = rc.iter().min_by_key(|r| (r.output.len(), r.id)).unwrap().id;
        let rank = |rs: &[ServedRequest], id| {
            let mut order: Vec<_> = rs.iter().map(|r| (r.finish_step, r.id)).collect();
            order.sort();
            order.iter().position(|&(_, i)| i == id).unwrap()
        };
        assert!(rank(&rc, shortest) <= rank(&ra, shortest));
    }
    /// The regression pin behind the benchmark's `sim_digest` on
    /// `func_serve`, which hashes exactly these fields: with sharing and
    /// chunking on, the batched data plane serves the tokens and the step
    /// indices the token-at-a-time loops served before it (values recorded
    /// from the parent commit), and each request still equals a solo greedy
    /// run on a fresh deployment.
    #[test]
    fn shared_chunked_serve_is_pinned_to_the_pre_batching_values() {
        use crate::scheduler::Fcfs;
        let (_, mut rt) = deploy_small();
        let served = rt
            .serve_with(
                &shared_spec(6, 33),
                3,
                Box::new(Fcfs),
                SchedOptions { share_prefixes: true, chunk_tokens: Some(8), ..SchedOptions::default() },
            )
            .unwrap();
        let pinned: [(&[u32], usize, usize); 6] = [
            (&[275, 275, 275], 52, 54),
            (&[345, 345, 345, 345], 52, 67),
            (&[305, 305, 305], 52, 54),
            (&[283, 283], 113, 114),
            (&[283, 283, 283, 283], 67, 99),
            (&[283, 283], 81, 90),
        ];
        assert_eq!(served.len(), pinned.len());
        for (r, (output, first_token_step, finish_step)) in served.iter().zip(pinned) {
            assert_eq!(r.output, output, "request {:?} tokens", r.id);
            assert_eq!(r.first_token_step, first_token_step, "request {:?} first token", r.id);
            assert_eq!(r.finish_step, finish_step, "request {:?} finish", r.id);
            let (_, mut solo) = deploy_small();
            let s = solo.start_sequence().unwrap();
            let expect = solo.generate_greedy(s, &r.prompt, r.output.len()).unwrap();
            assert_eq!(r.output, expect, "request {:?} diverged from solo greedy", r.id);
        }
        assert_eq!(rt.cache().used_pages(), 0);
    }

    #[test]
    fn logits_come_back_in_the_requested_order_only() {
        let (_, mut rt) = deploy_small();
        let (_, mut reference) = deploy_small();
        let (a, b) = (rt.start_sequence().unwrap(), rt.start_sequence().unwrap());
        for r in [a, b] {
            assert_eq!(reference.start_sequence().unwrap(), r);
        }
        let rows = [(a, 3), (b, 9), (a, 4)];
        let got = rt.step_batch(&rows, &[2, 1]).unwrap();
        let one_by_one: Vec<Vec<f32>> =
            rows.iter().map(|&(s, t)| reference.step(s, t).unwrap()).collect();
        assert_eq!(got, vec![one_by_one[2].clone(), one_by_one[1].clone()]);
        assert!(rt.step_batch(&rows, &[]).unwrap().is_empty());
        assert_eq!(rt.cache().seq_len(a), 4, "rows without logits still advance the cache");
        assert!(rt.step_batch(&[], &[]).unwrap().is_empty());
    }

    qserve_tensor::props! {
        /// The bit-exactness contract of the batched step: any mix of
        /// sequences in one batch — fresh ones, forks of a live prefix
        /// (copy-on-write tails), a sequence repeated at consecutive
        /// positions (a prefill chunk), single decode rows, interleaved in
        /// any order, KV4 or KV8, per-group or per-channel weights — yields,
        /// row for row, the logits of the same tokens fed one `step` at a
        /// time to a fresh deployment, and leaves the same KV bytes behind.
        fn batched_step_equals_token_at_a_time(rng, cases = 10) {
            use qserve_core::kv_quant::KvPrecision;
            let model = SyntheticModel::small(2);
            let calib = TensorRng::seed(1).token_sequence(32, model.config.vocab);
            let cfg = QoqConfig {
                kv_precision: if rng.int_in(0, 1) == 0 { KvPrecision::Int4 } else { KvPrecision::Int8 },
                ..if rng.int_in(0, 1) == 0 {
                    QoqConfig { weight_granularity: WeightGranularity::PerGroup(32), ..QoqConfig::w4a8kv4_g128() }
                } else {
                    QoqConfig::w4a8kv4_per_channel()
                }
            };
            let mut batched = ModelRuntime::deploy(&model, &cfg, &calib, 256);
            let mut reference = ModelRuntime::deploy(&model, &cfg, &calib, 256);
            let mut live = Vec::new();
            for _ in 0..2 {
                live.push(batched.start_sequence().unwrap());
                reference.start_sequence().unwrap();
            }
            for _tick in 0..rng.int_in(3, 5) {
                // Sometimes fork a live prefix first (pages are 16 tokens, so
                // prefixes end mid-page and on page boundaries alike).
                let donors: Vec<SequenceId> =
                    live.iter().copied().filter(|&s| batched.cache.seq_len(s) > 0).collect();
                if !donors.is_empty() && rng.int_in(0, 2) == 0 {
                    let parent = donors[rng.int_in(0, donors.len() as i64 - 1) as usize];
                    let prefix = rng.int_in(1, batched.cache.seq_len(parent) as i64) as usize;
                    let child = SequenceId(batched.next_seq);
                    for rt in [&mut batched, &mut reference] {
                        rt.next_seq += 1;
                        rt.cache.fork(parent, child, prefix).unwrap();
                    }
                    live.push(child);
                }
                // Each live sequence contributes nothing, one decode row or
                // a chunk; rows of different sequences interleave at random.
                let mut queues: Vec<(SequenceId, Vec<u32>)> = live
                    .iter()
                    .map(|&s| {
                        let n = match rng.int_in(0, 2) {
                            0 => 0,
                            1 => 1,
                            _ => rng.int_in(2, 20) as usize,
                        };
                        (s, rng.token_sequence(n, model.config.vocab))
                    })
                    .filter(|(_, tokens)| !tokens.is_empty())
                    .collect();
                let mut rows = Vec::new();
                while !queues.is_empty() {
                    let pick = rng.int_in(0, queues.len() as i64 - 1) as usize;
                    rows.push((queues[pick].0, queues[pick].1.remove(0)));
                    if queues[pick].1.is_empty() {
                        queues.remove(pick);
                    }
                }
                let every_row: Vec<usize> = (0..rows.len()).collect();
                let got = batched.step_batch(&rows, &every_row).unwrap();
                for (i, (&(seq, token), got)) in rows.iter().zip(&got).enumerate() {
                    let want = reference.step(seq, token).unwrap();
                    assert!(
                        got.iter().map(|v| v.to_bits()).eq(want.iter().map(|v| v.to_bits())),
                        "row {} ({:?}, token {}) of a {}-row batch differs from its solo step",
                        i, seq, token, rows.len()
                    );
                }
            }
            let kv = *batched.cache.config();
            for &seq in &live {
                assert_eq!(batched.cache.seq_len(seq), reference.cache.seq_len(seq));
                for layer in 0..kv.layers {
                    for head in 0..kv.kv_heads {
                        assert_eq!(
                            batched.cache.read_head(seq, layer, head).unwrap(),
                            reference.cache.read_head(seq, layer, head).unwrap(),
                            "{:?} layer {} head {} cached different KV", seq, layer, head
                        );
                    }
                }
            }
        }
    }
}
