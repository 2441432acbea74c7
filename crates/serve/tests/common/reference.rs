//! The reference tick: [`Scheduler::tick`] spelled as simply as it can be,
//! kept as the oracle the real tick is held to after every tick.
//!
//! It sequences the same steps in the same order — admit, price the prefill
//! slices, idle when nothing runs, make room, price the host-link pages,
//! decode and retire — over the same public types (a [`PageBudget`] of its
//! own, a policy of its own), and keeps nothing the real tick keeps for
//! speed:
//!
//! - whole-prompt prefill materializes each prompt at admission, as a
//!   `(id, full − shared, shared)` slice, and only chunked prefill walks
//!   the batch: the real tick's single pass is held to both spellings;
//! - every decodable resident asks the ledger for every token, one
//!   [`KvBudget::grow`] per token, so there is no headroom;
//! - retirement is [`Vec::retain`], the backlog a sorted `Vec` searched
//!   front to back, and each resident's handle sits in a map by id;
//! - every aggregate (`outstanding`, `prefilling`, the decodable totals) is
//!   a scan.
//!
//! Each hook the real tick calls becomes a [`Hook`] here, logged with the
//! batch it saw and priced by [`price`] from that batch, so a different
//! admission, chunk, eviction, growth or decode moves the clock's bits.
//!
//! [`Scheduler::tick`]: qserve_serve::scheduler::Scheduler::tick

use qserve_serve::ledger::{KvBudget, KvHandle, PageBudget};
use qserve_serve::request::{Request, RequestId, RequestState};
use qserve_serve::scheduler::{FinishedRequest, PreemptionMode, SchedOptions, SchedulingPolicy};
use std::collections::BTreeMap;

/// One executor hook call and the arguments it was handed.
#[derive(Debug, Clone, PartialEq)]
pub enum Hook {
    /// `prefill`: `(id, new, past)` per prefilling resident.
    Prefill(Vec<(RequestId, usize, usize)>),
    /// `swap`: pages that crossed the host link this tick.
    Swap(usize),
    /// `decode`.
    Decode,
    /// `preempted`: recompute victims, then swap victims.
    Preempted(Vec<RequestId>, Vec<RequestId>),
    /// `retired`.
    Retired(Vec<RequestId>),
}

/// A hook call and the running batch the hook saw, in admission order.
pub type Seen = (Hook, Vec<Request>);

/// What a hook costs, from what it saw. Hooks that return nothing cost 0.
pub fn price(hook: &Hook, batch: &[Request]) -> f64 {
    match hook {
        Hook::Prefill(slices) => {
            let work: usize = slices.iter().map(|&(_, new, past)| new * 8 + past).sum();
            1e-3 * slices.len() as f64 + 1e-5 * work as f64
        }
        Hook::Swap(pages) => 1e-5 * *pages as f64,
        Hook::Decode => {
            let decodable = batch.iter().filter(|r| r.prefill_remaining() == 0);
            let (n, tokens) = decodable.fold((0usize, 0usize), |(n, t), r| (n + 1, t + r.prefilled()));
            2e-3 + 1e-5 * n as f64 + 1e-6 * tokens as f64
        }
        Hook::Preempted(..) | Hook::Retired(_) => 0.0,
    }
}

/// A finished record as bits: id, arrival, first token, finish, output
/// tokens, SLO met, requeued, and the worst achieved ÷ deadline ratio.
pub type Done = (RequestId, u64, u64, u64, usize, bool, bool, Option<u64>);

/// The real scheduler's record, in the reference's terms.
pub fn done_of(f: &FinishedRequest) -> Done {
    (
        f.id,
        f.arrival_s.to_bits(),
        f.first_token_s.to_bits(),
        f.finish_s.to_bits(),
        f.generated(),
        f.met_slo,
        f.requeued,
        f.slo_ratio().map(f64::to_bits),
    )
}

/// `r`'s record, retiring at `clock`.
fn retire(r: &Request, clock: f64) -> Done {
    let first = r.first_token_s().expect("a retiring request decoded a token");
    let (ttft, latency) = (first - r.arrival_s, clock - r.arrival_s);
    let ratio = r.slo().has_deadline().then(|| {
        let ttft = r.slo().ttft_deadline_s.map_or(0.0, |d| ttft / d);
        let latency = r.slo().latency_deadline_s.map_or(0.0, |d| latency / d);
        0.0f64.max(ttft).max(latency).to_bits()
    });
    let met = r.slo().met_by(ttft, latency);
    (r.id, r.arrival_s.to_bits(), first.to_bits(), clock.to_bits(), r.generated(), met, r.requeued, ratio)
}

/// The reference scheduler.
pub struct Reference {
    policy: Box<dyn SchedulingPolicy>,
    batch_limit: usize,
    opts: SchedOptions,
    /// Not running (queued, preempted, swapped), sorted by `(ready_s, id)`.
    pub pending: Vec<Request>,
    /// Admitted, in admission order.
    pub running: Vec<Request>,
    handles: BTreeMap<RequestId, KvHandle>,
    /// One record per completion, in completion order.
    pub finished: Vec<Done>,
    pub clock: f64,
    pub preemptions: usize,
    pub swap_outs: usize,
    pub swap_out_pages: usize,
    pub swap_in_pages: usize,
    /// Pages moved across the host link this tick, not yet priced.
    tick_swap_pages: usize,
}

impl Reference {
    pub fn new(batch_limit: usize, policy: Box<dyn SchedulingPolicy>, opts: SchedOptions) -> Self {
        Self {
            policy,
            batch_limit,
            opts,
            pending: Vec::new(),
            running: Vec::new(),
            handles: BTreeMap::new(),
            finished: Vec::new(),
            clock: 0.0,
            preemptions: 0,
            swap_outs: 0,
            swap_out_pages: 0,
            swap_in_pages: 0,
            tick_swap_pages: 0,
        }
    }

    /// Files `r` into the backlog after every request that sorts before or
    /// equal to it by `(ready_s, id)`.
    pub fn submit(&mut self, r: Request) {
        let key = (r.ready_s, r.id);
        let at = self.pending.iter().take_while(|p| (p.ready_s, p.id) <= key).count();
        self.pending.insert(at, r);
    }

    pub fn is_done(&self) -> bool {
        self.pending.is_empty() && self.running.is_empty()
    }

    /// Tokens owed to every queued and running request.
    pub fn outstanding(&self) -> usize {
        self.pending.iter().chain(&self.running).map(|r| r.prefill_remaining() + r.remaining()).sum()
    }

    /// Residents still prefilling.
    pub fn prefilling(&self) -> usize {
        self.running.iter().filter(|r| r.prefill_remaining() > 0).count()
    }

    /// `(count, Σ prefilled)` over the decodable residents.
    pub fn decode_totals(&self) -> (usize, usize) {
        let decodable = self.running.iter().filter(|r| r.prefill_remaining() == 0);
        decodable.fold((0, 0), |(n, t), r| (n + 1, t + r.prefilled()))
    }

    /// Logs `hook` with the batch as it stands and returns its price.
    fn see(&self, hook: Hook, log: &mut Vec<Seen>) -> f64 {
        let dt = price(&hook, &self.running);
        log.push((hook, self.running.clone()));
        dt
    }

    /// One tick, each hook call appended to `log`.
    pub fn tick(&mut self, budget: &mut PageBudget, log: &mut Vec<Seen>) {
        let mut slices = self.admit(budget);
        if let Some(chunk_tokens) = self.opts.chunk_tokens {
            for r in &mut self.running {
                let take = r.prefill_remaining().min(chunk_tokens);
                if take > 0 {
                    slices.push((r.id, take, r.prefilled()));
                    r.set_prefilled(r.prefilled() + take);
                }
            }
        }
        if !slices.is_empty() {
            self.clock += self.see(Hook::Prefill(slices), log);
        }
        if self.running.is_empty() {
            if let Some(next) = self.pending.first() {
                self.clock = self.clock.max(next.ready_s);
            }
            return;
        }
        let evicted = self.make_room(budget);
        self.see(evicted, log);
        let pages = std::mem::take(&mut self.tick_swap_pages);
        if pages > 0 {
            self.clock += self.see(Hook::Swap(pages), log);
        }
        if self.running.iter().all(|r| r.prefill_remaining() > 0) {
            return;
        }
        self.clock += self.see(Hook::Decode, log);
        let clock = self.clock;
        for r in self.running.iter_mut().filter(|r| r.prefill_remaining() == 0) {
            r.decoded(1);
            if r.first_token_s().is_none() {
                r.stamp_first_token(clock);
            }
        }
        let mut retired = Vec::new();
        let (handles, finished) = (&mut self.handles, &mut self.finished);
        self.running.retain(|r| {
            if r.generated() < r.output_len() {
                return true;
            }
            budget.release(r.id, Some(handles.remove(&r.id).expect("a resident has a seat")));
            finished.push(retire(r, clock));
            retired.push(r.id);
            false
        });
        self.see(Hook::Retired(retired), log);
    }

    /// Admits while the batch has room, the policy picks and the budget
    /// agrees; an idle machine admits the first arrival past a holding
    /// policy. Without chunking, each admitted prompt materializes here and
    /// its `(id, full − shared, shared)` slice is returned (swap-ins join the
    /// batch, not the slices); with chunking, none is.
    fn admit(&mut self, budget: &mut PageBudget) -> Vec<(RequestId, usize, usize)> {
        let mut slices = Vec::new();
        while self.running.len() < self.batch_limit {
            let arrived = self.pending.iter().take_while(|r| r.ready_s <= self.clock).count();
            if arrived == 0 {
                break;
            }
            let idle = self.running.is_empty();
            let choice = self.policy.select(&self.pending[..arrived], &*budget);
            let Some(idx) = choice.or(idle.then_some(0)) else { break };
            assert!(idx < arrived, "policy selected an unarrived request");
            let c = self.pending[idx];
            if c.state == RequestState::Swapped {
                let Some((handle, pages)) = budget.swap_in(c.id) else { break };
                self.tick_swap_pages += pages;
                self.swap_in_pages += pages;
                self.seat(idx, handle);
                continue;
            }
            let share = self.opts.share_prefixes;
            let siblings: Vec<&Request> = match c.prefix_group() {
                Some(g) if share => self.running.iter().filter(|r| r.prefix_group() == Some(g)).collect(),
                _ => Vec::new(),
            };
            let shared = siblings
                .iter()
                .map(|r| c.prefix_len().min(r.prefix_len()).min(r.prefilled()))
                .max()
                .unwrap_or(0);
            // Hold while a sibling could give more once its chunks land.
            let potential = siblings.iter().map(|r| c.prefix_len().min(r.prefix_len())).max().unwrap_or(0);
            if potential > shared {
                break;
            }
            // Join the pool when aliasing, found it when no sibling runs.
            let group = if share && (shared > 0 || siblings.is_empty()) { c.prefix_group() } else { None };
            let pool_tokens = match (group, shared) {
                (None, _) => 0,
                (Some(_), 0) => c.prefix_len(),
                (Some(_), grant) => grant,
            };
            let admitted = budget.admit(c.id, group, pool_tokens, c.prefill_len(), c.peak_len());
            let Some(handle) = admitted else { break };
            self.seat(idx, handle);
            let r = self.running.last_mut().expect("just seated");
            if self.opts.chunk_tokens.is_some() {
                r.set_prefilled(shared);
            } else {
                r.set_prefilled(r.prefill_len());
                slices.push((r.id, r.prefill_len() - shared, shared));
            }
        }
        slices
    }

    /// Moves `pending[idx]` to the back of the batch, seated at `handle`.
    fn seat(&mut self, idx: usize, handle: KvHandle) {
        let mut r = self.pending.remove(idx);
        r.state = RequestState::Running;
        self.handles.insert(r.id, handle);
        self.running.push(r);
    }

    /// Charges one token to every decodable resident, in admission order.
    /// A refusal evicts the newest resident and retries.
    fn make_room(&mut self, budget: &mut PageBudget) -> Hook {
        let (mut recomputed, mut swapped) = (Vec::new(), Vec::new());
        let mut i = 0;
        while i < self.running.len() {
            let r = self.running[i];
            if r.prefill_remaining() > 0 || budget.grow(self.handles[&r.id], r.prefill_len() + 1).is_some() {
                i += 1;
                continue;
            }
            assert!(self.running.len() > 1, "a lone resident cannot grow");
            let mut victim = self.running.pop().expect("a resident to evict");
            let handle = self.handles.remove(&victim.id).expect("a resident has a seat");
            if self.opts.preemption == PreemptionMode::Swap {
                if let Some(pages) = budget.swap_out(victim.id, handle, victim.prefill_len()) {
                    self.tick_swap_pages += pages;
                    self.swap_out_pages += pages;
                    self.swap_outs += 1;
                    swapped.push(victim.id);
                    victim.state = RequestState::Swapped;
                    self.submit(victim);
                    continue;
                }
            }
            budget.release(victim.id, Some(handle));
            recomputed.push(victim.id);
            self.preemptions += 1;
            victim.state = RequestState::Queued;
            victim.set_prefilled(0);
            self.submit(victim);
        }
        Hook::Preempted(recomputed, swapped)
    }

    /// A crash: every holding released, every request returned in id order
    /// with its KV state wiped, and the materialized tokens lost.
    pub fn evict_all(&mut self, budget: &mut PageBudget) -> (Vec<Request>, usize) {
        let mut victims = std::mem::take(&mut self.pending);
        for r in victims.iter().filter(|r| r.state == RequestState::Swapped) {
            budget.release(r.id, None);
        }
        for r in std::mem::take(&mut self.running) {
            budget.release(r.id, Some(self.handles.remove(&r.id).expect("a resident has a seat")));
            victims.push(r);
        }
        let lost = victims.iter().map(|r| r.prefilled()).sum();
        for r in &mut victims {
            r.state = RequestState::Queued;
            r.set_prefilled(0);
        }
        victims.sort_by_key(|r| r.id);
        (victims, lost)
    }
}
