//! The request-lifecycle scheduler core: one event-driven continuous-batching
//! state machine shared by every serving path.
//!
//! The core owns the queue → running → finished lifecycle of
//! [`Request`]s — admission order (a pluggable [`SchedulingPolicy`]),
//! KV-memory gating (a [`KvBudget`], the page ledger of [`crate::ledger`]),
//! LIFO recompute- and swap-style preemption, clock/phase accounting — and the
//! *order* of a tick: [`Scheduler::tick`] is the only place the steps are
//! sequenced and gated, and the steps themselves are private. The running
//! batch and its step clock are the `resident` module's bookkeeping. What a
//! step costs, or what executes it, is a [`TickExecutor`]: the analytic
//! engine prices each step with its cost model ([`crate::ServingEngine`]),
//! the functional path runs it as real quantized forward passes over the
//! paged KV4 cache ([`crate::ModelRuntime::serve_with`]). The scheduler owns
//! the order, the executor owns the price, so the tree has one accounting
//! implementation and one driver loop. Prefill is one pass in both modes:
//! admission seats a request at its aliased prefix, and whole-prompt prefill
//! is the chunk pass with an unbounded chunk.
//!
//! A [`Request`] lives here only while it is pending or running. At its last
//! token this module computes every per-request float a report reads — TTFT
//! and latency (`t − arrival_s`), the worst achieved ÷ deadline ratio, the
//! SLO verdict — once, into a [`FinishedRequest`] that the scheduler's
//! [`crate::report`] fold takes in and the `retired` hook sees; nothing of
//! the request outlives the tick.

use std::collections::VecDeque;

use crate::ledger::{KvBudget, KvHandle, PageBudget};
use crate::report::Fold;
use crate::request::{Request, RequestId, RequestState};
use crate::resident::Residents;

// ---------------------------------------------------------------------------
// Scheduling policies
// ---------------------------------------------------------------------------

/// Decides *which* queued request is admitted next. Policies see only
/// arrived requests; batch-limit and budget gating, and preemption, stay in
/// the core.
///
/// `Send` so a replica (which owns its policy) can be advanced on a pool
/// worker between cluster barriers; policies are consulted from exactly one
/// thread at a time, so no `Sync` bound is needed.
pub trait SchedulingPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Index into `waiting` (arrived requests, FCFS order) of the next
    /// request to admit, or `None` to hold admission this tick.
    fn select(&self, waiting: &[Request], budget: &dyn KvBudget) -> Option<usize>;
}

/// First-come-first-served continuous batching — the classic (and legacy)
/// admission order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl SchedulingPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }
    fn select(&self, waiting: &[Request], _budget: &dyn KvBudget) -> Option<usize> {
        (!waiting.is_empty()).then_some(0)
    }
}

/// Shortest-job-first: admits the arrived request with the least remaining
/// output work, shrinking mean latency on mixed workloads at the price of
/// delaying long requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestJobFirst;

impl SchedulingPolicy for ShortestJobFirst {
    fn name(&self) -> &'static str {
        "sjf"
    }
    fn select(&self, waiting: &[Request], _budget: &dyn KvBudget) -> Option<usize> {
        waiting
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (r.remaining(), r.input_len(), r.id))
            .map(|(i, _)| i)
    }
}

/// Memory-aware admission: FCFS order, but a request is only admitted while
/// the free page pool covers its prefill footprint plus `headroom` of its
/// remaining output — aggressive enough to beat peak reservation, cautious
/// enough to keep preemption storms rare. Pair with an
/// [`crate::ledger::Reservation::OnDemand`] [`PageBudget`]; LIFO preemption
/// backstops the optimism.
#[derive(Debug, Clone, Copy)]
pub struct MemoryAware {
    /// Fraction of a candidate's remaining output that must fit in free
    /// pages at admission time (0 = fully optimistic, 1 = peak-conservative).
    pub headroom: f64,
}

impl Default for MemoryAware {
    fn default() -> Self {
        Self { headroom: 0.5 }
    }
}

impl SchedulingPolicy for MemoryAware {
    fn name(&self) -> &'static str {
        "memory-aware"
    }
    fn select(&self, waiting: &[Request], budget: &dyn KvBudget) -> Option<usize> {
        let r = waiting.first()?;
        // lint: allow(raw-cast) -- admission headroom is a deliberate f64 estimate; ceil() is finite and non-negative, so the cast is exact
        let need = r.prefill_len() + (r.remaining() as f64 * self.headroom).ceil() as usize;
        (budget.free_tokens() >= need).then_some(0)
    }
}

// ---------------------------------------------------------------------------
// The scheduler core
// ---------------------------------------------------------------------------

/// What a driver contributes to [`Scheduler::tick`]: it runs or prices each
/// step and returns what the clock is charged for it — seconds from a cost
/// model, model steps from the functional runtime. Nothing here is about
/// order or conditions; the tick owns those. Every hook sees the scheduler
/// read-only, as the step left it ([`Scheduler::running`],
/// [`Scheduler::decode_totals`], [`Scheduler::clock`]); `running()` syncs
/// each resident as it yields it, a pass over the batch. Return the cost of
/// what you ran: the tick charges exactly that, and having run nothing
/// costs `0.0`.
pub trait TickExecutor {
    /// One slice per resident still prefilling (never empty), in admission
    /// order, as `(id, new, past)`: run `new` tokens attending over the
    /// `past` tokens already cached for `id` — its aliased prefix, never
    /// charged compute, plus earlier slices. A request's first slice since
    /// admission seats it, with `past` aliased from a live sibling; a later
    /// slice of the same list may alias an earlier one's tokens, so run them
    /// in order. Under whole-prompt prefill every slice is a just-admitted
    /// prompt's whole remainder.
    fn prefill(&mut self, sched: &Scheduler, slices: &[(RequestId, usize, usize)]) -> f64;

    /// `pages` KV pages crossed the host link this tick: swap-ins at
    /// admission plus swap-outs in make-room. Only asked for a positive
    /// count — zero pages cost zero seconds, so the tick charges nothing.
    fn swap(&mut self, sched: &Scheduler, pages: usize) -> f64;

    /// One decode step over the decodable residents — those of `running()`
    /// with `prefill_remaining() == 0`, at least one. Called after growth
    /// and preemption, so the step is costed on the surviving batch, and
    /// before the step count advances.
    fn decode(&mut self, sched: &Scheduler) -> f64;

    /// Make-room evicted these residents (either slice possibly empty), each
    /// in eviction order: `recomputed` lost their KV state and re-prefill
    /// on re-admission; `swapped` had their private pages spilled to the
    /// host tier and swap back in. Every eviction is listed exactly once.
    fn preempted(&mut self, _sched: &Scheduler, _recomputed: &[RequestId], _swapped: &[RequestId]) {}

    /// The records of the requests the decode step just retired (possibly
    /// none), in admission order, already released by the budget and folded
    /// into the report. The tick's scratch: copy what must outlive the call.
    fn retired(&mut self, _sched: &Scheduler, _done: &[FinishedRequest]) {}
}

/// What happens to a preemption victim when the page pool runs dry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreemptionMode {
    /// Wipe the victim's pages and recompute its prefill on re-admission
    /// (vLLM-style) — the legacy behavior and the default.
    #[default]
    Recompute,
    /// Spill the victim's private pages to the budget's host-memory tier
    /// and swap them back on re-admission at link cost; falls back to
    /// recompute when no tier is attached or the tier is full.
    Swap,
}

/// Knobs for the prefix-sharing and chunked-prefill extensions. The default
/// (`sharing off, chunking off, recompute preemption`) reproduces the
/// legacy scheduler tick-for-tick, which is what keeps the paper protocol
/// CSVs byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedOptions {
    /// Alias resident same-group prefixes at admission instead of
    /// recomputing them ([`crate::request::PrefixSharing`] workloads).
    pub share_prefixes: bool,
    /// Split prompts into chunks of at most this many tokens, interleaved
    /// with decode steps (`None` = whole-prompt prefill at admission).
    pub chunk_tokens: Option<usize>,
    /// Preemption flavor under memory pressure: recompute (default) or
    /// swap to the host tier.
    pub preemption: PreemptionMode,
}

/// What a request says when it retires: the few facts reports read,
/// instead of the request itself. Made once per completion, folded into the
/// scheduler's report fold and shown to the `retired` hook, then dropped.
/// Every per-request float a report reads is computed here, once, at
/// retirement (`t − arrival_s`, `achieved ÷ deadline`); consumers only sum
/// and sort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinishedRequest {
    /// The request's identity.
    pub id: RequestId,
    /// When the user started waiting, seconds.
    pub arrival_s: f64,
    /// Clock at which the first output token completed.
    pub first_token_s: f64,
    /// Clock at which the last output token completed.
    pub finish_s: f64,
    /// Worst `achieved ÷ deadline` across the deadlines the request carried
    /// (≤ 1 ⇔ met); meaningful only with `has_deadline`.
    worst_ratio: f64,
    /// Output tokens generated, behind [`FinishedRequest::generated`].
    generated: u32,
    /// Whether the request carried a TTFT or latency deadline.
    has_deadline: bool,
    /// Whether every deadline was met (deadline-free requests always are).
    pub met_slo: bool,
    /// Whether a crash ever requeued the request off a replica.
    pub requeued: bool,
}

impl FinishedRequest {
    /// The record of `req` retiring at `clock`. The achieved times come from
    /// the record's own accessors — the floats every report reads later —
    /// and the achieved ÷ deadline ratio is computed here and nowhere else.
    pub(crate) fn retire(req: &Request, clock: f64) -> Self {
        let slo = req.slo();
        let mut done = Self {
            id: req.id,
            arrival_s: req.arrival_s,
            first_token_s: req.first_token_s().expect("a retiring request decoded a token"),
            finish_s: clock,
            worst_ratio: 0.0,
            generated: u32::try_from(req.generated()).expect("output length fits u32"),
            has_deadline: slo.has_deadline(),
            met_slo: false,
            requeued: req.requeued,
        };
        let (ttft_s, latency_s) = (done.ttft_s(), done.latency_s());
        done.met_slo = slo.met_by(ttft_s, latency_s);
        done.worst_ratio = slo.worst_ratio(ttft_s, latency_s);
        done
    }

    /// Output tokens generated (the request's whole output length).
    pub fn generated(&self) -> usize {
        self.generated as usize
    }

    /// End-to-end latency (arrival → last token), seconds.
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }

    /// Time to first token (arrival → first output token), seconds.
    pub fn ttft_s(&self) -> f64 {
        // lint: allow(unchecked-sub) -- seconds on the f64 clock; `first_token_s` names a time, not a token count
        self.first_token_s - self.arrival_s
    }

    /// Worst `achieved ÷ deadline` ratio across the request's TTFT and
    /// latency deadlines (≤ 1 ⇔ SLO met; `None` when it carried neither).
    pub fn slo_ratio(&self) -> Option<f64> {
        self.has_deadline.then_some(self.worst_ratio)
    }
}

/// The continuous-batching lifecycle state machine, advanced by
/// [`Scheduler::tick`].
pub struct Scheduler {
    policy: Box<dyn SchedulingPolicy>,
    batch_limit: usize,
    opts: SchedOptions,
    /// Not-yet-running requests (queued + preempted + swapped), sorted by
    /// `(ready_s, id)` so the eligible prefix is FCFS-ordered (`ready_s` is
    /// `arrival_s` unless a crash requeued the request). A deque, so FCFS
    /// admission (`remove(0)`) is O(1).
    pending: VecDeque<Request>,
    /// The running batch and its step clock.
    residents: Residents,
    /// What every retirement so far says, for the report.
    fold: Fold,
    clock: f64,
    prefill_time: f64,
    decode_time: f64,
    /// Time spent moving KV pages across the host link (swap preemption).
    swap_time: f64,
    preemptions: usize,
    /// Swap-out preemption events (host-tier spills).
    swap_outs: usize,
    /// Cumulative pages spilled to / restored from the host tier.
    swap_out_pages: usize,
    swap_in_pages: usize,
    /// Pages moved across the host link and not yet priced — drained once
    /// per tick, after make-room.
    tick_swap_pages: usize,
    /// Incremental twin of `outstanding_tokens_scan`: a request's owed work
    /// is `input_len + output_len − prefilled`, so the counter moves only
    /// when `prefilled` changes or a request enters/leaves pending∪running.
    outstanding: usize,
    /// Prefix tokens warmed by a cross-replica page migration, per sharing
    /// group: aliasable by new members before any sibling runs here (the
    /// pages themselves arrive through [`PageBudget::import_pool`]).
    warm_prefixes: std::collections::BTreeMap<u64, usize>,
    /// Time spent receiving migrated prefix pages over the peer link.
    migration_time: f64,
    /// The tick's out-buffers, each refilled by its step and lent to the
    /// executor's hook: the prefill slices `(id, new, past)` and the ids
    /// make-room recompute-preempted and swapped out.
    slices: Vec<(RequestId, usize, usize)>,
    preempted: Vec<RequestId>,
    swapped: Vec<RequestId>,
    /// The decode step's retirees' records, for the `retired` hook.
    done: Vec<FinishedRequest>,
}

/// Tokens of work still owed to one queued or running request.
fn owed(r: &Request) -> usize {
    r.prefill_remaining() + r.remaining()
}

impl Scheduler {
    /// Builds an *open* scheduler with no requests yet: callers submit work
    /// via [`Scheduler::submit`] — all at once, or one routing decision at a
    /// time as a cluster replica does. Starts in the done state
    /// ([`Scheduler::is_done`]) until the first submission.
    ///
    /// # Panics
    /// Panics if `batch_limit` is zero or a chunk size of zero tokens is
    /// requested.
    pub fn open(batch_limit: usize, policy: Box<dyn SchedulingPolicy>, opts: SchedOptions) -> Self {
        assert!(batch_limit > 0, "batch limit must be positive");
        assert!(opts.chunk_tokens != Some(0), "chunk size must be positive");
        Self {
            policy,
            batch_limit,
            opts,
            pending: VecDeque::new(),
            residents: Residents::default(),
            fold: Fold::default(),
            clock: 0.0,
            prefill_time: 0.0,
            decode_time: 0.0,
            swap_time: 0.0,
            preemptions: 0,
            swap_outs: 0,
            swap_out_pages: 0,
            swap_in_pages: 0,
            tick_swap_pages: 0,
            outstanding: 0,
            warm_prefixes: std::collections::BTreeMap::new(),
            migration_time: 0.0,
            slices: Vec::new(),
            preempted: Vec::new(),
            swapped: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Submits one more request, keeping the pending queue sorted by
    /// `(ready_s, id)`. The request becomes admissible once the clock
    /// reaches its ready time, exactly as if it had been present from
    /// construction.
    pub fn submit(&mut self, req: Request) {
        self.outstanding += owed(&req);
        self.enqueue(req);
    }

    /// The sharing, chunking and preemption options this scheduler runs
    /// under. Executors need not read them: the hooks' arguments already
    /// say what ran.
    pub fn options(&self) -> SchedOptions {
        self.opts
    }

    /// Tokens of work still owed to queued + running requests (un-prefilled
    /// plus un-generated): what a cluster router balances replicas by. O(1),
    /// audited against the full scan in debug builds.
    pub fn outstanding_tokens(&self) -> usize {
        debug_assert_eq!(
            self.outstanding,
            self.outstanding_tokens_scan(),
            "outstanding-token counter drifted from the ground-truth scan"
        );
        self.outstanding
    }

    /// Ground-truth recomputation of [`Scheduler::outstanding_tokens`] by
    /// scanning every queued + running request — O(residents); what the
    /// counter is audited against.
    fn outstanding_tokens_scan(&self) -> usize {
        self.pending.iter().copied().chain(self.running()).map(|r| owed(&r)).sum()
    }

    /// Current simulation clock, seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Seconds this scheduler has spent doing work (prefill + decode +
    /// swap and migration transfers) — excludes idle gaps waiting for
    /// arrivals, so `busy ÷ makespan` is a cluster replica's utilization.
    /// (A zero migration term adds exactly `+0.0`, which cannot move any
    /// non-negative sum by a bit.)
    pub fn busy_time_s(&self) -> f64 {
        self.prefill_time + self.decode_time + self.swap_time + self.migration_time
    }

    /// All requests finished?
    pub fn is_done(&self) -> bool {
        self.pending.is_empty() && self.residents.is_empty()
    }

    /// The running batch, in admission order, each resident synced as it is
    /// yielded (its `generated` and `prefilled` count every step decoded).
    pub fn running(&self) -> impl ExactSizeIterator<Item = Request> + '_ {
        self.residents.running()
    }

    /// Residents still in prefill. O(1), audited against the scan in debug
    /// builds.
    pub fn prefilling(&self) -> usize {
        self.residents.prefilling()
    }

    /// `(count, Σ prefilled)` of the residents that will decode this tick:
    /// all a cost model needs to price the step. O(1), audited like
    /// [`Scheduler::prefilling`].
    pub fn decode_totals(&self) -> (usize, usize) {
        self.residents.decode_totals()
    }

    /// Arms resident `i` if its prefill is complete, with the headroom the
    /// ledger reports over its prompt.
    fn arm_if_ready<B: KvBudget>(&mut self, i: usize, budget: &mut B) {
        if let Some((handle, held)) = self.residents.unarmed(i) {
            let room = budget.grow(handle, held).expect("a resident's pages hold its prompt");
            self.residents.arm(i, room);
        }
    }

    /// Differential audit of the scheduler against its page ledger: every
    /// resident, synced, with its `prefill_len()` and its headroom once
    /// decodable, and every swapped-out request, checked by
    /// [`PageBudget::assert_mirrors`]. Holds between ticks.
    ///
    /// # Panics
    /// Panics on any disagreement.
    #[doc(hidden)]
    pub fn assert_mirrors_ledger(&self, budget: &PageBudget) {
        let residents = self.residents.mirror().map(|(seat, r, room)| (seat, r.id, r.prefill_len(), room));
        let swapped = self.pending.iter().filter(|r| r.state == RequestState::Swapped);
        budget.assert_mirrors(residents, swapped.map(|r| (r.id, r.prefill_len())));
    }

    /// What `candidate`'s sharing group offers it, read in one pass over the
    /// residents (unsynced: a decoding sibling is past its prefix anyway):
    /// the tokens a fork can alias — the longest prefix of its prompt a
    /// resident member has materialized, or a migration warmed — and the
    /// group whose page pool it joins (aliasing) or founds (no resident
    /// member). A member that recomputes the prefix *while* a sibling is
    /// still chunk-prefilling it holds a private copy, in no pool.
    ///
    /// `None` holds admission: a resident sibling is still chunk-prefilling
    /// a prefix the candidate could alias, and holding a tick gets it for
    /// free. Under whole-prompt prefill a sibling counts as holding its whole
    /// `prefill_len()` (this tick's pass completes it first), so whole-prompt
    /// admission never holds.
    fn share(&self, candidate: &Request) -> Option<(usize, Option<u64>)> {
        let Some(group) = candidate.prefix_group() else { return Some((0, None)) };
        let whole = self.opts.chunk_tokens.is_none();
        let (mut aliased, mut potential, mut resident) = (0, 0, false);
        for (_, r) in self.residents.iter().filter(|(_, r)| r.prefix_group() == Some(group)) {
            let reach = candidate.prefix_len().min(r.prefix_len());
            let held = if whole { r.prefill_len() } else { r.prefilled() };
            aliased = aliased.max(reach.min(held));
            (potential, resident) = (potential.max(reach), true);
        }
        // A migrated-in prefix is aliasable even with no resident sibling:
        // its pages arrived warm over the peer link.
        let warm = self.warm_prefixes.get(&group).map_or(0, |&t| t.min(candidate.prefix_len()));
        let shared = aliased.max(warm);
        (potential <= shared).then_some((shared, (shared > 0 || !resident).then_some(group)))
    }

    /// Marks `tokens` of sharing group `group`'s prefix as warm: admitted
    /// members alias them like a resident sibling's pages. Installed by the
    /// cluster driver after a successful [`PageBudget::import_pool`]; kept
    /// at the maximum over repeated installs.
    pub fn install_warm_prefix(&mut self, group: u64, tokens: usize) {
        let slot = self.warm_prefixes.entry(group).or_insert(0);
        *slot = (*slot).max(tokens);
    }

    /// The report fold over every retirement so far — mutable, so a report
    /// sorts its columns in place.
    pub(crate) fn fold(&mut self) -> &mut Fold {
        &mut self.fold
    }

    /// Requests submitted here and not running: queued, preempted or swapped out.
    pub(crate) fn waiting(&self) -> usize {
        self.pending.len()
    }

    /// Preemption events so far.
    pub fn preemptions(&self) -> usize {
        self.preemptions
    }

    /// Seconds the clock was charged for prefill.
    pub(crate) fn prefill_time_s(&self) -> f64 {
        self.prefill_time
    }

    /// Seconds the clock was charged for decode steps.
    pub(crate) fn decode_time_s(&self) -> f64 {
        self.decode_time
    }

    /// Number of pending requests that are eligible by the current clock.
    fn arrived(&self) -> usize {
        // `pending` is sorted by ready time, so the eligible set is a prefix
        // — under a backlog, usually all of it, which the last request says
        // without a search.
        match self.pending.back() {
            Some(last) if last.ready_s <= self.clock => self.pending.len(),
            _ => self.pending.partition_point(|r| r.ready_s <= self.clock),
        }
    }

    /// One scheduling tick, the only spelling of the driver contract: admit,
    /// run the prefill pass, idle when nothing runs, make room, price the
    /// host-link traffic, decode. `exec` runs or prices each step; the tick
    /// sequences and gates them and charges the clock. Its callers are a
    /// [`crate::cluster`] replica ([`crate::ServingEngine::serve`] included)
    /// and [`crate::ModelRuntime::serve_with`]. Generic over the budget and
    /// the executor, so ledger calls and hooks inline into the hot path.
    pub fn tick<B: KvBudget, E: TickExecutor>(&mut self, budget: &mut B, exec: &mut E) {
        self.admit(budget);
        self.prefill_pass(budget);
        if !self.slices.is_empty() {
            let dt = exec.prefill(self, &self.slices);
            self.clock += dt;
            self.prefill_time += dt;
        }
        if self.residents.is_empty() {
            // Idle forward to the next arrival. A drained-but-open scheduler
            // (cluster replica between routing decisions) has none.
            if let Some(next) = self.pending.front() {
                self.clock = self.clock.max(next.ready_s);
            }
            return;
        }
        self.make_room(budget);
        exec.preempted(self, &self.preempted, &self.swapped);
        // This tick's host-link traffic (swap-ins at admission, swap-outs
        // from make-room) goes into the clock: preemption by swap is not
        // free. Zero pages, zero seconds.
        let pages = std::mem::take(&mut self.tick_swap_pages);
        if pages > 0 {
            let dt = exec.swap(self, pages);
            self.clock += dt;
            self.swap_time += dt;
        }
        if self.residents.decodable() == 0 {
            return; // every resident is still chunk-prefilling
        }
        let dt = exec.decode(self);
        self.decode_step(dt, budget);
        exec.retired(self, &self.done);
    }

    /// Admission step: repeatedly let the policy pick among arrived requests
    /// and the budget confirm, until the batch limit is hit, the policy
    /// holds, or the budget refuses. When the machine is idle the first
    /// arrived request is force-admitted past a holding policy — a policy
    /// may shape order, not deadlock the system. A new resident is seated
    /// at its aliased prefix; the prefill pass runs the rest.
    fn admit<B: KvBudget>(&mut self, budget: &mut B) {
        // An empty backlog (the steady state of a draining replica) skips
        // the arrival search, the policy call and its free-token division.
        while self.residents.len() < self.batch_limit && !self.pending.is_empty() {
            let arrived = self.arrived();
            if arrived == 0 {
                break;
            }
            // Policies see the arrived prefix as one slice; a deque can
            // wrap, so straighten it first (amortized O(1): the queue only
            // wraps after front removals, and straightening is a rotate).
            if self.pending.as_slices().0.len() < arrived {
                self.pending.make_contiguous();
            }
            // Idle machine: progress beats policy caution.
            let idle = self.residents.is_empty();
            let choice = self.policy.select(&self.pending.as_slices().0[..arrived], budget);
            let Some(idx) = choice.or(idle.then_some(0)) else { break };
            assert!(idx < arrived, "policy selected an unarrived request");
            let candidate = &self.pending[idx];
            // A swapped-out candidate re-admits by swapping its pages back,
            // not by prefilling: its KV state survived eviction, so it joins
            // the batch where it left off and the driver prices the page
            // transfer instead of recompute.
            let (handle, shared) = if candidate.state == RequestState::Swapped {
                let id = candidate.id;
                let Some((handle, pages)) = budget.swap_in(id) else {
                    assert!(!idle, "request {:?} can never swap back onto an idle device", id);
                    break;
                };
                self.tick_swap_pages += pages;
                self.swap_in_pages += pages;
                (handle, None)
            } else {
                // Prefix-aware admission: alias what the group offers, or hold.
                let (shared, group) = if self.opts.share_prefixes {
                    let Some(grant) = self.share(candidate) else { break };
                    grant
                } else {
                    (0, None)
                };
                // Pages-wise, a founder's pool covers its whole prefix (it will
                // compute it); a joiner's coverage is exactly what it aliases.
                let pool_tokens = match (group, shared) {
                    (None, _) => 0,
                    (Some(_), 0) => candidate.prefix_len(),
                    (Some(_), grant) => grant,
                };
                let (id, peak) = (candidate.id, candidate.peak_len());
                let Some(handle) = budget.admit(id, group, pool_tokens, candidate.prefill_len(), peak) else {
                    assert!(!idle, "request {:?} (peak {} tokens) can never fit the KV budget", id, peak);
                    break;
                };
                (handle, Some(shared))
            };
            let mut req = self.pending.remove(idx).expect("policy index in bounds");
            req.state = RequestState::Running;
            if let Some(shared) = shared {
                // A queued request held nothing (eviction wipes `prefilled`),
                // so the owed-work counter shrinks by exactly the tokens aliased.
                req.set_prefilled(shared);
                self.outstanding = self
                    .outstanding
                    .checked_sub(shared)
                    .expect("outstanding-token counter underflow at admission");
            }
            let i = self.residents.seat(req, handle);
            self.arm_if_ready(i, budget); // a swapped-back resident arrives decodable
        }
    }

    /// The prefill pass: every resident still prefilling advances by at
    /// most [`SchedOptions::chunk_tokens`] tokens — its whole remainder
    /// without chunking — and is reported as `(id, new_tokens, past_tokens)`
    /// — `past_tokens` being the context those new tokens attend over
    /// (aliased prefix + earlier slices) — into `slices`, cleared first. A
    /// resident whose last slice this is joins the decodable set.
    fn prefill_pass<B: KvBudget>(&mut self, budget: &mut B) {
        self.slices.clear();
        let chunk_tokens = self.opts.chunk_tokens.unwrap_or(usize::MAX);
        let mut taken = 0usize;
        for i in self.residents.prefill_tail() {
            let Some(slice) = self.residents.prefill(i, chunk_tokens) else { continue };
            self.slices.push(slice);
            taken += slice.1;
            self.arm_if_ready(i, budget);
        }
        self.outstanding = self
            .outstanding
            .checked_sub(taken)
            .expect("outstanding-token counter underflow in prefill");
    }

    /// Charges `dt` seconds of peer-link transfer for a migrated-in prefix
    /// pool — the receiving replica stalls while the pages land. Zero pages
    /// must be charged zero seconds (the caller prices via
    /// [`qserve_gpusim::HostLink::transfer_latency`], which is exactly
    /// `0.0` for an empty transfer).
    pub fn charge_migration(&mut self, dt: f64) {
        self.clock += dt;
        self.migration_time += dt;
    }

    /// Cumulative swap-out preemption events.
    pub fn swap_outs(&self) -> usize {
        self.swap_outs
    }

    /// Cumulative device pages spilled to the host tier.
    pub fn swap_out_pages(&self) -> usize {
        self.swap_out_pages
    }

    /// Cumulative device pages restored from the host tier.
    pub fn swap_in_pages(&self) -> usize {
        self.swap_in_pages
    }

    /// Evicts *everything* — running, swapped, and queued alike — exactly
    /// as a replica crash does: every budget holding is released, each
    /// victim's KV state is wiped (its `generated` tokens kept, to be
    /// recomputed on re-admission), and the drained requests are returned in
    /// id order for the caller to requeue, with the materialized tokens lost.
    /// The clock, report fold and counters survive: a restarted replica
    /// resumes reporting where it left off.
    pub fn evict_all<B: KvBudget>(&mut self, budget: &mut B) -> (Vec<Request>, usize) {
        let mut victims: Vec<Request> = std::mem::take(&mut self.pending).into();
        for r in victims.iter().filter(|r| r.state == RequestState::Swapped) {
            budget.release(r.id, None);
        }
        for (handle, r) in self.residents.iter() {
            budget.release(r.id, Some(handle));
        }
        victims.extend(self.running()); // synced: each keeps every token generated here
        self.residents.clear();
        let mut lost = 0usize;
        for req in &mut victims {
            // Wiping `prefilled` re-owes the work; queued victims had
            // nothing materialized, so they contribute zero.
            lost += req.prefilled();
            req.state = RequestState::Queued;
            req.set_prefilled(0);
        }
        // Nothing is pending or running any more, so nothing is owed here;
        // the requeued requests will re-owe their work wherever they land.
        self.outstanding = 0;
        // Migrated-in prefixes died with the KV pool: the caller releases
        // the budget's anchors, and no future member may alias dead pages.
        self.warm_prefixes.clear();
        victims.sort_by(|a, b| a.id.cmp(&b.id));
        (victims, lost)
    }

    /// Advances the clock to `t` if it lags (no-op otherwise) — how a
    /// restarted replica skips its offline window without charging busy
    /// time.
    pub fn advance_clock_to(&mut self, t: f64) {
        self.clock = self.clock.max(t);
    }

    /// Makes sure every resident about to decode has room for its next
    /// token, preempting the newest resident until the budget fits;
    /// `preempted` and `swapped` are refilled with the recompute and swap
    /// victims, each in eviction order. Only a resident whose pages fill
    /// this step needs the ledger: make-room visits those the resident set
    /// lists ([`Residents::take_due`]), in admission order, with one ledger
    /// call each. A refusal evicts the newest resident — its token for this
    /// tick unspent, since it is never before the cursor — and retries; a due
    /// resident evicted before its turn is skipped.
    ///
    /// # Panics
    /// Panics if a lone resident cannot grow — the pool is too small for
    /// even one request, which admission should have refused.
    fn make_room<B: KvBudget>(&mut self, budget: &mut B) {
        self.preempted.clear();
        self.swapped.clear();
        for k in 0..self.residents.take_due() {
            let Some((handle, id, held)) = self.residents.due(k) else {
                continue; // evicted by an earlier resident's refusal
            };
            while !self.grow_past_page(k, handle, held, budget) {
                assert!(
                    self.residents.len() > 1,
                    "KV budget cannot hold even one growing sequence (request {id:?})"
                );
                // LIFO, which protects the oldest request's progress: it is never
                // evicted, so someone always finishes and preemption cannot livelock.
                if self.evict(self.residents.len() - 1, budget) == handle {
                    break; // the refused resident was the newest: nothing due is left
                }
            }
        }
    }

    /// Preempts resident `victim` (the newest): parks it on the host tier in
    /// swap mode if the tier takes it, else wipes it for recompute; either
    /// way it is reported in its slice. Returns the handle it held.
    fn evict<B: KvBudget>(&mut self, victim: usize, budget: &mut B) -> KvHandle {
        let (mut req, handle) = self.residents.evict(victim); // synced
        if self.opts.preemption == PreemptionMode::Swap {
            // Parked at the tokens it holds: it has not decoded this tick.
            if let Some(pages) = budget.swap_out(req.id, handle, req.prefill_len()) {
                self.tick_swap_pages += pages;
                self.swap_out_pages += pages;
                self.swap_outs += 1;
                self.swapped.push(req.id);
                // KV state survives on the host tier: `prefilled` is
                // kept, so nothing is re-owed — the driver pays the
                // page transfer, not recompute.
                req.state = RequestState::Swapped;
                self.enqueue(req);
                return handle;
            }
        }
        self.preempted.push(req.id);
        budget.release(req.id, Some(handle));
        req.state = RequestState::Queued;
        // Resetting `prefilled` re-owes the recompute work (prompt plus the
        // tokens generated so far): the counter grows by what was wiped.
        self.outstanding += req.prefilled();
        req.set_prefilled(0);
        self.preemptions += 1;
        self.enqueue(req);
        handle
    }

    /// Charges due resident `k`'s next token to the ledger in one call — at
    /// `held` tokens, synced, the call also counts those decoded since the
    /// ledger last heard. `false` (nothing charged): the pool is dry.
    fn grow_past_page<B: KvBudget>(&mut self, k: usize, seat: KvHandle, held: usize, budget: &mut B) -> bool {
        let free = cfg!(debug_assertions).then(|| budget.free_tokens());
        let Some(room) = budget.grow(seat, held + 1) else { return false };
        debug_assert_eq!(
            free.and_then(|free| free.checked_sub(budget.free_tokens())),
            Some(room + 1),
            "page-end column drifted from the ledger: a boundary opens one page per layer"
        );
        self.residents.grow(k, room);
        true
    }

    /// Inserts `req` into `pending` at its `(ready_s, id)` slot — for an
    /// evicted resident that is its original place, so FCFS re-admits it
    /// first. A request that sorts last (every new arrival, in order) is
    /// pushed without a search. Any other gallops from the front — probes
    /// 0, 1, 3, 7, … until one sorts after it, then bisects that bracket:
    /// a LIFO victim re-enters behind only the earlier victims, so the
    /// search reads O(log slot) records, not O(log backlog) cold ones.
    fn enqueue(&mut self, req: Request) {
        let key = (req.ready_s, req.id);
        let before = |r: &Request| (r.ready_s, r.id) <= key;
        if self.pending.back().is_none_or(before) {
            self.pending.push_back(req);
            return;
        }
        // The back sorts after `req`, so the probe stops by the last index.
        let last = self.pending.len() - 1;
        let (mut lo, mut hi) = (0, 0);
        while before(&self.pending[hi]) {
            lo = hi + 1;
            hi = (2 * hi + 1).min(last);
        }
        // `pending[..lo]` sorts before or with `req`, `pending[hi]` after it.
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(&self.pending[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.pending.insert(lo, req);
    }

    /// One decode step, charged `dt` ([`Residents::decode`]): each retiree,
    /// in admission order, is released by the budget and leaves a record in
    /// `done`, which the report fold has counted.
    fn decode_step<B: KvBudget>(&mut self, dt: f64, budget: &mut B) {
        self.clock += dt;
        self.decode_time += dt;
        self.done.clear();
        let Self { residents, fold, done, clock, .. } = self;
        let decodable = residents.decode(*clock, |req, handle| {
            budget.release(req.id, Some(handle));
            // A retiring request owes nothing: its final token was just
            // counted.
            let record = FinishedRequest::retire(req, *clock);
            fold.add(&record);
            done.push(record);
        });
        self.outstanding =
            self.outstanding.checked_sub(decodable).expect("outstanding-token counter underflow in decode");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Reservation;
    use crate::request::WorkloadSpec;
    use crate::resident::{day, Step, NEVER};

    /// Flat prices — `prefill` per slice, `decode` per step, swaps free —
    /// with `probe` shown the scheduler at every hook; keeps every retired
    /// record.
    struct Flat<P: FnMut(&Scheduler)> {
        prefill: f64,
        decode: f64,
        probe: P,
        done: Vec<FinishedRequest>,
    }

    impl<P: FnMut(&Scheduler)> TickExecutor for Flat<P> {
        fn prefill(&mut self, sched: &Scheduler, slices: &[(RequestId, usize, usize)]) -> f64 {
            (self.probe)(sched);
            self.prefill * slices.len() as f64
        }
        fn swap(&mut self, _: &Scheduler, _: usize) -> f64 {
            0.0
        }
        fn decode(&mut self, sched: &Scheduler) -> f64 {
            (self.probe)(sched);
            self.decode
        }
        fn preempted(&mut self, sched: &Scheduler, _: &[RequestId], _: &[RequestId]) {
            (self.probe)(sched);
        }
        fn retired(&mut self, _: &Scheduler, done: &[FinishedRequest]) {
            self.done.extend_from_slice(done);
        }
    }

    /// An open scheduler with `requests` submitted.
    fn submitted(
        requests: Vec<Request>,
        batch_limit: usize,
        policy: Box<dyn SchedulingPolicy>,
        opts: SchedOptions,
    ) -> Scheduler {
        let mut sched = Scheduler::open(batch_limit, policy, opts);
        for r in requests {
            sched.submit(r);
        }
        sched
    }

    fn legacy(requests: Vec<Request>, batch_limit: usize, policy: Box<dyn SchedulingPolicy>) -> Scheduler {
        submitted(requests, batch_limit, policy, SchedOptions::default())
    }

    /// A ledger no test workload comes near filling: admission is gated by
    /// the batch limit alone.
    fn roomy() -> PageBudget {
        PageBudget::new(16, 1, 1 << 40, Reservation::OnDemand)
    }

    /// Ticks `sched` to completion at flat prices and hands it back with
    /// its retired records, in completion order.
    fn drive(
        mut sched: Scheduler,
        budget: &mut PageBudget,
        prefill_cost: f64,
        decode_cost: f64,
    ) -> (Scheduler, Vec<FinishedRequest>) {
        let mut guard = 0usize;
        let mut exec = Flat { prefill: prefill_cost, decode: decode_cost, probe: |_| {}, done: Vec::new() };
        while !sched.is_done() {
            guard += 1;
            assert!(guard < 1_000_000, "scheduler failed to converge");
            sched.tick(budget, &mut exec);
        }
        (sched, exec.done)
    }

    /// Output tokens over `done`.
    fn generated(done: &[FinishedRequest]) -> usize {
        done.iter().map(FinishedRequest::generated).sum()
    }

    /// Mean end-to-end latency over `done`.
    fn mean_latency(done: &[FinishedRequest]) -> f64 {
        let total: f64 = done.iter().map(FinishedRequest::latency_s).sum();
        total / done.len() as f64
    }

    #[test]
    fn sjf_prefers_short_jobs() {
        // One long job arrives first, shorts queue behind it; with batch 1,
        // SJF clears every short before the long one.
        let mut reqs = vec![crate::request::Request::new(crate::request::RequestId(0), 8, 64, 0.0)];
        for i in 1..5u64 {
            reqs.push(crate::request::Request::new(crate::request::RequestId(i), 8, 2, 0.0));
        }
        let sched = legacy(reqs.clone(), 1, Box::new(ShortestJobFirst));
        let (_, sjf) = drive(sched, &mut roomy(), 0.1, 0.01);
        let sched = legacy(reqs, 1, Box::new(Fcfs));
        let (_, fcfs) = drive(sched, &mut roomy(), 0.1, 0.01);
        assert!(
            mean_latency(&sjf) < mean_latency(&fcfs),
            "SJF mean {} should beat FCFS {}",
            mean_latency(&sjf),
            mean_latency(&fcfs)
        );
    }

    #[test]
    fn on_demand_budget_forces_preemption_and_still_completes() {
        // Pool: 16 pages × 4 tokens, 1 layer = 64 token slots. Four requests
        // peak at 34 tokens each (2+32): peak reservation fits one at a
        // time; on-demand admits all four (4×2=8 tokens to start) and must
        // preempt as they grow toward 4×34 = 136 > 64.
        let reqs = WorkloadSpec::fixed(2, 32, 4).sample();
        let mut budget = PageBudget::new(4, 1, 16, Reservation::OnDemand);
        let sched = legacy(reqs, 4, Box::new(MemoryAware { headroom: 0.0 }));
        let (sched, done) = drive(sched, &mut budget, 0.1, 0.01);
        assert_eq!(done.len(), 4);
        assert_eq!(generated(&done), 128);
        assert!(sched.preemptions() > 0, "tight pool must force preemption");
        assert_eq!(budget.free_pages(), budget.total_pages(), "all pages returned");
    }

    /// Two tenants (groups 0 and 1), prefix 8, suffix 4, output 4, group 0
    /// first and last.
    fn two_tenants() -> Vec<Request> {
        let mk = |id: u64, group: u64| Request::new(RequestId(id), 12, 4, 0.0).with_prefix(group, 8);
        vec![mk(0, 0), mk(1, 0), mk(2, 1), mk(3, 0)]
    }

    /// `(id, new, past)` of a tick's prefill slices.
    fn slices(sched: &Scheduler) -> Vec<(u64, usize, usize)> {
        sched.slices.iter().map(|&(id, new, past)| (id.0, new, past)).collect()
    }

    #[test]
    fn shared_admission_grants_resident_prefixes() {
        // With sharing on, the later same-group members of one admission
        // alias the first's prefix: its whole prompt runs first in the pass.
        let opts = SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() };
        let mut sched = submitted(two_tenants(), 4, Box::new(Fcfs), opts);
        let mut exec = Flat { prefill: 0.1, decode: 0.01, probe: |_| {}, done: Vec::new() };
        sched.tick(&mut roomy(), &mut exec);
        assert_eq!(
            slices(&sched),
            [(0, 12, 0), (1, 4, 8), (2, 12, 0), (3, 4, 8)],
            "group 0's prefix is aliased once resident; group 1 pays its own"
        );
        // Sharing off: no grants.
        let mut sched = legacy(two_tenants(), 4, Box::new(Fcfs));
        sched.tick(&mut roomy(), &mut exec);
        assert_eq!(slices(&sched), [(0, 12, 0), (1, 12, 0), (2, 12, 0), (3, 12, 0)]);
    }

    #[test]
    fn chunked_shared_admission_holds_joiners_until_the_prefix_lands() {
        // The same four under 4-token chunks: a joiner that would recompute
        // the founder's half-prefilled prefix holds (and FCFS with it) until
        // the founder's chunks cover the prefix, then aliases all of it.
        let opts = SchedOptions { share_prefixes: true, chunk_tokens: Some(4), ..SchedOptions::default() };
        let mut sched = submitted(two_tenants(), 4, Box::new(Fcfs), opts);
        let (mut budget, mut exec) =
            (roomy(), Flat { prefill: 0.1, decode: 0.01, probe: |_| {}, done: Vec::new() });
        let expected: [&[(u64, usize, usize)]; 3] =
            [&[(0, 4, 0)], &[(0, 4, 4)], &[(0, 4, 8), (1, 4, 8), (2, 4, 0), (3, 4, 8)]];
        for (tick, slices_then) in expected.into_iter().enumerate() {
            sched.tick(&mut budget, &mut exec);
            assert_eq!(slices(&sched), slices_then, "tick {tick}");
        }
    }

    #[test]
    fn chunked_prefill_interleaves_and_completes() {
        // Prompts of 10 tokens, chunk 4: prefill takes ticks 1-3 (4+4+2)
        // while earlier-finished... then 5 decode ticks.
        let reqs = WorkloadSpec::fixed(10, 5, 3).sample();
        let mut sched = submitted(
            reqs,
            2,
            Box::new(Fcfs),
            SchedOptions { share_prefixes: false, chunk_tokens: Some(4), ..SchedOptions::default() },
        );
        struct Chunked(Vec<FinishedRequest>);
        impl TickExecutor for Chunked {
            fn prefill(&mut self, sched: &Scheduler, slices: &[(RequestId, usize, usize)]) -> f64 {
                for &(id, new, past) in slices {
                    assert!(new <= 4 && past + new <= 10);
                    let r = sched.running().find(|r| r.id == id).unwrap();
                    assert_eq!(r.prefilled(), past + new, "the pass advanced {id:?} by its slice");
                }
                0.1 * slices.len() as f64
            }
            fn swap(&mut self, _: &Scheduler, _: usize) -> f64 {
                0.0
            }
            fn decode(&mut self, _: &Scheduler) -> f64 {
                0.01
            }
            fn retired(&mut self, _: &Scheduler, done: &[FinishedRequest]) {
                self.0.extend_from_slice(done);
            }
        }
        let (mut budget, mut guard, mut exec) = (roomy(), 0, Chunked(Vec::new()));
        while !sched.is_done() {
            guard += 1;
            assert!(guard < 10_000);
            sched.tick(&mut budget, &mut exec);
        }
        assert_eq!(exec.0.len(), 3);
        assert_eq!(generated(&exec.0), 15);
        assert!(sched.prefill_time_s() > 0.0);
    }

    #[test]
    fn outstanding_tokens_counts_owed_work() {
        let reqs = vec![crate::request::Request::new(crate::request::RequestId(0), 8, 4, 0.0)];
        let mut sched = legacy(reqs, 1, Box::new(Fcfs));
        assert_eq!(sched.outstanding_tokens(), 12);
        let mut owed_at_hooks = Vec::new();
        let probe = |s: &Scheduler| owed_at_hooks.push(s.outstanding_tokens());
        sched.tick(&mut roomy(), &mut Flat { prefill: 0.1, decode: 0.01, probe, done: Vec::new() });
        // Whole-prompt prefill materialized at admission: output remains.
        assert_eq!(owed_at_hooks, vec![4; 3], "after admission, make-room and before the decode");
        assert_eq!(sched.outstanding_tokens(), 3);
    }

    #[test]
    fn outstanding_counter_survives_preemption_churn() {
        // The incremental counter must track the ground-truth scan through
        // the messiest path: on-demand admission, growth failure, preempt,
        // recompute re-admission. `outstanding_tokens()` debug-asserts the
        // two agree at every probe.
        let reqs = WorkloadSpec::fixed(2, 32, 4).sample();
        let mut budget = PageBudget::new(4, 1, 16, Reservation::OnDemand);
        let mut sched = legacy(reqs, 4, Box::new(MemoryAware { headroom: 0.0 }));
        let mut guard = 0usize;
        // After admission, after make-room and (below) after the decode step.
        let probe = |s: &Scheduler| assert_eq!(s.outstanding_tokens(), s.outstanding_tokens_scan());
        let mut exec = Flat { prefill: 0.0, decode: 0.01, probe, done: Vec::new() };
        while !sched.is_done() {
            guard += 1;
            assert!(guard < 100_000);
            sched.tick(&mut budget, &mut exec);
            assert_eq!(sched.outstanding_tokens(), sched.outstanding_tokens_scan());
        }
        assert!(sched.preemptions() > 0, "the churn path was not exercised");
        assert_eq!(sched.outstanding_tokens(), 0);
    }

    /// Every retirement makes one record, kept until the tick ends and
    /// passed by value to the fold and the hook; growth is a visible diff
    /// (README, "What a request costs in memory").
    #[test]
    fn finished_record_size_is_pinned() {
        assert_eq!(std::mem::size_of::<FinishedRequest>(), 48);
    }

    #[test]
    fn in_place_retirement_keeps_order_at_every_corner() {
        /// Flat prices; collects what the `retired` hook is told.
        #[derive(Default)]
        struct Recording(Vec<FinishedRequest>);
        impl TickExecutor for Recording {
            fn prefill(&mut self, _: &Scheduler, _: &[(RequestId, usize, usize)]) -> f64 {
                0.1
            }
            fn swap(&mut self, _: &Scheduler, _: usize) -> f64 {
                unreachable!("the pool never runs dry")
            }
            fn decode(&mut self, _: &Scheduler) -> f64 {
                0.01
            }
            fn retired(&mut self, _: &Scheduler, done: &[FinishedRequest]) {
                self.0.extend_from_slice(done);
            }
        }
        // (input, output) per request, all admitted on tick 1 in id order,
        // and the (survivors, finished) ids expected after each leading tick.
        type Trace = &'static [(&'static [u64], &'static [u64])];
        let corners: [(&str, &[(usize, usize)], Option<usize>, Trace); 8] = [
            ("first retires", &[(4, 1), (4, 2), (4, 2)], None, &[(&[1, 2], &[0]), (&[], &[0, 1, 2])]),
            ("last retires", &[(4, 2), (4, 2), (4, 1)], None, &[(&[0, 1], &[2]), (&[], &[2, 0, 1])]),
            ("middle retires", &[(4, 3), (4, 1), (4, 3)], None, &[(&[0, 2], &[1]), (&[0, 2], &[1])]),
            ("all retire at once", &[(4, 1), (4, 1), (4, 1)], None, &[(&[], &[0, 1, 2])]),
            ("adjacent retirees", &[(4, 2), (4, 1), (4, 1), (4, 2)], None, &[
                (&[0, 3], &[1, 2]),
                (&[], &[1, 2, 0, 3]),
            ]),
            ("two survivor runs move", &[(4, 1), (4, 2), (4, 2), (4, 1), (4, 2), (4, 2)], None, &[
                (&[1, 2, 4, 5], &[0, 3]),
                (&[], &[0, 3, 1, 2, 4, 5]),
            ]),
            ("retirees at both ends", &[(4, 1), (4, 2), (4, 2), (4, 1)], None, &[
                (&[1, 2], &[0, 3]),
                (&[], &[0, 3, 1, 2]),
            ]),
            // Chunk 2: requests 0 and 2 finish prefill, decode and retire on
            // tick 1 while request 1 sits between them, eight tokens short.
            ("a prefilling resident between two retirees", &[(2, 1), (10, 1), (2, 1)], Some(2), &[
                (&[1], &[0, 2]),
                (&[1], &[0, 2]),
            ]),
        ];
        for (corner, shapes, chunk_tokens, trace) in corners {
            let requests: Vec<Request> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(input, output))| Request::new(RequestId(i as u64), input, output, 0.0))
                .collect();
            let opts = SchedOptions { chunk_tokens, ..SchedOptions::default() };
            let mut sched = submitted(requests, shapes.len(), Box::new(Fcfs), opts);
            let mut budget = PageBudget::new(4, 1, 64, Reservation::OnDemand);
            let mut exec = Recording::default();
            let ids = |s: &Scheduler| s.running().map(|r| r.id.0).collect::<Vec<_>>();
            let mut ticks = 0usize;
            while !sched.is_done() {
                sched.tick(&mut budget, &mut exec);
                budget.assert_consistent();
                sched.assert_mirrors_ledger(&budget);
                let finished: Vec<u64> = exec.0.iter().map(|r| r.id.0).collect();
                if let Some(&(survivors, done)) = trace.get(ticks) {
                    assert_eq!(ids(&sched), survivors, "{corner}, tick {ticks}: survivors");
                    assert_eq!(finished, done, "{corner}, tick {ticks}: finished order");
                }
                ticks += 1;
                assert!(ticks < 100, "{corner}: failed to converge");
            }
            assert!(ticks >= trace.len(), "{corner}: the trace outran the run");
            assert_eq!(exec.0.len(), shapes.len(), "{corner}");
            for r in &exec.0 {
                assert_eq!(r.generated(), shapes[r.id.0 as usize].1, "{corner}: output of {:?}", r.id);
            }
            assert_eq!(budget.free_pages(), budget.total_pages(), "{corner}: pages returned");
        }
    }

    /// Flat prices. At the decode hook it records the batch about to decode
    /// — each id, and whether this step retires it: the input of a
    /// stable-filter reference for retirement — and it records what the
    /// `retired` hook is told.
    #[derive(Default)]
    struct Reference {
        batch: Vec<(u64, bool)>,
        retired: Vec<u64>,
    }

    impl TickExecutor for Reference {
        fn prefill(&mut self, _: &Scheduler, _: &[(RequestId, usize, usize)]) -> f64 {
            0.1
        }
        fn swap(&mut self, _: &Scheduler, pages: usize) -> f64 {
            1e-3 * pages as f64
        }
        fn decode(&mut self, sched: &Scheduler) -> f64 {
            let retires = |r: &Request| r.prefill_remaining() == 0 && r.generated() + 1 == r.output_len();
            self.batch = sched.running().map(|r| (r.id.0, retires(&r))).collect();
            0.01
        }
        fn retired(&mut self, _: &Scheduler, done: &[FinishedRequest]) {
            self.retired = done.iter().map(|r| r.id.0).collect();
        }
    }

    qserve_tensor::props! {
        /// Run compaction against a stable filter, on random batches of
        /// 1–64 residents, chunked and unchunked, in pools from one
        /// worst-case request (evicting by swap or recompute) to never
        /// binding. After every tick the survivors are the batch the decode
        /// step saw less its retirees, in order; the retirees reach the
        /// `retired` hook in that same order; every request is waiting
        /// (swapped-out ones included), running or retired; and the ledger
        /// mirrors the scheduler.
        fn retirement_compacts_like_a_stable_filter(rng) {
            let mut pick = |lo: i64, hi: i64| rng.int_in(lo, hi) as usize;
            let n = pick(1, 64);
            let requests: Vec<Request> = (0..n)
                .map(|i| Request::new(RequestId(i as u64), pick(1, 12), pick(1, 12), 0.0))
                .collect();
            let chunk_tokens = [None, Some(1), Some(3)][pick(0, 2)];
            let page_tokens = [1, 2, 4, 16][pick(0, 3)];
            // Every request peaks at most 24 tokens.
            let total = 24usize.div_ceil(page_tokens) * pick(1, 2 * n as i64);
            let swap = pick(0, 1) == 1;
            let mut budget = PageBudget::new(page_tokens, 1, total, Reservation::OnDemand);
            let preemption = if swap {
                budget.enable_host_tier(total);
                PreemptionMode::Swap
            } else {
                PreemptionMode::Recompute
            };
            let opts = SchedOptions { chunk_tokens, preemption, ..SchedOptions::default() };
            let mut sched = submitted(requests, n, Box::new(Fcfs), opts);
            let mut exec = Reference::default();
            let ids = |s: &Scheduler| s.running().map(|r| r.id.0).collect::<Vec<_>>();
            let (mut ticks, mut retired) = (0usize, 0usize);
            while !sched.is_done() {
                exec.batch.clear();
                exec.retired.clear();
                sched.tick(&mut budget, &mut exec);
                budget.assert_consistent();
                sched.assert_mirrors_ledger(&budget);
                let (gone, kept): (Vec<_>, Vec<_>) = exec.batch.iter().partition(|&&(_, retires)| retires);
                if !exec.batch.is_empty() {
                    let kept: Vec<u64> = kept.iter().map(|&&(id, _)| id).collect();
                    assert_eq!(ids(&sched), kept, "tick {ticks}: survivors");
                }
                let gone: Vec<u64> = gone.iter().map(|&&(id, _)| id).collect();
                assert_eq!(exec.retired, gone, "tick {ticks}: retired hook");
                retired += gone.len();
                let books = sched.waiting() + sched.running().len() + retired;
                assert_eq!(books, n, "tick {ticks}: waiting + running + retired");
                ticks += 1;
                assert!(ticks < 10_000, "failed to converge");
            }
            assert_eq!(retired, n);
            assert_eq!(budget.free_pages(), budget.total_pages(), "pages returned");
        }
    }

    #[test]
    fn make_room_reports_each_eviction_once_in_its_own_slice() {
        // Swap mode over a host tier too small for some victims, so one run
        // both swaps and falls back to recompute. Every swap-out reaches the
        // `swapped` slice exactly once and every recompute the other, after
        // the victim has left the batch.
        #[derive(Default)]
        struct Evictions {
            recomputed: usize,
            swapped: usize,
        }
        impl TickExecutor for Evictions {
            fn prefill(&mut self, _: &Scheduler, _: &[(RequestId, usize, usize)]) -> f64 {
                0.1
            }
            fn swap(&mut self, _: &Scheduler, pages: usize) -> f64 {
                1e-3 * pages as f64
            }
            fn decode(&mut self, _: &Scheduler) -> f64 {
                0.01
            }
            fn preempted(&mut self, sched: &Scheduler, recomputed: &[RequestId], swapped: &[RequestId]) {
                for id in recomputed.iter().chain(swapped) {
                    assert!(sched.running().all(|r| r.id != *id), "{id:?} evicted yet running");
                }
                self.recomputed += recomputed.len();
                self.swapped += swapped.len();
            }
        }
        let reqs: Vec<Request> = (0..6).map(|i| Request::new(RequestId(i), 30, 40, 0.0)).collect();
        let mut budget = PageBudget::new(16, 1, 14, Reservation::OnDemand);
        budget.enable_host_tier(3);
        let opts = SchedOptions { preemption: PreemptionMode::Swap, ..SchedOptions::default() };
        let mut sched = submitted(reqs, 6, Box::new(Fcfs), opts);
        let mut exec = Evictions::default();
        while !sched.is_done() {
            sched.tick(&mut budget, &mut exec);
        }
        assert!(exec.swapped > 0 && exec.recomputed > 0, "the run must swap and recompute");
        assert_eq!(exec.swapped, sched.swap_outs(), "swap victims reported");
        assert_eq!(exec.recomputed, sched.preemptions(), "recompute victims reported");
    }

    #[test]
    fn finished_record_carries_the_floats_reports_read() {
        use crate::request::Slo;
        let mut r = Request::new(RequestId(7), 8, 4, 1.0).with_slo(Slo::interactive(1.0, 4.0));
        r.stamp_first_token(1.5);
        r.decoded(4);
        r.requeued = true;
        let done = FinishedRequest::retire(&r, 4.0);
        assert_eq!((done.id, done.generated(), done.requeued), (RequestId(7), 4, true));
        assert_eq!((done.ttft_s(), done.latency_s()), (0.5, 3.0));
        // Worst of 0.5 / 1.0 and 3.0 / 4.0; both deadlines met.
        assert_eq!(done.slo_ratio(), Some(0.75));
        assert!(done.met_slo);
        let late = FinishedRequest::retire(&r, 6.0);
        assert_eq!(late.slo_ratio(), Some(1.25));
        assert!(!late.met_slo, "latency deadline missed");
        // A deadline-free request has no ratio and is always met.
        let free = FinishedRequest::retire(&r.with_slo(Slo::best_effort()), 1000.0);
        assert_eq!((free.slo_ratio(), free.met_slo), (None, true));
    }

    #[test]
    fn staggered_arrivals_idle_correctly() {
        let reqs = WorkloadSpec::fixed(4, 2, 3)
            .with_arrivals(crate::request::ArrivalPattern::Uniform { rate_rps: 0.5 })
            .sample();
        let sched = legacy(reqs, 2, Box::new(Fcfs));
        let (sched, done) = drive(sched, &mut roomy(), 0.0, 0.1);
        assert_eq!(done.len(), 3);
        // Last arrival at t=4s; the clock must have idled past it.
        assert!(sched.clock() >= 4.0);
    }

    /// A page ledger that logs every `grow` call as `(seat, step, tokens,
    /// granted)`, the step being the scheduler's step count, which
    /// [`GrowLog::tick`] records before each tick.
    struct GrowLog {
        pages: PageBudget,
        step: Step,
        grows: Vec<(usize, Step, usize, bool)>,
    }

    impl GrowLog {
        fn new(pages: PageBudget) -> Self {
            Self { pages, step: 0, grows: Vec::new() }
        }

        /// One tick of `sched` at flat prices against this ledger.
        fn tick(&mut self, sched: &mut Scheduler) {
            self.step = sched.residents.steps;
            let mut exec = Flat { prefill: 0.1, decode: 0.01, probe: |_| {}, done: Vec::new() };
            sched.tick(self, &mut exec);
            self.pages.assert_consistent();
            sched.assert_mirrors_ledger(&self.pages);
        }

        /// Ticks `sched` until it is done.
        fn drive(&mut self, sched: &mut Scheduler) {
            for _ in 0..10_000 {
                if sched.is_done() {
                    return;
                }
                self.tick(sched);
            }
            panic!("scheduler failed to converge");
        }
    }

    impl KvBudget for GrowLog {
        fn free_tokens(&self) -> usize {
            self.pages.free_tokens()
        }
        fn admit(
            &mut self,
            id: RequestId,
            group: Option<u64>,
            shared: usize,
            start: usize,
            peak: usize,
        ) -> Option<KvHandle> {
            self.pages.admit(id, group, shared, start, peak)
        }
        fn grow(&mut self, handle: KvHandle, tokens: usize) -> Option<usize> {
            let room = self.pages.grow(handle, tokens);
            self.grows.push((handle.0, self.step, tokens, room.is_some()));
            room
        }
        fn release(&mut self, id: RequestId, handle: Option<KvHandle>) {
            self.pages.release(id, handle);
        }
        fn swap_out(&mut self, id: RequestId, handle: KvHandle, tokens: usize) -> Option<usize> {
            self.pages.swap_out(id, handle, tokens)
        }
        fn swap_in(&mut self, id: RequestId) -> Option<(KvHandle, usize)> {
            self.pages.swap_in(id)
        }
    }

    /// Bookings in the whole calendar.
    fn bookings(sched: &Scheduler) -> usize {
        sched.residents.calendar.iter().map(Vec::len).sum()
    }

    #[test]
    fn a_refusal_evicts_a_resident_due_on_the_same_step_before_it_grows() {
        // Two one-page prompts fill a two-page pool and arm with full pages,
        // so both are due at step 0. The first is refused, evicts the second
        // (the newest) and is granted; the second is never grown.
        let reqs = (0..2).map(|i| Request::new(RequestId(i), 4, 3, 0.0)).collect();
        let mut sched = legacy(reqs, 2, Box::new(Fcfs));
        let mut log = GrowLog::new(PageBudget::new(4, 1, 2, Reservation::OnDemand));
        log.tick(&mut sched);
        assert_eq!(log.grows, [(0, 0, 4, true), (1, 0, 4, true), (0, 0, 5, false), (0, 0, 5, true)]);
        assert_eq!(sched.preemptions(), 1);
        assert_eq!(sched.running().map(|r| r.id.0).collect::<Vec<_>>(), [0]);
        log.drive(&mut sched);
        assert_eq!(log.pages.free_pages(), log.pages.total_pages(), "pages returned");
    }

    #[test]
    fn a_page_end_laps_ahead_is_visited_exactly_at_its_step() {
        // Forty-token pages, more than two laps of the calendar: a prompt
        // that fills its page grows at steps 0, 40 and 80, and at no other.
        let reqs = vec![Request::new(RequestId(0), 40, 100, 0.0)];
        let mut sched = legacy(reqs, 1, Box::new(Fcfs));
        let mut log = GrowLog::new(PageBudget::new(40, 1, 16, Reservation::OnDemand));
        log.drive(&mut sched);
        assert_eq!(log.grows, [(0, 0, 40, true), (0, 0, 41, true), (0, 40, 81, true), (0, 80, 121, true)]);
        // A `Peak` reservation's page end (here 60 steps out) is at or past
        // the step its resident retires: it is never booked, never grown.
        let reqs = vec![Request::new(RequestId(0), 4, 60, 0.0)];
        let mut sched = legacy(reqs, 1, Box::new(Fcfs));
        let mut log = GrowLog::new(PageBudget::new(4, 1, 16, Reservation::Peak));
        while !sched.is_done() {
            log.tick(&mut sched);
            assert_eq!(bookings(&sched), 0, "step {}", sched.residents.steps);
        }
        assert_eq!(sched.residents.steps, 60);
        assert_eq!(log.grows, [(0, 0, 4, true)]);
    }

    #[test]
    fn a_seat_vacated_and_reseated_within_a_lap_is_visited_once() {
        // Request 1 arms at step 0 on seat 1 and books step 8; request 0's
        // refusal evicts it at once, and at step 1 shortest-job-first seats
        // request 2, which arrived meanwhile, on the vacated seat with its
        // page end at step 8 too. Step 8 finds both bookings and grows the
        // seat once, for request 2.
        let reqs = vec![
            Request::new(RequestId(0), 16, 20, 0.0),
            Request::new(RequestId(1), 56, 24, 0.0),
            Request::new(RequestId(2), 9, 20, 0.15),
        ];
        let mut sched = submitted(reqs, 2, Box::new(ShortestJobFirst), SchedOptions::default());
        let mut log = GrowLog::new(PageBudget::new(16, 1, 5, Reservation::OnDemand));
        log.tick(&mut sched);
        assert_eq!(sched.preemptions(), 1);
        log.tick(&mut sched);
        assert_eq!(sched.running().map(|r| r.id.0).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(sched.residents.calendar[day(8)].len(), 2, "the stale booking and the live one");
        while sched.residents.steps <= 8 {
            log.tick(&mut sched);
        }
        assert_eq!(log.grows, [
            (0, 0, 16, true),
            (1, 0, 56, true),
            (0, 0, 17, false),
            (0, 0, 17, true),
            (1, 1, 9, true),
            (1, 8, 17, true),
        ]);
        log.drive(&mut sched);
    }

    #[test]
    fn evict_all_mid_lap_then_readmission_grows_as_a_fresh_scheduler_would() {
        // Four residents under page pressure are evicted five steps into a
        // lap and submitted again: the calendar empties, and from there on
        // the ledger hears exactly what a fresh scheduler serving the same
        // victims would tell it — same tokens, same refusals.
        let reqs = (0..4).map(|i| Request::new(RequestId(i), 5, 30, 0.0)).collect();
        let mut sched = legacy(reqs, 4, Box::new(Fcfs));
        let mut log = GrowLog::new(PageBudget::new(4, 1, 24, Reservation::OnDemand));
        for _ in 0..5 {
            log.tick(&mut sched);
        }
        assert_eq!(sched.residents.steps, 5, "mid-lap");
        let (victims, _) = sched.evict_all(&mut log);
        assert_eq!(bookings(&sched), 0);
        assert!(sched.residents.page_end.iter().all(|&end| end == NEVER), "every seat vacant");
        let mut fresh = legacy(victims.clone(), 4, Box::new(Fcfs));
        let mut fresh_log = GrowLog::new(PageBudget::new(4, 1, 24, Reservation::OnDemand));
        fresh_log.drive(&mut fresh);
        log.grows.clear();
        for v in victims {
            sched.submit(v);
        }
        log.drive(&mut sched);
        let told = |log: &GrowLog| {
            log.grows.iter().map(|&(_, _, tokens, granted)| (tokens, granted)).collect::<Vec<_>>()
        };
        assert!(fresh.preemptions() > 0, "the re-admitted residents contend for pages");
        assert_eq!(told(&log), told(&fresh_log));
        assert_eq!(log.pages.free_pages(), log.pages.total_pages(), "pages returned");
    }
}
