//! Shared by the two accounting suites (`preemption_accounting`,
//! `swap_accounting`): one audited drive over [`Scheduler::tick`].
//!
//! The steps of a tick are private to the scheduler, so the step-wise ledger
//! audit rides on the budget instead: [`Audited`] runs it after *every*
//! ledger call a tick makes — admission, each growth, each swap, each
//! release — which is strictly more often than once per step. It also counts
//! what growth asked of the ledger.

use qserve_serve::ledger::{KvBudget, KvHandle, PageBudget};
use qserve_serve::request::{Request, RequestId};
use qserve_serve::scheduler::{
    Fcfs, FinishedRequest, PreemptionMode, SchedOptions, Scheduler, TickExecutor,
};
use std::collections::{BTreeMap, BTreeSet};

/// What the drive's [`KvBudget::grow`] calls did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Growth {
    /// Calls that armed a resident: the first since it was seated, which
    /// reads its headroom and must charge nothing.
    pub arms: usize,
    /// The other `grow` calls: the growth.
    pub calls: usize,
    /// Device pages those calls acquired.
    pub pages: usize,
    /// Calls the pool refused.
    pub refusals: usize,
}

/// `budget` with `audit` run on it after each mutating call, and its growth
/// counted into `growth`.
struct Audited<'a, A: Fn(&PageBudget)> {
    budget: &'a mut PageBudget,
    audit: A,
    growth: &'a mut Growth,
    /// Seats admitted or swapped in whose resident has not armed yet.
    unarmed: &'a mut Vec<KvHandle>,
}

impl<A: Fn(&PageBudget)> Audited<'_, A> {
    fn audited<T>(&mut self, call: impl FnOnce(&mut PageBudget) -> T) -> T {
        let out = call(self.budget);
        (self.audit)(self.budget);
        out
    }

    /// Whether `handle`'s resident had yet to arm; forgets it either way.
    fn arming(&mut self, handle: KvHandle) -> bool {
        let at = self.unarmed.iter().position(|&h| h == handle);
        at.map(|at| self.unarmed.swap_remove(at)).is_some()
    }
}

impl<A: Fn(&PageBudget)> KvBudget for Audited<'_, A> {
    fn free_tokens(&self) -> usize {
        self.budget.free_tokens()
    }
    fn admit(
        &mut self,
        id: RequestId,
        group: Option<u64>,
        shared: usize,
        start: usize,
        peak: usize,
    ) -> Option<KvHandle> {
        let handle = self.audited(|b| b.admit(id, group, shared, start, peak));
        self.unarmed.extend(handle);
        handle
    }
    fn grow(&mut self, handle: KvHandle, tokens: usize) -> Option<usize> {
        let used = self.budget.used_pages();
        let room = self.audited(|b| b.grow(handle, tokens));
        let pages = self.budget.used_pages().checked_sub(used).expect("growth freed pages");
        if self.arming(handle) {
            assert!(room.is_some() && pages == 0, "arming {handle:?} charged {pages} pages or was refused");
            self.growth.arms += 1;
        } else {
            self.growth.calls += 1;
            self.growth.pages += pages;
            self.growth.refusals += usize::from(room.is_none());
        }
        room
    }
    fn release(&mut self, id: RequestId, handle: Option<KvHandle>) {
        if let Some(h) = handle {
            self.arming(h);
        }
        self.audited(|b| b.release(id, handle))
    }
    fn swap_out(&mut self, id: RequestId, handle: KvHandle, tokens: usize) -> Option<usize> {
        let pages = self.audited(|b| b.swap_out(id, handle, tokens));
        if pages.is_some() {
            self.arming(handle);
        }
        pages
    }
    fn swap_in(&mut self, id: RequestId) -> Option<(KvHandle, usize)> {
        let seated = self.audited(|b| b.swap_in(id));
        self.unarmed.extend(seated.map(|(h, _)| h));
        seated
    }
}

/// The drive's executor and what it meters. Prefill: 0.1 s per slice (one
/// per admitted request without chunking); host link: 0.001 s per page
/// (the tick drains the page movement once and asks only for a positive
/// count — zero pages cost zero seconds); decode: 0.01 s per tick.
#[derive(Default)]
struct Metered {
    chunk_tokens_metered: usize,
    mid_prefill_preemptions: usize,
    regranted_shares: usize,
    /// Recompute victims whose first slice since re-admission has not run.
    readmitting: BTreeSet<RequestId>,
    /// Residents still mid-prefill as make-room starts (after this tick's
    /// slices, the last step before it).
    mid_prefill: Vec<RequestId>,
    /// Every record the `retired` hook was handed, in completion order.
    finished: Vec<FinishedRequest>,
}

impl TickExecutor for Metered {
    fn prefill(&mut self, sched: &Scheduler, slices: &[(RequestId, usize, usize)]) -> f64 {
        for &(id, _, past) in slices {
            // A re-admission's first slice runs over exactly its grant.
            if self.readmitting.remove(&id) && past > 0 {
                self.regranted_shares += 1;
            }
        }
        self.chunk_tokens_metered += slices.iter().map(|&(_, n, _)| n).sum::<usize>();
        self.mid_prefill =
            sched.running().filter(|r| r.prefill_remaining() > 0).map(|r| r.id).collect();
        0.1 * slices.len() as f64
    }
    fn swap(&mut self, _: &Scheduler, pages: usize) -> f64 {
        0.001 * pages as f64
    }
    fn decode(&mut self, _: &Scheduler) -> f64 {
        0.01
    }
    /// Meters recompute victims only: a swap victim keeps its KV state, so
    /// it loses no prefill and re-admits by swap-in, never with a grant.
    fn preempted(&mut self, _: &Scheduler, recomputed: &[RequestId], _swapped: &[RequestId]) {
        for &id in recomputed {
            if self.mid_prefill.contains(&id) {
                self.mid_prefill_preemptions += 1;
            }
            self.readmitting.insert(id);
        }
        self.mid_prefill.clear();
    }
    fn retired(&mut self, _: &Scheduler, done: &[FinishedRequest]) {
        self.finished.extend_from_slice(done);
    }
}

/// What one drive did.
#[allow(dead_code)] // each suite reads the fields of its own preemption flavor
pub struct Driven {
    /// Requests finished.
    pub completed: usize,
    /// Output tokens generated across finished requests.
    pub generated_tokens: usize,
    /// Preemption events over the run.
    pub preemptions: usize,
    pub swap_outs: usize,
    pub swap_out_pages: usize,
    /// Total prompt/recompute tokens fed through prefill slices (prefill
    /// work actually performed, recompute included).
    pub chunk_tokens_metered: usize,
    /// Preemption victims that were still mid-chunked-prefill when evicted.
    pub mid_prefill_preemptions: usize,
    /// Re-admissions of previously-preempted grouped requests that received
    /// a shared-prefix grant while a sibling was resident.
    pub regranted_shares: usize,
    /// What growth asked of the ledger over the run.
    pub growth: Growth,
}

/// Drives `reqs` FCFS at `batch_limit` under `opts` to completion against
/// `budget`, auditing the (two-tier) ledger step-wise, the scheduler against
/// it after every tick, and recording per-request first-token clocks.
pub fn drive(reqs: &[Request], batch_limit: usize, opts: SchedOptions, budget: &mut PageBudget) -> Driven {
    let mut sched = Scheduler::open(batch_limit, Box::new(Fcfs), opts);
    for r in reqs {
        sched.submit(r.clone());
    }
    let total = budget.total_pages();
    let mut first_token_seen = BTreeMap::new();
    let audit = |budget: &PageBudget| {
        budget.assert_consistent();
        assert_eq!(
            budget.used_pages() + budget.free_pages(),
            total,
            "device used + free must equal total step-wise"
        );
    };
    let mut exec = Metered::default();
    let (mut growth, mut unarmed) = (Growth::default(), Vec::new());
    let mut guard = 0usize;
    while !sched.is_done() {
        guard += 1;
        assert!(guard < 100_000, "scheduler failed to converge");
        let mut audited = Audited { budget, audit, growth: &mut growth, unarmed: &mut unarmed };
        sched.tick(&mut audited, &mut exec);
        audit(budget);
        sched.assert_mirrors_ledger(budget);
        // Both accessors audit their O(1) counters (`outstanding`,
        // `prefilling`, the decodable `(count, Σ prefilled)`) against a full
        // scan in debug builds.
        let _ = (sched.outstanding_tokens(), sched.decode_totals());
        let decoded = sched.running().filter(|r| r.generated() > 0).map(|r| r.id);
        for id in decoded.chain(exec.finished.iter().map(|r| r.id)) {
            first_token_seen.entry(id).or_insert(sched.clock());
        }
    }
    assert_eq!(budget.free_pages(), total, "every device page returned at the end");
    if sched.options().preemption == PreemptionMode::Swap {
        assert!(budget.host_capacity_pages() > 0, "swap-mode budget has a host tier");
    }
    assert_eq!(budget.host_used_pages(), 0, "the host tier must drain by the end");
    assert_eq!(
        sched.swap_out_pages(),
        sched.swap_in_pages(),
        "every page that left the device must come back: finished requests \
         release on device, crashes are not part of this drive"
    );
    // TTFT stamped exactly once, at the true first token: the scheduler's
    // per-request stamp must equal the clock the driver observed live, and
    // must never move when a preempted request recomputes.
    for r in &exec.finished {
        assert_eq!(
            r.first_token_s,
            first_token_seen[&r.id],
            "request {:?} TTFT re-stamped",
            r.id
        );
    }
    Driven {
        completed: exec.finished.len(),
        generated_tokens: exec.finished.iter().map(FinishedRequest::generated).sum(),
        preemptions: sched.preemptions(),
        swap_outs: sched.swap_outs(),
        swap_out_pages: sched.swap_out_pages(),
        chunk_tokens_metered: exec.chunk_tokens_metered,
        mid_prefill_preemptions: exec.mid_prefill_preemptions,
        regranted_shares: exec.regranted_shares,
        growth,
    }
}

/// `n` group-mates over one `prefix`-token shared prefix, all arriving at 0.
pub fn shared_reqs(n: u64, prefix: usize, input: usize, output: usize) -> Vec<Request> {
    (0..n)
        .map(|i| Request::new(RequestId(i), input, output, 0.0).with_prefix(0, prefix))
        .collect()
}
