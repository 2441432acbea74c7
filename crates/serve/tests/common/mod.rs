//! Shared by the two accounting suites (`preemption_accounting`,
//! `swap_accounting`): one audited drive over [`Scheduler::tick`].
//!
//! The steps of a tick are private to the scheduler, so the step-wise ledger
//! audit rides on the budget instead: [`Audited`] runs it after *every*
//! ledger call a tick makes — admission, each growth, each swap, each
//! release — which is strictly more often than once per step.

use qserve_serve::request::{Request, RequestId};
use qserve_serve::scheduler::{
    AdmittedWave, KvBudget, KvHandle, PageBudget, PreemptionMode, Scheduler, SchedulerStats,
    TickExecutor,
};
use std::collections::{HashMap, HashSet};

/// `.0` with `.1` run on it after each mutating call.
struct Audited<'a, A: Fn(&PageBudget)>(&'a mut PageBudget, A);

impl<A: Fn(&PageBudget)> Audited<'_, A> {
    fn audited<T>(&mut self, call: impl FnOnce(&mut PageBudget) -> T) -> T {
        let out = call(self.0);
        (self.1)(self.0);
        out
    }
}

impl<A: Fn(&PageBudget)> KvBudget for Audited<'_, A> {
    fn free_tokens(&self) -> usize {
        self.0.free_tokens()
    }
    fn admit(&mut self, id: RequestId, start: usize, peak: usize) -> Option<KvHandle> {
        self.audited(|b| b.admit(id, start, peak))
    }
    fn admit_shared(
        &mut self,
        id: RequestId,
        group: Option<u64>,
        shared: usize,
        start: usize,
        peak: usize,
    ) -> Option<KvHandle> {
        self.audited(|b| b.admit_shared(id, group, shared, start, peak))
    }
    fn grow(&mut self, handle: KvHandle) -> bool {
        self.audited(|b| b.grow(handle))
    }
    fn release(&mut self, id: RequestId) {
        self.audited(|b| b.release(id))
    }
    fn swap_out(&mut self, id: RequestId) -> Option<usize> {
        self.audited(|b| b.swap_out(id))
    }
    fn swap_in(&mut self, id: RequestId) -> Option<(KvHandle, usize)> {
        self.audited(|b| b.swap_in(id))
    }
    fn peak_pages(&self) -> usize {
        self.0.peak_pages()
    }
}

/// The drive's executor and what it meters. Prefill: 0.1 s per admitted
/// request, or per request-chunk when chunking; host link: 0.001 s per page
/// (the tick drains the page movement once and asks only for a positive
/// count — zero pages cost zero seconds); decode: 0.01 s per tick.
#[derive(Default)]
struct Metered {
    chunk_tokens_metered: usize,
    mid_prefill_preemptions: usize,
    regranted_shares: usize,
    evicted_once: HashSet<RequestId>,
    /// Residents still mid-prefill as make-room starts (after this tick's
    /// chunks, the last step before it).
    mid_prefill: Vec<RequestId>,
}

impl TickExecutor for Metered {
    fn prefill_wave(&mut self, sched: &Scheduler, wave: &AdmittedWave) -> f64 {
        for (&id, &shared) in wave.ids.iter().zip(&wave.shared_lens) {
            if self.evicted_once.contains(&id) && shared > 0 {
                self.regranted_shares += 1;
            }
        }
        if sched.options().chunk_tokens.is_some() {
            return 0.0;
        }
        0.1 * wave.ids.len() as f64
    }
    fn prefill_chunks(&mut self, sched: &Scheduler, chunks: &[(RequestId, usize, usize)]) -> f64 {
        self.chunk_tokens_metered += chunks.iter().map(|&(_, n, _)| n).sum::<usize>();
        self.mid_prefill =
            sched.running().iter().filter(|r| r.prefill_remaining() > 0).map(|r| r.id).collect();
        0.1 * chunks.len() as f64
    }
    fn swap(&mut self, _: &Scheduler, pages: usize) -> f64 {
        0.001 * pages as f64
    }
    fn decode(&mut self, _: &Scheduler) -> f64 {
        0.01
    }
    fn preempted(&mut self, _: &Scheduler, ids: &[RequestId]) {
        for &id in ids {
            if self.mid_prefill.contains(&id) {
                self.mid_prefill_preemptions += 1;
            }
            self.evicted_once.insert(id);
        }
        self.mid_prefill.clear();
    }
}

/// What one drive did.
#[allow(dead_code)] // each suite reads the fields of its own preemption flavor
pub struct Driven {
    pub stats: SchedulerStats,
    pub swap_outs: usize,
    pub swap_out_pages: usize,
    /// Total prompt/recompute tokens fed through chunked prefill (prefill
    /// work actually performed, recompute included).
    pub chunk_tokens_metered: usize,
    /// Preemption victims that were still mid-chunked-prefill when evicted.
    pub mid_prefill_preemptions: usize,
    /// Re-admissions of previously-preempted grouped requests that received
    /// a shared-prefix grant while a sibling was resident.
    pub regranted_shares: usize,
}

/// Drives `sched` to completion against `budget`, auditing the (two-tier)
/// ledger step-wise and recording per-request first-token clocks.
pub fn drive(mut sched: Scheduler, budget: &mut PageBudget) -> Driven {
    let total = budget.total_pages();
    let mut first_token_seen = HashMap::new();
    let audit = |budget: &PageBudget| {
        budget.assert_consistent();
        assert_eq!(
            budget.used_pages() + budget.free_pages(),
            total,
            "device used + free must equal total step-wise"
        );
    };
    let mut exec = Metered::default();
    let mut guard = 0usize;
    while !sched.is_done() {
        guard += 1;
        assert!(guard < 100_000, "scheduler failed to converge");
        sched.tick(&mut Audited(budget, audit), &mut exec);
        audit(budget);
        let decoded = sched.running().iter().filter(|r| r.generated > 0).map(|r| r.id);
        for id in decoded.chain(sched.finished().iter().map(|r| r.id)) {
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
    for r in sched.finished() {
        assert_eq!(
            r.first_token_s,
            first_token_seen[&r.id],
            "request {:?} TTFT re-stamped",
            r.id
        );
    }
    Driven {
        stats: sched.stats(),
        swap_outs: sched.swap_outs(),
        swap_out_pages: sched.swap_out_pages(),
        chunk_tokens_metered: exec.chunk_tokens_metered,
        mid_prefill_preemptions: exec.mid_prefill_preemptions,
        regranted_shares: exec.regranted_shares,
    }
}

/// `n` group-mates over one `prefix`-token shared prefix, all arriving at 0.
pub fn shared_reqs(n: u64, prefix: usize, input: usize, output: usize) -> Vec<Request> {
    (0..n)
        .map(|i| Request::new(RequestId(i), input, output, 0.0).with_prefix(0, prefix))
        .collect()
}
