//! The tick against its reference: [`Scheduler::tick`] and the simplest
//! tick that could be right (`common/reference.rs`), driven side by side
//! over random workloads × policies × [`SchedOptions`] × pools ×
//! [`PreemptionMode`]s × host tiers, with a crash (`evict_all`) now and
//! then. After every tick the two must agree on every hook call and the
//! batch it saw, the running batch, the finished records (as bits), the
//! clock (as bits), the preemption and swap counters, the page counts and
//! the O(1) aggregates; and the real scheduler must mirror its ledger.
//!
//! This is the gate for any change to the tick's speed: an optimisation
//! that moves one decision anywhere in this domain fails here, in release.

#[path = "common/reference.rs"]
mod reference;

use qserve_serve::ledger::{PageBudget, Reservation};
use qserve_serve::request::{
    ArrivalPattern, LengthDist, PrefixSharing, Request, RequestId, Slo, SloSpec, WorkloadSpec,
};
use qserve_serve::scheduler::{
    Fcfs, FinishedRequest, MemoryAware, PreemptionMode, SchedOptions, Scheduler,
    SchedulingPolicy, ShortestJobFirst, TickExecutor,
};
use qserve_tensor::rng::TensorRng;
use reference::{done_of, price, Done, Hook, Reference, Seen};

/// Logs each hook call the real tick makes, with the batch it saw, and
/// charges what [`price`] says — the reference's own prices; keeps every
/// record the `retired` hook is handed, as bits, in completion order.
#[derive(Default)]
struct Recorder(Vec<Seen>, Vec<Done>);

impl Recorder {
    fn see(&mut self, sched: &Scheduler, hook: Hook) -> f64 {
        let batch: Vec<Request> = sched.running().collect();
        let dt = price(&hook, &batch);
        self.0.push((hook, batch));
        dt
    }
}

impl TickExecutor for Recorder {
    fn prefill(&mut self, sched: &Scheduler, slices: &[(RequestId, usize, usize)]) -> f64 {
        self.see(sched, Hook::Prefill(slices.to_vec()))
    }
    fn swap(&mut self, sched: &Scheduler, pages: usize) -> f64 {
        self.see(sched, Hook::Swap(pages))
    }
    fn decode(&mut self, sched: &Scheduler) -> f64 {
        self.see(sched, Hook::Decode)
    }
    fn preempted(&mut self, sched: &Scheduler, recomputed: &[RequestId], swapped: &[RequestId]) {
        self.see(sched, Hook::Preempted(recomputed.to_vec(), swapped.to_vec()));
    }
    fn retired(&mut self, sched: &Scheduler, done: &[FinishedRequest]) {
        self.1.extend(done.iter().map(done_of));
        self.see(sched, Hook::Retired(done.iter().map(|r| r.id).collect()));
    }
}

struct Case {
    spec: WorkloadSpec,
    /// Fcfs, SJF, memory-aware.
    policy: usize,
    opts: SchedOptions,
    /// `(page_tokens, layers, total_pages)`.
    pool: (usize, usize, usize),
    reservation: Reservation,
    host_pages: Option<usize>,
    batch_limit: usize,
    /// Crash (evict everything, resubmit) before this tick.
    crash_at: Option<usize>,
}

impl Case {
    fn draw(rng: &mut TensorRng) -> Self {
        let mut pick = |lo: i64, hi: i64| rng.int_in(lo, hi) as usize;
        let (conversations, turns) = (pick(1, 6), pick(2, 4));
        let (sharing, num_requests) = match pick(0, 2) {
            0 => (PrefixSharing::None, pick(1, 32)),
            1 => (PrefixSharing::Groups { groups: pick(1, 3), prefix_len: pick(1, 12) }, pick(1, 32)),
            _ => (PrefixSharing::MultiTurn { conversations, turns }, conversations * turns),
        };
        let arrival = match pick(0, 2) {
            0 => ArrivalPattern::Batch,
            1 => ArrivalPattern::Poisson { rate_rps: 40.0 },
            _ => ArrivalPattern::Uniform { rate_rps: 20.0 },
        };
        let slo = match pick(0, 1) {
            0 => SloSpec::None,
            _ => SloSpec::Cycle(vec![
                Slo::interactive(0.01, 0.2),
                Slo::standard(0.05, 0.5),
                Slo::best_effort(),
            ]),
        };
        let spec = WorkloadSpec {
            num_requests,
            input: LengthDist::Uniform { lo: 1, hi: pick(1, 40) },
            output: LengthDist::Uniform { lo: 1, hi: pick(1, 30) },
            arrival,
            sharing,
            slo,
            seed: pick(0, 1 << 30) as u64,
        };
        let opts = SchedOptions {
            share_prefixes: pick(0, 1) == 1,
            chunk_tokens: [None, Some(1), Some(3), Some(8)][pick(0, 3)],
            preemption: [PreemptionMode::Recompute, PreemptionMode::Swap][pick(0, 1)],
        };
        let (page_tokens, layers) = ([1, 2, 4, 16][pick(0, 3)], pick(1, 2));
        // From "exactly one worst-case request" (maximal pressure) upwards.
        let worst = spec.max_peak_len().div_ceil(page_tokens) * layers;
        let mut total_pages = worst * pick(2, 5) / 2;
        let host_pages = [None, Some(worst / 2), Some(4 * total_pages)][pick(0, 2)];
        // A swapped-out sharer pins its group's prefix pages on device, so
        // with every group pinned a lone resident must still fit.
        if opts.share_prefixes && opts.preemption == PreemptionMode::Swap && host_pages.is_some() {
            total_pages += worst * match spec.sharing {
                PrefixSharing::None => 0,
                PrefixSharing::Groups { groups, .. } => groups,
                PrefixSharing::MultiTurn { conversations, .. } => conversations,
            };
        }
        Self {
            spec,
            policy: pick(0, 2),
            opts,
            pool: (page_tokens, layers, total_pages),
            reservation: [Reservation::OnDemand, Reservation::Peak][usize::from(pick(0, 3) == 0)],
            host_pages,
            batch_limit: pick(1, 12),
            crash_at: (pick(0, 2) == 0).then(|| pick(2, 40)),
        }
    }

    fn policy(&self) -> Box<dyn SchedulingPolicy> {
        match self.policy {
            0 => Box::new(Fcfs),
            1 => Box::new(ShortestJobFirst),
            _ => Box::new(MemoryAware { headroom: 0.25 }),
        }
    }

    fn budget(&self) -> PageBudget {
        let (page_tokens, layers, total_pages) = self.pool;
        let mut budget = PageBudget::new(page_tokens, layers, total_pages, self.reservation);
        if let Some(pages) = self.host_pages {
            budget.enable_host_tier(pages);
        }
        budget
    }
}

/// What a run reached, so the property can be shown not vacuous.
#[derive(Default)]
struct Reached {
    ticks: usize,
    preemptions: usize,
    swap_outs: usize,
    crashes: usize,
}

/// Drives `case` through both ticks, comparing after every tick.
fn lockstep(case: &Case) -> Reached {
    let (mut budget, mut oracle_budget) = (case.budget(), case.budget());
    let mut sched = Scheduler::open(case.batch_limit, case.policy(), case.opts);
    let mut oracle = Reference::new(case.batch_limit, case.policy(), case.opts);
    for r in case.spec.sample() {
        sched.submit(r);
        oracle.submit(r);
    }
    let mut exec = Recorder::default();
    let mut reached = Reached::default();
    while !(sched.is_done() && oracle.is_done()) {
        reached.ticks += 1;
        let tick = reached.ticks;
        assert!(tick < 100_000, "failed to converge");
        if case.crash_at == Some(tick) {
            let victims = sched.evict_all(&mut budget);
            assert_eq!(victims, oracle.evict_all(&mut oracle_budget), "crash before tick {tick}");
            for mut r in victims.0 {
                // Not before it arrives: the scheduler held the future too.
                r.ready_s = r.ready_s.max(sched.clock());
                r.requeued = true;
                sched.submit(r);
                oracle.submit(r);
            }
            reached.crashes += 1;
        }
        exec.0.clear();
        let mut seen = Vec::new();
        sched.tick(&mut budget, &mut exec);
        oracle.tick(&mut oracle_budget, &mut seen);
        let hooks = |log: &[Seen]| log.iter().map(|(h, _)| h.clone()).collect::<Vec<_>>();
        assert_eq!(hooks(&exec.0), hooks(&seen), "tick {tick}: hook calls");
        for ((hook, batch), (_, expected)) in exec.0.iter().zip(&seen) {
            assert_eq!(batch, expected, "tick {tick}: the batch {hook:?} saw");
        }
        assert_eq!(sched.running().collect::<Vec<_>>(), oracle.running, "tick {tick}: running");
        assert_eq!(exec.1, oracle.finished, "tick {tick}: finished records");
        assert_eq!(sched.clock().to_bits(), oracle.clock.to_bits(), "tick {tick}: clock");
        assert_eq!(
            (sched.preemptions(), sched.swap_outs(), sched.swap_out_pages(), sched.swap_in_pages()),
            (oracle.preemptions, oracle.swap_outs, oracle.swap_out_pages, oracle.swap_in_pages),
            "tick {tick}: preemptions, swap-outs, pages out and in"
        );
        let pages = |b: &PageBudget| (b.used_pages(), b.free_pages(), b.host_used_pages(), b.peak_pages());
        assert_eq!(pages(&budget), pages(&oracle_budget), "tick {tick}: used, free, host, peak pages");
        assert_eq!(
            (sched.outstanding_tokens(), sched.prefilling(), sched.decode_totals()),
            (oracle.outstanding(), oracle.prefilling(), oracle.decode_totals()),
            "tick {tick}: outstanding, prefilling, decode totals"
        );
        budget.assert_consistent();
        sched.assert_mirrors_ledger(&budget);
    }
    assert_eq!(exec.1.len(), case.spec.num_requests, "every request finishes once");
    assert_eq!(budget.free_pages(), budget.total_pages(), "every page returned");
    reached.preemptions = sched.preemptions();
    reached.swap_outs = sched.swap_outs();
    reached
}

qserve_tensor::props! {
    fn the_tick_agrees_with_its_reference_after_every_tick(rng, cases = 1024) {
        lockstep(&Case::draw(rng));
    }
}

#[test]
fn the_reference_property_reaches_eviction_swaps_and_crashes() {
    let mut sum = Reached::default();
    for case in 0..1024u64 {
        let r = lockstep(&Case::draw(&mut TensorRng::seed(0x7E1C ^ case)));
        sum.ticks += r.ticks;
        sum.preemptions += r.preemptions;
        sum.swap_outs += r.swap_outs;
        sum.crashes += r.crashes;
    }
    let Reached { ticks, preemptions, swap_outs, crashes } = sum;
    assert!(
        ticks > 20_000 && preemptions > 150 && swap_outs > 80 && crashes > 50,
        "{ticks} ticks, {preemptions} preemptions, {swap_outs} swap-outs, {crashes} crashes"
    );
}
