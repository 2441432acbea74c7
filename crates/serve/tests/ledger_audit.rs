//! The scheduler and its page ledger, held together by a differential
//! audit instead of "mirrored by construction".
//!
//! After every tick, for every resident: the handle the scheduler keeps
//! beside `running` and the ledger's id map name the same slab entry, and
//! that entry's footprint (private + pool-covered tokens) equals the tokens
//! the request holds (`prefill_len()`); swapped-out requests' parked
//! footprints say the same. [`Scheduler::assert_mirrors_ledger`] checks it;
//! the property below drives it across pool size × reservation ×
//! preemption mode × chunking × sharing, under a victim policy that is
//! deliberately *not* LIFO, with crashes (`evict_all`) in the middle so
//! slab slots are reused after release, swap-out and crash alike.

use qserve_serve::request::{
    ArrivalPattern, LengthDist, PrefixSharing, Request, RequestId, SloSpec, WorkloadSpec,
};
use qserve_serve::scheduler::{
    AdmittedWave, Fcfs, KvBudget, PageBudget, PreemptionMode, Reservation, SchedOptions,
    Scheduler, SchedulingPolicy,
};
use qserve_tensor::rng::TensorRng;

/// FCFS admission, but the preemption victim wanders over the whole batch
/// — the oldest resident, residents already grown this tick, out-of-range
/// indices — everything the LIFO default never proposes.
struct WanderingVictim;

impl SchedulingPolicy for WanderingVictim {
    fn name(&self) -> &'static str {
        "wandering-victim"
    }
    fn select(&self, waiting: &[Request], _: &[Request], _: &dyn KvBudget) -> Option<usize> {
        (!waiting.is_empty()).then_some(0)
    }
    fn victim(&self, running: &[Request]) -> Option<usize> {
        let mix = running.iter().fold(running.len() as u64, |h, r| h.wrapping_mul(31) ^ r.id.0);
        Some((mix % (running.len() as u64 + 1)) as usize)
    }
}

struct Case {
    spec: WorkloadSpec,
    pool: (usize, usize, usize),
    reservation: Reservation,
    host_pages: usize,
    opts: SchedOptions,
    batch_limit: usize,
    lifo: bool,
    /// Crash (evict everything, resubmit) after this many ticks.
    crash_at: Option<usize>,
}

fn draw(rng: &mut TensorRng) -> Case {
    let pick = |rng: &mut TensorRng, n: i64| rng.int_in(0, n - 1) as usize;
    let sharing = pick(rng, 2) == 1;
    let prefix_len = 4 + pick(rng, 12);
    let (in_hi, out_hi) = (8 + pick(rng, 32), 4 + pick(rng, 26));
    let spec = WorkloadSpec {
        num_requests: 6 + pick(rng, 18),
        input: LengthDist::Uniform { lo: 2, hi: in_hi },
        output: LengthDist::Uniform { lo: 1, hi: out_hi },
        arrival: if pick(rng, 2) == 1 {
            ArrivalPattern::Poisson { rate_rps: 20.0 }
        } else {
            ArrivalPattern::Batch
        },
        sharing: if sharing {
            PrefixSharing::Groups { groups: 2, prefix_len }
        } else {
            PrefixSharing::None
        },
        slo: SloSpec::None,
        seed: rng.next_u64(),
    };
    let page_tokens = [2, 4, 16][pick(rng, 3)];
    let layers = 1 + pick(rng, 2);
    // From "exactly one worst-case request" (maximal pressure) upwards.
    let worst = spec.max_peak_len().div_ceil(page_tokens) * layers;
    let total_pages = worst * (2 + pick(rng, 6)) / 2;
    let preemption =
        if pick(rng, 2) == 1 { PreemptionMode::Swap } else { PreemptionMode::Recompute };
    Case {
        spec,
        pool: (page_tokens, layers, total_pages),
        reservation: if pick(rng, 4) == 0 { Reservation::Peak } else { Reservation::OnDemand },
        // Sometimes too small for most victims: the recompute fallback.
        host_pages: if pick(rng, 3) == 0 { worst / 2 } else { 4 * total_pages },
        opts: SchedOptions {
            share_prefixes: sharing,
            chunk_tokens: [None, Some(3), Some(8)][pick(rng, 3)],
            preemption,
        },
        batch_limit: 2 + pick(rng, 5),
        lifo: pick(rng, 3) == 0,
        crash_at: (pick(rng, 2) == 1).then(|| 3 + pick(rng, 40)),
    }
}

/// Drives `case` to completion, auditing after every tick. Returns
/// `(preemptions, swap_outs)`.
fn drive_audited(case: &Case) -> (usize, usize) {
    let (page_tokens, layers, total_pages) = case.pool;
    let mut budget = PageBudget::new(page_tokens, layers, total_pages, case.reservation);
    if case.opts.preemption == PreemptionMode::Swap {
        budget.enable_host_tier(case.host_pages);
    }
    let policy: Box<dyn SchedulingPolicy> =
        if case.lifo { Box::new(Fcfs) } else { Box::new(WanderingVictim) };
    let n = case.spec.num_requests;
    let mut sched = Scheduler::with_options(case.spec.sample(), case.batch_limit, policy, case.opts);
    let (mut wave, mut chunks) = (AdmittedWave::default(), Vec::new());
    let (mut preempted, mut done) = (Vec::new(), Vec::new());
    let mut ticks = 0usize;
    while !sched.is_done() {
        ticks += 1;
        assert!(ticks < 200_000, "scheduler failed to converge");
        if case.crash_at == Some(ticks) {
            let (victims, _lost) = sched.evict_all(&mut budget);
            budget.assert_consistent();
            assert_eq!(budget.free_pages(), total_pages, "a crash returns every device page");
            assert_eq!(budget.host_used_pages(), 0, "a crash empties the host tier");
            sched.assert_mirrors_ledger(&budget);
            for req in victims {
                sched.submit(req);
            }
        }
        sched.admit(&mut budget, &mut wave);
        if let Some(c) = case.opts.chunk_tokens {
            sched.prefill_chunks(c, &mut chunks);
            if !chunks.is_empty() {
                sched.charge_prefill(0.01 * chunks.len() as f64);
            }
        }
        if sched.running().is_empty() {
            sched.idle_until_arrival();
            continue;
        }
        sched.make_room(&mut budget, &mut preempted);
        let swap_pages = sched.take_tick_swap_pages();
        sched.charge_swap(1e-4 * swap_pages as f64);
        if sched.decode_totals().0 > 0 {
            sched.decode_step(0.01, &mut budget, &mut done);
        }
        budget.assert_consistent();
        sched.assert_mirrors_ledger(&budget);
        // The O(1) aggregates the tick prices from, against the scan.
        let decodable = || sched.running().iter().filter(|r| r.prefill_remaining() == 0);
        assert_eq!(sched.prefilling(), sched.running().len() - decodable().count());
        assert_eq!(
            sched.decode_totals(),
            (decodable().count(), decodable().map(|r| r.seq_len).sum::<usize>())
        );
    }
    assert_eq!(sched.finished().len(), n, "every request finishes exactly once");
    assert_eq!(budget.free_pages(), total_pages, "every page returned");
    assert_eq!(budget.host_used_pages(), 0, "the host tier drained");
    (sched.preemptions(), sched.swap_outs())
}

qserve_tensor::props! {
    fn ledger_mirrors_the_scheduler_after_every_tick(rng, cases = 192) {
        drive_audited(&draw(rng));
    }
}

#[test]
fn the_property_reaches_eviction_under_a_non_lifo_victim() {
    // Not vacuous: across the same generator, non-LIFO cases must actually
    // preempt and swap (the paths where a stale handle or an early-charged
    // victim would show).
    let (mut preempts, mut swaps) = (0usize, 0usize);
    for case in 0..64u64 {
        let mut rng = TensorRng::seed(0xA0D1 ^ case);
        let c = draw(&mut rng);
        if !c.lifo {
            let (p, s) = drive_audited(&c);
            preempts += p;
            swaps += s;
        }
    }
    assert!(preempts > 50 && swaps > 50, "only {preempts} preemptions / {swaps} swaps");
}

#[test]
fn a_victim_before_the_cursor_is_never_parked_a_token_ahead() {
    // The latent drift this audit exists for: a policy that always names
    // resident 1 asks make_room to swap out someone whose growth this tick
    // was already charged. The pass clamps the choice to the uncharged
    // suffix, so what is parked is exactly what the victim holds.
    struct SecondOldest;
    impl SchedulingPolicy for SecondOldest {
        fn name(&self) -> &'static str {
            "second-oldest"
        }
        fn select(&self, waiting: &[Request], _: &[Request], _: &dyn KvBudget) -> Option<usize> {
            (!waiting.is_empty()).then_some(0)
        }
        fn victim(&self, _: &[Request]) -> Option<usize> {
            Some(1)
        }
    }
    let reqs: Vec<Request> = (0..6).map(|i| Request::new(RequestId(i), 30, 40, 0.0)).collect();
    let mut budget = PageBudget::new(16, 1, 14, Reservation::OnDemand);
    budget.enable_host_tier(64);
    let opts = SchedOptions { preemption: PreemptionMode::Swap, ..SchedOptions::default() };
    let mut sched = Scheduler::with_options(reqs, 6, Box::new(SecondOldest), opts);
    let (mut wave, mut preempted, mut done) = (AdmittedWave::default(), Vec::new(), Vec::new());
    while !sched.is_done() {
        sched.admit(&mut budget, &mut wave);
        sched.make_room(&mut budget, &mut preempted);
        sched.take_tick_swap_pages();
        sched.decode_step(0.01, &mut budget, &mut done);
        sched.assert_mirrors_ledger(&budget);
    }
    assert!(sched.swap_outs() > 0, "the pool must force swaps");
    assert_eq!(budget.free_pages(), budget.total_pages());
}
