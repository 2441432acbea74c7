//! Frozen scheduler behaviour: twelve seeded scenarios on tight page pools
//! whose outcomes were recorded on the commit *before* the tick was
//! rewritten (dense ledger handles, in-place make-room, counter-priced
//! decode) and must be reproduced bit for bit by every later tick.
//!
//! The golden CSVs and the event-vs-step oracle both run through the one
//! scheduler, so neither can see a change *inside* it; these constants can.
//! The executor below prices every phase from the scheduler's observable
//! state (prefill slices, swapped pages, decodable count and
//! Σ prefilled), so a different admission, growth order or eviction decision
//! moves the clock's bits, not just a counter.

use qserve_serve::ledger::{PageBudget, Reservation};
use qserve_serve::request::{
    ArrivalPattern, LengthDist, PrefixSharing, RequestId, SloSpec, WorkloadSpec,
};
use qserve_serve::scheduler::{
    Fcfs, FinishedRequest, MemoryAware, PreemptionMode, SchedOptions, Scheduler, SchedulingPolicy,
    TickExecutor,
};

struct Scenario {
    seed: u64,
    reservation: Reservation,
    preemption: PreemptionMode,
    chunk_tokens: Option<usize>,
    share_prefixes: bool,
    /// `(page_tokens, layers, total_pages)`.
    pool: (usize, usize, usize),
    /// Host-tier pages (`Swap` only).
    host_pages: usize,
    poisson: bool,
    memory_aware: bool,
}

/// `(clock bits, preemptions, swap_outs, swap_out_pages, swap_in_pages,
/// peak_pages, FNV-1a of the finished-id order)`.
type Outcome = (u64, usize, usize, usize, usize, usize, u64);

/// Keeps the ids the `retired` hook is handed, in completion order.
struct Priced(Vec<RequestId>);

impl TickExecutor for Priced {
    /// Whole prompts and chunks keep the two prices they were recorded with.
    fn prefill(&mut self, sched: &Scheduler, slices: &[(RequestId, usize, usize)]) -> f64 {
        if sched.options().chunk_tokens.is_none() {
            let computed: usize = slices.iter().map(|&(_, new, _)| new).sum();
            return 1e-3 + 1e-4 * computed as f64;
        }
        let work: usize = slices.iter().map(|&(_, new, past)| new * 8 + past).sum();
        1e-3 + 1e-5 * work as f64
    }
    fn swap(&mut self, _: &Scheduler, pages: usize) -> f64 {
        1e-5 * pages as f64
    }
    fn decode(&mut self, sched: &Scheduler) -> f64 {
        let (batch, tokens) = sched
            .running()
            .filter(|r| r.prefill_remaining() == 0)
            .fold((0usize, 0usize), |(n, t), r| (n + 1, t + r.prefilled()));
        2e-3 + 1e-5 * batch as f64 + 1e-6 * tokens as f64
    }
    fn retired(&mut self, _: &Scheduler, done: &[FinishedRequest]) {
        self.0.extend(done.iter().map(|r| r.id));
    }
}

fn run(s: &Scenario) -> Outcome {
    let spec = WorkloadSpec {
        num_requests: 40,
        input: LengthDist::Uniform { lo: 16, hi: 96 },
        output: LengthDist::Uniform { lo: 16, hi: 80 },
        arrival: if s.poisson {
            ArrivalPattern::Poisson { rate_rps: 30.0 }
        } else {
            ArrivalPattern::Batch
        },
        sharing: if s.share_prefixes {
            PrefixSharing::Groups { groups: 3, prefix_len: 32 }
        } else {
            PrefixSharing::None
        },
        slo: SloSpec::None,
        seed: s.seed,
    };
    let (page_tokens, layers, total_pages) = s.pool;
    let mut budget = PageBudget::new(page_tokens, layers, total_pages, s.reservation);
    if s.preemption == PreemptionMode::Swap {
        budget.enable_host_tier(s.host_pages);
    }
    let policy: Box<dyn SchedulingPolicy> = if s.memory_aware {
        Box::new(MemoryAware { headroom: 0.25 })
    } else {
        Box::new(Fcfs)
    };
    let opts = SchedOptions {
        share_prefixes: s.share_prefixes,
        chunk_tokens: s.chunk_tokens,
        preemption: s.preemption,
    };
    let mut sched = Scheduler::open(8, policy, opts);
    for r in spec.sample() {
        sched.submit(r);
    }
    let (mut guard, mut exec) = (0usize, Priced(Vec::new()));
    while !sched.is_done() {
        guard += 1;
        assert!(guard < 1_000_000, "scheduler failed to converge");
        sched.tick(&mut budget, &mut exec);
    }
    budget.assert_consistent();
    assert_eq!(budget.free_pages(), budget.total_pages(), "every page returned");
    let order = exec.0.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, id| {
        (h ^ id.0).wrapping_mul(0x0000_0100_0000_01B3)
    });
    assert_eq!(exec.0.len(), 40);
    (
        sched.clock().to_bits(),
        sched.preemptions(),
        sched.swap_outs(),
        sched.swap_out_pages(),
        sched.swap_in_pages(),
        budget.peak_pages(),
        order,
    )
}

fn scenarios() -> Vec<Scenario> {
    use PreemptionMode::{Recompute, Swap};
    use Reservation::{OnDemand, Peak};
    let base = |seed, reservation, preemption, chunk_tokens, share_prefixes| Scenario {
        seed,
        reservation,
        preemption,
        chunk_tokens,
        share_prefixes,
        pool: (16, 2, 64),
        host_pages: 256,
        poisson: false,
        memory_aware: false,
    };
    vec![
        base(1, OnDemand, Recompute, None, false),
        base(2, OnDemand, Swap, None, false),
        base(3, OnDemand, Recompute, Some(32), false),
        base(4, OnDemand, Swap, Some(32), false),
        base(5, OnDemand, Recompute, None, true),
        base(6, OnDemand, Swap, None, true),
        base(7, OnDemand, Recompute, Some(24), true),
        base(8, OnDemand, Swap, Some(24), true),
        base(9, Peak, Recompute, None, false),
        Scenario { poisson: true, ..base(10, Peak, Swap, Some(32), true) },
        // A host tier too small for most victims: swap falls back to recompute.
        Scenario { host_pages: 12, poisson: true, ..base(11, OnDemand, Swap, None, false) },
        Scenario {
            pool: (4, 1, 110),
            poisson: true,
            memory_aware: true,
            ..base(12, OnDemand, Recompute, Some(16), false)
        },
    ]
}

/// Recorded on commit fe3a68d (the parent of the linear-tick rewrite).
const FROZEN: [Outcome; 12] = [
    (0x3ff8d7c3d68405b7, 42, 0, 0, 0, 64, 0xc3499a495dfcb07f),
    (0x3ff531886df82b21, 0, 40, 390, 390, 64, 0x9bf3d95d1034b441),
    (0x3ffa3a398201cd5b, 47, 0, 0, 0, 64, 0x77353a549149c2f3),
    (0x3ff55bc664d3bf2d, 0, 51, 470, 470, 64, 0xd8cfc87a26b06b11),
    (0x4001066a11ec9193, 65, 0, 0, 0, 64, 0xa4347a6cae550b4b),
    (0x3ff6a9a8049667b2, 0, 39, 304, 304, 64, 0xf34368ae133ea7f3),
    (0x3ffe54845132f877, 34, 0, 0, 0, 64, 0x8f902b19cb318061),
    (0x3ff5384cad57bc7c, 0, 30, 208, 208, 64, 0xb5fb7ed2b5f6aa6f),
    (0x3ff92aac1094a2ba, 0, 0, 0, 0, 64, 0x2e708877d0b338cb),
    (0x40015161a8e6e475, 0, 0, 0, 0, 64, 0xc15c4e5c46949f47),
    (0x3ffbfab62d172015, 3, 13, 122, 122, 64, 0x3e1caf40c81f2555),
    (0x3ffaf04a5d78d058, 15, 0, 0, 0, 110, 0xb413adae58d535af),
];

#[test]
fn tick_reproduces_the_outcomes_frozen_before_the_rewrite() {
    let actual: Vec<Outcome> = scenarios().iter().map(run).collect();
    if actual != FROZEN {
        for o in &actual {
            eprintln!("    ({:#018x}, {}, {}, {}, {}, {}, {:#018x}),", o.0, o.1, o.2, o.3, o.4, o.5, o.6);
        }
    }
    for (i, (a, f)) in actual.iter().zip(&FROZEN).enumerate() {
        assert_eq!(a, f, "scenario {} drifted from its frozen outcome", i + 1);
    }
    // The table is only worth freezing if it covers the decisions the tick
    // makes: recompute preemption, swap round trips, the full-tier fallback.
    assert!(FROZEN[0].1 > 0, "scenario 1 must preempt");
    assert!(FROZEN[1].2 > 0 && FROZEN[1].3 == FROZEN[1].4, "scenario 2 must swap and return");
    assert!(FROZEN[7].2 > 0, "scenario 8 must swap under sharing + chunking");
    assert_eq!(FROZEN[8].1, 0, "peak reservation never preempts");
    assert!(FROZEN[10].1 > 0 && FROZEN[10].2 > 0, "scenario 11 must swap and fall back");
}
