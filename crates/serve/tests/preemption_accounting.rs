//! Preemption-accounting regressions on shared and chunked requests.
//!
//! PR 3's prefix sharing and chunked prefill opened accounting seams around
//! recompute preemption: a preempted request may hold a shared-prefix pool
//! reference (which must be dropped, and the pool freed with its last
//! resident), and a request evicted mid-chunked-prefill must restart its
//! prefill from token 0 without double-counting the discarded chunks in
//! TTFT or the chunk metering. These tests drive those exact scenarios on
//! tiny page pools that force preemption and audit the
//! [`PageBudget`] ledger from first principles at every tick
//! (`assert_consistent`, a hard-assert audit that bites in release builds
//! too).

use qserve_serve::request::{Request, RequestId};
use qserve_serve::scheduler::{
    AdmittedWave, Fcfs, PageBudget, Reservation, SchedOptions, Scheduler, SchedulerStats,
};
use std::collections::HashMap;

/// Drives a scheduler to completion against `budget`, auditing the ledger
/// step-wise and recording per-request first-token clocks and the total
/// chunk tokens metered (prefill work actually performed, recompute
/// included). Chunk cost: 0.1 s per request-chunk; decode: 0.01 s per tick.
struct Driven {
    stats: SchedulerStats,
    /// Total prompt/recompute tokens fed through `prefill_chunks`.
    chunk_tokens_metered: usize,
    /// Preemption victims that were still mid-chunked-prefill when evicted.
    mid_prefill_preemptions: usize,
    /// Re-admissions of previously-preempted grouped requests that received
    /// a shared-prefix grant while a sibling was resident.
    regranted_shares: usize,
}

fn drive(
    mut sched: Scheduler,
    budget: &mut PageBudget,
    chunk: Option<usize>,
) -> Driven {
    let total = budget.total_pages();
    let mut first_token_seen = HashMap::new();
    let mut chunk_tokens_metered = 0usize;
    let mut mid_prefill_preemptions = 0usize;
    let mut regranted_shares = 0usize;
    let mut evicted_once: std::collections::HashSet<RequestId> = Default::default();
    let audit = |budget: &PageBudget| {
        budget.assert_consistent();
        assert_eq!(
            budget.used_pages() + budget.free_pages(),
            total,
            "used + free must equal total step-wise"
        );
    };
    let mut wave = AdmittedWave::default();
    let mut chunks: Vec<(RequestId, usize, usize)> = Vec::new();
    let mut preempted: Vec<RequestId> = Vec::new();
    let mut done: Vec<RequestId> = Vec::new();
    let mut guard = 0usize;
    while !sched.is_done() {
        guard += 1;
        assert!(guard < 100_000, "scheduler failed to converge");
        sched.admit(budget, &mut wave);
        audit(budget);
        for (&id, &shared) in wave.ids.iter().zip(&wave.shared_lens) {
            if evicted_once.contains(&id) && shared > 0 {
                regranted_shares += 1;
            }
        }
        match chunk {
            None => {
                if !wave.ids.is_empty() {
                    sched.charge_prefill(0.1 * wave.ids.len() as f64);
                }
            }
            Some(c) => {
                sched.prefill_chunks(c, &mut chunks);
                chunk_tokens_metered += chunks.iter().map(|&(_, n, _)| n).sum::<usize>();
                if !chunks.is_empty() {
                    sched.charge_prefill(0.1 * chunks.len() as f64);
                }
            }
        }
        if sched.running().is_empty() {
            sched.idle_until_arrival();
            continue;
        }
        let mid_prefill: Vec<RequestId> = sched
            .running()
            .iter()
            .filter(|r| r.prefill_remaining() > 0)
            .map(|r| r.id)
            .collect();
        sched.make_room(budget, &mut preempted);
        for &id in &preempted {
            if mid_prefill.contains(&id) {
                mid_prefill_preemptions += 1;
            }
            evicted_once.insert(id);
        }
        audit(budget);
        if sched.decode_totals().0 == 0 {
            continue;
        }
        sched.decode_step(0.01, budget, &mut done);
        audit(budget);
        for r in sched.running().iter().chain(sched.finished()) {
            if r.generated > 0 {
                first_token_seen.entry(r.id).or_insert(sched.clock());
            }
        }
    }
    assert_eq!(budget.free_pages(), total, "every page returned at the end");
    // TTFT stamped exactly once, at the true first token: the scheduler's
    // per-request stamp must equal the clock the driver observed live, and
    // must never move when a preempted request recomputes.
    for r in sched.finished() {
        assert_eq!(
            r.first_token_s.expect("finished"),
            first_token_seen[&r.id],
            "request {:?} TTFT re-stamped",
            r.id
        );
    }
    Driven {
        stats: sched.stats(),
        chunk_tokens_metered,
        mid_prefill_preemptions,
        regranted_shares,
    }
}

fn shared_reqs(n: u64, prefix: usize, input: usize, output: usize) -> Vec<Request> {
    (0..n)
        .map(|i| Request::new(RequestId(i), input, output, 0.0).with_prefix(0, prefix))
        .collect()
}

#[test]
fn preempt_then_readmit_shared_grant_conserves_pages_and_tokens() {
    // Four group-mates (32-token shared prefix over 16-token pages) decode
    // toward 72-token peaks in pools far too small to hold all four: the
    // LIFO victim holds a pool reference when evicted. The ledger must
    // balance at every tick, every page must come home, the evicted member
    // must *re-request* the share on re-admission (not silently re-charge
    // private pages), and the run must finish with exactly the tokens of
    // the undisturbed run.
    let reqs = shared_reqs(4, 32, 40, 32);
    let opts = SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() };
    let mut roomy = PageBudget::new(16, 1, 1000, Reservation::OnDemand);
    let baseline = drive(
        Scheduler::with_options(reqs.clone(), 4, Box::new(Fcfs), opts),
        &mut roomy,
        None,
    );
    assert_eq!(baseline.stats.preemptions, 0, "the roomy pool must not preempt");
    let mut preempted_somewhere = false;
    let mut regranted_somewhere = false;
    for total in [8usize, 9, 10, 11, 12, 13] {
        let mut tight = PageBudget::new(16, 1, total, Reservation::OnDemand);
        let run = drive(
            Scheduler::with_options(reqs.clone(), 4, Box::new(Fcfs), opts),
            &mut tight,
            None,
        );
        assert_eq!(run.stats.completed, 4, "pool {}", total);
        assert_eq!(
            run.stats.generated_tokens, baseline.stats.generated_tokens,
            "pool {}: preemption changed the served tokens",
            total
        );
        preempted_somewhere |= run.stats.preemptions > 0;
        regranted_somewhere |= run.regranted_shares > 0;
    }
    assert!(preempted_somewhere, "the tight pools must force preemption");
    assert!(
        regranted_somewhere,
        "a re-admitted group-mate must receive a fresh shared-prefix grant"
    );
}

#[test]
fn preempt_mid_chunked_prefill_restarts_from_token_zero() {
    // Chunked prefill (16-token chunks) on a pool small enough that decode
    // growth evicts a victim still inside its chunk loop. The re-admitted
    // request must prefill from token 0 (the chunk metering counts its
    // whole prompt again — honest recompute), the ledger must balance
    // step-wise, and TTFT must be stamped exactly once per request at its
    // true first token.
    let reqs: Vec<Request> = (0..4).map(|i| Request::new(RequestId(i), 48, 32, 0.0)).collect();
    let opts = SchedOptions { share_prefixes: false, chunk_tokens: Some(16), ..SchedOptions::default() };
    let mut roomy = PageBudget::new(16, 1, 1000, Reservation::OnDemand);
    let baseline = drive(
        Scheduler::with_options(reqs.clone(), 4, Box::new(Fcfs), opts),
        &mut roomy,
        Some(16),
    );
    // Undisturbed, the chunk loop meters each prompt exactly once.
    assert_eq!(baseline.chunk_tokens_metered, 4 * 48);
    let mut saw_mid_prefill_eviction = false;
    for total in [6usize, 7, 8, 9, 10] {
        let mut tight = PageBudget::new(16, 1, total, Reservation::OnDemand);
        let run = drive(
            Scheduler::with_options(reqs.clone(), 4, Box::new(Fcfs), opts),
            &mut tight,
            Some(16),
        );
        assert_eq!(run.stats.completed, 4, "pool {}", total);
        assert_eq!(run.stats.generated_tokens, 4 * 32, "pool {}", total);
        if run.stats.preemptions > 0 {
            // Recompute is real work: the meter must count the evicted
            // prompts again — never less than one full pass, and more
            // exactly when something was evicted after chunking started.
            assert!(
                run.chunk_tokens_metered >= baseline.chunk_tokens_metered,
                "pool {}: discarded chunks vanished from the meter",
                total
            );
        } else {
            assert_eq!(run.chunk_tokens_metered, baseline.chunk_tokens_metered);
        }
        saw_mid_prefill_eviction |= run.mid_prefill_preemptions > 0;
    }
    assert!(
        saw_mid_prefill_eviction,
        "the tight pools must evict someone inside the chunk loop"
    );
}

#[test]
fn shared_and_chunked_preemption_combined() {
    // The full collision: shared grants *and* chunked prefill *and* a pool
    // tight enough to preempt. Conservation and token-identity must hold
    // with both features on at once.
    let reqs = shared_reqs(4, 32, 48, 32);
    let opts = SchedOptions { share_prefixes: true, chunk_tokens: Some(16), ..SchedOptions::default() };
    let mut roomy = PageBudget::new(16, 1, 1000, Reservation::OnDemand);
    let baseline = drive(
        Scheduler::with_options(reqs.clone(), 4, Box::new(Fcfs), opts),
        &mut roomy,
        Some(16),
    );
    let mut preempted_somewhere = false;
    for total in [9usize, 10, 11, 12, 13] {
        let mut tight = PageBudget::new(16, 1, total, Reservation::OnDemand);
        let run = drive(
            Scheduler::with_options(reqs.clone(), 4, Box::new(Fcfs), opts),
            &mut tight,
            Some(16),
        );
        assert_eq!(run.stats.completed, 4, "pool {}", total);
        assert_eq!(
            run.stats.generated_tokens, baseline.stats.generated_tokens,
            "pool {}",
            total
        );
        preempted_somewhere |= run.stats.preemptions > 0;
    }
    assert!(preempted_somewhere);
}

#[test]
fn multi_layer_budget_preemption_balances_per_layer_pages() {
    // Two page tables per token (layers = 2): preemption must return both
    // layers' reservations and pool pages.
    let reqs = shared_reqs(3, 32, 40, 24);
    let opts = SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() };
    for total in [14usize, 16, 18, 20] {
        let mut tight = PageBudget::new(16, 2, total, Reservation::OnDemand);
        let run = drive(
            Scheduler::with_options(reqs.clone(), 3, Box::new(Fcfs), opts),
            &mut tight,
            None,
        );
        assert_eq!(run.stats.completed, 3, "pool {}", total);
    }
}
