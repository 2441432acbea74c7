//! Preemption-accounting regressions on shared and chunked requests.
//!
//! PR 3's prefix sharing and chunked prefill opened accounting seams around
//! recompute preemption: a preempted request may hold a shared-prefix pool
//! reference (which must be dropped, and the pool freed with its last
//! resident), and a request evicted mid-chunked-prefill must restart its
//! prefill from token 0 without double-counting the discarded chunks in
//! TTFT or the chunk metering. These tests drive those exact scenarios on
//! tiny page pools that force preemption and audit the
//! [`PageBudget`] ledger from first principles after every ledger call of
//! every tick (`assert_consistent`, a hard-assert audit that bites in
//! release builds too).

mod common;

use common::{drive, shared_reqs};
use qserve_serve::request::{Request, RequestId};
use qserve_serve::scheduler::{Fcfs, PageBudget, Reservation, SchedOptions, Scheduler};

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
    );
    assert_eq!(baseline.stats.preemptions, 0, "the roomy pool must not preempt");
    let mut preempted_somewhere = false;
    let mut regranted_somewhere = false;
    for total in [8usize, 9, 10, 11, 12, 13] {
        let mut tight = PageBudget::new(16, 1, total, Reservation::OnDemand);
        let run = drive(
            Scheduler::with_options(reqs.clone(), 4, Box::new(Fcfs), opts),
            &mut tight,
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
    );
    // Undisturbed, the chunk loop meters each prompt exactly once.
    assert_eq!(baseline.chunk_tokens_metered, 4 * 48);
    let mut saw_mid_prefill_eviction = false;
    for total in [6usize, 7, 8, 9, 10] {
        let mut tight = PageBudget::new(16, 1, total, Reservation::OnDemand);
        let run = drive(
            Scheduler::with_options(reqs.clone(), 4, Box::new(Fcfs), opts),
            &mut tight,
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
    );
    let mut preempted_somewhere = false;
    for total in [9usize, 10, 11, 12, 13] {
        let mut tight = PageBudget::new(16, 1, total, Reservation::OnDemand);
        let run = drive(
            Scheduler::with_options(reqs.clone(), 4, Box::new(Fcfs), opts),
            &mut tight,
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
        );
        assert_eq!(run.stats.completed, 3, "pool {}", total);
    }
}
