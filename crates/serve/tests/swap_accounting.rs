//! Swap-accounting regressions: the host-tier mirror of
//! `preemption_accounting.rs`.
//!
//! Swap-mode preemption moves a victim's private pages to the modeled
//! host tier instead of discarding them, and restores them on
//! re-admission. That opens its own accounting seams: the device ledger
//! must balance step-wise while pages sit off-device, a swapped
//! group-mate must keep (not re-acquire) its shared-prefix pool
//! reference, every host page must come home by the end, and swapping
//! back holdings that were released in the meantime is ledger
//! corruption that must fail loudly — not return `None`. These tests
//! drive tiny pools that force swapping and audit
//! [`PageBudget::assert_consistent`] after every ledger call of every tick,
//! exactly as the recompute suite does.

mod common;

use common::{drive, shared_reqs};
use qserve_serve::ledger::{KvBudget, KvHandle, PageBudget, Reservation};
use qserve_serve::request::{Request, RequestId};
use qserve_serve::scheduler::{PreemptionMode, SchedOptions};

fn swap_opts() -> SchedOptions {
    SchedOptions { preemption: PreemptionMode::Swap, ..SchedOptions::default() }
}

fn swap_budget(page_tokens: usize, layers: usize, total: usize) -> PageBudget {
    let mut b = PageBudget::new(page_tokens, layers, total, Reservation::OnDemand);
    b.enable_host_tier(4 * total);
    b
}

#[test]
fn swap_preemption_conserves_pages_and_tokens_stepwise() {
    // Private (unshared) requests decoding toward 72-token peaks in pools
    // too small for all four: make_room must swap victims out, admission
    // must swap them back, the two-tier ledger must balance at every tick,
    // and the run must serve exactly the tokens of the undisturbed run.
    let reqs: Vec<Request> =
        (0..4).map(|i| Request::new(RequestId(i), 40, 32, 0.0)).collect();
    let mut roomy = swap_budget(16, 1, 1000);
    let baseline = drive(&reqs, 4, swap_opts(), &mut roomy);
    assert_eq!(baseline.preemptions, 0, "the roomy pool must not preempt");
    assert_eq!(baseline.swap_outs, 0, "the roomy pool must not swap");
    let mut swapped_somewhere = false;
    for total in [8usize, 9, 10, 11, 12] {
        let mut tight = swap_budget(16, 1, total);
        let run = drive(&reqs, 4, swap_opts(), &mut tight);
        assert_eq!(run.completed, 4, "pool {}", total);
        assert_eq!(
            run.generated_tokens, baseline.generated_tokens,
            "pool {}: swapping changed the served tokens",
            total
        );
        if run.swap_outs > 0 {
            swapped_somewhere = true;
            assert!(run.swap_out_pages > 0, "pool {}: a swap-out moved no pages", total);
        }
    }
    assert!(swapped_somewhere, "the tight pools must force swap-outs");
}

#[test]
fn cow_shared_swap_keeps_pool_refcounts_balanced() {
    // Four group-mates over a 32-token shared prefix: when one is swapped
    // out, its private pages leave the device but its shared-pool
    // reference must survive — the prefix pages stay resident for the
    // siblings, and the pool must not be freed (or double-freed) while a
    // swapped member still counts against it. `assert_consistent` checks
    // the resident + swapped refcount identity at every tick of the drive.
    let reqs = shared_reqs(4, 32, 40, 32);
    let mut roomy = swap_budget(16, 1, 1000);
    let baseline = drive(&reqs, 4, swap_opts(), &mut roomy);
    let mut swapped_somewhere = false;
    for total in [8usize, 9, 10, 11, 12, 13] {
        let mut tight = swap_budget(16, 1, total);
        let run = drive(&reqs, 4, swap_opts(), &mut tight);
        assert_eq!(run.completed, 4, "pool {}", total);
        assert_eq!(
            run.generated_tokens, baseline.generated_tokens,
            "pool {}: swapping a group-mate changed the served tokens",
            total
        );
        swapped_somewhere |= run.swap_outs > 0;
    }
    assert!(swapped_somewhere, "the tight pools must swap a group-mate out");
}

#[test]
fn multi_layer_swap_balances_per_layer_pages() {
    // Two page tables per token (layers = 2): a swap-out must free both
    // layers' reservations on device and park both against the host tier.
    let reqs = shared_reqs(3, 32, 40, 24);
    for total in [14usize, 16, 18, 20] {
        let mut tight = swap_budget(16, 2, total);
        let run = drive(&reqs, 3, swap_opts(), &mut tight);
        assert_eq!(run.completed, 3, "pool {}", total);
    }
}

#[test]
fn growth_reaches_the_ledger_only_at_page_boundaries() {
    // The scheduler spends each resident's headroom itself. Past the call
    // that arms a resident (its first since it was seated, which reads the
    // headroom and charges nothing: `Audited` checks), it calls `grow` only
    // when the pages the resident holds are full, so every such call either
    // opens one page per layer or is refused: calls = pages ÷ layers +
    // refusals. A call for a token that fits a held page would do neither.
    // Host tiers from roomy to one page make the drives swap and fall back
    // to recompute; the drive audits the headroom column after every tick.
    // Four private requests and three group-mates over a 32-token prefix.
    let reqs: Vec<Request> = (0..7)
        .map(|i| match i {
            0..4 => Request::new(RequestId(i), 40, 32, 0.0),
            _ => Request::new(RequestId(i), 40, 24, 0.0).with_prefix(0, 32),
        })
        .collect();
    let (mut swap_outs, mut preemptions, mut refusals, mut arms) = (0, 0, 0, 0);
    let (mut calls, mut tokens) = (0, 0);
    for layers in [1usize, 2] {
        for (total, host) in [(10, 40), (12, 40), (10, 1), (12, 2)] {
            let mut budget = PageBudget::new(16, layers, total * layers, Reservation::OnDemand);
            budget.enable_host_tier(host * layers);
            let run = drive(&reqs, 5, swap_opts(), &mut budget);
            let g = run.growth;
            assert_eq!(g.pages % layers, 0, "layers {layers}, pool {total}: a page per layer");
            assert_eq!(
                g.calls,
                g.pages / layers + g.refusals,
                "layers {layers}, pool {total}, host {host}: a grow call inside a held page"
            );
            swap_outs += run.swap_outs;
            preemptions += run.preemptions;
            refusals += g.refusals;
            arms += g.arms;
            calls += g.calls;
            tokens += run.generated_tokens;
        }
    }
    assert!(swap_outs > 0 && preemptions > 0 && refusals > 0, "the drives must swap and recompute");
    assert!(arms > 0, "no resident armed through the ledger");
    // About one decoded token in sixteen meets a page boundary.
    assert!(calls * 8 < tokens, "{calls} grow calls for {tokens} generated tokens");
}

#[test]
fn swap_refuses_when_the_host_tier_is_full() {
    // A host tier with no room: swap_out must return None (back-pressure,
    // the caller falls back to recompute), leaving the device ledger
    // untouched.
    let mut b = PageBudget::new(16, 1, 8, Reservation::OnDemand);
    b.enable_host_tier(1);
    let id = RequestId(7);
    let handle = b.admit(id, None, 0, 40, 72).expect("the pool holds one 40-token request");
    let used = b.used_pages();
    assert!(used > 1, "the request must need more pages than the tier holds");
    assert_eq!(b.swap_out(id, handle, 40), None, "a full host tier refuses the swap");
    assert_eq!(b.used_pages(), used, "a refused swap must not touch the ledger");
    b.assert_consistent();
}

#[test]
#[should_panic(expected = "no host-tier holdings")]
fn swap_back_of_released_holdings_fails_loudly() {
    // Release-while-swapped is legal (a crash or cancellation evicts the
    // host image). Swapping the same request back in afterwards is not
    // back-pressure — it is ledger corruption, and must panic rather than
    // return None.
    let mut b = swap_budget(16, 1, 8);
    let id = RequestId(3);
    let handle = b.admit(id, None, 0, 40, 72).expect("fits");
    let moved = b.swap_out(id, handle, 40).expect("the roomy tier accepts the swap");
    assert!(moved > 0);
    b.release(id, None);
    b.assert_consistent();
    let _ = b.swap_in(id);
}

/// A handle kept past its request's departure, whose seat the ledger has
/// since given to `RequestId(2)`: request 1's id and its stale handle.
fn reseated(swapped: bool) -> (PageBudget, RequestId, KvHandle) {
    let mut b = swap_budget(16, 1, 8);
    let (gone, next) = (RequestId(1), RequestId(2));
    let stale = b.admit(gone, None, 0, 20, 20).expect("fits");
    if swapped {
        b.swap_out(gone, stale, 20).expect("the roomy tier accepts the swap");
    } else {
        b.release(gone, Some(stale));
    }
    let seat = b.admit(next, None, 0, 20, 20).expect("fits");
    assert_eq!(seat, stale, "the vacated seat is reused");
    (b, gone, stale)
}

#[test]
#[should_panic(expected = "request RequestId(1): stale ledger handle")]
fn release_through_a_reseated_handle_fails_loudly() {
    // Without an id map, the handle is all release has to go on: a seat
    // that now holds another request must not be freed in its name.
    let (mut b, gone, stale) = reseated(false);
    b.release(gone, Some(stale));
}

#[test]
#[should_panic(expected = "request RequestId(1): stale ledger handle")]
fn swap_out_through_a_reseated_handle_fails_loudly() {
    let (mut b, gone, stale) = reseated(true);
    b.swap_out(gone, stale, 20);
}

#[test]
#[should_panic(expected = "request RequestId(5) is seated twice in the ledger")]
fn a_request_seated_twice_fails_the_audit() {
    // Nothing keeps a request to one seat at admission any more; the
    // audit is what catches a double admission.
    let mut b = swap_budget(16, 1, 8);
    b.admit(RequestId(5), None, 0, 8, 8).expect("fits");
    b.admit(RequestId(5), None, 0, 8, 8).expect("fits");
    b.assert_consistent();
}
