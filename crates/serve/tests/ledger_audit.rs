//! The scheduler and its page ledger, held together by a differential
//! audit instead of "mirrored by construction".
//!
//! After every tick, for every resident: the handle the scheduler keeps
//! beside `running` names a slab entry that holds the resident's id, and
//! that entry's footprint (private + pool-covered tokens) equals the tokens
//! the request holds (`prefill_len()`); swapped-out requests' parked
//! footprints say the same. [`Scheduler::assert_mirrors_ledger`] checks it;
//! the property below drives it across pool size × reservation ×
//! preemption mode × chunking × sharing, with crashes (`evict_all`) in the
//! middle so slab slots are reused after release, swap-out and crash alike.
//!
//! The other half — the ledger against the cache it stands for — is the
//! pair of properties at the bottom: one random op stream applied to a
//! [`PageBudget`] and a [`PagedKvCache`] of the same geometry, page counts
//! compared after every op.

use qserve_core::kv_quant::KvPrecision;
use qserve_serve::kv_cache::{KvCacheConfig, PagedKvCache, SequenceId};
use qserve_serve::ledger::{KvBudget, PageBudget, Reservation};
use qserve_serve::request::{
    ArrivalPattern, LengthDist, PrefixSharing, RequestId, SloSpec, WorkloadSpec,
};
use qserve_serve::scheduler::{
    Fcfs, FinishedRequest, PreemptionMode, SchedOptions, Scheduler, TickExecutor,
};
use qserve_tensor::rng::TensorRng;

struct Case {
    spec: WorkloadSpec,
    pool: (usize, usize, usize),
    reservation: Reservation,
    host_pages: usize,
    opts: SchedOptions,
    batch_limit: usize,
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
        crash_at: (pick(rng, 2) == 1).then(|| 3 + pick(rng, 40)),
    }
}

/// 0.01 s per prefill slice and per decode step, 1e-4 s per page over the
/// host link; keeps the ids the `retired` hook is handed.
struct Flat(Vec<RequestId>);

impl TickExecutor for Flat {
    fn prefill(&mut self, _: &Scheduler, slices: &[(RequestId, usize, usize)]) -> f64 {
        0.01 * slices.len() as f64
    }
    fn swap(&mut self, _: &Scheduler, pages: usize) -> f64 {
        1e-4 * pages as f64
    }
    fn decode(&mut self, _: &Scheduler) -> f64 {
        0.01
    }
    fn retired(&mut self, _: &Scheduler, done: &[FinishedRequest]) {
        self.0.extend(done.iter().map(|r| r.id));
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
    let n = case.spec.num_requests;
    let mut sched = Scheduler::open(case.batch_limit, Box::new(Fcfs), case.opts);
    for r in case.spec.sample() {
        sched.submit(r);
    }
    let (mut ticks, mut exec) = (0usize, Flat(Vec::new()));
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
        sched.tick(&mut budget, &mut exec);
        budget.assert_consistent();
        sched.assert_mirrors_ledger(&budget);
        // The O(1) aggregates the tick prices from, against the scan.
        let decodable = || sched.running().filter(|r| r.prefill_remaining() == 0);
        assert_eq!(sched.prefilling(), sched.running().len() - decodable().count());
        assert_eq!(
            sched.decode_totals(),
            (decodable().count(), decodable().map(|r| r.prefilled()).sum::<usize>())
        );
    }
    let finished: std::collections::BTreeSet<RequestId> = exec.0.iter().copied().collect();
    assert_eq!((exec.0.len(), finished.len()), (n, n), "every request finishes exactly once");
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
fn the_property_reaches_eviction_and_swaps() {
    // Not vacuous: across the same generator, cases must actually preempt
    // and swap (the paths where a stale handle or a mis-parked victim would
    // show).
    let (mut preempts, mut swaps) = (0usize, 0usize);
    for case in 0..64u64 {
        let (p, s) = drive_audited(&draw(&mut TensorRng::seed(0xA0D1 ^ case)));
        preempts += p;
        swaps += s;
    }
    assert!(preempts > 50 && swaps > 50, "only {preempts} preemptions / {swaps} swaps");
}

// ---------------------------------------------------------------------------
// The ledger against the cache it stands for
// ---------------------------------------------------------------------------

/// One live sequence of the differential drive, known to the ledger as
/// `RequestId(id)` and to the cache as `SequenceId(id)`.
struct Live<H> {
    id: u64,
    /// The ledger seat while resident; `None` while swapped out.
    handle: Option<H>,
    /// Tokens cached, the pool-covered prefix included.
    len: usize,
    /// The prefix group it founded or forked into.
    group: Option<u64>,
}

/// What one drive reached, so the properties can be shown not vacuous.
#[derive(Default)]
struct Reached {
    forks_mid_page: usize,
    refusals: usize,
    swaps: usize,
    sharer_swaps: usize,
    /// Ops after which the ledger held more device pages than the cache.
    ops_ledger_above_cache: usize,
}

/// Appends `tokens` tokens to every layer of `seq`.
fn append(cache: &mut PagedKvCache, seq: SequenceId, tokens: usize) {
    for _ in 0..tokens {
        for layer in 0..cache.config().layers {
            cache.append_token(seq, layer, &[0.5, -0.25], &[1.0, -2.0]).expect("the ledger admitted it");
        }
    }
}

/// Drives a [`PageBudget`] (`OnDemand`, host tier on) and a
/// [`PagedKvCache`] of the same geometry through one random op stream —
/// admit + prefill, found a prefix group, fork a (page-aligned or not)
/// prefix off a resident member and prefill the private suffix, grow one
/// token, release, swap out / in — comparing page counts after every op.
/// Whatever the ledger refuses the cache is not asked to do, and the
/// refusal itself is checked against the cache's free list.
///
/// With `swap_sharers` off, only ungrouped sequences are swapped: the
/// domain where both sides count the same pages, step for step. With it
/// on, group members are swapped too and the two rules for "which pages
/// are private" part ways (see the second property).
fn drive_ledger_and_cache(rng: &mut TensorRng, swap_sharers: bool) -> Reached {
    const MAX_LIVE: usize = 10;
    let pick = |rng: &mut TensorRng, n: usize| rng.int_in(0, n as i64 - 1) as usize;
    let page_tokens = [2, 4, 8][pick(rng, 3)];
    let layers = 1 + pick(rng, 3);
    let total_pages = layers * (8 + pick(rng, 24));
    let mut ledger = PageBudget::new(page_tokens, layers, total_pages, Reservation::OnDemand);
    // Roomy enough that the host tier never refuses: device pressure is
    // what this drive is about.
    ledger.enable_host_tier(MAX_LIVE * total_pages);
    let geometry =
        KvCacheConfig { page_tokens, kv_heads: 1, head_dim: 2, layers, precision: KvPrecision::Int4 };
    let mut cache = PagedKvCache::new(geometry, total_pages);
    // Prefix tokens each group shares: at least one whole page (a shorter
    // prefix is no group to the ledger), page-aligned or not.
    let prefix: Vec<usize> = (0..3).map(|_| page_tokens + pick(rng, 2 * page_tokens)).collect();
    let mut live = Vec::new();
    let mut reached = Reached::default();
    let mut next_id = 0u64;
    for _ in 0..300 {
        let op = pick(rng, 10);
        let who = if live.is_empty() { 0 } else { pick(rng, live.len()) };
        match op {
            // Admit an ungrouped sequence and prefill it.
            0 | 1 if live.len() < MAX_LIVE => {
                let start = 1 + pick(rng, 3 * page_tokens);
                match ledger.admit(RequestId(next_id), None, 0, start, start) {
                    Some(handle) => {
                        cache.register(SequenceId(next_id)).unwrap();
                        append(&mut cache, SequenceId(next_id), start);
                        live.push(Live { id: next_id, handle: Some(handle), len: start, group: None });
                    }
                    None => {
                        let need = start.div_ceil(page_tokens) * layers;
                        assert!(swap_sharers || need > cache.free_pages(), "the ledger refused what the cache could hold");
                        reached.refusals += 1;
                    }
                }
                next_id += 1;
            }
            // Join a prefix group: fork off a resident member, or found it.
            2 | 3 if live.len() < MAX_LIVE => {
                let g = pick(rng, prefix.len());
                let (group, shared) = (g as u64, prefix[g]);
                let start = shared + 1 + pick(rng, page_tokens + 1);
                let source = live.iter().find(|s| s.group == Some(group) && s.handle.is_some());
                let pooled = ledger.pool_pages_per_layer(group).is_some();
                // A pool only swapped-out members hold (sharers are being
                // swapped) has no resident pages to fork: sit this one out.
                if pooled && source.is_none() {
                    continue;
                }
                let id = next_id;
                next_id += 1;
                let Some(handle) = ledger.admit(RequestId(id), Some(group), shared, start, start)
                else {
                    reached.refusals += 1;
                    continue;
                };
                match source {
                    Some(source) => {
                        cache.fork(SequenceId(source.id), SequenceId(id), shared).unwrap();
                        // The private suffix: its first token copies the
                        // boundary page on write when the prefix ends mid-page.
                        append(&mut cache, SequenceId(id), start - shared);
                        reached.forks_mid_page += usize::from(shared % page_tokens != 0);
                    }
                    None => {
                        cache.register(SequenceId(id)).unwrap();
                        append(&mut cache, SequenceId(id), start);
                    }
                }
                live.push(Live { id, handle: Some(handle), len: start, group: Some(group) });
            }
            // Grow a resident by one token in every layer.
            4 | 5 | 6 if !live.is_empty() => {
                let Some(handle) = live[who].handle else { continue };
                if ledger.grow(handle, live[who].len + 1).is_some() {
                    append(&mut cache, SequenceId(live[who].id), 1);
                    live[who].len += 1;
                } else {
                    // Only a page boundary can refuse: one page per layer.
                    assert!(swap_sharers || layers > cache.free_pages(), "the ledger refused a token the cache had room for");
                    reached.refusals += 1;
                }
            }
            // Release, resident or swapped out.
            7 if !live.is_empty() => {
                let gone = live.swap_remove(who);
                ledger.release(RequestId(gone.id), gone.handle);
                cache.release(SequenceId(gone.id)).unwrap();
            }
            // Swap out a resident / swap a parked sequence back in.
            8 | 9 if !live.is_empty() => {
                let seq = &mut live[who];
                let shares = seq.group.is_some();
                if shares && !swap_sharers {
                    continue;
                }
                let (ledger_pages, cache_pages) = if let Some(handle) = seq.handle.take() {
                    let out = ledger.swap_out(RequestId(seq.id), handle, seq.len).expect("the host tier is roomy");
                    (out, cache.swap_out(SequenceId(seq.id)).unwrap())
                } else {
                    match ledger.swap_in(RequestId(seq.id)) {
                        Some((handle, pages)) => {
                            seq.handle = Some(handle);
                            (pages, cache.swap_in(SequenceId(seq.id)).expect("the ledger had room"))
                        }
                        None => {
                            reached.refusals += 1;
                            continue;
                        }
                    }
                };
                reached.swaps += 1;
                reached.sharer_swaps += usize::from(shares);
                if shares {
                    assert!(cache_pages >= ledger_pages, "a sharer's swap moved {cache_pages} cache pages < {ledger_pages} ledger pages");
                } else {
                    assert_eq!(cache_pages, ledger_pages, "an unshared swap must move the same pages on both sides");
                }
            }
            _ => continue,
        }
        ledger.assert_consistent();
        assert_eq!(cache.used_pages() + cache.free_pages(), total_pages, "cache page conservation");
        if swap_sharers {
            assert!(
                ledger.used_pages() >= cache.used_pages(),
                "the ledger must stay the conservative side: {} < {}",
                ledger.used_pages(),
                cache.used_pages()
            );
            reached.ops_ledger_above_cache += usize::from(ledger.used_pages() > cache.used_pages());
        } else {
            assert_eq!(ledger.used_pages(), cache.used_pages(), "used pages");
            assert_eq!(ledger.free_pages(), cache.free_pages(), "free pages");
        }
    }
    for seq in live {
        ledger.release(RequestId(seq.id), seq.handle);
        cache.release(SequenceId(seq.id)).unwrap();
    }
    assert_eq!((ledger.used_pages(), cache.used_pages()), (0, 0), "both sides drain");
    reached
}

qserve_tensor::props! {
    /// ROADMAP 3a: ledger = cache, on the domain where it holds — ungrouped
    /// sequences under everything including swap, prefix sharers under
    /// everything but swap. `used_pages` and `free_pages` agree after every
    /// op and every swap moves the same page count on both sides.
    fn ledger_and_cache_count_the_same_pages(rng, cases = 96) {
        drive_ledger_and_cache(rng, false);
    }

    /// Where it does not hold: swapping a prefix *sharer*. The cache calls a
    /// page private when its refcount is 1 ([`PagedKvCache::swap_out`]); the
    /// ledger calls it private when it lies outside the group's pool
    /// ([`KvBudget::swap_out`]). A group's sole remaining holder therefore
    /// takes its prefix pages to the host in the cache and leaves them on
    /// device in the ledger. What is true, and asserted: the ledger stays
    /// the conservative side — it never reports fewer device pages in use
    /// than the cache holds, and never moves more pages than the cache does
    /// — so admission against it cannot overcommit the real pool. Which
    /// rule is right (a pool-aware cache, or a refcount-aware ledger) is
    /// priced behaviour and an open ROADMAP item, not this test's to pick.
    fn a_swapped_sharer_leaves_the_ledger_conservative(rng, cases = 96) {
        drive_ledger_and_cache(rng, true);
    }
}

#[test]
fn the_ledger_cache_properties_reach_forks_swaps_refusals_and_the_divergence() {
    let mut sum = [Reached::default(), Reached::default()];
    for case in 0..32u64 {
        for (sharers, sum) in sum.iter_mut().enumerate() {
            let r = drive_ledger_and_cache(&mut TensorRng::seed(0x1ED6E2 ^ case), sharers == 1);
            sum.forks_mid_page += r.forks_mid_page;
            sum.refusals += r.refusals;
            sum.swaps += r.swaps;
            sum.sharer_swaps += r.sharer_swaps;
            sum.ops_ledger_above_cache += r.ops_ledger_above_cache;
        }
    }
    let [equal, conservative] = sum;
    assert!(equal.forks_mid_page > 80 && equal.refusals > 500 && equal.swaps > 250);
    assert_eq!((equal.sharer_swaps, equal.ops_ledger_above_cache), (0, 0));
    // The sole-holder divergence is real, not a corner the generator misses.
    assert!(conservative.sharer_swaps > 250 && conservative.ops_ledger_above_cache > 600);
}
