//! The request-lifecycle scheduler core: one event-driven continuous-batching
//! state machine shared by every serving path.
//!
//! The core owns the queue → running → finished lifecycle of
//! [`Request`]s — admission order (delegated to a pluggable
//! [`SchedulingPolicy`]), KV-memory gating (delegated to a [`KvBudget`]),
//! recompute- and swap-style preemption, clock/phase accounting, latency
//! statistics — and the *order* of a tick: [`Scheduler::tick`] is the only
//! place the steps are sequenced and gated, and the steps themselves are
//! private. It deliberately does *not* know what a step costs or what
//! executes it. That is a [`TickExecutor`], and the tree has two: the
//! analytic engine prices each step with its cost model
//! ([`crate::ServingEngine`]), the functional path runs it as real quantized
//! forward passes over the paged KV4 cache
//! ([`crate::ModelRuntime::serve_with`]). The scheduler owns the order, the
//! executor owns the price — that split is what keeps exactly one
//! decode/prefill accounting implementation, and exactly one driver loop, in
//! the tree. The per-step obligations live on the trait's hooks.
//!
//! A [`Request`] lives here only while it is pending or running. At its last
//! token it is dropped and a [`FinishedRequest`] stays: this module computes
//! every per-request float a report reads — TTFT and latency (`t −
//! arrival_s`), the worst achieved ÷ deadline ratio, the SLO verdict — once,
//! at retirement, and feeds the latency sketch with the same float.
//! [`Scheduler::stats`] and [`crate::report`] only sum and sort what the
//! records carry, in completion order.

use std::collections::VecDeque;

use crate::request::{Request, RequestId, RequestState};
use crate::sketch::{PercentileSketch, EXACT_STATS_MAX};

// ---------------------------------------------------------------------------
// KV memory budgets
// ---------------------------------------------------------------------------

/// A resident's seat in its budget's ledger, handed out by admission and
/// swap-in and passed back to [`KvBudget::grow`] every tick — the per-token
/// hot path indexes with it instead of looking the request id up. Opaque to
/// the scheduler; valid until the request is released, swapped out or
/// evicted (slots are reused afterwards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvHandle(usize);

/// Abstracts "is there KV memory for this?" so admission and growth can be
/// gated by a real page pool, a simulated one, or nothing at all.
pub trait KvBudget {
    /// Tokens that could still be cached before the pool runs out
    /// (page-granular approximation; `usize::MAX` when unbounded).
    fn free_tokens(&self) -> usize;

    /// Reserves what admitting a request needs: it starts at `start_tokens`
    /// (prompt + recomputed output) and may reach `peak_tokens`. Returns
    /// the resident's ledger handle, or `None` to refuse admission.
    fn admit(&mut self, id: RequestId, start_tokens: usize, peak_tokens: usize)
        -> Option<KvHandle>;

    /// Like [`KvBudget::admit`], but the first `shared_tokens` of the
    /// request's prompt belong to prefix-sharing group `group`: a budget
    /// that models page sharing charges those pages once per *group* (fully
    /// covered pages only — the partial boundary page is private, mirroring
    /// the copy-on-write duplicate in [`crate::PagedKvCache`]). The default
    /// ignores sharing and reserves the full footprint.
    fn admit_shared(
        &mut self,
        id: RequestId,
        group: Option<u64>,
        shared_tokens: usize,
        start_tokens: usize,
        peak_tokens: usize,
    ) -> Option<KvHandle> {
        let _ = (group, shared_tokens);
        self.admit(id, start_tokens, peak_tokens)
    }

    /// Accounts one more cached token for the resident behind `handle`;
    /// `false` means the pool is exhausted (nothing was charged) and someone
    /// must be preempted.
    fn grow(&mut self, handle: KvHandle) -> bool;

    /// Returns everything `id` holds to the pool.
    fn release(&mut self, id: RequestId);

    /// Spills `id`'s *private* pages to a modeled host-memory tier,
    /// freeing them on device while keeping any shared-pool reference
    /// (shared prefix pages stay resident — siblings are reading them).
    /// Returns the device pages freed, or `None` when the budget has no
    /// host tier or the tier is full — the caller must fall back to
    /// recompute preemption.
    fn swap_out(&mut self, _id: RequestId) -> Option<usize> {
        None
    }

    /// Brings a swapped-out request's pages back on device. Returns its
    /// new ledger handle and the device pages re-acquired, or `None` when
    /// the device pool cannot hold them yet. Implementations must fail
    /// loudly (panic, not `None`) when `id` was never swapped out or its
    /// holdings were released in the meantime — that is ledger corruption,
    /// not back-pressure.
    fn swap_in(&mut self, _id: RequestId) -> Option<(KvHandle, usize)> {
        None
    }

    /// High-water mark of unique pages in use (0 for budgets that do not
    /// track pages) — the true-residency number `prefix_sweep` reports.
    fn peak_pages(&self) -> usize {
        0
    }
}

/// No memory gating: admission is limited by the batch limit alone. This is
/// the legacy engine behavior, where the batch limit is already derived from
/// peak-sized KV budgeting ([`crate::memory::MemoryPlan::max_batch`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnboundedBudget;

impl KvBudget for UnboundedBudget {
    fn free_tokens(&self) -> usize {
        usize::MAX
    }
    fn admit(&mut self, _id: RequestId, _start: usize, _peak: usize) -> Option<KvHandle> {
        Some(KvHandle::default())
    }
    fn grow(&mut self, _handle: KvHandle) -> bool {
        true
    }
    fn release(&mut self, _id: RequestId) {}
}

/// How a [`PageBudget`] reserves pages at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reservation {
    /// Reserve the request's *peak* footprint up front: growth can never
    /// fail, so no preemption — the conservative sizing real schedulers use
    /// for admission (and what the legacy batch limit encodes).
    Peak,
    /// Reserve only the current footprint and allocate pages as sequences
    /// grow: admits far more concurrency, at the price of preemptions when
    /// the pool runs dry mid-decode (vLLM-style).
    OnDemand,
}

#[derive(Debug, Clone, Copy)]
struct PageEntry {
    /// The resident this slot belongs to — lets the audit prove a handle
    /// and the id map name the same entry.
    id: RequestId,
    /// Tokens in the entry's *private* region (beyond any shared pool pages).
    tokens: usize,
    reserved_per_layer: usize,
    /// Prefix-sharing pool this entry holds a reference on.
    group: Option<u64>,
    /// Prompt tokens served by that pool's pages instead of private ones.
    covered_tokens: usize,
}

/// One prefix-sharing group's pooled pages: charged once, refcounted by the
/// resident group members — the ledger twin of the cache's page refcounts.
#[derive(Debug, Clone, Copy)]
struct SharedPool {
    pages_per_layer: usize,
    refs: usize,
}

/// A page ledger mirroring [`crate::PagedKvCache`]'s allocation arithmetic
/// (fixed pool of fixed-size pages, one page table per layer, refcounted
/// prefix sharing) without storing bytes — the memory model the scheduler
/// admits and preempts against.
#[derive(Debug, Clone)]
pub struct PageBudget {
    page_tokens: usize,
    layers: usize,
    total_pages: usize,
    free_pages: usize,
    peak_used: usize,
    mode: Reservation,
    /// Resident entries in a dense slab indexed by [`KvHandle`]: the
    /// per-token [`KvBudget::grow`] is an index, not a map walk. Vacated
    /// slots are `None` and reused through `free_slots`.
    slab: Vec<Option<PageEntry>>,
    free_slots: Vec<usize>,
    /// `RequestId → slab slot`, for the per-request events (release, swap,
    /// audit) that only know the id.
    slots: std::collections::BTreeMap<RequestId, usize>,
    pools: std::collections::BTreeMap<u64, SharedPool>,
    /// Pools holding a control-plane *anchor* reference: prefix pages
    /// imported by a cross-replica migration stay resident (and the pool
    /// alive) even before the first local member admits, and between
    /// members. One anchor is at most one extra reference per pool.
    anchors: std::collections::BTreeSet<u64>,
    /// Capacity in pages of the modeled host-memory tier behind swap-style
    /// preemption (`None` = no tier, swaps refuse and callers fall back to
    /// recompute).
    host_capacity: Option<usize>,
    /// Host pages currently holding swapped KV state.
    host_used: usize,
    /// Swapped-out requests: the entry itself, parked whole — exactly what
    /// swap-in seats again. Shared prefix pages never move — siblings keep
    /// reading them on device, pinned by the entry's pool reference
    /// (`group`) — so only *private* pages cross the link, and the driver
    /// prices that transfer via [`qserve_gpusim::HostLink`]. Like the
    /// device ledger, every subtraction is checked: swapping back an entry
    /// that was released in the meantime (or never parked) is ledger
    /// corruption and fails loudly instead of minting pages.
    parked: std::collections::BTreeMap<RequestId, PageEntry>,
}

impl PageBudget {
    /// A ledger over `total_pages` pages of `page_tokens` tokens each, with
    /// one page table per layer.
    pub fn new(page_tokens: usize, layers: usize, total_pages: usize, mode: Reservation) -> Self {
        assert!(page_tokens > 0 && layers > 0, "degenerate page geometry");
        Self {
            page_tokens,
            layers,
            total_pages,
            free_pages: total_pages,
            peak_used: 0,
            mode,
            slab: Vec::new(),
            free_slots: Vec::new(),
            slots: std::collections::BTreeMap::new(),
            pools: std::collections::BTreeMap::new(),
            anchors: std::collections::BTreeSet::new(),
            host_capacity: None,
            host_used: 0,
            parked: std::collections::BTreeMap::new(),
        }
    }

    /// Attaches a host-memory tier of `capacity_pages` pages, enabling
    /// swap-style preemption ([`KvBudget::swap_out`] /
    /// [`KvBudget::swap_in`]). Idempotent re-sizing is not supported: the
    /// tier must be attached before any swap.
    ///
    /// # Panics
    /// Panics if a tier is already attached.
    pub fn enable_host_tier(&mut self, capacity_pages: usize) {
        assert!(self.host_capacity.is_none(), "host tier already attached");
        self.host_capacity = Some(capacity_pages);
    }

    /// Total pages in the pool.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Tokens per page — the pool's page geometry, needed by callers that
    /// convert a pool's per-layer page count back into prefix tokens.
    pub fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    /// Pages currently free.
    pub fn free_pages(&self) -> usize {
        self.free_pages
    }

    /// Pages currently charged to residents and shared pools.
    pub fn used_pages(&self) -> usize {
        self.total_pages.checked_sub(self.free_pages).expect("ledger drift: free exceeds total")
    }

    /// Audits the ledger from first principles: the free count must equal
    /// the total minus every resident's private reservation and every
    /// shared pool's pages, and each pool's refcount must equal the number
    /// of resident entries referencing it. Preemption/re-admission
    /// regression tests call this step-wise; it is `assert!`-based, so it
    /// bites in release builds too.
    ///
    /// # Panics
    /// Panics on any drift between the counters and the entry/pool maps.
    pub fn assert_consistent(&self) {
        assert_eq!(
            self.slots.len() + self.free_slots.len(),
            self.slab.len(),
            "ledger slab drift: live + free slots != slab"
        );
        for (&id, &slot) in &self.slots {
            assert_eq!(
                self.slab[slot].map(|e| e.id),
                Some(id),
                "request {:?} maps to a slot it does not own",
                id
            );
        }
        let reserved: usize = self
            .entries()
            .map(|e| e.reserved_per_layer * self.layers)
            .sum();
        let pooled: usize = self
            .pools
            .values()
            .map(|p| p.pages_per_layer * self.layers)
            .sum();
        assert_eq!(
            self.free_pages + reserved + pooled,
            self.total_pages,
            "page ledger drift: free {} + reserved {} + pooled {} != total {}",
            self.free_pages,
            reserved,
            pooled,
            self.total_pages
        );
        for (g, pool) in &self.pools {
            // Swapped-out members keep their pool reference: their shared
            // prefix pages stay on device even while the private pages sit
            // in the host tier. A migration anchor is one more reference,
            // held by the control plane rather than a member.
            let resident = self.entries().filter(|e| e.group == Some(*g)).count();
            let swapped = self.parked.values().filter(|e| e.group == Some(*g)).count();
            let anchor = usize::from(self.anchors.contains(g));
            assert_eq!(pool.refs, resident + swapped + anchor, "pool {} refcount drift", g);
            assert!(
                resident + swapped + anchor > 0,
                "pool {} outlived its last member",
                g
            );
        }
        for g in &self.anchors {
            assert!(self.pools.contains_key(g), "anchor references a dead pool {}", g);
        }
        for e in self.entries() {
            if let Some(g) = e.group {
                assert!(self.pools.contains_key(&g), "entry references a dead pool {}", g);
            }
        }
        // The host tier, from first principles: the used-page counter must
        // equal the sum over parked entries, within capacity.
        let parked: usize = self.parked.values().map(|e| e.reserved_per_layer * self.layers).sum();
        assert_eq!(self.host_used, parked, "host tier drift: used {} != parked {}", self.host_used, parked);
        assert!(
            self.host_used <= self.host_capacity_pages(),
            "host tier overflow: used {} > capacity {}",
            self.host_used,
            self.host_capacity_pages()
        );
        for (id, e) in &self.parked {
            assert!(
                !self.slots.contains_key(id),
                "request {:?} is both resident and swapped out",
                id
            );
            if let Some(g) = e.group {
                assert!(
                    self.pools.contains_key(&g),
                    "swapped entry references a dead pool {}",
                    g
                );
            }
        }
    }

    /// The resident entries, in slot order.
    fn entries(&self) -> impl Iterator<Item = &PageEntry> {
        self.slab.iter().flatten()
    }

    /// Seats `entry` in a free slab slot (reusing vacated ones first) and
    /// records it under its id.
    fn seat(&mut self, entry: PageEntry) -> KvHandle {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        self.slab[slot] = Some(entry);
        let prev = self.slots.insert(entry.id, slot);
        assert!(prev.is_none(), "request {:?} is already resident in the ledger", entry.id);
        KvHandle(slot)
    }

    /// Vacates `id`'s slot, returning its entry (`None` when not resident).
    fn unseat(&mut self, id: RequestId) -> Option<PageEntry> {
        let slot = self.slots.remove(&id)?;
        self.free_slots.push(slot);
        Some(self.slab[slot].take().expect("id map names a vacant ledger slot"))
    }

    /// Host pages still free (`None` without a tier).
    fn host_free_pages(&self) -> Option<usize> {
        let free = self.host_capacity?.checked_sub(self.host_used);
        Some(free.expect("host tier ledger drift: used exceeds capacity"))
    }

    /// Parks `entry` in the host tier, charging its pages against it.
    ///
    /// # Panics
    /// Panics if the request is already parked or the tier lacks room —
    /// [`KvBudget::swap_out`] checks [`PageBudget::host_free_pages`] first.
    fn park(&mut self, entry: PageEntry) {
        let pages = entry.reserved_per_layer * self.layers;
        let free = self.host_free_pages().expect("park() without a host tier");
        assert!(pages <= free, "host tier overflow: parking {} pages with {} free", pages, free);
        self.host_used += pages;
        let prev = self.parked.insert(entry.id, entry);
        assert!(prev.is_none(), "request {:?} swapped out twice", entry.id);
    }

    /// Removes `id`'s parked entry, returning its pages to the tier (`None`
    /// when `id` is not swapped out — release is idempotent; swap-in, which
    /// must not be, expects the entry).
    fn unpark(&mut self, id: RequestId) -> Option<PageEntry> {
        let entry = self.parked.remove(&id)?;
        self.host_used = self
            .host_used
            .checked_sub(entry.reserved_per_layer * self.layers)
            .expect("host tier ledger drift: entry pages exceed used");
        Some(entry)
    }

    /// Audit hook: the tokens the ledger holds for resident `id` (private +
    /// pool-covered), after checking that `handle` and the id map resolve
    /// to the same live entry.
    ///
    /// # Panics
    /// Panics when `handle` is stale or belongs to another request.
    #[doc(hidden)]
    fn resident_footprint(&self, handle: KvHandle, id: RequestId) -> usize {
        assert_eq!(self.slots.get(&id), Some(&handle.0), "request {:?}: handle/id-map drift", id);
        let e = self.slab[handle.0].as_ref().expect("handle names a vacant ledger slot");
        e.tokens + e.covered_tokens
    }

    /// Audit hook: number of resident (on-device) entries.
    #[doc(hidden)]
    fn resident_count(&self) -> usize {
        self.slots.len()
    }

    /// Pages one sequence of `tokens` needs per layer.
    fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_tokens)
    }

    fn take(&mut self, pages: usize) {
        self.free_pages =
            self.free_pages.checked_sub(pages).expect("page take exceeds the free pool");
        self.peak_used = self.peak_used.max(self.used_pages());
    }

    /// Drops one reference on shared pool `g`, freeing its pages with the
    /// last member. Hard asserts (not debug_assert) so an accounting bug
    /// cannot wrap the counter in release builds.
    fn unref_pool(&mut self, g: u64) {
        let pool = self.pools.get_mut(&g).expect("entry references a dead pool");
        pool.refs = pool
            .refs
            .checked_sub(1)
            .expect("shared pool refcount underflow");
        if pool.refs == 0 {
            self.free_pages += pool.pages_per_layer * self.layers;
            self.pools.remove(&g);
        }
    }

    /// Pages per layer held by prefix pool `group`, if the pool is resident
    /// here — what a cross-replica migration exports.
    pub fn pool_pages_per_layer(&self, group: u64) -> Option<usize> {
        self.pools.get(&group).map(|p| p.pages_per_layer)
    }

    /// Imports a prefix group's pooled pages from another replica: charges
    /// `pages_per_layer × layers` physical pages to this ledger and anchors
    /// the pool with one control-plane reference, so it survives until the
    /// anchor is released even with zero local members. Returns the
    /// physical pages taken, or `None` when the pool already exists here
    /// (the prefix is already warm — nothing to move), the import is empty,
    /// or the free list cannot cover it.
    pub fn import_pool(&mut self, group: u64, pages_per_layer: usize) -> Option<usize> {
        if pages_per_layer == 0 || self.pools.contains_key(&group) {
            return None;
        }
        let need = pages_per_layer * self.layers;
        if need > self.free_pages {
            return None;
        }
        self.take(need);
        self.pools.insert(group, SharedPool { pages_per_layer, refs: 1 });
        self.anchors.insert(group);
        Some(need)
    }

    /// Drops every control-plane anchor — a crashed replica's imported
    /// prefix pages die with its pool, so the post-crash audit can demand
    /// an empty ledger.
    pub fn release_anchors(&mut self) {
        for g in std::mem::take(&mut self.anchors) {
            self.unref_pool(g);
        }
    }

    /// Host-tier pages in use (0 without a tier) — surfaced to the control
    /// plane through the replica snapshot.
    pub fn host_used_pages(&self) -> usize {
        self.host_used
    }

    /// Host-tier capacity in pages (0 without a tier).
    pub fn host_capacity_pages(&self) -> usize {
        self.host_capacity.unwrap_or(0)
    }
}

impl KvBudget for PageBudget {
    fn free_tokens(&self) -> usize {
        self.free_pages / self.layers * self.page_tokens
    }

    fn admit(&mut self, id: RequestId, start: usize, peak: usize) -> Option<KvHandle> {
        self.admit_shared(id, None, 0, start, peak)
    }

    fn admit_shared(
        &mut self,
        id: RequestId,
        group: Option<u64>,
        shared_tokens: usize,
        start_tokens: usize,
        peak_tokens: usize,
    ) -> Option<KvHandle> {
        // Only fully covered prefix pages are shared; the partial boundary
        // page is private (the cache would copy-on-write it anyway).
        let group = group.filter(|_| shared_tokens >= self.page_tokens);
        let (pool_need, covered_tokens) = match group {
            None => (0, 0),
            Some(g) => {
                let own_pages = shared_tokens / self.page_tokens;
                match self.pools.get(&g) {
                    // Joining an existing pool costs nothing; alias at most
                    // what the pool actually holds.
                    Some(pool) => (0, own_pages.min(pool.pages_per_layer) * self.page_tokens),
                    None => (own_pages * self.layers, own_pages * self.page_tokens),
                }
            }
        };
        let reserve_tokens = match self.mode {
            Reservation::Peak => peak_tokens,
            Reservation::OnDemand => start_tokens,
        };
        let per_layer = self.pages_for(reserve_tokens.saturating_sub(covered_tokens));
        let need = per_layer * self.layers + pool_need;
        if need > self.free_pages {
            return None;
        }
        self.take(need);
        if let Some(g) = group {
            let pool = self.pools.entry(g).or_insert(SharedPool {
                pages_per_layer: covered_tokens / self.page_tokens,
                refs: 0,
            });
            pool.refs += 1;
        }
        Some(self.seat(PageEntry {
            id,
            tokens: start_tokens
                .checked_sub(covered_tokens)
                .expect("shared coverage exceeds the request's start tokens"),
            reserved_per_layer: per_layer,
            group,
            covered_tokens,
        }))
    }

    fn grow(&mut self, handle: KvHandle) -> bool {
        let entry = self.slab[handle.0].as_mut().expect("grow() on a vacant ledger slot");
        // Fifteen tokens in sixteen land inside the pages already held:
        // one compare against the reserved capacity, no division.
        if entry.tokens < entry.reserved_per_layer * self.page_tokens {
            entry.tokens += 1;
            return true;
        }
        let need_per_layer = (entry.tokens + 1).div_ceil(self.page_tokens);
        let need = need_per_layer
            .checked_sub(entry.reserved_per_layer)
            .expect("entry holds more tokens than it reserved")
            * self.layers;
        if need > self.free_pages {
            return false;
        }
        entry.tokens += 1;
        entry.reserved_per_layer = need_per_layer;
        self.take(need);
        true
    }

    fn release(&mut self, id: RequestId) {
        if let Some(entry) = self.unseat(id) {
            self.free_pages += entry.reserved_per_layer * self.layers;
            if let Some(g) = entry.group {
                self.unref_pool(g);
            }
            assert!(self.free_pages <= self.total_pages, "page ledger over-released");
        } else if let Some(swapped) = self.unpark(id) {
            // Releasing a swapped-out request frees host pages, not device
            // pages — but its shared-pool reference (device-resident) must
            // still be dropped, or the pool leaks.
            if let Some(g) = swapped.group {
                self.unref_pool(g);
            }
            assert!(self.free_pages <= self.total_pages, "page ledger over-released");
        }
    }

    fn swap_out(&mut self, id: RequestId) -> Option<usize> {
        // No tier attached → the caller falls back to recompute.
        let host_free = self.host_free_pages()?;
        let slot = *self.slots.get(&id).expect("swap_out() on unadmitted request");
        let entry = self.slab[slot].expect("id map names a vacant ledger slot");
        let pages = entry.reserved_per_layer * self.layers;
        if pages > host_free {
            return None;
        }
        self.unseat(id);
        self.park(entry);
        // The pool reference (if any) is deliberately kept: the swapped
        // member still pins its shared prefix pages on device.
        self.free_pages += pages;
        assert!(self.free_pages <= self.total_pages, "page ledger over-released");
        Some(pages)
    }

    fn swap_in(&mut self, id: RequestId) -> Option<(KvHandle, usize)> {
        assert!(self.host_capacity.is_some(), "swap_in() without a host tier");
        // Loud on a missing entry: swapping back pages whose owner was
        // released is ledger corruption, not back-pressure.
        let pages = self
            .parked
            .get(&id)
            .expect("swap-in of a request with no host-tier holdings (released or never swapped)")
            .reserved_per_layer
            * self.layers;
        if pages > self.free_pages {
            return None;
        }
        let entry = self.unpark(id).expect("checked above");
        self.take(pages);
        Some((self.seat(entry), pages))
    }

    fn peak_pages(&self) -> usize {
        self.peak_used
    }
}

// ---------------------------------------------------------------------------
// Scheduling policies
// ---------------------------------------------------------------------------

/// Decides *which* queued request is admitted next and *who* gets preempted
/// under memory pressure. Policies see only arrived requests; batch-limit
/// and budget gating stay in the core.
///
/// `Send` so a replica (which owns its policy) can be advanced on a pool
/// worker between cluster barriers; policies are consulted from exactly one
/// thread at a time, so no `Sync` bound is needed.
pub trait SchedulingPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Index into `waiting` (arrived requests, FCFS order) of the next
    /// request to admit, or `None` to hold admission this tick.
    fn select(&self, waiting: &[Request], running: &[Request], budget: &dyn KvBudget)
        -> Option<usize>;

    /// Index into `running` of the preemption victim when the pool runs dry.
    /// Default: the most recently admitted resident (LIFO, protects the
    /// oldest request's progress).
    ///
    /// The answer is a *preference*: [`Scheduler::make_room`] clamps it up
    /// to the resident whose growth was just refused (and never below
    /// index 1). Residents before that one have already been charged this
    /// tick's token and will decode it; evicting one of them would park or
    /// wipe a token that was never generated, so only the not-yet-charged
    /// suffix is evictable. The LIFO default always lands in that suffix.
    fn victim(&self, running: &[Request]) -> Option<usize> {
        running.len().checked_sub(1)
    }
}

/// First-come-first-served continuous batching — the classic (and legacy)
/// admission order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl SchedulingPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }
    fn select(&self, waiting: &[Request], _running: &[Request], _budget: &dyn KvBudget)
        -> Option<usize> {
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
    fn select(&self, waiting: &[Request], _running: &[Request], _budget: &dyn KvBudget)
        -> Option<usize> {
        waiting
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (r.remaining(), r.input_len, r.id))
            .map(|(i, _)| i)
    }
}

/// Memory-aware admission: FCFS order, but a request is only admitted while
/// the free page pool covers its prefill footprint plus `headroom` of its
/// remaining output — aggressive enough to beat peak reservation, cautious
/// enough to keep preemption storms rare. Pair with an
/// [`Reservation::OnDemand`] [`PageBudget`]; preemption (LIFO victim)
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
    fn select(&self, waiting: &[Request], _running: &[Request], budget: &dyn KvBudget)
        -> Option<usize> {
        let r = waiting.first()?;
        // lint: allow(raw-cast) -- admission headroom is a deliberate f64 estimate; ceil() is finite and non-negative, so the cast is exact
        let need = r.prefill_len() + (r.remaining() as f64 * self.headroom).ceil() as usize;
        (budget.free_tokens() >= need).then_some(0)
    }
}

// ---------------------------------------------------------------------------
// The scheduler core
// ---------------------------------------------------------------------------

/// One admitted wave: ids plus the per-request token counts the driver must
/// prefill (prompt + recomputed output for re-admitted preemptees).
#[derive(Debug, Clone, Default)]
pub struct AdmittedWave {
    /// Admitted request ids, in admission order.
    pub ids: Vec<RequestId>,
    /// Matching prefill token counts (the *full* target, shared included).
    pub prefill_lens: Vec<usize>,
    /// Tokens of each prefill aliased from a resident group member's prefix
    /// pages — already cached, so the driver must not charge compute for
    /// them (all zeros unless sharing is enabled).
    pub shared_lens: Vec<usize>,
}

/// What a driver contributes to [`Scheduler::tick`]: it runs or prices each
/// step and returns what the clock is charged for it — seconds from a cost
/// model, model steps from the functional runtime. Nothing here is about
/// order or conditions; the tick owns those. Every hook sees the scheduler
/// read-only, as the step left it ([`Scheduler::running`],
/// [`Scheduler::decode_totals`], [`Scheduler::clock`]). Return the cost of
/// what you ran: the tick charges exactly that, and having run nothing
/// costs `0.0`.
pub trait TickExecutor {
    /// Admission seated `wave` (never empty). Under whole-prompt prefill
    /// member `i` runs `prefill_lens[i] − shared_lens[i]` new tokens over
    /// `shared_lens[i]` already-cached ones — a resident sibling's aliased
    /// prefix, never charged compute — here, in wave order: a later member's
    /// grant may alias an earlier member of the same wave. Under chunked
    /// prefill ([`SchedOptions::chunk_tokens`]) nothing of a prompt runs at
    /// admission — its tokens arrive through
    /// [`TickExecutor::prefill_chunks`] — so seat the members and return
    /// `0.0`.
    fn prefill_wave(&mut self, sched: &Scheduler, wave: &AdmittedWave) -> f64;

    /// One slice per resident still prefilling (never empty), as
    /// `(id, new, past)`: run `new` tokens attending over the `past` tokens
    /// already cached for `id` — its aliased prefix plus earlier chunks.
    fn prefill_chunks(&mut self, sched: &Scheduler, chunks: &[(RequestId, usize, usize)]) -> f64;

    /// `pages` KV pages crossed the host link this tick: swap-ins at
    /// admission plus swap-outs in make-room. Only asked for a positive
    /// count — zero pages cost zero seconds, so the tick charges nothing.
    fn swap(&mut self, sched: &Scheduler, pages: usize) -> f64;

    /// One decode step over the decodable residents — those of `running()`
    /// with `prefill_remaining() == 0`, at least one. Called after growth
    /// and preemption, so the step is costed on the surviving batch, and
    /// before the scheduler advances anyone.
    fn decode(&mut self, sched: &Scheduler) -> f64;

    /// Make-room recompute-preempted `ids` (possibly none): their KV state
    /// is gone. Swap victims are not listed — theirs survives on the host
    /// tier.
    fn preempted(&mut self, _sched: &Scheduler, _ids: &[RequestId]) {}

    /// The decode step just charged retired `ids` (possibly none), in
    /// admission order; the budget has already released them.
    fn retired(&mut self, _sched: &Scheduler, _ids: &[RequestId]) {}
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

/// What a request leaves behind when it retires: the few facts reports
/// read, instead of the request itself — the scheduler holds one of these
/// per completion and a [`Request`] only while it is pending or running.
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
    fn retire(req: &Request, clock: f64) -> Self {
        let mut done = Self {
            id: req.id,
            arrival_s: req.arrival_s,
            first_token_s: req.first_token_s.expect("a retiring request decoded a token"),
            finish_s: clock,
            worst_ratio: 0.0,
            generated: u32::try_from(req.generated).expect("output length fits u32"),
            has_deadline: req.slo.has_deadline(),
            met_slo: false,
            requeued: req.requeues > 0,
        };
        let (ttft_s, latency_s) = (done.ttft_s(), done.latency_s());
        done.met_slo = req.slo.met_by(ttft_s, latency_s);
        done.worst_ratio = match (
            req.slo.ttft_deadline_s.map(|d| ttft_s / d),
            req.slo.latency_deadline_s.map(|d| latency_s / d),
        ) {
            (Some(a), Some(b)) => a.max(b),
            (a, b) => a.or(b).unwrap_or(0.0),
        };
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

/// Aggregate timing statistics over the finished requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerStats {
    /// Final clock, seconds.
    pub clock_s: f64,
    /// Time spent in prefill.
    pub prefill_time_s: f64,
    /// Time spent in decode.
    pub decode_time_s: f64,
    /// Requests finished.
    pub completed: usize,
    /// Output tokens generated across finished requests.
    pub generated_tokens: usize,
    /// Mean end-to-end latency (arrival → last token).
    pub mean_latency_s: f64,
    /// Worst end-to-end latency.
    pub max_latency_s: f64,
    /// Median end-to-end latency.
    pub p50_latency_s: f64,
    /// 95th-percentile end-to-end latency.
    pub p95_latency_s: f64,
    /// 99th-percentile end-to-end latency.
    pub p99_latency_s: f64,
    /// Mean time-to-first-token.
    pub mean_ttft_s: f64,
    /// Preemption events over the run.
    pub preemptions: usize,
    /// Swap-out preemption events over the run (victims spilled to the
    /// host tier instead of wiped).
    pub swap_outs: usize,
    /// Device pages moved host-ward by swap-out preemptions.
    pub swap_out_pages: usize,
    /// Device pages moved back by swap-in re-admissions.
    pub swap_in_pages: usize,
    /// Time spent moving pages across the host link.
    pub swap_time_s: f64,
    /// Median latency from the streaming sketch (always computed; the
    /// authoritative percentile source above [`EXACT_STATS_MAX`] finishes).
    pub sketch_p50_latency_s: f64,
    /// 99th-percentile latency from the streaming sketch.
    pub sketch_p99_latency_s: f64,
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `(0, 1]`):
/// the smallest element with at least a `q` fraction of the sample at or
/// below it. Well-defined for every sample size — a single-element slice
/// returns that element for every `q` (so p50/p95/p99 of a one-request run
/// all equal its latency), and `q = 1` returns the maximum; no index
/// arithmetic at the array edge.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!(q > 0.0 && q <= 1.0, "q must be in (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    // `q > 0` makes rank ≥ 1 and `q ≤ 1` makes rank ≤ len, but float
    // rounding could break either bound; saturate instead of trusting it.
    let idx = rank.saturating_sub(1).min(sorted.len() - 1);
    sorted[idx]
}

/// The continuous-batching lifecycle state machine, advanced by
/// [`Scheduler::tick`].
pub struct Scheduler {
    policy: Box<dyn SchedulingPolicy>,
    batch_limit: usize,
    opts: SchedOptions,
    /// Not-yet-running requests (queued + preempted + swapped), sorted by
    /// `(ready_s, id)` so the eligible prefix is FCFS-ordered (`ready_s`
    /// equals `arrival_s` except for requests requeued off a crashed
    /// replica, which become eligible at the crash time). A deque so the
    /// common FCFS admission (`remove(0)`) is O(1) instead of shifting
    /// the whole backlog.
    pending: VecDeque<Request>,
    /// Admitted requests, in admission order (LIFO preemption indexes this).
    running: Vec<Request>,
    /// Each resident's ledger handle, parallel to `running` and kept in
    /// step at every push and removal. A column beside the requests rather
    /// than a `Request` field: a request's public shape (and its `Debug`
    /// text, which run digests hash) stays independent of the budget.
    handles: Vec<KvHandle>,
    /// Residents with `prefill_remaining() > 0` — incremental twin of the
    /// scan, like `outstanding`. The rest of `running` is decodable.
    prefilling: usize,
    /// Σ `seq_len` over the decodable residents: with their count, all the
    /// cost model needs to price a decode step.
    decode_tokens: usize,
    /// One record per completion, in completion order — never the request.
    finished: Vec<FinishedRequest>,
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
    /// Incremental twin of the `outstanding_tokens_scan` walk: for every
    /// queued/running request, `owed = prefill_remaining() + remaining()`
    /// collapses to `input_len + output_len − prefilled`, so the counter
    /// only moves when `prefilled` changes or a request enters/leaves the
    /// pending∪running set. Keeping it current makes the router's per-
    /// arrival load probe O(1) instead of O(residents).
    outstanding: usize,
    /// Prefix tokens warmed by a cross-replica page migration, per sharing
    /// group: an imported pool's fully covered tokens are aliasable by new
    /// members even before any sibling runs here — the compute half of the
    /// migration (the page half lives in [`PageBudget::import_pool`]).
    warm_prefixes: std::collections::BTreeMap<u64, usize>,
    /// Time spent receiving migrated prefix pages over the peer link.
    migration_time: f64,
    /// Streaming end-to-end latency accumulator, fed once per retirement
    /// with the same `latency_s()` float the exact path reads later.
    latency_sketch: PercentileSketch,
    /// The tick's out-buffers, each cleared and refilled by its step and
    /// lent to the executor's hook: what admission seated, this tick's
    /// chunked-prefill slices `(id, new, past)`, the ids make-room
    /// recompute-preempted and the ids the decode step retired.
    wave: AdmittedWave,
    chunks: Vec<(RequestId, usize, usize)>,
    preempted: Vec<RequestId>,
    retired: Vec<RequestId>,
}

/// Tokens of work still owed to one queued or running request.
fn owed(r: &Request) -> usize {
    r.prefill_remaining() + r.remaining()
}

impl Scheduler {
    /// Builds a scheduler with explicit prefix-sharing / chunked-prefill
    /// options.
    ///
    /// # Panics
    /// Panics if `batch_limit` is zero, `requests` is empty, or a chunk size
    /// of zero tokens is requested.
    pub fn with_options(
        mut requests: Vec<Request>,
        batch_limit: usize,
        policy: Box<dyn SchedulingPolicy>,
        opts: SchedOptions,
    ) -> Self {
        assert!(!requests.is_empty(), "nothing to schedule");
        requests.sort_by(|a, b| {
            a.ready_s.total_cmp(&b.ready_s).then(a.id.cmp(&b.id))
        });
        let mut sched = Self::open(batch_limit, policy, opts);
        sched.outstanding = requests.iter().map(owed).sum();
        sched.pending = requests.into();
        sched
    }

    /// Builds an *open* scheduler with no requests yet: callers submit work
    /// incrementally via [`Scheduler::submit`] — how a cluster replica
    /// receives requests one routing decision at a time. Starts in the done
    /// state ([`Scheduler::is_done`]) until the first submission.
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
            running: Vec::new(),
            handles: Vec::new(),
            prefilling: 0,
            decode_tokens: 0,
            finished: Vec::new(),
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
            latency_sketch: PercentileSketch::new(),
            wave: AdmittedWave::default(),
            chunks: Vec::new(),
            preempted: Vec::new(),
            retired: Vec::new(),
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

    /// The sharing/chunking options this scheduler runs under — the single
    /// source of truth a driver must price ticks against.
    pub fn options(&self) -> SchedOptions {
        self.opts
    }

    /// Tokens of work still owed to queued + running requests: un-prefilled
    /// prompt/recompute tokens plus un-generated output tokens. The
    /// "outstanding work" a cluster router balances replicas by. O(1) — an
    /// incrementally maintained counter, audited against the full scan in
    /// debug builds.
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
        self.pending.iter().chain(&self.running).map(owed).sum()
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
        self.pending.is_empty() && self.running.is_empty()
    }

    /// The running batch, in admission order.
    pub fn running(&self) -> &[Request] {
        &self.running
    }

    /// Residents still in (chunked) prefill. O(1) — a counter, audited
    /// against the scan in debug builds.
    pub fn prefilling(&self) -> usize {
        debug_assert_eq!(
            self.prefilling,
            self.running.iter().filter(|r| r.prefill_remaining() > 0).count(),
            "prefilling counter drifted from the ground-truth scan"
        );
        self.prefilling
    }

    /// `(count, Σ seq_len)` of the sequences that will decode this tick —
    /// the residents whose (possibly chunked) prefill has completed; all a
    /// cost model needs to price the step. O(1), audited like
    /// [`Scheduler::prefilling`].
    pub fn decode_totals(&self) -> (usize, usize) {
        debug_assert_eq!(
            self.decode_tokens,
            self.running
                .iter()
                .filter(|r| r.prefill_remaining() == 0)
                .map(|r| r.seq_len)
                .sum::<usize>(),
            "decodable-token counter drifted from the ground-truth scan"
        );
        (self.running.len() - self.prefilling(), self.decode_tokens)
    }

    /// Appends an admitted (or swapped-back) resident and its ledger handle,
    /// filing it under the aggregate it belongs to.
    fn push_resident(&mut self, req: Request, handle: KvHandle) {
        if req.prefill_remaining() > 0 {
            self.prefilling += 1;
        } else {
            self.decode_tokens += req.seq_len;
        }
        self.running.push(req);
        self.handles.push(handle);
    }

    /// Removes resident `idx` and its handle, keeping the aggregates honest.
    fn remove_resident(&mut self, idx: usize) -> Request {
        let req = self.running.remove(idx);
        self.handles.remove(idx);
        if req.prefill_remaining() > 0 {
            self.prefilling =
                self.prefilling.checked_sub(1).expect("prefilling counter underflow at eviction");
        } else {
            self.decode_tokens = self
                .decode_tokens
                .checked_sub(req.seq_len)
                .expect("decodable-token counter underflow at eviction");
        }
        req
    }

    /// Differential audit of the scheduler against its page ledger: every
    /// resident's handle and id resolve to the same ledger entry, that
    /// entry's footprint (private + pool-covered tokens) equals the tokens
    /// the request has materialized or reserved (`prefill_len()`), every
    /// swapped-out request's parked footprint says the same, and the ledger
    /// holds no resident the scheduler does not run. Holds between ticks
    /// (after [`Scheduler::decode_step`] or an early-out tick).
    ///
    /// # Panics
    /// Panics on any disagreement.
    #[doc(hidden)]
    pub fn assert_mirrors_ledger(&self, budget: &PageBudget) {
        assert_eq!(self.handles.len(), self.running.len(), "handle column out of step");
        assert_eq!(budget.resident_count(), self.running.len(), "ledger holds a stranger");
        for (r, &h) in self.running.iter().zip(&self.handles) {
            assert_eq!(
                budget.resident_footprint(h, r.id),
                r.prefill_len(),
                "request {:?}: ledger footprint != sequence length",
                r.id
            );
        }
        if budget.host_capacity.is_some() {
            let mut swapped = 0usize;
            for r in self.pending.iter().filter(|r| r.state == RequestState::Swapped) {
                let e = budget.parked.get(&r.id).expect("swapped request has no host-tier holdings");
                assert_eq!(
                    e.tokens + e.covered_tokens,
                    r.prefill_len(),
                    "request {:?}: parked footprint != sequence length",
                    r.id
                );
                swapped += 1;
            }
            assert_eq!(swapped, budget.parked.len(), "host tier holds a stranger");
        }
    }

    /// Longest prefix of `candidate`'s prompt already materialized by a
    /// resident member of its sharing group — the tokens a fork can alias
    /// instead of recomputing.
    fn shared_grant(&self, candidate: &Request) -> usize {
        let Some(group) = candidate.prefix_group else { return 0 };
        // A migrated-in prefix is aliasable even with no resident sibling:
        // its pages arrived warm over the peer link.
        let warm = self
            .warm_prefixes
            .get(&group)
            .map_or(0, |&t| t.min(candidate.prefix_len));
        self.running
            .iter()
            .filter(|r| r.prefix_group == Some(group))
            .map(|r| candidate.prefix_len.min(r.prefix_len).min(r.prefilled))
            .max()
            .unwrap_or(0)
            .max(warm)
    }

    /// Marks `tokens` of sharing group `group`'s prefix as warm: admitted
    /// members alias them like a resident sibling's pages. Installed by the
    /// cluster driver after a successful [`PageBudget::import_pool`]; kept
    /// at the maximum over repeated installs.
    pub fn install_warm_prefix(&mut self, group: u64, tokens: usize) {
        let slot = self.warm_prefixes.entry(group).or_insert(0);
        *slot = (*slot).max(tokens);
    }

    /// One record per finished request, in completion order.
    pub fn finished(&self) -> &[FinishedRequest] {
        &self.finished
    }

    /// Preemption events so far (available before anything finishes,
    /// unlike [`Scheduler::stats`]).
    pub fn preemptions(&self) -> usize {
        self.preemptions
    }

    /// Number of pending requests that are eligible by the current clock.
    fn arrived(&self) -> usize {
        // `pending` is sorted by ready time, so the eligible set is a prefix.
        self.pending.partition_point(|r| r.ready_s <= self.clock)
    }

    /// One scheduling tick, the only spelling of the driver contract: admit
    /// and prefill the wave, advance chunked prefills, idle when nothing
    /// runs, make room, price the host-link traffic, decode. `exec` runs or
    /// prices each step; the tick sequences and gates them and charges the
    /// clock. Every serving path — [`crate::ServingEngine`]'s `serve`, each
    /// [`crate::cluster`] replica, [`crate::ModelRuntime::serve_with`] — is
    /// this in a loop, so a 1-replica cluster is bit-identical to the
    /// single-engine run by construction. Statically dispatched: the hooks
    /// inline into the replica hot path.
    pub fn tick<E: TickExecutor>(&mut self, budget: &mut dyn KvBudget, exec: &mut E) {
        self.admit(budget);
        if !self.wave.ids.is_empty() {
            let dt = exec.prefill_wave(self, &self.wave);
            self.charge_prefill(dt);
        }
        if let Some(chunk_tokens) = self.opts.chunk_tokens {
            self.prefill_chunks(chunk_tokens);
            if !self.chunks.is_empty() {
                let dt = exec.prefill_chunks(self, &self.chunks);
                self.charge_prefill(dt);
            }
        }
        if self.running.is_empty() {
            // Idle forward to the next arrival. A drained-but-open scheduler
            // (cluster replica between routing decisions) has none.
            if let Some(next) = self.pending.front() {
                self.clock = self.clock.max(next.ready_s);
            }
            return;
        }
        self.make_room(budget);
        exec.preempted(self, &self.preempted);
        // This tick's host-link traffic (swap-ins at admission, swap-outs
        // from make-room) goes into the clock: preemption by swap is not
        // free. Zero pages, zero seconds.
        let pages = std::mem::take(&mut self.tick_swap_pages);
        if pages > 0 {
            let dt = exec.swap(self, pages);
            self.clock += dt;
            self.swap_time += dt;
        }
        if self.running.len() == self.prefilling {
            return; // every resident is still chunk-prefilling
        }
        let dt = exec.decode(self);
        self.decode_step(dt, budget);
        exec.retired(self, &self.retired);
    }

    /// Admission step: repeatedly let the policy pick among arrived requests
    /// and the budget confirm, until the batch limit is hit, the policy
    /// holds, or the budget refuses. When the machine is idle the first
    /// arrived request is force-admitted past a holding policy — a policy
    /// may shape order, not deadlock the system. `wave` is cleared and
    /// refilled with what was admitted.
    fn admit(&mut self, budget: &mut dyn KvBudget) {
        self.wave.ids.clear();
        self.wave.prefill_lens.clear();
        self.wave.shared_lens.clear();
        // An empty backlog (the steady state of a draining replica) skips
        // the arrival search, the policy call and its free-token division.
        while self.running.len() < self.batch_limit && !self.pending.is_empty() {
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
            let choice = self
                .policy
                .select(&self.pending.as_slices().0[..arrived], &self.running, budget)
                .or_else(|| {
                    // Idle machine: progress beats policy caution.
                    (self.running.is_empty() && self.wave.ids.is_empty()).then_some(0)
                });
            let Some(idx) = choice else { break };
            assert!(idx < arrived, "policy selected an unarrived request");
            let candidate = &self.pending[idx];
            // A swapped-out candidate re-admits by swapping its pages back,
            // not by prefilling: its KV state survived eviction, so it joins
            // the batch directly (never part of the prefill wave) and the
            // driver prices the page transfer instead of recompute.
            if candidate.state == RequestState::Swapped {
                let id = candidate.id;
                let Some((handle, pages)) = budget.swap_in(id) else {
                    assert!(
                        !(self.running.is_empty() && self.wave.ids.is_empty()),
                        "request {:?} can never swap back onto an idle device",
                        id
                    );
                    break;
                };
                self.tick_swap_pages += pages;
                self.swap_in_pages += pages;
                let mut req = self.pending.remove(idx).expect("policy index in bounds");
                req.state = RequestState::Running;
                self.push_resident(req, handle);
                continue;
            }
            // Prefix-aware admission hold: when a resident sibling is still
            // chunk-prefilling a prefix this candidate could alias, admitting
            // now would recompute it privately. Holding a tick gets the
            // prefix for free — strictly less total work. (Whole-prompt
            // prefill materializes at admission, so it never holds.)
            if self.opts.share_prefixes && !self.running.is_empty() {
                let grant = self.shared_grant(candidate);
                let potential = candidate
                    .prefix_group
                    .map(|g| {
                        self.running
                            .iter()
                            .filter(|r| r.prefix_group == Some(g))
                            .map(|r| candidate.prefix_len.min(r.prefix_len))
                            .max()
                            .unwrap_or(0)
                    })
                    .unwrap_or(0);
                if potential > grant {
                    break;
                }
            }
            let (group, shared) = if self.opts.share_prefixes {
                let grant = self.shared_grant(candidate);
                let resident = candidate.prefix_group.is_some_and(|g| {
                    self.running.iter().any(|r| r.prefix_group == Some(g))
                });
                // Share the group's page pool when actually aliasing
                // (grant > 0) or when founding it (no resident member). A
                // member that must recompute the prefix *while* a sibling is
                // still chunk-prefilling it holds a private copy — exactly
                // what the cache would do.
                let group = if grant > 0 || !resident { candidate.prefix_group } else { None };
                (group, grant)
            } else {
                (None, 0)
            };
            // Pages-wise, a founder's pool covers its whole prefix (it will
            // compute it); a joiner's coverage is exactly what it aliases.
            let pool_tokens = match (group, shared) {
                (None, _) => 0,
                (Some(_), 0) => candidate.prefix_len,
                (Some(_), grant) => grant,
            };
            let Some(handle) = budget.admit_shared(
                candidate.id,
                group,
                pool_tokens,
                candidate.prefill_len(),
                candidate.peak_len(),
            ) else {
                assert!(
                    !(self.running.is_empty() && self.wave.ids.is_empty()),
                    "request {:?} (peak {} tokens) can never fit the KV budget",
                    candidate.id,
                    candidate.peak_len()
                );
                break;
            };
            let mut req = self.pending.remove(idx).expect("policy index in bounds");
            req.state = RequestState::Running;
            req.shared_len = shared;
            // Whole-prompt prefill materializes at admission; chunked
            // prefill starts from the aliased prefix and catches up via
            // `prefill_chunks` ticks.
            let was_prefilled = req.prefilled;
            req.prefilled = match self.opts.chunk_tokens {
                None => req.prefill_len(),
                Some(_) => shared,
            };
            req.seq_len = req.prefilled;
            // `prefilled` moved forward: the owed-work counter shrinks by
            // exactly the tokens materialized (or aliased) at admission.
            self.outstanding = self
                .outstanding
                .checked_sub(req.prefilled - was_prefilled)
                .expect("outstanding-token counter underflow at admission");
            self.wave.ids.push(req.id);
            self.wave.prefill_lens.push(req.prefill_len());
            self.wave.shared_lens.push(shared);
            self.push_resident(req, handle);
        }
    }

    /// One chunked-prefill step: every running request still prefilling
    /// advances by at most `chunk_tokens` tokens and is reported as
    /// `(id, new_tokens, past_tokens)` — `past_tokens` being the context
    /// those new tokens attend over (aliased prefix + earlier chunks) —
    /// into `chunks`, cleared first.
    fn prefill_chunks(&mut self, chunk_tokens: usize) {
        self.chunks.clear();
        if self.prefilling == 0 {
            return; // pure-decode tick: no resident to walk for
        }
        let mut taken = 0usize;
        for r in &mut self.running {
            let remaining = r.prefill_remaining();
            if remaining > 0 {
                let take = remaining.min(chunk_tokens);
                self.chunks.push((r.id, take, r.prefilled));
                r.prefilled += take;
                r.seq_len = r.prefilled;
                taken += take;
                if take == remaining {
                    // Last chunk: the resident joins the decodable set.
                    self.prefilling = self
                        .prefilling
                        .checked_sub(1)
                        .expect("prefilling counter underflow in chunked prefill");
                    self.decode_tokens += r.seq_len;
                }
            }
        }
        self.outstanding = self
            .outstanding
            .checked_sub(taken)
            .expect("outstanding-token counter underflow in chunked prefill");
    }

    /// Charges `dt` of prefill work.
    fn charge_prefill(&mut self, dt: f64) {
        self.clock += dt;
        self.prefill_time += dt;
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
    /// victim's materialized state is wiped (KV gone; `generated` tokens
    /// are kept and re-owed honestly — re-admission recomputes prompt +
    /// generated, like recompute preemption), and the drained requests are
    /// returned in id order for the caller to requeue elsewhere. The
    /// second return is the materialized tokens lost to the crash.
    ///
    /// The scheduler itself survives (clock, finished list, statistics):
    /// a restarted replica resumes reporting where it left off.
    pub fn evict_all(&mut self, budget: &mut dyn KvBudget) -> (Vec<Request>, usize) {
        let mut victims: Vec<Request> = std::mem::take(&mut self.pending).into();
        victims.append(&mut self.running);
        self.handles.clear();
        self.prefilling = 0;
        self.decode_tokens = 0;
        let mut lost = 0usize;
        for req in &mut victims {
            match req.state {
                RequestState::Running | RequestState::Swapped => budget.release(req.id),
                _ => {}
            }
            // Wiping `prefilled` re-owes the work; queued victims had
            // nothing materialized, so they contribute zero.
            lost += req.prefilled;
            req.state = RequestState::Queued;
            req.seq_len = 0;
            req.prefilled = 0;
            req.shared_len = 0;
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

    /// Accounts one token of KV growth for every resident about to decode,
    /// preempting (policy-chosen victims) until the budget fits. Residents
    /// still in chunked prefill do not grow — their prompt footprint was
    /// reserved at admission. `preempted` is cleared and refilled with the
    /// recompute-preempted ids (swap victims are not listed: their KV state
    /// survives).
    ///
    /// One in-place pass in admission order; a refusal evicts a victim from
    /// the not-yet-grown suffix (see [`SchedulingPolicy::victim`]) and
    /// retries, so the cursor never moves backwards.
    ///
    /// # Panics
    /// Panics if a lone resident cannot grow — the pool is too small for
    /// even one request, which admission should have refused.
    fn make_room(&mut self, budget: &mut dyn KvBudget) {
        self.preempted.clear();
        let mut i = 0;
        while i < self.running.len() {
            // With nobody prefilling, the dense handle column is all the
            // pass reads.
            let decodable = self.prefilling == 0 || self.running[i].prefill_remaining() == 0;
            if !decodable || budget.grow(self.handles[i]) {
                i += 1;
                continue;
            }
            assert!(
                self.running.len() > 1,
                "KV budget cannot hold even one growing sequence (request {:?})",
                self.running[i].id
            );
            let last = self.running.len() - 1;
            // At or after the cursor (nobody already charged this tick), and
            // never the oldest resident: someone always finishes, so
            // preemption cannot livelock.
            let chosen = self.policy.victim(&self.running).filter(|&v| v <= last);
            let victim = chosen.unwrap_or(last).max(i).max(1);
            if self.opts.preemption == PreemptionMode::Swap {
                if let Some(pages) = budget.swap_out(self.running[victim].id) {
                    self.tick_swap_pages += pages;
                    self.swap_out_pages += pages;
                    self.swap_outs += 1;
                    let mut req = self.remove_resident(victim);
                    // KV state survives on the host tier: `seq_len` /
                    // `prefilled` are kept, so nothing is re-owed — the
                    // driver pays the page transfer, not recompute.
                    req.state = RequestState::Swapped;
                    self.enqueue(req);
                    continue;
                }
            }
            self.preempted.push(self.running[victim].id);
            self.preempt(victim, budget);
            // `victim == i` removed the refused resident itself: whoever
            // shifted into slot `i` is next. Otherwise retry `i`.
        }
    }

    /// Inserts `req` into `pending` at its `(ready_s, id)` slot — for an
    /// evicted resident that is its original place, so FCFS re-admits it
    /// first.
    fn enqueue(&mut self, req: Request) {
        let at = self.pending.partition_point(|r| (r.ready_s, r.id) <= (req.ready_s, req.id));
        self.pending.insert(at, req);
    }

    fn preempt(&mut self, idx: usize, budget: &mut dyn KvBudget) {
        let mut req = self.remove_resident(idx);
        budget.release(req.id);
        req.state = RequestState::Preempted;
        req.seq_len = 0;
        // Resetting `prefilled` re-owes the recompute work (prompt plus the
        // tokens generated so far): the counter grows by what was wiped.
        self.outstanding += req.prefilled;
        req.prefilled = 0;
        req.shared_len = 0;
        req.preemptions += 1;
        self.preemptions += 1;
        self.enqueue(req);
    }

    /// One decode step for the decodable part of the running batch: charges
    /// `dt`, advances every fully-prefilled resident by one token, stamps
    /// TTFTs, retires finished requests (releasing their budget) and lists
    /// their ids in `retired`, cleared first. Residents still in chunked
    /// prefill are untouched.
    fn decode_step(&mut self, dt: f64, budget: &mut dyn KvBudget) {
        assert!(self.running.len() > self.prefilling, "decode_step with no decodable resident");
        self.clock += dt;
        self.decode_time += dt;
        let clock = self.clock;
        self.retired.clear();
        let mut decoded = 0usize;
        let mut retired_tokens = 0usize;
        let mut retiring = false;
        for r in &mut self.running {
            if r.prefill_remaining() > 0 {
                continue;
            }
            r.seq_len += 1;
            r.generated += 1;
            // The decoded token is materialized context too: `prefilled`
            // tracks it so `prefill_remaining()` stays 0 while decoding.
            r.prefilled += 1;
            decoded += 1;
            if r.first_token_s.is_none() {
                r.first_token_s = Some(clock);
            }
            retiring |= r.generated == r.output_len;
        }
        if retiring {
            // Stable in-place compaction: residents before the first retiree
            // do not move, survivors keep their admission order, and the
            // retirees reach the budget, the sketch, `retired` and
            // `finished` in that same order. Deliberately a second pass
            // rather than fused into the increment loop above: fusing reads
            // better on a ~1,900-resident batch that retires someone every
            // tick, but measured +10% wall on a ~13-resident batch with
            // rare retirements, where the closure and the per-element
            // handle store cost more than the second pass saves.
            let handles = &mut self.handles;
            let (mut at, mut kept) = (0, 0);
            self.running.retain_mut(|req| {
                let i = at;
                at += 1;
                // Only a token decoded this tick can satisfy this (residents
                // never linger at their output length across ticks).
                if req.generated != req.output_len {
                    handles[kept] = handles[i];
                    kept += 1;
                    return true;
                }
                retired_tokens += req.seq_len;
                budget.release(req.id);
                // A retiring request owes nothing (its final token was just
                // counted), so only the sketch needs feeding here — with
                // the very float the exact path reads from `finished` later.
                let done = FinishedRequest::retire(req, clock);
                self.latency_sketch.insert(done.latency_s());
                self.retired.push(done.id);
                self.finished.push(done);
                false
            });
            handles.truncate(kept);
        }
        // Every decodable sequence grew by one token; the retired ones left
        // with everything they held.
        self.decode_tokens = (self.decode_tokens + decoded)
            .checked_sub(retired_tokens)
            .expect("decodable-token counter underflow at retirement");
        self.outstanding = self
            .outstanding
            .checked_sub(decoded)
            .expect("outstanding-token counter underflow in decode");
    }

    /// The streaming latency accumulator, fed once per retirement — what
    /// cluster aggregation merges (in replica order) instead of re-reading
    /// every finished request.
    pub fn latency_sketch(&self) -> &PercentileSketch {
        &self.latency_sketch
    }

    /// Timing statistics over the finished requests. At or below
    /// [`EXACT_STATS_MAX`] completions the percentiles come from the exact
    /// sorted buffer (byte-stable with every golden CSV); above it the
    /// O(n log n) sort is skipped and the streaming sketch is authoritative.
    /// The `sketch_*` fields always carry the sketch's view, so the two
    /// paths can be compared on any run.
    ///
    /// # Panics
    /// Panics if nothing has finished yet.
    pub fn stats(&self) -> SchedulerStats {
        assert!(!self.finished.is_empty(), "stats before any completion");
        debug_assert_eq!(
            self.latency_sketch.len() as usize,
            self.finished.len(),
            "latency sketch missed a retirement"
        );
        let n = self.finished.len() as f64;
        let ttft_sum: f64 = self.finished.iter().map(FinishedRequest::ttft_s).sum();
        let (mean_latency_s, max_latency_s, p50, p95, p99) =
            if self.finished.len() <= EXACT_STATS_MAX {
                let mut latencies: Vec<f64> =
                    self.finished.iter().map(FinishedRequest::latency_s).collect();
                latencies.sort_by(f64::total_cmp);
                (
                    latencies.iter().sum::<f64>() / n,
                    *latencies.last().unwrap(),
                    percentile(&latencies, 0.50),
                    percentile(&latencies, 0.95),
                    percentile(&latencies, 0.99),
                )
            } else {
                let sk = &self.latency_sketch;
                (sk.mean(), sk.max(), sk.quantile(0.50), sk.quantile(0.95), sk.quantile(0.99))
            };
        SchedulerStats {
            clock_s: self.clock,
            prefill_time_s: self.prefill_time,
            decode_time_s: self.decode_time,
            completed: self.finished.len(),
            generated_tokens: self.finished.iter().map(FinishedRequest::generated).sum(),
            mean_latency_s,
            max_latency_s,
            p50_latency_s: p50,
            p95_latency_s: p95,
            p99_latency_s: p99,
            mean_ttft_s: ttft_sum / n,
            preemptions: self.preemptions,
            swap_outs: self.swap_outs,
            swap_out_pages: self.swap_out_pages,
            swap_in_pages: self.swap_in_pages,
            swap_time_s: self.swap_time,
            sketch_p50_latency_s: self.latency_sketch.quantile(0.50),
            sketch_p99_latency_s: self.latency_sketch.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WorkloadSpec;

    /// Flat prices — `prefill` per admitted request or chunk, `decode` per
    /// step, swaps free — with `probe` shown the scheduler at every hook.
    struct Flat<P: FnMut(&Scheduler)> {
        prefill: f64,
        decode: f64,
        probe: P,
    }

    impl<P: FnMut(&Scheduler)> TickExecutor for Flat<P> {
        fn prefill_wave(&mut self, sched: &Scheduler, wave: &AdmittedWave) -> f64 {
            (self.probe)(sched);
            if sched.options().chunk_tokens.is_some() {
                return 0.0;
            }
            self.prefill * wave.ids.len() as f64
        }
        fn prefill_chunks(&mut self, sched: &Scheduler, chunks: &[(RequestId, usize, usize)]) -> f64 {
            (self.probe)(sched);
            self.prefill * chunks.len() as f64
        }
        fn swap(&mut self, _: &Scheduler, _: usize) -> f64 {
            0.0
        }
        fn decode(&mut self, sched: &Scheduler) -> f64 {
            (self.probe)(sched);
            self.decode
        }
        fn preempted(&mut self, sched: &Scheduler, _: &[RequestId]) {
            (self.probe)(sched);
        }
    }

    fn legacy(requests: Vec<Request>, batch_limit: usize, policy: Box<dyn SchedulingPolicy>) -> Scheduler {
        Scheduler::with_options(requests, batch_limit, policy, SchedOptions::default())
    }

    fn drive(
        mut sched: Scheduler,
        budget: &mut dyn KvBudget,
        prefill_cost: f64,
        decode_cost: f64,
    ) -> SchedulerStats {
        let mut guard = 0usize;
        let mut exec = Flat { prefill: prefill_cost, decode: decode_cost, probe: |_| {} };
        while !sched.is_done() {
            guard += 1;
            assert!(guard < 1_000_000, "scheduler failed to converge");
            sched.tick(budget, &mut exec);
        }
        sched.stats()
    }

    #[test]
    fn fcfs_completes_everything_in_order() {
        let reqs = WorkloadSpec::fixed(8, 4, 10).sample();
        let sched = legacy(reqs, 3, Box::new(Fcfs));
        let stats = drive(sched, &mut UnboundedBudget, 0.1, 0.01);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.generated_tokens, 40);
        assert!(stats.p50_latency_s <= stats.p95_latency_s);
        assert!(stats.p95_latency_s <= stats.p99_latency_s);
        assert!(stats.p99_latency_s <= stats.max_latency_s);
        assert!(stats.mean_ttft_s > 0.0 && stats.mean_ttft_s <= stats.mean_latency_s);
        assert_eq!(stats.preemptions, 0);
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
        let sjf = drive(sched, &mut UnboundedBudget, 0.1, 0.01);
        let sched = legacy(reqs, 1, Box::new(Fcfs));
        let fcfs = drive(sched, &mut UnboundedBudget, 0.1, 0.01);
        assert!(
            sjf.mean_latency_s < fcfs.mean_latency_s,
            "SJF mean {} should beat FCFS {}",
            sjf.mean_latency_s,
            fcfs.mean_latency_s
        );
    }

    #[test]
    fn page_budget_tracks_cache_arithmetic() {
        let mut b = PageBudget::new(4, 2, 8, Reservation::OnDemand);
        let id = RequestId(0);
        let h = b.admit(id, 5, 16).expect("fits"); // 2 pages × 2 layers
        assert_eq!(b.free_pages(), 4);
        for _ in 0..3 {
            assert!(b.grow(h)); // 6,7,8 tokens: still 2 pages
        }
        assert_eq!(b.free_pages(), 4);
        assert!(b.grow(h)); // 9 tokens: 3rd page on both layers
        assert_eq!(b.free_pages(), 2);
        b.release(id);
        assert_eq!(b.free_pages(), 8);
    }

    /// A parked entry of `pages` private pages per layer.
    fn parked_entry(id: u64, pages: usize) -> PageEntry {
        PageEntry {
            id: RequestId(id),
            tokens: pages * 4,
            reserved_per_layer: pages,
            group: None,
            covered_tokens: 0,
        }
    }

    fn host_budget(host_pages: usize) -> PageBudget {
        let mut b = PageBudget::new(4, 1, 8, Reservation::OnDemand);
        b.enable_host_tier(host_pages);
        b
    }

    #[test]
    fn park_unpark_round_trip_conserves_host_pages() {
        let mut b = host_budget(8);
        b.park(parked_entry(1, 3));
        b.assert_consistent();
        assert_eq!(b.host_used_pages(), 3);
        assert_eq!(b.host_free_pages(), Some(5));
        let back = b.unpark(RequestId(1)).expect("parked above");
        assert_eq!((back.id, back.tokens, back.reserved_per_layer), (RequestId(1), 12, 3));
        assert!(b.unpark(RequestId(1)).is_none(), "a second unpark is a no-op");
        b.assert_consistent();
        assert_eq!(b.host_used_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "host tier overflow")]
    fn park_past_capacity_fails_loudly() {
        host_budget(2).park(parked_entry(4, 3));
    }

    #[test]
    #[should_panic(expected = "swapped out twice")]
    fn double_park_fails_loudly() {
        let mut b = host_budget(8);
        b.park(parked_entry(5, 1));
        b.park(parked_entry(5, 1));
    }

    #[test]
    fn peak_reservation_never_fails_growth() {
        let mut b = PageBudget::new(4, 1, 4, Reservation::Peak);
        let id = RequestId(1);
        let h = b.admit(id, 1, 16).expect("fits"); // all 4 pages reserved up front
        assert!(b.admit(RequestId(2), 1, 4).is_none(), "pool exhausted by the peak hold");
        for _ in 0..15 {
            assert!(b.grow(h));
        }
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
        let stats = drive(sched, &mut budget, 0.1, 0.01);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.generated_tokens, 128);
        assert!(stats.preemptions > 0, "tight pool must force preemption");
        assert_eq!(budget.free_pages(), budget.total_pages(), "all pages returned");
    }

    #[test]
    fn page_budget_pools_shared_prefix_pages() {
        // Page 4 tokens, 2 layers, 32-token shared prefix = 8 pool pages
        // per layer → 16 pool pages total. Each member privately holds its
        // 6 suffix+output... (peak 40 - 32 covered = 8 tokens = 2 pages ×
        // 2 layers = 4 pages).
        let mut b = PageBudget::new(4, 2, 64, Reservation::Peak);
        assert!(b.admit_shared(RequestId(0), Some(7), 32, 36, 40).is_some());
        assert_eq!(b.free_pages(), 64 - 16 - 4, "pool + first private part");
        assert!(b.admit_shared(RequestId(1), Some(7), 32, 36, 40).is_some());
        assert_eq!(b.free_pages(), 64 - 16 - 8, "second member joins the pool free");
        // An unshared admission of the same shape pays full freight.
        assert!(b.admit_shared(RequestId(2), None, 0, 36, 40).is_some());
        assert_eq!(b.free_pages(), 64 - 16 - 8 - 20);
        // Pool pages outlive the first member and free with the last.
        b.release(RequestId(0));
        assert_eq!(b.free_pages(), 64 - 16 - 4 - 20);
        b.release(RequestId(1));
        assert_eq!(b.free_pages(), 64 - 20);
        b.release(RequestId(2));
        assert_eq!(b.free_pages(), 64);
        assert_eq!(b.peak_pages(), 16 + 8 + 20, "high-water of unique pages");
    }

    #[test]
    fn page_budget_partial_prefix_page_stays_private() {
        // A 5-token prefix over 4-token pages shares only the one full page;
        // the boundary page is private (the cache would COW it).
        let mut b = PageBudget::new(4, 1, 16, Reservation::OnDemand);
        assert!(b.admit_shared(RequestId(0), Some(1), 5, 8, 8).is_some());
        // Pool: 1 page; private: 8 - 4 covered = 4 tokens = 1 page.
        assert_eq!(b.free_pages(), 14);
        // Below one page of sharing, the group is ignored outright.
        assert!(b.admit_shared(RequestId(1), Some(2), 3, 8, 8).is_some());
        assert_eq!(b.free_pages(), 12);
        b.release(RequestId(0));
        b.release(RequestId(1));
        assert_eq!(b.free_pages(), 16);
    }

    #[test]
    fn shared_admission_grants_resident_prefixes() {
        // Two tenants (groups 0 and 1), prefix 8, suffix 4, output 4. With
        // sharing on, the wave's later same-group members alias the first's
        // prefix.
        let mk = |id: u64, group: u64| {
            crate::request::Request::new(crate::request::RequestId(id), 12, 4, 0.0)
                .with_prefix(group, 8)
        };
        let reqs = vec![mk(0, 0), mk(1, 0), mk(2, 1), mk(3, 0)];
        let mut sched = Scheduler::with_options(
            reqs.clone(),
            4,
            Box::new(Fcfs),
            SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() },
        );
        let mut exec = Flat { prefill: 0.1, decode: 0.01, probe: |_| {} };
        sched.tick(&mut UnboundedBudget, &mut exec);
        assert_eq!(sched.wave.prefill_lens, vec![12, 12, 12, 12]);
        assert_eq!(
            sched.wave.shared_lens,
            vec![0, 8, 0, 8],
            "group 0's prefix is aliased once resident; group 1 pays its own"
        );
        // Sharing off: no grants.
        let mut sched = legacy(reqs, 4, Box::new(Fcfs));
        sched.tick(&mut UnboundedBudget, &mut exec);
        assert_eq!(sched.wave.shared_lens, vec![0, 0, 0, 0]);
    }

    #[test]
    fn chunked_prefill_interleaves_and_completes() {
        // Prompts of 10 tokens, chunk 4: prefill takes ticks 1-3 (4+4+2)
        // while earlier-finished... then 5 decode ticks.
        let reqs = WorkloadSpec::fixed(10, 5, 3).sample();
        let mut sched = Scheduler::with_options(
            reqs,
            2,
            Box::new(Fcfs),
            SchedOptions { share_prefixes: false, chunk_tokens: Some(4), ..SchedOptions::default() },
        );
        struct Chunked;
        impl TickExecutor for Chunked {
            fn prefill_wave(&mut self, sched: &Scheduler, wave: &AdmittedWave) -> f64 {
                // Chunked admission materializes nothing up front.
                for (&id, &shared) in wave.ids.iter().zip(&wave.shared_lens) {
                    let r = sched.running().iter().find(|r| r.id == id).unwrap();
                    assert_eq!(r.prefilled, shared);
                }
                0.0
            }
            fn prefill_chunks(&mut self, _: &Scheduler, chunks: &[(RequestId, usize, usize)]) -> f64 {
                for &(_, new, past) in chunks {
                    assert!(new <= 4 && past + new <= 10);
                }
                0.1 * chunks.len() as f64
            }
            fn swap(&mut self, _: &Scheduler, _: usize) -> f64 {
                0.0
            }
            fn decode(&mut self, _: &Scheduler) -> f64 {
                0.01
            }
        }
        let mut guard = 0;
        while !sched.is_done() {
            guard += 1;
            assert!(guard < 10_000);
            sched.tick(&mut UnboundedBudget, &mut Chunked);
        }
        let stats = sched.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.generated_tokens, 15);
        assert!(stats.prefill_time_s > 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn percentile_single_sample_well_defined_for_all_q() {
        // The single-request edge case: every percentile of a one-element
        // sample is that element — p50 == p95 == p99 == max, no index
        // arithmetic at the array edge.
        for q in [0.001, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&[3.25], q), 3.25, "q = {}", q);
        }
        // Two samples: the nearest-rank split lands between them.
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.51), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.99), 2.0);
    }

    #[test]
    fn single_request_stats_have_degenerate_percentiles() {
        let reqs = WorkloadSpec::fixed(8, 4, 1).sample();
        let sched = legacy(reqs, 2, Box::new(Fcfs));
        let stats = drive(sched, &mut UnboundedBudget, 0.1, 0.01);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.p50_latency_s, stats.max_latency_s);
        assert_eq!(stats.p95_latency_s, stats.max_latency_s);
        assert_eq!(stats.p99_latency_s, stats.max_latency_s);
        assert_eq!(stats.mean_latency_s, stats.max_latency_s);
    }

    #[test]
    fn open_scheduler_with_submissions_matches_constructed() {
        // Submitting the same requests one by one to an open scheduler must
        // replay the constructed scheduler tick for tick — the identity the
        // 1-replica cluster equivalence rests on.
        let reqs = WorkloadSpec::mixed(12, 9)
            .with_arrivals(crate::request::ArrivalPattern::Uniform { rate_rps: 4.0 })
            .sample();
        let constructed = legacy(reqs.clone(), 3, Box::new(Fcfs));
        let mut open = Scheduler::open(3, Box::new(Fcfs), SchedOptions::default());
        assert!(open.is_done(), "an open scheduler starts drained");
        assert_eq!(open.outstanding_tokens(), 0);
        for r in reqs {
            open.submit(r);
        }
        assert!(!open.is_done());
        assert!(open.outstanding_tokens() > 0);
        let a = drive(constructed, &mut UnboundedBudget, 0.1, 0.01);
        let b = drive(open, &mut UnboundedBudget, 0.1, 0.01);
        assert_eq!(a, b);
    }

    #[test]
    fn outstanding_tokens_counts_owed_work() {
        let reqs = vec![crate::request::Request::new(crate::request::RequestId(0), 8, 4, 0.0)];
        let mut sched = legacy(reqs, 1, Box::new(Fcfs));
        assert_eq!(sched.outstanding_tokens(), 12);
        let mut owed_at_hooks = Vec::new();
        let probe = |s: &Scheduler| owed_at_hooks.push(s.outstanding_tokens());
        sched.tick(&mut UnboundedBudget, &mut Flat { prefill: 0.1, decode: 0.01, probe });
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
        let mut exec = Flat { prefill: 0.0, decode: 0.01, probe };
        while !sched.is_done() {
            guard += 1;
            assert!(guard < 100_000);
            sched.tick(&mut budget, &mut exec);
            assert_eq!(sched.outstanding_tokens(), sched.outstanding_tokens_scan());
        }
        assert!(sched.stats().preemptions > 0, "the churn path was not exercised");
        assert_eq!(sched.outstanding_tokens(), 0);
    }

    #[test]
    fn stats_sketch_fields_track_exact_percentiles() {
        let reqs = WorkloadSpec::mixed(64, 9)
            .with_arrivals(crate::request::ArrivalPattern::Poisson { rate_rps: 8.0 })
            .sample();
        let sched = legacy(reqs, 4, Box::new(Fcfs));
        let stats = drive(sched, &mut UnboundedBudget, 0.05, 0.01);
        // Below EXACT_STATS_MAX the exact path is authoritative; the sketch
        // must agree to within one bucket width (2.2%) from below.
        for (exact, sketch) in [
            (stats.p50_latency_s, stats.sketch_p50_latency_s),
            (stats.p99_latency_s, stats.sketch_p99_latency_s),
        ] {
            assert!(
                sketch <= exact && exact <= sketch * (1.0 + 1.0 / 32.0),
                "sketch {sketch} vs exact {exact}"
            );
        }
    }

    /// One record per completion is all a scheduler keeps; growth is a
    /// visible diff (README, "What a request costs in memory").
    #[test]
    fn finished_record_size_is_pinned() {
        assert_eq!(std::mem::size_of::<FinishedRequest>(), 48);
    }

    #[test]
    fn in_place_retirement_keeps_order_at_every_corner() {
        /// Flat prices; collects what the `retired` hook is told.
        #[derive(Default)]
        struct Recording(Vec<u64>);
        impl TickExecutor for Recording {
            fn prefill_wave(&mut self, _: &Scheduler, _: &AdmittedWave) -> f64 {
                0.0
            }
            fn prefill_chunks(&mut self, _: &Scheduler, _: &[(RequestId, usize, usize)]) -> f64 {
                0.1
            }
            fn swap(&mut self, _: &Scheduler, _: usize) -> f64 {
                unreachable!("the pool never runs dry")
            }
            fn decode(&mut self, _: &Scheduler) -> f64 {
                0.01
            }
            fn retired(&mut self, _: &Scheduler, ids: &[RequestId]) {
                self.0.extend(ids.iter().map(|id| id.0));
            }
        }
        // (input, output) per request, all admitted on tick 1 in id order,
        // and the (survivors, finished) ids expected after each leading tick.
        type Trace = &'static [(&'static [u64], &'static [u64])];
        let corners: [(&str, &[(usize, usize)], Option<usize>, Trace); 5] = [
            ("first retires", &[(4, 1), (4, 2), (4, 2)], None, &[(&[1, 2], &[0]), (&[], &[0, 1, 2])]),
            ("last retires", &[(4, 2), (4, 2), (4, 1)], None, &[(&[0, 1], &[2]), (&[], &[2, 0, 1])]),
            ("middle retires", &[(4, 3), (4, 1), (4, 3)], None, &[(&[0, 2], &[1]), (&[0, 2], &[1])]),
            ("all retire at once", &[(4, 1), (4, 1), (4, 1)], None, &[(&[], &[0, 1, 2])]),
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
            let mut sched = Scheduler::with_options(requests, 3, Box::new(Fcfs), opts);
            let mut budget = PageBudget::new(4, 1, 64, Reservation::OnDemand);
            let mut exec = Recording::default();
            let ids = |rs: &[Request]| rs.iter().map(|r| r.id.0).collect::<Vec<_>>();
            let mut ticks = 0usize;
            while !sched.is_done() {
                sched.tick(&mut budget, &mut exec);
                budget.assert_consistent();
                sched.assert_mirrors_ledger(&budget);
                let finished: Vec<u64> = sched.finished().iter().map(|r| r.id.0).collect();
                assert_eq!(exec.0, finished, "{corner}, tick {ticks}: retired hook vs finished");
                if let Some(&(survivors, done)) = trace.get(ticks) {
                    assert_eq!(ids(sched.running()), survivors, "{corner}, tick {ticks}: survivors");
                    assert_eq!(finished, done, "{corner}, tick {ticks}: finished order");
                }
                ticks += 1;
                assert!(ticks < 100, "{corner}: failed to converge");
            }
            assert!(ticks >= trace.len(), "{corner}: the trace outran the run");
            assert_eq!(sched.finished().len(), shapes.len(), "{corner}");
            for r in sched.finished() {
                assert_eq!(r.generated(), shapes[r.id.0 as usize].1, "{corner}: output of {:?}", r.id);
            }
            assert_eq!(budget.free_pages(), budget.total_pages(), "{corner}: pages returned");
        }
    }

    #[test]
    fn finished_record_carries_the_floats_reports_read() {
        use crate::request::Slo;
        let mut r = Request::new(RequestId(7), 8, 4, 1.0).with_slo(Slo::interactive(1.0, 4.0));
        r.first_token_s = Some(1.5);
        r.generated = 4;
        r.requeues = 1;
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
        let stats = drive(sched, &mut UnboundedBudget, 0.0, 0.1);
        assert_eq!(stats.completed, 3);
        // Last arrival at t=4s; the clock must have idled past it.
        assert!(stats.clock_s >= 4.0);
    }
}
