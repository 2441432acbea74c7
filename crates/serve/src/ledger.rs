//! The page ledger: [`PageBudget`] is [`crate::PagedKvCache`]'s page
//! arithmetic without the bytes — a fixed pool of fixed-size pages, one page
//! table per layer, refcounted prefix-sharing pools and a modeled host tier
//! for swap-style preemption. [`KvBudget`] is what the scheduler admits,
//! grows and preempts against; [`KvHandle`] is a resident's seat in it.

use crate::request::RequestId;

/// A resident's seat in its budget's ledger, handed out by admission and
/// swap-in and passed back to [`KvBudget::grow`] while the resident runs and
/// to [`KvBudget::release`] and [`KvBudget::swap_out`] when it leaves the
/// device — every per-resident ledger call indexes with it; the ledger
/// keeps no id map.
/// Distinct residents hold distinct handles, and the scheduler files each
/// resident's request at its handle's index. Valid until the request is
/// released, swapped out or evicted. Slots are reused afterwards, so a stale
/// handle may name another request's seat: the calls that take the id beside
/// the handle check that the seat still holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvHandle(pub(crate) usize);

/// Abstracts "is there KV memory for this?" so admission and growth can be
/// gated by a page pool — the simulated ledger ([`PageBudget`]) or one a
/// caller wraps around it.
pub trait KvBudget {
    /// Tokens that could still be cached before the pool runs out
    /// (page-granular approximation).
    fn free_tokens(&self) -> usize;

    /// Reserves what admitting a request needs: it starts at `start_tokens`
    /// (prompt + recomputed output) and may reach `peak_tokens`, and its
    /// first `shared_tokens` prompt tokens belong to prefix-sharing group
    /// `group` (`None, 0` for a private request). A budget that models page
    /// sharing charges those pages once per *group* (fully covered pages
    /// only — the partial boundary page is private, mirroring the
    /// copy-on-write duplicate in [`crate::PagedKvCache`]). Returns the
    /// resident's ledger handle, or `None` to refuse admission.
    fn admit(
        &mut self,
        id: RequestId,
        group: Option<u64>,
        shared_tokens: usize,
        start_tokens: usize,
        peak_tokens: usize,
    ) -> Option<KvHandle>;

    /// Brings the resident behind `handle` to `tokens` cached tokens
    /// (pool-covered prefix included) and returns its headroom: how many
    /// more tokens fit the pages it then holds. Tokens inside the pages it
    /// holds cost nothing; `tokens` one past them opens one page per layer,
    /// and `None` means the pool cannot (nothing was charged) and someone
    /// must be preempted. A caller may cache tokens in the headroom without
    /// telling the budget — the scheduler does, 15 tokens in 16, and calls
    /// only when a resident starts decoding and at each page boundary.
    ///
    /// # Panics
    /// Panics when `tokens` falls below the ledger's count or is more than
    /// one past the pages held.
    fn grow(&mut self, handle: KvHandle, tokens: usize) -> Option<usize>;

    /// Returns everything `id` holds to the pool: the resident entry seated
    /// at `handle`, or with `None` its swapped-out (parked) holdings, if
    /// any. Implementations must fail loudly when `handle`'s seat does not
    /// hold `id` — a handle kept past its request's release or swap-out.
    fn release(&mut self, id: RequestId, handle: Option<KvHandle>);

    /// Spills resident `id`'s *private* pages (its entry seated at
    /// `handle`, parked at `tokens` cached tokens, which its pages must
    /// hold) to a modeled host-memory tier, freeing them on device while
    /// keeping any shared-pool reference (shared prefix pages stay resident
    /// — siblings are reading them). Returns the device pages freed, or
    /// `None` when the budget has no host tier or the tier is full — the
    /// caller must fall back to recompute preemption. A seat that does not
    /// hold `id` fails loudly, as in [`KvBudget::release`].
    fn swap_out(&mut self, id: RequestId, handle: KvHandle, tokens: usize) -> Option<usize>;

    /// Brings a swapped-out request's pages back on device. Returns its
    /// new ledger handle and the device pages re-acquired, or `None` when
    /// the device pool cannot hold them yet. Implementations must fail
    /// loudly (panic, not `None`) when `id` was never swapped out or its
    /// holdings were released in the meantime — that is ledger corruption,
    /// not back-pressure.
    fn swap_in(&mut self, id: RequestId) -> Option<(KvHandle, usize)>;
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
    /// The request this entry belongs to — what a handle-indexed call
    /// checks its seat against, and the key it is parked under.
    id: RequestId,
    /// Tokens in the entry's *private* region (beyond any shared pool
    /// pages), as of the last call that told the ledger — a scheduler
    /// growing through its headroom tells it only when the resident starts
    /// decoding, at page boundaries and when a swap-out parks the entry.
    tokens: usize,
    reserved_per_layer: usize,
    /// Prefix-sharing pool this entry holds a reference on.
    group: Option<u64>,
    /// Prompt tokens served by that pool's pages instead of private ones.
    covered_tokens: usize,
}

impl PageEntry {
    /// The private count of `tokens` cached tokens, checked to reach the
    /// pool-covered prefix and the ledger's count.
    fn private_of(&self, tokens: usize) -> usize {
        let private = tokens.checked_sub(self.covered_tokens);
        let private = private.expect("a count below the pool-covered prefix");
        assert!(private >= self.tokens, "a count below the ledger's");
        private
    }
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
    /// Resident entries in a dense slab indexed by [`KvHandle`]: every
    /// per-resident call — grow, release, swap-out — is an index,
    /// not a map walk. Vacated slots are `None` and reused through
    /// `free_slots`.
    slab: Vec<Option<PageEntry>>,
    free_slots: Vec<usize>,
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
            self.entries().count() + self.free_slots.len(),
            self.slab.len(),
            "ledger slab drift: live + free slots != slab"
        );
        // No id map keeps a request to one seat, so the audit does.
        let mut resident = std::collections::BTreeSet::new();
        for e in self.entries() {
            assert!(resident.insert(e.id), "request {:?} is seated twice in the ledger", e.id);
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
            assert!(!resident.contains(id), "request {:?} is both resident and swapped out", id);
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

    /// Seats `entry` in a free slab slot, reusing vacated ones first.
    fn seat(&mut self, entry: PageEntry) -> KvHandle {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        self.slab[slot] = Some(entry);
        KvHandle(slot)
    }

    /// The entry seated at `handle`, checked to belong to `id`.
    ///
    /// # Panics
    /// Panics, naming `id`, when the seat is vacant or holds another
    /// request — `handle` outlived `id`'s release or swap-out.
    fn seated(&self, id: RequestId, handle: KvHandle) -> &PageEntry {
        match self.slab.get(handle.0) {
            Some(Some(e)) if e.id == id => e,
            seat => panic!(
                "request {:?}: stale ledger handle (seat {} holds {:?})",
                id,
                handle.0,
                seat.and_then(|e| e.map(|e| e.id))
            ),
        }
    }

    /// Vacates `id`'s seat at `handle`, returning its entry.
    fn unseat(&mut self, id: RequestId, handle: KvHandle) -> PageEntry {
        let entry = *self.seated(id, handle);
        self.slab[handle.0] = None;
        self.free_slots.push(handle.0);
        entry
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

    /// The ledger half of [`crate::scheduler::Scheduler::assert_mirrors_ledger`].
    /// `residents` are the scheduler's residents as `(handle, id, tokens,
    /// headroom)`: the tokens the request holds (`prefill_len()`) and, once
    /// it decodes, the headroom the scheduler keeps for it. Each handle's
    /// seat holds its id; that entry's capacity (the tokens its pages and
    /// pool-covered prefix hold) less the headroom equals `tokens` — or,
    /// while the request prefills, covers them; and the ledger's own count
    /// never runs ahead of `tokens` (it lags by the headroom spent since the
    /// last page boundary). `swapped` are the swapped-out requests as `(id,
    /// tokens)`, each parked footprint equal to its `tokens` exactly. The
    /// ledger holds no entry beyond these.
    ///
    /// # Panics
    /// Panics on any disagreement.
    pub(crate) fn assert_mirrors(
        &self,
        residents: impl Iterator<Item = (KvHandle, RequestId, usize, Option<usize>)>,
        swapped: impl Iterator<Item = (RequestId, usize)>,
    ) {
        let mut seated = 0usize;
        for (handle, id, tokens, headroom) in residents {
            let e = self.seated(id, handle);
            let footprint = e.tokens + e.covered_tokens;
            let capacity = e.reserved_per_layer * self.page_tokens + e.covered_tokens;
            match headroom {
                Some(room) => assert_eq!(
                    capacity,
                    tokens + room,
                    "request {id:?}: ledger capacity − headroom != sequence length"
                ),
                None => assert!(tokens <= capacity, "request {id:?}: prefills past its pages"),
            }
            assert!(
                footprint <= tokens,
                "request {id:?}: the ledger counts {footprint} tokens, the sequence holds {tokens}"
            );
            seated += 1;
        }
        assert_eq!(self.slab.len() - self.free_slots.len(), seated, "ledger holds a stranger");
        let mut parked = 0usize;
        for (id, tokens) in swapped {
            let e = self.parked.get(&id).expect("swapped request has no host-tier holdings");
            let footprint = e.tokens + e.covered_tokens;
            assert_eq!(footprint, tokens, "request {id:?}: parked footprint != sequence length");
            parked += 1;
        }
        assert_eq!(parked, self.parked.len(), "host tier holds a stranger");
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

    /// High-water mark of unique pages in use — the true-residency number
    /// `prefix_sweep` reports.
    pub fn peak_pages(&self) -> usize {
        self.peak_used
    }
}

impl KvBudget for PageBudget {
    fn free_tokens(&self) -> usize {
        self.free_pages / self.layers * self.page_tokens
    }

    fn admit(
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

    fn grow(&mut self, handle: KvHandle, tokens: usize) -> Option<usize> {
        let mut entry = self.slab[handle.0].expect("grow() on a vacant ledger slot");
        let private = entry.private_of(tokens);
        let held = entry.reserved_per_layer * self.page_tokens;
        if private > held {
            // One token past a full entry opens exactly one page per layer.
            assert_eq!(private, held + 1, "grew more than one token past the pages held");
            if self.layers > self.free_pages {
                return None;
            }
            self.take(self.layers);
            entry.reserved_per_layer += 1;
        }
        entry.tokens = private;
        self.slab[handle.0] = Some(entry);
        let capacity = entry.reserved_per_layer * self.page_tokens;
        Some(capacity.checked_sub(private).expect("the pages hold the tokens"))
    }

    fn release(&mut self, id: RequestId, handle: Option<KvHandle>) {
        if let Some(handle) = handle {
            let entry = self.unseat(id, handle);
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

    fn swap_out(&mut self, id: RequestId, handle: KvHandle, tokens: usize) -> Option<usize> {
        let pages = self.seated(id, handle).reserved_per_layer * self.layers;
        // No tier attached → the caller falls back to recompute.
        if pages > self.host_free_pages()? {
            return None;
        }
        let mut entry = self.unseat(id, handle);
        entry.tokens = entry.private_of(tokens);
        assert!(entry.tokens <= entry.reserved_per_layer * self.page_tokens, "parked past the pages held");
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_budget_tracks_cache_arithmetic() {
        let mut b = PageBudget::new(4, 2, 8, Reservation::OnDemand);
        let id = RequestId(0);
        let h = b.admit(id, None, 0, 5, 16).expect("fits"); // 2 pages × 2 layers
        assert_eq!(b.free_pages(), 4);
        for (tokens, room) in [(6, 2), (7, 1), (8, 0)] {
            assert_eq!(b.grow(h, tokens), Some(room)); // still 2 pages
        }
        assert_eq!(b.free_pages(), 4);
        assert_eq!(b.grow(h, 9), Some(3)); // 3rd page on both layers
        assert_eq!(b.free_pages(), 2);
        b.release(id, Some(h));
        assert_eq!(b.free_pages(), 8);
    }

    #[test]
    fn grow_inside_the_held_pages_charges_nothing_and_returns_the_headroom() {
        // An 8-token prefix over 4-token pages is two pool pages; the 10-token
        // start leaves 2 private tokens in one private page per layer.
        let mut b = PageBudget::new(4, 2, 16, Reservation::OnDemand);
        let h = b.admit(RequestId(0), Some(3), 8, 10, 32).expect("fits");
        let used = b.used_pages();
        assert_eq!(b.grow(h, 10), Some(2), "the count it holds: headroom only");
        assert_eq!(b.grow(h, 12), Some(0), "a jump to the end of the held page");
        assert_eq!((b.used_pages(), b.peak_pages()), (used, used), "nothing charged");
        b.assert_consistent();
    }

    #[test]
    fn grow_one_token_past_the_held_pages_opens_one_page_per_layer() {
        let mut b = PageBudget::new(4, 3, 12, Reservation::OnDemand);
        let h = b.admit(RequestId(0), None, 0, 4, 16).expect("fits"); // 1 page × 3 layers
        assert_eq!(b.grow(h, 5), Some(3));
        assert_eq!(b.free_pages(), 12 - 2 * 3);
        b.assert_consistent();
    }

    #[test]
    fn a_dry_pool_refuses_the_next_page_and_charges_nothing() {
        // Five pages over two layers: the second page per layer needs two.
        let mut b = PageBudget::new(4, 2, 5, Reservation::OnDemand);
        let h = b.admit(RequestId(0), None, 0, 3, 16).expect("fits"); // 1 page × 2 layers
        b.admit(RequestId(1), None, 0, 3, 16).expect("fits");
        assert_eq!(b.grow(h, 4), Some(0), "a jump to the last token of the held page");
        assert_eq!(b.grow(h, 5), None, "the next page would need 2 pages, 1 is free");
        assert_eq!((b.free_pages(), b.peak_pages()), (1, 4), "nothing charged");
        b.assert_consistent();
        assert_eq!(b.grow(h, 4), Some(0), "the refusal left the count where it was");
    }

    #[test]
    #[should_panic(expected = "more than one token past the pages held")]
    fn grow_two_tokens_past_the_held_pages_fails_loudly() {
        let mut b = PageBudget::new(4, 1, 8, Reservation::OnDemand);
        let h = b.admit(RequestId(0), None, 0, 4, 16).expect("fits");
        b.grow(h, 6);
    }

    #[test]
    #[should_panic(expected = "a count below the ledger's")]
    fn grow_below_the_ledgers_count_fails_loudly() {
        let mut b = PageBudget::new(4, 1, 8, Reservation::OnDemand);
        let h = b.admit(RequestId(0), None, 0, 6, 16).expect("fits");
        b.grow(h, 5);
    }

    #[test]
    fn swap_out_parks_the_entry_at_the_tokens_it_is_given() {
        let mut b = host_budget(8);
        let id = RequestId(0);
        let h = b.admit(id, None, 0, 5, 16).expect("fits"); // 2 pages
        assert_eq!(b.swap_out(id, h, 7), Some(2));
        b.assert_mirrors(std::iter::empty(), [(id, 7)].into_iter());
        let (h, pages) = b.swap_in(id).expect("the device has room");
        assert_eq!((pages, b.grow(h, 7)), (2, Some(1)), "back at 7 tokens");
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
        let h = b.admit(id, None, 0, 1, 16).expect("fits"); // all 4 pages reserved up front
        assert!(b.admit(RequestId(2), None, 0, 1, 4).is_none(), "pool exhausted by the peak hold");
        for (tokens, room) in (2..=16).zip((0..=14).rev()) {
            assert_eq!(b.grow(h, tokens), Some(room));
        }
    }

    #[test]
    fn page_budget_pools_shared_prefix_pages() {
        // Page 4 tokens, 2 layers, 32-token shared prefix = 8 pool pages
        // per layer → 16 pool pages total. Each member privately holds its
        // 6 suffix+output... (peak 40 - 32 covered = 8 tokens = 2 pages ×
        // 2 layers = 4 pages).
        let mut b = PageBudget::new(4, 2, 64, Reservation::Peak);
        let h0 = b.admit(RequestId(0), Some(7), 32, 36, 40);
        assert_eq!(b.free_pages(), 64 - 16 - 4, "pool + first private part");
        let h1 = b.admit(RequestId(1), Some(7), 32, 36, 40);
        assert_eq!(b.free_pages(), 64 - 16 - 8, "second member joins the pool free");
        // An unshared admission of the same shape pays full freight.
        let h2 = b.admit(RequestId(2), None, 0, 36, 40);
        assert_eq!(b.free_pages(), 64 - 16 - 8 - 20);
        // Pool pages outlive the first member and free with the last.
        b.release(RequestId(0), Some(h0.expect("fits")));
        assert_eq!(b.free_pages(), 64 - 16 - 4 - 20);
        b.release(RequestId(1), Some(h1.expect("fits")));
        assert_eq!(b.free_pages(), 64 - 20);
        b.release(RequestId(2), Some(h2.expect("fits")));
        assert_eq!(b.free_pages(), 64);
        assert_eq!(b.peak_pages(), 16 + 8 + 20, "high-water of unique pages");
    }

    #[test]
    fn page_budget_partial_prefix_page_stays_private() {
        // A 5-token prefix over 4-token pages shares only the one full page;
        // the boundary page is private (the cache would COW it).
        let mut b = PageBudget::new(4, 1, 16, Reservation::OnDemand);
        let h0 = b.admit(RequestId(0), Some(1), 5, 8, 8);
        // Pool: 1 page; private: 8 - 4 covered = 4 tokens = 1 page.
        assert_eq!(b.free_pages(), 14);
        // Below one page of sharing, the group is ignored outright.
        let h1 = b.admit(RequestId(1), Some(2), 3, 8, 8);
        assert_eq!(b.free_pages(), 12);
        b.release(RequestId(0), Some(h0.expect("fits")));
        b.release(RequestId(1), Some(h1.expect("fits")));
        assert_eq!(b.free_pages(), 16);
    }
}
