//! Paged KV cache with inline per-head dynamic quantization parameters
//! (§5.1) and copy-on-write prefix sharing.
//!
//! Layout of one page (per layer, per sequence): `page_tokens` slots, each
//! holding the quantized K and V features of every KV head followed by that
//! token's per-head FP16 scale/zero pairs — "we store FP16 scaling factors
//! and zero points for each head immediately following the quantized KV
//! features in each KV cache page, allowing these values to be updated
//! on-the-fly."
//!
//! The allocator is a free-list over fixed-size pages (the vLLM idea); a
//! sequence owns one page table per layer. Pages carry refcounts so that
//! [`PagedKvCache::fork`] can alias a parent's prefix pages into a child
//! sequence without copying: thousands of requests sharing a system prompt
//! store its KV exactly once. The first [`PagedKvCache::append_token`] that
//! would write into a shared page copies it first (copy-on-write), so
//! divergence is private while the common prefix stays deduplicated.
//! [`PagedKvCache::used_pages`] / [`PagedKvCache::free_pages`] count
//! *unique* pages, which is what memory-aware admission must gate on.

use qserve_core::kv_quant::{quantize_head_into, KvPrecision, QuantizedHeadToken};
use qserve_kernels::attention::{HeadTile, KvLane, LaneCodes};
use qserve_quant::params::QParams;
use qserve_tensor::fp16::{f16_bits_to_f32, f32_to_f16_bits};
use std::collections::HashMap;

/// Identifies a serving sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SequenceId(pub u64);

/// Static geometry of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvCacheConfig {
    /// Tokens per page (vLLM-style block size).
    pub page_tokens: usize,
    /// KV heads per layer.
    pub kv_heads: usize,
    /// Features per head.
    pub head_dim: usize,
    /// Transformer layers (each gets its own page table).
    pub layers: usize,
    /// Element precision.
    pub precision: KvPrecision,
}

impl KvCacheConfig {
    /// Bytes for one token's K+V features of one head (codes only).
    fn head_code_bytes(&self) -> usize {
        2 * self.precision.lane_bytes(self.head_dim)
    }

    /// Bytes for one token slot in a page: codes for all heads + per-head
    /// FP16 scale/zero for K and V (when quantized).
    pub fn token_slot_bytes(&self) -> usize {
        let codes = self.kv_heads * self.head_code_bytes();
        let params = if self.precision == KvPrecision::Fp16 {
            0
        } else {
            self.kv_heads * 2 * 4 // (scale f16 + zero f16) × (K, V)
        };
        codes + params
    }

    /// Total bytes of one page.
    pub fn page_bytes(&self) -> usize {
        self.page_tokens * self.token_slot_bytes()
    }
}

/// One page: raw storage plus the count of filled token slots — on device,
/// parked in host memory, or inside an exported image, a page is this.
#[derive(Debug, Clone, PartialEq, Eq)]
struct KvPage {
    data: Vec<u8>,
    filled: usize,
}

/// Where one page-table slot of a swapped-out sequence lives while the
/// sequence is off-device.
#[derive(Debug, Clone)]
enum SwappedSlot {
    /// A shared page that stayed resident: siblings keep reading it, and
    /// the swapped sequence keeps its refcount so it cannot be recycled
    /// underneath it.
    Resident(usize),
    /// A private page whose bytes moved to host memory.
    Host(KvPage),
}

/// Everything the cache knows about one sequence — the one record a
/// lifecycle call looks up, and the one a swap moves between tiers. `S` is
/// what a page-table slot holds: a device page index while the sequence is
/// resident, a [`SwappedSlot`] while it is off-device (exactly what swap-in
/// needs to rebuild the device-side page table byte for byte).
#[derive(Debug, Clone)]
struct SeqRecord<S> {
    /// Page table: per layer, ordered slots.
    table: Vec<Vec<S>>,
    /// Per-layer token counts: a forked sequence may own fewer tokens of
    /// its shared tail page than the page's `filled` says.
    layer_lens: Vec<usize>,
}

impl<S> SeqRecord<S> {
    /// Cached token count: layer 0's (callers append the same token to
    /// every layer).
    fn len(&self) -> usize {
        self.layer_lens.first().copied().unwrap_or(0)
    }
}

/// The device page pool: a free list over fixed-size pages, and the
/// refcounts that let several sequences alias one page.
#[derive(Debug)]
struct PagePool {
    pages: Vec<KvPage>,
    free_list: Vec<usize>,
    /// Sequences referencing each page (0 = free).
    refcounts: Vec<u32>,
    /// High-water mark of unique allocated pages over the cache's life.
    peak_used: usize,
}

impl PagePool {
    /// *Unique* pages currently allocated.
    fn used(&self) -> usize {
        self.pages
            .len()
            .checked_sub(self.free_list.len())
            .expect("free list grew past the page pool")
    }

    /// Pops a free page, resetting its state and tracking the high-water
    /// mark of unique residency.
    fn alloc(&mut self) -> Result<usize, KvCacheError> {
        let page = self.free_list.pop().ok_or(KvCacheError::OutOfPages)?;
        self.pages[page].filled = 0;
        self.refcounts[page] = 1;
        self.peak_used = self.peak_used.max(self.used());
        Ok(page)
    }

    /// Pops a free page and restores `image` onto it verbatim. Callers
    /// reserve first: running dry here is a bug, not back-pressure.
    fn alloc_restored(&mut self, image: &KvPage) -> usize {
        let page = self.alloc().expect("reserved above");
        self.pages[page].data.copy_from_slice(&image.data);
        self.pages[page].filled = image.filled;
        page
    }

    /// Drops one reference to `page`, recycling it when nobody is left.
    /// The underflow check is a hard assert: a double-unref in a release
    /// build would otherwise wrap the refcount to `u32::MAX` and leak the
    /// page (plus every sequence that later aliased it) forever.
    fn unref(&mut self, page: usize) {
        self.refcounts[page] = self.refcounts[page]
            .checked_sub(1)
            .expect("page refcount underflow: unref of a free page");
        if self.refcounts[page] == 0 {
            self.pages[page].filled = 0;
            self.free_list.push(page);
        }
    }
}

/// A paged, quantized KV cache for many sequences.
///
/// # Example
/// ```
/// use qserve_serve::kv_cache::{KvCacheConfig, PagedKvCache, SequenceId};
/// use qserve_core::kv_quant::KvPrecision;
///
/// let cfg = KvCacheConfig {
///     page_tokens: 16, kv_heads: 2, head_dim: 8, layers: 1,
///     precision: KvPrecision::Int4,
/// };
/// let mut cache = PagedKvCache::new(cfg, 64);
/// let seq = SequenceId(0);
/// cache.register(seq).unwrap();
/// let k = vec![0.5; 16];
/// let v = vec![-0.25; 16];
/// cache.append_token(seq, 0, &k, &v).unwrap();
/// assert_eq!(cache.seq_len(seq), 1);
/// ```
#[derive(Debug)]
pub struct PagedKvCache {
    config: KvCacheConfig,
    pool: PagePool,
    /// Resident sequences.
    seqs: HashMap<SequenceId, SeqRecord<usize>>,
    /// Swapped-out sequences (never iterated — keyed access only, so
    /// determinism is safe).
    host: HashMap<SequenceId, SeqRecord<SwappedSlot>>,
}

/// Errors from cache operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCacheError {
    /// No free pages left.
    OutOfPages,
    /// The sequence id is not registered.
    UnknownSequence(SequenceId),
    /// The sequence id is already registered.
    DuplicateSequence(SequenceId),
    /// A fork asked for a longer prefix than the parent has cached.
    PrefixTooLong {
        /// Tokens the parent holds.
        have: usize,
        /// Tokens the fork requested.
        want: usize,
    },
    /// The W4A8KV4 kernels were pointed at a cache that holds no codes and
    /// no per-head parameters (an FP16 cache).
    NotQuantized(KvPrecision),
    /// An image was exported from a cache of a different geometry: its
    /// pages do not fit this cache's page tables or slot layout.
    GeometryMismatch {
        /// Geometry of the cache the image was exported from.
        image: KvCacheConfig,
        /// Geometry of the cache asked to import it.
        cache: KvCacheConfig,
    },
}

impl std::fmt::Display for KvCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvCacheError::OutOfPages => write!(f, "KV cache out of pages"),
            KvCacheError::UnknownSequence(s) => write!(f, "unknown sequence {:?}", s),
            KvCacheError::DuplicateSequence(s) => write!(f, "duplicate sequence {:?}", s),
            KvCacheError::PrefixTooLong { have, want } => {
                write!(f, "fork prefix of {} tokens exceeds parent's {}", want, have)
            }
            KvCacheError::NotQuantized(precision) => {
                write!(f, "a {:?} KV cache holds no quantized lanes for the KV4/KV8 kernels to read", precision)
            }
            KvCacheError::GeometryMismatch { image, cache } => {
                write!(f, "a KV image exported from {:?} does not fit a cache of {:?}", image, cache)
            }
        }
    }
}

impl std::error::Error for KvCacheError {}

impl PagedKvCache {
    /// Creates a cache with a fixed page pool.
    pub fn new(config: KvCacheConfig, total_pages: usize) -> Self {
        let pages = (0..total_pages)
            .map(|_| KvPage {
                data: vec![0u8; config.page_bytes()],
                filled: 0,
            })
            .collect();
        Self {
            config,
            pool: PagePool {
                pages,
                free_list: (0..total_pages).rev().collect(),
                refcounts: vec![0; total_pages],
                peak_used: 0,
            },
            seqs: HashMap::new(),
            host: HashMap::new(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &KvCacheConfig {
        &self.config
    }

    /// Free pages remaining.
    pub fn free_pages(&self) -> usize {
        self.pool.free_list.len()
    }

    /// *Unique* pages currently allocated to sequences — shared prefix pages
    /// count once no matter how many sequences alias them.
    pub fn used_pages(&self) -> usize {
        self.pool.used()
    }

    /// High-water mark of [`PagedKvCache::used_pages`] over the cache's life
    /// — the true-residency number the `prefix_sweep` experiment reports.
    pub fn peak_used_pages(&self) -> usize {
        self.pool.peak_used
    }

    /// Sequences referencing `page` (0 = free).
    pub fn page_refcount(&self, page: usize) -> u32 {
        self.pool.refcounts[page]
    }

    /// The ordered page indices a sequence holds for one layer
    /// (tests/debug: shared pages show up in several sequences' tables).
    ///
    /// # Panics
    /// Panics on an unknown sequence or out-of-range layer.
    pub fn layer_pages(&self, seq: SequenceId, layer: usize) -> &[usize] {
        &self.seqs[&seq].table[layer]
    }

    /// Registers a new sequence.
    ///
    /// # Errors
    /// [`KvCacheError::DuplicateSequence`] if already present.
    pub fn register(&mut self, seq: SequenceId) -> Result<(), KvCacheError> {
        if self.seqs.contains_key(&seq) {
            return Err(KvCacheError::DuplicateSequence(seq));
        }
        let layers = self.config.layers;
        self.seqs.insert(seq, SeqRecord { table: vec![Vec::new(); layers], layer_lens: vec![0; layers] });
        Ok(())
    }

    /// Registers `child` as a fork of `parent`, aliasing every page that
    /// holds the first `prefix_tokens` tokens (all layers). No bytes are
    /// copied: the aliased pages' refcounts rise, and the child's first
    /// divergent [`PagedKvCache::append_token`] copies only the partial tail
    /// page it writes into (copy-on-write). The parent may finish and
    /// release first — refcounts keep the shared pages alive.
    ///
    /// # Errors
    /// [`KvCacheError::UnknownSequence`] for the parent,
    /// [`KvCacheError::DuplicateSequence`] for the child, and
    /// [`KvCacheError::PrefixTooLong`] when the parent has cached fewer than
    /// `prefix_tokens` tokens.
    pub fn fork(
        &mut self,
        parent: SequenceId,
        child: SequenceId,
        prefix_tokens: usize,
    ) -> Result<(), KvCacheError> {
        let source = self.seqs.get(&parent).ok_or(KvCacheError::UnknownSequence(parent))?;
        if self.seqs.contains_key(&child) {
            return Err(KvCacheError::DuplicateSequence(child));
        }
        let have = source.len();
        if prefix_tokens > have {
            return Err(KvCacheError::PrefixTooLong { have, want: prefix_tokens });
        }
        let shared_pages = self.pages_for_tokens(prefix_tokens);
        let table: Vec<Vec<usize>> = source
            .table
            .iter()
            .map(|layer| layer[..shared_pages.min(layer.len())].to_vec())
            .collect();
        for &page in table.iter().flatten() {
            self.pool.refcounts[page] += 1;
        }
        let layer_lens = vec![prefix_tokens; self.config.layers];
        self.seqs.insert(child, SeqRecord { table, layer_lens });
        Ok(())
    }

    /// Releases a sequence: every page it references drops one refcount, and
    /// pages nobody else shares return to the free list.
    ///
    /// # Errors
    /// [`KvCacheError::UnknownSequence`] if not registered.
    pub fn release(&mut self, seq: SequenceId) -> Result<(), KvCacheError> {
        if let Some(parked) = self.host.remove(&seq) {
            // Releasing a swapped-out sequence: drop its host bytes and the
            // refcounts it still holds on resident shared pages.
            for slot in parked.table.into_iter().flatten() {
                if let SwappedSlot::Resident(page) = slot {
                    self.pool.unref(page);
                }
            }
            return Ok(());
        }
        let record = self.seqs.remove(&seq).ok_or(KvCacheError::UnknownSequence(seq))?;
        for page in record.table.into_iter().flatten() {
            self.pool.unref(page);
        }
        Ok(())
    }

    /// Cached token count of a sequence (0 if unknown).
    pub fn seq_len(&self, seq: SequenceId) -> usize {
        self.seqs.get(&seq).map_or(0, SeqRecord::len)
    }

    /// Pages a sequence of `tokens` cached tokens needs per layer.
    fn pages_for_tokens(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.config.page_tokens)
    }

    /// Appends one token's K/V features for one layer, quantizing on the
    /// fly and writing codes + per-head params into the page.
    ///
    /// `k`/`v` are the full-width rows (`kv_heads × head_dim`). The sequence
    /// length counter advances only on layer 0 (callers append the same
    /// token to every layer). Writing into a page another sequence still
    /// shares copies it first (copy-on-write), so a fork's divergence never
    /// corrupts its siblings' prefix.
    ///
    /// # Errors
    /// [`KvCacheError::UnknownSequence`] or [`KvCacheError::OutOfPages`].
    ///
    /// # Panics
    /// Panics if feature lengths disagree with the geometry.
    pub fn append_token(
        &mut self,
        seq: SequenceId,
        layer: usize,
        k: &[f32],
        v: &[f32],
    ) -> Result<(), KvCacheError> {
        let width = self.config.kv_heads * self.config.head_dim;
        assert_eq!(k.len(), width, "K width mismatch");
        assert_eq!(v.len(), width, "V width mismatch");
        assert!(layer < self.config.layers, "layer out of range");
        let Self { config, pool, seqs, .. } = self;
        let record = seqs.get_mut(&seq).ok_or(KvCacheError::UnknownSequence(seq))?;
        // This sequence's write position in this layer — distinct from the
        // tail page's `filled`, which a longer-prefix sharer may have set.
        let tokens = record.layer_lens[layer];
        let slot = tokens % config.page_tokens;
        let table = &mut record.table[layer];
        let page_idx = if slot == 0 && table.len() * config.page_tokens <= tokens {
            // Tail full (or table empty): start a fresh private page.
            let page = pool.alloc()?;
            table.push(page);
            page
        } else {
            let tail_idx = tokens / config.page_tokens;
            let page = table[tail_idx];
            if pool.refcounts[page] > 1 {
                // Copy-on-write: duplicate the shared prefix bytes we own,
                // then diverge privately.
                let copy = pool.alloc()?;
                let (src_data, src_filled) = {
                    let src = &pool.pages[page];
                    (src.data.clone(), slot.min(src.filled))
                };
                pool.pages[copy].data = src_data;
                pool.pages[copy].filled = src_filled;
                table[tail_idx] = copy;
                pool.unref(page);
                copy
            } else {
                page
            }
        };
        let slot_bytes = config.token_slot_bytes();
        let precision = config.precision;
        let head_dim = config.head_dim;
        let lane_bytes = precision.lane_bytes(head_dim);

        // Slot layout: K codes of every head, V codes of every head, then
        // the parameter block — per-head (scale, zero) for K, then for V.
        let mut cursor = slot * slot_bytes;
        let mut params_cursor = cursor + config.kv_heads * config.head_code_bytes();
        let page = &mut pool.pages[page_idx];
        for half in [k, v] {
            for head in half.chunks(head_dim) {
                if precision == KvPrecision::Fp16 {
                    for &x in head {
                        let bits = f32_to_f16_bits(x);
                        page.data[cursor..cursor + 2].copy_from_slice(&bits.to_le_bytes());
                        cursor += 2;
                    }
                } else {
                    // One dynamic quantization per head, straight into the
                    // slot: its codes and its (scale, zero) come from the
                    // same token.
                    let params =
                        quantize_head_into(head, precision, &mut page.data[cursor..cursor + lane_bytes]);
                    cursor += lane_bytes;
                    let s = f32_to_f16_bits(params.scale);
                    let z = f32_to_f16_bits(params.zero as f32);
                    page.data[params_cursor..params_cursor + 2].copy_from_slice(&s.to_le_bytes());
                    page.data[params_cursor + 2..params_cursor + 4]
                        .copy_from_slice(&z.to_le_bytes());
                    params_cursor += 4;
                }
            }
        }
        page.filled = slot + 1;
        record.layer_lens[layer] += 1;
        Ok(())
    }

    /// `Ok` when the cache holds what the quantized kernels read — codes and
    /// per-head `(scale, zero)` — i.e. it is not an FP16 cache.
    ///
    /// # Errors
    /// [`KvCacheError::NotQuantized`].
    pub(crate) fn require_quantized(&self) -> Result<(), KvCacheError> {
        match self.config.precision {
            KvPrecision::Fp16 => Err(KvCacheError::NotQuantized(KvPrecision::Fp16)),
            KvPrecision::Int8 | KvPrecision::Int4 => Ok(()),
        }
    }

    /// A borrowed view of one `(sequence, layer, KV head)`: its cached
    /// tokens where they lie in the pages, for the attention kernel to
    /// dequantize in one pass.
    ///
    /// # Errors
    /// [`KvCacheError::UnknownSequence`]; [`KvCacheError::NotQuantized`] on
    /// an FP16 cache, whose slots hold features, not lanes.
    ///
    /// # Panics
    /// Panics if `layer` or `head` is out of range.
    pub fn head_view(
        &self,
        seq: SequenceId,
        layer: usize,
        head: usize,
    ) -> Result<PagedHeadView<'_>, KvCacheError> {
        self.require_quantized()?;
        let record = self.seqs.get(&seq).ok_or(KvCacheError::UnknownSequence(seq))?;
        let cfg = &self.config;
        assert!(head < cfg.kv_heads, "head out of range");
        let lane_bytes = cfg.precision.lane_bytes(cfg.head_dim);
        // Slot layout (see `append_token`): lane `l` of a slot is K head `l`
        // for `l < kv_heads`, V head `l − kv_heads` after; its codes sit at
        // `l · lane_bytes`, its (scale, zero) in the block after all codes.
        let lane = |half: usize| {
            let l = half * cfg.kv_heads + head;
            (l * lane_bytes, 2 * cfg.kv_heads * lane_bytes + 4 * l)
        };
        Ok(PagedHeadView {
            pages: &self.pool.pages,
            table: &record.table[layer],
            own_len: record.layer_lens[layer],
            head_dim: cfg.head_dim,
            nibbles: cfg.precision == KvPrecision::Int4,
            slot_bytes: cfg.token_slot_bytes(),
            lane_bytes,
            lanes: [lane(0), lane(1)],
        })
    }

    /// Reads back one head's quantized K and V streams (`layer`, `head`),
    /// materialising what [`PagedKvCache::head_view`] walks.
    ///
    /// # Errors
    /// [`KvCacheError::UnknownSequence`], [`KvCacheError::NotQuantized`].
    pub fn read_head(
        &self,
        seq: SequenceId,
        layer: usize,
        head: usize,
    ) -> Result<(Vec<QuantizedHeadToken>, Vec<QuantizedHeadToken>), KvCacheError> {
        let view = self.head_view(seq, layer, head)?;
        let head_dim = self.config.head_dim;
        let materialise = |lane: KvLane<'_>| QuantizedHeadToken {
            codes: lane.codes.unpack(head_dim),
            params: QParams { scale: lane.scale, zero: i32::from(lane.zero) },
        };
        Ok((view.keys().map(materialise).collect(), view.values().map(materialise).collect()))
    }

    /// Swaps `seq` out to host memory: every *private* page (refcount 1)
    /// copies its bytes off-device and frees the device page; shared prefix
    /// pages stay resident — siblings keep reading them, and this sequence
    /// keeps its reference so they cannot be recycled underneath it.
    /// Returns the number of device pages freed (what crossed the link).
    ///
    /// # Errors
    /// [`KvCacheError::UnknownSequence`] when `seq` is not resident
    /// (unregistered, or already swapped out).
    pub fn swap_out(&mut self, seq: SequenceId) -> Result<usize, KvCacheError> {
        let SeqRecord { table, layer_lens } =
            self.seqs.remove(&seq).ok_or(KvCacheError::UnknownSequence(seq))?;
        let mut moved = 0usize;
        let mut park = |page: usize| {
            if self.pool.refcounts[page] == 1 {
                moved += 1;
                let image = self.pool.pages[page].clone();
                self.pool.unref(page);
                SwappedSlot::Host(image)
            } else {
                SwappedSlot::Resident(page)
            }
        };
        let table = table.into_iter().map(|layer| layer.into_iter().map(&mut park).collect()).collect();
        self.host.insert(seq, SeqRecord { table, layer_lens });
        Ok(moved)
    }

    /// Swaps `seq` back onto the device: re-allocates one page per host
    /// slot, restores its bytes verbatim, and re-links the resident shared
    /// pages — after which every read of `seq` is byte-identical to before
    /// the swap. Returns the number of pages that crossed the link back.
    ///
    /// On [`KvCacheError::OutOfPages`] nothing moves: the sequence stays
    /// swapped out, both tiers untouched, and the caller may retry after
    /// freeing device pages.
    ///
    /// # Errors
    /// [`KvCacheError::UnknownSequence`] when `seq` has no host image (it
    /// was never swapped out, or was released in the meantime);
    /// [`KvCacheError::OutOfPages`] when the device pool cannot hold its
    /// private pages.
    pub fn swap_in(&mut self, seq: SequenceId) -> Result<usize, KvCacheError> {
        let needed: usize = self
            .host
            .get(&seq)
            .ok_or(KvCacheError::UnknownSequence(seq))?
            .table
            .iter()
            .flatten()
            .filter(|s| matches!(s, SwappedSlot::Host(_)))
            .count();
        if needed > self.pool.free_list.len() {
            return Err(KvCacheError::OutOfPages);
        }
        let SeqRecord { table, layer_lens } = self.host.remove(&seq).expect("checked above");
        let mut restore = |slot: SwappedSlot| match slot {
            SwappedSlot::Resident(page) => page,
            SwappedSlot::Host(image) => self.pool.alloc_restored(&image),
        };
        let table = table.into_iter().map(|layer| layer.into_iter().map(&mut restore).collect()).collect();
        self.seqs.insert(seq, SeqRecord { table, layer_lens });
        Ok(needed)
    }

    /// Exports the pages holding the first `prefix_tokens` tokens of `seq`
    /// (all layers) as a portable byte image — the payload of a
    /// cross-replica prefix migration. Read-only: the source sequence, its
    /// pages and every refcount are untouched, so exporting conserves both
    /// ledgers by construction.
    ///
    /// # Errors
    /// [`KvCacheError::UnknownSequence`] when `seq` is not resident;
    /// [`KvCacheError::PrefixTooLong`] when it holds fewer than
    /// `prefix_tokens` tokens.
    pub fn export_pages(
        &self,
        seq: SequenceId,
        prefix_tokens: usize,
    ) -> Result<KvPageExport, KvCacheError> {
        let record = self.seqs.get(&seq).ok_or(KvCacheError::UnknownSequence(seq))?;
        let have = record.len();
        if prefix_tokens > have {
            return Err(KvCacheError::PrefixTooLong { have, want: prefix_tokens });
        }
        let shared_pages = self.pages_for_tokens(prefix_tokens);
        let layers = record
            .table
            .iter()
            .map(|layer| {
                // The tail page may be filled past the exported prefix by
                // the exporting sequence's own suffix; the importer's token
                // count caps its reads, same as a fork's.
                layer[..shared_pages.min(layer.len())]
                    .iter()
                    .map(|&page| self.pool.pages[page].clone())
                    .collect()
            })
            .collect();
        Ok(KvPageExport { config: self.config, tokens: prefix_tokens, layers })
    }

    /// Imports an exported prefix image as the new sequence `seq`: one
    /// fresh device page per exported page, bytes restored verbatim, so
    /// every subsequent read of the first `image.tokens()` tokens — and of
    /// any fork taken off `seq` — is byte-identical to the source replica's.
    /// Returns the device pages allocated (what crossed the link). On any
    /// error nothing is allocated or registered.
    ///
    /// # Errors
    /// [`KvCacheError::GeometryMismatch`] when the image was exported from a
    /// cache of another geometry; [`KvCacheError::DuplicateSequence`] when
    /// `seq` already exists; [`KvCacheError::OutOfPages`] when the pool
    /// cannot hold the image.
    pub fn import_pages(
        &mut self,
        seq: SequenceId,
        image: &KvPageExport,
    ) -> Result<usize, KvCacheError> {
        if image.config != self.config {
            return Err(KvCacheError::GeometryMismatch { image: image.config, cache: self.config });
        }
        if self.seqs.contains_key(&seq) || self.host.contains_key(&seq) {
            return Err(KvCacheError::DuplicateSequence(seq));
        }
        let needed = image.pages();
        if needed > self.pool.free_list.len() {
            return Err(KvCacheError::OutOfPages);
        }
        let table = image
            .layers
            .iter()
            .map(|layer| layer.iter().map(|page| self.pool.alloc_restored(page)).collect())
            .collect();
        let layer_lens = vec![image.tokens; self.config.layers];
        self.seqs.insert(seq, SeqRecord { table, layer_lens });
        Ok(needed)
    }
}

/// A portable, self-contained image of one sequence prefix's KV pages —
/// what [`PagedKvCache::export_pages`] produces and
/// [`PagedKvCache::import_pages`] restores on another replica's cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvPageExport {
    /// Geometry of the exporting cache — what the page bytes mean.
    config: KvCacheConfig,
    tokens: usize,
    layers: Vec<Vec<KvPage>>,
}

impl KvPageExport {
    /// Tokens of prefix the image covers.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Total device pages the image restores to (summed over layers).
    pub fn pages(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// Total payload bytes a transfer link must move.
    pub fn bytes(&self) -> usize {
        self.layers
            .iter()
            .flatten()
            .map(|p| p.data.len())
            .sum()
    }
}

/// One `(sequence, layer, KV head)` of a [`PagedKvCache`], borrowed: the
/// page table, the pages it points into, the sequence's own token count and
/// the head's byte offsets inside a token slot, derived once. The page is
/// the unit of the walk: [`PagedHeadView::fill`] (and `keys` / `values` /
/// `len` on the same walk) visits each page's own slots in order and hands
/// out each token's codes *as stored* (KV4 nibbles stay packed) with its
/// `(scale, zero)` decoded from the slot's parameter block — no copy, no
/// allocation.
#[derive(Debug, Clone, Copy)]
// lint: allow(unreferenced-pub) -- return type of the public `PagedKvCache::head_view`; `attention_exec` calls its methods
pub struct PagedHeadView<'a> {
    pages: &'a [KvPage],
    table: &'a [usize],
    /// This sequence's own token count in this layer: a shared tail page may
    /// be filled further by the sequence it was forked from, and those
    /// slots are not this sequence's to read.
    own_len: usize,
    head_dim: usize,
    /// Two codes per byte (KV4) rather than one (KV8).
    nibbles: bool,
    slot_bytes: usize,
    lane_bytes: usize,
    /// `(codes offset, parameter offset)` within a slot, for K then V.
    lanes: [(usize, usize); 2],
}

impl<'a> PagedHeadView<'a> {
    /// Tokens a walk yields.
    pub fn len(&self) -> usize {
        self.page_slots().map(|slots| slots.len() / self.slot_bytes).sum()
    }

    /// Whether the walk is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached keys, oldest first.
    pub fn keys(&self) -> impl Iterator<Item = KvLane<'a>> + 'a {
        self.walk(0)
    }

    /// The cached values, oldest first.
    pub fn values(&self) -> impl Iterator<Item = KvLane<'a>> + 'a {
        self.walk(1)
    }

    /// Dequantizes the head's whole cache into `tile`, one pass over the
    /// pages: two counted loops, pages in table order and this sequence's
    /// own slots in page order. Returns the number of tokens the tile now
    /// holds ([`PagedHeadView::len`], computed once).
    pub fn fill(&self, tile: &mut HeadTile) -> usize {
        let len = self.len();
        tile.reset(self.head_dim, len);
        for slots in self.page_slots() {
            for slot in slots.chunks_exact(self.slot_bytes) {
                tile.push(self.lane(slot, 0), self.lane(slot, 1));
            }
        }
        len
    }

    /// The page-granular walk: for each page of the table, the bytes of the
    /// slots that are this sequence's own — all of a private page's filled
    /// slots, a shared tail page's only up to the sequence's own length.
    fn page_slots(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        let (pages, slot_bytes) = (self.pages, self.slot_bytes);
        let mut remaining = self.own_len;
        self.table.iter().map(move |&page| {
            let page = &pages[page];
            let own = page.filled.min(remaining);
            remaining = remaining.saturating_sub(page.filled);
            &page.data[..own * slot_bytes]
        })
    }

    /// The K (`half` 0) or V (`half` 1) lane of one token slot.
    #[inline]
    fn lane(&self, slot: &'a [u8], half: usize) -> KvLane<'a> {
        let (codes_at, params_at) = self.lanes[half];
        let codes = &slot[codes_at..codes_at + self.lane_bytes];
        let f16_at = |at: usize| f16_bits_to_f32(u16::from_le_bytes([slot[at], slot[at + 1]]));
        KvLane {
            codes: if self.nibbles { LaneCodes::Nibbles(codes) } else { LaneCodes::Bytes(codes) },
            scale: f16_at(params_at),
            zero: f16_at(params_at + 2) as u8,
        }
    }

    /// K or V lanes in cache order, on the page walk.
    fn walk(&self, half: usize) -> impl Iterator<Item = KvLane<'a>> + 'a {
        let view = *self;
        self.page_slots()
            .flat_map(move |slots| slots.chunks_exact(view.slot_bytes).map(move |slot| view.lane(slot, half)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserve_core::kv_quant::{dequantize_head, quantize_head};
    use qserve_tensor::rng::TensorRng;

    fn cfg(precision: KvPrecision) -> KvCacheConfig {
        KvCacheConfig {
            page_tokens: 4,
            kv_heads: 2,
            head_dim: 8,
            layers: 2,
            precision,
        }
    }

    #[test]
    fn register_release_round_trip() {
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 16);
        let s = SequenceId(1);
        c.register(s).unwrap();
        assert_eq!(c.register(s), Err(KvCacheError::DuplicateSequence(s)));
        c.release(s).unwrap();
        assert_eq!(c.release(s), Err(KvCacheError::UnknownSequence(s)));
        assert_eq!(c.free_pages(), 16);
    }

    #[test]
    fn append_and_read_back_within_quant_error() {
        let mut rng = TensorRng::seed(1);
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 32);
        let s = SequenceId(7);
        c.register(s).unwrap();
        let mut originals = Vec::new();
        for _ in 0..10 {
            let k: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            let v: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            for layer in 0..2 {
                c.append_token(s, layer, &k, &v).unwrap();
            }
            originals.push((k, v));
        }
        assert_eq!(c.seq_len(s), 10);
        let (keys, values) = c.read_head(s, 0, 1).unwrap();
        assert_eq!(keys.len(), 10);
        for (t, (k_orig, v_orig)) in originals.iter().enumerate() {
            let k_back = dequantize_head(&keys[t]);
            let v_back = dequantize_head(&values[t]);
            for (a, b) in k_orig[8..16].iter().zip(&k_back) {
                // One quantization step + fp16 param rounding.
                assert!((a - b).abs() <= keys[t].params.scale * 1.5, "{} vs {}", a, b);
            }
            for (a, b) in v_orig[8..16].iter().zip(&v_back) {
                assert!((a - b).abs() <= values[t].params.scale * 1.5);
            }
        }
    }

    #[test]
    fn kv8_read_back_tighter_than_kv4() {
        let mut rng = TensorRng::seed(2);
        let feats: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
        let mut err = [0.0f32; 2];
        for (i, p) in [KvPrecision::Int8, KvPrecision::Int4].iter().enumerate() {
            let mut c = PagedKvCache::new(cfg(*p), 8);
            let s = SequenceId(0);
            c.register(s).unwrap();
            c.append_token(s, 0, &feats, &feats).unwrap();
            let (keys, _) = c.read_head(s, 0, 0).unwrap();
            let back = dequantize_head(&keys[0]);
            err[i] = feats[..8]
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
        }
        assert!(err[0] < err[1]);
    }

    #[test]
    fn pages_allocated_lazily_per_layer() {
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 32);
        let s = SequenceId(3);
        c.register(s).unwrap();
        assert_eq!(c.used_pages(), 0);
        let k = vec![0.0f32; 16];
        for layer in 0..2 {
            c.append_token(s, layer, &k, &k).unwrap();
        }
        assert_eq!(c.used_pages(), 2); // one page per layer
        // 4 tokens per page: three more appends stay in the same pages.
        for _ in 0..3 {
            for layer in 0..2 {
                c.append_token(s, layer, &k, &k).unwrap();
            }
        }
        assert_eq!(c.used_pages(), 2);
        for layer in 0..2 {
            c.append_token(s, layer, &k, &k).unwrap();
        }
        assert_eq!(c.used_pages(), 4);
    }

    #[test]
    fn out_of_pages_reported() {
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 2);
        let s = SequenceId(4);
        c.register(s).unwrap();
        let k = vec![0.0f32; 16];
        // 2 pages = 2 layers × 1 page; the 5th token needs page 3.
        for _ in 0..4 {
            for layer in 0..2 {
                c.append_token(s, layer, &k, &k).unwrap();
            }
        }
        let r = c.append_token(s, 0, &k, &k);
        assert_eq!(r, Err(KvCacheError::OutOfPages));
    }

    #[test]
    fn release_returns_pages_for_reuse() {
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 4);
        let k = vec![0.0f32; 16];
        for round in 0..5 {
            let s = SequenceId(round);
            c.register(s).unwrap();
            for _ in 0..8 {
                for layer in 0..2 {
                    c.append_token(s, layer, &k, &k).unwrap();
                }
            }
            assert_eq!(c.free_pages(), 0);
            c.release(s).unwrap();
            assert_eq!(c.free_pages(), 4);
        }
    }

    #[test]
    fn released_pages_recycled_with_conservation_invariant() {
        // Regression: after `release`, pages must return to the free list
        // and be reusable by a brand-new sequence, with
        // `used + free == total` holding at every step of the lifecycle.
        let total = 4;
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), total);
        let conserve = |c: &PagedKvCache| {
            assert_eq!(c.used_pages() + c.free_pages(), total, "page conservation broken");
        };
        let k = vec![0.25f32; 16];
        let a = SequenceId(100);
        c.register(a).unwrap();
        conserve(&c);
        // Fill the whole pool: 8 tokens × 2 layers = 4 pages of 4 tokens.
        for _ in 0..8 {
            for layer in 0..2 {
                c.append_token(a, layer, &k, &k).unwrap();
                conserve(&c);
            }
        }
        assert_eq!(c.free_pages(), 0);
        assert_eq!(c.append_token(a, 0, &k, &k), Err(KvCacheError::OutOfPages));
        conserve(&c);
        c.release(a).unwrap();
        conserve(&c);
        assert_eq!(c.free_pages(), total);
        // A new sequence must be able to claim every recycled page; with the
        // pool this small, success proves the exact same pages came back.
        let b = SequenceId(200);
        c.register(b).unwrap();
        for _ in 0..8 {
            for layer in 0..2 {
                c.append_token(b, layer, &k, &k).unwrap();
                conserve(&c);
            }
        }
        assert_eq!(c.used_pages(), total);
        assert_eq!(c.seq_len(b), 8);
        c.release(b).unwrap();
        conserve(&c);
        assert_eq!(c.free_pages(), total);
    }

    #[test]
    fn per_head_params_stored_independently() {
        // Head 0 huge, head 1 small: stored scales must differ.
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 8);
        let s = SequenceId(0);
        c.register(s).unwrap();
        let mut k = vec![0.1f32; 16];
        for item in k.iter_mut().take(8) {
            *item = 50.0;
        }
        c.append_token(s, 0, &k, &k).unwrap();
        let (k0, _) = c.read_head(s, 0, 0).unwrap();
        let (k1, _) = c.read_head(s, 0, 1).unwrap();
        assert!(k0[0].params.scale > k1[0].params.scale * 10.0);
    }

    #[test]
    fn fork_aliases_prefix_pages_without_allocating() {
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 32);
        let (parent, child) = (SequenceId(0), SequenceId(1));
        c.register(parent).unwrap();
        let mut rng = TensorRng::seed(3);
        // 10 tokens: 3 pages per layer, the last one partially filled.
        for _ in 0..10 {
            let k: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            for layer in 0..2 {
                c.append_token(parent, layer, &k, &k).unwrap();
            }
        }
        let used_before = c.used_pages();
        c.fork(parent, child, 10).unwrap();
        assert_eq!(c.used_pages(), used_before, "fork must not allocate");
        assert_eq!(c.seq_len(child), 10);
        assert_eq!(c.layer_pages(child, 0), c.layer_pages(parent, 0));
        for &p in c.layer_pages(child, 0) {
            assert_eq!(c.page_refcount(p), 2);
        }
        // The forked view reads back exactly the parent's prefix.
        let (pk, pv) = c.read_head(parent, 1, 0).unwrap();
        let (ck, cv) = c.read_head(child, 1, 0).unwrap();
        assert_eq!((pk, pv), (ck, cv));
    }

    #[test]
    fn fork_partial_prefix_caps_reads() {
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 32);
        let (parent, child) = (SequenceId(0), SequenceId(1));
        c.register(parent).unwrap();
        let mut rng = TensorRng::seed(4);
        for _ in 0..7 {
            let k: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            c.append_token(parent, 0, &k, &k).unwrap();
        }
        c.fork(parent, child, 5).unwrap();
        let (pk, _) = c.read_head(parent, 0, 0).unwrap();
        let (ck, _) = c.read_head(child, 0, 0).unwrap();
        assert_eq!(ck.len(), 5, "child sees only its prefix");
        assert_eq!(ck[..], pk[..5]);
    }

    #[test]
    fn divergent_append_copies_on_write() {
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 32);
        let (parent, child) = (SequenceId(0), SequenceId(1));
        c.register(parent).unwrap();
        let a = vec![0.5f32; 16];
        let b = vec![-2.0f32; 16];
        // 6 tokens in layer 0: pages [P0 full, P1 half].
        for _ in 0..6 {
            c.append_token(parent, 0, &a, &a).unwrap();
        }
        c.fork(parent, child, 6).unwrap();
        let shared_tail = c.layer_pages(parent, 0)[1];
        assert_eq!(c.page_refcount(shared_tail), 2);
        let used_before = c.used_pages();
        // Child diverges: its 7th token must land in a private copy.
        c.append_token(child, 0, &b, &b).unwrap();
        assert_eq!(c.used_pages(), used_before + 1, "COW copies exactly one page");
        let child_tail = c.layer_pages(child, 0)[1];
        assert_ne!(child_tail, shared_tail);
        assert_eq!(c.page_refcount(shared_tail), 1);
        assert_eq!(c.page_refcount(child_tail), 1);
        // Parent unchanged; child = shared prefix + its own token.
        let (pk, _) = c.read_head(parent, 0, 0).unwrap();
        let (ck, _) = c.read_head(child, 0, 0).unwrap();
        assert_eq!(pk.len(), 6);
        assert_eq!(ck.len(), 7);
        assert_eq!(ck[..6], pk[..]);
        assert_ne!(ck[6].codes, pk[5].codes);
        // Parent's own appends now stay private too (refcount is back to 1).
        c.append_token(parent, 0, &a, &a).unwrap();
        assert_eq!(c.layer_pages(parent, 0)[1], shared_tail);
    }

    #[test]
    fn fork_survives_parent_release() {
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 16);
        let (parent, child) = (SequenceId(0), SequenceId(1));
        c.register(parent).unwrap();
        let a = vec![1.0f32; 16];
        for _ in 0..4 {
            for layer in 0..2 {
                c.append_token(parent, layer, &a, &a).unwrap();
            }
        }
        c.fork(parent, child, 4).unwrap();
        c.release(parent).unwrap();
        // The shared pages survive via the child's refs.
        assert_eq!(c.used_pages(), 2);
        let (ck, _) = c.read_head(child, 0, 0).unwrap();
        assert_eq!(ck.len(), 4);
        c.release(child).unwrap();
        assert_eq!(c.free_pages(), 16);
    }

    #[test]
    fn fork_errors() {
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 8);
        let s = SequenceId(0);
        c.register(s).unwrap();
        let a = vec![1.0f32; 16];
        c.append_token(s, 0, &a, &a).unwrap();
        assert_eq!(
            c.fork(SequenceId(9), SequenceId(1), 0),
            Err(KvCacheError::UnknownSequence(SequenceId(9)))
        );
        assert_eq!(c.fork(s, s, 0), Err(KvCacheError::DuplicateSequence(s)));
        assert_eq!(
            c.fork(s, SequenceId(1), 2),
            Err(KvCacheError::PrefixTooLong { have: 1, want: 2 })
        );
    }

    #[test]
    fn peak_used_pages_tracks_high_water() {
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 16);
        assert_eq!(c.peak_used_pages(), 0);
        let s = SequenceId(0);
        c.register(s).unwrap();
        let a = vec![1.0f32; 16];
        for _ in 0..8 {
            for layer in 0..2 {
                c.append_token(s, layer, &a, &a).unwrap();
            }
        }
        assert_eq!(c.peak_used_pages(), 4);
        c.release(s).unwrap();
        assert_eq!(c.used_pages(), 0);
        assert_eq!(c.peak_used_pages(), 4, "high-water survives release");
    }

    #[test]
    fn page_bytes_layout_sizes() {
        let c4 = cfg(KvPrecision::Int4);
        // codes: 2 heads × 2×(8×4/8) = 2×8 = 16; params: 2 heads × 8 = 16.
        assert_eq!(c4.token_slot_bytes(), 16 + 16);
        let c8 = cfg(KvPrecision::Int8);
        assert_eq!(c8.token_slot_bytes(), 32 + 16);
        let cf = cfg(KvPrecision::Fp16);
        assert_eq!(cf.token_slot_bytes(), 64);
    }

    #[test]
    fn swap_round_trip_restores_reads_byte_identical() {
        let mut rng = TensorRng::seed(11);
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 32);
        let s = SequenceId(1);
        c.register(s).unwrap();
        for _ in 0..10 {
            let k: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            let v: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            for layer in 0..2 {
                c.append_token(s, layer, &k, &v).unwrap();
            }
        }
        let before: Vec<_> = (0..2)
            .flat_map(|layer| (0..2).map(move |head| (layer, head)))
            .map(|(layer, head)| c.read_head(s, layer, head).unwrap())
            .collect();
        let used_before = c.used_pages();
        let out = c.swap_out(s).unwrap();
        assert_eq!(out, used_before, "all pages were private; all must move");
        assert_eq!(c.used_pages(), 0, "device side fully freed");
        assert!(c.host.contains_key(&s));
        assert_eq!(
            c.read_head(s, 0, 0),
            Err(KvCacheError::UnknownSequence(s)),
            "a swapped-out sequence is not readable on device"
        );
        let back = c.swap_in(s).unwrap();
        assert_eq!(back, out, "every page that left comes back");
        assert_eq!(c.used_pages(), used_before);
        assert_eq!(c.seq_len(s), 10);
        let after: Vec<_> = (0..2)
            .flat_map(|layer| (0..2).map(move |head| (layer, head)))
            .map(|(layer, head)| c.read_head(s, layer, head).unwrap())
            .collect();
        assert_eq!(before, after, "swap round trip must be byte-identical");
    }

    #[test]
    fn swap_leaves_shared_prefix_pages_resident_for_siblings() {
        let mut rng = TensorRng::seed(13);
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int8), 64);
        let parent = SequenceId(1);
        let child = SequenceId(2);
        c.register(parent).unwrap();
        // 8 tokens = 2 full pages per layer, then fork the whole prefix.
        for _ in 0..8 {
            let k: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            let v: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            for layer in 0..2 {
                c.append_token(parent, layer, &k, &v).unwrap();
            }
        }
        c.fork(parent, child, 8).unwrap();
        // Child diverges: its tail pages go private via COW.
        for _ in 0..2 {
            let k: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            for layer in 0..2 {
                c.append_token(child, layer, &k, &k).unwrap();
            }
        }
        let parent_read = c.read_head(parent, 0, 0).unwrap();
        let used_before = c.used_pages();
        // Swap the child out: only its private divergence pages move; the
        // 4 shared prefix pages stay resident and keep both refcounts.
        let moved = c.swap_out(child).unwrap();
        assert_eq!(moved, 2, "only the private COW tail pages cross the link");
        assert_eq!(c.used_pages(), used_before - 2);
        for layer in 0..2 {
            for &page in c.layer_pages(parent, layer) {
                assert_eq!(c.page_refcount(page), 2, "shared pages keep the swapped ref");
            }
        }
        assert_eq!(
            c.read_head(parent, 0, 0).unwrap(),
            parent_read,
            "the resident sibling is untouched"
        );
        let back = c.swap_in(child).unwrap();
        assert_eq!(back, 2);
        assert_eq!(c.used_pages(), used_before);
        assert_eq!(c.seq_len(child), 10);
        // Full cleanup: every page returns to the pool.
        c.release(parent).unwrap();
        c.release(child).unwrap();
        assert_eq!(c.used_pages(), 0);
    }

    #[test]
    fn swap_in_without_room_fails_cleanly_and_retries() {
        let mut rng = TensorRng::seed(17);
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 4);
        let a = SequenceId(1);
        let b = SequenceId(2);
        c.register(a).unwrap();
        for _ in 0..4 {
            let k: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            for layer in 0..2 {
                c.append_token(a, layer, &k, &k).unwrap();
            }
        }
        assert_eq!(c.swap_out(a).unwrap(), 2);
        // Another sequence grows into the whole pool (8 tokens = 2 pages
        // per layer = all 4 pages), leaving no room to swap back in.
        c.register(b).unwrap();
        for _ in 0..8 {
            let k: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            for layer in 0..2 {
                c.append_token(b, layer, &k, &k).unwrap();
            }
        }
        assert_eq!(c.swap_in(a), Err(KvCacheError::OutOfPages));
        assert!(c.host.contains_key(&a), "a failed swap-in leaves the image parked");
        c.release(b).unwrap();
        assert_eq!(c.swap_in(a).unwrap(), 2, "retry succeeds once room frees");
        assert_eq!(c.seq_len(a), 4);
    }

    #[test]
    fn releasing_a_swapped_sequence_drops_its_host_image() {
        let mut rng = TensorRng::seed(19);
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 16);
        let s = SequenceId(3);
        c.register(s).unwrap();
        let k: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
        for layer in 0..2 {
            c.append_token(s, layer, &k, &k).unwrap();
        }
        c.swap_out(s).unwrap();
        c.release(s).unwrap();
        assert!(!c.host.contains_key(&s));
        assert_eq!(c.used_pages(), 0);
        // The image is gone: swapping back in is an error, not a resurrection.
        assert_eq!(c.swap_in(s), Err(KvCacheError::UnknownSequence(s)));
    }

    #[test]
    fn export_import_restores_bytes_and_conserves_refcounts() {
        let mut rng = TensorRng::seed(23);
        let mut src = PagedKvCache::new(cfg(KvPrecision::Int4), 32);
        let parent = SequenceId(0);
        src.register(parent).unwrap();
        // 10 tokens → 3 pages/layer, partially filled tail.
        for _ in 0..10 {
            let k: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            for layer in 0..2 {
                src.append_token(parent, layer, &k, &k).unwrap();
            }
        }
        let src_used = src.used_pages();
        let src_refs: Vec<u32> =
            src.layer_pages(parent, 0).iter().map(|&p| src.page_refcount(p)).collect();
        let image = src.export_pages(parent, 10).unwrap();
        // Export is read-only: the source ledger is bit-for-bit untouched.
        assert_eq!(src.used_pages(), src_used);
        assert_eq!(
            src.layer_pages(parent, 0).iter().map(|&p| src.page_refcount(p)).collect::<Vec<_>>(),
            src_refs
        );
        assert_eq!(image.tokens(), 10);
        assert_eq!(image.pages(), 6, "3 pages × 2 layers");
        assert_eq!(image.bytes(), 6 * src.config().page_bytes());

        // Import on a different replica's cache: pages allocated, bytes
        // identical, destination refcounts exactly one per fresh page.
        let mut dst = PagedKvCache::new(cfg(KvPrecision::Int4), 32);
        let moved = dst.import_pages(SequenceId(7), &image).unwrap();
        assert_eq!(moved, 6);
        assert_eq!(dst.used_pages(), 6);
        for layer in 0..2 {
            for &p in dst.layer_pages(SequenceId(7), layer) {
                assert_eq!(dst.page_refcount(p), 1);
            }
        }
        for layer in 0..2 {
            for head in 0..2 {
                assert_eq!(
                    src.read_head(parent, layer, head).unwrap(),
                    dst.read_head(SequenceId(7), layer, head).unwrap(),
                    "imported reads must be byte-identical"
                );
            }
        }
        // Forks off the imported prefix read the same bytes too — the
        // whole point of migrating instead of re-prefilling.
        dst.fork(SequenceId(7), SequenceId(8), 10).unwrap();
        assert_eq!(
            dst.read_head(SequenceId(8), 1, 1).unwrap(),
            src.read_head(parent, 1, 1).unwrap()
        );
        // Releasing everything returns the destination pool to empty:
        // no page minted or leaked by the import.
        dst.release(SequenceId(8)).unwrap();
        dst.release(SequenceId(7)).unwrap();
        assert_eq!(dst.used_pages(), 0);
    }

    #[test]
    fn export_import_edges_are_errors_not_corruption() {
        let mut rng = TensorRng::seed(29);
        let mut c = PagedKvCache::new(cfg(KvPrecision::Int4), 32);
        let s = SequenceId(0);
        c.register(s).unwrap();
        for _ in 0..4 {
            let k: Vec<f32> = (0..16).map(|_| rng.normal(1.0)).collect();
            for layer in 0..2 {
                c.append_token(s, layer, &k, &k).unwrap();
            }
        }
        assert_eq!(
            c.export_pages(SequenceId(9), 1),
            Err(KvCacheError::UnknownSequence(SequenceId(9)))
        );
        assert_eq!(
            c.export_pages(s, 5),
            Err(KvCacheError::PrefixTooLong { have: 4, want: 5 })
        );
        let image = c.export_pages(s, 4).unwrap();
        assert_eq!(
            c.import_pages(s, &image),
            Err(KvCacheError::DuplicateSequence(s))
        );
        // A pool too small for the image declines atomically.
        let mut tiny = PagedKvCache::new(cfg(KvPrecision::Int4), 1);
        assert_eq!(tiny.import_pages(SequenceId(1), &image), Err(KvCacheError::OutOfPages));
        assert_eq!(tiny.used_pages(), 0);
        assert_eq!(tiny.free_pages(), 1);
        // An image from a cache of another geometry is refused before a
        // page is popped: more layers would register a table `append_token`
        // cannot index, another precision is another page size.
        for other in [
            KvCacheConfig { layers: 3, ..cfg(KvPrecision::Int4) },
            cfg(KvPrecision::Int8),
        ] {
            let mut dst = PagedKvCache::new(other, 32);
            assert_eq!(
                dst.import_pages(SequenceId(1), &image),
                Err(KvCacheError::GeometryMismatch { image: cfg(KvPrecision::Int4), cache: other })
            );
            assert_eq!(dst.free_pages(), 32, "nothing allocated");
            assert_eq!(dst.register(SequenceId(1)), Ok(()), "nothing registered");
        }
    }
    /// The page layout, byte for byte, against a layout written out
    /// independently here: per slot, K codes of every head, V codes of every
    /// head, then per-head FP16 (scale, zero) for K and for V — each head
    /// quantized exactly once.
    #[test]
    fn page_bytes_match_the_documented_slot_layout() {
        for precision in [KvPrecision::Int4, KvPrecision::Int8] {
            // head_dim 5: an odd KV4 head ends on a half-used byte.
            for head_dim in [8, 5] {
                let geometry = KvCacheConfig { head_dim, layers: 1, ..cfg(precision) };
                let width = geometry.kv_heads * head_dim;
                let mut rng = TensorRng::seed(37);
                let mut c = PagedKvCache::new(geometry, 4);
                let s = SequenceId(0);
                c.register(s).unwrap();
                let mut expect = vec![0u8; geometry.page_bytes()];
                let mut at = 0;
                for _ in 0..3 {
                    let k: Vec<f32> = (0..width).map(|_| rng.normal(1.0)).collect();
                    let v: Vec<f32> = (0..width).map(|_| rng.normal(1.0)).collect();
                    c.append_token(s, 0, &k, &v).unwrap();
                    let heads: Vec<QuantizedHeadToken> = k
                        .chunks(head_dim)
                        .chain(v.chunks(head_dim))
                        .map(|head| quantize_head(head, precision))
                        .collect();
                    for q in &heads {
                        if precision == KvPrecision::Int8 {
                            expect[at..at + head_dim].copy_from_slice(&q.codes);
                            at += head_dim;
                        } else {
                            for pair in q.codes.chunks(2) {
                                expect[at] = pair[0] | (pair.get(1).copied().unwrap_or(0) << 4);
                                at += 1;
                            }
                        }
                    }
                    for q in &heads {
                        expect[at..at + 2].copy_from_slice(&f32_to_f16_bits(q.params.scale).to_le_bytes());
                        expect[at + 2..at + 4]
                            .copy_from_slice(&f32_to_f16_bits(q.params.zero as f32).to_le_bytes());
                        at += 4;
                    }
                    assert_eq!(at % geometry.token_slot_bytes(), 0, "slot size");
                }
                let page = c.layer_pages(s, 0)[0];
                assert_eq!(c.pool.pages[page].data, expect, "{:?} d={}", precision, head_dim);
            }
        }
    }
}
