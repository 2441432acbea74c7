//! The KV page pool's storage follows the pages used, not the pool's
//! capacity: the same appends, copy-on-write fork and swap round trip on a
//! pool of `P` pages and on one of `8P` pages peak within a few dozen bytes
//! of metadata per extra page of each other, where a page's storage is
//! 3,072 B.
//!
//! One `#[test]` in a binary of its own, because the counting allocator
//! (`common/counting_alloc.rs`) is process-global.

use qserve_core::kv_quant::KvPrecision;
use qserve_serve::kv_cache::{KvCacheConfig, PagedKvCache, SequenceId};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::peak_heap_of;

/// `func_serve`'s geometry: Llama-2-7B's head structure at hidden 128 (8 KV
/// heads of 16 features), two layers, KV4 — 3,072 B a page.
fn geometry() -> KvCacheConfig {
    KvCacheConfig { page_tokens: 16, kv_heads: 8, head_dim: 16, layers: 2, precision: KvPrecision::Int4 }
}

/// Peak live heap of building a `pages`-page cache and running one
/// lifecycle on it: a 40-token sequence, a fork of its first 36 tokens that
/// diverges (one copy-on-write page per layer), a swap round trip of the
/// fork, and the release of both. Returns the peak and the pages used at
/// the high-water mark.
fn peak_heap_of_pool(pages: usize) -> (usize, usize) {
    let mut peak_used = 0;
    let peak = peak_heap_of(|| {
        let mut cache = PagedKvCache::new(geometry(), pages);
        let width = geometry().kv_heads * geometry().head_dim;
        let token =
            |t: usize| -> Vec<f32> { (0..width).map(|i| ((t * 31 + i * 7) % 23) as f32 - 11.0).collect() };
        let (parent, child) = (SequenceId(1), SequenceId(2));
        cache.register(parent).unwrap();
        for t in 0..40 {
            for layer in 0..2 {
                cache.append_token(parent, layer, &token(t), &token(t + 1)).unwrap();
            }
        }
        cache.fork(parent, child, 36).unwrap();
        for t in 0..6 {
            for layer in 0..2 {
                cache.append_token(child, layer, &token(t + 100), &token(t + 101)).unwrap();
            }
        }
        cache.swap_out(child).unwrap();
        cache.swap_in(child).unwrap();
        cache.release(parent).unwrap();
        cache.release(child).unwrap();
        assert_eq!(cache.used_pages(), 0);
        peak_used = cache.peak_used_pages();
    });
    (peak, peak_used)
}

#[test]
fn pool_heap_grows_with_pages_used_not_with_capacity() {
    let (small, large) = (64, 8 * 64);
    let (peak_small, used_small) = peak_heap_of_pool(small);
    let (peak_large, used_large) = peak_heap_of_pool(large);
    assert_eq!(used_small, used_large, "the same lifecycle uses the same pages");
    let per_page = (peak_large as f64 - peak_small as f64) / (large - small) as f64;
    println!(
        "pool: peak live heap {peak_small} B at {small} pages, {peak_large} B at {large} pages \
         ({used_small} used): {per_page:.1} B per additional page of capacity"
    );
    assert!(
        per_page <= 64.0,
        "peak live heap grew by {per_page:.1} B per additional page of capacity ({peak_small} B at {small} \
         pages, {peak_large} B at {large}; {} B of storage a page): a page that is never used should cost \
         its metadata, not its storage",
        geometry().page_bytes()
    );
}
