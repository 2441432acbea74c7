//! Functional attention execution over the paged cache: wires the §5.1 page
//! layout to the §5.3 fused kernel so the serving stack can produce *real*
//! attention outputs, not just simulated latencies.

use crate::kv_cache::{KvCacheError, PagedKvCache, SequenceId};
use qserve_kernels::attention::{fused_decode_attention, AttentionScratch};

/// Runs QServe's fused decode attention for one sequence and one layer
/// directly over the paged cache.
///
/// `query` is the full-width query row (`query_heads × head_dim`); GQA maps
/// query head `h` onto KV head `h / (query_heads / kv_heads)`. Returns the
/// concatenated per-head outputs (`query_heads × head_dim`).
///
/// # Errors
/// Propagates [`KvCacheError`] for unknown sequences.
///
/// # Panics
/// Panics if `query.len()` is not a multiple of the cache head_dim, or the
/// cache is empty for this sequence.
pub fn paged_decode_attention(
    cache: &PagedKvCache,
    seq: SequenceId,
    layer: usize,
    query: &[f32],
) -> Result<Vec<f32>, KvCacheError> {
    let mut out = vec![0.0f32; query.len()];
    paged_decode_attention_into(cache, seq, layer, query, &mut AttentionScratch::default(), &mut out)?;
    Ok(out)
}

/// [`paged_decode_attention`] into a caller-owned output row, with the
/// kernel's buffers reused across calls (a batched step runs one call per
/// row and layer).
pub(crate) fn paged_decode_attention_into(
    cache: &PagedKvCache,
    seq: SequenceId,
    layer: usize,
    query: &[f32],
    scratch: &mut AttentionScratch,
    out: &mut [f32],
) -> Result<(), KvCacheError> {
    let cfg = cache.config();
    assert!(
        query.len() % cfg.head_dim == 0,
        "query width {} not a multiple of head_dim {}",
        query.len(),
        cfg.head_dim
    );
    let query_heads = query.len() / cfg.head_dim;
    assert!(
        query_heads % cfg.kv_heads == 0,
        "query heads {} not a multiple of kv heads {}",
        query_heads,
        cfg.kv_heads
    );
    // The query heads of one GQA group are contiguous: each KV head is
    // walked once, in place, for its whole group.
    let group_width = query_heads / cfg.kv_heads * cfg.head_dim;
    for (kv_head, (q, o)) in query
        .chunks_exact(group_width)
        .zip(out.chunks_exact_mut(group_width))
        .enumerate()
    {
        let view = cache.head_view(seq, layer, kv_head)?;
        fused_decode_attention(q, cfg.head_dim, view.len(), view.keys(), view.values(), scratch, o);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv_cache::KvCacheConfig;
    use qserve_core::kv_quant::KvPrecision;
    use qserve_tensor::ops::attention_single;
    use qserve_tensor::rng::TensorRng;
    use qserve_tensor::Matrix;

    fn setup(kv_heads: usize, head_dim: usize) -> (PagedKvCache, Matrix, Matrix) {
        let cfg = KvCacheConfig {
            page_tokens: 8,
            kv_heads,
            head_dim,
            layers: 1,
            precision: KvPrecision::Int4,
        };
        let mut cache = PagedKvCache::new(cfg, 128);
        cache.register(SequenceId(0)).unwrap();
        let mut rng = TensorRng::seed(9);
        let width = kv_heads * head_dim;
        let keys = rng.gaussian(40, width, 1.0);
        let values = rng.gaussian(40, width, 1.0);
        for t in 0..40 {
            cache.append_token(SequenceId(0), 0, keys.row(t), values.row(t)).unwrap();
        }
        (cache, keys, values)
    }

    #[test]
    fn matches_reference_per_head() {
        let (cache, keys, values) = setup(2, 16);
        let mut rng = TensorRng::seed(10);
        let q: Vec<f32> = (0..32).map(|_| rng.normal(1.0)).collect();
        let out = paged_decode_attention(&cache, SequenceId(0), 0, &q).unwrap();
        assert_eq!(out.len(), 32);
        for h in 0..2 {
            let lo = h * 16;
            let k_ref = keys.slice_cols(lo, lo + 16);
            let v_ref = values.slice_cols(lo, lo + 16);
            let expect = attention_single(&q[lo..lo + 16], &k_ref, &v_ref);
            for (a, b) in out[lo..lo + 16].iter().zip(&expect) {
                assert!((a - b).abs() < 0.25, "head {}: {} vs {}", h, a, b);
            }
        }
    }

    #[test]
    fn gqa_replays_kv_heads() {
        let (cache, keys, values) = setup(2, 16);
        let mut rng = TensorRng::seed(11);
        // 4 query heads over 2 kv heads (group = 2).
        let q: Vec<f32> = (0..64).map(|_| rng.normal(1.0)).collect();
        let out = paged_decode_attention(&cache, SequenceId(0), 0, &q).unwrap();
        assert_eq!(out.len(), 64);
        // Query heads 0 and 1 both attend over kv head 0.
        let k0 = keys.slice_cols(0, 16);
        let v0 = values.slice_cols(0, 16);
        for h in 0..2 {
            let expect = attention_single(&q[h * 16..(h + 1) * 16], &k0, &v0);
            for (a, b) in out[h * 16..(h + 1) * 16].iter().zip(&expect) {
                assert!((a - b).abs() < 0.25);
            }
        }
    }

    #[test]
    fn unknown_sequence_errors() {
        let (cache, _, _) = setup(1, 8);
        let r = paged_decode_attention(&cache, SequenceId(99), 0, &[0.0; 8]);
        assert!(r.is_err());
    }
    /// The fused walk against two independent oracles, bit for bit:
    /// `decode_attention_fp16` over the `read_head` materialisation (the
    /// pre-fusion path), and — for the forked child — the same attention
    /// over a private sequence that only ever held the child's tokens.
    /// Pages of 4 tokens put boundaries inside every sequence; the fork at 6
    /// leaves the child a shared tail page its parent has filled to 8.
    #[test]
    fn fused_walk_equals_materialised_attention_bit_for_bit() {
        use qserve_kernels::attention::{decode_attention_fp16, QuantizedKvHead};
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for precision in [KvPrecision::Int4, KvPrecision::Int8] {
            // (head_dim, kv_heads, query_heads): an odd head_dim leaves a
            // half-used byte per KV4 lane; 6 query heads over 2 KV heads is
            // a GQA group of 3.
            for (head_dim, kv_heads, query_heads) in [(5, 2, 2), (16, 2, 6), (7, 1, 4)] {
                let cfg = KvCacheConfig { page_tokens: 4, kv_heads, head_dim, layers: 1, precision };
                let mut rng = TensorRng::seed(31 + head_dim as u64);
                let kv = rng.gaussian(2 * 11, kv_heads * head_dim, 1.0);
                let (parent, child, private) = (SequenceId(0), SequenceId(1), SequenceId(2));
                let mut cache = PagedKvCache::new(cfg, 64);
                cache.register(parent).unwrap();
                cache.register(private).unwrap();
                for t in 0..11 {
                    cache.append_token(parent, 0, kv.row(2 * t), kv.row(2 * t + 1)).unwrap();
                    if t < 6 {
                        cache.append_token(private, 0, kv.row(2 * t), kv.row(2 * t + 1)).unwrap();
                    }
                }
                cache.fork(parent, child, 6).unwrap();
                assert_eq!(cache.layer_pages(child, 0)[1], cache.layer_pages(parent, 0)[1]);

                let q = rng.gaussian(1, query_heads * head_dim, 1.0);
                let group = query_heads / kv_heads;
                let materialised = |cache: &PagedKvCache, seq| {
                    let mut out = Vec::new();
                    for kv_head in 0..kv_heads {
                        let (keys, values) = cache.read_head(seq, 0, kv_head).unwrap();
                        let head = QuantizedKvHead { keys, values, precision };
                        for h in kv_head * group..(kv_head + 1) * group {
                            out.extend(decode_attention_fp16(&q.row(0)[h * head_dim..(h + 1) * head_dim], &head));
                        }
                    }
                    out
                };
                let fused = |cache: &PagedKvCache, seq| {
                    paged_decode_attention(cache, seq, 0, q.row(0)).unwrap()
                };
                for seq in [parent, child] {
                    assert_eq!(
                        bits(&fused(&cache, seq)),
                        bits(&materialised(&cache, seq)),
                        "{:?} {:?} d={} group={}", precision, seq, head_dim, group
                    );
                }
                assert_eq!(
                    bits(&fused(&cache, child)),
                    bits(&fused(&cache, private)),
                    "the child read past its own 6 tokens of the shared tail page"
                );
                // Divergence: the child's append copies the tail page; both
                // sides keep matching their materialisations.
                cache.append_token(child, 0, kv.row(0), kv.row(1)).unwrap();
                cache.append_token(private, 0, kv.row(0), kv.row(1)).unwrap();
                assert_eq!(bits(&fused(&cache, child)), bits(&fused(&cache, private)));
                assert_eq!(bits(&fused(&cache, child)), bits(&materialised(&cache, child)));
                assert_eq!(bits(&fused(&cache, parent)), bits(&materialised(&cache, parent)));
            }
        }
    }
}
