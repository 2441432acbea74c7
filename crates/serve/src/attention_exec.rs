//! Functional attention execution over the paged cache: wires the §5.1 page
//! layout to the §5.3 kernel so the serving stack can produce *real*
//! attention outputs, not just simulated latencies.

use crate::kv_cache::{KvCacheError, PagedKvCache, SequenceId};
use qserve_kernels::attention::HeadTile;

/// Runs QServe's decode attention for one sequence and one layer directly
/// over the paged cache: a run of one row (see `paged_run_attention`).
///
/// `query` is the full-width query row (`query_heads × head_dim`); which
/// query heads read which KV head is [`qserve_core::pipeline::gqa_kv_map`]'s
/// to say. Returns the concatenated per-head outputs (`query_heads ×
/// head_dim`).
///
/// # Errors
/// [`KvCacheError::UnknownSequence`]; [`KvCacheError::NotQuantized`] on an
/// FP16 cache.
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
    paged_run_attention(cache, seq, layer, query, query.len(), &mut HeadTile::default(), &mut out)?;
    Ok(out)
}

/// Attention for a *run*: consecutive rows of one sequence — a prefill
/// chunk, or a single decode row — whose K/V are already appended.
/// `queries` and `out` hold the run's rows back to back, `width =
/// query_heads × head_dim` each. Every KV head is dequantized into `tile`
/// once, and row `r` of an `n`-row run attends over the first
/// `len − n + r + 1` cached tokens: itself and everything before it.
///
/// # Errors
/// [`KvCacheError::UnknownSequence`]; [`KvCacheError::NotQuantized`] on an
/// FP16 cache.
///
/// # Panics
/// Panics if `width` is not a multiple of the cache head_dim or of
/// `kv_heads × head_dim`, the rows are ragged, or the run is longer than
/// the sequence's cache.
pub(crate) fn paged_run_attention(
    cache: &PagedKvCache,
    seq: SequenceId,
    layer: usize,
    queries: &[f32],
    width: usize,
    tile: &mut HeadTile,
    out: &mut [f32],
) -> Result<(), KvCacheError> {
    let cfg = cache.config();
    assert!(
        width > 0 && width % cfg.head_dim == 0,
        "query width {} not a multiple of head_dim {}",
        width,
        cfg.head_dim
    );
    let query_heads = width / cfg.head_dim;
    assert!(
        query_heads % cfg.kv_heads == 0,
        "query heads {} not a multiple of kv heads {}",
        query_heads,
        cfg.kv_heads
    );
    assert!(queries.len() % width == 0 && queries.len() == out.len(), "ragged run");
    let rows = queries.len() / width;
    // The query heads reading one KV head are contiguous (the layout
    // `qserve_core::pipeline::gqa_kv_map` defines): each KV head is
    // dequantized once for its whole group and the whole run.
    let group_width = query_heads / cfg.kv_heads * cfg.head_dim;
    for kv_head in 0..cfg.kv_heads {
        let cached = cache.head_view(seq, layer, kv_head)?.fill(tile);
        let past = cached.checked_sub(rows).expect("a run's K/V are appended before it attends");
        let group = kv_head * group_width..(kv_head + 1) * group_width;
        for (r, (q, o)) in queries.chunks_exact(width).zip(out.chunks_exact_mut(width)).enumerate() {
            tile.attend(&q[group.clone()], past + r + 1, &mut o[group.clone()]);
        }
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

    qserve_tensor::props! {
        /// A tile filled once from the pages and attended at every visible
        /// length equals, `to_bits`, a fresh materialisation of exactly that
        /// many tokens through `decode_attention_fp16` — which the kernel
        /// crate's own property ties to the lane-at-a-time oracle — over
        /// KV4 / KV8, head widths 2 … 128 (odd ones too), GQA groups of
        /// 1 / 2 / 4 and pages of 4 or 16 tokens, so lengths straddle page
        /// boundaries. The child is forked mid-page or on a boundary, its
        /// parent then fills the shared tail page further, and the child is
        /// checked against a private sequence that only ever held its own
        /// tokens (the materialisation shares the page walk with the fill,
        /// so it cannot catch a walk that reads the parent's slots). A
        /// whole run through `paged_run_attention` equals the same rows
        /// attended one by one as they were appended.
        fn paged_tile_equals_fresh_materialisation_at_every_visible_length(rng, cases = 16) {
            use qserve_kernels::attention::{decode_attention_fp16, QuantizedKvHead};
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let precision = [KvPrecision::Int4, KvPrecision::Int8][rng.int_in(0, 1) as usize];
            let head_dim = [2usize, 6, 16, 17, 128][rng.int_in(0, 4) as usize];
            let kv_heads = rng.int_in(1, 2) as usize;
            let group = [1usize, 2, 4][rng.int_in(0, 2) as usize];
            let page_tokens = [4usize, 16][rng.int_in(0, 1) as usize];
            let cfg = KvCacheConfig { page_tokens, kv_heads, head_dim, layers: 1, precision };
            let width = kv_heads * group * head_dim;
            let len = rng.int_in(2, if head_dim == 128 { 10 } else { 36 }) as usize;
            let prefix = rng.int_in(1, len as i64 - 1) as usize;
            let extra = rng.int_in(0, 3) as usize; // the child's own tokens after the fork
            let kv = rng.gaussian(2 * (len + extra), kv_heads * head_dim, 1.0);
            let queries = rng.gaussian(len + extra, width, 1.0);
            let (parent, child, private) = (SequenceId(0), SequenceId(1), SequenceId(2));
            let mut cache = PagedKvCache::new(cfg, 64);
            cache.register(parent).unwrap();
            cache.register(private).unwrap();
            // Row by row, as a decode loop would: append, attend.
            let mut one_by_one = Vec::new();
            for t in 0..len {
                cache.append_token(parent, 0, kv.row(2 * t), kv.row(2 * t + 1)).unwrap();
                one_by_one.push(paged_decode_attention(&cache, parent, 0, queries.row(t)).unwrap());
                if t < prefix {
                    cache.append_token(private, 0, kv.row(2 * t), kv.row(2 * t + 1)).unwrap();
                }
                if t + 1 == prefix {
                    cache.fork(parent, child, prefix).unwrap();
                }
            }
            // A run of the last `n` rows, attended in one call.
            let n = rng.int_in(1, len as i64) as usize;
            let run: Vec<f32> = (len - n..len).flat_map(|t| queries.row(t).to_vec()).collect();
            let mut out = vec![f32::NAN; run.len()];
            paged_run_attention(&cache, parent, 0, &run, width, &mut HeadTile::default(), &mut out).unwrap();
            for (r, got) in out.chunks_exact(width).enumerate() {
                assert_eq!(bits(got), bits(&one_by_one[len - n + r]), "row {} of a {}-row run", r, n);
            }
            // The child diverges (its first append copies the shared tail).
            for t in len..len + extra {
                for seq in [child, private] {
                    cache.append_token(seq, 0, kv.row(2 * t), kv.row(2 * t + 1)).unwrap();
                }
            }
            let mut tile = HeadTile::default();
            for (seq, tokens) in [(parent, len), (child, prefix + extra), (private, prefix + extra)] {
                for kv_head in 0..kv_heads {
                    assert_eq!(cache.head_view(seq, 0, kv_head).unwrap().fill(&mut tile), tokens);
                    let twin = if seq == child { private } else { seq };
                    let (keys, values) = cache.read_head(twin, 0, kv_head).unwrap();
                    let heads = kv_head * group * head_dim..(kv_head + 1) * group * head_dim;
                    for visible in 1..=tokens {
                        let q = &queries.row(visible - 1)[heads.clone()];
                        let mut got = vec![f32::NAN; q.len()];
                        tile.attend(q, visible, &mut got);
                        let fresh = QuantizedKvHead {
                            keys: keys[..visible].to_vec(),
                            values: values[..visible].to_vec(),
                            precision,
                        };
                        let want: Vec<f32> =
                            q.chunks_exact(head_dim).flat_map(|q| decode_attention_fp16(q, &fresh)).collect();
                        assert_eq!(
                            bits(&got), bits(&want),
                            "{:?} {:?} d={} group={} page={} visible={}/{}", precision, seq, head_dim, group, page_tokens, visible, tokens
                        );
                    }
                }
            }
        }
    }

    /// An FP16 cache holds features, not codes: the quantized kernel must
    /// refuse it by name at the door — it used to die inside the kernel
    /// with `head_dim mismatch` — and a step must refuse before it appends.
    #[test]
    fn an_fp16_cache_is_rejected_by_name_not_inside_the_kernel() {
        let cfg = KvCacheConfig { page_tokens: 8, kv_heads: 2, head_dim: 16, layers: 1, precision: KvPrecision::Fp16 };
        let mut cache = PagedKvCache::new(cfg, 8);
        cache.register(SequenceId(0)).unwrap();
        cache.append_token(SequenceId(0), 0, &[0.5; 32], &[0.25; 32]).unwrap();
        let refused = paged_decode_attention(&cache, SequenceId(0), 0, &[0.0; 32]).unwrap_err();
        assert_eq!(refused, KvCacheError::NotQuantized(KvPrecision::Fp16));
        assert!(refused.to_string().contains("Fp16"), "the message names the precision: {refused}");
        assert_eq!(cache.read_head(SequenceId(0), 0, 0).unwrap_err(), refused);
        assert_eq!(cache.head_view(SequenceId(0), 0, 0).unwrap_err(), refused);
    }
}
