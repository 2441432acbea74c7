//! Prefix reuse index: finds, for an incoming prompt, the registered
//! sequence whose prompt shares the longest token prefix — a content lookup
//! for a caller deciding whether to [`crate::PagedKvCache::fork`] instead of
//! recomputing a shared prefix. No serving path uses it: the scheduler
//! grants prefix shares by group, and the functional serve forks from a
//! resident sibling that holds the granted tokens.
//!
//! The index keeps the registered prompts sorted lexicographically. For any
//! query, the longest common prefix against the *whole* set is achieved by
//! one of the query's two lexicographic neighbors, so a lookup is one binary
//! search plus two prefix scans — no trie allocation per token, and the
//! page-aligned truncation the cache needs is the caller's choice.

use crate::kv_cache::SequenceId;

/// One registered prompt: the tokens a live sequence was prefilled with.
#[derive(Debug, Clone)]
struct Entry {
    tokens: Vec<u32>,
    seq: SequenceId,
}

/// Longest-shared-prefix lookup over the prompts of live sequences.
///
/// # Example
/// ```
/// use qserve_serve::prefix::PrefixIndex;
/// use qserve_serve::SequenceId;
///
/// let mut idx = PrefixIndex::new();
/// idx.insert(SequenceId(0), vec![1, 2, 3, 4]);
/// let (seq, shared) = idx.longest_shared_prefix(&[1, 2, 3, 9]).unwrap();
/// assert_eq!((seq, shared), (SequenceId(0), 3));
/// ```
#[derive(Debug, Default)]
pub struct PrefixIndex {
    /// Sorted by `tokens`; ties broken by sequence id for determinism.
    entries: Vec<Entry>,
}

fn common_prefix(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl PrefixIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registered prompts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no prompts are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registers a live sequence's prompt. A sequence may be registered only
    /// once; duplicates of the *tokens* are fine (distinct sequences may
    /// serve identical prompts).
    ///
    /// # Panics
    /// Panics if `seq` is already registered.
    pub fn insert(&mut self, seq: SequenceId, tokens: Vec<u32>) {
        assert!(
            self.entries.iter().all(|e| e.seq != seq),
            "sequence {:?} registered twice",
            seq
        );
        let at = self
            .entries
            .partition_point(|e| (&e.tokens[..], e.seq) < (&tokens[..], seq));
        self.entries.insert(at, Entry { tokens, seq });
    }

    /// Unregisters a sequence (no-op if absent), e.g. when its pages are
    /// released or it is preempted.
    pub fn remove(&mut self, seq: SequenceId) {
        self.entries.retain(|e| e.seq != seq);
    }

    /// The registered sequence sharing the longest token prefix with
    /// `tokens`, with the shared length. Ties prefer the lexicographic
    /// predecessor (deterministic). Returns `None` when the index is empty
    /// or no registered prompt shares even one token.
    pub fn longest_shared_prefix(&self, tokens: &[u32]) -> Option<(SequenceId, usize)> {
        if self.entries.is_empty() {
            return None;
        }
        // In sorted order, the maximal LCP with any entry is attained at an
        // immediate neighbor of the query's insertion point.
        let at = self.entries.partition_point(|e| e.tokens[..] < tokens[..]);
        let mut best: Option<(SequenceId, usize)> = None;
        for idx in [at.checked_sub(1), (at < self.entries.len()).then_some(at)]
            .into_iter()
            .flatten()
        {
            let e = &self.entries[idx];
            let lcp = common_prefix(&e.tokens, tokens);
            if lcp > 0 && best.is_none_or(|(_, b)| lcp > b) {
                best = Some((e.seq, lcp));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_index_matches_nothing() {
        let idx = PrefixIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.longest_shared_prefix(&[1, 2, 3]), None);
    }

    #[test]
    fn finds_longest_match_among_many() {
        let mut idx = PrefixIndex::new();
        idx.insert(SequenceId(0), vec![5, 5, 5, 5]);
        idx.insert(SequenceId(1), vec![1, 2, 3]);
        idx.insert(SequenceId(2), vec![1, 2, 9, 9]);
        assert_eq!(
            idx.longest_shared_prefix(&[1, 2, 3, 4, 5]),
            Some((SequenceId(1), 3))
        );
        assert_eq!(
            idx.longest_shared_prefix(&[1, 2, 9, 1]),
            Some((SequenceId(2), 3))
        );
        assert_eq!(idx.longest_shared_prefix(&[7, 7]), None);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn neighbor_argument_holds_under_stress() {
        // Cross-check the two-neighbor lookup against brute force over a
        // crowd of overlapping prompts.
        use qserve_tensor::rng::TensorRng;
        let mut rng = TensorRng::seed(13);
        let mut idx = PrefixIndex::new();
        let mut prompts = Vec::new();
        for i in 0..40u64 {
            let len = rng.int_in(1, 12) as usize;
            let toks: Vec<u32> = (0..len).map(|_| rng.int_in(0, 3) as u32).collect();
            idx.insert(SequenceId(i), toks.clone());
            prompts.push(toks);
        }
        for _ in 0..200 {
            let len = rng.int_in(1, 12) as usize;
            let q: Vec<u32> = (0..len).map(|_| rng.int_in(0, 3) as u32).collect();
            let brute = prompts
                .iter()
                .map(|p| p.iter().zip(&q).take_while(|(a, b)| a == b).count())
                .max()
                .unwrap();
            let got = idx.longest_shared_prefix(&q).map_or(0, |(_, l)| l);
            assert_eq!(got, brute, "query {:?}", q);
        }
    }

    #[test]
    fn remove_unregisters() {
        let mut idx = PrefixIndex::new();
        idx.insert(SequenceId(0), vec![1, 2, 3]);
        idx.insert(SequenceId(1), vec![1, 2]);
        idx.remove(SequenceId(0));
        assert_eq!(idx.longest_shared_prefix(&[1, 2, 3]), Some((SequenceId(1), 2)));
        idx.remove(SequenceId(0)); // no-op
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn identical_prompts_allowed_across_sequences() {
        let mut idx = PrefixIndex::new();
        idx.insert(SequenceId(0), vec![4, 4]);
        idx.insert(SequenceId(1), vec![4, 4]);
        let (seq, lcp) = idx.longest_shared_prefix(&[4, 4, 4]).unwrap();
        assert_eq!(lcp, 2);
        assert!(seq == SequenceId(0) || seq == SequenceId(1));
    }
}
