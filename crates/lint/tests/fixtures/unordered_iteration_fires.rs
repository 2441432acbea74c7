//@ path: crates/serve/src/widget.rs
use std::collections::HashMap;

pub fn total(pages: &HashMap<u64, usize>) -> usize {
    pages.values().sum()
}

pub fn dump(index: HashMap<u64, u64>) -> Vec<u64> {
    let mut out = Vec::new();
    for k in index.keys() {
        out.push(*k);
    }
    for v in &index {
        out.push(*v.1);
    }
    out
}

// Three forms that declare no `name: HashMap` binding to track: a map a call
// returns, a map behind a getter, and a set built by a turbofish `collect`.
fn prompts(n: u64) -> HashMap<u64, Vec<u32>> {
    (0..n).map(|i| (i, Vec::new())).collect()
}

pub fn prompt_ids() -> Vec<u64> {
    prompts(4).into_keys().collect()
}

pub struct Registry {
    pinned: HashMap<u64, usize>,
}

impl Registry {
    pub fn pinned(&self) -> &HashMap<u64, usize> {
        &self.pinned
    }
}

pub fn pinned_ids(registry: &Registry) -> Vec<u64> {
    registry.pinned().keys().copied().collect()
}

pub fn distinct(ids: &[u64]) -> Vec<u64> {
    let seen = ids.iter().copied().collect::<std::collections::HashSet<_>>();
    seen.into_iter().collect()
}
