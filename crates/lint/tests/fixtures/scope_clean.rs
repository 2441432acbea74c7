//@ path: crates/quant/src/widget.rs
use std::collections::BTreeMap;

pub fn total(pages: &BTreeMap<u64, usize>) -> usize {
    let used_pages: usize = pages.values().sum();
    let free_pages = 2usize;
    used_pages - free_pages
}
