//@ path: crates/tensor/src/widget.rs
use std::cmp::Ordering;

pub fn sort_latencies(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

pub struct Stamp(u64);

impl PartialOrd for Stamp {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.0.cmp(&other.0))
    }
}

impl PartialEq for Stamp {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
