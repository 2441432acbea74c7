//@ path: crates/tensor/src/widget.rs
pub fn sort_latencies(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn sort_ratios(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN ratios"));
}

pub fn maybe_order(a: f64, b: f64) -> Option<std::cmp::Ordering> {
    a.partial_cmp(&b)
}

pub fn sort_lenient(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}
