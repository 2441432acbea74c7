//@ path: crates/kernels/src/widget.rs
pub fn dot(x: &[f32], w: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (a, b) in x.iter().zip(w) {
        acc = a.mul_add(*b, acc);
    }
    acc
}

pub fn axpy(a: f64, x: f64, y: f64) -> f64 {
    f64::mul_add(a, x, y)
}

pub fn fuse(a: f32, b: f32, c: f32) -> f32 {
    let fma = f32::mul_add;
    fma(a, b, c)
}
