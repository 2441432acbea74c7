//@ path: crates/tensor/src/widget.rs
pub fn hfma(a: f32, b: f32, c: f32) -> f32 {
    // lint: allow(fused-accumulate) -- emulates the GPU's HFMA2, which is fused by definition
    f32::mul_add(a, b, c)
}
