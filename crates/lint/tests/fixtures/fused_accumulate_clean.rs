//@ path: crates/tensor/src/widget.rs
pub struct Half(u16);

impl Half {
    /// Defining a method of that name fuses nothing.
    pub fn mul_add(self, _b: Half, _c: Half) -> Half {
        self
    }
}

pub fn dot(x: &[f32], w: &[f32]) -> f32 {
    // The sanctioned form: one rounding for the product, one for the sum.
    x.iter().zip(w).fold(0.0f32, |acc, (a, b)| acc + a * b)
}

pub fn emulated(a: Half, b: Half, c: Half) -> Half {
    Half::mul_add(a, b, c) // not a.mul_add(b, c) on floats
}
