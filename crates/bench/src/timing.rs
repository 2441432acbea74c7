//! The optimisation barrier, at the path `benchmark/src/surface.rs` binds
//! (`qserve_bench::timing::black_box`). Nothing else is left of the in-repo
//! timing harness: the repository measures itself in `benchmark/` only.

pub use std::hint::black_box;
