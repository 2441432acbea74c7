//! Minimal in-repo property-testing harness.
//!
//! The workspace builds with no external crates, so this module replaces the
//! `proptest` dependency with the small subset the test suites actually use:
//! deterministic seeded case generation (via [`TensorRng`]) plus an
//! assertion loop. There is no shrinking — a failing case reports its case
//! number and seed so it can be replayed exactly.
//!
//! # Example
//!
//! ```
//! use qserve_tensor::{prop, props};
//!
//! fn double(x: i64) -> i64 { x * 2 }
//!
//! props! {
//!     fn doubling_is_even(rng) {
//!         let x = rng.int_in(-1000, 1000);
//!         assert_eq!(double(x) % 2, 0);
//!     }
//! }
//! ```

use crate::rng::TensorRng;

/// Cases per property when the test does not override the count.
pub const DEFAULT_CASES: u64 = 64;

/// Deterministic per-case seed: mixes the property name (FNV-1a) with the
/// case index so every property walks an independent stream and every case
/// is replayable from the failure message.
pub fn case_seed(name: &str, case: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

std::thread_local! {
    static CASE_SKIPPED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks the current case as skipped by a failed assumption — called by
/// [`props_assume!`](crate::props_assume!), not directly.
pub fn mark_skipped() {
    CASE_SKIPPED.with(|s| s.set(true));
}

/// Runs one case body, annotating any panic with the case number and seed.
/// Returns `false` when the body bailed out via [`props_assume!`](crate::props_assume!).
pub fn run_case(name: &str, case: u64, seed: u64, body: impl FnOnce(&mut TensorRng)) -> bool {
    CASE_SKIPPED.with(|s| s.set(false));
    let mut rng = TensorRng::seed(seed);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
    if let Err(payload) = result {
        eprintln!(
            "property '{}' failed on case {} (replay with TensorRng::seed({}))",
            name, case, seed
        );
        std::panic::resume_unwind(payload);
    }
    !CASE_SKIPPED.with(|s| s.get())
}

/// Panics when assumptions rejected so many cases the property is vacuous
/// (the stand-in for proptest's global-reject limit): at least one case in
/// eight must actually execute.
pub fn check_coverage(name: &str, executed: u64, cases: u64) {
    assert!(
        executed * 8 >= cases,
        "property '{}' is nearly vacuous: only {}/{} cases passed their \
         assumptions — loosen the generator or the props_assume! condition",
        name,
        executed,
        cases
    );
}

/// `Vec<f32>` with entries uniform in `[lo, hi)`.
pub fn vec_f32(rng: &mut TensorRng, lo: f32, hi: f32, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(lo, hi)).collect()
}

/// `Vec<u8>` with entries uniform in the inclusive range `[lo, hi]`.
pub fn vec_u8(rng: &mut TensorRng, lo: u8, hi: u8, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.int_in(i64::from(lo), i64::from(hi)) as u8).collect()
}

/// `Vec<i8>` with entries uniform in the inclusive range `[lo, hi]`.
pub fn vec_i8(rng: &mut TensorRng, lo: i8, hi: i8, len: usize) -> Vec<i8> {
    (0..len).map(|_| rng.int_in(i64::from(lo), i64::from(hi)) as i8).collect()
}

/// `Vec<i32>` with entries uniform in the inclusive range `[lo, hi]`.
pub fn vec_i32(rng: &mut TensorRng, lo: i32, hi: i32, len: usize) -> Vec<i32> {
    (0..len).map(|_| rng.int_in(i64::from(lo), i64::from(hi)) as i32).collect()
}

/// Declares `#[test]` functions that each run a property over many
/// deterministically seeded cases.
///
/// Each property receives a fresh [`TensorRng`] per case and draws its own
/// inputs from it. An optional `cases = N` overrides
/// [`DEFAULT_CASES`]:
///
/// ```ignore
/// props! {
///     fn round_trips(rng) { /* 64 cases */ }
///     fn expensive_property(rng, cases = 16) { /* 16 cases */ }
/// }
/// ```
#[macro_export]
macro_rules! props {
    ($( $(#[$attr:meta])* fn $name:ident($rng:ident $(, cases = $cases:expr)?) $body:block )*) => {
        $(
            $(#[$attr])*
            #[test]
            fn $name() {
                #[allow(unused_mut, unused_assignments)]
                let mut cases: u64 = $crate::prop::DEFAULT_CASES;
                $(cases = $cases;)?
                let mut executed: u64 = 0;
                for case in 0..cases {
                    let seed = $crate::prop::case_seed(stringify!($name), case);
                    if $crate::prop::run_case(stringify!($name), case, seed, |$rng| $body) {
                        executed += 1;
                    }
                }
                $crate::prop::check_coverage(stringify!($name), executed, cases);
            }
        )*
    };
}

/// Skips the current case when a precondition does not hold (the
/// `prop_assume!` replacement). Must be used directly inside a [`props!`]
/// body, where the case runs in its own closure. If assumptions reject more
/// than 7 in 8 cases the test fails as vacuous instead of silently passing.
#[macro_export]
macro_rules! props_assume {
    ($cond:expr) => {
        if !$cond {
            $crate::prop::mark_skipped();
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    props! {
        fn generated_vectors_respect_ranges(rng) {
            let f = vec_f32(rng, -2.0, 3.0, 17);
            assert_eq!(f.len(), 17);
            assert!(f.iter().all(|v| (-2.0..3.0).contains(v)));
            let u = vec_u8(rng, 0, 15, 32);
            assert!(u.iter().all(|&v| v <= 15));
            let i = vec_i8(rng, -128, 127, 8);
            assert_eq!(i.len(), 8);
            let w = vec_i32(rng, -119, 119, 5);
            assert!(w.iter().all(|&v| (-119..=119).contains(&v)));
        }

        fn case_count_override_respected(rng, cases = 3) {
            let _ = rng.next_u64();
        }

        fn assume_skips_without_failing(rng) {
            let x = rng.int_in(0, 9);
            props_assume!(x % 2 == 0);
            assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn coverage_floor_accepts_one_in_eight() {
        check_coverage("p", 8, 64);
        check_coverage("p", 1, 1);
    }

    #[test]
    #[should_panic(expected = "nearly vacuous")]
    fn coverage_floor_rejects_vacuous_property() {
        check_coverage("p", 7, 64);
    }

    #[test]
    fn run_case_reports_skips() {
        assert!(run_case("r", 0, 1, |_| {}));
        assert!(!run_case("r", 0, 1, |_| mark_skipped()));
    }

    #[test]
    fn case_seeds_differ_across_names_and_cases() {
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
        assert_eq!(case_seed("a", 5), case_seed("a", 5));
    }
}
