//! Seeded random-case driver for the workspace's property tests.
//!
//! A property is a plain `#[test]` that calls [`cases`] with its name, a case
//! count and a closure drawing its arguments from the case's RNG, in order:
//!
//! ```
//! use rand::Rng;
//!
//! fpsa_testgen::cases("doubling_is_monotone", 32, |rng| {
//!     let x = rng.gen_range(0.0f64..1.0);
//!     let xs = fpsa_testgen::vec(rng, 1..5, |r| r.gen_range(0u32..10));
//!     assert!(2.0 * x >= x);
//!     assert!((1..5).contains(&xs.len()));
//! });
//! ```
//!
//! Each case's RNG depends only on the property name and the case index, so
//! every run draws the same inputs, and a failing case panics with the
//! [`case_rng`] call that replays it. There is no shrinking.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The RNG of case `case` of property `name`. The property name is mixed in
/// so sibling properties do not see identical inputs.
pub fn case_rng(name: &str, case: u32) -> StdRng {
    let mut seed = 0xA076_1D64_78BD_642Fu64 ^ case as u64;
    for byte in name.bytes() {
        seed = seed.wrapping_mul(0x100_0000_01B3).wrapping_add(byte as u64);
    }
    StdRng::seed_from_u64(seed)
}

/// Run `check` on cases `0..count` of property `name`, each with its own
/// [`case_rng`].
///
/// # Panics
///
/// If a case panics, panics again naming the property, the case index and
/// the `case_rng` call that replays it, followed by the case's own message.
pub fn cases(name: &str, count: u32, mut check: impl FnMut(&mut StdRng)) {
    for case in 0..count {
        let mut rng = case_rng(name, case);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| check(&mut rng))) {
            let cause = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("a non-string panic payload");
            panic!(
                "property `{name}` failed on case {case} \
                 (replay: fpsa_testgen::case_rng(\"{name}\", {case})): {cause}"
            );
        }
    }
}

/// A `Vec` whose length is drawn uniformly from `len` and whose elements come
/// from `f`. A length range holding one value draws nothing for it.
pub fn vec<T>(rng: &mut StdRng, len: Range<usize>, mut f: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    assert!(len.start < len.end, "vec length range {len:?} is empty");
    let n = if len.end - len.start <= 1 {
        len.start
    } else {
        rng.gen_range(len)
    };
    (0..n).map(|_| f(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_draws_are_pinned() {
        // The first draw of `case_rng("p", 3)`, recorded from the seed formula
        // the workspace's property inputs have always used.
        let x: f64 = case_rng("p", 3).gen_range(0.0f64..1.0);
        assert_eq!(x, 0.369_669_395_660_226_4);
    }

    #[test]
    fn vecs_have_requested_lengths() {
        cases("vecs_have_requested_lengths", 32, |rng| {
            let fixed = vec(rng, 4..5, |r| r.gen_range(0.0f64..1.0));
            let ranged = vec(rng, 1..5, |r| vec(r, 2..3, |r| r.gen_range(0u32..10)));
            assert_eq!(fixed.len(), 4);
            assert!((1..5).contains(&ranged.len()));
            assert!(ranged.iter().all(|inner| inner.len() == 2));
        });
    }

    #[test]
    #[should_panic(expected = "property `third_case_fails` failed on case 2 \
                               (replay: fpsa_testgen::case_rng(\"third_case_fails\", 2)): boom")]
    fn a_failing_case_names_its_property_and_index() {
        let mut seen = 0;
        cases("third_case_fails", 4, |_| {
            seen += 1;
            assert!(seen < 3, "boom");
        });
    }
}
