//! A small property-based testing harness.
//!
//! In-repo replacement for the `proptest` crate, covering the subset the
//! workspace uses: range strategies, tuples of strategies, vectors of
//! strategies, the [`proptest!`](crate::proptest) macro, and the
//! `prop_assert*` family. On failure the harness greedily shrinks the
//! input, reports the seed, and records it in
//! `proptest-regressions/<file>.txt`; recorded seeds are replayed first
//! on every subsequent run.
//!
//! Determinism: case seeds are derived from the test's full name, so a
//! given test exercises the same inputs on every run and every machine.
//! Set `EE360_PROP_SEED` to explore a different stream and
//! `EE360_PROP_CASES` to change the case count (default 64).

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use crate::rng::StdRng;

/// How many cases each property runs when `EE360_PROP_CASES` is unset.
pub const DEFAULT_CASES: u32 = 64;

/// Maximum shrink iterations per failure.
const MAX_SHRINK_STEPS: usize = 512;

/// A failed property assertion (returned by `prop_assert!` and friends).
#[derive(Debug)]
pub struct TestError(pub String);

/// What a property body returns.
pub type TestResult = Result<(), TestError>;

/// A generator of test inputs that also knows how to shrink them.
pub trait Strategy {
    /// The input type produced.
    type Value: Clone + Debug;

    /// Draws one input from the seeded generator.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Candidate simpler inputs, best candidates first. An empty vector
    /// means the value is fully shrunk.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value>;
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        shrink_f64(*value, self.start, self.end, false)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        shrink_f64(*value, *self.start(), *self.end(), true)
    }
}

fn shrink_f64(value: f64, lo: f64, hi: f64, inclusive: bool) -> Vec<f64> {
    let mut out = Vec::new();
    let in_range = |x: f64| x >= lo && (x < hi || (inclusive && x <= hi));
    let mut push = |x: f64| {
        if in_range(x) && x != value && !out.contains(&x) {
            out.push(x);
        }
    };
    push(0.0);
    push(lo);
    push(lo + (value - lo) / 2.0);
    push(value / 2.0);
    out
}

macro_rules! impl_int_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let lo = self.start;
                let v = *value;
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2;
                    if mid != lo && mid != v {
                        out.push(mid);
                    }
                    out.push(v - 1);
                }
                out
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let lo = *self.start();
                let v = *value;
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2;
                    if mid != lo && mid != v {
                        out.push(mid);
                    }
                    out.push(v - 1);
                }
                out
            }
        }
    )+};
}

impl_int_strategy!(usize, u64, u32, i64, i32);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = candidate;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::*;

    /// A strategy producing `Vec`s of values from an element strategy,
    /// with lengths drawn from `sizes`.
    pub fn vec<S: Strategy>(element: S, sizes: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            sizes: sizes.into(),
        }
    }

    /// Inclusive length bounds for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        /// Minimum length (inclusive).
        pub min: usize,
        /// Maximum length (inclusive).
        pub max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n }
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        sizes: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.gen_range(self.sizes.min..=self.sizes.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }

        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
            let mut out = Vec::new();
            // Structural shrinks first: shorter vectors are simpler.
            if value.len() > self.sizes.min {
                let half = (value.len() / 2).max(self.sizes.min);
                if half < value.len() {
                    out.push(value[..half].to_vec());
                }
                out.push(value[..value.len() - 1].to_vec());
            }
            // Then element-wise shrinks, one element at a time.
            for (i, elem) in value.iter().enumerate() {
                if let Some(candidate) = self.element.shrink(elem).into_iter().next() {
                    let mut next = value.clone();
                    next[i] = candidate;
                    out.push(next);
                }
            }
            out
        }
    }
}

/// Runs a property: replayed regression seeds first, then `cases` fresh
/// seeds derived deterministically from `test_name`.
///
/// Called by the [`proptest!`](crate::proptest) macro; not usually
/// invoked directly.
///
/// # Panics
///
/// Panics (failing the surrounding `#[test]`) when a case fails, after
/// shrinking. The message includes the seed and the shrunken input.
pub fn run<S, F>(manifest_dir: &str, source_file: &str, test_name: &str, strategy: &S, body: F)
where
    S: Strategy,
    F: Fn(S::Value) -> TestResult,
{
    // lint:allow(determinism, "test-harness knob: EE360_PROP_CASES only tunes test effort, never sim output")
    let cases: u32 = std::env::var("EE360_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CASES);
    // lint:allow(determinism, "test-harness knob: EE360_PROP_SEED only replays a failing case, never sim output")
    let base_seed: u64 = std::env::var("EE360_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fnv1a(test_name.as_bytes()));

    let regression_path = regression_file(manifest_dir, source_file);
    for seed in read_regression_seeds(&regression_path) {
        check_case(strategy, &body, seed, test_name, &regression_path, true);
    }

    for case in 0..cases {
        let seed = base_seed.wrapping_add(splitmix64(case as u64 + 1));
        check_case(strategy, &body, seed, test_name, &regression_path, false);
    }
}

fn check_case<S, F>(
    strategy: &S,
    body: &F,
    seed: u64,
    test_name: &str,
    regression_path: &Path,
    replay: bool,
) where
    S: Strategy,
    F: Fn(S::Value) -> TestResult,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let input = strategy.generate(&mut rng);
    let Some(first_failure) = run_one(body, input.clone()) else {
        return;
    };

    // Greedy shrink: adopt any simpler input that still fails.
    let mut current = input;
    let mut message = first_failure;
    let mut steps = 0;
    'outer: while steps < MAX_SHRINK_STEPS {
        for candidate in strategy.shrink(&current) {
            steps += 1;
            if let Some(msg) = run_one(body, candidate.clone()) {
                current = candidate;
                message = msg;
                continue 'outer;
            }
            if steps >= MAX_SHRINK_STEPS {
                break;
            }
        }
        break;
    }

    if !replay {
        record_regression(regression_path, seed, &current);
    }
    panic!(
        "property `{test_name}` failed{}.\n  seed: {seed}\n  input (shrunk): {current:?}\n  cause: {message}\n  (replaying: this seed was appended to {})",
        if replay { " (replayed regression seed)" } else { "" },
        regression_path.display(),
    );
}

/// Runs one case, converting both `Err` returns and panics into a
/// failure message. `None` means the case passed.
fn run_one<V, F>(body: &F, input: V) -> Option<String>
where
    F: Fn(V) -> TestResult,
{
    match catch_unwind(AssertUnwindSafe(|| body(input))) {
        Ok(Ok(())) => None,
        Ok(Err(TestError(msg))) => Some(msg),
        Err(panic) => Some(panic_message(&panic)),
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic (non-string payload)".to_owned()
    }
}

/// `<manifest_dir>/proptest-regressions/<file stem>.txt`, mirroring the
/// proptest convention so regression files sit next to the crate.
fn regression_file(manifest_dir: &str, source_file: &str) -> PathBuf {
    let stem = Path::new(source_file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("unknown");
    Path::new(manifest_dir)
        .join("proptest-regressions")
        .join(format!("{stem}.txt"))
}

/// Parses `seed = <u64>` lines; everything else (comments, legacy
/// proptest `cc` lines) is ignored.
fn read_regression_seeds(path: &Path) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            let rest = line.strip_prefix("seed")?.trim_start().strip_prefix('=')?;
            let num = rest.split(&['#', ' ']).find(|s| !s.is_empty())?;
            num.parse().ok()
        })
        .collect()
}

fn record_regression<V: Debug>(path: &Path, seed: u64, shrunk: &V) {
    let Some(parent) = path.parent() else { return };
    if std::fs::create_dir_all(parent).is_err() {
        return;
    }
    let mut existing = std::fs::read_to_string(path).unwrap_or_else(|_| {
        "# Seeds for failure cases found by the ee360-support property harness.\n\
         # Each `seed = N` line is replayed before fresh cases. Check this file in.\n"
            .to_owned()
    });
    let line = format!("seed = {seed} # shrunk input: {shrunk:?}\n");
    if !existing.contains(&format!("seed = {seed} ")) {
        existing.push_str(&line);
        let _ = std::fs::write(path, existing);
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Defines property tests. Drop-in for the `proptest!` macro for the
/// forms this workspace uses:
///
/// ```
/// use ee360_support::prelude::*;
///
/// proptest! {
///     #[test]
///     fn addition_commutes(a in 0.0f64..100.0, b in 0.0f64..100.0) {
///         prop_assert!((a + b - (b + a)).abs() < 1e-12);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)+) => {$(
        $(#[$meta])*
        fn $name() {
            let strategy = ($($strat,)+);
            $crate::prop::run(
                env!("CARGO_MANIFEST_DIR"),
                file!(),
                concat!(module_path!(), "::", stringify!($name)),
                &strategy,
                |($($pat,)+)| { $body Ok(()) },
            );
        }
    )+};
}

/// Property assertion: fails the current case (triggering shrinking)
/// instead of aborting the whole test run.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::prop::TestError(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::prop::TestError(format!($($fmt)+)));
        }
    };
}

/// Property equality assertion; see [`prop_assert!`](crate::prop_assert).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left != right {
            return Err($crate::prop::TestError(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
}

/// Property inequality assertion; see [`prop_assert!`](crate::prop_assert).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return Err($crate::prop::TestError(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f = (0.5f64..2.5).generate(&mut rng);
            assert!((0.5..2.5).contains(&f));
            let i = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&i));
        }
    }

    #[test]
    fn tuple_strategy_generates_componentwise() {
        let mut rng = StdRng::seed_from_u64(2);
        let strat = (0.0f64..1.0, 10usize..20, -5i64..5);
        for _ in 0..200 {
            let (f, u, i) = strat.generate(&mut rng);
            assert!((0.0..1.0).contains(&f));
            assert!((10..20).contains(&u));
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = StdRng::seed_from_u64(3);
        let strat = collection::vec(0.0f64..1.0, 2..7);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..7).contains(&v.len()), "len = {}", v.len());
        }
    }

    #[test]
    fn shrinking_reaches_simple_counterexample() {
        // The canonical shrink demo: "all values < 500" fails; the shrunk
        // witness should land close to the boundary or at a canonical
        // simple value, not stay at an arbitrary large sample.
        let strat = 0usize..10_000;
        let mut rng = StdRng::seed_from_u64(99);
        let mut value = loop {
            let v = strat.generate(&mut rng);
            if v >= 500 {
                break v;
            }
        };
        let fails = |v: &usize| *v >= 500;
        for _ in 0..256 {
            match strat.shrink(&value).into_iter().find(|c| fails(c)) {
                Some(simpler) => value = simpler,
                None => break,
            }
        }
        assert!(value >= 500 && value <= 1000, "shrunk to {value}");
    }

    #[test]
    fn vec_shrink_prefers_shorter() {
        let strat = collection::vec(0usize..100, 1..20);
        let value: Vec<usize> = (0..10).map(|i| i * 7 % 100).collect();
        let candidates = strat.shrink(&value);
        assert!(!candidates.is_empty());
        assert!(candidates[0].len() < value.len());
    }

    #[test]
    fn regression_seed_lines_parse() {
        let dir = std::env::temp_dir().join(format!("ee360-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.txt");
        std::fs::write(
            &path,
            "# comment\ncc 1234abcd # legacy proptest line\nseed = 42 # shrunk input: 7\nseed=99\n",
        )
        .unwrap();
        assert_eq!(read_regression_seeds(&path), vec![42, 99]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn passing_property_runs_clean() {
        run(
            env!("CARGO_MANIFEST_DIR"),
            file!(),
            "support::prop::smoke",
            &(0.0f64..1.0,),
            |(x,)| {
                prop_assert!((0.0..1.0).contains(&x));
                Ok(())
            },
        );
    }

    #[test]
    fn failing_property_panics_with_seed() {
        let dir = std::env::temp_dir().join(format!("ee360-prop-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let result = catch_unwind(|| {
            run(
                dir.to_str().unwrap(),
                "demo_failing.rs",
                "support::prop::always_fails",
                &(0usize..100,),
                |(_x,)| Err(TestError("nope".into())),
            );
        });
        let msg = panic_message(&result.unwrap_err());
        assert!(msg.contains("seed:"), "{msg}");
        assert!(msg.contains("nope"), "{msg}");
        // The failure was recorded for replay.
        let recorded =
            std::fs::read_to_string(dir.join("proptest-regressions").join("demo_failing.txt"))
                .unwrap();
        assert!(recorded.contains("seed = "), "{recorded}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The macro itself, exercised end to end.
    crate::proptest! {
        #[test]
        fn macro_single_param(x in 0.0f64..10.0) {
            prop_assert!(x >= 0.0);
            prop_assert!(x < 10.0);
        }

        #[test]
        fn macro_multi_param(
            a in 0usize..50,
            b in -1.0f64..=1.0,
            v in crate::prop::collection::vec(0u32..9, 1..5),
        ) {
            prop_assert!(a < 50);
            prop_assert!((-1.0..=1.0).contains(&b));
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert_eq!(v.len(), v.iter().count());
            prop_assert_ne!(v.len(), 0);
        }
    }
}
