//! Zero-dependency substrate for the `ee360` workspace.
//!
//! Everything the workspace previously pulled from crates.io, rebuilt
//! in-repo so the whole project compiles and tests with no network and
//! no registry:
//!
//! * [`rng`] — a seedable xoshiro256** PRNG (replaces `rand`),
//! * [`json`] — a JSON tree, serialiser, parser, and the
//!   [`ToJson`](json::ToJson)/[`FromJson`](json::FromJson) trait pair
//!   (replaces `serde`/`serde_json`),
//! * [`prop`] — a property-testing harness with shrinking and
//!   regression-seed replay (replaces `proptest`),
//! * [`parallel`] — a std-only scoped worker pool (replaces
//!   `crossbeam`/`parking_lot`),
//! * [`bench`](mod@bench) — a micro-benchmark timer (replaces `criterion`),
//! * [`alloc`] — a counting global-allocator shim for memory-bound
//!   regression tests (replaces `dhat`-style heap profiling),
//! * [`quantile`] — a deterministic streaming quantile sketch for the
//!   robust-control path (replaces `tdigest`-style sketches).
//!
//! The repo policy is hermetic builds: new external dependencies are
//! not added unless vendored into the tree. Extend this crate instead.

pub mod alloc;
pub mod bench;
pub mod json;
pub mod parallel;
pub mod prop;
pub mod quantile;
pub mod rng;

/// The imports test modules want: the `proptest!` macro family plus the
/// strategy combinators, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::json::{FromJson, Json, JsonError, ToJson};
    pub use crate::prop::{self, Strategy};
    pub use crate::rng::StdRng;
    pub use crate::{
        impl_json_enum, impl_json_newtype, impl_json_struct, prop_assert, prop_assert_eq,
        prop_assert_ne, proptest,
    };
}
