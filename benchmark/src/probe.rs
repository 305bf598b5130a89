//! How fast the host is running right now, from a fixed reference
//! computation.
//!
//! On a shared host the same pass can run 20–40% slower for minutes at a
//! time while neighbours load the machine, so a pass's wall time says as
//! much about the host as about the program. The probe is a fixed
//! integer and floating-point loop, run on every worker thread at once.
//! It uses none of the program's code, so no change to the program can
//! change it. Timed right before and right after a pass's sessions, it
//! measures the host's speed while they ran; scaling the pass's wall
//! time by `REFERENCE_S / probe` expresses it in reference seconds.

// lint:allow-file(determinism, "benchmark harness: the probe is a wall-clock measurement")

use std::time::Instant;

/// The probe's wall time with two threads on a quiet 2-vCPU KVM guest
/// (Xeon, family 6 model 143). Any constant would do, since it cancels
/// in every comparison; this one makes a reference second read like a
/// second on that host when it is quiet.
pub const REFERENCE_S: f64 = 0.055;

/// Loop iterations per thread.
const ITERATIONS: u64 = 1 << 23;

/// Runs the probe on `threads` threads at once; returns its wall time in
/// seconds.
pub fn probe_s(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads.max(1) {
            scope.spawn(move || std::hint::black_box(spin(t as u64)));
        }
    });
    start.elapsed().as_secs_f64()
}

/// A dependent chain of xorshift-multiply steps with a data-dependent
/// branch into floating-point work.
fn spin(seed: u64) -> (u64, f64) {
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ seed;
    let mut acc = 1.0f64;
    for i in 0..ITERATIONS {
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        if x & 1 == 0 {
            acc = acc * 1.000_000_1 + (i & 7) as f64;
        } else {
            acc = acc * 0.999_999_9 - 1.0;
        }
    }
    (x, acc)
}
