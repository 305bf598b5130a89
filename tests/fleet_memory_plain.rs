//! Memory-bound regression gate for the fleet engine, telemetry off.
//!
//! Runs a 100k-session scale fleet behind the counting-allocator shim
//! and asserts the peak heap stays under a pinned per-session budget.
//! The fleet's scaling story rests on O(100 B) hot state per session
//! (driver scalars + one retained summary, with shards streamed in
//! bounded waves) — if anyone reintroduces a per-segment vector or
//! starts retaining `SessionMetrics`, the peak jumps by orders of
//! magnitude and this test fails loudly.
//!
//! The allocator's peak is process-global, so each measurement lives in
//! its own test binary: a concurrent test in the same process would add
//! its heap to this one's peak. The telemetry-on gate is
//! `tests/fleet_memory.rs`.

use ee360_sim::fleet::{run_scale_fleet, FleetConfig};
use ee360_support::alloc::CountingAlloc;
use ee360_trace::fault::{FaultConfig, FaultPlan};
use ee360_trace::network::NetworkTrace;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const SESSIONS: usize = 100_000;
const SEGMENTS: usize = 6;

/// Pinned peak-heap budget per session. Measured headroom: the run
/// peaks around 230 B/session (one 16 Ki-driver shard wave live at a
/// time plus the folded summaries); 768 B leaves room for legitimate
/// driver growth while still catching any per-segment vector (which
/// would add kilobytes per session) immediately.
const PER_SESSION_BUDGET_BYTES: usize = 768;

#[test]
fn fleet_of_100k_sessions_stays_in_budget() {
    let network = NetworkTrace::paper_trace2(300, 17);
    let faults = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 23).and_outage(50.0, 5.0);
    let config = FleetConfig::new(SESSIONS, SEGMENTS, 2022);
    let baseline = ALLOC.reset_peak();
    let (report, _stats) =
        run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
    let peak = ALLOC.peak_bytes().saturating_sub(baseline);
    assert_eq!(report.segments, SESSIONS * SEGMENTS, "every slot consumed");
    assert_eq!(report.delivered + report.skipped, report.segments);
    assert!(
        peak <= SESSIONS * PER_SESSION_BUDGET_BYTES,
        "fleet peak heap {peak} B breaks the {PER_SESSION_BUDGET_BYTES} B/session budget \
         ({} B/session over {SESSIONS} sessions)",
        peak / SESSIONS
    );
}
