//! Memory-bound regression gate for the fleet engine, telemetry on.
//!
//! Runs a 100k-session scale fleet with the full telemetry pipeline
//! behind the counting-allocator shim and asserts the peak heap stays
//! under a pinned per-session budget: the telemetry-off base budget plus
//! a fixed telemetry allowance.
//!
//! The allocator's peak is process-global, so each measurement lives in
//! its own test binary: a concurrent test in the same process would add
//! its heap to this one's peak. The telemetry-off gate is
//! `tests/fleet_memory_plain.rs`.

use ee360_obs::TelemetryConfig;
use ee360_sim::fleet::{run_scale_fleet_telemetry, FleetConfig};
use ee360_support::alloc::CountingAlloc;
use ee360_trace::fault::{FaultConfig, FaultPlan};
use ee360_trace::network::NetworkTrace;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const SESSIONS: usize = 100_000;
const SEGMENTS: usize = 6;

/// The telemetry-off per-session budget, pinned in
/// `tests/fleet_memory_plain.rs`.
const PER_SESSION_BUDGET_BYTES: usize = 768;

/// Pinned peak-heap budget per session with the full telemetry pipeline
/// on. Telemetry adds the session's 56 B [`WindowCell`]s, one per 5 s
/// window it booked in, appended to its shard's one window log (a few
/// growing allocations per shard, none per session) that lives in the
/// shard output until the fold consumes it, plus a 1% sample of boxed
/// `Detail` recorders. The fixed telemetry allowance below (documented,
/// not incidental) is 768 B/session on top of the base budget: tight
/// enough that retaining per-segment state would still fail loudly.
///
/// [`WindowCell`]: ee360_obs::WindowCell
const TELEMETRY_ALLOWANCE_BYTES: usize = 768;

#[test]
fn fleet_of_100k_sessions_with_telemetry_stays_in_budget() {
    let network = NetworkTrace::paper_trace2(300, 17);
    let faults = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 23).and_outage(50.0, 5.0);
    let config =
        FleetConfig::new(SESSIONS, SEGMENTS, 2022).with_telemetry(TelemetryConfig::standard());
    let baseline = ALLOC.reset_peak();
    let (report, _stats, telemetry) =
        run_scale_fleet_telemetry(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
    let peak = ALLOC.peak_bytes().saturating_sub(baseline);
    assert_eq!(report.segments, SESSIONS * SEGMENTS, "every slot consumed");
    let tel = telemetry.expect("telemetry requested");
    assert!(tel.series.is_some(), "windows were on");
    assert!(!tel.traces.is_empty(), "1% sampling keeps traces");
    let budget = PER_SESSION_BUDGET_BYTES + TELEMETRY_ALLOWANCE_BYTES;
    assert!(
        peak <= SESSIONS * budget,
        "telemetry-on fleet peak heap {peak} B breaks the {budget} B/session budget \
         ({} B/session over {SESSIONS} sessions)",
        peak / SESSIONS
    );
}
