//! The three workloads. Each pass generates fresh inputs from its seed,
//! times one batch of sessions through the program's public entry
//! points, and then checks the outputs, untimed. The traced pass runs
//! the same sessions through the span-recording mirrors of `layers`.

// lint:allow-file(determinism, "benchmark harness: times calls with the wall clock")

use std::time::Instant;

use ee360_abr::controller::Scheme;
use ee360_cluster::ptile::PtileConfig;
use ee360_core::client::{run_session_resilient, SessionSetup};
use ee360_core::experiment::{Evaluation, ExperimentConfig, SchemeOutcome};
use ee360_core::fleet::FleetSessionDriver;
use ee360_core::parallel::run_matrix;
use ee360_core::server::VideoServer;
use ee360_geom::grid::TileGrid;
use ee360_obs::{Level, Recorder};
use ee360_power::model::DecoderScheme;
use ee360_sim::fleet::{drive_sessions, shard_ranges, EngineStats};
use ee360_sim::metrics::SessionMetrics;
use ee360_sim::resilience::{ResilienceCounters, RetryPolicy};
use ee360_support::json::to_string;
use ee360_support::parallel::parallel_map_indexed;
use ee360_trace::dataset::VideoTraces;
use ee360_trace::fault::{FaultConfig, FaultPlan};
use ee360_trace::head::{GazeConfig, HeadTrace};
use ee360_trace::network::NetworkTrace;
use ee360_video::catalog::VideoCatalog;

use crate::checks::{outcome_ok, session_ok, CellSim};
use crate::layers::{drive_traced, loop_session, nanos, Layer, LayerAcc};
use crate::probe::probe_s;
use crate::ALLOC;

/// Passes every run makes at least; the simulated outcomes are averaged
/// over exactly these, so they do not depend on how fast the host is.
pub const SIM_PASSES: usize = 3;

/// Network variants per `fleet-scale` pass (half at trace 2, half at
/// trace 1's doubled bandwidth).
const FLEET_NETWORKS: u64 = 16;

/// Length of each `fleet-scale` network trace, seconds.
const FLEET_NETWORK_SEC: usize = 800;

/// `fleet-scale` re-runs every this many sessions on the loop engine.
const FLEET_ORACLE_STRIDE: usize = 64;

/// Segment cap of the untimed warm-up pass.
const WARMUP_SEGMENTS: usize = 30;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figs. 9–11 matrix on the loop engine.
    PaperMatrix,
    /// `Ours` and `RobustMpc` under the chaos fault plan on the event engine.
    ChaosMpc,
    /// 1,024 concurrent `Ptile` sessions on the event engine.
    FleetScale,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMatrix,
        Workload::ChaosMpc,
        Workload::FleetScale,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::ChaosMpc => "chaos-mpc",
            Workload::FleetScale => "fleet-scale",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn schemes(self) -> &'static [Scheme] {
        match self {
            Workload::PaperMatrix => &Scheme::ALL,
            Workload::ChaosMpc => &[Scheme::Ours, Scheme::RobustMpc],
            Workload::FleetScale => &[Scheme::Ptile],
        }
    }

    /// The fault plan and retry policy of a pass whose longest video
    /// lasts `longest_sec`.
    fn faults(self, seed: u64, longest_sec: f64) -> (FaultPlan, RetryPolicy) {
        match self {
            Workload::ChaosMpc => (
                FaultPlan::generate(FaultConfig::chaos_default(), 2.0 * longest_sec, seed),
                RetryPolicy::default_mobile(),
            ),
            Workload::PaperMatrix | Workload::FleetScale => {
                (FaultPlan::none(), RetryPolicy::disabled())
            }
        }
    }
}

/// How much work a run does.
#[derive(Debug, Clone, PartialEq)]
pub struct Size {
    /// Video ids to prepare; `None` is the whole catalog.
    pub videos: Option<Vec<usize>>,
    /// Cap on segments per session; `None` is the full video.
    pub max_segments: Option<usize>,
    /// Timed passes a run makes at least.
    pub min_passes: usize,
    /// Passes continue until the run has lasted this long, seconds.
    pub seconds: f64,
}

impl Size {
    /// The benchmark's size: every video, full length.
    pub fn full(seconds: f64) -> Self {
        Self {
            videos: None,
            max_segments: None,
            min_passes: SIM_PASSES,
            seconds,
        }
    }

    /// The unit tests' size: one video, 20 segments, one pass.
    #[cfg(test)]
    pub fn smoke() -> Self {
        Self {
            videos: Some(vec![2]),
            max_segments: Some(20),
            min_passes: 1,
            seconds: 0.0,
        }
    }

    /// The untimed warm-up pass: the same videos, at most 30 segments.
    pub fn warmup(&self) -> Self {
        Self {
            max_segments: Some(
                self.max_segments
                    .map_or(WARMUP_SEGMENTS, |m| m.min(WARMUP_SEGMENTS)),
            ),
            ..self.clone()
        }
    }

    fn video_ids(&self, catalog: &VideoCatalog) -> Vec<usize> {
        match &self.videos {
            Some(ids) => ids.clone(),
            None => catalog.videos().iter().map(|v| v.id).collect(),
        }
    }

    fn config(&self, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            seed,
            max_segments: self.max_segments,
            ..ExperimentConfig::paper_trace2()
        }
    }
}

/// What one pass produced, after its checks.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of generating the pass's inputs, seconds.
    pub setup_s: f64,
    /// Wall time of the sessions, seconds.
    pub run_s: f64,
    /// Mean wall time of the host probe right before and right after
    /// the sessions, seconds (untraced passes only).
    pub probe_s: f64,
    /// Sessions attempted.
    pub sessions: usize,
    /// Segments completed.
    pub segments: usize,
    /// Sessions that failed a check.
    pub failed: usize,
    /// Simulated outcome per cell, in the program's cell order.
    pub cells: Vec<CellSim>,
    /// Peak live heap above the baseline while the sessions ran, bytes
    /// (untimed passes only).
    pub peak_heap_bytes: usize,
    /// Spans and tallies (traced passes only).
    pub trace: Option<Box<Trace>>,
}

/// The per-layer record of a traced pass.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans of set-up and sessions.
    pub acc: LayerAcc,
    /// Event-engine tallies (all zero on the loop engine).
    pub engine: EngineStats,
    /// Resilience tallies summed over the sessions.
    pub resilience: ResilienceCounters,
    /// Segments decoded through the Ptile pipeline.
    pub ptile_segments: usize,
    /// Bits of delivered segments.
    pub delivered_bits: f64,
}

/// A pass's prepared videos, whichever path prepared them.
struct Videos<'a> {
    /// `(server, eval users)` per video, in id order.
    entries: Vec<(&'a VideoServer, &'a [HeadTrace])>,
    network: &'a NetworkTrace,
    config: ExperimentConfig,
}

impl<'a> Videos<'a> {
    fn of_eval(eval: &'a Evaluation, videos: &[usize]) -> Self {
        Self {
            entries: videos
                .iter()
                .filter_map(|v| eval.server(*v).map(|s| (s, eval.eval_users(*v))))
                .collect(),
            network: eval.network(),
            config: *eval.config(),
        }
    }

    fn setup(
        &self,
        server: &'a VideoServer,
        user: &'a HeadTrace,
        network: &'a NetworkTrace,
    ) -> SessionSetup<'a> {
        SessionSetup {
            server,
            user,
            network,
            phone: self.config.phone,
            max_segments: self.config.max_segments,
        }
    }

    /// Sessions of one video over the pass's network, in user order.
    fn cell_setups(&self, video: usize) -> Vec<SessionSetup<'a>> {
        let (server, users) = self.entries[video];
        users
            .iter()
            .map(|u| self.setup(server, u, self.network))
            .collect()
    }

    /// `fleet-scale`'s sessions: every eval user over every network
    /// variant, network-major.
    fn fleet_setups(&self, networks: &'a [NetworkTrace]) -> Vec<SessionSetup<'a>> {
        networks
            .iter()
            .flat_map(|net| {
                self.entries.iter().flat_map(move |(server, users)| {
                    users.iter().map(move |u| self.setup(server, u, net))
                })
            })
            .collect()
    }
}

/// Segments a session of `server` capped at `max_segments` must record.
fn expected_segments(server: &VideoServer, max_segments: Option<usize>) -> usize {
    let n = server.segment_count();
    max_segments.map_or(n, |m| m.min(n))
}

fn longest_sec(catalog: &VideoCatalog, videos: &[usize]) -> f64 {
    videos
        .iter()
        .filter_map(|v| catalog.video(*v))
        .map(|spec| f64::from(spec.duration_sec))
        .fold(0.0, f64::max)
}

/// `fleet-scale`'s network variants: variant `i` is trace 2 seeded
/// `seed·1000 + i`, doubled (trace 1) for odd `i`.
fn fleet_networks(seed: u64) -> Vec<NetworkTrace> {
    (0..FLEET_NETWORKS)
        .map(|i| {
            let scale = if i % 2 == 0 { 1.0 } else { 2.0 };
            NetworkTrace::paper_trace2(FLEET_NETWORK_SEC, seed.wrapping_mul(1000).wrapping_add(i))
                .scaled(scale)
        })
        .collect()
}

/// How a pass's sessions ran.
struct Measured {
    run_s: f64,
    probe_s: f64,
    peak_heap_bytes: usize,
}

/// Runs `f` between two host probes on `threads` threads, returning its
/// result, its wall time, the probes' mean and the peak live heap above
/// the level at its start.
fn measured<R>(threads: usize, f: impl FnOnce() -> R) -> (R, Measured) {
    let before = probe_s(threads);
    let baseline = ALLOC.reset_peak();
    let start = Instant::now();
    let out = f();
    let run_s = start.elapsed().as_secs_f64();
    let peak_heap_bytes = ALLOC.peak_bytes().saturating_sub(baseline);
    let probe_s = (before + probe_s(threads)) / 2.0;
    let m = Measured {
        run_s,
        probe_s,
        peak_heap_bytes,
    };
    (out, m)
}

/// Tallies of a checked batch of sessions or cells.
#[derive(Default)]
struct Checked {
    sessions: usize,
    segments: usize,
    failed: usize,
    cells: Vec<CellSim>,
}

impl Checked {
    /// Checks program-aggregated cells; `bad[i]` marks cell `i` as failed
    /// by an oracle already.
    fn outcomes(videos: &Videos, outcomes: &[SchemeOutcome], ids: &[usize], bad: &[bool]) -> Self {
        let mut out = Checked::default();
        for (i, o) in outcomes.iter().enumerate() {
            let slot = ids.iter().position(|v| *v == o.video_id);
            let expected = slot.map(|s| {
                let (server, users) = videos.entries[s];
                let segments = expected_segments(server, videos.config.max_segments);
                (segments, users.len())
            });
            let users = expected.map_or(o.users, |(_, u)| u);
            let ok = expected.is_some_and(|(segments, u)| outcome_ok(o, segments, u));
            out.sessions += users;
            out.segments += o.users * o.segments;
            if !ok || bad.get(i).copied().unwrap_or(false) {
                out.failed += users;
            }
            out.cells.push(CellSim::from_outcome(o));
        }
        out
    }

    /// Checks sessions grouped into cells (`cell_sizes` sessions each, in
    /// order); `bad[i]` marks session `i` as failed by an oracle already.
    /// Also returns the sessions that completed.
    fn sessions(
        setups: &[SessionSetup],
        sessions: Vec<Option<SessionMetrics>>,
        cell_sizes: &[usize],
        bad: &[bool],
    ) -> (Self, Vec<SessionMetrics>) {
        let mut out = Checked::default();
        let mut complete = Vec::with_capacity(sessions.len());
        for (i, (setup, m)) in setups.iter().zip(sessions).enumerate() {
            out.sessions += 1;
            let expected = expected_segments(setup.server, setup.max_segments);
            let ok = m.as_ref().is_some_and(|m| session_ok(m, expected));
            if !ok || bad.get(i).copied().unwrap_or(false) {
                out.failed += 1;
            }
            if let Some(m) = m {
                out.segments += m.len();
                complete.push(m);
            }
        }
        if complete.len() == setups.len() {
            let mut start = 0;
            for n in cell_sizes {
                out.cells
                    .push(CellSim::from_sessions(&complete[start..start + n]));
                start += n;
            }
        }
        (out, complete)
    }
}

/// The cross-engine oracle of a cell workload: the cell picked by the
/// pass seed is re-run through `rerun` and must serialise to the same
/// bytes. Returns which cells failed it.
fn oracle_cell(
    outcomes: &[SchemeOutcome],
    seed: u64,
    rerun: impl FnOnce(&SchemeOutcome, &mut Recorder) -> SchemeOutcome,
) -> Vec<bool> {
    let mut bad = vec![false; outcomes.len()];
    let k = (seed % outcomes.len().max(1) as u64) as usize;
    if let Some(o) = outcomes.get(k) {
        let again = rerun(o, &mut Recorder::new(Level::Off));
        bad[k] = to_string(&again).ok() != to_string(o).ok();
    }
    bad
}

/// One pass: set-up, the timed sessions, then the checks and the
/// sampled cross-engine oracle.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    size: &Size,
    catalog: &VideoCatalog,
    threads: usize,
) -> Pass {
    let ids = size.video_ids(catalog);
    let config = size.config(seed);
    let start = Instant::now();
    let eval = Evaluation::prepare_videos_threaded(config, catalog, Some(&ids), threads)
        .with_session_threads(threads);
    let (faults, policy) = workload.faults(seed, longest_sec(catalog, &ids));
    let networks = match workload {
        Workload::FleetScale => fleet_networks(seed),
        _ => Vec::new(),
    };
    let setup_s = start.elapsed().as_secs_f64();
    let videos = Videos::of_eval(&eval, &ids);
    let (checked, m) = match workload {
        Workload::PaperMatrix => {
            let (outcomes, m) = measured(threads, || {
                run_matrix(&eval, &ids, workload.schemes(), threads)
            });
            let bad = oracle_cell(&outcomes, seed, |o, rec| {
                eval.run_fleet_traced(o.video_id, o.scheme, &faults, &policy, rec)
            });
            (Checked::outcomes(&videos, &outcomes, &ids, &bad), m)
        }
        Workload::ChaosMpc => {
            let cells: Vec<(usize, Scheme)> = ids
                .iter()
                .flat_map(|v| workload.schemes().iter().map(move |s| (*v, *s)))
                .collect();
            let (outcomes, m) = measured(threads, || {
                let mut rec = Recorder::new(Level::Off);
                cells
                    .iter()
                    .map(|(v, s)| eval.run_fleet_traced(*v, *s, &faults, &policy, &mut rec))
                    .collect::<Vec<_>>()
            });
            let bad = oracle_cell(&outcomes, seed, |o, rec| {
                eval.run_traced(o.video_id, o.scheme, &faults, &policy, rec)
            });
            (Checked::outcomes(&videos, &outcomes, &ids, &bad), m)
        }
        Workload::FleetScale => {
            let setups = videos.fleet_setups(&networks);
            let (sessions, m) = measured(threads, || {
                drive_fleet(&setups, Scheme::Ptile, &faults, &policy, threads)
            });
            // Oracle: every 64th session, re-run on the loop engine.
            let bad: Vec<bool> = setups
                .iter()
                .zip(&sessions)
                .enumerate()
                .map(|(i, (setup, m))| {
                    i % FLEET_ORACLE_STRIDE == 0
                        && m.as_ref()
                            != Some(&run_session_resilient(
                                Scheme::Ptile,
                                setup,
                                &faults,
                                &policy,
                            ))
                })
                .collect();
            let ones = vec![1; setups.len()];
            (Checked::sessions(&setups, sessions, &ones, &bad).0, m)
        }
    };
    Pass {
        setup_s,
        run_s: m.run_s,
        probe_s: m.probe_s,
        sessions: checked.sessions,
        segments: checked.segments,
        failed: checked.failed,
        cells: checked.cells,
        peak_heap_bytes: m.peak_heap_bytes,
        trace: None,
    }
}

/// `fleet-scale`'s timed batch: `FleetSessionDriver`s sharded with
/// `shard_ranges` over `threads` queues, one `drive_sessions` each, as
/// `core::fleet` shards a cell.
fn drive_fleet(
    setups: &[SessionSetup],
    scheme: Scheme,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    threads: usize,
) -> Vec<Option<SessionMetrics>> {
    let ranges = shard_ranges(setups.len(), threads);
    parallel_map_indexed(threads, ranges.len(), |shard| {
        let range = ranges.get(shard).cloned().unwrap_or(0..0);
        let mut drivers: Vec<FleetSessionDriver> = setups[range]
            .iter()
            .map(|setup| FleetSessionDriver::new(scheme, setup, faults, policy, Level::Off, false))
            .collect();
        drive_sessions(&mut drivers);
        drivers
            .into_iter()
            .map(|d| d.into_parts().0)
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Set-up inputs the traced pass prepares itself, with spans.
struct Prepared {
    entries: Vec<(VideoServer, Vec<HeadTrace>)>,
    network: NetworkTrace,
    networks: Vec<NetworkTrace>,
    faults: FaultPlan,
    policy: RetryPolicy,
}

/// Timed mirror of `Evaluation::prepare_videos_threaded`, plus the
/// workload's fault plan and network variants.
fn prepare_traced(
    workload: Workload,
    config: ExperimentConfig,
    catalog: &VideoCatalog,
    ids: &[usize],
    threads: usize,
    acc: &mut LayerAcc,
) -> Prepared {
    let specs: Vec<_> = ids.iter().filter_map(|v| catalog.video(*v)).collect();
    let prepared = parallel_map_indexed(threads, specs.len(), |i| {
        let task = Instant::now();
        let spec = specs[i];
        let mut acc = LayerAcc::default();
        let traces = acc.time(Layer::TraceGenerate, || {
            VideoTraces::generate(spec, config.users_total, config.seed, GazeConfig::default())
        });
        let (server, eval) = acc.time(Layer::ServerPrepare, || {
            let (train, eval) = traces.split(config.train_users, config.seed);
            // The paper's 10% rule, scaled with the population as
            // `prepare_videos_threaded` scales it.
            let mut ptile_config = PtileConfig::paper_default();
            ptile_config.min_users = ((config.users_total as f64 * 0.10).ceil() as usize).max(2);
            let server =
                VideoServer::prepare(spec, &train, TileGrid::paper_default(), ptile_config);
            (
                server,
                eval.into_iter().cloned().collect::<Vec<HeadTrace>>(),
            )
        });
        acc.task(nanos(task.elapsed()));
        ((server, eval), acc)
    });
    let mut entries = Vec::with_capacity(prepared.len());
    for (entry, task_acc) in prepared {
        entries.push(entry);
        acc.merge(task_acc);
    }
    let task = Instant::now();
    let longest = longest_sec(catalog, ids);
    let (network, networks, (faults, policy)) = acc.time(Layer::TraceGenerate, || {
        let networks = match workload {
            Workload::FleetScale => fleet_networks(config.seed),
            _ => Vec::new(),
        };
        let network = config.network((longest as usize).max(60) * 2);
        (network, networks, workload.faults(config.seed, longest))
    });
    acc.task(nanos(task.elapsed()));
    Prepared {
        entries,
        network,
        networks,
        faults,
        policy,
    }
}

/// The traced pass: the same sessions as [`run_pass`] for the same
/// seed, through the span-recording mirrors.
pub fn run_traced_pass(
    workload: Workload,
    seed: u64,
    size: &Size,
    catalog: &VideoCatalog,
    threads: usize,
) -> Pass {
    let ids = size.video_ids(catalog);
    let config = size.config(seed);
    let mut acc = LayerAcc::default();
    let start = Instant::now();
    let prepared = prepare_traced(workload, config, catalog, &ids, threads, &mut acc);
    let setup_s = start.elapsed().as_secs_f64();
    let (faults, policy) = (&prepared.faults, &prepared.policy);
    let videos = Videos {
        entries: prepared
            .entries
            .iter()
            .map(|(server, users)| (server, users.as_slice()))
            .collect(),
        network: &prepared.network,
        config,
    };
    let schemes = workload.schemes();
    let mut engine = EngineStats::default();
    let start = Instant::now();
    let (setups, sessions, cell_sizes) = match workload {
        Workload::PaperMatrix | Workload::ChaosMpc => {
            let mut setups = Vec::new();
            let mut tasks = Vec::new();
            let mut cell_sizes = Vec::new();
            for video in 0..videos.entries.len() {
                for scheme in schemes {
                    let cell = videos.cell_setups(video);
                    cell_sizes.push(cell.len());
                    tasks.extend(std::iter::repeat_n(*scheme, cell.len()));
                    setups.extend(cell);
                }
            }
            let sessions = if workload == Workload::PaperMatrix {
                // `run_matrix`: one loop-engine session per task.
                let results = parallel_map_indexed(threads, setups.len(), |i| {
                    loop_session(tasks[i], &setups[i], faults, policy)
                });
                results
                    .into_iter()
                    .map(|(m, session_acc)| {
                        acc.merge(session_acc);
                        Some(m)
                    })
                    .collect()
            } else {
                // `run_fleet_traced`: one sharded event queue per cell.
                let mut sessions = Vec::with_capacity(setups.len());
                let mut first = 0;
                for n in &cell_sizes {
                    let cell = &setups[first..first + n];
                    let (m, cell_acc, stats) =
                        drive_traced(cell, tasks[first], faults, policy, threads);
                    sessions.extend(m);
                    acc.merge(cell_acc);
                    engine.accumulate(&stats);
                    first += n;
                }
                sessions
            };
            (setups, sessions, cell_sizes)
        }
        Workload::FleetScale => {
            let setups = videos.fleet_setups(&prepared.networks);
            let (sessions, fleet_acc, stats) =
                drive_traced(&setups, Scheme::Ptile, faults, policy, threads);
            acc.merge(fleet_acc);
            engine = stats;
            let ones = vec![1; setups.len()];
            (setups, sessions, ones)
        }
    };
    let run_s = start.elapsed().as_secs_f64();
    let (checked, complete) = Checked::sessions(&setups, sessions, &cell_sizes, &[]);
    let mut trace = Trace {
        acc,
        engine,
        ..Trace::default()
    };
    for m in &complete {
        trace.resilience.accumulate(m.resilience());
        for r in m.records() {
            if r.decode_scheme == DecoderScheme::Ptile {
                trace.ptile_segments += 1;
            }
            if r.quality_level > 0 {
                trace.delivered_bits += r.bits;
            }
        }
    }
    Pass {
        setup_s,
        run_s,
        probe_s: 0.0,
        sessions: checked.sessions,
        segments: checked.segments,
        failed: checked.failed,
        cells: checked.cells,
        peak_heap_bytes: 0,
        trace: Some(Box::new(trace)),
    }
}
