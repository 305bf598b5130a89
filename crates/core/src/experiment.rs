//! Sweeps over videos × schemes × traces × users (Section V-C).

use std::collections::BTreeMap;

use ee360_abr::controller::Scheme;
use ee360_cluster::ptile::PtileConfig;
use ee360_geom::grid::TileGrid;
use ee360_obs::{Level, Record, Recorder};
use ee360_power::model::Phone;
use ee360_sim::metrics::SessionMetrics;
use ee360_sim::resilience::RetryPolicy;
use ee360_support::parallel::parallel_map_indexed;
use ee360_trace::dataset::{VideoTraces, PAPER_TRAIN_USERS, PAPER_USER_COUNT};
use ee360_trace::fault::FaultPlan;
use ee360_trace::head::{GazeConfig, HeadTrace};
use ee360_trace::network::NetworkTrace;
use ee360_video::catalog::{VideoCatalog, VideoSpec};

use crate::client::{make_controller, run_session_resilient, run_session_traced, SessionSetup};
use crate::server::VideoServer;

/// Experiment-wide knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Phone whose power models price the energy.
    pub phone: Phone,
    /// Seed for traces, network and the train/eval split.
    pub seed: u64,
    /// Users generated per video (paper: 48).
    pub users_total: usize,
    /// Users used to construct Ptiles (paper: 40).
    pub train_users: usize,
    /// Scale factor applied to the LTE trace (1.0 = trace 2, 2.0 = trace 1).
    pub network_scale: f64,
    /// Optional cap on segments per session (tests); `None` = full video.
    pub max_segments: Option<usize>,
}

ee360_support::impl_json_struct!(ExperimentConfig {
    phone,
    seed,
    users_total,
    train_users,
    network_scale,
    max_segments
});

impl ExperimentConfig {
    /// The paper-scale configuration under *trace 2*.
    pub fn paper_trace2() -> Self {
        Self {
            phone: Phone::Pixel3,
            seed: 20220706,
            users_total: PAPER_USER_COUNT,
            train_users: PAPER_TRAIN_USERS,
            network_scale: 1.0,
            max_segments: None,
        }
    }

    /// The paper-scale configuration under *trace 1* (2× bandwidth).
    pub fn paper_trace1() -> Self {
        Self {
            network_scale: 2.0,
            ..Self::paper_trace2()
        }
    }

    /// A small, fast configuration for unit tests and doctests.
    pub fn quick_test() -> Self {
        Self {
            phone: Phone::Pixel3,
            seed: 7,
            users_total: 10,
            train_users: 8,
            network_scale: 1.0,
            max_segments: Some(60),
        }
    }

    fn validate(&self) {
        assert!(
            self.train_users >= 1 && self.train_users < self.users_total,
            "train_users must be in 1..users_total"
        );
        assert!(self.network_scale > 0.0, "network scale must be positive");
    }

    /// The network trace this configuration streams over.
    pub fn network(&self, duration_sec: usize) -> NetworkTrace {
        NetworkTrace::paper_trace2(duration_sec, self.seed).scaled(self.network_scale)
    }
}

/// Aggregated outcome of one (video, scheme) cell, averaged over the
/// evaluation users.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeOutcome {
    /// The scheme evaluated.
    pub scheme: Scheme,
    /// Table III video id.
    pub video_id: usize,
    /// Evaluation users averaged over.
    pub users: usize,
    /// Segments per session.
    pub segments: usize,
    /// Mean energy per segment, mJ (Fig. 9's y-axis).
    pub mean_energy_mj_per_segment: f64,
    /// Mean transmission energy per segment, mJ.
    pub mean_transmission_mj: f64,
    /// Mean decode energy per segment, mJ.
    pub mean_decode_mj: f64,
    /// Mean render energy per segment, mJ.
    pub mean_render_mj: f64,
    /// Mean per-segment QoE (Fig. 11's y-axis).
    pub mean_qoe: f64,
    /// Mean `Q_o` (Fig. 11d "average video quality").
    pub mean_quality: f64,
    /// Mean quality-variation impairment (Fig. 11d).
    pub mean_variation: f64,
    /// Mean rebuffering impairment (Fig. 11d).
    pub mean_rebuffering: f64,
    /// Total stall seconds per session (averaged over users).
    pub mean_stall_sec: f64,
    /// Mean chosen quality level (1..5).
    pub mean_quality_level: f64,
    /// Mean displayed frame rate, fps.
    pub mean_fps: f64,
}

ee360_support::impl_json_struct!(SchemeOutcome {
    scheme,
    video_id,
    users,
    segments,
    mean_energy_mj_per_segment,
    mean_transmission_mj,
    mean_decode_mj,
    mean_render_mj,
    mean_qoe,
    mean_quality,
    mean_variation,
    mean_rebuffering,
    mean_stall_sec,
    mean_quality_level,
    mean_fps
});

impl SchemeOutcome {
    /// The cell's outcome from its sessions' reductions, in user order:
    /// each field is the sum of the per-session values over the users,
    /// divided by the user count.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` is empty.
    pub(crate) fn from_means(scheme: Scheme, video_id: usize, sessions: &[SessionMeans]) -> Self {
        assert!(!sessions.is_empty(), "need at least one session");
        let n = sessions.len() as f64;
        let mean = |f: fn(&SessionMeans) -> f64| sessions.iter().map(f).sum::<f64>() / n;
        Self {
            scheme,
            video_id,
            users: sessions.len(),
            segments: sessions[0].segments,
            mean_energy_mj_per_segment: mean(|s| s.energy_mj_per_segment),
            mean_transmission_mj: mean(|s| s.transmission_mj),
            mean_decode_mj: mean(|s| s.decode_mj),
            mean_render_mj: mean(|s| s.render_mj),
            mean_qoe: mean(|s| s.qoe),
            mean_quality: mean(|s| s.quality),
            mean_variation: mean(|s| s.variation),
            mean_rebuffering: mean(|s| s.rebuffering),
            mean_stall_sec: mean(|s| s.stall_sec),
            mean_quality_level: mean(|s| s.quality_level),
            mean_fps: mean(|s| s.fps),
        }
    }
}

/// One session reduced to what its cell averages: the segment count and
/// the eleven per-session values behind [`SchemeOutcome`]'s means. Sweeps
/// reduce each session on its worker as soon as it finishes, so a cell
/// keeps these twelve numbers per user, not every segment record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SessionMeans {
    segments: usize,
    energy_mj_per_segment: f64,
    transmission_mj: f64,
    decode_mj: f64,
    render_mj: f64,
    qoe: f64,
    quality: f64,
    variation: f64,
    rebuffering: f64,
    stall_sec: f64,
    quality_level: f64,
    fps: f64,
}

impl SessionMeans {
    /// Reduces one finished session.
    pub(crate) fn of(session: &SessionMetrics) -> Self {
        let n = session.len().max(1) as f64;
        let energy = session.energy_breakdown_mj();
        Self {
            segments: session.len(),
            energy_mj_per_segment: session.total_energy_mj() / n,
            transmission_mj: energy.transmission_mj / n,
            decode_mj: energy.decode_mj / n,
            render_mj: energy.render_mj / n,
            qoe: session.mean_qoe(),
            quality: session.mean_quality(),
            variation: session.mean_variation(),
            rebuffering: session.mean_rebuffering(),
            stall_sec: session.total_stall_sec(),
            quality_level: session.mean_quality_level(),
            fps: session.mean_fps(),
        }
    }
}

/// Folds one session's private recorder into the cell's `rec`: the
/// session count, its registry, windows and events. Fan-outs call it in
/// user-index order after the join, so the merged recorder is a pure
/// function of the input for any worker count or engine.
pub(crate) fn merge_session(rec: &mut Recorder, session: &Recorder) {
    rec.count("experiment.sessions", 1);
    rec.merge_registry(session.registry());
    rec.merge_windows(session.windows());
    for event in session.events() {
        rec.record(*event);
    }
}

/// A prepared evaluation: traces generated, Ptiles constructed, ready to
/// run any (video, scheme) cell. Construction is the expensive part;
/// `run` is cheap enough to sweep.
#[derive(Debug, Clone)]
pub struct Evaluation {
    config: ExperimentConfig,
    catalog: VideoCatalog,
    servers: BTreeMap<usize, VideoServer>,
    eval_traces: BTreeMap<usize, Vec<HeadTrace>>,
    network: NetworkTrace,
    /// Workers `run` fans sessions out across (per user). Defaults to 1 so
    /// cell-level sweeps ([`crate::parallel::run_matrix`]) do not
    /// oversubscribe; single cells on idle cores benefit from more.
    session_threads: usize,
}

impl Evaluation {
    /// Prepares every video in the catalog under the given configuration.
    pub fn prepare(config: ExperimentConfig) -> Self {
        Self::prepare_videos(config, &VideoCatalog::paper_default(), None)
    }

    /// Prepares only the listed video ids (or all when `None`), fanning
    /// the per-video work (trace generation + Ptile construction, the
    /// expensive part) across the machine's cores. Per-video preparation
    /// is independently seeded, so the result is identical to the
    /// sequential path regardless of worker count.
    pub fn prepare_videos(
        config: ExperimentConfig,
        catalog: &VideoCatalog,
        videos: Option<&[usize]>,
    ) -> Self {
        Self::prepare_videos_threaded(
            config,
            catalog,
            videos,
            ee360_support::parallel::default_threads(),
        )
    }

    /// [`Self::prepare_videos`] with an explicit worker count (the
    /// equivalence suite pins `threads ∈ {1, 4, 16}` byte-identical).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or the configuration is invalid.
    pub fn prepare_videos_threaded(
        config: ExperimentConfig,
        catalog: &VideoCatalog,
        videos: Option<&[usize]>,
        threads: usize,
    ) -> Self {
        config.validate();
        let specs: Vec<&VideoSpec> = catalog
            .videos()
            .iter()
            .filter(|spec| videos.is_none_or(|ids| ids.contains(&spec.id)))
            .collect();
        let prepared = parallel_map_indexed(threads.max(1), specs.len(), |i| {
            let spec = specs[i];
            let traces =
                VideoTraces::generate(spec, config.users_total, config.seed, GazeConfig::default());
            let (train, eval) = traces.split(config.train_users, config.seed);
            // "A Ptile is only constructed if it covers at least five users
            // (i.e., 10% of the users in the dataset)" — scale the absolute
            // threshold with the population so reduced-scale runs keep the
            // paper's 10% rule.
            let mut ptile_config = PtileConfig::paper_default();
            ptile_config.min_users = ((config.users_total as f64 * 0.10).ceil() as usize).max(2);
            let server =
                VideoServer::prepare(spec, &train, TileGrid::paper_default(), ptile_config);
            let eval_users: Vec<HeadTrace> = eval.into_iter().cloned().collect();
            (spec.id, server, eval_users, spec.duration_sec as usize)
        });
        let mut servers = BTreeMap::new();
        let mut eval_traces = BTreeMap::new();
        let mut max_duration = 0usize;
        for (id, server, eval_users, duration) in prepared {
            servers.insert(id, server);
            eval_traces.insert(id, eval_users);
            max_duration = max_duration.max(duration);
        }
        let network = config.network(max_duration.max(60) * 2);
        Self {
            config,
            catalog: catalog.clone(),
            servers,
            eval_traces,
            network,
            session_threads: 1,
        }
    }

    /// Sets how many workers [`Self::run`] fans sessions across. Sessions
    /// are independent and results are collected in user order, so the
    /// outcome is identical to the sequential path for any count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_session_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one session worker");
        self.session_threads = threads;
        self
    }

    /// The session fan-out in force.
    pub fn session_threads(&self) -> usize {
        self.session_threads
    }

    /// The configuration in force.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The prepared server for a video.
    pub fn server(&self, video_id: usize) -> Option<&VideoServer> {
        self.servers.get(&video_id)
    }

    /// The evaluation users of a video.
    pub fn eval_users(&self, video_id: usize) -> &[HeadTrace] {
        self.eval_traces
            .get(&video_id)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The network trace in force.
    pub fn network(&self) -> &NetworkTrace {
        &self.network
    }

    /// The prepared server of a video and its evaluation users: the one
    /// lookup behind every cell entry point.
    ///
    /// # Panics
    ///
    /// Panics if the video was not prepared.
    pub(crate) fn prepared(&self, video_id: usize) -> (&VideoServer, &[HeadTrace]) {
        let server = self
            .servers
            .get(&video_id)
            // lint:allow(no-panic-paths, "documented panic: the cell entry points require a prepared video")
            .unwrap_or_else(|| panic!("video {video_id} was not prepared"));
        (server, self.eval_users(video_id))
    }

    /// One evaluation user's session over this evaluation's network,
    /// phone and segment cap.
    pub(crate) fn setup<'a>(
        &'a self,
        server: &'a VideoServer,
        user: &'a HeadTrace,
    ) -> SessionSetup<'a> {
        SessionSetup {
            server,
            user,
            network: &self.network,
            phone: self.config.phone,
            max_segments: self.config.max_segments,
        }
    }

    /// Runs one (video, scheme) cell over all evaluation users, fanning
    /// sessions across [`Self::session_threads`] workers: [`Self::run_traced`]
    /// in the paper's benign world with a recorder that keeps nothing.
    /// Sessions share nothing mutable and land in user order, so the
    /// outcome matches the sequential path for any worker count.
    ///
    /// # Panics
    ///
    /// Panics if the video was not prepared.
    pub fn run(&self, video_id: usize, scheme: Scheme) -> SchemeOutcome {
        self.run_traced(
            video_id,
            scheme,
            &FaultPlan::none(),
            &RetryPolicy::disabled(),
            &mut Recorder::new(Level::Off),
        )
    }

    /// [`Self::run`] under a fault plan with observability: each session
    /// runs with its own private [`Recorder`] (level and profiling flag
    /// inherited from `rec`), and the per-session registries and event
    /// streams are merged into `rec` in *user index order* after the
    /// fan-out joins. Merge order is therefore a pure function of the
    /// input — the aggregated metrics are identical for any
    /// [`Self::session_threads`] count, and the simulation results are
    /// bit-identical to the untraced path. Each worker reduces its
    /// session to the values the cell averages before the join, so at
    /// most one session's segment records per worker are live.
    ///
    /// # Panics
    ///
    /// Panics if the video was not prepared.
    pub fn run_traced(
        &self,
        video_id: usize,
        scheme: Scheme,
        faults: &FaultPlan,
        policy: &RetryPolicy,
        rec: &mut Recorder,
    ) -> SchemeOutcome {
        let (server, users) = self.prepared(video_id);
        let results: Vec<(SessionMeans, Recorder)> =
            parallel_map_indexed(self.session_threads, users.len(), |i| {
                let mut session_rec = rec.worker();
                let mut controller = make_controller(scheme, self.config.phone);
                let metrics = run_session_traced(
                    controller.as_mut(),
                    &self.setup(server, &users[i]),
                    faults,
                    policy,
                    &mut session_rec,
                );
                (SessionMeans::of(&metrics), session_rec)
            });
        let mut sessions = Vec::with_capacity(results.len());
        for (means, session_rec) in results {
            merge_session(rec, &session_rec);
            sessions.push(means);
        }
        SchemeOutcome::from_means(scheme, video_id, &sessions)
    }

    /// Runs a single evaluation user of a (video, scheme) cell — the
    /// session-granular work item [`crate::parallel::run_matrix`]
    /// load-balances over.
    ///
    /// # Panics
    ///
    /// Panics if the video was not prepared or `user` is out of range.
    pub fn run_user(&self, video_id: usize, scheme: Scheme, user: usize) -> SessionMetrics {
        let (server, users) = self.prepared(video_id);
        run_session_resilient(
            scheme,
            &self.setup(server, &users[user]),
            &FaultPlan::none(),
            &RetryPolicy::disabled(),
        )
    }

    /// [`Self::run_traced`] on the event-driven fleet engine of
    /// [`crate::fleet`]: same sessions, same recorder merge order, same
    /// bytes out — but driven from one logical-time queue sharded across
    /// [`Self::session_threads`] workers.
    ///
    /// # Panics
    ///
    /// Panics if the video was not prepared or has no evaluation users.
    pub fn run_fleet_traced(
        &self,
        video_id: usize,
        scheme: Scheme,
        faults: &FaultPlan,
        policy: &RetryPolicy,
        rec: &mut Recorder,
    ) -> SchemeOutcome {
        let (sessions, _stats) = crate::fleet::fleet_sessions_traced(
            self,
            video_id,
            scheme,
            faults,
            policy,
            self.session_threads,
            rec,
        );
        let means: Vec<SessionMeans> = sessions.iter().map(SessionMeans::of).collect();
        SchemeOutcome::from_means(scheme, video_id, &means)
    }

    /// Runs every scheme for one video.
    pub fn run_all_schemes(&self, video_id: usize) -> Vec<SchemeOutcome> {
        Scheme::ALL.iter().map(|s| self.run(video_id, *s)).collect()
    }

    /// The catalog backing this evaluation.
    pub fn catalog(&self) -> &VideoCatalog {
        &self.catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::json;
    use ee360_trace::fault::FaultConfig;

    fn quick_eval(videos: &[usize]) -> Evaluation {
        let mut config = ExperimentConfig::quick_test();
        config.max_segments = Some(40);
        Evaluation::prepare_videos(config, &VideoCatalog::paper_default(), Some(videos))
    }

    #[test]
    fn prepares_requested_videos_only() {
        let eval = quick_eval(&[2, 6]);
        assert!(eval.server(2).is_some());
        assert!(eval.server(6).is_some());
        assert!(eval.server(1).is_none());
        assert_eq!(eval.eval_users(2).len(), 2); // 10 total − 8 train
    }

    /// The fold cells used before sessions were reduced on their
    /// workers: every mean taken over whole sessions. Kept as the
    /// reference [`SchemeOutcome::from_means`] must reproduce.
    fn whole_session_fold(
        scheme: Scheme,
        video_id: usize,
        sessions: &[SessionMetrics],
    ) -> SchemeOutcome {
        let n = sessions.len() as f64;
        let mean = |f: &dyn Fn(&SessionMetrics) -> f64| sessions.iter().map(f).sum::<f64>() / n;
        SchemeOutcome {
            scheme,
            video_id,
            users: sessions.len(),
            segments: sessions[0].len(),
            mean_energy_mj_per_segment: mean(&|s| s.total_energy_mj() / s.len().max(1) as f64),
            mean_transmission_mj: mean(&|s| {
                s.energy_breakdown_mj().transmission_mj / s.len().max(1) as f64
            }),
            mean_decode_mj: mean(&|s| s.energy_breakdown_mj().decode_mj / s.len().max(1) as f64),
            mean_render_mj: mean(&|s| s.energy_breakdown_mj().render_mj / s.len().max(1) as f64),
            mean_qoe: mean(&|s| s.mean_qoe()),
            mean_quality: mean(&|s| s.mean_quality()),
            mean_variation: mean(&|s| s.mean_variation()),
            mean_rebuffering: mean(&|s| s.mean_rebuffering()),
            mean_stall_sec: mean(&|s| s.total_stall_sec()),
            mean_quality_level: mean(&|s| s.mean_quality_level()),
            mean_fps: mean(&|s| s.mean_fps()),
        }
    }

    #[test]
    fn means_fold_matches_the_whole_session_fold() {
        let mut config = ExperimentConfig::quick_test();
        config.users_total = 14; // six evaluation users
        config.max_segments = Some(40);
        let eval = Evaluation::prepare_videos(config, &VideoCatalog::paper_default(), Some(&[2]));
        let fanned = [1usize, 4].map(|threads| eval.clone().with_session_threads(threads));
        let (server, users) = eval.prepared(2);
        assert_eq!(users.len(), 6);
        let plans = [
            (FaultPlan::none(), RetryPolicy::disabled()),
            (
                FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 11),
                RetryPolicy::default_mobile(),
            ),
        ];
        let mut faulted = false;
        for (faults, policy) in &plans {
            for scheme in Scheme::ALL.into_iter().chain([Scheme::RobustMpc]) {
                let sessions: Vec<SessionMetrics> = users
                    .iter()
                    .map(|user| {
                        run_session_resilient(scheme, &eval.setup(server, user), faults, policy)
                    })
                    .collect();
                faulted |= sessions.iter().any(|s| !s.resilience().is_clean());
                let reference = json::to_string(&whole_session_fold(scheme, 2, &sessions)).unwrap();
                let means: Vec<SessionMeans> = sessions.iter().map(SessionMeans::of).collect();
                assert_eq!(
                    json::to_string(&SchemeOutcome::from_means(scheme, 2, &means)).unwrap(),
                    reference,
                    "{scheme:?}: the means fold diverged"
                );
                for eval in &fanned {
                    let mut rec = Recorder::new(Level::Off);
                    let traced = eval.run_traced(2, scheme, faults, policy, &mut rec);
                    assert_eq!(
                        json::to_string(&traced).unwrap(),
                        reference,
                        "{scheme:?}: run_traced at {} session threads diverged",
                        eval.session_threads()
                    );
                }
            }
        }
        assert!(faulted, "the chaos plan must reach the sessions");
    }

    #[test]
    fn outcome_fields_are_populated() {
        let eval = quick_eval(&[2]);
        let out = eval.run(2, Scheme::Ptile);
        assert_eq!(out.video_id, 2);
        assert_eq!(out.users, 2);
        assert_eq!(out.segments, 40);
        assert!(out.mean_energy_mj_per_segment > 0.0);
        assert!(out.mean_qoe > 0.0);
        assert!(out.mean_quality >= out.mean_qoe); // impairments only subtract
        assert!(out.mean_fps > 20.0 && out.mean_fps <= 30.0);
        let parts = out.mean_transmission_mj + out.mean_decode_mj + out.mean_render_mj;
        assert!((parts - out.mean_energy_mj_per_segment).abs() < 1e-6);
    }

    #[test]
    fn scheme_energy_ordering_holds_on_average() {
        // The headline ordering: Ours < Ptile < Ctile in energy.
        let eval = quick_eval(&[2]);
        let ctile = eval.run(2, Scheme::Ctile);
        let ptile = eval.run(2, Scheme::Ptile);
        let ours = eval.run(2, Scheme::Ours);
        assert!(
            ptile.mean_energy_mj_per_segment < ctile.mean_energy_mj_per_segment,
            "ptile {} vs ctile {}",
            ptile.mean_energy_mj_per_segment,
            ctile.mean_energy_mj_per_segment
        );
        assert!(
            ours.mean_energy_mj_per_segment < ptile.mean_energy_mj_per_segment,
            "ours {} vs ptile {}",
            ours.mean_energy_mj_per_segment,
            ptile.mean_energy_mj_per_segment
        );
    }

    #[test]
    fn trace1_config_doubles_bandwidth() {
        let t2 = ExperimentConfig::paper_trace2();
        let t1 = ExperimentConfig::paper_trace1();
        let n2 = t2.network(100);
        let n1 = t1.network(100);
        assert!((n1.mean_bps() / n2.mean_bps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn run_all_schemes_covers_all_five() {
        let eval = quick_eval(&[6]);
        let outs = eval.run_all_schemes(6);
        assert_eq!(outs.len(), 5);
        let schemes: Vec<Scheme> = outs.iter().map(|o| o.scheme).collect();
        assert_eq!(schemes, Scheme::ALL.to_vec());
    }

    #[test]
    #[should_panic(expected = "not prepared")]
    fn unprepared_video_panics() {
        let eval = quick_eval(&[2]);
        let _ = eval.run(5, Scheme::Ctile);
    }

    #[test]
    #[should_panic(expected = "train_users")]
    fn bad_split_config_panics() {
        let mut config = ExperimentConfig::quick_test();
        config.train_users = config.users_total;
        let _ = Evaluation::prepare_videos(config, &VideoCatalog::paper_default(), Some(&[2]));
    }
}
