//! "Ours": the MPC controller with the dynamic-programming solver
//! (Section IV-C).
//!
//! Each segment, the controller
//!
//! 1. reads the buffer `B_k` and the prefetched metadata for the next `H`
//!    segments,
//! 2. takes the harmonic-mean bandwidth estimate for the horizon,
//! 3. solves Eq. 8 over segments `k..k+H−1` with a DP over discretised
//!    buffer states (500 ms granularity), minimising energy subject to the
//!    buffer constraint (Eq. 7, enforced as a large stall penalty so a
//!    feasible path always exists) and the QoE-loss constraint (8c,
//!    `Q(v,f) ≥ (1−ε)·Q(v_m,f_m)` with ε = 5%),
//! 4. issues the first decision and slides the window (steps (d)–(e)).
//!
//! The DP is `O(H · |B| · V · F)` — the paper's `O(HVF)` times the small
//! constant number of buffer states.
//!
//! When no Ptile covers the predicted viewport the controller downloads
//! conventional tiles at the best sustainable quality, as the paper's
//! client does (Section IV-B).

use std::cell::RefCell;

use ee360_power::model::{DecoderScheme, Phone, PowerModel};
use ee360_predict::forecast::ArForecaster;
use ee360_qoe::framerate::{alpha, framerate_factor};
use ee360_qoe::quality::QoModel;
use ee360_video::content::SiTi;
use ee360_video::ladder::{EncodingLadder, FrameRate, QualityLevel};
use ee360_video::segment::{BUFFER_THRESHOLD_SEC, LOOKAHEAD_SEGMENTS, SEGMENT_DURATION_SEC};

use crate::baselines::RateBasedController;
use crate::controller::{Controller, Scheme, SolverStats};
use crate::plan::{SegmentContext, SegmentPlan};
use crate::sizer::{SchemeSizer, FOV_AREA_FRACTION};

/// MPC tuning (paper values by default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// Look-ahead horizon `H` in segments.
    pub horizon: usize,
    /// QoE loss tolerance ε of constraint (8c).
    pub epsilon: f64,
    /// Buffer-state granularity, seconds (the paper discretises at 500 ms).
    pub buffer_granularity_sec: f64,
    /// Buffer threshold β, seconds.
    pub buffer_threshold_sec: f64,
    /// Penalty per second of predicted stall, in mJ — large enough that the
    /// DP only stalls when physically unavoidable (Eq. 7 as a soft-exact
    /// constraint).
    pub stall_penalty_mj_per_sec: f64,
    /// Which phone's Table I models price the energy.
    pub phone: Phone,
    /// Extension (off by default, not in the paper): replace the constant
    /// horizon bandwidth with an AR(1) per-step forecast fitted to the
    /// observed throughputs. See the ablations for its effect.
    pub use_forecast: bool,
}

ee360_support::impl_json_struct!(MpcConfig {
    horizon,
    epsilon,
    buffer_granularity_sec,
    buffer_threshold_sec,
    stall_penalty_mj_per_sec,
    phone,
    use_forecast
});

impl MpcConfig {
    /// The paper's configuration: H = 5, ε = 5%, 500 ms buffer states,
    /// β = 3 s, Pixel 3.
    pub fn paper_default() -> Self {
        Self {
            horizon: LOOKAHEAD_SEGMENTS,
            epsilon: 0.05,
            buffer_granularity_sec: 0.5,
            buffer_threshold_sec: BUFFER_THRESHOLD_SEC,
            stall_penalty_mj_per_sec: 1.0e7,
            phone: Phone::Pixel3,
            use_forecast: false,
        }
    }

    fn validate(&self) {
        assert!(self.horizon >= 1, "horizon must be at least 1");
        assert!(
            (0.0..1.0).contains(&self.epsilon),
            "epsilon must be in [0, 1)"
        );
        assert!(
            self.buffer_granularity_sec > 0.0,
            "buffer granularity must be positive"
        );
        assert!(
            self.buffer_threshold_sec >= self.buffer_granularity_sec,
            "threshold must be at least one granule"
        );
        assert!(
            self.stall_penalty_mj_per_sec > 0.0,
            "stall penalty must be positive"
        );
    }
}

impl Default for MpcConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One candidate (quality, frame-rate) tuple with its precomputed bits.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Quality level `v`.
    pub quality: QualityLevel,
    /// Frame rate `f`, fps.
    pub fps: f64,
    /// Ptile segment size: the tile at `(v, f)` plus the background.
    pub bits: f64,
    /// Frame-rate-scaled Q_o for constraint (8c).
    pub q_vf: f64,
}

/// One horizon step's pricing tables and candidate set, refilled by
/// [`MpcController::candidates_into`]. Reused across steps and plans,
/// so a refill allocates nothing once the capacities have grown to the
/// ladder's size.
#[derive(Debug, Clone, Default)]
pub struct StepPricing {
    /// Eq. 4's frame-rate factor `num(f) / den` per ladder rate.
    rate_factor: Vec<f64>,
    /// Per quality level: `Q_o(content, v)` and the Ptile prefix
    /// `R(v) · area · pen(area, v)`.
    quality_terms: Vec<(f64, f64)>,
    /// The step's candidates, in ladder order.
    candidates: Vec<Candidate>,
}

impl StepPricing {
    /// The candidates of the last refill, in ladder order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }
}

/// The deterministic buffer transition the DP and the oracle share.
///
/// Takes the discrete buffer level at request time, returns the stall time
/// and the next discrete level (after Eq. 6's `max`, segment append and
/// wait-trim to β), both rounded to the grid.
pub(crate) fn dp_transition(
    buffer_sec: f64,
    download_sec: f64,
    threshold_sec: f64,
    granularity_sec: f64,
) -> (f64, f64) {
    let stall = (download_sec - buffer_sec).max(0.0);
    let after = ((buffer_sec - download_sec).max(0.0) + SEGMENT_DURATION_SEC).min(threshold_sec);
    // Round down to the grid (conservative: never assumes more buffer).
    let snapped = (after / granularity_sec).floor() * granularity_sec;
    (stall, snapped.max(0.0))
}

/// One candidate that passes a step's (8c) floor, priced at that step's
/// bandwidth.
#[derive(Debug, Clone, Copy)]
struct PricedCandidate {
    quality: QualityLevel,
    fps: f64,
    bits: f64,
    download_sec: f64,
    energy_mj: f64,
}

/// Reusable solver buffers, so a steady-state `plan` call performs no
/// heap allocation. Every field is overwritten before it is read; none
/// carries information from one solve to the next except `stats`.
#[derive(Debug, Clone, Default)]
struct SolverScratch {
    /// Per-step horizon bandwidths, filled by each `plan`.
    bandwidths: Vec<f64>,
    /// The current step's pricing tables and candidate set.
    step: StepPricing,
    /// The current step's (8c)-feasible candidates, in candidate order.
    priced: Vec<PricedCandidate>,
    /// DP cost per buffer state.
    cost: Vec<f64>,
    /// DP cost per buffer state, next step.
    next_cost: Vec<f64>,
    /// First decision reaching each state.
    first: Vec<Option<(QualityLevel, f64, f64)>>,
    /// First decision, next step.
    next_first: Vec<Option<(QualityLevel, f64, f64)>>,
    /// Cumulative work counters (integer-only; never feeds back into
    /// the solve, so instrumentation cannot perturb plans).
    stats: SolverStats,
}

/// The Ours controller.
#[derive(Debug, Clone)]
pub struct MpcController {
    config: MpcConfig,
    sizer: SchemeSizer,
    ladder: EncodingLadder,
    /// `ladder.variants()`, for the per-variant [`Self::candidates`].
    variants: Vec<(QualityLevel, FrameRate)>,
    /// Per ladder rate, lowest first: the fps and the size model's
    /// frame-rate factor `(f / 30)^0.85`, constants of the ladder.
    rates: Vec<(f64, f64)>,
    qo: QoModel,
    power: PowerModel,
    fallback: RateBasedController,
    forecaster: Option<ArForecaster>,
    /// Interior-mutable so the read-only solver entry points can reuse
    /// buffers; never observable from outside.
    scratch: RefCell<SolverScratch>,
}

impl MpcController {
    /// Creates the controller with the paper's models and configuration.
    pub fn paper_default() -> Self {
        Self::new(MpcConfig::paper_default())
    }

    /// Creates the controller with a custom configuration.
    pub fn new(config: MpcConfig) -> Self {
        config.validate();
        let sizer = SchemeSizer::paper_default();
        let ladder = EncodingLadder::paper_default();
        Self {
            config,
            variants: ladder.variants(),
            rates: rate_table(&ladder, &sizer),
            sizer,
            ladder,
            qo: QoModel::paper_default(),
            power: PowerModel::for_phone(config.phone),
            fallback: RateBasedController::new(Scheme::Ctile),
            forecaster: config.use_forecast.then(ArForecaster::paper_default),
            scratch: RefCell::new(SolverScratch::default()),
        }
    }

    /// Replaces the frame-rate ladder (ablations: single-rate = the Ptile
    /// baseline's ladder).
    pub fn with_ladder(mut self, ladder: EncodingLadder) -> Self {
        self.variants = ladder.variants();
        self.rates = rate_table(&ladder, &self.sizer);
        self.ladder = ladder;
        self
    }

    /// The controller's configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// Candidate (v, f) tuples for a segment with the given content,
    /// switching speed and Ptile geometry, in ladder order.
    ///
    /// Prices every variant from scratch through
    /// [`SchemeSizer::ptile_bits`] and Eq. 4's [`framerate_factor`]. The
    /// solver prices through [`Self::candidates_into`] instead; this
    /// per-variant form is what [`crate::reference::solve_reference`]
    /// and the oracle read, so the equivalence suite compares two
    /// independent pricings.
    ///
    /// # Panics
    ///
    /// Panics if `area` is outside `(0, 1]`.
    pub fn candidates(
        &self,
        content: SiTi,
        s_fov: f64,
        area: f64,
        bg_blocks: usize,
    ) -> Vec<Candidate> {
        let a = alpha(s_fov, content.ti());
        let max_fps = self.ladder.max_frame_rate().fps();
        self.variants
            .iter()
            .map(|&(q, f)| {
                let bits = self.sizer.ptile_bits(q, f.fps(), area, bg_blocks, content);
                let q_o = self.qo.q_o(content, self.sizer.effective_bitrate_mbps(q));
                let q_vf = q_o * framerate_factor(f.fps(), max_fps, a);
                Candidate {
                    quality: q,
                    fps: f.fps(),
                    bits,
                    q_vf,
                }
            })
            .collect()
    }

    /// The solver's pricing of one horizon step: the same candidates as
    /// [`Self::candidates`], bit for bit, with each distinct
    /// subexpression computed once per step instead of once per variant.
    ///
    /// Per step: `α` and Eq. 4's `den = 1 − e^{−α}`, the background
    /// region's bits, and the content's encoding difficulty. Per frame
    /// rate: `num(f) / den`. Per quality: `Q_o(content, v)` and the Ptile
    /// prefix `R(v) · area · pen(area, v)`. The size model's
    /// `(f / 30)^0.85` is a constant of the ladder. A candidate is then
    /// `prefix · sff · difficulty · L (+ background)` and `Q_o · factor`:
    /// the operands of [`SizeModel::region_bits`] and
    /// [`framerate_factor`] in their left-to-right order, so every
    /// rounding step matches.
    ///
    /// [`SizeModel::region_bits`]: ee360_video::size_model::SizeModel::region_bits
    ///
    /// # Panics
    ///
    /// Panics if `area` is outside `(0, 1]`.
    // lint:allow(hot-path-alloc, "amortised: refills a cleared scratch Vec whose capacity is retained across plans")
    pub fn candidates_into(
        &self,
        content: SiTi,
        s_fov: f64,
        area: f64,
        bg_blocks: usize,
        step: &mut StepPricing,
    ) {
        assert!(area > 0.0 && area <= 1.0, "ptile area must be in (0, 1]");
        let model = self.sizer.model();
        let a = alpha(s_fov, content.ti());
        assert!(a.is_finite() && a > 0.0, "alpha must be positive");
        let max_fps = self.ladder.max_frame_rate().fps();
        let den = 1.0 - (-a).exp();
        let difficulty = content.encoding_difficulty();
        let background = (area < 1.0 - 1e-12).then(|| {
            model.region_bits(
                1.0 - area,
                bg_blocks.max(1),
                QualityLevel::Q1,
                model.reference_fps(),
                content,
            )
        });

        step.rate_factor.clear();
        step.rate_factor.extend(self.rates.iter().map(|&(fps, _)| {
            let num = 1.0 - (-a * fps / max_fps).exp();
            num / den
        }));
        step.quality_terms.clear();
        step.quality_terms
            .extend(QualityLevel::ALL.iter().map(|&q| {
                let q_o = self.qo.q_o(content, self.sizer.effective_bitrate_mbps(q));
                let prefix = model.whole_frame_bps(q) * area * model.penalty(area, q);
                (q_o, prefix)
            }));

        step.candidates.clear();
        for (&q, &(q_o, prefix)) in QualityLevel::ALL.iter().zip(&step.quality_terms) {
            for (&(fps, sff), &factor) in self.rates.iter().zip(&step.rate_factor) {
                let mut bits = prefix * sff * difficulty * SEGMENT_DURATION_SEC;
                if let Some(bg) = background {
                    bits += bg;
                }
                step.candidates.push(Candidate {
                    quality: q,
                    fps,
                    bits,
                    q_vf: q_o * factor,
                });
            }
        }
    }

    /// The (8c) reference quality `Q(v_m, f_m)`: the best candidate quality
    /// that "can be successfully downloaded" — sustainably, i.e. within one
    /// segment duration at the estimated bandwidth, the same rule the
    /// baselines' "best possible quality" uses. Depends only on the
    /// candidate set and the bandwidth, never on the buffer state — which
    /// is why the solver hoists it out of the per-state DP loop.
    pub(crate) fn reference_quality(&self, candidates: &[Candidate], bandwidth_bps: f64) -> f64 {
        let mut best: Option<f64> = None;
        for c in candidates {
            let dl = c.bits / bandwidth_bps;
            if dl <= SEGMENT_DURATION_SEC {
                best = Some(best.map_or(c.q_vf, |b: f64| b.max(c.q_vf)));
            }
        }
        // Nothing downloadable without stalling: reference from the
        // cheapest candidate so the constraint stays satisfiable.
        best.unwrap_or_else(|| {
            candidates
                .iter()
                .min_by(|a, b| a.bits.total_cmp(&b.bits))
                .map(|c| c.q_vf)
                .unwrap_or(0.0)
        })
    }

    /// Per-segment energy (Eq. 1) of a candidate at the predicted rate.
    pub(crate) fn candidate_energy_mj(&self, c: &Candidate, bandwidth_bps: f64) -> f64 {
        let dl = c.bits / bandwidth_bps;
        self.power.transmission_power_mw() * dl
            + self.power.decode_power_mw(DecoderScheme::Ptile, c.fps) * SEGMENT_DURATION_SEC
            + self.power.render_power_mw(c.fps) * SEGMENT_DURATION_SEC
    }

    /// Fills `buf` with the per-step bandwidths the DP plans against:
    /// the AR forecast when enabled and warm, otherwise the context's
    /// constant estimate. In-place, so the scratch buffer costs nothing
    /// once it has grown to the horizon.
    fn horizon_bandwidths_into(&self, ctx: &SegmentContext, buf: &mut Vec<f64>) {
        let h = self.config.horizon;
        buf.clear();
        if let Some(f) = &self.forecaster {
            // lint:allow(hot-path-alloc, "opt-in forecast extension only: the paper configuration never enables the AR model, and a warm forecast is one small Vec per plan")
            if let Some(fc) = f.forecast(h) {
                buf.extend_from_slice(&fc);
                return;
            }
        }
        buf.resize(h, ctx.predicted_bandwidth_bps);
    }

    /// Public entry to the DP with explicit per-step bandwidths, for
    /// ablations and the equivalence suite against
    /// [`crate::reference::solve_reference`].
    ///
    /// # Panics
    ///
    /// Panics unless `bandwidths.len()` equals the configured horizon.
    pub fn solve_horizon(
        &self,
        ctx: &SegmentContext,
        bandwidths: &[f64],
    ) -> (QualityLevel, f64, f64) {
        self.solve_with_bandwidths(ctx, bandwidths)
    }

    /// The DP core with explicit per-step bandwidths (exposed within the
    /// crate so tests and ablations can inject forecasts directly).
    ///
    /// The same relaxation as [`crate::reference::solve_reference`], in
    /// the same order, so the property suite can pin the two
    /// bit-identical. Per horizon step it prices the candidate set once
    /// into reused scratch ([`Self::candidates_into`]), computes the
    /// (8c) floor and each feasible candidate's download seconds and
    /// energy once instead of once per live state, then relaxes every
    /// live buffer state with the reference's strict-`<` rule. Hoisting
    /// changes no float operation's inputs: the floor depends only on
    /// the candidate set and the bandwidth, and each price only on the
    /// candidate and the bandwidth.
    // lint:allow(hot-path-alloc, "amortised: every push refills a cleared scratch Vec whose capacity is retained across plans")
    pub(crate) fn solve_with_bandwidths(
        &self,
        ctx: &SegmentContext,
        bandwidths: &[f64],
    ) -> (QualityLevel, f64, f64) {
        assert_eq!(
            bandwidths.len(),
            self.config.horizon,
            "one bandwidth per horizon step"
        );
        let cfg = &self.config;
        let gran = cfg.buffer_granularity_sec;
        let n_states = (cfg.buffer_threshold_sec / gran).round() as usize + 1;
        let level_state = |b: f64| ((b / gran).floor() as usize).min(n_states - 1);
        let area = ctx.ptile_area_frac.max(FOV_AREA_FRACTION);

        let mut scratch = self.scratch.borrow_mut();
        let sc = &mut *scratch;
        sc.stats.plans += 1;

        const INF: f64 = f64::INFINITY;
        // cost[state] and the first decision that reached it.
        sc.cost.clear();
        sc.cost.resize(n_states, INF);
        sc.first.clear();
        sc.first.resize(n_states, None);
        sc.next_cost.clear();
        sc.next_cost.resize(n_states, INF);
        sc.next_first.clear();
        sc.next_first.resize(n_states, None);
        let start = level_state(ctx.buffer_sec.min(cfg.buffer_threshold_sec));
        sc.cost[start] = 0.0;

        for (h, &bandwidth) in bandwidths.iter().enumerate() {
            // Content varies over the horizon; switching speed and
            // geometry are held at current values, the only information
            // the client has.
            self.candidates_into(
                ctx.content_at(h),
                ctx.switching_speed_deg_s,
                area,
                ctx.background_blocks,
                &mut sc.step,
            );
            sc.stats.memo_misses += 1;
            let floor =
                (1.0 - cfg.epsilon) * self.reference_quality(&sc.step.candidates, bandwidth);
            sc.priced.clear();
            for c in &sc.step.candidates {
                // Constraint (8c).
                if c.q_vf + 1e-9 < floor {
                    continue;
                }
                sc.priced.push(PricedCandidate {
                    quality: c.quality,
                    fps: c.fps,
                    bits: c.bits,
                    download_sec: c.bits / bandwidth,
                    energy_mj: self.candidate_energy_mj(c, bandwidth),
                });
            }
            for s in 0..n_states {
                if sc.cost[s].is_infinite() {
                    continue;
                }
                sc.stats.states_expanded += sc.step.candidates.len() as u64;
                let b = s as f64 * gran;
                for c in &sc.priced {
                    let (stall, b_next) =
                        dp_transition(b, c.download_sec, cfg.buffer_threshold_sec, gran);
                    let step_cost = c.energy_mj + stall * cfg.stall_penalty_mj_per_sec;
                    let total = sc.cost[s] + step_cost;
                    let ns = level_state(b_next);
                    if total < sc.next_cost[ns] {
                        sc.next_cost[ns] = total;
                        sc.next_first[ns] = sc.first[s].or(Some((c.quality, c.fps, c.bits)));
                    }
                }
            }
            std::mem::swap(&mut sc.cost, &mut sc.next_cost);
            std::mem::swap(&mut sc.first, &mut sc.next_first);
            sc.next_cost.fill(INF);
            sc.next_first.fill(None);
        }

        // Min-energy terminal state, backtracked to the first decision.
        let best = (0..n_states)
            .filter(|&s| sc.cost[s].is_finite())
            .min_by(|&a, &b| sc.cost[a].total_cmp(&sc.cost[b]));
        match best.and_then(|s| sc.first[s]) {
            Some(decision) => decision,
            None => {
                // Pathological (e.g. every candidate violates 8c at every
                // state, which reference_quality prevents): cheapest
                // tuple of the first step's candidate set.
                self.candidates_into(
                    ctx.content_at(0),
                    ctx.switching_speed_deg_s,
                    area,
                    ctx.background_blocks,
                    &mut sc.step,
                );
                let c = sc
                    .step
                    .candidates
                    .iter()
                    .min_by(|a, b| a.bits.total_cmp(&b.bits))
                    // lint:allow(no-panic-paths, "documented invariant: the quality ladder is never empty")
                    .expect("ladder is non-empty");
                (c.quality, c.fps, c.bits)
            }
        }
    }
}

/// Per ladder rate, lowest first: the fps and the size model's
/// frame-rate factor. Checks each rate against Eq. 4's domain here, once
/// per ladder, because the per-step pricing evaluates the factor's
/// numerator without [`framerate_factor`]'s checks (the ladder itself
/// guarantees a positive `f_m`).
fn rate_table(ladder: &EncodingLadder, sizer: &SchemeSizer) -> Vec<(f64, f64)> {
    let max_fps = ladder.max_frame_rate().fps();
    ladder
        .frame_rates()
        .iter()
        .map(|f| {
            let fps = f.fps();
            assert!(
                fps.is_finite() && fps > 0.0 && fps <= max_fps + 1e-9,
                "fps must be in (0, max_fps], got {fps} of {max_fps}"
            );
            (fps, sizer.model().framerate_factor(fps))
        })
        .collect()
}

impl Controller for MpcController {
    fn plan(&mut self, ctx: &SegmentContext) -> SegmentPlan {
        assert!(
            ctx.predicted_bandwidth_bps > 0.0,
            "bandwidth estimate must be positive"
        );
        if !ctx.ptile_available {
            // Section IV-B: no covering Ptile → conventional tiles at the
            // best sustainable quality. The fallback delegate owns its own
            // scratch; the Ptile hot path never takes this branch.
            // lint:allow(hot-path-alloc, "rare no-Ptile fallback delegates to a controller outside the alloc-free contract")
            return self.fallback.plan(ctx);
        }
        // The horizon buffer leaves the scratch while the solve borrows
        // the rest of it; moving a `Vec` in and out allocates nothing.
        let mut bandwidths = std::mem::take(&mut self.scratch.get_mut().bandwidths);
        self.horizon_bandwidths_into(ctx, &mut bandwidths);
        let (quality, fps, bits) = self.solve_with_bandwidths(ctx, &bandwidths);
        self.scratch.get_mut().bandwidths = bandwidths;
        SegmentPlan {
            quality,
            fps,
            bits,
            decode_scheme: DecoderScheme::Ptile,
            effective_bitrate_mbps: self.sizer.effective_bitrate_mbps(quality),
        }
    }

    fn scheme(&self) -> Scheme {
        Scheme::Ours
    }

    fn observe_throughput(&mut self, throughput_bps: f64) {
        if let Some(f) = &mut self.forecaster {
            f.observe(throughput_bps);
        }
    }

    fn reset(&mut self) {
        if let Some(f) = &mut self.forecaster {
            f.reset();
        }
    }

    fn solver_stats(&self) -> Option<SolverStats> {
        Some(self.scratch.borrow().stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_video::content::SiTi;

    fn ctx(bandwidth: f64) -> SegmentContext {
        let content = SiTi::new(60.0, 25.0);
        SegmentContext {
            index: 0,
            upcoming: vec![content; 5],
            predicted_bandwidth_bps: bandwidth,
            buffer_sec: 3.0,
            switching_speed_deg_s: 8.0,
            ptile_available: true,
            ptile_area_frac: 9.0 / 32.0,
            background_blocks: 3,
            ftile_fov_area: 0.0,
            ftile_fov_tiles: 0,
        }
    }

    #[test]
    fn produces_valid_plans() {
        let mut c = MpcController::paper_default();
        for bw in [1.0e6, 2.5e6, 4.0e6, 8.0e6, 16.0e6] {
            let plan = c.plan(&ctx(bw));
            assert!(plan.bits > 0.0);
            assert!(plan.fps >= 21.0 && plan.fps <= 30.0);
            assert!(plan.quality.index() >= 1 && plan.quality.index() <= 5);
            assert_eq!(plan.decode_scheme, DecoderScheme::Ptile);
        }
    }

    #[test]
    fn saves_energy_vs_always_max_quality() {
        // Under comfortable bandwidth, Ours should NOT pick the most
        // expensive tuple — that is the whole point of Eq. 8.
        let mut c = MpcController::paper_default();
        let plan = c.plan(&ctx(8.0e6));
        assert!(
            plan.quality < QualityLevel::Q5 || plan.fps < 30.0,
            "picked the maximum tuple: {plan:?}"
        );
    }

    #[test]
    fn respects_qoe_constraint() {
        // The chosen tuple's quality must stay within ε of the best
        // downloadable tuple's quality.
        let c = MpcController::paper_default();
        let context = ctx(8.0e6);
        let cands = c.candidates(
            context.content(),
            context.switching_speed_deg_s,
            context.ptile_area_frac,
            context.background_blocks,
        );
        let q_ref = c.reference_quality(&cands, 8.0e6);
        let mut ctrl = c.clone();
        let plan = ctrl.plan(&context);
        let chosen = cands
            .iter()
            .find(|cand| cand.quality == plan.quality && (cand.fps - plan.fps).abs() < 1e-9)
            .expect("plan must come from the candidate set");
        assert!(
            chosen.q_vf >= (1.0 - 0.05) * q_ref - 1e-6,
            "Q(v,f) = {} below the floor {}",
            chosen.q_vf,
            0.95 * q_ref
        );
    }

    #[test]
    fn fast_switching_allows_framerate_reduction() {
        // High S_fov over calm content (large α) makes reduced rates cheap
        // in QoE, so the optimiser should take them.
        let mut c = MpcController::paper_default();
        let mut fast = ctx(6.0e6);
        fast.switching_speed_deg_s = 60.0;
        fast.upcoming = vec![SiTi::new(60.0, 8.0); 5]; // low TI
        let plan_fast = c.plan(&fast);

        let mut slow = ctx(6.0e6);
        slow.switching_speed_deg_s = 0.5;
        slow.upcoming = vec![SiTi::new(60.0, 45.0); 5]; // high TI
        let plan_slow = c.plan(&slow);

        assert!(
            plan_fast.fps <= plan_slow.fps,
            "fast {} vs slow {}",
            plan_fast.fps,
            plan_slow.fps
        );
        assert!(
            plan_fast.fps < 30.0,
            "expected a reduced rate: {plan_fast:?}"
        );
    }

    #[test]
    fn falls_back_to_ctile_without_ptile() {
        let mut c = MpcController::paper_default();
        let mut context = ctx(4.0e6);
        context.ptile_available = false;
        let plan = c.plan(&context);
        assert_eq!(plan.decode_scheme, DecoderScheme::Ctile);
        assert_eq!(plan.fps, 30.0);
    }

    #[test]
    fn avoids_stall_under_tight_bandwidth() {
        // With a thin buffer and slow network, the DP must choose a tuple
        // that downloads in time rather than a stalling high quality.
        let mut c = MpcController::paper_default();
        let mut context = ctx(2.5e6);
        context.buffer_sec = 1.0;
        let plan = c.plan(&context);
        let dl = plan.bits / 2.5e6;
        assert!(
            dl <= 1.0 + 1e-9,
            "chose a stalling plan: download {dl}s with 1s buffered"
        );
    }

    #[test]
    fn energy_no_worse_than_ptile_baseline_choice() {
        // Ours must never spend more energy than the Ptile baseline's
        // "best quality at full rate" choice under identical conditions.
        let cfg = MpcConfig::paper_default();
        let c = MpcController::new(cfg);
        let context = ctx(6.0e6);
        let cands = c.candidates(
            context.content(),
            context.switching_speed_deg_s,
            context.ptile_area_frac,
            context.background_blocks,
        );
        // Ptile baseline: best quality fitting in one segment duration.
        let baseline = cands
            .iter()
            .filter(|cand| (cand.fps - 30.0).abs() < 1e-9)
            .filter(|cand| cand.bits <= 6.0e6)
            .max_by_key(|cand| cand.quality.index())
            .expect("some full-rate candidate fits");
        let mut ctrl = c.clone();
        let plan = ctrl.plan(&context);
        let ours = cands
            .iter()
            .find(|cand| cand.quality == plan.quality && (cand.fps - plan.fps).abs() < 1e-9)
            .unwrap();
        assert!(
            c.candidate_energy_mj(ours, 6.0e6) <= c.candidate_energy_mj(baseline, 6.0e6) + 1e-6
        );
    }

    #[test]
    fn single_rate_ladder_behaves_like_ptile_baseline_rates() {
        let mut c = MpcController::paper_default().with_ladder(EncodingLadder::single_rate(30.0));
        let plan = c.plan(&ctx(6.0e6));
        assert_eq!(plan.fps, 30.0);
    }

    #[test]
    fn solver_stats_meter_memo_and_dp_work() {
        let mut c = MpcController::paper_default();
        assert_eq!(c.solver_stats(), Some(SolverStats::default()));
        let _ = c.plan(&ctx(4.0e6));
        let first = c.solver_stats().expect("mpc meters its solver");
        assert_eq!(first.plans, 1);
        // One candidate set built per horizon step; nothing is cached.
        assert_eq!(first.memo_misses, 5);
        assert_eq!(first.memo_hits, 0);
        // Every candidate downloads within one segment at 4 Mb/s, so
        // from a full buffer each step refills to β and exactly one
        // state stays live: 5 steps × 20 candidates.
        let context = ctx(4.0e6);
        let cands = c.candidates(
            context.content(),
            context.switching_speed_deg_s,
            context.ptile_area_frac,
            context.background_blocks,
        );
        assert_eq!(cands.len(), 20);
        assert!(cands
            .iter()
            .all(|cand| cand.bits / 4.0e6 <= SEGMENT_DURATION_SEC));
        assert_eq!(first.states_expanded, 5 * 20);
        let _ = c.plan(&ctx(4.0e6));
        let delta = c.solver_stats().expect("stats persist").since(&first);
        assert_eq!(delta, first, "an identical solve does identical work");
        // The fallback path runs no solve and meters nothing.
        let mut no_ptile = ctx(4.0e6);
        no_ptile.ptile_available = false;
        let snap = c.solver_stats().expect("snapshot");
        let _ = c.plan(&no_ptile);
        assert_eq!(c.solver_stats(), Some(snap));
    }

    /// A candidate's fields as raw bits, so a comparison sees every ulp.
    fn field_bits(c: &Candidate) -> (usize, u64, u64, u64) {
        (
            c.quality.index(),
            c.fps.to_bits(),
            c.bits.to_bits(),
            c.q_vf.to_bits(),
        )
    }

    #[test]
    fn step_pricing_matches_per_variant_candidates_bit_for_bit() {
        use ee360_support::prelude::StdRng;

        let calm = SiTi::new(1.0, 0.5);
        let busy = SiTi::new(200.0, 100.0);
        assert_eq!(calm.encoding_difficulty().to_bits(), 0.4f64.to_bits());
        assert_eq!(busy.encoding_difficulty().to_bits(), 2.0f64.to_bits());
        let content = SiTi::new(60.0, 25.0);
        // (content, s_fov, area, background blocks): the full frame (no
        // background term), just inside the no-background threshold, the
        // FoV clamp, no background blocks, a still gaze (the α floor),
        // and content at both ends of the encoding-difficulty clamp.
        let mut cases = vec![
            (content, 8.0, 1.0, 3),
            (content, 8.0, 1.0 - 1e-13, 3),
            (content, 8.0, FOV_AREA_FRACTION, 3),
            (content, 8.0, 12.0 / 32.0, 0),
            (content, 0.0, FOV_AREA_FRACTION, 3),
            (calm, 8.0, 12.0 / 32.0, 3),
            (busy, 8.0, 12.0 / 32.0, 3),
        ];
        let mut rng = StdRng::seed_from_u64(0x5eed_0019);
        for _ in 0..300 {
            cases.push((
                SiTi::new(rng.gen_range(0.0..150.0), rng.gen_range(0.1..100.0)),
                rng.gen_range(0.0..90.0),
                rng.gen_range(FOV_AREA_FRACTION..=1.0),
                rng.gen_range(0..8usize),
            ));
        }
        let ladders = [
            EncodingLadder::paper_default(),
            EncodingLadder::single_rate(30.0),
            EncodingLadder::new(60.0, vec![0.05, 0.15, 0.25, 0.4, 0.5, 0.65]),
        ];
        // One recycled table set across ladders of different sizes, as a
        // controller's scratch would be after `with_ladder`.
        let mut step = StepPricing::default();
        for ladder in ladders {
            let rates = ladder.frame_rate_count();
            let c = MpcController::paper_default().with_ladder(ladder);
            for &(content, s_fov, area, bg) in &cases {
                c.candidates_into(content, s_fov, area, bg, &mut step);
                let hot: Vec<_> = step.candidates().iter().map(field_bits).collect();
                let per_variant: Vec<_> = c
                    .candidates(content, s_fov, area, bg)
                    .iter()
                    .map(field_bits)
                    .collect();
                assert_eq!(hot.len(), 5 * rates);
                assert_eq!(
                    hot, per_variant,
                    "{content:?} s_fov {s_fov} area {area} bg {bg} over {rates} rates"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "ptile area must be in (0, 1]")]
    fn step_pricing_rejects_an_empty_area() {
        let mut step = StepPricing::default();
        MpcController::paper_default().candidates_into(
            SiTi::new(60.0, 25.0),
            8.0,
            0.0,
            3,
            &mut step,
        );
    }

    #[test]
    fn dp_transition_rounds_down() {
        let (stall, b) = dp_transition(1.0, 0.3, 3.0, 0.5);
        assert_eq!(stall, 0.0);
        assert_eq!(b, 1.5); // 0.7 + 1.0 = 1.7 → floor to 1.5
        let (stall2, b2) = dp_transition(0.5, 2.0, 3.0, 0.5);
        assert!((stall2 - 1.5).abs() < 1e-12);
        assert_eq!(b2, 1.0);
    }

    #[test]
    fn transition_caps_at_threshold() {
        let (_, b) = dp_transition(3.0, 0.0, 3.0, 0.5);
        assert_eq!(b, 3.0);
    }

    #[test]
    fn forecast_controller_produces_valid_plans() {
        let mut cfg = MpcConfig::paper_default();
        cfg.use_forecast = true;
        let mut c = MpcController::new(cfg);
        // Cold start: falls back to the constant estimate.
        let plan_cold = c.plan(&ctx(5.0e6));
        assert!(plan_cold.bits > 0.0);
        // Warm up the forecaster with a falling trend, then replan.
        for i in 0..8 {
            c.observe_throughput(8.0e6 - i as f64 * 0.8e6);
        }
        let plan_warm = c.plan(&ctx(5.0e6));
        assert!(plan_warm.bits > 0.0);
        c.reset(); // must not panic and clears the forecaster
    }

    #[test]
    fn falling_forecast_banks_buffer() {
        // Explicit per-step bandwidths: plenty now, collapsing later. The
        // horizon-aware DP must not pick a bigger first download than the
        // constant-bandwidth plan — it banks buffer for the crunch.
        let c = MpcController::paper_default();
        let mut context = ctx(6.0e6);
        context.buffer_sec = 1.0;
        let falling = [6.0e6, 6.0e6, 0.8e6, 0.8e6, 0.8e6];
        let (_, _, bits_falling) = c.solve_with_bandwidths(&context, &falling);
        let constant = [6.0e6; 5];
        let (_, _, bits_constant) = c.solve_with_bandwidths(&context, &constant);
        assert!(
            bits_falling <= bits_constant + 1e-6,
            "falling {bits_falling} vs constant {bits_constant}"
        );
    }

    #[test]
    #[should_panic(expected = "one bandwidth per horizon step")]
    fn wrong_forecast_length_panics() {
        let c = MpcController::paper_default();
        let context = ctx(5.0e6);
        let _ = c.solve_with_bandwidths(&context, &[5.0e6; 2]);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_panics() {
        let mut cfg = MpcConfig::paper_default();
        cfg.horizon = 0;
        let _ = MpcController::new(cfg);
    }
}
