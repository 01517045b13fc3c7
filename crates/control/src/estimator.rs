//! Online estimators of Equation 1's inputs.
//!
//! Both feeds reduce one iteration's spans to at most one sample per
//! input (work-weighted, so short subgroups don't dominate) and fold it
//! into an exponentially-weighted moving average. `B` is tracked per PCIe
//! direction and exposed as the minimum — Equation 1's `B` is the
//! effective rate of the slower direction, since prefetch (H2D) and flush
//! (D2H) both move `3S` of FP32 state per GPU subgroup.

use dos_hal::PerfModelInputs;
use dos_telemetry::{EventKind, Timeline, TraceEvent};

/// An exponentially-weighted moving average over positive samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an empty estimator with smoothing factor `alpha`
    /// (weight of the newest sample).
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` is in `(0, 1]`.
    pub fn new(alpha: f64) -> Ewma {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Creates an estimator pre-seeded with `value` (a calibration prior).
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` is in `(0, 1]`.
    pub fn seeded(alpha: f64, value: f64) -> Ewma {
        let mut e = Ewma::new(alpha);
        e.observe(value);
        e
    }

    /// Folds one sample in. Non-finite or non-positive samples are
    /// rejected (a zero-duration span must not poison the estimate).
    pub fn observe(&mut self, sample: f64) {
        if !sample.is_finite() || sample <= 0.0 {
            return;
        }
        self.value = Some(match self.value {
            None => sample,
            Some(v) => v + self.alpha * (sample - v),
        });
    }

    /// The current estimate, if any sample has been accepted.
    pub fn get(&self) -> Option<f64> {
        self.value
    }
}

/// EWMA estimators for all four Equation 1 inputs, fed from either clock.
#[derive(Debug, Clone)]
pub struct InputEstimators {
    nominal: PerfModelInputs,
    contention: f64,
    uc: Ewma,
    dc: Ewma,
    ug: Ewma,
    b_h2d: Ewma,
    b_d2h: Ewma,
}

/// Per-iteration aggregates: (work, duration) per input category.
#[derive(Default)]
struct Aggregates {
    uc: (f64, f64),
    dc: (f64, f64),
    ug: (f64, f64),
    b_h2d: (f64, f64),
    b_d2h: (f64, f64),
}

impl InputEstimators {
    /// Estimators seeded from a calibrated profile (`nominal`), with the
    /// profile's DRAM-contention factor used to de-bias CPU samples taken
    /// while interleaving was active.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` is in `(0, 1]` and `contention` in `(0, 1]`.
    pub fn seeded(nominal: PerfModelInputs, contention: f64, alpha: f64) -> InputEstimators {
        assert!(contention > 0.0 && contention <= 1.0, "contention must be in (0, 1]");
        InputEstimators {
            nominal,
            contention,
            uc: Ewma::seeded(alpha, nominal.uc),
            dc: Ewma::seeded(alpha, nominal.dc),
            ug: Ewma::seeded(alpha, nominal.ug),
            b_h2d: Ewma::seeded(alpha, nominal.b),
            b_d2h: Ewma::seeded(alpha, nominal.b),
        }
    }

    /// Unseeded estimators for wall-clock feeds with no calibrated prior.
    /// All four inputs — including `D_c`, which the threaded pipeline now
    /// traces as its own `downscale:sg*` span per CPU subgroup — start
    /// empty and converge on real samples.
    pub fn wall(alpha: f64) -> InputEstimators {
        InputEstimators {
            nominal: PerfModelInputs { b: 1.0, ug: 1.0, uc: 1.0, dc: 1.0 },
            contention: 1.0,
            uc: Ewma::new(alpha),
            dc: Ewma::new(alpha),
            ug: Ewma::new(alpha),
            b_h2d: Ewma::new(alpha),
            b_d2h: Ewma::new(alpha),
        }
    }

    /// Replaces every estimate with the given prior (used to start a run
    /// from deliberately wrong inputs and watch the loop converge).
    pub fn reseed(&mut self, prior: PerfModelInputs) {
        for (e, v) in [
            (&mut self.uc, prior.uc),
            (&mut self.dc, prior.dc),
            (&mut self.ug, prior.ug),
            (&mut self.b_h2d, prior.b),
            (&mut self.b_d2h, prior.b),
        ] {
            *e = Ewma::new(e.alpha);
            e.observe(v);
        }
    }

    /// The current input estimates, once every input has a value. `b` is
    /// the slower PCIe direction.
    pub fn inputs(&self) -> Option<PerfModelInputs> {
        let b = match (self.b_h2d.get(), self.b_d2h.get()) {
            (Some(h), Some(d)) => h.min(d),
            (Some(h), None) => h,
            (None, Some(d)) => d,
            (None, None) => return None,
        };
        Some(PerfModelInputs {
            b,
            ug: self.ug.get()?,
            uc: self.uc.get()?,
            dc: self.dc.get()?,
        })
    }

    fn fold(&mut self, agg: Aggregates, uc_scale: f64, dc_scale: f64, ug_scale: f64, comp: f64) {
        let throughput = |(work, dur): (f64, f64)| if dur > 0.0 { work / dur } else { 0.0 };
        self.uc.observe(throughput(agg.uc) * uc_scale / comp);
        self.dc.observe(throughput(agg.dc) * dc_scale / comp);
        self.ug.observe(throughput(agg.ug) * ug_scale);
        self.b_h2d.observe(throughput(agg.b_h2d) / 4.0);
        self.b_d2h.observe(throughput(agg.b_d2h) / 4.0);
    }

    /// Feeds one simulated iteration's update-phase spans.
    ///
    /// Simulated compute spans carry `work` in *seconds at the nominal
    /// rate* (the HAL convention), so `work/duration` is the achieved
    /// fraction of nominal and multiplying by the nominal throughput
    /// recovers the achieved params/s. Transfer spans carry bytes; Eq. 1's
    /// `B` counts FP32 params, hence the `/4`. When `interleaved` is set,
    /// observed CPU throughputs are divided by the contention factor so
    /// the estimate matches the paper's *uncontended* calibration inputs
    /// (Equation 1 is derived from those; the predictor re-applies the
    /// factor on its own).
    pub fn observe_sim_timeline(&mut self, tl: &Timeline, interleaved: bool) {
        let mut agg = Aggregates::default();
        for sp in tl.spans() {
            if sp.phase != "update" {
                continue;
            }
            let dur = sp.duration();
            let slot = if sp.label.starts_with("cpu-update:") {
                &mut agg.uc
            } else if sp.label.starts_with("downscale:") {
                &mut agg.dc
            } else if sp.label.starts_with("gpu-update:") {
                &mut agg.ug
            } else if sp.label.starts_with("prefetch-") || sp.label.starts_with("h2d-params16:")
            {
                &mut agg.b_h2d
            } else if sp.label.starts_with("flush-") {
                &mut agg.b_d2h
            } else {
                continue;
            };
            slot.0 += sp.work;
            slot.1 += dur;
        }
        let comp = if interleaved { self.contention } else { 1.0 };
        let (uc, dc, ug) = (self.nominal.uc, self.nominal.dc, self.nominal.ug);
        self.fold(agg, uc, dc, ug, comp);
    }

    /// Feeds one functional iteration's wall-clock spans (from
    /// `hybrid_update_pooled`). Wall spans carry `work` directly in
    /// params (CPU/GPU updates) or bytes (staging transfers), so no
    /// nominal conversion is needed.
    pub fn observe_wall_events(&mut self, events: &[TraceEvent]) {
        let mut agg = Aggregates::default();
        for ev in events {
            if ev.kind != EventKind::Span || ev.phase != "update" || ev.dur <= 0.0 {
                continue;
            }
            let slot = match ev.resource.as_str() {
                "cpu" if ev.name.starts_with("update:sg") => &mut agg.uc,
                "cpu" if ev.name.starts_with("downscale:sg") => &mut agg.dc,
                "gpu" if ev.name.starts_with("update:sg") => &mut agg.ug,
                "pcie.h2d" if ev.name.starts_with("prefetch:sg") => &mut agg.b_h2d,
                "pcie.d2h" if ev.name.starts_with("flush:sg") => &mut agg.b_d2h,
                _ => continue,
            };
            slot.0 += ev.work;
            slot.1 += ev.dur;
        }
        self.fold(agg, 1.0, 1.0, 1.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_follows_samples_and_rejects_garbage() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.get(), None);
        e.observe(4.0);
        assert_eq!(e.get(), Some(4.0));
        e.observe(2.0);
        assert_eq!(e.get(), Some(3.0));
        e.observe(f64::NAN);
        e.observe(-1.0);
        e.observe(0.0);
        assert_eq!(e.get(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ewma_alpha_validated() {
        let _ = Ewma::new(0.0);
    }

    fn h100_nominal() -> PerfModelInputs {
        PerfModelInputs { b: 4.0e9, ug: 25.0e9, uc: 2.0e9, dc: 15.5e9 }
    }

    /// Record one subgroup's worth of simulated update-phase spans with a
    /// chosen effective slowdown on each category.
    fn sim_timeline(nominal: PerfModelInputs, b_eff: f64, uc_eff: f64) -> Timeline {
        let s = 1.0e8;
        let mut tl = Timeline::new();
        // compute spans: work = seconds at nominal rate.
        tl.record("cpu", "cpu-update:sg0", "update", 0.0, s / uc_eff, s / nominal.uc);
        tl.record("cpu", "downscale:sg0", "update", 0.0, s / nominal.dc, s / nominal.dc);
        tl.record("gpu", "gpu-update:sg1", "update", 0.0, s / nominal.ug, s / nominal.ug);
        // transfer spans: work = bytes; duration = bytes / (4 * B_eff).
        let pf_bytes = 4.0 * s;
        tl.record("pcie.h2d", "prefetch-momentum:sg1", "update", 0.0, pf_bytes / (4.0 * b_eff), pf_bytes);
        let p16_bytes = 2.0 * s;
        tl.record("pcie.h2d", "h2d-params16:sg0", "update", 0.0, p16_bytes / (4.0 * b_eff), p16_bytes);
        tl.record("pcie.d2h", "flush-param:sg1", "update", 0.0, pf_bytes / (4.0 * b_eff), pf_bytes);
        // Non-update-phase and unknown labels must be ignored.
        tl.record("pcie.h2d", "h2d-accum-grads:l0", "backward", 0.0, 1.0, 1e12);
        tl.record("gpu", "d2d-half:sg1", "update", 0.0, 1.0, 1e12);
        tl
    }

    #[test]
    fn sim_feed_recovers_nominal_inputs_when_healthy() {
        let nom = h100_nominal();
        let mut est = InputEstimators::seeded(nom, 0.75, 1.0);
        est.observe_sim_timeline(&sim_timeline(nom, nom.b, nom.uc), false);
        let got = est.inputs().unwrap();
        assert!((got.b - nom.b).abs() / nom.b < 1e-9, "b = {}", got.b);
        assert!((got.uc - nom.uc).abs() / nom.uc < 1e-9);
        assert!((got.dc - nom.dc).abs() / nom.dc < 1e-9);
        assert!((got.ug - nom.ug).abs() / nom.ug < 1e-9);
    }

    #[test]
    fn contention_compensation_removes_the_interleaving_bias() {
        let nom = h100_nominal();
        let mut est = InputEstimators::seeded(nom, 0.75, 1.0);
        // While interleaving, the engine runs the CPU at 0.75x; the
        // compensated estimate must still read the uncontended U_c.
        est.observe_sim_timeline(&sim_timeline(nom, nom.b, nom.uc * 0.75), true);
        let got = est.inputs().unwrap();
        assert!((got.uc - nom.uc).abs() / nom.uc < 1e-9, "uc = {}", got.uc);
    }

    #[test]
    fn degraded_link_shows_up_as_the_min_direction() {
        let nom = h100_nominal();
        let mut est = InputEstimators::seeded(nom, 0.75, 1.0);
        est.observe_sim_timeline(&sim_timeline(nom, 0.6e9, nom.uc), false);
        let got = est.inputs().unwrap();
        assert!((got.b - 0.6e9).abs() / 0.6e9 < 1e-9, "b = {}", got.b);
    }

    #[test]
    fn wall_feed_reads_pipeline_spans() {
        let mut est = InputEstimators::wall(1.0);
        let mk = |resource: &str, name: &str, dur: f64, work: f64| TraceEvent {
            track: "cpu".into(),
            name: name.into(),
            phase: "update".into(),
            resource: resource.into(),
            start: 0.0,
            dur,
            work,
            depth: 0,
            kind: EventKind::Span,
        };
        let events = vec![
            mk("cpu", "update:sg0", 0.5, 1.0e9),       // 2e9 params/s
            mk("cpu", "downscale:sg0", 0.1, 1.0e9),    // 10e9 params/s
            mk("gpu", "update:sg1", 0.1, 2.5e9),       // 25e9 params/s
            mk("pcie.h2d", "prefetch:sg1", 0.4, 6.4e9), // 6.4e9/(4*0.4) = 4e9
            mk("pcie.d2h", "flush:sg1", 0.2, 2.8e9),   // 3.5e9
            mk("cpu", "not-an-update", 1.0, 1e15),
        ];
        est.observe_wall_events(&events);
        let got = est.inputs().unwrap();
        assert!((got.uc - 2.0e9).abs() < 1.0);
        assert!((got.dc - 10.0e9).abs() < 1.0, "wall D_c reads its own span: {}", got.dc);
        assert!((got.ug - 25.0e9).abs() < 1.0);
        assert!((got.b - 3.5e9).abs() < 1.0, "min(h2d, d2h) = {}", got.b);
    }

    /// Satellite regression for the unpinned wall-clock `D_c`: replay a
    /// recorded stream of per-iteration pipeline spans whose downscale
    /// throughput settles at a steady rate, and require the EWMA to
    /// converge onto it (it used to stay pinned at 1e30 forever).
    #[test]
    fn wall_dc_converges_on_recorded_downscale_stream() {
        let mut est = InputEstimators::wall(0.3);
        let mk = |resource: &str, name: &str, dur: f64, work: f64| TraceEvent {
            track: "cpu".into(),
            name: name.into(),
            phase: "update".into(),
            resource: resource.into(),
            start: 0.0,
            dur,
            work,
            depth: 0,
            kind: EventKind::Span,
        };
        // Recorded per-iteration downscale throughputs (params/s): a cold
        // first iteration, then a steady 8.7e8 — the vectorized kernel's
        // measured rate.
        let warmup = [2.0e8, 8.0e8, 8.6e8, 8.8e8];
        let recorded: Vec<f64> =
            warmup.into_iter().chain(std::iter::repeat_n(8.7e8, 16)).collect();
        for dc_pps in recorded {
            let work = 1.0e6; // one subgroup of a million params
            let events = vec![
                mk("cpu", "update:sg0", work / 8.5e8, work),
                mk("cpu", "downscale:sg0", work / dc_pps, work),
                mk("gpu", "update:sg1", work / 2.5e10, work),
                mk("pcie.h2d", "prefetch:sg1", 1e-3, 1.6e7),
                mk("pcie.d2h", "flush:sg1", 1e-3, 1.4e7),
            ];
            est.observe_wall_events(&events);
        }
        let got = est.inputs().unwrap();
        let rel = (got.dc - 8.7e8).abs() / 8.7e8;
        assert!(rel < 0.02, "D_c must converge on the recorded rate, got {} ({rel})", got.dc);
        assert!(got.dc < 1e10, "D_c must be a real measurement, not a pin");
    }

    /// The real pipeline's spans must feed every input: `U_c`/`D_c` from
    /// the CPU track, `U_g` from the device worker, `B` from its
    /// transfers.
    #[test]
    fn wall_feed_gets_every_input_from_a_real_traced_step() {
        let n = 1 << 16;
        let init: Vec<f32> = (0..n).map(|i| (i % 97) as f32 / 97.0).collect();
        let grads: Vec<f32> = (0..n).map(|i| (i % 13) as f32 / 13.0 - 0.5).collect();
        let mut state =
            dos_optim::MixedPrecisionState::new(init, dos_optim::UpdateRule::adam(), 1e-3);
        let sgs = dos_zero::partition_into_subgroups(n, n / 8);
        let tracer = dos_telemetry::Tracer::new();
        let cfg = dos_core::PipelineConfig::default();
        let pool = dos_core::ArenaPool::new();
        dos_core::hybrid_update_pooled(&mut state, &grads, &sgs, cfg, Some(&tracer), &pool)
            .unwrap();
        let mut est = InputEstimators::wall(1.0);
        est.observe_wall_events(&tracer.events());
        assert!(est.inputs().is_some(), "an input had no sample: {est:?}");
    }

    #[test]
    fn inputs_absent_until_every_estimator_has_a_sample() {
        let est = InputEstimators::wall(0.5);
        assert!(est.inputs().is_none());
    }
}
