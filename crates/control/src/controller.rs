//! The feedback controller: hysteresis-gated stride retuning, headroom-based
//! resident sizing, and the degradation ladder with recovery edges.

use crate::driver::{fault_plan_for, DegradationSpec};
use crate::estimator::InputEstimators;
use crate::gate::SweepGate;
use dos_core::{DeepOptimizerStates, PerfModel, StridePolicy, STAGED_BYTES_PER_PARAM};
use dos_hal::PerfModelInputs;
use dos_sim::{ControlledIteration, IterationController, IterationReport, TrainConfig};
use dos_telemetry::{TraceEvent, Tracer};
use serde::{Deserialize, Serialize};

/// The degradation ladder of DESIGN.md §8, now with explicit recovery
/// edges. "Reduced interleaving" (the paper's middle rung) is expressed
/// inside [`LadderRung::Dos`] as a normal retune to a larger stride; the
/// ladder only changes rung when Equation 1 stops admitting a solution or
/// the GPU runs out of memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LadderRung {
    /// Full Deep Optimizer States interleaving at the controller's stride.
    Dos,
    /// Interleaving suspended: GPU residents still update in place, every
    /// dynamic subgroup updates on the CPU (`StridePolicy::CpuOnly` with
    /// the configured resident ratio).
    ResidentsOnly,
    /// Full retreat after an observed GPU OOM: resident ratio forced to 0,
    /// everything updates on the CPU.
    CpuOnly,
}

impl LadderRung {
    /// Stable lowercase name for reports and trace labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            LadderRung::Dos => "dos",
            LadderRung::ResidentsOnly => "residents-only",
            LadderRung::CpuOnly => "cpu-only",
        }
    }
}

/// What kind of decision the controller took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionKind {
    /// Initial stride solved from the calibration prior.
    Seed,
    /// Stride changed after the hysteresis gate passed.
    Retune,
    /// Ladder descent (Dos → ResidentsOnly, or any rung → CpuOnly on OOM).
    Ladder,
    /// GPU-resident tail resized against observed memory headroom.
    Residents,
    /// Ladder ascent back toward full interleaving.
    Recover,
    /// One-off Dos probe iteration while parked in ResidentsOnly, so the
    /// PCIe estimators get fresh samples (no flushes happen otherwise and
    /// the D2H estimate would stay stuck at its degraded value forever).
    Probe,
}

/// One recorded control decision. Also emitted as a `control:*` instant on
/// [`dos_telemetry::CONTROL_TRACK`] when a tracer is attached.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlDecision {
    /// Iteration the decision applies to (0-based).
    pub iteration: usize,
    /// Simulated seconds of training elapsed when the decision was taken
    /// (sum of finished iterations' totals); the wall-clock tuner stamps
    /// the iteration index instead.
    pub at_secs: f64,
    /// Decision category.
    pub kind: DecisionKind,
    /// Human-readable detail, e.g. `"k2->k4 (predicted gain 30.1%)"`.
    pub detail: String,
}

/// How the controller sizes the GPU-resident subgroup tail.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ResidentPolicy {
    /// Keep the configured `gpu_resident_ratio` untouched (default — the
    /// adaptive arm then runs the exact same memory configuration as the
    /// static arm, so fault-free parity is trivial to verify).
    Fixed,
    /// Resize against signed HBM headroom each iteration: the ratio moves
    /// by `fraction * headroom / (12 * params_per_rank)` — the fraction of
    /// leftover (or overshot, when negative) HBM bytes converted into FP32
    /// optimizer-state residency — clamped to `[0, cap]`.
    Headroom {
        /// Fraction of the observed headroom to convert per step (gentle
        /// values like 0.5 avoid overshoot; the loop is self-correcting
        /// because negative headroom shrinks the ratio again).
        fraction: f64,
        /// Upper bound on the resident ratio.
        cap: f64,
    },
}

/// Tunables of the [`Controller`] loop. All fields have serde defaults so
/// partial JSON configs work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ControllerConfig {
    /// EWMA smoothing factor for the input estimators.
    pub alpha: f64,
    /// Minimum fractional predicted gain before a retune is allowed — the
    /// hysteresis band that keeps `k` from oscillating on noise.
    pub hysteresis_gain: f64,
    /// Cooldown: minimum iterations between consecutive retunes.
    pub min_iters_between_retunes: usize,
    /// Largest stride the candidate sweep considers.
    pub max_stride: usize,
    /// GPU-resident tail sizing policy.
    pub residents: ResidentPolicy,
    /// ResidentsOnly probes a Dos iteration every this many iterations;
    /// CpuOnly recovers after this many consecutive OOM-free iterations.
    pub recovery_patience: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            alpha: 0.5,
            hysteresis_gain: 0.05,
            min_iters_between_retunes: 1,
            max_stride: 8,
            residents: ResidentPolicy::Fixed,
            recovery_patience: 2,
        }
    }
}

/// The adaptive control plane: estimator → solver → hysteresis → actuator,
/// plugged into `dos-sim`'s per-iteration [`IterationController`] hook.
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: ControllerConfig,
    est: InputEstimators,
    contention: f64,
    params: f64,
    subgroup: f64,
    hbm_bytes: u64,
    base_ratio: f64,
    stride: usize,
    rung: LadderRung,
    pre_fault_stride: usize,
    resident_ratio: Option<f64>,
    decisions: Vec<ControlDecision>,
    retunes: usize,
    last_retune: Option<usize>,
    clean_streak: usize,
    iters_in_residents: usize,
    interleaved_last: bool,
    probe_active: bool,
    clock: f64,
    last_peak_bytes: Option<u64>,
    seeded: bool,
    faults: Vec<DegradationSpec>,
    fault_seed: u64,
    tracer: Option<Tracer>,
}

impl Controller {
    /// A controller for `train`, with estimators seeded from the profile's
    /// calibration and the initial stride solved exactly as the static
    /// `StridePolicy::Auto` arm solves it — fault-free, the two arms start
    /// (and stay) identical.
    pub fn new(cfg: ControllerConfig, train: &TrainConfig) -> Controller {
        let nominal = train.profile.perf_model_inputs();
        let contention = train.profile.dram_contention_cpu_factor.clamp(f64::MIN_POSITIVE, 1.0);
        let est = InputEstimators::seeded(nominal, contention, cfg.alpha);
        let mut c = Controller {
            cfg,
            est,
            contention,
            params: train.params_per_rank() as f64,
            subgroup: train.offload.subgroup_params as f64,
            hbm_bytes: train.profile.gpu_hbm_bytes,
            base_ratio: train.offload.gpu_resident_ratio,
            stride: 1,
            rung: LadderRung::Dos,
            pre_fault_stride: 1,
            resident_ratio: None,
            decisions: Vec::new(),
            retunes: 0,
            last_retune: None,
            clean_streak: 0,
            iters_in_residents: 0,
            interleaved_last: false,
            probe_active: false,
            clock: 0.0,
            last_peak_bytes: None,
            seeded: false,
            faults: Vec::new(),
            fault_seed: 0,
            tracer: None,
        };
        c.seed_from(nominal);
        c
    }

    /// Replaces the calibration prior with a deliberately different one —
    /// the convergence tests start from wrong inputs and watch the loop
    /// pull the stride back to the true optimum.
    pub fn with_initial_inputs(mut self, prior: PerfModelInputs) -> Controller {
        self.est.reseed(prior);
        self.seed_from(prior);
        self
    }

    /// Installs a pinned, iteration-indexed fault plan; the plan for
    /// iteration `i` is derived from `seed` so races are reproducible.
    pub fn with_faults(mut self, specs: Vec<DegradationSpec>, seed: u64) -> Controller {
        self.faults = specs;
        self.fault_seed = seed;
        self
    }

    /// Attaches a tracer; every decision is then also emitted as a
    /// `control:*` instant on the dedicated control track.
    pub fn with_tracer(mut self, tracer: &Tracer) -> Controller {
        self.tracer = Some(tracer.clone());
        self
    }

    fn seed_from(&mut self, prior: PerfModelInputs) {
        match PerfModel::new(prior).optimal_stride() {
            Some(k) => {
                self.stride = k.clamp(1, self.cfg.max_stride.max(1));
                self.rung = LadderRung::Dos;
            }
            None => {
                self.rung = LadderRung::ResidentsOnly;
            }
        }
        self.pre_fault_stride = self.stride;
    }

    /// The full decision log, in order.
    pub fn decisions(&self) -> &[ControlDecision] {
        &self.decisions
    }

    /// The ladder rung the controller currently sits on.
    pub fn rung(&self) -> LadderRung {
        self.rung
    }

    /// The stride policy the *next* planned iteration would run under.
    pub fn stride_policy(&self) -> StridePolicy {
        match self.rung {
            LadderRung::Dos => StridePolicy::Fixed(self.stride.max(1)),
            LadderRung::ResidentsOnly if self.probe_active => {
                StridePolicy::Fixed(self.pre_fault_stride.max(1))
            }
            LadderRung::ResidentsOnly | LadderRung::CpuOnly => StridePolicy::CpuOnly,
        }
    }

    /// Number of hysteresis-approved stride changes so far (seed, ladder
    /// moves, and probes excluded).
    pub fn retunes(&self) -> usize {
        self.retunes
    }

    /// The current Equation 1 input estimates.
    pub fn estimated_inputs(&self) -> Option<PerfModelInputs> {
        self.est.inputs()
    }

    fn decide(&mut self, iteration: usize, kind: DecisionKind, detail: String) {
        if let Some(t) = &self.tracer {
            t.control_decision(&format!("it{iteration}:{detail}"), self.clock);
        }
        self.decisions.push(ControlDecision { iteration, at_secs: self.clock, kind, detail });
    }

    /// The shared sweep + hysteresis gate, parameterized by this
    /// controller's tunables.
    fn gate(&self) -> SweepGate {
        SweepGate {
            hysteresis_gain: self.cfg.hysteresis_gain,
            min_iters_between_retunes: self.cfg.min_iters_between_retunes,
            max_stride: self.cfg.max_stride,
        }
    }

    /// Candidate sweep: best of {CPU-only, k = 1..=max_stride} on the
    /// current estimates, with the calibrated DRAM-contention factor
    /// applied to interleaved candidates (mirrors the scheduler's engine
    /// behaviour). Returns `(best_k, best_secs, cpu_only_secs)`.
    fn sweep(&self, inputs: PerfModelInputs) -> (Option<usize>, f64, f64) {
        let pm = PerfModel::new(inputs).with_contention(self.contention);
        let out = self.gate().sweep(&pm, self.params, self.subgroup);
        (out.best_k, out.best_secs, out.cpu_secs)
    }

    /// One step of the rung/stride state machine, taken at plan time on
    /// the estimates the previous observe left behind.
    fn step(&mut self, i: usize) {
        let Some(inputs) = self.est.inputs() else { return };
        let raw = PerfModel::new(inputs).raw_stride();
        let (best_k, best_secs, cpu_secs) = self.sweep(inputs);
        match self.rung {
            LadderRung::Dos => {
                if raw.is_none() || best_k.is_none() {
                    // Equation 1 no longer admits a solution (the PCIe
                    // link is too degraded for interleaving to pay off):
                    // park on the residents and remember where we were.
                    self.pre_fault_stride = self.stride;
                    self.rung = LadderRung::ResidentsOnly;
                    self.iters_in_residents = 0;
                    self.decide(
                        i,
                        DecisionKind::Ladder,
                        format!("descend:residents-only (eq1 unsolvable, was k{})", self.stride),
                    );
                    return;
                }
                let Some(k) = best_k else { return };
                if k == self.stride {
                    return;
                }
                let pm = PerfModel::new(inputs).with_contention(self.contention);
                let cur = pm.predicted_update_secs(self.params, self.subgroup, Some(self.stride));
                if let Some(gain) = self.gate().approve(i, self.last_retune, cur, best_secs) {
                    let old = self.stride;
                    self.stride = k;
                    self.retunes += 1;
                    self.last_retune = Some(i);
                    self.decide(
                        i,
                        DecisionKind::Retune,
                        format!("k{old}->k{k} (predicted gain {:.1}%)", gain * 100.0),
                    );
                }
            }
            LadderRung::ResidentsOnly => {
                self.iters_in_residents += 1;
                // Recovery applies the hysteresis band but not the retune
                // cooldown: climbing out of a degraded rung should not wait
                // on the descent's own cooldown.
                let gain = SweepGate::gain(cpu_secs, best_secs);
                if raw.is_some() && best_k.is_some() && gain > self.cfg.hysteresis_gain {
                    // The estimates say interleaving pays again, by more
                    // than the hysteresis margin: climb back up to the
                    // stride we ran before the descent (the next retune
                    // refines it if the link settled somewhere new).
                    self.rung = LadderRung::Dos;
                    self.stride = self.pre_fault_stride.clamp(1, self.cfg.max_stride.max(1));
                    self.probe_active = false;
                    self.decide(
                        i,
                        DecisionKind::Recover,
                        format!("recover:dos k{} (predicted gain {:.1}%)", self.stride, gain * 100.0),
                    );
                } else if self.cfg.recovery_patience > 0
                    && self.iters_in_residents.is_multiple_of(self.cfg.recovery_patience)
                {
                    self.probe_active = true;
                    self.decide(
                        i,
                        DecisionKind::Probe,
                        format!("probe:k{}", self.pre_fault_stride.max(1)),
                    );
                }
            }
            LadderRung::CpuOnly => {
                if self.clean_streak >= self.cfg.recovery_patience.max(1) {
                    self.rung = LadderRung::ResidentsOnly;
                    self.iters_in_residents = 0;
                    self.clean_streak = 0;
                    self.decide(i, DecisionKind::Recover, "recover:residents-only".to_string());
                }
            }
        }
    }

    fn size_residents(&mut self, i: usize) {
        let ResidentPolicy::Headroom { fraction, cap } = self.cfg.residents else { return };
        let Some(peak) = self.last_peak_bytes else { return };
        // Signed headroom: a negative value (peak above HBM would have
        // OOMed; peak close to it leaves margin) shrinks the ratio again,
        // so the loop self-corrects instead of ratcheting up.
        let headroom = self.hbm_bytes as f64 - peak as f64;
        let cur = self.resident_ratio.unwrap_or(self.base_ratio);
        let delta = fraction.clamp(0.0, 1.0) * headroom / (12.0 * self.params);
        let next = (cur + delta).clamp(0.0, cap.clamp(0.0, 1.0));
        if (next - cur).abs() > 0.005 {
            self.resident_ratio = Some(next);
            self.decide(
                i,
                DecisionKind::Residents,
                format!("resident ratio {cur:.3}->{next:.3}"),
            );
        }
    }

    /// Effective resident ratio the next iteration runs with.
    fn effective_ratio(&self, cfg: &TrainConfig) -> f64 {
        match self.rung {
            LadderRung::CpuOnly => 0.0,
            _ => self.resident_ratio.unwrap_or(cfg.offload.gpu_resident_ratio),
        }
    }
}

impl IterationController for Controller {
    fn plan_iteration(&mut self, iteration: usize, cfg: &TrainConfig) -> ControlledIteration {
        self.probe_active = false;
        if !self.seeded {
            self.seeded = true;
            let detail = match self.rung {
                LadderRung::Dos => format!("seed:k{}", self.stride),
                _ => format!("seed:{}", self.rung.as_str()),
            };
            self.decide(iteration, DecisionKind::Seed, detail);
            // The seed is itself a stride decision: start the retune
            // cooldown from here, so the first retune isn't exempt.
            self.last_retune = Some(iteration);
        } else {
            self.step(iteration);
        }
        if self.rung == LadderRung::Dos {
            self.size_residents(iteration);
        }

        let policy = self.stride_policy();
        let ratio = self.effective_ratio(cfg);
        let offload = if self.rung == LadderRung::CpuOnly || self.resident_ratio.is_some() {
            let mut o = cfg.offload;
            o.gpu_resident_ratio = ratio;
            Some(o)
        } else {
            None
        };

        // Mirror the scheduler's interleaving condition so the estimator
        // knows whether this iteration's CPU spans ran under contention.
        let n = cfg.params_per_rank().div_ceil(cfg.offload.subgroup_params.max(1));
        let n_static = ((ratio * n as f64).ceil() as usize).min(n);
        let dynamic = n - n_static;
        self.interleaved_last = match policy {
            StridePolicy::Fixed(k) => dynamic > k.saturating_sub(1),
            _ => false,
        };

        ControlledIteration {
            scheduler: Box::new(DeepOptimizerStates { stride: policy, residents_at_tail: true }),
            offload,
            faults: fault_plan_for(&self.faults, self.fault_seed, iteration),
        }
    }

    fn observe_iteration(&mut self, iteration: usize, report: &IterationReport) {
        self.clock += report.total_secs;
        self.last_peak_bytes = Some(report.gpu_peak_bytes);
        self.est.observe_sim_timeline(&report.timeline, self.interleaved_last);
        if report.oom.is_some() {
            self.clean_streak = 0;
            if self.rung != LadderRung::CpuOnly {
                if self.rung == LadderRung::Dos {
                    self.pre_fault_stride = self.stride;
                }
                self.rung = LadderRung::CpuOnly;
                self.decide(iteration, DecisionKind::Ladder, "descend:cpu-only (gpu oom)".into());
            }
        } else if self.rung == LadderRung::CpuOnly {
            self.clean_streak += 1;
        }
    }
}

/// Tunables of the [`WallClockTuner`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct WallClockTunerConfig {
    /// EWMA smoothing factor.
    pub alpha: f64,
    /// Hysteresis band on the fractional predicted gain.
    pub hysteresis_gain: f64,
    /// Cooldown iterations between retunes.
    pub min_iters_between_retunes: usize,
    /// Largest stride considered.
    pub max_stride: usize,
    /// Stride used until the first wall-clock samples arrive.
    pub seed_stride: usize,
    /// Static-resident sizing policy. `Headroom` resizes the resident tail
    /// against the arena pool's per-iteration high-water gauge (fed via
    /// [`WallClockTuner::observe_arena`]) toward `host_budget_bytes`.
    pub residents: ResidentPolicy,
    /// Host staging-memory budget (bytes) the `Headroom` policy steers the
    /// arena high-water toward. `0` disables resident resizing.
    pub host_budget_bytes: u64,
    /// Resident count the tuner starts from.
    pub base_residents: usize,
}

impl Default for WallClockTunerConfig {
    fn default() -> Self {
        WallClockTunerConfig {
            alpha: 0.5,
            hysteresis_gain: 0.05,
            min_iters_between_retunes: 1,
            max_stride: 8,
            seed_stride: 2,
            residents: ResidentPolicy::Fixed,
            host_budget_bytes: 0,
            base_residents: 0,
        }
    }
}

/// The functional-trainer tuner: the same sweep + hysteresis loop as
/// [`Controller`], fed purely from wall-clock spans recorded by the real
/// threaded pipeline (`hybrid_update_pooled`) — `U_c` from `update:sg*`
/// spans, `D_c` from the pipeline's dedicated `downscale:sg*` spans, `B`
/// from the staging transfers. No contention compensation is applied —
/// wall spans already measure the contended machine. When configured with
/// [`ResidentPolicy::Headroom`], it additionally sizes the static-resident
/// tail against the arena pool's high-water gauge, the functional path's
/// observable memory signal.
#[derive(Debug, Clone)]
pub struct WallClockTuner {
    cfg: WallClockTunerConfig,
    est: InputEstimators,
    params: f64,
    subgroup: f64,
    n_subgroups: usize,
    stride: usize,
    residents: usize,
    cpu_only: bool,
    iter: usize,
    last_retune: Option<usize>,
    retunes: usize,
    decisions: Vec<ControlDecision>,
}

impl WallClockTuner {
    /// A tuner for a rank updating `params_per_rank` parameters in
    /// subgroups of `subgroup_params`.
    pub fn new(cfg: WallClockTunerConfig, params_per_rank: usize, subgroup_params: usize) -> Self {
        let n_subgroups = params_per_rank.div_ceil(subgroup_params.max(1));
        WallClockTuner {
            est: InputEstimators::wall(cfg.alpha),
            params: params_per_rank as f64,
            subgroup: subgroup_params.max(1) as f64,
            n_subgroups,
            stride: cfg.seed_stride.clamp(1, cfg.max_stride.max(1)),
            residents: cfg.base_residents.min(n_subgroups),
            cpu_only: false,
            iter: 0,
            last_retune: None,
            retunes: 0,
            decisions: Vec::new(),
            cfg,
        }
    }

    /// The stride policy the next iteration should run under.
    pub fn stride_policy(&self) -> StridePolicy {
        if self.cpu_only {
            StridePolicy::CpuOnly
        } else {
            StridePolicy::Fixed(self.stride.max(1))
        }
    }

    /// Number of hysteresis-approved changes so far.
    pub fn retunes(&self) -> usize {
        self.retunes
    }

    /// The decision log (`at_secs` carries the iteration index).
    pub fn decisions(&self) -> &[ControlDecision] {
        &self.decisions
    }

    /// The current wall-clock input estimates.
    pub fn estimated_inputs(&self) -> Option<PerfModelInputs> {
        self.est.inputs()
    }

    /// The static-resident count the next iteration should run with.
    pub fn static_residents(&self) -> usize {
        self.residents
    }

    /// Feeds the arena pool's per-iteration staging high-water mark (from
    /// `ArenaPool::take_high_water_bytes`) and, under
    /// [`ResidentPolicy::Headroom`], resizes the static-resident tail: the
    /// configured fraction of the signed headroom against
    /// `host_budget_bytes` is converted into whole subgroups at
    /// [`STAGED_BYTES_PER_PARAM`] of staging footprint (p/m/v/g in FP32).
    /// Overshoot shrinks the tail again, so the loop self-corrects.
    pub fn observe_arena(&mut self, high_water_bytes: usize) {
        let ResidentPolicy::Headroom { fraction, cap } = self.cfg.residents else { return };
        if self.cfg.host_budget_bytes == 0 {
            return;
        }
        let headroom = self.cfg.host_budget_bytes as f64 - high_water_bytes as f64;
        let bytes_per_subgroup = STAGED_BYTES_PER_PARAM as f64 * self.subgroup;
        let delta = fraction.clamp(0.0, 1.0) * headroom / bytes_per_subgroup;
        let max_residents =
            ((cap.clamp(0.0, 1.0) * self.n_subgroups as f64).floor() as usize).min(self.n_subgroups);
        let next = ((self.residents as f64 + delta).round().max(0.0) as usize).min(max_residents);
        if next != self.residents {
            let old = self.residents;
            self.residents = next;
            self.decide(DecisionKind::Residents, format!("residents {old}->{next}"));
        }
    }

    fn decide(&mut self, kind: DecisionKind, detail: String) {
        self.decisions.push(ControlDecision {
            iteration: self.iter,
            at_secs: self.iter as f64,
            kind,
            detail,
        });
    }

    /// The shared sweep + hysteresis gate, parameterized by this tuner's
    /// tunables (no contention factor: wall spans measure the contended
    /// machine directly).
    fn gate(&self) -> SweepGate {
        SweepGate {
            hysteresis_gain: self.cfg.hysteresis_gain,
            min_iters_between_retunes: self.cfg.min_iters_between_retunes,
            max_stride: self.cfg.max_stride,
        }
    }

    /// Feeds one finished iteration's wall-clock trace events and re-runs
    /// the sweep + hysteresis gate.
    pub fn observe(&mut self, events: &[TraceEvent]) {
        self.est.observe_wall_events(events);
        self.iter += 1;
        let Some(inputs) = self.est.inputs() else { return };
        let pm = PerfModel::new(inputs);
        let best = self.gate().sweep(&pm, self.params, self.subgroup);
        let i = self.iter;
        let cur_secs = if self.cpu_only {
            best.cpu_secs
        } else {
            pm.predicted_update_secs(self.params, self.subgroup, Some(self.stride))
        };
        // All three moves share the same hysteresis + cooldown gate.
        let Some(gain) = self.gate().approve(i, self.last_retune, cur_secs, best.best_secs) else {
            return;
        };
        match best.best_k {
            None if !self.cpu_only => {
                self.cpu_only = true;
                self.retunes += 1;
                self.last_retune = Some(i);
                self.decide(
                    DecisionKind::Ladder,
                    format!("k{}->cpu-only (predicted gain {:.1}%)", self.stride, gain * 100.0),
                );
            }
            Some(k) if self.cpu_only => {
                self.cpu_only = false;
                self.stride = k;
                self.retunes += 1;
                self.last_retune = Some(i);
                self.decide(
                    DecisionKind::Recover,
                    format!("cpu-only->k{k} (predicted gain {:.1}%)", gain * 100.0),
                );
            }
            Some(k) if k != self.stride => {
                let old = self.stride;
                self.stride = k;
                self.retunes += 1;
                self.last_retune = Some(i);
                self.decide(
                    DecisionKind::Retune,
                    format!("k{old}->k{k} (predicted gain {:.1}%)", gain * 100.0),
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_hal::HardwareProfile;
    use dos_nn::ModelSpec;
    use dos_sim::ResourceUtilization;
    use dos_telemetry::{EventKind, Timeline};
    use proptest::prelude::*;

    fn train() -> TrainConfig {
        TrainConfig::deep_optimizer_states(
            ModelSpec::by_name("20B").expect("20B in the zoo"),
            HardwareProfile::jlse_h100(),
        )
    }

    /// A synthetic report whose only informative spans are PCIe transfers
    /// at an effective rate of `b_eff` params/s per direction — the CPU and
    /// GPU estimators keep their calibration prior, so tests steer the
    /// controller through `B` alone.
    fn report_with_b(b_eff: f64, oom: bool) -> IterationReport {
        let s = 1.0e8_f64;
        let mut tl = Timeline::new();
        tl.record("pcie.h2d", "h2d-params16:sg0", "update", 0.0, 2.0 * s / (4.0 * b_eff), 2.0 * s);
        tl.record("pcie.d2h", "flush-momentum:sg0", "update", 0.0, 4.0 * s / (4.0 * b_eff), 4.0 * s);
        IterationReport {
            scheduler: "test".into(),
            model: "20B".into(),
            forward_secs: 0.0,
            backward_secs: 0.0,
            update_secs: 1.0,
            total_secs: 1.0,
            spill_secs: 0.0,
            tflops_per_gpu: 0.0,
            update_pps_per_rank: 0.0,
            gpu_peak_bytes: 0,
            oom: oom.then(|| "synthetic oom".to_string()),
            host_oom: None,
            update_utilization: ResourceUtilization::default(),
            timeline: tl,
        }
    }

    #[test]
    fn seeds_to_the_static_k_star() {
        let cfg = train();
        let mut ctl = Controller::new(ControllerConfig::default(), &cfg);
        let plan = ctl.plan_iteration(0, &cfg);
        assert_eq!(ctl.stride_policy(), StridePolicy::Fixed(2), "jlse_h100 k* = 2");
        assert_eq!(ctl.decisions()[0].kind, DecisionKind::Seed);
        assert!(plan.offload.is_none(), "Fixed resident policy leaves the config untouched");
        assert!(plan.faults.is_none());
    }

    #[test]
    fn healthy_observations_never_move_the_stride() {
        let cfg = train();
        let mut ctl = Controller::new(ControllerConfig::default(), &cfg);
        for i in 0..10 {
            let _ = ctl.plan_iteration(i, &cfg);
            ctl.observe_iteration(i, &report_with_b(4.0e9, false));
        }
        assert_eq!(ctl.retunes(), 0);
        assert_eq!(ctl.stride_policy(), StridePolicy::Fixed(2));
        assert_eq!(ctl.rung(), LadderRung::Dos);
    }

    #[test]
    fn recovery_restores_the_pre_fault_stride() {
        let cfg = train();
        // Huge cooldown: no intermediate retunes, so the stride parked at
        // descent time is exactly the seeded k* = 2.
        let ctl_cfg = ControllerConfig {
            min_iters_between_retunes: 1000,
            ..ControllerConfig::default()
        };
        let mut ctl = Controller::new(ctl_cfg, &cfg);
        let mut i = 0;
        while ctl.rung() != LadderRung::ResidentsOnly {
            let _ = ctl.plan_iteration(i, &cfg);
            ctl.observe_iteration(i, &report_with_b(0.5e9, false));
            i += 1;
            assert!(i < 50, "descent must happen within a bounded number of iterations");
        }
        assert!(ctl
            .decisions()
            .iter()
            .any(|d| d.kind == DecisionKind::Ladder && d.detail.contains("residents-only")));
        while ctl.rung() != LadderRung::Dos {
            let _ = ctl.plan_iteration(i, &cfg);
            ctl.observe_iteration(i, &report_with_b(4.0e9, false));
            i += 1;
            assert!(i < 100, "recovery must happen within a bounded number of iterations");
        }
        assert_eq!(ctl.stride_policy(), StridePolicy::Fixed(2), "pre-fault stride restored");
        assert!(ctl.decisions().iter().any(|d| d.kind == DecisionKind::Recover));
    }

    #[test]
    fn oom_descends_to_cpu_only_and_climbs_back() {
        let cfg = train();
        let mut ctl = Controller::new(ControllerConfig::default(), &cfg);
        let plan = ctl.plan_iteration(0, &cfg);
        drop(plan);
        ctl.observe_iteration(0, &report_with_b(4.0e9, true));
        assert_eq!(ctl.rung(), LadderRung::CpuOnly);
        let plan = ctl.plan_iteration(1, &cfg);
        assert_eq!(ctl.stride_policy(), StridePolicy::CpuOnly);
        let off = plan.offload.expect("cpu-only forces an offload override");
        assert_eq!(off.gpu_resident_ratio, 0.0);
        // Clean iterations: climb back to residents-only, then to Dos.
        let mut i = 1;
        ctl.observe_iteration(i, &report_with_b(4.0e9, false));
        while ctl.rung() != LadderRung::Dos {
            i += 1;
            let _ = ctl.plan_iteration(i, &cfg);
            ctl.observe_iteration(i, &report_with_b(4.0e9, false));
            assert!(i < 50, "full recovery must be bounded");
        }
        assert_eq!(ctl.stride_policy(), StridePolicy::Fixed(2));
    }

    #[test]
    fn residents_only_probes_periodically() {
        let cfg = train();
        let ctl_cfg = ControllerConfig {
            min_iters_between_retunes: 1000,
            recovery_patience: 2,
            ..ControllerConfig::default()
        };
        let mut ctl = Controller::new(ctl_cfg, &cfg);
        // Drive down and keep the link degraded: the controller must keep
        // probing rather than trusting a permanently stale estimate.
        for i in 0..20 {
            let _ = ctl.plan_iteration(i, &cfg);
            ctl.observe_iteration(i, &report_with_b(0.5e9, false));
        }
        assert_eq!(ctl.rung(), LadderRung::ResidentsOnly);
        let probes = ctl.decisions().iter().filter(|d| d.kind == DecisionKind::Probe).count();
        assert!(probes >= 2, "expected periodic probes, saw {probes}");
    }

    #[test]
    fn headroom_policy_resizes_and_stays_clamped() {
        let mut cfg = train();
        cfg.offload.gpu_resident_ratio = 0.1;
        let ctl_cfg = ControllerConfig {
            residents: ResidentPolicy::Headroom { fraction: 0.5, cap: 0.3 },
            ..ControllerConfig::default()
        };
        let mut ctl = Controller::new(ctl_cfg, &cfg);
        let mut ratios = Vec::new();
        for i in 0..8 {
            let plan = ctl.plan_iteration(i, &cfg);
            let r = plan.offload.map_or(cfg.offload.gpu_resident_ratio, |o| o.gpu_resident_ratio);
            ratios.push(r);
            // Huge free headroom: the ratio should grow toward the cap.
            let mut rep = report_with_b(4.0e9, false);
            rep.gpu_peak_bytes = 10 << 30;
            ctl.observe_iteration(i, &rep);
        }
        assert!(ratios.iter().all(|r| (0.0..=0.3).contains(r)), "ratios clamped: {ratios:?}");
        assert!(
            ratios.last().copied().unwrap_or(0.0) > 0.1,
            "free headroom grows the tail: {ratios:?}"
        );
        assert!(ctl.decisions().iter().any(|d| d.kind == DecisionKind::Residents));
        // Now report a peak above the HBM size: the ratio must shrink.
        let before = ratios.last().copied().unwrap_or(0.0);
        let mut rep = report_with_b(4.0e9, false);
        rep.gpu_peak_bytes = cfg.profile.gpu_hbm_bytes + (40 << 30);
        ctl.observe_iteration(7, &rep);
        let plan = ctl.plan_iteration(8, &cfg);
        let after = plan.offload.map_or(before, |o| o.gpu_resident_ratio);
        assert!(after < before, "negative headroom shrinks the tail: {before} -> {after}");
    }

    #[test]
    fn decisions_emit_control_instants_when_traced() {
        let cfg = train();
        let tracer = Tracer::new();
        let mut ctl = Controller::new(ControllerConfig::default(), &cfg).with_tracer(&tracer);
        let _ = ctl.plan_iteration(0, &cfg);
        ctl.observe_iteration(0, &report_with_b(0.5e9, false));
        let _ = ctl.plan_iteration(1, &cfg);
        let instants = tracer.control_instants();
        assert!(!instants.is_empty());
        assert!(instants.iter().all(|ev| ev.name.starts_with("control:")));
    }

    #[test]
    fn wall_tuner_degrades_and_recovers_on_pipeline_spans() {
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
        let events_at = |b: f64| {
            vec![
                mk("cpu", "update:sg0", 0.5, 1.0e9),
                mk("cpu", "downscale:sg0", 0.1, 1.0e9),
                mk("gpu", "update:sg1", 0.1, 2.5e9),
                mk("pcie.h2d", "prefetch:sg1", 1.0e9 / b, 4.0 * 1.0e9),
                mk("pcie.d2h", "flush:sg1", 1.0e9 / b, 4.0 * 1.0e9),
            ]
        };
        let cfg = WallClockTunerConfig { alpha: 1.0, ..WallClockTunerConfig::default() };
        let mut tuner = WallClockTuner::new(cfg, 5_000_000_000, 100_000_000);
        assert_eq!(tuner.stride_policy(), StridePolicy::Fixed(2));
        // Severe degradation: Equation 1 stops paying, the tuner retreats.
        tuner.observe(&events_at(0.4e9));
        assert_eq!(tuner.stride_policy(), StridePolicy::CpuOnly, "{:?}", tuner.estimated_inputs());
        // Healthy again: it climbs back to an interleaved stride.
        tuner.observe(&events_at(4.0e9));
        assert!(
            matches!(tuner.stride_policy(), StridePolicy::Fixed(_)),
            "{:?}",
            tuner.stride_policy()
        );
        assert!(tuner.retunes() >= 2);
        let inputs = tuner.estimated_inputs().expect("all four inputs observed");
        assert!((inputs.dc - 1.0e10).abs() / 1.0e10 < 1e-6, "D_c is measured: {}", inputs.dc);
    }

    #[test]
    fn wall_tuner_headroom_shrinks_residents_and_recovers() {
        // 100 subgroups of 1M params; staging one costs 16 MB. Budget: the
        // footprint of ~10 staged subgroups.
        let budget = 10 * 16_000_000u64;
        let cfg = WallClockTunerConfig {
            residents: ResidentPolicy::Headroom { fraction: 0.5, cap: 0.2 },
            host_budget_bytes: budget,
            base_residents: 12,
            ..WallClockTunerConfig::default()
        };
        let mut tuner = WallClockTuner::new(cfg, 100_000_000, 1_000_000);
        assert_eq!(tuner.static_residents(), 12);

        // Constrained pool: high-water blows past the budget every
        // iteration; the tail must shrink monotonically toward zero.
        let mut seen = vec![tuner.static_residents()];
        for _ in 0..12 {
            tuner.observe_arena(2 * budget as usize);
            seen.push(tuner.static_residents());
        }
        assert!(
            seen.windows(2).all(|w| w[1] <= w[0]),
            "constrained pool must never grow the tail: {seen:?}"
        );
        let low = tuner.static_residents();
        assert!(low < 12, "constrained pool must shrink the tail: {seen:?}");

        // Relaxed pool: ample headroom grows the tail back, but never past
        // the cap (20% of 100 subgroups).
        for _ in 0..12 {
            tuner.observe_arena(budget as usize / 10);
        }
        let recovered = tuner.static_residents();
        assert!(recovered > low, "headroom must recover the tail: {low} -> {recovered}");
        assert!(recovered <= 20, "cap respected: {recovered}");
        assert!(tuner.decisions().iter().any(|d| d.kind == DecisionKind::Residents));
    }

    #[test]
    fn wall_tuner_fixed_policy_ignores_arena_pressure() {
        let cfg = WallClockTunerConfig {
            base_residents: 5,
            host_budget_bytes: 1,
            ..WallClockTunerConfig::default()
        };
        let mut tuner = WallClockTuner::new(cfg, 100_000_000, 1_000_000);
        tuner.observe_arena(usize::MAX / 2);
        assert_eq!(tuner.static_residents(), 5);
        assert!(tuner.decisions().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Hysteresis + cooldown bound the number of retunes regardless of
        /// how wildly the observed bandwidth oscillates.
        #[test]
        fn retunes_are_bounded_by_the_cooldown(
            bs in proptest::collection::vec(0.3e9f64..8.0e9, 1..24),
            cooldown in 1usize..5,
        ) {
            let cfg = train();
            let ctl_cfg = ControllerConfig {
                min_iters_between_retunes: cooldown,
                ..ControllerConfig::default()
            };
            let mut ctl = Controller::new(ctl_cfg, &cfg);
            let n = bs.len();
            for (i, b) in bs.into_iter().enumerate() {
                let _ = ctl.plan_iteration(i, &cfg);
                ctl.observe_iteration(i, &report_with_b(b, false));
            }
            prop_assert!(ctl.retunes() <= 1 + (n.saturating_sub(1)) / cooldown);
        }

        /// Whatever the observations, the planned stride is always a
        /// finite positive integer within the configured bound (or the
        /// explicit CpuOnly policy — never zero, never unbounded).
        #[test]
        fn planned_stride_is_always_bounded(
            bs in proptest::collection::vec(0.1e9f64..16.0e9, 1..24),
            ooms in proptest::collection::vec(any::<bool>(), 24),
        ) {
            let cfg = train();
            let mut ctl = Controller::new(ControllerConfig::default(), &cfg);
            for (i, b) in bs.into_iter().enumerate() {
                let _ = ctl.plan_iteration(i, &cfg);
                match ctl.stride_policy() {
                    StridePolicy::Fixed(k) => prop_assert!((1..=8).contains(&k)),
                    StridePolicy::CpuOnly => {}
                    other => prop_assert!(false, "unexpected policy {other:?}"),
                }
                ctl.observe_iteration(i, &report_with_b(b, ooms[i % ooms.len()]));
            }
        }
    }
}
