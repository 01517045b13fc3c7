//! The [`Trainer`] facade: a JSON-configured optimizer shard stepped
//! through the zero-copy hybrid-update pipeline.

use dos_control::{WallClockTuner, WallClockTunerConfig};
use dos_core::{
    hybrid_update_pooled, ArenaPool, DeviceFault, PipelineConfig, PipelineReport, StridePolicy,
    ZenFlowPipeline, CPU_TRACK, DEVICE_TRACK,
};
use dos_optim::{MixedPrecisionState, UpdateRule};
use dos_telemetry::{
    window_stats, HealthBoard, HealthEvent, HealthMonitor, IterationReport, TraceEvent, Tracer,
    HEALTH_TRACK,
};
use dos_zero::{partition_into_subgroups, SubgroupSpec};

use crate::checkpoint::TrainingCheckpoint;
use crate::config::{TrainerConfig, TrainerError};

/// A functional trainer over one flat optimizer shard.
///
/// Construction resolves the whole JSON surface — rule name, stride
/// entry, partitioning — so that anything reachable through a
/// configuration file exercises the exact production code path:
/// [`hybrid_update_pooled`] with a per-trainer [`ArenaPool`], never a
/// hand-assembled pipeline call. [`Trainer::step`] is the one optimizer
/// step: the single-process facade and every data-parallel rank of
/// `dos-runtime`'s functional trainer call it.
#[derive(Debug)]
pub struct Trainer {
    cfg: TrainerConfig,
    state: MixedPrecisionState,
    subgroups: Vec<SubgroupSpec>,
    pipeline: PipelineConfig,
    pool: ArenaPool,
    steps_taken: usize,
    /// The monitoring tracer, or one given to [`Trainer::trace_into`].
    tracer: Option<Tracer>,
    monitoring: Option<Monitoring>,
    tuning: Option<Tuning>,
    /// Present when `"scheduler": "zenflow_async"` is configured: the
    /// cross-iteration bounded-staleness update driver that replaces the
    /// in-barrier hybrid pipeline.
    zenflow: Option<ZenFlowPipeline>,
}

/// Per-trainer monitoring state: the online health detectors and their
/// board, fed from the trainer's tracer.
#[derive(Debug)]
struct Monitoring {
    /// Whether detector events are emitted (instants + board); the EWMA
    /// baselines are maintained either way.
    detect: bool,
    health: HealthMonitor,
    board: HealthBoard,
    last_report: Option<IterationReport>,
    last_events: Vec<HealthEvent>,
    prev_hits: u64,
    prev_misses: u64,
}

/// Online retuning for `"update_stride": "adaptive"`. Without a tracer of
/// the trainer's own, spans go to `private`, cleared after every step.
#[derive(Debug)]
struct Tuning {
    tuner: WallClockTuner,
    private: Tracer,
}

impl Trainer {
    /// Builds a trainer from a JSON document and the initial parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Parse`] on malformed JSON and
    /// [`TrainerError::Invalid`] for unresolvable names, zero shapes, or
    /// an `init` whose length disagrees with `params`.
    pub fn from_json(json: &str, init: Vec<f32>) -> Result<Trainer, TrainerError> {
        TrainerConfig::from_json(json)?.build(init)
    }

    /// Arms (or clears) a device-worker fault for the next steps. Chaos
    /// campaigns and the differential fuzzer use this; production configs
    /// never set it, which is why it is not part of the JSON surface.
    pub fn inject_fault(&mut self, fault: Option<DeviceFault>) {
        self.pipeline.fault_injection = fault;
    }

    /// Records later steps (spans, byte counters, arena gauges) into
    /// `tracer`, e.g. one shared by data-parallel ranks. Call it before the
    /// first step: the arena is rebuilt around the tracer's registry.
    pub fn trace_into(&mut self, tracer: Tracer) {
        self.pool = ArenaPool::with_metrics(tracer.metrics().clone());
        self.tracer = Some(tracer);
    }

    /// Restarts the adaptive stride's tuner with `tunables`; a
    /// `base_residents` of 0 inherits `static_residents`. Ignored unless
    /// the hybrid scheduler runs an adaptive stride.
    pub fn tune_with(&mut self, mut tunables: WallClockTunerConfig) {
        if self.zenflow.is_some() || self.pipeline.stride != StridePolicy::Adaptive {
            return;
        }
        if tunables.base_residents == 0 {
            tunables.base_residents = self.cfg.static_residents;
        }
        let tuner = WallClockTuner::new(tunables, self.cfg.params, self.cfg.subgroup_size);
        self.tuning = Some(Tuning { tuner, private: Tracer::new() });
    }

    /// Sets the learning rate of every later step (LR schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.state.set_lr(lr);
        self.cfg.lr = lr;
    }

    /// Runs one optimizer step over the full shard.
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Invalid`] on a gradient-length mismatch and
    /// [`TrainerError::Pipeline`] when the pipeline rejects the step.
    pub fn step(&mut self, grads: &[f32]) -> Result<PipelineReport, TrainerError> {
        if grads.len() != self.cfg.params {
            return Err(TrainerError::Invalid {
                detail: format!(
                    "gradient length {} != configured params {}",
                    grads.len(),
                    self.cfg.params
                ),
            });
        }
        let mut pipeline = self.pipeline;
        if let Some(t) = &self.tuning {
            pipeline.stride = t.tuner.stride_policy();
            pipeline.static_residents = t.tuner.static_residents();
        }
        let tracer = self.tracer.clone().or_else(|| self.tuning.as_ref().map(|t| t.private.clone()));
        // Where this step's events begin, when someone reads them back.
        let observed = self.monitoring.is_some() || self.tuning.is_some();
        let mark = tracer.as_ref().filter(|_| observed).map(|t| (t.len(), t.now()));
        let wall = std::time::Instant::now();
        let report = match &mut self.zenflow {
            Some(zf) => {
                let zr = zf.step(&mut self.state, grads);
                // The device view is downscaled *before* harvesting, so
                // cold in-flight ranges deterministically show their
                // pre-dispatch (bounded-stale) parameters — the precision
                // the next iteration actually trains with under ZenFlow.
                // Staged through the arena (same vectorized kernel, bit
                // identical) so monitored ZenFlow runs publish the arena
                // gauges the /metrics smoke keys on.
                let staged = self.pool.lease_f16_downscaled(self.state.params());
                let fp16_params = staged.to_vec();
                drop(staged);
                zf.poll_pending(&mut self.state);
                PipelineReport {
                    fp16_params,
                    device_subgroups: zr.hot.len(),
                    cpu_subgroups: zr.flushed.len(),
                    degraded: None,
                }
            }
            None => hybrid_update_pooled(
                &mut self.state,
                grads,
                &self.subgroups,
                pipeline,
                tracer.as_ref(),
                &self.pool,
            )?,
        };
        let iter_secs = wall.elapsed().as_secs_f64();
        self.steps_taken += 1;
        if let (Some(t), Some((len, start))) = (&tracer, mark) {
            let events = t.events_since(len, start);
            self.observe_iteration(start, iter_secs, &events, &report);
            if let Some(tuning) = &mut self.tuning {
                tuning.tuner.observe(&events);
                // The arena's per-step staging peak drives the
                // resident-sizing policy (a no-op under a fixed policy).
                tuning.tuner.observe_arena(self.pool.take_high_water_bytes());
                tuning.private.clear();
            }
        }
        Ok(report)
    }

    /// Folds one finished step into the monitoring state: builds the
    /// [`IterationReport`], runs the detectors, emits `health:*` instants
    /// (a `health:degraded` instant also triggers the flight recorder's
    /// automatic dump), and publishes to the board.
    fn observe_iteration(
        &mut self,
        window_start: f64,
        iter_secs: f64,
        window_events: &[TraceEvent],
        report: &PipelineReport,
    ) {
        let params = self.cfg.params;
        let steps_taken = self.steps_taken;
        let hits = self.pool.reuse_hits();
        let misses = self.pool.allocation_misses();
        let high_water = self.pool.high_water_bytes();
        let (Some(mon), Some(tracer)) = (self.monitoring.as_mut(), &self.tracer) else { return };
        let window_end = tracer.now();
        let (stall_fraction, overlap_efficiency) =
            window_stats(window_events, CPU_TRACK, DEVICE_TRACK, window_start, window_end);
        let iter = IterationReport {
            iteration: (steps_taken - 1) as u64,
            iter_secs,
            params: params as u64,
            pps: if iter_secs > 0.0 { params as f64 / iter_secs } else { 0.0 },
            stall_fraction,
            overlap_efficiency,
            device_subgroups: report.device_subgroups as u64,
            cpu_subgroups: report.cpu_subgroups as u64,
            arena_reuse_hits: hits.saturating_sub(mon.prev_hits),
            arena_allocation_misses: misses.saturating_sub(mon.prev_misses),
            arena_high_water_bytes: high_water as u64,
            degraded: report.degraded.is_some(),
        };
        mon.prev_hits = hits;
        mon.prev_misses = misses;
        let events = mon.health.observe(&iter);
        if mon.detect {
            for ev in &events {
                tracer.instant_at(HEALTH_TRACK, ev.kind.instant_name(), "health", window_end);
            }
            mon.board.publish(iter, &events, &mon.health);
        } else {
            mon.board.publish(iter, &[], &mon.health);
        }
        mon.last_report = Some(iter);
        mon.last_events = events;
    }

    /// Captures a consistent snapshot of the trainer's optimizer state,
    /// suitable for [`crate::checkpoint::CheckpointStore::save`] and for
    /// resuming via [`TrainerConfig::resume`]. Preemption in the serving
    /// control plane is exactly `checkpoint()` + drop.
    ///
    /// Under the ZenFlow scheduler this is a **drain barrier**: every
    /// in-flight asynchronous update is joined and any residual
    /// accumulated gradient applied before the state is copied, so the
    /// checkpoint is never torn across a cross-iteration update.
    pub fn checkpoint(&mut self) -> TrainingCheckpoint {
        self.drain();
        TrainingCheckpoint {
            params: self.state.params().to_vec(),
            optimizer: self.state.clone(),
            iteration: self.steps_taken,
        }
    }

    /// Joins every in-flight ZenFlow update and applies any residual
    /// accumulated gradient (a no-op under the hybrid scheduler). After
    /// this, [`Trainer::params`]/[`Trainer::momentum`]/[`Trainer::variance`]
    /// read the fully-settled state the sequential bounded-staleness
    /// oracle produces.
    pub fn drain(&mut self) {
        if let Some(zf) = &mut self.zenflow {
            zf.drain(&mut self.state);
        }
    }

    /// The ZenFlow driver, when `"scheduler": "zenflow_async"` is
    /// configured (staleness telemetry lives on it).
    pub fn zenflow(&self) -> Option<&ZenFlowPipeline> {
        self.zenflow.as_ref()
    }

    /// The resolved configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// The optimizer shard (under ZenFlow, [`Trainer::drain`] first).
    pub fn state(&self) -> &MixedPrecisionState {
        &self.state
    }

    /// The FP32 master parameters.
    pub fn params(&self) -> &[f32] {
        self.state.params()
    }

    /// The first-moment (momentum) state.
    pub fn momentum(&self) -> &[f32] {
        self.state.momentum()
    }

    /// The second-moment (variance) state.
    pub fn variance(&self) -> &[f32] {
        self.state.variance()
    }

    /// The subgroup partition the pipeline runs over.
    pub fn subgroups(&self) -> &[SubgroupSpec] {
        &self.subgroups
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// The trainer's staging arena (lease gauges, hit/miss counters).
    pub fn arena(&self) -> &ArenaPool {
        &self.pool
    }

    /// The tracer steps record into: the monitoring tracer (its flight
    /// recorder and [`dos_telemetry::MetricsRegistry`] carry the live
    /// observability state), or the one given to [`Trainer::trace_into`].
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The wall-clock tuner of an adaptive stride, with its decision log.
    pub fn tuner(&self) -> Option<&WallClockTuner> {
        self.tuning.as_ref().map(|t| &t.tuner)
    }

    /// The health board, when monitoring is configured.
    pub fn health_board(&self) -> Option<&HealthBoard> {
        self.monitoring.as_ref().map(|m| &m.board)
    }

    /// The most recent per-iteration report, when monitoring is configured
    /// and at least one step has run.
    pub fn last_iteration(&self) -> Option<IterationReport> {
        self.monitoring.as_ref().and_then(|m| m.last_report)
    }

    /// Health events raised by the most recent step (empty when quiet or
    /// unmonitored).
    pub fn last_health_events(&self) -> &[HealthEvent] {
        self.monitoring.as_ref().map(|m| m.last_events.as_slice()).unwrap_or(&[])
    }
}

impl TrainerConfig {
    /// Builds a [`Trainer`] from this configuration and the initial
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Invalid`] for zero shapes, unknown rule
    /// names, or a length mismatch between `init` and `params`.
    pub fn build(self, init: Vec<f32>) -> Result<Trainer, TrainerError> {
        let state = MixedPrecisionState::new(init, self.resolve_rule()?, self.lr);
        self.assemble(state, 0)
    }

    /// Rebuilds a [`Trainer`] from this configuration and a previously
    /// captured [`TrainingCheckpoint`], continuing at the checkpoint's
    /// iteration with its exact optimizer state (master params, moments,
    /// step counts) — the resume half of checkpoint-based preemption.
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Invalid`] for an unresolvable config or a
    /// checkpoint whose shard length disagrees with `params`.
    pub fn resume(self, checkpoint: &TrainingCheckpoint) -> Result<Trainer, TrainerError> {
        self.assemble(checkpoint.optimizer.clone(), checkpoint.iteration)
    }

    /// Builds a [`Trainer`] around an optimizer shard that has already
    /// taken `steps_taken` steps (`build` and `resume` delegate here). The
    /// state's rule and learning rate win over the document's, and
    /// [`Trainer::config`] reports them.
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Invalid`] for an unresolvable config or a
    /// state whose length disagrees with `params`.
    pub fn assemble(
        mut self,
        state: MixedPrecisionState,
        steps_taken: usize,
    ) -> Result<Trainer, TrainerError> {
        self.validate()?;
        if state.len() != self.params {
            return Err(TrainerError::Invalid {
                detail: format!("optimizer state length {} != params {}", state.len(), self.params),
            });
        }
        if self.resolve_rule()? != state.rule() {
            self.rule = state.rule().name().to_string();
            if let UpdateRule::Adam { weight_decay, .. } = state.rule() {
                self.weight_decay = weight_decay;
            }
        }
        self.lr = state.lr();
        let pipeline = self.pipeline();
        let subgroups = partition_into_subgroups(self.params, self.subgroup_size);
        let flight_capacity = self.monitor.as_ref().map(|entry| entry.flight_capacity);
        let monitoring = self.monitor.as_ref().map(|entry| Monitoring {
            detect: entry.health,
            health: HealthMonitor::default(),
            board: HealthBoard::new(),
            last_report: None,
            last_events: Vec::new(),
            prev_hits: 0,
            prev_misses: 0,
        });
        let zenflow = self
            .is_zenflow()
            .then(|| ZenFlowPipeline::new(subgroups.clone(), self.zenflow()));
        let mut trainer = Trainer {
            cfg: self,
            state,
            subgroups,
            pipeline,
            pool: ArenaPool::new(),
            steps_taken,
            tracer: None,
            monitoring,
            tuning: None,
            zenflow,
        };
        // Monitoring records into a flight-only tracer, whose registry also
        // carries the arena's gauges (`/metrics` reads them from there).
        if let Some(capacity) = flight_capacity {
            trainer.trace_into(Tracer::flight_only(capacity));
        }
        trainer.tune_with(WallClockTunerConfig::default());
        Ok(trainer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin()).collect()
    }

    fn grads(n: usize, step: usize) -> Vec<f32> {
        (0..n).map(|i| ((i + 13 * step) as f32 * 0.11).cos()).collect()
    }

    #[test]
    fn json_built_trainer_matches_the_sequential_twin_bitwise() {
        let n = 47; // deliberately not a multiple of the subgroup size
        let json = r#"{ "params": 47, "subgroup_size": 8, "static_residents": 1,
                        "deep_optimizer_states": { "update_stride": 2 } }"#;
        let mut trainer = Trainer::from_json(json, init(n)).unwrap();
        let mut seq = MixedPrecisionState::new(init(n), UpdateRule::adam(), 0.01);
        for step in 0..3 {
            let g = grads(n, step);
            seq.full_step(&g);
            let report = trainer.step(&g).unwrap();
            assert!(report.device_subgroups > 0, "stride 2 must use the device");
            assert_eq!(report.fp16_params, seq.downscale_range(0..n));
        }
        assert_eq!(trainer.params(), seq.params());
        assert_eq!(trainer.momentum(), seq.momentum());
        assert_eq!(trainer.variance(), seq.variance());
        assert_eq!(trainer.steps_taken(), 3);
        assert_eq!(trainer.arena().in_use_bytes(), 0, "all leases returned");
        assert!(trainer.arena().high_water_bytes() > 0);
    }

    #[test]
    fn injected_fault_degrades_but_does_not_diverge() {
        let n = 40;
        let json = r#"{ "params": 40, "subgroup_size": 5,
                        "deep_optimizer_states": { "update_stride": 2 } }"#;
        let mut trainer = Trainer::from_json(json, init(n)).unwrap();
        trainer.inject_fault(Some(DeviceFault::PanicAfter(1)));
        let mut seq = MixedPrecisionState::new(init(n), UpdateRule::adam(), 0.01);
        let g = grads(n, 0);
        seq.full_step(&g);
        let report = trainer.step(&g).unwrap();
        assert!(report.degraded.is_some(), "the armed fault must fire");
        assert_eq!(trainer.params(), seq.params());
    }

    #[test]
    fn monitored_trainer_is_bitwise_identical_and_reports() {
        let n = 47;
        let plain = r#"{ "params": 47, "subgroup_size": 8,
                         "deep_optimizer_states": { "update_stride": 2 } }"#;
        let monitored = r#"{ "params": 47, "subgroup_size": 8,
                             "deep_optimizer_states": { "update_stride": 2 },
                             "monitor": {} }"#;
        let mut a = Trainer::from_json(plain, init(n)).unwrap();
        let mut b = Trainer::from_json(monitored, init(n)).unwrap();
        for step in 0..4 {
            let g = grads(n, step);
            a.step(&g).unwrap();
            b.step(&g).unwrap();
        }
        assert_eq!(a.params(), b.params(), "monitoring must not perturb numerics");
        assert_eq!(a.momentum(), b.momentum());
        assert_eq!(a.variance(), b.variance());

        let rep = b.last_iteration().expect("monitored trainer reports");
        assert_eq!(rep.iteration, 3);
        assert_eq!(rep.params, 47);
        assert!(rep.pps > 0.0);
        assert!(rep.device_subgroups > 0);
        assert!(!rep.degraded);
        let board = b.health_board().unwrap().snapshot();
        assert_eq!(board.iterations, 4);
        assert!(!board.degraded);

        let tracer = b.tracer().unwrap();
        assert!(tracer.flight().unwrap().total_recorded() > 0, "ring fills");
        assert!(tracer.is_empty(), "flight-only mode keeps no unbounded store");
        assert!(tracer.metrics().gauge("arena.in_use_bytes").is_some());
        assert!(a.tracer().is_none() && a.health_board().is_none());
    }

    #[test]
    fn degraded_monitored_step_dumps_flight_context() {
        let n = 40;
        let json = r#"{ "params": 40, "subgroup_size": 5,
                        "deep_optimizer_states": { "update_stride": 2 },
                        "monitor": { "flight_capacity": 256 } }"#;
        let mut trainer = Trainer::from_json(json, init(n)).unwrap();
        let g = grads(n, 0);
        trainer.step(&g).unwrap();
        trainer.inject_fault(Some(DeviceFault::PanicAfter(1)));
        let report = trainer.step(&g).unwrap();
        assert!(report.degraded.is_some(), "the armed fault must fire");

        assert!(
            trainer.last_iteration().unwrap().degraded,
            "iteration report carries the degradation"
        );
        assert!(trainer
            .last_health_events()
            .iter()
            .any(|e| e.kind == dos_telemetry::HealthEventKind::Degraded));
        // The health:degraded instant triggered an automatic flight dump
        // whose ring context includes the pipeline's fault instant.
        let dump = trainer.tracer().unwrap().flight().unwrap().last_dump().expect("auto dump");
        assert_eq!(dump.reason, "health:degraded");
        assert!(dump.events.iter().any(|e| e.name == "fault:device-worker"), "{dump:?}");
        assert!(dump.events.iter().any(|e| e.name == "health:degraded"));
    }

    #[test]
    fn checkpoint_resume_is_bitwise_identical_to_uninterrupted() {
        let n = 47;
        let json = r#"{ "params": 47, "subgroup_size": 8,
                        "deep_optimizer_states": { "update_stride": 2 } }"#;
        let cfg = TrainerConfig::from_json(json).unwrap();
        let mut a = cfg.clone().build(init(n)).unwrap();
        let mut b = cfg.clone().build(init(n)).unwrap();
        for step in 0..5 {
            a.step(&grads(n, step)).unwrap();
        }
        // B: 2 steps, preempt (checkpoint + drop), resume, 3 more.
        for step in 0..2 {
            b.step(&grads(n, step)).unwrap();
        }
        let snap = b.checkpoint();
        assert_eq!(snap.iteration, 2);
        drop(b);
        // Round-trip through the on-disk format like a real preemption does.
        let snap = TrainingCheckpoint::from_bytes(&snap.to_bytes().unwrap()).unwrap();
        let mut b = cfg.resume(&snap).unwrap();
        assert_eq!(b.steps_taken(), 2);
        for step in 2..5 {
            b.step(&grads(n, step)).unwrap();
        }
        assert_eq!(a.params(), b.params());
        assert_eq!(a.momentum(), b.momentum());
        assert_eq!(a.variance(), b.variance());
        assert_eq!(a.steps_taken(), b.steps_taken());
    }

    #[test]
    fn zenflow_trainer_matches_the_bounded_staleness_oracle_bitwise() {
        let n = 48;
        let json = r#"{ "params": 48, "subgroup_size": 8, "scheduler": "zenflow_async",
                        "importance_ratio": 0.25, "staleness_bound": 2 }"#;
        let mut trainer = Trainer::from_json(json, init(n)).unwrap();
        let steps: Vec<Vec<f32>> = (0..5).map(|t| grads(n, t)).collect();
        for g in &steps {
            let report = trainer.step(g).unwrap();
            assert!(report.device_subgroups >= 1, "hot set never empty");
            assert!(report.degraded.is_none());
        }
        trainer.drain();
        let zf = trainer.zenflow().unwrap();
        assert!(zf.max_age_seen() <= 2, "staleness bound violated: {}", zf.max_age_seen());

        let mut oracle = MixedPrecisionState::new(init(n), UpdateRule::adam(), 0.01);
        let subgroups = dos_zero::partition_into_subgroups(n, 8);
        let cfg = dos_core::ZenFlowConfig { importance_ratio: 0.25, staleness_bound: 2 };
        dos_core::zenflow_reference(&mut oracle, &subgroups, &cfg, &steps);
        assert_eq!(trainer.params(), oracle.params());
        assert_eq!(trainer.momentum(), oracle.momentum());
        assert_eq!(trainer.variance(), oracle.variance());
    }

    #[test]
    fn monitored_zenflow_run_publishes_arena_gauges() {
        // The ZenFlow path stages its device downscale through the arena,
        // so a monitored run's /metrics payload carries the same
        // arena.in_use_bytes gauge the smoke tests key on.
        let n = 48;
        let json = r#"{ "params": 48, "subgroup_size": 8, "scheduler": "zenflow_async",
                        "importance_ratio": 0.25, "staleness_bound": 1,
                        "monitor": { "flight_capacity": 256 } }"#;
        let mut trainer = Trainer::from_json(json, init(n)).unwrap();
        for step in 0..3 {
            trainer.step(&grads(n, step)).unwrap();
        }
        let metrics = trainer.tracer().unwrap().metrics().clone();
        assert!(metrics.gauge("arena.in_use_bytes").is_some(), "missing arena gauge");
        assert_eq!(trainer.arena().in_use_bytes(), 0, "staging lease returned");
        assert!(trainer.arena().high_water_bytes() >= n * 2, "downscale staged via arena");
    }

    #[test]
    fn zenflow_checkpoint_is_a_drain_barrier() {
        let n = 48;
        let json = r#"{ "params": 48, "subgroup_size": 8, "scheduler": "zenflow_async",
                        "importance_ratio": 0.25, "staleness_bound": 3 }"#;
        let mut trainer = Trainer::from_json(json, init(n)).unwrap();
        trainer.step(&grads(n, 0)).unwrap();
        // A checkpoint right after one step (cold residue still pending)
        // must capture the fully-settled oracle state, never a torn one.
        let snap = trainer.checkpoint();
        let mut oracle = MixedPrecisionState::new(init(n), UpdateRule::adam(), 0.01);
        let subgroups = dos_zero::partition_into_subgroups(n, 8);
        let cfg = dos_core::ZenFlowConfig { importance_ratio: 0.25, staleness_bound: 3 };
        dos_core::zenflow_reference(&mut oracle, &subgroups, &cfg, &[grads(n, 0)]);
        assert_eq!(snap.params, oracle.params());
        assert_eq!(snap.optimizer.momentum(), oracle.momentum());
    }

    #[test]
    fn zenflow_loss_trajectory_tracks_the_synchronous_baseline() {
        // Minimize 0.5‖p‖² by gradient descent (grad = p): the delayed
        // cold updates may lag the synchronous trajectory, but within the
        // declared staleness tolerance — and both must actually converge.
        let n = 64;
        let loss = |p: &[f32]| -> f64 { p.iter().map(|x| (*x as f64) * (*x as f64)).sum() };
        let sync_json = r#"{ "params": 64, "subgroup_size": 8 }"#;
        let zen_json = r#"{ "params": 64, "subgroup_size": 8, "scheduler": "zenflow_async",
                            "importance_ratio": 0.25, "staleness_bound": 2 }"#;
        let mut sync = Trainer::from_json(sync_json, init(n)).unwrap();
        let mut zen = Trainer::from_json(zen_json, init(n)).unwrap();
        let initial = loss(&init(n));
        // Declared tolerance: over a dozen-step horizon the bounded-stale
        // trajectory stays within 25% of the synchronous one (a cold
        // subgroup lags at most S=2 updates, and Adam's normalization
        // makes each collapsed update worth roughly one step).
        const TOLERANCE: f64 = 0.25;
        const HORIZON: usize = 12;
        let mut prev_zen = f64::INFINITY;
        for t in 0..60 {
            let gs: Vec<f32> = sync.params().to_vec();
            sync.step(&gs).unwrap();
            let gz: Vec<f32> = zen.params().to_vec();
            zen.step(&gz).unwrap();
            let (ls, lz) = (loss(sync.params()), loss(zen.params()));
            if t < HORIZON {
                assert!(
                    (ls - lz).abs() <= TOLERANCE * ls.max(1e-6),
                    "t={t}: diverged past tolerance: sync {ls:.6} vs zenflow {lz:.6}"
                );
            }
            assert!(lz <= prev_zen + 1e-9, "t={t}: zenflow loss rose: {lz:.6} > {prev_zen:.6}");
            prev_zen = lz;
        }
        zen.drain();
        let (ls, lz) = (loss(sync.params()), loss(zen.params()));
        assert!(ls < 0.2 * initial, "baseline failed to converge: {ls:.6} vs {initial:.6}");
        assert!(lz < 0.5 * initial, "zenflow failed to converge: {lz:.6} vs {initial:.6}");
    }

    #[test]
    fn adaptive_json_stride_retunes_without_changing_numerics() {
        use dos_control::ResidentPolicy;
        let n = 96;
        let doc = |stride: &str| {
            format!(
                r#"{{ "params": 96, "subgroup_size": 8, "static_residents": 4,
                      "deep_optimizer_states": {{ "update_stride": {stride} }} }}"#
            )
        };
        let mut fixed = Trainer::from_json(&doc("2"), init(n)).unwrap();
        let mut adaptive = Trainer::from_json(&doc(r#""adaptive""#), init(n)).unwrap();
        assert!(fixed.tuner().is_none());
        // Hopeless staging budget: every step's arena high-water overshoots
        // it, so the headroom policy must shrink the resident tail.
        adaptive.tune_with(WallClockTunerConfig {
            residents: ResidentPolicy::Headroom { fraction: 1.0, cap: 0.5 },
            host_budget_bytes: 1,
            ..WallClockTunerConfig::default()
        });
        for step in 0..5 {
            let g = grads(n, step);
            let a = fixed.step(&g).unwrap();
            let b = adaptive.step(&g).unwrap();
            assert_eq!(a.fp16_params, b.fp16_params, "step {step}");
        }
        assert_eq!(fixed.params(), adaptive.params());
        assert_eq!(fixed.momentum(), adaptive.momentum());
        assert_eq!(fixed.variance(), adaptive.variance());
        let decisions: Vec<&str> =
            adaptive.tuner().unwrap().decisions().iter().map(|d| d.detail.as_str()).collect();
        assert!(
            decisions.iter().any(|d| d.starts_with("residents 4->")),
            "expected a resident-shrink decision, saw {decisions:?}"
        );
    }

    #[test]
    fn adaptive_private_tracer_holds_no_more_than_one_step() {
        let n = 96;
        let json = r#"{ "params": 96, "subgroup_size": 8,
                        "deep_optimizer_states": { "update_stride": "adaptive" } }"#;
        let mut trainer = Trainer::from_json(json, init(n)).unwrap();
        assert!(trainer.tracer().is_none(), "the tuner records privately");
        for step in 0..20 {
            trainer.step(&grads(n, step)).unwrap();
            let private = &trainer.tuning.as_ref().unwrap().private;
            assert_eq!(private.len(), 0, "step {step}: the private tracer must not grow");
        }
        assert!(trainer.tuner().unwrap().estimated_inputs().is_some(), "the spans were observed");
    }

    #[test]
    fn assembled_trainer_reports_the_state_rule_and_lr() {
        let state = MixedPrecisionState::new(init(8), UpdateRule::adamw(0.1), 0.5);
        let mut trainer = TrainerConfig::new(8, 4).assemble(state, 3).unwrap();
        assert_eq!(trainer.steps_taken(), 3);
        let cfg = trainer.config();
        assert_eq!((cfg.rule.as_str(), cfg.weight_decay, cfg.lr), ("adamw", 0.1, 0.5));
        assert_eq!(cfg.resolve_rule().unwrap(), trainer.state().rule());
        trainer.set_lr(0.25);
        assert_eq!((trainer.config().lr, trainer.state().lr()), (0.25, 0.25));
        let short = MixedPrecisionState::new(init(7), UpdateRule::adam(), 0.5);
        assert!(matches!(
            TrainerConfig::new(8, 4).assemble(short, 0),
            Err(TrainerError::Invalid { .. })
        ));
    }

    #[test]
    fn resume_rejects_mismatched_shards() {
        let json = r#"{ "params": 8, "subgroup_size": 4 }"#;
        let cfg = TrainerConfig::from_json(json).unwrap();
        let mut t = cfg.clone().build(vec![0.0; 8]).unwrap();
        let snap = t.checkpoint();
        let bigger = TrainerConfig::from_json(r#"{ "params": 12, "subgroup_size": 4 }"#).unwrap();
        assert!(matches!(bigger.resume(&snap), Err(TrainerError::Invalid { .. })));
    }

    #[test]
    fn bad_shapes_are_rejected() {
        let json = r#"{ "params": 8, "subgroup_size": 4 }"#;
        assert!(matches!(
            Trainer::from_json(json, vec![0.0; 7]),
            Err(TrainerError::Invalid { .. })
        ));
        let mut trainer = Trainer::from_json(json, vec![0.0; 8]).unwrap();
        assert!(matches!(trainer.step(&[0.0; 9]), Err(TrainerError::Invalid { .. })));
    }
}
