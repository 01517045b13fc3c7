//! Iteration and training-run drivers.

use dos_hal::{OpId, SimError};

use crate::config::TrainConfig;
use crate::report::{IterationReport, ResourceUtilization, TrainingReport};
use crate::scenario::IterationScenario;

/// An update-phase scheduling policy.
///
/// Implementations (in `dos-core`) compose the update primitives of
/// [`IterationScenario`] into a schedule: DeepSpeed ZeRO-3's all-CPU
/// updates, TwinFlow's static split, or Deep Optimizer States' interleaved
/// offloading. The returned op is the point at which the next iteration's
/// forward pass may begin (all updated FP16 parameters resident on the
/// GPU); trailing asynchronous flushes may spill past it.
pub trait UpdateScheduler {
    /// Scheduler name used in reports.
    fn name(&self) -> &str;

    /// Submits the update phase after `grads_ready`.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    fn schedule_update(
        &self,
        scn: &mut IterationScenario,
        grads_ready: OpId,
    ) -> Result<OpId, SimError>;
}

/// Fraction of `[start, end)` covered by the union of the given resources'
/// busy intervals.
fn union_busy(tl: &dos_telemetry::Timeline, resources: &[&str], start: f64, end: f64) -> f64 {
    let mut ivals: Vec<(f64, f64)> = tl
        .spans()
        .iter()
        .filter(|s| resources.contains(&s.resource.as_str()))
        .map(|s| (s.start.max(start), s.end.min(end)))
        .filter(|(a, b)| b > a)
        .collect();
    ivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut covered = 0.0;
    let mut cursor = start;
    for (a, b) in ivals {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    (covered / (end - start)).min(1.0)
}

fn window_utilization(
    scn: &IterationScenario,
    start: f64,
    end: f64,
) -> ResourceUtilization {
    if end <= start {
        return ResourceUtilization::default();
    }
    let tl = scn.timeline();
    ResourceUtilization {
        gpu: union_busy(&tl, &["gpu"], start, end),
        // NVML reports the GPU busy while its copy engines move data (§5.4
        // notes this explicitly), so the Figure 15 view is the union of
        // compute and both PCIe directions.
        gpu_nvml: union_busy(&tl, &["gpu", "pcie.h2d", "pcie.d2h"], start, end),
        cpu: union_busy(&tl, &["cpu"], start, end),
        pcie_h2d: union_busy(&tl, &["pcie.h2d"], start, end),
        pcie_d2h: union_busy(&tl, &["pcie.d2h"], start, end),
    }
}

/// Simulates one training iteration under the given update scheduler.
///
/// # Errors
///
/// Propagates engine errors; out-of-memory is reported in the result's
/// `oom` field rather than as an error so sweeps (Figure 13) can chart it.
pub fn simulate_iteration(
    cfg: &TrainConfig,
    sched: &dyn UpdateScheduler,
) -> Result<IterationReport, SimError> {
    simulate_iteration_for(cfg, sched, 0, None, None)
}

/// Like [`simulate_iteration`], additionally replaying the engine's full
/// schedule into `tracer` on the simulated clock — one track per engine
/// stream — before the scenario is consumed, and publishing explicit
/// phase-boundary instants (`phase-begin:`/`phase-end:` on the
/// [`dos_telemetry::PHASE_TRACK`] track) at the collective join points, so
/// `analyze_tracer` segments interleaved phases correctly. The returned
/// report is identical to the untraced run (tracing only observes).
///
/// A [`dos_hal::FaultPlan`] in `faults` is installed on the rank's engine
/// before any op is submitted: transfers hit degradation windows and
/// failure/retry rules, injected fault occurrences replay into `tracer` as
/// `fault:` instants on the `faults` track, and exhausted retries surface
/// as [`SimError::TransferFault`]. `faults: None` is the plain traced run.
///
/// # Errors
///
/// Propagates engine errors, including [`SimError::TransferFault`] when a
/// transfer exhausts its retry budget. The fault events recorded up to the
/// failure are lost with the scenario in that case; campaigns that need
/// them should widen the retry budget instead.
pub fn simulate_iteration_faulted(
    cfg: &TrainConfig,
    sched: &dyn UpdateScheduler,
    faults: Option<&dos_hal::FaultPlan>,
    tracer: &dos_telemetry::Tracer,
) -> Result<IterationReport, SimError> {
    simulate_iteration_for(cfg, sched, 0, faults, Some(tracer))
}

/// Submits one iteration's forward and backward passes after `after`,
/// repeated for every gradient-accumulation micro-step; returns the first
/// forward op and the last backward op.
fn forward_backward(
    scn: &mut IterationScenario,
    after: Option<OpId>,
) -> Result<(OpId, OpId), SimError> {
    let fwd = scn.run_forward(after)?;
    let mut bwd = scn.run_backward(fwd)?;
    for _ in 1..scn.cfg.grad_accumulation.max(1) {
        let f = scn.run_forward(Some(bwd))?;
        bwd = scn.run_backward(f)?;
    }
    Ok((fwd, bwd))
}

/// Simulates `iterations` back-to-back iterations in one engine, so that
/// trailing asynchronous optimizer movement from iteration *i* competes with
/// iteration *i+1* (the effect Figure 9 checks for).
///
/// # Errors
///
/// Propagates engine errors.
pub fn simulate_training(
    cfg: &TrainConfig,
    sched: &dyn UpdateScheduler,
    iterations: usize,
) -> Result<TrainingReport, SimError> {
    simulate_training_timeline(cfg, sched, iterations).map(|(report, _)| report)
}

/// Like [`simulate_training`], additionally returning the shared engine's
/// full multi-iteration [`dos_telemetry::Timeline`]. The timeline is what
/// lets the analyzer check *cross-iteration* overlap — e.g. that a
/// stall-free scheduler's `update`-phase CPU spans run concurrently with
/// the next iteration's `forward`/`backward` GPU spans
/// ([`dos_telemetry::cross_phase_overlap_secs`]).
///
/// # Errors
///
/// Propagates engine errors.
pub fn simulate_training_timeline(
    cfg: &TrainConfig,
    sched: &dyn UpdateScheduler,
    iterations: usize,
) -> Result<(TrainingReport, dos_telemetry::Timeline), SimError> {
    let mut scn = IterationScenario::new(cfg.clone());
    let mut prev_update: Option<OpId> = None;
    let mut ends = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let (_, bwd) = forward_backward(&mut scn, prev_update)?;
        let upd = sched.schedule_update(&mut scn, bwd)?;
        prev_update = Some(upd);
        ends.push(scn.rank.sim.finish_time(upd).as_secs());
    }
    Ok((training_report(cfg, sched, &scn, ends), scn.timeline()))
}

/// The report of a multi-iteration run whose iterations ended at `ends`.
fn training_report(
    cfg: &TrainConfig,
    sched: &dyn UpdateScheduler,
    scn: &IterationScenario,
    ends: Vec<f64>,
) -> TrainingReport {
    let iterations = ends.len();
    TrainingReport {
        scheduler: sched.name().to_string(),
        model: cfg.spec.name.clone(),
        iterations,
        total_secs: scn.rank.sim.makespan().as_secs(),
        avg_iteration_secs: ends.last().copied().unwrap_or(0.0) / iterations.max(1) as f64,
        iteration_ends: ends,
        oom: scn.rank.hbm.validate().err().map(|e| e.to_string()),
    }
}

/// One iteration's plan, produced by an [`IterationController`] before the
/// iteration is submitted to the engine.
pub struct ControlledIteration {
    /// The update scheduler to run this iteration under.
    pub scheduler: Box<dyn UpdateScheduler>,
    /// Optional per-iteration override of the offload configuration (the
    /// control plane resizes the GPU-resident tail against observed
    /// `MemoryPool` headroom).
    pub offload: Option<dos_zero::OffloadConfig>,
    /// Optional fault plan to install on the iteration's engine (pinned
    /// degradation windows expressed per iteration).
    pub faults: Option<dos_hal::FaultPlan>,
}

/// The feedback hook `dos-control` implements: called around every
/// iteration of [`simulate_training_controlled`], it closes the loop
/// between observed update-phase timings and the next iteration's
/// schedule (stride, resident set, degradation-ladder rung).
pub trait IterationController {
    /// Plans iteration `iteration` (0-based) given the run configuration.
    fn plan_iteration(&mut self, iteration: usize, cfg: &TrainConfig) -> ControlledIteration;

    /// Observes the finished iteration's report (timeline included), so
    /// estimators can update before the next [`Self::plan_iteration`].
    fn observe_iteration(&mut self, iteration: usize, report: &IterationReport);
}

/// Runs `iterations` iterations, each planned by `controller` and simulated
/// on a fresh engine (so per-iteration fault plans and offload overrides
/// apply cleanly; trailing flushes are contained within their iteration,
/// unlike [`simulate_training`]'s shared engine).
///
/// If `trace` is given as `(tracer, index)`, iteration `index`'s full
/// engine schedule (fault instants included) and phase boundaries are
/// replayed into the tracer — the controller can add its own `control:*`
/// instants on top.
///
/// # Errors
///
/// Propagates engine errors from any iteration.
pub fn simulate_training_controlled(
    cfg: &TrainConfig,
    controller: &mut dyn IterationController,
    iterations: usize,
    trace: Option<(&dos_telemetry::Tracer, usize)>,
) -> Result<Vec<IterationReport>, SimError> {
    let mut reports = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let plan = controller.plan_iteration(i, cfg);
        let mut it_cfg = cfg.clone();
        if let Some(offload) = plan.offload {
            it_cfg.offload = offload;
        }
        let tracer = trace.filter(|&(_, index)| index == i).map(|(tracer, _)| tracer);
        let report = simulate_iteration_for(
            &it_cfg,
            plan.scheduler.as_ref(),
            0,
            plan.faults.as_ref(),
            tracer,
        )?;
        controller.observe_iteration(i, &report);
        reports.push(report);
    }
    Ok(reports)
}

/// When and how to checkpoint during a simulated run.
///
/// Offloaded optimizer state accelerates checkpointing because the large
/// host-resident tensors can be flushed to persistent storage without
/// blocking the GPUs (§2, "Hybrid CPU-GPU Optimizer Offloading").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after every `every`-th iteration.
    pub every: usize,
    /// Write asynchronously (overlapping subsequent iterations) instead of
    /// stalling training until the NVMe write completes.
    pub asynchronous: bool,
}

/// Simulates a run that checkpoints model + optimizer state to NVMe.
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// Panics if `policy.every` is zero.
pub fn simulate_training_with_checkpoints(
    cfg: &TrainConfig,
    sched: &dyn UpdateScheduler,
    iterations: usize,
    policy: CheckpointPolicy,
) -> Result<TrainingReport, SimError> {
    assert!(policy.every > 0, "checkpoint interval must be positive");
    let mut scn = IterationScenario::new(cfg.clone());
    // Checkpoints drain host memory to NVMe on their own stream; they never
    // touch the GPU or its PCIe link (the offloading advantage of §2).
    let ckpt_stream = scn.rank.sim.add_stream("checkpoint");
    // Per-rank checkpoint payload: FP32 optimizer state + FP16 model shard.
    let per_rank = cfg.params_per_rank() as f64;
    let ckpt_bytes = 12.0 * per_rank + 2.0 * per_rank;
    let nvme_secs = ckpt_bytes / cfg.profile.nvme_write_bw;

    let mut prev_update: Option<OpId> = None;
    let mut ends = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let (_, bwd) = forward_backward(&mut scn, prev_update)?;
        let upd = sched.schedule_update(&mut scn, bwd)?;
        let mut boundary = upd;
        if (i + 1) % policy.every == 0 {
            let ckpt = scn.rank.sim.submit(
                dos_hal::OpSpec::occupy(
                    scn.rank.res.nvme,
                    dos_hal::SimTime::from_secs(nvme_secs),
                    ckpt_bytes,
                )
                .on(ckpt_stream)
                .after(upd)
                .label(format!("checkpoint:{i}"))
                .phase("checkpoint"),
            )?;
            if !policy.asynchronous {
                boundary = ckpt;
            }
        }
        prev_update = Some(boundary);
        ends.push(scn.rank.sim.finish_time(boundary).as_secs());
    }
    Ok(training_report(cfg, sched, &scn, ends))
}

/// Simulates every data-parallel rank and returns the slowest one's report
/// — §5.4: the blocking collectives at phase boundaries mean "the slowest
/// process in the group dictates the iteration time" (shards differ by up
/// to one subgroup under uneven partitioning).
///
/// # Errors
///
/// Propagates engine errors.
pub fn simulate_iteration_slowest(
    cfg: &TrainConfig,
    sched: &dyn UpdateScheduler,
) -> Result<IterationReport, SimError> {
    let mut slowest: Option<IterationReport> = None;
    for rank in 0..cfg.world {
        let report = simulate_iteration_for(cfg, sched, rank, None, None)?;
        if slowest.as_ref().is_none_or(|r| report.total_secs > r.total_secs) {
            slowest = Some(report);
        }
    }
    Ok(slowest.expect("world >= 1"))
}

/// Simulates one iteration of `rank` on a fresh engine, with `faults`
/// installed before any op is submitted and, with a `tracer`, the engine's
/// schedule and phase boundaries replayed into it.
fn simulate_iteration_for(
    cfg: &TrainConfig,
    sched: &dyn UpdateScheduler,
    rank: usize,
    faults: Option<&dos_hal::FaultPlan>,
    tracer: Option<&dos_telemetry::Tracer>,
) -> Result<IterationReport, SimError> {
    let mut scn = IterationScenario::new_for_rank(cfg.clone(), rank);
    if let Some(plan) = faults {
        scn.rank.sim.install_fault_plan(plan.clone());
    }
    let (fwd, bwd) = forward_backward(&mut scn, None)?;
    let upd = sched.schedule_update(&mut scn, bwd)?;
    let t_fwd = scn.rank.sim.finish_time(fwd).as_secs();
    let t_bwd = scn.rank.sim.finish_time(bwd).as_secs();
    let t_upd = scn.rank.sim.finish_time(upd).as_secs();
    if let Some(tracer) = tracer {
        scn.record_into(tracer);
        tracer.phase_boundary("forward", 0.0, t_fwd);
        tracer.phase_boundary("backward", t_fwd, t_bwd);
        tracer.phase_boundary("update", t_bwd, t_upd);
    }
    let makespan = scn.rank.sim.makespan().as_secs();
    let model_flops = 3.0 * cfg.spec.forward_flops(cfg.micro_batch) * cfg.grad_accumulation as f64;
    let params_per_rank = cfg.params_per_rank() as f64;
    let update_secs = t_upd - t_bwd;

    Ok(IterationReport {
        scheduler: sched.name().to_string(),
        model: cfg.spec.name.clone(),
        forward_secs: t_fwd,
        backward_secs: t_bwd - t_fwd,
        update_secs,
        total_secs: t_upd,
        spill_secs: (makespan - t_upd).max(0.0),
        tflops_per_gpu: model_flops / t_upd / 1e12,
        update_pps_per_rank: if update_secs > 0.0 { params_per_rank / update_secs } else { 0.0 },
        gpu_peak_bytes: scn.rank.hbm.peak_usage(),
        oom: scn.rank.hbm.validate().err().map(|e| e.to_string()),
        host_oom: scn.rank.dram.validate().err().map(|e| e.to_string()),
        update_utilization: window_utilization(&scn, t_bwd, t_upd),
        timeline: scn.timeline(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_hal::HardwareProfile;
    use dos_nn::ModelSpec;

    /// A trivial scheduler: update every subgroup on the CPU sequentially,
    /// then H2D the downscaled parameters (used only to exercise the
    /// runner; the real schedulers live in `dos-core`).
    struct NaiveCpu;

    impl UpdateScheduler for NaiveCpu {
        fn name(&self) -> &str {
            "naive-cpu"
        }

        fn schedule_update(
            &self,
            scn: &mut IterationScenario,
            grads_ready: OpId,
        ) -> Result<OpId, SimError> {
            let sgs = scn.subgroups().to_vec();
            let mut last = grads_ready;
            for sg in &sgs {
                let u = scn.cpu_update(sg, &[last])?;
                let d = scn.cpu_downscale(sg, &[u])?;
                last = scn.h2d_updated_params(sg, &[d])?;
            }
            Ok(last)
        }
    }

    #[test]
    fn single_iteration_report_is_consistent() {
        let cfg = TrainConfig::baseline(
            ModelSpec::by_name("7B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        let r = simulate_iteration(&cfg, &NaiveCpu).unwrap();
        assert!(r.forward_secs > 0.0);
        assert!(r.backward_secs > 0.0);
        assert!(r.update_secs > 0.0);
        let sum = r.forward_secs + r.backward_secs + r.update_secs;
        assert!((sum - r.total_secs).abs() < 1e-9, "breakdown {sum} != total {}", r.total_secs);
        assert!(r.tflops_per_gpu > 1.0 && r.tflops_per_gpu < 1000.0);
        assert!(r.oom.is_none());
        assert!(r.update_utilization.cpu > 0.5, "{:?}", r.update_utilization);
    }

    #[test]
    fn traced_iteration_matches_untraced_and_validates() {
        let cfg = TrainConfig::baseline(
            ModelSpec::by_name("7B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        let plain = simulate_iteration(&cfg, &NaiveCpu).unwrap();
        let tracer = dos_telemetry::Tracer::new();
        let traced = simulate_iteration_faulted(&cfg, &NaiveCpu, None, &tracer).unwrap();
        // Tracing only observes: the report is unchanged.
        assert_eq!(traced.total_secs, plain.total_secs);
        assert_eq!(traced.timeline, plain.timeline);
        // Every resource-backed interval became a tracer span; the tracer's
        // timeline view carries the same busy time per resource.
        assert!(!tracer.is_empty());
        let tl = tracer.to_timeline();
        for res in ["gpu", "cpu", "pcie.h2d"] {
            assert!(
                (tl.busy_time(res) - plain.timeline.busy_time(res)).abs() < 1e-9,
                "busy time diverged on {res}"
            );
        }
        // The analyzer's invariants hold on a real simulated schedule.
        let analysis = dos_telemetry::analyze(&plain.timeline);
        assert!(analysis.validate().is_empty(), "{:?}", analysis.validate());
        let phases: Vec<&str> = analysis.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(phases, ["forward", "backward", "update"]);
    }

    #[test]
    fn update_time_matches_model_for_naive_cpu() {
        let cfg = TrainConfig::baseline(
            ModelSpec::by_name("20B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        let r = simulate_iteration(&cfg, &NaiveCpu).unwrap();
        // Sequential CPU: P/N * (1/Uc + 1/Dc + 1/(2B)).
        let p = cfg.params_per_rank() as f64;
        let prof = &cfg.profile;
        let expected = p
            * (1.0 / prof.cpu_update_pps()
                + 1.0 / prof.cpu_downscale_pps()
                + 1.0 / (2.0 * prof.update_b_pps));
        assert!(
            (r.update_secs - expected).abs() / expected < 0.02,
            "update {} vs model {expected}",
            r.update_secs
        );
    }

    #[test]
    fn multi_iteration_run_is_stable() {
        let cfg = TrainConfig::baseline(
            ModelSpec::by_name("7B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        let r = simulate_training(&cfg, &NaiveCpu, 5).unwrap();
        assert_eq!(r.iterations, 5);
        assert_eq!(r.iteration_ends.len(), 5);
        assert!(r.is_stable(1, 0.05), "durations {:?}", r.iteration_durations());
        assert!(r.total_secs >= *r.iteration_ends.last().unwrap());
    }

    #[test]
    fn larger_models_take_longer() {
        let profiles = HardwareProfile::jlse_h100();
        let small = simulate_iteration(
            &TrainConfig::baseline(ModelSpec::by_name("7B").unwrap(), profiles.clone()),
            &NaiveCpu,
        )
        .unwrap();
        let large = simulate_iteration(
            &TrainConfig::baseline(ModelSpec::by_name("20B").unwrap(), profiles),
            &NaiveCpu,
        )
        .unwrap();
        assert!(large.total_secs > 2.0 * small.total_secs);
    }
}

#[cfg(test)]
mod fault_injection_tests {
    use super::*;
    use dos_hal::{FaultPlan, HardwareProfile, SimTime};
    use dos_nn::ModelSpec;

    struct NaiveCpu;
    impl UpdateScheduler for NaiveCpu {
        fn name(&self) -> &str {
            "naive-cpu"
        }
        fn schedule_update(
            &self,
            scn: &mut IterationScenario,
            grads_ready: OpId,
        ) -> Result<OpId, SimError> {
            let sgs = scn.subgroups().to_vec();
            let mut last = grads_ready;
            for sg in &sgs {
                let u = scn.cpu_update(sg, &[last])?;
                let d = scn.cpu_downscale(sg, &[u])?;
                last = scn.h2d_updated_params(sg, &[d])?;
            }
            Ok(last)
        }
    }

    fn cfg() -> TrainConfig {
        TrainConfig::baseline(ModelSpec::by_name("7B").unwrap(), HardwareProfile::jlse_h100())
    }

    #[test]
    fn no_faults_matches_traced_run_exactly() {
        let plain = simulate_iteration(&cfg(), &NaiveCpu).unwrap();
        let tracer = dos_telemetry::Tracer::new();
        let faulted = simulate_iteration_faulted(&cfg(), &NaiveCpu, None, &tracer).unwrap();
        assert_eq!(faulted.total_secs, plain.total_secs);
        assert_eq!(faulted.timeline, plain.timeline);
    }

    #[test]
    fn traced_run_emits_phase_boundaries_for_the_analyzer() {
        let tracer = dos_telemetry::Tracer::new();
        let r = simulate_iteration_faulted(&cfg(), &NaiveCpu, None, &tracer).unwrap();
        let bounds = tracer.phase_boundaries();
        let names: Vec<&str> = bounds.iter().map(|b| b.phase.as_str()).collect();
        assert_eq!(names, ["forward", "backward", "update"]);
        assert_eq!(bounds[0].start, 0.0);
        assert!((bounds[2].end - r.total_secs).abs() < 1e-9);
        // Windows chain: each phase begins where the previous one ends.
        assert_eq!(bounds[0].end, bounds[1].start);
        assert_eq!(bounds[1].end, bounds[2].start);
        let a = dos_telemetry::analyze_tracer(&tracer);
        assert!(a.validate().is_empty(), "{:?}", a.validate());
        let phases: Vec<&str> = a.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(phases, ["forward", "backward", "update"]);
    }

    #[test]
    fn degradation_window_during_update_stretches_the_phase() {
        let baseline = simulate_iteration(&cfg(), &NaiveCpu).unwrap();
        // Quarter-speed H2D over the whole update phase.
        let plan = FaultPlan::seeded(7).degrade(
            "pcie.h2d",
            SimTime::from_secs(baseline.backward_secs + baseline.forward_secs),
            SimTime::from_secs(baseline.total_secs * 10.0),
            0.25,
        );
        let tracer = dos_telemetry::Tracer::new();
        let degraded =
            simulate_iteration_faulted(&cfg(), &NaiveCpu, Some(&plan), &tracer).unwrap();
        assert!(
            degraded.update_secs > baseline.update_secs * 1.5,
            "update {} should stretch past {} under 4x slower H2D",
            degraded.update_secs,
            baseline.update_secs
        );
        // Forward/backward (outside the window) are untouched.
        assert!((degraded.forward_secs - baseline.forward_secs).abs() < 1e-9);
    }

    #[test]
    fn transfer_failures_surface_as_fault_instants_in_the_trace() {
        let plan = FaultPlan::seeded(3).fail_nth("pcie.h2d", 0, 2);
        let tracer = dos_telemetry::Tracer::new();
        let clean = simulate_iteration(&cfg(), &NaiveCpu).unwrap();
        let faulted =
            simulate_iteration_faulted(&cfg(), &NaiveCpu, Some(&plan), &tracer).unwrap();
        assert!(faulted.total_secs >= clean.total_secs, "retries cannot speed things up");
        let fault_instants: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| {
                e.kind == dos_telemetry::EventKind::Instant && e.name.starts_with("fault:")
            })
            .collect();
        assert_eq!(fault_instants.len(), 2, "two failed attempts recorded");
        assert!(fault_instants.iter().all(|e| e.track == "faults"));
        assert!(fault_instants.iter().all(|e| e.name.contains("pcie.h2d")));
    }
}

#[cfg(test)]
mod grad_accumulation_tests {
    use super::*;
    use crate::config::GradientPath;
    use dos_hal::HardwareProfile;
    use dos_nn::ModelSpec;
    use dos_zero::ZeroStage;

    struct NoUpdate;
    impl UpdateScheduler for NoUpdate {
        fn name(&self) -> &str {
            "no-update"
        }
        fn schedule_update(
            &self,
            scn: &mut IterationScenario,
            grads_ready: OpId,
        ) -> Result<OpId, SimError> {
            let streams = scn.rank.streams;
            scn.rank.sim.join(streams.compute, [grads_ready])
        }
    }

    fn cfg(ga: usize) -> TrainConfig {
        let mut cfg = TrainConfig::baseline(
            ModelSpec::by_name("7B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        cfg.grad_accumulation = ga;
        cfg.stage = ZeroStage::Three;
        cfg.gradient_path = GradientPath::Fp32OnGpu;
        cfg.overlap_backward = true;
        cfg
    }

    #[test]
    fn accumulation_multiplies_compute_phases() {
        let one = simulate_iteration(&cfg(1), &NoUpdate).unwrap();
        let four = simulate_iteration(&cfg(4), &NoUpdate).unwrap();
        let ratio = four.total_secs / one.total_secs;
        assert!(
            (3.5..4.6).contains(&ratio),
            "4 micro-steps should cost ~4x the compute: {ratio:.2}"
        );
        // TFLOPs stay comparable: 4x the FLOPs in ~4x the time.
        assert!((four.tflops_per_gpu / one.tflops_per_gpu - 1.0).abs() < 0.2);
    }

    #[test]
    fn accumulation_generates_h2d_traffic_in_backward() {
        let r = simulate_iteration(&cfg(2), &NoUpdate).unwrap();
        let accum_spans = r
            .timeline
            .spans()
            .iter()
            .filter(|s| s.label.starts_with("h2d-accum-grads"))
            .count();
        // Second micro-step fetches the running sum for every layer (§3's
        // observed H2D traffic during backward).
        assert_eq!(accum_spans, 32, "one fetch per layer in micro-step 2");
        let first_step = simulate_iteration(&cfg(1), &NoUpdate).unwrap();
        assert!(first_step
            .timeline
            .spans()
            .iter()
            .all(|s| !s.label.starts_with("h2d-accum-grads")));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use dos_hal::HardwareProfile;
    use dos_nn::ModelSpec;

    struct NaiveCpu2;
    impl UpdateScheduler for NaiveCpu2 {
        fn name(&self) -> &str {
            "naive-cpu"
        }
        fn schedule_update(
            &self,
            scn: &mut IterationScenario,
            grads_ready: OpId,
        ) -> Result<OpId, SimError> {
            let sgs = scn.subgroups().to_vec();
            let mut last = grads_ready;
            for sg in &sgs {
                let u = scn.cpu_update(sg, &[last])?;
                let d = scn.cpu_downscale(sg, &[u])?;
                last = scn.h2d_updated_params(sg, &[d])?;
            }
            Ok(last)
        }
    }

    fn cfg() -> TrainConfig {
        TrainConfig::baseline(ModelSpec::by_name("7B").unwrap(), HardwareProfile::jlse_h100())
    }

    #[test]
    fn async_checkpointing_is_cheaper_than_blocking() {
        // Interval chosen so the NVMe write (≈6 s for 7B's per-rank state)
        // fits inside the training time between checkpoints (≈9 s).
        let policy_block = CheckpointPolicy { every: 3, asynchronous: false };
        let policy_async = CheckpointPolicy { every: 3, asynchronous: true };
        let plain = simulate_training(&cfg(), &NaiveCpu2, 6).unwrap();
        let blocking =
            simulate_training_with_checkpoints(&cfg(), &NaiveCpu2, 6, policy_block).unwrap();
        let asynchronous =
            simulate_training_with_checkpoints(&cfg(), &NaiveCpu2, 6, policy_async).unwrap();
        let end = |r: &TrainingReport| *r.iteration_ends.last().unwrap();
        assert!(end(&blocking) > end(&plain) * 1.1, "blocking checkpoints cost time");
        assert!(
            end(&asynchronous) < end(&blocking),
            "async {:.2}s !< blocking {:.2}s",
            end(&asynchronous),
            end(&blocking)
        );
        // The training-critical path barely notices asynchronous writes;
        // the trailing write only shows up in the final makespan.
        assert!(end(&asynchronous) < end(&plain) * 1.05);
        assert!(asynchronous.total_secs >= end(&asynchronous));
    }

    #[test]
    fn checkpoint_spans_are_recorded() {
        let policy = CheckpointPolicy { every: 3, asynchronous: true };
        let r = simulate_training_with_checkpoints(&cfg(), &NaiveCpu2, 6, policy).unwrap();
        assert_eq!(r.iterations, 6);
        // Two checkpoints (after iterations 3 and 6).
        assert!(r.total_secs > 0.0);
    }

    #[test]
    fn slowest_rank_dominates() {
        let slowest = simulate_iteration_slowest(&cfg(), &NaiveCpu2).unwrap();
        let rank0 = simulate_iteration(&cfg(), &NaiveCpu2).unwrap();
        // Rank 0 holds the largest shard under uneven partitioning, so the
        // slowest rank is rank 0 (within float noise).
        assert!(slowest.total_secs >= rank0.total_secs - 1e-9);
        assert!((slowest.total_secs - rank0.total_secs) / rank0.total_secs < 0.02);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_checkpoint_interval_rejected() {
        let policy = CheckpointPolicy { every: 0, asynchronous: false };
        let _ = simulate_training_with_checkpoints(&cfg(), &NaiveCpu2, 2, policy);
    }
}
