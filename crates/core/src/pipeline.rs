//! Functional interleaved-update pipeline: real threads, real numerics.
//!
//! The simulator (`schedulers`) reproduces the paper's *timing*; this module
//! reproduces its *mechanism* with real concurrency: a device worker thread
//! ("the GPU"), DMA channels carrying subgroup state back and forth, and the
//! calling thread playing the CPU — exactly Algorithm 1's structure. The
//! correctness claim under test is §4.1's: out-of-order, cross-device
//! subgroup updates produce results identical to a sequential CPU update.
//!
//! Staged buffers move through `crossbeam` channels by value, mirroring the
//! fact that a subgroup's (p, m, v) is staged on exactly one device at a
//! time. Each device job also carries disjoint `&mut` views of its host
//! range, so the worker writes its results back (D2H) itself while the CPU
//! thread updates its own subgroups. Channels and threads come from the
//! [`crate::sync`] facade: real
//! crossbeam/std primitives in production, schedule-controlled twins under
//! `dos-check`'s deterministic exploration.

use crate::arena::{ArenaPool, PooledF32};
use crate::sync;

use dos_optim::{MixedPrecisionState, StateRangeMut, UpdateRule};
use dos_telemetry::{SpanGuard, Tracer};
use dos_tensor::{kernels, F16};
use dos_zero::SubgroupSpec;

use crate::schedulers::StridePolicy;

/// Track name for the calling (CPU) thread's spans.
pub const CPU_TRACK: &str = "cpu";
/// Track name for the spawned device worker's spans.
pub const DEVICE_TRACK: &str = "device-worker";

/// Typed precondition failures of the hybrid pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// `grads.len()` does not match the optimizer state's flat length.
    GradientLengthMismatch {
        /// The state's flat parameter count.
        expected: usize,
        /// The gradient slice's length.
        got: usize,
    },
    /// The subgroup list does not tile `0..state.len()` contiguously.
    SubgroupTiling {
        /// Human-readable description of the tiling violation.
        detail: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::GradientLengthMismatch { expected, got } => {
                write!(f, "gradient length mismatch: state holds {expected} params, got {got}")
            }
            PipelineError::SubgroupTiling { detail } => {
                write!(f, "invalid subgroup tiling: {detail}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// An injected device-worker fault, for chaos campaigns. The fault fires
/// after the worker has fully processed the given number of jobs, so the
/// earlier subgroups' results are already on their way back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFault {
    /// The worker thread panics (a crashed CUDA context). The panic is
    /// contained by the pipeline and surfaces as a degradation, never as a
    /// caller-visible panic.
    PanicAfter(usize),
    /// The worker returns silently, disconnecting both DMA channels (a hung
    /// device that stops answering).
    DisconnectAfter(usize),
}

/// Configuration of the functional hybrid pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Update stride: every k-th subgroup goes to the device worker
    /// (`Fixed(k)`); `CpuOnly` keeps everything on the calling thread;
    /// `Auto` behaves as `Fixed(2)`, the paper's measured optimum.
    pub stride: StridePolicy,
    /// Number of trailing subgroups treated as static device residents
    /// (updated on the device without staging transfers).
    pub static_residents: usize,
    /// Optional injected device fault (chaos testing). `None` in
    /// production use.
    pub fault_injection: Option<DeviceFault>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { stride: StridePolicy::Auto, static_residents: 0, fault_injection: None }
    }
}

/// How a hybrid update degraded when the device worker was lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineDegradation {
    /// What happened to the device worker (panic message or disconnect).
    pub reason: String,
    /// Device-bound subgroups the worker never completed, run on the CPU
    /// from their still-unmodified host state.
    pub lost_jobs_retried_on_cpu: usize,
}

/// Result of a hybrid update step.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Downscaled FP16 parameters for the whole flat space (what the GPU
    /// trains the next iteration with).
    pub fp16_params: Vec<F16>,
    /// How many subgroups were updated on the device worker.
    pub device_subgroups: usize,
    /// How many subgroups were updated on the calling (CPU) thread
    /// (including any lost device jobs re-run there).
    pub cpu_subgroups: usize,
    /// Set when the device worker was lost mid-step and the pipeline
    /// degraded the remainder to the CPU-only path. The step's numerics are
    /// unaffected: every subgroup is still updated exactly once.
    pub degraded: Option<PipelineDegradation>,
}

/// Host bytes staged per shipped parameter: `p`, `m`, `v` and the gradient
/// in FP32 — the arena footprint of one device subgroup in flight.
pub const STAGED_BYTES_PER_PARAM: usize = 16;

/// Bytes per parameter the worker's write-back copies to the host: `p`,
/// `m`, `v` in FP32. The FP16 copy (2 more) lands during its downscale.
const FLUSH_BYTES_PER_PARAM: usize = 12;

/// One subgroup's disjoint slices of the host state and of the step's FP16
/// output. The CPU thread updates them in place, or ships them with a
/// device job so the worker can write its results straight back.
struct HostRange<'a> {
    sg: SubgroupSpec,
    state: StateRangeMut<'a>,
    p16: &'a mut [F16],
}

/// One staged subgroup travelling to the device worker. The staging
/// buffers are arena leases ("pinned" memory), not fresh allocations; they
/// return to the pool wherever the job is dropped.
struct DeviceJob<'a> {
    host: HostRange<'a>,
    p: PooledF32,
    m: PooledF32,
    v: PooledF32,
    g: PooledF32,
}

/// Elements per fusion block. A subgroup is walked block by block, and
/// each block's `p`, `g`, `m`, `v` (128 KiB in FP32) stay in L2 from its
/// update through its downscale and, on the device, its write-back.
const FUSION_BLOCK: usize = 8192;

/// The `start..end` bounds of the fusion blocks of `len` elements.
fn fusion_blocks(len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len).step_by(FUSION_BLOCK).map(move |a| (a, (a + FUSION_BLOCK).min(len)))
}

/// Indices into [`StageClock`]'s per-stage times.
const UPDATE: usize = 0;
const DOWNSCALE: usize = 1;
const FLUSH: usize = 2;

/// One subgroup's stage times, summed over its fusion blocks. Each lap
/// charges the time since the previous one to a stage, so the stages'
/// spans tile the subgroup's wall-clock time without gaps.
struct StageClock<'t> {
    tracer: &'t Tracer,
    start: f64,
    last: f64,
    secs: [f64; 3],
}

impl<'t> StageClock<'t> {
    fn start(tracer: &'t Tracer) -> Self {
        let now = tracer.now();
        StageClock { tracer, start: now, last: now, secs: [0.0; 3] }
    }

    /// Charges the time since the last lap to `stage`; untraced (`None`),
    /// it takes no timestamp.
    fn lap(clock: &mut Option<Self>, stage: usize) {
        if let Some(clock) = clock {
            let now = clock.tracer.now();
            clock.secs[stage] += now - clock.last;
            clock.last = now;
        }
    }

    /// Records one `{stage}:sg{id}` span per `(resource, stage, work)`, in
    /// the order of [`UPDATE`], [`DOWNSCALE`], [`FLUSH`], back to back from
    /// the subgroup's start.
    fn record(&self, track: &str, sg: &SubgroupSpec, stages: &[(&str, &str, usize)]) {
        let mut at = self.start;
        for (&(resource, stage, work), secs) in stages.iter().zip(self.secs) {
            let name = format!("{stage}:sg{}", sg.id);
            self.tracer.record_span(track, resource, &name, "update", at, at + secs, work as f64);
            at += secs;
        }
    }
}

/// What every subgroup update of one step shares.
#[derive(Clone, Copy)]
struct StepCtx<'a> {
    rule: UpdateRule,
    step: u64,
    lr: f32,
    grads: &'a [f32],
    tracer: Option<&'a Tracer>,
}

impl StepCtx<'_> {
    /// Opens the `{stage}:sg{id}` span carrying `work`. The label is only
    /// formatted when a tracer is attached.
    fn span(
        &self,
        track: &str,
        resource: &str,
        stage: &str,
        sg: &SubgroupSpec,
        work: usize,
    ) -> Option<SpanGuard> {
        self.tracer.map(|t| {
            let mut guard = t.span_on(track, resource, &format!("{stage}:sg{}", sg.id), "update");
            guard.set_work(work as f64);
            guard
        })
    }

    /// Updates one fusion block and downscales it into `p16` while the
    /// block is still in cache. Traced, each kernel's time is charged to
    /// its own stage, so the downscale (`D_c` in Eq. 1) stays observable
    /// apart from the update (`U_c`).
    #[allow(clippy::too_many_arguments)]
    fn update_block(
        &self,
        clock: &mut Option<StageClock<'_>>,
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        p16: &mut [F16],
    ) {
        self.rule.apply(self.step, self.lr, p, g, m, v);
        StageClock::lap(clock, UPDATE);
        kernels::downscale(p, p16);
        StageClock::lap(clock, DOWNSCALE);
    }

    /// Local (CPU) update of one subgroup, one pass over memory; also the
    /// degraded fallback path when the device worker is gone. Traced, it
    /// records back-to-back `update:sg{id}` and `downscale:sg{id}` spans.
    fn cpu_apply(&self, host: HostRange<'_>) {
        let HostRange { sg, state, p16 } = host;
        let g = &self.grads[sg.range()];
        let mut clock = self.tracer.map(StageClock::start);
        for (a, b) in fusion_blocks(sg.len()) {
            let (p, m, v) = (&mut state.p[a..b], &mut state.m[a..b], &mut state.v[a..b]);
            self.update_block(&mut clock, p, &g[a..b], m, v, &mut p16[a..b]);
        }
        if let Some(clock) = clock {
            let n = sg.len();
            clock.record(CPU_TRACK, &sg, &[("cpu", "update", n), ("cpu", "downscale", n)]);
        }
    }

    /// Algorithm 1's prefetch: copies a subgroup's state and gradients into
    /// staging leases (H2D).
    fn prefetch<'h>(&self, pool: &ArenaPool, host: HostRange<'h>) -> DeviceJob<'h> {
        let sg = host.sg;
        let bytes = STAGED_BYTES_PER_PARAM * sg.len();
        let _span = self.span(CPU_TRACK, "pcie.h2d", "prefetch", &sg, bytes);
        if let Some(t) = self.tracer {
            t.metrics().inc_counter("pipeline.h2d.bytes", bytes as u64);
        }
        DeviceJob {
            p: pool.lease_f32_copy(host.state.p),
            m: pool.lease_f32_copy(host.state.m),
            v: pool.lease_f32_copy(host.state.v),
            g: pool.lease_f32_copy(&self.grads[sg.range()]),
            host,
        }
    }

    /// The device side of one job, block by block: update the staged
    /// block, downscale it straight into the host's FP16 range (the D2D
    /// `.half()` of Alg. 1), then write its `p`, `m`, `v` back to the host
    /// range (D2H). Traced, it records back-to-back `update:sg{id}`,
    /// `downscale:sg{id}` and `flush:sg{id}` spans.
    fn device_apply(&self, job: DeviceJob<'_>) {
        let DeviceJob { host: HostRange { sg, state, p16 }, mut p, mut m, mut v, g } = job;
        let mut clock = self.tracer.map(StageClock::start);
        for (a, b) in fusion_blocks(sg.len()) {
            let (pb, mb, vb) = (&mut p[a..b], &mut m[a..b], &mut v[a..b]);
            self.update_block(&mut clock, pb, &g[a..b], mb, vb, &mut p16[a..b]);
            state.p[a..b].copy_from_slice(pb);
            state.m[a..b].copy_from_slice(mb);
            state.v[a..b].copy_from_slice(vb);
            StageClock::lap(&mut clock, FLUSH);
        }
        if let Some(clock) = clock {
            let n = sg.len();
            let stages = [
                ("gpu", "update", n),
                ("gpu", "downscale", n),
                ("pcie.d2h", "flush", FLUSH_BYTES_PER_PARAM * n),
            ];
            clock.record(DEVICE_TRACK, &sg, &stages);
            let bytes = (FLUSH_BYTES_PER_PARAM + 2) * n; // + the FP16 copy
            clock.tracer.metrics().inc_counter("pipeline.d2h.bytes", bytes as u64);
        }
    }
}

/// Splits `state` and `fp16` into the [`HostRange`]s of `sgs`, which must
/// ascend without overlapping.
fn host_ranges<'a>(
    sgs: &[SubgroupSpec],
    state: &'a mut MixedPrecisionState,
    fp16: &'a mut [F16],
) -> Vec<HostRange<'a>> {
    let mut rest = fp16;
    let mut offset = 0;
    let views = state.split_ranges_mut(sgs.iter().map(SubgroupSpec::range));
    sgs.iter()
        .zip(views)
        .map(|(sg, state)| {
            let (p16, tail) = std::mem::take(&mut rest)[sg.start - offset..].split_at_mut(sg.len());
            rest = tail;
            offset = sg.end;
            HostRange { sg: *sg, state, p16 }
        })
        .collect()
}

/// Renders the payload of a worker panic for the degradation report.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one interleaved hybrid optimizer step over `state` with `grads` —
/// the pipeline's one entry point — scheduling subgroups across the calling
/// thread and a spawned device worker per `cfg`. The result is bitwise
/// `state.full_step(grads)` plus a full downscale, for any stride and
/// resident set (verified by the crate's property tests).
///
/// Staging buffers are leased from `pool`; trainers hold one across steps,
/// so steady-state steps allocate nothing, and its high-water gauge is what
/// the resident-sizing policy observes.
///
/// Each subgroup is one pass over memory: its update, FP16 downscale and,
/// on the device, write-back run block by block while the block is in
/// cache.
///
/// With a `tracer`, every stage records a wall-clock span —
/// `prefetch:sg{id}` (H2D staging), `update:sg{id}` and `downscale:sg{id}`
/// (`D_c`) on the [`CPU_TRACK`]; `update:sg{id}`, `downscale:sg{id}` and
/// `flush:sg{id}` (D2H write-back, resource `pcie.d2h`) on the
/// [`DEVICE_TRACK`] — plus byte counters in its metrics registry. A
/// subgroup's update, downscale and flush times are summed over its blocks
/// and recorded as back-to-back spans from the subgroup's start. Tracing
/// only observes.
///
/// If the device worker dies mid-step (a panic or a disconnect, injectable
/// via [`PipelineConfig::fault_injection`]), the remaining subgroups and any
/// shipped-but-lost jobs run on the CPU from their untouched host state,
/// and the step completes byte-exact with [`PipelineReport::degraded`] set.
///
/// # Errors
///
/// Returns [`PipelineError`] if `grads.len() != state.len()` or if
/// `subgroups` do not tile `0..state.len()` contiguously. `state` is not
/// modified on error.
pub fn hybrid_update_pooled(
    state: &mut MixedPrecisionState,
    grads: &[f32],
    subgroups: &[SubgroupSpec],
    cfg: PipelineConfig,
    tracer: Option<&Tracer>,
    pool: &ArenaPool,
) -> Result<PipelineReport, PipelineError> {
    if grads.len() != state.len() {
        return Err(PipelineError::GradientLengthMismatch {
            expected: state.len(),
            got: grads.len(),
        });
    }
    let mut cursor = 0;
    for sg in subgroups {
        if sg.start != cursor {
            return Err(PipelineError::SubgroupTiling {
                detail: format!(
                    "subgroups must tile the space contiguously: subgroup {} starts at {} but \
                     the previous one ended at {cursor}",
                    sg.id, sg.start
                ),
            });
        }
        cursor = sg.end;
    }
    if cursor != state.len() {
        return Err(PipelineError::SubgroupTiling {
            detail: format!(
                "subgroups must cover the space: tiled 0..{cursor} but the state holds {} params",
                state.len()
            ),
        });
    }

    let stride = match cfg.stride {
        // The controller-driven trainer rewrites `Adaptive` to `Fixed(k)`
        // every iteration; reaching the pipeline unresolved, it falls back
        // to the same paper-default seed as `Auto`.
        StridePolicy::Auto | StridePolicy::Adaptive => Some(2),
        StridePolicy::Fixed(k) => Some(k.max(1)),
        StridePolicy::CpuOnly => None,
    };
    let n_static = cfg.static_residents.min(subgroups.len());
    let dynamic = subgroups.len() - n_static;

    state.begin_step();
    let ctx =
        StepCtx { rule: state.rule(), step: state.step_count(), lr: state.lr(), grads, tracer };

    let mut device_count = 0usize;
    let mut cpu_count = 0usize;
    let mut lost_retried = 0usize;
    // Shipped subgroups whose completion has not arrived yet. The worker
    // writes a host range back only while it runs that job, block by
    // block, and sends the completion right after; nothing inside a job
    // can panic (every slice length is fixed by the tiling), and an
    // injected fault fires between jobs. So if the worker dies, whatever
    // is left here was never written back, and a CPU update from its
    // untouched host state is byte-exact.
    let mut pending: Vec<SubgroupSpec> = Vec::new();
    let mut worker_lost: Option<String> = None;
    // Every element is overwritten by its subgroup's downscale, so the
    // output is left for the kernel to zero page by page on first touch.
    let mut fp16 = F16::zeroed_vec(state.len());
    let fault = cfg.fault_injection;

    // Every k-th dynamic subgroup goes to the device, and so do the
    // trailing static residents. The CPU thread walks this plan in order,
    // residents first: device-resident in concept (though still staged
    // here), they keep the worker busy while the CPU reaches the first
    // dynamic device subgroup, instead of leaving the step to end waiting
    // on them.
    let mut plan: Vec<(bool, HostRange<'_>)> = host_ranges(subgroups, state, &mut fp16)
        .into_iter()
        .enumerate()
        .map(|(i, host)| (i >= dynamic || stride.is_some_and(|k| (i + 1) % k == 0), host))
        .collect();
    plan.rotate_right(n_static);
    // DMA channels: H2D staged jobs in, D2H completions out.
    let (h2d_tx, h2d_rx) = sync::unbounded::<DeviceJob<'_>>();
    let (d2h_tx, d2h_rx) = sync::unbounded::<SubgroupSpec>();

    sync::scope(|scope| {
        // The device worker: updates each staged job, writes the results
        // back to the job's host range itself, and only then reports it
        // complete.
        let worker = scope.spawn(move || {
            let mut processed = 0usize;
            while let Ok(job) = h2d_rx.recv() {
                match fault {
                    Some(DeviceFault::PanicAfter(n)) if processed == n => {
                        panic!("injected device fault after {n} jobs")
                    }
                    Some(DeviceFault::DisconnectAfter(n)) if processed == n => return,
                    _ => {}
                }
                let sg = job.host.sg;
                ctx.device_apply(job);
                if d2h_tx.send(sg).is_err() {
                    return; // main thread is gone; nothing left to do
                }
                processed += 1;
            }
        });

        // The CPU side: walk the plan, shipping device subgroups (prefetch
        // = send) and updating the rest locally. A device subgroup is
        // staged and offered even once the worker is gone, so the step's
        // spans and its lost-job count do not depend on when the loss was
        // seen.
        for (to_device, host) in plan {
            if !to_device {
                ctx.cpu_apply(host);
                cpu_count += 1;
                continue;
            }
            let sg = host.sg;
            match h2d_tx.send(ctx.prefetch(pool, host)) {
                Ok(()) => {
                    pending.push(sg);
                    device_count += 1;
                }
                Err(sync::SendError(job)) => {
                    // Worker hung up: this job never left the host.
                    worker_lost = Some("device worker disconnected".to_string());
                    ctx.cpu_apply(job.host);
                    cpu_count += 1;
                    lost_retried += 1;
                }
            }
        }
        drop(h2d_tx); // signal the worker to finish

        // Wait for completions; the worker already wrote them back. Ends
        // when the worker drops its sender — normal completion, early
        // return, or unwinding alike.
        while let Ok(sg) = d2h_rx.recv() {
            pending.retain(|p| p.id != sg.id);
        }

        // Contain a worker panic instead of letting the scope re-raise it.
        if let Err(payload) = worker.join() {
            worker_lost = Some(format!("device worker panicked: {}", panic_message(payload)));
        } else if !pending.is_empty() && worker_lost.is_none() {
            worker_lost = Some("device worker disconnected".to_string());
        }
    });

    // Re-run shipped-but-lost jobs on the CPU. Their host ranges were never
    // written back, so the result is byte-identical to what the device
    // would have produced.
    pending.sort_by_key(|sg| sg.start);
    for host in host_ranges(&pending, state, &mut fp16) {
        ctx.cpu_apply(host);
        device_count -= 1;
        cpu_count += 1;
        lost_retried += 1;
    }

    if let Some(t) = tracer {
        t.metrics().inc_counter("pipeline.device_subgroups", device_count as u64);
        t.metrics().inc_counter("pipeline.cpu_subgroups", cpu_count as u64);
        if worker_lost.is_some() {
            t.metrics().inc_counter("pipeline.degraded_steps", 1);
            // A `fault:` instant triggers the tracer's automatic
            // flight-recorder dump, shipping the last-N-events context of
            // the degradation alongside the counters.
            t.instant_at("faults", "fault:device-worker", "fault", t.now());
        }
    }

    Ok(PipelineReport {
        fp16_params: fp16,
        device_subgroups: device_count,
        cpu_subgroups: cpu_count,
        degraded: worker_lost
            .map(|reason| PipelineDegradation { reason, lost_jobs_retried_on_cpu: lost_retried }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_optim::UpdateRule;
    use dos_zero::partition_into_subgroups;

    fn setup(n: usize) -> (MixedPrecisionState, Vec<f32>) {
        let init: Vec<f32> = (0..n).map(|i| ((i * 13 + 5) % 31) as f32 / 31.0).collect();
        let grads: Vec<f32> = (0..n).map(|i| ((i * 7 + 1) % 29) as f32 / 29.0 - 0.5).collect();
        (MixedPrecisionState::new(init, UpdateRule::adam(), 0.01), grads)
    }

    fn reference(n: usize) -> (Vec<f32>, Vec<F16>) {
        let (mut state, grads) = setup(n);
        state.full_step(&grads);
        let p16 = state.downscale_range(0..n);
        (state.params().to_vec(), p16)
    }

    #[test]
    fn hybrid_matches_sequential_bitwise() {
        let n = 1000;
        let (expected_p, expected_16) = reference(n);
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 64);
        let report = hybrid_update_pooled(
            &mut state,
            &grads,
            &sgs,
            PipelineConfig::default(),
            None,
            &ArenaPool::new(),
        )
        .unwrap();
        assert_eq!(state.params(), &expected_p[..]);
        assert_eq!(report.fp16_params, expected_16);
        assert!(report.device_subgroups > 0);
        assert!(report.cpu_subgroups > 0);
        assert!(report.degraded.is_none());
    }

    #[test]
    fn all_strides_agree() {
        let n = 500;
        let (expected_p, _) = reference(n);
        for stride in [
            StridePolicy::CpuOnly,
            StridePolicy::Fixed(1),
            StridePolicy::Fixed(2),
            StridePolicy::Fixed(3),
            StridePolicy::Fixed(7),
        ] {
            let (mut state, grads) = setup(n);
            let sgs = partition_into_subgroups(n, 33);
            let cfg = PipelineConfig { stride, ..PipelineConfig::default() };
            let report =
                hybrid_update_pooled(&mut state, &grads, &sgs, cfg, None, &ArenaPool::new())
                    .unwrap();
            assert_eq!(state.params(), &expected_p[..], "stride {stride:?} diverged");
            if matches!(stride, StridePolicy::CpuOnly) {
                assert_eq!(report.device_subgroups, 0);
            }
            if matches!(stride, StridePolicy::Fixed(1)) {
                assert_eq!(report.cpu_subgroups, 0);
            }
        }
    }

    #[test]
    fn static_residents_update_on_device() {
        let n = 300;
        let (expected_p, _) = reference(n);
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 50);
        let cfg = PipelineConfig {
            stride: StridePolicy::CpuOnly,
            static_residents: 2,
            ..PipelineConfig::default()
        };
        let report =
            hybrid_update_pooled(&mut state, &grads, &sgs, cfg, None, &ArenaPool::new()).unwrap();
        assert_eq!(report.device_subgroups, 2);
        assert_eq!(report.cpu_subgroups, 4);
        assert_eq!(state.params(), &expected_p[..]);
    }

    #[test]
    fn repeated_steps_track_sequential_trajectory() {
        let n = 200;
        let (mut seq, grads) = setup(n);
        let (mut hyb, _) = setup(n);
        let sgs = partition_into_subgroups(n, 17);
        for step in 0..5 {
            let g: Vec<f32> = grads.iter().map(|x| x * (step as f32 + 1.0)).collect();
            seq.full_step(&g);
            hybrid_update_pooled(
                &mut hyb,
                &g,
                &sgs,
                PipelineConfig::default(),
                None,
                &ArenaPool::new(),
            )
            .unwrap();
        }
        assert_eq!(seq.params(), hyb.params());
        assert_eq!(seq.momentum(), hyb.momentum());
        assert_eq!(seq.variance(), hyb.variance());
    }

    #[test]
    fn traced_update_is_bitwise_identical_and_emits_both_tracks() {
        let n = 1000;
        let (expected_p, expected_16) = reference(n);
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 64);
        let tracer = Tracer::new();
        let report = hybrid_update_pooled(
            &mut state,
            &grads,
            &sgs,
            PipelineConfig::default(),
            Some(&tracer),
            &ArenaPool::new(),
        )
        .unwrap();
        assert_eq!(state.params(), &expected_p[..]);
        assert_eq!(report.fp16_params, expected_16);

        let events = tracer.events();
        let on = |track: &str, prefix: &str| {
            events.iter().filter(|e| e.track == track && e.name.starts_with(prefix)).count()
        };
        // CPU track: prefetch per shipped subgroup, update + downscale per
        // local one; no write-back.
        assert_eq!(on(super::CPU_TRACK, "prefetch:sg"), report.device_subgroups);
        assert_eq!(on(super::CPU_TRACK, "update:sg"), report.cpu_subgroups);
        assert_eq!(on(super::CPU_TRACK, "downscale:sg"), report.cpu_subgroups);
        assert_eq!(on(super::CPU_TRACK, "flush:sg"), 0);
        // Device-worker track: update + downscale + flush (write-back) per
        // shipped subgroup.
        assert_eq!(on(super::DEVICE_TRACK, "update:sg"), report.device_subgroups);
        assert_eq!(on(super::DEVICE_TRACK, "downscale:sg"), report.device_subgroups);
        assert_eq!(on(super::DEVICE_TRACK, "flush:sg"), report.device_subgroups);
        // Flush spans are D2H transfers of the FP32 state (12 B/param); the
        // byte counter also counts the FP16 copy (2 B/param).
        let flushes: Vec<_> = events.iter().filter(|e| e.name.starts_with("flush:sg")).collect();
        assert!(flushes.iter().all(|e| e.resource == "pcie.d2h"));
        let flushed = flushes.iter().map(|e| e.work).sum::<f64>();
        assert_eq!(flushed / 12.0, tracer.metrics().counter("pipeline.d2h.bytes") as f64 / 14.0);
        // All wall-clock spans carry the update phase and real durations.
        assert!(events.iter().all(|e| e.phase == "update" && e.dur >= 0.0));
        // Byte counters rode along in the metrics registry.
        assert!(tracer.metrics().counter("pipeline.h2d.bytes") > 0);
        assert!(tracer.metrics().counter("pipeline.d2h.bytes") > 0);
        assert_eq!(
            tracer.metrics().counter("pipeline.device_subgroups"),
            report.device_subgroups as u64
        );
    }

    /// Each subgroup's stage spans are measured block by block and
    /// recorded back to back: `update` then `downscale` on the CPU track,
    /// then `flush` too on the device worker's, each with its usual
    /// resource and work.
    #[test]
    fn traced_fused_step_records_back_to_back_stage_spans() {
        // Subgroups of 2.5 fusion blocks plus a short tail subgroup.
        let n = 4 * 20_480 + 100;
        let (expected_p, expected_16) = reference(n);
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 20_480);
        let tracer = Tracer::new();
        let cfg = PipelineConfig { static_residents: 1, ..Default::default() };
        let report =
            hybrid_update_pooled(&mut state, &grads, &sgs, cfg, Some(&tracer), &ArenaPool::new())
                .unwrap();
        assert_eq!(state.params(), &expected_p[..]);
        assert_eq!(report.fp16_params, expected_16);
        assert!(report.device_subgroups > 0 && report.cpu_subgroups > 0);

        let events = tracer.events();
        for (track, stages) in [
            (super::CPU_TRACK, &[("update", "cpu", 1), ("downscale", "cpu", 1)][..]),
            (
                super::DEVICE_TRACK,
                &[("update", "gpu", 1), ("downscale", "gpu", 1), ("flush", "pcie.d2h", 12)][..],
            ),
        ] {
            let mut seen = 0;
            for sg in &sgs {
                let spans: Vec<_> = stages
                    .iter()
                    .filter_map(|(stage, ..)| {
                        let name = format!("{stage}:sg{}", sg.id);
                        events.iter().find(|e| e.track == track && e.name == name)
                    })
                    .collect();
                if spans.is_empty() {
                    continue; // updated on the other track
                }
                seen += 1;
                assert_eq!(spans.len(), stages.len(), "{track} sg{}", sg.id);
                for (e, (_, resource, bytes)) in spans.iter().zip(stages) {
                    assert_eq!(e.resource, *resource, "{}", e.name);
                    assert_eq!(e.work, (bytes * sg.len()) as f64, "{}", e.name);
                    assert!(e.dur >= 0.0, "{} lasted {}", e.name, e.dur);
                }
                for pair in spans.windows(2) {
                    let end = pair[0].start + pair[0].dur;
                    assert!((pair[1].start - end).abs() < 1e-9, "gap before {}", pair[1].name);
                }
            }
            let want = if track == super::CPU_TRACK {
                report.cpu_subgroups
            } else {
                report.device_subgroups
            };
            assert_eq!(seen, want, "{track}");
        }
    }

    #[test]
    fn incomplete_subgroups_rejected_with_typed_error() {
        let (mut state, grads) = setup(100);
        let before = state.params().to_vec();
        let sgs = partition_into_subgroups(90, 30);
        let err = hybrid_update_pooled(
            &mut state,
            &grads,
            &sgs,
            PipelineConfig::default(),
            None,
            &ArenaPool::new(),
        )
        .unwrap_err();
        match &err {
            PipelineError::SubgroupTiling { detail } => {
                assert!(detail.contains("cover the space"), "unexpected detail: {detail}")
            }
            other => panic!("expected SubgroupTiling, got {other:?}"),
        }
        // Failed preconditions leave the state untouched.
        assert_eq!(state.params(), &before[..]);
    }

    #[test]
    fn mismatched_gradients_rejected_with_typed_error() {
        let (mut state, _) = setup(100);
        let sgs = partition_into_subgroups(100, 25);
        let short = vec![0.0f32; 60];
        let err = hybrid_update_pooled(
            &mut state,
            &short,
            &sgs,
            PipelineConfig::default(),
            None,
            &ArenaPool::new(),
        )
        .unwrap_err();
        assert_eq!(err, PipelineError::GradientLengthMismatch { expected: 100, got: 60 });
    }

    /// Every kill point of both fault kinds must leave the step byte-exact
    /// with the sequential reference and report the degradation honestly.
    /// The worker writes a host range back only right before it reports
    /// the job complete, so each job it did not complete is re-run on the
    /// CPU from untouched host state.
    #[test]
    fn worker_loss_degrades_to_cpu_byte_exact() {
        let n = 600;
        let sgs = partition_into_subgroups(n, 40); // 15 subgroups
        let cfg = PipelineConfig { static_residents: 2, ..Default::default() };
        let mut expected = setup(n).0;
        let grads = setup(n).1;
        expected.full_step(&grads);
        let mut expected_16 = vec![F16::ZERO; n];
        kernels::downscale_reference(expected.params(), &mut expected_16);
        let shipped =
            hybrid_update_pooled(&mut setup(n).0, &grads, &sgs, cfg, None, &ArenaPool::new())
                .unwrap()
                .device_subgroups;
        assert_eq!(shipped, 8, "every 2nd of 13 dynamic subgroups + 2 residents");
        for kill_after in 0..=shipped {
            for fault in
                [DeviceFault::PanicAfter(kill_after), DeviceFault::DisconnectAfter(kill_after)]
            {
                let mut state = setup(n).0;
                let cfg = PipelineConfig { fault_injection: Some(fault), ..cfg };
                let report =
                    hybrid_update_pooled(&mut state, &grads, &sgs, cfg, None, &ArenaPool::new())
                        .unwrap();
                assert_eq!(state, expected, "{fault:?} diverged");
                assert_eq!(report.fp16_params, expected_16, "{fault:?} fp16 diverged");
                let lost = report.degraded.as_ref().map_or(0, |d| d.lost_jobs_retried_on_cpu);
                assert_eq!(lost, shipped - kill_after, "{fault:?}");
                if let (DeviceFault::PanicAfter(_), Some(deg)) = (fault, &report.degraded) {
                    assert!(deg.reason.contains("panicked"), "reason: {}", deg.reason);
                }
                assert_eq!(report.degraded.is_some(), kill_after < shipped, "{fault:?}");
                // Jobs completed before the kill point stay on the device
                // side of the ledger; everything still sums to the tiling.
                assert_eq!(report.device_subgroups, kill_after);
                assert_eq!(report.device_subgroups + report.cpu_subgroups, sgs.len());
            }
        }
    }

    #[test]
    fn worker_loss_with_residents_still_matches_reference() {
        let n = 400;
        let (expected_p, _) = reference(n);
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 40);
        let cfg = PipelineConfig {
            stride: StridePolicy::Fixed(2),
            static_residents: 3,
            fault_injection: Some(DeviceFault::DisconnectAfter(1)),
        };
        let report =
            hybrid_update_pooled(&mut state, &grads, &sgs, cfg, None, &ArenaPool::new()).unwrap();
        assert_eq!(state.params(), &expected_p[..]);
        assert!(report.degraded.is_some());
        assert_eq!(report.device_subgroups + report.cpu_subgroups, sgs.len());
    }

    #[test]
    fn degraded_traced_step_keeps_span_accounting_consistent() {
        let n = 500;
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 50);
        let tracer = Tracer::new();
        let cfg = PipelineConfig {
            fault_injection: Some(DeviceFault::PanicAfter(2)),
            ..Default::default()
        };
        let report =
            hybrid_update_pooled(&mut state, &grads, &sgs, cfg, Some(&tracer), &ArenaPool::new())
                .unwrap();
        assert!(report.degraded.is_some());
        let events = tracer.events();
        let on = |track: &str, prefix: &str| {
            events.iter().filter(|e| e.track == track && e.name.starts_with(prefix)).count()
        };
        // Write-backs happened only for jobs the worker finished; CPU
        // updates cover the rest (locals + lost retries).
        assert_eq!(on(super::DEVICE_TRACK, "flush:sg"), report.device_subgroups);
        assert_eq!(on(super::CPU_TRACK, "update:sg"), report.cpu_subgroups);
        assert_eq!(on(super::CPU_TRACK, "downscale:sg"), report.cpu_subgroups);
        assert_eq!(tracer.metrics().counter("pipeline.degraded_steps"), 1);
    }

    #[test]
    fn pooled_steps_recycle_buffers_and_stay_bitwise_exact() {
        let n = 1000;
        let (mut seq, grads) = setup(n);
        let (mut hyb, _) = setup(n);
        let sgs = partition_into_subgroups(n, 64);
        let pool = crate::ArenaPool::new();
        for _ in 0..4 {
            seq.full_step(&grads);
            hybrid_update_pooled(&mut hyb, &grads, &sgs, PipelineConfig::default(), None, &pool)
                .unwrap();
        }
        assert_eq!(seq.params(), hyb.params());
        assert_eq!(seq.momentum(), hyb.momentum());
        assert_eq!(seq.variance(), hyb.variance());
        // Every lease came back: the pool owns all buffers again.
        assert_eq!(pool.in_use_bytes(), 0);
        // Steady state recycles: later steps hit the free lists instead of
        // allocating (first step can only miss).
        assert!(
            pool.reuse_hits() > pool.allocation_misses(),
            "hits {} vs misses {}",
            pool.reuse_hits(),
            pool.allocation_misses()
        );
        assert!(pool.high_water_bytes() > 0);
    }

    #[test]
    fn pooled_degraded_step_returns_all_leases() {
        let n = 600;
        let (expected_p, _) = reference(n);
        let (mut state, grads) = setup(n);
        let sgs = partition_into_subgroups(n, 40);
        let pool = crate::ArenaPool::new();
        let cfg = PipelineConfig {
            fault_injection: Some(DeviceFault::PanicAfter(2)),
            ..Default::default()
        };
        let report = hybrid_update_pooled(&mut state, &grads, &sgs, cfg, None, &pool).unwrap();
        assert!(report.degraded.is_some());
        assert_eq!(state.params(), &expected_p[..]);
        assert_eq!(pool.in_use_bytes(), 0, "worker loss must not leak leases");
    }
}

#[cfg(all(test, feature = "check"))]
mod check_tests {
    use crate::sync::sched::{run_with_scheduler, PendingOp, Pick, Tid};
    use crate::{hybrid_update_pooled, ArenaPool, DeviceFault, PipelineConfig};
    use dos_optim::{MixedPrecisionState, UpdateRule};
    use dos_zero::partition_into_subgroups;

    #[test]
    fn hybrid_update_matches_sequential_under_default_and_reversed_schedules() {
        let n = 48;
        let init: Vec<f32> = (0..n).map(|i| ((i * 13 + 5) % 31) as f32 / 31.0).collect();
        let grads: Vec<f32> = (0..n).map(|i| ((i * 7 + 1) % 29) as f32 / 29.0 - 0.5).collect();
        let mut seq = MixedPrecisionState::new(init.clone(), UpdateRule::adam(), 0.01);
        seq.full_step(&grads);
        let expected = seq.params().to_vec();

        for reversed in [false, true] {
            let init = init.clone();
            let grads = grads.clone();
            let outcome = run_with_scheduler(
                move || {
                    let mut state = MixedPrecisionState::new(init, UpdateRule::adam(), 0.01);
                    let sgs = partition_into_subgroups(n, 8);
                    let report = hybrid_update_pooled(
                        &mut state,
                        &grads,
                        &sgs,
                        PipelineConfig::default(),
                        None,
                        &ArenaPool::new(),
                    )
                    .unwrap();
                    (state.params().to_vec(), report.device_subgroups)
                },
                |_, enabled: &[(Tid, PendingOp)]| {
                    let idx = if reversed { enabled.len() - 1 } else { 0 };
                    Pick::Run(enabled[idx].0)
                },
                100_000,
            );
            assert!(outcome.error.is_none(), "teardown: {:?}", outcome.error);
            let (params, on_device) = outcome.result.unwrap();
            assert_eq!(params, expected, "reversed={reversed} diverged");
            assert!(on_device > 0);
        }
    }

    /// With the worker scheduled as eagerly as possible, a kill is seen
    /// while the CPU thread is still walking its subgroups. The device
    /// subgroups it then cannot ship still count as lost, so the ledger is
    /// exact for every kill point, and the result stays bitwise.
    #[test]
    fn worker_loss_seen_mid_walk_counts_every_lost_job() {
        let n = 48;
        let init: Vec<f32> = (0..n).map(|i| ((i * 13 + 5) % 31) as f32 / 31.0).collect();
        let grads: Vec<f32> = (0..n).map(|i| ((i * 7 + 1) % 29) as f32 / 29.0 - 0.5).collect();
        let mut seq = MixedPrecisionState::new(init.clone(), UpdateRule::adam(), 0.01);
        seq.full_step(&grads);
        let mut seq_16 = vec![dos_tensor::F16::ZERO; n];
        dos_tensor::kernels::downscale_reference(seq.params(), &mut seq_16);
        let shipped = 3; // every 2nd of 5 dynamic subgroups + 1 resident

        for kill_after in 0..=shipped {
            for fault in
                [DeviceFault::PanicAfter(kill_after), DeviceFault::DisconnectAfter(kill_after)]
            {
                let (init, grads) = (init.clone(), grads.clone());
                let outcome = run_with_scheduler(
                    move || {
                        let mut state = MixedPrecisionState::new(init, UpdateRule::adam(), 0.01);
                        let sgs = partition_into_subgroups(n, 8);
                        let cfg = PipelineConfig {
                            static_residents: 1,
                            fault_injection: Some(fault),
                            ..PipelineConfig::default()
                        };
                        let report = hybrid_update_pooled(
                            &mut state,
                            &grads,
                            &sgs,
                            cfg,
                            None,
                            &ArenaPool::new(),
                        )
                        .unwrap();
                        let lost = report.degraded.map_or(0, |d| d.lost_jobs_retried_on_cpu);
                        (state, report.fp16_params, lost)
                    },
                    // The newest enabled thread first: the worker runs as
                    // soon as it can.
                    |_, enabled: &[(Tid, PendingOp)]| Pick::Run(enabled[enabled.len() - 1].0),
                    100_000,
                );
                assert!(outcome.error.is_none(), "{fault:?} teardown: {:?}", outcome.error);
                let (state, fp16, lost) = outcome.result.unwrap();
                assert_eq!(state, seq, "{fault:?} diverged");
                assert_eq!(fp16, seq_16, "{fault:?} fp16 diverged");
                assert_eq!(lost, shipped - kill_after, "{fault:?}");
            }
        }
    }
}
