//! Functional data-parallel training with interleaved hybrid updates.
//!
//! End-to-end *real* training, tying every substrate together: each
//! data-parallel rank runs on its own OS thread with its own `dos-nn` model
//! replica and a disjoint `dos-data` shard; gradients are reduce-scattered
//! with `dos-collectives`; each rank updates only its own ZeRO-style
//! optimizer shard through the `dos-core` interleaved hybrid pipeline
//! (CPU thread + device worker); updated FP16 parameters are all-gathered
//! back. This is the paper's training loop in miniature — with real
//! numerics instead of a timing model.

use std::sync::Arc;
use std::time::Duration;

use dos_collectives::{
    CollectiveConfig, CollectiveError, Communicator, FaultyTransport, InProcTransport,
    Transport, TransportFaultPlan,
};
#[cfg(unix)]
use dos_collectives::SocketTransport;
use dos_control::WallClockTunerConfig;
use dos_core::PipelineConfig;
use dos_data::{DataLoader, TokenDataset};
use dos_nn::{Gpt, GptConfig, VisitParams};
use dos_optim::{clip_grad_norm, DynamicLossScaler, LrSchedule, MixedPrecisionState, UpdateRule};
use dos_zero::rank_range;

use dos_train::checkpoint::{AsyncCheckpointer, CheckpointError, CheckpointStore, TrainingCheckpoint};
use dos_train::{DosEntry, TrainerConfig, TrainerError};

/// Everything that can abort a functional training run.
#[derive(Debug)]
#[non_exhaustive]
pub enum TrainError {
    /// Checkpoint persistence or restoration failed.
    Checkpoint(CheckpointError),
    /// A rank's optimizer step rejected its configuration or inputs.
    Trainer(TrainerError),
    /// A collective operation failed (ranks out of lockstep).
    Collective(CollectiveError),
    /// A rank thread panicked.
    RankPanicked,
    /// The metrics endpoint could not be started.
    Monitor(
        /// Description of the bind/serve failure.
        String,
    ),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            TrainError::Trainer(e) => write!(f, "optimizer step failure: {e}"),
            TrainError::Collective(e) => write!(f, "collective failure: {e}"),
            TrainError::RankPanicked => write!(f, "a rank thread panicked"),
            TrainError::Monitor(detail) => write!(f, "metrics endpoint failure: {detail}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            TrainError::Trainer(e) => Some(e),
            TrainError::Collective(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

impl From<TrainerError> for TrainError {
    fn from(e: TrainerError) -> Self {
        TrainError::Trainer(e)
    }
}

impl From<CollectiveError> for TrainError {
    fn from(e: CollectiveError) -> Self {
        TrainError::Collective(e)
    }
}

/// What the coordinator does when a rank fails mid-run (link dead, peer
/// silent past its deadline, or its thread panicked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankFailurePolicy {
    /// Abort the run, surfacing the typed [`TrainError::Collective`].
    Error,
    /// Elastic degradation: evict the dead rank, rebuild the communicator
    /// at the next step boundary from the latest crash-consistent
    /// checkpoint, and continue at the reduced world size.
    Elastic,
}

/// Which point-to-point substrate carries the collectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportBackend {
    /// In-process channels between the rank threads (single process).
    InProc,
    /// Unix-domain sockets rendezvousing in this directory
    /// (`rank<r>.sock` files) — the same wire protocol real multi-process
    /// launches speak, driven here with one endpoint per rank thread.
    /// Unix only; selecting it elsewhere is a transport error at run
    /// start.
    Uds(std::path::PathBuf),
}

/// Configuration of a functional training run.
#[derive(Debug, Clone)]
pub struct FunctionalConfig {
    /// Model architecture (use small configurations; this is real math).
    pub model: GptConfig,
    /// Data-parallel world size (threads).
    pub world: usize,
    /// Micro-batch size per rank.
    pub micro_batch: usize,
    /// Optimizer rule.
    pub rule: UpdateRule,
    /// Learning rate.
    pub lr: f32,
    /// Subgroup size in parameters for the hybrid pipeline.
    pub subgroup_size: usize,
    /// Interleaving configuration (stride, static residents).
    pub pipeline: PipelineConfig,
    /// Wall-clock tuner tunables, used when `pipeline.stride` is
    /// [`dos_core::StridePolicy::Adaptive`]: stride sweep gates plus the
    /// resident-sizing policy fed from the arena pool's high-water gauge.
    /// Each rank's [`dos_train::Trainer`] takes them through
    /// [`dos_train::Trainer::tune_with`], so a `base_residents` of 0
    /// inherits `pipeline.static_residents`.
    pub tuner: WallClockTunerConfig,
    /// Seed for model init and data shuffling.
    pub seed: u64,
    /// Learning-rate schedule overriding the constant `lr` when set.
    pub lr_schedule: Option<LrSchedule>,
    /// Global gradient-norm clip applied after the all-reduce, when set.
    pub grad_clip: Option<f32>,
    /// Run forward/backward with activation checkpointing (recompute
    /// per-block activations during backward), as the paper's runs do.
    pub activation_checkpointing: bool,
    /// Initial dynamic loss scale (mixed-precision recipe); `None` disables
    /// loss scaling.
    pub loss_scale: Option<f32>,
    /// Checkpoint rank 0's model + optimizer shard into this retention
    /// directory (`ckpt-<iteration>.dos` files) every `checkpoint_every`
    /// iterations, written crash-consistently and asynchronously while
    /// training continues.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// How many checkpoints the retention directory keeps (oldest pruned).
    pub checkpoint_keep: usize,
    /// Checkpoint interval in iterations (ignored without a directory).
    pub checkpoint_every: usize,
    /// Resume training from this snapshot instead of a fresh init: the
    /// model takes the snapshot's device parameters, the optimizer its
    /// state, the data loader fast-forwards past the iterations already
    /// done, and new checkpoints continue its iteration numbering.
    /// Snapshots hold the *full* optimizer state (gathered across ranks at
    /// capture time), so any world size can resume from any snapshot —
    /// each rank re-shards the zero-padded full state.
    pub resume: Option<TrainingCheckpoint>,
    /// Point-to-point substrate for the collectives; see
    /// [`TransportBackend`].
    pub transport: TransportBackend,
    /// Per-collective deadline. `None` keeps the historical blocking mode
    /// (liveness via disconnect propagation); `Some` enables heartbeats,
    /// backoff retransmits, and timeout-vs-rank-failure attribution.
    pub collective_timeout: Option<Duration>,
    /// Wrap every rank's transport in seeded fault injection (chaos
    /// campaigns and the lossy-transport bitwise tests). `None` runs the
    /// transport clean.
    pub transport_faults: Option<TransportFaultPlan>,
    /// Rank-failure handling; see [`RankFailurePolicy`]. Elastic recovery
    /// strips permanent failures from the re-armed fault plan and emits
    /// `health:degraded` / `fault:collective:evict` tracer instants.
    pub on_rank_failure: RankFailurePolicy,
    /// Wall-clock tracer shared by every rank thread. Each rank records
    /// phase spans onto its own `rank{r}` track, and the hybrid pipeline
    /// records prefetch/update/flush spans onto the shared `cpu` and
    /// `device-worker` tracks. `None` disables tracing entirely (the
    /// update path is bitwise identical either way).
    pub tracer: Option<dos_telemetry::Tracer>,
    /// Serve live metrics from this address (e.g. `"127.0.0.1:0"`) for the
    /// duration of the run. Uses the configured tracer's registry, or
    /// attaches a flight-only tracer when none is set. `None` disables it.
    pub monitor_listen: Option<String>,
}

impl FunctionalConfig {
    /// A small default: tiny GPT, 2 ranks, Adam, stride-2 interleaving.
    pub fn small() -> FunctionalConfig {
        FunctionalConfig {
            model: GptConfig::tiny(),
            world: 2,
            micro_batch: 2,
            rule: UpdateRule::adam(),
            lr: 5e-3,
            subgroup_size: 4096,
            pipeline: PipelineConfig::default(),
            tuner: WallClockTunerConfig::default(),
            seed: 42,
            lr_schedule: None,
            grad_clip: None,
            activation_checkpointing: false,
            loss_scale: None,
            checkpoint_dir: None,
            checkpoint_keep: 3,
            checkpoint_every: 10,
            resume: None,
            transport: TransportBackend::InProc,
            collective_timeout: None,
            transport_faults: None,
            on_rank_failure: RankFailurePolicy::Error,
            tracer: None,
            monitor_listen: None,
        }
    }

    /// Applies the JSON `"collectives"` entry (the `dos-train` config
    /// surface, re-exported by [`crate::config`]) onto this run: transport
    /// backend, per-collective deadline, and rank-failure policy.
    ///
    /// # Errors
    ///
    /// Propagates the entry's own validation failures (unknown transport or
    /// policy names, `"uds"` without a `socket_dir`).
    pub fn apply_collectives(
        &mut self,
        entry: &dos_train::CollectivesEntry,
    ) -> Result<(), dos_train::TrainerError> {
        entry.validate()?;
        self.transport = match (entry.transport.as_str(), &entry.socket_dir) {
            ("uds", Some(dir)) => TransportBackend::Uds(dir.into()),
            _ => TransportBackend::InProc,
        };
        self.collective_timeout = entry.collective_timeout_ms.map(Duration::from_millis);
        self.on_rank_failure = match entry.on_rank_failure.as_str() {
            "elastic" => RankFailurePolicy::Elastic,
            _ => RankFailurePolicy::Error,
        };
        Ok(())
    }
}

/// Outcome of a functional run.
#[derive(Debug, Clone)]
pub struct FunctionalReport {
    /// Mean training loss per iteration (averaged across ranks).
    pub losses: Vec<f32>,
    /// Whether all ranks ended with bit-identical parameters.
    pub ranks_consistent: bool,
    /// Final parameters of rank 0 (FP16-rounded device copy).
    pub final_params: Vec<f32>,
    /// Update steps (on rank 0) that degraded to the CPU-only path because
    /// the device worker was lost. Nonzero only under fault injection or a
    /// genuine worker crash; the numerics are unaffected either way.
    pub degraded_steps: usize,
    /// The bound metrics-endpoint address, when `monitor_listen` was set
    /// (`"127.0.0.1:0"` resolves to the actual ephemeral port here).
    pub monitor_addr: Option<String>,
    /// How many times elastic recovery evicted a failed rank and restarted
    /// from a checkpoint. Zero on a healthy run. When nonzero, `losses`
    /// covers only the final (successful) segment.
    pub recoveries: usize,
    /// The world size the run finished at (smaller than the configured
    /// world after elastic degradation).
    pub final_world: usize,
}

/// Mean cross-entropy loss and perplexity of a model over an entire
/// dataset (single process, no gradients).
///
/// # Panics
///
/// Panics if `dataset` is empty.
pub fn evaluate(model: &mut Gpt, dataset: &TokenDataset) -> (f32, f32) {
    assert!(!dataset.is_empty(), "cannot evaluate on an empty dataset");
    let mut total = 0.0f64;
    for i in 0..dataset.len() {
        let (x, y) = dataset.sample(i);
        total += model.loss_only(x, y, 1, dataset.seq_len()) as f64;
    }
    let mean = (total / dataset.len() as f64) as f32;
    (mean, mean.exp())
}

/// Pads `v` with zeros to a multiple of `world`.
fn pad_to_multiple(mut v: Vec<f32>, world: usize) -> Vec<f32> {
    let rem = v.len() % world;
    if rem != 0 {
        v.resize(v.len() + world - rem, 0.0);
    }
    v
}

/// Trains `iterations` steps of data-parallel, ZeRO-sharded, interleaved
/// hybrid training; returns per-iteration losses and a consistency check.
///
/// # Errors
///
/// Returns [`TrainError`] on checkpoint, pipeline, or collective failures,
/// when resuming with `world != 1`, or when a rank thread panics.
///
/// # Panics
///
/// Panics if `cfg.world` is zero or the dataset cannot fill a micro-batch
/// per rank.
pub fn train_functional(
    cfg: &FunctionalConfig,
    dataset: &TokenDataset,
    iterations: usize,
) -> Result<FunctionalReport, TrainError> {
    assert!(cfg.world > 0, "world must be positive");
    // With a listen address, serve live metrics for the duration of the
    // run. A flight-only tracer (bounded ring, no unbounded store) is
    // attached when the caller did not configure one, so the pipeline's
    // counters and the arena gauges have a registry to land in.
    let mut owned;
    let cfg = match &cfg.monitor_listen {
        Some(_) => {
            owned = cfg.clone();
            if owned.tracer.is_none() {
                owned.tracer = Some(dos_telemetry::Tracer::flight_only(4096));
            }
            &owned
        }
        None => cfg,
    };
    let server = match (&cfg.monitor_listen, &cfg.tracer) {
        (Some(listen), Some(t)) => Some(
            dos_telemetry::MetricsServer::start(listen, t.metrics().clone(), None)
                .map_err(TrainError::Monitor)?,
        ),
        _ => None,
    };
    let monitor_addr = server.as_ref().map(|s| s.addr().to_string());

    // The coordinator: run a world of rank threads; under the elastic
    // policy, a rank failure evicts the dead rank and restarts the
    // survivors from the latest crash-consistent checkpoint at the reduced
    // world size (ISSUE: rebuild the communicator at a step boundary).
    let target = cfg.resume.as_ref().map_or(0, |c| c.iteration) + iterations;
    let mut world = cfg.world;
    let mut resume = cfg.resume.clone();
    let mut remaining = iterations;
    let mut plan = cfg.transport_faults.clone();
    let mut recoveries = 0usize;
    let (results, final_world) = loop {
        let comms = build_comms(cfg, world, plan.as_ref())?;
        let run: Result<Vec<RankRun>, TrainError> =
            std::thread::scope(|scope| {
                let resume_ref = resume.as_ref();
                let handles: Vec<_> = comms
                    .into_iter()
                    .map(|comm| {
                        scope.spawn(move || run_rank(cfg, dataset, remaining, comm, resume_ref))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| TrainError::RankPanicked).and_then(|r| r))
                    .collect()
            });
        match run {
            Ok(results) => break (results, world),
            Err(e) => {
                let evictable = matches!(
                    &e,
                    TrainError::RankPanicked
                        | TrainError::Collective(CollectiveError::RankFailed { .. })
                        | TrainError::Collective(CollectiveError::Timeout { .. })
                );
                if cfg.on_rank_failure != RankFailurePolicy::Elastic || world <= 1 || !evictable
                {
                    return Err(e);
                }
                world -= 1;
                recoveries += 1;
                // Survivors are re-armed without the permanent failures
                // that already fired (the evicted rank's disconnect must
                // not kill the new world's same-numbered rank).
                plan = plan.as_ref().map(TransportFaultPlan::without_permanent_failures);
                if let Some(t) = &cfg.tracer {
                    t.instant_at("faults", "fault:collective:evict", "fault", t.now());
                    t.instant_at("health", "health:degraded", "health", t.now());
                }
                // Rewind to the newest checkpoint that validates; with no
                // store (or none written yet), restart the attempt from
                // the run's original starting point.
                resume = cfg
                    .checkpoint_dir
                    .as_ref()
                    .and_then(|dir| CheckpointStore::open(dir, cfg.checkpoint_keep).ok())
                    .and_then(|store| store.latest_valid().ok())
                    .map(|(ckpt, _)| ckpt)
                    .or_else(|| cfg.resume.clone());
                remaining = target - resume.as_ref().map_or(0, |c| c.iteration);
            }
        }
    };

    let losses = results[0].0.clone();
    let final_params = results[0].1.clone();
    let degraded_steps = results[0].2;
    let ranks_consistent = results.iter().all(|(_, p, _)| *p == final_params);
    drop(server); // release the port before returning
    Ok(FunctionalReport {
        losses,
        ranks_consistent,
        final_params,
        degraded_steps,
        monitor_addr,
        recoveries,
        final_world,
    })
}

/// Builds the world's communicators per the configured transport options:
/// in-process channels or a UDS mesh, each rank's endpoint optionally
/// wrapped in seeded fault injection, in blocking or deadline mode.
fn build_comms(
    cfg: &FunctionalConfig,
    world: usize,
    plan: Option<&TransportFaultPlan>,
) -> Result<Vec<Communicator>, TrainError> {
    let ccfg = CollectiveConfig { timeout: cfg.collective_timeout, ..CollectiveConfig::default() };
    let endpoints: Vec<Box<dyn Transport>> = match &cfg.transport {
        TransportBackend::InProc => InProcTransport::world(world)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect(),
        TransportBackend::Uds(dir) => uds_world(world, dir)?,
    };
    Ok(endpoints
        .into_iter()
        .map(|t| {
            let t: Box<dyn Transport> = match plan {
                None => t,
                Some(plan) => {
                    let mut faulty = FaultyTransport::new(t, plan.clone());
                    if let Some(tracer) = &cfg.tracer {
                        faulty = faulty.with_tracer(Arc::new(tracer.clone()));
                    }
                    Box::new(faulty)
                }
            };
            Communicator::new(t, ccfg.clone())
        })
        .collect())
}

/// Rendezvouses a full UDS mesh under `dir`. The per-rank handshake dials
/// every lower rank while accepting from every higher one, so the
/// endpoints must connect concurrently — one rendezvous thread per rank;
/// building them sequentially would deadlock.
#[cfg(unix)]
fn uds_world(world: usize, dir: &std::path::Path) -> Result<Vec<Box<dyn Transport>>, TrainError> {
    const HANDSHAKE: Duration = Duration::from_secs(10);
    std::fs::create_dir_all(dir).map_err(|e| {
        TrainError::Collective(CollectiveError::Transport {
            op: "connect",
            detail: format!("create {}: {e}", dir.display()),
        })
    })?;
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            let dir = dir.to_path_buf();
            std::thread::spawn(move || SocketTransport::connect_uds(rank, world, &dir, HANDSHAKE))
        })
        .collect();
    let mut endpoints: Vec<Box<dyn Transport>> = Vec::with_capacity(world);
    for h in handles {
        let t = h.join().map_err(|_| TrainError::RankPanicked)?.map_err(|e| {
            TrainError::Collective(CollectiveError::Transport {
                op: "connect",
                detail: e.to_string(),
            })
        })?;
        endpoints.push(Box::new(t));
    }
    Ok(endpoints)
}

#[cfg(not(unix))]
fn uds_world(_world: usize, dir: &std::path::Path) -> Result<Vec<Box<dyn Transport>>, TrainError> {
    Err(TrainError::Collective(CollectiveError::Transport {
        op: "connect",
        detail: format!("UDS transport ({}) requires unix", dir.display()),
    }))
}

/// One rank's run result: (per-iteration losses, final parameters,
/// degraded-step count).
type RankRun = (Vec<f32>, Vec<f32>, usize);

/// Averages gradients across ranks into this rank's shard (ZeRO's
/// reduce-scatter); `None` when any rank's scaled gradients overflowed.
fn exchange_grads(
    cfg: &FunctionalConfig,
    comm: &Communicator,
    scaler: Option<&mut DynamicLossScaler>,
    mut grads: Vec<f32>,
) -> Result<Option<Vec<f32>>, TrainError> {
    // Unscale before any reduction. The overflow verdict is all-reduced,
    // so every rank skips together and the collectives stay in lockstep.
    if let Some(s) = scaler {
        let mut overflow = [if s.unscale(&mut grads) { 0.0 } else { 1.0 }];
        comm.all_reduce_sum(&mut overflow)?;
        s.update(overflow[0] > 0.0);
        if overflow[0] > 0.0 {
            return Ok(None);
        }
    }
    let (rank, world) = (comm.rank(), comm.world_size());
    let inv = 1.0 / world as f32;
    // Global-norm clipping must see the *averaged full* gradient so all
    // ranks compute the same scale; do it before the scatter.
    if let Some(max_norm) = cfg.grad_clip {
        comm.all_reduce_sum(&mut grads)?;
        for g in grads.iter_mut() {
            *g *= inv;
        }
        clip_grad_norm(&mut grads, max_norm);
        // Already averaged: scatter without re-reducing.
        return Ok(Some(grads[rank_range(grads.len(), rank, world)].to_vec()));
    }
    let mut shard_grads = comm.reduce_scatter_sum(&grads)?;
    for g in shard_grads.iter_mut() {
        *g *= inv;
    }
    Ok(Some(shard_grads))
}

/// One rank's training loop.
fn run_rank(
    cfg: &FunctionalConfig,
    dataset: &TokenDataset,
    iterations: usize,
    comm: Communicator,
    resume: Option<&TrainingCheckpoint>,
) -> Result<RankRun, TrainError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let rank = comm.rank();
    let world = comm.world_size();
    if let Some(t) = &cfg.tracer {
        t.set_thread_track(&format!("rank{rank}"));
    }
    // Identical init on every rank (same seed).
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = Gpt::new(cfg.model.clone(), &mut rng);
    let mut loader = DataLoader::new(rank, world, cfg.micro_batch, cfg.seed ^ 0x5EED);

    // ZeRO-style shard: this rank owns the optimizer state of its range of
    // the (padded) flat parameter space.
    let init = pad_to_multiple(model.gather_params(), world);
    let padded_n = init.len();
    let shard = rank_range(padded_n, rank, world);
    let resume_at = resume.map_or(0, |c| c.iteration);
    let state = match resume {
        // Snapshots hold the full optimizer state, so any world size can
        // resume: zero-pad the full space to this world's padded size and
        // slice out this rank's shard. The pad region's state is exactly
        // what a fresh run carries there (zero grads keep zero m/v, so the
        // pad never moves), making re-sharded resume bitwise-correct.
        Some(ckpt) => {
            let restored = ckpt.restore(&mut model)?;
            if restored.len() != model.num_params() {
                return Err(CheckpointError::ShapeMismatch {
                    expected: model.num_params(),
                    got: restored.len(),
                }
                .into());
            }
            // Fast-forward the data stream past the iterations already done
            // so the resumed run sees the batches an uninterrupted one would.
            for _ in 0..ckpt.iteration {
                let _ = loader.next_batch(dataset);
            }
            let cut = |full: &[f32]| pad_to_multiple(full.to_vec(), world)[shard.clone()].to_vec();
            MixedPrecisionState::from_parts(
                cut(restored.params()),
                cut(restored.momentum()),
                cut(restored.variance()),
                restored.rule(),
                restored.lr(),
                restored.step_count(),
            )
        }
        None => MixedPrecisionState::new(init[shard.clone()].to_vec(), cfg.rule, cfg.lr),
    };
    let mut trainer = TrainerConfig {
        static_residents: cfg.pipeline.static_residents,
        deep_optimizer_states: DosEntry {
            update_stride: cfg.pipeline.stride.into(),
            ..DosEntry::default()
        },
        ..TrainerConfig::new(shard.len(), cfg.subgroup_size)
    }
    .assemble(state, resume_at)?;
    trainer.inject_fault(cfg.pipeline.fault_injection);
    // Under an adaptive stride every rank retunes on its own: stride
    // changes never move the numerics (§4.1), so the ranks stay consistent.
    trainer.tune_with(cfg.tuner);
    if let Some(t) = &cfg.tracer {
        trainer.trace_into(t.clone());
    }

    let store = match &cfg.checkpoint_dir {
        Some(dir) if rank == 0 => Some(CheckpointStore::open(dir, cfg.checkpoint_keep)?),
        _ => None,
    };
    let mut scaler = cfg.loss_scale.map(DynamicLossScaler::new);
    let mut checkpointer = AsyncCheckpointer::new();
    let mut degraded_steps = 0usize;
    let mut losses = Vec::with_capacity(iterations);
    for rel_it in 0..iterations {
        let it = rel_it + resume_at;
        // Scheduled transport faults (disconnects, partition windows) key
        // off the training iteration.
        comm.set_epoch(it as u64);
        let batch = loader.next_batch(dataset);
        let fwd_span =
            cfg.tracer.as_ref().map(|t| t.span(&format!("fwd-bwd:it{it}"), "forward-backward"));
        let loss = match (&scaler, cfg.activation_checkpointing) {
            (Some(s), _) => model.loss_and_backward_scaled(
                &batch.inputs,
                &batch.targets,
                batch.batch,
                batch.seq_len,
                s.scale(),
            ),
            (None, true) => model.loss_and_backward_checkpointed(
                &batch.inputs,
                &batch.targets,
                batch.batch,
                batch.seq_len,
            ),
            (None, false) => {
                model.loss_and_backward(&batch.inputs, &batch.targets, batch.batch, batch.seq_len)
            }
        };

        drop(fwd_span);

        let comm_span =
            cfg.tracer.as_ref().map(|t| t.span(&format!("grad-exchange:it{it}"), "communicate"));
        let grads = pad_to_multiple(model.gather_grads(), world);
        let shard_grads = exchange_grads(cfg, &comm, scaler.as_mut(), grads)?;
        drop(comm_span);
        if let Some(shard_grads) = shard_grads {
            if let Some(schedule) = cfg.lr_schedule {
                trainer.set_lr(schedule.lr_at(it as u64 + 1));
            }
            // Interleaved hybrid update of this rank's shard (real
            // threads, Algorithm 1's structure).
            let before = trainer.tuner().map_or(0, |t| t.decisions().len());
            let update_span =
                cfg.tracer.as_ref().map(|t| t.span(&format!("hybrid-update:it{it}"), "update"));
            let report = trainer.step(&shard_grads)?;
            drop(update_span);
            if report.degraded.is_some() {
                degraded_steps += 1;
            }
            if let (0, Some(t), Some(tuner)) = (rank, &cfg.tracer, trainer.tuner()) {
                for d in &tuner.decisions()[before..] {
                    t.control_decision(&d.detail, t.now());
                }
            }

            // All-gather the updated FP16 parameters (the device copies
            // every rank trains the next iteration with).
            let gather_span =
                cfg.tracer.as_ref().map(|t| t.span(&format!("all-gather:it{it}"), "communicate"));
            let shard_fp16: Vec<f32> = report.fp16_params.iter().map(|h| h.to_f32()).collect();
            let mut full = comm.all_gather(&shard_fp16)?;
            full.truncate(model.num_params());
            model.scatter_params(&full);
            drop(gather_span);
        }
        model.zero_grads();

        // Snapshot at update boundaries and write in the background (the
        // DataStates-style asynchronous flush the host-resident state
        // enables, §2). Checkpoints are world-size independent: every rank
        // contributes its optimizer shard to a full-state gather (elastic
        // recovery may reload at a smaller world), then rank 0 assembles
        // and persists. The capture is an owned copy, so training
        // continues immediately.
        if cfg.checkpoint_dir.is_some() && (it + 1).is_multiple_of(cfg.checkpoint_every.max(1)) {
            let shard = trainer.state();
            let mut p = comm.all_gather_var(shard.params())?;
            let mut m = comm.all_gather_var(shard.momentum())?;
            let mut v = comm.all_gather_var(shard.variance())?;
            if let Some(store) = &store {
                let n = model.num_params();
                p.truncate(n);
                m.truncate(n);
                v.truncate(n);
                let full = MixedPrecisionState::from_parts(
                    p,
                    m,
                    v,
                    shard.rule(),
                    shard.lr(),
                    shard.step_count(),
                );
                let snapshot = TrainingCheckpoint {
                    params: model.gather_params(),
                    optimizer: full,
                    iteration: it + 1,
                };
                checkpointer.save_async_in(snapshot, store)?;
            }
        }

        // Average the loss across ranks for reporting.
        let mut l = vec![loss];
        comm.all_reduce_sum(&mut l)?;
        losses.push(l[0] * (1.0 / world as f32));
    }
    checkpointer.drain()?;
    let finals = model.gather_params();
    // In deadline mode a fast rank must linger to serve retransmissions of
    // its final contributions before its endpoint vanishes (no-op in
    // blocking mode).
    comm.shutdown(cfg.collective_timeout.unwrap_or(Duration::ZERO));
    Ok((losses, finals, degraded_steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_core::StridePolicy;
    use dos_tensor::F16;

    fn toy_dataset(seq: usize) -> TokenDataset {
        // A predictable cyclic token stream the tiny model can learn.
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
        TokenDataset::from_stream(&stream, seq)
    }

    #[test]
    fn loss_decreases_and_ranks_stay_consistent() {
        let cfg = FunctionalConfig::small();
        let ds = toy_dataset(8);
        let report = train_functional(&cfg, &ds, 12).unwrap();
        assert_eq!(report.losses.len(), 12);
        assert!(report.ranks_consistent, "ranks diverged");
        let first: f32 = report.losses[..3].iter().sum::<f32>() / 3.0;
        let last: f32 = report.losses[9..].iter().sum::<f32>() / 3.0;
        assert!(last < first * 0.9, "loss did not improve: {first} -> {last}");
    }

    #[test]
    fn monitor_listen_serves_without_perturbing_numerics() {
        let ds = toy_dataset(8);
        let plain = train_functional(&FunctionalConfig::small(), &ds, 4).unwrap();
        assert!(plain.monitor_addr.is_none());

        let mut cfg = FunctionalConfig::small();
        cfg.monitor_listen = Some("127.0.0.1:0".to_string());
        let monitored = train_functional(&cfg, &ds, 4).unwrap();
        let addr = monitored.monitor_addr.expect("endpoint was bound");
        assert!(addr.parse::<std::net::SocketAddr>().is_ok(), "bad addr {addr}");
        assert_eq!(plain.losses, monitored.losses, "monitoring must be observational");
        assert_eq!(plain.final_params, monitored.final_params);
        // The server shuts down with the run: the port no longer accepts.
        assert!(dos_telemetry::http_get(addr.as_str(), "/metrics").is_err());
    }

    #[test]
    fn interleaving_matches_cpu_only_training_exactly() {
        let ds = toy_dataset(8);
        let mut cpu_cfg = FunctionalConfig::small();
        cpu_cfg.pipeline.stride = StridePolicy::CpuOnly;
        let mut hybrid_cfg = FunctionalConfig::small();
        hybrid_cfg.pipeline.stride = StridePolicy::Fixed(2);
        let cpu = train_functional(&cpu_cfg, &ds, 6).unwrap();
        let hybrid = train_functional(&hybrid_cfg, &ds, 6).unwrap();
        // The paper's consistency claim end-to-end: interleaved offloading
        // does not change training at all.
        assert_eq!(cpu.losses, hybrid.losses);
        assert_eq!(cpu.final_params, hybrid.final_params);
    }

    #[test]
    fn world_sizes_agree_on_the_math() {
        // Different DP degrees shard differently but compute the same
        // global batch only when batch partitioning matches; here we just
        // check determinism per world size and consistency within it.
        let ds = toy_dataset(8);
        for world in [1, 3] {
            let mut cfg = FunctionalConfig::small();
            cfg.world = world;
            let a = train_functional(&cfg, &ds, 4).unwrap();
            let b = train_functional(&cfg, &ds, 4).unwrap();
            assert_eq!(a.losses, b.losses, "world {world} not deterministic");
            assert!(a.ranks_consistent);
        }
    }

    #[test]
    fn traced_training_is_observational_only() {
        let ds = toy_dataset(8);
        let plain = train_functional(&FunctionalConfig::small(), &ds, 4).unwrap();

        let tracer = dos_telemetry::Tracer::new();
        let mut cfg = FunctionalConfig::small();
        cfg.pipeline.stride = StridePolicy::Fixed(2);
        cfg.tracer = Some(tracer.clone());
        let mut plain_cfg = FunctionalConfig::small();
        plain_cfg.pipeline.stride = StridePolicy::Fixed(2);
        let reference = train_functional(&plain_cfg, &ds, 4).unwrap();
        let traced = train_functional(&cfg, &ds, 4).unwrap();

        // Tracing never perturbs the math (and interleaving matches plain
        // training, so the untraced default agrees too).
        assert_eq!(traced.losses, reference.losses);
        assert_eq!(traced.final_params, reference.final_params);
        assert_eq!(traced.losses, plain.losses);

        // Every rank thread has its own track, and the hybrid pipeline
        // recorded wall-clock prefetch/update/flush spans on the shared
        // cpu / device-worker tracks.
        let tracks = tracer.tracks();
        assert!(tracks.iter().any(|t| t == "rank0"), "{tracks:?}");
        assert!(tracks.iter().any(|t| t == "rank1"), "{tracks:?}");
        assert!(tracks.iter().any(|t| t == "cpu"), "{tracks:?}");
        assert!(tracks.iter().any(|t| t == "device-worker"), "{tracks:?}");
        let events = tracer.events();
        let count = |track: &str, prefix: &str| {
            events.iter().filter(|e| e.track == track && e.name.starts_with(prefix)).count()
        };
        // 2 ranks x 4 iterations of phase spans on the rank tracks.
        for rank in ["rank0", "rank1"] {
            assert_eq!(count(rank, "fwd-bwd:it"), 4);
            assert_eq!(count(rank, "grad-exchange:it"), 4);
            assert_eq!(count(rank, "hybrid-update:it"), 4);
            assert_eq!(count(rank, "all-gather:it"), 4);
        }
        assert!(count("cpu", "prefetch:sg") > 0);
        assert!(count("device-worker", "update:sg") > 0);
        assert!(count("device-worker", "flush:sg") > 0);
        // Wall-clock spans: durations are non-negative and the trace ends
        // after it starts.
        assert!(events.iter().all(|e| e.dur >= 0.0));
        let tl = tracer.to_timeline();
        assert!(tl.end_time() > 0.0);
    }

    #[test]
    fn adaptive_stride_trains_identically_to_fixed() {
        let ds = toy_dataset(8);
        let mut fixed_cfg = FunctionalConfig::small();
        fixed_cfg.pipeline.stride = StridePolicy::Fixed(2);
        let mut adaptive_cfg = FunctionalConfig::small();
        adaptive_cfg.pipeline.stride = StridePolicy::Adaptive;
        let fixed = train_functional(&fixed_cfg, &ds, 6).unwrap();
        let adaptive = train_functional(&adaptive_cfg, &ds, 6).unwrap();
        // The tuner may move the stride mid-run; §4.1 says the numerics
        // never notice, so adaptive training is bitwise identical to any
        // fixed stride (the tuner seeds at k = 2 and changes only the
        // schedule, never the math).
        assert_eq!(fixed.losses, adaptive.losses);
        assert_eq!(fixed.final_params, adaptive.final_params);
        assert!(adaptive.ranks_consistent);
    }

    #[test]
    fn adaptive_stride_with_shared_tracer_records_pipeline_spans() {
        let ds = toy_dataset(8);
        let tracer = dos_telemetry::Tracer::new();
        let mut cfg = FunctionalConfig::small();
        cfg.world = 1;
        cfg.pipeline.stride = StridePolicy::Adaptive;
        cfg.tracer = Some(tracer.clone());
        let report = train_functional(&cfg, &ds, 4).unwrap();
        assert_eq!(report.losses.len(), 4);
        // The tuner reads the same spans any traced run records; they must
        // still be present (observation does not consume them).
        let events = tracer.events();
        assert!(events.iter().any(|e| e.name.starts_with("update:sg")));
        assert!(events.iter().any(|e| e.name.starts_with("hybrid-update:it")));
    }

    #[test]
    fn headroom_tuner_shrinks_residents_without_changing_numerics() {
        use dos_control::ResidentPolicy;
        let ds = toy_dataset(8);
        let mut base = FunctionalConfig::small();
        base.world = 1;
        base.subgroup_size = 512;
        base.pipeline.stride = StridePolicy::Fixed(2);
        base.pipeline.static_residents = 4;
        let reference = train_functional(&base, &ds, 5).unwrap();

        // Hopeless staging budget: every iteration's arena high-water
        // overshoots it, so the headroom policy must shrink the resident
        // tail — visibly, via control instants — while the training math
        // stays bitwise identical (§4.1: scheduling never moves numerics).
        let tracer = dos_telemetry::Tracer::new();
        let mut constrained = base.clone();
        constrained.pipeline.stride = StridePolicy::Adaptive;
        constrained.tuner = WallClockTunerConfig {
            residents: ResidentPolicy::Headroom { fraction: 1.0, cap: 0.5 },
            host_budget_bytes: 1,
            ..WallClockTunerConfig::default()
        };
        constrained.tracer = Some(tracer.clone());
        let run = train_functional(&constrained, &ds, 5).unwrap();
        assert_eq!(run.losses, reference.losses);
        assert_eq!(run.final_params, reference.final_params);
        let names: Vec<String> =
            tracer.control_instants().iter().map(|ev| ev.name.clone()).collect();
        assert!(
            names.iter().any(|n| n.contains("residents 4->")),
            "expected a resident-shrink decision, saw {names:?}"
        );
    }

    #[test]
    fn traced_training_exports_arena_gauges() {
        let ds = toy_dataset(8);
        let tracer = dos_telemetry::Tracer::new();
        let mut cfg = FunctionalConfig::small();
        cfg.tracer = Some(tracer.clone());
        train_functional(&cfg, &ds, 3).unwrap();
        let m = tracer.metrics();
        assert_eq!(m.gauge("arena.in_use_bytes"), Some(0.0), "all leases returned");
        assert!(m.gauge("arena.high_water_bytes").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn final_params_are_fp16_representable() {
        let cfg = FunctionalConfig::small();
        let ds = toy_dataset(8);
        let report = train_functional(&cfg, &ds, 3).unwrap();
        for &p in report.final_params.iter().take(500) {
            assert_eq!(p, F16::from_f32(p).to_f32(), "param {p} not a device fp16 value");
        }
    }
}

#[cfg(test)]
mod schedule_tests {
    use super::*;
    use dos_optim::LrSchedule;

    fn toy_dataset(seq: usize) -> TokenDataset {
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
        TokenDataset::from_stream(&stream, seq)
    }

    #[test]
    fn warmup_schedule_trains() {
        let mut cfg = FunctionalConfig::small();
        cfg.lr_schedule = Some(LrSchedule::WarmupCosine {
            peak: 8e-3,
            warmup_steps: 3,
            total_steps: 12,
            min_factor: 0.1,
        });
        let ds = toy_dataset(8);
        let r = train_functional(&cfg, &ds, 12).unwrap();
        assert!(r.ranks_consistent);
        assert!(r.losses[11] < r.losses[0], "{:?}", r.losses);
    }

    #[test]
    fn clipping_changes_but_does_not_break_training() {
        let ds = toy_dataset(8);
        let mut clipped = FunctionalConfig::small();
        clipped.grad_clip = Some(0.5);
        let plain = train_functional(&FunctionalConfig::small(), &ds, 8).unwrap();
        let capped = train_functional(&clipped, &ds, 8).unwrap();
        assert!(capped.ranks_consistent);
        assert_ne!(plain.losses, capped.losses, "a 0.5 clip should bind early");
        assert!(capped.losses[7] < capped.losses[0]);
    }

    #[test]
    fn checkpointed_training_is_bitwise_identical() {
        let ds = toy_dataset(8);
        let mut ckpt = FunctionalConfig::small();
        ckpt.activation_checkpointing = true;
        let plain = train_functional(&FunctionalConfig::small(), &ds, 5).unwrap();
        let recomputed = train_functional(&ckpt, &ds, 5).unwrap();
        assert_eq!(plain.losses, recomputed.losses);
        assert_eq!(plain.final_params, recomputed.final_params);
    }
}

#[cfg(test)]
mod loss_scaling_tests {
    use super::*;

    fn toy_dataset(seq: usize) -> TokenDataset {
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
        TokenDataset::from_stream(&stream, seq)
    }

    #[test]
    fn loss_scaled_training_matches_unscaled() {
        // Power-of-two scales are exact in f32, so the trajectories agree
        // bitwise when nothing overflows.
        let ds = toy_dataset(8);
        let plain = train_functional(&FunctionalConfig::small(), &ds, 8).unwrap();
        let mut cfg = FunctionalConfig::small();
        cfg.loss_scale = Some(1024.0);
        let scaled = train_functional(&cfg, &ds, 8).unwrap();
        assert_eq!(plain.losses, scaled.losses);
        assert_eq!(plain.final_params, scaled.final_params);
        assert!(scaled.ranks_consistent);
    }

    #[test]
    fn overflowed_steps_are_skipped_on_every_rank() {
        // A huge learning rate blows the weights up, so iteration 3's
        // gradients overflow on both ranks: that step must leave the
        // parameters exactly where iteration 2 left them.
        let ds = toy_dataset(8);
        let cfg = FunctionalConfig { loss_scale: Some(1.0), lr: 3e4, ..FunctionalConfig::small() };
        let three = train_functional(&cfg, &ds, 3).unwrap();
        let four = train_functional(&cfg, &ds, 4).unwrap();
        assert!(!four.losses[3].is_finite(), "iteration 3 must overflow: {:?}", four.losses);
        assert!(four.ranks_consistent);
        assert_eq!(
            three.final_params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            four.final_params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "the overflowed step moved the parameters"
        );
    }
}

#[cfg(test)]
mod checkpoint_in_training_tests {
    use super::*;

    fn toy_dataset(seq: usize) -> TokenDataset {
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
        TokenDataset::from_stream(&stream, seq)
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("dos-train-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn training_writes_restorable_checkpoints() {
        let dir = tmp_dir("write");
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.world = 1; // rank 0 owns the full state, so the snapshot is total
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.checkpoint_every = 4;
        let run = train_functional(&cfg, &ds, 8).unwrap();

        // The last snapshot (iteration 8) restores to the final state.
        let store = CheckpointStore::open(&dir, cfg.checkpoint_keep).unwrap();
        let (loaded, path) = store.latest_valid().unwrap();
        assert_eq!(loaded.iteration, 8);
        assert_eq!(path, store.path_for(8));
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = dos_nn::Gpt::new(cfg.model.clone(), &mut rng);
        let state = loaded.restore(&mut model).unwrap();
        // The restored optimizer master params, downscaled to the device
        // copy, match the run's final parameters.
        let device: Vec<f32> =
            state.downscale_range(0..state.len()).iter().map(|h| h.to_f32()).collect();
        assert_eq!(&device[..run.final_params.len()], &run.final_params[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The kill-and-resume invariant: interrupt training after a
    /// checkpoint, resume from the newest valid snapshot, and the final
    /// state is bitwise identical to the uninterrupted run's.
    #[test]
    fn resume_from_checkpoint_is_bitwise_identical() {
        let dir = tmp_dir("resume");
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.world = 1;
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.checkpoint_every = 2;

        let uninterrupted = {
            let mut c = cfg.clone();
            c.checkpoint_dir = None;
            train_functional(&c, &ds, 8).unwrap()
        };

        // "Crash" after 5 iterations (latest checkpoint is at iteration 4).
        train_functional(&cfg, &ds, 5).unwrap();
        let store = CheckpointStore::open(&dir, cfg.checkpoint_keep).unwrap();
        let (ckpt, _) = store.latest_valid().unwrap();
        assert_eq!(ckpt.iteration, 4);

        // Resume and run the remaining 4 iterations (4 done + 4 = 8).
        let mut resumed_cfg = cfg.clone();
        resumed_cfg.resume = Some(ckpt);
        let resumed = train_functional(&resumed_cfg, &ds, 4).unwrap();

        assert_eq!(resumed.final_params, uninterrupted.final_params);
        assert_eq!(
            resumed.losses[..],
            uninterrupted.losses[4..],
            "resumed losses must continue the uninterrupted trajectory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoints hold the full gathered optimizer state, so a multi-rank
    /// world resumes from a multi-rank run's snapshot bitwise-exactly.
    #[test]
    fn resume_with_multiple_ranks_matches_uninterrupted() {
        let dir = tmp_dir("multiworld-resume");
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.world = 2;
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.checkpoint_every = 2;

        let uninterrupted = {
            let mut c = cfg.clone();
            c.checkpoint_dir = None;
            train_functional(&c, &ds, 8).unwrap()
        };

        // "Crash" after 5 iterations (latest checkpoint is at iteration 4).
        train_functional(&cfg, &ds, 5).unwrap();
        let store = CheckpointStore::open(&dir, cfg.checkpoint_keep).unwrap();
        let (ckpt, _) = store.latest_valid().unwrap();
        assert_eq!(ckpt.iteration, 4);

        let mut resumed_cfg = cfg.clone();
        resumed_cfg.resume = Some(ckpt);
        let resumed = train_functional(&resumed_cfg, &ds, 4).unwrap();

        assert!(resumed.ranks_consistent);
        assert_eq!(resumed.final_params, uninterrupted.final_params);
        assert_eq!(
            resumed.losses[..],
            uninterrupted.losses[4..],
            "resumed losses must continue the uninterrupted trajectory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod degraded_training_tests {
    use super::*;
    use dos_core::DeviceFault;

    fn toy_dataset(seq: usize) -> TokenDataset {
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
        TokenDataset::from_stream(&stream, seq)
    }

    /// A device worker dying every single step still trains byte-for-byte
    /// like a healthy run — the end-to-end §4.1 claim under faults.
    #[test]
    fn worker_faults_do_not_change_training() {
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.world = 1;
        cfg.subgroup_size = 512; // enough subgroups for the device path
        let healthy = train_functional(&cfg, &ds, 5).unwrap();
        assert_eq!(healthy.degraded_steps, 0);

        for fault in [DeviceFault::PanicAfter(1), DeviceFault::DisconnectAfter(0)] {
            let mut faulty = cfg.clone();
            faulty.pipeline.fault_injection = Some(fault);
            let run = train_functional(&faulty, &ds, 5).unwrap();
            assert_eq!(run.losses, healthy.losses, "{fault:?} changed the losses");
            assert_eq!(run.final_params, healthy.final_params, "{fault:?} changed the params");
            assert_eq!(run.degraded_steps, 5, "{fault:?} should degrade every step");
        }
    }
}

#[cfg(test)]
mod elastic_tests {
    use super::*;
    use dos_collectives::{DisconnectPoint, DisconnectRule};
    use std::time::Instant;

    fn toy_dataset(seq: usize) -> TokenDataset {
        let stream: Vec<usize> = (0..2000).map(|i| (i * 7 + 3) % 61).collect();
        TokenDataset::from_stream(&stream, seq)
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("dos-train-elastic-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Satellite 3, detection half: a rank dies *inside* a collective at a
    /// seeded point; under the Error policy the survivors surface a typed
    /// failure within the deadline — they never hang.
    #[test]
    fn killing_a_rank_mid_collective_is_a_typed_error_within_the_deadline() {
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.world = 3;
        cfg.collective_timeout = Some(Duration::from_millis(500));
        cfg.transport_faults = Some(TransportFaultPlan {
            disconnects: vec![DisconnectRule { rank: 1, at: DisconnectPoint::Epoch(2) }],
            ..TransportFaultPlan::none(7)
        });
        let started = Instant::now();
        match train_functional(&cfg, &ds, 4) {
            Err(TrainError::Collective(
                CollectiveError::RankFailed { .. } | CollectiveError::Timeout { .. },
            )) => {}
            other => panic!("expected a rank-failure error, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "failure detection must be deadline-bounded, took {:?}",
            started.elapsed()
        );
    }

    /// Satellite 3, recovery half: under the Elastic policy a permanent
    /// rank disconnect shrinks the world and training continues from the
    /// latest checkpoint — bitwise identical to a fresh start from that
    /// same checkpoint at the reduced world size.
    #[test]
    fn elastic_restart_is_bitwise_identical_to_fresh_start_from_checkpoint() {
        let ds = toy_dataset(8);
        let elastic_dir = tmp_dir("evict");
        let baseline_dir = tmp_dir("baseline");

        let tracer = dos_telemetry::Tracer::new();
        let mut cfg = FunctionalConfig::small();
        cfg.world = 2;
        cfg.checkpoint_dir = Some(elastic_dir.clone());
        cfg.checkpoint_every = 2;
        cfg.collective_timeout = Some(Duration::from_secs(2));
        cfg.on_rank_failure = RankFailurePolicy::Elastic;
        cfg.transport_faults = Some(TransportFaultPlan {
            disconnects: vec![DisconnectRule { rank: 1, at: DisconnectPoint::Epoch(3) }],
            ..TransportFaultPlan::none(11)
        });
        cfg.tracer = Some(tracer.clone());
        let elastic = train_functional(&cfg, &ds, 6).unwrap();
        assert_eq!(elastic.recoveries, 1, "exactly one eviction");
        assert_eq!(elastic.final_world, 1, "world shrank by the dead rank");
        let names: Vec<String> = tracer.events().into_iter().map(|e| e.name).collect();
        assert!(names.iter().any(|n| n == "fault:collective:evict"), "{names:?}");
        assert!(names.iter().any(|n| n == "health:degraded"), "{names:?}");

        // Baseline: the same trajectory up to the checkpoint the elastic
        // run rewound to (iteration 2, before the epoch-3 disconnect), then
        // a fresh resume at the reduced world with a clean transport.
        let mut pre = FunctionalConfig::small();
        pre.world = 2;
        pre.checkpoint_dir = Some(baseline_dir.clone());
        pre.checkpoint_every = 2;
        train_functional(&pre, &ds, 2).unwrap();
        let (ckpt, _) = CheckpointStore::open(&baseline_dir, pre.checkpoint_keep)
            .unwrap()
            .latest_valid()
            .unwrap();
        assert_eq!(ckpt.iteration, 2);
        let mut fresh = FunctionalConfig::small();
        fresh.world = 1;
        fresh.resume = Some(ckpt);
        let baseline = train_functional(&fresh, &ds, 4).unwrap();

        assert_eq!(
            elastic.final_params, baseline.final_params,
            "elastic continuation must match a fresh reduced-world resume bitwise"
        );
        assert_eq!(elastic.losses, baseline.losses);
        let _ = std::fs::remove_dir_all(&elastic_dir);
        let _ = std::fs::remove_dir_all(&baseline_dir);
    }

    /// The UDS backend speaks the real wire protocol (length-prefixed
    /// checksummed frames over sockets) yet must be numerically invisible:
    /// the same run over `inproc` and `uds` is bitwise identical.
    #[cfg(unix)]
    #[test]
    fn uds_transport_matches_inproc_bitwise() {
        let ds = toy_dataset(8);
        let mut cfg = FunctionalConfig::small();
        cfg.world = 2;
        let reference = train_functional(&cfg, &ds, 3).unwrap();

        let dir = tmp_dir("uds");
        let mut uds = cfg.clone();
        uds.transport = TransportBackend::Uds(dir.clone());
        uds.collective_timeout = Some(Duration::from_secs(10));
        let run = train_functional(&uds, &ds, 3).unwrap();
        assert!(run.ranks_consistent);
        assert_eq!(run.losses, reference.losses, "losses diverged over UDS");
        assert_eq!(run.final_params, reference.final_params, "params diverged over UDS");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The JSON `"collectives"` entry maps onto the run config — and its
    /// validation failures surface instead of silently defaulting.
    #[test]
    fn collectives_entry_applies_to_the_run_config() {
        let entry: dos_train::CollectivesEntry = serde_json::from_str(
            r#"{ "collective_timeout_ms": 1500, "on_rank_failure": "elastic" }"#,
        )
        .unwrap();
        let mut cfg = FunctionalConfig::small();
        cfg.apply_collectives(&entry).unwrap();
        assert_eq!(cfg.transport, TransportBackend::InProc);
        assert_eq!(cfg.collective_timeout, Some(Duration::from_millis(1500)));
        assert_eq!(cfg.on_rank_failure, RankFailurePolicy::Elastic);

        let entry: dos_train::CollectivesEntry = serde_json::from_str(
            r#"{ "transport": "uds", "socket_dir": "/tmp/dos-uds-mesh" }"#,
        )
        .unwrap();
        let mut cfg = FunctionalConfig::small();
        cfg.apply_collectives(&entry).unwrap();
        assert_eq!(cfg.transport, TransportBackend::Uds("/tmp/dos-uds-mesh".into()));
        assert_eq!(cfg.on_rank_failure, RankFailurePolicy::Error);

        let entry: dos_train::CollectivesEntry =
            serde_json::from_str(r#"{ "transport": "uds" }"#).unwrap();
        assert!(FunctionalConfig::small().apply_collectives(&entry).is_err());
    }

    /// Acceptance: DP=4 training under a pinned seeded plan of drops and
    /// delays is bitwise identical to the fault-free run — retransmission
    /// is sequence-numbered and idempotent all the way up the stack.
    #[test]
    fn dp4_training_under_lossy_transport_is_bitwise_identical() {
        let ds = toy_dataset(8);
        let mut clean = FunctionalConfig::small();
        clean.world = 4;
        let reference = train_functional(&clean, &ds, 4).unwrap();

        let tracer = dos_telemetry::Tracer::new();
        let mut lossy = clean.clone();
        lossy.collective_timeout = Some(Duration::from_secs(30));
        lossy.transport_faults = Some(TransportFaultPlan {
            drop_p: 0.05,
            delay_ticks: Some((1, 3)),
            ..TransportFaultPlan::none(7)
        });
        lossy.tracer = Some(tracer.clone());
        let run = train_functional(&lossy, &ds, 4).unwrap();
        assert_eq!(run.recoveries, 0);
        assert!(run.ranks_consistent);
        assert_eq!(run.losses, reference.losses, "losses diverged under loss");
        assert_eq!(run.final_params, reference.final_params, "params diverged under loss");
        // The plan actually fired: injected faults are visible as
        // fault:collective:* instants (flight-recorder bait).
        assert!(
            tracer.events().iter().any(|e| e.name.starts_with("fault:collective:")),
            "expected injected-fault instants in the trace"
        );
    }
}

#[cfg(test)]
mod evaluate_tests {
    use super::*;

    #[test]
    fn training_improves_heldout_perplexity() {
        let stream: Vec<usize> = (0..3000).map(|i| (i * 7 + 3) % 61).collect();
        let full = TokenDataset::from_stream(&stream, 8);
        let (train, valid) = full.split(0.2);
        let cfg = FunctionalConfig::small();
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = dos_nn::Gpt::new(cfg.model.clone(), &mut rng);
        let (_, ppl_before) = evaluate(&mut model, &valid);

        let report = train_functional(&cfg, &train, 15).unwrap();
        model.scatter_params(&report.final_params);
        let (loss_after, ppl_after) = evaluate(&mut model, &valid);
        assert!(
            ppl_after < ppl_before,
            "held-out perplexity should improve: {ppl_before} -> {ppl_after}"
        );
        assert!((loss_after.exp() - ppl_after).abs() < 1e-3);
    }
}
