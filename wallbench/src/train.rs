//! The two training workloads on one data pipeline: a seeded synthetic
//! corpus, a BPE tokenizer trained on it, and 64-token sequences packed
//! from it, feeding a GPT of about 1M parameters (dim 128, 4 layers).
//!
//! Both run closed-loop *episodes*: an episode trains a freshly seeded
//! model for a fixed number of steps (the fixed token budget), so the
//! held-out loss after it is a pure function of the seed. Every episode of
//! a run must end bitwise where the first one did; `tokens_per_s` is the
//! median over episodes.

use std::time::Instant;

use dos_core::{hybrid_update_pooled, zenflow_reference, ArenaPool};
use dos_data::{BpeTokenizer, Corpus, DataLoader, TokenDataset};
use dos_nn::{Gpt, GptConfig, VisitParams};
use dos_optim::MixedPrecisionState;
use dos_runtime::{evaluate, train_functional, FunctionalConfig, FunctionalReport};
use dos_telemetry::{TraceEvent, Tracer};
use dos_tensor::kernels;
use dos_train::Trainer;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{kernel_probes, sim_predictions};
use crate::stats::{mean, median, quantile, Clock};
use crate::{peak_rss_mb, Outcome};

const SEQ: usize = 64;
const GLOBAL_BATCH: usize = 8;
/// Tokens of one global batch.
pub const TOKENS_PER_STEP: usize = GLOBAL_BATCH * SEQ;
const VOCAB: usize = 512;
const TRAIN_RECORDS: usize = 200;
const HELD_OUT_RECORDS: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Seed offset of the held-out corpus, so it never overlaps the training one.
const HELD_OUT_SEED: u64 = 0x4845_4C44;

/// Data-parallel iterations per `train-dp2` episode.
const DP2_ITERS: usize = 8;
/// Single-worker steps per `train-zenflow` episode.
const ZENFLOW_STEPS: usize = 4;
/// Steps of the ZenFlow verification window.
const VERIFY_STEPS: usize = 3;
/// ZenFlow subgroup size: ~933K parameters in 15 subgroups.
const ZENFLOW_SUBGROUP: usize = 65536;
/// Adam learning rate. At 5e-3 the held-out loss of some seeds blows up
/// within the token budget (seed 2 of `train-dp2`: 9.14 nats).
const LR: f32 = 2e-3;

/// The packed data one set-up produces.
struct Data {
    train: TokenDataset,
    held_out: TokenDataset,
    model: GptConfig,
}

/// The benchmark's own inputs: the training and held-out corpora.
fn corpora(seed: u64) -> (Corpus, Corpus) {
    (
        Corpus::synthetic(seed, TRAIN_RECORDS),
        Corpus::synthetic(seed ^ HELD_OUT_SEED, HELD_OUT_RECORDS),
    )
}

/// Tokenizer training and packing (part of set-up); returns the data and
/// the seconds spent training the tokenizer.
fn prepare(train: &Corpus, held_out: &Corpus) -> (Data, f64) {
    let t = Instant::now();
    let tokenizer = BpeTokenizer::train(&train.joined_text(), VOCAB);
    let tokenizer_s = t.elapsed().as_secs_f64();
    let data = Data {
        train: TokenDataset::pack(train, &tokenizer, SEQ),
        held_out: TokenDataset::pack(held_out, &tokenizer, SEQ),
        model: GptConfig {
            vocab_size: tokenizer.vocab_size(),
            max_seq: SEQ,
            dim: 128,
            num_layers: 4,
            num_heads: 4,
            init_std: 0.02,
        },
    };
    (data, tokenizer_s)
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Held-out loss of `params` loaded into a model of `data`'s shape.
fn held_out_loss(data: &Data, seed: u64, params: &[f32]) -> f64 {
    let mut model = Gpt::new(data.model.clone(), &mut StdRng::seed_from_u64(seed));
    model.scatter_params(params);
    evaluate(&mut model, &data.held_out).0 as f64
}

// ---------------------------------------------------------------- train-dp2

fn dp2_config(data: &Data, seed: u64) -> FunctionalConfig {
    FunctionalConfig {
        model: data.model.clone(),
        world: 2,
        micro_batch: GLOBAL_BATCH / 2,
        lr: LR,
        seed,
        ..FunctionalConfig::small()
    }
}

/// Checks one `train_functional` result; returns whether it is healthy.
fn dp2_healthy(r: &Result<FunctionalReport, dos_runtime::TrainError>) -> bool {
    r.as_ref().is_ok_and(|r| {
        r.ranks_consistent
            && r.degraded_steps == 0
            && r.recoveries == 0
            && r.final_world == 2
            && r.losses.iter().all(|l| l.is_finite())
    })
}

/// Runs one episode and folds it into `out`: each iteration counts as a
/// step, failed when the episode errs or is unhealthy.
fn dp2_episode(
    cfg: &FunctionalConfig,
    data: &Data,
    iters: usize,
    clock: &mut Clock,
    episode: u64,
    out: &mut Outcome,
) -> (Option<FunctionalReport>, f64) {
    let (r, secs) =
        clock.time("train_functional", episode, None, || train_functional(cfg, &data.train, iters));
    let ok = dp2_healthy(&r);
    for _ in 0..iters {
        out.step(ok);
    }
    (r.ok().filter(|_| ok), secs)
}

fn dp2_set_up(seed: u64, out: &mut Outcome) -> (Data, Vec<f64>, Vec<f64>) {
    let (train_corpus, held_corpus) = corpora(seed);
    let mut setups = Vec::new();
    let mut tokenizer = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (data, tok_s) = prepare(&train_corpus, &held_corpus);
        dp2_episode(&dp2_config(&data, seed), &data, 1, &mut Clock::new(false), 0, out);
        setups.push(t.elapsed().as_secs_f64());
        tokenizer.push(tok_s);
        kept = Some(data);
    }
    (kept.expect("SETUPS > 0"), setups, tokenizer)
}

/// Output checks of one episode against the run's first one.
struct Reference {
    params: Option<Vec<f32>>,
    eval_loss: f64,
    diverged: usize,
}

impl Reference {
    fn new() -> Reference {
        Reference { params: None, eval_loss: 0.0, diverged: 0 }
    }

    /// Folds in one episode's final parameters (None when it failed);
    /// the first one fixes the reference and its held-out loss.
    fn observe(&mut self, params: Option<&[f32]>, eval: impl FnOnce(&[f32]) -> f64) {
        let Some(p) = params else { return };
        match &self.params {
            None => {
                self.eval_loss = eval(p);
                self.params = Some(p.to_vec());
            }
            Some(first) if !bits_eq(first, p) => self.diverged += 1,
            Some(_) => {}
        }
    }
}

/// The episodes of one round: untraced only, or (traced run) a pair of an
/// untraced and a traced one, alternating which goes first so that drift
/// cancels within pairs.
fn arms(traced: bool, pair: usize) -> &'static [bool] {
    match (traced, pair % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        (true, _) => &[true, false],
    }
}

pub fn run_dp2(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (data, setups, tokenizer) = dp2_set_up(seed, &mut out);
    let cfg = dp2_config(&data, seed);
    let mut reference = Reference::new();
    let mut episode_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut traces: Vec<Tracer> = Vec::new();
    let mut clock = Clock::new(traced);
    let start = Instant::now();
    let mut pair = 0usize;
    while episode_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        for &with_trace in arms(traced, pair) {
            let mut c = cfg.clone();
            if with_trace {
                c.tracer = Some(Tracer::new());
            }
            let episode = (episode_s.len() + traced_s.len()) as u64;
            let (r, secs) = dp2_episode(&c, &data, DP2_ITERS, &mut clock, episode, &mut out);
            reference.observe(r.as_ref().map(|r| r.final_params.as_slice()), |p| {
                held_out_loss(&data, seed, p)
            });
            match c.tracer {
                Some(tracer) => {
                    traced_s.push(secs);
                    traces.push(tracer);
                }
                None => episode_s.push(secs),
            }
        }
        pair += 1;
    }
    let peak = peak_rss_mb()?;
    out.check(
        "train-dp2: every episode healthy (ranks_consistent, 0 degraded_steps, 0 recoveries)",
        out.failed == 0,
    );
    out.check(
        format!(
            "train-dp2: {} episodes bitwise identical to the first",
            episode_s.len() + traced_s.len()
        ),
        reference.params.is_some() && reference.diverged == 0,
    );

    if !traced {
        let episode = median(&episode_s);
        let params = reference.params.as_ref().map_or(0, Vec::len) as f64;
        out.metric("update_pps", params * DP2_ITERS as f64 / episode, "params/s");
        out.metric("tokens_per_s", (TOKENS_PER_STEP * DP2_ITERS) as f64 / episode, "tokens/s");
        out.metric("eval_loss", reference.eval_loss, "nats");
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mb", peak, "MiB");
        return Ok(out);
    }

    let params = reference.params.as_ref().map_or(0, Vec::len);
    dp2_layers(&mut out, &traces, &data, seed, params)?;
    let ratios: Vec<f64> = traced_s.iter().zip(&episode_s).map(|(t, u)| t / u).collect();
    out.metric("bench.trace_overhead_frac", median(&ratios) - 1.0, "ratio");
    out.metric("train.setup_s", median(&setups), "s");
    out.metric("data.tokenizer_s", median(&tokenizer), "s");
    out.metrics.extend(kernel_probes(cfg.subgroup_size, 1.0));
    out.metrics.extend(sim_predictions()?);
    out.spans = clock.summary();
    Ok(out)
}

/// The rank-track spans whose names start with `prefix`.
fn rank_spans<'a>(
    events: &'a [TraceEvent],
    prefix: &'a str,
) -> impl Iterator<Item = &'a TraceEvent> {
    events.iter().filter(move |e| e.track.starts_with("rank") && e.name.starts_with(prefix))
}

/// The layers `train_functional` enters, read from the spans and counters
/// it emits into `FunctionalConfig::tracer`, plus probes of the data and
/// parameter-exchange calls the rank loop makes, on the same shapes.
fn dp2_layers(
    out: &mut Outcome,
    traces: &[Tracer],
    data: &Data,
    seed: u64,
    params: usize,
) -> Result<(), String> {
    let mut fwd_bwd = Vec::new();
    let mut update = Vec::new();
    let mut grad_exchange = Vec::new();
    let mut all_gather = Vec::new();
    let mut skew = Vec::new();
    let mut cpu = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut device = [Vec::new(), Vec::new()];
    let mut waits = Vec::new();
    let mut counters = [Vec::new(), Vec::new(), Vec::new()];
    let mut high_water = Vec::new();
    for tracer in traces {
        let events = tracer.events();
        let durs = |prefix: &str| rank_spans(&events, prefix).map(|e| e.dur).collect::<Vec<_>>();
        fwd_bwd.extend(durs("fwd-bwd:"));
        grad_exchange.extend(durs("grad-exchange:"));
        all_gather.extend(durs("all-gather:"));
        let updates = durs("hybrid-update:");
        // The fast rank waits at the gradient exchange for the slow one:
        // per iteration, the spread of the ranks' forward/backward ends.
        for it in 0..DP2_ITERS {
            let name = format!("fwd-bwd:it{it}");
            let ends: Vec<f64> = rank_spans(&events, &name)
                .filter(|e| e.name == name)
                .map(|e| e.start + e.dur)
                .collect();
            if ends.len() == 2 {
                skew.push((ends[0] - ends[1]).abs());
            }
        }
        // Both ranks' pipelines record on the shared `cpu` and
        // `device-worker` tracks: per rank-step means.
        let steps = updates.len().max(1) as f64;
        let sum = |track: &str, prefix: &str| {
            events
                .iter()
                .filter(|e| e.track == track && e.name.starts_with(prefix))
                .map(|e| e.dur)
                .sum::<f64>()
                / steps
        };
        for (i, p) in ["prefetch:", "update:", "downscale:", "flush:"].iter().enumerate() {
            cpu[i].push(sum("cpu", p));
        }
        device[0].push(sum("device-worker", "update:"));
        device[1].push(sum("device-worker", "flush:"));
        waits.push(mean(&updates) - sum("cpu", ""));
        let m = tracer.metrics();
        for (i, name) in ["pipeline.h2d.bytes", "pipeline.d2h.bytes", "pipeline.device_subgroups"]
            .iter()
            .enumerate()
        {
            counters[i].push(m.counter(name) as f64 / steps);
        }
        high_water
            .push(m.gauge(dos_core::arena::GAUGE_HIGH_WATER).unwrap_or(0.0) / (1 << 20) as f64);
        update.extend(updates);
    }
    if fwd_bwd.is_empty() || update.is_empty() {
        return Err("the traced train-dp2 episodes recorded no rank spans".into());
    }
    out.metric("runtime.fwd_bwd_s", median(&fwd_bwd), "s");
    out.metric("nn.fwd_bwd_s_p50", median(&fwd_bwd), "s");
    out.metric("runtime.update_s", median(&update), "s");
    out.metric("core.pipeline.step_s_p50", median(&update), "s");
    out.metric("collectives.grad_exchange_s", median(&grad_exchange), "s");
    out.metric("collectives.all_gather_s", median(&all_gather), "s");
    out.metric("runtime.rank_skew_s", median(&skew), "s");
    for (name, v) in [
        "core.pipeline.cpu.prefetch_s",
        "core.pipeline.cpu.update_s",
        "core.pipeline.cpu.downscale_s",
        "core.pipeline.cpu.flush_s",
    ]
    .iter()
    .zip(&cpu)
    {
        out.metric(name, median(v), "s");
    }
    out.metric("core.pipeline.device.update_s", median(&device[0]), "s");
    out.metric("core.pipeline.device.flush_s", median(&device[1]), "s");
    out.metric("core.pipeline.cpu.wait_s", median(&waits), "s");
    out.metric("core.pipeline.h2d_bytes", median(&counters[0]), "bytes");
    out.metric("core.pipeline.d2h_bytes", median(&counters[1]), "bytes");
    out.metric("core.pipeline.device_subgroups", median(&counters[2]), "count");
    out.metric("core.arena.high_water_mb", median(&high_water), "MiB");

    // Each collective sends every rank's full contribution to each peer:
    // the padded gradient (reduce-scatter), the rank's parameter shard
    // (all-gather) and the loss (all-reduce).
    let world = 2usize;
    let padded = params.div_ceil(world) * world;
    let per_rank = 4 * (padded + padded / world + 1);
    out.metric("collectives.bytes_per_iter", (world * (world - 1) * per_rank) as f64, "bytes");

    // Probes of the calls the rank loop makes that it does not span.
    let mut loader = DataLoader::new(0, world, GLOBAL_BATCH / world, seed ^ 0x5EED);
    let mut clock = Clock::new(false);
    let next: Vec<f64> = (0..64)
        .map(|i| clock.time("data.next_batch", i, None, || loader.next_batch(&data.train)).1)
        .collect();
    out.metric("data.next_batch_s", median(&next), "s");
    let mut model = Gpt::new(data.model.clone(), &mut StdRng::seed_from_u64(seed));
    let params = model.gather_params();
    let exchange: Vec<f64> = (0..16)
        .map(|i| {
            clock
                .time("nn.param_exchange", i, None, || {
                    std::hint::black_box(model.gather_grads());
                    model.scatter_params(&params);
                    model.zero_grads();
                })
                .1
        })
        .collect();
    out.metric("nn.param_exchange_s", median(&exchange), "s");
    Ok(())
}

// ------------------------------------------------------------ train-zenflow

fn zenflow_config(params: usize) -> String {
    format!(
        r#"{{"params": {params}, "subgroup_size": {ZENFLOW_SUBGROUP}, "lr": {LR},
            "scheduler": "zenflow_async", "importance_ratio": 0.1, "staleness_bound": 1,
            "monitor": {{}}}}"#
    )
}

/// A freshly seeded model, its trainer and its data loader.
struct Worker {
    model: Gpt,
    trainer: Trainer,
    loader: DataLoader,
}

impl Worker {
    fn new(data: &Data, seed: u64) -> Result<Worker, String> {
        let mut model = Gpt::new(data.model.clone(), &mut StdRng::seed_from_u64(seed));
        let init = model.gather_params();
        let trainer = Trainer::from_json(&zenflow_config(init.len()), init)
            .map_err(|e| format!("trainer config: {e}"))?;
        Ok(Worker { model, trainer, loader: DataLoader::new(0, 1, GLOBAL_BATCH, seed ^ 0x5EED) })
    }

    /// One closed-loop step through the public calls, each timed (and
    /// recorded as a span under an `iteration` span when tracing).
    /// Returns the gradient fed to the trainer.
    fn step(
        &mut self,
        data: &Data,
        clock: &mut Clock,
        iter: u64,
        out: &mut Outcome,
        zenflow: &mut ZenFlowCounts,
    ) -> Vec<f32> {
        let it = clock.open("iteration", iter, None);
        let parent = it.id();
        let batch =
            clock.time("data.next_batch", iter, parent, || self.loader.next_batch(&data.train)).0;
        let model = &mut self.model;
        let (loss, _) = clock.time("nn.loss_and_backward", iter, parent, || {
            model.loss_and_backward(&batch.inputs, &batch.targets, batch.batch, batch.seq_len)
        });
        let grads = clock.time("nn.gather_grads", iter, parent, || model.gather_grads()).0;
        let trainer = &mut self.trainer;
        let (report, _) = clock.time("train.step", iter, parent, || trainer.step(&grads));
        let ok = match report {
            Ok(r) if r.degraded.is_none() && loss.is_finite() => {
                zenflow.hot.push(r.device_subgroups as f64);
                zenflow.flushed.push(r.cpu_subgroups as f64);
                clock.time("nn.scatter_params", iter, parent, || {
                    let full: Vec<f32> = r.fp16_params.iter().map(|h| h.to_f32()).collect();
                    model.scatter_params(&full);
                    model.zero_grads();
                });
                true
            }
            _ => false,
        };
        out.step(ok);
        clock.close(it);
        grads
    }
}

#[derive(Default)]
struct ZenFlowCounts {
    hot: Vec<f64>,
    flushed: Vec<f64>,
}

/// Master parameters after a drain, rounded through FP16: the device copy
/// the next iteration would train with.
fn settled_params(tr: &Trainer) -> Vec<f32> {
    let mut p = tr.params().to_vec();
    kernels::round_through_f16(&mut p);
    p
}

pub fn run_zenflow(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut counts = ZenFlowCounts::default();
    let (train_corpus, held_corpus) = corpora(seed);
    let mut setups = Vec::new();
    let mut tokenizer = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (data, tok_s) = prepare(&train_corpus, &held_corpus);
        let mut warm = Worker::new(&data, seed)?;
        warm.step(&data, &mut Clock::new(false), 0, &mut out, &mut counts);
        warm.trainer.drain();
        setups.push(t.elapsed().as_secs_f64());
        tokenizer.push(tok_s);
        kept = Some(data);
    }
    let data = kept.expect("SETUPS > 0");
    counts = ZenFlowCounts::default();

    let mut clock = Clock::new(traced);
    let mut reference = Reference::new();
    let mut episode_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut drains = Vec::new();
    let mut telemetry = [Vec::new(), Vec::new()];
    let mut health_events = 0u64;
    let mut iter = 0u64;
    let mut pair = 0usize;
    let start = Instant::now();
    while episode_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        for &with_trace in arms(traced, pair) {
            let mut w = Worker::new(&data, seed)?;
            let mut episode_clock = Clock::new(false);
            let c = if with_trace { &mut clock } else { &mut episode_clock };
            let t = Instant::now();
            for _ in 0..ZENFLOW_STEPS {
                w.step(&data, c, iter, &mut out, &mut counts);
                iter += 1;
            }
            let trainer = &mut w.trainer;
            let drain = c.time("train.drain", iter, None, || trainer.drain()).1;
            let secs = t.elapsed().as_secs_f64();
            if with_trace {
                traced_s.push(secs);
                drains.push(drain);
                let last = w.trainer.last_iteration().ok_or("no monitored iteration")?;
                telemetry[0].push(last.stall_fraction);
                telemetry[1].push(last.overlap_efficiency);
                health_events += w.trainer.health_board().map_or(0, |b| b.snapshot().total_events);
            } else {
                episode_s.push(secs);
            }
            reference.observe(Some(&settled_params(&w.trainer)), |p| held_out_loss(&data, seed, p));
        }
        pair += 1;
    }
    let peak = peak_rss_mb()?;
    out.check(
        format!(
            "train-zenflow: {} episodes bitwise identical to the first",
            episode_s.len() + traced_s.len()
        ),
        reference.params.is_some() && reference.diverged == 0,
    );
    verify_window(&data, seed, &mut out)?;

    if !traced {
        let episode = median(&episode_s);
        let params = reference.params.as_ref().map_or(0, Vec::len) as f64;
        out.metric("update_pps", params * ZENFLOW_STEPS as f64 / episode, "params/s");
        out.metric("tokens_per_s", (TOKENS_PER_STEP * ZENFLOW_STEPS) as f64 / episode, "tokens/s");
        out.metric("eval_loss", reference.eval_loss, "nats");
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mb", peak, "MiB");
        return Ok(out);
    }

    let steps = clock.durations("train.step");
    let exchange = clock.per_iter_sums(&["nn.gather_grads", "nn.scatter_params"]);
    let ratios: Vec<f64> = traced_s.iter().zip(&episode_s).map(|(t, u)| t / u).collect();
    out.metric("nn.fwd_bwd_s_p50", median(&clock.durations("nn.loss_and_backward")), "s");
    out.metric("nn.param_exchange_s", median(&exchange), "s");
    out.metric("data.next_batch_s", median(&clock.durations("data.next_batch")), "s");
    out.metric("data.tokenizer_s", median(&tokenizer), "s");
    out.metric("train.step_s_p50", median(&steps), "s");
    out.metric("train.step_s_p90", quantile(&steps, 0.9), "s");
    out.metric("train.drain_s", median(&drains), "s");
    out.metric("train.setup_s", median(&setups), "s");
    out.metric("train.overhead_s", median(&steps) - hybrid_step_s(&data, seed)?, "s");
    out.metric("core.zenflow.hot_subgroups", mean(&counts.hot), "count");
    out.metric("core.zenflow.flushed_subgroups", mean(&counts.flushed), "count");
    out.metric("telemetry.stall_frac", median(&telemetry[0]), "ratio");
    out.metric("telemetry.overlap_efficiency", median(&telemetry[1]), "ratio");
    out.metric("telemetry.health_events", health_events as f64, "count");
    out.metric("bench.trace_overhead_frac", median(&ratios) - 1.0, "ratio");
    out.metrics.extend(kernel_probes(ZENFLOW_SUBGROUP, 1.0));
    out.metrics.extend(sim_predictions()?);
    out.spans = clock.summary();
    Ok(out)
}

/// The output check: a short window of training steps, drained, must leave
/// the trainer bitwise where `zenflow_reference` lands when fed the same
/// gradients from the same starting state.
fn verify_window(data: &Data, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let mut w = Worker::new(data, seed)?;
    let start = w.trainer.checkpoint().optimizer;
    let mut grads = Vec::new();
    let mut clock = Clock::new(false);
    let mut counts = ZenFlowCounts::default();
    for i in 0..VERIFY_STEPS {
        grads.push(w.step(data, &mut clock, i as u64, out, &mut counts));
    }
    w.trainer.drain();
    let mut expected: MixedPrecisionState = start;
    zenflow_reference(&mut expected, w.trainer.subgroups(), &w.trainer.config().zenflow(), &grads);
    out.check(
        "train-zenflow: drained window == zenflow_reference on the same gradients (bitwise)",
        bits_eq(w.trainer.params(), expected.params())
            && bits_eq(w.trainer.momentum(), expected.momentum())
            && bits_eq(w.trainer.variance(), expected.variance()),
    );
    Ok(())
}

/// Median seconds of `hybrid_update_pooled` (untraced) on the ZenFlow
/// shard's shape, for `train.overhead_s`.
fn hybrid_step_s(data: &Data, seed: u64) -> Result<f64, String> {
    let mut w = Worker::new(data, seed)?;
    let subgroups = w.trainer.subgroups().to_vec();
    let batch = w.loader.next_batch(&data.train);
    w.model.loss_and_backward(&batch.inputs, &batch.targets, batch.batch, batch.seq_len);
    let grads = w.model.gather_grads();
    let mut state =
        MixedPrecisionState::new(w.model.gather_params(), dos_optim::UpdateRule::adam(), LR);
    let pool = ArenaPool::new();
    let cfg = w.trainer.config().pipeline();
    let mut times = Vec::new();
    for _ in 0..16 {
        let t = Instant::now();
        hybrid_update_pooled(&mut state, &grads, &subgroups, cfg, None, &pool)
            .map_err(|e| format!("hybrid_update_pooled: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}
