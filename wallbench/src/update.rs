//! The `update` workload: `Trainer::step` alone on a 32M-parameter shard.
//!
//! The paper's update phase (Fig. 8) with a working set (p, m, v, g: 512
//! MiB) larger than the last-level cache: the kernels, the hybrid pipeline
//! and the staging arena do almost all the work. Scheduler `hybrid`,
//! stride `auto`, one static resident, no monitor. The gradient is the
//! seeded gradient of a quadratic objective `½‖p − t‖²` (a unit-variance
//! Gaussian likelihood of seeded targets `t`) taken at the initial point
//! and fed unchanged every step.

use std::time::Instant;

use dos_core::{hybrid_update_pooled, ArenaPool, PipelineReport};
use dos_optim::MixedPrecisionState;
use dos_telemetry::Tracer;
use dos_tensor::{kernels, F16};
use dos_train::{Trainer, TrainerConfig};

use crate::layers::{kernel_probes, sim_predictions};
use crate::stats::{median, quantile, Clock};
use crate::train::TOKENS_PER_STEP;
use crate::{peak_rss_mb, Outcome};

/// Shard size: 2^25 parameters.
const PARAMS: usize = 32 << 20;
/// Subgroup size: 16 subgroups of 2^21 parameters.
const SUBGROUP: usize = 2 << 20;
/// Optimizer steps taken during set-up, before anything is timed. The
/// `eval_loss` of this workload is read after them.
const WARMUP_STEPS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn config(monitor: bool) -> String {
    format!(
        r#"{{"params": {PARAMS}, "subgroup_size": {SUBGROUP}, "scheduler": "hybrid",
            "static_residents": 1,
            "deep_optimizer_states": {{"enabled": true, "update_stride": "auto"}}{}}}"#,
        if monitor { r#", "monitor": {}"# } else { "" }
    )
}

/// A uniform value in [-1, 1) from a splitmix64 hash of `(seed, i)`.
fn unit(seed: u64, i: u64) -> f32 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

fn initial(seed: u64, i: usize) -> f32 {
    unit(seed, 2 * i as u64)
}

fn target(seed: u64, i: usize) -> f32 {
    0.5 * unit(seed, 2 * i as u64 + 1)
}

fn init_params(seed: u64) -> Vec<f32> {
    (0..PARAMS).map(|i| initial(seed, i)).collect()
}

/// The synthetic objective in nats: the mean negative log-likelihood of
/// the targets under unit-variance Gaussians centred on `p`,
/// `½·mean((p − t)²) + ½·ln(2π)`.
fn objective(seed: u64, p: &[f32]) -> f64 {
    let sum: f64 = p
        .iter()
        .enumerate()
        .map(|(i, &pi)| {
            let d = (pi - target(seed, i)) as f64;
            d * d
        })
        .sum();
    0.5 * sum / p.len() as f64 + 0.5 * (2.0 * std::f64::consts::PI).ln()
}

/// Whether a step returned `Ok` without degrading.
fn healthy<E>(r: &Result<PipelineReport, E>) -> bool {
    r.as_ref().is_ok_and(|r| r.degraded.is_none())
}

/// One counted `Trainer::step`; its FP16 parameters unless it failed.
fn step(tr: &mut Trainer, grads: &[f32], out: &mut Outcome) -> Option<Vec<F16>> {
    let r = tr.step(grads);
    out.step(healthy(&r));
    r.ok().map(|r| r.fp16_params)
}

/// Builds a trainer and takes the warm-up steps `SETUPS` times; returns
/// the last trainer and the median set-up seconds.
fn set_up(seed: u64, grads: &[f32], out: &mut Outcome) -> Result<(Trainer, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let init = init_params(seed);
        let t = Instant::now();
        let mut tr =
            Trainer::from_json(&config(false), init).map_err(|e| format!("trainer config: {e}"))?;
        for _ in 0..WARMUP_STEPS {
            step(&mut tr, grads, out);
        }
        times.push(t.elapsed().as_secs_f64());
        kept = Some(tr);
    }
    Ok((kept.expect("SETUPS > 0"), times))
}

/// The output check: one more step, bitwise equal to
/// `MixedPrecisionState::full_step` then `downscale_reference` on a
/// snapshot of the state it started from.
fn verify_step(tr: &mut Trainer, grads: &[f32], out: &mut Outcome) -> Result<(), String> {
    let cfg: &TrainerConfig = tr.config();
    let rule = cfg.resolve_rule().map_err(|e| format!("rule: {e}"))?;
    let mut snapshot = MixedPrecisionState::from_parts(
        tr.params().to_vec(),
        tr.momentum().to_vec(),
        tr.variance().to_vec(),
        rule,
        cfg.lr,
        tr.steps_taken() as u64,
    );
    let fp16 = step(tr, grads, out);
    snapshot.full_step(grads);
    let mut expected = vec![F16::ZERO; PARAMS];
    kernels::downscale_reference(snapshot.params(), &mut expected);
    let bits = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    let ok = fp16.is_some_and(|h| h == expected)
        && bits(tr.params(), snapshot.params())
        && bits(tr.momentum(), snapshot.momentum())
        && bits(tr.variance(), snapshot.variance());
    out.check("update: last step == full_step + downscale_reference on a snapshot (bitwise)", ok);
    Ok(())
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let grads: Vec<f32> = (0..PARAMS).map(|i| initial(seed, i) - target(seed, i)).collect();
    if traced {
        return run_traced(seed, seconds, &grads);
    }
    let mut out = Outcome::default();
    let (mut tr, setups) = set_up(seed, &grads, &mut out)?;
    let eval_loss = objective(seed, tr.params());

    let mut step_s = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        step(&mut tr, &grads, &mut out);
        step_s.push(t.elapsed().as_secs_f64());
    }
    let peak = peak_rss_mb()?;
    verify_step(&mut tr, &grads, &mut out)?;

    let step = median(&step_s);
    out.metric("update_pps", PARAMS as f64 / step, "params/s");
    // One step stands for an iteration at the train workloads' global
    // batch: the token rate this update phase alone would sustain.
    out.metric("tokens_per_s", TOKENS_PER_STEP as f64 / step, "tokens/s");
    out.metric("eval_loss", eval_loss, "nats");
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak, "MiB");
    Ok(out)
}

/// The traced run, in three phases on the same shape:
/// 1. paired, interleaved A/B of the set-up trainer and a monitored one
///    (`telemetry.flight_overhead_frac`: the median per-pair ratio minus
///    1, unclamped);
/// 2. rounds of three interleaved arms, in rotating order: `Trainer::step`
///    inside a benchmark span, and `hybrid_update_pooled` on a state of the
///    same shape without and with a `Tracer` (the pipeline's stage spans
///    and counters, `train.overhead_s` and `bench.trace_overhead_frac` as
///    medians of per-round differences and ratios);
/// 3. kernel probes on one subgroup and the simulated-clock predictions.
fn run_traced(seed: u64, seconds: f64, grads: &[f32]) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut clock = Clock::new(true);
    let (mut tr, setups) = set_up(seed, grads, &mut out)?;
    let time = |tr: &mut Trainer, out: &mut Outcome| {
        let t = Instant::now();
        step(tr, grads, out);
        t.elapsed().as_secs_f64()
    };

    // Phase 1.
    let mut monitored = Trainer::from_json(&config(true), init_params(seed))
        .map_err(|e| format!("trainer config: {e}"))?;
    let mut ratios = Vec::new();
    let start = Instant::now();
    while ratios.len() < 4 || start.elapsed().as_secs_f64() < 0.35 * seconds {
        // Alternate which arm goes first so drift cancels within pairs.
        let (plain, mon) = if ratios.len().is_multiple_of(2) {
            let plain = time(&mut tr, &mut out);
            (plain, time(&mut monitored, &mut out))
        } else {
            let mon = time(&mut monitored, &mut out);
            (time(&mut tr, &mut out), mon)
        };
        ratios.push(mon / plain);
    }
    let last = monitored.last_iteration().ok_or("monitored trainer reported no iteration")?;
    let health = monitored.health_board().map_or(0, |b| b.snapshot().total_events);
    out.metric("telemetry.flight_overhead_frac", median(&ratios) - 1.0, "ratio");
    out.metric("telemetry.stall_frac", last.stall_fraction, "ratio");
    out.metric("telemetry.overlap_efficiency", last.overlap_efficiency, "ratio");
    out.metric("telemetry.health_events", health as f64, "count");
    drop(monitored);

    // Phase 2.
    let rule = tr.config().resolve_rule().map_err(|e| format!("rule: {e}"))?;
    let mut state = MixedPrecisionState::new(init_params(seed), rule, tr.config().lr);
    let (subgroups, pipeline_cfg) = (tr.subgroups().to_vec(), tr.config().pipeline());
    let pool = ArenaPool::new();
    let tracer = Tracer::new();
    // Maps the tracer's clock onto the benchmark's.
    let offset = clock.now() - tracer.now();
    let mut rounds: Vec<[f64; 3]> = Vec::new();
    let mut traced_ids = Vec::new();
    let start = Instant::now();
    while rounds.len() < 4 || start.elapsed().as_secs_f64() < 0.5 * seconds {
        let iter = rounds.len() as u64;
        let mut round = [0.0; 3];
        for k in 0..3 {
            let arm = (k + rounds.len()) % 3;
            round[arm] = match arm {
                0 => clock.time("train.step", iter, None, || step(&mut tr, grads, &mut out)).1,
                1 => {
                    let t = Instant::now();
                    let r = hybrid_update_pooled(
                        &mut state,
                        grads,
                        &subgroups,
                        pipeline_cfg,
                        None,
                        &pool,
                    );
                    out.step(healthy(&r));
                    t.elapsed().as_secs_f64()
                }
                _ => {
                    let span = clock.open("core.hybrid_update_pooled", iter, None);
                    let r = hybrid_update_pooled(
                        &mut state,
                        grads,
                        &subgroups,
                        pipeline_cfg,
                        Some(&tracer),
                        &pool,
                    );
                    out.step(healthy(&r));
                    traced_ids.push(span.id().expect("the traced run records spans"));
                    clock.close(span)
                }
            };
        }
        rounds.push(round);
    }
    verify_step(&mut tr, grads, &mut out)?;
    let drain_s = clock.time("train.drain", rounds.len() as u64, None, || tr.drain()).1;
    let (hits, misses) = (tr.arena().reuse_hits(), tr.arena().allocation_misses());
    out.metric("core.arena.reuse_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    out.metric(
        "core.arena.high_water_mb",
        tr.arena().high_water_bytes() as f64 / (1 << 20) as f64,
        "MiB",
    );
    drop((tr, state));

    // The pipeline's own spans, on the benchmark's clock.
    let events: Vec<(String, String, f64, f64)> = tracer
        .events()
        .into_iter()
        .map(|e| (e.track, e.name, e.start + offset, e.start + e.dur + offset))
        .collect();
    let inside = |id: usize| {
        let s = &clock.spans()[id];
        let (a, b) = (s.start, s.end);
        events.iter().filter(move |e| e.2 >= a && e.2 < b)
    };
    let per_step = |track: &str, prefix: &str| -> f64 {
        let v: Vec<f64> = traced_ids
            .iter()
            .map(|&id| {
                inside(id)
                    .filter(|e| e.0 == track && e.1.starts_with(prefix))
                    .map(|e| e.3 - e.2)
                    .sum()
            })
            .collect();
        median(&v)
    };
    // The calling thread is the pipeline's CPU side: the part of the call
    // its `cpu` spans do not cover is time it waited (for the device
    // worker's results, its spawn and join).
    let waits: Vec<f64> = traced_ids
        .iter()
        .map(|&id| {
            let cpu: Vec<(f64, f64)> =
                inside(id).filter(|e| e.0 == "cpu").map(|e| (e.2, e.3)).collect();
            clock.self_time(id, &cpu)
        })
        .collect();
    let column = |k: usize| rounds.iter().map(|r| r[k]).collect::<Vec<f64>>();
    let trainer_steps = column(0);
    let overhead: Vec<f64> = rounds.iter().map(|r| r[0] - r[1]).collect();
    let trace_ratio: Vec<f64> = rounds.iter().map(|r| r[2] / r[1]).collect();
    let counter = |name: &str| tracer.metrics().counter(name) as f64 / traced_ids.len() as f64;
    out.metric("core.pipeline.step_s_p50", median(&column(2)), "s");
    out.metric("core.pipeline.cpu.prefetch_s", per_step("cpu", "prefetch:"), "s");
    out.metric("core.pipeline.cpu.update_s", per_step("cpu", "update:"), "s");
    out.metric("core.pipeline.cpu.downscale_s", per_step("cpu", "downscale:"), "s");
    out.metric("core.pipeline.cpu.flush_s", per_step("cpu", "flush:"), "s");
    out.metric("core.pipeline.device.update_s", per_step("device-worker", "update:"), "s");
    out.metric("core.pipeline.device.flush_s", per_step("device-worker", "flush:"), "s");
    out.metric("core.pipeline.cpu.wait_s", median(&waits), "s");
    out.metric("core.pipeline.h2d_bytes", counter("pipeline.h2d.bytes"), "bytes");
    out.metric("core.pipeline.d2h_bytes", counter("pipeline.d2h.bytes"), "bytes");
    out.metric("core.pipeline.device_subgroups", counter("pipeline.device_subgroups"), "count");
    out.metric("bench.trace_overhead_frac", median(&trace_ratio) - 1.0, "ratio");
    out.metric("train.step_s_p50", median(&trainer_steps), "s");
    out.metric("train.step_s_p90", quantile(&trainer_steps, 0.9), "s");
    out.metric("train.overhead_s", median(&overhead), "s");
    out.metric("train.drain_s", drain_s, "s");
    out.metric("train.setup_s", median(&setups), "s");

    // Phase 3.
    out.metrics.extend(kernel_probes(SUBGROUP, 0.1 * seconds));
    out.metrics.extend(sim_predictions()?);
    out.spans = clock.summary();
    Ok(out)
}
