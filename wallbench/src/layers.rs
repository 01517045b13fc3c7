//! The per-layer metric table, the host block, the kernel probes and the
//! simulated-clock predictions.

use std::hint::black_box;
use std::time::Instant;

use dos_core::{DeepOptimizerStates, ZenFlowAsync, Zero3Offload};
use dos_hal::HardwareProfile;
use dos_nn::ModelSpec;
use dos_optim::UpdateRule;
use dos_sim::{simulate_training, TrainConfig};
use dos_tensor::{kernels, F16};

use crate::stats::median;
use crate::Metric;

const ALL: &[&str] = &["update", "train-dp2", "train-zenflow"];
const UPDATE: &[&str] = &["update"];
const DP2: &[&str] = &["train-dp2"];
const ZENFLOW: &[&str] = &["train-zenflow"];
const TRAINS: &[&str] = &["train-dp2", "train-zenflow"];
const PIPELINE: &[&str] = &["update", "train-dp2"];
const TRAINER: &[&str] = &["update", "train-zenflow"];

/// One per-layer metric: name, unit, the workloads whose traced run
/// measures it (elsewhere the layer is not entered and it reads 0), and
/// the end-to-end metric and workload it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub measured_on: &'static [&'static str],
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    measured_on: &'static [&'static str],
    moves: &'static str,
) -> Layer {
    Layer { name, unit, measured_on, moves }
}

const KERNEL: &str = "update_pps on update; no change on train-dp2";
const STAGE: &str = "update_pps on update";
const NN: &str = "tokens_per_s on train-dp2 and train-zenflow; no change on update";
const DP: &str = "tokens_per_s on train-dp2 only";
const SIM: &str = "none: a simulated-clock prediction to compare with the measured layers";

/// Every per-layer metric, in the order the traced run prints them.
pub const LAYERS: &[Layer] = &[
    layer("host.triad_gbps", "GB/s", ALL, "none: the single-thread bandwidth roof, context only"),
    layer("optim.adam_apply_pps", "params/s", ALL, KERNEL),
    layer("optim.adam_apply_gbps", "GB/s", ALL, KERNEL),
    layer("tensor.downscale_pps", "params/s", ALL, KERNEL),
    layer("tensor.upscale_pps", "params/s", ALL, KERNEL),
    layer("core.pipeline.step_s_p50", "s", PIPELINE, STAGE),
    layer("core.pipeline.cpu.prefetch_s", "s", PIPELINE, STAGE),
    layer("core.pipeline.cpu.update_s", "s", PIPELINE, STAGE),
    layer("core.pipeline.cpu.downscale_s", "s", PIPELINE, STAGE),
    layer("core.pipeline.cpu.flush_s", "s", PIPELINE, STAGE),
    layer("core.pipeline.device.update_s", "s", PIPELINE, STAGE),
    layer("core.pipeline.device.flush_s", "s", PIPELINE, STAGE),
    layer("core.pipeline.cpu.wait_s", "s", PIPELINE, STAGE),
    layer("core.pipeline.h2d_bytes", "bytes", PIPELINE, STAGE),
    layer("core.pipeline.d2h_bytes", "bytes", PIPELINE, STAGE),
    layer("core.pipeline.device_subgroups", "count", PIPELINE, STAGE),
    layer("core.arena.reuse_ratio", "ratio", UPDATE, "update_pps on update (diagnostic)"),
    layer("core.arena.high_water_mb", "MiB", PIPELINE, "peak_rss_mb on update (diagnostic)"),
    layer(
        "train.step_s_p50",
        "s",
        TRAINER,
        "update_pps on update and tokens_per_s on train-zenflow",
    ),
    layer(
        "train.step_s_p90",
        "s",
        TRAINER,
        "update_pps on update and tokens_per_s on train-zenflow",
    ),
    layer("train.overhead_s", "s", TRAINER, "update_pps on update"),
    layer("train.drain_s", "s", TRAINER, "tokens_per_s on train-zenflow"),
    layer("train.setup_s", "s", ALL, "setup_s on every workload"),
    layer(
        "core.zenflow.hot_subgroups",
        "count",
        ZENFLOW,
        "tokens_per_s and eval_loss on train-zenflow",
    ),
    layer(
        "core.zenflow.flushed_subgroups",
        "count",
        ZENFLOW,
        "tokens_per_s and eval_loss on train-zenflow",
    ),
    layer("telemetry.stall_frac", "ratio", TRAINER, "tokens_per_s on train-zenflow"),
    layer("telemetry.overlap_efficiency", "ratio", TRAINER, "tokens_per_s on train-zenflow"),
    layer("telemetry.health_events", "count", TRAINER, "tokens_per_s on train-zenflow"),
    layer(
        "telemetry.flight_overhead_frac",
        "ratio",
        UPDATE,
        "none: the cost of always-on monitoring on the update shape; gates nothing",
    ),
    layer("nn.fwd_bwd_s_p50", "s", TRAINS, NN),
    layer("nn.param_exchange_s", "s", TRAINS, NN),
    layer("data.next_batch_s", "s", TRAINS, NN),
    layer("data.tokenizer_s", "s", TRAINS, "setup_s on train-dp2 and train-zenflow"),
    layer("runtime.fwd_bwd_s", "s", DP2, DP),
    layer("runtime.update_s", "s", DP2, DP),
    layer("collectives.grad_exchange_s", "s", DP2, DP),
    layer("collectives.all_gather_s", "s", DP2, DP),
    layer("runtime.rank_skew_s", "s", DP2, DP),
    layer("collectives.bytes_per_iter", "bytes", DP2, DP),
    layer("sim.dos_iter_s_20b", "s", ALL, SIM),
    layer("sim.zero3_iter_s_20b", "s", ALL, SIM),
    layer("sim.zenflow_async_iter_s_20b", "s", ALL, SIM),
    layer(
        "bench.trace_overhead_frac",
        "ratio",
        ALL,
        "none: traced over untraced step time minus 1, the cost of this traced run",
    ),
];

/// Orders the traced run's metrics as [`LAYERS`] does and fills every
/// layer the workload does not enter with 0.
///
/// # Errors
///
/// Fails when the workload produced a metric the table does not know, with
/// another unit, or one the table says it does not measure.
pub fn complete_per_layer(workload: &str, measured: Vec<Metric>) -> Result<Vec<Metric>, String> {
    for m in &measured {
        let layer = LAYERS
            .iter()
            .find(|l| l.name == m.name)
            .ok_or_else(|| format!("metric {} is not in the per-layer table", m.name))?;
        if layer.unit != m.unit || !layer.measured_on.contains(&workload) {
            return Err(format!("metric {} disagrees with the per-layer table", m.name));
        }
    }
    LAYERS
        .iter()
        .map(|l| match measured.iter().find(|m| m.name == l.name) {
            Some(m) => Ok(m.clone()),
            None if l.measured_on.contains(&workload) => {
                Err(format!("{workload} did not measure {}", l.name))
            }
            None => Ok(Metric::new(l.name, 0.0, l.unit)),
        })
        .collect()
}

/// The traced run's table: each per-layer metric with the end-to-end
/// metric and workload it should move.
pub fn render_table(workload: &str, metrics: &[Metric]) -> String {
    let mut out = format!("per-layer metrics of {workload} (traced run)\n");
    for (l, m) in LAYERS.iter().zip(metrics) {
        let value = if l.measured_on.contains(&workload) {
            format!("{:.6e} {}", m.value, m.unit)
        } else {
            format!("0 (layer not entered on {workload})")
        };
        out.push_str(&format!("  {:<34} {:<40} moves: {}\n", l.name, value, l.moves));
    }
    out.pop();
    out
}

/// Where the numbers of a run came from. Absolute numbers from different
/// host blocks are not comparable.
pub struct Host {
    pub cpu_model: String,
    pub logical_cores: usize,
    pub triad_gbps: f64,
    pub build_profile: &'static str,
}

pub fn host_block() -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Host {
        cpu_model,
        logical_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        triad_gbps: triad_gbps(),
        build_profile: if cfg!(debug_assertions) { "debug" } else { "release" },
    }
}

/// Single-thread STREAM-style triad `a = b + s·c` over 3 × 64 MiB of f32,
/// best of seven passes, counting 12 bytes per element.
fn triad_gbps() -> f64 {
    const N: usize = 16 << 20;
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let mut a = vec![0.0f32; N];
    let s = black_box(3.0f32);
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (12 * N) as f64 / best / 1e9
}

/// Runs `f` repeatedly for about `budget` seconds (at least five times)
/// and returns the median seconds per call.
fn per_call(budget: f64, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// The kernels of `dos-optim` and `dos-tensor` on one subgroup of `n`
/// parameters (the size the workload's pipeline hands them).
pub fn kernel_probes(n: usize, budget: f64) -> Vec<Metric> {
    let mut p: Vec<f32> = (0..n).map(|i| (i % 97) as f32 / 97.0 - 0.5).collect();
    let g: Vec<f32> = (0..n).map(|i| (i % 89) as f32 / 89.0 - 0.5).collect();
    let mut m = vec![0.0f32; n];
    let mut v = vec![0.0f32; n];
    let rule = UpdateRule::adam();
    let mut step = 0u64;
    let adam_s = per_call(budget / 3.0, || {
        step += 1;
        rule.apply(step, 1e-3, black_box(&mut p), black_box(&g), &mut m, &mut v);
    });
    let mut half = vec![F16::ZERO; n];
    let down_s = per_call(budget / 3.0, || kernels::downscale(black_box(&p), black_box(&mut half)));
    let mut back = vec![0.0f32; n];
    let up_s = per_call(budget / 3.0, || kernels::upscale(black_box(&half), black_box(&mut back)));
    let adam_pps = n as f64 / adam_s;
    vec![
        Metric::new("optim.adam_apply_pps", adam_pps, "params/s"),
        // Reads g, p, m, v and writes p, m, v: 28 bytes per parameter.
        Metric::new("optim.adam_apply_gbps", adam_pps * 28.0 / 1e9, "GB/s"),
        Metric::new("tensor.downscale_pps", n as f64 / down_s, "params/s"),
        Metric::new("tensor.upscale_pps", n as f64 / up_s, "params/s"),
    ]
}

/// The simulated-clock iteration times of the pinned 20B configuration
/// (JLSE 4×H100 profile, six iterations, ZenFlow importance ratio 0.1 and
/// staleness bound 1). Deterministic predictions, never end-to-end metrics.
pub fn sim_predictions() -> Result<Vec<Metric>, String> {
    const ITERATIONS: usize = 6;
    let profile = HardwareProfile::jlse_h100();
    let spec = ModelSpec::by_name("20B").ok_or("no 20B model in the zoo")?;
    let sim = |cfg: &TrainConfig, sched: &dyn dos_sim::UpdateScheduler| {
        simulate_training(cfg, sched, ITERATIONS)
            .map(|r| r.avg_iteration_secs)
            .map_err(|e| format!("simulation failed: {e}"))
    };
    let zero3 = sim(&TrainConfig::baseline(spec.clone(), profile.clone()), &Zero3Offload)?;
    let dos = sim(
        &TrainConfig::deep_optimizer_states(spec.clone(), profile.clone()),
        &DeepOptimizerStates::default(),
    )?;
    let mut zf_cfg = TrainConfig::baseline(spec, profile);
    zf_cfg.offload.gpu_resident_ratio = 0.1;
    let zenflow = sim(&zf_cfg, &ZenFlowAsync::new(0.1, 1))?;
    Ok(vec![
        Metric::new("sim.dos_iter_s_20b", dos, "s"),
        Metric::new("sim.zero3_iter_s_20b", zero3, "s"),
        Metric::new("sim.zenflow_async_iter_s_20b", zenflow, "s"),
    ])
}
