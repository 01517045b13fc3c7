//! `wallbench`: the repository's layered wall-clock benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path wallbench/Cargo.toml -- \
//!     --workload <update|train-dp2|train-zenflow> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run drives one closed-loop workload in this process through the
//! public API of the `dos-*` crates, checks the program's outputs outside
//! the timed region, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (measured with no tracer attached);
//! with `--trace 1` they are the per-layer ones, from a separate run that
//! records spans around every public call the benchmark makes and reads
//! the spans and counters the program already emits.
//!
//! Earlier stdout lines carry the workload's row of end-to-end metrics
//! (untraced) or the per-layer table naming the end-to-end metric and
//! workload each layer metric should move (traced), and a host block
//! (CPU model, logical cores, measured triad bandwidth, build profile):
//! absolute numbers taken on different hosts are never comparable.

mod layers;
mod stats;
mod train;
mod update;

use std::process::ExitCode;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Steps (optimizer steps or training iterations) issued.
    pub attempted: u64,
    /// Steps that returned `Err`, reported a degradation, or failed an
    /// output check.
    pub failed: u64,
    /// Output checks, by description; each failed one also counts in
    /// `failed`.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// The traced run's span summary ([`stats::Clock::summary`]).
    pub spans: Vec<String>,
}

impl Outcome {
    /// Records one issued step and whether it succeeded.
    pub fn step(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records one output check; a failed check counts as a failed step.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((what.into(), ok));
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Renders a JSON string literal (the values printed here are plain ASCII
/// names and CPU model strings).
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) -> Result<(), String> {
    let outcome = match args.workload.as_str() {
        "update" => update::run(args.seed, args.seconds, args.trace)?,
        "train-dp2" => train::run_dp2(args.seed, args.seconds, args.trace)?,
        "train-zenflow" => train::run_zenflow(args.seed, args.seconds, args.trace)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected update, train-dp2 or train-zenflow)"
            ))
        }
    };
    // Measured after the workload (and after its peak-RSS reading), so the
    // triad's buffers never count against `peak_rss_mb`.
    let host = layers::host_block();

    if outcome.attempted == 0 {
        return Err("no step was attempted".to_string());
    }
    let mut metrics = outcome.metrics;
    if args.trace {
        metrics.push(Metric::new("host.triad_gbps", host.triad_gbps, "GB/s"));
        metrics = layers::complete_per_layer(&args.workload, metrics)?;
        println!("{}", layers::render_table(&args.workload, &metrics));
    } else {
        let failed_frac = outcome.failed as f64 / outcome.attempted as f64;
        let row: Vec<String> = metrics
            .iter()
            .map(|m| format!("{}={} {}", m.name, m.value, m.unit))
            .chain(std::iter::once(format!("failed_frac={failed_frac} ratio")))
            .collect();
        println!("{}: {}", args.workload, row.join(", "));
    }
    for line in &outcome.spans {
        println!("{line}");
    }
    for (what, ok) in &outcome.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "{{\"host\": {{\"cpu_model\": {}, \"logical_cores\": {}, \"triad_gbps\": {}, \
         \"build_profile\": {}}}}}",
        json_str(&host.cpu_model),
        host.logical_cores,
        host.triad_gbps,
        json_str(host.build_profile),
    );

    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
    }
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|(_, ok)| *ok);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::FAILURE
        }
    }
}
