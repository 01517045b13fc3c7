//! `dos-cli monitor`: a real training run with the production-monitoring
//! layer live — flight recorder, metrics endpoint, health detectors.
//!
//! [`run_monitor`] takes either a [`dos_train::TrainerConfig`] document
//! (recognized by its `"params"` field) or a simulator-style
//! [`RuntimeConfig`] (e.g. `examples/quickstart.json`), in which case a
//! small representative trainer is derived from its
//! `"deep_optimizer_states"` entry so the monitoring path is exercised on
//! real pipeline math. While training runs, a
//! [`dos_telemetry::MetricsServer`] serves `/metrics` (Prometheus text),
//! `/metrics.json`, and `/health`; the run scrapes its own endpoint over
//! real TCP and validates the payload, so a passing exit code means the
//! exposition path works end to end.

use std::path::PathBuf;

use dos_telemetry::{http_get, parse_prometheus, MetricsServer};
use dos_train::TrainerConfig;

use crate::config::RuntimeConfig;

/// Options for a monitored training run.
#[derive(Debug, Clone)]
pub struct MonitorOptions {
    /// Listen address for the metrics endpoint (`"127.0.0.1:0"` binds an
    /// ephemeral port).
    pub listen: String,
    /// Optimizer steps to run.
    pub iterations: usize,
    /// Seed for the deterministic parameter/gradient streams.
    pub seed: u64,
    /// Write the final Prometheus payload here, if anywhere.
    pub prom_out: Option<PathBuf>,
    /// Write the final health snapshot JSON here, if anywhere.
    pub health_out: Option<PathBuf>,
    /// Directory for automatic flight-recorder dumps, if any.
    pub flight_dir: Option<PathBuf>,
}

impl Default for MonitorOptions {
    fn default() -> Self {
        MonitorOptions {
            listen: "127.0.0.1:0".to_string(),
            iterations: 8,
            seed: 0,
            prom_out: None,
            health_out: None,
            flight_dir: None,
        }
    }
}

/// Outcome of a monitored run.
#[derive(Debug, Clone)]
pub struct MonitorOutcome {
    /// The bound endpoint address (ephemeral port resolved).
    pub addr: String,
    /// Steps completed.
    pub iterations: usize,
    /// Steps that degraded to the CPU-only path.
    pub degraded_steps: usize,
    /// Health events raised across the run.
    pub health_events: usize,
    /// The final scraped Prometheus payload.
    pub prometheus: String,
    /// The final `/health` snapshot JSON.
    pub health_json: String,
}

/// Resolves the input document into a monitored [`TrainerConfig`]: a
/// trainer document passes through (with a `monitor` entry forced on); a
/// runtime document contributes its `deep_optimizer_states` entry to a
/// small representative shard.
fn resolve_config(config_json: &str) -> Result<TrainerConfig, String> {
    let value: serde::Value =
        serde_json::from_str(config_json).map_err(|e| format!("invalid config JSON: {e}"))?;
    let is_trainer_doc = value
        .as_map()
        .is_some_and(|m| m.iter().any(|(k, _)| k == "params"));
    let mut cfg = if is_trainer_doc {
        TrainerConfig::from_json(config_json).map_err(|e| e.to_string())?
    } else {
        let rc = RuntimeConfig::from_json(config_json).map_err(|e| e.to_string())?;
        // A small representative shard: big enough for several subgroups
        // and real device/CPU interleaving, small enough to step quickly.
        TrainerConfig {
            static_residents: 1,
            deep_optimizer_states: rc.deep_optimizer_states,
            ..TrainerConfig::new(6144, 512)
        }
    };
    // Monitoring on, whatever the document said: that is the point of the
    // subcommand. An explicit entry keeps its capacity/health settings.
    cfg.monitor = Some(cfg.monitor.take().unwrap_or_default());
    Ok(cfg)
}

/// Deterministic parameter/gradient streams (seeded, reproducible).
fn stream(n: usize, seed: u64, step: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed ^ (step as u64).wrapping_mul(0xD129_0975_7351_37C9));
            // Map the top bits onto [-0.5, 0.5).
            ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Validates a scraped Prometheus payload: it must parse and must carry
/// the arena gauge the smoke tests key on.
fn validate_payload(body: &str) -> Result<(), String> {
    let samples = parse_prometheus(body).map_err(|e| format!("payload does not parse: {e}"))?;
    if samples.is_empty() {
        return Err("payload has no samples".to_string());
    }
    if !samples
        .iter()
        .any(|s| s.metric == "dos_gauge" && s.label("name") == Some("arena.in_use_bytes"))
    {
        return Err("payload is missing the arena.in_use_bytes gauge".to_string());
    }
    Ok(())
}

/// Runs the monitored training loop. See the module docs.
///
/// # Errors
///
/// Returns a description when the config cannot be resolved, the endpoint
/// cannot be bound, a step fails, or a self-scrape returns an invalid
/// payload.
pub fn run_monitor(config_json: &str, opts: &MonitorOptions) -> Result<MonitorOutcome, String> {
    let cfg = resolve_config(config_json)?;
    let n = cfg.params;
    let mut trainer = cfg.build(stream(n, opts.seed, 0)).map_err(|e| e.to_string())?;
    let tracer = trainer.tracer().ok_or("monitored trainer has no tracer")?.clone();
    if let (Some(dir), Some(flight)) = (&opts.flight_dir, tracer.flight()) {
        flight.set_dump_dir(dir);
    }
    let board = trainer.health_board().ok_or("monitored trainer has no health board")?.clone();
    let server = MetricsServer::start(&opts.listen, tracer.metrics().clone(), Some(board))?;
    let addr = server.addr().to_string();
    eprintln!("serving metrics on http://{addr}/metrics (json: /metrics.json, health: /health)");

    let mut degraded_steps = 0;
    let mut health_events = 0;
    let mid = opts.iterations / 2;
    for it in 0..opts.iterations {
        let grads = stream(n, opts.seed, it + 1);
        let report = trainer.step(&grads).map_err(|e| format!("step {it}: {e}"))?;
        if report.degraded.is_some() {
            degraded_steps += 1;
        }
        for ev in trainer.last_health_events() {
            // Structured log lines for machine consumption downstream.
            println!("{}", ev.json_line());
            health_events += 1;
        }
        if let Some(r) = trainer.last_iteration() {
            eprintln!(
                "it {:>3}  {:.3} ms  {:.2e} pps  stall {:>5.1}%  overlap {:>5.1}%  {}",
                r.iteration,
                r.iter_secs * 1e3,
                r.pps,
                r.stall_fraction * 100.0,
                r.overlap_efficiency * 100.0,
                if r.degraded { "DEGRADED" } else { "ok" },
            );
        }
        if it == mid {
            // Self-scrape mid-run over real TCP: the endpoint must serve
            // valid Prometheus while training is in flight.
            let (status, body) = http_get(addr.as_str(), "/metrics")?;
            if status != 200 {
                return Err(format!("mid-run scrape returned HTTP {status}"));
            }
            validate_payload(&body)?;
        }
    }

    let (status, prometheus) = http_get(addr.as_str(), "/metrics")?;
    if status != 200 {
        return Err(format!("final scrape returned HTTP {status}"));
    }
    validate_payload(&prometheus)?;
    let (status, health_json) = http_get(addr.as_str(), "/health")?;
    if status != 200 {
        return Err(format!("health scrape returned HTTP {status}"));
    }
    if let Some(out) = &opts.prom_out {
        std::fs::write(out, &prometheus).map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    if let Some(out) = &opts.health_out {
        std::fs::write(out, &health_json).map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    Ok(MonitorOutcome {
        addr,
        iterations: opts.iterations,
        degraded_steps,
        health_events,
        prometheus,
        health_json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trainer_document_runs_and_serves() {
        let json = r#"{ "params": 2048, "subgroup_size": 256,
                        "deep_optimizer_states": { "update_stride": 2 } }"#;
        let opts = MonitorOptions { iterations: 4, ..MonitorOptions::default() };
        let outcome = run_monitor(json, &opts).unwrap();
        assert_eq!(outcome.iterations, 4);
        assert_eq!(outcome.degraded_steps, 0);
        assert!(outcome.prometheus.contains("arena.in_use_bytes"));
        assert!(outcome.prometheus.contains("dos_counter{name=\"pipeline.device_subgroups\"}"));
        let health: dos_telemetry::HealthSnapshot =
            serde_json::from_str(&outcome.health_json).unwrap();
        assert_eq!(health.iterations, 4);
    }

    #[test]
    fn runtime_document_derives_a_representative_trainer() {
        let json = r#"{ "model": "20B",
                        "deep_optimizer_states": { "enabled": true, "update_stride": "auto" } }"#;
        let opts = MonitorOptions { iterations: 3, ..MonitorOptions::default() };
        let outcome = run_monitor(json, &opts).unwrap();
        assert_eq!(outcome.iterations, 3);
        validate_payload(&outcome.prometheus).unwrap();
    }

    #[test]
    fn file_outputs_and_determinism() {
        let dir = std::env::temp_dir()
            .join(format!("dos-monitor-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let json = r#"{ "params": 1024, "subgroup_size": 128 }"#;
        let opts = MonitorOptions {
            iterations: 3,
            prom_out: Some(dir.join("metrics.prom")),
            health_out: Some(dir.join("health.json")),
            flight_dir: Some(dir.clone()),
            ..MonitorOptions::default()
        };
        let outcome = run_monitor(json, &opts).unwrap();
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert_eq!(prom, outcome.prometheus);
        validate_payload(&prom).unwrap();
        let health = std::fs::read_to_string(dir.join("health.json")).unwrap();
        assert_eq!(health, outcome.health_json);
        // Same seed, same gradient streams.
        assert_eq!(stream(64, 7, 3), stream(64, 7, 3));
        assert_ne!(stream(64, 7, 3), stream(64, 7, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_configs_are_rejected() {
        assert!(run_monitor("not json", &MonitorOptions::default()).is_err());
        assert!(run_monitor(r#"{ "params": 0, "subgroup_size": 4 }"#, &MonitorOptions::default())
            .is_err());
    }
}
