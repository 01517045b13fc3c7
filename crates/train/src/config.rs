//! The single-JSON-entry configuration surface.
//!
//! The paper ships Deep Optimizer States as a middleware "that can be
//! enabled and configured through a single JSON entry in the configuration
//! file given to the training runtime" (§4.4). This module owns the
//! canonical `"deep_optimizer_states"` entry — shared with the simulator's
//! [`RuntimeConfig`](https://docs.rs/dos-runtime) document, which re-exports
//! these types — plus the small trainer-level document wrapped around it by
//! [`TrainerConfig`].

use serde::{Deserialize, Serialize};

use dos_core::{PipelineConfig, PipelineError, StridePolicy};
use dos_optim::UpdateRule;

/// Errors raised while parsing or resolving a trainer configuration, or
/// while stepping the trainer it builds.
#[derive(Debug)]
#[non_exhaustive]
pub enum TrainerError {
    /// The JSON failed to parse.
    Parse(serde_json::Error),
    /// A field value is out of range or a name could not be resolved.
    Invalid {
        /// Description of the invalid value.
        detail: String,
    },
    /// The hybrid-update pipeline rejected a step's preconditions.
    Pipeline(PipelineError),
}

impl std::fmt::Display for TrainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainerError::Parse(e) => write!(f, "invalid trainer JSON: {e}"),
            TrainerError::Invalid { detail } => write!(f, "invalid trainer config: {detail}"),
            TrainerError::Pipeline(e) => write!(f, "pipeline: {e}"),
        }
    }
}

impl std::error::Error for TrainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainerError::Parse(e) => Some(e),
            TrainerError::Pipeline(e) => Some(e),
            TrainerError::Invalid { .. } => None,
        }
    }
}

impl From<serde_json::Error> for TrainerError {
    fn from(e: serde_json::Error) -> Self {
        TrainerError::Parse(e)
    }
}

impl From<PipelineError> for TrainerError {
    fn from(e: PipelineError) -> Self {
        TrainerError::Pipeline(e)
    }
}

/// The `"deep_optimizer_states"` JSON entry (§4.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct DosEntry {
    /// Master switch; `false` leaves the baseline scheduler in place.
    pub enabled: bool,
    /// `"auto"` (solve Equation 1), `"cpu_only"`, `"adaptive"` (online
    /// controller retuning), or an integer stride.
    pub update_stride: StrideEntry,
    /// FP32-on-GPU gradient conversion path (Figure 6 bottom).
    pub fp32_gradient_path: bool,
    /// Overlap gradient flushes with backward compute.
    pub overlap_backward: bool,
}

impl Default for DosEntry {
    fn default() -> Self {
        DosEntry {
            enabled: true,
            update_stride: StrideEntry::Auto,
            fp32_gradient_path: true,
            overlap_backward: true,
        }
    }
}

/// JSON form of [`StridePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", untagged)]
pub enum StrideEntry {
    /// A fixed stride value.
    Fixed(usize),
    /// A named policy: `"auto"` or `"cpu_only"`.
    Named(NamedStride),
}

/// Named stride policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum NamedStride {
    /// Solve Equation 1.
    Auto,
    /// Keep every dynamic subgroup on the CPU.
    CpuOnly,
    /// Online retuning by the `dos-control` feedback controller.
    Adaptive,
}

impl StrideEntry {
    /// The `"auto"` policy.
    #[allow(non_upper_case_globals)]
    pub const Auto: StrideEntry = StrideEntry::Named(NamedStride::Auto);

    /// Converts to the scheduler's policy type.
    pub fn to_policy(self) -> StridePolicy {
        match self {
            StrideEntry::Fixed(k) => StridePolicy::Fixed(k),
            StrideEntry::Named(NamedStride::Auto) => StridePolicy::Auto,
            StrideEntry::Named(NamedStride::CpuOnly) => StridePolicy::CpuOnly,
            StrideEntry::Named(NamedStride::Adaptive) => StridePolicy::Adaptive,
        }
    }
}

impl From<StridePolicy> for StrideEntry {
    fn from(policy: StridePolicy) -> StrideEntry {
        match policy {
            StridePolicy::Fixed(k) => StrideEntry::Fixed(k),
            StridePolicy::Auto => StrideEntry::Auto,
            StridePolicy::CpuOnly => StrideEntry::Named(NamedStride::CpuOnly),
            StridePolicy::Adaptive => StrideEntry::Named(NamedStride::Adaptive),
        }
    }
}

/// The optional `"monitor"` JSON entry: production monitoring.
///
/// When present, [`TrainerConfig::build`] attaches a flight-only
/// [`dos_telemetry::Tracer`] (bounded ring, no unbounded event store) so
/// every step records into the flight recorder, publishes arena gauges,
/// and — unless `health` is disabled — runs the online health detectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct MonitorEntry {
    /// Address for the metrics endpoint (e.g. `"127.0.0.1:9464"`, or port
    /// `0` for ephemeral). `None` leaves serving to the embedding runtime;
    /// the trainer itself never opens sockets.
    pub listen: Option<String>,
    /// Flight-recorder ring capacity in events.
    pub flight_capacity: usize,
    /// Enable the online health/anomaly detectors.
    pub health: bool,
}

impl Default for MonitorEntry {
    fn default() -> Self {
        MonitorEntry { listen: None, flight_capacity: 4096, health: true }
    }
}

/// The optional `"collectives"` JSON entry: data-parallel transport
/// robustness knobs. The single-process [`crate::Trainer`] carries it
/// untouched; `dos-runtime`'s functional trainer consumes it via
/// `FunctionalConfig::apply_collectives`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, default)]
pub struct CollectivesEntry {
    /// Transport backend: `"inproc"` (rank threads in one process) or
    /// `"uds"` (Unix-domain sockets rendezvousing in `socket_dir`).
    pub transport: String,
    /// Rendezvous directory for the `"uds"` backend (`rank<r>.sock`
    /// files). Required when `transport` is `"uds"`.
    pub socket_dir: Option<String>,
    /// Per-collective deadline in milliseconds. Absent keeps the blocking
    /// mode (liveness via disconnect propagation); present enables
    /// heartbeats, backoff retransmits, and timeout-vs-rank-failure
    /// attribution.
    pub collective_timeout_ms: Option<u64>,
    /// `"error"` aborts the run when a rank dies; `"elastic"` evicts the
    /// dead rank and continues at reduced world size from the latest
    /// crash-consistent checkpoint.
    pub on_rank_failure: String,
}

impl Default for CollectivesEntry {
    fn default() -> Self {
        CollectivesEntry {
            transport: "inproc".to_string(),
            socket_dir: None,
            collective_timeout_ms: None,
            on_rank_failure: "error".to_string(),
        }
    }
}

impl CollectivesEntry {
    /// Validates the backend and policy names.
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Invalid`] for unknown names, or `"uds"`
    /// without a `socket_dir`.
    pub fn validate(&self) -> Result<(), TrainerError> {
        match self.transport.as_str() {
            "inproc" => {}
            "uds" => {
                if self.socket_dir.is_none() {
                    return Err(TrainerError::Invalid {
                        detail: "collectives.transport \"uds\" requires socket_dir".into(),
                    });
                }
            }
            other => {
                return Err(TrainerError::Invalid {
                    detail: format!(
                        "unknown collectives.transport {other:?} (expected \"inproc\" or \"uds\")"
                    ),
                })
            }
        }
        if !matches!(self.on_rank_failure.as_str(), "error" | "elastic") {
            return Err(TrainerError::Invalid {
                detail: format!(
                    "unknown collectives.on_rank_failure {:?} (expected \"error\" or \
                     \"elastic\")",
                    self.on_rank_failure
                ),
            });
        }
        Ok(())
    }
}

/// A functional-trainer configuration document: one optimizer shard, its
/// partitioning, the update rule, and the middleware entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TrainerConfig {
    /// Flat parameter count of the optimizer shard.
    pub params: usize,
    /// Subgroup size in parameters (DeepSpeed's `sub_group_size`).
    pub subgroup_size: usize,
    /// Update rule name: `"adam"`, `"adamw"`, `"adagrad"`, `"rmsprop"`.
    #[serde(default = "default_rule")]
    pub rule: String,
    /// Decoupled weight decay (only `"adamw"` reads it).
    #[serde(default)]
    pub weight_decay: f32,
    /// Learning rate.
    #[serde(default = "default_lr")]
    pub lr: f32,
    /// Trailing subgroups treated as static device residents.
    #[serde(default)]
    pub static_residents: usize,
    /// Update scheduler: `"hybrid"` (the paper's interleaved in-barrier
    /// pipeline, the default) or `"zenflow_async"` (cross-iteration
    /// bounded-staleness updates; see `importance_ratio` /
    /// `staleness_bound`).
    #[serde(default = "default_scheduler")]
    pub scheduler: String,
    /// ZenFlow only: fraction of subgroups updated synchronously each step
    /// (the top-p importance set). In (0, 1]; at least one subgroup is
    /// always hot.
    #[serde(default = "default_importance_ratio")]
    pub importance_ratio: f64,
    /// ZenFlow only: bounded staleness window S — a cold subgroup's
    /// gradient is delayed at most S steps before its update is forced.
    #[serde(default = "default_staleness_bound")]
    pub staleness_bound: usize,
    /// The middleware entry.
    #[serde(default)]
    pub deep_optimizer_states: DosEntry,
    /// Optional production-monitoring entry (flight recorder, metrics,
    /// health detection). Absent → zero observability overhead.
    #[serde(default)]
    pub monitor: Option<MonitorEntry>,
    /// Optional data-parallel transport entry (backend, deadlines,
    /// rank-failure policy); see [`CollectivesEntry`].
    #[serde(default)]
    pub collectives: Option<CollectivesEntry>,
}

fn default_rule() -> String {
    "adam".to_string()
}
fn default_lr() -> f32 {
    0.01
}
fn default_scheduler() -> String {
    "hybrid".to_string()
}
fn default_importance_ratio() -> f64 {
    0.1
}
fn default_staleness_bound() -> usize {
    1
}

impl TrainerConfig {
    /// A document for a shard of `params` parameters in subgroups of
    /// `subgroup_size`, every other field at its JSON default.
    pub fn new(params: usize, subgroup_size: usize) -> TrainerConfig {
        TrainerConfig {
            params,
            subgroup_size,
            rule: default_rule(),
            weight_decay: 0.0,
            lr: default_lr(),
            static_residents: 0,
            scheduler: default_scheduler(),
            importance_ratio: default_importance_ratio(),
            staleness_bound: default_staleness_bound(),
            deep_optimizer_states: DosEntry::default(),
            monitor: None,
            collectives: None,
        }
    }

    /// Parses a configuration from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Parse`] on malformed JSON (including unknown
    /// fields — typos fail fast rather than silently training a different
    /// configuration).
    pub fn from_json(json: &str) -> Result<TrainerConfig, TrainerError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Serializes back to pretty JSON.
    pub fn to_json(&self) -> String {
        // The in-tree serializer is infallible for derived config types.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Resolves the rule name into an [`UpdateRule`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Invalid`] for unknown names.
    pub fn resolve_rule(&self) -> Result<UpdateRule, TrainerError> {
        match self.rule.as_str() {
            "adam" => Ok(UpdateRule::adam()),
            "adamw" => Ok(UpdateRule::adamw(self.weight_decay)),
            "adagrad" => Ok(UpdateRule::adagrad()),
            "rmsprop" => Ok(UpdateRule::rmsprop()),
            other => {
                Err(TrainerError::Invalid { detail: format!("unknown update rule {other:?}") })
            }
        }
    }

    /// Resolves the middleware entry into a pipeline configuration.
    /// Disabling the entry retreats every dynamic subgroup to the CPU —
    /// the pre-middleware baseline path.
    pub fn pipeline(&self) -> PipelineConfig {
        let dos = &self.deep_optimizer_states;
        PipelineConfig {
            stride: if dos.enabled { dos.update_stride.to_policy() } else { StridePolicy::CpuOnly },
            static_residents: self.static_residents,
            fault_injection: None,
        }
    }

    /// Whether the `"zenflow_async"` scheduler is selected.
    pub fn is_zenflow(&self) -> bool {
        self.scheduler == "zenflow_async"
    }

    /// The ZenFlow policy knobs as a pipeline configuration.
    pub fn zenflow(&self) -> dos_core::ZenFlowConfig {
        dos_core::ZenFlowConfig {
            importance_ratio: self.importance_ratio,
            staleness_bound: self.staleness_bound,
        }
    }

    /// Validates shape fields and the optional entries.
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Invalid`] when `params` or `subgroup_size`
    /// is zero, the `scheduler` name or its knobs are out of range, or the
    /// `collectives` entry names an unknown backend or policy.
    pub fn validate(&self) -> Result<(), TrainerError> {
        if self.params == 0 || self.subgroup_size == 0 {
            return Err(TrainerError::Invalid {
                detail: "params and subgroup_size must be positive".into(),
            });
        }
        match self.scheduler.as_str() {
            "hybrid" => {}
            "zenflow_async" => {
                if !(self.importance_ratio > 0.0 && self.importance_ratio <= 1.0) {
                    return Err(TrainerError::Invalid {
                        detail: format!(
                            "importance_ratio {} outside (0, 1]",
                            self.importance_ratio
                        ),
                    });
                }
                if self.staleness_bound == 0 {
                    return Err(TrainerError::Invalid {
                        detail: "staleness_bound must be at least 1".into(),
                    });
                }
            }
            other => {
                return Err(TrainerError::Invalid {
                    detail: format!(
                        "unknown scheduler {other:?} (expected \"hybrid\" or \
                         \"zenflow_async\")"
                    ),
                })
            }
        }
        if let Some(c) = &self.collectives {
            c.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_config_uses_paper_defaults() {
        let cfg =
            TrainerConfig::from_json(r#"{ "params": 64, "subgroup_size": 16 }"#).unwrap();
        assert_eq!(cfg.rule, "adam");
        assert_eq!(cfg.lr, 0.01);
        assert!(cfg.deep_optimizer_states.enabled);
        assert_eq!(cfg.pipeline().stride, StridePolicy::Auto);
    }

    #[test]
    fn stride_entry_forms() {
        for (entry, want) in [
            ("3", StridePolicy::Fixed(3)),
            ("\"auto\"", StridePolicy::Auto),
            ("\"cpu_only\"", StridePolicy::CpuOnly),
            ("\"adaptive\"", StridePolicy::Adaptive),
        ] {
            let cfg = TrainerConfig::from_json(&format!(
                r#"{{ "params": 8, "subgroup_size": 4,
                      "deep_optimizer_states": {{ "update_stride": {entry} }} }}"#
            ))
            .unwrap();
            assert_eq!(cfg.pipeline().stride, want);
        }
    }

    #[test]
    fn disabling_the_middleware_forces_cpu_only() {
        let cfg = TrainerConfig::from_json(
            r#"{ "params": 8, "subgroup_size": 4,
                 "deep_optimizer_states": { "enabled": false, "update_stride": 3 } }"#,
        )
        .unwrap();
        assert_eq!(cfg.pipeline().stride, StridePolicy::CpuOnly);
    }

    #[test]
    fn unknown_fields_and_rules_fail_fast() {
        assert!(TrainerConfig::from_json(r#"{ "params": 8, "subgroup_size": 4, "typo": 1 }"#)
            .is_err());
        let cfg = TrainerConfig::from_json(
            r#"{ "params": 8, "subgroup_size": 4, "rule": "sgd" }"#,
        )
        .unwrap();
        assert!(matches!(cfg.resolve_rule(), Err(TrainerError::Invalid { .. })));
        let cfg = TrainerConfig::from_json(r#"{ "params": 0, "subgroup_size": 4 }"#).unwrap();
        assert!(matches!(cfg.validate(), Err(TrainerError::Invalid { .. })));
    }

    #[test]
    fn monitor_entry_parses_defaults_and_round_trips() {
        let cfg = TrainerConfig::from_json(r#"{ "params": 8, "subgroup_size": 4 }"#).unwrap();
        assert!(cfg.monitor.is_none(), "absent entry stays absent");
        let cfg = TrainerConfig::from_json(
            r#"{ "params": 8, "subgroup_size": 4,
                 "monitor": { "listen": "127.0.0.1:0" } }"#,
        )
        .unwrap();
        let mon = cfg.monitor.clone().unwrap();
        assert_eq!(mon.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(mon.flight_capacity, 4096);
        assert!(mon.health);
        let again = TrainerConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(again.monitor, Some(mon));
        // Typos inside the entry fail fast like everywhere else.
        assert!(TrainerConfig::from_json(
            r#"{ "params": 8, "subgroup_size": 4, "monitor": { "listne": "x" } }"#
        )
        .is_err());
    }

    #[test]
    fn collectives_entry_parses_validates_and_round_trips() {
        let cfg = TrainerConfig::from_json(r#"{ "params": 8, "subgroup_size": 4 }"#).unwrap();
        assert!(cfg.collectives.is_none(), "absent entry stays absent");

        let cfg = TrainerConfig::from_json(
            r#"{ "params": 8, "subgroup_size": 4,
                 "collectives": { "collective_timeout_ms": 2000,
                                  "on_rank_failure": "elastic" } }"#,
        )
        .unwrap();
        cfg.validate().unwrap();
        let c = cfg.collectives.clone().unwrap();
        assert_eq!(c.transport, "inproc");
        assert_eq!(c.collective_timeout_ms, Some(2000));
        assert_eq!(c.on_rank_failure, "elastic");
        let again = TrainerConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(again.collectives, Some(c));

        // The UDS backend needs a rendezvous directory.
        let cfg = TrainerConfig::from_json(
            r#"{ "params": 8, "subgroup_size": 4, "collectives": { "transport": "uds" } }"#,
        )
        .unwrap();
        assert!(matches!(cfg.validate(), Err(TrainerError::Invalid { .. })));
        let cfg = TrainerConfig::from_json(
            r#"{ "params": 8, "subgroup_size": 4,
                 "collectives": { "transport": "uds", "socket_dir": "/tmp/dos-uds" } }"#,
        )
        .unwrap();
        cfg.validate().unwrap();

        // Unknown names and typos fail fast.
        for bad in [
            r#"{ "params": 8, "subgroup_size": 4, "collectives": { "transport": "rdma" } }"#,
            r#"{ "params": 8, "subgroup_size": 4,
                 "collectives": { "on_rank_failure": "shrug" } }"#,
        ] {
            assert!(TrainerConfig::from_json(bad).unwrap().validate().is_err(), "{bad}");
        }
        assert!(TrainerConfig::from_json(
            r#"{ "params": 8, "subgroup_size": 4, "collectives": { "transprot": "uds" } }"#
        )
        .is_err());
    }

    #[test]
    fn zenflow_entry_parses_validates_and_round_trips() {
        let cfg = TrainerConfig::from_json(r#"{ "params": 8, "subgroup_size": 4 }"#).unwrap();
        assert_eq!(cfg.scheduler, "hybrid");
        assert!(!cfg.is_zenflow());
        cfg.validate().unwrap();

        let cfg = TrainerConfig::from_json(
            r#"{ "params": 48, "subgroup_size": 8, "scheduler": "zenflow_async",
                 "importance_ratio": 0.25, "staleness_bound": 2 }"#,
        )
        .unwrap();
        assert!(cfg.is_zenflow());
        cfg.validate().unwrap();
        let zf = cfg.zenflow();
        assert_eq!(zf.importance_ratio, 0.25);
        assert_eq!(zf.staleness_bound, 2);
        let again = TrainerConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(again.scheduler, "zenflow_async");
        assert_eq!(again.importance_ratio, 0.25);

        for bad in [
            r#"{ "params": 8, "subgroup_size": 4, "scheduler": "zenflow" }"#,
            r#"{ "params": 8, "subgroup_size": 4, "scheduler": "zenflow_async",
                 "importance_ratio": 0.0 }"#,
            r#"{ "params": 8, "subgroup_size": 4, "scheduler": "zenflow_async",
                 "importance_ratio": 1.5 }"#,
            r#"{ "params": 8, "subgroup_size": 4, "scheduler": "zenflow_async",
                 "staleness_bound": 0 }"#,
        ] {
            assert!(
                matches!(
                    TrainerConfig::from_json(bad).unwrap().validate(),
                    Err(TrainerError::Invalid { .. })
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn new_matches_the_minimal_document() {
        let parsed = TrainerConfig::from_json(r#"{ "params": 8, "subgroup_size": 4 }"#).unwrap();
        assert_eq!(TrainerConfig::new(8, 4), parsed);
    }

    #[test]
    fn stride_entries_round_trip_through_policies() {
        for entry in [
            StrideEntry::Fixed(3),
            StrideEntry::Auto,
            StrideEntry::Named(NamedStride::CpuOnly),
            StrideEntry::Named(NamedStride::Adaptive),
        ] {
            assert_eq!(StrideEntry::from(entry.to_policy()), entry);
        }
    }

    #[test]
    fn round_trips_through_json() {
        let cfg = TrainerConfig::from_json(
            r#"{ "params": 48, "subgroup_size": 8, "rule": "adamw", "weight_decay": 0.1,
                 "static_residents": 1,
                 "deep_optimizer_states": { "update_stride": 2 } }"#,
        )
        .unwrap();
        let again = TrainerConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(again.params, 48);
        assert_eq!(again.rule, "adamw");
        assert_eq!(again.pipeline().stride, StridePolicy::Fixed(2));
        assert_eq!(again.static_residents, 1);
    }
}
