//! # dos-control — adaptive feedback control plane
//!
//! The paper solves Equation 1 *once*, from standalone calibration runs,
//! and pins the update stride `k` for the whole training job. This crate
//! closes the loop instead: it watches the spans every iteration actually
//! produced, maintains online estimates of Equation 1's four inputs, and
//! retunes the schedule while training runs.
//!
//! The control loop is a classic estimator → solver → hysteresis →
//! actuator pipeline:
//!
//! * [`InputEstimators`] — per-input EWMA estimators of `U_c`, `U_g`, `B`
//!   (per PCIe direction), and `D_c`, fed from either clock: simulated
//!   interval logs ([`InputEstimators::observe_sim_timeline`]) or
//!   wall-clock spans from `hybrid_update_pooled`
//!   ([`InputEstimators::observe_wall_events`]). Observed CPU throughputs
//!   are divided by the known DRAM-contention factor while interleaving is
//!   active, so the estimates stay comparable to the paper's standalone
//!   measurements.
//! * [`Controller`] — implements `dos-sim`'s `IterationController` hook:
//!   re-solves Equation 1 on the current estimates each iteration, retunes
//!   the stride only when the *predicted* gain clears a hysteresis
//!   threshold (so `k` never oscillates), sizes the GPU-resident tail
//!   against observed `MemoryPool` headroom ([`ResidentPolicy`]), and
//!   drives the degradation ladder ([`LadderRung`]: DOS → residents-only →
//!   CPU-only) as explicit state transitions *with recovery edges*.
//! * [`race_adaptive_vs_static`] — the experiment driver: races the
//!   adaptive controller against the paper's static `StridePolicy::Auto`
//!   under a pinned, iteration-indexed fault plan ([`DegradationSpec`])
//!   and reports both arms' update times plus the full decision log.
//! * [`WallClockTuner`] — the functional-trainer variant: the same
//!   hysteresis loop fed purely from wall-clock pipeline spans, used by
//!   `dos-runtime` when a config selects `"adaptive"` stride.
//!
//! Every decision is recorded as a [`ControlDecision`] and, when a tracer
//! is attached, as a `control:*` instant on the dedicated `control` track
//! (`dos_telemetry::CONTROL_TRACK`), so retunes and ladder transitions are
//! visible next to the schedule they changed in the exported Perfetto
//! trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The control plane sits on the training path: failures must surface as
// values, not panics; tests may assert freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod controller;
mod driver;
mod estimator;
mod gate;

pub use controller::{
    ControlDecision, Controller, ControllerConfig, DecisionKind, LadderRung, ResidentPolicy,
    WallClockTuner, WallClockTunerConfig,
};
pub use driver::{fault_plan_for, race_adaptive_vs_static, DegradationSpec, RaceReport};
pub use estimator::{Ewma, InputEstimators};
pub use gate::{SweepGate, SweepOutcome};
