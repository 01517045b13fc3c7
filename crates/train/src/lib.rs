//! `dos-train`: the JSON-configured [`Trainer`] facade over the
//! functional hybrid-update pipeline.
//!
//! The paper's middleware is "enabled and configured through a single
//! JSON entry in the configuration file given to the training runtime"
//! (§4.4). This crate is that surface for the *functional* stack: a
//! [`TrainerConfig`] document (update rule, learning rate, subgroup
//! partitioning, and the `"deep_optimizer_states"` entry) resolves into a
//! [`Trainer`] that steps a [`dos_optim::MixedPrecisionState`] through
//! [`dos_core::hybrid_update_pooled`] with a per-trainer staging
//! [`dos_core::ArenaPool`]. Under `"update_stride": "adaptive"` the
//! trainer retunes stride and residents every step with a
//! [`dos_control::WallClockTuner`].
//!
//! It sits *below* `dos-runtime` in the crate graph on purpose:
//! `dos-check`'s differential fuzzer drives its numerics arm through this
//! config surface (so a config-file typo or entry-resolution bug is a
//! fuzzable event, not just a unit-test concern), while `dos-runtime` —
//! which depends on `dos-check` for the CLI — re-exports the shared entry
//! types ([`DosEntry`], [`StrideEntry`], [`NamedStride`]) for its own
//! simulator-facing `RuntimeConfig` document.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod config;
pub mod trainer;

pub use checkpoint::{AsyncCheckpointer, CheckpointError, CheckpointStore, TrainingCheckpoint};
pub use config::{
    CollectivesEntry, DosEntry, MonitorEntry, NamedStride, StrideEntry, TrainerConfig, TrainerError,
};
pub use trainer::Trainer;
