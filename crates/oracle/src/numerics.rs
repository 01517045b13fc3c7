//! The numerics oracle: the functional threaded pipeline vs. a sequential
//! CPU update.
//!
//! §4.1's correctness claim is that out-of-order, cross-device subgroup
//! updates are *bitwise* identical to updating every subgroup sequentially
//! on the CPU. The oracle drives [`dos_core::hybrid_update_pooled`] (real threads,
//! real channels) and a sequential [`MixedPrecisionState::full_step`] twin
//! through several steps for every update rule × stride policy × resident
//! count, then compares parameters, momentum, variance, and the downscaled
//! FP16 parameters bit-for-bit.

use serde::{Deserialize, Serialize};

use dos_core::{hybrid_update_pooled, ArenaPool, PipelineConfig, StridePolicy};
use dos_optim::{MixedPrecisionState, UpdateRule};
use dos_tensor::F16;
use dos_zero::partition_into_subgroups;

use crate::report::{Divergence, DivergenceReport};

/// One numerics-oracle scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericsCase {
    /// Update rule under test.
    pub rule: UpdateRule,
    /// Stride policy driven through the pipeline.
    pub stride: StridePolicy,
    /// Trailing subgroups treated as static device residents.
    pub static_residents: usize,
    /// Flat parameter count (deliberately not a multiple of the subgroup).
    pub params: usize,
    /// Subgroup size.
    pub subgroup: usize,
    /// Optimizer steps to run (catches step-count/bias-correction drift).
    pub steps: usize,
}

impl NumericsCase {
    /// The coordinate string the evaluated cell will carry,
    /// `<rule>/<stride>/residents=<n>` — computable before the case runs,
    /// so `--filter` can skip cases instead of evaluating them.
    pub fn coordinates(&self) -> String {
        format!(
            "{}/{}/residents={}",
            self.rule.name(),
            stride_name(self.stride),
            self.static_residents
        )
    }
}

/// The outcome of one evaluated numerics cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumericsCell {
    /// Rule name (`adam`, `adamw`, `adagrad`, `rmsprop`).
    pub rule: String,
    /// Stride coordinate (`k=N`, `auto`, `cpu-only`).
    pub stride: String,
    /// Static resident subgroups.
    pub static_residents: usize,
    /// `None` when byte-exact; otherwise the first observed mismatch.
    pub mismatch: Option<String>,
}

impl NumericsCell {
    /// Cell coordinates for divergence reporting.
    pub fn coordinates(&self) -> String {
        format!("{}/{}/residents={}", self.rule, self.stride, self.static_residents)
    }
}

fn stride_name(stride: StridePolicy) -> String {
    match stride {
        StridePolicy::Auto => "auto".to_string(),
        StridePolicy::Adaptive => "adaptive".to_string(),
        StridePolicy::CpuOnly => "cpu-only".to_string(),
        StridePolicy::Fixed(k) => format!("k={k}"),
    }
}

/// Deterministic, rule-agnostic synthetic inputs.
fn initial_params(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 13 + 5) % 31) as f32 / 31.0 - 0.4).collect()
}

fn gradients(n: usize, step: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (((i * 7 + 3 * step + 1) % 29) as f32 / 29.0 - 0.5) * (step as f32 + 1.0))
        .collect()
}

fn first_f32_mismatch(what: &str, got: &[f32], want: &[f32]) -> Option<String> {
    got.iter().zip(want).enumerate().find(|(_, (a, b))| a.to_bits() != b.to_bits()).map(
        |(i, (a, b))| {
            format!("{what}[{i}] = {a:?} (bits {:#010x}), sequential {b:?} (bits {:#010x})",
                a.to_bits(), b.to_bits())
        },
    )
}

/// Runs one case: `steps` hybrid steps against a sequential twin, comparing
/// the full [`MixedPrecisionState`] and FP16 outputs bitwise after each
/// step. Returns `None` on byte-exact agreement.
pub fn run_case(case: &NumericsCase) -> NumericsCell {
    let lr = 0.01;
    let mut seq = MixedPrecisionState::new(initial_params(case.params), case.rule, lr);
    let mut hyb = MixedPrecisionState::new(initial_params(case.params), case.rule, lr);
    let sgs = partition_into_subgroups(case.params, case.subgroup);
    let cfg = PipelineConfig {
        stride: case.stride,
        static_residents: case.static_residents,
        ..PipelineConfig::default()
    };

    let pool = ArenaPool::new();
    let mut mismatch = None;
    for step in 0..case.steps {
        let grads = gradients(case.params, step);
        seq.full_step(&grads);
        let expected_16: Vec<F16> = seq.downscale_range(0..case.params);
        let report = match hybrid_update_pooled(&mut hyb, &grads, &sgs, cfg, None, &pool) {
            Ok(report) => report,
            Err(e) => {
                mismatch = Some(format!("step {step}: pipeline error: {e}"));
                break;
            }
        };

        mismatch = first_f32_mismatch("params", hyb.params(), seq.params())
            .or_else(|| first_f32_mismatch("momentum", hyb.momentum(), seq.momentum()))
            .or_else(|| first_f32_mismatch("variance", hyb.variance(), seq.variance()))
            .or_else(|| {
                report.fp16_params.iter().zip(&expected_16).position(|(a, b)| a != b).map(|i| {
                    format!(
                        "fp16[{i}] = {:?}, sequential {:?}",
                        report.fp16_params[i], expected_16[i]
                    )
                })
            })
            .map(|m| format!("step {step}: {m}"));
        if mismatch.is_some() {
            break;
        }
    }

    NumericsCell {
        rule: case.rule.name().to_string(),
        stride: stride_name(case.stride),
        static_residents: case.static_residents,
        mismatch,
    }
}

/// The default case matrix: all four rules × all stride policies
/// (CPU-only, auto, k ∈ 1..=max_stride) × resident counts {0, 2}.
pub fn default_cases(max_stride: usize) -> Vec<NumericsCase> {
    let rules =
        [UpdateRule::adam(), UpdateRule::adamw(0.01), UpdateRule::adagrad(), UpdateRule::rmsprop()];
    let mut policies = vec![StridePolicy::CpuOnly, StridePolicy::Auto];
    policies.extend((1..=max_stride).map(StridePolicy::Fixed));
    let mut cases = Vec::new();
    for rule in rules {
        for &stride in &policies {
            for residents in [0, 2] {
                cases.push(NumericsCase {
                    rule,
                    stride,
                    static_residents: residents,
                    params: 257,
                    subgroup: 32,
                    steps: 3,
                });
            }
        }
    }
    cases
}

/// Runs a set of cases and folds the non-exact ones into a
/// [`DivergenceReport`].
pub fn run_cases(cases: &[NumericsCase]) -> (Vec<NumericsCell>, DivergenceReport) {
    run_cases_filtered(cases, None)
}

/// Like [`run_cases`], but only evaluates cases whose coordinate string
/// (see [`NumericsCase::coordinates`]) contains `filter`.
pub fn run_cases_filtered(
    cases: &[NumericsCase],
    filter: Option<&str>,
) -> (Vec<NumericsCell>, DivergenceReport) {
    let cells: Vec<NumericsCell> = cases
        .iter()
        .filter(|c| filter.is_none_or(|f| c.coordinates().contains(f)))
        .map(run_case)
        .collect();
    let report = DivergenceReport {
        cells_checked: cells.len(),
        divergences: cells
            .iter()
            .filter(|c| c.mismatch.is_some())
            .map(|c| Divergence {
                oracle: "numerics".to_string(),
                cell: c.coordinates(),
                expected: "byte-exact vs sequential CPU update".to_string(),
                observed: c.mismatch.clone().unwrap_or_default(),
            })
            .collect(),
    };
    (cells, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_rules_and_strides_are_byte_exact() {
        let (cells, report) = run_cases(&default_cases(5));
        assert_eq!(cells.len(), 4 * 7 * 2);
        assert!(
            report.is_conformant(),
            "numerics divergences:\n{}",
            report.render_table()
        );
    }

    #[test]
    fn a_numerics_bug_is_named_precisely() {
        // Simulate the classic seed bug — a device-side step-count skew
        // (missing `begin_step`) — by running the hybrid update against a
        // sequential twin that is one step ahead.
        let case = NumericsCase {
            rule: UpdateRule::adam(),
            stride: StridePolicy::Fixed(2),
            static_residents: 0,
            params: 128,
            subgroup: 32,
            steps: 1,
        };
        let mut seq = MixedPrecisionState::new(initial_params(case.params), case.rule, 0.01);
        let mut hyb = MixedPrecisionState::new(initial_params(case.params), case.rule, 0.01);
        let sgs = partition_into_subgroups(case.params, case.subgroup);
        let grads = gradients(case.params, 0);
        seq.full_step(&grads); // extra warm-up step: skewed bias correction
        seq.full_step(&grads);
        hybrid_update_pooled(
            &mut hyb,
            &grads,
            &sgs,
            PipelineConfig { stride: case.stride, ..PipelineConfig::default() },
            None,
            &ArenaPool::new(),
        )
        .unwrap();
        let m = first_f32_mismatch("params", hyb.params(), seq.params());
        assert!(m.is_some(), "skewed step count must not be byte-exact");
        assert!(m.unwrap().starts_with("params[0]"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite property for the vectorized-kernel rewrite: every
        /// rule × every stride policy, with `params`/`subgroup` forced odd
        /// so no length is a multiple of any SIMD lane width or of the
        /// kernels' chunk sizes — the remainder path is always exercised.
        #[test]
        fn all_rules_and_policies_stay_byte_exact_on_odd_shapes(
            rule_ix in 0usize..4,
            policy_ix in 0usize..4,
            params in 64usize..400,
            subgroup in 16usize..96,
            residents in 0usize..3,
        ) {
            let rules = [
                UpdateRule::adam(),
                UpdateRule::adamw(0.01),
                UpdateRule::adagrad(),
                UpdateRule::rmsprop(),
            ];
            let policies = [
                StridePolicy::CpuOnly,
                StridePolicy::Auto,
                StridePolicy::Adaptive,
                StridePolicy::Fixed(1 + params % 5),
            ];
            let cell = run_case(&NumericsCase {
                rule: rules[rule_ix],
                stride: policies[policy_ix],
                static_residents: residents,
                params: params | 1,
                subgroup: subgroup | 1,
                steps: 2,
            });
            prop_assert!(cell.mismatch.is_none(), "diverged: {:?}", cell.mismatch);
        }

        #[test]
        fn random_shapes_stay_byte_exact(
            params in 64usize..400,
            subgroup in 16usize..96,
            k in 1usize..6,
            residents in 0usize..3,
        ) {
            let cell = run_case(&NumericsCase {
                rule: UpdateRule::adamw(0.005),
                stride: StridePolicy::Fixed(k),
                static_residents: residents,
                params,
                subgroup,
                steps: 2,
            });
            prop_assert!(cell.mismatch.is_none(), "diverged: {:?}", cell.mismatch);
        }
    }
}
