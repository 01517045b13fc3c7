//! Integration tests of the functional stack: tokenizer → dataset →
//! data-parallel threads → collectives → sharded optimizer → interleaved
//! hybrid pipeline, with real numerics end to end.

use dos::core::{hybrid_update_pooled, ArenaPool, PipelineConfig, StridePolicy};
use dos::data::{BpeTokenizer, Corpus, TokenDataset};
use dos::nn::{Gpt, GptConfig, VisitParams};
use dos::optim::{GradPrecision, MixedPrecisionState, ModelOptimizer, UpdateRule};
use dos::zero::partition_into_subgroups;
use dos_runtime::{train_functional, FunctionalConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn real_dataset(seq: usize) -> (BpeTokenizer, TokenDataset) {
    let corpus = Corpus::synthetic(7, 200);
    let tokenizer = BpeTokenizer::train(&corpus.joined_text(), 384);
    let dataset = TokenDataset::pack(&corpus, &tokenizer, seq);
    (tokenizer, dataset)
}

/// The full data path produces trainable batches and the model learns them.
#[test]
fn corpus_to_convergence() {
    let (tokenizer, dataset) = real_dataset(12);
    assert!(dataset.len() > 20, "dataset too small: {}", dataset.len());
    let cfg = FunctionalConfig {
        model: GptConfig {
            vocab_size: tokenizer.vocab_size(),
            max_seq: 12,
            dim: 24,
            num_layers: 2,
            num_heads: 2,
            init_std: 0.07,
        },
        world: 2,
        micro_batch: 2,
        ..FunctionalConfig::small()
    };
    let r = train_functional(&cfg, &dataset, 15).unwrap();
    assert!(r.ranks_consistent);
    let early: f32 = r.losses[..3].iter().sum::<f32>() / 3.0;
    let late: f32 = r.losses[12..].iter().sum::<f32>() / 3.0;
    assert!(late < early, "no learning: {early} -> {late}");
}

/// The interleaved pipeline matches a plain `ModelOptimizer` trajectory
/// when the data and model are identical (single rank, FP32 grads).
#[test]
fn pipeline_matches_reference_optimizer() {
    let (_, dataset) = real_dataset(8);
    let gcfg = GptConfig { vocab_size: 384, max_seq: 8, dim: 16, num_layers: 1, num_heads: 2, init_std: 0.08 };

    // Reference: monolithic optimizer, fp16-rounded write-back.
    let mut rng = StdRng::seed_from_u64(99);
    let mut ref_model = Gpt::new(gcfg.clone(), &mut rng);
    let mut ref_opt = ModelOptimizer::new(
        &mut ref_model,
        UpdateRule::adam(),
        5e-3,
        GradPrecision::Fp32,
        true,
    );

    // Pipeline path: same model, hybrid updates over 7-element subgroups.
    let mut rng = StdRng::seed_from_u64(99);
    let mut pipe_model = Gpt::new(gcfg, &mut rng);
    let n = pipe_model.num_params();
    let mut state = MixedPrecisionState::new(pipe_model.gather_params(), UpdateRule::adam(), 5e-3);
    let subgroups = partition_into_subgroups(n, 1000);
    let pipe_cfg = PipelineConfig {
        stride: StridePolicy::Fixed(3),
        static_residents: 1,
        ..PipelineConfig::default()
    };

    let mut loader = dos::data::DataLoader::new(0, 1, 2, 5);
    let pool = ArenaPool::new();
    for _ in 0..4 {
        let batch = loader.next_batch(&dataset);
        let l1 = ref_model.loss_and_backward(&batch.inputs, &batch.targets, batch.batch, batch.seq_len);
        let l2 =
            pipe_model.loss_and_backward(&batch.inputs, &batch.targets, batch.batch, batch.seq_len);
        assert_eq!(l1, l2, "losses diverged before update");
        ref_opt.step(&mut ref_model);

        let grads = pipe_model.gather_grads();
        let report =
            hybrid_update_pooled(&mut state, &grads, &subgroups, pipe_cfg, None, &pool).unwrap();
        let fp16: Vec<f32> = report.fp16_params.iter().map(|h| h.to_f32()).collect();
        pipe_model.scatter_params(&fp16);
        pipe_model.zero_grads();

        assert_eq!(ref_opt.state().params(), state.params(), "master weights diverged");
        assert_eq!(ref_model.gather_params(), pipe_model.gather_params(), "device copies diverged");
    }
}

/// Stride and residents sweep at a realistic parameter count: every
/// configuration is bitwise identical.
#[test]
fn pipeline_configurations_agree_at_scale() {
    let n = 200_000;
    let init: Vec<f32> = (0..n).map(|i| ((i % 997) as f32 / 997.0) - 0.5).collect();
    let grads: Vec<f32> = (0..n).map(|i| ((i % 613) as f32 / 613.0) - 0.5).collect();
    let subgroups = partition_into_subgroups(n, 9_973);

    let mut reference = MixedPrecisionState::new(init.clone(), UpdateRule::adamw(0.01), 0.01);
    reference.full_step(&grads);

    let pool = ArenaPool::new();
    for (stride, residents) in [
        (StridePolicy::Fixed(2), 0),
        (StridePolicy::Fixed(2), 3),
        (StridePolicy::Fixed(5), 1),
        (StridePolicy::Fixed(1), 0),
        (StridePolicy::CpuOnly, 4),
    ] {
        let mut state = MixedPrecisionState::new(init.clone(), UpdateRule::adamw(0.01), 0.01);
        let cfg = PipelineConfig { stride, static_residents: residents, ..Default::default() };
        hybrid_update_pooled(&mut state, &grads, &subgroups, cfg, None, &pool).unwrap();
        assert_eq!(
            reference.params(),
            state.params(),
            "stride {stride:?}, residents {residents} diverged"
        );
    }
}

/// Gradient-precision paths stay close but are distinguishable — the FP16
/// flush rounds, the FP32 path does not (Figure 6's correctness backdrop).
#[test]
fn gradient_precision_paths() {
    let gcfg = GptConfig::tiny();
    let mut rng = StdRng::seed_from_u64(3);
    let mut m = Gpt::new(gcfg, &mut rng);
    m.loss_and_backward(&[1, 2, 3, 4, 5, 6, 7, 8], &[2, 3, 4, 5, 6, 7, 8, 9], 2, 4);
    let opt32 = ModelOptimizer::new(&mut m, UpdateRule::adam(), 1e-2, GradPrecision::Fp32, false);
    let opt16 =
        ModelOptimizer::new(&mut m, UpdateRule::adam(), 1e-2, GradPrecision::Fp16Flush, false);
    let g32 = opt32.gather_grads(&mut m);
    let g16 = opt16.gather_grads(&mut m);
    assert_ne!(g32, g16, "fp16 flush should round at least one gradient");
    // Gradients comfortably inside FP16's normal range round within 2^-11;
    // tiny ones underflow entirely — the very hazard loss scaling exists
    // for, and part of why the paper's FP32 path also helps numerically.
    let max_rel: f32 = g32
        .iter()
        .zip(g16.iter())
        .filter(|(a, _)| a.abs() > 1e-4)
        .map(|(a, b)| (a - b).abs() / a.abs())
        .fold(0.0, f32::max);
    assert!(max_rel < 1e-2, "fp16 rounding error too large: {max_rel}");
    let underflows = g32
        .iter()
        .zip(g16.iter())
        .filter(|(a, b)| **a != 0.0 && **b == 0.0)
        .count();
    assert!(underflows < g32.len() / 2, "implausibly many fp16 underflows: {underflows}");
}
