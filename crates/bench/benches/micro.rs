//! Criterion micro-benchmarks of the functional kernels: precision
//! conversion (Table 1's software counterpart), Adam update throughput,
//! the hybrid pipeline, and the discrete-event engine itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dos::core::{hybrid_update_pooled, ArenaPool, PipelineConfig, StridePolicy};
use dos::optim::{MixedPrecisionState, UpdateRule};
use dos::tensor::convert::{downscale_f32_chunked, upscale_f16_chunked};
use dos::tensor::F16;
use dos::zero::partition_into_subgroups;

fn bench_conversion(c: &mut Criterion) {
    let n = 1 << 18;
    let src32: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
    let src16: Vec<F16> = src32.iter().map(|&x| F16::from_f32(x)).collect();
    let mut g = c.benchmark_group("precision-conversion");
    g.throughput(Throughput::Bytes((n * 4) as u64));
    g.bench_function("downscale_f32_to_f16", |b| {
        let mut dst = vec![F16::ZERO; n];
        b.iter(|| downscale_f32_chunked(&src32, &mut dst, 8192).unwrap());
    });
    g.bench_function("upscale_f16_to_f32", |b| {
        let mut dst = vec![0.0f32; n];
        b.iter(|| upscale_f16_chunked(&src16, &mut dst, 8192).unwrap());
    });
    g.finish();
}

fn bench_adam(c: &mut Criterion) {
    let n = 1 << 18;
    let grads: Vec<f32> = (0..n).map(|i| (i as f32).cos() * 0.01).collect();
    let mut g = c.benchmark_group("adam-update");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("full_step", |b| {
        let mut state =
            MixedPrecisionState::new(vec![0.5; n], UpdateRule::adam(), 1e-3);
        b.iter(|| state.full_step(&grads));
    });
    g.finish();
}

fn bench_hybrid_pipeline(c: &mut Criterion) {
    let n = 1 << 18;
    let grads: Vec<f32> = (0..n).map(|i| (i as f32).cos() * 0.01).collect();
    let subgroups = partition_into_subgroups(n, 1 << 14);
    let mut g = c.benchmark_group("hybrid-pipeline");
    g.throughput(Throughput::Elements(n as u64));
    for stride in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("stride", stride), &stride, |b, &k| {
            let mut state =
                MixedPrecisionState::new(vec![0.5; n], UpdateRule::adam(), 1e-3);
            let cfg = PipelineConfig { stride: StridePolicy::Fixed(k), ..Default::default() };
            let pool = ArenaPool::new();
            b.iter(|| {
                hybrid_update_pooled(&mut state, &grads, &subgroups, cfg, None, &pool).unwrap()
            });
        });
    }
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    use dos::hal::{OpSpec, ResourceKind, Simulator};
    c.bench_function("engine/submit-10k-ops", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            let gpu = sim.add_resource("gpu", ResourceKind::GpuCompute, 1e9);
            let s = sim.add_stream("s");
            let mut last = None;
            for _ in 0..10_000 {
                let mut spec = OpSpec::compute(gpu, 1e6).on(s);
                if let Some(op) = last {
                    spec = spec.after(op);
                }
                last = Some(sim.submit(spec).unwrap());
            }
            sim.makespan()
        });
    });
}

fn bench_transformer(c: &mut Criterion) {
    use dos::nn::{Gpt, GptConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0);
    let cfg = GptConfig { vocab_size: 256, max_seq: 32, dim: 64, num_layers: 2, num_heads: 4, init_std: 0.05 };
    let mut model = Gpt::new(cfg, &mut rng);
    let tokens: Vec<usize> = (0..64).map(|i| i % 256).collect();
    let targets: Vec<usize> = (0..64).map(|i| (i + 1) % 256).collect();
    let mut g = c.benchmark_group("transformer");
    g.throughput(Throughput::Elements(64));
    g.bench_function("forward", |b| {
        b.iter(|| model.forward(&tokens, 2, 32));
    });
    g.bench_function("forward+backward", |b| {
        b.iter(|| model.loss_and_backward(&tokens, &targets, 2, 32));
    });
    g.bench_function("forward+backward checkpointed", |b| {
        b.iter(|| model.loss_and_backward_checkpointed(&tokens, &targets, 2, 32));
    });
    g.finish();
}

fn bench_collectives(c: &mut Criterion) {
    use dos::collectives::Communicator;
    use std::thread;
    let n = 1 << 14;
    let mut g = c.benchmark_group("collectives");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("all_reduce_4_ranks", |b| {
        b.iter(|| {
            let comms = Communicator::world(4);
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    thread::spawn(move || {
                        let mut data = vec![comm.rank() as f32; n];
                        comm.all_reduce_sum(&mut data).unwrap();
                        data[0]
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<f32>()
        });
    });
    g.finish();
}

fn bench_bpe(c: &mut Criterion) {
    use dos::data::{BpeTokenizer, Corpus};
    let corpus = Corpus::synthetic(3, 100);
    let text = corpus.joined_text();
    let tok = BpeTokenizer::train(&text, 512);
    let mut g = c.benchmark_group("bpe");
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("encode-corpus", |b| {
        b.iter(|| tok.encode(&text).len());
    });
    g.bench_function("train-512", |b| {
        b.iter(|| BpeTokenizer::train(&text[..text.len().min(4000)], 300).vocab_size());
    });
    g.finish();
}

fn bench_simulation(c: &mut Criterion) {
    use dos::core::{DeepOptimizerStates, Zero3Offload};
    use dos::hal::HardwareProfile;
    use dos::nn::ModelSpec;
    use dos::sim::{simulate_iteration, TrainConfig};
    let mut g = c.benchmark_group("simulator");
    g.bench_function("iteration-20b-zero3", |b| {
        let cfg = TrainConfig::baseline(
            ModelSpec::by_name("20B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        b.iter(|| simulate_iteration(&cfg, &Zero3Offload).unwrap().total_secs);
    });
    g.bench_function("iteration-20b-dos", |b| {
        let cfg = TrainConfig::deep_optimizer_states(
            ModelSpec::by_name("20B").unwrap(),
            HardwareProfile::jlse_h100(),
        );
        b.iter(|| {
            simulate_iteration(&cfg, &DeepOptimizerStates::default()).unwrap().total_secs
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_conversion,
    bench_adam,
    bench_hybrid_pipeline,
    bench_engine,
    bench_transformer,
    bench_collectives,
    bench_bpe,
    bench_simulation
);
criterion_main!(benches);
