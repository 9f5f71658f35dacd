//! Criterion: raw predict/update throughput of every dynamic predictor on a
//! fixed pre-generated branch stream (events/second per scheme).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_trace::{BranchEvent, BranchSource};
use sdbp_workloads::{Benchmark, InputSet, Workload};

fn fixed_stream(n_instructions: u64) -> Vec<BranchEvent> {
    Workload::spec95(Benchmark::Gcc)
        .generator(InputSet::Ref, 2000)
        .take_instructions(n_instructions)
        .collect_trace()
        .into_iter()
        .collect()
}

fn bench_predictors(c: &mut Criterion) {
    let events = fixed_stream(400_000);
    let mut group = c.benchmark_group("predict_update");
    group.throughput(Throughput::Elements(events.len() as u64));
    for kind in PredictorKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |b, &kind| {
            b.iter(|| {
                let mut p = PredictorConfig::new(kind, 8 * 1024)
                    .expect("valid size")
                    .build();
                let mut mispredicts = 0u64;
                for e in &events {
                    let pred = p.predict_update(e.pc, e.taken);
                    mispredicts += u64::from(pred.taken != e.taken);
                }
                mispredicts
            })
        });
    }
    group.finish();
}

fn bench_predictor_sizes(c: &mut Criterion) {
    let events = fixed_stream(200_000);
    let mut group = c.benchmark_group("gshare_size");
    group.throughput(Throughput::Elements(events.len() as u64));
    for size_kb in [1usize, 8, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{size_kb}KB")),
            &size_kb,
            |b, &size_kb| {
                b.iter(|| {
                    let mut p = PredictorConfig::new(PredictorKind::Gshare, size_kb * 1024)
                        .expect("valid size")
                        .build();
                    let mut mispredicts = 0u64;
                    for e in &events {
                        let pred = p.predict_update(e.pc, e.taken);
                        mispredicts += u64::from(pred.taken != e.taken);
                    }
                    mispredicts
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_predictors, bench_predictor_sizes
}
criterion_main!(benches);
