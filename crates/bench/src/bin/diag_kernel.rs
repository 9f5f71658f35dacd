//! Diagnostic: per-layer timing of the simulation kernel for gshare-4KB on
//! one benchmark stream — raw table loop, enum dispatch, combined resolve,
//! full simulator — to localize where the per-branch time goes.

use sdbp_bench::kernel::ReferenceGshare;
use sdbp_core::{ArtifactCache, CombinedPredictor, Simulator};
use sdbp_passes::{FnPass, PassRunner};
use sdbp_predictors::{AnyPredictor, DynamicPredictor, Gshare};
use sdbp_trace::{BranchEvent, SliceSource};
use sdbp_workloads::{Benchmark, InputSet};
use std::hint::black_box;
use std::time::Instant;

#[allow(clippy::needless_range_loop)]
fn main() {
    let cache = ArtifactCache::new();
    let events = cache.events(Benchmark::Gcc, InputSet::Ref, sdbp_bench::SEED, 8_000_000);
    let n = events.len() as f64;
    let reps = 5;

    let time = |label: &str, f: &mut dyn FnMut() -> u64| {
        let mut best = f64::INFINITY;
        let mut out = 0;
        for _ in 0..reps {
            let started = Instant::now();
            out = black_box(f());
            best = best.min(started.elapsed().as_secs_f64());
        }
        println!(
            "{label:<34} {:>7.2} Mbr/s  {:>6.2} ns/branch  (check {out})",
            n / best / 1e6,
            best / n * 1e9
        );
    };

    time("packed gshare, concrete loop", &mut || {
        let mut p = Gshare::new(4096);
        let mut misses = 0u64;
        for e in events.iter() {
            let pred = p.predict_update(e.pc, e.taken);
            misses += u64::from(pred.taken != e.taken);
        }
        misses
    });

    time("reference gshare, concrete loop", &mut || {
        let mut p = ReferenceGshare::new(4096);
        let mut misses = 0u64;
        for e in events.iter() {
            let pred = p.predict_update(e.pc, e.taken);
            misses += u64::from(pred.taken != e.taken);
        }
        misses
    });

    time("reference gshare, Box<dyn> loop", &mut || {
        let boxed: Box<dyn DynamicPredictor> = Box::new(ReferenceGshare::new(4096));
        let mut p = black_box(boxed);
        let mut misses = 0u64;
        for e in events.iter() {
            let pred = p.predict_update(e.pc, e.taken);
            misses += u64::from(pred.taken != e.taken);
        }
        misses
    });

    time("packed gshare, AnyPredictor loop", &mut || {
        let mut p: AnyPredictor = Gshare::new(4096).into();
        let mut misses = 0u64;
        for e in events.iter() {
            let pred = p.predict_update(e.pc, e.taken);
            misses += u64::from(pred.taken != e.taken);
        }
        misses
    });

    time("packed gshare, resolve loop", &mut || {
        let mut p = CombinedPredictor::pure_dynamic(Gshare::new(4096));
        let mut misses = 0u64;
        for e in events.iter() {
            let r = p.resolve(e);
            misses += u64::from(r.predicted_taken != e.taken);
        }
        misses
    });

    // The chunked layers ride the pass runner (its default chunk matches
    // the simulator's batch size), so this times exactly the framework path
    // the production consumers use rather than a hand-rolled replica.
    time("packed gshare, batch pass", &mut || {
        let mut p: AnyPredictor = Gshare::new(4096).into();
        let mut out = Vec::with_capacity(4096);
        let mut misses = 0u64;
        let mut pass = FnPass::new("batch", |chunk: &[BranchEvent]| {
            out.clear();
            p.predict_update_batch(chunk, &mut out);
            for (e, pred) in chunk.iter().zip(&out) {
                misses += u64::from(pred.taken != e.taken);
            }
        });
        PassRunner::new().run(SliceSource::new(&events), &mut [&mut pass]);
        drop(pass);
        misses
    });

    time("packed gshare, resolve_batch pass", &mut || {
        let mut p = CombinedPredictor::pure_dynamic(Gshare::new(4096));
        let mut out = Vec::with_capacity(4096);
        let mut misses = 0u64;
        let mut pass = FnPass::new("resolve-batch", |chunk: &[BranchEvent]| {
            out.clear();
            p.resolve_batch(chunk, &mut out);
            for (e, r) in chunk.iter().zip(&out) {
                misses += u64::from(r.predicted_taken != e.taken);
            }
        });
        PassRunner::new().run(SliceSource::new(&events), &mut [&mut pass]);
        drop(pass);
        misses
    });

    time("packed gshare, full Simulator", &mut || {
        let mut p = CombinedPredictor::pure_dynamic(Gshare::new(4096));
        let stats = Simulator::new().run(SliceSource::new(&events), &mut p);
        stats.mispredictions
    });

    // Raw-layout prototypes: fused branchless gshare loops against bare
    // arrays, to bound what the table storage design can reach.
    time("proto AoS u64 slots, raw fused", &mut || {
        let entries = 4096usize * 4;
        let mask = entries as u64 - 1;
        let mut slots = vec![1u64; entries];
        let mut hist = 0u64;
        let (mut lookups, mut collisions, mut misses) = (0u64, 0u64, 0u64);
        for e in events.iter() {
            let index = ((e.pc.0 >> 2) ^ (hist & 0xfff)) & mask;
            let i = index as usize;
            let tag = (e.pc.0 ^ (e.pc.0 >> 32)) as u32;
            let slot = slots[i];
            lookups += 1;
            let collided = (slot & 0x80 != 0) & ((slot >> 32) as u32 != tag);
            collisions += collided as u64;
            let v = (slot & 0x7f) as u8;
            let up = u8::from(e.taken) & u8::from(v < 3);
            let down = u8::from(!e.taken) & u8::from(v > 0);
            slots[i] = ((tag as u64) << 32) | 0x80 | (v + up - down) as u64;
            misses += u64::from((v > 1) != e.taken);
            hist = (hist << 1) | u64::from(e.taken);
        }
        black_box((lookups, collisions));
        misses
    });

    time("proto SoA u32 tags + u8 ctrs", &mut || {
        let entries = 4096usize * 4;
        let mask = entries as u64 - 1;
        let mut tags = vec![0u32; entries];
        let mut ctrs = vec![1u8; entries];
        let mut hist = 0u64;
        let (mut lookups, mut collisions, mut misses) = (0u64, 0u64, 0u64);
        for e in events.iter() {
            let index = ((e.pc.0 >> 2) ^ (hist & 0xfff)) & mask;
            let i = index as usize;
            let tag = (e.pc.0 ^ (e.pc.0 >> 32)) as u32;
            let c = ctrs[i];
            let t = tags[i];
            lookups += 1;
            let collided = (c & 0x80 != 0) & (t != tag);
            collisions += collided as u64;
            let v = c & 0x7f;
            let up = u8::from(e.taken) & u8::from(v < 3);
            let down = u8::from(!e.taken) & u8::from(v > 0);
            ctrs[i] = 0x80 | (v + up - down);
            tags[i] = tag;
            misses += u64::from((v > 1) != e.taken);
            hist = (hist << 1) | u64::from(e.taken);
        }
        black_box((lookups, collisions));
        misses
    });

    // Exactly what the harness times: a full suite pass through
    // current_kernel_pass / baseline_kernel_pass.
    {
        use sdbp_bench::kernel;
        use sdbp_predictors::{PredictorConfig, PredictorKind};
        let suite = kernel::workload_suite(&cache, 4_000_000);
        let n: f64 = suite.iter().map(|e| e.len() as f64).sum();
        let config = PredictorConfig::new(PredictorKind::Gshare, 4096).unwrap();
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let started = Instant::now();
            black_box(kernel::current_kernel_pass(&config, &suite));
            best = best.min(started.elapsed().as_secs_f64());
        }
        println!(
            "harness current_kernel_pass        {:>7.2} Mbr/s  {:>6.2} ns/branch",
            n / best / 1e6,
            best / n * 1e9
        );
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let started = Instant::now();
            black_box(kernel::baseline_kernel_pass(4096, &suite));
            best = best.min(started.elapsed().as_secs_f64());
        }
        println!(
            "harness baseline_kernel_pass       {:>7.2} Mbr/s  {:>6.2} ns/branch",
            n / best / 1e6,
            best / n * 1e9
        );
    }

    // Per-benchmark breakdown of the harness suite: where does a full
    // current-kernel pass spend its time?
    println!("\nper-benchmark, 4M instructions each (current kernel, gshare-4KB):");
    for b in Benchmark::ALL {
        let events = cache.events(b, InputSet::Ref, sdbp_bench::SEED, 4_000_000);
        let n = events.len() as f64;
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let mut p = CombinedPredictor::pure_dynamic(Gshare::new(4096));
            let started = Instant::now();
            let stats = Simulator::new().run(SliceSource::new(&events), &mut p);
            best = best.min(started.elapsed().as_secs_f64());
            black_box(stats.mispredictions);
        }
        println!(
            "  {b:<12} {:>8.0} events  {:>7.2} Mbr/s  {:>6.2} ns/branch",
            n,
            n / best / 1e6,
            best / n * 1e9
        );
    }
}
