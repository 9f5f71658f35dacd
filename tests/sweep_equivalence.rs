//! Serial-vs-parallel equivalence of the sweep engine.
//!
//! The paper's results are only trustworthy if parallelising the grids
//! changes nothing: a [`Sweep`] over N specs must produce exactly the
//! [`Report`]s that a serial [`Lab`] produces for the same specs, in the
//! same order. These tests pin that contract on a miniature figure-style
//! grid, including the collision breakdowns that drive Figures 1–6.

use sdbp::core::{spec_digest, ExperimentSpec, Lab, ManifestEntry, RunStore, Sweep};
use sdbp::predictors::{PredictorConfig, PredictorKind};
use sdbp::profiles::SelectionScheme;
use sdbp::workloads::{Benchmark, InputSet};
use std::sync::Arc;

/// A small figure-style grid: 2 benchmarks × 2 sizes × 2 schemes.
fn grid() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for benchmark in [Benchmark::Compress, Benchmark::M88ksim] {
        for size in [1024usize, 4096] {
            for scheme in [SelectionScheme::None, SelectionScheme::static_95()] {
                specs.push(
                    ExperimentSpec::self_trained(
                        benchmark,
                        PredictorConfig::new(PredictorKind::Gshare, size).unwrap(),
                        scheme,
                    )
                    .with_instructions(200_000),
                );
            }
        }
    }
    specs
}

#[test]
fn parallel_sweep_matches_serial_lab_exactly() {
    let specs = grid();
    let lab = Lab::new();
    let serial: Vec<_> = specs.iter().map(|s| lab.run(s).unwrap()).collect();

    let result = Sweep::new(specs.clone()).with_threads(4).run();
    assert_eq!(result.threads, 4.min(specs.len()));
    let parallel = result.into_reports().unwrap();

    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.benchmark, p.benchmark, "cell {i}: benchmark");
        assert_eq!(s.predictor, p.predictor, "cell {i}: predictor");
        assert_eq!(s.hints, p.hints, "cell {i}: selected hint count");
        assert_eq!(
            s.stats.misp_per_ki(),
            p.stats.misp_per_ki(),
            "cell {i}: MISPs/KI must be bit-identical"
        );
        assert_eq!(
            s.stats.collisions.destructive, p.stats.collisions.destructive,
            "cell {i}: destructive collisions"
        );
        assert_eq!(
            s.stats.collisions.constructive, p.stats.collisions.constructive,
            "cell {i}: constructive collisions"
        );
        assert_eq!(s.stats, p.stats, "cell {i}: full stats block");
    }
    // Belt and braces: the whole reports compare equal too.
    assert_eq!(serial, parallel);
}

#[test]
fn repeated_parallel_sweeps_are_deterministic() {
    let first = Sweep::new(grid())
        .with_threads(4)
        .run()
        .into_reports()
        .unwrap();
    let second = Sweep::new(grid())
        .with_threads(2)
        .run()
        .into_reports()
        .unwrap();
    assert_eq!(
        first, second,
        "reports must not depend on thread count or scheduling"
    );
}

#[test]
fn sweep_sharing_a_lab_cache_reuses_artifacts() {
    let lab = Lab::new();
    // Warm the cache serially ...
    for spec in &grid() {
        lab.run(spec).unwrap();
    }
    // ... then the parallel sweep over the same grid must not recompute any
    // profile, and must still agree with the serial results.
    let result = Sweep::new(grid())
        .with_cache(lab.cache())
        .with_threads(4)
        .run();
    assert_eq!(
        result.cache_stats.bias_misses + result.cache_stats.accuracy_misses,
        0,
        "warm cache must serve every profile: {}",
        result.cache_stats
    );
    assert!(result.cache_stats.hits() > 0);
    let parallel = result.into_reports().unwrap();
    let serial: Vec<_> = grid().iter().map(|s| lab.run(s).unwrap()).collect();
    assert_eq!(serial, parallel);
}

#[test]
fn sweep_cache_is_shareable_across_sweeps() {
    let cache = Arc::new(sdbp::core::ArtifactCache::new());
    let specs = grid();
    let cold = Sweep::new(specs.clone())
        .with_cache(Arc::clone(&cache))
        .with_threads(4)
        .run();
    let warm = Sweep::new(specs).with_cache(cache).with_threads(4).run();
    assert!(cold.cache_stats.misses() > 0);
    assert_eq!(
        warm.cache_stats.bias_misses + warm.cache_stats.accuracy_misses,
        0
    );
    assert_eq!(
        cold.into_reports().unwrap(),
        warm.into_reports().unwrap(),
        "cache reuse must not change results"
    );
}

/// The cells of `sdbp grid --benchmark compress --size 2048
/// --instructions 400000`: every paper predictor × the default schemes,
/// in the CLI's predictor-major order.
fn cli_grid() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for kind in PredictorKind::PAPER {
        let config = PredictorConfig::new(kind, 2048).unwrap();
        for scheme in [
            SelectionScheme::None,
            SelectionScheme::static_95(),
            SelectionScheme::static_acc(),
        ] {
            let mut spec = ExperimentSpec::self_trained(Benchmark::Compress, config, scheme)
                .with_seed(2000)
                .with_measure_input(InputSet::Ref);
            spec.measure_instructions = Some(400_000);
            spec.profile_instructions = Some(400_000);
            specs.push(spec);
        }
    }
    specs
}

/// The CLI grid through a durable two-thread sweep — pooled profiling and
/// lockstep measurement — agrees with each cell run alone on a fresh lab:
/// reports, every manifest line, and savings the summary reports.
#[test]
fn cli_grid_sweep_matches_fresh_lab_oracle() {
    let specs = cli_grid();
    assert_eq!(specs.len(), 15);
    let store = std::env::temp_dir().join(format!("sdbp-cli-grid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let result = Sweep::new(specs.clone())
        .with_threads(2)
        .with_store(&store)
        .run();
    let summary = result.summary();
    let stats = result.cache_stats;
    let reports = result.into_reports().unwrap();
    let oracle: Vec<_> = specs.iter().map(|s| Lab::new().run(s).unwrap()).collect();
    assert_eq!(reports, oracle);

    // Each line, up to its own wall clock, is the line the oracle report
    // renders to.
    let text = std::fs::read_to_string(RunStore::manifest_path(&store)).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), specs.len());
    let mut cells = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        let entry = ManifestEntry::parse_line(line, n + 1).unwrap();
        let want = ManifestEntry {
            cell: entry.cell,
            spec_digest: spec_digest(&specs[entry.cell]),
            wall_ms: entry.wall_ms,
            outcome: Ok(oracle[entry.cell].clone()),
        };
        assert_eq!(*line, want.to_line(), "manifest line {}", n + 1);
        cells.push(entry.cell);
    }
    cells.sort_unstable();
    assert_eq!(cells, (0..specs.len()).collect::<Vec<_>>());

    assert!(stats.fused_traversals_saved > 0, "{stats}");
    assert!(stats.lockstep_traversals_saved > 0, "{stats}");
    for part in ["saved by fusion", "saved by lockstep", "cell Mbr/s"] {
        assert!(summary.contains(part), "{part}: {summary}");
    }
    std::fs::remove_dir_all(&store).ok();
}
