//! Each distinct cell is measured once per artifact cache.
//!
//! The paper's tables share their baselines, so the same cell recurs
//! across grids and the cache memoizes finished reports. These tests pin
//! what that memo must never change: a repeated cell equals a fresh run,
//! only repeats count as report hits, errors are never memoized, an
//! imported trace never borrows the report of the synthetic benchmark it
//! mirrors, and a cell that panics fails alone.

use sdbp::core::{
    spec_digest, ArtifactCache, ExperimentError, ExperimentSpec, Lab, Report, RunManifest,
    RunStore, Sweep,
};
use sdbp::predictors::{PredictorConfig, PredictorKind};
use sdbp::profiles::{SelectError, SelectionScheme};
use sdbp::trace::{write_binary, BranchSource};
use sdbp::workloads::{imports, open_source, Benchmark, InputSet};
use std::path::PathBuf;
use std::sync::Arc;

const BUDGET: u64 = 150_000;

fn cell(benchmark: Benchmark, kind: PredictorKind, scheme: SelectionScheme) -> ExperimentSpec {
    ExperimentSpec::self_trained(benchmark, PredictorConfig::new(kind, 2048).unwrap(), scheme)
        .with_instructions(BUDGET)
}

fn fresh(spec: &ExperimentSpec) -> Report {
    Lab::new().run(spec).unwrap()
}

/// Eight distinct cells over two streams.
fn distinct_cells() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for benchmark in [Benchmark::Compress, Benchmark::Go] {
        for kind in [PredictorKind::Gshare, PredictorKind::Bimodal] {
            for scheme in [SelectionScheme::None, SelectionScheme::static_95()] {
                specs.push(cell(benchmark, kind, scheme));
            }
        }
    }
    specs
}

/// The distinct cells followed by `REPEATS` of them again, the way a later
/// table repeats an earlier table's baselines.
const REPEATS: u64 = 3;

fn grid_with_repeats() -> Vec<ExperimentSpec> {
    let mut specs = distinct_cells();
    specs.extend([specs[0].clone(), specs[3].clone(), specs[6].clone()]);
    specs
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdbp-report-memo-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Exports `benchmark`'s ref stream at the default seed and admits it as an
/// imported trace, which takes the benchmark's display name.
fn import(benchmark: Benchmark, path: &std::path::Path) -> Benchmark {
    let trace = open_source(benchmark, InputSet::Ref, 2000)
        .take_instructions(BUDGET)
        .collect_trace();
    let mut bytes = Vec::new();
    write_binary(&mut bytes, &trace).unwrap();
    std::fs::write(path, bytes).unwrap();
    imports::register(path).unwrap()
}

#[test]
fn repeats_in_one_lockstep_group_equal_fresh_runs() {
    let a = cell(
        Benchmark::Compress,
        PredictorKind::Gshare,
        SelectionScheme::None,
    );
    let b = cell(
        Benchmark::Compress,
        PredictorKind::Gshare,
        SelectionScheme::static_95(),
    );
    let lab = Lab::new();
    let results = lab.run_lockstep(&[&a, &b, &a, &b, &a]);
    for (spec, got) in [&a, &b, &a, &b, &a].into_iter().zip(&results) {
        assert_eq!(got.as_ref().unwrap(), &fresh(spec));
    }
    let stats = lab.cache().stats();
    assert_eq!(stats.report_hits, 3, "{stats}");
    assert_eq!(
        stats.lockstep_traversals_saved, 1,
        "only the two distinct cells ride the traversal: {stats}"
    );
    assert_eq!(lab.cache().cached_reports(), 2);
}

#[test]
fn repeats_across_sweeps_and_without_lockstep_equal_fresh_runs() {
    let specs = grid_with_repeats();
    let want: Vec<Report> = specs.iter().map(fresh).collect();

    let cache = Arc::new(ArtifactCache::new());
    let first = Sweep::new(specs.clone())
        .with_cache(Arc::clone(&cache))
        .with_threads(2)
        .run();
    assert_eq!(
        first.cache_stats.report_hits,
        REPEATS,
        "{}",
        first.summary()
    );
    assert!(
        first.summary().contains(&format!("reports {REPEATS} hit")),
        "{}",
        first.summary()
    );
    assert_eq!(first.into_reports().unwrap(), want);

    let second = Sweep::new(specs.clone())
        .with_cache(Arc::clone(&cache))
        .with_threads(2)
        .run();
    let stats = second.cache_stats;
    assert_eq!(stats.report_hits, specs.len() as u64, "{stats}");
    assert_eq!(
        (
            stats.trace_hits,
            stats.trace_misses,
            stats.lockstep_traversals_saved
        ),
        (0, 0, 0),
        "memo hits never touch a stream: {stats}"
    );
    assert_eq!(second.into_reports().unwrap(), want);

    // Per-spec runs on one lab, each a group of one: each repeat finds its
    // first occurrence already memoized.
    let lab = Lab::new();
    let serial: Vec<Report> = specs.iter().map(|s| lab.run(s).unwrap()).collect();
    assert_eq!(lab.cache().stats().report_hits, REPEATS);
    assert_eq!(serial, want);
}

#[test]
fn failing_cells_are_never_memoized() {
    // Bi-mode is opaque to the interference ranking, so selection fails.
    let bad = cell(
        Benchmark::Compress,
        PredictorKind::BiMode,
        SelectionScheme::static_collide(),
    );
    let lab = Lab::new();
    let missing = Err(ExperimentError::Select(
        SelectError::MissingInterferenceRanking,
    ));
    for _ in 0..2 {
        assert_eq!(lab.run(&bad), missing);
    }
    assert_eq!(
        lab.run_lockstep(&[&bad, &bad]),
        vec![missing.clone(), missing]
    );
    assert_eq!(lab.cache().stats().report_hits, 0);
    assert_eq!(lab.cache().cached_reports(), 0);
}

#[test]
fn an_imported_trace_named_after_a_synthetic_benchmark_gets_its_own_entry() {
    let dir = temp_dir("import");
    let imported = import(Benchmark::Gcc, &dir.join("gcc.sdbt"));
    assert_eq!(imported.name(), "gcc");

    let synthetic = cell(
        Benchmark::Gcc,
        PredictorKind::Gshare,
        SelectionScheme::static_95(),
    );
    let replay = ExperimentSpec {
        benchmark: imported,
        ..synthetic.clone()
    };
    assert_eq!(
        spec_digest(&synthetic),
        spec_digest(&replay),
        "the digest names the benchmark only by its display name"
    );

    let lab = Lab::new();
    let generated = lab.run(&synthetic).unwrap();
    let replayed = lab.run(&replay).unwrap();
    assert_eq!(lab.cache().stats().report_hits, 0);
    assert_eq!(lab.cache().cached_reports(), 2);
    assert_eq!(replayed.benchmark, imported, "measured from the file");
    assert_eq!(
        generated.stats, replayed.stats,
        "the same stream, measured twice"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cell_whose_stream_panics_fails_alone() {
    let dir = temp_dir("panic");
    let trace = dir.join("vanishing.sdbt");
    let imported = import(Benchmark::Compress, &trace);
    // The file vanishes after admission: generating the stream panics.
    std::fs::remove_file(&trace).unwrap();

    let clean = distinct_cells();
    let want = Sweep::new(clean.clone())
        .with_threads(2)
        .run()
        .into_reports()
        .unwrap();
    let poisoned = 4;
    let mut specs = clean;
    specs.insert(
        poisoned,
        cell(
            imported,
            PredictorKind::Gshare,
            SelectionScheme::static_95(),
        ),
    );

    let store = dir.join("store");
    let cache = Arc::new(ArtifactCache::new());
    let result = Sweep::new(specs)
        .with_cache(Arc::clone(&cache))
        .with_threads(2)
        .with_store(&store)
        .run();
    let mut got = Vec::new();
    for cell in &result.cells {
        if cell.index == poisoned {
            match &cell.report {
                Err(ExperimentError::Panicked { message }) => {
                    assert!(message.contains("no longer readable"), "{message}");
                }
                other => panic!("expected a panic report, got {other:?}"),
            }
        } else {
            got.push(cell.report.clone().unwrap());
        }
    }
    assert_eq!(got, want, "every other cell equals a clean run");
    assert_eq!(
        cache.cached_reports(),
        want.len(),
        "the panicking cell stores no report"
    );

    let text = std::fs::read_to_string(RunStore::manifest_path(&store)).unwrap();
    let manifest = RunManifest::parse(&text).unwrap();
    assert_eq!(manifest.entries.len(), want.len() + 1);
    let entry = manifest
        .entries
        .iter()
        .find(|e| e.cell == poisoned)
        .unwrap();
    assert!(
        matches!(&entry.outcome, Err(e) if e.kind_label() == "panicked"),
        "{:?}",
        entry.outcome
    );
    let _ = std::fs::remove_dir_all(&dir);
}
