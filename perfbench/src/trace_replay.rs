//! `trace_replay`: the external-trace flow. Set-up exports one measurement
//! stream per synthetic family as an `sdbt` binary trace, plus one as
//! `perf script` text; the timed run admits each file, runs a cold durable
//! sweep that writes profiles to a store, reruns it with a fresh cache
//! that reads them back from disk, and resumes it from its manifest.

use crate::probe::Tracer;
use crate::stages::{self, StageResults};
use crate::{Config, Outcome, Timed};
use sdbp_artifacts::Store;
use sdbp_core::{ArtifactCache, ExperimentError, ExperimentSpec, Lab, Report, Sweep, SweepResult};
use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_profiles::SelectionScheme;
use sdbp_trace::{scan_path, write_binary, write_perf_text, BranchSource};
use sdbp_workloads::{imports, open_source, Benchmark, InputSet};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Instructions exported per trace.
const INSTRUCTIONS: u64 = 5_000_000;
const SMALL_INSTRUCTIONS: u64 = 150_000;

/// The exported streams: one per synthetic family as binary, plus a
/// second server stream as `perf script` text (the slow decoder).
const EXPORTS: [(Benchmark, Format); 4] = [
    (Benchmark::Gcc, Format::Binary),
    (Benchmark::ServerWeb, Format::Binary),
    (Benchmark::H2pChurn, Format::Binary),
    (Benchmark::ServerDb, Format::PerfText),
];

const PREDICTORS: [PredictorKind; 3] = [
    PredictorKind::Gshare,
    PredictorKind::TageLite,
    PredictorKind::TwoBcGskew,
];
const SIZE: usize = 8 * 1024;

/// The sweeps run on one worker. This workload is about decoding,
/// admission, the store and resume, not sweep scheduling (`paper_repro`
/// covers that), and on one worker its wall time is the sum of those
/// layers' costs. On a shared 2-vCPU host, runs on two workers spread
/// about twice as much in wall time as runs on one: a stalled worker
/// holds up the other.
const SWEEP_THREADS: usize = 1;

/// Result lines recorded at seed 2000.
pub const REFERENCE: &str = include_str!("../reference/trace_replay.txt");

#[derive(Clone, Copy)]
enum Format {
    Binary,
    PerfText,
}

/// A directory removed when dropped, also while unwinding from a panic.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The exported trace files and the directory holding them and the store.
pub struct State {
    dir: TempDir,
    files: Vec<PathBuf>,
}

fn export(
    benchmark: Benchmark,
    format: Format,
    cfg: &Config,
    dir: &Path,
) -> Result<PathBuf, String> {
    let budget = if cfg.small {
        SMALL_INSTRUCTIONS
    } else {
        INSTRUCTIONS
    };
    let trace = open_source(benchmark, InputSet::Ref, cfg.seed)
        .take_instructions(budget)
        .collect_trace();
    let path = dir.join(match format {
        Format::Binary => format!("{}.sdbt", benchmark.name()),
        // The perf format has no embedded name; the file stem names it.
        Format::PerfText => format!("{}.perf", benchmark.name()),
    });
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    match format {
        Format::Binary => write_binary(&mut w, &trace),
        Format::PerfText => write_perf_text(&mut w, &trace),
    }
    .map_err(|e| format!("{}: {e}", path.display()))?;
    w.flush().map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Creates this iteration's own directory and exports the traces into it.
pub fn setup(cfg: &Config) -> Result<State, String> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = cfg.tmp.join(format!(
        "replay-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dir = TempDir(dir);
    let files = EXPORTS
        .iter()
        .map(|&(b, format)| export(b, format, cfg, &dir.0))
        .collect::<Result<_, _>>()?;
    Ok(State { dir, files })
}

/// The grid over the admitted benchmarks, budgets spanning each file.
fn grid(benchmarks: &[Benchmark], seed: u64) -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for &b in benchmarks {
        let Benchmark::Imported(slot) = b else {
            unreachable!("only admitted traces are replayed")
        };
        let instructions = imports::info(slot)
            .expect("admitted slot is registered")
            .total_instructions;
        for kind in PREDICTORS {
            let predictor = PredictorConfig::new(kind, SIZE).expect("grid size is a power of two");
            for scheme in [
                SelectionScheme::None,
                SelectionScheme::static_95(),
                SelectionScheme::static_acc(),
            ] {
                let mut spec = ExperimentSpec::self_trained(b, predictor, scheme).with_seed(seed);
                spec.profile_instructions = Some(instructions);
                spec.measure_instructions = Some(instructions);
                specs.push(spec);
            }
        }
    }
    specs
}

type Cells = Vec<Result<Report, ExperimentError>>;

fn cell_line(cell: &Result<Report, ExperimentError>) -> String {
    match cell {
        Ok(r) => format!("{} | {:?}", r.summary(), r.stats),
        Err(e) => format!("failed: {e}"),
    }
}

/// Compares the three passes cell by cell; the cold cells are the result
/// lines.
fn settle(
    admitted: u64,
    admission_failures: Vec<String>,
    cold: &Cells,
    warm: &Cells,
    resumed: &Cells,
    replayed: usize,
) -> Outcome {
    let mut out = Outcome::new(admitted + 3 * cold.len() as u64, SWEEP_THREADS);
    out.failed = admission_failures.len() as u64;
    for failure in admission_failures {
        out.mismatch(format!("admission failed: {failure}"));
    }
    out.digest_of = "cold cells";
    out.result("cells".into(), cold.len().to_string());
    for (i, ((c, w), r)) in cold.iter().zip(warm).zip(resumed).enumerate() {
        out.failed += [c, w, r].iter().filter(|x| x.is_err()).count() as u64;
        let line = cell_line(c);
        // Rendered comparison: a replayed cell names an imported trace that
        // mirrors a synthetic benchmark by that benchmark, as the library's
        // byte-identity promise allows.
        if cell_line(w) != line {
            out.mismatch(format!("warm-disk cell {i} differs from the cold pass"));
        }
        if cell_line(r) != line {
            out.mismatch(format!("resumed cell {i} differs from the cold pass"));
        }
        out.result(format!("cell.{i}"), line);
    }
    if replayed != cold.len() {
        out.mismatch(format!(
            "resume replayed {replayed} of {} cells",
            cold.len()
        ));
    }
    out
}

/// Objects and bytes in the store: what the cold pass wrote.
fn store_counts(store_dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let entries = Store::open(store_dir)
        .and_then(|s| s.list())
        .map_err(|e| e.to_string())?;
    out.count("artifacts.objects_written", entries.len() as f64);
    out.count(
        "artifacts.bytes_written",
        entries.iter().map(|e| e.size).sum::<u64>() as f64,
    );
    Ok(())
}

fn reports(result: SweepResult) -> Cells {
    result.cells.into_iter().map(|c| c.report).collect()
}

/// Admits every file the way `sdbp ingest` does — one scan, the admission
/// lints over it, then registration — returning the registered benchmarks
/// and the failures.
fn admit_all(files: &[PathBuf], t: &mut Tracer) -> (Vec<Benchmark>, Vec<String>) {
    let mut benchmarks = Vec::new();
    let mut failures = Vec::new();
    for path in files {
        t.add(
            "trace.bytes",
            std::fs::metadata(path).map_or(0, |m| m.len()) as f64,
        );
        let admitted = t
            .span("trace.decode", || scan_path(path))
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|scan| {
                t.add("trace.events", scan.events as f64);
                t.span("check.admit", || {
                    let diags = sdbp_check::lint_trace_scan(&scan, &path.display().to_string());
                    if diags.has_errors() {
                        return Err(diags.render_text());
                    }
                    imports::register_scanned(path, &scan)
                })
            });
        match admitted {
            Ok(b) => benchmarks.push(b),
            Err(e) => failures.push(e),
        }
    }
    (benchmarks, failures)
}

fn measured_branches(cells: &Cells) -> u64 {
    cells.iter().flatten().map(|r| r.stats.branches).sum()
}

/// The untraced run.
pub fn run(state: State, cfg: &Config, timed: &mut Timed) -> Outcome {
    let store_dir = state.dir.0.join("store");
    let cold_cache = Arc::new(ArtifactCache::new());
    let sweep = |specs: &[ExperimentSpec]| Sweep::new(specs.to_vec()).with_threads(SWEEP_THREADS);
    let (failures, specs, cold, warm, resumed) = timed.run(|| {
        // Untraced: the spans go to a tracer nobody reads.
        let (benchmarks, failures) = admit_all(&state.files, &mut Tracer::default());
        let specs = grid(&benchmarks, cfg.seed);
        let cold = sweep(&specs)
            .with_store(&store_dir)
            .with_cache(Arc::clone(&cold_cache))
            .run();
        let warm = sweep(&specs)
            .with_store(&store_dir)
            .with_cache(Arc::new(ArtifactCache::new()))
            .run();
        let resumed = sweep(&specs).with_store(&store_dir).with_resume(true).run();
        (failures, specs, cold, warm, resumed)
    });
    let disk = warm.cache_stats;
    let replayed = resumed.resumed;
    let (cold, warm, resumed) = (reports(cold), reports(warm), reports(resumed));
    let mut out = settle(
        state.files.len() as u64,
        failures,
        &cold,
        &warm,
        &resumed,
        replayed,
    );
    // Cold and warm passes both measure; only the cold pass profiles.
    out.work_branches = measured_branches(&cold)
        + measured_branches(&warm)
        + stages::accuracy_branches(&cold_cache, &specs);
    if let Err(e) = store_counts(&store_dir, &mut out) {
        out.mismatch(format!("cannot list the store: {e}"));
    }
    out.count("artifacts.disk_hits", disk.disk_hits as f64);
    out.count_profiles(&cold_cache);
    out
}

/// The traced run: admission, the cold pass decomposed into stages on a
/// lab whose cache writes to the store, the warm pass's profile reads from
/// the disk tier, then the warm sweep itself (measurement and manifest) as
/// the entry-point remainder, and the resumed sweep.
pub fn run_traced(state: State, cfg: &Config, timed: &mut Timed, t: &mut Tracer) -> Outcome {
    let store_dir = state.dir.0.join("store");
    let mut failures = Vec::new();
    let mut results = StageResults::default();
    let cold_cache = Arc::new(ArtifactCache::new());
    let outcome = timed.run(|| -> Result<_, String> {
        let (benchmarks, admission_failures) = admit_all(&state.files, t);
        failures = admission_failures;
        let specs = grid(&benchmarks, cfg.seed);
        let store = Arc::new(Store::open(&store_dir).map_err(|e| e.to_string())?);

        cold_cache.attach_store(Arc::clone(&store));
        let cold_lab = Lab::with_cache(Arc::clone(&cold_cache));
        let keys = stages::stream_keys(&specs, true, &[]);
        stages::streams(&cold_lab, &keys, t, "trace.decode", "trace.events");
        stages::profiles(&cold_lab, &specs, t);
        stages::select(&cold_lab, &specs, t, &mut results);
        stages::measure(&cold_lab, &specs, t, &mut results);
        stages::cache_counters(&cold_lab, t);

        let warm_cache = Arc::new(ArtifactCache::new());
        warm_cache.attach_store(store);
        let warm_lab = Lab::with_cache(Arc::clone(&warm_cache));
        stages::streams(&warm_lab, &keys, t, "trace.decode", "trace.events");
        for ((b, input, seed, budget), predictors) in stages::profile_runs(&specs) {
            t.span("artifacts.read", || {
                warm_cache.profile_bundle(b, input, seed, budget, &predictors)
            });
        }
        let disk = warm_cache.stats();
        t.add("artifacts.disk_hits", disk.disk_hits as f64);
        t.add("artifacts.disk_misses", disk.disk_misses as f64);
        let warm = t.span("bench.entry", || {
            Sweep::new(specs.clone())
                .with_threads(SWEEP_THREADS)
                .with_store(&store_dir)
                .with_cache(warm_cache)
                .run()
        });
        let resumed = t.span("artifacts.resume", || {
            Sweep::new(specs.clone())
                .with_threads(SWEEP_THREADS)
                .with_store(&store_dir)
                .with_resume(true)
                .run()
        });
        Ok((warm, resumed))
    });
    let (warm, resumed) = match outcome {
        Ok(passes) => passes,
        Err(e) => {
            let mut out = Outcome::new(state.files.len() as u64, SWEEP_THREADS);
            out.failed = out.attempted;
            out.mismatch(format!("cannot open the store: {e}"));
            return out;
        }
    };
    let cold: Cells = results
        .reports
        .iter()
        .map(|r| {
            r.clone()
                .map_err(|reason| ExperimentError::Rejected { reason })
        })
        .collect();
    let replayed = resumed.resumed;
    let (warm, resumed) = (reports(warm), reports(resumed));
    let mut out = settle(
        state.files.len() as u64,
        failures,
        &cold,
        &warm,
        &resumed,
        replayed,
    );
    out.work_branches = measured_branches(&cold)
        + measured_branches(&warm)
        + t.count("profiles.accuracy_branches") as u64;
    match store_counts(&store_dir, &mut out) {
        Ok(()) => {
            t.add(
                "artifacts.objects_written",
                out.counts["artifacts.objects_written"],
            );
            t.add(
                "artifacts.bytes_written",
                out.counts["artifacts.bytes_written"],
            );
        }
        Err(e) => out.mismatch(format!("cannot list the store: {e}")),
    }
    out.count("artifacts.disk_hits", t.count("artifacts.disk_hits"));
    out.count_profiles(&cold_cache);
    out
}
