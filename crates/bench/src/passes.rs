//! The traversal-economy benchmark: fused profiling and lockstep
//! measurement vs. dedicated trace traversals.
//!
//! Measures the wall-clock effect of the streaming pass framework's two
//! traversal-sharing paths on a profile-heavy grid — the accuracy-profile
//! selection scheme across several predictor configurations per benchmark —
//! with the trace cache disabled (capacity 0), so every traversal
//! regenerates its event stream. That is exactly the regime both paths
//! target: without fusion each profile artifact costs one full generation;
//! with it [`ArtifactCache::profile_bundle`] collects the bias profile and
//! every accuracy profile of a benchmark in a single generator traversal.
//! Without lockstep each grid cell's measurement costs another full
//! generation; with it every cell sharing a branch stream rides one
//! measurement traversal through [`sdbp_core::Lab::run_lockstep`].
//!
//! The production path (a [`Sweep`]) always shares traversals, so the two
//! baselines are built here from the cache's primitives: *unfused* looks up
//! each cell's bias and accuracy profile separately, *fused* collects each
//! benchmark's profiles in one [`ArtifactCache::profile_bundle`]; both then
//! measure every cell on its own through [`Lab::run`].
//!
//! Consumed by the `sdbp bench-passes` subcommand, which writes the
//! machine-readable `BENCH_passes.json` used by CI and the performance
//! docs.

use sdbp_core::{ArtifactCache, CacheStats, ExperimentSpec, Lab, Sweep, SweepCell, SweepResult};
use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_profiles::SelectionScheme;
use sdbp_workloads::Benchmark;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-phase instruction budget of the full grid (profile == measure).
pub const FULL_INSTRUCTIONS: u64 = 2_000_000;

/// Per-phase instruction budget under `--quick` (CI smoke mode).
pub const QUICK_INSTRUCTIONS: u64 = 120_000;

/// The gshare sizes giving each benchmark its accuracy-profile fan-out
/// (three distinct predictor configurations → three accuracy profiles that
/// fusion can collect alongside the bias profile in one traversal).
pub const GRID_SIZES: [usize; 3] = [1024, 4 * 1024, 16 * 1024];

/// One timed grid traversal mode: the whole spec grid, single-threaded,
/// under one [`GridMode`].
#[derive(Debug, Clone)]
pub struct PassesMeasurement {
    /// `"unfused"`, `"fused"`, or `"lockstep"`.
    pub label: String,
    /// Best-of-reps wall-clock seconds for one grid pass.
    pub seconds: f64,
    /// Generator traversals spent (the cache's bypass counter — with the
    /// trace store disabled, every traversal is a bypass).
    pub traversals: u64,
    /// Profile traversals saved by fusion during the pass.
    pub traversals_saved: u64,
    /// Measurement traversals saved by lockstep during the pass.
    pub lockstep_saved: u64,
    /// Per-cell measurement throughput over the grid, min/median/max in
    /// megabranches per second (`None` only if no cell executed).
    pub cell_mbrs: Option<(f64, f64, f64)>,
    /// Total mispredictions over the grid (cross-check: all modes must
    /// agree exactly).
    pub mispredictions: u64,
}

impl PassesMeasurement {
    fn json(&self) -> String {
        let cell = match self.cell_mbrs {
            Some((min, median, max)) => {
                format!("{{\"min\": {min:.1}, \"median\": {median:.1}, \"max\": {max:.1}}}")
            }
            None => "null".to_string(),
        };
        format!(
            "{{\"mode\": \"{}\", \"seconds\": {:.6}, \"traversals\": {}, \"traversals_saved\": {}, \"lockstep_saved\": {}, \"cell_mbrs\": {}, \"mispredictions\": {}}}",
            self.label,
            self.seconds,
            self.traversals,
            self.traversals_saved,
            self.lockstep_saved,
            cell,
            self.mispredictions,
        )
    }
}

/// Everything one `bench-passes` run produced.
#[derive(Debug)]
pub struct PassesReport {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// Profile/measure instruction budget per cell.
    pub instructions: u64,
    /// Benchmarks in the grid.
    pub benchmarks: usize,
    /// Grid cells (benchmarks × predictor configurations).
    pub cells: usize,
    /// The grid under [`GridMode::Fused`] (the wall-clock baseline lockstep
    /// is judged against).
    pub fused: PassesMeasurement,
    /// The grid under [`GridMode::Unfused`].
    pub unfused: PassesMeasurement,
    /// The grid under [`GridMode::Lockstep`] (the production path).
    pub lockstep: PassesMeasurement,
}

impl PassesReport {
    /// Unfused over fused wall-clock — the fusion speedup.
    pub fn speedup(&self) -> f64 {
        if self.fused.seconds > 0.0 {
            self.unfused.seconds / self.fused.seconds
        } else {
            0.0
        }
    }

    /// Fused-sequential over lockstep wall-clock — what lockstep adds on
    /// top of fusion.
    pub fn lockstep_speedup(&self) -> f64 {
        if self.lockstep.seconds > 0.0 {
            self.fused.seconds / self.lockstep.seconds
        } else {
            0.0
        }
    }

    /// Unfused-sequential over lockstep wall-clock — the full traversal
    /// economy of the production grid path.
    pub fn combined_speedup(&self) -> f64 {
        if self.lockstep.seconds > 0.0 {
            self.unfused.seconds / self.lockstep.seconds
        } else {
            0.0
        }
    }

    fn results_identical(&self) -> bool {
        self.fused.mispredictions == self.unfused.mispredictions
            && self.fused.mispredictions == self.lockstep.mispredictions
    }

    /// Renders the report as the `BENCH_passes.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"sdbp-bench-passes/v2\",\n");
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!(
            "  \"grid\": {{\"benchmarks\": {}, \"cells\": {}, \"scheme\": \"static_acc\", \"seed\": {}, \"instructions\": {}, \"trace_cache\": \"disabled\"}},\n",
            self.benchmarks,
            self.cells,
            crate::SEED,
            self.instructions,
        ));
        out.push_str(&format!("  \"unfused\": {},\n", self.unfused.json()));
        out.push_str(&format!("  \"fused\": {},\n", self.fused.json()));
        out.push_str(&format!("  \"lockstep\": {},\n", self.lockstep.json()));
        out.push_str(&format!(
            "  \"results_identical\": {},\n",
            self.results_identical()
        ));
        out.push_str(&format!("  \"fusion_speedup\": {:.2},\n", self.speedup()));
        out.push_str(&format!(
            "  \"lockstep_speedup\": {:.2},\n",
            self.lockstep_speedup()
        ));
        out.push_str(&format!(
            "  \"combined_speedup\": {:.2}\n",
            self.combined_speedup()
        ));
        out.push_str("}\n");
        out
    }

    /// A terse human-readable table for the CLI.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "traversal-economy wall clock ({} cells, static_acc, trace cache disabled, best of reps)\n",
            self.cells
        ));
        for m in [&self.unfused, &self.fused, &self.lockstep] {
            let cell = match m.cell_mbrs {
                Some((min, median, max)) => {
                    format!("; cell Mbr/s {min:.1}/{median:.1}/{max:.1}")
                }
                None => String::new(),
            };
            out.push_str(&format!(
                "  {:<8} {:>8.3} s  {:>3} generator traversals ({} saved by fusion, {} by lockstep{})\n",
                m.label, m.seconds, m.traversals, m.traversals_saved, m.lockstep_saved, cell
            ));
        }
        out.push_str(&format!(
            "  fusion speedup: {:.2}x, lockstep adds {:.2}x, combined {:.2}x (results identical: {})\n",
            self.speedup(),
            self.lockstep_speedup(),
            self.combined_speedup(),
            self.results_identical()
        ));
        out
    }
}

/// The profile-heavy grid: `static_acc` (needs a bias *and* a per-predictor
/// accuracy profile) at every [`GRID_SIZES`] gshare configuration on each
/// benchmark.
pub fn grid_specs(benchmarks: &[Benchmark], instructions: u64) -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for &benchmark in benchmarks {
        for size in GRID_SIZES {
            let config = PredictorConfig::new(PredictorKind::Gshare, size)
                .expect("grid sizes are powers of two");
            let mut spec =
                ExperimentSpec::self_trained(benchmark, config, SelectionScheme::static_acc())
                    .with_seed(crate::SEED);
            spec.profile_instructions = Some(instructions);
            spec.measure_instructions = Some(instructions);
            specs.push(spec);
        }
    }
    specs
}

/// How a [`grid_pass`] shares generator traversals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridMode {
    /// Per cell, separate [`ArtifactCache::bias_profile`] and
    /// [`ArtifactCache::accuracy_profile`] lookups, then [`Lab::run`]: one
    /// traversal per profile artifact and one per measurement.
    Unfused,
    /// One [`ArtifactCache::profile_bundle`] per benchmark over its
    /// [`GRID_SIZES`] predictors, then [`Lab::run`] per cell: one profile
    /// traversal per benchmark, still one per measurement.
    Fused,
    /// A one-thread [`Sweep`], the production path: pooled profiling plus
    /// one lockstep measurement traversal per shared branch stream.
    Lockstep,
}

/// What one [`grid_pass`] observed, beyond wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridOutcome {
    /// Total mispredictions over the grid.
    pub mispredictions: u64,
    /// Generator traversals spent (the cache bypass counter).
    pub traversals: u64,
    /// Profile traversals saved by fusion.
    pub fused_saved: u64,
    /// Measurement traversals saved by lockstep.
    pub lockstep_saved: u64,
    /// Per-cell throughput min/median/max in Mbr/s.
    pub cell_mbrs: Option<(f64, f64, f64)>,
}

/// One single-threaded pass over the grid `specs` (as built by
/// [`grid_specs`]) with a fresh, trace-store-disabled cache: every traversal
/// streams straight off the workload generator, so the traversal count *is*
/// the generation count.
pub fn grid_pass(specs: &[ExperimentSpec], mode: GridMode) -> GridOutcome {
    let cache = Arc::new(ArtifactCache::with_trace_capacity(0));
    let result = match mode {
        GridMode::Lockstep => Sweep::new(specs.to_vec())
            .with_cache(Arc::clone(&cache))
            .with_threads(1)
            .run(),
        GridMode::Fused => {
            for run in specs.chunk_by(|a, b| a.benchmark == b.benchmark) {
                let first = &run[0];
                let predictors: Vec<_> = run.iter().map(|s| s.predictor).collect();
                cache.profile_bundle(
                    first.benchmark,
                    first.profile.profile_input(first.measure_input),
                    first.seed,
                    first.profile_budget(),
                    &predictors,
                );
            }
            cells_one_by_one(specs, &cache, false)
        }
        GridMode::Unfused => cells_one_by_one(specs, &cache, true),
    };
    let cell_mbrs = result.cell_throughput_mbrs();
    let mispredictions = result
        .into_reports()
        .expect("bench grid specs are well-formed")
        .iter()
        .map(|r| r.stats.mispredictions)
        .sum();
    let stats = cache.stats();
    GridOutcome {
        mispredictions,
        traversals: stats.trace_bypassed,
        fused_saved: stats.fused_traversals_saved,
        lockstep_saved: stats.lockstep_traversals_saved,
        cell_mbrs,
    }
}

/// Runs every cell alone through [`Lab::run`], timing each; with
/// `separate_profiles`, the cell first looks up its bias and accuracy
/// profiles one traversal each, inside its timed region.
fn cells_one_by_one(
    specs: &[ExperimentSpec],
    cache: &Arc<ArtifactCache>,
    separate_profiles: bool,
) -> SweepResult {
    let lab = Lab::with_cache(Arc::clone(cache));
    let started = Instant::now();
    let cells = specs
        .iter()
        .enumerate()
        .map(|(index, spec)| {
            let cell_started = Instant::now();
            if separate_profiles {
                let input = spec.profile.profile_input(spec.measure_input);
                let budget = spec.profile_budget();
                cache.bias_profile(spec.benchmark, input, spec.seed, budget);
                cache.accuracy_profile(spec.benchmark, input, spec.seed, budget, spec.predictor);
            }
            let report = lab.run(spec);
            SweepCell {
                index,
                spec: spec.clone(),
                report,
                elapsed: cell_started.elapsed(),
            }
        })
        .collect();
    SweepResult {
        cells,
        wall_time: started.elapsed(),
        threads: 1,
        cache_stats: CacheStats::default(),
        resumed: 0,
        skipped: 0,
    }
}

fn timed<F: FnMut() -> GridOutcome>(label: &str, reps: u32, mut pass: F) -> PassesMeasurement {
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let o = black_box(pass());
        best = best.min(started.elapsed().as_secs_f64());
        outcome = Some(o);
    }
    let o = outcome.expect("reps >= 1");
    PassesMeasurement {
        label: label.to_string(),
        seconds: best,
        traversals: o.traversals,
        traversals_saved: o.fused_saved,
        lockstep_saved: o.lockstep_saved,
        cell_mbrs: o.cell_mbrs,
        mispredictions: o.mispredictions,
    }
}

/// Runs the full traversal-economy benchmark: the grid under every
/// [`GridMode`], with `progress` invoked as each mode finishes.
pub fn run(quick: bool, mut progress: impl FnMut(&PassesMeasurement)) -> PassesReport {
    let instructions = if quick {
        QUICK_INSTRUCTIONS
    } else {
        FULL_INSTRUCTIONS
    };
    let reps = if quick { 1 } else { 3 };
    let benchmarks: &[Benchmark] = if quick {
        &[Benchmark::Compress, Benchmark::Ijpeg]
    } else {
        &Benchmark::ALL
    };
    let specs = grid_specs(benchmarks, instructions);

    let unfused = timed("unfused", reps, || grid_pass(&specs, GridMode::Unfused));
    progress(&unfused);
    let fused = timed("fused", reps, || grid_pass(&specs, GridMode::Fused));
    progress(&fused);
    let lockstep = timed("lockstep", reps, || grid_pass(&specs, GridMode::Lockstep));
    progress(&lockstep);

    PassesReport {
        quick,
        instructions,
        benchmarks: benchmarks.len(),
        cells: specs.len(),
        fused,
        unfused,
        lockstep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_grid_pass_modes_agree() {
        let specs = grid_specs(&[Benchmark::Compress], 60_000);
        let unfused = grid_pass(&specs, GridMode::Unfused);
        let fused = grid_pass(&specs, GridMode::Fused);
        let lockstep = grid_pass(&specs, GridMode::Lockstep);
        assert_eq!(
            fused.mispredictions, unfused.mispredictions,
            "fusion must not change results"
        );
        assert_eq!(
            lockstep.mispredictions, fused.mispredictions,
            "lockstep must not change results"
        );
        // Unfused: 1 bias + 3 accuracy + 3 measure traversals. Fused: the
        // bundle collapses the four profile traversals into one. Lockstep:
        // the three measurements additionally share one traversal.
        assert_eq!(unfused.traversals, 7);
        assert_eq!(fused.traversals, 4);
        assert_eq!(lockstep.traversals, 2);
        assert_eq!(unfused.fused_saved, 0);
        assert_eq!(fused.fused_saved, 3);
        assert_eq!(lockstep.fused_saved, 3);
        assert_eq!(unfused.lockstep_saved, 0);
        assert_eq!(fused.lockstep_saved, 0);
        assert_eq!(lockstep.lockstep_saved, 2);
        for outcome in [&unfused, &fused, &lockstep] {
            let (min, median, max) = outcome.cell_mbrs.expect("3 executed cells");
            assert!(min > 0.0 && min <= median && median <= max);
        }
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = run(true, |_| {});
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"sdbp-bench-passes/v2\""));
        assert!(json.contains("\"fused\""));
        assert!(json.contains("\"unfused\""));
        assert!(json.contains("\"lockstep\""));
        assert!(json.contains("\"fusion_speedup\""));
        assert!(json.contains("\"lockstep_speedup\""));
        assert!(json.contains("\"combined_speedup\""));
        assert!(json.contains("\"cell_mbrs\""));
        assert!(json.contains("\"results_identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(report.fused.mispredictions, report.unfused.mispredictions);
        assert_eq!(report.lockstep.mispredictions, report.fused.mispredictions);
        assert!(report.fused.traversals < report.unfused.traversals);
        assert!(report.lockstep.traversals < report.fused.traversals);
        assert!(report.fused.traversals_saved > 0);
        assert!(report.lockstep.lockstep_saved > 0);
        assert!(report.speedup() > 0.0);
        assert!(report.lockstep_speedup() > 0.0);
        assert!(report.combined_speedup() > 0.0);
    }
}
