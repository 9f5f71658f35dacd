//! The parallel experiment sweep engine.
//!
//! The paper's headline artifacts (Figures 1–13, Tables 1–5) are grids:
//! predictor × size-in-bytes × selection-scheme × benchmark. [`Sweep`] runs
//! such a grid across [`std::thread::scope`] workers that pull cells from a
//! shared queue, while one [`ArtifactCache`] memoizes the bias/accuracy
//! profiles and generated event streams every cell needs. Results come back
//! in **spec order regardless of completion order**, and — because artifact
//! generation is deterministic and cached artifacts are bit-identical to
//! fresh ones — a parallel sweep produces exactly the same [`Report`]s as
//! running the same specs serially through a [`Lab`] (this is tested).
//!
//! Worker count resolution, in priority order: [`Sweep::with_threads`], the
//! `SDBP_THREADS` environment variable, then [`std::thread::available_parallelism`];
//! the result is clamped to the number of cells.
//!
//! ```
//! use sdbp_core::{ExperimentSpec, Sweep};
//! use sdbp_predictors::{PredictorConfig, PredictorKind};
//! use sdbp_profiles::SelectionScheme;
//! use sdbp_workloads::Benchmark;
//!
//! let specs: Vec<_> = [1024usize, 2048]
//!     .into_iter()
//!     .map(|size| {
//!         ExperimentSpec::self_trained(
//!             Benchmark::Compress,
//!             PredictorConfig::new(PredictorKind::Gshare, size).unwrap(),
//!             SelectionScheme::static_95(),
//!         )
//!         .with_instructions(100_000)
//!     })
//!     .collect();
//! let result = Sweep::new(specs).with_threads(2).run();
//! let reports = result.into_reports().unwrap();
//! assert_eq!(reports.len(), 2);
//! ```

use crate::cache::{ArtifactCache, CacheStats};
use crate::experiment::{ExperimentError, ExperimentSpec, Lab, PreflightFn};
use crate::manifest::{entry_for, RunStore};
use crate::report::Report;
use sdbp_predictors::PredictorConfig;
use sdbp_profiles::SelectionScheme;
use sdbp_workloads::{Benchmark, InputSet, WorkloadFamily};
use std::fmt;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a worker records for one finished cell: the outcome and how long
/// the cell ran on its thread.
type CellOutcome = (Result<Report, ExperimentError>, Duration);

/// The worker count a sweep uses when none is set explicitly: the
/// `SDBP_THREADS` environment variable if set to a positive integer,
/// otherwise all available cores.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var("SDBP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|n| *n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A parallel run of many [`ExperimentSpec`]s sharing one [`ArtifactCache`].
///
/// Build with [`Sweep::new`], refine with the `with_*` builders, execute
/// with [`Sweep::run`]. See the [module docs](self) for determinism and
/// thread-count semantics.
pub struct Sweep {
    specs: Vec<ExperimentSpec>,
    threads: Option<usize>,
    cache: Arc<ArtifactCache>,
    verbose: bool,
    strict: bool,
    preflight: Option<PreflightFn>,
    store_dir: Option<PathBuf>,
    resume: bool,
    cell_cap: Option<usize>,
    fuse: bool,
    lockstep: bool,
}

impl Sweep {
    /// A sweep over `specs` with a fresh cache, automatic thread count, and
    /// strict pre-flight validation **on** (see [`Sweep::with_strict`]).
    pub fn new(specs: impl IntoIterator<Item = ExperimentSpec>) -> Self {
        Self {
            specs: specs.into_iter().collect(),
            threads: None,
            cache: Arc::new(ArtifactCache::new()),
            verbose: false,
            strict: true,
            preflight: None,
            store_dir: None,
            resume: false,
            cell_cap: None,
            fuse: true,
            lockstep: true,
        }
    }

    /// Enables or disables lockstep multi-config execution (on by default).
    ///
    /// A lockstep sweep groups runnable cells that share a measurement
    /// stream — the same `(benchmark, measure_input, seed, measure_budget)`
    /// — and drives each group's measurement passes over **one** traversal
    /// of that stream ([`Lab::run_lockstep`]) instead of one traversal per
    /// cell: an 18-cell grid over one benchmark costs one trace decode, not
    /// 18. Results are bit-identical either way (measurement passes are
    /// independent chunk-invariant consumers); traversals avoided show up
    /// in the summary's `lockstep_traversals_saved` counter. The escape
    /// hatch exists for benchmarking the win and for isolating the lockstep
    /// layer when debugging.
    pub fn with_lockstep(mut self, lockstep: bool) -> Self {
        self.lockstep = lockstep;
        self
    }

    /// Enables or disables pass fusion (on by default; see
    /// [`Lab::with_fusion`]).
    ///
    /// A fused sweep additionally *pre-warms* the cache: runnable cells
    /// sharing a profiling run — the same
    /// `(benchmark, input, seed, budget)` — pool their profile needs, so
    /// the bias profile and every distinct predictor's accuracy profile of
    /// that run are collected in **one** traversal instead of one per
    /// profile. Results are bit-identical either way; traversals avoided
    /// show up in the summary's cache counters.
    pub fn with_fusion(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }

    /// Attaches a persistent run store at `dir`: profiles are cached on disk
    /// across processes and every finished cell is appended to the store's
    /// `manifest.jsonl` (see [`crate::manifest`]).
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// With a store attached, replays cells whose spec digests already
    /// appear completed in the manifest instead of re-running them. Without
    /// a store this has no effect.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Caps the number of cells actually executed this run (`0` lifts the
    /// cap); the rest come back as [`ExperimentError::Skipped`]. With a
    /// store and [`Sweep::with_resume`], a later run picks up the skipped
    /// cells — this is how the resume-equivalence harness interrupts a grid
    /// deterministically.
    pub fn with_max_cells(mut self, cap: usize) -> Self {
        self.cell_cap = (cap > 0).then_some(cap);
        self
    }

    /// Shares an existing artifact cache (e.g. a [`Lab::cache`], or the
    /// cache of a previous sweep) instead of starting cold.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Pins the worker count (`0` restores automatic resolution).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = (threads > 0).then_some(threads);
        self
    }

    /// Prints one progress line per completed cell to stderr.
    pub fn with_verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Controls strict mode (**on** by default): every cell is gated on
    /// [`ExperimentSpec::validate`] and invalid cells come back as
    /// [`ExperimentError::Rejected`] without running — a thousand-cell grid
    /// fails fast and explainably instead of panicking mid-sweep.
    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Installs an additional pre-flight validator run after strict
    /// validation (e.g. `sdbp-check`'s full coded-diagnostics pass).
    pub fn with_preflight(mut self, preflight: PreflightFn) -> Self {
        self.preflight = Some(preflight);
        self
    }

    /// The worker count [`run`](Sweep::run) will use.
    pub fn threads(&self) -> usize {
        self.threads
            .unwrap_or_else(default_threads)
            .min(self.specs.len().max(1))
    }

    /// Checks one spec against strict validation and the installed
    /// pre-flight hook, in that order.
    fn preflight_cell(&self, spec: &ExperimentSpec) -> Result<(), ExperimentError> {
        if self.strict {
            if let Err(problems) = spec.validate() {
                let reason = problems
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join("; ");
                return Err(ExperimentError::Rejected { reason });
            }
        }
        if let Some(preflight) = &self.preflight {
            preflight(spec).map_err(|reason| ExperimentError::Rejected { reason })?;
        }
        Ok(())
    }

    /// Executes every cell and returns the results in spec order.
    ///
    /// With a store attached (see [`Sweep::with_store`]), a failure to open
    /// the run store fails every cell with the same typed error instead of
    /// panicking; finished cells are appended to the store's manifest as
    /// they complete, resumed cells are replayed from it, and capped cells
    /// come back as [`ExperimentError::Skipped`] without touching it.
    pub fn run(self) -> SweepResult {
        let threads = self.threads();
        let rejections: Vec<Option<ExperimentError>> = self
            .specs
            .iter()
            .map(|spec| self.preflight_cell(spec).err())
            .collect();
        let run_store = match &self.store_dir {
            Some(dir) => match RunStore::open(dir, self.resume) {
                Ok(rs) => {
                    let rs = Arc::new(rs);
                    self.cache.attach_store(rs.store());
                    Some(rs)
                }
                Err(e) => {
                    let cells = self
                        .specs
                        .into_iter()
                        .enumerate()
                        .map(|(index, spec)| SweepCell {
                            index,
                            spec,
                            report: Err(e.clone()),
                            elapsed: Duration::ZERO,
                        })
                        .collect();
                    return SweepResult {
                        cells,
                        wall_time: Duration::ZERO,
                        threads,
                        cache_stats: CacheStats::default(),
                        resumed: 0,
                        skipped: 0,
                    };
                }
            },
            None => None,
        };
        let Sweep {
            specs,
            cache,
            verbose,
            resume,
            cell_cap,
            fuse,
            lockstep,
            ..
        } = self;
        let started = Instant::now();
        let before = cache.stats();

        enum Disposition {
            Run,
            Replay(Result<Report, ExperimentError>),
            Skip,
        }
        let mut runnable = 0usize;
        let dispositions: Vec<Disposition> = specs
            .iter()
            .map(|spec| {
                if resume {
                    if let Some(entry) = run_store.as_deref().and_then(|rs| rs.replay(spec)) {
                        return Disposition::Replay(entry.outcome.clone());
                    }
                }
                if cell_cap.is_some_and(|cap| runnable >= cap) {
                    return Disposition::Skip;
                }
                runnable += 1;
                Disposition::Run
            })
            .collect();
        let work: Vec<usize> = dispositions
            .iter()
            .enumerate()
            .filter_map(|(i, d)| matches!(d, Disposition::Run).then_some(i))
            .collect();

        // Pre-warm: pool the profile needs of every runnable cell by
        // profiling run, so each run's bias profile and all the accuracy
        // profiles the grid needs on it are collected in one fused
        // traversal. Workers then find everything hot. (Profiles are
        // deterministic, so racing workers would be harmless — this is
        // purely a traversal saver.)
        if fuse {
            type ProfileRun = (Benchmark, InputSet, u64, u64);
            let mut groups: Vec<(ProfileRun, Vec<PredictorConfig>)> = Vec::new();
            for &i in &work {
                let spec = &specs[i];
                if rejections[i].is_some() || spec.scheme == SelectionScheme::None {
                    continue;
                }
                let input = spec.profile.profile_input(spec.measure_input);
                let run = (spec.benchmark, input, spec.seed, spec.profile_budget());
                let predictors = match groups.iter_mut().find(|(k, _)| *k == run) {
                    Some((_, predictors)) => predictors,
                    None => {
                        groups.push((run, Vec::new()));
                        &mut groups.last_mut().expect("just pushed").1
                    }
                };
                if spec.scheme.needs_accuracy_profile() && !predictors.contains(&spec.predictor) {
                    predictors.push(spec.predictor);
                }
            }
            let next_group = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads.min(groups.len()) {
                    scope.spawn(|| loop {
                        let g = next_group.fetch_add(1, Ordering::Relaxed);
                        let Some(((benchmark, input, seed, budget), predictors)) = groups.get(g)
                        else {
                            break;
                        };
                        let _ =
                            cache.profile_bundle(*benchmark, *input, *seed, *budget, predictors);
                    });
                }
            });
        }

        // The unit of work a worker pulls: with lockstep on, every runnable
        // cell sharing a measurement stream — the same
        // `(benchmark, measure_input, seed, measure_budget)` — forms one
        // group whose members ride a single traversal; with lockstep off (or
        // for cells whose stream is unique) groups are singletons and each
        // cell takes its own traversal, exactly the classic protocol.
        let groups: Vec<Vec<usize>> = if lockstep {
            type MeasureKey = (Benchmark, InputSet, u64, u64);
            let mut grouped: Vec<(MeasureKey, Vec<usize>)> = Vec::new();
            for &i in &work {
                let spec = &specs[i];
                let key = (
                    spec.benchmark,
                    spec.measure_input,
                    spec.seed,
                    spec.measure_budget(),
                );
                match grouped.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(i),
                    None => grouped.push((key, vec![i])),
                }
            }
            grouped.into_iter().map(|(_, members)| members).collect()
        } else {
            work.iter().map(|&i| vec![i]).collect()
        };

        let total = specs.len();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<CellOutcome>>> = (0..total).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let lab = Lab::with_cache(Arc::clone(&cache)).with_fusion(fuse);
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(group) = groups.get(slot) else {
                            break;
                        };
                        let group_started = Instant::now();
                        // Rejected members report without running; the rest
                        // share one traversal.
                        let mut outcomes: Vec<Option<Result<Report, ExperimentError>>> =
                            vec![None; group.len()];
                        let mut member_pos: Vec<usize> = Vec::new();
                        let mut member_specs: Vec<&ExperimentSpec> = Vec::new();
                        for (pos, &i) in group.iter().enumerate() {
                            match &rejections[i] {
                                Some(rejection) => outcomes[pos] = Some(Err(rejection.clone())),
                                None => {
                                    member_pos.push(pos);
                                    member_specs.push(&specs[i]);
                                }
                            }
                        }
                        for (pos, outcome) in member_pos.iter().zip(lab.run_lockstep(&member_specs))
                        {
                            outcomes[*pos] = Some(outcome);
                        }
                        // The traversal is shared, so wall time is attributed
                        // evenly across the group's cells.
                        let elapsed = group_started.elapsed() / group.len().max(1) as u32;
                        for (&i, outcome) in group.iter().zip(outcomes) {
                            let mut report = outcome.expect("every group member settled");
                            if let Some(rs) = &run_store {
                                let entry = entry_for(i, &specs[i], &report, elapsed);
                                if let Err(e) = rs.append(&entry) {
                                    report = Err(e);
                                }
                            }
                            if verbose {
                                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                                match &report {
                                    Ok(r) => {
                                        eprintln!("  [{finished:>3}/{total}] {r}  ({elapsed:.1?})")
                                    }
                                    Err(e) => {
                                        eprintln!("  [{finished:>3}/{total}] cell {i} failed: {e}")
                                    }
                                }
                            }
                            *slots[i].lock().expect("sweep slot lock") = Some((report, elapsed));
                        }
                    }
                });
            }
        });

        let mut resumed = 0usize;
        let mut skipped = 0usize;
        let cells = specs
            .into_iter()
            .zip(slots)
            .zip(dispositions)
            .enumerate()
            .map(|(index, ((spec, slot), disposition))| {
                let (report, elapsed) = match disposition {
                    Disposition::Run => slot
                        .into_inner()
                        .expect("sweep slot lock")
                        .expect("every runnable cell was executed"),
                    Disposition::Replay(outcome) => {
                        resumed += 1;
                        (outcome, Duration::ZERO)
                    }
                    Disposition::Skip => {
                        skipped += 1;
                        let cap = cell_cap.expect("skips only happen under a cap");
                        (
                            Err(ExperimentError::Skipped {
                                reason: format!("cell cap of {cap} reached before this cell"),
                            }),
                            Duration::ZERO,
                        )
                    }
                };
                SweepCell {
                    index,
                    spec,
                    report,
                    elapsed,
                }
            })
            .collect();
        SweepResult {
            cells,
            wall_time: started.elapsed(),
            threads,
            cache_stats: cache.stats().since(&before),
            resumed,
            skipped,
        }
    }
}

impl std::fmt::Debug for Sweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("cells", &self.specs.len())
            .field("threads", &self.threads())
            .finish()
    }
}

/// One executed cell of a sweep.
#[derive(Debug)]
pub struct SweepCell {
    /// Position of this cell in the input spec order.
    pub index: usize,
    /// The spec that was run.
    pub spec: ExperimentSpec,
    /// The outcome (a [`Report`], or the selection error that stopped it).
    pub report: Result<Report, ExperimentError>,
    /// Wall-clock time this cell took on its worker.
    pub elapsed: Duration,
}

/// Aggregate statistics of one workload family's cells within a sweep (see
/// [`SweepResult::family_breakdown`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySummary {
    /// The family the cells belong to.
    pub family: WorkloadFamily,
    /// Successful cells in this family.
    pub cells: usize,
    /// Total simulated branches across those cells.
    pub branches: u64,
    /// Aggregate misprediction density: total mispredictions per thousand
    /// simulated instructions over every successful cell of the family.
    pub misp_per_ki: f64,
    /// Aggregate MISPs/KI of the family's baseline (`scheme == "none"`)
    /// cells, when the grid contains any.
    pub baseline_misp_per_ki: Option<f64>,
    /// Relative MISPs/KI improvement of the family's static-scheme cells
    /// over its baseline cells (positive = fewer mispredictions), when the
    /// grid contains both.
    pub delta_vs_none: Option<f64>,
}

impl fmt::Display for FamilySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "family {}: {} cells, {} branches, {:.3} MISPs/KI",
            self.family, self.cells, self.branches, self.misp_per_ki
        )?;
        if let Some(delta) = self.delta_vs_none {
            write!(f, ", {:+.1}% vs none", delta * 100.0)?;
        }
        Ok(())
    }
}

/// Everything a sweep produced: per-cell results in spec order plus timing
/// and cache observability.
#[derive(Debug)]
pub struct SweepResult {
    /// The executed cells, in the order their specs were given.
    pub cells: Vec<SweepCell>,
    /// Wall-clock time of the whole sweep.
    pub wall_time: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Cache activity during this sweep (deltas, not lifetime totals).
    pub cache_stats: CacheStats,
    /// Cells replayed from a prior run's manifest instead of executing.
    pub resumed: usize,
    /// Cells not executed because the cell cap was reached.
    pub skipped: usize,
}

impl SweepResult {
    /// The reports in spec order, or the first error encountered.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest (by spec order) failed cell.
    pub fn into_reports(self) -> Result<Vec<Report>, ExperimentError> {
        self.cells.into_iter().map(|c| c.report).collect()
    }

    /// Summed per-cell compute time (the "serial equivalent" of the sweep).
    pub fn total_cell_time(&self) -> Duration {
        self.cells.iter().map(|c| c.elapsed).sum()
    }

    /// Wall-clock speedup over running the cells back to back:
    /// `total_cell_time / wall_time`.
    ///
    /// Note this understates the full benefit of the engine — cache reuse
    /// also shrinks the per-cell times themselves.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        let total = self.total_cell_time().as_secs_f64();
        // Guard the degenerate sweeps (no cells, everything replayed, or a
        // sub-resolution wall clock): report parity, never NaN/inf.
        if !wall.is_finite() || wall <= 0.0 || !total.is_finite() || total <= 0.0 {
            1.0
        } else {
            total / wall
        }
    }

    /// Total simulated branches across all successful cells.
    pub fn total_branches(&self) -> u64 {
        self.cells
            .iter()
            .filter_map(|c| c.report.as_ref().ok())
            .map(|r| r.stats.branches)
            .sum()
    }

    /// Aggregate simulation throughput: total branches of the successful
    /// cells divided by the sweep's wall-clock time. This is the engine's
    /// delivered rate (it credits both parallelism and cache reuse), not a
    /// per-kernel figure — see `sdbp bench-kernel` for those.
    pub fn branches_per_sec(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        // A zero or non-finite wall clock (empty sweep, fully replayed
        // sweep) must not turn the throughput into NaN or infinity.
        if !wall.is_finite() || wall <= 0.0 {
            0.0
        } else {
            self.total_branches() as f64 / wall
        }
    }

    /// Per-cell simulation throughput in Mbr/s — `(min, median, max)` over
    /// the successful cells that actually executed (replayed and skipped
    /// cells have no measured time and are excluded). `None` when nothing
    /// executed. The spread is the grid's per-kernel dynamic range: slow
    /// multi-bank cells sit at the min, cheap bimodal cells at the max.
    pub fn cell_throughput_mbrs(&self) -> Option<(f64, f64, f64)> {
        let mut rates: Vec<f64> = self
            .cells
            .iter()
            .filter_map(|c| {
                let report = c.report.as_ref().ok()?;
                let secs = c.elapsed.as_secs_f64();
                (secs > 0.0 && secs.is_finite()).then(|| report.stats.branches as f64 / secs / 1e6)
            })
            .collect();
        if rates.is_empty() {
            return None;
        }
        rates.sort_by(f64::total_cmp);
        let median = if rates.len() % 2 == 1 {
            rates[rates.len() / 2]
        } else {
            (rates[rates.len() / 2 - 1] + rates[rates.len() / 2]) / 2.0
        };
        Some((rates[0], median, rates[rates.len() - 1]))
    }

    /// Per-family aggregates over the successful cells, in
    /// [`WorkloadFamily::ALL`] report order (families with no successful
    /// cells are omitted).
    ///
    /// Families group *comparable* streams: aggregating branch counts or
    /// MISPs/KI across SPEC95, server, and H2P cells would average
    /// incommensurable workloads, so mixed-family grids report per family.
    /// The per-family delta compares static-scheme cells against the
    /// family's `"none"`-scheme baseline cells when the grid has both.
    pub fn family_breakdown(&self) -> Vec<FamilySummary> {
        WorkloadFamily::ALL
            .iter()
            .filter_map(|&family| {
                let mut cells = 0usize;
                let mut branches = 0u64;
                let mut instructions = 0u64;
                let mut mispredictions = 0u64;
                // Baseline vs static-scheme split for the delta.
                let (mut base_i, mut base_m) = (0u64, 0u64);
                let (mut stat_i, mut stat_m) = (0u64, 0u64);
                for report in self
                    .cells
                    .iter()
                    .filter_map(|c| c.report.as_ref().ok())
                    .filter(|r| r.family() == family)
                {
                    cells += 1;
                    branches += report.stats.branches;
                    instructions += report.stats.instructions;
                    mispredictions += report.stats.mispredictions;
                    if report.scheme_label == "none" {
                        base_i += report.stats.instructions;
                        base_m += report.stats.mispredictions;
                    } else {
                        stat_i += report.stats.instructions;
                        stat_m += report.stats.mispredictions;
                    }
                }
                if cells == 0 {
                    return None;
                }
                let mpki = |m: u64, i: u64| m as f64 * 1000.0 / i as f64;
                let baseline = (base_i > 0).then(|| mpki(base_m, base_i));
                let delta = match (baseline, stat_i > 0) {
                    (Some(base), true) if base > 0.0 => Some((base - mpki(stat_m, stat_i)) / base),
                    _ => None,
                };
                Some(FamilySummary {
                    family,
                    cells,
                    branches,
                    misp_per_ki: mpki(mispredictions, instructions),
                    baseline_misp_per_ki: baseline,
                    delta_vs_none: delta,
                })
            })
            .collect()
    }

    /// A one-line summary: cell count, threads, wall time, speedup,
    /// aggregate branch throughput, per-cell throughput spread, and cache
    /// hit/miss counters (including traversals saved by fusion and
    /// lockstep). Grids spanning **several** workload families append one
    /// line per family (cells, branches, MISPs/KI, delta vs the `"none"`
    /// baseline) instead of letting incomparable streams hide behind the
    /// aggregate numbers; single-family summaries are unchanged.
    pub fn summary(&self) -> String {
        let mut summary = format!(
            "{} cells on {} threads in {:.2?} (cell time {:.2?}, {:.1}x, {:.1} Mbr/s); {}",
            self.cells.len(),
            self.threads,
            self.wall_time,
            self.total_cell_time(),
            self.speedup(),
            self.branches_per_sec() / 1e6,
            self.cache_stats,
        );
        if let Some((min, median, max)) = self.cell_throughput_mbrs() {
            summary.push_str(&format!(
                "; cell Mbr/s min/med/max {min:.1}/{median:.1}/{max:.1}"
            ));
        }
        if self.resumed > 0 {
            summary.push_str(&format!("; {} replayed from manifest", self.resumed));
        }
        if self.skipped > 0 {
            summary.push_str(&format!("; {} skipped at cell cap", self.skipped));
        }
        let families = self.family_breakdown();
        if families.len() >= 2 {
            for family in families {
                summary.push_str(&format!("\n  {family}"));
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::{PredictorConfig, PredictorKind};
    use sdbp_profiles::SelectionScheme;
    use sdbp_workloads::Benchmark;

    fn grid() -> Vec<ExperimentSpec> {
        let mut specs = Vec::new();
        for benchmark in [Benchmark::Compress, Benchmark::Go] {
            for size in [512usize, 1024] {
                for scheme in [SelectionScheme::None, SelectionScheme::static_acc()] {
                    specs.push(
                        ExperimentSpec::self_trained(
                            benchmark,
                            PredictorConfig::new(PredictorKind::Gshare, size).unwrap(),
                            scheme,
                        )
                        .with_instructions(120_000),
                    );
                }
            }
        }
        specs
    }

    #[test]
    fn results_come_back_in_spec_order() {
        let specs = grid();
        let result = Sweep::new(specs.clone()).with_threads(4).run();
        assert_eq!(result.cells.len(), specs.len());
        for (i, cell) in result.cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.spec, specs[i]);
            let report = cell.report.as_ref().unwrap();
            assert_eq!(report.benchmark, specs[i].benchmark);
            assert_eq!(report.predictor, specs[i].predictor);
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let specs = grid();
        let lab = Lab::new();
        let serial: Vec<_> = specs.iter().map(|s| lab.run(s).unwrap()).collect();
        let parallel = Sweep::new(specs)
            .with_threads(4)
            .run()
            .into_reports()
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn fusion_off_matches_fused_results_bit_for_bit() {
        let fused = Sweep::new(grid()).with_threads(2).run();
        let unfused = Sweep::new(grid()).with_threads(2).with_fusion(false).run();
        // grid(): per benchmark, one profiling run feeds a bias profile and
        // two accuracy profiles (512 B and 1 KB gshare) — fusing the three
        // saves two traversals, times two benchmarks.
        assert_eq!(
            fused.cache_stats.fused_traversals_saved, 4,
            "{}",
            fused.cache_stats
        );
        assert_eq!(unfused.cache_stats.fused_traversals_saved, 0);
        assert_eq!(
            fused.into_reports().unwrap(),
            unfused.into_reports().unwrap(),
            "fusion must not change a single bit of the results"
        );
    }

    #[test]
    fn lockstep_off_matches_lockstep_results_bit_for_bit() {
        let locked = Sweep::new(grid()).with_threads(2).run();
        let sequential = Sweep::new(grid())
            .with_threads(2)
            .with_lockstep(false)
            .run();
        // grid(): two measurement streams (one per benchmark), four cells
        // each — lockstep saves three traversals per stream.
        assert_eq!(
            locked.cache_stats.lockstep_traversals_saved, 6,
            "{}",
            locked.cache_stats
        );
        assert_eq!(sequential.cache_stats.lockstep_traversals_saved, 0);
        assert_eq!(
            locked.into_reports().unwrap(),
            sequential.into_reports().unwrap(),
            "lockstep must not change a single bit of the results"
        );
    }

    #[test]
    fn lockstep_groups_survive_rejected_members() {
        let mut specs = grid();
        specs[0].measure_instructions = Some(0); // strict-mode rejection
        let result = Sweep::new(specs.clone()).with_threads(2).run();
        assert!(matches!(
            result.cells[0].report,
            Err(ExperimentError::Rejected { .. })
        ));
        let baseline = Sweep::new(specs).with_threads(2).with_lockstep(false).run();
        for (locked, sequential) in result.cells.iter().zip(&baseline.cells).skip(1) {
            assert_eq!(
                locked.report.as_ref().unwrap(),
                sequential.report.as_ref().unwrap()
            );
        }
    }

    #[test]
    fn shared_cache_turns_repeat_sweeps_into_hits() {
        let cache = Arc::new(ArtifactCache::new());
        let first = Sweep::new(grid())
            .with_cache(Arc::clone(&cache))
            .with_threads(2)
            .run();
        assert!(first.cache_stats.misses() > 0);
        let second = Sweep::new(grid())
            .with_cache(Arc::clone(&cache))
            .with_threads(2)
            .run();
        assert_eq!(
            second.cache_stats.bias_misses + second.cache_stats.accuracy_misses,
            0,
            "second identical sweep must reuse every profile: {}",
            second.cache_stats
        );
    }

    #[test]
    fn thread_count_clamps_to_cells() {
        let sweep = Sweep::new(grid()).with_threads(64);
        assert_eq!(sweep.threads(), 8);
        let empty = Sweep::new(Vec::new()).with_threads(64);
        assert_eq!(empty.threads(), 1);
        assert_eq!(empty.run().cells.len(), 0);
    }

    #[test]
    fn single_thread_sweep_works() {
        let result = Sweep::new(grid()[..2].to_vec()).with_threads(1).run();
        assert_eq!(result.threads, 1);
        assert!(result.into_reports().is_ok());
    }

    #[test]
    fn strict_mode_rejects_invalid_cells_and_runs_the_rest() {
        let mut specs = grid();
        specs[1].measure_instructions = Some(0);
        let result = Sweep::new(specs).with_threads(2).run();
        match &result.cells[1].report {
            Err(ExperimentError::Rejected { reason }) => {
                assert!(reason.contains("measurement budget"), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        for (i, cell) in result.cells.iter().enumerate() {
            if i != 1 {
                assert!(cell.report.is_ok(), "cell {i}: {:?}", cell.report);
            }
        }
    }

    #[test]
    fn custom_preflight_hook_runs_after_strict_validation() {
        let specs = grid();
        let result = Sweep::new(specs)
            .with_threads(2)
            .with_preflight(Arc::new(|spec: &ExperimentSpec| {
                if spec.predictor.size_bytes() < 1024 {
                    Err("policy: tables under 1 KB are not allowed".to_string())
                } else {
                    Ok(())
                }
            }))
            .run();
        for cell in &result.cells {
            if cell.spec.predictor.size_bytes() < 1024 {
                assert!(
                    matches!(cell.report, Err(ExperimentError::Rejected { .. })),
                    "{:?}",
                    cell.report
                );
            } else {
                assert!(cell.report.is_ok());
            }
        }
    }

    #[test]
    fn strict_mode_can_be_disabled() {
        let mut specs = grid()[..2].to_vec();
        specs[0].warmup_instructions = u64::MAX;
        let lax = Sweep::new(specs).with_strict(false).with_threads(1).run();
        assert!(
            lax.cells[0].report.is_ok(),
            "lax mode runs the degenerate cell: {:?}",
            lax.cells[0].report
        );
    }

    #[test]
    fn degenerate_sweeps_never_produce_nan_throughput() {
        let empty = Sweep::new(Vec::new()).with_threads(1).run();
        assert!(empty.speedup().is_finite(), "{}", empty.speedup());
        assert!(
            empty.branches_per_sec().is_finite(),
            "{}",
            empty.branches_per_sec()
        );
        let summary = empty.summary();
        assert!(!summary.contains("NaN"), "{summary}");
        assert!(!summary.contains("inf"), "{summary}");

        // A hand-built result with a zero wall clock (every cell replayed).
        let zero_wall = SweepResult {
            cells: Vec::new(),
            wall_time: Duration::ZERO,
            threads: 1,
            cache_stats: CacheStats::default(),
            resumed: 3,
            skipped: 0,
        };
        assert_eq!(zero_wall.speedup(), 1.0);
        assert_eq!(zero_wall.branches_per_sec(), 0.0);
        let summary = zero_wall.summary();
        assert!(!summary.contains("NaN"), "{summary}");
        assert!(summary.contains("3 replayed from manifest"), "{summary}");
    }

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sdbp-sweep-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_records_a_manifest_and_resume_replays_it() {
        use crate::manifest::{RunManifest, RunStore};

        let root = temp_root("resume");
        let full = Sweep::new(grid()).with_threads(2).run();
        let full_reports = full.into_reports().unwrap();

        // Interrupted run: only the first 3 cells execute.
        let partial = Sweep::new(grid())
            .with_threads(2)
            .with_store(&root)
            .with_max_cells(3)
            .run();
        assert_eq!(partial.skipped, grid().len() - 3);
        assert!(matches!(
            partial.cells[5].report,
            Err(ExperimentError::Skipped { .. })
        ));
        let text = std::fs::read_to_string(RunStore::manifest_path(&root)).unwrap();
        assert_eq!(RunManifest::parse(&text).unwrap().entries.len(), 3);

        // Resumed run: replays 3, executes the remaining 5.
        let resumed = Sweep::new(grid())
            .with_threads(2)
            .with_store(&root)
            .with_resume(true)
            .run();
        assert_eq!(resumed.resumed, 3);
        assert_eq!(resumed.skipped, 0);
        assert!(
            resumed.cache_stats.disk_hits > 0,
            "resume must hit the profile disk tier: {}",
            resumed.cache_stats
        );
        let resumed_reports = resumed.into_reports().unwrap();
        assert_eq!(resumed_reports, full_reports, "resume is bit-identical");

        // The final manifest covers every cell and matches an uninterrupted
        // store-backed run in canonical form.
        let text = std::fs::read_to_string(RunStore::manifest_path(&root)).unwrap();
        let final_manifest = RunManifest::parse(&text).unwrap();
        assert_eq!(final_manifest.entries.len(), grid().len());

        let clean_root = temp_root("clean");
        let _ = Sweep::new(grid())
            .with_threads(2)
            .with_store(&clean_root)
            .run();
        let clean_text = std::fs::read_to_string(RunStore::manifest_path(&clean_root)).unwrap();
        let clean_manifest = RunManifest::parse(&clean_text).unwrap();
        assert_eq!(final_manifest.canonical(), clean_manifest.canonical());

        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&clean_root);
    }

    #[test]
    fn unopenable_store_fails_every_cell_with_a_typed_error() {
        // A file where the store directory should be.
        let root = temp_root("blocked");
        std::fs::create_dir_all(&root).unwrap();
        let blocker = root.join("not-a-dir");
        std::fs::write(&blocker, b"in the way").unwrap();
        let result = Sweep::new(grid()[..2].to_vec())
            .with_threads(1)
            .with_store(&blocker)
            .run();
        for cell in &result.cells {
            assert!(
                matches!(cell.report, Err(ExperimentError::Io { .. })),
                "{:?}",
                cell.report
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn single_family_summaries_stay_unlabeled() {
        let result = Sweep::new(grid()).with_threads(2).run();
        assert_eq!(result.family_breakdown().len(), 1);
        assert!(
            !result.summary().contains("family "),
            "{}",
            result.summary()
        );
    }

    #[test]
    fn mixed_family_grids_report_per_family() {
        let mut specs = grid();
        for scheme in [SelectionScheme::None, SelectionScheme::static_acc()] {
            specs.push(
                ExperimentSpec::self_trained(
                    Benchmark::H2pChurn,
                    PredictorConfig::new(PredictorKind::Gshare, 1024).unwrap(),
                    scheme,
                )
                .with_instructions(120_000),
            );
        }
        let result = Sweep::new(specs).with_threads(2).run();
        let families = result.family_breakdown();
        assert_eq!(families.len(), 2);
        assert_eq!(families[0].family, WorkloadFamily::Spec95);
        assert_eq!(families[0].cells, 8);
        assert_eq!(families[1].family, WorkloadFamily::H2p);
        assert_eq!(families[1].cells, 2);
        for f in &families {
            assert!(f.misp_per_ki > 0.0, "{f}");
            assert!(f.baseline_misp_per_ki.is_some(), "{f}");
            assert!(f.delta_vs_none.is_some(), "{f}");
        }
        // The coin-flip family mispredicts far more densely than SPEC95 —
        // exactly the incomparability the per-family split exists for.
        assert!(families[1].misp_per_ki > families[0].misp_per_ki);
        let summary = result.summary();
        assert!(summary.contains("family spec95:"), "{summary}");
        assert!(summary.contains("family h2p:"), "{summary}");
        assert!(summary.contains("% vs none"), "{summary}");
    }

    #[test]
    fn summary_reports_observability() {
        let result = Sweep::new(grid()).with_threads(2).run();
        let summary = result.summary();
        assert!(summary.contains("8 cells on 2 threads"), "{summary}");
        assert!(summary.contains("cache"), "{summary}");
        assert!(summary.contains("Mbr/s"), "{summary}");
        assert!(summary.contains("cell Mbr/s min/med/max"), "{summary}");
        assert!(
            summary.contains("traversals saved by lockstep"),
            "{summary}"
        );
        assert!(result.total_branches() > 0);
        assert!(result.branches_per_sec() > 0.0, "{summary}");
        let (min, median, max) = result.cell_throughput_mbrs().unwrap();
        assert!(min > 0.0 && min <= median && median <= max, "{summary}");
    }
}
