//! The hot-path simulation-kernel micro-benchmark.
//!
//! Measures raw kernel throughput — resolved branches per second through
//! [`CombinedPredictor`] + [`Simulator`] — for every built-in predictor and
//! a gshare size sweep, against a faithful replica of the pre-optimization
//! kernel: a gshare built on the naive [`ReferenceTable`], virtually
//! dispatched through `Box<dyn DynamicPredictor>`, driven one event at a
//! time through `next_event`. The same workload streams feed both sides, so
//! the ratio isolates the kernel changes (bit-packed counters, enum
//! dispatch, chunked event pulls) from everything else.
//!
//! The replica makes one virtual `predict_update` call per dynamically
//! predicted event. The pre-optimization kernel made two (`predict`, then
//! `update`), and the checked-in `BENCH_simkernel.json` baseline row was
//! recorded that way, so a fresh run's baseline row is not directly
//! comparable with the checked-in one.
//!
//! Consumed by the `simkernel` criterion bench (`cargo bench -p sdbp-bench
//! --bench simkernel`) and the `sdbp bench-kernel` subcommand, which writes
//! the machine-readable `BENCH_simkernel.json` used by CI and the
//! performance docs.

use sdbp_core::{
    ArtifactCache, BranchResolution, CombinedPredictor, ShiftPolicy, SimStats, Simulator,
};
use sdbp_predictors::{
    DynamicPredictor, HistoryRegister, Prediction, PredictorConfig, PredictorKind, ReferenceTable,
};
use sdbp_profiles::HintDatabase;
use sdbp_trace::{BranchAddr, BranchEvent, BranchSource, SliceSource};
use sdbp_workloads::{Benchmark, InputSet, Workload};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-benchmark instruction budget of the full workload suite.
pub const FULL_INSTRUCTIONS: u64 = 4_000_000;

/// Per-benchmark instruction budget under `--quick` (CI smoke mode).
pub const QUICK_INSTRUCTIONS: u64 = 200_000;

/// The size at which the baseline comparison runs. The target is for
/// current gshare at this size to beat the reference kernel by 2x;
/// `BENCH_simkernel.json` records 1.93x, and no gate enforces the target.
pub const BASELINE_SIZE: usize = 4 * 1024;

/// The gshare sizes swept in addition to the all-predictor comparison.
pub const GSHARE_SIZES: [usize; 4] = [1024, 4 * 1024, 16 * 1024, 64 * 1024];

/// One timed kernel measurement: a full pass of the workload suite through
/// one predictor configuration.
#[derive(Debug, Clone)]
pub struct KernelMeasurement {
    /// Scheme label (`"gshare"`, …, or [`ReferenceGshare`]'s name for the
    /// baseline row).
    pub label: String,
    /// Modeled predictor budget in bytes.
    pub size_bytes: usize,
    /// Branches resolved in one suite pass.
    pub branches: u64,
    /// Best-of-reps wall-clock seconds for one suite pass.
    pub seconds: f64,
    /// Table collisions accumulated over the pass (a cheap cross-check that
    /// both kernels simulated the same thing).
    pub collisions: u64,
}

impl KernelMeasurement {
    /// Kernel throughput in resolved branches per second.
    pub fn branches_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.branches as f64 / self.seconds
        } else {
            0.0
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"predictor\": \"{}\", \"size_bytes\": {}, \"branches\": {}, \"seconds\": {:.6}, \"branches_per_sec\": {:.0}, \"collisions\": {}}}",
            self.label, self.size_bytes, self.branches, self.seconds,
            self.branches_per_sec(), self.collisions,
        )
    }
}

/// Everything one `bench-kernel` run produced.
#[derive(Debug)]
pub struct KernelReport {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// Per-benchmark instruction budget used.
    pub instructions_per_benchmark: u64,
    /// Total branch events across the suite (one pass).
    pub events: u64,
    /// The pre-optimization kernel replica at [`BASELINE_SIZE`].
    pub baseline: KernelMeasurement,
    /// The current kernel, per predictor/size.
    pub kernels: Vec<KernelMeasurement>,
    /// Trace-store hits during workload generation.
    pub cache_hits: u64,
    /// Trace-store misses during workload generation.
    pub cache_misses: u64,
}

impl KernelReport {
    /// Current-kernel gshare throughput at [`BASELINE_SIZE`] over the
    /// reference kernel — the headline speedup.
    pub fn gshare_speedup(&self) -> f64 {
        let current = self
            .kernels
            .iter()
            .find(|m| m.label == "gshare" && m.size_bytes == BASELINE_SIZE)
            .map(KernelMeasurement::branches_per_sec)
            .unwrap_or(0.0);
        let base = self.baseline.branches_per_sec();
        if base > 0.0 {
            current / base
        } else {
            0.0
        }
    }

    /// Renders the report as the `BENCH_simkernel.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"sdbp-bench-kernel/v2\",\n");
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!(
            "  \"workload\": {{\"benchmarks\": {}, \"input\": \"ref\", \"seed\": {}, \"instructions_per_benchmark\": {}, \"events\": {}}},\n",
            Benchmark::ALL.len(),
            crate::SEED,
            self.instructions_per_benchmark,
            self.events,
        ));
        out.push_str(&format!(
            "  \"cache\": {{\"trace_hits\": {}, \"trace_misses\": {}}},\n",
            self.cache_hits, self.cache_misses,
        ));
        out.push_str(&format!("  \"baseline\": {},\n", self.baseline.json()));
        out.push_str(&format!(
            "  \"gshare_speedup_over_baseline\": {:.2},\n",
            self.gshare_speedup()
        ));
        out.push_str("  \"kernels\": [\n");
        for (i, m) in self.kernels.iter().enumerate() {
            let comma = if i + 1 < self.kernels.len() { "," } else { "" };
            out.push_str(&format!("    {}{}\n", m.json(), comma));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A terse human-readable table for the CLI.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "simulation kernel throughput ({} events/pass, best of reps)\n",
            self.events
        ));
        let row = |m: &KernelMeasurement| {
            format!(
                "  {:<20} {:>7}B  {:>12.2} Mbranches/s\n",
                m.label,
                m.size_bytes,
                m.branches_per_sec() / 1e6
            )
        };
        out.push_str(&row(&self.baseline));
        for m in &self.kernels {
            out.push_str(&row(m));
        }
        out.push_str(&format!(
            "  gshare {}B speedup over reference kernel: {:.2}x\n",
            BASELINE_SIZE,
            self.gshare_speedup()
        ));
        out
    }
}

/// The pre-optimization gshare: same index function and collision semantics
/// as [`sdbp_predictors::Gshare`], but backed by the naive
/// [`ReferenceTable`] (unpacked `SaturatingCounter` vector plus
/// `Option<BranchAddr>` tag vector). Predictions are bit-identical to the
/// packed gshare; only the storage layout — and therefore the speed —
/// differs.
#[derive(Debug, Clone)]
pub struct ReferenceGshare {
    table: ReferenceTable,
    history: HistoryRegister,
    history_len: u32,
}

impl ReferenceGshare {
    /// Mirrors `Gshare::new`: history length = index width capped at 12.
    pub fn new(size_bytes: usize) -> Self {
        let table = ReferenceTable::two_bit(size_bytes * 4);
        let history_len = table.index_bits().min(12);
        Self {
            history: HistoryRegister::new(history_len),
            history_len,
            table,
        }
    }

    fn index(&self, pc: BranchAddr) -> u64 {
        let hist_mask = if self.history_len >= 64 {
            u64::MAX
        } else {
            (1u64 << self.history_len) - 1
        };
        (pc.word_index() ^ (self.history.bits(self.history_len) & hist_mask))
            & self.table.index_mask()
    }
}

impl DynamicPredictor for ReferenceGshare {
    fn name(&self) -> &'static str {
        "gshare-reference"
    }

    fn size_bytes(&self) -> usize {
        self.table.size_bytes()
    }

    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let index = self.index(pc);
        let (predicted, collision) = self.table.lookup(index, pc);
        self.table.train(index, taken);
        self.history.push(taken);
        Prediction {
            taken: predicted,
            collision,
        }
    }

    fn shift_history(&mut self, taken: bool) {
        self.history.push(taken);
    }

    fn total_collisions(&self) -> u64 {
        self.table.collisions()
    }

    fn history_bits(&self) -> u32 {
        self.history_len
    }
}

/// Generates (through `cache`, so reruns hit the trace store) the event
/// stream of every benchmark at the given budget.
pub fn workload_suite(cache: &ArtifactCache, instructions: u64) -> Vec<Arc<Vec<BranchEvent>>> {
    Benchmark::ALL
        .iter()
        .map(|&b| cache.events(b, InputSet::Ref, crate::SEED, instructions))
        .collect()
}

/// A standalone suite for the criterion bench (no cache observability).
pub fn standalone_suite(instructions: u64) -> Vec<Vec<BranchEvent>> {
    Benchmark::ALL
        .iter()
        .map(|&b| {
            Workload::spec95(b)
                .generator(InputSet::Ref, crate::SEED)
                .take_instructions(instructions)
                .collect_trace()
                .into_iter()
                .collect()
        })
        .collect()
}

/// One suite pass through the **current** kernel: enum-dispatched predictor,
/// chunked [`Simulator`] loop, packed tables. Returns (branches, collisions).
pub fn current_kernel_pass(
    config: &PredictorConfig,
    suite: &[Arc<Vec<BranchEvent>>],
) -> (u64, u64) {
    let mut branches = 0u64;
    let mut collisions = 0u64;
    for events in suite {
        let mut predictor = CombinedPredictor::pure_dynamic(config.build_any());
        let stats = Simulator::new().run(SliceSource::new(events), &mut predictor);
        branches += stats.branches;
        collisions += predictor.total_collisions();
    }
    (branches, collisions)
}

/// A line-for-line replica of the pre-optimization combined predictor: the
/// dynamic component behind a `Box<dyn DynamicPredictor>` **field** (so
/// every `predict_update` is a virtual call, as it was when the concrete
/// type was erased at a crate boundary) and an unconditional per-branch
/// hint-database probe.
struct BaselineCombined {
    dynamic: Box<dyn DynamicPredictor>,
    hints: HintDatabase,
    shift_policy: ShiftPolicy,
}

impl BaselineCombined {
    fn resolve(&mut self, event: &BranchEvent) -> BranchResolution {
        match self.hints.get(event.pc) {
            Some(hint_taken) => {
                if self.shift_policy == ShiftPolicy::Shift {
                    self.dynamic.shift_history(event.taken);
                }
                BranchResolution {
                    predicted_taken: hint_taken,
                    was_static: true,
                    collision: false,
                }
            }
            None => {
                let pred = self.dynamic.predict_update(event.pc, event.taken);
                BranchResolution {
                    predicted_taken: pred.taken,
                    was_static: false,
                    collision: pred.collision,
                }
            }
        }
    }
}

/// One suite pass through the **reference** kernel: `Box<dyn>` virtual
/// dispatch, one `next_event` call per branch, naive table storage, and the
/// original single-event accounting loop — the shape of the simulator
/// before the kernel optimizations.
pub fn baseline_kernel_pass(size_bytes: usize, suite: &[Arc<Vec<BranchEvent>>]) -> (u64, u64) {
    let mut branches = 0u64;
    let mut collisions = 0u64;
    for events in suite {
        // `black_box` hides the concrete type behind the vtable pointer.
        // Without it LLVM devirtualizes and inlines the whole predictor
        // into this loop — an optimization the pre-PR build never got,
        // because the box was constructed in a different crate than the
        // simulator loop that called through it.
        let boxed: Box<dyn DynamicPredictor> = Box::new(ReferenceGshare::new(size_bytes));
        let mut predictor = BaselineCombined {
            dynamic: black_box(boxed),
            hints: HintDatabase::new(),
            shift_policy: ShiftPolicy::NoShift,
        };
        let mut source = SliceSource::new(events);
        // The original `run_with_observer` body (warm-up budget 0).
        let mut stats = SimStats::default();
        while let Some(event) = source.next_event() {
            let resolution = predictor.resolve(&event);
            let correct = resolution.predicted_taken == event.taken;
            stats.instructions += event.instructions();
            stats.branches += 1;
            stats.mispredictions += u64::from(!correct);
            if resolution.was_static {
                stats.static_predicted += 1;
                stats.static_mispredictions += u64::from(!correct);
            }
            if resolution.collision {
                stats.collisions.record(correct);
            }
        }
        black_box(&stats);
        branches += stats.branches;
        collisions += predictor.dynamic.total_collisions();
    }
    (branches, collisions)
}

fn timed<F: FnMut() -> (u64, u64)>(reps: u32, mut pass: F) -> (u64, f64, u64) {
    let mut best = f64::INFINITY;
    let (mut branches, mut collisions) = (0u64, 0u64);
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let (b, c) = black_box(pass());
        best = best.min(started.elapsed().as_secs_f64());
        branches = b;
        collisions = c;
    }
    (branches, best, collisions)
}

/// Times the current kernel for one predictor configuration.
pub fn measure_current(
    kind: PredictorKind,
    size_bytes: usize,
    suite: &[Arc<Vec<BranchEvent>>],
    reps: u32,
) -> KernelMeasurement {
    let config = PredictorConfig::new(kind, size_bytes).expect("bench sizes are powers of two");
    let (branches, seconds, collisions) = timed(reps, || current_kernel_pass(&config, suite));
    KernelMeasurement {
        label: kind.to_string(),
        size_bytes,
        branches,
        seconds,
        collisions,
    }
}

/// Times the reference kernel at `size_bytes`.
pub fn measure_baseline(
    size_bytes: usize,
    suite: &[Arc<Vec<BranchEvent>>],
    reps: u32,
) -> KernelMeasurement {
    let (branches, seconds, collisions) = timed(reps, || baseline_kernel_pass(size_bytes, suite));
    KernelMeasurement {
        label: "gshare-reference".to_string(),
        size_bytes,
        branches,
        seconds,
        collisions,
    }
}

/// Runs the full kernel benchmark: the reference baseline, a gshare size
/// sweep, and every other predictor at [`BASELINE_SIZE`], with `progress`
/// invoked once per finished row. Every row re-pulls its workload streams
/// through one shared [`ArtifactCache`], so the report's cache counters
/// show one miss per benchmark and hits for every reuse.
pub fn run(quick: bool, mut progress: impl FnMut(&KernelMeasurement)) -> KernelReport {
    let instructions = if quick {
        QUICK_INSTRUCTIONS
    } else {
        FULL_INSTRUCTIONS
    };
    let reps = if quick { 1 } else { 3 };
    let cache = ArtifactCache::new();
    let suite = workload_suite(&cache, instructions);
    let events: u64 = suite.iter().map(|e| e.len() as u64).sum();

    let baseline = measure_baseline(BASELINE_SIZE, &suite, reps);
    progress(&baseline);

    let mut kernels = Vec::new();
    for size in GSHARE_SIZES {
        let suite = workload_suite(&cache, instructions);
        let m = measure_current(PredictorKind::Gshare, size, &suite, reps);
        progress(&m);
        kernels.push(m);
    }
    let comparison_kinds = if quick {
        // The cheap bimodal floor, the dearest SWAR-batched skewed
        // predictor, and both frontier designs, so CI smoke exercises
        // every kernel dispatch family.
        vec![
            PredictorKind::Bimodal,
            PredictorKind::TwoBcGskew,
            PredictorKind::Perceptron,
            PredictorKind::TageLite,
        ]
    } else {
        PredictorKind::ALL
            .iter()
            .copied()
            .filter(|&k| k != PredictorKind::Gshare)
            .collect()
    };
    for kind in comparison_kinds {
        let suite = workload_suite(&cache, instructions);
        let m = measure_current(kind, BASELINE_SIZE, &suite, reps);
        progress(&m);
        kernels.push(m);
    }

    let stats = cache.stats();
    KernelReport {
        quick,
        instructions_per_benchmark: instructions,
        events,
        baseline,
        kernels,
        cache_hits: stats.trace_hits,
        cache_misses: stats.trace_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> Vec<Arc<Vec<BranchEvent>>> {
        workload_suite(&ArtifactCache::new(), 60_000)
    }

    #[test]
    fn reference_gshare_matches_packed_gshare_exactly() {
        // Same index function + same collision semantics: the two kernels
        // must agree branch for branch, not just in aggregate.
        let suite = tiny_suite();
        let mut packed = sdbp_predictors::Gshare::new(BASELINE_SIZE);
        let mut reference = ReferenceGshare::new(BASELINE_SIZE);
        assert_eq!(packed.size_bytes(), reference.size_bytes());
        for events in &suite {
            for e in events.iter() {
                let a = packed.predict_update(e.pc, e.taken);
                let b = reference.predict_update(e.pc, e.taken);
                assert_eq!(a, b);
            }
        }
        assert_eq!(packed.total_collisions(), reference.total_collisions());
    }

    #[test]
    fn both_kernel_passes_simulate_the_same_branches() {
        let suite = tiny_suite();
        let config = PredictorConfig::new(PredictorKind::Gshare, BASELINE_SIZE).unwrap();
        let current = current_kernel_pass(&config, &suite);
        let baseline = baseline_kernel_pass(BASELINE_SIZE, &suite);
        assert_eq!(current, baseline, "(branches, collisions) must agree");
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = run(true, |_| {});
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"sdbp-bench-kernel/v2\""));
        assert!(json.contains("\"baseline\""));
        // The quick comparison set covers the frontier designs too.
        assert!(json.contains("\"predictor\": \"perceptron\""));
        assert!(json.contains("\"predictor\": \"tage-lite\""));
        assert!(json.contains("\"gshare_speedup_over_baseline\""));
        assert!(json.contains("\"trace_hits\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(report.gshare_speedup() > 0.0);
        assert!(report.events > 0);
        // One trace per benchmark generated, reused by every measurement.
        assert_eq!(report.cache_misses, Benchmark::ALL.len() as u64);
        assert!(report.cache_hits > 0);
    }
}
