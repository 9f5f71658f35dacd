//! `hint_select`: the paper's phase one as a compiler would run it —
//! profile every synthetic benchmark on its train input and select hint
//! databases, with no measurement. The predictor kernels run here through
//! `AccuracyPass`, not `MeasurePass`.

use crate::probe::{digest_str, Tracer};
use crate::stages::{self, StageResults};
use crate::{Config, Outcome, Timed};
use sdbp_core::{ExperimentSpec, Lab, ProfileSource};
use sdbp_predictors::{IndexCapability, PredictorConfig, PredictorKind};
use sdbp_profiles::SelectionScheme;
use sdbp_workloads::{Benchmark, InputSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Profiling budget per benchmark (train input), in instructions.
const BUDGET: u64 = 1_500_000;
const SMALL_BUDGET: u64 = 100_000;

/// The two predictor sizes every paper predictor is selected for.
const SIZES: [usize; 2] = [2 * 1024, 16 * 1024];

/// The merged-profile slice: the paper's 5% bias-change tolerance.
const MAX_BIAS_CHANGE: f64 = 0.05;

/// Result lines recorded at seed 2000.
pub const REFERENCE: &str = include_str!("../reference/hint_select.txt");

/// The selections, grouped by benchmark so workers never share a stream.
pub struct State {
    benchmarks: Vec<Vec<ExperimentSpec>>,
}

fn selection_spec(
    benchmark: Benchmark,
    predictor: PredictorConfig,
    scheme: SelectionScheme,
    cfg: &Config,
) -> ExperimentSpec {
    let mut spec = ExperimentSpec::self_trained(benchmark, predictor, scheme)
        .with_seed(cfg.seed)
        .with_measure_input(InputSet::Train);
    spec.profile_instructions = Some(if cfg.small { SMALL_BUDGET } else { BUDGET });
    spec
}

/// Builds the selection list: per synthetic benchmark, every paper
/// predictor at both sizes under `static_95` and `static_acc`, plus
/// `static_collide` where the index function is visible, plus a merged
/// cross-trained `static_acc` slice on gshare.
pub fn setup(cfg: &Config) -> Result<State, String> {
    let benchmarks: &[Benchmark] = if cfg.small {
        &[Benchmark::Compress, Benchmark::H2pChurn]
    } else {
        &Benchmark::SYNTHETIC
    };
    let sizes: &[usize] = if cfg.small { &SIZES[..1] } else { &SIZES };
    let mut grouped = Vec::new();
    for &benchmark in benchmarks {
        let mut specs = Vec::new();
        for &size in sizes {
            for kind in PredictorKind::PAPER {
                let predictor = PredictorConfig::new(kind, size).map_err(|e| e.to_string())?;
                let mut schemes = vec![SelectionScheme::static_95(), SelectionScheme::static_acc()];
                if predictor.index_capability() != IndexCapability::Opaque {
                    schemes.push(SelectionScheme::static_collide());
                }
                for scheme in schemes {
                    specs.push(selection_spec(benchmark, predictor, scheme, cfg));
                }
            }
            let gshare =
                PredictorConfig::new(PredictorKind::Gshare, size).map_err(|e| e.to_string())?;
            specs.push(
                selection_spec(benchmark, gshare, SelectionScheme::static_acc(), cfg).with_profile(
                    ProfileSource::MergedCrossTrained {
                        max_bias_change: MAX_BIAS_CHANGE,
                    },
                ),
            );
        }
        grouped.push(specs);
    }
    Ok(State {
        benchmarks: grouped,
    })
}

type Selection = Result<(String, usize), String>;

fn label(spec: &ExperimentSpec) -> String {
    format!(
        "{}/{}/{}/{}",
        spec.benchmark.name(),
        spec.predictor.to_string().replace(' ', "-"),
        spec.scheme.label(),
        spec.profile.label()
    )
}

fn all_specs(state: &State) -> Vec<ExperimentSpec> {
    state.benchmarks.iter().flatten().cloned().collect()
}

/// Fills the outcome of a run on `threads` workers with one result line
/// per selection.
fn settle(specs: &[ExperimentSpec], selections: &[Selection], threads: usize) -> Outcome {
    let mut out = Outcome::new(specs.len() as u64, threads);
    out.digest_of = "hint databases";
    out.result("selections".into(), specs.len().to_string());
    let mut hints = 0usize;
    for (i, (spec, selection)) in specs.iter().zip(selections).enumerate() {
        let line = match selection {
            Ok((digest, len)) => {
                hints += len;
                format!("{} {len} {digest}", label(spec))
            }
            Err(e) => {
                out.failed += 1;
                format!("{} failed: {e}", label(spec))
            }
        };
        out.result(format!("sel.{i}"), line);
    }
    out.count("profiles.hints", hints as f64);
    out
}

/// The untraced run: workers pull whole benchmarks and select every hint
/// database of each through one shared `Lab`.
pub fn run(state: State, cfg: &Config, timed: &mut Timed) -> Outcome {
    let lab = Lab::new();
    let threads = cfg.threads.min(state.benchmarks.len());
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Vec<Selection>>> =
        state.benchmarks.iter().map(|_| Mutex::default()).collect();
    timed.run(|| {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(specs) = state.benchmarks.get(i) else {
                        break;
                    };
                    let selections = specs
                        .iter()
                        .map(|spec| match lab.select_hints(spec) {
                            Ok(db) => Ok((digest_str(&db.to_text()), db.len())),
                            Err(e) => Err(e.to_string()),
                        })
                        .collect();
                    *results[i].lock().expect("no worker panicked") = selections;
                });
            }
        });
    });
    let specs = all_specs(&state);
    let selections: Vec<Selection> = results
        .into_iter()
        .flat_map(|m| m.into_inner().expect("no worker panicked"))
        .collect();
    let mut out = settle(&specs, &selections, threads);
    out.work_branches = stages::accuracy_branches(&lab.cache(), &specs);
    out.count_profiles(&lab.cache());
    out
}

/// The traced run: streams, bias, accuracy, then selection, serially.
pub fn run_traced(state: State, _cfg: &Config, timed: &mut Timed, t: &mut Tracer) -> Outcome {
    let specs = all_specs(&state);
    let lab = Lab::new();
    let mut results = StageResults::default();
    timed.run(|| {
        let keys = stages::stream_keys(&specs, false, &[]);
        stages::streams(&lab, &keys, t, "workloads.gen", "workloads.events");
        stages::profiles(&lab, &specs, t);
        stages::select(&lab, &specs, t, &mut results);
    });
    stages::cache_counters(&lab, t);
    let selections: Vec<Selection> = results
        .selections
        .into_iter()
        .map(|s| s.expect("every hint_select spec has a scheme"))
        .collect();
    let mut out = settle(&specs, &selections, 1);
    out.work_branches = t.count("profiles.accuracy_branches") as u64;
    out.count_profiles(&lab.cache());
    out
}
