//! The traced run's stage sequence over a list of experiment specs.
//!
//! Each stage calls one layer's public entry point for every artifact the
//! specs need, in the order the two-phase protocol needs them: event
//! streams, bias profiles, accuracy profiles (fused per profiling run),
//! hint selection, then measurement through `Lab::run_lockstep`, grouped by
//! measurement stream and split by predictor kind. The run is serial, so
//! each span is its stage's self time: every later stage finds the
//! artifacts of the earlier ones in the lab's cache.

use crate::probe::{digest_str, Tracer};
use sdbp_core::{ArtifactCache, ExperimentSpec, Lab, ProfileSource, Report};
use sdbp_predictors::PredictorConfig;
use sdbp_profiles::SelectionScheme;
use sdbp_workloads::{Benchmark, InputSet};

/// A generated (or imported) run: `(benchmark, input, seed, instructions)`.
pub type StreamKey = (Benchmark, InputSet, u64, u64);

/// What the stages produced.
#[derive(Default)]
pub struct StageResults {
    /// Per spec, in spec order: the selected hint database's digest and
    /// size, or the selection error (`None` for specs without a scheme).
    pub selections: Vec<Option<Result<(String, usize), String>>>,
    /// Per spec, in spec order, when the measure stage ran.
    pub reports: Vec<Result<Report, String>>,
}

fn push_unique<T: PartialEq>(v: &mut Vec<T>, item: T) {
    if !v.contains(&item) {
        v.push(item);
    }
}

/// Profiling runs in first-use order, each with the predictors whose
/// accuracy profile some spec needs on it (the grouping `Sweep` pre-warms).
pub fn profile_runs(specs: &[ExperimentSpec]) -> Vec<(StreamKey, Vec<PredictorConfig>)> {
    let mut runs: Vec<(StreamKey, Vec<PredictorConfig>)> = Vec::new();
    for spec in specs.iter().filter(|s| s.scheme != SelectionScheme::None) {
        let input = spec.profile.profile_input(spec.measure_input);
        let key = (spec.benchmark, input, spec.seed, spec.profile_budget());
        let pos = match runs.iter().position(|(k, _)| *k == key) {
            Some(pos) => pos,
            None => {
                runs.push((key, Vec::new()));
                runs.len() - 1
            }
        };
        if spec.scheme.needs_accuracy_profile() {
            push_unique(&mut runs[pos].1, spec.predictor);
        }
    }
    runs
}

/// Extra bias-only runs: the `Ref` profile a merged cross-trained spec
/// merges with its `Train` profile.
fn merged_ref_runs(specs: &[ExperimentSpec]) -> Vec<StreamKey> {
    let mut runs = Vec::new();
    for spec in specs.iter().filter(|s| s.scheme != SelectionScheme::None) {
        if let ProfileSource::MergedCrossTrained { .. } = spec.profile {
            let budget = spec
                .profile_instructions
                .unwrap_or_else(|| spec.benchmark.default_instructions(InputSet::Ref));
            push_unique(
                &mut runs,
                (spec.benchmark, InputSet::Ref, spec.seed, budget),
            );
        }
    }
    runs
}

fn measure_key(spec: &ExperimentSpec) -> StreamKey {
    (
        spec.benchmark,
        spec.measure_input,
        spec.seed,
        spec.measure_budget(),
    )
}

/// Every stream the specs touch, plus `extra`, in first-use order.
pub fn stream_keys(specs: &[ExperimentSpec], measure: bool, extra: &[StreamKey]) -> Vec<StreamKey> {
    let mut keys = Vec::new();
    for (key, _) in profile_runs(specs) {
        push_unique(&mut keys, key);
    }
    for key in merged_ref_runs(specs) {
        push_unique(&mut keys, key);
    }
    if measure {
        for spec in specs {
            push_unique(&mut keys, measure_key(spec));
        }
    }
    for &key in extra {
        push_unique(&mut keys, key);
    }
    keys
}

/// Stage 1: materializes every stream through `ArtifactCache::events`,
/// under span `span` (`workloads.gen` for generated streams,
/// `trace.decode` for imported ones) and counter `events`.
pub fn streams(lab: &Lab, keys: &[StreamKey], t: &mut Tracer, span: &str, events: &str) {
    let cache = lab.cache();
    for &(b, input, seed, budget) in keys {
        let n = t.span(span, || cache.events(b, input, seed, budget).len());
        t.add(events, n as f64);
    }
}

/// Stages 2 and 3: bias profiles, then the accuracy profiles of each
/// profiling run in one fused `profile_bundle` traversal.
pub fn profiles(lab: &Lab, specs: &[ExperimentSpec], t: &mut Tracer) {
    let cache = lab.cache();
    let runs = profile_runs(specs);
    let mut bias_keys: Vec<StreamKey> = runs.iter().map(|(k, _)| *k).collect();
    bias_keys.extend(merged_ref_runs(specs));
    for (b, input, seed, budget) in bias_keys {
        let profile = t.span("profiles.bias", || {
            cache.bias_profile(b, input, seed, budget)
        });
        t.add("profiles.bias_count", 1.0);
        t.add("profiles.bias_branches", profile.total_executions() as f64);
    }
    for ((b, input, seed, budget), predictors) in runs {
        if predictors.is_empty() {
            continue;
        }
        let (_, accuracies) = t.span("profiles.accuracy", || {
            cache.profile_bundle(b, input, seed, budget, &predictors)
        });
        for profile in accuracies {
            t.add("profiles.accuracy_count", 1.0);
            let executed: u64 = profile.iter().map(|(_, site)| site.executed).sum();
            t.add("profiles.accuracy_branches", executed as f64);
        }
    }
}

/// Stage 4: `Lab::select_hints` for every spec with a scheme.
pub fn select(lab: &Lab, specs: &[ExperimentSpec], t: &mut Tracer, out: &mut StageResults) {
    out.selections = specs
        .iter()
        .map(|spec| {
            if spec.scheme == SelectionScheme::None {
                return None;
            }
            let selected = t.span("profiles.select", || lab.select_hints(spec));
            Some(match selected {
                Ok(db) => {
                    t.add("profiles.hints", db.len() as f64);
                    Ok((digest_str(&db.to_text()), db.len()))
                }
                Err(e) => Err(e.to_string()),
            })
        })
        .collect();
}

/// Stage 5: measurement through `Lab::run_lockstep`, one group per
/// measurement stream and predictor kind, timed per kind. Phase one runs
/// again inside `run_lockstep`; its profiles are all cached by now.
pub fn measure(lab: &Lab, specs: &[ExperimentSpec], t: &mut Tracer, out: &mut StageResults) {
    let mut groups: Vec<((StreamKey, &'static str), Vec<usize>)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let key = (measure_key(spec), spec.predictor.kind().name());
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut reports: Vec<Option<Result<Report, String>>> = vec![None; specs.len()];
    for ((_, kind), members) in groups {
        let group: Vec<&ExperimentSpec> = members.iter().map(|&i| &specs[i]).collect();
        let results = t.span(&format!("core.measure.{kind}"), || lab.run_lockstep(&group));
        for (&i, result) in members.iter().zip(results) {
            if let Ok(report) = &result {
                t.add("core.measure_branches", report.stats.branches as f64);
            }
            reports[i] = Some(result.map_err(|e| e.to_string()));
        }
    }
    out.reports = reports
        .into_iter()
        .map(|r| r.expect("every spec is in one group"))
        .collect();
}

/// Branches the specs' measurement passes evaluate: the length of each
/// spec's measured stream, read from `cache` once per stream (a stream the
/// cache has evicted is generated again).
pub fn measured_branches(cache: &ArtifactCache, specs: &[ExperimentSpec]) -> u64 {
    let mut cells: Vec<(StreamKey, u64)> = Vec::new();
    for spec in specs {
        let key = measure_key(spec);
        match cells.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => cells.push((key, 1)),
        }
    }
    cells
        .into_iter()
        .map(|((b, input, seed, budget), n)| n * cache.events(b, input, seed, budget).len() as u64)
        .sum()
}

/// Branches the accuracy profiles the specs need were collected over —
/// predictor evaluations — read back from `cache` once they are computed.
pub fn accuracy_branches(cache: &ArtifactCache, specs: &[ExperimentSpec]) -> u64 {
    let mut total = 0;
    for ((b, input, seed, budget), predictors) in profile_runs(specs) {
        for p in predictors {
            let profile = cache.accuracy_profile(b, input, seed, budget, p);
            total += profile.iter().map(|(_, s)| s.executed).sum::<u64>();
        }
    }
    total
}

/// Records the lab cache's lifetime counters the per-layer table reports.
pub fn cache_counters(lab: &Lab, t: &mut Tracer) {
    let s = lab.cache().stats();
    t.add("passes.fused_saved", s.fused_traversals_saved as f64);
    t.add("passes.lockstep_saved", s.lockstep_traversals_saved as f64);
    t.add("core.trace_hits", s.trace_hits as f64);
    t.add("core.trace_misses", s.trace_misses as f64);
    t.add("core.cache_hits", s.hits() as f64);
    t.add("core.cache_lookups", (s.hits() + s.misses()) as f64);
}
