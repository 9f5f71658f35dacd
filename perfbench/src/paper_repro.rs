//! `paper_repro`: the thirteen experiments of `all_experiments`, in order,
//! on one shared `Lab` — the run the repository publishes.
//!
//! The experiments hardcode `sdbp_bench::SEED`, so this workload ignores
//! the requested seed and always runs at 2000; its stdout must equal
//! `results_full.txt` byte for byte.

use crate::probe::{digest_str, Tracer};
use crate::stages::{self, StageResults, StreamKey};
use crate::{Config, Outcome, Timed};
use sdbp_bench::experiments as ex;
use sdbp_core::{ArtifactCache, ExperimentSpec, Lab};
use sdbp_workloads::{Benchmark, InputSet};
use std::sync::Arc;

/// One experiment: its name and its entry point.
type Experiment = (&'static str, fn(&Lab) -> String);

/// The experiments in `all_experiments` order.
const EXPERIMENTS: [Experiment; 13] = [
    ("table1", ex::table1),
    ("table2", ex::table2),
    ("fig1_6", ex::fig1_6),
    ("fig7_12", ex::fig7_12),
    ("table3", ex::table3),
    ("table4", ex::table4),
    ("table5", ex::table5),
    ("fig13", ex::fig13),
    ("ablate_shift", ex::ablate_shift),
    ("ablate_cutoff", ex::ablate_cutoff),
    ("ablate_selection", ex::ablate_selection),
    ("ablate_doubling", ex::ablate_doubling),
    ("ablate_mcfarling", ex::ablate_mcfarling),
];

/// The traced lab keeps every stream of the suite resident, so no stage
/// regenerates a stream an earlier stage produced (the suite touches about
/// 200 M instructions of streams; the default store holds 128 M).
const TRACED_TRACE_CAPACITY: u64 = 1 << 40;

/// Result lines recorded at seed 2000.
pub const REFERENCE: &str = include_str!("../reference/paper_repro.txt");

/// The checked-in expected output.
const RESULTS_FILE: &str = "results_full.txt";

/// Everything built before the timed run.
pub struct State {
    specs: Vec<ExperimentSpec>,
    expected: String,
}

/// Reads the expected output and builds the suite's spec list.
pub fn setup(_cfg: &Config) -> Result<State, String> {
    let expected = std::fs::read_to_string(RESULTS_FILE)
        .map_err(|e| format!("cannot read {RESULTS_FILE}: {e}"))?;
    Ok(State {
        specs: ex::suite_specs(),
        expected,
    })
}

/// The untraced run: every experiment through its own entry point.
pub fn run(state: State, cfg: &Config, timed: &mut Timed) -> Outcome {
    let lab = Lab::new();
    let outputs: Vec<String> = timed.run(|| EXPERIMENTS.iter().map(|(_, f)| f(&lab)).collect());
    let mut out = Outcome::new(state.specs.len() as u64, cfg.threads);
    out.digest_of = "experiment outputs";
    for ((name, _), output) in EXPERIMENTS.iter().zip(&outputs) {
        out.result(format!("section.{name}"), digest_str(output));
    }
    let stdout: String = outputs.iter().map(|s| format!("{s}\n")).collect();
    if cfg.check_reference && stdout != state.expected {
        out.mismatch(format!("stdout differs from {RESULTS_FILE}"));
    }
    let cache = lab.cache();
    out.work_branches = stages::measured_branches(&cache, &state.specs)
        + stages::accuracy_branches(&cache, &state.specs);
    out.result("work_branches".into(), out.work_branches.to_string());
    out.count_profiles(&cache);
    out
}

/// The streams Tables 1 and 5 read at their default budgets.
fn table_streams() -> Vec<StreamKey> {
    let mut keys = Vec::new();
    for b in Benchmark::ALL {
        for input in [InputSet::Train, InputSet::Ref] {
            keys.push((b, input, sdbp_bench::SEED, b.default_instructions(input)));
        }
    }
    keys
}

/// The traced run: pre-flight, the stage sequence over the whole suite,
/// then Tables 1 and 5 (the experiments that are not sweep cells) as the
/// entry-point remainder.
pub fn run_traced(state: State, _cfg: &Config, timed: &mut Timed, t: &mut Tracer) -> Outcome {
    let specs = &state.specs;
    let lab = Lab::with_cache(Arc::new(ArtifactCache::with_trace_capacity(
        TRACED_TRACE_CAPACITY,
    )));
    let mut results = StageResults::default();
    let mut rejected = 0u64;
    let tables = timed.run(|| {
        for spec in specs {
            if t.span("check.preflight", || sdbp_check::preflight(spec))
                .is_err()
            {
                rejected += 1;
            }
        }
        let keys = stages::stream_keys(specs, true, &table_streams());
        stages::streams(&lab, &keys, t, "workloads.gen", "workloads.events");
        stages::profiles(&lab, specs, t);
        stages::select(&lab, specs, t, &mut results);
        stages::measure(&lab, specs, t, &mut results);
        t.span("bench.entry", || (ex::table1(&lab), ex::table5(&lab)))
    });
    stages::cache_counters(&lab, t);

    let mut out = Outcome::new(specs.len() as u64, 1);
    out.failed = rejected;
    let mut lines = String::new();
    for report in &results.reports {
        match report {
            Ok(r) => lines.push_str(&format!("{} {:?}\n", r.summary(), r.stats)),
            Err(e) => {
                out.failed += 1;
                out.mismatch(format!("cell failed: {e}"));
            }
        }
    }
    out.digest_of = "suite reports";
    out.result("reports".into(), digest_str(&lines));
    for (name, text) in [("table1", &tables.0), ("table5", &tables.1)] {
        out.result(format!("section.{name}"), digest_str(text));
    }
    out.work_branches =
        (t.count("core.measure_branches") + t.count("profiles.accuracy_branches")) as u64;
    out.result("work_branches".into(), out.work_branches.to_string());
    out.count_profiles(&lab.cache());
    out
}
