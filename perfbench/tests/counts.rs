//! The deterministic counts repeat exactly: between two traced runs, and
//! between a traced and an untraced run wherever stage order cannot change
//! them. Later changes may rest a claim on these counts.
//!
//! Runs the worker binary at small size; each run is its own process, as
//! in a benchmark run (the import registry is per process).

use sdbp_artifacts::Json;
use std::process::Command;

/// Layer counts that depend only on the workload, never on timing.
const DETERMINISTIC: [&str; 14] = [
    "workloads.events",
    "trace.bytes",
    "profiles.bias_count",
    "profiles.accuracy_count",
    "profiles.hints",
    "passes.fused_saved",
    "passes.lockstep_saved",
    "core.trace_hits",
    "core.trace_misses",
    "core.measure_branches",
    "artifacts.objects_written",
    "artifacts.bytes_written",
    "artifacts.disk_hits",
    "artifacts.disk_misses",
];

fn run(workload: &str, traced: bool) -> Json {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("counts-{workload}"));
    std::fs::create_dir_all(&tmp).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sdbp-perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "11",
        "--threads",
        "2",
        "--small",
    ])
    .arg("--tmp")
    .arg(&tmp)
    .env("SDBP_SCALE", "1")
    .env("SDBP_THREADS", "2")
    .env("SDBP_TRACE_CACHE", "128000000")
    .env_remove("SDBP_STORE")
    .env_remove("SDBP_RESUME");
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Json::parse(String::from_utf8(out.stdout).unwrap().trim()).unwrap();
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(
        result
            .get("mismatches")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0),
        "{workload}: {result}"
    );
    result
}

fn check(workload: &str) {
    let first = run(workload, true);
    let second = run(workload, true);
    let plain = run(workload, false);
    for name in DETERMINISTIC {
        let a = first.get("layers").and_then(|l| l.get(name));
        assert!(a.is_some(), "{workload}: traced run lacks {name}");
        assert_eq!(
            a,
            second.get("layers").and_then(|l| l.get(name)),
            "{workload}: {name}"
        );
    }
    assert_eq!(
        first.get("digest"),
        plain.get("digest"),
        "{workload}: digest"
    );
    let (Some(Json::Obj(traced)), Some(untraced)) = (first.get("counts"), plain.get("counts"))
    else {
        panic!("{workload}: runs report no counts");
    };
    assert!(!traced.is_empty());
    for (name, value) in traced {
        assert_eq!(Some(value), untraced.get(name), "{workload}: count {name}");
    }
}

#[test]
fn hint_select_counts_repeat_exactly() {
    check("hint_select");
}

#[test]
fn trace_replay_counts_repeat_exactly() {
    check("trace_replay");
}
