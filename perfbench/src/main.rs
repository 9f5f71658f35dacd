//! One benchmark iteration in its own process.
//!
//! ```text
//! sdbp-perfbench --workload <paper_repro|hint_select|trace_replay> --seed N
//!                --threads T --tmp DIR [--traced] [--setup-only] [--small]
//!                [--write-reference FILE]
//! ```
//!
//! Sets the workload up, runs it once — untraced, or serially with every
//! stage timed — checks its results, and prints one JSON object on stdout.
//! `--setup-only` instead repeats set-up at least three times and for at
//! least 0.2 s and reports only the set-up times. `perfbench/run.py`
//! builds this binary, runs it once per iteration and aggregates the
//! metrics. `--write-reference` records the result lines of an untraced
//! and a traced run at seed 2000, unchecked, as the reference instead of
//! measuring.

#![forbid(unsafe_code)]

mod hint_select;
mod paper_repro;
mod probe;
mod stages;
mod trace_replay;

use probe::Tracer;
use sdbp_artifacts::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The seed the checked-in references were recorded at.
pub const REFERENCE_SEED: u64 = 2000;

/// The trace-store capacity the benchmark pins (the library default).
const PINNED_TRACE_CACHE: &str = "128000000";

/// A set-up-only process repeats set-up at least this many times and for
/// at least this many seconds: one set-up of a fraction of a millisecond
/// is too short to time alone.
const SETUP_ONLY_REPS: usize = 3;
const SETUP_ONLY_SECONDS: f64 = 0.2;

/// Per-iteration settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Small inputs, for the benchmark's own tests.
    pub small: bool,
    /// Directory for this iteration's temporary files.
    pub tmp: PathBuf,
    /// Whether results are compared with the recorded reference.
    pub check_reference: bool,
}

/// The timed region of one iteration.
#[derive(Default)]
pub struct Timed {
    wall: f64,
    cpu: f64,
    peak_rss_mb: f64,
}

impl Timed {
    /// Runs `f` as the timed region, recording wall and process CPU time,
    /// and the peak memory of the process up to its end (checking the
    /// results afterwards may take more).
    pub fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu = probe::cpu_seconds();
        let started = Instant::now();
        let out = f();
        self.wall = started.elapsed().as_secs_f64();
        self.cpu = probe::cpu_seconds() - cpu;
        self.peak_rss_mb = probe::peak_rss_mb();
        out
    }
}

/// What one iteration did and whether its results were right.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cells, selections and admissions.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Result units that differ from the reference, described.
    pub mismatches: Vec<String>,
    /// Keyed result lines: what the reference records at seed 2000 and
    /// what the results digest covers.
    pub results: Vec<(String, String)>,
    /// What the result lines cover; digests of the same thing must agree.
    pub digest_of: &'static str,
    /// Worker threads the timed run used (1 for a traced run).
    pub threads: usize,
    /// Branches the predictors evaluated: measured plus accuracy-profiled.
    pub work_branches: u64,
    /// Deterministic counts observable without tracing.
    pub counts: BTreeMap<String, f64>,
}

impl Outcome {
    /// An outcome of `attempted` operations on `threads` workers, none
    /// failed yet.
    pub fn new(attempted: u64, threads: usize) -> Self {
        Self {
            attempted,
            threads,
            ..Self::default()
        }
    }

    /// Records a result unit that differs from its reference.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Adds a result line.
    pub fn result(&mut self, key: String, value: String) {
        self.results.push((key, value));
    }

    /// Digest over every result line.
    pub fn digest(&self) -> String {
        let lines: String = self
            .results
            .iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect();
        probe::digest_str(&lines)
    }

    /// Records a mismatch for every result line that differs from
    /// `reference` (`key value` lines; blank lines and `#` comments are
    /// skipped).
    pub fn check_reference(&mut self, reference: &str) {
        let recorded: BTreeMap<&str, &str> = reference
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k, v.trim()))
            .collect();
        for (key, value) in &self.results {
            if recorded.get(key.as_str()) != Some(&value.trim()) {
                self.mismatches
                    .push(format!("{key} differs from the reference"));
            }
        }
    }

    /// Sets a deterministic count.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_string(), value);
    }

    /// Counts the profiles `cache` holds: the same set however the stages
    /// were ordered.
    pub fn count_profiles(&mut self, cache: &sdbp_core::ArtifactCache) {
        self.count("profiles.bias_profiles", cache.bias_profiles() as f64);
        self.count(
            "profiles.accuracy_profiles",
            cache.accuracy_profiles() as f64,
        );
    }
}

type Setup<S> = fn(&Config) -> Result<S, String>;
type Run<S> = fn(S, &Config, &mut Timed) -> Outcome;
type RunTraced<S> = fn(S, &Config, &mut Timed, &mut Tracer) -> Outcome;

/// A workload's entry points and its recorded reference.
struct Workload<S> {
    setup: Setup<S>,
    run: Run<S>,
    run_traced: RunTraced<S>,
    reference: &'static str,
}

struct Args {
    workload: String,
    traced: bool,
    setup_only: bool,
    write_reference: Option<PathBuf>,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut threads = None;
    let mut tmp = None;
    let mut traced = false;
    let mut small = false;
    let mut setup_only = false;
    let mut write_reference = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--threads" => threads = Some(value()?.parse::<usize>().map_err(|e| e.to_string())?),
            "--tmp" => tmp = Some(PathBuf::from(value()?)),
            "--write-reference" => write_reference = Some(PathBuf::from(value()?)),
            "--traced" => traced = true,
            "--setup-only" => setup_only = true,
            "--small" => small = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    // The paper's experiments hardcode their seed.
    let seed = match seed.ok_or("--seed is required")? {
        _ if workload == "paper_repro" => sdbp_bench::SEED,
        seed => seed,
    };
    let threads = threads
        .filter(|&n| n > 0)
        .ok_or("--threads N (N > 0) is required")?;
    Ok(Args {
        workload,
        traced,
        setup_only,
        write_reference,
        cfg: Config {
            seed,
            threads,
            small,
            tmp: tmp.ok_or("--tmp is required")?,
            check_reference: seed == REFERENCE_SEED && !small,
        },
    })
}

/// The library reads these variables and changes the measured program
/// when they are set, so the benchmark runs only with them pinned.
fn check_environment(threads: usize) -> Result<(), String> {
    let expect = [
        ("SDBP_SCALE", Some("1".to_string())),
        ("SDBP_THREADS", Some(threads.to_string())),
        ("SDBP_TRACE_CACHE", Some(PINNED_TRACE_CACHE.to_string())),
        ("SDBP_STORE", None),
        ("SDBP_RESUME", None),
    ];
    for (name, want) in expect {
        let got = std::env::var(name).ok();
        if got != want {
            return Err(format!(
                "{name} must be {} for a benchmark run (found {})",
                want.as_deref().unwrap_or("unset"),
                got.as_deref().unwrap_or("unset")
            ));
        }
    }
    if sdbp_core::default_threads() != threads {
        return Err("the sweep engine resolved another thread count".into());
    }
    Ok(())
}

/// One iteration: set-up, then the untraced or traced run.
struct Iteration {
    out: Outcome,
    timed: Timed,
    tracer: Tracer,
}

/// Sets `w` up once (or, for `--setup-only`, repeatedly; `None` is then
/// returned after set-up), runs it and checks its results against the
/// reference when `cfg` asks for it.
fn iterate<S>(
    w: &Workload<S>,
    cfg: &Config,
    traced: bool,
    setup_only: bool,
) -> Result<(Vec<f64>, Option<Iteration>), String> {
    let (reps, seconds) = if setup_only {
        (SETUP_ONLY_REPS, SETUP_ONLY_SECONDS)
    } else {
        (1, 0.0)
    };
    let mut setup_s = Vec::new();
    let mut state = None;
    let first = Instant::now();
    while setup_s.len() < reps || first.elapsed().as_secs_f64() < seconds {
        // Drop the previous repetition's state (and its files) first.
        drop(state.take());
        let started = Instant::now();
        state = Some((w.setup)(cfg)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    if setup_only {
        return Ok((setup_s, None));
    }
    let state = state.expect("at least one set-up repetition");
    let mut timed = Timed::default();
    let mut tracer = Tracer::default();
    let mut out = if traced {
        (w.run_traced)(state, cfg, &mut timed, &mut tracer)
    } else {
        (w.run)(state, cfg, &mut timed)
    };
    if cfg.check_reference {
        out.check_reference(w.reference);
    }
    Ok((setup_s, Some(Iteration { out, timed, tracer })))
}

fn drive<S>(args: &Args, w: &Workload<S>) -> Result<Json, String> {
    let floats = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Float(x)).collect());
    let (setup_s, it) = iterate(w, &args.cfg, args.traced, args.setup_only)?;
    let Some(Iteration { out, timed, tracer }) = it else {
        return Ok(Json::obj([("setup_s", floats(&setup_s))]));
    };
    let mut fields = vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Int(args.cfg.seed as i64)),
        ("traced", Json::Bool(args.traced)),
        ("threads", Json::Int(out.threads as i64)),
        ("setup_s", floats(&setup_s)),
        ("wall_s", Json::Float(timed.wall)),
        ("cpu_s", Json::Float(timed.cpu)),
        ("peak_rss_mb", Json::Float(timed.peak_rss_mb)),
        ("work_branches", Json::Int(out.work_branches as i64)),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        (
            "mismatches",
            Json::Arr(out.mismatches.iter().map(Json::str).collect()),
        ),
        ("reference_checked", Json::Bool(args.cfg.check_reference)),
        ("digest", Json::str(out.digest())),
        ("digest_of", Json::str(out.digest_of)),
        (
            "counts",
            Json::obj(out.counts.iter().map(|(k, v)| (k.clone(), Json::Float(*v)))),
        ),
    ];
    if args.traced {
        fields.push(("spans", tracer.spans_json()));
        fields.push(("layers", layer_metrics(&tracer, timed.wall)));
    }
    Ok(Json::obj(fields))
}

/// Writes the result lines of an ordinary untraced and traced run at seed
/// 2000, with reference checking off, as the reference at `path`. Lines
/// both runs produce must agree.
fn write_reference<S>(args: &Args, w: &Workload<S>, path: &std::path::Path) -> Result<(), String> {
    if args.cfg.seed != REFERENCE_SEED || args.cfg.small {
        return Err(format!(
            "references are recorded at seed {REFERENCE_SEED}, full size"
        ));
    }
    let cfg = Config {
        check_reference: false,
        ..args.cfg.clone()
    };
    let mut lines: Vec<(String, String)> = Vec::new();
    for traced in [false, true] {
        let (_, it) = iterate(w, &cfg, traced, false)?;
        let out = it.expect("a full iteration").out;
        if out.failed > 0 || !out.mismatches.is_empty() {
            return Err(format!(
                "the run failed its own checks: {:?}",
                out.mismatches
            ));
        }
        for (key, value) in out.results {
            match lines.iter().find(|(k, _)| *k == key) {
                Some((_, v)) if *v != value => {
                    return Err(format!("traced and untraced runs disagree on {key}"))
                }
                Some(_) => {}
                None => lines.push((key, value)),
            }
        }
    }
    let text: String = lines.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes the reference or measures one iteration, as `args` asks.
fn execute<S>(args: &Args, w: Workload<S>) -> Result<Option<Json>, String> {
    match &args.write_reference {
        Some(path) => write_reference(args, &w, path).map(|()| None),
        None => drive(args, &w).map(Some),
    }
}

fn rate(count: f64, seconds: f64, unit: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds / unit
    } else {
        0.0
    }
}

/// The per-layer metrics a traced run yields (the two that also need an
/// untraced run are added by `run.py`).
fn layer_metrics(t: &Tracer, traced_total: f64) -> Json {
    const MEGA: f64 = 1e6;
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));
    let mut measure_s = 0.0;
    for kind in sdbp_predictors::PredictorKind::ALL {
        let s = t.seconds(&format!("core.measure.{}", kind.name()));
        measure_s += s;
        put(&format!("core.measure_s.{}", kind.name()), s);
    }
    put("core.measure_s", measure_s);
    put("core.measure_branches", t.count("core.measure_branches"));
    put(
        "core.measure_mbrs",
        rate(t.count("core.measure_branches"), measure_s, MEGA),
    );
    let accuracy_s = t.seconds("profiles.accuracy");
    put("profiles.accuracy_s", accuracy_s);
    put(
        "profiles.accuracy_mbrs",
        rate(t.count("profiles.accuracy_branches"), accuracy_s, MEGA),
    );
    put(
        "profiles.accuracy_count",
        t.count("profiles.accuracy_count"),
    );
    put("profiles.bias_s", t.seconds("profiles.bias"));
    put("profiles.bias_count", t.count("profiles.bias_count"));
    put("profiles.select_s", t.seconds("profiles.select"));
    put("profiles.hints", t.count("profiles.hints"));
    let gen_s = t.seconds("workloads.gen");
    put("workloads.gen_s", gen_s);
    put("workloads.events", t.count("workloads.events"));
    put(
        "workloads.gen_mevs",
        rate(t.count("workloads.events"), gen_s, MEGA),
    );
    let decode_s = t.seconds("trace.decode");
    put("trace.decode_s", decode_s);
    put(
        "trace.decode_mevs",
        rate(t.count("trace.events"), decode_s, MEGA),
    );
    put("trace.bytes", t.count("trace.bytes"));
    put("check.admit_s", t.seconds("check.admit"));
    put("check.preflight_s", t.seconds("check.preflight"));
    for name in [
        "artifacts.objects_written",
        "artifacts.bytes_written",
        "artifacts.disk_hits",
        "artifacts.disk_misses",
        "passes.fused_saved",
        "passes.lockstep_saved",
        "core.trace_hits",
        "core.trace_misses",
    ] {
        put(name, t.count(name));
    }
    put("artifacts.read_s", t.seconds("artifacts.read"));
    put("artifacts.resume_s", t.seconds("artifacts.resume"));
    let lookups = t.count("core.cache_lookups");
    put(
        "core.cache_hit_ratio",
        if lookups > 0.0 {
            t.count("core.cache_hits") / lookups
        } else {
            0.0
        },
    );
    put("bench.entry_s", t.seconds("bench.entry"));
    put("bench.residual_s", traced_total - t.total_seconds());
    put("bench.spans_s", t.total_seconds());
    Json::obj(m.into_iter().map(|(k, v)| (k, Json::Float(v))))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sdbp-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = check_environment(args.cfg.threads) {
        eprintln!("sdbp-perfbench: refusing to run: {e}");
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "paper_repro" => execute(
            &args,
            Workload {
                setup: paper_repro::setup,
                run: paper_repro::run,
                run_traced: paper_repro::run_traced,
                reference: paper_repro::REFERENCE,
            },
        ),
        "hint_select" => execute(
            &args,
            Workload {
                setup: hint_select::setup,
                run: hint_select::run,
                run_traced: hint_select::run_traced,
                reference: hint_select::REFERENCE,
            },
        ),
        "trace_replay" => execute(
            &args,
            Workload {
                setup: trace_replay::setup,
                run: trace_replay::run,
                run_traced: trace_replay::run_traced,
                reference: trace_replay::REFERENCE,
            },
        ),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(Some(json)) => println!("{}", json.render()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("sdbp-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
