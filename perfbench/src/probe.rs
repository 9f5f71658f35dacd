//! Host-side measurement: process CPU time, peak memory, wall spans and
//! counters recorded around calls into the library.

use sdbp_artifacts::{Hasher, Json};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Linux reports `utime`/`stime` in `/proc/<pid>/stat` in USER_HZ ticks,
/// which is 100 on every architecture the kernel exposes to user space.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process so far, including threads
/// that have already exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name may hold spaces; the fields after it do not.
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    // Fields 14 and 15 of the full line are utime and stime; `after_name`
    // starts at field 3.
    let ticks = |i: usize| fields[i - 3].parse::<f64>().expect("numeric tick count");
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// The 32-hex content digest of a string, as the artifact store computes it.
pub fn digest_str(text: &str) -> String {
    let mut h = Hasher::new();
    h.write_str(text);
    h.finish().to_string()
}

/// Stage spans and counters of one traced run.
///
/// The traced run is serial, so spans never overlap and each span's
/// duration is that stage's self time.
#[derive(Default)]
pub struct Tracer {
    spans: BTreeMap<String, Duration>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    /// Runs `f`, adding its wall time to span `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        *self.spans.entry(name.to_string()).or_default() += started.elapsed();
        out
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &str, n: f64) {
        *self.counts.entry(name.to_string()).or_default() += n;
    }

    /// Total seconds spent in span `name` (0 when it never ran).
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, Duration::as_secs_f64)
    }

    /// Sum of every span, in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.spans.values().map(Duration::as_secs_f64).sum()
    }

    /// Counter `name` (0 when never added to).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Spans, in seconds, as a JSON object.
    pub fn spans_json(&self) -> Json {
        Json::obj(
            self.spans
                .iter()
                .map(|(k, v)| (k.clone(), Json::Float(v.as_secs_f64()))),
        )
    }
}
