//! What a run reports: the metric names (which `BENCHMARK.json` lists
//! too), the result a workload hands back, and the environment stamp.

use crate::json::Json;
use crate::stats::{median, percentile};
use ihw_bench::runner::report::Stopwatch;

/// End-to-end metrics, measured with tracing off, in output order.
/// `ok_share` is 1 − failed/attempted: the share of ops that passed
/// (a metric that is 0 on a healthy run could not carry a relative
/// bound).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("thread_instr_per_s", "1/s"),
    ("small_launch_p50_us", "us"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "share"),
];

/// Set-ups per run of `launch` and serve; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Samples per p99 window: the fewest with ten samples beyond p99.
pub const P99_WINDOW: usize = 1000;

/// Per-layer metrics of the traced run, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    for unit in ["iadd32", "imul32", "acmul32_t19", "rsqrt32", "ifma32"] {
        add(&format!("core.{unit}_ns"), "ns");
    }
    add("plan.compile_us", "us");
    for c in ["hits", "misses", "evictions"] {
        add(&format!("plan.{c}"), "count");
    }
    add("launch.fixed_us", "us");
    for (label, _) in ihw_analyze::stock_configs() {
        add(&format!("launch.ns_per_ti.{label}"), "ns");
    }
    add("analyze.bound_us", "us");
    for t in ["key_us", "execute_us", "residual_us"] {
        add(&format!("serve.{t}"), "us");
    }
    add("serve.coalesced_share", "share");
    for c in ["executed", "rejected", "faulted"] {
        add(&format!("serve.{c}"), "count");
    }
    add("serve.retained_mib", "MiB");
    for (name, _) in crate::paper::EXPERIMENTS {
        add(&format!("paper.{name}_s"), "s");
    }
    for g in ["units", "system", "apps", "ext"] {
        add(&format!("paper.{g}_s"), "s");
    }
    add("runner.cache_hit_share", "share");
    add("trace.overhead_pct", "%");
    m
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when a check that is not per-op failed (e.g. the paper
    /// digest); `main` also requires `failed == 0`.
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
    /// Everything else the run knows: sample counts, counters, notes.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    /// A timing metric that is the median of `samples`, with its count.
    pub fn median_of(&mut self, name: &str, samples: &[f64], scale: f64) {
        self.metric(name, median(samples) * scale);
        self.note(&format!("{name}.samples"), Json::Int(samples.len() as u64));
    }

    /// `p50_ms` and `p99_ms` of per-op latencies in seconds, in the
    /// order they were taken, `per_pass` to a pass. p50 is the median of
    /// all samples. p99 is the median, over windows of whole passes
    /// holding at least [`P99_WINDOW`] samples, of each window's p99. So
    /// every window has at least ten samples beyond its p99, every
    /// window holds the same mix of ops, and one stalled stretch of the
    /// run moves one window, not the result.
    pub fn latencies(&mut self, seconds: &[f64], per_pass: usize) {
        self.median_of("p50_ms", seconds, 1e3);
        let window = per_pass * P99_WINDOW.div_ceil(per_pass);
        let mut windows: Vec<&[f64]> = seconds.chunks(window).collect();
        if windows.len() > 1 && windows.last().is_some_and(|w| w.len() < window) {
            // Too short for a supported p99: fold it into its neighbour.
            let tail = windows.len() - 2;
            windows.truncate(tail);
            windows.push(&seconds[tail * window..]);
        }
        let p99s: Vec<_> = windows.iter().map(|w| percentile(w, 0.99)).collect();
        let values: Vec<f64> = p99s.iter().map(|p| p.value).collect();
        self.metric("p99_ms", median(&values) * 1e3);
        self.note(
            "p99_ms.samples",
            Json::obj([
                ("n", Json::Int(seconds.len() as u64)),
                ("windows", Json::Int(p99s.len() as u64)),
                (
                    "min_beyond",
                    Json::Int(p99s.iter().map(|p| p.beyond as u64).min().unwrap_or(0)),
                ),
                ("supported", Json::Bool(p99s.iter().all(|p| p.supported()))),
            ]),
        );
    }

    /// `trace.overhead_pct`: how much longer the median traced pass took
    /// than the median untraced pass of the same run.
    pub fn trace_overhead(&mut self, untraced: &[f64], traced: &[f64]) {
        let (u, t) = (median(untraced), median(traced));
        self.metric("trace.overhead_pct", (t - u) / u * 100.0);
        self.note(
            "trace.passes",
            Json::obj([
                ("untraced", Json::Int(untraced.len() as u64)),
                ("traced", Json::Int(traced.len() as u64)),
            ]),
        );
    }

    /// Builds a workload's state [`SETUP_REPEATS`] times, reports the
    /// median build time as `setup_s`, and returns the last build.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        let mut times = Vec::new();
        let mut built = None;
        for _ in 0..SETUP_REPEATS {
            let sw = Stopwatch::start();
            let state = build();
            times.push(sw.elapsed_seconds());
            built = Some(state);
        }
        self.median_of("setup_s", &times, 1.0);
        built.expect("SETUP_REPEATS > 0")
    }

    /// The metrics every workload reports the same way.
    pub fn finish_end_to_end(&mut self) {
        self.metric("peak_rss_mib", peak_rss_mib());
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.metric("ok_share", ok);
    }
}

/// Runs `f` repeatedly until `seconds` have passed (at least once).
pub fn for_seconds(seconds: f64, mut f: impl FnMut()) {
    let sw = Stopwatch::start();
    loop {
        f();
        if sw.elapsed_seconds() >= seconds {
            break;
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Build and host facts every result carries.
pub fn env_stamp(tenant_threads: usize) -> Json {
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("commit", Json::str(commit)),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("profile", Json::str(env!("PERFBENCH_PROFILE"))),
        ("rustflags", Json::str(env!("PERFBENCH_RUSTFLAGS"))),
        ("avx2", Json::Bool(cfg!(target_feature = "avx2"))),
        ("avx512f", Json::Bool(cfg!(target_feature = "avx512f"))),
        ("nproc", Json::Int(nproc as u64)),
        (
            "threads",
            Json::obj([
                ("tenants", Json::Int(tenant_threads as u64)),
                ("launch_workers", Json::Int(1)),
                ("sweep_jobs", Json::Int(1)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names this binary prints are the names `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = spec.matches("\"unit\"").count();
        let ours: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer())
            .collect();
        assert_eq!(declared, ours.len());
        for (name, unit) in ours {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
