//! Kernel-throughput benchmark for the compiled engine: the
//! interpreted-sequential reference vs a compiled launch for every
//! stock kernel × stock config, with a bit-identity check folded into
//! every measurement. Records `BENCH_kernel_throughput.json` (schema
//! `ihw-racebench/4`).
//!
//! Each row records the `"engine"` that served the measured launches
//! (always `compiled`), the one-time plan-lowering cost
//! (`"compile_seconds"`), the interpreted reference time
//! (`"interp_seconds"`), the compiled launch time
//! (`"sequential_seconds"`) and the speedup over the reference
//! (`"speedup_vs_interp"`, gated in CI via `--min-compiled-speedup`, a
//! geomean floor). Schema 4 drops schema 3's parallel columns
//! (`parallel_seconds`, `speedup`, `parallel_used`, `path`) and its
//! `workers`, `workers_clamped` and `overhead_ops` fields: a launch
//! runs its threads sequentially.
//!
//! Timing goes through [`Stopwatch`] — the workspace's single
//! sanctioned wall-clock read (`ihw-lint` rule L003) — so this module
//! must live in `ihw-bench` next to the timing report.

use crate::runner::report::Stopwatch;
use gpu_sim::isa::{Program, WarpInterpreter};
use gpu_sim::programs::seed_buffers;
use ihw_core::config::IhwConfig;
use ihw_lint::gate;
use ihw_lint::json::{obj, Json};

/// Default output filename (workspace root, committed as a perf record).
pub const BENCH_FILE: &str = "BENCH_kernel_throughput.json";

/// Schema tag of the benchmark JSON document.
pub const SCHEMA: &str = "ihw-racebench/4";

/// Timed repetitions per measurement unless `--repeats` says otherwise.
pub const DEFAULT_REPEATS: u32 = 21;

/// The engine label every row and record carries.
const ENGINE: &str = "compiled";

/// One kernel × config measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Kernel name.
    pub kernel: String,
    /// Config label (as in `ihw_analyze::stock_configs`).
    pub config: String,
    /// One-time `(Program, IhwConfig)` plan-lowering seconds.
    pub compile_seconds: f64,
    /// Median-of-N **interpreted**-sequential launch seconds — the
    /// engine-independent reference everything is compared against.
    pub interp_seconds: f64,
    /// Median-of-N warm compiled launch seconds.
    pub sequential_seconds: f64,
    /// `interp_seconds / sequential_seconds` — what the compiled
    /// engine buys over per-thread re-interpretation.
    pub speedup_vs_interp: f64,
    /// Whether the reference and compiled runs matched bit-for-bit in
    /// buffers and count-for-count in op counters.
    pub bit_identical: bool,
}

/// The full benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Threads per launch.
    pub threads: u32,
    /// Repetitions per measurement (the median is recorded).
    pub repeats: u32,
    /// `std::thread::available_parallelism()` of the measuring host
    /// (context only: every measured launch runs on one thread).
    pub host_parallelism: usize,
    /// Per kernel × config rows.
    pub rows: Vec<ThroughputRow>,
}

/// Knobs for one [`measure`] call.
#[derive(Debug, Clone, Copy)]
pub struct MeasureOpts {
    /// Threads per launch.
    pub threads: u32,
    /// Repetitions whose median is recorded.
    pub repeats: u32,
}

impl Default for MeasureOpts {
    fn default() -> Self {
        Self {
            threads: 1 << 15,
            repeats: DEFAULT_REPEATS,
        }
    }
}

/// Runs `launch` `repeats` times, each on a fresh copy of `base` made
/// before the clock starts, and returns the median launch time (the
/// mean of the two middle times for an even count) with the buffers of
/// the last run. A best-of-3 at these sub-millisecond launch times
/// moved the record's geomean by 15% between identical binaries; the
/// median of many repeats does not chase the luckiest run.
fn median_of<F: FnMut(&mut Vec<Vec<f32>>)>(
    repeats: u32,
    base: &[Vec<f32>],
    mut launch: F,
) -> (f64, Vec<Vec<f32>>) {
    let mut bufs = Vec::new();
    let times = (0..repeats.max(1))
        .map(|_| {
            bufs = base.to_vec();
            let sw = Stopwatch::start();
            launch(&mut bufs);
            sw.elapsed_seconds()
        })
        .collect();
    (median(times), bufs)
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// Measures one kernel under one config: the interpreted-sequential
/// reference, then warm compiled launches over the same inputs,
/// asserting nothing — the bit-identity verdict is recorded in the row
/// (the differential test suites are the enforcing gate; the benchmark
/// only reports).
pub fn measure(prog: &Program, cfg: &IhwConfig, label: &str, opts: MeasureOpts) -> ThroughputRow {
    let MeasureOpts { threads, repeats } = opts;
    let base = seed_buffers(prog, threads);

    // Interpreted-sequential reference (engine-independent semantics).
    let mut ref_interp = WarpInterpreter::new(*cfg);
    let (interp_seconds, ref_bufs) = median_of(repeats, &base, |bufs| {
        ref_interp.reset_counters();
        ref_interp
            .launch_sequential(prog, threads, bufs)
            .expect("stock kernels run");
    });

    // One-time lowering cost (the plan cache amortizes this away; it
    // is timed separately so the record keeps it honest).
    let sw = Stopwatch::start();
    let plan = gpu_sim::plan::compile(prog, cfg);
    let compile_seconds = sw.elapsed_seconds();
    assert_eq!(plan.len(), prog.instrs().len());

    // The compiled engine. One warm-up launch populates the plan cache
    // so the timed loop measures steady state.
    let mut compiled = WarpInterpreter::new(*cfg);
    {
        let mut bufs = base.clone();
        compiled
            .launch(prog, threads, &mut bufs)
            .expect("stock kernels run");
        compiled.reset_counters();
    }
    let (sequential_seconds, seq_bufs) = median_of(repeats, &base, |bufs| {
        compiled.reset_counters();
        compiled
            .launch(prog, threads, bufs)
            .expect("stock kernels run");
    });

    let bits = |bufs: &Vec<Vec<f32>>| -> Vec<Vec<u32>> {
        bufs.iter()
            .map(|b| b.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    let (r, e) = (ref_interp.ctx(), compiled.ctx());
    let bit_identical = bits(&ref_bufs) == bits(&seq_bufs)
        && r.mix() == e.mix()
        && r.precise_mul_ops() == e.precise_mul_ops();

    ThroughputRow {
        kernel: prog.name().to_string(),
        config: label.to_string(),
        compile_seconds,
        interp_seconds,
        sequential_seconds,
        speedup_vs_interp: interp_seconds / sequential_seconds.max(1e-12),
        bit_identical,
    }
}

/// Runs the benchmark over every stock kernel × stock config.
pub fn run_stock(threads: u32, repeats: u32) -> ThroughputReport {
    let mut rows = Vec::new();
    for prog in ihw_analyze::stock_kernels() {
        for (label, cfg) in ihw_analyze::stock_configs() {
            rows.push(measure(
                &prog,
                &cfg,
                label,
                MeasureOpts { threads, repeats },
            ));
        }
    }
    ThroughputReport {
        threads,
        repeats,
        host_parallelism: host_parallelism(),
        rows,
    }
}

/// `available_parallelism()` with a floor of 1.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl ThroughputReport {
    /// Geometric mean of `speedup_vs_interp` across the rows — the
    /// headline compiled-vs-interpreter number the CI floor gates.
    pub fn geomean_speedup_vs_interp(&self) -> f64 {
        if self.rows.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self
            .rows
            .iter()
            .map(|r| r.speedup_vs_interp.max(1e-12).ln())
            .sum();
        (log_sum / self.rows.len() as f64).exp()
    }

    /// Aligned human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== kernel throughput: {ENGINE} engine, {} threads, median of {}, host parallelism {} ==\n",
            self.threads, self.repeats, self.host_parallelism,
        ));
        out.push_str(&format!(
            "{:<12} {:<16} {:>12} {:>12} {:>9} {:>9}\n",
            "kernel", "config", "interp (s)", "seq (s)", "vs-interp", "bitexact"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<12} {:<16} {:>12.6} {:>12.6} {:>8.2}x {:>9}\n",
                r.kernel,
                r.config,
                r.interp_seconds,
                r.sequential_seconds,
                r.speedup_vs_interp,
                if r.bit_identical { "yes" } else { "NO" },
            ));
        }
        out.push_str(&format!(
            "geomean {ENGINE} speedup vs interpreted-sequential: {:.2}x\n",
            self.geomean_speedup_vs_interp()
        ));
        out
    }

    /// The `ihw-racebench/4` JSON record.
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                obj([
                    ("kernel", r.kernel.as_str().into()),
                    ("config", r.config.as_str().into()),
                    ("engine", ENGINE.into()),
                    ("compile_seconds", r.compile_seconds.into()),
                    ("interp_seconds", r.interp_seconds.into()),
                    ("sequential_seconds", r.sequential_seconds.into()),
                    ("speedup_vs_interp", r.speedup_vs_interp.into()),
                    ("bit_identical", r.bit_identical.into()),
                ])
            })
            .collect();
        obj([
            ("schema", SCHEMA.into()),
            ("engine", ENGINE.into()),
            ("threads", self.threads.into()),
            ("repeats", self.repeats.into()),
            ("host_parallelism", self.host_parallelism.into()),
            (
                "geomean_speedup_vs_interp",
                self.geomean_speedup_vs_interp().into(),
            ),
            ("rows", Json::Arr(rows)),
        ])
        .render()
    }
}

/// CLI for `repro racecheck --bench`: runs the benchmark, prints the
/// table and writes the JSON record. Returns the process exit code
/// (non-zero when any row is not bit-identical; with
/// `--min-compiled-speedup`, when the geomean compiled-vs-interpreted
/// speedup falls below the recorded floor).
pub fn run_cli(args: &[String]) -> i32 {
    let mut threads: u32 = 1 << 15;
    let mut repeats: u32 = DEFAULT_REPEATS;
    let mut min_compiled_speedup: Option<f64> = None;
    let mut out_path = std::path::PathBuf::from(BENCH_FILE);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => {}
            "--threads" | "--repeats" | "--min-compiled-speedup" | "--out" => {
                let Some(value) = it.next() else {
                    eprintln!("{arg} expects a value");
                    return 2;
                };
                // Out-of-range values (a count of 0, a floor below 0 or
                // not finite) are rejected with a diagnostic — never
                // silently clamped (the subcommands agree on this).
                let parsed = match arg.as_str() {
                    "--threads" | "--repeats" => {
                        gate::value::<u64>(arg, value, "a positive integer", |v| *v >= 1).map(|v| {
                            let v = v.min(u64::from(u32::MAX)) as u32;
                            if arg == "--threads" {
                                threads = v;
                            } else {
                                repeats = v;
                            }
                        })
                    }
                    "--min-compiled-speedup" => {
                        let ok = |v: &f64| *v >= 0.0 && v.is_finite();
                        gate::value(arg, value, "a finite non-negative number", ok)
                            .map(|v| min_compiled_speedup = Some(v))
                    }
                    _ => {
                        out_path = std::path::PathBuf::from(value);
                        Ok(())
                    }
                };
                if let Err(msg) = parsed {
                    eprintln!("{msg}");
                    return 2;
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro racecheck --bench [--threads N] [--repeats N] \
                     [--min-compiled-speedup X] [--out FILE]\n\
                     \n\
                     All counts must be positive — 0 is rejected, not clamped.\n\
                     Each launch is timed --repeats times (default {DEFAULT_REPEATS}) and\n\
                     the median is recorded.\n\
                     --min-compiled-speedup X fails the run (exit 1) when the geomean\n\
                     compiled-vs-interpreted sequential speedup falls below X."
                );
                return 0;
            }
            other => {
                eprintln!("unknown argument {other}");
                return 2;
            }
        }
    }
    let report = run_stock(threads, repeats);
    print!("{}", report.render());
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {}: {e}", out_path.display());
        return 2;
    }
    println!("throughput record written to {}", out_path.display());
    if !report.rows.iter().all(|r| r.bit_identical) {
        eprintln!("compiled run diverged from the interpreted reference — see table above");
        return 1;
    }
    if let Some(min) = min_compiled_speedup {
        let geomean = report.geomean_speedup_vs_interp();
        if geomean < min {
            eprintln!(
                "racebench: geomean {ENGINE} speedup vs interpreted-sequential is \
                 {geomean:.2}x, below the recorded floor {min:.2}x — the \
                 config-compiled execution path has regressed"
            );
            return 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::programs;

    #[test]
    fn measure_is_bit_identical() {
        let prog = programs::saxpy(2.0);
        let row = measure(
            &prog,
            &IhwConfig::all_imprecise(),
            "all_imprecise",
            MeasureOpts {
                threads: 256,
                repeats: 1,
            },
        );
        assert!(row.bit_identical, "reference and engine runs must match");
        assert!(row.compile_seconds >= 0.0);
        assert!(row.sequential_seconds >= 0.0);
    }

    #[test]
    fn median_takes_the_middle_time() {
        assert_eq!(median(vec![3.0, 1.0, 9.0]), 3.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 100.0]), 3.0);
        assert_eq!(median(vec![5.0]), 5.0);
    }

    #[test]
    fn json_record_shape() {
        let report = run_stock(64, 1);
        assert_eq!(report.rows.len(), 4 * 5, "kernels × configs");
        assert!(report.rows.iter().all(|r| r.bit_identical));
        assert!(report.geomean_speedup_vs_interp() > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"ihw-racebench/4\""));
        assert!(json.contains("\"engine\": \"compiled\""));
        assert!(json.contains("\"compile_seconds\""));
        assert!(json.contains("\"interp_seconds\""));
        assert!(json.contains("\"speedup_vs_interp\""));
        assert!(json.contains("\"geomean_speedup_vs_interp\""));
        assert!(json.contains("\"host_parallelism\""));
        assert!(!json.contains("\"parallel_seconds\""));
        assert!(!json.contains("\"workers\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn bad_values_exit_2_instead_of_clamping() {
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        for bad in [
            &["--threads", "0"][..],
            &["--repeats", "0"],
            &["--repeats"],
            &["--min-compiled-speedup", "nan"],
            &["--min-compiled-speedup", "-1"],
            &["--min-compiled-speedup", "inf"],
            &["--min-compiled-speedup", "fast"],
        ] {
            assert_eq!(run_cli(&s(bad)), 2, "{bad:?}");
        }
    }
}
