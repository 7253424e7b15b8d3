//! Kernel-throughput benchmark for the execution engines: the
//! interpreted-sequential reference vs a launch on the measured engine
//! for every stock kernel × stock config, with a bit-identity check
//! folded into every measurement. Records
//! `BENCH_kernel_throughput.json` (schema `ihw-racebench/4`).
//!
//! Each row records the `"engine"` that served the measured launches
//! (`interpreted` or `compiled` — see [`gpu_sim::isa::ExecEngine`]),
//! the one-time plan-lowering cost (`"compile_seconds"`), the
//! interpreted reference time (`"interp_seconds"`), the engine's
//! launch time (`"sequential_seconds"`) and the engine's speedup over
//! the reference (`"speedup_vs_interp"`, gated in CI via
//! `--min-compiled-speedup`, a geomean floor). Schema 4 drops schema
//! 3's parallel columns (`parallel_seconds`, `speedup`,
//! `parallel_used`, `path`) and its `workers`, `workers_clamped` and
//! `overhead_ops` fields: a launch runs its threads sequentially.
//!
//! Timing goes through [`Stopwatch`] — the workspace's single
//! sanctioned wall-clock read (`ihw-lint` rule L003) — so this module
//! must live in `ihw-bench` next to the timing report.

use crate::runner::report::Stopwatch;
use gpu_sim::deps::footprints;
use gpu_sim::isa::{ExecEngine, Program, WarpInterpreter};
use ihw_core::config::IhwConfig;

/// Default output filename (workspace root, committed as a perf record).
pub const BENCH_FILE: &str = "BENCH_kernel_throughput.json";

/// Schema tag of the benchmark JSON document.
pub const SCHEMA: &str = "ihw-racebench/4";

/// One kernel × config measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Kernel name.
    pub kernel: String,
    /// Config label (as in `ihw_analyze::stock_configs`).
    pub config: String,
    /// Engine label (`interpreted` / `compiled`) the measured launches
    /// ran on.
    pub engine: String,
    /// One-time `(Program, IhwConfig)` plan-lowering seconds (0 for
    /// the interpreted engine, which has no lowering step).
    pub compile_seconds: f64,
    /// Best-of-N **interpreted**-sequential launch seconds — the
    /// engine-independent reference everything is compared against.
    pub interp_seconds: f64,
    /// Best-of-N warm launch seconds on the row's engine.
    pub sequential_seconds: f64,
    /// `interp_seconds / sequential_seconds` — what the engine buys
    /// over per-thread re-interpretation (~1.0 on the interpreted
    /// engine, the headline gain on the compiled one).
    pub speedup_vs_interp: f64,
    /// Whether the reference and engine runs matched bit-for-bit in
    /// buffers and count-for-count in op counters.
    pub bit_identical: bool,
}

/// The full benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Engine label every row ran on.
    pub engine: String,
    /// Threads per launch.
    pub threads: u32,
    /// Repetitions per measurement (best-of).
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
    /// Best-of repetitions.
    pub repeats: u32,
    /// Engine serving the measured launches.
    pub engine: ExecEngine,
}

impl Default for MeasureOpts {
    fn default() -> Self {
        Self {
            threads: 1 << 15,
            repeats: 3,
            engine: ExecEngine::Compiled,
        }
    }
}

/// Deterministic well-conditioned inputs: every element in `[0.5, 1)`,
/// buffers sized by the kernel's own footprint
/// ([`gpu_sim::deps::Footprint::required_len`]) so strided reads stay
/// in bounds at any thread count.
pub fn seed_buffers(prog: &Program, threads: u32) -> Vec<Vec<f32>> {
    let fps = footprints(prog);
    let n_bufs = fps.keys().max().map_or(0, |b| b + 1);
    (0..n_bufs)
        .map(|b| {
            let len = fps.get(&b).map_or(0, |fp| fp.required_len(threads));
            (0..len)
                .map(|i| 0.5 + ((i * 37 + b * 11) % 512) as f32 / 1024.0)
                .collect()
        })
        .collect()
}

/// Times one closure best-of-`repeats`.
fn best_of<F: FnMut()>(repeats: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let sw = Stopwatch::start();
        f();
        best = best.min(sw.elapsed_seconds());
    }
    best
}

/// Measures one kernel under one config: the interpreted-sequential
/// reference, then warm launches on the measured engine over the same
/// inputs, asserting nothing — the bit-identity verdict is recorded in
/// the row (the differential test suites are the enforcing gate; the
/// benchmark only reports).
pub fn measure(prog: &Program, cfg: &IhwConfig, label: &str, opts: MeasureOpts) -> ThroughputRow {
    let MeasureOpts {
        threads,
        repeats,
        engine,
    } = opts;
    let base = seed_buffers(prog, threads);

    // Interpreted-sequential reference (engine-independent semantics).
    let mut ref_bufs = Vec::new();
    let mut ref_interp = WarpInterpreter::new(*cfg).with_engine(ExecEngine::Interpreted);
    let interp_seconds = best_of(repeats, || {
        let mut bufs = base.clone();
        ref_interp.reset_counters();
        ref_interp
            .launch_sequential(prog, threads, &mut bufs)
            .expect("stock kernels run");
        ref_bufs = bufs;
    });

    // One-time lowering cost (the plan cache amortizes this away; it
    // is timed separately so the record keeps it honest).
    let compile_seconds = match engine {
        ExecEngine::Interpreted => 0.0,
        ExecEngine::Compiled => {
            let sw = Stopwatch::start();
            let plan = gpu_sim::plan::compile(prog, cfg);
            let elapsed = sw.elapsed_seconds();
            assert_eq!(plan.len(), prog.instrs().len());
            elapsed
        }
    };

    // The measured engine. One warm-up launch populates the plan cache
    // so the timed loop measures steady state.
    let mut seq_bufs = Vec::new();
    let mut seq_interp = WarpInterpreter::new(*cfg).with_engine(engine);
    {
        let mut bufs = base.clone();
        seq_interp
            .launch(prog, threads, &mut bufs)
            .expect("stock kernels run");
        seq_interp.reset_counters();
    }
    let sequential_seconds = best_of(repeats, || {
        let mut bufs = base.clone();
        seq_interp.reset_counters();
        seq_interp
            .launch(prog, threads, &mut bufs)
            .expect("stock kernels run");
        seq_bufs = bufs;
    });

    let bits = |bufs: &Vec<Vec<f32>>| -> Vec<Vec<u32>> {
        bufs.iter()
            .map(|b| b.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    let (r, e) = (ref_interp.ctx(), seq_interp.ctx());
    let bit_identical = bits(&ref_bufs) == bits(&seq_bufs)
        && r.counts() == e.counts()
        && r.int_ops() == e.int_ops()
        && r.mem_ops() == e.mem_ops()
        && r.precise_mul_ops() == e.precise_mul_ops();

    ThroughputRow {
        kernel: prog.name().to_string(),
        config: label.to_string(),
        engine: engine.label().to_string(),
        compile_seconds,
        interp_seconds,
        sequential_seconds,
        speedup_vs_interp: interp_seconds / sequential_seconds.max(1e-12),
        bit_identical,
    }
}

/// Runs the benchmark over every stock kernel × stock config.
pub fn run_stock(threads: u32, repeats: u32, engine: ExecEngine) -> ThroughputReport {
    let mut rows = Vec::new();
    for prog in ihw_analyze::stock_kernels() {
        for (label, cfg) in ihw_analyze::stock_configs() {
            rows.push(measure(
                &prog,
                &cfg,
                label,
                MeasureOpts {
                    threads,
                    repeats,
                    engine,
                },
            ));
        }
    }
    ThroughputReport {
        engine: engine.label().to_string(),
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
    /// headline engine-vs-interpreter number the CI floor gates.
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
            "== kernel throughput: {} engine, {} threads, best of {}, host parallelism {} ==\n",
            self.engine, self.threads, self.repeats, self.host_parallelism,
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
            "geomean {} speedup vs interpreted-sequential: {:.2}x\n",
            self.engine,
            self.geomean_speedup_vs_interp()
        ));
        out
    }

    /// Stable JSON document (hand-rolled; the workspace `serde` shim is
    /// marker-only).
    pub fn to_json(&self) -> String {
        let f = |x: f64| {
            if x.is_finite() {
                format!("{x:.6}")
            } else {
                "0.0".to_owned()
            }
        };
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"engine\": \"{}\",\n", self.engine));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        out.push_str(&format!(
            "  \"geomean_speedup_vs_interp\": {},\n",
            f(self.geomean_speedup_vs_interp())
        ));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"kernel\": \"{}\", \"config\": \"{}\", \"engine\": \"{}\", \
                 \"compile_seconds\": {}, \"interp_seconds\": {}, \
                 \"sequential_seconds\": {}, \"speedup_vs_interp\": {}, \
                 \"bit_identical\": {} }}{comma}\n",
                r.kernel,
                r.config,
                r.engine,
                f(r.compile_seconds),
                f(r.interp_seconds),
                f(r.sequential_seconds),
                f(r.speedup_vs_interp),
                r.bit_identical,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// CLI for `repro racecheck --bench`: runs the benchmark, prints the
/// table and writes the JSON record. Returns the process exit code
/// (non-zero when any row is not bit-identical; with
/// `--min-compiled-speedup`, when the geomean engine-vs-interpreted
/// speedup falls below the recorded floor).
pub fn run_cli(args: &[String]) -> i32 {
    let mut threads: u32 = 1 << 15;
    let mut repeats: u32 = 3;
    let mut min_compiled_speedup: Option<f64> = None;
    let mut engine = ExecEngine::Compiled;
    let mut out_path = std::path::PathBuf::from(BENCH_FILE);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => {}
            "--threads" | "--repeats" | "--min-compiled-speedup" | "--engine" | "--out" => {
                let Some(value) = it.next() else {
                    eprintln!("{arg} expects a value");
                    return 2;
                };
                // Counts are rejected at 0 with a diagnostic — never
                // silently clamped (the subcommands agree on this).
                let ok = match arg.as_str() {
                    "--threads" | "--repeats" => match value.parse::<u64>() {
                        Ok(v) if v >= 1 => {
                            let v = v.min(u64::from(u32::MAX)) as u32;
                            if arg == "--threads" {
                                threads = v;
                            } else {
                                repeats = v;
                            }
                            true
                        }
                        _ => {
                            eprintln!("{arg} expects a positive integer, got '{value}'");
                            return 2;
                        }
                    },
                    "--min-compiled-speedup" => value
                        .parse()
                        .map(|v: f64| min_compiled_speedup = Some(v.max(0.0)))
                        .is_ok(),
                    "--engine" => match value.as_str() {
                        "interpreted" => {
                            engine = ExecEngine::Interpreted;
                            true
                        }
                        "compiled" => {
                            engine = ExecEngine::Compiled;
                            true
                        }
                        _ => {
                            eprintln!("--engine expects 'interpreted' or 'compiled'");
                            return 2;
                        }
                    },
                    _ => {
                        out_path = std::path::PathBuf::from(value);
                        true
                    }
                };
                if !ok {
                    eprintln!("{arg} expects a number, got '{value}'");
                    return 2;
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro racecheck --bench [--threads N] [--repeats N] \
                     [--engine interpreted|compiled] [--min-compiled-speedup X] [--out FILE]\n\
                     \n\
                     All counts must be positive — 0 is rejected, not clamped.\n\
                     --engine selects the execution engine measured against the\n\
                     interpreted-sequential reference (default: compiled).\n\
                     --min-compiled-speedup X fails the run (exit 1) when the geomean\n\
                     engine-vs-interpreted sequential speedup falls below X."
                );
                return 0;
            }
            other => {
                eprintln!("unknown argument {other}");
                return 2;
            }
        }
    }
    let report = run_stock(threads, repeats, engine);
    print!("{}", report.render());
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {}: {e}", out_path.display());
        return 2;
    }
    println!("throughput record written to {}", out_path.display());
    if !report.rows.iter().all(|r| r.bit_identical) {
        eprintln!("engine run diverged from the interpreted reference — see table above");
        return 1;
    }
    if let Some(min) = min_compiled_speedup {
        let geomean = report.geomean_speedup_vs_interp();
        if geomean < min {
            eprintln!(
                "bench-compiled: geomean {} speedup vs interpreted-sequential is \
                 {geomean:.2}x, below the recorded floor {min:.2}x — the \
                 config-compiled execution path has regressed",
                report.engine
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
    fn seed_buffers_cover_strided_footprints() {
        let prog = programs::dot_partial(4);
        let bufs = seed_buffers(&prog, 16);
        assert_eq!(bufs.len(), 3);
        assert_eq!(bufs[0].len(), 16 + 3, "x covers tid..tid+4 strips");
        assert_eq!(bufs[2].len(), 16);
        assert!(bufs[0].iter().all(|&v| (0.5..1.0).contains(&v)));
    }

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
                engine: ExecEngine::Compiled,
            },
        );
        assert!(row.bit_identical, "reference and engine runs must match");
        assert_eq!(row.engine, "compiled");
        assert!(row.compile_seconds >= 0.0);
        assert!(row.sequential_seconds >= 0.0);
    }

    #[test]
    fn interpreted_engine_rows_have_no_compile_cost() {
        let prog = programs::saxpy(2.0);
        let row = measure(
            &prog,
            &IhwConfig::precise(),
            "precise",
            MeasureOpts {
                threads: 128,
                repeats: 1,
                engine: ExecEngine::Interpreted,
            },
        );
        assert_eq!(row.engine, "interpreted");
        assert_eq!(row.compile_seconds, 0.0);
        assert!(row.bit_identical);
    }

    #[test]
    fn json_record_shape() {
        let report = run_stock(64, 1, ExecEngine::Compiled);
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
}
