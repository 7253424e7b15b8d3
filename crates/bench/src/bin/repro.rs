//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p ihw-bench --bin repro -- all
//! cargo run --release -p ihw-bench --bin repro -- table5 fig14
//! cargo run --release -p ihw-bench --bin repro -- --paper fig15
//! cargo run --release -p ihw-bench --bin repro -- --csv out/ table5
//! cargo run --release -p ihw-bench --bin repro -- --images out/ fig15
//! cargo run --release -p ihw-bench --bin repro -- --jobs 8 --timings all
//! cargo run --release -p ihw-bench --bin repro -- --json timings.json all
//! cargo run --release -p ihw-bench --bin repro -- analyze --json
//! cargo run --release -p ihw-bench --bin repro -- racecheck
//! cargo run --release -p ihw-bench --bin repro -- racecheck --bench --threads 16384
//! cargo run --release -p ihw-bench --bin repro -- autotune --target 1e-3 --json
//! ```
//!
//! Without `--paper`, experiments run at `Scale::Quick` (seconds each);
//! with it, the paper-scale inputs are used. With `--csv <dir>`, every
//! tabular experiment is also written as a CSV file into `<dir>`.
//!
//! Experiments are independent jobs on the crate's sweep runner:
//! `--jobs N` sets the worker-thread budget (default: the machine's
//! available parallelism). Each experiment's output is buffered and
//! printed in the requested order, so the output is byte-identical for
//! every jobs level. `--timings` appends a wall-clock + run-cache
//! report; `--json <file>` writes the same report as JSON.

#![forbid(unsafe_code)]

use ihw_bench::experiments::{apps, ext, system, units};
use ihw_bench::runner::report::{ExperimentTiming, Stopwatch, TimingReport};
use ihw_bench::runner::{self, cache};
use ihw_bench::table::Table;
use ihw_bench::Scale;
use ihw_power::library::Precision;
use std::path::PathBuf;

const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig2",
    "fig4",
    "fig8",
    "fig9",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    // Extensions (Chapter 6 future-work directions):
    "fig5",
    "dvfs",
    "segmented",
    "dualmode",
    "sensitivity",
    "seeds",
    "tolerance",
    "acadder",
];

/// Collects one experiment's console output into a buffer (so jobs can
/// run concurrently and print deterministically) and mirrors tables
/// into CSV files when requested.
struct Emitter {
    csv_dir: Option<PathBuf>,
    buf: String,
}

impl Emitter {
    fn table(&mut self, name: &str, title: &str, table: &Table) {
        self.buf
            .push_str(&format!("\n=== {title} ===\n{}", table.render()));
        if let Some(dir) = &self.csv_dir {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, table.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }

    fn text(&mut self, title: &str, body: &str) {
        self.buf.push_str(&format!("\n=== {title} ===\n{body}"));
    }

    fn raw(&mut self, body: &str) {
        self.buf.push_str(body);
        self.buf.push('\n');
    }
}

/// Runs one experiment by name, returning its buffered console output.
fn run_experiment(name: &str, scale: Scale, csv_dir: &Option<PathBuf>) -> String {
    let mut out = Emitter {
        csv_dir: csv_dir.clone(),
        buf: String::new(),
    };
    match name {
        "table1" => out.table(
            "table1",
            "Table 1 — imprecise function set",
            &units::table1(),
        ),
        "table2" => out.table(
            "table2",
            "Table 2 — normalized non-functional metrics (IHW vs DWIP)",
            &units::table2(),
        ),
        "table3" => out.table(
            "table3",
            "Table 3 — integer adder vs integer multiplier",
            &units::table3(),
        ),
        "table4" => out.table(
            "table4",
            "Table 4 — accuracy-configurable FP multiplier synthesis",
            &units::table4(),
        ),
        "table5" => out.table(
            "table5",
            "Table 5 — system-level power savings",
            &system::table5_table(&system::table5(scale)),
        ),
        "table6" => out.table(
            "table6",
            "Table 6 — benchmark summary",
            &apps::table6(scale),
        ),
        "table7" => out.table(
            "table7",
            "Table 7 — 482.sphinx3 quality of results",
            &apps::table7(scale),
        ),
        "fig2" => out.table(
            "fig2",
            "Figure 2 — arithmetic power share per benchmark",
            &system::fig2(scale),
        ),
        "fig4" => out.table(
            "fig4",
            "Figure 4 — IHW taxonomy by error frequency and magnitude",
            &units::fig4(scale),
        ),
        "fig8" => {
            let mut body = String::new();
            for (label, pmf) in units::fig8(scale) {
                body.push_str(&pmf.to_ascii_chart(&label));
                body.push('\n');
                if let Some(dir) = &out.csv_dir {
                    let fname = format!("fig8_{}.csv", label.replace([' ', '='], "_"));
                    let _ = std::fs::write(dir.join(fname), pmf.to_csv(&label));
                }
            }
            out.text("Figure 8 — IHW error characterization (quasi-MC)", &body);
        }
        "fig9" => {
            let mut body = String::new();
            for (label, pmf) in units::fig9(scale) {
                body.push_str(&pmf.to_ascii_chart(&label));
                body.push('\n');
                if let Some(dir) = &out.csv_dir {
                    let fname = format!("fig9_{}.csv", label.replace(' ', "_"));
                    let _ = std::fs::write(dir.join(fname), pmf.to_csv(&label));
                }
            }
            out.text("Figure 9 — AC multiplier error characterization", &body);
        }
        "fig13" => out.text("Figure 13 — normalized metrics (bars)", &units::fig13()),
        "fig14" => {
            let single = units::fig14(scale, Precision::Single);
            let double = units::fig14(scale, Precision::Double);
            out.table(
                "fig14a",
                "Figure 14a — power-quality trade-off (32-bit multiplier)",
                &units::fig14_table(&single),
            );
            out.table(
                "fig14b",
                "Figure 14b — power-quality trade-off (64-bit multiplier)",
                &units::fig14_table(&double),
            );
        }
        "fig15" => {
            let (t, maps) = system::fig15(scale);
            out.table("fig15", "Figure 15 — HotSpot precise vs imprecise", &t);
            out.raw(&maps);
        }
        "fig16" => out.table(
            "fig16",
            "Figure 16 — SRAD Pratt figure of merit",
            &system::fig16(scale),
        ),
        "fig17_18" => out.table(
            "fig17_18",
            "Figures 17–18 — RayTracing SSIM and power savings",
            &system::fig17_18(scale),
        ),
        "fig19" => {
            let (t, map) = apps::fig19(scale);
            out.table("fig19", "Figure 19 — HotSpot with the AC multiplier", &t);
            out.raw(&map);
        }
        "fig20" => out.table(
            "fig20",
            "Figure 20 — CP power-quality trade-off",
            &apps::fig20(scale),
        ),
        "fig21" => {
            out.table(
                "fig21a",
                "Figure 21a — 179.art vigilance",
                &apps::fig21_art(scale),
            );
            out.table(
                "fig21b",
                "Figure 21b — 435.gromacs error %",
                &apps::fig21_gromacs(scale),
            );
        }
        "fig5" => out.table(
            "fig5",
            "Figure 5 (extension) — JPEG decompression with the IHW adder",
            &ext::fig5(),
        ),
        "dvfs" => out.table(
            "dvfs",
            "Extension — IHW + DVFS composition (Chapter 6 claim)",
            &ext::dvfs_composition(),
        ),
        "segmented" => out.table(
            "segmented",
            "Extension — segmented-correction Mitchell design space",
            &ext::segmented_sweep(),
        ),
        "dualmode" => out.table(
            "dualmode",
            "Extension — dual-mode multiplier per-site tuning (RayTracing)",
            &ext::dual_mode_ray(),
        ),
        "sensitivity" => out.table(
            "sensitivity",
            "Extension — sensitivity of HotSpot savings to DWIP estimates",
            &ext::sensitivity(),
        ),
        "seeds" => out.table(
            "seeds",
            "Extension — multi-seed robustness of the all-IHW quality",
            &ext::seeds(),
        ),
        "tolerance" => out.table(
            "tolerance",
            "Extension — error-tolerance taxonomy of the workload suite",
            &ext::tolerance(),
        ),
        "acadder" => out.table(
            "acadder",
            "Extension — accuracy-configurable adder (TH, truncation) space",
            &ext::ac_adder_space(),
        ),
        other => unreachable!("experiment '{other}' validated before dispatch"),
    }
    out.buf
}

/// Flags a name takes a value for (so positional parsing can skip it).
const VALUE_FLAGS: &[&str] = &["--csv", "--images", "--jobs", "--json"];

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `repro analyze ...` is a self-contained subcommand with its own
    // flag grammar — hand everything after it to the analyzer CLI.
    if args.first().map(String::as_str) == Some("analyze") {
        std::process::exit(ihw_analyze::cli::run(&args[1..]));
    }
    // `repro racecheck ...` likewise; `--bench` routes to the
    // interpreted-vs-compiled throughput benchmark instead of the
    // diagnostic gate.
    if args.first().map(String::as_str) == Some("racecheck") {
        let rest = &args[1..];
        if rest.iter().any(|a| a == "--bench") {
            std::process::exit(ihw_bench::racebench::run_cli(rest));
        }
        std::process::exit(ihw_analyze::races::run(rest));
    }
    // `repro autotune ...` — the static-bound-driven precision autotuner
    // (Pareto front + A008 over-provisioned-precision gate).
    if args.first().map(String::as_str) == Some("autotune") {
        std::process::exit(ihw_analyze::autotune::run(&args[1..]));
    }
    // `repro converge ...` — static contraction certificates for the
    // iterative solver kernels (A010 gate); `--bench` pairs them with
    // measured trajectories and records `BENCH_solvers.json`.
    if args.first().map(String::as_str) == Some("converge") {
        let rest = &args[1..];
        if rest.iter().any(|a| a == "--bench") {
            std::process::exit(ihw_bench::solverbench::run_cli(rest));
        }
        std::process::exit(ihw_analyze::contraction::run(rest));
    }
    if let Some(flag) = args.last().filter(|a| VALUE_FLAGS.contains(&a.as_str())) {
        eprintln!("{flag} expects a value");
        std::process::exit(2);
    }
    let paper = args.iter().any(|a| a == "--paper");
    let timings = args.iter().any(|a| a == "--timings");
    let scale = if paper { Scale::Paper } else { Scale::Quick };
    let csv_dir = flag_value(&args, "--csv").map(PathBuf::from);
    let image_dir = flag_value(&args, "--images").map(PathBuf::from);
    let json_path = flag_value(&args, "--json").map(PathBuf::from);
    let jobs = match flag_value(&args, "--jobs") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs expects a positive integer, got '{v}'");
                std::process::exit(2);
            }
        },
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    runner::set_jobs(jobs);

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create CSV directory {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    let mut skip_next = false;
    let requested: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if VALUE_FLAGS.contains(&a.as_str()) {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(|s| s.as_str())
        .collect();
    let requested = if requested.is_empty() || requested.contains(&"all") {
        EXPERIMENTS.to_vec()
    } else {
        requested
    };
    // fig17 and fig18 share one experiment; fold both names into the
    // shared job and keep only its first occurrence.
    let mut selected: Vec<&str> = Vec::new();
    for name in requested {
        let name = if name == "fig17" || name == "fig18" {
            "fig17_18"
        } else {
            name
        };
        if name == "fig17_18" && selected.contains(&"fig17_18") {
            continue;
        }
        if name != "fig17_18" && !EXPERIMENTS.contains(&name) {
            eprintln!("unknown experiment '{name}'. Available: all {EXPERIMENTS:?}");
            std::process::exit(2);
        }
        selected.push(name);
    }

    if let Some(dir) = &image_dir {
        match system::write_image_artifacts(scale, dir) {
            Ok(()) => println!("image artefacts written to {}", dir.display()),
            Err(e) => {
                eprintln!("cannot write image artefacts: {e}");
                std::process::exit(1);
            }
        }
    }

    // Every experiment is one sweep job; results come back in request
    // order, so printing below is deterministic at any jobs level.
    let wall = Stopwatch::start();
    let results = runner::sweep(selected.clone(), |name| {
        let start = Stopwatch::start();
        let buf = run_experiment(name, scale, &csv_dir);
        (buf, start.elapsed_seconds())
    });
    let total_seconds = wall.elapsed_seconds();
    for (buf, _) in &results {
        print!("{buf}");
    }

    let report = TimingReport {
        jobs,
        total_seconds,
        experiments: selected
            .iter()
            .zip(&results)
            .map(|(name, (_, seconds))| ExperimentTiming {
                name: (*name).to_string(),
                seconds: *seconds,
            })
            .collect(),
        cache_hits: cache::global().hits(),
        cache_misses: cache::global().misses(),
        cache_entries: cache::global().len(),
    };
    if timings {
        println!("\n{}", report.render());
    }
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write timing report {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("timing report written to {}", path.display());
    }
}
