//! `perfbench` — the repository's benchmark: four workloads over the
//! simulator stack, end-to-end metrics with tracing off and per-layer
//! metrics with tracing on. See README.md for what each measures.
//!
//! ```text
//! perfbench --workload <paper|launch|serve_shared|serve_unique> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it carries the environment stamp, sample counts and counters.

#![forbid(unsafe_code)]

mod gen;
mod json;
mod launch;
mod layers;
mod paper;
mod report;
mod serve;
mod stats;

use json::Json;
use report::{env_stamp, per_layer, Outcome, END_TO_END};

const USAGE: &str = "usage: perfbench --workload <paper|launch|serve_shared|serve_unique> --seed <n> --seconds <s> --trace <0|1>";

/// The four workloads.
const WORKLOADS: [&str; 4] = ["paper", "launch", "serve_shared", "serve_unique"];

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} expects a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(a: &Args) -> Outcome {
    match a.workload {
        "paper" => paper::run(a.seed, a.seconds, a.trace),
        "launch" => launch::run(a.seed, a.seconds, a.trace),
        "serve_shared" => serve::run(serve::Mix::Shared, a.seed, a.seconds, a.trace),
        "serve_unique" => serve::run(serve::Mix::Unique, a.seed, a.seconds, a.trace),
        other => unreachable!("workload '{other}' validated by parse"),
    }
}

/// The metrics this run must print, in order: every end-to-end metric
/// untraced, every per-layer metric traced. A per-layer metric of a
/// layer the workload does not exercise reads 0 and is listed in the
/// detail line under `not_exercised`.
fn select(o: &Outcome, trace: bool) -> (Vec<(String, Json)>, Vec<String>) {
    let wanted: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut absent = Vec::new();
    let metrics = wanted
        .into_iter()
        .map(|(name, unit)| {
            let value = o.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            let value = value.unwrap_or_else(|| {
                assert!(trace, "end-to-end metric {name} not measured");
                absent.push(name.clone());
                0.0
            });
            let m = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
            (name, m)
        })
        .collect();
    (metrics, absent)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let o = run(&args);
    let (metrics, absent) = select(&o, args.trace);
    let tenants = match args.workload {
        "serve_shared" => serve::Mix::Shared.tenants(),
        "serve_unique" => serve::Mix::Unique.tenants(),
        _ => 0,
    };
    let mut detail = vec![
        ("workload".to_string(), Json::str(args.workload)),
        ("seed".to_string(), Json::Int(args.seed)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("env".to_string(), env_stamp(tenants)),
        (
            "not_exercised".to_string(),
            Json::Arr(absent.into_iter().map(Json::Str).collect()),
        ),
    ];
    detail.extend(o.detail);
    println!("{}", Json::obj([("perfbench", Json::Obj(detail))]));
    let result = Json::obj([
        ("correct", Json::Bool(o.correct && o.failed == 0)),
        ("attempted", Json::Int(o.attempted.max(1))),
        ("failed", Json::Int(o.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
}
