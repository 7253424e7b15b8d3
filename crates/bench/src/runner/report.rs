//! Timing report for `repro --timings` / `--json <file>`.
//!
//! The report is plain data assembled by the `repro` binary after a run:
//! per-experiment wall-clock seconds (measured inside each job, so they
//! are meaningful under any `--jobs` level), the end-to-end wall-clock,
//! and the run-cache counters. It renders as a human table or as a
//! stable machine-readable JSON document
//! (`"schema": "ihw-bench-timings/1"`) so perf trajectories can be
//! tracked across commits without screen-scraping.

use ihw_lint::json::{obj, Json};

/// Wall-clock for one experiment job.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTiming {
    /// Experiment name as listed by `repro list`.
    pub name: String,
    /// Wall-clock seconds spent inside the job.
    pub seconds: f64,
}

/// Full timing report for one `repro` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Worker-thread budget the run used.
    pub jobs: usize,
    /// End-to-end wall-clock seconds for the experiment phase.
    pub total_seconds: f64,
    /// Per-experiment timings, in the order the experiments were requested.
    pub experiments: Vec<ExperimentTiming>,
    /// Run-cache requests served without recomputation.
    pub cache_hits: u64,
    /// Run-cache requests that computed a new entry.
    pub cache_misses: u64,
    /// Distinct workload executions held by the cache at the end of the run.
    pub cache_entries: usize,
}

/// Wall-clock stopwatch for the timing report.
///
/// This module is the single place in the workspace allowed to read the
/// wall clock (`ihw-lint` rule L003): experiment *results* must be
/// bit-deterministic, and funnelling every timing read through here keeps
/// `std::time::Instant` out of code that feeds output.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: std::time::Instant,
}

impl Stopwatch {
    /// Starts a stopwatch at the current instant.
    pub fn start() -> Self {
        #[allow(clippy::disallowed_methods)] // the sanctioned wall-clock read
        let started = std::time::Instant::now();
        Stopwatch { started }
    }

    /// Seconds elapsed since `start()`.
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

impl TimingReport {
    /// Renders the report as an aligned human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== timings ==\n");
        let name_w = self
            .experiments
            .iter()
            .map(|e| e.name.len())
            .chain(std::iter::once("experiment".len()))
            .max()
            .unwrap_or(10);
        out.push_str(&format!("{:<name_w$}  {:>9}\n", "experiment", "seconds"));
        for e in &self.experiments {
            out.push_str(&format!("{:<name_w$}  {:>9.3}\n", e.name, e.seconds));
        }
        let sum: f64 = self.experiments.iter().map(|e| e.seconds).sum();
        out.push_str(&format!("{:<name_w$}  {:>9.3}\n", "(job total)", sum));
        out.push_str(&format!(
            "{:<name_w$}  {:>9.3}\n",
            "(wall clock)", self.total_seconds
        ));
        out.push_str(&format!(
            "jobs: {}   run cache: {} hits / {} misses ({} distinct runs)\n",
            self.jobs, self.cache_hits, self.cache_misses, self.cache_entries
        ));
        out
    }

    /// The report as the `ihw-bench-timings/1` JSON document.
    pub fn to_json(&self) -> String {
        let experiments = self
            .experiments
            .iter()
            .map(|e| {
                obj([
                    ("name", e.name.as_str().into()),
                    ("seconds", e.seconds.into()),
                ])
            })
            .collect();
        obj([
            ("schema", "ihw-bench-timings/1".into()),
            ("jobs", self.jobs.into()),
            ("total_seconds", self.total_seconds.into()),
            (
                "cache",
                obj([
                    ("hits", self.cache_hits.into()),
                    ("misses", self.cache_misses.into()),
                    ("entries", self.cache_entries.into()),
                ]),
            ),
            ("experiments", Json::Arr(experiments)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimingReport {
        TimingReport {
            jobs: 4,
            total_seconds: 1.25,
            experiments: vec![
                ExperimentTiming {
                    name: "table5".into(),
                    seconds: 0.5,
                },
                ExperimentTiming {
                    name: "fig14".into(),
                    seconds: 0.75,
                },
            ],
            cache_hits: 3,
            cache_misses: 9,
            cache_entries: 9,
        }
    }

    #[test]
    fn render_lists_every_experiment() {
        let text = sample().render();
        assert!(text.contains("table5"));
        assert!(text.contains("fig14"));
        assert!(text.contains("3 hits / 9 misses"));
        assert!(text.contains("jobs: 4"));
    }

    #[test]
    fn json_is_stable_and_parsable_shape() {
        let json = sample().to_json();
        assert!(json.contains("\"schema\": \"ihw-bench-timings/1\""));
        assert!(json.contains("\"jobs\": 4"));
        assert!(json.contains("\"hits\": 3"));
        assert!(json.contains("\"name\": \"table5\", \"seconds\": 0.5 }"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
