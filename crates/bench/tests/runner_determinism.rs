//! Locks in the sweep runner's determinism guarantee: the rendered
//! experiment artefacts must be byte-identical at every `--jobs` level,
//! with a cold or warm run cache, whether an experiment runs alone or as
//! one job of an outer sweep (as `repro` runs it).
//!
//! Kept as a single `#[test]` because the jobs budget and the run cache
//! are process-global — one test owns them for its whole duration.

use ihw_bench::experiments::{ext, system};
use ihw_bench::runner::{self, cache};
use ihw_bench::Scale;

fn table5() -> String {
    system::table5_table(&system::table5(Scale::Quick)).render()
}

fn acadder() -> String {
    ext::ac_adder_space().render()
}

/// Renders table5 and acadder at `jobs` on a cold cache, returning the
/// renders and the number of distinct executions. `nested` runs both
/// as jobs of one outer sweep, so their inner sweeps run inside a job;
/// otherwise each runs alone and its inner sweeps are the outermost.
fn render(jobs: usize, nested: bool) -> (Vec<String>, u64) {
    runner::set_jobs(jobs);
    cache::global().clear();
    let renders = if nested {
        runner::sweep(vec![table5 as fn() -> String, acadder], |run| run())
    } else {
        vec![table5(), acadder()]
    };
    let misses = cache::global().misses();
    runner::set_jobs(1);
    (renders, misses)
}

#[test]
fn jobs_level_does_not_change_results() {
    let serial = render(1, false);
    for (jobs, nested) in [(8, false), (1, true), (8, true)] {
        let (renders, misses) = render(jobs, nested);
        assert_eq!(
            renders[0], serial.0[0],
            "table5 must not depend on the jobs level (jobs {jobs}, nested {nested})"
        );
        assert_eq!(
            renders[1], serial.0[1],
            "acadder must not depend on the jobs level (jobs {jobs}, nested {nested})"
        );
        // Same work graph → same number of distinct executions, even
        // with workers racing for the shared baselines.
        assert_eq!(
            misses, serial.1,
            "cache must dedup identically (jobs {jobs}, nested {nested})"
        );
    }

    // A warm-cache re-render is also identical (results come from the
    // cache, formatting from the table layer).
    assert_eq!(table5(), serial.0[0]);
    assert!(
        cache::global().hits() > 0,
        "warm re-render must hit the cache"
    );
}
