//! Iterative solvers — the workload-level twins of the feedback-bound
//! IR kernels (`gpu_sim::programs::jacobi_sweep` / `heat_stencil`)
//! whose convergence `ihw-analyze`'s contraction certifier bounds
//! statically.
//!
//! Each problem is manufactured *backwards from its fixpoint*: a target
//! solution is drawn inside the analyzed input box `[0.5, 1]`, the
//! right-hand side is derived so the target is exactly the stationary
//! point of the sweep, and the initial guess starts a worst-case
//! `~0.25`–`0.5` away. The driver then ping-pongs the kernel's feedback
//! binding ([`gpu_sim::isa::Program::feedback`]) launch by launch:
//!
//! ```text
//!   bufs[out] ← bufs[in]      (halo copy: Dirichlet boundary survives,
//!                              interior is overwritten by the stores)
//!   launch(kernel)            (stores tid+1 → interior of `out`)
//!   bufs[in]  ← bufs[out]     (the declared feedback re-binding)
//! ```
//!
//! recording the ∞-norm error against an `f64` host fixpoint after
//! every sweep. `tests/convergence_soundness.rs` replays these
//! histories against the static launch summaries: a certified
//! `(ρ, c)` must dominate every measured step
//! (`e_{k+1} ≤ ρ·e_k + c`), a certified `N(ε)` must dominate the
//! measured iterations-to-`ε`, and an A010 config must measurably fail
//! to reach the target tolerance.
//!
//! Quality metrics: iterations-to-tolerance and RMSE against the `f64`
//! reference (via [`ihw_quality::metrics`]).

use gpu_sim::isa::{Program, WarpInterpreter};
use gpu_sim::programs;
use ihw_core::config::IhwConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Solver workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverParams {
    /// Number of interior (solved) grid points — one kernel thread each.
    pub interior: usize,
    /// Input seed for the manufactured solution.
    pub seed: u64,
    /// Target ∞-norm error against the `f64` fixpoint.
    pub tol: f64,
    /// Sweep cap — generously above every certified `N(ε)`, so hitting
    /// it means the config genuinely failed to converge.
    pub max_iters: usize,
}

impl Default for SolverParams {
    /// Test-scale instance.
    fn default() -> Self {
        SolverParams {
            interior: 64,
            seed: 0x5013e5,
            tol: 1e-6,
            max_iters: 2000,
        }
    }
}

/// One manufactured solver instance: the kernel, its launch buffers and
/// the `f64` fixpoint the iteration is certified to approach.
#[derive(Debug, Clone)]
pub struct SolverProblem {
    /// The feedback-bound iteration body.
    pub program: Program,
    /// Initial launch buffers (index 0: iterate with Dirichlet halo,
    /// 1: right-hand side, 2: output/ping-pong).
    pub buffers: Vec<Vec<f32>>,
    /// `f64` fixpoint of the ideal sweep (same layout as buffer 0).
    pub reference: Vec<f64>,
}

/// One measured solver trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverRun {
    /// ∞-norm error against the reference after each sweep;
    /// `history[0]` is the initial-guess error (before any launch).
    pub history: Vec<f64>,
    /// First sweep count whose error is `≤ tol`, if reached.
    pub iterations_to_tol: Option<usize>,
    /// Error after the last recorded sweep.
    pub final_err: f64,
    /// RMSE of the final iterate against the reference (interior).
    pub rmse: f64,
}

/// Draws `n` values uniformly from `[lo, hi]`.
fn draw(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// Solves the ideal sweep `next(u, i)` to its `f64` fixpoint by
/// iterating until the update stalls below `1e-14`.
fn fixpoint(mut u: Vec<f64>, next: impl Fn(&[f64], usize) -> f64) -> Vec<f64> {
    for _ in 0..200_000 {
        let mut delta = 0.0f64;
        let prev = u.clone();
        for i in 1..u.len() - 1 {
            u[i] = next(&prev, i);
            delta = delta.max((u[i] - prev[i]).abs());
        }
        if delta < 1e-14 {
            break;
        }
    }
    u
}

/// Manufactures a Jacobi instance of `x[i] = (b[i] + x[i−1] + x[i+1])/3`
/// with every buffer value inside the analyzed box `[0.5, 1]`: the
/// target solution lives in `[0.72, 0.78]`, so the derived right-hand
/// side `b = 3x★ − x★₋ − x★₊` stays within `[0.6, 0.9]`.
pub fn jacobi_problem(params: &SolverParams) -> SolverProblem {
    let n = params.interior + 2;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let target = draw(&mut rng, n, 0.72, 0.78);
    let mut b = vec![0.75f32; n];
    for i in 1..n - 1 {
        b[i] = (3.0 * target[i] - target[i - 1] - target[i + 1]) as f32;
    }
    let mut x0 = vec![0.5f32; n];
    x0[0] = target[0] as f32;
    x0[n - 1] = target[n - 1] as f32;

    // The kernel multiplies by the *rounded* f32 constant 1/3; the
    // reference fixpoint must live on the same ideal map.
    let third = f64::from(1.0f32 / 3.0);
    let bf: Vec<f64> = b.iter().map(|&v| f64::from(v)).collect();
    let seed_u: Vec<f64> = x0.iter().map(|&v| f64::from(v)).collect();
    let reference = fixpoint(seed_u, move |u, i| (bf[i] + u[i - 1] + u[i + 1]) * third);

    SolverProblem {
        program: programs::jacobi_sweep(),
        buffers: vec![x0, b, vec![0.0f32; n]],
        reference,
    }
}

/// Manufactures a heat-relaxation instance of
/// `u[i] = 0.5·u[i] + 0.2·(u[i−1] + u[i+1]) + 0.1·q[i]` the same way:
/// target in `[0.74, 0.76]`, so `q = 5u★ − 2(u★₋ + u★₊)` stays within
/// `[0.57, 0.93]`.
pub fn heat_problem(params: &SolverParams) -> SolverProblem {
    let n = params.interior + 2;
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x9e37);
    let target = draw(&mut rng, n, 0.74, 0.76);
    let mut q = vec![0.75f32; n];
    for i in 1..n - 1 {
        q[i] = (5.0 * target[i] - 2.0 * (target[i - 1] + target[i + 1])) as f32;
    }
    let mut u0 = vec![0.5f32; n];
    u0[0] = target[0] as f32;
    u0[n - 1] = target[n - 1] as f32;

    let qf: Vec<f64> = q.iter().map(|&v| f64::from(v)).collect();
    let seed_u: Vec<f64> = u0.iter().map(|&v| f64::from(v)).collect();
    let reference = fixpoint(seed_u, move |u, i| {
        0.5 * u[i] + 0.2 * (u[i - 1] + u[i + 1]) + 0.1 * qf[i]
    });

    SolverProblem {
        program: programs::heat_stencil(),
        buffers: vec![u0, q, vec![0.0f32; n]],
        reference,
    }
}

/// Looks up a solver instance by kernel name.
pub fn problem_for(kernel: &str, params: &SolverParams) -> Option<SolverProblem> {
    match kernel {
        "jacobi_sweep" => Some(jacobi_problem(params)),
        "heat_stencil" => Some(heat_problem(params)),
        _ => None,
    }
}

/// ∞-norm error of the iterate against the reference (interior only —
/// the halo is pinned to the boundary condition).
fn inf_err(iterate: &[f32], reference: &[f64]) -> f64 {
    iterate
        .iter()
        .zip(reference)
        .skip(1)
        .take(reference.len() - 2)
        .map(|(&m, &r)| (f64::from(m) - r).abs())
        .fold(0.0, f64::max)
}

/// Runs the solver under `cfg`: ping-pong sweeps through the kernel's
/// feedback binding until `tol` is reached or `max_iters` sweeps ran,
/// recording the ∞-norm error trajectory.
///
/// # Panics
///
/// Panics if the program declares no feedback binding or a launch
/// fails — both are construction errors for stock solver problems.
pub fn run_solver(problem: &SolverProblem, cfg: IhwConfig, params: &SolverParams) -> SolverRun {
    let fb = problem
        .program
        .feedback()
        .expect("solver kernels declare a feedback binding");
    let threads = params.interior as u32;
    let mut interp = WarpInterpreter::new(cfg);
    let mut bufs = problem.buffers.clone();
    let mut history = vec![inf_err(&bufs[fb.to], &problem.reference)];
    let mut iterations_to_tol = None;
    for sweep in 1..=params.max_iters {
        bufs[fb.from] = bufs[fb.to].clone();
        interp
            .launch(&problem.program, threads, &mut bufs)
            .expect("solver launch stays in bounds");
        bufs[fb.to] = bufs[fb.from].clone();
        let err = inf_err(&bufs[fb.to], &problem.reference);
        history.push(err);
        if err <= params.tol {
            iterations_to_tol = Some(sweep);
            break;
        }
    }
    let n = problem.reference.len();
    let measured: Vec<f64> = bufs[fb.to][1..n - 1]
        .iter()
        .map(|&v| f64::from(v))
        .collect();
    let rmse = ihw_quality::metrics::rmse(&problem.reference[1..n - 1], &measured);
    SolverRun {
        final_err: *history.last().expect("history starts non-empty"),
        iterations_to_tol,
        history,
        rmse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manufactured_inputs_stay_inside_the_analyzed_box() {
        let params = SolverParams::default();
        for problem in [jacobi_problem(&params), heat_problem(&params)] {
            for buf in &problem.buffers[..2] {
                for &v in buf {
                    assert!((0.5..=1.0).contains(&v), "input {v} escapes [0.5, 1]");
                }
            }
            for i in 1..problem.reference.len() - 1 {
                let r = problem.reference[i];
                assert!((0.5..=1.0).contains(&r), "fixpoint {r} escapes the box");
            }
        }
    }

    #[test]
    fn precise_jacobi_converges_to_the_reference() {
        let params = SolverParams::default();
        let problem = jacobi_problem(&params);
        let run = run_solver(&problem, IhwConfig::precise(), &params);
        let n = run.iterations_to_tol.expect("precise Jacobi reaches 1e-6");
        assert!(n < 100, "took {n} sweeps");
        assert!(run.final_err <= params.tol);
        assert!(run.rmse <= params.tol, "rmse {}", run.rmse);
        // Error history is monotonically non-increasing for Jacobi's
        // positive averaging stencil.
        for w in run.history.windows(2) {
            assert!(w[1] <= w[0] * 1.0 + 1e-12, "history grew: {w:?}");
        }
    }

    #[test]
    fn precise_heat_converges_to_a_loose_tolerance() {
        // The heat map contracts at 0.9, so f32 rounding noise floors
        // around 1e-6; measure against a safely reachable target.
        let params = SolverParams {
            tol: 1e-5,
            ..SolverParams::default()
        };
        let problem = heat_problem(&params);
        let run = run_solver(&problem, IhwConfig::precise(), &params);
        let n = run.iterations_to_tol.expect("precise heat reaches 1e-5");
        assert!(n < 300, "took {n} sweeps");
    }

    #[test]
    fn runs_are_deterministic() {
        let params = SolverParams::default();
        let problem = heat_problem(&params);
        let a = run_solver(&problem, IhwConfig::ray_basic(), &params);
        let b = run_solver(&problem, IhwConfig::ray_basic(), &params);
        assert_eq!(a, b);
    }

    #[test]
    fn dirichlet_boundary_survives_the_ping_pong() {
        let params = SolverParams::default();
        let problem = jacobi_problem(&params);
        let run = run_solver(&problem, IhwConfig::precise(), &params);
        // The boundary never moves, so the converged interior matches
        // a reference that *kept* those boundary values fixed — which
        // the reference fixpoint did. Convergence itself is the proof.
        assert!(run.iterations_to_tol.is_some());
    }
}
