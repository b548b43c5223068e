//! `circuit-pcg`, the in-process workload: sparsify the Table 2
//! G3_circuit stand-in, `circuit_grid(180, 180, 0.1)` at σ² = 50, factor
//! the sparsifier and use it as a PCG preconditioner for several random
//! right-hand sides.
//!
//! The graph is one fixed instance, as a benchmark matrix is: its
//! structure decides how many densification rounds run, so a graph drawn
//! per seed would make the work itself vary from run to run. The seed
//! draws the right-hand sides.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass::core::{sparsify, Sparsifier, SparsifierSolver, SparsifyConfig};
use sass::graph::generators::circuit_grid;
use sass::graph::Graph;
use sass::solver::{pcg, LaplacianPrec, PcgOptions, SolveStats};
use sass::sparse::{dense, CsrMatrix};

use crate::adapters::PcgSplit;
use crate::replay::ReplayRuns;
use crate::report::Report;
use crate::stats::{mean, median, quantile, supports};
use crate::Args;

const SIGMA2: f64 = 50.0;
/// PCG solves after the first one, per sparsifier.
const LATER_SOLVES: usize = 4;

/// Set-ups timed per run (the median is reported).
const SETUP_REPS: usize = 31;

/// Tail percentile reported for PCG solve latency.
const TAIL_PCT: u32 = 90;

/// The accuracy every solve must reach, as in the paper's Table 2.
const TOL: f64 = 1e-3;

struct Inputs {
    g: Graph,
    lg: CsrMatrix,
    rhs: Vec<Vec<f64>>,
}

fn make_inputs(seed: u64) -> Inputs {
    let g = circuit_grid(180, 180, 0.1, 21);
    let lg = g.laplacian();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b0b_5eed);
    let rhs = (0..=LATER_SOLVES)
        .map(|_| {
            let mut b: Vec<f64> = (0..g.n()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            dense::center(&mut b);
            b
        })
        .collect();
    Inputs { g, lg, rhs }
}

/// Factors the sparsifier into a PCG preconditioner via `build_solver`.
fn preconditioner(sp: &Sparsifier) -> Result<LaplacianPrec, String> {
    match sp
        .build_solver()
        .map_err(|e| format!("build_solver: {e}"))?
    {
        SparsifierSolver::Grounded(s) => Ok(LaplacianPrec::new(*s)),
        SparsifierSolver::Sharded(_) => Err("expected the monolithic solver".to_string()),
    }
}

/// Whether a PCG solve converged and its true relative residual,
/// recomputed from outside against `L_G`, meets the tolerance.
pub fn meets_tol(lg: &CsrMatrix, b: &[f64], x: &[f64], st: &SolveStats) -> bool {
    // The recurrence residual `pcg` stops on and the recomputed one differ
    // by rounding only; allow for that and nothing more.
    st.converged && lg.residual_norm(x, b) <= TOL * (1.0 + 1e-6)
}

/// Counts a failure unless the solve [`meets_tol`].
fn check_solve(r: &mut Report, lg: &CsrMatrix, b: &[f64], x: &[f64], st: &SolveStats) {
    if !meets_tol(lg, b, x, st) {
        r.failed += 1;
        r.fail_check(&format!(
            "PCG solve: converged = {}, relative residual {:e}",
            st.converged,
            lg.residual_norm(x, b)
        ));
    }
}

/// Runs `circuit-pcg`.
///
/// # Errors
///
/// Library errors, as text.
pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = Some(make_inputs(args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Inputs { g, lg, rhs } = inputs.expect("at least one set-up");
    let cfg = SparsifyConfig::new(SIGMA2);
    r.detail("n", g.n() as f64);
    r.detail("m", g.m() as f64);

    // Warm-up, untimed: pool start-up and first-touch allocation; its
    // edge set is the reference every later sparsify must reproduce.
    let reference = sparsify(&g, &cfg)
        .map_err(|e| format!("sparsify: {e}"))?
        .edge_ids();
    if args.trace {
        return run_traced(args, r, &g, &lg, &rhs, &cfg);
    }

    let opts = PcgOptions::paper_accuracy();
    let (mut tts, mut sparsify_s, mut solve_ms, mut iters) = (vec![], vec![], vec![], vec![]);
    let mut density = 0.0;
    let start = Instant::now();
    // Run on past the deadline until the tail percentile is supported.
    while start.elapsed().as_secs_f64() < args.seconds || !supports(solve_ms.len(), TAIL_PCT) {
        let t0 = Instant::now();
        let sp = sparsify(&g, &cfg).map_err(|e| format!("sparsify: {e}"))?;
        let t1 = Instant::now();
        let prec = preconditioner(&sp)?;
        let (x, st) = pcg(&lg, &rhs[0], &prec, &opts);
        let t2 = Instant::now();
        tts.push((t2 - t0).as_secs_f64());
        sparsify_s.push((t1 - t0).as_secs_f64());
        r.attempted += 1;
        if !sp.converged() || sp.edge_ids() != reference {
            r.failed += 1;
            r.fail_check("sparsify did not converge or changed its edge set");
        }
        check_solve(r, &lg, &rhs[0], &x, &st);
        iters.push(st.iterations as f64);
        density = sp.density();
        for b in &rhs[1..] {
            let t = Instant::now();
            let (x, st) = pcg(&lg, b, &prec, &opts);
            solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r.attempted += 1;
            check_solve(r, &lg, b, &x, &st);
            iters.push(st.iterations as f64);
        }
    }

    r.detail("pipelines", tts.len() as f64);
    r.detail("solve_samples", solve_ms.len() as f64);
    r.detail("solve_tail_pct", f64::from(TAIL_PCT));
    r.detail("setup_samples", setup_s.len() as f64);
    r.metric("setup_s", median(&setup_s));
    r.metric("time_to_solution_s", median(&tts));
    r.metric("sparsify_s", median(&sparsify_s));
    r.metric("solve_ms", median(&solve_ms));
    r.metric(
        "solve_tail_ms",
        quantile(&solve_ms, f64::from(TAIL_PCT) / 100.0),
    );
    r.metric("pcg_iters", mean(&iters));
    r.metric("density", density);
    Ok(())
}

/// The traced run: each round replays `sparsify` stage by stage next to
/// an untraced call, then runs every right-hand side both plain and
/// through the timing adapters, which must agree bit for bit.
fn run_traced(
    args: &Args,
    r: &mut Report,
    g: &Graph,
    lg: &CsrMatrix,
    rhs: &[Vec<f64>],
    cfg: &SparsifyConfig,
) -> Result<(), String> {
    let opts = PcgOptions::paper_accuracy();
    let mut replays = ReplayRuns::default();
    let mut split = PcgSplit::default();
    let mut precond_factor_s = Vec::new();
    let start = Instant::now();
    while precond_factor_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let sp = replays.run_once(g, cfg, r)?;
        r.attempted += 1;
        let t = Instant::now();
        let prec = preconditioner(&sp)?;
        precond_factor_s.push(t.elapsed().as_secs_f64());
        for b in rhs {
            let (x, st) = pcg(lg, b, &prec, &opts);
            let (xt, stt) = split.solve(lg, b, &prec, &opts);
            r.attempted += 1;
            check_solve(r, lg, b, &x, &st);
            let same = xt.iter().zip(&x).all(|(a, b)| a.to_bits() == b.to_bits());
            if stt.iterations != st.iterations || !same {
                r.fail_check("the timing adapters changed the PCG result");
            }
        }
    }
    replays.record(r);
    split.record(r);
    r.metric("solver.precond_factor_s", median(&precond_factor_s));
    Ok(())
}
