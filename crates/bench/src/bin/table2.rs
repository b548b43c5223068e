//! Table 2 reproduction: the sparsifier-preconditioned SDD solver
//! (paper §4.2).
//!
//! For each graph, sparsifiers targeting `σ² = 50` and `σ² = 200` are
//! extracted; a PCG solve of `L_G x = b` (random `b`, accuracy
//! `‖Ax − b‖ < 10⁻³‖b‖` as in the paper) is preconditioned by each.
//! Reported per σ²: sparsifier density `|Eσ²|/|V|`, PCG iteration count
//! `Nσ²` and sparsification time `Tσ²`.
//!
//! Paper shape to reproduce: σ²=50 keeps more edges, converges in roughly
//! half the iterations (paper: ~20 vs ~38) and costs more sparsification
//! time than σ²=200.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass_bench::workloads::table2_cases;
use sass_bench::{fmt_secs, timeit, Table};
use sass_core::{sparsify, SparsifyConfig};
use sass_graph::Graph;
use sass_solver::{pcg, GroundedSolver, LaplacianPrec, PcgOptions};
use sass_sparse::dense;
use sass_sparse::ordering::OrderingKind;

fn solve_with_sigma(g: &Graph, sigma2: f64, seed: u64) -> (f64, usize, std::time::Duration) {
    let (sp, t_sparsify) =
        timeit(|| sparsify(g, &SparsifyConfig::new(sigma2).with_seed(seed)).expect("sparsify"));
    let lp = sp.graph().laplacian();
    let prec = LaplacianPrec::new(
        GroundedSolver::new(&lp, OrderingKind::MinDegree).expect("factorize sparsifier"),
    );
    let lg = g.laplacian();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb0b);
    let mut b: Vec<f64> = (0..g.n()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    dense::center(&mut b);
    let (_, stats) = pcg(&lg, &b, &prec, &PcgOptions::paper_accuracy());
    assert!(
        stats.converged,
        "PCG failed to converge at sigma2 = {sigma2}"
    );
    (sp.density(), stats.iterations, t_sparsify)
}

fn main() {
    println!("Table 2: iterative SDD matrix solver with similarity-aware sparsifiers");
    println!("(PCG to ||Ax-b|| < 1e-3 ||b||, random b, as in the paper)\n");
    let mut table = Table::new([
        "case",
        "paper-case",
        "|V|",
        "|E|",
        "|E50|/|V|",
        "N50",
        "T50",
        "|E200|/|V|",
        "N200",
        "T200",
    ]);
    for w in table2_cases() {
        let g = &w.graph;
        let (d50, n50, t50) = solve_with_sigma(g, 50.0, 1);
        let (d200, n200, t200) = solve_with_sigma(g, 200.0, 1);
        table.row([
            w.name.to_string(),
            w.paper_case.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            format!("{d50:.2}"),
            n50.to_string(),
            fmt_secs(t50),
            format!("{d200:.2}"),
            n200.to_string(),
            fmt_secs(t200),
        ]);
        eprintln!("  [{}] done", w.name);
    }
    println!("{}", table.render());
    println!("expected shape: N50 < N200 (tighter similarity => fewer PCG iterations),");
    println!("|E50|/|V| > |E200|/|V| (more edges retained), T50 >= T200 (more rounds).");
    println!("paper ballpark: N50 ~ 18-21, N200 ~ 36-40, densities 1.05-1.22.");

    multi_rhs_amortization();
    churn_reuse_diagnostics();
}

/// Partial-refactor effectiveness of the incremental layer: a churn
/// sequence (repeated weight back-annotation on a selected off-tree edge,
/// then a tree-edge cut and restore) applied to the circuit case, with
/// the accumulated schedule-reuse [`sass_core::ChurnTotals`] and the maintained
/// factor's memory footprint — the observable behind the etree-subtree
/// patching claim (columns re-run vs total, fallbacks, free skips).
fn churn_reuse_diagnostics() {
    use sass_core::IncrementalSparsifier;

    println!(
        "
incremental churn schedule reuse, circuit-180 case:"
    );
    let g = &table2_cases().remove(0).graph;
    let config = SparsifyConfig::new(50.0).with_seed(1);
    let mut inc = IncrementalSparsifier::new(g, &config).expect("incremental seed");
    let sel_off = inc
        .selected_edge_ids()
        .iter()
        .copied()
        .find(|id| inc.tree_edge_ids().binary_search(id).is_err())
        .expect("a selected off-tree edge");
    let se = g.edge(sel_off as usize);
    for _ in 0..8 {
        inc.add_edge(se.u as usize, se.v as usize, 1e-6)
            .expect("weight back-annotation");
    }
    let te = g.edge(inc.tree_edge_ids()[inc.tree_edge_ids().len() / 2] as usize);
    let (tu, tv, tw) = (te.u as usize, te.v as usize, te.weight);
    inc.remove_edge(tu, tv).expect("cut tree edge");
    inc.add_edge(tu, tv, tw).expect("restore tree edge");

    let t = inc.totals();
    let reuse = 100.0 * (1.0 - t.cols_refactored as f64 / t.cols_total.max(1) as f64);
    println!(
        "  {} batches / {} edits: {} of {} factor columns re-run ({:.1}% reused), \
         {} full refactor(s), {} batch(es) with the factor untouched",
        t.batches,
        t.edits,
        t.cols_refactored,
        t.cols_total,
        reuse,
        t.full_refactors,
        t.factors_skipped
    );
    println!(
        "  maintained grounded factor: {} KiB",
        inc.solver().memory_bytes() / 1024
    );
}

/// The paper's motivating scenario for tight similarity: "solving an SDD
/// matrix for multiple right-hand-side vectors" — the sparsification cost
/// is paid once and amortized over every subsequent solve.
fn multi_rhs_amortization() {
    use sass_bench::timeit;
    println!("\nmulti-RHS amortization (paper §1 motivation), circuit-180 case:");
    let g = &table2_cases().remove(0).graph;
    let lg = g.laplacian();
    let n_rhs = 10;
    let mut rng = StdRng::seed_from_u64(5);
    let rhs: Vec<Vec<f64>> = (0..n_rhs)
        .map(|_| {
            let mut b: Vec<f64> = (0..g.n()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            dense::center(&mut b);
            b
        })
        .collect();
    let (sp, t_setup) =
        timeit(|| sparsify(g, &SparsifyConfig::new(50.0).with_seed(1)).expect("sparsify"));
    let (prec, t_factor) = timeit(|| {
        LaplacianPrec::new(
            GroundedSolver::new(&sp.graph().laplacian(), OrderingKind::MinDegree)
                .expect("factorize"),
        )
    });
    let (_, t_solves) = timeit(|| {
        for b in &rhs {
            let (_, stats) = pcg(&lg, b, &prec, &PcgOptions::paper_accuracy());
            assert!(stats.converged);
        }
    });
    let total = t_setup + t_factor + t_solves;
    println!(
        "  setup (sparsify + factor): {:.2?}; {} solves: {:.2?} ({:.1} ms/solve)",
        t_setup + t_factor,
        n_rhs,
        t_solves,
        t_solves.as_secs_f64() * 1000.0 / n_rhs as f64
    );
    println!(
        "  amortized total per solve: {:.1} ms (setup share falls as RHS count grows)",
        total.as_secs_f64() * 1000.0 / n_rhs as f64
    );

    // Direct factor reuse: the sparsifier Laplacian solved against the same
    // batch, once as the historical per-RHS loop and once through the
    // blocked multi-RHS path (one factor sweep per 8 columns). Both paths
    // are warmed first so the comparison measures factor traffic, not the
    // scratch's first-call allocations; see the solve_many criterion bench
    // (BENCH_SOLVE_MANY.json) for the recorded baseline.
    const REPS: usize = 5;
    let solver = GroundedSolver::new(&sp.graph().laplacian(), OrderingKind::MinDegree)
        .expect("factorize sparsifier");
    // Elimination-tree partition of the sparsifier factor: the trunk plus
    // the heaviest lane is the critical path a partitioned solve still
    // walks, which decides whether the solves spread over the pool. The
    // factor covers the core left after the peel; a sparsifier that peels
    // whole (a bare spanning tree) has none.
    match solver.factor() {
        Some(f) => {
            let shape = f.partition_shape();
            println!(
                "  sparsifier factor: nnz(L) = {}, etree partition: {} lanes, trunk {} cols ({:.1}% of work), critical path {:.1}%, {} KiB",
                f.nnz_l(),
                shape.lanes,
                shape.trunk_cols,
                100.0 * shape.trunk_work as f64 / shape.total_work.max(1) as f64,
                100.0 * shape.critical_fraction(),
                f.memory_bytes() / 1024
            );
        }
        None => println!(
            "  sparsifier peels whole (no core to factor): nnz(L) = {}",
            solver.nnz_factor()
        ),
    }
    let mut scratch = sass_solver::GroundedScratch::new();
    let mut x = vec![0.0; solver.n()];
    let mut out = vec![vec![0.0; solver.n()]; rhs.len()];
    for b in &rhs {
        solver.solve_columns(&[b], &mut [&mut x], &mut scratch);
    }
    solver.solve_columns(&rhs, &mut out, &mut scratch);
    let (_, t_serial) = timeit(|| {
        for _ in 0..REPS {
            for b in &rhs {
                solver.solve_columns(&[b], &mut [&mut x], &mut scratch);
            }
        }
    });
    let (_, t_blocked) = timeit(|| {
        for _ in 0..REPS {
            solver.solve_columns(&rhs, &mut out, &mut scratch);
        }
    });
    println!(
        "  sparsifier factor solves, {} RHS x {REPS}: per-RHS loop {:.2?}, blocked solve_many {:.2?} ({:.2}x)",
        n_rhs,
        t_serial,
        t_blocked,
        t_serial.as_secs_f64() / t_blocked.as_secs_f64().max(1e-12)
    );
}
