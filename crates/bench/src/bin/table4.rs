//! Table 4 reproduction: sparsification of complex networks (paper §4.4).
//!
//! Each network is sparsified to `σ² ≈ 100`. Reported: total
//! sparsification time `Ttot`, edge reduction `|E|/|Es|`, the drop of the
//! largest generalized eigenvalue `λ1/λ̃1` (spanning tree pencil vs final
//! sparsifier pencil), and the time to compute the first ten nontrivial
//! Laplacian eigenvectors (`Toeig` on the original, `Tseig` on the
//! sparsifier) with the shift-invert Lanczos `eigs` replacement.
//!
//! Paper shape to reproduce: several-fold edge reduction, enormous λ1
//! drop, and eigensolves that are far faster on the sparsifier (the
//! paper reports N/A where the original exhausts memory — our dense
//! random/kNN cases show the same blow-up direction through factor fill).

use sass_bench::workloads::table4_cases;
use sass_bench::{fmt_secs, timeit, Table};
use sass_core::{sparsify, SparsifyConfig};
use sass_eigen::lanczos::{lanczos_smallest_laplacian, LanczosOptions};
use sass_eigen::pencil::GeneralizedPencil;
use sass_graph::spanning;
use sass_solver::GroundedSolver;
use sass_sparse::ordering::OrderingKind;

fn main() {
    println!("Table 4: complex-network sparsification at sigma^2 ~ 100\n");
    let mut table = Table::new([
        "case",
        "paper-case",
        "|V|",
        "|E|",
        "Ttot",
        "|E|/|Es|",
        "l1/~l1",
        "Toeig",
        "Tseig",
    ]);
    for w in table4_cases() {
        let g = &w.graph;
        let (sp, t_tot) =
            timeit(|| sparsify(g, &SparsifyConfig::new(100.0).with_seed(3)).expect("sparsify"));
        let reduction = g.m() as f64 / sp.graph().m() as f64;

        // λ1 of the tree-only pencil vs the final sparsifier pencil.
        let lg = g.laplacian();
        let tree_ids = spanning::spanning_tree(g, sp.config().tree).expect("tree");
        let tree = g.subgraph_with_edges(tree_ids);
        let lt = tree.laplacian();
        let tree_solver = GroundedSolver::new(&lt, OrderingKind::MinDegree).expect("tree factor");
        let (l1_tree, _) = GeneralizedPencil::new(&lg, &lt, &tree_solver).power_max_block(12, 1, 9);
        let lp = sp.graph().laplacian();
        let sp_solver = GroundedSolver::new(&lp, OrderingKind::MinDegree).expect("sp factor");
        let (l1_sp, _) = GeneralizedPencil::new(&lg, &lp, &sp_solver).power_max_block(12, 1, 9);
        let drop = l1_tree / l1_sp;

        // First 10 nontrivial eigenvectors, original vs sparsified.
        let opts = LanczosOptions {
            max_dim: 220,
            tol: 1e-6,
            seed: 4,
        };
        let (res_o, t_oeig) =
            timeit(|| lanczos_smallest_laplacian(&lg, 10, OrderingKind::MinDegree, &opts));
        let (res_s, t_seig) =
            timeit(|| lanczos_smallest_laplacian(&lp, 10, OrderingKind::MinDegree, &opts));
        let toeig = match res_o {
            Ok(_) => fmt_secs(t_oeig),
            Err(_) => "N/A".to_string(),
        };
        let tseig = match res_s {
            Ok(_) => fmt_secs(t_seig),
            Err(_) => "N/A".to_string(),
        };

        table.row([
            w.name.to_string(),
            w.paper_case.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            fmt_secs(t_tot),
            format!("{reduction:.1}x"),
            format!("{drop:.0}x"),
            toeig,
            tseig,
        ]);
        eprintln!("  [{}] done ({} rounds)", w.name, sp.rounds().len());
    }
    println!("{}", table.render());
    println!("expected shape: multi-x edge reduction, large l1 drop (tree pencil vs");
    println!("sparsifier pencil), Tseig << Toeig (paper: up to 160x faster, or N/A when");
    println!("the original graph's factorization exhausts memory).");
}
