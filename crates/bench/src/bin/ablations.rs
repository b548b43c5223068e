//! Ablation tables (ours, not from the paper): the preconditioner ladder,
//! the Spielman–Srivastava baseline comparison, and the algorithm-knob
//! sweeps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass_bench::{fmt_secs, timeit, Table};
use sass_core::baseline::{spielman_srivastava, SsConfig};
use sass_core::{sparsify, SimilarityPolicy, SparsifyConfig};
use sass_eigen::pencil::dense_generalized_eigenvalues;
use sass_graph::generators::circuit_grid;
use sass_graph::spanning::TreeKind;
use sass_graph::{spanning, Graph};
use sass_solver::{
    pcg, AmgPrec, GroundedSolver, IdentityPrec, JacobiPrec, LaplacianPrec, PcgOptions,
    Preconditioner,
};
use sass_sparse::dense;
use sass_sparse::ordering::OrderingKind;

fn exact_kappa(g: &Graph, p: &Graph) -> f64 {
    let vals =
        dense_generalized_eigenvalues(&g.laplacian(), &p.laplacian()).expect("dense eigensolve");
    vals.last().unwrap() / vals.first().unwrap()
}

fn preconditioner_ladder() {
    println!("== preconditioner ladder (56x56 circuit grid, PCG tol 1e-8) ==\n");
    let g = circuit_grid(56, 56, 0.1, 17);
    let l = g.laplacian();
    let mut rng = StdRng::seed_from_u64(1);
    let mut b: Vec<f64> = (0..g.n()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    dense::center(&mut b);
    let opts = PcgOptions {
        tol: 1e-8,
        max_iter: 100_000,
        ..Default::default()
    };

    let tree_ids = spanning::max_weight_spanning_tree(&g).unwrap();
    let tree_prec = LaplacianPrec::new(
        GroundedSolver::new(&g.laplacian_of_edges(&tree_ids), OrderingKind::MinDegree).unwrap(),
    );
    let jacobi = JacobiPrec::new(&l);
    let (amg, t_amg) = timeit(|| AmgPrec::new(&l, &Default::default()).unwrap());
    let (sp50, t_sp50) = timeit(|| sparsify(&g, &SparsifyConfig::new(50.0).with_seed(2)).unwrap());
    let prec50 = LaplacianPrec::new(
        GroundedSolver::new(&sp50.graph().laplacian(), OrderingKind::MinDegree).unwrap(),
    );
    let (sp200, t_sp200) =
        timeit(|| sparsify(&g, &SparsifyConfig::new(200.0).with_seed(2)).unwrap());
    let prec200 = LaplacianPrec::new(
        GroundedSolver::new(&sp200.graph().laplacian(), OrderingKind::MinDegree).unwrap(),
    );
    let (exact, t_exact) =
        timeit(|| LaplacianPrec::new(GroundedSolver::new(&l, OrderingKind::MinDegree).unwrap()));

    let mut table = Table::new(["preconditioner", "setup", "PCG iters", "solve time"]);
    let mut run = |name: &str, setup: String, prec: &dyn Preconditioner| {
        let ((_, stats), t) = timeit(|| pcg(&l, &b, prec, &opts));
        table.row([
            name.to_string(),
            setup,
            stats.iterations.to_string(),
            fmt_secs(t),
        ]);
    };
    run("identity", "-".into(), &IdentityPrec);
    run("jacobi", "-".into(), &jacobi);
    run("tree (max-weight)", "-".into(), &tree_prec);
    run("amg v-cycle", fmt_secs(t_amg), &amg);
    run("sparsifier s2=200", fmt_secs(t_sp200), &prec200);
    run("sparsifier s2=50", fmt_secs(t_sp50), &prec50);
    run("exact factor", fmt_secs(t_exact), &exact);
    println!("{}", table.render());
}

fn baseline_comparison() {
    println!("== edge filtering vs Spielman-Srivastava at matched budget ==\n");
    let g = circuit_grid(16, 16, 0.2, 7);
    let (sa, t_sa) = timeit(|| sparsify(&g, &SparsifyConfig::new(50.0).with_seed(1)).unwrap());
    let factor = sa.graph().m() as f64 / g.n() as f64;
    let (ss, t_ss) = timeit(|| {
        spielman_srivastava(&g, &SsConfig::with_sample_factor(g.n(), 2.0 * factor)).unwrap()
    });
    let mut table = Table::new(["method", "edges", "exact kappa", "build time"]);
    table.row([
        "similarity-aware s2=50".to_string(),
        sa.graph().m().to_string(),
        format!("{:.1}", exact_kappa(&g, sa.graph())),
        fmt_secs(t_sa),
    ]);
    table.row([
        "spielman-srivastava".to_string(),
        ss.m().to_string(),
        format!("{:.1}", exact_kappa(&g, &ss)),
        fmt_secs(t_ss),
    ]);
    println!("{}", table.render());
}

fn knob_sweeps() {
    println!("== algorithm knobs (48x48 circuit grid, sigma^2 = 80) ==\n");
    let g = circuit_grid(48, 48, 0.12, 9);
    let mut table = Table::new(["config", "edges", "rounds", "condition est", "time"]);
    let mut run = |name: &str, cfg: SparsifyConfig| {
        let (sp, t) = timeit(|| sparsify(&g, &cfg).unwrap());
        table.row([
            name.to_string(),
            sp.edge_count().to_string(),
            sp.rounds().len().to_string(),
            format!("{:.1}", sp.condition_estimate()),
            fmt_secs(t),
        ]);
    };
    for (name, policy) in [
        ("policy=none", SimilarityPolicy::None),
        ("policy=endpoint", SimilarityPolicy::EndpointMark),
        (
            "policy=path-overlap",
            SimilarityPolicy::PathOverlap { max_overlap: 0.5 },
        ),
    ] {
        run(
            name,
            SparsifyConfig::new(80.0)
                .with_similarity(policy)
                .with_seed(2),
        );
    }
    for (name, tree) in [
        ("tree=max-weight", TreeKind::MaxWeight),
        ("tree=akpw", TreeKind::Akpw),
        ("tree=bfs", TreeKind::Bfs),
        ("tree=random", TreeKind::Random(7)),
    ] {
        run(name, SparsifyConfig::new(80.0).with_tree(tree).with_seed(2));
    }
    for t_steps in [1usize, 2, 4] {
        run(
            &format!("t={t_steps}"),
            SparsifyConfig::new(80.0).with_t_steps(t_steps).with_seed(2),
        );
    }
    println!("{}", table.render());
}

fn main() {
    preconditioner_ladder();
    baseline_comparison();
    knob_sweeps();
}
