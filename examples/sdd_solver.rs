//! SDD solver shoot-out: how the similarity-aware sparsifier preconditioner
//! compares against identity, Jacobi and tree-only preconditioning on an
//! ill-conditioned circuit Laplacian (the paper's Table 2 scenario).
//!
//! ```text
//! cargo run --release --example sdd_solver
//! ```
//!
//! The example checks the shape it prints and panics if it breaks: every
//! PCG run converges, iterations fall as σ² tightens, and every sparsifier
//! beats the bare spanning tree.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass::prelude::*;
use sass::solver::{Preconditioner, SolveStats};
use sass_graph::spanning;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = sass::graph::generators::circuit_grid(96, 96, 0.1, 11);
    let lg = g.laplacian();
    println!("circuit grid: |V| = {}, |E| = {}", g.n(), g.m());

    let mut rng = StdRng::seed_from_u64(1);
    let mut b: Vec<f64> = (0..g.n()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    sass::sparse::dense::center(&mut b);
    let opts = PcgOptions {
        tol: 1e-6,
        max_iter: 50_000,
        ..Default::default()
    };
    let run = |label: &str, prec: &dyn Preconditioner| -> SolveStats {
        let (_, s) = pcg(&lg, &b, prec, &opts);
        println!("{label:<40}{:>10}", s.iterations);
        assert!(s.converged, "{label}: PCG did not converge");
        s
    };

    println!("\npreconditioner                          iterations");

    // 1. No preconditioning.
    run("identity", &IdentityPrec);

    // 2. Jacobi.
    run("jacobi", &JacobiPrec::new(&lg));

    // 3. Spanning tree only (a sparsifier with zero off-tree edges): the
    // grounded solver peels a tree's Laplacian whole, leaf to root, in O(n).
    let tree_ids = spanning::max_weight_spanning_tree(&g)?;
    let tree_solver = GroundedSolver::new(&g.laplacian_of_edges(&tree_ids), Default::default())?;
    let tree = run("max-weight spanning tree", &LaplacianPrec::new(tree_solver));

    // 4. Similarity-aware sparsifiers at three similarity levels.
    let mut last = tree.iterations;
    for sigma2 in [400.0, 100.0, 25.0] {
        let sp = sparsify(&g, &SparsifyConfig::new(sigma2).with_seed(3))?;
        let prec = LaplacianPrec::new(GroundedSolver::new(
            &sp.graph().laplacian(),
            Default::default(),
        )?);
        let label = format!(
            "sparsifier sigma^2 = {:<6} ({:>6} edges)",
            sigma2,
            sp.graph().m()
        );
        let s = run(&label, &prec);
        assert!(
            s.iterations < tree.iterations,
            "{label}: {} iterations do not beat the tree's {}",
            s.iterations,
            tree.iterations
        );
        assert!(
            s.iterations < last,
            "{label}: {} iterations do not fall below the looser level's {last}",
            s.iterations
        );
        last = s.iterations;
    }

    println!("\nshape to observe: iterations fall as sigma^2 tightens — the edge");
    println!("filtering threshold directly trades sparsifier size for solver speed.");
    Ok(())
}
