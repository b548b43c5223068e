//! Property-based tests pinning the blocked multi-RHS grounded solves to
//! the per-RHS path on random connected graphs — the same serial/blocked
//! equivalence discipline as the SpMV proptests in `sass-sparse`.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sass_graph::Graph;
use sass_solver::{GroundedScratch, GroundedSolver};
use sass_sparse::ordering::OrderingKind;

/// Strategy: a random *connected* weighted graph — a Hamiltonian path
/// guarantees connectivity, random extra edges add cycles (duplicates are
/// merged by the builder).
fn connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..28).prop_flat_map(|n| {
        let path_weights = proptest::collection::vec(0.1f64..4.0, n - 1);
        let extras = proptest::collection::vec((0usize..n, 0usize..n, 0.1f64..4.0), 0..2 * n);
        (Just(n), path_weights, extras).prop_map(|(n, path_weights, extras)| {
            let mut edges: Vec<(usize, usize, f64)> = path_weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (i, i + 1, w))
                .collect();
            for &(u, v, w) in &extras {
                if u != v {
                    edges.push((u.min(v), u.max(v), w));
                }
            }
            Graph::from_edges(n, &edges).expect("valid edge list")
        })
    })
}

fn random_rhs(n: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..n).map(|_| rng.gen_range(-3.0f64..3.0)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole guarantee: blocked `solve_many` agrees with per-RHS
    /// `solve` to ≤ 1e-14 across block sizes exercising single columns,
    /// partial tail blocks (7, 9, 33 = 4·8 + 1), and exact full blocks (8).
    #[test]
    fn solve_many_matches_per_rhs_solve(g in connected_graph(), seed in 0u64..1000) {
        let l = g.laplacian();
        let solver = GroundedSolver::new(&l, OrderingKind::MinDegree).unwrap();
        for count in [1usize, 7, 8, 9, 33] {
            let rhs = random_rhs(g.n(), count, seed ^ count as u64);
            let blocked = solver.solve_many(&rhs);
            prop_assert_eq!(blocked.len(), count);
            for (b, x) in rhs.iter().zip(&blocked) {
                let single = solver.solve(b);
                for (bx, sx) in x.iter().zip(&single) {
                    prop_assert!(
                        (bx - sx).abs() <= 1e-14 * sx.abs().max(1.0),
                        "count={}: blocked {} vs single {}", count, bx, sx
                    );
                }
            }
        }
    }

    /// The caller-scratch column solve returns the same solutions as the
    /// allocating `solve_many`, batch after batch through one reused
    /// scratch.
    #[test]
    fn solve_many_into_matches_solve_many(g in connected_graph(), seed in 0u64..1000) {
        let l = g.laplacian();
        let solver = GroundedSolver::new(&l, OrderingKind::Rcm).unwrap();
        let mut scratch = GroundedScratch::new();
        for count in [9usize, 2] {
            let rhs = random_rhs(g.n(), count, seed.wrapping_add(count as u64));
            let mut out = vec![vec![0.0; g.n()]; count];
            solver.solve_columns(&rhs, &mut out, &mut scratch);
            prop_assert_eq!(out, solver.solve_many(&rhs));
        }
    }

    /// Blocked solutions satisfy the defining properties of `L⁺ b`: zero
    /// mean and `L x = center(b)`.
    #[test]
    fn blocked_solutions_are_mean_zero_pseudoinverse(g in connected_graph(), seed in 0u64..1000) {
        let l = g.laplacian();
        let solver = GroundedSolver::new(&l, OrderingKind::NestedDissection).unwrap();
        let rhs = random_rhs(g.n(), 5, seed);
        for (b, x) in rhs.iter().zip(solver.solve_many(&rhs)) {
            prop_assert!(x.iter().sum::<f64>().abs() < 1e-9);
            let mut centered = b.clone();
            sass_sparse::dense::center(&mut centered);
            prop_assert!(l.residual_norm(&x, &centered) < 1e-8);
        }
    }

    /// An empty right-hand-side list round-trips as an empty answer.
    #[test]
    fn empty_rhs_list_is_empty_answer(g in connected_graph()) {
        let solver = GroundedSolver::new(&g.laplacian(), OrderingKind::Natural).unwrap();
        prop_assert!(solver.solve_many(&[]).is_empty());
        solver.solve_columns::<&[f64], &mut [f64]>(&[], &mut [], &mut GroundedScratch::new());
    }
}
