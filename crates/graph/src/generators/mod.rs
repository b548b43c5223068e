//! Synthetic workload generators.
//!
//! The DAC'18 paper evaluates on SuiteSparse matrices (circuit, thermal,
//! FEM), protein/social/data networks and synthesized meshes. Those exact
//! files are not redistributable here, so this module provides seeded
//! generators for the same structural families, mapped per test case:
//!
//! | paper case | generator |
//! |---|---|
//! | G2/G3_circuit | [`circuit_grid`] |
//! | thermal1/2, ecology2, tmt_sym | [`grid2d`] |
//! | parabolic_fem, raefsky3 | [`fem_mesh2d`] |
//! | fe_rotor, brack2, fe_tooth, auto | [`fem_mesh3d`], [`grid3d`] |
//! | pdb1HYS | [`random_geometric3d`] |
//! | appu | [`dense_random`] |
//! | coAuthorsDBLP | [`barabasi_albert`] |
//! | RCV-80NN | [`knn_graph`] on [`gaussian_mixture_points`] |
//! | airfoil (Fig 1) | [`airfoil_mesh`] |
//! | mesh 1M/4M/9M (Tab 3) | [`grid2d`] with random weights |
//!
//! All generators are deterministic in their `seed` argument and return
//! connected graphs (disconnected raw samples are patched by
//! [`connect_components`]).

mod grid;
mod kdtree;
mod mesh;
mod random;
mod scale_free;

pub use grid::{circuit_grid, grid2d, grid3d};
pub use kdtree::KdTree;
pub use mesh::{airfoil_mesh, fem_mesh2d, fem_mesh3d};
pub use random::{dense_random, gaussian_mixture_points, knn_graph, random_geometric3d};
pub use scale_free::{barabasi_albert, stochastic_block_model, watts_strogatz};

use crate::{Graph, GraphBuilder};
use rand::rngs::StdRng;
use rand::Rng;

/// Random edge-weight models used by the generators.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum WeightModel {
    /// All weights `1.0`.
    Unit,
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (must be positive).
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Log-uniform on `[lo, hi)` — weights spread over orders of magnitude,
    /// as in circuit conductance matrices.
    LogUniform {
        /// Lower bound (must be positive).
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl WeightModel {
    /// Draws one weight.
    ///
    /// # Panics
    ///
    /// Panics if the model's bounds are not positive and ordered.
    pub fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            WeightModel::Unit => 1.0,
            WeightModel::Uniform { lo, hi } => {
                assert!(
                    lo > 0.0 && hi > lo,
                    "uniform bounds must satisfy 0 < lo < hi"
                );
                rng.gen_range(lo..hi)
            }
            WeightModel::LogUniform { lo, hi } => {
                assert!(
                    lo > 0.0 && hi > lo,
                    "log-uniform bounds must satisfy 0 < lo < hi"
                );
                let (a, b) = (lo.ln(), hi.ln());
                rng.gen_range(a..b).exp()
            }
        }
    }
}

/// Connects a possibly-disconnected graph by adding one edge between
/// consecutive components (linking their lowest-index vertices) with the
/// given weight. Returns the input unchanged when already connected.
pub fn connect_components(g: Graph, link_weight: f64) -> Graph {
    let (labels, k) = crate::traverse::connected_components(&g);
    if k <= 1 {
        return g;
    }
    let mut rep = vec![usize::MAX; k];
    for (v, &c) in labels.iter().enumerate() {
        if rep[c] == usize::MAX {
            rep[c] = v;
        }
    }
    let mut b = GraphBuilder::with_capacity(g.n(), g.m() + k - 1);
    for e in g.edges() {
        b.add_edge(e.u as usize, e.v as usize, e.weight);
    }
    for w in rep.windows(2) {
        b.add_edge(w[0], w[1], link_weight);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traverse::is_connected;
    use rand::SeedableRng;

    #[test]
    fn weight_models_sample_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(WeightModel::Unit.sample(&mut rng), 1.0);
        for _ in 0..100 {
            let u = WeightModel::Uniform { lo: 0.5, hi: 2.0 }.sample(&mut rng);
            assert!((0.5..2.0).contains(&u));
            let l = WeightModel::LogUniform { lo: 1e-3, hi: 1e3 }.sample(&mut rng);
            assert!((1e-3..1e3).contains(&l));
        }
    }

    #[test]
    fn connect_components_links_everything() {
        let g = Graph::from_edges(6, &[(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)]).unwrap();
        assert!(!is_connected(&g));
        let c = connect_components(g, 2.0);
        assert!(is_connected(&c));
        assert_eq!(c.m(), 5);
    }

    #[test]
    fn connect_components_is_noop_when_connected() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let m = g.m();
        let c = connect_components(g, 1.0);
        assert_eq!(c.m(), m);
    }
}
