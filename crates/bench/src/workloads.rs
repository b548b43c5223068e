//! The synthetic workload catalog standing in for the paper's test cases.
//!
//! Every entry names the paper test case it substitutes and is
//! deterministic. Two size tiers are
//! provided: `*_small` for Criterion benches and tests, full-size for the
//! row-printing binaries.

use sass_graph::generators::{
    airfoil_mesh, barabasi_albert, circuit_grid, dense_random, fem_mesh2d, fem_mesh3d,
    gaussian_mixture_points, grid2d, grid3d, knn_graph, random_geometric3d, WeightModel,
};
use sass_graph::Graph;

/// A named workload graph.
pub struct Workload {
    /// Our generator name.
    pub name: &'static str,
    /// The paper test case this stands in for.
    pub paper_case: &'static str,
    /// The graph itself.
    pub graph: Graph,
}

impl Workload {
    fn new(name: &'static str, paper_case: &'static str, graph: Graph) -> Self {
        Workload {
            name,
            paper_case,
            graph,
        }
    }
}

/// Table 1 cases (extreme eigenvalue estimation): small enough for the
/// dense generalized eigensolver to provide exact references.
pub fn table1_cases() -> Vec<Workload> {
    vec![
        Workload::new("fem3d-7", "fe_rotor", fem_mesh3d(7, 7, 7, 11)),
        Workload::new(
            "protein-400",
            "pdb1HYS",
            random_geometric3d(400, 0.16, true, 12),
        ),
        Workload::new("fem2d-20", "bcsstk36", fem_mesh2d(20, 20, 13)),
        Workload::new(
            "grid3d-7",
            "brack2",
            grid3d(7, 7, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 14),
        ),
        Workload::new("circuit-20", "raefsky3", circuit_grid(20, 20, 0.15, 15)),
    ]
}

/// Table 2 cases (PCG SDD solver): mid-size mesh/circuit Laplacians.
pub fn table2_cases() -> Vec<Workload> {
    vec![
        Workload::new("circuit-180", "G3_circuit", circuit_grid(180, 180, 0.1, 21)),
        Workload::new(
            "thermal-190",
            "thermal2",
            grid2d(190, 170, WeightModel::LogUniform { lo: 0.1, hi: 10.0 }, 22),
        ),
        Workload::new(
            "ecology-170",
            "ecology2",
            grid2d(170, 170, WeightModel::Unit, 23),
        ),
        Workload::new("fem2d-150", "tmt_sym", fem_mesh2d(150, 150, 24)),
        Workload::new("fem2d-160x100", "parabolic_fem", fem_mesh2d(160, 100, 25)),
    ]
}

/// Small-tier Table 2 cases for Criterion.
pub fn table2_cases_small() -> Vec<Workload> {
    vec![
        Workload::new(
            "circuit-48",
            "G3_circuit (small)",
            circuit_grid(48, 48, 0.1, 21),
        ),
        Workload::new(
            "ecology-48",
            "ecology2 (small)",
            grid2d(48, 48, WeightModel::Unit, 23),
        ),
        Workload::new("fem2d-40", "parabolic_fem (small)", fem_mesh2d(40, 40, 25)),
    ]
}

/// Table 3 cases (spectral partitioning): mesh-style graphs where the
/// direct factorization pays real fill.
///
/// The paper's `mesh 1M/4M/9M` rows are 2-D meshes large enough
/// (10⁶–10⁷ nodes) for the direct solver's superlinear factorization cost
/// to dominate. At laptop scale that blow-up appears in **3-D** meshes
/// instead (separator size `n^(2/3)` vs `n^(1/2)`), so the largest rows
/// here use `fem_mesh3d` — same crossover mechanism, smaller `n`.
pub fn table3_cases() -> Vec<Workload> {
    vec![
        Workload::new("circuit-120", "G3_circuit", circuit_grid(120, 120, 0.1, 31)),
        Workload::new(
            "thermal-130",
            "thermal2",
            grid2d(130, 120, WeightModel::LogUniform { lo: 0.1, hi: 10.0 }, 32),
        ),
        Workload::new(
            "ecology-120",
            "ecology2",
            grid2d(120, 120, WeightModel::Unit, 33),
        ),
        Workload::new("fem2d-110", "tmt_sym", fem_mesh2d(110, 110, 34)),
        Workload::new("mesh3d-22", "mesh 1M", fem_mesh3d(22, 22, 22, 35)),
        Workload::new("mesh3d-28", "mesh 4M", fem_mesh3d(28, 28, 28, 36)),
        Workload::new("mesh3d-34", "mesh 9M", fem_mesh3d(34, 34, 34, 37)),
    ]
}

/// Table 4 cases (complex-network sparsification).
pub fn table4_cases() -> Vec<Workload> {
    let knn_points = gaussian_mixture_points(12_000, 8, 12, 0.25, 45);
    vec![
        Workload::new("fem3d-26", "fe_tooth", fem_mesh3d(26, 26, 26, 41)),
        Workload::new("random-4k", "appu", dense_random(4_000, 120_000, 42)),
        Workload::new("ba-30k", "coAuthorsDBLP", barabasi_albert(30_000, 3, 43)),
        Workload::new("fem3d-30", "auto", fem_mesh3d(30, 30, 30, 44)),
        Workload::new("knn-12k", "RCV-80NN", knn_graph(&knn_points, 20)),
    ]
}

/// Small-tier Table 4 cases for Criterion.
pub fn table4_cases_small() -> Vec<Workload> {
    let knn_points = gaussian_mixture_points(1_500, 6, 8, 0.25, 45);
    vec![
        Workload::new("fem3d-10", "fe_tooth (small)", fem_mesh3d(10, 10, 10, 41)),
        Workload::new("random-800", "appu (small)", dense_random(800, 8_000, 42)),
        Workload::new(
            "ba-3k",
            "coAuthorsDBLP (small)",
            barabasi_albert(3_000, 3, 43),
        ),
        Workload::new("knn-1.5k", "RCV-80NN (small)", knn_graph(&knn_points, 10)),
    ]
}

/// Sharded-substructuring cases: `(workload, domain count)` pairs for
/// the `shard` bench/bin (per-domain factorization scaling and
/// out-of-core residency; see `sass_solver::substructure`).
///
/// The headline `mesh2d-260x240` row is deliberately **larger than
/// last-level cache**: its monolithic grounded factor holds several
/// million nonzeros (tens of MiB of factor storage, printed by the bin),
/// so per-domain factorization genuinely changes the working-set size
/// rather than just re-timing an L2-resident kernel. Domain counts keep
/// the vertex separator small relative to `n` (2-D meshes and circuit
/// grids cut at `O(√n)`; the 3-D mesh gets fewer domains because its
/// `O(n^⅔)` separators feed a dense Schur complement).
pub fn shard_cases() -> Vec<(Workload, usize)> {
    vec![
        (
            Workload::new(
                "mesh2d-260x240",
                "mesh 1M (scaled)",
                grid2d(260, 240, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 71),
            ),
            8,
        ),
        (
            Workload::new("mesh3d-20", "fe_tooth", fem_mesh3d(20, 20, 20, 72)),
            4,
        ),
        (
            Workload::new("circuit-160", "G3_circuit", circuit_grid(160, 160, 0.1, 73)),
            8,
        ),
    ]
}

/// Small-tier sharded cases for Criterion and the CI smoke step.
pub fn shard_cases_small() -> Vec<(Workload, usize)> {
    vec![
        (
            Workload::new(
                "mesh2d-48",
                "mesh 1M (small)",
                grid2d(48, 48, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 71),
            ),
            4,
        ),
        (
            Workload::new("mesh3d-10", "fe_tooth (small)", fem_mesh3d(10, 10, 10, 72)),
            4,
        ),
        (
            Workload::new(
                "circuit-40",
                "G3_circuit (small)",
                circuit_grid(40, 40, 0.1, 73),
            ),
            4,
        ),
    ]
}

/// Fig. 1 case: the airfoil mesh with coordinates.
pub fn fig1_case() -> (Graph, Vec<[f64; 2]>) {
    airfoil_mesh(40, 100, 51)
}

/// Fig. 2 cases (spectral edge ranking): circuit and thermal style.
pub fn fig2_cases() -> Vec<Workload> {
    vec![
        Workload::new("circuit-60", "G2_circuit", circuit_grid(60, 60, 0.12, 61)),
        Workload::new(
            "thermal-60",
            "Thermal1",
            grid2d(60, 60, WeightModel::LogUniform { lo: 0.2, hi: 5.0 }, 62),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_graph::traverse::is_connected;

    #[test]
    fn small_catalogs_are_connected() {
        for w in table1_cases()
            .into_iter()
            .chain(table2_cases_small())
            .chain(fig2_cases())
        {
            assert!(is_connected(&w.graph), "{} is disconnected", w.name);
            assert!(w.graph.n() > 0 && w.graph.m() > 0);
        }
    }

    #[test]
    fn shard_cases_are_connected_with_sane_domain_counts() {
        for (w, k) in shard_cases_small() {
            assert!(is_connected(&w.graph), "{} is disconnected", w.name);
            assert!((2..=16).contains(&k), "{}: domain count {k}", w.name);
            assert!(k < w.graph.n());
        }
        for (w, k) in shard_cases() {
            assert!((2..=16).contains(&k), "{}: domain count {k}", w.name);
        }
    }

    #[test]
    fn fig1_case_has_coordinates() {
        let (g, coords) = fig1_case();
        assert_eq!(g.n(), coords.len());
        assert!(is_connected(&g));
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = table1_cases();
        let b = table1_cases();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph.m(), y.graph.m());
        }
    }
}
