//! K-way partitioning by recursive spectral bisection.
//!
//! The paper's partitioner is two-way; the standard extension — and a
//! natural consumer of cheap sparsifier-backed bisection — is recursion:
//! split the graph, then recurse on each side's induced subgraph until `k`
//! parts exist, always splitting the currently-largest part.

use crate::{partition, PartitionError, PartitionOptions, Result};
use sass_graph::Graph;

/// A k-way partition of a graph.
#[derive(Debug, Clone)]
pub struct KwayPartition {
    /// Part id (`0..k`) per vertex.
    pub assignment: Vec<usize>,
    /// Number of parts actually produced.
    pub parts: usize,
    /// Total weight of edges crossing between different parts.
    pub cut_weight: f64,
}

/// Splits a connected graph into `k` parts by recursive spectral bisection.
///
/// Each bisection uses [`partition`] with the given options — prefer
/// [`CutRule::Sweep`](crate::CutRule::Sweep) here: under recursion, near-degenerate eigenspaces
/// (symmetric clusters) rotate the Fiedler vector and the plain sign cut
/// can bisect through a cluster. Induced subgraphs that come out
/// disconnected are split along their components first (cheaper and
/// strictly better than a spectral cut there).
///
/// # Errors
///
/// Returns [`PartitionError::TooSmall`] if `k` exceeds the vertex count or
/// `k == 0`, and propagates bisection failures.
///
/// # Example
///
/// ```
/// use sass_graph::generators::{grid2d, WeightModel};
/// use sass_partition::kway::kway_partition;
/// use sass_partition::{Backend, CutRule, PartitionOptions};
///
/// # fn main() -> Result<(), sass_partition::PartitionError> {
/// let g = grid2d(12, 12, WeightModel::Unit, 0);
/// let opts = PartitionOptions {
///     backend: Backend::Direct { ordering: Default::default() },
///     cut: CutRule::Sweep { min_balance: 0.2 },
///     ..Default::default()
/// };
/// let kp = kway_partition(&g, 4, &opts)?;
/// assert_eq!(kp.parts, 4);
/// assert!(kp.assignment.iter().all(|&p| p < kp.parts));
/// # Ok(())
/// # }
/// ```
pub fn kway_partition(g: &Graph, k: usize, opts: &PartitionOptions) -> Result<KwayPartition> {
    if k == 0 || k > g.n() {
        return Err(PartitionError::TooSmall { n: g.n() });
    }
    let mut assignment = vec![0usize; g.n()];
    // Work list: (part id, vertices). Always split the largest part.
    let mut parts: Vec<Vec<usize>> = vec![(0..g.n()).collect()];
    while parts.len() < k {
        // Pick the largest part.
        let (idx, _) = parts
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.len())
            .expect("non-empty part list");
        let vertices = parts.swap_remove(idx);
        if vertices.len() < 2 {
            // Cannot split further; put it back and stop.
            parts.push(vertices);
            break;
        }
        let (sub, back) = g.induced_subgraph(&vertices);
        let (labels, ncomp) = sass_graph::traverse::connected_components(&sub);
        if ncomp > 1 {
            // Free split along components: largest component vs the rest.
            let mut sides: (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
            let mut comp_sizes = vec![0usize; ncomp];
            for &c in &labels {
                comp_sizes[c] += 1;
            }
            let biggest = comp_sizes
                .iter()
                .enumerate()
                .max_by_key(|(_, &s)| s)
                .unwrap()
                .0;
            for (v, &c) in labels.iter().enumerate() {
                if c == biggest {
                    sides.0.push(back[v]);
                } else {
                    sides.1.push(back[v]);
                }
            }
            parts.push(sides.0);
            parts.push(sides.1);
            continue;
        }
        let bi = partition(&sub, opts)?;
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for (v, &s) in bi.signs.iter().enumerate() {
            if s > 0 {
                pos.push(back[v]);
            } else {
                neg.push(back[v]);
            }
        }
        if pos.is_empty() || neg.is_empty() {
            // Degenerate cut; fall back to an arbitrary halving to make
            // progress (keeps k-way termination guaranteed).
            let mid = vertices.len() / 2;
            parts.push(vertices[..mid].to_vec());
            parts.push(vertices[mid..].to_vec());
        } else {
            parts.push(pos);
            parts.push(neg);
        }
    }
    let nparts = parts.len();
    for (pid, vs) in parts.iter().enumerate() {
        for &v in vs {
            assignment[v] = pid;
        }
    }
    let cut_weight = g
        .edges()
        .iter()
        .filter(|e| assignment[e.u as usize] != assignment[e.v as usize])
        .map(|e| e.weight)
        .sum();
    Ok(KwayPartition {
        assignment,
        parts: nparts,
        cut_weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, CutRule};
    use sass_graph::generators::{grid2d, stochastic_block_model, WeightModel};
    use sass_sparse::ordering::OrderingKind;

    /// Largest part size over the ideal `n/k`.
    fn imbalance(kp: &KwayPartition) -> f64 {
        let mut sizes = vec![0usize; kp.parts];
        for &p in &kp.assignment {
            sizes[p] += 1;
        }
        let max = *sizes.iter().max().unwrap_or(&0) as f64;
        let ideal = kp.assignment.len() as f64 / kp.parts.max(1) as f64;
        max / ideal.max(1.0)
    }

    fn direct_opts() -> PartitionOptions {
        PartitionOptions {
            backend: Backend::Direct {
                ordering: OrderingKind::MinDegree,
            },
            // Sweep cuts are the robust choice under recursive bisection
            // (degenerate eigenspaces rotate the Fiedler vector).
            cut: CutRule::Sweep { min_balance: 0.2 },
            ..Default::default()
        }
    }

    #[test]
    fn four_way_grid_is_balanced() {
        let g = grid2d(16, 16, WeightModel::Unit, 0);
        let kp = kway_partition(&g, 4, &direct_opts()).unwrap();
        assert_eq!(kp.parts, 4);
        assert!(imbalance(&kp) < 1.6, "imbalance {}", imbalance(&kp));
        // A 16x16 grid split in 4 should cut roughly 2 lines ~ 2*16 edges.
        assert!(kp.cut_weight <= 80.0, "cut {}", kp.cut_weight);
    }

    #[test]
    fn four_way_cut_close_to_planted_cut() {
        // With 4 symmetric planted blocks λ2 is (nearly) degenerate, so
        // individual Fiedler cuts may rotate within the eigenspace — exact
        // block recovery is not guaranteed. The meaningful guarantee is
        // that the 4-way *cut weight* lands near the planted inter-block
        // cut (all p_out edges).
        let g = stochastic_block_model(&[25, 25, 25, 25], 0.4, 0.01, 3);
        let planted_cut: f64 = g
            .edges()
            .iter()
            .filter(|e| (e.u as usize) / 25 != (e.v as usize) / 25)
            .map(|e| e.weight)
            .sum();
        let kp = kway_partition(&g, 4, &direct_opts()).unwrap();
        assert_eq!(kp.parts, 4);
        assert!(
            kp.cut_weight <= 3.0 * planted_cut.max(1.0),
            "cut {} vs planted {planted_cut}",
            kp.cut_weight
        );
        assert!(imbalance(&kp) < 2.0, "imbalance {}", imbalance(&kp));
    }

    #[test]
    fn k_equals_one_is_identity() {
        let g = grid2d(5, 5, WeightModel::Unit, 0);
        let kp = kway_partition(&g, 1, &direct_opts()).unwrap();
        assert_eq!(kp.parts, 1);
        assert_eq!(kp.cut_weight, 0.0);
        assert!(kp.assignment.iter().all(|&p| p == 0));
    }

    #[test]
    fn rejects_bad_k() {
        let g = grid2d(3, 3, WeightModel::Unit, 0);
        assert!(kway_partition(&g, 0, &direct_opts()).is_err());
        assert!(kway_partition(&g, 10, &direct_opts()).is_err());
    }

    #[test]
    fn sparsified_backend_works_for_kway() {
        let g = grid2d(20, 20, WeightModel::Unit, 2);
        let kp = kway_partition(&g, 4, &PartitionOptions::default()).unwrap();
        assert_eq!(kp.parts, 4);
        assert!(imbalance(&kp) < 1.8);
    }
}
