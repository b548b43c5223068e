use super::count_components;
use crate::{Graph, GraphError, Result, UnionFind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Tuning parameters for the AKPW-style low-stretch spanning tree.
#[derive(Debug, Clone, PartialEq)]
pub struct AkpwParams {
    /// Growth factor between consecutive edge-length classes (ρ).
    pub class_growth: f64,
    /// Hop radius of the clustering balls grown in each round.
    pub ball_radius: usize,
    /// Seed for the random cluster processing order.
    pub seed: u64,
}

impl Default for AkpwParams {
    fn default() -> Self {
        AkpwParams {
            class_growth: 4.0,
            ball_radius: 2,
            seed: 0x5a55,
        }
    }
}

/// AKPW-style low-stretch spanning tree.
///
/// This is the practical variant of the Alon–Karp–Peleg–West construction
/// used by low-stretch tree implementations: edges are bucketed into
/// geometric *length* classes (`length = 1/weight`), and rounds of
/// bounded-radius BFS clustering are run on the cluster multigraph, each
/// round admitting one more class. Edges crossed while growing a ball enter
/// the tree; balls are then contracted and the next round begins. Short
/// (heavy) edges are therefore captured early inside small clusters, which
/// is what keeps the stretch of the remaining edges low.
///
/// Deterministic for fixed [`AkpwParams`].
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] if the graph is not connected.
///
/// # Example
///
/// ```
/// use sass_graph::{Graph, spanning::{akpw_spanning_tree, AkpwParams}};
///
/// # fn main() -> Result<(), sass_graph::GraphError> {
/// let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 4.0), (2, 3, 1.0), (3, 0, 2.0)])?;
/// let tree = akpw_spanning_tree(&g, &AkpwParams::default())?;
/// assert_eq!(tree.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn akpw_spanning_tree(g: &Graph, params: &AkpwParams) -> Result<Vec<u32>> {
    let n = g.n();
    if n == 0 {
        return Ok(Vec::new());
    }
    if g.m() + 1 < n || !crate::traverse::is_connected(g) {
        return Err(GraphError::Disconnected {
            components: count_components(g),
        });
    }
    let rho = params.class_growth.max(1.5);
    let radius = params.ball_radius.max(1);
    let mut rng = StdRng::seed_from_u64(params.seed);

    let lengths: Vec<f64> = g.edges().iter().map(|e| 1.0 / e.weight).collect();
    let len_min = lengths.iter().copied().fold(f64::INFINITY, f64::min);
    let mut limit = len_min * rho;

    let mut uf = UnionFind::new(n);
    let mut tree: Vec<u32> = Vec::with_capacity(n - 1);
    // Edges still crossing clusters, pruned between rounds.
    let mut live: Vec<u32> = (0..g.m() as u32).collect();
    // Compact cluster ids by union-find root: `cluster_id[r]` is valid
    // when `stamp[r]` holds the current round, so no per-round clearing.
    let mut cluster_id = vec![0u32; n];
    let mut stamp = vec![0u32; n];
    let mut round = 0u32;

    while uf.components() > 1 {
        // Prune intra-cluster edges and split off the active (short) ones.
        live.retain(|&id| {
            let e = g.edge(id as usize);
            uf.find(e.u as usize) != uf.find(e.v as usize)
        });
        let active: Vec<u32> = live
            .iter()
            .copied()
            .filter(|&id| lengths[id as usize] <= limit)
            .collect();
        if active.is_empty() {
            limit *= rho;
            continue;
        }

        // Compact ids for the clusters touched by active edges, numbered
        // in first-touch order.
        round += 1;
        let mut cluster_of = |uf: &mut UnionFind, v: usize, next: &mut usize| -> usize {
            let r = uf.find(v);
            if stamp[r] != round {
                stamp[r] = round;
                cluster_id[r] = *next as u32;
                *next += 1;
            }
            cluster_id[r] as usize
        };
        let mut k = 0usize;
        let mut endpoints: Vec<(usize, usize)> = Vec::with_capacity(active.len());
        for &id in &active {
            let e = g.edge(id as usize);
            let cu = cluster_of(&mut uf, e.u as usize, &mut k);
            let cv = cluster_of(&mut uf, e.v as usize, &mut k);
            endpoints.push((cu, cv));
        }
        // Cluster-graph adjacency.
        let mut deg = vec![0usize; k + 1];
        for &(cu, cv) in &endpoints {
            deg[cu + 1] += 1;
            deg[cv + 1] += 1;
        }
        for i in 0..k {
            deg[i + 1] += deg[i];
        }
        let xadj = deg.clone();
        let mut adj = vec![(0u32, 0u32); 2 * active.len()];
        let mut next_slot = deg;
        for (&(cu, cv), &id) in endpoints.iter().zip(&active) {
            adj[next_slot[cu]] = (cv as u32, id);
            next_slot[cu] += 1;
            adj[next_slot[cv]] = (cu as u32, id);
            next_slot[cv] += 1;
        }

        // Grow bounded-radius balls over clusters in random order.
        let mut order: Vec<u32> = (0..k as u32).collect();
        order.shuffle(&mut rng);
        let mut visited = vec![false; k];
        let mut depth = vec![0u32; k];
        let mut queue: Vec<u32> = Vec::new();
        let mut merges: Vec<u32> = Vec::new(); // tree edges chosen this round
        for &c0 in &order {
            if visited[c0 as usize] {
                continue;
            }
            visited[c0 as usize] = true;
            depth[c0 as usize] = 0;
            queue.clear();
            queue.push(c0);
            let mut head = 0;
            while head < queue.len() {
                let c = queue[head] as usize;
                head += 1;
                if depth[c] as usize >= radius {
                    continue;
                }
                for &(nc, id) in &adj[xadj[c]..xadj[c + 1]] {
                    let nc = nc as usize;
                    if !visited[nc] {
                        visited[nc] = true;
                        depth[nc] = depth[c] + 1;
                        merges.push(id);
                        queue.push(nc as u32);
                    }
                }
            }
        }
        for &id in &merges {
            let e = g.edge(id as usize);
            if uf.union(e.u as usize, e.v as usize) {
                tree.push(id);
            }
        }
        limit *= rho;
    }
    tree.sort_unstable();
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spanning, stretch, RootedTree};

    fn unit_grid(nx: usize, ny: usize) -> Graph {
        let mut edges = Vec::new();
        let id = |x: usize, y: usize| y * nx + x;
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    edges.push((id(x, y), id(x + 1, y), 1.0));
                }
                if y + 1 < ny {
                    edges.push((id(x, y), id(x, y + 1), 1.0));
                }
            }
        }
        Graph::from_edges(nx * ny, &edges).unwrap()
    }

    #[test]
    fn produces_valid_spanning_tree_on_grid() {
        let g = unit_grid(12, 12);
        let ids = akpw_spanning_tree(&g, &AkpwParams::default()).unwrap();
        assert_eq!(ids.len(), g.n() - 1);
        RootedTree::new(&g, ids, 0).unwrap();
    }

    /// FNV-1a over the little-endian `u64` bytes of each id.
    fn fnv1a(ids: &[u32]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &id in ids {
            for b in u64::from(id).to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The trees on two fixed circuit grids, pinned to their ids before
    /// the cluster numbering moved from a hash map to a stamped vector:
    /// both number clusters in first-touch order, so the tree is the same.
    #[test]
    fn tree_ids_are_pinned_on_circuit_grids() {
        for (side, seed, hash) in [
            (24, 3, 0x3e8b_222f_ddbe_6870),
            (60, 9, 0x7434_36fd_734e_0435),
        ] {
            let g = crate::generators::circuit_grid(side, side, 0.1, seed);
            let ids = akpw_spanning_tree(&g, &AkpwParams::default()).unwrap();
            assert_eq!(ids.len(), g.n() - 1);
            assert_eq!(fnv1a(&ids), hash, "circuit {side}x{side}: tree ids moved");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let g = unit_grid(8, 8);
        let p = AkpwParams::default();
        assert_eq!(
            akpw_spanning_tree(&g, &p).unwrap(),
            akpw_spanning_tree(&g, &p).unwrap()
        );
    }

    #[test]
    fn captures_heavy_edges_early() {
        // A heavy "backbone" path plus light cross edges: AKPW should take
        // (almost) the whole backbone since heavy = short.
        let n = 20;
        let mut edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 100.0)).collect();
        for i in 0..n - 2 {
            edges.push((i, i + 2, 0.01));
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let ids = akpw_spanning_tree(&g, &AkpwParams::default()).unwrap();
        let heavy_kept = ids
            .iter()
            .filter(|&&id| g.edge(id as usize).weight == 100.0)
            .count();
        assert_eq!(
            heavy_kept,
            n - 1,
            "all heavy path edges should be tree edges"
        );
    }

    #[test]
    fn stretch_is_competitive_on_uniform_grid() {
        // On a unit grid the max-weight Kruskal tree is an arbitrary tie-break
        // tree; AKPW's clustered tree should achieve average stretch in the
        // same ballpark or better (allow generous slack — both are heuristics).
        let g = unit_grid(16, 16);
        let akpw = akpw_spanning_tree(&g, &AkpwParams::default()).unwrap();
        let rooted = RootedTree::new(&g, akpw, 0).unwrap();
        let stats = stretch::stretch_stats(&g, &rooted).unwrap();
        let bfs = spanning::bfs_spanning_tree(&g, 0).unwrap();
        let bfs_rooted = RootedTree::new(&g, bfs, 0).unwrap();
        let bfs_stats = stretch::stretch_stats(&g, &bfs_rooted).unwrap();
        assert!(
            stats.mean <= 3.0 * bfs_stats.mean,
            "akpw mean stretch {} vs bfs {}",
            stats.mean,
            bfs_stats.mean
        );
    }
}
