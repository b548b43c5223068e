/// A k-d tree over points in `R^dim` for exact k-nearest-neighbor queries.
///
/// Used by [`knn_graph`](super::knn_graph) to build the k-NN similarity
/// graphs that stand in for the paper's `RCV-80NN` test case. Construction
/// is `O(n log n)` by median splitting; queries prune subtrees by splitting
/// planes.
///
/// # Example
///
/// ```
/// use sass_graph::generators::KdTree;
///
/// let pts = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![5.0, 5.0]];
/// let tree = KdTree::build(&pts);
/// let nn = tree.k_nearest(&[0.9, 0.1], 1);
/// assert_eq!(nn[0].0, 1); // the point at (1, 0)
/// ```
#[derive(Debug, Clone)]
pub struct KdTree<'a> {
    points: &'a [Vec<f64>],
    dim: usize,
    /// Point indices arranged so each subtree occupies a contiguous range.
    order: Vec<u32>,
    /// Per subtree-root position: splitting axis.
    axis: Vec<u8>,
}

impl<'a> KdTree<'a> {
    /// Builds a tree over `points` (all must share a dimension).
    ///
    /// Points with a non-finite coordinate (NaN or ±∞) are *excluded from
    /// the index*: they have no well-defined distance or splitting side, so
    /// indexing them would silently corrupt subtree pruning — queries never
    /// return them.
    ///
    /// # Panics
    ///
    /// Panics if points have inconsistent dimensions.
    pub fn build(points: &'a [Vec<f64>]) -> Self {
        let dim = points.first().map_or(0, Vec::len);
        assert!(
            points.iter().all(|p| p.len() == dim),
            "all points must share a dimension"
        );
        let mut order: Vec<u32> = (0..points.len() as u32)
            .filter(|&i| points[i as usize].iter().all(|c| c.is_finite()))
            .collect();
        let m = order.len();
        let mut axis = vec![0u8; m];
        if m > 0 && dim > 0 {
            build_recursive(points, dim, &mut order, &mut axis, 0, m, 0);
        }
        KdTree {
            points,
            dim,
            order,
            axis,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The `k` nearest neighbors of `query` as `(point index, distance)`
    /// pairs sorted by ascending distance. A point at the query location is
    /// included (filter by index to exclude self-matches); points with
    /// non-finite coordinates are never returned (see [`KdTree::build`]).
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the tree's dimension (for a
    /// non-empty tree).
    pub fn k_nearest(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        // Simple bounded max-heap as a sorted Vec (k is small in practice).
        let mut best: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
        self.search(0, self.order.len(), query, k, &mut best);
        best
    }

    fn search(&self, lo: usize, hi: usize, query: &[f64], k: usize, best: &mut Vec<(usize, f64)>) {
        if lo >= hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let idx = self.order[mid] as usize;
        let d = dist(&self.points[idx], query);
        if best.len() < k || d < best.last().expect("non-empty").1 {
            let pos = best.partition_point(|&(_, bd)| bd <= d);
            best.insert(pos, (idx, d));
            if best.len() > k {
                best.pop();
            }
        }
        let ax = self.axis[mid] as usize;
        let delta = query[ax] - self.points[idx][ax];
        let (near_lo, near_hi, far_lo, far_hi) = if delta < 0.0 {
            (lo, mid, mid + 1, hi)
        } else {
            (mid + 1, hi, lo, mid)
        };
        self.search(near_lo, near_hi, query, k, best);
        // Visit the far side only if the splitting plane is closer than the
        // current k-th best distance.
        if best.len() < k || delta.abs() < best.last().expect("non-empty").1 {
            self.search(far_lo, far_hi, query, k, best);
        }
    }
}

fn build_recursive(
    points: &[Vec<f64>],
    dim: usize,
    order: &mut [u32],
    axis: &mut [u8],
    lo: usize,
    hi: usize,
    depth: usize,
) {
    if hi - lo <= 1 {
        if hi > lo {
            axis[lo + (hi - lo) / 2] = (depth % dim) as u8;
        }
        return;
    }
    let ax = depth % dim;
    let mid = lo + (hi - lo) / 2;
    // `total_cmp` keeps the median split well-defined (and panic-free) for
    // coincident points and signed zeros; non-finite coordinates never
    // reach this comparator — `build` excludes those points up front.
    order[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
        points[a as usize][ax].total_cmp(&points[b as usize][ax])
    });
    axis[mid] = ax as u8;
    build_recursive(points, dim, order, axis, lo, mid, depth + 1);
    build_recursive(points, dim, order, axis, mid + 1, hi, depth + 1);
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_knn(points: &[Vec<f64>], q: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut all: Vec<(usize, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (i, dist(p, q)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1));
        all.truncate(k);
        all
    }

    #[test]
    fn matches_brute_force_in_3d() {
        let mut rng = StdRng::seed_from_u64(5);
        let points: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let tree = KdTree::build(&points);
        for _ in 0..30 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let got = tree.k_nearest(&q, 7);
            let want = brute_knn(&points, &q, 7);
            // Distances must agree exactly (ties may permute indices).
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matches_brute_force_high_dim() {
        let mut rng = StdRng::seed_from_u64(6);
        let points: Vec<Vec<f64>> = (0..200)
            .map(|_| (0..8).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let tree = KdTree::build(&points);
        let q: Vec<f64> = (0..8).map(|_| rng.gen_range(0.0..1.0)).collect();
        let got = tree.k_nearest(&q, 5);
        let want = brute_knn(&points, &q, 5);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.1 - w.1).abs() < 1e-12);
        }
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let points = vec![vec![0.0], vec![1.0], vec![2.0]];
        let tree = KdTree::build(&points);
        let got = tree.k_nearest(&[0.4], 10);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, 0);
    }

    #[test]
    fn empty_tree_is_fine() {
        let points: Vec<Vec<f64>> = Vec::new();
        let tree = KdTree::build(&points);
        assert!(tree.is_empty());
        assert!(tree.k_nearest(&[], 3).is_empty());
    }

    /// Regression: coincident points used to be fine only by luck, and a
    /// NaN coordinate panicked the `partial_cmp().expect()` median split.
    /// Construction must survive both, and queries must stay *correct* —
    /// an indexed NaN point would silently corrupt subtree pruning, so
    /// non-finite points are excluded from the index entirely.
    #[test]
    fn degenerate_points_do_not_panic_or_corrupt_queries() {
        // Many coincident points (zero spread on every axis).
        let coincident = vec![vec![1.0, 2.0]; 50];
        let tree = KdTree::build(&coincident);
        let got = tree.k_nearest(&[1.0, 2.0], 5);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|&(_, d)| d == 0.0));

        // A NaN point placed so that, if indexed, it would become the split
        // node whose pruning hides the true nearest neighbor (3.0 from a
        // query at 3.05). It must be ignored instead.
        let points = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![f64::NAN]];
        let tree = KdTree::build(&points);
        assert_eq!(tree.len(), 5);
        assert_eq!(tree.order.len(), 4);
        let got = tree.k_nearest(&[3.05], 1);
        assert_eq!(got[0].0, 3);
        assert!((got[0].1 - 0.05).abs() < 1e-12);
        // Every finite point is reachable; the NaN point never is.
        let all = tree.k_nearest(&[0.0], 10);
        let ids: Vec<usize> = all.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);

        // An all-non-finite point set yields an empty (but valid) index.
        let bad = vec![vec![f64::INFINITY], vec![f64::NAN]];
        let tree = KdTree::build(&bad);
        assert!(tree.order.is_empty());
        assert!(tree.k_nearest(&[0.0], 3).is_empty());
    }
}
