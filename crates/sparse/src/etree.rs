//! Subtree-to-lane partition of the elimination tree for the LDLᵀ
//! factorization.
//!
//! The elimination tree of a symmetric factorization orders every data
//! dependency of the sparse kernels: column `k` of the factor depends only
//! on its *descendants* in the tree (row `k` of `L` is nonzero only at
//! descendant columns), the forward triangular solve propagates values
//! from descendants to ancestors, and the backward solve from ancestors to
//! descendants. Columns in disjoint subtrees therefore never read each
//! other's outputs.
//!
//! [`SubtreePartition`] exploits that in the style of Geist and Ng: whole
//! subtrees go to pool lanes, and the ancestor-closed rest — the *trunk* —
//! stays with the calling thread. Every phase then makes one dispatch:
//!
//! - the numeric factorization and the forward sweep run every lane's
//!   columns in ascending order (a lane column's descendants all live in
//!   its lane), then the trunk ascending (its descendants are trunk
//!   columns already run, or lane columns finished at the dispatch join);
//! - the backward sweep runs the trunk descending (a trunk column's
//!   ancestors are all in the trunk), then every lane descending (a lane
//!   column's ancestors are in its lane or the trunk).
//!
//! Each column thus runs the flat serial sweep's operation sequence on
//! the same finalized inputs, whichever lane runs it. The partition is
//! computed once during symbolic analysis.

use std::collections::BinaryHeap;

use crate::pool::Span;

/// Owner tag of trunk columns in [`SubtreePartition::owners`].
pub(crate) const TRUNK: u32 = u32::MAX;

/// Columns of a factorization split into per-lane etree subtrees plus a
/// serial trunk. Construct one with [`SubtreePartition::from_parents`].
///
/// # Example
///
/// ```
/// use sass_sparse::etree::SubtreePartition;
///
/// // A star: leaves 0..4 hang off the hub 4. Two lanes split the leaves;
/// // the hub, which depends on all of them, is the trunk.
/// let p = SubtreePartition::from_parents(&[4, 4, 4, 4, -1], &[1; 5], 2);
/// assert_eq!(p.lanes(), 2);
/// assert_eq!(p.trunk(), &[4]);
/// assert_eq!(p.lane(0).len() + p.lane(1).len(), 4);
/// // Critical path: the hub plus one lane's two leaves, of five columns.
/// assert_eq!(p.shape().critical_work(), 3);
///
/// // A path 0 → 1 → 2 has no independent subtrees: all trunk.
/// let p = SubtreePartition::from_parents(&[1, 2, -1], &[1; 3], 2);
/// assert_eq!(p.lanes(), 0);
/// assert_eq!(p.trunk(), &[0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtreePartition {
    /// Lane columns, lane after lane (each ascending), then the trunk
    /// (ascending).
    order: Vec<u32>,
    /// `order[spans[l].0..spans[l].1]` is lane `l`; every lane is nonempty
    /// and the spans tile a prefix of `order` — the dispatch's spans.
    spans: Vec<Span>,
    /// Summed column weight of each lane.
    lane_work: Vec<usize>,
    /// Summed column weight of the trunk.
    trunk_work: usize,
}

/// The shape of a [`SubtreePartition`], in the weights it was built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionShape {
    /// Nonempty lanes (0 when everything is trunk).
    pub lanes: usize,
    /// Columns in the trunk.
    pub trunk_cols: usize,
    /// Work in the trunk.
    pub trunk_work: usize,
    /// Work of the heaviest lane.
    pub max_lane_work: usize,
    /// Work of all columns.
    pub total_work: usize,
}

impl PartitionShape {
    /// Trunk plus heaviest lane — the work on a partitioned phase's
    /// critical path when every lane gets its own thread.
    pub fn critical_work(&self) -> usize {
        self.trunk_work + self.max_lane_work
    }

    /// [`PartitionShape::critical_work`] as a share of the total (1.0 for
    /// an all-trunk or empty partition): the fraction of the serial time a
    /// partitioned phase still takes with ideal lanes.
    pub fn critical_fraction(&self) -> f64 {
        if self.total_work == 0 {
            return 1.0;
        }
        self.critical_work() as f64 / self.total_work as f64
    }
}

impl SubtreePartition {
    /// Partitions an elimination tree (`parent[k] < 0` marks a root;
    /// forests are fine) for `lanes` lanes, `weight[k]` being column `k`'s
    /// work.
    ///
    /// One heap pass: starting from the roots, the heaviest subtree is
    /// split — its root joins the trunk, its children's subtrees become
    /// candidates — until it fits one lane's share of the work left
    /// outside the trunk. The candidates are then packed onto the lanes
    /// heaviest first, each onto the lightest lane so far (LPT). Empty
    /// lanes are dropped; `lanes < 2` puts every column in the trunk.
    ///
    /// Requires the standard etree property `parent[k] > k` for non-roots,
    /// which every etree produced by symbolic analysis satisfies.
    ///
    /// # Panics
    ///
    /// Panics if `weight.len() != parent.len()`, a weight is zero, or a
    /// non-root parent is not greater than its child.
    pub fn from_parents(parent: &[i64], weight: &[usize], lanes: usize) -> Self {
        /// No child / no sibling / owner not yet known.
        const NIL: u32 = TRUNK - 1;
        let n = parent.len();
        assert_eq!(weight.len(), n, "one weight per etree column");
        assert!(
            weight.iter().all(|&w| w > 0),
            "column weights must be positive"
        );
        assert!(n < NIL as usize, "column indices must fit in u32");
        // Subtree weights and child lists in one ascending pass: all
        // children of k precede it, so sub[k] is final when k is reached.
        let mut sub = weight.to_vec();
        let mut first_child = vec![NIL; n];
        let mut next_sibling = vec![NIL; n];
        let mut heap = BinaryHeap::new();
        for k in 0..n {
            let p = parent[k];
            if p < 0 {
                heap.push((sub[k], std::cmp::Reverse(k as u32)));
                continue;
            }
            let p = p as usize;
            assert!(p > k, "etree parent {p} not greater than child {k}");
            sub[p] += sub[k];
            next_sibling[k] = first_child[p];
            first_child[p] = k as u32;
        }
        let total: usize = weight.iter().sum();
        if lanes < 2 {
            return SubtreePartition {
                order: (0..n as u32).collect(),
                spans: Vec::new(),
                lane_work: Vec::new(),
                trunk_work: total,
            };
        }

        // Split: the heaviest candidate that exceeds a lane's share of the
        // work outside the trunk gives its root to the trunk. Splitting
        // keeps the trunk ancestor-closed: a column joins it only after
        // its parent did.
        let mut owner = vec![NIL; n];
        let mut rest = total;
        while let Some(&(w, std::cmp::Reverse(v))) = heap.peek() {
            if w.saturating_mul(lanes) <= rest {
                break;
            }
            heap.pop();
            let v = v as usize;
            owner[v] = TRUNK;
            rest -= weight[v];
            let mut c = first_child[v];
            while c != NIL {
                heap.push((sub[c as usize], std::cmp::Reverse(c)));
                c = next_sibling[c as usize];
            }
        }

        // LPT: the heap pops candidates heaviest first (ties by column),
        // each going to the lightest lane (ties by index). A lane is first
        // picked only once every lower lane holds a candidate, so with
        // fewer candidates than lanes the used lanes are a prefix.
        let mut lane_work = vec![0usize; lanes.min(heap.len())];
        while let Some((w, std::cmp::Reverse(v))) = heap.pop() {
            let l = (0..lane_work.len())
                .min_by_key(|&l| (lane_work[l], l))
                .unwrap_or(0);
            lane_work[l] += w;
            owner[v as usize] = l as u32;
        }
        // Descending pass: a column outside the trunk that is not a packed
        // subtree root inherits its parent's lane (parent > child, so it is
        // set already).
        for k in (0..n).rev() {
            if owner[k] == NIL {
                owner[k] = owner[parent[k] as usize];
            }
        }

        // Counting sort by owner, ascending columns within each owner.
        let n_lanes = lane_work.len();
        let mut start = vec![0usize; n_lanes + 2];
        for &o in &owner {
            let slot = if o == TRUNK { n_lanes } else { o as usize };
            start[slot + 1] += 1;
        }
        for s in 0..=n_lanes {
            start[s + 1] += start[s];
        }
        let spans = (0..n_lanes).map(|l| (start[l], start[l + 1])).collect();
        let mut order = vec![0u32; n];
        for (k, &o) in owner.iter().enumerate() {
            let slot = if o == TRUNK { n_lanes } else { o as usize };
            order[start[slot]] = k as u32;
            start[slot] += 1;
        }
        SubtreePartition {
            order,
            spans,
            lane_work,
            trunk_work: total - rest,
        }
    }

    /// Number of nonempty lanes (0 when everything is trunk).
    pub fn lanes(&self) -> usize {
        self.spans.len()
    }

    /// The columns of lane `l`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `l >= lanes()`.
    pub fn lane(&self, l: usize) -> &[u32] {
        let (lo, hi) = self.spans[l];
        &self.order[lo..hi]
    }

    /// The trunk's columns, ascending.
    pub fn trunk(&self) -> &[u32] {
        &self.order[self.trunk_start()..]
    }

    /// Where the trunk starts in [`SubtreePartition::order`]: the lanes
    /// fill `order[..trunk_start()]`.
    pub(crate) fn trunk_start(&self) -> usize {
        self.spans.last().map_or(0, |s| s.1)
    }

    /// Every lane's columns followed by the trunk's: the array the
    /// [`SubtreePartition::spans`] index.
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// Lane `l`'s range in [`SubtreePartition::order`], one span per lane
    /// — the spans a partitioned phase dispatches.
    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Lane index of every column, or [`TRUNK`] for trunk columns.
    #[cfg(any(test, feature = "race-check"))]
    pub(crate) fn owners(&self) -> Vec<u32> {
        let mut owner = vec![TRUNK; self.order.len()];
        for (l, &(lo, hi)) in self.spans.iter().enumerate() {
            for &k in &self.order[lo..hi] {
                owner[k as usize] = l as u32;
            }
        }
        owner
    }

    /// The partition's lane count, trunk size and work split.
    pub fn shape(&self) -> PartitionShape {
        let lane_total: usize = self.lane_work.iter().sum();
        PartitionShape {
            lanes: self.lanes(),
            trunk_cols: self.order.len() - self.trunk_start(),
            trunk_work: self.trunk_work,
            max_lane_work: self.lane_work.iter().copied().max().unwrap_or(0),
            total_work: self.trunk_work + lane_total,
        }
    }

    /// The shape under other column weights — the numeric phase's gate
    /// for a masked refactorization weighs unflagged columns zero. Lanes
    /// count only those with nonzero work.
    pub(crate) fn shape_with(&self, weight: impl Fn(usize) -> usize) -> PartitionShape {
        let work = |cols: &[u32]| -> usize { cols.iter().map(|&k| weight(k as usize)).sum() };
        let lane_work: Vec<usize> = (0..self.lanes()).map(|l| work(self.lane(l))).collect();
        let trunk_work = work(self.trunk());
        PartitionShape {
            lanes: lane_work.iter().filter(|&&w| w > 0).count(),
            trunk_cols: self.trunk().len(),
            trunk_work,
            max_lane_work: lane_work.iter().copied().max().unwrap_or(0),
            total_work: trunk_work + lane_work.iter().sum::<usize>(),
        }
    }

    /// Heap bytes held by the partition.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.order.len() * size_of::<u32>()
            + self.spans.len() * size_of::<Span>()
            + self.lane_work.len() * size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The partition invariants every phase's safety argument rests on:
    /// each column is in exactly one lane or the trunk, lanes ascend, the
    /// trunk is ancestor-closed, and a lane column's ancestors live in its
    /// own lane or the trunk.
    fn assert_valid(parent: &[i64], p: &SubtreePartition) {
        let n = parent.len();
        let mut seen = vec![0u32; n];
        for l in 0..p.lanes() {
            assert!(!p.lane(l).is_empty(), "lane {l} is empty");
            assert!(p.lane(l).windows(2).all(|w| w[0] < w[1]), "lane {l} order");
            for &k in p.lane(l) {
                seen[k as usize] += 1;
            }
        }
        assert!(p.trunk().windows(2).all(|w| w[0] < w[1]), "trunk order");
        for &k in p.trunk() {
            seen[k as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "coverage {seen:?}");
        let owner = p.owners();
        for k in 0..n {
            let mut a = parent[k];
            while a >= 0 {
                let oa = owner[a as usize];
                if owner[k] == TRUNK {
                    assert_eq!(oa, TRUNK, "trunk column {k} has lane ancestor {a}");
                } else {
                    assert!(
                        oa == owner[k] || oa == TRUNK,
                        "lane column {k} has ancestor {a} in another lane"
                    );
                }
                a = parent[a as usize];
            }
        }
        let shape = p.shape();
        assert_eq!(shape.lanes, p.lanes());
        assert_eq!(shape.trunk_cols, p.trunk().len());
        assert!(shape.critical_work() <= shape.total_work);
    }

    #[test]
    fn empty_forest_and_singleton() {
        let p = SubtreePartition::from_parents(&[], &[], 4);
        assert!(p.order().is_empty());
        assert_eq!(p.lanes(), 0);
        assert!(p.trunk().is_empty());
        assert_eq!(p.shape().critical_fraction(), 1.0);

        let p = SubtreePartition::from_parents(&[-1], &[3], 4);
        assert_eq!(p.lanes(), 0);
        assert_eq!(p.trunk(), &[0]);
        assert_eq!(p.shape().trunk_work, 3);
        assert_valid(&[-1], &p);
    }

    #[test]
    fn path_has_no_parallelism() {
        // 0 → 1 → 2 → 3: every subtree exceeds a lane's share, so the
        // whole path ends up in the trunk.
        let parent = [1, 2, 3, -1];
        let p = SubtreePartition::from_parents(&parent, &[1; 4], 2);
        assert_eq!(p.lanes(), 0);
        assert_eq!(p.trunk(), &[0, 1, 2, 3]);
        assert_eq!(p.shape().critical_fraction(), 1.0);
        assert_valid(&parent, &p);
    }

    #[test]
    fn star_splits_leaves_with_hub_in_trunk() {
        // Columns 0..6 all children of 6.
        let parent = [6, 6, 6, 6, 6, 6, -1];
        let p = SubtreePartition::from_parents(&parent, &[1; 7], 3);
        assert_eq!(p.lanes(), 3);
        assert_eq!(p.trunk(), &[6]);
        assert!((0..3).all(|l| p.lane(l).len() == 2));
        let shape = p.shape();
        assert_eq!((shape.trunk_work, shape.max_lane_work), (1, 2));
        assert_eq!(shape.total_work, 7);
        assert_valid(&parent, &p);
    }

    #[test]
    fn forest_roots_pack_into_lanes_in_ascending_order() {
        // Two trees: {0 → 2 → 4} and {1 → 3}; 5 isolated. Each fits a
        // lane's share, so nothing is split; LPT puts the heaviest tree
        // alone and pairs the other two.
        let parent = [2, 3, 4, -1, -1, -1];
        let p = SubtreePartition::from_parents(&parent, &[1; 6], 2);
        assert_eq!(p.lanes(), 2);
        assert_eq!(p.lane(0), &[0, 2, 4]);
        assert_eq!(p.lane(1), &[1, 3, 5]);
        assert!(p.trunk().is_empty());
        assert_eq!(p.order().len(), 6);
        assert!(p.memory_bytes() > 0);
        assert_valid(&parent, &p);
    }

    #[test]
    fn one_lane_keeps_everything_in_the_trunk() {
        let parent = [6, 6, 6, 6, 6, 6, -1];
        let p = SubtreePartition::from_parents(&parent, &[1; 7], 1);
        assert_eq!(p.lanes(), 0);
        assert_eq!(p.trunk().len(), 7);
    }

    /// Weights steer the split: a heavy hub subtree is split further
    /// while light siblings stay whole.
    #[test]
    fn heavy_subtree_is_split_light_ones_stay_whole() {
        // 8 is the root with children 3 and 7. Subtree 7 = {4, 5, 6, 7}
        // carries the weight; subtree 3 = {0, 1, 2, 3} is light.
        let parent = [3, 3, 3, 8, 7, 7, 7, 8, -1];
        let weight = [1, 1, 1, 1, 10, 10, 10, 1, 1];
        let p = SubtreePartition::from_parents(&parent, &weight, 2);
        assert_eq!(p.trunk(), &[7, 8]);
        assert_valid(&parent, &p);
        let owner = p.owners();
        assert!((0..4).all(|k| owner[k] == owner[0]), "light subtree split");
    }

    /// Random forests at several lane counts satisfy every invariant.
    #[test]
    fn random_forests_are_valid_partitions() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for case in 0..200 {
            let n = rng.gen_range(1..120);
            let parent: Vec<i64> = (0..n)
                .map(|k| {
                    if k + 1 == n || rng.gen_range(0..10) == 0 {
                        -1
                    } else {
                        rng.gen_range(k + 1..n.min(k + 6)) as i64
                    }
                })
                .collect();
            let weight: Vec<usize> = (0..n).map(|_| rng.gen_range(1..20)).collect();
            for lanes in [1, 2, 3, 8] {
                let p = SubtreePartition::from_parents(&parent, &weight, lanes);
                assert!(p.lanes() <= lanes, "case {case}");
                assert_valid(&parent, &p);
                let shape = p.shape();
                assert_eq!(shape.total_work, weight.iter().sum::<usize>());
            }
        }
    }

    #[test]
    #[should_panic(expected = "not greater")]
    fn rejects_backward_parent() {
        SubtreePartition::from_parents(&[-1, 0], &[1, 1], 2);
    }
}
