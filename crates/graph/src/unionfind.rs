/// Disjoint-set forest with union by rank and path halving.
///
/// Used by Kruskal spanning trees, the AKPW clustering rounds and
/// connectivity checks.
///
/// # Example
///
/// ```
/// use sass_graph::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(!uf.union(1, 0)); // already joined
/// assert_eq!(uf.components(), 3);
/// assert_eq!(uf.find(0), uf.find(1));
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Representative of the set containing `x` (with path halving).
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of bounds.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x as usize
    }

    /// Merges the sets containing `a` and `b`; returns `true` if they were
    /// previously disjoint.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        assert_eq!(uf.components(), 2);
        assert_eq!(uf.find(1), uf.find(2));
        assert_ne!(uf.find(1), uf.find(4));
    }

    #[test]
    fn union_is_idempotent() {
        let mut uf = UnionFind::new(3);
        assert!(uf.union(0, 2));
        assert!(!uf.union(2, 0));
        assert_eq!(uf.components(), 2);
    }

    #[test]
    fn chain_compresses() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.components(), 1);
        assert_eq!(uf.find(0), uf.find(99));
    }
}
