//! Content fingerprints for graphs and configurations — the cache keys
//! of the serving layer.
//!
//! `sass-serve` keeps sparsifiers and their factorizations warm across
//! requests in a cache keyed by *content*, not identity: two clients
//! submitting the same graph under the same configuration must land on
//! the same entry, and a mutated graph must produce the same key whether
//! it was edited in place (via
//! [`IncrementalSparsifier::apply_edits`](crate::IncrementalSparsifier::apply_edits))
//! or resubmitted from scratch. That forces the fingerprint to be a pure
//! function of the canonical graph representation — the sorted,
//! merged edge list [`Graph`] maintains — plus every configuration knob
//! that changes the sparsifier.
//!
//! The hash is FNV-1a over a fixed little-endian serialization (64-bit,
//! offset basis `0xcbf29ce484222325`, prime `0x100000001b3`). It is a
//! *content* hash for cache addressing, not a cryptographic digest: an
//! adversarial client can manufacture collisions, so the serving layer
//! must treat a key as naming whatever entry it maps to, never as proof
//! of graph equality.

use crate::SparsifyConfig;
use sass_graph::Graph;

/// 64-bit FNV-1a running state.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// FNV-1a offset basis.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a prime.
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// Folds a `u64` in little-endian byte order.
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds an `f64` by its exact bit pattern (so `-0.0 != 0.0` and
    /// every NaN payload is distinguished — weights are validated finite
    /// and positive upstream, so this never matters in practice, but the
    /// fingerprint should not be the layer that canonicalizes floats).
    fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Content fingerprint of a graph: vertex count plus the canonical
/// (sorted, merged) edge list with exact weight bits.
///
/// Stable across process runs and platforms (fixed little-endian
/// serialization), and insensitive to construction order because
/// [`Graph`] canonicalizes its edge list.
fn graph_fingerprint(g: &Graph) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(g.n() as u64);
    h.write_u64(g.m() as u64);
    for e in g.edges() {
        h.write_u64(u64::from(e.u));
        h.write_u64(u64::from(e.v));
        h.write_f64(e.weight);
    }
    h.finish()
}

/// Content fingerprint of a sparsification configuration: every knob
/// that changes the produced sparsifier or its factorization.
///
/// Two configurations with equal fingerprints produce identical
/// sparsifiers on identical graphs (the converse does not hold — this is
/// a hash). Enum knobs are folded by their discriminant index, so adding
/// a variant changes no existing fingerprint.
fn config_fingerprint(config: &SparsifyConfig) -> u64 {
    use crate::SimilarityPolicy;
    use sass_graph::spanning::TreeKind;
    use sass_sparse::ordering::OrderingKind;

    let mut h = Fnv1a::new();
    h.write_f64(config.sigma2);
    h.write_u64(config.t_steps as u64);
    // Option<usize> is disambiguated from usize by a presence byte.
    match config.num_vectors {
        Some(r) => {
            h.write(&[1]);
            h.write_u64(r as u64);
        }
        None => h.write(&[0]),
    }
    h.write_u64(config.max_rounds as u64);
    h.write_f64(config.max_add_frac);
    match config.tree {
        TreeKind::MaxWeight => h.write_u64(0),
        TreeKind::Akpw => h.write_u64(1),
        TreeKind::Bfs => h.write_u64(2),
        TreeKind::Random(seed) => {
            h.write_u64(3);
            h.write_u64(seed);
        }
        // Non-exhaustive upstream enum: a future kind must still hash
        // distinctly from every current one, so fold its Debug form.
        other => {
            h.write_u64(u64::MAX);
            h.write(format!("{other:?}").as_bytes());
        }
    }
    match config.similarity {
        SimilarityPolicy::None => h.write_u64(0),
        SimilarityPolicy::EndpointMark => h.write_u64(1),
        SimilarityPolicy::PathOverlap { max_overlap } => {
            h.write_u64(2);
            h.write_f64(max_overlap);
        }
    }
    match config.ordering {
        OrderingKind::Natural => h.write_u64(0),
        OrderingKind::Rcm => h.write_u64(1),
        OrderingKind::MinDegree => h.write_u64(2),
        OrderingKind::NestedDissection => h.write_u64(3),
        // Non-exhaustive upstream enum — same Debug-fold scheme as above.
        other => {
            h.write_u64(u64::MAX);
            h.write(format!("{other:?}").as_bytes());
        }
    }
    h.write_u64(config.lambda_max_iters as u64);
    h.write_u64(config.seed);
    h.finish()
}

/// Combined cache key: graph content × configuration content.
///
/// This is the key `sass-serve` addresses its sparsifier cache with —
/// see `docs/PROTOCOL.md` for the wire-level contract.
///
/// # Example
///
/// ```
/// use sass_core::{cache_key, SparsifyConfig};
/// use sass_graph::Graph;
///
/// # fn main() -> Result<(), sass_graph::GraphError> {
/// let config = SparsifyConfig::default();
/// let a = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)])?;
/// let b = Graph::from_edges(3, &[(2, 1, 2.0), (1, 0, 1.0)])?; // same content
/// assert_eq!(cache_key(&a, &config), cache_key(&b, &config));
/// let c = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.5)])?; // weight differs
/// assert_ne!(cache_key(&a, &config), cache_key(&c, &config));
/// # Ok(())
/// # }
/// ```
pub fn cache_key(g: &Graph, config: &SparsifyConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(graph_fingerprint(g));
    h.write_u64(config_fingerprint(config));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_graph::generators::{grid2d, WeightModel};

    #[test]
    fn fnv_vectors() {
        // Classic FNV-1a test vectors.
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn graph_fingerprint_is_content_addressed() {
        let g1 = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 2.0)]).unwrap();
        let g2 = Graph::from_edges(4, &[(3, 2, 2.0), (1, 0, 1.0)]).unwrap();
        assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&g2));
        // Vertex count matters even with identical edges.
        let g3 = Graph::from_edges(5, &[(0, 1, 1.0), (2, 3, 2.0)]).unwrap();
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g3));
    }

    #[test]
    fn edits_converge_to_resubmission_fingerprint() {
        // Editing in place and resubmitting the edited graph must agree.
        let g = grid2d(5, 5, WeightModel::Unit, 1);
        let (edited, _) = g
            .apply_edits(&[sass_graph::GraphEdit::AddEdge {
                u: 0,
                v: 24,
                weight: 0.75,
            }])
            .unwrap();
        let mut edges: Vec<(usize, usize, f64)> = g
            .edges()
            .iter()
            .map(|e| (e.u as usize, e.v as usize, e.weight))
            .collect();
        edges.push((0, 24, 0.75));
        let resubmitted = Graph::from_edges(g.n(), &edges).unwrap();
        assert_eq!(graph_fingerprint(&edited), graph_fingerprint(&resubmitted));
    }

    #[test]
    fn config_knobs_change_the_fingerprint() {
        let base = SparsifyConfig::new(100.0);
        let same = SparsifyConfig::new(100.0);
        assert_eq!(config_fingerprint(&base), config_fingerprint(&same));
        for other in [
            SparsifyConfig::new(50.0),
            SparsifyConfig::new(100.0).with_seed(1),
            SparsifyConfig::new(100.0).with_t_steps(3),
            SparsifyConfig::new(100.0).with_num_vectors(8),
        ] {
            assert_ne!(config_fingerprint(&base), config_fingerprint(&other));
        }
    }

    #[test]
    fn cache_key_mixes_both_halves() {
        let g = grid2d(4, 4, WeightModel::Unit, 0);
        let h = grid2d(4, 4, WeightModel::Unit, 0);
        let c1 = SparsifyConfig::new(100.0);
        let c2 = SparsifyConfig::new(100.0).with_seed(7);
        assert_eq!(cache_key(&g, &c1), cache_key(&h, &c1));
        assert_ne!(cache_key(&g, &c1), cache_key(&g, &c2));
    }
}
