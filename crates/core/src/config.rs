use crate::similarity::SimilarityPolicy;
use crate::{CoreError, Result};
use sass_graph::spanning::TreeKind;
use sass_sparse::ordering::OrderingKind;

/// Configuration of the similarity-aware sparsification pipeline.
///
/// The only mandatory choice is the spectral similarity target `σ²` (the
/// upper bound on the relative condition number `κ(L_G, L_P)`); every other
/// knob defaults to the paper's settings (`t = 2` generalized power steps,
/// `r = O(log |V|)` random vectors, AKPW-style tree backbone).
///
/// # Example
///
/// ```
/// use sass_core::{SparsifyConfig, SimilarityPolicy};
///
/// let config = SparsifyConfig::new(50.0)
///     .with_t_steps(2)
///     .with_num_vectors(8)
///     .with_similarity(SimilarityPolicy::EndpointMark)
///     .with_seed(42);
/// assert_eq!(config.sigma2, 50.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparsifyConfig {
    /// Target spectral similarity: upper bound on `κ(L_G, L_P)`.
    pub sigma2: f64,
    /// Number of generalized power iteration steps `t` in the edge
    /// embedding (paper recommends `t = 2`).
    pub t_steps: usize,
    /// Number of random probe vectors `r`; `None` picks
    /// `⌈log₂ |V|⌉` clamped to `[4, 32]` (the paper's `O(log |V|)`).
    pub num_vectors: Option<usize>,
    /// Cap on densification rounds.
    pub max_rounds: usize,
    /// Cap on edges added per round, as a fraction of `|V|` ("small
    /// portions of off-tree edges", paper §3.7).
    pub max_add_frac: f64,
    /// Spanning-tree backbone construction.
    pub tree: TreeKind,
    /// Redundant-edge pruning policy (paper step 6).
    pub similarity: SimilarityPolicy,
    /// Fill-reducing ordering for the sparsifier factorization, done
    /// once per densification round; the last round's factor is the one
    /// [`Sparsifier::build_solver`](crate::Sparsifier::build_solver)
    /// returns. The default, approximate minimum degree, orders a
    /// near-tree sparsifier in a fraction of its numeric factorization
    /// time.
    pub ordering: OrderingKind,
    /// Generalized power iterations used to estimate `λmax` (fewer than ten
    /// suffice, paper §3.6.1).
    pub lambda_max_iters: usize,
    /// Seed for all randomized pieces (probe vectors, tree randomness).
    pub seed: u64,
}

impl SparsifyConfig {
    /// Creates a configuration targeting the given `σ²` with paper-default
    /// settings for everything else.
    pub fn new(sigma2: f64) -> Self {
        SparsifyConfig {
            sigma2,
            t_steps: 2,
            num_vectors: None,
            max_rounds: 24,
            max_add_frac: 0.25,
            tree: TreeKind::default(),
            similarity: SimilarityPolicy::default(),
            ordering: OrderingKind::MinDegree,
            lambda_max_iters: 10,
            seed: 0x5a55_c0de,
        }
    }

    /// Sets the number of generalized power steps `t`.
    pub fn with_t_steps(mut self, t: usize) -> Self {
        self.t_steps = t;
        self
    }

    /// Sets the number of random probe vectors `r`.
    pub fn with_num_vectors(mut self, r: usize) -> Self {
        self.num_vectors = Some(r);
        self
    }

    /// Sets the densification round cap.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Sets the per-round edge budget as a fraction of `|V|`.
    pub fn with_max_add_frac(mut self, frac: f64) -> Self {
        self.max_add_frac = frac;
        self
    }

    /// Sets the spanning-tree backbone kind.
    pub fn with_tree(mut self, tree: TreeKind) -> Self {
        self.tree = tree;
        self
    }

    /// Sets the edge-similarity pruning policy.
    pub fn with_similarity(mut self, policy: SimilarityPolicy) -> Self {
        self.similarity = policy;
        self
    }

    /// Sets the fill-reducing ordering used on the sparsifier.
    pub fn with_ordering(mut self, ordering: OrderingKind) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Rejects knobs under which the pipeline cannot certify `σ²`:
    /// `σ² ≤ 1` (or not finite), `t_steps == 0`, zero probe vectors,
    /// `max_add_frac ≤ 0`, a zero-step `λmax` estimate (the Rayleigh
    /// quotient of a random start vector, which can certify a bare
    /// spanning tree) and `max_rounds == 0` (no round measures the
    /// result).
    pub(crate) fn validate(&self) -> Result<()> {
        let invalid = |context: String| Err(CoreError::InvalidConfig { context });
        // Negated comparisons deliberately reject NaN as well.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.sigma2 > 1.0) || !self.sigma2.is_finite() {
            return invalid(format!(
                "sigma2 must be a finite value above 1, got {}",
                self.sigma2
            ));
        }
        if self.t_steps == 0 {
            return invalid("t_steps must be at least 1".to_string());
        }
        if self.num_vectors == Some(0) {
            return invalid("num_vectors must be at least 1".to_string());
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.max_add_frac > 0.0) {
            return invalid("max_add_frac must be positive".to_string());
        }
        if self.lambda_max_iters == 0 {
            return invalid("lambda_max_iters must be at least 1".to_string());
        }
        if self.max_rounds == 0 {
            return invalid("max_rounds must be at least 1".to_string());
        }
        Ok(())
    }

    /// Resolved probe-vector count for a graph with `n` vertices.
    pub fn resolved_num_vectors(&self, n: usize) -> usize {
        self.num_vectors.unwrap_or_else(|| {
            let log = (usize::BITS - n.max(2).leading_zeros()) as usize;
            log.clamp(4, 32)
        })
    }
}

impl Default for SparsifyConfig {
    /// Defaults to `σ² = 100`, a mid-range similarity suitable for both
    /// preconditioning and partitioning.
    fn default() -> Self {
        SparsifyConfig::new(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = SparsifyConfig::new(50.0)
            .with_t_steps(3)
            .with_num_vectors(5)
            .with_max_rounds(7)
            .with_max_add_frac(0.1)
            .with_seed(1);
        assert_eq!(c.t_steps, 3);
        assert_eq!(c.num_vectors, Some(5));
        assert_eq!(c.max_rounds, 7);
        assert_eq!(c.max_add_frac, 0.1);
        assert_eq!(c.seed, 1);
    }

    #[test]
    fn vector_count_scales_logarithmically() {
        let c = SparsifyConfig::default();
        assert_eq!(c.resolved_num_vectors(16), 5);
        assert_eq!(c.resolved_num_vectors(1 << 20), 21);
        assert_eq!(c.resolved_num_vectors(2), 4); // clamped low
        assert!(c.resolved_num_vectors(usize::MAX) <= 32); // clamped high
    }

    #[test]
    fn explicit_vector_count_wins() {
        let c = SparsifyConfig::default().with_num_vectors(3);
        assert_eq!(c.resolved_num_vectors(1 << 20), 3);
    }
}
