//! Off-tree edge filtering by normalized Joule heat (paper §3.4–3.5).
//!
//! Spectral sparsification acts as a *low-pass graph filter*: the sparsifier
//! must preserve the smooth (low-frequency) Laplacian eigenvectors, and the
//! off-tree edges worth recovering are the ones carrying high Joule heat
//! under the dominant-eigenvector embedding. The paper turns the desired
//! similarity `σ²` into an explicit heat threshold
//!
//! ```text
//! θσ ≈ (σ² · λmin / λmax)^(2t+1)        (Eq. 15)
//! ```
//!
//! and keeps exactly the edges with `heat(e)/heat_max ≥ θσ`.

use sass_sparse::{kernel, pool};

/// Below this many candidates [`select_edges`] scores serially under
/// automatic pool sizing.
const MIN_PAR_CANDIDATES: usize = 16_384;
/// Candidates per pool lane above the crossover.
const CANDIDATES_PER_WORKER: usize = 8_192;

/// The normalized-heat threshold `θσ` of paper Eq. 15.
///
/// Returns a value clamped to `(0, 1]`: when the current condition estimate
/// `λmax/λmin` already meets `σ²`, the threshold saturates at 1 and no edge
/// passes the filter.
///
/// A *non-finite* ratio — e.g. infinite `λmin` and `λmax` estimates from a
/// degenerate pencil dividing to NaN — also saturates to 1 rather than
/// leaking NaN through the clamp: an unusable condition estimate means no
/// edge can justify recovery, and the documented `(0, 1]` contract holds
/// for every input the asserts admit.
///
/// # Panics
///
/// Panics if any argument is non-positive or NaN.
///
/// # Example
///
/// ```
/// use sass_core::filter::heat_threshold;
///
/// // Far from the target: tiny threshold, many edges pass.
/// let theta = heat_threshold(100.0, 1.0, 10_000.0, 2);
/// assert!((theta - 0.01f64.powi(5)).abs() < 1e-18);
/// // Already at the target: threshold saturates.
/// assert_eq!(heat_threshold(100.0, 1.0, 50.0, 2), 1.0);
/// ```
pub fn heat_threshold(sigma2: f64, lambda_min: f64, lambda_max: f64, t: usize) -> f64 {
    assert!(sigma2 > 0.0, "sigma2 must be positive");
    assert!(lambda_min > 0.0, "lambda_min must be positive");
    assert!(lambda_max > 0.0, "lambda_max must be positive");
    let ratio = sigma2 * lambda_min / lambda_max;
    // `f64::min` would already pick 1.0 over NaN, but that NaN-swallowing
    // is an accident of Rust's min semantics — saturate explicitly so the
    // (0, 1] guarantee survives ∞/∞ and 0·∞ estimates by design.
    let ratio = if ratio.is_finite() {
        ratio.min(1.0)
    } else {
        1.0
    };
    ratio.powi(2 * t as i32 + 1)
}

/// Candidate off-tree edges that pass the heat filter, sorted by
/// descending heat (ties broken by ascending edge id) and truncated to
/// `max_count`.
///
/// Returns `(edge id, heat)` pairs. Edges with zero heat never pass, and
/// *non-finite* heats (a NaN or infinite value from a degenerate embedding
/// with zero effective resistance) are filtered out before the cutoff
/// comparison — a poisoned candidate drops out instead of panicking the
/// sparsification pipeline or outranking every finite edge.
///
/// Large candidate sets are scored in parallel over the persistent worker
/// pool: each lane filters a contiguous span and the per-span survivors
/// are concatenated **in span order**, so the pre-sort candidate order —
/// and therefore the final (stably sorted) selection — is identical to
/// the serial filter at every worker count.
///
/// # Panics
///
/// Panics if `off_tree.len() != heats.len()`.
pub fn select_edges(
    off_tree: &[u32],
    heats: &[f64],
    heat_max: f64,
    theta: f64,
    max_count: usize,
) -> Vec<(u32, f64)> {
    assert_eq!(off_tree.len(), heats.len(), "heat vector length mismatch");
    if heat_max <= 0.0 || max_count == 0 {
        return Vec::new();
    }
    let cutoff = theta * heat_max;
    let p = pool::Pool::global();
    let workers = p.workers_for(off_tree.len(), MIN_PAR_CANDIDATES, CANDIDATES_PER_WORKER);
    let spans = pool::even_spans(off_tree.len(), workers);
    let mut passing: Vec<(u32, f64)> = p
        .parallel_reduce(
            &spans,
            |_, (lo, hi)| {
                // Keeps each span's pairs in input order, so the span-order
                // concatenation below stays deterministic.
                kernel::scan_heat_candidates(&off_tree[lo..hi], &heats[lo..hi], cutoff)
            },
            |mut a, b| {
                a.extend(b);
                a
            },
        )
        .unwrap_or_default();
    // Heat-descending with ascending-id tie-break — a strict total order
    // (ids are unique), so the result equals the old stable sort of the
    // id-ordered scan, while `select_nth_unstable_by` caps the sort at
    // the `max_count` survivors instead of the whole passing set.
    let by_heat_desc =
        |a: &(u32, f64), b: &(u32, f64)| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0));
    if passing.len() > max_count {
        passing.select_nth_unstable_by(max_count - 1, by_heat_desc);
        passing.truncate(max_count);
    }
    passing.sort_unstable_by(by_heat_desc);
    passing
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_monotone_in_sigma() {
        // Larger sigma^2 target => larger threshold => fewer edges kept.
        let t50 = heat_threshold(50.0, 1.2, 5000.0, 2);
        let t200 = heat_threshold(200.0, 1.2, 5000.0, 2);
        assert!(t200 > t50);
        assert!(t50 > 0.0 && t200 <= 1.0);
    }

    #[test]
    fn threshold_grows_as_condition_improves() {
        // As lambda_max shrinks toward sigma^2 * lambda_min the threshold
        // approaches 1 (fewer and fewer edges needed).
        let early = heat_threshold(100.0, 1.0, 50_000.0, 2);
        let late = heat_threshold(100.0, 1.0, 200.0, 2);
        assert!(late > early);
        assert_eq!(heat_threshold(100.0, 1.0, 100.0, 2), 1.0);
    }

    #[test]
    fn select_respects_threshold_and_order() {
        let ids = [10u32, 11, 12, 13];
        let heats = [0.5, 1.0, 0.05, 0.2];
        let picked = select_edges(&ids, &heats, 1.0, 0.1, 10);
        let got: Vec<u32> = picked.iter().map(|&(id, _)| id).collect();
        assert_eq!(got, vec![11, 10, 13]); // 12 is filtered out (0.05 < 0.1)
    }

    #[test]
    fn select_truncates() {
        let ids = [0u32, 1, 2, 3, 4];
        let heats = [5.0, 4.0, 3.0, 2.0, 1.0];
        let picked = select_edges(&ids, &heats, 5.0, 0.0, 2);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].0, 0);
        assert_eq!(picked[1].0, 1);
    }

    #[test]
    fn empty_inputs() {
        assert!(select_edges(&[], &[], 0.0, 0.5, 10).is_empty());
        let picked = select_edges(&[1], &[1.0], 1.0, 0.5, 0);
        assert!(picked.is_empty());
    }

    #[test]
    #[should_panic(expected = "sigma2")]
    fn rejects_bad_sigma() {
        heat_threshold(0.0, 1.0, 10.0, 2);
    }

    /// Regression: a NaN heat in the candidate list (degenerate embedding
    /// with zero effective resistance) used to be able to reach a
    /// `partial_cmp().expect()` sort — it must silently drop out instead.
    #[test]
    fn select_drops_non_finite_heats() {
        let ids = [1u32, 2, 3, 4, 5];
        let heats = [0.9, f64::NAN, 0.5, f64::INFINITY, f64::NEG_INFINITY];
        let picked = select_edges(&ids, &heats, 1.0, 0.1, 10);
        let got: Vec<u32> = picked.iter().map(|&(id, _)| id).collect();
        assert_eq!(got, vec![1, 3]);
        // All-NaN heats: nothing passes, nothing panics.
        assert!(select_edges(&[7], &[f64::NAN], 1.0, 0.1, 10).is_empty());
    }

    /// Regression: a non-finite condition estimate must saturate the
    /// threshold at 1 instead of returning NaN through the `.min` clamp.
    #[test]
    fn threshold_saturates_on_non_finite_ratio() {
        // λmin = λmax = ∞ passes the positivity asserts but divides to NaN.
        let theta = heat_threshold(100.0, f64::INFINITY, f64::INFINITY, 2);
        assert_eq!(theta, 1.0);
        // An infinite ratio (λmin = ∞, finite λmax) saturates too.
        assert_eq!(heat_threshold(100.0, f64::INFINITY, 1.0, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "lambda_max")]
    fn rejects_nan_lambda_max() {
        heat_threshold(100.0, 1.0, f64::NAN, 2);
    }
}
