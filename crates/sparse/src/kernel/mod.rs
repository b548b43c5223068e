//! The `f64` loops that several crates share on the hot paths: the CSR
//! row gather behind every SpMV, Joule-heat scoring of the probe
//! embedding and the heat-filter scan, plus the [`AlignedVec`] buffer
//! behind [`crate::DenseBlock`].
//!
//! Every kernel is one portable loop on every target, with no
//! hand-written intrinsics and no runtime dispatch; the compiler
//! vectorizes what it can. Each output is a serial sum in a documented
//! order, one rounded multiply and one rounded add per term, never
//! contracted into FMA (`sass-lint`'s `no-fma` rule). That order is the
//! contract: results are bit-identical on every host and at every pool
//! width.

// Sparse kernels index multiple parallel arrays; explicit loops are clearer.
#![allow(clippy::needless_range_loop)]

mod aligned;

pub use aligned::{AlignedVec, ALIGNMENT};

/// The instruction-set tier the kernels run at. The portable loops are
/// the only tier; the type stays for the benchmark's provenance record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable loops, vectorized by the compiler where it chooses.
    Scalar,
}

impl SimdLevel {
    /// Short lowercase label (`"scalar"`) for bench rows and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
        }
    }
}

/// The tier this host supports: always [`SimdLevel::Scalar`].
pub fn detected() -> SimdLevel {
    SimdLevel::Scalar
}

/// The tier the kernels run at: always [`SimdLevel::Scalar`].
pub fn active() -> SimdLevel {
    SimdLevel::Scalar
}

/// CSR row-gather SpMV over rows `lo..hi` of an f64 matrix:
/// `y[i - lo] = Σ data[p]·x[indices[p]]` for `p` in row `i`, accumulated
/// in ascending stored order.
///
/// Each row sum is one serial add chain, the latency bound that
/// out-of-order hardware already overlaps with the multiplies; a vector
/// variant that kept the order (products through a stack buffer, then a
/// serial reduction) measured ~30% slower on mesh, scale-free and
/// circuit-grid Laplacians.
///
/// # Panics
///
/// Panics (via safe indexing) if the CSR arrays are inconsistent (a row
/// extent past `indices`/`data`, a column index past `x`) or `y` is
/// shorter than `hi - lo`. A non-monotone (empty-range) row contributes
/// 0.
pub fn spmv_range_f64(
    indptr: &[usize],
    indices: &[u32],
    data: &[f64],
    x: &[f64],
    y: &mut [f64],
    lo: usize,
    hi: usize,
) {
    for i in lo..hi {
        let mut acc = 0.0;
        for p in indptr[i]..indptr[i + 1] {
            acc += data[p] * x[indices[p] as usize];
        }
        y[i - lo] = acc;
    }
}

/// Edges per step of [`joule_heat`]: four independent accumulators give
/// the out-of-order core four add chains to overlap.
const HEAT_LANES: usize = 4;

/// Per-edge Joule heat against a column-major embedding `h` (`r` columns
/// of `n` entries; `r` inferred as `h.len() / n`):
/// `out[k] = Σ_c (ws[k]·d)·d` with `d = h[c·n + us[k]] − h[c·n + vs[k]]`,
/// each edge summing the columns in storage order.
///
/// The loop walks four edges at a time, one accumulator per
/// edge, and the remainder one edge at a time; either way every edge's
/// sum is the same add chain.
///
/// # Panics
///
/// Panics if an endpoint is `≥ n` or an endpoint/weight array is shorter
/// than `out`.
pub fn joule_heat(us: &[u32], vs: &[u32], ws: &[f64], h: &[f64], n: usize, out: &mut [f64]) {
    let m = out.len();
    assert!(
        us.len() >= m && vs.len() >= m && ws.len() >= m,
        "joule_heat: endpoint/weight arrays shorter than out"
    );
    if n > 0 {
        assert!(
            us[..m].iter().chain(&vs[..m]).all(|&e| (e as usize) < n),
            "joule_heat: endpoint out of range"
        );
    }
    let r = h.len().checked_div(n).unwrap_or(0);
    let split = m - m % HEAT_LANES;
    for k in (0..split).step_by(HEAT_LANES) {
        let mut acc = [0.0f64; HEAT_LANES];
        for c in 0..r {
            let col = &h[c * n..(c + 1) * n];
            for j in 0..HEAT_LANES {
                let d = col[us[k + j] as usize] - col[vs[k + j] as usize];
                acc[j] += ws[k + j] * d * d;
            }
        }
        out[k..k + HEAT_LANES].copy_from_slice(&acc);
    }
    for k in split..m {
        let (u, v, w) = (us[k] as usize, vs[k] as usize, ws[k]);
        let mut acc = 0.0;
        for c in 0..r {
            let col = &h[c * n..(c + 1) * n];
            let d = col[u] - col[v];
            acc += w * d * d;
        }
        out[k] = acc;
    }
}

/// Heat-filter scan: returns the `(id, heat)` pairs, in input order,
/// whose heat is finite, strictly positive and `≥ cutoff`.
///
/// # Panics
///
/// Panics if `ids.len() != heats.len()`.
pub fn scan_heat_candidates(ids: &[u32], heats: &[f64], cutoff: f64) -> Vec<(u32, f64)> {
    assert_eq!(ids.len(), heats.len(), "scan: ids/heats length mismatch");
    ids.iter()
        .zip(heats)
        .filter(|&(_, &h)| h.is_finite() && h > 0.0 && h >= cutoff)
        .map(|(&id, &h)| (id, h))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_csr() -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        // 5×6, rows of nnz 0/1/3/6/2 to cover empty rows and ragged tails.
        let indptr = vec![0usize, 0, 1, 4, 10, 12];
        let indices = vec![2u32, 0, 3, 5, 0, 1, 2, 3, 4, 5, 1, 4];
        let data: Vec<f64> = (0..12).map(|k| 0.25 * (k as f64) - 1.3).collect();
        (indptr, indices, data)
    }

    /// The one-edge Joule-heat loop [`joule_heat`] must reproduce bit for
    /// bit: each edge's columns summed in storage order.
    fn one_edge_heat(us: &[u32], vs: &[u32], ws: &[f64], h: &[f64], n: usize) -> Vec<f64> {
        let r = h.len() / n;
        (0..us.len())
            .map(|k| {
                let mut acc = 0.0;
                for c in 0..r {
                    let d = h[c * n + us[k] as usize] - h[c * n + vs[k] as usize];
                    acc += ws[k] * d * d;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn spmv_dispatch_matches_scalar_bitwise() {
        let (indptr, indices, data) = toy_csr();
        let x: Vec<f64> = (0..6).map(|i| (i as f64 * 0.7).sin() + 1.0).collect();
        // Each row summed left to right in stored order, by hand.
        let want: Vec<f64> = (0..5)
            .map(|i| {
                (indptr[i]..indptr[i + 1])
                    .fold(0.0, |acc, p| acc + data[p] * x[indices[p] as usize])
            })
            .collect();
        let mut got = vec![0.0; 5];
        spmv_range_f64(&indptr, &indices, &data, &x, &mut got, 0, 5);
        assert_eq!(got, want);
        // Sub-range offset form, as the pool hands out chunks.
        let mut part = vec![0.0; 2];
        spmv_range_f64(&indptr, &indices, &data, &x, &mut part, 2, 4);
        assert_eq!(part, want[2..4]);
    }

    #[test]
    fn heat_kernels_dispatch_match_scalar_bitwise() {
        // Seven edges: one four-edge step plus a three-edge remainder.
        let n = 9usize;
        let r = 3usize;
        let h: Vec<f64> = (0..n * r).map(|k| (k as f64 * 0.17).sin()).collect();
        let us: Vec<u32> = (0..7).map(|k| (k * 3 % n) as u32).collect();
        let vs: Vec<u32> = (0..7).map(|k| (k * 5 % n) as u32).collect();
        let ws: Vec<f64> = (0..7).map(|k| 0.1 + k as f64).collect();
        let want = one_edge_heat(&us, &vs, &ws, &h, n);
        let mut got = vec![0.0; 7];
        joule_heat(&us, &vs, &ws, &h, n, &mut got);
        assert_eq!(got, want);

        let ids: Vec<u32> = (0..7).collect();
        let mut heats = want.clone();
        heats[1] = f64::NAN;
        heats[3] = f64::INFINITY;
        heats[4] = 0.0;
        // Edge 0 is a self-loop of heat 0; the cutoff lands exactly on edge
        // 5's heat, which stays.
        let cutoff = heats[5];
        let kept: Vec<(u32, f64)> = [0usize, 2, 5, 6]
            .iter()
            .filter(|&&k| heats[k] > 0.0 && heats[k] >= cutoff)
            .map(|&k| (k as u32, heats[k]))
            .collect();
        assert_eq!(scan_heat_candidates(&ids, &heats, cutoff), kept);
    }

    #[test]
    fn level_introspection_is_consistent() {
        assert_eq!(active(), detected());
        assert_eq!(detected(), SimdLevel::Scalar);
        assert_eq!(detected().name(), "scalar");
    }
}
