//! Scalar reference kernels — the always-available fallback and the
//! parity oracle every SIMD variant is tested against.
//!
//! These are the exact loops the hot paths ran before the kernel module
//! existed, hoisted here verbatim so that (a) non-SIMD targets and the
//! `SASS_NO_SIMD` escape hatch keep the historical behavior bit for bit,
//! and (b) `tests/simd_parity.rs` has a single canonical definition of
//! "correct" to compare every vector variant against. Do not "optimize"
//! these: their floating-point association *is* the contract.

// Sparse kernels index multiple parallel arrays; explicit loops are clearer.
#![allow(clippy::needless_range_loop)]

/// CSR row gather over rows `lo..hi`: `y[i - lo] = Σ_p data[p]·x[col(p)]`,
/// accumulated in ascending stored order.
pub(super) fn spmv_range(
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

/// One 8-wide interleaved LDLᵀ row update: `acc[c] -= l·w[i·8 + c]` for
/// every stored entry `(i, l)`, entries in stored order, lanes
/// independent.
///
/// # Safety
///
/// For every `p`, the 8 doubles at `w.add(ri[p] as usize * 8)` must be
/// readable and not concurrently written.
pub(super) unsafe fn ldl_row_update8(acc: &mut [f64], ri: &[u32], rx: &[f64], w: *const f64) {
    debug_assert_eq!(acc.len(), 8);
    debug_assert_eq!(ri.len(), rx.len());
    for p in 0..ri.len() {
        let l = rx[p];
        let wi = std::slice::from_raw_parts(w.add(ri[p] as usize * 8), 8);
        for c in 0..8 {
            acc[c] -= l * wi[c];
        }
    }
}

/// Divides all 8 lanes of one interleaved chunk row by the pivot `dj`.
pub(super) fn ldl_scale_row8(wj: &mut [f64], dj: f64) {
    debug_assert_eq!(wj.len(), 8);
    for c in wj {
        *c /= dj;
    }
}

/// Per-edge Joule heat: `out[k] = Σ_col w[k]·(col[u[k]] − col[v[k]])²`,
/// columns of the embedding summed in storage order per edge.
pub(super) fn joule_heat(us: &[u32], vs: &[u32], ws: &[f64], h: &[f64], n: usize, out: &mut [f64]) {
    let r = h.len().checked_div(n).unwrap_or(0);
    for k in 0..out.len() {
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

/// Heat-filter scan: the `(id, heat)` pairs, in input order, whose heat is
/// finite, strictly positive and at least `cutoff`.
pub(super) fn scan_heat_candidates(ids: &[u32], heats: &[f64], cutoff: f64) -> Vec<(u32, f64)> {
    ids.iter()
        .zip(heats)
        .filter(|&(_, &h)| h.is_finite() && h > 0.0 && h >= cutoff)
        .map(|(&id, &h)| (id, h))
        .collect()
}
