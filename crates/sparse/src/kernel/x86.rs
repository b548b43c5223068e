//! x86-64 SIMD kernels: SSE2 (baseline, always available on x86-64) and
//! AVX2 (runtime-detected) variants of the scalar oracles.
//!
//! # Bit-exactness strategy
//!
//! Every kernel here reproduces the scalar accumulation order exactly:
//!
//! - **SpMV has no vector variant by measurement, not omission.** A
//!   bit-exact row gather must sum each row serially in stored order, so
//!   the floating-point add chain — the actual latency bound, which
//!   out-of-order hardware already overlaps with the scalar multiplies —
//!   cannot be widened; all a vector version can do is pre-form the
//!   products through a stack buffer, and that extra pass measured ~30%
//!   *slower* than the scalar loop (mesh Laplacian: ≈120µs buffered vs
//!   ≈90µs scalar). The SpMV dispatcher therefore resolves to the scalar
//!   kernel at every tier.
//! - **LDLᵀ 8-wide sweeps** keep each of the 8 interleaved right-hand
//!   sides in its own lane; `acc -= l·w` is one correctly-rounded multiply
//!   followed by one correctly-rounded subtract per lane, same as scalar.
//!   No FMA is used anywhere: contraction would change the rounding.
//! - **Joule heat** puts one edge per lane; per lane the column loop
//!   performs `acc += (w·d)·d` in the scalar order.
//! - Lanewise division (`ldl_scale_row8`) is correctly rounded, hence
//!   trivially bit-exact.
//!
//! # Safety conventions
//!
//! All functions take slices and bound-check through them before issuing
//! raw loads; AVX2 functions carry `#[target_feature(enable = "avx2")]`
//! and must only be called after `is_x86_feature_detected!("avx2")`
//! (enforced by the dispatchers in [`super`]). Gather index math assumes
//! node indices fit in `i32`, which the dispatchers guarantee by falling
//! back to scalar for absurdly wide operands.

// Kernels index several parallel arrays in lockstep; explicit indices
// keep the lane bookkeeping auditable against the scalar oracle.
#![allow(clippy::needless_range_loop)]

use core::arch::x86_64::*;

// ---------------------------------------------------------------------------
// 8-wide blocked LDLᵀ sweep kernels
// ---------------------------------------------------------------------------

/// SSE2 8-wide LDLᵀ row update (bit-exact: per lane, one rounded multiply
/// then one rounded subtract, exactly the scalar `acc[c] -= l·w[c]`).
///
/// # Safety
///
/// As [`super::scalar::ldl_row_update8`].
pub(super) unsafe fn ldl_row_update8_sse2(acc: &mut [f64], ri: &[u32], rx: &[f64], w: *const f64) {
    debug_assert_eq!(acc.len(), 8);
    let mut a0 = _mm_loadu_pd(acc.as_ptr());
    let mut a1 = _mm_loadu_pd(acc.as_ptr().add(2));
    let mut a2 = _mm_loadu_pd(acc.as_ptr().add(4));
    let mut a3 = _mm_loadu_pd(acc.as_ptr().add(6));
    for p in 0..ri.len() {
        let l = _mm_set1_pd(rx[p]);
        let wi = w.add(ri[p] as usize * 8);
        a0 = _mm_sub_pd(a0, _mm_mul_pd(l, _mm_loadu_pd(wi)));
        a1 = _mm_sub_pd(a1, _mm_mul_pd(l, _mm_loadu_pd(wi.add(2))));
        a2 = _mm_sub_pd(a2, _mm_mul_pd(l, _mm_loadu_pd(wi.add(4))));
        a3 = _mm_sub_pd(a3, _mm_mul_pd(l, _mm_loadu_pd(wi.add(6))));
    }
    _mm_storeu_pd(acc.as_mut_ptr(), a0);
    _mm_storeu_pd(acc.as_mut_ptr().add(2), a1);
    _mm_storeu_pd(acc.as_mut_ptr().add(4), a2);
    _mm_storeu_pd(acc.as_mut_ptr().add(6), a3);
}

/// AVX2 8-wide LDLᵀ row update (bit-exact; no FMA — contraction would
/// change the rounding).
///
/// # Safety
///
/// As [`super::scalar::ldl_row_update8`], plus AVX2 must be available.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn ldl_row_update8_avx2(acc: &mut [f64], ri: &[u32], rx: &[f64], w: *const f64) {
    debug_assert_eq!(acc.len(), 8);
    let mut a0 = _mm256_loadu_pd(acc.as_ptr());
    let mut a1 = _mm256_loadu_pd(acc.as_ptr().add(4));
    for p in 0..ri.len() {
        let l = _mm256_set1_pd(rx[p]);
        let wi = w.add(ri[p] as usize * 8);
        a0 = _mm256_sub_pd(a0, _mm256_mul_pd(l, _mm256_loadu_pd(wi)));
        a1 = _mm256_sub_pd(a1, _mm256_mul_pd(l, _mm256_loadu_pd(wi.add(4))));
    }
    _mm256_storeu_pd(acc.as_mut_ptr(), a0);
    _mm256_storeu_pd(acc.as_mut_ptr().add(4), a1);
}

/// SSE2 lanewise pivot division (bit-exact: division is correctly
/// rounded).
pub(super) fn ldl_scale_row8_sse2(wj: &mut [f64], dj: f64) {
    assert_eq!(wj.len(), 8);
    // SAFETY: length checked above; SSE2 is the x86-64 baseline.
    unsafe {
        let d = _mm_set1_pd(dj);
        let a0 = _mm_div_pd(_mm_loadu_pd(wj.as_ptr()), d);
        let a1 = _mm_div_pd(_mm_loadu_pd(wj.as_ptr().add(2)), d);
        let a2 = _mm_div_pd(_mm_loadu_pd(wj.as_ptr().add(4)), d);
        let a3 = _mm_div_pd(_mm_loadu_pd(wj.as_ptr().add(6)), d);
        _mm_storeu_pd(wj.as_mut_ptr(), a0);
        _mm_storeu_pd(wj.as_mut_ptr().add(2), a1);
        _mm_storeu_pd(wj.as_mut_ptr().add(4), a2);
        _mm_storeu_pd(wj.as_mut_ptr().add(6), a3);
    }
}

/// AVX2 lanewise pivot division (bit-exact).
///
/// # Safety
///
/// AVX2 must be available at runtime.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn ldl_scale_row8_avx2(wj: &mut [f64], dj: f64) {
    assert_eq!(wj.len(), 8);
    let d = _mm256_set1_pd(dj);
    let a0 = _mm256_div_pd(_mm256_loadu_pd(wj.as_ptr()), d);
    let a1 = _mm256_div_pd(_mm256_loadu_pd(wj.as_ptr().add(4)), d);
    _mm256_storeu_pd(wj.as_mut_ptr(), a0);
    _mm256_storeu_pd(wj.as_mut_ptr().add(4), a1);
}

// ---------------------------------------------------------------------------
// Joule-heat accumulation and heat-filter scan
// ---------------------------------------------------------------------------

/// AVX2 Joule-heat kernel: one edge per lane, embedding columns gathered
/// by endpoint (bit-exact: per lane the column loop adds `(w·d)·d` in the
/// scalar order).
///
/// # Safety
///
/// AVX2 must be available; `h` must hold `r·n` doubles column-major and
/// every `us`/`vs` entry must be `< n`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn joule_heat_avx2(
    us: &[u32],
    vs: &[u32],
    ws: &[f64],
    h: &[f64],
    n: usize,
    out: &mut [f64],
) {
    let r = h.len().checked_div(n).unwrap_or(0);
    let m = out.len();
    let mut k = 0;
    while k + 4 <= m {
        let ui = _mm_loadu_si128(us.as_ptr().add(k).cast::<__m128i>());
        let vi = _mm_loadu_si128(vs.as_ptr().add(k).cast::<__m128i>());
        let w = _mm256_loadu_pd(ws.as_ptr().add(k));
        let mut acc = _mm256_setzero_pd();
        for c in 0..r {
            let col = h.as_ptr().add(c * n);
            let hu = _mm256_i32gather_pd::<8>(col, ui);
            let hv = _mm256_i32gather_pd::<8>(col, vi);
            let d = _mm256_sub_pd(hu, hv);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_mul_pd(w, d), d));
        }
        _mm256_storeu_pd(out.as_mut_ptr().add(k), acc);
        k += 4;
    }
    if k < m {
        super::scalar::joule_heat(&us[k..], &vs[k..], &ws[k..], h, n, &mut out[k..]);
    }
}

/// AVX2 heat-filter scan: 4 heats compared per iteration, survivors
/// pushed via `movemask` in lane (= input) order, so the output sequence
/// is identical to the scalar scan. Finiteness is tested as
/// `(h − h) == 0.0` (ordered compare), which rejects NaN and ±∞.
///
/// # Safety
///
/// AVX2 must be available; `ids.len() == heats.len()`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn scan_heat_candidates_avx2(
    ids: &[u32],
    heats: &[f64],
    cutoff: f64,
) -> Vec<(u32, f64)> {
    debug_assert_eq!(ids.len(), heats.len());
    let mut out = Vec::new();
    let zero = _mm256_setzero_pd();
    let cut = _mm256_set1_pd(cutoff);
    let m = ids.len();
    let mut k = 0;
    while k + 4 <= m {
        let h = _mm256_loadu_pd(heats.as_ptr().add(k));
        let finite = _mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_sub_pd(h, h), zero);
        let pos = _mm256_cmp_pd::<_CMP_GT_OQ>(h, zero);
        let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(h, cut);
        let keep = _mm256_and_pd(_mm256_and_pd(finite, pos), ge);
        let mut bits = _mm256_movemask_pd(keep) as u32;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            out.push((ids[k + lane], heats[k + lane]));
            bits &= bits - 1;
        }
        k += 4;
    }
    for t in k..m {
        let h = heats[t];
        if h.is_finite() && h > 0.0 && h >= cutoff {
            out.push((ids[t], h));
        }
    }
    out
}
