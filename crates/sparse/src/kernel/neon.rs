//! AArch64 NEON kernels. NEON is part of the AArch64 baseline, so these
//! need no runtime detection — the dispatcher maps every AArch64 build to
//! [`super::SimdLevel::Neon`] unless `SASS_NO_SIMD` forces scalar.
//!
//! The NEON surface is deliberately smaller than x86: only the 8-wide
//! LDLᵀ sweep kernels. SpMV stays scalar for the same measured reason as
//! on x86 (see `x86.rs` module docs): bit-exactness pins the row sum to a
//! serial add chain, so a vector front end only adds a buffering pass.
//! NEON has no gather, so the Joule-heat kernel and the heat scan also
//! stay on the scalar oracle. The bit-exactness argument for the LDLᵀ
//! kernels is the same as on x86: independent lanes, mul-then-sub per
//! lane, no FMA contraction.

#![allow(clippy::needless_range_loop)]

use core::arch::aarch64::*;

/// NEON 8-wide LDLᵀ row update (bit-exact: rounded multiply then rounded
/// subtract per lane, no FMA).
///
/// # Safety
///
/// As [`super::scalar::ldl_row_update8`].
pub(super) unsafe fn ldl_row_update8_neon(acc: &mut [f64], ri: &[u32], rx: &[f64], w: *const f64) {
    debug_assert_eq!(acc.len(), 8);
    let mut a0 = vld1q_f64(acc.as_ptr());
    let mut a1 = vld1q_f64(acc.as_ptr().add(2));
    let mut a2 = vld1q_f64(acc.as_ptr().add(4));
    let mut a3 = vld1q_f64(acc.as_ptr().add(6));
    for p in 0..ri.len() {
        let l = vdupq_n_f64(rx[p]);
        let wi = w.add(ri[p] as usize * 8);
        a0 = vsubq_f64(a0, vmulq_f64(l, vld1q_f64(wi)));
        a1 = vsubq_f64(a1, vmulq_f64(l, vld1q_f64(wi.add(2))));
        a2 = vsubq_f64(a2, vmulq_f64(l, vld1q_f64(wi.add(4))));
        a3 = vsubq_f64(a3, vmulq_f64(l, vld1q_f64(wi.add(6))));
    }
    vst1q_f64(acc.as_mut_ptr(), a0);
    vst1q_f64(acc.as_mut_ptr().add(2), a1);
    vst1q_f64(acc.as_mut_ptr().add(4), a2);
    vst1q_f64(acc.as_mut_ptr().add(6), a3);
}

/// NEON lanewise pivot division (bit-exact: division is correctly
/// rounded).
pub(super) fn ldl_scale_row8_neon(wj: &mut [f64], dj: f64) {
    assert_eq!(wj.len(), 8);
    // SAFETY: length checked above; NEON is the AArch64 baseline.
    unsafe {
        let d = vdupq_n_f64(dj);
        let a0 = vdivq_f64(vld1q_f64(wj.as_ptr()), d);
        let a1 = vdivq_f64(vld1q_f64(wj.as_ptr().add(2)), d);
        let a2 = vdivq_f64(vld1q_f64(wj.as_ptr().add(4)), d);
        let a3 = vdivq_f64(vld1q_f64(wj.as_ptr().add(6)), d);
        vst1q_f64(wj.as_mut_ptr(), a0);
        vst1q_f64(wj.as_mut_ptr().add(2), a1);
        vst1q_f64(wj.as_mut_ptr().add(4), a2);
        vst1q_f64(wj.as_mut_ptr().add(6), a3);
    }
}
