//! Explicit SIMD microkernels for the `f64` hot paths, with runtime
//! dispatch and the scalar loops as always-on fallback and parity oracle.
//!
//! # Dispatch model
//!
//! Every public function here picks an implementation from a process-wide
//! [`SimdLevel`], computed once (cached in a `OnceLock`) from:
//!
//! 1. the `SASS_NO_SIMD` environment variable — `1` forces scalar at
//!    startup, while unset, empty or `0` leaves SIMD on; any other value
//!    panics (the A/B escape hatch; read once, see [`crate::config`]);
//! 2. runtime CPU detection — AVX2 via `is_x86_feature_detected!`, SSE2
//!    as the unconditional x86-64 baseline, NEON as the AArch64 baseline.
//!
//! Benches additionally A/B in-process through [`set_level`], which can
//! only *lower* the level (it is clamped to the detected one). Everything
//! else in the workspace calls the dispatchers and never names a level.
//!
//! # Parity contract
//!
//! Every kernel is **bit-identical** to its scalar oracle in
//! `kernel::scalar` — the per-lane accumulation order is preserved and no
//! FMA contraction or reassociation is permitted (see `x86.rs` for the
//! per-kernel argument). `tests/simd_parity.rs` pins the contract at
//! every compiled tier and at forced worker counts 1/2/3/8.

mod aligned;
mod scalar;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use aligned::{AlignedVec, ALIGNMENT};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Instruction-set tier a kernel dispatch can resolve to, ordered from
/// narrowest to widest.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loops — the oracle everything else is tested
    /// against, and the only tier on non-x86-64/AArch64 targets or under
    /// `SASS_NO_SIMD`.
    Scalar = 0,
    /// x86-64 baseline 128-bit kernels (SSE2 is guaranteed by the ABI, so
    /// this tier needs no runtime probe).
    Sse2 = 1,
    /// 256-bit kernels with gathers and masked loads; requires a runtime
    /// `avx2` probe.
    Avx2 = 2,
    /// AArch64 baseline 128-bit kernels (NEON is architectural, no probe).
    Neon = 3,
}

impl SimdLevel {
    /// Short lowercase label (`"scalar"`, `"sse2"`, `"avx2"`, `"neon"`)
    /// for bench rows and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }

    fn from_u8(v: u8) -> Option<SimdLevel> {
        match v {
            0 => Some(SimdLevel::Scalar),
            1 => Some(SimdLevel::Sse2),
            2 => Some(SimdLevel::Avx2),
            3 => Some(SimdLevel::Neon),
            _ => None,
        }
    }

    /// Whether kernels for this tier are compiled for the target
    /// architecture. Forcing a non-compiled tier through
    /// [`set_level`] would silently dispatch to scalar — e.g. `Avx2` on
    /// AArch64, or `Neon` on x86-64 — so [`set_level`] rejects it and the
    /// parity suite uses this to enumerate only distinct compiled tiers.
    pub fn compiled(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            SimdLevel::Sse2 | SimdLevel::Avx2 => cfg!(target_arch = "x86_64"),
            SimdLevel::Neon => cfg!(target_arch = "aarch64"),
        }
    }
}

/// Sentinel for "no override active" in [`OVERRIDE`].
const NO_OVERRIDE: u8 = u8::MAX;

/// In-process level override installed by [`set_level`] (bench A/B);
/// `NO_OVERRIDE` means "use the detected level".
static OVERRIDE: AtomicU8 = AtomicU8::new(NO_OVERRIDE);

static DETECTED: OnceLock<SimdLevel> = OnceLock::new();

fn detect() -> SimdLevel {
    // The env escape hatch goes through `config::no_simd` (read once,
    // malformed values panic there): flipping the variable after the
    // first kernel call has no effect (tests use `set_level` for
    // in-process A/B instead).
    if crate::config::no_simd() {
        return SimdLevel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

/// The level runtime detection resolved to for this process (after the
/// `SASS_NO_SIMD` gate), ignoring any [`set_level`] override.
pub fn detected() -> SimdLevel {
    *DETECTED.get_or_init(detect)
}

/// The level the dispatchers currently use: the [`detected`] level,
/// lowered by any active [`set_level`] override.
pub fn active() -> SimdLevel {
    lvl()
}

/// Installs (`Some`) or clears (`None`) a process-wide level override for
/// in-process A/B comparison — the benches use this to emit scalar-vs-simd
/// rows from one run. The override can only *lower* the level: it is
/// clamped to [`detected`], so requesting e.g. [`SimdLevel::Avx2`] on an
/// SSE2-only machine stays safe.
///
/// This is global mutable state, like [`crate::pool::set_threads`]; tests
/// that use it serialize on a guard mutex.
///
/// # Panics
///
/// Panics if `level` names a tier whose kernels are not compiled for this
/// target (see [`SimdLevel::compiled`]) — e.g. [`SimdLevel::Neon`] on
/// x86-64. Such a level would silently alias the scalar fallback, which
/// is exactly the ambiguity a forced level exists to rule out.
pub fn set_level(level: Option<SimdLevel>) {
    if let Some(l) = level {
        assert!(
            l.compiled(),
            "set_level: {:?} kernels are not compiled for this target",
            l
        );
    }
    OVERRIDE.store(level.map_or(NO_OVERRIDE, |l| l as u8), Ordering::Relaxed);
}

fn lvl() -> SimdLevel {
    let detected = detected();
    match SimdLevel::from_u8(OVERRIDE.load(Ordering::Relaxed)) {
        Some(ov) => ov.min(detected),
        None => detected,
    }
}

/// Largest operand length the x86 gather kernels accept: gathers take
/// signed 32-bit offsets, so anything indexable past `i32::MAX` falls
/// back to a gather-free tier.
#[cfg(target_arch = "x86_64")]
const GATHER_MAX: usize = i32::MAX as usize;

// ---------------------------------------------------------------------------
// Dispatchers
// ---------------------------------------------------------------------------

/// CSR row-gather SpMV over rows `lo..hi` of an f64 matrix:
/// `y[i - lo] = Σ data[p]·x[indices[p]]` for `p` in row `i`. Bit-identical
/// to the scalar loop at every level.
///
/// Resolves to the scalar kernel at **every** tier, by measurement
/// rather than omission: bit-exactness pins each row sum to a serial
/// floating-point add chain, which is the latency bound and which
/// out-of-order hardware already overlaps with the scalar multiplies.
/// The only vector formulation that preserves the order — pre-forming
/// products through a stack buffer, then reducing serially — benched
/// ~30% *slower* than this loop on mesh, scale-free and circuit-grid
/// Laplacians, so it was removed (see `x86.rs` module docs).
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
    scalar::spmv_range(indptr, indices, data, x, y, lo, hi)
}

/// One 8-wide interleaved LDLᵀ sweep update: `acc[c] -= rx[p]·w[ri[p]·8 + c]`
/// for every stored entry, in stored order. Bit-identical to the scalar
/// loop at every level (rounded multiply then rounded subtract per lane;
/// no FMA).
///
/// # Safety
///
/// `acc` must hold exactly 8 doubles, and for every `p` the 8 doubles at
/// `w + ri[p]·8` must be readable and not concurrently written.
#[allow(clippy::match_single_binding)]
pub unsafe fn ldl_row_update8(acc: &mut [f64], ri: &[u32], rx: &[f64], w: *const f64) {
    match lvl() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => x86::ldl_row_update8_avx2(acc, ri, rx, w),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::ldl_row_update8_sse2(acc, ri, rx, w),
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => neon::ldl_row_update8_neon(acc, ri, rx, w),
        _ => scalar::ldl_row_update8(acc, ri, rx, w),
    }
}

/// Divides all 8 lanes of one interleaved LDLᵀ chunk row by the pivot
/// `dj`. Division is correctly rounded, so every level is bit-identical.
///
/// # Panics
///
/// Panics if `wj.len() != 8`.
#[allow(clippy::match_single_binding)]
pub fn ldl_scale_row8(wj: &mut [f64], dj: f64) {
    match lvl() {
        // SAFETY: AVX2 arm runs only after runtime detection; length is
        // asserted inside the kernels.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::ldl_scale_row8_avx2(wj, dj) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::ldl_scale_row8_sse2(wj, dj),
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => neon::ldl_scale_row8_neon(wj, dj),
        _ => {
            assert_eq!(wj.len(), 8);
            scalar::ldl_scale_row8(wj, dj)
        }
    }
}

/// Per-edge Joule heat against a column-major embedding `h` (`r` columns
/// of `n` entries; `r` inferred as `h.len() / n`):
/// `out[k] = Σ_c ws[k]·(h[c·n + us[k]] − h[c·n + vs[k]])²`. Bit-identical
/// to the scalar loop at every level.
///
/// # Panics
///
/// Panics (via indexing) if an endpoint is `≥ n` or the slice lengths
/// disagree.
#[allow(clippy::match_single_binding)]
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
    match lvl() {
        // SAFETY: endpoints validated above, AVX2 detected, and `n` fits
        // the signed gather offset range.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if n <= GATHER_MAX => unsafe {
            x86::joule_heat_avx2(us, vs, ws, h, n, out)
        },
        _ => scalar::joule_heat(us, vs, ws, h, n, out),
    }
}

/// Heat-filter scan: returns the `(id, heat)` pairs, in input order,
/// whose heat is finite, strictly positive and `≥ cutoff`. The SIMD tier
/// selects the same pairs in the same order as the scalar loop.
///
/// # Panics
///
/// Panics if `ids.len() != heats.len()`.
#[allow(clippy::match_single_binding)]
pub fn scan_heat_candidates(ids: &[u32], heats: &[f64], cutoff: f64) -> Vec<(u32, f64)> {
    assert_eq!(ids.len(), heats.len(), "scan: ids/heats length mismatch");
    match lvl() {
        // SAFETY: lengths checked above; AVX2 detected.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::scan_heat_candidates_avx2(ids, heats, cutoff) },
        _ => scalar::scan_heat_candidates(ids, heats, cutoff),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These smoke tests run at whatever level this process detected and
    // never mutate the global override (that is `tests/simd_parity.rs`'
    // job, behind a guard mutex); for f64 the dispatch contract is
    // bit-exactness, so plain `assert_eq!` is correct at every level.

    fn toy_csr() -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        // 5×6, rows of nnz 0/1/3/6/2 to cover empty rows and ragged tails.
        let indptr = vec![0usize, 0, 1, 4, 10, 12];
        let indices = vec![2u32, 0, 3, 5, 0, 1, 2, 3, 4, 5, 1, 4];
        let data: Vec<f64> = (0..12).map(|k| 0.25 * (k as f64) - 1.3).collect();
        (indptr, indices, data)
    }

    #[test]
    fn spmv_dispatch_matches_scalar_bitwise() {
        let (indptr, indices, data) = toy_csr();
        let x: Vec<f64> = (0..6).map(|i| (i as f64 * 0.7).sin() + 1.0).collect();
        let mut want = vec![0.0; 5];
        scalar::spmv_range(&indptr, &indices, &data, &x, &mut want, 0, 5);
        let mut got = vec![0.0; 5];
        spmv_range_f64(&indptr, &indices, &data, &x, &mut got, 0, 5);
        assert_eq!(got, want, "level {:?}", active());
        // Sub-range offset form, as the pool hands out chunks.
        let mut part = vec![0.0; 2];
        spmv_range_f64(&indptr, &indices, &data, &x, &mut part, 2, 4);
        assert_eq!(part, want[2..4], "level {:?}", active());
    }

    #[test]
    fn ldl_kernels_dispatch_match_scalar_bitwise() {
        let w: Vec<f64> = (0..32).map(|k| (k as f64 * 0.31).cos() * 2.0).collect();
        let ri = vec![0u32, 2, 3, 1, 3];
        let rx = vec![0.5, -1.25, 0.75, 2.0, -0.125];
        let mut acc_scalar: Vec<f64> = (0..8).map(|c| c as f64 * 0.2 - 0.7).collect();
        let mut acc_simd = acc_scalar.clone();
        // SAFETY: every index in `ri` addresses one of the 4 rows of `w`.
        unsafe {
            scalar::ldl_row_update8(&mut acc_scalar, &ri, &rx, w.as_ptr());
            ldl_row_update8(&mut acc_simd, &ri, &rx, w.as_ptr());
        }
        assert_eq!(acc_simd, acc_scalar, "level {:?}", active());

        let mut row_scalar = acc_scalar.clone();
        let mut row_simd = acc_scalar.clone();
        scalar::ldl_scale_row8(&mut row_scalar, -0.3);
        ldl_scale_row8(&mut row_simd, -0.3);
        assert_eq!(row_simd, row_scalar, "level {:?}", active());
    }

    #[test]
    fn heat_kernels_dispatch_match_scalar_bitwise() {
        let n = 9usize;
        let r = 3usize;
        let h: Vec<f64> = (0..n * r).map(|k| (k as f64 * 0.17).sin()).collect();
        let us: Vec<u32> = (0..7).map(|k| (k * 3 % n) as u32).collect();
        let vs: Vec<u32> = (0..7).map(|k| (k * 5 % n) as u32).collect();
        let ws: Vec<f64> = (0..7).map(|k| 0.1 + k as f64).collect();
        let mut want = vec![0.0; 7];
        scalar::joule_heat(&us, &vs, &ws, &h, n, &mut want);
        let mut got = vec![0.0; 7];
        joule_heat(&us, &vs, &ws, &h, n, &mut got);
        assert_eq!(got, want, "level {:?}", active());

        let ids: Vec<u32> = (0..7).collect();
        let mut heats = want.clone();
        heats[1] = f64::NAN;
        heats[3] = f64::INFINITY;
        heats[4] = 0.0;
        let cutoff = heats[0] * 0.5;
        assert_eq!(
            scan_heat_candidates(&ids, &heats, cutoff),
            scalar::scan_heat_candidates(&ids, &heats, cutoff),
            "level {:?}",
            active()
        );
    }

    #[test]
    fn level_introspection_is_consistent() {
        // No override is installed by unit tests, so active == detected.
        assert_eq!(active(), detected());
        assert!(!detected().name().is_empty());
        assert_eq!(SimdLevel::from_u8(NO_OVERRIDE), None);
        for l in [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Neon,
        ] {
            assert_eq!(SimdLevel::from_u8(l as u8), Some(l));
        }
        assert!(SimdLevel::Scalar < SimdLevel::Sse2);
        // Scalar is compiled everywhere; the detected tier must itself be
        // a compiled tier (detection never names kernels we don't have).
        assert!(SimdLevel::Scalar.compiled());
        assert!(detected().compiled());
        // The x86 and AArch64 tiers are mutually exclusive per build.
        assert!(!(SimdLevel::Sse2.compiled() && SimdLevel::Neon.compiled()));
    }

    #[test]
    #[should_panic(expected = "not compiled for this target")]
    fn set_level_rejects_uncompiled_tiers() {
        // One of these two is always foreign to the current target (and
        // off x86-64/AArch64 both are), so forcing it must fail loudly
        // instead of silently aliasing scalar.
        let foreign = if SimdLevel::Neon.compiled() {
            SimdLevel::Avx2
        } else {
            SimdLevel::Neon
        };
        set_level(Some(foreign));
    }
}
