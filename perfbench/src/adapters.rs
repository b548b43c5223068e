//! Pass-through timing adapters that split a PCG solve into its SpMV, its
//! preconditioner applications and the remainder (vector updates and
//! reductions inside `pcg` itself).

use std::cell::Cell;
use std::time::Instant;

use sass::solver::{pcg, LinearOperator, PcgOptions, Preconditioner, SolveStats};

use crate::report::Report;

/// Busy seconds and call count of one wrapped operator.
#[derive(Debug, Default)]
pub struct Busy {
    secs: Cell<f64>,
    calls: Cell<usize>,
}

impl Busy {
    fn charge<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.secs.set(self.secs.get() + t.elapsed().as_secs_f64());
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Seconds spent inside the wrapped calls.
    pub fn secs(&self) -> f64 {
        self.secs.get()
    }

    /// Calls made through the adapter.
    pub fn calls(&self) -> usize {
        self.calls.get()
    }
}

/// A [`LinearOperator`] that times every `apply` of the operator it wraps.
pub struct TimedOperator<'a, A: ?Sized> {
    inner: &'a A,
    /// Time and calls charged so far.
    pub busy: Busy,
}

impl<'a, A: LinearOperator + ?Sized> TimedOperator<'a, A> {
    /// Wraps `inner`.
    pub fn new(inner: &'a A) -> Self {
        TimedOperator {
            inner,
            busy: Busy::default(),
        }
    }
}

impl<A: LinearOperator + ?Sized> LinearOperator for TimedOperator<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.busy.charge(|| self.inner.apply(x, y));
    }
}

/// A [`Preconditioner`] that times every `apply` of the one it wraps.
pub struct TimedPrec<'a, M: ?Sized> {
    inner: &'a M,
    /// Time and calls charged so far.
    pub busy: Busy,
}

impl<'a, M: Preconditioner + ?Sized> TimedPrec<'a, M> {
    /// Wraps `inner`.
    pub fn new(inner: &'a M) -> Self {
        TimedPrec {
            inner,
            busy: Busy::default(),
        }
    }
}

impl<M: Preconditioner + ?Sized> Preconditioner for TimedPrec<'_, M> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.busy.charge(|| self.inner.apply(r, z));
    }
}

/// PCG solves run through the adapters, accumulated over a traced run.
#[derive(Debug, Default)]
pub struct PcgSplit {
    solves: usize,
    spmv_s: f64,
    spmv_calls: usize,
    prec_s: f64,
    prec_calls: usize,
    other_s: f64,
}

impl PcgSplit {
    /// Runs `pcg` with `a` and `m` wrapped, charging SpMV, preconditioner
    /// and the remainder of the solve's wall time.
    pub fn solve<A, M>(
        &mut self,
        a: &A,
        b: &[f64],
        m: &M,
        opts: &PcgOptions,
    ) -> (Vec<f64>, SolveStats)
    where
        A: LinearOperator + ?Sized,
        M: Preconditioner + ?Sized,
    {
        let (op, pm) = (TimedOperator::new(a), TimedPrec::new(m));
        let t = Instant::now();
        let out = pcg(&op, b, &pm, opts);
        let wall = t.elapsed().as_secs_f64();
        self.solves += 1;
        self.spmv_s += op.busy.secs();
        self.spmv_calls += op.busy.calls();
        self.prec_s += pm.busy.secs();
        self.prec_calls += pm.busy.calls();
        self.other_s += wall - op.busy.secs() - pm.busy.secs();
        out
    }

    /// Adds the solves of `other`.
    pub fn merge(&mut self, other: &PcgSplit) {
        self.solves += other.solves;
        self.spmv_s += other.spmv_s;
        self.spmv_calls += other.spmv_calls;
        self.prec_s += other.prec_s;
        self.prec_calls += other.prec_calls;
        self.other_s += other.other_s;
    }

    /// Records the split per PCG solve.
    pub fn record(&self, r: &mut Report) {
        let n = self.solves.max(1) as f64;
        r.metric("sparse.spmv_s", self.spmv_s / n);
        r.metric("sparse.spmv_calls", self.spmv_calls as f64 / n);
        r.metric("solver.precond_apply_s", self.prec_s / n);
        r.metric("solver.precond_calls", self.prec_calls as f64 / n);
        r.metric("solver.pcg_other_s", self.other_s / n);
        r.detail("traced_pcg_solves", self.solves as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass::graph::generators::{grid2d, WeightModel};
    use sass::solver::{pcg, JacobiPrec, PcgOptions};

    #[test]
    fn wrapped_pcg_is_bit_identical_and_counts_every_call() {
        let g = grid2d(30, 30, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 4);
        let lg = g.laplacian();
        let prec = JacobiPrec::new(&lg);
        let mut b: Vec<f64> = (0..g.n()).map(|i| ((i * 7 % 13) as f64).sin()).collect();
        sass::sparse::dense::center(&mut b);
        let opts = PcgOptions::paper_accuracy();
        let (x, stats) = pcg(&lg, &b, &prec, &opts);

        let op = TimedOperator::new(&lg);
        let pr = TimedPrec::new(&prec);
        let (xt, stats_t) = pcg(&op, &b, &pr, &opts);
        assert_eq!(stats_t.iterations, stats.iterations);
        assert_eq!(
            xt.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // One SpMV per iteration plus the initial residual; one
        // preconditioner application per iteration, the converged last
        // one skipping it and the initial residual adding one.
        assert!(stats.converged);
        assert_eq!(op.busy.calls(), stats.iterations + 1);
        assert_eq!(pr.busy.calls(), stats.iterations);
        assert!(op.busy.secs() > 0.0 && pr.busy.secs() > 0.0);
    }
}
