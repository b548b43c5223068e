//! Stage accumulators for the traced run: busy seconds and counts keyed by
//! the per-layer metric name they feed. Everything stays in memory and is
//! printed once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Seconds spent in, and counts recorded at, named stage boundaries.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    secs: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Runs `f`, charging its wall time to stage `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.secs.entry(name).or_default() += t.elapsed().as_secs_f64();
        out
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Seconds charged to stage `name` (0 when never entered).
    pub fn secs(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    /// Value of counter `name` (0 when never touched).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every stage's seconds.
    pub fn stage_sum(&self) -> f64 {
        self.secs.values().sum()
    }

    /// Every stage with its seconds, in name order.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.secs.iter().map(|(k, v)| (*k, *v))
    }

    /// Adds every stage and counter of `other` into `self`.
    pub fn merge(&mut self, other: &Trace) {
        for (k, v) in &other.secs {
            *self.secs.entry(k).or_default() += v;
        }
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }
}
