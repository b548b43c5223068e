//! Outside-in replay of `sass_core::sparsify`: the densification round
//! loop driven from the public `spanning`, `extremes`, `embedding`,
//! `filter` and `similarity` functions, with every call charged to a
//! stage of a [`Trace`].
//!
//! The replay must select exactly the edges `sparsify` selects. Callers
//! assert that on every traced run, so a change to the library's round
//! loop fails loudly here instead of being measured wrongly.

use std::collections::HashSet;
use std::time::Instant;

use sass::core::embedding::{heat_from_embedding, probe_embedding};
use sass::core::extremes::{estimate_lambda_max, estimate_lambda_min};
use sass::core::filter::{heat_threshold, select_edges};
use sass::core::similarity::filter_similar;
use sass::core::{sparsify, Sparsifier, SparsifyConfig};
use sass::graph::{spanning, Graph, LcaIndex, RootedTree};
use sass::solver::GroundedSolver;
use sass::sparse::{CooMatrix, CsrMatrix};

use crate::report::{Report, PER_LAYER};
use crate::stats::median;
use crate::trace::Trace;

/// What one replay selected, and where its time went.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Sorted host-graph ids of the selected edges (tree + recovered).
    pub edge_ids: Vec<u32>,
    /// Rounds measured, as `Sparsifier::rounds().len()` counts them.
    pub rounds: usize,
    /// Whether the σ² target was met.
    pub converged: bool,
    /// Wall time of the whole replay.
    pub wall_s: f64,
    /// Per-stage seconds and counts.
    pub trace: Trace,
}

/// Laplacian of the subgraph of `g` given by `edge_ids`, assembled in the
/// same entry order as the library's round loop so the factor is
/// bit-identical.
fn laplacian_of_edges(g: &Graph, edge_ids: &[u32]) -> CsrMatrix {
    let n = g.n();
    let mut coo = CooMatrix::with_capacity(n, n, n + 2 * edge_ids.len());
    let mut diag = vec![0.0f64; n];
    for &id in edge_ids {
        let e = g.edge(id as usize);
        coo.push(e.u as usize, e.v as usize, -e.weight);
        coo.push(e.v as usize, e.u as usize, -e.weight);
        diag[e.u as usize] += e.weight;
        diag[e.v as usize] += e.weight;
    }
    for (v, &d) in diag.iter().enumerate() {
        coo.push(v, v, d);
    }
    coo.to_csr()
}

/// Factors the sparsifier Laplacian and estimates `(λmax, λmin)`.
fn measure(
    tr: &mut Trace,
    g: &Graph,
    lg: &CsrMatrix,
    current: &[u32],
    p_wdeg: &[f64],
    cfg: &SparsifyConfig,
    seed: u64,
) -> sass::core::Result<(GroundedSolver, f64, f64)> {
    let lp = tr.time("graph.laplacian_s", || laplacian_of_edges(g, current));
    let solver = tr.time("solver.factor_s", || GroundedSolver::new(&lp, cfg.ordering))?;
    tr.count("solver.factor_calls", 1.0);
    tr.count("solver.factor_nnz", solver.nnz_factor() as f64);
    let lambda_max = tr.time("core.extremes.lambda_max_s", || {
        estimate_lambda_max(lg, &lp, &solver, cfg.lambda_max_iters, seed)
    });
    tr.count("core.extremes.power_iters", cfg.lambda_max_iters as f64);
    let lambda_min = tr.time("core.extremes.lambda_min_s", || {
        estimate_lambda_min(g, p_wdeg)
    });
    tr.count("core.rounds", 1.0);
    Ok((solver, lambda_max, lambda_min))
}

/// Replays `sparsify(g, cfg)` stage by stage.
///
/// # Errors
///
/// The library errors `sparsify` itself would return for this input.
pub fn replay(g: &Graph, cfg: &SparsifyConfig) -> sass::core::Result<Replay> {
    let start = Instant::now();
    let mut tr = Trace::default();
    let n = g.n();
    assert!(n > 1, "replay needs at least two vertices");

    let tree_ids = tr.time("graph.tree_s", || spanning::spanning_tree(g, cfg.tree))?;
    let rooted = tr.time("graph.tree_s", || RootedTree::new(g, tree_ids.clone(), 0))?;
    let lca = tr.time("graph.tree_s", || LcaIndex::new(&rooted));
    let mut off_tree = tr.time("graph.tree_s", || rooted.off_tree_edges(g));
    let lg = tr.time("graph.laplacian_s", || g.laplacian());

    let mut current = tree_ids.clone();
    let mut p_wdeg = tr.time("core.densify.update_s", || {
        let mut d = vec![0.0f64; n];
        for &id in &current {
            let e = g.edge(id as usize);
            d[e.u as usize] += e.weight;
            d[e.v as usize] += e.weight;
        }
        d
    });
    let r = cfg.resolved_num_vectors(n);
    let budget = ((cfg.max_add_frac * n as f64).ceil() as usize).max(1);
    let mut rounds = 0usize;
    let mut converged = false;

    for round in 1..=cfg.max_rounds {
        let seed = cfg.seed ^ (round as u64) << 8;
        let (solver, lambda_max, lambda_min) =
            measure(&mut tr, g, &lg, &current, &p_wdeg, cfg, seed)?;
        rounds += 1;
        let condition = lambda_max / lambda_min;
        if condition <= cfg.sigma2 || off_tree.is_empty() {
            converged = condition <= cfg.sigma2;
            break;
        }

        let h = tr.time("core.embedding.probe_s", || {
            probe_embedding(
                &lg,
                &solver,
                cfg.t_steps,
                r,
                cfg.seed ^ 0x9e37_79b9 ^ (round as u64),
            )
        });
        let heat = tr.time("core.embedding.score_s", || {
            heat_from_embedding(g, &off_tree, &h)
        });
        let candidates = tr.time("core.filter.select_s", || {
            let theta = heat_threshold(cfg.sigma2, lambda_min, lambda_max, cfg.t_steps);
            select_edges(&off_tree, &heat.heat, heat.heat_max, theta, budget)
        });
        let accepted = tr.time("core.similarity.prune_s", || {
            filter_similar(cfg.similarity, g, &rooted, &lca, &candidates)
        });
        tr.count("core.candidates", candidates.len() as f64);
        tr.count("core.accepted", accepted.len() as f64);
        if accepted.is_empty() {
            break;
        }
        tr.time("core.densify.update_s", || {
            for &id in &accepted {
                let e = g.edge(id as usize);
                p_wdeg[e.u as usize] += e.weight;
                p_wdeg[e.v as usize] += e.weight;
            }
            current.extend_from_slice(&accepted);
            let accepted: HashSet<u32> = accepted.iter().copied().collect();
            off_tree.retain(|id| !accepted.contains(id));
        });

        if round == cfg.max_rounds {
            let (_, lambda_max, lambda_min) =
                measure(&mut tr, g, &lg, &current, &p_wdeg, cfg, cfg.seed ^ 0xdead)?;
            rounds += 1;
            converged = lambda_max / lambda_min <= cfg.sigma2;
        }
    }

    let edge_ids = tr.time("graph.subgraph_s", || {
        current.sort_unstable();
        // The library materializes the sparsifier subgraph as its result;
        // the replay pays the same cost so its wall time compares.
        std::hint::black_box(g.subgraph_with_edges(current.iter().copied()));
        current
    });
    Ok(Replay {
        edge_ids,
        rounds,
        converged,
        wall_s: start.elapsed().as_secs_f64(),
        trace: tr,
    })
}

/// Replays accumulated over a traced run, each paired with an untraced
/// `sparsify` of the same input.
#[derive(Debug, Default)]
pub struct ReplayRuns {
    trace: Trace,
    replay_s: Vec<f64>,
    sparsify_s: Vec<f64>,
    coverage: Vec<f64>,
}

impl ReplayRuns {
    /// Runs `sparsify` untraced, then the replay, and checks that both
    /// select the same edges. Returns the library's sparsifier.
    ///
    /// # Errors
    ///
    /// Library errors, as text.
    pub fn run_once(
        &mut self,
        g: &Graph,
        cfg: &SparsifyConfig,
        report: &mut Report,
    ) -> Result<Sparsifier, String> {
        let t = Instant::now();
        let sp = sparsify(g, cfg).map_err(|e| format!("sparsify: {e}"))?;
        self.sparsify_s.push(t.elapsed().as_secs_f64());
        let rp = replay(g, cfg).map_err(|e| format!("replay: {e}"))?;
        if rp.edge_ids != sp.edge_ids()
            || rp.rounds != sp.rounds().len()
            || rp.converged != sp.converged()
        {
            report.fail_check("the densification replay diverged from sparsify");
        }
        self.coverage.push(rp.trace.stage_sum() / rp.wall_s);
        self.replay_s.push(rp.wall_s);
        self.trace.merge(&rp.trace);
        Ok(sp)
    }

    /// Records every stage as seconds or counts per replay, the accept
    /// ratio, the stage coverage and the tracing overhead, and puts the
    /// stage shares on the detail line.
    pub fn record(&self, r: &mut Report) {
        let reps = self.replay_s.len().max(1) as f64;
        for (name, _) in PER_LAYER {
            let (secs, count) = (self.trace.secs(name), self.trace.counted(name));
            if secs > 0.0 {
                r.metric(name, secs / reps);
            } else if count > 0.0 {
                r.metric(name, count / reps);
            }
        }
        r.metric(
            "core.accept_ratio",
            self.trace.counted("core.accepted") / self.trace.counted("core.candidates").max(1.0),
        );
        r.metric("trace.coverage_frac", median(&self.coverage));
        r.metric(
            "trace.overhead_frac",
            median(&self.replay_s) / median(&self.sparsify_s) - 1.0,
        );
        r.detail("replays", reps);
        let sum = self.trace.stage_sum();
        for (name, secs) in self.trace.stages() {
            r.detail(&format!("share.{name}"), secs / sum);
        }
        if median(&self.coverage) < 0.95 {
            r.fail_check("replay stages cover less than 95% of its wall time");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass::graph::generators::{barabasi_albert, circuit_grid, grid2d, WeightModel};

    fn assert_replays(g: &Graph, cfg: &SparsifyConfig) {
        let sp = sparsify(g, cfg).unwrap();
        let rp = replay(g, cfg).unwrap();
        assert_eq!(rp.edge_ids, sp.edge_ids());
        assert_eq!(rp.rounds, sp.rounds().len());
        assert_eq!(rp.converged, sp.converged());
        assert!(rp.trace.stage_sum() <= rp.wall_s * 1.001);
    }

    #[test]
    fn replay_matches_sparsify_on_each_graph_family() {
        assert_replays(&circuit_grid(24, 24, 0.1, 3), &SparsifyConfig::new(50.0));
        assert_replays(&barabasi_albert(600, 3, 5), &SparsifyConfig::new(100.0));
        assert_replays(
            &grid2d(20, 20, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7),
            &SparsifyConfig::new(100.0).with_seed(9),
        );
    }

    #[test]
    fn replay_matches_sparsify_when_the_round_cap_binds() {
        let g = circuit_grid(16, 16, 0.2, 1);
        assert_replays(
            &g,
            &SparsifyConfig::new(5.0)
                .with_max_rounds(2)
                .with_max_add_frac(0.02),
        );
    }
}
