//! End-to-end benchmark of the SASS workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <circuit-pcg|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload's graphs are fixed generated instances, as benchmark
//! matrices are; the seed draws everything else (right-hand sides, edit
//! weights). The library only ever sees the generated inputs, and the
//! worker pool runs at its automatic width.
//!
//! End-to-end metrics (`--trace 0`), printed by every workload:
//!
//! - `setup_s`: median over several set-ups in the run. circuit-pcg:
//!   generate the graph, its Laplacian and the right-hand sides.
//!   serve-mixed: generate both graphs, bind a server, fill its cache cold
//!   and answer a first solve.
//! - `time_to_solution_s`: a new graph to its first answer. circuit-pcg:
//!   `sparsify` + `build_solver` + the first PCG solve to ‖r‖ ≤ 1e-3‖b‖.
//!   serve-mixed: the cold `Sparsify` round trip of the hot graph plus the
//!   first `Solve` round trip on it, per set-up.
//! - `sparsify_s`: the `sparsify` (serve-mixed: cold `Sparsify` round
//!   trip) part of it.
//! - `solve_ms`: median latency of one solve with the built sparsifier.
//!   circuit-pcg: a PCG solve of `L_G x = b`. serve-mixed: one `Solve` round
//!   trip, measured by the clients.
//! - `solve_tail_ms`: p90 of the same samples. circuit-pcg runs go on until
//!   ten samples lie beyond it; on serve-mixed, where p99 is also
//!   supported, p99 goes on the detail line (it moved by 10–50% between
//!   runs of the same code, too much to gate on). The detail line carries
//!   the sample counts.
//! - `pcg_iters`: mean PCG iterations at ‖r‖ ≤ 1e-3‖b‖ (serve-mixed: PCG
//!   run by the clients with the served sparsifier solve as
//!   preconditioner).
//! - `density`: sparsifier edges per vertex.
//!
//! Per-layer metrics (`--trace 1`) come from a separate traced run that
//! times calls into each layer's public functions from this package: an
//! outside-in replay of the densification loop ([`replay`]), PCG split by
//! timing adapters ([`adapters`]), and on serve-mixed the client codec,
//! the server's `Stats` frame and a local replay of the edit sequence.

mod adapters;
mod local;
mod replay;
mod report;
mod served;
mod stats;
mod trace;

use std::process::ExitCode;

use report::Report;
use sass::sparse::{kernel, pool};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn provenance(r: &mut Report, args: &Args) {
    r.detail_str("workload", &args.workload);
    r.detail("seed", args.seed as f64);
    r.detail("seconds", args.seconds);
    r.detail_str("rustc", env!("PERFBENCH_RUSTC"));
    r.detail_str("simd_detected", kernel::detected().name());
    r.detail_str("simd_active", kernel::active().name());
    r.detail("pool_threads", pool::threads() as f64);
    r.detail(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <circuit-pcg|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new();
    provenance(&mut report, &args);
    let outcome = match args.workload.as_str() {
        "circuit-pcg" => local::run(&args, &mut report),
        "serve-mixed" => served::run(&args, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if args.trace {
        report.print(report::PER_LAYER, true);
    } else {
        report.print(report::END_TO_END, false);
    }
    ExitCode::SUCCESS
}
