//! Serving quickstart: spin up an in-process sass-serve server, sparsify a
//! graph over the wire, solve against the cached factorization, mutate the
//! graph through the incremental path, and read the server counters.
//!
//! Run with `cargo run --example serve_client`. The same client code talks
//! to an out-of-process server — swap the in-process handle for the
//! server's address.

use sass::graph::generators::{grid2d, WeightModel};
use sass::serve::{serve, Client, ServerConfig, SparsifyParams, WireEdit, WireGraph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Bind on an ephemeral loopback port. Defaults: 256 MiB cache budget,
    // at most 256 columns per solve pass, per-request limits on |V|, |E|,
    // columns.
    let server = serve(ServerConfig::default())?;
    println!("serving on {}", server.addr());

    let mut client = Client::connect(server.addr())?;

    // Ship a graph and a similarity target; get back a cache key.
    let g = grid2d(48, 48, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
    let graph = WireGraph {
        n: g.n() as u64,
        edges: g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect(),
    };
    let params = SparsifyParams {
        sigma2: 100.0,
        seed: 7,
    };
    let receipt = client.sparsify(params, graph.clone())?;
    println!(
        "sparsified: key={:#018x} selected {} of {} edges ({:?})",
        receipt.key,
        receipt.selected_edges,
        g.m(),
        receipt.cache
    );

    // Resubmitting the same graph + params is a cache hit: content
    // addressing hashes the canonicalized graph, not the submission order.
    let again = client.sparsify(params, graph)?;
    assert_eq!(again.key, receipt.key);
    println!("resubmission: {:?}", again.cache);

    // Solve L_P x = b against the cached factor. Concurrent solves on the
    // same key (from any connection) coalesce into one blocked pass; the
    // response reports how many columns that pass carried.
    let mut b = vec![0.0; g.n()];
    b[0] = 1.0;
    b[g.n() - 1] = -1.0;
    let solved = client.solve(receipt.key, b.clone(), 0)?;
    println!(
        "solved: x[0] = {:.6}, batch of {} column(s)",
        solved.xs[0][0], solved.batch_cols
    );

    // Mutate the graph through the server: the cached entry is patched via
    // the incremental sparsifier (proportional-to-change), not rebuilt,
    // and re-keyed to the edited graph's content hash.
    let edit = WireEdit::Add {
        u: 0,
        v: (g.n() - 1) as u32,
        weight: 0.8,
    };
    let mutated = client.mutate(receipt.key, vec![edit])?;
    println!(
        "mutated: new key={:#018x}, {} dirty edge(s), {}/{} factor columns re-run",
        mutated.key, mutated.dirty_edges, mutated.cols_refactored, mutated.cols_total
    );

    // The old key is gone; the new one solves the edited graph.
    let solved = client.solve(mutated.key, b, 0)?;
    println!("post-edit solve: x[0] = {:.6}", solved.xs[0][0]);

    let stats = client.stats()?;
    println!(
        "stats: {} builds, {} cache hits, {} solves in {} passes, {} bytes resident",
        stats.sparsify_builds,
        stats.sparsify_hits,
        stats.solves,
        stats.batches,
        stats.resident_bytes
    );

    server.shutdown();
    Ok(())
}
