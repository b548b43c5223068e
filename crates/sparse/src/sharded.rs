//! Block-arrow extraction and the spill store behind the substructured
//! solver (`sass_solver::ShardedSolver`).
//!
//! A vertex separator ([`crate::ordering::vertex_separator`]) splits a
//! symmetric matrix into `k` interior domains that share no entry with
//! one another plus one separator carrying every cross-domain coupling.
//! [`extract_blocks`] cuts the matrix into the matching block-arrow
//! pieces in local numbering ([`ShardedBlocks`]): the domain diagonal
//! blocks `A_dd`, the domain↔separator couplings `A_ds` and the separator
//! block `A_ss`. Each domain block is independent — the unit of parallel
//! factorization and of **out-of-core** residency: [`SpillStore`] writes
//! the domain matrices to disk as Matrix Market files ([`crate::mmio`])
//! and reads one back on demand, so the solver keeps at most one
//! non-resident domain loaded at a time.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::ordering::SeparatorParts;
use crate::{mmio, CsrMatrix, Result};

/// The block-arrow pieces of a symmetric matrix under a vertex-separator
/// decomposition, in local numbering — what the substructured solver
/// factorizes (each `A_dd`) and folds into its Schur complement
/// (`A_ss − Σ A_sd A_dd⁻¹ A_ds`).
#[derive(Debug, Clone)]
pub struct ShardedBlocks {
    /// Domain diagonal blocks `A_dd` (`n_d × n_d`, domain-local indices).
    pub a_dd: Vec<CsrMatrix>,
    /// Domain→separator couplings `A_ds` (`n_d × n_s`, domain-local rows,
    /// separator-local columns). `A_sd = A_dsᵀ` by symmetry.
    pub a_ds: Vec<CsrMatrix>,
    /// Separator diagonal block `A_ss` (`n_s × n_s`, separator-local).
    pub a_ss: CsrMatrix,
}

/// Extracts the block-arrow pieces of `a` under `parts`.
///
/// # Example
///
/// ```
/// use sass_sparse::{extract_blocks, ordering::vertex_separator, CooMatrix};
///
/// // A 7-vertex path Laplacian splits into two domains and a separator.
/// let mut coo = CooMatrix::new(7, 7);
/// for i in 0..7 { coo.push(i, i, 2.0); }
/// for i in 0..6 { coo.push_sym(i, i + 1, -1.0); }
/// let a = coo.to_csr();
/// let parts = vertex_separator(&a, 2);
/// let blocks = extract_blocks(&a, &parts);
/// assert_eq!(blocks.a_dd.len(), parts.domain_count());
/// // Every stored entry lands in exactly one block (A_sd mirrors A_ds).
/// let couplings: usize = blocks.a_ds.iter().map(|m| m.nnz()).sum();
/// let domains: usize = blocks.a_dd.iter().map(|m| m.nnz()).sum();
/// assert_eq!(domains + 2 * couplings + blocks.a_ss.nnz(), a.nnz());
/// ```
///
/// # Panics
///
/// Panics if `parts` was not computed from `a`'s pattern (dimension
/// mismatch, or an entry coupling two distinct domains).
pub fn extract_blocks(a: &CsrMatrix, parts: &SeparatorParts) -> ShardedBlocks {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "extract_blocks: matrix must be square");
    assert_eq!(parts.n(), n, "extract_blocks: parts cover a different n");
    let k = parts.domain_count();
    // Local index of every vertex inside its own part.
    let mut local_of = vec![0u32; n];
    for d in 0..k {
        for (i, &v) in parts.domain(d).iter().enumerate() {
            local_of[v] = i as u32;
        }
    }
    for (i, &v) in parts.separator().iter().enumerate() {
        local_of[v] = i as u32;
    }
    let domain_of = parts.domain_of();

    let mut a_dd = Vec::with_capacity(k);
    let mut a_ds = Vec::with_capacity(k);
    for d in 0..k {
        let rows = parts.domain(d);
        let nd = rows.len();
        let (mut dd_p, mut dd_i, mut dd_x) = (Vec::with_capacity(nd + 1), Vec::new(), Vec::new());
        let (mut ds_p, mut ds_i, mut ds_x) = (Vec::with_capacity(nd + 1), Vec::new(), Vec::new());
        dd_p.push(0usize);
        ds_p.push(0usize);
        for &u in rows {
            let (cols, vals) = a.row(u);
            for (&c, &v) in cols.iter().zip(vals) {
                let w = c as usize;
                if domain_of[w] == d as u32 {
                    dd_i.push(local_of[w]);
                    dd_x.push(v);
                } else {
                    assert_eq!(
                        domain_of[w],
                        SeparatorParts::SEPARATOR,
                        "extract_blocks: entry ({u}, {w}) couples two domains"
                    );
                    ds_i.push(local_of[w]);
                    ds_x.push(v);
                }
            }
            dd_p.push(dd_i.len());
            ds_p.push(ds_i.len());
        }
        let ns = parts.separator().len();
        a_dd.push(CsrMatrix::from_raw_parts(nd, nd, dd_p, dd_i, dd_x));
        a_ds.push(CsrMatrix::from_raw_parts(nd, ns, ds_p, ds_i, ds_x));
    }

    let ns = parts.separator().len();
    let (mut ss_p, mut ss_i, mut ss_x) = (Vec::with_capacity(ns + 1), Vec::new(), Vec::new());
    ss_p.push(0usize);
    for &u in parts.separator() {
        let (cols, vals) = a.row(u);
        for (&c, &v) in cols.iter().zip(vals) {
            let w = c as usize;
            if domain_of[w] == SeparatorParts::SEPARATOR {
                ss_i.push(local_of[w]);
                ss_x.push(v);
            }
        }
        ss_p.push(ss_i.len());
    }
    ShardedBlocks {
        a_dd,
        a_ds,
        a_ss: CsrMatrix::from_raw_parts(ns, ns, ss_p, ss_i, ss_x),
    }
}

/// Construction knobs for the substructured solver
/// (`sass_solver::ShardedSolver::new`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardOptions {
    /// Requested domain count; `0` picks a size-based heuristic. The
    /// actual count can differ (shallow regions stop splitting,
    /// disconnected components split for free) — read it back from
    /// `ShardedSolver::domain_count`.
    pub domains: usize,
    /// Spill the domain matrices to disk ([`SpillStore`]) and keep at
    /// most one non-resident domain loaded at a time.
    pub out_of_core: bool,
    /// Directory for spill files; `None` uses the system temp dir. A
    /// fresh uniquely-named subdirectory is created either way and
    /// removed when the last owner drops.
    pub spill_dir: Option<PathBuf>,
}

/// Monotone id source for spill subdirectory names (one per store, so
/// concurrent stores in one process never collide).
static SPILL_ID: AtomicU64 = AtomicU64::new(0);

/// On-disk home of the domain blocks `A_dd` in the substructured
/// solver's out-of-core mode: one Matrix Market file per domain in a
/// uniquely-named directory that is deleted when the last [`Arc`] owner
/// drops.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    files: Vec<PathBuf>,
}

impl SpillStore {
    /// Writes every matrix in `mats` to its own file under a fresh
    /// subdirectory of `dir` (system temp dir when `None`).
    ///
    /// # Errors
    ///
    /// Propagates any I/O failure as [`SparseError::Io`](crate::SparseError::Io).
    pub fn create(mats: &[CsrMatrix], dir: Option<&Path>) -> Result<Arc<SpillStore>> {
        let base = dir.map_or_else(std::env::temp_dir, Path::to_path_buf);
        let unique = format!(
            "sass-shard-{}-{}",
            std::process::id(),
            SPILL_ID.fetch_add(1, Ordering::Relaxed)
        );
        let dir = base.join(unique);
        std::fs::create_dir_all(&dir)?;
        let mut files = Vec::with_capacity(mats.len());
        for (d, m) in mats.iter().enumerate() {
            let path = dir.join(format!("domain-{d}.mtx"));
            mmio::write_path(m, &path)?;
            files.push(path);
        }
        Ok(Arc::new(SpillStore { dir, files }))
    }

    /// Reads domain `d` back from disk.
    ///
    /// # Errors
    ///
    /// Propagates any I/O or parse failure as a [`SparseError`](crate::SparseError).
    ///
    /// # Panics
    ///
    /// Panics if `d >= len()`.
    pub fn load(&self, d: usize) -> Result<CsrMatrix> {
        Ok(mmio::read_path(&self.files[d])?.to_csr())
    }

    /// Number of spilled domain matrices.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the store holds no domains.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // Best-effort cleanup: a failure to remove a temp file must not
        // panic in drop (double-panic aborts), so errors are swallowed.
        for f in &self.files {
            let _ = std::fs::remove_file(f);
        }
        let _ = std::fs::remove_dir(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::vertex_separator;
    use crate::CooMatrix;

    fn grid(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooMatrix::new(n, n);
        let id = |x: usize, y: usize| y * nx + x;
        for y in 0..ny {
            for x in 0..nx {
                coo.push(
                    id(x, y),
                    id(x, y),
                    4.0 + ((x * 7 + y * 3) % 5) as f64 * 0.25,
                );
                if x + 1 < nx {
                    coo.push_sym(id(x, y), id(x + 1, y), -1.0 - (x % 3) as f64 * 0.1);
                }
                if y + 1 < ny {
                    coo.push_sym(id(x, y), id(x, y + 1), -1.0 - (y % 2) as f64 * 0.2);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn extract_blocks_partitions_every_entry() {
        let a = grid(9, 8);
        let parts = vertex_separator(&a, 3);
        let blocks = extract_blocks(&a, &parts);
        // Every entry lands in exactly one block: the separator rows hold
        // A_ss plus the A_sd mirror of every coupling.
        let couplings: usize = blocks.a_ds.iter().map(CsrMatrix::nnz).sum();
        let nnz: usize = blocks.a_dd.iter().map(CsrMatrix::nnz).sum::<usize>()
            + 2 * couplings
            + blocks.a_ss.nnz();
        assert_eq!(nnz, a.nnz());
        // Local numbering: each block entry is the original entry.
        let sep = parts.separator();
        for d in 0..parts.domain_count() {
            let rows = parts.domain(d);
            for (i, &u) in rows.iter().enumerate() {
                let (cols, vals) = blocks.a_dd[d].row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    assert_eq!(v, a.get(u, rows[c as usize]));
                }
                let (cols, vals) = blocks.a_ds[d].row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    assert_eq!(v, a.get(u, sep[c as usize]));
                }
            }
        }
        for (i, &u) in sep.iter().enumerate() {
            let (cols, vals) = blocks.a_ss.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                assert_eq!(v, a.get(u, sep[c as usize]));
            }
        }
    }

    #[test]
    fn spill_store_round_trips_exactly() {
        let a = grid(12, 12);
        let blocks = extract_blocks(&a, &vertex_separator(&a, 4));
        let store = SpillStore::create(&blocks.a_dd, None).unwrap();
        assert_eq!(store.len(), blocks.a_dd.len());
        for (d, want) in blocks.a_dd.iter().enumerate() {
            assert_eq!(&store.load(d).unwrap(), want, "domain {d}");
        }
    }

    #[test]
    fn spill_files_are_cleaned_up_on_drop() {
        let a = grid(6, 6);
        let blocks = extract_blocks(&a, &vertex_separator(&a, 2));
        let store = SpillStore::create(&blocks.a_dd, None).unwrap();
        let dir = store.dir().to_path_buf();
        assert!(dir.exists());
        let clone = Arc::clone(&store);
        drop(store);
        assert!(dir.exists(), "clone still owns the spill store");
        drop(clone);
        assert!(!dir.exists(), "last owner must remove the spill dir");
    }

    #[test]
    fn empty_matrix_is_harmless() {
        let a = CooMatrix::new(0, 0).to_csr();
        let blocks = extract_blocks(&a, &vertex_separator(&a, 2));
        assert!(blocks.a_dd.iter().all(|m| m.nnz() == 0));
        assert_eq!(blocks.a_ss.nnz(), 0);
        let store = SpillStore::create(&blocks.a_dd, None).unwrap();
        assert_eq!(store.len(), blocks.a_dd.len());
    }
}
