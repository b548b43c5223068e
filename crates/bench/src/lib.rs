//! Reproduction harness for the DAC'18 paper's tables and figures.
//!
//! One **binary** per table/figure regenerates the paper's rows on the
//! synthetic workload catalog ([`workloads`]); one **Criterion bench** per
//! table/figure measures the underlying kernels. The recorded
//! `BENCH_*.json` baselines live at the repository root (README.md
//! describes each), and ARCHITECTURE.md's "Where does X live?" table maps
//! every measured subsystem to its module.
//!
//! Run the row printers with, e.g.:
//!
//! ```text
//! cargo run -p sass-bench --release --bin table2
//! ```

#![deny(missing_docs)]

pub mod workloads;

use std::time::{Duration, Instant};

/// Times a closure, returning its output and the wall-clock duration.
pub fn timeit<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Formats a duration as compact seconds (e.g. `0.52s`).
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

/// Formats a byte count as mebibytes (e.g. `12.3M`).
pub fn fmt_mib(bytes: usize) -> String {
    format!("{:.1}M", bytes as f64 / (1024.0 * 1024.0))
}

/// The SIMD dispatch modes a bench should A/B: the detected tier (no
/// override) and, when that tier is above scalar, a forced-scalar row.
/// Pass each `Option<SimdLevel>` to [`sass_sparse::kernel::set_level`]
/// and use the string in the bench row label.
pub fn simd_modes() -> Vec<(&'static str, Option<sass_sparse::kernel::SimdLevel>)> {
    use sass_sparse::kernel::{detected, SimdLevel};
    let mut modes = vec![(detected().name(), None)];
    if detected() != SimdLevel::Scalar {
        modes.push(("scalar", Some(SimdLevel::Scalar)));
    }
    modes
}

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes and control characters — the classes that would corrupt a
/// hand-built record).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Replaces (or appends) the line carrying `needle` in the JSON-lines
/// file at `path` with `rec`, so repeated runs keep exactly one record
/// per key instead of accumulating duplicates.
fn upsert_json_line(path: &str, needle: &str, rec: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut out = String::with_capacity(existing.len() + rec.len() + 1);
    for line in existing.lines().filter(|l| !l.contains(needle)) {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(rec);
    out.push('\n');
    std::fs::write(path, out)
}

/// Appends `rec` as one JSON line to the `CRITERION_JSON` baseline file
/// when that variable is set — the bench harness's sanctioned home for
/// that env read (see `lint.toml` `[env-reads]`). Failures are reported
/// to stderr, not fatal: summary records are best-effort side outputs.
pub fn append_json_record(rec: &str) {
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                use std::io::Write as _;
                writeln!(f, "{rec}")
            });
        if let Err(e) = written {
            eprintln!("bench: could not write {path}: {e}");
        }
    }
}

/// Prints a `# simd: …` provenance line (detected/active dispatch tier,
/// arch, compile-time target features, rustc version, and the host's
/// `available_parallelism` — forced multi-lane rows only measure speedup
/// when it exceeds one) and, when
/// `CRITERION_JSON` is set, upserts the same record into the baseline
/// file as a `{"id":"<group>/provenance", …}` JSON line — so recorded
/// simd-vs-scalar rows carry the toolchain context they were measured
/// under, without duplicate records piling up across runs.
pub fn record_simd_provenance(group: &str) {
    use sass_sparse::kernel;
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let compile_features = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .iter()
    .filter(|&&(_, on)| on)
    .map(|&(name, _)| name)
    .collect::<Vec<_>>()
    .join("+");
    let (detected, active) = (kernel::detected().name(), kernel::active().name());
    let arch = std::env::consts::ARCH;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# simd: detected={detected} active={active} arch={arch} \
         compile_target_features=[{compile_features}] rustc=\"{rustc}\" \
         available_parallelism={cores}"
    );
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        let id = format!("\"id\":\"{}/provenance\"", json_escape(group));
        let rec = format!(
            "{{{id},\"detected\":\"{detected}\",\
             \"active\":\"{active}\",\"arch\":\"{arch}\",\
             \"compile_target_features\":\"{features}\",\
             \"rustc\":\"{rustc}\",\"available_parallelism\":{cores}}}",
            detected = json_escape(detected),
            active = json_escape(active),
            arch = json_escape(arch),
            features = json_escape(&compile_features),
            rustc = json_escape(&rustc),
        );
        if let Err(e) = upsert_json_line(&path, &id, &rec) {
            eprintln!("provenance: could not write {path}: {e}");
        }
    }
}

/// Simple fixed-width table printer for paper-style rows.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["case", "n", "time"]);
        t.row(["grid", "100", "0.50s"]);
        t.row(["longer-name", "2", "12.00s"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("case"));
        assert!(lines[3].contains("longer-name"));
    }

    #[test]
    fn timing_and_formats() {
        let (v, d) = timeit(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(fmt_secs(d).ends_with('s'));
        assert_eq!(fmt_mib(1024 * 1024), "1.0M");
    }

    #[test]
    fn json_escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape(r#"rustc "nightly""#), r#"rustc \"nightly\""#);
        assert_eq!(json_escape(r"C:\toolchain"), r"C:\\toolchain");
        assert_eq!(json_escape("a\nb\t\u{1}"), "a\\nb\\t\\u0001");
    }

    #[test]
    fn upsert_json_line_replaces_instead_of_appending() {
        let path =
            std::env::temp_dir().join(format!("sass-bench-upsert-{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        std::fs::write(path, "{\"id\":\"other/row\",\"v\":1}\n").unwrap();
        let needle = "\"id\":\"g/provenance\"";
        for v in [1, 2] {
            let rec = format!("{{{needle},\"v\":{v}}}");
            upsert_json_line(path, needle, &rec).unwrap();
        }
        let got = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = got.lines().collect();
        assert_eq!(
            lines,
            vec![
                "{\"id\":\"other/row\",\"v\":1}",
                "{\"id\":\"g/provenance\",\"v\":2}"
            ],
            "unrelated rows kept, keyed row overwritten"
        );
        let _ = std::fs::remove_file(path);
    }
}
