//! Static invariant checker for the SASS workspace.
//!
//! The kernel and pool layers lean on contracts `rustc` and clippy cannot
//! see: every `unsafe` site documents its obligation, the f64 kernels
//! never contract into FMA (bit-exactness), `#[target_feature]` functions
//! are only reachable through the detection-guarded dispatch module,
//! library code never panics through `unwrap`/`expect`, environment
//! reads go through the sanctioned config sites, shared mutable
//! state never leaks out as `static mut` or an unsanctioned
//! `UnsafeCell`, and every `pub fn` has a consumer outside its own file.
//! This crate enforces all seven mechanically, with
//! `file:line` findings and a `lint.toml` allowlist for the (rare)
//! justified exception.
//!
//! The build environment has no registry access, so there is no `syn`
//! here: a small comment/string/char-aware lexer masks out non-code text
//! and the rules run over the masked lines. That is deliberately not a
//! full parser — the rules are written so that the lexer's view (idents
//! per line, comment text per line, brace depth) is enough.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Lexer: mask comments, strings, and char literals out of source text.
// ---------------------------------------------------------------------------

/// One source line, split into the code part (comments and literal string
/// and char *contents* replaced by spaces, so byte columns still line up)
/// and the comment text that appeared on the line.
#[derive(Debug, Default, Clone)]
pub struct LineView {
    /// Masked code: what the compiler parses, minus literal payloads.
    pub code: String,
    /// Concatenated comment text from this line (line and block comments).
    pub comment: String,
}

enum LexState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    CharLit,
    RawStr(usize),
}

/// Lexes `src` into per-line views. Handles nested block comments, string
/// escapes, raw strings (`r"…"`, `r#"…"#`, `br#"…"#`), byte strings, and
/// the lifetime-vs-char-literal ambiguity after `'`.
pub fn mask_source(src: &str) -> Vec<LineView> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines: Vec<LineView> = Vec::new();
    let mut cur = LineView::default();
    let mut st = LexState::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(st, LexState::LineComment) {
                st = LexState::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            LexState::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    st = LexState::LineComment;
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = LexState::BlockComment(1);
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = LexState::Str;
                    cur.code.push(' ');
                    i += 1;
                } else if (c == 'r' || c == 'b')
                    && !(i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_'))
                {
                    // Possible raw/byte string prefix. Only treat it as a
                    // literal if the prefix is actually followed by `"`;
                    // otherwise it is an ident (or a raw ident like r#fn).
                    let mut j = i;
                    let raw = if c == 'b' && chars.get(i + 1) == Some(&'r') {
                        j += 2;
                        true
                    } else if c == 'r' {
                        j += 1;
                        true
                    } else {
                        j += 1; // bare `b`: byte string or byte char prefix
                        false
                    };
                    let mut hashes = 0usize;
                    if raw {
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                    }
                    match chars.get(j) {
                        Some(&'"') => {
                            for _ in i..=j {
                                cur.code.push(' ');
                            }
                            i = j + 1;
                            st = if raw {
                                LexState::RawStr(hashes)
                            } else {
                                LexState::Str
                            };
                        }
                        Some(&'\'') if !raw => {
                            cur.code.push_str("  ");
                            i = j + 1;
                            st = LexState::CharLit;
                        }
                        _ => {
                            cur.code.push(c);
                            i += 1;
                        }
                    }
                } else if c == '\'' {
                    // `'a` is a lifetime, `'a'` / `'\n'` are char literals.
                    let is_char = match chars.get(i + 1) {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        st = LexState::CharLit;
                        cur.code.push(' ');
                        i += 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            LexState::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            LexState::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    st = if depth == 1 {
                        LexState::Code
                    } else {
                        LexState::BlockComment(depth - 1)
                    };
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = LexState::BlockComment(depth + 1);
                    cur.comment.push_str("/*");
                    cur.code.push_str("  ");
                    i += 2;
                } else {
                    cur.comment.push(c);
                    cur.code.push(' ');
                    i += 1;
                }
            }
            LexState::Str => {
                if c == '\\' {
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = LexState::Code;
                    cur.code.push(' ');
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            LexState::CharLit => {
                if c == '\\' {
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    st = LexState::Code;
                    cur.code.push(' ');
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            LexState::RawStr(hashes) => {
                if c == '"' {
                    let mut k = 0usize;
                    while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                        k += 1;
                    }
                    if k == hashes {
                        st = LexState::Code;
                        for _ in 0..=hashes {
                            cur.code.push(' ');
                        }
                        i += 1 + hashes;
                        continue;
                    }
                }
                cur.code.push(' ');
                i += 1;
            }
        }
    }
    // Mirror `str::lines()`: a trailing newline does not start a final
    // empty line.
    if !src.is_empty() && !src.ends_with('\n') {
        lines.push(cur);
    }
    lines
}

fn idents(line: &str) -> Vec<(usize, &str)> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        if b[i].is_ascii_alphabetic() || b[i] == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            out.push((start, &line[start..i]));
        } else {
            i += 1;
        }
    }
    out
}

fn next_nonspace(line: &str, from: usize) -> Option<char> {
    line[from..].chars().find(|c| !c.is_whitespace())
}

fn prev_nonspace(line: &str, upto: usize) -> Option<char> {
    line[..upto].chars().rev().find(|c| !c.is_whitespace())
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// The seven enforced invariants. String ids are what `--disable` and the
/// allowlist use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Every `unsafe` keyword has a `SAFETY:` (or `# Safety` doc section)
    /// comment within the configured window of preceding lines.
    UnsafeSafety,
    /// No fused-multiply-add in the bit-exact crate: `mul_add`,
    /// `*fmadd*` intrinsics, `vfma*` intrinsics.
    NoFma,
    /// `#[target_feature]` functions are only called from their defining
    /// file or the configured dispatch module(s).
    TargetFeature,
    /// No `.unwrap()` / `.expect(` in non-test library code of the
    /// configured paths.
    NoUnwrap,
    /// `std::env::var` / `var_os` reads confined to allowlisted files.
    EnvReads,
    /// No `static mut` items anywhere, and no `UnsafeCell` outside the
    /// sanctioned interior-mutability sites — the lexer cannot do escape
    /// analysis, so possession is what trips, with `cell-allow` naming
    /// the files whose cells are audited by hand.
    StaticMut,
    /// Every `pub fn` outside `#[cfg(test)]` in the configured paths is
    /// named on a code line of some other scanned file — a call, an
    /// import, a path — other than a `pub use` re-export. Comments and
    /// strings are masked, so a doc mention is not a consumer.
    PubConsumer,
}

impl Rule {
    pub const ALL: [Rule; 7] = [
        Rule::UnsafeSafety,
        Rule::NoFma,
        Rule::TargetFeature,
        Rule::NoUnwrap,
        Rule::EnvReads,
        Rule::StaticMut,
        Rule::PubConsumer,
    ];

    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsafeSafety => "unsafe-safety",
            Rule::NoFma => "no-fma",
            Rule::TargetFeature => "target-feature-callers",
            Rule::NoUnwrap => "no-unwrap",
            Rule::EnvReads => "env-reads",
            Rule::StaticMut => "static-mut-escape",
            Rule::PubConsumer => "pub-consumer",
        }
    }

    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }
}

/// One lint hit: file (workspace-relative, `/`-separated), 1-based line,
/// rule id, and a human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lint configuration, usually parsed from `lint.toml` at the workspace
/// root. The zero-config default applies every rule everywhere (empty
/// path lists mean "all files"), which is what the fixture tests use.
#[derive(Debug, Clone)]
pub struct Config {
    /// How many lines above an `unsafe` keyword to search for a
    /// `SAFETY:` / `# Safety` comment.
    pub safety_window: usize,
    /// Path prefixes the FMA ban applies to (empty = everywhere).
    pub fma_paths: Vec<String>,
    /// Files allowed to call `#[target_feature]` functions (the
    /// detection-guarded dispatchers).
    pub dispatch_files: Vec<String>,
    /// Path prefixes the unwrap/expect ban applies to (empty = everywhere).
    pub unwrap_paths: Vec<String>,
    /// Files allowed to read environment variables.
    pub env_allow: Vec<String>,
    /// Files allowed to name `UnsafeCell` (sanctioned interior-mutability
    /// sites). `static mut` has no sanctioned home.
    pub cell_allow: Vec<String>,
    /// Path prefixes whose `pub fn`s must have a consumer in another file
    /// (empty = everywhere).
    pub consumer_paths: Vec<String>,
    /// Path prefixes to skip entirely.
    pub exclude: Vec<String>,
    /// Justified exceptions, as `path:line:rule-id` entries. Entries that
    /// match nothing are themselves reported (stale allowlist).
    pub allow: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            safety_window: 8,
            fma_paths: Vec::new(),
            dispatch_files: Vec::new(),
            unwrap_paths: Vec::new(),
            env_allow: Vec::new(),
            cell_allow: Vec::new(),
            consumer_paths: Vec::new(),
            exclude: Vec::new(),
            allow: Vec::new(),
        }
    }
}

impl Config {
    /// Parses the `lint.toml` subset: `[section]` headers, `key = value`
    /// with integer, `"string"`, or (possibly multiline) `["a", "b"]`
    /// values, and `#` comments. Unknown sections or keys are errors —
    /// a typo must not silently disable a rule.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((ln, raw)) = lines.next() {
            let line = strip_toml_comment(raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| format!("lint.toml:{}: unterminated section", ln + 1))?;
                section = name.trim().to_string();
                continue;
            }
            let (key, mut value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .ok_or_else(|| format!("lint.toml:{}: expected `key = value`", ln + 1))?;
            // Multiline arrays: keep consuming until the closing bracket.
            if value.starts_with('[') && !value.ends_with(']') {
                loop {
                    let (cln, cont) = lines
                        .next()
                        .ok_or_else(|| format!("lint.toml:{}: unterminated array", ln + 1))?;
                    let cont = strip_toml_comment(cont);
                    value.push(' ');
                    value.push_str(cont.trim());
                    if cont.trim_end().ends_with(']') {
                        break;
                    }
                    if cln > ln + 500 {
                        return Err(format!("lint.toml:{}: runaway array", ln + 1));
                    }
                }
            }
            cfg.apply(&section, &key, &value)
                .map_err(|e| format!("lint.toml:{}: {e}", ln + 1))?;
        }
        Ok(cfg)
    }

    fn apply(&mut self, section: &str, key: &str, value: &str) -> Result<(), String> {
        match (section, key) {
            ("unsafe-safety", "window") => {
                self.safety_window = value
                    .parse::<usize>()
                    .map_err(|_| format!("`window` wants an integer, got `{value}`"))?;
            }
            ("no-fma", "paths") => self.fma_paths = parse_string_array(value)?,
            ("target-feature-callers", "dispatch") => {
                self.dispatch_files = parse_string_array(value)?
            }
            ("no-unwrap", "paths") => self.unwrap_paths = parse_string_array(value)?,
            ("env-reads", "allow") => self.env_allow = parse_string_array(value)?,
            ("static-mut-escape", "cell-allow") => self.cell_allow = parse_string_array(value)?,
            ("pub-consumer", "paths") => self.consumer_paths = parse_string_array(value)?,
            ("exclude", "paths") => self.exclude = parse_string_array(value)?,
            ("allow", "findings") => self.allow = parse_string_array(value)?,
            _ => return Err(format!("unknown key `{key}` in section `[{section}]`")),
        }
        Ok(())
    }
}

fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected a [\"…\"] array, got `{value}`"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let s = item
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("array items must be quoted strings, got `{item}`"))?;
        out.push(s.to_string());
    }
    Ok(out)
}

fn path_matches(rel: &str, prefixes: &[String]) -> bool {
    prefixes.is_empty() || prefixes.iter().any(|p| rel.starts_with(p.as_str()))
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

/// A lexed source file, with its workspace-relative path.
pub struct FileView {
    pub rel: String,
    pub lines: Vec<LineView>,
}

impl FileView {
    pub fn new(rel: impl Into<String>, source: &str) -> FileView {
        FileView {
            rel: rel.into(),
            lines: mask_source(source),
        }
    }
}

/// Lines inside `#[cfg(test)]` items (the attribute line through the
/// matching close brace, or the terminating semicolon for brace-free
/// items like `use` declarations).
fn test_region_mask(lines: &[LineView]) -> Vec<bool> {
    let n = lines.len();
    let mut mask = vec![false; n];
    let mut i = 0usize;
    while i < n {
        let code = &lines[i].code;
        if !(code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test")) {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut started = false;
        let mut j = i;
        let mut end = n - 1;
        'scan: while j < n {
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => {
                        depth -= 1;
                        if started && depth <= 0 {
                            end = j;
                            break 'scan;
                        }
                    }
                    ';' if !started => {
                        end = j;
                        break 'scan;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// A `#[target_feature]` function definition (pass A of the caller rule).
#[derive(Debug, Clone)]
pub struct TfDef {
    pub file: String,
    pub name: String,
}

/// Collects `#[target_feature]`-annotated fn names from one file.
pub fn collect_target_feature_defs(fv: &FileView) -> Vec<TfDef> {
    let mut defs = Vec::new();
    for (i, lv) in fv.lines.iter().enumerate() {
        if !lv.code.contains("#[target_feature") {
            continue;
        }
        // The fn item follows within a few lines (other attributes and
        // cfg gates may sit in between).
        for lv2 in fv.lines.iter().skip(i).take(10) {
            let ids = idents(&lv2.code);
            if let Some(pos) = ids.iter().position(|&(_, w)| w == "fn") {
                if let Some(&(_, name)) = ids.get(pos + 1) {
                    defs.push(TfDef {
                        file: fv.rel.clone(),
                        name: name.to_string(),
                    });
                }
                break;
            }
        }
    }
    defs
}

/// Runs every per-file rule (all but the cross-file target-feature pass B)
/// on one lexed file.
pub fn check_file(fv: &FileView, cfg: &Config, disabled: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    let enabled = |r: Rule| !disabled.iter().any(|d| d == r.id());

    if enabled(Rule::UnsafeSafety) {
        check_unsafe_safety(fv, cfg, &mut out);
    }
    if enabled(Rule::NoFma) && path_matches(&fv.rel, &cfg.fma_paths) {
        check_no_fma(fv, &mut out);
    }
    if enabled(Rule::NoUnwrap) && path_matches(&fv.rel, &cfg.unwrap_paths) {
        check_no_unwrap(fv, &mut out);
    }
    if enabled(Rule::EnvReads) && !cfg.env_allow.contains(&fv.rel) {
        check_env_reads(fv, &mut out);
    }
    if enabled(Rule::StaticMut) {
        check_static_mut(fv, cfg, &mut out);
    }
    out
}

fn check_unsafe_safety(fv: &FileView, cfg: &Config, out: &mut Vec<Finding>) {
    for (i, lv) in fv.lines.iter().enumerate() {
        if !idents(&lv.code).iter().any(|&(_, w)| w == "unsafe") {
            continue;
        }
        let lo = i.saturating_sub(cfg.safety_window);
        let documented = fv.lines[lo..=i]
            .iter()
            .any(|l| l.comment.contains("SAFETY:") || l.comment.contains("# Safety"));
        if !documented {
            out.push(Finding {
                file: fv.rel.clone(),
                line: i + 1,
                rule: Rule::UnsafeSafety.id(),
                message: format!(
                    "`unsafe` without a `// SAFETY:` comment within {} lines; state the \
                     invariant and who upholds it",
                    cfg.safety_window
                ),
            });
        }
    }
}

fn check_no_fma(fv: &FileView, out: &mut Vec<Finding>) {
    for (i, lv) in fv.lines.iter().enumerate() {
        for &(_, w) in &idents(&lv.code) {
            let hit = w == "mul_add" || w.contains("fmadd") || w.starts_with("vfma");
            if hit {
                out.push(Finding {
                    file: fv.rel.clone(),
                    line: i + 1,
                    rule: Rule::NoFma.id(),
                    message: format!(
                        "`{w}` fuses the multiply-add rounding step; the f64 kernels promise \
                         bit-exact mul-then-add"
                    ),
                });
            }
        }
    }
}

fn check_no_unwrap(fv: &FileView, out: &mut Vec<Finding>) {
    let test_mask = test_region_mask(&fv.lines);
    for (i, lv) in fv.lines.iter().enumerate() {
        if test_mask[i] {
            continue;
        }
        for &(pos, w) in &idents(&lv.code) {
            if w != "unwrap" && w != "expect" {
                continue;
            }
            let method = prev_nonspace(&lv.code, pos) == Some('.')
                && next_nonspace(&lv.code, pos + w.len()) == Some('(');
            if method {
                out.push(Finding {
                    file: fv.rel.clone(),
                    line: i + 1,
                    rule: Rule::NoUnwrap.id(),
                    message: format!(
                        "`.{w}(` in non-test library code; return the error or use \
                         `unreachable!` with the invariant"
                    ),
                });
            }
        }
    }
}

fn check_env_reads(fv: &FileView, out: &mut Vec<Finding>) {
    for (i, lv) in fv.lines.iter().enumerate() {
        if lv.code.contains("env::var") {
            out.push(Finding {
                file: fv.rel.clone(),
                line: i + 1,
                rule: Rule::EnvReads.id(),
                message: "environment read outside the sanctioned config sites; route it \
                          through `sass_sparse::config`"
                    .to_string(),
            });
        }
    }
}

fn check_static_mut(fv: &FileView, cfg: &Config, out: &mut Vec<Finding>) {
    let cell_sanctioned = cfg.cell_allow.contains(&fv.rel);
    for (i, lv) in fv.lines.iter().enumerate() {
        let ids = idents(&lv.code);
        for (k, &(_, w)) in ids.iter().enumerate() {
            if w == "static" && ids.get(k + 1).map(|&(_, w2)| w2) == Some("mut") {
                out.push(Finding {
                    file: fv.rel.clone(),
                    line: i + 1,
                    rule: Rule::StaticMut.id(),
                    message: "`static mut` is mutable global state no tracker can see; \
                              use an atomic, a lock, or pool-owned storage"
                        .to_string(),
                });
            }
            if (w == "UnsafeCell" || w == "SyncUnsafeCell") && !cell_sanctioned {
                out.push(Finding {
                    file: fv.rel.clone(),
                    line: i + 1,
                    rule: Rule::StaticMut.id(),
                    message: format!(
                        "`{w}` outside the sanctioned interior-mutability sites; route \
                         shared mutation through the pool's sync primitives or add this \
                         file to `cell-allow` with an audit note"
                    ),
                });
            }
        }
    }
}

/// Pass B of the target-feature rule: flags calls to any collected
/// `#[target_feature]` fn from outside its defining file and outside the
/// configured dispatch files.
pub fn check_target_feature_callers(
    files: &[FileView],
    defs: &[TfDef],
    cfg: &Config,
) -> Vec<Finding> {
    let mut out = Vec::new();
    if defs.is_empty() {
        return out;
    }
    for fv in files {
        if cfg.dispatch_files.contains(&fv.rel) {
            continue;
        }
        for (i, lv) in fv.lines.iter().enumerate() {
            let ids = idents(&lv.code);
            for (k, &(pos, w)) in ids.iter().enumerate() {
                let Some(def) = defs.iter().find(|d| d.name == w) else {
                    continue;
                };
                if def.file == fv.rel {
                    continue;
                }
                // Skip the definition itself (`fn name(`) and plain
                // mentions that are not calls.
                let is_def = k > 0 && ids[k - 1].1 == "fn";
                let is_call = next_nonspace(&lv.code, pos + w.len()) == Some('(');
                if is_call && !is_def {
                    out.push(Finding {
                        file: fv.rel.clone(),
                        line: i + 1,
                        rule: Rule::TargetFeature.id(),
                        message: format!(
                            "`{w}` is `#[target_feature]` (defined in {}); only the dispatch \
                             module may call it behind runtime detection",
                            def.file
                        ),
                    });
                }
            }
        }
    }
    out
}

/// A `pub fn` definition (pass A of the consumer rule).
#[derive(Debug, Clone)]
pub struct PubFnDef {
    pub file: String,
    pub line: usize,
    pub name: String,
}

/// Collects `pub fn NAME` definitions on code lines outside `#[cfg(test)]`
/// regions. `pub(crate) fn`, `pub const fn` and macro-generated
/// `pub fn $name` are not collected.
pub fn collect_pub_fns(fv: &FileView) -> Vec<PubFnDef> {
    let test_mask = test_region_mask(&fv.lines);
    let mut defs = Vec::new();
    for (i, lv) in fv.lines.iter().enumerate() {
        if test_mask[i] {
            continue;
        }
        let ids = idents(&lv.code);
        for w in ids.windows(3) {
            let [(_, vis), (_, kw), (pos, name)] = [w[0], w[1], w[2]];
            let metavar = pos > 0 && lv.code.as_bytes()[pos - 1] == b'$';
            if vis == "pub" && kw == "fn" && !metavar {
                defs.push(PubFnDef {
                    file: fv.rel.clone(),
                    line: i + 1,
                    name: name.to_string(),
                });
            }
        }
    }
    defs
}

/// Identifiers on `fv`'s code lines, skipping `pub use` re-export
/// statements (which may span lines up to their `;`).
fn consumer_idents(fv: &FileView) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    let mut in_reexport = false;
    for lv in &fv.lines {
        let ids = idents(&lv.code);
        if !in_reexport {
            // `pub use`, or `pub(crate) use` and kin: the visibility's
            // parenthesized path sits between `pub` and `use`.
            let rest = lv.code.trim_start().strip_prefix("pub");
            in_reexport = rest.is_some_and(|r| {
                let r = r.trim_start();
                let r = match r.strip_prefix('(') {
                    Some(inner) => inner.split_once(')').map_or("", |(_, after)| after),
                    None => r,
                };
                r.trim_start().starts_with("use") && ids.iter().any(|&(_, w)| w == "use")
            });
        }
        if in_reexport {
            in_reexport = !lv.code.contains(';');
            continue;
        }
        out.extend(ids.into_iter().map(|(_, w)| w));
    }
    out
}

/// Pass B of the consumer rule: flags each `pub fn` in the configured
/// paths whose name appears in no other file's consumer identifiers.
pub fn check_pub_consumers(files: &[FileView], defs: &[PubFnDef]) -> Vec<Finding> {
    let mut files_naming: HashMap<&str, Vec<&str>> = HashMap::new();
    for fv in files {
        for w in consumer_idents(fv) {
            files_naming.entry(w).or_default().push(fv.rel.as_str());
        }
    }
    defs.iter()
        .filter(|d| {
            files_naming
                .get(d.name.as_str())
                .is_none_or(|fs| fs.iter().all(|f| *f == d.file))
        })
        .map(|d| Finding {
            file: d.file.clone(),
            line: d.line,
            rule: Rule::PubConsumer.id(),
            message: format!(
                "`pub fn {}` is named by no other file outside a `pub use`; delete it, \
                 make it private, or move it under `#[cfg(test)]`",
                d.name
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Workspace runner
// ---------------------------------------------------------------------------

fn walk_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = rel_path(root, &path);
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || path_excluded(&rel, cfg) {
                continue;
            }
            walk_rs_files(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") && !path_excluded(&rel, cfg) {
            out.push(path);
        }
    }
    Ok(())
}

fn path_excluded(rel: &str, cfg: &Config) -> bool {
    cfg.exclude.iter().any(|p| rel.starts_with(p.as_str()))
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints every `.rs` file under `root` (skipping `target/`, dot-dirs, and
/// configured excludes), applies the allowlist, and returns the surviving
/// findings sorted by file and line. Stale allowlist entries are reported
/// as findings themselves.
pub fn check_workspace(
    root: &Path,
    cfg: &Config,
    disabled: &[String],
) -> Result<Vec<Finding>, String> {
    let mut paths = Vec::new();
    walk_rs_files(root, root, cfg, &mut paths)?;
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        files.push(FileView::new(rel_path(root, path), &source));
    }

    let mut findings = Vec::new();
    for fv in &files {
        findings.extend(check_file(fv, cfg, disabled));
    }
    let tf_enabled = !disabled.iter().any(|d| d == Rule::TargetFeature.id());
    if tf_enabled {
        let mut defs = Vec::new();
        for fv in &files {
            defs.extend(collect_target_feature_defs(fv));
        }
        findings.extend(check_target_feature_callers(&files, &defs, cfg));
    }
    if !disabled.iter().any(|d| d == Rule::PubConsumer.id()) {
        let defs: Vec<PubFnDef> = files
            .iter()
            .filter(|fv| path_matches(&fv.rel, &cfg.consumer_paths))
            .flat_map(collect_pub_fns)
            .collect();
        findings.extend(check_pub_consumers(&files, &defs));
    }

    // Allowlist: drop findings with a matching `path:line:rule` entry and
    // report entries that matched nothing (they have gone stale and
    // should be removed so the list never accretes dead exceptions).
    let mut used: BTreeSet<usize> = BTreeSet::new();
    findings.retain(|f| {
        let key = format!("{}:{}:{}", f.file, f.line, f.rule);
        match cfg.allow.iter().position(|a| *a == key) {
            Some(idx) => {
                used.insert(idx);
                false
            }
            None => true,
        }
    });
    for (idx, entry) in cfg.allow.iter().enumerate() {
        if !used.contains(&idx) {
            findings.push(Finding {
                file: "lint.toml".to_string(),
                line: 0,
                rule: "allowlist",
                message: format!("stale allowlist entry `{entry}` matches no finding; remove it"),
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_lines(src: &str) -> Vec<String> {
        mask_source(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn lexer_masks_line_and_block_comments() {
        let lines = mask_source("let a = 1; // unsafe here\n/* unsafe */ let b = 2;\n");
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("unsafe here"));
        assert!(!lines[1].code.contains("unsafe"));
        assert!(lines[1].code.contains("let b = 2;"));
    }

    #[test]
    fn lexer_masks_nested_block_comments() {
        let lines = code_lines("/* outer /* inner */ still comment */ let x = 1;");
        assert!(!lines[0].contains("outer"));
        assert!(!lines[0].contains("still"));
        assert!(lines[0].contains("let x = 1;"));
    }

    #[test]
    fn lexer_masks_strings_and_escapes() {
        let lines = code_lines(r#"let s = "unsafe \" still string"; let t = 1;"#);
        assert!(!lines[0].contains("unsafe"));
        assert!(!lines[0].contains("string"));
        assert!(lines[0].contains("let t = 1;"));
    }

    #[test]
    fn lexer_masks_raw_strings_and_keeps_raw_idents() {
        let lines = code_lines("let s = r#\"has \" quote unsafe\"#; let r#fn = 1;");
        assert!(!lines[0].contains("unsafe"));
        assert!(lines[0].contains("let r#fn = 1;"));
    }

    #[test]
    fn lexer_distinguishes_lifetimes_from_char_literals() {
        let lines = code_lines("fn f<'a>(x: &'a u8) -> char { 'u' }");
        assert!(lines[0].contains("fn f<'a>(x: &'a u8)"));
        assert!(!lines[0].contains('u') || !lines[0].contains("{ 'u' }"));
        let lines = code_lines(r"let c = '\n'; let d = 'x';");
        assert!(!lines[0].contains('n') || !lines[0].contains(r"'\n'"));
    }

    #[test]
    fn lexer_handles_multiline_strings() {
        let lines = code_lines("let s = \"line one\nunsafe line two\"; let x = 1;");
        assert!(!lines[1].contains("unsafe"));
        assert!(lines[1].contains("let x = 1;"));
    }

    #[test]
    fn test_region_mask_covers_mod_tests() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let lines = mask_source(src);
        let mask = test_region_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn config_parses_and_rejects_unknowns() {
        let cfg = Config::parse(
            "# comment\n[unsafe-safety]\nwindow = 4\n[no-fma]\npaths = [\"crates/sparse\"]\n\
             [allow]\nfindings = [\n  \"a.rs:1:no-fma\", # why\n  \"b.rs:2:env-reads\",\n]\n",
        )
        .expect("parse");
        assert_eq!(cfg.safety_window, 4);
        assert_eq!(cfg.fma_paths, vec!["crates/sparse".to_string()]);
        assert_eq!(cfg.allow.len(), 2);
        assert!(Config::parse("[nope]\nx = 1\n").is_err());
        assert!(Config::parse("[unsafe-safety]\nwindow = \"four\"\n").is_err());
    }

    #[test]
    fn unsafe_rule_respects_window_and_comment_kinds() {
        let cfg = Config::default();
        let trip = FileView::new("a.rs", "fn f() {\n    unsafe { core() };\n}\n");
        assert_eq!(check_file(&trip, &cfg, &[]).len(), 1);
        let ok = FileView::new(
            "a.rs",
            "fn f() {\n    // SAFETY: bounds checked above.\n    unsafe { core() };\n}\n",
        );
        assert!(check_file(&ok, &cfg, &[]).is_empty());
        let doc = FileView::new(
            "a.rs",
            "/// # Safety\n///\n/// Caller keeps `p` valid.\npub unsafe fn g(p: *const u8) {}\n",
        );
        assert!(check_file(&doc, &cfg, &[]).is_empty());
        // `unsafe` in a comment or string is not a site.
        let masked = FileView::new("a.rs", "// unsafe is discussed here\nlet s = \"unsafe\";\n");
        assert!(check_file(&masked, &cfg, &[]).is_empty());
    }

    #[test]
    fn fma_rule_catches_all_three_spellings() {
        let cfg = Config::default();
        let src = "let a = x.mul_add(y, z);\nlet b = _mm256_fmadd_pd(p, q, r);\nlet c = vfmaq_f64(u, v, w);\n";
        let f = check_file(&FileView::new("k.rs", src), &cfg, &[]);
        assert_eq!(f.iter().filter(|f| f.rule == "no-fma").count(), 3);
    }

    #[test]
    fn unwrap_rule_skips_tests_and_non_method_uses() {
        let cfg = Config::default();
        let src = "fn lib(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn msg() { log(\"please unwrap ( the gift\"); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.expect(\"fine in tests\"); }\n}\n";
        let f = check_file(&FileView::new("l.rs", src), &cfg, &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn env_rule_honors_allow_files() {
        let src = "let v = std::env::var(\"SASS_THREADS\");\n";
        assert_eq!(
            check_file(&FileView::new("x.rs", src), &Config::default(), &[]).len(),
            1
        );
        let cfg = Config {
            env_allow: vec!["x.rs".to_string()],
            ..Config::default()
        };
        assert!(check_file(&FileView::new("x.rs", src), &cfg, &[]).is_empty());
    }

    #[test]
    fn pub_consumer_rule_skips_reexports_metavars_and_tests() {
        let def_src = "pub fn used() {}\npub fn reexported() {}\npub(crate) fn scoped() {}\n\
                       macro_rules! m { ($g:ident) => { pub fn $g() {} }; }\n\
                       #[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        let user_src = "pub(crate) use crate::a::{\n    reexported,\n};\n\
                        // reexported() in a comment\nfn f() { used(); }\n";
        let files = vec![
            FileView::new("a.rs", def_src),
            FileView::new("b.rs", user_src),
        ];
        let defs: Vec<PubFnDef> = files.iter().flat_map(collect_pub_fns).collect();
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["used", "reexported"]);
        let f = check_pub_consumers(&files, &defs);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].file.as_str(), f[0].line), ("a.rs", 2));
    }

    #[test]
    fn target_feature_rule_flags_undispatched_calls() {
        let def_src =
            "#[target_feature(enable = \"avx2\")]\npub unsafe fn spmv_avx2(x: &[f64]) {}\n\
                       fn local() { unsafe { spmv_avx2(&[]) } }\n";
        let caller_src = "fn f() { unsafe { spmv_avx2(&[]) } }\n";
        let dispatch_src = "fn d() { unsafe { spmv_avx2(&[]) } }\n";
        let files = vec![
            FileView::new("kern/x86.rs", def_src),
            FileView::new("other.rs", caller_src),
            FileView::new("kern/mod.rs", dispatch_src),
        ];
        let defs: Vec<TfDef> = files.iter().flat_map(collect_target_feature_defs).collect();
        assert_eq!(defs.len(), 1);
        let cfg = Config {
            dispatch_files: vec!["kern/mod.rs".to_string()],
            ..Config::default()
        };
        let f = check_target_feature_callers(&files, &defs, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, "other.rs");
    }
}
