//! Process-wide configuration from the environment.
//!
//! This module is the *only* sanctioned home for `SASS_*` environment
//! reads (enforced by `sass-lint`'s `env-reads` rule): one documented
//! accessor per variable, each read exactly once per process and cached,
//! with malformed values surfaced as a panic naming the variable instead
//! of being silently ignored. Flipping a variable after the first read
//! has no effect — tests that need in-process A/B use the explicit
//! override hooks ([`crate::pool::set_threads`],
//! [`crate::pool::Pool::with_threads`]) instead.
//!
//! | Variable       | Accessor             | Accepted values              |
//! |----------------|----------------------|------------------------------|
//! | `SASS_THREADS` | [`threads_override`] | unset / `""` / `0` (auto), k ≥ 1 |

use std::sync::OnceLock;

/// Worker-count override from `SASS_THREADS`.
///
/// `None` means "no override" (the pool sizes itself from available
/// parallelism); `Some(k)` forces `k` workers. Unset, empty, and `0` all
/// mean auto. Anything that is not a non-negative integer panics — a typo
/// in `SASS_THREADS` must not silently fall back to auto-sizing.
pub fn threads_override() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let raw = std::env::var("SASS_THREADS").ok();
        match parse_threads(raw.as_deref()) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    })
}

/// Pure parser behind [`threads_override`], split out so the accepted
/// grammar is unit-testable without mutating process environment.
fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(None);
    }
    match raw.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(k) => Ok(Some(k)),
        Err(_) => Err(format!(
            "SASS_THREADS must be a non-negative integer (0 or unset = auto), got `{raw}`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_grammar() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("")), Ok(None));
        assert_eq!(parse_threads(Some("  ")), Ok(None));
        assert_eq!(parse_threads(Some("0")), Ok(None));
        assert_eq!(parse_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads(Some(" 8 ")), Ok(Some(8)));
        assert!(parse_threads(Some("eight")).is_err());
        assert!(parse_threads(Some("-2")).is_err());
        assert!(parse_threads(Some("3.5")).is_err());
    }

    #[test]
    fn parse_errors_name_the_variable() {
        assert!(parse_threads(Some("x"))
            .unwrap_err()
            .contains("SASS_THREADS"));
    }
}
