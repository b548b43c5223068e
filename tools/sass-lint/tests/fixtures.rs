//! Fixture-based suite sensitivity for every lint rule (the PR 6 canary
//! pattern applied to the linter itself): per rule, one file that must
//! trip it, one that must pass, and proof that disabling the rule
//! silences the trip — so a rule regression (a rule that silently stops
//! firing) fails this suite instead of going unnoticed.
//!
//! The final test runs the checker over the real workspace with the real
//! `lint.toml`, so `cargo test -p sass-lint` enforces repo cleanliness
//! even where CI's dedicated lint job is not wired up.

use std::path::{Path, PathBuf};

use sass_lint::{check_workspace, Config, Finding, Rule};

fn fixture_root(rule: Rule) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule.id())
}

/// Runs only `rule` over its fixture directory.
fn run_rule(rule: Rule, cfg: &Config) -> Vec<Finding> {
    let disabled: Vec<String> = Rule::ALL
        .into_iter()
        .filter(|r| *r != rule)
        .map(|r| r.id().to_string())
        .collect();
    check_workspace(&fixture_root(rule), cfg, &disabled).expect("fixture lint run")
}

/// Runs with *every* rule disabled — the trip file must go silent,
/// proving the finding really came from the rule under test.
fn run_all_disabled(rule: Rule, cfg: &Config) -> Vec<Finding> {
    let disabled: Vec<String> = Rule::ALL.into_iter().map(|r| r.id().to_string()).collect();
    check_workspace(&fixture_root(rule), cfg, &disabled).expect("fixture lint run")
}

fn assert_trips_only_in(findings: &[Finding], rule: Rule) {
    assert!(
        !findings.is_empty(),
        "{}: trip fixture produced no finding — the rule went dead",
        rule.id()
    );
    for f in findings {
        assert_eq!(f.rule, rule.id(), "unexpected rule in {f}");
        assert_eq!(f.file, "trip.rs", "only trip.rs may trip: {f}");
    }
}

#[test]
fn unsafe_safety_fixture() {
    let rule = Rule::UnsafeSafety;
    let cfg = Config::default();
    assert_trips_only_in(&run_rule(rule, &cfg), rule);
    assert!(run_all_disabled(rule, &cfg).is_empty());
}

#[test]
fn no_fma_fixture() {
    let rule = Rule::NoFma;
    let cfg = Config::default();
    assert_trips_only_in(&run_rule(rule, &cfg), rule);
    assert!(run_all_disabled(rule, &cfg).is_empty());
}

#[test]
fn no_unwrap_fixture() {
    let rule = Rule::NoUnwrap;
    let cfg = Config::default();
    assert_trips_only_in(&run_rule(rule, &cfg), rule);
    assert!(run_all_disabled(rule, &cfg).is_empty());
}

#[test]
fn static_mut_escape_fixture() {
    let rule = Rule::StaticMut;
    let cfg = Config::default();
    assert_trips_only_in(&run_rule(rule, &cfg), rule);
    assert!(run_all_disabled(rule, &cfg).is_empty());
}

#[test]
fn env_reads_fixture() {
    let rule = Rule::EnvReads;
    let cfg = Config::default();
    assert_trips_only_in(&run_rule(rule, &cfg), rule);
    assert!(run_all_disabled(rule, &cfg).is_empty());

    // Sanctioning the file silences the finding — the allow-file
    // mechanism behind `[env-reads] allow` in lint.toml.
    let sanctioned = Config {
        env_allow: vec!["trip.rs".to_string()],
        ..Config::default()
    };
    assert!(run_rule(rule, &sanctioned).is_empty());
}

#[test]
fn target_feature_fixture() {
    let rule = Rule::TargetFeature;
    let cfg = Config {
        dispatch_files: vec!["dispatch.rs".to_string()],
        ..Config::default()
    };
    // trip.rs calls the def.rs kernel without detection; dispatch.rs makes
    // the same call but is configured as the dispatch module.
    assert_trips_only_in(&run_rule(rule, &cfg), rule);
    assert!(run_all_disabled(rule, &cfg).is_empty());

    // Without any configured dispatch file, the detection-guarded caller
    // trips too — the rule has no built-in notion of "looks guarded".
    let bare = Config::default();
    let findings = run_rule(rule, &bare);
    assert!(
        findings.iter().any(|f| f.file == "dispatch.rs"),
        "undeclared dispatch file must not be implicitly trusted: {findings:?}"
    );
}

#[test]
fn pub_consumer_fixture() {
    let rule = Rule::PubConsumer;
    let cfg = Config::default();
    // trip.rs's `orphan` is named elsewhere only by clean.rs's multi-line
    // `pub use` and a doc comment; clean.rs's `consumed` is called from
    // trip.rs.
    let findings = run_rule(rule, &cfg);
    assert_trips_only_in(&findings, rule);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("`pub fn orphan`"),
        "{findings:?}"
    );
    assert!(run_all_disabled(rule, &cfg).is_empty());

    // Outside the configured paths a `pub fn` is not collected.
    let elsewhere = Config {
        consumer_paths: vec!["clean.rs".to_string()],
        ..Config::default()
    };
    assert!(run_rule(rule, &elsewhere).is_empty());
}

#[test]
fn allowlist_suppresses_and_reports_stale_entries() {
    let rule = Rule::NoUnwrap;

    // The exact `path:line:rule` key suppresses the finding.
    let baseline = run_rule(rule, &Config::default());
    assert_eq!(baseline.len(), 1, "{baseline:?}");
    let key = format!(
        "{}:{}:{}",
        baseline[0].file, baseline[0].line, baseline[0].rule
    );
    let allowed = Config {
        allow: vec![key],
        ..Config::default()
    };
    assert!(run_rule(rule, &allowed).is_empty());

    // An entry matching nothing is itself a finding — the list cannot
    // silently accrete dead exceptions.
    let stale = Config {
        allow: vec!["nope.rs:1:no-unwrap".to_string()],
        ..Config::default()
    };
    let findings = run_rule(rule, &stale);
    assert!(
        findings.iter().any(|f| f.rule == "allowlist"),
        "stale entry must be reported: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == rule.id()),
        "the unmatched finding must survive: {findings:?}"
    );
}

/// The real workspace, with the real `lint.toml`, must be clean — this is
/// the merge gate the CI lint job enforces, duplicated here so plain
/// `cargo test` catches a violation the moment it is introduced.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let toml = std::fs::read_to_string(root.join("lint.toml")).expect("read lint.toml");
    let cfg = Config::parse(&toml).expect("parse lint.toml");
    let findings = check_workspace(&root, &cfg, &[]).expect("workspace lint run");
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
