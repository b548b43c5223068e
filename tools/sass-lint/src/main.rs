//! `sass-lint check`: walk the workspace and enforce the repo invariants.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use sass_lint::{check_workspace, Config, Rule};

const USAGE: &str = "usage: sass-lint check [--root DIR] [--config FILE] [--disable RULE]...

Rules: unsafe-safety, no-fma, target-feature-callers, no-unwrap, env-reads,
       static-mut-escape, pub-consumer.
Reads DIR/lint.toml by default (built-in defaults if absent).";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("sass-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("check") => {}
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        other => {
            return Err(format!(
                "expected the `check` subcommand, got {:?}\n{USAGE}",
                other.unwrap_or("<none>")
            ));
        }
    }

    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut disabled: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root wants a directory")?),
            "--config" => {
                config_path = Some(PathBuf::from(args.next().ok_or("--config wants a file")?));
            }
            "--disable" => {
                let id = args.next().ok_or("--disable wants a rule id")?;
                if Rule::from_id(&id).is_none() {
                    return Err(format!("unknown rule `{id}`\n{USAGE}"));
                }
                disabled.push(id);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }

    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let cfg = if config_path.exists() {
        let text = std::fs::read_to_string(&config_path)
            .map_err(|e| format!("read {}: {e}", config_path.display()))?;
        Config::parse(&text)?
    } else {
        Config::default()
    };

    let findings = check_workspace(&root, &cfg, &disabled)?;
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("sass-lint: clean");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("sass-lint: {} finding(s)", findings.len());
        Ok(ExitCode::FAILURE)
    }
}
