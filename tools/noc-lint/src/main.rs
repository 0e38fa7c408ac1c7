//! `noc-lint` — the workspace determinism & unsafety static-analysis gate.
//!
//! The determinism contract (sharded, napped, warm-reset and replayed runs
//! are bit-identical) is enforced dynamically by
//! `tests/determinism.rs` and the golden suites — but a dynamic test only
//! catches a hazard after someone writes the test that trips it. This tool
//! makes the contract machine-checked at the source level: it walks every
//! `.rs` file under `crates/`, `src/`, `tests/` and `examples/` and enforces
//! the typed rule set in [`rules`] (D-rules for determinism, U-rules for
//! unsafety, R-rules for registry/docs drift).
//!
//! ```text
//! noc-lint check [--root DIR] [--config FILE] [--summary FILE] [PATH…]
//! noc-lint rules
//! ```
//!
//! With no `PATH` arguments `check` scans the workspace rooted at `--root`
//! (default: the repo containing this tool) and runs every rule; with
//! explicit paths it runs the file-local D/U rules on just those files —
//! used by the testdata corpus and for spot checks. Exceptions live in
//! `tools/noc_lint.toml` as per-site `file:line` waivers with mandatory
//! justifications (see [`config`]). The report is a markdown table printed
//! to stdout and appended to `$GITHUB_STEP_SUMMARY` when set; the exit code
//! is 1 when any unwaived finding (or stale waiver) remains, 2 on
//! usage/config errors.

mod config;
mod lexer;
mod rules;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rules::Finding;

/// Workspace directories the gate walks (repo-relative).
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Repo-relative path of the waiver/allowlist config.
const CONFIG_PATH: &str = "tools/noc_lint.toml";

/// Repo-relative path of the experiment registry (R01 input).
const REGISTRY_PATH: &str = "crates/bench/src/registry.rs";

/// Repo-relative path of the README (R01 target).
const README_PATH: &str = "README.md";

const USAGE: &str = "\
usage:
  noc-lint check [--root DIR] [--config FILE] [--summary FILE] [PATH...]
  noc-lint rules

`check` with no PATH arguments scans crates/, src/, tests/ and examples/
under --root (default: this repo) with the full D/U/R rule set; with PATHs
it runs the file-local D/U rules on those files/directories only. The
markdown finding table goes to stdout, --summary and $GITHUB_STEP_SUMMARY;
exit 1 on any unwaived finding, 2 on usage/config errors.";

#[derive(Debug, Default)]
struct Args {
    root: Option<String>,
    config: Option<String>,
    summary: Option<String>,
    paths: Vec<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(String, Args), String> {
    let command = argv.next().ok_or(USAGE)?;
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--root" => args.root = Some(value()?),
            "--config" => args.config = Some(value()?),
            "--summary" => args.summary = Some(value()?),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}\n{USAGE}"))
            }
            path => args.paths.push(path.to_owned()),
        }
    }
    Ok((command, args))
}

/// The repo root this binary was built in: `tools/noc-lint/../..`.
fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("tools/noc-lint sits two levels below the repo root")
        .to_path_buf()
}

/// Recursively collects `.rs` files under `dir`, sorted for a deterministic
/// report order.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // `target/` never holds sources we own.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Repo-relative, forward-slash form of `path` for findings and waivers.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_check(args: &Args) -> Result<bool, String> {
    let root = args.root.as_ref().map_or_else(default_root, PathBuf::from);
    let config_path = args
        .config
        .as_ref()
        .map_or_else(|| root.join(CONFIG_PATH), PathBuf::from);
    let config = config::parse(&read(&config_path)?)
        .map_err(|e| format!("{}: {e}", config_path.display()))?;

    // Allowlisted files must exist: a rename would otherwise silently widen
    // the exemption to nothing while the moved code loses its waiver.
    for (rule, files) in &config.allow_files {
        for file in files {
            if !root.join(file).is_file() {
                return Err(format!(
                    "{}: [allow.{rule}] names missing file {file}",
                    config_path.display()
                ));
            }
        }
    }

    let workspace_mode = args.paths.is_empty();
    let mut sources = Vec::new();
    if workspace_mode {
        for scan_root in SCAN_ROOTS {
            let dir = root.join(scan_root);
            if dir.is_dir() {
                collect_rs_files(&dir, &mut sources)?;
            }
        }
    } else {
        for path in &args.paths {
            let path = PathBuf::from(path);
            if path.is_dir() {
                collect_rs_files(&path, &mut sources)?;
            } else {
                sources.push(path);
            }
        }
    }

    let mut findings = Vec::new();
    for path in &sources {
        let rel = rel_path(&root, path);
        findings.extend(rules::check_file(&rel, &read(path)?, &config));
    }

    if workspace_mode {
        let ids = rules::registry_ids(&read(&root.join(REGISTRY_PATH))?);
        if ids.is_empty() {
            return Err(format!(
                "{REGISTRY_PATH}: found no `id: \"…\"` experiment entries — registry moved?"
            ));
        }
        findings.extend(rules::check_readme_mentions(
            REGISTRY_PATH,
            &ids,
            &read(&root.join(README_PATH))?,
        ));
    }

    let stale = rules::apply_waivers(&mut findings, &config);
    findings.extend(stale);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    let violations = findings.iter().filter(|f| f.waived.is_none()).count();
    let waived = findings.len() - violations;
    let table = render_table(&findings, violations, waived, sources.len());
    print!("{table}");

    let summary_targets = args.summary.clone().into_iter().chain(
        std::env::var("GITHUB_STEP_SUMMARY")
            .ok()
            .filter(|p| !p.is_empty()),
    );
    for path in summary_targets {
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(table.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }

    if violations > 0 {
        eprintln!("noc-lint: {violations} unwaived finding(s)");
    }
    Ok(violations == 0)
}

fn render_table(findings: &[Finding], violations: usize, waived: usize, scanned: usize) -> String {
    let mut out = String::from("## noc-lint: determinism & unsafety gate\n\n");
    if findings.is_empty() {
        let _ = writeln!(
            out,
            "No findings across {scanned} source file(s) — the determinism and unsafety \
             contracts hold at the source level.\n"
        );
        return out;
    }
    let _ = writeln!(
        out,
        "{violations} violation(s), {waived} waived exception(s) across {scanned} source \
         file(s).\n"
    );
    out.push_str("| rule | site | finding | status |\n|---|---|---|---|\n");
    for f in findings {
        let status = match &f.waived {
            Some(justification) => format!("waived: {justification}"),
            None => "**VIOLATION** ❌".to_owned(),
        };
        let _ = writeln!(
            out,
            "| {} | `{}:{}` | {} | {} |",
            f.rule, f.file, f.line, f.message, status
        );
    }
    out.push('\n');
    out
}

fn render_rules() -> String {
    let mut out = String::from("noc-lint rule set:\n");
    for rule in rules::RULES {
        let _ = writeln!(out, "  {:4} {}", rule.id, rule.summary);
    }
    out.push_str("\nWaivers: tools/noc_lint.toml, per-site file:line anchors with mandatory\njustifications. See ARCHITECTURE.md \"Static analysis and the determinism\ncontract\".\n");
    out
}

fn main() -> ExitCode {
    let (command, args) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("noc-lint: {message}");
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "rules" => {
            print!("{}", render_rules());
            ExitCode::SUCCESS
        }
        "check" => match run_check(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("noc-lint: {message}");
                ExitCode::from(2)
            }
        },
        other => {
            eprintln!("noc-lint: unknown command {other}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The testdata corpus: each snippet must trip its rule exactly once.
    /// (`u01_missing_safety.rs` also trips U02 by construction — `unsafe`
    /// outside the allowlist — so the assertion filters by rule id.)
    #[test]
    fn testdata_corpus_fires_each_rule_exactly_once() {
        let corpus = [
            ("testdata/d01_hashmap.rs", "D01"),
            ("testdata/d02_instant.rs", "D02"),
            ("testdata/d03_thread_rng.rs", "D03"),
            ("testdata/d04_thread_spawn.rs", "D04"),
            ("testdata/d05_env_var.rs", "D05"),
            ("testdata/u01_missing_safety.rs", "U01"),
            ("testdata/u02_unsafe_outside_allowlist.rs", "U02"),
        ];
        let config = config::Config::default();
        for (path, rule) in corpus {
            let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
            let src = std::fs::read_to_string(&full).expect(path);
            let findings = rules::check_file(path, &src, &config);
            let fired: Vec<_> = findings.iter().filter(|f| f.rule == rule).collect();
            assert_eq!(
                fired.len(),
                1,
                "{path}: expected exactly one {rule} finding, got {findings:?}"
            );
        }
    }

    /// The clean-corpus snippet exercises every lexer escape hatch (strings,
    /// raw strings, comments, cfg(test)) and must produce zero findings.
    #[test]
    fn testdata_clean_snippet_is_finding_free() {
        let full = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/clean.rs");
        let src = std::fs::read_to_string(&full).expect("testdata/clean.rs");
        let config = config::Config::default();
        let findings = rules::check_file("testdata/clean.rs", &src, &config);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn render_table_reports_waived_and_violations_distinctly() {
        let findings = vec![
            Finding {
                rule: "D01",
                file: "a.rs".into(),
                line: 3,
                message: "hash map".into(),
                waived: None,
            },
            Finding {
                rule: "D02",
                file: "b.rs".into(),
                line: 7,
                message: "instant".into(),
                waived: Some("reporting only".into()),
            },
        ];
        let table = render_table(&findings, 1, 1, 2);
        assert!(table.contains("**VIOLATION**"));
        assert!(table.contains("waived: reporting only"));
        assert!(table.contains("`a.rs:3`"));
    }

    #[test]
    fn args_accept_flags_and_paths() {
        let (command, args) = parse_args(
            ["check", "--root", "/r", "--summary", "/s", "x.rs", "y/"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(command, "check");
        assert_eq!(args.root.as_deref(), Some("/r"));
        assert_eq!(args.summary.as_deref(), Some("/s"));
        assert_eq!(args.paths, ["x.rs", "y/"]);
        assert!(parse_args(["check", "--bogus"].into_iter().map(String::from)).is_err());
    }
}
