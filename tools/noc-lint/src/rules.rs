//! The typed rule set: D (determinism), U (unsafety), R (registry drift).
//!
//! Every rule fires as a [`Finding`] anchored to a `file:line`. Findings are
//! matched against the waiver table from `tools/noc_lint.toml`; an unwaived
//! finding (or a waiver that no longer matches anything) fails the gate.
//!
//! | rule | contract |
//! |------|----------|
//! | D01  | no `HashMap`/`HashSet`/`RandomState` in non-test simulation code (iteration order would leak into results — use `BTreeMap`/`BTreeSet` or index maps) |
//! | D02  | no `Instant`/`SystemTime`/`std::time` outside waived wall-clock reporting sites |
//! | D03  | no `thread_rng`/ambient randomness (all randomness flows from the seeded LFSR/PRBS layer) |
//! | D04  | no thread spawning outside the allowlisted files (parallelism must go through the sweep runners' sharding routine, which pins merge order) |
//! | D05  | no `std::env` reads outside approved config entry points |
//! | U01  | every `unsafe` block/impl carries a `// SAFETY:` comment |
//! | U02  | `unsafe` only in allowlisted files |
//! | R01  | every `Experiment` registry id appears in `README.md` |
//!
//! D-rules apply to simulation code only: files under `tests/` and
//! `#[cfg(test)]` regions are exempt (test-local `HashSet`s cannot perturb
//! simulation results). U-rules apply everywhere.

use crate::config::Config;
use crate::lexer::FileLex;

/// One rule violation (or waived exception) at a source site.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id, e.g. `D01`.
    pub rule: &'static str,
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human explanation of the violation.
    pub message: String,
    /// `Some(justification)` when a waiver from the config matched.
    pub waived: Option<String>,
}

/// Static description of one rule, for `noc-lint rules` and the docs table.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id (`D01` … `R01`).
    pub id: &'static str,
    /// One-line contract statement.
    pub summary: &'static str,
}

/// The rule table, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D01",
        summary: "no HashMap/HashSet/RandomState in non-test simulation code (use BTreeMap/BTreeSet or index maps)",
    },
    RuleInfo {
        id: "D02",
        summary: "no Instant/SystemTime/std::time outside waived wall-clock reporting sites",
    },
    RuleInfo {
        id: "D03",
        summary: "no thread_rng/ambient randomness (randomness flows from the seeded PRBS layer only)",
    },
    RuleInfo {
        id: "D04",
        summary: "no thread spawning outside the allowlisted parallelism layers",
    },
    RuleInfo {
        id: "D05",
        summary: "no std::env reads outside approved config entry points",
    },
    RuleInfo {
        id: "U01",
        summary: "every unsafe block/impl carries a // SAFETY: comment",
    },
    RuleInfo {
        id: "U02",
        summary: "unsafe only in allowlisted files",
    },
    RuleInfo {
        id: "R01",
        summary: "every Experiment registry id appears in README.md",
    },
];

/// Identifier-boundary-aware substring search: `needle` (which may contain
/// `::`) must not be flanked by identifier characters in `haystack`.
fn find_word(haystack: &str, needle: &str) -> Option<usize> {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(at) = haystack[from..].find(needle) {
        let start = from + at;
        let end = start + needle.len();
        let left_ok = start == 0 || !is_ident(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if left_ok && right_ok {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

/// `#[cfg(test)]`-gated regions of the code view, as inclusive 1-indexed
/// line ranges (the attribute line through the close of the following
/// braced item).
fn cfg_test_regions(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut regions = Vec::new();
    let mut search_from = 0usize;
    while let Some(at) = code[search_from..].find("cfg(test)") {
        let attr_at = search_from + at;
        let start_line = 1 + code[..attr_at].bytes().filter(|&b| b == b'\n').count();
        // Find the `{` opening the gated item and match braces to its close.
        let Some(open_rel) = code[attr_at..].find('{') else {
            break;
        };
        let mut i = attr_at + open_rel;
        let mut depth = 0usize;
        let mut line = 1 + code[..i].bytes().filter(|&b| b == b'\n').count();
        let end_line = loop {
            if i >= bytes.len() {
                break line;
            }
            match bytes[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break line;
                    }
                }
                b'\n' => line += 1,
                _ => {}
            }
            i += 1;
        };
        regions.push((start_line, end_line));
        search_from = i.max(attr_at + 1);
    }
    regions
}

/// D-rule pattern groups: `(rule, patterns, message)`.
const D_PATTERNS: &[(&str, &[&str], &str)] = &[
    (
        "D01",
        &["HashMap", "HashSet", "RandomState"],
        "hash-ordered collection in simulation code; iteration order depends on the hasher and \
         breaks bit-identity — use BTreeMap/BTreeSet or an index map",
    ),
    (
        "D02",
        &["Instant", "SystemTime", "std::time"],
        "wall-clock time in simulation code; results must be a pure function of (config, seed) — \
         waive only pure reporting sites",
    ),
    (
        "D03",
        &["thread_rng", "rand::random", "from_entropy", "getrandom"],
        "ambient randomness; all randomness must flow from the seeded LFSR/PRBS layer",
    ),
    (
        "D04",
        &["thread::spawn", "thread::scope", "thread::Builder"],
        "thread spawning outside the allowlisted parallelism layers; ad-hoc threads bypass the \
         fixed merge order that makes parallel runs bit-identical",
    ),
    (
        "D05",
        &["std::env", "env::var", "env::args", "env::vars", "var_os"],
        "environment read outside the approved config entry points; hidden knobs make runs \
         irreproducible from their recorded config",
    ),
];

/// Runs the file-local D/U rules over one source file.
///
/// `rel_path` is the repo-relative path (forward slashes) used for
/// allowlist/waiver matching and in findings.
#[must_use]
pub fn check_file(rel_path: &str, src: &str, config: &Config) -> Vec<Finding> {
    let lex = FileLex::new(src);
    let code_lines = lex.code_lines();
    let test_regions = cfg_test_regions(lex.code_view());
    let in_test_region = |line: usize| {
        test_regions
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    };
    let is_test_file = rel_path.starts_with("tests/");
    let safety_lines: Vec<usize> = lex.comment_lines_containing("SAFETY:");

    let mut findings = Vec::new();
    for (index, line_text) in code_lines.iter().enumerate() {
        let line = index + 1;
        let d_exempt = is_test_file || in_test_region(line);

        if !d_exempt {
            for &(rule, patterns, message) in D_PATTERNS {
                if config.is_allowed(&rule.to_ascii_lowercase(), rel_path) {
                    continue;
                }
                if patterns.iter().any(|p| find_word(line_text, p).is_some()) {
                    findings.push(Finding {
                        rule,
                        file: rel_path.to_owned(),
                        line,
                        message: message.to_owned(),
                        waived: None,
                    });
                }
            }
        }

        // U-rules: apply everywhere, including tests.
        if find_word(line_text, "unsafe").is_some() {
            let documented = has_safety_comment(line, &code_lines, &safety_lines);
            if !documented {
                findings.push(Finding {
                    rule: "U01",
                    file: rel_path.to_owned(),
                    line,
                    message: "unsafe without a `// SAFETY:` comment on the preceding lines"
                        .to_owned(),
                    waived: None,
                });
            }
            if !config.is_allowed("u02", rel_path) {
                findings.push(Finding {
                    rule: "U02",
                    file: rel_path.to_owned(),
                    line,
                    message: "unsafe outside the allowlisted files ([allow.u02] in \
                              tools/noc_lint.toml)"
                        .to_owned(),
                    waived: None,
                });
            }
        }
    }
    findings
}

/// Is there a `SAFETY:` comment attached to the `unsafe` on `line`?
///
/// Accepts a trailing comment on the same line, or a comment in the run of
/// non-code lines (blank, comment-only, attribute) directly above.
fn has_safety_comment(line: usize, code_lines: &[&str], safety_lines: &[usize]) -> bool {
    if safety_lines.contains(&line) {
        return true;
    }
    let mut probe = line;
    while probe > 1 {
        probe -= 1;
        let code = code_lines.get(probe - 1).map_or("", |l| l.trim());
        let non_code = code.is_empty() || code.starts_with("#[");
        if safety_lines.contains(&probe) {
            // Comment-only lines have blank code views, so this line is part
            // of the directly-preceding comment run (or a trailing comment
            // on the nearest code line, which also counts as "attached").
            return true;
        }
        if !non_code {
            return false;
        }
    }
    false
}

/// Extracts the `id: "…"` literals of the `experiments!` registry source.
#[must_use]
pub fn registry_ids(registry_src: &str) -> Vec<(String, usize)> {
    let lex = FileLex::new(registry_src);
    let mut ids = Vec::new();
    let mut prev_code_tail = String::new();
    for span in lex.spans() {
        match span.kind {
            crate::lexer::Kind::Code => {
                prev_code_tail = span.text.trim_end().to_owned();
            }
            crate::lexer::Kind::Literal => {
                let tail: String = prev_code_tail.split_whitespace().collect();
                // `… id:` with an identifier boundary before `id` (so a
                // field named `uid:` never matches).
                let is_id_field = tail.strip_suffix("id:").is_some_and(|rest| {
                    rest.bytes()
                        .next_back()
                        .is_none_or(|b| !b.is_ascii_alphanumeric() && b != b'_')
                });
                if is_id_field {
                    if let Some(id) = span
                        .text
                        .strip_prefix('"')
                        .and_then(|s| s.strip_suffix('"'))
                    {
                        ids.push((id.to_owned(), span.line));
                    }
                }
                prev_code_tail.clear();
            }
            _ => {}
        }
    }
    ids
}

/// R01: every registry id must appear (identifier-bounded) in the README.
#[must_use]
pub fn check_readme_mentions(
    registry_rel: &str,
    ids: &[(String, usize)],
    readme: &str,
) -> Vec<Finding> {
    ids.iter()
        .filter(|(id, _)| find_word(readme, id).is_none())
        .map(|(id, line)| Finding {
            rule: "R01",
            file: registry_rel.to_owned(),
            line: *line,
            message: format!(
                "experiment id `{id}` is not mentioned in README.md — document it next to the \
                 other experiments"
            ),
            waived: None,
        })
        .collect()
}

/// Applies the waiver table: marks matched findings as waived and returns
/// stale waivers (entries that matched nothing) as fresh findings.
pub fn apply_waivers(findings: &mut [Finding], config: &Config) -> Vec<Finding> {
    let mut used = vec![false; config.waivers.len()];
    for finding in findings.iter_mut() {
        if let Some(index) = config.waivers.iter().position(|w| {
            w.rule == finding.rule && w.file == finding.file && w.line == finding.line
        }) {
            finding.waived = Some(config.waivers[index].justification.clone());
            used[index] = true;
        }
    }
    config
        .waivers
        .iter()
        .zip(&used)
        .filter(|&(_, &u)| !u)
        .map(|(waiver, _)| Finding {
            rule: "W00",
            file: waiver.file.clone(),
            line: waiver.line,
            message: format!(
                "stale waiver: no {} finding at {}:{} — the anchored line moved or the site was \
                 fixed; update or remove the waiver ({})",
                waiver.rule, waiver.file, waiver.line, waiver.justification
            ),
            waived: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_config() -> Config {
        Config::default()
    }

    fn rules_fired(findings: &[Finding], rule: &str) -> usize {
        findings.iter().filter(|f| f.rule == rule).count()
    }

    #[test]
    fn d01_fires_on_hashmap_in_sim_code() {
        let findings = check_file(
            "crates/core/src/network.rs",
            "use std::collections::HashMap;\n",
            &no_config(),
        );
        assert_eq!(rules_fired(&findings, "D01"), 1);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn d01_is_silent_in_cfg_test_modules_and_test_files() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert_eq!(
            rules_fired(&check_file("crates/x/src/lib.rs", src, &no_config()), "D01"),
            0
        );
        let findings = check_file(
            "tests/golden.rs",
            "use std::collections::HashMap;\n",
            &no_config(),
        );
        assert_eq!(rules_fired(&findings, "D01"), 0);
    }

    #[test]
    fn d01_is_silent_on_comments_and_strings() {
        let src = "// HashMap in a comment\nlet s = \"HashMap\";\n";
        assert_eq!(
            rules_fired(&check_file("crates/x/src/lib.rs", src, &no_config()), "D01"),
            0
        );
    }

    #[test]
    fn d01_does_not_fire_after_the_test_module_closes() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() {}\n}\nuse std::collections::HashMap;\n";
        let findings = check_file("crates/x/src/lib.rs", src, &no_config());
        assert_eq!(rules_fired(&findings, "D01"), 1);
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn d02_fires_on_instant_and_respects_waivers() {
        let src = "use std::time::Instant;\n";
        let mut findings = check_file("crates/core/src/sweep.rs", src, &no_config());
        // The `use` line matches both `std::time` and `Instant` patterns but
        // fires once per (rule, line).
        assert_eq!(rules_fired(&findings, "D02"), 1);

        let config = crate::config::parse(
            "[[waiver]]\nrule = \"D02\"\nfile = \"crates/core/src/sweep.rs\"\nline = 1\n\
             justification = \"reporting only\"\n",
        )
        .unwrap();
        let stale = apply_waivers(&mut findings, &config);
        assert!(stale.is_empty());
        assert_eq!(findings[0].waived.as_deref(), Some("reporting only"));
    }

    #[test]
    fn stale_waivers_surface_as_findings() {
        let config = crate::config::parse(
            "[[waiver]]\nrule = \"D02\"\nfile = \"crates/core/src/sweep.rs\"\nline = 999\n\
             justification = \"moved\"\n",
        )
        .unwrap();
        let stale = apply_waivers(&mut [], &config);
        assert_eq!(stale.len(), 1);
        assert!(stale[0].message.contains("stale waiver"));
    }

    #[test]
    fn d04_allowlist_exempts_the_listed_file() {
        let src = "std::thread::Builder::new();\n";
        assert_eq!(
            rules_fired(
                &check_file("crates/core/src/other.rs", src, &no_config()),
                "D04"
            ),
            1
        );
        let config =
            crate::config::parse("[allow.d04]\nfiles = [\"crates/x/src/pool.rs\"]\n").unwrap();
        assert_eq!(
            rules_fired(&check_file("crates/x/src/pool.rs", src, &config), "D04"),
            0
        );
    }

    #[test]
    fn d04_ignores_non_thread_spawn_methods() {
        let src = "let pool = WorkerPool::spawn(4); scope.spawn(|| {});\n";
        assert_eq!(
            rules_fired(&check_file("crates/x/src/lib.rs", src, &no_config()), "D04"),
            0
        );
    }

    #[test]
    fn d05_fires_on_env_reads() {
        let src = "let v = std::env::var(\"KNOB\");\n";
        assert_eq!(
            rules_fired(&check_file("crates/x/src/lib.rs", src, &no_config()), "D05"),
            1
        );
    }

    #[test]
    fn u01_accepts_safety_comments_above_and_inline() {
        let documented = "// SAFETY: disjoint indices.\nlet x = unsafe { go() };\n";
        let findings = check_file("crates/x/src/pool.rs", documented, &no_config());
        assert_eq!(rules_fired(&findings, "U01"), 0);

        let inline = "let x = unsafe { go() }; // SAFETY: disjoint indices.\n";
        let findings = check_file("crates/x/src/pool.rs", inline, &no_config());
        assert_eq!(rules_fired(&findings, "U01"), 0);

        let undocumented = "let y = 1;\nlet x = unsafe { go() };\n";
        let findings = check_file("crates/x/src/pool.rs", undocumented, &no_config());
        assert_eq!(rules_fired(&findings, "U01"), 1);
    }

    #[test]
    fn u01_skips_attributes_between_comment_and_item() {
        let src = "// SAFETY: raw pointers are disjoint.\n#[allow(dead_code)]\nunsafe impl Send for X {}\n";
        assert_eq!(
            rules_fired(
                &check_file("crates/x/src/pool.rs", src, &no_config()),
                "U01"
            ),
            0
        );
    }

    #[test]
    fn u02_fires_outside_the_allowlist_even_with_safety_comment() {
        let src = "// SAFETY: looks fine.\nlet x = unsafe { go() };\n";
        let config =
            crate::config::parse("[allow.u02]\nfiles = [\"crates/x/src/pool.rs\"]\n").unwrap();
        assert_eq!(
            rules_fired(&check_file("crates/x/src/pool.rs", src, &config), "U02"),
            0
        );
        assert_eq!(
            rules_fired(&check_file("crates/router/src/lib.rs", src, &config), "U02"),
            1
        );
    }

    #[test]
    fn registry_ids_come_from_the_macro_literals() {
        let src = r#"
            experiments! {
                Fig5 { id: "fig5", desc: "latency vs throughput", run: |_| todo!() },
                // id: "not_this_one" (comment)
                Serving { id: "serving", desc: "closed loop", run: |_| todo!() },
            }
        "#;
        let ids = registry_ids(src);
        let names: Vec<&str> = ids.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(names, ["fig5", "serving"]);
    }

    #[test]
    fn r01_flags_ids_missing_from_readme() {
        let ids = vec![("fig5".to_owned(), 3), ("stress64".to_owned(), 9)];
        let findings =
            check_readme_mentions("crates/bench/src/registry.rs", &ids, "only `fig5` here");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("stress64"));
        assert_eq!(findings[0].line, 9);
    }
}
