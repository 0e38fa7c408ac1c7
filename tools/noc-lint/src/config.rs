//! `tools/noc_lint.toml`: rule allowlists and per-site waivers.
//!
//! The build environment has no `toml` crate, so a small line-oriented
//! parser below handles the subset the config actually uses:
//!
//! ```toml
//! [allow.d04]
//! files = ["crates/core/src/sweep.rs"]
//!
//! [[waiver]]
//! rule = "D02"
//! file = "crates/core/src/sweep.rs"
//! line = 298
//! justification = "wall-clock reporting only"
//! ```
//!
//! Waivers are anchored to an exact `file:line` and carry a mandatory
//! justification; when the anchored line moves, the waiver stops matching
//! and `noc-lint check` fails on **both** the resurfaced finding and the
//! stale waiver — exceptions go stale loudly instead of silently widening.

use std::collections::BTreeMap;

/// One reviewed exception: suppresses exactly one finding at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule id the waiver applies to (e.g. `D02`).
    pub rule: String,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-indexed line the finding sits on.
    pub line: usize,
    /// Why the exception is sound. Mandatory and non-empty.
    pub justification: String,
}

/// Parsed `noc_lint.toml`.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Per-rule file allowlists, keyed by lower-case rule id (`"u02"`).
    pub allow_files: BTreeMap<String, Vec<String>>,
    /// Site waivers, in file order.
    pub waivers: Vec<Waiver>,
}

impl Config {
    /// Is `file` allowlisted for `rule` (lower-case id)?
    #[must_use]
    pub fn is_allowed(&self, rule: &str, file: &str) -> bool {
        self.allow_files
            .get(rule)
            .is_some_and(|files| files.iter().any(|f| f == file))
    }
}

/// Parses the config text; errors carry a line number and reason.
pub fn parse(text: &str) -> Result<Config, String> {
    let mut config = Config::default();
    // Current section: None, Some(Section::Allow(rule)) or a waiver under
    // construction.
    enum Section {
        Allow(String),
        Waiver(PartialWaiver),
    }
    #[derive(Default)]
    struct PartialWaiver {
        rule: Option<String>,
        file: Option<String>,
        line: Option<usize>,
        justification: Option<String>,
        header_line: usize,
    }
    fn finish(section: Option<Section>, config: &mut Config) -> Result<(), String> {
        if let Some(Section::Waiver(w)) = section {
            let missing = |what: &str| {
                format!(
                    "waiver starting at line {} is missing `{what}`",
                    w.header_line
                )
            };
            let justification = w.justification.ok_or_else(|| missing("justification"))?;
            if justification.trim().is_empty() {
                return Err(format!(
                    "waiver starting at line {} has an empty justification",
                    w.header_line
                ));
            }
            config.waivers.push(Waiver {
                rule: w.rule.ok_or_else(|| missing("rule"))?,
                file: w.file.ok_or_else(|| missing("file"))?,
                line: w.line.ok_or_else(|| missing("line"))?,
                justification,
            });
        }
        Ok(())
    }

    let mut section: Option<Section> = None;
    for (index, raw) in text.lines().enumerate() {
        let lineno = index + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            finish(section.take(), &mut config)?;
            if header.trim() != "waiver" {
                return Err(format!(
                    "line {lineno}: unknown array-of-tables [[{header}]]"
                ));
            }
            section = Some(Section::Waiver(PartialWaiver {
                header_line: lineno,
                ..PartialWaiver::default()
            }));
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            finish(section.take(), &mut config)?;
            let header = header.trim();
            if let Some(rule) = header.strip_prefix("allow.") {
                section = Some(Section::Allow(rule.to_owned()));
            } else {
                return Err(format!("line {lineno}: unknown section [{header}]"));
            }
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        match section.as_mut() {
            None => return Err(format!("line {lineno}: `{key}` outside any section")),
            Some(Section::Allow(rule)) => {
                if key != "files" {
                    return Err(format!("line {lineno}: [allow.*] only takes `files`"));
                }
                config
                    .allow_files
                    .entry(rule.clone())
                    .or_default()
                    .extend(parse_string_array(value, lineno)?);
            }
            Some(Section::Waiver(w)) => match key {
                "rule" => w.rule = Some(parse_string(value, lineno)?),
                "file" => w.file = Some(parse_string(value, lineno)?),
                "line" => {
                    w.line = Some(value.parse().map_err(|_| {
                        format!("line {lineno}: `line` must be an integer, got `{value}`")
                    })?);
                }
                "justification" => w.justification = Some(parse_string(value, lineno)?),
                other => return Err(format!("line {lineno}: unknown waiver key `{other}`")),
            },
        }
    }
    finish(section.take(), &mut config)?;
    Ok(config)
}

/// Drops a trailing `# comment`, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut prev_backslash = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' if !prev_backslash => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        prev_backslash = ch == '\\' && !prev_backslash;
    }
    line
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("line {lineno}: expected a \"quoted string\", got `{value}`"))?;
    // The config subset needs no escapes beyond literal text; reject
    // backslashes so nobody expects them to work.
    if inner.contains('\\') {
        return Err(format!(
            "line {lineno}: escapes are not supported in strings"
        ));
    }
    Ok(inner.to_owned())
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("line {lineno}: expected a [\"…\", …] array, got `{value}`"))?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(str::trim)
        .filter(|item| !item.is_empty())
        .map(|item| parse_string(item, lineno))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_allowlists_waivers_and_prefixes() {
        let config = parse(
            r#"
            # header comment
            [allow.u02]
            files = ["crates/x/src/pool.rs"]

            [allow.d04]
            files = ["a.rs", "b.rs"]  # trailing comment

            [[waiver]]
            rule = "D02"
            file = "crates/core/src/sweep.rs"
            line = 298
            justification = "wall-clock reporting only"
            "#,
        )
        .unwrap();
        assert!(config.is_allowed("u02", "crates/x/src/pool.rs"));
        assert!(!config.is_allowed("u02", "crates/core/src/network.rs"));
        assert_eq!(config.allow_files["d04"], ["a.rs", "b.rs"]);
        assert_eq!(
            config.waivers,
            [Waiver {
                rule: "D02".into(),
                file: "crates/core/src/sweep.rs".into(),
                line: 298,
                justification: "wall-clock reporting only".into(),
            }]
        );
    }

    #[test]
    fn waiver_without_justification_is_rejected() {
        let err = parse("[[waiver]]\nrule = \"D01\"\nfile = \"x.rs\"\nline = 1\n").unwrap_err();
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn empty_justification_is_rejected() {
        let err = parse(
            "[[waiver]]\nrule = \"D01\"\nfile = \"x.rs\"\nline = 1\njustification = \"  \"\n",
        )
        .unwrap_err();
        assert!(err.contains("empty justification"), "{err}");
    }

    #[test]
    fn unknown_sections_and_keys_are_rejected() {
        assert!(parse("[mystery]\n").is_err());
        assert!(parse("[[waiver]]\nbogus = \"x\"\n").is_err());
        assert!(parse("stray = \"x\"\n").is_err());
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let config = parse("[allow.d04]\nfiles = [\"a#b.rs\"]  # real comment\n").unwrap();
        assert_eq!(config.allow_files["d04"], ["a#b.rs"]);
    }
}
