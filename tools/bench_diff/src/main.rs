//! CI perf gate: diffs bench JSON artifacts against a committed baseline.
//!
//! The workspace emits two kinds of machine-readable bench artifacts:
//!
//! * **Sweep documents** (`BENCH_sweep.json`, `BENCH_patterns.json`,
//!   `BENCH_stress8.json`, `BENCH_stress16.json`) written by `repro --json`:
//!   `{"sweeps": [...]}` with one record per `(experiment, network, k)`
//!   sweep.
//! * **Step documents** written by the criterion shim when `NOC_BENCH_JSON`
//!   is set: `{"schema": 1, "results": [{"id", "mean_ns", "samples"}]}`.
//!
//! `bench_diff check` extracts a flat metric set from those files, compares
//! it against `tools/bench_baseline.json`, prints a markdown trend table
//! (also appended to `$GITHUB_STEP_SUMMARY` when set), and exits non-zero if
//! any pinned metric regressed beyond its tolerance or disappeared.
//! `bench_diff write-baseline` regenerates the baseline from the same
//! artifacts — run it locally after deliberate perf changes.
//!
//! The build environment has no `serde_json`, so a ~100-line recursive
//! descent parser below handles the three fixed document shapes.

use std::fmt::Write as _;
use std::process::ExitCode;

// --------------------------------------------------------------------- JSON

/// A parsed JSON value (number precision is `f64`, ample for bench data).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Recursive-descent JSON parser over the byte positions of `src`.
struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(src: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            src: src.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences are
                    // copied byte-for-byte; `src` came from a valid &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.src.len() && (self.src[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.src[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

// ------------------------------------------------------------------ metrics

/// One comparable scalar extracted from a bench artifact.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    /// Stable id, e.g. `bench_step/step_8x8_saturated_mixed` or
    /// `fig5/proposed/k4/saturation_gbps`.
    id: String,
    value: f64,
    /// `true` for throughput-like metrics where bigger numbers are better.
    higher_is_better: bool,
}

/// Extracts `bench_step/<id>` metrics (mean ns/iter, lower is better) from a
/// criterion-shim `NOC_BENCH_JSON` document.
fn step_metrics(doc: &Json) -> Result<Vec<Metric>, String> {
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("step document has no \"results\" array")?;
    let mut metrics = Vec::new();
    for entry in results {
        let id = entry
            .get("id")
            .and_then(Json::as_str)
            .ok_or("step result missing \"id\"")?;
        let mean_ns = entry
            .get("mean_ns")
            .and_then(Json::as_num)
            .ok_or("step result missing \"mean_ns\"")?;
        metrics.push(Metric {
            id: format!("bench_step/{id}"),
            value: mean_ns,
            higher_is_better: false,
        });
    }
    Ok(metrics)
}

/// Extracts per-sweep curve metrics from a `repro --json` document:
/// `<experiment>/<network>/k<k>/zero_load_latency_cycles` (lower is better)
/// and `.../saturation_gbps` (higher is better). Non-finite curve fields
/// (serialised as `null`) are skipped.
fn sweep_metrics(doc: &Json) -> Result<Vec<Metric>, String> {
    let sweeps = doc
        .get("sweeps")
        .and_then(Json::as_arr)
        .ok_or("sweep document has no \"sweeps\" array")?;
    let mut metrics = Vec::new();
    for sweep in sweeps {
        let experiment = sweep
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("sweep missing \"experiment\"")?;
        let network = sweep
            .get("network")
            .and_then(Json::as_str)
            .ok_or("sweep missing \"network\"")?;
        let k = sweep
            .get("k")
            .and_then(Json::as_num)
            .ok_or("sweep missing \"k\"")?;
        let prefix = format!("{experiment}/{network}/k{k}");
        for (field, higher_is_better) in [
            ("zero_load_latency_cycles", false),
            ("saturation_gbps", true),
        ] {
            if let Some(value) = sweep.get(field).and_then(Json::as_num) {
                metrics.push(Metric {
                    id: format!("{prefix}/{field}"),
                    value,
                    higher_is_better,
                });
            }
        }
    }
    Ok(metrics)
}

// ----------------------------------------------------------------- baseline

/// A pinned metric from `tools/bench_baseline.json`.
#[derive(Debug, Clone)]
struct BaselineEntry {
    id: String,
    value: f64,
    higher_is_better: bool,
    /// Per-entry override of the document-level tolerance.
    tolerance_pct: Option<f64>,
}

#[derive(Debug, Clone)]
struct Baseline {
    tolerance_pct: f64,
    entries: Vec<BaselineEntry>,
}

/// Default regression tolerance when the baseline document does not name one.
const DEFAULT_TOLERANCE_PCT: f64 = 15.0;

fn parse_baseline(doc: &Json) -> Result<Baseline, String> {
    let tolerance_pct = doc
        .get("tolerance_pct")
        .and_then(Json::as_num)
        .unwrap_or(DEFAULT_TOLERANCE_PCT);
    let raw = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("baseline has no \"entries\" array")?;
    let mut entries = Vec::new();
    for entry in raw {
        entries.push(BaselineEntry {
            id: entry
                .get("id")
                .and_then(Json::as_str)
                .ok_or("baseline entry missing \"id\"")?
                .to_owned(),
            value: entry
                .get("value")
                .and_then(Json::as_num)
                .ok_or("baseline entry missing \"value\"")?,
            higher_is_better: matches!(entry.get("higher_is_better"), Some(Json::Bool(true))),
            tolerance_pct: entry.get("tolerance_pct").and_then(Json::as_num),
        });
    }
    Ok(Baseline {
        tolerance_pct,
        entries,
    })
}

fn render_baseline(tolerance_pct: f64, metrics: &[Metric]) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n");
    let _ = writeln!(out, "  \"tolerance_pct\": {tolerance_pct},");
    out.push_str("  \"entries\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{ \"id\": \"{}\", \"value\": {:.3}, \"higher_is_better\": {} }}{sep}",
            m.id, m.value, m.higher_is_better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

// --------------------------------------------------------------- comparison

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Improved,
    Regressed,
    Missing,
}

#[derive(Debug, Clone)]
struct Row {
    id: String,
    baseline: f64,
    current: Option<f64>,
    delta_pct: Option<f64>,
    tolerance_pct: f64,
    verdict: Verdict,
}

/// Compares `current` metrics against the pinned baseline. Metrics present
/// in the current run but absent from the baseline are ignored (they become
/// pinned on the next `write-baseline`).
fn compare(baseline: &Baseline, current: &[Metric]) -> Vec<Row> {
    baseline
        .entries
        .iter()
        .map(|pin| {
            let tolerance_pct = pin.tolerance_pct.unwrap_or(baseline.tolerance_pct);
            let Some(metric) = current.iter().find(|m| m.id == pin.id) else {
                return Row {
                    id: pin.id.clone(),
                    baseline: pin.value,
                    current: None,
                    delta_pct: None,
                    tolerance_pct,
                    verdict: Verdict::Missing,
                };
            };
            let delta_pct = if pin.value == 0.0 {
                if metric.value == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (metric.value - pin.value) / pin.value * 100.0
            };
            // Positive `worse` always means "got worse", whichever direction
            // the metric prefers.
            let worse = if pin.higher_is_better {
                -delta_pct
            } else {
                delta_pct
            };
            let verdict = if worse > tolerance_pct {
                Verdict::Regressed
            } else if worse < -tolerance_pct {
                Verdict::Improved
            } else {
                Verdict::Ok
            };
            Row {
                id: pin.id.clone(),
                baseline: pin.value,
                current: Some(metric.value),
                delta_pct: Some(delta_pct),
                tolerance_pct,
                verdict,
            }
        })
        .collect()
}

fn render_table(rows: &[Row]) -> String {
    let mut out = String::from("## Bench trend vs committed baseline\n\n");
    out.push_str("| metric | baseline | current | Δ | verdict |\n");
    out.push_str("|---|---:|---:|---:|---|\n");
    for row in rows {
        let current = row
            .current
            .map_or_else(|| "—".to_owned(), |v| format!("{v:.1}"));
        let delta = row
            .delta_pct
            .map_or_else(|| "—".to_owned(), |d| format!("{d:+.1}%"));
        let verdict = match row.verdict {
            Verdict::Ok => "ok".to_owned(),
            Verdict::Improved => "**improved** 🎉".to_owned(),
            Verdict::Regressed => format!("**REGRESSED** (>±{}%) ❌", row.tolerance_pct),
            Verdict::Missing => "**MISSING** ❌".to_owned(),
        };
        let _ = writeln!(
            out,
            "| `{}` | {:.1} | {current} | {delta} | {verdict} |",
            row.id, row.baseline
        );
    }
    out
}

// ---------------------------------------------------------------------- CLI

#[derive(Debug, Default)]
struct Args {
    baseline: Option<String>,
    step: Vec<String>,
    sweep: Vec<String>,
    summary: Option<String>,
}

const USAGE: &str = "\
usage:
  bench_diff check --baseline FILE [--step FILE]... [--sweep FILE]... [--summary FILE]
  bench_diff write-baseline --baseline FILE [--step FILE]... [--sweep FILE]...

Artifacts: --step takes a criterion-shim NOC_BENCH_JSON document, --sweep a
repro --json document (BENCH_sweep.json / BENCH_patterns.json /
BENCH_stress8.json / BENCH_stress16.json). `check` appends its trend table to --summary and to
$GITHUB_STEP_SUMMARY when set, and exits 1 if a pinned metric regressed
beyond tolerance or is missing.";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(String, Args), String> {
    let command = argv.next().ok_or(USAGE)?;
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--baseline" => args.baseline = Some(value()?),
            "--step" => args.step.push(value()?),
            "--sweep" => args.sweep.push(value()?),
            "--summary" => args.summary = Some(value()?),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok((command, args))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Parser::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn collect_metrics(args: &Args) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();
    for path in &args.step {
        metrics.extend(step_metrics(&load(path)?)?);
    }
    for path in &args.sweep {
        metrics.extend(sweep_metrics(&load(path)?)?);
    }
    Ok(metrics)
}

fn run() -> Result<bool, String> {
    let (command, args) = parse_args(std::env::args().skip(1))?;
    let baseline_path = args.baseline.as_deref().ok_or("--baseline is required")?;
    let metrics = collect_metrics(&args)?;
    match command.as_str() {
        "write-baseline" => {
            if metrics.is_empty() {
                return Err("refusing to write an empty baseline (no artifacts given)".into());
            }
            std::fs::write(
                baseline_path,
                render_baseline(DEFAULT_TOLERANCE_PCT, &metrics),
            )
            .map_err(|e| format!("{baseline_path}: {e}"))?;
            println!("wrote {} entries to {baseline_path}", metrics.len());
            Ok(true)
        }
        "check" => {
            let baseline = parse_baseline(&load(baseline_path)?)?;
            let rows = compare(&baseline, &metrics);
            let table = render_table(&rows);
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
            let failures = rows
                .iter()
                .filter(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
                .count();
            if failures > 0 {
                eprintln!("bench_diff: {failures} pinned metric(s) regressed or went missing");
            }
            Ok(failures == 0)
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_diff: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEP_DOC: &str = r#"{
      "schema": 1,
      "results": [
        { "id": "step_8x8_saturated_mixed", "mean_ns": 67018.4, "samples": 20 },
        { "id": "step_16x16_saturated_mixed", "mean_ns": 271003.9, "samples": 20 },
        { "id": "step_8x8_drain_idle", "mean_ns": 21.0, "samples": 20 }
      ]
    }"#;

    const SWEEP_DOC: &str = r#"{
      "sweeps": [
        {
          "experiment": "fig5", "network": "proposed", "k": 4, "jobs": 2,
          "zero_load_latency_cycles": 8.25, "saturation_gbps": 890.0,
          "saturation_rate": 0.24, "total_wall_ms": 12.0, "points": []
        }
      ]
    }"#;

    #[test]
    fn parser_roundtrips_the_step_document() {
        let doc = Parser::parse(STEP_DOC).unwrap();
        let metrics = step_metrics(&doc).unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(metrics[0].id, "bench_step/step_8x8_saturated_mixed");
        assert_eq!(metrics[0].value, 67018.4);
        assert!(!metrics[0].higher_is_better);
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = Parser::parse(r#"{"a": [1, -2.5e1, "x\"\\A", null, true]}"#).unwrap();
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1], Json::Num(-25.0));
        assert_eq!(arr[2], Json::Str("x\"\\A".to_owned()));
        assert_eq!(arr[3], Json::Null);
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(Parser::parse("{} junk").is_err());
        assert!(Parser::parse("{\"a\": }").is_err());
    }

    #[test]
    fn sweep_metrics_build_curve_ids() {
        let doc = Parser::parse(SWEEP_DOC).unwrap();
        let metrics = sweep_metrics(&doc).unwrap();
        let ids: Vec<&str> = metrics.iter().map(|m| m.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "fig5/proposed/k4/zero_load_latency_cycles",
                "fig5/proposed/k4/saturation_gbps"
            ]
        );
        assert!(metrics[1].higher_is_better);
    }

    #[test]
    fn null_curve_fields_are_skipped() {
        let doc = Parser::parse(
            r#"{"sweeps": [{"experiment": "e", "network": "n", "k": 8,
                "zero_load_latency_cycles": null, "saturation_gbps": 1.0}]}"#,
        )
        .unwrap();
        let metrics = sweep_metrics(&doc).unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].id, "e/n/k8/saturation_gbps");
    }

    fn pin(id: &str, value: f64, higher_is_better: bool) -> BaselineEntry {
        BaselineEntry {
            id: id.to_owned(),
            value,
            higher_is_better,
            tolerance_pct: None,
        }
    }

    fn metric(id: &str, value: f64, higher_is_better: bool) -> Metric {
        Metric {
            id: id.to_owned(),
            value,
            higher_is_better,
        }
    }

    #[test]
    fn regression_beyond_tolerance_fails_lower_is_better() {
        let baseline = Baseline {
            tolerance_pct: 15.0,
            entries: vec![pin("bench_step/x", 100.0, false)],
        };
        let ok = compare(&baseline, &[metric("bench_step/x", 114.0, false)]);
        assert_eq!(ok[0].verdict, Verdict::Ok);
        let bad = compare(&baseline, &[metric("bench_step/x", 116.0, false)]);
        assert_eq!(bad[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn regression_direction_flips_for_higher_is_better() {
        let baseline = Baseline {
            tolerance_pct: 15.0,
            entries: vec![pin("e/n/k4/saturation_gbps", 800.0, true)],
        };
        let bad = compare(&baseline, &[metric("e/n/k4/saturation_gbps", 600.0, true)]);
        assert_eq!(bad[0].verdict, Verdict::Regressed);
        let good = compare(&baseline, &[metric("e/n/k4/saturation_gbps", 950.0, true)]);
        assert_eq!(good[0].verdict, Verdict::Improved);
    }

    #[test]
    fn missing_pinned_metric_is_a_failure() {
        let baseline = Baseline {
            tolerance_pct: 15.0,
            entries: vec![pin("bench_step/gone", 10.0, false)],
        };
        let rows = compare(&baseline, &[]);
        assert_eq!(rows[0].verdict, Verdict::Missing);
        assert!(render_table(&rows).contains("MISSING"));
    }

    #[test]
    fn per_entry_tolerance_overrides_document_tolerance() {
        let mut entry = pin("bench_step/x", 100.0, false);
        entry.tolerance_pct = Some(50.0);
        let baseline = Baseline {
            tolerance_pct: 15.0,
            entries: vec![entry],
        };
        let rows = compare(&baseline, &[metric("bench_step/x", 140.0, false)]);
        assert_eq!(rows[0].verdict, Verdict::Ok);
    }

    #[test]
    fn baseline_roundtrips_through_render_and_parse() {
        let metrics = vec![
            metric("bench_step/a", 123.456, false),
            metric("e/n/k4/saturation_gbps", 890.0, true),
        ];
        let text = render_baseline(15.0, &metrics);
        let baseline = parse_baseline(&Parser::parse(&text).unwrap()).unwrap();
        assert_eq!(baseline.tolerance_pct, 15.0);
        assert_eq!(baseline.entries.len(), 2);
        assert_eq!(baseline.entries[0].id, "bench_step/a");
        assert!(baseline.entries[1].higher_is_better);
    }
}
