//! The repo benchmark: five workloads, end-to-end host-time and paper-gap
//! metrics, and a per-layer budget measured from outside. See `README.md`
//! next to this package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! run.sh [--seed N] [--seconds S] [--smoke]            every workload: end-to-end pass, then traced pass
//! run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!                                                      one workload, one pass, in this process
//! run.sh agree [--seed N] [--seconds S] [A.json B.json]  two end-to-end passes agree within the bounds
//! run.sh manifest                                      print BENCHMARK.json from the metric catalogue
//! ```
//!
//! Everything runs single-threaded (`jobs = 1`, one mesh partition) and one
//! process at a time: the reference host has two vCPUs, and ROADMAP forbids
//! parallel claims from it, so partitioned stepping and `--jobs` are
//! deliberately not workloads here.

mod budget;
mod child;
mod digest;
mod json;
mod metrics;
mod paper;
mod spans;
mod stats;
mod table;
mod unit;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Value;
use metrics::END_TO_END;
use stats::{iqr_share, median, quartiles};
use workloads::{Size, WORKLOADS};

/// `TrafficGenerator::DEFAULT_BASE_SEED`, so the default run sweeps Fig. 5
/// with the seed `repro fig5` uses.
const DEFAULT_SEED: u64 = 0xACE1;

struct Options {
    command: String,
    workload: Option<&'static str>,
    seed: u64,
    /// `--seconds`; by default a full-size run measures for `run_seconds`
    /// and a smoke run makes its one rep and stops.
    seconds: Option<f64>,
    trace: bool,
    size: Size,
    files: Vec<PathBuf>,
}

impl Options {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(match self.size {
            Size::Full => metrics::RUN_SECONDS as f64,
            Size::Smoke => 0.0,
        })
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        command: "run".to_owned(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        size: Size::Full,
        files: Vec::new(),
    };
    let mut args = args.iter();
    let mut first = true;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let known = WORKLOADS
                    .iter()
                    .find(|(known, _)| *known == name)
                    .ok_or_else(|| {
                        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                        format!("unknown workload '{name}' (one of: {})", names.join(", "))
                    })?;
                options.workload = Some(known.0);
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative whole number".to_owned())?;
            }
            "--seconds" => {
                let seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| "--seconds takes a non-negative number".to_owned())?;
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            "--smoke" => options.size = Size::Smoke,
            "run" | "agree" | "manifest" if first => options.command = arg.clone(),
            file if options.command == "agree" && !file.starts_with('-') => {
                options.files.push(PathBuf::from(file));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        first = false;
    }
    Ok(options)
}

/// Where results and spans go, relative to the checkout root (`run.sh`
/// changes into it).
fn out_dir() -> PathBuf {
    Path::new("benchmark").join("out")
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|options| match options.command.as_str() {
        "manifest" => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        "agree" => agree(&options),
        _ => match options.workload {
            Some(workload) => child::run(
                &child::Args {
                    workload,
                    seed: options.seed,
                    seconds: options.seconds(),
                    trace: options.trace,
                    size: options.size,
                    out_dir: out_dir(),
                },
                process_start,
            ),
            None => run_all(&options),
        },
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(2)
        }
    }
}

/// Runs one pass of one workload in a child process of its own and returns
/// its result file. The child's report goes straight to our stdout.
fn spawn_pass(
    options: &Options,
    workload: &str,
    trace: bool,
    seconds: f64,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if options.size == Size::Smoke {
        command.arg("--smoke");
    }
    // `status` waits for the child, so one process is busy at a time.
    let status = command
        .status()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    // Exit 1 is "ops failed" and still leaves a result; anything else left
    // none (a file found now would be a stale one).
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("the {workload} child failed ({status})"));
    }
    let path = out_dir().join(format!("result.{workload}.trace{}.json", u8::from(trace)));
    std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|text| json::parse(&text))
}

/// The end-to-end pass over every workload, merged into one document (the
/// input of `agree`) and written to `benchmark/out/e2e.<label>.json`.
fn end_to_end_pass(options: &Options, label: &str) -> Result<Value, String> {
    let mut results = Vec::new();
    for (workload, _) in WORKLOADS {
        results.push((
            workload.to_owned(),
            spawn_pass(options, workload, false, options.seconds())?,
        ));
    }
    let merged = merged_pass(options, options.seconds(), results);
    let path = out_dir().join(format!("e2e.{label}.json"));
    child::write_file(&path, &merged.pretty())?;
    println!("end-to-end results written to {}", path.display());
    Ok(merged)
}

/// One pass over every workload as one document.
fn merged_pass(options: &Options, seconds: f64, results: Vec<(String, Value)>) -> Value {
    Value::Obj(vec![
        ("seed".into(), Value::Num(options.seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
        ("smoke".into(), Value::Bool(options.size == Size::Smoke)),
        ("workloads".into(), Value::Obj(results)),
    ])
}

fn workload_results(pass: &Value) -> Result<&[(String, Value)], String> {
    pass.get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| "result file has no \"workloads\" object".to_owned())
}

fn all_correct(pass: &Value) -> Result<bool, String> {
    Ok(workload_results(pass)?
        .iter()
        .all(|(_, result)| result.get("correct") == Some(&Value::Bool(true))))
}

/// The samples behind an end-to-end metric (every one of them has some).
fn samples(result: &Value, metric: &str) -> Vec<f64> {
    result
        .get("metrics")
        .and_then(|m| m.get(metric)?.get("samples")?.as_arr())
        .map(|s| s.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// `run`: the end-to-end pass, then the traced pass (three untraced/traced
/// rep pairs per workload plus the unit-cost pass), then the summary.
fn run_all(options: &Options) -> Result<bool, String> {
    let started = Instant::now();
    let pass = end_to_end_pass(options, "latest")?;
    let mut correct = all_correct(&pass)?;

    let mut spans = Vec::new();
    let mut traced_results = Vec::new();
    for (workload, _) in WORKLOADS {
        let traced = spawn_pass(options, workload, true, 0.0)?;
        correct &= traced.get("correct") == Some(&Value::Bool(true));
        traced_results.push((workload.to_owned(), traced));
        let path = out_dir().join(format!("trace.{workload}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        spans.extend(json::parse(&text)?.as_arr().unwrap_or_default().to_vec());
    }
    child::write_file(
        &out_dir().join("traced.latest.json"),
        &merged_pass(options, 0.0, traced_results).pretty(),
    )?;
    // Span ids are per workload; (workload, id) is unique in the merged file.
    let path = out_dir().join("trace.json");
    child::write_file(&path, &Value::Arr(spans).pretty())?;

    println!("\n== summary: end-to-end metrics (median over the timed reps; n = samples)");
    let mut rows = Vec::new();
    for (workload, result) in workload_results(&pass)? {
        for metric in END_TO_END {
            let values = samples(result, metric.name);
            if values.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(&values);
            rows.push(vec![
                workload.clone(),
                metric.name.to_owned(),
                format!("{:.6}", median(&values)),
                metric.unit.to_owned(),
                values.len().to_string(),
                format!("{q1:.6}"),
                format!("{q3:.6}"),
                format!("{} by {}%", metric.better.as_str(), 100.0 * metric.bound),
            ]);
        }
        let number = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        rows.push(vec![
            workload.clone(),
            "ops".to_owned(),
            format!(
                "{} attempted, {} failed",
                number("attempted"),
                number("failed")
            ),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            format!(
                "digest {}",
                result
                    .get("sim_digest")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
            ),
        ]);
    }
    table::print(
        &[
            "workload",
            "metric",
            "median",
            "unit",
            "n",
            "q1",
            "q3",
            "better / bound",
        ],
        &rows,
    );
    println!(
        "spans of every workload merged into {}; whole run took {:.1} s{}",
        path.display(),
        started.elapsed().as_secs_f64(),
        if options.size == Size::Smoke {
            " (SMOKE: numbers mean nothing)"
        } else {
            ""
        }
    );
    if !correct {
        println!("FAILED: at least one op failed, see the FAILED lines above");
    }
    Ok(correct)
}

/// `agree`: two end-to-end passes of the same commit (run now, or read from
/// two `e2e.*.json` files) must agree within every metric's bound, and the
/// simulated numbers must be bit-identical.
fn agree(options: &Options) -> Result<bool, String> {
    let (a, b) = match options.files.as_slice() {
        [] => (
            end_to_end_pass(options, "a")?,
            end_to_end_pass(options, "b")?,
        ),
        [a, b] => {
            let load = |path: &PathBuf| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))
                    .and_then(|text| json::parse(&text))
            };
            (load(a)?, load(b)?)
        }
        _ => return Err("agree takes no result files or exactly two".to_owned()),
    };
    let mut agreed = all_correct(&a)? && all_correct(&b)?;
    let mut rows = Vec::new();
    let mut observed = Vec::new();
    for ((workload, ra), (other, rb)) in workload_results(&a)?.iter().zip(workload_results(&b)?) {
        if workload != other {
            return Err(format!("result files list {workload} against {other}"));
        }
        let mut spreads = Vec::new();
        for metric in END_TO_END {
            let (sa, sb) = (samples(ra, metric.name), samples(rb, metric.name));
            if sa.is_empty() || sb.is_empty() {
                return Err(format!(
                    "{workload} has no {} in one of the passes",
                    metric.name
                ));
            }
            let (ma, mb) = (median(&sa), median(&sb));
            let difference = (mb - ma).abs() / ma.abs();
            // The simulated metric repeats exactly or something is wrong,
            // whatever its bound says.
            let exact = metric.name == "paper_gap_pct";
            let ok = if exact {
                ma.to_bits() == mb.to_bits()
            } else {
                difference <= metric.bound
            };
            agreed &= ok;
            let (qa, qb) = (quartiles(&sa), quartiles(&sb));
            rows.push(vec![
                workload.clone(),
                metric.name.to_owned(),
                format!("{ma:.6}"),
                format!("{:.6}..{:.6}", qa.0, qa.1),
                format!("{mb:.6}"),
                format!("{:.6}..{:.6}", qb.0, qb.1),
                format!("{:.2}%", 100.0 * difference),
                if exact {
                    "exact".to_owned()
                } else {
                    format!("{}%", 100.0 * metric.bound)
                },
                if ok { "ok" } else { "DISAGREE" }.to_owned(),
            ]);
            spreads.push((
                metric.name.to_owned(),
                Value::Obj(vec![
                    ("bound".into(), Value::Num(metric.bound)),
                    ("difference".into(), Value::Num(difference)),
                    ("iqr_share_a".into(), Value::Num(iqr_share(&sa))),
                    ("iqr_share_b".into(), Value::Num(iqr_share(&sb))),
                ]),
            ));
        }
        let digest = |r: &Value| {
            r.get("sim_digest")
                .and_then(Value::as_str)
                .map(str::to_owned)
        };
        let same_digest = digest(ra).is_some() && digest(ra) == digest(rb);
        agreed &= same_digest;
        rows.push(vec![
            workload.clone(),
            "model.sim_digest".to_owned(),
            digest(ra).unwrap_or_default(),
            String::new(),
            digest(rb).unwrap_or_default(),
            String::new(),
            String::new(),
            "exact".to_owned(),
            if same_digest { "ok" } else { "DISAGREE" }.to_owned(),
        ]);
        observed.push((workload.clone(), Value::Obj(spreads)));
    }
    println!("\n== agree: two end-to-end passes of one commit");
    table::print(
        &[
            "workload",
            "metric",
            "median A",
            "quartiles A",
            "median B",
            "quartiles B",
            "difference",
            "bound",
            "",
        ],
        &rows,
    );
    // BENCHMARK.json takes exactly the contract's keys, so the observed
    // spread is recorded next to the results instead of next to each bound.
    let path = out_dir().join("agree.json");
    child::write_file(&path, &Value::Obj(observed).pretty())?;
    println!(
        "observed spread written to {}; {}",
        path.display(),
        if agreed {
            "the passes agree"
        } else {
            "the passes DISAGREE"
        }
    );
    Ok(agreed)
}
