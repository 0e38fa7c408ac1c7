//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--jobs N] [--json PATH] <experiment>...
//! repro [options] all
//! repro list                                                 # ids + descriptions
//! ```
//!
//! Experiments come from the typed registry (`noc_bench::REGISTRY`); `list`
//! prints each id with its description. `--jobs N` runs sweep-backed
//! experiments (`fig5`, `fig13`, `stress8`, `stress16`, `hotspot16`,
//! `patterns`, and the closed-loop `serving` population sweep) with N
//! worker threads; results are bit-identical for any N. Whenever a run
//! produces sweep data, a machine-readable JSON document (per-point rates,
//! latencies, throughputs and wall-clock times) is written next to the
//! printed tables — `BENCH_sweep.json` by default, or the path given with
//! `--json`. An argument starting with `--` that is not one of the flags
//! above is an error, not an experiment name.

use std::process::ExitCode;

use noc_bench::{
    find_experiment, sweep_records_json, Effort, Experiment, RunOpts, SweepRecord, REGISTRY,
};

/// Splits the command line (without the program name) into the run options,
/// the JSON output path and the positional words (experiment ids, `all`,
/// `list`) in the order given. The error is the message to print above the
/// usage line.
fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(RunOpts, String, Vec<String>), String> {
    let mut opts = RunOpts::new(Effort::Full);
    let mut json_path = "BENCH_sweep.json".to_owned();
    let mut words = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" | "-q" => opts.effort = Effort::Quick,
            "--jobs" | "-j" => {
                let value = iter.next().ok_or("--jobs needs a thread count")?;
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => opts.jobs = n,
                    _ => return Err(format!("--jobs needs a positive integer, got '{value}'")),
                }
            }
            "--json" => json_path = iter.next().ok_or("--json needs an output path")?,
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            _ => words.push(arg),
        }
    }
    Ok((opts, json_path, words))
}

fn main() -> ExitCode {
    let fail = |message: String| {
        eprintln!("{message}");
        eprintln!("usage: repro [--quick] [--jobs N] [--json PATH] <experiment>... | all | list");
        ExitCode::FAILURE
    };
    let (opts, json_path, words) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => return fail(message),
    };
    let mut selected: Vec<&'static dyn Experiment> = Vec::new();
    for word in &words {
        match word.as_str() {
            "list" => {
                let width = REGISTRY.iter().map(|e| e.id().len()).max().unwrap_or(0);
                for experiment in REGISTRY {
                    println!("{:width$}  {}", experiment.id(), experiment.description());
                }
                return ExitCode::SUCCESS;
            }
            "all" => selected.extend(REGISTRY.iter().copied()),
            other => match find_experiment(other) {
                Some(experiment) => selected.push(experiment),
                None => return fail(format!("unknown experiment '{other}'; try `repro list`")),
            },
        }
    }
    if selected.is_empty() {
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id()).collect();
        return fail(format!(
            "no experiment named; experiments: {}",
            ids.join(", ")
        ));
    }
    let mut sweeps: Vec<SweepRecord> = Vec::new();
    for experiment in selected {
        let report = experiment.run(opts);
        println!("==================================================================");
        println!("{}", report.render_text());
        sweeps.extend(report.sweeps);
    }
    if !sweeps.is_empty() {
        match std::fs::write(&json_path, sweep_records_json(&sweeps)) {
            Ok(()) => println!("wrote {json_path} ({} sweep(s))", sweeps.len()),
            Err(err) => {
                eprintln!("failed to write {json_path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(RunOpts, String, Vec<String>), String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn a_removed_flag_is_an_unknown_option_not_an_experiment() {
        assert_eq!(
            parse("--quick --step-threads 2 fig5").unwrap_err(),
            "unknown option '--step-threads'"
        );
    }

    #[test]
    fn jobs_without_a_value_is_rejected() {
        assert_eq!(
            parse("--quick fig5 --jobs").unwrap_err(),
            "--jobs needs a thread count"
        );
        assert!(parse("--jobs 0 fig5").is_err());
        assert!(parse("--jobs fig5").is_err());
    }

    #[test]
    fn a_valid_line_parses_into_options_path_and_words() {
        let (opts, json_path, words) =
            parse("--quick --jobs 2 --json out.json table1 fig5").unwrap();
        assert_eq!(opts, RunOpts::new(Effort::Quick).with_jobs(2));
        assert_eq!(json_path, "out.json");
        assert_eq!(words, ["table1", "fig5"]);
        // Defaults: full effort, one job, the default path, no words.
        let (opts, json_path, words) = parse("").unwrap();
        assert_eq!(opts, RunOpts::new(Effort::Full));
        assert_eq!(json_path, "BENCH_sweep.json");
        assert!(words.is_empty());
    }
}
