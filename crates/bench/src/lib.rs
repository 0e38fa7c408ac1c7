//! # noc-bench
//!
//! The experiment harness. Every table and figure of the paper (plus the
//! simulator's own scaling scenarios) is an [`Experiment`] object in the
//! typed [`REGISTRY`]: it has a stable id, a one-line description, and a
//! `run(opts)` method (see [`RunOpts`]) returning a structured [`Report`]
//! (titled sections plus machine-readable [`SweepRecord`]s, renderable as
//! text or JSON). The `repro` binary iterates the registry.
//!
//! Every simulation-backed experiment takes an [`Effort`] knob (inside its
//! [`RunOpts`]) so that the tests and CI can run a quick variant while
//! `repro` defaults to the full-size runs.
//!
//! # Examples
//!
//! ```
//! use noc_bench::{registry, Effort, RunOpts};
//!
//! let table1 = registry::find("table1").expect("registered");
//! let report = table1.run(RunOpts::new(Effort::Quick));
//! assert!(report.render_text().contains("Theoretical limits"));
//! assert!(report.render_json().contains("\"experiment\": \"table1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
mod format;
pub mod record;
pub mod registry;
mod report;

pub use experiments::Effort;
pub use format::Table;
pub use record::{sweep_records_json, SweepPointRecord, SweepRecord};
pub use registry::{find as find_experiment, Experiment, RunOpts, REGISTRY};
pub use report::{Report, ReportSection};

/// Runs one experiment by id and returns its rendered text report
/// (convenience wrapper over [`registry::find`] for callers that don't need
/// the structured [`Report`]).
///
/// Returns `None` when the id is unknown.
#[must_use]
pub fn run_experiment(id: &str, effort: Effort) -> Option<String> {
    registry::find(id).map(|e| e.run(RunOpts::new(effort)).render_text())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_experiment_runs_in_quick_mode() {
        for experiment in REGISTRY {
            let report = experiment.run(RunOpts::new(Effort::Quick));
            assert_eq!(report.experiment, experiment.id());
            let text = report.render_text();
            assert!(
                !text.is_empty(),
                "{} produced an empty report",
                experiment.id()
            );
            assert!(
                text.contains('|') || text.contains(':'),
                "{} report looks empty",
                experiment.id()
            );
            // The JSON rendering stays well-formed for every experiment.
            let json = report.render_json();
            assert_eq!(json.matches('{').count(), json.matches('}').count());
        }
    }

    #[test]
    fn sweep_backed_experiments_attach_records() {
        for (id, expected_sweeps) in [
            ("fig5", 2),
            ("stress8", 1),
            ("stress16", 1),
            ("hotspot16", 1),
            ("patterns", 8),
            ("serving", 1),
        ] {
            let opts = RunOpts::new(Effort::Quick).with_jobs(2);
            let report = find_experiment(id).unwrap().run(opts);
            assert_eq!(
                report.sweeps.len(),
                expected_sweeps,
                "{id} sweep record count"
            );
        }
    }

    #[test]
    fn unknown_experiments_are_rejected() {
        assert!(run_experiment("fig99", Effort::Quick).is_none());
    }
}
