//! The typed experiment registry.
//!
//! Every table/figure reproduction (and every simulator-specific scaling
//! scenario) is an [`Experiment`]: an object with a stable id, a one-line
//! description and a `run` method returning a structured
//! [`Report`]. The `repro` binary iterates [`REGISTRY`] instead of
//! string-matching names, so adding an experiment is one entry here — the
//! CLI, `repro list`, `repro all` and the sweep-JSON plumbing pick it up
//! automatically.

use crate::experiments::{self, Effort};
use crate::report::Report;

/// Named options for one [`Experiment::run`] call.
///
/// Named fields (rather than positional arguments) keep call sites legible
/// and let the option set change without touching every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOpts {
    /// Simulation effort (warmup/measurement windows and sweep thinning).
    pub effort: Effort,
    /// Sweep worker threads; rate/population points are sharded across them
    /// with bit-identical results for any count.
    pub jobs: usize,
}

impl RunOpts {
    /// Single-threaded run at `effort` (the common default).
    #[must_use]
    pub fn new(effort: Effort) -> Self {
        Self { effort, jobs: 1 }
    }

    /// Replaces the sweep worker-thread count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

/// One runnable experiment of the harness.
///
/// Implementations are zero-sized marker types registered in [`REGISTRY`];
/// they exist so experiments can be enumerated, described and dispatched as
/// values instead of through name matching.
pub trait Experiment: Sync {
    /// Stable CLI name (`repro <id>`).
    fn id(&self) -> &'static str;
    /// One-line human description printed by `repro list`.
    fn description(&self) -> &'static str;
    /// Runs the experiment with the given [`RunOpts`] (results are
    /// bit-identical for any `jobs`).
    fn run(&self, opts: RunOpts) -> Report;
}

macro_rules! experiments {
    ($( $ty:ident { id: $id:literal, desc: $desc:literal, run: $run:expr } ),+ $(,)?) => {
        $(
            #[doc = concat!("The `", $id, "` experiment: ", $desc, ".")]
            #[derive(Debug, Clone, Copy)]
            pub struct $ty;

            impl Experiment for $ty {
                fn id(&self) -> &'static str {
                    $id
                }
                fn description(&self) -> &'static str {
                    $desc
                }
                fn run(&self, opts: RunOpts) -> Report {
                    let run: fn(RunOpts) -> Report = $run;
                    run(opts)
                }
            }
        )+

        /// Every experiment of the harness: the paper's tables and figures in
        /// paper order, then the simulator's own scaling scenarios.
        pub static REGISTRY: &[&dyn Experiment] = &[$(&$ty),+];
    };
}

experiments! {
    Table1 { id: "table1", desc: "theoretical limits of a k x k mesh (Table 1)",
             run: |_| Report::from_text("table1", experiments::table1_report()) },
    Table2 { id: "table2", desc: "comparison of mesh NoC chip prototypes (Table 2)",
             run: |_| Report::from_text("table2", experiments::table2_report()) },
    Fig5 { id: "fig5", desc: "latency vs throughput under mixed traffic (Fig. 5)",
           run: |opts| {
               let (text, sweeps) = experiments::fig5_full(opts);
               Report::from_text("fig5", text).with_sweeps(sweeps)
           } },
    Fig6 { id: "fig6", desc: "power waterfall A-D at 653 Gb/s broadcast delivery (Fig. 6)",
           run: |opts| Report::from_text("fig6", experiments::fig6_report(opts.effort)) },
    Table3 { id: "table3", desc: "critical-path analysis of the routers (Table 3)",
             run: |_| Report::from_text("table3", experiments::table3_report()) },
    Fig7 { id: "fig7", desc: "low-swing link energy efficiency (Fig. 7)",
           run: |_| Report::from_text("fig7", experiments::fig7_report()) },
    Table4 { id: "table4", desc: "area comparison with full-swing signaling (Table 4)",
             run: |_| Report::from_text("table4", experiments::table4_report()) },
    Fig8 { id: "fig8", desc: "ORION / post-layout / measured power model comparison (Fig. 8)",
           run: |opts| Report::from_text("fig8", experiments::fig8_report(opts.effort)) },
    Fig10 { id: "fig10", desc: "low-swing reliability vs energy trade-off (Fig. 10)",
            run: |_| Report::from_text("fig10", experiments::fig10_report()) },
    Fig11 { id: "fig11", desc: "tri-state RSD crossbar power vs multicast count (Fig. 11)",
            run: |_| Report::from_text("fig11", experiments::fig11_report()) },
    Fig12 { id: "fig12", desc: "repeated vs repeaterless low-swing links (Fig. 12)",
            run: |_| Report::from_text("fig12", experiments::fig12_report()) },
    Fig13 { id: "fig13", desc: "latency vs throughput under broadcast-only traffic (Fig. 13)",
            run: |opts| {
                let (text, sweeps) = experiments::fig13_full(opts);
                Report::from_text("fig13", text).with_sweeps(sweeps)
            } },
    ZeroLoad { id: "zeroload", desc: "zero-load router power breakdown (Section 4.1)",
               run: |opts| Report::from_text("zeroload", experiments::zero_load_report(opts.effort)) },
    Headline { id: "headline", desc: "Section 4.1 headline numbers and the PRBS-seed artifact",
               run: |opts| Report::from_text("headline", experiments::headline_report(opts.effort)) },
    Stress8 { id: "stress8", desc: "8x8-mesh mixed-traffic scaling stressor (not a paper figure)",
              run: |opts| {
                  let (text, sweeps) = experiments::stress8_full(opts);
                  Report::from_text("stress8", text).with_sweeps(sweeps)
              } },
    Stress16 { id: "stress16", desc: "16x16-mesh mixed-traffic scaling stressor (not a paper figure)",
               run: |opts| {
                   let (text, sweeps) = experiments::stress16_full(opts);
                   Report::from_text("stress16", text).with_sweeps(sweeps)
               } },
    Hotspot16 { id: "hotspot16", desc: "16x16-mesh weighted-hotspot sweep: 90% of unicast traffic aimed at one corner (not a paper figure)",
                run: |opts| {
                    let (text, sweeps) = experiments::hotspot16_full(opts);
                    Report::from_text("hotspot16", text).with_sweeps(sweeps)
                } },
    Patterns { id: "patterns", desc: "per-pattern saturation sweep across the spatial-pattern gallery",
               run: experiments::patterns_report },
    Serving { id: "serving", desc: "closed-loop request/reply serving: RTT percentiles vs client population (not a paper figure)",
              run: experiments::serving_report },
}

/// Looks an experiment up by id.
#[must_use]
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().copied().find(|e| e.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let mut seen = std::collections::HashSet::new();
        for experiment in REGISTRY {
            assert!(
                seen.insert(experiment.id()),
                "duplicate {}",
                experiment.id()
            );
            assert!(!experiment.description().is_empty());
            let found = find(experiment.id()).expect("id resolves");
            assert_eq!(found.id(), experiment.id());
        }
        assert!(find("fig99").is_none());
    }

    #[test]
    fn registry_keeps_paper_order_then_scaling_scenarios() {
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id()).collect();
        assert_eq!(
            ids,
            [
                "table1",
                "table2",
                "fig5",
                "fig6",
                "table3",
                "fig7",
                "table4",
                "fig8",
                "fig10",
                "fig11",
                "fig12",
                "fig13",
                "zeroload",
                "headline",
                "stress8",
                "stress16",
                "hotspot16",
                "patterns",
                "serving",
            ]
        );
    }
}
