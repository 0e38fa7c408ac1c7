//! Machine-readable sweep records and their JSON serialisation.
//!
//! `repro` prints human-readable tables, but the perf trajectory of the
//! simulator (and downstream plotting) needs structured data: per-point
//! injection rates, latencies, throughputs and wall-clock times. The records
//! here capture exactly that, and [`sweep_records_json`] renders them as a
//! self-contained JSON document (`BENCH_sweep.json`) without an external
//! serialisation dependency — the offline build environment has no
//! `serde_json`.

use mesh_noc::SweepOutcome;

/// One measured sweep point of a [`SweepRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPointRecord {
    /// Offered flit injection rate per node per cycle (client population for
    /// the closed-loop `serving` sweep).
    pub injection_rate: f64,
    /// Average packet latency (cycles).
    pub latency_cycles: f64,
    /// Median (50th-percentile) packet latency (cycles).
    pub p50_latency_cycles: f64,
    /// 95th-percentile packet latency (cycles).
    pub p95_latency_cycles: f64,
    /// 99th-percentile packet latency (cycles).
    pub p99_latency_cycles: f64,
    /// Received throughput (Gb/s).
    pub received_gbps: f64,
    /// Received throughput (flits/cycle).
    pub received_flits_per_cycle: f64,
    /// Fraction of hops that bypassed the router pipeline.
    pub bypass_fraction: f64,
    /// Packets whose latency was measured.
    pub measured_packets: u64,
    /// Wall-clock milliseconds this point took to simulate.
    pub wall_ms: f64,
}

/// One network's sweep, as emitted into `BENCH_sweep.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Experiment the sweep belongs to (e.g. `fig5`, `stress8`).
    pub experiment: String,
    /// Which network was swept (e.g. `proposed`, `baseline`).
    pub network: String,
    /// Mesh side length.
    pub k: u16,
    /// Worker threads the sweep ran on.
    pub jobs: usize,
    /// Zero-load latency of the curve (cycles).
    pub zero_load_latency_cycles: f64,
    /// Saturation throughput (Gb/s).
    pub saturation_gbps: f64,
    /// Injection rate at which saturation was detected.
    pub saturation_rate: f64,
    /// Total wall-clock milliseconds for the sweep.
    pub total_wall_ms: f64,
    /// Always empty and never rendered: the out-of-workspace benchmark
    /// harness (`benchmark/src/workloads/repro.rs`) still reads this field,
    /// and `benchmark/` is frozen for non-`[benchmark]` PRs. It leaves with
    /// the harness's read in the next `[benchmark]` PR.
    pub partition_loads: Vec<u64>,
    /// The measured points, in injection-rate order.
    pub points: Vec<SweepPointRecord>,
}

impl SweepRecord {
    /// Builds a record from a [`SweepOutcome`].
    #[must_use]
    pub fn from_outcome(
        experiment: &str,
        network: &str,
        k: u16,
        jobs: usize,
        outcome: &SweepOutcome,
    ) -> Self {
        Self {
            experiment: experiment.to_owned(),
            network: network.to_owned(),
            k,
            jobs,
            zero_load_latency_cycles: outcome.curve.zero_load_latency_cycles,
            saturation_gbps: outcome.curve.saturation_gbps,
            saturation_rate: outcome.curve.saturation_rate,
            total_wall_ms: outcome.total_wall_ms,
            partition_loads: Vec::new(),
            points: outcome
                .points
                .iter()
                .map(|p| SweepPointRecord {
                    injection_rate: p.injection_rate,
                    latency_cycles: p.result.average_latency_cycles,
                    p50_latency_cycles: p.result.p50_latency_cycles,
                    p95_latency_cycles: p.result.p95_latency_cycles,
                    p99_latency_cycles: p.result.p99_latency_cycles,
                    received_gbps: p.result.received_gbps,
                    received_flits_per_cycle: p.result.received_flits_per_cycle,
                    bypass_fraction: p.result.bypass_fraction,
                    measured_packets: p.result.measured_packets,
                    wall_ms: p.wall_ms,
                })
                .collect(),
        }
    }
}

/// A JSON number: finite floats in shortest round-trip form, `null` otherwise.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal (the record fields only ever hold identifier-like
/// names, but escape the essentials anyway).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders one record as a JSON object with every line prefixed by `indent`
/// (no trailing newline). Shared by [`sweep_records_json`] and the
/// experiment-report JSON renderer.
pub(crate) fn sweep_record_json(r: &SweepRecord, indent: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("{indent}{{\n"));
    out.push_str(&format!(
        "{indent}  \"experiment\": {},\n",
        json_string(&r.experiment)
    ));
    out.push_str(&format!(
        "{indent}  \"network\": {},\n",
        json_string(&r.network)
    ));
    out.push_str(&format!("{indent}  \"k\": {},\n", r.k));
    out.push_str(&format!("{indent}  \"jobs\": {},\n", r.jobs));
    out.push_str(&format!(
        "{indent}  \"zero_load_latency_cycles\": {},\n",
        num(r.zero_load_latency_cycles)
    ));
    out.push_str(&format!(
        "{indent}  \"saturation_gbps\": {},\n",
        num(r.saturation_gbps)
    ));
    out.push_str(&format!(
        "{indent}  \"saturation_rate\": {},\n",
        num(r.saturation_rate)
    ));
    out.push_str(&format!(
        "{indent}  \"total_wall_ms\": {},\n",
        num(r.total_wall_ms)
    ));
    out.push_str(&format!("{indent}  \"points\": [\n"));
    for (pi, p) in r.points.iter().enumerate() {
        out.push_str(&format!(
            "{indent}    {{\"injection_rate\": {}, \"latency_cycles\": {}, \
             \"p50_latency_cycles\": {}, \"p95_latency_cycles\": {}, \
             \"p99_latency_cycles\": {}, \"received_gbps\": {}, \
             \"received_flits_per_cycle\": {}, \"bypass_fraction\": {}, \
             \"measured_packets\": {}, \"wall_ms\": {}}}{}\n",
            num(p.injection_rate),
            num(p.latency_cycles),
            num(p.p50_latency_cycles),
            num(p.p95_latency_cycles),
            num(p.p99_latency_cycles),
            num(p.received_gbps),
            num(p.received_flits_per_cycle),
            num(p.bypass_fraction),
            p.measured_packets,
            num(p.wall_ms),
            if pi + 1 == r.points.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!("{indent}  ]\n"));
    out.push_str(&format!("{indent}}}"));
    out
}

/// Renders `records` as the `BENCH_sweep.json` document.
#[must_use]
pub fn sweep_records_json(records: &[SweepRecord]) -> String {
    let mut out = String::from("{\n  \"sweeps\": [\n");
    for (ri, r) in records.iter().enumerate() {
        out.push_str(&sweep_record_json(r, "    "));
        out.push_str(if ri + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> SweepRecord {
        SweepRecord {
            experiment: "fig5".into(),
            network: "proposed".into(),
            k: 4,
            jobs: 2,
            zero_load_latency_cycles: 8.25,
            saturation_gbps: 890.0,
            saturation_rate: 0.24,
            total_wall_ms: 123.5,
            partition_loads: Vec::new(),
            points: vec![SweepPointRecord {
                injection_rate: 0.01,
                latency_cycles: 8.25,
                p50_latency_cycles: 8.0,
                p95_latency_cycles: 12.0,
                p99_latency_cycles: 14.0,
                received_gbps: 100.0,
                received_flits_per_cycle: 1.5,
                bypass_fraction: 0.9,
                measured_packets: 321,
                wall_ms: 4.5,
            }],
        }
    }

    #[test]
    fn json_document_contains_every_field() {
        let json = sweep_records_json(&[record()]);
        for needle in [
            "\"experiment\": \"fig5\"",
            "\"network\": \"proposed\"",
            "\"k\": 4",
            "\"jobs\": 2",
            "\"injection_rate\": 0.01",
            "\"p50_latency_cycles\": 8.0",
            "\"p99_latency_cycles\": 14.0",
            "\"measured_packets\": 321",
            "\"wall_ms\": 4.5",
            "\"saturation_gbps\": 890.0",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut r = record();
        r.points[0].latency_cycles = f64::NAN;
        let json = sweep_records_json(&[r]);
        assert!(json.contains("\"latency_cycles\": null"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
