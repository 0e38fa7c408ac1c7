//! The cycle-budget estimate of a step workload.
//!
//! Unit cost (from the unit-cost pass) × exact event count (the
//! `ActivityCounters` delta of the timed region) gives an estimated time per
//! layer; whatever the estimate does not reach is `mesh-noc.unattributed`:
//! the active-set walk, the merge point, the scoreboard and every effect a
//! micro-timing misses (cache misses on a big mesh, branch history). It is
//! an estimate — to be replaced by in-program spans (ROADMAP item 2(a)) —
//! and is labelled so wherever it is printed.

use std::collections::BTreeMap;

/// One line of the estimate: `count` events of `unit_ns` each.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub layer: &'static str,
    pub what: &'static str,
    pub count: f64,
    pub unit_ns: f64,
}

impl Line {
    pub fn ns(&self) -> f64 {
        self.count * self.unit_ns
    }
}

/// The estimate's lines for one step workload. `counts` holds the traced
/// pass's exact counts (catalogue names plus the `count.*` extras of
/// `workloads::step`), `units` the unit costs, `coin_flips` the Bernoulli
/// trials of the timed region (nodes × steps).
pub fn lines(
    counts: &BTreeMap<String, f64>,
    units: &BTreeMap<String, f64>,
    coin_flips: f64,
) -> Vec<Line> {
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let unit = |name: &str| units.get(name).copied().unwrap_or(0.0);
    let flits_moved = count("count.link_traversals") + count("count.local_link_traversals");
    // A forking hop is also counted among the bypasses or buffer writes, so
    // a fork is charged only what it costs beyond a plain bypassed hop.
    let fork_surcharge =
        (unit("noc-router.fork_hop_ns") - unit("noc-router.bypass_hop_ns")).max(0.0);
    vec![
        Line {
            layer: "noc-router",
            what: "bypassed hops",
            count: count("noc-router.bypasses"),
            unit_ns: unit("noc-router.bypass_hop_ns"),
        },
        Line {
            layer: "noc-router",
            what: "buffered hops",
            count: count("noc-router.buffer_writes"),
            unit_ns: unit("noc-router.buffered_hop_ns"),
        },
        Line {
            layer: "noc-router",
            what: "fork surcharge",
            count: count("noc-router.multicast_forks"),
            unit_ns: fork_surcharge,
        },
        Line {
            layer: "noc-sim",
            what: "wheel events",
            count: count("noc-sim.wheel_events"),
            unit_ns: unit("noc-sim.wheel_event_ns"),
        },
        Line {
            layer: "noc-sim",
            what: "slab insert+take",
            count: flits_moved,
            unit_ns: unit("noc-sim.slab_insert_take_ns"),
        },
        Line {
            layer: "noc-sim",
            what: "latency records",
            count: count("count.ejections"),
            unit_ns: unit("noc-sim.latency_record_ns"),
        },
        Line {
            layer: "noc-sim",
            what: "PRBS coin flips (scouted)",
            count: coin_flips,
            unit_ns: unit("noc-sim.prbs_scout_skip_ns"),
        },
        Line {
            layer: "noc-traffic",
            what: "packets generated",
            count: count("noc-traffic.packets_generated"),
            unit_ns: unit("noc-traffic.generate_ns"),
        },
    ]
}

/// Each layer's estimated share of `timed_ns`, plus the remainder as
/// `mesh-noc.unattributed_share`, by catalogue name.
pub fn shares(lines: &[Line], timed_ns: f64) -> Vec<(String, f64)> {
    let mut shares: Vec<(String, f64)> = ["noc-router", "noc-sim", "noc-traffic"]
        .iter()
        .map(|layer| {
            let ns: f64 = lines
                .iter()
                .filter(|l| l.layer == *layer)
                .map(Line::ns)
                .sum();
            (format!("{layer}.est_share"), ns / timed_ns)
        })
        .collect();
    let attributed: f64 = shares.iter().map(|(_, share)| share).sum();
    shares.push(("mesh-noc.unattributed_share".to_owned(), 1.0 - attributed));
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one_and_charge_forks_only_their_surcharge() {
        let counts: BTreeMap<String, f64> = [
            ("noc-router.bypasses", 100.0),
            ("noc-router.multicast_forks", 10.0),
            ("noc-traffic.packets_generated", 5.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        let units: BTreeMap<String, f64> = [
            ("noc-router.bypass_hop_ns", 2.0),
            ("noc-router.fork_hop_ns", 5.0),
            ("noc-traffic.generate_ns", 4.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        let lines = lines(&counts, &units, 0.0);
        let shares = shares(&lines, 1_000.0);
        // router: 100 × 2 + 10 × (5 − 2) = 230 ns; traffic: 5 × 4 = 20 ns.
        assert_eq!(shares[0], ("noc-router.est_share".to_owned(), 0.23));
        assert_eq!(shares[1].1, 0.0);
        assert_eq!(shares[2], ("noc-traffic.est_share".to_owned(), 0.02));
        assert_eq!(shares[3].0, "mesh-noc.unattributed_share");
        assert!((shares.iter().map(|(_, s)| s).sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
