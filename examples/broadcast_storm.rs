//! Broadcast-heavy workload study (the scenario behind Fig. 13).
//!
//! Cache-coherence protocols become more broadcast-intensive as core counts
//! grow; this example sweeps broadcast-only traffic over injection rate and
//! compares the proposed router-level multicast network against a baseline
//! whose NICs must duplicate every broadcast into 15 unicasts.
//!
//! Run with: `cargo run --release --example broadcast_storm`

use noc_repro::noc::{sweep, NetworkVariant, Scenario, SweepRunner};
use noc_repro::traffic::{SeedMode, TrafficMix};
use noc_repro::types::NocError;

fn main() -> Result<(), NocError> {
    let rates = [0.005, 0.015, 0.03, 0.045, 0.06, 0.075];
    let storm = |variant| {
        Scenario::builder()
            .variant(variant)
            .mix(TrafficMix::broadcast_only())
            .seed_mode(SeedMode::PerNode)
            .build()
            .map(|scenario| *scenario.config())
    };
    let proposed = storm(NetworkVariant::LowSwingBroadcastBypass)?;
    let baseline = storm(NetworkVariant::FullSwingUnicast)?;

    println!(
        "== broadcast storm: proposed (router-level multicast) vs baseline (NIC duplication) =="
    );
    println!(
        "{:>8} {:>22} {:>22}",
        "rate", "baseline lat/thru", "proposed lat/thru"
    );
    let runner = SweepRunner::new(1).with_windows(500, 3_000)?;
    let comparison = sweep::compare_with(&runner, proposed, baseline, &rates)?;
    for (b, p) in comparison
        .baseline
        .points
        .iter()
        .zip(comparison.proposed.points.iter())
    {
        println!(
            "{:>8.3} {:>12.1}cyc {:>7.0}Gb/s {:>12.1}cyc {:>7.0}Gb/s",
            p.injection_rate, b.latency_cycles, b.received_gbps, p.latency_cycles, p.received_gbps
        );
    }
    println!();
    println!(
        "low-load latency reduction : {:.1}%  (paper: 55.1% for broadcast-only traffic)",
        comparison.latency_reduction * 100.0
    );
    println!(
        "saturation throughput gain : {:.2}x (paper: 2.2x)",
        comparison.throughput_improvement
    );
    println!(
        "fraction of the 1024 Gb/s theoretical limit: {:.0}% (paper: 91%)",
        comparison.fraction_of_theoretical_limit * 100.0
    );
    Ok(())
}
