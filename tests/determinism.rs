//! Determinism guarantees of the simulation core.
//!
//! The parallel sweep runner is only sound because every simulation is a
//! pure function of `(configuration, injection rate)`: these tests pin that
//! property down — repeated sequential runs must agree byte for byte, a
//! sweep sharded over N worker threads must reproduce the single-threaded
//! curve exactly, and a *warm* network (reused across sweep points via
//! `Network::reset`, all buffer capacity retained) must behave
//! bit-identically to a cold-constructed one.

use noc_repro::noc::{
    Network, NetworkVariant, NocConfig, ServingResult, ServingRunner, Simulation, SimulationResult,
    SweepRunner,
};
use noc_repro::traffic::{SeedMode, SpatialPattern, TrafficMix};

fn run_once(config: NocConfig, rate: f64) -> SimulationResult {
    let mut sim = Simulation::new(config).expect("valid configuration");
    sim.run(rate, 150, 600).expect("valid rate")
}

#[test]
fn sequential_runs_are_byte_identical() {
    for variant in [
        NetworkVariant::ProposedChip,
        NetworkVariant::FullSwingUnicast,
    ] {
        for seed_mode in [SeedMode::Identical, SeedMode::PerNode] {
            let config = NocConfig::variant(variant)
                .unwrap()
                .with_seed_mode(seed_mode);
            let first = run_once(config, 0.08);
            let second = run_once(config, 0.08);
            // Structural equality covers every field (floats included)...
            assert_eq!(first, second, "{variant:?}/{seed_mode:?} diverged");
            // ...and the rendered form pins down byte-for-byte identity.
            assert_eq!(
                format!("{first:?}"),
                format!("{second:?}"),
                "{variant:?}/{seed_mode:?} debug output diverged"
            );
        }
    }
}

#[test]
fn base_seed_changes_the_run() {
    let config = NocConfig::proposed_chip()
        .unwrap()
        .with_seed_mode(SeedMode::PerNode);
    let default_seed = run_once(config, 0.08);
    let other_seed = run_once(config.with_base_seed(0xBEEF), 0.08);
    assert_ne!(
        default_seed, other_seed,
        "distinct base seeds must produce distinct traffic"
    );
}

#[test]
fn warm_reset_matches_cold_construction() {
    // A sweep point run on a warmed, reset simulation must equal the same
    // point run on a freshly constructed one — the property that makes
    // batching sweep points through one network per worker sound.
    for variant in [
        NetworkVariant::ProposedChip,
        NetworkVariant::FullSwingUnicast,
    ] {
        let config = NocConfig::variant(variant)
            .unwrap()
            .with_seed_mode(SeedMode::PerNode);
        // Warm one simulation across several (seed, rate) points...
        let mut warm = Simulation::new(config).expect("valid configuration");
        let points: [(u64, f64); 3] = [(0x0101, 0.04), (0xBEEF, 0.12), (0x7A5A, 0.22)];
        for (seed, rate) in points {
            warm.reset(seed);
            let warm_result = warm.run(rate, 150, 600).expect("valid rate");
            // ...and compare each against a cold simulation of that seed.
            let cold_config = config.with_base_seed(seed as u16);
            let cold_result = run_once(cold_config, rate);
            assert_eq!(
                warm_result, cold_result,
                "{variant:?} seed {seed:#x} rate {rate} diverged warm vs cold"
            );
        }
    }
}

#[test]
fn sweep_runner_matches_single_thread_exactly() {
    let rates = [0.02, 0.06, 0.1, 0.14, 0.18, 0.22, 0.26];
    for variant in [
        NetworkVariant::ProposedChip,
        NetworkVariant::FullSwingUnicast,
    ] {
        let config = NocConfig::variant(variant)
            .unwrap()
            .with_seed_mode(SeedMode::PerNode);
        let single = SweepRunner::new(1)
            .with_windows(100, 400)
            .unwrap()
            .run(config, &rates)
            .unwrap();
        for jobs in [2, 3, 8] {
            let sharded = SweepRunner::new(jobs)
                .with_windows(100, 400)
                .unwrap()
                .run(config, &rates)
                .unwrap();
            assert_eq!(
                single.curve, sharded.curve,
                "{variant:?} with {jobs} threads produced a different curve"
            );
            // Per-point full results (counters and all) must match too.
            for (s, p) in single.points.iter().zip(sharded.points.iter()) {
                assert_eq!(s.injection_rate, p.injection_rate);
                assert_eq!(
                    s.result, p.result,
                    "{variant:?} rate {} diverged at {jobs} threads",
                    s.injection_rate
                );
            }
        }
    }
}

#[test]
fn non_uniform_patterns_keep_every_determinism_guarantee() {
    // The pattern abstraction must not leak scheduling into the traffic:
    // for a deterministic permutation, a PRBS-consuming hotspot and the
    // unbiased resampling uniform, a sweep sharded over N threads (warm
    // batched networks and all) must reproduce the single-threaded curve
    // bit for bit, and repeated runs must agree exactly.
    let rates = [0.05, 0.25, 0.45, 0.65];
    for pattern in [
        SpatialPattern::Transpose,
        SpatialPattern::uniform(),
        SpatialPattern::corner_hotspot(4, 0.5),
    ] {
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_mix(TrafficMix::unicast_only())
            .with_seed_mode(SeedMode::PerNode)
            .with_pattern(pattern);
        let single = SweepRunner::new(1)
            .with_windows(100, 400)
            .unwrap()
            .run(config, &rates)
            .unwrap();
        for jobs in [2, 5] {
            let sharded = SweepRunner::new(jobs)
                .with_windows(100, 400)
                .unwrap()
                .run(config, &rates)
                .unwrap();
            assert_eq!(
                single.curve, sharded.curve,
                "{pattern:?} with {jobs} threads produced a different curve"
            );
            for (s, p) in single.points.iter().zip(sharded.points.iter()) {
                assert_eq!(
                    s.result, p.result,
                    "{pattern:?} rate {} diverged at {jobs} threads",
                    s.injection_rate
                );
            }
        }
        let again = run_once(config, 0.25);
        assert_eq!(
            again,
            run_once(config, 0.25),
            "{pattern:?} repeated runs diverged"
        );
    }
}

#[test]
fn serving_sweep_is_bit_identical_across_jobs() {
    // The closed-loop serving runner shards population points across worker
    // threads (`jobs`). Sharding may not move a single measured bit relative
    // to the fully serial run: the CI canary and the golden pins depend on
    // it.
    let config = NocConfig::proposed_chip().unwrap();
    let populations = [2usize, 6, 16, 40];
    let run = |jobs: usize| -> Vec<ServingResult> {
        ServingRunner::new(jobs)
            .with_windows(100, 400)
            .unwrap()
            .run(config, &populations)
            .unwrap()
            .points
            .into_iter()
            .map(|p| p.result)
            .collect()
    };
    let serial = run(1);
    assert_eq!(serial.len(), populations.len());
    for jobs in [2, 3, 4] {
        let threaded = run(jobs);
        assert_eq!(serial, threaded, "serving diverged at jobs={jobs}");
        // The rendered form pins byte-for-byte float identity.
        assert_eq!(
            format!("{serial:?}"),
            format!("{threaded:?}"),
            "serving debug output diverged at jobs={jobs}"
        );
    }
}

#[test]
fn nic_idle_skip_is_bit_identical_to_serial_injection() {
    // The quiescent-NIC nap (scout the PRBS coin run, sleep, replay the
    // skipped flips on wake) is a pure scheduling shortcut: with the chicken
    // bit off, every NIC flips its coin serially each cycle. Both modes must
    // produce the same traffic bit for bit — including across drain phases
    // with injection off and a mid-run rate change, which force the
    // wake/catch-up paths. The 16×16 low-load case keeps hundreds of NICs
    // asleep at once over four mask words, so the wake heap holds many
    // entries when the rate change clears it.
    for (k, mix, rate) in [
        (4, TrafficMix::default(), 0.03),
        (4, TrafficMix::unicast_only(), 0.18),
        (4, TrafficMix::broadcast_only(), 0.02),
        (16, TrafficMix::unicast_only(), 0.005),
    ] {
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_side(k)
            .with_mix(mix)
            .with_seed_mode(SeedMode::PerNode);
        let mut napping = Network::new(config, rate).expect("valid configuration");
        let mut serial = Network::new(config, rate).expect("valid configuration");
        serial.set_nic_idle_skip(false);
        napping.set_measuring(true);
        serial.set_measuring(true);

        // Interleave inject and drain phases, changing the rate mid-run.
        let phases = [(250usize, true), (60, false), (120, true), (40, false)];
        for (round, (steps, inject)) in phases.into_iter().enumerate() {
            for _ in 0..steps {
                napping.step(inject);
                serial.step(inject);
                assert_eq!(
                    napping.in_flight_flits(),
                    serial.in_flight_flits(),
                    "in-flight flits diverged (k {k}, {mix:?}, round {round})"
                );
            }
            assert_eq!(
                napping.injected_packets(),
                serial.injected_packets(),
                "injection streams diverged (k {k}, {mix:?}, round {round})"
            );
            if round == 1 {
                napping.set_rate(rate * 3.0);
                serial.set_rate(rate * 3.0);
            }
        }
        assert_eq!(
            napping.counters(),
            serial.counters(),
            "activity counters diverged (k {k}, {mix:?})"
        );
        assert_eq!(
            format!("{:?}", napping.latency()),
            format!("{:?}", serial.latency()),
            "latency statistics diverged (k {k}, {mix:?})"
        );
        assert_eq!(
            format!("{:?}", napping.throughput()),
            format!("{:?}", serial.throughput()),
            "throughput statistics diverged (k {k}, {mix:?})"
        );
    }
}
