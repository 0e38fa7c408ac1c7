//! Golden tests: refactors must not move a single bit of the historical
//! curves.
//!
//! The destination sequences and fig5 sweep values below were captured from
//! the generator *before* `SpatialPattern` existed (when the uniform draw
//! was inlined in `TrafficGenerator::build_packet`); the low-load sweep
//! values were captured *before* the data-oriented hot-path refactor
//! (inline VC FIFOs, SoA port banks, active-set step scheduling). The
//! default configurations must reproduce them exactly; updating these
//! constants is a deliberate act, not a side effect of a refactor.

use noc_bench::{find_experiment, Effort, RunOpts};
use noc_repro::noc::{Network, NetworkVariant, NocConfig, Scenario, ServingRunner, SweepRunner};
use noc_repro::sim::ActivityCounters;
use noc_repro::traffic::{SeedMode, SpatialPattern, TrafficGenerator, TrafficMix};
use noc_repro::types::{DestinationSet, TrafficKind};

/// First 48 unicast destinations of node 5 on a 4×4 mesh, per-node seeding,
/// default base seed — captured pre-refactor.
const NODE5_PERNODE_DESTS: [u16; 48] = [
    13, 12, 11, 0, 2, 14, 10, 0, 11, 9, 1, 14, 3, 15, 14, 6, 2, 10, 11, 13, 14, 6, 8, 7, 2, 14, 8,
    4, 11, 13, 9, 8, 14, 2, 10, 3, 2, 13, 11, 14, 10, 0, 10, 8, 4, 10, 9, 4,
];

/// First 48 unicast destinations of node 0 with the chip's identical-seed
/// artifact — captured pre-refactor.
const NODE0_IDENTICAL_DESTS: [u16; 48] = [
    1, 15, 13, 7, 14, 5, 14, 8, 5, 13, 3, 1, 14, 5, 1, 9, 6, 9, 15, 14, 5, 7, 4, 1, 12, 7, 3, 15,
    14, 4, 3, 15, 15, 7, 5, 1, 13, 8, 6, 15, 9, 2, 14, 13, 12, 10, 5, 8,
];

fn dest_sequence(node: u16, seed_mode: SeedMode) -> Vec<u16> {
    let mut gen = TrafficGenerator::with_base_seed(
        node,
        4,
        TrafficMix::unicast_requests_only(),
        seed_mode,
        1.0,
        TrafficGenerator::DEFAULT_BASE_SEED,
    );
    (0..48)
        .map(|c| {
            let p = gen.build_packet(TrafficKind::UnicastRequest, c);
            p.destinations().iter().next().unwrap()
        })
        .collect()
}

#[test]
fn uniform_legacy_reproduces_the_pre_refactor_destination_stream_bit_for_bit() {
    assert_eq!(dest_sequence(5, SeedMode::PerNode), NODE5_PERNODE_DESTS);
    assert_eq!(dest_sequence(0, SeedMode::Identical), NODE0_IDENTICAL_DESTS);
}

#[test]
fn the_resampling_uniform_is_a_deliberate_distribution_change() {
    // The unbiased pattern shares the PRBS stream but resamples collisions,
    // so its sequence must diverge from the captured legacy stream exactly
    // where the legacy draw skipped onto a successor (and nowhere before).
    let mut gen = TrafficGenerator::with_pattern(
        5,
        4,
        TrafficMix::unicast_requests_only(),
        SpatialPattern::uniform(),
        SeedMode::PerNode,
        1.0,
        TrafficGenerator::DEFAULT_BASE_SEED,
    );
    let resampled: Vec<u16> = (0..48)
        .map(|c| {
            let p = gen.build_packet(TrafficKind::UnicastRequest, c);
            p.destinations().iter().next().unwrap()
        })
        .collect();
    assert_ne!(resampled.as_slice(), NODE5_PERNODE_DESTS);
    assert!(resampled.iter().all(|&d| d < 16 && d != 5));
}

/// The fig5-style sweep of the proposed chip (default configuration:
/// identical seeds, mixed traffic, legacy-uniform destinations), captured
/// pre-refactor as exact `f64` bit patterns: (rate, latency, Gb/s,
/// flits/cycle, bypass fraction). The bypass column was deliberately
/// re-captured when bypass counting moved from per-flit to per-link-
/// traversal (the old per-flit count exceeded the hop count on forking
/// broadcasts, pushing the "fraction" above 1.0); the traffic, latency and
/// throughput columns are untouched — the fix is counting-only.
const FIG5_GOLDEN_POINTS: [(f64, u64, u64, u64, u64); 3] = [
    (
        0.02,
        0x403e_8a2e_8ba2_e8ba,
        0x4058_d4fd_f3b6_45a2,
        0x3ff8_d4fd_f3b6_45a2,
        0x3fe2_bcc5_176e_971a,
    ),
    (
        0.1,
        0x4044_a52a_aaaa_aaab,
        0x407d_a0c4_9ba5_e354,
        0x401d_a0c4_9ba5_e354,
        0x3fe2_da9d_c3cc_06e2,
    ),
    (
        0.2,
        0x406b_abac_37da_c37e,
        0x4088_f9db_22d0_e560,
        0x4028_f9db_22d0_e560,
        0x3fe2_c41b_01c9_33b5,
    ),
];

fn assert_sweep_matches(
    config: NocConfig,
    windows: (u64, u64),
    golden_points: &[(f64, u64, u64, u64, u64)],
) {
    let rates: Vec<f64> = golden_points.iter().map(|p| p.0).collect();
    let outcome = SweepRunner::new(2)
        .with_windows(windows.0, windows.1)
        .unwrap()
        .run(config, &rates)
        .unwrap();
    for (point, golden) in outcome.curve.points.iter().zip(golden_points) {
        assert_eq!(point.injection_rate, golden.0);
        assert_eq!(
            point.latency_cycles.to_bits(),
            golden.1,
            "latency moved at rate {}: {} cycles",
            golden.0,
            point.latency_cycles
        );
        assert_eq!(
            point.received_gbps.to_bits(),
            golden.2,
            "throughput moved at rate {}: {} Gb/s",
            golden.0,
            point.received_gbps
        );
        assert_eq!(
            point.received_flits_per_cycle.to_bits(),
            golden.3,
            "flits/cycle moved at rate {}",
            golden.0
        );
        assert_eq!(
            point.bypass_fraction.to_bits(),
            golden.4,
            "bypass fraction moved at rate {}",
            golden.0
        );
    }
}

#[test]
fn default_configs_reproduce_the_pre_refactor_fig5_sweep_bit_for_bit() {
    let config = NocConfig::variant(NetworkVariant::LowSwingBroadcastBypass).unwrap();
    assert_eq!(config.pattern, SpatialPattern::uniform_legacy());
    assert_sweep_matches(config, (200, 1000), &FIG5_GOLDEN_POINTS);
}

/// Low-load sweep points of the proposed chip, captured before the
/// data-oriented hot-path refactor (inline VC FIFOs, SoA port banks,
/// active-set scheduling). This is the regime where the active-set
/// scheduler actually skips work, so it pins exactly the cycles the
/// scheduler decides not to simulate: (rate, latency, Gb/s, flits/cycle,
/// bypass fraction) as exact `f64` bit patterns. The bypass column was
/// re-captured with the per-link-traversal bypass count (see
/// [`FIG5_GOLDEN_POINTS`]).
const LOWLOAD_GOLDEN_POINTS: [(f64, u64, u64, u64, u64); 3] = [
    (
        0.005,
        0x4035_4555_5555_5555,
        0x400d_2f1a_9fbe_76c9,
        0x3fad_2f1a_9fbe_76c9,
        0x3fe3_9b60_2f5a_4412,
    ),
    (
        0.02,
        0x4031_4a00_0000_0000,
        0x404e_353f_7ced_9168,
        0x3fee_353f_7ced_9168,
        0x3fe3_60e9_c2a3_4ebb,
    ),
    (
        0.05,
        0x403c_6216_42c8_590b,
        0x406d_c083_126e_978d,
        0x400d_c083_126e_978d,
        0x3fe2_4e92_41e7_a820,
    ),
];

/// One 8×8 low-load point (rate 0.01, shorter windows), pinning the larger
/// mesh — where idle-node skipping is most aggressive — through the same
/// refactor.
const LOWLOAD_8X8_GOLDEN_POINT: [(f64, u64, u64, u64, u64); 1] = [(
    0.01,
    0x4040_c200_0000_0000,
    0x4022_c5f9_2c5f_92c6,
    0x3fc2_c5f9_2c5f_92c6,
    0x3fe3_3b43_263a_ef05,
)];

#[test]
fn lowload_sweeps_survive_the_active_set_refactor_bit_for_bit() {
    let config = NocConfig::variant(NetworkVariant::LowSwingBroadcastBypass).unwrap();
    assert_sweep_matches(config, (200, 1000), &LOWLOAD_GOLDEN_POINTS);
    let config8 = NocConfig::variant(NetworkVariant::LowSwingBroadcastBypass)
        .unwrap()
        .with_side(8);
    assert_sweep_matches(config8, (200, 600), &LOWLOAD_8X8_GOLDEN_POINT);
}

/// The quick-effort closed-loop serving sweep of the proposed chip —
/// exactly what `repro --quick --jobs 2 serving` measures (populations
/// thinned to [2, 8, 32, 96], 200-cycle warm-up, 1000-cycle measurement) —
/// captured when the request/reply layer landed: (clients, RTT mean, RTT
/// p50, RTT p99, delivered Gb/s) as exact `f64` bit patterns. The RTT
/// percentiles come from the 4096-bin histogram, so a binning or merge
/// change shows up here even when the mean survives.
const SERVING_GOLDEN_POINTS: [(usize, u64, u64, u64, u64); 4] = [
    (
        2,
        0x4040_4fee_b7a0_f1f5,
        0x4040_0000_0000_0000,
        0x4046_8000_0000_0000,
        0x4056_c083_126e_978d,
    ),
    (
        8,
        0x4042_835a_35a3_5a36,
        0x4042_0000_0000_0000,
        0x404d_0000_0000_0000,
        0x4074_2b02_0c49_ba5e,
    ),
    (
        32,
        0x4056_120b_2164_2c86,
        0x4052_8000_0000_0000,
        0x4070_3000_0000_0000,
        0x4081_a560_4189_374c,
    ),
    (
        96,
        0x4070_ad92_143f_a36f,
        0x406f_2000_0000_0000,
        0x4085_3800_0000_0000,
        0x4081_2f9d_b22d_0e56,
    ),
];

#[test]
fn serving_quick_sweep_reproduces_the_pinned_rtt_curve_bit_for_bit() {
    let config = NocConfig::proposed_chip().unwrap();
    let populations: Vec<usize> = SERVING_GOLDEN_POINTS.iter().map(|p| p.0).collect();
    let outcome = ServingRunner::new(2)
        .with_windows(200, 1000)
        .unwrap()
        .run(config, &populations)
        .unwrap();
    assert_eq!(outcome.points.len(), SERVING_GOLDEN_POINTS.len());
    for (point, golden) in outcome.points.iter().zip(&SERVING_GOLDEN_POINTS) {
        assert_eq!(point.clients, golden.0);
        assert_eq!(
            point.result.rtt_mean_cycles.to_bits(),
            golden.1,
            "RTT mean moved at {} clients: {} cycles",
            golden.0,
            point.result.rtt_mean_cycles
        );
        assert_eq!(
            point.result.rtt_p50_cycles.to_bits(),
            golden.2,
            "RTT p50 moved at {} clients: {} cycles",
            golden.0,
            point.result.rtt_p50_cycles
        );
        assert_eq!(
            point.result.rtt_p99_cycles.to_bits(),
            golden.3,
            "RTT p99 moved at {} clients: {} cycles",
            golden.0,
            point.result.rtt_p99_cycles
        );
        assert_eq!(
            point.result.received_gbps.to_bits(),
            golden.4,
            "delivered throughput moved at {} clients: {} Gb/s",
            golden.0,
            point.result.received_gbps
        );
    }
}

/// First 12 16-bit words of the rate LFSR from the default seed, MSB-first —
/// captured from the serial one-bit-per-step register before `leap16`
/// existed. The leap tables must reproduce this stream exactly.
const LFSR_ACE1_WORDS: [u16; 12] = [
    0xee10, 0x46df, 0x0d4d, 0xa7c7, 0xacbe, 0x7745, 0x74ae, 0xd5d8, 0x55f5, 0x01ad, 0xd2b3, 0xdfb1,
];

#[test]
fn leap16_reproduces_the_serial_lfsr_word_stream_bit_for_bit() {
    // Independent serial reference, re-implemented here so a bug in the
    // leap tables cannot hide behind a matching bug in `Lfsr::next_bit`.
    let serial_words = |seed: u16, count: usize| -> Vec<u16> {
        let mut state = seed;
        (0..count)
            .map(|_| {
                let mut word = 0u16;
                for _ in 0..16 {
                    let bit = (state ^ (state >> 1) ^ (state >> 3) ^ (state >> 12)) & 1;
                    state = (state >> 1) | (bit << 15);
                    word = (word << 1) | bit;
                }
                word
            })
            .collect()
    };

    let mut leaping = noc_repro::sim::Lfsr::new(0xACE1);
    let leapt: Vec<u16> = (0..2000).map(|_| leaping.leap16()).collect();
    assert_eq!(leapt[..12], LFSR_ACE1_WORDS, "pinned prefix moved");
    assert_eq!(
        leapt,
        serial_words(0xACE1, 2000),
        "leap16 diverged from the serial register"
    );
    // A second seed guards against tables that only work for one orbit.
    let mut other = noc_repro::sim::Lfsr::new(0x0001);
    let other_leapt: Vec<u16> = (0..500).map(|_| other.leap16()).collect();
    assert_eq!(other_leapt, serial_words(0x0001, 500));
}

/// One 16×16 run of the `hotspot16` scenario (90 % of unicast traffic aimed
/// at the far-corner node, per-node seeds) at rate 0.04: 1 200 measured
/// injecting cycles, then 1 200 drain cycles. Captured from the serial path
/// of the partition-capable stepper before it was flattened into `Network`;
/// 256 nodes span four 64-bit mask words, which no smaller golden exercises.
/// (injected packets, latency count, latency mean bits, latency p99,
/// received flits, merged activity counters.)
const HOTSPOT16_GOLDEN: (u64, u64, u64, u64, u64, ActivityCounters) = (
    4_026,
    1_272,
    0x407d_077b_f98f_4bac,
    1_991,
    2_804,
    ActivityCounters {
        buffer_writes: 8_236,
        buffer_reads: 6_339,
        crossbar_traversals: 36_018,
        link_traversals: 33_206,
        local_link_traversals: 7_534,
        sa_local_arbitrations: 11_490,
        sa_global_arbitrations: 39_191,
        vc_allocations: 16_213,
        route_computations: 17_947,
        lookaheads_sent: 37_928,
        bypasses: 27_273,
        credits_sent: 0,
        multicast_forks: 0,
        ejections: 1_273,
        cycles: 614_400,
        routers: 256,
    },
);

#[test]
fn hotspot16_run_survives_the_stepper_flattening_bit_for_bit() {
    let scenario = Scenario::builder()
        .mesh(16)
        .pattern(SpatialPattern::hotspot(DestinationSet::unicast(255), 0.9))
        .mix(TrafficMix::unicast_only())
        .seed_mode(SeedMode::PerNode)
        .rate(0.04)
        .build()
        .unwrap();
    let mut network = Network::new(*scenario.config(), scenario.rate()).unwrap();
    network.set_measuring(true);
    for _ in 0..1_200 {
        network.step(true);
    }
    for _ in 0..1_200 {
        network.step(false);
    }
    let latency = network.latency();
    assert_eq!(
        (
            network.injected_packets(),
            latency.count(),
            latency.mean().to_bits(),
            latency.percentile(0.99).unwrap(),
            network.throughput().received_flits(),
            network.counters(),
        ),
        HOTSPOT16_GOLDEN
    );
}

/// The summary of every sweep behind the `fig5`, `patterns`, `stress8`,
/// `stress16`, `hotspot16` and `serving` experiments, as
/// `repro --quick --jobs 2` reports it: (experiment, network, mesh side,
/// zero-load latency bits, saturation throughput bits), in report order.
/// The same numbers go into `BENCH_sweep.json`.
const QUICK_SWEEP_GOLDEN: [(&str, &str, u16, u64, u64); 14] = [
    (
        "fig5",
        "proposed",
        4,
        0x403d_dc00_0000_0000,
        0x4087_12f1_a9fb_e76d,
    ),
    (
        "fig5",
        "baseline",
        4,
        0x4043_2c00_0000_0000,
        0x4082_69fb_e76c_8b44,
    ),
    (
        "patterns",
        "uniform",
        4,
        0x401c_0f57_403d_5d01,
        0x4082_f126_e978_d4fe,
    ),
    (
        "patterns",
        "transpose",
        4,
        0x401e_5a20_9968_8266,
        0x4078_d1eb_851e_b852,
    ),
    (
        "patterns",
        "bit-complement",
        4,
        0x4021_3891_bce2_46f4,
        0x407a_4fdf_3b64_5a1d,
    ),
    (
        "patterns",
        "bit-reverse",
        4,
        0x401e_1517_f854_5fe1,
        0x4078_7ef9_db22_d0e5,
    ),
    (
        "patterns",
        "tornado",
        4,
        0x401c_edc8_63b7_218f,
        0x408a_d1eb_851e_b852,
    ),
    (
        "patterns",
        "nearest-neighbor",
        4,
        0x4016_d4da_9b53_6a6d,
        0x408a_d168_72b0_20c5,
    ),
    (
        "patterns",
        "shuffle",
        4,
        0x401b_dd7b_af75_eebe,
        0x4081_7851_eb85_1eb8,
    ),
    (
        "patterns",
        "hotspot",
        4,
        0x401e_379c_48de_7123,
        0x4077_1687_2b02_0c4a,
    ),
    (
        "stress8",
        "proposed",
        8,
        0x4028_3fc8_d5c3_a9ce,
        0x40ad_9872_b020_c49c,
    ),
    (
        "stress16",
        "proposed",
        16,
        0x403a_0a94_1963_7022,
        0x40cc_e7be_76c8_b439,
    ),
    (
        "hotspot16",
        "proposed",
        16,
        0x4079_bacc_0c84_b1c3,
        0x4052_f9db_22d0_e560,
    ),
    (
        "serving",
        "proposed",
        4,
        0x4040_4fee_b7a0_f1f5,
        0x4081_2f9d_b22d_0e56,
    ),
];

/// Runs `experiment` as `repro --quick --jobs 2` does and checks each of its
/// sweep summaries against [`QUICK_SWEEP_GOLDEN`].
fn assert_quick_sweeps_match(experiment: &str) {
    let golden: Vec<_> = QUICK_SWEEP_GOLDEN
        .iter()
        .filter(|row| row.0 == experiment)
        .collect();
    let report = find_experiment(experiment)
        .unwrap_or_else(|| panic!("experiment `{experiment}` is not registered"))
        .run(RunOpts::new(Effort::Quick).with_jobs(2));
    let networks: Vec<&str> = report.sweeps.iter().map(|s| s.network.as_str()).collect();
    let golden_networks: Vec<&str> = golden.iter().map(|row| row.1).collect();
    assert_eq!(
        networks, golden_networks,
        "{experiment}: swept networks changed"
    );
    for (sweep, &&(_, network, k, zero_load, saturation)) in report.sweeps.iter().zip(&golden) {
        assert_eq!(sweep.experiment, experiment);
        assert_eq!(sweep.k, k, "{experiment}/{network}: mesh side changed");
        assert_eq!(
            sweep.zero_load_latency_cycles.to_bits(),
            zero_load,
            "{experiment}/{network}: zero-load latency moved to {} cycles",
            sweep.zero_load_latency_cycles
        );
        assert_eq!(
            sweep.saturation_gbps.to_bits(),
            saturation,
            "{experiment}/{network}: saturation throughput moved to {} Gb/s",
            sweep.saturation_gbps
        );
    }
}

#[test]
fn fig5_quick_sweep_summaries_are_pinned_bit_for_bit() {
    assert_quick_sweeps_match("fig5");
}

#[test]
fn patterns_quick_sweep_summaries_are_pinned_bit_for_bit() {
    assert_quick_sweeps_match("patterns");
}

#[test]
fn stress8_quick_sweep_summary_is_pinned_bit_for_bit() {
    assert_quick_sweeps_match("stress8");
}

#[test]
fn stress16_quick_sweep_summary_is_pinned_bit_for_bit() {
    assert_quick_sweeps_match("stress16");
}

#[test]
fn hotspot16_quick_sweep_summary_is_pinned_bit_for_bit() {
    assert_quick_sweeps_match("hotspot16");
}

#[test]
fn serving_quick_sweep_summary_is_pinned_bit_for_bit() {
    assert_quick_sweeps_match("serving");
}
