//! Criterion bench: ns per `Network::step` call on steady-state workloads.
//!
//! This is the perf-trajectory anchor for the simulation core: the 4×4
//! saturated mixed-traffic point is the hottest configuration behind the
//! latency-throughput sweeps of Figs. 5 and 13, and the k=8 point tracks how
//! stepping scales with mesh size. The low-load and all-idle-drain variants
//! anchor the other end of every sweep curve, where the active-set scheduler
//! lets `step` skip idle routers and NICs entirely. Networks are driven into
//! steady state before measurement so the numbers reflect the per-cycle cost
//! (event scheduling, router allocation, flit movement) rather than
//! cold-start behaviour.

use criterion::{criterion_group, criterion_main, Criterion};
use mesh_noc::{Network, NetworkVariant, NocConfig};
use noc_traffic::{SeedMode, TrafficMix};
use std::hint::black_box;

/// Builds a network at `rate` and steps it into steady state.
fn warmed_network(config: NocConfig, rate: f64, warmup: u64) -> Network {
    let mut network = Network::new(config, rate).unwrap();
    for _ in 0..warmup {
        network.step(true);
    }
    network
}

fn bench_step_4x4_saturated(c: &mut Criterion) {
    // 0.28 flits/node/cycle of mixed traffic is past the proposed network's
    // saturation point: every cycle moves flits on most links.
    let config = NocConfig::proposed_chip()
        .unwrap()
        .with_seed_mode(SeedMode::PerNode);
    let mut network = warmed_network(config, 0.28, 1_000);
    c.bench_function("step_4x4_saturated_mixed", |b| {
        b.iter(|| {
            network.step(true);
            black_box(network.now())
        });
    });
}

fn bench_step_4x4_baseline_saturated(c: &mut Criterion) {
    let config = NocConfig::variant(NetworkVariant::FullSwingUnicast)
        .unwrap()
        .with_seed_mode(SeedMode::PerNode);
    let mut network = warmed_network(config, 0.28, 1_000);
    c.bench_function("step_4x4_saturated_baseline", |b| {
        b.iter(|| {
            network.step(true);
            black_box(network.now())
        });
    });
}

fn bench_step_8x8_saturated(c: &mut Criterion) {
    let config = NocConfig::proposed_chip()
        .unwrap()
        .with_side(8)
        .with_seed_mode(SeedMode::PerNode);
    let mut network = warmed_network(config, 0.28, 1_000);
    c.bench_function("step_8x8_saturated_mixed", |b| {
        b.iter(|| {
            network.step(true);
            black_box(network.now())
        });
    });
}

/// The 16×16 stressor behind the `stress16` experiment: 256 nodes of
/// saturated mixed traffic — the scaling anchor at the largest supported
/// mesh.
fn bench_step_16x16_saturated(c: &mut Criterion) {
    let config = NocConfig::proposed_chip()
        .unwrap()
        .with_side(16)
        .with_seed_mode(SeedMode::PerNode);
    let mut network = warmed_network(config, 0.10, 1_000);
    c.bench_function("step_16x16_saturated_mixed", |b| {
        b.iter(|| {
            network.step(true);
            black_box(network.now())
        });
    });
}

/// Low-load variants: the regime where the active-set scheduler pays off.
/// Most cycles most routers are idle, so `step` should visit only the
/// handful of woken nodes instead of all k². The mixed points sit at the
/// bottom of the Fig. 5 sweep curves; the unicast points isolate router
/// idleness from the broadcast fan-out that keeps an 8×8 mesh busy even at
/// low rates. The 16×16 unicast point (the repo benchmark's
/// `lowload_step_16x16` setup) is where NIC naps and their wake-ups, not
/// router work, set the cost of a cycle.
fn bench_step_lowload(c: &mut Criterion) {
    let mixed_4 = NocConfig::proposed_chip()
        .unwrap()
        .with_seed_mode(SeedMode::PerNode);
    let mut network = warmed_network(mixed_4, 0.02, 1_000);
    c.bench_function("step_4x4_lowload_mixed", |b| {
        b.iter(|| {
            network.step(true);
            black_box(network.now())
        });
    });

    let mixed_8 = NocConfig::proposed_chip()
        .unwrap()
        .with_side(8)
        .with_seed_mode(SeedMode::PerNode);
    let mut network = warmed_network(mixed_8, 0.02, 1_000);
    c.bench_function("step_8x8_lowload_mixed", |b| {
        b.iter(|| {
            network.step(true);
            black_box(network.now())
        });
    });

    let unicast_8 = NocConfig::proposed_chip()
        .unwrap()
        .with_side(8)
        .with_mix(TrafficMix::unicast_only())
        .with_seed_mode(SeedMode::PerNode);
    let mut network = warmed_network(unicast_8, 0.01, 1_000);
    c.bench_function("step_8x8_lowload_unicast", |b| {
        b.iter(|| {
            network.step(true);
            black_box(network.now())
        });
    });

    let unicast_16 = NocConfig::proposed_chip()
        .unwrap()
        .with_side(16)
        .with_mix(TrafficMix::unicast_only())
        .with_seed_mode(SeedMode::PerNode);
    let mut network = warmed_network(unicast_16, 0.005, 1_000);
    c.bench_function("step_16x16_lowload_unicast", |b| {
        b.iter(|| {
            network.step(true);
            black_box(network.now())
        });
    });
}

/// All-idle drain: a fully drained 8×8 network stepped without injection.
/// Nothing can move, so this measures the pure per-cycle overhead of the
/// orchestrator — with active-set scheduling it is a wheel rotation plus a
/// scan of two zero bitmask words, independent of mesh size.
fn bench_step_drain_idle(c: &mut Criterion) {
    let config = NocConfig::proposed_chip()
        .unwrap()
        .with_side(8)
        .with_seed_mode(SeedMode::PerNode);
    let mut network = warmed_network(config, 0.02, 1_000);
    let mut drained = 0;
    while network.in_flight_flits() > 0 && drained < 20_000 {
        network.step(false);
        drained += 1;
    }
    assert_eq!(network.in_flight_flits(), 0, "network must drain fully");
    c.bench_function("step_8x8_drain_idle", |b| {
        b.iter(|| {
            network.step(false);
            black_box(network.now())
        });
    });
}

/// Warm-network reset (the per-sweep-point turnaround of a batching
/// `SweepRunner` worker) versus cold construction: resetting keeps every
/// buffer's high-water-mark capacity, so it should be much cheaper than
/// building a network from scratch. Every measured reset operates on a
/// *dirty* saturated network (cloned per iteration outside the timing), the
/// state a sweep worker actually rewinds between points.
fn bench_reset_vs_new(c: &mut Criterion) {
    let config = NocConfig::proposed_chip()
        .unwrap()
        .with_seed_mode(SeedMode::PerNode);
    let dirty = warmed_network(config, 0.28, 1_000);
    let mut seed = 0u64;
    c.bench_function("network_reset_warm_4x4", |b| {
        b.iter_batched(
            || dirty.clone(),
            |mut network| {
                seed = seed.wrapping_add(1);
                network.reset(seed);
                black_box(network.now());
                network
            },
            criterion::BatchSize::SmallInput,
        );
    });
    c.bench_function("network_new_cold_4x4", |b| {
        b.iter(|| {
            let network = Network::new(config, 0.28).unwrap();
            black_box(network.now())
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_step_4x4_saturated, bench_step_4x4_baseline_saturated, bench_step_8x8_saturated,
        bench_step_16x16_saturated, bench_step_lowload, bench_step_drain_idle, bench_reset_vs_new
}
criterion_main!(benches);
