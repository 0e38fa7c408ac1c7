//! Digest of simulated statistics.
//!
//! A simulator-only change must leave every simulated statistic identical.
//! Each rep folds the simulated fields it produced — never a wall-clock
//! field such as `wall_ms` — into one 64-bit FNV-1a digest; a rep whose
//! digest differs from the reference rep's is a failed op (the simulator is
//! not pure), and the digest is printed so two commits can be compared. It
//! is not pinned anywhere: a deliberate model fix changes it without
//! counting as a failure.
//!
//! Library structs are read field by field (no destructuring), so a field
//! added to them later does not break the build.

use mesh_noc::{ServingResult, SimulationResult};
use noc_sim::ActivityCounters;

#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Floats are folded bit for bit: "identical" means identical.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    pub fn counters(&mut self, c: &ActivityCounters) {
        for v in [
            c.buffer_writes,
            c.buffer_reads,
            c.crossbar_traversals,
            c.link_traversals,
            c.local_link_traversals,
            c.sa_local_arbitrations,
            c.sa_global_arbitrations,
            c.vc_allocations,
            c.route_computations,
            c.lookaheads_sent,
            c.bypasses,
            c.credits_sent,
            c.multicast_forks,
            c.ejections,
            c.cycles,
            c.routers,
        ] {
            self.u64(v);
        }
    }

    pub fn simulation(&mut self, r: &SimulationResult) {
        self.f64(r.injection_rate);
        self.f64(r.average_latency_cycles);
        self.f64(r.p50_latency_cycles);
        self.f64(r.p95_latency_cycles);
        self.f64(r.p99_latency_cycles);
        self.u64(r.measured_packets);
        self.f64(r.received_flits_per_cycle);
        self.f64(r.received_gbps);
        self.u64(r.injected_flits);
        self.u64(r.measured_cycles);
        self.f64(r.bypass_fraction);
        self.counters(&r.counters);
        self.u64(r.total_cycles);
    }

    pub fn serving(&mut self, r: &ServingResult) {
        self.u64(r.clients as u64);
        self.u64(r.requests_issued);
        self.u64(r.replies_completed);
        self.u64(r.measured_requests);
        self.f64(r.rtt_mean_cycles);
        self.f64(r.rtt_p50_cycles);
        self.f64(r.rtt_p95_cycles);
        self.f64(r.rtt_p99_cycles);
        self.f64(r.completed_per_cycle);
        self.f64(r.received_flits_per_cycle);
        self.f64(r.received_gbps);
        self.f64(r.bypass_fraction);
        self.u64(r.total_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_noc::{NocConfig, SweepRunner};

    /// Digest of one small sweep, plus the wall-clock total it must ignore.
    fn sweep_digest() -> (u64, f64) {
        let runner = SweepRunner::new(1).with_windows(50, 300).unwrap();
        let outcome = runner
            .run(NocConfig::proposed_chip().unwrap(), &[0.02, 0.1])
            .unwrap();
        let mut digest = Digest::new();
        for point in &outcome.points {
            digest.simulation(&point.result);
        }
        (digest.finish(), outcome.total_wall_ms)
    }

    #[test]
    fn digest_is_stable_across_runs_and_ignores_wall_clock() {
        let (first, first_wall_ms) = sweep_digest();
        let (second, second_wall_ms) = sweep_digest();
        assert_eq!(first, second, "same inputs, same simulated statistics");
        // The two runs did not take the same host time (to the nanosecond),
        // yet the digests agree: no wall-clock field is folded in.
        assert_ne!(first_wall_ms, second_wall_ms);
    }

    #[test]
    fn digest_sees_every_folded_field() {
        let mut a = Digest::new();
        a.f64(1.0);
        let mut b = Digest::new();
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.str("fig5");
        let mut d = Digest::new();
        d.str("fig13");
        assert_ne!(c.finish(), d.finish());
        let mut counters = ActivityCounters::new();
        let mut e = Digest::new();
        e.counters(&counters);
        counters.bypasses = 1;
        let mut f = Digest::new();
        f.counters(&counters);
        assert_ne!(e.finish(), f.finish());
    }
}
