//! Pseudo-random binary sequence (PRBS) generators.
//!
//! The fabricated chip generates traffic with on-chip PRBS generators inside
//! each NIC. Crucially, *all NICs share the same seed* — an artifact the
//! paper calls out because correlated destinations cause avoidable contention
//! that limits bypassing even at low injection rates (§4.1). The simulator
//! reproduces both behaviours: identical seeds (to match the measured chip)
//! and per-node seeds (to match the "fixed RTL" results the paper quotes).

use serde::{Deserialize, Serialize};

/// One serial step of the 16-bit Fibonacci LFSR (taps 16, 15, 13, 4),
/// returning `(next_state << 16) | output_bit` packed for const evaluation.
const fn lfsr_step(state: u16) -> (u16, u16) {
    let bit = (state ^ (state >> 1) ^ (state >> 3) ^ (state >> 12)) & 1;
    ((state >> 1) | (bit << 15), bit)
}

/// Sixteen serial LFSR steps from `state`, packed as
/// `(end_state << 16) | word` where `word` collects the output bits MSB-first
/// — exactly what [`Lfsr::next_bits`]`(16)` computes one bit at a time.
const fn lfsr_serial16(mut state: u16) -> u32 {
    let mut word: u16 = 0;
    let mut i = 0;
    while i < 16 {
        let (next, bit) = lfsr_step(state);
        state = next;
        word = (word << 1) | bit;
        i += 1;
    }
    ((state as u32) << 16) | word as u32
}

/// Builds one byte-indexed half of the 16-step leap table: entry `b` is the
/// packed 16-step image of the state `b << shift`.
///
/// Both the LFSR state update and the output word are GF(2)-linear in the
/// state bits (every produced bit is an XOR of initial state bits, and the
/// zero state maps to zero), so the image of any state is the XOR of the
/// images of its low and high bytes. The two 256-entry tables below are the
/// precomputed transition matrix of the 16-step leap in byte-sliced form.
const fn build_leap16_table(shift: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = lfsr_serial16((b as u16) << shift);
        b += 1;
    }
    table
}

/// Packed 16-step images of the 256 low-byte basis states.
static LEAP16_LO: [u32; 256] = build_leap16_table(0);
/// Packed 16-step images of the 256 high-byte basis states.
static LEAP16_HI: [u32; 256] = build_leap16_table(8);

/// Length of the [`Lfsr::leap16`] orbit: the leap permutes the 65 535
/// non-zero states in a single cycle, because the LFSR is maximal-length
/// (one cycle of 2^16 - 1 states under single steps) and
/// gcd(16, 2^16 - 1) = 1.
const ORBIT_LEN: usize = 65_535;

/// The `leap16` orbit laid out flat, so a run of coin flips is a scan over
/// contiguous memory and skipping `n` flips is one index step.
struct Orbit {
    /// `words[p]`: the 16-bit word `leap16` emits from the `p`-th orbit
    /// state. Sixteen steps shift every state bit out, so the state after
    /// that leap is `words[p].reverse_bits()` — the `(p + 1)`-th state.
    words: [u16; ORBIT_LEN],
    /// `pos[state]`: the orbit position of a non-zero state (`pos[0]` is
    /// unused — zero is the LFSR's fixed point and never reached).
    pos: [u16; ORBIT_LEN + 1],
}

/// Walks the orbit once from state 1, recording each leap's word and each
/// state's position.
const fn build_orbit() -> Orbit {
    let mut orbit = Orbit {
        words: [0; ORBIT_LEN],
        pos: [0; ORBIT_LEN + 1],
    };
    let mut state: u16 = 1;
    let mut p = 0;
    while p < ORBIT_LEN {
        let packed = LEAP16_LO[(state & 0xFF) as usize] ^ LEAP16_HI[(state >> 8) as usize];
        orbit.words[p] = packed as u16;
        orbit.pos[state as usize] = p as u16;
        state = (packed >> 16) as u16;
        p += 1;
    }
    orbit
}

/// The precomputed `leap16` orbit (about 256 KB of read-only data, shared
/// process-wide), the table behind [`PrbsGenerator::scout_coin_run`] and
/// [`PrbsGenerator::skip_coin_flips`].
static ORBIT: Orbit = build_orbit();

/// Converts a probability into the 16-bit comparison threshold a PRBS
/// Bernoulli trial ([`PrbsGenerator::coin`]) uses: a trial wins when the next
/// 16-bit rate word is strictly below the threshold, giving a resolution of
/// 1/65535 on the probability.
#[must_use]
pub fn bernoulli_threshold(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * f64::from(u16::MAX)) as u32
}

/// A 16-bit maximal-length Fibonacci linear-feedback shift register
/// (taps 16, 15, 13, 4 — the classic x^16 + x^15 + x^13 + x^4 + 1 polynomial).
///
/// The period is 2^16 - 1; the all-zero state is avoided by construction.
///
/// # Examples
///
/// ```
/// use noc_sim::Lfsr;
///
/// let mut lfsr = Lfsr::new(0xACE1);
/// let first = lfsr.next_bit();
/// assert!(first == 0 || first == 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lfsr {
    state: u16,
}

impl Lfsr {
    /// Creates an LFSR from a seed. A zero seed is mapped to a fixed
    /// non-zero state because the all-zero state is a fixed point.
    #[must_use]
    pub fn new(seed: u16) -> Self {
        Self {
            state: if seed == 0 { 0xACE1 } else { seed },
        }
    }

    /// Current register state.
    #[must_use]
    pub fn state(&self) -> u16 {
        self.state
    }

    /// Advances the register one step and returns the output bit.
    pub fn next_bit(&mut self) -> u16 {
        let bit = (self.state ^ (self.state >> 1) ^ (self.state >> 3) ^ (self.state >> 12)) & 1;
        self.state = (self.state >> 1) | (bit << 15);
        bit
    }

    /// Produces the next `n`-bit word (`n <= 16`) from successive output bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > 16`.
    pub fn next_bits(&mut self, n: u32) -> u16 {
        assert!(n <= 16, "an Lfsr word is at most 16 bits");
        let mut word = 0u16;
        for _ in 0..n {
            word = (word << 1) | self.next_bit();
        }
        word
    }

    /// Advances the register sixteen steps in one leap and returns the same
    /// 16-bit word sixteen [`next_bit`](Self::next_bit) calls would have
    /// produced (MSB first), leaving the register in the identical state.
    ///
    /// The leap XOR-combines two byte-sliced images of the precomputed
    /// GF(2) 16-step transition matrix, replacing 16 serial shift/tap
    /// evaluations with two table lookups. Bit-exactness against serial
    /// stepping is pinned exhaustively over every state below and by
    /// proptest in `tests/properties.rs`.
    pub fn leap16(&mut self) -> u16 {
        let packed =
            LEAP16_LO[usize::from(self.state & 0xFF)] ^ LEAP16_HI[usize::from(self.state >> 8)];
        self.state = (packed >> 16) as u16;
        packed as u16
    }
}

/// A PRBS-based traffic randomness source.
///
/// Combines two LFSRs (offset seeds) to produce uniform-ish integers and
/// Bernoulli coin flips. This mirrors the hardware structure of the chip's
/// traffic generators; it is intentionally *not* a cryptographic or even
/// statistically strong RNG — matching the chip matters more than statistical
/// perfection, and the identical-seed artifact is part of what we reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrbsGenerator {
    dest_lfsr: Lfsr,
    rate_lfsr: Lfsr,
}

impl PrbsGenerator {
    /// Creates a generator from a 16-bit seed.
    #[must_use]
    pub fn new(seed: u16) -> Self {
        Self {
            dest_lfsr: Lfsr::new(seed),
            rate_lfsr: Lfsr::new(seed.rotate_left(7) ^ 0x5A5A),
        }
    }

    /// Returns `true` with probability `p` (a Bernoulli trial).
    ///
    /// The trial consumes 16 bits of the rate LFSR, giving a resolution of
    /// 1/65535 on the injection rate — fine-grained enough for every rate
    /// swept in the paper's figures.
    pub fn chance(&mut self, p: f64) -> bool {
        let threshold = bernoulli_threshold(p);
        self.coin(threshold)
    }

    /// A Bernoulli trial against a precomputed [`bernoulli_threshold`],
    /// letting per-cycle callers hoist the probability-to-threshold
    /// conversion out of their hot loop. `coin(bernoulli_threshold(p))` is
    /// bit-identical to [`chance`](Self::chance)`(p)`.
    pub fn coin(&mut self, threshold: u32) -> bool {
        u32::from(self.rate_lfsr.leap16()) < threshold
    }

    /// Counts the losing [`coin`](Self::coin) flips ahead of the current
    /// rate-LFSR state, without consuming them: the returned run length is
    /// the number of upcoming trials guaranteed to come up `false` before
    /// the first (unconsumed) winning flip, saturating at `cap`.
    ///
    /// A zero threshold can never win a trial, so the scout reports
    /// `u64::MAX` ("quiescent forever") without walking the sequence.
    /// Active-set schedulers use this to put an idle traffic source to sleep
    /// and later replay exactly the scouted flips with
    /// [`skip_coin_flips`](Self::skip_coin_flips).
    #[must_use]
    pub fn scout_coin_run(&self, threshold: u32, cap: u64) -> u64 {
        if threshold == 0 {
            return u64::MAX;
        }
        // The upcoming flips are the orbit's words from the current state's
        // position on, wrapping at the end. One full period without a
        // winning word means no flip ever wins, so the run is `cap`.
        let start = usize::from(ORBIT.pos[usize::from(self.rate_lfsr.state)]);
        let limit = usize::try_from(cap).map_or(ORBIT_LEN, |cap| cap.min(ORBIT_LEN));
        let (wrapped, ahead) = ORBIT.words.split_at(start);
        let run = ahead
            .iter()
            .chain(wrapped)
            .take(limit)
            .take_while(|&&word| u32::from(word) >= threshold)
            .count();
        if run < limit {
            run as u64
        } else {
            cap
        }
    }

    /// Consumes `flips` Bernoulli trials without inspecting their outcomes —
    /// each flip is one 16-bit leap of the rate LFSR, so the generator lands
    /// in exactly the state `flips` serial [`coin`](Self::coin) calls would
    /// have left it in. O(1): the state `flips` leaps ahead is read off the
    /// orbit table.
    pub fn skip_coin_flips(&mut self, flips: u64) {
        if flips == 0 {
            return;
        }
        let start = u64::from(ORBIT.pos[usize::from(self.rate_lfsr.state)]);
        let last = (start + (flips - 1) % ORBIT_LEN as u64) % ORBIT_LEN as u64;
        self.rate_lfsr.state = ORBIT.words[last as usize].reverse_bits();
    }

    /// Returns a value in `0..bound` (used for uniform destination choice).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u16) -> u16 {
        assert!(bound > 0, "bound must be positive");
        self.dest_lfsr.leap16() % bound
    }

    /// Returns the next raw 16-bit word of the destination LFSR.
    pub fn next_word(&mut self) -> u16 {
        self.dest_lfsr.leap16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn lfsr_never_reaches_zero_and_has_long_period() {
        let mut lfsr = Lfsr::new(1);
        let mut seen = HashSet::new();
        for _ in 0..65535 {
            assert_ne!(lfsr.state(), 0);
            seen.insert(lfsr.state());
            lfsr.next_bit();
        }
        // A maximal 16-bit LFSR visits every non-zero state exactly once.
        assert_eq!(seen.len(), 65535);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let lfsr = Lfsr::new(0);
        assert_ne!(lfsr.state(), 0);
    }

    #[test]
    fn identical_seeds_produce_identical_sequences() {
        let mut a = PrbsGenerator::new(0x1234);
        let mut b = PrbsGenerator::new(0x1234);
        for _ in 0..100 {
            assert_eq!(a.next_word(), b.next_word());
            assert_eq!(a.chance(0.5), b.chance(0.5));
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let mut a = PrbsGenerator::new(0x1234);
        let mut b = PrbsGenerator::new(0x4321);
        let mut equal = 0;
        for _ in 0..1000 {
            if a.next_word() == b.next_word() {
                equal += 1;
            }
        }
        assert!(equal < 10, "sequences should rarely coincide, got {equal}");
    }

    #[test]
    fn chance_respects_probability_roughly() {
        let mut g = PrbsGenerator::new(0xBEEF);
        let trials = 20_000;
        let mut hits = 0;
        for _ in 0..trials {
            if g.chance(0.3) {
                hits += 1;
            }
        }
        let ratio = f64::from(hits) / f64::from(trials);
        assert!((ratio - 0.3).abs() < 0.03, "observed {ratio}");
    }

    #[test]
    fn chance_extremes() {
        let mut g = PrbsGenerator::new(0xBEEF);
        assert!(!g.chance(0.0));
        // p = 1.0 maps to threshold u16::MAX which every sample is below,
        // except the (rare) exact-max word; accept >99% hits.
        let hits = (0..1000).filter(|_| g.chance(1.0)).count();
        assert!(hits >= 990);
    }

    #[test]
    fn next_below_stays_in_range_and_covers_values() {
        let mut g = PrbsGenerator::new(0x7777);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let v = g.next_below(16);
            assert!(v < 16);
            seen.insert(v);
        }
        assert_eq!(seen.len(), 16, "all destinations should eventually appear");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_bound_panics() {
        let mut g = PrbsGenerator::new(1);
        let _ = g.next_below(0);
    }

    #[test]
    fn leap16_matches_sixteen_serial_steps_for_every_state() {
        // Exhaustive over the whole non-zero state space: the leap must
        // reproduce both the 16-bit output word and the end state of sixteen
        // serial shift/tap evaluations, bit for bit.
        for seed in 1..=u16::MAX {
            let mut serial = Lfsr::new(seed);
            let mut leaping = Lfsr::new(seed);
            let word = serial.next_bits(16);
            assert_eq!(leaping.leap16(), word, "word diverged at state {seed:#06x}");
            assert_eq!(
                leaping.state(),
                serial.state(),
                "state diverged at seed {seed:#06x}"
            );
        }
    }

    #[test]
    fn coin_with_precomputed_threshold_matches_chance() {
        let mut a = PrbsGenerator::new(0x1CE5);
        let mut b = PrbsGenerator::new(0x1CE5);
        for p in [0.0, 0.013, 0.14, 0.5, 0.999, 1.0] {
            let threshold = bernoulli_threshold(p);
            for _ in 0..64 {
                assert_eq!(a.chance(p), b.coin(threshold));
            }
        }
    }

    #[test]
    fn scout_and_skip_reproduce_the_serial_coin_stream() {
        // Serial reference: flip every cycle. Scouted: sleep through the
        // scouted run, replay it with skip_coin_flips, then flip. Both must
        // observe winning flips on exactly the same cycles and end in the
        // same state.
        let threshold = bernoulli_threshold(0.02);
        let mut serial = PrbsGenerator::new(0xB00B);
        let mut scouted = PrbsGenerator::new(0xB00B);
        let mut cycle = 0u64;
        while cycle < 20_000 {
            let run = scouted.scout_coin_run(threshold, 1_000);
            for _ in 0..run {
                assert!(!serial.coin(threshold), "scouted flip must lose");
            }
            scouted.skip_coin_flips(run);
            cycle += run;
            if run < 1_000 {
                // The first unscouted flip must win on both sides.
                assert!(serial.coin(threshold));
                assert!(scouted.coin(threshold));
                cycle += 1;
            }
            assert_eq!(serial, scouted, "states diverged at cycle {cycle}");
        }
    }

    /// A generator whose rate LFSR sits in `state`.
    fn at_rate_state(state: u16) -> PrbsGenerator {
        let mut g = PrbsGenerator::new(1);
        g.rate_lfsr = Lfsr { state };
        g
    }

    /// Serial reference for `scout_coin_run`: leap one flip at a time.
    /// `cap` must be small enough to walk.
    fn serial_scout(state: u16, threshold: u32, cap: u64) -> u64 {
        let mut probe = Lfsr { state };
        let mut run = 0;
        while run < cap && u32::from(probe.leap16()) >= threshold {
            run += 1;
        }
        run
    }

    #[test]
    fn skipping_one_flip_is_one_leap_for_every_state() {
        for state in 1..=u16::MAX {
            let mut skipped = at_rate_state(state);
            skipped.skip_coin_flips(1);
            let mut leaped = Lfsr { state };
            leaped.leap16();
            assert_eq!(skipped.rate_lfsr, leaped, "diverged at {state:#06x}");
        }
    }

    #[test]
    fn the_leap_orbit_visits_every_state_once() {
        let mut lfsr = Lfsr::new(1);
        for p in 0..ORBIT_LEN {
            assert_eq!(usize::from(ORBIT.pos[usize::from(lfsr.state)]), p);
            let word = lfsr.leap16();
            assert_eq!(ORBIT.words[p], word);
            assert_eq!(lfsr.state, word.reverse_bits());
        }
        assert_eq!(lfsr.state, 1, "the orbit closes after 65 535 leaps");
    }

    #[test]
    fn scout_and_skip_match_a_serial_walk_across_the_orbit_wrap() {
        // Start a few leaps before the last orbit position (65 534), so
        // every scan and skip below crosses the wrap to position 0.
        let mut lfsr = Lfsr::new(1);
        for _ in 0..ORBIT_LEN - 5 {
            lfsr.leap16();
        }
        let near_wrap = lfsr.state;
        assert_eq!(
            usize::from(ORBIT.pos[usize::from(near_wrap)]),
            ORBIT_LEN - 5
        );
        for start in [near_wrap, 1, 0xACE1] {
            for flips in [0, 1, 4, 5, 6, 100, 65_534, 65_535, 65_536, 3 * 65_535 + 7] {
                let mut skipped = at_rate_state(start);
                skipped.skip_coin_flips(flips);
                let mut walked = Lfsr { state: start };
                for _ in 0..flips {
                    walked.leap16();
                }
                assert_eq!(skipped.rate_lfsr, walked, "skip {flips} from {start:#06x}");
            }
            for threshold in [2, 40, 327, 3_000, 40_000, 65_535] {
                for cap in [0, 3, 5, 6, 1_000, 65_534, 65_535, 70_000] {
                    assert_eq!(
                        at_rate_state(start).scout_coin_run(threshold, cap),
                        serial_scout(start, threshold, cap),
                        "scout from {start:#06x}, threshold {threshold}, cap {cap}"
                    );
                }
            }
        }
        // The leap never emits the word 0 (words are bit-reversed non-zero
        // states), so threshold 1 never wins: the run saturates at any cap,
        // including ones beyond a full orbit.
        for cap in [6, 65_535, 200_000] {
            assert_eq!(serial_scout(near_wrap, 1, cap), cap);
            assert_eq!(at_rate_state(near_wrap).scout_coin_run(1, cap), cap);
        }
        assert_eq!(
            at_rate_state(near_wrap).scout_coin_run(1, u64::MAX),
            u64::MAX
        );
    }

    #[test]
    fn scouting_a_zero_threshold_reports_forever() {
        let g = PrbsGenerator::new(0x1234);
        assert_eq!(g.scout_coin_run(0, 1_000), u64::MAX);
        assert_eq!(g.scout_coin_run(bernoulli_threshold(0.0), 10), u64::MAX);
    }
}
