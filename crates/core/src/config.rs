//! Network configuration and the paper's named network variants.

use noc_power::EnergyParams;
use noc_router::RouterConfig;
use noc_traffic::{SeedMode, SpatialPattern, TrafficMix};
use noc_types::{ConfigError, NocError};
use serde::{Deserialize, Serialize};

/// Which signaling technology the datapath (crossbar + links) uses.
///
/// This only affects energy accounting — both datapaths support single-cycle
/// ST+LT at 1 GHz (the paper explicitly chooses a baseline with single-cycle
/// ST+LT because even a full-swing datapath can achieve it at 1 GHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatapathKind {
    /// Conventional full-swing repeated wires.
    FullSwing,
    /// Tri-state reduced-swing-driver crossbar and differential links.
    LowSwing,
}

/// The named network configurations measured in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetworkVariant {
    /// The textbook 4-stage baseline router of Fig. 1 (separate ST and LT
    /// stages), full-swing datapath, broadcasts duplicated at the NIC.
    TextbookBaseline,
    /// Fig. 6 config A and the Fig. 5 baseline: aggressive baseline router
    /// (single-cycle ST+LT), full-swing datapath, no multicast support.
    FullSwingUnicast,
    /// Fig. 6 config B: the same unicast network with a low-swing datapath.
    LowSwingUnicast,
    /// Fig. 6 config C: low-swing datapath plus router-level broadcast
    /// support, but no multicast buffer bypass.
    LowSwingBroadcastNoBypass,
    /// Fig. 6 config D and the fabricated chip: low-swing datapath,
    /// router-level broadcast support and multicast virtual bypassing.
    LowSwingBroadcastBypass,
    /// Alias of [`NetworkVariant::LowSwingBroadcastBypass`] used where the
    /// intent is "the chip as fabricated".
    ProposedChip,
}

impl NetworkVariant {
    /// All four Fig. 6 variants in waterfall order (A, B, C, D).
    pub const FIG6: [NetworkVariant; 4] = [
        NetworkVariant::FullSwingUnicast,
        NetworkVariant::LowSwingUnicast,
        NetworkVariant::LowSwingBroadcastNoBypass,
        NetworkVariant::LowSwingBroadcastBypass,
    ];

    /// The single-letter label Fig. 6 uses for this variant, if it has one.
    #[must_use]
    pub fn fig6_label(self) -> Option<char> {
        match self {
            NetworkVariant::FullSwingUnicast => Some('A'),
            NetworkVariant::LowSwingUnicast => Some('B'),
            NetworkVariant::LowSwingBroadcastNoBypass => Some('C'),
            NetworkVariant::LowSwingBroadcastBypass | NetworkVariant::ProposedChip => Some('D'),
            NetworkVariant::TextbookBaseline => None,
        }
    }

    /// Router configuration of this variant.
    #[must_use]
    pub fn router_config(self) -> RouterConfig {
        match self {
            NetworkVariant::TextbookBaseline => RouterConfig::textbook_baseline(),
            NetworkVariant::FullSwingUnicast | NetworkVariant::LowSwingUnicast => {
                RouterConfig::aggressive_baseline()
            }
            NetworkVariant::LowSwingBroadcastNoBypass => RouterConfig::proposed(false),
            NetworkVariant::LowSwingBroadcastBypass | NetworkVariant::ProposedChip => {
                RouterConfig::proposed(true)
            }
        }
    }

    /// Datapath signaling technology of this variant.
    #[must_use]
    pub fn datapath(self) -> DatapathKind {
        match self {
            NetworkVariant::TextbookBaseline | NetworkVariant::FullSwingUnicast => {
                DatapathKind::FullSwing
            }
            _ => DatapathKind::LowSwing,
        }
    }
}

/// Full configuration of one simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Mesh side length (4 for the fabricated chip).
    pub k: u16,
    /// Router microarchitecture.
    pub router: RouterConfig,
    /// Datapath signaling technology (energy accounting only).
    pub datapath: DatapathKind,
    /// Traffic mix injected by every NIC.
    pub mix: TrafficMix,
    /// Spatial pattern every NIC draws unicast destinations through. The
    /// presets use [`SpatialPattern::uniform_legacy`] — bit-identical to the
    /// chip RTL's inline PRBS draw — so all historical curves reproduce
    /// exactly; swap in any other pattern with
    /// [`with_pattern`](NocConfig::with_pattern).
    pub pattern: SpatialPattern,
    /// PRBS seeding discipline of the NICs.
    pub seed_mode: SeedMode,
    /// Base seed the NIC PRBS generators boot from (combined with the node
    /// id under [`SeedMode::PerNode`]). Sweep runners derive one base seed
    /// per sweep point from this value so points stay reproducible and
    /// order-independent.
    pub base_seed: u16,
    /// Network clock in GHz (1.0 for the chip).
    pub frequency_ghz: f64,
    /// Flit width in bits (64 for the chip).
    pub flit_bits: u32,
    /// Cycles a credit takes to return and be processed upstream.
    pub credit_delay_cycles: u64,
}

impl NocConfig {
    /// Configuration of one of the paper's named variants on the 4×4 mesh
    /// with mixed traffic and the chip's identical-seed PRBS artifact.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] if the built-in configuration fails
    /// validation (it never should; the check guards future edits).
    pub fn variant(variant: NetworkVariant) -> Result<Self, NocError> {
        let config = Self {
            k: 4,
            router: variant.router_config(),
            datapath: variant.datapath(),
            mix: TrafficMix::mixed(),
            pattern: SpatialPattern::uniform_legacy(),
            seed_mode: SeedMode::Identical,
            base_seed: noc_traffic::TrafficGenerator::DEFAULT_BASE_SEED,
            frequency_ghz: 1.0,
            flit_bits: 64,
            credit_delay_cycles: 2,
        };
        config.validate()?;
        Ok(config)
    }

    /// The fabricated chip's configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] if the built-in configuration fails
    /// validation.
    pub fn proposed_chip() -> Result<Self, NocError> {
        Self::variant(NetworkVariant::ProposedChip)
    }

    /// Replaces the traffic mix.
    #[must_use]
    pub fn with_mix(mut self, mix: TrafficMix) -> Self {
        self.mix = mix;
        self
    }

    /// Replaces the spatial traffic pattern.
    #[must_use]
    pub fn with_pattern(mut self, pattern: SpatialPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Replaces the PRBS seeding discipline.
    #[must_use]
    pub fn with_seed_mode(mut self, seed_mode: SeedMode) -> Self {
        self.seed_mode = seed_mode;
        self
    }

    /// Replaces the base PRBS seed (see [`NocConfig::base_seed`]).
    #[must_use]
    pub fn with_base_seed(mut self, base_seed: u16) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Replaces the mesh side length.
    #[must_use]
    pub fn with_side(mut self, k: u16) -> Self {
        self.k = k;
        self
    }

    /// Whether the NICs must expand broadcasts into per-destination unicasts
    /// (true exactly when the routers cannot replicate flits).
    #[must_use]
    pub fn nic_duplicates_broadcasts(&self) -> bool {
        !self.router.kind.multicast_support()
    }

    /// Whether NICs send lookaheads with injected flits.
    #[must_use]
    pub fn lookahead_enabled(&self) -> bool {
        self.router.kind.lookahead_enabled()
    }

    /// Link delay in cycles between a switch traversal and the arrival at the
    /// next router (1, plus an extra cycle for the textbook baseline's
    /// separate LT stage).
    #[must_use]
    pub fn link_delay_cycles(&self) -> u64 {
        1 + self.router.kind.separate_lt_cycles()
    }

    /// Energy parameters matching the configured datapath.
    #[must_use]
    pub fn energy_params(&self) -> EnergyParams {
        match self.datapath {
            DatapathKind::FullSwing => EnergyParams::chip_full_swing(),
            DatapathKind::LowSwing => EnergyParams::chip_low_swing(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when the mesh side, VC configuration or
    /// clock frequency is invalid.
    pub fn validate(&self) -> Result<(), NocError> {
        if self.k == 0 || self.k > 16 {
            return Err(ConfigError::InvalidMeshSide { k: self.k }.into());
        }
        self.pattern.validate(self.k)?;
        if self.k == 1 && self.mix.broadcast_request() > 0.0 {
            // A broadcast's destinations are every node but its source, so
            // on a single node the set is empty and the head flit could
            // never become eligible — it would wedge the NIC forever.
            return Err(ConfigError::InvalidPattern {
                reason: "broadcast traffic needs at least two nodes (k >= 2)".to_owned(),
            }
            .into());
        }
        self.router.validate()?;
        if self.frequency_ghz <= 0.0 {
            return Err(ConfigError::InvalidVcConfig {
                reason: "clock frequency must be positive".to_owned(),
            }
            .into());
        }
        if self.credit_delay_cycles == 0 {
            // A zero-cycle credit return would have to be delivered in the
            // cycle that produced it — the event wheel (rightly) rejects
            // scheduling into the current cycle, so catch it here with a
            // config error instead.
            return Err(ConfigError::InvalidVcConfig {
                reason: "credit delay must be at least one cycle".to_owned(),
            }
            .into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_variants_form_the_expected_waterfall() {
        let a = NocConfig::variant(NetworkVariant::FullSwingUnicast).unwrap();
        let b = NocConfig::variant(NetworkVariant::LowSwingUnicast).unwrap();
        let c = NocConfig::variant(NetworkVariant::LowSwingBroadcastNoBypass).unwrap();
        let d = NocConfig::variant(NetworkVariant::LowSwingBroadcastBypass).unwrap();
        // A -> B changes only the datapath.
        assert_eq!(a.router, b.router);
        assert_ne!(a.datapath, b.datapath);
        // B -> C adds multicast support.
        assert!(b.nic_duplicates_broadcasts());
        assert!(!c.nic_duplicates_broadcasts());
        // C -> D adds bypassing.
        assert!(!c.lookahead_enabled());
        assert!(d.lookahead_enabled());
        assert_eq!(
            NetworkVariant::FIG6.map(|v| v.fig6_label().unwrap()),
            ['A', 'B', 'C', 'D']
        );
    }

    #[test]
    fn chip_preset_matches_the_fabricated_configuration() {
        let chip = NocConfig::proposed_chip().unwrap();
        assert_eq!(chip.k, 4);
        assert_eq!(chip.flit_bits, 64);
        assert_eq!(chip.frequency_ghz, 1.0);
        assert!(chip.lookahead_enabled());
        assert!(!chip.nic_duplicates_broadcasts());
        assert_eq!(chip.router.total_vcs(), 6);
        assert_eq!(chip.router.total_buffers(), 10);
        assert_eq!(chip.link_delay_cycles(), 1);
    }

    #[test]
    fn textbook_baseline_pays_a_separate_link_cycle() {
        let t = NocConfig::variant(NetworkVariant::TextbookBaseline).unwrap();
        assert_eq!(t.link_delay_cycles(), 2);
        assert!(matches!(
            t.router.kind,
            noc_router::RouterKind::Baseline {
                combined_st_lt: false
            }
        ));
    }

    #[test]
    fn validation_rejects_bad_sides_and_frequencies() {
        let mut cfg = NocConfig::proposed_chip().unwrap();
        cfg.k = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = NocConfig::proposed_chip().unwrap();
        cfg.frequency_ghz = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = NocConfig::proposed_chip().unwrap();
        cfg.k = 17;
        assert!(cfg.validate().is_err());
        let mut cfg = NocConfig::proposed_chip().unwrap();
        cfg.credit_delay_cycles = 0;
        assert!(
            cfg.validate().is_err(),
            "zero credit delay must be rejected"
        );
    }

    #[test]
    fn a_single_node_mesh_rejects_broadcast_traffic_only() {
        use noc_traffic::TrafficMix;
        let single = NocConfig::proposed_chip().unwrap().with_side(1);
        for mix in [TrafficMix::mixed(), TrafficMix::broadcast_only()] {
            let err = single.with_mix(mix).validate().unwrap_err();
            assert!(err.to_string().contains("k >= 2"), "{err}");
        }
        assert!(single
            .with_mix(TrafficMix::unicast_only())
            .validate()
            .is_ok());
        assert!(NocConfig::proposed_chip()
            .unwrap()
            .with_side(2)
            .with_mix(TrafficMix::broadcast_only())
            .validate()
            .is_ok());
    }

    #[test]
    fn pattern_validation_rides_config_validation() {
        let chip = NocConfig::proposed_chip().unwrap();
        assert_eq!(chip.pattern, SpatialPattern::uniform_legacy());
        assert!(chip
            .with_pattern(SpatialPattern::Transpose)
            .validate()
            .is_ok());
        // Bit permutations need a power-of-two node count: 5×5 = 25 fails.
        let bad = chip.with_side(5).with_pattern(SpatialPattern::BitReverse);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn energy_params_follow_the_datapath() {
        let a = NocConfig::variant(NetworkVariant::FullSwingUnicast).unwrap();
        let d = NocConfig::variant(NetworkVariant::LowSwingBroadcastBypass).unwrap();
        assert!(a.energy_params().crossbar_pj > d.energy_params().crossbar_pj);
    }
}
