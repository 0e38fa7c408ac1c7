//! Error types shared across the workspace.

use std::error::Error;
use std::fmt;

/// Errors produced when validating a network or experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The mesh side length is outside the supported range (1..=16).
    InvalidMeshSide {
        /// The offending side length.
        k: u16,
    },
    /// A virtual-channel configuration is impossible (zero VCs or zero-depth
    /// buffers).
    InvalidVcConfig {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// An injection rate is outside `[0, 1]` flits/node/cycle.
    InvalidInjectionRate {
        /// The offending rate.
        rate: f64,
    },
    /// A traffic mix does not sum to 1.0.
    InvalidTrafficMix {
        /// The sum of the provided fractions.
        sum: f64,
    },
    /// A spatial traffic pattern cannot run on the configured mesh (wrong
    /// node count, malformed hotspot parameters, ...).
    InvalidPattern {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A sweep measurement window is empty: zero measured cycles would turn
    /// every throughput (and most latencies) into NaN downstream.
    InvalidSweepWindow {
        /// The offending measurement window, in cycles.
        measure_cycles: u64,
    },
    /// A sweep was asked to run over no points (no injection rates, no
    /// client populations): there is no curve to build.
    EmptySweep,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidMeshSide { k } => {
                write!(
                    f,
                    "mesh side length {k} is outside the supported range 1..=16"
                )
            }
            ConfigError::InvalidVcConfig { reason } => {
                write!(f, "invalid virtual channel configuration: {reason}")
            }
            ConfigError::InvalidInjectionRate { rate } => {
                write!(
                    f,
                    "injection rate {rate} is outside [0, 1] flits/node/cycle"
                )
            }
            ConfigError::InvalidTrafficMix { sum } => {
                write!(f, "traffic mix fractions sum to {sum}, expected 1.0")
            }
            ConfigError::InvalidPattern { reason } => {
                write!(f, "invalid spatial traffic pattern: {reason}")
            }
            ConfigError::InvalidSweepWindow { measure_cycles } => {
                write!(
                    f,
                    "sweep measurement window must be at least one cycle, got {measure_cycles}"
                )
            }
            ConfigError::EmptySweep => write!(f, "a sweep needs at least one point"),
        }
    }
}

impl Error for ConfigError {}

/// Top-level error type for NoC construction and simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum NocError {
    /// Configuration validation failed.
    Config(ConfigError),
    /// A simulation invariant was violated (indicates a model bug; carried as
    /// an error so harnesses can report it instead of panicking).
    InvariantViolated {
        /// Description of the violated invariant.
        description: String,
    },
    /// The simulation did not reach a steady state within the allotted cycles.
    NotConverged {
        /// Number of cycles simulated before giving up.
        cycles: u64,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::Config(e) => write!(f, "configuration error: {e}"),
            NocError::InvariantViolated { description } => {
                write!(f, "simulation invariant violated: {description}")
            }
            NocError::NotConverged { cycles } => {
                write!(f, "simulation did not converge within {cycles} cycles")
            }
        }
    }
}

impl Error for NocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NocError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for NocError {
    fn from(e: ConfigError) -> Self {
        NocError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ConfigError::InvalidMeshSide { k: 40 };
        assert!(e.to_string().contains("40"));
        let e = NocError::from(ConfigError::InvalidInjectionRate { rate: 1.5 });
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn noc_error_exposes_source() {
        let e = NocError::from(ConfigError::InvalidTrafficMix { sum: 0.9 });
        assert!(e.source().is_some());
        let e = NocError::NotConverged { cycles: 100 };
        assert!(e.source().is_none());
    }
}
