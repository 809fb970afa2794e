//! Error type for the test planner.

use std::error::Error;
use std::fmt;

use crate::cut::CutId;
use crate::interface::InterfaceId;

/// Errors produced while building a system under test or planning its test.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// The SoC has no cores and no processors: there is nothing to test.
    NothingToTest {
        /// The SoC's name.
        soc: String,
    },
    /// The mesh has no room for the requested placement.
    MeshTooSmall {
        /// Nodes available.
        nodes: usize,
        /// Entities that must be placed.
        required: usize,
    },
    /// The benchmark SoC has a core without a power annotation while a
    /// power limit is in force.
    MissingPower {
        /// The offending core.
        cut: CutId,
    },
    /// A single test exceeds the power budget on its own, so no schedule
    /// can exist.
    InfeasiblePower {
        /// The offending core.
        cut: CutId,
        /// That test's power draw.
        draw: f64,
        /// The budget it exceeds.
        budget: f64,
    },
    /// A core has no TAM-delivered test set (nothing to schedule).
    NoTamTest {
        /// The offending core.
        cut: CutId,
    },
    /// The system has no test interface at all.
    NoInterfaces,
    /// The fault set names a router or link outside the mesh.
    FaultOutsideMesh {
        /// Index of the out-of-mesh router (for links, the driving end).
        node: u32,
    },
    /// No test interface that can serve has a surviving route to the
    /// core: the fault set severed it from every stimulus source. A
    /// processor serves only once another interface that serves can
    /// reach its self-test.
    CutUnreachable {
        /// The severed core.
        cut: CutId,
    },
    /// The selected interface has no surviving route to the core (other
    /// interfaces may still reach it).
    InterfaceUnreachable {
        /// The interface with no surviving route.
        interface: InterfaceId,
        /// The core it cannot reach.
        cut: CutId,
    },
    /// Scheduling made no progress (internal invariant violation).
    Stalled {
        /// Simulation time at the stall.
        at: u64,
        /// Cores still waiting.
        waiting: usize,
    },
    /// Schedule validation failed.
    InvalidSchedule(String),
    /// Planning was cancelled cooperatively (see
    /// [`crate::sched::CancelToken`]); no schedule was produced.
    Cancelled,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NothingToTest { soc } => {
                write!(
                    f,
                    "SoC `{soc}` has nothing to test: no cores and no processors"
                )
            }
            PlanError::MeshTooSmall { nodes, required } => {
                write!(
                    f,
                    "mesh with {nodes} nodes cannot place {required} entities"
                )
            }
            PlanError::MissingPower { cut } => {
                write!(f, "core {cut} lacks a power annotation under a power limit")
            }
            PlanError::InfeasiblePower { cut, draw, budget } => write!(
                f,
                "core {cut} draws {draw} alone, exceeding the budget {budget}"
            ),
            PlanError::NoTamTest { cut } => {
                write!(f, "core {cut} has no TAM-delivered test set")
            }
            PlanError::NoInterfaces => write!(f, "system has no test interfaces"),
            PlanError::FaultOutsideMesh { node } => {
                write!(f, "fault set names router n{node} outside the mesh")
            }
            PlanError::CutUnreachable { cut } => write!(
                f,
                "core {cut} is unreachable from every test interface under the fault set"
            ),
            PlanError::InterfaceUnreachable { interface, cut } => write!(
                f,
                "interface {interface} has no surviving route to core {cut}"
            ),
            PlanError::Stalled { at, waiting } => {
                write!(
                    f,
                    "scheduler stalled at cycle {at} with {waiting} cores waiting"
                )
            }
            PlanError::InvalidSchedule(reason) => write!(f, "invalid schedule: {reason}"),
            PlanError::Cancelled => write!(f, "planning cancelled"),
        }
    }
}

impl Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let errs = [
            PlanError::NothingToTest {
                soc: "empty".into(),
            },
            PlanError::MeshTooSmall {
                nodes: 4,
                required: 9,
            },
            PlanError::MissingPower { cut: CutId(3) },
            PlanError::InfeasiblePower {
                cut: CutId(1),
                draw: 900.0,
                budget: 500.0,
            },
            PlanError::NoTamTest { cut: CutId(2) },
            PlanError::NoInterfaces,
            PlanError::FaultOutsideMesh { node: 20 },
            PlanError::CutUnreachable { cut: CutId(4) },
            PlanError::InterfaceUnreachable {
                interface: InterfaceId(1),
                cut: CutId(4),
            },
            PlanError::Stalled { at: 10, waiting: 2 },
            PlanError::InvalidSchedule("overlap".into()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlanError>();
    }
}
