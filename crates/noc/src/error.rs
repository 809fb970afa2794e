//! Error type for the NoC simulator.

use std::error::Error;
use std::fmt;

use crate::topology::NodeId;

/// Errors produced while configuring or running the network simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NocError {
    /// A mesh dimension was zero.
    EmptyMesh,
    /// A configured latency or width parameter was zero where a positive
    /// value is required.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable explanation.
        reason: &'static str,
    },
    /// A node identifier referred outside the mesh.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the mesh.
        nodes: usize,
    },
    /// A packet was injected with a zero-flit payload and no header.
    EmptyPacket,
    /// The simulator ran for the given number of cycles without the network
    /// draining; likely a livelock in a custom routing function or a
    /// saturated injection queue.
    Timeout {
        /// Cycle budget that was exhausted.
        budget: u64,
        /// Packets still in flight when the budget expired.
        in_flight: usize,
    },
    /// The per-node injection queue exceeded its configured capacity.
    InjectionQueueFull {
        /// Node whose queue is full.
        node: NodeId,
    },
    /// A packet endpoint is a router marked faulty via
    /// [`crate::Network::kill_router`].
    DeadEndpoint {
        /// The faulty router.
        node: NodeId,
    },
    /// The installed route table has no route from a packet's source to
    /// its destination (the fault set severed the pair).
    Unroutable {
        /// The packet's source router.
        src: NodeId,
        /// The packet's destination router.
        dest: NodeId,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::EmptyMesh => write!(f, "mesh dimensions must be at least 1x1"),
            NocError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            NocError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for mesh with {nodes} nodes")
            }
            NocError::EmptyPacket => write!(f, "packet must carry at least one payload flit"),
            NocError::Timeout { budget, in_flight } => write!(
                f,
                "network failed to drain within {budget} cycles ({in_flight} packets in flight)"
            ),
            NocError::InjectionQueueFull { node } => {
                write!(f, "injection queue at node {node} is full")
            }
            NocError::DeadEndpoint { node } => {
                write!(
                    f,
                    "node {node} is marked faulty and cannot source or sink packets"
                )
            }
            NocError::Unroutable { src, dest } => {
                write!(
                    f,
                    "the route table has no route from node {src} to node {dest}"
                )
            }
        }
    }
}

impl Error for NocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            NocError::EmptyMesh,
            NocError::InvalidParameter {
                name: "flit_width",
                reason: "must be positive",
            },
            NocError::NodeOutOfRange {
                node: NodeId::new(99),
                nodes: 16,
            },
            NocError::EmptyPacket,
            NocError::Timeout {
                budget: 100,
                in_flight: 3,
            },
            NocError::InjectionQueueFull {
                node: NodeId::new(0),
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            let first = msg.chars().next().unwrap();
            assert!(first.is_lowercase() || first.is_numeric(), "{msg}");
            assert!(!msg.ends_with('.'), "{msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NocError>();
    }
}
