//! Table-driven routing: a precomputed next-hop function over the mesh.
//!
//! The algorithmic routers in [`crate::routing`] compute each hop from the
//! current and destination coordinates; a [`RouteTable`] instead stores the
//! next output direction for every `(here, dest)` router pair. Tables are
//! how *degraded* meshes route: `noctest-faults` builds one from its
//! minimal-detour oracle around a fault set and installs it on a
//! [`crate::Network`] via [`crate::Network::set_route_table`], overriding
//! the algorithmic routing decision per header flit. Pairs with no
//! surviving path store no direction, and the network refuses to inject
//! a packet for such a pair ([`crate::NocError::Unroutable`]).

use crate::error::NocError;
use crate::geometry::Direction;
use crate::topology::{Mesh, NodeId};

/// A precomputed `(here, dest) → output direction` routing table.
///
/// `next_hop(d, d)` is always [`Direction::Local`] (ejection) for a pair
/// the table covers; an uncovered (unreachable) pair yields `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    nodes: usize,
    next: Vec<Option<Direction>>,
}

impl RouteTable {
    /// Builds a table over `mesh` by asking `f` for every ordered router
    /// pair. `f` returns `None` for unreachable pairs; for `here == dest`
    /// it should return [`Direction::Local`].
    #[must_use]
    pub fn from_fn(mesh: &Mesh, mut f: impl FnMut(NodeId, NodeId) -> Option<Direction>) -> Self {
        let nodes = mesh.len();
        let mut next = Vec::with_capacity(nodes * nodes);
        for here in mesh.nodes() {
            for dest in mesh.nodes() {
                next.push(f(here, dest));
            }
        }
        RouteTable { nodes, next }
    }

    /// Routers the table covers (must equal the mesh's node count).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The output direction a packet at `here` destined to `dest` takes
    /// next, or `None` if the pair has no route.
    ///
    /// # Panics
    ///
    /// Panics if either id is outside the table.
    #[must_use]
    pub fn next_hop(&self, here: NodeId, dest: NodeId) -> Option<Direction> {
        assert!(
            here.index() < self.nodes && dest.index() < self.nodes,
            "node outside the route table"
        );
        self.next[here.index() * self.nodes + dest.index()]
    }

    /// Router-to-router hops from `src` to `dest` along the table's
    /// next-hop chain.
    ///
    /// # Panics
    ///
    /// Panics if the pair has no route or the chain leaves the mesh.
    pub(crate) fn hops(&self, mesh: &Mesh, src: NodeId, dest: NodeId) -> u32 {
        let mut here = src;
        let mut hops = 0;
        while here != dest {
            let dir = self
                .next_hop(here, dest)
                .expect("delivered packet had a route");
            here = mesh.neighbor(here, dir).expect("route left the mesh");
            hops += 1;
            debug_assert!(hops <= mesh.len() as u32, "route table cycles");
        }
        hops
    }

    /// Checks the table covers a `nodes`-router mesh.
    pub(crate) fn check_len(&self, nodes: usize) -> Result<(), NocError> {
        if self.nodes == nodes {
            Ok(())
        } else {
            Err(NocError::InvalidParameter {
                name: "route_table",
                reason: "route table dimensions do not match the mesh",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingKind;

    #[test]
    fn table_reproduces_algorithmic_routing() {
        let mesh = Mesh::new(4, 3).unwrap();
        let table = RouteTable::from_fn(&mesh, |here, dest| {
            Some(RoutingKind::Xy.next_hop(mesh.position(here), mesh.position(dest)))
        });
        assert_eq!(table.nodes(), 12);
        for here in mesh.nodes() {
            for dest in mesh.nodes() {
                assert_eq!(
                    table.next_hop(here, dest),
                    Some(RoutingKind::Xy.next_hop(mesh.position(here), mesh.position(dest)))
                );
            }
        }
    }

    #[test]
    fn uncovered_pairs_are_none() {
        let mesh = Mesh::new(2, 2).unwrap();
        let table = RouteTable::from_fn(&mesh, |here, dest| {
            if here == dest {
                Some(Direction::Local)
            } else {
                None
            }
        });
        let a = NodeId::new(0);
        let b = NodeId::new(3);
        assert_eq!(table.next_hop(a, a), Some(Direction::Local));
        assert_eq!(table.next_hop(a, b), None);
    }

    #[test]
    #[should_panic(expected = "outside the route table")]
    fn foreign_nodes_panic() {
        let mesh = Mesh::new(2, 2).unwrap();
        let table = RouteTable::from_fn(&mesh, |_, _| Some(Direction::Local));
        let _ = table.next_hop(NodeId::new(0), NodeId::new(9));
    }
}
