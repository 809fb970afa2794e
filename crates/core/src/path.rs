//! Test paths: the directed-link footprint a test session occupies.
//!
//! While a core is under test, its stimulus stream holds every link from
//! the source to the core and its response stream every link from the core
//! to the sink — a wormhole-style circuit reservation for the duration of
//! the session. Two sessions may run concurrently only if their footprints
//! are disjoint; this is exactly the NoC parallelism the paper exploits
//! ("increasing the number of test sources/sinks to explore the NoC
//! parallelism").
//!
//! Local (router-to-core) links are modelled separately in each direction:
//! a processor and a benchmark core sharing a router contend for that
//! router's local port pair, which the footprint captures naturally.
//!
//! A [`TestPath`] lists its footprint's links, sorted and each once. The
//! system under test builds its session table from these lists when it is
//! built: it numbers the links of all its paths and keeps each footprint
//! as a bitmask, and its overlap test
//! ([`crate::SystemUnderTest::footprints_overlap`]) is the one place the
//! disjointness rule is decided.

use noctest_faults::DetourOracle;
use noctest_noc::{Direction, LinkId, Mesh, NodeId, RoutingKind};

use crate::cut::CoreUnderTest;
use crate::interface::TestInterface;

/// A fully resolved test path: source → CUT → sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestPath {
    /// Hops from the source router to the CUT's router.
    pub hops_in: u32,
    /// Hops from the CUT's router to the sink router.
    pub hops_out: u32,
    /// The directed links the session occupies, sorted, each once.
    links: Vec<LinkId>,
}

impl TestPath {
    /// Computes the footprint of testing `cut` from `iface` on `mesh`
    /// under `routing`.
    #[must_use]
    pub fn compute(
        mesh: &Mesh,
        routing: RoutingKind,
        iface: &TestInterface,
        cut: &CoreUnderTest,
    ) -> Self {
        let src = iface.source_node();
        let snk = iface.sink_node();
        TestPath::new(
            mesh.distance(src, cut.node),
            mesh.distance(cut.node, snk),
            routing.path_links(mesh, src, cut.node),
            routing.path_links(mesh, cut.node, snk),
            src,
            cut,
            snk,
        )
    }

    /// Computes the footprint of testing `cut` from `iface` over the
    /// minimal detour routes of `oracle` (a degraded mesh). Returns `None`
    /// when the fault set severs either the stimulus or the response leg.
    #[must_use]
    pub fn compute_detoured(
        mesh: &Mesh,
        oracle: &DetourOracle,
        iface: &TestInterface,
        cut: &CoreUnderTest,
    ) -> Option<Self> {
        let src = iface.source_node();
        let snk = iface.sink_node();
        let route_in = oracle.route(src, cut.node)?;
        let route_out = oracle.route(cut.node, snk)?;
        Some(TestPath::new(
            route_in.len() as u32 - 1,
            route_out.len() as u32 - 1,
            route_links(mesh, &route_in),
            route_links(mesh, &route_out),
            src,
            cut,
            snk,
        ))
    }

    /// The footprint of both legs. Source side: the interface's injection
    /// link, the route, and the CUT's ejection link (stimulus entering the
    /// core). Response side: the CUT's injection link, the route back, and
    /// the sink's ejection link.
    fn new(
        hops_in: u32,
        hops_out: u32,
        route_in: impl IntoIterator<Item = LinkId>,
        route_out: impl IntoIterator<Item = LinkId>,
        src: NodeId,
        cut: &CoreUnderTest,
        snk: NodeId,
    ) -> Self {
        let mut links = vec![LinkId::injection(src), LinkId::ejection(cut.node)];
        links.extend(route_in);
        links.extend([LinkId::injection(cut.node), LinkId::ejection(snk)]);
        links.extend(route_out);
        links.sort_unstable();
        links.dedup();
        TestPath {
            hops_in,
            hops_out,
            links,
        }
    }

    /// The directed links the session occupies, sorted, each once.
    #[must_use]
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Routers whose resources this footprint touches (for NoC power
    /// accounting): every link endpoint.
    #[must_use]
    pub fn router_count(&self, mesh: &Mesh) -> usize {
        // The links are sorted by sending router first, so each sender is
        // counted at its first link. The far end of a route hop sends the
        // next hop or an ejection link, so on a computed path `unsent`
        // stays empty and nothing is allocated.
        let links = &self.links;
        let senders = (0..links.len())
            .filter(|&i| i == 0 || links[i - 1].from != links[i].from)
            .count();
        let mut unsent: Vec<NodeId> = links
            .iter()
            .filter_map(|l| mesh.neighbor(l.from, l.dir))
            .filter(|&n| links.binary_search_by_key(&n, |l| l.from).is_err())
            .collect();
        unsent.sort_unstable();
        unsent.dedup();
        senders + unsent.len()
    }
}

/// The directed cardinal links along a route given as adjacent routers.
fn route_links<'a>(mesh: &'a Mesh, route: &'a [NodeId]) -> impl Iterator<Item = LinkId> + 'a {
    route.windows(2).map(|pair| {
        let dir = Direction::CARDINAL
            .into_iter()
            .find(|&d| mesh.neighbor(pair[0], d) == Some(pair[1]))
            .expect("detour routes step between adjacent routers");
        LinkId::cardinal(pair[0], dir)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{CutId, CutKind};
    use crate::interface::InterfaceId;
    use crate::system::{SystemBuilder, SystemUnderTest};
    use noctest_cpu::ProcessorProfile;
    use noctest_faults::FaultSet;

    fn mesh() -> Mesh {
        Mesh::new(4, 4).unwrap()
    }

    fn cut_at(node: u32) -> CoreUnderTest {
        CoreUnderTest {
            id: CutId(node),
            name: format!("c{node}"),
            node: NodeId::new(node),
            kind: CutKind::Core,
            bits_in: 100,
            bits_out: 100,
            patterns: 10,
            power: 50.0,
            shift_in_bound: 0,
            shift_out_bound: 0,
        }
    }

    fn ext() -> TestInterface {
        TestInterface::ExternalTester {
            input_node: NodeId::new(0),
            output_node: NodeId::new(15),
        }
    }

    /// A 4x4 XY system whose overlap test the conflict cases below read:
    /// the external tester on routers 0 → 15, two reused processors,
    /// which farthest-point placement seats on routers 3 (interface 1)
    /// and 9 (interface 2), and one plain core on each other router.
    fn grid(faults: FaultSet) -> SystemUnderTest {
        let mut b = SystemBuilder::new("grid", 4, 4);
        for i in 0..14 {
            b = b.core(format!("c{i}"), 100, 100, 10, 50.0);
        }
        let sys = b
            .processors(&ProcessorProfile::plasma(), 2, 2)
            .faults(faults)
            .build()
            .unwrap();
        assert_eq!(sys.interface(InterfaceId(1)).source_node(), NodeId::new(3));
        assert_eq!(sys.interface(InterfaceId(2)).source_node(), NodeId::new(9));
        sys
    }

    /// The plain core on router `node` of [`grid`].
    fn core_on(sys: &SystemUnderTest, node: u32) -> CutId {
        sys.cuts()
            .iter()
            .find(|c| !c.is_processor() && c.node == NodeId::new(node))
            .unwrap()
            .id
    }

    #[test]
    fn path_includes_local_links_both_sides() {
        let p = TestPath::compute(&mesh(), RoutingKind::Xy, &ext(), &cut_at(5));
        assert!(p.links().contains(&LinkId::injection(NodeId::new(0))));
        assert!(p.links().contains(&LinkId::ejection(NodeId::new(5))));
        assert!(p.links().contains(&LinkId::injection(NodeId::new(5))));
        assert!(p.links().contains(&LinkId::ejection(NodeId::new(15))));
        assert_eq!(p.hops_in, mesh().distance(NodeId::new(0), NodeId::new(5)));
        assert_eq!(p.hops_out, mesh().distance(NodeId::new(5), NodeId::new(15)));
        // Both legs' routes, and nothing else: 2 + 4 hops plus 4 local links.
        assert_eq!(p.links().len(), 10);
        assert!(
            p.links().windows(2).all(|w| w[0] < w[1]),
            "sorted, each once"
        );
    }

    #[test]
    fn disjoint_paths_do_not_conflict() {
        // Processor at node 3 testing its neighbour 7 (column 3) vs
        // processor at 9 testing its neighbour 8 (row 2, columns 0-1):
        // disjoint links.
        let sys = grid(FaultSet::none());
        let a = (InterfaceId(1), core_on(&sys, 7));
        let b = (InterfaceId(2), core_on(&sys, 8));
        assert!(!sys.footprints_overlap(a, b));
        assert!(!sys.footprints_overlap(b, a));
    }

    #[test]
    fn shared_column_conflicts() {
        // The external tester and the processor at 3 both testing the
        // core at 10: both need core 10's local links.
        let sys = grid(FaultSet::none());
        let core = core_on(&sys, 10);
        assert!(sys.footprints_overlap((InterfaceId(0), core), (InterfaceId(1), core)));
    }

    #[test]
    fn colocated_processor_and_cut_share_local_ports() {
        // Processor at node 6 testing the core at node 6: footprint is just
        // the local port pair.
        let p = TestInterface::Processor {
            index: 0,
            node: NodeId::new(6),
            profile: ProcessorProfile::plasma(),
        };
        let path = TestPath::compute(&mesh(), RoutingKind::Xy, &p, &cut_at(6));
        assert_eq!(path.hops_in, 0);
        assert_eq!(path.hops_out, 0);
        assert_eq!(path.links().len(), 2); // injection(6) + ejection(6)
    }

    #[test]
    fn conflict_is_symmetric_and_reflexive() {
        let sys = grid(FaultSet::none());
        let a = (InterfaceId(0), core_on(&sys, 5));
        let b = (InterfaceId(0), core_on(&sys, 10));
        assert!(sys.footprints_overlap(a, b)); // share ext ports
        assert!(sys.footprints_overlap(b, a));
        assert!(sys.footprints_overlap(a, a));
    }

    #[test]
    fn router_count_covers_path() {
        let p = TestPath::compute(&mesh(), RoutingKind::Xy, &ext(), &cut_at(5));
        // 0 -> 5 (XY: 0,1,5) and 5 -> 15 (XY: 5,6,7,11,15): 7 distinct.
        assert_eq!(p.router_count(&mesh()), 7);
    }

    #[test]
    fn severed_pair_has_an_empty_footprint() {
        // Killing both links into router 0 severs the core there from
        // every interface but the external tester, whose input sits on
        // that router: those pairs have no path and overlap nothing,
        // themselves included.
        let into = |from, dir| LinkId::cardinal(NodeId::new(from), dir);
        let sys = grid(
            FaultSet::none()
                .with_link(into(1, Direction::West))
                .with_link(into(4, Direction::South)),
        );
        let severed = (InterfaceId(1), core_on(&sys, 0));
        assert!(sys.try_path(severed.0, severed.1).is_none());
        assert!(!sys.footprints_overlap(severed, severed));
        for cut in sys.cuts() {
            for iface in sys.interface_ids() {
                assert!(!sys.footprints_overlap(severed, (iface, cut.id)));
                assert!(!sys.footprints_overlap((iface, cut.id), severed));
            }
        }
    }
}
