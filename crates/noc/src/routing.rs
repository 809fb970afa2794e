//! Routing algorithms: XY (the paper's), YX, and West-First.
//!
//! The paper's tool "supports NoCs based on grid topology using XY routing
//! algorithm"; [`RoutingKind::Xy`] is therefore the default everywhere. The
//! two extra algorithms exist for the ablation benches: they change which
//! link sets a core-test path occupies and therefore how much test
//! parallelism the scheduler can extract.

use crate::geometry::{Direction, Position};
use crate::topology::{LinkId, Mesh, NodeId};

/// Selects the deterministic routing function used by both the cycle-level
/// simulator and the analytic path model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum RoutingKind {
    /// Dimension-ordered: exhaust the X offset, then the Y offset.
    #[default]
    Xy,
    /// Dimension-ordered: exhaust the Y offset, then the X offset.
    Yx,
    /// Turn-model "west-first": any westward movement happens first, after
    /// which the packet routes X-then-Y among the remaining directions.
    /// Deterministic variant (no adaptivity), still deadlock-free.
    WestFirst,
}

impl RoutingKind {
    /// The output direction a packet at `here` destined to `dest` takes next.
    ///
    /// Returns [`Direction::Local`] when `here == dest` (ejection).
    #[must_use]
    pub fn next_hop(self, here: Position, dest: Position) -> Direction {
        if here == dest {
            return Direction::Local;
        }
        match self {
            RoutingKind::Xy => xy_step(here, dest),
            RoutingKind::Yx => yx_step(here, dest),
            RoutingKind::WestFirst => {
                if dest.x < here.x {
                    Direction::West
                } else {
                    xy_step(here, dest)
                }
            }
        }
    }

    /// The full sequence of directions from `src` to `dest` (excluding the
    /// final `Local` ejection step).
    #[must_use]
    pub fn route(self, src: Position, dest: Position) -> Vec<Direction> {
        let mut steps = Vec::with_capacity(src.manhattan(dest) as usize);
        let mut here = src;
        while here != dest {
            let dir = self.next_hop(here, dest);
            debug_assert_ne!(dir, Direction::Local);
            here = here.step(dir).expect("route stepped outside the grid");
            steps.push(dir);
        }
        steps
    }

    /// The ordered routers visited from `src` to `dest`, inclusive of both.
    #[must_use]
    pub fn path_nodes(self, mesh: &Mesh, src: NodeId, dest: NodeId) -> Vec<NodeId> {
        let mut nodes = vec![src];
        let mut here = mesh.position(src);
        let dest_pos = mesh.position(dest);
        while here != dest_pos {
            let dir = self.next_hop(here, dest_pos);
            here = here.step(dir).expect("route stepped outside the grid");
            nodes.push(mesh.node(here).expect("route left the mesh"));
        }
        nodes
    }

    /// The *directed* router-to-router links occupied by a packet from
    /// `src` to `dest`, **excluding** the local injection/ejection links
    /// (see `noctest-core`'s path model, which adds those explicitly).
    #[must_use]
    pub fn path_links(self, mesh: &Mesh, src: NodeId, dest: NodeId) -> Vec<LinkId> {
        let nodes = self.path_nodes(mesh, src, dest);
        nodes
            .windows(2)
            .map(|w| {
                let a = mesh.position(w[0]);
                let b = mesh.position(w[1]);
                let dir = direction_between(a, b);
                LinkId::cardinal(w[0], dir)
            })
            .collect()
    }
}

fn xy_step(here: Position, dest: Position) -> Direction {
    if dest.x > here.x {
        Direction::East
    } else if dest.x < here.x {
        Direction::West
    } else if dest.y > here.y {
        Direction::North
    } else {
        Direction::South
    }
}

fn yx_step(here: Position, dest: Position) -> Direction {
    if dest.y > here.y {
        Direction::North
    } else if dest.y < here.y {
        Direction::South
    } else if dest.x > here.x {
        Direction::East
    } else {
        Direction::West
    }
}

fn direction_between(a: Position, b: Position) -> Direction {
    if b.x == a.x + 1 && b.y == a.y {
        Direction::East
    } else if a.x == b.x + 1 && a.y == b.y {
        Direction::West
    } else if b.y == a.y + 1 && a.x == b.x {
        Direction::North
    } else if a.y == b.y + 1 && a.x == b.x {
        Direction::South
    } else {
        panic!("nodes {a} and {b} are not adjacent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALGOS: [RoutingKind; 3] = [RoutingKind::Xy, RoutingKind::Yx, RoutingKind::WestFirst];

    #[test]
    fn xy_routes_x_first() {
        let route = RoutingKind::Xy.route(Position::new(0, 0), Position::new(2, 2));
        assert_eq!(
            route,
            vec![
                Direction::East,
                Direction::East,
                Direction::North,
                Direction::North
            ]
        );
    }

    #[test]
    fn yx_routes_y_first() {
        let route = RoutingKind::Yx.route(Position::new(0, 0), Position::new(2, 2));
        assert_eq!(
            route,
            vec![
                Direction::North,
                Direction::North,
                Direction::East,
                Direction::East
            ]
        );
    }

    #[test]
    fn west_first_goes_west_before_anything() {
        let route = RoutingKind::WestFirst.route(Position::new(3, 1), Position::new(0, 3));
        assert_eq!(&route[..3], &[Direction::West; 3]);
    }

    #[test]
    fn all_algorithms_are_minimal() {
        for algo in ALGOS {
            for sx in 0..4u16 {
                for sy in 0..4u16 {
                    for dx in 0..4u16 {
                        for dy in 0..4u16 {
                            let s = Position::new(sx, sy);
                            let d = Position::new(dx, dy);
                            assert_eq!(
                                algo.route(s, d).len() as u32,
                                s.manhattan(d),
                                "{algo:?} {s} -> {d}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn self_route_is_empty_and_local() {
        let p = Position::new(1, 1);
        for algo in ALGOS {
            assert!(algo.route(p, p).is_empty());
            assert_eq!(algo.next_hop(p, p), Direction::Local);
        }
    }

    #[test]
    fn path_nodes_endpoints() {
        let mesh = Mesh::new(4, 4).unwrap();
        let s = mesh.node_at(0, 3).unwrap();
        let d = mesh.node_at(3, 0).unwrap();
        for algo in ALGOS {
            let nodes = algo.path_nodes(&mesh, s, d);
            assert_eq!(nodes.first(), Some(&s));
            assert_eq!(nodes.last(), Some(&d));
            assert_eq!(nodes.len() as u32, mesh.distance(s, d) + 1);
        }
    }

    #[test]
    fn path_links_are_consecutive() {
        let mesh = Mesh::new(5, 6).unwrap();
        let s = mesh.node_at(4, 0).unwrap();
        let d = mesh.node_at(1, 5).unwrap();
        let links = RoutingKind::Xy.path_links(&mesh, s, d);
        assert_eq!(links.len() as u32, mesh.distance(s, d));
        // Each link's head router must be the previous link's tail router.
        let mut here = s;
        for link in &links {
            assert_eq!(link.from, here);
            here = mesh.neighbor(here, link.dir).unwrap();
        }
        assert_eq!(here, d);
    }

    #[test]
    fn xy_and_yx_paths_differ_off_diagonal() {
        let mesh = Mesh::new(4, 4).unwrap();
        let s = mesh.node_at(0, 0).unwrap();
        let d = mesh.node_at(3, 3).unwrap();
        let xy = RoutingKind::Xy.path_links(&mesh, s, d);
        let yx = RoutingKind::Yx.path_links(&mesh, s, d);
        assert_ne!(xy, yx);
    }
}
