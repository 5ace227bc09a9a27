//! Mesh topology, XY routing, and message latency.

use ise_types::config::NocConfig;
use std::fmt;

/// Identifier of a mesh node (tile). Tiles are numbered row-major:
/// node `y * mesh_x + x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tile{}", self.0)
    }
}

/// A 2D mesh with XY (dimension-ordered) routing.
///
/// Every (src, dst) route is walked once, at construction, into a route
/// table: the dense link slots ([`Mesh::link_index`]) of each route,
/// stored back to back. Pricing a message ([`Mesh::hops`],
/// [`Mesh::latency`], [`TrafficMeter::record`](crate::TrafficMeter::record))
/// reads one table slice instead of re-deriving coordinates per hop.
/// The table holds `nodes² + 1` offsets plus one slot per hop of every
/// route: about 3.5 KiB for the 4×4 mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    cfg: NocConfig,
    /// Route of pair `p = src * nodes + dst` is
    /// `route_links[route_start[p]..route_start[p + 1]]`.
    route_start: Box<[u32]>,
    route_links: Box<[u32]>,
}

impl Mesh {
    /// Builds a mesh from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if either mesh dimension or the link width is zero.
    pub fn new(cfg: NocConfig) -> Self {
        assert!(
            cfg.mesh_x > 0 && cfg.mesh_y > 0,
            "mesh dimensions must be positive"
        );
        assert!(cfg.link_bytes > 0, "link width must be positive");
        let mut mesh = Mesh {
            cfg,
            route_start: Box::default(),
            route_links: Box::default(),
        };
        let n = mesh.nodes();
        let mut start = Vec::with_capacity(n * n + 1);
        let mut links = Vec::new();
        start.push(0);
        for src in (0..n).map(NodeId) {
            for dst in (0..n).map(NodeId) {
                let route = mesh.route_iter(src, dst);
                links.extend(route.clone().zip(route.skip(1)).map(|(from, to)| {
                    u32::try_from(mesh.link_index(from, to)).expect("link slot fits u32")
                }));
                start.push(u32::try_from(links.len()).expect("route table fits u32"));
            }
        }
        mesh.route_start = start.into_boxed_slice();
        mesh.route_links = links.into_boxed_slice();
        mesh
    }

    /// The configuration this mesh was built from.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Number of tiles.
    pub fn nodes(&self) -> usize {
        self.cfg.nodes()
    }

    /// (x, y) coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn coords(&self, n: NodeId) -> (usize, usize) {
        assert!(n.0 < self.nodes(), "node {} out of range", n.0);
        (n.0 % self.cfg.mesh_x, n.0 / self.cfg.mesh_x)
    }

    /// Node at (x, y).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        assert!(
            x < self.cfg.mesh_x && y < self.cfg.mesh_y,
            "coords out of range"
        );
        NodeId(y * self.cfg.mesh_x + x)
    }

    /// The dense link slots ([`Mesh::link_index`]) crossed by the XY
    /// route from `src` to `dst`, in route order: one table read.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub(crate) fn route_links(&self, src: NodeId, dst: NodeId) -> &[u32] {
        let n = self.nodes();
        assert!(
            src.0 < n && dst.0 < n,
            "route {src} -> {dst} out of range of the {n}-node mesh"
        );
        let pair = src.0 * n + dst.0;
        &self.route_links[self.route_start[pair] as usize..self.route_start[pair + 1] as usize]
    }

    /// Manhattan hop count between two nodes (XY routing is minimal).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u64 {
        self.route_links(src, dst).len() as u64
    }

    /// The XY route from `src` to `dst`, inclusive of both endpoints.
    /// X is routed first, then Y — the deadlock-free dimension order.
    ///
    /// Allocates; message pricing reads the precomputed route table
    /// instead.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        self.route_iter(src, dst).collect()
    }

    /// Allocation-free iterator over the XY route from `src` to `dst`,
    /// inclusive of both endpoints. Yields exactly `hops + 1` nodes.
    /// The reference walk [`Mesh::new`] builds the route table from.
    pub fn route_iter(&self, src: NodeId, dst: NodeId) -> RouteIter {
        let (x, y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        RouteIter {
            mesh_x: self.cfg.mesh_x,
            x,
            y,
            dx,
            dy,
            emitted_src: false,
        }
    }

    /// Number of dense link slots: every tile has one outgoing slot per
    /// direction (E, W, S, N), so `link_index` values are `< link_slots`.
    pub fn link_slots(&self) -> usize {
        self.nodes() * 4
    }

    /// Dense index of the directed link between two *adjacent* tiles.
    /// Encoded as `from * 4 + direction`, so per-link counters can live
    /// in a flat array instead of a hash map.
    ///
    /// # Panics
    ///
    /// Panics if the tiles are not mesh neighbours.
    pub fn link_index(&self, from: NodeId, to: NodeId) -> usize {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        let dir = if ty == fy && tx == fx + 1 {
            0 // east
        } else if ty == fy && tx + 1 == fx {
            1 // west
        } else if tx == fx && ty == fy + 1 {
            2 // south
        } else if tx == fx && ty + 1 == fy {
            3 // north
        } else {
            panic!("tiles {} and {} are not adjacent", from.0, to.0);
        };
        from.0 * 4 + dir
    }

    /// Serialization delay for a `bytes`-sized payload over the link width
    /// (header flit rides for free; zero-byte control messages take one
    /// flit).
    #[inline]
    pub fn serialization(&self, bytes: usize) -> u64 {
        (bytes as u64).div_ceil(self.cfg.link_bytes as u64).max(1)
    }

    /// End-to-end uncontended latency of one message: per-hop router cost
    /// plus payload serialization. A self-message (src == dst) costs only
    /// serialization.
    #[inline]
    pub fn latency(&self, src: NodeId, dst: NodeId, bytes: usize) -> u64 {
        self.hops(src, dst) * self.cfg.hop_latency + self.serialization(bytes)
    }

    /// Round-trip latency: a `req_bytes` request followed by a
    /// `resp_bytes` response over the reverse route.
    pub fn round_trip(&self, src: NodeId, dst: NodeId, req_bytes: usize, resp_bytes: usize) -> u64 {
        self.latency(src, dst, req_bytes) + self.latency(dst, src, resp_bytes)
    }

    /// Worst-case hop count in this mesh (corner to corner).
    pub fn diameter(&self) -> u64 {
        (self.cfg.mesh_x - 1 + self.cfg.mesh_y - 1) as u64
    }
}

/// Iterator state for [`Mesh::route_iter`]: walks X toward the
/// destination column, then Y toward the destination row.
#[derive(Debug, Clone)]
pub struct RouteIter {
    mesh_x: usize,
    x: usize,
    y: usize,
    dx: usize,
    dy: usize,
    emitted_src: bool,
}

impl Iterator for RouteIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if !self.emitted_src {
            self.emitted_src = true;
        } else if self.x != self.dx {
            self.x = if self.dx > self.x {
                self.x + 1
            } else {
                self.x - 1
            };
        } else if self.y != self.dy {
            self.y = if self.dy > self.y {
                self.y + 1
            } else {
                self.y - 1
            };
        } else {
            return None;
        }
        Some(NodeId(self.y * self.mesh_x + self.x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh4() -> Mesh {
        Mesh::new(NocConfig::isca23())
    }

    #[test]
    fn coords_roundtrip() {
        let m = mesh4();
        for n in 0..16 {
            let (x, y) = m.coords(NodeId(n));
            assert_eq!(m.node_at(x, y), NodeId(n));
        }
    }

    #[test]
    fn hops_is_manhattan() {
        let m = mesh4();
        assert_eq!(m.hops(NodeId(0), NodeId(0)), 0);
        assert_eq!(m.hops(NodeId(0), NodeId(3)), 3);
        assert_eq!(m.hops(NodeId(0), NodeId(12)), 3);
        assert_eq!(m.hops(NodeId(0), NodeId(15)), 6);
        assert_eq!(m.hops(NodeId(5), NodeId(10)), 2);
    }

    #[test]
    fn hops_symmetric() {
        let m = mesh4();
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(m.hops(NodeId(a), NodeId(b)), m.hops(NodeId(b), NodeId(a)));
            }
        }
    }

    #[test]
    fn route_is_minimal_and_contiguous() {
        let m = mesh4();
        for a in 0..16 {
            for b in 0..16 {
                let r = m.route(NodeId(a), NodeId(b));
                assert_eq!(r.len() as u64, m.hops(NodeId(a), NodeId(b)) + 1);
                assert_eq!(*r.first().unwrap(), NodeId(a));
                assert_eq!(*r.last().unwrap(), NodeId(b));
                for w in r.windows(2) {
                    assert_eq!(m.hops(w[0], w[1]), 1, "route must step one hop at a time");
                }
            }
        }
    }

    #[test]
    fn route_table_matches_the_reference_walk_on_every_shape() {
        for (mesh_x, mesh_y) in [(1, 1), (1, 5), (5, 1), (3, 5), (4, 4)] {
            let m = Mesh::new(NocConfig {
                mesh_x,
                mesh_y,
                ..NocConfig::isca23()
            });
            for a in (0..m.nodes()).map(NodeId) {
                for b in (0..m.nodes()).map(NodeId) {
                    let walked: Vec<u32> = m
                        .route(a, b)
                        .windows(2)
                        .map(|w| m.link_index(w[0], w[1]) as u32)
                        .collect();
                    assert_eq!(
                        m.route_links(a, b),
                        walked,
                        "{mesh_x}x{mesh_y} route {a} -> {b}"
                    );
                    let ((ax, ay), (bx, by)) = (m.coords(a), m.coords(b));
                    assert_eq!(
                        m.hops(a, b),
                        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64,
                        "{mesh_x}x{mesh_y} hops {a} -> {b}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn route_to_a_node_past_the_mesh_panics() {
        // Pair (0, 16) would index a valid slot of the 16x16 pair table.
        mesh4().hops(NodeId(0), NodeId(16));
    }

    #[test]
    fn route_is_xy_ordered() {
        let m = mesh4();
        // 0 -> 15 must go along row 0 first: 0,1,2,3 then down 7,11,15.
        let r = m.route(NodeId(0), NodeId(15));
        assert_eq!(
            r,
            vec![
                NodeId(0),
                NodeId(1),
                NodeId(2),
                NodeId(3),
                NodeId(7),
                NodeId(11),
                NodeId(15)
            ]
        );
    }

    #[test]
    fn serialization_rounds_up() {
        let m = mesh4();
        assert_eq!(m.serialization(0), 1);
        assert_eq!(m.serialization(1), 1);
        assert_eq!(m.serialization(16), 1);
        assert_eq!(m.serialization(17), 2);
        assert_eq!(m.serialization(64), 4);
    }

    #[test]
    fn table2_latency_example() {
        let m = mesh4();
        // Control message one hop: 3 + 1.
        assert_eq!(m.latency(NodeId(0), NodeId(1), 8), 4);
        // 64B data corner-to-corner: 6*3 + 4.
        assert_eq!(m.latency(NodeId(0), NodeId(15), 64), 22);
    }

    #[test]
    fn round_trip_adds_both_directions() {
        let m = mesh4();
        let rt = m.round_trip(NodeId(0), NodeId(15), 8, 64);
        assert_eq!(
            rt,
            m.latency(NodeId(0), NodeId(15), 8) + m.latency(NodeId(15), NodeId(0), 64)
        );
    }

    #[test]
    fn diameter_of_4x4_is_6() {
        assert_eq!(mesh4().diameter(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        mesh4().coords(NodeId(16));
    }
}
