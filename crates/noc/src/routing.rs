//! Route computation for the three fabric modes.
//!
//! * **Mesh** — dimension-ordered XY routing (deadlock-free).
//! * **MeshWithBypass** — XY routing where a bypass segment in the current
//!   dimension is taken when it brings the flit strictly closer than the
//!   mesh hop would; dimension order is preserved, so deadlock freedom is
//!   too.
//! * **Rings** — each row circulates in the +x direction, wrapping from
//!   `x = k − 1` back to `x = 0` over the row's bypass wire. A dateline at
//!   the wrap switches packets to VC 1, breaking the ring's cyclic channel
//!   dependency.
//!
//! Traffic estimators do not walk routes hop by hop. Because X resolves
//! before Y, a route is a row leg followed by a column leg, and
//! [`RouteLegs`] precomputes every leg of a configuration — k³ per
//! direction, built in O(k³) from the same [`compute_route`] /
//! [`next_node`] functions — so an estimate over E messages costs
//! O(E + k³) rather than O(E · hops) or a k⁴ all-pairs table.

use crate::config::{BypassSegment, NocConfig, TopologyMode};
use crate::error::NocError;
use crate::topology::{Coord, NodeId, Port};

/// Computes the output port for a flit at `cur` destined to `dst`.
///
/// Ring mode only routes within a row (ring traffic is intra-row by
/// construction of the vertex-update dataflow); a cross-row request
/// yields [`NocError::CrossRowRingRoute`] instead of aborting the run.
pub fn compute_route(cfg: &NocConfig, cur: NodeId, dst: NodeId) -> Result<Port, NocError> {
    let k = cfg.k;
    route_at(cfg, (cur, Coord::of(cur, k)), (dst, Coord::of(dst, k)))
}

/// [`compute_route`] between routers whose coordinates are known.
fn route_at(
    cfg: &NocConfig,
    (cur, c): (NodeId, Coord),
    (dst, d): (NodeId, Coord),
) -> Result<Port, NocError> {
    let k = cfg.k;
    if c == d {
        return Ok(Port::Local);
    }
    match cfg.mode {
        TopologyMode::Rings => {
            if c.y != d.y {
                return Err(NocError::CrossRowRingRoute { cur, dst });
            }
            Ok(Port::East) // +x, wrapping at k − 1
        }
        TopologyMode::Mesh | TopologyMode::MeshWithBypass => {
            if c.x != d.x {
                // Resolve X first. Consider the horizontal bypass if it
                // strictly beats the mesh hop.
                if cfg.mode == TopologyMode::MeshWithBypass {
                    if let Some(peer) = cfg.h_bypass_peer_at(c) {
                        let px = peer % k;
                        let cur_gap = c.x.abs_diff(d.x);
                        let peer_gap = px.abs_diff(d.x);
                        if peer_gap + 1 < cur_gap {
                            return Ok(Port::BypassH);
                        }
                    }
                }
                if c.x < d.x {
                    Ok(Port::East)
                } else {
                    Ok(Port::West)
                }
            } else {
                // X resolved; resolve Y, considering the vertical bypass.
                if cfg.mode == TopologyMode::MeshWithBypass {
                    if let Some(peer) = cfg.v_bypass_peer_at(c) {
                        let py = peer / k;
                        let cur_gap = c.y.abs_diff(d.y);
                        let peer_gap = py.abs_diff(d.y);
                        if peer_gap + 1 < cur_gap {
                            return Ok(Port::BypassV);
                        }
                    }
                }
                if c.y < d.y {
                    Ok(Port::South)
                } else {
                    Ok(Port::North)
                }
            }
        }
    }
}

/// The VC a flit occupies on the downstream router after leaving `cur`
/// through `out`. Ring wrap crossings move to VC 1 (dateline); everything
/// else keeps its VC.
pub fn next_vc(cfg: &NocConfig, cur: NodeId, out: Port, in_vc: usize) -> usize {
    if cfg.mode == TopologyMode::Rings && out == Port::East && cur % cfg.k == cfg.k - 1 {
        1.min(cfg.vcs - 1)
    } else {
        in_vc
    }
}

/// Number of router-to-router hops the route from `src` to `dst` takes
/// under `cfg` (follows `compute_route` exactly). Fails with the
/// underlying routing error, or [`NocError::RoutingLivelock`] if the
/// route cannot reach `dst`.
///
/// Convenience for one-off queries: it walks the route's two legs hop
/// by hop, O(hops). Callers with many queries against one configuration
/// should hold a [`RouteLegs`].
pub fn hop_count(cfg: &NocConfig, src: NodeId, dst: NodeId) -> Result<usize, NocError> {
    cfg.validate()?;
    walk(cfg, src, dst)
}

/// Walks `src → dst` hop by hop with [`compute_route`] / [`next_node`]
/// and counts the hops. Fails with the walk's error, or
/// [`NocError::RoutingLivelock`] when a step makes no progress or the
/// walk exceeds `4k²` hops.
fn walk(cfg: &NocConfig, src: NodeId, dst: NodeId) -> Result<usize, NocError> {
    let mut cur = src;
    let mut hops = 0;
    while cur != dst {
        let port = compute_route(cfg, cur, dst)?;
        cur = next_node(cfg, cur, port)?.ok_or(NocError::RoutingLivelock { src, dst })?;
        hops += 1;
        if hops > 4 * cfg.k * cfg.k {
            return Err(NocError::RoutingLivelock { src, dst });
        }
    }
    Ok(hops)
}

/// Precomputed summary of one `(src, dst)` route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteSummary {
    /// Router-to-router hops (0 when `src == dst`).
    pub hops: u32,
    /// How many of those hops ride a bypass segment.
    pub bypass_hops: u32,
}

/// One row or column of the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Line {
    /// Row `y`: positions are x coordinates.
    Row(usize),
    /// Column `x`: positions are y coordinates.
    Col(usize),
}

impl Line {
    /// The router at position `p` along the line.
    fn at(self, p: usize, k: usize) -> (NodeId, Coord) {
        match self {
            Line::Row(y) => (y * k + p, Coord { x: p, y }),
            Line::Col(x) => (p * k + x, Coord { x, y: p }),
        }
    }

    /// The position of the router at `c` along the line, if it lies on
    /// it.
    fn position(self, c: Coord, k: usize) -> Option<usize> {
        match self {
            Line::Row(y) => (c.y == y).then_some(c.x),
            Line::Col(x) => (c.x == x && c.y < k).then_some(c.y),
        }
    }

    /// The segments of `cfg` that can affect routes along this line: a
    /// row leg only consults its row's horizontal segments, a column leg
    /// only its column's vertical ones.
    fn segments(self, cfg: &NocConfig) -> impl Iterator<Item = &BypassSegment> {
        let (segs, index) = match self {
            Line::Row(y) => (&cfg.row_bypass, y),
            Line::Col(x) => (&cfg.col_bypass, x),
        };
        segs.iter().filter(move |s| s.index == index)
    }
}

/// One leg: the walk from a position to a destination along one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    /// Position of the next router towards the destination (the
    /// destination itself for a zero-hop leg).
    pub next: u32,
    /// Router-to-router hops of the leg; `u32::MAX` if unroutable.
    pub hops: u32,
    /// How many of those hops ride a bypass segment.
    pub bypass_hops: u32,
}

/// `Leg::hops` of an unroutable leg.
const LEG_ERR: u32 = u32::MAX;

/// `Leg::hops` of a leg not resolved yet (build time only).
const LEG_UNKNOWN: u32 = u32::MAX - 1;

/// Every leg of one line: `k²` entries, one per `(from, to)` position
/// pair, resolved with the fabric's own [`compute_route`] /
/// [`next_node`] decisions at the line's routers.
///
/// For each destination the next hops form an in-tree rooted at it, so
/// the line also lists, per destination, its routable sources ordered
/// children before parents: pushing message counts along that order
/// settles every router's count before it is forwarded, which is how
/// traffic kernels turn leg histograms into per-router loads in O(k) per
/// destination.
#[derive(Debug, Clone, Copy)]
pub struct LineLegs<'a> {
    k: usize,
    /// `legs[to * k + from]`.
    legs: &'a [Leg],
    /// `order[to * k ..][..k]`: unused slots, then the routable sources
    /// with at least one hop, each listed before its next hop.
    order: &'a [u32],
    /// Number of used (trailing) entries of each destination's `order`.
    order_len: &'a [u32],
}

impl<'a> LineLegs<'a> {
    /// The leg from position `from` to position `to`, or `None` if the
    /// walk fails.
    pub fn leg(&self, from: usize, to: usize) -> Option<Leg> {
        let leg = self.legs[to * self.k + from];
        (leg.hops != LEG_ERR).then_some(leg)
    }

    /// All legs towards `to`, indexed by source position, and the
    /// routable sources with at least one hop, each listed before its
    /// next hop.
    pub fn toward(&self, to: usize) -> (&'a [Leg], &'a [u32]) {
        let k = self.k;
        let used = self.order_len[to] as usize;
        (
            &self.legs[to * k..][..k],
            &self.order[to * k + k - used..][..used],
        )
    }
}

/// The routes of one [`NocConfig`], factored into XY legs.
///
/// Routing resolves X fully before Y and a bypass segment belongs to a
/// single row or column, so the route `src → dst` is the row leg
/// `(src.y; src.x → dst.x)` followed by the column leg
/// `(dst.x; src.y → dst.y)`. The row leg depends only on row `src.y`'s
/// segments, the column leg only on column `dst.x`'s. Ring mode routes
/// within a row, so its routes are the row leg alone; every column leg
/// that changes row fails with the ring's cross-row error.
///
/// The legs of every row and every column are held — k³ legs each way
/// instead of k⁴ pairs — and lines with equal segment spans share one
/// entry, so a plain mesh builds one row and one column. Building is
/// O(k³) at worst; a failing pair's exact [`NocError`] is re-derived by
/// replaying the hop-by-hop walk.
#[derive(Debug, Clone)]
pub struct RouteLegs {
    cfg: NocConfig,
    /// Per built line: `k²` legs and order slots, `k` order lengths.
    legs: Vec<Leg>,
    order: Vec<u32>,
    order_len: Vec<u32>,
    /// Built line of each row and of each column.
    row_of: Vec<usize>,
    col_of: Vec<usize>,
}

impl RouteLegs {
    /// Builds the legs of `cfg`. Configuration-level problems surface
    /// here as the [`NocConfig::validate`] error.
    pub fn build(cfg: &NocConfig) -> Result<RouteLegs, NocError> {
        cfg.validate()?;
        let k = cfg.k;
        // Lines with equal spans route identically: each line takes the
        // legs of the first line of its direction with the same spans.
        let owners = |line: fn(usize) -> Line| -> Vec<usize> {
            let spans: Vec<Vec<(usize, usize)>> = (0..k)
                .map(|i| line(i).segments(cfg).map(|s| (s.from, s.to)).collect())
                .collect();
            (0..k)
                .map(|i| (0..i).find(|&j| spans[j] == spans[i]).unwrap_or(i))
                .collect()
        };
        let (row_of, col_of) = (owners(Line::Row), owners(Line::Col));
        let lines: usize = (0..k)
            .map(|i| (row_of[i] == i) as usize + (col_of[i] == i) as usize)
            .sum();
        let mut legs = RouteLegs {
            cfg: cfg.clone(),
            legs: Vec::with_capacity(lines * k * k),
            order: Vec::with_capacity(lines * k * k),
            order_len: Vec::with_capacity(lines * k),
            row_of,
            col_of,
        };
        // Routes along a line read only its own segments, so each line
        // routes over a copy of `cfg` holding just those.
        let mut line_cfg = NocConfig {
            row_bypass: Vec::new(),
            col_bypass: Vec::new(),
            ..*cfg
        };
        let mut scratch = (vec![false; k], Vec::with_capacity(k));
        for line in (0..k).map(Line::Row).chain((0..k).map(Line::Col)) {
            // `*_of` holds each line's owner until the owner is built,
            // then the built line's index
            let (of, at) = match line {
                Line::Row(y) => (&legs.row_of, y),
                Line::Col(x) => (&legs.col_of, x),
            };
            let id = if of[at] == at {
                line_cfg.row_bypass.clear();
                line_cfg.col_bypass.clear();
                match line {
                    Line::Row(_) => line_cfg.row_bypass.extend(line.segments(cfg)),
                    Line::Col(_) => line_cfg.col_bypass.extend(line.segments(cfg)),
                }
                legs.push_line(&line_cfg, line, &mut scratch)
            } else {
                of[of[at]]
            };
            match line {
                Line::Row(y) => legs.row_of[y] = id,
                Line::Col(x) => legs.col_of[x] = id,
            }
        }
        Ok(legs)
    }

    /// Resolves every leg of `line` and appends it; returns the built
    /// line's index. Next hops are chased with memoized back-fill, so
    /// each router is stepped at most once per destination: O(k²) per
    /// line. A step that errors, makes no progress, revisits a router or
    /// leaves the line marks the walk unroutable; the exact error is
    /// re-derived on demand by replaying the full route.
    fn push_line(
        &mut self,
        cfg: &NocConfig,
        line: Line,
        (on_stack, stack): &mut (Vec<bool>, Vec<(usize, usize, bool)>),
    ) -> usize {
        let k = cfg.k;
        let leg = |next: usize, hops| Leg {
            next: next as u32,
            hops,
            bypass_hops: 0,
        };
        let id = self.order_len.len() / k;
        self.legs.resize((id + 1) * k * k, leg(0, LEG_UNKNOWN));
        self.order.resize((id + 1) * k * k, 0);
        self.order_len.resize((id + 1) * k, 0);
        for to in 0..k {
            let row = &mut self.legs[(id * k + to) * k..][..k];
            row[to] = leg(to, 0);
            let dst = line.at(to, k);
            // Filled back to front: every router lands before its next
            // hop's slot, so the used tail lists children first.
            let ord = &mut self.order[(id * k + to) * k..][..k];
            let mut n = 0;
            for from in 0..k {
                stack.clear();
                let mut cur = from;
                let mut terminal = loop {
                    if row[cur].hops != LEG_UNKNOWN {
                        break row[cur];
                    }
                    if on_stack[cur] {
                        break leg(0, LEG_ERR); // cycle in the next-hop graph
                    }
                    let at = line.at(cur, k);
                    let step = route_at(cfg, at, dst).ok().and_then(|port| {
                        let (_, next) = step_at(cfg, at, port).ok()??;
                        let byp = matches!(port, Port::BypassH | Port::BypassV);
                        Some((line.position(next, k)?, byp))
                    });
                    let Some((next, byp)) = step else {
                        row[cur] = leg(0, LEG_ERR);
                        break row[cur];
                    };
                    on_stack[cur] = true;
                    stack.push((cur, next, byp));
                    cur = next;
                };
                // Back-fill the walked prefix from the terminal leg.
                for &(pos, next, byp) in stack.iter().rev() {
                    on_stack[pos] = false;
                    if terminal.hops != LEG_ERR {
                        terminal = Leg {
                            next: next as u32,
                            hops: terminal.hops + 1,
                            bypass_hops: terminal.bypass_hops + byp as u32,
                        };
                        n += 1;
                        ord[k - n] = pos as u32;
                    }
                    row[pos] = terminal;
                }
            }
            self.order_len[id * k + to] = n as u32;
        }
        id
    }

    /// The legs of built line `id`.
    fn line(&self, id: usize) -> LineLegs<'_> {
        let (k, kk) = (self.cfg.k, self.cfg.k * self.cfg.k);
        LineLegs {
            k,
            legs: &self.legs[id * kk..][..kk],
            order: &self.order[id * kk..][..kk],
            order_len: &self.order_len[id * k..][..k],
        }
    }

    /// The configuration these legs were built for.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// The legs of row `y`.
    pub fn row(&self, y: usize) -> LineLegs<'_> {
        self.line(self.row_of[y])
    }

    /// The legs of column `x`.
    pub fn col(&self, x: usize) -> LineLegs<'_> {
        self.line(self.col_of[x])
    }

    /// The summary of the `src → dst` route: row leg plus column leg.
    pub fn summary(&self, src: NodeId, dst: NodeId) -> Result<RouteSummary, NocError> {
        let k = self.cfg.k;
        let (s, d) = (Coord::of(src, k), Coord::of(dst, k));
        match (self.row(s.y).leg(s.x, d.x), self.col(d.x).leg(s.y, d.y)) {
            (Some(r), Some(c)) => Ok(RouteSummary {
                hops: r.hops + c.hops,
                bypass_hops: r.bypass_hops + c.bypass_hops,
            }),
            _ => Err(self.route_error(src, dst)),
        }
    }

    /// The exact [`NocError`] of a route one of whose legs is
    /// unroutable, re-derived by replaying the hop-by-hop walk.
    pub fn route_error(&self, src: NodeId, dst: NodeId) -> NocError {
        walk(&self.cfg, src, dst).expect_err("a leg of this route is unroutable")
    }
}

/// The node reached by leaving `cur` through `port` (`Ok(None)` for
/// Local). A port that steps off the fabric — the mesh edge in a
/// non-ring mode, or a bypass port at a node without an attachment, as
/// produced by mis-segmented bypass configs — is a [`NocError`] rather
/// than a panic.
pub fn next_node(cfg: &NocConfig, cur: NodeId, port: Port) -> Result<Option<NodeId>, NocError> {
    Ok(step_at(cfg, (cur, Coord::of(cur, cfg.k)), port)?.map(|(next, _)| next))
}

/// [`next_node`] from a router whose coordinates are known; also returns
/// the next router's coordinates.
fn step_at(
    cfg: &NocConfig,
    (cur, c): (NodeId, Coord),
    port: Port,
) -> Result<Option<(NodeId, Coord)>, NocError> {
    let k = cfg.k;
    let off_edge = Err(NocError::OffMeshEdge { cur, port });
    let peer = |p: Option<NodeId>| {
        p.map(|p| Some((p, Coord::of(p, k))))
            .ok_or(NocError::MissingBypassAttachment { cur, port })
    };
    match port {
        Port::Local => Ok(None),
        Port::North if c.y > 0 => Ok(Some((cur - k, Coord { x: c.x, y: c.y - 1 }))),
        Port::South if c.y + 1 < k => Ok(Some((cur + k, Coord { x: c.x, y: c.y + 1 }))),
        Port::East if c.x + 1 < k => Ok(Some((cur + 1, Coord { x: c.x + 1, y: c.y }))),
        // wrap over the row bypass wire
        Port::East if cfg.mode == TopologyMode::Rings => {
            Ok(Some((c.y * k, Coord { x: 0, y: c.y })))
        }
        Port::West if c.x > 0 => Ok(Some((cur - 1, Coord { x: c.x - 1, y: c.y }))),
        Port::North | Port::South | Port::East | Port::West => off_edge,
        Port::BypassH => peer(cfg.h_bypass_peer_at(c)),
        Port::BypassV => peer(cfg.v_bypass_peer_at(c)),
    }
}

/// The dense k⁴ route table the factored legs replaced, kept as the test
/// oracle: a next-hop LUT and a summary for every `(src, dst)` pair.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{compute_route, next_node, walk, RouteSummary};
    use crate::config::NocConfig;
    use crate::error::NocError;
    use crate::topology::{NodeId, Port};

    /// Per-node resolution state while building one destination.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum RouteState {
        Unknown,
        Done { hops: u32, bypass: u32 },
        Failed,
    }

    const PORT_ERR: u8 = u8::MAX;
    const HOPS_ERR: u32 = u32::MAX;

    #[derive(Debug, Clone)]
    pub struct RouteTable {
        cfg: NocConfig,
        n: usize,
        ports: Vec<u8>,
        hops: Vec<u32>,
        bypass: Vec<u32>,
    }

    impl RouteTable {
        pub fn build(cfg: &NocConfig) -> Result<RouteTable, NocError> {
            cfg.validate()?;
            let n = cfg.k * cfg.k;
            let mut ports = Vec::with_capacity(n * n);
            for cur in 0..n {
                for dst in 0..n {
                    ports.push(match compute_route(cfg, cur, dst) {
                        Ok(p) => Port::ALL.iter().position(|q| *q == p).unwrap() as u8,
                        Err(_) => PORT_ERR,
                    });
                }
            }
            let mut hops = vec![HOPS_ERR; n * n];
            let mut bypass = vec![0u32; n * n];
            let mut state = vec![RouteState::Unknown; n];
            let mut stack: Vec<(NodeId, bool)> = Vec::with_capacity(n);
            let mut on_stack = vec![false; n];
            for dst in 0..n {
                state.iter_mut().for_each(|s| *s = RouteState::Unknown);
                state[dst] = RouteState::Done { hops: 0, bypass: 0 };
                for src in 0..n {
                    if state[src] == RouteState::Unknown {
                        stack.clear();
                        let mut cur = src;
                        let terminal = loop {
                            if state[cur] != RouteState::Unknown {
                                break state[cur];
                            }
                            if on_stack[cur] {
                                break RouteState::Failed;
                            }
                            let step =
                                Port::ALL
                                    .get(ports[cur * n + dst] as usize)
                                    .and_then(|&port| match next_node(cfg, cur, port) {
                                        Err(_) | Ok(None) => None,
                                        Ok(Some(next)) => Some((
                                            next,
                                            matches!(port, Port::BypassH | Port::BypassV),
                                        )),
                                    });
                            match step {
                                Some((next, byp)) => {
                                    on_stack[cur] = true;
                                    stack.push((cur, byp));
                                    cur = next;
                                }
                                None => {
                                    state[cur] = RouteState::Failed;
                                    break RouteState::Failed;
                                }
                            }
                        };
                        let mut acc = terminal;
                        for &(node, byp) in stack.iter().rev() {
                            on_stack[node] = false;
                            if let RouteState::Done { hops, bypass } = acc {
                                acc = RouteState::Done {
                                    hops: hops + 1,
                                    bypass: bypass + byp as u32,
                                };
                            }
                            state[node] = acc;
                        }
                    }
                    if let RouteState::Done { hops: h, bypass: b } = state[src] {
                        hops[src * n + dst] = h;
                        bypass[src * n + dst] = b;
                    }
                }
            }
            Ok(RouteTable {
                cfg: cfg.clone(),
                n,
                ports,
                hops,
                bypass,
            })
        }

        pub fn summary(&self, src: NodeId, dst: NodeId) -> Result<RouteSummary, NocError> {
            let i = src * self.n + dst;
            if self.hops[i] == HOPS_ERR {
                Err(walk(&self.cfg, src, dst).unwrap_err())
            } else {
                Ok(RouteSummary {
                    hops: self.hops[i],
                    bypass_hops: self.bypass[i],
                })
            }
        }

        /// The routers that forward a `src → dst` message, in route
        /// order (empty for unroutable pairs).
        pub fn load_nodes(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
            let h = self.hops[src * self.n + dst];
            let mut nodes = Vec::new();
            let mut cur = src;
            for _ in 0..if h == HOPS_ERR { 0 } else { h } {
                nodes.push(cur);
                let port = Port::ALL[self.ports[cur * self.n + dst] as usize];
                cur = next_node(&self.cfg, cur, port).unwrap().unwrap();
            }
            nodes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::RouteTable;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn xy_routes_x_first() {
        let cfg = NocConfig::mesh(4);
        // from (0,0) to (2,2): East first
        assert_eq!(compute_route(&cfg, 0, 10), Ok(Port::East));
        // from (2,0) to (2,2): x resolved, go South
        assert_eq!(compute_route(&cfg, 2, 10), Ok(Port::South));
        assert_eq!(compute_route(&cfg, 10, 10), Ok(Port::Local));
        // from (3,3) to (0,0)
        assert_eq!(compute_route(&cfg, 15, 0), Ok(Port::West));
    }

    #[test]
    fn mesh_hop_count_is_manhattan() {
        let cfg = NocConfig::mesh(5);
        for src in 0..25 {
            for dst in 0..25 {
                let c = Coord::of(src, 5);
                let d = Coord::of(dst, 5);
                assert_eq!(hop_count(&cfg, src, dst), Ok(c.manhattan(d)));
            }
        }
    }

    #[test]
    fn bypass_shortens_long_row_route() {
        let cfg = NocConfig::with_bypass(
            8,
            vec![BypassSegment {
                index: 0,
                from: 0,
                to: 7,
            }],
            vec![],
        );
        // (0,0) → (7,0): mesh = 7 hops, bypass = 1
        assert_eq!(compute_route(&cfg, 0, 7), Ok(Port::BypassH));
        assert_eq!(hop_count(&cfg, 0, 7), Ok(1));
        // (1,0) → (7,0): mesh from 1 is 6; via West to 0 then bypass would
        // be 2, but dimension-ordered greedy at node 1 only looks at its own
        // attachment — node 1 has none, so it walks East.
        assert_eq!(compute_route(&cfg, 1, 7), Ok(Port::East));
    }

    #[test]
    fn bypass_not_taken_when_worse() {
        let cfg = NocConfig::with_bypass(
            8,
            vec![BypassSegment {
                index: 0,
                from: 0,
                to: 7,
            }],
            vec![],
        );
        // (0,0) → (2,0): bypass to 7 is worse; mesh East.
        assert_eq!(compute_route(&cfg, 0, 2), Ok(Port::East));
    }

    #[test]
    fn vertical_bypass_used_after_x_resolved() {
        let cfg = NocConfig::with_bypass(
            8,
            vec![],
            vec![BypassSegment {
                index: 3,
                from: 0,
                to: 6,
            }],
        );
        // (3,0) → (3,7): V bypass 0→6 then one mesh hop
        assert_eq!(compute_route(&cfg, 3, 3 + 7 * 8), Ok(Port::BypassV));
        assert_eq!(hop_count(&cfg, 3, 3 + 7 * 8), Ok(2));
    }

    #[test]
    fn ring_wraps_and_switches_vc() {
        let cfg = NocConfig::rings(4);
        // (3,1) → (0,1): East over the wrap
        let cur = 4 + 3;
        assert_eq!(compute_route(&cfg, cur, 4), Ok(Port::East));
        assert_eq!(next_node(&cfg, cur, Port::East), Ok(Some(4)));
        assert_eq!(next_vc(&cfg, cur, Port::East, 0), 1, "dateline crossing");
        assert_eq!(next_vc(&cfg, 4, Port::East, 0), 0, "no dateline mid-row");
        // full circle is k−... from (1,1) to (0,1): 3 hops around
        assert_eq!(hop_count(&cfg, 5, 4), Ok(3));
    }

    #[test]
    fn ring_rejects_cross_row() {
        let cfg = NocConfig::rings(4);
        assert_eq!(
            compute_route(&cfg, 0, 5),
            Err(crate::NocError::CrossRowRingRoute { cur: 0, dst: 5 })
        );
    }

    #[test]
    fn walking_off_the_fabric_is_an_error_not_a_panic() {
        let cfg = NocConfig::mesh(4);
        // East off the right edge (node 3 = (3,0)).
        assert!(matches!(
            next_node(&cfg, 3, Port::East),
            Err(crate::NocError::OffMeshEdge { cur: 3, .. })
        ));
        // North off the top edge.
        assert!(matches!(
            next_node(&cfg, 1, Port::North),
            Err(crate::NocError::OffMeshEdge { cur: 1, .. })
        ));
        // West off the left edge.
        assert!(matches!(
            next_node(&cfg, 4, Port::West),
            Err(crate::NocError::OffMeshEdge { cur: 4, .. })
        ));
        // Bypass port at a node with no attachment.
        assert!(matches!(
            next_node(&cfg, 0, Port::BypassH),
            Err(crate::NocError::MissingBypassAttachment { cur: 0, .. })
        ));
    }

    #[test]
    fn ring_hop_counts_are_directed_distances() {
        // Regression: hop_count on rings must keep the
        // directed +x distance (b − a mod k) within a row and the
        // cross-row error outside it.
        let k = 4;
        let cfg = NocConfig::rings(k);
        for row in 0..k {
            for a in 0..k {
                for b in 0..k {
                    let src = row * k + a;
                    let dst = row * k + b;
                    assert_eq!(hop_count(&cfg, src, dst), Ok((b + k - a) % k));
                }
            }
        }
        assert_eq!(
            hop_count(&cfg, 0, 5),
            Err(NocError::CrossRowRingRoute { cur: 0, dst: 5 })
        );
    }

    /// The routers a route forwards through, read off its legs: the row
    /// leg's routers, then the column leg's.
    fn leg_load_nodes(legs: &RouteLegs, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let k = legs.config().k;
        let (s, d) = (Coord::of(src, k), Coord::of(dst, k));
        let mut nodes = Vec::new();
        let mut walk =
            |line: LineLegs, mut from: usize, to: usize, node: &dyn Fn(usize) -> NodeId| {
                while from != to {
                    nodes.push(node(from));
                    from = line.leg(from, to).expect("routable leg").next as usize;
                }
            };
        walk(legs.row(s.y), s.x, d.x, &|x| s.y * k + x);
        walk(legs.col(d.x), s.y, d.y, &|y| y * k + d.x);
        nodes
    }

    /// Asserts the legs of `cfg` answer every pair exactly like the dense
    /// oracle table and the hop-by-hop walker: summary or error, and the
    /// routers each message is forwarded by.
    fn assert_legs_match_oracle(cfg: &NocConfig) {
        let (legs, table) = match (RouteLegs::build(cfg), RouteTable::build(cfg)) {
            (Ok(l), Ok(t)) => (l, t),
            (l, t) => {
                assert_eq!(l.err(), t.err(), "{cfg:?}");
                return;
            }
        };
        let n = cfg.k * cfg.k;
        for src in 0..n {
            for dst in 0..n {
                let summary = legs.summary(src, dst);
                assert_eq!(summary, table.summary(src, dst), "{cfg:?} {src}->{dst}");
                assert_eq!(
                    summary.clone().map(|s| s.hops as usize),
                    walk(cfg, src, dst),
                    "{cfg:?} {src}->{dst}"
                );
                let nodes = table.load_nodes(src, dst);
                if summary.is_ok() {
                    assert_eq!(
                        leg_load_nodes(&legs, src, dst),
                        nodes,
                        "{cfg:?} {src}->{dst}"
                    );
                } else {
                    assert!(nodes.is_empty());
                }
            }
        }
    }

    /// Disjoint segments on the lines picked by `lines`, with wire taps at
    /// the set bits of each line's mask paired up in order — several
    /// segments per line, the way per-tile bypass plans fill a fabric.
    fn segments(k: usize, lines: u64, taps: &[u64]) -> Vec<BypassSegment> {
        let mut segs = Vec::new();
        for (index, mask) in taps.iter().enumerate().take(k) {
            if lines >> index & 1 == 0 {
                continue;
            }
            let set: Vec<usize> = (0..k).filter(|p| mask >> p & 1 == 1).collect();
            for pair in set.chunks_exact(2) {
                segs.push(BypassSegment {
                    index,
                    from: pair[0],
                    to: pair[1],
                });
            }
        }
        segs
    }

    #[test]
    fn legs_match_oracle_on_fixed_configs() {
        for cfg in [
            NocConfig::mesh(1),
            NocConfig::mesh(4),
            NocConfig::rings(4),
            NocConfig::with_bypass(
                8,
                vec![BypassSegment {
                    index: 0,
                    from: 0,
                    to: 7,
                }],
                vec![BypassSegment {
                    index: 5,
                    from: 1,
                    to: 6,
                }],
            ),
        ] {
            assert_legs_match_oracle(&cfg);
        }
        let mut bad = NocConfig::mesh(4);
        bad.vcs = 0;
        assert_eq!(
            RouteLegs::build(&bad).unwrap_err(),
            NocError::NoVirtualChannels
        );
    }

    #[test]
    fn plain_mesh_shares_one_row_and_one_column() {
        let lines = |legs: RouteLegs| legs.order_len.len() / legs.cfg.k;
        assert_eq!(lines(RouteLegs::build(&NocConfig::mesh(16)).unwrap()), 2);
        let one_row = NocConfig::with_bypass(
            16,
            vec![BypassSegment {
                index: 3,
                from: 2,
                to: 9,
            }],
            vec![],
        );
        assert_eq!(lines(RouteLegs::build(&one_row).unwrap()), 3);
    }

    #[test]
    fn walk_reports_the_failing_step() {
        // The error of an unroutable pair comes from replaying the walk,
        // shared by the legs and the oracle table.
        assert_eq!(
            walk(&NocConfig::rings(4), 1, 6),
            Err(NocError::CrossRowRingRoute { cur: 1, dst: 6 })
        );
        // a destination below the fabric walks South off the bottom edge
        assert_eq!(
            walk(&NocConfig::mesh(4), 0, 16),
            Err(NocError::OffMeshEdge {
                cur: 12,
                port: Port::South
            })
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn legs_match_route_table_oracle(
            k in 2usize..17,
            mode in 0u8..4,
            lines in (0u64..u64::MAX, 0u64..u64::MAX),
            row_taps in proptest::collection::vec(0u64..u64::MAX, 16),
            col_taps in proptest::collection::vec(0u64..u64::MAX, 16),
            raw in (0usize..20, 0usize..20, 0usize..20),
        ) {
            let cfg = match mode {
                0 => NocConfig::mesh(k),
                1 => NocConfig::rings(k),
                2 => NocConfig::with_bypass(
                    k,
                    segments(k, lines.0, &row_taps),
                    segments(k, lines.1, &col_taps),
                ),
                // an unchecked extra segment: overlaps, out-of-range and
                // backwards spans must fail both builds identically
                _ => {
                    let mut rows = segments(k, lines.0, &row_taps);
                    rows.push(BypassSegment { index: raw.0 % (k + 1), from: raw.1, to: raw.2 });
                    NocConfig::with_bypass(k, rows, segments(k, lines.1, &col_taps))
                }
            };
            assert_legs_match_oracle(&cfg);
        }
    }

    proptest! {
        #[test]
        fn routes_always_terminate_with_bypass(
            src in 0usize..64,
            dst in 0usize..64,
            row_to in 2usize..8,
            col_to in 2usize..8,
        ) {
            let cfg = NocConfig::with_bypass(
                8,
                vec![BypassSegment { index: 3, from: 0, to: row_to.min(7) }],
                vec![BypassSegment { index: 5, from: 1, to: col_to.min(7) }],
            );
            cfg.validate().unwrap();
            let h = hop_count(&cfg, src, dst).unwrap();
            let manhattan = Coord::of(src, 8).manhattan(Coord::of(dst, 8));
            prop_assert!(h <= manhattan, "bypass never lengthens a route");
        }
    }
}
