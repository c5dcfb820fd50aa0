//! Resolving selected routes into concrete paths and latencies.
//!
//! The route solver ([`crate::solve()`]) yields each AS's selected next hop;
//! this module turns a user group's selection into:
//!
//! * the full **AS path** to the cloud,
//! * the **ingress peering** where traffic enters (the cloud neighbor makes
//!   a hot-potato choice among its advertised sessions — it exits at the
//!   PoP closest to where the traffic entered its network),
//! * the path's **round-trip latency**: fiber distance through the link
//!   attachment metros, with each intra-AS segment multiplied by that AS's
//!   backbone inflation factor, plus a small per-hop processing cost.
//!
//! Path inflation — the phenomenon PAINTER fights — emerges here naturally:
//! an AS whose only interconnection with the next hop is far away, or whose
//! backbone is circuitous (inflation factor ≫ 1), drags the user's traffic
//! thousands of kilometers off the great-circle path.

use crate::solve::RouteTable;
use painter_geo::{metro, min_rtt_ms, GeoPoint, MetroId};
use painter_topology::{AsGraph, AsId, Deployment, PeeringId};

/// Per-AS-hop processing/queueing cost, in milliseconds of RTT.
pub const PER_HOP_RTT_MS: f64 = 0.3;

/// A fully resolved route from a user group to the cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedRoute {
    /// AS path from the UG's AS (inclusive) to the cloud neighbor
    /// (inclusive).
    pub path: Vec<AsId>,
    /// The peering where traffic enters the cloud.
    pub ingress: PeeringId,
    /// Round-trip propagation latency in milliseconds, *excluding* the
    /// UG's last-mile delay (that belongs to the UG, not the route).
    pub rtt_ms: f64,
}

/// Geography-aware path computations over a graph + deployment pair.
#[derive(Debug, Clone, Copy)]
pub struct PathModel<'a> {
    pub graph: &'a AsGraph,
    pub deployment: &'a Deployment,
}

impl<'a> PathModel<'a> {
    /// Creates a model over the given substrate.
    pub fn new(graph: &'a AsGraph, deployment: &'a Deployment) -> Self {
        PathModel { graph, deployment }
    }

    /// Resolves `src_as`'s selected route (from `table`) into a concrete
    /// path, ingress, and latency, for traffic originating at `src_metro`.
    ///
    /// `advertised` is the set of origin peerings of the prefix (the same
    /// set the table was solved for); the cloud neighbor hot-potato-picks
    /// its exit among its own advertised sessions. Returns `None` if the
    /// AS has no route.
    pub fn resolve(
        &self,
        table: &RouteTable,
        src_as: AsId,
        src_metro: MetroId,
    ) -> Option<ResolvedRoute> {
        let path = table.as_path(src_as)?;
        let neighbor = *path.last().expect("paths are non-empty");

        // Walk the interdomain hops accumulating fiber RTT.
        let mut rtt_ms = 0.0;
        let mut cursor: GeoPoint = metro(src_metro).point();
        for w in path.windows(2) {
            let (exit_metro, entry_metro) = self.graph.attachments(w[0], w[1]);
            // Intra-AS haul to the interconnection, inflated by w[0]'s
            // backbone quality.
            rtt_ms +=
                min_rtt_ms(&cursor, &metro(exit_metro).point()) * self.graph.node(w[0]).inflation;
            // The interconnection crossing: when the two networks only
            // meet far apart, the upstream (receiving) network hauls the
            // traffic — attribute the crossing to its backbone.
            rtt_ms += min_rtt_ms(&metro(exit_metro).point(), &metro(entry_metro).point())
                * self.graph.node(w[1]).inflation;
            cursor = metro(entry_metro).point();
        }

        // Hot-potato exit: among the neighbor's advertised sessions, enter
        // the cloud at the PoP closest to where traffic sits now.
        let mut best: Option<(f64, PeeringId)> = None;
        for &p in table.origins() {
            let peering = self.deployment.peering(p);
            if peering.neighbor != neighbor {
                continue;
            }
            let pop_point = metro(self.deployment.peering_metro(p)).point();
            let haul = min_rtt_ms(&cursor, &pop_point) * self.graph.node(neighbor).inflation;
            let better = match best {
                None => true,
                // Tie-break on peering id for determinism.
                Some((b, bp)) => haul < b || (haul == b && p < bp),
            };
            if better {
                best = Some((haul, p));
            }
        }
        let (final_haul, ingress) = best?;
        rtt_ms += final_haul + PER_HOP_RTT_MS * path.len() as f64;

        Some(ResolvedRoute { path, ingress, rtt_ms })
    }

    /// Computes the round-trip latency of an explicit AS path entering the
    /// cloud at `ingress`, for traffic originating at `src_metro`.
    ///
    /// For paths assembled hop by hop rather than from a solved table (the
    /// dynamic BGP engine accumulates the same sum while it walks). The
    /// path must list adjacent ASes ending at `ingress`'s neighbor.
    pub fn rtt_of_path(&self, path: &[AsId], ingress: PeeringId, src_metro: MetroId) -> f64 {
        debug_assert_eq!(Some(&self.deployment.peering(ingress).neighbor), path.last());
        let mut rtt = PathRtt::new(*self, src_metro);
        for w in path.windows(2) {
            rtt.hop(w[0], w[1]);
        }
        rtt.finish(ingress)
    }

    /// The speed-of-light lower bound from a metro to a peering's PoP.
    pub fn min_rtt_to_peering(&self, src_metro: MetroId, peering: PeeringId) -> f64 {
        min_rtt_ms(
            &metro(src_metro).point(),
            &metro(self.deployment.peering_metro(peering)).point(),
        )
    }
}

/// A path's round-trip latency accumulated hop by hop, for walkers that
/// discover the path as they go and never materialise it.
pub(crate) struct PathRtt<'a> {
    model: PathModel<'a>,
    rtt_ms: f64,
    cursor: GeoPoint,
    ases: usize,
}

impl<'a> PathRtt<'a> {
    /// Starts at `src_metro`, inside the path's first AS.
    pub(crate) fn new(model: PathModel<'a>, src_metro: MetroId) -> Self {
        PathRtt { model, rtt_ms: 0.0, cursor: metro(src_metro).point(), ases: 1 }
    }

    /// Crosses from `from` (where the traffic sits) into its neighbor `to`.
    pub(crate) fn hop(&mut self, from: AsId, to: AsId) {
        let graph = self.model.graph;
        let (exit_metro, entry_metro) = graph.attachments(from, to);
        self.rtt_ms +=
            min_rtt_ms(&self.cursor, &metro(exit_metro).point()) * graph.node(from).inflation;
        self.rtt_ms += min_rtt_ms(&metro(exit_metro).point(), &metro(entry_metro).point())
            * graph.node(to).inflation;
        self.cursor = metro(entry_metro).point();
        self.ases += 1;
    }

    /// Enters the cloud at `ingress`, a session of the AS the path ended in.
    pub(crate) fn finish(self, ingress: PeeringId) -> f64 {
        let PathModel { graph, deployment } = self.model;
        let pop_point = metro(deployment.peering_metro(ingress)).point();
        let neighbor = deployment.peering(ingress).neighbor;
        self.rtt_ms
            + min_rtt_ms(&self.cursor, &pop_point) * graph.node(neighbor).inflation
            + PER_HOP_RTT_MS * self.ases as f64
    }
}

/// Convenience wrapper: resolve a route with a one-off [`PathModel`].
pub fn resolve_route(
    graph: &AsGraph,
    deployment: &Deployment,
    table: &RouteTable,
    src_as: AsId,
    src_metro: MetroId,
) -> Option<ResolvedRoute> {
    PathModel::new(graph, deployment).resolve(table, src_as, src_metro)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve;
    use painter_geo::Region;
    use painter_topology::{AsTier, PeeringKind, Relationship};

    fn find_metro(name: &str) -> MetroId {
        painter_geo::metro::all_metro_ids().find(|&m| metro(m).name == name).unwrap()
    }

    /// A transcontinental scenario that must show inflation:
    ///
    /// * `direct` transit: presence NY; peers with cloud at the NY PoP.
    /// * `haul` transit: presence only in Amsterdam (plus NY access);
    ///   reaches the cloud at the Amsterdam PoP.
    ///
    /// A New York stub connected to both must see much lower latency via
    /// `direct`.
    fn scenario() -> (AsGraph, Deployment, AsId, AsId, AsId) {
        let ny = find_metro("New York");
        let ams = find_metro("Amsterdam");
        let mut g = AsGraph::new();
        let direct = g.add_node(AsTier::Transit, Region::NorthAmerica, vec![ny], 1.0);
        let haul = g.add_node(AsTier::Transit, Region::Europe, vec![ny, ams], 1.0);
        let stub = g.add_node(AsTier::Stub, Region::NorthAmerica, vec![ny], 1.0);
        g.add_link(direct, stub, Relationship::ProviderOf).unwrap();
        g.add_link(haul, stub, Relationship::ProviderOf).unwrap();
        let dep = Deployment::for_tests(
            vec![ny, ams],
            vec![
                (0, direct, PeeringKind::TransitProvider),
                (1, haul, PeeringKind::TransitProvider),
            ],
        );
        (g, dep, direct, haul, stub)
    }

    #[test]
    fn direct_path_has_near_zero_latency() {
        let (g, dep, _direct, _haul, stub) = scenario();
        let table = solve(&g, &dep, &[PeeringId(0)], 5);
        let ny = find_metro("New York");
        let r = resolve_route(&g, &dep, &table, stub, ny).unwrap();
        assert_eq!(r.ingress, PeeringId(0));
        assert_eq!(r.path.len(), 2);
        // Everything is in New York: only per-hop costs remain.
        assert!(r.rtt_ms < 2.0, "got {}", r.rtt_ms);
    }

    #[test]
    fn hauled_path_shows_transatlantic_inflation() {
        let (g, dep, _direct, _haul, stub) = scenario();
        let table = solve(&g, &dep, &[PeeringId(1)], 5);
        let ny = find_metro("New York");
        let r = resolve_route(&g, &dep, &table, stub, ny).unwrap();
        assert_eq!(r.ingress, PeeringId(1));
        // NY -> Amsterdam is ~5900 km, so RTT >= ~59 ms.
        assert!(r.rtt_ms > 55.0, "got {}", r.rtt_ms);
    }

    #[test]
    fn hot_potato_picks_nearest_pop() {
        // `haul` advertises at both NY and Amsterdam; a NY user must enter
        // at NY.
        let ny = find_metro("New York");
        let ams = find_metro("Amsterdam");
        let mut g = AsGraph::new();
        let haul = g.add_node(AsTier::Transit, Region::Europe, vec![ny, ams], 1.0);
        let stub = g.add_node(AsTier::Stub, Region::NorthAmerica, vec![ny], 1.0);
        g.add_link(haul, stub, Relationship::ProviderOf).unwrap();
        let dep = Deployment::for_tests(
            vec![ny, ams],
            vec![(0, haul, PeeringKind::TransitProvider), (1, haul, PeeringKind::TransitProvider)],
        );
        let table = solve(&g, &dep, &[PeeringId(0), PeeringId(1)], 5);
        let r = resolve_route(&g, &dep, &table, stub, ny).unwrap();
        assert_eq!(r.ingress, PeeringId(0), "should exit at the NY PoP");
        assert!(r.rtt_ms < 2.0, "got {}", r.rtt_ms);
    }

    #[test]
    fn inflation_factor_scales_intra_as_segments() {
        let ny = find_metro("New York");
        let la = find_metro("Los Angeles");
        let mk = |inflation: f64| {
            let mut g = AsGraph::new();
            let t = g.add_node(AsTier::Transit, Region::NorthAmerica, vec![la], inflation);
            let stub = g.add_node(AsTier::Stub, Region::NorthAmerica, vec![ny], 1.0);
            g.add_link(t, stub, Relationship::ProviderOf).unwrap();
            let dep = Deployment::for_tests(vec![la], vec![(0, t, PeeringKind::TransitProvider)]);
            let table = solve(&g, &dep, &[PeeringId(0)], 5);
            resolve_route(&g, &dep, &table, stub, ny).unwrap().rtt_ms
        };
        let base = mk(1.0);
        let doubled = mk(2.0);
        assert!(doubled > base * 1.2, "base {base}, doubled {doubled}");
    }

    #[test]
    fn unroutable_source_returns_none() {
        let (g, dep, _direct, haul, stub) = scenario();
        let table = solve(&g, &dep, &[], 5);
        let ny = find_metro("New York");
        assert!(resolve_route(&g, &dep, &table, stub, ny).is_none());
        assert!(resolve_route(&g, &dep, &table, haul, ny).is_none());
    }

    #[test]
    fn min_rtt_to_peering_is_a_lower_bound() {
        let (g, dep, ..) = scenario();
        let model = PathModel::new(&g, &dep);
        let ny = find_metro("New York");
        let lb = model.min_rtt_to_peering(ny, PeeringId(1));
        // NY -> Amsterdam lower bound ~58-60ms.
        assert!(lb > 50.0 && lb < 70.0, "got {lb}");
    }
}
