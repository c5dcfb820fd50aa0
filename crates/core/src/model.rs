//! The routing model: Eq. 2's expectation operator.
//!
//! §3.1: with a prefix advertised via several peerings, the orchestrator
//! does not know which ingress a UG will land on. It assumes all
//! policy-compliant ingresses are equally likely, *except*:
//!
//! * ingresses with a **learned lower preference** — if a past
//!   advertisement showed the UG picking ingress `w` while `l` was also
//!   advertised, `l` has zero likelihood whenever `w` is present;
//! * ingresses beyond the **reuse distance** — ones that would land the UG
//!   at a PoP more than `D_reuse` km farther than the closest PoP
//!   advertising the prefix (large inflation is rare, so such routes are
//!   assumed away — and mistakes are corrected by learning).
//!
//! The model then summarizes the surviving candidate set as a latency
//! range: best case (min), unweighted mean, inflation-probability-weighted
//! mean ("estimated" — far PoPs weighted down), and worst case (max).
//! These are exactly the Lower/Mean/Estimated/Upper series of Appendix
//! E.1.

use crate::inputs::OrchestratorInputs;
use painter_measure::UgId;
use painter_topology::PeeringId;
use std::collections::HashMap;

/// Distance scale (km) of the inflation-probability weighting used for the
/// "estimated" expectation: a candidate `Δ` km farther than the closest
/// advertised PoP gets weight `exp(-Δ/SCALE)`.
pub const INFLATION_WEIGHT_SCALE_KM: f64 = 1500.0;

/// Longest advertisement whose survivors [`RoutingModel::for_each_effective`]
/// keeps on the stack; longer ones spill to the heap.
pub(crate) const STACK_SURVIVORS: usize = 32;

/// Latency expectation over a candidate set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expectation {
    /// Best case: the UG lands on its lowest-latency candidate.
    pub min_ms: f64,
    /// Unweighted average over candidates.
    pub mean_ms: f64,
    /// Inflation-probability-weighted average (far PoPs less likely).
    pub estimated_ms: f64,
    /// Worst case.
    pub max_ms: f64,
}

/// What the loop has learned about one UG: a handful of entries, scanned.
#[derive(Debug, Clone, Default)]
pub struct UgFacts {
    /// `(winner, loser)`: whenever `winner` is advertised alongside
    /// `loser`, the UG will not use `loser`.
    dominates: Vec<(PeeringId, PeeringId)>,
    /// Ingresses a measurement loop has marked dark (advertised, yet
    /// sustainably no landing), until a landing clears the mark.
    dark: Vec<PeeringId>,
}

/// Learned routing knowledge plus the `D_reuse` hyperparameter.
///
/// ```
/// use painter_core::RoutingModel;
/// use painter_measure::UgId;
/// use painter_topology::PeeringId;
///
/// let mut model = RoutingModel::new(3000.0);
/// // Observation: UG 5 landed at ingress 2 while ingress 7 was also
/// // advertised — ingress 7 has zero likelihood whenever 2 is present.
/// model.learn_dominance(UgId(5), PeeringId(2), PeeringId(7));
/// assert!(model.knows_dominance(UgId(5), PeeringId(2), PeeringId(7)));
/// ```
#[derive(Debug, Clone)]
pub struct RoutingModel {
    /// Minimum reuse distance in kilometers (Algorithm 1's `D_reuse`).
    pub d_reuse_km: f64,
    /// Per-UG facts; a UG with nothing learned has no entry.
    facts: HashMap<UgId, UgFacts>,
    dominance_count: usize,
    unreachable_count: usize,
}

impl RoutingModel {
    /// A fresh model with no learned preferences.
    pub fn new(d_reuse_km: f64) -> Self {
        RoutingModel { d_reuse_km, facts: HashMap::new(), dominance_count: 0, unreachable_count: 0 }
    }

    /// What has been learned about `ug`; `None` if nothing.
    pub fn facts_of(&self, ug: UgId) -> Option<&UgFacts> {
        self.facts.get(&ug)
    }

    /// Marks an ingress dark for a UG: the loop advertised through it and
    /// sustainably observed no landings. Excluded by
    /// [`Self::effective_candidates`] until cleared.
    pub fn mark_unreachable(&mut self, ug: UgId, ingress: PeeringId) {
        let dark = &mut self.facts.entry(ug).or_default().dark;
        if !dark.contains(&ingress) {
            dark.push(ingress);
            self.unreachable_count += 1;
        }
    }

    /// Clears a dark mark (a landing through the ingress was observed).
    /// Returns true if a mark was present.
    pub fn clear_unreachable(&mut self, ug: UgId, ingress: PeeringId) -> bool {
        let Some(facts) = self.facts.get_mut(&ug) else { return false };
        let Some(i) = facts.dark.iter().position(|&p| p == ingress) else { return false };
        facts.dark.swap_remove(i);
        self.unreachable_count -= 1;
        if facts.dark.is_empty() && facts.dominates.is_empty() {
            self.facts.remove(&ug);
        }
        true
    }

    /// True if the ingress is currently marked dark for the UG.
    pub fn is_unreachable(&self, ug: UgId, ingress: PeeringId) -> bool {
        self.facts_of(ug).is_some_and(|f| f.dark.contains(&ingress))
    }

    /// Number of active dark marks.
    pub fn unreachable_count(&self) -> usize {
        self.unreachable_count
    }

    /// Records that `ug` picked `winner` while `loser` was advertised.
    /// Removes any previously learned inverse (routes change; the most
    /// recent observation wins), keeping the relation cycle-free for
    /// pairs.
    pub fn learn_dominance(&mut self, ug: UgId, winner: PeeringId, loser: PeeringId) {
        if winner == loser {
            return;
        }
        let dominates = &mut self.facts.entry(ug).or_default().dominates;
        if let Some(i) = dominates.iter().position(|&f| f == (loser, winner)) {
            dominates.swap_remove(i);
            self.dominance_count -= 1;
        }
        if !dominates.contains(&(winner, loser)) {
            dominates.push((winner, loser));
            self.dominance_count += 1;
        }
    }

    /// True if the model has learned that `winner` beats `loser` for `ug`.
    pub fn knows_dominance(&self, ug: UgId, winner: PeeringId, loser: PeeringId) -> bool {
        self.facts_of(ug).is_some_and(|f| f.dominates.contains(&(winner, loser)))
    }

    /// Number of learned dominance facts.
    pub fn dominance_count(&self) -> usize {
        self.dominance_count
    }

    /// "Which candidates can this UG land on", implemented once: calls
    /// `keep(i)`, `i` ascending, for every position of the UG's candidate
    /// `row` (ascending by `peering_of`) that survives a prefix advertised
    /// via `advertised` (strictly ascending) — intersect with the
    /// advertisement, drop dark ingresses, apply the `D_reuse` exclusion,
    /// then remove dominated ingresses, falling back to the
    /// distance-filtered set if dominance removed everything (a confused
    /// model must not claim the prefix is unusable). Each of the few
    /// advertised peerings is binary-searched into the long row:
    /// `O(|advertised| · log |row|)`.
    pub(crate) fn for_each_effective<T>(
        &self,
        facts: Option<&UgFacts>,
        advertised: &[PeeringId],
        row: &[T],
        peering_of: impl Fn(&T) -> PeeringId,
        km_to: impl Fn(PeeringId) -> f64,
        mut keep: impl FnMut(usize),
    ) {
        debug_assert!(
            advertised.windows(2).all(|w| w[0] < w[1]),
            "advertised must be strictly ascending: a duplicate would be counted twice"
        );
        // Closest advertised PoP (candidate or not — the UG *could* land
        // anywhere the prefix is advertised).
        let d_min = advertised.iter().map(|&p| km_to(p)).fold(f64::INFINITY, f64::min);
        let dark = facts.map_or(&[][..], |f| &f.dark);
        let in_reach = advertised.iter().filter_map(|&p| {
            let i = row.binary_search_by_key(&p, &peering_of).ok()?;
            (!dark.contains(&p) && km_to(p) - d_min <= self.d_reuse_km).then_some(i)
        });
        let Some(dominates) = facts.map(|f| &f.dominates[..]).filter(|d| !d.is_empty()) else {
            return in_reach.for_each(keep);
        };
        // Buffered, at most one row position per advertised peering; the
        // top bit marks a dominated one.
        const DOMINATED: u32 = 1 << 31;
        let (mut stack, mut heap) = ([0u32; STACK_SURVIVORS], Vec::new());
        let buf: &mut [u32] = if advertised.len() <= STACK_SURVIVORS {
            &mut stack
        } else {
            heap.resize(advertised.len(), 0);
            &mut heap
        };
        let mut n = 0;
        for i in in_reach {
            buf[n] = i as u32;
            n += 1;
        }
        let buf = &mut buf[..n];
        let mut undominated = n;
        // A lone survivor has nothing to lose to.
        for &(winner, loser) in if n > 1 { dominates } else { &[] } {
            let slot_of =
                |p| buf.iter().position(|&i| peering_of(&row[(i & !DOMINATED) as usize]) == p);
            if let (Some(l), Some(_)) = (slot_of(loser), slot_of(winner)) {
                if buf[l] & DOMINATED == 0 {
                    buf[l] |= DOMINATED;
                    undominated -= 1;
                }
            }
        }
        for &i in buf.iter() {
            if undominated == 0 || i & DOMINATED == 0 {
                keep((i & !DOMINATED) as usize);
            }
        }
    }

    /// The effective candidate set (peering, believed latency) for UG
    /// index `ug_idx` when a prefix is advertised via `advertised`
    /// (strictly ascending); see [`Self::for_each_effective`].
    pub fn effective_candidates(
        &self,
        inputs: &OrchestratorInputs,
        ug_idx: usize,
        advertised: &[PeeringId],
    ) -> Vec<(PeeringId, f64)> {
        let ug = &inputs.ugs[ug_idx];
        let km = &inputs.ug_pop_km[ug_idx];
        let mut out = Vec::new();
        self.for_each_effective(
            self.facts_of(ug.id),
            advertised,
            &ug.candidates,
            |c| c.0,
            |p| km[inputs.peering_pop[p.idx()]],
            |i| out.push(ug.candidates[i]),
        );
        out
    }

    /// Eq. 2's expectation for a UG and an advertised peering set, or
    /// `None` if the UG has no usable candidate ("we do not consider that
    /// prefix for a UG if it has no policy-compliant ingress for it").
    pub fn expected_latency(
        &self,
        inputs: &OrchestratorInputs,
        ug_idx: usize,
        advertised: &[PeeringId],
    ) -> Option<Expectation> {
        let cands = self.effective_candidates(inputs, ug_idx, advertised);
        if cands.is_empty() {
            return None;
        }
        let d_min = cands
            .iter()
            .map(|(p, _)| inputs.ug_pop_km[ug_idx][inputs.peering_pop[p.idx()]])
            .fold(f64::INFINITY, f64::min);
        let mut min_ms = f64::INFINITY;
        let mut max_ms = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut wsum = 0.0;
        let mut wtotal = 0.0;
        for (p, lat) in &cands {
            min_ms = min_ms.min(*lat);
            max_ms = max_ms.max(*lat);
            sum += lat;
            let extra = inputs.ug_pop_km[ug_idx][inputs.peering_pop[p.idx()]] - d_min;
            let w = (-extra / INFLATION_WEIGHT_SCALE_KM).exp();
            wsum += w * lat;
            wtotal += w;
        }
        Some(Expectation {
            min_ms,
            mean_ms: sum / cands.len() as f64,
            estimated_ms: wsum / wtotal,
            max_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::UgView;
    use painter_geo::MetroId;

    /// Builds inputs with one UG, three candidate peerings at three PoPs
    /// with controlled distances.
    fn inputs(distances_km: [f64; 3], latencies: [f64; 3]) -> OrchestratorInputs {
        OrchestratorInputs {
            ugs: vec![UgView {
                id: UgId(0),
                metro: MetroId(0),
                weight: 1.0,
                anycast_ms: 100.0,
                candidates: vec![
                    (PeeringId(0), latencies[0]),
                    (PeeringId(1), latencies[1]),
                    (PeeringId(2), latencies[2]),
                ],
            }],
            ug_pop_km: vec![distances_km.to_vec()],
            peering_pop: vec![0, 1, 2],
            peering_count: 3,
            capacities: None,
        }
    }

    fn all() -> Vec<PeeringId> {
        vec![PeeringId(0), PeeringId(1), PeeringId(2)]
    }

    #[test]
    fn expectation_over_equal_candidates() {
        let inp = inputs([100.0, 100.0, 100.0], [10.0, 20.0, 30.0]);
        let model = RoutingModel::new(3000.0);
        let e = model.expected_latency(&inp, 0, &all()).unwrap();
        assert_eq!(e.min_ms, 10.0);
        assert_eq!(e.max_ms, 30.0);
        assert!((e.mean_ms - 20.0).abs() < 1e-9);
        // Equal distances: estimated == mean.
        assert!((e.estimated_ms - 20.0).abs() < 1e-9);
    }

    #[test]
    fn d_reuse_excludes_far_pops() {
        // PoP 2 is 9,700 km farther than the closest — excluded at
        // D_reuse = 3,000 (the paper's Eastern-US/Tokyo example).
        let inp = inputs([1500.0, 2000.0, 11200.0], [10.0, 20.0, 5.0]);
        let model = RoutingModel::new(3000.0);
        let cands = model.effective_candidates(&inp, 0, &all());
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().all(|(p, _)| *p != PeeringId(2)));
        // With a huge D_reuse it comes back.
        let loose = RoutingModel::new(20_000.0);
        assert_eq!(loose.effective_candidates(&inp, 0, &all()).len(), 3);
    }

    #[test]
    fn d_min_uses_all_advertised_pops_not_just_candidates() {
        // The UG cannot ingress at PoP 0 (not a candidate), but the prefix
        // being advertised there still anchors the distance filter.
        let mut inp = inputs([100.0, 200.0, 8000.0], [10.0, 20.0, 5.0]);
        inp.ugs[0].candidates.remove(0); // drop peering 0 as candidate
        let model = RoutingModel::new(3000.0);
        let cands = model.effective_candidates(&inp, 0, &all());
        // d_min = 100 (PoP 0, advertised); peering 2 at 8000 km excluded.
        assert_eq!(cands, vec![(PeeringId(1), 20.0)]);
    }

    #[test]
    fn dominance_zeroes_out_losers() {
        let inp = inputs([100.0, 100.0, 100.0], [10.0, 20.0, 30.0]);
        let mut model = RoutingModel::new(3000.0);
        model.learn_dominance(UgId(0), PeeringId(2), PeeringId(0));
        let cands = model.effective_candidates(&inp, 0, &all());
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().all(|(p, _)| *p != PeeringId(0)));
        // Dominance only applies when the winner is advertised.
        let without_winner = vec![PeeringId(0), PeeringId(1)];
        let cands = model.effective_candidates(&inp, 0, &without_winner);
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn inverse_dominance_replaces() {
        let mut model = RoutingModel::new(3000.0);
        model.learn_dominance(UgId(0), PeeringId(1), PeeringId(2));
        model.learn_dominance(UgId(0), PeeringId(2), PeeringId(1));
        assert!(model.knows_dominance(UgId(0), PeeringId(2), PeeringId(1)));
        assert!(!model.knows_dominance(UgId(0), PeeringId(1), PeeringId(2)));
        assert_eq!(model.dominance_count(), 1);
    }

    #[test]
    fn fact_index_matches_a_hash_set_oracle() {
        // Small id ranges, so inverse re-learning, duplicate marks and
        // clearing a UG's last fact all happen thousands of times.
        use std::collections::HashSet;
        let (n_ugs, n_pe) = (8u64, 5u64);
        let mut model = RoutingModel::new(3000.0);
        // The old representation: `(ug, winner, loser)` and `(ug, ingress)`.
        let (mut dominates, mut dark) = (HashSet::new(), HashSet::new());
        for k in 0..10_000u64 {
            let h = crate::h64(&[k]);
            let ug = UgId((h % n_ugs) as u32);
            let pe = |shift: u32| PeeringId(((h >> shift) % n_pe) as u32);
            let (a, b) = (pe(8), pe(16));
            match (h >> 32) % 10 {
                0..=5 => {
                    model.learn_dominance(ug, a, b);
                    if a != b {
                        dominates.remove(&(ug, b, a));
                        dominates.insert((ug, a, b));
                    }
                }
                6..=7 => {
                    model.mark_unreachable(ug, a);
                    dark.insert((ug, a));
                }
                _ => assert_eq!(model.clear_unreachable(ug, a), dark.remove(&(ug, a)), "op {k}"),
            }
            assert_eq!(model.dominance_count(), dominates.len(), "op {k}");
            assert_eq!(model.unreachable_count(), dark.len(), "op {k}");
            for ug in (0..n_ugs as u32).map(UgId) {
                let mut any = false;
                for w in (0..n_pe as u32).map(PeeringId) {
                    any |= dark.contains(&(ug, w));
                    assert_eq!(model.is_unreachable(ug, w), dark.contains(&(ug, w)), "op {k}");
                    for l in (0..n_pe as u32).map(PeeringId) {
                        any |= dominates.contains(&(ug, w, l));
                        assert_eq!(
                            model.knows_dominance(ug, w, l),
                            dominates.contains(&(ug, w, l)),
                            "op {k}: {ug:?} {w:?} > {l:?}"
                        );
                    }
                }
                // `core.greedy_fact_ugs` counts entries: none may be empty.
                assert_eq!(model.facts_of(ug).is_some(), any, "op {k}: {ug:?}");
            }
        }
        assert!(model.dominance_count() > 0 && model.unreachable_count() > 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "advertised must be strictly ascending")]
    fn duplicated_advertisement_is_rejected() {
        // The advertisement-major walk would count peering 1 twice.
        let inp = inputs([100.0, 100.0, 100.0], [10.0, 20.0, 30.0]);
        RoutingModel::new(3000.0).effective_candidates(&inp, 0, &[PeeringId(1), PeeringId(1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "advertised must be strictly ascending")]
    fn unsorted_advertisement_is_rejected() {
        let inp = inputs([100.0, 100.0, 100.0], [10.0, 20.0, 30.0]);
        RoutingModel::new(3000.0).effective_candidates(&inp, 0, &[PeeringId(2), PeeringId(0)]);
    }

    #[test]
    fn estimated_weights_downweight_far_pops() {
        // Far PoP has terrible latency; estimated should sit below mean.
        let inp = inputs([100.0, 100.0, 2600.0], [10.0, 20.0, 90.0]);
        let model = RoutingModel::new(5000.0);
        let e = model.expected_latency(&inp, 0, &all()).unwrap();
        assert!(e.estimated_ms < e.mean_ms, "{e:?}");
        assert!(e.estimated_ms > e.min_ms);
    }

    #[test]
    fn empty_intersection_returns_none() {
        let inp = inputs([100.0, 100.0, 100.0], [10.0, 20.0, 30.0]);
        let model = RoutingModel::new(3000.0);
        assert!(model.expected_latency(&inp, 0, &[]).is_none());
        // Advertised somewhere the UG has no candidacy: peering 5 doesn't
        // exist in the UG's candidate list.
        // (Using an id < peering_count to keep geometry valid.)
        let mut inp2 = inp.clone();
        inp2.ugs[0].candidates.clear();
        assert!(model.expected_latency(&inp2, 0, &all()).is_none());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Expectation components are always ordered and bounded by
            /// the candidate latencies, for arbitrary candidate sets.
            #[test]
            fn expectation_is_bounded_and_ordered(
                latencies in proptest::collection::vec(1.0..500.0f64, 1..10),
                distances in proptest::collection::vec(0.0..15000.0f64, 10),
                d_reuse in 100.0..20000.0f64,
            ) {
                let n = latencies.len();
                let candidates: Vec<(PeeringId, f64)> = latencies
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| (PeeringId(i as u32), l))
                    .collect();
                let inputs = OrchestratorInputs {
                    ugs: vec![crate::inputs::UgView {
                        id: UgId(0),
                        metro: painter_geo::MetroId(0),
                        weight: 1.0,
                        anycast_ms: 100.0,
                        candidates,
                    }],
                    ug_pop_km: vec![distances[..n].to_vec()],
                    peering_pop: (0..n).collect(),
                    peering_count: n,
                    capacities: None,
                };
                let advertised: Vec<PeeringId> =
                    (0..n as u32).map(PeeringId).collect();
                let model = RoutingModel::new(d_reuse);
                if let Some(e) = model.expected_latency(&inputs, 0, &advertised) {
                    let min = latencies.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = latencies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    prop_assert!(e.min_ms >= min - 1e-9);
                    prop_assert!(e.max_ms <= max + 1e-9);
                    prop_assert!(e.min_ms <= e.mean_ms + 1e-9);
                    prop_assert!(e.mean_ms <= e.max_ms + 1e-9);
                    prop_assert!(e.min_ms <= e.estimated_ms + 1e-9);
                    prop_assert!(e.estimated_ms <= e.max_ms + 1e-9);
                }
            }

            /// Learned dominance never makes the effective set empty.
            #[test]
            fn dominance_preserves_nonempty_sets(
                pairs in proptest::collection::vec((0u32..6, 0u32..6), 0..40),
            ) {
                let n = 6usize;
                let candidates: Vec<(PeeringId, f64)> =
                    (0..n as u32).map(|i| (PeeringId(i), 10.0 + i as f64)).collect();
                let inputs = OrchestratorInputs {
                    ugs: vec![crate::inputs::UgView {
                        id: UgId(0),
                        metro: painter_geo::MetroId(0),
                        weight: 1.0,
                        anycast_ms: 100.0,
                        candidates,
                    }],
                    ug_pop_km: vec![vec![100.0; n]],
                    peering_pop: (0..n).collect(),
                    peering_count: n,
                    capacities: None,
                };
                let mut model = RoutingModel::new(3000.0);
                for (w, l) in pairs {
                    model.learn_dominance(UgId(0), PeeringId(w), PeeringId(l));
                }
                let advertised: Vec<PeeringId> = (0..n as u32).map(PeeringId).collect();
                let cands = model.effective_candidates(&inputs, 0, &advertised);
                prop_assert!(!cands.is_empty());
            }
        }
    }

    #[test]
    fn dominance_wipeout_falls_back_to_distance_filter() {
        // A 3-cycle of learned dominance would empty the set; the model
        // must fall back rather than declare the prefix unusable.
        let inp = inputs([100.0, 100.0, 100.0], [10.0, 20.0, 30.0]);
        let mut model = RoutingModel::new(3000.0);
        model.learn_dominance(UgId(0), PeeringId(0), PeeringId(1));
        model.learn_dominance(UgId(0), PeeringId(1), PeeringId(2));
        model.learn_dominance(UgId(0), PeeringId(2), PeeringId(0));
        let cands = model.effective_candidates(&inp, 0, &all());
        assert_eq!(cands.len(), 3, "fallback must keep the set non-empty");
    }
}
