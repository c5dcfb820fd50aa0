//! Flat SoA/arena layout for the UG×peering benefit tables.
//!
//! The greedy's hot loop scores `Σ_pe |UGs(pe)|` candidate deltas per
//! prefix. At paper scale (10^5–10^6 UGs, 10^3–10^4 peerings) the nested
//! `Vec<Vec<..>>` layouts the orchestrator inputs arrive in — per-UG
//! candidate vectors, per-UG distance rows, per-peering incidence lists —
//! cost a pointer chase and a cache miss per step. [`BenefitArena`]
//! repacks them once into flat, contiguous arrays:
//!
//! * **candidate CSR**: `cand_off`/`cand_pe`/`cand_ms` — every UG's
//!   candidate (peering, believed ms) pairs, concatenated in UG order,
//!   each row sorted by peering id (the same order
//!   [`crate::inputs::UgView::candidates`] keeps);
//! * **incidence CSR**: `pe_off`/`pe_ug` — the reverse mapping, every
//!   peering's UG indices ascending (what the old code rebuilt as
//!   `by_peering: Vec<Vec<usize>>` on every greedy call);
//! * **flat geometry**: `ug_pop_km` as one `n_ugs × n_pops` row-major
//!   slab, plus per-UG scalars (`weight`, `anycast_ms`) split out of
//!   [`crate::inputs::UgView`] so scoring never touches the AoS structs.
//!
//! The arena is a read-only *view* optimized for scoring, built per plan
//! and dropped with it — [`OrchestratorInputs`] remains the source of
//! truth and the only mutation surface. Scoring through the arena is
//! **bit-identical** to scoring through
//! [`RoutingModel::expected_latency`] because both call the same filter
//! routine (`RoutingModel::for_each_effective`) and sum its survivors in
//! the order it yields them (see `mean_matches_model_path` in the tests).

use crate::inputs::OrchestratorInputs;
use crate::model::{RoutingModel, UgFacts};
use painter_measure::UgId;
use painter_topology::PeeringId;

/// Flat scoring tables (see module docs).
#[derive(Debug, Clone)]
pub struct BenefitArena {
    n_ugs: usize,
    n_peerings: usize,
    n_pops: usize,
    /// Candidate CSR offsets: UG `u`'s candidates live at
    /// `cand_off[u]..cand_off[u+1]` in `cand_pe`/`cand_ms`.
    cand_off: Vec<u32>,
    /// Candidate peering ids, per-row ascending.
    cand_pe: Vec<u32>,
    /// Believed latency through the matching `cand_pe` entry.
    cand_ms: Vec<f64>,
    /// Incidence CSR offsets: peering `pe`'s UG indices live at
    /// `pe_off[pe]..pe_off[pe+1]` in `pe_ug`.
    pe_off: Vec<u32>,
    /// UG indices per peering, ascending.
    pe_ug: Vec<u32>,
    /// Row-major `n_ugs × n_pops` UG→PoP distances (km).
    ug_pop_km: Vec<f64>,
    /// Each peering's PoP index.
    peering_pop: Vec<u32>,
    /// Per-UG traffic weight.
    weight: Vec<f64>,
    /// Per-UG anycast latency.
    anycast_ms: Vec<f64>,
    /// Per-UG external id (dominance/unreachable facts key on it).
    ug_id: Vec<UgId>,
}

impl BenefitArena {
    /// Packs `inputs` into flat tables. `O(candidacies + n_ugs × n_pops)`,
    /// no scoring.
    ///
    /// # Panics
    ///
    /// If the geometry is ragged — `ug_pop_km` not one row per UG, rows of
    /// unequal length, `peering_pop` not one entry per peering or naming a
    /// PoP outside the rows. The flat slab is indexed `u * n_pops + pop`,
    /// so one short row would silently shift every later UG's distances.
    pub fn from_inputs(inputs: &OrchestratorInputs) -> Self {
        let n_ugs = inputs.ugs.len();
        let n_peerings = inputs.peering_count;
        let n_pops = inputs.ug_pop_km.first().map(|r| r.len()).unwrap_or(0);
        assert_eq!(inputs.ug_pop_km.len(), n_ugs, "ug_pop_km must hold one distance row per UG");
        assert_eq!(
            inputs.peering_pop.len(),
            n_peerings,
            "peering_pop must hold one PoP per peering slot"
        );
        // An empty world has no rows to learn the PoP count from, and no
        // distance is ever read in it.
        if n_ugs > 0 {
            for (pe, &pop) in inputs.peering_pop.iter().enumerate() {
                assert!(
                    pop < n_pops,
                    "peering {pe} sits at PoP {pop}, but the distance rows cover {n_pops} PoPs"
                );
            }
        }
        let total: usize = inputs.ugs.iter().map(|u| u.candidates.len()).sum();
        let mut cand_off = Vec::with_capacity(n_ugs + 1);
        let mut cand_pe = Vec::with_capacity(total);
        let mut cand_ms = Vec::with_capacity(total);
        let mut counts = vec![0u32; n_peerings];
        cand_off.push(0u32);
        for ug in &inputs.ugs {
            for &(p, ms) in &ug.candidates {
                cand_pe.push(p.0);
                cand_ms.push(ms);
                counts[p.idx()] += 1;
            }
            cand_off.push(cand_pe.len() as u32);
        }
        // Incidence CSR by counting sort: UG rows are visited in ascending
        // order, so each peering's UG list comes out ascending.
        let mut pe_off = Vec::with_capacity(n_peerings + 1);
        pe_off.push(0u32);
        for pe in 0..n_peerings {
            pe_off.push(pe_off[pe] + counts[pe]);
        }
        let mut cursor: Vec<u32> = pe_off[..n_peerings].to_vec();
        let mut pe_ug = vec![0u32; total];
        for (u, ug) in inputs.ugs.iter().enumerate() {
            for &(p, _) in &ug.candidates {
                pe_ug[cursor[p.idx()] as usize] = u as u32;
                cursor[p.idx()] += 1;
            }
        }
        let mut ug_pop_km = Vec::with_capacity(n_ugs * n_pops);
        for (u, row) in inputs.ug_pop_km.iter().enumerate() {
            assert_eq!(
                row.len(),
                n_pops,
                "UG index {u} ({:?}) has a ragged PoP-distance row",
                inputs.ugs[u].id
            );
            ug_pop_km.extend_from_slice(row);
        }
        BenefitArena {
            n_ugs,
            n_peerings,
            n_pops,
            cand_off,
            cand_pe,
            cand_ms,
            pe_off,
            pe_ug,
            ug_pop_km,
            peering_pop: inputs.peering_pop.iter().map(|&p| p as u32).collect(),
            weight: inputs.ugs.iter().map(|u| u.weight).collect(),
            anycast_ms: inputs.ugs.iter().map(|u| u.anycast_ms).collect(),
            ug_id: inputs.ugs.iter().map(|u| u.id).collect(),
        }
    }

    /// Number of UGs.
    pub fn n_ugs(&self) -> usize {
        self.n_ugs
    }

    /// Number of peerings.
    pub fn n_peerings(&self) -> usize {
        self.n_peerings
    }

    /// Total candidate (UG, peering) pairs.
    pub fn candidacy_count(&self) -> usize {
        self.cand_pe.len()
    }

    /// UG indices having `pe` as a candidate, ascending.
    pub fn ugs_of(&self, pe: usize) -> &[u32] {
        &self.pe_ug[self.pe_off[pe] as usize..self.pe_off[pe + 1] as usize]
    }

    /// UG `u`'s candidate peering ids (ascending) and latencies.
    pub fn candidates_of(&self, u: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.cand_off[u] as usize, self.cand_off[u + 1] as usize);
        (&self.cand_pe[s..e], &self.cand_ms[s..e])
    }

    /// Traffic weight of UG `u`.
    pub fn weight(&self, u: usize) -> f64 {
        self.weight[u]
    }

    /// Anycast latency of UG `u`.
    pub fn anycast_ms(&self, u: usize) -> f64 {
        self.anycast_ms[u]
    }

    /// True if `pe` is a candidate of UG `u`.
    pub fn has_candidate(&self, u: usize, pe: PeeringId) -> bool {
        self.candidates_of(u).0.binary_search(&pe.0).is_ok()
    }

    /// Distance (km) from UG `u` to the PoP of peering `pe`.
    #[inline]
    pub fn km_to_peering(&self, u: usize, pe: usize) -> f64 {
        self.ug_pop_km[u * self.n_pops + self.peering_pop[pe] as usize]
    }

    /// The model's per-UG facts resolved into a table addressed by arena
    /// UG index — one hash lookup per UG per greedy run, none per score.
    /// Empty if nothing has been learned: a cold plan should not stream
    /// `n_ugs` `None`s through the cache (+10 % on `plan-cold-100k`).
    pub fn resolve_facts<'m>(&self, model: &'m RoutingModel) -> Vec<Option<&'m UgFacts>> {
        if model.dominance_count() + model.unreachable_count() == 0 {
            return Vec::new();
        }
        self.ug_id.iter().map(|&id| model.facts_of(id)).collect()
    }

    /// Mean expected latency of UG `u` when a prefix is advertised via
    /// `advertised` (strictly ascending), or `f64::INFINITY` if no
    /// candidate survives — [`RoutingModel::expected_latency`]`(..).map(|e|
    /// e.mean_ms)` with `None` mapped to infinity, computed without
    /// allocating. `facts` is `model`'s [`Self::resolve_facts`] table. Both
    /// run the model's one filter routine, which yields survivors in
    /// ascending peering order, so both add the same floats in the same
    /// order: the result is bit-identical.
    #[inline]
    pub fn mean_latency(
        &self,
        model: &RoutingModel,
        facts: &[Option<&UgFacts>],
        u: usize,
        advertised: &[PeeringId],
    ) -> f64 {
        let (pes, mss) = self.candidates_of(u);
        let (mut sum, mut n) = (0.0, 0usize);
        model.for_each_effective(
            facts.get(u).copied().flatten(),
            advertised,
            pes,
            |&pe| PeeringId(pe),
            |p| self.km_to_peering(u, p.idx()),
            |i| {
                sum += mss[i];
                n += 1;
            },
        );
        if n == 0 {
            f64::INFINITY
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::h64;
    use crate::inputs::UgView;
    use painter_geo::MetroId;

    fn inputs() -> OrchestratorInputs {
        OrchestratorInputs {
            ugs: vec![
                UgView {
                    id: UgId(0),
                    metro: MetroId(0),
                    weight: 2.0,
                    anycast_ms: 90.0,
                    candidates: vec![(PeeringId(0), 30.0), (PeeringId(2), 55.0)],
                },
                UgView {
                    id: UgId(1),
                    metro: MetroId(1),
                    weight: 1.0,
                    anycast_ms: 70.0,
                    candidates: vec![(PeeringId(1), 25.0), (PeeringId(2), 40.0)],
                },
                UgView {
                    id: UgId(2),
                    metro: MetroId(2),
                    weight: 3.0,
                    anycast_ms: 60.0,
                    candidates: vec![],
                },
            ],
            ug_pop_km: vec![
                vec![100.0, 7000.0, 400.0],
                vec![5000.0, 150.0, 600.0],
                vec![9000.0, 9000.0, 9000.0],
            ],
            peering_pop: vec![0, 1, 2],
            peering_count: 3,
            capacities: None,
        }
    }

    #[test]
    fn csr_layout_round_trips() {
        let arena = BenefitArena::from_inputs(&inputs());
        assert_eq!(arena.n_ugs(), 3);
        assert_eq!(arena.n_peerings(), 3);
        assert_eq!(arena.candidacy_count(), 4);
        assert_eq!(arena.candidates_of(0), (&[0u32, 2][..], &[30.0, 55.0][..]));
        assert_eq!(arena.candidates_of(2), (&[][..], &[][..]));
        assert_eq!(arena.ugs_of(0), &[0]);
        assert_eq!(arena.ugs_of(1), &[1]);
        assert_eq!(arena.ugs_of(2), &[0, 1]);
        assert_eq!(arena.weight(2), 3.0);
        assert_eq!(arena.anycast_ms(1), 70.0);
    }

    #[test]
    #[should_panic(expected = "UG index 1 (UgId(1)) has a ragged PoP-distance row")]
    fn short_distance_row_is_rejected() {
        // In release this used to shift UG 2's distances one slot left.
        let mut inp = inputs();
        inp.ug_pop_km[1].pop();
        BenefitArena::from_inputs(&inp);
    }

    #[test]
    #[should_panic(expected = "one distance row per UG")]
    fn missing_distance_row_is_rejected() {
        let mut inp = inputs();
        inp.ug_pop_km.pop();
        BenefitArena::from_inputs(&inp);
    }

    #[test]
    #[should_panic(expected = "one PoP per peering slot")]
    fn missing_peering_pop_is_rejected() {
        let mut inp = inputs();
        inp.peering_pop.pop();
        BenefitArena::from_inputs(&inp);
    }

    #[test]
    #[should_panic(expected = "peering 2 sits at PoP 3, but the distance rows cover 3 PoPs")]
    fn out_of_range_peering_pop_is_rejected() {
        let mut inp = inputs();
        inp.peering_pop[2] = 3;
        BenefitArena::from_inputs(&inp);
    }

    #[test]
    fn anchor_accessors_read_the_flat_tables() {
        let arena = BenefitArena::from_inputs(&inputs());
        assert_eq!(arena.km_to_peering(1, 0), 5000.0);
        assert_eq!(arena.km_to_peering(0, 2), 400.0);
        assert!(arena.has_candidate(0, PeeringId(2)));
        assert!(!arena.has_candidate(0, PeeringId(1)));
        assert!(!arena.has_candidate(2, PeeringId(0)));
    }

    /// The filter as it read before the advertisement-major walk:
    /// row-major, asking the model one fact at a time.
    fn row_major_mean(
        inp: &OrchestratorInputs,
        model: &RoutingModel,
        u: usize,
        set: &[PeeringId],
    ) -> f64 {
        let ug = &inp.ugs[u];
        let km = |p: PeeringId| inp.ug_pop_km[u][inp.peering_pop[p.idx()]];
        let d_min = set.iter().map(|&p| km(p)).fold(f64::INFINITY, f64::min);
        let in_reach: Vec<(PeeringId, f64)> = ug
            .candidates
            .iter()
            .copied()
            .filter(|(p, _)| set.contains(p) && !model.is_unreachable(ug.id, *p))
            .filter(|(p, _)| km(*p) - d_min <= model.d_reuse_km)
            .collect();
        let undominated: Vec<(PeeringId, f64)> = in_reach
            .iter()
            .copied()
            .filter(|(l, _)| !in_reach.iter().any(|(w, _)| model.knows_dominance(ug.id, *w, *l)))
            .collect();
        let cands = if undominated.is_empty() { &in_reach } else { &undominated };
        if cands.is_empty() {
            return f64::INFINITY;
        }
        cands.iter().fold(0.0, |sum, (_, ms)| sum + ms) / cands.len() as f64
    }

    #[test]
    fn mean_matches_model_path() {
        // Hash-built sweep: 240 UGs x 40 peerings at 12 PoPs, rows of ~24
        // candidates (every 40th UG has none), ids that are not indices.
        let (n_ugs, n_pe, n_pops) = (240usize, 40usize, 12usize);
        let id_of = |u: usize| UgId(1000 + 3 * u as u32);
        // UG 1 sits 100 km from everywhere, so all of a set is in reach.
        let flat = 1usize;
        let candidates = |u: usize| -> Vec<(PeeringId, f64)> {
            (0..n_pe as u64)
                .filter(|&p| !u.is_multiple_of(40) && (u == flat || h64(&[1, u as u64, p]) % 5 < 3))
                .map(|p| (PeeringId(p as u32), 5.0 + (h64(&[2, u as u64, p]) % 950) as f64 / 10.0))
                .collect()
        };
        let hashed_km = |u: usize, pop: u64| (h64(&[3, u as u64, pop]) % 9000) as f64;
        let km = |u: usize, pop: u64| if u == flat { 100.0 } else { hashed_km(u, pop) };
        let inp = OrchestratorInputs {
            ugs: (0..n_ugs)
                .map(|u| UgView {
                    id: id_of(u),
                    metro: MetroId(0),
                    weight: 1.0,
                    anycast_ms: 100.0,
                    candidates: candidates(u),
                })
                .collect(),
            ug_pop_km: (0..n_ugs).map(|u| (0..n_pops as u64).map(|p| km(u, p)).collect()).collect(),
            peering_pop: (0..n_pe as u64)
                .map(|p| (h64(&[4, p]) % n_pops as u64) as usize)
                .collect(),
            peering_count: n_pe,
            capacities: None,
        };
        let arena = BenefitArena::from_inputs(&inp);
        // Advertisements of 0..=40 peerings, candidates or not; the full one
        // outgrows the stack buffer.
        let cycle = [PeeringId(3), PeeringId(17), PeeringId(29)];
        let mut sets: Vec<Vec<PeeringId>> = vec![vec![], vec![PeeringId(5)], cycle.to_vec()];
        for k in 0..40u64 {
            let want = 1 + h64(&[5, k]) % n_pe as u64;
            sets.push(
                (0..n_pe as u64)
                    .filter(|&p| k == 0 || h64(&[6, k, p]) % (n_pe as u64) < want)
                    .map(|p| PeeringId(p as u32))
                    .collect(),
            );
        }
        assert!(sets.iter().any(|s| s.len() > crate::model::STACK_SURVIVORS));
        let check = |model: &RoutingModel| {
            let facts = arena.resolve_facts(model);
            for u in 0..n_ugs {
                for set in &sets {
                    let got = arena.mean_latency(model, &facts, u, set);
                    let want =
                        model.expected_latency(&inp, u, set).map_or(f64::INFINITY, |e| e.mean_ms);
                    assert!(want.to_bits() == got.to_bits(), "u={u} {set:?}: {want} vs {got}");
                    let old = row_major_mean(&inp, model, u, set);
                    assert!(old.to_bits() == got.to_bits(), "u={u} {set:?}: {old} vs {got}");
                }
            }
        };
        let bare = RoutingModel::new(3000.0);
        check(&bare);
        // Facts land on two UGs in three; every third stays fact-free.
        let mut model = bare.clone();
        for k in 0..3000u64 {
            let h = h64(&[7, k]);
            let u = (h % n_ugs as u64) as usize;
            if u.is_multiple_of(3) || u == flat {
                continue;
            }
            let pe = |shift: u32| PeeringId(((h >> shift) % n_pe as u64) as u32);
            match k % 5 {
                0 => model.mark_unreachable(id_of(u), pe(8)),
                // Routes change: the inverse of a fact replaces it.
                1 => {
                    model.learn_dominance(id_of(u), pe(16), pe(8));
                    model.learn_dominance(id_of(u), pe(8), pe(16));
                    assert!(!model.knows_dominance(id_of(u), pe(16), pe(8)));
                }
                _ => model.learn_dominance(id_of(u), pe(8), pe(16)),
            }
        }
        assert!(model.dominance_count() > 1000, "{}", model.dominance_count());
        assert!(model.unreachable_count() > 300, "{}", model.unreachable_count());
        model.mark_unreachable(id_of(2), PeeringId(0));
        assert!(model.clear_unreachable(id_of(2), PeeringId(0)));
        // A 3-cycle removes all of `cycle`: the in-reach set comes back.
        model.learn_dominance(id_of(flat), cycle[0], cycle[1]);
        model.learn_dominance(id_of(flat), cycle[1], cycle[2]);
        model.learn_dominance(id_of(flat), cycle[2], cycle[0]);
        let mss = arena.candidates_of(flat).1;
        assert_eq!(
            arena.mean_latency(&model, &arena.resolve_facts(&model), flat, &cycle),
            (mss[3] + mss[17] + mss[29]) / 3.0
        );
        check(&model);
        // A fact on one UG leaves another on the fact-free path.
        let facts = arena.resolve_facts(&model);
        assert_eq!(facts.iter().flatten().count(), n_ugs - n_ugs.div_ceil(3));
        for u in (0..n_ugs).step_by(3) {
            assert!(facts[u].is_none(), "u={u}");
            for set in &sets {
                let (with, without) = (
                    arena.mean_latency(&model, &facts, u, set),
                    arena.mean_latency(&bare, &[], u, set),
                );
                assert!(with.to_bits() == without.to_bits(), "u={u} {set:?}");
            }
        }
    }
}
