//! Incremental orchestrator mode: typed world deltas and the persistent
//! arena behind [`crate::Orchestrator::apply_delta`].
//!
//! A planning loop at scale does not rebuild its world between rounds —
//! it absorbs a stream of small changes: a peering session comes or goes
//! ([`TopologyDelta`]), a probe refreshes a believed RTT, a demand
//! estimate shifts ([`MeasurementDelta`]). Incremental mode keeps one
//! [`BenefitArena`] alive across rounds and mirrors every delta into it:
//! a latency or weight change is patched in place ([`ArenaPatch`]), a
//! candidate-set membership change flags one CSR rebuild before the next
//! compute, and a peering removal walks the arena's incidence row
//! instead of scanning the world.
//! [`crate::Orchestrator::compute_config_incremental`] then runs the same
//! cold lazy greedy as [`crate::Orchestrator::compute_config_traced`]
//! over that arena, so **the result is bit-identical to a from-scratch
//! recompute at every scale and thread count** (enforced by
//! `crates/core/tests/incremental_equivalence.rs`). No greedy state
//! survives between rounds; DESIGN.md §17 has the measurement behind
//! that.
//!
//! Invalidation rules:
//!
//! * [`crate::Orchestrator::apply_delta`] is the supported mutation path;
//!   it edits [`crate::OrchestratorInputs`] and the arena coherently.
//! * [`crate::Orchestrator::learn`] rewrites believed latencies
//!   wholesale, so it drops the arena.
//! * Editing `inputs` directly through the public field is legal but
//!   invisible — call [`crate::Orchestrator::invalidate_incremental`]
//!   afterwards. A change of `ugs.len()` or `peering_count` is caught and
//!   rebuilds the arena; `config` and `model` are read live on every
//!   compute and need nothing.

use crate::arena::BenefitArena;
use crate::inputs::OrchestratorInputs;
use painter_measure::UgId;
use painter_topology::PeeringId;
use std::collections::HashMap;

/// A structural change to the peering universe.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyDelta {
    /// A peering slot (`peering.idx() < peering_count`) comes into
    /// service: each `(ug, believed_ms)` row is upserted into that UG's
    /// candidate set. Rows naming unknown UGs are ignored (the
    /// measurement plane may reference UGs the orchestrator dropped).
    AddPeering { peering: PeeringId, candidates: Vec<(UgId, f64)> },
    /// A peering session goes down: every candidacy through it is
    /// removed. The slot (and its PoP geometry) remains, so a later
    /// [`TopologyDelta::AddPeering`] can restore it.
    RemovePeering { peering: PeeringId },
}

/// A measurement-plane update to believed inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasurementDelta {
    /// The believed RTT through `(ug, peering)` changes (upsert: a probe
    /// can discover a candidacy the inference missed).
    RttShift { ug: UgId, peering: PeeringId, ms: f64 },
    /// The UG's traffic weight changes.
    DemandShift { ug: UgId, weight: f64 },
}

/// Any world delta the orchestrator can absorb incrementally.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    Topology(TopologyDelta),
    Measurement(MeasurementDelta),
}

impl From<TopologyDelta> for Delta {
    fn from(d: TopologyDelta) -> Delta {
        Delta::Topology(d)
    }
}

impl From<MeasurementDelta> for Delta {
    fn from(d: MeasurementDelta) -> Delta {
        Delta::Measurement(d)
    }
}

/// The incremental state owned by [`crate::Orchestrator`].
#[derive(Debug)]
pub(crate) struct IncrementalState {
    pub arena: BenefitArena,
    pub index_of: HashMap<UgId, usize>,
    /// Candidate-set membership changed somewhere: the arena's CSR is
    /// stale and must be rebuilt before the next compute.
    pub membership_changed: bool,
}

/// An in-place arena patch mirroring an inputs edit (valid only while the
/// CSR membership is unchanged).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArenaPatch {
    Latency { ug: usize, peering: PeeringId, ms: f64 },
    Weight { ug: usize, weight: f64 },
}

/// What applying one delta touched.
#[derive(Debug, Default)]
pub(crate) struct AppliedDelta {
    pub membership_changed: bool,
    pub patches: Vec<ArenaPatch>,
}

/// Upserts `(pe, ms)` into one UG's sorted candidate row. Returns true if
/// membership changed (insert rather than update).
fn upsert_candidate(inputs: &mut OrchestratorInputs, u: usize, pe: PeeringId, ms: f64) -> bool {
    let cands = &mut inputs.ugs[u].candidates;
    match cands.binary_search_by_key(&pe, |(p, _)| *p) {
        Ok(i) => {
            cands[i].1 = ms;
            false
        }
        Err(i) => {
            cands.insert(i, (pe, ms));
            true
        }
    }
}

/// Applies `delta` to `inputs`, reporting whether candidate-set membership
/// changed and, for the edits that kept it, the matching arena patches.
/// `arena` (when fresh) provides the incidence list so a peering removal
/// visits only its own UGs instead of scanning the world.
pub(crate) fn apply_to_inputs(
    inputs: &mut OrchestratorInputs,
    delta: &Delta,
    index_of: &HashMap<UgId, usize>,
    arena: Option<&BenefitArena>,
) -> AppliedDelta {
    let mut out = AppliedDelta::default();
    match delta {
        Delta::Topology(TopologyDelta::AddPeering { peering, candidates }) => {
            assert!(
                peering.idx() < inputs.peering_count,
                "AddPeering {peering} outside the deployment's {} slots",
                inputs.peering_count
            );
            for &(ug, ms) in candidates {
                let Some(&u) = index_of.get(&ug) else { continue };
                let inserted = upsert_candidate(inputs, u, *peering, ms);
                if inserted {
                    out.membership_changed = true;
                } else {
                    out.patches.push(ArenaPatch::Latency { ug: u, peering: *peering, ms });
                }
            }
        }
        Delta::Topology(TopologyDelta::RemovePeering { peering }) => {
            let n_ugs = inputs.ugs.len();
            let mut remove_from = |u: usize| {
                let cands = &mut inputs.ugs[u].candidates;
                if let Ok(i) = cands.binary_search_by_key(peering, |(p, _)| *p) {
                    cands.remove(i);
                    out.membership_changed = true;
                }
            };
            match arena {
                Some(arena) => {
                    arena.ugs_of(peering.idx()).iter().for_each(|&u| remove_from(u as usize))
                }
                None => (0..n_ugs).for_each(remove_from),
            }
        }
        Delta::Measurement(MeasurementDelta::RttShift { ug, peering, ms }) => {
            if let Some(&u) = index_of.get(ug) {
                let inserted = upsert_candidate(inputs, u, *peering, *ms);
                if inserted {
                    out.membership_changed = true;
                } else {
                    out.patches.push(ArenaPatch::Latency { ug: u, peering: *peering, ms: *ms });
                }
            }
        }
        Delta::Measurement(MeasurementDelta::DemandShift { ug, weight }) => {
            if let Some(&u) = index_of.get(ug) {
                inputs.ugs[u].weight = *weight;
                out.patches.push(ArenaPatch::Weight { ug: u, weight: *weight });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::UgView;
    use painter_geo::MetroId;

    fn inputs() -> OrchestratorInputs {
        OrchestratorInputs {
            ugs: vec![
                UgView {
                    id: UgId(0),
                    metro: MetroId(0),
                    weight: 1.0,
                    anycast_ms: 80.0,
                    candidates: vec![(PeeringId(0), 30.0), (PeeringId(1), 45.0)],
                },
                UgView {
                    id: UgId(1),
                    metro: MetroId(1),
                    weight: 2.0,
                    anycast_ms: 90.0,
                    candidates: vec![(PeeringId(1), 50.0)],
                },
            ],
            ug_pop_km: vec![vec![100.0, 200.0], vec![300.0, 400.0]],
            peering_pop: vec![0, 1],
            peering_count: 2,
            capacities: None,
        }
    }

    fn index(inputs: &OrchestratorInputs) -> HashMap<UgId, usize> {
        inputs.index_of()
    }

    #[test]
    fn rtt_shift_updates_in_place() {
        let mut inp = inputs();
        let idx = index(&inp);
        let d = Delta::from(MeasurementDelta::RttShift {
            ug: UgId(0),
            peering: PeeringId(1),
            ms: 41.0,
        });
        let applied = apply_to_inputs(&mut inp, &d, &idx, None);
        assert!(!applied.membership_changed);
        assert_eq!(applied.patches.len(), 1);
        assert_eq!(inp.ugs[0].latency_via(PeeringId(1)), Some(41.0));
    }

    #[test]
    fn rtt_shift_can_discover_a_candidacy() {
        let mut inp = inputs();
        let idx = index(&inp);
        let d = Delta::from(MeasurementDelta::RttShift {
            ug: UgId(1),
            peering: PeeringId(0),
            ms: 33.0,
        });
        let applied = apply_to_inputs(&mut inp, &d, &idx, None);
        assert!(applied.membership_changed);
        assert_eq!(inp.ugs[1].candidates, vec![(PeeringId(0), 33.0), (PeeringId(1), 50.0)]);
    }

    #[test]
    fn remove_peering_clears_every_candidacy() {
        let mut inp = inputs();
        let idx = index(&inp);
        let arena = BenefitArena::from_inputs(&inp);
        let d = Delta::from(TopologyDelta::RemovePeering { peering: PeeringId(1) });
        let applied = apply_to_inputs(&mut inp, &d, &idx, Some(&arena));
        assert!(applied.membership_changed);
        assert_eq!(inp.ugs[0].candidates, vec![(PeeringId(0), 30.0)]);
        assert!(inp.ugs[1].candidates.is_empty());
        // Scan path (no arena) agrees.
        let mut inp2 = inputs();
        let applied2 = apply_to_inputs(&mut inp2, &d, &idx, None);
        assert!(applied2.membership_changed);
        assert_eq!(inp2.ugs[0].candidates, inp.ugs[0].candidates);
        assert_eq!(inp2.ugs[1].candidates, inp.ugs[1].candidates);
    }

    #[test]
    fn add_peering_restores_a_removed_slot() {
        let mut inp = inputs();
        let idx = index(&inp);
        let rm = Delta::from(TopologyDelta::RemovePeering { peering: PeeringId(0) });
        apply_to_inputs(&mut inp, &rm, &idx, None);
        let add = Delta::from(TopologyDelta::AddPeering {
            peering: PeeringId(0),
            candidates: vec![(UgId(0), 28.0), (UgId(1), 61.0), (UgId(77), 1.0)],
        });
        let applied = apply_to_inputs(&mut inp, &add, &idx, None);
        // The row naming unknown UG 77 is ignored.
        assert!(applied.membership_changed);
        assert_eq!(inp.ugs[0].latency_via(PeeringId(0)), Some(28.0));
        assert_eq!(inp.ugs[1].latency_via(PeeringId(0)), Some(61.0));
    }

    #[test]
    fn demand_shift_marks_only_the_ug() {
        let mut inp = inputs();
        let idx = index(&inp);
        let d = Delta::from(MeasurementDelta::DemandShift { ug: UgId(1), weight: 7.5 });
        let applied = apply_to_inputs(&mut inp, &d, &idx, None);
        assert!(!applied.membership_changed);
        assert_eq!(applied.patches.len(), 1);
        assert_eq!(inp.ugs[1].weight, 7.5);
        assert_eq!(inp.ugs[0].weight, 1.0);
    }

    #[test]
    #[should_panic(expected = "outside the deployment")]
    fn add_peering_rejects_unknown_slots() {
        let mut inp = inputs();
        let idx = index(&inp);
        let d =
            Delta::from(TopologyDelta::AddPeering { peering: PeeringId(9), candidates: vec![] });
        apply_to_inputs(&mut inp, &d, &idx, None);
    }
}
