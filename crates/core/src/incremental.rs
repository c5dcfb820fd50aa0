//! Incremental orchestrator mode: typed world deltas applied to
//! [`crate::OrchestratorInputs`] by [`crate::Orchestrator::apply_delta`].
//!
//! A planning loop at scale does not rebuild its world between rounds —
//! it absorbs a stream of small changes: a peering session comes or goes
//! ([`TopologyDelta`]), a probe refreshes a believed RTT, a demand
//! estimate shifts ([`MeasurementDelta`]). A delta edits the inputs and
//! nothing else: the next [`crate::Orchestrator::compute_config_traced`]
//! packs them into a fresh [`crate::BenefitArena`] and runs the one cold
//! lazy greedy, so a plan after deltas **is** the from-scratch plan of
//! the edited inputs, at every scale and thread count. No scoring state
//! survives between rounds and `inputs` may also be edited directly
//! through its public field; DESIGN.md §17 has the measurement behind
//! that.
//!
//! Rows a delta cannot apply are dropped, not written: a row naming a UG
//! the orchestrator does not hold (the measurement plane may reference
//! UGs it dropped), and a row whose latency or weight is negative or not
//! finite (one NaN would poison every sum over that UG's row). The
//! latter are counted in `core.delta_rejected_total`.

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
    /// measurement plane may reference UGs the orchestrator dropped);
    /// rows with a negative or non-finite latency are rejected.
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
    /// can discover a candidacy the inference missed). Rejected if `ms`
    /// is negative or not finite.
    RttShift { ug: UgId, peering: PeeringId, ms: f64 },
    /// The UG's traffic weight changes. Rejected if `weight` is negative
    /// or not finite.
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

/// `UgId` → position in `inputs.ugs`, for [`apply_to_inputs`]. `inputs`
/// is a public field, so the map is checked on every use — against the
/// length it was built for, and the id at the position it returns — and
/// rebuilt when `ugs` was resized or reordered behind it (an id
/// rewritten in place is noticed when a delta names the old id; until
/// then a row naming the new one counts as unknown). The default value
/// is the index of an empty world, so the first use builds it.
#[derive(Debug, Default)]
pub(crate) struct UgIndex {
    built_for: usize,
    position: HashMap<UgId, usize>,
}

impl UgIndex {
    fn get(&mut self, inputs: &OrchestratorInputs, ug: UgId) -> Option<usize> {
        let stale = self.built_for != inputs.ugs.len()
            || self.position.get(&ug).is_some_and(|&u| inputs.ugs[u].id != ug);
        if stale {
            self.built_for = inputs.ugs.len();
            self.position = inputs.index_of();
        }
        self.position.get(&ug).copied()
    }
}

/// A believed latency or a traffic weight a delta may write.
fn acceptable(value: f64) -> bool {
    value.is_finite() && value >= 0.0
}

/// Upserts `(pe, ms)` into UG `ug`'s sorted candidate row. Returns the
/// number of rows rejected (0 or 1); a row naming an unknown UG is
/// ignored and not counted.
fn upsert_candidate(
    inputs: &mut OrchestratorInputs,
    index: &mut UgIndex,
    ug: UgId,
    pe: PeeringId,
    ms: f64,
) -> u64 {
    if !acceptable(ms) {
        return 1;
    }
    if let Some(u) = index.get(inputs, ug) {
        let cands = &mut inputs.ugs[u].candidates;
        match cands.binary_search_by_key(&pe, |(p, _)| *p) {
            Ok(i) => cands[i].1 = ms,
            Err(i) => cands.insert(i, (pe, ms)),
        }
    }
    0
}

/// Applies `delta` to `inputs` and returns how many of its rows were
/// rejected for carrying a negative or non-finite value.
pub(crate) fn apply_to_inputs(
    inputs: &mut OrchestratorInputs,
    delta: &Delta,
    index: &mut UgIndex,
) -> u64 {
    match delta {
        Delta::Topology(TopologyDelta::AddPeering { peering, candidates }) => {
            assert!(
                peering.idx() < inputs.peering_count,
                "AddPeering {peering} outside the deployment's {} slots",
                inputs.peering_count
            );
            candidates
                .iter()
                .map(|&(ug, ms)| upsert_candidate(inputs, index, ug, *peering, ms))
                .sum()
        }
        Delta::Topology(TopologyDelta::RemovePeering { peering }) => {
            for ug in &mut inputs.ugs {
                if let Ok(i) = ug.candidates.binary_search_by_key(peering, |(p, _)| *p) {
                    ug.candidates.remove(i);
                }
            }
            0
        }
        Delta::Measurement(MeasurementDelta::RttShift { ug, peering, ms }) => {
            upsert_candidate(inputs, index, *ug, *peering, *ms)
        }
        Delta::Measurement(MeasurementDelta::DemandShift { ug, weight }) => {
            if !acceptable(*weight) {
                return 1;
            }
            if let Some(u) = index.get(inputs, *ug) {
                inputs.ugs[u].weight = *weight;
            }
            0
        }
    }
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

    /// Everything a delta may write, bit for bit.
    fn written(inputs: &OrchestratorInputs) -> Vec<(u64, Vec<(PeeringId, u64)>)> {
        let row = |u: &UgView| u.candidates.iter().map(|&(p, ms)| (p, ms.to_bits())).collect();
        inputs.ugs.iter().map(|u| (u.weight.to_bits(), row(u))).collect()
    }

    #[test]
    fn rtt_shift_updates_in_place() {
        let mut inp = inputs();
        let d = Delta::from(MeasurementDelta::RttShift {
            ug: UgId(0),
            peering: PeeringId(1),
            ms: 41.0,
        });
        assert_eq!(apply_to_inputs(&mut inp, &d, &mut UgIndex::default()), 0);
        assert_eq!(inp.ugs[0].candidates, vec![(PeeringId(0), 30.0), (PeeringId(1), 41.0)]);
    }

    #[test]
    fn rtt_shift_can_discover_a_candidacy() {
        let mut inp = inputs();
        let d = Delta::from(MeasurementDelta::RttShift {
            ug: UgId(1),
            peering: PeeringId(0),
            ms: 33.0,
        });
        apply_to_inputs(&mut inp, &d, &mut UgIndex::default());
        assert_eq!(inp.ugs[1].candidates, vec![(PeeringId(0), 33.0), (PeeringId(1), 50.0)]);
    }

    #[test]
    fn remove_peering_clears_every_candidacy() {
        let mut inp = inputs();
        let d = Delta::from(TopologyDelta::RemovePeering { peering: PeeringId(1) });
        assert_eq!(apply_to_inputs(&mut inp, &d, &mut UgIndex::default()), 0);
        assert_eq!(inp.ugs[0].candidates, vec![(PeeringId(0), 30.0)]);
        assert!(inp.ugs[1].candidates.is_empty());
    }

    #[test]
    fn add_peering_restores_a_removed_slot() {
        let mut inp = inputs();
        let mut idx = UgIndex::default();
        let rm = Delta::from(TopologyDelta::RemovePeering { peering: PeeringId(0) });
        apply_to_inputs(&mut inp, &rm, &mut idx);
        let add = Delta::from(TopologyDelta::AddPeering {
            peering: PeeringId(0),
            candidates: vec![(UgId(0), 28.0), (UgId(1), 61.0), (UgId(77), 1.0)],
        });
        // The row naming unknown UG 77 is ignored, not rejected.
        assert_eq!(apply_to_inputs(&mut inp, &add, &mut idx), 0);
        assert_eq!(inp.ugs[0].latency_via(PeeringId(0)), Some(28.0));
        assert_eq!(inp.ugs[1].latency_via(PeeringId(0)), Some(61.0));
    }

    #[test]
    fn demand_shift_touches_only_the_ug() {
        let mut inp = inputs();
        let d = Delta::from(MeasurementDelta::DemandShift { ug: UgId(1), weight: 7.5 });
        assert_eq!(apply_to_inputs(&mut inp, &d, &mut UgIndex::default()), 0);
        assert_eq!(inp.ugs[1].weight, 7.5);
        assert_eq!(inp.ugs[0].weight, 1.0);
    }

    const HOSTILE: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0];

    #[test]
    fn hostile_rtt_shifts_are_rejected() {
        for ms in HOSTILE {
            let mut inp = inputs();
            // One existing candidacy, one that would be discovered.
            for peering in [PeeringId(1), PeeringId(0)] {
                let d = Delta::from(MeasurementDelta::RttShift { ug: UgId(1), peering, ms });
                assert_eq!(apply_to_inputs(&mut inp, &d, &mut UgIndex::default()), 1, "{ms}");
            }
            assert_eq!(written(&inp), written(&inputs()), "{ms} was written");
        }
    }

    #[test]
    fn hostile_demand_shifts_are_rejected() {
        for weight in HOSTILE {
            let mut inp = inputs();
            let d = Delta::from(MeasurementDelta::DemandShift { ug: UgId(0), weight });
            assert_eq!(apply_to_inputs(&mut inp, &d, &mut UgIndex::default()), 1, "{weight}");
            assert_eq!(written(&inp), written(&inputs()), "{weight} was written");
        }
        // Zero demand is a legal estimate.
        let mut inp = inputs();
        let d = Delta::from(MeasurementDelta::DemandShift { ug: UgId(0), weight: 0.0 });
        assert_eq!(apply_to_inputs(&mut inp, &d, &mut UgIndex::default()), 0);
        assert_eq!(inp.ugs[0].weight, 0.0);
    }

    #[test]
    fn hostile_add_peering_rows_are_rejected_one_by_one() {
        let mut inp = inputs();
        let d = Delta::from(TopologyDelta::AddPeering {
            peering: PeeringId(0),
            candidates: vec![
                (UgId(0), f64::NAN),
                (UgId(1), 61.0),
                (UgId(1), -0.5),
                (UgId(77), f64::INFINITY),
            ],
        });
        // Unknown UG 77 counts too: the value is checked before the id.
        assert_eq!(apply_to_inputs(&mut inp, &d, &mut UgIndex::default()), 3);
        assert_eq!(inp.ugs[0].candidates, inputs().ugs[0].candidates);
        assert_eq!(inp.ugs[1].candidates, vec![(PeeringId(0), 61.0), (PeeringId(1), 50.0)]);
    }

    #[test]
    fn index_follows_out_of_band_edits() {
        let mut inp = inputs();
        let mut idx = UgIndex::default();
        assert_eq!(idx.get(&inp, UgId(1)), Some(1));
        // Reordered behind the map: same length, the hit's id gives it away.
        inp.ugs.swap(0, 1);
        assert_eq!(idx.get(&inp, UgId(1)), Some(0));
        assert_eq!(idx.get(&inp, UgId(0)), Some(1));
        // Resized behind the map.
        inp.ugs.push(UgView { id: UgId(9), ..inp.ugs[0].clone() });
        assert_eq!(idx.get(&inp, UgId(9)), Some(2));
        inp.ugs.truncate(1);
        assert_eq!(idx.get(&inp, UgId(9)), None);
        assert_eq!(idx.get(&inp, UgId(1)), Some(0));
    }

    #[test]
    #[should_panic(expected = "outside the deployment")]
    fn add_peering_rejects_unknown_slots() {
        let mut inp = inputs();
        let d =
            Delta::from(TopologyDelta::AddPeering { peering: PeeringId(9), candidates: vec![] });
        apply_to_inputs(&mut inp, &d, &mut UgIndex::default());
    }
}
