//! Deltas are edits of the inputs, and nothing else.
//!
//! Two seeded sweeps over hash-built worlds and delta streams (plain
//! `#[test]`s, so they run wherever the crate builds):
//!
//! * [`Orchestrator::apply_delta`] leaves `inputs` exactly as an oracle
//!   that applies the same edits by hand does — unknown UGs, upserts that
//!   insert, removals, re-adds and rejected values included — compared
//!   field by field at the bit level;
//! * the plan and trace of the edited world are identical at 1 and 4
//!   threads.
//!
//! Together with `out_of_band_edits_are_planned` (a plan is a function of
//! `inputs` alone) these cover what the four property tests this file
//! used to hold asserted about the persistent arena: after every delta,
//! after a pure-shift stream and after a batch, the plan is the
//! from-scratch plan of the edited inputs; and planning twice changes
//! nothing.

use painter_core::{
    Delta, GreedyTrace, MeasurementDelta, Orchestrator, OrchestratorConfig, OrchestratorInputs,
    TopologyDelta, UgView,
};
use painter_geo::MetroId;
use painter_measure::UgId;
use painter_obs::Fnv1a;
use painter_topology::PeeringId;

const THREADS: [usize; 2] = [1, 4];

/// Seeds each sweep visits.
const SEEDS: std::ops::Range<u64> = 0..320;

/// FNV-1a over a word sequence — the seed expander.
fn h64(parts: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for p in parts {
        h.update(&p.to_le_bytes());
    }
    h.finish()
}

/// A random hand-built world: 2–15 UGs, 2–7 dense peerings over 1–3
/// PoPs, per-UG candidate subsets with hashed believed latencies. Some
/// UGs get anycast below their best candidate (zero benefit) and some
/// get empty candidate sets — both must flow through a plan unharmed.
fn world(seed: u64) -> OrchestratorInputs {
    let n_ugs = 2 + (h64(&[seed, 1]) % 14) as usize;
    let n_peerings = 2 + (h64(&[seed, 2]) % 6) as usize;
    let n_pops = 1 + (h64(&[seed, 3]) % 3) as usize;
    let mut ugs = Vec::with_capacity(n_ugs);
    let mut ug_pop_km = Vec::with_capacity(n_ugs);
    for u in 0..n_ugs {
        let hu = h64(&[seed, 4, u as u64]);
        let degree = (hu % (n_peerings as u64 + 1)) as usize; // 0..=n_peerings
        let mut candidates: Vec<(PeeringId, f64)> = (0..n_peerings)
            .filter(|&p| h64(&[seed, 5, u as u64, p as u64]) % (n_peerings as u64) < degree as u64)
            .map(|p| {
                (
                    PeeringId(p as u32),
                    5.0 + (h64(&[seed, 6, u as u64, p as u64]) % 950) as f64 / 10.0,
                )
            })
            .collect();
        candidates.sort_by_key(|&(p, _)| p);
        let anycast_ms = 10.0 + (h64(&[seed, 7, u as u64]) % 1100) as f64 / 10.0;
        ugs.push(UgView {
            id: UgId(u as u32),
            metro: MetroId(0),
            weight: 0.1 + (h64(&[seed, 8, u as u64]) % 990) as f64 / 100.0,
            anycast_ms,
            candidates,
        });
        ug_pop_km.push(
            (0..n_pops).map(|p| (h64(&[seed, 9, u as u64, p as u64]) % 9000) as f64).collect(),
        );
    }
    OrchestratorInputs {
        ugs,
        ug_pop_km,
        peering_pop: (0..n_peerings).map(|i| i % n_pops).collect(),
        peering_count: n_peerings,
        capacities: None,
    }
}

/// A value no delta may write, now and then.
fn hostile(h: u64, value: f64) -> f64 {
    match h % 16 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => -value,
        _ => value,
    }
}

/// A hashed delta stream over the world's dimensions. UG ids are drawn
/// slightly out of range on purpose (unknown ids must be ignored), about
/// one value in five is hostile (must be rejected); peering ids stay in
/// range (out-of-deployment adds are a panic by contract).
fn deltas(seed: u64, n_ugs: usize, n_peerings: usize, len: usize) -> Vec<Delta> {
    (0..len)
        .map(|k| {
            let h = h64(&[seed, 10, k as u64]);
            let ug = UgId(((h >> 8) % (n_ugs as u64 + 2)) as u32);
            let peering = PeeringId(((h >> 40) % n_peerings as u64) as u32);
            match h % 4 {
                0 => MeasurementDelta::RttShift {
                    ug,
                    peering,
                    ms: hostile(h >> 52, 5.0 + ((h >> 16) % 1150) as f64 / 10.0),
                }
                .into(),
                1 => MeasurementDelta::DemandShift {
                    ug,
                    weight: hostile(h >> 52, 0.1 + ((h >> 16) % 990) as f64 / 100.0),
                }
                .into(),
                2 => TopologyDelta::RemovePeering { peering }.into(),
                _ => TopologyDelta::AddPeering {
                    peering,
                    candidates: (0..(h >> 4) % 4)
                        .map(|j| {
                            let g = h64(&[h, j]);
                            (
                                UgId((g % (n_ugs as u64 + 2)) as u32),
                                hostile(g >> 52, 5.0 + ((g >> 32) % 950) as f64 / 10.0),
                            )
                        })
                        .collect(),
                }
                .into(),
            }
        })
        .collect()
}

/// A stream that never changes candidate-set membership: `RttShift` on
/// existing candidacies and `DemandShift` only.
fn pure_shifts(seed: u64, inputs: &OrchestratorInputs, len: usize) -> Vec<Delta> {
    let with_cands: Vec<&UgView> = inputs.ugs.iter().filter(|u| !u.candidates.is_empty()).collect();
    (0..len)
        .map(|k| {
            let h = h64(&[seed, 13, k as u64]);
            let value = ((h >> 16) % 990) as f64 / 10.0;
            if h & 1 == 0 && !with_cands.is_empty() {
                let ug = with_cands[((h >> 8) % with_cands.len() as u64) as usize];
                let (peering, _) = ug.candidates[((h >> 40) % ug.candidates.len() as u64) as usize];
                MeasurementDelta::RttShift { ug: ug.id, peering, ms: 5.0 + value }.into()
            } else {
                let ug = inputs.ugs[((h >> 8) % inputs.ugs.len() as u64) as usize].id;
                MeasurementDelta::DemandShift { ug, weight: 0.1 + value / 10.0 }.into()
            }
        })
        .collect()
}

fn config_for(seed: u64, threads: usize) -> OrchestratorConfig {
    OrchestratorConfig {
        prefix_budget: 2 + (h64(&[seed, 11]) % 3) as usize,
        threads: Some(threads),
        ..Default::default()
    }
}

/// Bit-exact trace comparison (f64 compared as bits, not approximately).
fn trace_bits(t: &GreedyTrace) -> Vec<(usize, u64)> {
    t.after_each_prefix.iter().map(|&(k, b)| (k, b.to_bits())).collect()
}

/// A latency or weight a delta may write.
fn ok(value: f64) -> bool {
    value.is_finite() && value >= 0.0
}

/// The `(ug, peering, value)` rows a delta asks to write; no peering
/// means the value is a weight.
fn rows_of(delta: &Delta) -> Vec<(UgId, Option<PeeringId>, f64)> {
    match delta {
        Delta::Topology(TopologyDelta::AddPeering { peering, candidates }) => {
            candidates.iter().map(|&(ug, ms)| (ug, Some(*peering), ms)).collect()
        }
        Delta::Topology(TopologyDelta::RemovePeering { .. }) => Vec::new(),
        Delta::Measurement(MeasurementDelta::RttShift { ug, peering, ms }) => {
            vec![(*ug, Some(*peering), *ms)]
        }
        Delta::Measurement(MeasurementDelta::DemandShift { ug, weight }) => {
            vec![(*ug, None, *weight)]
        }
    }
}

/// What [`Orchestrator::apply_delta`] is specified to do, written the
/// obvious way: find the UG by scanning, skip what must be skipped.
fn apply_by_hand(inputs: &mut OrchestratorInputs, delta: &Delta) {
    if let Delta::Topology(TopologyDelta::RemovePeering { peering }) = delta {
        for ug in &mut inputs.ugs {
            ug.candidates.retain(|(p, _)| p != peering);
        }
    }
    for (ug, pe, value) in rows_of(delta) {
        let Some(ug) = inputs.ugs.iter_mut().find(|u| u.id == ug) else { continue };
        if !ok(value) {
            continue;
        }
        let Some(pe) = pe else {
            ug.weight = value;
            continue;
        };
        match ug.candidates.iter_mut().find(|(p, _)| *p == pe) {
            Some(row) => row.1 = value,
            None => {
                ug.candidates.push((pe, value));
                ug.candidates.sort_by_key(|&(p, _)| p);
            }
        }
    }
}

/// Every field of every UG, floats as bits.
type UgBits = (UgId, MetroId, u64, u64, Vec<(PeeringId, u64)>);

fn ug_bits(inputs: &OrchestratorInputs) -> Vec<UgBits> {
    let row = |u: &UgView| u.candidates.iter().map(|&(p, ms)| (p, ms.to_bits())).collect();
    inputs
        .ugs
        .iter()
        .map(|u| (u.id, u.metro, u.weight.to_bits(), u.anycast_ms.to_bits(), row(u)))
        .collect()
}

/// The three stream shapes the sweeps visit: mixed, membership-preserving,
/// and a long mixed batch from a different sub-seed.
fn streams(seed: u64, inputs: &OrchestratorInputs) -> [Vec<Delta>; 3] {
    let (n_ugs, n_peerings) = (inputs.ugs.len(), inputs.peering_count);
    [
        deltas(seed, n_ugs, n_peerings, 6),
        pure_shifts(seed, inputs, 8),
        deltas(h64(&[seed, 12]), n_ugs, n_peerings, 12),
    ]
}

#[test]
fn apply_delta_edits_inputs_like_the_oracle() {
    // Rows seen per case: rejected value, unknown UG, update, insert,
    // insert into a peering an earlier delta removed.
    let mut seen = [0usize; 5];
    for seed in SEEDS {
        let inputs = world(seed);
        for stream in streams(seed, &inputs) {
            let mut orch = Orchestrator::new(inputs.clone(), config_for(seed, 1));
            let mut expected = inputs.clone();
            let mut removed: Vec<PeeringId> = Vec::new();
            for (step, delta) in stream.iter().enumerate() {
                for (ug, pe, value) in rows_of(delta) {
                    let case = if !ok(value) {
                        0
                    } else {
                        match (expected.ugs.iter().find(|u| u.id == ug), pe) {
                            (None, _) => 1,
                            (Some(u), Some(pe)) if u.latency_via(pe).is_none() => {
                                3 + usize::from(removed.contains(&pe))
                            }
                            (Some(_), _) => 2,
                        }
                    };
                    seen[case] += 1;
                }
                if let Delta::Topology(TopologyDelta::RemovePeering { peering }) = delta {
                    removed.push(*peering);
                }
                orch.apply_delta(delta.clone());
                apply_by_hand(&mut expected, delta);
                assert_eq!(
                    ug_bits(&orch.inputs),
                    ug_bits(&expected),
                    "seed {seed} step {step}: {delta:?}"
                );
            }
            // Nothing but `ugs` is a delta's to touch.
            assert_eq!(orch.inputs.ug_pop_km, inputs.ug_pop_km, "seed {seed}");
            assert_eq!(orch.inputs.peering_pop, inputs.peering_pop, "seed {seed}");
            assert_eq!(orch.inputs.peering_count, inputs.peering_count, "seed {seed}");
        }
    }
    assert!(seen.iter().all(|&n| n >= 50), "a case went (nearly) unvisited: {seen:?}");
}

#[test]
fn post_delta_plan_is_thread_invariant() {
    let mut moved = 0usize;
    for seed in SEEDS {
        let inputs = world(seed);
        for stream in streams(seed, &inputs) {
            let plans: Vec<_> = THREADS
                .iter()
                .map(|&threads| {
                    let mut orch = Orchestrator::new(inputs.clone(), config_for(seed, threads));
                    let cold = orch.compute_config();
                    for delta in &stream {
                        orch.apply_delta(delta.clone());
                    }
                    let (config, trace) = orch.compute_config_traced();
                    moved += usize::from(config != cold);
                    (config, trace_bits(&trace))
                })
                .collect();
            assert_eq!(plans[0], plans[1], "seed {seed}: thread counts disagree");
        }
    }
    assert!(moved >= 100, "the streams moved only {moved} plans");
}
