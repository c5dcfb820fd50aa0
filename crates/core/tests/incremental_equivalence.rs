//! Property: applying any delta stream through [`Orchestrator::apply_delta`]
//! and recomputing incrementally yields results **bit-identical** to a
//! from-scratch recompute on the mutated inputs — after every single
//! delta, at every swept thread count. This is the hard equivalence
//! contract behind the million-UG scale path: the persistent arena with
//! its in-place patches and flagged CSR rebuilds must be invisible in
//! the output.
//!
//! Worlds and delta streams are derived from the proptest-drawn seed by
//! plain FNV-fed code (the repo's seed-derived idiom), so cases are
//! reproducible from the seed alone and shrinking shrinks the seed.

use painter_core::{
    Delta, GreedyTrace, MeasurementDelta, Orchestrator, OrchestratorConfig, OrchestratorInputs,
    TopologyDelta, UgView,
};
use painter_geo::MetroId;
use painter_measure::UgId;
use painter_obs::Fnv1a;
use painter_topology::PeeringId;
use proptest::prelude::*;

const THREADS: [usize; 2] = [1, 4];

/// `ProptestConfig { cases }` set explicitly would shadow the
/// `PROPTEST_CASES` environment variable CI relies on, so read it by
/// hand; the default stays small because every case runs a scratch
/// recompute per delta per thread count.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(12)
}

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
/// get empty candidate sets — both must flow through the arena unharmed.
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

/// A hashed delta stream over the world's dimensions. UG ids are drawn
/// slightly out of range on purpose (unknown ids must be ignored);
/// peering ids stay in range (out-of-deployment adds are a panic by
/// contract).
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
                    ms: 5.0 + ((h >> 16) % 1150) as f64 / 10.0,
                }
                .into(),
                1 => MeasurementDelta::DemandShift {
                    ug,
                    weight: 0.1 + ((h >> 16) % 990) as f64 / 100.0,
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
                                5.0 + ((g >> 32) % 950) as f64 / 10.0,
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
/// existing candidacies and `DemandShift` only, so every delta takes the
/// in-place `ArenaPatch` path and the CSR is never rebuilt.
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

/// Applies `stream` one delta at a time and checks, after EVERY delta,
/// that the incremental result is bit-identical to a from-scratch
/// recompute, at every thread count, and that all thread counts agree
/// with each other.
fn check_every_delta(
    seed: u64,
    inputs: &OrchestratorInputs,
    stream: &[Delta],
) -> Result<(), TestCaseError> {
    let mut final_configs = Vec::new();
    for &threads in &THREADS {
        let config = config_for(seed, threads);
        let mut orch = Orchestrator::new(inputs.clone(), config.clone());

        // First incremental compute == plain traced compute.
        let (cold_incr, cold_trace_incr) = orch.compute_config_incremental();
        let (cold_ref, cold_trace_ref) = orch.compute_config_traced();
        prop_assert_eq!(&cold_incr, &cold_ref, "seed {}: cold diverged (t={})", seed, threads);
        prop_assert_eq!(
            trace_bits(&cold_trace_incr),
            trace_bits(&cold_trace_ref),
            "seed {}: cold trace diverged (t={})",
            seed,
            threads
        );

        let mut last = cold_incr;
        for (step, delta) in stream.iter().enumerate() {
            orch.apply_delta(delta.clone());
            let (incr, incr_trace) = orch.compute_config_incremental();
            let scratch = Orchestrator::new(orch.inputs.clone(), config.clone());
            let (scratch_cfg, scratch_trace) = scratch.compute_config_traced();
            prop_assert_eq!(
                &incr,
                &scratch_cfg,
                "seed {} step {} (t={}): incremental != scratch after {:?}",
                seed,
                step,
                threads,
                delta
            );
            prop_assert_eq!(
                trace_bits(&incr_trace),
                trace_bits(&scratch_trace),
                "seed {} step {} (t={}): trace diverged after {:?}",
                seed,
                step,
                threads,
                delta
            );
            last = incr;
        }
        final_configs.push(last);
    }
    for pair in final_configs.windows(2) {
        prop_assert_eq!(&pair[0], &pair[1], "seed {}: thread counts disagree", seed);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The core contract, over streams that mix in-place patches with
    /// membership changes (adds, removes, discovered candidacies).
    #[test]
    fn incremental_equals_scratch_after_every_delta(seed in 0u64..100_000) {
        let inputs = world(seed);
        let stream = deltas(seed, inputs.ugs.len(), inputs.peering_count, 6);
        check_every_delta(seed, &inputs, &stream)?;
    }

    /// The same contract over a stream of pure shifts, which never
    /// rebuilds the CSR: the arena built by the first compute is patched
    /// in place for the whole stream.
    #[test]
    fn pure_shift_stream_equals_scratch(seed in 0u64..100_000) {
        let inputs = world(seed);
        let stream = pure_shifts(seed, &inputs, 8);
        check_every_delta(seed, &inputs, &stream)?;
    }

    /// Deltas applied in bulk without recomputing in between must agree
    /// with scratch too — patches and the rebuild flag accumulate correctly
    /// across an arbitrarily long unobserved mutation window.
    #[test]
    fn batched_deltas_equal_scratch(seed in 0u64..100_000) {
        let inputs = world(seed);
        let stream = deltas(h64(&[seed, 12]), inputs.ugs.len(), inputs.peering_count, 12);
        for &threads in &THREADS {
            let config = config_for(seed, threads);
            let mut orch = Orchestrator::new(inputs.clone(), config.clone());
            let _ = orch.compute_config_incremental(); // build the persistent arena
            for delta in &stream {
                orch.apply_delta(delta.clone());
            }
            let (incr, incr_trace) = orch.compute_config_incremental();
            let scratch = Orchestrator::new(orch.inputs.clone(), config.clone());
            let (scratch_cfg, scratch_trace) = scratch.compute_config_traced();
            prop_assert_eq!(
                &incr, &scratch_cfg,
                "seed {}: batched incremental != scratch (t={})", seed, threads
            );
            prop_assert_eq!(
                trace_bits(&incr_trace),
                trace_bits(&scratch_trace),
                "seed {}: batched trace diverged (t={})", seed, threads
            );
        }
    }

    /// A recompute with no intervening deltas runs over the same arena
    /// and must reproduce the previous result exactly.
    #[test]
    fn recompute_without_deltas_is_idempotent(seed in 0u64..100_000) {
        let inputs = world(seed);
        for &threads in &THREADS {
            let mut orch = Orchestrator::new(inputs.clone(), config_for(seed, threads));
            let (first, first_trace) = orch.compute_config_incremental();
            let (again, again_trace) = orch.compute_config_incremental();
            prop_assert_eq!(&first, &again, "seed {}: recompute changed config", seed);
            prop_assert_eq!(
                trace_bits(&first_trace),
                trace_bits(&again_trace),
                "seed {}: recompute changed trace", seed
            );
        }
    }
}
