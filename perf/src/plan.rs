//! `plan-cold-100k` and `replan-delta-100k`: the greedy planner on the
//! synthetic scale-sweep world, from scratch and through the delta path.

use crate::harness::{advert_words, fnv, median, RoundOutcome, Workload};
use crate::trace::Tracer;
use painter_bgp::AdvertConfig;
use painter_core::{
    BenefitArena, Delta, GreedyTrace, MeasurementDelta, Orchestrator, OrchestratorConfig,
    OrchestratorInputs, TopologyDelta,
};
use painter_eval::scale::{delta_stream, synthesize_inputs, ScaleConfig};
use painter_eval::Scale;
use painter_eventsim::derive_seed;
use painter_measure::{build_user_groups, UgId};
use painter_obs::Registry;
use painter_topology::{generate, PeeringId, TopologyConfig};
use std::collections::HashMap;
use std::hint::black_box;

/// Size of the synthetic world (budget, PoPs, marginal floor and batch size
/// are the scale sweep's Test preset).
#[derive(Debug, Clone, Copy)]
pub struct PlanSize {
    pub ugs: usize,
    pub peerings: usize,
    pub epochs: usize,
}

impl PlanSize {
    pub const COLD: PlanSize = PlanSize { ugs: 100_000, peerings: 48, epochs: 14 };
    pub const REPLAN: PlanSize = PlanSize { ugs: 100_000, peerings: 48, epochs: 5 };
    pub const SMOKE: PlanSize = PlanSize { ugs: 2_000, peerings: 16, epochs: 1 };
}

/// Order-sensitive digest of a plan and its benefit curve.
fn plan_digest(config: &AdvertConfig, trace: &GreedyTrace) -> u64 {
    let mut words = advert_words(config);
    words.extend(trace.after_each_prefix.iter().flat_map(|&(n, b)| [n as u64, b.to_bits()]));
    fnv(&words)
}

/// Modeled benefit of a greedy run as a share of the total possible.
fn modeled_quality(trace: &GreedyTrace, inputs: &OrchestratorInputs) -> f64 {
    let benefit = trace.after_each_prefix.last().map_or(0.0, |&(_, b)| b);
    benefit / inputs.total_possible_benefit()
}

/// Generates the world and builds an orchestrator on it, one span per layer.
fn build_orchestrator(size: PlanSize, seed: u64, tr: &mut Tracer) -> (Orchestrator, ScaleConfig) {
    let config = ScaleConfig::for_scale(Scale::Test, seed);
    let (net, _) =
        tr.span("topology.generate_s", |_| generate(TopologyConfig::scale(seed, size.ugs)));
    let (ugs, _) = tr.span("measure.build_ugs_s", |_| build_user_groups(&net, seed));
    let (inputs, _) =
        tr.span("eval.synthesize_inputs_s", |_| synthesize_inputs(&config, &ugs, size.peerings));
    let orch_config = OrchestratorConfig {
        prefix_budget: config.prefix_budget,
        threads: Some(1),
        min_marginal_benefit: config.min_marginal_frac * inputs.total_possible_benefit(),
        ..Default::default()
    };
    (Orchestrator::new(inputs, orch_config), config)
}

/// The greedy's own counters, read from the orchestrator's public registry
/// (`Orchestrator::obs`).
#[derive(Clone, Copy)]
struct GreedyCounts {
    scoring_calls: u64,
    rescore_batches: u64,
    pairs: u64,
    fill_reused: u64,
}

impl GreedyCounts {
    fn read(registry: &Registry) -> GreedyCounts {
        let snap = registry.snapshot();
        let get = |name| snap.counter(name).unwrap_or(0);
        GreedyCounts {
            scoring_calls: get("core.parallel_tasks"),
            rescore_batches: get("core.greedy_batch_recompute"),
            pairs: get("core.greedy_pairs_total"),
            fill_reused: get("core.incr_fill_reused"),
        }
    }

    /// Records what one greedy run added to the counters.
    fn record_since(self, before: GreedyCounts, tr: &mut Tracer) {
        let batches = self.rescore_batches - before.rescore_batches;
        let pairs = self.pairs - before.pairs;
        tr.value("core.scoring_calls", (self.scoring_calls - before.scoring_calls) as f64);
        tr.value("core.rescore_batches", batches as f64);
        tr.value("core.pairs_committed", pairs as f64);
        tr.value("core.commits_per_rescore", pairs as f64 / batches.max(1) as f64);
    }
}

/// Times the arena build and one initial fill alone, and books what is left
/// of `compute_s` (lazy pops, rescores, post-commit refresh) as the rest.
fn replay_greedy_layers(
    orch: &Orchestrator,
    prefixes_used: usize,
    compute_s: f64,
    tr: &mut Tracer,
) {
    let (arena, arena_s) =
        tr.span("core.arena_build_s", |_| BenefitArena::from_inputs(&orch.inputs));
    let (_, fill_s) = tr.span("core.fill_s", |_| black_box(orch.fill_scores_arena(&arena)));
    tr.value("core.greedy_rest_s", (compute_s - arena_s - prefixes_used as f64 * fill_s).max(0.0));
}

/// `plan-cold-100k`: one `compute_config_traced()` per round.
pub struct PlanCold(pub PlanSize);

pub struct PlanWorld {
    orch: Orchestrator,
}

impl Workload for PlanCold {
    type World = PlanWorld;

    fn epochs(&self) -> usize {
        self.0.epochs
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<PlanWorld, String> {
        Ok(PlanWorld { orch: build_orchestrator(self.0, seed, tr).0 })
    }

    fn round(&self, world: &mut PlanWorld, tr: &mut Tracer) -> Result<RoundOutcome, String> {
        let before = tr.enabled().then(|| GreedyCounts::read(&world.orch.obs));
        let ((config, trace), seconds) =
            tr.span("round", |_| black_box(world.orch.compute_config_traced()));
        if let Some(before) = before {
            GreedyCounts::read(&world.orch.obs).record_since(before, tr);
        }
        if config.pair_count() == 0 {
            return Err("greedy planned an empty advertisement".to_string());
        }
        Ok(RoundOutcome {
            seconds,
            digest: plan_digest(&config, &trace),
            quality: modeled_quality(&trace, &world.orch.inputs),
        })
    }

    fn layers(&self, world: &mut PlanWorld, tr: &mut Tracer) -> Result<(), String> {
        let ((_, trace), seconds) = tr.span("round", |_| world.orch.compute_config_traced());
        replay_greedy_layers(&world.orch, trace.after_each_prefix.len(), seconds, tr);
        Ok(())
    }
}

/// `replan-delta-100k`: a fresh 32-delta batch through `apply_delta`, then
/// `compute_config_incremental()`, on an orchestrator warmed in set-up.
///
/// The delta stream removes whole peerings and adds small ones, so left
/// alone the world shrinks with every batch and later rounds get cheaper.
/// Each round therefore first undoes the previous batch (untimed, through
/// `apply_delta` as well): every round plans the base world plus one batch,
/// whatever number of rounds fits into the run.
pub struct ReplanDelta(pub PlanSize);

pub struct ReplanWorld {
    orch: Orchestrator,
    config: ScaleConfig,
    base: OrchestratorInputs,
    /// Position of each UG in `base.ugs`.
    index: HashMap<UgId, usize>,
    batches: u64,
    undo: Vec<Delta>,
    last: Option<(AdvertConfig, GreedyTrace)>,
}

/// The deltas that take `batch`, applied to `base`, back to `base`.
fn undo_of(batch: &[Delta], base: &OrchestratorInputs, index: &HashMap<UgId, usize>) -> Vec<Delta> {
    let mut undo = Vec::new();
    // A peering whose membership changed is removed and re-added whole.
    let mut rebuild: Vec<PeeringId> = Vec::new();
    for delta in batch {
        match delta {
            Delta::Measurement(MeasurementDelta::RttShift { ug, peering, .. }) => {
                match index.get(ug).and_then(|&u| base.ugs[u].latency_via(*peering)) {
                    Some(ms) => undo
                        .push(MeasurementDelta::RttShift { ug: *ug, peering: *peering, ms }.into()),
                    None => rebuild.push(*peering),
                }
            }
            Delta::Measurement(MeasurementDelta::DemandShift { ug, .. }) => {
                if let Some(&u) = index.get(ug) {
                    undo.push(
                        MeasurementDelta::DemandShift { ug: *ug, weight: base.ugs[u].weight }
                            .into(),
                    );
                }
            }
            Delta::Topology(TopologyDelta::AddPeering { peering, .. })
            | Delta::Topology(TopologyDelta::RemovePeering { peering }) => rebuild.push(*peering),
        }
    }
    rebuild.sort_unstable();
    rebuild.dedup();
    for peering in rebuild {
        let candidates =
            base.ugs.iter().filter_map(|u| u.latency_via(peering).map(|ms| (u.id, ms))).collect();
        undo.push(TopologyDelta::RemovePeering { peering }.into());
        undo.push(TopologyDelta::AddPeering { peering, candidates }.into());
    }
    undo
}

impl Workload for ReplanDelta {
    type World = ReplanWorld;

    fn epochs(&self) -> usize {
        self.0.epochs
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<ReplanWorld, String> {
        let (mut orch, config) = build_orchestrator(self.0, seed, tr);
        let base = orch.inputs.clone();
        let index = base.index_of();
        tr.span("core.incr_cold_s", |_| black_box(orch.compute_config_incremental()));
        Ok(ReplanWorld { orch, config, base, index, batches: 0, undo: Vec::new(), last: None })
    }

    fn repeats(&self) -> bool {
        false
    }

    fn round(&self, world: &mut ReplanWorld, tr: &mut Tracer) -> Result<RoundOutcome, String> {
        // Untimed: back to the base world, then generate the next batch.
        for delta in world.undo.drain(..) {
            world.orch.apply_delta(delta);
        }
        debug_assert!(
            world.orch.inputs.ugs.iter().zip(&world.base.ugs).all(|(a, b)| {
                a.weight.to_bits() == b.weight.to_bits() && a.candidates == b.candidates
            }),
            "undoing the previous batch did not restore the base world"
        );
        let stream = ScaleConfig {
            seed: derive_seed(world.config.seed, world.batches),
            ..world.config.clone()
        };
        world.batches += 1;
        let batch = delta_stream(&stream, self.0.ugs, self.0.peerings);
        world.undo = undo_of(&batch, &world.base, &world.index);

        let before = tr.enabled().then(|| GreedyCounts::read(&world.orch.obs));
        let orch = &mut world.orch;
        let ((config, trace), seconds) = tr.span("round", |tr| {
            tr.span("core.apply_delta_s", |_| batch.into_iter().for_each(|d| orch.apply_delta(d)));
            tr.span("core.incr_compute_s", |_| black_box(orch.compute_config_incremental())).0
        });
        if let Some(before) = before {
            let after = GreedyCounts::read(&world.orch.obs);
            after.record_since(before, tr);
            let fills = self.0.peerings * trace.after_each_prefix.len().max(1);
            let reused = (after.fill_reused - before.fill_reused) as f64 / fills as f64;
            tr.value("core.incr_fill_reused_ratio", reused);
            let dirty = world.orch.obs.snapshot().gauge("core.incr_dirty_peerings");
            tr.value("core.incr_dirty_peerings", dirty.unwrap_or(0.0));
        }
        let outcome = RoundOutcome {
            seconds,
            digest: plan_digest(&config, &trace),
            quality: modeled_quality(&trace, &world.orch.inputs),
        };
        world.last = Some((config, trace));
        Ok(outcome)
    }

    /// The incremental result must equal a from-scratch plan of the same
    /// inputs, configuration and benefit curve both.
    fn verify(&self, world: &mut ReplanWorld) -> Result<(), String> {
        let scratch = Orchestrator::new(world.orch.inputs.clone(), world.orch.config.clone());
        let expected = scratch.compute_config_traced();
        if world.last.as_ref() == Some(&expected) {
            Ok(())
        } else {
            Err("incremental plan differs from the from-scratch plan of the same inputs".into())
        }
    }

    fn layers(&self, world: &mut ReplanWorld, tr: &mut Tracer) -> Result<(), String> {
        let prefixes = world.last.as_ref().map_or(0, |(_, t)| t.after_each_prefix.len());
        let compute_s = median(&tr.samples("core.incr_compute_s"));
        replay_greedy_layers(&world.orch, prefixes, compute_s, tr);
        Ok(())
    }
}
