//! `lp-exact`: the exact placement LP against the greedy-restricted one, on
//! capacitated azure-like Test worlds. One world solves in milliseconds, so
//! a round solves a batch of worlds, each from its own sub-seed.

use crate::harness::{fnv, RoundOutcome, Workload};
use crate::trace::Tracer;
use painter_bgp::AdvertConfig;
use painter_core::{Orchestrator, OrchestratorConfig, OrchestratorInputs};
use painter_eval::helpers::world_direct;
use painter_eval::scenario::SALT;
use painter_eval::{Scale, Scenario};
use painter_eventsim::derive_seed;
use painter_measure::GroundTruth;
use painter_solve::FlowInstance;
use painter_topology::{CapacityConfig, CapacityPlan};
use std::hint::black_box;

#[derive(Debug, Clone, Copy)]
pub struct LpSize {
    /// Worlds solved per round.
    pub instances: usize,
    /// Keep only this many of the heaviest UGs of each world.
    pub max_ugs: usize,
    /// Keep only each UG's best candidates.
    pub max_options: usize,
    pub epochs: usize,
}

impl LpSize {
    /// All 220 UGs of the Test world, eight options each: a world solves in
    /// under 10 ms, so the option cap cannot bring one solve to the 0.3 s the
    /// issue asks of a round; 40 worlds per round do.
    pub const FULL: LpSize =
        LpSize { instances: 40, max_ugs: usize::MAX, max_options: 8, epochs: 4 };
    pub const SMOKE: LpSize = LpSize { instances: 2, max_ugs: 40, max_options: 4, epochs: 1 };
}

pub struct LpExact(pub LpSize);

/// One capacitated world and the greedy plan on it.
struct Instance {
    inputs: OrchestratorInputs,
    advert: AdvertConfig,
}

pub struct LpWorld {
    instances: Vec<Instance>,
    /// The first instance's scenario, kept for the ground-truth replay.
    scenario: Scenario,
}

/// Keeps the `max_ugs` heaviest UGs and each one's `max_options` candidates
/// that improve most on anycast.
fn bounded(inputs: &OrchestratorInputs, max_ugs: usize, max_options: usize) -> OrchestratorInputs {
    let mut order: Vec<usize> = (0..inputs.ugs.len()).collect();
    order.sort_by(|&a, &b| inputs.ugs[b].weight.total_cmp(&inputs.ugs[a].weight).then(a.cmp(&b)));
    order.truncate(max_ugs);
    order.sort_unstable();
    let ugs = order
        .iter()
        .map(|&i| {
            let mut u = inputs.ugs[i].clone();
            u.candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            u.candidates.truncate(max_options);
            u.candidates.sort_unstable_by_key(|&(p, _)| p);
            u
        })
        .collect();
    OrchestratorInputs {
        ugs,
        ug_pop_km: order.iter().map(|&i| inputs.ug_pop_km[i].clone()).collect(),
        peering_pop: inputs.peering_pop.clone(),
        peering_count: inputs.peering_count,
        capacities: None,
    }
}

fn build_instance(
    size: LpSize,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(Instance, Scenario), String> {
    let (scenario, _) =
        tr.span("topology.scenario_build_s", |_| Scenario::azure_like(Scale::Test, seed));
    let inputs = bounded(&world_direct(&scenario).inputs, size.max_ugs, size.max_options);
    let plan = CapacityPlan::generate(
        &scenario.deployment,
        &CapacityConfig { seed, ..Default::default() },
    )
    .normalized(inputs.total_weight(), 2.0);
    let inputs = inputs.with_capacities(plan.into_vec());
    let budget = ((inputs.peering_count as f64 * 0.15).round() as usize).max(2);
    let orch = Orchestrator::new(
        inputs.clone(),
        OrchestratorConfig { prefix_budget: budget, threads: Some(1), ..Default::default() },
    );
    let advert = orch.compute_config();
    if advert.prefix_count() == 0 {
        return Err(format!("greedy planned an empty advertisement at seed {seed}"));
    }
    Ok((Instance { inputs, advert }, scenario))
}

impl Workload for LpExact {
    type World = LpWorld;

    fn epochs(&self) -> usize {
        self.0.epochs
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<LpWorld, String> {
        let mut instances = Vec::with_capacity(self.0.instances);
        let mut first = None;
        for i in 0..self.0.instances as u64 {
            let (instance, scenario) = build_instance(self.0, derive_seed(seed, i), tr)?;
            instances.push(instance);
            first.get_or_insert(scenario);
        }
        Ok(LpWorld { instances, scenario: first.ok_or("lp-exact needs at least one instance")? })
    }

    fn round(&self, world: &mut LpWorld, tr: &mut Tracer) -> Result<RoundOutcome, String> {
        let instances = &world.instances;
        let (solved, seconds) = tr.span("round", |tr| {
            let mut solved = Vec::with_capacity(instances.len());
            let mut solve_s = 0.0;
            for inst in instances {
                let (exact, _) = tr.span("solve.build_s", |_| FlowInstance::exact(&inst.inputs));
                let (exact, exact_s) = tr.span("solve.exact_s", |_| exact.solve_placement());
                let (restricted, _) = tr.span("solve.build_s", |_| {
                    FlowInstance::restricted(&inst.inputs, &inst.advert)
                });
                let (restricted, restricted_s) =
                    tr.span("solve.restricted_s", |_| restricted.solve_placement());
                solve_s += exact_s + restricted_s;
                solved.push((
                    exact.map_err(|e| format!("exact solve failed: {e}"))?,
                    restricted.map_err(|e| format!("restricted solve failed: {e}"))?,
                ));
            }
            Ok::<_, String>((solved, solve_s))
        });
        let (solved, solve_s) = solved?;
        let mut words = Vec::new();
        let (mut exact_sum, mut restricted_sum) = (0.0, 0.0);
        let (mut pivots, mut phase1, mut vars, mut rows) = (0u64, 0u64, 0usize, 0usize);
        for (exact, restricted) in &solved {
            if restricted.benefit > exact.benefit + 1e-6 {
                return Err(format!(
                    "restricted benefit {} exceeds exact {}",
                    restricted.benefit, exact.benefit
                ));
            }
            if exact.mlu > 1.0 + 1e-9 || restricted.mlu > 1.0 + 1e-9 {
                return Err(format!(
                    "placement overloads a link: mlu {} / {}",
                    exact.mlu, restricted.mlu
                ));
            }
            words.extend([exact.benefit.to_bits(), restricted.benefit.to_bits()]);
            words.extend([exact.pivots, restricted.pivots]);
            exact_sum += exact.benefit;
            restricted_sum += restricted.benefit;
            pivots += exact.pivots + restricted.pivots;
            phase1 += exact.phase1_pivots + restricted.phase1_pivots;
            vars += exact.vars;
            rows += exact.rows;
        }
        if tr.enabled() {
            tr.value("solve.pivots", pivots as f64);
            tr.value("solve.phase1_pivots", phase1 as f64);
            tr.value("solve.s_per_pivot", solve_s / pivots.max(1) as f64);
            tr.value("solve.vars", vars as f64);
            tr.value("solve.rows", rows as f64);
        }
        Ok(RoundOutcome { seconds, digest: fnv(&words), quality: restricted_sum / exact_sum })
    }

    fn layers(&self, world: &mut LpWorld, tr: &mut Tracer) -> Result<(), String> {
        let s = &world.scenario;
        tr.span("measure.ground_truth_s", |_| {
            black_box(GroundTruth::compute(&s.net.graph, &s.deployment, &s.ugs, SALT));
        });
        Ok(())
    }
}
