//! `learn-loop`: Algorithm 1's advertise→measure→learn iterations on a
//! generated Internet, against the ground-truth oracle.

use crate::harness::{advert_words, fnv, RoundOutcome, Workload};
use crate::trace::Tracer;
use painter_bgp::AdvertConfig;
use painter_core::{
    AdvertEnvironment, BenefitArena, ConfigEvaluator, GroundTruthEnv, Observations, Orchestrator,
    OrchestratorConfig,
};
use painter_eval::helpers::{all_peerings, world_direct};
use painter_eval::scenario::SALT;
use painter_eval::Scenario;
use painter_measure::{GroundTruth, UgId};
use painter_topology::{DeploymentConfig, TopologyConfig};
use std::hint::black_box;

/// Size of the generated Internet and of the PEERING-like deployment on it.
#[derive(Debug, Clone, Copy)]
pub struct LearnSize {
    pub tier1: usize,
    pub transit_per_region: usize,
    pub access_per_region: usize,
    pub stubs: usize,
    pub pops: usize,
    pub epochs: usize,
}

impl LearnSize {
    /// `Scenario::peering_like(Scale::Paper)` takes 8 s a round on the
    /// reference host and the issue's fallback (800 stubs, 16 PoPs) 2 s, too
    /// long for several worlds in one run; this is the largest world whose
    /// round stays near half a second.
    pub const FULL: LearnSize = LearnSize {
        tier1: 8,
        transit_per_region: 5,
        access_per_region: 16,
        stubs: 500,
        pops: 14,
        epochs: 30,
    };
    pub const SMOKE: LearnSize = LearnSize {
        tier1: 4,
        transit_per_region: 3,
        access_per_region: 6,
        stubs: 80,
        pops: 8,
        epochs: 1,
    };
}

pub struct LearnLoop(pub LearnSize);

pub struct LearnWorld {
    scenario: Scenario,
    config: OrchestratorConfig,
    ug_ids: Vec<UgId>,
}

/// Wraps the measurement environment so each `execute` is a span.
struct SpannedEnv<'t, E> {
    inner: E,
    tr: &'t mut Tracer,
}

impl<E: AdvertEnvironment> AdvertEnvironment for SpannedEnv<'_, E> {
    fn execute(&mut self, config: &AdvertConfig) -> Observations {
        let inner = &mut self.inner;
        self.tr.span("measure.execute_s", |_| inner.execute(config)).0
    }
}

impl Workload for LearnLoop {
    type World = LearnWorld;

    fn epochs(&self) -> usize {
        self.0.epochs
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<LearnWorld, String> {
        let s = self.0;
        let (scenario, _) = tr.span("topology.scenario_build_s", |_| {
            Scenario::build(
                TopologyConfig {
                    seed,
                    num_tier1: s.tier1,
                    transit_per_region: s.transit_per_region,
                    access_per_region: s.access_per_region,
                    num_stubs: s.stubs,
                    ..Default::default()
                },
                // The prototype's broad peering, as `peering_like(Scale::Paper)`.
                DeploymentConfig {
                    seed,
                    num_pops: s.pops,
                    num_transit_providers: 3,
                    peer_prob_transit: 0.7,
                    peer_prob_access: 0.55,
                    ..Default::default()
                },
                seed,
            )
        });
        let budget = ((scenario.ingress_count() as f64 * 0.15).round() as usize).max(1);
        let config = OrchestratorConfig {
            prefix_budget: budget,
            max_iterations: 3,
            // Always three iterations: an early stop would make a round's
            // work depend on the seed.
            convergence_threshold: f64::NEG_INFINITY,
            threads: Some(1),
            ..Default::default()
        };
        let ug_ids = scenario.ugs.iter().map(|u| u.id).collect();
        Ok(LearnWorld { scenario, config, ug_ids })
    }

    fn round(&self, world: &mut LearnWorld, tr: &mut Tracer) -> Result<RoundOutcome, String> {
        // Untimed: a fresh oracle, so its route-table cache is cold.
        let mut truth = world_direct(&world.scenario);
        let possible = truth.inputs.total_possible_benefit();
        let mut orch = Orchestrator::new(truth.inputs, world.config.clone());
        let env = GroundTruthEnv::new(&mut truth.gt, world.ug_ids.clone());
        let (report, seconds) = tr.span("round", |tr| {
            let mut env = SpannedEnv { inner: env, tr };
            orch.run(&mut env)
        });
        let measured = report.iterations.last().map_or(0.0, |i| i.measured_benefit);
        if report.iterations.len() != 3 || report.final_config.pair_count() == 0 {
            return Err(format!(
                "learning loop ran {} iterations and advertised {} pairs",
                report.iterations.len(),
                report.final_config.pair_count()
            ));
        }
        Ok(RoundOutcome {
            seconds,
            digest: fnv(&[fnv(&advert_words(&report.final_config)), measured.to_bits()]),
            quality: (measured / possible).clamp(0.0, 1.0),
        })
    }

    fn layers(&self, world: &mut LearnWorld, tr: &mut Tracer) -> Result<(), String> {
        let s = &world.scenario;
        tr.span("measure.ground_truth_s", |_| {
            black_box(GroundTruth::compute(&s.net.graph, &s.deployment, &s.ugs, SALT));
        });
        tr.span("bgp.solve_s", |_| {
            black_box(painter_bgp::solve::solve(
                &s.net.graph,
                &s.deployment,
                &all_peerings(s),
                SALT,
            ));
        });
        let mut truth = world_direct(s);
        let mut orch = Orchestrator::new(truth.inputs, world.config.clone());
        let (config, compute_s) = tr.span("core.compute_config_s", |_| orch.compute_config());
        let (arena, arena_s) =
            tr.span("core.arena_build_s", |_| BenefitArena::from_inputs(&orch.inputs));
        let (_, fill_s) = tr.span("core.fill_s", |_| black_box(orch.fill_scores_arena(&arena)));
        let fills = config.prefix_count() as f64 * fill_s;
        tr.value("core.greedy_rest_s", (compute_s - arena_s - fills).max(0.0));
        tr.span("core.benefit_eval_s", |_| {
            black_box(ConfigEvaluator::new(&orch.inputs, &orch.model).benefit_range(&config));
        });
        let observed = GroundTruthEnv::new(&mut truth.gt, world.ug_ids.clone()).execute(&config);
        tr.span("core.learn_s", |_| black_box(orch.learn(&config, &observed)));
        Ok(())
    }
}
