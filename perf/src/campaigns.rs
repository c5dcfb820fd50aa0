//! `chaos-suite` and `soak-2day`: the two hand-written campaign drivers, on
//! the two-PoP harness world. One campaign takes well under 100 ms, so a
//! round runs several, each at its own sub-seed.

use crate::harness::{fnv, mean, median, RoundOutcome, Workload};
use crate::trace::Tracer;
use painter_bgp::dynamics::{BgpEngine, DynamicsConfig};
use painter_chaos::{program_bgp, program_tm, ScenarioSpec, Schedule, TmTarget, WorldView};
use painter_eval::chaos::{
    harness_world_view, run_campaign, standard_suite, CampaignOutcome, ChaosTiming,
};
use painter_eval::incidents::attribute;
use painter_eval::scenario::SALT;
use painter_eval::soak::{run_soak_with_config, SoakConfig, SoakOutcome};
use painter_eval::Scale;
use painter_eventsim::{derive_seed, SimTime};
use painter_geo::{metro, Region};
use painter_tm::{TmSimulation, TmSimulationConfig};
use painter_topology::{AsGraph, AsTier, Deployment, PeeringKind, Relationship};
use std::hint::black_box;

/// The harness world of `painter_eval::chaos` (private there), rebuilt for
/// the standalone layer replays: New York and London PoPs, two transit ISPs
/// at both, one enterprise stub behind two access ISPs, eight bystanders.
struct HarnessReplica {
    graph: AsGraph,
    deployment: Deployment,
    view: WorldView,
}

fn harness_replica() -> Result<HarnessReplica, String> {
    let find = |name: &str| {
        painter_geo::metro::all_metro_ids()
            .find(|&m| metro(m).name == name)
            .ok_or_else(|| format!("metro {name} missing"))
    };
    let (ny, lon) = (find("New York")?, find("London")?);
    let mut graph = AsGraph::new();
    let isp1 = graph.add_node(AsTier::Tier1, Region::NorthAmerica, vec![ny, lon], 1.05);
    let isp2 = graph.add_node(AsTier::Tier1, Region::Europe, vec![ny, lon], 1.15);
    let acc1 = graph.add_node(AsTier::Access, Region::NorthAmerica, vec![ny], 1.0);
    let acc2 = graph.add_node(AsTier::Access, Region::NorthAmerica, vec![ny], 1.1);
    let stub = graph.add_node(AsTier::Stub, Region::NorthAmerica, vec![ny], 1.0);
    graph.add_link(isp1, isp2, Relationship::PeerWith);
    for (provider, customer) in
        [(isp1, acc1), (isp2, acc1), (isp1, acc2), (isp2, acc2), (acc1, stub), (acc2, stub)]
    {
        graph.add_link(provider, customer, Relationship::ProviderOf);
    }
    for i in 0..8 {
        let bystander = graph.add_node(AsTier::Stub, Region::NorthAmerica, vec![ny], 1.0);
        graph.add_link(if i % 2 == 0 { acc1 } else { acc2 }, bystander, Relationship::ProviderOf);
    }
    let deployment = Deployment::from_parts(
        vec![ny, lon],
        vec![
            (0, isp1, PeeringKind::TransitProvider),
            (0, isp2, PeeringKind::TransitProvider),
            (1, isp1, PeeringKind::TransitProvider),
            (1, isp2, PeeringKind::TransitProvider),
        ],
    );
    // The harness publishes its compile view; a replica that drifted from
    // the harness would replay the wrong world.
    let view = harness_world_view();
    let ours = WorldView::from_deployment(&deployment, view.prefixes.clone());
    if (ours.pops, &ours.peerings) != (view.pops, &view.peerings) {
        return Err("harness replica no longer matches painter_eval's harness world".into());
    }
    Ok(HarnessReplica { graph, deployment, view })
}

/// Replays the control plane of `schedule` alone: one BGP engine through
/// warm-up and then the faults. Returns the wall time of both.
fn replay_bgp(
    world: &HarnessReplica,
    schedule: &Schedule,
    warmup_s: f64,
    seed: u64,
    tr: &mut Tracer,
) -> f64 {
    let dynamics = DynamicsConfig { proc_delay_ms: (30.0, 400.0), mrai_secs: (2.0, 8.0), seed };
    let (mut engine, warm_s) = tr.span("bgp.engine_warmup_s", |_| {
        let mut engine = BgpEngine::new(&world.graph, &world.deployment, dynamics, SALT);
        for (prefix, peerings) in &world.view.prefixes {
            for &pe in peerings {
                engine.announce(SimTime::ZERO, *prefix, pe);
            }
        }
        program_bgp(schedule, &mut engine);
        engine.run_until(SimTime::from_secs(warmup_s));
        engine
    });
    let (_, faults_s) = tr.span("bgp.engine_faults_s", |_| engine.run_until(schedule.horizon));
    let updates = engine.churn().len() as f64;
    tr.value("bgp.updates", updates);
    tr.value("bgp.updates_per_s", updates / (warm_s + faults_s));
    warm_s + faults_s
}

/// Replays the data plane of `schedule` alone: one Traffic Manager run with
/// all five harness paths.
fn replay_tm(world: &HarnessReplica, schedule: &Schedule, seed: u64, tr: &mut Tracer) {
    let (packets, sim_s) = tr.span("tm.sim_s", |_| {
        let mut tm = TmSimulation::new(TmSimulationConfig { seed, ..Default::default() });
        let targets: Vec<TmTarget> = world
            .view
            .prefixes
            .iter()
            .enumerate()
            .map(|(idx, (prefix, peerings))| {
                let base_rtt_ms = 20.0 + 5.0 * idx as f64;
                let pop = world.deployment.peering(peerings[0]).pop;
                TmTarget { tunnel: tm.add_path(*prefix, pop, base_rtt_ms), base_rtt_ms }
            })
            .collect();
        program_tm(schedule, &mut tm, &targets);
        tm.run(schedule.horizon);
        tm.records().len()
    });
    tr.value("tm.packets", packets as f64);
    tr.value("tm.packets_per_s", packets as f64 / sim_s);
}

/// `chaos-suite`: the standard campaigns through `run_campaign`.
pub struct ChaosSuite {
    /// How many of the standard suite's campaigns (pop-outage, bgp-churn,
    /// multi-fault) a suite runs.
    pub campaigns: usize,
    /// Suites per round.
    pub suites: usize,
    pub epochs: usize,
}

impl ChaosSuite {
    pub const FULL: ChaosSuite = ChaosSuite { campaigns: 3, suites: 2, epochs: 5 };
    pub const SMOKE: ChaosSuite = ChaosSuite { campaigns: 1, suites: 1, epochs: 1 };
}

pub struct ChaosWorld {
    timing: ChaosTiming,
    specs: Vec<ScenarioSpec>,
    seeds: Vec<u64>,
    /// The last campaign of the last round, kept for the attribution replay.
    recorded: Option<CampaignOutcome>,
}

impl Workload for ChaosSuite {
    type World = ChaosWorld;

    fn epochs(&self) -> usize {
        self.epochs
    }

    fn setup(&self, seed: u64, _tr: &mut Tracer) -> Result<ChaosWorld, String> {
        let timing = ChaosTiming::for_scale(Scale::Test);
        let mut specs = standard_suite(&timing);
        specs.truncate(self.campaigns);
        let seeds = (0..self.suites as u64).map(|i| derive_seed(seed, i)).collect();
        Ok(ChaosWorld { timing, specs, seeds, recorded: None })
    }

    fn round(&self, world: &mut ChaosWorld, tr: &mut Tracer) -> Result<RoundOutcome, String> {
        let (timing, specs, seeds) = (&world.timing, &world.specs, &world.seeds);
        let (outcomes, seconds) = tr.span("round", |tr| {
            let mut outcomes = Vec::new();
            for &seed in seeds {
                for spec in specs {
                    let name = format!("eval.campaign_s.{}", spec.name);
                    outcomes.push(tr.span(&name, |_| run_campaign(spec, timing, seed)).0?);
                }
            }
            Ok::<_, String>(outcomes)
        });
        let outcomes = outcomes?;
        let mut words = Vec::new();
        for o in &outcomes {
            words.push(o.schedule.trace_digest());
            words.extend(o.scorecards().iter().flat_map(|s| [s.requests, s.completed]));
            // The closed loop starts from the fixed plan and only repairs it.
            // A repair it tries and rolls back costs a few requests (0.15% at
            // some seeds), so it may trail the fixed plan by that, not more.
            if o.schedule.name == "multi-fault"
                && o.closed_loop.availability() < o.painter.availability() - 0.01
            {
                return Err(format!(
                    "multi-fault: closed loop {} below fixed plan {}",
                    o.closed_loop.availability(),
                    o.painter.availability()
                ));
            }
        }
        let quality =
            mean(&outcomes.iter().map(|o| o.closed_loop.availability()).collect::<Vec<_>>());
        world.recorded = outcomes.into_iter().last();
        Ok(RoundOutcome { seconds, digest: fnv(&words), quality })
    }

    fn layers(&self, world: &mut ChaosWorld, tr: &mut Tracer) -> Result<(), String> {
        let replica = harness_replica()?;
        let spec = world.specs.last().ok_or("no campaign spec")?;
        let seed = world.seeds[0];
        let (schedule, _) =
            tr.span("chaos.compile_s", |_| Schedule::compile(spec, &replica.view, seed));
        let schedule = schedule?;
        replay_bgp(&replica, &schedule, world.timing.warmup_s, seed, tr);
        replay_tm(&replica, &schedule, seed, tr);
        if let Some(o) = &world.recorded {
            tr.span("eval.attribute_s", |_| {
                black_box(attribute(spec, &o.schedule, &o.events, &[]));
            });
        }
        // One campaign drives one BGP engine and four Traffic Manager runs;
        // what the standalone layers do not explain is the driver's own.
        let campaign_s = mean(
            &world
                .specs
                .iter()
                .map(|s| median(&tr.samples(&format!("eval.campaign_s.{}", s.name))))
                .collect::<Vec<_>>(),
        );
        let layer = |tr: &Tracer, name| median(&tr.samples(name));
        let explained = layer(tr, "chaos.compile_s")
            + layer(tr, "bgp.engine_warmup_s")
            + layer(tr, "bgp.engine_faults_s")
            + 4.0 * layer(tr, "tm.sim_s")
            + layer(tr, "eval.attribute_s");
        tr.value("eval.campaign_glue_s", (campaign_s - explained).max(0.0));
        tr.value("eval.campaign_virt_per_wall", world.timing.horizon_s / campaign_s);
        Ok(())
    }
}

/// `soak-2day`: the days-long campaign on the 1 s tick, with the arbiter.
pub struct Soak2Day {
    pub days: u32,
    pub day_s: f64,
    /// Campaigns per round.
    pub campaigns: usize,
    pub epochs: usize,
}

impl Soak2Day {
    /// `SoakConfig::for_scale(Scale::Test)`: two three-hour days.
    pub const FULL: Soak2Day = Soak2Day { days: 2, day_s: 10_800.0, campaigns: 5, epochs: 5 };
    pub const SMOKE: Soak2Day = Soak2Day { days: 1, day_s: 900.0, campaigns: 1, epochs: 1 };
}

pub struct SoakWorld {
    config: SoakConfig,
    seeds: Vec<u64>,
    recorded: Option<SoakOutcome>,
}

impl Workload for Soak2Day {
    type World = SoakWorld;

    fn epochs(&self) -> usize {
        self.epochs
    }

    fn setup(&self, seed: u64, _tr: &mut Tracer) -> Result<SoakWorld, String> {
        let config =
            SoakConfig { days: self.days, day_s: self.day_s, ..SoakConfig::for_scale(Scale::Test) };
        let seeds = (0..self.campaigns as u64).map(|i| derive_seed(seed, i)).collect();
        Ok(SoakWorld { config, seeds, recorded: None })
    }

    fn round(&self, world: &mut SoakWorld, tr: &mut Tracer) -> Result<RoundOutcome, String> {
        let (config, seeds) = (&world.config, &world.seeds);
        let (outcomes, seconds) = tr.span("round", |_| {
            seeds.iter().map(|&s| run_soak_with_config(config, s)).collect::<Result<Vec<_>, _>>()
        });
        let outcomes = outcomes?;
        let words: Vec<u64> = outcomes.iter().flat_map(|o| [o.trace_fnv1a, o.rows_fnv1a]).collect();
        let days: Vec<f64> =
            outcomes.iter().flat_map(|o| o.day_stats.iter().map(|d| d.availability_loop)).collect();
        world.recorded = outcomes.into_iter().last();
        Ok(RoundOutcome { seconds, digest: fnv(&words), quality: mean(&days) })
    }

    fn layers(&self, world: &mut SoakWorld, tr: &mut Tracer) -> Result<(), String> {
        let campaign_s = median(&tr.samples("round")) / world.seeds.len() as f64;
        let horizon_s = world.config.horizon_s();
        tr.value("eval.soak_day_s", campaign_s / f64::from(world.config.days));
        tr.value("eval.soak_ticks_per_s", horizon_s / campaign_s);

        let replica = harness_replica()?;
        let recorded = world.recorded.as_ref().ok_or("no soak campaign recorded")?;
        let spec = ScenarioSpec::from_json(&recorded.spec_json)?;
        let seed = world.seeds[0];
        let (schedule, compile_s) =
            tr.span("chaos.compile_s", |_| Schedule::compile(&spec, &replica.view, seed));
        let schedule = schedule?;
        // The soak drives two BGP engines (fixed plan and repairs) and no
        // packet-level Traffic Manager.
        let bgp_s = replay_bgp(&replica, &schedule, 30.0, seed, tr);
        tr.value("eval.soak_glue_s", (campaign_s - compile_s - 2.0 * bgp_s).max(0.0));
        Ok(())
    }
}
