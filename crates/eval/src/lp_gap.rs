//! LP/MCF optimality-gap harness (`figures lp-gap`, `lp.*` sections).
//!
//! The paper evaluates PAINTER's greedy One-per-Peering heuristic but
//! never against an exact baseline. This harness closes that gap with
//! `painter-solve`: on each scenario it generates per-peering capacities
//! ([`CapacityPlan`]), plans the greedy advertisement, then solves two
//! linear programs over the *same* coefficient model —
//!
//! * **exact** ([`FlowInstance::exact`]): every candidate peering is an
//!   option (unbudgeted), the true optimum of capacity-aware placement;
//! * **greedy** ([`FlowInstance::restricted`]): only the (prefix,
//!   peering) pairs the greedy [`AdvertConfig`] actually advertises.
//!
//! The restricted option set is a subset of the exact one, so
//! `exact_benefit >= greedy_benefit` on every instance and the reported
//! `gap_pct` is never negative. Alongside the gap, each scenario reports
//! the max link utilization of capacity-blind placement (`mlu_before`,
//! may exceed 1) against the LP's lexicographic latency-then-MLU optimum
//! (`mlu_after`, never exceeds 1).
//!
//! The `flash-crowd` scenario compiles a [`FaultKind::FlashCrowd`]
//! campaign: a seeded UG cohort multiplies its demand mid-run, and the
//! harness compares how a greedy plan fares when traffic follows
//! latency blindly (overload, MLU > 1) versus capacity-aware spill
//! placement and the restricted LP (both hold MLU <= 1) — the
//! `chaos.flash-crowd.flashcrowd` section. The LP's placement is then
//! *delivered*: its per-prefix splits become WCMP weights on per-UG
//! tunnel sets and a deterministic packet train runs through
//! [`MultipathScheduler`] against a latency-only scheduler, closing the
//! promise-vs-delivery loop in the `lp.delivered` section. Everything
//! downstream of the seed is deterministic; the `replay-determinism` CI job
//! byte-compares two same-seed runs.

use crate::helpers::world_direct;
use crate::scenario::{Scale, Scenario};
use painter_bgp::{AdvertConfig, PrefixId};
use painter_chaos::{
    surge_cohort, FaultEvent, FaultKind, FaultSpec, ScenarioSpec, Schedule, Target, WorldView,
};
use painter_core::{
    ConfigEvaluator, Orchestrator, OrchestratorConfig, OrchestratorInputs, PlacementMode,
    RoutingModel,
};
use painter_obs::Section;
use painter_solve::{FlowInstance, PlacementSolution};
use painter_tm::{wcmp_weights, EdgeConfig, MultipathScheduler, TmEdge, TunnelId};
use painter_topology::{CapacityConfig, CapacityPlan};

/// Deterministic packets per UG in the delivered-load replay.
const DELIVERED_PACKETS: usize = 200;
/// Sentinel prefix for the anycast fallback tunnel (never appears in
/// `prefix_splits`, so `wcmp_weights` gives it 0 and the explicit
/// leftover weight is installed on top).
const ANYCAST_SENTINEL: PrefixId = PrefixId(u16::MAX);

/// Knobs for one [`run_lp_gap`]: instance bounds, capacity headroom, and
/// the flash-crowd shape.
#[derive(Debug, Clone, Copy)]
pub struct LpGapConfig {
    /// Master seed: capacities, greedy tie-breaks, and the surge cohort
    /// all derive from it.
    pub seed: u64,
    /// Total capacity as a multiple of total demand in the gap
    /// scenarios (scarce enough that capacity binds, loose enough that
    /// the greedy plan stays feasible).
    pub headroom: f64,
    /// Tighter headroom for the flash-crowd world, so the surge is what
    /// overloads it.
    pub surge_headroom: f64,
    /// Demand multiplier of the surging cohort.
    pub surge_factor: f64,
    /// Fraction of the UG population that surges.
    pub surge_fraction: f64,
    /// Keep only the `max_ugs` heaviest UGs (the dense simplex tableau
    /// is quadratic in instance size; the kept share is reported).
    pub max_ugs: usize,
    /// Keep only each UG's `max_options` best candidate peerings.
    pub max_options: usize,
    /// Greedy prefix budget as a percentage of the ingress count (the
    /// paper's ~15% operating point).
    pub budget_pct: f64,
}

impl LpGapConfig {
    /// Scale-appropriate defaults: Test keeps instances debug-build
    /// sized, Paper widens them (run in release).
    pub fn for_scale(scale: Scale, seed: u64) -> LpGapConfig {
        let (max_ugs, max_options) = match scale {
            Scale::Test | Scale::Soak => (120, 5),
            Scale::Paper => (360, 8),
        };
        LpGapConfig {
            seed,
            headroom: 2.0,
            surge_headroom: 1.25,
            surge_factor: 6.0,
            surge_fraction: 0.35,
            max_ugs,
            max_options,
            budget_pct: 15.0,
        }
    }
}

/// One scenario's exact-vs-greedy comparison.
#[derive(Debug, Clone)]
pub struct GapOutcome {
    pub name: &'static str,
    /// UGs in the (subsampled) instance.
    pub ugs: usize,
    /// Share of the scenario's total demand the kept UGs carry (%).
    pub demand_kept_pct: f64,
    pub peerings: usize,
    /// Greedy prefix budget used.
    pub budget: usize,
    /// The unbudgeted optimum.
    pub exact: PlacementSolution,
    /// The LP restricted to the greedy advertisement.
    pub greedy: PlacementSolution,
    /// MLU of capacity-blind placement onto the greedy plan.
    pub mlu_before: f64,
    /// UGs the exact optimum fractionally splits across >1 option.
    pub split_ugs: usize,
}

impl GapOutcome {
    /// Greedy optimality gap in percent of the exact benefit (>= 0 by
    /// construction).
    pub fn gap_pct(&self) -> f64 {
        if self.exact.benefit <= 0.0 {
            return 0.0;
        }
        ((self.exact.benefit - self.greedy.benefit) / self.exact.benefit * 100.0).max(0.0)
    }

    /// The `lp.<name>` report section.
    pub fn section(&self) -> Section {
        Section::new(format!("lp.{}", self.name))
            .field("ugs", self.ugs)
            .field("demand_kept_pct", self.demand_kept_pct)
            .field("peerings", self.peerings)
            .field("budget", self.budget)
            .field("vars", self.exact.vars)
            .field("rows", self.exact.rows)
            .field("exact_benefit", self.exact.benefit)
            .field("exact_mlu", self.exact.mlu)
            .field("exact_pivots", self.exact.pivots)
            .field("greedy_benefit", self.greedy.benefit)
            .field("greedy_mlu", self.greedy.mlu)
            .field("greedy_pivots", self.greedy.pivots)
            .field("phase1_pivots", self.exact.phase1_pivots + self.greedy.phase1_pivots)
            .field("gap_pct", self.gap_pct())
            .field("mlu_before", self.mlu_before)
            .field("mlu_after", self.greedy.mlu)
            .field("split_ugs", self.split_ugs)
    }
}

/// The flash-crowd comparison: the same greedy plan under surged demand,
/// placed three ways.
#[derive(Debug, Clone)]
pub struct FlashCrowdOutcome {
    pub factor: f64,
    pub fraction: f64,
    /// UGs in the surging cohort.
    pub cohort_ugs: usize,
    /// Demand share of the cohort pre-surge (%).
    pub cohort_weight_pct: f64,
    /// Capacity-blind placement: benefit and (overloaded) MLU.
    pub latency_benefit: f64,
    pub latency_mlu: f64,
    pub latency_overload: f64,
    /// Capacity-aware water-filling on the same plan.
    pub aware_benefit: f64,
    pub aware_mlu: f64,
    /// The restricted LP optimum under the surged demand.
    pub lp_benefit: f64,
    pub lp_mlu: f64,
}

impl FlashCrowdOutcome {
    /// Whether capacity-aware placement absorbed the surge the blind
    /// placement could not (the acceptance condition).
    pub fn absorbed(&self) -> bool {
        self.latency_mlu > 1.0 && self.aware_mlu <= 1.0 + 1e-9 && self.aware_mlu < self.latency_mlu
    }

    /// The `chaos.flash-crowd.flashcrowd` report section.
    pub fn section(&self) -> Section {
        Section::new("chaos.flash-crowd.flashcrowd")
            .field("factor", self.factor)
            .field("fraction", self.fraction)
            .field("cohort_ugs", self.cohort_ugs)
            .field("cohort_weight_pct", self.cohort_weight_pct)
            .field("latency_benefit", self.latency_benefit)
            .field("latency_mlu", self.latency_mlu)
            .field("latency_overload", self.latency_overload)
            .field("aware_benefit", self.aware_benefit)
            .field("aware_mlu", self.aware_mlu)
            .field("lp_benefit", self.lp_benefit)
            .field("lp_mlu", self.lp_mlu)
            .field("absorbed", self.absorbed())
    }
}

/// The delivered-load replay of the flash-crowd segment: the restricted
/// LP's per-prefix splits are installed as WCMP weights on a per-UG
/// tunnel set ([`wcmp_weights`]) and a fixed deterministic packet train
/// is scheduled through [`MultipathScheduler`], against a latency-only
/// comparator that sends every packet down the lowest-RTT tunnel.
///
/// This is what the LP *promises* versus what a packet scheduler
/// *delivers*: WCMP steers at prefix granularity (each prefix lands on
/// the UG's single BGP-best peering for it), so intra-prefix splits the
/// LP made across peerings collapse onto one ingress and the delivered
/// MLU can sit slightly above `lp_mlu`. LP slack — demand the LP left
/// unplaced — stays on anycast, loading no capacitated peering, exactly
/// as the LP accounts it.
#[derive(Debug, Clone)]
pub struct DeliveredOutcome {
    /// UGs with at least one advertised option (the replayed set).
    pub ugs: usize,
    pub packets_per_ug: usize,
    /// Share of total demand WCMP leaves on anycast (LP slack + zero
    /// -option UGs), in percent.
    pub anycast_share_pct: f64,
    /// Delivered MLU / loss when packets follow the LP's WCMP weights.
    pub wcmp_mlu: f64,
    pub wcmp_loss_pct: f64,
    /// Delivered MLU / loss when every packet chases the lowest RTT.
    pub latency_mlu: f64,
    pub latency_loss_pct: f64,
    /// The MLU the LP promised on the same surged instance.
    pub lp_mlu: f64,
}

impl DeliveredOutcome {
    /// Whether the WCMP schedule delivered the surge the latency-only
    /// scheduler dropped: blind packets overload, WCMP packets track the
    /// LP's feasible placement.
    pub fn delivers(&self) -> bool {
        self.latency_mlu > 1.0
            && self.wcmp_mlu < self.latency_mlu
            && self.wcmp_loss_pct <= self.latency_loss_pct + 1e-9
    }

    /// The `lp.delivered` report section.
    pub fn section(&self) -> Section {
        Section::new("lp.delivered")
            .field("ugs", self.ugs)
            .field("packets_per_ug", self.packets_per_ug)
            .field("anycast_share_pct", self.anycast_share_pct)
            .field("wcmp_mlu", self.wcmp_mlu)
            .field("wcmp_loss_pct", self.wcmp_loss_pct)
            .field("latency_mlu", self.latency_mlu)
            .field("latency_loss_pct", self.latency_loss_pct)
            .field("lp_mlu", self.lp_mlu)
            .field("delivers", self.delivers())
    }
}

/// One finished lp-gap run.
#[derive(Debug, Clone)]
pub struct LpGapRun {
    pub scale: Scale,
    pub config: LpGapConfig,
    pub gaps: Vec<GapOutcome>,
    pub flash: FlashCrowdOutcome,
    pub delivered: DeliveredOutcome,
}

impl LpGapRun {
    /// The run as `lp.*` sections (config first, then one per scenario)
    /// plus the flash-crowd section.
    pub fn sections(&self) -> Vec<Section> {
        let mut out = vec![Section::new("lp.config")
            .field("seed", self.config.seed)
            .field("headroom", self.config.headroom)
            .field("surge_headroom", self.config.surge_headroom)
            .field("surge_factor", self.config.surge_factor)
            .field("surge_fraction", self.config.surge_fraction)
            .field("max_ugs", self.config.max_ugs)
            .field("max_options", self.config.max_options)
            .field("budget_pct", self.config.budget_pct)];
        out.extend(self.gaps.iter().map(GapOutcome::section));
        out.push(self.delivered.section());
        out.push(self.flash.section());
        out
    }
}

/// Runs the full lp-gap suite: the azure-like and peering-like worlds at
/// gap headroom, then the flash-crowd campaign on the peering world.
pub fn run_lp_gap(scale: Scale, config: LpGapConfig) -> Result<LpGapRun, String> {
    let azure = Scenario::azure_like(scale, config.seed);
    let peering = Scenario::peering_like(scale, config.seed);
    let gaps =
        vec![scenario_gap("azure", &azure, &config)?, scenario_gap("peering", &peering, &config)?];
    let (flash, delivered) = flash_crowd(&peering, &config)?;
    Ok(LpGapRun { scale, config, gaps, flash, delivered })
}

/// [`run_lp_gap`] rendered straight to sections for the figures binary.
pub fn lp_gap_sections(scale: Scale, seed: u64) -> Result<Vec<Section>, String> {
    Ok(run_lp_gap(scale, LpGapConfig::for_scale(scale, seed))?.sections())
}

/// Builds a capacitated, bounded instance of one scenario and plans the
/// greedy advertisement on it.
fn capacitated_world(
    s: &Scenario,
    config: &LpGapConfig,
    headroom: f64,
) -> Result<(OrchestratorInputs, AdvertConfig, usize, f64), String> {
    let world = world_direct(s);
    let (mut inputs, demand_kept_pct) =
        subsample(&world.inputs, config.max_ugs, config.max_options);
    let plan = CapacityPlan::generate(
        &s.deployment,
        &CapacityConfig { seed: config.seed, ..Default::default() },
    )
    .normalized(inputs.total_weight(), headroom);
    inputs = inputs.with_capacities(plan.into_vec());

    let budget = ((inputs.peering_count as f64 * config.budget_pct / 100.0).round() as usize)
        .clamp(2, inputs.peering_count.max(2));
    let orch = Orchestrator::new(
        inputs.clone(),
        OrchestratorConfig { prefix_budget: budget, threads: Some(1), ..Default::default() },
    );
    let advert = orch.compute_config();
    if advert.prefix_count() == 0 {
        return Err(format!("greedy planned an empty advertisement for {}", s.seed));
    }
    Ok((inputs, advert, budget, demand_kept_pct))
}

fn scenario_gap(
    name: &'static str,
    s: &Scenario,
    config: &LpGapConfig,
) -> Result<GapOutcome, String> {
    let (inputs, advert, budget, demand_kept_pct) = capacitated_world(s, config, config.headroom)?;

    let exact_inst = FlowInstance::exact(&inputs);
    let exact =
        exact_inst.solve_placement().map_err(|e| format!("lp.{name}: exact solve failed: {e}"))?;
    let greedy = FlowInstance::restricted(&inputs, &advert)
        .solve_placement()
        .map_err(|e| format!("lp.{name}: restricted solve failed: {e}"))?;

    // Capacity-blind placement of the greedy plan: the "before" MLU.
    let model = RoutingModel::new(f64::INFINITY);
    let evaluator = ConfigEvaluator::new(&inputs, &model);
    let mlu_before = evaluator.place(&advert, PlacementMode::LatencyOnly).mlu;

    let split_ugs =
        exact.splits.iter().filter(|s| s.iter().filter(|&&f| f > 1e-9).count() > 1).count();

    Ok(GapOutcome {
        name,
        ugs: inputs.ugs.len(),
        demand_kept_pct,
        peerings: inputs.peering_count,
        budget,
        exact,
        greedy,
        mlu_before,
        split_ugs,
    })
}

/// Compiles the flash-crowd campaign against the greedy plan's world and
/// compares blind, water-filling, and LP placement under the surge.
fn flash_crowd(
    s: &Scenario,
    config: &LpGapConfig,
) -> Result<(FlashCrowdOutcome, DeliveredOutcome), String> {
    let (inputs, advert, _, _) = capacitated_world(s, config, config.surge_headroom)?;

    // The surge cohort comes from the compiled chaos schedule, exactly as
    // a campaign replay would see it.
    let spec = ScenarioSpec::new("flash-crowd", 60.0).fault(
        FaultSpec::new(
            "surge",
            FaultKind::FlashCrowd { factor: config.surge_factor, fraction: config.surge_fraction },
            Target::All,
        )
        .at(10.0)
        .lasting(30.0),
    );
    let prefixes: Vec<_> = advert.iter().map(|(p, ps)| (p, ps.to_vec())).collect();
    let view = WorldView::from_deployment(&s.deployment, prefixes);
    let schedule = Schedule::compile(&spec, &view, config.seed)?;
    let Some(FaultEvent::SurgeStart { factor, fraction, cohort_seed }) = schedule
        .injections()
        .iter()
        .map(|i| i.event.clone())
        .find(|e| matches!(e, FaultEvent::SurgeStart { .. }))
    else {
        return Err("flash-crowd schedule compiled no SurgeStart".to_string());
    };
    let cohort = surge_cohort(inputs.ugs.len(), fraction, cohort_seed);
    let cohort_weight: f64 = cohort.iter().map(|&i| inputs.ugs[i].weight).sum();
    let total_weight = inputs.total_weight();

    // The operator planned `advert` before the surge; demand changes
    // under it.
    let mut surged = inputs.clone();
    for &i in &cohort {
        surged.ugs[i].weight *= factor;
    }

    let model = RoutingModel::new(f64::INFINITY);
    let evaluator = ConfigEvaluator::new(&surged, &model);
    let latency = evaluator.place(&advert, PlacementMode::LatencyOnly);
    let aware = evaluator.place(&advert, PlacementMode::CapacityAware);
    let inst = FlowInstance::restricted(&surged, &advert);
    let lp = inst.solve_placement().map_err(|e| format!("flash-crowd LP failed: {e}"))?;
    let delivered = delivered_replay(&surged, &inst, &lp);

    Ok((
        FlashCrowdOutcome {
            factor,
            fraction,
            cohort_ugs: cohort.len(),
            cohort_weight_pct: if total_weight > 0.0 {
                cohort_weight / total_weight * 100.0
            } else {
                0.0
            },
            latency_benefit: latency.benefit,
            latency_mlu: latency.mlu,
            latency_overload: latency.overload,
            aware_benefit: aware.benefit,
            aware_mlu: aware.mlu,
            lp_benefit: lp.benefit,
            lp_mlu: lp.mlu,
        },
        delivered,
    ))
}

/// Replays the surged demand as packets: per UG, one tunnel per
/// advertised prefix landing on the UG's BGP-best peering for that
/// prefix plus an anycast fallback tunnel, WCMP weights from the LP's
/// [`PlacementSolution::prefix_splits`] (anycast takes the LP's slack),
/// and [`DELIVERED_PACKETS`] equal-demand packets scheduled through the
/// smooth-WRR [`MultipathScheduler`]. The latency-only comparator sends
/// each UG's whole demand to its lowest-RTT tunnel. Offered load
/// accumulates per capacitated peering; anycast load is untracked, the
/// same accounting the LP uses.
fn delivered_replay(
    surged: &OrchestratorInputs,
    inst: &FlowInstance,
    lp: &PlacementSolution,
) -> DeliveredOutcome {
    let mut wcmp_offered = vec![0.0; inst.peering_count];
    let mut blind_offered = vec![0.0; inst.peering_count];
    let mut anycast_demand = 0.0;
    let mut total_demand = 0.0;
    let mut replayed = 0usize;

    for (i, u) in inst.ugs.iter().enumerate() {
        total_demand += u.demand;
        if u.demand <= 0.0 || u.options.is_empty() {
            anycast_demand += u.demand;
            continue;
        }
        replayed += 1;
        let anycast_ms = surged.ugs[u.ug].anycast_ms;

        // Per-prefix landing: WCMP steers prefixes, BGP picks the single
        // best peering each prefix reaches the UG through.
        let mut landing: Vec<(PrefixId, usize, f64)> = Vec::new();
        for o in &u.options {
            let Some(p) = o.prefix else { continue };
            match landing.iter_mut().find(|(q, _, _)| *q == p) {
                Some(l) => {
                    if o.improvement_ms > l.2 {
                        l.1 = o.peering;
                        l.2 = o.improvement_ms;
                    }
                }
                None => landing.push((p, o.peering, o.improvement_ms)),
            }
        }

        let mut edge = TmEdge::new(1, EdgeConfig::default());
        for (k, &(p, _, imp)) in landing.iter().enumerate() {
            edge.add_tunnel(p, 100 + k as u32, (anycast_ms - imp).max(0.1));
        }
        edge.add_tunnel(ANYCAST_SENTINEL, 99, anycast_ms.max(0.1));

        let splits = lp.prefix_splits(inst, i);
        let mut weights = wcmp_weights(&edge, &splits);
        let slack = (1.0 - splits.iter().map(|&(_, f)| f).sum::<f64>()).max(0.0);
        let anycast_slot = weights.len() - 1;
        weights[anycast_slot] = slack;
        anycast_demand += u.demand * slack;

        let per_packet = u.demand / DELIVERED_PACKETS as f64;
        let mut sched = MultipathScheduler::with_weights(weights);
        for _ in 0..DELIVERED_PACKETS {
            let Some(TunnelId(t)) = sched.next(&edge) else { break };
            if t < landing.len() {
                wcmp_offered[landing[t].1] += per_packet;
            }
        }

        // Latency-only: the whole UG chases its largest improvement.
        let best = landing
            .iter()
            .fold(None::<(usize, f64)>, |acc, &(_, peer, imp)| match acc {
                Some((_, best_imp)) if best_imp >= imp => acc,
                _ => Some((peer, imp)),
            })
            .expect("non-empty landing")
            .0;
        blind_offered[best] += u.demand;
    }

    let mlu_of = |offered: &[f64]| {
        offered
            .iter()
            .zip(&inst.capacities)
            .filter(|(_, c)| c.is_finite())
            .map(|(o, c)| o / c.max(f64::MIN_POSITIVE))
            .fold(0.0, f64::max)
    };
    let loss_of = |offered: &[f64]| {
        let spilled: f64 = offered
            .iter()
            .zip(&inst.capacities)
            .filter(|(_, c)| c.is_finite())
            .map(|(o, c)| (o - c).max(0.0))
            .sum();
        if total_demand > 0.0 {
            spilled / total_demand * 100.0
        } else {
            0.0
        }
    };

    DeliveredOutcome {
        ugs: replayed,
        packets_per_ug: DELIVERED_PACKETS,
        anycast_share_pct: if total_demand > 0.0 {
            anycast_demand / total_demand * 100.0
        } else {
            0.0
        },
        wcmp_mlu: mlu_of(&wcmp_offered),
        wcmp_loss_pct: loss_of(&wcmp_offered),
        latency_mlu: mlu_of(&blind_offered),
        latency_loss_pct: loss_of(&blind_offered),
        lp_mlu: lp.mlu,
    }
}

/// Keeps the `max_ugs` heaviest UGs (ties by index) and each kept UG's
/// `max_options` best candidates, returning the reduced inputs plus the
/// kept demand share in percent. Both LP instances, the greedy planner,
/// and the placement evaluator all consume the same reduction, so every
/// comparison stays apples-to-apples.
fn subsample(
    inputs: &OrchestratorInputs,
    max_ugs: usize,
    max_options: usize,
) -> (OrchestratorInputs, f64) {
    let total = inputs.total_weight();
    let mut order: Vec<usize> = (0..inputs.ugs.len()).collect();
    order.sort_by(|&a, &b| {
        let (wa, wb) = (inputs.ugs[a].weight, inputs.ugs[b].weight);
        wb.partial_cmp(&wa).expect("finite weight").then(a.cmp(&b))
    });
    order.truncate(max_ugs);
    order.sort_unstable();

    let mut ugs = Vec::with_capacity(order.len());
    let mut ug_pop_km = Vec::with_capacity(order.len());
    for &i in &order {
        let mut u = inputs.ugs[i].clone();
        let anycast = u.anycast_ms;
        u.candidates.sort_by(|a, b| {
            let (ia, ib) = (anycast - a.1, anycast - b.1);
            ib.partial_cmp(&ia).expect("finite latency").then(a.0.cmp(&b.0))
        });
        u.candidates.truncate(max_options);
        u.candidates.sort_unstable_by_key(|&(p, _)| p);
        ugs.push(u);
        ug_pop_km.push(inputs.ug_pop_km[i].clone());
    }
    let kept: f64 = ugs.iter().map(|u| u.weight).sum();
    let reduced = OrchestratorInputs {
        ugs,
        ug_pop_km,
        peering_pop: inputs.peering_pop.clone(),
        peering_count: inputs.peering_count,
        capacities: None,
    };
    let pct = if total > 0.0 { kept / total * 100.0 } else { 100.0 };
    (reduced, pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(seed: u64) -> LpGapConfig {
        // Small enough for debug-build CI, big enough that capacity binds.
        LpGapConfig { max_ugs: 40, max_options: 4, ..LpGapConfig::for_scale(Scale::Test, seed) }
    }

    #[test]
    fn exact_bounds_greedy_on_every_scenario() {
        let run = run_lp_gap(Scale::Test, tiny_config(1)).expect("lp gap run");
        assert_eq!(run.gaps.len(), 2);
        for gap in &run.gaps {
            assert!(
                gap.exact.benefit >= gap.greedy.benefit - 1e-6,
                "lp.{}: exact {} < greedy {}",
                gap.name,
                gap.exact.benefit,
                gap.greedy.benefit
            );
            assert!(gap.gap_pct() >= 0.0);
            assert!(gap.exact.mlu <= 1.0 + 1e-6, "lp.{}: exact mlu {}", gap.name, gap.exact.mlu);
            assert!(gap.greedy.mlu <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn flash_crowd_is_absorbed_only_by_capacity_aware_placement() {
        for seed in [1, 2] {
            let run = run_lp_gap(Scale::Test, tiny_config(seed)).expect("lp gap run");
            let f = &run.flash;
            assert!(f.latency_mlu > 1.0, "seed {seed}: surge did not overload: {}", f.latency_mlu);
            assert!(f.aware_mlu <= 1.0 + 1e-9, "seed {seed}: aware mlu {}", f.aware_mlu);
            assert!(f.aware_mlu < f.latency_mlu, "seed {seed}: no strict improvement");
            assert!(f.lp_mlu <= 1.0 + 1e-6, "seed {seed}: lp mlu {}", f.lp_mlu);
            // The LP never does worse than the water-filling heuristic on
            // the same option set.
            assert!(f.lp_benefit >= f.aware_benefit - 1e-6, "seed {seed}");
            assert!(f.absorbed(), "seed {seed}");
        }
    }

    #[test]
    fn wcmp_delivery_tracks_the_lp_where_latency_only_overloads() {
        for seed in [1, 2] {
            let run = run_lp_gap(Scale::Test, tiny_config(seed)).expect("lp gap run");
            let d = &run.delivered;
            assert!(d.ugs > 0, "seed {seed}: nothing replayed");
            assert!(
                d.latency_mlu > 1.0,
                "seed {seed}: latency-only packets did not overload: {}",
                d.latency_mlu
            );
            assert!(
                d.wcmp_mlu < d.latency_mlu,
                "seed {seed}: wcmp {} vs latency {}",
                d.wcmp_mlu,
                d.latency_mlu
            );
            assert!(
                d.wcmp_loss_pct <= d.latency_loss_pct + 1e-9,
                "seed {seed}: wcmp loss {} vs latency loss {}",
                d.wcmp_loss_pct,
                d.latency_loss_pct
            );
            // Prefix-granular WCMP can't realize intra-prefix splits, so
            // delivered MLU may exceed the promise — but only by the
            // packet-quantization margin, not by an overload.
            assert!(
                d.wcmp_mlu <= d.lp_mlu + 0.25,
                "seed {seed}: delivered {} strays from promised {}",
                d.wcmp_mlu,
                d.lp_mlu
            );
            assert!(d.delivers(), "seed {seed}");
        }
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let a = run_lp_gap(Scale::Test, tiny_config(3)).expect("run a");
        let b = run_lp_gap(Scale::Test, tiny_config(3)).expect("run b");
        let render = |r: &LpGapRun| {
            let mut report = painter_obs::RunReport::new("lp-gap");
            for s in r.sections() {
                report.push_section(s);
            }
            report.to_json()
        };
        assert_eq!(render(&a), render(&b));
    }
}
