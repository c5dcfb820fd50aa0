//! The campaign kernel: the one place that knows how a resilience
//! campaign runs (DESIGN.md, "Campaign kernel").
//!
//! PAINTER's resilience claim is one experiment — a fault lands; BGP, the
//! Traffic Manager and the advertise→measure→learn loop each react;
//! availability is scored — and [`crate::chaos`], [`crate::soak`] and
//! [`crate::figs::fig10`] are callers of the pieces here: the harness
//! world ([`HarnessWorld`]) with its BGP timer constants and closed-loop
//! cadence, the [`ControlPlane`] (the fixed plan announced, faulted,
//! warmed up and sampled through data-plane liveness), the
//! [`RepairPlane`] (the closed loop's installer state: overlay, judge,
//! install) and the replay of sampled rows onto a Traffic Manager
//! simulation. A driver keeps what genuinely differs: how a round's
//! health is measured, what it proposes, and what it reports.
//!
//! The kernel is tick-preserving: callers choose the sampling grid and the
//! order in which the two planes are stepped, because both are part of the
//! byte-replay contract. The flight recorder numbers events in emission
//! order, so chaos samples the whole control plane first (its four
//! strategies replay the stored rows) while a soak steps both planes every
//! tick and streams rows instead of storing days of them.

use crate::scenario::SALT;
use painter_bgp::dynamics::{BgpEngine, DynamicsConfig};
use painter_bgp::{AdvertConfig, PrefixId};
use painter_chaos::{
    program_bgp_traced, trace_fault_spans, DataPlaneState, FaultEvent, Schedule, Scorecard,
    TmTarget, WorldView,
};
use painter_core::{
    apply_to_engine, diff, revert_plan, HealthSample, InstallPlan, RollbackConfig, RollbackGuard,
};
use painter_eventsim::{derive_seed, SimTime};
use painter_geo::{metro, MetroId, Region};
use painter_obs::{Registry, TraceId, TraceKind, TraceSink};
use painter_tm::TmSimulation;
use painter_topology::{
    AsGraph, AsId, AsTier, Deployment, PeeringId, PeeringKind, PopId, Relationship,
};

/// Sampling grid for coupling BGP state into the TM channel schedules.
pub(crate) const SAMPLE_MS: f64 = 25.0;
/// Extra RTT on the anycast path: anycast terminates on the shared
/// front-end VIP (an extra indirection the dedicated tunnel addresses
/// skip), which is also why the paper's prototype finds the unicast
/// prefix "lower latency than the default anycast path".
pub(crate) const ANYCAST_OVERHEAD_MS: f64 = 4.0;
/// Closed-loop cadence: one advertise→measure→learn round per this many
/// seconds of campaign time.
pub(crate) const ITER_S: f64 = 6.0;
/// Consecutive dark rounds before a prefix is declared unreachable and a
/// repair announcement is proposed.
pub(crate) const DARK_ITERS: u32 = 2;
/// Per-prefix hold-down between installer operations (seconds).
const HOLD_DOWN_S: f64 = 2.0;

/// One sampled tunnel: the ingress its route lands on and its RTT, or
/// `None` while dark.
pub(crate) type Cell = Option<(PeeringId, f64)>;
/// One cell per prefix of the plan, in plan order.
pub(crate) type Row = Vec<Cell>;

/// The time of step `step` on the [`SAMPLE_MS`] grid.
pub(crate) fn sample_time(step: usize) -> SimTime {
    SimTime::from_ms(step as f64 * SAMPLE_MS)
}

/// Rejects campaign clocks no tick loop can run: every `(field, seconds)`
/// must be finite and positive.
pub(crate) fn check_clock(fields: &[(&str, f64)]) -> Result<(), String> {
    for &(field, secs) in fields {
        if !secs.is_finite() || secs <= 0.0 {
            return Err(format!("{field} must be finite and positive, got {secs}"));
        }
    }
    Ok(())
}

/// Busy edge routers: hundreds of ms of per-message processing, the
/// dominant term in real-world withdrawal propagation.
pub(crate) fn dynamics(seed: u64) -> DynamicsConfig {
    DynamicsConfig { proc_delay_ms: (30.0, 400.0), mrai_secs: (2.0, 8.0), seed }
}

/// The campaign world: fig10's two-PoP shape (New York = PoP-A,
/// London = PoP-B, two transit ISPs at both, the enterprise stub in New
/// York behind two regional access ISPs, plus churn bystanders).
pub(crate) struct HarnessWorld {
    pub(crate) graph: AsGraph,
    pub(crate) deployment: Deployment,
    pub(crate) stub: AsId,
    pub(crate) stub_metro: MetroId,
    /// The churn bystander stubs — sampled (read-only) during campaigns
    /// to measure each fault's blast radius in rerouted user groups.
    pub(crate) bystanders: Vec<AsId>,
    /// Chaos tunnel index 0 is the anycast prefix; 1.. are the
    /// per-peering unicast prefixes (the order handed to
    /// `TmSimulation::add_path`).
    pub(crate) plan: Vec<(PrefixId, Vec<PeeringId>)>,
}

/// The regional tier matters: replacement routes after a withdrawal must
/// be *announced* down the chain (MRAI-gated), which is what stretches
/// anycast reconvergence to many seconds in the paper's RIS data. The
/// bystander networks multiply the update churn the collectors see.
pub(crate) fn build_world() -> HarnessWorld {
    let ny = painter_geo::metro::all_metro_ids()
        .find(|&m| metro(m).name == "New York")
        .expect("metro db");
    let lon =
        painter_geo::metro::all_metro_ids().find(|&m| metro(m).name == "London").expect("metro db");
    let mut graph = AsGraph::new();
    let isp1 = graph.add_node(AsTier::Tier1, Region::NorthAmerica, vec![ny, lon], 1.05);
    let isp2 = graph.add_node(AsTier::Tier1, Region::Europe, vec![ny, lon], 1.15);
    let acc1 = graph.add_node(AsTier::Access, Region::NorthAmerica, vec![ny], 1.0);
    let acc2 = graph.add_node(AsTier::Access, Region::NorthAmerica, vec![ny], 1.1);
    let stub = graph.add_node(AsTier::Stub, Region::NorthAmerica, vec![ny], 1.0);
    graph.add_link(isp1, isp2, Relationship::PeerWith).expect("new link");
    graph.add_link(isp1, acc1, Relationship::ProviderOf).expect("new link");
    graph.add_link(isp2, acc1, Relationship::ProviderOf).expect("new link");
    graph.add_link(isp1, acc2, Relationship::ProviderOf).expect("new link");
    graph.add_link(isp2, acc2, Relationship::ProviderOf).expect("new link");
    graph.add_link(acc1, stub, Relationship::ProviderOf).expect("new link");
    graph.add_link(acc2, stub, Relationship::ProviderOf).expect("new link");
    let mut bystanders = Vec::with_capacity(8);
    for i in 0..8 {
        let bystander = graph.add_node(AsTier::Stub, Region::NorthAmerica, vec![ny], 1.0);
        let upstream = if i % 2 == 0 { acc1 } else { acc2 };
        graph.add_link(upstream, bystander, Relationship::ProviderOf).expect("new link");
        bystanders.push(bystander);
    }
    let deployment = Deployment::from_parts(
        vec![ny, lon],
        vec![
            (0, isp1, PeeringKind::TransitProvider), // peering 0: PoP-A/ISP1
            (0, isp2, PeeringKind::TransitProvider), // peering 1: PoP-A/ISP2
            (1, isp1, PeeringKind::TransitProvider), // peering 2: PoP-B/ISP1
            (1, isp2, PeeringKind::TransitProvider), // peering 3: PoP-B/ISP2
        ],
    );
    // The five prefixes: anycast via everything, then one per peering.
    let plan = vec![
        (PrefixId(0), vec![PeeringId(0), PeeringId(1), PeeringId(2), PeeringId(3)]),
        (PrefixId(1), vec![PeeringId(0)]),
        (PrefixId(2), vec![PeeringId(1)]),
        (PrefixId(3), vec![PeeringId(2)]),
        (PrefixId(4), vec![PeeringId(3)]),
    ];
    HarnessWorld { graph, deployment, stub, stub_metro: ny, bystanders, plan }
}

impl HarnessWorld {
    /// The compile view schedules are built against.
    pub(crate) fn view(&self) -> WorldView {
        WorldView::from_deployment(&self.deployment, self.plan.clone())
    }

    /// A fresh engine over this world with the whole plan announced at
    /// t = 0.
    pub(crate) fn announced_engine(&self, dynamics: DynamicsConfig) -> BgpEngine<'_> {
        let mut engine = BgpEngine::new(&self.graph, &self.deployment, dynamics, SALT);
        for (prefix, peerings) in &self.plan {
            for &pe in peerings {
                engine.announce(SimTime::ZERO, *prefix, pe);
            }
        }
        engine
    }

    /// The stub's current RTT per prefix of the plan (100 ms stands in for
    /// a prefix with no route yet); the anycast prefix (index 0) pays
    /// `anycast_overhead_ms` on top.
    pub(crate) fn base_rtts(&self, engine: &BgpEngine<'_>, anycast_overhead_ms: f64) -> Vec<f64> {
        let rtt = |(idx, (prefix, _)): (usize, &(PrefixId, Vec<PeeringId>))| {
            let overhead = if idx == 0 { anycast_overhead_ms } else { 0.0 };
            engine
                .current_rtt_ms(self.stub, self.stub_metro, *prefix)
                .map_or(100.0, |r| r + overhead)
        };
        self.plan.iter().enumerate().map(rtt).collect()
    }
}

/// The harness world's compile view — two PoPs, four peerings, the
/// anycast-plus-unicast prefix plan — exposed so the adversarial
/// searcher's grammar can be built over exactly the elements campaigns
/// run against.
pub fn harness_world_view() -> WorldView {
    build_world().view()
}

/// One BGP engine over the harness world plus the administrative
/// data-plane liveness that gates what it believes: a route through a
/// dead PoP blackholes immediately even while its session waits out
/// failure detection, and a blackholed tunnel stays dark regardless of
/// what BGP believes.
pub(crate) struct Plane<'w> {
    pub(crate) world: &'w HarnessWorld,
    pub(crate) schedule: &'w Schedule,
    engine: BgpEngine<'w>,
    dps: DataPlaneState,
    /// The stub's cells as of `stamp` (see [`Plane::cells`]).
    cells: Row,
    stamp: Option<(u64, usize)>,
}

#[cfg(test)]
thread_local! {
    /// `(reads, recomputes)` over every [`Plane::cells`] call made on this
    /// thread, so a test can audit the planes inside a whole campaign.
    static CELL_READS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

impl<'w> Plane<'w> {
    fn new(world: &'w HarnessWorld, schedule: &'w Schedule, engine: BgpEngine<'w>) -> Self {
        let dps = DataPlaneState::new(world.deployment.pops().len(), world.plan.len());
        Plane { world, schedule, engine, dps, cells: Row::new(), stamp: None }
    }

    /// Advances BGP and the data-plane state to `t` (non-decreasing).
    fn advance(&mut self, t: SimTime) {
        self.engine.run_until(t);
        self.dps.advance(self.schedule, t);
    }

    /// The version of everything a cell is a function of: events the
    /// engine has handled and injections the data-plane state has applied
    /// (DESIGN.md, "State-versioned sampling").
    fn stamp(&self) -> (u64, usize) {
        (self.engine.generation(), self.dps.applied())
    }

    /// The stub's cell per chaos tunnel, in plan order, without the anycast
    /// overhead — recomputed only when [`Plane::stamp`] has moved since the
    /// last read.
    fn cells(&mut self) -> &[Cell] {
        let stamp = self.stamp();
        let stale = self.stamp != Some(stamp);
        if stale {
            self.cells = (0..self.world.plan.len()).map(|idx| self.cell(idx)).collect();
            self.stamp = Some(stamp);
        }
        #[cfg(test)]
        CELL_READS.with(|c| c.set((c.get().0 + 1, c.get().1 + u64::from(stale))));
        &self.cells
    }

    /// The ingress `src`'s route to `prefix` lands on right now, if its
    /// PoP is up — a pure read.
    pub(crate) fn ingress(&self, src: AsId, prefix: PrefixId) -> Option<PeeringId> {
        self.engine.current_ingress(src, prefix).filter(|&ingress| self.ingress_up(ingress))
    }

    /// The stub's sampled cell for chaos tunnel `idx`, from the engine.
    fn cell(&self, idx: usize) -> Cell {
        if self.dps.tunnel_down(idx) {
            return None;
        }
        let world = self.world;
        self.engine
            .current_route(world.stub, world.stub_metro, world.plan[idx].0)
            .filter(|&(ingress, _)| self.ingress_up(ingress))
    }

    fn ingress_up(&self, ingress: PeeringId) -> bool {
        !self.pop_down(self.world.deployment.peering(ingress).pop)
    }

    /// Whether `pop` is administratively down right now.
    pub(crate) fn pop_down(&self, pop: PopId) -> bool {
        self.dps.pop_down(pop)
    }

    /// Control-plane updates this engine saw for `prefix` in `[from, to)`.
    pub(crate) fn updates_in_window(&self, prefix: PrefixId, from: SimTime, to: SimTime) -> usize {
        self.engine.updates_in_window(prefix, from, to)
    }
}

/// The shared control plane of one campaign: the fixed plan announced on
/// one engine, the schedule's BGP faults queued onto it (each carrying its
/// fault's span), converged through the warm-up.
pub(crate) struct ControlPlane<'w> {
    pub(crate) plane: Plane<'w>,
    anycast_overhead_ms: f64,
    /// Converged base RTT per chaos tunnel (what a blackhole recovery
    /// restores).
    pub(crate) base: Vec<f64>,
    /// One flight-recorder span per spec fault (all `NONE` on an inert
    /// sink).
    pub(crate) spans: Vec<TraceId>,
}

impl<'w> ControlPlane<'w> {
    pub(crate) fn new(
        world: &'w HarnessWorld,
        schedule: &'w Schedule,
        seed: u64,
        warmup_s: f64,
        anycast_overhead_ms: f64,
        sink: &TraceSink,
    ) -> ControlPlane<'w> {
        let spans = trace_fault_spans(schedule, sink);
        let mut engine = world.announced_engine(dynamics(seed));
        engine.set_trace(sink.clone());
        program_bgp_traced(schedule, &mut engine, &spans);
        engine.run_until(SimTime::from_secs(warmup_s));
        let base = world.base_rtts(&engine, anycast_overhead_ms);
        ControlPlane {
            plane: Plane::new(world, schedule, engine),
            anycast_overhead_ms,
            base,
            spans,
        }
    }

    /// Advances to `t` and samples the stub's reachability and RTT per
    /// prefix of the plan.
    pub(crate) fn sample(&mut self, t: SimTime) -> Row {
        self.plane.advance(t);
        let mut row = self.plane.cells().to_vec();
        if let Some(Some((_, rtt))) = row.first_mut() {
            *rtt += self.anycast_overhead_ms;
        }
        row
    }
}

/// The closed loop's installer state. Repair announcements run on a
/// dedicated engine carrying only what the installer announced, plus the
/// session and leak faults that decide whether a repair survives (PoP
/// outages gate through the data-plane state; the fixed plan's own
/// announce/withdraw events belong to the control plane). The plan starts
/// as the fixed plan; every change goes through [`Self::install`] and is
/// on probation until the next [`Self::judge`].
pub(crate) struct RepairPlane<'w> {
    pub(crate) plane: Plane<'w>,
    installed: AdvertConfig,
    probation: bool,
    baseline_health: Option<HealthSample>,
    rollback: RollbackGuard,
    plan_trace: TraceSink,
    /// Installer operations applied (installs + reverts).
    pub(crate) install_ops: u64,
}

impl<'w> RepairPlane<'w> {
    pub(crate) fn new(
        world: &'w HarnessWorld,
        schedule: &'w Schedule,
        seed: u64,
        config: RollbackConfig,
        obs: &Registry,
        sink: &TraceSink,
    ) -> RepairPlane<'w> {
        let mut engine =
            BgpEngine::new(&world.graph, &world.deployment, dynamics(derive_seed(seed, 4)), SALT);
        for inj in schedule.injections() {
            match inj.event {
                FaultEvent::SessionDown { peering } => engine.session_down(inj.at, peering),
                FaultEvent::SessionUp { peering } => engine.session_up(inj.at, peering),
                FaultEvent::LeakStart { peering } => engine.leak_start(inj.at, peering),
                FaultEvent::LeakEnd { peering } => engine.leak_end(inj.at, peering),
                _ => {}
            }
        }
        let mut installed = AdvertConfig::new();
        for (prefix, peerings) in &world.plan {
            for &pe in peerings {
                installed.add(*prefix, pe);
            }
        }
        let mut rollback = RollbackGuard::with_obs(config, obs.clone());
        rollback.set_trace(sink.clone());
        RepairPlane {
            plane: Plane::new(world, schedule, engine),
            installed,
            probation: false,
            baseline_health: None,
            rollback,
            plan_trace: sink.scoped("plan"),
            install_ops: 0,
        }
    }

    /// The plan currently installed (fixed plan plus surviving repairs).
    pub(crate) fn installed(&self) -> &AdvertConfig {
        &self.installed
    }

    /// Installs reverted by the safety guard so far.
    pub(crate) fn rollbacks_total(&self) -> u64 {
        self.rollback.rollbacks_total
    }

    /// Advances the repair engine to `t` and returns the closed loop's
    /// row: the fixed plan's sampled row with repair reachability overlaid
    /// onto dark cells — the union of the two announcement sets'
    /// reachability, the fixed plan's path preferred when both are alive,
    /// gated by the same administrative data-plane liveness.
    pub(crate) fn overlay(&mut self, t: SimTime, fixed: &[Cell]) -> Row {
        self.plane.advance(t);
        fixed.iter().zip(self.plane.cells()).map(|(cell, repair)| cell.or(*repair)).collect()
    }

    /// One round's verdict on `health`, the window since the last round.
    /// After an install (probation): regression beyond the guardrails
    /// reverts to the last-known-good plan, arms the backoff and returns
    /// `true`; a healthy window proves the new plan good. Otherwise the
    /// baseline ratchet: keep the last-known-good snapshot fresh as long
    /// as health holds up — so the snapshot captures the converged
    /// pre-fault plan and freezes the moment a fault drags health down.
    pub(crate) fn judge(&mut self, t: SimTime, health: HealthSample) -> bool {
        if self.probation {
            self.probation = false;
            if let Some(good) = self.rollback.check(t, &health) {
                self.apply(t, &revert_plan(&self.installed, &good, hold_down()));
                self.installed = good;
                self.plan_trace.emit(
                    t.as_nanos(),
                    self.rollback.last_rollback_trace(),
                    TraceKind::PlanRevert { pairs: self.installed.pair_count() as u32 },
                );
                return true;
            }
        } else if self.baseline_health.as_ref().is_some_and(|b| self.rollback.regressed(b, &health))
        {
            return false;
        }
        self.rollback.record_good(&self.installed, health);
        self.baseline_health = Some(health);
        false
    }

    /// Installs `commit` through the rate-limited installer and starts
    /// its probation, unless it changes nothing or the rollback guard's
    /// backoff window is still open. `cause` is the decision (hysteresis
    /// commit, arbiter win) the `plan.commit` event chains to. Returns
    /// whether the plan changed.
    pub(crate) fn install(&mut self, t: SimTime, commit: AdvertConfig, cause: TraceId) -> bool {
        if commit == self.installed || !self.rollback.can_attempt(t) {
            return false;
        }
        self.apply(t, &painter_core::plan(diff(&self.installed, &commit), hold_down()));
        self.installed = commit;
        self.probation = true;
        let commit_ev = self.plan_trace.emit(
            t.as_nanos(),
            cause,
            TraceKind::PlanCommit { pairs: self.installed.pair_count() as u32 },
        );
        self.plan_trace.emit(t.as_nanos(), commit_ev, TraceKind::ProbationStart);
        true
    }

    fn apply(&mut self, t: SimTime, ops: &InstallPlan) {
        self.install_ops += ops.len() as u64;
        apply_to_engine(ops, &mut self.plane.engine, t);
    }
}

fn hold_down() -> SimTime {
    SimTime::from_secs(HOLD_DOWN_S)
}

/// What one closed-loop round judges: the demand served and offered and
/// the RTTs observed since the last round.
#[derive(Default)]
pub(crate) struct HealthWindow {
    pub(crate) served: f64,
    pub(crate) offered: f64,
    pub(crate) rtts: Vec<f64>,
}

impl HealthWindow {
    /// Closes the window: availability (1 when nothing was offered) and
    /// p95 latency (0 when nothing was served) since the last call.
    pub(crate) fn take(&mut self) -> HealthSample {
        let rtts = &mut self.rtts;
        rtts.sort_by(f64::total_cmp);
        let health = HealthSample {
            availability: if self.offered > 0.0 { self.served / self.offered } else { 1.0 },
            p95_latency_ms: if rtts.is_empty() { 0.0 } else { rtts[(rtts.len() - 1) * 95 / 100] },
        };
        rtts.clear();
        (self.served, self.offered) = (0.0, 0.0);
        health
    }
}

/// Adds one tunnel per entry of `base` (plan order, so a prefix of the
/// plan gives a strategy carrying a subset) and returns the chaos
/// targets, `targets[i]` mapping chaos tunnel index `i`.
pub(crate) fn add_tunnels(
    tm: &mut TmSimulation,
    world: &HarnessWorld,
    base: &[f64],
) -> Vec<TmTarget> {
    world
        .plan
        .iter()
        .zip(base)
        .map(|((prefix, peerings), &base_rtt_ms)| {
            let pop = world.deployment.peering(peerings[0]).pop;
            TmTarget { tunnel: tm.add_path(*prefix, pop, base_rtt_ms), base_rtt_ms }
        })
        .collect()
}

/// Programs sampled rows (one per [`SAMPLE_MS`] step) onto the TM's
/// channels: a lit cell sets the path's RTT, a dark one takes the path
/// down. `cause(t, idx, lit)` names the fault span each reprogramming
/// chains to ([`TraceId::NONE`] for an unrecorded strategy).
pub(crate) fn replay_rows(
    tm: &mut TmSimulation,
    targets: &[TmTarget],
    rows: impl IntoIterator<Item = impl AsRef<[Cell]>>,
    mut cause: impl FnMut(SimTime, usize, bool) -> TraceId,
) {
    for (step, row) in rows.into_iter().enumerate() {
        let t = sample_time(step);
        for (idx, (cell, target)) in row.as_ref().iter().zip(targets).enumerate() {
            match cell {
                Some((_, rtt)) => {
                    tm.schedule_path_rtt_caused(t, target.tunnel, *rtt, cause(t, idx, true))
                }
                None => tm.schedule_path_down_caused(t, target.tunnel, cause(t, idx, false)),
            }
        }
    }
}

/// Runs the sim one second past the horizon so responses to requests
/// sent near the end can land, then scores only the in-horizon
/// records/switches. Without the drain a strategy resting on a
/// long-RTT path would book its final in-flight window as a spurious
/// trailing outage.
pub(crate) fn drain_and_score(
    tm: &mut TmSimulation,
    campaign: &str,
    strategy: &str,
    horizon: SimTime,
    first_fault: SimTime,
) -> Scorecard {
    tm.run(SimTime::from_nanos(horizon.as_nanos() + SimTime::from_secs(1.0).as_nanos()));
    let records: Vec<_> = tm.records().iter().filter(|r| r.sent <= horizon).copied().collect();
    let switches: Vec<_> = tm.switch_log().iter().filter(|s| s.at <= horizon).copied().collect();
    Scorecard::from_records(campaign, strategy, &records, &switches, first_fault)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{standard_suite, ChaosTiming};
    use crate::scenario::Scale;
    use crate::soak::{run_soak, soak_spec, SoakConfig};
    use painter_chaos::ScenarioSpec;

    const HEALTHY: HealthSample = HealthSample { availability: 1.0, p95_latency_ms: 10.0 };
    const SICK: HealthSample = HealthSample { availability: 0.2, p95_latency_ms: 10.0 };

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn judge_reverts_a_regressed_install_and_ratchets_a_healthy_one() {
        let world = build_world();
        let schedule =
            Schedule::compile(&ScenarioSpec::new("quiet", 600.0), &world.view(), 1).expect("spec");
        let mut repair = RepairPlane::new(
            &world,
            &schedule,
            1,
            RollbackConfig::default(),
            &Registry::new(),
            &TraceSink::inert(),
        );
        let fixed = repair.installed().clone();
        let mut grown = fixed.clone();
        grown.add(PrefixId(1), PeeringId(2));
        let mut grown_twice = grown.clone();
        grown_twice.add(PrefixId(2), PeeringId(3));

        // Off probation a healthy round snapshots the fixed plan.
        assert!(!repair.judge(secs(6.0), HEALTHY));
        assert!(!repair.install(secs(6.0), fixed.clone(), TraceId::NONE), "no-op install");
        assert!(repair.install(secs(6.0), grown.clone(), TraceId::NONE));
        assert_eq!(repair.install_ops, 1);

        // Regression on probation ⇒ revert to the last good plan, and the
        // backoff window refuses the next attempt.
        assert!(repair.judge(secs(12.0), SICK), "reverted");
        assert_eq!(repair.installed(), &fixed);
        assert_eq!((repair.rollbacks_total(), repair.install_ops), (1, 2));
        assert!(!repair.install(secs(12.0), grown.clone(), TraceId::NONE), "backoff");

        // A healthy probation ratchets the baseline onto the new plan...
        assert!(repair.install(secs(100.0), grown.clone(), TraceId::NONE));
        assert!(!repair.judge(secs(106.0), HEALTHY));
        assert_eq!(repair.installed(), &grown);
        // ...a sick round off probation freezes it without reverting...
        assert!(!repair.judge(secs(112.0), SICK));
        assert_eq!(repair.installed(), &grown);
        // ...so the next failed install falls back to it, not to `fixed`.
        assert!(repair.install(secs(200.0), grown_twice, TraceId::NONE));
        assert!(repair.judge(secs(206.0), SICK), "reverted");
        assert_eq!(repair.installed(), &grown);
    }

    #[test]
    fn overlay_lights_a_dark_cell_only_through_an_installed_repair() {
        let world = build_world();
        let schedule =
            Schedule::compile(&ScenarioSpec::new("quiet", 600.0), &world.view(), 1).expect("spec");
        let sink = TraceSink::inert();
        let mut control = ControlPlane::new(&world, &schedule, 1, 30.0, ANYCAST_OVERHEAD_MS, &sink);
        let mut repair = RepairPlane::new(
            &world,
            &schedule,
            1,
            RollbackConfig::default(),
            &Registry::new(),
            &sink,
        );
        let row = control.sample(secs(30.0));
        assert!(row.iter().all(Option::is_some), "converged world: {row:?}");
        assert_eq!(repair.overlay(secs(30.0), &row), row, "fixed cells win");

        // Pretend prefix 1 went dark: nothing is installed for it on the
        // repair engine, so it stays dark until a repair is announced.
        let mut dark = row.clone();
        dark[1] = None;
        assert_eq!(repair.overlay(secs(31.0), &dark)[1], None);
        let mut grown = repair.installed().clone();
        grown.add(PrefixId(1), PeeringId(2));
        assert!(repair.install(secs(31.0), grown, TraceId::NONE));
        let lit = repair.overlay(secs(90.0), &dark);
        assert_eq!(lit[1].map(|(ingress, _)| ingress), Some(PeeringId(2)));
    }

    /// `(reads, recomputes)` made by this thread's planes so far.
    fn cell_reads() -> (u64, u64) {
        CELL_READS.with(|c| c.get())
    }

    fn bits(row: &[Cell]) -> Vec<Option<(PeeringId, u64)>> {
        row.iter().map(|cell| cell.map(|(ingress, rtt)| (ingress, rtt.to_bits()))).collect()
    }

    /// Drives both planes over `spec` on a grid of `steps` ticks `tick_s`
    /// apart, installing a repair for the first unicast cell that goes dark
    /// and having the guard revert it two rounds later. At every step the
    /// memoised rows must equal rows rebuilt cell by cell from the engine
    /// (the per-tick recomputation this kernel shipped before the memo),
    /// and the memo must have recomputed exactly when a stamp moved.
    fn assert_memo_is_invisible(
        spec: &ScenarioSpec,
        warmup_s: f64,
        overhead_ms: f64,
        tick_s: f64,
        steps: usize,
    ) {
        let world = build_world();
        let schedule = Schedule::compile(spec, &world.view(), 1).expect("spec");
        let sink = TraceSink::inert();
        let mut control = ControlPlane::new(&world, &schedule, 1, warmup_s, overhead_ms, &sink);
        let mut repair = RepairPlane::new(
            &world,
            &schedule,
            1,
            RollbackConfig::default(),
            &Registry::new(),
            &sink,
        );
        let reads_at_start = cell_reads();
        let first_stamps = (control.plane.stamp(), repair.plane.stamp());
        let mut last_stamps = None;
        let mut stamp_moves = 0u64;
        let mut revert_at = None;
        let (mut lit_by_repair, mut reverted) = (0usize, false);

        for step in 0..steps {
            let t = secs(step as f64 * tick_s);
            let row = control.sample(t);
            let repaired = repair.overlay(t, &row);

            let stamps = (control.plane.stamp(), repair.plane.stamp());
            let (was_control, was_repair) = last_stamps.unzip();
            stamp_moves += u64::from(was_control != Some(stamps.0));
            stamp_moves += u64::from(was_repair != Some(stamps.1));
            last_stamps = Some(stamps);

            let fresh_fixed: Row = (0..world.plan.len())
                .map(|idx| {
                    let (ingress, rtt) = control.plane.cell(idx)?;
                    Some((ingress, rtt + if idx == 0 { overhead_ms } else { 0.0 }))
                })
                .collect();
            let fresh_repaired: Row = fresh_fixed
                .iter()
                .enumerate()
                .map(|(idx, cell)| cell.or_else(|| repair.plane.cell(idx)))
                .collect();
            assert_eq!(bits(&row), bits(&fresh_fixed), "{}: sample at step {step}", spec.name);
            assert_eq!(
                bits(&repaired),
                bits(&fresh_repaired),
                "{}: overlay at step {step}",
                spec.name
            );
            lit_by_repair += usize::from(repaired != row);

            match revert_at {
                None => {
                    let Some(idx) = (1..row.len()).find(|&idx| row[idx].is_none()) else {
                        continue;
                    };
                    let prefix = world.plan[idx].0;
                    let mut grown = repair.installed().clone();
                    let via = world
                        .deployment
                        .peerings()
                        .iter()
                        .find(|p| !repair.plane.pop_down(p.pop) && !grown.contains(prefix, p.id))
                        .expect("a live peering the prefix is not on yet");
                    grown.add(prefix, via.id);
                    assert!(!repair.judge(t, HEALTHY));
                    assert!(repair.install(t, grown, TraceId::NONE));
                    revert_at = Some(t + secs(2.0 * ITER_S));
                }
                Some(at) if !reverted && t >= at => {
                    assert!(repair.judge(t, SICK), "{}: the guard must revert", spec.name);
                    reverted = true;
                }
                Some(_) => {}
            }
        }

        assert!(reverted, "{}: never got to the revert", spec.name);
        assert!(lit_by_repair > 0, "{}: the repair never lit a dark cell", spec.name);
        let reads = cell_reads().0 - reads_at_start.0;
        let recomputes = cell_reads().1 - reads_at_start.1;
        assert_eq!(reads, 2 * steps as u64);
        assert_eq!(recomputes, stamp_moves, "{}: one recompute per moved stamp", spec.name);
        // Per plane at most one recompute per handled event or applied
        // injection, plus the first read.
        let (last_control, last_repair) = last_stamps.expect("steps > 0");
        let budget = |first: (u64, usize), last: (u64, usize)| last.0 - first.0 + last.1 as u64 + 1;
        let allowed = budget(first_stamps.0, last_control) + budget(first_stamps.1, last_repair);
        assert!(recomputes <= allowed, "{}: {recomputes} recomputes > {allowed}", spec.name);
        assert!(recomputes < reads, "{}: nothing was ever served from the memo", spec.name);
    }

    #[test]
    fn memoised_rows_equal_per_tick_recomputation_on_the_chaos_grid() {
        let timing = ChaosTiming::for_scale(Scale::Test);
        let multi_fault = standard_suite(&timing).pop().expect("multi-fault is last");
        assert_eq!(multi_fault.name, "multi-fault");
        let steps = (timing.horizon_s * 1000.0 / SAMPLE_MS) as usize;
        assert_memo_is_invisible(
            &multi_fault,
            timing.warmup_s,
            ANYCAST_OVERHEAD_MS,
            SAMPLE_MS / 1000.0,
            steps,
        );
    }

    #[test]
    fn memoised_rows_equal_per_tick_recomputation_on_the_soak_grid() {
        let config = SoakConfig::for_scale(Scale::Test);
        assert_memo_is_invisible(&soak_spec(&config), 30.0, 0.0, 1.0, config.horizon_s() as usize);
    }

    #[test]
    fn a_soak_serves_almost_every_read_from_the_memo() {
        let count = || {
            let before = cell_reads();
            let outcome = run_soak(Scale::Test, 1).expect("soak");
            let after = cell_reads();
            (outcome.horizon_s as u64, after.0 - before.0, after.1 - before.1)
        };
        let (ticks, reads, recomputes) = count();
        assert_eq!(reads, 2 * ticks, "two planes, one read per tick");
        assert!(recomputes > 0 && recomputes * 20 < reads, "{recomputes} of {reads} reads");
        assert_eq!(count(), (ticks, reads, recomputes), "the count must repeat exactly");
    }

    #[test]
    fn ingress_of_an_as_outside_the_world_is_none() {
        let world = build_world();
        let schedule =
            Schedule::compile(&ScenarioSpec::new("quiet", 60.0), &world.view(), 1).expect("spec");
        let control =
            ControlPlane::new(&world, &schedule, 1, 30.0, ANYCAST_OVERHEAD_MS, &TraceSink::inert());
        assert!(control.plane.ingress(world.stub, PrefixId(0)).is_some());
        let outside = AsId(world.graph.len() as u32);
        assert_eq!(control.plane.ingress(outside, PrefixId(0)), None);
    }

    #[test]
    fn check_clock_names_the_offending_field() {
        assert!(check_clock(&[("horizon_s", 60.0), ("warmup_s", 10.0)]).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = check_clock(&[("horizon_s", 60.0), ("warmup_s", bad)]).unwrap_err();
            assert!(err.contains("warmup_s"), "{err}");
        }
    }

    #[test]
    fn health_window_closes_to_availability_and_p95_then_resets() {
        let mut window = HealthWindow::default();
        assert_eq!(window.take(), HealthSample { availability: 1.0, p95_latency_ms: 0.0 });
        (window.served, window.offered) = (3.0, 4.0);
        window.rtts.extend([30.0, 10.0, 20.0]);
        assert_eq!(window.take(), HealthSample { availability: 0.75, p95_latency_ms: 20.0 });
        assert_eq!(window.take(), HealthSample { availability: 1.0, p95_latency_ms: 0.0 });
    }
}
