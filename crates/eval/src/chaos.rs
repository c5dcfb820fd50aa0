//! Chaos resilience harness: the generalized Fig. 10.
//!
//! Fig. 10 asks one question about one fault: after a PoP dies, how fast
//! does each steering layer recover? This module asks the same question
//! about *any* compiled [`painter_chaos::Schedule`]: a campaign runs the
//! identical fault schedule against four steering strategies —
//!
//! * **painter** — the Traffic Manager holds tunnels to every prefix and
//!   fails over on RTT-timescale probe evidence;
//! * **anycast** — a single anycast prefix; recovery waits for BGP
//!   reconvergence;
//! * **dns** — per-PoP unicast prefixes behind a health-checked DNS
//!   record; recovery waits for the next TTL boundary;
//! * **painter-closed-loop** — the same fixed plan, but the
//!   advertise→measure→learn loop keeps running *during* the campaign
//!   behind `painter_core::guard`'s containment layer (measurement
//!   quarantine, plan hysteresis, safety rollback), proposing repair
//!   announcements for sustained-dark prefixes;
//!
//! all replaying the rows the campaign kernel's control plane sampled
//! (`campaign.rs`: world, control plane, repair plane, TM replay),
//! and each strategy is scored with a [`Scorecard`] (availability,
//! time-to-recover histogram, failovers, latency inflation) emitted as
//! `chaos.*` report sections. The closed loop additionally emits a
//! `chaos.<name>.learning` section ([`LearningStats`]): quarantine
//! admit/hold/discard counts, hysteresis commits, rollbacks, plan churn,
//! and compliance-inference skew against the fixed plan's witnessed
//! landings.
//!
//! Determinism: the campaign world, the compiled schedule, the sampled
//! BGP state, and every Traffic Manager run are pure functions of
//! `(spec, scale, seed)`, so a suite's sections — and their JSON
//! rendering — are byte-identical across same-seed reruns. The
//! per-campaign `chaos.<name>.schedule` section records the spec and an
//! FNV-1a digest of the injection trace as the replay receipt.

use crate::campaign::{
    add_tunnels, build_world, check_clock, drain_and_score, replay_rows, sample_time, Cell,
    ControlPlane, HarnessWorld, HealthWindow, RepairPlane, Row, ANYCAST_OVERHEAD_MS, DARK_ITERS,
    ITER_S, SAMPLE_MS,
};
use crate::incidents::{attribute, incident_sections, Incident};
use crate::scenario::Scale;
use painter_bgp::PrefixId;
use painter_chaos::{
    program_tm, program_tm_traced, FaultEvent, FaultKind, FaultSpec, Injection, ScenarioSpec,
    Schedule, Scorecard, Target, TmTarget,
};
use painter_core::{
    ConfigEvaluator, GuardConfig, Observations, ObservedReachability, Orchestrator,
    OrchestratorConfig, OrchestratorInputs, PlanHysteresis, QuarantineBuffer, UgView,
};
use painter_eventsim::{derive_seed, SimTime};
use painter_measure::UgId;
use painter_obs::{Section, TraceEvent, TraceId, TraceSink};
use painter_tm::{TmSimulation, TmSimulationConfig};
use painter_topology::PeeringId;

pub use crate::campaign::harness_world_view;

/// Control-plane updates per iteration window above which a prefix's
/// advertised peerings are churn-flagged for quarantine.
const CHURN_UPDATES: usize = 6;
/// Benefit bonus per repair pair. The Eq. 1 evaluator models *latency*
/// benefit and cannot see availability, so a dark prefix's repair gets
/// an explicit urgency term that clears the hysteresis threshold while
/// no-op refinements (modeled delta ≈ 0) never do.
const REPAIR_URGENCY: f64 = 25.0;

/// Campaign clock constants, scale-dependent so tests stay fast while
/// the paper-sized run reproduces Fig. 10's 60 s TTL.
#[derive(Debug, Clone, Copy)]
pub struct ChaosTiming {
    /// BGP warm-up before the sampled series starts meaning anything.
    pub warmup_s: f64,
    /// DNS record TTL: the DNS strategy re-resolves only at multiples
    /// of this.
    pub dns_ttl_s: f64,
    /// Where the standard suite lands its first fault (mid-TTL, so DNS
    /// pays the worst-case wait).
    pub fault_at_s: f64,
    /// Campaign horizon.
    pub horizon_s: f64,
    /// Bounded capacity of the closed loop's obs event ring; overflow
    /// overwrites the oldest entry and bumps `obs.events_dropped`
    /// (surfaced in [`LearningStats`]). `0` disables event recording.
    pub event_capacity: usize,
}

impl ChaosTiming {
    /// The clock for a [`Scale`].
    pub fn for_scale(scale: Scale) -> ChaosTiming {
        match scale {
            // Sub-campaigns inside a soak reuse the test clock; the soak
            // driver strings many of them across days of virtual time,
            // with a larger event ring for the longer horizon.
            Scale::Test | Scale::Soak => ChaosTiming {
                warmup_s: 10.0,
                dns_ttl_s: 20.0,
                fault_at_s: 22.0,
                horizon_s: 60.0,
                event_capacity: if scale == Scale::Soak {
                    4 * painter_obs::Registry::DEFAULT_EVENT_CAPACITY
                } else {
                    painter_obs::Registry::DEFAULT_EVENT_CAPACITY
                },
            },
            Scale::Paper => ChaosTiming {
                warmup_s: 30.0,
                dns_ttl_s: 60.0,
                fault_at_s: 65.0,
                horizon_s: 130.0,
                event_capacity: painter_obs::Registry::DEFAULT_EVENT_CAPACITY,
            },
        }
    }
}

/// One campaign's full result: the compiled schedule (the replay
/// artifact) plus one scorecard per strategy.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    pub schedule: Schedule,
    /// Canonical JSON of the source spec (provenance).
    pub spec_json: String,
    pub painter: Scorecard,
    pub anycast: Scorecard,
    pub dns: Scorecard,
    pub closed_loop: Scorecard,
    /// What the guarded learning loop did while the faults ran.
    pub learning: LearningStats,
    /// One attribution record per spec fault (empty-fault specs aside,
    /// never empty — unobserved faults are explicit, not dropped).
    pub incidents: Vec<Incident>,
    /// The raw causal trace (empty under `obs-off`), for Chrome-trace
    /// export and timeline rendering.
    pub events: Vec<TraceEvent>,
}

impl CampaignOutcome {
    /// The four scorecards in fixed (painter, anycast, dns,
    /// painter-closed-loop) order.
    pub fn scorecards(&self) -> [&Scorecard; 4] {
        [&self.painter, &self.anycast, &self.dns, &self.closed_loop]
    }

    /// Report sections: a `chaos.<name>.schedule` provenance section,
    /// one `chaos.<name>.<strategy>` section per strategy, the
    /// `chaos.<name>.learning` closed-loop diagnostics, then the
    /// `chaos.<name>.incidents` attribution summary and one
    /// `chaos.<name>.incident<k>` record per fault.
    pub fn sections(&self) -> Vec<Section> {
        let mut out = Vec::with_capacity(7 + self.incidents.len());
        out.push(
            Section::new(format!("chaos.{}.schedule", self.schedule.name))
                .field("seed", self.schedule.seed)
                .field("injections", self.schedule.injections().len())
                .field(
                    "first_fault_ms",
                    self.schedule.first_at().map(|t| t.as_ms()).unwrap_or(-1.0),
                )
                .field("trace_fnv1a", format!("{:016x}", self.schedule.trace_digest()))
                .field("spec", self.spec_json.as_str()),
        );
        for sc in self.scorecards() {
            out.push(sc.section());
        }
        out.push(self.learning.section(&self.schedule.name));
        out.extend(incident_sections(&self.schedule.name, &self.incidents));
        out
    }
}

/// What the guarded learning loop did during one campaign: quarantine
/// flow, hysteresis decisions, rollbacks, plan churn, and how far the
/// loop's end-state beliefs drifted from the fixed plan's witnessed
/// landings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LearningStats {
    /// Advertise→measure→learn iterations run inside the campaign.
    pub iterations: u64,
    /// Measurement samples offered to the quarantine screen.
    pub samples_offered: u64,
    /// Samples admitted to the learner (fresh + released from hold).
    pub samples_admitted: u64,
    /// Samples that entered quarantine hold.
    pub samples_quarantined: u64,
    /// Held samples discarded (re-flagged churn or keyless).
    pub samples_discarded: u64,
    /// Samples still in hold at the horizon.
    pub quarantine_held: u64,
    /// Plan changes the hysteresis gate let through.
    pub hysteresis_commits: u64,
    /// Sub-threshold iterations that reset the commit streak.
    pub hysteresis_resets: u64,
    /// Installs reverted by the safety guard.
    pub rollbacks: u64,
    /// Installer operations applied (installs + reverts).
    pub install_ops: u64,
    /// Installer operations per iteration.
    pub plan_churn_rate: f64,
    /// `(prefix, peering)` pairs advertised at the horizon.
    pub final_pairs: u64,
    /// Dominance facts learned from admitted samples.
    pub dominance_learned: u64,
    /// `(UG, ingress)` pairs still marked unreachable at the horizon.
    pub unreachable_marks: u64,
    /// Fraction of witnessed fixed-plan landings the loop's end-state
    /// beliefs miss.
    pub compliance_miss_rate: f64,
    /// Fraction of end-state believed ingresses never witnessed landing.
    pub compliance_spurious_rate: f64,
    /// Events the bounded obs ring overwrote (ring capacity set by
    /// [`ChaosTiming::event_capacity`]).
    pub events_dropped: u64,
}

impl LearningStats {
    /// The `chaos.<campaign>.learning` report section (schema pinned by
    /// `tests/obs_report.rs`).
    pub fn section(&self, campaign: &str) -> Section {
        Section::new(format!("chaos.{campaign}.learning"))
            .field("iterations", self.iterations)
            .field("samples_offered", self.samples_offered)
            .field("samples_admitted", self.samples_admitted)
            .field("samples_quarantined", self.samples_quarantined)
            .field("samples_discarded", self.samples_discarded)
            .field("quarantine_held", self.quarantine_held)
            .field("hysteresis_commits", self.hysteresis_commits)
            .field("hysteresis_resets", self.hysteresis_resets)
            .field("rollbacks", self.rollbacks)
            .field("rollback_demonstrated", self.rollbacks > 0)
            .field("install_ops", self.install_ops)
            .field("plan_churn_rate", self.plan_churn_rate)
            .field("final_pairs", self.final_pairs)
            .field("dominance_learned", self.dominance_learned)
            .field("unreachable_marks", self.unreachable_marks)
            .field("compliance_miss_rate", self.compliance_miss_rate)
            .field("compliance_spurious_rate", self.compliance_spurious_rate)
            .field("events_dropped", self.events_dropped)
    }
}

/// Runs one campaign: compiles the spec, samples the kernel's control
/// plane over the horizon, and scores the four strategies on those rows.
/// The guard layer runs at [`GuardConfig::default`]; use
/// [`run_campaign_with_guard`] to vary it.
pub fn run_campaign(
    spec: &ScenarioSpec,
    timing: &ChaosTiming,
    seed: u64,
) -> Result<CampaignOutcome, String> {
    run_campaign_with_guard(spec, timing, seed, &GuardConfig::default())
}

/// [`run_campaign`] with an explicit guard-layer tuning for the
/// closed-loop strategy (quarantine, hysteresis, rollback — the knobs
/// auto-tuning sweeps vary). The open-loop strategies have no guards,
/// so only the `painter-closed-loop` scorecard and the learning stats
/// depend on `guard`.
pub fn run_campaign_with_guard(
    spec: &ScenarioSpec,
    timing: &ChaosTiming,
    seed: u64,
    guard: &GuardConfig,
) -> Result<CampaignOutcome, String> {
    check_clock(&[("horizon_s", timing.horizon_s), ("warmup_s", timing.warmup_s)])?;
    let world = build_world();
    let schedule = Schedule::compile(spec, &world.view(), seed)?;
    let first_fault = schedule.first_at().unwrap_or(SimTime::MAX);
    let horizon = SimTime::from_secs(timing.horizon_s);

    // --- The flight recorder: one sink shared by the injector, the
    // shared BGP engine, painter's Traffic Manager, the guard layer, and
    // the closed loop's plan installer. Emission is append-only (no RNG,
    // no event-queue effect), so recording never perturbs the campaign;
    // under `obs-off` the sink is a ZST and every emit vanishes.
    let sink = TraceSink::recording();
    let mut control =
        ControlPlane::new(&world, &schedule, seed, timing.warmup_s, ANYCAST_OVERHEAD_MS, &sink);

    // --- Sample the control plane once; every strategy replays these
    // rows. Half-open sampling [0, horizon): a control-plane change at
    // exactly the horizon cannot affect any in-horizon request, but
    // reprogramming a channel down there would drop its in-flight
    // responses.
    let steps = (timing.horizon_s * 1000.0 / SAMPLE_MS) as usize;
    let mut avail: Vec<Row> = Vec::with_capacity(steps);
    // Bystander anycast ingresses, sampled per step for blast-radius
    // attribution; skipped entirely when no trace is being recorded.
    let mut bystander_rows: Vec<Vec<Option<PeeringId>>> = Vec::new();
    for step in 0..steps {
        avail.push(control.sample(sample_time(step)));
        if sink.is_recording() {
            bystander_rows.push(
                world.bystanders.iter().map(|&b| control.plane.ingress(b, PrefixId(0))).collect(),
            );
        }
    }
    let base = &control.base;
    let new_tm = |stream: u64| {
        TmSimulation::new(TmSimulationConfig {
            seed: derive_seed(seed, stream),
            ..Default::default()
        })
    };
    let score = |tm: &mut TmSimulation, strategy: &str| {
        drain_and_score(tm, &spec.name, strategy, horizon, first_fault)
    };
    // A strategy whose whole story is its rows: the first `tunnels`
    // tunnels of the plan, full fault programming, unrecorded.
    let replay = |strategy: &str, stream: u64, tunnels: usize, rows: &[Row]| {
        let mut tm = new_tm(stream);
        let targets = add_tunnels(&mut tm, &world, &base[..tunnels]);
        program_tm(&schedule, &mut tm, &targets);
        replay_rows(&mut tm, &targets, rows, |_, _, _| TraceId::NONE);
        score(&mut tm, strategy)
    };

    // --- Strategy 1: PAINTER — every tunnel, full fault programming.
    // This is the strategy whose Traffic Manager feeds the flight
    // recorder: a fault cursor walks the schedule alongside the sampled
    // grid so each channel reprogramming carries the causal id of the
    // fault that explains it (the other strategies' TMs replay the same
    // physics unrecorded).
    let painter = {
        let mut tm = new_tm(1);
        tm.set_trace(sink.clone());
        let targets = add_tunnels(&mut tm, &world, base);
        program_tm_traced(&schedule, &mut tm, &targets, &control.spans);
        let mut cursor = FaultCursor::new(&world, &schedule, &control.spans);
        replay_rows(&mut tm, &targets, &avail, |t, idx, lit| cursor.cause(t, idx, lit));
        score(&mut tm, "painter")
    };

    // --- Strategy 2: anycast — one tunnel; recovery is BGP
    // reconvergence onto the surviving ingress.
    let anycast = replay("anycast", 2, 1, &avail);

    // --- Strategy 3: DNS — all unicast tunnels exist, but only the
    // currently-resolved record's tunnel is usable; the (health-checked)
    // resolver re-picks the lowest-RTT reachable prefix only at TTL
    // boundaries. Tunnel liveness flows through the sampled schedule, so
    // only the latency/loss/probe overlays are injected directly.
    let dns = {
        let mut tm = new_tm(3);
        let targets = add_tunnels(&mut tm, &world, base);
        program_overlays(&schedule, &mut tm, &targets);
        let ttl_ns = SimTime::from_secs(timing.dns_ttl_s).as_nanos().max(1);
        let mut resolved: Option<usize> = None;
        let mut window = u64::MAX;
        let usable = avail.iter().enumerate().map(|(step, row)| {
            let w = sample_time(step).as_nanos() / ttl_ns;
            if w != window {
                window = w;
                // Anycast (index 0) is not a DNS answer; an all-dark
                // fleet keeps the stale record.
                let best = row
                    .iter()
                    .enumerate()
                    .skip(1)
                    .filter_map(|(idx, s)| s.map(|(_, rtt)| (idx, rtt)))
                    .min_by(|a, b| a.1.total_cmp(&b.1));
                if let Some((idx, _)) = best {
                    resolved = Some(idx);
                }
            }
            let record = |(idx, cell): (usize, &Cell)| cell.filter(|_| Some(idx) == resolved);
            row.iter().enumerate().map(record).collect::<Row>()
        });
        replay_rows(&mut tm, &targets, usable, |_, _, _| TraceId::NONE);
        score(&mut tm, "dns")
    };

    // --- Strategy 4: the guarded closed loop, run live against the same
    // schedule. Its Traffic Manager deliberately shares painter's seed:
    // the two runs form a paired experiment, identical until a repair
    // actually commits (bit-identical rows ⇒ bit-identical scorecards).
    let (rows, learning) = run_closed_loop(&control, timing, seed, guard, &avail, &sink);
    let closed_loop = replay("painter-closed-loop", 1, base.len(), &rows);

    // --- Fold the recorded stream into per-fault incident records.
    let events = sink.events();
    let blast = bystander_blast(&schedule, &bystander_rows);
    let incidents = attribute(spec, &schedule, &events, &blast);

    Ok(CampaignOutcome {
        schedule,
        spec_json: spec.to_json(),
        painter,
        anycast,
        dns,
        closed_loop,
        learning,
        incidents,
        events,
    })
}

/// Walks the schedule alongside the sampling grid, tracking which fault
/// most recently explains each tunnel's loss (or return) of sampled
/// reachability, so per-cell channel reprogramming can carry the
/// responsible fault's span id without re-deriving BGP propagation.
/// Each injection is examined exactly once across the whole walk; with
/// an inert sink every span is `NONE` and the cursor hands out `NONE`.
struct FaultCursor<'a> {
    injections: &'a [Injection],
    world: &'a HarnessWorld,
    spans: &'a [TraceId],
    next: usize,
    down: Vec<TraceId>,
    up: Vec<TraceId>,
}

impl<'a> FaultCursor<'a> {
    fn new(world: &'a HarnessWorld, schedule: &'a Schedule, spans: &'a [TraceId]) -> Self {
        let none = vec![TraceId::NONE; world.plan.len()];
        FaultCursor {
            injections: schedule.injections(),
            world,
            spans,
            next: 0,
            down: none.clone(),
            up: none,
        }
    }

    /// The fault behind tunnel `idx` being lit (or dark) at `t`, for
    /// [`replay_rows`]; call with non-decreasing `t`.
    fn cause(&mut self, t: SimTime, idx: usize, lit: bool) -> TraceId {
        self.advance(t);
        let side = if lit { &self.up } else { &self.down };
        side.get(idx).copied().unwrap_or(TraceId::NONE)
    }

    /// Consumes every injection at or before `t`, updating which fault
    /// last pushed each tunnel down (or brought it back).
    fn advance(&mut self, t: SimTime) {
        while let Some(inj) = self.injections.get(self.next) {
            if inj.at > t {
                break;
            }
            self.next += 1;
            let span = self.spans.get(inj.fault).copied().unwrap_or(TraceId::NONE);
            if span.is_none() {
                continue;
            }
            match inj.event {
                FaultEvent::SessionDown { peering } => self.mark_peering(peering, span, true),
                FaultEvent::SessionUp { peering } => self.mark_peering(peering, span, false),
                FaultEvent::Withdraw { prefix, .. } => self.mark_prefix(prefix, span, true),
                FaultEvent::Announce { prefix, .. } => self.mark_prefix(prefix, span, false),
                FaultEvent::PopDown { pop } => self.mark_pop(pop, span, true),
                FaultEvent::PopUp { pop } => self.mark_pop(pop, span, false),
                FaultEvent::TunnelDown { tunnel } => self.mark_tunnel(tunnel, span, true),
                FaultEvent::TunnelUp { tunnel } => self.mark_tunnel(tunnel, span, false),
                _ => {}
            }
        }
    }

    fn mark_tunnel(&mut self, idx: usize, span: TraceId, down: bool) {
        let side = if down { &mut self.down } else { &mut self.up };
        if let Some(slot) = side.get_mut(idx) {
            *slot = span;
        }
    }

    fn mark_prefix(&mut self, prefix: PrefixId, span: TraceId, down: bool) {
        if let Some(idx) = self.world.plan.iter().position(|(p, _)| *p == prefix) {
            self.mark_tunnel(idx, span, down);
        }
    }

    fn mark_peering(&mut self, peering: PeeringId, span: TraceId, down: bool) {
        for idx in 0..self.world.plan.len() {
            if self.world.plan[idx].1.contains(&peering) {
                self.mark_tunnel(idx, span, down);
            }
        }
    }

    fn mark_pop(&mut self, pop: painter_topology::PopId, span: TraceId, down: bool) {
        let world = self.world;
        for idx in 0..world.plan.len() {
            if world.plan[idx].1.iter().any(|pe| world.deployment.peering(*pe).pop == pop) {
                self.mark_tunnel(idx, span, down);
            }
        }
    }
}

/// Per-fault blast radius over the sampled bystander ingresses: a
/// bystander counts as affected by fault `f` if its anycast ingress at
/// any step inside `f`'s injection window differs from the step just
/// before the window opened. Empty when bystanders were not sampled
/// (`obs-off`).
fn bystander_blast(schedule: &Schedule, rows: &[Vec<Option<PeeringId>>]) -> Vec<u64> {
    let faults = schedule.fault_count();
    let mut out = vec![0u64; faults];
    if rows.is_empty() {
        return out;
    }
    let last_step = rows.len() - 1;
    for (f, slot) in out.iter_mut().enumerate() {
        let mut first: Option<SimTime> = None;
        let mut last: Option<SimTime> = None;
        for inj in schedule.injections().iter().filter(|i| i.fault == f) {
            if first.is_none() {
                first = Some(inj.at);
            }
            last = Some(inj.at);
        }
        let (Some(first), Some(last)) = (first, last) else { continue };
        let s0 = ((first.as_ms() / SAMPLE_MS) as usize).min(last_step);
        let s1 = ((last.as_ms() / SAMPLE_MS) as usize + 1).min(last_step);
        let baseline = s0.saturating_sub(1);
        for (b, base) in rows[baseline].iter().enumerate() {
            if (s0..=s1).any(|s| rows[s][b] != *base) {
                *slot += 1;
            }
        }
    }
    out
}

/// Runs the advertise→measure→learn loop *inside* the campaign, guarded
/// by `painter_core::guard`, and returns the resulting data plane's rows
/// (scored as the `painter-closed-loop` strategy) with what the loop did.
///
/// The loop starts from the fixed plan and only ever *grows* it: when a
/// unicast prefix stays dark for [`DARK_ITERS`] iterations, the loop
/// marks its advertised ingresses unreachable and proposes announcing
/// the prefix via the best believed-alive peering. Proposals must clear
/// the hysteresis gate (sustained for K iterations), survive the
/// rollback guard's backoff window, and are installed through the
/// rate-limited installer. Post-install health that regresses beyond the
/// guardrails triggers an automatic revert to the last-known-good plan.
///
/// The installer state (repair engine, probation, rollback) is the
/// kernel's [`RepairPlane`]; what is this loop's own is the quarantined
/// learner, the dark-streak bookkeeping and the hysteresis-gated
/// proposal. Every step is a pure function of `(spec, seed)`, so
/// same-seed replays stay byte-identical.
fn run_closed_loop(
    control: &ControlPlane,
    timing: &ChaosTiming,
    seed: u64,
    guard: &GuardConfig,
    shared: &[Row],
    sink: &TraceSink,
) -> (Vec<Row>, LearningStats) {
    let ug = UgId(0);
    let (world, schedule) = (control.plane.world, control.plane.schedule);
    let plan = &world.plan;
    let base = &control.base;

    // The orchestrator's view of the harness world: one UG (the stub)
    // with every deployment peering as a candidate at its converged base
    // RTT. D_reuse is widened so the London peerings stay eligible as
    // repair targets for a New York UG.
    let peering_pop: Vec<usize> = world.deployment.peerings().iter().map(|p| p.pop.idx()).collect();
    let inputs = OrchestratorInputs {
        ugs: vec![UgView {
            id: ug,
            metro: world.stub_metro,
            weight: 1.0,
            anycast_ms: base[0],
            candidates: world
                .deployment
                .peerings()
                .iter()
                .map(|p| (p.id, base[p.id.idx() + 1]))
                .collect(),
        }],
        // Great-circle NY→{NY, London}; only the D_reuse comparison
        // consumes these.
        ug_pop_km: vec![vec![0.0, 5570.0]],
        peering_count: peering_pop.len(),
        capacities: None,
        peering_pop,
    };
    let config = OrchestratorConfig {
        prefix_budget: plan.len(),
        d_reuse_km: 10_000.0,
        threads: Some(1),
        ..Default::default()
    };
    let mut orch = Orchestrator::new(inputs, config);

    let obs = painter_obs::Registry::with_event_capacity(timing.event_capacity);
    let mut quarantine = QuarantineBuffer::with_obs(guard.quarantine, obs.clone());
    let mut hysteresis = PlanHysteresis::with_obs(guard.hysteresis, obs.clone());
    quarantine.set_trace(sink.clone());
    hysteresis.set_trace(sink.clone());
    let mut repair = RepairPlane::new(world, schedule, seed, guard.rollback, &obs, sink);

    let iter_len = SimTime::from_secs(ITER_S);
    let mut dark_iters = vec![0u32; plan.len()];
    let mut rows: Vec<Row> = Vec::with_capacity(shared.len());
    let mut stats = LearningStats::default();
    let mut next_iter = SimTime::from_secs(timing.warmup_s);
    let mut window = HealthWindow::default();

    for (step, shared_row) in shared.iter().enumerate() {
        let t = sample_time(step);
        rows.push(repair.overlay(t, shared_row));
        let latest = &rows[step];
        // Health is availability and p95 latency over the window's cells.
        for cell in latest {
            window.offered += 1.0;
            if let Some((_, rtt)) = cell {
                window.served += 1.0;
                window.rtts.push(*rtt);
            }
        }

        if t < next_iter {
            continue;
        }
        next_iter += iter_len;
        stats.iterations += 1;

        // (1) Churn-flag the advertised ingresses of any prefix whose
        // control-plane update volume spiked this window.
        let window_start = t.saturating_sub(iter_len);
        for (prefix, _) in plan {
            let updates = control.plane.updates_in_window(*prefix, window_start, t)
                + repair.plane.updates_in_window(*prefix, window_start, t);
            if updates > CHURN_UPDATES {
                for &pe in repair.installed().peerings_of(*prefix) {
                    quarantine.flag_churn(pe, t);
                }
            }
        }

        // (2) Measure: one observation per in-plan prefix, screened
        // through the quarantine before the learner sees it.
        let fresh = Observations {
            landed: plan
                .iter()
                .enumerate()
                .map(|(idx, (prefix, _))| (ug, *prefix, latest[idx]))
                .collect(),
        };
        stats.samples_offered += fresh.landed.len() as u64;
        orch.learn_guarded(repair.installed(), &fresh, &mut quarantine, t);

        // (3) Post-install probation / baseline ratchet over the window
        // since the last round.
        let reverted = repair.judge(t, window.take());

        // (4) Track sustained darkness and mark the believed-dead
        // ingresses (admitted landings clear the marks via `learn`).
        for idx in 1..plan.len() {
            if latest[idx].is_none() {
                dark_iters[idx] += 1;
                if dark_iters[idx] >= DARK_ITERS {
                    for &pe in plan[idx].1.iter() {
                        orch.model.mark_unreachable(ug, pe);
                    }
                }
            } else {
                dark_iters[idx] = 0;
            }
        }

        // (5) Propose: grow the installed plan with one repair pair per
        // sustained-dark unicast prefix, through hysteresis and the
        // rollback guard's backoff gate.
        if !reverted {
            let installed = repair.installed();
            let mut candidate = installed.clone();
            for idx in 1..plan.len() {
                if dark_iters[idx] >= DARK_ITERS {
                    let prefix = plan[idx].0;
                    let pick = orch.inputs.ugs[0]
                        .candidates
                        .iter()
                        .filter(|(pe, _)| !orch.model.is_unreachable(ug, *pe))
                        .filter(|(pe, _)| !candidate.contains(prefix, *pe))
                        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                    if let Some(&(pe, _)) = pick {
                        candidate.add(prefix, pe);
                    }
                }
            }
            let new_pairs = (candidate.pair_count() - installed.pair_count()) as f64;
            let evaluator = ConfigEvaluator::new(&orch.inputs, &orch.model);
            let modeled_delta = evaluator.benefit(&candidate) - evaluator.benefit(installed);
            let delta = modeled_delta + REPAIR_URGENCY * new_pairs;
            if let Some(commit) = hysteresis.consider_at(&candidate, delta, t) {
                repair.install(t, commit, hysteresis.last_commit_trace());
            }
        }
    }

    // End-of-run bookkeeping.
    stats.samples_admitted = quarantine.admitted_total;
    stats.samples_quarantined = quarantine.quarantined_total;
    stats.samples_discarded = quarantine.discarded_total;
    stats.quarantine_held = quarantine.held_len() as u64;
    stats.hysteresis_commits = hysteresis.commits_total;
    stats.hysteresis_resets = hysteresis.resets_total;
    stats.rollbacks = repair.rollbacks_total();
    stats.install_ops = repair.install_ops;
    stats.plan_churn_rate = stats.install_ops as f64 / stats.iterations.max(1) as f64;
    stats.final_pairs = repair.installed().pair_count() as u64;
    stats.dominance_learned = orch.model.dominance_count() as u64;
    stats.unreachable_marks = orch.model.unreachable_count() as u64;
    stats.events_dropped = obs.counter("obs.events_dropped").get();

    // Compliance-inference skew vs the fixed-plan baseline: the loop's
    // end-state believed ingresses against every landing the fixed plan
    // actually witnessed.
    let mut witnessed = ObservedReachability::new();
    for row in shared {
        for cell in row.iter().flatten() {
            witnessed.note(ug, cell.0);
        }
    }
    let believed: Vec<Vec<PeeringId>> = vec![orch.inputs.ugs[0]
        .candidates
        .iter()
        .map(|(p, _)| *p)
        .filter(|p| !orch.model.is_unreachable(ug, *p))
        .collect()];
    let (miss, spurious) = witnessed.skew(&believed, &world.deployment);
    stats.compliance_miss_rate = miss;
    stats.compliance_spurious_rate = spurious;
    (rows, stats)
}

/// Injects only the overlay faults (latency, bursty loss, probe-fleet
/// loss) — for strategies whose tunnel liveness is already authored by
/// the gated sampling loop, where `program_tm`'s blackhole recovery
/// events would wrongly revive channels the strategy may not use.
fn program_overlays(schedule: &Schedule, tm: &mut TmSimulation, targets: &[TmTarget]) {
    for inj in schedule.injections() {
        let at = inj.at;
        match inj.event {
            FaultEvent::LatencyAdd { tunnel, add_ms } => {
                if let Some(t) = targets.get(tunnel) {
                    tm.schedule_path_extra_latency(at, t.tunnel, add_ms);
                }
            }
            FaultEvent::LatencyClear { tunnel, .. } => {
                if let Some(t) = targets.get(tunnel) {
                    tm.schedule_path_extra_latency(at, t.tunnel, 0.0);
                }
            }
            FaultEvent::BurstStart { tunnel, p_enter_bad, p_leave_bad, loss_good, loss_bad } => {
                if let Some(t) = targets.get(tunnel) {
                    tm.schedule_path_burst(
                        at,
                        t.tunnel,
                        Some((p_enter_bad, p_leave_bad, loss_good, loss_bad)),
                    );
                }
            }
            FaultEvent::BurstEnd { tunnel } => {
                if let Some(t) = targets.get(tunnel) {
                    tm.schedule_path_burst(at, t.tunnel, None);
                }
            }
            FaultEvent::ProbeLoss { fraction } => tm.schedule_probe_loss(at, fraction),
            FaultEvent::ProbeRestore => tm.schedule_probe_loss(at, 0.0),
            _ => {}
        }
    }
}

/// The standard three-campaign suite, timed against `timing` so the
/// first fault always lands mid-TTL (DNS's worst case).
pub fn standard_suite(timing: &ChaosTiming) -> Vec<ScenarioSpec> {
    let t0 = timing.fault_at_s;
    let h = timing.horizon_s;
    let outage = (h - t0).min(30.0);
    vec![
        // Fig. 10 proper: one PoP dies; sessions notice on their own
        // failure-detection timers.
        ScenarioSpec::new("pop-outage", h).fault(
            FaultSpec::new(
                "popA",
                FaultKind::PopOutage { detection_spread_ms: 2100.0 },
                Target::Pop(0),
            )
            .at(t0)
            .lasting(outage),
        ),
        // Control-plane churn without a data-plane disaster: a flapping
        // session plus a withdrawal storm on its PoP neighbor.
        ScenarioSpec::new("bgp-churn", h)
            .fault(
                FaultSpec::new("flap0", FaultKind::SessionReset, Target::Peering(0))
                    .at(t0)
                    .lasting(3.0)
                    .recurring(10.0, 2, 2.0),
            )
            .fault(
                FaultSpec::new(
                    "storm1",
                    FaultKind::WithdrawStorm { spread_ms: 700.0 },
                    Target::Peering(1),
                )
                .at(t0 + 5.0)
                .lasting(6.0),
            ),
        // The compound case: the PoP outage *plus* degraded survivors
        // (latency spike and bursty loss at PoP-B) *plus* a darkened
        // probe fleet — every plane faulted at once.
        ScenarioSpec::new("multi-fault", h)
            .fault(
                FaultSpec::new(
                    "popA",
                    FaultKind::PopOutage { detection_spread_ms: 2100.0 },
                    Target::Pop(0),
                )
                .at(t0)
                .lasting(outage),
            )
            .fault(
                FaultSpec::new(
                    "spike-b1",
                    FaultKind::LatencySpike { add_ms: 35.0 },
                    Target::Tunnel(3),
                )
                .at(t0 + 2.0)
                .lasting(10.0),
            )
            .fault(
                FaultSpec::new(
                    "burst-b2",
                    FaultKind::BurstyLoss {
                        p_enter_bad: 0.05,
                        p_leave_bad: 0.25,
                        loss_good: 0.0,
                        loss_bad: 0.7,
                    },
                    Target::Tunnel(4),
                )
                .at(t0 + 2.0)
                .lasting(10.0),
            )
            .fault(
                FaultSpec::new("fleet", FaultKind::ProbeFleetLoss { fraction: 0.3 }, Target::Fleet)
                    .at(t0)
                    .lasting(20.0),
            ),
    ]
}

/// Runs the standard suite at a scale and seed.
pub fn run_suite(scale: Scale, seed: u64) -> Result<Vec<CampaignOutcome>, String> {
    let timing = ChaosTiming::for_scale(scale);
    standard_suite(&timing).iter().map(|spec| run_campaign(spec, &timing, seed)).collect()
}

/// The whole suite as flat `chaos.*` report sections (provenance plus
/// three scorecards per campaign), ready to push into a `RunReport`.
pub fn suite_sections(scale: Scale, seed: u64) -> Result<Vec<Section>, String> {
    Ok(run_suite(scale, seed)?.iter().flat_map(|o| o.sections()).collect())
}

/// One cell of the detection-parameter sweep: a TM tuning against a
/// [`FaultKind::LinkBlackhole`] campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    pub probe_interval_ms: f64,
    pub timeout_factor: f64,
    pub dead_rto_ms: f64,
    /// Fault injection → first failover switch (ms); `-1` if the fault
    /// was never detected. Driven by the timeout factor and the send
    /// rate (the fault hits the active path).
    pub detection_ms: f64,
    /// Blackhole lift → fail-back onto the recovered primary (ms); `-1`
    /// if the TM never came back. Driven by the probe plane: a dead
    /// tunnel is only ever heard from again via its probes.
    pub recovery_ms: f64,
    /// Switches outside the fault window (and its fail-back grace):
    /// probes crying wolf.
    pub false_failovers: u64,
    pub availability: f64,
}

impl SweepPoint {
    /// Deterministic, filename-safe cell tag:
    /// `p<probe-ms>_t<factor×100>_d<rto-ms>`.
    pub fn tag(&self) -> String {
        format!(
            "p{}_t{}_d{}",
            self.probe_interval_ms as u64,
            (self.timeout_factor * 100.0).round() as u64,
            self.dead_rto_ms as u64
        )
    }
}

/// Sweeps the Traffic Manager's failure-detection knobs (probe interval,
/// timeout factor, dead-path RTO floor) against a `LinkBlackhole`
/// campaign on the primary tunnel, mapping the detection-latency vs
/// false-failover tradeoff.
///
/// A link blackhole is the gray-failure shape: BGP never reacts, so the
/// control plane is deliberately absent here and every channel sits at
/// its base RTT — the sweep isolates the probe plane. All cells share
/// one TM seed (paired runs), so differences between cells are the
/// knobs' doing alone.
pub fn run_sweep(timing: &ChaosTiming, seed: u64) -> Result<(String, Vec<SweepPoint>), String> {
    // Representative converged RTTs: anycast, two near unicast paths,
    // two far ones. The blackhole hits tunnel 1 — the path the TM rides.
    const BASE: [f64; 5] = [10.0, 6.0, 12.0, 70.0, 75.0];
    const PROBE_MS: [f64; 3] = [25.0, 50.0, 100.0];
    const TIMEOUT_FACTOR: [f64; 3] = [1.15, 1.3, 2.0];
    const DEAD_RTO_MS: [f64; 3] = [100.0, 300.0, 900.0];
    const FAULT_SECS: f64 = 15.0;
    /// Post-recovery window where fail-back switches are legitimate.
    const FAILBACK_GRACE_S: f64 = 5.0;

    check_clock(&[("horizon_s", timing.horizon_s)])?;
    let world = build_world();
    let spec = ScenarioSpec::new("blackhole-sweep", timing.horizon_s).fault(
        FaultSpec::new("bh1", FaultKind::LinkBlackhole, Target::Tunnel(1))
            .at(timing.fault_at_s)
            .lasting(FAULT_SECS),
    );
    let schedule = Schedule::compile(&spec, &world.view(), seed)?;
    let fault_at = schedule.first_at().ok_or("sweep schedule has no injections")?;
    let fault_end = fault_at + SimTime::from_secs(FAULT_SECS);
    let grace_end = fault_end + SimTime::from_secs(FAILBACK_GRACE_S);
    let horizon = SimTime::from_secs(timing.horizon_s);

    let mut points = Vec::new();
    for &probe_interval_ms in &PROBE_MS {
        for &timeout_factor in &TIMEOUT_FACTOR {
            for &dead_rto_ms in &DEAD_RTO_MS {
                let mut config = TmSimulationConfig {
                    seed: derive_seed(seed, 5),
                    probe_interval_ms,
                    ..Default::default()
                };
                config.edge.timeout_factor = timeout_factor;
                config.edge.dead_rto_ms = dead_rto_ms;
                let mut tm = TmSimulation::new(config);
                let targets = add_tunnels(&mut tm, &world, &BASE);
                program_tm(&schedule, &mut tm, &targets);
                let availability =
                    drain_and_score(&mut tm, &spec.name, "painter", horizon, fault_at)
                        .availability();

                let detection_ms = tm
                    .switch_log()
                    .iter()
                    .find(|s| s.at >= fault_at)
                    .map(|s| (s.at - fault_at).as_ms())
                    .unwrap_or(-1.0);
                let faulted = world.plan[1].0;
                let recovery_ms = tm
                    .switch_log()
                    .iter()
                    .find(|s| s.at >= fault_end && s.to == faulted)
                    .map(|s| (s.at - fault_end).as_ms())
                    .unwrap_or(-1.0);
                // Ignore the initial pick (t=0) and anything after the
                // horizon; a switch while no fault is live is a false
                // failover.
                let false_failovers = tm
                    .switch_log()
                    .iter()
                    .filter(|s| s.at > SimTime::from_secs(1.0) && s.at <= horizon)
                    .filter(|s| s.at < fault_at || s.at > grace_end)
                    .count() as u64;
                points.push(SweepPoint {
                    probe_interval_ms,
                    timeout_factor,
                    dead_rto_ms,
                    detection_ms,
                    recovery_ms,
                    false_failovers,
                    availability,
                });
            }
        }
    }
    Ok((spec.to_json(), points))
}

/// The sweep as `chaos.sweep.*` report sections: a provenance header,
/// one section per cell, and a `(detection_ms, false_failovers)`
/// tradeoff series.
pub fn sweep_sections(scale: Scale, seed: u64) -> Result<Vec<Section>, String> {
    let timing = ChaosTiming::for_scale(scale);
    let (spec_json, points) = run_sweep(&timing, seed)?;
    let mut out = Vec::with_capacity(points.len() + 2);
    out.push(
        Section::new("chaos.sweep.config")
            .field("seed", seed)
            .field("cells", points.len())
            .field("spec", spec_json.as_str()),
    );
    for p in &points {
        out.push(
            Section::new(format!("chaos.sweep.{}", p.tag()))
                .field("probe_interval_ms", p.probe_interval_ms)
                .field("timeout_factor", p.timeout_factor)
                .field("dead_rto_ms", p.dead_rto_ms)
                .field("detection_ms", p.detection_ms)
                .field("recovery_ms", p.recovery_ms)
                .field("false_failovers", p.false_failovers)
                .field("availability", p.availability),
        );
    }
    let tradeoff: Vec<(f64, f64)> =
        points.iter().map(|p| (p.detection_ms, p.false_failovers as f64)).collect();
    out.push(Section::new("chaos.sweep.tradeoff").field("points", tradeoff));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop_outage() -> (ScenarioSpec, ChaosTiming) {
        let timing = ChaosTiming::for_scale(Scale::Test);
        let spec = standard_suite(&timing).remove(0);
        (spec, timing)
    }

    #[test]
    fn pop_outage_orders_painter_anycast_dns() {
        let (spec, timing) = pop_outage();
        let out = run_campaign(&spec, &timing, 1).expect("campaign");
        // PAINTER recovers on the probe timescale; anycast waits for
        // BGP; DNS waits for the 40 s TTL boundary (fault at 22 s).
        let p = out.painter.worst_ttr_ms();
        let a = out.anycast.worst_ttr_ms();
        let d = out.dns.worst_ttr_ms();
        assert!(p < 1_000.0, "painter ttr {p} ms");
        assert!(a > p, "anycast {a} ms must be slower than painter {p} ms");
        assert!(d > a, "dns {d} ms must be slower than anycast {a} ms");
        assert!(d > 10_000.0 && d < 25_000.0, "dns waits out the TTL, got {d} ms");
        assert_eq!(out.dns.unrecovered, 0, "dns must recover at the boundary");
        // Everyone loses some requests; painter loses the fewest.
        assert!(out.painter.availability() > out.anycast.availability());
        assert!(out.anycast.availability() > out.dns.availability());
    }

    #[test]
    fn default_guard_config_reproduces_the_unparameterized_campaign() {
        // GuardConfig lifted the guard constants out of this module; the
        // default must reproduce the pre-GuardConfig closed loop down to
        // the last byte of every section.
        let (spec, timing) = pop_outage();
        let plain = run_campaign(&spec, &timing, 1).expect("campaign");
        let explicit =
            run_campaign_with_guard(&spec, &timing, 1, &GuardConfig::default()).expect("campaign");
        assert_eq!(plain.sections(), explicit.sections());
        // And the knobs genuinely steer the loop: an infinite hysteresis
        // streak means no repair ever commits.
        let mut frozen = GuardConfig::default();
        frozen.hysteresis.required_streak = u32::MAX;
        let gated = run_campaign_with_guard(&spec, &timing, 1, &frozen).expect("campaign");
        assert_eq!(gated.learning.hysteresis_commits, 0, "{:?}", gated.learning);
        assert!(plain.learning.hysteresis_commits > 0, "{:?}", plain.learning);
    }

    #[test]
    fn campaigns_replay_bit_identically() {
        let (spec, timing) = pop_outage();
        let a = run_campaign(&spec, &timing, 7).expect("campaign");
        let b = run_campaign(&spec, &timing, 7).expect("campaign");
        assert_eq!(a.schedule.trace(), b.schedule.trace());
        assert_eq!(a.sections(), b.sections());
        let c = run_campaign(&spec, &timing, 8).expect("campaign");
        assert_ne!(a.schedule.trace(), c.schedule.trace(), "seed must matter");
    }

    #[test]
    fn sections_carry_provenance_and_all_four_strategies() {
        let (spec, timing) = pop_outage();
        let out = run_campaign(&spec, &timing, 1).expect("campaign");
        let sections = out.sections();
        let titles: Vec<&str> = sections.iter().map(|s| s.title.as_str()).collect();
        assert_eq!(
            titles,
            vec![
                "chaos.pop-outage.schedule",
                "chaos.pop-outage.painter",
                "chaos.pop-outage.anycast",
                "chaos.pop-outage.dns",
                "chaos.pop-outage.painter-closed-loop",
                "chaos.pop-outage.learning",
                "chaos.pop-outage.incidents",
                "chaos.pop-outage.incident0",
            ]
        );
        // The recorded spec round-trips through the loader.
        let spec_field = match sections[0].get("spec") {
            Some(painter_obs::Value::Str(s)) => s.clone(),
            other => panic!("expected spec string, got {other:?}"),
        };
        let back = ScenarioSpec::from_json(&spec_field).expect("spec round-trip");
        assert_eq!(back, spec);
    }

    #[test]
    fn closed_loop_repairs_then_rolls_back_under_a_pop_outage() {
        let (spec, timing) = pop_outage();
        let out = run_campaign(&spec, &timing, 1).expect("campaign");
        // The sustained-dark prefixes force a repair commit through the
        // hysteresis gate, and the post-install health window (still
        // mid-outage, measured against the pre-fault baseline) trips the
        // availability guardrail into a rollback.
        assert!(out.learning.hysteresis_commits >= 1, "stats {:?}", out.learning);
        assert!(out.learning.rollbacks >= 1, "stats {:?}", out.learning);
        assert!(out.learning.install_ops >= 2, "install + revert, {:?}", out.learning);
        // The withdraw burst at fault onset churn-flags the dying
        // ingresses; their samples must be held, not learned.
        assert!(out.learning.samples_quarantined > 0, "stats {:?}", out.learning);
        // Grow-only repairs plus overlay scoring: the closed loop never
        // does worse than the fixed plan it protects.
        assert!(
            out.closed_loop.availability() >= out.painter.availability(),
            "closed loop {} vs painter {}",
            out.closed_loop.availability(),
            out.painter.availability()
        );
    }

    #[test]
    fn every_fault_is_attributed_and_replays_bit_identically() {
        let timing = ChaosTiming::for_scale(Scale::Test);
        // multi-fault: the PoP outage plus a latency spike, bursty loss,
        // and a darkened probe fleet — four faults, not all of which
        // produce liveness evidence.
        let spec = standard_suite(&timing).remove(2);
        let a = run_campaign(&spec, &timing, 1).expect("campaign");
        let b = run_campaign(&spec, &timing, 1).expect("campaign");

        // Total attribution: exactly one incident per spec fault.
        assert_eq!(a.incidents.len(), a.schedule.fault_count());
        assert_eq!(a.incidents.len(), spec.faults.len());
        for (f, inc) in a.incidents.iter().enumerate() {
            assert_eq!(inc.fault, f);
            assert_eq!(inc.name, spec.faults[f].name);
        }

        // The explanation artifacts are byte-identical across replays.
        assert_eq!(a.incidents, b.incidents);
        let timeline_a = crate::incidents::render_timeline(&a.schedule, &a.events, &a.incidents);
        let timeline_b = crate::incidents::render_timeline(&b.schedule, &b.events, &b.incidents);
        assert_eq!(timeline_a, timeline_b);
        assert_eq!(
            painter_obs::fnv1a(timeline_a.as_bytes()),
            painter_obs::fnv1a(timeline_b.as_bytes())
        );
        assert_eq!(
            painter_obs::chrome_trace_json(&a.events),
            painter_obs::chrome_trace_json(&b.events)
        );

        if painter_obs::enabled() {
            // The PoP outage (fault 0) must be fully explained: its
            // withdrawals and blackholed ingresses chain to tunnel
            // deaths, a failover, and an eventual recovery.
            let outage = &a.incidents[0];
            assert!(outage.observed, "{outage:?}");
            assert_eq!(outage.kind, "pop_outage");
            assert!(outage.detection_ms >= 0.0, "{outage:?}");
            assert!(outage.failover_ms >= 0.0, "{outage:?}");
            assert!(outage.blast_tunnels >= 1, "{outage:?}");
            assert!(outage.blast_ugs >= 1, "{outage:?}");
            assert_ne!(outage.recovered_by, "none", "{outage:?}");
            // The probe-fleet darkening is detected via suppressed
            // probes chained to its fault span.
            let fleet = &a.incidents[3];
            assert_eq!(fleet.kind, "probe_fleet_loss");
            assert!(fleet.observed, "{fleet:?}");
            // The latency spike degrades RTT but kills nothing: no
            // liveness evidence ever chains to it, and the attribution
            // says so explicitly instead of dropping it.
            let spike = &a.incidents[1];
            assert!(!spike.observed, "{spike:?}");
            assert_eq!(spike.recovered_by, "none");
            assert!(!a.events.is_empty());
        } else {
            // obs-off: the stream is empty, the schema is unchanged,
            // and every fault reports explicitly unobserved.
            assert!(a.events.is_empty());
            assert!(a.incidents.iter().all(|i| !i.observed));
        }
    }

    #[test]
    fn route_leak_churn_is_quarantined_not_learned() {
        let timing = ChaosTiming::for_scale(Scale::Test);
        let spec = ScenarioSpec::new("route-leak", timing.horizon_s).fault(
            FaultSpec::new("leak0", FaultKind::RouteLeak, Target::Peering(0))
                .at(timing.fault_at_s)
                .lasting(10.0),
        );
        let out = run_campaign(&spec, &timing, 1).expect("campaign");
        // The leak floods the control plane with policy-violating
        // announcements. The loop must hold those windows' samples in
        // quarantine rather than fold leak-era paths into the model...
        assert!(out.learning.samples_quarantined > 0, "stats {:?}", out.learning);
        // ...and must not invent darkness: the stub's data plane never
        // actually broke, so no ingress gets marked unreachable, no
        // repair commits, and the scored data plane matches the fixed
        // plan's exactly.
        assert_eq!(out.learning.unreachable_marks, 0, "stats {:?}", out.learning);
        assert_eq!(out.learning.hysteresis_commits, 0, "stats {:?}", out.learning);
        assert_eq!(
            out.closed_loop.availability(),
            out.painter.availability(),
            "no commit ⇒ the paired runs must score identically"
        );
    }

    #[test]
    fn sweep_maps_the_detection_tradeoff() {
        let timing = ChaosTiming::for_scale(Scale::Test);
        let (_, points) = run_sweep(&timing, 1).expect("sweep");
        assert_eq!(points.len(), 27, "3x3x3 grid");
        for p in &points {
            assert!(p.detection_ms >= 0.0, "undetected blackhole at {}", p.tag());
            assert!(p.recovery_ms >= 0.0, "no fail-back at {}", p.tag());
            assert!(p.availability > 0.9, "availability collapse at {}", p.tag());
        }
        // The fault hits the active path, so detection rides the send
        // stream and stays fast everywhere; recovery of a dead path is
        // probe-driven, so tighter probing fails back sooner on average.
        let mean_recovery = |probe: f64| {
            let v: Vec<f64> = points
                .iter()
                .filter(|p| p.probe_interval_ms == probe)
                .map(|p| p.recovery_ms)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            mean_recovery(25.0) < mean_recovery(100.0),
            "25 ms probes {} must fail back before 100 ms probes {}",
            mean_recovery(25.0),
            mean_recovery(100.0)
        );
        // Sections render one cell each plus config and tradeoff.
        let sections = sweep_sections(Scale::Test, 1).expect("sections");
        assert_eq!(sections.len(), 29);
        assert_eq!(sections[0].title, "chaos.sweep.config");
        assert_eq!(sections[1].title, "chaos.sweep.p25_t115_d100");
        assert_eq!(sections.last().unwrap().title, "chaos.sweep.tradeoff");
    }

    #[test]
    fn hostile_clocks_are_rejected_not_panicked_on() {
        let (spec, timing) = pop_outage();
        // An infinite horizon used to saturate the step count and abort
        // in `Vec::with_capacity`.
        let endless = ChaosTiming { horizon_s: f64::INFINITY, ..timing };
        let err = run_campaign(&spec, &endless, 1).unwrap_err();
        assert!(err.contains("horizon_s"), "{err}");
        assert!(run_sweep(&endless, 1).unwrap_err().contains("horizon_s"));
        let err =
            run_campaign(&spec, &ChaosTiming { warmup_s: f64::NAN, ..timing }, 1).unwrap_err();
        assert!(err.contains("warmup_s"), "{err}");
    }

    #[test]
    fn standard_suite_compiles_against_the_harness_world() {
        let timing = ChaosTiming::for_scale(Scale::Test);
        let view = harness_world_view();
        for spec in standard_suite(&timing) {
            let s = Schedule::compile(&spec, &view, 1).expect("compile");
            assert!(!s.injections().is_empty(), "{} is empty", spec.name);
            assert!(s.first_at().unwrap() >= SimTime::from_secs(timing.warmup_s));
        }
    }
}
