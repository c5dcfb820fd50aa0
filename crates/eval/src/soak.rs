//! Long-horizon soak campaigns: days of virtual time under a closed loop.
//!
//! Where [`crate::chaos`] asks "how fast does each strategy recover from
//! one campaign of faults?", the soak harness asks the endurance
//! question: does the guarded learning loop stay healthy over *days* of
//! virtual time, under demand that rotates with the sun, scheduled
//! rolling maintenance, probe-dark bursts, oscillating partial repairs,
//! and — the part a single-loop campaign cannot show — several repair
//! engines proposing *conflicting* candidates over one shared plan.
//!
//! One soak run strings together, per virtual day:
//!
//! * a diurnal demand rotation ([`painter_tm::DiurnalRotator`]) over the
//!   UG population, mass-conserving, plus a flash-crowd-style surge
//!   cohort (one seeded UG per day multiplies its weight);
//! * a rolling maintenance drain ([`painter_chaos::FaultKind::MaintenanceDrain`]
//!   over [`painter_chaos::Target::All`]): each PoP is drained in
//!   sequence with advertised grace;
//! * an anycast blackhole overlapping the drain, so the fallback path is
//!   gone exactly when the per-UG primaries are — the window where only
//!   a committed repair keeps a UG served;
//! * probe-dark bursts ([`painter_chaos::FaultKind::ProbeDark`]) that
//!   blind the monitors in pulses, and an oscillating partial repair
//!   ([`painter_chaos::FaultKind::OscillatingRepair`]) that punishes
//!   commit-on-first-good-sample loops;
//! * background BGP churn (recurring session flaps) and a latency spike.
//!
//! Each user group runs its *own* repair monitor; when several primaries
//! go dark in the same drain window the monitors' candidates conflict,
//! and [`painter_core::RepairArbiter`] decides the round: one winner
//! commits (benefit-at-risk ranking), competitors are deferred inside
//! the winner's mutual-exclusion window, and repeat losers serve a
//! bounded backoff during which their bids are rejected unscored. Every
//! verdict is traced through the flight recorder (`guard.arbiter_*`).
//! The world, the control plane and the installer state (overlay,
//! probation, rollback) are the campaign kernel's (`campaign.rs`); this
//! module keeps the demand-weighted scoring, the probe-blind rounds and
//! the arbiter bids.
//!
//! Determinism: the world, the compiled schedule, the rotator phases,
//! the surge cohorts, and every arbitration round are pure functions of
//! `(scale, seed)`; [`SoakOutcome::sections`] — including the FNV-1a
//! digest of the per-tick served/weight stream — is byte-identical
//! across same-seed reruns. `tests` below and the CI `replay-determinism`
//! job both pin that contract.

use crate::campaign::{
    build_world, check_clock, ControlPlane, HealthWindow, RepairPlane, DARK_ITERS, ITER_S,
};
use crate::scenario::Scale;
use painter_chaos::{FaultEvent, FaultKind, FaultSpec, ScenarioSpec, Schedule, Target};
use painter_core::{ArbiterConfig, ArbiterVerdict, GuardConfig, RepairArbiter, RepairBid};
use painter_eventsim::{derive_seed, SimRng, SimTime};
use painter_obs::{Fnv1a, Section, TraceSink};

/// Sampling tick of the soak model loop (seconds). Coarser than the
/// chaos harness's 25 ms grid: a soak trades per-request fidelity for
/// days of horizon.
const TICK_S: f64 = 1.0;
/// BGP warm-up before ticks start counting toward availability.
const WARMUP_S: f64 = 30.0;
/// Probe-dark fraction at or above which the monitors are blind (no
/// dark-count advance, no bids, no probation verdicts).
const BLIND_FRACTION: f64 = 0.5;
/// Per-round decay of the per-prefix flap memory feeding bid risk.
const FLAP_DECAY: f64 = 0.8;
/// Benefit scale: a bid's benefit is the UG's current share of total
/// demand times this (so surge/diurnal weighting decides contested
/// rounds).
const BENEFIT_SCALE: f64 = 100.0;

/// Seed stream markers (soak-local; disjoint from the harness's).
const SURGE_STREAM: u64 = 0xF1A5;

/// Shape of one soak campaign.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Virtual days in the campaign.
    pub days: u32,
    /// Seconds per virtual day.
    pub day_s: f64,
    /// Diurnal modulation depth.
    pub amplitude: f64,
    /// Weight multiplier for the daily surge cohort.
    pub surge_factor: f64,
    /// Closed-loop guard preset.
    pub guard: GuardConfig,
    /// Arbitration tuning.
    pub arbiter: ArbiterConfig,
    /// Bounded obs event-ring capacity for the run.
    pub event_capacity: usize,
}

impl SoakConfig {
    /// The campaign shape for a [`Scale`]. `Test` compresses a day to
    /// three hours so the 2-day campaign still covers six hours of
    /// virtual time in seconds of wall clock; `Soak`/`Paper` run two
    /// full 24 h days.
    pub fn for_scale(scale: Scale) -> SoakConfig {
        let (days, day_s) = match scale {
            Scale::Test => (2, 10_800.0),
            Scale::Paper | Scale::Soak => (2, 86_400.0),
        };
        SoakConfig {
            days,
            day_s,
            amplitude: 0.6,
            surge_factor: 3.0,
            guard: GuardConfig::default(),
            arbiter: ArbiterConfig::default(),
            event_capacity: 4 * painter_obs::Registry::DEFAULT_EVENT_CAPACITY,
        }
    }

    /// Campaign horizon (seconds).
    pub fn horizon_s(&self) -> f64 {
        self.days as f64 * self.day_s
    }
}

/// Per-day scorecard of one soak campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoakDayStats {
    pub day: u32,
    /// Demand-weighted availability of the fixed plan (primary prefix
    /// with anycast fallback; no repairs).
    pub availability_fixed: f64,
    /// Demand-weighted availability with the arbitrated repair overlay.
    pub availability_loop: f64,
    /// Longest single-UG outage ending this day under the fixed plan
    /// (seconds).
    pub worst_ttr_fixed_s: f64,
    /// Longest single-UG outage ending this day with repairs (seconds).
    pub worst_ttr_loop_s: f64,
    pub arbiter_wins: u64,
    pub arbiter_deferrals: u64,
    pub arbiter_rejections: u64,
    pub commits: u64,
    pub rollbacks: u64,
    /// The UG whose weight surged this day.
    pub surge_ug: u32,
}

impl SoakDayStats {
    fn section(&self) -> Section {
        Section::new(format!("soak.day{}", self.day))
            .field("availability_fixed", self.availability_fixed)
            .field("availability_loop", self.availability_loop)
            .field("worst_ttr_fixed_s", self.worst_ttr_fixed_s)
            .field("worst_ttr_loop_s", self.worst_ttr_loop_s)
            .field("arbiter_wins", self.arbiter_wins)
            .field("arbiter_deferrals", self.arbiter_deferrals)
            .field("arbiter_rejections", self.arbiter_rejections)
            .field("commits", self.commits)
            .field("rollbacks", self.rollbacks)
            .field("surge_ug", self.surge_ug as u64)
    }
}

/// One soak campaign's full result.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakOutcome {
    pub seed: u64,
    pub days: u32,
    pub day_s: f64,
    pub horizon_s: f64,
    pub ugs: u32,
    /// Canonical JSON of the generated scenario spec (provenance).
    pub spec_json: String,
    /// Injection-trace digest of the compiled schedule (replay receipt).
    pub trace_fnv1a: u64,
    /// FNV-1a over the per-tick served/weight stream — the byte-replay
    /// receipt for the *model* loop (schedule digest covers only the
    /// injections).
    pub rows_fnv1a: u64,
    pub day_stats: Vec<SoakDayStats>,
    pub wins_total: u64,
    pub deferrals_total: u64,
    pub rejections_total: u64,
    /// Arbitration rounds with two or more competing bids.
    pub conflict_rounds: u64,
    pub commits_total: u64,
    pub rollbacks_total: u64,
    /// `(prefix, peering)` pairs installed at the horizon.
    pub final_pairs: u64,
    /// Flight-recorder events captured.
    pub events_recorded: u64,
    /// Events the bounded obs ring overwrote.
    pub events_dropped: u64,
}

impl SoakOutcome {
    /// Report sections: `soak.config`, one `soak.day<k>` per day,
    /// `soak.arbitration`, `soak.events`.
    pub fn sections(&self) -> Vec<Section> {
        let mut out = Vec::with_capacity(self.day_stats.len() + 3);
        out.push(
            Section::new("soak.config")
                .field("seed", self.seed)
                .field("days", self.days as u64)
                .field("day_s", self.day_s)
                .field("horizon_s", self.horizon_s)
                .field("tick_s", TICK_S)
                .field("iter_s", ITER_S)
                .field("ugs", self.ugs as u64)
                .field("trace_fnv1a", format!("{:016x}", self.trace_fnv1a))
                .field("spec", self.spec_json.as_str()),
        );
        for day in &self.day_stats {
            out.push(day.section());
        }
        out.push(
            Section::new("soak.arbitration")
                .field("engines", self.ugs as u64)
                .field("wins", self.wins_total)
                .field("deferrals", self.deferrals_total)
                .field("rejections", self.rejections_total)
                .field("conflict_rounds", self.conflict_rounds)
                .field("contention_demonstrated", self.deferrals_total + self.rejections_total > 0),
        );
        out.push(
            Section::new("soak.events")
                .field("rows_fnv1a", format!("{:016x}", self.rows_fnv1a))
                .field("events_recorded", self.events_recorded)
                .field("events_dropped", self.events_dropped)
                .field("commits", self.commits_total)
                .field("rollbacks", self.rollbacks_total)
                .field("final_pairs", self.final_pairs),
        );
        out
    }
}

/// Builds the generated soak scenario: the same fault choreography
/// every day, staggered by day start, with the oscillating-repair and
/// latency-spike tunnels rotating daily.
pub(crate) fn soak_spec(config: &SoakConfig) -> ScenarioSpec {
    let d = config.day_s;
    let mut spec = ScenarioSpec::new("soak", config.horizon_s());
    for day in 0..config.days {
        let at = day as f64 * d;
        let day_tunnel = 1 + (day % 4);
        spec = spec
            .fault(
                FaultSpec::new(
                    format!("d{day}-churn"),
                    FaultKind::SessionReset,
                    Target::Peering(day % 4),
                )
                .at(at + 0.06 * d)
                .lasting(20.0)
                .recurring(0.03 * d, 2, 5.0),
            )
            .fault(
                FaultSpec::new(
                    format!("d{day}-maintenance"),
                    FaultKind::MaintenanceDrain { grace_s: 15.0 },
                    Target::All,
                )
                .at(at + 0.25 * d)
                .lasting(0.2 * d),
            )
            // The anycast tunnel blackholes across the first drain slot:
            // with both the primary and the fallback dark, only an
            // arbitrated repair keeps those UGs served.
            .fault(
                FaultSpec::new(
                    format!("d{day}-anycast-blackhole"),
                    FaultKind::LinkBlackhole,
                    Target::Tunnel(0),
                )
                .at(at + 0.26 * d)
                .lasting(0.10 * d),
            )
            .fault(
                FaultSpec::new(
                    format!("d{day}-probe-dark"),
                    FaultKind::ProbeDark { fraction: 0.9, period_s: 40.0, duty: 0.5 },
                    Target::Fleet,
                )
                .at(at + 0.55 * d)
                .lasting(0.08 * d),
            )
            .fault(
                FaultSpec::new(
                    format!("d{day}-oscillating"),
                    FaultKind::OscillatingRepair { period_s: 40.0, add_ms: 25.0 },
                    Target::Tunnel(day_tunnel),
                )
                .at(at + 0.70 * d)
                .lasting(0.06 * d),
            )
            .fault(
                FaultSpec::new(
                    format!("d{day}-latency"),
                    FaultKind::LatencySpike { add_ms: 30.0 },
                    Target::Tunnel(1 + ((day + 1) % 4)),
                )
                .at(at + 0.85 * d)
                .lasting(120.0),
            );
    }
    spec
}

/// Piecewise-constant probe-dark fraction over the campaign, compiled
/// from the schedule's `ProbeLoss`/`ProbeRestore` injections.
struct ProbeCursor {
    /// `(at, fraction)` transitions, in schedule order.
    transitions: Vec<(SimTime, f64)>,
    next: usize,
    fraction: f64,
}

impl ProbeCursor {
    fn new(schedule: &Schedule) -> ProbeCursor {
        let transitions = schedule
            .injections()
            .iter()
            .filter_map(|inj| match inj.event {
                FaultEvent::ProbeLoss { fraction } => Some((inj.at, fraction)),
                FaultEvent::ProbeRestore => Some((inj.at, 0.0)),
                _ => None,
            })
            .collect();
        ProbeCursor { transitions, next: 0, fraction: 0.0 }
    }

    fn advance(&mut self, now: SimTime) -> f64 {
        while let Some(&(at, f)) = self.transitions.get(self.next) {
            if at > now {
                break;
            }
            self.fraction = f;
            self.next += 1;
        }
        self.fraction
    }
}

/// Outage-run tracking for one UG: `run` counts consecutive dark ticks,
/// and a run is booked into `worst_ttr_s` of the day it *ends* in (or the
/// last day at the horizon).
fn note_run(run: &mut usize, served: bool, worst_ttr_s: &mut f64) {
    if !served {
        *run += 1;
    } else if *run > 0 {
        *worst_ttr_s = worst_ttr_s.max(*run as f64 * TICK_S);
        *run = 0;
    }
}

/// Runs one soak campaign. Everything downstream is a pure function of
/// `(scale, seed)`.
pub fn run_soak(scale: Scale, seed: u64) -> Result<SoakOutcome, String> {
    run_soak_with_config(&SoakConfig::for_scale(scale), seed)
}

/// [`run_soak`] with an explicit campaign shape.
pub fn run_soak_with_config(config: &SoakConfig, seed: u64) -> Result<SoakOutcome, String> {
    if config.days == 0 {
        return Err("days must be at least 1, got 0".to_string());
    }
    check_clock(&[("day_s", config.day_s)])?;
    // A NaN weight poisons every availability sum; the rotator clamps
    // the amplitude's range but lets NaN through.
    if !config.surge_factor.is_finite() || config.surge_factor < 0.0 {
        let got = config.surge_factor;
        return Err(format!("surge_factor must be finite and non-negative, got {got}"));
    }
    if !config.amplitude.is_finite() {
        return Err(format!("amplitude must be finite, got {}", config.amplitude));
    }
    let world = build_world();
    let plan = &world.plan;
    let spec = soak_spec(config);
    let schedule = Schedule::compile(&spec, &world.view(), seed)?;
    let horizon_s = config.horizon_s();

    // One UG per New York unicast prefix plus one on London: primaries
    // 1, 2, 3 (prefix 4 stays a repair-only target). The NY pair is what
    // makes drain windows *contested*: both monitors go dark together
    // and bid conflicting candidates in the same round.
    let primaries: [usize; 3] = [1, 2, 3];
    let n_ugs = primaries.len();
    let base_weights = [3.0, 2.0, 1.0];
    let rotator = painter_tm::DiurnalRotator::new(
        n_ugs,
        painter_tm::DiurnalConfig { day_s: config.day_s, amplitude: config.amplitude },
        derive_seed(seed, 6),
    );
    let mut surge_rng = SimRng::stream(derive_seed(seed, 7), SURGE_STREAM);
    let surge_ugs: Vec<u32> =
        (0..config.days).map(|_| (surge_rng.unit() * n_ugs as f64) as u32 % n_ugs as u32).collect();

    // --- Flight recorder, control plane and repair plane, exactly the
    // chaos harness's shape (no anycast overhead: the soak scores
    // reachability, not the anycast-vs-unicast latency gap). The guard
    // layer is one shared rollback guard over the shared plan (inside the
    // repair plane) and one arbiter over the per-UG monitors, all
    // reporting into one bounded obs ring and the flight recorder.
    let sink = TraceSink::recording();
    let mut control = ControlPlane::new(&world, &schedule, seed, WARMUP_S, 0.0, &sink);
    let obs = painter_obs::Registry::with_event_capacity(config.event_capacity);
    let mut repair = RepairPlane::new(&world, &schedule, seed, config.guard.rollback, &obs, &sink);
    let mut arbiter = RepairArbiter::with_obs(config.arbiter, obs.clone());
    arbiter.set_trace(sink.clone());
    let mut probe = ProbeCursor::new(&schedule);

    let steps = (horizon_s / TICK_S) as usize;
    let iter_ticks = (ITER_S / TICK_S).max(1.0) as usize;
    let warmup_ticks = (WARMUP_S / TICK_S) as usize;
    let ticks_per_day = (config.day_s / TICK_S).max(1.0) as usize;

    let mut dark_iters = vec![0u32; n_ugs];
    let mut flap_memory = vec![0.0f64; plan.len()];
    let mut last_lit = vec![true; plan.len()];
    let mut dark_run_fixed = vec![0usize; n_ugs];
    let mut dark_run_loop = vec![0usize; n_ugs];
    let mut window = HealthWindow::default();
    let mut digest = Fnv1a::new();

    let mut day_stats: Vec<SoakDayStats> = (0..config.days)
        .map(|day| SoakDayStats { day, surge_ug: surge_ugs[day as usize], ..Default::default() })
        .collect();
    let mut day_ticks = vec![0u64; config.days as usize];
    let mut conflict_rounds = 0u64;
    let mut commits_total = 0u64;

    for step in 0..steps {
        let t = SimTime::from_secs(step as f64 * TICK_S);
        let day = (step / ticks_per_day).min(config.days as usize - 1);
        // Fixed-plan reachability per in-plan prefix, then the repair
        // overlay onto its dark cells. Both planes are stepped every
        // tick and the rows are consumed at once: a soak streams days of
        // ticks instead of storing them.
        let row = control.sample(t);
        let repaired = repair.overlay(t, &row);
        let blind = probe.advance(t) >= BLIND_FRACTION;

        // Demand weights this tick: diurnal rotation plus the day's
        // surge cohort (a flash crowd adds mass; it is not renormalized
        // away).
        let mut weights = rotator.weights(step as f64 * TICK_S, &base_weights);
        let surge_active = {
            let phase = (step % ticks_per_day) as f64 / ticks_per_day as f64;
            (0.40..0.50).contains(&phase)
        };
        if surge_active {
            weights[surge_ugs[day] as usize] *= config.surge_factor;
        }
        let total: f64 = weights.iter().sum();

        let scoring = step >= warmup_ticks;
        let mut served_fixed = 0.0f64;
        let mut served_loop = 0.0f64;
        for (u, &pidx) in primaries.iter().enumerate() {
            let fixed_ok = row[pidx].is_some() || row[0].is_some();
            let loop_ok = fixed_ok || repaired[pidx].is_some();
            if fixed_ok {
                served_fixed += weights[u];
            }
            if loop_ok {
                served_loop += weights[u];
                if let Some((_, rtt)) = row[pidx].or(row[0]).or(repaired[pidx]) {
                    window.rtts.push(rtt);
                }
            }
            if scoring {
                let stats = &mut day_stats[day];
                note_run(&mut dark_run_fixed[u], fixed_ok, &mut stats.worst_ttr_fixed_s);
                note_run(&mut dark_run_loop[u], loop_ok, &mut stats.worst_ttr_loop_s);
            }
        }
        if scoring {
            day_stats[day].availability_fixed += served_fixed / total;
            day_stats[day].availability_loop += served_loop / total;
            day_ticks[day] += 1;
            window.served += served_loop;
            window.offered += total;
            // The byte-replay receipt: served masses and weights, to the
            // bit, every scored tick.
            digest.update(&served_fixed.to_bits().to_le_bytes());
            digest.update(&served_loop.to_bits().to_le_bytes());
            digest.update(&total.to_bits().to_le_bytes());
        }

        // Flap memory for bid risk: decayed count of per-prefix
        // lit/dark transitions.
        for (idx, cell) in row.iter().enumerate() {
            let lit = cell.is_some();
            if lit != last_lit[idx] {
                flap_memory[idx] += 1.0;
                last_lit[idx] = lit;
            }
        }

        // --- Monitor round.
        if step < warmup_ticks || step % iter_ticks != 0 {
            continue;
        }
        for f in flap_memory.iter_mut() {
            *f *= FLAP_DECAY;
        }
        if blind {
            // Probe-dark pulse: no fresh evidence, so no dark-count
            // advance, no bids, and no probation verdict this round.
            window.take();
            continue;
        }

        // Window health feeds probation / the baseline ratchet.
        let reverted = repair.judge(t, window.take());
        if reverted {
            day_stats[day].rollbacks += 1;
        }

        // Per-UG dark tracking and conflicting bids.
        let mut bids: Vec<RepairBid> = Vec::new();
        for (u, &pidx) in primaries.iter().enumerate() {
            let dark = repaired[pidx].is_none();
            if dark {
                dark_iters[u] += 1;
            } else {
                dark_iters[u] = 0;
            }
            if reverted || dark_iters[u] < DARK_ITERS {
                continue;
            }
            let prefix = plan[pidx].0;
            let mut candidate = repair.installed().clone();
            let pick = world
                .deployment
                .peerings()
                .iter()
                .filter(|p| !repair.plane.pop_down(p.pop))
                .filter(|p| !candidate.contains(prefix, p.id))
                .map(|p| (p.id, control.base[p.id.idx() + 1]))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let Some((pe, _)) = pick else { continue };
            candidate.add(prefix, pe);
            bids.push(RepairBid {
                engine: u as u32,
                benefit: BENEFIT_SCALE * weights[u] / total,
                risk: flap_memory[pidx],
                candidate,
            });
        }
        if bids.is_empty() {
            continue;
        }
        if bids.len() > 1 {
            conflict_rounds += 1;
        }
        let verdicts = arbiter.arbitrate(t, &bids);
        for v in &verdicts {
            match v {
                ArbiterVerdict::Won => day_stats[day].arbiter_wins += 1,
                ArbiterVerdict::Deferred => day_stats[day].arbiter_deferrals += 1,
                ArbiterVerdict::Rejected => day_stats[day].arbiter_rejections += 1,
            }
        }
        if let Some(win) = RepairArbiter::winner(&verdicts) {
            if repair.install(t, bids[win].candidate.clone(), arbiter.last_win_trace()) {
                commits_total += 1;
                day_stats[day].commits += 1;
                dark_iters[bids[win].engine as usize] = 0;
            }
        }
    }

    // Close any outage runs still open at the horizon.
    let last = &mut day_stats[config.days as usize - 1];
    for u in 0..n_ugs {
        note_run(&mut dark_run_fixed[u], true, &mut last.worst_ttr_fixed_s);
        note_run(&mut dark_run_loop[u], true, &mut last.worst_ttr_loop_s);
    }
    for (day, stats) in day_stats.iter_mut().enumerate() {
        let ticks = day_ticks[day].max(1) as f64;
        stats.availability_fixed /= ticks;
        stats.availability_loop /= ticks;
    }

    Ok(SoakOutcome {
        seed,
        days: config.days,
        day_s: config.day_s,
        horizon_s,
        ugs: n_ugs as u32,
        spec_json: spec.to_json(),
        trace_fnv1a: schedule.trace_digest(),
        rows_fnv1a: digest.finish(),
        wins_total: day_stats.iter().map(|d| d.arbiter_wins).sum(),
        deferrals_total: day_stats.iter().map(|d| d.arbiter_deferrals).sum(),
        rejections_total: day_stats.iter().map(|d| d.arbiter_rejections).sum(),
        conflict_rounds,
        commits_total,
        rollbacks_total: repair.rollbacks_total(),
        final_pairs: repair.installed().pair_count() as u64,
        events_recorded: sink.events().len() as u64,
        events_dropped: obs.counter("obs.events_dropped").get(),
        day_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(outcome: &SoakOutcome) -> String {
        let mut report = painter_obs::RunReport::new("soak");
        for s in outcome.sections() {
            report.push_section(s);
        }
        report.to_json()
    }

    #[test]
    fn soak_covers_six_virtual_hours_at_test_scale() {
        let config = SoakConfig::for_scale(Scale::Test);
        assert!(config.horizon_s() >= 6.0 * 3600.0, "got {}", config.horizon_s());
        assert!(SoakConfig::for_scale(Scale::Soak).horizon_s() >= 2.0 * 86_400.0);
    }

    #[test]
    fn soak_campaign_is_byte_identical_across_reruns() {
        let a = run_soak(Scale::Test, 1).expect("soak");
        let b = run_soak(Scale::Test, 1).expect("soak");
        assert_eq!(a.rows_fnv1a, b.rows_fnv1a, "model-loop stream must replay byte-identically");
        assert_eq!(render(&a), render(&b), "sections must replay byte-identically");
        let c = run_soak(Scale::Test, 2).expect("soak");
        assert_ne!(a.rows_fnv1a, c.rows_fnv1a, "different seeds must differ");
    }

    #[test]
    fn soak_arbitration_sees_contention_and_repairs_help() {
        let out = run_soak(Scale::Test, 1).expect("soak");
        assert_eq!(out.day_stats.len(), 2);
        assert!(out.wins_total >= 1, "at least one repair must win a round");
        assert!(
            out.deferrals_total + out.rejections_total >= 1,
            "a conflicting candidate must be deferred or rejected \
             (wins={} deferrals={} rejections={})",
            out.wins_total,
            out.deferrals_total,
            out.rejections_total,
        );
        assert!(out.conflict_rounds >= 1, "drain windows must produce multi-bid rounds");
        let fixed: f64 = out.day_stats.iter().map(|d| d.availability_fixed).sum();
        let looped: f64 = out.day_stats.iter().map(|d| d.availability_loop).sum();
        assert!(
            looped > fixed,
            "arbitrated repairs must improve availability: loop {looped} vs fixed {fixed}"
        );
        for d in &out.day_stats {
            assert!((0.0..=1.0).contains(&d.availability_fixed));
            assert!((0.0..=1.0).contains(&d.availability_loop));
            assert!(d.availability_loop >= d.availability_fixed - 1e-12);
            assert!(d.worst_ttr_fixed_s >= 0.0 && d.worst_ttr_loop_s >= 0.0);
        }
    }

    #[test]
    fn hostile_clocks_are_rejected_not_panicked_on() {
        let config = SoakConfig::for_scale(Scale::Test);
        // Zero days used to underflow `days - 1` in the close-out loop.
        let err = run_soak_with_config(&SoakConfig { days: 0, ..config }, 1).unwrap_err();
        assert!(err.contains("days"), "{err}");
        for day_s in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let err = run_soak_with_config(&SoakConfig { day_s, ..config }, 1).unwrap_err();
            assert!(err.contains("day_s"), "{err}");
        }
        // Demand shapes that used to return `Ok` with NaN availabilities.
        for surge_factor in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = run_soak_with_config(&SoakConfig { surge_factor, ..config }, 1).unwrap_err();
            assert!(err.contains("surge_factor"), "{err}");
        }
        for amplitude in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = run_soak_with_config(&SoakConfig { amplitude, ..config }, 1).unwrap_err();
            assert!(err.contains("amplitude"), "{err}");
        }
    }

    #[test]
    fn soak_sections_have_the_pinned_shape() {
        let out = run_soak(Scale::Test, 3).expect("soak");
        let sections = out.sections();
        let titles: Vec<&str> = sections.iter().map(|s| s.title.as_str()).collect();
        assert_eq!(
            titles,
            vec!["soak.config", "soak.day0", "soak.day1", "soak.arbitration", "soak.events"]
        );
        assert!(out.events_recorded > 0, "the flight recorder must capture the campaign");
    }
}
