//! Adapters from a compiled [`Schedule`] to the concrete simulators.
//!
//! Injection is split by plane, mirroring how the harness composes a
//! campaign:
//!
//! * [`program_bgp`] — queues the control-plane events (session drops,
//!   withdrawals, re-announcements) into a `BgpEngine` before it runs.
//! * [`program_tm`] — queues the data/measurement-plane events (tunnel
//!   blackholes, latency spikes, bursty-loss episodes, probe-fleet
//!   loss) into a `TmSimulation` before it runs.
//! * [`DataPlaneState`] — an incremental replay of administrative
//!   PoP/tunnel liveness for harnesses that *sample* BGP state onto
//!   channel schedules (the Fig. 10 pattern): a sampled path through a
//!   dead PoP must be gated even though the BGP engine still carries
//!   the route for a detection interval.
//!
//! Everything here only translates; all randomness was already spent at
//! compile time, so programming the same schedule twice is trivially
//! bit-identical.

use crate::schedule::{FaultEvent, Schedule};
use painter_bgp::dynamics::BgpEngine;
use painter_eventsim::SimTime;
use painter_obs::{TraceId, TraceKind, TraceSink};
use painter_tm::{TmSimulation, TunnelId};
use painter_topology::PopId;

/// Emits one `chaos` fault span per spec fault into `sink`: a
/// `fault.start` at the fault's first injection and a `fault.end`
/// (caused by the start) at its last. Returns the start span per fault
/// index — the cause handles [`program_bgp_traced`] and
/// [`program_tm_traced`] thread into the simulators so every downstream
/// detection, failover, and recovery chains back to the fault that
/// provoked it. Faults that compiled to no injections (or recoveries
/// entirely past the horizon) get [`TraceId::NONE`].
pub fn trace_fault_spans(schedule: &Schedule, sink: &TraceSink) -> Vec<TraceId> {
    let sink = sink.scoped("chaos");
    let n = schedule.fault_count();
    let mut first: Vec<Option<SimTime>> = vec![None; n];
    let mut last: Vec<Option<SimTime>> = vec![None; n];
    for inj in schedule.injections() {
        let Some(slot) = first.get_mut(inj.fault) else { continue };
        // Injections are time-sorted, so the first hit is the earliest.
        if slot.is_none() {
            *slot = Some(inj.at);
        }
        last[inj.fault] = Some(inj.at);
    }
    (0..n)
        .map(|f| {
            let Some(start_at) = first[f] else { return TraceId::NONE };
            let start = sink.emit(
                start_at.as_nanos(),
                TraceId::NONE,
                TraceKind::FaultStart { fault: f as u32 },
            );
            if let Some(end_at) = last[f] {
                if end_at > start_at {
                    sink.emit(end_at.as_nanos(), start, TraceKind::FaultEnd { fault: f as u32 });
                }
            }
            start
        })
        .collect()
}

/// Queues every control-plane injection into the BGP engine. Data-plane
/// and measurement-plane events are skipped (see [`program_tm`]).
/// Returns the number of events queued.
pub fn program_bgp(schedule: &Schedule, engine: &mut BgpEngine<'_>) -> usize {
    program_bgp_traced(schedule, engine, &[])
}

/// [`program_bgp`] with per-fault cause spans (from
/// [`trace_fault_spans`]): each queued event carries its fault's span so
/// the engine's trace emissions chain back to it. An empty or short
/// `causes` slice degrades to uncaused injection.
pub fn program_bgp_traced(
    schedule: &Schedule,
    engine: &mut BgpEngine<'_>,
    causes: &[TraceId],
) -> usize {
    let mut queued = 0;
    for inj in schedule.injections() {
        let at = inj.at;
        let cause = causes.get(inj.fault).copied().unwrap_or(TraceId::NONE);
        match inj.event {
            FaultEvent::SessionDown { peering } => engine.session_down_caused(at, peering, cause),
            FaultEvent::SessionUp { peering } => engine.session_up_caused(at, peering, cause),
            FaultEvent::Withdraw { prefix, peering } => {
                engine.withdraw_caused(at, prefix, peering, cause)
            }
            FaultEvent::Announce { prefix, peering } => {
                engine.announce_caused(at, prefix, peering, cause)
            }
            FaultEvent::LeakStart { peering } => engine.leak_start_caused(at, peering, cause),
            FaultEvent::LeakEnd { peering } => engine.leak_end_caused(at, peering, cause),
            _ => continue,
        }
        queued += 1;
    }
    queued
}

/// One Traffic Manager tunnel a campaign drives: which `TmSimulation`
/// tunnel corresponds to the chaos tunnel index, and the base RTT to
/// restore when a blackhole lifts.
#[derive(Debug, Clone, Copy)]
pub struct TmTarget {
    pub tunnel: TunnelId,
    pub base_rtt_ms: f64,
}

/// Queues every data/measurement-plane injection into a Traffic Manager
/// simulation. `targets[i]` maps chaos tunnel index `i`; events for
/// tunnels beyond the slice are skipped (a baseline strategy carrying a
/// subset of tunnels simply does not see those faults). Returns the
/// number of events queued.
pub fn program_tm(schedule: &Schedule, tm: &mut TmSimulation, targets: &[TmTarget]) -> usize {
    program_tm_traced(schedule, tm, targets, &[])
}

/// [`program_tm`] with per-fault cause spans (from
/// [`trace_fault_spans`]): blackholes, restorations, and probe-fleet
/// loss carry their fault's span into the TM simulation, so dead-tunnel
/// declarations, failovers, revivals, and suppressed probes chain back
/// to it. An empty or short `causes` slice degrades to uncaused
/// injection.
pub fn program_tm_traced(
    schedule: &Schedule,
    tm: &mut TmSimulation,
    targets: &[TmTarget],
    causes: &[TraceId],
) -> usize {
    let mut queued = 0;
    for inj in schedule.injections() {
        let at = inj.at;
        let cause = causes.get(inj.fault).copied().unwrap_or(TraceId::NONE);
        match inj.event {
            FaultEvent::TunnelDown { tunnel } => {
                let Some(t) = targets.get(tunnel) else { continue };
                tm.schedule_path_down_caused(at, t.tunnel, cause);
            }
            FaultEvent::TunnelUp { tunnel } => {
                let Some(t) = targets.get(tunnel) else { continue };
                tm.schedule_path_rtt_caused(at, t.tunnel, t.base_rtt_ms, cause);
            }
            FaultEvent::LatencyAdd { tunnel, add_ms } => {
                let Some(t) = targets.get(tunnel) else { continue };
                tm.schedule_path_extra_latency(at, t.tunnel, add_ms);
            }
            FaultEvent::LatencyClear { tunnel, .. } => {
                let Some(t) = targets.get(tunnel) else { continue };
                tm.schedule_path_extra_latency(at, t.tunnel, 0.0);
            }
            FaultEvent::BurstStart { tunnel, p_enter_bad, p_leave_bad, loss_good, loss_bad } => {
                let Some(t) = targets.get(tunnel) else { continue };
                tm.schedule_path_burst(
                    at,
                    t.tunnel,
                    Some((p_enter_bad, p_leave_bad, loss_good, loss_bad)),
                );
            }
            FaultEvent::BurstEnd { tunnel } => {
                let Some(t) = targets.get(tunnel) else { continue };
                tm.schedule_path_burst(at, t.tunnel, None);
            }
            FaultEvent::ProbeLoss { fraction } => {
                tm.schedule_probe_loss_caused(at, fraction, cause)
            }
            FaultEvent::ProbeRestore => tm.schedule_probe_loss_caused(at, 0.0, cause),
            _ => continue,
        }
        queued += 1;
    }
    queued
}

/// Incremental replay of administrative data-plane liveness.
///
/// Overlap-safe: each PoP/tunnel keeps a *down counter*, so two
/// overlapping outages of the same element only clear when both have
/// recovered. Drive it forward with [`DataPlaneState::advance`] as the
/// harness's sampling clock moves.
#[derive(Debug, Clone)]
pub struct DataPlaneState {
    pop_down: Vec<u32>,
    tunnel_down: Vec<u32>,
    /// Index of the next unapplied injection.
    cursor: usize,
}

impl DataPlaneState {
    /// A state for a world with `pops` PoPs and `tunnels` tunnels,
    /// everything initially up.
    pub fn new(pops: usize, tunnels: usize) -> Self {
        DataPlaneState { pop_down: vec![0; pops], tunnel_down: vec![0; tunnels], cursor: 0 }
    }

    /// Applies every injection with `at <= now` that has not been applied
    /// yet. Call with non-decreasing `now` (the sampling clock).
    pub fn advance(&mut self, schedule: &Schedule, now: SimTime) {
        let injections = schedule.injections();
        while let Some(inj) = injections.get(self.cursor) {
            if inj.at > now {
                break;
            }
            match inj.event {
                FaultEvent::PopDown { pop } => {
                    if let Some(c) = self.pop_down.get_mut(pop.idx()) {
                        *c += 1;
                    }
                }
                FaultEvent::PopUp { pop } => {
                    if let Some(c) = self.pop_down.get_mut(pop.idx()) {
                        *c = c.saturating_sub(1);
                    }
                }
                FaultEvent::TunnelDown { tunnel } => {
                    if let Some(c) = self.tunnel_down.get_mut(tunnel) {
                        *c += 1;
                    }
                }
                FaultEvent::TunnelUp { tunnel } => {
                    if let Some(c) = self.tunnel_down.get_mut(tunnel) {
                        *c = c.saturating_sub(1);
                    }
                }
                _ => {}
            }
            self.cursor += 1;
        }
    }

    /// Injections applied so far: the version stamp of this state. The
    /// down counters change only while [`DataPlaneState::advance`] moves
    /// this cursor, so [`DataPlaneState::pop_down`] and
    /// [`DataPlaneState::tunnel_down`] answer the same for as long as it
    /// stays put.
    pub fn applied(&self) -> usize {
        self.cursor
    }

    /// Whether the PoP is administratively down right now.
    pub fn pop_down(&self, pop: PopId) -> bool {
        self.pop_down.get(pop.idx()).is_some_and(|&c| c > 0)
    }

    /// Whether the tunnel is administratively down right now.
    pub fn tunnel_down(&self, tunnel: usize) -> bool {
        self.tunnel_down.get(tunnel).is_some_and(|&c| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::WorldView;
    use crate::spec::{FaultKind, FaultSpec, ScenarioSpec, Target};
    use painter_bgp::PrefixId;
    use painter_eventsim::SimTime;
    use painter_tm::TmSimulationConfig;
    use painter_topology::PeeringId;

    fn tiny_world() -> WorldView {
        WorldView {
            pops: 2,
            peerings: vec![(PeeringId(0), PopId(0)), (PeeringId(1), PopId(1))],
            prefixes: vec![(PrefixId(0), vec![PeeringId(0)]), (PrefixId(1), vec![PeeringId(1)])],
        }
    }

    #[test]
    fn blackhole_injection_drops_traffic_in_the_tm_sim() {
        let spec = ScenarioSpec::new("bh", 4.0).fault(
            FaultSpec::new("bh0", FaultKind::LinkBlackhole, Target::Tunnel(0)).at(1.0).lasting(1.0),
        );
        let schedule = Schedule::compile(&spec, &tiny_world(), 1).expect("compile");
        let mut sim = TmSimulation::new(TmSimulationConfig { seed: 5, ..Default::default() });
        let t0 = sim.add_path(PrefixId(0), PopId(0), 20.0);
        let t1 = sim.add_path(PrefixId(1), PopId(1), 50.0);
        let queued = program_tm(
            &schedule,
            &mut sim,
            &[
                TmTarget { tunnel: t0, base_rtt_ms: 20.0 },
                TmTarget { tunnel: t1, base_rtt_ms: 50.0 },
            ],
        );
        assert_eq!(queued, 2, "down + up");
        sim.run(SimTime::from_secs(4.0));
        // Traffic fails over during the blackhole...
        let during_backup = sim
            .records()
            .iter()
            .filter(|r| {
                r.sent > SimTime::from_ms(1200.0)
                    && r.sent < SimTime::from_secs(2.0)
                    && r.prefix == Some(PrefixId(1))
            })
            .count();
        assert!(during_backup > 0, "backup must carry traffic during the blackhole");
        // ...and returns once the tunnel comes back at its base RTT.
        let late_fast = sim
            .records()
            .iter()
            .filter(|r| r.sent > SimTime::from_secs(3.0) && r.prefix == Some(PrefixId(0)))
            .count();
        assert!(late_fast > 0, "traffic must return after recovery");
    }

    #[test]
    fn tunnels_beyond_the_target_slice_are_skipped() {
        let spec = ScenarioSpec::new("bh", 4.0).fault(
            FaultSpec::new("bh1", FaultKind::LinkBlackhole, Target::Tunnel(1)).at(1.0).lasting(1.0),
        );
        let schedule = Schedule::compile(&spec, &tiny_world(), 1).expect("compile");
        let mut sim = TmSimulation::new(TmSimulationConfig::default());
        let t0 = sim.add_path(PrefixId(0), PopId(0), 20.0);
        let queued = program_tm(&schedule, &mut sim, &[TmTarget { tunnel: t0, base_rtt_ms: 20.0 }]);
        assert_eq!(queued, 0, "this strategy does not carry tunnel 1");
    }

    #[test]
    fn dataplane_state_handles_overlapping_outages() {
        let spec = ScenarioSpec::new("overlap", 100.0)
            .fault(
                FaultSpec::new(
                    "a",
                    FaultKind::PopOutage { detection_spread_ms: 1.0 },
                    Target::Pop(0),
                )
                .at(10.0)
                .lasting(30.0),
            )
            .fault(
                FaultSpec::new(
                    "b",
                    FaultKind::PopOutage { detection_spread_ms: 1.0 },
                    Target::Pop(0),
                )
                .at(20.0)
                .lasting(40.0),
            );
        let schedule = Schedule::compile(&spec, &tiny_world(), 1).expect("compile");
        let mut state = DataPlaneState::new(2, 2);
        state.advance(&schedule, SimTime::from_secs(5.0));
        assert!(!state.pop_down(PopId(0)));
        assert_eq!(state.applied(), 0, "nothing is due before the first outage");
        state.advance(&schedule, SimTime::from_secs(15.0));
        assert!(state.pop_down(PopId(0)));
        let applied = state.applied();
        assert!(applied > 0);
        state.advance(&schedule, SimTime::from_secs(19.0));
        assert_eq!(state.applied(), applied, "an interval without injections applies none");
        // Fault `a` recovers at 40 s, but `b` holds the PoP down.
        state.advance(&schedule, SimTime::from_secs(45.0));
        assert!(state.pop_down(PopId(0)), "overlapping outage must keep the PoP down");
        // Only when `b` recovers at 60 s does the PoP come back.
        state.advance(&schedule, SimTime::from_secs(61.0));
        assert!(!state.pop_down(PopId(0)));
        assert!(!state.pop_down(PopId(1)), "the other PoP was never touched");
        assert_eq!(state.applied(), schedule.injections().len(), "every injection, once");
    }

    #[test]
    fn fault_spans_cover_first_to_last_injection() {
        if !painter_obs::enabled() {
            return;
        }
        use painter_obs::{TraceId, TraceKind, TraceSink};
        // Fault 0 has both edges inside the horizon; fault 1's recovery
        // (at 12 s) falls past it, leaving a single injection.
        let spec = ScenarioSpec::new("spans", 10.0)
            .fault(
                FaultSpec::new("bh", FaultKind::LinkBlackhole, Target::Tunnel(0))
                    .at(1.0)
                    .lasting(1.0),
            )
            .fault(
                FaultSpec::new("late", FaultKind::LinkBlackhole, Target::Tunnel(1))
                    .at(9.0)
                    .lasting(3.0),
            );
        let schedule = Schedule::compile(&spec, &tiny_world(), 1).expect("compile");
        let sink = TraceSink::recording();
        let spans = trace_fault_spans(&schedule, &sink);
        assert_eq!(spans.len(), schedule.fault_count());
        assert!(spans.iter().all(|s| !s.is_none()), "both faults injected something");
        let events = sink.events();
        let starts: Vec<_> =
            events.iter().filter(|e| matches!(e.kind, TraceKind::FaultStart { .. })).collect();
        let ends: Vec<_> =
            events.iter().filter(|e| matches!(e.kind, TraceKind::FaultEnd { .. })).collect();
        assert_eq!(starts.len(), 2);
        assert_eq!(ends.len(), 1, "the horizon-dropped recovery leaves no end edge");
        assert_eq!(ends[0].cause, spans[0].raw(), "end chains to its own start");
        assert_eq!(starts[0].at_nanos, SimTime::from_secs(1.0).as_nanos());
        assert_eq!(ends[0].at_nanos, SimTime::from_secs(2.0).as_nanos());
        assert!(events.iter().all(|e| e.scope == "chaos"));
        // Replaying the same schedule into a fresh sink is bit-identical.
        let sink2 = TraceSink::recording();
        let spans2 = trace_fault_spans(&schedule, &sink2);
        assert_eq!(spans2.len(), spans.len());
        assert_eq!(sink2.events(), events);
        // And the inert default records nothing.
        let inert = TraceSink::inert();
        let none = trace_fault_spans(&schedule, &inert);
        assert!(none.iter().all(|s| *s == TraceId::NONE));
    }

    #[test]
    fn probe_loss_round_trips_through_program_tm() {
        let spec = ScenarioSpec::new("fleet", 10.0).fault(
            FaultSpec::new("pf", FaultKind::ProbeFleetLoss { fraction: 1.0 }, Target::Fleet)
                .at(1.0)
                .lasting(2.0),
        );
        let schedule = Schedule::compile(&spec, &tiny_world(), 1).expect("compile");
        let mut sim = TmSimulation::new(TmSimulationConfig { seed: 5, ..Default::default() });
        sim.add_path(PrefixId(0), PopId(0), 20.0);
        assert_eq!(program_tm(&schedule, &mut sim, &[]), 2, "loss + restore, no tunnels needed");
        sim.run(SimTime::from_secs(5.0));
        if painter_obs::enabled() {
            let suppressed =
                sim.obs().snapshot().counter("tm.probes_suppressed_total").unwrap_or(0);
            assert!(suppressed > 10, "2 s of total fleet loss, got {suppressed}");
        }
    }
}
