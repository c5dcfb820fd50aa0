//! Event-driven BGP: sessions, MRAI timers, withdrawals, convergence churn.
//!
//! The static solver answers "where does routing end up"; this engine
//! answers "what happens in between". It simulates per-session BGP message
//! exchange over the AS graph with realistic timing:
//!
//! * message propagation delay = half the fiber RTT between the two ASes'
//!   attachment metros, plus per-router processing jitter;
//! * per-neighbor **MRAI** (minimum route advertisement interval) timers
//!   rate-limit announcements, producing the staggered path exploration
//!   that stretches convergence to seconds;
//! * **withdrawals** propagate immediately (the common implementation
//!   choice), so losing a route is fast but finding the replacement is
//!   slow — exactly the asymmetry behind Fig. 10's anycast outage window;
//! * every delivered update is recorded in a churn log, standing in for
//!   the RIPE RIS collector feed the paper plots.
//!
//! Determinism: all jitter comes from a seeded [`SimRng`], and event
//! ordering is the deterministic FIFO of `painter-eventsim`.

use crate::path::{PathModel, PathRtt};
use crate::prefix::PrefixId;
use painter_eventsim::{EventQueue, SimRng, SimTime};
use painter_geo::{metro, min_rtt_ms, MetroId};
use painter_obs::{TraceId, TraceKind, TraceSink};
use painter_topology::{AsGraph, AsId, Deployment, PeeringId, PeeringKind, Relationship};
use std::collections::{HashMap, HashSet};

/// Where a route was heard from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Source {
    /// A BGP neighbor in the AS graph.
    Neighbor(AsId),
    /// Directly from the cloud over a peering session.
    Cloud(PeeringId),
}

/// A route stored in an Adj-RIB-In: the path as heard (sender first; empty
/// for routes heard directly from the cloud).
#[derive(Debug, Clone, PartialEq, Eq)]
struct HeardRoute {
    path: Vec<AsId>,
}

/// How the receiving AS classifies a heard route; order = preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(clippy::enum_variant_names)] // the From- prefix is BGP vocabulary
enum Class {
    FromProvider,
    FromPeer,
    FromCustomer,
}

/// An update message on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Update {
    /// Announce with the sender's path (sender first).
    Announce(Vec<AsId>),
    Withdraw,
}

#[derive(Debug, Clone)]
enum Event {
    /// Delivery of an update to an AS.
    Deliver {
        to: AsId,
        from: Source,
        prefix: PrefixId,
        update: Update,
    },
    /// MRAI timer expiry for (sender, neighbor).
    Mrai {
        from: AsId,
        to: AsId,
    },
    /// The cloud (de)activates a peering session for a prefix. `cause`
    /// is the trace event (e.g. a fault span) that provoked it —
    /// zero-sized and inert under `obs-off`.
    CloudAnnounce {
        peering: PeeringId,
        prefix: PrefixId,
        cause: TraceId,
    },
    CloudWithdraw {
        peering: PeeringId,
        prefix: PrefixId,
        cause: TraceId,
    },
    /// The whole peering session drops: every prefix it was advertising
    /// is withdrawn at once, and remembered for [`Event::SessionUp`].
    SessionDown {
        peering: PeeringId,
        cause: TraceId,
    },
    /// The session re-establishes and re-announces what it carried.
    SessionUp {
        peering: PeeringId,
        cause: TraceId,
    },
    /// Route leak onset: the customers of this peering's neighbor start
    /// re-exporting provider/peer-learned routes to all their neighbors,
    /// past Gao–Rexford policy bounds.
    LeakStart {
        peering: PeeringId,
        cause: TraceId,
    },
    /// The leak is fixed: policy-compliant export resumes and the leaked
    /// routes are withdrawn.
    LeakEnd {
        peering: PeeringId,
        cause: TraceId,
    },
}

/// Timing knobs for the engine.
#[derive(Debug, Clone)]
pub struct DynamicsConfig {
    pub seed: u64,
    /// MRAI per (AS, neighbor), drawn uniformly from this range (seconds).
    pub mrai_secs: (f64, f64),
    /// Per-message processing jitter (milliseconds).
    pub proc_delay_ms: (f64, f64),
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        // MRAI of a few seconds reproduces the ~15 s convergence the paper
        // observes via RIPE RIS (classic 30 s timers converge slower; many
        // modern routers ship lower values).
        DynamicsConfig { seed: 0, mrai_secs: (2.0, 8.0), proc_delay_ms: (5.0, 50.0) }
    }
}

/// One churn-log record: an update delivered somewhere in the Internet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnRecord {
    pub time: SimTime,
    pub prefix: PrefixId,
    pub is_withdraw: bool,
}

#[derive(Debug, Default)]
struct AsState {
    rib_in: HashMap<(PrefixId, Source), HeardRoute>,
    best: HashMap<PrefixId, Source>,
    /// What we last advertised to each neighbor per prefix (the path we
    /// sent). Absent = withdrawn/never sent.
    rib_out: HashMap<(PrefixId, AsId), Vec<AsId>>,
    /// MRAI: earliest time we may next announce to a neighbor.
    mrai_until: HashMap<AsId, SimTime>,
    /// Prefixes with a pending (rate-limited) announcement per neighbor.
    pending: HashMap<AsId, HashSet<PrefixId>>,
    /// Whether an MRAI expiry event is already scheduled per neighbor.
    mrai_scheduled: HashSet<AsId>,
}

/// The event-driven BGP engine.
pub struct BgpEngine<'a> {
    graph: &'a AsGraph,
    deployment: &'a Deployment,
    config: DynamicsConfig,
    salt: u64,
    states: Vec<AsState>,
    /// Peering sessions currently advertising each prefix (cloud side).
    cloud_active: HashSet<(PrefixId, PeeringId)>,
    /// Prefixes a dropped session was carrying, to re-announce on
    /// session-up. A repeated down before the up preserves the memory.
    downed_sessions: HashMap<PeeringId, Vec<PrefixId>>,
    /// ASes currently leaking: they export their best route for every
    /// prefix to *all* neighbors, regardless of where it was learned.
    leaking: HashSet<AsId>,
    queue: EventQueue<Event>,
    rng: SimRng,
    now: SimTime,
    /// Events handled so far (see [`BgpEngine::generation`]).
    generation: u64,
    churn: Vec<ChurnRecord>,
    /// Flight recorder for cloud-side control-plane events. Inert by
    /// default; zero-sized under `obs-off`. Emission never touches the
    /// RNG or the event queue, so tracing cannot perturb dynamics.
    trace: TraceSink,
}

impl<'a> BgpEngine<'a> {
    /// Creates an engine over the substrate. `salt` seeds the hidden
    /// tie-break (use the same value as for static solves so the engines
    /// agree).
    pub fn new(
        graph: &'a AsGraph,
        deployment: &'a Deployment,
        config: DynamicsConfig,
        salt: u64,
    ) -> Self {
        let n = graph.len();
        let rng = SimRng::stream(config.seed, 0xB6_F0);
        BgpEngine {
            graph,
            deployment,
            config,
            salt,
            states: (0..n).map(|_| AsState::default()).collect(),
            cloud_active: HashSet::new(),
            downed_sessions: HashMap::new(),
            leaking: HashSet::new(),
            queue: EventQueue::new(),
            rng,
            now: SimTime::ZERO,
            generation: 0,
            churn: Vec::new(),
            trace: TraceSink::inert(),
        }
    }

    /// Attaches a trace sink; cloud-side events (withdraw/announce,
    /// session transitions, leaks) are recorded through it as they are
    /// *handled* (virtual time of effect, not of scheduling).
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink.scoped("bgp");
    }

    /// Schedules a cloud-side announcement of `prefix` via `peering`.
    pub fn announce(&mut self, at: SimTime, prefix: PrefixId, peering: PeeringId) {
        self.announce_caused(at, prefix, peering, TraceId::NONE);
    }

    /// [`BgpEngine::announce`] carrying the trace event that caused it.
    pub fn announce_caused(
        &mut self,
        at: SimTime,
        prefix: PrefixId,
        peering: PeeringId,
        cause: TraceId,
    ) {
        self.queue.push(at, Event::CloudAnnounce { peering, prefix, cause });
    }

    /// Schedules a cloud-side withdrawal of `prefix` from `peering`.
    pub fn withdraw(&mut self, at: SimTime, prefix: PrefixId, peering: PeeringId) {
        self.withdraw_caused(at, prefix, peering, TraceId::NONE);
    }

    /// [`BgpEngine::withdraw`] carrying the trace event that caused it.
    pub fn withdraw_caused(
        &mut self,
        at: SimTime,
        prefix: PrefixId,
        peering: PeeringId,
        cause: TraceId,
    ) {
        self.queue.push(at, Event::CloudWithdraw { peering, prefix, cause });
    }

    /// Schedules a whole-session drop of `peering` at `at`: every prefix
    /// it is advertising *at that virtual time* is withdrawn in one
    /// shot, and remembered so [`BgpEngine::session_up`] can restore it.
    /// Models a BGP session reset (hold-timer expiry, interface down).
    pub fn session_down(&mut self, at: SimTime, peering: PeeringId) {
        self.session_down_caused(at, peering, TraceId::NONE);
    }

    /// [`BgpEngine::session_down`] carrying the causing trace event.
    pub fn session_down_caused(&mut self, at: SimTime, peering: PeeringId, cause: TraceId) {
        self.queue.push(at, Event::SessionDown { peering, cause });
    }

    /// Schedules the session's re-establishment: re-announces whatever
    /// the matching [`BgpEngine::session_down`] withdrew.
    pub fn session_up(&mut self, at: SimTime, peering: PeeringId) {
        self.session_up_caused(at, peering, TraceId::NONE);
    }

    /// [`BgpEngine::session_up`] carrying the causing trace event.
    pub fn session_up_caused(&mut self, at: SimTime, peering: PeeringId, cause: TraceId) {
        self.queue.push(at, Event::SessionUp { peering, cause });
    }

    /// Schedules a route leak at `at`: every *customer* of the peering's
    /// neighbor AS starts re-exporting provider- and peer-learned routes
    /// to all of its neighbors — the classic multi-homed-customer leak,
    /// propagating announcements past Gao–Rexford policy bounds.
    pub fn leak_start(&mut self, at: SimTime, peering: PeeringId) {
        self.leak_start_caused(at, peering, TraceId::NONE);
    }

    /// [`BgpEngine::leak_start`] carrying the causing trace event.
    pub fn leak_start_caused(&mut self, at: SimTime, peering: PeeringId, cause: TraceId) {
        self.queue.push(at, Event::LeakStart { peering, cause });
    }

    /// Schedules the leak's end: policy-compliant export resumes and the
    /// leaked routes are withdrawn.
    pub fn leak_end(&mut self, at: SimTime, peering: PeeringId) {
        self.leak_end_caused(at, peering, TraceId::NONE);
    }

    /// [`BgpEngine::leak_end`] carrying the causing trace event.
    pub fn leak_end_caused(&mut self, at: SimTime, peering: PeeringId, cause: TraceId) {
        self.queue.push(at, Event::LeakEnd { peering, cause });
    }

    /// Runs the engine until `until` (inclusive). Can be called repeatedly
    /// with growing horizons to interleave with observation.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked");
            // An event scheduled in the past fires now: the clock and the
            // churn log never run backwards.
            self.now = self.now.max(t);
            self.generation += 1;
            self.handle(ev);
        }
        self.now = until.max(self.now);
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events handled so far: the version stamp of the forwarding state.
    /// Selected routes and active sessions change only while an event is
    /// handled, so every data-plane read ([`BgpEngine::current_route`] and
    /// its wrappers) returns the same answer for as long as this number
    /// does. Scheduling calls do not move it; handling an event always
    /// does, whether or not that event changed a route.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The churn log (every update delivered so far, in delivery order).
    pub fn churn(&self) -> &[ChurnRecord] {
        &self.churn
    }

    /// Number of updates for `prefix` delivered in `[from, to)`.
    pub fn updates_in_window(&self, prefix: PrefixId, from: SimTime, to: SimTime) -> usize {
        // Delivery order is time order, so the window is one slice.
        let lo = self.churn.partition_point(|r| r.time < from);
        let hi = self.churn.partition_point(|r| r.time < to);
        self.churn.get(lo..hi).map_or(0, |w| w.iter().filter(|r| r.prefix == prefix).count())
    }

    /// The current *data-plane* route from `src` for `prefix`, in one
    /// allocation-free walk: the ingress peering it lands on and its
    /// round-trip latency for traffic originating at `src_metro`. `None`
    /// if `src` is not in the graph, a hop is missing, a transient loop
    /// exists, or the final peering is no longer active — i.e. the prefix
    /// is unreachable from `src` right now.
    pub fn current_route(
        &self,
        src: AsId,
        src_metro: MetroId,
        prefix: PrefixId,
    ) -> Option<(PeeringId, f64)> {
        let mut rtt = PathRtt::new(PathModel::new(self.graph, self.deployment), src_metro);
        let ingress = self.walk(src, prefix, |from, to| rtt.hop(from, to))?;
        Some((ingress, rtt.finish(ingress)))
    }

    /// The ingress of [`BgpEngine::current_route`] alone, for callers with
    /// no use for the latency.
    pub fn current_ingress(&self, src: AsId, prefix: PrefixId) -> Option<PeeringId> {
        self.walk(src, prefix, |_, _| {})
    }

    /// [`BgpEngine::current_route`] materialised: the AS path (from `src`
    /// to the cloud neighbor, both inclusive) and the ingress peering.
    pub fn current_path(&self, src: AsId, prefix: PrefixId) -> Option<(Vec<AsId>, PeeringId)> {
        let mut path = vec![src];
        let ingress = self.walk(src, prefix, |_, to| path.push(to))?;
        Some((path, ingress))
    }

    /// Round-trip latency of the current data-plane path from a UG, or
    /// `None` if unreachable.
    pub fn current_rtt_ms(&self, src: AsId, src_metro: MetroId, prefix: PrefixId) -> Option<f64> {
        self.current_route(src, src_metro, prefix).map(|(_, rtt)| rtt)
    }

    /// Follows each AS's currently selected best hop from `src`, reporting
    /// every inter-AS crossing to `hop(from, to)`, and returns the ingress
    /// peering the walk ends on if that session is still active.
    fn walk(
        &self,
        src: AsId,
        prefix: PrefixId,
        mut hop: impl FnMut(AsId, AsId),
    ) -> Option<PeeringId> {
        let mut cur = src;
        // A loop-free walk visits each AS at most once.
        for _ in 0..self.states.len() {
            match *self.states.get(cur.idx())?.best.get(&prefix)? {
                Source::Neighbor(n) => {
                    hop(cur, n);
                    cur = n;
                }
                // A stale route to a withdrawn session is unreachable.
                Source::Cloud(p) => return self.cloud_active.contains(&(prefix, p)).then_some(p),
            }
        }
        None // transient forwarding loop
    }

    // --- internals -------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::CloudAnnounce { peering, prefix, cause } => {
                self.trace.emit(
                    self.now.as_nanos(),
                    cause,
                    TraceKind::BgpAnnounce { prefix: prefix.0 as u32, peering: peering.0 },
                );
                self.cloud_active.insert((prefix, peering));
                let neighbor = self.deployment.peering(peering).neighbor;
                let delay = SimTime::from_ms(
                    self.rng.uniform(self.config.proc_delay_ms.0, self.config.proc_delay_ms.1),
                );
                self.queue.push(
                    self.now + delay,
                    Event::Deliver {
                        to: neighbor,
                        from: Source::Cloud(peering),
                        prefix,
                        update: Update::Announce(Vec::new()),
                    },
                );
            }
            Event::CloudWithdraw { peering, prefix, cause } => {
                self.trace.emit(
                    self.now.as_nanos(),
                    cause,
                    TraceKind::BgpWithdraw { prefix: prefix.0 as u32, peering: peering.0 },
                );
                self.cloud_active.remove(&(prefix, peering));
                let neighbor = self.deployment.peering(peering).neighbor;
                let delay = SimTime::from_ms(
                    self.rng.uniform(self.config.proc_delay_ms.0, self.config.proc_delay_ms.1),
                );
                self.queue.push(
                    self.now + delay,
                    Event::Deliver {
                        to: neighbor,
                        from: Source::Cloud(peering),
                        prefix,
                        update: Update::Withdraw,
                    },
                );
            }
            Event::SessionDown { peering, cause } => {
                // The session event is the proximate cause of the
                // per-prefix withdrawals it fans out into.
                let down = self.trace.emit(
                    self.now.as_nanos(),
                    cause,
                    TraceKind::BgpSessionDown { peering: peering.0 },
                );
                let mut carried: Vec<PrefixId> = self
                    .cloud_active
                    .iter()
                    .filter(|(_, p)| *p == peering)
                    .map(|(prefix, _)| *prefix)
                    .collect();
                carried.sort_unstable(); // HashSet order must not leak into scheduling
                for &prefix in &carried {
                    self.handle(Event::CloudWithdraw { peering, prefix, cause: down });
                }
                let memory = self.downed_sessions.entry(peering).or_default();
                memory.extend(carried);
                memory.sort_unstable();
                memory.dedup();
            }
            Event::SessionUp { peering, cause } => {
                let up = self.trace.emit(
                    self.now.as_nanos(),
                    cause,
                    TraceKind::BgpSessionUp { peering: peering.0 },
                );
                for prefix in self.downed_sessions.remove(&peering).unwrap_or_default() {
                    self.handle(Event::CloudAnnounce { peering, prefix, cause: up });
                }
            }
            Event::LeakStart { peering, cause } => {
                self.trace.emit(
                    self.now.as_nanos(),
                    cause,
                    TraceKind::BgpLeakStart { peering: peering.0 },
                );
                for leaker in self.leakers_of(peering) {
                    if self.leaking.insert(leaker) {
                        self.reexport_all(leaker);
                    }
                }
            }
            Event::LeakEnd { peering, cause } => {
                self.trace.emit(
                    self.now.as_nanos(),
                    cause,
                    TraceKind::BgpLeakEnd { peering: peering.0 },
                );
                for leaker in self.leakers_of(peering) {
                    if self.leaking.remove(&leaker) {
                        self.reexport_all(leaker);
                    }
                }
            }
            Event::Deliver { to, from, prefix, update } => {
                self.churn.push(ChurnRecord {
                    time: self.now,
                    prefix,
                    is_withdraw: matches!(update, Update::Withdraw),
                });
                match update {
                    Update::Announce(path) => {
                        if path.contains(&to) {
                            // Loop-poisoned: treat as withdraw from this
                            // source.
                            self.states[to.idx()].rib_in.remove(&(prefix, from));
                        } else {
                            self.states[to.idx()]
                                .rib_in
                                .insert((prefix, from), HeardRoute { path });
                        }
                    }
                    Update::Withdraw => {
                        self.states[to.idx()].rib_in.remove(&(prefix, from));
                    }
                }
                self.decide_and_export(to, prefix);
            }
            Event::Mrai { from, to } => {
                self.states[from.idx()].mrai_scheduled.remove(&to);
                let pending: Vec<PrefixId> = self.states[from.idx()]
                    .pending
                    .get_mut(&to)
                    .map(|s| s.drain().collect())
                    .unwrap_or_default();
                let mut pending = pending;
                pending.sort_unstable(); // determinism: HashSet drain order varies
                for prefix in pending {
                    self.send_current_state(from, to, prefix);
                }
            }
        }
    }

    fn classify(&self, receiver: AsId, source: Source) -> Class {
        match source {
            Source::Cloud(p) => match self.deployment.peering(p).kind {
                // The cloud pays this AS: cloud routes are customer routes.
                PeeringKind::TransitProvider => Class::FromCustomer,
                PeeringKind::Peer => Class::FromPeer,
            },
            Source::Neighbor(n) => match self
                .graph
                .relationship(receiver, n)
                .expect("messages only flow between adjacent ASes")
            {
                Relationship::ProviderOf => Class::FromCustomer,
                Relationship::CustomerOf => Class::FromProvider,
                Relationship::PeerWith => Class::FromPeer,
            },
        }
    }

    /// Re-runs the decision process at `who` for `prefix` and exports the
    /// outcome if the selection changed.
    fn decide_and_export(&mut self, who: AsId, prefix: PrefixId) {
        let old_best = self.states[who.idx()].best.get(&prefix).copied();
        // Higher class, then shorter path, then lower hidden tie-break,
        // then lower source id (total order: HashMap iteration order must
        // not leak into selection).
        let new_best = self.states[who.idx()]
            .rib_in
            .iter()
            .filter(|((p, _), _)| *p == prefix)
            .map(|((_, source), route)| {
                let class = self.classify(who, *source);
                let len = route.path.len() as u32 + 1;
                let from_as = match source {
                    Source::Neighbor(n) => Some(*n),
                    Source::Cloud(_) => None,
                };
                let hash = crate::solve::tiebreak(who, from_as, self.salt);
                (
                    (
                        class,
                        std::cmp::Reverse(len),
                        std::cmp::Reverse(hash),
                        std::cmp::Reverse(*source),
                    ),
                    *source,
                )
            })
            .max_by(|a, b| a.0.cmp(&b.0))
            .map(|(_, s)| s);
        // Export when the selected source changed, and also when the path
        // *behind* the same source changed (real BGP re-announces changed
        // path attributes, which is what propagates reconvergence churn
        // down the customer chain). send_current_state suppresses no-op
        // duplicates against rib-out.
        match new_best {
            Some(s) => {
                self.states[who.idx()].best.insert(prefix, s);
            }
            None => {
                self.states[who.idx()].best.remove(&prefix);
            }
        }
        let _ = old_best;
        self.export(who, prefix);
    }

    /// Sends the current state of `prefix` to every neighbor whose
    /// eligibility changed, honoring MRAI for announcements.
    fn export(&mut self, who: AsId, prefix: PrefixId) {
        let eligible = self.eligible_neighbors(who, prefix);
        // Withdraw from neighbors that no longer qualify (immediately).
        let mut previously: Vec<AsId> = self.states[who.idx()]
            .rib_out
            .keys()
            .filter(|(p, _)| *p == prefix)
            .map(|(_, n)| *n)
            .collect();
        previously.sort_unstable(); // HashSet order must not leak into scheduling
        for n in previously {
            if !eligible.contains(&n) {
                self.states[who.idx()].rib_out.remove(&(prefix, n));
                let delay = self.link_delay(who, n);
                self.queue.push(
                    self.now + delay,
                    Event::Deliver {
                        to: n,
                        from: Source::Neighbor(who),
                        prefix,
                        update: Update::Withdraw,
                    },
                );
            }
        }
        // Announce to eligible neighbors, through MRAI.
        for n in eligible {
            let until = self.states[who.idx()].mrai_until.get(&n).copied();
            if until.is_none_or(|u| self.now >= u) {
                self.send_current_state(who, n, prefix);
            } else {
                self.states[who.idx()].pending.entry(n).or_default().insert(prefix);
                if self.states[who.idx()].mrai_scheduled.insert(n) {
                    self.queue
                        .push(until.expect("checked above"), Event::Mrai { from: who, to: n });
                }
            }
        }
    }

    /// Neighbors `who` may export its current best for `prefix` to.
    fn eligible_neighbors(&self, who: AsId, prefix: PrefixId) -> Vec<AsId> {
        let Some(&best_source) = self.states[who.idx()].best.get(&prefix) else {
            return Vec::new();
        };
        let class = self.classify(who, best_source);
        let learned_from = match best_source {
            Source::Neighbor(n) => Some(n),
            Source::Cloud(_) => None,
        };
        let mut out = Vec::new();
        // Gao–Rexford: only customer routes go to everyone — unless this
        // AS is currently leaking, in which case every route does.
        let everyone = class == Class::FromCustomer || self.leaking.contains(&who);
        for nb in self.graph.customers(who) {
            if Some(nb.peer) != learned_from {
                out.push(nb.peer);
            }
        }
        if everyone {
            for nb in self.graph.providers(who).iter().chain(self.graph.peers(who)) {
                if Some(nb.peer) != learned_from {
                    out.push(nb.peer);
                }
            }
        }
        out
    }

    /// Sends `who`'s *current* state for `prefix` (announce of best, or
    /// withdraw) to `to`, updating rib-out and arming MRAI.
    fn send_current_state(&mut self, who: AsId, to: AsId, prefix: PrefixId) {
        let best = self.states[who.idx()].best.get(&prefix).copied();
        let update = match best {
            Some(source) => {
                let heard = match source {
                    Source::Cloud(_) => Vec::new(),
                    Source::Neighbor(_) => self.states[who.idx()]
                        .rib_in
                        .get(&(prefix, source))
                        .map(|r| r.path.clone())
                        .unwrap_or_default(),
                };
                let mut path = Vec::with_capacity(heard.len() + 1);
                path.push(who);
                path.extend(heard);
                if self.states[who.idx()].rib_out.get(&(prefix, to)) == Some(&path) {
                    return; // duplicate announcement: suppress
                }
                self.states[who.idx()].rib_out.insert((prefix, to), path.clone());
                Update::Announce(path)
            }
            None => {
                if self.states[who.idx()].rib_out.remove(&(prefix, to)).is_none() {
                    return; // never told them; nothing to withdraw
                }
                Update::Withdraw
            }
        };
        let is_withdraw = matches!(update, Update::Withdraw);
        let delay = self.link_delay(who, to);
        self.queue.push(
            self.now + delay,
            Event::Deliver { to, from: Source::Neighbor(who), prefix, update },
        );
        if !is_withdraw {
            let mrai = SimTime::from_secs(
                self.rng.uniform(self.config.mrai_secs.0, self.config.mrai_secs.1),
            );
            self.states[who.idx()].mrai_until.insert(to, self.now + mrai);
        }
    }

    /// The ASes that leak when `peering` is targeted: the customers of
    /// the session's neighbor, in deterministic (sorted) order.
    fn leakers_of(&self, peering: PeeringId) -> Vec<AsId> {
        let neighbor = self.deployment.peering(peering).neighbor;
        let mut leakers: Vec<AsId> =
            self.graph.customers(neighbor).iter().map(|nb| nb.peer).collect();
        leakers.sort_unstable();
        leakers
    }

    /// Re-runs export for every prefix `who` currently has a route for —
    /// its export policy just changed under it.
    fn reexport_all(&mut self, who: AsId) {
        let mut prefixes: Vec<PrefixId> = self.states[who.idx()].best.keys().copied().collect();
        prefixes.sort_unstable(); // HashMap order must not leak into scheduling
        for prefix in prefixes {
            self.export(who, prefix);
        }
    }

    /// One-way propagation + processing delay between adjacent ASes.
    fn link_delay(&mut self, a: AsId, b: AsId) -> SimTime {
        let (ma, mb) = self.graph.attachments(a, b);
        let one_way = min_rtt_ms(&metro(ma).point(), &metro(mb).point()) / 2.0;
        let proc = self.rng.uniform(self.config.proc_delay_ms.0, self.config.proc_delay_ms.1);
        SimTime::from_ms(one_way + proc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use painter_geo::Region;
    use painter_topology::{AsTier, DeploymentConfig, TopologyConfig};

    fn engine_fixture() -> (painter_topology::Internet, Deployment) {
        let net = painter_topology::generate(TopologyConfig::tiny(21));
        let dep = Deployment::generate(&net.graph, &DeploymentConfig::tiny(21));
        (net, dep)
    }

    /// One transit AS peering with the cloud in New York and its single
    /// stub customer: small enough that every event can be counted.
    fn two_as_fixture() -> (AsGraph, Deployment, AsId, AsId, MetroId) {
        let ny =
            painter_geo::metro::all_metro_ids().find(|&m| metro(m).name == "New York").unwrap();
        let mut g = AsGraph::new();
        let t1 = g.add_node(AsTier::Tier1, Region::NorthAmerica, vec![ny], 1.0);
        let stub = g.add_node(AsTier::Stub, Region::NorthAmerica, vec![ny], 1.0);
        g.add_link(t1, stub, Relationship::ProviderOf).unwrap();
        let dep = Deployment::for_tests(vec![ny], vec![(0, t1, PeeringKind::TransitProvider)]);
        (g, dep, t1, stub, ny)
    }

    #[test]
    fn announcement_converges_to_static_solution_ingresses() {
        let (net, dep) = engine_fixture();
        let all: Vec<PeeringId> = dep.peerings().iter().map(|p| p.id).collect();
        let mut engine = BgpEngine::new(&net.graph, &dep, DynamicsConfig::default(), 99);
        let prefix = PrefixId(0);
        for &p in &all {
            engine.announce(SimTime::ZERO, prefix, p);
        }
        engine.run_until(SimTime::from_secs(300.0));
        let table = crate::solve::solve(&net.graph, &dep, &all, 99);
        let mut reachable = 0;
        for stub in net.graph.stubs() {
            let dynamic = engine.current_path(stub.id, prefix);
            assert_eq!(
                dynamic.is_some(),
                table.has_route(stub.id),
                "{} reachability mismatch",
                stub.id
            );
            if dynamic.is_some() {
                reachable += 1;
            }
        }
        assert!(reachable > 0);
    }

    #[test]
    fn withdrawal_makes_prefix_unreachable() {
        let (net, dep) = engine_fixture();
        let all: Vec<PeeringId> = dep.peerings().iter().map(|p| p.id).collect();
        let mut engine = BgpEngine::new(&net.graph, &dep, DynamicsConfig::default(), 99);
        let prefix = PrefixId(0);
        for &p in &all {
            engine.announce(SimTime::ZERO, prefix, p);
        }
        engine.run_until(SimTime::from_secs(300.0));
        for &p in &all {
            engine.withdraw(SimTime::from_secs(300.0), prefix, p);
        }
        engine.run_until(SimTime::from_secs(900.0));
        for stub in net.graph.stubs() {
            assert!(engine.current_path(stub.id, prefix).is_none(), "{}", stub.id);
        }
    }

    #[test]
    fn withdrawal_of_one_origin_fails_over_to_another() {
        // Two transit-provider peerings at different PoPs; withdrawing one
        // must leave the prefix reachable through the other.
        let ny =
            painter_geo::metro::all_metro_ids().find(|&m| metro(m).name == "New York").unwrap();
        let lon = painter_geo::metro::all_metro_ids().find(|&m| metro(m).name == "London").unwrap();
        let mut g = AsGraph::new();
        let t1 = g.add_node(AsTier::Tier1, Region::NorthAmerica, vec![ny, lon], 1.0);
        let stub = g.add_node(AsTier::Stub, Region::NorthAmerica, vec![ny], 1.0);
        g.add_link(t1, stub, Relationship::ProviderOf).unwrap();
        let dep = Deployment::for_tests(
            vec![ny, lon],
            vec![(0, t1, PeeringKind::TransitProvider), (1, t1, PeeringKind::TransitProvider)],
        );
        let mut engine = BgpEngine::new(&g, &dep, DynamicsConfig::default(), 7);
        let prefix = PrefixId(0);
        engine.announce(SimTime::ZERO, prefix, PeeringId(0));
        engine.announce(SimTime::ZERO, prefix, PeeringId(1));
        engine.run_until(SimTime::from_secs(120.0));
        let (_, ingress) = engine.current_path(stub, prefix).unwrap();
        // Withdraw whichever session is in use; the other must take over.
        engine.withdraw(SimTime::from_secs(120.0), prefix, ingress);
        engine.run_until(SimTime::from_secs(400.0));
        let (_, new_ingress) = engine.current_path(stub, prefix).expect("failover");
        assert_ne!(new_ingress, ingress);
    }

    #[test]
    fn churn_spikes_after_withdrawal() {
        let (net, dep) = engine_fixture();
        let all: Vec<PeeringId> = dep.peerings().iter().map(|p| p.id).collect();
        let mut engine = BgpEngine::new(&net.graph, &dep, DynamicsConfig::default(), 99);
        let prefix = PrefixId(0);
        for &p in &all {
            engine.announce(SimTime::ZERO, prefix, p);
        }
        engine.run_until(SimTime::from_secs(300.0));
        let quiet =
            engine.updates_in_window(prefix, SimTime::from_secs(250.0), SimTime::from_secs(300.0));
        // Withdraw half the sessions.
        for &p in all.iter().take(all.len() / 2) {
            engine.withdraw(SimTime::from_secs(300.0), prefix, p);
        }
        engine.run_until(SimTime::from_secs(350.0));
        let busy =
            engine.updates_in_window(prefix, SimTime::from_secs(300.0), SimTime::from_secs(350.0));
        assert!(busy > quiet, "busy={busy} quiet={quiet}");
    }

    #[test]
    fn engine_is_deterministic() {
        let (net, dep) = engine_fixture();
        let all: Vec<PeeringId> = dep.peerings().iter().map(|p| p.id).collect();
        let run = || {
            let mut engine = BgpEngine::new(&net.graph, &dep, DynamicsConfig::default(), 99);
            let prefix = PrefixId(0);
            for &p in &all {
                engine.announce(SimTime::ZERO, prefix, p);
            }
            engine.run_until(SimTime::from_secs(120.0));
            (
                engine.churn().len(),
                engine.current_path(net.graph.stubs().next().unwrap().id, prefix),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rapid_flapping_does_not_corrupt_state() {
        // Failure injection: announce/withdraw a session every 2 s for a
        // minute (faster than MRAI), then let it settle. The engine must
        // end fully converged and consistent with the final state.
        let (net, dep) = engine_fixture();
        let mut engine = BgpEngine::new(&net.graph, &dep, DynamicsConfig::default(), 99);
        let prefix = PrefixId(0);
        let all: Vec<PeeringId> = dep.peerings().iter().map(|p| p.id).collect();
        for &p in &all {
            engine.announce(SimTime::ZERO, prefix, p);
        }
        schedule_flapping(&mut engine, prefix, all[0]);
        engine.run_until(SimTime::from_secs(600.0));
        for stub in net.graph.stubs() {
            assert!(
                engine.current_path(stub.id, prefix).is_some(),
                "{} lost connectivity after flapping settled",
                stub.id
            );
        }
    }

    #[test]
    fn withdraw_then_reannounce_restores_reachability() {
        let (net, dep) = engine_fixture();
        let mut engine = BgpEngine::new(&net.graph, &dep, DynamicsConfig::default(), 99);
        let prefix = PrefixId(0);
        let all: Vec<PeeringId> = dep.peerings().iter().map(|p| p.id).collect();
        for &p in &all {
            engine.announce(SimTime::ZERO, prefix, p);
        }
        for &p in &all {
            engine.withdraw(SimTime::from_secs(120.0), prefix, p);
        }
        for &p in &all {
            engine.announce(SimTime::from_secs(400.0), prefix, p);
        }
        engine.run_until(SimTime::from_secs(900.0));
        for stub in net.graph.stubs() {
            assert!(engine.current_path(stub.id, prefix).is_some(), "{}", stub.id);
        }
    }

    #[test]
    fn independent_prefixes_do_not_interfere() {
        // Withdrawing prefix 0 must leave prefix 1's routes untouched.
        let (net, dep) = engine_fixture();
        let mut engine = BgpEngine::new(&net.graph, &dep, DynamicsConfig::default(), 99);
        let all: Vec<PeeringId> = dep.peerings().iter().map(|p| p.id).collect();
        for &p in &all {
            engine.announce(SimTime::ZERO, PrefixId(0), p);
            engine.announce(SimTime::ZERO, PrefixId(1), p);
        }
        engine.run_until(SimTime::from_secs(200.0));
        let before: Vec<_> =
            net.graph.stubs().map(|s| engine.current_path(s.id, PrefixId(1))).collect();
        for &p in &all {
            engine.withdraw(SimTime::from_secs(200.0), PrefixId(0), p);
        }
        engine.run_until(SimTime::from_secs(500.0));
        let after: Vec<_> =
            net.graph.stubs().map(|s| engine.current_path(s.id, PrefixId(1))).collect();
        assert_eq!(before, after, "prefix 1 perturbed by prefix 0's withdrawal");
        for stub in net.graph.stubs() {
            assert!(engine.current_path(stub.id, PrefixId(0)).is_none());
        }
    }

    #[test]
    fn session_reset_withdraws_and_restores_every_carried_prefix() {
        let (g, dep, _, stub, _) = two_as_fixture();
        let mut engine = BgpEngine::new(&g, &dep, DynamicsConfig::default(), 7);
        let session = PeeringId(0);
        engine.announce(SimTime::ZERO, PrefixId(0), session);
        engine.announce(SimTime::ZERO, PrefixId(1), session);
        engine.run_until(SimTime::from_secs(60.0));
        assert!(engine.current_path(stub, PrefixId(0)).is_some());

        engine.session_down(SimTime::from_secs(60.0), session);
        engine.run_until(SimTime::from_secs(120.0));
        assert!(engine.current_path(stub, PrefixId(0)).is_none(), "reset must drop prefix 0");
        assert!(engine.current_path(stub, PrefixId(1)).is_none(), "reset must drop prefix 1");

        engine.session_up(SimTime::from_secs(120.0), session);
        engine.run_until(SimTime::from_secs(300.0));
        assert!(engine.current_path(stub, PrefixId(0)).is_some(), "session-up must restore");
        assert!(engine.current_path(stub, PrefixId(1)).is_some(), "session-up must restore");
    }

    #[test]
    fn repeated_session_down_keeps_restore_memory() {
        let (g, dep, _, stub, _) = two_as_fixture();
        let mut engine = BgpEngine::new(&g, &dep, DynamicsConfig::default(), 7);
        let session = PeeringId(0);
        engine.announce(SimTime::ZERO, PrefixId(0), session);
        // Two downs with no up in between: the second sees no active
        // prefixes but must not wipe the memory from the first.
        engine.session_down(SimTime::from_secs(30.0), session);
        engine.session_down(SimTime::from_secs(40.0), session);
        engine.session_up(SimTime::from_secs(50.0), session);
        engine.run_until(SimTime::from_secs(200.0));
        assert!(engine.current_path(stub, PrefixId(0)).is_some());
    }

    #[test]
    fn route_leak_propagates_past_policy_and_retracts_on_fix() {
        // Cloud peers (settlement-free) with isp1 only. acc is a
        // multi-homed customer of isp1 and isp2; stub hangs off isp2.
        // Policy-compliant export never gives stub a route: isp1 holds a
        // peer route (customers only -> acc), and acc's provider-learned
        // route goes to no one. When acc leaks, isp2 hears a "customer"
        // route via acc and passes it to stub; fixing the leak withdraws
        // it again.
        let ny =
            painter_geo::metro::all_metro_ids().find(|&m| metro(m).name == "New York").unwrap();
        let mut g = AsGraph::new();
        let isp1 = g.add_node(AsTier::Tier1, Region::NorthAmerica, vec![ny], 1.0);
        let isp2 = g.add_node(AsTier::Tier1, Region::NorthAmerica, vec![ny], 1.0);
        let acc = g.add_node(AsTier::Access, Region::NorthAmerica, vec![ny], 1.0);
        let stub = g.add_node(AsTier::Stub, Region::NorthAmerica, vec![ny], 1.0);
        g.add_link(isp1, acc, Relationship::ProviderOf).unwrap();
        g.add_link(isp2, acc, Relationship::ProviderOf).unwrap();
        g.add_link(isp2, stub, Relationship::ProviderOf).unwrap();
        let dep = Deployment::for_tests(vec![ny], vec![(0, isp1, PeeringKind::Peer)]);
        let mut engine = BgpEngine::new(&g, &dep, DynamicsConfig::default(), 7);
        let prefix = PrefixId(0);
        engine.announce(SimTime::ZERO, prefix, PeeringId(0));
        engine.run_until(SimTime::from_secs(60.0));
        assert!(engine.current_path(acc, prefix).is_some(), "acc hears the peer route");
        assert!(
            engine.current_path(stub, prefix).is_none(),
            "Gao–Rexford export must keep the peer route away from stub"
        );

        engine.leak_start(SimTime::from_secs(60.0), PeeringId(0));
        engine.run_until(SimTime::from_secs(200.0));
        let (path, ingress) =
            engine.current_path(stub, prefix).expect("the leak must propagate a route to stub");
        assert_eq!(ingress, PeeringId(0));
        assert_eq!(path, vec![stub, isp2, acc, isp1], "traffic detours through the leaker");

        engine.leak_end(SimTime::from_secs(200.0), PeeringId(0));
        engine.run_until(SimTime::from_secs(400.0));
        assert!(
            engine.current_path(stub, prefix).is_none(),
            "fixing the leak must withdraw the leaked route"
        );
        assert!(engine.current_path(acc, prefix).is_some(), "the legitimate route survives");
    }

    /// Failure injection: withdraw/announce `victim` every 2 s for a minute
    /// from t = 60 s (faster than MRAI), ending on an announce.
    fn schedule_flapping(engine: &mut BgpEngine<'_>, prefix: PrefixId, victim: PeeringId) {
        for k in 0..30u32 {
            let t = SimTime::from_secs(60.0 + 2.0 * k as f64);
            if k % 2 == 0 {
                engine.withdraw(t, prefix, victim);
            } else {
                engine.announce(t, prefix, victim);
            }
        }
    }

    /// The obvious data-plane read the engine shipped before the
    /// allocation-free walk: materialise the path (a `Vec` and a `HashSet`
    /// for loop detection), then price it with `rtt_of_path`.
    fn reference_route(
        engine: &BgpEngine<'_>,
        src: AsId,
        src_metro: MetroId,
        prefix: PrefixId,
    ) -> Option<(Vec<AsId>, PeeringId, f64)> {
        let mut path = Vec::new();
        let mut seen = HashSet::new();
        let mut cur = src;
        loop {
            if !seen.insert(cur) {
                return None;
            }
            path.push(cur);
            match *engine.states[cur.idx()].best.get(&prefix)? {
                Source::Neighbor(n) => cur = n,
                Source::Cloud(p) => {
                    if !engine.cloud_active.contains(&(prefix, p)) {
                        return None;
                    }
                    let rtt = PathModel::new(engine.graph, engine.deployment)
                        .rtt_of_path(&path, p, src_metro);
                    return Some((path, p, rtt));
                }
            }
        }
    }

    /// Every public data-plane read against [`reference_route`], RTTs to
    /// the bit. Returns whether the source was reachable.
    fn assert_reads_match_reference(
        engine: &BgpEngine<'_>,
        src: AsId,
        src_metro: MetroId,
        prefix: PrefixId,
    ) -> bool {
        let want = reference_route(engine, src, src_metro, prefix);
        let at = engine.now();
        assert_eq!(
            engine.current_path(src, prefix),
            want.as_ref().map(|(path, ingress, _)| (path.clone(), *ingress)),
            "{src} at {at:?}"
        );
        assert_eq!(
            engine.current_route(src, src_metro, prefix).map(|(i, rtt)| (i, rtt.to_bits())),
            want.as_ref().map(|(_, ingress, rtt)| (*ingress, rtt.to_bits())),
            "{src} at {at:?}"
        );
        assert_eq!(engine.current_ingress(src, prefix), want.as_ref().map(|w| w.1));
        assert_eq!(
            engine.current_rtt_ms(src, src_metro, prefix).map(f64::to_bits),
            want.as_ref().map(|w| w.2.to_bits())
        );
        want.is_some()
    }

    #[test]
    fn generation_counts_handled_events_and_nothing_else() {
        let (g, dep, ..) = two_as_fixture();
        let mut engine = BgpEngine::new(&g, &dep, DynamicsConfig::default(), 7);
        let session = PeeringId(0);
        // Scheduling, of every kind, handles nothing.
        engine.announce(SimTime::from_secs(10.0), PrefixId(0), session);
        engine.withdraw(SimTime::from_secs(100.0), PrefixId(0), session);
        engine.announce(SimTime::from_secs(200.0), PrefixId(0), session);
        engine.session_down(SimTime::from_secs(300.0), session);
        engine.session_up(SimTime::from_secs(400.0), session);
        engine.leak_start(SimTime::from_secs(500.0), session);
        engine.leak_end(SimTime::from_secs(600.0), session);
        assert_eq!(engine.generation(), 0);
        // Neither does running over an interval with no event in it.
        engine.run_until(SimTime::from_secs(9.0));
        assert_eq!((engine.generation(), engine.now()), (0, SimTime::from_secs(9.0)));

        // With one neighbor per AS no MRAI timer ever has to fire, so the
        // events popped are exactly the cloud-side ones scheduled above
        // plus one delivery per churn record (cloud -> t1 -> stub).
        for (until_s, cloud_events, deliveries) in [
            (99.0, 1, 2),  // announce
            (199.0, 2, 4), // withdraw
            (299.0, 3, 6), // re-announce
            // One session event: the per-prefix withdrawal and announcement
            // it fans out into are handled inside it, not popped.
            (399.0, 4, 8),
            (499.0, 5, 10),
            // The stub is t1's only customer and has no one to leak to.
            (700.0, 7, 10),
        ] {
            engine.run_until(SimTime::from_secs(until_s));
            assert_eq!(engine.churn().len(), deliveries, "at {until_s} s");
            assert_eq!(engine.generation(), cloud_events + deliveries as u64, "at {until_s} s");
            let settled = engine.generation();
            engine.run_until(SimTime::from_secs(until_s + 0.5));
            assert_eq!(engine.generation(), settled, "nothing is due in the next half second");
        }
        assert!(engine.queue.is_empty(), "every scheduled event was popped and counted");
    }

    #[test]
    fn walk_agrees_with_the_reference_through_flapping_and_leaks() {
        // Every stub, after every instant at which the engine handled
        // something, through warm-up, rapid flapping and a route leak.
        let (net, dep) = engine_fixture();
        let mut engine = BgpEngine::new(&net.graph, &dep, DynamicsConfig::default(), 99);
        let prefix = PrefixId(0);
        let all: Vec<PeeringId> = dep.peerings().iter().map(|p| p.id).collect();
        for &p in &all {
            engine.announce(SimTime::ZERO, prefix, p);
        }
        schedule_flapping(&mut engine, prefix, all[0]);
        engine.leak_start(SimTime::from_secs(130.0), all[1]);
        engine.leak_end(SimTime::from_secs(160.0), all[1]);
        let stubs: Vec<(AsId, MetroId)> =
            net.graph.stubs().map(|s| (s.id, s.presence[0])).collect();
        let (mut instants, mut lit, mut dark) = (0, 0, 0);
        while let Some(t) = engine.queue.peek_time() {
            engine.run_until(t);
            instants += 1;
            for &(stub, home) in &stubs {
                if assert_reads_match_reference(&engine, stub, home, prefix) {
                    lit += 1;
                } else {
                    dark += 1;
                }
            }
        }
        assert!(
            instants > 100 && lit > 0 && dark > 0,
            "{instants} instants, {lit} lit, {dark} dark"
        );
    }

    #[test]
    fn walk_agrees_with_the_reference_on_no_route_stale_route_and_loop() {
        let (g, dep, t1, stub, ny) = two_as_fixture();
        let mut engine = BgpEngine::new(&g, &dep, DynamicsConfig::default(), 7);
        let (prefix, session) = (PrefixId(0), PeeringId(0));
        // No route: nothing was ever announced.
        assert!(!assert_reads_match_reference(&engine, stub, ny, prefix));

        engine.announce(SimTime::ZERO, prefix, session);
        engine.run_until(SimTime::from_secs(60.0));
        assert!(assert_reads_match_reference(&engine, stub, ny, prefix));

        // Stale route: the cloud has withdrawn the session but the
        // withdrawal is still in flight to t1, which keeps selecting it.
        engine.withdraw(SimTime::from_secs(60.0), prefix, session);
        engine.run_until(SimTime::from_secs(60.0));
        assert_eq!(engine.states[t1.idx()].best.get(&prefix), Some(&Source::Cloud(session)));
        assert!(!engine.cloud_active.contains(&(prefix, session)));
        assert!(!assert_reads_match_reference(&engine, stub, ny, prefix));

        // Transient loop: each AS selects the other.
        engine.states[t1.idx()].best.insert(prefix, Source::Neighbor(stub));
        engine.states[stub.idx()].best.insert(prefix, Source::Neighbor(t1));
        assert!(!assert_reads_match_reference(&engine, stub, ny, prefix));
        assert!(!assert_reads_match_reference(&engine, t1, ny, prefix));
    }

    #[test]
    fn ids_outside_the_graph_are_unreachable_not_a_panic() {
        let (g, dep, ..) = two_as_fixture();
        let mut engine = BgpEngine::new(&g, &dep, DynamicsConfig::default(), 7);
        engine.announce(SimTime::ZERO, PrefixId(0), PeeringId(0));
        engine.run_until(SimTime::from_secs(60.0));
        for src in [AsId(g.len() as u32), AsId(u32::MAX)] {
            assert_eq!(engine.current_path(src, PrefixId(0)), None);
            assert_eq!(engine.current_rtt_ms(src, MetroId(0), PrefixId(0)), None);
        }
    }

    #[test]
    fn updates_in_window_equals_the_linear_filter() {
        // The `rapid_flapping_does_not_corrupt_state` schedule, on two
        // prefixes so that the window holds records to skip.
        let (net, dep) = engine_fixture();
        let mut engine = BgpEngine::new(&net.graph, &dep, DynamicsConfig::default(), 99);
        let all: Vec<PeeringId> = dep.peerings().iter().map(|p| p.id).collect();
        for &p in &all {
            engine.announce(SimTime::ZERO, PrefixId(0), p);
            engine.announce(SimTime::from_secs(1.0), PrefixId(1), p);
        }
        schedule_flapping(&mut engine, PrefixId(0), all[0]);
        engine.run_until(SimTime::from_secs(600.0));
        // An event scheduled in the past fires now and is logged now.
        engine.withdraw(SimTime::from_secs(5.0), PrefixId(1), all[0]);
        engine.run_until(SimTime::from_secs(700.0));
        assert!(engine.churn().windows(2).all(|w| w[0].time <= w[1].time));

        let linear = |prefix: PrefixId, from: SimTime, to: SimTime| {
            engine
                .churn()
                .iter()
                .filter(|r| r.prefix == prefix && r.time >= from && r.time < to)
                .count()
        };
        let mut edges: Vec<SimTime> =
            [0.0, 0.5, 1.0, 59.9, 60.0, 61.3, 90.0, 120.0, 600.0, 601.0, 700.0, 9e3]
                .map(SimTime::from_secs)
                .to_vec();
        // Exact record times: both half-open ends land on a record.
        edges.extend(engine.churn().iter().step_by(97).map(|r| r.time));
        let mut nonempty = 0;
        for &from in &edges {
            for &to in &edges {
                for prefix in [PrefixId(0), PrefixId(1), PrefixId(2)] {
                    let got = engine.updates_in_window(prefix, from, to);
                    assert_eq!(got, linear(prefix, from, to), "{prefix:?} [{from:?}, {to:?})");
                    assert!(to > from || got == 0, "empty and inverted windows hold nothing");
                    nonempty += usize::from(got > 0);
                }
            }
        }
        assert!(nonempty > 50, "the fixture must exercise populated windows: {nonempty}");
    }

    #[test]
    fn current_rtt_tracks_path_geography() {
        let (g, dep, _, stub, ny) = two_as_fixture();
        let mut engine = BgpEngine::new(&g, &dep, DynamicsConfig::default(), 7);
        engine.announce(SimTime::ZERO, PrefixId(0), PeeringId(0));
        engine.run_until(SimTime::from_secs(60.0));
        let rtt = engine.current_rtt_ms(stub, ny, PrefixId(0)).unwrap();
        assert!(rtt < 2.0, "all-NY path should be sub-2ms, got {rtt}");
    }
}
