//! Fig. 10: RTT-timescale failover during a PoP failure.
//!
//! The scenario of Fig. 10a: an enterprise TM-Edge holds tunnels to an
//! anycast prefix (advertised at two PoPs) and four single-transit
//! prefixes (one per ISP per PoP). At t = 60 s every session at PoP-A is
//! withdrawn. The paper observes:
//!
//! * PAINTER detects the loss within ~1.3 RTT and switches to the
//!   next-best prefix at PoP-B in about one RTT (~30 ms of loss);
//! * the anycast prefix is unreachable for ~1 s and takes ~15 s to fully
//!   reconverge (visible as a RIPE RIS update spike);
//! * DNS-based failover would take ~60 s (TTL-bound).
//!
//! The world and the prefix plan are the campaign kernel's
//! (`campaign.rs`); the figure keeps its own engine because its
//! withdrawals are hand-staggered rather than compiled from a schedule,
//! and samples per-prefix reachability/latency onto the Traffic Manager
//! simulation's channel schedule itself to record the plotted series.

use crate::campaign::{
    add_tunnels, build_world, dynamics, sample_time, ANYCAST_OVERHEAD_MS, SAMPLE_MS,
};
use crate::scenario::Scale;
use crate::{Figure, Series};
use painter_bgp::PrefixId;
use painter_eventsim::SimTime;
use painter_tm::{TmSimulation, TmSimulationConfig};
use painter_topology::PopId;

/// Wall-clock length of the experiment (the paper plots 0–130 s).
const HORIZON_S: f64 = 130.0;
/// PoP-A fails at this time.
const FAIL_AT_S: f64 = 60.0;

/// Runs the failover experiment.
pub fn run(_scale: Scale) -> Figure {
    let world = build_world();
    let plan = &world.plan;

    // --- BGP side: announce everything at t=0, withdraw PoP-A at 60 s.
    let mut engine = world.announced_engine(dynamics(10));
    // A PoP failure is not one atomic event: each BGP session notices on
    // its own failure-detection timer, so the withdrawals reach neighbors
    // staggered over a few seconds — this is what smears the RIS update
    // spike in the paper's figure.
    let fail_at = SimTime::from_secs(FAIL_AT_S);
    let mut stagger = 0u32;
    for (prefix, peerings) in plan {
        for &pe in peerings {
            if world.deployment.peering(pe).pop == PopId(0) {
                let detect = SimTime::from_ms(700.0 * (stagger % 4) as f64);
                engine.withdraw(fail_at + detect, *prefix, pe);
                stagger += 1;
            }
        }
    }

    // --- Sample BGP state onto the TM channel schedule.
    let mut tm = TmSimulation::new(TmSimulationConfig { seed: 10, ..Default::default() });
    // Seed tunnels with their initial RTTs once the engine settles.
    engine.run_until(SimTime::from_secs(30.0));
    let tunnels = add_tunnels(&mut tm, &world, &world.base_rtts(&engine, ANYCAST_OVERHEAD_MS));
    // BGP-state samples become TM path-change events, and the per-prefix
    // RTT series of the figure.
    let mut rtt_series: Vec<(PrefixId, Vec<(f64, f64)>)> =
        plan.iter().map(|(p, _)| (*p, Vec::new())).collect();
    let mut anycast_down_window: (Option<f64>, Option<f64>) = (None, None);
    let steps = (HORIZON_S * 1000.0 / SAMPLE_MS) as usize;
    for step in 0..=steps {
        let t = sample_time(step);
        engine.run_until(t);
        for (target, (prefix, series)) in tunnels.iter().zip(rtt_series.iter_mut()) {
            let overhead = if prefix.0 == 0 { ANYCAST_OVERHEAD_MS } else { 0.0 };
            // Data plane: once PoP-A is down, any path whose ingress is
            // PoP-A blackholes immediately, even while its BGP session is
            // still waiting for failure detection to withdraw it.
            let state = engine
                .current_route(world.stub, world.stub_metro, *prefix)
                .filter(|(ingress, _)| {
                    !(t >= fail_at && world.deployment.peering(*ingress).pop == PopId(0))
                })
                .map(|(_, rtt)| rtt + overhead);
            match state {
                Some(rtt) => {
                    tm.schedule_path_rtt(t, target.tunnel, rtt);
                    series.push((t.as_secs(), rtt));
                    if *prefix == PrefixId(0)
                        && anycast_down_window.0.is_some()
                        && anycast_down_window.1.is_none()
                    {
                        anycast_down_window.1 = Some(t.as_secs());
                    }
                }
                None => {
                    tm.schedule_path_down(t, target.tunnel);
                    if *prefix == PrefixId(0) && t >= fail_at && anycast_down_window.0.is_none() {
                        anycast_down_window.0 = Some(t.as_secs());
                    }
                }
            }
        }
    }

    // --- Run the Traffic Manager over the programmed paths.
    tm.run(SimTime::from_secs(HORIZON_S));

    // PAINTER's observed per-packet latency and chosen prefix.
    let mut painter_rtt: Vec<(f64, f64)> = Vec::new();
    let mut chosen: Vec<(f64, f64)> = Vec::new();
    for r in tm.records() {
        if let (Some(prefix), Some(rtt)) = (r.prefix, r.rtt_ms()) {
            painter_rtt.push((r.sent.as_secs(), rtt));
            chosen.push((r.sent.as_secs(), prefix.0 as f64));
        }
    }
    // Failover gap: last completed packet before failure on a PoP-A
    // prefix -> first completed packet after failure on a PoP-B prefix.
    let pop_b_prefixes = [PrefixId(3), PrefixId(4)];
    let first_backup = tm
        .records()
        .iter()
        .find(|r| {
            r.sent >= fail_at
                && r.completed.is_some()
                && r.prefix.map(|p| pop_b_prefixes.contains(&p)).unwrap_or(false)
        })
        .map(|r| (r.sent - fail_at).as_ms());
    let lost_packets =
        tm.records().iter().filter(|r| r.sent >= fail_at && r.completed.is_none()).count();

    // BGP churn (anycast prefix) per second.
    let churn: Vec<(f64, f64)> = (0..(HORIZON_S as usize))
        .map(|sec| {
            let from = SimTime::from_secs(sec as f64);
            let to = SimTime::from_secs(sec as f64 + 1.0);
            (sec as f64, engine.updates_in_window(PrefixId(0), from, to) as f64)
        })
        .collect();
    // Reconvergence window at 100 ms resolution (the per-second series
    // above is the plotted one).
    let mut converged_at = FAIL_AT_S;
    for tick in 0..((HORIZON_S - FAIL_AT_S) * 10.0) as usize {
        let from = SimTime::from_secs(FAIL_AT_S + tick as f64 * 0.1);
        let to = from + SimTime::from_ms(100.0);
        if engine.updates_in_window(PrefixId(0), from, to) > 0 {
            converged_at = FAIL_AT_S + (tick + 1) as f64 * 0.1;
        }
    }

    let mut series = Vec::new();
    for (prefix, pts) in rtt_series {
        series.push(Series::new(format!("rtt/{}", prefix_label(prefix)), pts));
    }
    series.push(Series::new("painter/observed-rtt", painter_rtt));
    series.push(Series::new("painter/chosen-prefix", chosen));
    series.push(Series::new("bgp/anycast-updates-per-s", churn));

    let notes = vec![
        match first_backup {
            Some(ms) => format!(
                "paper: PAINTER switches to PoP-B in ~1 RTT (~30 ms); measured first \
                 completed packet on backup {ms:.0} ms after failure ({lost_packets} packets lost)"
            ),
            None => "failover did not complete — unexpected".into(),
        },
        match anycast_down_window {
            (Some(a), Some(b)) => {
                format!("paper: anycast unreachable ~1 s after withdrawal; measured {:.2} s", b - a)
            }
            _ => "anycast never lost reachability at sampling granularity".into(),
        },
        format!(
            "paper: ~15 s to converge (RIS update spike); measured churn window {:.1} s — \
             our 15-AS scenario converges faster than the real Internet, but the ordering \
             (TM ms << BGP s << DNS min) is preserved",
            converged_at - FAIL_AT_S
        ),
        "DNS failover bound: one TTL (60 s in the paper's figure), orders of magnitude slower"
            .into(),
    ];
    Figure {
        id: "fig10",
        title: "Failover during PoP failure: PAINTER vs BGP vs DNS timescales",
        x_label: "time (s)",
        y_label: "RTT (ms) / updates per s / chosen prefix id",
        series,
        notes,
    }
}

fn prefix_label(p: PrefixId) -> &'static str {
    match p.0 {
        0 => "anycast(1.1.1.0/24)",
        1 => "PoPA-ISP1(2.2.2.0/24)",
        2 => "PoPA-ISP2",
        3 => "PoPB-ISP1(3.3.3.0/24)",
        4 => "PoPB-ISP2",
        _ => "?",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_failover_is_rtt_timescale() {
        let fig = run(Scale::Test);
        // The chosen-prefix series must start on a PoP-A prefix (1 or 2 —
        // low RTT from New York) and end on a PoP-B prefix (3 or 4).
        let chosen = fig.series.iter().find(|s| s.name == "painter/chosen-prefix").expect("series");
        let first = chosen.points.first().unwrap().1;
        let last = chosen.points.last().unwrap().1;
        assert!(first == 1.0 || first == 2.0, "started on {first}");
        assert!(last == 3.0 || last == 4.0, "ended on {last}");
        // Failover note reports a sub-second gap.
        let note = &fig.notes[0];
        assert!(note.contains("measured"), "{note}");
        // Observed RTT before failure is transatlantic-free (< 20 ms).
        let rtts = fig.series.iter().find(|s| s.name == "painter/observed-rtt").expect("series");
        let early: Vec<f64> =
            rtts.points.iter().filter(|(t, _)| *t > 30.0 && *t < 59.0).map(|(_, r)| *r).collect();
        let late: Vec<f64> =
            rtts.points.iter().filter(|(t, _)| *t > 70.0).map(|(_, r)| *r).collect();
        assert!(!early.is_empty() && !late.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&early) < 20.0, "pre-failure RTT {}", mean(&early));
        assert!(mean(&late) > 40.0, "post-failure RTT {} (London path)", mean(&late));
    }

    #[test]
    fn fig10_bgp_churn_spikes_after_failure() {
        let fig = run(Scale::Test);
        let churn =
            fig.series.iter().find(|s| s.name == "bgp/anycast-updates-per-s").expect("series");
        let before: f64 =
            churn.points.iter().filter(|(t, _)| *t > 40.0 && *t < 60.0).map(|(_, c)| c).sum();
        let after: f64 =
            churn.points.iter().filter(|(t, _)| *t >= 60.0 && *t < 80.0).map(|(_, c)| c).sum();
        assert!(after > before, "withdrawal must cause churn: {before} -> {after}");
    }
}
