//! Acceptance test for the telemetry layer: a full orchestrator `run()`
//! plus a TM failover simulation, sharing one registry, must produce a
//! `RunReport` JSON containing greedy iterations, final modeled benefit,
//! prefixes advertised vs budget, probe RTT p50/p99, failover count, and
//! time-to-failover p99 — parsed back and sanity-checked here.

use painter::bgp::PrefixId;
use painter::core::{GroundTruthEnv, Orchestrator, OrchestratorConfig};
use painter::eval::helpers::world_direct;
use painter::eval::{Scale, Scenario};
use painter::eventsim::SimTime;
use painter::measure::UgId;
use painter::obs::{Registry, RunReport, Section};
use painter::tm::{TmSimulation, TmSimulationConfig};
use painter::topology::PopId;

/// Builds the report the acceptance criteria describe.
fn full_run_report(obs: &Registry) -> RunReport {
    // --- Orchestrator: advertise→measure→learn at budget 6.
    let scenario = Scenario::azure_like(Scale::Test, 404);
    let mut world = world_direct(&scenario);
    let budget = 6;
    let mut orch = Orchestrator::with_obs(
        world.inputs.clone(),
        OrchestratorConfig { prefix_budget: budget, max_iterations: 3, ..Default::default() },
        obs.clone(),
    );
    let ug_ids: Vec<UgId> = orch.inputs.ugs.iter().map(|u| u.id).collect();
    let orch_report = {
        let mut env = GroundTruthEnv::new(&mut world.gt, ug_ids);
        orch.run(&mut env)
    };

    // --- Traffic Manager: two paths, primary dies at t=1s.
    let mut sim =
        TmSimulation::with_obs(TmSimulationConfig { seed: 11, ..Default::default() }, obs.clone());
    let t0 = sim.add_path(PrefixId(0), PopId(0), 20.0);
    let _t1 = sim.add_path(PrefixId(1), PopId(1), 50.0);
    sim.schedule_path_down(SimTime::from_secs(1.0), t0);
    sim.run(SimTime::from_secs(3.0));

    let mut report = RunReport::new("full-run");
    report.push_section(
        Section::new("orchestrator")
            .field("greedy_iterations", orch_report.iterations.len())
            .field("prefix_budget", budget)
            .field("prefixes_advertised", orch_report.final_config.prefix_count())
            .field(
                "final_measured_benefit",
                orch_report.iterations.last().map(|i| i.measured_benefit).unwrap_or(0.0),
            ),
    );
    report.push_section(
        Section::new("traffic_manager")
            .field("requests", sim.records().len())
            .field("switches", sim.switch_log().len()),
    );
    report.add_snapshot(obs.snapshot());
    report
}

#[test]
fn full_run_produces_parseable_complete_report() {
    let obs = Registry::new();
    let report = full_run_report(&obs);
    let json = report.to_json();
    let doc = painter::obs::json::parse(&json).expect("report must be valid JSON");

    // Section summaries survive the round trip.
    let sections = doc.get("sections").and_then(|v| v.as_array()).expect("sections array");
    assert_eq!(sections.len(), 2);
    let orch = &sections[0];
    assert_eq!(orch.get("title").and_then(|v| v.as_str()), Some("orchestrator"));
    let fields = orch.get("fields").expect("fields");
    let iterations = fields.get("greedy_iterations").and_then(|v| v.as_f64()).unwrap();
    assert!(iterations >= 1.0, "at least one greedy iteration ran");
    let advertised = fields.get("prefixes_advertised").and_then(|v| v.as_f64()).unwrap();
    let budget = fields.get("prefix_budget").and_then(|v| v.as_f64()).unwrap();
    assert!(advertised >= 1.0 && advertised <= budget, "{advertised} vs budget {budget}");

    if !painter::obs::enabled() {
        // obs-off build: the summaries above still work, metrics are empty.
        assert!(report.metrics.metrics.is_empty());
        return;
    }

    let metrics = doc.get("metrics").expect("metrics object");
    let counter = |name: &str| {
        metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    let hist_stat = |name: &str, stat: &str| {
        metrics
            .get(name)
            .and_then(|m| m.get(stat))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("histogram {name}.{stat} missing"))
    };

    // Greedy iterations + modeled benefit agree with the section summary.
    assert_eq!(counter("core.run_iterations_total"), iterations);
    let modeled = metrics
        .get("core.greedy_modeled_benefit")
        .and_then(|m| m.get("value"))
        .and_then(|v| v.as_f64())
        .expect("final modeled benefit gauge");
    assert!(modeled > 0.0, "the greedy must find some benefit");

    // Prefixes advertised vs budget.
    let used = metrics
        .get("core.greedy_prefixes_used")
        .and_then(|m| m.get("value"))
        .and_then(|v| v.as_f64())
        .expect("prefixes-used gauge");
    assert!(used >= 1.0 && used <= budget);
    let utilization = metrics
        .get("core.prefix_budget_utilization")
        .and_then(|m| m.get("value"))
        .and_then(|v| v.as_f64())
        .expect("utilization gauge");
    assert!((utilization - used / budget).abs() < 1e-9);

    // Why planning got slower after learning: the last greedy run (after
    // the loop) saw every UG the loop learned something about.
    let fact_ugs = metrics
        .get("core.greedy_fact_ugs")
        .and_then(|m| m.get("value"))
        .and_then(|v| v.as_f64())
        .expect("fact-UGs gauge");
    assert!(fact_ugs >= 1.0 || counter("core.learn_dominance_total") == 0.0);
    assert!(fact_ugs <= counter("core.learn_dominance_total"));

    // Probe RTT p50/p99: the surviving 50 ms path dominates late probes,
    // and p50 covers at least the fast path's 20 ms RTT.
    assert!(hist_stat("tm.probe_rtt_ms", "count") > 0.0);
    let p50 = hist_stat("tm.probe_rtt_ms", "p50");
    let p99 = hist_stat("tm.probe_rtt_ms", "p99");
    assert!(p50 >= 19.0, "probe p50 {p50} below any path RTT");
    assert!(p99 >= p50 && p99 < 1000.0, "probe p99 {p99} out of range");

    // Failover count and time-to-failover p99 at RTT timescale.
    assert_eq!(counter("tm.failovers_total"), 1.0);
    let ttf_p99 = hist_stat("tm.time_to_failover_ms", "p99");
    assert!(
        ttf_p99 > 0.0 && ttf_p99 < 200.0,
        "time-to-failover p99 {ttf_p99} ms must be RTT-timescale"
    );

    // The human rendering mentions the same subsystems.
    let table = report.render_table();
    assert!(table.contains("[orchestrator]"));
    assert!(table.contains("tm.time_to_failover_ms"));
}

#[test]
fn chaos_sections_pin_their_schema() {
    use painter::eval::chaos::{run_campaign, standard_suite, ChaosTiming};

    let timing = ChaosTiming::for_scale(Scale::Test);
    let spec = standard_suite(&timing).remove(0);
    let outcome = run_campaign(&spec, &timing, 1).expect("campaign");
    let mut report = RunReport::new("chaos");
    for section in outcome.sections() {
        report.push_section(section);
    }
    let doc = painter::obs::json::parse(&report.to_json()).expect("valid JSON");
    let sections = doc.get("sections").and_then(|v| v.as_array()).expect("sections array");

    // One provenance section, the four strategies in fixed order, the
    // closed-loop learning telemetry, then incident attribution: one
    // summary plus one record per injected fault.
    let titles: Vec<&str> =
        sections.iter().filter_map(|s| s.get("title").and_then(|v| v.as_str())).collect();
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

    let provenance = sections[0].get("fields").expect("schedule fields");
    for name in ["seed", "injections", "first_fault_ms", "trace_fnv1a", "spec"] {
        assert!(provenance.get(name).is_some(), "schedule section missing {name}");
    }
    assert!(provenance.get("injections").and_then(|v| v.as_f64()).unwrap() >= 1.0);

    for section in &sections[1..=4] {
        let fields = section.get("fields").expect("scorecard fields");
        for name in [
            "requests",
            "completed",
            "availability",
            "failovers",
            "outages",
            "unrecovered",
            "ttr_count",
            "ttr_mean_ms",
            "ttr_p50_ms",
            "ttr_p90_ms",
            "ttr_p99_ms",
            "ttr_max_ms",
            "rtt_baseline_ms",
            "rtt_post_fault_ms",
            "latency_inflation",
        ] {
            assert!(fields.get(name).is_some(), "scorecard missing {name}");
        }
        let availability = fields.get("availability").and_then(|v| v.as_f64()).unwrap();
        assert!((0.0..=1.0).contains(&availability), "availability {availability}");
    }

    // The learning section pins the guard-layer telemetry schema.
    let learning = sections[5].get("fields").expect("learning fields");
    for name in [
        "iterations",
        "samples_offered",
        "samples_admitted",
        "samples_quarantined",
        "samples_discarded",
        "quarantine_held",
        "hysteresis_commits",
        "hysteresis_resets",
        "rollbacks",
        "rollback_demonstrated",
        "install_ops",
        "plan_churn_rate",
        "final_pairs",
        "dominance_learned",
        "unreachable_marks",
        "compliance_miss_rate",
        "compliance_spurious_rate",
        "events_dropped",
    ] {
        assert!(learning.get(name).is_some(), "learning section missing {name}");
    }
    let iterations = learning.get("iterations").and_then(|v| v.as_f64()).unwrap();
    assert!(iterations >= 1.0, "closed loop must run at least one iteration");
    let offered = learning.get("samples_offered").and_then(|v| v.as_f64()).unwrap();
    let admitted = learning.get("samples_admitted").and_then(|v| v.as_f64()).unwrap();
    assert!(admitted <= offered, "admitted {admitted} exceeds offered {offered}");

    // The incident-attribution sections pin the flight-recorder schema.
    let summary = sections[6].get("fields").expect("incidents fields");
    for name in [
        "faults",
        "observed",
        "unobserved",
        "detection_mean_ms",
        "failover_mean_ms",
        "repair_mean_ms",
        "blast_ugs_total",
        "kinds",
    ] {
        assert!(summary.get(name).is_some(), "incidents summary missing {name}");
    }
    assert_eq!(summary.get("faults").and_then(|v| v.as_f64()), Some(1.0));
    let incident = sections[7].get("fields").expect("incident fields");
    for name in [
        "fault",
        "name",
        "kind",
        "start_ms",
        "end_ms",
        "blast_tunnels",
        "blast_ugs",
        "detection_ms",
        "failover_ms",
        "repair_ms",
        "recovered_by",
        "observed",
    ] {
        assert!(incident.get(name).is_some(), "incident section missing {name}");
    }
    assert_eq!(incident.get("kind").and_then(|v| v.as_str()), Some("pop_outage"));
    assert_eq!(incident.get("name").and_then(|v| v.as_str()), Some("popA"));
    if painter::obs::enabled() {
        // Live build: the outage must be fully explained — detected,
        // failed over, and recovered by some mechanism.
        let detection = incident.get("detection_ms").and_then(|v| v.as_f64()).unwrap();
        assert!(detection >= 0.0, "pop outage undetected: {detection}");
        let failover = incident.get("failover_ms").and_then(|v| v.as_f64()).unwrap();
        assert!(failover >= 0.0, "pop outage never failed over: {failover}");
        let blast = incident.get("blast_tunnels").and_then(|v| v.as_f64()).unwrap();
        assert!(blast >= 1.0, "pop outage killed no tunnels: {blast}");
        let recovered = incident.get("recovered_by").and_then(|v| v.as_str()).unwrap();
        assert_ne!(recovered, "none", "pop outage attributed no recovery");
        assert_eq!(summary.get("unobserved").and_then(|v| v.as_f64()), Some(0.0));
    }
}

#[test]
fn guard_tune_sections_pin_their_schema() {
    use painter::eval::guard_tune::{load_corpus, run_guard_tune, GuardTuneConfig};
    use painter::obs::json::JsonValue;

    // The pinned corpus joins the pool so the knob sweep runs against
    // the adversarial reproducers (the hand-written suite alone is
    // knob-flat at test scale).
    let corpus_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let corpus = load_corpus(&corpus_dir).expect("pinned corpus");
    assert!(!corpus.is_empty(), "corpus dir must hold pinned reproducers");
    let run = run_guard_tune(Scale::Test, GuardTuneConfig::tiny(5), &corpus).expect("tune");
    let mut report = RunReport::new("guard-tune");
    for section in run.sections() {
        report.push_section(section);
    }
    let doc = painter::obs::json::parse(&report.to_json()).expect("valid JSON");
    let sections = doc.get("sections").and_then(|v| v.as_array()).expect("sections array");

    // Config, one round, progress, the three scored configs, the
    // frontier summary, then one point section per frontier point.
    let titles: Vec<&str> =
        sections.iter().filter_map(|s| s.get("title").and_then(|v| v.as_str())).collect();
    let frontier_points = run.outcome.frontier.len();
    assert!(frontier_points >= 1, "frontier can never be empty");
    let mut expected = vec![
        "guard.tune.config".to_string(),
        "guard.tune.round0".to_string(),
        "guard.tune.progress".to_string(),
        "guard.tune.default".to_string(),
        "guard.tune.best".to_string(),
        "guard.tune.tuned".to_string(),
        "guard.tune.knobs".to_string(),
    ];
    expected.extend(run.knob_sweeps.iter().map(|s| format!("guard.tune.knob.{}", s.knob)));
    expected.push("guard.tune.frontier".to_string());
    expected.extend((0..frontier_points).map(|k| format!("guard.tune.point{k}")));
    assert_eq!(titles, expected.iter().map(String::as_str).collect::<Vec<_>>());

    // Exact field names and counts per section, keyed by title prefix.
    let pinned: &[(&str, &[&str])] = &[
        (
            "guard.tune.config",
            &["seed", "rounds", "tune_budget", "adversary_budget", "pool_final", "campaigns"],
        ),
        (
            "guard.tune.round0",
            &[
                "pool_size",
                "adversary_best_loss",
                "new_specs",
                "best_worst_loss",
                "best_mean_loss",
                "best_churn",
            ],
        ),
        ("guard.tune.progress", &["guards_evaluated", "distinct_configs", "best_trajectory"]),
        ("guard.tune.default", &["worst_loss", "mean_loss", "churn", "config"]),
        (
            "guard.tune.best",
            &["worst_loss", "mean_loss", "churn", "name", "beats_default", "config"],
        ),
        ("guard.tune.tuned", &["worst_loss", "mean_loss", "churn", "matches_best", "config"]),
        ("guard.tune.knobs", &["knobs", "moving", "moving_non_streak"]),
        (
            "guard.tune.knob.spike_sigma",
            &[
                "value",
                "low_worst_loss",
                "high_worst_loss",
                "best_worst_loss",
                "low_mean_loss",
                "high_mean_loss",
                "best_mean_loss",
                "worst_spread",
                "mean_spread",
            ],
        ),
        ("guard.tune.frontier", &["points", "churn_vs_worst_loss"]),
        ("guard.tune.point0", &["worst_loss", "mean_loss", "churn", "name", "config"]),
    ];
    for (title, names) in pinned {
        let section = sections
            .iter()
            .find(|s| s.get("title").and_then(|v| v.as_str()) == Some(title))
            .unwrap_or_else(|| panic!("missing section {title}"));
        let fields = section.get("fields").expect("fields");
        for name in *names {
            assert!(fields.get(name).is_some(), "{title} missing field {name}");
        }
        match fields {
            JsonValue::Object(map) => {
                assert_eq!(map.len(), names.len(), "{title} field count drifted: {map:?}")
            }
            other => panic!("{title} fields not an object: {other:?}"),
        }
    }

    // The frontier series has one (churn, worst_loss) pair per point,
    // and the descent trajectory one point per guard evaluation.
    let frontier = sections
        .iter()
        .find(|s| s.get("title").and_then(|v| v.as_str()) == Some("guard.tune.frontier"))
        .unwrap()
        .get("fields")
        .unwrap();
    assert_eq!(frontier.get("points").and_then(|v| v.as_f64()), Some(frontier_points as f64));
    let series =
        frontier.get("churn_vs_worst_loss").and_then(|v| v.as_array()).expect("frontier series");
    assert_eq!(series.len(), frontier_points);
    let progress = sections[2].get("fields").unwrap();
    let trajectory =
        progress.get("best_trajectory").and_then(|v| v.as_array()).expect("trajectory series");
    assert_eq!(trajectory.len(), run.config.tune_budget);

    // The knob sweep covers every guard knob and at least one knob
    // other than required_streak demonstrably moves availability.
    let knobs = sections
        .iter()
        .find(|s| s.get("title").and_then(|v| v.as_str()) == Some("guard.tune.knobs"))
        .unwrap()
        .get("fields")
        .unwrap();
    assert_eq!(knobs.get("knobs").and_then(|v| v.as_f64()), Some(9.0));
    assert!(
        knobs.get("moving_non_streak").and_then(|v| v.as_f64()).unwrap() >= 1.0,
        "sweep shows no knob besides required_streak moving availability"
    );

    // The three scored configs carry parseable canonical config JSON,
    // and the best is never worse than the default baseline.
    for title in ["guard.tune.default", "guard.tune.best", "guard.tune.tuned"] {
        let section = sections
            .iter()
            .find(|s| s.get("title").and_then(|v| v.as_str()) == Some(title))
            .unwrap();
        let config = section
            .get("fields")
            .and_then(|f| f.get("config"))
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("{title} missing config JSON"));
        painter::obs::json::parse(config).unwrap_or_else(|e| panic!("{title} config: {e}"));
    }
    let best = sections[4].get("fields").unwrap();
    let default = sections[3].get("fields").unwrap();
    let best_worst = best.get("worst_loss").and_then(|v| v.as_f64()).unwrap();
    let default_worst = default.get("worst_loss").and_then(|v| v.as_f64()).unwrap();
    // The tuner ranks on quant3-quantized keys, so "best" may trail the
    // default by sub-millipoint noise on raw worst loss while winning the
    // mean-loss tiebreak; compare at the tuner's own resolution.
    let quant3 = |x: f64| (x * 1_000.0).round() / 1_000.0;
    assert!(
        quant3(best_worst) <= quant3(default_worst) + 1e-12,
        "best {best_worst} vs default {default_worst}",
    );
}

#[test]
fn scale_sections_pin_their_schema() {
    use painter::eval::scale::{run_scale, ScaleConfig};
    use painter::obs::json::JsonValue;

    // CI-sized sweep: two UG counts x one peering count x two thread
    // counts. The pinned schema, not the preset sizes, is under test.
    let config = ScaleConfig {
        ug_counts: vec![300, 700],
        peering_counts: vec![10],
        thread_counts: vec![1, 2],
        pops: 5,
        prefix_budget: 4,
        deltas: 8,
        add_candidates: 4,
        ..ScaleConfig::for_scale(Scale::Test, 7)
    };
    let run = run_scale(Scale::Test, config).expect("scale sweep");
    let mut report = RunReport::new("scale");
    for section in run.sections() {
        report.push_section(section);
    }
    let doc = painter::obs::json::parse(&report.to_json()).expect("valid JSON");
    let sections = doc.get("sections").and_then(|v| v.as_array()).expect("sections array");

    // The config section first, then one cell per sweep point in sweep
    // order (UGs outermost, threads innermost).
    let titles: Vec<&str> =
        sections.iter().filter_map(|s| s.get("title").and_then(|v| v.as_str())).collect();
    let expected: Vec<String> = std::iter::once("scale.config".to_string())
        .chain(
            ["300x10x1", "300x10x2", "700x10x1", "700x10x2"]
                .iter()
                .map(|label| format!("scale.cell.{label}")),
        )
        .collect();
    assert_eq!(titles, expected.iter().map(String::as_str).collect::<Vec<_>>());

    // Exact field names and counts, matching the chaos/guard.tune pins.
    let cell_fields: &[&str] = &[
        "ugs",
        "peerings",
        "threads",
        "candidacies",
        "cold_prefixes",
        "cold_pairs",
        "cold_fnv",
        "incr_prefixes",
        "incr_pairs",
        "incr_fnv",
        "incr_benefit",
        "deltas",
    ];
    let pinned: &[(&str, &[&str])] = &[
        (
            "scale.config",
            &[
                "seed",
                "ug_counts",
                "peering_counts",
                "thread_counts",
                "pops",
                "prefix_budget",
                "min_marginal_frac",
                "deltas",
                "add_candidates",
            ],
        ),
        ("scale.cell.300x10x1", cell_fields),
        ("scale.cell.700x10x2", cell_fields),
    ];
    for (title, names) in pinned {
        let section = sections
            .iter()
            .find(|s| s.get("title").and_then(|v| v.as_str()) == Some(title))
            .unwrap_or_else(|| panic!("missing section {title}"));
        let fields = section.get("fields").expect("fields");
        for name in *names {
            assert!(fields.get(name).is_some(), "{title} missing field {name}");
        }
        match fields {
            JsonValue::Object(map) => {
                assert_eq!(map.len(), names.len(), "{title} field count drifted: {map:?}")
            }
            other => panic!("{title} fields not an object: {other:?}"),
        }
    }

    // Cells carry the deterministic facts CI byte-compares (digests, not
    // wall times).
    for section in &sections[1..] {
        let fields = section.get("fields").unwrap();
        let benefit = fields.get("incr_benefit").and_then(|v| v.as_f64()).unwrap();
        assert!(benefit.is_finite() && benefit > 0.0, "degenerate cell benefit {benefit}");
    }
}

#[test]
fn shared_registry_merges_subsystem_metrics() {
    let obs = Registry::new();
    let report = full_run_report(&obs);
    if !painter::obs::enabled() {
        return;
    }
    // One registry, three subsystems: core.* and tm.* names coexist in a
    // single sorted snapshot.
    let names: Vec<&str> = report.metrics.metrics.iter().map(|m| m.name()).collect();
    assert!(names.iter().any(|n| n.starts_with("core.")));
    assert!(names.iter().any(|n| n.starts_with("tm.")));
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "snapshot is name-sorted");
}

#[test]
fn lp_gap_sections_pin_their_schema() {
    use painter::eval::lp_gap::{run_lp_gap, LpGapConfig};
    use painter::obs::json::JsonValue;

    // CI-sized instances: the schema (titles + field names) is what is
    // pinned, not the figures-binary defaults.
    let config =
        LpGapConfig { max_ugs: 40, max_options: 4, ..LpGapConfig::for_scale(Scale::Test, 1) };
    let run = run_lp_gap(Scale::Test, config).expect("lp gap run");
    let mut report = RunReport::new("lp-gap");
    for section in run.sections() {
        report.push_section(section);
    }
    let doc = painter::obs::json::parse(&report.to_json()).expect("valid JSON");
    let sections = doc.get("sections").and_then(|v| v.as_array()).expect("sections array");

    let titles: Vec<&str> =
        sections.iter().filter_map(|s| s.get("title").and_then(|v| v.as_str())).collect();
    assert_eq!(
        titles,
        ["lp.config", "lp.azure", "lp.peering", "lp.delivered", "chaos.flash-crowd.flashcrowd"]
    );

    // Exact field names and counts per section, matching the chaos and
    // guard.tune pins.
    let gap_fields: &[&str] = &[
        "ugs",
        "demand_kept_pct",
        "peerings",
        "budget",
        "vars",
        "rows",
        "exact_benefit",
        "exact_mlu",
        "exact_pivots",
        "greedy_benefit",
        "greedy_mlu",
        "greedy_pivots",
        "phase1_pivots",
        "gap_pct",
        "mlu_before",
        "mlu_after",
        "split_ugs",
    ];
    let pinned: &[(&str, &[&str])] = &[
        (
            "lp.config",
            &[
                "seed",
                "headroom",
                "surge_headroom",
                "surge_factor",
                "surge_fraction",
                "max_ugs",
                "max_options",
                "budget_pct",
            ],
        ),
        ("lp.azure", gap_fields),
        ("lp.peering", gap_fields),
        (
            "lp.delivered",
            &[
                "ugs",
                "packets_per_ug",
                "anycast_share_pct",
                "wcmp_mlu",
                "wcmp_loss_pct",
                "latency_mlu",
                "latency_loss_pct",
                "lp_mlu",
                "delivers",
            ],
        ),
        (
            "chaos.flash-crowd.flashcrowd",
            &[
                "factor",
                "fraction",
                "cohort_ugs",
                "cohort_weight_pct",
                "latency_benefit",
                "latency_mlu",
                "latency_overload",
                "aware_benefit",
                "aware_mlu",
                "lp_benefit",
                "lp_mlu",
                "absorbed",
            ],
        ),
    ];
    for (title, names) in pinned {
        let section = sections
            .iter()
            .find(|s| s.get("title").and_then(|v| v.as_str()) == Some(title))
            .unwrap_or_else(|| panic!("missing section {title}"));
        let fields = section.get("fields").expect("fields");
        for name in *names {
            assert!(fields.get(name).is_some(), "{title} missing field {name}");
        }
        match fields {
            JsonValue::Object(map) => {
                assert_eq!(map.len(), names.len(), "{title} field count drifted: {map:?}")
            }
            other => panic!("{title} fields not an object: {other:?}"),
        }
    }

    // Acceptance: the exact LP bounds the greedy restriction on every
    // scenario, and the flash crowd is absorbed only by capacity-aware
    // placement (strictly lower MLU than latency-blind).
    for title in ["lp.azure", "lp.peering"] {
        let fields = sections
            .iter()
            .find(|s| s.get("title").and_then(|v| v.as_str()) == Some(title))
            .unwrap()
            .get("fields")
            .unwrap();
        let exact = fields.get("exact_benefit").and_then(|v| v.as_f64()).unwrap();
        let greedy = fields.get("greedy_benefit").and_then(|v| v.as_f64()).unwrap();
        let gap = fields.get("gap_pct").and_then(|v| v.as_f64()).unwrap();
        assert!(exact >= greedy - 1e-6, "{title}: exact {exact} < greedy {greedy}");
        assert!(gap >= 0.0, "{title}: negative gap {gap}");
        let mlu_after = fields.get("mlu_after").and_then(|v| v.as_f64()).unwrap();
        assert!(mlu_after <= 1.0 + 1e-6, "{title}: LP overloaded: {mlu_after}");
    }
    let flash = sections
        .iter()
        .find(|s| s.get("title").and_then(|v| v.as_str()) == Some("chaos.flash-crowd.flashcrowd"))
        .unwrap()
        .get("fields")
        .unwrap();
    let latency_mlu = flash.get("latency_mlu").and_then(|v| v.as_f64()).unwrap();
    let aware_mlu = flash.get("aware_mlu").and_then(|v| v.as_f64()).unwrap();
    assert!(latency_mlu > 1.0, "surge did not overload blind placement: {latency_mlu}");
    assert!(aware_mlu < latency_mlu, "capacity-aware MLU not strictly lower");
    // Bool fields render as 0/1 metrics in report JSON.
    assert_eq!(flash.get("absorbed").and_then(|v| v.as_f64()), Some(1.0), "absorbed flag not set");

    // The delivered replay closes the loop: WCMP packets track the LP
    // where latency-only packets overload.
    let delivered = sections
        .iter()
        .find(|s| s.get("title").and_then(|v| v.as_str()) == Some("lp.delivered"))
        .unwrap()
        .get("fields")
        .unwrap();
    let wcmp_mlu = delivered.get("wcmp_mlu").and_then(|v| v.as_f64()).unwrap();
    let blind_mlu = delivered.get("latency_mlu").and_then(|v| v.as_f64()).unwrap();
    assert!(blind_mlu > 1.0, "latency-only packets did not overload: {blind_mlu}");
    assert!(wcmp_mlu < blind_mlu, "WCMP delivered MLU not strictly lower");
    assert_eq!(delivered.get("delivers").and_then(|v| v.as_f64()), Some(1.0), "delivers not set");
}
