//! Whole-pipeline determinism: a fixed seed must reproduce every figure
//! bit-for-bit (the repository's reproducibility guarantee).

use painter::eval::figs::run;
use painter::eval::Scale;

fn rendered(id: &str) -> String {
    run(id, Scale::Test).expect("known id").render()
}

#[test]
fn fig3_is_deterministic() {
    assert_eq!(rendered("fig3"), rendered("fig3"));
}

#[test]
fn fig10_is_deterministic() {
    assert_eq!(rendered("fig10"), rendered("fig10"));
}

#[test]
fn fig11a_is_deterministic() {
    assert_eq!(rendered("fig11a"), rendered("fig11a"));
}

#[test]
fn fig12_is_deterministic() {
    assert_eq!(rendered("fig12"), rendered("fig12"));
}

/// The orchestrator pipeline (greedy + learning) is deterministic too.
#[test]
fn orchestrator_pipeline_is_deterministic() {
    use painter::core::{GroundTruthEnv, Orchestrator, OrchestratorConfig};
    use painter::eval::helpers::world_direct;
    use painter::eval::Scenario;
    use painter::measure::UgId;

    let run_once = || {
        let s = Scenario::peering_like(Scale::Test, 3001);
        let mut world = world_direct(&s);
        let mut orch = Orchestrator::new(
            world.inputs.clone(),
            OrchestratorConfig { prefix_budget: 6, max_iterations: 2, ..Default::default() },
        );
        let ug_ids: Vec<UgId> = orch.inputs.ugs.iter().map(|u| u.id).collect();
        let report = {
            let mut env = GroundTruthEnv::new(&mut world.gt, ug_ids);
            orch.run(&mut env)
        };
        (
            format!("{:?}", report.final_config),
            report.iterations.iter().map(|i| i.measured_benefit.to_bits()).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run_once(), run_once());
}

/// The full orchestrator→TM pipeline must produce byte-identical
/// `RunReport` JSON at every `PAINTER_THREADS` setting. Only wall-clock
/// spans, the thread-count gauge and the four scoring-work counters are
/// stripped before comparing — those legitimately differ; everything
/// else (configs, benefit floats, pair counts, simulated-time TM metrics)
/// must not.
#[test]
fn run_report_is_thread_count_invariant() {
    use painter::bgp::PrefixId;
    use painter::core::{GroundTruthEnv, Orchestrator, OrchestratorConfig};
    use painter::eval::helpers::world_direct;
    use painter::eval::Scenario;
    use painter::eventsim::SimTime;
    use painter::measure::UgId;
    use painter::obs::{Registry, RunReport, Section};
    use painter::tm::{TmSimulation, TmSimulationConfig};
    use painter::topology::PopId;

    let report_json = |threads: &str| {
        // Exercise the env-var path of the thread-count resolution (the
        // config field is covered by the equivalence proptest).
        std::env::set_var("PAINTER_THREADS", threads);
        let obs = Registry::new();
        let scenario = Scenario::azure_like(Scale::Test, 505);
        let mut world = world_direct(&scenario);
        let mut orch = Orchestrator::with_obs(
            world.inputs.clone(),
            OrchestratorConfig { prefix_budget: 5, max_iterations: 2, ..Default::default() },
            obs.clone(),
        );
        let ug_ids: Vec<UgId> = orch.inputs.ugs.iter().map(|u| u.id).collect();
        let orch_report = {
            let mut env = GroundTruthEnv::new(&mut world.gt, ug_ids);
            orch.run(&mut env)
        };
        let mut sim = TmSimulation::with_obs(
            TmSimulationConfig { seed: 7, ..Default::default() },
            obs.clone(),
        );
        let t0 = sim.add_path(PrefixId(0), PopId(0), 20.0);
        let _t1 = sim.add_path(PrefixId(1), PopId(1), 50.0);
        sim.schedule_path_down(SimTime::from_secs(1.0), t0);
        sim.run(SimTime::from_secs(3.0));
        std::env::remove_var("PAINTER_THREADS");

        let mut report = RunReport::new("threads-invariance");
        report.push_section(
            Section::new("orchestrator")
                .field("iterations", orch_report.iterations.len())
                .field("prefixes_advertised", orch_report.final_config.prefix_count()),
        );
        let mut snap = obs.snapshot();
        snap.metrics.retain(|m| {
            !matches!(
                m.name(),
                "core.greedy_compute_ms"
                    | "core.run_iter_ms"
                    | "core.greedy_threads"
                    // The greedy's speculation width equals the pool size:
                    // a wider pool prefetches more rescores per batch, so
                    // these four work counters scale with the thread count
                    // (the last two are bumped by every rescore, consumed
                    // or speculative). The results they feed do not.
                    | "core.parallel_tasks"
                    | "core.greedy_batch_recompute"
                    | "core.greedy_rescored_ugs"
                    | "core.greedy_anchor_hits"
            )
        });
        report.add_snapshot(snap);
        report.to_json()
    };

    let one = report_json("1");
    let two = report_json("2");
    let eight = report_json("8");
    assert_eq!(one, two, "RunReport differs between 1 and 2 threads");
    assert_eq!(one, eight, "RunReport differs between 1 and 8 threads");
}
