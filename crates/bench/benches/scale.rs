//! Million-UG scale benchmarks: the SoA benefit arena vs the retained
//! nested-lookup reference fill, and delta-then-recompute over the
//! persistent arena vs a from-scratch compute.
//!
//! These are the two paths behind `figures scale`: the arena fill is
//! the per-prefix scoring kernel (linear in total candidacies), and the
//! incremental path is steady-state reconfiguration after a measurement
//! delta — the same cold greedy, minus repacking the arena. Inputs come from the same synthetic
//! generator the scale sweep uses, so bench numbers and BENCH_scale.json
//! trajectories are directly comparable.

use criterion::{criterion_group, BenchmarkId, Criterion};
use painter_core::{BenefitArena, Orchestrator, OrchestratorConfig};
use painter_eval::scale::{delta_stream, synthesize_inputs, ScaleConfig};
use painter_eval::Scale;
use painter_measure::build_user_groups;
use painter_topology::{generate, TopologyConfig};

const PEERINGS: usize = 64;

fn scale_inputs(n_ugs: usize, seed: u64) -> painter_core::OrchestratorInputs {
    let config = ScaleConfig::for_scale(Scale::Test, seed);
    let net = generate(TopologyConfig::scale(seed, n_ugs));
    let ugs = build_user_groups(&net, seed);
    synthesize_inputs(&config, &ugs, PEERINGS)
}

fn orchestrator_for(inputs: &painter_core::OrchestratorInputs) -> Orchestrator {
    Orchestrator::new(
        inputs.clone(),
        OrchestratorConfig { prefix_budget: 8, threads: Some(1), ..Default::default() },
    )
}

/// SoA arena fill vs the nested-lookup reference at 10k and 100k UGs:
/// the same scores bit-for-bit, so only layout (and its cache behavior)
/// differs.
fn bench_fill_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale/fill");
    group.sample_size(10);
    for &n_ugs in &[10_000usize, 100_000] {
        let inputs = scale_inputs(n_ugs, 41);
        let orch = orchestrator_for(&inputs);
        let arena = BenefitArena::from_inputs(&orch.inputs);
        group.bench_with_input(BenchmarkId::new("arena", n_ugs), &orch, |b, orch| {
            b.iter(|| orch.fill_scores_arena(&arena))
        });
        group.bench_with_input(BenchmarkId::new("reference", n_ugs), &orch, |b, orch| {
            b.iter(|| orch.fill_scores_reference())
        });
    }
    group.finish();
}

/// Steady-state reconfiguration at 100k UGs: apply one measurement delta
/// and recompute incrementally (the arena is patched in place, not
/// repacked) vs recomputing the whole configuration from scratch.
fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale/recompute");
    group.sample_size(10);
    let n_ugs = 100_000;
    let inputs = scale_inputs(n_ugs, 42);
    let config = ScaleConfig::for_scale(Scale::Test, 42);
    let deltas = delta_stream(&config, n_ugs, PEERINGS);

    group.bench_with_input(BenchmarkId::new("incremental", n_ugs), &inputs, |b, inputs| {
        let mut orch = orchestrator_for(inputs);
        let _ = orch.compute_config_incremental(); // build the arena, once
        let mut k = 0;
        b.iter(|| {
            orch.apply_delta(deltas[k % deltas.len()].clone());
            k += 1;
            orch.compute_config_incremental()
        })
    });
    group.bench_with_input(BenchmarkId::new("full", n_ugs), &inputs, |b, inputs| {
        let mut orch = orchestrator_for(inputs);
        let mut k = 0;
        b.iter(|| {
            orch.apply_delta(deltas[k % deltas.len()].clone());
            k += 1;
            orch.compute_config_traced()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fill_layouts, bench_incremental_vs_full);

fn main() {
    benches();
    criterion::Criterion::default().configure_from_args().final_summary();
    painter_bench::emit_run_report("bench-scale");
}
