//! Golden plan digests: the greedy's output on four seed-built worlds,
//! pinned at `to_bits` resolution.
//!
//! The scoring path's refactoring contract is "no digest may move" — a
//! rescore that skips, reorders or approximates a single float term shows
//! up here as a changed digest, without the benchmark. The worlds are
//! hash-built (no RNG): hashed UG populations fed through the scale
//! sweep's `synthesize_inputs`, so candidates sit anywhere among 24
//! world-wide PoPs and `D_reuse` anchors move at almost every commit.
//! Values were taken at the commit before the anchor-aware rescore
//! (PR 14) and must only ever change together with an explained diff.

use painter::core::{Orchestrator, OrchestratorConfig};
use painter::eval::scale::{synthesize_inputs, ScaleConfig};
use painter::eval::Scale;
use painter::geo::{MetroId, WORLD_METROS};
use painter::measure::{UgId, UserGroup};
use painter::obs::Fnv1a;
use painter::topology::AsId;

fn h64(parts: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for p in parts {
        h.update(&p.to_le_bytes());
    }
    h.finish()
}

/// The orchestrator of one golden world; `learned` facts (dominance and
/// dark marks over hashed candidate pairs) push scoring onto
/// `mean_latency`'s slow path.
fn orchestrator(seed: u64, n_ugs: usize, n_peerings: usize, learned: usize) -> Orchestrator {
    let ugs: Vec<UserGroup> = (0..n_ugs as u64)
        .map(|u| UserGroup {
            id: UgId(u as u32),
            asn: AsId(u as u32),
            metro: MetroId((h64(&[seed, 1, u]) % WORLD_METROS.len() as u64) as u16),
            weight: 0.1 + (h64(&[seed, 2, u]) % 990) as f64 / 100.0,
            last_mile_ms: 2.0 + (h64(&[seed, 3, u]) % 100) as f64 / 10.0,
        })
        .collect();
    let scale = ScaleConfig::for_scale(Scale::Test, seed);
    let inputs = synthesize_inputs(&scale, &ugs, n_peerings);
    let config = OrchestratorConfig {
        prefix_budget: scale.prefix_budget,
        min_marginal_benefit: 2e-3 * inputs.total_possible_benefit(),
        ..Default::default()
    };
    let mut orch = Orchestrator::new(inputs, config);
    for k in 0..learned as u64 {
        let h = h64(&[seed, 4, k]);
        let ug = &orch.inputs.ugs[(h % n_ugs as u64) as usize];
        let pick = |salt: u64| ug.candidates[((h >> salt) % ug.candidates.len() as u64) as usize].0;
        if k % 5 == 0 {
            orch.model.mark_unreachable(ug.id, pick(16));
        } else {
            orch.model.learn_dominance(ug.id, pick(16), pick(40));
        }
    }
    orch
}

/// FNV-1a over the plan's pairs and the benefit curve's float bits.
fn plan_digest(orch: &Orchestrator) -> String {
    let (config, trace) = orch.compute_config_traced();
    assert!(config.pair_count() > config.prefix_count(), "degenerate world: no prefix reuse");
    let mut h = Fnv1a::new();
    for (prefix, peerings) in config.iter() {
        h.update(&u64::from(prefix.0).to_le_bytes());
        for p in peerings {
            h.update(&u64::from(p.0).to_le_bytes());
        }
    }
    for &(k, benefit) in &trace.after_each_prefix {
        h.update(&(k as u64).to_le_bytes());
        h.update(&benefit.to_bits().to_le_bytes());
    }
    format!("{:016x}", h.finish())
}

#[test]
fn plan_digests_match_the_pinned_goldens() {
    // (seed, UGs, peerings, learned facts) → digest.
    let goldens = [
        ((1, 2_000, 16, 0), "a0e58ed3430bb7c0"),
        ((2, 3_000, 48, 0), "7f51a80bc43aa38b"),
        ((3, 1_200, 24, 0), "2d8f321efd7b8abc"),
        ((4, 1_500, 24, 600), "22fb5a632a5a0365"),
    ];
    let got: Vec<String> = goldens
        .iter()
        .map(|&((seed, n_ugs, n_peerings, learned), _)| {
            plan_digest(&orchestrator(seed, n_ugs, n_peerings, learned))
        })
        .collect();
    let want: Vec<&str> = goldens.iter().map(|&(_, digest)| digest).collect();
    assert_eq!(got, want, "a plan digest moved: the scoring path is no longer bit-identical");
}
