//! Million-UG scale sweep (`figures scale`, `scale.*` sections).
//!
//! The paper's deployments are small (tens of PoPs), but the
//! orchestrator's data structures claim to scale to cloud-provider UG
//! populations. This harness substantiates that claim: it sweeps a grid
//! of UG counts × peering counts × thread counts over a synthetic world
//! built from the [`TopologyConfig::scale`] generator, and on every cell
//!
//! 1. plans the cold world,
//! 2. applies a deterministic delta stream (RTT shifts, demand shifts,
//!    peering adds/removes) through [`Orchestrator::apply_delta`], and
//! 3. plans the edited world — and **fails** the run unless both
//!    [`AdvertConfig`]s are identical across every swept thread count.
//!
//! Everything in the `scale.*` report sections is a pure function of the
//! config (CI byte-compares two same-seed runs). Wall-clock figures for
//! the same worlds are `plan-cold-100k` / `replan-delta-100k` in `perf/`.

use crate::scenario::Scale;
use painter_bgp::AdvertConfig;
use painter_core::{
    Delta, MeasurementDelta, Orchestrator, OrchestratorConfig, OrchestratorInputs, TopologyDelta,
    UgView,
};
use painter_geo::{metro, one_way_ms, GeoPoint, MetroId, WORLD_METROS};
use painter_measure::{build_user_groups, UgId, UserGroup};
use painter_obs::{Fnv1a, Section};
use painter_topology::{generate, PeeringId, TopologyConfig};

/// Knobs for one [`run_scale`] sweep.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Master seed: stub population, candidate wiring, and the delta
    /// stream all derive from it.
    pub seed: u64,
    /// UG populations to sweep (ascending).
    pub ug_counts: Vec<usize>,
    /// Peering counts to sweep.
    pub peering_counts: Vec<usize>,
    /// Thread counts to sweep; the computed configuration must be
    /// identical at every one.
    pub thread_counts: Vec<usize>,
    /// PoPs the synthetic peerings round-robin over (placed at the
    /// heaviest world metros).
    pub pops: usize,
    /// Greedy prefix budget per cell.
    pub prefix_budget: usize,
    /// `min_marginal_benefit` as a fraction of the cell's total possible
    /// benefit — an absolute threshold would not transfer across UG
    /// populations spanning two orders of magnitude.
    pub min_marginal_frac: f64,
    /// Deltas applied between the cold and the post-delta computation.
    pub deltas: usize,
    /// Candidacies a synthetic `AddPeering` delta carries.
    pub add_candidates: usize,
}

impl ScaleConfig {
    /// Scale-appropriate defaults. Test keeps the sweep CI-sized but
    /// still reaches a 10^5-UG cell (run in release); Paper stretches to
    /// 10^6 UGs and thousands of peerings.
    ///
    /// A cell's cost is roughly `committed pairs x total candidacies`
    /// (the lazy greedy rescores the whole frontier per commit), so the
    /// presets bound the pair count through the budget and the marginal
    /// threshold: Test commits a couple dozen pairs per cell, keeping a
    /// 10^5-UG cell at seconds on one CPU.
    pub fn for_scale(scale: Scale, seed: u64) -> ScaleConfig {
        let (ug_counts, peering_counts, thread_counts) = match scale {
            Scale::Test | Scale::Soak => (vec![10_000, 100_000], vec![16, 48], vec![1, 2]),
            Scale::Paper => (vec![100_000, 1_000_000], vec![1_024, 4_096], vec![1, 4, 8]),
        };
        let (prefix_budget, min_marginal_frac) = match scale {
            Scale::Test | Scale::Soak => (4, 2e-2),
            Scale::Paper => (8, 1e-2),
        };
        ScaleConfig {
            seed,
            ug_counts,
            peering_counts,
            thread_counts,
            pops: 24,
            prefix_budget,
            min_marginal_frac,
            deltas: 32,
            add_candidates: 16,
        }
    }
}

/// One swept cell: deterministic facts only.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    pub n_ugs: usize,
    pub n_peerings: usize,
    pub threads: usize,
    /// Total (UG, peering) candidacies in the cell's inputs.
    pub candidacies: usize,
    /// Cold full computation: prefixes used, pairs, config digest.
    pub cold_prefixes: usize,
    pub cold_pairs: usize,
    pub cold_fnv: u64,
    /// Post-delta computation.
    pub incr_prefixes: usize,
    pub incr_pairs: usize,
    pub incr_fnv: u64,
    /// Modeled benefit of the post-delta configuration.
    pub incr_benefit: f64,
    /// Deltas applied between the two computations.
    pub deltas: usize,
}

impl CellOutcome {
    /// The `<ug>x<peer>x<thr>` label of the report section.
    pub fn label(&self) -> String {
        format!("{}x{}x{}", self.n_ugs, self.n_peerings, self.threads)
    }

    /// The `scale.cell.<ug>x<peer>x<thr>` report section.
    pub fn section(&self) -> Section {
        Section::new(format!("scale.cell.{}", self.label()))
            .field("ugs", self.n_ugs)
            .field("peerings", self.n_peerings)
            .field("threads", self.threads)
            .field("candidacies", self.candidacies)
            .field("cold_prefixes", self.cold_prefixes)
            .field("cold_pairs", self.cold_pairs)
            .field("cold_fnv", self.cold_fnv)
            .field("incr_prefixes", self.incr_prefixes)
            .field("incr_pairs", self.incr_pairs)
            .field("incr_fnv", self.incr_fnv)
            .field("incr_benefit", self.incr_benefit)
            .field("deltas", self.deltas)
    }
}

/// One finished scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    pub scale: Scale,
    pub config: ScaleConfig,
    pub cells: Vec<CellOutcome>,
}

impl ScaleRun {
    /// The run as `scale.*` sections: config first, then one per cell in
    /// sweep order. Everything here is a pure function of the config.
    pub fn sections(&self) -> Vec<Section> {
        let join = |xs: &[usize]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",");
        let mut out = vec![Section::new("scale.config")
            .field("seed", self.config.seed)
            .field("ug_counts", join(&self.config.ug_counts))
            .field("peering_counts", join(&self.config.peering_counts))
            .field("thread_counts", join(&self.config.thread_counts))
            .field("pops", self.config.pops)
            .field("prefix_budget", self.config.prefix_budget)
            .field("min_marginal_frac", self.config.min_marginal_frac)
            .field("deltas", self.config.deltas)
            .field("add_candidates", self.config.add_candidates)];
        out.extend(self.cells.iter().map(CellOutcome::section));
        out
    }
}

/// Runs the full sweep; errors if any two thread counts disagree on a
/// cell's cold or post-delta configuration.
pub fn run_scale(scale: Scale, config: ScaleConfig) -> Result<ScaleRun, String> {
    if config.thread_counts.is_empty() || config.pops == 0 {
        return Err("scale sweep needs at least one thread count and one pop".to_string());
    }
    let mut cells = Vec::new();
    for &n_ugs in &config.ug_counts {
        let world = generate(TopologyConfig::scale(config.seed, n_ugs));
        let ugs = build_user_groups(&world, config.seed);
        for &n_peerings in &config.peering_counts {
            let inputs = synthesize_inputs(&config, &ugs, n_peerings);
            let deltas = delta_stream(&config, n_ugs, n_peerings);
            let mut first_of_sweep: Option<(u64, u64)> = None;
            for &threads in &config.thread_counts {
                let cell = run_cell(&config, &inputs, &deltas, threads);
                match first_of_sweep {
                    None => first_of_sweep = Some((cell.cold_fnv, cell.incr_fnv)),
                    Some(expect) if expect != (cell.cold_fnv, cell.incr_fnv) => {
                        return Err(format!(
                            "cell {}: configuration differs across thread counts",
                            cell.label()
                        ));
                    }
                    Some(_) => {}
                }
                cells.push(cell);
            }
        }
    }
    Ok(ScaleRun { scale, config, cells })
}

/// One cell: cold plan, delta stream, post-delta plan.
fn run_cell(
    config: &ScaleConfig,
    inputs: &OrchestratorInputs,
    deltas: &[Delta],
    threads: usize,
) -> CellOutcome {
    let orch_config = OrchestratorConfig {
        prefix_budget: config.prefix_budget,
        threads: Some(threads),
        min_marginal_benefit: config.min_marginal_frac * inputs.total_possible_benefit(),
        ..Default::default()
    };
    let mut orch = Orchestrator::new(inputs.clone(), orch_config);
    let cold_config = orch.compute_config();
    for delta in deltas {
        orch.apply_delta(delta.clone());
    }
    let (incr_config, incr_trace) = orch.compute_config_traced();
    CellOutcome {
        n_ugs: inputs.ugs.len(),
        n_peerings: inputs.peering_count,
        threads,
        candidacies: inputs.ugs.iter().map(|u| u.candidates.len()).sum(),
        cold_prefixes: cold_config.prefix_count(),
        cold_pairs: cold_config.pair_count(),
        cold_fnv: advert_fnv(&cold_config),
        incr_prefixes: incr_config.prefix_count(),
        incr_pairs: incr_config.pair_count(),
        incr_fnv: advert_fnv(&incr_config),
        incr_benefit: incr_trace.after_each_prefix.last().map_or(0.0, |&(_, b)| b),
        deltas: deltas.len(),
    }
}

/// Synthesizes orchestrator inputs over the generated stub population:
/// `n_peerings` peerings round-robin over the `config.pops` heaviest
/// world metros, each UG gets 2–5 hash-chosen candidate peerings with
/// distance-derived believed latencies, and an anycast latency a hashed
/// few milliseconds above its best candidate.
pub fn synthesize_inputs(
    config: &ScaleConfig,
    ugs: &[UserGroup],
    n_peerings: usize,
) -> OrchestratorInputs {
    let pop_metros = heaviest_metros(config.pops);
    let pop_points: Vec<GeoPoint> = pop_metros.iter().map(|&m| metro(m).point()).collect();
    let peering_pop: Vec<usize> = (0..n_peerings).map(|i| i % pop_points.len()).collect();

    let mut views = Vec::with_capacity(ugs.len());
    let mut ug_pop_km = Vec::with_capacity(ugs.len());
    for (u, ug) in ugs.iter().enumerate() {
        let here = metro(ug.metro).point();
        let pop_km: Vec<f64> = pop_points.iter().map(|p| here.haversine_km(p)).collect();
        let u64u = u as u64;
        let degree = 2 + (h64(&[config.seed, 0xDE6, u64u]) % 4) as usize;
        let hp = h64(&[config.seed, 0xF1C4, u64u]);
        let start = (hp % n_peerings as u64) as usize;
        let stride = 1 + ((hp >> 17) % (n_peerings.max(2) - 1) as u64) as usize;
        let mut candidates: Vec<(PeeringId, f64)> = (0..degree)
            .map(|k| {
                let pe = (start + k * stride) % n_peerings;
                let jitter = (h64(&[config.seed, 0x1A7, u64u, pe as u64]) % 1200) as f64 / 100.0;
                let ms = 2.0 * one_way_ms(pop_km[peering_pop[pe]]) + 4.0 + jitter + ug.last_mile_ms;
                (PeeringId(pe as u32), ms)
            })
            .collect();
        candidates.sort_by_key(|&(p, _)| p);
        candidates.dedup_by_key(|&mut (p, _)| p);
        let best = candidates.iter().map(|&(_, l)| l).fold(f64::INFINITY, f64::min);
        let anycast_ms = best + 1.0 + (h64(&[config.seed, 0xA2C, u64u]) % 1600) as f64 / 100.0;
        views.push(UgView {
            id: ug.id,
            metro: ug.metro,
            weight: ug.weight,
            anycast_ms,
            candidates,
        });
        ug_pop_km.push(pop_km);
    }
    OrchestratorInputs {
        ugs: views,
        ug_pop_km,
        peering_pop,
        peering_count: n_peerings,
        capacities: None,
    }
}

/// The `config.pops` heaviest world metros (ties by id), the synthetic
/// deployment's PoP sites.
fn heaviest_metros(pops: usize) -> Vec<MetroId> {
    let mut ids: Vec<u16> = (0..WORLD_METROS.len() as u16).collect();
    ids.sort_by(|&a, &b| {
        let (wa, wb) = (WORLD_METROS[a as usize].weight, WORLD_METROS[b as usize].weight);
        wb.partial_cmp(&wa).expect("finite metro weight").then(a.cmp(&b))
    });
    ids.truncate(pops.min(ids.len()));
    ids.into_iter().map(MetroId).collect()
}

/// The deterministic delta stream of one `(ug_count, peering_count)`
/// sweep — identical for every thread count, so their post-delta
/// configurations are comparable.
pub fn delta_stream(config: &ScaleConfig, n_ugs: usize, n_peerings: usize) -> Vec<Delta> {
    (0..config.deltas)
        .map(|k| {
            let h = h64(&[config.seed, 0xDE17A, n_ugs as u64, n_peerings as u64, k as u64]);
            let ug = UgId(((h >> 8) % n_ugs as u64) as u32);
            let peering = PeeringId(((h >> 40) % n_peerings as u64) as u32);
            match h % 4 {
                0 => MeasurementDelta::RttShift {
                    ug,
                    peering,
                    ms: 10.0 + ((h >> 16) % 700) as f64 / 10.0,
                }
                .into(),
                1 => MeasurementDelta::DemandShift {
                    ug,
                    weight: 0.25 + ((h >> 16) % 1000) as f64 / 125.0,
                }
                .into(),
                2 => TopologyDelta::RemovePeering { peering }.into(),
                _ => TopologyDelta::AddPeering {
                    peering,
                    candidates: (0..config.add_candidates)
                        .map(|j| {
                            let g = h64(&[h, j as u64]);
                            (
                                UgId((g % n_ugs as u64) as u32),
                                15.0 + ((g >> 32) % 600) as f64 / 10.0,
                            )
                        })
                        .collect(),
                }
                .into(),
            }
        })
        .collect()
}

/// Order-sensitive digest of an advertisement configuration.
fn advert_fnv(config: &AdvertConfig) -> u64 {
    let mut h = Fnv1a::new();
    for (prefix, peerings) in config.iter() {
        h.update(&u64::from(prefix.0).to_le_bytes());
        for p in peerings {
            h.update(&u64::from(p.0).to_le_bytes());
        }
    }
    h.finish()
}

/// FNV-1a over a word sequence.
fn h64(parts: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for p in parts {
        h.update(&p.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-build-sized sweep: the schema and thread invariance are
    /// what is under test, not the cell sizes.
    fn tiny(seed: u64) -> ScaleConfig {
        ScaleConfig {
            ug_counts: vec![400, 900],
            peering_counts: vec![12],
            thread_counts: vec![1, 2],
            pops: 6,
            prefix_budget: 4,
            deltas: 10,
            add_candidates: 4,
            ..ScaleConfig::for_scale(Scale::Test, seed)
        }
    }

    #[test]
    fn synthetic_inputs_are_well_formed() {
        let config = tiny(3);
        let world = generate(TopologyConfig::scale(3, 400));
        let ugs = build_user_groups(&world, 3);
        let inputs = synthesize_inputs(&config, &ugs, 12);
        assert_eq!(inputs.ugs.len(), 400);
        assert_eq!(inputs.peering_count, 12);
        assert_eq!(inputs.peering_pop.len(), 12);
        for u in &inputs.ugs {
            assert!(!u.candidates.is_empty() && u.candidates.len() <= 5);
            assert!(u.candidates.windows(2).all(|w| w[0].0 < w[1].0), "sorted, deduped");
            let best = u.best_candidate_ms().unwrap();
            assert!(u.anycast_ms > best, "anycast leaves improvement room");
        }
        assert!(inputs.total_possible_benefit() > 0.0);
    }

    #[test]
    fn tiny_sweep_is_deterministic_and_covers_every_cell() {
        let config = tiny(5);
        let expected =
            config.ug_counts.len() * config.peering_counts.len() * config.thread_counts.len();
        let a = run_scale(Scale::Test, config).expect("sweep a");
        let b = run_scale(Scale::Test, tiny(5)).expect("sweep b");
        assert_eq!(a.cells.len(), expected);
        // run_scale already errors on any cross-thread divergence;
        // determinism is checked by rendering.
        let render = |r: &ScaleRun| {
            let mut report = painter_obs::RunReport::new("scale");
            for s in r.sections() {
                report.push_section(s);
            }
            report.to_json()
        };
        assert_eq!(render(&a), render(&b));
        // The delta stream actually perturbs the plan somewhere in the
        // sweep — otherwise the post-delta digests prove nothing.
        assert!(
            a.cells.iter().any(|c| c.cold_fnv != c.incr_fnv),
            "deltas never changed any configuration"
        );
    }
}
