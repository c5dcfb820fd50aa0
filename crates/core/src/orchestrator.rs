//! Algorithm 1: greedy advertisement selection with learning.
//!
//! The inner greedy allocates each prefix in the budget to as many
//! peerings as keep marginal benefit positive (prefix reuse), considering
//! peerings in order of estimated improvement (Eq. 2 under the routing
//! model). The outer loop advertises the configuration through an
//! [`AdvertEnvironment`], observes where each UG actually landed, and
//! folds the observations back into the routing model (ingress-preference
//! dominance) and the believed latencies (compliance/latency corrections),
//! so each iteration "tends to yield greater benefits with fewer
//! prefixes" (§3.1).
//!
//! Complexity matches the paper's description: quadratic in ingresses in
//! the worst case, but fast in practice because each UG has paths via a
//! small fraction of ingresses — a rescore revisits the candidate
//! peering's own UGs, plus those the prefix already serves whose
//! `D_reuse` anchor the new PoP really moves past a candidate.
//!
//! # Parallel execution
//!
//! Candidate scoring — the compute-bound inner loop — fans out over a
//! [`rayon`] pool owned by the [`Orchestrator`] (sized by
//! [`OrchestratorConfig::threads`], `PAINTER_THREADS`, or all cores; see
//! [`crate::parallel`]). The determinism contract is strict: **output is
//! bit-identical at every thread count**, because parallel sections only
//! evaluate pure scores, every reduction folds in source order, and ties
//! break on the total `(delta, peering id)` order — never on scheduling.

use crate::arena::BenefitArena;
use crate::benefit::{BenefitRange, ConfigEvaluator};
use crate::incremental::{self, Delta, UgIndex};
use crate::inputs::OrchestratorInputs;
use crate::model::{RoutingModel, UgFacts};
use crate::parallel;
use painter_bgp::{AdvertConfig, PrefixId};
use painter_measure::{GroundTruth, Pinger, UgId};
use painter_obs::{obs_count, obs_gauge};
use painter_topology::PeeringId;
use rayon::prelude::*;
use std::collections::HashMap;

/// Hyperparameters of Algorithm 1.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Prefix budget `PB`.
    pub prefix_budget: usize,
    /// Minimum reuse distance `D_reuse` in km.
    pub d_reuse_km: f64,
    /// Maximum advertise→measure→learn iterations.
    pub max_iterations: usize,
    /// Stop growing a prefix when the best marginal benefit (weighted ms)
    /// falls to or below this.
    pub min_marginal_benefit: f64,
    /// Stop learning when the measured benefit improves by less than this
    /// fraction between iterations.
    pub convergence_threshold: f64,
    /// Worker threads for parallel candidate scoring. `None` defers to the
    /// `PAINTER_THREADS` environment variable, then to all available
    /// cores. The computed configuration is bit-identical at every
    /// setting; this only changes how fast it arrives.
    pub threads: Option<usize>,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            prefix_budget: 10,
            d_reuse_km: 3000.0,
            max_iterations: 4,
            min_marginal_benefit: 1e-9,
            convergence_threshold: 0.01,
            threads: None,
        }
    }
}

/// What the measurement system observed after conducting an
/// advertisement: per (UG, prefix), the ingress the UG landed at and the
/// measured latency; `None` if the UG had no route to the prefix.
#[derive(Debug, Clone, Default)]
pub struct Observations {
    pub landed: Vec<Observation>,
}

/// One observation row: `(ug, prefix, landed ingress+latency)`.
pub type Observation = (UgId, PrefixId, Option<(PeeringId, f64)>);

/// Something that can conduct a BGP advertisement and measure the result —
/// the real Internet in the paper, the ground-truth oracle here.
pub trait AdvertEnvironment {
    /// Conducts `config` and returns observations for every UG.
    fn execute(&mut self, config: &AdvertConfig) -> Observations;
}

/// Environment backed by the simulation's ground truth, optionally with
/// ping noise (min-of-7 measurements of the true latency).
pub struct GroundTruthEnv<'g, 'a> {
    gt: &'g mut GroundTruth<'a>,
    ug_ids: Vec<UgId>,
    pinger: Option<Pinger>,
}

impl<'g, 'a> GroundTruthEnv<'g, 'a> {
    /// Noise-free environment observing the given UGs.
    pub fn new(gt: &'g mut GroundTruth<'a>, ug_ids: Vec<UgId>) -> Self {
        GroundTruthEnv { gt, ug_ids, pinger: None }
    }

    /// Adds min-of-7 ping noise to every observation.
    pub fn with_noise(mut self, seed: u64) -> Self {
        self.pinger = Some(Pinger::new(seed));
        self
    }
}

impl AdvertEnvironment for GroundTruthEnv<'_, '_> {
    fn execute(&mut self, config: &AdvertConfig) -> Observations {
        let mut obs = Observations::default();
        for (prefix, peerings) in config.iter() {
            for &ug in &self.ug_ids {
                let landed = self.gt.route_under(peerings, ug).map(|(ingress, lat)| {
                    let lat = match &mut self.pinger {
                        Some(p) => p.measure(lat).unwrap_or(lat),
                        None => lat,
                    };
                    (ingress, lat)
                });
                obs.landed.push((ug, prefix, landed));
            }
        }
        obs
    }
}

/// Per-iteration diagnostics of the learning loop.
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// The configuration computed this iteration.
    pub config: AdvertConfig,
    /// Modeled benefit range before advertising (the shaded region of
    /// Fig. 6c is `upper - lower`).
    pub modeled: BenefitRange,
    /// Measured weighted benefit after advertising (Eq. 1 with real
    /// outcomes).
    pub measured_benefit: f64,
    /// Measured mean improvement (ms) over UGs that improved.
    pub measured_mean_improvement_ms: f64,
    /// Dominance facts learned from this iteration's observations.
    pub newly_learned: usize,
}

/// The outcome of [`Orchestrator::run`].
#[derive(Debug, Clone)]
pub struct OrchestratorReport {
    pub iterations: Vec<IterationStats>,
    pub final_config: AdvertConfig,
    /// Telemetry snapshot taken as `run()` returned (empty under
    /// `obs-off`). Carries the per-iteration detail the stats rows
    /// summarize — greedy benefit deltas, budget utilization, learning
    /// counters — under the `core.*` metric names.
    pub obs: painter_obs::Snapshot,
}

/// Cumulative modeled benefit after each completed prefix of a greedy
/// run: `(prefixes used, Σ w · improvement)`.
///
/// `PartialEq` compares exactly (no epsilon): the determinism and
/// incremental-equivalence contracts are bit-level, so their tests
/// compare traces with `==`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GreedyTrace {
    pub after_each_prefix: Vec<(usize, f64)>,
}

/// Priority-queue entry for the lazy greedy.
///
/// The ordering is total over `(delta, pe)` (peering ids are unique in
/// the queue), so the heap's pop sequence is a function of its contents
/// alone — equal-benefit candidates commit lowest-peering-first no matter
/// what order parallel scoring delivered them in.
#[derive(Debug)]
struct CandEntry {
    delta: f64,
    version: u64,
    pe: PeeringId,
}

impl PartialEq for CandEntry {
    fn eq(&self, other: &Self) -> bool {
        // Bit equality, consistent with the `total_cmp`-based `Ord` even
        // for NaN — `==` over f64 is not (NaN != NaN), which would make
        // `Eq` a lie and heap behavior unspecified.
        self.delta.to_bits() == other.delta.to_bits() && self.pe == other.pe
    }
}
impl Eq for CandEntry {}
impl PartialOrd for CandEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CandEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap by delta; ties broken toward lower peering id for
        // determinism. `total_cmp` (IEEE 754 totalOrder) keeps the order
        // total even for NaN — the fill's benefit threshold keeps NaN out
        // of the heap, but the ordering must not be able to panic or
        // reorder commits if a score ever degrades.
        self.delta.total_cmp(&other.delta).then_with(|| other.pe.cmp(&self.pe))
    }
}

/// Running state of one greedy pass: what the finished prefixes already
/// give each UG, and — for the prefix being filled — its mean plus the
/// aggregates that let a rescore skip every UG the new peering cannot move
/// ([`Orchestrator::anchor_hits`]). Written only in the serial commit
/// section; scoring tasks read it.
struct GreedyState<'m> {
    /// What the model has learned about each UG
    /// ([`BenefitArena::resolve_facts`]) — resolved once per run, so scoring
    /// never hashes and a UG with no facts never pays for another's.
    facts: Vec<Option<&'m UgFacts>>,
    /// `anycast ∧ mean under every finished prefix` — the `min` a new
    /// prefix has to beat. `min` over finite floats is exact, so folding
    /// prefixes in as they close equals re-folding them per score.
    closed_best: Vec<f64>,
    /// Mean under the open prefix's committed set; `INFINITY` = unusable
    /// (the identity of the `min` it feeds).
    cur_mean: Vec<f64>,
    /// km to the closest advertised PoP, the `D_reuse` anchor. Exact for
    /// every UG the open prefix touches, meaningless elsewhere.
    d_min: Vec<f64>,
    /// km to the farthest advertised *candidate*; `-INFINITY` = untouched.
    adv_max_km: Vec<f64>,
    /// Lowest committed peering that has the UG as a candidate — the row
    /// a walk over the committed rows first meets it in; `u32::MAX` =
    /// untouched.
    first_pe: Vec<u32>,
    /// The touched UGs with `adv_max_km > d_reuse_km` — the only ones a
    /// new anchor can evict a candidate from — in that walk's order
    /// (committed peerings ascending, each row ascending, first visit).
    anchor_sensitive: Vec<u32>,
}

impl<'m> GreedyState<'m> {
    fn new(arena: &BenefitArena, model: &'m RoutingModel) -> Self {
        let n = arena.n_ugs();
        GreedyState {
            facts: arena.resolve_facts(model),
            closed_best: (0..n).map(|u| arena.anycast_ms(u)).collect(),
            cur_mean: vec![f64::INFINITY; n],
            d_min: vec![f64::INFINITY; n],
            adv_max_km: vec![f64::NEG_INFINITY; n],
            first_pe: vec![u32::MAX; n],
            anchor_sensitive: Vec::new(),
        }
    }

    /// Folds the finished prefix into `closed_best` and opens an empty one.
    fn close_prefix(&mut self) {
        for (best, mean) in self.closed_best.iter_mut().zip(&self.cur_mean) {
            *best = best.min(*mean);
        }
        self.cur_mean.fill(f64::INFINITY);
        self.d_min.fill(f64::INFINITY);
        self.adv_max_km.fill(f64::NEG_INFINITY);
        self.first_pe.fill(u32::MAX);
        self.anchor_sensitive.clear();
    }
}

/// The Advertisement Orchestrator.
pub struct Orchestrator {
    pub config: OrchestratorConfig,
    pub inputs: OrchestratorInputs,
    pub model: RoutingModel,
    /// Telemetry registry (`core.*` metrics). [`Orchestrator::new`] makes
    /// a private one; share a registry across subsystems with
    /// [`Orchestrator::with_obs`].
    pub obs: painter_obs::Registry,
    /// Scoring pool, sized by [`OrchestratorConfig::threads`] at
    /// construction (see [`crate::parallel`] for the resolution order and
    /// the determinism contract).
    pub pool: rayon::ThreadPool,
    /// Where [`Orchestrator::apply_delta`] finds a UG in `inputs.ugs`.
    ug_index: UgIndex,
}

impl Orchestrator {
    /// Creates an orchestrator with a fresh routing model.
    pub fn new(inputs: OrchestratorInputs, config: OrchestratorConfig) -> Self {
        Self::with_obs(inputs, config, painter_obs::Registry::new())
    }

    /// Like [`Orchestrator::new`], recording telemetry into `obs` (cheap
    /// handle; clones share the underlying metrics).
    pub fn with_obs(
        inputs: OrchestratorInputs,
        config: OrchestratorConfig,
        obs: painter_obs::Registry,
    ) -> Self {
        let model = RoutingModel::new(config.d_reuse_km);
        let pool = parallel::build_pool(config.threads);
        Orchestrator { config, inputs, model, obs, pool, ug_index: UgIndex::default() }
    }

    /// One pass of the greedy allocator (Algorithm 1's inner loops) under
    /// the current routing model.
    pub fn compute_config(&self) -> AdvertConfig {
        self.compute_config_traced().0
    }

    /// Like [`Orchestrator::compute_config`], but also records the modeled
    /// (Mean) benefit after each prefix completes — so one greedy run at
    /// the full budget yields the entire benefit-vs-budget curve, since
    /// the configuration for budget `k` is exactly the first `k` prefixes.
    ///
    /// Candidate peerings are evaluated lazily (CELF-style): cached
    /// marginal benefits are only recomputed when a candidate reaches the
    /// top of the priority queue, which keeps the allocator fast even with
    /// thousands of ingresses. One cold pass over a [`BenefitArena`] packed
    /// from `inputs` for this call: no state is carried between calls.
    pub fn compute_config_traced(&self) -> (AdvertConfig, GreedyTrace) {
        let arena = &BenefitArena::from_inputs(&self.inputs);
        let _span = painter_obs::Span::enter(&self.obs, "core.greedy_compute_ms");
        let delta_hist = self.obs.histogram("core.greedy_benefit_delta");
        // Speculation width of the rescore prefetch below: one candidate
        // per pool worker. A speculative score is thrown away at the next
        // commit, so it is only worth computing on a worker that would
        // otherwise idle; on a one-thread pool the loop is the plain
        // one-at-a-time lazy greedy.
        let width = self.pool.current_num_threads();
        obs_gauge!(self.obs, "core.greedy_threads", width as f64);
        let n_pe = arena.n_peerings();
        let pb = self.config.prefix_budget;
        let mut st = GreedyState::new(arena, &self.model);
        obs_gauge!(self.obs, "core.greedy_fact_ugs", st.facts.iter().flatten().count() as f64);
        // Running modeled benefit: Σ w · (anycast − best)⁺.
        let mut running_benefit = 0.0;
        let mut cc = AdvertConfig::new();
        let mut trace = GreedyTrace::default();

        for p_idx in 0..pb {
            let prefix = PrefixId(p_idx as u16);
            let mut added_any = false;
            // Lazy-greedy queue: (cached delta, version-at-caching, pe).
            // Deltas only shrink as the set grows (approximately), so a
            // stale cached value is an upper bound worth re-checking only
            // at the top.
            let mut version = 0u64;
            // Initial fill: one score per peering slot (NaN = empty
            // incidence, never scored), every slot in parallel (pure
            // reads of `self` and the caches). The heap's (delta, peering
            // id) order is total, so the pop sequence doesn't depend on
            // which worker scored what.
            obs_count!(self.obs, "core.parallel_tasks", n_pe as u64);
            let scores: Vec<f64> = self.pool.install(|| {
                (0..n_pe).into_par_iter().map(|pe| self.fill_score(arena, &st, pe)).collect()
            });
            // NaN fails the benefit threshold, so unscored slots stay out
            // of the heap without a separate check.
            let mut heap: std::collections::BinaryHeap<CandEntry> = (0..n_pe)
                .filter(|&pe| scores[pe] > self.config.min_marginal_benefit)
                .map(|pe| CandEntry { delta: scores[pe], version, pe: PeeringId(pe as u32) })
                .collect();
            // Speculative rescore cache: between two commits, the prefix's
            // peering set and `st` are frozen, so any rescore the
            // serial algorithm would perform in that window can be
            // precomputed. Stale-top batches fill this cache in parallel;
            // the lazy loop consumes it in its ordinary pop order, so the
            // committed sequence is exactly the one-at-a-time algorithm's.
            // Invalidated (cleared) on every commit.
            let mut rescore_cache: HashMap<PeeringId, f64> = HashMap::new();
            while let Some(top) = heap.pop() {
                if top.version != version {
                    if let Some(&delta) = rescore_cache.get(&top.pe) {
                        // Prefetched earlier in this commit window.
                        if delta > self.config.min_marginal_benefit {
                            heap.push(CandEntry { delta, version, pe: top.pe });
                        }
                        continue;
                    }
                    // Pop ahead: the next stale entries (by cached value)
                    // are exactly the candidates the serial loop would
                    // rescore next if no commit intervenes, so score up to
                    // `width` of them together. All but the top go straight
                    // back with their cached values — only the cache
                    // remembers the speculative scores.
                    let mut extra: Vec<CandEntry> = Vec::new();
                    while extra.len() + 1 < width {
                        match heap.peek() {
                            Some(e)
                                if e.version != version && !rescore_cache.contains_key(&e.pe) =>
                            {
                                extra.push(heap.pop().expect("peeked entry"));
                            }
                            _ => break,
                        }
                    }
                    let to_score: Vec<PeeringId> =
                        std::iter::once(top.pe).chain(extra.iter().map(|e| e.pe)).collect();
                    obs_count!(self.obs, "core.greedy_batch_recompute", 1);
                    obs_count!(self.obs, "core.parallel_tasks", to_score.len() as u64);
                    let rescored: Vec<(PeeringId, f64)> = {
                        // The prefix's set changes only at a commit, so
                        // `cc`'s own row is the one copy of it.
                        let (st, current) = (&st, cc.peerings_of(prefix));
                        self.pool.install(|| {
                            to_score
                                .par_iter()
                                .map(|&pe| (pe, self.candidate_delta_arena(arena, pe, current, st)))
                                .collect()
                        })
                    };
                    rescore_cache.extend(rescored);
                    let delta = rescore_cache[&top.pe];
                    if delta > self.config.min_marginal_benefit {
                        heap.push(CandEntry { delta, version, pe: top.pe });
                    }
                    for e in extra {
                        heap.push(e);
                    }
                    continue;
                }
                // Fresh top candidate: commit it. The cached speculative
                // scores were computed against the pre-commit set, so they
                // die here.
                rescore_cache.clear();
                self.commit_arena(arena, &mut st, &mut cc, prefix, top.pe);
                version += 1;
                added_any = true;
                running_benefit += top.delta;
                delta_hist.record(top.delta);
            }
            if !added_any {
                // No peering adds benefit from a fresh prefix; later
                // prefixes would see the identical state.
                break;
            }
            st.close_prefix();
            trace.after_each_prefix.push((p_idx + 1, running_benefit));
        }
        // Gauges mirror this greedy run (bit-identical to the trace, see
        // the agreement test); the pair counter accumulates across runs.
        obs_count!(self.obs, "core.greedy_pairs_total", cc.pair_count() as u64);
        obs_gauge!(self.obs, "core.greedy_modeled_benefit", running_benefit);
        obs_gauge!(self.obs, "core.greedy_prefixes_used", trace.after_each_prefix.len() as f64);
        obs_gauge!(self.obs, "core.prefix_budget", pb as f64);
        if pb > 0 {
            obs_gauge!(
                self.obs,
                "core.prefix_budget_utilization",
                trace.after_each_prefix.len() as f64 / pb as f64
            );
        }
        (cc, trace)
    }

    /// Applies one world delta to `inputs` — and to nothing else, so the
    /// next compute plans the edited world like any other.
    ///
    /// Accepts [`TopologyDelta`](crate::TopologyDelta),
    /// [`MeasurementDelta`](crate::MeasurementDelta), or [`Delta`]
    /// directly. Rows naming unknown UGs are ignored, rows carrying a
    /// negative or non-finite latency or weight are dropped and counted
    /// in `core.delta_rejected_total`; `TopologyDelta::AddPeering` panics
    /// if the peering slot is outside the deployment (`peering_count` is
    /// the world's fixed width).
    pub fn apply_delta(&mut self, delta: impl Into<Delta>) {
        let rejected =
            incremental::apply_to_inputs(&mut self.inputs, &delta.into(), &mut self.ug_index);
        if rejected > 0 {
            obs_count!(self.obs, "core.delta_rejected_total", rejected);
        }
    }

    /// [`Orchestrator::compute_config_traced`] under the name the frozen
    /// `perf/` package calls it by; nothing is kept between plans.
    pub fn compute_config_incremental(&mut self) -> (AdvertConfig, GreedyTrace) {
        self.compute_config_traced()
    }

    /// Incremental reconfiguration (§5.1.3): refines a *deployed*
    /// configuration instead of recomputing from scratch, so the install
    /// diff — and with it BGP churn and route-flap exposure — stays small.
    ///
    /// Two passes under the current routing model:
    ///
    /// 1. **Prune**: drop any `(prefix, peering)` pair whose removal does
    ///    not reduce modeled benefit by more than `keep_threshold`
    ///    (weighted ms) — stale pairs from before learning corrected the
    ///    model.
    /// 2. **Grow**: resume the lazy greedy from the pruned configuration,
    ///    adding pairs with positive marginal benefit within the budget.
    ///
    /// Returns the refined configuration and the number of session
    /// operations (`installer::diff`) needed to move from `previous`.
    pub fn refine_config(
        &self,
        previous: &AdvertConfig,
        keep_threshold: f64,
    ) -> (AdvertConfig, usize) {
        // --- Pass 1: prune stale pairs.
        let evaluator = crate::benefit::ConfigEvaluator::new(&self.inputs, &self.model);
        let mut pruned = AdvertConfig::new();
        for (prefix, peerings) in previous.iter() {
            if (prefix.0 as usize) >= self.config.prefix_budget {
                continue; // budget shrank
            }
            for &pe in peerings {
                pruned.add(prefix, pe);
            }
        }
        let mut current_benefit = evaluator.benefit(&pruned);
        // Consider pairs in a stable order; re-evaluate after each removal.
        // Removal trials are scored speculatively in parallel batches
        // against the current `pruned`; the moment a removal lands, the
        // remaining speculative scores are stale, so the batch restarts
        // after it. Decisions replay the serial sequence exactly — each
        // one consumes a benefit computed against the same base the
        // serial code would use — so the result is thread-count invariant.
        let pairs: Vec<(PrefixId, PeeringId)> = pruned
            .iter()
            .flat_map(|(p, pes)| pes.iter().map(move |&pe| (p, pe)).collect::<Vec<_>>())
            .collect();
        let batch = self.pool.current_num_threads();
        let mut i = 0;
        while i < pairs.len() {
            let end = (i + batch).min(pairs.len());
            obs_count!(self.obs, "core.parallel_tasks", (end - i) as u64);
            let trial_benefits: Vec<f64> = {
                let (pairs, pruned) = (&pairs[i..end], &pruned);
                let evaluator = &evaluator;
                self.pool.install(|| {
                    pairs
                        .par_iter()
                        .map(|&(prefix, pe)| {
                            let mut trial = pruned.clone();
                            trial.remove(prefix, pe);
                            evaluator.benefit(&trial)
                        })
                        .collect()
                })
            };
            let mut next = end;
            for (k, &(prefix, pe)) in pairs[i..end].iter().enumerate() {
                let trial_benefit = trial_benefits[k];
                if current_benefit - trial_benefit <= keep_threshold {
                    pruned.remove(prefix, pe);
                    current_benefit = trial_benefit;
                    // Scores after this one were computed against the
                    // pre-removal config; rescore them next round.
                    next = i + k + 1;
                    break;
                }
            }
            i = next;
        }

        // --- Pass 2: grow greedily from the pruned base. Reuse the
        // from-scratch allocator and merge: keep every pruned pair, then
        // take the scratch allocator's additions for still-empty slots.
        // (A full warm-start greedy adds little over this at our scale and
        // keeps the hot path single.)
        let mut refined = pruned.clone();
        let (scratch, _) = self.compute_config_traced();
        for (prefix, peerings) in scratch.iter() {
            if refined.peerings_of(prefix).is_empty() {
                for &pe in peerings {
                    let mut trial = refined.clone();
                    trial.add(prefix, pe);
                    let b = evaluator.benefit(&trial);
                    if b > evaluator.benefit(&refined) + self.config.min_marginal_benefit {
                        refined = trial;
                    }
                }
            }
        }
        let ops = crate::installer::diff(previous, &refined).len();
        (refined, ops)
    }

    /// Commits `pe` to `prefix`: refreshes `st.cur_mean` for the UGs the
    /// commit can move — `pe`'s row plus the anchor hits of the pre-commit
    /// aggregates (gathered serially, means scored in parallel, written
    /// back serially) — then folds `pe` into the aggregates.
    fn commit_arena(
        &self,
        arena: &BenefitArena,
        st: &mut GreedyState,
        cc: &mut AdvertConfig,
        prefix: PrefixId,
        pe: PeeringId,
    ) {
        let row = arena.ugs_of(pe.idx());
        let mut moved: Vec<u32> = row.to_vec();
        self.anchor_hits(arena, st, pe, |u| moved.push(u as u32));
        cc.add(prefix, pe);
        let current = cc.peerings_of(prefix);
        obs_count!(self.obs, "core.parallel_tasks", moved.len() as u64);
        obs_count!(self.obs, "core.greedy_rescored_ugs", moved.len() as u64);
        obs_count!(self.obs, "core.greedy_anchor_hits", (moved.len() - row.len()) as u64);
        let means: Vec<f64> = self.pool.install(|| {
            moved
                .par_iter()
                .map(|&u| arena.mean_latency(&self.model, &st.facts, u as usize, current))
                .collect()
        });
        for (&u, mean) in moved.iter().zip(means) {
            st.cur_mean[u as usize] = mean;
        }
        for &u in row {
            let u = u as usize;
            st.first_pe[u] = st.first_pe[u].min(pe.0);
            st.adv_max_km[u] = st.adv_max_km[u].max(arena.km_to_peering(u, pe.idx()));
            // Exact from scratch: a UG touched for the first time has
            // missed every earlier anchor update.
            st.d_min[u] = current
                .iter()
                .map(|p| arena.km_to_peering(u, p.idx()))
                .fold(f64::INFINITY, f64::min);
        }
        st.anchor_sensitive.clear();
        for p in current {
            for &u in arena.ugs_of(p.idx()) {
                if st.first_pe[u as usize] == p.0 {
                    let km = arena.km_to_peering(u as usize, pe.idx());
                    st.d_min[u as usize] = st.d_min[u as usize].min(km);
                    if st.adv_max_km[u as usize] > self.model.d_reuse_km {
                        st.anchor_sensitive.push(u);
                    }
                }
            }
        }
    }

    /// Calls `hit(u)` for every UG *outside* `pe`'s row whose mean under
    /// the open prefix can move when `pe` joins it, in the order the
    /// scoring sums are pinned to (that of `anchor_sensitive`).
    ///
    /// Such a UG keeps its advertised-candidate set; only its `D_reuse`
    /// anchor can move, and only if `pe`'s PoP is closer than `d_min`. Its
    /// mean then changes only if some advertised candidate ends up beyond
    /// `d_reuse_km` of the new anchor — impossible unless the farthest one
    /// does (`adv_max_km`, which over-approximates the in-reach set, so
    /// the test is conservative). Everything else contributes `±0.0`.
    /// `anchor_sensitive` pre-applies the same test with the anchor at
    /// 0 km (distances are non-negative), which needs no read of the
    /// distance slab.
    fn anchor_hits(
        &self,
        arena: &BenefitArena,
        st: &GreedyState,
        pe: PeeringId,
        mut hit: impl FnMut(usize),
    ) {
        for &u in &st.anchor_sensitive {
            let u = u as usize;
            let km = arena.km_to_peering(u, pe.idx());
            if km < st.d_min[u]
                && st.adv_max_km[u] - km > self.model.d_reuse_km
                && !arena.has_candidate(u, pe)
            {
                hit(u);
            }
        }
    }

    /// Initial-fill score of peering slot `pe_idx` (`NaN` = empty
    /// incidence, never scored).
    fn fill_score(&self, arena: &BenefitArena, st: &GreedyState, pe_idx: usize) -> f64 {
        if arena.ugs_of(pe_idx).is_empty() {
            return f64::NAN;
        }
        self.candidate_delta_arena(arena, PeeringId(pe_idx as u32), &[], st)
    }

    /// Marginal modeled benefit of adding `pe` to the open prefix's set
    /// `current`, reading the SoA arena.
    ///
    /// One scoring task: pure reads of `self`, the arena, and `st`, and
    /// the float fold runs serially in here — parallel callers get a
    /// single scalar back, so the association of every `+` is fixed by
    /// the data regardless of which worker ran the task. Sums the non-zero
    /// terms in the exact order of the nested-map reference path
    /// (incidence row of `pe` ascending, then each current peering's row
    /// ascending with already-counted UGs skipped); the terms
    /// [`Self::anchor_hits`] skips are `±0.0`, so the two paths are
    /// bit-identical (see `rescore_matches_reference_at_every_step`).
    fn candidate_delta_arena(
        &self,
        arena: &BenefitArena,
        pe: PeeringId,
        current: &[PeeringId],
        st: &GreedyState,
    ) -> f64 {
        let Err(pos) = current.binary_search(&pe) else { return 0.0 };
        let mut new_set = current.to_vec();
        new_set.insert(pos, pe);
        let row = arena.ugs_of(pe.idx());
        let mut delta = 0.0;
        for &u in row {
            delta += self.ug_delta_arena(arena, st, u as usize, &new_set);
        }
        let mut hits = 0u64;
        self.anchor_hits(arena, st, pe, |u| {
            hits += 1;
            delta += self.ug_delta_arena(arena, st, u, &new_set);
        });
        obs_count!(self.obs, "core.greedy_rescored_ugs", row.len() as u64 + hits);
        obs_count!(self.obs, "core.greedy_anchor_hits", hits);
        delta
    }

    /// Benefit delta (weighted improvement change) for UG `u` if the open
    /// prefix's peering set becomes `new_set`.
    fn ug_delta_arena(
        &self,
        arena: &BenefitArena,
        st: &GreedyState,
        u: usize,
        new_set: &[PeeringId],
    ) -> f64 {
        let anycast = arena.anycast_ms(u);
        let others = st.closed_best[u];
        let old_best = others.min(st.cur_mean[u]);
        let new_best = others.min(arena.mean_latency(&self.model, &st.facts, u, new_set));
        arena.weight(u) * ((anycast - new_best).max(0.0) - (anycast - old_best).max(0.0))
    }

    /// Initial (empty-config) fill scores for every peering slot through
    /// the pre-arena nested-map path — per-peering `Vec<usize>` incidence
    /// lists and a `Vec<Vec<Option<f64>>>` expectation cache. `NaN` marks
    /// slots with no incidence. Retained as the reference the SoA arena
    /// is equivalence-tested against.
    #[cfg(test)]
    fn fill_scores_reference(&self) -> Vec<f64> {
        let pb = self.config.prefix_budget;
        if pb == 0 {
            return vec![f64::NAN; self.inputs.peering_count];
        }
        let mut by_peering: Vec<Vec<usize>> = vec![Vec::new(); self.inputs.peering_count];
        for (i, ug) in self.inputs.ugs.iter().enumerate() {
            for (p, _) in &ug.candidates {
                by_peering[p.idx()].push(i);
            }
        }
        let prefix_mean: Vec<Vec<Option<f64>>> = vec![vec![None; pb]; self.inputs.ugs.len()];
        (0..self.inputs.peering_count)
            .map(|pe_idx| {
                if by_peering[pe_idx].is_empty() {
                    return f64::NAN;
                }
                self.candidate_delta(PeeringId(pe_idx as u32), &[], 0, &by_peering, &prefix_mean)
            })
            .collect()
    }

    /// The initial (empty-config) fill scores for every peering slot
    /// through the SoA arena, serially; `NaN` marks slots with no
    /// incidence. `perf/` times it as `core.fill_s`.
    pub fn fill_scores_arena(&self, arena: &BenefitArena) -> Vec<f64> {
        if self.config.prefix_budget == 0 {
            return vec![f64::NAN; arena.n_peerings()];
        }
        let st = GreedyState::new(arena, &self.model);
        (0..arena.n_peerings()).map(|pe| self.fill_score(arena, &st, pe)).collect()
    }

    /// Marginal modeled benefit through the nested-map reference path
    /// (the pre-arena hot path: every UG of every committed row
    /// re-evaluated), now feeding only
    /// [`Orchestrator::fill_scores_reference`] and the rescore oracle
    /// test.
    #[cfg(test)]
    fn candidate_delta(
        &self,
        pe: PeeringId,
        current: &[PeeringId],
        p_idx: usize,
        by_peering: &[Vec<usize>],
        prefix_mean: &[Vec<Option<f64>>],
    ) -> f64 {
        if current.binary_search(&pe).is_ok() {
            return 0.0;
        }
        let mut new_set = current.to_vec();
        let pos = new_set.binary_search(&pe).unwrap_err();
        new_set.insert(pos, pe);
        let mut delta = 0.0;
        // UGs with the new peering as a candidate...
        for &u in &by_peering[pe.idx()] {
            delta += self.ug_delta(u, p_idx, &new_set, prefix_mean);
        }
        // ...plus UGs already touched by the prefix (their D_reuse anchor
        // or candidate mix may shift) that don't have `pe`.
        let mut counted = vec![false; self.inputs.ugs.len()];
        for &u in &by_peering[pe.idx()] {
            counted[u] = true;
        }
        for p in current {
            for &u in &by_peering[p.idx()] {
                if !counted[u] {
                    counted[u] = true;
                    delta += self.ug_delta(u, p_idx, &new_set, prefix_mean);
                }
            }
        }
        delta
    }

    /// Benefit delta (weighted improvement change) for UG `u` if prefix
    /// `p_idx`'s peering set becomes `new_set`.
    #[cfg(test)]
    fn ug_delta(
        &self,
        u: usize,
        p_idx: usize,
        new_set: &[PeeringId],
        prefix_mean: &[Vec<Option<f64>>],
    ) -> f64 {
        let ug = &self.inputs.ugs[u];
        let anycast = ug.anycast_ms;
        // Best over the *other* prefixes (and anycast).
        let mut others = anycast;
        for (q, m) in prefix_mean[u].iter().enumerate() {
            if q != p_idx {
                if let Some(m) = m {
                    others = others.min(*m);
                }
            }
        }
        let old_p = prefix_mean[u][p_idx];
        let old_best = others.min(old_p.unwrap_or(f64::INFINITY));
        let new_p = self
            .model
            .expected_latency(&self.inputs, u, new_set)
            .map(|e| e.mean_ms)
            .unwrap_or(f64::INFINITY);
        let new_best = others.min(new_p);
        ug.weight * ((anycast - new_best).max(0.0) - (anycast - old_best).max(0.0))
    }

    /// Incorporates observations: corrects believed latencies and
    /// compliance, and learns ingress dominance. Returns the number of new
    /// dominance facts.
    pub fn learn(&mut self, config: &AdvertConfig, obs: &Observations) -> usize {
        self.learn_indexed(&self.inputs.index_of(), config, obs)
    }

    /// [`Self::learn`] given `inputs.index_of()` (learning never reorders
    /// UGs, so [`Self::run`] builds it once per iteration).
    fn learn_indexed(
        &mut self,
        index_of: &HashMap<UgId, usize>,
        config: &AdvertConfig,
        obs: &Observations,
    ) -> usize {
        let before = self.model.dominance_count();
        let mut corrections = 0u64;
        for (ug, prefix, landed) in &obs.landed {
            let Some(&ug_idx) = index_of.get(ug) else { continue };
            let Some((ingress, observed_ms)) = landed else { continue };
            // A landing is positive reachability evidence: clear any dark
            // mark a measurement loop may have set.
            self.model.clear_unreachable(*ug, *ingress);
            let advertised = config.peerings_of(*prefix);
            // What the model believed possible.
            let believed = self.model.effective_candidates(&self.inputs, ug_idx, advertised);
            // Dominance: the landing ingress beats every other believed
            // candidate.
            for (loser, _) in &believed {
                if loser != ingress {
                    self.model.learn_dominance(*ug, *ingress, *loser);
                }
            }
            // Latency/compliance correction for the landing ingress.
            let cands = &mut self.inputs.ugs[ug_idx].candidates;
            match cands.binary_search_by_key(ingress, |(p, _)| *p) {
                Ok(i) => {
                    if cands[i].1 != *observed_ms {
                        corrections += 1;
                    }
                    cands[i].1 = *observed_ms;
                }
                Err(i) => {
                    corrections += 1;
                    cands.insert(i, (*ingress, *observed_ms));
                }
            }
        }
        let newly = self.model.dominance_count() - before;
        obs_count!(self.obs, "core.learn_dominance_total", newly as u64);
        obs_count!(self.obs, "core.learn_corrections_total", corrections);
        newly
    }

    /// [`Self::learn`] behind a measurement quarantine: fresh samples are
    /// screened by `quarantine` (landing samples key on their ingress,
    /// dark ones on the prefix's primary advertised ingress), and only
    /// the admitted batch — which may include older samples whose
    /// stability window just elapsed — reaches the model. Returns newly
    /// learned dominance facts, like `learn`.
    pub fn learn_guarded(
        &mut self,
        config: &AdvertConfig,
        fresh: &Observations,
        quarantine: &mut crate::guard::QuarantineBuffer,
        now: painter_eventsim::SimTime,
    ) -> usize {
        let admitted = quarantine.screen(fresh, |p| config.peerings_of(p).first().copied(), now);
        self.learn(config, &admitted)
    }

    /// Eq. 1 evaluated on real outcomes: each UG takes its best observed
    /// prefix (fine-grained steering can do exactly that), floored at
    /// anycast.
    pub fn measured_benefit(&self, obs: &Observations) -> (f64, f64) {
        self.measured_benefit_indexed(&self.inputs.index_of(), obs)
    }

    /// [`Self::measured_benefit`] given `inputs.index_of()`.
    fn measured_benefit_indexed(
        &self,
        index_of: &HashMap<UgId, usize>,
        obs: &Observations,
    ) -> (f64, f64) {
        let mut best: HashMap<UgId, f64> = HashMap::new();
        for (ug, _, landed) in &obs.landed {
            if let Some((_, lat)) = landed {
                let e = best.entry(*ug).or_insert(f64::INFINITY);
                *e = e.min(*lat);
            }
        }
        let mut total = 0.0;
        let mut improved_sum = 0.0;
        let mut improved_count = 0usize;
        // Sort for deterministic float-summation order.
        let mut best: Vec<(UgId, f64)> = best.into_iter().collect();
        best.sort_by_key(|(ug, _)| *ug);
        for (ug, lat) in best {
            let Some(&idx) = index_of.get(&ug) else { continue };
            let view = &self.inputs.ugs[idx];
            let imp = (view.anycast_ms - lat).max(0.0);
            total += view.weight * imp;
            if imp > 0.0 {
                improved_sum += imp;
                improved_count += 1;
            }
        }
        let mean = if improved_count == 0 { 0.0 } else { improved_sum / improved_count as f64 };
        (total, mean)
    }

    /// The full advertise→measure→learn loop of Algorithm 1.
    pub fn run(&mut self, env: &mut dyn AdvertEnvironment) -> OrchestratorReport {
        let mut iterations = Vec::new();
        let mut prev_measured: Option<f64> = None;
        for _ in 0..self.config.max_iterations.max(1) {
            let _iter_span = painter_obs::Span::enter(&self.obs, "core.run_iter_ms");
            obs_count!(self.obs, "core.run_iterations_total");
            let cc = self.compute_config();
            let modeled = ConfigEvaluator::new(&self.inputs, &self.model).benefit_range(&cc);
            let obs = env.execute(&cc);
            let index_of = self.inputs.index_of();
            let newly_learned = self.learn_indexed(&index_of, &cc, &obs);
            let (measured_benefit, measured_mean_improvement_ms) =
                self.measured_benefit_indexed(&index_of, &obs);
            obs_gauge!(self.obs, "core.measured_benefit", measured_benefit);
            iterations.push(IterationStats {
                config: cc,
                modeled,
                measured_benefit,
                measured_mean_improvement_ms,
                newly_learned,
            });
            if let Some(prev) = prev_measured {
                let gain = measured_benefit - prev;
                if gain <= self.config.convergence_threshold * prev.abs().max(1e-9) {
                    break;
                }
            }
            prev_measured = Some(measured_benefit);
        }
        let final_config = self.compute_config();
        OrchestratorReport { iterations, final_config, obs: self.obs.snapshot() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compliance::infer_compliant_ingresses;
    use crate::h64;
    use crate::incremental::{MeasurementDelta, TopologyDelta};
    use painter_measure::{build_user_groups, UserGroup};
    use painter_topology::{CustomerCones, Deployment, DeploymentConfig, TopologyConfig};

    /// Full-stack fixture: topology, deployment, UGs, ground truth,
    /// inferred candidates with true latencies.
    struct Fix {
        net: painter_topology::Internet,
        dep: Deployment,
        ugs: Vec<UserGroup>,
    }

    fn fix(seed: u64) -> Fix {
        let net = painter_topology::generate(TopologyConfig::tiny(seed));
        let dep = Deployment::generate(&net.graph, &DeploymentConfig::tiny(seed));
        let ugs = build_user_groups(&net, seed);
        Fix { net, dep, ugs }
    }

    fn inputs_from(f: &Fix, gt: &mut GroundTruth<'_>) -> OrchestratorInputs {
        let cones = CustomerCones::compute(&f.net.graph);
        let inferred = infer_compliant_ingresses(&f.ugs, &f.dep, &cones);
        let all: Vec<PeeringId> = f.dep.peerings().iter().map(|p| p.id).collect();
        let anycast: Vec<Option<f64>> =
            f.ugs.iter().map(|u| gt.route_under(&all, u.id).map(|(_, l)| l)).collect();
        // Believed latency = true single-ingress latency where measurable.
        let candidates: Vec<Vec<(PeeringId, f64)>> = f
            .ugs
            .iter()
            .zip(&inferred)
            .map(|(u, set)| {
                set.iter().filter_map(|&p| gt.latency(u.id, p).map(|l| (p, l))).collect()
            })
            .collect();
        OrchestratorInputs::assemble(&f.ugs, &candidates, &anycast, &f.dep)
    }

    #[test]
    fn greedy_respects_prefix_budget() {
        let f = fix(101);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        for budget in [1usize, 3, 6] {
            let orch = Orchestrator::new(
                inputs.clone(),
                OrchestratorConfig { prefix_budget: budget, ..Default::default() },
            );
            let cc = orch.compute_config();
            assert!(cc.prefix_count() <= budget, "{} > {budget}", cc.prefix_count());
        }
    }

    #[test]
    fn more_budget_never_hurts_modeled_benefit() {
        let f = fix(102);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        let benefit_at = |budget: usize| {
            let orch = Orchestrator::new(
                inputs.clone(),
                OrchestratorConfig { prefix_budget: budget, ..Default::default() },
            );
            let cc = orch.compute_config();
            ConfigEvaluator::new(&orch.inputs, &orch.model).benefit(&cc)
        };
        let b1 = benefit_at(1);
        let b4 = benefit_at(4);
        let b8 = benefit_at(8);
        assert!(b4 >= b1 - 1e-6, "{b4} < {b1}");
        assert!(b8 >= b4 - 1e-6, "{b8} < {b4}");
        assert!(b1 > 0.0, "even one prefix should help someone");
    }

    #[test]
    fn greedy_additions_have_positive_marginal_benefit() {
        // The algorithm requires positive benefit for every added pair, so
        // the final config must outperform the empty config.
        let f = fix(103);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        let orch = Orchestrator::new(
            inputs,
            OrchestratorConfig { prefix_budget: 4, ..Default::default() },
        );
        let cc = orch.compute_config();
        assert!(!cc.is_empty());
        let eval = ConfigEvaluator::new(&orch.inputs, &orch.model);
        assert!(eval.benefit(&cc) > 0.0);
    }

    #[test]
    fn learning_iterations_do_not_regress() {
        let f = fix(104);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        let ug_ids: Vec<UgId> = inputs.ugs.iter().map(|u| u.id).collect();
        let mut orch = Orchestrator::new(
            inputs,
            OrchestratorConfig { prefix_budget: 4, max_iterations: 4, ..Default::default() },
        );
        let mut env = GroundTruthEnv::new(&mut gt, ug_ids);
        let report = orch.run(&mut env);
        assert!(!report.iterations.is_empty());
        let first = report.iterations.first().unwrap().measured_benefit;
        let last = report.iterations.last().unwrap().measured_benefit;
        assert!(last >= first * 0.95, "learning should not materially regress: {first} -> {last}");
        assert!(!report.final_config.is_empty());
    }

    #[test]
    fn learning_records_dominance_facts() {
        let f = fix(105);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        let ug_ids: Vec<UgId> = inputs.ugs.iter().map(|u| u.id).collect();
        let mut orch = Orchestrator::new(
            inputs,
            OrchestratorConfig { prefix_budget: 3, max_iterations: 2, ..Default::default() },
        );
        let mut env = GroundTruthEnv::new(&mut gt, ug_ids);
        let report = orch.run(&mut env);
        // With prefix reuse there is almost always *something* to learn.
        let total_learned: usize = report.iterations.iter().map(|i| i.newly_learned).sum();
        assert!(total_learned > 0 || orch.model.dominance_count() == 0);
    }

    #[test]
    fn observations_cover_every_ug_and_prefix() {
        let f = fix(106);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        let ug_ids: Vec<UgId> = inputs.ugs.iter().map(|u| u.id).collect();
        let n_ugs = ug_ids.len();
        let mut config = AdvertConfig::new();
        config.add(PrefixId(0), f.dep.peerings()[0].id);
        config.add(PrefixId(1), f.dep.peerings()[1].id);
        let mut env = GroundTruthEnv::new(&mut gt, ug_ids);
        let obs = env.execute(&config);
        assert_eq!(obs.landed.len(), 2 * n_ugs);
    }

    #[test]
    fn refine_preserves_good_configs_with_few_ops() {
        let f = fix(108);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        let orch = Orchestrator::new(
            inputs,
            OrchestratorConfig { prefix_budget: 5, ..Default::default() },
        );
        let config = orch.compute_config();
        // Refining an already-optimal config should barely change it.
        let (refined, ops) = orch.refine_config(&config, 1e-9);
        let eval = ConfigEvaluator::new(&orch.inputs, &orch.model);
        assert!(eval.benefit(&refined) >= eval.benefit(&config) * 0.98, "refinement lost benefit");
        assert!(
            ops <= config.pair_count(),
            "refinement churned more ops ({ops}) than the config has pairs"
        );
    }

    #[test]
    fn refine_prunes_useless_pairs() {
        let f = fix(109);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        let orch = Orchestrator::new(
            inputs,
            OrchestratorConfig { prefix_budget: 4, ..Default::default() },
        );
        // A deliberately wasteful previous config: every prefix on the
        // same single peering (redundant duplicates add no benefit).
        let pe = f.dep.peerings()[0].id;
        let mut wasteful = AdvertConfig::new();
        for p in 0..4u16 {
            wasteful.add(PrefixId(p), pe);
        }
        let (refined, _) = orch.refine_config(&wasteful, 1e-9);
        // Duplicates pruned: at most one prefix still points at pe alone.
        let dup_count = refined.iter().filter(|(_, pes)| *pes == [pe]).count();
        assert!(dup_count <= 1, "kept {dup_count} duplicate single-peering prefixes");
        let eval = ConfigEvaluator::new(&orch.inputs, &orch.model);
        assert!(eval.benefit(&refined) >= eval.benefit(&wasteful) - 1e-9);
    }

    #[test]
    fn greedy_trace_and_metrics_agree() {
        let f = fix(110);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        let orch = Orchestrator::new(
            inputs,
            OrchestratorConfig { prefix_budget: 5, ..Default::default() },
        );
        let (cc, trace) = orch.compute_config_traced();
        let snap = orch.obs.snapshot();
        if !painter_obs::enabled() {
            assert!(snap.metrics.is_empty());
            return;
        }
        // Both the trace and the gauges come from the same running sum, so
        // they must agree bit-for-bit.
        let (used, benefit) = *trace.after_each_prefix.last().expect("non-trivial fixture");
        assert_eq!(snap.gauge("core.greedy_modeled_benefit"), Some(benefit));
        assert_eq!(snap.gauge("core.greedy_prefixes_used"), Some(used as f64));
        assert_eq!(snap.gauge("core.prefix_budget"), Some(5.0));
        assert_eq!(snap.gauge("core.prefix_budget_utilization"), Some(used as f64 / 5.0));
        assert_eq!(snap.counter("core.greedy_pairs_total"), Some(cc.pair_count() as u64));
        // Every committed pair recorded its marginal benefit, and the
        // deltas sum back to the final modeled benefit.
        let deltas = snap.histogram("core.greedy_benefit_delta").expect("histogram");
        assert_eq!(deltas.count, cc.pair_count() as u64);
        assert!((deltas.sum - benefit).abs() <= 1e-9 * benefit.abs().max(1.0));
    }

    #[test]
    fn run_report_carries_obs_snapshot() {
        let f = fix(111);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        let ug_ids: Vec<UgId> = inputs.ugs.iter().map(|u| u.id).collect();
        let mut orch = Orchestrator::new(
            inputs,
            OrchestratorConfig { prefix_budget: 3, max_iterations: 3, ..Default::default() },
        );
        let mut env = GroundTruthEnv::new(&mut gt, ug_ids);
        let report = orch.run(&mut env);
        if !painter_obs::enabled() {
            assert!(report.obs.metrics.is_empty());
            return;
        }
        // The snapshot agrees with the per-iteration stats the report keeps.
        assert_eq!(
            report.obs.counter("core.run_iterations_total"),
            Some(report.iterations.len() as u64)
        );
        assert_eq!(
            report.obs.gauge("core.measured_benefit"),
            Some(report.iterations.last().unwrap().measured_benefit)
        );
        let total_learned: usize = report.iterations.iter().map(|i| i.newly_learned).sum();
        assert_eq!(report.obs.counter("core.learn_dominance_total"), Some(total_learned as u64));
        // run() computes one config per iteration plus the final one.
        assert_eq!(
            report.obs.histogram("core.greedy_compute_ms").map(|h| h.count),
            Some(report.iterations.len() as u64 + 1)
        );
    }

    #[test]
    fn noisy_environment_still_converges() {
        let f = fix(107);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        let ug_ids: Vec<UgId> = inputs.ugs.iter().map(|u| u.id).collect();
        let mut orch = Orchestrator::new(
            inputs,
            OrchestratorConfig { prefix_budget: 3, max_iterations: 3, ..Default::default() },
        );
        let mut env = GroundTruthEnv::new(&mut gt, ug_ids).with_noise(5);
        let report = orch.run(&mut env);
        assert!(report.iterations.last().unwrap().measured_benefit >= 0.0);
    }

    #[test]
    fn cand_entry_order_is_total_over_delta_and_peering() {
        let mk = |delta: f64, pe: u32| CandEntry { delta, version: 0, pe: PeeringId(pe) };
        // Higher marginal benefit pops first...
        assert!(mk(2.0, 5) > mk(1.0, 0));
        // ...and equal benefits break toward the lower peering id, making
        // the order total whenever peering ids are distinct.
        assert!(mk(1.0, 2) > mk(1.0, 7));
        assert_eq!(mk(1.0, 3).cmp(&mk(1.0, 3)), std::cmp::Ordering::Equal);
        // A heap's pop sequence over distinct (delta, pe) keys is a
        // function of its contents alone — insertion order (and therefore
        // which worker thread scored which candidate) is irrelevant.
        let keys = [(1.0, 4u32), (1.0, 1), (2.5, 9), (0.5, 0), (2.5, 2), (1.0, 0)];
        let pop_all = |ks: &[(f64, u32)]| -> Vec<(f64, u32)> {
            let mut heap: std::collections::BinaryHeap<CandEntry> =
                ks.iter().map(|&(d, p)| mk(d, p)).collect();
            std::iter::from_fn(|| heap.pop().map(|e| (e.delta, e.pe.0))).collect()
        };
        let reversed: Vec<(f64, u32)> = keys.iter().rev().copied().collect();
        let expect = vec![(2.5, 2), (2.5, 9), (1.0, 0), (1.0, 1), (1.0, 4), (0.5, 0)];
        assert_eq!(pop_all(&keys), expect);
        assert_eq!(pop_all(&reversed), expect);
    }

    #[test]
    fn cand_entry_survives_nan_and_signed_zero_adversaries() {
        let mk = |delta: f64, pe: u32| CandEntry { delta, version: 0, pe: PeeringId(pe) };
        // `==` and `cmp` must agree on every pair — including NaN, where
        // f64's native `==` would break `Eq` — or BinaryHeap behavior is
        // unspecified. Exercise every ordered pair of adversarial keys.
        let adversaries = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            1.0,
        ];
        for &a in &adversaries {
            for &b in &adversaries {
                for (pa, pb) in [(0u32, 0u32), (0, 1)] {
                    let (x, y) = (mk(a, pa), mk(b, pb));
                    assert_eq!(
                        x == y,
                        x.cmp(&y) == std::cmp::Ordering::Equal,
                        "Eq/Ord disagree for ({a:?},{pa}) vs ({b:?},{pb})"
                    );
                    assert_eq!(x.cmp(&y), y.cmp(&x).reverse(), "cmp not antisymmetric");
                    assert_eq!(x.partial_cmp(&y), Some(x.cmp(&y)), "partial_cmp diverges");
                }
            }
        }
        // NaN is reflexively equal (to_bits), unlike raw f64 — and the two
        // NaN signs stay distinguishable and deterministically ordered.
        assert_eq!(mk(f64::NAN, 3), mk(f64::NAN, 3));
        assert_ne!(mk(f64::NAN, 3), mk(-f64::NAN, 3));
        // IEEE totalOrder puts +NaN above +inf, so a NaN score that leaked
        // into the heap would pop FIRST and commit garbage. The guard is
        // the fill threshold: `NaN > min_marginal_benefit` is false, so
        // NaN-scored slots never enter. Pin that exact filter expression.
        let min_marginal_benefit = 0.0;
        assert!(mk(f64::NAN, 0) > mk(f64::INFINITY, 0), "totalOrder premise");
        let scores = [f64::NAN, 1.0, -f64::NAN, 0.5, f64::NEG_INFINITY, -0.0];
        let heap: std::collections::BinaryHeap<CandEntry> = (0..scores.len())
            .filter(|&pe| scores[pe] > min_marginal_benefit)
            .map(|pe| mk(scores[pe], pe as u32))
            .collect();
        let popped: Vec<u32> = {
            let mut h = heap;
            std::iter::from_fn(|| h.pop().map(|e| e.pe.0)).collect()
        };
        assert_eq!(popped, vec![1, 3], "only finite positive scores may enter the heap");
        // Equal-benefit ties among survivors commit lowest-peering-first
        // even when the tied value is denormal-adjacent.
        let tied = [(f64::MIN_POSITIVE, 7u32), (f64::MIN_POSITIVE, 2), (f64::MIN_POSITIVE, 5)];
        let mut h: std::collections::BinaryHeap<CandEntry> =
            tied.iter().map(|&(d, p)| mk(d, p)).collect();
        let order: Vec<u32> = std::iter::from_fn(|| h.pop().map(|e| e.pe.0)).collect();
        assert_eq!(order, vec![2, 5, 7]);
    }

    #[test]
    fn arena_fill_matches_reference() {
        // The SoA arena replaced the nested-map layout on the hot path;
        // the retained reference path must agree bit-for-bit.
        let f = fix(112);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        let orch = Orchestrator::new(inputs, OrchestratorConfig::default());
        let arena = BenefitArena::from_inputs(&orch.inputs);
        let reference = orch.fill_scores_reference();
        let soa = orch.fill_scores_arena(&arena);
        assert_eq!(reference.len(), soa.len());
        for (pe, (r, s)) in reference.iter().zip(&soa).enumerate() {
            assert_eq!(r.to_bits(), s.to_bits(), "peering {pe}: {r} vs {s}");
        }
        assert!(reference.iter().any(|d| d.is_finite() && *d > 0.0), "degenerate fixture");
    }

    /// Hash-built world for the anchor filter: 3–5 PoPs, 6–9 peerings,
    /// UG→PoP distances hashed over 0–9000 km so candidate and anchor
    /// distances straddle `D_reuse` = 3000 km both ways, 0–4 candidates
    /// per UG. The last two UGs are the
    /// `d_min_uses_all_advertised_pops_not_just_candidates` shape, fixed:
    /// not a candidate of peering 0 (100 km away), candidates of peerings
    /// 1 and 2 farther out — one pair inside `D_reuse` of each other (a
    /// closer non-candidate anchor evicts both), one already split by its
    /// own anchor (the filter's false positive).
    fn anchor_world(seed: u64) -> OrchestratorInputs {
        let n_pops = 3 + (h64(&[seed, 1]) % 3) as usize;
        let n_pe = 6 + (h64(&[seed, 2]) % 4) as usize;
        let n_hashed = 24 + (h64(&[seed, 3]) % 24) as usize;
        let view = |u: usize, candidates: Vec<(PeeringId, f64)>| crate::inputs::UgView {
            id: UgId(u as u32),
            metro: painter_geo::MetroId(0),
            weight: 0.1 + (h64(&[seed, 4, u as u64]) % 990) as f64 / 100.0,
            anycast_ms: 40.0 + (h64(&[seed, 5, u as u64]) % 800) as f64 / 10.0,
            candidates,
        };
        let mut ugs = Vec::new();
        let mut ug_pop_km = Vec::new();
        for u in 0..n_hashed {
            let candidates = (0..n_pe)
                .filter(|&p| h64(&[seed, 6, u as u64, p as u64]) % (n_pe as u64) < 3)
                .map(|p| {
                    let ms = 5.0 + (h64(&[seed, 7, u as u64, p as u64]) % 950) as f64 / 10.0;
                    (PeeringId(p as u32), ms)
                })
                .collect();
            ugs.push(view(u, candidates));
            ug_pop_km.push(
                (0..n_pops).map(|p| (h64(&[seed, 8, u as u64, p as u64]) % 9000) as f64).collect(),
            );
        }
        for far in [[4000.0, 6500.0], [200.0, 8000.0]] {
            ugs.push(view(ugs.len(), vec![(PeeringId(1), 20.0), (PeeringId(2), 5.0)]));
            let mut km = vec![100.0, far[0], far[1]];
            km.resize(n_pops, 9000.0);
            ug_pop_km.push(km);
        }
        OrchestratorInputs {
            ugs,
            ug_pop_km,
            peering_pop: (0..n_pe).map(|i| i % n_pops).collect(),
            peering_count: n_pe,
            capacities: None,
        }
    }

    /// Walks two prefixes of hashed commit sequences. Before every commit,
    /// every peering's rescore must equal the nested-map reference
    /// bit-for-bit; after it, the refreshed means must equal the routing
    /// model's and the anchor aggregate must be exact. Returns how many
    /// rescores carried a non-zero term from outside the peering's row.
    fn walk_against_reference(orch: &Orchestrator, seed: u64) -> usize {
        let inputs = &orch.inputs;
        let arena = BenefitArena::from_inputs(inputs);
        let (n_ugs, n_pe) = (inputs.ugs.len(), inputs.peering_count);
        let mut by_peering: Vec<Vec<usize>> = vec![Vec::new(); n_pe];
        for (i, ug) in inputs.ugs.iter().enumerate() {
            for (p, _) in &ug.candidates {
                by_peering[p.idx()].push(i);
            }
        }
        let mut reference_mean: Vec<Vec<Option<f64>>> = vec![vec![None; 2]; n_ugs];
        let mut st = GreedyState::new(&arena, &orch.model);
        let mut cc = AdvertConfig::new();
        let mut anchor_moved = 0;
        for p_idx in 0..2 {
            let prefix = PrefixId(p_idx as u16);
            // A hashed permutation: the walk commits all but one peering.
            let mut order: Vec<u32> = (0..n_pe as u32).collect();
            order.sort_by_key(|&pe| h64(&[seed, 9, p_idx as u64, pe as u64]));
            for (step, &next) in order[1..].iter().enumerate() {
                let current = cc.peerings_of(prefix).to_vec();
                for pe in (0..n_pe as u32).map(PeeringId) {
                    let got = orch.candidate_delta_arena(&arena, pe, &current, &st);
                    let want =
                        orch.candidate_delta(pe, &current, p_idx, &by_peering, &reference_mean);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "seed {seed} prefix {p_idx} step {step} {pe:?} + {current:?}: {got} vs {want}"
                    );
                    let Err(pos) = current.binary_search(&pe) else { continue };
                    let mut new_set = current.clone();
                    new_set.insert(pos, pe);
                    let row_only: f64 = arena
                        .ugs_of(pe.idx())
                        .iter()
                        .map(|&u| orch.ug_delta_arena(&arena, &st, u as usize, &new_set))
                        .sum();
                    anchor_moved += usize::from(row_only != got);
                }
                orch.commit_arena(&arena, &mut st, &mut cc, prefix, PeeringId(next));
                let current = cc.peerings_of(prefix);
                for (u, means) in reference_mean.iter_mut().enumerate() {
                    means[p_idx] =
                        orch.model.expected_latency(inputs, u, current).map(|e| e.mean_ms);
                    let want = means[p_idx].unwrap_or(f64::INFINITY);
                    assert_eq!(st.cur_mean[u].to_bits(), want.to_bits(), "seed {seed} UG {u}");
                    if st.first_pe[u] != u32::MAX {
                        let anchor = current
                            .iter()
                            .map(|p| inputs.ug_pop_km[u][inputs.peering_pop[p.idx()]])
                            .fold(f64::INFINITY, f64::min);
                        assert_eq!(st.d_min[u], anchor, "seed {seed} UG {u} anchor");
                    }
                }
            }
            st.close_prefix();
        }
        anchor_moved
    }

    #[test]
    fn rescore_matches_reference_at_every_step() {
        // The equivalence proptests compare the greedy with itself; this
        // is the independent oracle for a rescore with non-empty `current`.
        let mut anchor_moved = [0usize; 2];
        for seed in 0..24u64 {
            let inputs = anchor_world(seed);
            let n_pe = inputs.peering_count as u64;
            let mut orch = Orchestrator::new(inputs, OrchestratorConfig::default());
            anchor_moved[0] += walk_against_reference(&orch, seed);
            // Learned facts push `mean_latency` onto its slow path; they
            // filter after reach, so the anchor filter must stay exact.
            for k in 0..40u64 {
                let h = h64(&[seed, 10, k]);
                let ug = UgId((h % orch.inputs.ugs.len() as u64) as u32);
                let (a, b) =
                    (PeeringId(((h >> 16) % n_pe) as u32), PeeringId(((h >> 32) % n_pe) as u32));
                if k % 4 == 0 {
                    orch.model.mark_unreachable(ug, a);
                } else {
                    orch.model.learn_dominance(ug, a, b);
                }
            }
            anchor_moved[1] += walk_against_reference(&orch, seed);
        }
        assert!(anchor_moved.iter().all(|&n| n > 100), "degenerate fixture: {anchor_moved:?}");
    }

    #[test]
    fn plan_after_deltas_is_the_fresh_plan_of_the_edited_inputs() {
        let f = fix(113);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let inputs = inputs_from(&f, &mut gt);
        let mut orch = Orchestrator::new(
            inputs,
            OrchestratorConfig { prefix_budget: 4, ..Default::default() },
        );
        let before = orch.compute_config_traced();
        // Mixed delta stream: RTT shift, peering removal, demand change.
        let ug = orch.inputs.ugs[0].id;
        let pe = orch.inputs.ugs[0].candidates[0].0;
        orch.apply_delta(MeasurementDelta::RttShift { ug, peering: pe, ms: 1.0 });
        let victim = orch.inputs.ugs[1].candidates[0].0;
        orch.apply_delta(TopologyDelta::RemovePeering { peering: victim });
        orch.apply_delta(MeasurementDelta::DemandShift { ug, weight: 9.0 });
        let after = orch.compute_config_traced();
        assert_ne!(after, before, "fixture: the deltas must change the plan");
        let fresh = Orchestrator::new(orch.inputs.clone(), orch.config.clone());
        assert_eq!(after, fresh.compute_config_traced(), "deltas left more than edited inputs");
    }

    #[test]
    fn hostile_deltas_are_counted_and_change_nothing() {
        let f = fix(113);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let mut orch = Orchestrator::new(inputs_from(&f, &mut gt), OrchestratorConfig::default());
        let before = orch.compute_config_traced();
        let ug = orch.inputs.ugs[0].id;
        let peering = orch.inputs.ugs[0].candidates[0].0;
        orch.apply_delta(MeasurementDelta::RttShift { ug, peering, ms: f64::NAN });
        orch.apply_delta(MeasurementDelta::DemandShift { ug, weight: f64::NEG_INFINITY });
        orch.apply_delta(TopologyDelta::AddPeering {
            peering,
            candidates: vec![(ug, -3.0), (ug, f64::INFINITY)],
        });
        assert_eq!(orch.compute_config_traced(), before);
        let expected = painter_obs::enabled().then_some(4);
        assert_eq!(orch.obs.snapshot().counter("core.delta_rejected_total"), expected);
    }

    #[test]
    fn out_of_band_edits_are_planned() {
        let f = fix(114);
        let mut gt = GroundTruth::compute(&f.net.graph, &f.dep, &f.ugs, 9);
        let base = inputs_from(&f, &mut gt);
        let heavy = 1e3 * base.ugs.iter().map(|u| u.weight).sum::<f64>();
        // Both edits hand the world's weight to a peering the first plan
        // left unadvertised, so the plan must move.
        type Edit = fn(&mut OrchestratorInputs, &[PeeringId], f64);
        let append_a_ug: Edit = |inputs, unadvertised, heavy| {
            let id = UgId(inputs.ugs.iter().map(|u| u.id.0).max().unwrap() + 1);
            inputs.ugs.push(crate::inputs::UgView {
                id,
                metro: inputs.ugs[0].metro,
                weight: heavy,
                anycast_ms: 200.0,
                candidates: vec![(*unadvertised.last().unwrap(), 10.0)],
            });
            let row = inputs.ug_pop_km[0].clone();
            inputs.ug_pop_km.push(row);
        };
        let same_length_weight: Edit = |inputs, unadvertised, heavy| {
            let best_is_unadvertised = |u: &crate::inputs::UgView| {
                let best = u.candidates.iter().min_by(|a, b| a.1.total_cmp(&b.1));
                best.is_some_and(|(pe, ms)| *ms < u.anycast_ms && unadvertised.contains(pe))
            };
            let ug = inputs.ugs.iter_mut().find(|u| best_is_unadvertised(u));
            ug.expect("fixture: some UG's best ingress is unadvertised").weight = heavy;
        };
        for (name, edit) in [("append a UG", append_a_ug), ("weight edit", same_length_weight)] {
            let mut orch = Orchestrator::new(
                base.clone(),
                OrchestratorConfig { prefix_budget: 4, ..Default::default() },
            );
            let before = orch.compute_config_incremental();
            let unadvertised: Vec<PeeringId> = (0..orch.inputs.peering_count as u32)
                .map(PeeringId)
                .filter(|pe| before.0.iter().all(|(_, pes)| !pes.contains(pe)))
                .collect();
            // Edited through the public field, and no other call.
            edit(&mut orch.inputs, &unadvertised, heavy);
            let after = orch.compute_config_incremental();
            let fresh = Orchestrator::new(orch.inputs.clone(), orch.config.clone());
            assert_ne!(after, before, "{name}: fixture must change the plan");
            assert_eq!(after, fresh.compute_config_traced(), "{name}: planned a stale world");
        }
    }

    #[test]
    fn equal_benefit_peerings_commit_lowest_id_first() {
        // Regression: two peerings offering *identical* benefit must
        // resolve by peering id, not by scoring order — at every thread
        // count.
        let inputs = OrchestratorInputs {
            ugs: vec![crate::inputs::UgView {
                id: UgId(0),
                metro: painter_geo::MetroId(0),
                weight: 1.0,
                anycast_ms: 80.0,
                candidates: vec![(PeeringId(0), 30.0), (PeeringId(1), 30.0)],
            }],
            ug_pop_km: vec![vec![0.0]],
            peering_pop: vec![0, 0],
            peering_count: 2,
            capacities: None,
        };
        let mut configs = Vec::new();
        for threads in [1usize, 8] {
            let orch = Orchestrator::new(
                inputs.clone(),
                OrchestratorConfig {
                    prefix_budget: 2,
                    threads: Some(threads),
                    ..Default::default()
                },
            );
            let (cc, _) = orch.compute_config_traced();
            assert_eq!(
                cc.peerings_of(PrefixId(0)),
                &[PeeringId(0)],
                "tie must break toward the lower peering id (threads={threads})"
            );
            configs.push(cc);
        }
        assert_eq!(configs[0], configs[1]);
    }
}
