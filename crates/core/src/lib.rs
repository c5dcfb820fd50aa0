//! PAINTER's primary contribution: the Advertisement Orchestrator.
//!
//! The orchestrator (§3.1 of the paper) decides which BGP prefixes to
//! advertise via which peerings under a prefix budget, maximizing modeled
//! benefit (Eq. 1) where per-UG improvement is an *expectation* over the
//! ingresses the UG might land on (Eq. 2). It then advertises, observes
//! where UGs actually land, and folds the observations into a routing model
//! that makes the next configuration better — the learning loop behind
//! Fig. 6c.
//!
//! Modules:
//!
//! * [`compliance`] — the orchestrator's *inferred* policy-compliant
//!   ingress sets (customer cones + transit providers), the information it
//!   has *before* advertising. Deliberately an approximation of the ground
//!   truth in `painter-measure`.
//! * [`model`] — the routing model: learned ingress-preference dominance
//!   pairs and the `D_reuse` geometric exclusion, combining into the
//!   expectation operator of Eq. 2.
//! * [`benefit`] — benefit ranges (Lower/Mean/Estimated/Upper, Appendix
//!   E.1) and total-possible-benefit normalization.
//! * [`orchestrator`] — Algorithm 1: greedy prefix-to-peering allocation
//!   plus the advertise→measure→learn outer loop, against a pluggable
//!   [`orchestrator::AdvertEnvironment`].
//! * [`strategies`] — the baselines PAINTER is compared to: anycast,
//!   One-per-PoP (w/ and w/o reuse), One-per-Peering, and regional
//!   advertisements.
//! * [`inputs`] — the measurement-derived inputs every component consumes
//!   (per-UG candidate ingresses with believed latencies, anycast
//!   latencies, weights).
//! * [`parallel`] — deterministic parallel scoring: pool construction,
//!   `PAINTER_THREADS` resolution, and the fixed-chunk fold discipline
//!   that keeps results bit-identical across thread counts.
//! * [`arena`] — the flat SoA layout of the UG×peering benefit tables the
//!   greedy's hot path reads (candidate CSR, incidence CSR, per-UG scalar
//!   arrays), sized for millions of UGs.
//! * [`incremental`] — typed world deltas ([`TopologyDelta`],
//!   [`MeasurementDelta`]) that [`Orchestrator::apply_delta`] writes
//!   into the inputs, dropping rows with hostile values; the next plan
//!   is the ordinary cold one.
//! * [`guard`] — the closed-loop containment layer: measurement
//!   quarantine, plan hysteresis, and safety rollback, so the learning
//!   loop survives running live under churn.

pub mod arena;
pub mod benefit;
pub mod compliance;
pub mod guard;
pub mod incremental;
pub mod inputs;
pub mod installer;
pub mod model;
pub mod orchestrator;
pub mod parallel;
pub mod strategies;

pub use arena::BenefitArena;
pub use benefit::{BenefitRange, ConfigEvaluator, PlacementMode, PlacementOutcome};
pub use compliance::{infer_compliant_ingresses, ObservedReachability};
pub use guard::tune::{
    pareto_frontier, tune_search, GuardScore, KnobProbe, TuneCandidate, TuneConfig, TuneOutcome,
    TuneSpace,
};
pub use guard::{
    ArbiterConfig, ArbiterVerdict, GuardConfig, HealthSample, HysteresisConfig, PlanHysteresis,
    QuarantineBuffer, QuarantineConfig, RepairArbiter, RepairBid, RollbackConfig, RollbackGuard,
};
pub use incremental::{Delta, MeasurementDelta, TopologyDelta};
pub use inputs::{OrchestratorInputs, UgView};
pub use installer::{apply_to_engine, diff, plan, revert_plan, InstallPlan, Op};
pub use model::RoutingModel;
pub use orchestrator::{
    AdvertEnvironment, GreedyTrace, GroundTruthEnv, Observations, Orchestrator, OrchestratorConfig,
    OrchestratorReport,
};
pub use strategies::{
    one_per_peering, one_per_pop, one_per_pop_with_reuse, regional_transit, Strategy,
};

/// FNV-1a over a word sequence — the seed expander of the hash-built test
/// worlds (no RNG, so they are the same in every build).
#[cfg(test)]
pub(crate) fn h64(parts: &[u64]) -> u64 {
    let mut h = painter_obs::Fnv1a::new();
    for p in parts {
        h.update(&p.to_le_bytes());
    }
    h.finish()
}
