//! `painter-perf`: the end-to-end benchmark of the PAINTER reproduction.
//!
//! Six workloads, each a closed loop with one client, drive the system only
//! through public functions of its crates; [`harness`] turns their rounds
//! into the end-to-end metrics of `BENCHMARK.json`, and a traced run adds
//! the per-layer metrics, measured from outside with [`trace`]. See
//! `README.md` beside this crate for the metric glossary and the protocol
//! for comparing two commits.

pub mod campaigns;
pub mod harness;
pub mod learn;
pub mod lp;
pub mod plan;
pub mod trace;

use harness::{run, Report, RunOptions};

/// Workload names, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [&str; 6] =
    ["plan-cold-100k", "replan-delta-100k", "learn-loop", "chaos-suite", "soak-2day", "lp-exact"];

/// Input sizes: the frozen benchmark sizes, or the shrunken ones the smoke
/// test runs in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Runs the named workload; `None` for an unknown name.
pub fn run_workload(name: &str, size: Size, opts: &RunOptions) -> Option<Report> {
    let full = size == Size::Full;
    Some(match name {
        "plan-cold-100k" => {
            let size = if full { plan::PlanSize::COLD } else { plan::PlanSize::SMOKE };
            run(WORKLOADS[0], &plan::PlanCold(size), opts)
        }
        "replan-delta-100k" => {
            let size = if full { plan::PlanSize::REPLAN } else { plan::PlanSize::SMOKE };
            run(WORKLOADS[1], &plan::ReplanDelta(size), opts)
        }
        "learn-loop" => {
            let size = if full { learn::LearnSize::FULL } else { learn::LearnSize::SMOKE };
            run(WORKLOADS[2], &learn::LearnLoop(size), opts)
        }
        "chaos-suite" => {
            let w = if full { campaigns::ChaosSuite::FULL } else { campaigns::ChaosSuite::SMOKE };
            run(WORKLOADS[3], &w, opts)
        }
        "soak-2day" => {
            let w = if full { campaigns::Soak2Day::FULL } else { campaigns::Soak2Day::SMOKE };
            run(WORKLOADS[4], &w, opts)
        }
        "lp-exact" => {
            let size = if full { lp::LpSize::FULL } else { lp::LpSize::SMOKE };
            run(WORKLOADS[5], &lp::LpExact(size), opts)
        }
        _ => return None,
    })
}
