//! The closed loop that drives one workload and turns its rounds into metrics.
//!
//! One client, one process, rounds back to back. A run is split into
//! *epochs*: each builds a fresh world from its own sub-seed and runs timed
//! rounds on it for its share of `--seconds`. What a world costs to plan
//! hangs on what its seed generated, far more than on machine noise, so a
//! run spends its time on many worlds rather than on many rounds per world;
//! the worlds also give `setup_s` its samples.

use crate::trace::Tracer;
use painter_eventsim::derive_seed;
use painter_obs::{json, Fnv1a};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// `(name, unit, better, bound)` of every end-to-end metric, as in
/// `BENCHMARK.json`; the bound is the share of the parent's median by which
/// the metric may get worse before a change counts as a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("round_s_p50", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("quality", "ratio", "higher", 0.15),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`. A
/// workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("first_round_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("topology.generate_s", "s"),
    ("topology.scenario_build_s", "s"),
    ("measure.build_ugs_s", "s"),
    ("measure.ground_truth_s", "s"),
    ("measure.execute_s", "s"),
    ("eval.synthesize_inputs_s", "s"),
    ("core.arena_build_s", "s"),
    ("core.fill_s", "s"),
    ("core.greedy_rest_s", "s"),
    ("core.scoring_calls", "count"),
    ("core.rescore_batches", "count"),
    ("core.pairs_committed", "count"),
    ("core.commits_per_rescore", "ratio"),
    ("core.incr_cold_s", "s"),
    ("core.apply_delta_s", "s"),
    ("core.incr_compute_s", "s"),
    ("core.incr_fill_reused_ratio", "ratio"),
    ("core.incr_dirty_peerings", "count"),
    ("core.compute_config_s", "s"),
    ("core.benefit_eval_s", "s"),
    ("core.learn_s", "s"),
    ("bgp.solve_s", "s"),
    ("bgp.engine_warmup_s", "s"),
    ("bgp.engine_faults_s", "s"),
    ("bgp.updates", "count"),
    ("bgp.updates_per_s", "1/s"),
    ("tm.sim_s", "s"),
    ("tm.packets", "count"),
    ("tm.packets_per_s", "1/s"),
    ("chaos.compile_s", "s"),
    ("eval.attribute_s", "s"),
    ("eval.campaign_s.pop-outage", "s"),
    ("eval.campaign_s.bgp-churn", "s"),
    ("eval.campaign_s.multi-fault", "s"),
    ("eval.campaign_glue_s", "s"),
    ("eval.campaign_virt_per_wall", "ratio"),
    ("eval.soak_day_s", "s"),
    ("eval.soak_ticks_per_s", "1/s"),
    ("eval.soak_glue_s", "s"),
    ("solve.build_s", "s"),
    ("solve.exact_s", "s"),
    ("solve.restricted_s", "s"),
    ("solve.pivots", "count"),
    ("solve.phase1_pivots", "count"),
    ("solve.s_per_pivot", "s"),
    ("solve.vars", "count"),
    ("solve.rows", "count"),
    ("rounds_traced", "count"),
];

/// What one round produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundOutcome {
    /// Wall time of the timed part of the round.
    pub seconds: f64,
    /// FNV digest of the round's result.
    pub digest: u64,
    /// Result quality in 0–1 (each workload defines its own).
    pub quality: f64,
}

/// One benchmark workload: how to build a world from a seed and what a round
/// on it is. `round` times its own operation (and returns the time) so it can
/// rebuild per-round inputs outside the timer.
pub trait Workload {
    /// Inputs and warm state of one epoch.
    type World;

    /// Worlds built per run.
    fn epochs(&self) -> usize;

    /// Everything before the first round: inputs generated from `seed`, and
    /// any warm state. The seed goes to input generators only.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<Self::World, String>;

    /// One round; fails if the system returns an error or a result check
    /// does not hold.
    fn round(&self, world: &mut Self::World, tr: &mut Tracer) -> Result<RoundOutcome, String>;

    /// Whether every round on one world has the same inputs, so that each
    /// must reproduce the first round's digest.
    fn repeats(&self) -> bool {
        true
    }

    /// Untimed check of the last round on `world` against an independent
    /// computation; the harness asks for it on the first, middle and last
    /// epoch.
    fn verify(&self, _world: &mut Self::World) -> Result<(), String> {
        Ok(())
    }

    /// Traced runs only: replays layers alone on `world`, recording spans and
    /// values under the per-layer metric names.
    fn layers(&self, world: &mut Self::World, tr: &mut Tracer) -> Result<(), String>;
}

#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    /// Total measuring time, split evenly over the epochs.
    pub seconds: f64,
    /// Also record spans and report per-layer metrics.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    /// Rounds attempted, warm-ups included.
    pub attempted: u64,
    /// Rounds that failed (error, panic, or result check); one message each.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Digest over the first round of every epoch; two runs at one seed agree.
    pub digest: u64,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// Chrome-trace document of a traced run.
    pub chrome_trace: Option<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics the contract asks for: per-layer for a traced run,
    /// end-to-end otherwise.
    pub fn metrics(&self) -> &[Metric] {
        if self.per_layer.is_empty() {
            &self.end_to_end
        } else {
            &self.per_layer
        }
    }

    /// The one-line result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
            self.correct(),
            self.attempted,
            self.failed
        );
        write_metrics_json(&mut out, self.metrics().iter().map(|m| (m.name, m.value, m.unit)));
        out.push('}');
        out
    }
}

/// Appends `{"name":{"value":v,"unit":"u"},...}` to `out`.
pub fn write_metrics_json<'a>(
    out: &mut String,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) {
    out.push('{');
    for (i, (name, value, unit)) in metrics.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, name);
        out.push_str(":{\"value\":");
        json::write_f64(out, value);
        out.push_str(",\"unit\":");
        json::write_str(out, unit);
        out.push('}');
    }
    out.push('}');
}

/// The words of an advertisement configuration, in order, for digests.
pub fn advert_words(config: &painter_bgp::AdvertConfig) -> Vec<u64> {
    let mut words = Vec::new();
    for (prefix, peerings) in config.iter() {
        words.push(u64::from(prefix.0));
        words.extend(peerings.iter().map(|p| u64::from(p.0)));
    }
    words
}

/// Median of a sample; 0 for an empty one.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// FNV-1a over a word sequence.
pub fn fnv(words: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for w in words {
        h.update(&w.to_le_bytes());
    }
    h.finish()
}

/// High-water resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the high-water mark to the current resident set, so that the next
/// [`peak_rss_mb`] covers one epoch. Where the kernel refuses, every epoch
/// reads the whole process's mark instead.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs `f`, turning a panic into an error so it counts as a failed round.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let text = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Err(format!("panicked: {text}"))
    })
}

/// Runs one workload over `epochs()` worlds.
///
/// Each epoch sets its world up and runs rounds back to back until its share
/// of `opts.seconds` is used, at least one. The run's very first round is a
/// discarded warm-up; every other round is timed. `setup_s` takes, per epoch,
/// the time from the start of set-up to the end of the first round on the new
/// world. A traced run records set-up spans, adds one traced round per epoch
/// after the timed ones, and then replays the workload's layers alone.
pub fn run<W: Workload>(name: &'static str, workload: &W, opts: &RunOptions) -> Report {
    let mut tr = Tracer::new(false);
    let epochs = workload.epochs().max(1);
    let share = opts.seconds / epochs as f64;

    let (mut setup_s, mut round_s, mut overhead, mut quality) = (vec![], vec![], vec![], vec![]);
    let mut peak_rss = Vec::new();
    let mut digests = Vec::new();
    let mut failures = Vec::new();
    let (mut attempted, mut rounds_traced) = (0u64, 0u64);
    let mut first_round_s = 0.0;

    for epoch in 0..epochs {
        let seed = derive_seed(opts.seed, epoch as u64);
        reset_peak_rss();
        tr.set_enabled(opts.trace);
        attempted += 1;
        let started = Instant::now();
        let built = guarded(|| {
            let mut world = workload.setup(seed, &mut tr)?;
            tr.set_enabled(false);
            let clock = Instant::now();
            let first = workload.round(&mut world, &mut tr)?;
            Ok((world, first, clock))
        });
        let (mut world, first, mut clock) = match built {
            Ok(built) => built,
            Err(e) => {
                failures.push(format!("epoch {epoch} set-up or first round: {e}"));
                continue;
            }
        };
        setup_s.push(started.elapsed().as_secs_f64());
        digests.push(first.digest);
        quality.push(first.quality);
        let mut times = vec![first.seconds];
        if epoch == 0 {
            // The run's first round warms the process up and is not timed.
            times.clear();
            clock = Instant::now();
            first_round_s = first.seconds;
        }

        // Later rounds on this world must reproduce the first one's digest.
        let round = |tr: &mut Tracer, world: &mut W::World| {
            tr.next_round();
            match guarded(|| workload.round(world, tr)) {
                Ok(out) if workload.repeats() && out.digest != first.digest => Err(format!(
                    "epoch {epoch}: digest {:016x} differs from the first round's {:016x}",
                    out.digest, first.digest
                )),
                Ok(out) => Ok(out.seconds),
                Err(e) => Err(format!("epoch {epoch}: {e}")),
            }
        };
        while times.is_empty() || clock.elapsed().as_secs_f64() < share {
            attempted += 1;
            match round(&mut tr, &mut world) {
                Ok(seconds) => times.push(seconds),
                Err(e) => {
                    failures.push(e);
                    break;
                }
            }
        }
        // Before the traced round, verification and replays: their spans and
        // copies are the benchmark's own.
        peak_rss.push(peak_rss_mb());
        if !times.is_empty() {
            round_s.push(median(&times));
        }
        if opts.trace {
            tr.set_enabled(true);
            attempted += 1;
            rounds_traced += 1;
            match round(&mut tr, &mut world) {
                Ok(seconds) if !times.is_empty() => overhead.push(seconds / median(&times)),
                Ok(_) => {}
                Err(e) => failures.push(e),
            }
        }
        if [0, epochs / 2, epochs - 1].contains(&epoch) {
            if let Err(e) = guarded(|| workload.verify(&mut world)) {
                failures.push(format!("epoch {epoch} verification: {e}"));
            }
        }
        if opts.trace {
            tr.next_round();
            if let Err(e) = guarded(|| workload.layers(&mut world, &mut tr)) {
                failures.push(format!("epoch {epoch} layer replay: {e}"));
            }
        }
    }

    let end_to_end = [mean(&round_s), median(&setup_s), median(&peak_rss), mean(&quality)];
    let end_to_end = END_TO_END
        .iter()
        .zip(end_to_end)
        .map(|(&(name, unit, _, _), value)| Metric { name, value, unit })
        .collect();
    let per_layer = if opts.trace {
        tr.value("first_round_s", first_round_s);
        tr.value("obs.trace_overhead_ratio", mean(&overhead));
        tr.value("rounds_traced", rounds_traced as f64);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric { name, value: median(&tr.samples(name)), unit })
            .collect()
    } else {
        Vec::new()
    };
    Report {
        workload: name,
        attempted,
        failed: failures.len() as u64,
        failures,
        digest: fnv(&digests),
        end_to_end,
        per_layer,
        chrome_trace: opts.trace.then(|| tr.chrome_json()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose rounds are arithmetic; `corrupt_from` makes later
    /// rounds return another digest, `panic_at` makes one panic.
    struct Fake {
        corrupt_from: Option<u32>,
        panic_at: Option<u32>,
    }

    impl Workload for Fake {
        type World = u32;

        fn epochs(&self) -> usize {
            2
        }

        fn setup(&self, _seed: u64, tr: &mut Tracer) -> Result<u32, String> {
            tr.span("topology.generate_s", |_| ());
            Ok(0)
        }

        fn round(&self, world: &mut u32, tr: &mut Tracer) -> Result<RoundOutcome, String> {
            *world += 1;
            if self.panic_at == Some(*world) {
                panic!("round {world} blew up");
            }
            let ((), seconds) = tr.span("core.fill_s", |_| ());
            let digest = if self.corrupt_from.is_some_and(|n| *world >= n) { 2 } else { 1 };
            Ok(RoundOutcome { seconds: seconds + 1e-6, digest, quality: 0.5 })
        }

        fn layers(&self, _world: &mut u32, tr: &mut Tracer) -> Result<(), String> {
            tr.value("solve.pivots", 7.0);
            Ok(())
        }
    }

    const QUICK: RunOptions = RunOptions { seed: 1, seconds: 0.02, trace: false };

    #[test]
    fn clean_run_reports_every_end_to_end_metric() {
        let r = run("fake", &Fake { corrupt_from: None, panic_at: None }, &QUICK);
        assert!(r.correct(), "{:?}", r.failures);
        assert!(r.attempted >= 3, "a warm-up and a timed round, then the second epoch");
        assert_eq!(r.end_to_end.len(), END_TO_END.len());
        assert!(r.per_layer.is_empty() && r.chrome_trace.is_none());
        let doc = json::parse(&r.result_json()).expect("valid json");
        assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(0.0));
        assert!(doc.get("metrics").and_then(|m| m.get("round_s_p50")).is_some());
    }

    #[test]
    fn corrupted_digest_is_a_failed_round() {
        let r = run("fake", &Fake { corrupt_from: Some(2), panic_at: None }, &QUICK);
        assert!(!r.correct());
        assert!(r.failed >= 2, "every later round of both epochs fails");
        assert!(r.failures[0].contains("differs from the first round"));
    }

    #[test]
    fn panicking_round_is_caught_and_counted() {
        let r = run("fake", &Fake { corrupt_from: None, panic_at: Some(2) }, &QUICK);
        assert_eq!(r.failed, 2, "one per epoch: {:?}", r.failures);
        assert!(r.failures[0].contains("blew up"));
    }

    #[test]
    fn traced_run_reports_every_layer_metric_and_a_trace() {
        let opts = RunOptions { trace: true, ..QUICK };
        let r = run("fake", &Fake { corrupt_from: None, panic_at: None }, &opts);
        assert_eq!(r.per_layer.len(), PER_LAYER.len());
        let get = |n: &str| r.per_layer.iter().find(|m| m.name == n).expect(n).value;
        assert_eq!(get("solve.pivots"), 7.0);
        assert!(get("rounds_traced") >= 2.0);
        assert!(get("obs.trace_overhead_ratio") > 0.0);
        assert_eq!(get("tm.sim_s"), 0.0, "a layer the workload bypasses reads 0");
        assert!(json::parse(r.chrome_trace.as_deref().expect("trace")).is_ok());
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
