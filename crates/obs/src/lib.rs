//! Telemetry for the PAINTER reproduction: metrics, spans, run reports.
//!
//! Operators of real traffic-engineering systems live off visibility —
//! where traffic lands, how fast decisions converge, how long failover
//! takes. This crate is the reproduction's equivalent: a tiny,
//! dependency-free telemetry core that the orchestrator, Traffic Manager,
//! and event simulator thread a [`Registry`] through.
//!
//! Pieces:
//!
//! * [`Registry`] — a global-free, cheaply clonable (`Arc` inside) set of
//!   named **counters**, **gauges**, and fixed-bucket log2 **histograms**
//!   (p50/p90/p99 extraction), plus a bounded ring-buffer event log with
//!   caller-supplied virtual-time timestamps.
//! * [`Span`] — an RAII timer: [`Span::enter`] starts the clock, drop
//!   records elapsed milliseconds into a histogram.
//! * [`RunReport`] — a structured, JSON-serializable snapshot of a run:
//!   per-subsystem summary sections plus a full metric [`Snapshot`].
//!   [`json`] holds the dependency-free emitter/parser used for it.
//! * [`TraceSink`] — a causally-linked flight recorder: typed
//!   [`TraceEvent`]s with stable ids and `cause` back-references on the
//!   simulated clock, exportable as Chrome-trace JSON ([`trace`]).
//!
//! # Zero cost when off
//!
//! With the `obs-off` feature enabled, every metric type becomes a
//! zero-sized struct whose methods are empty `#[inline]` bodies, the
//! [`obs_count!`]/[`obs_gauge!`]/[`obs_record!`] macros expand to a dead
//! `if false` branch (their arguments typecheck but never run), and no
//! wall clock is ever consulted — instrumented hot paths compile to
//! exactly the uninstrumented code. [`enabled`] reports which mode was compiled so
//! callers can gate setup work.
//!
//! # Naming scheme
//!
//! Metric names are `subsystem.noun_verb` (or `noun_unit` for
//! measurements): `tm.timeouts_total`, `core.greedy_benefit_delta`,
//! `eventsim.queue_depth_hwm`, `tm.probe_rtt_ms`. Counters end in
//! `_total`, histograms carry their unit suffix, gauges name the level
//! they track.

pub mod json;
pub mod report;
pub mod trace;

#[cfg(not(feature = "obs-off"))]
mod metrics;
#[cfg(not(feature = "obs-off"))]
pub use metrics::{Counter, EventRecord, Gauge, Histogram, Registry, Span};

#[cfg(feature = "obs-off")]
mod noop;
#[cfg(feature = "obs-off")]
pub use noop::{Counter, EventRecord, Gauge, Histogram, Registry, Span};

pub use report::{
    bucket_index, bucket_upper_bound, HistogramSnapshot, MetricSnapshot, RunReport, Section,
    Snapshot, Value, BUCKETS,
};
pub use trace::{
    chrome_trace_json, fnv1a, Fnv1a, RollbackReason, TraceEvent, TraceId, TraceKind, TraceSink,
};

/// True when telemetry is compiled in (the `obs-off` feature is absent).
///
/// A `const fn`, so `if painter_obs::enabled() { ... }` folds away under
/// `obs-off` — use it to skip setup work (e.g. reading the wall clock)
/// that the no-op metric methods would otherwise still force.
pub const fn enabled() -> bool {
    cfg!(not(feature = "obs-off"))
}

/// Increments (or adds to) a named counter: `obs_count!(reg, "x_total")`
/// or `obs_count!(reg, "x_total", n)`. Under `obs-off` the arguments
/// land in a dead branch: they typecheck but never run.
#[cfg(not(feature = "obs-off"))]
#[macro_export]
macro_rules! obs_count {
    ($reg:expr, $name:expr) => {
        $reg.counter($name).inc()
    };
    ($reg:expr, $name:expr, $n:expr) => {
        $reg.counter($name).add($n)
    };
}

/// No-op form of [`obs_count!`] (`obs-off` build). The arguments still
/// typecheck (and count as used) inside a dead `if false` branch that the
/// compiler removes, so call sites lint identically in both modes.
#[cfg(feature = "obs-off")]
#[macro_export]
macro_rules! obs_count {
    ($reg:expr, $name:expr) => {{
        if false {
            let _ = (&$reg, $name);
        }
    }};
    ($reg:expr, $name:expr, $n:expr) => {{
        if false {
            let _ = (&$reg, $name, $n);
        }
    }};
}

/// Sets a named gauge: `obs_gauge!(reg, "depth", v)`. Under `obs-off`
/// the arguments land in a dead branch: they typecheck but never run.
#[cfg(not(feature = "obs-off"))]
#[macro_export]
macro_rules! obs_gauge {
    ($reg:expr, $name:expr, $v:expr) => {
        $reg.gauge($name).set($v)
    };
}

/// No-op form of [`obs_gauge!`] (`obs-off` build). Arguments typecheck
/// in a dead branch; nothing runs.
#[cfg(feature = "obs-off")]
#[macro_export]
macro_rules! obs_gauge {
    ($reg:expr, $name:expr, $v:expr) => {{
        if false {
            let _ = (&$reg, $name, $v);
        }
    }};
}

/// Records a value into a named histogram:
/// `obs_record!(reg, "rtt_ms", v)`. Under `obs-off` the arguments land
/// in a dead branch: they typecheck but never run.
#[cfg(not(feature = "obs-off"))]
#[macro_export]
macro_rules! obs_record {
    ($reg:expr, $name:expr, $v:expr) => {
        $reg.histogram($name).record($v)
    };
}

/// No-op form of [`obs_record!`] (`obs-off` build). Arguments typecheck
/// in a dead branch; nothing runs.
#[cfg(feature = "obs-off")]
#[macro_export]
macro_rules! obs_record {
    ($reg:expr, $name:expr, $v:expr) => {{
        if false {
            let _ = (&$reg, $name, $v);
        }
    }};
}

#[cfg(test)]
mod macro_tests {
    use crate::Registry;

    #[test]
    fn macros_compile_in_both_modes() {
        let reg = Registry::new();
        obs_count!(reg, "m.count_total");
        obs_count!(reg, "m.count_total", 4);
        obs_gauge!(reg, "m.level", 2.5);
        obs_record!(reg, "m.lat_ms", 17.0);
        let snap = reg.snapshot();
        if crate::enabled() {
            assert_eq!(snap.counter("m.count_total"), Some(5));
            assert_eq!(snap.gauge("m.level"), Some(2.5));
            assert_eq!(snap.histogram("m.lat_ms").map(|h| h.count), Some(1));
        } else {
            assert!(snap.metrics.is_empty());
        }
    }
}
