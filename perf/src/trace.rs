//! The benchmark's own span recorder.
//!
//! Spans are taken from outside the system, around calls into a layer's
//! public functions, kept in memory and written out (as Chrome-trace JSON)
//! only when the run ends. A disabled tracer still times its closure but
//! records nothing, so traced and untraced rounds run the same code.

use painter_obs::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The round (counted per run, set-up is round 0) the span belongs to.
    pub round: u32,
}

/// Records spans and per-round counts while enabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
    values: BTreeMap<String, Vec<f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            values: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; the harness uses this to run untraced and
    /// traced rounds in one process.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts the next round; later spans carry its number.
    pub fn next_round(&mut self) {
        self.round += 1;
    }

    /// Runs `f` inside a span called `name` and returns its result with the
    /// wall time it took. The closure gets the tracer back for nested spans.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                round: self.round,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let seconds = start.elapsed().as_secs_f64();
        if let Some(slot) = slot {
            self.spans[slot].end_ns = self.spans[slot].start_ns + (seconds * 1e9) as u64;
            self.open.pop();
        }
        (out, seconds)
    }

    /// Records one sample of a count or a derived figure.
    pub fn value(&mut self, name: &str, v: f64) {
        if self.enabled {
            self.values.entry(name.to_string()).or_default().push(v);
        }
    }

    /// Every sample recorded under `name`: span durations in seconds, then
    /// values.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        out.extend(self.values.get(name).into_iter().flatten());
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome-trace document (`chrome://tracing`, Perfetto):
    /// complete events in microseconds, one track, round and parent in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_str(&mut out, &s.name);
            out.push_str(",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":");
            json::write_f64(&mut out, s.start_ns as f64 / 1e3);
            out.push_str(",\"dur\":");
            json::write_f64(&mut out, (s.end_ns - s.start_ns) as f64 / 1e3);
            out.push_str(",\"args\":{\"id\":");
            json::write_f64(&mut out, i as f64);
            out.push_str(",\"round\":");
            json::write_f64(&mut out, f64::from(s.round));
            out.push_str(",\"parent\":");
            match s.parent {
                Some(p) => json::write_f64(&mut out, p as f64),
                None => out.push_str("null"),
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_parse_as_json() {
        let mut tr = Tracer::new(true);
        tr.next_round();
        tr.span("outer", |tr| {
            tr.span("inner", |_| ());
        });
        tr.value("count", 3.0);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].round, 1);
        assert_eq!(tr.samples("count"), vec![3.0]);
        let doc = json::parse(&tr.chrome_json()).expect("valid json");
        assert_eq!(doc.get("traceEvents").and_then(|v| v.as_array()).map(|a| a.len()), Some(2));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let ((), seconds) = tr.span("x", |_| ());
        tr.value("y", 1.0);
        assert!(seconds >= 0.0);
        assert!(tr.spans().is_empty() && tr.samples("y").is_empty());
    }
}
