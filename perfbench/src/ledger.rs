//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written out as a Chrome trace when the run ends. Each
//! span names its layer; a layer's self time is its span's duration minus
//! the part its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use bw_trace::chrome::ArgValue;
use bw_trace::{chrome_trace_json, validate_chrome_trace, ChromeEvent};

use crate::stats::summarize;
use crate::Outcome;

/// Requests whose spans are kept for the exported trace; self times are
/// accumulated for every request.
const EXPORTED_REQUESTS: usize = 2_000;

/// One span of one request.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `worker.service`.
    pub name: &'static str,
    /// Start.
    pub start: Instant,
    /// End (not before `start`).
    pub end: Instant,
    /// Index of the parent span within the same request.
    pub parent: Option<usize>,
    /// Numeric attributes (Attribution legs, cycles).
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// A span with no parent and no attributes.
    pub fn root(name: &'static str, start: Instant, end: Instant) -> Span {
        Span {
            name,
            start,
            end: end.max(start),
            parent: None,
            args: Vec::new(),
        }
    }

    /// A child of span `parent`.
    pub fn child(name: &'static str, start: Instant, end: Instant, parent: usize) -> Span {
        Span {
            parent: Some(parent),
            ..Span::root(name, start, end)
        }
    }
}

/// The span log of one traced run (or of one thread, merged later).
#[derive(Debug, Default)]
pub struct Ledger {
    self_us: BTreeMap<&'static str, Vec<f64>>,
    kept: Vec<(u64, Vec<Span>)>,
    requests: u64,
}

impl Ledger {
    /// Records the spans of one request (or probe call).
    pub fn request(&mut self, spans: Vec<Span>) {
        for (name, us) in self_times(&spans) {
            self.self_us.entry(name).or_default().push(us);
        }
        if self.kept.len() < EXPORTED_REQUESTS {
            self.kept.push((self.requests, spans));
        }
        self.requests += 1;
    }

    /// Folds another thread's log into this one.
    pub fn merge(&mut self, other: Ledger) {
        for (name, mut v) in other.self_us {
            self.self_us.entry(name).or_default().append(&mut v);
        }
        let room = EXPORTED_REQUESTS.saturating_sub(self.kept.len());
        for (id, spans) in other.kept.into_iter().take(room) {
            self.kept.push((self.requests + id, spans));
        }
        self.requests += other.requests;
    }

    /// One line per span name: count, p50 and total self time.
    fn self_time_table(&self) -> Vec<String> {
        self.self_us
            .iter()
            .map(|(name, v)| {
                let s = summarize(v, 99.0);
                format!(
                    "self time {name:<24} n {:>8}  p50 {:>10.2} us  total {:>10.2} ms",
                    s.n,
                    s.p50,
                    v.iter().sum::<f64>() / 1e3
                )
            })
            .collect()
    }

    /// Adds the self-time table to `out` and writes the Chrome trace to
    /// `perfbench/out/trace-<workload>-<seed>.json`.
    pub fn finish(&self, out: &mut Outcome, workload: &str, seed: u64) {
        for line in self.self_time_table() {
            out.note(line);
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}-{seed}.json"));
        let json = self.chrome_json();
        let spans = match validate_chrome_trace(&json) {
            Ok(n) => n,
            Err(e) => {
                out.failures
                    .push(format!("the span export is not a valid Chrome trace: {e}"));
                return;
            }
        };
        let written = std::fs::create_dir_all(path.parent().expect("a file in a directory"))
            .and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => out.note(format!("{spans} spans written to {}", path.display())),
            Err(e) => out.note(format!("spans not written: {e}")),
        }
    }

    /// The kept spans as a Chrome trace (one lane per request).
    fn chrome_json(&self) -> String {
        let origin = self
            .kept
            .iter()
            .flat_map(|(_, s)| s.iter().map(|s| s.start))
            .min();
        let mut events = Vec::new();
        for (id, spans) in &self.kept {
            for s in spans {
                let mut args = vec![("request".to_owned(), ArgValue::Int(*id))];
                if let Some(p) = s.parent {
                    args.push(("parent".to_owned(), ArgValue::Str(spans[p].name.to_owned())));
                }
                args.extend(
                    s.args
                        .iter()
                        .map(|(k, v)| (k.to_string(), ArgValue::Int(*v))),
                );
                events.push(ChromeEvent {
                    name: s.name.to_owned(),
                    cat: s.name.split('.').next().unwrap_or("bench").to_owned(),
                    ph: 'X',
                    ts_us: origin.map_or(0.0, |o| (s.start - o).as_secs_f64() * 1e6),
                    dur_us: Some((s.end - s.start).as_secs_f64() * 1e6),
                    pid: 1,
                    tid: *id,
                    args,
                });
            }
        }
        chrome_trace_json(&events)
    }
}

/// Self time of every span of one request, in microseconds: its duration
/// minus the union of its children's intervals (clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids: Vec<(Instant, Instant)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start.clamp(s.start, s.end), c.end.clamp(s.start, s.end)))
                .collect();
            kids.sort();
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += (b - a).as_secs_f64();
                    cursor = b;
                }
            }
            (s.name, ((s.end - s.start).as_secs_f64() - covered) * 1e6)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let us = |n: u64| t0 + Duration::from_micros(n);
        let spans = vec![
            Span::root("request", us(0), us(100)),
            Span::child("a", us(10), us(40), 0),
            // Overlaps `a`: the shared 10 µs counts once.
            Span::child("b", us(30), us(50), 0),
            // Sticks out past the parent: clipped.
            Span::child("c", us(90), us(130), 0),
            Span::child("a.inner", us(10), us(20), 1),
        ];
        let st = self_times(&spans);
        let get = |n: &str| st.iter().find(|(k, _)| *k == n).unwrap().1;
        assert!((get("request") - 50.0).abs() < 1e-6);
        assert!((get("a") - 20.0).abs() < 1e-6);
        assert!((get("b") - 20.0).abs() < 1e-6);
        assert!((get("c") - 40.0).abs() < 1e-6);

        let mut ledger = Ledger::default();
        ledger.request(spans);
        assert_eq!(validate_chrome_trace(&ledger.chrome_json()), Ok(5));
    }
}
