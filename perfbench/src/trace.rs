//! In-memory spans recorded around calls into the workspace's crates.
//!
//! A span names the layer it covers, its interval and the span that caused it; all
//! spans of one request share the request id. Spans the benchmark cannot time itself
//! (queue wait, engine time, solver time) are placed inside their parent from the
//! durations the call returned. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use tagdm_engine::SolveResponse;

use crate::stats::median;

/// One recorded interval, in nanoseconds since the run's trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u64,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub layer: &'static str,
    pub start: u64,
    pub end: u64,
}

/// The client's span buffer.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record `[start, end]` under `parent`; returns the new span's id.
    pub fn record(
        &mut self,
        request: u64,
        parent: u64,
        layer: &'static str,
        start: u64,
        end: u64,
    ) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.spans.push(Span {
            request,
            id,
            parent,
            layer,
            start,
            end: end.max(start),
        });
        id
    }

    /// Record one request: the client span, the call into `layer`, and the spans the
    /// response's own durations place inside that call.
    pub fn request(
        &mut self,
        request: u64,
        client: (Instant, Instant),
        call: (Instant, Instant),
        layer: &'static str,
        response: &SolveResponse,
    ) {
        let (c0, c1) = (self.at(client.0), self.at(client.1));
        let (t0, t1) = (self.at(call.0), self.at(call.1));
        let root = self.record(request, 0, "client", c0, c1);
        let call_id = self.record(request, root, layer, t0, t1);
        let total = nanos(response.total).min(t1 - t0);
        // The engine's own interval: the call itself in-process, centred inside the
        // call when a transport and a router surround it.
        let (engine_id, e0) = if layer == "engine" {
            (call_id, t0)
        } else {
            let e0 = t0 + (t1 - t0 - total) / 2;
            (self.record(request, call_id, "engine", e0, e0 + total), e0)
        };
        let queue = nanos(response.queue_wait).min(total);
        self.record(request, engine_id, "engine.queue", e0, e0 + queue);
        if let Ok(outcome) = &response.result {
            if !response.cache.outcome_hit {
                let solve = nanos(outcome.elapsed).min(total - queue);
                self.record(
                    request,
                    engine_id,
                    "core.solve",
                    e0 + total - solve,
                    e0 + total,
                );
            }
        }
    }
}

fn nanos(duration: Duration) -> u64 {
    duration.as_nanos() as u64
}

/// Per-layer self times, summed per request.
pub struct SelfTimes {
    /// layer → self time (µs) of each traced request (0 where the request has no
    /// span of that layer).
    pub per_layer: BTreeMap<&'static str, Vec<f64>>,
}

/// Self time of every span: its duration minus the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    let mut by_request: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    let mut layers: Vec<&'static str> = Vec::new();
    for span in spans {
        let covered = children
            .get(&span.id)
            .map_or(0, |c| union_len(c, span.start, span.end));
        let own = (span.end - span.start).saturating_sub(covered);
        *by_request
            .entry(span.request)
            .or_default()
            .entry(span.layer)
            .or_default() += own;
        if !layers.contains(&span.layer) {
            layers.push(span.layer);
        }
    }
    let per_layer = layers
        .into_iter()
        .map(|layer| {
            let values = by_request
                .values()
                .map(|own| own.get(layer).copied().unwrap_or(0) as f64 / 1e3)
                .collect();
            (layer, values)
        })
        .collect();
    SelfTimes { per_layer }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.clamp(lo, hi), e.clamp(lo, hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

impl SelfTimes {
    /// One line per layer: median self time in µs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (layer, values) in &self.per_layer {
            let _ = write!(out, "{layer}={:.1}us ", median(values));
        }
        out
    }
}

/// The trace file: a summary line per layer, then the spans of the first
/// `keep_requests` traced requests, one JSON object per line.
pub fn render_file(spans: &[Span], times: &SelfTimes, keep_requests: u64) -> String {
    let mut out = String::new();
    for (layer, values) in &times.per_layer {
        let total: f64 = values.iter().sum();
        let _ = writeln!(
            out,
            "{{\"layer\":\"{layer}\",\"requests\":{},\"self_us_p50\":{},\"self_us_total\":{}}}",
            values.len(),
            median(values),
            total
        );
    }
    // Request ids count on from earlier phases.
    let first = spans.iter().map(|s| s.request).min().unwrap_or(0);
    for span in spans.iter().filter(|s| s.request - first < keep_requests) {
        let _ = writeln!(
            out,
            "{{\"request\":{},\"id\":{},\"parent\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.request, span.id, span.parent, span.layer, span.start, span.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            Span {
                request: 1,
                id: 1,
                parent: 0,
                layer: "client",
                start: 0,
                end: 100,
            },
            Span {
                request: 1,
                id: 2,
                parent: 1,
                layer: "engine",
                start: 10,
                end: 90,
            },
            Span {
                request: 1,
                id: 3,
                parent: 2,
                layer: "engine.queue",
                start: 10,
                end: 30,
            },
            Span {
                request: 1,
                id: 4,
                parent: 2,
                layer: "core.solve",
                start: 30,
                end: 80,
            },
        ];
        let times = self_times(&spans);
        assert_eq!(times.per_layer["client"], vec![0.02]);
        assert_eq!(times.per_layer["engine"], vec![0.01]);
        assert_eq!(times.per_layer["core.solve"], vec![0.05]);
    }
}
