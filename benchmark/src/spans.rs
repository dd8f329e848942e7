//! The benchmark's own trace: one span around every call it makes into a
//! layer, kept in memory and written out when the run ends.
//!
//! No span lives inside the program under test. What the program already
//! reports about itself (profile nodes, counters) is attached to the span
//! of the call that produced it as *aggregates*: totals without start and
//! end, which therefore take no part in the self-time arithmetic.

use cex_core::json::{obj, Json};
use std::time::{Duration, Instant};

/// Handle of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// A total the program reported for work done inside a span. A node the
/// program no longer reports keeps its name with `total` and `count`
/// unset, and is written as `null` — never as zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Profile-node or counter name, as the program spells it.
    pub name: String,
    /// Accumulated wall time, for profile nodes.
    pub total: Option<Duration>,
    /// Occurrences (profile node) or value (counter).
    pub count: Option<u64>,
}

#[derive(Debug, Clone)]
struct SpanRec {
    name: String,
    start: Duration,
    end: Option<Duration>,
    parent: Option<usize>,
    aggregates: Vec<Aggregate>,
}

/// In-memory span recorder; spans nest by call order.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans { origin: Instant::now(), recs: Vec::new(), open: Vec::new() }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let start = self.origin.elapsed();
        self.enter_at(name, start)
    }

    fn enter_at(&mut self, name: &str, start: Duration) -> SpanId {
        let id = self.recs.len();
        self.recs.push(SpanRec {
            name: name.to_string(),
            start,
            end: None,
            parent: self.open.last().copied(),
            aggregates: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span, and returns
    /// its duration.
    pub fn exit(&mut self, id: SpanId) -> Duration {
        let end = self.origin.elapsed();
        self.exit_at(id, end)
    }

    fn exit_at(&mut self, id: SpanId, end: Duration) -> Duration {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let rec = &mut self.recs[id.0];
        rec.end = Some(end);
        end - rec.start
    }

    /// Runs `f` inside a leaf span and returns its result and duration.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Attaches program-reported totals to a span.
    pub fn attach(&mut self, id: SpanId, aggregates: Vec<Aggregate>) {
        self.recs[id.0].aggregates.extend(aggregates);
    }

    fn duration(&self, idx: usize) -> Duration {
        let rec = &self.recs[idx];
        rec.end.unwrap_or(rec.start) - rec.start
    }

    /// A span's duration minus the durations of its direct children.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let children: Duration = (0..self.recs.len())
            .filter(|i| self.recs[*i].parent == Some(id.0))
            .map(|i| self.duration(i))
            .sum();
        self.duration(id.0).saturating_sub(children)
    }

    /// The whole trace as one JSON document (times in microseconds since
    /// the recorder started).
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let us = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
        let spans = (0..self.recs.len())
            .map(|i| {
                let rec = &self.recs[i];
                let aggregates = rec
                    .aggregates
                    .iter()
                    .map(|a| {
                        obj(vec![
                            ("name", Json::Str(a.name.clone())),
                            ("total_us", a.total.map_or(Json::Null, us)),
                            ("count", a.count.map_or(Json::Null, |c| Json::Num(c as f64))),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("id", Json::Num(i as f64)),
                    ("name", Json::Str(rec.name.clone())),
                    ("parent", rec.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("workload", Json::Str(workload.to_string())),
                    ("start_us", us(rec.start)),
                    ("end_us", us(rec.end.unwrap_or(rec.start))),
                    ("self_us", us(self.self_time(SpanId(i)))),
                    ("aggregates", Json::Arr(aggregates)),
                ])
            })
            .collect();
        obj(vec![
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut spans = Spans::new();
        let root = spans.enter_at("rep", ms(0));
        let exec = spans.enter_at("execute_journaled", ms(10));
        let inner = spans.enter_at("inner", ms(20));
        assert_eq!(spans.exit_at(inner, ms(50)), ms(30));
        assert_eq!(spans.exit_at(exec, ms(70)), ms(60));
        let encode = spans.enter_at("to_jsonl", ms(70));
        spans.exit_at(encode, ms(85));
        assert_eq!(spans.exit_at(root, ms(100)), ms(100));
        // rep: 100 - (60 + 15); the grandchild is not subtracted twice.
        assert_eq!(spans.self_time(root), ms(25));
        assert_eq!(spans.self_time(exec), ms(30));
        assert_eq!(spans.self_time(inner), ms(30));
    }

    #[test]
    fn aggregates_stay_out_of_self_time_and_missing_ones_print_null() {
        let mut spans = Spans::new();
        let exec = spans.enter_at("execute_journaled", ms(0));
        spans.exit_at(exec, ms(40));
        spans.attach(
            exec,
            vec![
                Aggregate { name: "sim.window".into(), total: Some(ms(30)), count: Some(3) },
                Aggregate { name: "gone.node".into(), total: None, count: None },
            ],
        );
        assert_eq!(spans.self_time(exec), ms(40));
        let text = spans.to_json("w", 42).to_string();
        let parsed = Json::parse(&text).expect("trace file is valid JSON");
        let span = &parsed.get("spans").and_then(Json::as_arr).expect("spans")[0];
        assert_eq!(span.get("self_us").and_then(Json::as_f64), Some(40_000.0));
        assert!(span.get("parent").expect("parent key").is_null());
        let aggs = span.get("aggregates").and_then(Json::as_arr).expect("aggregates");
        assert_eq!(aggs[0].get("total_us").and_then(Json::as_f64), Some(30_000.0));
        assert!(aggs[1].get("total_us").expect("key kept").is_null());
        assert!(aggs[1].get("count").expect("key kept").is_null());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut spans = Spans::new();
        let outer = spans.enter("outer");
        let _inner = spans.enter("inner");
        spans.exit(outer);
    }
}
