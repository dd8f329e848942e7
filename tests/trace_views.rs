//! One trace, every view. Health, blame and the interaction graph all fold
//! `Trace::hops`; this pins what each of them counts on one hand-built
//! trace that carries every span kind — and that a weight-3 trace equals
//! three copies, and that span ids need not be positions, in every view.
//! (The engine's trace-scoped samples are the fourth consumer; their column
//! is asserted on the same trace shape in `bifrost::engine`'s own tests.)

use cex_core::simtime::{SimDuration, SimTime};
use cex_core::sketch::QuantileSketch;
use microsim::app::{Application, EndpointDef, VersionId, VersionSpec};
use microsim::corpus::BlameAccumulator;
use microsim::health::HealthAccumulator;
use microsim::latency::LatencyModel;
use microsim::trace::{EdgeKey, Span, SpanBook, SpanId, SpanStatus, Trace, TraceId};
use topology::build::{build_graph, BuildOptions};
use topology::{InteractionGraph, NodeKey};

/// `fe/home`, `be/api` at 1.0.0 and 2.0.0 (the dark candidate), `db/q`.
fn app() -> Application {
    let mut b = Application::builder();
    for (service, version, endpoint) in [
        ("fe", "1.0.0", "home"),
        ("be", "1.0.0", "api"),
        ("be", "2.0.0", "api"),
        ("db", "1.0.0", "q"),
    ] {
        b.version(
            VersionSpec::new(service, version)
                .endpoint(EndpointDef::new(endpoint, LatencyModel::Constant { ms: 1.0 })),
        );
    }
    b.build().unwrap()
}

fn version(app: &Application, label: &str) -> VersionId {
    let (service, tag) = label.split_once('@').unwrap();
    app.version_id(service, tag).unwrap()
}

/// The trace, spans numbered from `first_id`:
///
/// ```text
/// 0 fe@1/home  ok        100 ms
/// 1 ├ be@1/api failed     30 ms            (failed because its child did)
/// 2 │ └ db@1/q failed     10 ms            (the origin)
/// 3 ├ be@1/api timed_out  20 ms  attempt 1 (a retry, and an origin)
/// 4 ├ be@1/api shed        0 ms
/// 5 ├ be@1/api fallback    1 ms
/// 6 └ be@2/api ok         15 ms  dark
/// 7   └ db@1/q ok          5 ms  dark
/// ```
fn trace(app: &Application, first_id: u32, weight: u32) -> Trace {
    use SpanStatus::{Failed, Fallback, Ok, Shed, TimedOut};
    let rows = [
        (None, "fe@1.0.0", Ok, 100, 0, false),
        (Some(0), "be@1.0.0", Failed, 30, 0, false),
        (Some(1), "db@1.0.0", Failed, 10, 0, false),
        (Some(0), "be@1.0.0", TimedOut, 20, 1, false),
        (Some(0), "be@1.0.0", Shed, 0, 0, false),
        (Some(0), "be@1.0.0", Fallback, 1, 0, false),
        (Some(0), "be@2.0.0", Ok, 15, 0, true),
        (Some(6), "db@1.0.0", Ok, 5, 0, true),
    ];
    let spans = rows
        .into_iter()
        .zip(first_id..)
        .map(|((parent, label, status, ms, attempt, dark), id)| {
            let version = version(app, label);
            Span {
                span: SpanId(id),
                parent: parent.map(|p: u32| SpanId(first_id + p)),
                version,
                endpoint: app.version(version).endpoints[0],
                start: SimTime::from_millis(0),
                duration: SimDuration::from_millis(ms),
                status,
                attempt,
                dark,
            }
        })
        .collect();
    Trace { id: TraceId(1), spans, weight }
}

fn edge(app: &Application, caller: Option<&str>, callee: &str) -> EdgeKey {
    let callee = version(app, callee);
    EdgeKey {
        caller: caller.map(|c| version(app, c)),
        callee,
        endpoint: app.version(callee).endpoints[0],
    }
}

fn health(traces: &[Trace]) -> HealthAccumulator {
    let mut acc = HealthAccumulator::new();
    acc.observe_all(traces);
    acc
}

fn blame(traces: &[Trace]) -> BlameAccumulator {
    let mut acc = BlameAccumulator::new();
    traces.iter().for_each(|t| acc.observe_trace(t));
    acc
}

fn graphs(traces: &[Trace], book: &SpanBook) -> [InteractionGraph; 2] {
    [true, false].map(|include_dark| build_graph(traces, book, BuildOptions { include_dark }))
}

/// Both inputs read the same in every weighted view.
fn assert_same_views(a: &[Trace], b: &[Trace], book: &SpanBook) {
    let (ha, hb) = (health(a), health(b));
    assert_eq!(ha.edges(), hb.edges(), "health edges");
    assert_eq!(ha.critical_sinks(), hb.critical_sinks(), "health critical sinks");
    assert_eq!((ha.traces(), ha.failed_traces()), (hb.traces(), hb.failed_traces()));
    let columns = |acc: BlameAccumulator| -> Vec<(EdgeKey, u64, u64, QuantileSketch)> {
        acc.edges().iter().map(|(k, s)| (*k, s.calls, s.blamed, s.self_latency.clone())).collect()
    };
    assert_eq!(columns(blame(a)), columns(blame(b)), "blame");
    assert_eq!(graphs(a, book), graphs(b, book), "graph");
}

#[test]
fn one_trace_every_view() {
    let app = app();
    let book = SpanBook::from_app(&app);
    let traces = [trace(&app, 0, 1)];
    let edges = [
        edge(&app, None, "fe@1.0.0"),
        edge(&app, Some("fe@1.0.0"), "be@1.0.0"),
        edge(&app, Some("be@1.0.0"), "db@1.0.0"),
    ];

    // Health: dark spans are off the user path; sheds and fallbacks are
    // counters beside the executed calls, not calls.
    // [calls, errors, retries, timeouts, sheds, fallbacks, sketch count]
    let acc = health(&traces);
    let columns: Vec<(EdgeKey, [u64; 7])> = acc
        .edges()
        .iter()
        .map(|(k, s)| {
            let sketched = s.latency.count();
            (*k, [s.calls, s.errors, s.retries, s.timeouts, s.sheds, s.fallbacks, sketched])
        })
        .collect();
    let expected = vec![
        (edges[0], [1, 0, 0, 0, 0, 0, 1]),
        (edges[1], [2, 2, 1, 1, 1, 1, 2]),
        (edges[2], [1, 1, 0, 0, 0, 0, 1]),
    ];
    assert_eq!(columns, expected, "health");
    assert_eq!((acc.traces(), acc.failed_traces()), (1, 0));

    // Blame: executed primary spans only, so `calls` equals health's edge
    // for edge; a failure is blamed where it originated (the db leaf and
    // the timed-out retry, not the parent that failed because of its
    // child); self time is duration minus primary children.
    let localizer = blame(&traces);
    let expected_blamed = [0, 1, 1];
    let expected_self_ms: [&[f64]; 3] = [&[100.0 - 51.0], &[30.0 - 10.0, 20.0], &[10.0]];
    assert_eq!(localizer.edges().len(), 3, "blame edges");
    for ((key, blamed), self_ms) in edges.iter().zip(expected_blamed).zip(expected_self_ms) {
        let stats = localizer.edges().get(key).unwrap();
        let health_calls = acc.edges().get(key).unwrap().calls;
        assert_eq!(stats.calls, health_calls, "blame calls = health calls on {key:?}");
        assert_eq!(stats.blamed, blamed, "blamed on {key:?}");
        let mut sketch = QuantileSketch::for_latency();
        self_ms.iter().for_each(|ms| sketch.push(*ms));
        assert_eq!(stats.self_latency, sketch, "self time on {key:?}");
    }

    // Graph: every status is a served hop, dark hops too unless excluded.
    // (node, served, failed, total ms, callers → calls)
    type Row<'a> = (&'a str, u64, u64, f64, &'a [(&'a str, u64)]);
    let check = |graph: &InteractionGraph, rows: &[Row<'_>], label: &str| {
        assert_eq!(graph.node_count(), rows.len(), "{label}: nodes");
        let node = |name: &str| {
            let (service, rest) = name.split_once('@').unwrap();
            let (tag, endpoint) = rest.split_once('/').unwrap();
            let key = NodeKey::new(service, tag, endpoint);
            graph.node(&key).unwrap_or_else(|| panic!("{label}: {name} missing"))
        };
        for (name, served, failed, total_ms, callers) in rows {
            let idx = node(name);
            let stats = graph.stats(idx);
            assert_eq!(
                (stats.served, stats.failed, stats.total_rt_ms),
                (*served, *failed, *total_ms),
                "{label}: {name}"
            );
            assert_eq!(graph.callers(idx).len(), callers.len(), "{label}: callers of {name}");
            for (caller, calls) in *callers {
                let out = graph.out_edges(node(caller));
                let (_, edge) = out.iter().find(|(to, _)| *to == idx).unwrap();
                assert_eq!(edge.calls, *calls, "{label}: {caller} -> {name}");
            }
        }
    };
    let [with_dark, without_dark] = graphs(&traces, &book);
    check(
        &with_dark,
        &[
            ("fe@1.0.0/home", 1, 0, 100.0, &[]),
            ("be@1.0.0/api", 4, 3, 51.0, &[("fe@1.0.0/home", 4)]),
            ("db@1.0.0/q", 2, 1, 15.0, &[("be@1.0.0/api", 1), ("be@2.0.0/api", 1)]),
            ("be@2.0.0/api", 1, 0, 15.0, &[("fe@1.0.0/home", 1)]),
        ],
        "graph with dark",
    );
    check(
        &without_dark,
        &[
            ("fe@1.0.0/home", 1, 0, 100.0, &[]),
            ("be@1.0.0/api", 4, 3, 51.0, &[("fe@1.0.0/home", 4)]),
            ("db@1.0.0/q", 1, 1, 10.0, &[("be@1.0.0/api", 1)]),
        ],
        "graph without dark",
    );
    // A primary node's `served` is health's calls + sheds + fallbacks,
    // summed over its callers.
    for node in without_dark.nodes() {
        let key = without_dark.key(node);
        let callee = version(&app, &format!("{}@{}", key.service, key.version));
        let over_callers: u64 = acc
            .edges()
            .iter()
            .filter(|(k, _)| k.callee == callee)
            .map(|(_, s)| s.calls + s.sheds + s.fallbacks)
            .sum();
        assert_eq!(without_dark.stats(node).served, over_callers, "{key}");
    }
}

#[test]
fn a_weight_three_trace_is_three_copies_in_every_weighted_view() {
    let app = app();
    let copies = [trace(&app, 0, 1), trace(&app, 0, 1), trace(&app, 0, 1)];
    assert_same_views(&[trace(&app, 0, 3)], &copies, &SpanBook::from_app(&app));
}

#[test]
fn span_ids_need_not_be_positions_in_any_view() {
    let app = app();
    assert_same_views(&[trace(&app, 0, 1)], &[trace(&app, 10, 1)], &SpanBook::from_app(&app));
}
