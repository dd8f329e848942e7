//! Building interaction graphs from distributed traces.
//!
//! "The addition, removal, or version updates of services are reflected in
//! those traces, which enables us to identify changes on the topological
//! level when comparing user traces of experimental and baseline versions
//! of the application" (Section 1.2.4). The builder aggregates a set of
//! traces — as collected by the microsim trace collector, structurally
//! identical to Zipkin/Jaeger output — into one [`InteractionGraph`].

use crate::graph::{InteractionGraph, NodeIdx, NodeKey};
use microsim::trace::{Span, SpanBook, Trace};

/// Options for graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Include spans that served mirrored (dark-launch) traffic. Dark
    /// hops are real topology — a dark-launched version's outgoing calls
    /// are exactly what health assessment should surface — so the default
    /// is `true`.
    pub include_dark: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { include_dark: true }
    }
}

/// Builds an interaction graph from traces, resolving the spans' interned
/// identity through `book` (see [`SpanBook`]). Each hop counts
/// [`Trace::weight`] times, so a tail-sampled capture yields the rates and
/// means of the traffic it stands for.
pub fn build_graph(traces: &[Trace], book: &SpanBook, options: BuildOptions) -> InteractionGraph {
    let mut graph = InteractionGraph::new();
    // Endpoint ids are dense and belong to one version each, so they key
    // the node table: names resolve on first sight, in first-seen order.
    let mut nodes: Vec<Option<NodeIdx>> = Vec::new();
    let mut node_of = |graph: &mut InteractionGraph, span: &Span| {
        if nodes.len() <= span.endpoint.0 {
            nodes.resize(span.endpoint.0 + 1, None);
        }
        *nodes[span.endpoint.0].get_or_insert_with(|| {
            graph.intern(NodeKey::new(
                book.service_name(book.service_of(span.version)),
                book.version_tag(span.version),
                &*book.endpoint_name(span.endpoint),
            ))
        })
    };
    let counts = |span: &Span| options.include_dark || !span.dark;
    for trace in traces {
        for hop in trace.hops().filter(|hop| counts(hop.span)) {
            let node = node_of(&mut graph, hop.span);
            let from = hop.caller.filter(|(_, caller)| counts(caller));
            let from = from.map(|(_, caller)| node_of(&mut graph, caller));
            for _ in 0..trace.weight {
                graph.observe_node(node, hop.span.duration, hop.span.status.is_ok());
                if let Some(from) = from {
                    graph.observe_edge(from, node);
                }
            }
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use cex_core::simtime::{SimDuration, SimTime};
    use microsim::app::{Application, EndpointDef, VersionSpec};
    use microsim::latency::LatencyModel;
    use microsim::trace::{SpanId, SpanStatus, TraceId};

    /// fe, be, and dark-be, each serving `api` at version 1.0.0.
    fn fixture_app() -> Application {
        let mut b = Application::builder();
        for svc in ["fe", "be", "dark-be"] {
            b.version(
                VersionSpec::new(svc, "1.0.0")
                    .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 1.0 })),
            );
        }
        b.build().unwrap()
    }

    fn span(app: &Application, id: u32, parent: Option<u32>, svc: &str, dark: bool) -> Span {
        let version = app.version_id(svc, "1.0.0").unwrap();
        Span {
            span: SpanId(id),
            parent: parent.map(SpanId),
            version,
            endpoint: app.endpoint_of(version, "api").unwrap(),
            start: SimTime::from_millis(0),
            duration: SimDuration::from_millis(10),
            status: SpanStatus::Ok,
            attempt: 0,
            dark,
        }
    }

    fn traces(app: &Application) -> Vec<Trace> {
        vec![
            Trace::new(
                TraceId(1),
                vec![
                    span(app, 0, None, "fe", false),
                    span(app, 1, Some(0), "be", false),
                    span(app, 2, Some(0), "dark-be", true),
                ],
            ),
            Trace::new(
                TraceId(2),
                vec![span(app, 0, None, "fe", false), span(app, 1, Some(0), "be", false)],
            ),
        ]
    }

    #[test]
    fn graph_aggregates_across_traces() {
        let app = fixture_app();
        let book = SpanBook::from_app(&app);
        let g = build_graph(&traces(&app), &book, BuildOptions::default());
        assert_eq!(g.node_count(), 3);
        let fe = g.find_unversioned("fe", "api").unwrap();
        let be = g.find_unversioned("be", "api").unwrap();
        assert_eq!(g.stats(fe).served, 2);
        assert_eq!(g.stats(be).served, 2);
        let (_, edge) = g.out_edges(fe).iter().find(|(t, _)| *t == be).unwrap();
        assert_eq!(edge.calls, 2);
    }

    #[test]
    fn empty_traces_give_empty_graph() {
        let book = SpanBook::from_app(&fixture_app());
        let g = build_graph(&[], &book, BuildOptions::default());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn graphs_from_simulated_traffic() {
        use cex_core::simtime::SimDuration;
        use microsim::sim::Simulation;
        let app = microsim::topologies::case_study_app();
        let mut sim = Simulation::new(app, 9);
        sim.set_trace_sampling(1.0);
        sim.run(SimDuration::from_secs(20), 20.0);
        let book = sim.span_book();
        let traces = sim.drain_traces();
        assert!(!traces.is_empty());
        let g = build_graph(&traces, &book, BuildOptions::default());
        // The `home` entry reaches catalog and catalog-db at minimum.
        assert!(g.find_unversioned("frontend", "home").is_some());
        assert!(g.find_unversioned("catalog", "list").is_some());
        assert!(g.find_unversioned("catalog-db", "query").is_some());
        // Roots are frontend endpoints only.
        for root in g.roots() {
            assert_eq!(g.key(root).service, "frontend");
        }
    }
}
