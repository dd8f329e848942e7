//! Canned and generated application topologies.
//!
//! - [`case_study_app`] rebuilds the microservice case-study application the
//!   Bifrost evaluation runs against (Figure 4.5): an e-commerce platform
//!   with customer-facing frontend services and business-related backend
//!   services, matching the motivating AB Inc example of Chapter 1.
//! - [`recommendation_candidate`] is the experimental recommendation-service
//!   version that the motivating example canaries/A-B tests.
//! - [`random_app`] generates layered applications of arbitrary size for
//!   the scalability studies of Chapter 5 (service networks of up to 1,000
//!   microservices with 10 endpoints each — 10,000 endpoints).

use crate::app::{Application, CallDef, EndpointDef, VersionSpec};
use crate::latency::LatencyModel;
use cex_core::rng::SplitMix64;

/// The e-commerce case-study application (Figure 4.5).
///
/// Twelve services: `frontend` (entry: `home`, `product`, `checkout`,
/// `search_page`) calling `catalog`, `search`, `recommendation`, `reviews`,
/// `cart`, `payment`, `shipping`, `accounting`, and the data-tier services
/// `catalog-db`, `profile-store`, `orders-db`.
///
/// # Panics
///
/// Never panics: the topology is statically valid (covered by tests).
pub fn case_study_app() -> Application {
    let mut b = Application::builder();
    b.version(
        VersionSpec::new("frontend", "1.0.0")
            .capacity(800.0)
            .endpoint(
                EndpointDef::new("home", LatencyModel::web(5.0))
                    .call(CallDef::always("catalog", "list"))
                    .call(CallDef::with_probability("recommendation", "recommend", 0.8)),
            )
            .endpoint(
                EndpointDef::new("product", LatencyModel::web(4.0))
                    .call(CallDef::always("catalog", "get"))
                    .call(CallDef::with_probability("recommendation", "recommend", 0.5))
                    .call(CallDef::with_probability("reviews", "list", 0.9)),
            )
            .endpoint(
                EndpointDef::new("checkout", LatencyModel::web(6.0))
                    .call(CallDef::always("cart", "get"))
                    .call(CallDef::always("payment", "charge"))
                    .call(CallDef::always("shipping", "quote"))
                    .call(CallDef::always("accounting", "record")),
            )
            .endpoint(
                EndpointDef::new("search_page", LatencyModel::web(4.0))
                    .call(CallDef::always("search", "query")),
            ),
    );
    b.version(
        VersionSpec::new("catalog", "1.0.0")
            .capacity(600.0)
            .endpoint(
                EndpointDef::new("list", LatencyModel::web(8.0))
                    .call(CallDef::always("catalog-db", "query")),
            )
            .endpoint(
                EndpointDef::new("get", LatencyModel::web(6.0))
                    .call(CallDef::always("catalog-db", "query")),
            ),
    );
    b.version(
        VersionSpec::new("search", "1.0.0").capacity(400.0).endpoint(
            EndpointDef::new("query", LatencyModel::web(12.0))
                .call(CallDef::always("catalog-db", "query")),
        ),
    );
    b.version(
        VersionSpec::new("recommendation", "1.0.0").capacity(300.0).endpoint(
            EndpointDef::new("recommend", LatencyModel::web(10.0))
                .call(CallDef::always("profile-store", "get"))
                .call(CallDef::with_probability("catalog", "get", 0.7)),
        ),
    );
    b.version(
        VersionSpec::new("reviews", "1.0.0").capacity(400.0).endpoint(
            EndpointDef::new("list", LatencyModel::web(7.0))
                .call(CallDef::always("catalog-db", "query")),
        ),
    );
    b.version(
        VersionSpec::new("cart", "1.0.0")
            .capacity(500.0)
            .endpoint(EndpointDef::new("get", LatencyModel::web(5.0))),
    );
    b.version(
        VersionSpec::new("payment", "1.0.0")
            .capacity(300.0)
            .endpoint(EndpointDef::new("charge", LatencyModel::web(25.0)).error_rate(0.002)),
    );
    b.version(
        VersionSpec::new("shipping", "1.0.0").capacity(300.0).endpoint(
            EndpointDef::new("quote", LatencyModel::web(15.0))
                .call(CallDef::always("orders-db", "query")),
        ),
    );
    b.version(
        VersionSpec::new("accounting", "1.0.0").capacity(300.0).endpoint(
            EndpointDef::new("record", LatencyModel::web(9.0))
                .call(CallDef::always("orders-db", "insert")),
        ),
    );
    b.version(
        VersionSpec::new("catalog-db", "1.0.0")
            .capacity(1_500.0)
            .endpoint(EndpointDef::new("query", LatencyModel::web(3.0))),
    );
    b.version(
        VersionSpec::new("profile-store", "1.0.0")
            .capacity(800.0)
            .endpoint(EndpointDef::new("get", LatencyModel::web(4.0))),
    );
    b.version(
        VersionSpec::new("orders-db", "1.0.0")
            .capacity(1_000.0)
            .endpoint(EndpointDef::new("query", LatencyModel::web(3.0)))
            .endpoint(EndpointDef::new("insert", LatencyModel::web(5.0))),
    );
    b.build().expect("case-study topology is statically valid")
}

/// The experimental recommendation-service version of the motivating
/// example: richer recommendations (extra catalog call, higher own
/// latency), the change the AB Inc release engineer wants to canary.
pub fn recommendation_candidate() -> VersionSpec {
    VersionSpec::new("recommendation", "1.1.0").capacity(250.0).endpoint(
        EndpointDef::new("recommend", LatencyModel::web(12.0))
            .call(CallDef::always("profile-store", "get"))
            .call(CallDef::always("catalog", "get")),
    )
}

/// A deliberately broken candidate (inflated latency, elevated error
/// rate) used by rollback demonstrations and the health-assessment
/// scenarios.
pub fn recommendation_broken() -> VersionSpec {
    VersionSpec::new("recommendation", "1.1.1").capacity(100.0).endpoint(
        EndpointDef::new("recommend", LatencyModel::web(45.0))
            .error_rate(0.08)
            .call(CallDef::always("profile-store", "get"))
            .call(CallDef::always("catalog", "get")),
    )
}

/// Parameters for [`random_app`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomAppParams {
    /// Number of services.
    pub services: usize,
    /// Number of call-graph layers (≥ 2); layer 0 is the entry tier, the
    /// last layer is the data tier.
    pub layers: usize,
    /// Endpoints per service.
    pub endpoints_per_service: usize,
    /// Outgoing calls per endpoint (to the next layer; data tier has none).
    pub calls_per_endpoint: usize,
    /// Median own latency per endpoint in milliseconds.
    pub median_latency_ms: f64,
    /// Load-sensitivity coefficient `k` applied to every version (latency
    /// inflation `1 + k·u²`); `0.0` decouples latency from offered load,
    /// which the request core's oracle differentials rely on.
    pub load_sensitivity: f64,
}

impl Default for RandomAppParams {
    fn default() -> Self {
        RandomAppParams {
            services: 20,
            layers: 4,
            endpoints_per_service: 3,
            calls_per_endpoint: 2,
            median_latency_ms: 8.0,
            load_sensitivity: 1.0,
        }
    }
}

/// Generates a layered random application.
///
/// Services are spread round-robin over `layers`; each endpoint of a
/// service in layer `l < layers-1` calls `calls_per_endpoint` random
/// endpoints of services in layer `l+1`. The result is a DAG, so request
/// execution always terminates.
///
/// # Panics
///
/// Panics when `services < layers` or `layers < 2` — such configurations
/// cannot form the layered shape.
pub fn random_app(params: &RandomAppParams, seed: u64) -> Application {
    assert!(params.layers >= 2, "need at least an entry and a data layer");
    assert!(params.services >= params.layers, "need at least one service per layer");
    let mut rng = SplitMix64::new(seed);
    let layer_of = |svc: usize| svc % params.layers;
    let services_in_layer = |layer: usize| -> Vec<usize> {
        (0..params.services).filter(|s| layer_of(*s) == layer).collect()
    };

    let mut b = Application::builder();
    for svc in 0..params.services {
        let layer = layer_of(svc);
        let mut spec = VersionSpec::new(format!("svc-{svc:04}"), "1.0.0")
            .capacity(500.0)
            .load_sensitivity(params.load_sensitivity);
        for ep in 0..params.endpoints_per_service {
            let jitter = 0.5 + rng.next_f64();
            let mut def = EndpointDef::new(
                format!("ep{ep}"),
                LatencyModel::web(params.median_latency_ms * jitter),
            );
            if layer + 1 < params.layers {
                let next = services_in_layer(layer + 1);
                for _ in 0..params.calls_per_endpoint {
                    let callee = next[(rng.next_f64() * next.len() as f64) as usize % next.len()];
                    let callee_ep = (rng.next_f64() * params.endpoints_per_service as f64) as usize
                        % params.endpoints_per_service;
                    def = def.call(CallDef::with_probability(
                        format!("svc-{callee:04}"),
                        format!("ep{callee_ep}"),
                        0.5 + 0.5 * rng.next_f64(),
                    ));
                }
            }
            spec = spec.endpoint(def);
        }
        b.version(spec);
    }
    b.build().expect("layered random topology is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use crate::workload::{EntryPoint, Workload};
    use cex_core::simtime::SimDuration;
    use cex_core::users::Population;

    #[test]
    fn case_study_builds_and_validates() {
        let app = case_study_app();
        assert_eq!(app.service_count(), 12);
        assert!(app.endpoint_count() >= 15);
        app.validate().unwrap();
    }

    #[test]
    fn case_study_serves_all_frontend_endpoints() {
        let app = case_study_app();
        let fe = app.service_id("frontend").unwrap();
        let mut sim = Simulation::new(app, 11);
        let workload = Workload {
            population: Population::single("all", 10_000),
            rate_rps: 40.0,
            entries: vec![
                EntryPoint { service: fe, endpoint: "home".into(), weight: 4.0 },
                EntryPoint { service: fe, endpoint: "product".into(), weight: 3.0 },
                EntryPoint { service: fe, endpoint: "checkout".into(), weight: 1.0 },
                EntryPoint { service: fe, endpoint: "search_page".into(), weight: 2.0 },
            ],
            profile: crate::workload::RateProfile::Constant,
        };
        let report = sim.run_with(SimDuration::from_secs(30), &workload);
        assert!(report.requests > 800);
        assert!(report.response_time.mean > 10.0);
        assert!(report.error_rate() < 0.02);
    }

    #[test]
    fn candidates_deploy_cleanly() {
        let mut app = case_study_app();
        app.deploy(recommendation_candidate()).unwrap();
        app.deploy(recommendation_broken()).unwrap();
        app.validate().unwrap();
        let rec = app.service_id("recommendation").unwrap();
        assert_eq!(app.versions_of(rec).len(), 3);
    }

    #[test]
    fn random_app_scales_and_terminates() {
        let params = RandomAppParams { services: 50, layers: 5, ..Default::default() };
        let app = random_app(&params, 99);
        assert_eq!(app.service_count(), 50);
        app.validate().unwrap();
        // Entry-layer service must be executable end to end.
        let mut sim = Simulation::new(app, 3);
        let report = sim.run(SimDuration::from_secs(5), 20.0);
        assert!(report.requests > 0);
    }

    #[test]
    fn random_app_is_deterministic() {
        let params = RandomAppParams::default();
        assert_eq!(random_app(&params, 1), random_app(&params, 1));
        assert_ne!(random_app(&params, 1), random_app(&params, 2));
    }

    #[test]
    #[should_panic(expected = "at least one service per layer")]
    fn random_app_rejects_too_few_services() {
        random_app(&RandomAppParams { services: 2, layers: 4, ..Default::default() }, 1);
    }
}
