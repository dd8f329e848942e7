//! The static application model: services, versions, endpoints, call graph.
//!
//! A simulated application is a set of **services**; each service has one or
//! more deployed **versions** (the unit of experimentation — a canary
//! deploys a new version next to the stable one); each version exposes
//! **endpoints**; each endpoint has a latency model, an error rate, and a
//! list of probabilistic **outgoing calls** to endpoints of other services.
//! Which *version* of a callee serves a call is decided at request time by
//! the [`crate::routing::Router`] — exactly the black-box,
//! network-level experimentation model the paper advocates
//! (Section 1.2.1, "Escaping Feature Toggles").

use crate::error::SimError;
use crate::latency::LatencyModel;
use std::collections::HashMap;
use std::fmt;

/// Deepest hop a request may reach, the entry hop being depth 0. An
/// application in which some chain of calls runs deeper — a call cycle
/// always does — is rejected by [`Application::validate`], so the request
/// core never meets one.
pub const MAX_CALL_DEPTH: usize = 32;

/// Index of a service within an [`Application`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(pub usize);

/// Index of a deployed service version within an [`Application`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionId(pub usize);

/// Index of an endpoint within an [`Application`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointId(pub usize);

/// An endpoint *name* interned when the [`Application`] is built: the
/// identity a call site shares with every version of its callee service.
/// Which version's endpoint of that name serves a call is decided per
/// request ([`Application::endpoint_named`]), so the request path compares
/// integers where it used to compare strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointName(u32);

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// A probabilistic outgoing call from one endpoint to another service's
/// endpoint. The callee *version* is resolved by the router per request.
#[derive(Debug, Clone, PartialEq)]
pub struct CallDef {
    /// Callee service name.
    pub service: String,
    /// Callee endpoint name.
    pub endpoint: String,
    /// Probability the call is made on a given request (`0.0..=1.0`).
    pub probability: f64,
}

impl CallDef {
    /// An unconditional call.
    pub fn always(service: impl Into<String>, endpoint: impl Into<String>) -> Self {
        CallDef { service: service.into(), endpoint: endpoint.into(), probability: 1.0 }
    }

    /// A call made with the given probability.
    pub fn with_probability(
        service: impl Into<String>,
        endpoint: impl Into<String>,
        probability: f64,
    ) -> Self {
        CallDef { service: service.into(), endpoint: endpoint.into(), probability }
    }
}

/// Definition of one endpoint of one service version.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointDef {
    /// Endpoint name, unique within its version.
    pub name: String,
    /// Own service-time distribution (excluding downstream calls).
    pub latency: LatencyModel,
    /// Probability a request fails at this endpoint itself.
    pub error_rate: f64,
    /// Outgoing calls issued while serving a request.
    pub calls: Vec<CallDef>,
}

impl EndpointDef {
    /// Creates an endpoint with no errors and no outgoing calls.
    pub fn new(name: impl Into<String>, latency: LatencyModel) -> Self {
        EndpointDef { name: name.into(), latency, error_rate: 0.0, calls: Vec::new() }
    }

    /// Sets the intrinsic error rate.
    pub fn error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate;
        self
    }

    /// Adds an outgoing call.
    pub fn call(mut self, call: CallDef) -> Self {
        self.calls.push(call);
        self
    }
}

/// Definition of one deployable version of a service.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionSpec {
    /// Owning service name (created on first use).
    pub service: String,
    /// Version label, e.g. `"1.4.0"`.
    pub version: String,
    /// Sustainable request rate before latency inflation kicks in.
    pub capacity_rps: f64,
    /// How strongly load inflates latency (see [`crate::load`]); `0.0`
    /// disables inflation for this version.
    pub load_sensitivity: f64,
    /// Probability a user-facing request on this version converts — the
    /// business metric A/B tests compare (recorded at entry hops only).
    pub conversion_rate: f64,
    /// Maximum requests this version serves concurrently under the
    /// event-driven core; `None` means unlimited (the closed-loop model).
    pub concurrency_limit: Option<u32>,
    /// Admission-queue depth once all concurrency slots are busy; `None`
    /// means unbounded. Arrivals beyond a full queue are shed.
    pub queue_capacity: Option<u32>,
    /// Availability-zone label (cell, rack, region): versions sharing a
    /// zone fail together under correlated faults such as a zone outage.
    pub zone: Option<String>,
    /// The endpoints this version exposes.
    pub endpoints: Vec<EndpointDef>,
}

impl VersionSpec {
    /// Creates a version with default capacity (200 rps) and sensitivity.
    pub fn new(service: impl Into<String>, version: impl Into<String>) -> Self {
        VersionSpec {
            service: service.into(),
            version: version.into(),
            capacity_rps: 200.0,
            load_sensitivity: 1.0,
            conversion_rate: 0.02,
            concurrency_limit: None,
            queue_capacity: None,
            zone: None,
            endpoints: Vec::new(),
        }
    }

    /// Sets the conversion rate observed on user-facing requests.
    pub fn conversion_rate(mut self, rate: f64) -> Self {
        self.conversion_rate = rate;
        self
    }

    /// Sets the capacity in requests per second.
    pub fn capacity(mut self, rps: f64) -> Self {
        self.capacity_rps = rps;
        self
    }

    /// Sets the load sensitivity.
    pub fn load_sensitivity(mut self, k: f64) -> Self {
        self.load_sensitivity = k;
        self
    }

    /// Caps the number of requests served concurrently (event core).
    pub fn concurrency_limit(mut self, slots: u32) -> Self {
        self.concurrency_limit = Some(slots);
        self
    }

    /// Bounds the admission queue; arrivals beyond it are shed.
    pub fn queue_capacity(mut self, depth: u32) -> Self {
        self.queue_capacity = Some(depth);
        self
    }

    /// Places the version in an availability zone.
    pub fn zone(mut self, zone: impl Into<String>) -> Self {
        self.zone = Some(zone.into());
        self
    }

    /// Adds an endpoint.
    pub fn endpoint(mut self, ep: EndpointDef) -> Self {
        self.endpoints.push(ep);
        self
    }
}

/// Resolved outgoing call (service name interned).
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedCall {
    /// Callee service.
    pub service: ServiceId,
    /// Callee endpoint name (version-resolved at request time).
    pub endpoint: String,
    /// The same name, interned.
    pub endpoint_name: EndpointName,
    /// Call probability.
    pub probability: f64,
}

/// A deployed endpoint with its resolved call list.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoint {
    /// Owning version.
    pub version: VersionId,
    /// Endpoint name.
    pub name: String,
    /// The same name, interned.
    pub name_id: EndpointName,
    /// Own latency model.
    pub latency: LatencyModel,
    /// Intrinsic error rate.
    pub error_rate: f64,
    /// Resolved outgoing calls.
    pub calls: Vec<ResolvedCall>,
}

/// A deployed service version.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceVersion {
    /// Owning service.
    pub service: ServiceId,
    /// Version label.
    pub label: String,
    /// Capacity in requests per second.
    pub capacity_rps: f64,
    /// Load sensitivity.
    pub load_sensitivity: f64,
    /// Conversion probability on user-facing requests.
    pub conversion_rate: f64,
    /// Concurrency cap under the event core (`None` = unlimited).
    pub concurrency_limit: Option<u32>,
    /// Admission-queue depth (`None` = unbounded).
    pub queue_capacity: Option<u32>,
    /// Availability-zone label, when the version was placed in one.
    pub zone: Option<String>,
    /// Endpoint ids, sorted by endpoint name.
    pub endpoints: Vec<EndpointId>,
}

/// The immutable application: interned services, versions, endpoints.
///
/// Build with [`Application::builder`]; extend a built application with
/// [`Application::deploy`] (experiments deploy new versions at runtime).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Application {
    service_names: Vec<String>,
    /// Distinct endpoint names, indexed by [`EndpointName`].
    endpoint_names: Vec<String>,
    versions: Vec<ServiceVersion>,
    endpoints: Vec<Endpoint>,
    /// `versions_of[service.0]` lists deployed versions, in deploy order —
    /// the first one is the service's stable/baseline version.
    versions_of: Vec<Vec<VersionId>>,
}

impl Application {
    /// Starts building an application.
    pub fn builder() -> AppBuilder {
        AppBuilder { specs: Vec::new() }
    }

    /// Number of services.
    pub fn service_count(&self) -> usize {
        self.service_names.len()
    }

    /// Number of deployed versions across all services.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// Number of endpoints across all versions.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Resolves a service name.
    pub fn service_id(&self, name: &str) -> Result<ServiceId, SimError> {
        self.service_names
            .iter()
            .position(|n| n == name)
            .map(ServiceId)
            .ok_or_else(|| SimError::UnknownService(name.to_string()))
    }

    /// The name of a service.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn service_name(&self, id: ServiceId) -> &str {
        &self.service_names[id.0]
    }

    /// All deployed versions of a service, in deploy order.
    pub fn versions_of(&self, service: ServiceId) -> &[VersionId] {
        &self.versions_of[service.0]
    }

    /// The stable (first-deployed) version of a service.
    ///
    /// # Panics
    ///
    /// Panics if the service has no versions (impossible for a built app).
    pub fn baseline_of(&self, service: ServiceId) -> VersionId {
        self.versions_of[service.0][0]
    }

    /// Resolves a `(service, label)` pair to a version.
    pub fn version_id(&self, service: &str, label: &str) -> Result<VersionId, SimError> {
        let sid = self.service_id(service)?;
        self.versions_of[sid.0]
            .iter()
            .copied()
            .find(|v| self.versions[v.0].label == label)
            .ok_or_else(|| SimError::UnknownVersion {
                service: service.to_string(),
                version: label.to_string(),
            })
    }

    /// The version record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn version(&self, id: VersionId) -> &ServiceVersion {
        &self.versions[id.0]
    }

    /// The endpoint record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn endpoint(&self, id: EndpointId) -> &Endpoint {
        &self.endpoints[id.0]
    }

    /// Looks up the endpoint named `name` on version `version`.
    pub fn endpoint_of(&self, version: VersionId, name: &str) -> Result<EndpointId, SimError> {
        let v = &self.versions[version.0];
        v.endpoints.iter().copied().find(|e| self.endpoints[e.0].name == name).ok_or_else(|| {
            SimError::UnknownEndpoint {
                service: self.service_names[v.service.0].clone(),
                endpoint: name.to_string(),
            }
        })
    }

    /// The interned form of an endpoint name, or `None` when no deployed
    /// endpoint and no call site carries it. Linear in the number of
    /// distinct names, like [`Application::service_id`].
    pub fn endpoint_name(&self, name: &str) -> Option<EndpointName> {
        self.endpoint_names.iter().position(|n| n == name).map(|i| EndpointName(i as u32))
    }

    /// [`Application::endpoint_of`] by interned name: no string compare.
    pub fn endpoint_named(&self, version: VersionId, name: EndpointName) -> Option<EndpointId> {
        self.versions[version.0]
            .endpoints
            .iter()
            .copied()
            .find(|e| self.endpoints[e.0].name_id == name)
    }

    fn intern_endpoint_name(&mut self, name: &str) -> EndpointName {
        self.endpoint_name(name).unwrap_or_else(|| {
            self.endpoint_names.push(name.to_string());
            EndpointName(self.endpoint_names.len() as u32 - 1)
        })
    }

    /// Iterates over all services.
    pub fn services(&self) -> impl Iterator<Item = (ServiceId, &str)> {
        self.service_names.iter().enumerate().map(|(i, n)| (ServiceId(i), n.as_str()))
    }

    /// Iterates over all deployed versions.
    pub fn versions(&self) -> impl Iterator<Item = (VersionId, &ServiceVersion)> {
        self.versions.iter().enumerate().map(|(i, v)| (VersionId(i), v))
    }

    /// Human-readable `service@label` description of a version.
    pub fn version_label(&self, id: VersionId) -> String {
        let v = &self.versions[id.0];
        format!("{}@{}", self.service_names[v.service.0], v.label)
    }

    /// Distinct availability-zone labels across deployed versions, sorted.
    pub fn zones(&self) -> Vec<&str> {
        let mut zones: Vec<&str> = self.versions.iter().filter_map(|v| v.zone.as_deref()).collect();
        zones.sort_unstable();
        zones.dedup();
        zones
    }

    /// All versions placed in `zone`, in deployment order — the blast
    /// radius of a correlated zone fault.
    pub fn versions_in_zone(&self, zone: &str) -> Vec<VersionId> {
        (0..self.versions.len())
            .map(VersionId)
            .filter(|v| self.versions[v.0].zone.as_deref() == Some(zone))
            .collect()
    }

    /// Deploys an additional version into a built application, as an
    /// experiment would at runtime. The application is validated with the
    /// new version in it and, when that fails, left exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the spec is invalid (duplicate version,
    /// unknown callee, bad probabilities) or the application with it is
    /// (see [`Application::validate`]).
    pub fn deploy(&mut self, spec: VersionSpec) -> Result<VersionId, SimError> {
        let (services, names) = (self.service_names.len(), self.endpoint_names.len());
        let (versions, endpoints) = (self.versions.len(), self.endpoints.len());
        let vid = self.insert(&spec)?;
        if let Err(err) = self.validate() {
            self.service_names.truncate(services);
            self.versions_of.truncate(services);
            self.versions_of.iter_mut().for_each(|of| of.retain(|v| *v != vid));
            self.endpoint_names.truncate(names);
            self.versions.truncate(versions);
            self.endpoints.truncate(endpoints);
            return Err(err);
        }
        Ok(vid)
    }

    /// Adds one version without validating the application around it: a
    /// callee service not deployed yet is interned, for a later version to
    /// fill in ([`AppBuilder::build`] validates once, at the end). A spec
    /// that is rejected changes nothing.
    fn insert(&mut self, spec: &VersionSpec) -> Result<VersionId, SimError> {
        if self.version_id(&spec.service, &spec.version).is_ok() {
            return Err(SimError::BadApplication(format!(
                "version {} of service {} already deployed",
                spec.version, spec.service
            )));
        }
        validate_spec(spec)?;
        let sid = self.intern_service(&spec.service);
        let vid = VersionId(self.versions.len());
        let mut endpoint_ids = Vec::with_capacity(spec.endpoints.len());
        for ep in &spec.endpoints {
            let mut calls = Vec::with_capacity(ep.calls.len());
            for call in &ep.calls {
                calls.push(ResolvedCall {
                    service: self.intern_service(&call.service),
                    endpoint: call.endpoint.clone(),
                    endpoint_name: self.intern_endpoint_name(&call.endpoint),
                    probability: call.probability,
                });
            }
            let eid = EndpointId(self.endpoints.len());
            let name_id = self.intern_endpoint_name(&ep.name);
            self.endpoints.push(Endpoint {
                version: vid,
                name: ep.name.clone(),
                name_id,
                latency: ep.latency,
                error_rate: ep.error_rate,
                calls,
            });
            endpoint_ids.push(eid);
        }
        self.versions.push(ServiceVersion {
            service: sid,
            label: spec.version.clone(),
            capacity_rps: spec.capacity_rps,
            load_sensitivity: spec.load_sensitivity,
            conversion_rate: spec.conversion_rate,
            concurrency_limit: spec.concurrency_limit,
            queue_capacity: spec.queue_capacity,
            zone: spec.zone.clone(),
            endpoints: endpoint_ids,
        });
        self.versions_of[sid.0].push(vid);
        Ok(vid)
    }

    /// The id of the service called `name`, created (with no version yet)
    /// on first use.
    fn intern_service(&mut self, name: &str) -> ServiceId {
        self.service_id(name).unwrap_or_else(|_| {
            self.service_names.push(name.to_string());
            self.versions_of.push(Vec::new());
            ServiceId(self.service_names.len() - 1)
        })
    }

    /// Verifies that every service has at least one version, that every
    /// call target resolves on at least one deployed version of the callee,
    /// and that no chain of calls can run deeper than [`MAX_CALL_DEPTH`] —
    /// a call cycle always can. Run by [`AppBuilder::build`] and by
    /// [`Application::deploy`].
    ///
    /// Which version serves a call is the router's choice per request, so a
    /// chain is followed over `(service, endpoint name)`: a call reaches
    /// the endpoint of its name on *every* deployed version of the callee,
    /// and any of them may continue it. Endpoints settle in topological
    /// order (callers first), linear in endpoints + calls over interned
    /// name ids; what a cycle holds never settles.
    pub fn validate(&self) -> Result<(), SimError> {
        for (sid, versions) in self.versions_of.iter().enumerate() {
            if versions.is_empty() {
                return Err(SimError::BadApplication(format!(
                    "service {} referenced but never deployed",
                    self.service_names[sid]
                )));
            }
        }
        // Kahn's order: an endpoint settles once every call into it has,
        // one deeper than its deepest caller.
        let mut callers = vec![0_usize; self.endpoints.len()];
        for call in self.endpoints.iter().flat_map(|ep| &ep.calls) {
            let mut resolves = false;
            for target in self.targets(call) {
                callers[target.0] += 1;
                resolves = true;
            }
            if !resolves {
                return Err(SimError::UnknownEndpoint {
                    service: self.service_names[call.service.0].clone(),
                    endpoint: call.endpoint.clone(),
                });
            }
        }
        let mut depth = vec![0_usize; self.endpoints.len()];
        let mut ready: Vec<usize> = (0..callers.len()).filter(|ep| callers[*ep] == 0).collect();
        let mut settled = 0;
        while let Some(ep) = ready.pop() {
            settled += 1;
            for target in self.endpoints[ep].calls.iter().flat_map(|call| self.targets(call)) {
                depth[target.0] = depth[target.0].max(depth[ep] + 1);
                callers[target.0] -= 1;
                if callers[target.0] == 0 {
                    ready.push(target.0);
                }
            }
        }
        if settled < self.endpoints.len() || depth.iter().any(|d| *d > MAX_CALL_DEPTH) {
            return Err(SimError::CallDepthExceeded { limit: MAX_CALL_DEPTH });
        }
        Ok(())
    }

    /// The endpoints a call can reach: the one of its name on each deployed
    /// version of the callee that has it.
    fn targets<'a>(&'a self, call: &ResolvedCall) -> impl Iterator<Item = EndpointId> + 'a {
        let name = call.endpoint_name;
        self.versions_of[call.service.0].iter().filter_map(move |v| self.endpoint_named(*v, name))
    }
}

fn validate_spec(spec: &VersionSpec) -> Result<(), SimError> {
    if spec.endpoints.is_empty() {
        return Err(SimError::BadApplication(format!(
            "version {}@{} has no endpoints",
            spec.service, spec.version
        )));
    }
    if spec.capacity_rps <= 0.0 || spec.capacity_rps.is_nan() {
        return Err(SimError::BadApplication("capacity must be positive".into()));
    }
    if !(0.0..=1.0).contains(&spec.conversion_rate) {
        return Err(SimError::BadApplication("conversion rate must be in 0.0..=1.0".into()));
    }
    if spec.concurrency_limit == Some(0) {
        return Err(SimError::BadApplication("concurrency limit must be at least 1".into()));
    }
    let mut seen = HashMap::new();
    for ep in &spec.endpoints {
        if seen.insert(ep.name.clone(), ()).is_some() {
            return Err(SimError::BadApplication(format!(
                "duplicate endpoint {} on {}@{}",
                ep.name, spec.service, spec.version
            )));
        }
        if !(0.0..=1.0).contains(&ep.error_rate) {
            return Err(SimError::BadApplication(format!(
                "error rate {} out of range on endpoint {}",
                ep.error_rate, ep.name
            )));
        }
        for call in &ep.calls {
            if !(0.0..=1.0).contains(&call.probability) {
                return Err(SimError::BadApplication(format!(
                    "call probability {} out of range on endpoint {}",
                    call.probability, ep.name
                )));
            }
            if call.service == spec.service {
                return Err(SimError::BadApplication(format!(
                    "endpoint {} calls its own service; self-calls are not supported",
                    ep.name
                )));
            }
        }
    }
    Ok(())
}

/// Builder accumulating [`VersionSpec`]s and producing a validated
/// [`Application`].
#[derive(Debug, Clone, Default)]
pub struct AppBuilder {
    specs: Vec<VersionSpec>,
}

impl AppBuilder {
    /// Adds a version to deploy.
    pub fn version(&mut self, spec: VersionSpec) -> &mut Self {
        self.specs.push(spec);
        self
    }

    /// Builds and validates the application.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for structural problems: duplicate versions,
    /// unresolvable call targets, invalid rates/probabilities, services
    /// that are referenced but never deployed.
    pub fn build(&self) -> Result<Application, SimError> {
        let mut app = Application::default();
        for spec in &self.specs {
            app.insert(spec)?;
        }
        app.validate()?;
        Ok(app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tier() -> Application {
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("frontend", "1.0.0").endpoint(
                EndpointDef::new("home", LatencyModel::Constant { ms: 5.0 })
                    .call(CallDef::always("backend", "api")),
            ),
        );
        b.version(
            VersionSpec::new("backend", "1.0.0")
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 10.0 })),
        );
        b.build().unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let app = two_tier();
        assert_eq!(app.service_count(), 2);
        assert_eq!(app.version_count(), 2);
        assert_eq!(app.endpoint_count(), 2);
        let fe = app.service_id("frontend").unwrap();
        assert_eq!(app.service_name(fe), "frontend");
        let v = app.version_id("frontend", "1.0.0").unwrap();
        assert_eq!(app.baseline_of(fe), v);
        assert_eq!(app.version_label(v), "frontend@1.0.0");
        let ep = app.endpoint_of(v, "home").unwrap();
        assert_eq!(app.endpoint(ep).calls.len(), 1);
    }

    #[test]
    fn interned_names_resolve_like_strings() {
        let mut app = two_tier();
        let candidate = app
            .deploy(
                VersionSpec::new("backend", "1.1.0")
                    .endpoint(EndpointDef::new("api", LatencyModel::default()))
                    .endpoint(EndpointDef::new("admin", LatencyModel::default())),
            )
            .unwrap();
        assert_eq!(app.endpoint_name("nope"), None);
        let fe = app.version_id("frontend", "1.0.0").unwrap();
        let be = app.version_id("backend", "1.0.0").unwrap();
        for version in [fe, be, candidate] {
            for name in ["home", "api", "admin"] {
                let interned = app.endpoint_name(name).unwrap();
                assert_eq!(
                    app.endpoint_named(version, interned),
                    app.endpoint_of(version, name).ok(),
                    "{name} on {version}"
                );
            }
        }
        // A call site carries the interned form of the name it calls.
        let call = &app.endpoint(app.endpoint_of(fe, "home").unwrap()).calls[0];
        assert_eq!(Some(call.endpoint_name), app.endpoint_name(&call.endpoint));
    }

    #[test]
    fn unknown_names_error() {
        let app = two_tier();
        assert!(matches!(app.service_id("db"), Err(SimError::UnknownService(_))));
        assert!(matches!(
            app.version_id("frontend", "9.9.9"),
            Err(SimError::UnknownVersion { .. })
        ));
        let v = app.version_id("frontend", "1.0.0").unwrap();
        assert!(matches!(app.endpoint_of(v, "nope"), Err(SimError::UnknownEndpoint { .. })));
    }

    #[test]
    fn duplicate_version_rejected() {
        let mut app = two_tier();
        let err = app
            .deploy(
                VersionSpec::new("backend", "1.0.0")
                    .endpoint(EndpointDef::new("api", LatencyModel::default())),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::BadApplication(_)));
    }

    #[test]
    fn deploy_adds_candidate_version() {
        let mut app = two_tier();
        let vid = app
            .deploy(
                VersionSpec::new("backend", "1.1.0")
                    .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 8.0 })),
            )
            .unwrap();
        let be = app.service_id("backend").unwrap();
        assert_eq!(app.versions_of(be).len(), 2);
        assert_ne!(app.baseline_of(be), vid);
        app.validate().unwrap();
    }

    #[test]
    fn dangling_callee_fails_validation() {
        let mut b = Application::builder();
        b.version(VersionSpec::new("frontend", "1.0.0").endpoint(
            EndpointDef::new("home", LatencyModel::default()).call(CallDef::always("ghost", "api")),
        ));
        assert!(b.build().is_err());
    }

    #[test]
    fn missing_callee_endpoint_fails_validation() {
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("frontend", "1.0.0").endpoint(
                EndpointDef::new("home", LatencyModel::default())
                    .call(CallDef::always("backend", "missing")),
            ),
        );
        b.version(
            VersionSpec::new("backend", "1.0.0")
                .endpoint(EndpointDef::new("api", LatencyModel::default())),
        );
        let err = b.build().unwrap_err();
        assert!(matches!(err, SimError::UnknownEndpoint { .. }));
    }

    #[test]
    fn bad_rates_rejected() {
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("a", "1")
                .endpoint(EndpointDef::new("e", LatencyModel::default()).error_rate(1.5)),
        );
        assert!(b.build().is_err());

        let mut b = Application::builder();
        b.version(
            VersionSpec::new("a", "1")
                .capacity(0.0)
                .endpoint(EndpointDef::new("e", LatencyModel::default())),
        );
        assert!(b.build().is_err());
    }

    #[test]
    fn self_call_rejected() {
        let mut b = Application::builder();
        b.version(VersionSpec::new("a", "1").endpoint(
            EndpointDef::new("e", LatencyModel::default()).call(CallDef::always("a", "e")),
        ));
        assert!(b.build().is_err());
    }

    #[test]
    fn duplicate_endpoint_rejected() {
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("a", "1")
                .endpoint(EndpointDef::new("e", LatencyModel::default()))
                .endpoint(EndpointDef::new("e", LatencyModel::default())),
        );
        assert!(b.build().is_err());
    }

    #[test]
    fn empty_version_rejected() {
        let mut b = Application::builder();
        b.version(VersionSpec::new("a", "1"));
        assert!(b.build().is_err());
    }
}
