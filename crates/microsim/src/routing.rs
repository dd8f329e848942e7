//! The runtime traffic-routing layer.
//!
//! The paper's execution model enacts experiments at the *network level*:
//! lightweight proxies in front of service instances decide, per request,
//! which deployed version serves it (Section 1.2.1; the same approach Istio
//! later adopted, Section 1.4.2). This module implements that layer:
//!
//! - **Weighted splits** route a fraction of users to a candidate version
//!   (canary releases, gradual rollouts, A/B tests).
//! - **Sticky assignment** hashes the user id so one user consistently sees
//!   one variant — a prerequisite for valid A/B statistics.
//! - **Mirrors** duplicate traffic to a dark-launched version whose
//!   responses are discarded (dark launches).
//! - A configurable **per-hop proxy overhead** models the cost of having
//!   the middleware deployed at all — the quantity Figure 4.6/Table 4.1
//!   measure.

use crate::app::{Application, ServiceId, VersionId};
use crate::error::SimError;
use cex_core::simtime::SimDuration;
use std::fmt;

/// Identifier of a (simulated) end user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u64);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Routing rule for one service.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteRule {
    splits: Vec<(VersionId, f64)>,
    mirrors: Vec<VersionId>,
}

impl RouteRule {
    /// The weighted splits (weights sum to 1).
    pub fn splits(&self) -> &[(VersionId, f64)] {
        &self.splits
    }

    /// Versions receiving mirrored (dark) traffic.
    pub fn mirrors(&self) -> &[VersionId] {
        &self.mirrors
    }
}

/// The router: per-service rules plus the proxy-overhead configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Router {
    proxy_overhead: SimDuration,
    /// Indexed by `ServiceId` — resolution runs once per simulated call,
    /// so it is an array index, not a hash. Never ends in `None`, which
    /// keeps derived equality meaning "the same rules".
    rules: Vec<Option<RouteRule>>,
}

impl Router {
    /// A router with no rules: every request goes to each service's
    /// baseline version, with no proxy overhead (the paper's "baseline
    /// application without Bifrost deployed").
    pub fn new() -> Self {
        Router::default()
    }

    /// A router modelling a deployed middleware adding `overhead` per
    /// proxied hop (the paper measured ≈2 ms per proxy hop, ≈8 ms
    /// end-to-end on the four-phase strategy).
    pub fn with_proxy_overhead(overhead: SimDuration) -> Self {
        Router { proxy_overhead: overhead, rules: Vec::new() }
    }

    /// Per-hop proxy overhead.
    pub fn proxy_overhead(&self) -> SimDuration {
        self.proxy_overhead
    }

    /// Installs (or replaces) a weighted split for `service`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadRoute`] when `splits` is empty, weights are
    /// negative or do not sum to 1 (±1e-6), or a version does not belong to
    /// `service`.
    pub fn set_split(
        &mut self,
        app: &Application,
        service: ServiceId,
        splits: Vec<(VersionId, f64)>,
    ) -> Result<(), SimError> {
        if splits.is_empty() {
            return Err(SimError::BadRoute("empty split list".into()));
        }
        let sum: f64 = splits.iter().map(|(_, w)| w).sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(SimError::BadRoute(format!("weights sum to {sum}, expected 1.0")));
        }
        for (v, w) in &splits {
            if *w < 0.0 {
                return Err(SimError::BadRoute(format!("negative weight {w}")));
            }
            if app.version(*v).service != service {
                return Err(SimError::BadRoute(format!(
                    "version {} does not belong to service {}",
                    app.version_label(*v),
                    app.service_name(service)
                )));
            }
        }
        self.rule_mut(service).splits = splits;
        Ok(())
    }

    /// Adds a dark-launch mirror for `service`: every request to the
    /// service is *also* executed on `version` (responses discarded).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadRoute`] when `version` does not belong to
    /// `service` or is already mirrored.
    pub fn add_mirror(
        &mut self,
        app: &Application,
        service: ServiceId,
        version: VersionId,
    ) -> Result<(), SimError> {
        if app.version(version).service != service {
            return Err(SimError::BadRoute(format!(
                "mirror version {} does not belong to service {}",
                app.version_label(version),
                app.service_name(service)
            )));
        }
        let entry = self.rule_mut(service);
        if entry.mirrors.contains(&version) {
            return Err(SimError::BadRoute("version already mirrored".into()));
        }
        entry.mirrors.push(version);
        Ok(())
    }

    /// Removes a mirror; no-op if not present.
    pub fn remove_mirror(&mut self, service: ServiceId, version: VersionId) {
        if let Some(Some(rule)) = self.rules.get_mut(service.0) {
            rule.mirrors.retain(|v| *v != version);
        }
    }

    /// `service`'s rule, created empty on first use.
    fn rule_mut(&mut self, service: ServiceId) -> &mut RouteRule {
        if self.rules.len() <= service.0 {
            self.rules.resize(service.0 + 1, None);
        }
        self.rules[service.0]
            .get_or_insert_with(|| RouteRule { splits: Vec::new(), mirrors: Vec::new() })
    }

    /// Removes all rules for `service`, restoring baseline routing.
    pub fn clear(&mut self, service: ServiceId) {
        if let Some(slot) = self.rules.get_mut(service.0) {
            *slot = None;
        }
        while self.rules.last().is_some_and(Option::is_none) {
            self.rules.pop();
        }
    }

    /// The rule for `service`, if any.
    pub fn rule(&self, service: ServiceId) -> Option<&RouteRule> {
        self.rules.get(service.0).and_then(Option::as_ref)
    }

    /// `true` when any routing rule is installed.
    pub fn has_rules(&self) -> bool {
        !self.rules.is_empty()
    }

    /// Resolves which version serves `user`'s request to `service`.
    ///
    /// Resolution is *sticky*: it depends only on `(user, service)`, so a
    /// user consistently lands on the same variant for the lifetime of a
    /// split — required for unbiased A/B samples.
    pub fn resolve(&self, app: &Application, service: ServiceId, user: UserId) -> VersionId {
        match self.rule(service) {
            Some(rule) if !rule.splits.is_empty() => {
                let x = sticky_unit(user, service);
                let mut acc = 0.0;
                for (version, weight) in &rule.splits {
                    acc += weight;
                    if x < acc {
                        return *version;
                    }
                }
                // Guard against cumulative rounding: last split wins.
                rule.splits.last().expect("non-empty splits").0
            }
            _ => app.baseline_of(service),
        }
    }

    /// Versions that should receive a mirrored copy of a request to
    /// `service` (dark launches). Empty for unconfigured services.
    pub fn mirrors(&self, service: ServiceId) -> &[VersionId] {
        self.rule(service).map(|r| r.mirrors.as_slice()).unwrap_or(&[])
    }
}

/// Deterministic hash of `(user, service)` into `[0, 1)`.
fn sticky_unit(user: UserId, service: ServiceId) -> f64 {
    // SplitMix64-style finalizer over the combined key.
    let mut z = user.0 ^ (service.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{EndpointDef, VersionSpec};
    use crate::latency::LatencyModel;

    fn app_with_two_versions() -> Application {
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("svc", "1.0.0")
                .endpoint(EndpointDef::new("api", LatencyModel::default())),
        );
        b.version(
            VersionSpec::new("svc", "1.1.0")
                .endpoint(EndpointDef::new("api", LatencyModel::default())),
        );
        b.version(
            VersionSpec::new("other", "1.0.0")
                .endpoint(EndpointDef::new("api", LatencyModel::default())),
        );
        b.build().unwrap()
    }

    #[test]
    fn default_routes_to_baseline() {
        let app = app_with_two_versions();
        let router = Router::new();
        let svc = app.service_id("svc").unwrap();
        let baseline = app.baseline_of(svc);
        for u in 0..100 {
            assert_eq!(router.resolve(&app, svc, UserId(u)), baseline);
        }
        assert!(!router.has_rules());
    }

    #[test]
    fn split_respects_weights_approximately() {
        let app = app_with_two_versions();
        let svc = app.service_id("svc").unwrap();
        let v0 = app.version_id("svc", "1.0.0").unwrap();
        let v1 = app.version_id("svc", "1.1.0").unwrap();
        let mut router = Router::new();
        router.set_split(&app, svc, vec![(v0, 0.9), (v1, 0.1)]).unwrap();
        let n = 100_000u64;
        let hits = (0..n).filter(|u| router.resolve(&app, svc, UserId(*u)) == v1).count();
        let share = hits as f64 / n as f64;
        assert!((share - 0.1).abs() < 0.01, "canary share {share}");
    }

    #[test]
    fn resolution_is_sticky() {
        let app = app_with_two_versions();
        let svc = app.service_id("svc").unwrap();
        let v0 = app.version_id("svc", "1.0.0").unwrap();
        let v1 = app.version_id("svc", "1.1.0").unwrap();
        let mut router = Router::new();
        router.set_split(&app, svc, vec![(v0, 0.5), (v1, 0.5)]).unwrap();
        for u in 0..100 {
            let first = router.resolve(&app, svc, UserId(u));
            for _ in 0..5 {
                assert_eq!(router.resolve(&app, svc, UserId(u)), first);
            }
        }
    }

    #[test]
    fn growing_split_keeps_existing_users() {
        // A gradual rollout from 10% to 30% must not reassign users who
        // were already on the candidate (monotone cut-point property).
        let app = app_with_two_versions();
        let svc = app.service_id("svc").unwrap();
        let v0 = app.version_id("svc", "1.0.0").unwrap();
        let v1 = app.version_id("svc", "1.1.0").unwrap();
        let mut r10 = Router::new();
        // Candidate first so its cumulative interval [0, share) only grows.
        r10.set_split(&app, svc, vec![(v1, 0.1), (v0, 0.9)]).unwrap();
        let mut r30 = Router::new();
        r30.set_split(&app, svc, vec![(v1, 0.3), (v0, 0.7)]).unwrap();
        for u in 0..20_000 {
            if r10.resolve(&app, svc, UserId(u)) == v1 {
                assert_eq!(r30.resolve(&app, svc, UserId(u)), v1);
            }
        }
    }

    #[test]
    fn split_validation() {
        let app = app_with_two_versions();
        let svc = app.service_id("svc").unwrap();
        let other = app.service_id("other").unwrap();
        let v0 = app.version_id("svc", "1.0.0").unwrap();
        let vo = app.version_id("other", "1.0.0").unwrap();
        let mut router = Router::new();
        assert!(router.set_split(&app, svc, vec![]).is_err());
        assert!(router.set_split(&app, svc, vec![(v0, 0.5)]).is_err());
        assert!(router.set_split(&app, svc, vec![(v0, 1.5), (vo, -0.5)]).is_err());
        assert!(router.set_split(&app, svc, vec![(vo, 1.0)]).is_err());
        assert!(router.set_split(&app, other, vec![(vo, 1.0)]).is_ok());
    }

    #[test]
    fn mirrors_are_managed() {
        let app = app_with_two_versions();
        let svc = app.service_id("svc").unwrap();
        let v1 = app.version_id("svc", "1.1.0").unwrap();
        let mut router = Router::new();
        router.add_mirror(&app, svc, v1).unwrap();
        assert_eq!(router.mirrors(svc), &[v1]);
        assert!(router.add_mirror(&app, svc, v1).is_err(), "double mirror");
        router.remove_mirror(svc, v1);
        assert!(router.mirrors(svc).is_empty());
        let other = app.service_id("other").unwrap();
        assert!(router.add_mirror(&app, other, v1).is_err(), "wrong service");
    }

    #[test]
    fn clear_restores_baseline() {
        let app = app_with_two_versions();
        let svc = app.service_id("svc").unwrap();
        let v1 = app.version_id("svc", "1.1.0").unwrap();
        let mut router = Router::new();
        router.set_split(&app, svc, vec![(v1, 1.0)]).unwrap();
        assert_eq!(router.resolve(&app, svc, UserId(1)), v1);
        router.clear(svc);
        assert_eq!(router.resolve(&app, svc, UserId(1)), app.baseline_of(svc));
    }

    #[test]
    fn proxy_overhead_is_stored() {
        let router = Router::with_proxy_overhead(SimDuration::from_millis(2));
        assert_eq!(router.proxy_overhead().as_millis(), 2);
        assert_eq!(Router::new().proxy_overhead(), SimDuration::ZERO);
    }
}
