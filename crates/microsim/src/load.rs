//! Per-version load tracking and latency inflation.
//!
//! The paper observed that dark launching "might drastically increase load
//! in parts of the system […] triggering cascading effects", while A/B
//! splits have the opposite, load-balancing effect (Section 1.2.3). To
//! reproduce those dynamics the simulator tracks each deployed version's
//! arrival rate and inflates its service times as utilization approaches
//! capacity.
//!
//! The estimator is a two-bucket sliding counter (one-second buckets): the
//! rate reported for the current instant is the completed previous bucket's
//! count, which is cheap, deterministic, and free of warm-up artifacts.

use crate::app::{Application, VersionId};
use cex_core::simtime::SimTime;
use std::collections::VecDeque;

/// Latency multipliers are capped here; beyond ~10× the system would be in
/// collapse and the experiment checks fire long before.
const MAX_MULTIPLIER: f64 = 10.0;

/// Width of a counting bucket in milliseconds.
const BUCKET_MS: u64 = 1_000;

#[derive(Debug, Clone, Copy, Default)]
struct VersionLoad {
    bucket_start_ms: u64,
    current_count: u64,
    prev_rate_rps: f64,
}

/// Tracks per-version arrival rates over simulated time.
#[derive(Debug, Clone, Default)]
pub struct LoadTracker {
    per_version: Vec<VersionLoad>,
}

impl LoadTracker {
    /// Creates a tracker for `app`'s deployed versions.
    pub fn new(app: &Application) -> Self {
        LoadTracker { per_version: vec![VersionLoad::default(); app.version_count()] }
    }

    /// Ensures the tracker covers versions deployed after construction.
    pub fn resize_for(&mut self, app: &Application) {
        if self.per_version.len() < app.version_count() {
            self.per_version.resize(app.version_count(), VersionLoad::default());
        }
    }

    /// Records one request arriving at `version` at time `now`.
    pub fn record_arrival(&mut self, version: VersionId, now: SimTime) {
        let slot = &mut self.per_version[version.0];
        let bucket = now.as_millis() / BUCKET_MS * BUCKET_MS;
        match bucket.cmp(&slot.bucket_start_ms) {
            std::cmp::Ordering::Equal => slot.current_count += 1,
            std::cmp::Ordering::Greater => {
                // Finish the old bucket; if more than one bucket elapsed the
                // intermediate rate was zero.
                let gap_buckets = (bucket - slot.bucket_start_ms) / BUCKET_MS;
                slot.prev_rate_rps = if gap_buckets == 1 {
                    slot.current_count as f64 / (BUCKET_MS as f64 / 1_000.0)
                } else {
                    0.0
                };
                slot.bucket_start_ms = bucket;
                slot.current_count = 1;
            }
            std::cmp::Ordering::Less => {
                // Out-of-order arrival (can happen at bucket edges when the
                // caller batches); count it into the current bucket.
                slot.current_count += 1;
            }
        }
    }

    /// The most recent completed-bucket arrival rate of `version` in
    /// requests per second.
    pub fn rate_rps(&self, version: VersionId) -> f64 {
        self.per_version.get(version.0).map(|s| s.prev_rate_rps).unwrap_or(0.0)
    }

    /// Utilization of `version`: arrival rate over capacity.
    pub fn utilization(&self, app: &Application, version: VersionId) -> f64 {
        let capacity = app.version(version).capacity_rps;
        if capacity <= 0.0 {
            0.0
        } else {
            self.rate_rps(version) / capacity
        }
    }

    /// The latency multiplier currently applying to `version`:
    /// `1 + k·u²` with utilization `u` and the version's load sensitivity
    /// `k`, capped at 10×. At `u = 1` (fully loaded) latency is `1 + k`
    /// times the unloaded value.
    pub fn multiplier(&self, app: &Application, version: VersionId) -> f64 {
        let u = self.utilization(app, version);
        let k = app.version(version).load_sensitivity;
        (1.0 + k * u * u).min(MAX_MULTIPLIER)
    }
}

/// Outcome of asking a version for a concurrency slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A slot was free; the request begins service immediately.
    Immediate,
    /// All slots are busy; the request was enqueued.
    Queued,
    /// Slots busy and the admission queue full; the request is shed.
    Shed,
}

#[derive(Debug, Clone, Default)]
struct VersionOccupancy {
    limit: Option<u32>,
    queue_capacity: Option<u32>,
    busy: u32,
    queue: VecDeque<u64>,
    /// Deepest the admission queue has ever been — a pure function of
    /// the seed, surfaced as a high-water gauge in the observability
    /// counter registry.
    queue_hwm: u64,
}

/// Per-version concurrency slots and bounded FIFO admission queues — the
/// open-loop overload model of the event-driven core. A request holds a
/// slot from service begin until its frame finishes; releasing a slot
/// admits the longest-waiting queued request (identified by an opaque
/// caller-chosen token).
#[derive(Debug, Clone, Default)]
pub struct OccupancyTable {
    per_version: Vec<VersionOccupancy>,
}

impl OccupancyTable {
    /// Creates a table covering `app`'s deployed versions.
    pub fn new(app: &Application) -> Self {
        let mut t = OccupancyTable::default();
        t.resize_for(app);
        t
    }

    /// Ensures the table covers versions deployed after construction.
    pub fn resize_for(&mut self, app: &Application) {
        for idx in self.per_version.len()..app.version_count() {
            let v = app.version(VersionId(idx));
            self.per_version.push(VersionOccupancy {
                limit: v.concurrency_limit,
                queue_capacity: v.queue_capacity,
                busy: 0,
                queue: VecDeque::new(),
                queue_hwm: 0,
            });
        }
    }

    /// Requests a slot on `version` for the request identified by `token`.
    /// With no configured limit every admission is [`Admission::Immediate`].
    pub fn try_admit(&mut self, version: VersionId, token: u64) -> Admission {
        let slot = &mut self.per_version[version.0];
        match slot.limit {
            None => {
                slot.busy += 1;
                Admission::Immediate
            }
            Some(limit) if slot.busy < limit => {
                slot.busy += 1;
                Admission::Immediate
            }
            Some(_) => {
                if slot.queue_capacity.is_none_or(|cap| (slot.queue.len() as u32) < cap) {
                    slot.queue.push_back(token);
                    slot.queue_hwm = slot.queue_hwm.max(slot.queue.len() as u64);
                    Admission::Queued
                } else {
                    Admission::Shed
                }
            }
        }
    }

    /// Releases one slot on `version`. When a request is waiting, it takes
    /// the freed slot and its token is returned so the caller can resume it.
    ///
    /// # Panics
    ///
    /// Panics if no slot is held (release without matching admit).
    pub fn release(&mut self, version: VersionId) -> Option<u64> {
        let slot = &mut self.per_version[version.0];
        assert!(slot.busy > 0, "release without matching admission");
        match slot.queue.pop_front() {
            Some(token) => Some(token), // busy count transfers to the admitted request
            None => {
                slot.busy -= 1;
                None
            }
        }
    }

    /// Requests currently holding a slot on `version`.
    pub fn busy(&self, version: VersionId) -> u32 {
        self.per_version.get(version.0).map(|s| s.busy).unwrap_or(0)
    }

    /// Requests currently waiting in `version`'s admission queue.
    pub fn queue_len(&self, version: VersionId) -> usize {
        self.per_version.get(version.0).map(|s| s.queue.len()).unwrap_or(0)
    }

    /// Deepest `version`'s admission queue has ever been.
    pub fn queue_hwm(&self, version: VersionId) -> u64 {
        self.per_version.get(version.0).map(|s| s.queue_hwm).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{EndpointDef, VersionSpec};
    use crate::latency::LatencyModel;

    fn one_service_app(capacity: f64, sensitivity: f64) -> Application {
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("svc", "1")
                .capacity(capacity)
                .load_sensitivity(sensitivity)
                .endpoint(EndpointDef::new("api", LatencyModel::default())),
        );
        b.build().unwrap()
    }

    #[test]
    fn rate_reflects_previous_bucket() {
        let app = one_service_app(100.0, 1.0);
        let v = app.version_id("svc", "1").unwrap();
        let mut tracker = LoadTracker::new(&app);
        // 50 arrivals in second 0.
        for i in 0..50 {
            tracker.record_arrival(v, SimTime::from_millis(i * 20));
        }
        assert_eq!(tracker.rate_rps(v), 0.0, "bucket not yet complete");
        // First arrival of second 1 closes the bucket.
        tracker.record_arrival(v, SimTime::from_millis(1_000));
        assert!((tracker.rate_rps(v) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn idle_gap_resets_rate() {
        let app = one_service_app(100.0, 1.0);
        let v = app.version_id("svc", "1").unwrap();
        let mut tracker = LoadTracker::new(&app);
        tracker.record_arrival(v, SimTime::from_millis(0));
        // Next arrival three buckets later: the intermediate rate was zero.
        tracker.record_arrival(v, SimTime::from_millis(3_000));
        assert_eq!(tracker.rate_rps(v), 0.0);
    }

    #[test]
    fn multiplier_grows_with_load() {
        let app = one_service_app(100.0, 2.0);
        let v = app.version_id("svc", "1").unwrap();
        let mut tracker = LoadTracker::new(&app);
        assert_eq!(tracker.multiplier(&app, v), 1.0);
        // Run a full second at capacity.
        for i in 0..100 {
            tracker.record_arrival(v, SimTime::from_millis(i * 10));
        }
        tracker.record_arrival(v, SimTime::from_millis(1_000));
        let u = tracker.utilization(&app, v);
        assert!((u - 1.0).abs() < 0.05, "utilization {u}");
        let m = tracker.multiplier(&app, v);
        assert!((m - 3.0).abs() < 0.2, "multiplier {m} should be ≈ 1 + k at capacity");
    }

    #[test]
    fn multiplier_is_capped() {
        let app = one_service_app(1.0, 1000.0);
        let v = app.version_id("svc", "1").unwrap();
        let mut tracker = LoadTracker::new(&app);
        for i in 0..1_000 {
            tracker.record_arrival(v, SimTime::from_millis(i));
        }
        tracker.record_arrival(v, SimTime::from_millis(1_000));
        assert_eq!(tracker.multiplier(&app, v), MAX_MULTIPLIER);
    }

    #[test]
    fn zero_sensitivity_disables_inflation() {
        let app = one_service_app(1.0, 0.0);
        let v = app.version_id("svc", "1").unwrap();
        let mut tracker = LoadTracker::new(&app);
        for i in 0..1_000 {
            tracker.record_arrival(v, SimTime::from_millis(i));
        }
        tracker.record_arrival(v, SimTime::from_millis(1_000));
        assert_eq!(tracker.multiplier(&app, v), 1.0);
    }

    fn limited_app(slots: u32, depth: u32) -> Application {
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("svc", "1")
                .concurrency_limit(slots)
                .queue_capacity(depth)
                .endpoint(EndpointDef::new("api", LatencyModel::default())),
        );
        b.build().unwrap()
    }

    #[test]
    fn unlimited_versions_always_admit() {
        let app = one_service_app(100.0, 1.0);
        let v = app.version_id("svc", "1").unwrap();
        let mut occ = OccupancyTable::new(&app);
        for token in 0..1_000 {
            assert_eq!(occ.try_admit(v, token), Admission::Immediate);
        }
        assert_eq!(occ.busy(v), 1_000);
        assert_eq!(occ.release(v), None);
        assert_eq!(occ.busy(v), 999);
    }

    #[test]
    fn queue_admits_fifo_and_sheds_on_full() {
        let app = limited_app(2, 2);
        let v = app.version_id("svc", "1").unwrap();
        let mut occ = OccupancyTable::new(&app);
        assert_eq!(occ.try_admit(v, 10), Admission::Immediate);
        assert_eq!(occ.try_admit(v, 11), Admission::Immediate);
        assert_eq!(occ.try_admit(v, 12), Admission::Queued);
        assert_eq!(occ.try_admit(v, 13), Admission::Queued);
        assert_eq!(occ.try_admit(v, 14), Admission::Shed);
        assert_eq!(occ.busy(v), 2);
        assert_eq!(occ.queue_len(v), 2);
        // Releases hand the slot to the longest-waiting request, in order.
        assert_eq!(occ.release(v), Some(12));
        assert_eq!(occ.release(v), Some(13));
        assert_eq!(occ.busy(v), 2, "queued admissions keep the slot busy");
        assert_eq!(occ.release(v), None);
        assert_eq!(occ.release(v), None);
        assert_eq!(occ.busy(v), 0);
    }

    #[test]
    #[should_panic(expected = "release without matching admission")]
    fn release_without_admit_panics() {
        let app = limited_app(1, 1);
        let v = app.version_id("svc", "1").unwrap();
        let mut occ = OccupancyTable::new(&app);
        occ.release(v);
    }

    #[test]
    fn occupancy_resize_covers_new_versions() {
        let mut app = one_service_app(10.0, 1.0);
        let mut occ = OccupancyTable::new(&app);
        let vid = app
            .deploy(
                VersionSpec::new("svc", "2")
                    .concurrency_limit(1)
                    .endpoint(EndpointDef::new("api", LatencyModel::default())),
            )
            .unwrap();
        occ.resize_for(&app);
        assert_eq!(occ.try_admit(vid, 1), Admission::Immediate);
        assert_eq!(occ.try_admit(vid, 2), Admission::Queued);
    }

    #[test]
    fn resize_covers_new_versions() {
        let mut app = one_service_app(10.0, 1.0);
        let mut tracker = LoadTracker::new(&app);
        let vid = app
            .deploy(
                VersionSpec::new("svc", "2")
                    .endpoint(EndpointDef::new("api", LatencyModel::default())),
            )
            .unwrap();
        tracker.resize_for(&app);
        tracker.record_arrival(vid, SimTime::from_millis(5));
        assert_eq!(tracker.rate_rps(vid), 0.0);
    }
}
