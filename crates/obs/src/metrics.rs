//! Streaming metrics folded from the flight-recorder event stream.
//!
//! [`MetricsObserver`] consumes the same typed [`Event`] feed the
//! [`crate::Recorder`] does and folds it into the `radar-stats`
//! primitives the paper's evaluation is phrased in: per-host
//! [`WindowedRate`] load gauges (§2.1's measurement interval),
//! per-object request counters, a bytes×hops bandwidth [`TimeSeries`]
//! (§4, Table 2), a latency [`Histogram`] with streaming quantiles,
//! and rolling fault / re-replication rates. The same fold powers the
//! live `radar simulate --dashboard` view and the offline
//! `radar events watch FILE` replay, so both render identical
//! aggregates from identical streams.
//!
//! The fold reproduces the simulator's own accounting exactly for
//! fault-free runs: served events carry the service-completion time
//! the simulator uses for both its bandwidth series and its host-load
//! windows, and latency samples arrive in the same order they were
//! recorded.

use crate::event::{
    ConsistencyClass, DecisionBranch, Event, EventKind, PlacementActionKind, EVENT_TYPES,
};
use crate::idmap::IdMap;
use radar_stats::{BinSpec, Histogram, OnlineSummary, P2Quantile, TimeSeries, WindowedRate};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Tuning knobs for a [`MetricsObserver`], mirroring the scenario
/// parameters the simulator's own metrics use so folded aggregates are
/// comparable with the end-of-run report.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsConfig {
    /// Object size in bytes (bandwidth = size × hops per response).
    pub object_size: u64,
    /// Width of bandwidth time bins, seconds (the scenario's
    /// `metric_bin`; the paper plots 100 s bins).
    pub bandwidth_bin: f64,
    /// Host load measurement interval, seconds (§2.1; 20 s in the
    /// evaluation).
    pub load_interval: f64,
    /// Latency histogram bucket width, seconds.
    pub latency_bucket: f64,
    /// Number of latency histogram buckets (plus overflow).
    pub latency_buckets: usize,
    /// Window for the rolling served/failed/re-replication rates the
    /// dashboard displays, seconds.
    pub rolling_window: f64,
    /// How many recent fault transitions the fault banner retains.
    pub fault_banner: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self {
            object_size: 12 * 1024,
            bandwidth_bin: 100.0,
            load_interval: 20.0,
            latency_bucket: 0.025,
            latency_buckets: 40,
            rolling_window: 20.0,
            fault_banner: 5,
        }
    }
}

/// Per-object tallies maintained by the fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectCounters {
    /// Requests that entered a gateway for this object.
    pub requests: u64,
    /// Responses delivered.
    pub served: u64,
    /// Requests that failed (no live reachable replica).
    pub failed: u64,
    /// Placement actions (drops, migrations, replications) that touched
    /// this object.
    pub placement_actions: u64,
    /// Net replica-count change observed in the stream: +1 per
    /// replication / re-replication, −1 per drop, 0 for migrations.
    pub replica_delta: i64,
}

/// One host's load gauge.
#[derive(Debug, Clone, PartialEq)]
struct HostGauge {
    rate: WindowedRate,
    served_total: u64,
}

/// Folds flight-recorder events into streaming dashboard aggregates.
///
/// Feed it events in sequence order via [`fold`](Self::fold) (or
/// attach it to a simulation as an observer), then call
/// [`finalize`](Self::finalize) with the run duration so windowed
/// gauges complete their last interval.
///
/// ```
/// use radar_obs::{Event, EventKind, MetricsObserver};
///
/// let mut m = MetricsObserver::default();
/// m.fold(&Event {
///     seq: 1,
///     parent: None,
///     t: 0.5,
///     queue_depth: 0,
///     kind: EventKind::RequestServed {
///         gateway: 0,
///         object: 7,
///         host: 3,
///         latency: 0.08,
///         hops: 2,
///     },
/// });
/// m.finalize(20.0);
/// assert_eq!(m.served(), 1);
/// assert_eq!(m.bandwidth().bin_sum(0), (12 * 1024 * 2) as f64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsObserver {
    cfg: MetricsConfig,
    events_seen: u64,
    last_t: f64,
    /// Counts indexed like [`EVENT_TYPES`].
    type_counts: [u64; EVENT_TYPES.len()],
    hosts: IdMap<u16, HostGauge>,
    objects: IdMap<u32, ObjectCounters>,
    bandwidth: TimeSeries,
    max_load: TimeSeries,
    next_load_sample: f64,
    latency_summary: OnlineSummary,
    latency_p50: P2Quantile,
    latency_p99: P2Quantile,
    latency_hist: Histogram,
    served_rate: WindowedRate,
    failed_rate: WindowedRate,
    re_replication_rate: WindowedRate,
    /// Counts indexed by [`DecisionBranch`] discriminant.
    branch_counts: [u64; BRANCHES.len()],
    /// Counts indexed by [`PlacementActionKind`] discriminant.
    placement_counts: [u64; PLACEMENT_ACTIONS.len()],
    recent_faults: VecDeque<(f64, String)>,
    faults_total: u64,
    failed_total: u64,
    served_total: u64,
    request_total: u64,
    re_replications_total: u64,
    update_bandwidth: TimeSeries,
    updates_total: u64,
    updates_by_class: [u64; 3],
    primary_reassignments: u64,
    update_deliveries: u64,
    wasted_deliveries: u64,
    updates_merged: u64,
    update_lag_type1: OnlineSummary,
    update_lag_type2: OnlineSummary,
}

impl Default for MetricsObserver {
    fn default() -> Self {
        Self::new(MetricsConfig::default())
    }
}

impl MetricsObserver {
    /// Creates an empty fold with the given configuration.
    pub fn new(cfg: MetricsConfig) -> Self {
        let bandwidth = TimeSeries::new(BinSpec::new(cfg.bandwidth_bin));
        let update_bandwidth = TimeSeries::new(BinSpec::new(cfg.bandwidth_bin));
        let max_load = TimeSeries::new(BinSpec::new(cfg.load_interval));
        let latency_hist = Histogram::new(cfg.latency_bucket, cfg.latency_buckets.max(1));
        let next_load_sample = cfg.load_interval;
        Self {
            served_rate: WindowedRate::new(cfg.rolling_window),
            failed_rate: WindowedRate::new(cfg.rolling_window),
            re_replication_rate: WindowedRate::new(cfg.rolling_window),
            cfg,
            events_seen: 0,
            last_t: 0.0,
            type_counts: [0; EVENT_TYPES.len()],
            hosts: IdMap::default(),
            objects: IdMap::default(),
            bandwidth,
            max_load,
            next_load_sample,
            latency_summary: OnlineSummary::new(),
            latency_p50: P2Quantile::new(0.5),
            latency_p99: P2Quantile::new(0.99),
            latency_hist,
            branch_counts: [0; BRANCHES.len()],
            placement_counts: [0; PLACEMENT_ACTIONS.len()],
            recent_faults: VecDeque::new(),
            faults_total: 0,
            failed_total: 0,
            served_total: 0,
            request_total: 0,
            re_replications_total: 0,
            update_bandwidth,
            updates_total: 0,
            updates_by_class: [0; 3],
            primary_reassignments: 0,
            update_deliveries: 0,
            wasted_deliveries: 0,
            updates_merged: 0,
            update_lag_type1: OnlineSummary::new(),
            update_lag_type2: OnlineSummary::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MetricsConfig {
        &self.cfg
    }

    /// Completes any load-measurement intervals that have fully elapsed
    /// by `t`, sampling the platform-wide maximum host load at each
    /// boundary (the simulator does the same at every `LoadSample`
    /// tick).
    fn sample_load_until(&mut self, t: f64) {
        while self.next_load_sample <= t {
            let boundary = self.next_load_sample;
            let mut max = 0.0f64;
            for gauge in self.hosts.values_mut() {
                gauge.rate.advance_to(boundary);
                if gauge.rate.rate() > max {
                    max = gauge.rate.rate();
                }
            }
            self.max_load.record(boundary, max);
            self.next_load_sample += self.cfg.load_interval;
        }
    }

    /// Folds one event into the aggregates. Events must arrive in
    /// sequence (non-decreasing time) order, as the recorder emits
    /// them.
    pub fn fold(&mut self, event: &Event) {
        self.sample_load_until(event.t);
        self.events_seen += 1;
        if event.t > self.last_t {
            self.last_t = event.t;
        }
        self.type_counts[type_index(&event.kind)] += 1;
        match &event.kind {
            EventKind::RequestArrived { object, .. } => {
                self.request_total += 1;
                self.objects.get_or_default(*object).requests += 1;
            }
            EventKind::Decision(d) => {
                self.branch_counts[d.branch as usize] += 1;
            }
            EventKind::RequestServed {
                object,
                host,
                latency,
                hops,
                ..
            } => {
                self.served_total += 1;
                self.served_rate.record(event.t);
                self.objects.get_or_default(*object).served += 1;
                let gauge = self.hosts.get_or_insert_with(*host, || HostGauge {
                    rate: WindowedRate::new(self.cfg.load_interval),
                    served_total: 0,
                });
                gauge.rate.record(event.t);
                gauge.served_total += 1;
                self.bandwidth
                    .record(event.t, (self.cfg.object_size * u64::from(*hops)) as f64);
                self.latency_summary.record(*latency);
                self.latency_p50.record(*latency);
                self.latency_p99.record(*latency);
                self.latency_hist.record(*latency);
            }
            EventKind::RequestFailed { object, .. } => {
                self.failed_total += 1;
                self.failed_rate.record(event.t);
                self.objects.get_or_default(*object).failed += 1;
            }
            EventKind::PlacementAction(p) => {
                self.placement_counts[p.action as usize] += 1;
                let counters = self.objects.get_or_default(p.object);
                counters.placement_actions += 1;
                counters.replica_delta += match p.action {
                    PlacementActionKind::GeoReplicate | PlacementActionKind::LoadReplicate => 1,
                    PlacementActionKind::Drop => -1,
                    _ => 0,
                };
            }
            EventKind::CountsReset { .. } => {}
            EventKind::Fault { desc } => {
                self.faults_total += 1;
                self.recent_faults.push_back((event.t, desc.clone()));
                while self.recent_faults.len() > self.cfg.fault_banner {
                    self.recent_faults.pop_front();
                }
            }
            EventKind::ReReplication { object, .. } => {
                self.re_replications_total += 1;
                self.re_replication_rate.record(event.t);
                self.objects.get_or_default(*object).replica_delta += 1;
            }
            EventKind::ProviderUpdate(u) => {
                // Same fold the simulator applies at issue time: one
                // update, its class tally, and the propagation traffic
                // charged as a whole (the event carries the exact
                // bytes×hops sum, so the cast matches bit for bit).
                self.updates_total += 1;
                self.updates_by_class[class_index(u.class)] += 1;
                self.update_bandwidth.record(event.t, u.bytes_hops as f64);
                if u.reassigned {
                    self.primary_reassignments += 1;
                }
            }
            EventKind::UpdateDelivered(u) => {
                if u.wasted {
                    self.wasted_deliveries += 1;
                } else {
                    self.update_deliveries += 1;
                    match u.class {
                        ConsistencyClass::Type1 => self.update_lag_type1.record(u.lag),
                        ConsistencyClass::Type2 => {
                            self.update_lag_type2.record(u.lag);
                            self.updates_merged += 1;
                        }
                        ConsistencyClass::Type3 => {}
                    }
                }
            }
        }
    }

    /// Rolls every windowed gauge forward to the end of the run,
    /// completing measurement intervals the event stream alone cannot
    /// close (the simulator's final `LoadSample` ticks fire on a timer,
    /// not on traffic).
    pub fn finalize(&mut self, t_end: f64) {
        self.sample_load_until(t_end);
        self.served_rate.advance_to(t_end);
        self.failed_rate.advance_to(t_end);
        self.re_replication_rate.advance_to(t_end);
        if t_end > self.last_t {
            self.last_t = t_end;
        }
    }

    // ---- aggregate views -------------------------------------------------

    /// Total events folded.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Latest time observed (event time or `finalize` horizon).
    pub fn last_t(&self) -> f64 {
        self.last_t
    }

    /// Requests that entered a gateway.
    pub fn requests(&self) -> u64 {
        self.request_total
    }

    /// Responses delivered (the report's `total_requests`).
    pub fn served(&self) -> u64 {
        self.served_total
    }

    /// Requests that failed outright.
    pub fn failed(&self) -> u64 {
        self.failed_total
    }

    /// Fault transitions applied.
    pub fn faults(&self) -> u64 {
        self.faults_total
    }

    /// Replicas restored by the re-replication sweep.
    pub fn re_replications(&self) -> u64 {
        self.re_replications_total
    }

    /// Client bandwidth (bytes×hops) per time bin.
    pub fn bandwidth(&self) -> &TimeSeries {
        &self.bandwidth
    }

    /// Maximum measured host load per measurement interval, sampled at
    /// interval boundaries exactly like the simulator's Fig. 8a series.
    pub fn max_load(&self) -> &TimeSeries {
        &self.max_load
    }

    /// Whole-run latency summary (mean/min/max/variance).
    pub fn latency_summary(&self) -> &OnlineSummary {
        &self.latency_summary
    }

    /// Streaming median latency estimate, seconds.
    pub fn latency_p50(&self) -> Option<f64> {
        self.latency_p50.estimate()
    }

    /// Streaming 99th-percentile latency estimate, seconds.
    pub fn latency_p99(&self) -> Option<f64> {
        self.latency_p99.estimate()
    }

    /// The latency histogram.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Rolling served-responses rate (events/s over the last completed
    /// rolling window).
    pub fn served_rate(&self) -> f64 {
        self.served_rate.rate()
    }

    /// Rolling failed-requests rate.
    pub fn failed_rate(&self) -> f64 {
        self.failed_rate.rate()
    }

    /// Rolling re-replication rate.
    pub fn re_replication_rate(&self) -> f64 {
        self.re_replication_rate.rate()
    }

    /// Per-host `(host, current measured load, total served)` rows,
    /// ascending by host id. The load is the rate of the host's last
    /// completed measurement interval.
    pub fn host_loads(&self) -> Vec<(u16, f64, u64)> {
        self.hosts
            .iter()
            .map(|(h, g)| (h, g.rate.rate(), g.served_total))
            .collect()
    }

    /// The `n` objects with the most gateway requests, descending (ties
    /// broken by object id).
    pub fn top_objects(&self, n: usize) -> Vec<(u32, ObjectCounters)> {
        let mut rows: Vec<(u32, ObjectCounters)> =
            self.objects.iter().map(|(o, &c)| (o, c)).collect();
        rows.sort_by(|a, b| b.1.requests.cmp(&a.1.requests).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Counters for one object, if any event mentioned it.
    pub fn object(&self, object: u32) -> Option<ObjectCounters> {
        self.objects.get(object).copied()
    }

    /// The most recent fault transitions `(t, description)`, oldest
    /// first, capped at the configured banner size.
    pub fn recent_faults(&self) -> impl Iterator<Item = &(f64, String)> {
        self.recent_faults.iter()
    }

    /// Per-event-type counts, keyed by stable type tag (types never
    /// seen are absent).
    pub fn type_counts(&self) -> BTreeMap<&'static str, u64> {
        tagged_counts(EVENT_TYPES.iter().copied(), &self.type_counts)
    }

    /// Redirector branch counts (`closest`, `least-requested`, …),
    /// keyed by the interned branch tag.
    pub fn branch_counts(&self) -> BTreeMap<&'static str, u64> {
        tagged_counts(BRANCHES.iter().map(|b| b.as_str()), &self.branch_counts)
    }

    /// Placement action counts (`drop`, `geo-migrate`, …), keyed by the
    /// interned action tag.
    pub fn placement_counts(&self) -> BTreeMap<&'static str, u64> {
        tagged_counts(
            PLACEMENT_ACTIONS.iter().map(|a| a.as_str()),
            &self.placement_counts,
        )
    }

    /// Propagation traffic (bytes × hops) from provider updates, binned
    /// like [`MetricsObserver::bandwidth`].
    pub fn update_bandwidth(&self) -> &TimeSeries {
        &self.update_bandwidth
    }

    /// Total provider updates folded.
    pub fn updates(&self) -> u64 {
        self.updates_total
    }

    /// Provider updates per §5 consistency class (type-1, type-2,
    /// type-3 in index order).
    pub fn updates_by_class(&self) -> [u64; 3] {
        self.updates_by_class
    }

    /// Updates that landed while the primary copy was unreachable and
    /// forced a primary reassignment.
    pub fn primary_reassignments(&self) -> u64 {
        self.primary_reassignments
    }

    /// Asynchronous update deliveries applied at a live replica.
    pub fn update_deliveries(&self) -> u64 {
        self.update_deliveries
    }

    /// Deliveries that arrived after the target replica was dropped.
    pub fn wasted_deliveries(&self) -> u64 {
        self.wasted_deliveries
    }

    /// Type-2 deliveries merged commutatively at the replica.
    pub fn updates_merged(&self) -> u64 {
        self.updates_merged
    }

    /// Staleness (update lag, seconds) summary for type-1 deliveries.
    pub fn update_lag_type1(&self) -> &OnlineSummary {
        &self.update_lag_type1
    }

    /// Staleness (update lag, seconds) summary for type-2 deliveries.
    pub fn update_lag_type2(&self) -> &OnlineSummary {
        &self.update_lag_type2
    }
}

/// Every [`DecisionBranch`], in discriminant order.
const BRANCHES: [DecisionBranch; 4] = [
    DecisionBranch::Closest,
    DecisionBranch::LeastRequested,
    DecisionBranch::PrimaryFallback,
    DecisionBranch::Policy,
];

/// Every [`PlacementActionKind`], in discriminant order.
const PLACEMENT_ACTIONS: [PlacementActionKind; 7] = [
    PlacementActionKind::Drop,
    PlacementActionKind::AffinityReduce,
    PlacementActionKind::DropRefused,
    PlacementActionKind::GeoMigrate,
    PlacementActionKind::GeoReplicate,
    PlacementActionKind::LoadMigrate,
    PlacementActionKind::LoadReplicate,
];

/// The event's position in [`EVENT_TYPES`].
fn type_index(kind: &EventKind) -> usize {
    match kind {
        EventKind::RequestArrived { .. } => 0,
        EventKind::Decision(_) => 1,
        EventKind::RequestServed { .. } => 2,
        EventKind::RequestFailed { .. } => 3,
        EventKind::PlacementAction(_) => 4,
        EventKind::CountsReset { .. } => 5,
        EventKind::Fault { .. } => 6,
        EventKind::ReReplication { .. } => 7,
        EventKind::ProviderUpdate(_) => 8,
        EventKind::UpdateDelivered(_) => 9,
    }
}

/// The nonzero `counts`, keyed by the tag at the same index.
fn tagged_counts(
    tags: impl Iterator<Item = &'static str>,
    counts: &[u64],
) -> BTreeMap<&'static str, u64> {
    tags.zip(counts.iter().copied())
        .filter(|&(_, n)| n > 0)
        .collect()
}

fn class_index(class: ConsistencyClass) -> usize {
    match class {
        ConsistencyClass::Type1 => 0,
        ConsistencyClass::Type2 => 1,
        ConsistencyClass::Type3 => 2,
    }
}

/// A cloneable, thread-safe handle around a [`MetricsObserver`]:
/// attach one clone to the simulation and read the aggregates from
/// another (the dashboard renderer does exactly this).
#[derive(Clone, Debug)]
pub struct SharedMetrics(Arc<Mutex<MetricsObserver>>);

impl SharedMetrics {
    /// Creates a shared fold with the given configuration.
    pub fn new(cfg: MetricsConfig) -> Self {
        Self(Arc::new(Mutex::new(MetricsObserver::new(cfg))))
    }

    /// Folds one event.
    pub fn fold(&self, event: &Event) {
        self.0.lock().expect("metrics lock").fold(event);
    }

    /// Rolls windowed gauges forward to the end of the run.
    pub fn finalize(&self, t_end: f64) {
        self.0.lock().expect("metrics lock").finalize(t_end);
    }

    /// Runs `f` with shared access to the inner fold.
    pub fn with<R>(&self, f: impl FnOnce(&MetricsObserver) -> R) -> R {
        f(&self.0.lock().expect("metrics lock"))
    }
}

impl Default for SharedMetrics {
    fn default() -> Self {
        Self::new(MetricsConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecisionBranch, DecisionEvent, FailReason, PlacementActionEvent};

    fn ev(seq: u64, t: f64, kind: EventKind) -> Event {
        Event {
            seq,
            parent: None,
            t,
            queue_depth: 0,
            kind,
        }
    }

    fn served(seq: u64, t: f64, object: u32, host: u16, latency: f64, hops: u32) -> Event {
        ev(
            seq,
            t,
            EventKind::RequestServed {
                gateway: 0,
                object,
                host,
                latency,
                hops,
            },
        )
    }

    #[test]
    fn served_events_feed_bandwidth_latency_and_host_gauges() {
        let mut m = MetricsObserver::new(MetricsConfig {
            object_size: 1000,
            bandwidth_bin: 100.0,
            load_interval: 10.0,
            ..MetricsConfig::default()
        });
        // Host 3 serves 20 requests in [0, 10): load 2.0 req/s.
        for i in 0..20 {
            m.fold(&served(i + 1, i as f64 * 0.5, 7, 3, 0.05, 2));
        }
        m.fold(&served(21, 12.0, 8, 4, 0.15, 3));
        m.finalize(20.0);
        assert_eq!(m.served(), 21);
        assert_eq!(m.bandwidth().bin_sum(0), 20.0 * 2000.0 + 3000.0);
        // Sample at t=10 saw host 3 at 2 req/s; host 4 had not served yet.
        assert_eq!(m.max_load().bin_sum(1), 2.0);
        let hosts = m.host_loads();
        assert_eq!(hosts.len(), 2);
        assert_eq!(hosts[0].0, 3);
        assert_eq!(hosts[0].2, 20);
        let mean = m.latency_summary().mean().unwrap();
        assert!((mean - (20.0 * 0.05 + 0.15) / 21.0).abs() < 1e-12);
        assert_eq!(m.latency_histogram().total(), 21);
        let top = m.top_objects(1);
        assert_eq!(top[0].0, 7);
        assert_eq!(top[0].1.served, 20);
    }

    #[test]
    fn load_sampling_matches_interval_boundaries() {
        let mut m = MetricsObserver::new(MetricsConfig {
            load_interval: 20.0,
            ..MetricsConfig::default()
        });
        m.fold(&served(1, 5.0, 1, 0, 0.1, 1));
        // No boundary crossed yet.
        assert_eq!(m.max_load().len(), 0);
        m.fold(&served(2, 45.0, 1, 0, 0.1, 1));
        // Boundaries at 20 and 40 sampled before folding the event.
        assert_eq!(m.max_load().bin_count(1), 1);
        assert_eq!(m.max_load().bin_sum(1), 1.0 / 20.0);
        assert_eq!(m.max_load().bin_count(2), 1);
        assert_eq!(m.max_load().bin_sum(2), 0.0);
        m.finalize(100.0);
        // Remaining boundaries 60, 80, 100 completed by finalize.
        assert_eq!(m.max_load().total_count(), 5);
    }

    #[test]
    fn placement_and_rereplication_track_replica_delta() {
        let mut m = MetricsObserver::default();
        let action = |seq, action: PlacementActionKind, target| {
            ev(
                seq,
                30.0,
                EventKind::PlacementAction(PlacementActionEvent {
                    host: 1,
                    object: 5,
                    action,
                    target,
                    unit_rate: 0.2,
                    share: None,
                    ratio: None,
                    deletion_threshold: 0.01,
                    replication_threshold: 0.18,
                }),
            )
        };
        m.fold(&action(1, PlacementActionKind::GeoReplicate, Some(2)));
        m.fold(&action(2, PlacementActionKind::GeoMigrate, Some(3)));
        m.fold(&action(3, PlacementActionKind::Drop, None));
        m.fold(&ev(
            4,
            40.0,
            EventKind::ReReplication {
                object: 5,
                target: 9,
                elapsed: 12.0,
            },
        ));
        let o = m.object(5).unwrap();
        assert_eq!(o.placement_actions, 3);
        assert_eq!(o.replica_delta, 1); // +1 −1 +1
        assert_eq!(m.re_replications(), 1);
        assert_eq!(m.placement_counts()["drop"], 1);
    }

    #[test]
    fn faults_and_failures_update_banner_and_rates() {
        let mut m = MetricsObserver::new(MetricsConfig {
            fault_banner: 2,
            rolling_window: 10.0,
            ..MetricsConfig::default()
        });
        for (i, t) in [1.0, 2.0, 3.0].iter().enumerate() {
            m.fold(&ev(
                i as u64 + 1,
                *t,
                EventKind::Fault {
                    desc: format!("host-crash {i}"),
                },
            ));
        }
        m.fold(&ev(
            4,
            4.0,
            EventKind::RequestFailed {
                gateway: 0,
                object: 1,
                reason: FailReason::AllReplicasDown,
            },
        ));
        assert_eq!(m.faults(), 3);
        assert_eq!(m.failed(), 1);
        let banner: Vec<&(f64, String)> = m.recent_faults().collect();
        assert_eq!(banner.len(), 2, "banner capped");
        assert_eq!(banner[0].0, 2.0, "oldest banner entry rotated out");
        m.finalize(10.0);
        assert!((m.failed_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn decision_branches_and_requests_counted() {
        let mut m = MetricsObserver::default();
        m.fold(&ev(
            1,
            0.5,
            EventKind::RequestArrived {
                gateway: 2,
                object: 9,
            },
        ));
        m.fold(&ev(
            2,
            0.6,
            EventKind::Decision(DecisionEvent {
                object: 9,
                gateway: 2,
                chosen: 1,
                branch: DecisionBranch::Closest,
                constant: 2.0,
                closest: Some(1),
                least: Some(1),
                unit_closest: Some(1.0),
                unit_least: Some(1.0),
                candidates: Vec::new(),
            }),
        ));
        assert_eq!(m.requests(), 1);
        assert_eq!(m.branch_counts()["closest"], 1);
        assert_eq!(m.type_counts()["decision"], 1);
        assert_eq!(m.events_seen(), 2);
    }

    #[test]
    fn count_tables_follow_discriminant_and_tag_order() {
        for (i, b) in BRANCHES.iter().enumerate() {
            assert_eq!(*b as usize, i);
        }
        for (i, a) in PLACEMENT_ACTIONS.iter().enumerate() {
            assert_eq!(*a as usize, i);
        }
        let kinds = [
            EventKind::RequestArrived {
                gateway: 0,
                object: 0,
            },
            EventKind::Decision(DecisionEvent::default()),
            served(1, 0.0, 0, 0, 0.0, 0).kind,
            EventKind::RequestFailed {
                gateway: 0,
                object: 0,
                reason: FailReason::Unreachable,
            },
            EventKind::PlacementAction(PlacementActionEvent {
                host: 0,
                object: 0,
                action: PlacementActionKind::Drop,
                target: None,
                unit_rate: 0.0,
                share: None,
                ratio: None,
                deletion_threshold: 0.0,
                replication_threshold: 0.0,
            }),
            EventKind::CountsReset {
                object: 0,
                cause: crate::event::ResetCause::Purge,
            },
            EventKind::Fault {
                desc: String::new(),
            },
            EventKind::ReReplication {
                object: 0,
                target: 0,
                elapsed: 0.0,
            },
            EventKind::ProviderUpdate(crate::event::ProviderUpdateEvent {
                object: 0,
                class: ConsistencyClass::Type1,
                version: 0,
                primary: 0,
                targets: 0,
                bytes_hops: 0,
                reassigned: false,
            }),
            EventKind::UpdateDelivered(crate::event::UpdateDeliveredEvent {
                object: 0,
                host: 0,
                class: ConsistencyClass::Type1,
                version: 0,
                lag: 0.0,
                wasted: true,
            }),
        ];
        assert_eq!(kinds.len(), EVENT_TYPES.len());
        for (i, kind) in kinds.into_iter().enumerate() {
            let e = ev(1, 0.0, kind);
            assert_eq!(type_index(&e.kind), i);
            assert_eq!(EVENT_TYPES[i], e.type_name());
        }
    }

    #[test]
    fn shared_metrics_round_trip() {
        let shared = SharedMetrics::default();
        let clone = shared.clone();
        clone.fold(&served(1, 1.0, 3, 2, 0.05, 1));
        clone.finalize(20.0);
        assert_eq!(shared.with(|m| m.served()), 1);
        assert_eq!(shared.with(|m| m.max_load().total_count()), 1);
    }
}
