//! Per-host protocol state: hosted objects, access counts, affinities,
//! and windowed load measurement.

use radar_simnet::NodeId;

use crate::table::{Replica, ReplicaTable};
use crate::{LoadEstimator, ObjectId, Params};

/// State a host keeps for one of its object replicas (paper §4.1):
/// the replica affinity `aff(x_s)`, the per-candidate access counts
/// `cnt(p, x_s)` accumulated since the last placement run, and the
/// replica's measured request rate `load(x_s)`.
///
/// A read-only view into the host's replica table, returned by
/// [`HostState::object`].
#[derive(Debug, Clone, Copy)]
pub struct ObjectState<'a> {
    replica: &'a Replica,
    /// The owning host's current measurement window.
    window: u32,
    /// The owning host's measurement interval (seconds).
    interval: f64,
}

impl<'a> ObjectState<'a> {
    /// The replica's affinity.
    pub fn aff(&self) -> u32 {
        self.replica.aff
    }

    /// The replica's measured request rate `load(x_s)`: its serviced
    /// requests over the last completed measurement window, per second.
    pub fn rate(&self) -> f64 {
        self.replica.last_window_serviced(self.window) as f64 / self.interval
    }

    /// The replica's *unit load* `load(x_s)/aff(x_s)`.
    pub fn unit_load(&self) -> f64 {
        self.rate() / self.aff() as f64
    }

    /// Access count of candidate `p` since the last placement run.
    pub fn count(&self, p: NodeId) -> u64 {
        self.replica
            .access_counts
            .iter()
            .find(|&&(q, _)| q == p)
            .map_or(0, |&(_, c)| c)
    }

    /// Iterates `(candidate, count)` pairs in first-seen order. Every
    /// consumer either folds over the counts or re-sorts by its own key,
    /// so the iteration order is not observable in protocol decisions.
    pub fn counts(&self) -> impl Iterator<Item = (NodeId, u64)> + 'a {
        self.replica.access_counts.iter().copied()
    }

    /// When this replica was last acquired via `CreateObj` (0 for
    /// bootstrap installs).
    pub fn acquired_at(&self) -> f64 {
        self.replica.acquired_at
    }
}

impl PartialEq for ObjectState<'_> {
    /// Compares the replica's state as the host sees it now: stored
    /// serviced counts are normalised to the host's current window.
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.replica, other.replica);
        a.aff == b.aff
            && a.acquired_at == b.acquired_at
            && a.access_counts == b.access_counts
            && a.last_window_serviced(self.window) == b.last_window_serviced(other.window)
            && a.window_serviced(self.window) == b.window_serviced(other.window)
            && self.interval == other.interval
    }
}

/// The protocol state of a single hosting server.
///
/// `HostState` is a pure state machine: the surrounding simulator (or
/// test) calls [`record_access`](Self::record_access) when a request
/// arrives, [`record_serviced`](Self::record_serviced) when its response
/// leaves, and [`advance`](Self::advance) to move the measurement clock.
/// The placement algorithms in [`crate::placement`] then read and mutate
/// this state through its public methods.
///
/// # Examples
///
/// ```
/// use radar_core::{HostState, ObjectId, Params};
/// use radar_simnet::NodeId;
///
/// let mut host = HostState::new(NodeId::new(0), Params::paper());
/// let x = ObjectId::new(7);
/// host.install_object(x);
/// host.record_access(x, &[NodeId::new(0), NodeId::new(3)]);
/// assert_eq!(host.object(x).unwrap().count(NodeId::new(3)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct HostState {
    node: NodeId,
    params: Params,
    offloading: bool,
    load: LoadEstimator,
    window_start: f64,
    window_total: u64,
    /// Completed measurement windows, i.e. the index of the current one.
    /// Replicas roll their serviced counts against it lazily.
    window: u32,
    /// Time of the most recently completed placement run.
    last_placement_run: f64,
    /// Maximum number of distinct objects this host can store
    /// (`None` = unbounded). The paper's §2.1 storage-load component,
    /// reduced to its admission effect: a full host refuses new copies.
    storage_limit: Option<usize>,
    objects: ReplicaTable,
}

impl PartialEq for HostState {
    /// Replica tables compare as sets: their slab order is insertion
    /// history, not state, so two hosts that installed the same objects
    /// in different orders are equal.
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node
            && self.params == other.params
            && self.offloading == other.offloading
            && self.load == other.load
            && self.window_start == other.window_start
            && self.window_total == other.window_total
            && self.window == other.window
            && self.last_placement_run == other.last_placement_run
            && self.storage_limit == other.storage_limit
            && self.objects.len() == other.objects.len()
            && self
                .objects
                .iter()
                .all(|r| other.object(r.id) == Some(self.view(r)))
    }
}

impl HostState {
    /// Creates an empty host.
    pub fn new(node: NodeId, params: Params) -> Self {
        Self {
            node,
            params,
            offloading: false,
            load: LoadEstimator::new(),
            window_start: 0.0,
            window_total: 0,
            window: 0,
            last_placement_run: 0.0,
            storage_limit: None,
            objects: ReplicaTable::default(),
        }
    }

    /// Limits this host to at most `max_objects` distinct objects;
    /// `CreateObj` requests needing a new physical copy are refused once
    /// the limit is reached (affinity increments still succeed).
    ///
    /// # Panics
    ///
    /// Panics if `max_objects` is zero.
    pub fn set_storage_limit(&mut self, max_objects: usize) {
        assert!(
            max_objects > 0,
            "a host must be able to store at least one object"
        );
        self.storage_limit = Some(max_objects);
    }

    /// The storage limit, if any.
    pub fn storage_limit(&self) -> Option<usize> {
        self.storage_limit
    }

    /// `true` if a new physical copy would exceed the storage limit.
    pub fn storage_full(&self) -> bool {
        self.storage_limit
            .is_some_and(|limit| self.objects.len() >= limit)
    }

    /// This host's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The protocol parameters this host runs with.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Whether the host is in offloading mode (§4.2.2).
    pub fn is_offloading(&self) -> bool {
        self.offloading
    }

    /// Sets offloading mode (used by the placement driver).
    pub fn set_offloading(&mut self, offloading: bool) {
        self.offloading = offloading;
    }

    /// Number of distinct objects hosted.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Sum of affinities over all hosted objects (logical replicas held).
    pub fn total_affinity(&self) -> u64 {
        self.objects.iter().map(|r| r.aff as u64).sum()
    }

    /// `true` if this host has a replica of `object`.
    pub fn has_object(&self, object: ObjectId) -> bool {
        self.objects.get(object).is_some()
    }

    /// The state of `object` on this host, if present.
    pub fn object(&self, object: ObjectId) -> Option<ObjectState<'_>> {
        self.objects.get(object).map(|r| self.view(r))
    }

    fn view<'a>(&self, replica: &'a Replica) -> ObjectState<'a> {
        ObjectState {
            replica,
            window: self.window,
            interval: self.params.measurement_interval,
        }
    }

    /// Snapshots the hosted object ids, ascending, into a caller-owned
    /// buffer, so hot placement paths reuse one allocation across runs.
    /// Ascending id order is the deterministic placement iteration
    /// order; the replica table itself is unordered.
    pub fn collect_object_ids(&self, out: &mut Vec<ObjectId>) {
        self.objects.collect_ids(out);
    }

    // ---- measurement ----------------------------------------------------

    /// Rolls the measurement clock forward to `now`, completing any
    /// measurement intervals that have fully elapsed. Each completed
    /// interval installs the host-level measured load; per-object rates
    /// follow from the window index without visiting the replicas.
    pub fn advance(&mut self, now: f64) {
        let interval = self.params.measurement_interval;
        while now >= self.window_start + interval {
            let total_rate = self.window_total as f64 / interval;
            self.load.complete_window(total_rate, self.window_start);
            self.window_total = 0;
            self.window_start += interval;
            self.window += 1;
        }
    }

    /// Records that a request for `object` passed through this host with
    /// the given preference path (host → gateway, inclusive). Increments
    /// `cnt(p, x_s)` for every node on the path (paper §4.1).
    ///
    /// Silently ignores objects this host does not hold — in the real
    /// system a request can race with a migration; the replica-set subset
    /// invariant makes this window tiny but not empty.
    pub fn record_access(&mut self, object: ObjectId, preference_path: &[NodeId]) {
        if let Some(obj) = self.objects.get_mut(object) {
            for &p in preference_path {
                match obj.access_counts.iter_mut().find(|&&mut (q, _)| q == p) {
                    Some(&mut (_, ref mut c)) => *c += 1,
                    None => obj.access_counts.push((p, 1)),
                }
            }
        }
    }

    /// Records that a request for `object` finished service at time
    /// `now` (drives the load measurement).
    pub fn record_serviced(&mut self, now: f64, object: ObjectId) {
        self.advance(now);
        self.window_total += 1;
        if let Some(obj) = self.objects.get_mut(object) {
            obj.record_serviced(self.window);
        }
    }

    /// Clears all per-candidate access counts — done at the end of every
    /// placement run ("since the last execution of the replica placement
    /// algorithm").
    pub fn reset_access_counts(&mut self) {
        for obj in self.objects.iter_mut() {
            // `Vec::clear` keeps the capacity: the next window's
            // `record_access` refills in place, so the per-epoch
            // reset/refill cycle performs no heap traffic.
            obj.access_counts.clear();
        }
    }

    // ---- load views ------------------------------------------------------

    /// Measured load of the last completed interval (requests/second).
    pub fn measured_load(&self) -> f64 {
        self.load.measured()
    }

    /// Upper-limit load estimate, used for admission (CreateObj) checks.
    pub fn load_upper(&self) -> f64 {
        self.load.upper()
    }

    /// Lower-limit load estimate, used for offloading decisions.
    pub fn load_lower(&self) -> f64 {
        self.load.lower()
    }

    /// `true` while relocation load-estimate deltas are outstanding.
    pub fn in_estimate_mode(&self) -> bool {
        self.load.in_estimate_mode()
    }

    /// Time of this host's most recently completed placement run.
    ///
    /// A replica acquired *after* this instant has not yet lived through
    /// a full decision period, so its access counts cover only a partial
    /// window; the placement algorithm defers judging it until the next
    /// run. Without this rule a replica created at epoch T would be
    /// dropped by its recipient at the same epoch (empty counts ⇒ below
    /// the deletion threshold) — exactly the replicate/delete vicious
    /// cycle the paper's Theorem 5 is designed to exclude.
    pub fn last_placement_run(&self) -> f64 {
        self.last_placement_run
    }

    /// Marks a completed placement run at time `now`.
    pub fn mark_placement_run(&mut self, now: f64) {
        self.last_placement_run = now;
    }

    /// Records shedding load (Theorem 1/3 bound) at `now` — called by the
    /// offloading algorithm after a successful migration/replication away.
    pub fn note_shed(&mut self, now: f64, bound: f64) {
        self.load.note_shed(now, bound);
    }

    // ---- replica set mutations -------------------------------------------

    /// Installs an initial replica with affinity 1 (bootstrap placement;
    /// no load-estimate effects). If the object is already present its
    /// affinity is incremented.
    pub fn install_object(&mut self, object: ObjectId) {
        self.objects.get_or_insert(object, self.window).0.aff += 1;
    }

    /// Accepts an object via `CreateObj` at time `now`, applying the
    /// Theorem 2/4 upper-bound load delta (`4 × unit_load`). Returns
    /// `true` if a new physical copy was created (data transfer needed),
    /// `false` if this was an affinity increment.
    pub fn accept_object(&mut self, now: f64, object: ObjectId, unit_load: f64) -> bool {
        let (obj, new_copy) = self.objects.get_or_insert(object, self.window);
        obj.aff += 1;
        obj.acquired_at = now;
        self.load.note_acquired(now, 4.0 * unit_load);
        new_copy
    }

    /// Decrements the affinity of `object`, which must be present with
    /// affinity ≥ 2 (a reduction to zero is a drop and goes through
    /// [`drop_object`](Self::drop_object) after redirector approval).
    /// Returns the new affinity.
    ///
    /// # Panics
    ///
    /// Panics if the object is missing or its affinity is 1.
    pub fn reduce_affinity(&mut self, object: ObjectId) -> u32 {
        let obj = self
            .objects
            .get_mut(object)
            .unwrap_or_else(|| panic!("reduce_affinity: {object} not hosted"));
        assert!(
            obj.aff >= 2,
            "reduce_affinity would drop the replica; use drop_object"
        );
        obj.aff -= 1;
        obj.aff
    }

    /// Removes the replica of `object` entirely (after redirector
    /// approval).
    ///
    /// # Panics
    ///
    /// Panics if the object is not hosted.
    pub fn drop_object(&mut self, object: ObjectId) {
        let removed = self.objects.remove(object);
        assert!(removed.is_some(), "drop_object: {object} not hosted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostState {
        HostState::new(NodeId::new(0), Params::paper())
    }

    fn x(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn install_and_query() {
        let mut h = host();
        h.install_object(x(1));
        h.install_object(x(1));
        h.install_object(x(2));
        assert!(h.has_object(x(1)));
        assert_eq!(h.object(x(1)).unwrap().aff(), 2);
        assert_eq!(h.object_count(), 2);
        assert_eq!(h.total_affinity(), 3);
        let mut ids = vec![x(99)];
        h.collect_object_ids(&mut ids);
        assert_eq!(ids, vec![x(1), x(2)]);
        assert!(h.object(x(9)).is_none());
    }

    #[test]
    fn equality_ignores_install_order() {
        let (mut a, mut b) = (host(), host());
        for i in 0..200 {
            a.install_object(x(i));
            b.install_object(x(199 - i));
        }
        a.drop_object(x(3));
        b.drop_object(x(3));
        assert_eq!(a, b);
        // Lazily and eagerly rolled windows of equal counts compare equal.
        a.record_serviced(1.0, x(7));
        b.record_serviced(1.0, x(7));
        a.record_serviced(25.0, x(8));
        b.record_serviced(25.0, x(9));
        assert_ne!(a, b);
        b.record_serviced(25.0, x(8));
        a.record_serviced(25.0, x(9));
        assert_eq!(a, b);
        a.install_object(x(3));
        assert_ne!(a, b);
    }

    #[test]
    fn access_counts_accumulate_along_path() {
        let mut h = host();
        h.install_object(x(1));
        let path = [NodeId::new(0), NodeId::new(4), NodeId::new(7)];
        h.record_access(x(1), &path);
        h.record_access(x(1), &path[..2]);
        let obj = h.object(x(1)).unwrap();
        assert_eq!(obj.count(NodeId::new(0)), 2);
        assert_eq!(obj.count(NodeId::new(4)), 2);
        assert_eq!(obj.count(NodeId::new(7)), 1);
        assert_eq!(obj.count(NodeId::new(9)), 0);
        assert_eq!(obj.counts().count(), 3);
    }

    #[test]
    fn access_to_missing_object_ignored() {
        let mut h = host();
        h.record_access(x(5), &[NodeId::new(0)]);
        assert!(!h.has_object(x(5)));
    }

    #[test]
    fn reset_access_counts_clears_all() {
        let mut h = host();
        h.install_object(x(1));
        h.record_access(x(1), &[NodeId::new(0)]);
        h.reset_access_counts();
        assert_eq!(h.object(x(1)).unwrap().count(NodeId::new(0)), 0);
    }

    #[test]
    fn measurement_windows_produce_rates() {
        let mut h = host();
        h.install_object(x(1));
        h.install_object(x(2));
        // 40 services of x1 and 20 of x2 over [0, 20).
        for i in 0..40 {
            h.record_serviced(i as f64 * 0.5, x(1));
        }
        for i in 0..20 {
            h.record_serviced(i as f64 * 0.5, x(2));
        }
        h.advance(20.0);
        assert_eq!(h.measured_load(), 3.0);
        assert_eq!(h.object(x(1)).unwrap().rate(), 2.0);
        assert_eq!(h.object(x(2)).unwrap().rate(), 1.0);
        // Idle interval zeroes rates.
        h.advance(60.0);
        assert_eq!(h.measured_load(), 0.0);
        assert_eq!(h.object(x(1)).unwrap().rate(), 0.0);
    }

    #[test]
    fn unit_load_divides_by_affinity() {
        let mut h = host();
        h.install_object(x(1));
        h.install_object(x(1)); // aff = 2
        for i in 0..40 {
            h.record_serviced(i as f64 * 0.5, x(1));
        }
        h.advance(20.0);
        let obj = h.object(x(1)).unwrap();
        assert_eq!(obj.rate(), 2.0);
        assert_eq!(obj.unit_load(), 1.0);
    }

    #[test]
    fn accept_object_applies_upper_bound() {
        let mut h = host();
        let new_copy = h.accept_object(5.0, x(1), 2.5);
        assert!(new_copy);
        assert_eq!(h.object(x(1)).unwrap().aff(), 1);
        assert_eq!(h.load_upper(), 10.0);
        assert!(h.in_estimate_mode());
        // Accepting again increments affinity, no new copy.
        let new_copy = h.accept_object(6.0, x(1), 2.5);
        assert!(!new_copy);
        assert_eq!(h.object(x(1)).unwrap().aff(), 2);
        assert_eq!(h.load_upper(), 20.0);
    }

    #[test]
    fn estimate_mode_clears_after_clean_window() {
        let mut h = host();
        h.accept_object(5.0, x(1), 1.0);
        h.advance(20.0); // window [0,20) contains the relocation: dirty
        assert!(h.in_estimate_mode());
        h.advance(40.0); // window [20,40) is clean
        assert!(!h.in_estimate_mode());
    }

    #[test]
    fn shed_lowers_lower_estimate() {
        let mut h = host();
        for i in 0..100 {
            h.record_serviced(i as f64 * 0.2, x(1));
        }
        h.advance(20.0);
        assert_eq!(h.measured_load(), 5.0);
        h.note_shed(21.0, 2.0);
        assert_eq!(h.load_lower(), 3.0);
        assert_eq!(h.load_upper(), 5.0);
    }

    #[test]
    fn reduce_and_drop() {
        let mut h = host();
        h.install_object(x(1));
        h.install_object(x(1));
        assert_eq!(h.reduce_affinity(x(1)), 1);
        h.drop_object(x(1));
        assert!(!h.has_object(x(1)));
    }

    #[test]
    #[should_panic(expected = "use drop_object")]
    fn reduce_affinity_at_one_panics() {
        let mut h = host();
        h.install_object(x(1));
        h.reduce_affinity(x(1));
    }

    #[test]
    #[should_panic(expected = "not hosted")]
    fn drop_missing_panics() {
        let mut h = host();
        h.drop_object(x(1));
    }

    #[test]
    fn storage_limit_reported() {
        let mut h = host();
        assert!(h.storage_limit().is_none());
        assert!(!h.storage_full());
        h.set_storage_limit(2);
        h.install_object(x(1));
        assert!(!h.storage_full());
        h.install_object(x(2));
        assert!(h.storage_full());
        // Affinity on an existing object is not new storage.
        h.install_object(x(1));
        assert_eq!(h.object_count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn zero_storage_limit_rejected() {
        let mut h = host();
        h.set_storage_limit(0);
    }

    #[test]
    fn offloading_flag() {
        let mut h = host();
        assert!(!h.is_offloading());
        h.set_offloading(true);
        assert!(h.is_offloading());
    }
}
