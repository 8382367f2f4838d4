//! The per-host replica table: every hosted replica's state in a paged
//! slab, found by object id through a hash index.
//!
//! The index is for lookup only. Slab order is insertion history
//! (removal swaps the last entry into the hole), so every walk whose
//! order can reach a protocol decision goes through
//! [`ReplicaTable::collect_ids`], which sorts.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use radar_simnet::NodeId;

use crate::ObjectId;

/// Entries per slab page. Pages are allocated at exactly this capacity
/// and never grow, so a host that takes ~100k replicas in one sweep
/// never reallocates, and leaves behind, one large buffer.
const PAGE: usize = 64;

/// Index maps below this capacity are never shrunk.
const MIN_SHRINK_CAPACITY: usize = 1024;

/// One hosted replica (paper §4.1): `aff(x_s)`, `cnt(p, x_s)` and the
/// serviced counts behind `load(x_s)`.
///
/// The measurement window rolls lazily: `serviced` counts requests in
/// window `window`, `prev_serviced` those in the window before it, and
/// readers normalise both against the host's current window. A host
/// therefore never walks its replicas when a window completes.
#[derive(Debug, Clone)]
pub(crate) struct Replica {
    pub(crate) id: ObjectId,
    pub(crate) aff: u32,
    window: u32,
    serviced: u32,
    prev_serviced: u32,
    /// When this replica was last acquired (created or affinity-bumped)
    /// via `CreateObj`; 0 for bootstrap installs.
    pub(crate) acquired_at: f64,
    /// `cnt(p, x_s)` in first-seen order; the own node's entry is the
    /// total access count `cnt(x_s)`. A flat vector beats a tree
    /// map here: the set of path members seen in one window is small,
    /// increments are linear probes over contiguous memory, and the
    /// per-epoch reset keeps the capacity instead of freeing nodes.
    pub(crate) access_counts: Vec<(NodeId, u64)>,
}

impl Replica {
    fn new(id: ObjectId, window: u32) -> Self {
        Replica {
            id,
            aff: 0,
            window,
            serviced: 0,
            prev_serviced: 0,
            acquired_at: 0.0,
            access_counts: Vec::new(),
        }
    }

    /// Requests serviced in the window before `window` (the host's
    /// current one): the count behind the replica's measured rate.
    pub(crate) fn last_window_serviced(&self, window: u32) -> u32 {
        match window - self.window {
            0 => self.prev_serviced,
            1 => self.serviced,
            _ => 0,
        }
    }

    /// Requests serviced so far in `window` (the host's current one).
    pub(crate) fn window_serviced(&self, window: u32) -> u32 {
        if self.window == window {
            self.serviced
        } else {
            0
        }
    }

    /// Counts one serviced request in `window` (the host's current one),
    /// first rolling the stored counts forward to it.
    pub(crate) fn record_serviced(&mut self, window: u32) {
        if self.window != window {
            self.prev_serviced = self.last_window_serviced(window);
            self.serviced = 0;
            self.window = window;
        }
        self.serviced += 1;
    }
}

/// Fibonacci hashing for the dense `u32` object ids: one multiply, with
/// the well-mixed high half rotated down into the bucket bits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(FIB);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// Hosted replicas: a paged slab of [`Replica`] entries plus an
/// `ObjectId → slot` index.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplicaTable {
    /// Full pages, then the partly filled last page, then at most one
    /// empty spare (so a host hovering at a page boundary does not
    /// free and reallocate a page per install/drop pair).
    pages: Vec<Vec<Replica>>,
    len: usize,
    index: HashMap<ObjectId, u32, BuildHasherDefault<IdHasher>>,
}

impl ReplicaTable {
    /// Number of replicas.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, id: ObjectId) -> Option<&Replica> {
        let slot = *self.index.get(&id)? as usize;
        Some(&self.pages[slot / PAGE][slot % PAGE])
    }

    pub(crate) fn get_mut(&mut self, id: ObjectId) -> Option<&mut Replica> {
        let slot = *self.index.get(&id)? as usize;
        Some(&mut self.pages[slot / PAGE][slot % PAGE])
    }

    /// The replica of `id`, inserted empty (affinity 0, counting from
    /// measurement window `window`) if absent; `true` when inserted.
    pub(crate) fn get_or_insert(&mut self, id: ObjectId, window: u32) -> (&mut Replica, bool) {
        let (slot, inserted) = match self.index.entry(id) {
            Entry::Occupied(e) => (*e.get() as usize, false),
            Entry::Vacant(e) => {
                let slot = self.len;
                e.insert(u32::try_from(slot).expect("fewer than 2^32 replicas per host"));
                if slot / PAGE == self.pages.len() {
                    self.pages.push(Vec::with_capacity(PAGE));
                }
                self.pages[slot / PAGE].push(Replica::new(id, window));
                self.len += 1;
                (slot, true)
            }
        };
        (&mut self.pages[slot / PAGE][slot % PAGE], inserted)
    }

    /// Removes the replica of `id`, moving the last entry into its slot.
    pub(crate) fn remove(&mut self, id: ObjectId) -> Option<Replica> {
        let slot = self.index.remove(&id)? as usize;
        self.len -= 1;
        let last = self.pages[self.len / PAGE]
            .pop()
            .expect("the last page holds the last entry");
        let removed = if slot == self.len {
            last
        } else {
            *self
                .index
                .get_mut(&last.id)
                .expect("every entry is indexed") = slot as u32;
            std::mem::replace(&mut self.pages[slot / PAGE][slot % PAGE], last)
        };
        if self.pages.len() > self.len.div_ceil(PAGE) + 1 {
            self.pages.pop();
        }
        // A host that took a sweep's worth of replicas and shed them
        // would otherwise keep that many index buckets for the rest of
        // the run. Halving at a quarter full keeps this amortised O(1).
        let capacity = self.index.capacity();
        if capacity >= MIN_SHRINK_CAPACITY && self.len < capacity / 4 {
            self.index.shrink_to(self.len * 2);
        }
        Some(removed)
    }

    /// Replicas in slab order (insertion history, not id order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Replica> {
        self.pages.iter().flatten()
    }

    /// Replicas in slab order (insertion history, not id order).
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Replica> {
        self.pages.iter_mut().flatten()
    }

    /// Writes every hosted id into `out`, ascending.
    pub(crate) fn collect_ids(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        out.reserve(self.len);
        out.extend(self.iter().map(|r| r.id));
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn removal_moves_last_entry_and_reindexes_it() {
        let mut t = ReplicaTable::default();
        for i in 0..(3 * PAGE as u32) {
            t.get_or_insert(x(i), 0).0.aff = i + 1;
        }
        t.remove(x(5));
        let moved = x(3 * PAGE as u32 - 1);
        assert_eq!(t.get(moved).unwrap().aff, 3 * PAGE as u32);
        assert!(t.get(x(5)).is_none());
        assert_eq!(t.len(), 3 * PAGE - 1);
        let mut ids = Vec::new();
        t.collect_ids(&mut ids);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), t.len());
    }

    #[test]
    fn pages_keep_at_most_one_spare() {
        let mut t = ReplicaTable::default();
        for i in 0..(4 * PAGE as u32) {
            t.get_or_insert(x(i), 0);
        }
        for i in 0..(4 * PAGE as u32 - 1) {
            t.remove(x(i));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.pages.len(), 2);
        assert!(t.pages.iter().all(|p| p.capacity() == PAGE));
    }

    #[test]
    fn index_shrinks_after_mass_removal() {
        let mut t = ReplicaTable::default();
        for i in 0..10_000 {
            t.get_or_insert(x(i), 0);
        }
        let peak = t.index.capacity();
        for i in 0..9_990 {
            t.remove(x(i));
        }
        assert!(t.index.capacity() < peak / 8, "{}", t.index.capacity());
        assert!((9_990..10_000).all(|i| t.get(x(i)).is_some()));
    }

    #[test]
    fn serviced_counts_roll_lazily() {
        let mut r = Replica::new(x(0), 3);
        r.record_serviced(3);
        r.record_serviced(3);
        assert_eq!((r.last_window_serviced(3), r.window_serviced(3)), (0, 2));
        assert_eq!((r.last_window_serviced(4), r.window_serviced(4)), (2, 0));
        assert_eq!(r.last_window_serviced(5), 0);
        r.record_serviced(4);
        assert_eq!((r.last_window_serviced(4), r.window_serviced(4)), (2, 1));
        r.record_serviced(7);
        assert_eq!((r.last_window_serviced(7), r.window_serviced(7)), (0, 1));
    }
}
