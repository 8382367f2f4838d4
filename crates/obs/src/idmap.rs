//! A map keyed by object or host id, stored as pages of slots.
//!
//! The simulator numbers objects and hosts densely from zero, so the
//! observers' per-object and per-host state is indexed by id instead
//! of searched for in a tree. Iteration runs in ascending id order, the
//! order the `BTreeMap`s it replaces gave, so every table, top-N list
//! and report built from it keeps its order.

use std::collections::BTreeMap;

/// Ids at or above this bound go to an ordered side map, so a stray
/// large id in a replayed log cannot allocate a huge page table (below
/// it, the table costs at most 2 MiB). It covers every host id and any
/// object count a scenario can simulate.
const DENSE_LIMIT: usize = 1 << 24;

/// An integer id usable as an [`IdMap`] key.
pub(crate) trait Id: Copy + Ord {
    /// The id as a slot index.
    fn index(self) -> usize;
    /// The id of slot `index` (always below [`DENSE_LIMIT`]).
    fn from_index(index: usize) -> Self;
}

impl Id for u16 {
    fn index(self) -> usize {
        usize::from(self)
    }

    fn from_index(index: usize) -> Self {
        index as u16
    }
}

impl Id for u32 {
    fn index(self) -> usize {
        self as usize
    }

    fn from_index(index: usize) -> Self {
        index as u32
    }
}

/// Slots per page. Pages stay small heap blocks, well below the size
/// at which the allocator maps memory directly. One flat slot vector,
/// grown by doubling, would be mapped, freed and grown again in every
/// run, and left the heap fragmented enough to raise peak RSS.
const PAGE: usize = 64;

/// Map from id to `V`: a slot per id below [`DENSE_LIMIT`], in pages
/// of [`PAGE`] slots allocated on first use, and a `BTreeMap` above it.
#[derive(Debug, Clone)]
pub(crate) struct IdMap<K, V> {
    pages: Vec<Option<Box<[Option<V>]>>>,
    spill: BTreeMap<K, V>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        Self {
            pages: Vec::new(),
            spill: BTreeMap::new(),
        }
    }
}

impl<K: Id, V> IdMap<K, V> {
    /// The value at `key`, if present.
    pub(crate) fn get(&self, key: K) -> Option<&V> {
        let i = key.index();
        if i >= DENSE_LIMIT {
            return self.spill.get(&key);
        }
        self.pages.get(i / PAGE)?.as_ref()?[i % PAGE].as_ref()
    }

    /// The value at `key`, inserted with `make` first when absent.
    pub(crate) fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = key.index();
        if i >= DENSE_LIMIT {
            return self.spill.entry(key).or_insert_with(make);
        }
        let p = i / PAGE;
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let page = self.pages[p].get_or_insert_with(|| (0..PAGE).map(|_| None).collect());
        page[i % PAGE].get_or_insert_with(make)
    }

    /// The value at `key`, default-inserted first when absent.
    pub(crate) fn get_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        self.get_or_insert_with(key, V::default)
    }

    /// `(id, value)` pairs in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        let dense = self.pages.iter().enumerate().flat_map(|(p, page)| {
            page.iter().flat_map(move |page| {
                page.iter()
                    .enumerate()
                    .filter_map(move |(j, v)| v.as_ref().map(|v| (K::from_index(p * PAGE + j), v)))
            })
        });
        dense.chain(self.spill.iter().map(|(&k, v)| (k, v)))
    }

    /// Ids present, ascending.
    pub(crate) fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Mutable values, in ascending id order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.pages
            .iter_mut()
            .flatten()
            .flat_map(|page| page.iter_mut().flatten())
            .chain(self.spill.values_mut())
    }
}

impl<K: Id, V: PartialEq> PartialEq for IdMap<K, V> {
    /// Equal when both hold the same ids with equal values, whichever
    /// pages either has allocated.
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_in_ascending_id_order_across_the_spill() {
        let mut m: IdMap<u32, &str> = IdMap::default();
        for (id, v) in [
            (9000, "a"),
            (u32::MAX, "b"),
            (3, "c"),
            (512, "d"),
            (1 << 25, "e"),
        ] {
            *m.get_or_default(id) = v;
        }
        let got: Vec<(u32, &str)> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(
            got,
            vec![
                (3, "c"),
                (512, "d"),
                (9000, "a"),
                (1 << 25, "e"),
                (u32::MAX, "b")
            ]
        );
        assert_eq!(m.get(512), Some(&"d"));
        assert_eq!(m.get(u32::MAX), Some(&"b"));
        assert_eq!(m.get(4), None);
        assert_eq!(m.get(1 << 24), None);
        // The stray large ids allocated no pages.
        assert_eq!(m.pages.len(), 9000 / PAGE + 1);
    }

    #[test]
    fn equality_ignores_allocated_pages() {
        let mut a: IdMap<u16, u64> = IdMap::default();
        let mut b: IdMap<u16, u64> = IdMap::default();
        *a.get_or_default(2) += 1;
        b.get_or_insert_with(400, || 0);
        b.pages[400 / PAGE] = None;
        *b.get_or_default(2) += 1;
        assert_eq!(a, b);
        *b.get_or_default(7) += 1;
        assert_ne!(a, b);
    }
}
