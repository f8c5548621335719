//! A set-associative cache with per-set LRU replacement and MESI-lite line
//! states.

use crate::CacheGeometry;
use std::ops::Range;

/// The MESI-lite coherence state of a cached line.  `Invalid` is represented
/// by absence from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MesiState {
    /// The line is dirty and this cache is the only holder.
    Modified,
    /// The line is clean and this cache is the only holder.
    Exclusive,
    /// The line is clean and may be held by other caches.
    Shared,
}

/// One set-associative cache level: `sets × ways` lines, true-LRU within each
/// set, one [`MesiState`] per line.
///
/// The cache stores line *indices* (byte address divided by the line size);
/// the mapping from addresses to lines lives in
/// [`crate::CacheConfig::line_of`].  All internal state is ordered, so two
/// identical access sequences leave two caches in identical states — the
/// engine-level determinism guarantee depends on this.
///
/// Storage is three flat `sets × ways` arrays (tag, state, last-use stamp)
/// and one per-cache clock.  `lookup` and `insert` stamp the way they touch;
/// the LRU line of a set is its valid way with the smallest stamp.
///
/// # Examples
///
/// ```
/// use misp_cache::{CacheGeometry, MesiState, SetAssocCache};
///
/// let mut cache = SetAssocCache::new(CacheGeometry::new(1, 2));
/// assert!(cache.lookup(7).is_none());
/// cache.insert(7, MesiState::Exclusive);
/// assert_eq!(cache.lookup(7), Some(MesiState::Exclusive));
/// cache.insert(9, MesiState::Exclusive);
/// // A third line in the 2-way set evicts the least-recently-used one.
/// assert_eq!(cache.insert(11, MesiState::Exclusive), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// Line held by each way; meaningful only where `states` is `Some`.
    tags: Vec<u64>,
    /// State of each way; `None` marks an invalid (empty) way.
    states: Vec<Option<MesiState>>,
    /// Clock value of each way's last `lookup` hit or `insert`.
    stamps: Vec<u64>,
    clock: u64,
}

impl PartialEq for SetAssocCache {
    /// Compares logical contents: the resident lines of each set in LRU
    /// order, ignoring stale tags and stamps of invalid ways.
    fn eq(&self, other: &Self) -> bool {
        self.geometry == other.geometry && self.lines().eq(other.lines())
    }
}

impl Eq for SetAssocCache {}

impl SetAssocCache {
    /// Creates an empty cache of the given geometry.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        let lines = geometry.lines() as usize;
        SetAssocCache {
            geometry,
            tags: vec![0; lines],
            states: vec![None; lines],
            stamps: vec![0; lines],
            clock: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The way indices of `set`.
    fn ways(&self, set: usize) -> Range<usize> {
        let ways = self.geometry.ways as usize;
        set * ways..(set + 1) * ways
    }

    /// The way holding `line` in `set`, if resident.
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        self.ways(set)
            .find(|&way| self.tags[way] == line && self.states[way].is_some())
    }

    /// Marks `way` most-recently-used.
    fn stamp(&mut self, way: usize) {
        self.clock += 1;
        self.stamps[way] = self.clock;
    }

    /// Looks `line` up, promoting it to most-recently-used on a hit.
    // lint: no-alloc
    pub fn lookup(&mut self, line: u64) -> Option<MesiState> {
        self.lookup_in(self.geometry.set_of(line), line)
    }

    /// [`SetAssocCache::lookup`] with `line`'s set already computed.
    // lint: no-alloc
    pub(crate) fn lookup_in(&mut self, set: usize, line: u64) -> Option<MesiState> {
        let way = self.find(set, line)?;
        self.stamp(way);
        self.states[way]
    }

    /// Returns the state of `line` without touching LRU order.
    // lint: no-alloc
    #[must_use]
    pub fn peek(&self, line: u64) -> Option<MesiState> {
        self.peek_in(self.geometry.set_of(line), line)
    }

    /// [`SetAssocCache::peek`] with `line`'s set already computed.
    // lint: no-alloc
    pub(crate) fn peek_in(&self, set: usize, line: u64) -> Option<MesiState> {
        self.find(set, line).and_then(|way| self.states[way])
    }

    /// Sets the coherence state of a resident line without touching LRU
    /// order.  Returns `false` if the line is not resident.
    // lint: no-alloc
    pub fn set_state(&mut self, line: u64, state: MesiState) -> bool {
        self.set_state_in(self.geometry.set_of(line), line, state)
    }

    /// [`SetAssocCache::set_state`] with `line`'s set already computed.
    // lint: no-alloc
    pub(crate) fn set_state_in(&mut self, set: usize, line: u64, state: MesiState) -> bool {
        match self.find(set, line) {
            Some(way) => {
                self.states[way] = Some(state);
                true
            }
            None => false,
        }
    }

    /// Inserts `line` in `state` as most-recently-used, evicting and
    /// returning the set's LRU line if the set is full.  Re-inserting a
    /// resident line updates its state and promotes it.
    // lint: no-alloc
    pub fn insert(&mut self, line: u64, state: MesiState) -> Option<u64> {
        self.insert_in(self.geometry.set_of(line), line, state)
    }

    /// [`SetAssocCache::insert`] with `line`'s set already computed.
    // lint: no-alloc
    pub(crate) fn insert_in(&mut self, set: usize, line: u64, state: MesiState) -> Option<u64> {
        let ways = self.ways(set);
        let (way, evicted) = if let Some(way) = self.find(set, line) {
            (way, None)
        } else if let Some(way) = ways.clone().find(|&way| self.states[way].is_none()) {
            (way, None)
        } else {
            let lru = ways
                .min_by_key(|&way| self.stamps[way])
                .expect("a geometry has at least one way");
            (lru, Some(self.tags[lru]))
        };
        self.tags[way] = line;
        self.states[way] = Some(state);
        self.stamp(way);
        evicted
    }

    /// Removes `line`, returning its state if it was resident.
    // lint: no-alloc
    pub fn invalidate(&mut self, line: u64) -> Option<MesiState> {
        self.invalidate_in(self.geometry.set_of(line), line)
    }

    /// [`SetAssocCache::invalidate`] with `line`'s set already computed.
    // lint: no-alloc
    pub(crate) fn invalidate_in(&mut self, set: usize, line: u64) -> Option<MesiState> {
        let way = self.find(set, line)?;
        self.states[way].take()
    }

    /// Drops every line, returning how many were resident.
    pub fn clear(&mut self) -> usize {
        let dropped = self.len();
        self.states.fill(None);
        dropped
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.iter().filter(|s| s.is_some()).count()
    }

    /// Returns `true` when no line is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.iter().all(Option::is_none)
    }

    /// Iterates over every resident `(line, state)` pair, set by set, LRU
    /// first within each set.
    pub fn lines(&self) -> impl Iterator<Item = (u64, MesiState)> + '_ {
        (0..self.geometry.sets as usize).flat_map(move |set| {
            let mut resident: Vec<usize> = self
                .ways(set)
                .filter(|&way| self.states[way].is_some())
                .collect();
            resident.sort_unstable_by_key(|&way| self.stamps[way]);
            resident
                .into_iter()
                .filter_map(move |way| self.states[way].map(|state| (self.tags[way], state)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: u32, ways: u32) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry::new(sets, ways))
    }

    #[test]
    fn lru_within_a_set() {
        let mut c = cache(1, 2);
        c.insert(1, MesiState::Exclusive);
        c.insert(2, MesiState::Exclusive);
        assert_eq!(c.lookup(1), Some(MesiState::Exclusive)); // 2 is now LRU
        assert_eq!(c.insert(3, MesiState::Exclusive), Some(2));
        assert!(c.peek(1).is_some());
        assert!(c.peek(2).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = cache(2, 1);
        c.insert(0, MesiState::Exclusive); // set 0
        c.insert(1, MesiState::Exclusive); // set 1
        assert_eq!(c.len(), 2);
        // A second even line evicts only from set 0.
        assert_eq!(c.insert(2, MesiState::Exclusive), Some(0));
        assert_eq!(c.peek(1), Some(MesiState::Exclusive));
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = cache(1, 2);
        c.insert(1, MesiState::Shared);
        c.insert(2, MesiState::Shared);
        assert_eq!(c.insert(1, MesiState::Modified), None);
        assert_eq!(c.peek(1), Some(MesiState::Modified));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn set_state_and_invalidate() {
        let mut c = cache(4, 2);
        c.insert(9, MesiState::Exclusive);
        assert!(c.set_state(9, MesiState::Shared));
        assert!(!c.set_state(10, MesiState::Shared));
        assert_eq!(c.invalidate(9), Some(MesiState::Shared));
        assert_eq!(c.invalidate(9), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_reports_dropped_lines() {
        let mut c = cache(2, 2);
        for line in 0..4 {
            c.insert(line, MesiState::Exclusive);
        }
        assert_eq!(c.clear(), 4);
        assert!(c.is_empty());
    }

    #[test]
    fn lines_iterates_everything() {
        let mut c = cache(2, 2);
        c.insert(0, MesiState::Exclusive);
        c.insert(1, MesiState::Modified);
        let collected: Vec<(u64, MesiState)> = c.lines().collect();
        assert_eq!(collected.len(), 2);
        assert!(collected.contains(&(1, MesiState::Modified)));
    }
}
