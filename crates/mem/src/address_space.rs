//! Per-process address spaces and page residency.

use misp_types::{FxHashMap, PageId};
use serde::{Deserialize, Serialize};

/// Residency state of a virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageState {
    /// The page has never been touched; the next access raises a compulsory
    /// page fault.
    Untouched,
    /// The page is resident in physical memory; accesses proceed without OS
    /// involvement (aside from possible TLB misses).
    Resident,
}

/// Page numbers below this bound live in the two-level residency bitmap;
/// higher pages fall back to the sparse map.  2²⁴ pages cover 64 GiB of
/// virtual address space at 4 KiB pages, which holds every workload region
/// the simulator lays out (the highest base is `0xA000_0000`), while the
/// directory stays at most 4096 entries (32 KiB) however high a page lands.
const DENSE_PAGES: u64 = 1 << 24;

/// Words per bitmap leaf: one leaf covers `64 × 64` = 4096 pages (16 MiB of
/// virtual address space).
const LEAF_WORDS: usize = 64;

/// `log2` of the pages one leaf covers; the directory index of page `n` is
/// `n >> LEAF_SHIFT`.
const LEAF_SHIFT: u32 = 12;

/// One bitmap leaf, one bit per page.
type Leaf = [u64; LEAF_WORDS];

/// The leaf every absent directory entry reads as.
const EMPTY_LEAF: Leaf = [0; LEAF_WORDS];

/// A process's virtual address space: the page table plus residency metadata.
///
/// The model is intentionally simple — the paper's evaluation only depends on
/// *when* a page fault occurs (first touch) and *which sequencer* touches the
/// page first, because that determines whether the fault is handled locally on
/// the OMS or via proxy execution from an AMS.
///
/// `touch` sits on the engine's per-access hot path, so residency for page
/// numbers below 2²⁴ is a two-level bitmap: a directory indexed by
/// `page >> 12` whose entries are 64-word leaves, allocated on the first
/// touch of their 4096-page range.  The workload regions start at page 2¹⁶
/// and above (e.g. `0x1000_0000`, `0xA000_0000`), so the directory stays a
/// few hundred entries long and each touched region costs one 512-byte leaf.
/// A lookup is two indexed loads, a shift and a mask.  Only pages at or above
/// 2²⁴ pay for a hash probe in the sparse fallback map.
///
/// # Examples
///
/// ```
/// use misp_mem::AddressSpace;
/// use misp_types::{PageId, VirtAddr};
///
/// let mut space = AddressSpace::new();
/// assert!(!space.is_resident(PageId::new(4)));
/// let faulted = space.touch(VirtAddr::new(4 * 4096).page());
/// assert!(faulted, "first touch is a compulsory fault");
/// assert!(!space.touch(PageId::new(4)), "second touch hits");
/// assert_eq!(space.resident_pages(), 1);
/// ```
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct AddressSpace {
    /// Residency bitmap for pages below [`DENSE_PAGES`]: a directory indexed
    /// by `page >> LEAF_SHIFT`, grown as higher leaves are touched, whose
    /// leaves are allocated on first touch.
    dense: Vec<Option<Box<Leaf>>>,
    /// Residency for pages at or above [`DENSE_PAGES`] (no workload lays out
    /// memory there; kept for correctness on arbitrary addresses).
    sparse: FxHashMap<PageId, PageState>,
    compulsory_faults: u64,
}

impl PartialEq for AddressSpace {
    fn eq(&self, other: &Self) -> bool {
        // Absent leaves, all-zero leaves and trailing directory entries are
        // representational only (an evicted page leaves its leaf behind), so
        // compare leaf contents rather than the raw directories.
        let leaves = self.dense.len().max(other.dense.len());
        self.compulsory_faults == other.compulsory_faults
            && (0..leaves).all(|i| self.leaf(i) == other.leaf(i))
            && self.sparse == other.sparse
    }
}

impl Eq for AddressSpace {}

/// Splits a dense page number into (directory index, word, bit mask).
fn dense_position(n: u64) -> (usize, usize, u64) {
    (
        (n >> LEAF_SHIFT) as usize,
        ((n / 64) % LEAF_WORDS as u64) as usize,
        1 << (n % 64),
    )
}

impl AddressSpace {
    /// Creates an empty address space with no resident pages.
    #[must_use]
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// The bitmap leaf at directory index `i`, or the empty leaf.
    fn leaf(&self, i: usize) -> &Leaf {
        self.dense
            .get(i)
            .and_then(Option::as_deref)
            .unwrap_or(&EMPTY_LEAF)
    }

    /// Returns `true` if `page` is resident.
    #[must_use]
    pub fn is_resident(&self, page: PageId) -> bool {
        let n = page.number();
        if n < DENSE_PAGES {
            let (leaf, word, mask) = dense_position(n);
            self.leaf(leaf)[word] & mask != 0
        } else {
            matches!(self.sparse.get(&page), Some(PageState::Resident))
        }
    }

    /// Sets the residency bit of a dense page, growing the directory and
    /// allocating its leaf as needed.  Returns `true` if the page was already
    /// resident.
    fn dense_set(&mut self, n: u64) -> bool {
        let (leaf, word, mask) = dense_position(n);
        if leaf >= self.dense.len() {
            self.dense.resize_with(leaf + 1, || None);
        }
        let w = &mut self.dense[leaf].get_or_insert_with(|| Box::new(EMPTY_LEAF))[word];
        let was = *w & mask != 0;
        *w |= mask;
        was
    }

    /// Touches `page`: returns `true` if the touch raised a compulsory page
    /// fault (i.e. the page was not yet resident), after which the page is
    /// resident.
    pub fn touch(&mut self, page: PageId) -> bool {
        let n = page.number();
        let was_resident = if n < DENSE_PAGES {
            self.dense_set(n)
        } else {
            self.sparse.insert(page, PageState::Resident) == Some(PageState::Resident)
        };
        if !was_resident {
            self.compulsory_faults += 1;
        }
        !was_resident
    }

    /// Pre-faults `page` without counting it as a compulsory fault *event*
    /// observed during parallel execution.  This models the OMS probing each
    /// page in the serial region before starting shreds (the optimization
    /// suggested in Section 5.3); the fault still happens, but on the OMS
    /// during serial execution where it does not serialize any AMS.
    pub fn pretouch(&mut self, page: PageId) {
        let n = page.number();
        if n < DENSE_PAGES {
            self.dense_set(n);
        } else {
            self.sparse.insert(page, PageState::Resident);
        }
    }

    /// Evicts `page` from physical memory (used by failure-injection tests and
    /// by workloads that model working sets larger than memory).
    pub fn evict(&mut self, page: PageId) {
        let n = page.number();
        if n < DENSE_PAGES {
            let (leaf, word, mask) = dense_position(n);
            if let Some(Some(leaf)) = self.dense.get_mut(leaf) {
                leaf[word] &= !mask;
            }
        } else {
            self.sparse.remove(&page);
        }
    }

    /// Number of currently resident pages.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        let dense: u32 = self
            .dense
            .iter()
            .flatten()
            .flat_map(|leaf| leaf.iter())
            .map(|w| w.count_ones())
            .sum();
        dense as usize
            + self
                .sparse
                // lint: unordered-ok(commutative count; order cannot be observed)
                .values()
                .filter(|s| **s == PageState::Resident)
                .count()
    }

    /// Total number of compulsory faults taken by this address space since
    /// creation (pre-touched pages excluded).
    #[must_use]
    pub fn compulsory_faults(&self) -> u64 {
        self.compulsory_faults
    }

    /// Iterates over the resident pages in arbitrary order.
    pub fn iter_resident(&self) -> impl Iterator<Item = PageId> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter_map(|(i, leaf)| leaf.as_deref().map(|leaf| (i, leaf)))
            .flat_map(|(i, leaf)| {
                leaf.iter().enumerate().flat_map(move |(word, &w)| {
                    let first = ((i as u64) << LEAF_SHIFT) + word as u64 * 64;
                    (0..64)
                        .filter(move |bit| w & (1 << bit) != 0)
                        .map(move |bit| PageId::new(first + bit))
                })
            })
            .chain(
                self.sparse
                    // lint: unordered-ok(documented arbitrary-order iterator; callers sort or count)
                    .iter()
                    .filter(|(_, s)| **s == PageState::Resident)
                    .map(|(p, _)| *p),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_faults_second_does_not() {
        let mut s = AddressSpace::new();
        let p = PageId::new(10);
        assert!(s.touch(p));
        assert!(!s.touch(p));
        assert_eq!(s.compulsory_faults(), 1);
        assert!(s.is_resident(p));
    }

    #[test]
    fn pretouch_makes_resident_without_fault_count() {
        let mut s = AddressSpace::new();
        let p = PageId::new(3);
        s.pretouch(p);
        assert!(s.is_resident(p));
        assert!(!s.touch(p));
        assert_eq!(s.compulsory_faults(), 0);
    }

    #[test]
    fn evict_forces_refault() {
        let mut s = AddressSpace::new();
        let p = PageId::new(7);
        assert!(s.touch(p));
        s.evict(p);
        assert!(!s.is_resident(p));
        assert!(s.touch(p));
        assert_eq!(s.compulsory_faults(), 2);
    }

    #[test]
    fn resident_page_accounting() {
        let mut s = AddressSpace::new();
        for i in 0..5 {
            s.touch(PageId::new(i));
        }
        assert_eq!(s.resident_pages(), 5);
        let mut pages: Vec<u64> = s.iter_resident().map(|p| p.number()).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn distinct_pages_fault_independently() {
        let mut s = AddressSpace::new();
        assert!(s.touch(PageId::new(1)));
        assert!(s.touch(PageId::new(2)));
        assert_eq!(s.compulsory_faults(), 2);
    }

    #[test]
    fn pages_beyond_the_dense_bound_use_the_sparse_fallback() {
        let mut s = AddressSpace::new();
        let far = PageId::new(DENSE_PAGES + 123);
        assert!(!s.is_resident(far));
        assert!(s.touch(far));
        assert!(!s.touch(far));
        assert!(s.is_resident(far));
        assert_eq!(s.compulsory_faults(), 1);
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.iter_resident().collect::<Vec<_>>(), vec![far]);
        s.evict(far);
        assert!(!s.is_resident(far));
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn workload_regions_stay_in_the_dense_bitmap() {
        let mut s = AddressSpace::new();
        for base in [
            0x1000_0000u64,
            0x4000_0000,
            0x8000_0000,
            0x9000_0000,
            0xA000_0000,
        ] {
            let page = PageId::new(base / 4096 + 5);
            assert!(s.touch(page));
            assert!(s.is_resident(page));
        }
        assert!(
            s.sparse.is_empty(),
            "no workload page reaches the sparse map"
        );
        assert_eq!(s.dense.iter().flatten().count(), 5, "one leaf per region");
        assert_eq!(s.resident_pages(), 5);
    }

    #[test]
    fn equality_ignores_bitmap_growth_history() {
        let mut a = AddressSpace::new();
        let mut b = AddressSpace::new();
        // `a` grows its directory out to a far leaf and then evicts the page;
        // `b` never touches that leaf.  Logically identical spaces must
        // compare equal.
        let far = PageId::new(0xA000_0000 / 4096 + 600);
        assert!(a.touch(far));
        a.evict(far);
        assert!(a.touch(PageId::new(1)));
        assert!(b.touch(PageId::new(1)));
        b.compulsory_faults = a.compulsory_faults;
        assert_eq!(a, b);
        assert!(b.touch(PageId::new(2)));
        assert_ne!(a, b);
    }
}
