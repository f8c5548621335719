//! Property tests for the memory-hierarchy state machines: `Tlb` LRU
//! replacement, `AddressSpace` residency and the `misp-cache` LRU/MESI
//! hierarchy, driven by random access/invalidate sequences.  Each sequence checks two kinds of promise:
//! structural invariants (LRU content matches a reference model, MESI
//! single-writer holds, no set overflows its associativity) and accounting
//! conservation (hits + misses equal the accesses performed).
//!
//! A behavioural test rides along: with the cache model enabled, the
//! streaming and blocked locality variants — identical in work and touch
//! count — must separate by a measurable miss-latency difference, and the
//! shared-hot-set variant must pay coherence misses on SMP but resolve its
//! sharing inside the MISP processor's shared L2.

use misp::cache::{CacheConfig, CacheGeometry, CacheHierarchy, MesiState, SetAssocCache};
use misp::core::MispTopology;
use misp::mem::{AddressSpace, Tlb};
use misp::os::TimerConfig;
use misp::sim::SimConfig;
use misp::types::{Cycles, PageId, SequencerId, VirtAddr, PAGE_SIZE};
use misp::workloads::{catalog, Machine, Run};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Deterministic splitmix64 stream for deriving operation sequences from one
/// generated seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The TLB against a reference true-LRU model: identical hit/miss
    /// verdicts and identical content after every operation, capacity always
    /// respected, and the hit/miss counters conserving the lookups issued.
    #[test]
    fn tlb_lru_matches_a_reference_model(
        input in (any::<u64>(), 1u64..9, 1u64..240)
    ) {
        let (seed, capacity, ops) = input;
        let capacity = capacity as usize;
        let mut tlb = Tlb::new(capacity);
        // Reference model: most-recently-used page at the back.
        let mut model: Vec<u64> = Vec::new();
        let mut state = seed;
        let (mut lookups, mut hits) = (0u64, 0u64);
        for _ in 0..ops {
            let r = splitmix(&mut state);
            let page = r % 12;
            match r % 16 {
                14 => {
                    tlb.flush();
                    model.clear();
                }
                15 => {
                    tlb.invalidate(PageId::new(page));
                    model.retain(|p| *p != page);
                }
                _ => {
                    lookups += 1;
                    let hit = tlb.lookup_insert(PageId::new(page));
                    let model_hit = model.contains(&page);
                    prop_assert_eq!(hit, model_hit, "page {}", page);
                    if hit {
                        hits += 1;
                    }
                    model.retain(|p| *p != page);
                    model.push(page);
                    if model.len() > capacity {
                        model.remove(0);
                    }
                }
            }
            prop_assert!(tlb.len() <= capacity);
            prop_assert_eq!(tlb.len(), model.len());
            for p in &model {
                prop_assert!(tlb.contains(PageId::new(*p)), "model page {} cached", p);
            }
        }
        let stats = tlb.stats();
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.hits + stats.misses, lookups, "lookups conserved");
    }

    /// One set-associative level against a per-set reference LRU model (a
    /// list per set, least-recently-used first — the shape of the former
    /// per-set deque implementation).  Every operation's return value is
    /// compared, and after every operation the cache's `lines()` must equal
    /// the model set by set in LRU order, so a `peek` or `set_state` that
    /// disturbed the replacement order would show up as a different next
    /// victim.  Set counts 1..=9 exercise both the masked (power-of-two) and
    /// the remainder set index.
    #[test]
    fn set_assoc_lru_matches_a_reference_model(
        input in (any::<u64>(), 1u64..10, 1u64..9, 1u64..400)
    ) {
        let (seed, sets, ways, ops) = input;
        let mut cache = SetAssocCache::new(CacheGeometry::new(sets as u32, ways as u32));
        let mut model: Vec<Vec<(u64, MesiState)>> = vec![Vec::new(); sets as usize];
        let states = [MesiState::Modified, MesiState::Exclusive, MesiState::Shared];
        let mut state = seed;
        for _ in 0..ops {
            let r = splitmix(&mut state);
            // Two more candidate lines per set than it has ways, so sets
            // fill and evict; bit 63 adds a second address-space tag.
            let mut line = (r >> 8) % (sets * (ways + 2));
            if r >> 63 == 1 {
                line |= 1 << 44;
            }
            let set = (line % sets) as usize;
            let new_state = states[((r >> 4) % 3) as usize];
            let pos = model[set].iter().position(|(l, _)| *l == line);
            match r % 16 {
                0..=5 => {
                    let hit = cache.lookup(line);
                    prop_assert_eq!(hit, pos.map(|p| model[set][p].1), "lookup {}", line);
                    if let Some(p) = pos {
                        let entry = model[set].remove(p);
                        model[set].push(entry);
                    } else {
                        let victim = cache.insert(line, MesiState::Exclusive);
                        let expected = if model[set].len() == ways as usize {
                            Some(model[set].remove(0).0)
                        } else {
                            None
                        };
                        prop_assert_eq!(victim, expected, "victim of a fill of {}", line);
                        model[set].push((line, MesiState::Exclusive));
                    }
                }
                6..=8 => {
                    // Insert, including re-inserts that change the state.
                    let victim = cache.insert(line, new_state);
                    let expected = match pos {
                        Some(p) => {
                            model[set].remove(p);
                            None
                        }
                        None if model[set].len() == ways as usize => Some(model[set].remove(0).0),
                        None => None,
                    };
                    prop_assert_eq!(victim, expected, "victim of an insert of {}", line);
                    model[set].push((line, new_state));
                }
                9 | 10 => {
                    let next_victim = model[set].first().copied();
                    prop_assert_eq!(cache.peek(line), pos.map(|p| model[set][p].1));
                    prop_assert_eq!(lru_of(&cache, sets, set), next_victim, "peek kept LRU");
                }
                11 | 12 => {
                    prop_assert_eq!(cache.set_state(line, new_state), pos.is_some());
                    if let Some(p) = pos {
                        model[set][p].1 = new_state;
                    }
                    let next_victim = model[set].first().copied();
                    prop_assert_eq!(
                        lru_of(&cache, sets, set),
                        next_victim,
                        "set_state kept LRU"
                    );
                }
                13 | 14 => {
                    let removed = pos.map(|p| model[set].remove(p).1);
                    prop_assert_eq!(cache.invalidate(line), removed, "invalidate {}", line);
                }
                _ => {
                    let resident: usize = model.iter().map(Vec::len).sum();
                    prop_assert_eq!(cache.clear(), resident);
                    model.iter_mut().for_each(Vec::clear);
                }
            }
            let model_len: usize = model.iter().map(Vec::len).sum();
            prop_assert_eq!(cache.len(), model_len);
            prop_assert_eq!(cache.is_empty(), model_len == 0);
            let lines: Vec<(u64, MesiState)> = cache.lines().collect();
            let expected: Vec<(u64, MesiState)> = model.iter().flatten().copied().collect();
            prop_assert_eq!(lines, expected, "lines() in set order, LRU first");
        }
        // Equality is logical: a fresh cache filled with the model's lines
        // in LRU order equals the exercised one, stale ways and all.
        let mut rebuilt = SetAssocCache::new(cache.geometry());
        for (line, state) in model.iter().flatten() {
            rebuilt.insert(*line, *state);
        }
        prop_assert_eq!(&rebuilt, &cache);
    }

    /// `AddressSpace` residency against a `BTreeSet` oracle over pages near
    /// every workload region base, across the leaf and word boundaries of the
    /// bitmap, across the 2^24-page boundary into the sparse map, and above
    /// 2^32 pages.
    #[test]
    fn address_space_residency_matches_a_set_oracle(
        input in (any::<u64>(), 1u64..300)
    ) {
        let (seed, ops) = input;
        // Region bases in pages: page 0, the workload bases (MAIN, WORKER,
        // SHARED, COMPETITOR, SESSION), the dense/sparse boundary, and
        // pages above 2^32.
        let anchors: [u64; 8] = [
            0,
            0x1000_0000 / PAGE_SIZE,
            0x4000_0000 / PAGE_SIZE,
            0x8000_0000 / PAGE_SIZE,
            0x9000_0000 / PAGE_SIZE,
            0xA000_0000 / PAGE_SIZE,
            1 << 24,
            1 << 32,
        ];
        let mut space = AddressSpace::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let mut faults = 0u64;
        let mut state = seed;
        for _ in 0..ops {
            let r = splitmix(&mut state);
            let anchor = anchors[(r % 8) as usize];
            // Offsets straddle the anchor by 64 pages on each side, or land
            // near the end of its first 4096-page leaf.
            let offset = if r & (1 << 20) == 0 {
                (r >> 24) % 128
            } else {
                4096 - 64 + (r >> 24) % 128
            };
            let page = (anchor + offset).saturating_sub(64);
            let id = PageId::new(page);
            match (r >> 8) % 8 {
                0..=3 => {
                    let faulted = space.touch(id);
                    prop_assert_eq!(faulted, model.insert(page), "touch {}", page);
                    faults += u64::from(faulted);
                }
                4 => {
                    space.pretouch(id);
                    model.insert(page);
                }
                5 => {
                    space.evict(id);
                    model.remove(&page);
                }
                _ => {}
            }
            prop_assert_eq!(space.is_resident(id), model.contains(&page), "page {}", page);
            prop_assert_eq!(space.resident_pages(), model.len());
            prop_assert_eq!(space.compulsory_faults(), faults);
        }
        let mut resident: Vec<u64> = space.iter_resident().map(|p| p.number()).collect();
        resident.sort_unstable();
        prop_assert_eq!(resident, model.into_iter().collect::<Vec<u64>>());
    }

    /// The full hierarchy under random load/store/flush sequences: the MESI
    /// single-writer invariant holds after every operation, a store leaves
    /// its issuer the sole (Modified) holder, and per-sequencer stats
    /// conserve the accesses issued.
    #[test]
    fn hierarchy_mesi_invariants_hold_and_stats_conserve(
        input in (any::<u64>(), 1u64..300)
    ) {
        let (seed, ops) = input;
        // Four sequencers in two clusters, caches small enough to evict.
        let config = CacheConfig::enabled_default().with_l1(2, 2).with_l2(4, 2);
        let mut h = CacheHierarchy::new(config, &[0, 0, 1, 1]);
        let mut state = seed;
        let mut accesses = [0u64; 4];
        for _ in 0..ops {
            let r = splitmix(&mut state);
            let s = (r % 4) as u32;
            let seq = SequencerId::new(s);
            let addr = VirtAddr::new(((r >> 8) % 24) * PAGE_SIZE);
            match r % 16 {
                15 => h.flush_l1(seq),
                k => {
                    let store = k % 3 == 0;
                    accesses[s as usize] += 1;
                    h.access(seq, 0, addr, store);
                    if store {
                        prop_assert_eq!(
                            h.probe(seq, 0, addr),
                            Some(MesiState::Modified),
                            "the storer owns the line"
                        );
                        for other in 0..4u32 {
                            if other != s {
                                prop_assert_eq!(
                                    h.probe(SequencerId::new(other), 0, addr),
                                    None,
                                    "remote copies are invalidated"
                                );
                            }
                        }
                    }
                }
            }
            h.assert_coherence_invariants();
        }
        for (i, expected) in accesses.iter().enumerate() {
            let stats = h.stats(SequencerId::new(i as u32)).unwrap();
            prop_assert_eq!(stats.accesses(), *expected, "sequencer {} conserves", i);
        }
    }
}

/// The LRU `(line, state)` of `set` according to `lines()`.
fn lru_of(cache: &SetAssocCache, sets: u64, set: usize) -> Option<(u64, MesiState)> {
    cache
        .lines()
        .find(|(line, _)| (line % sets) as usize == set)
}

fn quick_config() -> SimConfig {
    SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        ..SimConfig::default()
    }
}

/// A small shared L2 (128 KiB), where the streaming footprint cannot fit.
fn small_cache() -> CacheConfig {
    CacheConfig::enabled_default().with_l2(16, 2)
}

#[test]
fn streaming_pays_a_measurable_miss_latency_over_blocked() {
    let stream = catalog::by_name("stream_walk").expect("cache variant");
    let blocked = catalog::by_name("blocked_walk").expect("cache variant");
    let topo = MispTopology::uniprocessor(7).unwrap();
    let config = quick_config().with_cache(small_cache());
    let s = Run::workload(&stream)
        .topology(topo.clone())
        .config(config)
        .execute()
        .unwrap();
    let b = Run::workload(&blocked)
        .topology(topo.clone())
        .config(config)
        .execute()
        .unwrap();
    let s_cache = s.stats.cache.expect("cache stats present when enabled");
    let b_cache = b.stats.cache.expect("cache stats present when enabled");
    assert!(
        s_cache.capacity_misses > 100 * b_cache.capacity_misses.max(1),
        "streaming must thrash where blocking fits: {} vs {}",
        s_cache.capacity_misses,
        b_cache.capacity_misses
    );
    assert!(
        s.total_cycles > b.total_cycles,
        "the miss latency must be visible in end-to-end cycles: {} vs {}",
        s.total_cycles,
        b.total_cycles
    );
}

#[test]
fn shared_hot_set_pays_coherence_on_smp_but_not_inside_a_shared_l2() {
    let hotset = catalog::by_name("hotset_update").expect("cache variant");
    let config = quick_config().with_cache(small_cache());
    let misp = Run::workload(&hotset)
        .topology(MispTopology::uniprocessor(7).unwrap())
        .config(config)
        .execute()
        .unwrap();
    let smp = Run::workload(&hotset)
        .machine(Machine::smp(8))
        .config(config)
        .execute()
        .unwrap();
    let misp_cache = misp.stats.cache.expect("cache stats present");
    let smp_cache = smp.stats.cache.expect("cache stats present");
    assert!(misp_cache.invalidations > 0, "stores invalidate peer L1s");
    assert_eq!(
        misp_cache.coherence_misses, 0,
        "one MISP processor resolves its sharing in the shared L2"
    );
    assert!(
        smp_cache.coherence_misses > 0,
        "per-core L2s force coherence misses across the fabric"
    );
}

#[test]
fn disabled_cache_reports_no_cache_stats_but_tlb_totals_surface() {
    let w = catalog::by_name("stream_walk").expect("cache variant");
    let topo = MispTopology::uniprocessor(7).unwrap();
    let report = Run::workload(&w)
        .topology(topo.clone())
        .config(quick_config())
        .execute()
        .unwrap();
    assert!(
        report.stats.cache.is_none(),
        "no cache stats under the default flat-cost model"
    );
    assert!(report.stats.per_sequencer_cache.is_empty());
    assert!(
        report.stats.tlb.hits + report.stats.tlb.misses > 0,
        "TLB totals are aggregated into the report"
    );
    assert_eq!(
        report.stats.per_sequencer_tlb.len(),
        8,
        "one TLB snapshot per sequencer"
    );
}
