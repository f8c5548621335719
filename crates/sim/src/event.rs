//! The discrete-event queue.

use misp_trace::QueueProfile;
use misp_types::{Cycles, SequencerId};
use std::cmp::Ordering;

/// An event processed by the engine's main loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The sequencer finished its current operation (or was woken) and is
    /// ready to proceed.  `generation` guards against stale events: the
    /// sequencer ignores events whose generation does not match its own.
    SeqReady {
        /// The sequencer concerned.
        seq: SequencerId,
        /// Generation counter captured when the event was scheduled.
        generation: u64,
    },
    /// A timer interrupt fires on the OS-visible CPU whose sequencer is
    /// `cpu`.  `tick` is the 1-based tick number on that CPU.
    TimerTick {
        /// The sequencer acting as the OS-visible CPU.
        cpu: SequencerId,
        /// The 1-based tick number.
        tick: u64,
    },
    /// The end of a timed stall window for `seq`.  The engine resumes the
    /// sequencer if (and only if) its stall window has actually elapsed; stale
    /// resume events from superseded, shorter windows are ignored.
    StallEnd {
        /// The stalled sequencer.
        seq: SequencerId,
    },
    /// The end of one shared stall window covering several sequencers (a
    /// serialization window suspending every AMS of a MISP processor at
    /// once).  Equivalent to consecutive [`Event::StallEnd`] events for
    /// `base + i` over the set bits of `mask` in ascending order, collapsed
    /// into one queue entry; like `StallEnd`, each covered sequencer is only
    /// resumed if its own window has actually elapsed.
    StallEndGroup {
        /// Sequencer index of bit 0 of `mask`.
        base: u32,
        /// Bit `i` covers sequencer `base + i`.
        mask: u32,
    },
    /// The interval metrics sampler fires: the engine records one
    /// [`misp_trace::IntervalSample`] and (conditionally) reschedules the
    /// next firing.  Scheduled only when `SimConfig::trace.metrics_interval`
    /// is non-zero, and drawing its `seqno` from the same shared counter as
    /// every other event, so samples land at deterministic points of the
    /// queue's total order.
    Sample,
}

/// An event tagged with its scheduled time and a monotonic tie-breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// Absolute simulation time at which the event fires.
    pub time: Cycles,
    /// Monotonic sequence number assigned at insertion; earlier insertions
    /// fire first among events with equal time, making the simulation
    /// deterministic.
    pub seqno: u64,
    /// The event payload.
    pub event: Event,
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so that BinaryHeap (a max-heap) pops the earliest event.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seqno.cmp(&self.seqno))
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Marks the absence of a queue position in the slot index.
const NO_POS: u32 = u32::MAX;
/// Marks an event kind that has no replacement slot.
const NO_SLOT: u32 = u32::MAX;

/// A deterministic time-ordered event queue.
///
/// # Total order
///
/// Events pop in ascending `(time, seqno)` order, nothing else.  Every event —
/// timer ticks included — draws its `seqno` from the single shared counter at
/// push time, so the pair is globally unique and the order is *total*: an
/// event's kind never participates in a tie-break, and two events at the same
/// time pop in the order they were pushed, whatever mix of kinds they are.
/// (Earlier revisions kept timer ticks in a side array scanned separately
/// from the heap, which left the tick-vs-heap tie at equal `(time, seqno)`
/// formally unspecified; merging both into one structure under one key makes
/// the order a definition rather than a coincidence of scan order.)
///
/// # Flat layout
///
/// The engine keeps at most one live `SeqReady` and one live stall window per
/// sequencer plus one tick per OS-visible CPU, so the queue stays tiny: its
/// peak occupancy is 24 entries on every benchmark workload.  At that size
/// an unordered vector with a cached minimum is cheap to scan, and
/// superseding an entry is a plain overwrite:
///
/// * Push appends (or overwrites a superseded entry in place) and compares
///   the new entry against the cached minimum.
/// * Pop `swap_remove`s the cached minimum and rescans the remaining live
///   entries for the next one.
/// * `peek` (the macro-step batching horizon) is an indexed read.
///
/// Simulation time never goes backwards: every push is at a time `>=` the
/// last popped event's time (asserted).
///
/// # Supersede slot index
///
/// The queue is *indexed* for the two event kinds the engine supersedes:
/// each sequencer has at most one live `SeqReady` (a reschedule invalidates
/// the previous one) and at most one live stall window.  `pos` maps each
/// slot (`2 * sequencer + kind_bit`) to the index of its live entry.  Pushing
/// a new event for an occupied slot overwrites the superseded entry in place
/// with the successor under its own fresh `(time, seqno)` key — exactly the
/// key it would have had as a separate push — so live events pop in the
/// identical order while stale traffic disappears.
#[derive(Debug)]
pub struct EventQueue {
    /// The live entries, in no particular order.
    entries: Vec<ScheduledEvent>,
    /// Index into `entries` of each slot's live entry, or `NO_POS` when
    /// absent; indexed by `2 * sequencer + kind_bit`, see
    /// [`EventQueue::slot_of`].
    pos: Vec<u32>,
    /// Index into `entries` of the minimum `(time, seqno)` entry; meaningful
    /// only while `entries` is non-empty.
    min: usize,
    /// Time of the most recently popped event; the floor for every push.
    last: u64,
    next_seqno: u64,
    /// Always-on self-profiling counters (plain integer adds on paths that
    /// already write adjacent fields); read out via [`EventQueue::profile`].
    profile: QueueProfile,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
            pos: Vec::new(),
            min: 0,
            last: 0,
            next_seqno: 0,
            profile: QueueProfile::default(),
        }
    }

    #[inline]
    fn precedes(a: &ScheduledEvent, b: &ScheduledEvent) -> bool {
        (a.time, a.seqno) < (b.time, b.seqno)
    }

    /// The replacement slot of an event: `SeqReady` and `StallEnd` events are
    /// per-sequencer singletons (a newer push supersedes the queued one);
    /// timer ticks and group stall-ends are never superseded.
    #[inline]
    fn slot_of(event: &Event) -> u32 {
        match event {
            Event::SeqReady { seq, .. } => seq.index() * 2,
            Event::StallEnd { seq } => seq.index() * 2 + 1,
            Event::TimerTick { .. } | Event::StallEndGroup { .. } | Event::Sample => NO_SLOT,
        }
    }

    /// Records `idx` as the position of `event`'s slot, if it has one.
    #[inline]
    fn note_pos(&mut self, event: &Event, idx: usize) {
        let slot = Self::slot_of(event);
        if slot != NO_SLOT {
            self.pos[slot as usize] = idx as u32;
        }
    }

    /// Points `min` at the earliest live entry by a linear scan.
    // lint: no-alloc
    fn rescan_min(&mut self) {
        let mut best = 0;
        for (i, e) in self.entries.iter().enumerate().skip(1) {
            if Self::precedes(e, &self.entries[best]) {
                best = i;
            }
        }
        self.min = best;
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the most recently popped event's time:
    /// simulation time is monotone non-decreasing.
    // lint: no-alloc
    pub fn push(&mut self, time: Cycles, event: Event) {
        assert!(
            time.as_u64() >= self.last,
            "event at {time} scheduled before already-popped time {}",
            self.last
        );
        let ev = ScheduledEvent {
            time,
            seqno: self.next_seqno,
            event,
        };
        self.next_seqno += 1;
        self.profile.pushes += 1;
        let slot = Self::slot_of(&event);
        if slot != NO_SLOT {
            if slot as usize >= self.pos.len() {
                self.pos.resize(slot as usize + 1, NO_POS);
            }
            let p = self.pos[slot as usize];
            if p != NO_POS {
                // Supersede: the queued entry for this slot can never fire
                // (the engine would discard it on pop), so the successor
                // takes its place under its own fresh key.
                self.profile.supersessions += 1;
                let i = p as usize;
                self.entries[i] = ev;
                if i == self.min {
                    // The minimum may have moved later: find the new one.
                    self.rescan_min();
                } else if Self::precedes(&ev, &self.entries[self.min]) {
                    self.min = i;
                }
                return;
            }
        }
        let i = self.entries.len();
        self.entries.push(ev);
        self.note_pos(&event, i);
        if i == 0 || Self::precedes(&ev, &self.entries[self.min]) {
            self.min = i;
        }
        self.profile.max_len = self.profile.max_len.max(self.entries.len() as u64);
    }

    /// Removes and returns the earliest event (minimum `(time, seqno)`).
    // lint: no-alloc
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        if self.entries.is_empty() {
            return None;
        }
        let popped = self.entries.swap_remove(self.min);
        let slot = Self::slot_of(&popped.event);
        if slot != NO_SLOT {
            self.pos[slot as usize] = NO_POS;
        }
        if let Some(moved) = self.entries.get(self.min).copied() {
            self.note_pos(&moved.event, self.min);
        }
        self.last = popped.time.as_u64();
        self.rescan_min();
        self.profile.pops += 1;
        Some(popped)
    }

    /// Peeks at the earliest event without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&ScheduledEvent> {
        self.entries.get(self.min)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Self-profiling counters accumulated so far: pushes, pops, high-water
    /// occupancy and superseded-slot replacements (`redistributions` is
    /// always 0: the flat layout has no buckets to redistribute).
    ///
    /// These describe the *simulator's* data structure, not the simulation:
    /// they are deterministic for a fixed configuration but differ between
    /// the macro-step and event-per-operation engines, so they are surfaced
    /// via `sweep --profile` and the engine bench rather than the results
    /// schema.
    #[must_use]
    pub fn profile(&self) -> QueueProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(seq: u32) -> Event {
        Event::SeqReady {
            seq: SequencerId::new(seq),
            generation: 0,
        }
    }

    fn tick(cpu: u32, n: u64) -> Event {
        Event::TimerTick {
            cpu: SequencerId::new(cpu),
            tick: n,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(30), ready(3));
        q.push(Cycles::new(10), ready(1));
        q.push(Cycles::new(20), ready(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.time.as_u64())).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(Cycles::new(100), ready(i));
        }
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(
            order,
            (0..5).map(ready).collect::<Vec<Event>>(),
            "equal-time events must pop in insertion order"
        );
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Cycles::new(5), ready(0));
        q.push(Cycles::new(1), ready(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek().unwrap().time, Cycles::new(1));
        assert_eq!(q.len(), 2, "peek does not remove");
        q.pop();
        q.pop();
        assert!(q.pop().is_none());
    }

    #[test]
    fn timer_and_ready_interleave_correctly() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(50), tick(0, 1));
        q.push(Cycles::new(25), ready(2));
        assert!(matches!(q.pop().unwrap().event, Event::SeqReady { .. }));
        assert!(matches!(q.pop().unwrap().event, Event::TimerTick { .. }));
    }

    #[test]
    fn equal_time_tick_and_ready_pop_in_push_order_both_ways() {
        // The tie-break satellite: a timer tick and a heap event at the same
        // time must have one pinned total order — `(time, seqno)`, i.e. push
        // order — regardless of which kind was pushed first.
        let mut q = EventQueue::new();
        q.push(Cycles::new(100), tick(0, 1));
        q.push(Cycles::new(100), ready(1));
        assert!(matches!(q.pop().unwrap().event, Event::TimerTick { .. }));
        assert!(matches!(q.pop().unwrap().event, Event::SeqReady { .. }));
        assert!(q.is_empty());

        let mut q = EventQueue::new();
        q.push(Cycles::new(100), ready(1));
        q.push(Cycles::new(100), tick(0, 1));
        assert!(matches!(q.pop().unwrap().event, Event::SeqReady { .. }));
        assert!(matches!(q.pop().unwrap().event, Event::TimerTick { .. }));
        assert!(q.is_empty());
    }

    #[test]
    fn supersede_replaces_queued_entry_with_fresh_key() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(10), ready(0));
        q.push(Cycles::new(30), ready(1));
        // Supersede sequencer 0's ready: the old t=10 entry must vanish.
        q.push(Cycles::new(20), ready(0));
        assert_eq!(q.len(), 2);
        let a = q.pop().unwrap();
        assert_eq!(a.time, Cycles::new(20));
        assert!(matches!(a.event, Event::SeqReady { seq, .. } if seq.index() == 0));
        let b = q.pop().unwrap();
        assert_eq!(b.time, Cycles::new(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn supersede_keeps_slot_index_coherent_under_churn() {
        // Regression for slot-index staleness: supersede entries repeatedly,
        // interleaved with unrelated traffic that forces `swap_remove` to
        // move entries, then verify the queue still pops exactly the live
        // set in `(time, seqno)` order.
        let mut q = EventQueue::new();
        let mut now = 0u64;
        let mut expected: Vec<u64> = Vec::new();
        for round in 0..50u64 {
            let t = now + 1 + (round * 7919) % 97;
            q.push(Cycles::new(t), ready((round % 4) as u32));
            q.push(Cycles::new(t + 3), tick(0, round + 1));
            // Supersede the same sequencer immediately: only the second
            // event survives.
            q.push(Cycles::new(t + 1), ready((round % 4) as u32));
            expected.push(t + 1);
            expected.push(t + 3);
            // Drain both live events, advancing time.
            let a = q.pop().unwrap();
            let b = q.pop().unwrap();
            now = b.time.as_u64();
            assert!(a.time <= b.time);
            assert!(q.is_empty(), "stale superseded entries must not linger");
        }
        assert_eq!(expected.len(), 100);
    }

    #[test]
    fn stall_end_and_seq_ready_slots_are_independent() {
        let mut q = EventQueue::new();
        let seq = SequencerId::new(3);
        q.push(Cycles::new(10), Event::SeqReady { seq, generation: 1 });
        q.push(Cycles::new(20), Event::StallEnd { seq });
        // Superseding the stall window must not disturb the SeqReady entry.
        q.push(Cycles::new(15), Event::StallEnd { seq });
        assert_eq!(q.len(), 2);
        assert!(matches!(q.pop().unwrap().event, Event::SeqReady { .. }));
        let e = q.pop().unwrap();
        assert_eq!(e.time, Cycles::new(15));
        assert!(matches!(e.event, Event::StallEnd { .. }));
    }

    #[test]
    fn monotone_pop_across_wide_time_range() {
        // Times spanning from single cycles up past 2^40.
        let mut q = EventQueue::new();
        let mut times: Vec<u64> = (0..60).map(|i| 1u64 << i).collect();
        times.extend([3, 5, 1000, 999_999, (1 << 40) + 12345]);
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycles::new(t), tick((i % 3) as u32, i as u64 + 1));
        }
        times.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.time.as_u64())).collect();
        assert_eq!(popped, times);
    }

    #[test]
    fn profile_counts_pushes_pops_supersessions_and_high_water() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(10), ready(0));
        q.push(Cycles::new(30), ready(1));
        // Supersede sequencer 0's entry: counted, and len stays at 2.
        q.push(Cycles::new(20), ready(0));
        while q.pop().is_some() {}
        let p = q.profile();
        assert_eq!(p.pushes, 3);
        assert_eq!(p.pops, 2, "the superseded entry is never popped");
        assert_eq!(p.supersessions, 1);
        assert_eq!(p.max_len, 2);
        assert_eq!(p.redistributions, 0, "the flat queue has no buckets");
    }

    #[test]
    fn sample_events_have_no_slot_and_pop_in_push_order() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(100), Event::Sample);
        q.push(Cycles::new(100), Event::Sample);
        q.push(Cycles::new(100), ready(0));
        assert_eq!(q.len(), 3, "samples are never superseded");
        assert!(matches!(q.pop().unwrap().event, Event::Sample));
        assert!(matches!(q.pop().unwrap().event, Event::Sample));
        assert!(matches!(q.pop().unwrap().event, Event::SeqReady { .. }));
    }

    #[test]
    #[should_panic(expected = "scheduled before")]
    fn pushing_into_the_past_is_rejected() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(100), ready(0));
        q.pop();
        q.push(Cycles::new(99), ready(0));
    }
}
