//! Model-based test of the flat event queue.
//!
//! The reference model is a plain `BinaryHeap<ScheduledEvent>` (whose `Ord`
//! is reversed so it pops earliest-first) with *lazy deletion* for the two
//! superseding kinds: the model remembers the latest seqno pushed for each
//! `(kind, sequencer)` slot and skips stale entries on pop.  Both structures
//! assign seqnos sequentially per push, so a correct queue must peek and pop
//! the byte-identical `(time, seqno, event)` sequence for any monotone
//! schedule of pushes, supersedes and pops.

// The reference model is deliberately allowed a std HashMap (clippy.toml
// bans it in shipping code): the test never iterates it and determinism of
// the *model* is irrelevant to the property being checked.
#![allow(clippy::disallowed_types)]

use misp::sim::{Event, EventQueue, ScheduledEvent};
use misp::types::{Cycles, SequencerId};
use proptest::prelude::*;
use std::collections::{BinaryHeap, HashMap};

/// The reference: comparison heap + lazy supersede.
#[derive(Default)]
struct ModelQueue {
    heap: BinaryHeap<ScheduledEvent>,
    /// Latest live seqno per supersede slot `(kind_bit, sequencer)`.
    live: HashMap<(u8, u32), u64>,
    next_seqno: u64,
}

impl ModelQueue {
    fn slot(event: &Event) -> Option<(u8, u32)> {
        match event {
            Event::SeqReady { seq, .. } => Some((0, seq.as_usize() as u32)),
            Event::StallEnd { seq } => Some((1, seq.as_usize() as u32)),
            Event::TimerTick { .. } | Event::StallEndGroup { .. } | Event::Sample => None,
        }
    }

    fn push(&mut self, time: Cycles, event: Event) {
        let seqno = self.next_seqno;
        self.next_seqno += 1;
        if let Some(slot) = Self::slot(&event) {
            self.live.insert(slot, seqno);
        }
        self.heap.push(ScheduledEvent { time, seqno, event });
    }

    fn is_live(&self, e: &ScheduledEvent) -> bool {
        Self::slot(&e.event).is_none_or(|slot| self.live.get(&slot) == Some(&e.seqno))
    }

    /// The earliest live entry, discarding superseded entries above it.
    fn peek(&mut self) -> Option<ScheduledEvent> {
        while let Some(e) = self.heap.peek().copied() {
            if self.is_live(&e) {
                return Some(e);
            }
            self.heap.pop();
        }
        None
    }

    fn pop(&mut self) -> Option<ScheduledEvent> {
        let e = self.peek()?;
        self.heap.pop();
        if let Some(slot) = Self::slot(&e.event) {
            self.live.remove(&slot);
        }
        Some(e)
    }
}

/// One scripted queue operation, decoded from a generated tuple.
fn apply(
    queue: &mut EventQueue,
    model: &mut ModelQueue,
    now: &mut u64,
    (op, delta, seq, extra): (u64, u64, u64, u64),
) {
    let seq_id = SequencerId::new(seq as u32);
    let event = match op {
        0..=2 => Event::SeqReady {
            seq: seq_id,
            generation: extra,
        },
        3 => Event::TimerTick {
            cpu: seq_id,
            tick: extra + 1,
        },
        4 => Event::StallEnd { seq: seq_id },
        5 => Event::StallEndGroup {
            base: seq as u32,
            mask: (extra as u32) | 1,
        },
        6 => Event::Sample,
        7 => {
            // Supersede the current minimum with a later successor: the path
            // on which the queue must rescan for its new minimum.
            let Some(min) = model.peek() else { return };
            if !matches!(min.event, Event::SeqReady { .. } | Event::StallEnd { .. }) {
                return;
            }
            let time = min.time + Cycles::new(1 + delta);
            queue.push(time, min.event);
            model.push(time, min.event);
            return;
        }
        _ => {
            // Pop from both; the popped entries must be identical and time
            // must never go backwards.
            let a = queue.pop();
            let b = model.pop();
            prop_assert_eq!(a, b, "pop mismatch at now={}", now);
            if let Some(e) = a {
                prop_assert!(e.time.as_u64() >= *now, "time went backwards");
                *now = e.time.as_u64();
            }
            return;
        }
    };
    // Pushes are always at or after the last popped time (the engine's
    // monotonicity invariant the queue asserts).
    let time = Cycles::new(*now + delta);
    queue.push(time, event);
    model.push(time, event);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any monotone schedule mixing every event kind, supersedes and
    /// pops, the flat queue peeks and pops the exact `(time, seqno, event)`
    /// sequence of the comparison-heap reference — including the full drain
    /// at the end.  Half the deltas are 0–3 cycles, so equal-time ties are
    /// common; 32 sequencers let the queue grow past the 24 live entries the
    /// engine peaks at; and op 7 supersedes the current minimum to a later
    /// time.
    #[test]
    fn flat_queue_matches_binary_heap_reference(
        ops in proptest::collection::vec(
            (
                0u64..10,
                prop_oneof![0u64..4, 0u64..4, 4u64..4096, 0u64..(1 << 40)],
                0u64..32,
                0u64..64,
            ),
            0..200,
        )
    ) {
        let mut queue = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut now = 0u64;
        for op in ops {
            apply(&mut queue, &mut model, &mut now, op);
            prop_assert_eq!(queue.len(), model_live_len(&model), "live-entry count diverged");
            prop_assert_eq!(queue.peek().copied(), model.peek(), "peek diverged");
        }
        // Drain: every remaining live event pops in identical order.
        loop {
            let a = queue.pop();
            let b = model.pop();
            prop_assert_eq!(a, b, "drain mismatch");
            if a.is_none() {
                break;
            }
        }
        prop_assert!(queue.is_empty());
    }
}

/// Number of live (non-superseded) entries in the model.
fn model_live_len(model: &ModelQueue) -> usize {
    model.heap.iter().filter(|e| model.is_live(e)).count()
}
