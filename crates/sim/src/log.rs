//! Coarse- and fine-grained event logging.
//!
//! The paper's prototype firmware provides two logging levels (Section 4.1):
//! coarse-grained total counts of ring transitions per sequencer, and
//! fine-grained time-stamped records of individual events.  [`EventLog`]
//! keeps the coarse counts and hosts the fine level as the structured
//! [`TraceBuffer`] ring (off by default), so experiments and tests can
//! introspect exactly what the simulated platform did.

use misp_trace::{TraceBuffer, TraceEvent, TraceKind};
use misp_types::{Cycles, Fnv64, SequencerId};
use serde::Serialize;

/// The kind of a logged event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
#[non_exhaustive]
pub enum LogKind {
    /// A sequencer entered Ring 0.
    RingEnter,
    /// A sequencer returned to Ring 3.
    RingExit,
    /// An AMS issued a proxy-execution request.
    ProxyRequest,
    /// An OMS began servicing a proxy request.
    ProxyStart,
    /// An OMS finished servicing a proxy request.
    ProxyDone,
    /// A sequencer was suspended by the platform.
    Suspend,
    /// A sequencer resumed execution.
    Resume,
    /// A shred started running on a sequencer.
    ShredStart,
    /// A shred finished.
    ShredEnd,
    /// The OS switched threads on an OS-visible CPU.
    ContextSwitch,
    /// A user-level `SIGNAL` was sent.
    SignalSent,
    /// A timer interrupt fired.
    TimerTick,
}

impl LogKind {
    /// Every log kind, in a fixed canonical order.  [`EventLog::digest`] folds
    /// counts in this order so the digest is independent of hash-map iteration
    /// order.  Keep in sync with [`LogKind::canonical_index`], whose
    /// exhaustive match turns a forgotten new variant into a compile error;
    /// the `canonical_order_is_exhaustive` test ties the two together.
    pub const ALL: [LogKind; 12] = [
        LogKind::RingEnter,
        LogKind::RingExit,
        LogKind::ProxyRequest,
        LogKind::ProxyStart,
        LogKind::ProxyDone,
        LogKind::Suspend,
        LogKind::Resume,
        LogKind::ShredStart,
        LogKind::ShredEnd,
        LogKind::ContextSwitch,
        LogKind::SignalSent,
        LogKind::TimerTick,
    ];

    /// The kind's position in the canonical [`LogKind::ALL`] order.
    ///
    /// The match is exhaustive on purpose: adding a `LogKind` variant fails
    /// compilation here until the new kind is given an index — and therefore
    /// a slot in `ALL` — so the digest can never silently skip it.
    #[must_use]
    pub const fn canonical_index(self) -> usize {
        match self {
            LogKind::RingEnter => 0,
            LogKind::RingExit => 1,
            LogKind::ProxyRequest => 2,
            LogKind::ProxyStart => 3,
            LogKind::ProxyDone => 4,
            LogKind::Suspend => 5,
            LogKind::Resume => 6,
            LogKind::ShredStart => 7,
            LogKind::ShredEnd => 8,
            LogKind::ContextSwitch => 9,
            LogKind::SignalSent => 10,
            LogKind::TimerTick => 11,
        }
    }

    /// The structured-trace kind mirroring this log kind.
    ///
    /// The first twelve [`TraceKind`] variants are defined in the same
    /// canonical order as [`LogKind::ALL`], so every coarse-log emission site
    /// doubles as a trace emission site with no per-kind mapping table; the
    /// `trace_kinds_mirror_log_kinds` test pins the correspondence.
    #[must_use]
    pub const fn trace_kind(self) -> TraceKind {
        match self {
            LogKind::RingEnter => TraceKind::RingEnter,
            LogKind::RingExit => TraceKind::RingExit,
            LogKind::ProxyRequest => TraceKind::ProxyRequest,
            LogKind::ProxyStart => TraceKind::ProxyStart,
            LogKind::ProxyDone => TraceKind::ProxyDone,
            LogKind::Suspend => TraceKind::Suspend,
            LogKind::Resume => TraceKind::Resume,
            LogKind::ShredStart => TraceKind::ShredStart,
            LogKind::ShredEnd => TraceKind::ShredEnd,
            LogKind::ContextSwitch => TraceKind::ContextSwitch,
            LogKind::SignalSent => TraceKind::SignalSent,
            LogKind::TimerTick => TraceKind::TimerTick,
        }
    }
}

/// The simulation event log.
///
/// Coarse counts are always collected; time-stamped per-event records go to
/// the trace ring, which is only present when tracing is enabled.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Coarse per-kind counts, indexed by [`LogKind::canonical_index`].  A
    /// plain array keeps the hot `record` path free of hashing.
    counts: [u64; LogKind::ALL.len()],
    /// Structured trace ring, present only when tracing is enabled.  Hosted
    /// here so every coarse-log emission site feeds the trace automatically;
    /// `None` (the default) costs one discriminant test per record.  The
    /// trace never contributes to [`EventLog::digest`] or the coarse counts.
    trace: Option<Box<TraceBuffer>>,
}

impl EventLog {
    /// Creates a log with zero counts and tracing off.
    #[must_use]
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Turns on the structured trace ring with the given capacity.  The full
    /// ring is allocated here, so enabling tracing before the measured run
    /// preserves the engine's zero-alloc steady state.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Box::new(TraceBuffer::new(capacity)));
    }

    /// Returns `true` when the structured trace ring is collecting.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Records a trace-only instant (e.g. a TLB or cache miss) that has no
    /// coarse-log counterpart: the coarse counts and [`EventLog::digest`]
    /// are untouched.  A no-op while tracing is off.
    pub fn trace_instant(&mut self, time: Cycles, seq: SequencerId, kind: TraceKind) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                time: time.as_u64(),
                seq: seq.index(),
                kind,
            });
        }
    }

    /// Removes and returns the trace ring (for end-of-run reporting).
    pub fn take_trace(&mut self) -> Option<Box<TraceBuffer>> {
        self.trace.take()
    }

    /// Records an event: bumps its coarse count and, while tracing is on,
    /// appends a time-stamped record to the trace ring.
    pub fn record(&mut self, time: Cycles, seq: SequencerId, kind: LogKind) {
        self.counts[kind.canonical_index()] += 1;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                time: time.as_u64(),
                seq: seq.index(),
                kind: kind.trace_kind(),
            });
        }
    }

    /// The coarse count for `kind`.
    #[must_use]
    pub fn count(&self, kind: LogKind) -> u64 {
        self.counts[kind.canonical_index()]
    }

    /// A deterministic 64-bit FNV-1a digest of the log.
    ///
    /// The digest folds the coarse counts in the canonical [`LogKind::ALL`]
    /// order, followed by one trailing `0`.  Two identical runs always
    /// digest equal; runs that differ in any per-kind total digest
    /// differently, up to the usual 64-bit collision odds.  The trace ring
    /// never contributes.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv64::new();
        for (i, kind) in LogKind::ALL.iter().enumerate() {
            hash.write_u64(i as u64);
            hash.write_u64(self.count(*kind));
        }
        // The log used to keep capped fine-grained records and folded their
        // dropped count last; it was always 0 in digest-bearing runs.  Keep
        // folding that 0 so every committed golden and determinism digest
        // stays byte-identical.
        hash.write_u64(0);
        hash.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_counts_always_collected() {
        let mut log = EventLog::new();
        log.record(Cycles::new(1), SequencerId::new(0), LogKind::RingEnter);
        log.record(Cycles::new(2), SequencerId::new(0), LogKind::RingEnter);
        log.record(Cycles::new(3), SequencerId::new(1), LogKind::ProxyRequest);
        assert_eq!(log.count(LogKind::RingEnter), 2);
        assert_eq!(log.count(LogKind::ProxyRequest), 1);
        assert_eq!(log.count(LogKind::Resume), 0);
    }

    #[test]
    fn canonical_order_is_exhaustive() {
        // Every kind appears in ALL exactly at its canonical index; together
        // with the exhaustive match in canonical_index this guarantees a new
        // variant cannot be left out of the digest.
        for (i, kind) in LogKind::ALL.iter().enumerate() {
            assert_eq!(kind.canonical_index(), i, "{kind:?} out of order");
        }
    }

    #[test]
    fn trace_kinds_mirror_log_kinds() {
        // The first twelve TraceKind variants share the canonical LogKind
        // order, which is what lets record map kinds with a plain match.
        for kind in LogKind::ALL {
            assert_eq!(
                kind.trace_kind().canonical_index(),
                kind.canonical_index(),
                "{kind:?} maps to a different canonical index"
            );
        }
        assert_eq!(TraceKind::ALL.len(), LogKind::ALL.len() + 2);
    }

    #[test]
    fn trace_ring_collects_log_records_without_touching_the_digest() {
        let mut plain = EventLog::new();
        let mut traced = EventLog::new();
        traced.enable_trace(16);
        assert!(traced.trace_enabled());
        for log in [&mut plain, &mut traced] {
            log.record(Cycles::new(3), SequencerId::new(1), LogKind::ShredStart);
        }
        // Trace-only instants bypass counts and digest entirely.
        traced.trace_instant(Cycles::new(5), SequencerId::new(1), TraceKind::TlbMiss);
        for log in [&mut plain, &mut traced] {
            log.record(Cycles::new(9), SequencerId::new(1), LogKind::ShredEnd);
        }
        assert_eq!(plain.digest(), traced.digest());
        assert_eq!(plain.count(LogKind::ShredStart), 1);

        let trace = traced.take_trace().expect("ring present");
        let events = trace.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, TraceKind::ShredStart);
        assert_eq!(events[1].kind, TraceKind::TlbMiss);
        assert_eq!(events[2].kind, TraceKind::ShredEnd);
        assert_eq!(events[2].time, 9);
        assert_eq!(events[2].seq, 1);
        assert!(!traced.trace_enabled(), "take_trace disables the ring");
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let mut a = EventLog::new();
        let mut b = EventLog::new();
        assert_eq!(a.digest(), b.digest(), "empty logs digest equal");
        a.record(Cycles::new(1), SequencerId::new(0), LogKind::RingEnter);
        b.record(Cycles::new(1), SequencerId::new(0), LogKind::RingEnter);
        assert_eq!(a.digest(), b.digest(), "identical logs digest equal");
        b.record(Cycles::new(2), SequencerId::new(0), LogKind::RingExit);
        assert_ne!(a.digest(), b.digest(), "extra event changes the digest");

        // Distinct kinds with equal counts must not collide.
        let mut c = EventLog::new();
        c.record(Cycles::new(1), SequencerId::new(0), LogKind::RingExit);
        assert_ne!(a.digest(), c.digest());
    }
}
