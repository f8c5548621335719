//! Conservatively-synchronized fleet simulation.
//!
//! A [`FleetEngine`] owns an arena of [`Machine`]s (one event-queue shard,
//! clock, sequencer table, memory system and kernel each), a deterministic
//! cross-machine [`Mailbox`], and a conservative synchronizer in the
//! classical lookahead style: between barriers, each shard advances
//! independently up to `min(neighbour clocks) + network_latency`, because no
//! neighbour can deliver a message earlier than its own next event plus the
//! network latency.  Shards advance in ascending [`MachineId`] order inside
//! each window, so a fleet run is a pure function of its inputs — the same
//! machines, workloads and mailbox traffic replay byte-identically at any
//! harness thread count, exactly like the single-machine engine.
//!
//! A fleet of one degenerates to [`Machine::run`]: with no neighbours there
//! is no lookahead bound, so the single shard runs to completion in one
//! window.

use crate::machine::{Machine, MachineStatus, SimReport};
use crate::stats::ServiceStats;
use crate::{Event, Platform};
use misp_types::{Arena, Cycles, Fnv64, MachineId, Result};

/// One cross-machine message: an [`Event`] delivered into the target shard's
/// queue at `deliver_at` (send time plus network latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetMessage {
    /// The sending machine.
    pub from: MachineId,
    /// The receiving machine.
    pub to: MachineId,
    /// Delivery time on the receiver's clock.
    pub deliver_at: Cycles,
    /// Fleet-wide send order, used to break delivery ties deterministically.
    pub seqno: u64,
    /// The event injected into the receiver's queue shard.
    pub event: Event,
}

/// The deterministic cross-machine mailbox.
///
/// Messages are stamped with a fleet-wide sequence number at post time;
/// deliveries to a machine happen in `(deliver_at, seqno)` order, so the
/// observable delivery sequence is independent of how the synchronizer
/// interleaves shard execution.  The backing storage is preallocated —
/// posting within [`Mailbox::capacity`] never allocates, which the
/// zero-allocation audit relies on.
#[derive(Debug)]
pub struct Mailbox {
    messages: Vec<FleetMessage>,
    next_seqno: u64,
}

impl Mailbox {
    /// Creates a mailbox with room for `capacity` undelivered messages.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Mailbox {
            messages: Vec::with_capacity(capacity),
            next_seqno: 0,
        }
    }

    /// Number of undelivered messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether no message is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Remaining preallocated room.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.messages.capacity()
    }

    /// Posts a message for delivery at `deliver_at`, returning its
    /// fleet-wide sequence number.
    // lint: no-alloc
    pub fn post(
        &mut self,
        from: MachineId,
        to: MachineId,
        deliver_at: Cycles,
        event: Event,
    ) -> u64 {
        let seqno = self.next_seqno;
        self.next_seqno += 1;
        self.messages.push(FleetMessage {
            from,
            to,
            deliver_at,
            seqno,
            event,
        });
        seqno
    }

    /// Earliest pending delivery time across all destinations.
    #[must_use]
    pub fn earliest(&self) -> Option<Cycles> {
        self.messages.iter().map(|m| m.deliver_at).min()
    }

    /// Moves every message for `to` due strictly before `horizon` (all of
    /// them when `None`) into `out`, sorted by `(deliver_at, seqno)`.  `out`
    /// is cleared first and never shrunk, so a caller-reused buffer keeps
    /// the steady state allocation-free.
    // lint: no-alloc
    pub fn take_due(
        &mut self,
        to: MachineId,
        horizon: Option<Cycles>,
        out: &mut Vec<FleetMessage>,
    ) {
        out.clear();
        let mut i = 0;
        while i < self.messages.len() {
            let m = &self.messages[i];
            if m.to == to && horizon.is_none_or(|h| m.deliver_at < h) {
                out.push(self.messages.swap_remove(i));
            } else {
                i += 1;
            }
        }
        out.sort_unstable_by_key(|m| (m.deliver_at, m.seqno));
    }
}

/// Aggregated outcome of a fleet run: one [`SimReport`] per machine in
/// [`MachineId`] order, plus a fleet-wide digest.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-machine reports, indexed by machine.
    pub reports: Vec<SimReport>,
    /// Deterministic digest over every machine's event-log digest in machine
    /// order: equal fleets produce equal digests, and any machine diverging
    /// changes it.
    pub fleet_digest: u64,
}

impl FleetReport {
    /// Wraps per-machine reports, computing the fleet digest.
    #[must_use]
    pub fn new(reports: Vec<SimReport>) -> Self {
        let mut h = Fnv64::new();
        for (i, r) in reports.iter().enumerate() {
            h.write_u64(i as u64);
            h.write_u64(r.log_digest);
        }
        FleetReport {
            fleet_digest: h.finish(),
            reports,
        }
    }

    /// The latest completion time across the fleet.
    #[must_use]
    pub fn total_cycles(&self) -> Cycles {
        self.reports
            .iter()
            .map(|r| r.total_cycles)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// Request-serving statistics merged across every machine, in machine
    /// order (histogram merging is order-independent, so this equals any
    /// other fold order).
    #[must_use]
    pub fn aggregate_service(&self) -> Option<ServiceStats> {
        let mut merged: Option<ServiceStats> = None;
        for r in &self.reports {
            if let Some(s) = &r.stats.service {
                merged.get_or_insert_with(Default::default).merge(s);
            }
        }
        merged
    }
}

/// The shared fleet state: a [`MachineId`] arena of shards, the mailbox and
/// the conservative synchronizer.
#[derive(Debug)]
pub struct FleetEngine<P: Platform> {
    machines: Arena<MachineId, Machine<P>>,
    mailbox: Mailbox,
    network_latency: Cycles,
    /// Reused per-window delivery buffer (see [`Mailbox::take_due`]).
    due: Vec<FleetMessage>,
}

impl<P: Platform> FleetEngine<P> {
    /// Creates an empty fleet.  `network_latency` is the fixed inter-machine
    /// delivery delay; it is clamped to at least one cycle because the
    /// conservative window `min(neighbour clocks) + latency` needs positive
    /// lookahead to make progress.
    #[must_use]
    pub fn new(network_latency: Cycles) -> Self {
        FleetEngine {
            machines: Arena::new(),
            mailbox: Mailbox::with_capacity(64),
            network_latency: network_latency.max(Cycles::new(1)),
            due: Vec::with_capacity(64),
        }
    }

    /// The configured inter-machine network latency.
    #[must_use]
    pub fn network_latency(&self) -> Cycles {
        self.network_latency
    }

    /// Adds a fully-assembled machine to the fleet, returning its id.
    pub fn add_machine(&mut self, machine: Machine<P>) -> MachineId {
        self.machines.alloc(machine)
    }

    /// Number of machines in the fleet.
    #[must_use]
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// The machine ids in order.
    pub fn machine_ids(&self) -> impl Iterator<Item = MachineId> + '_ {
        self.machines.ids()
    }

    /// The machine `id`, if allocated.
    #[must_use]
    pub fn machine(&self, id: MachineId) -> Option<&Machine<P>> {
        self.machines.get(id)
    }

    /// Posts a cross-machine message sent at `send_time`: it is delivered
    /// into `to`'s queue shard at `send_time + network_latency`.
    // lint: no-alloc
    pub fn post(&mut self, from: MachineId, to: MachineId, send_time: Cycles, event: Event) {
        self.mailbox
            .post(from, to, send_time + self.network_latency, event);
    }

    /// Runs every machine to completion under conservative synchronization,
    /// returning one report per machine in [`MachineId`] order.
    ///
    /// Each window, every unfinished shard receives its due mail and then
    /// advances up to `min(neighbour next-event times) + network_latency`,
    /// exclusive — any message generated inside the window delivers at or
    /// beyond that horizon, so no shard can observe an event out of order.
    /// Shards step in ascending machine order, making the whole run a pure
    /// function of its inputs regardless of surrounding parallelism.
    ///
    /// # Errors
    ///
    /// * [`misp_types::MispError::InvalidConfiguration`] if the fleet is
    ///   empty or a machine has no runtime attached.
    /// * [`misp_types::MispError::CycleBudgetExhausted`] if any machine's
    ///   budget elapses first.
    /// * [`misp_types::MispError::Deadlock`] once every shard drained its
    ///   queue with measured work remaining and no mail pending.
    pub fn run(&mut self) -> Result<Vec<SimReport>> {
        if self.machines.is_empty() {
            return Err(misp_types::MispError::InvalidConfiguration(
                "fleet has no machines".to_string(),
            ));
        }
        for (_, machine) in self.machines.iter_mut() {
            machine.start()?;
        }
        loop {
            let mut all_finished = true;
            let mut all_idle = true;
            for id in 0..self.machines.len() {
                let id = MachineId::new(id as u32);
                if self.machines[id].is_finished() {
                    continue;
                }
                all_finished = false;
                // Conservative lookahead: the earliest instant any *other*
                // unfinished shard could still send from.  `None` means no
                // neighbour can ever send again — run unbounded.
                let neighbour_bound = self
                    .machines
                    .iter()
                    .filter(|(other, m)| *other != id && !m.is_finished())
                    .filter_map(|(_, m)| m.next_event_time())
                    .min();
                let horizon = neighbour_bound.map(|b| b + self.network_latency);
                // Deliver due mail before stepping: everything strictly
                // before the horizon is safe (the shard's clock cannot pass
                // an undelivered message).
                let mut due = std::mem::take(&mut self.due);
                self.mailbox.take_due(id, horizon, &mut due);
                let machine = &mut self.machines[id];
                for message in &due {
                    machine.post_event(message.deliver_at, message.event);
                }
                self.due = due;
                match machine.advance(horizon)? {
                    MachineStatus::Finished | MachineStatus::Paused => all_idle = false,
                    MachineStatus::Idle => {}
                }
            }
            if all_finished {
                break;
            }
            if all_idle && self.mailbox.is_empty() {
                // No shard can make progress and no mail is in flight: the
                // first stuck machine names the deadlock.
                let stuck = self
                    .machines
                    .iter()
                    .find(|(_, m)| !m.is_finished())
                    .expect("an unfinished machine exists");
                return Err(stuck.1.deadlock_error());
            }
        }
        let reports = self
            .machines
            .iter_mut()
            .map(|(_, m)| m.finish_report())
            .collect();
        Ok(reports)
    }

    /// Runs the fleet and wraps the per-machine reports into a
    /// [`FleetReport`] with the fleet-wide digest.
    ///
    /// # Errors
    ///
    /// Propagates every error [`FleetEngine::run`] can produce.
    pub fn run_fleet(&mut self) -> Result<FleetReport> {
        Ok(FleetReport::new(self.run()?))
    }
}
