//! Unit costs of single layers, measured by replaying the workload's own
//! input streams through each layer's public entry point.  Each replay runs
//! `REPEATS` times and reports the `FAST` quantile of its host nanoseconds
//! per operation; a layer's modeled time is then its exact count times that
//! unit cost.

use crate::counts::Counts;
use crate::host::fast;
use crate::plan::{self, Built, Plan};
use misp_cache::{CacheConfig, CacheHierarchy};
use misp_core::{SignalFabric, SignalRecord};
use misp_harness::experiment_config;
use misp_isa::{AccessKind, Op, OwnedCursor, ProgramLibrary, ProgramRef, RuntimeOp};
use misp_mem::MemorySystem;
use misp_sim::{Event, EventQueue, Mailbox};
use misp_types::{Cycles, LockId, MachineId, ProcessId, SequencerId, ShredId, VirtAddr};
use shredlib::{SchedulingPolicy, SyncTable, WorkQueue};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Replays per measurement.
const REPEATS: usize = 5;
/// Upper bound on the operations one replay runs; longer streams are
/// sampled evenly across the workload's points.
pub const MAX_OPS: u64 = 400_000;

/// Host nanoseconds per operation of `run`, which returns how many
/// operations it performed (0 when the stream is empty).
fn ns_per_op(mut run: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            let ops = run();
            let elapsed = start.elapsed().as_secs_f64() * 1e9;
            if ops == 0 {
                0.0
            } else {
                elapsed / ops as f64
            }
        })
        .collect();
    fast(&mut samples)
}

/// A push/pop/supersede stream through `EventQueue` with the workload's
/// supersession share and peak occupancy.  The queue is filled to the
/// workload's high-water mark and kept there: each push either supersedes a
/// live sequencer slot or, after popping the earliest event, reuses the
/// popped sequencer's slot.  Times advance from the last popped time by a
/// spread of offsets so every radix bucket sees traffic.
pub fn queue(c: &Counts) -> f64 {
    if c.events_pushed == 0 {
        return 0.0;
    }
    let pushes = c.events_pushed.min(MAX_OPS);
    let slots = c.queue_max_len.clamp(1, 64) as u32;
    ns_per_op(|| {
        let mut q = EventQueue::new();
        let (mut ops, mut live, mut carry, mut now) = (0u64, 0u32, 0u64, 0u64);
        for i in 0..pushes {
            carry += c.supersessions;
            let supersede = carry >= c.events_pushed && live == slots;
            let seq = if supersede {
                carry -= c.events_pushed;
                (i as u32).wrapping_mul(7) % slots
            } else if live < slots {
                live += 1;
                live - 1
            } else {
                let ev = q.pop().expect("a full queue pops");
                now = ev.time.as_u64();
                ops += 1;
                match ev.event {
                    Event::SeqReady { seq, .. } => seq.index(),
                    _ => unreachable!("the replay pushes only SeqReady"),
                }
            };
            let spread = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52) + 1;
            q.push(
                Cycles::new(now + spread),
                Event::SeqReady {
                    seq: SequencerId::new(seq),
                    generation: i,
                },
            );
            ops += 1;
        }
        while q.pop().is_some() {
            ops += 1;
        }
        ops
    })
}

/// Every fleet point's dispatch replayed through `Mailbox::post`, draining
/// each machine's due messages with `take_due` after every window of one
/// request per machine.  One operation is one message posted and taken.
pub fn mailbox(built: &[(usize, Built)]) -> f64 {
    let fleets: Vec<(usize, Vec<(MachineId, Cycles)>)> = built
        .iter()
        .filter_map(|(_, b)| b.fleet.as_ref())
        .map(|streams| {
            let machines = streams.per_machine.len();
            let mut next = vec![0usize; machines];
            let messages = streams
                .assignments
                .iter()
                .map(|&m| {
                    let at = streams.per_machine[m].arrivals[next[m]];
                    next[m] += 1;
                    (MachineId::new(m as u32), at)
                })
                .collect();
            (machines, messages)
        })
        .collect();
    ns_per_op(|| {
        let mut ops = 0u64;
        for (machines, messages) in &fleets {
            let mut mailbox = Mailbox::with_capacity(messages.len());
            let mut due = Vec::with_capacity(messages.len());
            for window in messages.chunks(*machines) {
                for &(to, at) in window {
                    mailbox.post(MachineId::new(0), to, at, Event::Sample);
                }
                let horizon = window.last().map(|&(_, at)| at + Cycles::new(1));
                for m in 0..*machines {
                    mailbox.take_due(MachineId::new(m as u32), horizon, &mut due);
                    ops += due.len() as u64;
                }
            }
            for m in 0..*machines {
                mailbox.take_due(MachineId::new(m as u32), None, &mut due);
                ops += due.len() as u64;
            }
        }
        ops
    })
}

/// `OwnedCursor::next_op` over the workload's programs, sampled evenly
/// across points.
pub fn cursor(built: &[(usize, Built)]) -> f64 {
    let per_point = (MAX_OPS / built.len().max(1) as u64).max(1);
    let mut programs = Vec::new();
    for (_, b) in built {
        let mut taken = 0;
        for (_, program) in b.libraries.iter().flat_map(|l| l.iter()) {
            if taken >= per_point {
                break;
            }
            taken += program.flat_len();
            programs.push(Arc::new(program.clone()));
        }
    }
    ns_per_op(|| {
        let mut ops = 0u64;
        for program in &programs {
            let mut cursor = OwnedCursor::new(Arc::clone(program));
            while !cursor.is_exhausted() {
                black_box(cursor.next_op());
                ops += 1;
            }
        }
        ops
    })
}

/// One point's memory accesses: the load/store addresses of its programs,
/// program `i` on sequencer `i mod sequencers`, interleaved round-robin
/// across sequencers.
pub struct AccessStream {
    clusters: Vec<usize>,
    cache: Option<CacheConfig>,
    accesses: Vec<(SequencerId, VirtAddr, bool)>,
}

pub fn access_streams(plan: &Plan, built: &[(usize, Built)]) -> Vec<AccessStream> {
    let per_point = (MAX_OPS / built.len().max(1) as u64).max(1) as usize;
    let mut streams = Vec::new();
    for (p, b) in built {
        let Some(sim) = plan::sim_spec(plan.spec(*p)) else {
            continue;
        };
        let clusters = plan::clusters_of(&sim.machine);
        for library in &b.libraries {
            let mut lanes: Vec<Vec<(VirtAddr, bool)>> = vec![Vec::new(); clusters.len()];
            for (i, (_, program)) in library.iter().enumerate() {
                lanes[i % clusters.len()].extend(program.iter_flat().filter_map(|op| match op {
                    Op::Touch { addr, kind } => Some((addr, kind == AccessKind::Store)),
                    _ => None,
                }));
            }
            let mut accesses = Vec::new();
            let longest = lanes.iter().map(Vec::len).max().unwrap_or(0);
            'fill: for k in 0..longest {
                for (s, lane) in lanes.iter().enumerate() {
                    if let Some(&(addr, store)) = lane.get(k) {
                        accesses.push((SequencerId::new(s as u32), addr, store));
                        if accesses.len() >= per_point / b.libraries.len() {
                            break 'fill;
                        }
                    }
                }
            }
            streams.push(AccessStream {
                clusters: clusters.clone(),
                cache: sim.cache.filter(|c| c.enabled),
                accesses,
            });
        }
    }
    streams
}

/// `MemorySystem::access` (TLB and page table, caches off) over each
/// point's access stream, on a fresh memory system per point.
pub fn mem(streams: &[AccessStream]) -> f64 {
    let tlb = experiment_config().tlb_capacity;
    let pid = ProcessId::new(0);
    ns_per_op(|| {
        let mut ops = 0u64;
        for stream in streams {
            let mut memory = MemorySystem::new(stream.clusters.len(), tlb);
            memory.register_process(pid);
            for s in 0..stream.clusters.len() {
                memory
                    .bind_sequencer(SequencerId::new(s as u32), pid)
                    .expect("sequencer in range");
            }
            for &(seq, addr, store) in &stream.accesses {
                black_box(memory.access(seq, addr, store));
            }
            ops += stream.accesses.len() as u64;
        }
        ops
    })
}

/// `CacheHierarchy::access` over the access stream of each point that runs
/// with the cache model on, with the point's cache geometry, starting empty
/// per point.
pub fn cache(streams: &[AccessStream]) -> f64 {
    ns_per_op(|| {
        let mut ops = 0u64;
        for stream in streams {
            let Some(config) = stream.cache else { continue };
            let mut caches = CacheHierarchy::new(config, &stream.clusters);
            for &(seq, addr, store) in &stream.accesses {
                black_box(caches.access(seq, 0, addr, store));
            }
            ops += stream.accesses.len() as u64;
        }
        ops
    })
}

/// The signals each MISP machine of the workload sent, replayed through
/// `SignalFabric::send` on a fresh fabric per machine with history off, as
/// in the measured runs.  A fabric keeps only its first signals, and the
/// counting pass keeps an equal share of `MAX_OPS` per point, so the stream
/// is each machine's opening traffic.  One operation is one signal.
pub fn signal(streams: &[Vec<SignalRecord>]) -> f64 {
    let costs = experiment_config().costs;
    ns_per_op(|| {
        let mut ops = 0u64;
        for stream in streams {
            let mut fabric = SignalFabric::new(costs);
            for r in stream {
                black_box(fabric.send(r.from, r.to, r.kind, r.sent_at));
            }
            ops += stream.len() as u64;
        }
        ops
    })
}

/// One call the ShredLib scheduler makes into `SyncTable` for a runtime
/// operation.
#[derive(Debug, Clone, Copy)]
pub enum SyncCall {
    MutexLock(LockId, ShredId),
    MutexUnlock(LockId, ShredId),
    SemWait(LockId, ShredId),
    SemPost(LockId),
    CondWait(LockId, LockId, ShredId),
    CondSignal(LockId),
    CondBroadcast(LockId),
    BarrierWait(LockId, ShredId),
    EventWait(LockId, ShredId),
    EventSet(LockId),
    EventReset(LockId),
}

impl SyncCall {
    /// The call for `op` issued by `shred`, if `op` is a synchronization op.
    fn of(op: &RuntimeOp, shred: ShredId) -> Option<SyncCall> {
        Some(match *op {
            RuntimeOp::MutexLock(id) => SyncCall::MutexLock(id, shred),
            RuntimeOp::MutexUnlock(id) => SyncCall::MutexUnlock(id, shred),
            RuntimeOp::SemWait(id) => SyncCall::SemWait(id, shred),
            RuntimeOp::SemPost(id) => SyncCall::SemPost(id),
            RuntimeOp::CondWait { cond, mutex } => SyncCall::CondWait(cond, mutex, shred),
            RuntimeOp::CondSignal(id) => SyncCall::CondSignal(id),
            RuntimeOp::CondBroadcast(id) => SyncCall::CondBroadcast(id),
            RuntimeOp::BarrierWait(id) => SyncCall::BarrierWait(id, shred),
            RuntimeOp::EventWait(id) => SyncCall::EventWait(id, shred),
            RuntimeOp::EventSet(id) => SyncCall::EventSet(id),
            RuntimeOp::EventReset(id) => SyncCall::EventReset(id),
            RuntimeOp::ShredCreate { .. }
            | RuntimeOp::ShredExit
            | RuntimeOp::ShredYield
            | RuntimeOp::ShredJoin { .. } => return None,
        })
    }

    /// Makes the call: whether the caller blocks, and whom it wakes.
    fn apply(self, table: &mut SyncTable) -> misp_types::Result<(bool, Vec<ShredId>)> {
        let outcome = match self {
            SyncCall::MutexLock(id, s) => table.mutex_lock(id, s),
            SyncCall::MutexUnlock(id, s) => table.mutex_unlock(id, s),
            SyncCall::SemWait(id, s) => table.sem_wait(id, s),
            SyncCall::SemPost(id) => table.sem_post(id),
            SyncCall::CondWait(cond, mutex, s) => table.cond_wait(cond, mutex, s),
            SyncCall::CondSignal(id) => table.cond_signal(id),
            SyncCall::CondBroadcast(id) => table.cond_broadcast(id),
            SyncCall::BarrierWait(id, s) => table.barrier_wait(id, s),
            SyncCall::EventWait(id, s) => table.event_wait(id, s),
            SyncCall::EventSet(id) => table.event_set(id),
            SyncCall::EventReset(id) => table.event_reset(id),
        }?;
        Ok((outcome.block, outcome.wake))
    }
}

/// One call the ShredLib scheduler makes into its `WorkQueue`.
#[derive(Debug, Clone, Copy)]
pub enum QueueCall {
    Push(ShredId),
    Pop,
}

/// The `SyncTable` and `WorkQueue` calls one process's runtime makes when
/// its programs' runtime operations run on one sequencer.
pub struct RuntimeStream {
    policy: SchedulingPolicy,
    barriers: Vec<(LockId, usize)>,
    pub sync: Vec<SyncCall>,
    pub queue: Vec<QueueCall>,
}

impl RuntimeStream {
    fn push(&mut self, queue: &mut WorkQueue, shred: ShredId) {
        queue.push(shred);
        self.queue.push(QueueCall::Push(shred));
    }
}

/// Runs the runtime operations of `library`'s programs the way the ShredLib
/// gang scheduler handles them (`GangScheduler::on_runtime_op`), on one
/// sequencer, and records every `SyncTable` and `WorkQueue` call.  The
/// programs no `shred_create` names are the process's initial shreds; each
/// barrier's parties are the shreds whose programs wait on it.  A shred runs
/// until it blocks, yields or ends, and a woken shred resumes after the
/// operation it blocked on.  Every shred must end.
pub fn runtime_stream(
    library: &ProgramLibrary,
    policy: SchedulingPolicy,
) -> Result<RuntimeStream, String> {
    let programs: Vec<(ProgramRef, Vec<RuntimeOp>)> = library
        .iter()
        .map(|(r, program)| {
            let ops = program
                .iter_flat()
                .filter_map(|op| match op {
                    Op::Runtime(op) => Some(op),
                    _ => None,
                })
                .collect();
            (r, ops)
        })
        .collect();
    let index: BTreeMap<ProgramRef, usize> = programs
        .iter()
        .enumerate()
        .map(|(i, (r, _))| (*r, i))
        .collect();
    // How many shreds run each program.
    let mut instances = vec![0usize; programs.len()];
    for (_, ops) in &programs {
        for op in ops {
            if let RuntimeOp::ShredCreate { program } = op {
                instances[index[program]] += 1;
            }
        }
    }
    let roots: Vec<usize> = (0..programs.len()).filter(|&i| instances[i] == 0).collect();
    for &root in &roots {
        instances[root] = 1;
    }
    let mut parties: BTreeMap<LockId, usize> = BTreeMap::new();
    for ((_, ops), n) in programs.iter().zip(&instances) {
        let waits: BTreeSet<LockId> = ops
            .iter()
            .filter_map(|op| match op {
                RuntimeOp::BarrierWait(id) => Some(*id),
                _ => None,
            })
            .collect();
        for id in waits {
            *parties.entry(id).or_default() += n;
        }
    }

    let mut stream = RuntimeStream {
        policy,
        barriers: parties.into_iter().collect(),
        sync: Vec::new(),
        queue: Vec::new(),
    };
    let mut table = SyncTable::new();
    for &(id, n) in &stream.barriers {
        table.create_barrier(id, n);
    }
    let mut queue = WorkQueue::new(policy);
    // Each shred's program and the position of its next runtime operation;
    // `usize::MAX` marks a shred that ended.
    let mut shreds: Vec<(usize, usize)> = Vec::new();
    let mut joiners: BTreeMap<ShredId, Vec<ShredId>> = BTreeMap::new();
    for &root in &roots {
        shreds.push((root, 0));
        stream.push(&mut queue, ShredId::new(shreds.len() as u32 - 1));
    }
    while let Some(shred) = queue.pop() {
        stream.queue.push(QueueCall::Pop);
        let s = shred.as_usize();
        loop {
            let (program, pos) = shreds[s];
            let Some(op) = programs[program].1.get(pos) else {
                shreds[s].1 = usize::MAX;
                for joiner in joiners.remove(&shred).unwrap_or_default() {
                    stream.push(&mut queue, joiner);
                }
                break;
            };
            shreds[s].1 += 1;
            match op {
                RuntimeOp::ShredCreate { program } => {
                    shreds.push((index[program], 0));
                    stream.push(&mut queue, ShredId::new(shreds.len() as u32 - 1));
                }
                RuntimeOp::ShredExit => shreds[s].1 = programs[program].1.len(),
                RuntimeOp::ShredYield => {
                    stream.push(&mut queue, shred);
                    break;
                }
                RuntimeOp::ShredJoin { target } => {
                    let running = shreds
                        .get(target.as_usize())
                        .is_some_and(|&(_, pos)| pos != usize::MAX);
                    if running {
                        joiners.entry(*target).or_default().push(shred);
                        break;
                    }
                }
                op => {
                    let call = SyncCall::of(op, shred).expect("a synchronization op");
                    let (block, wake) = call
                        .apply(&mut table)
                        .map_err(|e| format!("runtime replay: {e}"))?;
                    stream.sync.push(call);
                    for woken in wake {
                        stream.push(&mut queue, woken);
                    }
                    if block {
                        break;
                    }
                }
            }
        }
    }
    let stuck = shreds.iter().filter(|&&(_, pos)| pos != usize::MAX).count();
    if stuck > 0 {
        return Err(format!("runtime replay: {stuck} shreds never ended"));
    }
    Ok(stream)
}

/// Each stream's `SyncTable` calls replayed on a fresh table.  One operation
/// is one call.
pub fn sync(streams: &[RuntimeStream]) -> f64 {
    ns_per_op(|| {
        let mut ops = 0u64;
        for stream in streams {
            let mut table = SyncTable::new();
            for &(id, parties) in &stream.barriers {
                table.create_barrier(id, parties);
            }
            for call in &stream.sync {
                let _ = black_box(call.apply(&mut table));
            }
            ops += stream.sync.len() as u64;
        }
        ops
    })
}

/// Each stream's `WorkQueue` pushes and pops replayed on a fresh queue with
/// the scheduler's policy.  One operation is one call.
pub fn work_queue(streams: &[RuntimeStream]) -> f64 {
    ns_per_op(|| {
        let mut ops = 0u64;
        for stream in streams {
            let mut queue = WorkQueue::new(stream.policy);
            for call in &stream.queue {
                match *call {
                    QueueCall::Push(shred) => queue.push(shred),
                    QueueCall::Pop => {
                        black_box(queue.pop());
                    }
                }
            }
            ops += stream.queue.len() as u64;
        }
        ops
    })
}
