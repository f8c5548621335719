//! Allocation audit of the engine's steady-state hot loop.
//!
//! A counting global allocator wraps the system allocator.  The workload and
//! machine are fully constructed *before* counting starts, so the measurement
//! covers only `MispMachine::run` — the event loop and `step_sequencer`.  We
//! run the same machine shape twice, with the second run executing twice the
//! operations; if anything on the per-operation path allocated, the second
//! run would allocate more by an amount proportional to the extra operations
//! (hundreds of thousands).  A small fixed tolerance covers amortized
//! container growth (a retained buffer doubling once more in the longer run
//! is O(log n) events per run, not O(ops)).
//!
//! Counting is per thread: only allocations made by the measuring thread
//! while it is armed are counted, so sibling tests running in parallel under
//! the default test harness cannot inflate a measurement.

use misp::core::{MispMachine, MispTopology};
use misp::isa::ProgramLibrary;
use misp::os::TimerConfig;
use misp::sim::{Event, FleetEngine, Mailbox, SimConfig, TraceConfig};
use misp::types::{Cycles, MachineId};
use misp::workloads::{LocalityProfile, Suite, Workload, WorkloadParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Whether allocations made by this thread are being counted.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made while armed.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

/// Runs `f` with counting armed on the calling thread and returns the
/// number of allocations it made, together with its result.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    (ALLOCATIONS.with(Cell::get), result)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn params(chunks: u64) -> WorkloadParams {
    WorkloadParams {
        total_work: 200_000_000,
        serial_fraction: 0.05,
        main_pages: 16,
        worker_pages: 8,
        chunks_per_worker: chunks,
        main_syscalls: 2,
        worker_syscalls: 0,
        access_pattern: misp::mem::AccessPattern::Sequential,
        lock_contention: false,
        locality: LocalityProfile::Revisit,
    }
}

/// Builds the machine outside the measurement, then runs it and returns
/// (allocations during the run only, executed ops).
fn measured_run(chunks: u64) -> (u64, u64) {
    measured_run_with_trace(chunks, TraceConfig::default())
}

fn measured_run_with_trace(chunks: u64, trace: TraceConfig) -> (u64, u64) {
    let workload = Workload::new("alloc-audit", Suite::Rms, params(chunks));
    let topo = MispTopology::uniprocessor(3).unwrap();
    let config = SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        trace,
        ..SimConfig::default()
    };
    let mut library = ProgramLibrary::new();
    let scheduler = workload.build(&mut library, 4);
    let mut machine = MispMachine::new(topo, config, library);
    machine.add_process(workload.name(), Box::new(scheduler), Some(0));

    let (during, report) = count_allocations(|| machine.run().unwrap());
    let ops = report.stats.per_sequencer.iter().map(|s| s.ops).sum();
    (during, ops)
}

#[test]
fn steady_state_step_loop_does_not_allocate() {
    // Warm up allocator internals and any lazily-initialized state so both
    // measured runs start from the same baseline.  The default config has
    // tracing compiled in but disabled — the configuration every figure and
    // golden run uses — so this audit also pins the "off means free" claim.
    assert!(
        TraceConfig::default().is_off(),
        "the audited default must be the tracing-off configuration"
    );
    let _ = measured_run(1_000);

    let (alloc_1x, ops_1x) = measured_run(100_000);
    let (alloc_2x, ops_2x) = measured_run(200_000);

    assert!(
        ops_2x > ops_1x + 100_000,
        "doubling the chunks must add real operations (got {ops_1x} vs {ops_2x})"
    );
    // Allocations may not scale with operations.  The slack absorbs one-off
    // amortized growth (a retained Vec doubling once more in the longer run);
    // a single allocation per operation would blow past it ten-thousand-fold.
    let delta = alloc_2x.abs_diff(alloc_1x);
    assert!(
        delta <= 64,
        "steady-state hot loop allocated: {alloc_1x} allocations for {ops_1x} ops vs \
         {alloc_2x} for {ops_2x} ops (delta {delta})"
    );
}

/// Builds a 2-machine fleet outside the measurement, runs it under
/// conservative synchronization and returns (allocations during the run
/// only, executed ops across the fleet).
fn measured_fleet_run(chunks: u64) -> (u64, u64) {
    let topo = MispTopology::uniprocessor(3).unwrap();
    let config = SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        ..SimConfig::default()
    };
    let mut fleet = FleetEngine::new(Cycles::new(1_000));
    for _ in 0..2 {
        let workload = Workload::new("alloc-audit", Suite::Rms, params(chunks));
        let mut library = ProgramLibrary::new();
        let scheduler = workload.build(&mut library, 4);
        let mut machine = MispMachine::new(topo.clone(), config, library);
        machine.add_process(workload.name(), Box::new(scheduler), Some(0));
        fleet.add_machine(machine.into_sim_machine());
    }

    let (during, report) = count_allocations(|| fleet.run_fleet().unwrap());
    let ops = report
        .reports
        .iter()
        .flat_map(|r| r.stats.per_sequencer.iter())
        .map(|s| s.ops)
        .sum();
    (during, ops)
}

/// The fleet steady state is as allocation-free as the solo engine: each
/// shard steps through its preallocated queue, and the synchronizer's
/// per-window bookkeeping (horizon scan, due-mail buffer) reuses fixed
/// storage.  Doubling every machine's work must not move the allocation
/// count by more than the amortized-growth slack.
#[test]
fn fleet_steady_state_step_loop_does_not_allocate() {
    let _ = measured_fleet_run(1_000);

    let (alloc_1x, ops_1x) = measured_fleet_run(100_000);
    let (alloc_2x, ops_2x) = measured_fleet_run(200_000);

    assert!(
        ops_2x > ops_1x + 200_000,
        "doubling the chunks must add real operations on both shards \
         (got {ops_1x} vs {ops_2x})"
    );
    let delta = alloc_2x.abs_diff(alloc_1x);
    assert!(
        delta <= 64,
        "fleet steady-state loop allocated: {alloc_1x} allocations for {ops_1x} ops vs \
         {alloc_2x} for {ops_2x} ops (delta {delta})"
    );
}

/// Posting into the cross-machine mailbox within its preallocated capacity
/// is allocation-free, and so is draining through a caller-reused buffer —
/// the properties the fleet's per-window delivery path relies on.
#[test]
fn mailbox_posting_and_draining_do_not_allocate_within_capacity() {
    let mut mailbox = Mailbox::with_capacity(256);
    let mut buffer = Vec::with_capacity(256);
    // Warm both buffers past their first use.
    mailbox.post(
        MachineId::new(0),
        MachineId::new(1),
        Cycles::new(1),
        Event::Sample,
    );
    mailbox.take_due(MachineId::new(1), None, &mut buffer);

    let (during, ()) = count_allocations(|| {
        for round in 0..8u64 {
            for i in 0..200u64 {
                mailbox.post(
                    MachineId::new(0),
                    MachineId::new((i % 2) as u32),
                    Cycles::new(round * 1_000 + i),
                    Event::Sample,
                );
            }
            for machine in 0..2u32 {
                mailbox.take_due(MachineId::new(machine), None, &mut buffer);
            }
        }
    });
    assert!(mailbox.is_empty());
    assert_eq!(
        during, 0,
        "mailbox traffic within capacity must not allocate ({during} allocations)"
    );
}

/// The same audit with the trace ring *enabled*: the ring is preallocated at
/// machine construction and records by overwriting its oldest slot, so even
/// a traced run must not allocate per operation or per trace event.
#[test]
fn steady_state_step_loop_does_not_allocate_while_tracing() {
    let traced = TraceConfig {
        enabled: true,
        ..TraceConfig::default()
    };
    let _ = measured_run_with_trace(1_000, traced);

    let (alloc_1x, ops_1x) = measured_run_with_trace(100_000, traced);
    let (alloc_2x, ops_2x) = measured_run_with_trace(200_000, traced);

    assert!(
        ops_2x > ops_1x + 100_000,
        "doubling the chunks must add real operations (got {ops_1x} vs {ops_2x})"
    );
    let delta = alloc_2x.abs_diff(alloc_1x);
    assert!(
        delta <= 64,
        "traced hot loop allocated: {alloc_1x} allocations for {ops_1x} ops vs \
         {alloc_2x} for {ops_2x} ops (delta {delta})"
    );
}
