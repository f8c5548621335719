//! Model-based tests of the fleet layer.
//!
//! Two promises are pinned here.  First, the deterministic cross-machine
//! [`Mailbox`] delivers exactly the sequence a single merged reference queue
//! would: messages sorted by `(deliver_at, seqno)`, restricted to each
//! machine, no matter how the conservative synchronizer slices the run into
//! windows.  Second, the fleet is a conservative *extension* of the
//! single-machine engine: a fleet of one — and every machine of a larger
//! fleet that receives no mail — replays the solo engine byte-for-byte,
//! down to the event-log digest.

use misp::core::{MispMachine, MispTopology};
use misp::isa::ProgramLibrary;
use misp::sim::{Event, FleetEngine, FleetReport, Mailbox, Platform, SimConfig};
use misp::smp::SmpMachine;
use misp::types::{Cycles, MachineId};
use misp::workloads::{catalog, Machine, Run};
use proptest::prelude::*;

/// One scripted mailbox operation, decoded from a generated tuple.
#[derive(Debug, Clone)]
enum Op {
    /// Post a message to machine `to % machines`, `gap` cycles past the
    /// highest horizon drained so far (the conservative invariant: an
    /// in-window send can only deliver at or beyond the window's horizon).
    Post { to: u32, gap: u64 },
    /// Drain machine `machine % machines` up to a horizon `step` cycles past
    /// the previous one.
    Drain { machine: u32, step: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..4, 0u64..500).prop_map(|(to, gap)| Op::Post { to, gap }),
        (0u32..4, 1u64..500).prop_map(|(machine, step)| Op::Drain { machine, step }),
    ]
}

proptest! {
    /// Replays a random post/drain script against the mailbox and against a
    /// single merged reference queue (all messages sorted by
    /// `(deliver_at, seqno)`): every machine must observe exactly the
    /// reference subsequence addressed to it, for 2–4 machines and any
    /// window slicing.
    #[test]
    fn mailbox_delivery_order_matches_a_single_merged_reference_queue(
        input in (2usize..5, proptest::collection::vec(op_strategy(), 1..120))
    ) {
        let (machines, ops) = input;
        let mut mailbox = Mailbox::with_capacity(16);
        // The reference: one merged queue of (deliver_at, seqno, to).
        let mut reference: Vec<(u64, u64, usize)> = Vec::new();
        let mut delivered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); machines];
        let mut floor = 0u64; // highest horizon drained so far
        let mut buffer = Vec::new();

        for op in &ops {
            match *op {
                Op::Post { to, gap } => {
                    let to = to as usize % machines;
                    let at = floor + gap;
                    let seqno = mailbox.post(
                        MachineId::new(0),
                        MachineId::new(to as u32),
                        Cycles::new(at),
                        Event::Sample,
                    );
                    reference.push((at, seqno, to));
                }
                Op::Drain { machine, step } => {
                    let machine = machine as usize % machines;
                    floor += step;
                    mailbox.take_due(
                        MachineId::new(machine as u32),
                        Some(Cycles::new(floor)),
                        &mut buffer,
                    );
                    delivered[machine]
                        .extend(buffer.iter().map(|m| (m.deliver_at.as_u64(), m.seqno)));
                }
            }
        }
        // Final unbounded drain, as the synchronizer does once a machine has
        // no live neighbours left.
        for (machine, seen) in delivered.iter_mut().enumerate() {
            mailbox.take_due(MachineId::new(machine as u32), None, &mut buffer);
            seen.extend(buffer.iter().map(|m| (m.deliver_at.as_u64(), m.seqno)));
        }
        prop_assert!(mailbox.is_empty(), "every message is delivered exactly once");

        reference.sort_unstable_by_key(|&(at, seqno, _)| (at, seqno));
        for (machine, seen) in delivered.iter().enumerate() {
            let expected: Vec<(u64, u64)> = reference
                .iter()
                .filter(|&&(_, _, to)| to == machine)
                .map(|&(at, seqno, _)| (at, seqno))
                .collect();
            prop_assert_eq!(
                seen,
                &expected,
                "machine {} delivery order diverged from the merged reference queue",
                machine
            );
        }
    }
}

/// Builds the MISP machine the runner would for `workload` on `topology`
/// (one application thread per processor), ready to drop into a fleet.
fn misp_machine(workload: &misp::workloads::Workload, topology: MispTopology) -> MispMachine {
    let processors = topology.processors().len();
    let mut library = ProgramLibrary::new();
    let scheduler = workload.build(&mut library, 8);
    let mut machine = MispMachine::new(topology, SimConfig::default(), library);
    let pid = machine.add_process(workload.name(), Box::new(scheduler), Some(0));
    for p in 1..processors {
        machine.add_thread(pid, Some(p));
    }
    machine
}

/// Builds the SMP machine the runner would for `workload` on `cores` cores
/// (one application thread per core), ready to drop into a fleet.
fn smp_machine(workload: &misp::workloads::Workload, cores: usize) -> SmpMachine {
    let mut library = ProgramLibrary::new();
    let scheduler = workload.build(&mut library, 8);
    let mut machine = SmpMachine::new(cores, SimConfig::default(), library);
    let pid = machine.add_process(workload.name(), Box::new(scheduler), Some(0));
    for core in 1..cores {
        machine.add_thread(pid, Some(core));
    }
    machine
}

/// Runs `machine` as the only member of a fleet.
fn fleet_of_one<P: Platform>(machine: misp::sim::Machine<P>) -> FleetReport {
    let mut fleet = FleetEngine::new(Cycles::new(200_000));
    fleet.add_machine(machine);
    fleet.run_fleet().unwrap()
}

/// A fleet of one replays the single-machine engine exactly, on every
/// platform the runner assembles: same completion time, same event-log
/// digest — which is also what keeps every pre-fleet golden byte-identical.
#[test]
fn a_fleet_of_one_reproduces_the_single_machine_engine() {
    let platforms = [
        Machine::misp(MispTopology::uniprocessor(7).unwrap()),
        Machine::smp(8),
        Machine::Serial,
    ];
    for platform in &platforms {
        for workload in catalog::all().iter().take(4) {
            let solo = Run::workload(workload)
                .machine(platform.clone())
                .execute()
                .unwrap();

            let report = match platform {
                Machine::Misp(topology) => {
                    fleet_of_one(misp_machine(workload, topology.clone()).into_sim_machine())
                }
                Machine::Smp { cores } => {
                    fleet_of_one(smp_machine(workload, *cores).into_sim_machine())
                }
                Machine::Serial => {
                    let topology = MispTopology::uniprocessor(0).unwrap();
                    fleet_of_one(misp_machine(workload, topology).into_sim_machine())
                }
            };

            let name = format!("{} on {platform:?}", workload.name());
            assert_eq!(report.reports.len(), 1, "{name}");
            assert_eq!(
                report.reports[0].total_cycles, solo.total_cycles,
                "{name}: fleet-of-one completion time"
            );
            assert_eq!(
                report.reports[0].log_digest, solo.log_digest,
                "{name}: fleet-of-one event-log digest"
            );
            assert_eq!(
                report.fleet_digest,
                FleetReport::new(vec![solo.clone()]).fleet_digest,
                "{name}: fleet digest is a pure function of the member digests"
            );
        }
    }
}

/// Machines that exchange no mail are untouched by the synchronizer: every
/// member of a mixed 3-machine fleet finishes with the digest of its solo
/// run, regardless of how the conservative windows interleaved the shards.
#[test]
fn independent_fleet_members_replay_their_solo_runs() {
    let picks: Vec<_> = catalog::all().into_iter().take(3).collect();
    let solos: Vec<_> = picks
        .iter()
        .map(|w| {
            Run::workload(w)
                .topology(MispTopology::uniprocessor(7).unwrap())
                .execute()
                .unwrap()
        })
        .collect();

    let mut fleet = FleetEngine::new(Cycles::new(1_000));
    for w in &picks {
        fleet.add_machine(
            misp_machine(w, MispTopology::uniprocessor(7).unwrap()).into_sim_machine(),
        );
    }
    let report = fleet.run_fleet().unwrap();

    assert_eq!(report.reports.len(), picks.len());
    for ((w, solo), fleet_report) in picks.iter().zip(&solos).zip(&report.reports) {
        assert_eq!(
            fleet_report.log_digest,
            solo.log_digest,
            "{}: windowed execution must not perturb an isolated machine",
            w.name()
        );
        assert_eq!(
            fleet_report.total_cycles,
            solo.total_cycles,
            "{}: completion time",
            w.name()
        );
    }
    assert_eq!(
        report.total_cycles(),
        solos.iter().map(|s| s.total_cycles).max().unwrap()
    );
}
