//! Property-based integration tests: invariants that must hold for *any*
//! workload shape, checked with proptest over randomized parameters.

use misp::core::MispMachine;
use misp::core::{MispTopology, RingPolicy};
use misp::isa::ProgramLibrary;
use misp::mem::AccessPattern;
use misp::os::TimerConfig;
use misp::sim::{SimConfig, SimReport, TraceConfig};
use misp::types::{CostModel, Cycles, SignalCost};
use misp::workloads::{LocalityProfile, Machine, Run, Suite, Workload, WorkloadParams};
use proptest::prelude::*;

fn arbitrary_params() -> impl Strategy<Value = WorkloadParams> {
    (
        50_000_000u64..400_000_000,
        0.0f64..0.3,
        0u64..64,
        0u64..16,
        1u64..16,
        0u64..6,
        prop_oneof![
            Just(AccessPattern::Sequential),
            (1u64..8).prop_map(|stride| AccessPattern::Strided { stride }),
            any::<u64>().prop_map(|seed| AccessPattern::Shuffled { seed }),
        ],
        any::<bool>(),
    )
        .prop_map(
            |(
                total_work,
                serial_fraction,
                main_pages,
                worker_pages,
                chunks,
                syscalls,
                pattern,
                contention,
            )| {
                WorkloadParams {
                    total_work,
                    serial_fraction,
                    main_pages,
                    worker_pages,
                    chunks_per_worker: chunks,
                    main_syscalls: syscalls,
                    worker_syscalls: 0,
                    access_pattern: pattern,
                    lock_contention: contention,
                    locality: LocalityProfile::Revisit,
                }
            },
        )
}

fn quick_config() -> SimConfig {
    SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        ..SimConfig::default()
    }
}

/// Asserts that two reports agree on everything the results schema can see:
/// completion times, the full statistics block and the event-log digest.
fn assert_identical(a: &SimReport, b: &SimReport, context: &str) {
    assert_eq!(a.total_cycles, b.total_cycles, "{context}: total cycles");
    assert_eq!(a.completions, b.completions, "{context}: completions");
    assert_eq!(a.stats, b.stats, "{context}: statistics");
    assert_eq!(a.log_digest, b.log_digest, "{context}: log digest");
}

/// Runs `workload` on `machine` with 8 workers under `config`.
fn run(workload: &Workload, machine: Machine, config: SimConfig) -> SimReport {
    Run::workload(workload)
        .machine(machine)
        .config(config)
        .execute()
        .unwrap()
}

/// Runs `workload` on `machine` with 4 workers under `config`.
fn run4(workload: &Workload, machine: Machine, config: SimConfig) -> SimReport {
    Run::workload(workload)
        .machine(machine)
        .config(config)
        .workers(4)
        .execute()
        .unwrap()
}

/// The macro-step fast path must be invisible: every catalog workload, with
/// the cache model off and on, produces identical statistics and event-log
/// digests whether batching is enabled (the default) or force-disabled (the
/// event-per-operation reference loop).
#[test]
fn macro_stepping_is_byte_identical_for_every_catalog_workload() {
    use misp::cache::CacheConfig;
    let topo = MispTopology::uniprocessor(7).unwrap();
    for cache in [CacheConfig::disabled(), CacheConfig::enabled_default()] {
        let base = quick_config().with_cache(cache);
        let batched = SimConfig {
            batch: true,
            ..base
        };
        let reference = SimConfig {
            batch: false,
            ..base
        };
        for w in misp::workloads::catalog::all() {
            let context = format!(
                "{} (cache {})",
                w.name(),
                if cache.enabled { "on" } else { "off" }
            );
            let on = run(&w, Machine::Misp(topo.clone()), batched);
            let off = run(&w, Machine::Misp(topo.clone()), reference);
            assert_identical(&on, &off, &format!("{context} on MISP"));

            let on = run(&w, Machine::smp(8), batched);
            let off = run(&w, Machine::smp(8), reference);
            assert_identical(&on, &off, &format!("{context} on SMP"));

            let on = run(&w, Machine::Serial, batched);
            let off = run(&w, Machine::Serial, reference);
            assert_identical(&on, &off, &format!("{context} serial"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any workload completes on MISP, is deterministic, and never beats the
    /// ideal linear speedup over its own serial run.
    #[test]
    fn random_workloads_complete_deterministically(params in arbitrary_params()) {
        let w = Workload::new("prop", Suite::Rms, params);
        let topo = MispTopology::uniprocessor(3).unwrap();
        let a = run4(&w, Machine::Misp(topo.clone()), quick_config());
        let b = run4(&w, Machine::Misp(topo.clone()), quick_config());
        prop_assert_eq!(a.total_cycles, b.total_cycles);
        prop_assert_eq!(a.stats.total_serializing_events(), b.stats.total_serializing_events());

        let serial = run4(&w, Machine::Serial, quick_config());
        prop_assert!(serial.total_cycles >= a.total_cycles.saturating_sub(Cycles::new(1_000)) || serial.total_cycles >= a.total_cycles,
            "parallel must not exceed serial by more than rounding");
        let speedup = serial.total_cycles.as_f64() / a.total_cycles.as_f64();
        prop_assert!(speedup <= 4.05, "speedup {} exceeds sequencer count", speedup);
    }

    /// Macro-stepping is byte-identical on arbitrary workload shapes too —
    /// including with the trace ring on, whose digest covers every
    /// individual (time, sequencer, kind) record in order.
    #[test]
    fn macro_stepping_is_byte_identical_on_random_workloads(
        input in (arbitrary_params(), any::<bool>())
    ) {
        let (params, traced) = input;
        let w = Workload::new("prop", Suite::Rms, params);
        let topo = MispTopology::uniprocessor(3).unwrap();
        let trace = TraceConfig { enabled: traced, ..TraceConfig::default() };
        let base = SimConfig { trace, ..quick_config() };
        let batched = SimConfig { batch: true, ..base };
        let reference = SimConfig { batch: false, ..base };
        let trace_digest = |r: &SimReport| r.trace.as_ref().map(|t| t.digest);

        let on = run4(&w, Machine::Misp(topo.clone()), batched);
        let off = run4(&w, Machine::Misp(topo.clone()), reference);
        prop_assert_eq!(on.total_cycles, off.total_cycles);
        prop_assert_eq!(&on.completions, &off.completions);
        prop_assert_eq!(&on.stats, &off.stats);
        prop_assert_eq!(on.log_digest, off.log_digest);
        prop_assert_eq!(on.trace.is_some(), traced);
        prop_assert_eq!(trace_digest(&on), trace_digest(&off));

        let on = run4(&w, Machine::Serial, batched);
        let off = run4(&w, Machine::Serial, reference);
        prop_assert_eq!(on.total_cycles, off.total_cycles);
        prop_assert_eq!(&on.stats, &off.stats);
        prop_assert_eq!(on.log_digest, off.log_digest);
        prop_assert_eq!(trace_digest(&on), trace_digest(&off));
    }

    /// The total number of page faults equals the number of distinct pages
    /// touched, independent of machine and access pattern.
    #[test]
    fn fault_count_is_exactly_the_working_set(params in arbitrary_params()) {
        let w = Workload::new("prop", Suite::Rms, params);
        let topo = MispTopology::uniprocessor(3).unwrap();
        let report = run4(&w, Machine::Misp(topo.clone()), quick_config());
        let expected = params.main_pages + params.worker_pages * 4;
        let measured = report.stats.oms_events.page_faults + report.stats.ams_events.page_faults;
        prop_assert_eq!(measured, expected);
        let smp = run4(&w, Machine::smp(4), quick_config());
        let smp_faults = smp.stats.oms_events.page_faults + smp.stats.ams_events.page_faults;
        prop_assert_eq!(smp_faults, expected);
    }

    /// Cheaper signaling never makes a workload slower, and the speculative
    /// ring policy never loses to the suspend-all policy.
    #[test]
    fn overheads_are_monotone(params in arbitrary_params()) {
        let w = Workload::new("prop", Suite::Rms, params);
        let topo = MispTopology::uniprocessor(3).unwrap();
        let with_signal = |signal: SignalCost| {
            let cfg = quick_config().with_costs(CostModel::builder().signal(signal).build());
            run4(&w, Machine::Misp(topo.clone()), cfg).total_cycles
        };
        let ideal = with_signal(SignalCost::Ideal);
        let microcode = with_signal(SignalCost::Microcode5000);
        prop_assert!(ideal <= microcode);

        // Ring-policy ablation: speculative pass-through can only help.
        let run_policy = |policy: RingPolicy| {
            let mut library = ProgramLibrary::new();
            let scheduler = w.build(&mut library, 4);
            let mut machine = MispMachine::new(topo.clone(), quick_config(), library);
            machine.engine_mut().platform_mut().set_policy(policy);
            machine.add_process("prop", Box::new(scheduler), Some(0));
            machine.run().unwrap().total_cycles
        };
        let suspend_all = run_policy(RingPolicy::SuspendAll);
        let speculative = run_policy(RingPolicy::Speculative);
        prop_assert!(speculative <= suspend_all);
    }
}
