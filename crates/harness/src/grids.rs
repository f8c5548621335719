//! The named experiment grids: one per figure/table of the paper, the two
//! ablations, and the cache, service and fleet studies.
//!
//! Each grid is registered once, together with the renderer that turns its
//! results into the figure's text table ([`render()`]); `sweep <grid>` runs it,
//! writes the results document to `--out` or stdout, and prints the table to
//! stderr.

use crate::render;
use crate::spec::{FleetSpec, GridSpec, MachineSpec, RunSpec, ScenarioSpec, SimSpec, TopologySpec};
use crate::SweepResults;
use misp_cache::CacheConfig;
use misp_core::{LoadBalancerPolicy, RingPolicy};
use misp_types::SignalCost;
use misp_workloads::catalog;

/// Number of hardware contexts in the paper's evaluation machine.
pub const SEQUENCERS: usize = 8;

/// Number of worker shreds used by the single-machine experiments (one per
/// hardware context, as the OpenMP runtime would configure).
pub const WORKERS: usize = 8;

/// RayTracer is decomposed into many more shreds than sequencers so the work
/// queue can balance load when some sequencers run slower (the paper's
/// RayTracer is a task-queue renderer).
pub const RAYTRACER_SHREDS: usize = 64;

/// Highest competitor-process load of the Figure 7 study.
pub const MAX_LOAD: usize = 4;

/// The MISP uniprocessor used by the single-machine experiments (1 OMS +
/// 7 AMS).
const MISP_UP: TopologySpec = TopologySpec::Uniprocessor {
    ams: SEQUENCERS - 1,
};

/// Figure 4 — speedup of MISP (1 OMS + 7 AMS) and an 8-core SMP over
/// single-sequencer execution, across all 16 workloads.
#[must_use]
pub fn fig4() -> GridSpec {
    let mut grid = GridSpec::new(
        "fig4",
        "MISP performance: speedup of 1 OMS + 7 AMS and 8-core SMP vs. 1P, all workloads",
    )
    .with_family("figures");
    for workload in catalog::all() {
        let name = workload.name();
        grid.push(RunSpec::sim(
            format!("{name}/serial"),
            SimSpec::workload(name, MachineSpec::Serial, WORKERS),
        ));
        grid.push(
            RunSpec::sim(
                format!("{name}/misp"),
                SimSpec::workload(name, MachineSpec::Misp(MISP_UP), WORKERS),
            )
            .with_baseline(format!("{name}/serial")),
        );
        grid.push(
            RunSpec::sim(
                format!("{name}/smp"),
                SimSpec::workload(name, MachineSpec::Smp { cores: SEQUENCERS }, WORKERS),
            )
            .with_baseline(format!("{name}/serial")),
        );
    }
    grid
}

/// Figure 5 — sensitivity to signal cost: each workload at the ideal, 500,
/// 1000 and 5000 cycle signal design points on the MISP uniprocessor.
#[must_use]
pub fn fig5() -> GridSpec {
    let mut grid = GridSpec::new(
        "fig5",
        "Sensitivity to signal cost: overhead of 500/1000/5000-cycle signaling over ideal",
    )
    .with_family("figures");
    for workload in catalog::all() {
        let name = workload.name();
        let ideal_id = format!("{name}/ideal");
        let ideal = SimSpec::workload(name, MachineSpec::Misp(MISP_UP), WORKERS)
            .with_signal(SignalCost::Ideal);
        grid.push(RunSpec::sim(ideal_id.clone(), ideal));
        for cost in SignalCost::figure5_points() {
            let point =
                SimSpec::workload(name, MachineSpec::Misp(MISP_UP), WORKERS).with_signal(cost);
            grid.push(
                RunSpec::sim(format!("{name}/sig{}", cost.cycles().as_u64()), point)
                    .with_baseline(ideal_id.clone()),
            );
        }
    }
    grid
}

/// The machine partitionings Figure 6 depicts, in presentation order.
#[must_use]
pub fn fig6_topologies() -> Vec<(&'static str, TopologySpec)> {
    vec![
        ("4x2", TopologySpec::Quad2),
        ("2x4", TopologySpec::Dual4),
        ("1x8", TopologySpec::Single8),
        ("1x4+4", TopologySpec::Uneven { ams: 3, singles: 4 }),
        ("1x7+1", TopologySpec::Uneven { ams: 6, singles: 1 }),
        ("1x6+2", TopologySpec::Uneven { ams: 5, singles: 2 }),
        ("1x5+3", TopologySpec::Uneven { ams: 4, singles: 3 }),
    ]
}

/// Figure 6 — the MISP MP machine partitionings, validated structurally.
#[must_use]
pub fn fig6() -> GridSpec {
    let mut grid = GridSpec::new(
        "fig6",
        "MISP MP configurations: 8 sequencers partitioned into MISP processors",
    )
    .with_family("figures");
    for (name, topo) in fig6_topologies() {
        grid.push(RunSpec::topology(name, topo));
    }
    grid
}

/// Figure 7 — RayTracer throughput under competitor load, across MISP MP
/// configurations, the SMP baseline and the ideal repartitioning.  Every
/// simulation point is normalized (via its baseline reference) to the
/// unloaded 1×8 run.
#[must_use]
pub fn fig7() -> GridSpec {
    let mut grid = GridSpec::new(
        "fig7",
        "MISP MP performance: RayTracer throughput under competitor load, vs. unloaded 1x8",
    )
    .with_family("figures");
    let baseline_id = "1x8/load0".to_string();
    let push_point = |grid: &mut GridSpec, id: String, topo: Option<TopologySpec>, load| {
        let machine = match topo {
            Some(t) => MachineSpec::Misp(t),
            None => MachineSpec::Smp { cores: SEQUENCERS },
        };
        // The paper's spanning rule at every load, including zero: on MISP
        // the RayTracer occupies only AMS-carrying processors.  The SMP
        // baseline has no such notion, so its records must not claim it.
        let ams_span_only = matches!(machine, MachineSpec::Misp(_));
        let mut spec =
            SimSpec::workload("RayTracer", machine, RAYTRACER_SHREDS).with_competitors(load);
        if ams_span_only {
            spec = spec.with_ams_span_only();
        }
        let mut run = RunSpec::sim(id.clone(), spec);
        if id != baseline_id {
            run = run.with_baseline(baseline_id.clone());
        }
        grid.push(run);
    };

    // Ideal: at load k the machine is repartitioned so the k competitors each
    // get a dedicated single-sequencer CPU.
    for load in 0..=MAX_LOAD {
        let topo = TopologySpec::Uneven {
            ams: SEQUENCERS - 1 - load,
            singles: load,
        };
        push_point(&mut grid, format!("ideal/load{load}"), Some(topo), load);
    }
    for load in 0..=MAX_LOAD {
        push_point(&mut grid, format!("smp/load{load}"), None, load);
    }
    let fixed: Vec<(&str, TopologySpec)> = vec![
        ("4x2", TopologySpec::Quad2),
        ("2x4", TopologySpec::Dual4),
        ("1x8", TopologySpec::Single8),
        ("1x7+1", TopologySpec::Uneven { ams: 6, singles: 1 }),
        ("1x6+2", TopologySpec::Uneven { ams: 5, singles: 2 }),
        ("1x5+3", TopologySpec::Uneven { ams: 4, singles: 3 }),
        ("1x4+4", TopologySpec::Uneven { ams: 3, singles: 4 }),
    ];
    for (name, topo) in fixed {
        for load in 0..=MAX_LOAD {
            push_point(&mut grid, format!("{name}/load{load}"), Some(topo), load);
        }
    }
    grid
}

/// Table 1 — serializing-event counts of every workload on the MISP
/// uniprocessor.
#[must_use]
pub fn table1() -> GridSpec {
    let mut grid = GridSpec::new(
        "table1",
        "Serializing events: OMS- and AMS-originated privileged events per workload",
    )
    .with_family("tables");
    for workload in catalog::all() {
        let name = workload.name();
        grid.push(RunSpec::sim(
            format!("{name}/misp"),
            SimSpec::workload(name, MachineSpec::Misp(MISP_UP), WORKERS),
        ));
    }
    grid
}

/// Table 2 — ShredLib porting coverage of every ported application.
#[must_use]
pub fn table2() -> GridSpec {
    let mut grid = GridSpec::new(
        "table2",
        "Applications ported to MISP: ShredLib threading-API coverage analysis",
    )
    .with_family("tables");
    for app in catalog::table2_applications() {
        grid.push(RunSpec::port_analysis(app.name));
    }
    grid
}

/// Ablation A1 — the suspend-all ring-transition policy versus the
/// speculative continue-through-Ring-0 alternative of Section 2.3.
#[must_use]
pub fn ablation_ring0() -> GridSpec {
    let mut grid = GridSpec::new(
        "ablation_ring0",
        "Ring-transition policy: suspend-all vs. speculative continue-through-Ring-0",
    )
    .with_family("ablations");
    for workload in catalog::all() {
        let name = workload.name();
        for (variant, policy) in [
            ("suspend", RingPolicy::SuspendAll),
            ("speculative", RingPolicy::Speculative),
        ] {
            let spec = SimSpec::workload(name, MachineSpec::Misp(MISP_UP), WORKERS)
                .with_ring_policy(policy);
            let mut run = RunSpec::sim(format!("{name}/{variant}"), spec);
            if variant == "speculative" {
                run = run.with_baseline(format!("{name}/suspend"));
            }
            grid.push(run);
        }
    }
    grid
}

/// Ablation A2 — the Section 5.3 page pre-touch optimization.
#[must_use]
pub fn ablation_pretouch() -> GridSpec {
    let mut grid = GridSpec::new(
        "ablation_pretouch",
        "Page pre-touch in the serial region: proxy events removed and runtime delta",
    )
    .with_family("ablations");
    for workload in catalog::all() {
        let name = workload.name();
        grid.push(RunSpec::sim(
            format!("{name}/base"),
            SimSpec::workload(name, MachineSpec::Misp(MISP_UP), WORKERS),
        ));
        let pretouch = SimSpec::workload(name, MachineSpec::Misp(MISP_UP), WORKERS).with_pretouch();
        grid.push(
            RunSpec::sim(format!("{name}/pretouch"), pretouch)
                .with_baseline(format!("{name}/base")),
        );
    }
    grid
}

/// The shared-L2 capacity points of the `cache_sensitivity` grid, largest
/// first: `(label, sets, ways)` with the default 4 KiB line.
#[must_use]
pub fn cache_l2_points() -> Vec<(&'static str, u32, u32)> {
    vec![
        ("l2_2m", 64, 8),   // 2 MiB — holds every variant's full footprint
        ("l2_512k", 32, 4), // 512 KiB — holds a per-core slice, not the sum
        ("l2_128k", 16, 2), // 128 KiB — thrashes under streaming
    ]
}

/// Cache sensitivity — the locality-variant workloads
/// ([`catalog::cache_variants`]: streaming, blocked, shared-hot-set) with the
/// cache hierarchy **enabled**, swept over shared-L2 capacity on both the
/// MISP uniprocessor and the SMP baseline.
///
/// Within each workload × machine group the largest L2 is the baseline, so
/// `speedup_vs_baseline` reads as the slowdown smaller L2s inflict.  On MISP
/// all eight sequencers share one L2 (one processor); on SMP every core has
/// a private one — which is exactly the architectural contrast the grid
/// exposes: the shared-hot-set variant resolves its sharing in the MISP L2
/// but pays coherence misses across SMP cores.
#[must_use]
pub fn cache_sensitivity() -> GridSpec {
    let mut grid = GridSpec::new(
        "cache_sensitivity",
        "Cache sensitivity: locality variants x shared-L2 capacity x MISP/SMP, cache model enabled",
    )
    .with_family("sensitivity");
    for workload in catalog::cache_variants() {
        let name = workload.name();
        for (machine_label, machine) in [
            ("misp", MachineSpec::Misp(MISP_UP)),
            ("smp", MachineSpec::Smp { cores: SEQUENCERS }),
        ] {
            let baseline_id = format!("{name}/{machine_label}/l2_2m");
            for (cache_label, sets, ways) in cache_l2_points() {
                let spec = SimSpec::workload(name, machine.clone(), WORKERS)
                    .with_cache(CacheConfig::enabled_default().with_l2(sets, ways));
                let id = format!("{name}/{machine_label}/{cache_label}");
                let mut run = RunSpec::sim(id.clone(), spec);
                if id != baseline_id {
                    run = run.with_baseline(baseline_id.clone());
                }
                grid.push(run);
            }
        }
    }
    grid
}

/// The stream seed shared by every `service_load` grid point: paired runs
/// (MISP vs. SMP, pool 7 vs. pool 1) replay the identical customer stream.
pub const SERVICE_SEED: u64 = 2026;

/// The poisson offered-load sweep points of the `service_load` grid, in
/// percent of pool capacity.
#[must_use]
pub fn service_load_points() -> Vec<u32> {
    vec![30, 60, 90]
}

/// Service load — the open-loop request-serving study: latency percentiles
/// and throughput versus offered load on MISP and SMP (common random
/// numbers pair the machines per load), the bursty and diurnal arrival
/// variants at nominal load, and an M/M/7-vs-M/M/1 pool-shape comparison on
/// the identical stream.
#[must_use]
pub fn service_load() -> GridSpec {
    service_load_at(None)
}

/// The `service_load` grid with every offered load overridden to
/// `offered_load` (the `sweep --offered-load` hook).  `None` gives the
/// committed default grid: a 30/60/90% poisson sweep, bursty/diurnal at
/// 60%, and the pool-shape pair at a light 10%.
#[must_use]
pub fn service_load_at(offered_load: Option<u32>) -> GridSpec {
    let mut grid = GridSpec::new(
        "service_load",
        "Open-loop service: latency percentiles vs. offered load x MISP/SMP, \
         arrival variants, pool shapes",
    )
    .with_family("scenarios");
    let machines = || {
        [
            ("misp", MachineSpec::Misp(MISP_UP)),
            ("smp", MachineSpec::Smp { cores: SEQUENCERS }),
        ]
    };

    // Poisson offered-load sweep; per load the SMP run is baselined on the
    // paired MISP run so speedup_vs_baseline reads as MISP-relative.
    let loads = offered_load.map_or_else(service_load_points, |pct| vec![pct]);
    for &load in &loads {
        let misp_id = format!("poisson/load{load}/misp");
        for (label, machine) in machines() {
            let spec = SimSpec::scenario(
                ScenarioSpec::new("poisson").with_offered_load(load),
                machine,
            );
            let mut run =
                RunSpec::sim(format!("poisson/load{load}/{label}"), spec).with_seed(SERVICE_SEED);
            if label == "smp" {
                run = run.with_baseline(misp_id.clone());
            }
            grid.push(run);
        }
    }

    // The bursty and diurnal arrival processes at the nominal load.
    let nominal = offered_load.unwrap_or(60);
    for scenario in ["bursty", "diurnal"] {
        let misp_id = format!("{scenario}/load{nominal}/misp");
        for (label, machine) in machines() {
            let spec = SimSpec::scenario(
                ScenarioSpec::new(scenario).with_offered_load(nominal),
                machine,
            );
            let mut run = RunSpec::sim(format!("{scenario}/load{nominal}/{label}"), spec)
                .with_seed(SERVICE_SEED);
            if label == "smp" {
                run = run.with_baseline(misp_id.clone());
            }
            grid.push(run);
        }
    }

    // Pool-shape study: the identical lightly-loaded stream against the full
    // 7-wide pool and a single-server gate (M/M/7 vs. M/M/1 on common random
    // numbers; the arrival rate stays derived from the nominal width).
    let light = offered_load.unwrap_or(10);
    let pool7_id = format!("poisson/load{light}/pool7");
    grid.push(
        RunSpec::sim(
            pool7_id.clone(),
            SimSpec::scenario(
                ScenarioSpec::new("poisson").with_offered_load(light),
                MachineSpec::Misp(MISP_UP),
            ),
        )
        .with_seed(SERVICE_SEED),
    );
    grid.push(
        RunSpec::sim(
            format!("poisson/load{light}/pool1"),
            SimSpec::scenario(
                ScenarioSpec::new("poisson")
                    .with_offered_load(light)
                    .with_pool_width(1),
                MachineSpec::Misp(MISP_UP),
            ),
        )
        .with_seed(SERVICE_SEED)
        .with_baseline(pool7_id),
    );
    grid
}

/// The fleet sizes the `fleet_service` grid sweeps.
#[must_use]
pub fn fleet_machine_points() -> Vec<usize> {
    vec![4, 16]
}

/// Fleet service — the multi-machine request-serving study: a poisson
/// stream offered to a fleet of identical boxes through a seeded load
/// balancer, swept over fleet size × balancing policy × machine type at
/// nominal load, plus a 16-machine saturation pair at 90%.
///
/// Every point replays the same central customer stream
/// ([`SERVICE_SEED`]; the stream rate scales with the fleet so per-machine
/// load is held constant), so policies and machine types are compared under
/// common random numbers.  Per point the SMP run is baselined on the paired
/// MISP run, exactly as in [`service_load`].
#[must_use]
pub fn fleet_service() -> GridSpec {
    let mut grid = GridSpec::new(
        "fleet_service",
        "Fleet service: latency percentiles vs. fleet size x LB policy x MISP/SMP, \
         load-balanced poisson stream on common random numbers",
    )
    .with_family("scenarios");
    let machines = || {
        [
            ("misp", MachineSpec::Misp(MISP_UP)),
            ("smp", MachineSpec::Smp { cores: SEQUENCERS }),
        ]
    };
    let push_pair = |grid: &mut GridSpec, fleet: FleetSpec, load: u32| {
        let prefix = format!(
            "fleet{}/{}/load{load}",
            fleet.machines,
            fleet.policy.label()
        );
        let misp_id = format!("{prefix}/misp");
        for (label, machine) in machines() {
            let spec = SimSpec::scenario(
                ScenarioSpec::new("poisson").with_offered_load(load),
                machine,
            )
            .with_fleet(fleet);
            let mut run = RunSpec::sim(format!("{prefix}/{label}"), spec).with_seed(SERVICE_SEED);
            if label == "smp" {
                run = run.with_baseline(misp_id.clone());
            }
            grid.push(run);
        }
    };

    for machines in fleet_machine_points() {
        for policy in LoadBalancerPolicy::all() {
            push_pair(&mut grid, FleetSpec::new(machines, policy), 60);
        }
    }
    // The saturation point: the largest fleet under round-robin at 90%.
    push_pair(
        &mut grid,
        FleetSpec::new(16, LoadBalancerPolicy::RoundRobin),
        90,
    );
    grid
}

/// Every predefined grid, in a stable order: its name, its builder and the
/// renderer of its text table.
type Entry = (&'static str, fn() -> GridSpec, fn(&SweepResults) -> String);

const GRIDS: &[Entry] = &[
    ("fig4", fig4, render::fig4),
    ("fig5", fig5, render::fig5),
    ("fig6", fig6, render::fig6),
    ("fig7", fig7, render::fig7),
    ("table1", table1, render::table1),
    ("table2", table2, render::table2),
    ("ablation_ring0", ablation_ring0, render::ablation_ring0),
    (
        "ablation_pretouch",
        ablation_pretouch,
        render::ablation_pretouch,
    ),
    (
        "cache_sensitivity",
        cache_sensitivity,
        render::cache_sensitivity,
    ),
    ("service_load", service_load, render::service),
    ("fleet_service", fleet_service, render::service),
];

fn entry(name: &str) -> Option<&'static Entry> {
    GRIDS.iter().find(|(grid, _, _)| *grid == name)
}

/// The names of every predefined grid, in a stable order.
#[must_use]
pub fn all_names() -> Vec<&'static str> {
    GRIDS.iter().map(|&(name, _, _)| name).collect()
}

/// Looks a predefined grid up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<GridSpec> {
    entry(name).map(|(_, build, _)| build())
}

/// Renders `results` as the text table of the predefined grid it names
/// (`results.grid`), or `None` for a grid that is not predefined.
#[must_use]
pub fn render(results: &SweepResults) -> Option<String> {
    entry(&results.grid).map(|(_, _, render)| render(results))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_grid_validates() {
        for name in all_names() {
            let grid = by_name(name).expect("named grid exists");
            assert_eq!(grid.name, name);
            assert!(!grid.runs.is_empty(), "{name} is non-empty");
            grid.validate();
        }
        assert!(by_name("no-such-grid").is_none());
    }

    #[test]
    fn grid_sizes_match_the_figures() {
        let workloads = catalog::all().len();
        assert_eq!(fig4().runs.len(), workloads * 3);
        assert_eq!(fig5().runs.len(), workloads * 4);
        assert_eq!(fig6().runs.len(), 7);
        assert_eq!(fig7().runs.len(), (2 + 7) * (MAX_LOAD + 1));
        assert_eq!(table1().runs.len(), workloads);
        assert_eq!(table2().runs.len(), catalog::table2_applications().len());
        assert_eq!(ablation_ring0().runs.len(), workloads * 2);
        assert_eq!(ablation_pretouch().runs.len(), workloads * 2);
        assert_eq!(
            cache_sensitivity().runs.len(),
            catalog::cache_variants().len() * 2 * cache_l2_points().len()
        );
        // 3 poisson loads x 2 machines + bursty/diurnal x 2 machines + the
        // pool-shape pair.
        assert_eq!(
            service_load().runs.len(),
            service_load_points().len() * 2 + 2 * 2 + 2
        );
        // fleet sizes x policies x 2 machines + the saturation pair.
        assert_eq!(
            fleet_service().runs.len(),
            fleet_machine_points().len() * LoadBalancerPolicy::all().len() * 2 + 2
        );
    }

    #[test]
    fn every_grid_declares_a_family() {
        for name in all_names() {
            let grid = by_name(name).expect("named grid exists");
            assert_ne!(grid.family, "misc", "{name} must declare its family");
        }
        assert_eq!(service_load().family, "scenarios");
        assert_eq!(fig4().family, "figures");
        assert_eq!(table2().family, "tables");
    }

    #[test]
    fn service_load_pairs_share_the_stream_seed_and_baselines() {
        let grid = service_load();
        for run in &grid.runs {
            assert_eq!(run.seed, SERVICE_SEED, "{}: CRN requires one seed", run.id);
            let crate::RunKind::Sim(spec) = &run.kind else {
                panic!("service grid holds only simulations");
            };
            let crate::spec::WorkSource::Scenario(sc) = &spec.source else {
                panic!("service grid holds only scenarios");
            };
            assert!(sc.offered_load.is_some(), "{}: load is explicit", run.id);
            if run.id.ends_with("/smp") {
                let baseline = run.baseline.as_deref().expect("smp pairs with misp");
                assert!(baseline.ends_with("/misp"), "{} -> {baseline}", run.id);
            }
            if run.id.ends_with("/pool1") {
                assert_eq!(sc.pool_width, Some(1));
                let baseline = run.baseline.as_deref().expect("pool1 pairs with pool7");
                assert!(baseline.ends_with("/pool7"), "{} -> {baseline}", run.id);
            }
        }
    }

    #[test]
    fn service_load_override_collapses_the_load_axis() {
        let grid = service_load_at(Some(75));
        assert_eq!(grid.runs.len(), 2 + 2 * 2 + 2);
        for run in &grid.runs {
            let crate::RunKind::Sim(spec) = &run.kind else {
                panic!("service grid holds only simulations");
            };
            let crate::spec::WorkSource::Scenario(sc) = &spec.source else {
                panic!("service grid holds only scenarios");
            };
            assert_eq!(sc.offered_load, Some(75), "{}", run.id);
        }
        grid.validate();
    }

    #[test]
    fn fleet_service_pairs_share_the_stream_seed_and_cover_a_16_machine_fleet() {
        let grid = fleet_service();
        let mut saw_16 = false;
        for run in &grid.runs {
            assert_eq!(run.seed, SERVICE_SEED, "{}: CRN requires one seed", run.id);
            let crate::RunKind::Sim(spec) = &run.kind else {
                panic!("fleet grid holds only simulations");
            };
            let fleet = spec.fleet.expect("every point declares its fleet");
            assert!(run.id.starts_with(&format!("fleet{}/", fleet.machines)));
            saw_16 |= fleet.machines >= 16;
            if run.id.ends_with("/smp") {
                let baseline = run.baseline.as_deref().expect("smp pairs with misp");
                assert!(baseline.ends_with("/misp"), "{} -> {baseline}", run.id);
            }
        }
        assert!(saw_16, "the grid exercises a 16-machine fleet");
        grid.validate();
    }

    #[test]
    fn cache_sensitivity_points_enable_the_cache_and_reference_the_largest_l2() {
        let grid = cache_sensitivity();
        for run in &grid.runs {
            let crate::RunKind::Sim(spec) = &run.kind else {
                panic!("cache grid holds only simulations");
            };
            let cache = spec.cache.expect("every point models the cache");
            assert!(cache.enabled);
            if run.id.ends_with("/l2_2m") {
                assert!(run.baseline.is_none(), "{} is its group's baseline", run.id);
            } else {
                let baseline = run.baseline.as_deref().expect("smaller L2s have one");
                assert!(baseline.ends_with("/l2_2m"), "{} -> {baseline}", run.id);
            }
        }
    }

    #[test]
    fn fig7_points_reference_the_unloaded_1x8_baseline() {
        let grid = fig7();
        for run in &grid.runs {
            if run.id == "1x8/load0" {
                assert!(run.baseline.is_none());
            } else {
                assert_eq!(run.baseline.as_deref(), Some("1x8/load0"));
            }
        }
    }
}
