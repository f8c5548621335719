//! The benchmark's workloads, the reference each grid point's record is
//! checked against, and the outside-the-harness rebuild of a grid point that
//! the exact counters and the layer replays read.

use misp_core::{MispMachine, MispTopology, SignalFabric};
use misp_harness::{
    config_with_signal, experiment_config, grids, GridSpec, MachineSpec, RunKind, RunRecord,
    RunSpec, ScenarioSpec, SimSpec, WorkSource,
};
use misp_isa::ProgramLibrary;
use misp_sim::{FleetEngine, FleetReport, Platform, SimConfig, SimReport};
use misp_smp::SmpMachine;
use misp_types::Cycles;
use misp_workloads::{catalog, competitor, scenario, FleetStreams, RunOptions, Scenario};
use shredlib::GangScheduler;
use std::collections::BTreeMap;
use std::path::Path;

/// The named workloads and the grids each one runs, in pass order.
pub const WORKLOADS: [(&str, &[&str]); 3] = [
    (
        "figures",
        &[
            "fig4",
            "fig5",
            "fig7",
            "table1",
            "ablation_ring0",
            "ablation_pretouch",
        ],
    ),
    ("cache", &["cache_sensitivity"]),
    ("service", &["service_load", "fleet_service"]),
];

/// Scenario streams per run: a grid with scenario points runs once for the
/// committed stream, whose records the goldens check at every seed, and
/// once for each of `SEEDED_STREAMS` streams drawn from the run's seed, so
/// one run averages over several streams instead of timing whichever stream
/// one seed draws.
pub const SEEDED_STREAMS: u64 = 3;

/// One workload instantiated at one seed: its grids and their points in
/// pass order.
pub struct Plan {
    pub grids: Vec<GridSpec>,
    /// Whether each grid's records must equal the committed golden: always
    /// for the fixed catalog kernels, and for scenario streams only at the
    /// committed seed.
    pub golden: Vec<bool>,
    /// `(grid, index within the grid)` of every point, in pass order.
    pub points: Vec<(usize, usize)>,
}

impl Plan {
    /// Builds the grids of `workload`.  Only scenario streams consume the
    /// seed: a grid with scenario points appears once for the committed
    /// stream seed and once for each of `seed..seed + SEEDED_STREAMS`, with
    /// every scenario point replaying that stream.
    pub fn new(workload: &str, seed: u64) -> Option<Plan> {
        let (_, names) = WORKLOADS.iter().find(|(w, _)| *w == workload)?;
        let (mut grids, mut golden) = (Vec::new(), Vec::new());
        for name in names.iter() {
            let grid = grids::by_name(name).expect("named grid exists");
            let is_scenario = |run: &RunSpec| {
                sim_spec(run).is_some_and(|s| matches!(s.source, WorkSource::Scenario(_)))
            };
            if !grid.runs.iter().any(is_scenario) {
                grids.push(grid);
                golden.push(true);
                continue;
            }
            let seeded = (0..SEEDED_STREAMS).map(|k| seed.wrapping_add(k));
            for stream_seed in std::iter::once(grids::SERVICE_SEED).chain(seeded) {
                let mut copy = grid.clone();
                for run in copy.runs.iter_mut().filter(|r| is_scenario(r)) {
                    run.seed = stream_seed;
                }
                grids.push(copy);
                golden.push(stream_seed == grids::SERVICE_SEED);
            }
        }
        let points = grids
            .iter()
            .enumerate()
            .flat_map(|(g, grid)| (0..grid.runs.len()).map(move |i| (g, i)))
            .collect();
        Some(Plan {
            grids,
            golden,
            points,
        })
    }

    /// The spec of point `p`.
    pub fn spec(&self, p: usize) -> &RunSpec {
        let (g, i) = self.points[p];
        &self.grids[g].runs[i]
    }

    /// Fills `speedup_vs_baseline` from each record's baseline in the same
    /// grid, exactly as `run_grid` does, so records compare with goldens.
    pub fn resolve_baselines(&self, records: &mut [Option<RunRecord>]) {
        let mut cycles: BTreeMap<(usize, &str), u64> = BTreeMap::new();
        for (p, record) in records.iter().enumerate() {
            if let Some(sim) = record.as_ref().and_then(|r| r.sim.as_ref()) {
                cycles.insert((self.points[p].0, &self.spec(p).id), sim.total_cycles);
            }
        }
        for (p, record) in records.iter_mut().enumerate() {
            let Some(record) = record else { continue };
            let Some(baseline) = &record.baseline else {
                continue;
            };
            let base = cycles.get(&(self.points[p].0, baseline.as_str())).copied();
            if let (Some(sim), Some(base)) = (record.sim.as_mut(), base) {
                sim.speedup_vs_baseline = misp_harness::SimMetrics::speedup_vs_baseline(
                    &record.id,
                    base,
                    sim.total_cycles,
                );
            }
        }
    }
}

/// The simulation part of a run spec, if it is a simulation point.
pub fn sim_spec(run: &RunSpec) -> Option<&SimSpec> {
    match &run.kind {
        RunKind::Sim(sim) => Some(sim),
        _ => None,
    }
}

/// A record in canonical JSON (serialized, parsed, serialized again), so a
/// fresh record and a golden file's record compare as strings.
fn canonical_value(value: &serde_json::Value) -> String {
    serde_json::to_string(value).expect("a parsed value serializes")
}

pub fn canonical(record: &RunRecord) -> String {
    let json = serde_json::to_string(record).expect("records serialize");
    canonical_value(&serde_json::from_str(&json).expect("serialized records parse"))
}

/// The committed golden records of each grid, by id (`None` for grids with
/// no golden file, and for scenario grids off the committed seed).
pub fn load_goldens(plan: &Plan) -> Result<Vec<Option<BTreeMap<String, String>>>, String> {
    if !Path::new("tests/goldens").is_dir() {
        return Err("tests/goldens not found: run from the repository root".to_string());
    }
    let mut out = Vec::new();
    for (grid, &golden) in plan.grids.iter().zip(&plan.golden) {
        let path = Path::new("tests/goldens").join(format!("{}.json", grid.name));
        if !golden || !path.exists() {
            out.push(None);
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(serde_json::Value::Array(records)) = doc.get("records") else {
            return Err(format!("{}: no records array", path.display()));
        };
        let mut by_id = BTreeMap::new();
        for record in records {
            if let Some(serde_json::Value::String(id)) = record.get("id") {
                by_id.insert(id.clone(), canonical_value(record));
            }
        }
        out.push(Some(by_id));
    }
    Ok(out)
}

/// The simulation configuration `execute_run` derives from a spec.
fn config_of(sim: &SimSpec) -> SimConfig {
    let mut config = match sim.signal {
        Some(signal) => config_with_signal(signal),
        None => experiment_config(),
    };
    if let Some(cache) = sim.cache {
        config = config.with_cache(cache);
    }
    config.batch = sim.batch;
    config
}

/// The processor (cache cluster) of every sequencer of a machine.
pub fn clusters_of(spec: &MachineSpec) -> Vec<usize> {
    match spec {
        MachineSpec::Serial => vec![0],
        MachineSpec::Smp { cores } => (0..*cores).collect(),
        MachineSpec::Misp(topology) => topology
            .build()
            .processors()
            .iter()
            .enumerate()
            .flat_map(|(p, proc_)| std::iter::repeat_n(p, 1 + proc_.ams().len()))
            .collect(),
    }
}

fn scenario_of(spec: &ScenarioSpec) -> Option<Scenario> {
    let mut s = scenario::by_name(&spec.name)?;
    if let Some(requests) = spec.requests {
        s = s.with_requests(requests);
    }
    if let Some(pct) = spec.offered_load {
        s = s.with_offered_load(pct);
    }
    if let Some(width) = spec.pool_width {
        s = s.with_pool_width(width);
    }
    if let Some(bound) = spec.queue_bound {
        s = s.with_queue_bound(bound);
    }
    Some(s)
}

/// The programs of one grid point, built from outside the harness with the
/// same calls the run makes (`Workload::build`, `Scenario::build`, or
/// `Scenario::fleet_streams` plus one `build_from_stream` per machine).
pub struct Built {
    /// The process name the run gives the workload.
    pub name: String,
    /// One library per simulated machine.
    pub libraries: Vec<ProgramLibrary>,
    /// The scheduler each library's build returned.
    pub schedulers: Vec<GangScheduler>,
    /// The dispatch of a fleet point (arrivals include the network hop).
    pub fleet: Option<FleetStreams>,
}

pub fn build(run: &RunSpec) -> Result<Built, String> {
    let sim = sim_spec(run).ok_or_else(|| format!("{}: not a simulation point", run.id))?;
    let mut library = ProgramLibrary::new();
    match &sim.source {
        WorkSource::Workload(name) => {
            let w = catalog::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let scheduler = if sim.pretouch {
                w.build_with_pretouch(&mut library, sim.workers)
            } else {
                w.build(&mut library, sim.workers)
            };
            Ok(Built {
                name: w.name().to_string(),
                libraries: vec![library],
                schedulers: vec![scheduler],
                fleet: None,
            })
        }
        WorkSource::Scenario(sc) => {
            let s = scenario_of(sc).ok_or_else(|| format!("unknown scenario {}", sc.name))?;
            let name = s.name().to_string();
            let Some(fleet) = sim.fleet else {
                let scheduler = s.build(&mut library, run.seed);
                return Ok(Built {
                    name,
                    libraries: vec![library],
                    schedulers: vec![scheduler],
                    fleet: None,
                });
            };
            let streams = s.fleet_streams(run.seed, &fleet.build());
            let (libraries, schedulers) = streams
                .per_machine
                .iter()
                .map(|stream| {
                    let mut library = ProgramLibrary::new();
                    let scheduler = s.build_from_stream(&mut library, stream);
                    (library, scheduler)
                })
                .unzip();
            Ok(Built {
                name,
                libraries,
                schedulers,
                fleet: Some(streams),
            })
        }
    }
}

/// The run of one grid point, assembled from outside the harness exactly as
/// `Run::execute` and `Run::execute_fleet` (which `execute_run` wraps)
/// assemble it, so that each MISP machine's signal fabric can be read after
/// the run.  It holds one report per simulated machine, the run's identity
/// (cycles and event-log digest, or the fleet's span and digest) to tie the
/// reports to the harness record, and the fabrics.
pub struct Replica {
    pub reports: Vec<SimReport>,
    pub total_cycles: u64,
    pub digest: u64,
    /// Each MISP machine's signal fabric after the run (none on SMP).
    pub fabrics: Vec<SignalFabric>,
}

/// One simulated machine with the point's process (and competitors) added.
enum Assembled {
    Misp(MispMachine),
    Smp(SmpMachine),
}

fn assemble(
    sim: &SimSpec,
    config: SimConfig,
    mut library: ProgramLibrary,
    scheduler: GangScheduler,
    name: &str,
) -> Assembled {
    let cycles = RunOptions::default().competitor_cycles;
    let competitors: Vec<_> = (0..sim.competitors)
        .map(|i| competitor::competitor_program(&mut library, i, cycles))
        .collect();
    let measured = |pid| (sim.competitors > 0).then(|| vec![pid]);
    match &sim.machine {
        MachineSpec::Smp { cores } => {
            let mut machine = SmpMachine::new(*cores, config, library);
            let pid = machine.add_process(name, Box::new(scheduler), Some(0));
            for core in 1..*cores {
                machine.add_thread(pid, Some(core));
            }
            for program in competitors {
                let runtime = Box::new(competitor::competitor_runtime(program));
                machine.add_process("competitor", runtime, None);
            }
            if let Some(measured) = measured(pid) {
                machine.set_measured(measured);
            }
            Assembled::Smp(machine)
        }
        MachineSpec::Misp(_) | MachineSpec::Serial => {
            let topology = match &sim.machine {
                MachineSpec::Misp(topology) => topology.build(),
                _ => MispTopology::uniprocessor(0).expect("single-sequencer topology is valid"),
            };
            let processors = topology.processors().to_vec();
            let mut machine = MispMachine::new(topology, config, library);
            if let Some(policy) = sim.ring_policy {
                machine.engine_mut().platform_mut().set_policy(policy);
            }
            let pid = machine.add_process(name, Box::new(scheduler), Some(0));
            for (p, processor) in processors.iter().enumerate().skip(1) {
                if !sim.ams_span_only || !processor.ams().is_empty() {
                    machine.add_thread(pid, Some(p));
                }
            }
            for program in competitors {
                let runtime = Box::new(competitor::competitor_runtime(program));
                machine.add_process("competitor", runtime, None);
            }
            if let Some(measured) = measured(pid) {
                machine.set_measured(measured);
            }
            Assembled::Misp(machine)
        }
    }
}

/// Runs a fleet of machines of one platform and returns its report and the
/// engine, whose machines can still be inspected.
fn run_fleet<P: Platform>(
    latency: Cycles,
    machines: Vec<misp_sim::Machine<P>>,
) -> misp_types::Result<(FleetReport, FleetEngine<P>)> {
    let mut engine = FleetEngine::new(latency);
    for machine in machines {
        engine.add_machine(machine);
    }
    let report = engine.run_fleet()?;
    Ok((report, engine))
}

/// Runs point `run` once.  With `fine_log` each fabric also keeps its first
/// signals (the event-log digest then differs from the harness record's).
pub fn run_replica(run: &RunSpec, fine_log: bool) -> Result<Replica, String> {
    let sim = sim_spec(run).ok_or_else(|| format!("{}: not a simulation point", run.id))?;
    let err = |e: misp_types::MispError| format!("{}: {e}", run.id);
    let mut config = config_of(sim);
    config.fine_log = fine_log;
    let built = build(run)?;
    let (name, competitors) = (built.name.as_str(), sim.competitors);
    let mut machines: Vec<Assembled> = built
        .libraries
        .into_iter()
        .zip(built.schedulers)
        .map(|(library, scheduler)| assemble(sim, config, library, scheduler, name))
        .collect();
    let Some(fleet) = sim.fleet else {
        let machine = machines.pop().expect("a point builds one library");
        let (report, fabrics) = match machine {
            Assembled::Misp(mut m) => {
                let report = m.run().map_err(err)?;
                (report, m.engine().platform().fabric().cloned())
            }
            Assembled::Smp(mut m) => (m.run().map_err(err)?, None),
        };
        return Ok(Replica {
            total_cycles: report.total_cycles.as_u64(),
            digest: report.log_digest,
            reports: vec![report],
            fabrics: fabrics.into_iter().collect(),
        });
    };
    if competitors > 0 {
        return Err(format!("{}: competitors on a fleet point", run.id));
    }
    let latency = fleet.build().network_latency();
    let (report, fabrics) = if let Some(Assembled::Smp(_)) = machines.first() {
        let smp = machines.into_iter().map(|m| match m {
            Assembled::Smp(m) => m.into_sim_machine(),
            Assembled::Misp(_) => unreachable!("a fleet's machines share one platform"),
        });
        (
            run_fleet(latency, smp.collect()).map_err(err)?.0,
            Vec::new(),
        )
    } else {
        let misp = machines.into_iter().map(|m| match m {
            Assembled::Misp(m) => m.into_sim_machine(),
            Assembled::Smp(_) => unreachable!("a fleet's machines share one platform"),
        });
        let (report, engine) = run_fleet(latency, misp.collect()).map_err(err)?;
        let fabrics = engine
            .machine_ids()
            .filter_map(|id| engine.machine(id)?.platform().fabric().cloned())
            .collect();
        (report, fabrics)
    };
    Ok(Replica {
        total_cycles: report.total_cycles().as_u64(),
        digest: report.fleet_digest,
        reports: report.reports,
        fabrics,
    })
}

/// The conservation laws a point's reports must satisfy whatever the seed:
/// the replica is the harness's run (same cycles and digest), every
/// program operation retires exactly once (competitor processes only add
/// operations; dropped requests never run, so a run that drops requests is
/// exempt), and every completed request has one latency sample.
pub fn conservation_errors(
    run: &RunSpec,
    record: &RunRecord,
    built: &Built,
    replica: &Replica,
) -> Vec<String> {
    let mut errors = Vec::new();
    let sim = record.sim.as_ref();
    if sim.map(|s| (s.total_cycles, s.log_digest.clone()))
        != Some((replica.total_cycles, format!("{:016x}", replica.digest)))
    {
        errors.push("replica run differs from the harness record".to_string());
    }
    let program_ops: u64 = built
        .libraries
        .iter()
        .flat_map(|l| l.iter())
        .map(|(_, p)| p.flat_len())
        .sum();
    let retired: u64 = replica
        .reports
        .iter()
        .flat_map(|r| r.stats.per_sequencer.iter())
        .map(|u| u.ops)
        .sum();
    let competitors = sim_spec(run).is_some_and(|s| s.competitors > 0);
    let dropped = replica
        .reports
        .iter()
        .filter_map(|r| r.stats.service.as_ref())
        .any(|s| s.dropped > 0);
    let ops_conserved = if competitors {
        retired >= program_ops
    } else {
        dropped || retired == program_ops
    };
    if !ops_conserved {
        errors.push(format!(
            "{retired} operations retired for {program_ops} program operations"
        ));
    }
    for report in &replica.reports {
        if let Some(service) = &report.stats.service {
            if service.latency.count() != service.completed {
                errors.push(format!(
                    "{} latency samples for {} completed requests",
                    service.latency.count(),
                    service.completed
                ));
            }
            if service.completed > service.admitted {
                errors.push("more requests completed than admitted".to_string());
            }
        }
    }
    errors
}
