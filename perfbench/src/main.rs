//! Benchmark driver of the MISP simulator.
//!
//! ```text
//! perfbench --workload <figures|cache|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the named workload's experiment grids through the harness's public
//! API (`grids::by_name`, `execute_run`) on one thread.  After one set-up
//! (grid construction, loading the goldens, one untimed warm-up pass), whole
//! passes over the grid points are timed until `--seconds` have elapsed,
//! with further set-ups spread evenly among them.  Every record is checked
//! against the committed goldens (or, for points without one, against the
//! first warm-up and the conservation laws), outside the timed region.
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` it carries the per-layer account
//! instead, and the spans are written to `perfbench/out/`.  See
//! `perfbench/README.md` for the metrics and the workloads.

// Host time is what this program measures, so the wall clock the
// workspace's clippy policy bans from simulation code is its instrument.
#![allow(clippy::disallowed_methods)]

mod counts;
mod host;
mod plan;
mod replay;
mod spans;

use host::quantile;
use misp_harness::{execute_run, execute_run_with_artifacts, RunKind, RunRecord};
use plan::Plan;
use spans::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: host::CountingAllocator = host::CountingAllocator;

/// Set-ups per run, spread evenly over it: at least `MIN_SETUPS`, and
/// enough to fill `SETUP_SHARE` of `--seconds` at the first set-up's pace.
/// A set-up lasts well under a second, so set-ups made back to back would
/// all see the same moment of host contention.  `setup_s` sums the parts of
/// a set-up, each at its `host::FAST` quantile over the set-ups, like every
/// other timing.  The median set-up tracks the host's contention and moved
/// by half between two sets of runs taken twenty minutes apart; the fastest
/// whole set-up still moved by a third, since it needs the host fast for
/// the whole set-up at once.
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 100;
const SETUP_SHARE: f64 = 0.2;
/// Timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Where the span sidecars and the recorded counts go.
const OUT_DIR: &str = "perfbench/out";

const USAGE: &str =
    "usage: perfbench --workload <figures|cache|service> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag.clone(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Points attempted and points that failed (returned `Err` or differ from
/// their reference).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// One pass: each point's host seconds in `execute_run` and its outcome,
/// plus, in a pass with spans, each point's host seconds in the outside
/// rebuild and in serializing the record.
struct Pass {
    point_s: Vec<f64>,
    build_s: Vec<f64>,
    serialize_s: Vec<f64>,
    records: Vec<Option<RunRecord>>,
}

/// Runs every point once through `execute_run`.  With a tracer, each point
/// also gets the benchmark's own spans: the harness call, the outside
/// rebuild of the point's programs (`workloads.build`, after the call so the
/// call sees the same cache state as in a pass without spans), and
/// serializing the record.
fn run_pass(plan: &Plan, mut tracer: Option<&mut Tracer>) -> Pass {
    let n = plan.points.len();
    let mut pass = Pass {
        point_s: Vec::with_capacity(n),
        build_s: Vec::with_capacity(n),
        serialize_s: Vec::with_capacity(n),
        records: Vec::with_capacity(n),
    };
    for p in 0..n {
        let (_, index) = plan.points[p];
        let spec = plan.spec(p);
        let outcome = match tracer.as_deref_mut() {
            None => {
                let start = Instant::now();
                let outcome = execute_run(index, spec);
                pass.point_s.push(start.elapsed().as_secs_f64());
                outcome
            }
            Some(t) => {
                let point = t.begin("harness.point", None, Some(p));
                let id = t.begin("harness.execute_run", Some(point), Some(p));
                let outcome = execute_run(index, spec);
                pass.point_s.push(t.end(id));
                let mut build_s = 0.0;
                if plan::sim_spec(spec).is_some() {
                    let id = t.begin("workloads.build", Some(point), Some(p));
                    drop(std::hint::black_box(plan::build(spec)));
                    build_s = t.end(id);
                }
                pass.build_s.push(build_s);
                let mut serialize_s = 0.0;
                if let Ok(record) = &outcome {
                    let id = t.begin("harness.serialize", Some(point), Some(p));
                    drop(std::hint::black_box(serde_json::to_string(record)));
                    serialize_s = t.end(id);
                }
                pass.serialize_s.push(serialize_s);
                t.end(point);
                outcome
            }
        };
        pass.records.push(match outcome {
            Ok(record) => Some(record),
            Err(e) => {
                eprintln!("point {}: {e}", spec.id);
                None
            }
        });
    }
    plan.resolve_baselines(&mut pass.records);
    pass
}

/// Checks a warm-up pass against the goldens and the previous warm-up, and
/// returns each point's accepted record (`None` once a point failed).
fn accept_warm_up(
    plan: &Plan,
    pass: Pass,
    goldens: &[Option<BTreeMap<String, String>>],
    previous: Option<&[Option<RunRecord>]>,
    tally: &mut Tally,
) -> Vec<Option<RunRecord>> {
    let mut accepted = Vec::with_capacity(pass.records.len());
    for (p, record) in pass.records.into_iter().enumerate() {
        tally.attempted += 1;
        let spec = plan.spec(p);
        let golden = goldens[plan.points[p].0].as_ref().map(|g| g.get(&spec.id));
        let previous = previous.map(|prev| &prev[p]);
        let problem = match (&record, golden, previous) {
            (None, _, _) => Some("no record"),
            (_, _, Some(None)) => Some("failed in an earlier set-up"),
            (Some(_), Some(None), _) => Some("no golden record with this id"),
            (Some(r), Some(Some(g)), _) if plan::canonical(r) != *g => {
                Some("record differs from its golden")
            }
            (Some(r), _, Some(Some(prev))) if r != prev => {
                Some("record differs from the first set-up's")
            }
            _ => None,
        };
        if let Some(problem) = problem {
            eprintln!("point {}: {problem}", spec.id);
            tally.failed += 1;
            accepted.push(None);
        } else {
            accepted.push(record);
        }
    }
    accepted
}

/// The set-ups of a run: each builds the grids, loads the goldens and runs
/// one untimed warm-up pass, whose records are checked afterwards.
#[derive(Default)]
struct Setups {
    /// Each set-up's seconds building the grids and loading the goldens,
    /// and each point's seconds in its warm-up pass.
    grid_build_s: Vec<f64>,
    goldens_s: Vec<f64>,
    warm_up_s: Vec<Vec<f64>>,
    golden_grids: usize,
    /// How many set-ups the run makes, fixed by the first.
    target: usize,
}

impl Setups {
    /// Sets up once; returns the plan and its accepted records.  `previous`
    /// holds the first set-up's records, which later ones must reproduce.
    fn run(
        &mut self,
        args: &Args,
        previous: Option<&[Option<RunRecord>]>,
        tally: &mut Tally,
    ) -> Result<(Plan, Vec<Option<RunRecord>>), String> {
        let start = Instant::now();
        let plan = Plan::new(&args.workload, args.seed)
            .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
        self.grid_build_s.push(start.elapsed().as_secs_f64());
        let loading = Instant::now();
        let goldens = plan::load_goldens(&plan)?;
        self.goldens_s.push(loading.elapsed().as_secs_f64());
        self.golden_grids = goldens.iter().filter(|g| g.is_some()).count();
        let mut warm_up = run_pass(&plan, None);
        self.warm_up_s.push(std::mem::take(&mut warm_up.point_s));
        if self.target == 0 {
            let fit = (SETUP_SHARE * args.seconds / start.elapsed().as_secs_f64()) as usize;
            self.target = fit.clamp(MIN_SETUPS, MAX_SETUPS);
        }
        let expected = accept_warm_up(&plan, warm_up, &goldens, previous, tally);
        Ok((plan, expected))
    }

    fn count(&self) -> usize {
        self.warm_up_s.len()
    }

    /// The set-up time: its parts, each at its `host::FAST` quantile.
    fn setup_s(&mut self) -> f64 {
        let warm_up: f64 = host::per_point_fast(&self.warm_up_s).iter().sum();
        host::fast(&mut self.grid_build_s) + host::fast(&mut self.goldens_s) + warm_up
    }

    /// Runs the next set-up if it is due `elapsed` seconds into the timed
    /// loop (or, once the loop is over, every one still missing).
    fn run_if_due(
        &mut self,
        args: &Args,
        elapsed: Option<f64>,
        expected: &[Option<RunRecord>],
        tally: &mut Tally,
    ) -> Result<bool, String> {
        let (done, target) = (self.count(), self.target);
        let due = done < target
            && elapsed.is_none_or(|t| t >= args.seconds * done as f64 / target as f64);
        if due {
            self.run(args, Some(expected), tally)?;
        }
        Ok(due)
    }
}

/// Runs one pass and checks every record against `expected`.  The records
/// are dropped, so memory use does not grow with the number of passes.
fn checked_pass(
    plan: &Plan,
    expected: &[Option<RunRecord>],
    tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Pass {
    let mut pass = run_pass(plan, tracer);
    for (record, expected) in pass.records.iter().zip(expected) {
        tally.attempted += 1;
        if record.is_none() || record != expected {
            tally.failed += 1;
        }
    }
    pass.records = Vec::new();
    pass
}

/// One pass with the simulator's trace ring on, each point through
/// `execute_run_with_artifacts` and its ring exported as Chrome trace JSON.
/// Each record must match `expected` in cycles and event-log digest.
struct RingPass {
    point_s: Vec<f64>,
    export_s: Vec<f64>,
    events: u64,
}

fn ring_pass(
    plan: &Plan,
    expected: &[Option<RunRecord>],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> RingPass {
    let n = plan.points.len();
    let mut pass = RingPass {
        point_s: Vec::with_capacity(n),
        export_s: Vec::with_capacity(n),
        events: 0,
    };
    for (p, expected) in expected.iter().enumerate() {
        let mut spec = plan.spec(p).clone();
        if let RunKind::Sim(sim) = &mut spec.kind {
            sim.trace = true;
        }
        let id = tracer.begin("trace.record", None, Some(p));
        let outcome = execute_run_with_artifacts(plan.points[p].1, &spec);
        pass.point_s.push(tracer.end(id));
        tally.attempted += 1;
        let identity = |r: &RunRecord| {
            r.sim
                .as_ref()
                .map(|s| (s.total_cycles, s.log_digest.clone()))
        };
        let (record, artifacts) = match outcome {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("traced point {}: {e}", spec.id);
                tally.failed += 1;
                pass.export_s.push(0.0);
                continue;
            }
        };
        if expected.as_ref().map(identity) != Some(identity(&record)) {
            eprintln!(
                "traced point {}: record differs from the untraced one",
                spec.id
            );
            tally.failed += 1;
        }
        let mut export_s = 0.0;
        if let Some(ring) = artifacts.trace {
            pass.events += ring.events.len() as u64;
            let id = tracer.begin("trace.export", None, Some(p));
            std::hint::black_box(misp_sim::chrome_trace_json(&ring.events));
            export_s = tracer.end(id);
        }
        pass.export_s.push(export_s);
    }
    pass
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run(args: &Args) -> Result<(), String> {
    let host = host::fingerprint();
    let mut tally = Tally::default();
    let mut setups = Setups::default();
    let (plan, expected) = setups.run(args, None, &mut tally)?;

    let mut notes = vec![format!("host: {host}")];
    let metrics = if args.trace {
        layer_account(
            args,
            &plan,
            &expected,
            &host,
            &mut setups,
            &mut tally,
            &mut notes,
        )?
    } else {
        end_to_end(args, &plan, &expected, &mut setups, &mut tally, &mut notes)?
    };
    notes.insert(
        1,
        format!(
            "workload {} seed {}: {} points per pass in {} grids, {} of them checked against goldens",
            args.workload,
            args.seed,
            plan.points.len(),
            plan.grids.len(),
            setups.golden_grids,
        ),
    );

    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    notes.push(format!(
        "failed_frac {failed_frac} ({} of {} points attempted)",
        tally.failed, tally.attempted
    ));
    for note in &notes {
        println!("{note}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
    Ok(())
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, every value printed with all
/// its digits.
fn metrics_json(metrics: &Metrics) -> String {
    let mut json = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push('}');
    json
}

/// Runs the counting pass, folds its checks into `tally`, prints every
/// count, and fails the run if an earlier run of this build and seed
/// counted differently.
fn exact_counts(
    args: &Args,
    plan: &Plan,
    expected: &[Option<RunRecord>],
    keep_built: bool,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> counts::CountPass {
    let pass = counts::count_pass(plan, expected, keep_built);
    tally.attempted += pass.attempted;
    tally.failed += pass.failed;
    let line: Vec<String> = pass
        .counts
        .named()
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    notes.push(format!("exact counts per pass: {}", line.join(" ")));
    let drift = counts::compare_with_earlier_run(
        Path::new(OUT_DIR),
        &args.workload,
        args.seed,
        &pass.counts,
    );
    for d in &drift {
        eprintln!("count drift: {d}");
    }
    tally.attempted += 1;
    tally.failed += u64::from(!drift.is_empty());
    pass
}

fn end_to_end(
    args: &Args,
    plan: &Plan,
    expected: &[Option<RunRecord>],
    setups: &mut Setups,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Result<Metrics, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let elapsed = Some(start.elapsed().as_secs_f64());
        if !setups.run_if_due(args, elapsed, expected, tally)? {
            passes.push(checked_pass(plan, expected, None, tally).point_s);
        }
    }
    while setups.run_if_due(args, None, expected, tally)? {}
    let counts = exact_counts(args, plan, expected, false, tally, notes).counts;
    let mut point_s = host::per_point_fast(&passes);
    let pass_s: f64 = point_s.iter().sum();
    notes.push(format!(
        "{} timed passes; each point's time is its {}th percentile over them; \
         point percentiles over {} points; {} set-ups",
        passes.len(),
        host::FAST * 100.0,
        point_s.len(),
        setups.count()
    ));
    Ok(vec![
        ("pass_s", pass_s, "s"),
        ("sim_ops_per_s", counts.ops_retired as f64 / pass_s, "1/s"),
        ("point_ms_p50", quantile(&mut point_s, 0.50) * 1e3, "ms"),
        ("point_ms_p99", quantile(&mut point_s, 0.99) * 1e3, "ms"),
        ("setup_s", setups.setup_s(), "s"),
        ("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MB"),
    ])
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn layer_account(
    args: &Args,
    plan: &Plan,
    expected: &[Option<RunRecord>],
    host: &str,
    setups: &mut Setups,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Result<Metrics, String> {
    // Passes without any tracing, passes with the benchmark's spans, and
    // passes with the simulator's trace ring on, in turn, so drift in the
    // host's speed affects all three alike.
    let mut tracer = Tracer::new();
    let (mut untraced, mut spanned, mut ringed) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while spanned.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let elapsed = Some(start.elapsed().as_secs_f64());
        if !setups.run_if_due(args, elapsed, expected, tally)? {
            untraced.push(checked_pass(plan, expected, None, tally).point_s);
            spanned.push(checked_pass(plan, expected, Some(&mut tracer), tally));
            ringed.push(ring_pass(plan, expected, &mut tracer, tally));
        }
    }
    while setups.run_if_due(args, None, expected, tally)? {}
    let total = |passes: &[&Vec<f64>]| host::per_point_fast(passes).iter().sum::<f64>();
    let execute_s = total(&spanned.iter().map(|p| &p.point_s).collect::<Vec<_>>());
    let build_s = total(&spanned.iter().map(|p| &p.build_s).collect::<Vec<_>>());
    let serialize_s = total(&spanned.iter().map(|p| &p.serialize_s).collect::<Vec<_>>());
    let run_s = execute_s - build_s;
    let ring_s = total(&ringed.iter().map(|p| &p.point_s).collect::<Vec<_>>());
    let export_s = total(&ringed.iter().map(|p| &p.export_s).collect::<Vec<_>>());
    let trace_events = ringed.first().map_or(0, |p| p.events);
    let overhead_ratio = ring_s / total(&untraced.iter().collect::<Vec<_>>());

    let count_pass = exact_counts(args, plan, expected, true, tally, notes);
    let c = &count_pass.counts;
    let built = &count_pass.built;

    // Unit costs, each replay in its own workload-level span.
    let queue_ns = tracer.span("replay.sim.queue", None, None, || replay::queue(c));
    let mailbox_ns = tracer.span("replay.sim.mailbox", None, None, || replay::mailbox(built));
    let cursor_ns = tracer.span("replay.isa.cursor", None, None, || replay::cursor(built));
    let accesses = replay::access_streams(plan, built);
    let mem_ns = tracer.span("replay.mem.access", None, None, || replay::mem(&accesses));
    let cache_ns = tracer.span("replay.cache.access", None, None, || {
        replay::cache(&accesses)
    });
    let signal_ns = tracer.span("replay.core.signal", None, None, || {
        replay::signal(&count_pass.signal_streams)
    });
    let runtime = &count_pass.runtime_streams;
    let sync_ns = tracer.span("replay.shredlib.sync", None, None, || replay::sync(runtime));
    let work_ns = tracer.span("replay.shredlib.queue", None, None, || {
        replay::work_queue(runtime)
    });

    let s = |ns: f64, count: u64| ns * 1e-9 * count as f64;
    let mailbox_s = s(mailbox_ns, c.mailbox_posts);
    let isa_s = s(cursor_ns, c.ops_retired);
    let mem_s = s(mem_ns, c.tlb_lookups);
    let cache_s = s(cache_ns, c.cache_accesses);
    let core_s = s(signal_ns, c.fabric_sends);
    let shredlib_s = s(sync_ns, c.sync_ops) + s(work_ns, c.queue_ops);
    // The mailbox's modeled time prices traffic the fleet runs never post
    // (they pre-partition the stream), so it is not part of `sim.run_s`.
    let residual_s = run_s - (isa_s + mem_s + cache_s + core_s + shredlib_s);

    let metrics: Metrics = vec![
        (
            "harness.grid_build_s",
            host::fast(&mut setups.grid_build_s),
            "s",
        ),
        ("harness.serialize_s", serialize_s, "s"),
        ("harness.serialize_bytes", c.serialize_bytes as f64, "bytes"),
        ("workloads.build_s", build_s, "s"),
        ("workloads.build_allocs", c.build_allocs as f64, "count"),
        ("sim.run_s", run_s, "s"),
        ("sim.ops_retired", c.ops_retired as f64, "count"),
        ("sim.events_pushed", c.events_pushed as f64, "count"),
        ("sim.events_popped", c.events_popped as f64, "count"),
        ("sim.supersessions", c.supersessions as f64, "count"),
        ("sim.redistributions", c.redistributions as f64, "count"),
        ("sim.queue_max_len", c.queue_max_len as f64, "count"),
        (
            "sim.ops_per_pop",
            ratio(c.ops_retired, c.events_popped),
            "ratio",
        ),
        ("sim.queue.ns_per_op", queue_ns, "ns"),
        ("sim.mailbox.posts", c.mailbox_posts as f64, "count"),
        ("sim.mailbox.ns_per_op", mailbox_ns, "ns"),
        ("sim.mailbox.modeled_s", mailbox_s, "s"),
        ("sim.residual_s", residual_s, "s"),
        ("isa.cursor.ns_per_op", cursor_ns, "ns"),
        ("isa.modeled_s", isa_s, "s"),
        ("mem.tlb_lookups", c.tlb_lookups as f64, "count"),
        (
            "mem.tlb_miss_ratio",
            ratio(c.tlb_misses, c.tlb_lookups),
            "ratio",
        ),
        ("mem.tlb_flushes", c.tlb_flushes as f64, "count"),
        ("mem.access.ns_per_op", mem_ns, "ns"),
        ("mem.modeled_s", mem_s, "s"),
        ("cache.accesses", c.cache_accesses as f64, "count"),
        (
            "cache.miss_ratio",
            ratio(c.cache_misses, c.cache_accesses),
            "ratio",
        ),
        ("cache.coherence_misses", c.coherence_misses as f64, "count"),
        ("cache.access.ns_per_op", cache_ns, "ns"),
        ("cache.modeled_s", cache_s, "s"),
        ("core.proxy_executions", c.proxy_executions as f64, "count"),
        ("core.serializations", c.serializations as f64, "count"),
        ("core.signals_sent", c.signals_sent as f64, "count"),
        ("core.fabric_sends", c.fabric_sends as f64, "count"),
        ("core.signal.ns_per_op", signal_ns, "ns"),
        ("core.modeled_s", core_s, "s"),
        ("os.context_switches", c.context_switches as f64, "count"),
        (
            "os.serializing_events",
            c.serializing_events as f64,
            "count",
        ),
        ("shredlib.sync_ops", c.sync_ops as f64, "count"),
        ("shredlib.sync.ns_per_op", sync_ns, "ns"),
        ("shredlib.queue_ops", c.queue_ops as f64, "count"),
        ("shredlib.queue.ns_per_op", work_ns, "ns"),
        ("shredlib.modeled_s", shredlib_s, "s"),
        ("shredlib.service.admitted", c.admitted as f64, "count"),
        ("shredlib.service.completed", c.completed as f64, "count"),
        ("shredlib.service.dropped", c.dropped as f64, "count"),
        ("trace.events", trace_events as f64, "count"),
        ("trace.export_s", export_s, "s"),
        ("trace.overhead_ratio", overhead_ratio, "ratio"),
        ("alloc.count", c.alloc_count as f64, "count"),
        ("alloc.bytes", c.alloc_bytes as f64, "bytes"),
    ];
    notes.push(format!(
        "{} passes each without tracing, with spans and with the trace ring; \
         layer times sum each point's {}th percentile over its passes",
        untraced.len(),
        host::FAST * 100.0
    ));

    let path = Path::new(OUT_DIR).join(format!("{}-seed{}-spans.json", args.workload, args.seed));
    let doc = format!(
        "{{\"host\": {}, \"workload\": \"{}\", \"seed\": {}, \"metrics\": {}, \"spans\": {}}}\n",
        serde_json::to_string(host).expect("strings serialize"),
        args.workload,
        args.seed,
        metrics_json(&metrics),
        tracer.to_json(|p| plan.spec(p).id.clone())
    );
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!("spans written to {}", path.display()));
    Ok(metrics)
}
