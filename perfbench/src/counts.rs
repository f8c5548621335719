//! Exact work counters: one untimed pass over the workload's points that
//! rebuilds and reruns each point outside the harness, checks the
//! conservation laws, and sums the deterministic counts the public reports
//! expose.  Two runs of the same build and seed must agree on every count.

use crate::host::Allocs;
use crate::plan::{self, Built, Plan};
use crate::replay::{self, RuntimeStream};
use misp_core::{SignalFabric, SignalRecord};
use misp_harness::RunRecord;
use std::path::Path;

macro_rules! counters {
    ($($field:ident => $name:literal),* $(,)?) => {
        /// Per-pass sums of every exact counter (`queue_max_len` is a
        /// maximum).
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct Counts {
            $(pub $field: u64,)*
        }

        impl Counts {
            /// Every counter with its metric name.
            pub fn named(&self) -> Vec<(&'static str, u64)> {
                vec![$(($name, self.$field)),*]
            }
        }
    };
}

counters! {
    ops_retired => "sim.ops_retired",
    events_pushed => "sim.events_pushed",
    events_popped => "sim.events_popped",
    supersessions => "sim.supersessions",
    redistributions => "sim.redistributions",
    queue_max_len => "sim.queue_max_len",
    mailbox_posts => "sim.mailbox.posts",
    tlb_lookups => "mem.tlb_lookups",
    tlb_misses => "mem.tlb_misses",
    tlb_flushes => "mem.tlb_flushes",
    cache_accesses => "cache.accesses",
    cache_misses => "cache.misses",
    coherence_misses => "cache.coherence_misses",
    proxy_executions => "core.proxy_executions",
    serializations => "core.serializations",
    signals_sent => "core.signals_sent",
    fabric_sends => "core.fabric_sends",
    context_switches => "os.context_switches",
    serializing_events => "os.serializing_events",
    sync_ops => "shredlib.sync_ops",
    queue_ops => "shredlib.queue_ops",
    admitted => "shredlib.service.admitted",
    completed => "shredlib.service.completed",
    dropped => "shredlib.service.dropped",
    build_allocs => "workloads.build_allocs",
    alloc_count => "alloc.count",
    alloc_bytes => "alloc.bytes",
    serialize_bytes => "harness.serialize_bytes",
}

/// The outcome of the counting pass.
pub struct CountPass {
    pub counts: Counts,
    /// Points checked and points that failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// Each point's rebuilt programs, kept for the layer replays when asked.
    pub built: Vec<(usize, Built)>,
    /// Each runtime's `SyncTable` and `WorkQueue` calls, kept when asked.
    pub runtime_streams: Vec<RuntimeStream>,
    /// Each MISP machine's opening signals, recorded when asked.
    pub signal_streams: Vec<Vec<SignalRecord>>,
}

/// Runs the counting pass.  `expected[p]` is point `p`'s accepted record
/// (`None` when it already failed); `keep_streams` retains the rebuilt
/// programs and the runtime streams for the replays, and reruns each MISP
/// point with fine logging on to record its signals.
pub fn count_pass(plan: &Plan, expected: &[Option<RunRecord>], keep_streams: bool) -> CountPass {
    let mut c = Counts::default();
    let mut pass = CountPass {
        counts: Counts::default(),
        attempted: 0,
        failed: 0,
        built: Vec::new(),
        runtime_streams: Vec::new(),
        signal_streams: Vec::new(),
    };
    for (p, expected) in expected.iter().enumerate() {
        let spec = plan.spec(p);
        if plan::sim_spec(spec).is_none() {
            continue;
        }
        pass.attempted += 1;
        let Some(record) = expected else {
            pass.failed += 1;
            continue;
        };
        let before = Allocs::now();
        let built = plan::build(spec);
        c.build_allocs += before.since().count;
        let before = Allocs::now();
        let replica = plan::run_replica(spec, false);
        let allocs = before.since();
        let (built, replica) = match (built, replica) {
            (Ok(b), Ok(r)) => (b, r),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("point {}: {e}", spec.id);
                pass.failed += 1;
                continue;
            }
        };
        let mut errors = plan::conservation_errors(spec, record, &built, &replica);

        c.alloc_count += allocs.count;
        c.alloc_bytes += allocs.bytes;
        c.serialize_bytes += serde_json::to_string(record).map_or(0, |s| s.len() as u64);
        for report in &replica.reports {
            let s = &report.stats;
            let q = &report.queue;
            c.ops_retired += s.per_sequencer.iter().map(|u| u.ops).sum::<u64>();
            c.events_pushed += q.pushes;
            c.events_popped += q.pops;
            c.supersessions += q.supersessions;
            c.redistributions += q.redistributions;
            c.queue_max_len = c.queue_max_len.max(q.max_len);
            c.tlb_lookups += s.tlb.hits + s.tlb.misses;
            c.tlb_misses += s.tlb.misses;
            c.tlb_flushes += s.tlb.flushes;
            if let Some(cache) = &s.cache {
                c.cache_accesses += cache.accesses();
                c.cache_misses += cache.total_misses();
                c.coherence_misses += cache.coherence_misses;
            }
            c.proxy_executions += s.proxy_executions;
            c.serializations += s.serializations;
            c.signals_sent += s.signals_sent;
            c.context_switches += s.context_switches;
            c.serializing_events += s.total_serializing_events();
            if let Some(service) = &s.service {
                c.admitted += service.admitted;
                c.completed += service.completed;
                c.dropped += service.dropped;
            }
        }
        c.fabric_sends += replica.fabrics.iter().map(SignalFabric::total).sum::<u64>();
        if let Some(streams) = &built.fleet {
            c.mailbox_posts += streams.assignments.len() as u64;
        }
        for (library, scheduler) in built.libraries.iter().zip(&built.schedulers) {
            match replay::runtime_stream(library, scheduler.policy()) {
                Ok(stream) => {
                    c.sync_ops += stream.sync.len() as u64;
                    c.queue_ops += stream.queue.len() as u64;
                    if keep_streams {
                        pass.runtime_streams.push(stream);
                    }
                }
                Err(e) => errors.push(e),
            }
        }
        if keep_streams && replica.fabrics.iter().any(|f| f.total() > 0) {
            match plan::run_replica(spec, true) {
                Ok(logged) => {
                    // The same share of the replay for every point.
                    let keep = replay::MAX_OPS as usize / plan.points.len() / logged.fabrics.len();
                    pass.signal_streams.extend(logged.fabrics.iter().map(|f| {
                        let history = f.history();
                        history[..history.len().min(keep.max(1))].to_vec()
                    }));
                }
                Err(e) => errors.push(e),
            }
        }
        for e in &errors {
            eprintln!("point {}: {e}", spec.id);
        }
        pass.failed += u64::from(!errors.is_empty());
        if keep_streams {
            pass.built.push((p, built));
        }
    }
    pass.counts = c;
    pass
}

/// Compares `counts` with the counts an earlier run of the same benchmark
/// build, workload and seed left in `dir`, or records them there when no
/// such run exists.  Returns the counters that disagree.
pub fn compare_with_earlier_run(
    dir: &Path,
    workload: &str,
    seed: u64,
    counts: &Counts,
) -> Vec<String> {
    let build = build_digest();
    let path = dir.join(format!("counts-{workload}-{seed}-{build:016x}.txt"));
    let text: String = counts
        .named()
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(earlier) => earlier
            .lines()
            .zip(text.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("earlier run: {a}, this run: {b}"))
            .chain(
                (earlier.lines().count() != text.lines().count())
                    .then(|| "earlier run recorded a different set of counters".to_string()),
            )
            .collect(),
        Err(_) => {
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text))
            {
                eprintln!(
                    "warning: could not record counts in {}: {e}",
                    path.display()
                );
            }
            Vec::new()
        }
    }
}

/// FNV-1a digest of the running executable: runs of the same build share
/// it, so counts are only compared between runs of identical code.
fn build_digest() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h = misp_types::Fnv64::new();
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.write_u64(u64::from_le_bytes(word));
    }
    h.finish()
}
