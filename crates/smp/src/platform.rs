//! The SMP platform implementation.

use misp_os::{OsEventKind, PlacementPolicy, SystemScheduler};
use misp_sim::{EngineCore, LogKind, Platform};
use misp_types::{Cycles, FxHashMap, OsThreadId, SequencerId};

/// A symmetric multiprocessor: every sequencer is an OS-visible core that
/// services its own privileged events.
///
/// Threads are scheduled per core with round-robin time slicing, exactly like
/// the MISP machine's OMS scheduling, so that multi-programming comparisons
/// (Figure 7) differ only in the architectural mechanism and not in OS policy.
#[derive(Debug)]
pub struct SmpPlatform {
    cores: usize,
    quantum_ticks: u64,
    scheduler: Option<SystemScheduler>,
    thread_ctx: FxHashMap<OsThreadId, misp_sim::SavedContext>,
    pinned: Vec<(OsThreadId, usize)>,
    auto_place: Vec<OsThreadId>,
}

impl SmpPlatform {
    /// Creates an SMP platform with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "an SMP machine needs at least one core");
        SmpPlatform {
            cores,
            quantum_ticks: 1,
            scheduler: None,
            thread_ctx: FxHashMap::default(),
            pinned: Vec::new(),
            auto_place: Vec::new(),
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Sets the OS scheduling quantum in timer ticks (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `ticks` is zero.
    pub fn set_quantum_ticks(&mut self, ticks: u64) {
        assert!(ticks > 0, "quantum must be at least one tick");
        self.quantum_ticks = ticks;
    }

    /// Pins `thread` to core `core_index`.
    ///
    /// # Panics
    ///
    /// Panics if `core_index` is out of range.
    pub fn pin_thread(&mut self, thread: OsThreadId, core_index: usize) {
        assert!(core_index < self.cores, "core index out of range");
        self.pinned.push((thread, core_index));
    }

    /// Places `thread` on the least-loaded core.
    pub fn place_thread(&mut self, thread: OsThreadId) {
        self.auto_place.push(thread);
    }

    fn install_thread(
        &mut self,
        core: &mut EngineCore,
        core_idx: usize,
        thread: OsThreadId,
        at: Cycles,
    ) {
        let seq = SequencerId::new(core_idx as u32);
        let pid = core
            .kernel()
            .thread(thread)
            .expect("placed thread must be spawned")
            .process();
        core.memory_mut().register_process(pid);
        core.memory_mut()
            .bind_sequencer(seq, pid)
            .expect("process is registered");
        core.sequencers_mut().set_bound_thread(seq, Some(thread));
        let ctx = self.thread_ctx.remove(&thread).unwrap_or_default();
        core.restore_context(seq, ctx, at);
        let _ = core
            .kernel_mut()
            .set_thread_state(thread, misp_os::ThreadState::Running);
    }
}

impl Platform for SmpPlatform {
    fn init(&mut self, core: &mut EngineCore) {
        // Impose the SMP clustering on the cache hierarchy: every core is its
        // own cluster, so cross-core sharing always crosses the coherence
        // fabric (unlike MISP, where sequencers of one processor share an L2).
        // (configure_caches is a no-op for a disabled cache config.)
        let cache_config = core.config().cache;
        let clusters: Vec<usize> = (0..self.cores).collect();
        core.memory_mut().configure_caches(cache_config, &clusters);

        let mut scheduler =
            SystemScheduler::new(self.cores, self.quantum_ticks, PlacementPolicy::LeastLoaded);
        for &(thread, core_idx) in &self.pinned {
            scheduler.place_on(thread, core_idx);
        }
        for &thread in &self.auto_place {
            scheduler.place(thread);
        }
        for core_idx in 0..self.cores {
            let dispatched = scheduler.cpu_mut(core_idx).dispatch();
            if let Some(thread) = dispatched {
                self.install_thread(core, core_idx, thread, Cycles::ZERO);
            }
            if scheduler.cpu(core_idx).load() > 0 || dispatched.is_some() {
                let first = core.config().timer.next_tick_after(Cycles::ZERO);
                if first != Cycles::MAX {
                    core.schedule_timer(SequencerId::new(core_idx as u32), first, 1);
                }
            }
        }
        self.scheduler = Some(scheduler);
    }

    fn on_priv_event(
        &mut self,
        core: &mut EngineCore,
        seq: SequencerId,
        kind: OsEventKind,
        now: Cycles,
    ) -> Cycles {
        // Every core handles its own faults; no other core is affected.
        core.stats_mut().record_event(seq, kind, true);
        core.kernel_mut().record_event(kind);
        core.log_event(seq, LogKind::RingEnter);
        // Privileged code displaces the servicing core's L1, exactly as the
        // MISP platform charges its OMS per privileged service — keeping
        // cache-enabled cross-machine comparisons unbiased.  (No-op while
        // the cache model is disabled.)
        core.memory_mut().flush_cache(seq);
        let service = core.kernel().service_cost(kind);
        core.log_event(seq, LogKind::RingExit);
        now + service
    }

    fn on_timer_tick(&mut self, core: &mut EngineCore, cpu: SequencerId, tick: u64, now: Cycles) {
        let core_idx = cpu.as_usize();
        core.log_event(cpu, LogKind::TimerTick);
        core.stats_mut().record_event(cpu, OsEventKind::Timer, true);
        core.kernel_mut().record_event(OsEventKind::Timer);
        let mut priv_time = core.kernel().service_cost(OsEventKind::Timer);
        if core.config().timer.is_other_interrupt_tick(tick) {
            core.stats_mut()
                .record_event(cpu, OsEventKind::OtherInterrupt, true);
            core.kernel_mut().record_event(OsEventKind::OtherInterrupt);
            priv_time += core.kernel().service_cost(OsEventKind::OtherInterrupt);
        }

        let switch = self
            .scheduler
            .as_mut()
            .expect("platform initialized")
            .cpu_mut(core_idx)
            .on_tick();

        if let Some((prev, next)) = switch {
            priv_time += core.kernel().context_switch_cost(0);
            core.stats_mut().context_switches += 1;
            core.log_event(cpu, LogKind::ContextSwitch);
            let ctx = core.save_context(cpu, now);
            // Cold-cache restart for the incoming thread (no-op while the
            // cache model is disabled).
            core.memory_mut().flush_cache(cpu);
            self.thread_ctx.insert(prev, ctx);
            let _ = core
                .kernel_mut()
                .set_thread_state(prev, misp_os::ThreadState::Ready);
            self.install_thread(core, core_idx, next, now + priv_time);
        } else {
            core.stall(cpu, now, now + priv_time);
        }

        let next_tick = core.config().timer.next_tick_after(now);
        if next_tick != Cycles::MAX {
            core.schedule_timer(cpu, next_tick, tick + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = SmpPlatform::new(0);
    }

    #[test]
    fn accessors() {
        let mut p = SmpPlatform::new(8);
        assert_eq!(p.cores(), 8);
        p.set_quantum_ticks(4);
        p.pin_thread(OsThreadId::new(0), 7);
        p.place_thread(OsThreadId::new(1));
    }

    #[test]
    #[should_panic(expected = "core index out of range")]
    fn pin_out_of_range_panics() {
        let mut p = SmpPlatform::new(2);
        p.pin_thread(OsThreadId::new(0), 2);
    }
}
