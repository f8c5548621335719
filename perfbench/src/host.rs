//! Host-side measurement helpers: the counting allocator, the memory
//! high-water mark, the host fingerprint and order statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A global allocator that counts allocations (and reallocations) and the
/// bytes they request, then forwards to the system allocator.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters have no effect on memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and requested bytes, as a running total or a difference of
/// two totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    pub count: u64,
    pub bytes: u64,
}

impl Allocs {
    /// The totals since process start.
    pub fn now() -> Self {
        Allocs {
            count: ALLOCATIONS.load(Relaxed),
            bytes: ALLOCATED_BYTES.load(Relaxed),
        }
    }

    /// The allocations made since `self` was taken.
    pub fn since(self) -> Self {
        let now = Allocs::now();
        Allocs {
            count: now.count - self.count,
            bytes: now.bytes - self.bytes,
        }
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The CPU model and the number of CPUs this process may use, e.g.
/// `"Intel(R) Xeon(R) Processor x2"`.  Timings are comparable only between
/// results with the same fingerprint.
pub fn fingerprint() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{model} x{cpus}")
}

/// The nearest-rank `q`-quantile of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The quantile every timing uses.  On shared virtual machines other
/// tenants slow this memory-bound simulator in phases of seconds, by up to
/// 2x on a 2-vCPU Xeon guest; a median tracks those phases rather than the
/// code.  The 5th percentile of repeated measurements tracks the
/// uncontended speed.
pub const FAST: f64 = 0.05;

/// The `FAST` quantile of `values` (sorted in place).
pub fn fast(values: &mut [f64]) -> f64 {
    quantile(values, FAST)
}

/// Each point's `FAST` quantile over passes, from `passes[pass][point]`.
pub fn per_point_fast(passes: &[impl AsRef<[f64]>]) -> Vec<f64> {
    let points = passes.first().map_or(0, |pass| pass.as_ref().len());
    (0..points)
        .map(|p| {
            fast(
                &mut passes
                    .iter()
                    .map(|pass| pass.as_ref()[p])
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}
