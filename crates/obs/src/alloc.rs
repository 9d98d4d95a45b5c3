//! Allocation accounting: a counting `#[global_allocator]` wrapper
//! around [`System`], plus a Linux `/proc/self/status` RSS sampler.
//!
//! Every crate that links `vaer-obs` (the whole workspace) routes heap
//! traffic through [`CountingAlloc`]. The wrapper obeys a strict
//! **hook ordering contract** (DESIGN.md §14):
//!
//! 1. It never takes a lock, touches the metric registry, or allocates —
//!    only relaxed atomic RMWs on private statics. Anything else could
//!    re-enter the allocator (deadlock or unbounded recursion).
//! 2. It never *resolves* the telemetry level: `init_level`
//!    reads `VAER_OBS` through `std::env::var`, which allocates, so the
//!    hook reads the raw level atomic and treats "unset" as off.
//!    Counting therefore starts at the first non-allocator probe (or
//!    [`crate::set_level`] call) that resolves the level.
//! 3. When the level is off (or unresolved) the hook is a passthrough:
//!    one relaxed load, one predictable branch, no other work. The micro
//!    bench enforces this costs ≤ 2% over calling [`System`] directly.
//!
//! Counter semantics: `allocs`/`bytes` are monotonic totals of
//! successful allocations (a `realloc` counts as one allocation of the
//! new size); `current` tracks live bytes and `heap_peak` its high-water
//! mark. Because counting can toggle mid-run, frees of blocks allocated
//! while counting was off can transiently exceed allocations; `current`
//! is clamped at zero on read instead of underflowing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CURRENT: AtomicI64 = AtomicI64::new(0);
static HEAP_PEAK: AtomicI64 = AtomicI64::new(0);

/// Counting allocator wrapper, installed as the workspace-wide
/// `#[global_allocator]` by this crate.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[inline]
fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let now = CURRENT.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    HEAP_PEAK.fetch_max(now, Ordering::Relaxed);
}

#[inline]
fn note_free(size: usize) {
    FREES.fetch_add(1, Ordering::Relaxed);
    CURRENT.fetch_sub(size as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards the caller's layout verbatim to
// `System`, which upholds the `GlobalAlloc` contract; the bookkeeping
// added around the forwarded calls performs only relaxed atomic RMWs on
// plain counters (no allocation, no locks, no reentry — the hook
// ordering contract documented on this module).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `alloc`'s contract; forwarded to `System`.
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && crate::counting_enabled() {
            note_alloc(layout.size());
        }
        p
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with
    // `layout`; forwarded to `System` unchanged.
    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if crate::counting_enabled() {
            note_free(layout.size());
        }
        System.dealloc(ptr, layout);
    }

    // SAFETY: caller upholds `alloc_zeroed`'s contract; forwarded to
    // `System`.
    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && crate::counting_enabled() {
            note_alloc(layout.size());
        }
        p
    }

    // SAFETY: caller guarantees `ptr`/`layout` describe a live block from
    // this allocator; forwarded to `System` unchanged. On success the
    // bookkeeping treats the move as one allocation of the new size whose
    // live-byte delta is `new_size - old_size`.
    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && crate::counting_enabled() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            let delta = new_size as i64 - layout.size() as i64;
            let now = CURRENT.fetch_add(delta, Ordering::Relaxed) + delta;
            HEAP_PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }
}

/// Point-in-time allocator counters (all zero until counting is enabled
/// by a `summary`/`trace` telemetry level).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful allocations (including reallocs) since process start.
    pub allocs: u64,
    /// Deallocations since process start.
    pub frees: u64,
    /// Total bytes handed out across all allocations (monotonic).
    pub bytes: u64,
    /// Live heap bytes right now (clamped at zero).
    pub current: u64,
    /// High-water mark of `current`.
    pub heap_peak: u64,
}

/// Snapshot of the allocator counters. Two relaxed loads per field —
/// safe to call from hot paths (span creation does).
#[inline]
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        current: CURRENT.load(Ordering::Relaxed).max(0) as u64,
        heap_peak: HEAP_PEAK.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// Peak resident set size (`VmHWM`) in bytes, from `/proc/self/status`.
/// Returns 0 when the information is unavailable (non-Linux, or a
/// restricted `/proc`). The read allocates a transient buffer, so span
/// accounting samples RSS *after* computing its allocation deltas.
pub fn rss_peak_bytes() -> u64 {
    read_status_kb("VmHWM:").map_or(0, |kb| kb * 1024)
}

/// Current resident set size (`VmRSS`) in bytes; 0 when unavailable.
pub fn rss_current_bytes() -> u64 {
    read_status_kb("VmRSS:").map_or(0, |kb| kb * 1024)
}

#[cfg(target_os = "linux")]
fn read_status_kb(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            // Format: "VmHWM:	   12345 kB".
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

#[cfg(not(target_os = "linux"))]
fn read_status_kb(_key: &str) -> Option<u64> {
    None
}

/// Publishes the allocator totals and RSS readings as `mem.*` gauges
/// (no-op while telemetry is off). [`crate::ObsSink::snapshot`] calls
/// this so every snapshot carries the memory picture at freeze time.
pub fn publish_gauges() {
    if !crate::enabled() {
        return;
    }
    let s = stats();
    crate::gauge("mem.allocs").set(s.allocs as f64);
    crate::gauge("mem.bytes").set(s.bytes as f64);
    crate::gauge("mem.heap.current").set(s.current as f64);
    crate::gauge("mem.heap.peak").set(s.heap_peak as f64);
    crate::gauge("mem.rss.current").set(rss_current_bytes() as f64);
    crate::gauge("mem.rss.peak").set(rss_peak_bytes() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counting is toggled by the crate-level smoke test (the single
    // level-mutating test); here we only exercise the always-available
    // surfaces.
    #[test]
    fn stats_are_monotone_and_clamped() {
        let a = stats();
        let b = stats();
        assert!(b.allocs >= a.allocs);
        assert!(b.bytes >= a.bytes);
        // Clamped reads can never underflow past zero.
        assert!(b.current <= b.bytes.max(1) || b.bytes == 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_sampler_reads_proc() {
        assert!(rss_current_bytes() > 0, "VmRSS should be readable");
        assert!(rss_peak_bytes() >= rss_current_bytes() / 2);
    }
}
