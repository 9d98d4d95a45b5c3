//! Telemetry hooks for the matmul kernels and the worker pool.
//!
//! All handles are registered once through a `OnceLock`, so the hot-path
//! cost is: one relaxed load when telemetry is off (`matmul_start`
//! returns `None` without reading the clock), and a few relaxed counter
//! RMWs per *matrix product* (never per element) when it is on.
//!
//! Counter naming follows the `<prefix>.flops` / `<prefix>.nanos`
//! convention that `vaer_obs::ObsSink::derived_gflops` turns into
//! per-kernel, per-shape-class GFLOP/s at export time.

use std::sync::OnceLock;
use std::time::Instant;
use vaer_obs::{counter, gauge, Counter};

/// Kernel ids for [`matmul_finish`].
pub(crate) const MATMUL: usize = 0;
pub(crate) const MATMUL_T: usize = 1;
pub(crate) const T_MATMUL: usize = 2;

const KERNEL_NAMES: [&str; 3] = ["matmul", "matmul_t", "t_matmul"];

/// Shape classes by multiply-add count: `tiny` < 2^13 ≤ `small` < 2^17
/// ≤ `medium` < 2^22 ≤ `large`. The edges are fixed so the per-class
/// series compare across commits; whether a product ran parallel is
/// counted by the dispatch counters, not by its class.
const CLASS_NAMES: [&str; 4] = ["tiny", "small", "medium", "large"];

/// Buckets a product's multiply-add count (`m * k * n`) into a class.
pub(crate) fn shape_class(madds: usize) -> usize {
    if madds < 1 << 13 {
        0
    } else if madds < 1 << 17 {
        1
    } else if madds < 1 << 22 {
        2
    } else {
        3
    }
}

struct KernelCell {
    calls: [Counter; CLASS_NAMES.len()],
    flops: [Counter; CLASS_NAMES.len()],
    nanos: [Counter; CLASS_NAMES.len()],
}

struct MatmulObs {
    kernels: [KernelCell; KERNEL_NAMES.len()],
    dispatch_parallel: Counter,
    dispatch_serial: Counter,
}

static MATMUL_OBS: OnceLock<MatmulObs> = OnceLock::new();

fn matmul_obs() -> &'static MatmulObs {
    MATMUL_OBS.get_or_init(|| {
        // Recorded once alongside registration: whether the AVX2
        // micro-kernel path is available on this machine.
        #[cfg(target_arch = "x86_64")]
        gauge("linalg.avx2").set(f64::from(u8::from(std::arch::is_x86_feature_detected!(
            "avx2"
        ))));
        #[cfg(not(target_arch = "x86_64"))]
        gauge("linalg.avx2").set(0.0);
        let kernels = KERNEL_NAMES.map(|kernel| KernelCell {
            calls: CLASS_NAMES.map(|c| counter(&format!("linalg.{kernel}.{c}.calls"))),
            flops: CLASS_NAMES.map(|c| counter(&format!("linalg.{kernel}.{c}.flops"))),
            nanos: CLASS_NAMES.map(|c| counter(&format!("linalg.{kernel}.{c}.nanos"))),
        });
        MatmulObs {
            kernels,
            dispatch_parallel: counter("linalg.matmul.dispatch.parallel"),
            dispatch_serial: counter("linalg.matmul.dispatch.serial"),
        }
    })
}

/// Reads the clock iff telemetry is enabled (one relaxed load when off).
#[inline]
pub(crate) fn matmul_start() -> Option<Instant> {
    if vaer_obs::enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Records one finished matrix product: FLOPs (2 per multiply-add) and
/// wall nanoseconds under the kernel's shape class, plus which dispatch
/// (parallel row-sharding vs serial) the product actually took.
#[inline]
pub(crate) fn matmul_finish(kernel: usize, madds: usize, parallel: bool, start: Option<Instant>) {
    let Some(t0) = start else { return };
    let nanos = t0.elapsed().as_nanos() as u64;
    let obs = matmul_obs();
    let class = shape_class(madds);
    let cell = &obs.kernels[kernel];
    cell.calls[class].incr();
    cell.flops[class].add(2 * madds as u64);
    cell.nanos[class].add(nanos);
    if parallel {
        obs.dispatch_parallel.incr();
    } else {
        obs.dispatch_serial.incr();
    }
}

struct PoolObs {
    tasks: Counter,
    handed_off: Counter,
    inline_runs: Counter,
    join_wait_nanos: Counter,
    workers_started: Counter,
}

static POOL_OBS: OnceLock<PoolObs> = OnceLock::new();

fn pool_obs() -> &'static PoolObs {
    POOL_OBS.get_or_init(|| PoolObs {
        tasks: counter("runtime.tasks"),
        // The name predates the parked pool; it counts hand-offs.
        handed_off: counter("runtime.shards_spawned"),
        inline_runs: counter("runtime.inline_runs"),
        join_wait_nanos: counter("runtime.join_wait_nanos"),
        workers_started: counter("runtime.workers_started"),
    })
}

/// Records a shard map that ran inline on the calling thread: `shards`
/// tasks (more than one only for a call nested in a shard).
#[inline]
pub(crate) fn pool_inline(shards: usize) {
    if vaer_obs::enabled() {
        let obs = pool_obs();
        obs.tasks.add(shards as u64);
        obs.inline_runs.incr();
    }
}

/// Records a shard map run on the calling thread's pool: `shards`
/// tasks, of which `handed_off` a parked worker claimed and ran
/// (`runtime.shards_spawned`); shards the caller ran itself, shard 0
/// included, are not hand-offs.
#[inline]
pub(crate) fn pool_dispatched(shards: usize, handed_off: usize) {
    if vaer_obs::enabled() {
        let obs = pool_obs();
        obs.tasks.add(shards as u64);
        obs.handed_off.add(handed_off as u64);
    }
}

/// Records a worker thread started for a calling thread's pool.
#[inline]
pub(crate) fn pool_worker_started() {
    if vaer_obs::enabled() {
        pool_obs().workers_started.incr();
    }
}

/// Time the calling thread spent waiting on its workers after it ran
/// out of shards to claim — the pool's idle-time proxy.
#[inline]
pub(crate) fn pool_join_wait(start: Option<Instant>) {
    if let Some(t0) = start {
        pool_obs()
            .join_wait_nanos
            .add(t0.elapsed().as_nanos() as u64);
    }
}

/// Clock read for [`pool_join_wait`], gated like [`matmul_start`].
#[inline]
pub(crate) fn pool_clock() -> Option<Instant> {
    if vaer_obs::enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_class_boundaries() {
        assert_eq!(shape_class(0), 0);
        assert_eq!(shape_class((1 << 13) - 1), 0);
        assert_eq!(shape_class(1 << 13), 1);
        assert_eq!(shape_class((1 << 17) - 1), 1);
        assert_eq!(shape_class(1 << 17), 2);
        assert_eq!(shape_class((1 << 22) - 1), 2);
        assert_eq!(shape_class(1 << 22), 3);
        assert_eq!(shape_class(usize::MAX), 3);
    }
}
