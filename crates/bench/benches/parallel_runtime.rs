//! Serial vs parallel wall-clock of the data-parallel runtime: the cost
//! of one hand-off to a parked worker, serial against two-worker time
//! for the products whose dispatch `PAR_FLOP_CUTOFF` decides, one
//! sharded VAE training step and one large matmul, at 1 thread and at the
//! machine's full thread count.
//!
//! On a single-core host the multi-thread configuration is skipped
//! entirely (both paths would collapse to the same inline serial code,
//! so any printed "speedup" would be measurement noise) and the run
//! record carries `multithread_skipped: true` instead.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use vaer_bench::banner;
use vaer_bench::run_record::RunRecord;
use vaer_core::repr::{ReprConfig, ReprModel};
use vaer_linalg::{runtime, Matrix, XorShiftRng};

/// Median per-call seconds over timed batches (same harness as micro.rs).
fn time_median<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut batch = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        if start.elapsed().as_millis() >= 10 || batch >= 1 << 20 {
            break;
        }
        batch *= 4;
    }
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            start.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn report(name: &str, serial: f64, parallel: f64, threads: usize) {
    println!(
        "{name:<32} serial {:>9.3} ms   {threads} threads {:>9.3} ms   speedup {:>5.2}x",
        serial * 1e3,
        parallel * 1e3,
        serial / parallel
    );
}

/// Serial vs `threads`-way wall-clock of one workload; returns
/// `(serial_secs, parallel_secs)` for the run record.
fn bench_training_step(threads: usize) -> (f64, f64) {
    // One epoch over a 256-row batch of 64-dim IRs — the paper's hot
    // training loop, exercising the sharded-gradient path end to end.
    let mut rng = XorShiftRng::new(7);
    let irs = Matrix::gaussian(256, 64, &mut rng);
    let config = ReprConfig {
        epochs: 1,
        batch_size: 256,
        ..ReprConfig::fast(64)
    };
    let step = || ReprModel::train(black_box(&irs), &config).unwrap();
    runtime::set_threads(1);
    let serial = time_median(step);
    runtime::set_threads(threads);
    let parallel = time_median(step);
    runtime::set_threads(0);
    report("vae_train_step_256x64", serial, parallel, threads);
    (serial, parallel)
}

fn bench_matmul(threads: usize) -> (f64, f64) {
    let mut rng = XorShiftRng::new(8);
    let a = Matrix::gaussian(512, 256, &mut rng);
    let b = Matrix::gaussian(256, 512, &mut rng);
    let f = || a.matmul(black_box(&b));
    runtime::set_threads(1);
    let serial = time_median(f);
    runtime::set_threads(threads);
    let parallel = time_median(f);
    runtime::set_threads(0);
    report("matmul_512x256x512", serial, parallel, threads);
    (serial, parallel)
}

/// Median seconds of one two-shard `map_shards` call whose shards do
/// nothing: publishing the job, waking a worker and collecting both
/// results. The caller usually runs the empty shard 1 itself before the
/// worker wakes, so this is the fixed cost every parallel call pays.
fn bench_round_trip() -> f64 {
    runtime::set_threads(2);
    let secs = time_median(|| runtime::map_shards(2, 1, |r| r.start));
    runtime::set_threads(0);
    println!("{:<32} {:>9.2} us", "handoff_round_trip", secs * 1e6);
    secs
}

/// p50 and p90 seconds from a call's start until a parked worker starts
/// shard 1. Shard 0 waits for shard 1 to start, so the caller cannot
/// claim it, and each call follows a short sleep, so the worker has
/// parked again.
fn bench_start_latency(samples: usize) -> (f64, f64) {
    runtime::set_threads(2);
    let started = AtomicBool::new(false);
    let mut lat: Vec<f64> = (0..samples)
        .map(|_| {
            std::thread::sleep(Duration::from_micros(100));
            started.store(false, Ordering::Relaxed);
            let t0 = Instant::now();
            let shards = runtime::map_shards_indexed(2, 1, |i, _| {
                if i == 1 {
                    let at = t0.elapsed().as_secs_f64();
                    started.store(true, Ordering::Relaxed);
                    return at;
                }
                while !started.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                0.0
            });
            shards[1]
        })
        .collect();
    runtime::set_threads(0);
    lat.sort_by(f64::total_cmp);
    let (p50, p90) = (lat[samples / 2], lat[samples * 9 / 10]);
    println!(
        "{:<32} p50 {:>9.2} us   p90 {:>9.2} us",
        "handoff_start_latency",
        p50 * 1e6,
        p90 * 1e6
    );
    (p50, p90)
}

/// Serial against two-worker seconds of an `m x k x n` product. Serial
/// is `matmul` at one thread. Two-worker splits the LHS rows in two and
/// multiplies each half on its own shard, so it measures the hand-off
/// whatever `PAR_FLOP_CUTOFF` decides for this shape; each shard packs
/// the RHS itself, which the real parallel kernel does once.
fn bench_product(m: usize, k: usize, n: usize) -> (f64, f64) {
    let mut rng = XorShiftRng::new(9);
    let a = Matrix::gaussian(m, k, &mut rng);
    let b = Matrix::gaussian(k, n, &mut rng);
    let halves = [a.slice_rows(0, m / 2), a.slice_rows(m / 2, m)];
    runtime::set_threads(1);
    let serial = time_median(|| a.matmul(black_box(&b)));
    runtime::set_threads(2);
    let two = time_median(|| runtime::map_shards_indexed(2, 1, |i, _| halves[i].matmul(&b)));
    runtime::set_threads(0);
    println!(
        "{:<32} serial {:>9.2} us   2 workers {:>9.2} us   speedup {:>5.2}x",
        format!("product_{m}x{k}x{n}"),
        serial * 1e6,
        two * 1e6,
        serial / two
    );
    (serial, two)
}

/// The products `PAR_FLOP_CUTOFF` is set from: the matcher's two
/// 32-row layers under `PipelineConfig::paper()` (the encoder's 64→96
/// and the MLP's 128→32), the MLP's first layer on row blocks up to one
/// 512-pair Score block (2^21 multiply-adds), and two larger products at
/// 2^22 and 2^24.
const PRODUCTS: [(usize, usize, usize); 8] = [
    (32, 64, 96),
    (32, 128, 32),
    (64, 128, 32),
    (128, 128, 32),
    (256, 128, 32),
    (512, 128, 32),
    (512, 256, 32),
    (512, 512, 64),
];

fn main() {
    banner("parallel runtime: serial vs sharded");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("hardware threads: {threads}");
    let mut rec = RunRecord::new("parallel_runtime");
    rec.int("hardware_threads", threads as u64);
    if threads == 1 {
        // A 1-thread "parallel" configuration runs the same inline serial
        // code, so a speedup number would be pure noise — skip and say so
        // in the record rather than reporting a meaningless ratio.
        println!("(single-core host: multi-thread configs skipped)");
        rec.bool_field("multithread_skipped", true);
    } else {
        let round_trip = bench_round_trip();
        let (p50, p90) = bench_start_latency(2000);
        rec.bool_field("multithread_skipped", false)
            .num("handoff_round_trip_us", round_trip * 1e6)
            .num("handoff_start_p50_us", p50 * 1e6)
            .num("handoff_start_p90_us", p90 * 1e6);
        for (m, k, n) in PRODUCTS {
            let (serial, two) = bench_product(m, k, n);
            rec.num(&format!("product_{m}x{k}x{n}_serial_us"), serial * 1e6)
                .num(&format!("product_{m}x{k}x{n}_two_worker_us"), two * 1e6);
        }
        let (mm_serial, mm_parallel) = bench_matmul(threads);
        let (tr_serial, tr_parallel) = bench_training_step(threads);
        rec.num("matmul_serial_secs", mm_serial)
            .num("matmul_parallel_secs", mm_parallel)
            .num("matmul_speedup", mm_serial / mm_parallel)
            .num("train_step_serial_secs", tr_serial)
            .num("train_step_parallel_secs", tr_parallel)
            .num("train_step_speedup", tr_serial / tr_parallel);
    }
    rec.append();
}
