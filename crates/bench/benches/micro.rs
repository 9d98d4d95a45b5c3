//! Micro-benchmarks of the hot kernels underneath every experiment:
//! matmul, one VAE training step, the W₂² distance, KDE evaluation,
//! LSH vs brute-force kNN, and one skip-gram epoch — plus a kernel
//! report (single-thread 256³ GFLOP/s of the blocked f32 kernels and at
//! the shapes the fit runs, integer GOP/s of the int8 GEMM, the SIMD
//! Wasserstein-feature kernel vs its scalar reference, and tape
//! allocations per step) written to `BENCH_kernels.json` at the repo
//! root.
//!
//! Uses the shared `vaer_bench::measure` harness (calibrated batches,
//! median-of-samples) since the workspace carries no external bench
//! framework.
//!
//! `VAER_BENCH_QUICK=1` runs only the kernel report with reduced
//! sampling and *asserts* that the blocked kernels are at least as fast
//! as the references and that the counting-allocator wrapper is free
//! when telemetry is off — the CI smoke mode. Cross-run GFLOP/s
//! regression verdicts live in `vaer-report` (which reads the history
//! this bench appends), not here.

use std::hint::black_box;
use vaer_bench::banner;
use vaer_bench::measure;
use vaer_bench::run_record::RunRecord;
use vaer_core::repr::{ReprConfig, ReprModel};
use vaer_embed::{SgnsConfig, SgnsEmbeddings};
use vaer_index::{BruteForceKnn, E2Lsh, KnnIndex};
use vaer_linalg::{
    distance_row, distance_row_scalar, i8_matmul_t, i8_matmul_t_reference, matmul_reference,
    matmul_t_reference, t_matmul_reference, DistanceOp, Matrix, QuantizedMatrix, XorShiftRng,
};
use vaer_nn::{Graph, ParamStore};
use vaer_stats::gaussian::{w2_squared, DiagGaussian};
use vaer_stats::kde::Kde;

/// Median seconds per call of `f`, over `samples` timed batches each
/// lasting at least `min_millis`.
fn median_secs<T>(samples: usize, min_millis: u128, f: impl FnMut() -> T) -> f64 {
    measure::steady_secs(samples, min_millis, f).median_secs
}

/// Runs `f` in timed batches and prints the median per-call time.
fn bench<T>(name: &str, f: impl FnMut() -> T) {
    let median = median_secs(9, 10, f);
    let (value, unit) = if median >= 1.0 {
        (median, "s ")
    } else if median >= 1e-3 {
        (median * 1e3, "ms")
    } else if median >= 1e-6 {
        (median * 1e6, "µs")
    } else {
        (median * 1e9, "ns")
    };
    println!("{name:<28} {value:>9.3} {unit}/iter");
}

fn bench_matmul() {
    let mut rng = XorShiftRng::new(1);
    let a = Matrix::gaussian(128, 128, &mut rng);
    let b = Matrix::gaussian(128, 128, &mut rng);
    bench("matmul_128x128", || a.matmul(black_box(&b)));
}

fn bench_vae_epoch() {
    let mut rng = XorShiftRng::new(2);
    let irs = Matrix::gaussian(256, 64, &mut rng);
    let config = ReprConfig {
        epochs: 1,
        ..ReprConfig::default()
    };
    bench("vae_train_1_epoch_256x64", || {
        ReprModel::train(black_box(&irs), &config).unwrap()
    });
}

fn bench_w2() {
    let mut rng = XorShiftRng::new(3);
    let p = DiagGaussian::new(
        (0..64).map(|_| rng.gaussian()).collect(),
        (0..64).map(|_| rng.gaussian().abs() + 0.1).collect(),
    );
    let q = DiagGaussian::new(
        (0..64).map(|_| rng.gaussian()).collect(),
        (0..64).map(|_| rng.gaussian().abs() + 0.1).collect(),
    );
    bench("w2_squared_64d", || {
        w2_squared(black_box(&p), black_box(&q))
    });
}

fn bench_kde() {
    let mut rng = XorShiftRng::new(4);
    let samples: Vec<f32> = (0..1000).map(|_| rng.gaussian()).collect();
    let kde = Kde::fit(&samples).unwrap();
    bench("kde_density_1000_points", || kde.density(black_box(0.5)));
}

fn bench_knn() {
    let mut rng = XorShiftRng::new(5);
    let points: Vec<Vec<f32>> = (0..2000)
        .map(|_| (0..32).map(|_| rng.gaussian()).collect())
        .collect();
    let query: Vec<f32> = (0..32).map(|_| rng.gaussian()).collect();
    let brute = BruteForceKnn::build(points.clone());
    let lsh = E2Lsh::build_calibrated(points, 9);
    bench("knn_2000x32/brute_force", || {
        brute.knn(black_box(&query), 10)
    });
    bench("knn_2000x32/e2lsh", || lsh.knn(black_box(&query), 10));
}

fn bench_sgns() {
    let sequences: Vec<Vec<u32>> = (0..200)
        .map(|i| (0..8).map(|j| ((i * 7 + j * 3) % 100) as u32).collect())
        .collect();
    let counts = {
        let mut counts = vec![0u64; 100];
        for s in &sequences {
            for &t in s {
                counts[t as usize] += 1;
            }
        }
        counts
    };
    let config = SgnsConfig {
        dims: 32,
        epochs: 1,
        ..SgnsConfig::default()
    };
    bench("sgns_1_epoch_200x8", || {
        SgnsEmbeddings::train(black_box(&sequences), 100, &counts, &config)
    });
}

/// One optimised-vs-reference comparison of the kernel report. Rates are
/// GFLOP/s for the f32 kernels and integer GOP/s for the int8 GEMM —
/// same 2N³ multiply-accumulate count either way.
struct KernelLine {
    name: &'static str,
    unit: &'static str,
    blocked_gflops: f64,
    reference_gflops: f64,
}

impl KernelLine {
    fn speedup(&self) -> f64 {
        self.blocked_gflops / self.reference_gflops
    }
}

/// Which f32 product a kernel line times.
#[derive(Clone, Copy)]
enum Product {
    /// `a (m×k) · b (k×n)`.
    MatMul,
    /// `aᵀ · b` with `a` `k×m` and `b` `k×n`.
    TMatMul,
    /// `a (m×k) · bᵀ` with `b` `n×k`.
    MatMulT,
}

/// GFLOP/s of one blocked f32 product against its reference at
/// `m × k × n` (an `m × n` output summed over `k`), on fresh Gaussian
/// operands, at whatever thread count the caller set.
fn product_line(
    name: &'static str,
    product: Product,
    (m, k, n): (usize, usize, usize),
    quick: bool,
    rng: &mut XorShiftRng,
) -> KernelLine {
    let (samples, min_ms) = if quick { (3, 5) } else { (9, 30) };
    let gflops = |secs: f64| 2.0 * (m * k * n) as f64 / secs / 1e9;
    let time = |blocked: &dyn Fn() -> Matrix, reference: &dyn Fn() -> Matrix| {
        (
            gflops(median_secs(samples, min_ms, blocked)),
            gflops(median_secs(samples, min_ms, reference)),
        )
    };
    let (blocked_gflops, reference_gflops) = match product {
        Product::MatMul => {
            let a = Matrix::gaussian(m, k, rng);
            let b = Matrix::gaussian(k, n, rng);
            time(&|| a.matmul(black_box(&b)), &|| {
                matmul_reference(black_box(&a), black_box(&b))
            })
        }
        Product::TMatMul => {
            let a = Matrix::gaussian(k, m, rng);
            let b = Matrix::gaussian(k, n, rng);
            time(&|| a.t_matmul(black_box(&b)), &|| {
                t_matmul_reference(black_box(&a), black_box(&b))
            })
        }
        Product::MatMulT => {
            let a = Matrix::gaussian(m, k, rng);
            let b = Matrix::gaussian(n, k, rng);
            time(&|| a.matmul_t(black_box(&b)), &|| {
                matmul_t_reference(black_box(&a), black_box(&b))
            })
        }
    };
    KernelLine {
        name,
        unit: "GFLOP/s",
        blocked_gflops,
        reference_gflops,
    }
}

/// The products the fit and the Score block run, as `(name, product,
/// (m, k, n))`: the matcher encoder's first layer forward (32 pairs ×
/// 64 → 96), its weight gradient (64 × 96 over the 32 batch rows), a
/// 96-wide product to a 32-wide output, and one Score block of 512 pairs
/// through a 128 → 32 layer. Then the narrow outputs, which fill one
/// zero-padded panel: the matcher's 32 → 1 head forward and its weight
/// gradient, the Score block's head, and the `fast` config's 32 → 8
/// latent head.
const FIT_SHAPES: [(&str, Product, (usize, usize, usize)); 8] = [
    ("matmul_32x64x96", Product::MatMul, (32, 64, 96)),
    ("t_matmul_64x32x96", Product::TMatMul, (64, 32, 96)),
    ("matmul_t_32x96x32", Product::MatMulT, (32, 96, 32)),
    ("matmul_512x128x32", Product::MatMul, (512, 128, 32)),
    ("matmul_32x32x1", Product::MatMul, (32, 32, 1)),
    ("t_matmul_32x32x1", Product::TMatMul, (32, 32, 1)),
    ("matmul_512x32x1", Product::MatMul, (512, 32, 1)),
    ("matmul_32x32x8", Product::MatMul, (32, 32, 8)),
];

/// Single-thread throughput of the blocked f32 products against their
/// references at [`FIT_SHAPES`]. Recorded for the kernel history, not
/// asserted: a naive loop can keep up at a shape this small.
fn fit_shape_report(quick: bool) -> Vec<KernelLine> {
    let mut rng = XorShiftRng::new(11);
    vaer_linalg::runtime::set_threads(1);
    let lines = FIT_SHAPES
        .iter()
        .map(|&(name, product, shape)| product_line(name, product, shape, quick, &mut rng))
        .collect();
    vaer_linalg::runtime::set_threads(0);
    lines
}

/// Single-thread 256³ throughput of the blocked matmul kernels and the
/// int8 GEMM against their naive references, plus the fused SIMD
/// Wasserstein-feature kernel against its scalar reference (5 ops per
/// element over a 256×256 row sweep).
fn kernel_report(quick: bool) -> Vec<KernelLine> {
    const N: usize = 256;
    let (samples, min_ms) = if quick { (3, 5) } else { (9, 30) };
    let mut rng = XorShiftRng::new(7);
    vaer_linalg::runtime::set_threads(1);
    let mut lines: Vec<KernelLine> = [
        ("matmul", Product::MatMul),
        ("matmul_t", Product::MatMulT),
        ("t_matmul", Product::TMatMul),
    ]
    .into_iter()
    .map(|(name, product)| product_line(name, product, (N, N, N), quick, &mut rng))
    .collect();
    let a = Matrix::gaussian(N, N, &mut rng);
    let b = Matrix::gaussian(N, N, &mut rng);
    let gflops = |secs: f64| 2.0 * (N as f64).powi(3) / secs / 1e9;
    // Int8 GEMM (quantized scoring fast lane): packed/blocked kernel vs
    // the naive triple loop, in integer GOP/s.
    let xq = QuantizedMatrix::quantize_per_row(&a);
    let wq = QuantizedMatrix::quantize_per_row(&b);
    lines.push(KernelLine {
        name: "i8_matmul_t",
        unit: "GOP/s  ",
        blocked_gflops: gflops(median_secs(samples, min_ms, || {
            i8_matmul_t(black_box(&xq), black_box(&wq))
        })),
        reference_gflops: gflops(median_secs(samples, min_ms, || {
            i8_matmul_t_reference(black_box(&xq), black_box(&wq))
        })),
    });
    // Fused Wasserstein distance features: AVX2-dispatched row kernel vs
    // the scalar reference, 5 ops per element (2 subs, 2 muls, 1 add).
    // The sweep cycles over 8 rows so the working set stays L1-resident
    // and the comparison measures compute, not memory bandwidth.
    const W2_ROWS: usize = 8;
    let sig_a = Matrix::gaussian(W2_ROWS, N, &mut rng).map(f32::abs);
    let sig_b = Matrix::gaussian(W2_ROWS, N, &mut rng).map(f32::abs);
    let w2_rate = |secs: f64| 5.0 * (N as f64).powi(2) / secs / 1e9;
    let mut out = vec![0.0f32; N];
    let fused_secs = median_secs(samples, min_ms, || {
        for i in 0..N {
            let r = i % W2_ROWS;
            distance_row(
                DistanceOp::W2,
                a.row(r),
                b.row(r),
                sig_a.row(r),
                sig_b.row(r),
                &mut out,
            );
        }
        black_box(out[0])
    });
    let scalar_secs = median_secs(samples, min_ms, || {
        for i in 0..N {
            let r = i % W2_ROWS;
            distance_row_scalar(
                DistanceOp::W2,
                a.row(r),
                b.row(r),
                sig_a.row(r),
                sig_b.row(r),
                &mut out,
            );
        }
        black_box(out[0])
    });
    lines.push(KernelLine {
        name: "w2_features",
        unit: "GOP/s  ",
        blocked_gflops: w2_rate(fused_secs),
        reference_gflops: w2_rate(scalar_secs),
    });
    vaer_linalg::runtime::set_threads(0);
    lines
}

/// Times one dense forward/backward step on a reused tape and counts
/// fresh heap allocations once the pool is warm (the zero-realloc
/// contract says: zero).
fn tape_report(quick: bool) -> (f64, usize) {
    let mut rng = XorShiftRng::new(8);
    let x = Matrix::gaussian(256, 64, &mut rng);
    let y = Matrix::gaussian(256, 16, &mut rng);
    let mut store = ParamStore::new();
    let w1 = store.add("bench.w1", Matrix::gaussian(64, 32, &mut rng));
    let w2 = store.add("bench.w2", Matrix::gaussian(32, 16, &mut rng));
    let mut g = Graph::new();
    let step = |g: &mut Graph| {
        g.reset();
        let xt = g.input_ref(&x);
        let yt = g.input_ref(&y);
        let w1t = g.param(&store, w1);
        let h1 = g.matmul(xt, w1t);
        let h = g.relu(h1);
        let w2t = g.param(&store, w2);
        let pred = g.matmul(h, w2t);
        let diff = g.sub(pred, yt);
        let sq = g.square(diff);
        let loss = g.mean_all(sq);
        g.backward(loss);
        black_box(g.param_grads());
    };
    // Warm the pool (backward's grad buffers join it one step after the
    // value buffers), then check the counter stays flat.
    step(&mut g);
    step(&mut g);
    let warm = g.fresh_allocs();
    for _ in 0..10 {
        step(&mut g);
    }
    let warm_allocs = g.fresh_allocs() - warm;
    let (samples, min_ms) = if quick { (3, 5) } else { (9, 20) };
    let secs = median_secs(samples, min_ms, || step(&mut g));
    (secs, warm_allocs)
}

/// The `BENCH_kernels.json` path at the repo root.
fn kernel_json_path() -> std::path::PathBuf {
    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("BENCH_kernels.json");
    path
}

/// Hand-rolled JSON for the kernel report (the workspace carries no
/// serialisation dependency).
fn write_kernel_json(lines: &[&KernelLine], tape_secs: f64, tape_allocs: usize) {
    let mut json = String::from("{\n  \"matmul_n\": 256,\n  \"threads\": 1,\n  \"kernels\": {\n");
    for (i, l) in lines.iter().enumerate() {
        let sep = if i + 1 == lines.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{\"blocked_gflops\": {:.2}, \"reference_gflops\": {:.2}, \"speedup\": {:.2}}}{}\n",
            l.name, l.blocked_gflops, l.reference_gflops, l.speedup(), sep
        ));
    }
    json.push_str(&format!(
        "  }},\n  \"tape\": {{\"secs_per_step\": {:.6}, \"fresh_allocs_per_step_warm\": {}}}\n}}\n",
        tape_secs, tape_allocs
    ));
    let path = kernel_json_path();
    match std::fs::write(&path, &json) {
        Ok(()) => println!("(report written to {})", path.display()),
        Err(e) => println!("(could not write {}: {e})", path.display()),
    }
}

/// Measures the observability tax on the hottest kernel: the 256³
/// matmul at `VAER_OBS=off` (one relaxed atomic load per call) versus
/// `VAER_OBS=summary` (counter adds + one histogram record per call).
///
/// The two levels' samples alternate (off, summary, off, …) and each
/// side keeps its fastest, so a host speed change between the first and
/// the last sample reaches both sides alike.
fn obs_overhead_report(quick: bool, rec: &mut RunRecord) {
    const N: usize = 256;
    let (samples, min_ms) = if quick { (5, 5) } else { (9, 30) };
    let mut rng = XorShiftRng::new(9);
    let a = Matrix::gaussian(N, N, &mut rng);
    let b = Matrix::gaussian(N, N, &mut rng);
    vaer_linalg::runtime::set_threads(1);
    let prev = vaer_obs::level();
    let (mut off, mut summary) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..samples {
        for (level, best) in [
            (vaer_obs::Level::Off, &mut off),
            (vaer_obs::Level::Summary, &mut summary),
        ] {
            vaer_obs::set_level(level);
            let m = measure::steady_secs(1, min_ms, || a.matmul(black_box(&b)));
            *best = best.min(m.min_secs);
        }
    }
    vaer_obs::set_level(prev);
    vaer_linalg::runtime::set_threads(0);
    println!(
        "obs_overhead_256^3           off {:>8.3} ms | summary {:>8.3} ms | off-path delta {:+.2}%",
        off * 1e3,
        summary * 1e3,
        100.0 * (off / summary - 1.0)
    );
    rec.num("obs_off_matmul_secs", off)
        .num("obs_summary_matmul_secs", summary);
    if quick {
        // The off path must not measurably exceed the instrumented path.
        // Container timing noise alone reaches tens of percent here, so
        // the bound is generous: it only trips on a structural regression
        // (a lock or allocation sneaking onto the off path), not jitter.
        assert!(
            off <= summary * 1.25,
            "VAER_OBS=off matmul slower than instrumented path: {:.3} ms vs {:.3} ms",
            off * 1e3,
            summary * 1e3
        );
    }
}

/// Measures what the counting `#[global_allocator]` wrapper costs when
/// telemetry is off, and expresses it as a share of the micro bench's
/// hottest kernel.
///
/// Three measurements, min-of-samples (mins compare implementations;
/// medians absorb scheduler noise — here we want the speed of light):
///
/// * `direct`: a raw `System.alloc`/`dealloc` pair, bypassing the
///   wrapper entirely (the only way to measure "no wrapper" in-process);
/// * `wrapped_off`: the same pair through the global allocator with
///   telemetry off — the passthrough path everyone pays all the time;
/// * `wrapped_summary`: the same with counting enabled, for context.
///
/// The ≤2% gate multiplies the per-pair passthrough delta by the
/// allocation rate of the 256³ matmul (counted, not guessed) — i.e. the
/// wrapper's actual share of micro-bench kernel time. A lock, env read,
/// or recursion on the off path inflates the delta by orders of
/// magnitude and trips it instantly; sub-nanosecond jitter cannot.
fn alloc_overhead_report(quick: bool, rec: &mut RunRecord) {
    use std::alloc::{GlobalAlloc, Layout, System};
    const N: usize = 256;
    const SIZES: [usize; 4] = [64, 256, 1024, 4096];
    let (samples, min_ms) = if quick { (5, 5) } else { (11, 20) };
    let layouts: Vec<Layout> = SIZES
        .iter()
        .map(|&s| Layout::from_size_align(s, 8).expect("static layout"))
        .collect();

    let prev = vaer_obs::level();
    vaer_obs::set_level(vaer_obs::Level::Off);
    // Per *pair* (one alloc + one dealloc), averaged over the size mix.
    let pair = |m: measure::Measured| m.min_secs / SIZES.len() as f64;
    let wrapped_off = pair(measure::steady_secs(samples, min_ms, || {
        for layout in &layouts {
            // SAFETY: layout has nonzero size; every pointer is freed
            // with the same layout it was allocated with, via the same
            // (global) allocator.
            unsafe {
                let p = std::alloc::alloc(*layout);
                black_box(p);
                std::alloc::dealloc(p, *layout);
            }
        }
    }));
    let direct = pair(measure::steady_secs(samples, min_ms, || {
        for layout in &layouts {
            // SAFETY: same invariants as above, straight to `System` —
            // this bypasses the `#[global_allocator]` wrapper.
            unsafe {
                let p = System.alloc(*layout);
                black_box(p);
                System.dealloc(p, *layout);
            }
        }
    }));

    // Count the matmul's allocation rate with the counter itself, then
    // time it — both at summary so counting is live.
    vaer_obs::set_level(vaer_obs::Level::Summary);
    let wrapped_summary = pair(measure::steady_secs(samples, min_ms, || {
        for layout in &layouts {
            // SAFETY: same invariants as above.
            unsafe {
                let p = std::alloc::alloc(*layout);
                black_box(p);
                std::alloc::dealloc(p, *layout);
            }
        }
    }));
    let mut rng = XorShiftRng::new(10);
    let a = Matrix::gaussian(N, N, &mut rng);
    let b = Matrix::gaussian(N, N, &mut rng);
    vaer_linalg::runtime::set_threads(1);
    let before = vaer_obs::alloc::stats();
    const COUNT_RUNS: u64 = 8;
    for _ in 0..COUNT_RUNS {
        black_box(a.matmul(black_box(&b)));
    }
    let allocs_per_matmul =
        (vaer_obs::alloc::stats().allocs - before.allocs) as f64 / COUNT_RUNS as f64;
    let matmul_secs = median_secs(samples, min_ms, || a.matmul(black_box(&b)));
    vaer_linalg::runtime::set_threads(0);
    vaer_obs::set_level(prev);

    let pair_delta = (wrapped_off - direct).max(0.0);
    let kernel_share_pct = 100.0 * pair_delta * allocs_per_matmul / matmul_secs;
    println!(
        "alloc_pair                   direct {:>6.1} ns | wrapped(off) {:>6.1} ns | wrapped(summary) {:>6.1} ns",
        direct * 1e9,
        wrapped_off * 1e9,
        wrapped_summary * 1e9
    );
    println!(
        "alloc_wrapper_cost           {allocs_per_matmul:.0} allocs/matmul x {:.2} ns -> {kernel_share_pct:.4}% of kernel time",
        pair_delta * 1e9
    );
    rec.num("alloc_pair_direct_secs", direct)
        .num("alloc_pair_wrapped_off_secs", wrapped_off)
        .num("alloc_pair_wrapped_summary_secs", wrapped_summary)
        .num("alloc_wrapper_kernel_share_pct", kernel_share_pct);
    if quick {
        assert!(
            kernel_share_pct <= 2.0,
            "allocator wrapper costs {kernel_share_pct:.3}% of micro kernel time (gate: 2%)"
        );
        // Structural backstop on the raw pair: the off path is one
        // relaxed load and a branch, so anything past 2x direct means a
        // lock, an env read, or recursion crept in.
        assert!(
            wrapped_off <= direct * 2.0 + 20e-9,
            "off-path alloc pair {:.1} ns vs direct {:.1} ns",
            wrapped_off * 1e9,
            direct * 1e9
        );
    }
}

fn print_kernel_lines(lines: &[KernelLine]) {
    for l in lines {
        println!(
            "{:<28} {:>7.2} {} optimised | {:>7.2} {} reference | {:>5.2}x",
            l.name,
            l.blocked_gflops,
            l.unit,
            l.reference_gflops,
            l.unit,
            l.speedup()
        );
    }
}

fn bench_kernels(quick: bool) -> RunRecord {
    println!("\n-- kernel report (single thread, 256^3) --");
    let lines = kernel_report(quick);
    print_kernel_lines(&lines);
    println!("-- kernel report (single thread, the fit's shapes m x k x n) --");
    let shape_lines = fit_shape_report(quick);
    print_kernel_lines(&shape_lines);
    let (tape_secs, tape_allocs) = tape_report(quick);
    println!(
        "{:<28} {:>9.3} µs/step, {} fresh allocs/step warm",
        "tape_step_256x64",
        tape_secs * 1e6,
        tape_allocs
    );
    let all_lines: Vec<&KernelLine> = lines.iter().chain(&shape_lines).collect();
    write_kernel_json(&all_lines, tape_secs, tape_allocs);
    if quick {
        // CI smoke: the blocked kernels must never lose to the textbook
        // loops, and a warm tape must not touch the heap.
        for l in &lines {
            assert!(
                l.speedup() >= 1.0,
                "{} blocked kernel slower than reference ({:.2}x)",
                l.name,
                l.speedup()
            );
        }
        assert_eq!(tape_allocs, 0, "warm tape step allocated");
    }
    // Trimmed structured record of the kernel report. Cross-run GFLOP/s
    // regression verdicts are `vaer-report`'s job (it reads the history
    // this record joins, with a noise band learned from that history).
    // Every recorded line ran on one thread (the tape's products are
    // below the parallel cutoff), so the record says so at any width.
    let mut rec = RunRecord::with_threads("micro", 1);
    for l in &all_lines {
        rec.num(&format!("{}_blocked_gflops", l.name), l.blocked_gflops)
            .num(&format!("{}_speedup", l.name), l.speedup());
    }
    rec.num("tape_secs_per_step", tape_secs)
        .int("tape_warm_allocs", tape_allocs as u64);
    rec
}

fn main() {
    let quick = vaer_bench::quick_from_env();
    banner("Micro-benchmarks — hot kernels");
    if !quick {
        bench_matmul();
        bench_vae_epoch();
        bench_w2();
        bench_kde();
        bench_knn();
        bench_sgns();
    }
    let mut rec = bench_kernels(quick);
    obs_overhead_report(quick, &mut rec);
    alloc_overhead_report(quick, &mut rec);
    rec.append();
}
