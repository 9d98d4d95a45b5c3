//! Kernel-equivalence suite: the blocked, register-tiled matrix
//! products must be **bit-identical** to the retained naive reference
//! kernels on every shape — including tile-edge shapes (MR±1, NR±1),
//! degenerate shapes (1x1, k=1), and primes that divide into nothing —
//! at 1, 2, and 4 worker threads. The int8 GEMM and the fused distance
//! kernels are held to the same standard against their scalar
//! references.

use vaer_linalg::{
    distance_row, distance_row_scalar, i8_matmul_t, i8_matmul_t_reference, matmul_reference,
    matmul_t_reference, runtime, t_matmul_reference, DistanceOp, Matrix, QuantizedMatrix,
    XorShiftRng, MR, NR, PAR_FLOP_CUTOFF,
};

/// Serialises tests that touch the process-global thread override.
static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn edge_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (1, 1, 1),
        (1, 7, 1),
        (2, 1, 3),
        (MR - 1, 3, NR - 1),
        (MR, 4, NR),
        (MR + 1, 5, NR + 1),
        (2 * MR + 1, 1, 2 * NR + 1),
        (7, 11, 13),
        (17, 31, 19),
        (37, 23, 41),
        (64, 64, 64),
        (130, 70, 110),
        (96, 64, 96),
    ];
    // Shapes at and above the parallel cutoff whose rows split unevenly
    // at 2 and 4 threads, sized from the cutoff so they stay parallel
    // whatever it is set to.
    for m in [131, 263] {
        shapes.push((m, 128, PAR_FLOP_CUTOFF.div_ceil(m * 128)));
    }
    shapes
}

#[test]
fn blocked_products_match_references_bitwise_at_every_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = XorShiftRng::new(0xC0FFEE);
    for &(m, k, n) in &edge_shapes() {
        let a = Matrix::gaussian(m, k, &mut rng);
        let b = Matrix::gaussian(k, n, &mut rng);
        let bt = b.transpose();
        let at = a.transpose();
        let want_mm = matmul_reference(&a, &b);
        let want_mmt = matmul_t_reference(&a, &bt);
        let want_tmm = t_matmul_reference(&at, &b);
        for threads in [1usize, 2, 4] {
            runtime::set_threads(threads);
            let got_mm = a.matmul(&b);
            let got_mmt = a.matmul_t(&bt);
            let got_tmm = at.t_matmul(&b);
            runtime::set_threads(0);
            assert_eq!(
                want_mm.as_slice(),
                got_mm.as_slice(),
                "matmul {m}x{k}x{n} at {threads} threads"
            );
            assert_eq!(
                want_mmt.as_slice(),
                got_mmt.as_slice(),
                "matmul_t {m}x{k}x{n} at {threads} threads"
            );
            assert_eq!(
                want_tmm.as_slice(),
                got_tmm.as_slice(),
                "t_matmul {m}x{k}x{n} at {threads} threads"
            );
        }
    }
}

#[test]
fn blocked_products_match_on_sparse_one_hot_inputs() {
    // IR construction feeds one-hot-ish matrices through matmul; the old
    // kernel special-cased zeros, the blocked kernel must not need to.
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = XorShiftRng::new(7);
    let (m, k, n) = (33, 50, 21);
    let mut a = Matrix::zeros(m, k);
    for i in 0..m {
        let j = (i * 13) % k;
        a.row_mut(i)[j] = 1.0;
    }
    let b = Matrix::gaussian(k, n, &mut rng);
    let want = matmul_reference(&a, &b);
    for threads in [1usize, 2, 4] {
        runtime::set_threads(threads);
        let got = a.matmul(&b);
        runtime::set_threads(0);
        assert_eq!(
            want.as_slice(),
            got.as_slice(),
            "one-hot at {threads} threads"
        );
    }
}

#[test]
fn into_variants_overwrite_stale_destinations() {
    let mut rng = XorShiftRng::new(99);
    let a = Matrix::gaussian(9, 5, &mut rng);
    let b = Matrix::gaussian(5, 11, &mut rng);
    let mut out = Matrix::filled(9, 11, f32::NAN);
    a.matmul_into(&b, &mut out);
    assert_eq!(out.as_slice(), matmul_reference(&a, &b).as_slice());

    let bt = b.transpose();
    let mut out_t = Matrix::filled(9, 11, -3.0);
    a.matmul_t_into(&bt, &mut out_t);
    assert_eq!(out_t.as_slice(), matmul_t_reference(&a, &bt).as_slice());

    let at = a.transpose();
    let mut out_tm = Matrix::filled(9, 11, 42.0);
    at.t_matmul_into(&b, &mut out_tm);
    assert_eq!(out_tm.as_slice(), t_matmul_reference(&at, &b).as_slice());
}

#[test]
fn int8_gemm_matches_reference_bitwise_at_every_thread_count() {
    // Integer accumulation is exact, so the blocked/packed kernel must
    // equal the naive reference *bitwise* on every shape and thread
    // count — there is no tolerance to hide behind.
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = XorShiftRng::new(0x1808);
    for &(m, k, n) in &edge_shapes() {
        let x = QuantizedMatrix::quantize_per_row(&Matrix::gaussian(m, k, &mut rng));
        let w = QuantizedMatrix::quantize_per_row(&Matrix::gaussian(n, k, &mut rng));
        let want = i8_matmul_t_reference(&x, &w);
        for threads in [1usize, 2, 4] {
            runtime::set_threads(threads);
            let got = i8_matmul_t(&x, &w);
            runtime::set_threads(0);
            assert_eq!(
                want.as_slice(),
                got.as_slice(),
                "i8_matmul_t {m}x{k}x{n} at {threads} threads"
            );
        }
    }
}

#[test]
fn distance_kernels_match_scalar_bitwise_on_edge_lengths() {
    let mut rng = XorShiftRng::new(0x0D15);
    for &n in &[1usize, 7, 8, 9, 15, 16, 17, 64, 129, 257] {
        let mu_s = Matrix::gaussian(1, n, &mut rng);
        let mu_t = Matrix::gaussian(1, n, &mut rng);
        let sig_s = Matrix::gaussian(1, n, &mut rng).map(f32::abs);
        let sig_t = Matrix::gaussian(1, n, &mut rng).map(f32::abs);
        for op in [
            DistanceOp::W2,
            DistanceOp::MuOnly,
            DistanceOp::SigmaOnly,
            DistanceOp::Mahalanobis,
        ] {
            let mut fast = vec![0.0f32; n];
            let mut scalar = vec![0.0f32; n];
            distance_row(
                op,
                mu_s.row(0),
                mu_t.row(0),
                sig_s.row(0),
                sig_t.row(0),
                &mut fast,
            );
            distance_row_scalar(
                op,
                mu_s.row(0),
                mu_t.row(0),
                sig_s.row(0),
                sig_t.row(0),
                &mut scalar,
            );
            let fast_bits: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
            let scalar_bits: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast_bits, scalar_bits, "{op:?} n={n}");
        }
    }
}

#[test]
fn degenerate_dimensions_are_safe() {
    let a = Matrix::zeros(0, 4);
    let b = Matrix::zeros(4, 3);
    assert_eq!(a.matmul(&b).shape(), (0, 3));
    let a = Matrix::zeros(3, 0);
    let b = Matrix::zeros(0, 2);
    let c = a.matmul(&b);
    assert_eq!(c.shape(), (3, 2));
    assert!(c.as_slice().iter().all(|&v| v == 0.0));
    let a = Matrix::zeros(2, 5);
    let b = Matrix::zeros(5, 0);
    assert_eq!(a.matmul(&b).shape(), (2, 0));
}
