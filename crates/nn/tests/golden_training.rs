//! Golden digests of trained parameters over a seeded Siamese tape.
//!
//! A few dozen Adam steps train a small encoder with the matcher's
//! shapes: 64-wide inputs → Dense 96 → ReLU → two Dense 32 heads, every
//! layer bound twice per step (the left and right sides of a pair share
//! weights, as in the paper's §IV-A), under an MSE loss, on 32-row and
//! 13-row batches. The step's forward products are `matmul`s and its
//! backward pass runs `matmul_t` (input gradients) and `t_matmul` (weight
//! gradients), so any change to the bits a GEMM tier produces, to the
//! tape's accumulation order or to Adam shows up as a different digest.
//!
//! Every input and weight comes from [`Matrix::uniform`], and the tape
//! uses only IEEE-exact arithmetic (products, sums, ReLU, squares,
//! `sqrt` in Adam), so no libm result enters the digest. One result
//! outside IEEE's exact set does: Adam's bias correction raises β₁ and
//! β₂ to the step count with `f32::powi`, whose precision Rust leaves
//! unspecified across platforms and compiler versions. If a digest
//! changes after a toolchain upgrade with no change to the GEMM, the
//! tape or Adam, check `powi` first. Both batch
//! sizes are below two gradient shards' worth of rows and every product
//! is below the parallel cutoff, so the digests must read the same at
//! one and two threads. The digests were recorded with the 4×8 GEMM
//! register tile that preceded the 4×32 one.

use vaer_linalg::{runtime, Matrix, XorShiftRng};
use vaer_nn::{sharded_step, Adam, Dense, Graph, Optimizer, ParamStore, Tensor};

const INPUT: usize = 64;
const HIDDEN: usize = 96;
const HEAD: usize = 32;
/// Batch sizes of one epoch: a full 32-pair batch and a ragged tail.
const BATCHES: [usize; 2] = [32, 13];
const EPOCHS: usize = 24;

/// Digest of the store after the first (32-row) step.
const FIRST_STEP: u64 = 0x9ada_88e8_2e9a_b16b;
/// Digest of the store after all `EPOCHS × BATCHES.len()` steps.
const LAST_STEP: u64 = 0x1bed_32c3_d5c7_a8ed;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Encoder {
    hidden: Dense,
    head_a: Dense,
    head_b: Dense,
}

impl Encoder {
    fn new(store: &mut ParamStore, rng: &mut XorShiftRng) -> Self {
        let mut dense = |name: &str, fan_in: usize, fan_out: usize| {
            let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
            store.add(
                format!("{name}.w"),
                Matrix::uniform(fan_in, fan_out, -limit, limit, rng),
            );
            store.add(
                format!("{name}.b"),
                Matrix::uniform(1, fan_out, -0.05, 0.05, rng),
            );
        };
        dense("enc.hidden", INPUT, HIDDEN);
        dense("enc.head_a", HIDDEN, HEAD);
        dense("enc.head_b", HIDDEN, HEAD);
        let bind = |name| Dense::from_store(store, name).expect("registered above");
        Self {
            hidden: bind("enc.hidden"),
            head_a: bind("enc.head_a"),
            head_b: bind("enc.head_b"),
        }
    }

    /// One side of the pair: binds every layer's parameters again.
    fn forward(&self, g: &mut Graph, store: &ParamStore, x: Tensor) -> (Tensor, Tensor) {
        let h = self.hidden.forward(g, store, x);
        let h = g.relu(h);
        (
            self.head_a.forward(g, store, h),
            self.head_b.forward(g, store, h),
        )
    }
}

/// Trains a freshly seeded encoder and returns the store's digest after
/// the first step and after the last.
fn train() -> (u64, u64) {
    let mut rng = XorShiftRng::new(0x5EED_0019);
    let mut store = ParamStore::new();
    let enc = Encoder::new(&mut store, &mut rng);
    let rows: usize = BATCHES.iter().sum();
    let left = Matrix::uniform(rows, INPUT, -1.0, 1.0, &mut rng);
    let right = Matrix::uniform(rows, INPUT, -1.0, 1.0, &mut rng);
    let target_a = Matrix::uniform(rows, HEAD, -0.5, 0.5, &mut rng);
    let target_b = Matrix::uniform(rows, HEAD, -0.5, 0.5, &mut rng);
    let mut adam = Adam::paper_defaults();
    let mut digests = Vec::new();
    for _ in 0..EPOCHS {
        let mut start = 0;
        for &len in &BATCHES {
            let batch = start..start + len;
            start += len;
            let step = sharded_step(len, |g, shard| {
                let lo = batch.start + shard.start;
                let hi = batch.start + shard.end;
                let xl = g.input_rows(&left, lo, hi);
                let xr = g.input_rows(&right, lo, hi);
                let (al, bl) = enc.forward(g, &store, xl);
                let (ar, br) = enc.forward(g, &store, xr);
                let ya = g.input_rows(&target_a, lo, hi);
                let yb = g.input_rows(&target_b, lo, hi);
                let da = g.sub(al, ar);
                let ea = g.sub(da, ya);
                let sa = g.square(ea);
                let la = g.mean_all(sa);
                let sb = g.add(bl, br);
                let eb = g.sub(sb, yb);
                let qb = g.square(eb);
                let lb = g.mean_all(qb);
                g.add(la, lb)
            });
            assert!(step.loss.is_finite(), "loss diverged: {}", step.loss);
            adam.step(&mut store, &step.grads);
            digests.push(fnv1a(&store.to_bytes()));
        }
    }
    (digests[0], digests[digests.len() - 1])
}

#[test]
fn siamese_training_digests_are_pinned_at_one_and_two_threads() {
    for threads in [1, 2] {
        runtime::set_threads(threads);
        let (first, last) = train();
        runtime::set_threads(0);
        assert_eq!(
            (first, last),
            (FIRST_STEP, LAST_STEP),
            "trained parameters changed at {threads} thread(s): \
             first step {first:#018x}, last step {last:#018x}"
        );
    }
}
