//! Golden digests of `knn_join` output over seeded synthetic points.
//!
//! Each case joins Gaussian queries against an [`E2Lsh`] index and folds
//! every `(left, right, distance bits)` triple into an FNV-1a digest. The
//! digests were recorded on the `BTreeMap`-bucket index that preceded the
//! flat one, so any change to hashing, candidate collection, the fallback
//! scan, distance arithmetic or neighbour order shows up here. The inputs
//! involve no model training and no worker count.

use vaer_index::{knn_join, CandidatePair, E2Lsh, E2LshConfig};
use vaer_linalg::XorShiftRng;

/// Bucket width of the calibrated index, or a fixed one.
#[derive(Clone, Copy)]
enum Width {
    Calibrated,
    Fixed(f32),
}

struct Case {
    name: &'static str,
    points: usize,
    queries: usize,
    dims: usize,
    k: usize,
    width: Width,
    multiprobe: usize,
    seed: u64,
    digest: u64,
    pairs: usize,
}

fn gaussian_rows(rng: &mut XorShiftRng, rows: usize, dims: usize) -> Vec<Vec<f32>> {
    (0..rows)
        .map(|_| (0..dims).map(|_| rng.gaussian()).collect())
        .collect()
}

/// Two of every three queries are an indexed point plus N(0, 0.1²)
/// noise (a near duplicate, as in entity resolution); the rest are
/// fresh Gaussians with no close neighbour.
fn queries_near(rng: &mut XorShiftRng, points: &[Vec<f32>], rows: usize) -> Vec<Vec<f32>> {
    (0..rows)
        .map(|i| {
            if i % 3 == 2 {
                return points[0].iter().map(|_| rng.gaussian()).collect();
            }
            let base = &points[(i * 7) % points.len()];
            base.iter().map(|&x| x + 0.1 * rng.gaussian()).collect()
        })
        .collect()
}

fn digest(pairs: &[CandidatePair]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in pairs {
        eat(&(p.left as u64).to_le_bytes());
        eat(&(p.right as u64).to_le_bytes());
        eat(&p.distance.to_bits().to_le_bytes());
    }
    h
}

fn build(case: &Case, points: Vec<Vec<f32>>) -> E2Lsh {
    match case.width {
        Width::Calibrated => {
            assert_eq!(case.multiprobe, 1, "build_calibrated probes one ring");
            E2Lsh::build_calibrated(points, case.seed)
        }
        Width::Fixed(w) => E2Lsh::build(
            points,
            E2LshConfig {
                bucket_width: w,
                multiprobe: case.multiprobe,
                seed: case.seed,
                ..E2LshConfig::default()
            },
        ),
    }
}

fn run(case: &Case) -> (Vec<Vec<f32>>, E2Lsh, Vec<CandidatePair>) {
    let mut rng = XorShiftRng::new(case.seed);
    let points = gaussian_rows(&mut rng, case.points, case.dims);
    let queries = queries_near(&mut rng, &points, case.queries);
    let index = build(case, points);
    let pairs = knn_join(&queries, &index, case.k);
    (queries, index, pairs)
}

const CASES: &[Case] = &[
    // `supervised`'s shape: 435 queries against 1,500 points, 128 dims.
    Case {
        name: "supervised_calibrated",
        points: 1500,
        queries: 435,
        dims: 128,
        k: 10,
        width: Width::Calibrated,
        multiprobe: 1,
        seed: 42,
        digest: 0xbfa5_6e84_b79a_a9be,
        pairs: 4350,
    },
    Case {
        name: "supervised_fixed_mp0",
        points: 1500,
        queries: 435,
        dims: 128,
        k: 10,
        width: Width::Fixed(7.0),
        multiprobe: 0,
        seed: 7,
        digest: 0xaf21_1bf3_12f0_2e51,
        pairs: 4350,
    },
    Case {
        name: "supervised_fixed_mp1",
        points: 1500,
        queries: 435,
        dims: 128,
        k: 10,
        width: Width::Fixed(7.0),
        multiprobe: 1,
        seed: 7,
        digest: 0xf45d_3b9e_708b_d108,
        pairs: 4350,
    },
    // `learn`'s shape: 40 × 40 at 192 dims, where most queries collide
    // with fewer than k points and fall back to the full scan.
    Case {
        name: "fallback_calibrated",
        points: 40,
        queries: 40,
        dims: 192,
        k: 10,
        width: Width::Calibrated,
        multiprobe: 1,
        seed: 11,
        digest: 0xcd0f_ab30_b4a2_a7a7,
        pairs: 400,
    },
    Case {
        name: "fallback_fixed_mp0",
        points: 40,
        queries: 40,
        dims: 192,
        k: 10,
        width: Width::Fixed(6.0),
        multiprobe: 0,
        seed: 13,
        digest: 0x6109_537e_fd49_f815,
        pairs: 400,
    },
    // k > n: every query returns all 30 points, fully ordered.
    Case {
        name: "k_exceeds_n",
        points: 30,
        queries: 12,
        dims: 16,
        k: 50,
        width: Width::Calibrated,
        multiprobe: 1,
        seed: 5,
        digest: 0xa2be_eeef_38cf_5556,
        pairs: 360,
    },
];

#[test]
fn knn_join_matches_recorded_digests() {
    let mut mismatches = Vec::new();
    for case in CASES {
        let (_, _, pairs) = run(case);
        let got = digest(&pairs);
        if got != case.digest || pairs.len() != case.pairs {
            mismatches.push(format!(
                "{}: digest {got:#018x} over {} pairs, recorded {:#018x} over {}",
                case.name,
                pairs.len(),
                case.digest,
                case.pairs
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The fallback cases really exercise the full scan: most of their
/// queries collide with fewer than k indexed points.
#[test]
fn fallback_cases_mostly_fall_back() {
    for case in CASES.iter().filter(|c| c.name.starts_with("fallback")) {
        let (queries, index, _) = run(case);
        let short = queries
            .iter()
            .filter(|q| index.candidates(q).len() < case.k)
            .count();
        assert!(
            2 * short > queries.len(),
            "{}: only {short} of {} queries fall back",
            case.name,
            queries.len()
        );
    }
}
