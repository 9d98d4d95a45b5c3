//! Golden digests of Link and Cluster output over seeded synthetic inputs.
//!
//! `LinkStage` and `cluster_links` are the two bodies every resolution
//! ends in. Each case builds its input from an `XorShiftRng` stream, runs
//! it and folds every link `(a, b, probability bits)` or every cluster
//! (its length, then its members) into an FNV-1a digest. The digests
//! were recorded on the `BTreeSet`/`BTreeMap` bodies that preceded the
//! flat ones, so any change to the NaN drop, the threshold cut, link
//! order (descending probability, candidate order among ties), the
//! one-to-one rule, cluster membership, member order (ascending, A rows
//! first) or cluster order (largest first, ties by smallest member)
//! shows up here. The inputs involve no model and no worker count.

use vaer_core::cluster::{cluster_links, EntityCluster, RowId};
use vaer_core::exec::{LinkStage, Stage};
use vaer_core::CoreError;
use vaer_index::CandidatePair;
use vaer_linalg::XorShiftRng;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: usize) {
        self.eat(&(x as u64).to_le_bytes());
    }
}

fn cluster_digest(clusters: &[EntityCluster]) -> u64 {
    let mut h = Fnv::new();
    for c in clusters {
        h.word(c.len());
        for m in &c.members {
            match *m {
                RowId::A(i) => {
                    h.eat(&[0]);
                    h.word(i);
                }
                RowId::B(i) => {
                    h.eat(&[1]);
                    h.word(i);
                }
            }
        }
    }
    h.0
}

fn link_digest(links: &[(usize, usize, f32)]) -> u64 {
    let mut h = Fnv::new();
    for &(a, b, p) in links {
        h.word(a);
        h.word(b);
        h.eat(&p.to_bits().to_le_bytes());
    }
    h.0
}

/// `0..n` in a seeded random order (Fisher-Yates).
fn shuffled(rng: &mut XorShiftRng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

// ---------------------------------------------------------------------
// cluster_links
// ---------------------------------------------------------------------

type LinkGen = fn(&mut XorShiftRng, usize, usize) -> Vec<(usize, usize)>;

struct ClusterCase {
    name: &'static str,
    len_a: usize,
    len_b: usize,
    links: LinkGen,
    seed: u64,
    /// Digests without and with singletons.
    digests: [u64; 2],
    /// Cluster counts without and with singletons.
    clusters: [usize; 2],
}

fn no_links(_: &mut XorShiftRng, _: usize, _: usize) -> Vec<(usize, usize)> {
    Vec::new()
}

fn first_pair(_: &mut XorShiftRng, _: usize, _: usize) -> Vec<(usize, usize)> {
    vec![(0, 0)]
}

/// One A row linked to some of the B rows, one arm twice.
fn one_star(_: &mut XorShiftRng, _: usize, _: usize) -> Vec<(usize, usize)> {
    vec![(0, 3), (0, 1), (0, 4), (0, 3)]
}

/// Disjoint pairs: a third of the smaller table, rows drawn at random.
fn one_to_one(rng: &mut XorShiftRng, len_a: usize, len_b: usize) -> Vec<(usize, usize)> {
    let a = shuffled(rng, len_a);
    let b = shuffled(rng, len_b);
    let n = len_a.min(len_b) / 3;
    a.into_iter().zip(b).take(n).collect()
}

/// Links between uniformly random rows: many-to-many components of
/// every size, and the odd duplicate.
fn random_links(rng: &mut XorShiftRng, len_a: usize, len_b: usize) -> Vec<(usize, usize)> {
    let n = (len_a + len_b) / 3;
    (0..n)
        .map(|_| (rng.below(len_a), rng.below(len_b)))
        .collect()
}

/// Chains and stars (one hub, several arms) on
/// disjoint rows, with sizes repeated so that equal-size clusters of
/// three or more members tie, in a shuffled link order.
fn chains_and_stars(rng: &mut XorShiftRng, len_a: usize, len_b: usize) -> Vec<(usize, usize)> {
    let a_rows = shuffled(rng, len_a);
    let b_rows = shuffled(rng, len_b);
    let (mut a, mut b) = (a_rows.iter().copied(), b_rows.iter().copied());
    let mut links = Vec::new();
    for shape in 0..24 {
        let arms = 2 + shape % 4;
        match shape % 3 {
            0 => {
                // A chain A-B-A-B-... of `arms` rows on each side.
                let mut right = None;
                for _ in 0..arms {
                    let (Some(x), Some(y)) = (a.next(), b.next()) else {
                        break;
                    };
                    if let Some(r) = right {
                        links.push((x, r));
                    }
                    links.push((x, y));
                    right = Some(y);
                }
            }
            1 => {
                // A hub with `arms` B rows.
                let Some(hub) = a.next() else { break };
                for _ in 0..arms {
                    let Some(arm) = b.next() else { break };
                    links.push((hub, arm));
                }
            }
            _ => {
                // A B hub with `arms` A rows.
                let Some(hub) = b.next() else { break };
                for _ in 0..arms {
                    let Some(arm) = a.next() else { break };
                    links.push((arm, hub));
                }
            }
        }
    }
    // A few pairs beside the shapes, then every fifth link again.
    for _ in 0..len_a.min(len_b) / 8 {
        let (Some(x), Some(y)) = (a.next(), b.next()) else {
            break;
        };
        links.push((x, y));
    }
    let repeats: Vec<(usize, usize)> = links.iter().copied().step_by(5).collect();
    links.extend(repeats);
    let order = shuffled(rng, links.len());
    order.into_iter().map(|i| links[i]).collect()
}

/// A handful of links, each given two or three times.
fn duplicated(rng: &mut XorShiftRng, len_a: usize, len_b: usize) -> Vec<(usize, usize)> {
    let mut links = Vec::new();
    for _ in 0..len_a.min(len_b) / 4 {
        let l = (rng.below(len_a), rng.below(len_b));
        for _ in 0..2 + rng.below(2) {
            links.push(l);
        }
    }
    links
}

const CLUSTER_CASES: &[ClusterCase] = &[
    ClusterCase {
        name: "empty_0x0",
        len_a: 0,
        len_b: 0,
        links: no_links,
        seed: 1,
        digests: [0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325],
        clusters: [0, 0],
    },
    ClusterCase {
        name: "unlinked_1x1",
        len_a: 1,
        len_b: 1,
        links: no_links,
        seed: 1,
        digests: [0xcbf2_9ce4_8422_2325, 0xa9c0_c25a_70f5_2f24],
        clusters: [0, 2],
    },
    ClusterCase {
        name: "linked_1x1",
        len_a: 1,
        len_b: 1,
        links: first_pair,
        seed: 1,
        digests: [0xc65c_f073_3937_2dcc, 0xc65c_f073_3937_2dcc],
        clusters: [1, 1],
    },
    ClusterCase {
        name: "star_1x5",
        len_a: 1,
        len_b: 5,
        links: one_star,
        seed: 1,
        digests: [0x8067_7b1f_2d81_e0a4, 0xa16d_50ed_8d96_8806],
        clusters: [1, 3],
    },
    ClusterCase {
        name: "one_to_one_40x40",
        len_a: 40,
        len_b: 40,
        links: one_to_one,
        seed: 3,
        digests: [0x601a_2fa8_3a94_defa, 0x760d_a2e6_0003_c015],
        clusters: [13, 67],
    },
    ClusterCase {
        name: "random_40x40",
        len_a: 40,
        len_b: 40,
        links: random_links,
        seed: 5,
        digests: [0xe063_a466_2b67_1460, 0xe378_09ec_14c0_ea91],
        clusters: [15, 54],
    },
    ClusterCase {
        name: "chains_and_stars_40x40",
        len_a: 40,
        len_b: 40,
        links: chains_and_stars,
        seed: 7,
        digests: [0x8da5_ba14_76b5_b275, 0x929b_4a90_bdbe_982f],
        clusters: [16, 17],
    },
    ClusterCase {
        name: "duplicated_40x40",
        len_a: 40,
        len_b: 40,
        links: duplicated,
        seed: 9,
        digests: [0x90d1_1430_dd07_099c, 0x5326_f2b5_5273_323f],
        clusters: [10, 70],
    },
    // `supervised`'s shape: 435 x 1,500 rows.
    ClusterCase {
        name: "one_to_one_435x1500",
        len_a: 435,
        len_b: 1500,
        links: one_to_one,
        seed: 42,
        digests: [0x9068_5f7a_97e0_9407, 0xe7a1_7ab5_6d54_08ac],
        clusters: [145, 1790],
    },
    ClusterCase {
        name: "random_435x1500",
        len_a: 435,
        len_b: 1500,
        links: random_links,
        seed: 43,
        digests: [0x5922_2f75_195b_c2f9, 0x5381_3c42_7807_85ea],
        clusters: [223, 1290],
    },
    ClusterCase {
        name: "chains_and_stars_435x1500",
        len_a: 435,
        len_b: 1500,
        links: chains_and_stars,
        seed: 44,
        digests: [0x4ee8_52af_cbbe_b1c9, 0x6af4_3185_8916_0a24],
        clusters: [78, 1777],
    },
    ClusterCase {
        name: "duplicated_435x1500",
        len_a: 435,
        len_b: 1500,
        links: duplicated,
        seed: 45,
        digests: [0xb7c9_298a_a4f0_0d1c, 0xdf64_9d22_3e37_22b4],
        clusters: [95, 1827],
    },
];

#[test]
fn cluster_links_matches_recorded_digests() {
    let mut mismatches = Vec::new();
    for case in CLUSTER_CASES {
        let links = (case.links)(&mut XorShiftRng::new(case.seed), case.len_a, case.len_b);
        for (i, singletons) in [false, true].into_iter().enumerate() {
            let clusters = cluster_links(&links, case.len_a, case.len_b, singletons).unwrap();
            let got = cluster_digest(&clusters);
            if got != case.digests[i] || clusters.len() != case.clusters[i] {
                mismatches.push(format!(
                    "{} (singletons {singletons}): digest {got:#018x} over {} clusters, \
                     recorded {:#018x} over {}",
                    case.name,
                    clusters.len(),
                    case.digests[i],
                    case.clusters[i]
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The many-to-many cases really produce what the digests are meant to
/// pin: clusters of three or more members, and equal-size ties among
/// them.
#[test]
fn cluster_cases_hold_large_clusters_and_size_ties() {
    for name in [
        "random_40x40",
        "chains_and_stars_40x40",
        "chains_and_stars_435x1500",
    ] {
        let case = CLUSTER_CASES.iter().find(|c| c.name == name).unwrap();
        let links = (case.links)(&mut XorShiftRng::new(case.seed), case.len_a, case.len_b);
        let clusters = cluster_links(&links, case.len_a, case.len_b, false).unwrap();
        let large: Vec<usize> = clusters
            .iter()
            .map(|c| c.len())
            .filter(|&n| n >= 3)
            .collect();
        assert!(large.len() >= 2, "{name}: clusters of 3+ members {large:?}");
        assert!(
            large.windows(2).any(|w| w[0] == w[1]),
            "{name}: no equal-size tie among {large:?}"
        );
    }
}

#[test]
fn cluster_links_rejects_out_of_range_links() {
    let bad_input =
        |links: &[(usize, usize)], len_a, len_b| match cluster_links(links, len_a, len_b, true) {
            Err(CoreError::BadInput(why)) => why,
            other => panic!("{links:?} on {len_a} x {len_b}: expected BadInput, got {other:?}"),
        };
    assert_eq!(
        bad_input(&[(0, 0), (1, 1), (2, 0)], 2, 2),
        "link (2, 0) is out of range for tables of 2 x 2 rows"
    );
    assert_eq!(
        bad_input(&[(1, 5)], 2, 5),
        "link (1, 5) is out of range for tables of 2 x 5 rows"
    );
    assert_eq!(
        bad_input(&[(0, 0)], 0, 0),
        "link (0, 0) is out of range for tables of 0 x 0 rows"
    );
    assert_eq!(
        bad_input(&[(usize::MAX, 0)], 435, 1500),
        format!(
            "link ({}, 0) is out of range for tables of 435 x 1500 rows",
            usize::MAX
        )
    );
}

// ---------------------------------------------------------------------
// LinkStage
// ---------------------------------------------------------------------

const THRESHOLDS: [f32; 4] = [0.0, 0.5, 1.0, f32::NAN];

type CandidateGen = fn(&mut XorShiftRng) -> (Vec<CandidatePair>, Vec<f32>);

struct LinkCase {
    name: &'static str,
    candidates: CandidateGen,
    seed: u64,
    /// Digests at each of [`THRESHOLDS`].
    digests: [u64; 4],
    /// Link counts at each of [`THRESHOLDS`].
    links: [usize; 4],
}

fn cand(left: usize, right: usize) -> CandidatePair {
    CandidatePair {
        left,
        right,
        distance: 0.0,
    }
}

/// `supervised`'s shape: 435 left rows, 10 candidates each among 1,500
/// right rows, probabilities on eleven levels 0.0, 0.1, ..., 1.0 so that
/// most of them tie. Three candidates in four stay below 0.5, so some
/// rows have no candidate at or above it.
fn tied_levels(rng: &mut XorShiftRng) -> (Vec<CandidatePair>, Vec<f32>) {
    let mut c = Vec::new();
    let mut p = Vec::new();
    for left in 0..435 {
        for _ in 0..10 {
            c.push(cand(left, rng.below(1500)));
            let level = if rng.below(4) == 0 {
                rng.below(11)
            } else {
                rng.below(5)
            };
            p.push(level as f32 / 10.0);
        }
    }
    (c, p)
}

/// Few rows and continuous probabilities: heavy row and column
/// conflicts, one candidate in six NaN.
fn crowded_with_nan(rng: &mut XorShiftRng) -> (Vec<CandidatePair>, Vec<f32>) {
    let mut c = Vec::new();
    let mut p = Vec::new();
    for _ in 0..400 {
        c.push(cand(rng.below(40), rng.below(40)));
        p.push(if rng.below(6) == 0 {
            f32::NAN
        } else {
            rng.next_f32()
        });
    }
    (c, p)
}

/// Probabilities outside the sigmoid's range and signed zeros: -0.0
/// and 0.0 compare equal, so candidate order decides between them;
/// infinities sort first and last; negative ones pass no threshold here.
fn odd_values(rng: &mut XorShiftRng) -> (Vec<CandidatePair>, Vec<f32>) {
    let values = [
        -0.0,
        0.0,
        1.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.5,
        f32::NAN,
        0.5,
        f32::MIN_POSITIVE,
        1.0 - f32::EPSILON,
    ];
    let mut c = Vec::new();
    let mut p = Vec::new();
    for _ in 0..300 {
        c.push(cand(rng.below(60), rng.below(60)));
        p.push(values[rng.below(values.len())]);
    }
    (c, p)
}

/// Row ids at the top of `usize`, mixed with small ones: the used-row
/// marks must not be sized by the largest id.
fn huge_rows(rng: &mut XorShiftRng) -> (Vec<CandidatePair>, Vec<f32>) {
    let row = |rng: &mut XorShiftRng| match rng.below(3) {
        0 => usize::MAX - rng.below(16),
        1 => (usize::MAX >> 1) + rng.below(16),
        _ => rng.below(16),
    };
    let mut c = Vec::new();
    let mut p = Vec::new();
    for _ in 0..64 {
        let (l, r) = (row(rng), row(rng));
        c.push(cand(l, r));
        p.push(rng.below(5) as f32 / 4.0);
    }
    c.push(cand(usize::MAX, usize::MAX));
    p.push(1.0);
    (c, p)
}

fn no_candidates(_: &mut XorShiftRng) -> (Vec<CandidatePair>, Vec<f32>) {
    (Vec::new(), Vec::new())
}

fn all_nan(rng: &mut XorShiftRng) -> (Vec<CandidatePair>, Vec<f32>) {
    let c: Vec<CandidatePair> = (0..20).map(|_| cand(rng.below(5), rng.below(5))).collect();
    let p = vec![f32::NAN; c.len()];
    (c, p)
}

const LINK_CASES: &[LinkCase] = &[
    LinkCase {
        name: "tied_levels_435x1500",
        candidates: tied_levels,
        seed: 42,
        digests: [
            0x2adf_1d09_8c9d_3ce1,
            0x1673_2b01_d889_ef21,
            0x12cb_da3d_ccfc_2b8c,
            0xcbf2_9ce4_8422_2325,
        ],
        links: [435, 320, 86, 0],
    },
    LinkCase {
        name: "crowded_with_nan_40x40",
        candidates: crowded_with_nan,
        seed: 7,
        digests: [
            0x0a7c_d236_3453_76c5,
            0xa0f4_5039_e000_c0b1,
            0xcbf2_9ce4_8422_2325,
            0xcbf2_9ce4_8422_2325,
        ],
        links: [37, 34, 0, 0],
    },
    LinkCase {
        name: "odd_values_60x60",
        candidates: odd_values,
        seed: 11,
        digests: [
            0x9656_8636_c96a_7cd5,
            0xed44_d37d_7523_3a7e,
            0x6f8a_82fd_22ff_1fbf,
            0xcbf2_9ce4_8422_2325,
        ],
        links: [47, 41, 31, 0],
    },
    LinkCase {
        name: "huge_rows",
        candidates: huge_rows,
        seed: 13,
        digests: [
            0xfe5d_4095_0f49_ca61,
            0x7022_6089_04f3_df27,
            0x157e_b32a_eb3a_e5ba,
            0xcbf2_9ce4_8422_2325,
        ],
        links: [24, 20, 8, 0],
    },
    LinkCase {
        name: "no_candidates",
        candidates: no_candidates,
        seed: 1,
        digests: [
            0xcbf2_9ce4_8422_2325,
            0xcbf2_9ce4_8422_2325,
            0xcbf2_9ce4_8422_2325,
            0xcbf2_9ce4_8422_2325,
        ],
        links: [0, 0, 0, 0],
    },
    LinkCase {
        name: "all_nan",
        candidates: all_nan,
        seed: 17,
        digests: [
            0xcbf2_9ce4_8422_2325,
            0xcbf2_9ce4_8422_2325,
            0xcbf2_9ce4_8422_2325,
            0xcbf2_9ce4_8422_2325,
        ],
        links: [0, 0, 0, 0],
    },
];

#[test]
fn link_stage_matches_recorded_digests() {
    let mut mismatches = Vec::new();
    for case in LINK_CASES {
        let (candidates, probs) = (case.candidates)(&mut XorShiftRng::new(case.seed));
        for (i, &threshold) in THRESHOLDS.iter().enumerate() {
            let links = LinkStage { threshold }
                .run((candidates.clone(), probs.clone()))
                .unwrap();
            let got = link_digest(&links);
            if got != case.digests[i] || links.len() != case.links[i] {
                mismatches.push(format!(
                    "{} (threshold {threshold}): digest {got:#018x} over {} links, \
                     recorded {:#018x} over {}",
                    case.name,
                    links.len(),
                    case.digests[i],
                    case.links[i]
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// A NaN threshold admits nothing, and the tied case really ties.
#[test]
fn link_cases_cover_nan_thresholds_and_ties() {
    for case in LINK_CASES {
        let (candidates, probs) = (case.candidates)(&mut XorShiftRng::new(case.seed));
        let links = LinkStage {
            threshold: f32::NAN,
        }
        .run((candidates, probs))
        .unwrap();
        assert!(links.is_empty(), "{}: {links:?}", case.name);
    }
    let (candidates, probs) = tied_levels(&mut XorShiftRng::new(42));
    let links = LinkStage { threshold: 0.5 }
        .run((candidates, probs))
        .unwrap();
    let top = links.iter().filter(|l| l.2 == 1.0).count();
    assert!(top >= 10, "only {top} links tie at 1.0");
}

#[test]
fn link_stage_rejects_mismatched_lengths() {
    let (candidates, mut probs) = tied_levels(&mut XorShiftRng::new(42));
    probs.pop();
    match (LinkStage { threshold: 0.5 }).run((candidates, probs)) {
        Err(CoreError::BadInput(why)) => {
            assert_eq!(why, "4350 candidates scored with 4349 probabilities")
        }
        other => panic!("expected BadInput, got {other:?}"),
    }
}
