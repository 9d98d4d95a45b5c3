//! Kill-and-resume integration tests: a process killed at an arbitrary
//! failpoint (via `vaer-fault`) and restarted from its durable state must
//! converge to the *bit-identical* result of an uninterrupted run — same
//! weights, same learning curve, same labels billed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use vaer::core::active::{ActiveConfig, ActiveLearner};
use vaer::core::checkpoint::{AlSession, CheckpointStore};
use vaer::core::entity::IrTable;
use vaer::core::matcher::{MatcherConfig, PairExamples};
use vaer::core::repr::{ReprConfig, ReprModel};
use vaer::core::resilience::RunBudget;
use vaer::data::{LabeledPair, Oracle, PairSet};
use vaer::linalg::{Matrix, XorShiftRng};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vaer-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A toy two-table world: B's rows are noisy duplicates of A's rows under
/// the identity alignment, with two attributes per entity.
struct World {
    repr: ReprModel,
    a: IrTable,
    b: IrTable,
    duplicates: Vec<(usize, usize)>,
}

fn world(n: usize, seed: u64) -> World {
    let ir_dim = 8;
    let mut rng = XorShiftRng::new(seed);
    let mut a_rows = Vec::new();
    let mut b_rows = Vec::new();
    for _ in 0..n {
        let center: Vec<f32> = (0..ir_dim).map(|_| rng.gaussian()).collect();
        let attr2: Vec<f32> = center.iter().map(|&x| x * -0.5 + 1.0).collect();
        let jitter = |c: &[f32], rng: &mut XorShiftRng| -> Vec<f32> {
            c.iter().map(|&x| x + 0.08 * rng.gaussian()).collect()
        };
        a_rows.push(jitter(&center, &mut rng));
        a_rows.push(jitter(&attr2, &mut rng));
        b_rows.push(jitter(&center, &mut rng));
        b_rows.push(jitter(&attr2, &mut rng));
    }
    let flat = |rows: &Vec<Vec<f32>>| {
        Matrix::from_vec(rows.len(), ir_dim, rows.iter().flatten().copied().collect())
    };
    let a = IrTable::new(2, flat(&a_rows));
    let b = IrTable::new(2, flat(&b_rows));
    let all = a.irs.vconcat(&b.irs);
    let (repr, _) = ReprModel::train(&all, &ReprConfig::fast(ir_dim)).unwrap();
    World {
        repr,
        a,
        b,
        duplicates: (0..n).map(|i| (i, i)).collect(),
    }
}

fn al_config() -> ActiveConfig {
    ActiveConfig {
        iterations: 4,
        matcher: MatcherConfig {
            epochs: 6,
            ..MatcherConfig::fast()
        },
        ..ActiveConfig::default()
    }
}

fn test_pairs(n: usize) -> PairSet {
    (0..n)
        .map(|i| LabeledPair {
            left: i,
            right: i,
            is_match: true,
        })
        .chain((0..n).map(|i| LabeledPair {
            left: i,
            right: (i + 7) % n,
            is_match: false,
        }))
        .collect()
}

#[test]
fn vae_kill_and_resume_is_bit_identical() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let mut rng = XorShiftRng::new(42);
    let irs = Matrix::from_vec(48, 8, (0..48 * 8).map(|_| rng.gaussian()).collect());
    let config = ReprConfig {
        epochs: 8,
        ..ReprConfig::fast(8)
    };
    let (baseline, baseline_stats) = ReprModel::train(&irs, &config).unwrap();

    let dir = temp_dir("vae");
    let snapshots = CheckpointStore::open(&dir, "vae").unwrap();
    // Kill the process (well, the thread) at the top of the 5th epoch:
    // epochs 0..=3 complete, snapshots exist at epochs 2 and 4.
    vaer::fault::configure("vae.epoch=panic@5").unwrap();
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        ReprModel::train_with(
            &irs,
            &config,
            &RunBudget::unlimited(),
            Some((&snapshots, 2)),
        )
    }));
    vaer::fault::clear();
    assert!(crashed.is_err(), "kill switch did not fire");
    assert!(
        !snapshots.list().unwrap().is_empty(),
        "no snapshot survived the crash"
    );

    // Second process: same call resumes from the newest snapshot and must
    // land exactly where the uninterrupted run did.
    let (resumed, resumed_stats) = ReprModel::train_with(
        &irs,
        &config,
        &RunBudget::unlimited(),
        Some((&snapshots, 2)),
    )
    .unwrap();
    assert_eq!(
        baseline.to_bytes(),
        resumed.to_bytes(),
        "resumed weights diverged from uninterrupted run"
    );
    assert_eq!(
        baseline_stats.epoch_losses, resumed_stats.epoch_losses,
        "resumed loss curve diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_write_retries_and_falls_back_past_torn_files() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let dir = temp_dir("torn");
    let store = CheckpointStore::open(&dir, "t").unwrap();

    // A transient IO error on the first attempt is absorbed by the retry.
    vaer::fault::configure("checkpoint.write=err@1").unwrap();
    store.write(1, b"first", &RunBudget::unlimited()).unwrap();
    vaer::fault::clear();
    assert_eq!(store.read(1).unwrap(), b"first");

    // A torn write of snapshot 2 (half an envelope at the final path) is
    // detected by the CRC, and the newest-valid fallback serves snapshot 1.
    vaer::fault::configure("checkpoint.write=torn").unwrap();
    store.write(2, b"second", &RunBudget::unlimited()).unwrap();
    vaer::fault::clear();
    assert!(store.read(2).is_err(), "torn snapshot passed validation");
    let (seq, payload) = store.read_latest().unwrap().expect("fallback snapshot");
    assert_eq!((seq, payload.as_slice()), (1, b"first".as_slice()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn al_kill_and_resume_is_bit_identical() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let w = world(40, 2);
    let examples = PairExamples::build(&w.a, &w.b, &test_pairs(40));

    // Uninterrupted durable run.
    let dir_ok = temp_dir("al-ok");
    let oracle_ok = Oracle::new(w.duplicates.iter().copied());
    let mut session_ok = AlSession::open(&dir_ok).unwrap();
    let mut learner_ok = ActiveLearner::new(&w.repr, &w.a, &w.b, al_config());
    let matcher_ok = learner_ok
        .run_checkpointed(&oracle_ok, 80, Some(&examples), &mut session_ok)
        .unwrap();

    // Same run, killed at the top of AL round 3.
    let dir = temp_dir("al-kill");
    let oracle_crash = Oracle::new(w.duplicates.iter().copied());
    {
        let mut session = AlSession::open(&dir).unwrap();
        let mut learner = ActiveLearner::new(&w.repr, &w.a, &w.b, al_config());
        vaer::fault::configure("al.round=panic@3").unwrap();
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            learner.run_checkpointed(&oracle_crash, 80, Some(&examples), &mut session)
        }));
        vaer::fault::clear();
        assert!(crashed.is_err(), "kill switch did not fire");
    }

    // "New process": fresh oracle, session reopened from disk, learner
    // rebuilt from the newest snapshot.
    let oracle_resume = Oracle::new(w.duplicates.iter().copied());
    let mut session = AlSession::open(&dir).unwrap();
    let (_, state) = session
        .latest_snapshot()
        .unwrap()
        .expect("no snapshot survived the crash");
    let mut learner = ActiveLearner::resume(&w.repr, &w.a, &w.b, al_config(), &state).unwrap();
    let matcher = learner
        .run_checkpointed(&oracle_resume, 80, Some(&examples), &mut session)
        .unwrap();

    assert_eq!(
        matcher_ok.store().to_bytes(),
        matcher.store().to_bytes(),
        "resumed matcher weights diverged from uninterrupted run"
    );
    assert_eq!(
        oracle_ok.queries_used(),
        oracle_resume.queries_used(),
        "resume billed a different number of labels"
    );
    let (h_ok, h) = (learner_ok.history(), learner.history());
    assert_eq!(h_ok.len(), h.len(), "learning curves differ in length");
    for (a, b) in h_ok.iter().zip(h) {
        assert_eq!(a.labels_used, b.labels_used);
        assert_eq!(a.pool_sizes, b.pool_sizes);
        assert_eq!(a.sample_mix, b.sample_mix);
        assert_eq!(a.test_f1, b.test_f1);
    }
    assert_eq!(learner_ok.labeled().pairs, learner.labeled().pairs);
    let _ = std::fs::remove_dir_all(&dir_ok);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn al_mid_round_crash_loses_no_labels() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let w = world(30, 3);
    let dir = temp_dir("al-labels");
    let oracle = Oracle::new(w.duplicates.iter().copied());

    // Kill between the (journaled) oracle queries of round 1 and the
    // snapshot that would record them.
    let journaled_at_crash;
    {
        let mut session = AlSession::open(&dir).unwrap();
        let mut learner = ActiveLearner::new(&w.repr, &w.a, &w.b, al_config());
        vaer::fault::configure("al.labels=panic@1").unwrap();
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            learner.run_checkpointed(&oracle, 80, None, &mut session)
        }));
        vaer::fault::clear();
        assert!(crashed.is_err(), "kill switch did not fire");
        journaled_at_crash = session.labels().len();
    }
    assert!(journaled_at_crash > 0, "round 1 journaled no labels");
    let billed_at_crash = oracle.queries_used();

    // Resume in a fresh process with a fresh oracle: the journaled labels
    // must be replayed into the labelled sets, not lost and not re-asked
    // beyond the one-time warm-up billing.
    let oracle2 = Oracle::new(w.duplicates.iter().copied());
    let mut session = AlSession::open(&dir).unwrap();
    assert_eq!(session.labels().len(), journaled_at_crash);
    let (_, state) = session.latest_snapshot().unwrap().expect("no snapshot");
    let mut learner = ActiveLearner::resume(&w.repr, &w.a, &w.b, al_config(), &state).unwrap();
    learner
        .run_checkpointed(&oracle2, 80, None, &mut session)
        .unwrap();

    let labeled: std::collections::HashSet<(usize, usize)> = learner
        .labeled()
        .pairs
        .iter()
        .map(|p| (p.left, p.right))
        .collect();
    for e in session.labels().iter().take(journaled_at_crash) {
        assert!(
            labeled.contains(&(e.left, e.right)),
            "journaled label ({}, {}) was lost on resume",
            e.left,
            e.right
        );
    }
    // Warming the resumed oracle re-bills exactly the pairs the crashed
    // process had already asked — never more.
    assert!(
        oracle2.queries_used() >= billed_at_crash,
        "resumed run billed fewer labels than were journaled"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
