//! Integration tests of the active-learning loop against the labelling
//! oracle: budget accounting, class coverage, curve behaviour, and
//! degenerate inputs that must end in a result or a typed error.

use vaer::core::active::{evaluate_matcher, ActiveConfig, ActiveLearner};
use vaer::core::entity::IrTable;
use vaer::core::matcher::{MatcherConfig, PairExamples, SiameseMatcher};
use vaer::core::repr::{ReprConfig, ReprModel};
use vaer::core::CoreError;
use vaer::data::domains::{Domain, DomainSpec, Scale};
use vaer::data::{Dataset, Oracle};
use vaer::embed::{fit_ir_model, IrKind};
use vaer::linalg::{Matrix, XorShiftRng};

struct Fixture {
    dataset: Dataset,
    irs_a: IrTable,
    irs_b: IrTable,
    repr: ReprModel,
}

fn fixture(domain: Domain, seed: u64) -> Fixture {
    let dataset = DomainSpec::new(domain, Scale::Tiny).generate(seed);
    let arity = dataset.table_a.schema.arity();
    let sentences = dataset.all_sentences();
    let ir_model = fit_ir_model(IrKind::Lsa, &sentences, &dataset.tables_raw(), 24, seed);
    let a: Vec<String> = dataset.table_a.sentences().map(str::to_owned).collect();
    let b: Vec<String> = dataset.table_b.sentences().map(str::to_owned).collect();
    let irs_a = IrTable::new(arity, ir_model.encode_batch(&a));
    let irs_b = IrTable::new(arity, ir_model.encode_batch(&b));
    let all = irs_a.irs.vconcat(&irs_b.irs);
    let (repr, _) = ReprModel::train(&all, &ReprConfig::fast(24)).unwrap();
    Fixture {
        dataset,
        irs_a,
        irs_b,
        repr,
    }
}

fn al_config(seed: u64) -> ActiveConfig {
    ActiveConfig {
        iterations: 5,
        matcher: MatcherConfig {
            epochs: 10,
            ..MatcherConfig::fast()
        },
        seed,
        ..ActiveConfig::default()
    }
}

#[test]
fn oracle_budget_is_respected() {
    let f = fixture(Domain::Restaurants, 1);
    let oracle = f.dataset.oracle();
    let mut learner = ActiveLearner::new(&f.repr, &f.irs_a, &f.irs_b, al_config(1));
    learner.run(&oracle, 25, None).unwrap();
    // Bootstrap verification is unbilled; iteration labels must stay
    // within budget + one final batch.
    assert!(
        oracle.queries_used() <= 25 + 10,
        "used {} labels for budget 25",
        oracle.queries_used()
    );
}

#[test]
fn labelled_set_contains_both_classes_after_bootstrap() {
    let f = fixture(Domain::Citations1, 2);
    let oracle = f.dataset.oracle();
    let mut learner = ActiveLearner::new(&f.repr, &f.irs_a, &f.irs_b, al_config(2));
    learner.run(&oracle, 20, None).unwrap();
    let labeled = learner.labeled();
    assert!(
        labeled.num_positive() > 0,
        "no positives after bootstrap+AL"
    );
    assert!(
        labeled.num_negative() > 0,
        "no negatives after bootstrap+AL"
    );
}

#[test]
fn history_labels_are_monotone() {
    let f = fixture(Domain::Beer, 3);
    let oracle = f.dataset.oracle();
    let mut learner = ActiveLearner::new(&f.repr, &f.irs_a, &f.irs_b, al_config(3));
    let test = PairExamples::build(&f.irs_a, &f.irs_b, &f.dataset.test_pairs);
    learner.run(&oracle, 30, Some(&test)).unwrap();
    let history = learner.history();
    assert!(!history.is_empty());
    for w in history.windows(2) {
        assert!(
            w[1].labels_used >= w[0].labels_used,
            "labels went backwards"
        );
    }
    assert!(history.iter().all(|c| c.test_f1.is_some()));
}

#[test]
fn al_matcher_is_usable() {
    let f = fixture(Domain::Crm, 4);
    let oracle = f.dataset.oracle();
    let mut learner = ActiveLearner::new(&f.repr, &f.irs_a, &f.irs_b, al_config(4));
    let matcher = learner.run(&oracle, 40, None).unwrap();
    let report = evaluate_matcher(&matcher, &f.irs_a, &f.irs_b, &f.dataset.test_pairs);
    assert!(report.f1 > 0.5, "AL matcher F1 {}", report.f1);
}

#[test]
fn bootstrap_corrections_counted_without_billing() {
    let f = fixture(Domain::Cosmetics, 5);
    let oracle = f.dataset.oracle();
    let mut learner = ActiveLearner::new(&f.repr, &f.irs_a, &f.irs_b, al_config(5));
    let before = oracle.queries_used();
    learner.run(&oracle, 0, None).unwrap();
    // Budget 0: only bootstrap verification (peek, unbilled) and possibly
    // class backfill ran.
    let billed = oracle.queries_used() - before;
    assert!(billed <= 2, "bootstrap verification billed {billed} labels");
}

/// Degenerate inputs: 2 attributes of 16-dim seeded IRs, a VAE trained on
/// other rows, the `fast` matcher. B's first tuples are noisy copies of
/// A's and the oracle knows them, unless `duplicates` is false.
struct Degenerate {
    repr: ReprModel,
    rng: XorShiftRng,
}

impl Degenerate {
    const ARITY: usize = 2;
    const IR_DIM: usize = 16;

    fn new(seed: u64) -> Self {
        let mut rng = XorShiftRng::new(seed);
        let irs = Matrix::gaussian(40 * Self::ARITY, Self::IR_DIM, &mut rng);
        let (repr, _) = ReprModel::train(&irs, &ReprConfig::fast(Self::IR_DIM)).unwrap();
        Self { repr, rng }
    }

    /// Tables of `n_a x n_b` tuples. With `fill = (value, whole)`, every
    /// third row of B from row 1 on gets `value` in every column
    /// (`whole`) or in one column.
    fn tables(&mut self, n_a: usize, n_b: usize, fill: Option<(f32, bool)>) -> (IrTable, IrTable) {
        let rng = &mut self.rng;
        let a = Matrix::gaussian(n_a * Self::ARITY, Self::IR_DIM, rng);
        let mut b = Matrix::gaussian(n_b * Self::ARITY, Self::IR_DIM, rng);
        for row in 0..n_a.min(n_b) * Self::ARITY {
            for j in 0..Self::IR_DIM {
                b.set(row, j, a.get(row, j) + 0.05 * rng.gaussian());
            }
        }
        if let Some((value, whole)) = fill {
            for row in (1..b.rows()).step_by(3) {
                if whole {
                    b.row_mut(row).fill(value);
                } else {
                    b.set(row, row % Self::IR_DIM, value);
                }
            }
        }
        (IrTable::new(Self::ARITY, a), IrTable::new(Self::ARITY, b))
    }

    fn run(
        &self,
        (a, b): &(IrTable, IrTable),
        duplicates: bool,
        budget: usize,
        seed: u64,
    ) -> (Result<SiameseMatcher, CoreError>, usize) {
        let dups = if duplicates { a.len().min(b.len()) } else { 0 };
        let oracle = Oracle::new((0..dups).map(|i| (i, i)));
        let config = ActiveConfig {
            iterations: 4,
            matcher: MatcherConfig {
                seed,
                ..MatcherConfig::fast()
            },
            seed,
            ..ActiveConfig::default()
        };
        let mut learner = ActiveLearner::new(&self.repr, a, b, config);
        let result = learner.run(&oracle, budget, None);
        (result, learner.pool_size())
    }
}

#[test]
fn empty_tiny_and_duplicate_free_inputs_end_in_insufficient_data() {
    for seed in 0..10 {
        let mut d = Degenerate::new(seed);
        for (n_a, n_b, duplicates) in [(0, 0, true), (0, 5, true), (1, 1, true), (20, 20, false)] {
            let tables = d.tables(n_a, n_b, None);
            let (result, _) = d.run(&tables, duplicates, 20, seed);
            assert!(
                matches!(result, Err(CoreError::InsufficientData(_))),
                "seed {seed}, {n_a}x{n_b}, duplicates {duplicates}: {:?}",
                result.err()
            );
        }
    }
}

#[test]
fn few_rows_and_a_pool_emptied_before_the_budget_end_in_ok() {
    for seed in 0..10 {
        let mut d = Degenerate::new(seed);
        for (n_a, n_b) in [(1, 5), (3, 3), (4, 6)] {
            let tables = d.tables(n_a, n_b, None);
            // A budget no pool this small can fill: the loop stops when
            // the pool empties.
            let (result, pool) = d.run(&tables, true, 1_000, seed);
            assert!(
                result.is_ok(),
                "seed {seed}, {n_a}x{n_b}: {:?}",
                result.err()
            );
            assert_eq!(pool, 0, "seed {seed}, {n_a}x{n_b}: pool left");
        }
    }
}

#[test]
fn non_finite_ir_rows_end_in_a_result_or_a_typed_error() {
    // A whole row of one non-finite value mostly cancels to NaN in the
    // encoder's first layer, which its ReLU maps to 0; one non-finite
    // column survives it as +∞ for −∞ and +∞ (never for NaN) and reaches
    // the latent cache as NaN μ.
    for seed in 0..10 {
        let mut d = Degenerate::new(seed);
        for value in [f32::NAN, f32::NEG_INFINITY, f32::INFINITY] {
            for whole in [true, false] {
                let tables = d.tables(20, 20, Some((value, whole)));
                // Any outcome is returned, never a panic; +∞ rows are not
                // pinned beyond that.
                let (result, _) = d.run(&tables, true, 20, seed);
                if value == f32::INFINITY {
                    continue;
                }
                assert!(
                    result.is_ok(),
                    "seed {seed}, {value} (whole rows: {whole}): {:?}",
                    result.err()
                );
            }
        }
    }
}
