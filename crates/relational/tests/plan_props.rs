//! Differential property suite for the physical query layer: for random
//! select-project-join specs, planned execution
//! ([`eve_relational::plan::plan`] + [`eve_relational::exec::execute`])
//! must produce exactly the bag the naive algebra pipeline (`common::naive`:
//! cartesian product → selection → projection → rename) produces — with or
//! without declared statistics steering the join order.

use proptest::prelude::*;

use eve_relational::exec::execute;
use eve_relational::{
    ColumnDef, ColumnRef, CompOp, DataType, ExecOptions, PrimitiveClause, QueryInput, QuerySpec,
    Relation, RelationStats, Schema, Tuple, Value,
};

mod common;
use common::{naive, sorted_tuples};

const BINDINGS: [&str; 3] = ["A", "B", "C"];
const COLS: usize = 2;

fn relation_for(binding: &str, rows: &[Vec<i64>]) -> Relation {
    let schema = Schema::new(
        (0..COLS)
            .map(|i| {
                ColumnDef::new(
                    ColumnRef::qualified(binding, format!("C{i}")),
                    DataType::Int,
                )
            })
            .collect(),
    )
    .unwrap();
    Relation::with_tuples(
        binding,
        schema,
        rows.iter()
            .map(|vals| Tuple::new(vals.iter().copied().map(Value::Int).collect()))
            .collect(),
    )
    .unwrap()
}

/// `(input count, rows per input, clause picks, projection picks, stats?)`
/// realized into a well-typed spec.
#[allow(clippy::type_complexity)]
fn arbitrary_spec() -> impl Strategy<Value = QuerySpec> {
    (
        2usize..=3,
        prop::collection::vec(prop::collection::vec(-3i64..4, COLS..=COLS), 0..8),
        prop::collection::vec(prop::collection::vec(-3i64..4, COLS..=COLS), 0..8),
        prop::collection::vec(prop::collection::vec(-3i64..4, COLS..=COLS), 0..8),
        prop::collection::vec(
            (0usize..3, 0usize..COLS, 0usize..3, 0usize..COLS, -3i64..4),
            0..4,
        ),
        prop::collection::vec((0usize..3, 0usize..COLS), 1..4),
        any::<bool>(),
    )
        .prop_map(
            |(n, rows_a, rows_b, rows_c, clause_picks, proj_picks, declare)| {
                let all_rows = [rows_a, rows_b, rows_c];
                let inputs: Vec<QueryInput> = (0..n)
                    .map(|i| {
                        let relation = relation_for(BINDINGS[i], &all_rows[i]);
                        let stats = declare.then(|| RelationStats::from_relation(&relation));
                        QueryInput {
                            binding: BINDINGS[i].to_owned(),
                            relation,
                            stats,
                        }
                    })
                    .collect();
                let col = |input: usize, c: usize| {
                    ColumnRef::qualified(BINDINGS[input.min(n - 1)], format!("C{c}"))
                };
                let clauses: Vec<PrimitiveClause> = clause_picks
                    .into_iter()
                    .map(|(i, ci, j, cj, v)| {
                        if i == j {
                            // Literal clause on one input.
                            PrimitiveClause::lit(col(i, ci), CompOp::Gt, Value::Int(v))
                        } else {
                            PrimitiveClause::eq(col(i, ci), col(j, cj))
                        }
                    })
                    .collect();
                // Deduplicate picks: the naive reference projects before
                // renaming, so a duplicated column would fail there (and in
                // E-SQL views the SELECT list is deduplicated upstream).
                let mut seen = std::collections::BTreeSet::new();
                let mut projection: Vec<ColumnRef> = proj_picks
                    .iter()
                    .filter(|&&(i, c)| seen.insert((i.min(n - 1), c)))
                    .map(|&(i, c)| col(i, c))
                    .collect();
                if projection.is_empty() {
                    projection.push(col(0, 0));
                }
                let output: Vec<ColumnRef> = (0..projection.len())
                    .map(|i| ColumnRef::bare(format!("X{i}")))
                    .collect();
                QuerySpec {
                    name: "V".into(),
                    inputs,
                    clauses,
                    projection,
                    output,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // -------------------------------------------------------------------
    // Differential: planned ≡ naive, as bags, for every generated spec.
    // -------------------------------------------------------------------
    #[test]
    fn planned_execution_equals_naive_reference(spec in arbitrary_spec()) {
        let reference = naive(&spec);
        let plan = eve_relational::plan::plan(spec).unwrap();
        let planned = execute(&plan, &ExecOptions::serial()).unwrap();
        prop_assert_eq!(planned.name(), reference.name());
        prop_assert_eq!(planned.schema(), reference.schema());
        prop_assert_eq!(sorted_tuples(&planned), sorted_tuples(&reference));
        // Every input participates exactly once in the join order.
        let mut order = plan.join_order().to_vec();
        order.sort_unstable();
        prop_assert_eq!(order, (0..plan.join_order().len()).collect::<Vec<_>>());
    }

    // -------------------------------------------------------------------
    // Planning and execution are deterministic: two runs over the same
    // spec give byte-identical output (order included) and equal
    // estimates.
    // -------------------------------------------------------------------
    #[test]
    fn planned_execution_is_deterministic(spec in arbitrary_spec()) {
        let p1 = eve_relational::plan::plan(spec.clone()).unwrap();
        let p2 = eve_relational::plan::plan(spec).unwrap();
        prop_assert_eq!(p1.join_order(), p2.join_order());
        let (e1, e2) = (p1.estimate(), p2.estimate());
        prop_assert_eq!(e1, e2);
        let serial = ExecOptions::serial();
        let (r1, r2) = (execute(&p1, &serial).unwrap(), execute(&p2, &serial).unwrap());
        prop_assert_eq!(r1.tuples(), r2.tuples());
    }

    // -------------------------------------------------------------------
    // Estimates are finite and non-negative on every generated spec.
    // -------------------------------------------------------------------
    #[test]
    fn estimates_are_finite_and_nonnegative(spec in arbitrary_spec()) {
        let est = eve_relational::plan::plan(spec).unwrap().estimate();
        for v in [est.output_rows, est.io_blocks, est.cpu_tuples, est.total] {
            prop_assert!(v.is_finite() && v >= 0.0, "estimate {est:?}");
        }
        prop_assert!((est.total - (est.io_blocks + est.cpu_tuples)).abs() < 1e-9);
    }
}
