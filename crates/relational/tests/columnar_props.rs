//! Property suites for the columnar physical layer.
//!
//! Three invariant families:
//!
//! 1. **Interning round-trips** — `intern` → `resolve` is the identity on
//!    strings, interned equality coincides with string equality, and
//!    forcing a relation's columnar image (which interns every text value)
//!    never changes its distinct result.
//! 2. **Index/scan differential** — across random insert/delete op
//!    streams, index-backed equality and range lookups agree with a full
//!    scan after every single op.
//! 3. **Executor/naive differential** — planned execution over the
//!    columnar layer equals the naive algebra fold (`common::naive`) as a
//!    bag, on random specs over mixed Int/Text schemas.
//!
//! Case counts honour `PROPTEST_CASES` (CI smoke 64, nightly 256).

use proptest::prelude::*;

use eve_relational::exec::execute;
use eve_relational::{
    intern, ColumnDef, ColumnRef, CompOp, DataType, ExecOptions, IndexKind, PrimitiveClause,
    QueryInput, QuerySpec, Relation, Schema, Tuple, Value,
};

// ---------------------------------------------------------------------
// 1. Interning round-trips.
// ---------------------------------------------------------------------

fn arb_string() -> impl Strategy<Value = String> {
    "[a-c]{0,6}"
}

fn text_relation(rows: &[(i64, String)]) -> Relation {
    Relation::with_tuples(
        "T",
        Schema::of(&[("K", DataType::Int), ("S", DataType::Text)]).unwrap(),
        rows.iter()
            .map(|(k, s)| Tuple::new(vec![Value::Int(*k), Value::from(s.as_str())]))
            .collect(),
    )
    .unwrap()
}

// ---------------------------------------------------------------------
// 2. Index/scan differential across random evolution-op streams.
// ---------------------------------------------------------------------

/// One mutation of the op stream: insert a row, or delete every row whose
/// key column equals the pick.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, String),
    Delete(i64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (-4i64..5, arb_string()).prop_map(|(k, s)| Op::Insert(k, s)),
            (-4i64..5).prop_map(Op::Delete),
        ],
        1..24,
    )
}

/// Row ids whose `col` value satisfies `op` against `key`, by full scan.
fn scan_rows(rel: &Relation, col: usize, op: CompOp, key: &Value) -> Vec<u32> {
    rel.tuples()
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            t.get(col)
                .try_cmp(key)
                .map(|ord| op.eval(ord))
                .unwrap_or(false)
        })
        .map(|(i, _)| i as u32)
        .collect()
}

// ---------------------------------------------------------------------
// 3. Executor ≡ naive differential on random specs.
// ---------------------------------------------------------------------

mod common;
use common::{naive, sorted_tuples};

const BINDINGS: [&str; 2] = ["A", "B"];

/// A two-input spec over (Int, Text) schemas: equality join on a random
/// column pair of matching type, plus random literal clauses.
fn mixed_relation(binding: &str, rows: &[(i64, String)]) -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new(ColumnRef::qualified(binding, "K"), DataType::Int),
        ColumnDef::new(ColumnRef::qualified(binding, "S"), DataType::Text),
    ])
    .unwrap();
    Relation::with_tuples(
        binding,
        schema,
        rows.iter()
            .map(|(k, s)| Tuple::new(vec![Value::Int(*k), Value::from(s.as_str())]))
            .collect(),
    )
    .unwrap()
}

#[allow(clippy::type_complexity)]
fn arb_spec() -> impl Strategy<Value = QuerySpec> {
    (
        prop::collection::vec((-3i64..4, arb_string()), 0..8),
        prop::collection::vec((-3i64..4, arb_string()), 0..8),
        any::<bool>(), // join on Text (true) or Int (false)
        prop::collection::vec((any::<bool>(), 0usize..2, -3i64..4, arb_string()), 0..3),
    )
        .prop_map(|(rows_a, rows_b, text_join, lit_picks)| {
            let inputs: Vec<QueryInput> = [("A", &rows_a), ("B", &rows_b)]
                .into_iter()
                .map(|(b, rows)| QueryInput {
                    binding: b.to_owned(),
                    relation: mixed_relation(b, rows),
                    stats: None,
                })
                .collect();
            let mut clauses = vec![if text_join {
                PrimitiveClause::eq(
                    ColumnRef::qualified("A", "S"),
                    ColumnRef::qualified("B", "S"),
                )
            } else {
                PrimitiveClause::eq(
                    ColumnRef::qualified("A", "K"),
                    ColumnRef::qualified("B", "K"),
                )
            }];
            for (on_a, col, k, s) in lit_picks {
                let binding = BINDINGS[usize::from(!on_a)];
                clauses.push(if col == 0 {
                    PrimitiveClause::lit(
                        ColumnRef::qualified(binding, "K"),
                        CompOp::Le,
                        Value::Int(k),
                    )
                } else {
                    PrimitiveClause::lit(
                        ColumnRef::qualified(binding, "S"),
                        CompOp::Eq,
                        Value::from(s.as_str()),
                    )
                });
            }
            QuerySpec {
                name: "V".into(),
                inputs,
                clauses,
                projection: vec![
                    ColumnRef::qualified("A", "K"),
                    ColumnRef::qualified("B", "S"),
                ],
                output: vec![ColumnRef::bare("X0"), ColumnRef::bare("X1")],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // -------------------------------------------------------------------
    // intern → resolve is the identity; symbol equality ≡ string
    // equality.
    // -------------------------------------------------------------------
    #[test]
    fn interning_round_trips(a in arb_string(), b in arb_string()) {
        let sa = intern::intern(&a);
        let sb = intern::intern(&b);
        let (ra, rb) = (intern::resolve(sa), intern::resolve(sb));
        prop_assert_eq!(ra.as_ref(), a.as_str());
        prop_assert_eq!(rb.as_ref(), b.as_str());
        prop_assert_eq!(sa == sb, a == b, "symbol equality ≡ string equality");
        prop_assert_eq!(intern::intern(&a), sa, "interning is stable");
        prop_assert_eq!(intern::lookup(&a), Some(sa));
    }

    // -------------------------------------------------------------------
    // Forcing the columnar image (which interns every text value) never
    // changes the distinct result — byte-identical pre/post interning.
    // -------------------------------------------------------------------
    #[test]
    fn distinct_is_byte_identical_pre_and_post_interning(
        rows in prop::collection::vec((-4i64..5, arb_string()), 0..12)
    ) {
        let cold = text_relation(&rows);
        let before = cold.distinct();
        let warm = text_relation(&rows);
        let _ = warm.columnar(); // interns every text value
        prop_assert!(warm.columnar_built());
        let after = warm.distinct();
        prop_assert_eq!(before.tuples(), after.tuples());
        let again = cold.distinct();
        prop_assert_eq!(again.tuples(), before.tuples(), "distinct is stable");
    }

    // -------------------------------------------------------------------
    // Index lookups agree with full scans after every op of a random
    // insert/delete stream, on both a hash (Text) and a sorted (Int)
    // index warmed *before* the stream runs.
    // -------------------------------------------------------------------
    #[test]
    fn indexes_stay_consistent_across_random_op_streams(ops in arb_ops()) {
        let mut rel = text_relation(&[(0, "a".into()), (1, "b".into())]);
        rel.warm_index(0, IndexKind::Sorted);
        rel.warm_index(1, IndexKind::Hash);
        for op in ops {
            match op {
                Op::Insert(k, s) => {
                    rel.insert(Tuple::new(vec![Value::Int(k), Value::from(s.as_str())])).unwrap();
                }
                Op::Delete(k) => {
                    let doomed: Vec<Tuple> = rel
                        .tuples()
                        .iter()
                        .filter(|t| t.get(0) == &Value::Int(k))
                        .cloned()
                        .collect();
                    rel.delete(&doomed);
                }
            }
            prop_assert!(rel.has_index(0, IndexKind::Sorted), "maintained, not dropped");
            prop_assert!(rel.has_index(1, IndexKind::Hash));
            for k in -4i64..5 {
                let key = Value::Int(k);
                for cmp in [CompOp::Eq, CompOp::Lt, CompOp::Le, CompOp::Ge, CompOp::Gt] {
                    prop_assert_eq!(
                        rel.index_range_rows(0, cmp, &key),
                        scan_rows(&rel, 0, cmp, &key),
                        "sorted index {:?} {}", cmp, k
                    );
                }
            }
            for probe in ["", "a", "ab", "abc", "zzz-never-inserted"] {
                let key = Value::from(probe);
                prop_assert_eq!(
                    rel.index_eq_rows(1, &key),
                    scan_rows(&rel, 1, CompOp::Eq, &key),
                    "hash index probe {:?}", probe
                );
            }
        }
    }

    // -------------------------------------------------------------------
    // Columnar execution ≡ the naive fold, as bags, on random mixed
    // Int/Text specs (interned join keys included).
    // -------------------------------------------------------------------
    #[test]
    fn columnar_execution_equals_row_execution(spec in arb_spec()) {
        let reference = naive(&spec);
        let plan = eve_relational::plan::plan(spec).unwrap();
        let col = execute(&plan, &ExecOptions::serial()).unwrap();
        prop_assert_eq!(reference.schema(), col.schema());
        prop_assert_eq!(sorted_tuples(&reference), sorted_tuples(&col), "same bag");
    }

    // -------------------------------------------------------------------
    // Index-backed scans agree with predicate evaluation through the
    // whole planner: a plan over an indexed relation returns the same
    // bag whether or not an IndexScan was chosen.
    // -------------------------------------------------------------------
    #[test]
    fn planned_output_is_independent_of_warmed_indexes(
        rows in prop::collection::vec((-3i64..4, arb_string()), 0..10),
        k in -3i64..4,
    ) {
        let mk_spec = |rel: Relation| QuerySpec {
            name: "V".into(),
            inputs: vec![QueryInput { binding: "A".into(), relation: rel, stats: None }],
            clauses: vec![PrimitiveClause::lit(
                ColumnRef::qualified("A", "K"),
                CompOp::Le,
                Value::Int(k),
            )],
            projection: vec![
                ColumnRef::qualified("A", "K"),
                ColumnRef::qualified("A", "S"),
            ],
            output: vec![ColumnRef::bare("X0"), ColumnRef::bare("X1")],
        };
        let serial = ExecOptions::serial();
        let cold = execute(
            &eve_relational::plan::plan(mk_spec(mixed_relation("A", &rows))).unwrap(),
            &serial,
        ).unwrap();
        let indexed = mixed_relation("A", &rows);
        indexed.warm_index(0, IndexKind::Sorted);
        indexed.warm_index(1, IndexKind::Hash);
        let warm = execute(&eve_relational::plan::plan(mk_spec(indexed)).unwrap(), &serial)
            .unwrap();
        prop_assert_eq!(cold.tuples(), warm.tuples());
    }
}
