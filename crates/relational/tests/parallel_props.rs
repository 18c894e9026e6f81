//! Property suites for morsel-driven parallel execution.
//!
//! Two invariant families:
//!
//! 1. **Parallel ≡ serial differential** — through the whole planner, a
//!    random spec executed with morsel parallelism (any thread count ×
//!    any morsel size, `force_parallel` so the planner's tiny-input veto
//!    cannot make the property vacuous) is byte-identical (order
//!    included) to serial execution, which itself equals the naive algebra
//!    fold (`common::naive`) as a bag.
//! 2. **Failure containment** — a worker that panics or errors on an
//!    arbitrary morsel surfaces a typed error from `run_morsels`; the
//!    pool never hangs and never returns a partial extent.
//!
//! Case counts honour `PROPTEST_CASES` (CI smoke 64, nightly 256).

use proptest::prelude::*;

use eve_relational::exec::execute;
use eve_relational::morsel::run_morsels;
use eve_relational::{
    ColumnDef, ColumnRef, CompOp, DataType, Error, ExecOptions, PrimitiveClause, QueryInput,
    QuerySpec, Relation, Schema, Tuple, Value,
};

mod common;
use common::{naive, sorted_tuples};

const BINDINGS: [&str; 2] = ["A", "B"];

fn arb_string() -> impl Strategy<Value = String> {
    "[a-c]{0,6}"
}

/// A two-input spec over (Int, Text) schemas: equality join on a random
/// column pair of matching type, plus random literal clauses. Mirrors
/// the columnar/naive differential generator so the parallel path is
/// exercised on the same spec distribution.
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

/// The knob grid from the tentpole: thread counts × morsel sizes,
/// including the degenerate one-row-per-morsel extreme.
fn arb_exec_options() -> impl Strategy<Value = ExecOptions> {
    (
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![1usize, 7, 64, 4096]),
    )
        .prop_map(|(parallelism, morsel_rows)| ExecOptions {
            parallelism,
            morsel_rows,
            force_parallel: true,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // -------------------------------------------------------------------
    // Parallel ≡ serial, byte for byte, and serial ≡ the naive fold as
    // bags, through the planner, across the whole knob grid.
    // -------------------------------------------------------------------
    #[test]
    fn parallel_execution_equals_serial_and_row(
        spec in arb_spec(),
        opts in arb_exec_options(),
    ) {
        let reference = naive(&spec);
        let plan = eve_relational::plan::plan(spec).unwrap();
        let serial = execute(&plan, &ExecOptions::serial()).unwrap();
        let parallel = execute(&plan, &opts).unwrap();
        prop_assert_eq!(reference.schema(), serial.schema());
        prop_assert_eq!(serial.schema(), parallel.schema());
        prop_assert_eq!(sorted_tuples(&reference), sorted_tuples(&serial), "columnar ≡ naive");
        prop_assert_eq!(
            serial.tuples(),
            parallel.tuples(),
            "parallel {}x{} ≡ serial, order included",
            opts.parallelism,
            opts.morsel_rows
        );
    }

    // -------------------------------------------------------------------
    // A worker panicking on an arbitrary morsel surfaces as a typed
    // `Error::Parallel` carrying the payload — never a hang, never a
    // partial result.
    // -------------------------------------------------------------------
    #[test]
    fn worker_panic_is_a_typed_error_never_a_partial_result(
        workers in 2usize..=8,
        morsels in 1usize..48,
        victim_seed in any::<u64>(),
    ) {
        let victim = victim_seed as usize % morsels;
        let out = run_morsels(workers, morsels, |i| {
            if i == victim {
                panic!("boom at morsel {i}");
            }
            Ok(i)
        });
        match out {
            Err(Error::Parallel { detail }) => {
                prop_assert!(
                    detail.contains(&format!("boom at morsel {victim}")),
                    "panic payload survives: {detail}"
                );
            }
            other => prop_assert!(false, "expected Error::Parallel, got {:?}", other),
        }
    }

    // -------------------------------------------------------------------
    // A worker returning Err behaves like the panic case: that error
    // (not a wrapper, not a partial extent) is what the caller sees.
    // -------------------------------------------------------------------
    #[test]
    fn worker_error_propagates_verbatim(
        workers in 1usize..=8,
        morsels in 1usize..48,
        victim_seed in any::<u64>(),
    ) {
        let victim = victim_seed as usize % morsels;
        let out: Result<Vec<usize>, _> = run_morsels(workers, morsels, |i| {
            if i == victim {
                Err(Error::Parallel { detail: format!("sick morsel {i}") })
            } else {
                Ok(i)
            }
        });
        match out {
            Err(Error::Parallel { detail }) => {
                prop_assert_eq!(detail, format!("sick morsel {}", victim));
            }
            other => prop_assert!(false, "expected Error::Parallel, got {:?}", other),
        }
    }

    // -------------------------------------------------------------------
    // When no worker fails, morsel outputs come back in morsel order
    // regardless of thread count and stealing.
    // -------------------------------------------------------------------
    #[test]
    fn morsel_outputs_always_merge_in_morsel_order(
        workers in 1usize..=8,
        morsels in 0usize..64,
    ) {
        let out = run_morsels(workers, morsels, Ok).unwrap();
        prop_assert_eq!(out, (0..morsels).collect::<Vec<_>>());
    }
}
