//! The executor's single reference: the naive algebra fold every
//! differential suite compares planned execution against, as a bag.
//!
//! Shared by the integration suites (`mod common;`) and by `exec.rs`'s unit
//! tests (through a `#[path]` module).

use eve_relational::algebra::{cartesian, project, rename_columns, select};
use eve_relational::{Predicate, QuerySpec, Relation, Tuple};

/// The naive reference: cartesian-fold all inputs, apply the whole
/// conjunction at once, project and rename.
///
/// # Panics
///
/// When the spec is not well-typed for the algebra operators.
#[must_use]
pub fn naive(spec: &QuerySpec) -> Relation {
    let mut acc = spec.inputs[0].relation.clone();
    for input in &spec.inputs[1..] {
        acc = cartesian(&acc, &input.relation).unwrap();
    }
    let selected = select(&acc, &Predicate::new(spec.clauses.clone())).unwrap();
    let projected = project(&selected, &spec.projection, false).unwrap();
    let mut renamed = rename_columns(&projected, &spec.output).unwrap();
    renamed.set_name(spec.name.clone());
    renamed
}

/// A relation's tuples in sorted order — its bag, comparable across
/// executions that may order rows differently.
#[must_use]
pub fn sorted_tuples(rel: &Relation) -> Vec<Tuple> {
    let mut v = rel.tuples().to_vec();
    v.sort();
    v
}
