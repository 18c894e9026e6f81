//! # eve-relational
//!
//! In-memory relational engine substrate for the EVE (Evolvable View
//! Environment) reproduction of *"Data Warehouse Evolution: Trade-offs between
//! Quality and Cost of Query Rewritings"* (Lee, Koeller, Nica, Rundensteiner;
//! ICDE 1999).
//!
//! The paper's QC-Model compares *non-equivalent* view rewritings by the
//! information they preserve and the maintenance cost they incur. Both sides
//! need a concrete relational model underneath:
//!
//! * typed [`Value`]s, [`Schema`]s and [`Relation`]s ([`types`], [`schema`],
//!   [`relation`]),
//! * the paper's *primitive clauses* `attr θ attr` / `attr θ value` with
//!   `θ ∈ {<, ≤, =, ≥, >}` ([`predicate`]),
//! * the relational algebra used by view queries and the view-maintenance
//!   algorithm ([`algebra`]),
//! * a cost-ordered physical query layer: statistics-driven planning with
//!   pushed-down selections and greedy join reordering ([`plan`]) and a
//!   zero-copy executor over the `Arc`-shared tuple storage ([`exec`]),
//! * the *common-subset-of-attributes* operators of Fig. 7 (`=~`, `⊆~`, `∩~`,
//!   `\~`) used to compare extents of views with different interfaces
//!   ([`common`]),
//! * measured statistics — selectivity and join selectivity — mirroring the
//!   database statistics the paper assumes are registered in the MKB
//!   ([`stats`]),
//! * a deterministic synthetic data generator able to realize the containment
//!   (PC) and join-selectivity assumptions of the paper's experiments
//!   ([`generator`]).
//!
//! Everything is deterministic: iteration orders are defined and all
//! randomness is seeded.

pub mod algebra;
pub mod column;
pub mod common;
pub mod error;
pub mod exec;
pub mod generator;
pub mod index;
pub mod intern;
pub mod morsel;
pub mod plan;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod tuple;
pub mod types;

pub use column::{Column, ColumnarBatch};
pub use error::{Error, Result};
pub use index::{IndexKind, IndexStats};
pub use intern::{InternStats, Symbol};
pub use morsel::{ExecOptions, ExecStats};
pub use plan::{PhysicalPlan, PlanEstimate, QueryInput, QuerySpec};
pub use predicate::{CompOp, Operand, Predicate, PrimitiveClause};
pub use relation::Relation;
pub use schema::{ColumnDef, ColumnRef, Schema};
pub use stats::RelationStats;
pub use tuple::Tuple;
pub use types::{DataType, Value};

// The unit tests share the integration suites' reference module
// (`tests/common`), which names this crate by its external path.
#[cfg(test)]
extern crate self as eve_relational;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod reference;
