//! # eve-system
//!
//! The executable EVE runtime (paper Fig. 1): a simulated multi-site
//! information space with a materialized-view warehouse on top.
//!
//! Where `eve-qc` *predicts* maintenance costs analytically, this crate
//! *executes* them: base relations live at [`site::SimSite`]s, views are
//! evaluated by a real query processor ([`query`]), and data updates are
//! propagated by the incremental view-maintenance walk of Algorithm 1
//! ([`maintainer`]) while counting actual messages, bytes and block I/Os —
//! the measured counterpart used to validate the analytic `CF_M`/`CF_T`/
//! `CF_IO` factors.
//!
//! [`engine::EveEngine`] wires everything together: IS registration into the
//! MKB, E-SQL view definition, update notifications routed to the view
//! maintainer, and capability-change notifications routed through view
//! synchronization + QC-Model ranking to adopt the best legal rewriting
//! (completing the paper's Fig. 1 loop).
//!
//! Every evaluation path — view definition, capability-change
//! re-materialization, recomputation baselines and the maintainer's delta
//! joins — executes through the cost-ordered physical layer of
//! [`eve_relational::plan`]/[`eve_relational::exec`];
//! [`query::evaluate_view_naive`] keeps the historical left-to-right fold
//! as the reference the differential suites compare against.
//!
//! [`batch`] scales that loop to bursts: [`engine::EveEngine::apply_batch`]
//! takes a whole evolution workload, partitions independent sites and
//! processes them concurrently, memoizing rewriting enumeration per MKB
//! generation — observationally identical to the op-by-op paths (the
//! differential property suite pins this) but substantially faster.
//!
//! [`scenario`] builds deterministic synthetic information spaces whose
//! *measured* statistics (join matches per key, selectivities) equal the
//! *declared* MKB statistics, so measured and analytic costs can be compared
//! exactly.

pub mod batch;
pub mod durable;
pub mod engine;
pub mod error;
pub mod maintainer;
pub mod query;
pub mod scenario;
pub mod shell;
pub mod site;

pub use durable::{DurableEngine, RecoveryReport};
pub use engine::{
    Applied, BatchOutcome, ColumnLayerStats, EveEngine, EvolutionReport, IndexHint, SearchMode,
};
pub use error::{Error, Result};
/// The engine's single mutation vocabulary: every mutation the shell, the
/// server and log replay perform is one of these, applied by
/// [`EveEngine::apply`] (or durably by [`DurableEngine::apply`]). It *is*
/// the evolution log's record type, so what is applied is what is logged.
pub use eve_store::LogRecord as Command;
pub use eve_sync::EvolutionOp;
pub use maintainer::{DataUpdate, MaintenanceTrace};
pub use shell::Shell;
pub use site::SimSite;
