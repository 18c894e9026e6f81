//! The end-to-end EVE engine (paper Fig. 1).
//!
//! Wires all components together: information sources register relations
//! (data at [`SimSite`]s, metadata in the [`Mkb`]); users define E-SQL views
//! whose extents are materialized in the warehouse; data updates flow
//! through the view maintainer; capability changes flow through view
//! synchronization, QC-Model ranking and rewriting adoption.

use std::collections::BTreeMap;

use eve_esql::ViewDef;
use eve_misd::{Mkb, RelationInfo, SchemaChange, SiteId};
use eve_qc::cost::{cost_factors, CostFactors};
use eve_qc::{
    plans_for_view, rank_rewritings, workload, QcParams, ScoredRewriting, SelectionStrategy,
    WorkloadModel,
};
use eve_relational::{
    ExecOptions, ExecStats, IndexKind, IndexStats, InternStats, Relation, Tuple, Value,
};
use eve_sync::{
    synchronize, EvolutionOp, HeuristicOptions, RewriteCache, SyncOptions, SyncOutcome,
};

use crate::error::{Error, Result};
use crate::maintainer::{maintain_view, DataUpdate, MaintenanceTrace};
use crate::site::SimSite;
use crate::Command;

/// A materialized view: definition + warehouse extent.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    /// Current (possibly evolved) definition.
    pub def: ViewDef,
    /// Materialized extent (bag semantics).
    pub extent: Relation,
}

/// Outcome of one [`EveEngine::apply_batch`] call.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Merged per-view maintenance traces of all data ops (only views the
    /// batch actually maintained appear).
    pub traces: BTreeMap<String, MaintenanceTrace>,
    /// Evolution reports of all capability ops, in op order (one entry per
    /// view per capability op, exactly as the per-change notification
    /// emits them).
    pub reports: Vec<EvolutionReport>,
    /// Number of data ops processed.
    pub data_ops: usize,
    /// Number of capability ops processed.
    pub capability_ops: usize,
    /// Number of data stages (runs between capability barriers).
    pub data_stages: usize,
    /// Widest data stage: how many partitions were eligible to run
    /// concurrently.
    pub max_width: usize,
    /// Rewriting-cache hits during this batch.
    pub rewrite_hits: u64,
    /// Rewriting-cache misses during this batch.
    pub rewrite_misses: u64,
}

/// What one [`EveEngine::apply`] did.
#[derive(Debug, Clone)]
pub struct Applied {
    /// Whether the command changed the engine state. Only re-declaring an
    /// index hint already on file leaves it unchanged (the index is still
    /// re-warmed); such a command is not logged.
    pub changed: bool,
    /// The outcome of a [`Command::Batch`]; empty for every other command.
    pub outcome: BatchOutcome,
}

/// Outcome of a capability change for one view.
#[derive(Debug, Clone)]
pub struct EvolutionReport {
    /// The view's name.
    pub view_name: String,
    /// Whether the change affected the view at all.
    pub affected: bool,
    /// Whether the view survived (unaffected, or a rewriting was adopted).
    pub survived: bool,
    /// Number of legal rewritings the synchronizer generated.
    pub candidates: usize,
    /// The adopted rewriting with its QC assessment, if any.
    pub adopted: Option<ScoredRewriting>,
}

/// How the engine explores the rewriting search space when a capability
/// change arrives. Kept in its persisted form, like [`IndexHint`].
pub use eve_store::SearchModeState as SearchMode;

/// One declared secondary index: relation, column and physical shape.
/// Declarations are durable engine state (they survive snapshots and log
/// replay) and are kept in their persisted form; the index *contents* are
/// reconstructible and are re-warmed lazily.
pub use eve_store::IndexHintState as IndexHint;

/// Aggregated columnar/index/interning counters across every relation
/// extent the engine holds (site-hosted base relations plus materialized
/// view extents) — the shell `stats` and server stats surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnLayerStats {
    /// Relation extents scanned (site-hosted + view extents).
    pub extents: usize,
    /// Extents whose columnar image has been materialized.
    pub columnar_built: usize,
    /// Merged secondary-index counters of every extent.
    pub index: IndexStats,
    /// Global string-interning pool counters.
    pub intern: InternStats,
    /// Process-wide morsel scheduler counters (morsels dispatched, deque
    /// steals, join partitions built, parallel vs declined operators).
    pub exec: ExecStats,
}

/// The EVE engine.
#[derive(Debug, Clone)]
pub struct EveEngine {
    pub(crate) mkb: Mkb,
    pub(crate) sites: BTreeMap<u32, SimSite>,
    pub(crate) views: BTreeMap<String, MaterializedView>,
    /// Declared secondary indexes, in declaration order.
    pub(crate) index_hints: Vec<IndexHint>,
    /// Memoized rewriting enumeration, keyed on the MKB generation (shared
    /// by the batched pipeline and the single-change notification path).
    pub(crate) rewrite_cache: RewriteCache,
    /// Synchronizer options.
    pub sync_options: SyncOptions,
    /// QC-Model parameters.
    pub qc_params: QcParams,
    /// Workload model for cost aggregation.
    pub workload: WorkloadModel,
    /// How the engine picks among legal rewritings.
    pub strategy: SelectionStrategy,
    /// How the engine explores the rewriting search space.
    pub search: SearchMode,
    /// Intra-query execution knobs: morsel parallelism for view
    /// evaluation and maintainer recomputes. Runtime tuning only — not
    /// part of durable snapshots, so recovery starts serial.
    pub exec_options: ExecOptions,
}

impl Default for EveEngine {
    fn default() -> Self {
        EveEngine::new()
    }
}

impl EveEngine {
    /// An engine with paper-default parameters and QC-best selection.
    #[must_use]
    pub fn new() -> EveEngine {
        EveEngine {
            mkb: Mkb::new(),
            sites: BTreeMap::new(),
            views: BTreeMap::new(),
            index_hints: Vec::new(),
            rewrite_cache: RewriteCache::new(),
            sync_options: SyncOptions::default(),
            qc_params: QcParams::default(),
            workload: WorkloadModel::SingleUpdate,
            strategy: SelectionStrategy::QcBest,
            search: SearchMode::default(),
            exec_options: ExecOptions::default(),
        }
    }

    /// The meta knowledge base.
    #[must_use]
    pub fn mkb(&self) -> &Mkb {
        &self.mkb
    }

    /// Mutable MKB access (to add constraints and selectivities).
    pub fn mkb_mut(&mut self) -> &mut Mkb {
        &mut self.mkb
    }

    /// Registers an information source.
    ///
    /// # Errors
    ///
    /// Duplicate site ids.
    pub fn add_site(&mut self, id: SiteId, name: impl Into<String>) -> Result<()> {
        let name = name.into();
        self.mkb.register_site(id, name.clone())?;
        self.sites.insert(id.0, SimSite::new(id, name));
        Ok(())
    }

    /// Registers a relation: metadata into the MKB, extent at its site.
    /// The extent's schema must match the declared attributes.
    ///
    /// # Errors
    ///
    /// Unknown site, duplicate names, schema mismatches.
    pub fn register_relation(&mut self, info: RelationInfo, extent: Relation) -> Result<()> {
        if extent.schema().arity() != info.attributes.len() {
            return Err(Error::State {
                detail: format!(
                    "extent of `{}` has {} columns, declaration has {}",
                    info.name,
                    extent.schema().arity(),
                    info.attributes.len()
                ),
            });
        }
        for (col, attr) in extent.schema().columns().iter().zip(&info.attributes) {
            if col.ty != attr.ty {
                return Err(Error::State {
                    detail: format!(
                        "extent column `{}` of `{}` is {}, declared {}",
                        col.column, info.name, col.ty, attr.ty
                    ),
                });
            }
        }
        let site_id = info.site;
        let bfr = info.blocking_factor;
        let mut named = extent;
        named.set_name(info.name.clone());
        self.mkb.register_relation(info)?;
        site_mut(&mut self.sites, site_id.0)?.host(named, bfr)
    }

    /// Seeds base data at the relation's hosting site without view
    /// maintenance (initial loading).
    ///
    /// # Errors
    ///
    /// Unknown relation or site, schema-mismatched tuples.
    pub fn seed_tuples(&mut self, relation: &str, tuples: &[Tuple]) -> Result<()> {
        let site_id = self.mkb.relation(relation)?.site.0;
        site_mut(&mut self.sites, site_id)?.apply_update(relation, tuples, &[])
    }

    /// Applies one [`Command`]: the single mutation path that the shell,
    /// the server and log replay all share. A failed command other than
    /// [`Command::Batch`] leaves the engine untouched; a failed batch
    /// leaves it whole but possibly partially applied (see [`crate::batch`]).
    ///
    /// # Errors
    ///
    /// Whatever the underlying mutation reports: unknown sites or
    /// relations, MKB constraint violations, view validation failures.
    pub fn apply(&mut self, command: &Command) -> Result<Applied> {
        let mut applied = Applied {
            changed: true,
            outcome: BatchOutcome::default(),
        };
        match command {
            Command::AddSite { id, name } => self.add_site(SiteId(*id), name.clone())?,
            Command::RegisterRelation { info, extent } => {
                self.register_relation(info.clone(), extent.clone())?;
            }
            Command::SeedTuples { relation, tuples } => self.seed_tuples(relation, tuples)?,
            Command::AddPcConstraint(pc) => self.mkb.add_pc_constraint(pc.clone())?,
            Command::AddJoinConstraint(jc) => self.mkb.add_join_constraint(jc.clone())?,
            Command::SetJoinSelectivity { left, right, js } => {
                self.mkb.set_join_selectivity(left, right, *js);
            }
            Command::SetDefaultJoinSelectivity { js } => {
                self.mkb.set_default_join_selectivity(*js);
            }
            Command::DefineView(def) => {
                self.define_view(def.clone())?;
            }
            Command::DropView { name } => {
                self.drop_view(name)?;
            }
            Command::Batch(ops) => applied.outcome = self.apply_batch(ops.clone())?,
            Command::DeclareIndex(hint) => {
                applied.changed = self.declare_index(&hint.relation, &hint.column, hint.kind)?;
            }
        }
        Ok(applied)
    }

    /// The extent of base relation `relation` at its hosting site.
    fn hosted(&self, relation: &str) -> Result<&Relation> {
        let site_id = self.mkb.relation(relation)?.site.0;
        self.sites
            .get(&site_id)
            .ok_or_else(|| Error::State {
                detail: format!("unknown site {site_id}"),
            })?
            .relation(relation)
    }

    /// Gathers the base extents a view needs.
    fn extents_for(&self, view: &ViewDef) -> Result<BTreeMap<String, Relation>> {
        let mut resolved: BTreeMap<String, Relation> = BTreeMap::new();
        for item in &view.from {
            if resolved.contains_key(&item.relation) {
                continue;
            }
            resolved.insert(item.relation.clone(), self.hosted(&item.relation)?.clone());
        }
        Ok(resolved)
    }

    /// Evaluates a view definition against the current information space
    /// (no materialization, no accounting). Execution goes through the
    /// physical planner, steered by the MKB's declared §6.1 statistics
    /// (cardinality, selectivity, blocking factor); relations the MKB does
    /// not know fall back to measured statistics.
    ///
    /// # Errors
    ///
    /// Validation/state/relational failures.
    pub fn evaluate(&self, view: &ViewDef) -> Result<Relation> {
        let extents = self.extents_for(view)?;
        crate::query::evaluate_view(
            view,
            &extents,
            &self.declared_stats(view),
            &self.exec_options,
        )
    }

    /// Declared [`eve_relational::RelationStats`] for every FROM relation
    /// of `view` the MKB knows about.
    fn declared_stats(&self, view: &ViewDef) -> BTreeMap<String, eve_relational::RelationStats> {
        let mut stats = BTreeMap::new();
        for item in &view.from {
            if let Ok(info) = self.mkb.relation(&item.relation) {
                stats.insert(
                    item.relation.clone(),
                    eve_relational::RelationStats {
                        cardinality: info.cardinality,
                        tuple_bytes: info.tuple_bytes(),
                        selectivity: info.selectivity,
                        blocking_factor: info.blocking_factor,
                    },
                );
            }
        }
        stats
    }

    /// Validates a view against the MKB: relations registered, attributes
    /// exist, clause types check out.
    ///
    /// # Errors
    ///
    /// [`Error::Validation`] with the first problem found.
    pub fn check_view(&self, view: &ViewDef) -> Result<ViewDef> {
        let view = eve_esql::validate::validate(view).map_err(|e| Error::Validation(e.message))?;
        for item in &view.from {
            let info = self.mkb.relation(&item.relation)?;
            for sel in view.select_items_of(item.binding_name()) {
                if !info.has_attribute(&sel.attr.name) {
                    return Err(Error::Validation(format!(
                        "`{}` has no attribute `{}`",
                        item.relation, sel.attr.name
                    )));
                }
            }
        }
        for cond in &view.conditions {
            for col in cond.clause.columns() {
                let Some(binding) = col.qualifier.as_deref() else {
                    continue;
                };
                let Some(item) = view.from_item(binding) else {
                    continue;
                };
                let info = self.mkb.relation(&item.relation)?;
                if !info.has_attribute(&col.name) {
                    return Err(Error::Validation(format!(
                        "`{}` has no attribute `{}`",
                        item.relation, col.name
                    )));
                }
            }
        }
        Ok(view)
    }

    /// Defines a view from E-SQL source text, materializing its extent.
    ///
    /// # Errors
    ///
    /// Parse/validation/evaluation failures, or a duplicate view name.
    pub fn define_view_sql(&mut self, sql: &str) -> Result<&MaterializedView> {
        let view = eve_esql::parse_view(sql)?;
        self.define_view(view)
    }

    /// Defines a view, materializing its extent in the warehouse.
    ///
    /// # Errors
    ///
    /// Validation/evaluation failures, or a duplicate view name.
    pub fn define_view(&mut self, view: ViewDef) -> Result<&MaterializedView> {
        let view = self.check_view(&view)?;
        if self.views.contains_key(&view.name) {
            return Err(Error::State {
                detail: format!("view `{}` already defined", view.name),
            });
        }
        let extent = self.evaluate(&view)?;
        let name = view.name.clone();
        self.views
            .insert(name.clone(), MaterializedView { def: view, extent });
        Ok(&self.views[&name])
    }

    /// Looks up a materialized view.
    ///
    /// # Errors
    ///
    /// [`Error::State`] when undefined.
    pub fn view(&self, name: &str) -> Result<&MaterializedView> {
        self.views.get(name).ok_or_else(|| Error::State {
            detail: format!("no view named `{name}`"),
        })
    }

    /// All materialized views, ordered by name.
    pub fn views(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views.values()
    }

    /// Applies a data update at its source and incrementally maintains every
    /// affected view, returning per-view traces.
    ///
    /// # Errors
    ///
    /// State/validation failures. The base update is applied first; views
    /// are then maintained in name order.
    pub fn notify_data_update(
        &mut self,
        update: &DataUpdate,
    ) -> Result<Vec<(String, MaintenanceTrace)>> {
        let _span = eve_trace::span("engine.data_update");
        eve_trace::global().counter("engine.data_updates").inc();
        let site_id = self.mkb.relation(&update.relation)?.site.0;
        // The maintenance walk joins deltas against the *post-update* base
        // state for inserts processed after application; apply first, as the
        // paper assumes update notifications follow the source change.
        site_mut(&mut self.sites, site_id)?.apply_update(
            &update.relation,
            &update.inserts,
            &update.deletes,
        )?;

        let mut traces = Vec::new();
        let names: Vec<String> = self.views.keys().cloned().collect();
        for name in names {
            let mut mv = self.views.remove(&name).expect("exists");
            let trace = maintain_view(&mv.def, &mut mv.extent, update, &mut self.sites, &self.mkb)?;
            self.views.insert(name.clone(), mv);
            traces.push((name, trace));
        }
        Ok(traces)
    }

    /// Processes a capability change end-to-end (the paper's Fig. 1 loop):
    ///
    /// 1. every affected view is synchronized against the *pre-change* MKB
    ///    (through the engine's memoized [`RewriteCache`]),
    /// 2. legal rewritings are ranked by the QC-Model and one is selected
    ///    per the engine's [`SelectionStrategy`],
    /// 3. the change is applied to the MKB and the hosting site
    ///    (`new_extent` supplies the data for `add-relation`; added
    ///    attributes backfill with type defaults),
    /// 4. adopted rewritings are re-materialized; views with no legal
    ///    rewriting are dropped from the warehouse.
    ///
    /// This routes through [`EveEngine::apply_batch`] as a single-op batch;
    /// [`EveEngine::notify_capability_change_sequential`] keeps the
    /// uncached all-views reference implementation that the differential
    /// test harness compares against.
    ///
    /// # Errors
    ///
    /// Synchronization, ranking, MKB or state failures.
    pub fn notify_capability_change(
        &mut self,
        change: &SchemaChange,
        new_extent: Option<Relation>,
    ) -> Result<Vec<EvolutionReport>> {
        let outcome = self.apply_batch(vec![EvolutionOp::Capability {
            change: change.clone(),
            new_extent,
        }])?;
        Ok(outcome.reports)
    }

    /// The legacy capability-change path: synchronizes **every** view with
    /// the uncached synchronizer and always builds the ranking MKB. Kept as
    /// the reference implementation the differential property suite holds
    /// the batched pipeline against.
    ///
    /// # Errors
    ///
    /// Synchronization, ranking, MKB or state failures.
    pub fn notify_capability_change_sequential(
        &mut self,
        change: &SchemaChange,
        new_extent: Option<Relation>,
    ) -> Result<Vec<EvolutionReport>> {
        let rank_mkb = self.build_rank_mkb(change)?;
        let mut decisions: Vec<(String, EvolutionReport, Option<ViewDef>)> = Vec::new();
        for (name, mv) in &self.views {
            let outcome = synchronize(&mv.def, change, &self.mkb, &self.sync_options)?;
            decisions.push(self.decide(name, &mv.def, &outcome, &rank_mkb)?);
        }
        self.commit_capability_change(change, new_extent, decisions)
    }

    /// The batched capability-change primitive: skips views that cannot
    /// reference the changed relation, synchronizes the rest through the
    /// engine's [`SearchMode`] (the default [`SearchMode::Exhaustive`] goes
    /// through the [`RewriteCache`]; `BestFirst`/`Beam` run the streaming
    /// enumerator), and builds the ranking MKB only when some view is
    /// actually affected. Under the exhaustive mode verdicts are identical
    /// to the sequential path — the prefilter is a sound superset of the
    /// synchronizer's own affectedness notion; the pruned modes trade the
    /// candidate tail for search-time bounds.
    pub(crate) fn capability_change_batched(
        &mut self,
        change: &SchemaChange,
        new_extent: Option<Relation>,
    ) -> Result<Vec<EvolutionReport>> {
        let touched = eve_sync::batch::touched_relation(change);
        let mut rank_mkb: Option<Mkb> = None;
        let mut decisions: Vec<(String, EvolutionReport, Option<ViewDef>)> = Vec::new();
        for (name, mv) in &self.views {
            let candidate =
                touched.is_some_and(|rel| mv.def.from.iter().any(|f| f.relation == rel));
            if !candidate {
                decisions.push((name.clone(), Self::unaffected_report(name), None));
                continue;
            }
            let outcome = match self.search {
                SearchMode::Exhaustive => self.rewrite_cache.synchronize(
                    &mv.def,
                    change,
                    &self.mkb,
                    &self.sync_options,
                )?,
                SearchMode::BestFirst => {
                    let guide =
                        eve_qc::QcGuide::auto(&mv.def, &self.mkb, &self.qc_params, self.workload)?;
                    // Route through the RewriteCache's shared PartnerCache
                    // so pruned searches over many views reuse one partner
                    // closure per relation (outcomes are not memoized).
                    self.rewrite_cache
                        .synchronize_with_policy(
                            &mv.def,
                            change,
                            &self.mkb,
                            &self.sync_options,
                            &eve_sync::ExplorationPolicy::BestFirst { guide: &guide },
                        )?
                        .0
                }
                SearchMode::Beam { width } => {
                    // Drive the beam through the engine's own sync_options
                    // (max_rewritings, dispensable-drop spectrum) — unlike
                    // `synchronize_heuristic`, which owns its options.
                    let guide = eve_sync::HeuristicGuide::new(&HeuristicOptions {
                        max_candidates: width.max(1),
                        ..HeuristicOptions::default()
                    })?;
                    self.rewrite_cache
                        .synchronize_with_policy(
                            &mv.def,
                            change,
                            &self.mkb,
                            &self.sync_options,
                            &eve_sync::ExplorationPolicy::Beam {
                                width: width.max(1),
                                guide: &guide,
                            },
                        )?
                        .0
                }
            };
            if !outcome.affected {
                decisions.push((name.clone(), Self::unaffected_report(name), None));
                continue;
            }
            if rank_mkb.is_none() {
                rank_mkb = Some(self.build_rank_mkb(change)?);
            }
            let rmkb = rank_mkb.as_ref().expect("just built");
            decisions.push(self.decide(name, &mv.def, &outcome, rmkb)?);
        }
        self.commit_capability_change(change, new_extent, decisions)
    }

    /// Builds the MKB used for ranking: statistics for everything a
    /// rewriting may reference. The pre-change MKB covers deleted
    /// components; renames additionally need the *new* name registered with
    /// the old statistics.
    fn build_rank_mkb(&self, change: &SchemaChange) -> Result<Mkb> {
        let mut rank_mkb = self.mkb.clone();
        match change {
            SchemaChange::RenameRelation { from, to } => {
                let mut info = rank_mkb.relation(from)?.clone();
                info.name = to.clone();
                rank_mkb.register_relation(info)?;
            }
            SchemaChange::RenameAttribute { relation, from, to } => {
                let attr = rank_mkb
                    .relation(relation)?
                    .attribute(from)
                    .cloned()
                    .ok_or_else(|| Error::State {
                        detail: format!("`{relation}` has no attribute `{from}`"),
                    })?;
                rank_mkb.apply_change(&SchemaChange::AddAttribute {
                    relation: relation.clone(),
                    attribute: eve_misd::AttributeInfo {
                        name: to.clone(),
                        ty: attr.ty,
                        byte_size: attr.byte_size,
                    },
                })?;
            }
            _ => {}
        }
        Ok(rank_mkb)
    }

    fn unaffected_report(name: &str) -> EvolutionReport {
        EvolutionReport {
            view_name: name.to_owned(),
            affected: false,
            survived: true,
            candidates: 0,
            adopted: None,
        }
    }

    /// Ranks an affected view's rewritings and selects one, yielding the
    /// report and the adopted definition (or `None` when the view dies).
    fn decide(
        &self,
        name: &str,
        def: &ViewDef,
        outcome: &SyncOutcome,
        rank_mkb: &Mkb,
    ) -> Result<(String, EvolutionReport, Option<ViewDef>)> {
        if !outcome.affected {
            return Ok((name.to_owned(), Self::unaffected_report(name), None));
        }
        let scored = rank_rewritings(
            def,
            &outcome.rewritings,
            rank_mkb,
            &self.qc_params,
            self.workload,
        )?;
        let chosen = self.strategy.select(&scored).cloned();
        let new_def = chosen.as_ref().map(|c| c.rewriting.view.clone());
        Ok((
            name.to_owned(),
            EvolutionReport {
                view_name: name.to_owned(),
                affected: true,
                survived: chosen.is_some(),
                candidates: scored.len(),
                adopted: chosen,
            },
            new_def,
        ))
    }

    /// Phases 2–3 of the Fig. 1 loop: evolve the MKB and the information
    /// space, then adopt or drop each view per the phase-1 decisions.
    fn commit_capability_change(
        &mut self,
        change: &SchemaChange,
        new_extent: Option<Relation>,
        decisions: Vec<(String, EvolutionReport, Option<ViewDef>)>,
    ) -> Result<Vec<EvolutionReport>> {
        self.apply_change_to_space(change, new_extent)?;
        self.mkb.apply_change(change)?;

        let mut reports = Vec::new();
        for (name, report, new_def) in decisions {
            if !report.affected {
                reports.push(report);
                continue;
            }
            match new_def {
                Some(def) => {
                    let extent = self.evaluate(&def)?;
                    let mut def = def;
                    def.name = name.clone();
                    self.views
                        .insert(name.clone(), MaterializedView { def, extent });
                }
                None => {
                    self.views.remove(&name);
                }
            }
            reports.push(report);
        }
        Ok(reports)
    }

    fn apply_change_to_space(
        &mut self,
        change: &SchemaChange,
        new_extent: Option<Relation>,
    ) -> Result<()> {
        match change {
            SchemaChange::DeleteRelation { relation } => {
                let site_id = self.mkb.relation(relation)?.site.0;
                site_mut(&mut self.sites, site_id)?.drop_relation(relation)?;
            }
            SchemaChange::AddRelation { relation } => {
                let extent = new_extent.ok_or_else(|| Error::State {
                    detail: format!("add-relation {} requires an extent", relation.name),
                })?;
                let site = site_mut(&mut self.sites, relation.site.0)?;
                let mut named = extent;
                named.set_name(relation.name.clone());
                site.host(named, relation.blocking_factor)?;
            }
            SchemaChange::DeleteAttribute {
                relation,
                attribute,
            } => {
                let keep: Vec<eve_relational::ColumnRef> = self
                    .mkb
                    .relation(relation)?
                    .attributes
                    .iter()
                    .filter(|a| &a.name != attribute)
                    .map(|a| eve_relational::ColumnRef::bare(a.name.clone()))
                    .collect();
                self.rebuild_hosted(relation, relation, |old| {
                    Ok(eve_relational::algebra::project(&old, &keep, false)?)
                })?;
            }
            SchemaChange::AddAttribute {
                relation,
                attribute,
            } => self.rebuild_hosted(relation, relation, |old| {
                let default = match attribute.ty {
                    eve_relational::DataType::Int => Value::Int(0),
                    eve_relational::DataType::Float => Value::Float(0.0),
                    eve_relational::DataType::Bool => Value::Bool(false),
                    eve_relational::DataType::Text => Value::Text(String::new()),
                };
                let new_schema = old.schema().concat(&eve_relational::Schema::new(vec![
                    eve_relational::ColumnDef::sized(
                        eve_relational::ColumnRef::bare(attribute.name.clone()),
                        attribute.ty,
                        attribute.byte_size,
                    ),
                ])?)?;
                let mut rebuilt = Relation::empty(relation.clone(), new_schema);
                for t in old.tuples() {
                    let mut vals = t.values().to_vec();
                    vals.push(default.clone());
                    rebuilt.insert(eve_relational::Tuple::new(vals))?;
                }
                Ok(rebuilt)
            })?,
            SchemaChange::RenameAttribute { relation, from, to } => {
                self.rebuild_hosted(relation, relation, |old| {
                    let names: Vec<eve_relational::ColumnRef> = old
                        .schema()
                        .columns()
                        .iter()
                        .map(|c| {
                            if c.column.name == *from {
                                eve_relational::ColumnRef::bare(to.clone())
                            } else {
                                eve_relational::ColumnRef::bare(c.column.name.clone())
                            }
                        })
                        .collect();
                    Ok(eve_relational::algebra::rename_columns(&old, &names)?)
                })?;
            }
            SchemaChange::RenameRelation { from, to } => self.rebuild_hosted(from, to, Ok)?,
        }
        // Extent-rebuilding changes drop the rebuilt relation's warmed
        // indexes with its old storage; re-warm the declared ones.
        self.warm_declared_indexes();
        Ok(())
    }

    /// Replaces the hosted base relation `relation` by `rebuild` of its
    /// current extent, hosted as `new_name` at the same site with the same
    /// blocking factor.
    fn rebuild_hosted(
        &mut self,
        relation: &str,
        new_name: &str,
        rebuild: impl FnOnce(Relation) -> Result<Relation>,
    ) -> Result<()> {
        let info = self.mkb.relation(relation)?;
        let site = site_mut(&mut self.sites, info.site.0)?;
        let mut rebuilt = rebuild(site.drop_relation(relation)?)?;
        rebuilt.set_name(new_name.to_owned());
        site.host(rebuilt, info.blocking_factor)
    }

    /// Total block I/Os charged across all sites.
    #[must_use]
    pub fn total_io(&self) -> u64 {
        self.sites.values().map(SimSite::io_count).sum()
    }

    /// Total messages charged across all sites (update notifications plus
    /// maintenance query/answer pairs). Together with [`total_io`], this
    /// makes batched and sequential cost reports comparable: both paths
    /// charge the same sites for the same traffic.
    ///
    /// [`total_io`]: EveEngine::total_io
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.sites.values().map(SimSite::message_count).sum()
    }

    /// Resets every site's resource accounting — I/O **and** message
    /// counters — so reports taken after the reset compare like for like.
    ///
    /// The reset also covers the observability counters of the rewrite
    /// machinery (rewrite-cache and partner-cache hit/miss counters, MKB
    /// inverted-index hit/miss counters): `stats` deltas taken between
    /// checkpoints all start from the same origin. Only *counters* reset;
    /// the memoized caches themselves stay warm.
    pub fn reset_io(&mut self) {
        for s in self.sites.values_mut() {
            s.reset_io();
        }
        // Every counter family the engine owns resets through ONE registry
        // call: the telemetry registry adopts the MKB inverted-index and
        // rewrite/partner cache handles, so `reset()` zeroes them all
        // without per-subsystem reset plumbing.
        self.telemetry_registry().reset();
        for rel in self
            .sites
            .values()
            .flat_map(SimSite::hosted_relations)
            .chain(self.views.values().map(|mv| &mv.extent))
        {
            rel.reset_index_counters();
        }
    }

    /// An instance [`eve_trace::Registry`] adopting the engine's
    /// per-instance counter handles (MKB inverted-index hit/miss,
    /// rewrite-cache and partner-cache hit/miss). Snapshots taken from it
    /// read the live atomics; [`Registry::reset`](eve_trace::Registry::reset)
    /// zeroes them all at once — which is exactly how
    /// [`reset_io`](EveEngine::reset_io) clears the engine counter surface.
    #[must_use]
    pub fn telemetry_registry(&self) -> eve_trace::Registry {
        let registry = eve_trace::Registry::new();
        for (name, handle) in self.mkb.index_counter_handles() {
            registry.register_counter(name, handle);
        }
        for (name, handle) in self.rewrite_cache.counter_handles() {
            registry.register_counter(name, handle);
        }
        registry
    }

    /// One merged metrics snapshot: the process-global families (`exec.`,
    /// `index.`, `intern.`, `store.`, `search.`, `engine.`, `trace.`) plus
    /// this engine's per-instance counters (`mkb.`, `cache.`).
    #[must_use]
    pub fn metrics_snapshot(&self) -> eve_trace::MetricsSnapshot {
        eve_trace::global()
            .snapshot()
            .merge(self.telemetry_registry().snapshot())
    }

    /// Mutable access to the site map (for the experiment harness).
    pub fn sites_mut(&mut self) -> &mut BTreeMap<u32, SimSite> {
        &mut self.sites
    }

    /// PC-partner closure cache statistics `(hits, misses)` of the engine's
    /// rewrite cache — how often a BFS over the PC constraints was replayed
    /// versus recomputed.
    #[must_use]
    pub fn partner_cache_stats(&self) -> (u64, u64) {
        self.rewrite_cache.partner_stats()
    }

    /// MKB inverted-index statistics `(hits, misses)` — constraint lookups
    /// served by an already-built index versus lazy rebuilds after MKB
    /// mutations (see [`Mkb::index_stats`]).
    #[must_use]
    pub fn mkb_index_stats(&self) -> (u64, u64) {
        self.mkb.index_stats()
    }

    /// Declares (and immediately warms) a secondary index on a hosted base
    /// relation. Returns `true` when the declaration is new, `false` when
    /// the same hint was already on file (the index is still re-warmed).
    ///
    /// The declaration is durable engine state: it is carried by
    /// [`snapshot_state`](EveEngine::snapshot_state) and re-warmed on
    /// restore. The warmed index itself lives in the relation's shared
    /// tuple storage, so query bindings ([`Relation::rebind`]) and
    /// copy-on-write descendants see it too, and it is maintained
    /// incrementally across inserts and deletes.
    ///
    /// # Errors
    ///
    /// [`Error::State`] for unregistered relations or unknown columns.
    pub fn declare_index(&mut self, relation: &str, column: &str, kind: IndexKind) -> Result<bool> {
        let (rel, col) = self.indexable(relation, column)?;
        rel.warm_index(col, kind);
        let hint = IndexHint {
            relation: relation.to_owned(),
            column: column.to_owned(),
            kind,
        };
        if self.index_hints.contains(&hint) {
            return Ok(false);
        }
        self.index_hints.push(hint);
        Ok(true)
    }

    /// The declared secondary indexes, in declaration order.
    #[must_use]
    pub fn index_hints(&self) -> &[IndexHint] {
        &self.index_hints
    }

    /// Re-warms every declared index that still resolves to a hosted
    /// relation and column. Hints whose relation was dropped, renamed or
    /// reshaped are skipped silently — a declaration is a performance
    /// hint, never a correctness constraint. Called after snapshot restore
    /// and after schema changes that rebuild extents.
    pub fn warm_declared_indexes(&self) {
        for hint in &self.index_hints {
            if let Ok((rel, col)) = self.indexable(&hint.relation, &hint.column) {
                rel.warm_index(col, hint.kind);
            }
        }
    }

    /// The hosted extent of `relation` and the position of `column` in it.
    fn indexable(&self, relation: &str, column: &str) -> Result<(&Relation, usize)> {
        let rel = self.hosted(relation)?;
        let col = rel
            .schema()
            .columns()
            .iter()
            .position(|c| c.column.name == column)
            .ok_or_else(|| Error::State {
                detail: format!("relation `{relation}` has no column `{column}`"),
            })?;
        Ok((rel, col))
    }

    /// Aggregated columnar/index/interning counters across every relation
    /// extent the engine holds: site-hosted base relations and
    /// materialized view extents.
    #[must_use]
    pub fn column_layer_stats(&self) -> ColumnLayerStats {
        let mut stats = ColumnLayerStats {
            intern: eve_relational::intern::stats(),
            exec: eve_relational::morsel::stats(),
            ..ColumnLayerStats::default()
        };
        let extents = self
            .sites
            .values()
            .flat_map(SimSite::hosted_relations)
            .chain(self.views.values().map(|mv| &mv.extent));
        for rel in extents {
            stats.extents += 1;
            if rel.columnar_built() {
                stats.columnar_built += 1;
            }
            stats.index = stats.index.merged(rel.index_stats());
        }
        stats
    }
}

/// The site `id` of `sites`, or a typed "unknown site" error.
pub(crate) fn site_mut(sites: &mut BTreeMap<u32, SimSite>, id: u32) -> Result<&mut SimSite> {
    sites.get_mut(&id).ok_or_else(|| Error::State {
        detail: format!("unknown site {id}"),
    })
}

/// Per-view maintenance cost assessment (analytic, Eq. 24 under the
/// engine's workload model).
#[derive(Debug, Clone)]
pub struct ViewCostReport {
    /// The view's name.
    pub view_name: String,
    /// Cost factors for each possible update origin.
    pub per_origin: Vec<(String, CostFactors)>,
    /// Total cost per time unit under the engine's workload model.
    pub total_cost: f64,
}

/// Outcome of a cost-driven rebalancing pass for one view.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The view's name.
    pub view_name: String,
    /// Whether a migration was committed.
    pub migrated: bool,
    /// The relation that was replaced (when migrated).
    pub from_relation: Option<String>,
    /// The replacement relation (when migrated).
    pub to_relation: Option<String>,
    /// Maintenance cost before the pass.
    pub old_cost: f64,
    /// Maintenance cost after the pass.
    pub new_cost: f64,
}

impl EveEngine {
    /// Analytic maintenance cost of every materialized view, per update
    /// origin and in total under the configured workload model.
    ///
    /// # Errors
    ///
    /// MKB lookups for unregistered relations.
    pub fn cost_report(&self) -> Result<Vec<ViewCostReport>> {
        let mut out = Vec::new();
        for mv in self.views.values() {
            let plans = plans_for_view(&mv.def, &self.mkb)?;
            let per_origin = plans
                .iter()
                .map(|(origin, plan)| (origin.clone(), cost_factors(plan, &self.qc_params)))
                .collect();
            let total_cost = workload::total_cost(&plans, self.workload, &self.qc_params);
            out.push(ViewCostReport {
                view_name: mv.def.name.clone(),
                per_origin,
                total_cost,
            });
        }
        Ok(out)
    }

    /// Cost-driven migration: for each view, considers quality-neutral
    /// swaps onto *equivalent* replicas
    /// ([`eve_sync::equivalent_swaps`]) and adopts the cheapest one
    /// when it strictly undercuts the current maintenance cost. Before
    /// committing, the candidate's materialized extent is checked to
    /// coincide with the current one — a safety net against PC constraints
    /// that disagree with the actual data.
    ///
    /// # Errors
    ///
    /// Synchronization/plan/state failures.
    pub fn rebalance_views(&mut self) -> Result<Vec<MigrationReport>> {
        let mut reports = Vec::new();
        let names: Vec<String> = self.views.keys().cloned().collect();
        for name in names {
            let mv = self.views.get(&name).expect("exists").clone();
            let current_plans = plans_for_view(&mv.def, &self.mkb)?;
            let current_cost = workload::total_cost(&current_plans, self.workload, &self.qc_params);
            let mut best: Option<(f64, eve_sync::LegalRewriting)> = None;
            for candidate in eve_sync::equivalent_swaps(&mv.def, &self.mkb)? {
                let plans = plans_for_view(&candidate.view, &self.mkb)?;
                let cost = workload::total_cost(&plans, self.workload, &self.qc_params);
                if cost < current_cost - 1e-9 && best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    best = Some((cost, candidate));
                }
            }
            match best {
                Some((new_cost, candidate)) => {
                    // Commit only when the data agrees with the constraint.
                    let new_extent = self.evaluate(&candidate.view)?;
                    let matches =
                        eve_relational::common::measure_common_sizes(&mv.extent, &new_extent)
                            .map(|s| s.original == s.overlap && s.rewriting == s.overlap)
                            .unwrap_or(false);
                    if !matches {
                        reports.push(MigrationReport {
                            view_name: name.clone(),
                            migrated: false,
                            from_relation: None,
                            to_relation: None,
                            old_cost: current_cost,
                            new_cost: current_cost,
                        });
                        continue;
                    }
                    let (from_rel, to_rel) = match candidate.provenance.actions.first() {
                        Some(eve_sync::RewriteAction::SwappedRelation {
                            old_relation,
                            new_relation,
                            ..
                        }) => (Some(old_relation.clone()), Some(new_relation.clone())),
                        _ => (None, None),
                    };
                    let mut def = candidate.view;
                    def.name = name.clone();
                    self.views.insert(
                        name.clone(),
                        MaterializedView {
                            def,
                            extent: new_extent,
                        },
                    );
                    reports.push(MigrationReport {
                        view_name: name,
                        migrated: true,
                        from_relation: from_rel,
                        to_relation: to_rel,
                        old_cost: current_cost,
                        new_cost,
                    });
                }
                None => reports.push(MigrationReport {
                    view_name: name,
                    migrated: false,
                    from_relation: None,
                    to_relation: None,
                    old_cost: current_cost,
                    new_cost: current_cost,
                }),
            }
        }
        Ok(reports)
    }

    /// Removes a materialized view from the warehouse.
    ///
    /// # Errors
    ///
    /// [`Error::State`] when the view does not exist.
    pub fn drop_view(&mut self, name: &str) -> Result<MaterializedView> {
        self.views.remove(name).ok_or_else(|| Error::State {
            detail: format!("no view named `{name}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{AttributeInfo, PcConstraint, PcRelationship, PcSide};
    use eve_relational::{tup, DataType, Schema};

    fn engine_with_travel_space() -> EveEngine {
        let mut e = EveEngine::new();
        e.add_site(SiteId(1), "customers-src").unwrap();
        e.add_site(SiteId(2), "flights-src").unwrap();
        e.add_site(SiteId(3), "tours-src").unwrap();

        let customer_schema =
            Schema::of(&[("Name", DataType::Text), ("Address", DataType::Text)]).unwrap();
        e.register_relation(
            RelationInfo::new(
                "Customer",
                SiteId(1),
                vec![
                    AttributeInfo::new("Name", DataType::Text),
                    AttributeInfo::new("Address", DataType::Text),
                ],
                3,
            ),
            Relation::with_tuples(
                "Customer",
                customer_schema,
                vec![
                    tup!["ann", "12 Elm"],
                    tup!["bob", "9 Oak"],
                    tup!["cho", "3 Pine"],
                ],
            )
            .unwrap(),
        )
        .unwrap();

        let flight_schema =
            Schema::of(&[("PName", DataType::Text), ("Dest", DataType::Text)]).unwrap();
        e.register_relation(
            RelationInfo::new(
                "FlightRes",
                SiteId(2),
                vec![
                    AttributeInfo::new("PName", DataType::Text),
                    AttributeInfo::new("Dest", DataType::Text),
                ],
                3,
            ),
            Relation::with_tuples(
                "FlightRes",
                flight_schema,
                vec![
                    tup!["ann", "Asia"],
                    tup!["bob", "Europe"],
                    tup!["cho", "Asia"],
                ],
            )
            .unwrap(),
        )
        .unwrap();

        // A tour-booking source that mirrors customers (replacement pool).
        let tour_schema =
            Schema::of(&[("Client", DataType::Text), ("Residence", DataType::Text)]).unwrap();
        e.register_relation(
            RelationInfo::new(
                "TourClient",
                SiteId(3),
                vec![
                    AttributeInfo::new("Client", DataType::Text),
                    AttributeInfo::new("Residence", DataType::Text),
                ],
                3,
            ),
            Relation::with_tuples(
                "TourClient",
                tour_schema,
                vec![
                    tup!["ann", "12 Elm"],
                    tup!["bob", "9 Oak"],
                    tup!["cho", "3 Pine"],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        e.mkb_mut()
            .add_pc_constraint(PcConstraint::new(
                PcSide::projection("Customer", &["Name", "Address"]),
                PcRelationship::Equivalent,
                PcSide::projection("TourClient", &["Client", "Residence"]),
            ))
            .unwrap();
        e
    }

    const ASIA_VIEW: &str = "CREATE VIEW Asia-Customer (VE = '~') AS \
        SELECT C.Name, C.Address \
        FROM Customer C (RR = true), FlightRes F \
        WHERE (C.Name = F.PName) AND (F.Dest = 'Asia')";

    #[test]
    fn define_and_query_view() {
        let mut e = engine_with_travel_space();
        let mv = e.define_view_sql(ASIA_VIEW).unwrap();
        assert_eq!(mv.extent.cardinality(), 2);
        assert!(e.define_view_sql(ASIA_VIEW).is_err(), "duplicate name");
    }

    #[test]
    fn view_validation_against_mkb() {
        let mut e = engine_with_travel_space();
        let bad = "CREATE VIEW V AS SELECT C.Ghost FROM Customer C";
        let err = e.define_view_sql(bad).unwrap_err();
        assert!(err.to_string().contains("no attribute"), "{err}");
        let bad = "CREATE VIEW V AS SELECT Z.A FROM Zilch Z";
        assert!(e.define_view_sql(bad).is_err());
    }

    #[test]
    fn data_update_maintains_views() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let update = DataUpdate::insert("FlightRes", vec![tup!["bob", "Asia"]]);
        let traces = e.notify_data_update(&update).unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].1.view_inserts, 1);
        assert!(e
            .view("Asia-Customer")
            .unwrap()
            .extent
            .contains(&tup!["bob", "9 Oak"]));
    }

    #[test]
    fn capability_change_evolves_view() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        // The Customer source withdraws: EVE swaps in TourClient.
        let change = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };
        let reports = e.notify_capability_change(&change, None).unwrap();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert!(r.affected && r.survived);
        assert_eq!(r.candidates, 1);
        let mv = e.view("Asia-Customer").unwrap();
        assert!(mv.def.from.iter().any(|f| f.relation == "TourClient"));
        // Interface preserved: output columns keep their names.
        assert_eq!(mv.def.output_columns(), vec!["Name", "Address"]);
        // Extent re-materialized over the substitute (equivalent data).
        assert_eq!(mv.extent.distinct_cardinality(), 2);
        assert!(mv.extent.contains(&tup!["ann", "12 Elm"]));
        // The MKB no longer knows Customer.
        assert!(!e.mkb().has_relation("Customer"));
    }

    #[test]
    fn view_dies_without_replacements() {
        let mut e = engine_with_travel_space();
        // FlightRes is strict (not replaceable, not dispensable).
        e.define_view_sql(ASIA_VIEW).unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "FlightRes".into(),
        };
        let reports = e.notify_capability_change(&change, None).unwrap();
        assert!(reports[0].affected);
        assert!(!reports[0].survived);
        assert!(e.view("Asia-Customer").is_err(), "dead view dropped");
    }

    #[test]
    fn unaffected_views_stay_put() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "TourClient".into(),
        };
        let reports = e.notify_capability_change(&change, None).unwrap();
        assert!(!reports[0].affected);
        assert!(reports[0].survived);
        assert!(e.view("Asia-Customer").is_ok());
    }

    #[test]
    fn rename_relation_keeps_view_running() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let change = SchemaChange::RenameRelation {
            from: "FlightRes".into(),
            to: "Bookings".into(),
        };
        let reports = e.notify_capability_change(&change, None).unwrap();
        assert!(reports[0].survived);
        let mv = e.view("Asia-Customer").unwrap();
        assert!(mv.def.from.iter().any(|f| f.relation == "Bookings"));
        assert_eq!(mv.extent.distinct_cardinality(), 2);
        // Data updates keep flowing under the new name.
        let update = DataUpdate::insert("Bookings", vec![tup!["bob", "Asia"]]);
        let traces = e.notify_data_update(&update).unwrap();
        assert_eq!(traces[0].1.view_inserts, 1);
    }

    #[test]
    fn delete_attribute_projects_site_extent() {
        let mut e = engine_with_travel_space();
        let change = SchemaChange::DeleteAttribute {
            relation: "TourClient".into(),
            attribute: "Residence".into(),
        };
        e.notify_capability_change(&change, None).unwrap();
        let site = &e.sites[&3];
        assert_eq!(site.relation("TourClient").unwrap().schema().arity(), 1);
    }

    #[test]
    fn add_relation_requires_extent() {
        let mut e = engine_with_travel_space();
        let change = SchemaChange::AddRelation {
            relation: RelationInfo::new(
                "Hotel",
                SiteId(1),
                vec![AttributeInfo::new("Name", DataType::Text)],
                0,
            ),
        };
        assert!(e.notify_capability_change(&change, None).is_err());
        let extent = Relation::empty("Hotel", Schema::of(&[("Name", DataType::Text)]).unwrap());
        let reports = e.notify_capability_change(&change, Some(extent)).unwrap();
        assert!(reports.is_empty() || reports.iter().all(|r| !r.affected));
        assert!(e.mkb().has_relation("Hotel"));
    }

    #[test]
    fn add_attribute_backfills_defaults() {
        let mut e = engine_with_travel_space();
        let change = SchemaChange::AddAttribute {
            relation: "Customer".into(),
            attribute: AttributeInfo::new("Age", DataType::Int),
        };
        e.notify_capability_change(&change, None).unwrap();
        let site = &e.sites[&1];
        let rel = site.relation("Customer").unwrap();
        assert_eq!(rel.schema().arity(), 3);
        assert_eq!(rel.tuples()[0].get(2), &Value::Int(0));
    }

    #[test]
    fn cost_report_covers_every_view_and_origin() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        e.define_view_sql("CREATE VIEW Just (VE = '~') AS SELECT C.Name FROM Customer C")
            .unwrap();
        let report = e.cost_report().unwrap();
        assert_eq!(report.len(), 2);
        let asia = report
            .iter()
            .find(|r| r.view_name == "Asia-Customer")
            .unwrap();
        assert_eq!(asia.per_origin.len(), 2); // Customer + FlightRes origins
        assert!(asia.total_cost > 0.0);
        for (_, f) in &asia.per_origin {
            assert!(f.messages >= 1.0);
            assert!(f.transfer > 0.0);
        }
        // The single-relation view is cheaper to maintain than the join.
        let just = report.iter().find(|r| r.view_name == "Just").unwrap();
        assert!(just.total_cost < asia.total_cost);
    }

    #[test]
    fn rebalance_migrates_to_cheaper_colocated_replica() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let before_extent = e.view("Asia-Customer").unwrap().extent.clone();

        // No strictly cheaper equivalent exists yet: TourClient mirrors
        // Customer at an equally-distant site.
        let reports = e.rebalance_views().unwrap();
        assert!(reports.iter().all(|r| !r.migrated));

        // A new replica arrives with *narrower declared attributes* (a
        // compact encoding): maintaining the view over it ships fewer bytes
        // per delta, so it is strictly cheaper.
        let passengers_schema =
            Schema::of(&[("PName2", DataType::Text), ("PAddr", DataType::Text)]).unwrap();
        e.notify_capability_change(
            &SchemaChange::AddRelation {
                relation: RelationInfo::new(
                    "Passengers",
                    SiteId(2),
                    vec![
                        AttributeInfo::sized("PName2", DataType::Text, 5),
                        AttributeInfo::sized("PAddr", DataType::Text, 5),
                    ],
                    3,
                ),
            },
            Some(
                Relation::with_tuples(
                    "Passengers",
                    passengers_schema,
                    vec![
                        tup!["ann", "12 Elm"],
                        tup!["bob", "9 Oak"],
                        tup!["cho", "3 Pine"],
                    ],
                )
                .unwrap(),
            ),
        )
        .unwrap();
        e.mkb_mut()
            .add_pc_constraint(PcConstraint::new(
                PcSide::projection("Customer", &["Name", "Address"]),
                PcRelationship::Equivalent,
                PcSide::projection("Passengers", &["PName2", "PAddr"]),
            ))
            .unwrap();

        let reports = e.rebalance_views().unwrap();
        let r = reports
            .iter()
            .find(|r| r.view_name == "Asia-Customer")
            .unwrap();
        assert!(r.migrated, "{r:?}");
        assert_eq!(r.from_relation.as_deref(), Some("Customer"));
        assert_eq!(r.to_relation.as_deref(), Some("Passengers"));
        assert!(r.new_cost < r.old_cost);

        // Interface and extent preserved.
        let after = e.view("Asia-Customer").unwrap();
        assert_eq!(after.def.output_columns(), vec!["Name", "Address"]);
        assert_eq!(
            before_extent.distinct().tuples(),
            after.extent.distinct().tuples()
        );
        // The migrated view keeps working for updates.
        let update = DataUpdate::insert("FlightRes", vec![tup!["bob", "Asia"]]);
        let traces = e.notify_data_update(&update).unwrap();
        assert_eq!(traces[0].1.view_inserts, 1);
    }

    #[test]
    fn drop_view_removes_and_errors_on_missing() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let dropped = e.drop_view("Asia-Customer").unwrap();
        assert_eq!(dropped.def.name, "Asia-Customer");
        assert!(e.view("Asia-Customer").is_err());
        assert!(e.drop_view("Asia-Customer").is_err());
    }

    #[test]
    fn batch_updates_merge_traces() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let updates = [
            DataUpdate::insert("FlightRes", vec![tup!["bob", "Asia"]]),
            DataUpdate::insert("Customer", vec![tup!["eli", "5 Ash"]]),
            DataUpdate::insert("FlightRes", vec![tup!["eli", "Asia"]]),
        ];
        let merged = e
            .apply_batch(updates.into_iter().map(EvolutionOp::from).collect())
            .unwrap()
            .traces;
        let trace = &merged["Asia-Customer"];
        assert_eq!(trace.view_inserts, 2); // bob and eli join the view
        assert!(trace.messages >= 3); // at least one notification each
        assert!(e
            .view("Asia-Customer")
            .unwrap()
            .extent
            .contains(&tup!["eli", "5 Ash"]));
    }

    #[test]
    fn reset_io_clears_io_and_message_accounting_together() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        e.reset_io();
        let update = DataUpdate::insert("FlightRes", vec![tup!["bob", "Asia"]]);
        let traces = e.notify_data_update(&update).unwrap();
        // Invariant: every message a trace reports was charged to a site,
        // so site-level and trace-level accounting agree — which is what
        // makes batched and sequential cost reports comparable.
        let trace_messages: u64 = traces.iter().map(|(_, t)| t.messages).sum();
        assert!(trace_messages > 0);
        assert_eq!(e.total_messages(), trace_messages);
        assert!(e.total_io() > 0);
        e.reset_io();
        assert_eq!(e.total_io(), 0);
        assert_eq!(e.total_messages(), 0, "reset_io clears messages too");
    }

    #[test]
    fn reset_io_also_zeroes_cache_and_index_counters() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        // Drive every counter: a capability change exercises the rewrite
        // cache, the partner cache and the MKB inverted index; a data update
        // charges I/O and messages.
        let change = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };
        e.notify_capability_change(&change, None).unwrap();
        e.notify_data_update(&DataUpdate::insert("FlightRes", vec![tup!["zed", "Asia"]]))
            .unwrap();
        let (rw_h, rw_m) = e.rewrite_cache_stats();
        let (pc_h, pc_m) = e.partner_cache_stats();
        let (ix_h, ix_m) = e.mkb_index_stats();
        assert!(rw_h + rw_m > 0, "rewrite cache was exercised");
        assert!(pc_h + pc_m > 0, "partner cache was exercised");
        assert!(ix_h + ix_m > 0, "mkb index was exercised");
        assert!(e.total_io() > 0);

        e.reset_io();
        assert_eq!(e.total_io(), 0);
        assert_eq!(e.total_messages(), 0);
        assert_eq!(e.rewrite_cache_stats(), (0, 0), "rewrite counters reset");
        assert_eq!(e.partner_cache_stats(), (0, 0), "partner counters reset");
        assert_eq!(e.mkb_index_stats(), (0, 0), "index counters reset");

        // Post-reset deltas are meaningful: fresh activity counts from zero.
        e.notify_data_update(&DataUpdate::insert("FlightRes", vec![tup!["yan", "Asia"]]))
            .unwrap();
        assert!(e.total_io() > 0, "new work accrues after the reset");
    }

    #[test]
    fn no_telemetry_registry_counter_survives_reset() {
        // The registry-reset regression pin: every counter the engine's
        // telemetry registry adopts must read zero after `reset_io` —
        // a newly wired counter that dodges the registry fails here.
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };
        e.notify_capability_change(&change, None).unwrap();
        let before = e.telemetry_registry().snapshot();
        assert!(
            before.counters.values().sum::<u64>() > 0,
            "telemetry counters were exercised"
        );
        e.reset_io();
        let after = e.telemetry_registry().snapshot();
        assert_eq!(
            after.counters.len(),
            before.counters.len(),
            "reset must zero counters, not drop them"
        );
        for (name, v) in &after.counters {
            assert_eq!(*v, 0, "counter `{name}` survived reset_io");
        }
    }

    #[test]
    fn metrics_snapshot_merges_instance_and_global_families() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        e.notify_data_update(&DataUpdate::insert("FlightRes", vec![tup!["zed", "Asia"]]))
            .unwrap();
        let snap = e.metrics_snapshot();
        // Per-instance families appear alongside the process-global ones.
        assert!(snap.counters.contains_key("mkb.index_hits"));
        assert!(snap.counters.contains_key("cache.rewrite_hits"));
        assert!(
            snap.counters.contains_key("engine.data_updates"),
            "global engine family present"
        );
        assert!(
            snap.counters
                .get("engine.data_updates")
                .is_some_and(|&v| v > 0),
            "the update was counted"
        );
    }

    #[test]
    fn pruned_search_modes_adopt_the_same_rewriting() {
        // One legal repair exists (TourClient); every search mode must find
        // and adopt it — the modes differ in how much of the candidate
        // space they materialize, not in the winner.
        let change = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };
        let mut adopted = Vec::new();
        for mode in [
            SearchMode::Exhaustive,
            SearchMode::BestFirst,
            SearchMode::Beam { width: 2 },
        ] {
            let mut e = engine_with_travel_space();
            e.search = mode;
            e.define_view_sql(ASIA_VIEW).unwrap();
            let reports = e.notify_capability_change(&change, None).unwrap();
            assert!(reports[0].survived, "{mode:?}");
            adopted.push(e.view("Asia-Customer").unwrap().def.to_string());
        }
        assert_eq!(adopted[0], adopted[1]);
        assert_eq!(adopted[0], adopted[2]);
    }

    #[test]
    fn beam_mode_honors_engine_sync_options() {
        // Two equivalent replacement pools for Customer; the beam width
        // admits both, but the engine's max_rewritings caps the candidate
        // set the QC ranking sees.
        let second_mirror = |e: &mut EveEngine| {
            let schema =
                Schema::of(&[("CName", DataType::Text), ("CAddr", DataType::Text)]).unwrap();
            e.register_relation(
                RelationInfo::new(
                    "TourClient2",
                    SiteId(3),
                    vec![
                        AttributeInfo::new("CName", DataType::Text),
                        AttributeInfo::new("CAddr", DataType::Text),
                    ],
                    3,
                ),
                Relation::with_tuples(
                    "TourClient2",
                    schema,
                    vec![
                        tup!["ann", "12 Elm"],
                        tup!["bob", "9 Oak"],
                        tup!["cho", "3 Pine"],
                    ],
                )
                .unwrap(),
            )
            .unwrap();
            e.mkb_mut()
                .add_pc_constraint(PcConstraint::new(
                    PcSide::projection("Customer", &["Name", "Address"]),
                    PcRelationship::Equivalent,
                    PcSide::projection("TourClient2", &["CName", "CAddr"]),
                ))
                .unwrap();
        };
        let change = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };

        let mut wide = engine_with_travel_space();
        second_mirror(&mut wide);
        wide.search = SearchMode::Beam { width: 3 };
        wide.define_view_sql(ASIA_VIEW).unwrap();
        let reports = wide.notify_capability_change(&change, None).unwrap();
        assert_eq!(reports[0].candidates, 2, "width admits both mirrors");

        let mut capped = engine_with_travel_space();
        second_mirror(&mut capped);
        capped.search = SearchMode::Beam { width: 3 };
        capped.sync_options.max_rewritings = 1;
        capped.define_view_sql(ASIA_VIEW).unwrap();
        let reports = capped.notify_capability_change(&change, None).unwrap();
        assert_eq!(
            reports[0].candidates, 1,
            "engine max_rewritings caps the beam's emissions"
        );
    }

    #[test]
    fn stats_accessors_expose_cache_and_index_counters() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };
        e.notify_capability_change(&change, None).unwrap();
        let (_, pc_misses) = e.partner_cache_stats();
        assert!(pc_misses >= 1, "synchronization ran a partner BFS");
        let (ix_hits, ix_misses) = e.mkb_index_stats();
        assert!(
            ix_hits + ix_misses >= 1,
            "constraint lookups went through the index"
        );
    }

    #[test]
    fn first_found_strategy_is_respected() {
        let mut e = engine_with_travel_space();
        e.strategy = SelectionStrategy::FirstFound;
        e.define_view_sql(ASIA_VIEW).unwrap();
        let change = SchemaChange::DeleteRelation {
            relation: "Customer".into(),
        };
        let reports = e.notify_capability_change(&change, None).unwrap();
        let adopted = reports[0].adopted.as_ref().unwrap();
        assert_eq!(adopted.index, 0);
    }

    #[test]
    fn declare_index_warms_and_dedupes() {
        let mut e = engine_with_travel_space();
        assert!(e
            .declare_index("Customer", "Name", IndexKind::Hash)
            .unwrap());
        assert!(
            !e.declare_index("Customer", "Name", IndexKind::Hash)
                .unwrap(),
            "re-declaration is idempotent"
        );
        assert_eq!(e.index_hints().len(), 1);
        let rel = e.sites[&1].relation("Customer").unwrap();
        assert!(rel.has_index(0, IndexKind::Hash));
        assert!(e
            .declare_index("Customer", "Ghost", IndexKind::Hash)
            .is_err());
        assert!(e.declare_index("Zilch", "Name", IndexKind::Hash).is_err());
    }

    #[test]
    fn declared_index_survives_data_updates_and_stays_consistent() {
        let mut e = engine_with_travel_space();
        e.declare_index("FlightRes", "Dest", IndexKind::Hash)
            .unwrap();
        let update = DataUpdate {
            relation: "FlightRes".into(),
            inserts: vec![tup!["dee", "Asia"]],
            deletes: vec![tup!["bob", "Europe"]],
        };
        e.notify_data_update(&update).unwrap();
        let rel = e.sites[&2].relation("FlightRes").unwrap();
        assert!(
            rel.has_index(1, IndexKind::Hash),
            "index maintained, not dropped"
        );
        let rows = rel.index_eq_rows(1, &Value::from("Asia"));
        assert_eq!(rows.len(), 3, "ann, cho and dee fly to Asia");
    }

    #[test]
    fn column_layer_stats_aggregate_extents_and_indexes() {
        let mut e = engine_with_travel_space();
        e.define_view_sql(ASIA_VIEW).unwrap();
        e.declare_index("Customer", "Name", IndexKind::Hash)
            .unwrap();
        e.declare_index("FlightRes", "Dest", IndexKind::Sorted)
            .unwrap();
        let cl = e.column_layer_stats();
        assert_eq!(cl.extents, 4, "three base relations + one view extent");
        assert_eq!(cl.index.hash_indexes, 1);
        assert_eq!(cl.index.sorted_indexes, 1);
        assert!(cl.index.builds >= 2);
        assert!(cl.intern.symbols > 0, "text extents interned their strings");
    }

    #[test]
    fn schema_change_rewarrms_declared_indexes() {
        let mut e = engine_with_travel_space();
        e.declare_index("Customer", "Name", IndexKind::Hash)
            .unwrap();
        let change = SchemaChange::RenameAttribute {
            relation: "Customer".into(),
            from: "Address".into(),
            to: "Addr".into(),
        };
        e.notify_capability_change(&change, None).unwrap();
        let rel = e.sites[&1].relation("Customer").unwrap();
        assert!(
            rel.has_index(0, IndexKind::Hash),
            "rebuilt extent re-warmed the declared index"
        );
    }
}
