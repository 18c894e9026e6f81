//! Incremental view maintenance — Algorithm 1, executed (§6.1, Fig. 11).
//!
//! After a data update at `IS_1.R_{1,0}`, the view maintainer walks the
//! information sources hosting the view's relations: the current delta
//! relation is shipped to the site (`R_in`), joined there with every local
//! view relation (charging block I/Os at the site), and the grown delta is
//! shipped back (`R_out`) to become the next site's input. The final delta
//! is applied to the materialized extent.
//!
//! All traffic is accounted in a [`MaintenanceTrace`] — the *measured*
//! counterpart of the analytic `CF_M` / `CF_T` / `CF_IO` factors, using the
//! same conventions (declared tuple widths; probe I/Os
//! `max(1, ⌈matches/bfr⌉)` capped by a full scan; notification counted as
//! one message).
//!
//! The per-site delta joins execute through the physical layer's
//! [`eve_relational::exec::join_with_counts`], and the recomputation
//! baseline ([`recompute_view`]) through the cost-ordered planner — both
//! with traces identical to the historical naive implementations.

use std::collections::BTreeMap;

use eve_esql::ViewDef;
use eve_misd::{Mkb, SiteId};
use eve_relational::{
    algebra, ColumnRef, ExecOptions, Predicate, PrimitiveClause, Relation, Tuple,
};

use crate::error::{Error, Result};
use crate::query::bind_relation;
use crate::site::SimSite;

/// A base-data update: tuples inserted into and deleted from one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct DataUpdate {
    /// Updated relation (registered name).
    pub relation: String,
    /// Inserted tuples.
    pub inserts: Vec<Tuple>,
    /// Deleted tuples.
    pub deletes: Vec<Tuple>,
}

impl DataUpdate {
    /// An insert-only update.
    #[must_use]
    pub fn insert(relation: impl Into<String>, tuples: Vec<Tuple>) -> DataUpdate {
        DataUpdate {
            relation: relation.into(),
            inserts: tuples,
            deletes: Vec::new(),
        }
    }

    /// A delete-only update.
    #[must_use]
    pub fn delete(relation: impl Into<String>, tuples: Vec<Tuple>) -> DataUpdate {
        DataUpdate {
            relation: relation.into(),
            inserts: Vec::new(),
            deletes: tuples,
        }
    }
}

/// Measured resource usage of one maintenance run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceTrace {
    /// Messages exchanged (notification + per-site query/answer pairs).
    pub messages: u64,
    /// Bytes transferred (declared tuple widths × shipped cardinalities).
    pub bytes: u64,
    /// Block I/Os charged at the information sources.
    pub ios: u64,
    /// Tuples added to the view extent.
    pub view_inserts: usize,
    /// Tuples removed from the view extent.
    pub view_deletes: usize,
}

impl MaintenanceTrace {
    /// Component-wise sum.
    #[must_use]
    pub fn merged(self, other: MaintenanceTrace) -> MaintenanceTrace {
        MaintenanceTrace {
            messages: self.messages + other.messages,
            bytes: self.bytes + other.bytes,
            ios: self.ios + other.ios,
            view_inserts: self.view_inserts + other.view_inserts,
            view_deletes: self.view_deletes + other.view_deletes,
        }
    }
}

fn resolvable(clause: &PrimitiveClause, schema: &eve_relational::Schema) -> bool {
    clause
        .columns()
        .iter()
        .all(|c| schema.resolve(c, "probe").is_ok())
}

/// Joins `delta` with `next`, returning the joined relation together with
/// the number of `next`-tuples matched by each delta tuple (for I/O
/// accounting). Routed through the physical execution layer's
/// [`eve_relational::exec::join_with_counts`], which preserves the
/// historical output order and match counts exactly — the maintenance
/// traces stay byte-identical.
fn join_with_counts(
    delta: &Relation,
    next: &Relation,
    on: &[PrimitiveClause],
) -> Result<(Relation, Vec<usize>)> {
    Ok(eve_relational::exec::join_with_counts(delta, next, on)?)
}

/// One directional pass (inserts or deletes) of Algorithm 1. Returns the
/// final view-row delta and the accumulated trace.
#[allow(clippy::too_many_lines)]
fn propagate(
    view: &ViewDef,
    origin_binding: &str,
    tuples: &[Tuple],
    sites: &mut BTreeMap<u32, SimSite>,
    mkb: &Mkb,
    trace: &mut MaintenanceTrace,
) -> Result<Relation> {
    // Build the initial delta under the origin binding's qualifiers.
    let origin_item = view.from_item(origin_binding).ok_or_else(|| Error::State {
        detail: format!("binding `{origin_binding}` not in view"),
    })?;
    let origin_info = mkb.relation(&origin_item.relation)?;
    let base = Relation::with_tuples(
        origin_item.relation.clone(),
        origin_info.schema(),
        tuples.to_vec(),
    )?;
    let mut delta = bind_relation(&base, origin_binding)?;

    // Update notification: the delta travels to the warehouse.
    trace.bytes += delta.extent_byte_size();

    let mut remaining: Vec<PrimitiveClause> =
        view.conditions.iter().map(|c| c.clause.clone()).collect();
    // Clauses local to the origin delta apply immediately (at the
    // warehouse, no I/O).
    let (local, rest): (Vec<_>, Vec<_>) = remaining
        .into_iter()
        .partition(|c| resolvable(c, delta.schema()));
    remaining = rest;
    if !local.is_empty() {
        delta = algebra::select(&delta, &Predicate::new(local))?;
    }

    // Visit order: origin site first, then ascending site ids — the same
    // order the analytic plan uses.
    let origin_site = origin_info.site;
    let mut order: Vec<SiteId> = vec![origin_site];
    let mut others: Vec<SiteId> = Vec::new();
    for item in &view.from {
        let s = mkb.relation(&item.relation)?.site;
        if s != origin_site && !others.contains(&s) {
            others.push(s);
        }
    }
    others.sort_unstable();
    order.extend(others);

    for (visit_idx, site_id) in order.iter().enumerate() {
        // The view relations hosted at this site, excluding the updated one.
        let bindings: Vec<(String, String)> = view
            .from
            .iter()
            .filter(|f| f.binding_name() != origin_binding)
            .filter_map(|f| {
                let site = mkb.relation(&f.relation).ok().map(|r| r.site)?;
                (site == *site_id).then(|| (f.binding_name().to_owned(), f.relation.clone()))
            })
            .collect();
        if bindings.is_empty() {
            continue; // nothing to do here (only possible at the origin)
        }

        // Query + answer round trip.
        trace.messages += 2;
        // R_in: the delta ships to the site (also from the origin site: the
        // warehouse sends it back down, per Eq. 21).
        trace.bytes += delta.extent_byte_size();
        let _ = visit_idx;

        let site = crate::engine::site_mut(sites, site_id.0)?;
        site.charge_messages(2);

        for (binding, relation) in bindings {
            let hosted = site.relation(&relation)?.clone();
            let bound = bind_relation(&hosted, &binding)?;
            // Clauses joining the delta to this relation (or local to it).
            let combined = delta.schema().concat(bound.schema())?;
            let (applicable, rest): (Vec<_>, Vec<_>) = remaining
                .into_iter()
                .partition(|c| resolvable(c, &combined));
            remaining = rest;
            let (joined, counts) = join_with_counts(&delta, &bound, &applicable)?;
            trace.ios += site.charge_probe_io(&relation, &counts)?;
            delta = joined;
        }

        // R_out: the grown delta returns to the warehouse.
        trace.bytes += delta.extent_byte_size();
    }

    if !remaining.is_empty() {
        return Err(Error::Validation(format!(
            "conditions never became resolvable: {}",
            Predicate::new(remaining)
        )));
    }

    // Project onto the view interface.
    let columns: Vec<ColumnRef> = view.select.iter().map(|s| s.attr.clone()).collect();
    let projected = algebra::project(&delta, &columns, false)?;
    let out_names: Vec<ColumnRef> = view
        .output_columns()
        .into_iter()
        .map(ColumnRef::bare)
        .collect();
    algebra::rename_columns(&projected, &out_names).map_err(Error::from)
}

/// Maintains one materialized view after a base-data update (Algorithm 1),
/// mutating `extent` in place and charging I/O at the sites.
///
/// Views that do not reference the updated relation return a zero trace.
/// Self-joins over the updated relation are rejected (incremental deltas
/// would need `Δ ⋈ Δ` terms the paper's algorithm does not model).
///
/// # Errors
///
/// State/validation/relational failures.
pub fn maintain_view(
    view: &ViewDef,
    extent: &mut Relation,
    update: &DataUpdate,
    sites: &mut BTreeMap<u32, SimSite>,
    mkb: &Mkb,
) -> Result<MaintenanceTrace> {
    let view = eve_esql::validate::validate(view).map_err(|e| Error::Validation(e.message))?;
    let bindings: Vec<String> = view
        .from
        .iter()
        .filter(|f| f.relation == update.relation)
        .map(|f| f.binding_name().to_owned())
        .collect();
    if bindings.is_empty() {
        return Ok(MaintenanceTrace::default());
    }
    if bindings.len() > 1 {
        return Err(Error::State {
            detail: format!(
                "view `{}` references `{}` more than once; incremental maintenance \
                 of self-joins is not supported",
                view.name, update.relation
            ),
        });
    }
    let binding = &bindings[0];

    let mut trace = MaintenanceTrace {
        messages: 1, // the update notification
        ..MaintenanceTrace::default()
    };
    // The notification is sent by the updated relation's source site.
    let origin_site = mkb.relation(&update.relation)?.site;
    sites
        .get_mut(&origin_site.0)
        .ok_or_else(|| Error::State {
            detail: format!("unknown site {origin_site}"),
        })?
        .charge_messages(1);

    if !update.inserts.is_empty() {
        let added = propagate(&view, binding, &update.inserts, sites, mkb, &mut trace)?;
        trace.view_inserts = added.cardinality();
        for t in added.tuples() {
            extent.insert(t.clone())?;
        }
    }
    if !update.deletes.is_empty() {
        let removed = propagate(&view, binding, &update.deletes, sites, mkb, &mut trace)?;
        trace.view_deletes = extent.delete(removed.tuples());
    }
    Ok(trace)
}

/// Fully recomputes a view by shipping every referenced extent to the
/// warehouse — the paper's "one-time view recomputation" baseline the
/// incremental algorithm is compared against (\[ZGMHW95\]-style ablation).
/// The warehouse-side re-evaluation runs morsel-parallel when `options`
/// ask for it; site I/O accounting is identical either way (extents are
/// shipped whole, and the scheduler never touches site counters).
///
/// # Errors
///
/// State/relational failures.
pub fn recompute_view(
    view: &ViewDef,
    sites: &mut BTreeMap<u32, SimSite>,
    mkb: &Mkb,
    options: &ExecOptions,
) -> Result<(Relation, MaintenanceTrace)> {
    let view = eve_esql::validate::validate(view).map_err(|e| Error::Validation(e.message))?;
    let mut trace = MaintenanceTrace::default();
    let mut extents: BTreeMap<String, Relation> = BTreeMap::new();
    let mut visited_sites: Vec<u32> = Vec::new();
    for item in &view.from {
        let info = mkb.relation(&item.relation)?;
        let site = sites.get_mut(&info.site.0).ok_or_else(|| Error::State {
            detail: format!("unknown site {}", info.site),
        })?;
        let before = site.io_count();
        let rel = site.scan(&item.relation)?;
        trace.ios += site.io_count() - before;
        trace.bytes += rel.extent_byte_size();
        if !visited_sites.contains(&info.site.0) {
            visited_sites.push(info.site.0);
            trace.messages += 2;
            site.charge_messages(2);
        }
        extents.entry(item.relation.clone()).or_insert(rel);
    }
    let result = crate::query::evaluate_view(&view, &extents, &BTreeMap::new(), options)?;
    trace.view_inserts = result.cardinality();
    Ok((result, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{AttributeInfo, RelationInfo};
    use eve_relational::{tup, DataType, Schema};

    /// Two sites: Customer at IS1, FlightRes at IS2.
    fn setup() -> (Mkb, BTreeMap<u32, SimSite>, ViewDef, Relation) {
        let mut mkb = Mkb::new();
        mkb.register_site(SiteId(1), "one").unwrap();
        mkb.register_site(SiteId(2), "two").unwrap();
        mkb.register_relation(RelationInfo::new(
            "Customer",
            SiteId(1),
            vec![
                AttributeInfo::new("Name", DataType::Text),
                AttributeInfo::new("Address", DataType::Text),
            ],
            3,
        ))
        .unwrap();
        mkb.register_relation(RelationInfo::new(
            "FlightRes",
            SiteId(2),
            vec![
                AttributeInfo::new("PName", DataType::Text),
                AttributeInfo::new("Dest", DataType::Text),
            ],
            3,
        ))
        .unwrap();

        let customer = Relation::with_tuples(
            "Customer",
            Schema::of(&[("Name", DataType::Text), ("Address", DataType::Text)]).unwrap(),
            vec![
                tup!["ann", "12 Elm"],
                tup!["bob", "9 Oak"],
                tup!["cho", "3 Pine"],
            ],
        )
        .unwrap();
        let flights = Relation::with_tuples(
            "FlightRes",
            Schema::of(&[("PName", DataType::Text), ("Dest", DataType::Text)]).unwrap(),
            vec![
                tup!["ann", "Asia"],
                tup!["bob", "Europe"],
                tup!["cho", "Asia"],
            ],
        )
        .unwrap();
        let mut sites = BTreeMap::new();
        let mut s1 = SimSite::new(SiteId(1), "one");
        s1.host(customer, 10).unwrap();
        let mut s2 = SimSite::new(SiteId(2), "two");
        s2.host(flights, 10).unwrap();
        sites.insert(1, s1);
        sites.insert(2, s2);

        let view = eve_esql::parse_view(
            "CREATE VIEW Asia-Customer (VE = '~') AS \
             SELECT C.Name, C.Address \
             FROM Customer C, FlightRes F \
             WHERE (C.Name = F.PName) AND (F.Dest = 'Asia')",
        )
        .unwrap();
        // Materialize the initial extent.
        let mut extents = BTreeMap::new();
        extents.insert(
            "Customer".to_owned(),
            sites[&1].relation("Customer").unwrap().clone(),
        );
        extents.insert(
            "FlightRes".to_owned(),
            sites[&2].relation("FlightRes").unwrap().clone(),
        );
        let extent =
            crate::query::evaluate_view(&view, &extents, &BTreeMap::new(), &ExecOptions::serial())
                .unwrap();
        (mkb, sites, view, extent)
    }

    #[test]
    fn insert_propagates_to_view() {
        let (mkb, mut sites, view, mut extent) = setup();
        assert_eq!(extent.cardinality(), 2);
        // dee books a flight to Asia… but is not a customer: no view change.
        sites
            .get_mut(&2)
            .unwrap()
            .apply_update("FlightRes", &[tup!["dee", "Asia"]], &[])
            .unwrap();
        let update = DataUpdate::insert("FlightRes", vec![tup!["dee", "Asia"]]);
        let trace = maintain_view(&view, &mut extent, &update, &mut sites, &mkb).unwrap();
        assert_eq!(trace.view_inserts, 0);
        assert_eq!(extent.cardinality(), 2);

        // bob books Asia: view gains a row.
        sites
            .get_mut(&2)
            .unwrap()
            .apply_update("FlightRes", &[tup!["bob", "Asia"]], &[])
            .unwrap();
        let update = DataUpdate::insert("FlightRes", vec![tup!["bob", "Asia"]]);
        let trace = maintain_view(&view, &mut extent, &update, &mut sites, &mkb).unwrap();
        assert_eq!(trace.view_inserts, 1);
        assert!(extent.contains(&tup!["bob", "9 Oak"]));
    }

    #[test]
    fn incremental_equals_recompute() {
        let (mkb, mut sites, view, mut extent) = setup();
        // A sequence of updates at both sources.
        let updates = [
            DataUpdate::insert("Customer", vec![tup!["dee", "7 Fir"]]),
            DataUpdate::insert("FlightRes", vec![tup!["dee", "Asia"]]),
            DataUpdate::delete("FlightRes", vec![tup!["ann", "Asia"]]),
            DataUpdate::insert("FlightRes", vec![tup!["cho", "Asia"]]),
        ];
        for u in &updates {
            // Apply at the base site first, then maintain.
            let info = mkb.relation(&u.relation).unwrap();
            sites
                .get_mut(&info.site.0)
                .unwrap()
                .apply_update(&u.relation, &u.inserts, &u.deletes)
                .unwrap();
            maintain_view(&view, &mut extent, u, &mut sites, &mkb).unwrap();
        }
        let (recomputed, _) =
            recompute_view(&view, &mut sites, &mkb, &ExecOptions::serial()).unwrap();
        let mut a = extent.tuples().to_vec();
        let mut b = recomputed.tuples().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "incremental maintenance must equal recomputation");
        // cho appears twice (two Asia reservations) — bag semantics held.
        assert_eq!(a.iter().filter(|t| *t == &tup!["cho", "3 Pine"]).count(), 2);
    }

    #[test]
    fn trace_counts_messages_and_bytes() {
        let (mkb, mut sites, view, mut extent) = setup();
        sites
            .get_mut(&1)
            .unwrap()
            .apply_update("Customer", &[tup!["dee", "7 Fir"]], &[])
            .unwrap();
        let update = DataUpdate::insert("Customer", vec![tup!["dee", "7 Fir"]]);
        let trace = maintain_view(&view, &mut extent, &update, &mut sites, &mkb).unwrap();
        // Notification + one query/answer pair (origin site has no other
        // view relation, FlightRes site is queried).
        assert_eq!(trace.messages, 3);
        // Bytes: notification (40) + R_in (40) + R_out (0 rows: dee has no
        // Asia flight) = 80 with the declared TEXT size 20 per column.
        assert_eq!(trace.bytes, 80);
        assert!(trace.ios >= 1);
    }

    #[test]
    fn unrelated_update_is_free() {
        let (mkb, mut sites, view, mut extent) = setup();
        let mut mkb2 = mkb;
        mkb2.register_relation(RelationInfo::new(
            "Hotel",
            SiteId(1),
            vec![AttributeInfo::new("Name", DataType::Text)],
            1,
        ))
        .unwrap();
        let update = DataUpdate::insert("Hotel", vec![tup!["ritz"]]);
        let trace = maintain_view(&view, &mut extent, &update, &mut sites, &mkb2).unwrap();
        assert_eq!(trace, MaintenanceTrace::default());
    }

    #[test]
    fn self_join_rejected() {
        let (mkb, mut sites, _, _) = setup();
        let view = eve_esql::parse_view(
            "CREATE VIEW V AS SELECT X.Name FROM Customer X, Customer Y \
             WHERE X.Name = Y.Name",
        )
        .unwrap();
        let mut extent = Relation::empty("V", Schema::of(&[("Name", DataType::Text)]).unwrap());
        let update = DataUpdate::insert("Customer", vec![tup!["zed", "1 Elm"]]);
        let e = maintain_view(&view, &mut extent, &update, &mut sites, &mkb).unwrap_err();
        assert!(e.to_string().contains("self-joins"));
    }

    #[test]
    fn recompute_trace_ships_full_extents() {
        let (mkb, mut sites, view, _) = setup();
        for s in sites.values_mut() {
            s.reset_io();
        }
        let (rel, trace) = recompute_view(&view, &mut sites, &mkb, &ExecOptions::serial()).unwrap();
        assert_eq!(rel.cardinality(), 2);
        assert_eq!(trace.messages, 4); // two sites × (query + answer)
                                       // 3 Customer rows × 40 bytes + 3 FlightRes rows × 40 bytes.
        assert_eq!(trace.bytes, 240);
        assert!(trace.ios >= 2); // at least one block per relation
    }
}
