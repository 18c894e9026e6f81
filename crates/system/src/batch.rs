//! Batched, cache-aware multi-site execution of evolution workloads.
//!
//! [`EveEngine::apply_batch`] drives a [`Vec<EvolutionOp>`] through the
//! plan produced by `eve-sync`'s batch planner: maximal runs of data
//! updates are partitioned into independent groups (disjoint sites,
//! relations and views) and processed **concurrently** on std threads,
//! while capability changes act as sequential barriers handled through the
//! engine's memoized [`RewriteCache`](eve_sync::RewriteCache).
//!
//! The pipeline is observationally identical to applying the ops one by
//! one through the legacy paths ([`EveEngine::notify_data_update`] /
//! [`EveEngine::notify_capability_change_sequential`]): view extents,
//! survival verdicts and per-site I/O + message accounting match to the
//! byte — partitions never share a site or view, each partition preserves
//! op order, and within one op views are maintained in name order. The
//! speedup comes from scheduling only: unaffected views are never visited,
//! independent partitions run in parallel, and rewriting enumeration is
//! memoized per MKB generation. (Per-view delta relations are deliberately
//! *not* coalesced across ops — that would change the charged I/O under
//! the per-pass full-scan cap, making cost reports incomparable.)
//!
//! The equivalence contract covers workloads whose ops all succeed (which
//! the differential suite generates by construction). Error handling
//! diverges by design: ops naming unknown relations are rejected up front,
//! before the stage applies anything, and an op failing *mid*-stage (e.g.
//! a schema-mismatched tuple) aborts its own partition while independent
//! partitions — including ones holding later ops — still run to
//! completion. On error the warehouse is therefore whole and consistent,
//! but not necessarily the sequential path's failure prefix.

use std::collections::BTreeMap;
use std::thread;

use eve_sync::batch::{partition_stage, EvolutionOp, Partition, ViewFootprint};

use crate::engine::{BatchOutcome, EveEngine, MaterializedView};
use crate::error::{Error, Result};
use crate::maintainer::{maintain_view, DataUpdate, MaintenanceTrace};
use crate::site::SimSite;

impl From<DataUpdate> for EvolutionOp {
    fn from(update: DataUpdate) -> EvolutionOp {
        EvolutionOp::Data {
            relation: update.relation,
            inserts: update.inserts,
            deletes: update.deletes,
        }
    }
}

/// The slice of engine state one partition owns while its thread runs.
struct PartitionUnit {
    updates: Vec<DataUpdate>,
    sites: BTreeMap<u32, SimSite>,
    views: BTreeMap<String, MaterializedView>,
    traces: BTreeMap<String, MaintenanceTrace>,
}

/// Runs one partition to completion: ops in order, per op the base update
/// first, then every view referencing the updated relation in name order —
/// exactly the schedule of the legacy per-op loop restricted to this
/// partition's views.
fn run_partition(mkb: &eve_misd::Mkb, unit: &mut PartitionUnit) -> Option<Error> {
    let _span = eve_trace::span("engine.partition");
    for update in &unit.updates {
        let info = match mkb.relation(&update.relation) {
            Ok(info) => info,
            Err(e) => return Some(e.into()),
        };
        let Some(site) = unit.sites.get_mut(&info.site.0) else {
            return Some(Error::State {
                detail: format!("partition lost site {} of `{}`", info.site, update.relation),
            });
        };
        if let Err(e) = site.apply_update(&update.relation, &update.inserts, &update.deletes) {
            return Some(e);
        }
        for (name, mv) in &mut unit.views {
            if !mv.def.from.iter().any(|f| f.relation == update.relation) {
                continue;
            }
            match maintain_view(&mv.def, &mut mv.extent, update, &mut unit.sites, mkb) {
                Ok(trace) => {
                    let entry = unit.traces.entry(name.clone()).or_default();
                    *entry = entry.merged(trace);
                }
                Err(e) => return Some(e),
            }
        }
    }
    None
}

impl EveEngine {
    /// Applies a batched evolution workload: data updates, capability
    /// changes and relation drops, in one call.
    ///
    /// Runs of data ops between capability barriers are partitioned into
    /// independent groups and processed concurrently (std threads over
    /// disjoint [`SimSite`]/view slices); capability changes run
    /// sequentially through the cached synchronizer. See the module docs
    /// for the exact equivalence contract with the legacy op-by-op paths.
    ///
    /// # Errors
    ///
    /// State/validation failures. Data ops naming unknown relations are
    /// rejected before any op of their stage is applied.
    pub fn apply_batch(&mut self, ops: Vec<EvolutionOp>) -> Result<BatchOutcome> {
        let _span = eve_trace::span("engine.apply_batch");
        let started = std::time::Instant::now();
        let registry = eve_trace::global();
        registry.counter("engine.batches").inc();
        let rewrite_stats_before = self.rewrite_cache_stats();
        let mut outcome = BatchOutcome::default();
        let mut ops: Vec<Option<EvolutionOp>> = ops.into_iter().map(Some).collect();
        let mut i = 0;
        while i < ops.len() {
            if ops[i].as_ref().expect("unconsumed").is_data() {
                let start = i;
                while i < ops.len() && ops[i].as_ref().expect("unconsumed").is_data() {
                    i += 1;
                }
                self.run_data_stage(&ops[start..i], &mut outcome)?;
            } else {
                let Some(EvolutionOp::Capability { change, new_extent }) = ops[i].take() else {
                    unreachable!("non-data op is a capability op");
                };
                let reports = self.capability_change_batched(&change, new_extent)?;
                outcome.reports.extend(reports);
                outcome.capability_ops += 1;
                registry.counter("engine.capability_changes").inc();
                i += 1;
            }
        }
        let rewrite_stats_after = self.rewrite_cache_stats();
        outcome.rewrite_hits = rewrite_stats_after.0 - rewrite_stats_before.0;
        outcome.rewrite_misses = rewrite_stats_after.1 - rewrite_stats_before.1;
        registry
            .histogram("engine.apply_batch_us")
            .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        Ok(outcome)
    }

    /// Rewriting-cache statistics `(hits, misses)` accumulated over the
    /// engine's lifetime.
    #[must_use]
    pub fn rewrite_cache_stats(&self) -> (u64, u64) {
        (self.rewrite_cache.hits(), self.rewrite_cache.misses())
    }

    /// Plans and executes one run of data ops.
    fn run_data_stage(
        &mut self,
        ops: &[Option<EvolutionOp>],
        outcome: &mut BatchOutcome,
    ) -> Result<()> {
        let op_refs: Vec<&EvolutionOp> = ops
            .iter()
            .map(|o| o.as_ref().expect("unconsumed"))
            .collect();
        // Up-front validation: every updated relation must be known, as the
        // legacy path would discover op by op.
        for op in &op_refs {
            if let EvolutionOp::Data { relation, .. } = op {
                self.mkb.relation(relation)?;
            }
        }
        // Plan against the *current* view definitions — adopted rewritings
        // from earlier capability barriers have already changed footprints.
        let footprints: Vec<ViewFootprint> = self
            .views
            .values()
            .map(|mv| ViewFootprint::of(&mv.def))
            .collect();
        let partitions = partition_stage(&op_refs, &footprints, |rel| {
            self.mkb.relation(rel).ok().map(|info| info.site.0)
        });
        outcome.data_ops += op_refs.len();
        outcome.data_stages += 1;
        outcome.max_width = outcome.max_width.max(partitions.len());
        let registry = eve_trace::global();
        registry
            .counter("engine.data_updates")
            .add(op_refs.len() as u64);
        registry
            .counter("engine.batch_partitions")
            .add(partitions.len() as u64);

        // Carve the engine state into per-partition units.
        let mut units: Vec<PartitionUnit> = Vec::with_capacity(partitions.len());
        for partition in &partitions {
            units.push(self.checkout_unit(partition, &op_refs));
        }

        // Execute: inline when there is nothing to overlap (one partition
        // or one core), scoped threads otherwise (each worker drains a
        // round-robin share of partitions).
        let workers = thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(units.len());
        let mut failure: Option<Error> = None;
        if workers <= 1 {
            for unit in &mut units {
                if failure.is_none() {
                    failure = run_partition(&self.mkb, unit);
                }
            }
        } else {
            let mut buckets: Vec<Vec<PartitionUnit>> = (0..workers).map(|_| Vec::new()).collect();
            for (idx, unit) in units.drain(..).enumerate() {
                buckets[idx % workers].push(unit);
            }
            let mkb = &self.mkb;
            let finished: Vec<(Vec<PartitionUnit>, Option<Error>)> = thread::scope(|scope| {
                let handles: Vec<_> = buckets
                    .into_iter()
                    .map(|mut bucket| {
                        scope.spawn(move || {
                            let mut err = None;
                            for unit in &mut bucket {
                                if err.is_none() {
                                    err = run_partition(mkb, unit);
                                }
                            }
                            (bucket, err)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("partition worker panicked"))
                    .collect()
            });
            for (bucket, err) in finished {
                units.extend(bucket);
                if failure.is_none() {
                    failure = err;
                }
            }
        }

        // Reassemble the engine — always, even on failure, so the warehouse
        // stays whole.
        for unit in units {
            self.sites.extend(unit.sites);
            self.views.extend(unit.views);
            for (view, trace) in unit.traces {
                let entry = outcome.traces.entry(view).or_default();
                *entry = entry.merged(trace);
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Moves a partition's sites and views out of the engine and clones its
    /// ops into [`DataUpdate`]s.
    fn checkout_unit(&mut self, partition: &Partition, ops: &[&EvolutionOp]) -> PartitionUnit {
        let mut sites = BTreeMap::new();
        for id in &partition.sites {
            if let Some(site) = self.sites.remove(id) {
                sites.insert(*id, site);
            }
        }
        let mut views = BTreeMap::new();
        for name in &partition.views {
            if let Some(mv) = self.views.remove(name) {
                views.insert(name.clone(), mv);
            }
        }
        let updates = partition
            .ops
            .iter()
            .map(|&idx| match ops[idx] {
                EvolutionOp::Data {
                    relation,
                    inserts,
                    deletes,
                } => DataUpdate {
                    relation: relation.clone(),
                    inserts: inserts.clone(),
                    deletes: deletes.clone(),
                },
                EvolutionOp::Capability { .. } => unreachable!("data stages hold data ops only"),
            })
            .collect();
        PartitionUnit {
            updates,
            sites,
            views,
            traces: BTreeMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{
        AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
    };
    use eve_relational::{tup, DataType, Relation, Schema};

    /// `n` independent sites, each hosting `Ri_a ⋈ Ri_b` under view `Vi`,
    /// plus a colocated replica `Ri_c ≡ Ri_b` for capability changes.
    fn engine_with_sites(n: u32) -> EveEngine {
        let mut e = EveEngine::new();
        for i in 1..=n {
            e.add_site(SiteId(i), format!("IS{i}")).unwrap();
            let schema = Schema::of(&[("K", DataType::Int), ("P", DataType::Int)]).unwrap();
            let attrs = || {
                vec![
                    AttributeInfo::new("K", DataType::Int),
                    AttributeInfo::new("P", DataType::Int),
                ]
            };
            for suffix in ["a", "b", "c"] {
                let name = format!("R{i}_{suffix}");
                let rows: Vec<_> = (0..20i64).map(|k| tup![k, k % 5]).collect();
                e.register_relation(
                    RelationInfo::new(&name, SiteId(i), attrs(), 10),
                    Relation::with_tuples(&name, schema.clone(), rows).unwrap(),
                )
                .unwrap();
            }
            e.mkb_mut()
                .add_pc_constraint(PcConstraint::new(
                    PcSide::projection(format!("R{i}_b"), &["K", "P"]),
                    PcRelationship::Equivalent,
                    PcSide::projection(format!("R{i}_c"), &["K", "P"]),
                ))
                .unwrap();
            e.define_view_sql(&format!(
                "CREATE VIEW V{i} (VE = '~') AS SELECT A.K, B.P AS BP \
                 FROM R{i}_a A, R{i}_b B (RR = true) WHERE A.K = B.K"
            ))
            .unwrap();
        }
        e
    }

    #[test]
    fn batch_matches_sequential_on_mixed_workload() {
        let base = engine_with_sites(3);
        let ops = vec![
            EvolutionOp::insert("R1_a", vec![tup![100, 0]]),
            EvolutionOp::insert("R2_b", vec![tup![7, 9]]),
            EvolutionOp::delete("R3_a", vec![tup![0, 0]]),
            EvolutionOp::change(SchemaChange::DeleteRelation {
                relation: "R2_b".into(),
            }),
            EvolutionOp::insert("R2_c", vec![tup![5, 5]]),
            EvolutionOp::insert("R1_b", vec![tup![100, 3]]),
        ];

        let mut batched = base.clone();
        batched.reset_io();
        let outcome = batched.apply_batch(ops.clone()).unwrap();
        assert_eq!(outcome.data_ops, 5);
        assert_eq!(outcome.capability_ops, 1);
        assert_eq!(outcome.data_stages, 2);
        assert!(outcome.max_width >= 3, "three independent sites");

        // Drift guard: the executor segments ops into stages with the same
        // data-run/barrier rule the advisory planner implements — if one
        // side's segmentation changes, this catches it.
        let footprints: Vec<eve_sync::ViewFootprint> = base
            .views()
            .map(|mv| eve_sync::ViewFootprint::of(&mv.def))
            .collect();
        let advisory = eve_sync::batch::plan(&ops, &footprints, |rel| {
            base.mkb().relation(rel).ok().map(|info| info.site.0)
        });
        let advisory_data_stages = advisory
            .stages
            .iter()
            .filter(|s| matches!(s, eve_sync::Stage::Data { .. }))
            .count();
        assert_eq!(advisory_data_stages, outcome.data_stages);
        assert_eq!(
            advisory.stages.len() - advisory_data_stages,
            outcome.capability_ops
        );

        let mut sequential = base;
        sequential.reset_io();
        for op in ops {
            match op {
                EvolutionOp::Data {
                    relation,
                    inserts,
                    deletes,
                } => {
                    sequential
                        .notify_data_update(&DataUpdate {
                            relation,
                            inserts,
                            deletes,
                        })
                        .unwrap();
                }
                EvolutionOp::Capability { change, new_extent } => {
                    sequential
                        .notify_capability_change_sequential(&change, new_extent)
                        .unwrap();
                }
            }
        }

        assert_eq!(batched.total_io(), sequential.total_io());
        assert_eq!(batched.total_messages(), sequential.total_messages());
        let b_views: Vec<_> = batched.views().map(|mv| mv.def.to_string()).collect();
        let s_views: Vec<_> = sequential.views().map(|mv| mv.def.to_string()).collect();
        assert_eq!(b_views, s_views);
        for (b, s) in batched.views().zip(sequential.views()) {
            assert_eq!(b.extent.tuples(), s.extent.tuples(), "{}", b.def.name);
        }
    }

    #[test]
    fn batch_reports_match_single_change_notification() {
        // notify_capability_change routes through apply_batch; its reports
        // must look exactly like the sequential reference's.
        let mut a = engine_with_sites(2);
        let mut b = a.clone();
        let change = SchemaChange::DeleteRelation {
            relation: "R1_b".into(),
        };
        let ra = a.notify_capability_change(&change, None).unwrap();
        let rb = b
            .notify_capability_change_sequential(&change, None)
            .unwrap();
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.view_name, y.view_name);
            assert_eq!(x.affected, y.affected);
            assert_eq!(x.survived, y.survived);
            assert_eq!(x.candidates, y.candidates);
        }
        assert!(a.view("V1").unwrap().def.to_string().contains("R1_c"));
    }

    #[test]
    fn unknown_relation_rejected_before_application() {
        let mut e = engine_with_sites(1);
        let before = e.view("V1").unwrap().extent.clone();
        let err = e
            .apply_batch(vec![
                EvolutionOp::insert("R1_a", vec![tup![500, 0]]),
                EvolutionOp::insert("Ghost", vec![tup![1, 1]]),
            ])
            .unwrap_err();
        assert!(err.to_string().contains("Ghost"), "{err}");
        // Nothing from the failed stage was applied.
        assert_eq!(e.view("V1").unwrap().extent.tuples(), before.tuples());
        assert!(!e.sites[&1]
            .relation("R1_a")
            .unwrap()
            .contains(&tup![500, 0]));
    }

    #[test]
    fn repeated_changes_hit_the_rewrite_cache() {
        let mut e = engine_with_sites(1);
        // Two views over the same relation: the second synchronization of
        // the same (view, change) pair within one generation replays.
        e.define_view_sql("CREATE VIEW W (VE = '~') AS SELECT B.K FROM R1_b B (RR = true)")
            .unwrap();
        let change = SchemaChange::RenameAttribute {
            relation: "R1_b".into(),
            from: "P".into(),
            to: "P2".into(),
        };
        let outcome = e.apply_batch(vec![EvolutionOp::change(change)]).unwrap();
        // Both views were candidates; the partner cache is shared across
        // them (rename paths do not consult partners, but the outcome cache
        // recorded both syntheses as misses — no spurious hits).
        assert_eq!(outcome.rewrite_misses, 2);
        assert_eq!(outcome.rewrite_hits, 0);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut e = engine_with_sites(1);
        let outcome = e.apply_batch(Vec::new()).unwrap();
        assert_eq!(outcome.data_ops, 0);
        assert_eq!(outcome.capability_ops, 0);
        assert!(outcome.traces.is_empty());
        assert!(outcome.reports.is_empty());
    }
}
