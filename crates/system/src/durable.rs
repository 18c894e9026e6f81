//! The durable engine: an [`EveEngine`] whose evolution history survives
//! crashes, backed by the `eve-store` write-ahead evolution log.
//!
//! ## One mutation path
//!
//! Every mutation is a [`Command`] — the store's `LogRecord`, re-exported
//! unchanged — and reaches the log through one call,
//! [`DurableEngine::apply`]: fail closed if poisoned, apply to the engine
//! ([`EveEngine::apply`]), then log the same record. There is no
//! per-mutation wrapper, so what recovery replays is by construction what
//! the live engine applied.
//!
//! ## Durability contract
//!
//! [`DurableEngine::apply`] enqueues the record on the store's
//! **group-commit writer** and waits on its commit ticket — the ticket
//! resolves only after the batch containing the record is `fsync`'d, so
//! when the call returns `Ok`, the operation is on disk and recovery will
//! reproduce it. A crash between apply and commit loses at most the
//! in-flight call (which was never acknowledged); a crash mid-append
//! leaves a torn frame the next [`DurableEngine::open`] truncates. The
//! group-commit queue is what lets many concurrent appenders (e.g. the
//! throughput benches driving [`eve_store::GroupCommitLog`] directly)
//! share one fsync per batch instead of paying one each.
//!
//! A failure that leaves the log behind the engine (a batch rejected
//! partway, a failed append) is re-anchored with a full snapshot. If that
//! snapshot fails too, the host is *poisoned*: [`DurableEngine::apply`],
//! [`DurableEngine::rebalance_views`] and [`DurableEngine::compact`] fail
//! closed until a successful [`DurableEngine::checkpoint`].
//!
//! ## Recovery
//!
//! [`DurableEngine::open`] loads the newest intact snapshot, rebuilds the
//! engine from it, and replays the log tail through [`EveEngine::apply`]
//! — the same call the records originally took. Since application is
//! deterministic under a fixed configuration (the configuration is part
//! of every snapshot), the recovered engine is byte-identical — MKB
//! generation, site extents and counters, installed rewritings — to the
//! engine that never crashed. The differential suite in
//! `tests/durability.rs` pins exactly that across random op streams and
//! random crash points.
//!
//! ## Time travel
//!
//! Records carry the MKB generation observed after applying them, and
//! snapshots are retained (until [`DurableEngine::compact`]), so
//! [`DurableEngine::open_at`] can rebuild the engine as of any retained
//! generation `g`: the newest snapshot at or before `g` plus every record
//! whose post-generation is `≤ g`. Queries can then be evaluated against
//! past MKB generations — "what did this view look like at generation N".

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use eve_misd::{Mkb, SiteId};
use eve_store::{
    DeltaSnapshot, EngineConfig, EngineSnapshot, EvolutionStore, GroupCommitLog, GroupCommitPolicy,
    RecoveredLog, SiteSnapshot, SnapshotMeta, StoreStats, ViewSnapshot,
};
use eve_sync::EvolutionOp;

use crate::engine::{Applied, BatchOutcome, EveEngine, MaterializedView};
use crate::error::{Error, Result};
use crate::site::SimSite;
use crate::Command;

impl From<eve_store::Error> for Error {
    fn from(e: eve_store::Error) -> Error {
        match e {
            // Keep "store busy" typed across the layer boundary: the shell
            // and server surface it with the lock path and a usage hint
            // instead of collapsing it into a generic state error.
            eve_store::Error::Busy { .. } => Error::Busy {
                detail: e.to_string(),
            },
            other => Error::State {
                detail: other.to_string(),
            },
        }
    }
}

/// What [`DurableEngine::open`] reports about the recovery it performed.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery anchored on (`None` when
    /// the store held no intact snapshot and replay started from empty).
    pub snapshot_seq: Option<u64>,
    /// MKB generation of that snapshot.
    pub snapshot_generation: Option<u64>,
    /// Log records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Bytes truncated from a torn tail frame (0 on a clean shutdown).
    pub torn_bytes_truncated: u64,
    /// Damaged snapshot files that were skipped in favour of older ones.
    pub snapshots_skipped: usize,
    /// MKB generation after recovery completed.
    pub generation: u64,
}

/// An engine plus its evolution store. Mutations must flow through
/// [`DurableEngine::apply`] to be durable; [`DurableEngine::engine_mut`]
/// exists for read-mostly tweaks but anything reaching state the snapshot
/// covers should be followed by [`DurableEngine::checkpoint`].
#[derive(Debug)]
pub struct DurableEngine {
    engine: EveEngine,
    log: GroupCommitLog,
    dir: PathBuf,
    /// Write a snapshot automatically after every `k` batches (`None`
    /// disables automatic checkpoints; explicit ones always work).
    /// Automatic checkpoints are incremental **delta** snapshots (cost
    /// proportional to state changed since the last anchor, not total
    /// warehouse state), with a periodic full image so recovery chains
    /// stay short. Explicit [`DurableEngine::checkpoint`] is always full.
    pub snapshot_every: Option<u64>,
    batches_since_snapshot: u64,
    /// Seq and materialized state of the newest snapshot written or
    /// recovered through this handle — the base the next delta diffs
    /// against.
    last_snapshot: Option<(u64, EngineSnapshot)>,
    deltas_since_full: u64,
    /// Set when a failed mutation could not be re-anchored with a
    /// snapshot: the store is behind the live engine. While poisoned,
    /// every durable mutation fails closed (the engine is not touched);
    /// a successful [`DurableEngine::checkpoint`] clears it.
    poisoned: Option<String>,
}

/// Every `N`th automatic delta checkpoint is promoted to a full image,
/// bounding the recovery chain length (the store also enforces a hard
/// depth cap when resolving chains).
const FULL_SNAPSHOT_EVERY: u64 = 8;

impl DurableEngine {
    /// Creates a fresh store at `dir` around a new, empty engine.
    ///
    /// # Errors
    ///
    /// Store I/O failures, or `dir` already holding a store.
    pub fn create(dir: impl Into<PathBuf>) -> Result<DurableEngine> {
        DurableEngine::create_with(dir, EveEngine::new())
    }

    /// Creates a fresh store at `dir`, bootstrapping it with `engine`'s
    /// current state as the sequence-0 snapshot (so pre-existing sites,
    /// relations and views are durable from the start).
    ///
    /// # Errors
    ///
    /// Store I/O failures, or `dir` already holding a store.
    pub fn create_with(dir: impl Into<PathBuf>, engine: EveEngine) -> Result<DurableEngine> {
        let dir = dir.into();
        let mut store = EvolutionStore::create(&dir)?;
        let snapshot = engine.snapshot_state();
        let seq = store.write_snapshot(&snapshot)?;
        Ok(DurableEngine::over(
            engine,
            store,
            dir,
            Some((seq, snapshot)),
        ))
    }

    /// A live handle over an opened store whose newest snapshot (if any)
    /// is `last_snapshot`.
    fn over(
        engine: EveEngine,
        store: EvolutionStore,
        dir: PathBuf,
        last_snapshot: Option<(u64, EngineSnapshot)>,
    ) -> DurableEngine {
        DurableEngine {
            engine,
            log: GroupCommitLog::new(store, GroupCommitPolicy::default()),
            dir,
            snapshot_every: None,
            batches_since_snapshot: 0,
            last_snapshot,
            deltas_since_full: 0,
            poisoned: None,
        }
    }

    /// Opens an existing store at `dir`, recovering the engine from the
    /// newest intact snapshot plus log-tail replay (truncating a torn tail
    /// record, if the process died mid-write).
    ///
    /// # Errors
    ///
    /// Store I/O/corruption failures, or replay failures (which indicate a
    /// log produced under a different engine version).
    pub fn open(dir: impl Into<PathBuf>) -> Result<(DurableEngine, RecoveryReport)> {
        let dir = dir.into();
        let (store, recovered) = EvolutionStore::open(&dir)?;
        let RecoveredLog {
            snapshot,
            tail,
            torn_bytes,
            snapshots_skipped,
            ..
        } = recovered;
        let (snapshot_seq, snapshot_generation, last_snapshot, mut engine) = match snapshot {
            Some((seq, snap)) => {
                let generation = snap.generation();
                let engine = EveEngine::from_snapshot_state(&snap)?;
                (Some(seq), Some(generation), Some((seq, snap)), engine)
            }
            None => (None, None, None, EveEngine::new()),
        };
        let replayed_records = tail.len() as u64;
        for sealed in tail {
            engine.apply(&sealed.record)?;
        }
        let report = RecoveryReport {
            snapshot_seq,
            snapshot_generation,
            replayed_records,
            torn_bytes_truncated: torn_bytes,
            snapshots_skipped,
            generation: engine.mkb().generation(),
        };
        Ok((
            DurableEngine::over(engine, store, dir, last_snapshot),
            report,
        ))
    }

    /// Opens the store read-only as of MKB generation `generation`: the
    /// newest snapshot at or before it plus every record whose
    /// post-generation does not exceed it — i.e. the state just before the
    /// first operation that moved the MKB past `generation`.
    ///
    /// Uses the store's read-only travel planner, so it works while a
    /// *live* [`DurableEngine`] still holds the directory's single-opener
    /// lock — historical reads never contend with the writer.
    ///
    /// # Errors
    ///
    /// Store failures, `generation` preceding the retained (compacted)
    /// horizon, or replay failures.
    pub fn open_at(dir: impl AsRef<Path>, generation: u64) -> Result<EveEngine> {
        let (snapshot, records) = EvolutionStore::plan_travel_in(dir.as_ref(), generation)?;
        let mut engine = EveEngine::from_snapshot_state(&snapshot)?;
        for sealed in records {
            engine.apply(&sealed.record)?;
        }
        Ok(engine)
    }

    /// The wrapped engine (read access).
    #[must_use]
    pub fn engine(&self) -> &EveEngine {
        &self.engine
    }

    /// Mutable engine access. Mutations made here bypass the log — use
    /// [`DurableEngine::apply`] for anything recovery must reproduce, or
    /// follow up with [`DurableEngine::checkpoint`].
    pub fn engine_mut(&mut self) -> &mut EveEngine {
        &mut self.engine
    }

    /// The store's accumulated I/O counters.
    #[must_use]
    pub fn store_stats(&self) -> StoreStats {
        self.log.with_store(|s| s.stats())
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number of the next log record.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.log.with_store(|s| s.next_seq())
    }

    /// Intact snapshots (full and delta), in sequence order.
    ///
    /// # Errors
    ///
    /// Store I/O failures.
    pub fn snapshot_index(&self) -> Result<Vec<SnapshotMeta>> {
        Ok(self.log.with_store(|s| s.snapshot_index())?)
    }

    /// Number of log segment files on disk.
    ///
    /// # Errors
    ///
    /// Store I/O failures.
    pub fn segment_count(&self) -> Result<usize> {
        Ok(self.log.with_store(|s| s.segment_count())?)
    }

    /// Resets resource accounting: the engine's counters (sites, caches,
    /// index — see [`EveEngine::reset_io`]) *and* the store's I/O counters.
    pub fn reset_io(&mut self) {
        self.engine.reset_io();
        self.log.with_store(|s| s.reset_stats());
    }

    /// Writes a **full** snapshot of the current engine state and rotates
    /// the log segment. History stays on disk for time travel until
    /// [`DurableEngine::compact`].
    ///
    /// # Errors
    ///
    /// Store I/O failures.
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.batches_since_snapshot = 0;
        self.deltas_since_full = 0;
        let snapshot = self.engine.snapshot_state();
        let seq = self.log.with_store(|s| s.write_snapshot(&snapshot))?;
        self.last_snapshot = Some((seq, snapshot));
        // A full snapshot re-anchors durability on the live state: any
        // earlier double failure is healed, so the host is live again.
        self.poisoned = None;
        Ok(seq)
    }

    /// Writes an **incremental** delta checkpoint: the state difference
    /// against the last snapshot written or recovered through this handle.
    /// I/O cost is proportional to the state *changed* since that anchor
    /// — unchanged relations are recognized in O(1) via shared extent
    /// storage — so periodic checkpointing stops scaling with total
    /// warehouse state. Falls back to a full snapshot when there is no
    /// base to diff against or every [`FULL_SNAPSHOT_EVERY`]th call, which
    /// bounds the chain recovery must resolve.
    ///
    /// # Errors
    ///
    /// Store I/O failures.
    pub fn checkpoint_delta(&mut self) -> Result<u64> {
        let Some(base_seq) = self.last_snapshot.as_ref().map(|(seq, _)| *seq) else {
            return self.checkpoint();
        };
        if self.deltas_since_full + 1 >= FULL_SNAPSHOT_EVERY {
            return self.checkpoint();
        }
        if self.log.with_store(|s| s.next_seq()) == base_seq {
            // Nothing logged since the anchor: a delta here could only be
            // empty — and would shadow its own base at the same seq.
            self.batches_since_snapshot = 0;
            return Ok(base_seq);
        }
        let current = self.engine.snapshot_state();
        let base = &self.last_snapshot.as_ref().expect("checked above").1;
        let delta = DeltaSnapshot::between(base_seq, base, &current);
        let seq = self.log.with_store(|s| s.write_delta_snapshot(&delta))?;
        self.batches_since_snapshot = 0;
        self.deltas_since_full += 1;
        self.last_snapshot = Some((seq, current));
        Ok(seq)
    }

    /// Drops history before the newest snapshot, bounding disk use and
    /// recovery replay at the price of the time-travel horizon. Returns
    /// `(segments_deleted, snapshots_deleted)`. Refused while poisoned:
    /// the newest snapshot may then be older than the live engine.
    ///
    /// # Errors
    ///
    /// Store failures, or [`Error::Poisoned`].
    pub fn compact(&mut self) -> Result<(usize, usize)> {
        self.ensure_live()?;
        Ok(self.log.with_store(|s| s.compact())?)
    }

    /// Whether the host is poisoned: a failed mutation could not be
    /// re-anchored with a snapshot, so the on-disk store is behind the
    /// live engine. While poisoned every durable mutation fails closed;
    /// a successful [`DurableEngine::checkpoint`] heals the host.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Records the double failure and returns the typed error surfaced to
    /// the caller (and to every durable mutation attempted afterwards).
    fn poison(&mut self, detail: String) -> Error {
        self.poisoned = Some(detail.clone());
        Error::Poisoned { detail }
    }

    /// Fails closed when the host is poisoned — called before the engine
    /// is touched, so a half-anchored store never drifts further from its
    /// log while the operator decides how to recover.
    fn ensure_live(&self) -> Result<()> {
        match &self.poisoned {
            Some(detail) => Err(Error::Poisoned {
                detail: detail.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Re-anchors durability after `failure` left the log behind the live
    /// engine: a full snapshot records the actual state, so recovery lands
    /// exactly here and later appends never replay on top of a log missing
    /// a mutation. If the snapshot fails too, the host is poisoned.
    fn reanchor(&mut self, what: &str, failure: Error) -> Error {
        match self.checkpoint() {
            Ok(_) => failure,
            Err(anchor_err) => self.poison(format!(
                "{what} failed ({failure}) and the re-anchoring snapshot also \
                 failed ({anchor_err}): the store is behind the live engine"
            )),
        }
    }

    /// Applies one [`Command`] durably — the only way a mutation reaches
    /// the log:
    ///
    /// 1. fail closed when the host is poisoned (the engine is not touched);
    /// 2. apply it to the engine ([`EveEngine::apply`]);
    /// 3. if the state changed, enqueue the record on the group-commit
    ///    writer and block on its ticket until the record's batch is
    ///    fsync'd (a view is logged as the engine validated it);
    /// 4. after a batch, take the automatic checkpoint `snapshot_every`
    ///    asks for.
    ///
    /// A batch the engine rejects partway (independent partitions may
    /// already have applied) is not logged; a snapshot re-anchors
    /// durability on the actual state instead. Every other command fails
    /// without touching the engine, so it needs no re-anchor.
    ///
    /// # Errors
    ///
    /// Engine failures (after the re-anchoring snapshot, for a batch),
    /// store failures, or [`Error::Poisoned`].
    pub fn apply(&mut self, command: Command) -> Result<Applied> {
        self.ensure_live()?;
        let is_batch = matches!(command, Command::Batch(_));
        let applied = match self.engine.apply(&command) {
            Ok(applied) => applied,
            Err(e) if is_batch => return Err(self.reanchor("batch", e)),
            Err(e) => return Err(e),
        };
        if applied.changed {
            let record = match command {
                Command::DefineView(def) => {
                    let stored = self
                        .engine
                        .view(&def.name)
                        .expect("a defined view is stored under its name");
                    Command::DefineView(stored.def.clone())
                }
                other => other,
            };
            if let Err(append_err) = self
                .log
                .append_durable(self.engine.mkb().generation(), record)
            {
                return Err(self.reanchor("log append", append_err.into()));
            }
        }
        if is_batch {
            self.batches_since_snapshot += 1;
            if let Some(k) = self.snapshot_every {
                if self.batches_since_snapshot >= k.max(1) {
                    self.checkpoint_delta()?;
                }
            }
        }
        Ok(applied)
    }

    /// [`DurableEngine::apply`] of one [`Command::Batch`] — the log unit of
    /// the evolution stream.
    ///
    /// # Errors
    ///
    /// As for [`DurableEngine::apply`].
    pub fn apply_batch(&mut self, ops: Vec<EvolutionOp>) -> Result<BatchOutcome> {
        Ok(self.apply(Command::Batch(ops))?.outcome)
    }

    /// Durable [`EveEngine::rebalance_views`]: migrations mutate installed
    /// rewritings, so the pass is followed by a checkpoint when anything
    /// moved.
    ///
    /// # Errors
    ///
    /// Engine or store failures, or [`Error::Poisoned`].
    pub fn rebalance_views(&mut self) -> Result<Vec<crate::engine::MigrationReport>> {
        self.ensure_live()?;
        let reports = self.engine.rebalance_views()?;
        if reports.iter().any(|r| r.migrated) {
            self.checkpoint()?;
        }
        Ok(reports)
    }
}

// ---------------------------------------------------------------------
// Engine <-> snapshot conversion
// ---------------------------------------------------------------------

impl EveEngine {
    /// Captures the engine's complete durable state — MKB (with its
    /// generation), per-site extents and accounting, installed rewritings
    /// and configuration — as a canonical [`EngineSnapshot`]. Equal engine
    /// states produce byte-equal [`EngineSnapshot::to_bytes`] encodings,
    /// which is the comparison the crash-recovery test suites run on.
    ///
    /// Ephemeral memoization (rewrite cache, partner closures, index
    /// hit/miss counters) is deliberately excluded: it is reconstructible
    /// and does not affect any observable outcome.
    #[must_use]
    pub fn snapshot_state(&self) -> EngineSnapshot {
        EngineSnapshot {
            mkb: self.mkb.export_state(),
            sites: self
                .sites
                .values()
                .map(|site| SiteSnapshot {
                    id: site.id.0,
                    name: site.name.clone(),
                    relations: site
                        .hosted_with_blocking_factors()
                        .map(|(rel, bfr)| (rel.clone(), bfr))
                        .collect(),
                    io_count: site.io_count(),
                    message_count: site.message_count(),
                })
                .collect(),
            views: self
                .views
                .values()
                .map(|mv| ViewSnapshot {
                    def: mv.def.clone(),
                    extent: mv.extent.clone(),
                })
                .collect(),
            config: EngineConfig {
                sync_options: self.sync_options.clone(),
                qc_params: self.qc_params.clone(),
                workload: self.workload,
                strategy: self.strategy,
                search: self.search,
                index_hints: self.index_hints.clone(),
            },
        }
    }

    /// Rebuilds an engine from a snapshot, re-validating the MKB and site
    /// extents. The restored engine starts with cold caches but identical
    /// durable state (including the MKB generation and site accounting).
    ///
    /// # Errors
    ///
    /// Validation failures on corrupted snapshots.
    pub fn from_snapshot_state(snapshot: &EngineSnapshot) -> Result<EveEngine> {
        let mkb = Mkb::from_state(&snapshot.mkb)?;
        let mut sites = BTreeMap::new();
        for s in &snapshot.sites {
            let site = SimSite::from_parts(
                SiteId(s.id),
                s.name.clone(),
                s.relations.clone(),
                s.io_count,
                s.message_count,
            )?;
            sites.insert(s.id, site);
        }
        let mut views = BTreeMap::new();
        for v in &snapshot.views {
            views.insert(
                v.def.name.clone(),
                MaterializedView {
                    def: v.def.clone(),
                    extent: v.extent.clone(),
                },
            );
        }
        let engine = EveEngine {
            mkb,
            sites,
            views,
            index_hints: snapshot.config.index_hints.clone(),
            rewrite_cache: eve_sync::RewriteCache::new(),
            sync_options: snapshot.config.sync_options.clone(),
            qc_params: snapshot.config.qc_params.clone(),
            workload: snapshot.config.workload,
            strategy: snapshot.config.strategy,
            search: snapshot.config.search,
            // Runtime tuning knob, deliberately not part of snapshots:
            // recovery always starts serial and byte-identical.
            exec_options: eve_relational::ExecOptions::default(),
        };
        // Index contents are reconstructible and deliberately not part of
        // the snapshot; re-warm the declared ones on the restored extents.
        engine.warm_declared_indexes();
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IndexHint;
    use eve_misd::{
        AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange,
    };
    use eve_relational::{tup, DataType, IndexKind, Relation, Schema};
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eve-durable-tests-{}-{}-{name}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn attrs() -> Vec<AttributeInfo> {
        vec![
            AttributeInfo::new("K", DataType::Int),
            AttributeInfo::new("P", DataType::Int),
        ]
    }

    fn schema() -> Schema {
        Schema::of(&[("K", DataType::Int), ("P", DataType::Int)]).unwrap()
    }

    /// Builds a small durable warehouse entirely through logged calls.
    fn build(dir: &Path) -> DurableEngine {
        let mut d = DurableEngine::create(dir).unwrap();
        for (id, name) in [(1, "one"), (2, "two")] {
            d.apply(Command::AddSite {
                id,
                name: name.into(),
            })
            .unwrap();
        }
        for (name, site) in [("Ra", 1u32), ("Rb", 1), ("Rc", 2)] {
            d.apply(Command::RegisterRelation {
                info: RelationInfo::new(name, SiteId(site), attrs(), 10),
                extent: Relation::empty(name, schema()),
            })
            .unwrap();
            d.apply(Command::SeedTuples {
                relation: name.into(),
                tuples: (0..10i64).map(|k| tup![k, k % 3]).collect(),
            })
            .unwrap();
        }
        d.apply(Command::AddPcConstraint(PcConstraint::new(
            PcSide::projection("Rb", &["K", "P"]),
            PcRelationship::Equivalent,
            PcSide::projection("Rc", &["K", "P"]),
        )))
        .unwrap();
        d.apply(Command::SetJoinSelectivity {
            left: "Ra".into(),
            right: "Rb".into(),
            js: 0.01,
        })
        .unwrap();
        d.apply(Command::DefineView(
            eve_esql::parse_view(
                "CREATE VIEW V (VE = '~') AS SELECT A.K, B.P AS BP \
                 FROM Ra A, Rb B (RR = true) WHERE A.K = B.K",
            )
            .unwrap(),
        ))
        .unwrap();
        d
    }

    /// The single-op batch deleting `relation` at its source.
    fn delete_relation(relation: &str) -> Vec<EvolutionOp> {
        vec![EvolutionOp::Capability {
            change: SchemaChange::DeleteRelation {
                relation: relation.into(),
            },
            new_extent: None,
        }]
    }

    fn fingerprint(engine: &EveEngine) -> Vec<u8> {
        engine.snapshot_state().to_bytes()
    }

    #[test]
    fn snapshot_state_roundtrips_byte_identically() {
        let dir = temp_dir("roundtrip");
        let d = build(&dir);
        let snap = d.engine().snapshot_state();
        let rebuilt = EveEngine::from_snapshot_state(&snap).unwrap();
        assert_eq!(fingerprint(&rebuilt), snap.to_bytes());
        // And the rebuilt engine answers queries identically.
        let v1 = d.engine().view("V").unwrap();
        let v2 = rebuilt.view("V").unwrap();
        assert_eq!(v1.extent.tuples(), v2.extent.tuples());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_byte_identical_state() {
        let dir = temp_dir("reopen");
        let mut d = build(&dir);
        d.apply_batch(vec![
            EvolutionOp::insert("Ra", vec![tup![100, 0]]),
            EvolutionOp::insert("Rb", vec![tup![100, 2]]),
        ])
        .unwrap();
        d.apply_batch(delete_relation("Rb")).unwrap();
        let expected = fingerprint(d.engine());
        drop(d); // crash: no shutdown handshake

        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(fingerprint(recovered.engine()), expected);
        assert!(report.replayed_records > 0);
        assert_eq!(report.torn_bytes_truncated, 0);
        assert_eq!(report.generation, recovered.engine().mkb().generation());
        // The view survived the capability change via the Rc mirror and is
        // intact after recovery.
        let v = recovered.engine().view("V").unwrap();
        assert!(v.def.from.iter().any(|f| f.relation == "Rc"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_bounds_replay_and_preserves_state() {
        let dir = temp_dir("checkpoint");
        let mut d = build(&dir);
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![50, 1]])])
            .unwrap();
        d.checkpoint().unwrap();
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![51, 1]])])
            .unwrap();
        let expected = fingerprint(d.engine());
        drop(d);
        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(report.replayed_records, 1, "only the post-snapshot batch");
        assert!(report.snapshot_seq.is_some());
        assert_eq!(fingerprint(recovered.engine()), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn automatic_snapshots_every_k_batches() {
        let dir = temp_dir("auto");
        let mut d = build(&dir);
        d.snapshot_every = Some(2);
        let snaps_before = d.snapshot_index().unwrap().len();
        for k in 0..4 {
            d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![200 + k, 0]])])
                .unwrap();
        }
        let snaps_after = d.snapshot_index().unwrap().len();
        assert_eq!(snaps_after - snaps_before, 2, "4 batches / every 2");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_record_is_dropped_cleanly() {
        let dir = temp_dir("torn");
        let mut d = build(&dir);
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![70, 0]])])
            .unwrap();
        let before_last = fingerprint(d.engine());
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![71, 0]])])
            .unwrap();
        drop(d);

        // Tear the final record mid-frame.
        let mut segs: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "evl"))
            .collect();
        segs.sort();
        let active = segs.last().unwrap();
        let len = std::fs::metadata(active).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(active)
            .unwrap();
        f.set_len(len - 7).unwrap();
        f.sync_all().unwrap();
        drop(f);

        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        assert!(report.torn_bytes_truncated > 0);
        assert_eq!(
            fingerprint(recovered.engine()),
            before_last,
            "state rolls back to the last intact record"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_at_travels_to_past_generations() {
        let dir = temp_dir("travel");
        let mut d = build(&dir);
        let g0 = d.engine().mkb().generation();
        let fp0 = fingerprint(d.engine());
        // A data batch does not move the MKB generation…
        d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![42, 2]])])
            .unwrap();
        assert_eq!(d.engine().mkb().generation(), g0);
        let fp_data = fingerprint(d.engine());
        // …a capability change does.
        d.apply_batch(delete_relation("Rb")).unwrap();
        let g1 = d.engine().mkb().generation();
        let fp1 = fingerprint(d.engine());
        assert!(g1 > g0);
        drop(d);

        // Travelling to g0 includes the data batch (same generation) but
        // not the capability change.
        let at_g0 = DurableEngine::open_at(&dir, g0).unwrap();
        assert_eq!(fingerprint(&at_g0), fp_data);
        assert_ne!(fp0, fp_data, "the data batch changed site extents");
        // The historical engine still answers queries: Rb exists there.
        assert!(at_g0.mkb().has_relation("Rb"));
        assert!(at_g0
            .view("V")
            .unwrap()
            .def
            .from
            .iter()
            .any(|f| f.relation == "Rb"));

        // Travelling to the latest generation reproduces the final state.
        let at_g1 = DurableEngine::open_at(&dir, g1).unwrap();
        assert_eq!(fingerprint(&at_g1), fp1);

        // Travelling to generation 0 lands on the bootstrap snapshot: the
        // empty engine `create` anchored the store with.
        let at_zero = DurableEngine::open_at(&dir, 0).unwrap();
        assert!(!at_zero.mkb().has_relation("Ra"), "pre-registration state");
        assert!(at_zero.view("V").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_trades_travel_horizon_for_space() {
        let dir = temp_dir("compact");
        let mut d = build(&dir);
        let g0 = d.engine().mkb().generation();
        d.apply_batch(delete_relation("Rb")).unwrap();
        d.checkpoint().unwrap();
        let (segs, snaps) = d.compact().unwrap();
        assert!(segs >= 1 && snaps >= 1);
        let latest = fingerprint(d.engine());
        drop(d);
        // Recovery still lands on the exact latest state…
        let (recovered, _) = DurableEngine::open(&dir).unwrap();
        assert_eq!(fingerprint(recovered.engine()), latest);
        drop(recovered);
        // …but travel before the compaction anchor now fails loudly.
        let err = DurableEngine::open_at(&dir, g0).unwrap_err();
        assert!(err.to_string().contains("horizon"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_view_and_selectivities_replay() {
        let dir = temp_dir("dropview");
        let mut d = build(&dir);
        d.apply(Command::SetDefaultJoinSelectivity { js: 0.02 })
            .unwrap();
        d.apply(Command::DropView { name: "V".into() }).unwrap();
        let expected = fingerprint(d.engine());
        drop(d);
        let (recovered, _) = DurableEngine::open(&dir).unwrap();
        assert_eq!(fingerprint(recovered.engine()), expected);
        assert!(recovered.engine().view("V").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn automatic_delta_snapshots_recover_byte_identically() {
        let dir = temp_dir("delta");
        let mut d = build(&dir);
        d.snapshot_every = Some(1); // a delta checkpoint after every batch
        for k in 0..5 {
            d.apply_batch(vec![EvolutionOp::insert("Ra", vec![tup![300 + k, 0]])])
                .unwrap();
        }
        let index = d.snapshot_index().unwrap();
        assert!(
            index
                .iter()
                .any(|m| m.kind == eve_store::SnapshotKind::Delta),
            "automatic checkpoints wrote deltas: {index:?}"
        );
        let expected = fingerprint(d.engine());
        drop(d);
        let (recovered, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(fingerprint(recovered.engine()), expected);
        // Recovery anchored on the newest (delta) snapshot, so the chain
        // resolution — not tail replay — reproduced the state.
        assert_eq!(report.replayed_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_at_works_while_a_live_handle_holds_the_lock() {
        let dir = temp_dir("live-travel");
        let mut d = build(&dir);
        let g0 = d.engine().mkb().generation();
        d.apply_batch(delete_relation("Rb")).unwrap();
        // Historical reads go through the read-only travel planner and
        // succeed while the live handle holds the single-opener lock…
        let past = DurableEngine::open_at(&dir, g0).unwrap();
        assert!(past.mkb().has_relation("Rb"));
        // …whereas a second full open is refused outright.
        let err = DurableEngine::open(&dir).unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");
        drop(d);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_batch_reanchors_with_a_snapshot() {
        let dir = temp_dir("failbatch");
        let mut d = build(&dir);
        let snaps_before = d.snapshot_index().unwrap().len();
        let err = d.apply_batch(vec![
            EvolutionOp::insert("Ra", vec![tup![1, 1]]),
            EvolutionOp::insert("Ghost", vec![tup![2, 2]]),
        ]);
        assert!(err.is_err());
        assert_eq!(
            d.snapshot_index().unwrap().len(),
            snaps_before + 1,
            "failure re-anchors durability on the actual state"
        );
        let expected = fingerprint(d.engine());
        drop(d);
        let (recovered, _) = DurableEngine::open(&dir).unwrap();
        assert_eq!(fingerprint(recovered.engine()), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn declared_indexes_survive_log_replay_and_snapshots() {
        let dir = temp_dir("index-hints");
        let mut d = build(&dir);
        let declare = |relation: &str, column: &str, kind| {
            Command::DeclareIndex(IndexHint {
                relation: relation.into(),
                column: column.into(),
                kind,
            })
        };
        assert!(
            d.apply(declare("Ra", "K", IndexKind::Hash))
                .unwrap()
                .changed
        );
        let seq = d.next_seq();
        assert!(
            !d.apply(declare("Ra", "K", IndexKind::Hash))
                .unwrap()
                .changed,
            "duplicate declaration is not re-logged"
        );
        assert_eq!(d.next_seq(), seq, "nothing was appended");
        d.apply(declare("Rb", "P", IndexKind::Sorted)).unwrap();
        let expected = fingerprint(d.engine());
        drop(d);

        // Log replay restores the hints and re-warms the indexes.
        let (recovered, _) = DurableEngine::open(&dir).unwrap();
        assert_eq!(fingerprint(recovered.engine()), expected);
        assert_eq!(recovered.engine().index_hints().len(), 2);
        let ra = recovered.engine().sites[&1].relation("Ra").unwrap();
        assert!(ra.has_index(0, IndexKind::Hash), "replay re-warmed Ra.K");

        // A snapshot carries the hints without the log.
        let mut recovered = recovered;
        recovered.checkpoint().unwrap();
        drop(recovered);
        let (from_snap, report) = DurableEngine::open(&dir).unwrap();
        assert_eq!(report.replayed_records, 0, "state came from the snapshot");
        assert_eq!(fingerprint(from_snap.engine()), expected);
        assert_eq!(from_snap.engine().index_hints().len(), 2);
        let rb = from_snap.engine().sites[&1].relation("Rb").unwrap();
        assert!(rb.has_index(1, IndexKind::Sorted), "restore re-warmed Rb.P");
        std::fs::remove_dir_all(&dir).ok();
    }
}
