//! The tenant registry: many independent warehouses behind one server.
//!
//! Each tenant owns a directory under the warehouse root holding its
//! durable evolution store, wrapped in an [`eve_system::Shell`] so the
//! wire protocol's statements execute exactly like interactive shell
//! lines. Admission control sits in front of every mutation: a tenant
//! has a QC budget — rewrite-search candidates and I/O blocks — and once
//! the budget is spent its policy decides whether further mutations are
//! rejected outright or parked in a bounded deferred queue that drains
//! (in arrival order) on the next budget reset. Reads are never gated:
//! budget exhaustion degrades a tenant to read-only, it does not black-
//! hole it.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use eve_relational::ExecOptions;
use eve_sync::EvolutionOp;
use eve_system::{Command, DurableEngine, Shell};

use crate::{Error, Result};

/// A tenant's admission budget. Defaults are effectively unlimited —
/// budgets are opt-in per tenant.
#[derive(Debug, Clone, Copy)]
pub struct TenantBudget {
    /// QC rewrite-search candidates the tenant may spend between resets.
    pub candidates: u64,
    /// I/O blocks the tenant may spend between resets.
    pub io: u64,
    /// Capacity of the deferred-mutation queue under
    /// [`AdmissionPolicy::Queue`].
    pub max_queue: usize,
}

impl Default for TenantBudget {
    fn default() -> TenantBudget {
        TenantBudget {
            candidates: u64::MAX,
            io: u64::MAX,
            max_queue: 64,
        }
    }
}

/// What happens to a mutation that arrives after the budget is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse with [`Error::BudgetExceeded`].
    Reject,
    /// Park it in the deferred queue (up to `max_queue`), to be applied
    /// by the next [`Tenant::reset_budget`].
    Queue,
}

/// A tenant's admission counters, as reported over the wire, plus the
/// columnar-layer counters of its engine (aggregated under the same read
/// lock the reader pool queries through).
#[derive(Debug, Clone, Copy)]
pub struct TenantStats {
    /// Candidates spent since the last reset.
    pub candidates_used: u64,
    /// I/O blocks spent since the last reset.
    pub io_used: u64,
    /// Configured candidate budget.
    pub candidate_budget: u64,
    /// Configured I/O budget.
    pub io_budget: u64,
    /// Mutations waiting in the deferred queue.
    pub queued: u64,
    /// Relation extents with a materialized columnar image.
    pub columnar_extents: u64,
    /// Secondary-index lookups answered from an index.
    pub index_hits: u64,
    /// Distinct strings in the global interning pool.
    pub interned_symbols: u64,
    /// Intra-query worker threads this tenant's reader pool may use.
    pub exec_parallelism: u64,
    /// Morsels dispatched by the parallel executor (process-wide).
    pub exec_morsels: u64,
}

/// A mutation as admission control sees it.
#[derive(Debug)]
pub enum Mutation {
    /// One shell statement line.
    Statement(String),
    /// A batch of evolution ops.
    Apply(Vec<EvolutionOp>),
}

/// The outcome of an admitted mutation.
#[derive(Debug)]
pub enum Admitted {
    /// Executed now; the display output.
    Executed(String),
    /// Parked in the deferred queue at this position.
    Queued(usize),
}

#[derive(Debug, Default)]
struct AdmissionState {
    candidates_used: u64,
    io_used: u64,
    deferred: VecDeque<Mutation>,
}

/// One tenant: a shell over a durable engine, plus admission state.
///
/// The shell lives under an `RwLock` — mutations take the write lock (and
/// are additionally serialized by the server's shard routing), queries
/// take read locks and run concurrently.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    shell: RwLock<Shell>,
    budget: TenantBudget,
    policy: AdmissionPolicy,
    state: Mutex<AdmissionState>,
}

impl Tenant {
    /// The tenant's name (its directory under the warehouse root).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Read access to the tenant's shell (concurrent with other readers).
    ///
    /// # Panics
    ///
    /// When a writer panicked while holding the lock.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, Shell> {
        self.shell.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The canonical byte fingerprint of the tenant's engine state —
    /// what "byte-identical to a serial application" is checked against.
    #[must_use]
    pub fn fingerprint(&self) -> Vec<u8> {
        self.read().engine().snapshot_state().to_bytes()
    }

    /// Current admission counters.
    #[must_use]
    pub fn stats(&self) -> TenantStats {
        let shell = self.read();
        let cl = shell.engine().column_layer_stats();
        let parallelism = shell.engine().exec_options.parallelism;
        drop(shell);
        let st = lock(&self.state);
        TenantStats {
            candidates_used: st.candidates_used,
            io_used: st.io_used,
            candidate_budget: self.budget.candidates,
            io_budget: self.budget.io,
            queued: st.deferred.len() as u64,
            columnar_extents: cl.columnar_built as u64,
            index_hits: cl.index.hits,
            interned_symbols: cl.intern.symbols,
            exec_parallelism: parallelism as u64,
            exec_morsels: cl.exec.morsels,
        }
    }

    /// Evaluates a view under a read lock.
    ///
    /// # Errors
    ///
    /// Unknown view.
    pub fn query(&self, view: &str) -> Result<String> {
        let shell = self.read();
        let mv = shell.engine().view(view)?;
        Ok(mv.extent.distinct().to_string())
    }

    fn over_budget(&self, st: &AdmissionState) -> Option<String> {
        if st.candidates_used >= self.budget.candidates {
            return Some(format!(
                "{} of {} QC candidates spent",
                st.candidates_used, self.budget.candidates
            ));
        }
        if st.io_used >= self.budget.io {
            return Some(format!(
                "{} of {} I/O blocks spent",
                st.io_used, self.budget.io
            ));
        }
        None
    }

    /// Runs one mutation through admission control: execute it when the
    /// budget allows, otherwise reject or queue per the tenant's policy.
    ///
    /// # Errors
    ///
    /// [`Error::BudgetExceeded`] / [`Error::QueueFull`] from admission,
    /// or any engine/store failure from execution.
    pub fn execute_mutation(&self, mutation: Mutation) -> Result<Admitted> {
        {
            let mut st = lock(&self.state);
            if let Some(detail) = self.over_budget(&st) {
                match self.policy {
                    AdmissionPolicy::Reject => {
                        return Err(Error::BudgetExceeded {
                            tenant: self.name.clone(),
                            detail,
                        })
                    }
                    AdmissionPolicy::Queue => {
                        if st.deferred.len() >= self.budget.max_queue {
                            return Err(Error::QueueFull {
                                tenant: self.name.clone(),
                                capacity: self.budget.max_queue,
                            });
                        }
                        let position = st.deferred.len();
                        st.deferred.push_back(mutation);
                        return Ok(Admitted::Queued(position));
                    }
                }
            }
        }
        let output = self.run_now(mutation)?;
        Ok(Admitted::Executed(output))
    }

    /// Executes a mutation immediately (admission already decided),
    /// charging its candidate and I/O cost to the budget. Both kinds are
    /// billed by the same measurement around execution, so a `change`
    /// statement spends candidates exactly like an `Apply` batch.
    fn run_now(&self, mutation: Mutation) -> Result<String> {
        let mut shell = self.shell.write().unwrap_or_else(|e| e.into_inner());
        let io_before = shell.engine().total_io();
        let candidates_before = shell.candidates_searched();
        let output = match mutation {
            Mutation::Statement(line) => shell.execute(&line)?,
            Mutation::Apply(ops) => {
                let outcome = shell.apply(Command::Batch(ops))?.outcome;
                format!(
                    "applied batch: {} traces, {} reports, {} candidates",
                    outcome.traces.len(),
                    outcome.reports.len(),
                    shell.candidates_searched() - candidates_before
                )
            }
        };
        let candidates = shell.candidates_searched() - candidates_before;
        let io_after = shell.engine().total_io();
        drop(shell);
        let mut st = lock(&self.state);
        st.candidates_used = st.candidates_used.saturating_add(candidates);
        // Every executed mutation costs at least one I/O unit — its log
        // append — on top of the engine's measured block I/O, so a stream
        // of tiny mutations cannot run forever on a finite budget.
        st.io_used = st
            .io_used
            .saturating_add(io_after.saturating_sub(io_before).max(1));
        Ok(output)
    }

    /// Zeroes the budget counters and drains the deferred queue, applying
    /// each parked mutation in arrival order (their cost accrues against
    /// the fresh budget). Returns how many were drained.
    ///
    /// # Errors
    ///
    /// The first engine/store failure while draining (the failing
    /// mutation and everything behind it stay queued).
    pub fn reset_budget(&self) -> Result<usize> {
        let pending = {
            let mut st = lock(&self.state);
            st.candidates_used = 0;
            st.io_used = 0;
            std::mem::take(&mut st.deferred)
        };
        let total = pending.len();
        let mut drained = 0usize;
        let mut pending = pending;
        while let Some(mutation) = pending.pop_front() {
            match self.run_now(mutation) {
                Ok(_) => drained += 1,
                Err(e) => {
                    // Put the unprocessed tail back (the failed mutation
                    // is consumed — retrying it would fail identically).
                    let mut st = lock(&self.state);
                    while let Some(m) = pending.pop_back() {
                        st.deferred.push_front(m);
                    }
                    drop(st);
                    debug_assert!(drained <= total);
                    return Err(e);
                }
            }
        }
        Ok(drained)
    }
}

fn lock(state: &Mutex<AdmissionState>) -> std::sync::MutexGuard<'_, AdmissionState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// The registry: tenants by name, each backed by `root/<name>`.
#[derive(Debug)]
pub struct Warehouse {
    root: PathBuf,
    default_budget: TenantBudget,
    default_policy: AdmissionPolicy,
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
}

impl Warehouse {
    /// Opens (creating if needed) a warehouse root directory. Tenants are
    /// attached lazily on first use.
    ///
    /// # Errors
    ///
    /// I/O failures creating the root.
    pub fn open(root: impl Into<PathBuf>) -> Result<Warehouse> {
        Warehouse::with_defaults(root, TenantBudget::default(), AdmissionPolicy::Reject)
    }

    /// Like [`Warehouse::open`] with explicit defaults for tenants
    /// created afterwards.
    ///
    /// # Errors
    ///
    /// I/O failures creating the root.
    pub fn with_defaults(
        root: impl Into<PathBuf>,
        budget: TenantBudget,
        policy: AdmissionPolicy,
    ) -> Result<Warehouse> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| Error::Engine {
            detail: format!("cannot create warehouse root {}: {e}", root.display()),
        })?;
        Ok(Warehouse {
            root,
            default_budget: budget,
            default_policy: policy,
            tenants: RwLock::new(BTreeMap::new()),
        })
    }

    /// The warehouse root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn tenants_read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<Tenant>>> {
        self.tenants.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Names of every attached tenant.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants_read().keys().cloned().collect()
    }

    /// An already-attached tenant.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`] when `name` was never attached.
    pub fn existing(&self, name: &str) -> Result<Arc<Tenant>> {
        self.tenants_read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownTenant {
                tenant: name.to_owned(),
            })
    }

    /// Gets or creates the tenant `name` with the warehouse defaults:
    /// recovers `root/<name>` when a store exists there, bootstraps a
    /// fresh one otherwise.
    ///
    /// # Errors
    ///
    /// Invalid names (anything that is not `[A-Za-z0-9_-]+` — tenant
    /// names are directory names, so separators are refused), store
    /// lock contention ([`Error::Busy`]) and I/O failures.
    pub fn tenant(&self, name: &str) -> Result<Arc<Tenant>> {
        self.tenant_with(name, self.default_budget, self.default_policy)
    }

    /// Gets or creates the tenant `name` with an explicit budget and
    /// policy (existing tenants keep their configuration).
    ///
    /// # Errors
    ///
    /// As for [`Warehouse::tenant`].
    pub fn tenant_with(
        &self,
        name: &str,
        budget: TenantBudget,
        policy: AdmissionPolicy,
    ) -> Result<Arc<Tenant>> {
        self.tenant_with_exec(name, budget, policy, ExecOptions::default())
    }

    /// Gets or creates the tenant `name` with an explicit budget, policy
    /// and intra-query execution options (existing tenants keep their
    /// configuration). Parallelism is a reader-pool tuning knob only:
    /// admission control still charges the same QC candidates and I/O
    /// blocks whether a query runs serial or morsel-parallel, and the
    /// engine fingerprint is byte-identical either way.
    ///
    /// # Errors
    ///
    /// As for [`Warehouse::tenant`].
    pub fn tenant_with_exec(
        &self,
        name: &str,
        budget: TenantBudget,
        policy: AdmissionPolicy,
        exec: ExecOptions,
    ) -> Result<Arc<Tenant>> {
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(Error::protocol(format!(
                "invalid tenant name `{name}`: tenant names are directory names \
                 ([A-Za-z0-9_-]+)"
            )));
        }
        if let Some(t) = self.tenants_read().get(name) {
            return Ok(Arc::clone(t));
        }
        let mut tenants = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = tenants.get(name) {
            return Ok(Arc::clone(t));
        }
        let dir = self.root.join(name);
        let durable = if eve_store::EvolutionStore::exists(&dir)? {
            DurableEngine::open(&dir)?.0
        } else {
            DurableEngine::create(&dir)?
        };
        let mut shell = Shell::with_durable(durable);
        shell.engine_mut().exec_options = exec;
        let tenant = Arc::new(Tenant {
            name: name.to_owned(),
            shell: RwLock::new(shell),
            budget,
            policy,
            state: Mutex::new(AdmissionState::default()),
        });
        tenants.insert(name.to_owned(), Arc::clone(&tenant));
        Ok(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "eve-warehouse-tests-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn tenants_are_isolated_directories() {
        let root = scratch("isolated");
        let wh = Warehouse::open(&root).unwrap();
        let a = wh.tenant("alpha").unwrap();
        let b = wh.tenant("beta").unwrap();
        a.execute_mutation(Mutation::Statement("site 1 s1".into()))
            .unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(root.join("alpha").join("store.lock").exists());
        assert!(root.join("beta").is_dir());
        assert_eq!(wh.tenant_names(), vec!["alpha", "beta"]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn parallelism_leaves_io_accounting_and_fingerprint_unchanged() {
        let root = scratch("parallel");
        let wh = Warehouse::open(&root).unwrap();
        let run = |name: &str, exec: ExecOptions| {
            let t = wh
                .tenant_with_exec(name, TenantBudget::default(), AdmissionPolicy::Reject, exec)
                .unwrap();
            for line in [
                "site 1 s1",
                "relation R @1 (K:int, V:text)",
                "insert R (1, 'a')",
                "insert R (2, 'b')",
                "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)",
                "update R insert (3, 'c')",
            ] {
                t.execute_mutation(Mutation::Statement(line.into()))
                    .unwrap();
            }
            (t.stats(), t.query("V").unwrap(), t.fingerprint())
        };
        let (serial, serial_out, serial_fp) = run("serial", ExecOptions::serial());
        let (par, par_out, par_fp) = run("parallel", ExecOptions::with_parallelism(4));
        // Parallelism is a reader-pool knob: admission charges the same
        // I/O and candidates, and the engine state is byte-identical.
        assert_eq!(serial.io_used, par.io_used);
        assert_eq!(serial.candidates_used, par.candidates_used);
        assert_eq!(serial_out, par_out);
        assert_eq!(serial_fp, par_fp);
        assert_eq!(serial.exec_parallelism, 1);
        assert_eq!(par.exec_parallelism, 4);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn invalid_tenant_names_are_refused() {
        let root = scratch("names");
        let wh = Warehouse::open(&root).unwrap();
        for bad in ["", "../escape", "a/b", "a b", "dot.dot"] {
            let err = wh.tenant(bad).unwrap_err();
            assert!(matches!(err, Error::Protocol { .. }), "{bad}: {err:?}");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reject_policy_refuses_mutations_once_budget_is_spent() {
        let root = scratch("reject");
        let wh = Warehouse::open(&root).unwrap();
        // Five statements of setup spend the whole budget (each executed
        // mutation charges at least one I/O unit).
        let budget = TenantBudget {
            io: 5,
            ..TenantBudget::default()
        };
        let t = wh
            .tenant_with("miser", budget, AdmissionPolicy::Reject)
            .unwrap();
        // Burn the I/O budget with real work.
        for line in [
            "site 1 s1",
            "relation R @1 (K:int, V:text)",
            "insert R (1, 'a')",
            "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)",
            "update R insert (2, 'b')",
        ] {
            t.execute_mutation(Mutation::Statement(line.into()))
                .unwrap();
        }
        assert!(t.stats().io_used >= 5);
        let err = t
            .execute_mutation(Mutation::Statement("update R insert (3, 'c')".into()))
            .unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }), "{err:?}");
        // Reads keep working while the tenant is over budget.
        assert!(t.query("V").unwrap().contains('1'));
        // Reset restores write admission.
        assert_eq!(t.reset_budget().unwrap(), 0);
        t.execute_mutation(Mutation::Statement("update R insert (3, 'c')".into()))
            .unwrap();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn change_statements_spend_the_candidate_budget() {
        let root = scratch("candidates");
        let wh = Warehouse::open(&root).unwrap();
        let budget = TenantBudget {
            candidates: 1,
            ..TenantBudget::default()
        };
        let t = wh
            .tenant_with("searcher", budget, AdmissionPolicy::Reject)
            .unwrap();
        for line in [
            "site 1 s1",
            "site 2 s2",
            "relation R @1 (K:int)",
            "relation S @2 (K:int)",
            "insert R (1)",
            "insert S (1)",
            "pc R (K) = S (K)",
            "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)",
        ] {
            t.execute_mutation(Mutation::Statement(line.into()))
                .unwrap();
        }
        assert_eq!(t.stats().candidates_used, 0, "setup searches nothing");
        // Deleting V's host searches the rewriting over S.
        t.execute_mutation(Mutation::Statement("change delete-relation R".into()))
            .unwrap();
        assert!(t.stats().candidates_used >= 1, "{:?}", t.stats());
        let err = t
            .execute_mutation(Mutation::Statement("site 3 s3".into()))
            .unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }), "{err:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn queue_policy_defers_until_reset_and_bounds_the_queue() {
        let root = scratch("queue");
        let wh = Warehouse::open(&root).unwrap();
        let budget = TenantBudget {
            io: 5,
            max_queue: 2,
            ..TenantBudget::default()
        };
        let t = wh
            .tenant_with("patient", budget, AdmissionPolicy::Queue)
            .unwrap();
        for line in [
            "site 1 s1",
            "relation R @1 (K:int)",
            "insert R (1)",
            "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)",
            "update R insert (2)",
        ] {
            t.execute_mutation(Mutation::Statement(line.into()))
                .unwrap();
        }
        assert!(t.stats().io_used >= 5, "budget spent: {:?}", t.stats());
        // Over budget: mutations queue in order, up to max_queue.
        let a = t
            .execute_mutation(Mutation::Statement("update R insert (3)".into()))
            .unwrap();
        assert!(matches!(a, Admitted::Queued(0)), "{a:?}");
        let b = t
            .execute_mutation(Mutation::Statement("update R insert (4)".into()))
            .unwrap();
        assert!(matches!(b, Admitted::Queued(1)), "{b:?}");
        let err = t
            .execute_mutation(Mutation::Statement("update R insert (5)".into()))
            .unwrap_err();
        assert!(
            matches!(err, Error::QueueFull { capacity: 2, .. }),
            "{err:?}"
        );
        assert_eq!(t.stats().queued, 2);
        // The queued mutations did NOT touch the engine yet.
        assert!(!t.query("V").unwrap().contains('3'));
        // Reset drains the queue in arrival order.
        assert_eq!(t.reset_budget().unwrap(), 2);
        assert_eq!(t.stats().queued, 0);
        let v = t.query("V").unwrap();
        assert!(v.contains('3') && v.contains('4'), "{v}");
        assert!(!v.contains('5'), "rejected mutation must not re-appear");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reopening_a_warehouse_recovers_tenant_state() {
        let root = scratch("recover");
        let fp = {
            let wh = Warehouse::open(&root).unwrap();
            let t = wh.tenant("durable").unwrap();
            for line in ["site 1 s1", "relation R @1 (K:int)", "insert R (7)"] {
                t.execute_mutation(Mutation::Statement(line.into()))
                    .unwrap();
            }
            t.fingerprint()
        };
        let wh = Warehouse::open(&root).unwrap();
        let t = wh.tenant("durable").unwrap();
        assert_eq!(t.fingerprint(), fp, "recovered tenant is byte-identical");
        std::fs::remove_dir_all(&root).ok();
    }
}
