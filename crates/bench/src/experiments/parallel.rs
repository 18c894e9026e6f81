//! Morsel-driven parallel columnar execution vs the serial columnar
//! baseline.
//!
//! Executes the *same* compiled plan through [`execute`] — once
//! serially, then with the morsel pool at 1, 2, 4 and 8 workers — and
//! reports, per workload × thread count:
//!
//! * wall-clock of both arms and the speedup over serial,
//! * morsel/steal/partition counters from [`ExecStats`],
//! * the modeled cost ratio `total / parallel_total(8)` — the
//!   machine-independent speedup the planner's cost model predicts.
//!
//! Every parallel arm is asserted **byte-identical, order included** to
//! the serial columnar output — the deterministic-merge contract — so a
//! reported speedup is never bought with a reordered (or wrong) answer.
//! Wall-clock speedup is meaningful only on multi-core machines; the
//! modeled ratio (and the byte-identity assertion) is deterministic
//! everywhere, which is what the tier-1 gate below checks.
//!
//! [`ExecStats`]: eve_relational::ExecStats

use std::time::Instant;

use eve_relational::exec::execute;
use eve_relational::{morsel, ExecOptions};
use eve_system::query::plan_view;

use super::columns;
use super::view_exec::Workload;

/// Thread counts every workload is swept over.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Morsel size used by the sweep: small enough that even the mid-size
/// repro workloads split into well over 8 morsels, so every worker of
/// the widest arm has work to steal.
pub const MORSEL_ROWS: usize = 1024;

/// One (workload × thread-count) measurement.
#[derive(Debug, Clone)]
pub struct ParallelArm {
    /// Worker threads requested.
    pub threads: usize,
    /// Parallel arm wall-clock, milliseconds (best of the reps).
    pub ms: f64,
    /// `serial_ms / ms`.
    pub speedup: f64,
    /// Morsels dispatched by this arm's reps.
    pub morsels: u64,
    /// Work-stealing events in this arm's reps.
    pub steals: u64,
    /// Hash-join partition tasks built by this arm's reps.
    pub partitions: u64,
}

/// The sweep of one workload.
#[derive(Debug, Clone)]
pub struct ParallelRow {
    /// Workload name.
    pub workload: String,
    /// Serial columnar baseline wall-clock, milliseconds (best of reps).
    pub serial_ms: f64,
    /// Executed result cardinality (identical in every arm).
    pub rows_out: usize,
    /// Modeled cost ratio `estimate.total / estimate.parallel_total(8)`:
    /// the machine-independent speedup the cost model predicts for 8
    /// workers.
    pub modeled_ratio_8: f64,
    /// One measurement per entry of [`THREADS`].
    pub arms: Vec<ParallelArm>,
}

/// The canonical workload set `repro parallel`, the criterion-shim bench
/// and the soak smoke all run: the wide text-key join and the star shape
/// from the columnar comparison, at the same scales.
///
/// # Errors
///
/// Construction failures.
pub fn workloads() -> eve_system::Result<Vec<Workload>> {
    Ok(vec![
        columns::wide_text_join(1500)?,
        columns::star_text(4000)?,
    ])
}

/// Plans the workload once, executes the serial columnar baseline and
/// every thread count of [`THREADS`] `reps` times each (best-of timing),
/// asserting every parallel output byte-identical — order included — to
/// the serial one.
///
/// # Errors
///
/// Planning/execution failures, or a serial/parallel divergence.
#[allow(clippy::missing_panics_doc)]
pub fn run(workload: &Workload, reps: usize) -> eve_system::Result<ParallelRow> {
    let reps = reps.max(1);
    let plan = plan_view(&workload.view, &workload.extents, &workload.stats)?;
    let estimate = plan.estimate();
    let modeled_ratio_8 = estimate.total / estimate.parallel_total(8).max(1e-9);

    let mut serial_ms = f64::INFINITY;
    let mut serial_out = None;
    for _ in 0..reps {
        let started = Instant::now();
        let out = execute(&plan, &ExecOptions::serial())?;
        serial_ms = serial_ms.min(started.elapsed().as_secs_f64() * 1e3);
        serial_out = Some(out);
    }
    let serial_out = serial_out.expect("reps >= 1");

    let mut arms = Vec::with_capacity(THREADS.len());
    for &threads in &THREADS {
        let opts = ExecOptions {
            parallelism: threads,
            morsel_rows: MORSEL_ROWS,
            force_parallel: false,
        };
        morsel::reset_stats();
        let mut ms = f64::INFINITY;
        let mut out = None;
        for _ in 0..reps {
            let started = Instant::now();
            let o = execute(&plan, &opts)?;
            ms = ms.min(started.elapsed().as_secs_f64() * 1e3);
            out = Some(o);
        }
        let out = out.expect("reps >= 1");
        // Deterministic-merge contract: byte-identical, order included.
        if serial_out.tuples() != out.tuples() {
            return Err(eve_system::Error::State {
                detail: format!(
                    "serial and {threads}-thread execution diverged on {}: {} vs {} tuples",
                    workload.name,
                    serial_out.cardinality(),
                    out.cardinality()
                ),
            });
        }
        let stats = morsel::stats();
        arms.push(ParallelArm {
            threads,
            ms,
            speedup: serial_ms / ms.max(1e-9),
            morsels: stats.morsels,
            steals: stats.steals,
            partitions: stats.partitions,
        });
    }

    Ok(ParallelRow {
        workload: workload.name.clone(),
        serial_ms,
        rows_out: serial_out.cardinality(),
        modeled_ratio_8,
        arms,
    })
}

/// Runs the full workload set.
///
/// # Errors
///
/// As [`run`].
pub fn compare(reps: usize) -> eve_system::Result<Vec<ParallelRow>> {
    workloads()?.iter().map(|w| run(w, reps)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_parallel_arm_is_byte_identical_to_serial() {
        // run() hard-errors on any divergence, so a clean pass over the
        // sweep *is* the assertion; spot-check the reported shape too.
        let w = columns::wide_text_join(200).unwrap();
        let row = run(&w, 1).unwrap();
        assert_eq!(row.arms.len(), THREADS.len());
        assert!(row.rows_out > 0);
        let wide = row.arms.iter().find(|a| a.threads == 8).unwrap();
        assert!(
            wide.morsels > 8,
            "8-worker arm must split into many morsels: {wide:?}"
        );
    }

    #[test]
    fn star_shape_partitions_its_hash_join_under_parallelism() {
        let w = columns::star_text(2000).unwrap();
        let row = run(&w, 1).unwrap();
        let wide = row.arms.iter().find(|a| a.threads == 8).unwrap();
        assert!(
            wide.partitions > 0,
            "parallel hash join must build partitioned tables: {wide:?}"
        );
    }

    /// Tier-1 gate (debug build, `cargo test -q`): the cost model must
    /// predict at least 1.5× for 8 workers on the wide text join. The
    /// ratio is pure arithmetic over the plan estimate — deterministic
    /// on any machine, single-core CI included; `repro parallel` adds
    /// the wall-clock ≥3× gate on machines with ≥8 cores.
    #[test]
    fn parallel_modeled_speedup_at_8_workers_at_least_1p5x() {
        let w = columns::wide_text_join(1200).unwrap();
        let row = run(&w, 1).unwrap();
        assert!(
            row.modeled_ratio_8 >= 1.5,
            "cost model must predict >= 1.5x at 8 workers on the wide \
             text join (got {:.2}x)",
            row.modeled_ratio_8
        );
    }
}
