//! Columnar execution vs the row-at-a-time naive evaluator.
//!
//! Evaluates each workload's view two ways: through the naive reference
//! evaluator [`evaluate_view_naive`] (FROM relations folded in declaration
//! order, each join a projected-`Tuple` hash join, every filter evaluated
//! row at a time) and through the compiled plan on [`execute`] (interned
//! scalar join keys, vectorized filters and lazily built secondary
//! indexes). It reports, per workload:
//!
//! * wall-clock of both arms and the speedup,
//! * the executed cardinality,
//! * how many leaves the planner routed through a secondary index
//!   ([`PlanEstimate::index_scans`]) and the extents' [`IndexStats`]
//!   after the run (builds, hits, shapes).
//!
//! Both arms are asserted to produce the **same bag** (join reordering may
//! permute row order), so a reported speedup is never bought with a wrong
//! answer.
//!
//! [`PlanEstimate::index_scans`]: eve_relational::PlanEstimate
//! [`IndexStats`]: eve_relational::IndexStats

use std::collections::BTreeMap;
use std::time::Instant;

use eve_relational::exec::execute;
use eve_relational::{
    tup, DataType, ExecOptions, IndexStats, Relation, RelationStats, Schema, Tuple,
};
use eve_system::query::{evaluate_view_naive, plan_view};

use super::view_exec::Workload;

/// One naive-vs-columnar comparison row.
#[derive(Debug, Clone)]
pub struct ColumnsRow {
    /// Workload name.
    pub workload: String,
    /// Naive (row-at-a-time) arm wall-clock, milliseconds (best of the
    /// reps).
    pub naive_ms: f64,
    /// Columnar arm wall-clock, milliseconds (best of the reps).
    pub columnar_ms: f64,
    /// `naive_ms / columnar_ms`.
    pub speedup: f64,
    /// Executed result cardinality (identical in both arms).
    pub rows_out: usize,
    /// Leaves the planner routed through a secondary index.
    pub index_scans: u32,
    /// Merged index counters over the workload's extents after the run.
    pub index: IndexStats,
}

fn stats_of(extents: &BTreeMap<String, Relation>) -> BTreeMap<String, RelationStats> {
    extents
        .iter()
        .map(|(name, rel)| (name.clone(), RelationStats::from_relation(rel)))
        .collect()
}

/// A deterministic long text key — realistic warehouse dimension keys are
/// not 4-byte ints, and the naive arm pays for hashing every byte of them
/// on every probe while the columnar arm hashes one interned `u64`.
fn tag(k: i64) -> String {
    format!(
        "icde99-warehouse-evolution-dimension-key-{k:012}-padded-to-the-width-of-a-realistic-composite-business-key-0123456789abcdef"
    )
}

/// The wide text-join workload the ≥5× repro gate (and the ≥2× tier-1
/// gate) runs on: a wide fact extent probing a dimension on a *long text
/// key*, with a 1% hit rate. The naive arm re-hashes (and re-allocates a
/// projected key tuple for) every string on every execution; the columnar
/// arm reads interned `u64` symbols straight out of the cached batch.
///
/// # Errors
///
/// Relational construction failures.
pub fn wide_text_join(scale: i64) -> eve_system::Result<Workload> {
    let dim_schema = Schema::of(&[("Tag", DataType::Text), ("P", DataType::Int)])?;
    let fact_schema = Schema::of(&[("Tag", DataType::Text), ("M", DataType::Int)])?;
    // Dimension keys are every 100th tag: 1-in-100 fact probes hit, so the
    // (arm-independent) output materialization stays tiny while the
    // per-probe key work — where the two arms differ — dominates.
    let dim = Relation::with_tuples(
        "Dim",
        dim_schema,
        (0..scale)
            .map(|k| tup![tag(100 * k), k])
            .collect::<Vec<Tuple>>(),
    )?;
    let fact = Relation::with_tuples(
        "Fact",
        fact_schema,
        (0..16 * scale)
            .map(|j| tup![tag(j), j])
            .collect::<Vec<Tuple>>(),
    )?;
    let mut extents = BTreeMap::new();
    extents.insert("Dim".to_owned(), dim);
    extents.insert("Fact".to_owned(), fact);
    let stats = stats_of(&extents);
    let view = eve_esql::parse_view(
        "CREATE VIEW WideCols AS SELECT F.M, D.P FROM Fact F, Dim D WHERE F.Tag = D.Tag",
    )?;
    Ok(Workload {
        name: format!("wide_text_join/{scale}"),
        view,
        extents,
        stats,
    })
}

/// A star shape with a *selective text filter* on the larger dimension.
/// The declared σ = 0.02 makes the cost model route that leaf through a
/// hash [`IndexScan`](eve_relational::plan::PlanNode::IndexScan): the
/// columnar arm probes the lazily built index (a build on the first rep,
/// hits afterwards), the naive arm evaluates the predicate over every
/// dimension tuple.
///
/// # Errors
///
/// Relational construction failures.
#[allow(clippy::missing_panics_doc)]
pub fn star_text(scale: i64) -> eve_system::Result<Workload> {
    let fact_schema = Schema::of(&[("D1", DataType::Int), ("D2", DataType::Int)])?;
    let dim_schema = Schema::of(&[("Id", DataType::Int), ("Tag", DataType::Text)])?;
    let d1 = (scale / 8).max(1);
    let d2 = (scale / 4).max(1);
    let mut extents = BTreeMap::new();
    extents.insert(
        "Fact".to_owned(),
        Relation::with_tuples(
            "Fact",
            fact_schema,
            (0..scale)
                .map(|k| tup![k % d1, k % d2])
                .collect::<Vec<Tuple>>(),
        )?,
    );
    extents.insert(
        "Dim1".to_owned(),
        Relation::with_tuples(
            "Dim1",
            dim_schema.clone(),
            (0..d1).map(|k| tup![k, tag(k)]).collect::<Vec<Tuple>>(),
        )?,
    );
    // 1 in 50 dimension rows carries the hot tag the view selects.
    extents.insert(
        "Dim2".to_owned(),
        Relation::with_tuples(
            "Dim2",
            dim_schema,
            (0..d2)
                .map(|k| {
                    let t = if k % 50 == 0 {
                        "hot".to_owned()
                    } else {
                        tag(k)
                    };
                    tup![k, t]
                })
                .collect::<Vec<Tuple>>(),
        )?,
    );
    let mut stats = stats_of(&extents);
    stats.get_mut("Dim2").expect("registered").selectivity = 0.02;
    let view = eve_esql::parse_view(
        "CREATE VIEW StarCols AS SELECT F.D1, Dim1.Tag AS T1 \
         FROM Fact F, Dim1, Dim2 \
         WHERE F.D1 = Dim1.Id AND F.D2 = Dim2.Id AND Dim2.Tag = 'hot'",
    )?;
    Ok(Workload {
        name: format!("star_text/{scale}"),
        view,
        extents,
        stats,
    })
}

/// The canonical workload set `repro columns`, the criterion-shim bench
/// and the soak smoke all run.
///
/// # Errors
///
/// Construction failures.
pub fn workloads() -> eve_system::Result<Vec<Workload>> {
    Ok(vec![wide_text_join(1500)?, star_text(4000)?])
}

/// Plans the workload once, then evaluates the view `reps` times through
/// each arm — the naive evaluator and the compiled plan on the executor —
/// (best-of timing), asserting both produce the same bag.
///
/// # Errors
///
/// Planning/execution failures, or a naive/columnar divergence.
#[allow(clippy::missing_panics_doc)]
pub fn run(workload: &Workload, reps: usize) -> eve_system::Result<ColumnsRow> {
    let reps = reps.max(1);
    let plan = plan_view(&workload.view, &workload.extents, &workload.stats)?;
    for rel in workload.extents.values() {
        rel.reset_index_counters();
    }
    let mut naive_ms = f64::INFINITY;
    let mut columnar_ms = f64::INFINITY;
    let mut naive_out = None;
    let mut col_out = None;
    for _ in 0..reps {
        let started = Instant::now();
        let out = evaluate_view_naive(&workload.view, &workload.extents)?;
        naive_ms = naive_ms.min(started.elapsed().as_secs_f64() * 1e3);
        naive_out = Some(out);

        let started = Instant::now();
        let out = execute(&plan, &ExecOptions::serial())?;
        columnar_ms = columnar_ms.min(started.elapsed().as_secs_f64() * 1e3);
        col_out = Some(out);
    }
    let naive_out = naive_out.expect("reps >= 1");
    let col_out = col_out.expect("reps >= 1");

    // Differential contract: the same bag (the planner may reorder joins,
    // so physical row order is not compared).
    let sorted = |rel: &Relation| {
        let mut v = rel.tuples().to_vec();
        v.sort();
        v
    };
    if sorted(&naive_out) != sorted(&col_out) {
        return Err(eve_system::Error::State {
            detail: format!(
                "naive and columnar evaluation diverged on {}: {} vs {} tuples",
                workload.name,
                naive_out.cardinality(),
                col_out.cardinality()
            ),
        });
    }

    let index = workload
        .extents
        .values()
        .fold(IndexStats::default(), |acc, r| acc.merged(r.index_stats()));
    Ok(ColumnsRow {
        workload: workload.name.clone(),
        naive_ms,
        columnar_ms,
        speedup: naive_ms / columnar_ms.max(1e-9),
        rows_out: col_out.cardinality(),
        index_scans: plan.estimate().index_scans,
        index,
    })
}

/// Runs the full workload set.
///
/// # Errors
///
/// As [`run`].
pub fn compare(reps: usize) -> eve_system::Result<Vec<ColumnsRow>> {
    workloads()?.iter().map(|w| run(w, reps)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_agree_on_every_workload() {
        for row in compare(1).unwrap() {
            assert!(row.naive_ms >= 0.0 && row.columnar_ms >= 0.0);
            assert!(row.rows_out > 0, "{} produced no rows", row.workload);
        }
    }

    #[test]
    fn star_plan_routes_the_selective_dimension_through_an_index() {
        let w = star_text(800).unwrap();
        let row = run(&w, 2).unwrap();
        assert!(row.index_scans >= 1, "expected an IndexScan leaf: {row:?}");
        assert!(row.index.builds >= 1, "lazy build on first execution");
        assert!(
            row.index.hits >= 1,
            "later reps must be answered from the cached index: {:?}",
            row.index
        );
    }

    /// Tier-1 gate (debug build, `cargo test -q`): the columnar arm must
    /// beat the row-at-a-time naive evaluator at least 2× on the wide text
    /// join. The release-mode `repro columns` gate requires ≥5× on the
    /// same shape.
    #[test]
    fn columnar_wide_text_join_at_least_2x_row() {
        let w = wide_text_join(1200).unwrap();
        let best = (0..3)
            .map(|_| run(&w, 3).unwrap().speedup)
            .fold(0.0f64, f64::max);
        assert!(
            best >= 2.0,
            "columnar execution must be at least 2x the naive evaluator \
             on the wide text join (best speedup {best:.2}x)"
        );
    }
}
