//! Cost-ordered planner vs the naive evaluator (extension; ROADMAP "fast
//! as the hardware allows").
//!
//! Executes the same view workloads through both evaluation paths of
//! `eve_system::query` — [`evaluate_view_naive`] (the historical
//! left-to-right fold) and the planned path ([`plan_view`] + execute) —
//! and reports, per workload:
//!
//! * wall-clock of both arms and the speedup,
//! * the planner's [`PlanEstimate`] (estimated rows, I/O blocks, total
//!   abstract cost) next to the *executed* cardinality,
//! * the analytic recompute I/O from `eve_core`'s cost model
//!   ([`eve_qc::cost::cf_recompute_io`]) as the cross-check: with declared
//!   statistics attached, the planner's scan I/O must coincide with the
//!   analytic full-scan sum.
//!
//! Both arms are asserted to produce identical bags (the differential
//! contract), so a reported speedup is never bought with a wrong answer.
//!
//! [`evaluate_view_naive`]: eve_system::query::evaluate_view_naive
//! [`plan_view`]: eve_system::query::plan_view
//! [`PlanEstimate`]: eve_relational::PlanEstimate

use std::collections::BTreeMap;
use std::time::Instant;

use eve_esql::ViewDef;
use eve_qc::cost::cf_recompute_io;
use eve_qc::RelSpec;
use eve_relational::exec::execute;
use eve_relational::{tup, DataType, ExecOptions, Relation, RelationStats, Schema, Tuple};
use eve_system::query::{evaluate_view_naive, plan_view};

/// A named view-execution workload: extents, declared statistics and the
/// view to evaluate.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// The view under evaluation.
    pub view: ViewDef,
    /// Base extents keyed by relation name.
    pub extents: BTreeMap<String, Relation>,
    /// Declared §6.1 statistics (consistent with the extents).
    pub stats: BTreeMap<String, RelationStats>,
}

/// One naive-vs-planned comparison row.
#[derive(Debug, Clone)]
pub struct ViewExecRow {
    /// Workload name.
    pub workload: String,
    /// Number of FROM relations.
    pub relations: usize,
    /// Naive arm wall-clock, milliseconds (best of the repetitions).
    pub naive_ms: f64,
    /// Planned arm wall-clock (plan + execute), milliseconds.
    pub planned_ms: f64,
    /// `naive_ms / planned_ms`.
    pub speedup: f64,
    /// Planner-estimated result cardinality.
    pub est_rows: f64,
    /// Executed result cardinality.
    pub actual_rows: usize,
    /// Planner-estimated scan I/O blocks.
    pub est_io_blocks: f64,
    /// Analytic recompute I/O from `eve_core` (`Σ ⌈|R|/bfr⌉`).
    pub analytic_io: f64,
    /// Planner-estimated total abstract cost (I/O + tuple touches).
    pub est_total: f64,
}

fn stats_of(extents: &BTreeMap<String, Relation>) -> BTreeMap<String, RelationStats> {
    extents
        .iter()
        .map(|(name, rel)| (name.clone(), RelationStats::from_relation(rel)))
        .collect()
}

/// The wide-join workload the ≥3× speedup gate runs on: two wide relations
/// whose declared join (on a low-cardinality grouping attribute) explodes
/// quadratically, plus a small, highly selective relation listed *last* in
/// FROM order. The naive left-to-right fold materializes the wide
/// intermediate; the planner starts from the filtered small relation and
/// never builds it.
///
/// # Errors
///
/// Relational construction failures.
#[allow(clippy::missing_panics_doc)]
pub fn wide_join(scale: i64) -> eve_system::Result<Workload> {
    let groups = 30i64;
    let kp = Schema::of(&[("K", DataType::Int), ("P", DataType::Int)])?;
    let kq = Schema::of(&[("K", DataType::Int), ("Q", DataType::Int)])?;
    let rows_kp = |n: i64| -> Vec<Tuple> { (0..n).map(|k| tup![k, k % groups]).collect() };
    let big1 = Relation::with_tuples("Big1", kp.clone(), rows_kp(scale))?;
    let big2 = Relation::with_tuples("Big2", kp, rows_kp(scale))?;
    let small = Relation::with_tuples(
        "Small",
        kq,
        (0..scale / 10).map(|k| tup![k, k % 50]).collect(),
    )?;
    let mut extents = BTreeMap::new();
    extents.insert("Big1".to_owned(), big1);
    extents.insert("Big2".to_owned(), big2);
    extents.insert("Small".to_owned(), small);
    let stats = stats_of(&extents);
    let view = eve_esql::parse_view(
        "CREATE VIEW Wide AS SELECT A.K, B.K AS BK \
         FROM Big1 A, Big2 B, Small S \
         WHERE A.P = B.P AND A.K = S.K AND S.Q = 0",
    )?;
    Ok(Workload {
        name: format!("wide_join/{scale}"),
        view,
        extents,
        stats,
    })
}

/// A uniform chain join — both evaluators pick essentially the same plan,
/// so this pins the "no regression on friendly shapes" end of the table.
///
/// # Errors
///
/// Relational construction failures.
pub fn chain_join(scale: i64) -> eve_system::Result<Workload> {
    let schema = Schema::of(&[("K", DataType::Int), ("P", DataType::Int)])?;
    let mut extents = BTreeMap::new();
    for name in ["C1", "C2", "C3"] {
        extents.insert(
            name.to_owned(),
            Relation::with_tuples(
                name,
                schema.clone(),
                (0..scale).map(|k| tup![k, k]).collect(),
            )?,
        );
    }
    let stats = stats_of(&extents);
    let view = eve_esql::parse_view(
        "CREATE VIEW Chain AS SELECT A.K FROM C1 A, C2 B, C3 C \
         WHERE A.K = B.K AND B.K = C.K",
    )?;
    Ok(Workload {
        name: format!("chain_join/{scale}"),
        view,
        extents,
        stats,
    })
}

/// A star join whose selective dimension is listed *last* in FROM order
/// (mildly adversarial for the naive fold: it joins the full fact table
/// before the filter bites). The declared statistics carry the *accurate*
/// selectivity of the dimension filter — the §6.1 contract that the MKB's
/// registered σ describes the relation's condition.
///
/// # Errors
///
/// Relational construction failures.
#[allow(clippy::missing_panics_doc)]
pub fn star_join(scale: i64) -> eve_system::Result<Workload> {
    let fact_schema = Schema::of(&[("D1", DataType::Int), ("D2", DataType::Int)])?;
    let dim_schema = Schema::of(&[("Id", DataType::Int), ("Tag", DataType::Int)])?;
    let mut extents = BTreeMap::new();
    extents.insert(
        "Fact".to_owned(),
        Relation::with_tuples(
            "Fact",
            fact_schema,
            (0..scale).map(|k| tup![k % 100, k % 25]).collect(),
        )?,
    );
    extents.insert(
        "Dim1".to_owned(),
        Relation::with_tuples(
            "Dim1",
            dim_schema.clone(),
            (0..100i64).map(|k| tup![k, k % 4]).collect(),
        )?,
    );
    extents.insert(
        "Dim2".to_owned(),
        Relation::with_tuples(
            "Dim2",
            dim_schema,
            (0..25i64).map(|k| tup![k, k % 5]).collect(),
        )?,
    );
    let mut stats = stats_of(&extents);
    // Dim2's condition (`Tag = 0` over Tag = k % 5) keeps 1 in 5 tuples.
    stats.get_mut("Dim2").expect("registered").selectivity = 0.2;
    let view = eve_esql::parse_view(
        "CREATE VIEW Star AS SELECT F.D1, Dim1.Tag AS T1 \
         FROM Fact F, Dim1, Dim2 \
         WHERE F.D1 = Dim1.Id AND F.D2 = Dim2.Id AND Dim2.Tag = 0",
    )?;
    Ok(Workload {
        name: format!("star_join/{scale}"),
        view,
        extents,
        stats,
    })
}

/// The canonical workload set the bench, the soak gate and `repro
/// view-exec` all run.
///
/// # Errors
///
/// Construction failures.
pub fn workloads() -> eve_system::Result<Vec<Workload>> {
    Ok(vec![wide_join(1500)?, star_join(4000)?, chain_join(2000)?])
}

/// Runs one workload through both arms `reps` times (best-of timing),
/// asserting bag equality between them.
///
/// # Errors
///
/// Evaluation failures, or naive/planned divergence.
#[allow(clippy::cast_precision_loss, clippy::missing_panics_doc)]
pub fn run(workload: &Workload, reps: usize) -> eve_system::Result<ViewExecRow> {
    let reps = reps.max(1);
    let mut naive_ms = f64::INFINITY;
    let mut planned_ms = f64::INFINITY;
    let mut naive_out = None;
    let mut planned_out = None;
    for _ in 0..reps {
        let started = Instant::now();
        let out = evaluate_view_naive(&workload.view, &workload.extents)?;
        naive_ms = naive_ms.min(started.elapsed().as_secs_f64() * 1e3);
        naive_out = Some(out);

        let started = Instant::now();
        let plan = plan_view(&workload.view, &workload.extents, &workload.stats)?;
        let out = execute(&plan, &ExecOptions::serial())?;
        planned_ms = planned_ms.min(started.elapsed().as_secs_f64() * 1e3);
        planned_out = Some((plan, out));
    }
    let naive_out = naive_out.expect("reps >= 1");
    let (plan, planned_rel) = planned_out.expect("reps >= 1");

    // Differential contract: identical bags (join reordering may permute
    // physical row order).
    let mut a = naive_out.tuples().to_vec();
    let mut b = planned_rel.tuples().to_vec();
    a.sort();
    b.sort();
    if a != b {
        return Err(eve_system::Error::State {
            detail: format!(
                "planned and naive evaluation diverged on {}: {} vs {} tuples",
                workload.name,
                naive_out.cardinality(),
                planned_rel.cardinality()
            ),
        });
    }

    // Analytic cross-check: eve_core's recompute I/O over the declared
    // statistics.
    let specs: Vec<RelSpec> = workload
        .view
        .from
        .iter()
        .map(|item| {
            let s = &workload.stats[&item.relation];
            RelSpec {
                name: item.relation.clone(),
                cardinality: s.cardinality as f64,
                tuple_bytes: s.tuple_bytes as f64,
                selectivity: s.selectivity,
                blocking_factor: s.blocking_factor as f64,
                join_selectivity: 0.005,
            }
        })
        .collect();
    let analytic_io = cf_recompute_io(&specs);

    let est = plan.estimate();
    Ok(ViewExecRow {
        workload: workload.name.clone(),
        relations: workload.view.from.len(),
        naive_ms,
        planned_ms,
        speedup: naive_ms / planned_ms.max(1e-9),
        est_rows: est.output_rows,
        actual_rows: planned_rel.cardinality(),
        est_io_blocks: est.io_blocks,
        analytic_io,
        est_total: est.total,
    })
}

/// Runs the full workload set.
///
/// # Errors
///
/// As [`run`].
pub fn compare(reps: usize) -> eve_system::Result<Vec<ViewExecRow>> {
    workloads()?.iter().map(|w| run(w, reps)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_agree_on_every_workload() {
        for row in compare(1).unwrap() {
            assert!(row.naive_ms >= 0.0 && row.planned_ms >= 0.0);
            assert!(row.actual_rows > 0, "{} produced no rows", row.workload);
        }
    }

    #[test]
    fn planner_io_estimate_matches_analytic_recompute_io() {
        // With declared statistics attached, the planner's scan I/O is the
        // analytic model's `Σ ⌈|R|/bfr⌉` recomputation charge — or less,
        // when the cost model routes a selective literal clause through a
        // secondary index instead of a full scan.
        for workload in workloads().unwrap() {
            let plan = plan_view(&workload.view, &workload.extents, &workload.stats).unwrap();
            let row = run(&workload, 1).unwrap();
            let est = plan.estimate();
            assert!(
                est.io_blocks <= row.analytic_io + 1e-9,
                "{}: planner {} vs analytic {}",
                workload.name,
                est.io_blocks,
                row.analytic_io
            );
            if est.index_scans == 0 {
                assert!(
                    (est.io_blocks - row.analytic_io).abs() < 1e-9,
                    "{}: without an index scan the estimates must agree \
                     exactly: planner {} vs analytic {}",
                    workload.name,
                    est.io_blocks,
                    row.analytic_io
                );
            }
        }
    }

    #[test]
    fn wide_join_plan_starts_from_the_filtered_small_relation() {
        let w = wide_join(300).unwrap();
        let plan = plan_view(&w.view, &w.extents, &w.stats).unwrap();
        assert_eq!(plan.join_order_bindings()[0], "S", "{}", plan.explain());
    }
}
