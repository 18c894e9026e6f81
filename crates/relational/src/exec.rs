//! Execution of [`PhysicalPlan`]s over shared storage.
//!
//! Every operator materializes its output, but *inputs are never copied*:
//! scans hand back `Arc`-shared relations ([`Relation::clone`] is
//! pointer-cheap since the copy-on-write storage change), hash-join keys
//! were resolved to column indices at plan time, and only genuinely new
//! tuples (join concatenations, filtered subsets) allocate. A filter that
//! keeps every tuple returns the input's shared storage untouched.
//!
//! There is one way to run a plan, [`execute`]: pushed-down filters run
//! as vectorized passes over the relation's
//! [`crate::column::ColumnarBatch`] (row-at-a-time only when a predicate
//! does not compile to column clauses), [`PlanNode::IndexScan`] is served
//! from the lazily built secondary indexes, and hash joins probe with
//! interned scalar keys (`u64`s instead of cloned key tuples). A join whose
//! key column types differ can never match under `Value` equality, so it
//! returns the empty relation without building a table. The differential
//! suites hold this executor to the naive algebra fold (as bags) and to
//! itself across parallelism knobs (byte for byte, order included).
//!
//! [`join_with_counts`] is the incremental-maintenance flavour of the hash
//! join: it additionally reports how many inner tuples each outer (delta)
//! tuple matched, which is exactly what the Appendix-A probe-I/O accounting
//! (`max(1, ⌈matches/bfr⌉)` capped by a full scan) consumes. The view
//! maintainer routes its delta joins through it so planned and legacy
//! execution charge byte-identical traces.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Mutex;

use crate::column::{self, scalar_key};
use crate::error::Result;
use crate::morsel::{self, ExecOptions};
use crate::plan::{split_equi_keys, PhysicalPlan, PlanNode};
use crate::predicate::{CompOp, Predicate, PrimitiveClause};
use crate::relation::Relation;
use crate::schema::Schema;

// Per-thread scratch for morsel selection vectors: a worker reuses one
// buffer across every morsel it runs instead of allocating per morsel
// (the per-morsel output is an exact-size copy of the surviving ids).
thread_local! {
    static FILTER_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Execution context threaded through the operator tree: the effective
/// worker count (after the planner's tiny-input veto) and the morsel
/// geometry.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    workers: usize,
    opts: &'a ExecOptions,
}

impl Ctx<'_> {
    /// Whether an operator over `rows` input rows should take its
    /// parallel path: more than one worker and more than one morsel.
    fn parallel_over(&self, rows: usize) -> bool {
        self.workers > 1 && self.opts.morsel_count(rows) > 1
    }
}

/// Concatenates per-morsel output chunks in morsel order — the merge step
/// that keeps parallel output byte-identical to serial execution.
fn concat_chunks<T>(chunks: Vec<Vec<T>>) -> Vec<T> {
    let total = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for mut chunk in chunks {
        out.append(&mut chunk);
    }
    out
}

/// Clamps a (possibly wild) cardinality estimate into a sane preallocation
/// hint. `0` means "no hint".
fn row_hint(estimated: f64) -> usize {
    if estimated.is_finite() && estimated > 0.0 {
        (estimated as usize).min(1 << 22)
    } else {
        0
    }
}

/// Executes a compiled plan, producing the named, projected output
/// relation. With `parallelism > 1` the operators run morsel-parallel; the
/// output stays byte-identical, order included, to serial execution,
/// because every operator merges per-morsel outputs in morsel order. The
/// planner may veto parallelism for tiny inputs (see
/// [`crate::plan::PlanEstimate::effective_parallelism`]).
///
/// # Errors
///
/// Propagates predicate evaluation failures (the planner already
/// type-checked every predicate, so these only occur for pathological
/// schema/value drift after planning), and surfaces a worker panic as
/// [`crate::error::Error::Parallel`].
pub fn execute(plan: &PhysicalPlan, opts: &ExecOptions) -> Result<Relation> {
    let _query_span = eve_trace::span("exec.query");
    // The columnar image is part of the physical storage: build (or reuse —
    // it is cached in the shared storage) each base input's batch up front
    // so vectorized filters and interned join keys read columns instead of
    // re-deriving scalar keys per tuple.
    for input in &plan.inputs {
        let _ = input.relation.columnar();
    }
    let workers = if opts.parallelism > 1 {
        if opts.force_parallel {
            opts.parallelism
        } else {
            let effective = plan.estimate().effective_parallelism(opts.parallelism);
            if effective == 1 {
                morsel::note_serial_fallback();
            }
            effective
        }
    } else {
        1
    };
    let ctx = Ctx { workers, opts };
    let joined = eval(plan, &plan.root, ctx, row_hint(plan.estimate().output_rows))?;
    let tuples = joined.tuples();
    let rows = if ctx.parallel_over(tuples.len()) {
        morsel::note_parallel_op();
        let n = ctx.opts.morsel_count(tuples.len());
        concat_chunks(morsel::run_morsels(ctx.workers, n, |i| {
            let (s, e) = ctx.opts.morsel_range(i, tuples.len());
            let mut out = Vec::with_capacity(e - s);
            for t in &tuples[s..e] {
                out.push(t.project(&plan.projection));
            }
            Ok(out)
        })?)
    } else {
        let mut rows = Vec::with_capacity(tuples.len());
        for t in tuples {
            rows.push(t.project(&plan.projection));
        }
        rows
    };
    Ok(Relation::from_validated(
        plan.name.clone(),
        plan.output_schema.clone(),
        rows,
    ))
}

/// Materializes an ascending selection over `rel` — zero-copy when the
/// selection keeps every row.
fn materialize_selection(rel: &Relation, sel: &[u32]) -> Relation {
    if sel.len() == rel.cardinality() {
        return rel.clone(); // shares tuple storage
    }
    let tuples = rel.tuples();
    Relation::from_validated(
        rel.name(),
        rel.schema().clone(),
        sel.iter().map(|&r| tuples[r as usize].clone()).collect(),
    )
}

/// Row-at-a-time filter: ascending row ids satisfying `pred`.
fn filter_rows(rel: &Relation, pred: &Predicate) -> Result<Vec<u32>> {
    let mut sel = Vec::new();
    for (i, t) in rel.tuples().iter().enumerate() {
        if pred.eval(rel.schema(), t, rel.name())? {
            sel.push(u32::try_from(i).expect("row id fits u32"));
        }
    }
    Ok(sel)
}

fn eval(plan: &PhysicalPlan, node: &PlanNode, ctx: Ctx<'_>, out_hint: usize) -> Result<Relation> {
    match node {
        PlanNode::Scan { input, pushdown } => {
            let _span = eve_trace::span("exec.scan");
            let rel = &plan.inputs[*input].relation;
            match pushdown {
                None => Ok(rel.clone()), // zero-copy: shares tuple storage
                Some(pred) => {
                    let Some(compiled) = column::compile_clauses(pred, rel.schema(), rel.name())
                    else {
                        let sel = filter_rows(rel, pred)?;
                        return Ok(materialize_selection(rel, &sel));
                    };
                    let batch = rel.columnar();
                    let rows = batch.rows();
                    if ctx.parallel_over(rows) {
                        morsel::note_parallel_op();
                        let tuples = rel.tuples();
                        let n = ctx.opts.morsel_count(rows);
                        let sels = morsel::run_morsels(ctx.workers, n, |i| {
                            let (s, e) = ctx.opts.morsel_range(i, rows);
                            FILTER_SCRATCH.with(|buf| {
                                let mut scratch = buf.borrow_mut();
                                column::filter_batch_range(
                                    &batch,
                                    tuples,
                                    &compiled,
                                    u32::try_from(s).expect("row id fits u32"),
                                    u32::try_from(e).expect("row id fits u32"),
                                    &mut scratch,
                                );
                                Ok(scratch.clone())
                            })
                        })?;
                        return Ok(materialize_selection(rel, &concat_chunks(sels)));
                    }
                    let sel = column::filter_batch(&batch, rel.tuples(), &compiled);
                    Ok(materialize_selection(rel, &sel))
                }
            }
        }
        PlanNode::IndexScan {
            input,
            col,
            op,
            key,
            residual,
        } => {
            let _span = eve_trace::span("exec.index_scan");
            let rel = &plan.inputs[*input].relation;
            let rows = if *op == CompOp::Eq {
                rel.index_eq_rows(*col, key)
            } else {
                rel.index_range_rows(*col, *op, key)
            };
            let sel = match residual {
                None => rows,
                // The residual probe re-checks every index hit against the
                // remaining predicate — morsel-parallel over the hit list,
                // merged in morsel (= ascending row) order.
                Some(pred) if ctx.parallel_over(rows.len()) => {
                    morsel::note_parallel_op();
                    let tuples = rel.tuples();
                    let rows = &rows;
                    let n = ctx.opts.morsel_count(rows.len());
                    concat_chunks(morsel::run_morsels(ctx.workers, n, |i| {
                        let (s, e) = ctx.opts.morsel_range(i, rows.len());
                        let mut keep = Vec::with_capacity(e - s);
                        for &r in &rows[s..e] {
                            if pred.eval(rel.schema(), &tuples[r as usize], rel.name())? {
                                keep.push(r);
                            }
                        }
                        Ok(keep)
                    })?)
                }
                Some(pred) => {
                    let tuples = rel.tuples();
                    let mut keep = Vec::with_capacity(rows.len());
                    for r in rows {
                        if pred.eval(rel.schema(), &tuples[r as usize], rel.name())? {
                            keep.push(r);
                        }
                    }
                    keep
                }
            };
            Ok(materialize_selection(rel, &sel))
        }
        PlanNode::HashJoin {
            probe,
            build,
            probe_keys,
            build_keys,
            residual,
            schema,
        } => {
            let probe_rel = eval(plan, probe, ctx, 0)?;
            let build_rel = eval(plan, build, ctx, 0)?;
            let _span = eve_trace::span("exec.join.hash");
            if !key_types_match(&probe_rel, probe_keys, &build_rel, build_keys) {
                let name = format!("{}⋈{}", probe_rel.name(), build_rel.name());
                return Ok(Relation::empty(name, schema.clone()));
            }
            if ctx.parallel_over(probe_rel.cardinality().max(build_rel.cardinality())) {
                return hash_join_parallel(
                    &probe_rel, &build_rel, probe_keys, build_keys, residual, schema, ctx, out_hint,
                );
            }
            hash_join(
                &probe_rel, &build_rel, probe_keys, build_keys, residual, schema, out_hint,
            )
        }
        PlanNode::NestedLoop {
            outer,
            inner,
            condition,
            schema,
        } => {
            let outer_rel = eval(plan, outer, ctx, 0)?;
            let inner_rel = eval(plan, inner, ctx, 0)?;
            let _span = eve_trace::span("exec.join.nested");
            let name = format!("{}⋈{}", outer_rel.name(), inner_rel.name());
            let outer_tuples = outer_rel.tuples();
            let inner_tuples = inner_rel.tuples();
            if ctx.parallel_over(outer_tuples.len()) && !inner_tuples.is_empty() {
                morsel::note_parallel_op();
                let n = ctx.opts.morsel_count(outer_tuples.len());
                let name_ref = &name;
                let chunks = morsel::run_morsels(ctx.workers, n, |mi| {
                    let (s, e) = ctx.opts.morsel_range(mi, outer_tuples.len());
                    let mut out = Vec::new();
                    for o in &outer_tuples[s..e] {
                        for i in inner_tuples {
                            let t = o.concat(i);
                            if condition.is_true() || condition.eval(schema, &t, name_ref)? {
                                out.push(t);
                            }
                        }
                    }
                    Ok(out)
                })?;
                return Ok(Relation::from_validated(
                    name,
                    schema.clone(),
                    concat_chunks(chunks),
                ));
            }
            let mut out = Vec::with_capacity(out_hint);
            for o in outer_tuples {
                for i in inner_tuples {
                    let t = o.concat(i);
                    if condition.is_true() || condition.eval(schema, &t, &name)? {
                        out.push(t);
                    }
                }
            }
            Ok(Relation::from_validated(name, schema.clone(), out))
        }
    }
}

/// Whether every probe/build key column pair compares the same type. A
/// mismatched pair can never match: `Value` equality is `try_cmp ==
/// Equal`, `try_cmp` errors across types, and tuples are schema-validated.
/// The scalar key encoding cannot express that, so callers answer such a
/// join with no rows before building any table.
fn key_types_match(
    probe: &Relation,
    probe_keys: &[usize],
    build: &Relation,
    build_keys: &[usize],
) -> bool {
    probe_keys
        .iter()
        .zip(build_keys)
        .all(|(&p, &b)| probe.schema().column(p).ty == build.schema().column(b).ty)
}

/// Join key over the scalar `u64` encoding (see [`crate::column`]).
#[derive(Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    One(u64),
    Many(Box<[u64]>),
}

/// Multiply-xor hasher for [`JoinKey`]s: interned scalar keys are already
/// uniform `u64`s, and SipHash would cost more per probe than the table
/// lookup itself.
#[derive(Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        // Golden-ratio multiply, then fold the high bits down so both the
        // bucket index and the control byte see the mixed entropy.
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// Hash table from scalar join keys to ascending build-side row ids.
type KeyTable = HashMap<JoinKey, Vec<u32>, std::hash::BuildHasherDefault<KeyHasher>>;

fn key_table_with_capacity(n: usize) -> KeyTable {
    KeyTable::with_capacity_and_hasher(n, std::hash::BuildHasherDefault::default())
}

/// Per-row scalar join keys for `cols`, read from the cached columnar
/// batch when one exists and computed directly from the tuples otherwise
/// (intermediates never pay a full batch build for one key column).
fn join_key_vector(rel: &Relation, cols: &[usize]) -> Vec<JoinKey> {
    join_keys_range(rel, cols, 0, rel.cardinality())
}

/// [`join_key_vector`] restricted to rows `[start, end)` — the morsel-
/// sized unit of parallel key extraction. Text keys intern through the
/// sharded pool, so concurrent morsels mostly touch different shard locks.
fn join_keys_range(rel: &Relation, cols: &[usize], start: usize, end: usize) -> Vec<JoinKey> {
    if rel.columnar_built() {
        let batch = rel.columnar();
        if let [col] = cols {
            let c = batch.column(*col);
            return (start..end).map(|r| JoinKey::One(c.key_at(r))).collect();
        }
        return (start..end)
            .map(|r| {
                JoinKey::Many(
                    cols.iter()
                        .map(|&col| batch.column(col).key_at(r))
                        .collect(),
                )
            })
            .collect();
    }
    let tuples = &rel.tuples()[start..end];
    if let [col] = cols {
        return tuples
            .iter()
            .map(|t| JoinKey::One(scalar_key(t.get(*col))))
            .collect();
    }
    tuples
        .iter()
        .map(|t| JoinKey::Many(cols.iter().map(|&c| scalar_key(t.get(c))).collect()))
        .collect()
}

/// Hash-join partition count for a worker count: enough partitions that
/// build tasks spread even under moderate key skew.
fn partition_count(workers: usize) -> usize {
    (workers * 2).next_power_of_two().min(64)
}

/// Routes a key to its partition using the high bits of the same
/// [`KeyHasher`] mix the tables bucket with low bits — one hash, two
/// independent-enough bit ranges.
fn partition_of(k: &JoinKey, mask: u64) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = KeyHasher::default();
    k.hash(&mut h);
    usize::try_from((h.finish() >> 48) & mask).expect("mask fits usize")
}

/// Hash join over interned scalar keys: hashes `u64`s instead of cloning
/// and hashing projected key tuples. Output order is probe order outer,
/// build insertion (ascending row) order inner.
fn hash_join(
    probe_rel: &Relation,
    build_rel: &Relation,
    probe_keys: &[usize],
    build_keys: &[usize],
    residual: &Predicate,
    schema: &Schema,
    out_hint: usize,
) -> Result<Relation> {
    let name = format!("{}⋈{}", probe_rel.name(), build_rel.name());
    let build_key_vec = join_key_vector(build_rel, build_keys);
    let mut table = key_table_with_capacity(build_key_vec.len());
    for (i, k) in build_key_vec.into_iter().enumerate() {
        table
            .entry(k)
            .or_default()
            .push(u32::try_from(i).expect("row id fits u32"));
    }
    let probe_key_vec = join_key_vector(probe_rel, probe_keys);
    let build_tuples = build_rel.tuples();
    let mut out = Vec::with_capacity(out_hint);
    for (p, k) in probe_key_vec.into_iter().enumerate() {
        if let Some(matches) = table.get(&k) {
            let pt = &probe_rel.tuples()[p];
            for &b in matches {
                let t = pt.concat(&build_tuples[b as usize]);
                if residual.is_true() || residual.eval(schema, &t, &name)? {
                    out.push(t);
                }
            }
        }
    }
    Ok(Relation::from_validated(name, schema.clone(), out))
}

/// Morsel-parallel partitioned hash join over interned scalar keys.
///
/// Three phases, each deterministic:
///
/// 1. **Scatter** (parallel over build morsels): extract scalar keys for
///    the morsel's row range and scatter `(key, row)` pairs into
///    per-partition buckets, routed by the high bits of the key hash.
/// 2. **Build** (parallel over partitions): each partition's table is
///    owned by exactly one task — lock-free by partitioning, not by
///    atomics. Buckets are drained in morsel order, so every key's row
///    list comes out ascending, exactly as the serial build inserts it.
/// 3. **Probe** (parallel over probe morsels): read-only lookups against
///    the partition tables; per-morsel outputs merge in morsel order.
///
/// Output is therefore byte-identical, order included, to
/// [`hash_join`]: probe-order outer, ascending build rows inner.
#[allow(clippy::too_many_arguments)]
fn hash_join_parallel(
    probe_rel: &Relation,
    build_rel: &Relation,
    probe_keys: &[usize],
    build_keys: &[usize],
    residual: &Predicate,
    schema: &Schema,
    ctx: Ctx<'_>,
    out_hint: usize,
) -> Result<Relation> {
    morsel::note_parallel_op();
    let name = format!("{}⋈{}", probe_rel.name(), build_rel.name());
    let build_rows = build_rel.cardinality();
    let probe_rows = probe_rel.cardinality();
    let parts = partition_count(ctx.workers);
    let mask = (parts - 1) as u64;

    // Phase 1: parallel key extraction + partition scatter.
    let n_build = ctx.opts.morsel_count(build_rows);
    let scattered = morsel::run_morsels(ctx.workers, n_build, |i| {
        let (s, e) = ctx.opts.morsel_range(i, build_rows);
        let keys = join_keys_range(build_rel, build_keys, s, e);
        let mut buckets: Vec<Vec<(JoinKey, u32)>> = (0..parts).map(|_| Vec::new()).collect();
        for (off, k) in keys.into_iter().enumerate() {
            let p = partition_of(&k, mask);
            buckets[p].push((k, u32::try_from(s + off).expect("row id fits u32")));
        }
        Ok(buckets)
    })?;
    // Wrap each bucket so the owning build task can take it without
    // cloning keys (each bucket is read by exactly one partition task).
    type MorselBuckets = Vec<Mutex<Vec<(JoinKey, u32)>>>;
    let scattered: Vec<MorselBuckets> = scattered
        .into_iter()
        .map(|buckets| buckets.into_iter().map(Mutex::new).collect())
        .collect();

    // Phase 2: one task per partition; tables are lock-free because no
    // two tasks share a partition.
    morsel::note_partitions(parts as u64);
    let tables = morsel::run_morsels(ctx.workers, parts, |p| {
        let cap: usize = scattered
            .iter()
            .map(|m| m[p].lock().expect("bucket poisoned").len())
            .sum();
        let mut table = key_table_with_capacity(cap);
        for morsel_buckets in &scattered {
            let bucket = std::mem::take(&mut *morsel_buckets[p].lock().expect("bucket poisoned"));
            for (k, row) in bucket {
                table.entry(k).or_default().push(row);
            }
        }
        Ok(table)
    })?;

    // Phase 3: parallel probe against the read-only partition tables.
    let n_probe = ctx.opts.morsel_count(probe_rows);
    let probe_tuples = probe_rel.tuples();
    let build_tuples = build_rel.tuples();
    let name_ref = &name;
    let chunks = morsel::run_morsels(ctx.workers, n_probe, |i| {
        let (s, e) = ctx.opts.morsel_range(i, probe_rows);
        let cap = if out_hint > 0 {
            out_hint / n_probe.max(1) + 1
        } else {
            e - s
        };
        let mut out = Vec::with_capacity(cap);
        let keys = join_keys_range(probe_rel, probe_keys, s, e);
        for (off, k) in keys.into_iter().enumerate() {
            let p = partition_of(&k, mask);
            if let Some(matches) = tables[p].get(&k) {
                let pt = &probe_tuples[s + off];
                for &b in matches {
                    let t = pt.concat(&build_tuples[b as usize]);
                    if residual.is_true() || residual.eval(schema, &t, name_ref)? {
                        out.push(t);
                    }
                }
            }
        }
        Ok(out)
    })?;
    Ok(Relation::from_validated(
        name,
        schema.clone(),
        concat_chunks(chunks),
    ))
}

/// Joins `delta` with `next` under the conjunction `on`, returning the
/// joined relation together with the number of `next`-tuples matched by
/// each delta tuple (for probe-I/O accounting). Equality clauses between
/// the two sides become hash keys; remaining clauses filter the result.
/// Without any key the join degrades to a scan — every delta tuple
/// "matches" the full relation.
///
/// This is Algorithm 1's per-site delta join, physically: identical output
/// order (delta-major, build-table insertion order within a key) and
/// identical match counts to the historical naive implementation. The
/// keyed probe runs over interned scalar keys; when a key pair's column
/// types differ nothing can match, so the result is empty with an all-zero
/// count per delta tuple.
///
/// # Errors
///
/// Schema concatenation and predicate failures.
pub fn join_with_counts(
    delta: &Relation,
    next: &Relation,
    on: &[PrimitiveClause],
) -> Result<(Relation, Vec<usize>)> {
    let (keys, residual_clauses) =
        split_equi_keys(delta.schema(), delta.name(), next.schema(), next.name(), on);
    let schema = delta.schema().concat(next.schema())?;
    let name = format!("{}⋈{}", delta.name(), next.name());
    let residual = Predicate::new(residual_clauses);
    residual.type_check(&schema, &name)?;

    let mut out = Vec::new();
    let mut counts = Vec::with_capacity(delta.cardinality());
    if keys.is_empty() {
        for d in delta.tuples() {
            counts.push(next.cardinality());
            for n in next.tuples() {
                let t = d.concat(n);
                if residual.eval(&schema, &t, &name)? {
                    out.push(t);
                }
            }
        }
        return Ok((Relation::from_validated(name, schema, out), counts));
    }

    let (delta_idx, next_idx): (Vec<usize>, Vec<usize>) = keys.into_iter().unzip();
    if !key_types_match(delta, &delta_idx, next, &next_idx) {
        counts.resize(delta.cardinality(), 0);
        return Ok((Relation::from_validated(name, schema, out), counts));
    }
    let next_key_vec = join_key_vector(next, &next_idx);
    let mut table = key_table_with_capacity(next_key_vec.len());
    for (i, k) in next_key_vec.into_iter().enumerate() {
        table
            .entry(k)
            .or_default()
            .push(u32::try_from(i).expect("row id fits u32"));
    }
    let delta_key_vec = join_key_vector(delta, &delta_idx);
    let next_tuples = next.tuples();
    for (di, k) in delta_key_vec.into_iter().enumerate() {
        let matches = table.get(&k).map_or(&[][..], Vec::as_slice);
        counts.push(matches.len());
        let dt = &delta.tuples()[di];
        for &n in matches {
            let t = dt.concat(&next_tuples[n as usize]);
            if residual.eval(&schema, &t, &name)? {
                out.push(t);
            }
        }
    }
    Ok((Relation::from_validated(name, schema, out), counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan, QueryInput, QuerySpec};
    use crate::predicate::CompOp;
    use crate::schema::{ColumnRef, Schema};
    use crate::tup;
    use crate::tuple::Tuple;
    use crate::types::{DataType, Value};
    use crate::{algebra, Predicate};

    use crate::reference::{naive, sorted_tuples};

    fn run(p: &PhysicalPlan) -> Relation {
        execute(p, &ExecOptions::serial()).unwrap()
    }

    fn rel(name: &str, cols: &[(&str, DataType)], rows: Vec<Tuple>) -> Relation {
        Relation::with_tuples(name, Schema::of(cols).unwrap().qualify(name), rows).unwrap()
    }

    fn chain_spec() -> QuerySpec {
        let a = rel(
            "A",
            &[("K", DataType::Int), ("P", DataType::Int)],
            vec![tup![1, 10], tup![2, 20], tup![3, 30]],
        );
        let b = rel(
            "B",
            &[("K", DataType::Int), ("P", DataType::Int)],
            vec![tup![1, 11], tup![3, 31], tup![4, 41]],
        );
        let c = rel(
            "C",
            &[("K", DataType::Int), ("P", DataType::Int)],
            vec![tup![1, 12], tup![2, 22], tup![3, 32]],
        );
        QuerySpec {
            name: "V".into(),
            inputs: vec![
                QueryInput {
                    binding: "A".into(),
                    relation: a,
                    stats: None,
                },
                QueryInput {
                    binding: "B".into(),
                    relation: b,
                    stats: None,
                },
                QueryInput {
                    binding: "C".into(),
                    relation: c,
                    stats: None,
                },
            ],
            clauses: vec![
                PrimitiveClause::eq(ColumnRef::parse("A.K"), ColumnRef::parse("B.K")),
                PrimitiveClause::eq(ColumnRef::parse("B.K"), ColumnRef::parse("C.K")),
            ],
            projection: vec![
                ColumnRef::parse("A.K"),
                ColumnRef::parse("B.P"),
                ColumnRef::parse("C.P"),
            ],
            output: vec![
                ColumnRef::bare("K"),
                ColumnRef::bare("BP"),
                ColumnRef::bare("CP"),
            ],
        }
    }

    #[test]
    fn chain_join_matches_naive_reference() {
        let spec = chain_spec();
        let p = plan(spec).unwrap();
        let out = run(&p);
        let mut got = out.tuples().to_vec();
        got.sort();
        assert_eq!(got, vec![tup![1, 11, 12], tup![3, 31, 32]]);
        assert_eq!(out.name(), "V");
        assert_eq!(out.schema().column(1).column, ColumnRef::bare("BP"));
    }

    #[test]
    fn exec_modes_agree_byte_for_byte() {
        let spec = chain_spec();
        let reference = naive(&spec);
        let out = run(&plan(spec).unwrap());
        // The exact order the retired row-at-a-time executor produced.
        assert_eq!(
            out.tuples(),
            &[tup![1, 11, 12], tup![3, 31, 32]],
            "same tuples, same order"
        );
        assert_eq!(out.name(), reference.name());
        assert_eq!(out.schema(), reference.schema());
        assert_eq!(sorted_tuples(&out), sorted_tuples(&reference));
    }

    #[test]
    fn exec_modes_agree_on_text_keys() {
        let l = rel(
            "L",
            &[("K", DataType::Text), ("P", DataType::Int)],
            vec![tup!["a", 1], tup!["b", 2], tup!["a", 3]],
        );
        let r_ = rel(
            "R",
            &[("K", DataType::Text), ("Q", DataType::Int)],
            vec![tup!["a", 10], tup!["c", 30], tup!["a", 40]],
        );
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![
                QueryInput {
                    binding: "L".into(),
                    relation: l,
                    stats: None,
                },
                QueryInput {
                    binding: "R".into(),
                    relation: r_,
                    stats: None,
                },
            ],
            clauses: vec![PrimitiveClause::eq(
                ColumnRef::parse("L.K"),
                ColumnRef::parse("R.K"),
            )],
            projection: vec![ColumnRef::parse("L.P"), ColumnRef::parse("R.Q")],
            output: vec![ColumnRef::bare("P"), ColumnRef::bare("Q")],
        };
        let reference = naive(&spec);
        let out = run(&plan(spec).unwrap());
        // The exact order the retired row-at-a-time executor produced.
        assert_eq!(
            out.tuples(),
            &[tup![1, 10], tup![1, 40], tup![3, 10], tup![3, 40]]
        );
        assert_eq!(sorted_tuples(&out), sorted_tuples(&reference));
        assert_eq!(out.cardinality(), 4); // 2 'a' × 2 'a'
    }

    #[test]
    fn scan_without_pushdown_shares_storage() {
        let a = rel("A", &[("K", DataType::Int)], vec![tup![1], tup![2]]);
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![QueryInput {
                binding: "A".into(),
                relation: a.clone(),
                stats: None,
            }],
            clauses: vec![],
            projection: vec![ColumnRef::parse("A.K")],
            output: vec![ColumnRef::bare("K")],
        };
        let p = plan(spec).unwrap();
        // The scan itself is zero-copy; only the projection materializes.
        match &p.root {
            PlanNode::Scan { input, pushdown } => {
                assert_eq!(*input, 0);
                assert!(pushdown.is_none());
            }
            other => panic!("expected a bare scan, got {other:?}"),
        }
        let out = run(&p);
        assert_eq!(out.tuples(), &[tup![1], tup![2]]);
    }

    #[test]
    fn pushdown_filter_applies_during_scan() {
        let a = rel(
            "A",
            &[("K", DataType::Int)],
            (0..10).map(|k| tup![k]).collect(),
        );
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![QueryInput {
                binding: "A".into(),
                relation: a,
                stats: None,
            }],
            clauses: vec![PrimitiveClause::lit(
                ColumnRef::parse("A.K"),
                CompOp::Lt,
                Value::Int(3),
            )],
            projection: vec![ColumnRef::parse("A.K")],
            output: vec![ColumnRef::bare("K")],
        };
        let out = run(&plan(spec).unwrap());
        assert_eq!(out.tuples(), &[tup![0], tup![1], tup![2]]);
    }

    #[test]
    fn filter_keeping_everything_is_zero_copy() {
        let a = rel(
            "A",
            &[("K", DataType::Int)],
            (0..10).map(|k| tup![k]).collect(),
        );
        let pred = Predicate::single(PrimitiveClause::lit(
            ColumnRef::parse("A.K"),
            CompOp::Ge,
            Value::Int(0),
        ));
        // Columnar path.
        let sel = filter_rows(&a, &pred).unwrap();
        let kept = materialize_selection(&a, &sel);
        assert!(
            kept.shares_tuples_with(&a),
            "an all-pass filter must not materialize a copy"
        );
        // And through a full plan: the scan output of an all-pass pushdown
        // shares storage with the base extent.
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![QueryInput {
                binding: "A".into(),
                relation: a.clone(),
                stats: None,
            }],
            clauses: vec![pred.clauses()[0].clone()],
            projection: vec![ColumnRef::parse("A.K")],
            output: vec![ColumnRef::bare("K")],
        };
        let p = plan(spec).unwrap();
        let opts = ExecOptions::default();
        let ctx = Ctx {
            workers: 1,
            opts: &opts,
        };
        let scanned = eval(&p, &p.root, ctx, 0).unwrap();
        assert!(scanned.shares_tuples_with(&a));
    }

    #[test]
    fn join_with_counts_matches_algebra_join() {
        let delta = rel(
            "D",
            &[("K", DataType::Int), ("X", DataType::Int)],
            vec![tup![1, 0], tup![2, 0], tup![9, 0]],
        );
        let next = rel(
            "N",
            &[("K", DataType::Int), ("Y", DataType::Int)],
            vec![tup![1, 5], tup![1, 6], tup![2, 7]],
        );
        let on = vec![PrimitiveClause::eq(
            ColumnRef::parse("D.K"),
            ColumnRef::parse("N.K"),
        )];
        let (joined, counts) = join_with_counts(&delta, &next, &on).unwrap();
        assert_eq!(counts, vec![2, 1, 0]);
        let reference = algebra::join(&delta, &next, &Predicate::new(on)).unwrap();
        assert_eq!(joined.tuples(), reference.tuples());
    }

    #[test]
    fn join_with_counts_keyless_scans_everything() {
        let delta = rel("D", &[("X", DataType::Int)], vec![tup![1], tup![2]]);
        let next = rel(
            "N",
            &[("Y", DataType::Int)],
            vec![tup![1], tup![2], tup![3]],
        );
        let on = vec![PrimitiveClause::cols(
            ColumnRef::parse("D.X"),
            CompOp::Lt,
            ColumnRef::parse("N.Y"),
        )];
        let (joined, counts) = join_with_counts(&delta, &next, &on).unwrap();
        assert_eq!(counts, vec![3, 3], "keyless probe scans the relation");
        assert_eq!(joined.cardinality(), 3); // (1,2),(1,3),(2,3)
    }

    /// A join big enough that the planner would accept parallelism on its
    /// own, with text keys so the interned scalar-key path is exercised.
    fn wide_spec() -> QuerySpec {
        let f = rel(
            "F",
            &[("T", DataType::Text), ("X", DataType::Int)],
            (0..3000)
                .map(|i| tup![format!("t{}", i % 100), i])
                .collect(),
        );
        let d = rel(
            "D",
            &[("T", DataType::Text), ("Y", DataType::Int)],
            (0..100).map(|i| tup![format!("t{i}"), i * 10]).collect(),
        );
        QuerySpec {
            name: "W".into(),
            inputs: vec![
                QueryInput {
                    binding: "F".into(),
                    relation: f,
                    stats: None,
                },
                QueryInput {
                    binding: "D".into(),
                    relation: d,
                    stats: None,
                },
            ],
            clauses: vec![
                PrimitiveClause::eq(ColumnRef::parse("F.T"), ColumnRef::parse("D.T")),
                PrimitiveClause::lit(ColumnRef::parse("F.X"), CompOp::Lt, Value::Int(2500)),
            ],
            projection: vec![ColumnRef::parse("F.X"), ColumnRef::parse("D.Y")],
            output: vec![ColumnRef::bare("X"), ColumnRef::bare("Y")],
        }
    }

    #[test]
    fn parallel_execution_is_byte_identical_across_knobs() {
        let spec = wide_spec();
        let reference = naive(&spec);
        let p = plan(spec).unwrap();
        let serial = run(&p);
        assert_eq!(sorted_tuples(&serial), sorted_tuples(&reference));
        for parallelism in [2, 4, 8] {
            for morsel_rows in [1, 7, 64, 4096] {
                let opts = ExecOptions {
                    parallelism,
                    morsel_rows,
                    force_parallel: true,
                };
                let out = execute(&p, &opts).unwrap();
                assert_eq!(
                    out.tuples(),
                    serial.tuples(),
                    "parallelism={parallelism} morsel_rows={morsel_rows}"
                );
                assert_eq!(out, serial);
            }
        }
    }

    #[test]
    fn planner_declines_parallelism_for_tiny_inputs() {
        let p = plan(chain_spec()).unwrap();
        assert_eq!(p.estimate().effective_parallelism(8), 1);
        let before = morsel::stats().serial_fallbacks;
        let out = execute(&p, &ExecOptions::with_parallelism(8)).unwrap();
        assert!(morsel::stats().serial_fallbacks > before);
        assert_eq!(out, run(&p));
    }

    #[test]
    fn parallel_execution_moves_the_morsel_counters() {
        let p = plan(wide_spec()).unwrap();
        assert!(
            p.estimate().effective_parallelism(8) > 1,
            "wide spec must be big enough for the planner to accept workers"
        );
        let before = morsel::stats();
        let _ = execute(
            &p,
            &ExecOptions {
                parallelism: 4,
                morsel_rows: 64,
                force_parallel: false,
            },
        )
        .unwrap();
        let after = morsel::stats();
        assert!(after.morsels > before.morsels, "morsels dispatched");
        assert!(after.partitions > before.partitions, "partitions built");
        assert!(after.parallel_ops > before.parallel_ops, "parallel ops");
    }

    #[test]
    fn mismatched_key_types_through_the_planner_return_empty() {
        // `A.K = B.K` with K Int on one side and Text on the other plans
        // to a keyed hash join, but no tuple can ever match: the executor
        // answers the empty relation, serially and morsel-parallel alike.
        let a = rel(
            "A",
            &[("K", DataType::Int), ("P", DataType::Int)],
            vec![tup![1, 10], tup![2, 20]],
        );
        let b = rel(
            "B",
            &[("K", DataType::Text), ("Q", DataType::Int)],
            vec![tup!["1", 100], tup!["2", 200], tup!["a", 300]],
        );
        let spec = QuerySpec {
            name: "V".into(),
            inputs: vec![
                QueryInput {
                    binding: "A".into(),
                    relation: a,
                    stats: None,
                },
                QueryInput {
                    binding: "B".into(),
                    relation: b,
                    stats: None,
                },
            ],
            clauses: vec![PrimitiveClause::eq(
                ColumnRef::parse("A.K"),
                ColumnRef::parse("B.K"),
            )],
            projection: vec![ColumnRef::parse("A.P"), ColumnRef::parse("B.Q")],
            output: vec![ColumnRef::bare("P"), ColumnRef::bare("Q")],
        };
        let p = plan(spec).unwrap();
        let PlanNode::HashJoin {
            probe_keys, schema, ..
        } = &p.root
        else {
            panic!("expected a hash join, got {:?}", p.root);
        };
        assert!(!probe_keys.is_empty(), "the equality is a join key");
        let serial = ExecOptions::serial();
        let forced = ExecOptions {
            parallelism: 4,
            morsel_rows: 1,
            force_parallel: true,
        };
        for opts in [&serial, &forced] {
            let joined = eval(
                &p,
                &p.root,
                Ctx {
                    workers: opts.parallelism,
                    opts,
                },
                0,
            )
            .unwrap();
            assert!(joined.is_empty());
            assert_eq!(joined.schema(), schema, "the join's schema");
            let out = execute(&p, opts).unwrap();
            assert!(out.is_empty());
            assert_eq!(out.schema(), p.output_schema());
        }
    }

    #[test]
    fn mismatched_key_types_fall_back_to_row_join() {
        // `D.K = N.K` with K Int on one side and Text on the other: legal
        // to plan (no type check on key extraction), but no tuple can ever
        // match. The scalar-key path must not report false matches.
        let delta = rel("D", &[("K", DataType::Int)], vec![tup![1], tup![2]]);
        let next = rel("N", &[("K", DataType::Text)], vec![tup!["1"], tup!["a"]]);
        let on = vec![PrimitiveClause::eq(
            ColumnRef::parse("D.K"),
            ColumnRef::parse("N.K"),
        )];
        let (joined, counts) = join_with_counts(&delta, &next, &on).unwrap();
        assert!(joined.is_empty());
        assert_eq!(counts, vec![0, 0]);
    }
}
