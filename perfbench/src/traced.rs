//! The traced run: the per-layer numbers.
//!
//! It runs round 0 of a workload twice through the server — once untraced,
//! once with `eve_trace` spans on and every request wrapped in a
//! benchmark-owned `bench.request` span — and then replays the same op
//! stream in-process, timing each layer's public functions against
//! private engines. Counters are before/after deltas of the server's
//! merged `Client::metrics()` image around the measured phase. The spans
//! of the traced round and the replay are dumped as chrome-trace JSON, and
//! their self times (span time minus child-span cover) form the per-layer
//! table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use eve_misd::SchemaChange;
use eve_system::{EveEngine, Shell};
use eve_trace::{MetricsSnapshot, TraceEvent};

use crate::clique;
use crate::harness;
use crate::report::{Metric, Outcome};
use crate::star;
use crate::stats::{mean, median, ratio};
use crate::workload::{self, probe_change, Inputs, Round, Workload, EVOLVE_CYCLES};

/// Span ring size: a traced round plus its replay, without wraparound.
const RING_EVENTS: usize = 1 << 20;
/// Repetitions of the sub-millisecond per-view calls.
const REPEAT: usize = 50;

/// What the in-process replay measured.
#[derive(Default)]
struct Replay {
    shell_us: Vec<f64>,
    engine_us: Vec<f64>,
    updates: u64,
    ios: u64,
    messages: u64,
    bytes: u64,
    sync_us: Vec<f64>,
    rank_us: Vec<f64>,
    rewritings: Vec<f64>,
    evaluate_us: Vec<f64>,
    render_us: Vec<f64>,
    parse_us: Vec<f64>,
}

fn timed<T>(span: &'static str, samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let _span = eve_trace::span(span);
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64() * 1e6);
    out
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("replay {what}: {e}")
}

/// Replays round 0's op stream on a private durable shell (timing
/// `Shell::execute`) and a private plain engine (timing the engine call
/// alone), then times the per-view calls on the final state.
fn replay(workload: Workload, inputs: &Inputs, dir: &Path) -> Result<Replay, String> {
    let mut r = Replay::default();
    std::fs::remove_dir_all(dir).ok();
    let mut durable = Shell::new();
    durable
        .execute(&format!("open {}", dir.display()))
        .map_err(err("open"))?;
    let mut plain = Shell::new();
    for op in inputs.setup() {
        op.run_on(&mut durable).map_err(err("set-up"))?;
        op.run_on(&mut plain).map_err(err("set-up"))?;
    }
    match inputs {
        Inputs::Star { seed, .. } => {
            for u in &workload::round_stream(workload, *seed, 0) {
                let line = u.statement();
                timed("bench.shell.execute", &mut r.shell_us, || {
                    durable.execute(&line)
                })
                .map_err(err("update"))?;
                let update = u.data_update();
                let traces = timed("bench.engine.update", &mut r.engine_us, || {
                    plain.engine_mut().notify_data_update(&update)
                })
                .map_err(err("update"))?;
                r.updates += 1;
                for (_, t) in traces {
                    r.ios += t.ios;
                    r.messages += t.messages;
                    r.bytes += t.bytes;
                }
            }
            // No change arrives on this space; time the synchronizer on a
            // dry-run deletion of each base relation (never applied).
            for change in star::dry_run_changes() {
                absorb_probe(&mut r, plain.engine(), &change)?;
            }
        }
        Inputs::Clique { data, .. } => {
            for c in 0..EVOLVE_CYCLES {
                let host = clique::HOSTS[c % 2];
                let change = SchemaChange::DeleteRelation {
                    relation: host.to_owned(),
                };
                absorb_probe(&mut r, plain.engine(), &change)?;
                let ops = data.cycle(host);
                let crate::ops::Op::Stmt(line) = &ops[0] else {
                    unreachable!("a cycle starts with the change statement");
                };
                timed("bench.shell.execute", &mut r.shell_us, || {
                    durable.execute(line)
                })
                .map_err(err("change"))?;
                timed("bench.engine.update", &mut r.engine_us, || {
                    plain.engine_mut().notify_capability_change(&change, None)
                })
                .map_err(err("change"))?;
                for op in &ops[1..] {
                    op.run_on(&mut durable).map_err(err("re-register"))?;
                    op.run_on(&mut plain).map_err(err("re-register"))?;
                }
            }
        }
    }
    let engine = plain.engine();
    for _ in 0..REPEAT {
        for mv in engine.views() {
            let rel = timed("bench.engine.evaluate", &mut r.evaluate_us, || {
                engine.evaluate(&mv.def)
            })
            .map_err(err("evaluate"))?;
            std::hint::black_box(rel);
            let text = timed("bench.query.render", &mut r.render_us, || {
                mv.extent.distinct().to_string()
            });
            std::hint::black_box(text);
        }
        for stmt in inputs.view_statements() {
            let sql = stmt.trim_start_matches("view ");
            let def = timed("bench.esql.parse", &mut r.parse_us, || {
                eve_esql::parse_view(sql)
            })
            .map_err(err("parse"))?;
            std::hint::black_box(def);
        }
    }
    drop(durable);
    std::fs::remove_dir_all(dir).ok();
    Ok(r)
}

fn absorb_probe(r: &mut Replay, engine: &EveEngine, change: &SchemaChange) -> Result<(), String> {
    let probe = probe_change(engine, change)?;
    r.sync_us.extend(probe.sync_us);
    r.rank_us.extend(probe.rank_us);
    r.rewritings
        .extend(probe.rewritings.iter().map(|&n| n as f64));
    Ok(())
}

/// Per span name: events, total duration, total self time (µs).
fn self_times(events: &[TraceEvent]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_cover: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in events.iter().filter(|e| !e.mark && e.parent != 0) {
        *child_cover.entry(ev.parent).or_insert(0) += ev.dur_us;
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for ev in events.iter().filter(|e| !e.mark) {
        let cover = child_cover.get(&ev.id).copied().unwrap_or(0);
        let slot = out.entry(ev.name).or_insert((0, 0, 0));
        slot.0 += 1;
        slot.1 += ev.dur_us;
        slot.2 += ev.dur_us.saturating_sub(cover);
    }
    out
}

struct Delta<'a> {
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
        get(self.after).saturating_sub(get(self.before)) as f64
    }

    fn counters(&self, pred: impl Fn(&str) -> bool) -> f64 {
        let sum = |s: &MetricsSnapshot| -> u64 {
            s.counters
                .iter()
                .filter(|(k, _)| pred(k))
                .map(|(_, v)| *v)
                .sum()
        };
        sum(self.after).saturating_sub(sum(self.before)) as f64
    }

    /// Mean of the samples a histogram gained.
    fn hist_mean(&self, name: &str) -> (f64, usize) {
        let get = |s: &MetricsSnapshot| {
            s.histograms
                .get(name)
                .map_or((0, 0), |h| (h.count(), h.sum))
        };
        let (c0, s0) = get(self.before);
        let (c1, s1) = get(self.after);
        let n = c1.saturating_sub(c0);
        (ratio(s1.saturating_sub(s0) as f64, n as f64), n as usize)
    }
}

pub fn run(workload: Workload, seed: u64) -> Outcome {
    let inputs = Inputs::generate(workload, seed);
    let root = harness::data_root(workload, seed, true);
    let mut errors = Vec::new();
    let expected = match workload::oracle(workload, &inputs) {
        Ok(e) => e,
        Err(e) => return failed(workload, seed, vec![e]),
    };
    let untraced = workload::run_round(
        workload,
        &inputs,
        &expected,
        0,
        &root.join("untraced"),
        false,
        false,
    );
    eve_trace::set_capacity(RING_EVENTS);
    eve_trace::set_enabled(true);
    let global_before = eve_trace::global().snapshot();
    let traced = workload::run_round(
        workload,
        &inputs,
        &expected,
        0,
        &root.join("traced"),
        true,
        true,
    );
    let global_after = eve_trace::global().snapshot();
    let replayed = replay(workload, &inputs, &root.join("replay"));
    eve_trace::set_enabled(false);
    std::fs::remove_dir_all(&root).ok();
    let events = eve_trace::snapshot_events();
    let dump = Path::new(".bench_out").join(format!("trace-{}-seed{seed}.json", workload.name()));
    if let Err(e) = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&dump, eve_trace::chrome_json()))
    {
        errors.push(format!("chrome trace dump {}: {e}", dump.display()));
    }
    if eve_trace::span::dropped_events() > 0 {
        errors.push(format!(
            "span ring dropped {} events",
            eve_trace::span::dropped_events()
        ));
    }
    let (untraced, traced, replayed) = match (untraced, traced, replayed) {
        (Ok(u), Ok(t), Ok(r)) => (u, t, r),
        (u, t, r) => {
            errors.extend([u.err(), t.err(), r.err()].into_iter().flatten());
            return failed(workload, seed, errors);
        }
    };
    let mut attempted = 0;
    let mut failed_ops = 0;
    for r in [&untraced, &traced] {
        attempted += r.tally.attempted;
        failed_ops += r.tally.failed;
        errors.extend(r.check_failures.iter().cloned());
        errors.extend(r.tally.errors.iter().cloned());
    }
    let (before, after) = traced.metrics.clone().unwrap_or_default();
    let (metrics, extra, table) = per_layer(
        &untraced,
        &traced,
        &replayed,
        &Delta {
            before: &before,
            after: &after,
        },
        &Delta {
            before: &global_before,
            after: &global_after,
        },
        &events,
    );
    Outcome {
        workload,
        seed,
        traced: true,
        correct: errors.is_empty(),
        attempted: attempted.max(1),
        failed: failed_ops,
        metrics,
        extra,
        errors,
        table: format!("{table}  chrome trace: {}\n", dump.display()),
    }
}

fn failed(workload: Workload, seed: u64, errors: Vec<String>) -> Outcome {
    Outcome {
        workload,
        seed,
        traced: true,
        correct: false,
        attempted: 1,
        failed: 0,
        metrics: Vec::new(),
        extra: Vec::new(),
        errors,
        table: String::new(),
    }
}

fn throughput(r: &Round) -> f64 {
    ratio(r.completed as f64, r.measured_s)
}

#[allow(clippy::too_many_lines)]
fn per_layer(
    untraced: &Round,
    traced: &Round,
    replay: &Replay,
    server: &Delta<'_>,
    global: &Delta<'_>,
    events: &[TraceEvent],
) -> (Vec<Metric>, Vec<Metric>, String) {
    let p50 = |s: &[f64]| median(s).unwrap_or(0.0);
    let avg = |s: &[f64]| mean(s).unwrap_or(0.0);
    let spans = self_times(events);
    let span_self = |name: &str| -> (f64, usize) {
        spans.get(name).map_or((0.0, 0), |&(n, _, own)| {
            (ratio(own as f64, n as f64), n as usize)
        })
    };
    let shell = p50(&replay.shell_us);
    let engine = p50(&replay.engine_us);
    let idle_query = p50(&traced.idle_query_us);
    let (statement_mean, statements) = server.hist_mean("server.latency_us.statement");
    let (query_mean, queries) = server.hist_mean("server.latency_us.query");
    let (apply_batch_mean, batches) = server.hist_mean("engine.apply_batch_us");
    let (fsync_mean, fsyncs) = server.hist_mean("store.fsync_us");
    let records = server.counter("store.records_appended");
    let changes = traced.write_us.len() as f64;
    let materialized =
        server.counters(|k| k.starts_with("search.") && k.ends_with(".materialized"));
    let is_evolve = traced.views_affected > 0;
    let hit_rate = |hits: &str, misses: &str| {
        let h = server.counter(hits);
        ratio(h, h + server.counter(misses))
    };
    let intern_hits = server.counters(|k| k.starts_with("intern.") && k.ends_with(".hits"));
    let intern_misses = server.counters(|k| k.starts_with("intern.") && k.ends_with(".misses"));
    let updates = replay.updates as f64;
    let span_metric = |name: &'static str, site: &str| {
        let (v, n) = span_self(site);
        Metric::new(name, v, "us", n)
    };
    let n = |s: &[f64]| s.len();
    let metrics = vec![
        Metric::new(
            "server.overhead_us",
            p50(&traced.write_us) - shell,
            "us",
            n(&traced.write_us),
        ),
        Metric::new("server.statement_mean_us", statement_mean, "us", statements),
        Metric::new("server.query_mean_us", query_mean, "us", queries),
        Metric::new(
            "warehouse.query_us",
            idle_query,
            "us",
            n(&traced.idle_query_us),
        ),
        Metric::new(
            "server.read_wait_us",
            p50(&traced.read_us) - idle_query,
            "us",
            n(&traced.read_us),
        ),
        Metric::new("shell.execute_us", shell, "us", n(&replay.shell_us)),
        Metric::new("engine.update_us", engine, "us", n(&replay.engine_us)),
        Metric::new(
            "maintainer.ios_per_update",
            ratio(replay.ios as f64, updates),
            "count",
            replay.updates as usize,
        ),
        Metric::new(
            "maintainer.messages_per_update",
            ratio(replay.messages as f64, updates),
            "count",
            replay.updates as usize,
        ),
        Metric::new(
            "maintainer.bytes_per_update",
            ratio(replay.bytes as f64, updates),
            "bytes",
            replay.updates as usize,
        ),
        Metric::new(
            "engine.evaluate_us",
            avg(&replay.evaluate_us),
            "us",
            n(&replay.evaluate_us),
        ),
        Metric::new(
            "engine.apply_batch_mean_us",
            apply_batch_mean,
            "us",
            batches,
        ),
        Metric::new("store.commit_us", shell - engine, "us", n(&replay.shell_us)),
        Metric::new("store.fsync_mean_us", fsync_mean, "us", fsyncs),
        Metric::new(
            "store.records_per_fsync",
            ratio(records, server.counter("store.fsyncs")),
            "ratio",
            fsyncs,
        ),
        Metric::new(
            "store.bytes_per_record",
            ratio(server.counter("store.log_bytes_appended"), records),
            "bytes",
            records as usize,
        ),
        Metric::new(
            "store.replay_us_per_record",
            ratio(
                p50(&traced.recovery_s) * 1e6,
                traced.replayed_records as f64,
            ),
            "us",
            traced.replayed_records as usize,
        ),
        Metric::new(
            "store.snapshot_bytes",
            global.counter("store.snapshot_bytes_written"),
            "bytes",
            1,
        ),
        Metric::new(
            "sync.synchronize_us",
            avg(&replay.sync_us),
            "us",
            n(&replay.sync_us),
        ),
        Metric::new(
            "sync.candidates_per_change",
            if is_evolve {
                ratio(materialized, changes)
            } else {
                0.0
            },
            "count",
            traced.write_us.len(),
        ),
        Metric::new(
            "sync.pruned_frac",
            ratio(
                server.counters(|k| k.starts_with("search.") && k.ends_with(".pruned")),
                server.counters(|k| k.starts_with("search.") && k.ends_with(".expanded")),
            ),
            "ratio",
            1,
        ),
        Metric::new(
            "sync.rewritings_per_view",
            avg(&replay.rewritings),
            "count",
            n(&replay.rewritings),
        ),
        Metric::new(
            "sync.partner_cache_hit_rate",
            hit_rate("cache.partner_hits", "cache.partner_misses"),
            "ratio",
            1,
        ),
        Metric::new("qc.rank_us", avg(&replay.rank_us), "us", n(&replay.rank_us)),
        Metric::new(
            "mkb.index_hit_rate",
            hit_rate("mkb.index_hits", "mkb.index_misses"),
            "ratio",
            1,
        ),
        Metric::new(
            "query.render_us",
            avg(&replay.render_us),
            "us",
            n(&replay.render_us),
        ),
        Metric::new("exec.morsels", server.counter("exec.morsels"), "count", 1),
        Metric::new(
            "exec.serial_fallbacks",
            server.counter("exec.serial_fallbacks"),
            "count",
            1,
        ),
        Metric::new("index.hits", server.counter("index.hits"), "count", 1),
        Metric::new("index.builds", server.counter("index.builds"), "count", 1),
        Metric::new(
            "intern.hit_rate",
            ratio(intern_hits, intern_hits + intern_misses),
            "ratio",
            1,
        ),
        Metric::new(
            "esql.parse_us",
            avg(&replay.parse_us),
            "us",
            n(&replay.parse_us),
        ),
        span_metric("span.store.group_flush.self_us", "store.group_flush"),
        span_metric("span.store.recovery.self_us", "store.recovery"),
        span_metric("span.search.run.self_us", "search.run"),
        span_metric("span.exec.query.self_us", "exec.query"),
        Metric::new(
            "dd_mean",
            mean(&traced.dd).unwrap_or(0.0),
            "ratio",
            traced.dd.len(),
        ),
        Metric::new(
            "views_survived_frac",
            if traced.views_affected == 0 {
                1.0
            } else {
                ratio(traced.views_survived as f64, traced.views_affected as f64)
            },
            "ratio",
            traced.views_affected as usize,
        ),
        Metric::new(
            "trace.overhead_frac",
            1.0 - ratio(throughput(traced), throughput(untraced)),
            "ratio",
            2,
        ),
    ];
    let extra = vec![
        span_metric("span.engine.data_update.self_us", "engine.data_update"),
        Metric::new("gen.max_lag_us", traced.max_lag_us, "us", 1),
    ];
    (metrics, extra, layer_table(&spans))
}

/// Self time per span site, with each site's share of the traced
/// requests' latency (sum of `bench.request` durations).
fn layer_table(spans: &BTreeMap<&'static str, (u64, u64, u64)>) -> String {
    let request_total = spans.get("bench.request").map_or(0, |s| s.1) as f64;
    let mut rows: Vec<_> = spans.iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .2));
    let mut out = String::from("  span site                          events    mean us  self mean us  self share of requests\n");
    for (name, &(n, total, own)) in rows {
        let _ = writeln!(
            out,
            "  {name:<32} {n:>8} {:>10.1} {:>13.1} {:>10.1}%",
            ratio(total as f64, n as f64),
            ratio(own as f64, n as f64),
            100.0 * ratio(own as f64, request_total)
        );
    }
    out
}
