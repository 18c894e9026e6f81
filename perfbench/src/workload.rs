//! The three workloads, one server round at a time, with their output
//! checks against serial oracles.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

use eve_server::{Client, RequestBody};
use eve_system::Shell;
use eve_trace::MetricsSnapshot;

use crate::clique::{self, Clique};
use crate::harness::{self, send, Closed, Live, Tally};
use crate::ops::Op;
use crate::rng::Rng;
use crate::star;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Mixed,
    Evolve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::Mixed, Workload::Evolve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Mixed => "mixed",
            Workload::Evolve => "evolve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Insert/delete pairs per `ingest` round (one writer).
pub const INGEST_PAIRS: usize = 252;
/// `mixed` per round: 198 updates at a mean 50/s beside 2000 reads at a
/// mean 500/s, both Poisson arrivals over about the same four seconds.
/// Together they keep the host below one busy vCPU; a closed-loop reader
/// saturates both vCPUs, so every figure tracks the host's CPU steal
/// instead of the program.
pub const MIXED_WRITES: usize = 198;
pub const MIXED_WRITE_RATE: f64 = 50.0;
pub const MIXED_READS: usize = 2000;
pub const MIXED_READ_RATE: f64 = 500.0;
/// Delete/re-register cycles per `evolve` round.
pub const EVOLVE_CYCLES: usize = 250;
/// View reads after the measured phase of `ingest` and `evolve`.
pub const READ_BACK: usize = 400;
/// Requests per write unit on the star space: one insert/delete pair on
/// each of `R`, `S` and `T`, the cycle every writer stream repeats.
/// Deletes cost about twice what inserts do, so single-request latencies
/// are bimodal with half their mass in each mode, and their median sits in
/// the gap between the modes, where it moved 20% between runs of the same
/// code. A unit's mean latency has one mode.
pub const WRITE_UNIT: usize = 6;

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub measured_s: f64,
    /// Requests completed in the measured phase.
    pub completed: u64,
    /// Per-request write latencies.
    pub write_us: Vec<f64>,
    /// One sample per write unit: the mean latency of a [`WRITE_UNIT`]
    /// on `ingest` and `mixed`, one `change` on `evolve`.
    pub write_unit_us: Vec<f64>,
    pub read_us: Vec<f64>,
    /// How late a paced `mixed` generator sent its worst request.
    pub max_lag_us: f64,
    pub tally: Tally,
    pub payload_bytes: u64,
    pub disk_bytes: u64,
    /// The process's peak resident set when the round ended, MiB.
    pub peak_rss_mib: f64,
    /// Recovery times of the round's reopens (empty when not timed).
    pub recovery_s: Vec<f64>,
    pub replayed_records: u64,
    /// DD of every adopted rewriting, and affected/surviving view counts.
    pub dd: Vec<f64>,
    pub views_affected: u64,
    pub views_survived: u64,
    /// Server metrics just before and just after the measured phase
    /// (traced rounds only).
    pub metrics: Option<(MetricsSnapshot, MetricsSnapshot)>,
    /// `Tenant::query` on the idle tenant, per call (traced rounds only).
    pub idle_query_us: Vec<f64>,
    /// The reply to each `evolve` change, in order.
    pub evolve_changes: Vec<String>,
    /// Distinct (view, extent text) replies of the read-back phase.
    pub read_texts: BTreeSet<(String, String)>,
    /// Output check failures.
    pub check_failures: Vec<String>,
}

impl Round {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// The generated inputs of one workload for one seed.
pub enum Inputs {
    Star { seed: u64, setup: Vec<Op> },
    Clique { data: Clique, setup: Vec<Op> },
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::Ingest | Workload::Mixed => Inputs::Star {
                seed,
                setup: star::setup(seed),
            },
            Workload::Evolve => {
                let data = Clique::generate(seed);
                let setup = data.setup();
                Inputs::Clique { data, setup }
            }
        }
    }

    pub fn setup(&self) -> &[Op] {
        match self {
            Inputs::Star { setup, .. } | Inputs::Clique { setup, .. } => setup,
        }
    }

    /// The view definitions as sent.
    pub fn view_statements(&self) -> Vec<String> {
        match self {
            Inputs::Star { .. } => star::view_statements(),
            Inputs::Clique { .. } => clique::views(clique::HOSTS[0]),
        }
    }

    pub fn view_names(&self) -> Vec<String> {
        match self {
            Inputs::Star { .. } => vec![star::VIEW.to_owned()],
            Inputs::Clique { .. } => clique::view_names(),
        }
    }
}

/// What every round's outputs must equal, computed once per run by the
/// serial oracles (round 0's op stream; every round starts from the same
/// state and sends the same kind of stream, so every round must end
/// alike).
pub enum Expected {
    /// Sorted rows of `R`, `S`, `T` and `V`, and `V`'s extent text.
    Star {
        state: Vec<Vec<eve_relational::Tuple>>,
        view_text: String,
    },
    /// Each cycle's change reply, the final engine fingerprint and each
    /// view's final extent text.
    Clique {
        changes: Vec<String>,
        fingerprint: Vec<u8>,
        view_texts: BTreeMap<String, String>,
    },
}

/// Runs round `round` of `workload` in `root`. Recovery is timed (and the
/// recovered engine checked) only when `recover` is set.
pub fn run_round(
    workload: Workload,
    inputs: &Inputs,
    expected: &Expected,
    round: u64,
    root: &Path,
    traced: bool,
    recover: bool,
) -> Result<Round, String> {
    let clients = match workload {
        Workload::Mixed => 2,
        Workload::Ingest | Workload::Evolve => 1,
    };
    let mut out = Round::default();
    let (live, mut conns) = harness::start(root, inputs.setup(), clients, &mut out.tally)?;
    out.setup_s = live.setup_s;
    out.payload_bytes = live.payload_bytes;
    if traced {
        out.metrics = Some((metrics(&mut conns[0])?, MetricsSnapshot::default()));
    }
    match (workload, inputs) {
        (Workload::Ingest, Inputs::Star { seed, .. }) => {
            let stream = round_stream(workload, *seed, round);
            ingest(&mut out, &mut conns[0], &stream);
        }
        (Workload::Mixed, Inputs::Star { seed, .. }) => {
            let stream = round_stream(workload, *seed, round);
            mixed(&mut out, &mut conns, *seed, round, &stream);
        }
        (Workload::Evolve, Inputs::Clique { data, .. }) => evolve(&mut out, &mut conns[0], data),
        _ => unreachable!("inputs are generated for their workload"),
    }
    let view_names = inputs.view_names();
    if workload != Workload::Mixed {
        read_back(&mut out, &mut conns[0], &view_names);
    }
    if let Some((_, after)) = out.metrics.as_mut() {
        *after = metrics(&mut conns[0])?;
    }
    check_round(&mut out, &live, expected);
    if traced {
        let tenant = live.tenant();
        for _ in 0..READ_BACK / view_names.len() {
            for v in &view_names {
                let t = Instant::now();
                let text = tenant.query(v);
                out.idle_query_us.push(t.elapsed().as_secs_f64() * 1e6);
                out.check(text.is_ok(), || format!("idle query of {v} failed"));
            }
        }
    }
    let Closed {
        disk_bytes,
        recovery_s,
        replayed_records,
    } = live.finish(conns, recover)?;
    out.disk_bytes = disk_bytes;
    out.recovery_s = recovery_s;
    out.replayed_records = replayed_records;
    out.peak_rss_mib = crate::report::peak_rss_mib();
    Ok(out)
}

fn metrics(client: &mut Client) -> Result<MetricsSnapshot, String> {
    client
        .metrics()
        .map_err(|e| format!("metrics request: {e}"))
}

/// One writer, closed loop, sending its insert/delete pairs.
fn ingest(out: &mut Round, client: &mut Client, stream: &[star::Update]) {
    let start = Instant::now();
    let lat: Vec<f64> = stream
        .iter()
        .map(|u| send(client, u.op().body(), &mut out.tally).0)
        .collect();
    out.measured_s = start.elapsed().as_secs_f64();
    out.completed = lat.len() as u64;
    out.write_unit_us = unit_means(&lat);
    out.write_us = lat;
}

/// Sends each body at its due time (open loop, seconds from the start),
/// timing each request from its due time. Returns the latencies, how late
/// the generator sent its worst request (µs) and the accounting.
fn paced(client: &mut Client, bodies: Vec<RequestBody>, due_s: &[f64]) -> (Vec<f64>, f64, Tally) {
    let mut tally = Tally::default();
    let mut lat = Vec::with_capacity(bodies.len());
    let mut max_lag: f64 = 0.0;
    let begin = Instant::now();
    for (body, &at) in bodies.into_iter().zip(due_s) {
        let due = begin + Duration::from_secs_f64(at);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        max_lag = max_lag.max(due.elapsed().as_secs_f64() * 1e6);
        let _ = send(client, body, &mut tally);
        lat.push(due.elapsed().as_secs_f64() * 1e6);
    }
    (lat, max_lag, tally)
}

/// One writer and one reader on the same tenant, each sending Poisson
/// arrivals at its own fixed mean rate over the same span of time. Random
/// gaps keep the two streams from phase-locking, which fixed intervals
/// (one a multiple of the other) did: each run's write median then
/// depended on the start-up offset between the two threads.
fn mixed(out: &mut Round, conns: &mut [Client], seed: u64, round: u64, stream: &[star::Update]) {
    let (writer, reader) = conns.split_at_mut(1);
    let writes: Vec<RequestBody> = stream.iter().map(|u| u.op().body()).collect();
    let reads: Vec<RequestBody> = (0..MIXED_READS)
        .map(|_| RequestBody::Query {
            view: star::VIEW.into(),
        })
        .collect();
    let mut rng = Rng::new(seed ^ (round << 20) ^ 0xa771);
    let write_due = rng.arrivals(writes.len(), MIXED_WRITE_RATE);
    let read_due = rng.arrivals(reads.len(), MIXED_READ_RATE);
    let start = Instant::now();
    let (w, r) = std::thread::scope(|s| {
        let w = s.spawn(|| paced(&mut writer[0], writes, &write_due));
        let r = s.spawn(|| paced(&mut reader[0], reads, &read_due));
        (
            w.join().expect("writer thread panicked"),
            r.join().expect("reader thread panicked"),
        )
    });
    out.measured_s = start.elapsed().as_secs_f64();
    out.completed = (w.0.len() + r.0.len()) as u64;
    out.write_unit_us = unit_means(&w.0);
    out.write_us = w.0;
    out.read_us = r.0;
    out.max_lag_us = w.1.max(r.1);
    out.tally.absorb(w.2);
    out.tally.absorb(r.2);
}

/// The mean latency of each whole [`WRITE_UNIT`] of one writer's
/// latencies, in stream order.
fn unit_means(lat: &[f64]) -> Vec<f64> {
    lat.chunks_exact(WRITE_UNIT)
        .map(|unit| unit.iter().sum::<f64>() / WRITE_UNIT as f64)
        .collect()
}

/// One connection, closed loop: delete the views' host, then re-register
/// it with its extent and constraints. Only the change is a write sample.
fn evolve(out: &mut Round, client: &mut Client, data: &Clique) {
    let cycles = clique::HOSTS.map(|host| data.cycle(host));
    let start = Instant::now();
    let mut changes = Vec::with_capacity(EVOLVE_CYCLES);
    for c in 0..EVOLVE_CYCLES {
        for (i, op) in cycles[c % 2].iter().enumerate() {
            let (us, reply) = send(client, op.body(), &mut out.tally);
            out.completed += 1;
            if i == 0 {
                out.write_us.push(us);
                out.write_unit_us.push(us);
                changes.push(reply.unwrap_or_default());
            }
        }
    }
    out.measured_s = start.elapsed().as_secs_f64();
    for text in &changes {
        for line in text.lines().skip(1) {
            out.views_affected += 1;
            if let Some(dd) = line
                .split_once("DD ")
                .and_then(|(_, rest)| rest.split_once(')'))
                .and_then(|(dd, _)| dd.parse::<f64>().ok())
            {
                out.views_survived += 1;
                out.dd.push(dd);
            }
        }
    }
    out.evolve_changes = changes;
}

/// Reads each view `READ_BACK / views` times on the now quiescent tenant.
fn read_back(out: &mut Round, client: &mut Client, views: &[String]) {
    for _ in 0..READ_BACK / views.len() {
        for v in views {
            let (us, reply) = send(
                client,
                RequestBody::Query { view: v.clone() },
                &mut out.tally,
            );
            out.read_us.push(us);
            if let Ok(text) = reply {
                out.read_texts.insert((v.clone(), text));
            }
        }
    }
}

fn sorted_rows(rel: &eve_relational::Relation) -> Vec<eve_relational::Tuple> {
    let mut rows = rel.tuples().to_vec();
    rows.sort();
    rows
}

/// Every base relation's rows and the view's rows, sorted.
fn star_state(shell: &Shell) -> Result<Vec<Vec<eve_relational::Tuple>>, String> {
    let engine = shell.engine();
    let mut state = Vec::new();
    for probe in star::base_probes() {
        let def = eve_esql::parse_view(&probe).map_err(|e| format!("probe parse: {e}"))?;
        let rel = engine
            .evaluate(&def)
            .map_err(|e| format!("probe evaluate: {e}"))?;
        state.push(sorted_rows(&rel));
    }
    let view = engine.view(star::VIEW).map_err(|e| e.to_string())?;
    state.push(sorted_rows(&view.extent));
    Ok(state)
}

fn view_text(shell: &Shell, view: &str) -> Result<String, String> {
    Ok(shell
        .engine()
        .view(view)
        .map_err(|e| e.to_string())?
        .extent
        .distinct()
        .to_string())
}

/// Runs the serial oracle of `workload` on a private plain shell.
///
/// `ingest`/`mixed`: round 0's updates, one after another; the result must
/// equal the starting state (every insert is deleted again). `evolve`:
/// round 0's cycles, where before each change the QC-best rewriting of
/// every view is computed from outside the engine on its MKB
/// ([`probe_change`]); every cycle must weigh the same number of
/// candidates.
pub fn oracle(workload: Workload, inputs: &Inputs) -> Result<Expected, String> {
    let mut shell = Shell::new();
    for op in inputs.setup() {
        op.run_on(&mut shell)
            .map_err(|e| format!("oracle set-up: {e}"))?;
    }
    match inputs {
        Inputs::Star { seed, .. } => {
            let start = star_state(&shell)?;
            for u in &round_stream(workload, *seed, 0) {
                shell
                    .execute(&u.statement())
                    .map_err(|e| format!("oracle `{}`: {e}", u.statement()))?;
            }
            let state = star_state(&shell)?;
            if state != start {
                return Err("the serial oracle did not return to the starting state".into());
            }
            Ok(Expected::Star {
                state,
                view_text: view_text(&shell, star::VIEW)?,
            })
        }
        Inputs::Clique { data, .. } => {
            let mut changes = Vec::with_capacity(EVOLVE_CYCLES);
            let mut first = None;
            for c in 0..EVOLVE_CYCLES {
                let host = clique::HOSTS[c % 2];
                let change = eve_misd::SchemaChange::DeleteRelation {
                    relation: host.to_owned(),
                };
                let probe = probe_change(shell.engine(), &change)?;
                let first = *first.get_or_insert(probe.candidates);
                if probe.candidates == 0 || probe.candidates != first {
                    return Err(format!(
                        "cycle {c}: {} candidates for {host}, cycle 0 had {first}",
                        probe.candidates
                    ));
                }
                changes.push(probe.text);
                for op in data.cycle(host) {
                    op.run_on(&mut shell)
                        .map_err(|e| format!("oracle cycle {c}: {e}"))?;
                }
            }
            let mut view_texts = BTreeMap::new();
            for mv in shell.engine().views() {
                view_texts.insert(mv.def.name.clone(), mv.extent.distinct().to_string());
            }
            Ok(Expected::Clique {
                changes,
                fingerprint: shell.engine().snapshot_state().to_bytes(),
                view_texts,
            })
        }
    }
}

/// The writer stream of one round.
pub fn round_stream(workload: Workload, seed: u64, round: u64) -> Vec<star::Update> {
    let pairs = match workload {
        Workload::Ingest => INGEST_PAIRS,
        _ => MIXED_WRITES / 2,
    };
    star::writer_stream(seed, round, pairs)
}

/// Compares the served tenant and the read-back replies with the oracle.
/// Runs with spans off, so a traced round's spans are the server's alone.
fn check_round(out: &mut Round, live: &Live, expected: &Expected) {
    let spans = eve_trace::spans_enabled();
    eve_trace::set_enabled(false);
    let tenant = live.tenant();
    let texts = std::mem::take(&mut out.read_texts);
    match expected {
        Expected::Star { state, view_text } => match star_state(&tenant.read()) {
            Ok(actual) => {
                for (i, name) in ["R", "S", "T", star::VIEW].iter().enumerate() {
                    out.check(actual[i] == state[i], || {
                        format!("{name}: served rows differ from the serial oracle")
                    });
                }
                for (view, text) in &texts {
                    out.check(text == view_text, || {
                        format!("read-back of {view} differs from the oracle")
                    });
                }
            }
            Err(e) => out.check_failures.push(e),
        },
        Expected::Clique {
            changes,
            fingerprint,
            view_texts,
        } => {
            let served = std::mem::take(&mut out.evolve_changes);
            out.check(served.len() == changes.len(), || {
                "a change went unanswered".to_owned()
            });
            for (c, (served, best)) in served.iter().zip(changes).enumerate() {
                out.check(served == best, || {
                    format!("cycle {c}: served `{served}`, QC-best is `{best}`")
                });
            }
            out.check(tenant.fingerprint() == *fingerprint, || {
                "the served tenant differs from the serial replay".to_owned()
            });
            for (view, text) in &texts {
                out.check(view_texts.get(view) == Some(text), || {
                    format!("read-back of {view} differs from the oracle")
                });
            }
        }
    }
    eve_trace::set_enabled(spans);
}

/// What the QC-best adoption of `change` is, computed outside the engine
/// from its MKB: `eve_sync::synchronize` then `eve_qc::rank_rewritings`
/// and the engine's selection strategy, per view. Also times both.
pub struct SyncProbe {
    /// The reply text the shell gives for this change.
    pub text: String,
    pub candidates: usize,
    pub sync_us: Vec<f64>,
    pub rank_us: Vec<f64>,
    pub rewritings: Vec<usize>,
}

pub fn probe_change(
    engine: &eve_system::EveEngine,
    change: &eve_misd::SchemaChange,
) -> Result<SyncProbe, String> {
    let mut probe = SyncProbe {
        text: format!("applied {change}"),
        candidates: 0,
        sync_us: Vec::new(),
        rank_us: Vec::new(),
        rewritings: Vec::new(),
    };
    for mv in engine.views() {
        let span = eve_trace::span("bench.sync.synchronize");
        let t = Instant::now();
        let outcome = eve_sync::synchronize(&mv.def, change, engine.mkb(), &engine.sync_options)
            .map_err(|e| format!("synchronize {}: {e}", mv.def.name))?;
        probe.sync_us.push(t.elapsed().as_secs_f64() * 1e6);
        drop(span);
        if !outcome.affected {
            continue;
        }
        probe.rewritings.push(outcome.rewritings.len());
        let span = eve_trace::span("bench.qc.rank");
        let t = Instant::now();
        let scored = eve_qc::rank_rewritings(
            &mv.def,
            &outcome.rewritings,
            engine.mkb(),
            &engine.qc_params,
            engine.workload,
        )
        .map_err(|e| format!("rank {}: {e}", mv.def.name))?;
        probe.rank_us.push(t.elapsed().as_secs_f64() * 1e6);
        drop(span);
        probe.candidates += scored.len();
        match engine.strategy.select(&scored) {
            Some(best) => probe.text.push_str(&format!(
                "\n  {}: adopted rewriting (QC {:.4}, DD {:.4}) — {}",
                mv.def.name, best.qc, best.divergence.dd, best.rewriting.provenance
            )),
            None => probe.text.push_str(&format!(
                "\n  {}: no legal rewriting — dropped",
                mv.def.name
            )),
        }
    }
    Ok(probe)
}
