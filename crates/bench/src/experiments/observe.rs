//! Tracing overhead and determinism experiment (`repro observe`;
//! extension, ROADMAP observability direction).
//!
//! Three questions about the `eve-trace` layer, answered on the wide-join
//! workload from [`super::view_exec`]:
//!
//! 1. **Disabled-path overhead** — with tracing off (the production
//!    default) every instrumentation site costs one relaxed atomic load.
//!    The experiment measures that per-site cost with a micro loop,
//!    counts how many sites one run actually crosses (by running once
//!    with tracing on and counting captured spans), and projects the
//!    total disabled-path share of the untraced wall-clock. The gate
//!    requires ≤ 5%.
//! 2. **Byte identity** — a traced run's view extent must render byte-
//!    identically to an untraced run's: observability must never change
//!    an answer.
//! 3. **Snapshot determinism** — two identical untraced runs must move
//!    the deterministic `exec.*` counters by identical deltas (steal
//!    counts are scheduling noise and excluded), and the name-ordered
//!    snapshot must render reproducibly.
//!
//! Wall-clock of the traced arm is reported but never gated: enabling
//! spans buys ring-buffer writes whose cost is machine-dependent.

use std::collections::BTreeMap;
use std::time::Instant;

use eve_relational::{ExecOptions, Relation};
use eve_system::query::plan_view;
use eve_trace::MetricsSnapshot;

use super::serve::{self, ServeConfig};
use super::view_exec::{wide_join, Workload};

/// Experiment knobs.
#[derive(Debug, Clone, Copy)]
pub struct ObserveConfig {
    /// Wide-join scale (rows per big relation).
    pub scale: i64,
    /// Repetitions per arm (best-of timing).
    pub reps: usize,
    /// Also run a small serve workload traced and untraced (skipped in
    /// the tier-1 tests, on in `repro observe` — it spins up a real
    /// server + oracle per arm).
    pub with_serve: bool,
}

impl Default for ObserveConfig {
    fn default() -> ObserveConfig {
        ObserveConfig {
            scale: 1500,
            reps: 5,
            with_serve: true,
        }
    }
}

/// The full observe report.
#[derive(Debug, Clone)]
pub struct ObserveReport {
    /// Workload name.
    pub workload: String,
    /// Result rows of the view.
    pub rows: usize,
    /// Untraced arm wall-clock, milliseconds (best of reps).
    pub untraced_ms: f64,
    /// Traced arm wall-clock, milliseconds (best of reps).
    pub traced_ms: f64,
    /// `(traced - untraced) / untraced`, percent (reported, not gated).
    pub enabled_overhead_pct: f64,
    /// Measured cost of one *disabled* instrumentation site, nanoseconds.
    pub disabled_site_ns: f64,
    /// Measured cost of one *enabled* instrumentation site, nanoseconds.
    pub enabled_site_ns: f64,
    /// Spans one traced run records (= instrumentation sites crossed).
    pub spans_per_run: u64,
    /// Projected disabled-path share of the untraced wall-clock, percent:
    /// `spans_per_run × disabled_site_ns / untraced_ms`. Gated ≤ 5%.
    pub projected_disabled_overhead_pct: f64,
    /// Whether the traced extent rendered byte-identically to the
    /// untraced extent.
    pub extents_identical: bool,
    /// Whether two identical runs moved the deterministic `exec.*`
    /// counters by identical deltas.
    pub snapshot_deterministic: bool,
    /// Serve-workload loaded phase with tracing off, milliseconds
    /// (`None` when [`ObserveConfig::with_serve`] is off).
    pub serve_untraced_ms: Option<f64>,
    /// Serve-workload loaded phase with tracing on, milliseconds.
    pub serve_traced_ms: Option<f64>,
}

fn execute(workload: &Workload) -> Result<Relation, String> {
    let plan = plan_view(&workload.view, &workload.extents, &workload.stats)
        .map_err(|e| format!("plan failed: {e}"))?;
    eve_relational::exec::execute(&plan, &ExecOptions::serial())
        .map_err(|e| format!("execute failed: {e}"))
}

/// Per-counter deltas of the deterministic `exec.*` family between two
/// snapshots. `exec.steals` is excluded: steal counts depend on thread
/// scheduling, by design.
fn exec_family_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> BTreeMap<String, u64> {
    after
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("exec.") && name.as_str() != "exec.steals")
        .map(|(name, v)| {
            let base = before.counters.get(name).copied().unwrap_or(0);
            (name.clone(), v.saturating_sub(base))
        })
        .collect()
}

/// Runs both arms, the determinism pin and the site micro-benchmarks.
///
/// Toggles the process-global span collector; callers running inside a
/// parallel test binary must serialize invocations.
///
/// # Errors
///
/// Workload construction or evaluation failures, human-readable.
#[allow(clippy::cast_precision_loss)]
pub fn run(cfg: &ObserveConfig) -> Result<ObserveReport, String> {
    let workload = wide_join(cfg.scale).map_err(|e| format!("workload failed: {e}"))?;
    let reps = cfg.reps.max(1);

    eve_trace::set_enabled(false);
    eve_trace::clear_spans();

    // Untraced arm: tracing disabled, the production default.
    let mut untraced_ms = f64::INFINITY;
    let mut untraced_out = None;
    for _ in 0..reps {
        let started = Instant::now();
        let out = execute(&workload)?;
        untraced_ms = untraced_ms.min(started.elapsed().as_secs_f64() * 1e3);
        untraced_out = Some(out);
    }
    let untraced_out = untraced_out.expect("reps >= 1");

    // Snapshot-determinism pin: the same run twice must move the
    // deterministic exec counters by the same amounts.
    let s0 = eve_trace::global().snapshot();
    execute(&workload)?;
    let s1 = eve_trace::global().snapshot();
    execute(&workload)?;
    let s2 = eve_trace::global().snapshot();
    let snapshot_deterministic = exec_family_delta(&s0, &s1) == exec_family_delta(&s1, &s2);

    // Traced arm: spans on, ring cleared per rep so the final capture
    // holds exactly one run's spans.
    eve_trace::set_enabled(true);
    let mut traced_ms = f64::INFINITY;
    let mut traced_out = None;
    for _ in 0..reps {
        eve_trace::clear_spans();
        let started = Instant::now();
        let out = execute(&workload)?;
        traced_ms = traced_ms.min(started.elapsed().as_secs_f64() * 1e3);
        traced_out = Some(out);
    }
    let spans_per_run = eve_trace::snapshot_events().len() as u64;
    let traced_out = traced_out.expect("reps >= 1");
    eve_trace::set_enabled(false);
    eve_trace::clear_spans();

    // Byte identity: the rendered extents (schema line + every tuple, in
    // the executor's deterministic output order) must match exactly.
    let extents_identical = untraced_out.to_string() == traced_out.to_string()
        && untraced_out.tuples() == traced_out.tuples();

    // Per-site micro cost, disabled then enabled.
    let disabled_iters = 1_000_000u32;
    let started = Instant::now();
    for _ in 0..disabled_iters {
        let _site = eve_trace::span("observe.site");
    }
    let disabled_site_ns = started.elapsed().as_nanos() as f64 / f64::from(disabled_iters);

    eve_trace::set_enabled(true);
    let enabled_iters = 200_000u32;
    let started = Instant::now();
    for _ in 0..enabled_iters {
        let _site = eve_trace::span("observe.site");
    }
    let enabled_site_ns = started.elapsed().as_nanos() as f64 / f64::from(enabled_iters);
    eve_trace::set_enabled(false);
    eve_trace::clear_spans();

    let projected_disabled_overhead_pct = if untraced_ms > 0.0 {
        (spans_per_run as f64 * disabled_site_ns / 1e6) / untraced_ms * 100.0
    } else {
        0.0
    };
    let enabled_overhead_pct = if untraced_ms > 0.0 {
        (traced_ms - untraced_ms) / untraced_ms * 100.0
    } else {
        0.0
    };

    // Serve workload, both arms: a real server + oracle per arm, so the
    // numbers cover request routing, WAL appends and view maintenance
    // under tracing. Reported only — wall-clock of a full serve run is
    // too noisy to gate.
    let serve_cfg = ServeConfig {
        tenants: 2,
        clients_per_tenant: 8,
        writer_rounds: 6,
        reads_per_client: 4,
        shards: 2,
        readers: 2,
        driver_threads: 4,
    };
    let (serve_untraced_ms, serve_traced_ms) = if cfg.with_serve {
        let untraced = serve::run(&serve_cfg)?;
        eve_trace::set_enabled(true);
        let traced = serve::run(&serve_cfg);
        eve_trace::set_enabled(false);
        eve_trace::clear_spans();
        let traced = traced?;
        if traced.errors != 0 || untraced.errors != 0 || !traced.byte_identical {
            return Err(format!(
                "serve arms must stay clean: untraced errors {}, traced errors {}, identical {}",
                untraced.errors, traced.errors, traced.byte_identical
            ));
        }
        (Some(untraced.elapsed_ms), Some(traced.elapsed_ms))
    } else {
        (None, None)
    };

    Ok(ObserveReport {
        workload: workload.name,
        rows: traced_out.cardinality(),
        untraced_ms,
        traced_ms,
        enabled_overhead_pct,
        disabled_site_ns,
        enabled_site_ns,
        spans_per_run,
        projected_disabled_overhead_pct,
        extents_identical,
        snapshot_deterministic,
        serve_untraced_ms,
        serve_traced_ms,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// `run` toggles the process-global span collector; these tests
    /// serialize against each other so neither observes the other's
    /// enable/clear calls mid-flight.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn traced_run_extents_byte_identical_to_untraced() {
        let _serialized = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let report = run(&ObserveConfig {
            scale: 300,
            reps: 2,
            with_serve: false,
        })
        .unwrap();
        assert!(report.rows > 0);
        assert!(
            report.extents_identical,
            "tracing changed an answer: {report:?}"
        );
        assert!(
            report.spans_per_run > 0,
            "the traced arm captured no spans — instrumentation is dead"
        );
    }

    #[test]
    fn disabled_path_overhead_within_5_percent() {
        let _serialized = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let report = run(&ObserveConfig {
            scale: 300,
            reps: 2,
            with_serve: false,
        })
        .unwrap();
        assert!(
            report.projected_disabled_overhead_pct <= 5.0,
            "disabled-path projection {}% over the 5% budget \
             ({} spans × {} ns against {} ms)",
            report.projected_disabled_overhead_pct,
            report.spans_per_run,
            report.disabled_site_ns,
            report.untraced_ms,
        );
    }
}
