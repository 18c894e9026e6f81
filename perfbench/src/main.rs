//! The EVE warehouse benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|mixed|evolve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the public `eve_server::Client` against an in-process
//! `Server::start(Warehouse::open(dir), ServerConfig::default())`, checks
//! every output against serial oracles, and prints a report followed by one
//! JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of the traced run with `--trace 1`. See `README.md` for the
//! workloads and the metric → layer → workload map.

mod clique;
mod harness;
mod ops;
mod report;
mod rng;
mod star;
mod stats;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Metric, Outcome};
use stats::{median, quantile, ratio};
use workload::{Inputs, Round, Workload};

/// Extra set-ups (no load) per run, so the set-up median has enough
/// samples.
const EXTRA_SETUPS: usize = 6;

/// Rounds below this count are always run, so medians over rounds
/// (set-up, recovery) have several samples.
const MIN_ROUNDS: usize = 5;
/// Rounds whose recovery is timed: every round's log has the same length,
/// so a few rounds' samples suffice.
const RECOVERY_ROUNDS: usize = 5;
/// No new round starts after this much wall time, keeping a run well
/// inside its time limit on a slow machine.
const MAX_WALL_S: f64 = 120.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Vec<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?]
                });
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workloads = workloads.ok_or("--workload ingest|mixed|evolve|all is required")?;
    // `--workload all` without `--trace` runs every workload both ways.
    let trace = trace.unwrap_or_else(|| {
        if workloads.len() > 1 {
            vec![false, true]
        } else {
            vec![false]
        }
    });
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

/// Rounds until `seconds` of measured phase (and at least `MIN_ROUNDS`),
/// then the end-to-end metrics over all of them.
fn untraced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let inputs = Inputs::generate(workload, seed);
    let expected = match workload::oracle(workload, &inputs) {
        Ok(e) => e,
        Err(e) => return end_to_end(workload, seed, &[], &[], vec![e]),
    };
    let root = harness::data_root(workload, seed, false);
    let wall = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut errors = Vec::new();
    let mut measured = 0.0;
    while rounds.len() < MIN_ROUNDS
        || (measured < seconds && wall.elapsed().as_secs_f64() < MAX_WALL_S)
    {
        let r = rounds.len();
        match workload::run_round(
            workload,
            &inputs,
            &expected,
            r as u64,
            &root.join(format!("r{r}")),
            false,
            r < RECOVERY_ROUNDS,
        ) {
            Ok(round) => {
                measured += round.measured_s;
                rounds.push(round);
            }
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    for i in 0..EXTRA_SETUPS {
        match harness::setup_only(&root.join(format!("s{i}")), inputs.setup()) {
            Ok(s) => setups.push(s),
            Err(e) => errors.push(e),
        }
    }
    std::fs::remove_dir_all(&root).ok();
    end_to_end(workload, seed, &rounds, &setups, errors)
}

fn end_to_end(
    workload: Workload,
    seed: u64,
    rounds: &[Round],
    setups: &[f64],
    mut errors: Vec<String>,
) -> Outcome {
    let pool = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let per_round = |f: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let writes = pool(|r| &r.write_us);
    let write_units = pool(|r| &r.write_unit_us);
    let reads = pool(|r| &r.read_us);
    let dd = pool(|r| &r.dd);
    let attempted: u64 = rounds.iter().map(|r| r.tally.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.tally.failed).sum();
    for r in rounds {
        errors.extend(r.check_failures.iter().cloned());
        errors.extend(r.tally.errors.iter().cloned());
    }
    let affected: u64 = rounds.iter().map(|r| r.views_affected).sum();
    let survived: u64 = rounds.iter().map(|r| r.views_survived).sum();
    let recoveries: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.recovery_s.iter().copied())
        .collect();
    let q = |s: &[f64], p: f64| quantile(s, p).unwrap_or(0.0);
    let m = |s: &[f64]| median(s).unwrap_or(0.0);
    // The gated metrics: the median write unit, set-up and sizes. Recovery,
    // throughput, the tails and the per-workload figures are reported
    // beside them, ungated: on a shared 2-vCPU host their run-to-run spread
    // follows the host's CPU steal past any useful bound.
    let metrics = vec![
        Metric::new("setup_s", m(setups), "s", setups.len()),
        Metric::new(
            "write_p50_us",
            q(&write_units, 0.5),
            "us",
            write_units.len(),
        ),
        Metric::new(
            "disk_bytes_per_user_byte",
            m(&per_round(|r| {
                ratio(r.disk_bytes as f64, r.payload_bytes as f64)
            })),
            "ratio",
            rounds.len(),
        ),
        // The first round's peak: later rounds only add allocator
        // fragmentation from the benchmark's own warehouse churn.
        Metric::new(
            "peak_rss_mb",
            rounds.first().map_or(0.0, |r| r.peak_rss_mib),
            "MiB",
            1,
        ),
    ];
    let mut extra = vec![
        Metric::new("recovery_s", m(&recoveries), "s", recoveries.len()),
        Metric::new(
            "throughput_ops_s",
            m(&per_round(|r| ratio(r.completed as f64, r.measured_s))),
            "ops/s",
            rounds.len(),
        ),
        Metric::new("write_p99_us", q(&writes, 0.99), "us", writes.len()),
        Metric::new("read_p50_us", q(&reads, 0.5), "us", reads.len()),
        Metric::new("read_p99_us", q(&reads, 0.99), "us", reads.len()),
        Metric::new(
            "failed_frac",
            ratio(failed as f64, attempted as f64),
            "ratio",
            attempted as usize,
        ),
        Metric::new(
            "gen.max_lag_us",
            per_round(|r| r.max_lag_us).into_iter().fold(0.0, f64::max),
            "us",
            rounds.len(),
        ),
    ];
    if workload == Workload::Evolve {
        extra.push(Metric::new(
            "evolve_p50_us",
            q(&writes, 0.5),
            "us",
            writes.len(),
        ));
        extra.push(Metric::new(
            "evolve_p95_us",
            q(&writes, 0.95),
            "us",
            writes.len(),
        ));
        extra.push(Metric::new(
            "dd_mean",
            stats::mean(&dd).unwrap_or(0.0),
            "ratio",
            dd.len(),
        ));
        extra.push(Metric::new(
            "views_survived_frac",
            ratio(survived as f64, affected as f64),
            "ratio",
            affected as usize,
        ));
    }
    Outcome {
        workload,
        seed,
        traced: false,
        correct: errors.is_empty() && !rounds.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        extra,
        errors,
        table: String::new(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        for &traced in &args.trace {
            let outcome = if traced {
                traced::run(w, args.seed)
            } else {
                untraced(w, args.seed, args.seconds)
            };
            print!(
                "{}",
                outcome.render(&report::fingerprint(&PathBuf::from(".bench_data")))
            );
            outcomes.push(outcome);
        }
    }
    let ok = outcomes.iter().all(|o| o.correct);
    if outcomes.len() == 1 {
        println!("{}", outcomes[0].json());
    } else {
        println!("{}", report::combined_json(&outcomes));
    }
    std::fs::remove_dir(".bench_data").ok();
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
