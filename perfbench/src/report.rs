//! Results: the human-readable report (every metric with its unit and
//! sample count, plus the machine fingerprint) and the JSON result line.

use std::fmt::Write as _;
use std::path::Path;

use crate::workload::Workload;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// One workload run (untraced or traced).
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the JSON line.
    pub metrics: Vec<Metric>,
    /// Further figures for the report only.
    pub extra: Vec<Metric>,
    pub errors: Vec<String>,
    /// A preformatted table (the traced run's per-layer self times).
    pub table: String,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Outcome {
    pub fn render(&self, fingerprint: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} ({}) seed {} — {fingerprint}",
            self.workload.name(),
            if self.traced { "traced" } else { "untraced" },
            self.seed
        );
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(
                out,
                "  {:<34} {:>16.3} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out.push_str(&self.table);
        let _ = writeln!(
            out,
            "  checks: {} ({} attempted, {} failed)",
            if self.correct { "pass" } else { "FAIL" },
            self.attempted,
            self.failed
        );
        for e in self.errors.iter().take(8) {
            let _ = writeln!(out, "  ! {e}");
        }
        out
    }

    fn metrics_json(&self, prefix: &str) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect()
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json("").join(", ")
        )
    }
}

/// The result line of `--workload all`: every run's metrics, prefixed
/// with the workload name (and `traced.` for traced runs).
pub fn combined_json(outcomes: &[Outcome]) -> String {
    let metrics: Vec<String> = outcomes
        .iter()
        .flat_map(|o| {
            let prefix = format!(
                "{}.{}",
                o.workload.name(),
                if o.traced { "traced." } else { "" }
            );
            o.metrics_json(&prefix)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.iter().all(|o| o.correct),
        outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/self/mountinfo`).
fn fs_type(dir: &Path) -> String {
    let abs = std::fs::canonicalize(dir)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_default();
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|l| {
            let (pre, post) = l.split_once(" - ")?;
            let mount = pre.split_whitespace().nth(4)?;
            let fs = post.split_whitespace().next()?;
            abs.starts_with(mount).then(|| (mount.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Seed-independent facts every result is recorded with.
pub fn fingerprint(data_dir: &Path) -> String {
    std::fs::create_dir_all(data_dir).ok();
    format!(
        "nproc {}, data fs {}, profile {}, {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        fs_type(data_dir),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC")
    )
}
