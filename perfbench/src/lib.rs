//! # dvp-perfbench — the DvP engine's benchmark
//!
//! Drives the engine from outside through its public API: workloads are
//! generated from a seed ([`workload`]), run on a plain `Cluster` for the
//! end-to-end metrics ([`e2e`]), and run again with every site callback
//! timed for the per-layer ledger ([`layers`], [`trace`], and replays of the
//! run's own datagrams and log records). Every run is checked
//! ([`outcome`]) before any of its numbers count. `NOTES.md` defines every
//! metric.

#![warn(missing_docs)]

pub mod e2e;
pub mod layers;
pub mod outcome;
mod replay;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line: whether every check passed, how many scripted
/// transactions were attempted and how many of them ran in a failed run,
/// and the metrics.
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Scripted transactions across all runs made.
    pub attempted: u64,
    /// Scripted transactions of runs that failed a check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The report of a run with no usable result; logs why to stderr.
    pub fn failure(attempted: u64, failed: u64, errors: &[String]) -> Report {
        for e in errors {
            eprintln!("check failed: {e}");
        }
        Report {
            correct: false,
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    /// The report as one JSON object on one line. Values print with every
    /// digit `f64`'s shortest round-trip form has.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Command-line arguments:
/// `--workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--spans <path>]`.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: workload::Workload,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: u64,
    /// Run traced (per-layer metrics) instead of plain (end-to-end).
    pub trace: bool,
    /// Where a traced run writes its spans, if anywhere.
    pub spans: Option<std::path::PathBuf>,
}

impl Args {
    /// Parse arguments (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
            (None, None, 10, false, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        workload::Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                "--spans" => spans = Some(value.into()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            spans,
        })
    }
}
