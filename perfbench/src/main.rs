//! `stkde-perfbench` — the serve-path benchmark.
//!
//! Starts the density daemon in this process through
//! `StkdeServer::start` (the wiring `stkde-serve` uses), drives it over
//! loopback with the repository's HTTP client, checks the answers, and
//! prints every metric with its unit and sample count. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload live_monitor --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the
//! workload untraced, then again against a handler that times each layer
//! from the benchmark's own code, and reports the per-layer metrics.

mod checks;
mod loadgen;
mod plan;
mod reference;
mod run;
mod stats;
mod traced;

use plan::{Plan, Workload};
use std::process::ExitCode;
use stkde_server::json::Json;

const USAGE: &str = "usage: stkde-perfbench --workload dashboard|live_monitor \
--seed N --seconds S --trace 0|1";

/// End-to-end metrics, as `--trace 0` reports them; the latencies are
/// at the reference host speed (see [`reference`]). The table also
/// prints the p95 tails and the `POST /events` latency, which stay out:
/// from one run to the next on a 2-core host they move by more than any
/// bound a regression gate could use (a POST's 202 races the writer's
/// parallel apply it has just woken). It prints `ingest_events_per_s`
/// too, which is the offered open-loop rate whenever the run is valid,
/// and so is a validity check rather than a measurement.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mib",
    "freshness_p50_ms",
    "region_p50_ms",
    "region_approx_p50_ms",
    "slice_p50_ms",
    "density_p50_ms",
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value, where it summarizes a sample.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// Names that go into the JSON result line, in order.
    pub reported: &'static [&'static str],
    /// Every metric measured (a superset of `reported`).
    pub metrics: Vec<Metric>,
    /// Requests and checks made.
    pub attempted: u64,
    /// Of which failed.
    pub failed: u64,
    /// Reasons the run is invalid or wrong (empty = correct).
    pub problems: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// JSON has no ∞: a metric that failed outright reports the largest
/// finite number instead.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let t = std::time::Instant::now();
    let plan = Plan::new(args.workload, args.seed, args.seconds);
    eprintln!(
        "{} seed {}: {} warm + {} timed events in {} POSTs, {} reads (plan {:016x}, built in {:.2} s)",
        args.workload.name(),
        args.seed,
        plan.warm().len(),
        plan.timed().len(),
        plan.posts.len(),
        plan.reads.len(),
        plan.fingerprint(),
        t.elapsed().as_secs_f64()
    );

    let result = if args.trace {
        traced::measure(&plan, args.seed, args.seconds)
    } else {
        run::measure(&plan, args.seed, args.seconds).map(|e| e.report)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:<38} {:>14}  {:<12} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        let samples = m.samples.map_or(String::new(), |n| n.to_string());
        println!(
            "{:<38} {:>14.4}  {:<12} {:>8}",
            m.name, m.value, m.unit, samples
        );
    }
    for p in &report.problems {
        println!("problem: {p}");
    }
    let metrics = report.reported.iter().map(|name| {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        (
            *name,
            Json::obj([
                ("value", Json::from(finite(m.value))),
                ("unit", Json::from(m.unit)),
            ]),
        )
    });
    let line = Json::obj([
        ("correct", Json::from(report.problems.is_empty())),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.encode());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name only workloads
    /// this binary accepts, and exactly the metrics it reports.
    #[test]
    fn benchmark_json_names_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("named entry")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), traced::PER_LAYER);
        let workloads = names("workloads");
        assert!(!workloads.is_empty());
        for w in &workloads {
            assert_eq!(Workload::parse(w).map(Workload::name), Some(w.as_str()));
        }
    }
}
