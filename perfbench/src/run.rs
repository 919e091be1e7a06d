//! The untraced run: start the daemon exactly as `stkde-serve` does,
//! load the warm window, drive the timed window, check the answers and
//! report the end-to-end metrics. Latencies are reported at the
//! reference host speed (see [`crate::reference`]).

use crate::loadgen::{self, Counters, Outcome, Tally, Target};
use crate::plan::{self, Plan, ReadKind};
use crate::reference::REFERENCE_ECHO_MS;
use crate::stats::{segmented, Sample};
use crate::{checks, Metric, Report, END_TO_END};
use std::time::Instant;
use stkde_server::{Client, StkdeServer};

/// Set-ups per run; `setup_s` is their median, at the reference host
/// speed.
const SETUP_REPS: usize = 9;
/// A run whose generator started requests later than this at p99 (the
/// median over segments, so a passing hiccup of the host does not count)
/// did not offer the load its workload names: the daemon fell behind the
/// schedule for most of the run.
pub const LAG_P99_BOUND_MS: f64 = 250.0;
/// A run must settle at least this share of its offered event rate.
const SUSTAINED_SHARE: f64 = 0.9;
/// Fewest host-reference pings a window must take (a 40 s window takes
/// about 1 200 on `live_monitor` and 3 000 on `dashboard`).
const MIN_REFERENCE_PINGS: usize = 200;

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Start a daemon with the benchmark's configuration and load the warm
/// window; returns it with the seconds that took.
pub fn start_daemon(plan: &Plan, counters: &Counters) -> Result<(StkdeServer, f64), String> {
    let t = Instant::now();
    let server = StkdeServer::start("127.0.0.1:0", plan::HTTP_THREADS, plan::service_config())
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
    loadgen::warm_up(&Client::new(server.addr()), counters, plan)?;
    Ok((server, t.elapsed().as_secs_f64()))
}

/// The factor that brings a window's latencies to the reference host
/// speed: `REFERENCE_ECHO_MS` over the median echo round trip of the
/// window.
pub fn host_scale(out: &Outcome) -> Result<f64, String> {
    let pings = out.reference_ms.len();
    if pings < MIN_REFERENCE_PINGS {
        return Err(format!(
            "the window took {pings} host-reference pings, fewer than {MIN_REFERENCE_PINGS}"
        ));
    }
    Ok(REFERENCE_ECHO_MS / Sample::new(out.reference_ms.clone()).percentile(0.5))
}

/// Why a run does not measure what its workload names (empty = valid).
pub fn validity(plan: &Plan, out: &Outcome, delta: &Tally, seconds: f64) -> Vec<String> {
    let mut why = Vec::new();
    if delta.stale > 0 {
        why.push(format!(
            "{} events arrived behind the window head",
            delta.stale
        ));
    }
    if delta.aged > 0 {
        why.push(format!(
            "{} events aged out inside their own batch",
            delta.aged
        ));
    }
    let lag = segmented(&out.lag_ms, 0.99);
    if lag > LAG_P99_BOUND_MS {
        why.push(format!(
            "generator lag p99 {lag:.1} ms exceeds {LAG_P99_BOUND_MS} ms"
        ));
    }
    let offered = plan.timed().len() as f64 / seconds;
    let got = out.events as f64 / out.ingest_s;
    if got < SUSTAINED_SHARE * offered {
        why.push(format!(
            "ingest settled {got:.0} events/s of {offered:.0} offered"
        ));
    }
    why
}

/// Result of one untraced run.
#[derive(Debug)]
pub struct EndToEnd {
    /// What `--trace 0` reports.
    pub report: Report,
    /// Summed p50 latency over POSTs and reads (the trace-overhead base).
    pub p50_sum_ms: f64,
}

/// Latency metrics `<stem>_p50_ms` and `<stem>_p95_ms` over the whole
/// run, at the reference host speed (`scale` from [`host_scale`]), and
/// `<stem>_p50_raw_ms` as measured. Returns the scaled p50. p95 is the
/// highest percentile every workload samples at least ten times beyond
/// per run. The percentiles pool the run rather than
/// taking a median over segments of it: as the feed sweeps the year, the
/// newest day crosses the shard slabs' boundaries, and while the window
/// straddles one, each batch changes two slabs and an approximate read
/// rebuilds two pyramids. Such stretches make up 35–40% of every seed's
/// run, but up to two thirds of a fifth of it, so a median over fifths
/// flips between the one- and two-rebuild modes from run to run.
pub fn latency_metrics(stem: &str, samples: &[f64], scale: f64, into: &mut Vec<Metric>) -> f64 {
    let sample = Sample::new(samples.to_vec());
    let p50 = sample.percentile(0.50);
    let n = Some(samples.len());
    into.push(Metric::new(format!("{stem}_p50_ms"), p50 * scale, "ms", n));
    into.push(Metric::new(
        format!("{stem}_p95_ms"),
        sample.percentile(0.95) * scale,
        "ms",
        n,
    ));
    into.push(Metric::new(format!("{stem}_p50_raw_ms"), p50, "ms", n));
    p50 * scale
}

/// The untraced run.
pub fn measure(plan: &Plan, seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let counters = Counters::new();
    let (server, first_setup) = start_daemon(plan, &counters)?;
    let target = Target {
        client: Client::new(server.addr()),
        traced: false,
    };

    let before = counters.read();
    let out = loadgen::run_window(plan, &target, &counters).and_then(|out| {
        let scale = host_scale(&out)?;
        Ok((out, scale))
    });
    let (out, scale) = match out {
        Ok(o) => o,
        Err(e) => {
            server.shutdown();
            return Err(e);
        }
    };
    let delta = counters.read() - before;
    let mut problems = validity(plan, &out, &delta, seconds);
    let rss = peak_rss_mib();

    let report = checks::run(server.service(), &target.client, plan, seed);
    problems.extend(report.notes.iter().take(8).cloned());
    eprintln!(
        "answer checks: {} made, {} failed, closest {:.3} of its tolerance ({})",
        report.attempted, report.failed, report.worst_share, report.worst
    );
    server.shutdown();

    // The other set-ups run after the measured window, so that the window
    // and `peak_rss_mib` follow one daemon start, as in deployment.
    let mut setups = vec![first_setup];
    while setups.len() < SETUP_REPS {
        let (server, dt) = start_daemon(plan, &counters)?;
        server.shutdown();
        setups.push(dt);
    }
    eprintln!(
        "set-ups (s): {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let attempted = out.attempted + report.attempted;
    let failed = out.failed + report.failed;
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} requests or checks failed"));
    }

    // The set-ups run right before and after the window, so the window's
    // host reference scales them too.
    let setup_s = Sample::new(setups).percentile(0.5);
    let mut metrics = vec![
        Metric::new("setup_s", setup_s * scale, "s", Some(SETUP_REPS)),
        Metric::new("setup_raw_s", setup_s, "s", Some(SETUP_REPS)),
        Metric::new("peak_rss_mib", rss, "MiB", None),
        Metric::new(
            "ingest_events_per_s",
            out.events as f64 / out.ingest_s,
            "1/s",
            Some(out.events as usize),
        ),
    ];
    metrics.push(Metric::new(
        "host.echo_p50_ms",
        REFERENCE_ECHO_MS / scale,
        "ms",
        Some(out.reference_ms.len()),
    ));
    let mut p50_sum = latency_metrics("post_events", &out.post_ms, scale, &mut metrics);
    latency_metrics("freshness", &out.fresh_ms, scale, &mut metrics);
    for kind in ReadKind::ALL {
        p50_sum += latency_metrics(kind.name(), &out.read_ms[kind.index()], scale, &mut metrics);
    }
    metrics.push(Metric::new(
        "lag_p99_ms",
        segmented(&out.lag_ms, 0.99),
        "ms",
        Some(out.lag_ms.len()),
    ));
    metrics.push(Metric::new(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        Some(attempted as usize),
    ));
    Ok(EndToEnd {
        report: Report {
            reported: &END_TO_END,
            metrics,
            attempted,
            failed,
            problems,
        },
        p50_sum_ms: p50_sum,
    })
}
