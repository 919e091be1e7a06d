//! The traced run: per-layer numbers, timed from the benchmark's own
//! code around calls into each layer's public functions. Nothing inside
//! the daemon is instrumented for it.
//!
//! 1. The workload runs untraced (as `--trace 0` does), as the base of
//!    `trace_overhead`.
//! 2. It runs again against the same `DensityService` served through
//!    `HttpServer::serve` with a handler owned here, which times
//!    `routes::handle` per request. Matching each request's handler time
//!    with its client-observed time gives the wire share (connect,
//!    accept hand-off, parse, write).
//! 3. The workload's event stream is replayed, at the daemon's observed
//!    events per batch, into a benchmark-owned `ShardedWindowStkde` with
//!    the serve kernel, timing `push_batch`, `publish`,
//!    `ensure_pyramids` and the snapshot reads.

use crate::loadgen::{self, ms, Counters, Outcome, Tally, Target};
use crate::plan::{self, Plan, ReadKind, BOX, GXY, MAX_ERR};
use crate::stats::{segmented, Sample};
use crate::{run, Metric, Report};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stkde_core::{Algorithm, CubeSnapshot, ShardedWindowStkde, Stkde};
use stkde_data::PointSet;
use stkde_grid::VoxelRange;
use stkde_server::http::Handler;
use stkde_server::json::Json;
use stkde_server::{routes, Client, DensityService, HttpServer, Request, ServeKernel};

/// Per-layer metrics, as `--trace 1` reports them.
pub const PER_LAYER: [&str; 36] = [
    "loadgen.lag_p99_ms",
    "loadgen.requests",
    "http.wire_p50_ms",
    "http.wire_p99_ms",
    "routes.events.handle_ms_per_kevent",
    "routes.region.handle_p50_ms",
    "routes.region_approx.handle_p50_ms",
    "routes.slice.handle_p50_ms",
    "routes.density.handle_p50_ms",
    "json.parse_us_per_event",
    "json.encode_us_per_value",
    "cache.hit_ratio",
    "cache.entries",
    "service.batches",
    "service.events_per_batch",
    "service.apply_ms_per_batch",
    "service.writer_busy_share",
    "service.queue_depth_max",
    "service.stale",
    "service.aged_in_batch",
    "sharded.push_batch_us_per_event",
    "sharded.publish_ms_per_batch",
    "sharded.publish_mib_per_batch",
    "sharded.shard_ops_max_over_mean",
    "scatter.voxels_per_event",
    "snapshot.region_fold_ms",
    "snapshot.region_approx_ms",
    "snapshot.slice_ms",
    "pyramid.builds",
    "pyramid.build_ms_p50",
    "pyramid.mib",
    "process.cpu_share",
    "trace_overhead",
    "reconcile.replay_over_daemon",
    "reconcile.replay_ms_per_batch",
    "reconcile.daemon_ms_per_batch",
];

/// Feed events scattered to measure the scatter work per event.
const SCATTER_SAMPLE: usize = 20_000;
/// Wall time the replay may take.
const REPLAY_BUDGET: Duration = Duration::from_secs(5);
/// The replay's mean `push_batch + publish` per batch must lie within
/// this factor of the daemon's own mean apply time per batch.
pub const RECONCILE_FACTOR: f64 = 2.0;

const MIB: f64 = 1024.0 * 1024.0;

/// Handler times of the traced daemon, keyed by request id.
type HandleLog = Arc<Mutex<HashMap<u64, f64>>>;

/// Serve `svc` with a handler that times `routes::handle`.
fn traced_server(svc: &Arc<DensityService>, log: &HandleLog) -> Result<HttpServer, String> {
    let svc = Arc::clone(svc);
    let log = Arc::clone(log);
    let handler: Handler = Arc::new(move |req: &Request| {
        let t = Instant::now();
        let resp = routes::handle(&svc, req);
        let took = ms(t.elapsed());
        if let Some(rid) = req.query_param("bench_rid").and_then(|v| v.parse().ok()) {
            log.lock()
                .expect("handler log holder never panics")
                .insert(rid, took);
        }
        resp
    });
    HttpServer::serve("127.0.0.1:0", plan::HTTP_THREADS, handler)
        .map_err(|e| format!("cannot start the traced server: {e}"))
}

/// The traced daemon's window and what it left in the registry.
struct TracedWindow {
    out: Outcome,
    delta: Tally,
    handle_ms: HashMap<u64, f64>,
    wall_s: f64,
    cpu_s: f64,
    stats: Json,
    p50_sum_ms: f64,
}

fn traced_window(plan: &Plan) -> Result<TracedWindow, String> {
    let counters = Counters::new();
    let svc = DensityService::start(plan::service_config());
    let log = HandleLog::default();
    let http = traced_server(&svc, &log)?;
    let client = Client::new(http.addr());
    loadgen::warm_up(&client, &counters, plan)?;
    log.lock().expect("handler log holder never panics").clear();

    let target = Target {
        client,
        traced: true,
    };
    let before = counters.read();
    let cpu0 = run::cpu_seconds();
    let t = Instant::now();
    let out = loadgen::run_window(plan, &target, &counters).and_then(|out| {
        let scale = run::host_scale(&out)?;
        Ok((out, scale))
    });
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = run::cpu_seconds() - cpu0;
    let delta = counters.read() - before;
    let stats = svc.stats_json();
    http.shutdown();
    svc.shutdown();
    let (out, scale) = out?;

    let p50 = |v: &[f64]| Sample::new(v.to_vec()).percentile(0.5);
    let p50_sum_ms =
        scale * (p50(&out.post_ms) + out.read_ms.iter().map(|lat| p50(lat)).sum::<f64>());
    let handle_ms = std::mem::take(&mut *log.lock().expect("handler log holder never panics"));
    Ok(TracedWindow {
        out,
        delta,
        handle_ms,
        wall_s,
        cpu_s,
        stats,
        p50_sum_ms,
    })
}

/// What the replay measured.
#[derive(Debug, Default)]
struct Replay {
    batches: usize,
    events: usize,
    push_s: f64,
    publish_s: f64,
    copied_bytes: f64,
    shard_ops: Vec<u64>,
    pyramid_build_ms: Vec<f64>,
    region_ms: Vec<f64>,
    approx_ms: Vec<f64>,
    slice_ms: Vec<f64>,
}

/// Time the three snapshot reads of the workload's read mix on `snap`.
fn time_reads(
    snap: &CubeSnapshot<f64>,
    r: &mut Replay,
    region: VoxelRange,
    approx: VoxelRange,
    day: usize,
    kb: f64,
) {
    let t = Instant::now();
    std::hint::black_box(snap.density_range(region));
    r.region_ms.push(ms(t.elapsed()));
    let t = Instant::now();
    std::hint::black_box(snap.density_range_approx(approx, MAX_ERR, kb));
    r.approx_ms.push(ms(t.elapsed()));
    let t = Instant::now();
    std::hint::black_box(snap.density_slice(day));
    r.slice_ms.push(ms(t.elapsed()));
}

fn replay(plan: &Plan, events_per_batch: usize, kb: f64) -> Replay {
    let config = plan::service_config();
    let mut cube = ShardedWindowStkde::<f64, ServeKernel>::with_kernel(
        config.domain,
        config.bandwidth,
        config.window,
        config.resolved_shards(),
        config.kernel.clone(),
    );
    cube.push_batch(plan.warm());
    let mut prev = cube.publish();
    let mut r = Replay {
        shard_ops: vec![0; cube.shard_count()],
        ..Replay::default()
    };
    let deadline = Instant::now() + REPLAY_BUDGET;
    for batch in plan.timed().chunks(events_per_batch.max(1)) {
        if Instant::now() > deadline {
            break;
        }
        let t = Instant::now();
        std::hint::black_box(cube.push_batch(batch));
        r.push_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let snap = cube.publish();
        r.publish_s += t.elapsed().as_secs_f64();
        r.batches += 1;
        r.events += batch.len();
        for (new, old) in snap.shards().iter().zip(prev.shards()) {
            if !Arc::ptr_eq(new, old) {
                r.copied_bytes += new.grid.heap_bytes() as f64;
            }
        }
        for (ops, s) in r.shard_ops.iter_mut().zip(cube.shard_batch_stats()) {
            *ops += s.ops;
        }
        // Every read mix touches the newest day: the approximate read
        // rebuilds the pyramids of the slabs this batch changed.
        let pyramids = snap.ensure_pyramids();
        if pyramids.built > 0 {
            r.pyramid_build_ms.push(pyramids.seconds * 1e3);
        }
        let day = (snap.newest_time().unwrap_or(0.0) as usize).min(plan::GT - 1);
        let (t0, t1) = plan::trailing(day);
        let (x, y) = plan.hotspots[r.batches % plan.hotspots.len()];
        let region = VoxelRange {
            x0: x,
            x1: x + BOX,
            y0: y,
            y1: y + BOX,
            t0,
            t1,
        };
        let approx = VoxelRange {
            x0: 0,
            x1: GXY,
            y0: 0,
            y1: GXY,
            t0,
            t1,
        };
        time_reads(&snap, &mut r, region, approx, day, kb);
        prev = snap;
    }
    r
}

/// Mean time per item of `f` over `items`, in microseconds per unit of
/// `weight` (events per POST body, values per slice).
fn time_per_unit<T>(items: &[T], weight: impl Fn(&T) -> usize, f: impl Fn(&T)) -> f64 {
    let units: usize = items.iter().map(&weight).sum();
    let t = Instant::now();
    for item in items {
        f(item);
    }
    t.elapsed().as_secs_f64() * 1e6 / units.max(1) as f64
}

/// Length of the array under `key` (0 when absent).
fn array_len(body: &Json, key: &str) -> usize {
    body.get(key)
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len)
}

/// The traced run: untraced base, traced window, replay.
pub fn measure(plan: &Plan, seed: u64, seconds: f64) -> Result<Report, String> {
    let run::EndToEnd {
        report: base,
        p50_sum_ms: base_p50_sum_ms,
    } = run::measure(plan, seed, seconds)?;
    let w = traced_window(plan)?;
    let mut problems = base.problems;
    problems.extend(
        run::validity(plan, &w.out, &w.delta, seconds)
            .into_iter()
            .map(|p| format!("traced run: {p}")),
    );
    if w.out.failed > 0 {
        problems.push(format!(
            "traced run: {} of {} requests failed",
            w.out.failed, w.out.attempted
        ));
    }

    // Wire time: client-observed minus handler time, request by request.
    let mut wire = Vec::new();
    let mut handle: [Vec<f64>; 4] = Default::default();
    let mut events_handle_ms = 0.0;
    for call in &w.out.calls {
        let Some(&h) = w.handle_ms.get(&call.rid) else {
            continue;
        };
        wire.push(call.service_ms - h);
        match call.kind {
            None => events_handle_ms += h,
            Some(kind) => handle[kind.index()].push(h),
        }
    }
    let wire = Sample::new(wire);

    let post_texts: Vec<(String, usize)> = w
        .out
        .post_bodies
        .iter()
        .map(|b| (b.encode(), array_len(b, "events")))
        .collect();
    let parse_us = time_per_unit(
        &post_texts,
        |(_, events)| *events,
        |(text, _)| {
            std::hint::black_box(Json::parse(text).expect("own POST body parses"));
        },
    );
    let encode_us = time_per_unit(
        &w.out.slice_bodies,
        |b| array_len(b, "values"),
        |b| {
            std::hint::black_box(b.encode());
        },
    );

    let d = &w.delta;
    let events_per_batch = d.batch_events / d.batches.max(1) as f64;
    let daemon_ms_per_batch = d.apply_seconds * 1e3 / d.apply_count.max(1) as f64;
    let stat = |k: &str| w.stats.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let kb = stat("kernel_error_bound");

    let r = replay(plan, events_per_batch.round() as usize, kb);
    let batches = r.batches.max(1) as f64;
    let replay_ms_per_batch = (r.push_s + r.publish_s) * 1e3 / batches;
    let reconcile = replay_ms_per_batch / daemon_ms_per_batch;
    if !(1.0 / RECONCILE_FACTOR..=RECONCILE_FACTOR).contains(&reconcile) {
        problems.push(format!(
            "replay {replay_ms_per_batch:.3} ms/batch vs daemon {daemon_ms_per_batch:.3} ms/batch: \
             ratio {reconcile:.2} outside 1/{RECONCILE_FACTOR}..{RECONCILE_FACTOR}"
        ));
    }
    // The serve path's slab scatter records no scatter counters, so the
    // scatter work per event is read off a PB-SYM batch over a sample of
    // the same feed, which runs the same chord-clipped scatter.
    let scatter = {
        let counters = Counters::new();
        let before = counters.read();
        let config = plan::service_config();
        let sample = plan.timed()[..plan.timed().len().min(SCATTER_SAMPLE)].to_vec();
        Stkde::new(config.domain, config.bandwidth)
            .kernel(ServeKernel::default())
            .algorithm(Algorithm::PbSym)
            .compute::<f64>(&PointSet::from_vec(sample))
            .expect("PB-SYM over a feed sample");
        counters.read() - before
    };
    let ops_mean = r.shard_ops.iter().sum::<u64>() as f64 / r.shard_ops.len().max(1) as f64;
    let ops_max = r.shard_ops.iter().copied().max().unwrap_or(0) as f64;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let p50 = |v: &[f64]| Sample::new(v.to_vec()).percentile(0.5);
    let hits = d.cache_hits as f64;
    let lookups = (d.cache_hits + d.cache_misses) as f64;

    let mut metrics = vec![
        Metric::new(
            "loadgen.lag_p99_ms",
            segmented(&w.out.lag_ms, 0.99),
            "ms",
            Some(w.out.lag_ms.len()),
        ),
        Metric::new("loadgen.requests", w.out.attempted as f64, "count", None),
        Metric::new(
            "http.wire_p50_ms",
            wire.percentile(0.5),
            "ms",
            Some(wire.len()),
        ),
        Metric::new(
            "http.wire_p99_ms",
            wire.percentile(0.99),
            "ms",
            Some(wire.len()),
        ),
        Metric::new(
            "routes.events.handle_ms_per_kevent",
            events_handle_ms * 1e3 / w.out.events.max(1) as f64,
            "ms/kevent",
            Some(w.out.post_ms.len()),
        ),
    ];
    for kind in ReadKind::ALL {
        let h = &handle[kind.index()];
        metrics.push(Metric::new(
            format!("routes.{}.handle_p50_ms", kind.name()),
            p50(h),
            "ms",
            Some(h.len()),
        ));
    }
    metrics.extend([
        Metric::new(
            "json.parse_us_per_event",
            parse_us,
            "us/event",
            Some(w.out.post_bodies.len()),
        ),
        Metric::new(
            "json.encode_us_per_value",
            encode_us,
            "us/value",
            Some(w.out.slice_bodies.len()),
        ),
        Metric::new(
            "cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
            Some(lookups as usize),
        ),
        Metric::new("cache.entries", stat("cache_entries"), "count", None),
        Metric::new("service.batches", d.batches as f64, "count", None),
        Metric::new(
            "service.events_per_batch",
            events_per_batch,
            "events/batch",
            Some(d.batches as usize),
        ),
        Metric::new(
            "service.apply_ms_per_batch",
            daemon_ms_per_batch,
            "ms/batch",
            Some(d.apply_count as usize),
        ),
        Metric::new(
            "service.writer_busy_share",
            d.apply_seconds / w.wall_s,
            "ratio",
            None,
        ),
        Metric::new(
            "service.queue_depth_max",
            w.out.queue_depth_max as f64,
            "count",
            None,
        ),
        Metric::new("service.stale", d.stale as f64, "count", None),
        Metric::new("service.aged_in_batch", d.aged as f64, "count", None),
        Metric::new(
            "sharded.push_batch_us_per_event",
            r.push_s * 1e6 / r.events.max(1) as f64,
            "us/event",
            Some(r.events),
        ),
        Metric::new(
            "sharded.publish_ms_per_batch",
            r.publish_s * 1e3 / batches,
            "ms/batch",
            Some(r.batches),
        ),
        Metric::new(
            "sharded.publish_mib_per_batch",
            r.copied_bytes / MIB / batches,
            "MiB/batch",
            Some(r.batches),
        ),
        Metric::new(
            "sharded.shard_ops_max_over_mean",
            ops_max / ops_mean,
            "ratio",
            Some(r.shard_ops.len()),
        ),
        Metric::new(
            "scatter.voxels_per_event",
            scatter.scatter_voxels as f64 / scatter.scatter_points.max(1) as f64,
            "voxels/event",
            Some(scatter.scatter_points as usize),
        ),
        Metric::new(
            "snapshot.region_fold_ms",
            p50(&r.region_ms),
            "ms",
            Some(r.region_ms.len()),
        ),
        Metric::new(
            "snapshot.region_approx_ms",
            p50(&r.approx_ms),
            "ms",
            Some(r.approx_ms.len()),
        ),
        Metric::new(
            "snapshot.slice_ms",
            p50(&r.slice_ms),
            "ms",
            Some(r.slice_ms.len()),
        ),
        Metric::new("pyramid.builds", d.pyramid_builds as f64, "count", None),
        Metric::new(
            "pyramid.build_ms_p50",
            p50(&r.pyramid_build_ms),
            "ms",
            Some(r.pyramid_build_ms.len()),
        ),
        Metric::new("pyramid.mib", stat("pyramid_bytes") / MIB, "MiB", None),
        Metric::new(
            "process.cpu_share",
            w.cpu_s / (w.wall_s * nproc),
            "ratio",
            None,
        ),
        Metric::new(
            "trace_overhead",
            w.p50_sum_ms / base_p50_sum_ms - 1.0,
            "ratio",
            None,
        ),
        Metric::new(
            "reconcile.replay_over_daemon",
            reconcile,
            "ratio",
            Some(r.batches),
        ),
        Metric::new(
            "reconcile.replay_ms_per_batch",
            replay_ms_per_batch,
            "ms/batch",
            Some(r.batches),
        ),
        Metric::new(
            "reconcile.daemon_ms_per_batch",
            daemon_ms_per_batch,
            "ms/batch",
            Some(d.apply_count as usize),
        ),
    ]);
    // The untraced run's end-to-end numbers, for reading the table.
    metrics.extend(base.metrics.into_iter().map(|mut m| {
        m.name = format!("untraced.{}", m.name);
        m
    }));
    Ok(Report {
        reported: &PER_LAYER,
        metrics,
        attempted: base.attempted + w.out.attempted,
        failed: base.failed + w.out.failed,
        problems,
    })
}
