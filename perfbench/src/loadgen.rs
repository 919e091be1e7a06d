//! The load generator: one process, at most two threads, each with at
//! most one one-shot connection open, driving the daemon over loopback
//! with the repository's own [`Client`].
//!
//! Open-loop requests are timed from when they were *due*, so a stall
//! also charges the requests queued behind it. A failed request (non-2xx,
//! transport error, malformed answer) is recorded at infinite latency.
//!
//! While the daemon is idle, the read thread also pings the benchmark's
//! own loopback echo (see [`crate::reference`]), which measures the
//! host's speed during the window.

use crate::plan::{Plan, Read, ReadKind, GXY};
use crate::reference::Echo;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stkde_data::Point;
use stkde_obs::{global, names, Counter, Histogram};
use stkde_server::json::Json;
use stkde_server::Client;

/// How often idle generator threads poll the settled count.
const POLL: Duration = Duration::from_micros(500);
/// A generator thread spins instead of sleeping for this long before a
/// request is due.
const SPIN: Duration = Duration::from_micros(300);
/// Give up waiting for the writer to settle everything after this long.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Request bodies kept for the JSON layer timings of a traced run.
const KEPT_BODIES: usize = 16;
/// The read thread pings the host reference only when its next read is
/// due at least this much later, so the ping never delays a read.
const REFERENCE_SLACK: Duration = Duration::from_micros(1500);

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Handles into the process-global obs registry, which the daemon
/// records into. Every count the benchmark reports is a before/after
/// difference of these cells.
#[derive(Clone, Copy)]
pub struct Counters {
    received: Counter,
    applied: Counter,
    stale: Counter,
    aged: Counter,
    batches: Counter,
    batch_size: Histogram,
    apply_seconds: Histogram,
    cache_hits: Counter,
    cache_misses: Counter,
    pyramid_seconds: Histogram,
    scatter_points: Counter,
    scatter_voxels: Counter,
}

/// One reading of [`Counters`] (or the difference of two).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Events dropped behind the window head.
    pub stale: u64,
    /// Events that aged out inside their own batch.
    pub aged: u64,
    /// Writer batches.
    pub batches: u64,
    /// Events over all writer batches.
    pub batch_events: f64,
    /// Writer seconds spent applying and publishing batches.
    pub apply_seconds: f64,
    /// Batches timed by `apply_seconds`.
    pub apply_count: u64,
    /// Response-cache hits.
    pub cache_hits: u64,
    /// Response-cache misses.
    pub cache_misses: u64,
    /// Pyramid (re)builds.
    pub pyramid_builds: u64,
    /// Points scattered.
    pub scatter_points: u64,
    /// Voxels those scatters wrote.
    pub scatter_voxels: u64,
}

impl Counters {
    /// Resolve the handles (registering the cells if the daemon has not
    /// yet).
    pub fn new() -> Self {
        let g = global();
        Self {
            received: g.counter(names::INGEST_RECEIVED, &[]),
            applied: g.counter(names::INGEST_EVENTS, &[("outcome", "applied")]),
            stale: g.counter(names::INGEST_EVENTS, &[("outcome", "stale")]),
            aged: g.counter(names::INGEST_EVENTS, &[("outcome", "aged_in_batch")]),
            batches: g.counter(names::INGEST_BATCHES, &[]),
            batch_size: g.histogram(names::INGEST_BATCH_SIZE, &[]),
            apply_seconds: g.histogram(names::INGEST_APPLY_SECONDS, &[]),
            cache_hits: g.counter(names::CACHE_HITS, &[]),
            cache_misses: g.counter(names::CACHE_MISSES, &[]),
            pyramid_seconds: g.histogram(names::APPROX_PYRAMID_BUILD_SECONDS, &[]),
            scatter_points: g.counter(names::SCATTER_POINTS, &[]),
            scatter_voxels: g.counter(names::SCATTER_VOXELS_WRITTEN, &[]),
        }
    }

    /// Events settled (applied, stale or aged). The Acquire loads pair
    /// with the writer's Release increments, as in `is_drained`.
    pub fn settled(&self) -> u64 {
        self.applied.get_acquire() + self.stale.get_acquire() + self.aged.get_acquire()
    }

    /// The writer has settled every event it received.
    fn writer_idle(&self) -> bool {
        self.received.get_acquire() <= self.settled()
    }

    /// Read every cell.
    pub fn read(&self) -> Tally {
        Tally {
            stale: self.stale.get(),
            aged: self.aged.get(),
            batches: self.batches.get(),
            batch_events: self.batch_size.sum(),
            apply_seconds: self.apply_seconds.sum(),
            apply_count: self.apply_seconds.count(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            pyramid_builds: self.pyramid_seconds.count(),
            scatter_points: self.scatter_points.get(),
            scatter_voxels: self.scatter_voxels.get(),
        }
    }
}

impl std::ops::Sub for Tally {
    type Output = Tally;

    fn sub(self, b: Tally) -> Tally {
        Tally {
            stale: self.stale - b.stale,
            aged: self.aged - b.aged,
            batches: self.batches - b.batches,
            batch_events: self.batch_events - b.batch_events,
            apply_seconds: self.apply_seconds - b.apply_seconds,
            apply_count: self.apply_count - b.apply_count,
            cache_hits: self.cache_hits - b.cache_hits,
            cache_misses: self.cache_misses - b.cache_misses,
            pyramid_builds: self.pyramid_builds - b.pyramid_builds,
            scatter_points: self.scatter_points - b.scatter_points,
            scatter_voxels: self.scatter_voxels - b.scatter_voxels,
        }
    }
}

/// Wait until the daemon has settled `target` more events than it had
/// at `base`; `false` on timeout.
pub fn wait_settled(counters: &Counters, base: u64, target: u64) -> bool {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while counters.settled() - base < target {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(POLL);
    }
    true
}

/// Freshness bookkeeping shared by the generator threads: each POST
/// registers the settled count that makes its events visible, and
/// whichever thread is idle polls the count.
struct Freshness<'a> {
    counters: &'a Counters,
    base: u64,
    state: Mutex<FreshState>,
}

#[derive(Default)]
struct FreshState {
    /// (settled count that covers the POST, when it was due).
    pending: VecDeque<(u64, Instant)>,
    samples: Vec<f64>,
    queue_depth_max: u64,
}

impl<'a> Freshness<'a> {
    fn new(counters: &'a Counters) -> Self {
        Self {
            counters,
            base: counters.settled(),
            state: Mutex::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FreshState> {
        self.state.lock().expect("freshness holder never panics")
    }

    fn expect(&self, target: u64, due: Instant) {
        self.lock().pending.push_back((target, due));
    }

    /// A POST failed: its events will never settle, so it misses every
    /// freshness percentile.
    fn abandon_last(&self) {
        let mut s = self.lock();
        s.pending.pop_back();
        s.samples.push(f64::INFINITY);
    }

    fn poll(&self) {
        let received = self.counters.received.get_acquire();
        let total = self.counters.settled();
        let now = Instant::now();
        let mut s = self.lock();
        s.queue_depth_max = s.queue_depth_max.max(received.saturating_sub(total));
        let settled = total - self.base;
        while let Some(&(target, due)) = s.pending.front() {
            if settled < target {
                break;
            }
            s.pending.pop_front();
            s.samples.push(ms(now - due));
        }
    }

    /// Poll until `due`: sleeping while more than [`SPIN`] is left, then
    /// spinning, so a request starts on time however late the host wakes
    /// a sleeping thread.
    fn wait_until(&self, due: Instant) {
        loop {
            self.poll();
            let now = Instant::now();
            if now >= due {
                return;
            }
            let left = due - now;
            if left > SPIN {
                std::thread::sleep((left - SPIN).min(POLL));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// One request of a traced run, for matching against the handler's
/// timing of the same request.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Request id (the `bench_rid` query parameter).
    pub rid: u64,
    /// Endpoint (`None` = `POST /events`).
    pub kind: Option<ReadKind>,
    /// Client-observed time from send to the parsed answer.
    pub service_ms: f64,
}

/// What a timed window produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `POST /events` latencies.
    pub post_ms: Vec<f64>,
    /// POST due → events settled in a published snapshot.
    pub fresh_ms: Vec<f64>,
    /// Read latencies per [`ReadKind::index`].
    pub read_ms: [Vec<f64>; 4],
    /// How late each request started, in due order.
    pub lag_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Events the daemon accepted.
    pub events: u64,
    /// Seconds from the first POST until everything settled.
    pub ingest_s: f64,
    /// Largest received-minus-settled backlog seen.
    pub queue_depth_max: u64,
    /// Host-reference echo round trips, taken while the daemon was idle.
    pub reference_ms: Vec<f64>,
    /// Per-request records (traced runs only).
    pub calls: Vec<Call>,
    /// A few POST bodies (traced runs only).
    pub post_bodies: Vec<Json>,
    /// A few `/slice` answers (traced runs only).
    pub slice_bodies: Vec<Json>,
}

/// Where requests go and whether they are tagged for tracing.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// The daemon.
    pub client: Client,
    /// Tag each request with `bench_rid` for the traced handler.
    pub traced: bool,
}

impl Target {
    fn tag(&self, path: &str, rid: u64) -> String {
        match (self.traced, path.contains('?')) {
            (false, _) => path.to_string(),
            (true, true) => format!("{path}&bench_rid={rid}"),
            (true, false) => format!("{path}?bench_rid={rid}"),
        }
    }
}

/// A POST's body and event count, built before the POST is due so the
/// generator's own work stays off the clock.
fn post_body(events: &[Point]) -> (Json, u64) {
    (events_body(events), events.len() as u64)
}

/// The JSON body of one `POST /events`.
fn events_body(events: &[Point]) -> Json {
    Json::obj([(
        "events",
        Json::Arr(
            events
                .iter()
                .map(|p| {
                    Json::obj([
                        ("x", Json::from(p.x)),
                        ("y", Json::from(p.y)),
                        ("t", Json::from(p.t)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Set-up: POST the plan's warm window in chunks, wait until the daemon
/// settled it, then answer one read of each kind so the lazy state the
/// reads build (slab pyramids) exists before timing starts. Errors name
/// the failing step.
pub fn warm_up(client: &Client, counters: &Counters, plan: &Plan) -> Result<(), String> {
    let base = counters.settled();
    for chunk in plan.warm().chunks(crate::plan::WARM_POST_SIZE) {
        match client.post_json("/events", &events_body(chunk)) {
            Ok((202, _)) => {}
            Ok((status, body)) => {
                return Err(format!("warm POST answered {status}: {}", body.encode()))
            }
            Err(e) => return Err(format!("warm POST failed: {e}")),
        }
    }
    if !wait_settled(counters, base, plan.warm().len() as u64) {
        return Err("warm window never settled".into());
    }
    let day = plan
        .warm()
        .last()
        .map_or(0, |p| (p.t as usize).min(crate::plan::GT - 1));
    for kind in ReadKind::ALL {
        let read = Read {
            due_s: 0.0,
            kind,
            x: 0,
            y: 0,
            edge: crate::plan::GXY,
            day,
        };
        match client.get(&read.path()) {
            Ok((200, body)) if well_formed(&read, &body) => {}
            Ok((status, body)) => {
                return Err(format!("warm-up read answered {status}: {}", body.encode()))
            }
            Err(e) => return Err(format!("warm-up read failed: {e}")),
        }
    }
    Ok(())
}

/// Per-thread records, merged into the [`Outcome`] after the join.
#[derive(Default)]
struct Records {
    post_ms: Vec<f64>,
    read_ms: [Vec<f64>; 4],
    /// (due, how late the request started).
    lag: Vec<(Instant, f64)>,
    attempted: u64,
    failed: u64,
    events: u64,
    calls: Vec<Call>,
    post_bodies: Vec<Json>,
    slice_bodies: Vec<Json>,
    reference_ms: Vec<f64>,
}

impl Records {
    fn merge_into(self, out: &mut Outcome) {
        out.post_ms.extend(self.post_ms);
        for (a, b) in out.read_ms.iter_mut().zip(self.read_ms) {
            a.extend(b);
        }
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.events += self.events;
        out.calls.extend(self.calls);
        out.post_bodies.extend(self.post_bodies);
        out.slice_bodies.extend(self.slice_bodies);
        out.reference_ms.extend(self.reference_ms);
    }

    /// Send one POST (timed from `due`) and register its freshness.
    fn post(
        &mut self,
        target: &Target,
        fresh: &Freshness,
        rid: u64,
        (body, n): (Json, u64),
        due: Instant,
    ) {
        fresh.expect(self.events + n, due);
        let sent = Instant::now();
        let result = target.client.post_json(&target.tag("/events", rid), &body);
        let done = Instant::now();
        self.attempted += 1;
        if matches!(result, Ok((202, _))) {
            self.events += n;
            self.post_ms.push(ms(done - due));
        } else {
            self.failed += 1;
            self.post_ms.push(f64::INFINITY);
            fresh.abandon_last();
        }
        if target.traced {
            self.calls.push(Call {
                rid,
                kind: None,
                service_ms: ms(done - sent),
            });
            if self.post_bodies.len() < KEPT_BODIES {
                self.post_bodies.push(body);
            }
        }
    }

    /// Send one read (timed from `due`) and check the shape of the answer.
    fn read(&mut self, target: &Target, rid: u64, read: &Read, due: Instant) {
        let sent = Instant::now();
        // The latency ends when the answer's bytes are in; checking them
        // is the generator's own work and stays off the clock.
        let result = target.client.get_text(&target.tag(&read.path(), rid));
        let done = Instant::now();
        self.attempted += 1;
        let ok = match &result {
            Ok((200, text)) => answer_ok(read, text),
            _ => false,
        };
        let slot = &mut self.read_ms[read.kind.index()];
        if ok {
            slot.push(ms(done - due));
        } else {
            self.failed += 1;
            slot.push(f64::INFINITY);
        }
        if target.traced {
            self.calls.push(Call {
                rid,
                kind: Some(read.kind),
                service_ms: ms(done - sent),
            });
            if let (ReadKind::Slice, Ok((_, text))) = (read.kind, &result) {
                if self.slice_bodies.len() < KEPT_BODIES {
                    if let Ok(body) = Json::parse(text) {
                        self.slice_bodies.push(body);
                    }
                }
            }
        }
    }
}

/// The answer has the fields and size its query implies. A `/slice`
/// answer is checked by its shape alone (a `values` array of one number
/// per voxel closing the object), which is far cheaper than parsing
/// 6 400 numbers on the generator's clock.
fn answer_ok(read: &Read, text: &str) -> bool {
    if read.kind == ReadKind::Slice {
        let Some(start) = text.find("\"values\":[") else {
            return false;
        };
        let values = &text[start..];
        return values.ends_with("]}")
            && values.bytes().filter(|&b| b == b',').count() == GXY * GXY - 1;
    }
    Json::parse(text).is_ok_and(|body| well_formed(read, &body))
}

/// The answer has the fields and size its query implies.
fn well_formed(read: &Read, body: &Json) -> bool {
    let num = |k: &str| body.get(k).and_then(Json::as_f64).is_some();
    let voxels = body.get("voxels").and_then(Json::as_u64);
    match read.kind {
        ReadKind::Density => num("density"),
        ReadKind::Region => num("sum") && voxels == Some(read.voxels() as u64),
        ReadKind::RegionApprox => {
            num("sum") && num("error_bound") && voxels == Some(read.voxels() as u64)
        }
        ReadKind::Slice => body
            .get("values")
            .and_then(Json::as_array)
            .is_some_and(|v| v.len() == GXY * GXY),
    }
}

/// Run the plan's open-loop timed window against a warm daemon. Returns
/// once every accepted event has settled.
pub fn run_window(plan: &Plan, target: &Target, counters: &Counters) -> Result<Outcome, String> {
    let echo = Echo::start().map_err(|e| format!("cannot start the reference echo: {e}"))?;
    let fresh = Freshness::new(counters);
    let mut out = Outcome::default();
    let start = Instant::now() + Duration::from_millis(20);
    let ingest_done = AtomicBool::new(false);
    let post_in_flight = AtomicBool::new(false);

    let (ingest, reads) = std::thread::scope(|s| {
        let ingest = s.spawn(|| {
            let mut rec = Records::default();
            for (i, post) in plan.posts.iter().enumerate() {
                let due = start + Duration::from_secs_f64(post.due_s);
                let body = post_body(plan.post_events(post));
                fresh.wait_until(due);
                rec.lag.push((due, ms(Instant::now() - due)));
                post_in_flight.store(true, Ordering::Release);
                rec.post(target, &fresh, 2 * i as u64, body, due);
                post_in_flight.store(false, Ordering::Release);
            }
            ingest_done.store(true, Ordering::Release);
            rec
        });
        let reads = s.spawn(|| {
            let mut rec = Records::default();
            for (j, read) in plan.reads.iter().enumerate() {
                let due = start + Duration::from_secs_f64(read.due_s);
                let idle = !post_in_flight.load(Ordering::Acquire) && counters.writer_idle();
                if idle && Instant::now() + REFERENCE_SLACK < due {
                    // A failed ping is left out; too few pings fail the run.
                    if let Ok(took) = echo.ping() {
                        rec.reference_ms.push(took);
                    }
                }
                fresh.wait_until(due);
                rec.lag.push((due, ms(Instant::now() - due)));
                rec.read(target, 2 * j as u64 + 1, read, due);
            }
            // Keep polling for freshness until the feeder is done.
            while !ingest_done.load(Ordering::Acquire) {
                fresh.poll();
                std::thread::sleep(POLL);
            }
            rec
        });
        (
            ingest.join().expect("ingest thread panicked"),
            reads.join().expect("read thread panicked"),
        )
    });
    let mut lag: Vec<(Instant, f64)> = ingest.lag.iter().chain(&reads.lag).copied().collect();
    lag.sort_by_key(|&(due, _)| due);
    out.lag_ms = lag.into_iter().map(|(_, l)| l).collect();
    ingest.merge_into(&mut out);
    reads.merge_into(&mut out);

    // Drain: poll until every accepted event settled.
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    loop {
        fresh.poll();
        if counters.settled() - fresh.base >= out.events {
            break;
        }
        if Instant::now() > deadline {
            out.failed += 1;
            break;
        }
        std::thread::sleep(POLL);
    }
    out.ingest_s = (Instant::now() - start).as_secs_f64();
    let mut state = fresh.lock();
    // Anything still pending never became visible.
    let unresolved = state.pending.len();
    state
        .samples
        .extend(std::iter::repeat_n(f64::INFINITY, unresolved));
    out.fresh_ms = std::mem::take(&mut state.samples);
    out.queue_depth_max = state.queue_depth_max;
    Ok(out)
}
