//! The workloads and the request sequence each one sends.
//!
//! Everything here is a pure function of the workload, the seed and the
//! run length: the same arguments give the same events, the same POST
//! schedule and the same reads (see [`Plan::fingerprint`]).

use stkde_data::{DatasetKind, Point};
use stkde_grid::{Extent, GridDims, VoxelRange};
use stkde_server::{ServerConfig, ServiceConfig};

/// Voxels per spatial axis (8 km at 100 m).
pub const GXY: usize = 80;
/// Time layers (365 days at 1 day).
pub const GT: usize = 365;
/// Sliding-window length and warm-up span, in days.
pub const WINDOW_DAYS: usize = 30;
/// HTTP worker threads of the daemon.
pub const HTTP_THREADS: usize = 2;
/// Edge of an exact `/region` box, in voxels.
pub const BOX: usize = 20;
/// Fixed boxes the dashboards look at.
pub const HOTSPOTS: usize = 32;
/// Relative error budget of the approximate `/region` reads.
pub const MAX_ERR: f64 = 0.05;
/// Size of the POSTs that load the warm window during set-up.
pub const WARM_POST_SIZE: usize = 4096;

/// The daemon's configuration: the dengue city, everything else at the
/// `stkde-serve` defaults (4 shards, LUT kernel, cache 64, batch cap
/// 1024), parsed by the daemon's own flag parser.
pub fn service_config() -> ServiceConfig {
    let flags = [
        "--dims",
        "80x80x365",
        "--sres",
        "100",
        "--tres",
        "1",
        "--hs",
        "800",
        "--ht",
        "7",
        "--window",
        "30",
        "--shards",
        "4",
    ];
    let flags: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
    ServerConfig::parse(&flags)
        .expect("benchmark daemon flags are valid")
        .service_config()
}

fn extent() -> Extent {
    Extent::new(
        [0.0, 0.0, 0.0],
        [GXY as f64 * 100.0, GXY as f64 * 100.0, GT as f64],
    )
}

/// The grid the daemon serves.
pub fn dims() -> GridDims {
    GridDims::new(GXY, GXY, GT)
}

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, read-heavy: 300 reads/s, trickle ingest.
    Dashboard,
    /// Open loop, write-heavy: 16 000 events/s plus 100 reads/s.
    LiveMonitor,
}

/// Rates of one workload, all open loop.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// POSTs per second.
    pub posts_per_s: f64,
    /// Events per second offered.
    pub events_per_s: f64,
    /// Reads per second during the timed window.
    pub reads_per_s: f64,
    /// Events of the warm window posted during set-up: what the first
    /// 30 days hold when the feed carries `events_per_s` over a 40 s run
    /// (`run_seconds` in `BENCHMARK.json`), and fixed, so the set-up does
    /// the same work whatever `--seconds` is.
    pub warm_events: usize,
}

impl Workload {
    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "dashboard" => Some(Self::Dashboard),
            "live_monitor" => Some(Self::LiveMonitor),
            _ => None,
        }
    }

    /// The workload's name as `--workload` takes it.
    pub fn name(self) -> &'static str {
        match self {
            Self::Dashboard => "dashboard",
            Self::LiveMonitor => "live_monitor",
        }
    }

    /// The workload's rates.
    pub fn load(self) -> Load {
        match self {
            Self::Dashboard => Load {
                posts_per_s: 10.0,
                events_per_s: 2_000.0,
                reads_per_s: 300.0,
                warm_events: 7_200,
            },
            Self::LiveMonitor => Load {
                posts_per_s: 62.5,
                events_per_s: 16_000.0,
                reads_per_s: 100.0,
                warm_events: 57_000,
            },
        }
    }
}

/// The four read endpoints of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `/density` — one voxel.
    Density,
    /// Exact `/region` over a 20×20×30 box.
    Region,
    /// `/region?max_err=0.05` over the full space.
    RegionApprox,
    /// Exact `/slice` of one day.
    Slice,
}

impl ReadKind {
    /// All kinds, in the order metrics are reported.
    pub const ALL: [ReadKind; 4] = [
        ReadKind::Region,
        ReadKind::RegionApprox,
        ReadKind::Slice,
        ReadKind::Density,
    ];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            ReadKind::Density => "density",
            ReadKind::Region => "region",
            ReadKind::RegionApprox => "region_approx",
            ReadKind::Slice => "slice",
        }
    }

    /// Index into per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            ReadKind::Region => 0,
            ReadKind::RegionApprox => 1,
            ReadKind::Slice => 2,
            ReadKind::Density => 3,
        }
    }

    /// Draw from the mix: 35% density, 30% region, 20% approximate
    /// region, 15% slice.
    fn draw(u: f64) -> Self {
        match u {
            u if u < 0.35 => ReadKind::Density,
            u if u < 0.65 => ReadKind::Region,
            u if u < 0.85 => ReadKind::RegionApprox,
            _ => ReadKind::Slice,
        }
    }
}

/// The trailing window `[t0, t1)` that ends with day `day`.
pub fn trailing(day: usize) -> (usize, usize) {
    let t1 = day + 1;
    (t1.saturating_sub(WINDOW_DAYS), t1)
}

/// One read: what to ask, where, and when it is due.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Read {
    /// Seconds after the start of the timed window.
    pub due_s: f64,
    /// Endpoint.
    pub kind: ReadKind,
    /// Voxel or box origin on the X axis.
    pub x: usize,
    /// Voxel or box origin on the Y axis.
    pub y: usize,
    /// Box edge on the X and Y axes (regions only).
    pub edge: usize,
    /// The newest day the ingest schedule has posted when the read is
    /// due: the day a `/density` or `/slice` read looks at, and the last
    /// day of a region's trailing 30 days.
    pub day: usize,
}

impl Read {
    /// The box a region read covers: its edge in X and Y, the trailing
    /// 30 days in T.
    pub fn range(&self) -> VoxelRange {
        let (t0, t1) = trailing(self.day);
        VoxelRange {
            x0: self.x,
            x1: self.x + self.edge,
            y0: self.y,
            y1: self.y + self.edge,
            t0,
            t1,
        }
    }

    /// Path and query string.
    pub fn path(&self) -> String {
        let (r, day) = (self.range(), self.day);
        let region = format!(
            "/region?x0={}&x1={}&y0={}&y1={}&t0={}&t1={}",
            r.x0, r.x1, r.y0, r.y1, r.t0, r.t1
        );
        match self.kind {
            ReadKind::Density => format!("/density?x={}&y={}&t={day}", self.x, self.y),
            ReadKind::Region => region,
            ReadKind::RegionApprox => format!("{region}&max_err={MAX_ERR}"),
            ReadKind::Slice => format!("/slice?t={day}"),
        }
    }

    /// Voxels the answer covers (`/region`), or values it carries
    /// (`/slice`); 1 for `/density`.
    pub fn voxels(&self) -> usize {
        match self.kind {
            ReadKind::Density => 1,
            ReadKind::Region | ReadKind::RegionApprox => self.range().volume(),
            ReadKind::Slice => GXY * GXY,
        }
    }
}

/// One `POST /events`: a contiguous run of the timed feed.
#[derive(Debug, Clone, PartialEq)]
pub struct Post {
    /// Seconds after the start of the timed window.
    pub due_s: f64,
    /// Range into [`Plan::timed`].
    pub events: std::ops::Range<usize>,
}

/// Everything one run sends.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The year's events, sorted by time.
    feed: Vec<Point>,
    /// Events of the first 30 days (posted during set-up).
    warm_len: usize,
    /// The POSTs, in order.
    pub posts: Vec<Post>,
    /// The timed reads, in order.
    pub reads: Vec<Read>,
    /// Origins of the fixed `/region` boxes.
    pub hotspots: Vec<(usize, usize)>,
}

/// SplitMix64: a small, fully specified generator, so plans do not
/// depend on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// The day (time layer) an event falls in.
fn day_of(p: &Point) -> usize {
    (p.t as usize).min(GT - 1)
}

/// `k` of `events`, evenly spaced, in order (`k <= events.len()`).
fn thin(events: &[Point], k: usize) -> Vec<Point> {
    (0..k).map(|i| events[i * events.len() / k]).collect()
}

impl Plan {
    /// Build the plan for `workload`, `seed` and a timed window of
    /// `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        let load = workload.load();
        // The feed covers the year once: `warm_events` events in days 0–30
        // and `events_per_s × seconds` in days 30–365, each taken evenly (in
        // time order) from one draw large enough for both, so the two parts
        // share the city's clusters. The generator draws its clusters before
        // its events, so a small draw with the same seed gives the share of
        // the year that falls in the warm days.
        let timed_len = (load.events_per_s * seconds).round().max(1.0) as usize;
        let warm_share = {
            let sample = DatasetKind::Dengue.generate(20_000, extent(), seed);
            let warm = sample.iter().filter(|p| p.t < WINDOW_DAYS as f64).count();
            warm.max(1) as f64 / sample.len() as f64
        };
        let mut n = (1.1
            * (load.warm_events as f64 / warm_share).max(timed_len as f64 / (1.0 - warm_share)))
            as usize;
        let feed = loop {
            let mut year = DatasetKind::Dengue.generate(n, extent(), seed).into_vec();
            year.sort_by(|a, b| a.t.total_cmp(&b.t));
            let split = year.partition_point(|p| p.t < WINDOW_DAYS as f64);
            if split >= load.warm_events && year.len() - split >= timed_len {
                let mut feed = thin(&year[..split], load.warm_events);
                feed.extend(thin(&year[split..], timed_len));
                break feed;
            }
            n += n / 2;
        };
        let warm_len = load.warm_events;
        let (warm, timed) = feed.split_at(warm_len);

        let mut rng = Rng::new(seed, 1);
        let hotspots = (0..HOTSPOTS)
            .map(|_| {
                let p = timed[rng.below(timed.len())];
                let origin = |v: f64| {
                    ((v / 100.0) as usize)
                        .saturating_sub(BOX / 2)
                        .min(GXY - BOX)
                };
                (origin(p.x), origin(p.y))
            })
            .collect::<Vec<_>>();

        let rate = load.posts_per_s;
        let n_posts = (rate * seconds).round().max(1.0) as usize;
        let posts: Vec<Post> = (0..n_posts)
            .map(|i| Post {
                due_s: (i as f64 + 0.5 * rng.unit()) / rate,
                events: i * timed.len() / n_posts..(i + 1) * timed.len() / n_posts,
            })
            .collect();

        let n_reads = (load.reads_per_s * seconds).round() as usize;
        let warm_day = warm.last().map_or(0, day_of);
        let reads = (0..n_reads)
            .map(|j| {
                let due_s = (j as f64 + rng.unit()) / load.reads_per_s;
                // Newest day among the POSTs due by now.
                let due_posts = posts.partition_point(|p| p.due_s <= due_s);
                let day = posts[..due_posts]
                    .iter()
                    .rev()
                    .find(|p| !p.events.is_empty())
                    .map_or(warm_day, |p| day_of(&timed[p.events.end - 1]));
                let kind = ReadKind::draw(rng.unit());
                let (x, y, edge) = match kind {
                    ReadKind::Region => {
                        let (x, y) = hotspots[zipf(&mut rng, HOTSPOTS)];
                        (x, y, BOX)
                    }
                    ReadKind::Density => {
                        let (x, y) = hotspots[zipf(&mut rng, HOTSPOTS)];
                        (x + BOX / 2, y + BOX / 2, 1)
                    }
                    ReadKind::RegionApprox => (0, 0, GXY),
                    ReadKind::Slice => (0, 0, GXY),
                };
                Read {
                    due_s,
                    kind,
                    x,
                    y,
                    edge,
                    day,
                }
            })
            .collect();

        Self {
            feed,
            warm_len,
            posts,
            reads,
            hotspots,
        }
    }

    /// Events of the first 30 days, posted during set-up.
    pub fn warm(&self) -> &[Point] {
        &self.feed[..self.warm_len]
    }

    /// The rest of the year, posted during the timed window.
    pub fn timed(&self) -> &[Point] {
        &self.feed[self.warm_len..]
    }

    /// Events of one POST.
    pub fn post_events(&self, post: &Post) -> &[Point] {
        &self.timed()[post.events.clone()]
    }

    /// FNV-1a hash of the whole request sequence: every event's
    /// coordinates, every POST's due time and extent, every read's due
    /// time and path.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for p in &self.feed {
            for v in [p.x, p.y, p.t] {
                h.write(&v.to_bits().to_le_bytes());
            }
        }
        for post in &self.posts {
            h.write(&post.due_s.to_bits().to_le_bytes());
            h.write(&(post.events.start as u64).to_le_bytes());
            h.write(&(post.events.end as u64).to_le_bytes());
        }
        for read in &self.reads {
            h.write(&read.due_s.to_bits().to_le_bytes());
            h.write(read.path().as_bytes());
        }
        h.0
    }
}

/// Zipf(1) rank in `0..n`: rank `k` drawn with weight `1/(k+1)`.
fn zipf(rng: &mut Rng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut u = rng.unit() * total;
    for k in 0..n {
        u -= 1.0 / (k + 1) as f64;
        if u < 0.0 {
            return k;
        }
    }
    n - 1
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for workload in [Workload::Dashboard, Workload::LiveMonitor] {
            let a = Plan::new(workload, 7, 0.5).fingerprint();
            let b = Plan::new(workload, 7, 0.5).fingerprint();
            let c = Plan::new(workload, 8, 0.5).fingerprint();
            assert_eq!(a, b, "{}: same seed must repeat", workload.name());
            assert_ne!(a, c, "{}: another seed must differ", workload.name());
        }
    }

    #[test]
    fn open_loop_plan_covers_the_timed_year_at_the_stated_rates() {
        let plan = Plan::new(Workload::LiveMonitor, 3, 2.0);
        assert_eq!(plan.posts.len(), 125);
        assert_eq!(plan.reads.len(), 200);
        assert_eq!(plan.posts.last().unwrap().events.end, plan.timed().len());
        assert_eq!(plan.timed().len(), 32_000);
        assert_eq!(plan.warm().len(), Workload::LiveMonitor.load().warm_events);
        assert!(plan.warm().iter().all(|p| p.t < WINDOW_DAYS as f64));
        assert!(plan.timed().iter().all(|p| p.t >= WINDOW_DAYS as f64));
        assert!(plan.timed().windows(2).all(|w| w[0].t <= w[1].t));
        // Reads never look ahead of the schedule's newest day.
        let last_day = day_of(plan.timed().last().unwrap());
        assert!(plan.reads.iter().all(|r| r.day <= last_day));
        let per_post = plan.timed().len() as f64 / plan.posts.len() as f64;
        assert!(
            (per_post - 256.0).abs() < 40.0,
            "{per_post} events per POST"
        );
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = Rng::new(1, 2);
        let mut counts = [0usize; HOTSPOTS];
        for _ in 0..20_000 {
            counts[zipf(&mut rng, HOTSPOTS)] += 1;
        }
        assert!(counts[0] > 2 * counts[3] && counts[3] > counts[31]);
    }
}
