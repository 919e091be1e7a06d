//! Approximate serve path: mip-pyramid region/slice reads vs the exact
//! full-resolution fold.
//!
//! The measured unit is one wide query against a published
//! [`CubeSnapshot`] — the serve tier's read path, minus HTTP. Pyramids
//! are built once outside the timed region (the service builds them
//! lazily and reuses them across queries via copy-on-write slabs), so
//! the ids time steady-state serving, not first-touch construction.
//!
//! Two ids time pyramid maintenance instead: `pyramid_full_build`
//! reduces one slab's pyramid from scratch, `pyramid_update_after_batch`
//! is the lazy build of the next snapshot after a batch that wrote at
//! most a third of that slab's layers — an incremental update of the
//! previous pyramid.
//!
//! Alongside the wall-clock ids this bench verifies the certified error
//! bound over a sweep of random boxes and budgets and appends the
//! violation count to `$STKDE_BENCH_JSON` (as `approx/bound_violations`,
//! offset by the guard's positivity floor). `bench_guard` enforces three
//! in-run invariants over these records: the coarsest-level full-grid
//! region must beat the exact fold by at least 8x, the violation count
//! must be zero, and the incremental update must cost at most 0.6x the
//! full build. Both sides of each come from the same process on the
//! same host, so the invariants are machine-independent.

use std::io::Write as _;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use stkde_core::{CubeSnapshot, Problem, ShardedWindowStkde};
use stkde_data::synth;
use stkde_grid::{Bandwidth, Domain, GridDims, MipPyramid, VoxelRange};
use stkde_kernels::{Epanechnikov, Tabulated};

const SHARDS: usize = 4;

fn domain() -> Domain {
    Domain::from_dims(GridDims::new(64, 64, 32))
}

fn bandwidth() -> Bandwidth {
    Bandwidth::new(6.0, 4.0)
}

fn full_grid() -> VoxelRange {
    let dims = domain().dims();
    VoxelRange {
        x0: 0,
        x1: dims.gx,
        y0: 0,
        y1: dims.gy,
        t0: 0,
        t1: dims.gt,
    }
}

/// Append a record in the criterion shim's JSONL format (see
/// `saturation.rs` for the precedent).
fn record_json(id: &str, best_s: f64) {
    let Ok(path) = std::env::var("STKDE_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line = format!("{{\"id\":\"{id}\",\"best_s\":{best_s:e}}}");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .unwrap_or_else(|e| eprintln!("warning: could not record {id} to {path}: {e}"));
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Certified-bound verification sweep: random boxes × budgets, counting
/// answers where `|approx − exact|` escapes the reported bound.
fn count_bound_violations(snap: &CubeSnapshot<f64>, base_err: f64) -> u64 {
    let dims = domain().dims();
    let mut rng = 0xD1B5_4A32_D192_ED03u64;
    let mut violations = 0u64;
    for _ in 0..200 {
        let mut axis = |hi: usize| {
            let a = (splitmix(&mut rng) as usize) % hi;
            let b = (splitmix(&mut rng) as usize) % hi;
            (a.min(b), a.max(b) + 1)
        };
        let (x0, x1) = axis(dims.gx);
        let (y0, y1) = axis(dims.gy);
        let (t0, t1) = axis(dims.gt);
        let r = VoxelRange {
            x0,
            x1,
            y0,
            y1,
            t0,
            t1,
        };
        let max_err = [0.02, 0.1, 0.5, 2.0][(splitmix(&mut rng) as usize) % 4];
        let a = snap.density_range_approx(r, max_err, base_err);
        let exact = snap.density_range(r);
        let ok = (a.stats.sum - exact.sum).abs() <= a.error_bound * exact.total as f64
            && (a.stats.max - exact.max).abs() <= a.error_bound
            && (a.stats.min - exact.min).abs() <= a.error_bound
            && a.stats.nonzero >= exact.nonzero;
        if !ok {
            violations += 1;
        }
    }
    violations
}

fn bench_approx(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));

    // The serve-tier arrangement: sharded cube, tabulated kernel, and
    // the kernel's certified error folded in as `base_err`.
    let kernel = Tabulated::new(Epanechnikov);
    let base_err = kernel.error_bound() * Problem::new(domain(), bandwidth(), 1).norm;
    let mut cube =
        ShardedWindowStkde::<f64, _>::with_kernel(domain(), bandwidth(), 1e9, SHARDS, kernel);
    let mut points = synth::uniform(2_000, domain().extent(), 67).into_vec();
    points.sort_by(|a, b| a.t.total_cmp(&b.t));
    cube.push_batch(&points);
    let snap = cube.publish();
    // Steady state: pyramids resident before anything is timed.
    snap.ensure_pyramids();

    let full = full_grid();
    group.bench_function("region_exact_full", |b| {
        b.iter(|| black_box(snap.density_range(black_box(full))))
    });
    // A budget generous enough that the coarsest level always certifies:
    // the walk accepts immediately, so this is the fast-path floor the
    // 8x in-run invariant holds the pyramid to.
    group.bench_function("region_approx_coarsest", |b| {
        b.iter(|| {
            let a = snap.density_range_approx(black_box(full), 8.0, base_err);
            assert!(a.level > 0, "generous budget must leave the exact path");
            black_box(a)
        })
    });
    // A serving-realistic budget: the walk may descend several levels
    // before one certifies. Tracked in the committed baseline.
    group.bench_function("region_approx_tight", |b| {
        b.iter(|| black_box(snap.density_range_approx(black_box(full), 0.05, base_err)))
    });
    let t_mid = domain().dims().gt / 2;
    group.bench_function("slice_exact", |b| {
        b.iter(|| black_box(snap.density_slice(black_box(t_mid))))
    });
    group.bench_function("slice_approx_coarse", |b| {
        b.iter(|| black_box(snap.density_slice_approx(black_box(t_mid), 2.0, base_err)))
    });
    bench_pyramid_maintenance(&mut group);
    group.finish();

    // In-run certified-bound verification (offset by 1e-9: the guard's
    // parser requires positive values; anything >= 1 is a violation).
    let violations = count_bound_violations(&snap, base_err);
    record_json("approx/bound_violations", violations as f64 + 1e-9);
}

/// Full pyramid build vs the incremental update after one batch, on the
/// upper of two 48-layer slabs.
fn bench_pyramid_maintenance(group: &mut criterion::BenchmarkGroup<'_>) {
    /// Update batches; the group's sample size caps the timed calls.
    const BATCHES: usize = 10;
    let domain = Domain::from_dims(GridDims::new(64, 64, 96));
    let kernel = Tabulated::new(Epanechnikov);
    let mut cube = ShardedWindowStkde::<f64, _>::with_kernel(domain, bandwidth(), 1e9, 2, kernel);
    let mut warm = synth::uniform(2_000, domain.extent(), 68).into_vec();
    for p in &mut warm {
        p.t *= 56.0 / 96.0;
    }
    warm.sort_by(|a, b| a.t.total_cmp(&b.t));
    cube.push_batch(&warm);
    let snap = cube.publish();
    snap.ensure_pyramids();
    let slab = &snap.shards()[1];
    assert_eq!((slab.t0, slab.t1), (48, 96));
    group.bench_function("pyramid_full_build", |b| {
        b.iter(|| black_box(MipPyramid::build(black_box(&slab.grid))))
    });
    drop(snap);

    // Batch k holds 64 events in t ∈ [56 + 3k, 59 + 3k): with ht = 4 it
    // writes about 12 of the upper slab's 48 layers, and never the
    // lower slab.
    let mut batches = (0..BATCHES).map(|k| {
        let mut events = synth::uniform(64, domain.extent(), 69 + k as u64).into_vec();
        for p in &mut events {
            p.t = 56.0 + 3.0 * k as f64 + p.t * 3.0 / 96.0;
        }
        events.sort_by(|a, b| a.t.total_cmp(&b.t));
        events
    });
    group.bench_function("pyramid_update_after_batch", |b| {
        b.iter_with_setup(
            || {
                let batch = batches.next().expect("one batch per sample");
                cube.push_batch(&batch);
                cube.publish()
            },
            |snap| {
                let report = snap.ensure_pyramids();
                assert_eq!(
                    (report.built, report.incremental),
                    (1, 1),
                    "only the upper slab changed, and it updates incrementally"
                );
                report
            },
        )
    });
}

criterion_group!(benches, bench_approx);
criterion_main!(benches);
