//! Answer checks, run after the timed window once ingest has drained.
//!
//! Exact `/region` and `/density` answers are compared with a batch
//! PB-SYM recomputation over the daemon's live events, using the serve
//! kernel; each may differ by the daemon's reported per-voxel
//! `kernel_error_bound`. Every `max_err` answer must lie within its own
//! `error_bound` of the exact answer of the same generation.

use crate::plan::{self, Plan, Rng, BOX, GXY, MAX_ERR};
use stkde_core::{Algorithm, Stkde};
use stkde_data::PointSet;
use stkde_grid::stats::{range_stats, top_k};
use stkde_grid::{GridStats, VoxelRange};
use stkde_server::json::Json;
use stkde_server::{Client, DensityService, ServeKernel};

/// Outcome of the checks.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Largest observed error as a share of its tolerance (≤ 1 passes).
    pub worst_share: f64,
    /// The check that came closest to its tolerance.
    pub worst: String,
    /// What failed, for the log.
    pub notes: Vec<String>,
}

impl CheckReport {
    fn check(&mut self, what: &str, err: f64, tol: f64) {
        self.attempted += 1;
        let share = if tol > 0.0 { err / tol } else { f64::INFINITY };
        if err <= tol {
            if share > self.worst_share {
                self.worst_share = share;
                self.worst = what.to_string();
            }
        } else {
            self.failed += 1;
            self.notes
                .push(format!("{what}: off by {err:e}, tolerance {tol:e}"));
        }
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.notes.push(what);
    }
}

fn field(body: &Json, key: &str) -> Option<f64> {
    body.get(key).and_then(Json::as_f64)
}

/// GET `path` and return the body of a 200, or note the failure.
fn get_ok(client: &Client, path: &str, report: &mut CheckReport) -> Option<Json> {
    match client.get(path) {
        Ok((200, body)) => Some(body),
        Ok((status, body)) => {
            report.fail(format!("{path} answered {status}: {}", body.encode()));
            None
        }
        Err(e) => {
            report.fail(format!("{path}: {e}"));
            None
        }
    }
}

/// Run every check against the drained daemon.
pub fn run(svc: &DensityService, client: &Client, plan: &Plan, seed: u64) -> CheckReport {
    let mut report = CheckReport::default();
    let live = svc.live_points();
    let Some(newest) = live.last().map(|p| (p.t as usize).min(plan::GT - 1)) else {
        report.fail("the window holds no events".into());
        return report;
    };
    let Some(kb) = get_ok(client, "/stats", &mut report)
        .as_ref()
        .and_then(|s| field(s, "kernel_error_bound"))
    else {
        report.fail("/stats lacks kernel_error_bound".into());
        return report;
    };
    let config = plan::service_config();
    let reference = Stkde::new(config.domain, config.bandwidth)
        .kernel(ServeKernel::default())
        .algorithm(Algorithm::PbSym)
        .compute::<f64>(&PointSet::from_vec(live))
        .expect("PB-SYM recomputation of the live window")
        .grid;
    let peak = range_stats(&reference, VoxelRange::full(plan::dims())).max;
    // Summation-order slack between the incremental cube and the batch
    // recomputation: far below the kernel bound, but not zero.
    let slack = 1e-9 * peak;

    let (t0, t1) = plan::trailing(newest);
    let mut boxes: Vec<VoxelRange> = plan
        .hotspots
        .iter()
        .map(|&(x, y)| VoxelRange {
            x0: x,
            x1: x + BOX,
            y0: y,
            y1: y + BOX,
            t0,
            t1,
        })
        .collect();
    boxes.push(VoxelRange {
        x0: 0,
        x1: GXY,
        y0: 0,
        y1: GXY,
        t0,
        t1,
    });

    for b in &boxes {
        let q = format!(
            "x0={}&x1={}&y0={}&y1={}&t0={}&t1={}",
            b.x0, b.x1, b.y0, b.y1, b.t0, b.t1
        );
        let Some(exact) = get_ok(client, &format!("/region?{q}"), &mut report) else {
            continue;
        };
        let want: GridStats = range_stats(&reference, *b);
        let n = want.total as f64;
        match (
            field(&exact, "sum"),
            field(&exact, "max"),
            field(&exact, "min"),
        ) {
            (Some(sum), Some(max), Some(min)) => {
                report.check(
                    &format!("/region?{q} sum"),
                    (sum - want.sum).abs(),
                    kb * n + slack * n,
                );
                report.check(
                    &format!("/region?{q} max"),
                    (max - want.max).abs(),
                    kb + slack,
                );
                report.check(
                    &format!("/region?{q} min"),
                    (min - want.min).abs(),
                    kb + slack,
                );
            }
            _ => report.fail(format!("/region?{q} lacks sum/max/min")),
        }

        let Some(approx) = get_ok(
            client,
            &format!("/region?{q}&max_err={MAX_ERR}"),
            &mut report,
        ) else {
            continue;
        };
        if field(&approx, "generation") != field(&exact, "generation") {
            report.fail(format!(
                "/region?{q}: approximate and exact answers of different generations"
            ));
            continue;
        }
        match (
            field(&approx, "error_bound"),
            field(&approx, "sum"),
            field(&approx, "max"),
            field(&approx, "min"),
            field(&exact, "sum"),
            field(&exact, "max"),
            field(&exact, "min"),
        ) {
            (Some(eb), Some(sa), Some(ma), Some(mina), Some(se), Some(me), Some(mine)) => {
                // The bound already carries its own float-summation slack.
                report.check(&format!("/region?{q}&max_err sum"), (sa - se).abs(), eb * n);
                report.check(&format!("/region?{q}&max_err max"), (ma - me).abs(), eb);
                report.check(&format!("/region?{q}&max_err min"), (mina - mine).abs(), eb);
            }
            _ => report.fail(format!("/region?{q}&max_err lacks error_bound/sum/max/min")),
        }
    }

    // Voxels: the reference's hottest, plus a seeded sample of the window.
    let mut voxels: Vec<(usize, usize, usize)> =
        top_k(&reference, 8).into_iter().map(|(v, _)| v).collect();
    let mut rng = Rng::new(seed, 2);
    voxels.extend((0..24).map(|_| (rng.below(GXY), rng.below(GXY), t0 + rng.below(t1 - t0))));
    for (x, y, t) in voxels {
        let path = format!("/density?x={x}&y={y}&t={t}");
        let Some(body) = get_ok(client, &path, &mut report) else {
            continue;
        };
        match field(&body, "density") {
            Some(d) => report.check(&path, (d - reference.get(x, y, t)).abs(), kb + slack),
            None => report.fail(format!("{path} lacks density")),
        }
    }
    report
}
