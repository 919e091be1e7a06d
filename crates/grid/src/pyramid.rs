//! Multi-resolution mip pyramid over a [`Grid3`] for error-bounded
//! approximate serving.
//!
//! Each level halves every axis (ceiling division), and each coarse cell
//! stores the **sum**, **max**, and **min** of the base voxels it covers:
//!
//! * sums make region aggregates cheap at any level (a cell-aligned region
//!   aggregate needs one read per cell instead of one per voxel),
//! * max and min propagate *exactly* through the reduction (`max` of `max`es
//!   is the true block max, bit-for-bit), so every level-ℓ answer carries a
//!   certified per-voxel error envelope: no voxel in a cell can differ from
//!   the cell mean by more than `max(max − mean, mean − min)`.
//!
//! Min is stored alongside the issue-level sum/max pair because float
//! cancellation in an insert/evict stream can leave ulp-negative voxels;
//! an envelope that assumed `min ≥ 0` would not be certifiable.
//!
//! The reduction is rayon-parallel over coarse T-planes; level ℓ is built
//! from level ℓ−1 so the whole pyramid costs a geometric series over the
//! base sweep (< 1/7 of the base volume in cells). After writes confined
//! to a few base T-layers, [`MipPyramid::update`] re-reduces only the
//! coarse T-planes above them; a full build is the all-dirty update.

use crate::dims::GridDims;
use crate::grid3::Grid3;
use crate::range::VoxelRange;
use crate::scalar::Scalar;
use rayon::prelude::*;

/// Per-cell statistics of the base voxels a pyramid cell covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Sum of covered base voxels (f64 tree summation).
    pub sum: f64,
    /// Exact maximum of covered base voxels.
    pub max: f64,
    /// Exact minimum of covered base voxels.
    pub min: f64,
}

impl CellStats {
    /// Reduction identity (`sum = 0`, `max = −∞`, `min = +∞`).
    pub const EMPTY: Self = Self {
        sum: 0.0,
        max: f64::NEG_INFINITY,
        min: f64::INFINITY,
    };

    #[inline]
    fn absorb(&mut self, other: Self) {
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Cell mean clamped into `[min, max]`.
    ///
    /// The clamp is what keeps the envelope certified: `min ≤ v ≤ max`
    /// holds *exactly* for every covered voxel `v` (max/min propagate
    /// without rounding), so for any representative `m ∈ [min, max]`,
    /// `|v − m| ≤ max(max − m, m − min)` is a real-number inequality —
    /// even if `sum / count` rounded outside the interval.
    #[inline]
    pub fn mean(&self, count: usize) -> f64 {
        (self.sum / count as f64).clamp(self.min, self.max)
    }

    /// Certified per-voxel error envelope around [`CellStats::mean`].
    #[inline]
    pub fn envelope(&self, count: usize) -> f64 {
        let m = self.mean(count);
        (self.max - m).max(m - self.min).max(0.0)
    }
}

/// One pyramid level: a coarse grid of [`CellStats`] in the same X-fastest
/// layout as [`Grid3`].
#[derive(Debug, Clone)]
pub struct PyramidLevel {
    level: u32,
    dims: GridDims,
    cells: Vec<CellStats>,
}

impl PyramidLevel {
    /// Level index (1 = first reduction; cells cover `2×2×2` voxels).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Coarse dimensions of this level.
    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// The cell at coarse coordinates `(cx, cy, ct)`.
    #[inline]
    pub fn cell(&self, cx: usize, cy: usize, ct: usize) -> &CellStats {
        &self.cells[self.dims.idx(cx, cy, ct)]
    }

    /// The base-voxel box a cell covers, clipped to the base grid.
    #[inline]
    pub fn cell_base_range(&self, base: GridDims, cx: usize, cy: usize, ct: usize) -> VoxelRange {
        let s = 1usize << self.level;
        VoxelRange {
            x0: cx * s,
            x1: ((cx + 1) * s).min(base.gx),
            y0: cy * s,
            y1: ((cy + 1) * s).min(base.gy),
            t0: ct * s,
            t1: ((ct + 1) * s).min(base.gt),
        }
    }
}

/// Approximate region aggregates served from one pyramid level, together
/// with the certification material the serving tier needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxStats {
    /// Approximate sum over the region (exact cell sums for fully covered
    /// cells, `covered × mean` for partially covered cells).
    pub sum: f64,
    /// Approximate maximum (`−∞` for an empty region).
    pub max: f64,
    /// Approximate minimum (`+∞` for an empty region).
    pub min: f64,
    /// Certified *upper bound* on the number of non-zero voxels: every
    /// voxel counted lives in a cell whose `(max, min) ≠ (0, 0)`; a cell
    /// with both zero covers only zeros.
    pub nonzero_upper: usize,
    /// Voxels in the region.
    pub total: usize,
    /// Certified per-voxel error envelope: max cell envelope over the
    /// *partially covered* cells (0 when the region is cell-aligned).
    /// `|approx − exact| ≤ env` holds for `max` and `min`, and
    /// `|sum_approx − sum_exact| ≤ env · total`, all up to float-summation
    /// rounding covered by [`ApproxStats::rounding_slack`].
    pub env: f64,
    /// Magnitude scale of the covered values (`max(|max|, |min|)` over
    /// covered cells) — the multiplier for rounding slack.
    pub scale: f64,
    /// Pyramid cells visited to produce this answer.
    pub cells: usize,
}

impl ApproxStats {
    /// Conservative per-voxel allowance for float-summation rounding, in
    /// the same unit as the voxel values.
    ///
    /// Both the pyramid's tree summation and an exact sequential
    /// `range_stats` sweep accumulate `n` values with worst-case relative
    /// error `O(n·ε)`; `16·ε·(n + 64)·scale` covers both sides with
    /// headroom. This is what lets a *zero* envelope (cell-aligned query
    /// over a constant region) still certify against a reference that
    /// summed in a different order.
    pub fn rounding_slack(&self) -> f64 {
        16.0 * f64::EPSILON * (self.total as f64 + 64.0) * self.scale
    }
}

/// A downsampled time plane served from one pyramid level: cell means at
/// the level's spatial resolution, plus the certification material.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceEstimate {
    /// Cells per row (the level's `gx`).
    pub width: usize,
    /// Rows (the level's `gy`).
    pub height: usize,
    /// Row-major `height × width` cell means (each replicates to a
    /// `2^ℓ × 2^ℓ` base block).
    pub values: Vec<f64>,
    /// Certified per-voxel error envelope: max cell envelope over the
    /// plane (`|mean − voxel| ≤ env` for every base voxel in the plane).
    pub env: f64,
    /// Magnitude scale of the plane's cells (rounding-slack multiplier).
    pub scale: f64,
}

impl SliceEstimate {
    /// Conservative per-value float-rounding allowance (cell means come
    /// from one division over a tree sum; see [`ApproxStats::rounding_slack`]).
    pub fn rounding_slack(&self) -> f64 {
        16.0 * f64::EPSILON * 64.0 * self.scale
    }
}

/// A mip pyramid: successive 2×2×2 (ceiling) reductions of a base grid
/// down to a single root cell.
#[derive(Debug, Clone)]
pub struct MipPyramid {
    base: GridDims,
    levels: Vec<PyramidLevel>,
}

impl MipPyramid {
    /// Build the full pyramid (levels `1..=L` until a `1×1×1` root) — the
    /// all-dirty case of [`update`](Self::update).
    ///
    /// A `1×1×1` base grid yields an empty pyramid (`levels() == 0`).
    pub fn build<S: Scalar>(grid: &Grid3<S>) -> Self {
        let base = grid.dims();
        let mut levels: Vec<PyramidLevel> = Vec::new();
        let mut dims = base;
        while dims.volume() > 1 {
            dims = halved(dims);
            levels.push(PyramidLevel {
                level: levels.len() as u32 + 1,
                dims,
                cells: vec![CellStats::EMPTY; dims.volume()],
            });
        }
        let mut pyramid = Self { base, levels };
        pyramid.update(grid, &vec![true; base.gt]);
        pyramid
    }

    /// Bring the pyramid up to date with `grid` after writes confined to
    /// the base T-layers marked in `dirty` (`dirty[t]` for layer `t`):
    /// level by level, re-reduce only the coarse T-planes that cover a
    /// dirty layer, in parallel over planes. Returns the coarse T-planes
    /// re-reduced, summed over levels.
    ///
    /// Every cell is recomputed from scratch in the same (t, y, x) child
    /// order as a full build, so the result is bit-identical to
    /// [`build`](Self::build) of `grid` — provided the pyramid was built
    /// from a grid that differs from `grid` only on dirty layers.
    ///
    /// # Panics
    /// Panics if `grid` or `dirty` does not match the base dimensions.
    pub fn update<S: Scalar>(&mut self, grid: &Grid3<S>, dirty: &[bool]) -> usize {
        assert_eq!(grid.dims(), self.base, "pyramid base dimensions changed");
        assert_eq!(dirty.len(), self.base.gt, "one dirty flag per base layer");
        let mut dirty = dirty.to_vec();
        let mut child = self.base;
        let mut planes = 0;
        for i in 0..self.levels.len() {
            let (finer, rest) = self.levels.split_at_mut(i);
            let lvl = &mut rest[0];
            dirty = (0..lvl.dims.gt)
                .map(|ct| dirty[2 * ct] || dirty.get(2 * ct + 1) == Some(&true))
                .collect();
            planes += dirty.iter().filter(|&&d| d).count();
            match finer.last() {
                None => reduce_planes(lvl, child, grid.as_slice(), &dirty, |v: &S| {
                    let v = v.to_f64();
                    CellStats {
                        sum: v,
                        max: v,
                        min: v,
                    }
                }),
                Some(prev) => reduce_planes(lvl, child, &prev.cells, &dirty, |c: &CellStats| *c),
            }
            child = lvl.dims;
        }
        planes
    }

    /// Base grid dimensions the pyramid was built from.
    #[inline]
    pub fn base_dims(&self) -> GridDims {
        self.base
    }

    /// Number of levels, `L` (the coarsest usable level index).
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Level `l ∈ 1..=L`, or `None` outside that range.
    #[inline]
    pub fn level(&self, l: usize) -> Option<&PyramidLevel> {
        if l == 0 {
            return None;
        }
        self.levels.get(l - 1)
    }

    /// Root statistics of the whole base grid: `(sum, max, min)`.
    /// Max and min are *exact*; only meaningful when `levels() > 0`.
    pub fn root(&self) -> Option<CellStats> {
        self.levels.last().map(|l| l.cells[0])
    }

    /// Heap bytes held by all levels (the resident-bytes gauge).
    pub fn heap_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.cells.capacity() * std::mem::size_of::<CellStats>())
            .sum()
    }

    /// Approximate the aggregates of region `r` from level `l`.
    ///
    /// `r` must already be clipped to the base grid. An empty `r` returns
    /// the empty-region identity (like `range_stats`). Panics if `l` is
    /// not in `1..=levels()`.
    pub fn range_estimate(&self, l: usize, r: VoxelRange) -> ApproxStats {
        let lvl = self.level(l).expect("pyramid level out of range");
        let mut acc = ApproxStats {
            sum: 0.0,
            max: f64::NEG_INFINITY,
            min: f64::INFINITY,
            nonzero_upper: 0,
            total: r.volume(),
            env: 0.0,
            scale: 0.0,
            cells: 0,
        };
        if r.is_empty() {
            return acc;
        }
        let s = l as u32;
        let (cx0, cx1) = (r.x0 >> s, ((r.x1 - 1) >> s) + 1);
        let (cy0, cy1) = (r.y0 >> s, ((r.y1 - 1) >> s) + 1);
        let (ct0, ct1) = (r.t0 >> s, ((r.t1 - 1) >> s) + 1);
        for ct in ct0..ct1 {
            for cy in cy0..cy1 {
                for cx in cx0..cx1 {
                    let cell = lvl.cell(cx, cy, ct);
                    let bounds = lvl.cell_base_range(self.base, cx, cy, ct);
                    let count = bounds.volume();
                    let covered = bounds.intersect(r).volume();
                    debug_assert!(covered > 0);
                    acc.cells += 1;
                    acc.scale = acc.scale.max(cell.max.abs()).max(cell.min.abs());
                    if cell.max != 0.0 || cell.min != 0.0 {
                        acc.nonzero_upper += covered;
                    }
                    if covered == count {
                        acc.sum += cell.sum;
                        acc.max = acc.max.max(cell.max);
                        acc.min = acc.min.min(cell.min);
                    } else {
                        let m = cell.mean(count);
                        acc.sum += covered as f64 * m;
                        acc.max = acc.max.max(m);
                        acc.min = acc.min.min(m);
                        acc.env = acc.env.max(cell.envelope(count));
                    }
                }
            }
        }
        acc
    }

    /// The [`ApproxStats::env`] that [`range_estimate`](Self::range_estimate)
    /// reports for `r` at level `l`, found by visiting only the cells on
    /// the box's unaligned faces — the only cells a box covers partially.
    ///
    /// A cell-box face is partial when `r` starts (ends) inside its first
    /// (last) cell along that axis; cells shared by two faces are visited
    /// twice, which a max ignores. Same contract as `range_estimate`.
    pub fn range_envelope(&self, l: usize, r: VoxelRange) -> f64 {
        let lvl = self.level(l).expect("pyramid level out of range");
        if r.is_empty() {
            return 0.0;
        }
        let s = l as u32;
        let mut env = 0.0f64;
        let mut visit = |(cx0, cx1): (usize, usize), (cy0, cy1), (ct0, ct1)| {
            for ct in ct0..ct1 {
                for cy in cy0..cy1 {
                    for cx in cx0..cx1 {
                        let count = lvl.cell_base_range(self.base, cx, cy, ct).volume();
                        env = env.max(lvl.cell(cx, cy, ct).envelope(count));
                    }
                }
            }
        };
        let span = |a0: usize, a1: usize| (a0 >> s, ((a1 - 1) >> s) + 1);
        let (x, y, t) = (span(r.x0, r.x1), span(r.y0, r.y1), span(r.t0, r.t1));
        // A box end is partial when it falls inside a cell: off the cell
        // grid and short of the (clipped) base extent.
        let partial = |a: usize, n: usize| a & ((1 << s) - 1) != 0 && a < n;
        if partial(r.x0, self.base.gx) {
            visit((x.0, x.0 + 1), y, t);
        }
        if partial(r.x1, self.base.gx) {
            visit((x.1 - 1, x.1), y, t);
        }
        if partial(r.y0, self.base.gy) {
            visit(x, (y.0, y.0 + 1), t);
        }
        if partial(r.y1, self.base.gy) {
            visit(x, (y.1 - 1, y.1), t);
        }
        if partial(r.t0, self.base.gt) {
            visit(x, y, (t.0, t.0 + 1));
        }
        if partial(r.t1, self.base.gt) {
            visit(x, y, (t.1 - 1, t.1));
        }
        env
    }

    /// The downsampled plane covering base time layer `t` at level `l`.
    ///
    /// Every base voxel `(x, y, t)` maps to the cell at
    /// `(x >> l, y >> l)` in the returned plane, and differs from that
    /// cell's value by at most [`SliceEstimate::env`] (the cell also
    /// aggregates the other time layers it covers, so the envelope
    /// accounts for temporal variation too). Panics if `l` is not in
    /// `1..=levels()` or `t` is out of range.
    pub fn slice_estimate(&self, l: usize, t: usize) -> SliceEstimate {
        assert!(t < self.base.gt, "time layer out of range");
        let lvl = self.level(l).expect("pyramid level out of range");
        let d = lvl.dims();
        let ct = t >> l as u32;
        let mut out = SliceEstimate {
            width: d.gx,
            height: d.gy,
            values: Vec::with_capacity(d.gx * d.gy),
            env: 0.0,
            scale: 0.0,
        };
        for cy in 0..d.gy {
            for cx in 0..d.gx {
                let cell = lvl.cell(cx, cy, ct);
                let count = lvl.cell_base_range(self.base, cx, cy, ct).volume();
                out.values.push(cell.mean(count));
                out.env = out.env.max(cell.envelope(count));
                out.scale = out.scale.max(cell.max.abs()).max(cell.min.abs());
            }
        }
        out
    }
}

/// Ceiling-halved dimensions (axes saturate at 1).
fn halved(d: GridDims) -> GridDims {
    GridDims::new(d.gx.div_ceil(2), d.gy.div_ceil(2), d.gt.div_ceil(2))
}

/// Re-reduce the T-planes of `lvl` marked in `dirty` from its child layer
/// (base grid voxels or the finer level's cells, `child` dims, X-fastest),
/// in parallel over planes. Child rows are read as slices; each cell
/// absorbs its children in (t, y, x) order, whatever planes are redone.
fn reduce_planes<T: Sync>(
    lvl: &mut PyramidLevel,
    child: GridDims,
    data: &[T],
    dirty: &[bool],
    stats: impl Fn(&T) -> CellStats + Sync,
) {
    let dims = lvl.dims;
    let planes: Vec<(usize, &mut [CellStats])> = lvl
        .cells
        .chunks_mut(dims.gx * dims.gy)
        .enumerate()
        .filter(|(ct, _)| dirty[*ct])
        .collect();
    planes.into_par_iter().for_each(|(ct, out)| {
        out.fill(CellStats::EMPTY);
        for t in ct * 2..(ct * 2 + 2).min(child.gt) {
            for y in 0..child.gy {
                let row = &data[child.idx(0, y, t)..][..child.gx];
                let out_row = &mut out[(y / 2) * dims.gx..][..dims.gx];
                for (acc, pair) in out_row.iter_mut().zip(row.chunks(2)) {
                    for v in pair {
                        acc.absorb(stats(v));
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::range_stats;
    use proptest::prelude::*;

    fn filled_grid(dims: GridDims, f: impl Fn(usize) -> f64) -> Grid3<f64> {
        let mut g = Grid3::zeros(dims);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            *v = f(i);
        }
        g
    }

    fn brute_cell(g: &Grid3<f64>, r: VoxelRange) -> CellStats {
        let mut acc = CellStats::EMPTY;
        for (x, y, t) in r.iter() {
            let v = g.get(x, y, t);
            acc.absorb(CellStats {
                sum: v,
                max: v,
                min: v,
            });
        }
        acc
    }

    #[test]
    fn level_count_reaches_root() {
        let g: Grid3<f64> = Grid3::zeros(GridDims::new(64, 64, 32));
        let p = MipPyramid::build(&g);
        assert_eq!(p.levels(), 6);
        assert_eq!(p.level(6).unwrap().dims(), GridDims::new(1, 1, 1));
        assert!(p.level(0).is_none());
        assert!(p.level(7).is_none());
        assert!(p.heap_bytes() > 0);
    }

    #[test]
    fn unit_grid_has_no_levels() {
        let g: Grid3<f32> = Grid3::zeros(GridDims::new(1, 1, 1));
        let p = MipPyramid::build(&g);
        assert_eq!(p.levels(), 0);
        assert!(p.root().is_none());
    }

    #[test]
    fn root_max_min_are_exact() {
        let g = filled_grid(GridDims::new(13, 7, 5), |i| ((i * 37) % 101) as f64 - 50.0);
        let p = MipPyramid::build(&g);
        let root = p.root().unwrap();
        let s = range_stats(&g, VoxelRange::full(g.dims()));
        assert_eq!(root.max, s.max);
        assert_eq!(root.min, s.min);
        assert!((root.sum - s.sum).abs() <= 1e-9 * s.sum.abs().max(1.0));
    }

    #[test]
    fn aligned_region_max_is_exact() {
        let g = filled_grid(GridDims::new(16, 16, 8), |i| (i % 17) as f64);
        let p = MipPyramid::build(&g);
        let r = VoxelRange {
            x0: 4,
            x1: 12,
            y0: 0,
            y1: 8,
            t0: 0,
            t1: 4,
        };
        let a = p.range_estimate(2, r);
        let s = range_stats(&g, r);
        assert_eq!(a.env, 0.0);
        assert_eq!(a.max, s.max);
        assert_eq!(a.min, s.min);
        assert!((a.sum - s.sum).abs() <= a.rounding_slack() * a.total as f64);
        assert!(a.nonzero_upper >= s.nonzero);
    }

    #[test]
    fn slice_estimate_envelope_holds() {
        let g = filled_grid(GridDims::new(11, 9, 6), |i| ((i * 31) % 57) as f64 - 20.0);
        let p = MipPyramid::build(&g);
        for t in 0..6 {
            for l in 1..=p.levels() {
                let s = p.slice_estimate(l, t);
                let d = p.level(l).unwrap().dims();
                assert_eq!((s.width, s.height), (d.gx, d.gy));
                for y in 0..9 {
                    for x in 0..11 {
                        let cell_val = s.values[(y >> l) * s.width + (x >> l)];
                        let exact = g.get(x, y, t);
                        assert!(
                            (cell_val - exact).abs() <= s.env + s.rounding_slack(),
                            "l={l} t={t} ({x},{y}): {cell_val} vs {exact} env {}",
                            s.env
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_region_is_identity() {
        let g: Grid3<f64> = Grid3::zeros(GridDims::new(8, 8, 8));
        let p = MipPyramid::build(&g);
        let a = p.range_estimate(1, VoxelRange::empty());
        assert_eq!(a.total, 0);
        assert_eq!(a.sum, 0.0);
        assert!(a.max.is_infinite() && a.max < 0.0);
    }

    /// Every cell's `(sum, max, min)` bit patterns, level by level.
    fn cell_bits(p: &MipPyramid) -> Vec<[u64; 3]> {
        (1..=p.levels())
            .flat_map(|l| p.level(l).unwrap().cells.iter())
            .map(|c| [c.sum.to_bits(), c.max.to_bits(), c.min.to_bits()])
            .collect()
    }

    fn hashed(i: usize, seed: u64) -> f64 {
        let h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed);
        ((h >> 32) as i64 % 1000) as f64 / 10.0
    }

    #[test]
    fn update_without_dirty_layers_is_a_no_op() {
        let g = filled_grid(GridDims::new(9, 7, 5), |i| hashed(i, 3));
        let mut p = MipPyramid::build(&g);
        let before = cell_bits(&p);
        assert_eq!(p.update(&g, &[false; 5]), 0);
        assert_eq!(cell_bits(&p), before);
    }

    proptest! {
        #[test]
        fn cells_match_brute_force(
            gx in 1usize..20, gy in 1usize..20, gt in 1usize..12,
            seed in 0u64..1000
        ) {
            let dims = GridDims::new(gx, gy, gt);
            // Deterministic pseudo-random values, sign-mixed to exercise min.
            let g = filled_grid(dims, |i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
                ((h >> 32) as i64 % 1000) as f64 / 10.0
            });
            let p = MipPyramid::build(&g);
            prop_assert!(p.levels() >= 1 || dims.volume() == 1);
            for l in 1..=p.levels() {
                let lvl = p.level(l).unwrap();
                for (cx, cy, ct) in lvl.dims().iter() {
                    let r = lvl.cell_base_range(dims, cx, cy, ct);
                    prop_assert!(!r.is_empty());
                    let b = brute_cell(&g, r);
                    let c = lvl.cell(cx, cy, ct);
                    prop_assert_eq!(c.max, b.max);
                    prop_assert_eq!(c.min, b.min);
                    let tol = 1e-9 * b.sum.abs().max(1.0);
                    prop_assert!((c.sum - b.sum).abs() <= tol);
                }
            }
        }

        #[test]
        fn range_estimate_envelope_holds(
            gx in 2usize..24, gy in 2usize..24, gt in 1usize..10,
            x0 in 0usize..24, xw in 1usize..24,
            y0 in 0usize..24, yw in 1usize..24,
            t0 in 0usize..10, tw in 1usize..10,
            seed in 0u64..500
        ) {
            let dims = GridDims::new(gx, gy, gt);
            let g = filled_grid(dims, |i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed * 7919);
                ((h >> 32) as i64 % 1000) as f64 / 25.0
            });
            let p = MipPyramid::build(&g);
            let r = VoxelRange { x0, x1: x0 + xw, y0, y1: y0 + yw, t0, t1: t0 + tw }
                .clipped(dims);
            prop_assume!(!r.is_empty());
            let s = range_stats(&g, r);
            for l in 1..=p.levels() {
                let a = p.range_estimate(l, r);
                let slack = a.rounding_slack();
                prop_assert_eq!(a.total, s.total);
                prop_assert!((a.max - s.max).abs() <= a.env + slack,
                    "level {} max: approx {} exact {} env {}", l, a.max, s.max, a.env);
                prop_assert!((a.min - s.min).abs() <= a.env + slack,
                    "level {} min: approx {} exact {} env {}", l, a.min, s.min, a.env);
                prop_assert!((a.sum - s.sum).abs() <= (a.env + slack) * a.total as f64,
                    "level {} sum: approx {} exact {} env {}", l, a.sum, s.sum, a.env);
                prop_assert!(a.nonzero_upper >= s.nonzero);
                prop_assert!(a.nonzero_upper <= a.total);
            }
        }

        #[test]
        fn update_over_dirty_layers_equals_build(
            gx in 1usize..20, gy in 1usize..20, gt in 1usize..12,
            mask in 0u32..4096, seed in 0u64..1000
        ) {
            let dims = GridDims::new(gx, gy, gt);
            let dirty: Vec<bool> = (0..gt).map(|t| mask >> t & 1 == 1).collect();
            let before = filled_grid(dims, |i| hashed(i, seed));
            // Change every voxel of the dirty layers, nothing else.
            let after = filled_grid(dims, |i| {
                if dirty[i / (gx * gy)] { hashed(i, seed + 1) - 7.5 } else { hashed(i, seed) }
            });
            let mut p = MipPyramid::build(&before);
            let planes = p.update(&after, &dirty);
            let rebuilt = MipPyramid::build(&after);
            prop_assert_eq!(cell_bits(&p), cell_bits(&rebuilt));
            // The re-reduced planes are exactly those over a dirty layer.
            let expected: usize = (1..=p.levels())
                .map(|l| {
                    let lvl = p.level(l).unwrap();
                    (0..lvl.dims().gt)
                        .filter(|&ct| {
                            let r = lvl.cell_base_range(dims, 0, 0, ct);
                            dirty[r.t0..r.t1].contains(&true)
                        })
                        .count()
                })
                .sum();
            prop_assert_eq!(planes, expected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One hot voxel dominates every envelope it is part of, so the
        /// answer depends on whether its cell is partially covered —
        /// on which face, if any, it lies.
        #[test]
        fn range_envelope_matches_range_estimate(
            gx in 1usize..24, gy in 1usize..24, gt in 1usize..10,
            x0 in 0usize..24, xw in 1usize..24,
            y0 in 0usize..24, yw in 1usize..24,
            t0 in 0usize..10, tw in 1usize..10,
            hot in 0usize..5760, seed in 0u64..500
        ) {
            let dims = GridDims::new(gx, gy, gt);
            let hot = hot % dims.volume();
            let g = filled_grid(dims, |i| if i == hot { 1e3 } else { hashed(i, seed) });
            let p = MipPyramid::build(&g);
            let r = VoxelRange { x0, x1: x0 + xw, y0, y1: y0 + yw, t0, t1: t0 + tw }
                .clipped(dims);
            for l in 1..=p.levels() {
                prop_assert_eq!(p.range_envelope(l, r), p.range_estimate(l, r).env);
            }
        }
    }
}
