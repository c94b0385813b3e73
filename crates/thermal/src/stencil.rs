//! Matrix-free stencil form of the compact thermal operator.
//!
//! A [`StencilOperator`] stores the RC-network operator of one operating
//! point as a handful of per-layer scalars (lateral conductances,
//! advection coefficient, capacitance-over-Δt diagonal shift), per
//! interface couplings, cavity wall-skip conductances and an optional
//! lumped heat-sink node — O(nz) numbers instead of O(n·nnz/row) assembled
//! storage — and applies `y = A·x` directly from the grid geometry.
//!
//! # Bit-identity contract
//!
//! [`StencilOperator::matvec_into`] and the assembled form returned by
//! [`StencilOperator::assemble`] produce **bit-identical** products. The
//! assembled CSC scatters column by column, so each row `r` of
//! `CscMatrix::matvec_into` is the sum, starting from `+0.0`, of its
//! entries' products taken in **ascending column order**. The stencil
//! apply gathers rows instead: per layer plane it zeroes `y`, then adds
//! one contiguous `y[a..b] += coef·x[a+off..b+off]` pass per coupling
//! class in ascending column offset — wall below, interface below, `gy`
//! up, left (`gx` or upwind `adv`), diagonal, right `gx`, `gy` down,
//! interface above, wall above, sink broadcast — and finishes the sink
//! row as a sequential sum over the top plane followed by its diagonal.
//! Every row therefore replays exactly the accumulation sequence of the
//! CSC product. This is the [`LinearOperator`] interchangeability
//! contract the iterative solvers rely on when a solve mixes
//! representations (e.g. a matrix-free fine level over an assembled
//! direct-LU fallback).
//!
//! The CSC product skips columns whose `x` entry is `±0.0`; the gather
//! does not mirror that skip because it cannot matter: a skipped term is
//! a finite coefficient times `±0.0`, i.e. `±0.0`, and adding `±0.0` to a
//! running sum that starts at `+0.0` never changes its bits (the sum can
//! never become `-0.0`, since `+0.0 + -0.0 = +0.0` and exact
//! cancellation rounds to `+0.0`). NaN and infinite `x` entries are not
//! zero, so both forms process them.
//!
//! A coefficient that is exactly `0.0` is *structurally absent*: neither
//! the matvec nor the assembled matrix applies it, using the same `!= 0.0`
//! predicate (decided once per layer in the gather), so the two forms
//! always agree on sparsity as well as on bits — including which rows a
//! non-finite `x` entry reaches.
//!
//! # Layer taxonomy
//!
//! * [`StencilLayerKind::Solid`] — lateral x/y conduction, vertical
//!   coupling through the interfaces, no advection.
//! * [`StencilLayerKind::Cavity`] — a liquid micro-channel layer: upwind
//!   advection along +x (each cell couples to its upstream neighbour
//!   only — the structurally *nonsymmetric* part of the operator),
//!   vertical convective coupling through the interfaces, no lateral
//!   conduction.
//! * [`StencilLayerKind::DirichletCavity`] — a two-phase cavity pinned at
//!   saturation temperature: its rows are exact identity rows (`T = T_sat`
//!   moves to the right-hand side), while neighbouring solid rows still
//!   couple *into* the cavity column through one-sided interface
//!   conductances.
//!
//! # Coarsening
//!
//! [`StencilOperator::coarsen`] re-discretises the same physics on the
//! 2×-coarser in-plane grid ([`GridShape::coarsened`]), the exact-physics
//! hierarchy builder for the geometric multigrid preconditioner: lateral
//! conductances are invariant under uniform 2× in-plane coarsening
//! (`k·(2Δy)·t/(2Δx) = k·Δy·t/Δx`), area-proportional couplings
//! (interfaces, wall skips, per-cell capacitance, sink spreading) scale
//! ×4, the advection coefficient (∝ channel count × Δy) scales ×2, and
//! the lumped sink node passes through unchanged.

use cmosaic_sparse::{CscMatrix, GridShape, LinearOperator};

/// Physical role of one layer of a [`StencilOperator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StencilLayerKind {
    /// Conducting solid: lateral + vertical conduction, no advection.
    Solid,
    /// Single-phase coolant cavity: upwind advection along +x plus
    /// vertical convective coupling; no lateral conduction.
    Cavity,
    /// Two-phase cavity pinned at saturation temperature: identity rows,
    /// with one-sided couplings from the neighbouring solid rows.
    DirichletCavity,
}

/// Per-layer stencil coefficients (all conductances in W/K).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilLayer {
    /// What the layer is; constrains which coefficients may be nonzero
    /// (see [`StencilOperator::new`]).
    pub kind: StencilLayerKind,
    /// Lateral conductance between x-neighbours.
    pub gx: f64,
    /// Lateral conductance between y-neighbours.
    pub gy: f64,
    /// Upwind advection coefficient: `+adv` on the diagonal, `-adv` to
    /// the upstream (x−1) neighbour; inlet cells carry the upstream term
    /// on the right-hand side instead.
    pub adv: f64,
    /// Extra diagonal term per cell — the backward-Euler `C/Δt` shift
    /// (zero for steady-state operators).
    pub diag_extra: f64,
}

/// Vertical coupling across one interface, between layers `z` and `z+1`.
///
/// Stored one-sided so Dirichlet cavities fall out naturally: the matrix
/// entry `a[z+1·plane, z·plane] = -lower` (how strongly the *upper* row
/// couples down into the lower column) and `a[z·plane, z+1·plane] =
/// -upper`. Symmetric conduction/convection sets `lower == upper`; a
/// Dirichlet cavity zeroes the component pointing *out of* its own row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilInterface {
    /// Conductance carried by the upper layer's row toward the lower
    /// layer (column-`z` entry).
    pub lower: f64,
    /// Conductance carried by the lower layer's row toward the upper
    /// layer (column-`z+1` entry).
    pub upper: f64,
}

impl StencilInterface {
    /// A symmetric interface coupling of conductance `g`.
    pub fn symmetric(g: f64) -> Self {
        StencilInterface { lower: g, upper: g }
    }
}

/// The lumped heat-sink node terminating the stack (always the last
/// unknown).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilSink {
    /// Spreading conductance from each top-layer cell to the sink node.
    pub g_top: f64,
    /// Sink-to-ambient conductance (its ambient product lives in the
    /// model's right-hand side, not in the operator).
    pub lumped: f64,
    /// Sink `C/Δt` diagonal shift for transient operators.
    pub diag_extra: f64,
}

/// Matrix-free structured-grid thermal operator; see the
/// [module docs](self) for the representation, the bit-identity contract
/// with [`StencilOperator::assemble`], and the coarsening rules.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilOperator {
    shape: GridShape,
    layers: Vec<StencilLayer>,
    interfaces: Vec<StencilInterface>,
    walls: Vec<f64>,
    sink: Option<StencilSink>,
    /// Precomputed diagonal (length `shape.n()`), shared verbatim by
    /// `matvec_into` and `assemble` so the two forms cannot disagree on
    /// the one entry built from many terms.
    diag: Vec<f64>,
}

impl StencilOperator {
    /// Builds the operator and precomputes its diagonal.
    ///
    /// `walls[z]` is the conduction skip *through the walls of cavity
    /// `z`*, coupling layers `z-1` and `z+1` directly; boundary entries
    /// (`walls[0]`, `walls[nz-1]`) must be zero since they have no pair
    /// of neighbours to couple.
    ///
    /// # Panics
    ///
    /// Panics when the inputs are inconsistent (programmer error — the
    /// thermal model constructs these from validated geometry):
    /// `layers`/`interfaces`/`walls` lengths not `nz`/`nz-1`/`nz`,
    /// `shape.extra` disagreeing with `sink.is_some()`, a non-finite or
    /// negative coefficient, a nonzero boundary wall entry, or a
    /// coefficient forbidden by the layer kind ([`Solid`] with advection,
    /// [`Cavity`] with lateral conduction, [`DirichletCavity`] with any
    /// nonzero coefficient).
    ///
    /// [`Solid`]: StencilLayerKind::Solid
    /// [`Cavity`]: StencilLayerKind::Cavity
    /// [`DirichletCavity`]: StencilLayerKind::DirichletCavity
    pub fn new(
        shape: GridShape,
        layers: Vec<StencilLayer>,
        interfaces: Vec<StencilInterface>,
        walls: Vec<f64>,
        sink: Option<StencilSink>,
    ) -> Self {
        let nz = shape.nz;
        assert!(nz >= 1 && shape.nx >= 1 && shape.ny >= 1, "empty grid");
        assert_eq!(layers.len(), nz, "one StencilLayer per tier");
        assert_eq!(
            interfaces.len(),
            nz - 1,
            "one StencilInterface per adjacent layer pair"
        );
        assert_eq!(walls.len(), nz, "one wall-skip conductance per tier");
        assert_eq!(
            shape.extra,
            usize::from(sink.is_some()),
            "shape.extra must count exactly the sink node"
        );
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        for (z, l) in layers.iter().enumerate() {
            assert!(
                ok(l.gx) && ok(l.gy) && ok(l.adv) && ok(l.diag_extra),
                "layer {z}: non-finite or negative coefficient"
            );
            match l.kind {
                StencilLayerKind::Solid => {
                    assert!(l.adv == 0.0, "layer {z}: solid layers do not advect")
                }
                StencilLayerKind::Cavity => assert!(
                    l.gx == 0.0 && l.gy == 0.0,
                    "layer {z}: cavities have no lateral conduction"
                ),
                StencilLayerKind::DirichletCavity => assert!(
                    l.gx == 0.0 && l.gy == 0.0 && l.adv == 0.0 && l.diag_extra == 0.0,
                    "layer {z}: Dirichlet rows are identity rows"
                ),
            }
        }
        for (z, i) in interfaces.iter().enumerate() {
            assert!(
                ok(i.lower) && ok(i.upper),
                "interface {z}: non-finite or negative coupling"
            );
        }
        for (z, &w) in walls.iter().enumerate() {
            assert!(ok(w), "wall {z}: non-finite or negative conductance");
            assert!(
                w == 0.0 || (z >= 1 && z + 1 < nz),
                "wall {z}: boundary layers have no pair of neighbours to skip-couple"
            );
        }
        if let Some(s) = &sink {
            assert!(
                ok(s.g_top) && ok(s.lumped) && ok(s.diag_extra),
                "sink: non-finite or negative coefficient"
            );
        }

        let mut op = StencilOperator {
            shape,
            layers,
            interfaces,
            walls,
            sink,
            diag: vec![0.0; shape.n()],
        };
        op.compute_diagonal();
        op
    }

    /// Rebuilds `self.diag` from the current coefficients.
    fn compute_diagonal(&mut self) {
        let GridShape { nx, ny, nz, .. } = self.shape;
        let mut c = 0usize;
        for (z, layer) in self.layers.iter().enumerate() {
            for iy in 0..ny {
                for ix in 0..nx {
                    self.diag[c] = if layer.kind == StencilLayerKind::DirichletCavity {
                        1.0
                    } else {
                        let x_nb = u32::from(ix > 0) + u32::from(ix + 1 < nx);
                        let y_nb = u32::from(iy > 0) + u32::from(iy + 1 < ny);
                        let mut d = layer.diag_extra
                            + layer.adv
                            + layer.gx * f64::from(x_nb)
                            + layer.gy * f64::from(y_nb);
                        if z >= 1 {
                            d += self.interfaces[z - 1].lower;
                        }
                        if z + 1 < nz {
                            d += self.interfaces[z].upper;
                        }
                        if z >= 2 {
                            d += self.walls[z - 1];
                        }
                        if z + 2 < nz {
                            d += self.walls[z + 1];
                        }
                        if z + 1 == nz {
                            if let Some(s) = &self.sink {
                                d += s.g_top;
                            }
                        }
                        d
                    };
                    c += 1;
                }
            }
        }
        if let Some(s) = &self.sink {
            self.diag[c] = s.lumped + s.diag_extra + (nx * ny) as f64 * s.g_top;
        }
    }

    /// The structured-grid shape this operator lives on.
    pub fn shape(&self) -> GridShape {
        self.shape
    }

    /// The precomputed main diagonal (length `shape.n()`) — what the
    /// multigrid Jacobi smoother consumes.
    pub fn diagonal(&self) -> &[f64] {
        &self.diag
    }

    /// Per-layer coefficients, bottom tier first.
    pub fn layers(&self) -> &[StencilLayer] {
        &self.layers
    }

    /// Per-interface vertical couplings (`nz - 1` entries).
    pub fn interfaces(&self) -> &[StencilInterface] {
        &self.interfaces
    }

    /// Cavity wall-skip conductances (`nz` entries, boundaries zero).
    pub fn walls(&self) -> &[f64] {
        &self.walls
    }

    /// The lumped sink node, when present.
    pub fn sink(&self) -> Option<&StencilSink> {
        self.sink.as_ref()
    }

    /// Emits the stored entries of cell column `c = (z, iy, ix)` in
    /// ascending row order for [`Self::assemble`]; [`Self::matvec_into`]
    /// gathers the same entries row-wise with the same zero predicate.
    /// Zero coefficients are structurally absent.
    #[inline]
    fn cell_column(
        &self,
        z: usize,
        iy: usize,
        ix: usize,
        c: usize,
        emit: &mut impl FnMut(usize, f64),
    ) {
        let GridShape { nx, ny, nz, .. } = self.shape;
        let nxy = nx * ny;
        let layer = &self.layers[z];
        if z >= 2 {
            let w = self.walls[z - 1];
            if w != 0.0 {
                emit(c - 2 * nxy, -w);
            }
        }
        if z >= 1 {
            let g = self.interfaces[z - 1].upper;
            if g != 0.0 {
                emit(c - nxy, -g);
            }
        }
        if iy > 0 && layer.gy != 0.0 {
            emit(c - nx, -layer.gy);
        }
        if ix > 0 && layer.gx != 0.0 {
            emit(c - 1, -layer.gx);
        }
        emit(c, self.diag[c]);
        if ix + 1 < nx {
            // At most one of gx/adv is nonzero (enforced per kind), so
            // this is the lateral conduction entry on solid layers and
            // the downstream upwind entry on cavity layers.
            let g = layer.gx + layer.adv;
            if g != 0.0 {
                emit(c + 1, -g);
            }
        }
        if iy + 1 < ny && layer.gy != 0.0 {
            emit(c + nx, -layer.gy);
        }
        if z + 1 < nz {
            let g = self.interfaces[z].lower;
            if g != 0.0 {
                emit(c + nxy, -g);
            }
        }
        if z + 2 < nz {
            let w = self.walls[z + 1];
            if w != 0.0 {
                emit(c + 2 * nxy, -w);
            }
        }
        if z + 1 == nz {
            if let Some(s) = &self.sink {
                if s.g_top != 0.0 {
                    emit(self.shape.cells(), -s.g_top);
                }
            }
        }
    }

    /// Emits the sink column (the last column) in ascending row order:
    /// every top-layer cell row, then the sink diagonal.
    #[inline]
    fn sink_column(&self, s: &StencilSink, emit: &mut impl FnMut(usize, f64)) {
        let cells = self.shape.cells();
        let nxy = self.shape.nx * self.shape.ny;
        if s.g_top != 0.0 {
            for r in (cells - nxy)..cells {
                emit(r, -s.g_top);
            }
        }
        emit(cells, self.diag[cells]);
    }

    /// `y = A·x`, fully overwriting `y`, with zero heap allocation —
    /// bit-identical to `assemble().matvec_into(x, y)` (see the
    /// [module docs](self)).
    ///
    /// Row gather, one layer plane at a time: the plane is zeroed, then
    /// each present coupling class adds `coef·x[a+off..b+off]` into
    /// `y[a..b]` as one contiguous pass, in ascending column offset, so
    /// every row sees its entries in the order the assembled CSC scatter
    /// applies them.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` differs from `shape.n()`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        let n = self.shape.n();
        assert_eq!(x.len(), n, "matvec_into: x dimension mismatch");
        assert_eq!(y.len(), n, "matvec_into: y dimension mismatch");
        let GridShape { nx, ny, nz, .. } = self.shape;
        let nxy = nx * ny;
        let cells = self.shape.cells();
        for (z, layer) in self.layers.iter().enumerate() {
            let p = z * nxy;
            let yz = &mut y[p..p + nxy];
            yz.fill(0.0);
            if z >= 2 && self.walls[z - 1] != 0.0 {
                axpy(yz, -self.walls[z - 1], &x[p - 2 * nxy..p - nxy]);
            }
            if z >= 1 && self.interfaces[z - 1].lower != 0.0 {
                axpy(yz, -self.interfaces[z - 1].lower, &x[p - nxy..p]);
            }
            let gy = (ny > 1 && layer.gy != 0.0).then_some(-layer.gy);
            if let Some(g) = gy {
                axpy(&mut yz[nx..], g, &x[p..p + nxy - nx]);
            }
            // At most one of gx/adv is nonzero (enforced per kind): the
            // upstream neighbour's column carries lateral conduction on
            // solid layers and the upwind advection on cavity layers.
            let left = layer.gx + layer.adv;
            if nx > 1 && left != 0.0 {
                for (yr, xr) in yz.chunks_exact_mut(nx).zip(x[p..p + nxy].chunks_exact(nx)) {
                    axpy(&mut yr[1..], -left, &xr[..nx - 1]);
                }
            }
            for ((yi, &d), &xi) in yz
                .iter_mut()
                .zip(&self.diag[p..p + nxy])
                .zip(&x[p..p + nxy])
            {
                *yi += d * xi;
            }
            if nx > 1 && layer.gx != 0.0 {
                for (yr, xr) in yz.chunks_exact_mut(nx).zip(x[p..p + nxy].chunks_exact(nx)) {
                    axpy(&mut yr[..nx - 1], -layer.gx, &xr[1..]);
                }
            }
            if let Some(g) = gy {
                axpy(&mut yz[..nxy - nx], g, &x[p + nx..p + nxy]);
            }
            if z + 1 < nz && self.interfaces[z].upper != 0.0 {
                axpy(yz, -self.interfaces[z].upper, &x[p + nxy..p + 2 * nxy]);
            }
            if z + 2 < nz && self.walls[z + 1] != 0.0 {
                axpy(yz, -self.walls[z + 1], &x[p + 2 * nxy..p + 3 * nxy]);
            }
            if z + 1 == nz {
                if let Some(s) = self.sink.filter(|s| s.g_top != 0.0) {
                    let v = -s.g_top * x[cells];
                    for yi in yz {
                        *yi += v;
                    }
                }
            }
        }
        if let Some(s) = &self.sink {
            let mut acc = 0.0;
            if s.g_top != 0.0 {
                for &xc in &x[cells - nxy..cells] {
                    acc += -s.g_top * xc;
                }
            }
            y[cells] = acc + self.diag[cells] * x[cells];
        }
    }

    /// Assembles the operator into CSC form, preserving the stencil's
    /// column-major, row-ascending emission order entry for entry — the
    /// result's `matvec_into` is bit-identical to [`Self::matvec_into`],
    /// and its pattern is the exact structural sparsity (no explicit
    /// zeros).
    pub fn assemble(&self) -> CscMatrix {
        let GridShape { nx, ny, nz, .. } = self.shape;
        let n = self.shape.n();
        let mut rows: Vec<usize> = Vec::new();
        let mut cols: Vec<usize> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        let mut c = 0usize;
        for z in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    self.cell_column(z, iy, ix, c, &mut |r, v| {
                        rows.push(r);
                        cols.push(c);
                        vals.push(v);
                    });
                    c += 1;
                }
            }
        }
        if let Some(s) = &self.sink {
            self.sink_column(s, &mut |r, v| {
                rows.push(r);
                cols.push(c);
                vals.push(v);
            });
        }
        CscMatrix::from_triplets(n, n, &rows, &cols, &vals)
    }

    /// Re-discretises the operator on the 2×-coarser in-plane grid, or
    /// `None` when the shape cannot coarsen ([`GridShape::coarsened`]).
    /// See the [module docs](self) for the scaling rules.
    pub fn coarsen(&self) -> Option<StencilOperator> {
        let shape = self.shape.coarsened()?;
        let layers = self
            .layers
            .iter()
            .map(|l| StencilLayer {
                kind: l.kind,
                gx: l.gx,
                gy: l.gy,
                adv: 2.0 * l.adv,
                diag_extra: 4.0 * l.diag_extra,
            })
            .collect();
        let interfaces = self
            .interfaces
            .iter()
            .map(|i| StencilInterface {
                lower: 4.0 * i.lower,
                upper: 4.0 * i.upper,
            })
            .collect();
        let walls = self.walls.iter().map(|&w| 4.0 * w).collect();
        let sink = self.sink.map(|s| StencilSink {
            g_top: 4.0 * s.g_top,
            lumped: s.lumped,
            diag_extra: s.diag_extra,
        });
        Some(StencilOperator::new(shape, layers, interfaces, walls, sink))
    }
}

impl LinearOperator for StencilOperator {
    fn nrows(&self) -> usize {
        self.shape.n()
    }

    fn ncols(&self) -> usize {
        self.shape.n()
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        StencilOperator::matvec_into(self, x, y);
    }

    /// Maximum absolute value over the *emitted* entries — bit-identical
    /// to `LinearOperator::max_abs` of [`Self::assemble`]'s result: the
    /// diagonal array plus each structurally present coefficient class
    /// (lateral/advective terms exist only when the grid spans more than
    /// one cell along the axis; boundary walls are zero by construction).
    fn max_abs(&self) -> f64 {
        let mut m = self.diag.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for layer in &self.layers {
            if self.shape.nx > 1 {
                m = m.max(layer.gx.abs()).max(layer.adv.abs());
            }
            if self.shape.ny > 1 {
                m = m.max(layer.gy.abs());
            }
        }
        for i in &self.interfaces {
            m = m.max(i.lower.abs()).max(i.upper.abs());
        }
        for &w in &self.walls {
            m = m.max(w.abs());
        }
        if let Some(s) = &self.sink {
            m = m.max(s.g_top.abs());
        }
        m
    }

    /// Damped Jacobi (the trait default) followed by one downstream
    /// Gauss–Seidel substitution along each advecting cavity channel, in
    /// ascending-x order so the substitution solves the upwind advection
    /// chain *exactly* given the current vertical neighbours. Point
    /// Jacobi alone moves advective error only one cell upstream per
    /// sweep, making V-cycle convergence degrade ∝ nx on liquid-cooled
    /// stacks; the flow-ordered pass restores resolution-independent
    /// smoothing while remaining a deterministic, allocation-free linear
    /// function of `(x, b)` (fixed traversal order, no branches on
    /// values).
    fn smooth_pass(
        &self,
        x: &mut [f64],
        b: &[f64],
        inv_diag: &[f64],
        omega: f64,
        scratch: &mut [f64],
    ) {
        self.matvec_into(x, scratch);
        assert!(
            b.len() == x.len() && inv_diag.len() == x.len(),
            "smooth_pass: slice length mismatch"
        );
        for (((xi, &di), &bi), &si) in x.iter_mut().zip(inv_diag).zip(b).zip(&*scratch) {
            *xi += omega * di * (bi - si);
        }
        let GridShape { nx, ny, nz, .. } = self.shape;
        let nxy = nx * ny;
        for (z, layer) in self.layers.iter().enumerate() {
            // Only Cavity layers carry advection (enforced in `new`);
            // Dirichlet rows are identity rows the Jacobi pass already
            // solved exactly.
            if layer.adv == 0.0 {
                continue;
            }
            // Full row substitution: x[c] = (b[c] − Σ_offdiag)/diag.
            // Cavity rows have no lateral conduction, so the off-diagonals
            // are the upstream advective neighbour (already updated this
            // sweep — the Gauss–Seidel part), the vertical couplings, any
            // wall skips and the sink spreading term, added in that order.
            // Their presence and the sink product are per-layer constants.
            let wall_below = (z >= 2 && self.walls[z - 1] != 0.0).then(|| self.walls[z - 1]);
            let below = (z >= 1).then(|| self.interfaces[z - 1].lower);
            let above = (z + 1 < nz).then(|| self.interfaces[z].upper);
            let wall_above = (z + 2 < nz && self.walls[z + 1] != 0.0).then(|| self.walls[z + 1]);
            let sink = if z + 1 == nz {
                self.sink.map(|sk| sk.g_top * x[self.shape.cells()])
            } else {
                None
            };
            let p = z * nxy;
            // Column-outer, row-inner: each channel row is an independent
            // upstream chain, so interleaving the rows overlaps their
            // dependency latencies without changing any row's sequence.
            for ix in 0..nx {
                for c in (p + ix..p + nxy).step_by(nx) {
                    let mut s = b[c];
                    if ix > 0 {
                        s += layer.adv * x[c - 1];
                    }
                    if let Some(w) = wall_below {
                        s += w * x[c - 2 * nxy];
                    }
                    if let Some(g) = below {
                        s += g * x[c - nxy];
                    }
                    if let Some(g) = above {
                        s += g * x[c + nxy];
                    }
                    if let Some(w) = wall_above {
                        s += w * x[c + 2 * nxy];
                    }
                    if let Some(v) = sink {
                        s += v;
                    }
                    x[c] = s * inv_diag[c];
                }
            }
        }
    }
}

/// `y += a·x` over equal-length slices: the contiguous pass every
/// coupling class of [`StencilOperator::matvec_into`] reduces to.
#[inline]
fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG over (-1, 1) — the crate has no dev-dependency
    /// on a property-testing framework, so randomized coverage is seeded
    /// and reproducible by construction.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let unit = (*state >> 11) as f64 / (1u64 << 53) as f64;
        2.0 * unit - 1.0
    }

    fn solid(g: f64, extra: f64) -> StencilLayer {
        StencilLayer {
            kind: StencilLayerKind::Solid,
            gx: g,
            gy: 0.8 * g,
            adv: 0.0,
            diag_extra: extra,
        }
    }

    fn cavity(adv: f64) -> StencilLayer {
        StencilLayer {
            kind: StencilLayerKind::Cavity,
            gx: 0.0,
            gy: 0.0,
            adv,
            diag_extra: 0.0,
        }
    }

    fn dirichlet() -> StencilLayer {
        StencilLayer {
            kind: StencilLayerKind::DirichletCavity,
            gx: 0.0,
            gy: 0.0,
            adv: 0.0,
            diag_extra: 0.0,
        }
    }

    /// A 4-tier liquid-cooled stack slice: solid / cavity / solid / solid
    /// with a wall skip through the cavity and a lumped sink on top.
    fn liquid_stack(nx: usize, ny: usize, transient: bool) -> StencilOperator {
        let extra = if transient { 2.5e-3 } else { 0.0 };
        StencilOperator::new(
            GridShape {
                nx,
                ny,
                nz: 4,
                extra: 1,
            },
            vec![
                solid(1.7, extra),
                cavity(0.45),
                solid(2.1, 1.3 * extra),
                solid(0.9, 0.7 * extra),
            ],
            vec![
                StencilInterface::symmetric(0.31),
                StencilInterface::symmetric(0.27),
                StencilInterface::symmetric(1.9),
            ],
            vec![0.0, 0.12, 0.0, 0.0],
            Some(StencilSink {
                g_top: 3.4,
                lumped: 11.0,
                diag_extra: if transient { 0.8 } else { 0.0 },
            }),
        )
    }

    /// A stack whose cavity is a Dirichlet (two-phase) layer: one-sided
    /// interface couplings into the cavity column, identity cavity rows.
    fn dirichlet_stack(nx: usize, ny: usize) -> StencilOperator {
        StencilOperator::new(
            GridShape {
                nx,
                ny,
                nz: 3,
                extra: 1,
            },
            vec![solid(1.1, 0.0), dirichlet(), solid(1.4, 0.0)],
            vec![
                StencilInterface {
                    lower: 0.0,
                    upper: 0.62,
                },
                StencilInterface {
                    lower: 0.55,
                    upper: 0.0,
                },
            ],
            vec![0.0, 0.09, 0.0],
            Some(StencilSink {
                g_top: 2.2,
                lumped: 7.5,
                diag_extra: 0.0,
            }),
        )
    }

    /// Draws a test vector with exact zeros sprinkled in (every fifth
    /// entry, plus one negative zero) to exercise the column-skip
    /// predicate both forms share.
    fn seeded_vector(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut x: Vec<f64> = (0..n).map(|_| lcg(&mut state)).collect();
        for (i, v) in x.iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = 0.0;
            }
        }
        if n > 3 {
            x[3] = -0.0;
        }
        x
    }

    /// A stack of arbitrary layers for edge-shape coverage: interface
    /// couplings pointing out of a Dirichlet row are zero (one-sided),
    /// all others nonzero and asymmetric.
    fn stack(
        nx: usize,
        ny: usize,
        layers: Vec<StencilLayer>,
        walls: Vec<f64>,
        sink: Option<StencilSink>,
    ) -> StencilOperator {
        let pinned = |l: &StencilLayer| l.kind == StencilLayerKind::DirichletCavity;
        let interfaces = (1..layers.len())
            .map(|z| {
                let g = 0.11 + 0.2 * z as f64;
                StencilInterface {
                    lower: if pinned(&layers[z]) { 0.0 } else { g },
                    upper: if pinned(&layers[z - 1]) { 0.0 } else { 1.3 * g },
                }
            })
            .collect();
        let shape = GridShape {
            nx,
            ny,
            nz: layers.len(),
            extra: usize::from(sink.is_some()),
        };
        StencilOperator::new(shape, layers, interfaces, walls, sink)
    }

    fn sink(transient: bool) -> Option<StencilSink> {
        Some(StencilSink {
            g_top: 3.4,
            lumped: 11.0,
            diag_extra: if transient { 0.8 } else { 0.0 },
        })
    }

    /// The reference stacks plus the edge shapes: one, two and five
    /// tiers (two cavities with wall skips), no sink, a single in-plane
    /// cell, two-cell axes, and a transient Dirichlet stack.
    fn shapes() -> Vec<StencilOperator> {
        let e = 2.5e-3;
        let five = || {
            vec![
                solid(1.7, e),
                cavity(0.45),
                solid(2.1, 1.3 * e),
                cavity(0.7),
                solid(0.9, 0.7 * e),
            ]
        };
        let four = || {
            vec![
                solid(1.7, 0.0),
                cavity(0.45),
                solid(2.1, 0.0),
                solid(0.9, 0.0),
            ]
        };
        let walls5 = || vec![0.0, 0.12, 0.0, 0.2, 0.0];
        let walls4 = || vec![0.0, 0.12, 0.0, 0.0];
        vec![
            liquid_stack(5, 3, false),
            liquid_stack(5, 3, true),
            liquid_stack(1, 4, true), // nx == 1: no lateral-x, no advection entries
            liquid_stack(6, 1, false), // ny == 1: no lateral-y entries
            liquid_stack(2, 6, true),
            liquid_stack(6, 2, false),
            liquid_stack(2, 2, true),
            dirichlet_stack(4, 3),
            dirichlet_stack(2, 4),
            stack(4, 3, vec![solid(1.2, e)], vec![0.0], sink(true)),
            stack(3, 2, vec![solid(1.2, 0.0)], vec![0.0], None),
            stack(
                5,
                2,
                vec![solid(1.3, 0.0), cavity(0.6)],
                vec![0.0; 2],
                sink(false),
            ),
            stack(2, 3, vec![cavity(0.6), solid(1.3, e)], vec![0.0; 2], None),
            stack(6, 4, five(), walls5(), sink(true)),
            stack(2, 2, five(), walls5(), None),
            stack(5, 3, four(), walls4(), None),
            stack(1, 1, four(), walls4(), sink(true)),
            // Zero lateral conduction and a sink with no spreading
            // conductance: every zero-coefficient predicate is exercised.
            stack(
                3,
                2,
                vec![solid(0.0, e), cavity(0.5)],
                vec![0.0; 2],
                Some(StencilSink {
                    g_top: 0.0,
                    lumped: 2.0,
                    diag_extra: 0.0,
                }),
            ),
            stack(
                4,
                3,
                vec![solid(1.1, e), dirichlet(), solid(1.4, 2.0 * e)],
                vec![0.0, 0.09, 0.0],
                sink(true),
            ),
        ]
    }

    /// Column-scatter reference matvec: every cell column emitted through
    /// `cell_column`, zero columns skipped — the accumulation
    /// `CscMatrix::matvec_into` performs on `assemble()`.
    fn scatter_matvec(op: &StencilOperator, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        let GridShape { nx, ny, nz, .. } = op.shape();
        let mut c = 0usize;
        for z in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let xc = x[c];
                    if xc != 0.0 {
                        op.cell_column(z, iy, ix, c, &mut |r, v| y[r] += v * xc);
                    }
                    c += 1;
                }
            }
        }
        if let Some(s) = op.sink() {
            let xc = x[c];
            if xc != 0.0 {
                op.sink_column(s, &mut |r, v| y[r] += v * xc);
            }
        }
    }

    /// Per-cell reference for `smooth_pass`: row-outer, every presence
    /// test re-evaluated per cell, same term order.
    fn reference_smooth_pass(
        op: &StencilOperator,
        x: &mut [f64],
        b: &[f64],
        inv_diag: &[f64],
        omega: f64,
        scratch: &mut [f64],
    ) {
        scatter_matvec(op, x, scratch);
        for i in 0..x.len() {
            x[i] += omega * inv_diag[i] * (b[i] - scratch[i]);
        }
        let GridShape { nx, ny, nz, .. } = op.shape();
        let nxy = nx * ny;
        for (z, layer) in op.layers().iter().enumerate() {
            if layer.adv == 0.0 {
                continue;
            }
            for iy in 0..ny {
                for ix in 0..nx {
                    let c = z * nxy + iy * nx + ix;
                    let mut s = b[c];
                    if ix > 0 {
                        s += layer.adv * x[c - 1];
                    }
                    if z >= 2 {
                        let w = op.walls()[z - 1];
                        if w != 0.0 {
                            s += w * x[c - 2 * nxy];
                        }
                    }
                    if z >= 1 {
                        s += op.interfaces()[z - 1].lower * x[c - nxy];
                    }
                    if z + 1 < nz {
                        s += op.interfaces()[z].upper * x[c + nxy];
                    }
                    if z + 2 < nz {
                        let w = op.walls()[z + 1];
                        if w != 0.0 {
                            s += w * x[c + 2 * nxy];
                        }
                    }
                    if z + 1 == nz {
                        if let Some(sk) = op.sink() {
                            s += sk.g_top * x[op.shape().cells()];
                        }
                    }
                    x[c] = s * inv_diag[c];
                }
            }
        }
    }

    /// Row-by-row agreement: finite rows bitwise, and non-finite rows
    /// non-finite in both (NaN payloads are not part of the contract).
    fn assert_rows_match(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if w.is_finite() {
                assert_eq!(g.to_bits(), w.to_bits(), "{what} row {i}: {g:e} != {w:e}");
            } else {
                assert!(!g.is_finite(), "{what} row {i}: {g:e}, reference {w:e}");
            }
        }
    }

    /// The stencil matvec against the assembled CSC product and the
    /// column-scatter reference.
    fn assert_matvec_matches(op: &StencilOperator, x: &[f64]) {
        let n = op.shape().n();
        let a = op.assemble();
        assert_eq!(a.nrows(), n);
        let mut y_stencil = vec![f64::NAN; n];
        let mut y_csc = vec![f64::NAN; n];
        let mut y_scatter = vec![f64::NAN; n];
        op.matvec_into(x, &mut y_stencil);
        a.matvec_into(x, &mut y_csc);
        scatter_matvec(op, x, &mut y_scatter);
        assert_rows_match(&y_stencil, &y_csc, "stencil vs assembled");
        assert_rows_match(&y_stencil, &y_scatter, "stencil vs scatter");
    }

    fn assert_bitwise_matvec(op: &StencilOperator, seed: u64) {
        assert_matvec_matches(op, &seeded_vector(op.shape().n(), seed));
    }

    #[test]
    fn matvec_is_bit_identical_to_assembled_csc() {
        for (i, op) in shapes().iter().enumerate() {
            let n = op.shape().n();
            for seed in [1u64, 77, 2026] {
                assert_bitwise_matvec(op, seed + i as u64);
            }
            // Signed zeros and non-finite entries, in the cells and in
            // the last unknown (the sink node where there is one).
            let mut special = seeded_vector(n, 9 + i as u64);
            special[0] = -0.0;
            special[n / 2] = f64::NAN;
            special[n - 1] = f64::INFINITY;
            assert_matvec_matches(op, &special);
            let mut special = seeded_vector(n, 31 + i as u64);
            special[n / 3] = f64::NEG_INFINITY;
            special[(2 * n) / 3] = f64::INFINITY;
            special[n - 1] = -0.0;
            assert_matvec_matches(op, &special);
            let zeros: Vec<f64> = (0..n)
                .map(|c| if c % 2 == 0 { 0.0 } else { -0.0 })
                .collect();
            assert_matvec_matches(op, &zeros);
        }
    }

    #[test]
    fn smoother_is_bit_identical_to_the_per_cell_reference() {
        for (i, op) in shapes().iter().enumerate() {
            let n = op.shape().n();
            let inv_diag: Vec<f64> = op.diagonal().iter().map(|d| 1.0 / d).collect();
            let b = seeded_vector(n, 500 + i as u64);
            let mut x = seeded_vector(n, 700 + i as u64);
            let mut x_ref = x.clone();
            let (mut scratch, mut scratch_ref) = (vec![0.0; n], vec![0.0; n]);
            for sweep in 0..3 {
                op.smooth_pass(&mut x, &b, &inv_diag, 0.8, &mut scratch);
                reference_smooth_pass(op, &mut x_ref, &b, &inv_diag, 0.8, &mut scratch_ref);
                assert_rows_match(&x, &x_ref, &format!("shape {i} sweep {sweep}"));
            }
        }
    }

    #[test]
    fn max_abs_is_bit_identical_to_assembled_fold() {
        for op in [
            liquid_stack(5, 3, true),
            liquid_stack(1, 4, false),
            liquid_stack(6, 1, true),
            dirichlet_stack(4, 3),
        ] {
            let a = op.assemble();
            assert_eq!(
                LinearOperator::max_abs(&op).to_bits(),
                LinearOperator::max_abs(&a).to_bits()
            );
        }
    }

    #[test]
    fn assembled_structure_matches_the_physics() {
        let op = liquid_stack(4, 3, false);
        let a = op.assemble();
        let nxy = 12;
        // Cavity layer (z = 1): upwind advection couples cell (1,0,1) to
        // its upstream neighbour only — structurally nonsymmetric.
        let c = nxy + 1;
        assert_eq!(a.get(c, c - 1), -0.45, "downstream row, upstream column");
        assert_eq!(a.get(c - 1, c), 0.0, "no reverse advective coupling");
        // No lateral conduction within the cavity.
        assert_eq!(a.get(c, c + 4), 0.0);
        // Wall skip through the cavity couples z=0 and z=2 directly.
        assert_eq!(a.get(1, 1 + 2 * nxy), -0.12);
        assert_eq!(a.get(1 + 2 * nxy, 1), -0.12);
        // Sink: every top-layer cell couples symmetrically to the last
        // node.
        let s = op.shape().cells();
        let top0 = 3 * nxy;
        assert_eq!(a.get(s, top0), -3.4);
        assert_eq!(a.get(top0, s), -3.4);
        assert_eq!(a.get(s, s), 11.0 + 12.0 * 3.4);
        // Solid lateral conduction is symmetric.
        assert_eq!(a.get(0, 1), -1.7);
        assert_eq!(a.get(1, 0), -1.7);
    }

    #[test]
    fn dirichlet_rows_are_identity_with_one_sided_couplings() {
        let op = dirichlet_stack(4, 3);
        let a = op.assemble();
        let nxy = 12;
        for cell in nxy..2 * nxy {
            // The cavity row is exactly [0.. 1 ..0].
            for col in 0..a.ncols() {
                let expect = if col == cell { 1.0 } else { 0.0 };
                assert_eq!(a.get(cell, col), expect, "row {cell}, col {col}");
            }
            // ...while the neighbouring solid rows still reach in.
            assert_eq!(a.get(cell - nxy, cell), -0.62, "below couples into cavity");
            assert_eq!(a.get(cell + nxy, cell), -0.55, "above couples into cavity");
        }
    }

    #[test]
    fn row_sums_reduce_to_source_and_storage_terms() {
        // A·1: conduction/convection terms cancel per row, leaving the
        // C/Δt shifts, the advective inlet excess, and the sink's
        // ambient-side conductance.
        let op = liquid_stack(4, 3, true);
        let n = op.shape().n();
        let ones = vec![1.0; n];
        let mut y = vec![0.0; n];
        op.matvec_into(&ones, &mut y);
        let nxy = 12;
        let layers = op.layers();
        for (c, &v) in y.iter().enumerate().take(op.shape().cells()) {
            let z = c / nxy;
            let ix = c % 4;
            let mut expect = layers[z].diag_extra;
            if layers[z].kind == StencilLayerKind::Cavity && ix == 0 {
                expect += layers[z].adv; // inlet upstream term lives on the RHS
            }
            assert!(
                (v - expect).abs() <= 1e-12 * op.max_abs(),
                "row {c}: got {v}, expected {expect}"
            );
        }
        let sink = op.sink().unwrap();
        assert!((y[n - 1] - (sink.lumped + sink.diag_extra)).abs() <= 1e-12 * op.max_abs());
    }

    #[test]
    fn coarsening_rescales_couplings_for_the_quadrupled_cell_area() {
        let fine = liquid_stack(8, 6, true);
        let coarse = fine.coarsen().expect("8x6 coarsens");
        assert_eq!(
            coarse.shape(),
            GridShape {
                nx: 4,
                ny: 3,
                nz: 4,
                extra: 1
            }
        );
        for (f, c) in fine.layers().iter().zip(coarse.layers()) {
            assert_eq!(c.kind, f.kind);
            assert_eq!(c.gx, f.gx, "lateral conductance is scale-invariant");
            assert_eq!(c.gy, f.gy);
            assert_eq!(c.adv, 2.0 * f.adv, "advection scales with channel count");
            assert_eq!(
                c.diag_extra,
                4.0 * f.diag_extra,
                "capacitance scales with area"
            );
        }
        for (f, c) in fine.interfaces().iter().zip(coarse.interfaces()) {
            assert_eq!(c.lower, 4.0 * f.lower);
            assert_eq!(c.upper, 4.0 * f.upper);
        }
        for (f, c) in fine.walls().iter().zip(coarse.walls()) {
            assert_eq!(*c, 4.0 * f);
        }
        let (fs, cs) = (fine.sink().unwrap(), coarse.sink().unwrap());
        assert_eq!(cs.g_top, 4.0 * fs.g_top);
        assert_eq!(cs.lumped, fs.lumped, "the lumped node does not coarsen");
        assert_eq!(cs.diag_extra, fs.diag_extra);
        // The coarse operator keeps the bit-identity contract too.
        assert_bitwise_matvec(&coarse, 11);
        // Coarsening stops once an in-plane dimension turns odd.
        assert!(coarse.coarsen().is_none(), "4x3 has an odd axis");
    }

    #[test]
    fn coarsen_refuses_odd_or_degenerate_shapes() {
        assert!(liquid_stack(5, 4, false).coarsen().is_none(), "odd nx");
        assert!(liquid_stack(4, 3, false).coarsen().is_none(), "odd ny");
        assert!(liquid_stack(1, 4, false).coarsen().is_none(), "nx below 2");
    }

    #[test]
    fn constant_diag_shift_moves_rows_uniformly() {
        // Transient vs steady operators differ exactly by C/Δt on the
        // diagonal: A_t·x − A_s·x == diag_extra·x per row.
        let steady = liquid_stack(4, 3, false);
        let transient = liquid_stack(4, 3, true);
        let n = steady.shape().n();
        let x = seeded_vector(n, 5);
        let mut ys = vec![0.0; n];
        let mut yt = vec![0.0; n];
        steady.matvec_into(&x, &mut ys);
        transient.matvec_into(&x, &mut yt);
        let nxy = 12;
        for c in 0..steady.shape().cells() {
            let extra = transient.layers()[c / nxy].diag_extra;
            assert!(
                ((yt[c] - ys[c]) - extra * x[c]).abs() <= 1e-12 * transient.max_abs(),
                "cell {c}"
            );
        }
    }
}
