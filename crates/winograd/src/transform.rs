//! Constant transform matrices and single-tile transforms.
//!
//! The matrices follow Lavin & Gray, *Fast Algorithms for Convolutional
//! Neural Networks* (CVPR 2016) — reference \[18\] of the paper. All tile
//! arithmetic is `f64`: products of quantized operands stay exact, and the
//! fractional `G` entries of `F(4×4, 3×3)` are absorbed into the offline
//! weight transform (the transformed weights are re-quantized by the
//! compiler, exactly as the hardware stores them).

/// The Winograd tile configuration supported by the PE.
///
/// `PT = m + r − 1` with kernel size `r = 3`. The paper admits
/// `PT ∈ {4, 6}` (Table 2): larger `PT` introduces "a large amount of
/// extra additions which eliminates the advantage of using Winograd
/// mode" (§5.1). [`TileConfig::F6x6`] (`PT = 8`) is implemented here as
/// an *evaluated extension* so that claim can be measured
/// (`ablation_large_tile` in the bench harness); the DSE only ever
/// enumerates [`TileConfig::ALL`], the paper's legal pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TileConfig {
    /// `F(2×2, 3×3)`: output tile 2×2, input tile 4×4.
    F2x2,
    /// `F(4×4, 3×3)`: output tile 4×4, input tile 6×6.
    F4x4,
    /// `F(6×6, 3×3)`: output tile 6×6, input tile 8×8 — beyond the
    /// paper's design space; see the type-level docs.
    F6x6,
}

impl TileConfig {
    /// Output-tile edge `m`.
    pub const fn m(self) -> usize {
        match self {
            TileConfig::F2x2 => 2,
            TileConfig::F4x4 => 4,
            TileConfig::F6x6 => 6,
        }
    }

    /// Kernel edge `r` (always 3; larger kernels use decomposition).
    pub const fn r(self) -> usize {
        3
    }

    /// Input-tile edge `PT = m + r − 1`.
    pub const fn pt(self) -> usize {
        self.m() + self.r() - 1
    }

    /// The configuration with input-tile edge `pt`, if legal.
    pub const fn from_pt(pt: usize) -> Option<TileConfig> {
        match pt {
            4 => Some(TileConfig::F2x2),
            6 => Some(TileConfig::F4x4),
            8 => Some(TileConfig::F6x6),
            _ => None,
        }
    }

    /// The paper's legal configurations (`PT ∈ {4, 6}`, Table 2), in
    /// ascending `PT` order. The DSE enumerates exactly these.
    pub const ALL: [TileConfig; 2] = [TileConfig::F2x2, TileConfig::F4x4];

    /// The extended set including the experimental `F(6×6, 3×3)`.
    pub const EXTENDED: [TileConfig; 3] = [TileConfig::F2x2, TileConfig::F4x4, TileConfig::F6x6];

    /// Multiplication reduction factor vs. spatial convolution for a 3×3
    /// kernel: `(m·r)² / PT²` … i.e. 144/36 = 4× for `F(4×4,3×3)` (§4.2.1).
    pub fn reduction_factor(self) -> f64 {
        let m = self.m() as f64;
        let r = self.r() as f64;
        let pt = self.pt() as f64;
        (m * r).powi(2) / pt.powi(2)
    }

    /// The `Bᵀ` input-transform matrix (`PT × PT`), row-major.
    pub fn bt(self) -> &'static [f64] {
        match self {
            TileConfig::F2x2 => &BT_F2,
            TileConfig::F4x4 => &BT_F4,
            TileConfig::F6x6 => &BT_F6,
        }
    }

    /// The `G` kernel-transform matrix (`PT × r`), row-major.
    pub fn g(self) -> &'static [f64] {
        match self {
            TileConfig::F2x2 => &G_F2,
            TileConfig::F4x4 => &G_F4,
            TileConfig::F6x6 => &G_F6,
        }
    }

    /// The `Aᵀ` output-transform matrix (`m × PT`), row-major.
    pub fn at(self) -> &'static [f64] {
        match self {
            TileConfig::F2x2 => &AT_F2,
            TileConfig::F4x4 => &AT_F4,
            TileConfig::F6x6 => &AT_F6,
        }
    }
}

impl std::fmt::Display for TileConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F({m}x{m},3x3)", m = self.m())
    }
}

#[rustfmt::skip]
const BT_F2: [f64; 16] = [
    1.0,  0.0, -1.0,  0.0,
    0.0,  1.0,  1.0,  0.0,
    0.0, -1.0,  1.0,  0.0,
    0.0,  1.0,  0.0, -1.0,
];

#[rustfmt::skip]
const G_F2: [f64; 12] = [
    1.0,  0.0, 0.0,
    0.5,  0.5, 0.5,
    0.5, -0.5, 0.5,
    0.0,  0.0, 1.0,
];

#[rustfmt::skip]
const AT_F2: [f64; 8] = [
    1.0, 1.0,  1.0,  0.0,
    0.0, 1.0, -1.0, -1.0,
];

#[rustfmt::skip]
const BT_F4: [f64; 36] = [
    4.0,  0.0, -5.0,  0.0, 1.0, 0.0,
    0.0, -4.0, -4.0,  1.0, 1.0, 0.0,
    0.0,  4.0, -4.0, -1.0, 1.0, 0.0,
    0.0, -2.0, -1.0,  2.0, 1.0, 0.0,
    0.0,  2.0, -1.0, -2.0, 1.0, 0.0,
    0.0,  4.0,  0.0, -5.0, 0.0, 1.0,
];

#[rustfmt::skip]
const G_F4: [f64; 18] = [
     1.0 / 4.0,   0.0,         0.0,
    -1.0 / 6.0,  -1.0 / 6.0,  -1.0 / 6.0,
    -1.0 / 6.0,   1.0 / 6.0,  -1.0 / 6.0,
     1.0 / 24.0,  1.0 / 12.0,  1.0 / 6.0,
     1.0 / 24.0, -1.0 / 12.0,  1.0 / 6.0,
     0.0,         0.0,         1.0,
];

#[rustfmt::skip]
const AT_F4: [f64; 24] = [
    1.0, 1.0,  1.0, 1.0,  1.0, 0.0,
    0.0, 1.0, -1.0, 2.0, -2.0, 0.0,
    0.0, 1.0,  1.0, 4.0,  4.0, 0.0,
    0.0, 1.0, -1.0, 8.0, -8.0, 1.0,
];

// F(6x6, 3x3) derived from the Lavin/wincnn construction with
// interpolation points {0, ±1, ±2, ±1/2} (+∞), verified exactly with
// rational arithmetic (see the tile-identity tests).
#[rustfmt::skip]
const BT_F6: [f64; 64] = [
    -1.0,  0.0,  5.25,  0.0,   -5.25,  0.0,   1.0, 0.0,
     0.0,  1.0,  1.0,  -4.25,  -4.25,  1.0,   1.0, 0.0,
     0.0, -1.0,  1.0,   4.25,  -4.25, -1.0,   1.0, 0.0,
     0.0,  0.5,  0.25, -2.5,   -1.25,  2.0,   1.0, 0.0,
     0.0, -0.5,  0.25,  2.5,   -1.25, -2.0,   1.0, 0.0,
     0.0,  2.0,  4.0,  -2.5,   -5.0,   0.5,   1.0, 0.0,
     0.0, -2.0,  4.0,   2.5,   -5.0,  -0.5,   1.0, 0.0,
     0.0, -1.0,  0.0,   5.25,   0.0,  -5.25,  0.0, 1.0,
];

#[rustfmt::skip]
const G_F6: [f64; 24] = [
    -1.0,          0.0,          0.0,
    -2.0 / 9.0,   -2.0 / 9.0,   -2.0 / 9.0,
    -2.0 / 9.0,    2.0 / 9.0,   -2.0 / 9.0,
     1.0 / 90.0,   1.0 / 45.0,   2.0 / 45.0,
     1.0 / 90.0,  -1.0 / 45.0,   2.0 / 45.0,
    32.0 / 45.0,  16.0 / 45.0,   8.0 / 45.0,
    32.0 / 45.0, -16.0 / 45.0,   8.0 / 45.0,
     0.0,          0.0,          1.0,
];

#[rustfmt::skip]
const AT_F6: [f64; 48] = [
    1.0, 1.0,  1.0,  1.0,   1.0,  1.0,        1.0,        0.0,
    0.0, 1.0, -1.0,  2.0,  -2.0,  0.5,       -0.5,        0.0,
    0.0, 1.0,  1.0,  4.0,   4.0,  0.25,       0.25,       0.0,
    0.0, 1.0, -1.0,  8.0,  -8.0,  0.125,     -0.125,      0.0,
    0.0, 1.0,  1.0, 16.0,  16.0,  0.0625,     0.0625,     0.0,
    0.0, 1.0, -1.0, 32.0, -32.0,  0.03125,   -0.03125,    1.0,
];

/// Computes `out = M · X · Mᵀ'` for small row-major matrices, the shared
/// shape of all three transforms: `M` is `rows_m × cols_m`, `X` is
/// `cols_m × cols_m`, `M'` is the same matrix applied on the right
/// (transposed), giving `rows_m × rows_m`.
fn sandwich(m: &[f64], rows_m: usize, cols_m: usize, x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; rows_m * rows_m];
    let mut t = Vec::new();
    sandwich_into(m, rows_m, cols_m, x, &mut out, &mut t);
    out
}

/// Allocation-free [`sandwich`]: `out` must hold `rows_m²` values; `t` is
/// caller-owned scratch, resized as needed so its allocation can be reused
/// across calls.
#[inline]
fn sandwich_into(
    m: &[f64],
    rows_m: usize,
    cols_m: usize,
    x: &[f64],
    out: &mut [f64],
    t: &mut Vec<f64>,
) {
    t.resize(rows_m * cols_m, 0.0);
    sandwich_buf(m, rows_m, cols_m, x, out, t);
}

/// [`sandwich_into`] over a caller-sized scratch slice (`t.len() ≥
/// rows_m · cols_m`) — the form the simulator's batched kernels use so
/// the inner loop carries no `Vec` bookkeeping. Identical operation
/// order to [`sandwich_into`], so results match it bit for bit.
#[inline]
fn sandwich_buf(
    m: &[f64],
    rows_m: usize,
    cols_m: usize,
    x: &[f64],
    out: &mut [f64],
    t: &mut [f64],
) {
    debug_assert_eq!(m.len(), rows_m * cols_m);
    debug_assert_eq!(x.len(), cols_m * cols_m);
    debug_assert_eq!(out.len(), rows_m * rows_m);
    let t = &mut t[..rows_m * cols_m];
    // t = M · X  (rows_m × cols_m)
    for i in 0..rows_m {
        for j in 0..cols_m {
            let mut acc = 0.0;
            for k in 0..cols_m {
                acc += m[i * cols_m + k] * x[k * cols_m + j];
            }
            t[i * cols_m + j] = acc;
        }
    }
    // out = t · Mᵀ  (rows_m × rows_m)
    for i in 0..rows_m {
        for j in 0..rows_m {
            let mut acc = 0.0;
            for k in 0..cols_m {
                acc += t[i * cols_m + k] * m[j * cols_m + k];
            }
            out[i * rows_m + j] = acc;
        }
    }
}

/// Input transform `V = Bᵀ d B` for one `PT × PT` tile `d` (row-major).
///
/// # Panics
/// Panics in debug builds if `d.len() != PT²`.
pub fn transform_input_tile(cfg: TileConfig, d: &[f64]) -> Vec<f64> {
    let pt = cfg.pt();
    debug_assert_eq!(d.len(), pt * pt);
    sandwich(cfg.bt(), pt, pt, d)
}

/// Allocation-free [`transform_input_tile`]: writes the `PT × PT` result
/// into `out`; `t` is caller-owned scratch reused across calls (the
/// simulator calls this once per tile per channel).
///
/// # Panics
/// Panics in debug builds if `d.len() != PT²` or `out.len() != PT²`.
#[inline]
pub fn transform_input_tile_into(cfg: TileConfig, d: &[f64], out: &mut [f64], t: &mut Vec<f64>) {
    if cfg == TileConfig::F2x2 {
        input_tile_f2(d, out);
        return;
    }
    let pt = cfg.pt();
    sandwich_into(cfg.bt(), pt, pt, d, out, t);
}

/// [`transform_input_tile_into`] over a caller-sized scratch slice
/// (`t.len() ≥ PT²`) — no `Vec` bookkeeping in the hot loop. Identical
/// operation order, so the result is bit-identical.
///
/// # Panics
/// Panics in debug builds if `d.len() != PT²` or `out.len() != PT²`.
#[inline]
pub fn transform_input_tile_buf(cfg: TileConfig, d: &[f64], out: &mut [f64], t: &mut [f64]) {
    if cfg == TileConfig::F2x2 {
        input_tile_f2(d, out);
        return;
    }
    let pt = cfg.pt();
    sandwich_buf(cfg.bt(), pt, pt, d, out, t);
}

/// `F(2×2, 3×3)` input transform specialised to `Bᵀ`'s 0/±1 entries: the
/// generic matmul degenerates to add/sub chains (each ±1 product is exact,
/// so the values match [`sandwich_into`] for all finite inputs).
#[inline]
fn input_tile_f2(d: &[f64], out: &mut [f64]) {
    debug_assert_eq!(d.len(), 16);
    debug_assert_eq!(out.len(), 16);
    // t = Bᵀ · d, column by column.
    let mut t = [0.0f64; 16];
    for j in 0..4 {
        let (x0, x1, x2, x3) = (d[j], d[4 + j], d[8 + j], d[12 + j]);
        t[j] = x0 - x2;
        t[4 + j] = x1 + x2;
        t[8 + j] = x2 - x1;
        t[12 + j] = x1 - x3;
    }
    // out = t · B (= t · (Bᵀ)ᵀ), row by row.
    for i in 0..4 {
        let (r0, r1, r2, r3) = (t[i * 4], t[i * 4 + 1], t[i * 4 + 2], t[i * 4 + 3]);
        out[i * 4] = r0 - r2;
        out[i * 4 + 1] = r1 + r2;
        out[i * 4 + 2] = r2 - r1;
        out[i * 4 + 3] = r1 - r3;
    }
}

/// Kernel transform `U = G g Gᵀ` for one `3 × 3` kernel `g` (row-major),
/// producing a `PT × PT` result.
///
/// # Panics
/// Panics in debug builds if `g.len() != 9`.
pub fn transform_kernel(cfg: TileConfig, g: &[f64]) -> Vec<f64> {
    let pt = cfg.pt();
    let r = cfg.r();
    debug_assert_eq!(g.len(), r * r);
    // U = G · g · Gᵀ; G is pt×r, g is r×r — the same M·X·Mᵀ sandwich.
    sandwich(cfg.g(), pt, r, g)
}

/// Allocation-free [`transform_kernel`]: writes the `PT × PT` result into
/// `out`; `t` is caller-owned scratch reused across calls (the offline
/// weight transform calls this once per `(k, c)` pair and block). Same
/// [`sandwich_into`] as [`transform_kernel`], so the result is
/// bit-identical.
///
/// # Panics
/// Panics in debug builds if `g.len() != 9` or `out.len() != PT²`.
#[inline]
pub fn transform_kernel_into(cfg: TileConfig, g: &[f64], out: &mut [f64], t: &mut Vec<f64>) {
    let r = cfg.r();
    debug_assert_eq!(g.len(), r * r);
    sandwich_into(cfg.g(), cfg.pt(), r, g, out, t);
}

/// Output transform `Y = Aᵀ y A` for one transformed-domain `PT × PT`
/// accumulator tile, producing the `m × m` spatial output tile.
///
/// # Panics
/// Panics in debug builds if `y.len() != PT²`.
pub fn transform_output_tile(cfg: TileConfig, y: &[f64]) -> Vec<f64> {
    let pt = cfg.pt();
    let m = cfg.m();
    debug_assert_eq!(y.len(), pt * pt);
    // Y = Aᵀ · y · A; Aᵀ is m×pt — the same M·X·Mᵀ sandwich.
    sandwich(cfg.at(), m, pt, y)
}

/// Allocation-free [`transform_output_tile`]: writes the `m × m` spatial
/// tile into `out`; `t` is caller-owned scratch reused across calls.
///
/// # Panics
/// Panics in debug builds if `y.len() != PT²` or `out.len() != m²`.
#[inline]
pub fn transform_output_tile_into(cfg: TileConfig, y: &[f64], out: &mut [f64], t: &mut Vec<f64>) {
    if cfg == TileConfig::F2x2 {
        output_tile_f2(y, out);
        return;
    }
    sandwich_into(cfg.at(), cfg.m(), cfg.pt(), y, out, t);
}

/// [`transform_output_tile_into`] over a caller-sized scratch slice
/// (`t.len() ≥ m · PT`) — no `Vec` bookkeeping in the hot loop. Identical
/// operation order, so the result is bit-identical.
///
/// # Panics
/// Panics in debug builds if `y.len() != PT²` or `out.len() != m²`.
#[inline]
pub fn transform_output_tile_buf(cfg: TileConfig, y: &[f64], out: &mut [f64], t: &mut [f64]) {
    if cfg == TileConfig::F2x2 {
        output_tile_f2(y, out);
        return;
    }
    sandwich_buf(cfg.at(), cfg.m(), cfg.pt(), y, out, t);
}

/// `F(2×2, 3×3)` output transform specialised to `Aᵀ`'s 0/±1 entries —
/// the [`input_tile_f2`] treatment for the inverse transform.
#[inline]
fn output_tile_f2(y: &[f64], out: &mut [f64]) {
    debug_assert_eq!(y.len(), 16);
    debug_assert_eq!(out.len(), 4);
    // t = Aᵀ · y (2 × 4), column by column.
    let mut t = [0.0f64; 8];
    for j in 0..4 {
        let (y0, y1, y2, y3) = (y[j], y[4 + j], y[8 + j], y[12 + j]);
        t[j] = y0 + y1 + y2;
        t[4 + j] = y1 - y2 - y3;
    }
    // out = t · A (2 × 2), row by row.
    for i in 0..2 {
        let (r0, r1, r2, r3) = (t[i * 4], t[i * 4 + 1], t[i * 4 + 2], t[i * 4 + 3]);
        out[i * 2] = r0 + r1 + r2;
        out[i * 2 + 1] = r1 - r2 - r3;
    }
}

/// Number of multiplications per output tile in Winograd mode (`PT²`)
/// versus spatial mode (`m² · r²`) — the §4.2.1 example: 36 vs 144.
pub fn multiplication_counts(cfg: TileConfig) -> (usize, usize) {
    let pt = cfg.pt();
    let m = cfg.m();
    let r = cfg.r();
    (pt * pt, m * m * r * r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct 3×3 valid convolution of a pt×pt tile → m×m, for oracle use.
    fn direct_tile_conv(cfg: TileConfig, d: &[f64], g: &[f64]) -> Vec<f64> {
        let pt = cfg.pt();
        let m = cfg.m();
        let mut out = vec![0.0; m * m];
        for oy in 0..m {
            for ox in 0..m {
                let mut acc = 0.0;
                for r in 0..3 {
                    for s in 0..3 {
                        acc += d[(oy + r) * pt + (ox + s)] * g[r * 3 + s];
                    }
                }
                out[oy * m + ox] = acc;
            }
        }
        out
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn config_dimensions() {
        assert_eq!(TileConfig::F2x2.pt(), 4);
        assert_eq!(TileConfig::F4x4.pt(), 6);
        assert_eq!(TileConfig::from_pt(4), Some(TileConfig::F2x2));
        assert_eq!(TileConfig::from_pt(6), Some(TileConfig::F4x4));
        assert_eq!(TileConfig::from_pt(5), None);
    }

    #[test]
    fn f2_specialised_transforms_match_generic_sandwich() {
        // The add/sub specialisations must produce the same values as the
        // generic 0/±1 matmuls (±0 differences compare equal, by design).
        let cfg = TileConfig::F2x2;
        let mut x = 0.7f64;
        let mut next = move || {
            x = (x * 997.0 + 0.13) % 1.0;
            x - 0.5
        };
        for _ in 0..64 {
            let d: Vec<f64> = (0..16).map(|_| next()).collect();
            let mut spec = vec![0.0; 16];
            input_tile_f2(&d, &mut spec);
            assert_eq!(sandwich(cfg.bt(), 4, 4, &d), spec);
            let mut spec_o = vec![0.0; 4];
            output_tile_f2(&d, &mut spec_o);
            assert_eq!(sandwich(cfg.at(), 2, 4, &d), spec_o);
        }
    }

    #[test]
    fn buf_transforms_match_vec_transforms_bit_for_bit() {
        // The slice-scratch variants the batched simulator kernels use
        // must be indistinguishable from the Vec-scratch originals.
        let mut x = 0.3f64;
        let mut next = move || {
            x = (x * 991.0 + 0.17) % 1.0;
            x - 0.5
        };
        for cfg in TileConfig::EXTENDED {
            let pt = cfg.pt();
            let m = cfg.m();
            for _ in 0..32 {
                let d: Vec<f64> = (0..pt * pt).map(|_| next()).collect();
                let mut a = vec![0.0; pt * pt];
                let mut b = vec![0.0; pt * pt];
                let mut tv = Vec::new();
                let mut tb = vec![0.0; pt * pt];
                transform_input_tile_into(cfg, &d, &mut a, &mut tv);
                transform_input_tile_buf(cfg, &d, &mut b, &mut tb);
                assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
                let mut oa = vec![0.0; m * m];
                let mut ob = vec![0.0; m * m];
                transform_output_tile_into(cfg, &d, &mut oa, &mut tv);
                transform_output_tile_buf(cfg, &d, &mut ob, &mut tb);
                assert!(oa.iter().zip(&ob).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    #[test]
    fn kernel_transform_into_matches_transform_kernel_bit_for_bit() {
        let mut x = 0.7f64;
        let mut next = move || {
            x = (x * 733.0 + 0.29) % 1.0;
            x - 0.5
        };
        for cfg in [TileConfig::F2x2, TileConfig::F4x4] {
            let pt = cfg.pt();
            let mut out = vec![0.0; pt * pt];
            let mut t = Vec::new();
            for i in 0..32 {
                let mut g: Vec<f64> = (0..9).map(|_| next()).collect();
                if i % 4 == 0 {
                    g[i % 9] = -0.0;
                }
                transform_kernel_into(cfg, &g, &mut out, &mut t);
                let want = transform_kernel(cfg, &g);
                assert!(out
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn reduction_factors_match_paper() {
        // §4.2.1: F(4x4,3x3) reduces 144 multiplications to 36 → 4x.
        assert_eq!(TileConfig::F4x4.reduction_factor(), 4.0);
        assert_eq!(TileConfig::F2x2.reduction_factor(), 2.25);
        assert_eq!(multiplication_counts(TileConfig::F4x4), (36, 144));
        assert_eq!(multiplication_counts(TileConfig::F2x2), (16, 36));
    }

    #[test]
    fn f2_identity_on_impulse() {
        // Kernel = center impulse → convolution = shifted copy.
        let cfg = TileConfig::F2x2;
        let d: Vec<f64> = (0..16).map(|v| v as f64).collect();
        let mut g = vec![0.0; 9];
        g[4] = 1.0; // center tap
        let u = transform_kernel(cfg, &g);
        let v = transform_input_tile(cfg, &d);
        let prod: Vec<f64> = u.iter().zip(&v).map(|(a, b)| a * b).collect();
        let y = transform_output_tile(cfg, &prod);
        let oracle = direct_tile_conv(cfg, &d, &g);
        assert_close(&y, &oracle, 1e-9);
    }

    #[test]
    fn winograd_matches_direct_f2() {
        let cfg = TileConfig::F2x2;
        let d: Vec<f64> = (0..16).map(|v| ((v * 7 + 3) % 11) as f64 - 5.0).collect();
        let g: Vec<f64> = (0..9).map(|v| ((v * 5 + 1) % 7) as f64 - 3.0).collect();
        let u = transform_kernel(cfg, &g);
        let v = transform_input_tile(cfg, &d);
        let prod: Vec<f64> = u.iter().zip(&v).map(|(a, b)| a * b).collect();
        let y = transform_output_tile(cfg, &prod);
        assert_close(&y, &direct_tile_conv(cfg, &d, &g), 1e-9);
    }

    #[test]
    fn winograd_matches_direct_f4() {
        let cfg = TileConfig::F4x4;
        let d: Vec<f64> = (0..36).map(|v| ((v * 13 + 5) % 17) as f64 - 8.0).collect();
        let g: Vec<f64> = (0..9).map(|v| ((v * 3 + 2) % 5) as f64 - 2.0).collect();
        let u = transform_kernel(cfg, &g);
        let v = transform_input_tile(cfg, &d);
        let prod: Vec<f64> = u.iter().zip(&v).map(|(a, b)| a * b).collect();
        let y = transform_output_tile(cfg, &prod);
        assert_close(&y, &direct_tile_conv(cfg, &d, &g), 1e-9);
    }

    #[test]
    fn transforms_are_linear() {
        // V(a·d1 + d2) == a·V(d1) + V(d2)
        let cfg = TileConfig::F4x4;
        let d1: Vec<f64> = (0..36).map(|v| (v % 7) as f64).collect();
        let d2: Vec<f64> = (0..36).map(|v| ((v * 11) % 13) as f64).collect();
        let a = 2.5;
        let combined: Vec<f64> = d1.iter().zip(&d2).map(|(x, y)| a * x + y).collect();
        let lhs = transform_input_tile(cfg, &combined);
        let v1 = transform_input_tile(cfg, &d1);
        let v2 = transform_input_tile(cfg, &d2);
        let rhs: Vec<f64> = v1.iter().zip(&v2).map(|(x, y)| a * x + y).collect();
        assert_close(&lhs, &rhs, 1e-9);
    }

    #[test]
    fn zero_tile_transforms_to_zero() {
        for cfg in TileConfig::ALL {
            let pt = cfg.pt();
            let v = transform_input_tile(cfg, &vec![0.0; pt * pt]);
            assert!(v.iter().all(|&x| x == 0.0));
            let u = transform_kernel(cfg, &[0.0; 9]);
            assert!(u.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(TileConfig::F2x2.to_string(), "F(2x2,3x3)");
        assert_eq!(TileConfig::F4x4.to_string(), "F(4x4,3x3)");
    }
}
