//! The GEMM formulation of Winograd convolution (paper Eq. 2).
//!
//! After transforming, the element-wise matrix multiply splits into `PT²`
//! independent GEMMs indexed by the transformed-domain element `e`:
//!
//! ```text
//! M[e][k][t] = Σ_c U[e][k][c] · V[e][c][t]
//! ```
//!
//! where `t` ranges over input tiles. "With the uniform representation, we
//! can instantiate one engine but support two CONV modes" — the simulator's
//! PE executes exactly this shape, and the compiler's offline weight
//! transform produces [`TransformedWeights`].

use crate::{transform, TileConfig};
use hybriddnn_model::{quant::QFormat, Tensor, WeightShape};

/// Transposes one unit's transformed-weight image from the accelerator's
/// weight-buffer layout `[e][k][c]` into `[k][c][e]`, widening to `f64`
/// once. In `[k][c][e]` every per-output-channel GEMV of the PE reads
/// contiguous rows; the transpose depends only on the (immutable) weight
/// image, so a simulator session computes it once per COMP unit and
/// caches the result across inferences.
///
/// `out` is cleared and refilled (caller-reused allocation).
///
/// # Panics
/// Panics if `src` is shorter than `k_lanes · c_lanes · e_count`.
pub fn transpose_ekc_to_kce(
    src: &[f32],
    k_lanes: usize,
    c_lanes: usize,
    e_count: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(k_lanes * c_lanes * e_count, 0.0);
    for e in 0..e_count {
        for k in 0..k_lanes {
            let row = (e * k_lanes + k) * c_lanes;
            for c in 0..c_lanes {
                out[(k * c_lanes + c) * e_count + e] = src[row + c] as f64;
            }
        }
    }
}

/// Offline-transformed weights `U = G g Gᵀ` for every `(k, c)` pair and —
/// when the kernel is larger than 3×3 — every decomposition block
/// (§4.2.5: an `R × S` kernel decomposes into `⌈R/3⌉ × ⌈S/3⌉` zero-padded
/// 3×3 kernels).
///
/// Layout: `data[(((br·blocks_s + bs)·PT² + e)·K + k)·C + c]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformedWeights {
    cfg: TileConfig,
    k: usize,
    c: usize,
    blocks_r: usize,
    blocks_s: usize,
    data: Vec<f64>,
}

impl TransformedWeights {
    /// Transforms a flat `KCRS` weight tensor offline.
    ///
    /// Kernels larger than 3×3 are decomposed; kernels smaller than 3×3
    /// are zero-padded into a single block (so 1×1 layers can still run in
    /// Winograd mode, at the efficiency cost Figure 6 shows).
    ///
    /// # Panics
    /// Panics if `weights.len() != shape.len()`.
    pub fn new(cfg: TileConfig, shape: WeightShape, weights: &[f32]) -> Self {
        assert_eq!(weights.len(), shape.len(), "weight data length mismatch");
        let r = cfg.r();
        let blocks_r = shape.r.div_ceil(r);
        let blocks_s = shape.s.div_ceil(r);
        let pt = cfg.pt();
        let mut data = vec![0.0; blocks_r * blocks_s * pt * pt * shape.k * shape.c];
        let mut g_sub = vec![0.0; r * r];
        let mut u = vec![0.0; pt * pt];
        let mut t = Vec::new();
        for br in 0..blocks_r {
            for bs in 0..blocks_s {
                for k in 0..shape.k {
                    for c in 0..shape.c {
                        // Extract the 3x3 sub-kernel, zero-padded.
                        for gr in 0..r {
                            for gs in 0..r {
                                let rr = br * r + gr;
                                let ss = bs * r + gs;
                                g_sub[gr * r + gs] = if rr < shape.r && ss < shape.s {
                                    weights[shape.index(k, c, rr, ss)] as f64
                                } else {
                                    0.0
                                };
                            }
                        }
                        transform::transform_kernel_into(cfg, &g_sub, &mut u, &mut t);
                        for (e, &v) in u.iter().enumerate() {
                            let idx =
                                (((br * blocks_s + bs) * pt * pt + e) * shape.k + k) * shape.c + c;
                            data[idx] = v;
                        }
                    }
                }
            }
        }
        TransformedWeights {
            cfg,
            k: shape.k,
            c: shape.c,
            blocks_r,
            blocks_s,
            data,
        }
    }

    /// Tile configuration these weights were transformed for.
    pub fn config(&self) -> TileConfig {
        self.cfg
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.k
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.c
    }

    /// Decomposition block grid `(blocks_r, blocks_s)`.
    pub fn blocks(&self) -> (usize, usize) {
        (self.blocks_r, self.blocks_s)
    }

    /// The transformed weight `U[e][k][c]` for decomposition block
    /// `(br, bs)`.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    #[inline]
    pub fn at(&self, br: usize, bs: usize, e: usize, k: usize, c: usize) -> f64 {
        assert!(br < self.blocks_r && bs < self.blocks_s && k < self.k && c < self.c);
        let pt2 = self.cfg.pt() * self.cfg.pt();
        assert!(e < pt2);
        self.data[(((br * self.blocks_s + bs) * pt2 + e) * self.k + k) * self.c + c]
    }

    /// Quantizes every transformed weight onto `fmt`'s grid — modeling the
    /// hardware, which stores offline-transformed weights at the weight
    /// precision. (This is where the `F(4×4)` fractions in `G` become a
    /// quantization effect rather than an exactness hazard.)
    pub fn quantize(&mut self, fmt: QFormat) {
        for v in &mut self.data {
            *v = fmt.quantize(*v) as f64;
        }
    }

    /// The raw transformed data, laid out
    /// `[(br·blocks_s + bs)·PT² + e][k][c]` — exactly the order the
    /// compiler's weight image stores and the accelerator's weight
    /// buffer receives.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Total element count (useful for memory-traffic accounting: Winograd
    /// loads `⌈R/r⌉·⌈S/r⌉·PT²` words per `(k,c)` vs `R·S` in spatial mode,
    /// paper Eq. 9).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Transformed input tiles `V[e][c][t]` extracted from a feature map.
///
/// Layout: `data[(e·C + c)·T + t]` where `t = ty·tiles_x + tx`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformedInput {
    cfg: TileConfig,
    c: usize,
    tiles_y: usize,
    tiles_x: usize,
    data: Vec<f64>,
}

impl TransformedInput {
    /// Extracts and transforms every input tile of `input`.
    ///
    /// Output row `oy` of the convolution reads input rows starting at
    /// `oy + origin_y`, so the tile with index `ty` has its top-left input
    /// corner at `ty·m + origin_y` (`origin = −padding` for the base
    /// kernel block, shifted by `+3·block` for decomposition blocks).
    /// Out-of-bounds reads return zero.
    pub fn new(
        cfg: TileConfig,
        input: &Tensor,
        out_h: usize,
        out_w: usize,
        origin_y: isize,
        origin_x: isize,
    ) -> Self {
        let m = cfg.m();
        let pt = cfg.pt();
        let shape = input.shape();
        let tiles_y = out_h.div_ceil(m);
        let tiles_x = out_w.div_ceil(m);
        let mut data = vec![0.0; pt * pt * shape.c * tiles_y * tiles_x];
        let t_total = tiles_y * tiles_x;
        let mut d = vec![0.0; pt * pt];
        for c in 0..shape.c {
            for ty in 0..tiles_y {
                for tx in 0..tiles_x {
                    let y0 = (ty * m) as isize + origin_y;
                    let x0 = (tx * m) as isize + origin_x;
                    for dy in 0..pt {
                        for dx in 0..pt {
                            d[dy * pt + dx] =
                                input.at_padded(c, y0 + dy as isize, x0 + dx as isize) as f64;
                        }
                    }
                    let v = transform::transform_input_tile(cfg, &d);
                    let t = ty * tiles_x + tx;
                    for e in 0..pt * pt {
                        data[(e * shape.c + c) * t_total + t] = v[e];
                    }
                }
            }
        }
        TransformedInput {
            cfg,
            c: shape.c,
            tiles_y,
            tiles_x,
            data,
        }
    }

    /// Tile grid `(tiles_y, tiles_x)`.
    pub fn tiles(&self) -> (usize, usize) {
        (self.tiles_y, self.tiles_x)
    }

    /// The transformed input `V[e][c][t]`.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    #[inline]
    pub fn at(&self, e: usize, c: usize, t: usize) -> f64 {
        let t_total = self.tiles_y * self.tiles_x;
        assert!(c < self.c && t < t_total);
        self.data[(e * self.c + c) * t_total + t]
    }
}

/// Executes the `PT²` independent GEMMs:
/// `M[e][k][t] = Σ_c U[e][k][c] · V[e][c][t]` for one decomposition block.
///
/// Returns `M` laid out as `m_out[(e·K + k)·T + t]`.
pub fn ewmm_gemm(
    u: &TransformedWeights,
    (br, bs): (usize, usize),
    v: &TransformedInput,
) -> Vec<f64> {
    assert_eq!(u.config(), v.cfg, "tile configuration mismatch");
    assert_eq!(u.in_channels(), v.c, "channel count mismatch");
    let pt2 = u.config().pt() * u.config().pt();
    let k_total = u.out_channels();
    let c_total = u.in_channels();
    let t_total = v.tiles_y * v.tiles_x;
    let mut m_out = vec![0.0; pt2 * k_total * t_total];
    for e in 0..pt2 {
        for k in 0..k_total {
            for c in 0..c_total {
                let w = u.at(br, bs, e, k, c);
                if w == 0.0 {
                    continue;
                }
                let vrow = &v.data[(e * c_total + c) * t_total..(e * c_total + c + 1) * t_total];
                let mrow = &mut m_out[(e * k_total + k) * t_total..(e * k_total + k + 1) * t_total];
                for (mv, vv) in mrow.iter_mut().zip(vrow) {
                    *mv += w * vv;
                }
            }
        }
    }
    m_out
}

/// Applies the inverse transform `Y = Aᵀ M A` tile-by-tile and accumulates
/// into a `K × out_h × out_w` buffer (`accum[(k·out_h + y)·out_w + x]`),
/// clipping partial edge tiles.
pub fn accumulate_output(
    cfg: TileConfig,
    m_data: &[f64],
    k_total: usize,
    (tiles_y, tiles_x): (usize, usize),
    out_h: usize,
    out_w: usize,
    accum: &mut [f64],
) {
    let pt = cfg.pt();
    let m = cfg.m();
    let pt2 = pt * pt;
    let t_total = tiles_y * tiles_x;
    assert_eq!(m_data.len(), pt2 * k_total * t_total);
    assert_eq!(accum.len(), k_total * out_h * out_w);
    let mut tile = vec![0.0; pt2];
    for k in 0..k_total {
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let t = ty * tiles_x + tx;
                for e in 0..pt2 {
                    tile[e] = m_data[(e * k_total + k) * t_total + t];
                }
                let y = transform::transform_output_tile(cfg, &tile);
                for dy in 0..m {
                    for dx in 0..m {
                        let oy = ty * m + dy;
                        let ox = tx * m + dx;
                        if oy < out_h && ox < out_w {
                            accum[(k * out_h + oy) * out_w + ox] += y[dy * m + dx];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybriddnn_model::{Shape, Tensor};

    #[test]
    fn transformed_weights_shape_and_blocks() {
        let ws = WeightShape::new(2, 3, 3, 3);
        let u = TransformedWeights::new(TileConfig::F2x2, ws, &vec![1.0; ws.len()]);
        assert_eq!(u.blocks(), (1, 1));
        assert_eq!(u.len(), 16 * 2 * 3);

        let ws5 = WeightShape::new(1, 1, 5, 5);
        let u5 = TransformedWeights::new(TileConfig::F4x4, ws5, &[1.0; 25]);
        assert_eq!(u5.blocks(), (2, 2));
    }

    #[test]
    fn one_by_one_kernel_pads_into_single_block() {
        let ws = WeightShape::new(1, 1, 1, 1);
        let u = TransformedWeights::new(TileConfig::F2x2, ws, &[2.0]);
        assert_eq!(u.blocks(), (1, 1));
        // The transformed impulse-at-(0,0) kernel: U = G g Gᵀ with only
        // g[0][0]=2 → U[e] = 2·G[i][0]·G[j][0].
        let g = TileConfig::F2x2.g();
        for i in 0..4 {
            for j in 0..4 {
                let expect = 2.0 * g[i * 3] * g[j * 3];
                assert!((u.at(0, 0, i * 4 + j, 0, 0) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transformed_input_tile_grid() {
        let input = Tensor::zeros(Shape::new(2, 8, 8));
        let v = TransformedInput::new(TileConfig::F2x2, &input, 8, 8, -1, -1);
        assert_eq!(v.tiles(), (4, 4));
        let v4 = TransformedInput::new(TileConfig::F4x4, &input, 8, 8, -1, -1);
        assert_eq!(v4.tiles(), (2, 2));
        // Non-multiple output sizes round up.
        let v3 = TransformedInput::new(TileConfig::F4x4, &input, 7, 5, 0, 0);
        assert_eq!(v3.tiles(), (2, 2));
    }

    #[test]
    fn gemm_pipeline_computes_identity_conv() {
        // center-impulse 3x3 kernel ≡ identity on a same-padded conv.
        let shape = Shape::new(1, 4, 4);
        let data: Vec<f32> = (0..16).map(|v| v as f32 - 8.0).collect();
        let input = Tensor::from_vec(shape, data.clone()).unwrap();
        let mut kernel = vec![0.0f32; 9];
        kernel[4] = 1.0;
        let cfg = TileConfig::F2x2;
        let u = TransformedWeights::new(cfg, WeightShape::new(1, 1, 3, 3), &kernel);
        let v = TransformedInput::new(cfg, &input, 4, 4, -1, -1);
        let m = ewmm_gemm(&u, (0, 0), &v);
        let mut accum = vec![0.0f64; 16];
        accumulate_output(cfg, &m, 1, v.tiles(), 4, 4, &mut accum);
        for (a, b) in accum.iter().zip(&data) {
            assert!((a - *b as f64).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn quantize_moves_weights_onto_grid() {
        let ws = WeightShape::new(1, 1, 3, 3);
        let mut u = TransformedWeights::new(
            TileConfig::F4x4,
            ws,
            &[0.3, -0.7, 0.11, 0.9, -0.2, 0.05, 0.4, 0.6, -0.33],
        );
        let fmt = QFormat::FEATURE12;
        u.quantize(fmt);
        for e in 0..36 {
            assert!(fmt.contains(u.at(0, 0, e, 0, 0)));
        }
    }

    #[test]
    #[should_panic(expected = "tile configuration mismatch")]
    fn gemm_rejects_mixed_configs() {
        let u = TransformedWeights::new(TileConfig::F2x2, WeightShape::new(1, 1, 3, 3), &[0.0; 9]);
        let input = Tensor::zeros(Shape::new(1, 4, 4));
        let v = TransformedInput::new(TileConfig::F4x4, &input, 4, 4, -1, -1);
        let _ = ewmm_gemm(&u, (0, 0), &v);
    }
}
