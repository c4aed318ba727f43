//! Offline data preparation: DRAM weight and bias images in the exact
//! order the accelerator's buffers consume them.
//!
//! Three image families (§4.2.3 "Regarding DNN parameters for Winograd,
//! we perform an offline transformation from pretrained DNN models"):
//!
//! * **Spatial CONV** — per weight group, `[k_local][c][r][s]` (the
//!   natural `KCRS` order, padded to whole `PO` vectors with zero
//!   channels so partial groups compute harmlessly).
//! * **Winograd CONV** — per group, the offline-transformed
//!   `[(br·BS+bs)·PT² + e][k_local][c]` layout of
//!   [`hybriddnn_winograd::gemm::TransformedWeights`], re-quantized to
//!   the weight format when fixed-point is enabled (the hardware stores
//!   transformed weights at weight precision).
//! * **FC** — per group, `[chunk][k_local][c_local]` with the weight
//!   columns *permuted to the feature-map storage order* of the producing
//!   region (the flattened input arrives in `(y, x, cv, lane)` order, not
//!   `CHW`), and chunks zero-padded to uniform width.

use crate::{layout::FmapRegion, plan::LayerPlan};
use hybriddnn_estimator::{AcceleratorConfig, ConvMode, LayerWorkload};
use hybriddnn_model::quant::QFormat;
use hybriddnn_winograd::{transform::transform_kernel_into, TileConfig};

/// A stage's DRAM data: the weight image, per-group word offsets into it,
/// the bias image, and per-group bias offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerImages {
    /// Weight image words.
    pub weights: Vec<f32>,
    /// Word offset of each weight group within the image.
    pub weight_group_offsets: Vec<u64>,
    /// Bias image words (empty when the layer has no bias).
    pub bias: Vec<f32>,
    /// Word offset of each bias group.
    pub bias_group_offsets: Vec<u64>,
}

impl LayerImages {
    /// Words in the weight image of group `gk`.
    pub fn weight_group_words(&self, gk: usize) -> u64 {
        let next = self
            .weight_group_offsets
            .get(gk + 1)
            .copied()
            .unwrap_or(self.weights.len() as u64);
        next - self.weight_group_offsets[gk]
    }
}

/// Builds the weight/bias DRAM images for one stage.
///
/// Every image is written in one pass into a buffer presized to its
/// exact length (the plan fixes each group's padded size), so no
/// intermediate copy of the weights is ever materialized. Padding words
/// (dead channel lanes, the `PO`-padded tail of a group, the zero tail
/// of a partial FC chunk) stay `+0.0`.
///
/// `fc_src` must be the producing feature-map region for FC layers (it
/// defines the flatten order); ignored for CONV layers.
///
/// # Panics
/// Panics if `weights`/`bias` lengths disagree with the plan's geometry,
/// or if an FC stage has no `fc_src`.
pub fn build_images(
    cfg: &AcceleratorConfig,
    plan: &LayerPlan,
    weights: &[f32],
    bias: &[f32],
    weight_fmt: Option<QFormat>,
    fc_src: Option<&FmapRegion>,
) -> LayerImages {
    let wl = &plan.wl;
    let po = cfg.po;
    let padded_k: Vec<usize> = (0..plan.gk)
        .map(|gk| plan.group_k(gk).div_ceil(po) * po)
        .collect();
    // Channel lanes are padded to whole PI vectors (zero weights), so
    // the PE iterates ic_vecs·PI lanes uniformly.
    let c_lanes = plan.cv_store() * plan.pi;
    // Each output channel's weights: `C·R·S` words (`R = S = 1` for FC).
    let per_k = wl.c * wl.r * wl.s;
    assert_eq!(weights.len(), wl.k * per_k);
    let fc_cols = plan.is_fc().then(|| {
        let src = fc_src.expect("FC stage requires its source region");
        assert_eq!(
            wl.c,
            src.channels * src.h * src.w,
            "FC fan-in mismatch with source region"
        );
        let cols = fc_columns(src);
        assert_eq!(cols.len(), plan.c_store);
        cols
    });
    // Image words per padded output channel.
    let words_per_k = match (&fc_cols, plan.mode) {
        (Some(_), _) => plan.c_chunks * plan.c_chunk_vecs * plan.pi,
        (None, ConvMode::Spatial) => c_lanes * wl.r * wl.s,
        (None, ConvMode::Winograd) => {
            let (r, pt) = (cfg.tile.r(), cfg.tile.pt());
            wl.r.div_ceil(r) * wl.s.div_ceil(r) * pt * pt * c_lanes
        }
    };

    let mut offsets = Vec::with_capacity(plan.gk);
    let mut total = 0;
    for &kp in &padded_k {
        offsets.push(total as u64);
        total += kp * words_per_k;
    }
    let mut image = vec![0.0f32; total];
    for (gk, &kp) in padded_k.iter().enumerate() {
        let k0 = gk * plan.k_per_group;
        let src = &weights[k0 * per_k..(k0 + plan.group_k(gk)) * per_k];
        let dst = &mut image[offsets[gk] as usize..][..kp * words_per_k];
        match (&fc_cols, plan.mode) {
            (Some(cols), _) => {
                let chunk_words = plan.c_chunk_vecs * plan.pi;
                fc_group(cols, chunk_words, src, per_k, kp, weight_fmt, dst);
            }
            (None, ConvMode::Spatial) => {
                // [k_local][c][r][s] with c padded to c_lanes.
                let rows = dst.chunks_exact_mut(words_per_k);
                for (row, src) in rows.zip(src.chunks_exact(per_k)) {
                    for (d, &v) in row.iter_mut().zip(src) {
                        *d = quantized(v, weight_fmt);
                    }
                }
            }
            (None, ConvMode::Winograd) => {
                winograd_group(cfg.tile, wl, src, kp * c_lanes, c_lanes, weight_fmt, dst);
            }
        }
    }

    // Bias image: per-group padded slices.
    let mut bias_image = Vec::new();
    let mut bias_offsets = Vec::with_capacity(plan.gk);
    if plan.bias {
        assert_eq!(bias.len(), wl.k);
        bias_image.reserve_exact(padded_k.iter().sum());
        for (gk, &kp) in padded_k.iter().enumerate() {
            bias_offsets.push(bias_image.len() as u64);
            let k0 = gk * plan.k_per_group;
            let kg = plan.group_k(gk);
            for k in 0..kp {
                let v = if k < kg { bias[k0 + k] } else { 0.0 };
                bias_image.push(quantized(v, weight_fmt));
            }
        }
    } else {
        bias_offsets.resize(plan.gk, 0);
    }

    LayerImages {
        weights: image,
        weight_group_offsets: offsets,
        bias: bias_image,
        bias_group_offsets: bias_offsets,
    }
}

/// One FC weight group, `[chunk][k_local][c_local]`: row `k` of chunk
/// `j` gathers `weights` row `k` through the column table's `j`-th
/// `chunk_words` slice. `weights` holds the group's real rows (each
/// `in_features` long); padded rows and dead or past-the-end lanes keep
/// `dst`'s zeros.
fn fc_group(
    cols: &[Option<u32>],
    chunk_words: usize,
    weights: &[f32],
    in_features: usize,
    kp: usize,
    fmt: Option<QFormat>,
    dst: &mut [f32],
) {
    for (chunk, cols) in cols.chunks(chunk_words).enumerate() {
        let rows = dst[chunk * kp * chunk_words..].chunks_exact_mut(chunk_words);
        for (row, src) in rows.zip(weights.chunks_exact(in_features)) {
            for (d, col) in row.iter_mut().zip(cols) {
                if let Some(col) = col {
                    *d = quantized(src[*col as usize], fmt);
                }
            }
        }
    }
}

/// One Winograd weight group, `[(br·BS+bs)·PT² + e][k_local][c]` with
/// `plane = kp·c_lanes` words per `e`: every real `(k, c)` kernel (rows
/// of `weights`, `KCRS`) is cut into zero-padded 3×3 blocks, each block
/// transformed and its `PT²` values scattered across the planes. Padded
/// `k` and `c` lanes keep `dst`'s zeros — exactly what transforming an
/// all-zero kernel yields.
fn winograd_group(
    tile: TileConfig,
    wl: &LayerWorkload,
    weights: &[f32],
    plane: usize,
    c_lanes: usize,
    fmt: Option<QFormat>,
    dst: &mut [f32],
) {
    let (r, pt2) = (tile.r(), tile.pt() * tile.pt());
    let (blocks_r, blocks_s) = (wl.r.div_ceil(r), wl.s.div_ceil(r));
    let mut g = vec![0.0f64; r * r];
    let mut u = vec![0.0f64; pt2];
    let mut t = Vec::new();
    for (kc, kernel) in weights.chunks_exact(wl.r * wl.s).enumerate() {
        let lane = kc / wl.c * c_lanes + kc % wl.c;
        for br in 0..blocks_r {
            for bs in 0..blocks_s {
                for gr in 0..r {
                    for gs in 0..r {
                        let (rr, ss) = (br * r + gr, bs * r + gs);
                        g[gr * r + gs] = if rr < wl.r && ss < wl.s {
                            kernel[rr * wl.s + ss] as f64
                        } else {
                            0.0
                        };
                    }
                }
                transform_kernel_into(tile, &g, &mut u, &mut t);
                let base = (br * blocks_s + bs) * pt2;
                for (e, &v) in u.iter().enumerate() {
                    dst[(base + e) * plane + lane] = quantized_wide(v, fmt);
                }
            }
        }
    }
}

/// The FC column table of a producing region: for each feature-map store
/// index `(y, x, cv, lane)` — the order the flattened input arrives in —
/// the model's `CHW`-flatten weight column it multiplies, or `None` for a
/// dead lane (channel ≥ `C`).
fn fc_columns(src: &FmapRegion) -> Vec<Option<u32>> {
    let (h, w, lanes) = (src.h, src.w, src.cv() * src.pi);
    let mut cols = Vec::with_capacity(h * w * lanes);
    for y in 0..h {
        for x in 0..w {
            for c in 0..lanes {
                cols.push(
                    (c < src.channels).then(|| {
                        u32::try_from((c * h + y) * w + x).expect("FC fan-in exceeds u32")
                    }),
                );
            }
        }
    }
    cols
}

fn quantized(v: f32, fmt: Option<QFormat>) -> f32 {
    match fmt {
        Some(f) => f.quantize(v as f64),
        None => v,
    }
}

/// [`quantized`] for an `f64` transformed weight (stored at `f32` when
/// unquantized).
fn quantized_wide(v: f64, fmt: Option<QFormat>) -> f32 {
    match fmt {
        Some(f) => f.quantize(v),
        None => v as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybriddnn_estimator::Dataflow;
    use hybriddnn_model::WeightShape;
    use hybriddnn_winograd::{gemm::TransformedWeights, TileConfig};

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::new(4, 4, TileConfig::F2x2)
    }

    fn conv_plan(mode: ConvMode, k: usize, c: usize) -> LayerPlan {
        let wl = LayerWorkload::conv(k, c, 3, 3, 8, 8, 8, 8, 1);
        LayerPlan::compute(
            &cfg(),
            "t",
            mode,
            Dataflow::WeightStationary,
            wl,
            0,
            c,
            true,
            true,
        )
        .unwrap()
    }

    #[test]
    fn spatial_image_is_kcrs_padded() {
        let plan = conv_plan(ConvMode::Spatial, 6, 2);
        let weights: Vec<f32> = (0..6 * 2 * 9).map(|i| i as f32).collect();
        let bias: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let img = build_images(&cfg(), &plan, &weights, &bias, None, None);
        // K: 6 pads to 8 (PO=4); C: 2 pads to 4 lanes (PI=4):
        // image = 8 k-rows of 4·9 = 36 words.
        assert_eq!(plan.gk, 1);
        assert_eq!(img.weights.len(), 8 * 36);
        for k in 0..6 {
            assert_eq!(
                &img.weights[k * 36..k * 36 + 18],
                &weights[k * 18..(k + 1) * 18]
            );
            assert!(img.weights[k * 36 + 18..(k + 1) * 36]
                .iter()
                .all(|&v| v == 0.0));
        }
        assert!(img.weights[6 * 36..].iter().all(|&v| v == 0.0));
        assert_eq!(img.bias.len(), 8);
        assert_eq!(&img.bias[..6], &bias[..]);
    }

    #[test]
    fn winograd_image_matches_transformed_weights() {
        let plan = conv_plan(ConvMode::Winograd, 4, 2);
        let weights: Vec<f32> = (0..4 * 2 * 9).map(|i| (i as f32) * 0.01).collect();
        let img = build_images(&cfg(), &plan, &weights, &[0.0; 4], None, None);
        // Channel dim pads 2 → 4 lanes; compare against a transform of the
        // zero-padded kernel set.
        let mut padded = vec![0.0f32; 4 * 4 * 9];
        for k in 0..4 {
            for c in 0..2 {
                padded[(k * 4 + c) * 9..(k * 4 + c + 1) * 9]
                    .copy_from_slice(&weights[(k * 2 + c) * 9..(k * 2 + c + 1) * 9]);
            }
        }
        let u = TransformedWeights::new(TileConfig::F2x2, WeightShape::new(4, 4, 3, 3), &padded);
        assert_eq!(img.weights.len(), u.as_slice().len());
        for (a, b) in img.weights.iter().zip(u.as_slice()) {
            assert!((*a as f64 - b).abs() < 1e-6);
        }
    }

    #[test]
    fn winograd_quantized_image_is_on_grid() {
        let plan = conv_plan(ConvMode::Winograd, 4, 2);
        let weights: Vec<f32> = (0..4 * 2 * 9).map(|i| (i as f32) * 0.013 - 0.3).collect();
        let fmt = QFormat::FEATURE12;
        let img = build_images(&cfg(), &plan, &weights, &[0.0; 4], Some(fmt), None);
        for &v in &img.weights {
            assert!(fmt.contains(v as f64), "{v}");
        }
    }

    #[test]
    fn group_offsets_partition_the_image() {
        // Force multiple groups with a big K.
        let c = 64;
        let k = 512;
        let plan = conv_plan(ConvMode::Winograd, k, c);
        assert!(
            plan.gk > 1,
            "expected multiple weight groups, gk={}",
            plan.gk
        );
        let weights = vec![0.5f32; k * c * 9];
        let img = build_images(&cfg(), &plan, &weights, &vec![0.0; k], None, None);
        assert_eq!(img.weight_group_offsets.len(), plan.gk);
        assert_eq!(img.weight_group_offsets[0], 0);
        let per_group = img.weight_group_words(0);
        assert_eq!(img.weight_group_offsets[1], per_group);
        let total: u64 = (0..plan.gk).map(|g| img.weight_group_words(g)).sum();
        assert_eq!(total, img.weights.len() as u64);
    }

    #[test]
    fn fc_permutation_matches_store_order() {
        // Source region 2 channels, 2x2 fmap, PI=4 → store width 1·4·2·2=16.
        let src = FmapRegion {
            base: 0,
            channels: 2,
            h: 2,
            w: 2,
            pad_h: 0,
            pad_w: 0,
            layout: ConvMode::Spatial,
            pi: 4,
        };
        let in_features = 8; // 2·2·2
                             // weight[chw] = chw index value for traceability.
        let weights: Vec<f32> = (0..in_features).map(|i| i as f32 + 1.0).collect();
        let permuted: Vec<f32> = fc_columns(&src)
            .iter()
            .map(|col| col.map_or(0.0, |c| weights[c as usize]))
            .collect();
        assert_eq!(permuted.len(), 16);
        // store f: (y,x,cv,lane); c = lane (cv=0 only since CV=1? channels=2,pi=4→cv=1)
        // f = ((y*2+x)*1 + 0)*4 + lane.
        for y in 0..2 {
            for x in 0..2 {
                for lane in 0..4 {
                    let f = (y * 2 + x) * 4 + lane;
                    let expect = if lane < 2 {
                        let chw = (lane * 2 + y) * 2 + x;
                        weights[chw]
                    } else {
                        0.0
                    };
                    assert_eq!(permuted[f], expect, "y{y} x{x} lane{lane}");
                }
            }
        }
    }

    /// The original two-pass builder, kept as the oracle the one-pass
    /// [`build_images`] must reproduce bit for bit: FC weights go through
    /// a full `K × c_store` permuted copy, Winograd groups through a
    /// zero-padded slice and an `f64` [`TransformedWeights`].
    fn oracle_build_images(
        cfg: &AcceleratorConfig,
        plan: &LayerPlan,
        weights: &[f32],
        bias: &[f32],
        weight_fmt: Option<QFormat>,
        fc_src: Option<&FmapRegion>,
    ) -> LayerImages {
        let wl = &plan.wl;
        let po = cfg.po;
        let mut image = Vec::new();
        let mut offsets = Vec::with_capacity(plan.gk);

        if plan.is_fc() {
            let src = fc_src.expect("FC stage requires its source region");
            let permuted = permute_fc_weights(wl.k, wl.c, src, weights);
            let chunk_words = plan.c_chunk_vecs * plan.pi;
            let store = plan.c_store;
            for gk in 0..plan.gk {
                offsets.push(image.len() as u64);
                let k0 = gk * plan.k_per_group;
                let kg = plan.group_k(gk);
                let kg_padded = kg.div_ceil(po) * po;
                for chunk in 0..plan.c_chunks {
                    let f0 = chunk * chunk_words;
                    for k in 0..kg_padded {
                        for f in 0..chunk_words {
                            let v = if k < kg && f0 + f < store {
                                permuted[(k0 + k) * store + f0 + f]
                            } else {
                                0.0
                            };
                            image.push(quantized(v, weight_fmt));
                        }
                    }
                }
            }
        } else {
            let c_lanes = plan.cv_store() * plan.pi;
            assert_eq!(weights.len(), wl.k * wl.c * wl.r * wl.s);
            let per_k = wl.c * wl.r * wl.s;
            let per_k_padded = c_lanes * wl.r * wl.s;
            match plan.mode {
                ConvMode::Spatial => {
                    for gk in 0..plan.gk {
                        offsets.push(image.len() as u64);
                        let k0 = gk * plan.k_per_group;
                        let kg = plan.group_k(gk);
                        let kg_padded = kg.div_ceil(po) * po;
                        for k in 0..kg_padded {
                            if k < kg {
                                let src = &weights[(k0 + k) * per_k..(k0 + k + 1) * per_k];
                                image.extend(src.iter().map(|&v| quantized(v, weight_fmt)));
                                image.extend(std::iter::repeat_n(
                                    0.0f32,
                                    (c_lanes - wl.c) * wl.r * wl.s,
                                ));
                            } else {
                                image.extend(std::iter::repeat_n(0.0f32, per_k_padded));
                            }
                        }
                    }
                }
                ConvMode::Winograd => {
                    for gk in 0..plan.gk {
                        offsets.push(image.len() as u64);
                        let k0 = gk * plan.k_per_group;
                        let kg = plan.group_k(gk);
                        let kg_padded = kg.div_ceil(po) * po;
                        let mut slice = vec![0.0f32; kg_padded * per_k_padded];
                        for k in 0..kg {
                            for c in 0..wl.c {
                                let src = &weights[((k0 + k) * wl.c + c) * wl.r * wl.s
                                    ..((k0 + k) * wl.c + c + 1) * wl.r * wl.s];
                                slice[(k * c_lanes + c) * wl.r * wl.s
                                    ..(k * c_lanes + c + 1) * wl.r * wl.s]
                                    .copy_from_slice(src);
                            }
                        }
                        let shape = WeightShape::new(kg_padded, c_lanes, wl.r, wl.s);
                        let mut u = TransformedWeights::new(cfg.tile, shape, &slice);
                        if let Some(fmt) = weight_fmt {
                            u.quantize(fmt);
                        }
                        image.extend(u.as_slice().iter().map(|&v| v as f32));
                    }
                }
            }
        }

        let mut bias_image = Vec::new();
        let mut bias_offsets = Vec::with_capacity(plan.gk);
        if plan.bias {
            assert_eq!(bias.len(), wl.k);
            for gk in 0..plan.gk {
                bias_offsets.push(bias_image.len() as u64);
                let k0 = gk * plan.k_per_group;
                let kg = plan.group_k(gk);
                let kg_padded = kg.div_ceil(po) * po;
                for k in 0..kg_padded {
                    let v = if k < kg { bias[k0 + k] } else { 0.0 };
                    bias_image.push(quantized(v, weight_fmt));
                }
            }
        } else {
            bias_offsets.resize(plan.gk, 0);
        }

        LayerImages {
            weights: image,
            weight_group_offsets: offsets,
            bias: bias_image,
            bias_group_offsets: bias_offsets,
        }
    }

    /// The oracle's FC permutation: `K × c_store` row-major, columns in
    /// the producing region's `(y, x, cv, lane)` store order.
    fn permute_fc_weights(
        k: usize,
        in_features: usize,
        src: &FmapRegion,
        weights: &[f32],
    ) -> Vec<f32> {
        assert_eq!(weights.len(), k * in_features);
        let (h, w, cv, pi) = (src.h, src.w, src.cv(), src.pi);
        let store = h * w * cv * pi;
        assert_eq!(in_features, src.channels * h * w);
        let mut out = vec![0.0f32; k * store];
        for row in 0..k {
            for f in 0..store {
                let lane = f % pi;
                let rest = f / pi;
                let cvi = rest % cv;
                let rest = rest / cv;
                let x = rest % w;
                let y = rest / w;
                let c = cvi * pi + lane;
                if c < src.channels {
                    let chw = (c * h + y) * w + x;
                    out[row * store + f] = weights[row * in_features + chw];
                }
            }
        }
        out
    }

    /// Deterministic weights in `[-1, 1)` with exact `-0.0`, `+0.0` and
    /// tiny negatives (which quantize to `-0.0`) mixed in.
    fn test_weights(n: usize, seed: u64) -> Vec<f32> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match i % 13 {
                    3 => -0.0,
                    7 => 0.0,
                    11 => -1e-6,
                    _ => (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Builds with both builders and demands bit-identical images and an
    /// exactly presized weight buffer.
    fn assert_matches_oracle(
        cfg: &AcceleratorConfig,
        plan: &LayerPlan,
        src: Option<&FmapRegion>,
        what: &str,
    ) {
        let wl = &plan.wl;
        let weights = test_weights(wl.k * wl.c * wl.r * wl.s, wl.k as u64 + 31 * wl.c as u64);
        let bias = test_weights(wl.k, 5);
        for fmt in [
            crate::QuantSpec::float32().weights,
            crate::QuantSpec::paper_12bit().weights,
        ] {
            let got = build_images(cfg, plan, &weights, &bias, fmt, src);
            let want = oracle_build_images(cfg, plan, &weights, &bias, fmt, src);
            assert_eq!(got.weights.capacity(), got.weights.len(), "{what} {fmt:?}");
            assert_eq!(got.weights.len(), want.weights.len(), "{what} {fmt:?}");
            assert!(
                bits(&got.weights) == bits(&want.weights),
                "{what} {fmt:?}: weight image differs"
            );
            assert_eq!(got.weight_group_offsets, want.weight_group_offsets);
            assert!(bits(&got.bias) == bits(&want.bias), "{what} {fmt:?}: bias");
            assert_eq!(got.bias_group_offsets, want.bias_group_offsets);
        }
    }

    #[test]
    fn fc_image_matches_oracle_bit_for_bit() {
        // 6 channels on PI=4 (dead lanes), a 23x23 map: 1058 channel
        // vectors split into a full 1024-vector chunk and a partial one;
        // K=37 splits into groups of 16 with a partial last group.
        let cfg = AcceleratorConfig::new(4, 4, TileConfig::F2x2);
        let src = FmapRegion {
            base: 0,
            channels: 6,
            h: 23,
            w: 23,
            pad_h: 0,
            pad_w: 0,
            layout: ConvMode::Spatial,
            pi: 4,
        };
        let wl = LayerWorkload::fc(37, 6 * 23 * 23);
        let store = src.h * src.w * src.cv() * src.pi;
        let plan = LayerPlan::compute(
            &cfg,
            "fc",
            ConvMode::Spatial,
            Dataflow::WeightStationary,
            wl,
            0,
            store,
            true,
            true,
        )
        .unwrap();
        assert!(plan.c_chunks > 1, "c_chunks={}", plan.c_chunks);
        assert!(plan.chunk_vecs(plan.c_chunks - 1) < plan.c_chunk_vecs);
        assert!(plan.gk > 1, "gk={}", plan.gk);
        assert!(plan.group_k(plan.gk - 1) < plan.k_per_group);
        assert_matches_oracle(&cfg, &plan, Some(&src), "fc");
    }

    #[test]
    fn conv_images_match_oracle_bit_for_bit() {
        // C=6 on PI=4 (dead lanes), K=23 on PO=2 (a padded k lane), and a
        // shallow buffer so K splits into groups with a partial last one
        // (every Winograd case and the 5x5 Spatial ones).
        let (k, c) = (23, 6);
        for tile in [TileConfig::F2x2, TileConfig::F4x4] {
            let mut cfg = AcceleratorConfig::new(4, 2, tile);
            cfg.buffer_depth_words = 8;
            for mode in [ConvMode::Spatial, ConvMode::Winograd] {
                for r in [1, 3, 5] {
                    let wl = LayerWorkload::conv(k, c, r, r, 8, 8, 8, 8, 1);
                    let plan = LayerPlan::compute(
                        &cfg,
                        "t",
                        mode,
                        Dataflow::WeightStationary,
                        wl,
                        0,
                        c,
                        true,
                        true,
                    )
                    .unwrap();
                    let what = format!("{tile} {mode:?} {r}x{r}");
                    assert_eq!(plan.mode, mode, "{what}");
                    if mode == ConvMode::Winograd || r == 5 {
                        assert!(plan.gk > 1, "{what}: gk={}", plan.gk);
                        assert!(plan.group_k(plan.gk - 1) < plan.k_per_group, "{what}");
                    }
                    assert_matches_oracle(&cfg, &plan, None, &what);
                }
            }
        }
    }
}
