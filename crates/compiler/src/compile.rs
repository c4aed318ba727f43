//! Top-level compilation: network → stages → plans → regions → images →
//! instruction streams.

use crate::{
    image::{build_images, LayerImages},
    layout::MemoryMap,
    lower::{lower_stage, StageContext},
    plan::{LayerPlan, MappingStrategy},
    CompileError,
};
use hybriddnn_estimator::{AcceleratorConfig, ConvMode, LayerWorkload};
use hybriddnn_fpga::ExternalMemory;
use hybriddnn_isa::Program;
use hybriddnn_model::{quant::QFormat, LayerKind, ModelError, Network, Shape, Tensor};

/// Numeric precision of the compiled design.
///
/// `float32` is the validation mode (compare against the golden CPU
/// reference within floating-point tolerance); the paper's deployment
/// precision is [`QuantSpec::paper_12bit`] (8-bit weights, 12-bit
/// activations — Table 4 footnote).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuantSpec {
    /// Weight storage format (`None` = f32).
    pub weights: Option<QFormat>,
    /// Activation format applied at every layer boundary (`None` = f32).
    pub activations: Option<QFormat>,
}

impl QuantSpec {
    /// Full-precision compilation.
    pub fn float32() -> Self {
        QuantSpec {
            weights: None,
            activations: None,
        }
    }

    /// The paper's deployment precision: 8-bit weights, 12-bit feature
    /// maps in the PE.
    pub fn paper_12bit() -> Self {
        QuantSpec {
            weights: Some(QFormat::WEIGHT8),
            activations: Some(QFormat::FEATURE12),
        }
    }

    /// Whether any quantization is enabled.
    pub fn is_quantized(&self) -> bool {
        self.weights.is_some() || self.activations.is_some()
    }
}

/// One compiled stage: a CONV/FC layer (plus fused pooling) with its
/// instruction stream and region bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledLayer {
    name: String,
    plan: LayerPlan,
    input_region: usize,
    output_region: usize,
    program: Program,
    wgt_dram_base: u64,
    bias_dram_base: u64,
    wgt_words: u64,
}

impl CompiledLayer {
    /// Stage name (the compute layer's name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The execution plan.
    pub fn plan(&self) -> &LayerPlan {
        &self.plan
    }

    /// Index of the input region in the memory map.
    pub fn input_region(&self) -> usize {
        self.input_region
    }

    /// Index of the output region in the memory map.
    pub fn output_region(&self) -> usize {
        self.output_region
    }

    /// The stage's instruction stream.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Words in this stage's weight image (the LOAD_WGT traffic per full
    /// pass over the weights).
    pub fn weight_words(&self) -> u64 {
        self.wgt_words
    }
}

/// A fully compiled network: everything the runtime needs to execute on
/// the accelerator (or its simulator).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledNetwork {
    config: AcceleratorConfig,
    quant: QuantSpec,
    memory_map: MemoryMap,
    layers: Vec<CompiledLayer>,
    data: Vec<(u64, Vec<f32>)>,
    input_region: usize,
    output_region: usize,
    input_shape: Shape,
    output_shape: Shape,
    total_ops: u64,
}

impl CompiledNetwork {
    /// The accelerator configuration this network was compiled for.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The numeric precision.
    pub fn quant(&self) -> QuantSpec {
        self.quant
    }

    /// The DRAM region table.
    pub fn memory_map(&self) -> &MemoryMap {
        &self.memory_map
    }

    /// The compiled stages in execution order.
    pub fn layers(&self) -> &[CompiledLayer] {
        &self.layers
    }

    /// Rewrites each stage's instruction stream through `f` (stage
    /// index, current program → replacement). A fault-injection and
    /// testing hook — e.g. corrupting a stream to prove the simulator's
    /// deadlock/overrun errors surface through a serving stack — not
    /// something the compiler itself ever needs: compiled programs are
    /// well-formed by construction.
    pub fn map_programs(&mut self, mut f: impl FnMut(usize, &Program) -> Program) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.program = f(i, &layer.program);
        }
    }

    /// Arithmetic operation count of one inference (for GOPS).
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Network input shape.
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// Network output shape.
    pub fn output_shape(&self) -> Shape {
        self.output_shape
    }

    /// Stages all weight/bias images into external memory (the host
    /// runtime's one-time setup).
    pub fn stage_data(&self, mem: &mut ExternalMemory) {
        for (base, words) in &self.data {
            mem.host_write(*base, words);
        }
    }

    /// Writes an input tensor into the network's input region (quantizing
    /// onto the activation grid when fixed-point is enabled).
    ///
    /// # Errors
    /// Returns [`ModelError::ShapeMismatch`] if the tensor shape differs
    /// from the network input.
    pub fn write_input(&self, mem: &mut ExternalMemory, input: &Tensor) -> Result<(), ModelError> {
        if input.shape() != self.input_shape {
            return Err(ModelError::ShapeMismatch {
                layer: "<input>".to_string(),
                detail: format!("expected {}, got {}", self.input_shape, input.shape()),
            });
        }
        let region = self.memory_map.region(self.input_region);
        let s = input.shape();
        // Both layouts are linear in `x` for fixed `(c, y)`, so each
        // tensor row (contiguous in CHW order) is one strided store with
        // the per-word address math hoisted — the serving path stages
        // every input through here, so this loop is hot.
        let x_stride = if s.w > 1 {
            region.addr(0, 0, 1) - region.addr(0, 0, 0)
        } else {
            1
        };
        let data = input.as_slice();
        let mut row_array = [0.0f32; 64];
        let mut row_vec = Vec::new();
        for c in 0..s.c {
            for y in 0..s.h {
                let src = &data[(c * s.h + y) * s.w..][..s.w];
                let row = match self.quant.activations {
                    Some(fmt) => {
                        let row: &mut [f32] = if s.w <= row_array.len() {
                            &mut row_array[..s.w]
                        } else {
                            row_vec.resize(s.w, 0.0);
                            &mut row_vec
                        };
                        for (d, &v) in row.iter_mut().zip(src) {
                            *d = fmt.quantize(v as f64);
                        }
                        &*row
                    }
                    None => src,
                };
                mem.host_write_strided(region.addr(c, y, 0), x_stride, row);
            }
        }
        Ok(())
    }

    /// Reads the network output tensor back from external memory.
    pub fn read_output(&self, mem: &ExternalMemory) -> Tensor {
        let mut out = Tensor::zeros(self.output_shape);
        self.read_output_into(mem, &mut out);
        out
    }

    /// Like [`CompiledNetwork::read_output`], writing into a
    /// caller-provided tensor so steady-state serving loops can reuse one
    /// allocation across inferences. `out` is resized (reallocated) only
    /// if its shape does not already match the network output.
    pub fn read_output_into(&self, mem: &ExternalMemory, out: &mut Tensor) {
        let region = self.memory_map.region(self.output_region);
        let s = self.output_shape;
        if out.shape() != s {
            *out = Tensor::zeros(s);
        }
        for c in 0..s.c {
            for y in 0..s.h {
                for x in 0..s.w {
                    out.set(c, y, x, mem.host_load(region.addr(c, y, x)));
                }
            }
        }
    }

    /// Reads the activation tensor produced by stage `i` (for
    /// layer-by-layer validation against the golden reference).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn read_stage_output(&self, mem: &ExternalMemory, i: usize, shape: Shape) -> Tensor {
        let region = self.memory_map.region(self.layers[i].output_region);
        let mut out = Tensor::zeros(shape);
        for c in 0..shape.c {
            for y in 0..shape.h {
                for x in 0..shape.w {
                    out.set(c, y, x, mem.host_load(region.addr(c, y, x)));
                }
            }
        }
        out
    }

    /// Total instruction count across stages.
    pub fn instruction_count(&self) -> usize {
        self.layers.iter().map(|l| l.program().len()).sum()
    }

    /// The raw `(dram base, words)` weight/bias data segments — the
    /// "Data Files" half of Figure 1's compiler output.
    pub fn data_segments(&self) -> &[(u64, Vec<f32>)] {
        &self.data
    }
}

/// The HybridDNN compiler (Figure 1 Step 3).
#[derive(Debug, Clone)]
pub struct Compiler {
    cfg: AcceleratorConfig,
    quant: QuantSpec,
}

impl Compiler {
    /// Creates a compiler for one accelerator configuration, defaulting
    /// to full-precision (`f32`) data.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        Compiler {
            cfg,
            quant: QuantSpec::float32(),
        }
    }

    /// Sets the numeric precision.
    pub fn with_quant(mut self, quant: QuantSpec) -> Self {
        self.quant = quant;
        self
    }

    /// Compiles a fully-bound network under the given per-layer mapping
    /// strategy.
    ///
    /// # Errors
    /// * [`CompileError::MissingWeights`] if a compute layer is unbound.
    /// * [`CompileError::Unsupported`] for layer sequences the lowering
    ///   cannot express (e.g. pooling with no preceding compute layer).
    /// * [`CompileError::Infeasible`] if a layer cannot be blocked into
    ///   the configured on-chip buffers.
    pub fn compile(
        &self,
        net: &Network,
        strategy: &MappingStrategy,
    ) -> Result<CompiledNetwork, CompileError> {
        strategy.check(net)?;

        // 1. Group layers into stages (compute layer + fused pooling).
        let stages = collect_stages(net)?;

        // 2. Build per-stage plans.
        let mut plans = Vec::with_capacity(stages.len());
        for (si, stage) in stages.iter().enumerate() {
            let layer = &net.layers()[stage.layer_idx];
            let in_shape = net.layer_input_shape(stage.layer_idx);
            let out_shape = net.layer_output_shape(stage.layer_idx);
            let wl = LayerWorkload::from_layer(layer, in_shape, out_shape)
                .expect("stage heads are compute layers");
            let (mode, dataflow) = strategy.choice(si);
            let c_store = if wl.out_h == 1 && wl.out_w == 1 {
                in_shape.h * in_shape.w * in_shape.c.div_ceil(self.cfg.pi) * self.cfg.pi
            } else {
                wl.c
            };
            let (relu, bias) = layer_relu_bias(layer);
            let plan = LayerPlan::compute(
                &self.cfg,
                layer.name(),
                mode,
                dataflow,
                wl,
                stage.pool,
                c_store,
                relu,
                bias,
            )?;
            plans.push(plan);
        }

        // 3. Allocate activation regions. Region s feeds stage s; region
        //    s+1 receives its output. Layout and halo follow the consumer.
        let mut map = MemoryMap::new();
        let mut region_ids = Vec::with_capacity(stages.len() + 1);
        for (si, stage) in stages.iter().enumerate() {
            let shape = net.layer_input_shape(stage.layer_idx);
            let (pad_h, pad_w) = stage_padding(net, stage.layer_idx);
            let id = map.alloc_region(
                shape.c,
                shape.h,
                shape.w,
                pad_h,
                pad_w,
                plans[si].mode,
                self.cfg.pi,
            );
            region_ids.push(id);
        }
        // Final output region: no halo, Spatial layout.
        let out_shape = net.output_shape();
        let final_id = map.alloc_region(
            out_shape.c,
            out_shape.h,
            out_shape.w,
            0,
            0,
            ConvMode::Spatial,
            self.cfg.pi,
        );
        region_ids.push(final_id);

        // 4. Build weight/bias images and lower each stage.
        let mut layers = Vec::with_capacity(stages.len());
        let mut data = Vec::new();
        for (si, stage) in stages.iter().enumerate() {
            let layer = &net.layers()[stage.layer_idx];
            let binding =
                net.binding(stage.layer_idx)
                    .ok_or_else(|| CompileError::MissingWeights {
                        layer: layer.name().to_string(),
                    })?;
            let input_region = *map.region(region_ids[si]);
            let images: LayerImages = build_images(
                &self.cfg,
                &plans[si],
                &binding.weights,
                &binding.bias,
                self.quant.weights,
                Some(&input_region),
            );
            let wgt_base = map.alloc_raw(images.weights.len() as u64);
            let bias_base = map.alloc_raw(images.bias.len().max(1) as u64);
            let wgt_words = images.weights.len() as u64;
            let group_words: Vec<u64> = (0..plans[si].gk)
                .map(|g| images.weight_group_words(g))
                .collect();
            let output_region = *map.region(region_ids[si + 1]);
            let ctx = StageContext {
                cfg: &self.cfg,
                plan: &plans[si],
                input: &input_region,
                output: &output_region,
                wgt_dram_base: wgt_base,
                wgt_group_offsets: &images.weight_group_offsets,
                wgt_group_words: &group_words,
                bias_dram_base: bias_base,
                bias_group_offsets: &images.bias_group_offsets,
            };
            let program = lower_stage(&ctx).map_err(|e| match e {
                CompileError::Isa(err) => CompileError::Infeasible {
                    layer: layer.name().to_string(),
                    detail: err.to_string(),
                },
                other => other,
            })?;
            // Validate every emitted instruction encodes.
            program.encode().map_err(|err| CompileError::Infeasible {
                layer: layer.name().to_string(),
                detail: err.to_string(),
            })?;
            data.push((wgt_base, images.weights));
            if !images.bias.is_empty() {
                data.push((bias_base, images.bias));
            }
            layers.push(CompiledLayer {
                name: layer.name().to_string(),
                plan: plans[si].clone(),
                input_region: region_ids[si],
                output_region: region_ids[si + 1],
                program,
                wgt_dram_base: wgt_base,
                bias_dram_base: bias_base,
                wgt_words,
            });
        }

        Ok(CompiledNetwork {
            config: self.cfg,
            quant: self.quant,
            memory_map: map,
            layers,
            data,
            input_region: region_ids[0],
            output_region: final_id,
            input_shape: net.input_shape(),
            output_shape: net.output_shape(),
            total_ops: net.total_ops(),
        })
    }
}

struct StageSpec {
    /// Index of the compute layer in the network.
    layer_idx: usize,
    /// Fused pool window (0 = none).
    pool: usize,
}

fn collect_stages(net: &Network) -> Result<Vec<StageSpec>, CompileError> {
    let mut stages: Vec<StageSpec> = Vec::new();
    for (i, layer) in net.layers().iter().enumerate() {
        match layer.kind() {
            LayerKind::Conv(_) | LayerKind::Fc(_) => {
                stages.push(StageSpec {
                    layer_idx: i,
                    pool: 0,
                });
            }
            LayerKind::MaxPool(p) => {
                let Some(stage) = stages.last_mut() else {
                    return Err(CompileError::Unsupported {
                        layer: layer.name().to_string(),
                        detail: "pooling with no preceding compute layer".to_string(),
                    });
                };
                if stage.pool != 0 {
                    return Err(CompileError::Unsupported {
                        layer: layer.name().to_string(),
                        detail: "consecutive pooling layers cannot be fused".to_string(),
                    });
                }
                if p.size > 3 {
                    return Err(CompileError::Unsupported {
                        layer: layer.name().to_string(),
                        detail: "POOL_SIZE field supports windows up to 3".to_string(),
                    });
                }
                stage.pool = p.size;
            }
            _ => {
                return Err(CompileError::Unsupported {
                    layer: layer.name().to_string(),
                    detail: "unknown layer kind".to_string(),
                })
            }
        }
    }
    if stages.is_empty() {
        return Err(CompileError::Model(ModelError::EmptyNetwork));
    }
    Ok(stages)
}

fn stage_padding(net: &Network, layer_idx: usize) -> (usize, usize) {
    match net.layers()[layer_idx].kind() {
        LayerKind::Conv(c) => (c.padding.h, c.padding.w),
        _ => (0, 0),
    }
}

fn layer_relu_bias(layer: &hybriddnn_model::Layer) -> (bool, bool) {
    match layer.kind() {
        LayerKind::Conv(c) => (
            matches!(c.activation, hybriddnn_model::Activation::Relu),
            c.bias,
        ),
        LayerKind::Fc(fc) => (
            matches!(fc.activation, hybriddnn_model::Activation::Relu),
            fc.bias,
        ),
        _ => (false, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybriddnn_model::{synth, zoo, NetworkBuilder};
    use hybriddnn_winograd::TileConfig;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::new(4, 4, TileConfig::F2x2)
    }

    fn bound(net: &mut Network) {
        synth::bind_random(net, 5).unwrap();
    }

    #[test]
    fn compiles_tiny_cnn() {
        let mut net = zoo::tiny_cnn();
        bound(&mut net);
        let c = Compiler::new(cfg())
            .compile(&net, &MappingStrategy::all_winograd(&net))
            .unwrap();
        // conv1(+pool1) and fc1 → two stages.
        assert_eq!(c.layers().len(), 2);
        assert_eq!(c.layers()[0].plan().pool, 2);
        assert!(c.instruction_count() > 0);
        assert_eq!(c.output_shape(), Shape::new(10, 1, 1));
    }

    #[test]
    fn missing_weights_is_reported() {
        let net = zoo::tiny_cnn();
        let err = Compiler::new(cfg())
            .compile(&net, &MappingStrategy::all_winograd(&net))
            .unwrap_err();
        assert!(matches!(err, CompileError::MissingWeights { .. }));
    }

    #[test]
    fn leading_pool_is_unsupported() {
        let mut net = NetworkBuilder::new(Shape::new(4, 8, 8))
            .max_pool("p", 2)
            .fc("fc", 4)
            .build()
            .unwrap();
        bound(&mut net);
        let err = Compiler::new(cfg())
            .compile(&net, &MappingStrategy::all_spatial(&net))
            .unwrap_err();
        assert!(matches!(err, CompileError::Unsupported { .. }));
    }

    #[test]
    fn regions_follow_consumer_mode() {
        let mut net = zoo::vgg_tiny();
        bound(&mut net);
        let c = Compiler::new(cfg())
            .compile(&net, &MappingStrategy::all_winograd(&net))
            .unwrap();
        // First region (network input) uses the first stage's mode.
        let r0 = c.memory_map().region(c.layers()[0].input_region());
        assert_eq!(r0.layout, c.layers()[0].plan().mode);
        // FC stages force Spatial; the region feeding the first FC layer
        // must therefore be Spatial.
        let fc_stage = c
            .layers()
            .iter()
            .find(|l| l.plan().is_fc())
            .expect("has FC stage");
        let rin = c.memory_map().region(fc_stage.input_region());
        assert_eq!(rin.layout, ConvMode::Spatial);
    }

    #[test]
    fn data_segments_are_disjoint_from_regions() {
        let mut net = zoo::tiny_cnn();
        bound(&mut net);
        let c = Compiler::new(cfg())
            .compile(&net, &MappingStrategy::all_spatial(&net))
            .unwrap();
        let region_end: u64 = c
            .memory_map()
            .regions()
            .iter()
            .map(|r| r.base + r.words())
            .max()
            .unwrap();
        for (base, words) in &c.data {
            assert!(*base >= region_end || base + words.len() as u64 <= region_end);
        }
        assert!(c.memory_map().total_words() >= region_end);
    }

    #[test]
    fn write_read_input_roundtrip() {
        let mut net = zoo::tiny_cnn();
        bound(&mut net);
        let c = Compiler::new(cfg())
            .compile(&net, &MappingStrategy::all_spatial(&net))
            .unwrap();
        let mut mem = ExternalMemory::new();
        let input = synth::tensor(net.input_shape(), 3);
        c.write_input(&mut mem, &input).unwrap();
        // Reading back through the same region must reproduce the tensor.
        let region = c.memory_map().region(c.layers()[0].input_region());
        let s = input.shape();
        for ch in 0..s.c {
            for y in 0..s.h {
                for x in 0..s.w {
                    assert_eq!(mem.host_load(region.addr(ch, y, x)), input.at(ch, y, x));
                }
            }
        }
        // Wrong shape is rejected.
        assert!(c
            .write_input(&mut mem, &Tensor::zeros(Shape::new(1, 2, 2)))
            .is_err());
    }

    #[test]
    fn quantized_compile_puts_weights_on_grid() {
        let mut net = zoo::tiny_cnn();
        bound(&mut net);
        let c = Compiler::new(cfg())
            .with_quant(QuantSpec::paper_12bit())
            .compile(&net, &MappingStrategy::all_spatial(&net))
            .unwrap();
        let fmt = QFormat::WEIGHT8;
        for (_, words) in &c.data {
            for &w in words {
                assert!(fmt.contains(w as f64) || QFormat::FEATURE12.contains(w as f64));
            }
        }
    }

    #[test]
    fn vgg16_compiles_for_vu9p_config() {
        // Structure-only check (weights zeroed to keep this test fast).
        let mut net = zoo::vgg16();
        for i in 0..net.layers().len() {
            let layer = net.layers()[i].clone();
            let (wlen, blen) = match layer.kind() {
                LayerKind::Conv(cv) => (cv.weight_shape().len(), cv.out_channels),
                LayerKind::Fc(fc) => (fc.weight_shape().len(), fc.out_features),
                _ => continue,
            };
            net.bind(i, vec![0.0; wlen], vec![0.0; blen]).unwrap();
        }
        let cfg6 = AcceleratorConfig::new(4, 4, TileConfig::F4x4);
        let c = Compiler::new(cfg6)
            .compile(&net, &MappingStrategy::all_winograd(&net))
            .unwrap();
        assert_eq!(c.layers().len(), 16);
        // All conv stages Winograd, FC stages Spatial.
        for l in c.layers() {
            if l.plan().is_fc() {
                assert_eq!(l.plan().mode, ConvMode::Spatial);
            } else {
                assert_eq!(l.plan().mode, ConvMode::Winograd, "{}", l.name());
            }
        }
        // DRAM footprint fits the 32-bit LOAD address space.
        assert!(c.memory_map().total_words() < (1 << 32));
    }
}
