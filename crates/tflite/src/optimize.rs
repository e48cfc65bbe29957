//! Model optimization: pruning, quantization, compiler lowering
//! (paper §7.2).
//!
//! The paper's planned extension "leverag\[es\] pruning and quantization
//! tools, such as Intel OpenVINO" to shrink models — which matters twice
//! inside an enclave: smaller models mean less EPC pressure *and* faster
//! provisioning. This module implements the three classic tools:
//!
//! * [`prune_magnitude`] — zero the smallest-magnitude fraction of each
//!   weight tensor (the model keeps its shape; sparse kernels and
//!   compressed storage benefit),
//! * [`optimize_for_inference`] — lower through the shared compiler
//!   pipeline, which removes nodes that do not contribute to the output
//!   (e.g. a training head left in an exported graph), folds constant
//!   subgraphs and fuses kernel chains,
//! * [`quantize`] / [`QuantizedModel`] — 8-bit affine quantization of
//!   weight tensors with per-tensor scales, giving a ~4× smaller
//!   artifact that dequantizes on load.

use crate::model::LiteModel;
use crate::LiteError;
use securetf_tensor::bytes::{put_len_prefixed, put_shape, put_u32, Reader};
use securetf_tensor::graph::{Graph, Op};
use securetf_tensor::kernels;
use securetf_tensor::passes::{Pipeline, PipelineReport};
use securetf_tensor::tensor::Tensor;

/// Outcome of a pruning pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneReport {
    /// Weights set to zero.
    pub zeroed: usize,
    /// Total weights examined.
    pub total: usize,
}

impl PruneReport {
    /// Fraction of weights zeroed.
    pub fn sparsity(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.zeroed as f64 / self.total as f64
        }
    }
}

/// Zeroes the `fraction` smallest-magnitude weights of every constant
/// tensor with more than 64 elements (biases and small tensors are left
/// intact, as real pruning tools do).
///
/// # Panics
///
/// Panics if `fraction` is not within `0.0..=1.0`.
pub fn prune_magnitude(model: &LiteModel, fraction: f32) -> (LiteModel, PruneReport) {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1]"
    );
    // Row-major weights: pruning and quantization read their order.
    let mut graph = model.graph().unpacked();
    let mut zeroed = 0usize;
    let mut total = 0usize;
    for index in 0..graph.len() {
        let id = graph.node_id(index).expect("in range");
        let Op::Constant(t) = &graph.nodes()[index].op else {
            continue;
        };
        if t.len() <= 64 {
            continue;
        }
        total += t.len();
        // Zero exactly the k smallest-magnitude weights (ties broken by
        // position, matching deterministic pruning tools).
        let k = (t.len() as f32 * fraction).round() as usize;
        let mut order: Vec<usize> = (0..t.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            t.data()[a]
                .abs()
                .partial_cmp(&t.data()[b].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut pruned = t.clone();
        for &i in order.iter().take(k) {
            pruned.data_mut()[i] = 0.0;
        }
        zeroed += pruned.data().iter().filter(|&&v| v == 0.0).count();
        graph
            .replace_constant(id, pruned)
            .expect("id refers to a constant");
    }
    let pruned_model = rebind(model, graph);
    (pruned_model, PruneReport { zeroed, total })
}

/// Lowers a model through the compiler's one pipeline, the one training
/// uses too (DCE → constant folding → operator fusion). Outputs are
/// bit-identical to the unoptimized model; the graph shrinks and
/// `matmul/conv → add_bias[ → relu]` chains become fused single-kernel
/// nodes (fewer arena slots, fewer EPC page touches).
///
/// It consumes `model`: the pipeline moves the graph's nodes, weights
/// included, into the lowered model, so the lowering copies no weight
/// and holds one copy of them at any time. A caller that keeps the
/// model passes a clone.
///
/// # Errors
///
/// Returns [`LiteError::Exec`] if the pipeline rejects the graph.
pub fn optimize_for_inference(
    mut model: LiteModel,
) -> Result<(LiteModel, PipelineReport), LiteError> {
    let roots = [model.input(), model.output()];
    let optimized = Pipeline::lowering().run(model.take_graph(), &roots)?;
    let input = optimized
        .target(roots[0])
        .ok_or(LiteError::MalformedModel("input eliminated"))?;
    let output = optimized
        .target(roots[1])
        .ok_or(LiteError::MalformedModel("output eliminated"))?;
    let lite = model.rebound(optimized.graph, input, output)?;
    Ok((lite, optimized.report))
}

/// Rebinds after an id-preserving rewrite (prune, quantize):
/// the input/output bindings carry over unchanged.
fn rebind(model: &LiteModel, graph: Graph) -> LiteModel {
    model
        .rebound(graph, model.input(), model.output())
        .expect("same ops as a valid lite model")
}

/// One 8-bit-quantized weight tensor.
#[derive(Debug, Clone, PartialEq)]
struct QuantBuffer {
    shape: Vec<usize>,
    scale: f32,
    values: Vec<i8>,
}

/// Per-tensor int8 quantization on the tensor crate's one int8 kernel:
/// `scale = max |finite v| / 127`, so one non-finite weight cannot spoil
/// the scale of the rest (an infinite weight lands on ±127, a NaN on 0).
fn quantize_tensor(t: &Tensor) -> QuantBuffer {
    let mut values = vec![0i8; t.len()];
    let scale = kernels::quantize_i8(t.data(), &mut values, None);
    QuantBuffer {
        shape: t.shape().to_vec(),
        scale,
        values,
    }
}

fn dequantize_tensor(q: &QuantBuffer) -> Tensor {
    Tensor::from_vec(
        &q.shape,
        q.values.iter().map(|&v| v as f32 * q.scale).collect(),
    )
    .expect("shape matches values")
}

/// A compactly-serialized model with 8-bit weights.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    skeleton: Vec<u8>,
    buffers: Vec<QuantBuffer>,
}

const QUANT_MAGIC: &[u8; 5] = b"STFQ1";
/// Constants this small stay in f32 (biases, scalars).
const QUANT_MIN_ELEMENTS: usize = 65;

/// Quantizes all large weight tensors of `model` to 8 bits.
pub fn quantize(model: &LiteModel) -> QuantizedModel {
    // Row-major weights: pruning and quantization read their order.
    let mut graph = model.graph().unpacked();
    let mut buffers = Vec::new();
    for index in 0..graph.len() {
        let id = graph.node_id(index).expect("in range");
        let Op::Constant(t) = &graph.nodes()[index].op else {
            continue;
        };
        if t.len() < QUANT_MIN_ELEMENTS {
            continue;
        }
        buffers.push(quantize_tensor(t));
        // Leave an empty marker constant in the skeleton.
        graph
            .replace_constant(id, Tensor::zeros(&[0]))
            .expect("constant");
    }
    let skeleton = rebind(model, graph).to_bytes();
    QuantizedModel { skeleton, buffers }
}

impl QuantizedModel {
    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.to_bytes().len()
    }

    /// Serializes the quantized model.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(QUANT_MAGIC);
        put_len_prefixed(&mut out, &self.skeleton);
        put_u32(&mut out, self.buffers.len() as u32);
        for b in &self.buffers {
            put_shape(&mut out, &b.shape);
            out.extend_from_slice(&b.scale.to_le_bytes());
            put_u32(&mut out, b.values.len() as u32);
            out.extend(b.values.iter().map(|&v| v as u8));
        }
        out
    }

    /// Deserializes a quantized model.
    ///
    /// # Errors
    ///
    /// Returns [`LiteError::MalformedModel`] on corruption.
    pub fn from_bytes(bytes: &[u8]) -> Result<QuantizedModel, LiteError> {
        let mut r = Reader::new(bytes);
        if &r.array::<5>()? != QUANT_MAGIC {
            return Err(LiteError::MalformedModel("bad magic"));
        }
        let skeleton = r.len_prefixed()?.to_vec();
        let n_buffers = r.u32()? as usize;
        if n_buffers > 100_000 {
            return Err(LiteError::MalformedModel("buffer count"));
        }
        let mut buffers = Vec::new();
        for _ in 0..n_buffers {
            let (shape, elements) = r.shape(8)?;
            let scale = r.f32()?;
            // A NaN, infinite or negative scale would dequantize every
            // weight of the buffer to NaN, inf or a flipped sign.
            if !scale.is_finite() || scale < 0.0 {
                return Err(LiteError::MalformedModel("bad quantization scale"));
            }
            if r.u32()? as usize != elements {
                return Err(LiteError::MalformedModel("element count"));
            }
            buffers.push(QuantBuffer {
                shape,
                scale,
                values: r.take(elements)?.iter().map(|&b| b as i8).collect(),
            });
        }
        r.finish()?;
        Ok(QuantizedModel { skeleton, buffers })
    }

    /// Expands back to an f32 model (weights carry quantization error).
    ///
    /// # Errors
    ///
    /// Returns [`LiteError::MalformedModel`] if the skeleton and buffers
    /// are inconsistent.
    pub fn dequantize(&self) -> Result<LiteModel, LiteError> {
        let model = LiteModel::from_bytes(&self.skeleton)?;
        let mut graph = model.graph().clone();
        let mut next_buffer = 0usize;
        for index in 0..graph.len() {
            let id = graph.node_id(index).expect("in range");
            let Op::Constant(t) = &graph.nodes()[index].op else {
                continue;
            };
            if t.shape() != [0] {
                continue;
            }
            let buffer = self
                .buffers
                .get(next_buffer)
                .ok_or(LiteError::MalformedModel("missing weight buffer"))?;
            next_buffer += 1;
            graph
                .replace_constant(id, dequantize_tensor(buffer))
                .expect("constant");
        }
        if next_buffer != self.buffers.len() {
            return Err(LiteError::MalformedModel("surplus weight buffers"));
        }
        let input_name = graph.nodes()[model.input().index()].name.clone();
        let output_name = graph.nodes()[model.output().index()].name.clone();
        Ok(LiteModel::from_graph(graph, &input_name, &output_name)?
            .with_name(model.name())
            .with_declared_flops(model.declared_flops()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::Interpreter;
    use securetf_tensor::graph::Graph;

    fn test_w1() -> Vec<f32> {
        (0..192).map(|i| ((i % 17) as f32 - 8.0) * 0.05).collect()
    }

    fn test_model() -> LiteModel {
        model_with_w1(test_w1())
    }

    fn model_with_w1(w1: Vec<f32>) -> LiteModel {
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 16]);
        let w1 = g.constant("w1", Tensor::from_vec(&[16, 12], w1).unwrap());
        let b1 = g.constant("b1", Tensor::full(&[12], 0.05));
        let h = g.matmul(x, w1).unwrap();
        let h = g.add_bias(h, b1).unwrap();
        let h = g.relu(h).unwrap();
        let w2 = g.constant(
            "w2",
            Tensor::from_vec(
                &[12, 4],
                (0..48).map(|i| ((i % 11) as f32 - 5.0) * 0.08).collect(),
            )
            .unwrap(),
        );
        let out = g.matmul(h, w2).unwrap();
        let name = g.nodes()[out.index()].name.clone();
        LiteModel::convert(&g, "input", &name)
            .unwrap()
            .with_name("opt-test")
    }

    fn sample_input() -> Tensor {
        Tensor::from_vec(
            &[3, 16],
            (0..48).map(|i| ((i % 9) as f32 - 4.0) * 0.2).collect(),
        )
        .unwrap()
    }

    #[test]
    fn the_densenet_lowering_keeps_its_node_ids() {
        let model = crate::models::build(crate::models::DENSENET);
        let before = model.graph().len();
        let (lowered, report) = optimize_for_inference(model).unwrap();
        // `input`, then per layer its weight, its bias and the fused
        // product that took the relu's place, then the tail layer (no
        // relu) and the softmax. Nothing is eliminated, nothing is
        // reordered.
        let mut want = vec!["0 placeholder input []".to_string()];
        let mut x = 0;
        for layer in 0..=10 {
            let w = want.len();
            want.push(format!("{w} const layer{layer}/w []"));
            let b = w + 1;
            want.push(format!("{b} const layer{layer}/b []"));
            let (kind, name) = if layer < 10 {
                ("fused_matmul_bias_relu", "relu")
            } else {
                ("fused_matmul_bias", "add_bias")
            };
            let fused = want.len();
            want.push(format!("{fused} {kind} {name} [{x}, {w}, {b}]"));
            x = fused;
        }
        want.push(format!("{} softmax softmax [{x}]", x + 1));
        let got: Vec<String> = lowered
            .graph()
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let inputs: Vec<usize> = n.op.inputs().iter().map(|id| id.index()).collect();
                format!("{i} {} {} {inputs:?}", n.op.kind(), n.name)
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            (lowered.input().index(), lowered.output().index()),
            (0, x + 1)
        );
        assert_eq!((before, report.nodes_before()), (56, 56));
        assert_eq!(lowered.graph().len(), 35);
        assert_eq!((report.nodes_eliminated(), report.nodes_fused()), (0, 21));
    }

    #[test]
    fn pruning_reaches_requested_sparsity() {
        let (pruned, report) = prune_magnitude(&test_model(), 0.5);
        assert!(report.sparsity() >= 0.4, "sparsity {}", report.sparsity());
        assert_eq!(pruned.param_bytes(), test_model().param_bytes());
        // Small tensors (bias of 12 elements) untouched.
        let Op::Constant(bias) = &pruned.graph().nodes()[2].op else {
            panic!("expected bias constant");
        };
        assert!(bias.data().iter().all(|&v| v != 0.0));
    }

    #[test]
    fn light_pruning_barely_changes_predictions() {
        let mut base = Interpreter::new(test_model());
        let (pruned, _) = prune_magnitude(&test_model(), 0.2);
        let mut opt = Interpreter::new(pruned);
        let input = sample_input();
        let a = base.run(&input).unwrap();
        let b = opt.run(&input).unwrap();
        let max_diff = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 0.5, "outputs diverged by {max_diff}");
    }

    #[test]
    fn full_pruning_zeroes_everything_large() {
        let (pruned, report) = prune_magnitude(&test_model(), 1.0);
        assert_eq!(report.zeroed, report.total);
        let _ = pruned;
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn pruning_fraction_validated() {
        let _ = prune_magnitude(&test_model(), 1.5);
    }

    #[test]
    fn quantization_shrinks_about_4x() {
        let model = test_model();
        let original = model.to_bytes().len();
        let q = quantize(&model);
        let quantized = q.byte_len();
        // Large weights shrink 4x; the skeleton adds overhead.
        assert!(
            (quantized as f64) < 0.6 * original as f64,
            "quantized {quantized} vs original {original}"
        );
    }

    #[test]
    fn quantization_roundtrip_predictions_close() {
        let model = test_model();
        let input = sample_input();
        let mut base = Interpreter::new(model.clone());
        let reference = base.run(&input).unwrap();

        let q = quantize(&model);
        let restored = QuantizedModel::from_bytes(&q.to_bytes())
            .unwrap()
            .dequantize()
            .unwrap();
        let mut opt = Interpreter::new(restored);
        let approx = opt.run(&input).unwrap();
        for (a, b) in reference.data().iter().zip(approx.data()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_classification_labels_match() {
        let model = test_model();
        let input = sample_input();
        let labels_base = Interpreter::new(model.clone())
            .run(&input)
            .unwrap()
            .argmax_rows()
            .unwrap();
        let labels_quant = Interpreter::new(quantize(&model).dequantize().unwrap())
            .run(&input)
            .unwrap()
            .argmax_rows()
            .unwrap();
        assert_eq!(labels_base, labels_quant);
    }

    #[test]
    fn quantized_serialization_rejects_corruption() {
        let q = quantize(&test_model());
        let bytes = q.to_bytes();
        assert!(QuantizedModel::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(QuantizedModel::from_bytes(b"XX").is_err());
        let mut extended = bytes;
        extended.push(1);
        assert!(QuantizedModel::from_bytes(&extended).is_err());
    }

    #[test]
    fn quantized_model_with_a_bad_scale_is_refused() {
        let bytes = quantize(&test_model()).to_bytes();
        // STFQ1 | skeleton (len-prefixed) | n_buffers | rank 2 | dims | scale
        let skeleton = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
        let at = 9 + skeleton + 4 + 4 + 8;
        for scale in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.5] {
            let mut hostile = bytes.clone();
            hostile[at..at + 4].copy_from_slice(&scale.to_le_bytes());
            assert_eq!(
                QuantizedModel::from_bytes(&hostile).unwrap_err(),
                LiteError::MalformedModel("bad quantization scale"),
                "scale {scale}"
            );
        }
        // The offset is the scale's: a finite one there still decodes.
        let mut rescaled = bytes;
        rescaled[at..at + 4].copy_from_slice(&0.25f32.to_le_bytes());
        assert!(QuantizedModel::from_bytes(&rescaled)
            .unwrap()
            .dequantize()
            .is_ok());
    }

    #[test]
    fn an_infinite_weight_leaves_the_others_finite() {
        let mut w1 = test_w1();
        w1[37] = f32::INFINITY;
        let bytes = quantize(&model_with_w1(w1.clone())).to_bytes();
        let restored = QuantizedModel::from_bytes(&bytes)
            .unwrap()
            .dequantize()
            .unwrap();
        let graph = restored.graph();
        let got = graph
            .nodes()
            .iter()
            .find_map(|node| match &node.op {
                Op::Constant(t) if node.name == "w1" => Some(t.data()),
                _ => None,
            })
            .unwrap();
        // The scale comes from the largest finite weight, 0.4: every other
        // weight is back within half a step, the infinite one clamped to
        // the top of the range.
        let step = 0.4f32 / 127.0;
        for (i, (&want, &have)) in w1.iter().zip(got).enumerate() {
            if i == 37 {
                assert_eq!(have, 127.0 * step);
            } else {
                assert!((want - have).abs() <= step / 2.0, "w1[{i}]: {have}");
            }
        }
    }

    #[test]
    fn quantize_preserves_metadata() {
        let model = test_model().with_declared_flops(5e8);
        let restored = quantize(&model).dequantize().unwrap();
        assert_eq!(restored.name(), "opt-test");
        assert_eq!(restored.declared_flops(), 5e8);
    }
}
