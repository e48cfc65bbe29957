//! The compact Lite model format and the converter from frozen graphs.

use crate::LiteError;
use securetf_tensor::bytes::{put_len_prefixed, put_u32, Reader};
use securetf_tensor::freeze;
use securetf_tensor::graph::{Graph, NodeId, Op};
use securetf_tensor::passes;

const LITE_MAGIC: &[u8; 5] = b"STFL1";

/// An inference-only model: a frozen graph restricted to the Lite op set,
/// with named input/output bindings and workload metadata.
#[derive(Debug, Clone)]
pub struct LiteModel {
    graph: Graph,
    input: NodeId,
    output: NodeId,
    name: String,
    declared_flops: f64,
}

fn op_supported(op: &Op) -> Result<(), LiteError> {
    match op {
        Op::Variable { .. } => Err(LiteError::UnsupportedOp("variable (train with full TF)")),
        Op::SoftmaxCrossEntropy { .. } => Err(LiteError::UnsupportedOp("softmax_xent (loss)")),
        Op::MseLoss(..) => Err(LiteError::UnsupportedOp("mse_loss (loss)")),
        _ => Ok(()),
    }
}

/// The input binding must be a placeholder: a feed bound to anything
/// else would stand in for a weight or a computed value, and its rows
/// need not become the output's rows.
fn input_is_placeholder(graph: &Graph, input: NodeId) -> Result<(), LiteError> {
    match &graph.nodes()[input.index()].op {
        Op::Placeholder { .. } => Ok(()),
        other => Err(LiteError::InputNotPlaceholder(other.kind())),
    }
}

impl LiteModel {
    /// Converts a frozen graph (no variables) into a Lite model with the
    /// named input placeholder and output node, leaving `graph` to its
    /// caller: [`LiteModel::from_graph`] on a clone of it.
    ///
    /// # Errors
    ///
    /// As [`LiteModel::from_graph`].
    pub fn convert(graph: &Graph, input: &str, output: &str) -> Result<LiteModel, LiteError> {
        Self::from_graph(graph.clone(), input, output)
    }

    /// Converts a frozen graph (no variables) into a Lite model with the
    /// named input placeholder and output node. The model takes the graph
    /// as it is: no node and no weight is copied.
    ///
    /// # Errors
    ///
    /// * [`LiteError::UnsupportedOp`] if the graph contains training-only
    ///   ops (freeze it first).
    /// * [`LiteError::MissingNode`] if `input`/`output` are not found.
    /// * [`LiteError::InputNotPlaceholder`] if `input` names another op.
    pub fn from_graph(graph: Graph, input: &str, output: &str) -> Result<LiteModel, LiteError> {
        for node in graph.nodes() {
            op_supported(&node.op)?;
        }
        let input = graph
            .by_name(input)
            .ok_or_else(|| LiteError::MissingNode(input.to_string()))?;
        let output = graph
            .by_name(output)
            .ok_or_else(|| LiteError::MissingNode(output.to_string()))?;
        input_is_placeholder(&graph, input)?;
        Ok(LiteModel {
            graph,
            input,
            output,
            name: "converted".to_string(),
            declared_flops: 0.0,
        })
    }

    /// Rebinds this model's metadata (name, declared FLOPs) onto a
    /// rewritten graph with explicit input/output ids. Id-based, so it
    /// stays correct when node names are duplicated or nodes were
    /// renumbered by an optimization pass.
    ///
    /// # Errors
    ///
    /// * [`LiteError::UnsupportedOp`] if `graph` contains training-only ops.
    /// * [`LiteError::MalformedModel`] if `input`/`output` are out of range.
    /// * [`LiteError::InputNotPlaceholder`] if `input` is another op.
    pub fn rebound(
        &self,
        graph: Graph,
        input: NodeId,
        output: NodeId,
    ) -> Result<LiteModel, LiteError> {
        for node in graph.nodes() {
            op_supported(&node.op)?;
        }
        if input.index() >= graph.len() || output.index() >= graph.len() {
            return Err(LiteError::MalformedModel("binding out of range"));
        }
        input_is_placeholder(&graph, input)?;
        Ok(LiteModel {
            graph,
            input,
            output,
            name: self.name.clone(),
            declared_flops: self.declared_flops,
        })
    }

    /// Sets a display name.
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Declares the per-inference FLOPs of the *original* model this one
    /// stands in for. The synthetic paper-model builders use this so the
    /// virtual-time cost model sees Inception-scale compute even though
    /// the stand-in executes a reduced spatial extent. Zero means "use
    /// measured FLOPs".
    pub fn with_declared_flops(mut self, flops: f64) -> Self {
        self.declared_flops = flops;
        self
    }

    /// The model's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The input placeholder.
    pub fn input(&self) -> NodeId {
        self.input
    }

    /// The output node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared per-inference FLOPs (0 = use measured).
    pub fn declared_flops(&self) -> f64 {
        self.declared_flops
    }

    /// Moves the graph out, leaving an empty one: for a lowering that
    /// consumes the graph and then rebinds its result onto this model's
    /// metadata ([`LiteModel::rebound`]).
    pub(crate) fn take_graph(&mut self) -> Graph {
        std::mem::take(&mut self.graph)
    }

    /// A model with this one's name and declared FLOPs whose graph is a
    /// lone input placeholder, bound as the output too: what stands in
    /// for a model whose graph a failed lowering consumed.
    pub(crate) fn shell(&self) -> LiteModel {
        let mut graph = Graph::new();
        let input = graph.placeholder("input", &[0]);
        LiteModel {
            graph,
            input,
            output: input,
            name: self.name.clone(),
            declared_flops: self.declared_flops,
        }
    }

    /// This model with every weight whose one reader is a matmul's right
    /// operand stored in the GEMM's panel order
    /// ([`securetf_tensor::passes::pack_matmul_constants`]): what the
    /// interpreter runs. Same outputs, bytes and size.
    pub(crate) fn with_packed_weights(mut self) -> LiteModel {
        passes::pack_matmul_constants(&mut self.graph, &[self.input, self.output]);
        self
    }

    /// A copy of this model with every weight row-major again
    /// ([`Graph::unpacked`]), as [`LiteModel::from_bytes`] would return
    /// it.
    pub fn unpacked(&self) -> LiteModel {
        LiteModel {
            graph: self.graph.unpacked(),
            name: self.name.clone(),
            ..*self
        }
    }

    /// Total parameter (constant) bytes — the "model size" of Figure 5.
    pub fn param_bytes(&self) -> u64 {
        self.graph.param_bytes()
    }

    /// Serializes the model, written once into a buffer of its exact
    /// length. Packed weights are written row-major, read from their
    /// panels in place: the format has one kind of constant.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = LITE_MAGIC.len() + 4 + 4 + 8 + 4 + self.name.len();
        let mut out = Vec::with_capacity(header + freeze::exported_len(&self.graph));
        out.extend_from_slice(LITE_MAGIC);
        put_u32(&mut out, self.input.index() as u32);
        put_u32(&mut out, self.output.index() as u32);
        out.extend_from_slice(&self.declared_flops.to_le_bytes());
        put_len_prefixed(&mut out, self.name.as_bytes());
        freeze::export_graph_into(&mut out, &self.graph);
        out
    }

    /// Deserializes a model written by [`LiteModel::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`LiteError::MalformedModel`] on corruption,
    /// [`LiteError::UnsupportedOp`] if the embedded graph is not
    /// inference-only, or [`LiteError::InputNotPlaceholder`] if the input
    /// binding is not a placeholder.
    pub fn from_bytes(bytes: &[u8]) -> Result<LiteModel, LiteError> {
        let mut r = Reader::new(bytes);
        if &r.array::<5>()? != LITE_MAGIC {
            return Err(LiteError::MalformedModel("bad magic"));
        }
        let input = r.u32()? as usize;
        let output = r.u32()? as usize;
        let declared_flops = r.f64()?;
        let name = r.str()?.to_string();
        // The rest is the embedded graph, which rejects its own trailing bytes.
        let graph =
            freeze::import_graph(r.rest()).map_err(|_| LiteError::MalformedModel("bad graph"))?;
        for node in graph.nodes() {
            op_supported(&node.op)?;
        }
        let input = graph
            .node_id(input)
            .ok_or(LiteError::MalformedModel("input binding out of range"))?;
        let output = graph
            .node_id(output)
            .ok_or(LiteError::MalformedModel("output binding out of range"))?;
        input_is_placeholder(&graph, input)?;
        Ok(LiteModel {
            graph,
            input,
            output,
            name,
            declared_flops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securetf_tensor::optimizer::Sgd;
    use securetf_tensor::session::Session;
    use securetf_tensor::tensor::Tensor;

    fn inference_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 3]);
        let w = g.constant("w", Tensor::full(&[3, 2], 0.25));
        let mm = g.matmul(x, w).unwrap();
        let b = g.constant("b", Tensor::from_vec(&[2], vec![0.1, -0.1]).unwrap());
        let biased = g.add_bias(mm, b).unwrap();
        let out = g.softmax(biased).unwrap();
        // Name the output for lookup.
        assert_eq!(g.nodes()[out.index()].name, "softmax");
        g
    }

    #[test]
    fn convert_accepts_inference_graph() {
        let g = inference_graph();
        let m = LiteModel::convert(&g, "input", "softmax").unwrap();
        assert_eq!(m.param_bytes(), (6 + 2) * 4);
    }

    #[test]
    fn convert_rejects_variables() {
        let mut g = Graph::new();
        g.placeholder("input", &[0, 2]);
        g.variable("w", Tensor::zeros(&[2, 2]));
        assert!(matches!(
            LiteModel::convert(&g, "input", "w"),
            Err(LiteError::UnsupportedOp(_))
        ));
    }

    #[test]
    fn convert_rejects_losses() {
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 2]);
        let y = g.placeholder("labels", &[0, 2]);
        let loss = g.softmax_cross_entropy(x, y).unwrap();
        let name = g.nodes()[loss.index()].name.clone();
        assert!(matches!(
            LiteModel::convert(&g, "input", &name),
            Err(LiteError::UnsupportedOp(_))
        ));
    }

    #[test]
    fn convert_rejects_missing_bindings() {
        let g = inference_graph();
        assert!(matches!(
            LiteModel::convert(&g, "nope", "softmax"),
            Err(LiteError::MissingNode(_))
        ));
        assert!(matches!(
            LiteModel::convert(&g, "input", "nope"),
            Err(LiteError::MissingNode(_))
        ));
    }

    #[test]
    fn the_input_binding_must_be_a_placeholder() {
        let g = inference_graph();
        let model = LiteModel::convert(&g, "input", "softmax").unwrap();
        let w = g.by_name("w").unwrap();
        assert_eq!(
            LiteModel::convert(&g, "w", "softmax").unwrap_err(),
            LiteError::InputNotPlaceholder("const")
        );
        assert_eq!(
            model.rebound(g.clone(), w, model.output()).unwrap_err(),
            LiteError::InputNotPlaceholder("const")
        );
        // The output may be anything, the input itself included.
        let input = model.input();
        assert!(model.rebound(g, input, input).is_ok());
    }

    #[test]
    fn frozen_trained_graph_converts() {
        // Train with full framework, freeze, convert — the paper's §4.1
        // workflow.
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 1]);
        let w = g.variable("w", Tensor::zeros(&[1, 1]));
        let y = g.matmul(x, w).unwrap();
        let t = g.placeholder("t", &[0, 1]);
        let loss = g.mse_loss(y, t).unwrap();
        let mut session = Session::new(&g);
        let mut sgd = Sgd::new(0.5);
        for _ in 0..50 {
            session
                .train_step(
                    &g,
                    &[
                        (x, Tensor::from_vec(&[1, 1], vec![1.0]).unwrap()),
                        (t, Tensor::from_vec(&[1, 1], vec![4.0]).unwrap()),
                    ],
                    loss,
                    &mut sgd,
                )
                .unwrap();
        }
        let frozen = freeze::freeze(&g, &session).unwrap();
        // The frozen graph still contains the loss; strip by converting a
        // subgraph in practice — here losses remain so conversion fails,
        // demonstrating the converter's guard…
        assert!(LiteModel::convert(&frozen, "input", "matmul").is_err());
        // …so export only the inference prefix.
        let mut inference = Graph::new();
        for node in frozen.nodes().iter().take(3) {
            inference.append_node(node.clone()).unwrap();
        }
        let m = LiteModel::convert(&inference, "input", "matmul").unwrap();
        assert!(m.param_bytes() > 0);
    }

    #[test]
    fn serialization_roundtrip() {
        let g = inference_graph();
        let m = LiteModel::convert(&g, "input", "softmax")
            .unwrap()
            .with_name("tiny")
            .with_declared_flops(123.0);
        let bytes = m.to_bytes();
        let m2 = LiteModel::from_bytes(&bytes).unwrap();
        assert_eq!(m2.name(), "tiny");
        assert_eq!(m2.declared_flops(), 123.0);
        assert_eq!(m2.input().index(), m.input().index());
        assert_eq!(m2.output().index(), m.output().index());
        assert_eq!(m2.param_bytes(), m.param_bytes());
    }

    #[test]
    fn deserialization_rejects_corruption() {
        let g = inference_graph();
        let bytes = LiteModel::convert(&g, "input", "softmax")
            .unwrap()
            .to_bytes();
        assert!(LiteModel::from_bytes(&bytes[..10]).is_err());
        assert!(LiteModel::from_bytes(b"NOPE").is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(LiteModel::from_bytes(&bad).is_err());
    }
}
