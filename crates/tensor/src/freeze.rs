//! Graph freezing, export/import and checkpoints.
//!
//! The paper's workflow (§4.1) defines a graph with the Python API,
//! *freezes* it (folds trained variables into constants), exports it in
//! the Protocol Buffers exchange format, and imports it inside the
//! enclave with the C++ or TFLite runtime. This module provides the
//! equivalent interchange: a compact length-prefixed binary `GraphDef`,
//! plus checkpoints that snapshot variable values.

use crate::bytes::{put_f32s, put_len_prefixed, put_shape, put_u32, Reader};
use crate::graph::{Graph, Node, NodeId, Op, Padding};
use crate::kernels::Panels;
use crate::session::Session;
use crate::tensor::Tensor;
use crate::TensorError;

const GRAPH_MAGIC: &[u8; 5] = b"STFG1";
const CKPT_MAGIC: &[u8; 5] = b"STFC1";

/// Returns a copy of `graph` with every variable replaced by a constant
/// holding its current session value.
///
/// # Errors
///
/// Returns [`TensorError::InvalidGraph`] if the session does not track
/// one of the graph's variables.
pub fn freeze(graph: &Graph, session: &Session) -> Result<Graph, TensorError> {
    let mut out = Graph::new();
    for (index, node) in graph.nodes().iter().enumerate() {
        let op = match &node.op {
            Op::Variable { .. } => {
                let value = session
                    .variable(NodeId(index))
                    .ok_or(TensorError::InvalidGraph("variable not in session"))?;
                Op::Constant(value.clone())
            }
            other => other.clone(),
        };
        out.push_node(Node {
            op,
            name: node.name.clone(),
        });
    }
    Ok(out)
}

/// Shapes above this rank are rejected on import.
const MAX_RANK: usize = 8;

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    put_shape(out, t.shape());
    put_u32(out, t.len() as u32);
    put_f32s(out, t.data());
}

/// A packed matrix, written as `put_tensor` writes the row-major tensor
/// it was packed from, read from the panels in place.
fn put_panels(out: &mut Vec<u8>, panels: &Panels) {
    put_shape(out, panels.shape());
    let elements = (panels.byte_len() / 4) as usize;
    put_u32(out, elements as u32);
    let start = out.len();
    out.resize(start + 4 * elements, 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(panels.row_major()) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Bytes `put_tensor` writes for a tensor of `shape`.
fn tensor_len(shape: &[usize]) -> usize {
    8 + 4 * shape.len() + 4 * shape.iter().product::<usize>()
}

/// Bytes [`export_graph_into`] writes for `graph`: what a caller reserves
/// so that the export is written once, into a buffer that never grows.
pub fn exported_len(graph: &Graph) -> usize {
    let node_len = |node: &Node| {
        let payload = match &node.op {
            Op::Placeholder { shape } => 4 + 4 * shape.len(),
            Op::Variable { init: t } | Op::Constant(t) => tensor_len(t.shape()),
            Op::PackedConstant(panels) => tensor_len(panels.shape()),
            Op::Relu(_)
            | Op::Softmax(_)
            | Op::MaxPool2(_)
            | Op::Flatten(_)
            | Op::Sigmoid(_)
            | Op::Tanh(_)
            | Op::AvgPool2(_) => 4,
            Op::MatMul(..)
            | Op::AddBias(..)
            | Op::Add(..)
            | Op::Mul(..)
            | Op::SoftmaxCrossEntropy { .. }
            | Op::MseLoss(..)
            | Op::Sub(..)
            | Op::Scale(..)
            | Op::ConcatCols(..) => 8,
            Op::Conv2d { .. } => 9,
            Op::Reshape(_, shape) => 8 + 4 * shape.len(),
            Op::FusedMatMul { .. } => 13,
            Op::FusedConv2d { .. } => 14,
        };
        4 + node.name.len() + 1 + payload
    };
    GRAPH_MAGIC.len() + 4 + graph.nodes().iter().map(node_len).sum::<usize>()
}

fn padding_tag(padding: Padding) -> u8 {
    match padding {
        Padding::Same => 0,
        Padding::Valid => 1,
    }
}

/// `rank dims… count f32…`, as written by `put_tensor`.
fn read_tensor(r: &mut Reader) -> Result<Tensor, TensorError> {
    let (shape, elements) = r.shape(MAX_RANK)?;
    if r.u32()? as usize != elements {
        return Err(TensorError::MalformedModel("element count mismatch"));
    }
    Tensor::from_vec(&shape, r.f32s(elements)?)
        .map_err(|_| TensorError::MalformedModel("bad tensor"))
}

fn read_flag(r: &mut Reader, what: &'static str) -> Result<bool, TensorError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(TensorError::MalformedModel(what)),
    }
}

fn read_padding(r: &mut Reader) -> Result<Padding, TensorError> {
    Ok(if read_flag(r, "bad padding")? {
        Padding::Valid
    } else {
        Padding::Same
    })
}

/// Serializes a graph to the binary `GraphDef` format, into a buffer
/// sized for it up front ([`exported_len`]).
pub fn export_graph(graph: &Graph) -> Vec<u8> {
    let mut out = Vec::with_capacity(exported_len(graph));
    export_graph_into(&mut out, graph);
    out
}

/// Appends `graph` in the binary `GraphDef` format to `out`: the
/// [`export_graph`] bytes, behind whatever a container format put first.
/// Packed weights are written row-major, read from their panels in
/// place: the format has one kind of constant.
pub fn export_graph_into(out: &mut Vec<u8>, graph: &Graph) {
    let start = out.len();
    out.extend_from_slice(GRAPH_MAGIC);
    put_u32(out, graph.len() as u32);
    for node in graph.nodes() {
        put_len_prefixed(out, node.name.as_bytes());
        match &node.op {
            Op::Placeholder { shape } => {
                out.push(0);
                put_shape(out, shape);
            }
            Op::Variable { init } => {
                out.push(1);
                put_tensor(out, init);
            }
            Op::Constant(t) => {
                out.push(2);
                put_tensor(out, t);
            }
            // The exchange format knows one constant, row-major.
            Op::PackedConstant(panels) => {
                out.push(2);
                put_panels(out, panels);
            }
            Op::MatMul(a, b) => {
                out.push(3);
                put_u32(out, a.0 as u32);
                put_u32(out, b.0 as u32);
            }
            Op::AddBias(a, b) => {
                out.push(4);
                put_u32(out, a.0 as u32);
                put_u32(out, b.0 as u32);
            }
            Op::Add(a, b) => {
                out.push(5);
                put_u32(out, a.0 as u32);
                put_u32(out, b.0 as u32);
            }
            Op::Mul(a, b) => {
                out.push(6);
                put_u32(out, a.0 as u32);
                put_u32(out, b.0 as u32);
            }
            Op::Relu(a) => {
                out.push(7);
                put_u32(out, a.0 as u32);
            }
            Op::Softmax(a) => {
                out.push(8);
                put_u32(out, a.0 as u32);
            }
            Op::Conv2d {
                input,
                filter,
                padding,
            } => {
                out.push(9);
                put_u32(out, input.0 as u32);
                put_u32(out, filter.0 as u32);
                out.push(padding_tag(*padding));
            }
            Op::MaxPool2(a) => {
                out.push(10);
                put_u32(out, a.0 as u32);
            }
            Op::Flatten(a) => {
                out.push(11);
                put_u32(out, a.0 as u32);
            }
            Op::Reshape(a, shape) => {
                out.push(12);
                put_u32(out, a.0 as u32);
                put_shape(out, shape);
            }
            Op::SoftmaxCrossEntropy { logits, labels } => {
                out.push(13);
                put_u32(out, logits.0 as u32);
                put_u32(out, labels.0 as u32);
            }
            Op::MseLoss(a, b) => {
                out.push(14);
                put_u32(out, a.0 as u32);
                put_u32(out, b.0 as u32);
            }
            Op::Sub(a, b) => {
                out.push(15);
                put_u32(out, a.0 as u32);
                put_u32(out, b.0 as u32);
            }
            Op::Scale(a, factor) => {
                out.push(16);
                put_u32(out, a.0 as u32);
                out.extend_from_slice(&factor.to_le_bytes());
            }
            Op::Sigmoid(a) => {
                out.push(17);
                put_u32(out, a.0 as u32);
            }
            Op::Tanh(a) => {
                out.push(18);
                put_u32(out, a.0 as u32);
            }
            Op::AvgPool2(a) => {
                out.push(19);
                put_u32(out, a.0 as u32);
            }
            Op::ConcatCols(a, b) => {
                out.push(20);
                put_u32(out, a.0 as u32);
                put_u32(out, b.0 as u32);
            }
            Op::FusedMatMul {
                lhs,
                rhs,
                bias,
                relu,
            } => {
                out.push(21);
                put_u32(out, lhs.0 as u32);
                put_u32(out, rhs.0 as u32);
                put_u32(out, bias.0 as u32);
                out.push(u8::from(*relu));
            }
            Op::FusedConv2d {
                input,
                filter,
                bias,
                padding,
                relu,
            } => {
                out.push(22);
                put_u32(out, input.0 as u32);
                put_u32(out, filter.0 as u32);
                put_u32(out, bias.0 as u32);
                out.push(padding_tag(*padding));
                out.push(u8::from(*relu));
            }
        }
    }
    debug_assert_eq!(out.len() - start, exported_len(graph));
}

/// Deserializes a graph exported by [`export_graph`].
///
/// # Errors
///
/// Returns [`TensorError::MalformedModel`] on any structural violation —
/// bad magic, truncation, forward references, trailing bytes.
pub fn import_graph(bytes: &[u8]) -> Result<Graph, TensorError> {
    let mut r = Reader::new(bytes);
    if &r.array::<5>()? != GRAPH_MAGIC {
        return Err(TensorError::MalformedModel("bad magic"));
    }
    let count = r.u32()? as usize;
    if count > 1_000_000 {
        return Err(TensorError::MalformedModel("node count too large"));
    }
    let mut graph = Graph::new();
    for index in 0..count {
        let name = r.str()?.to_string();
        let tag = r.u8()?;
        // Every referenced node must already exist (topological order).
        let node_ref = |r: &mut Reader| -> Result<NodeId, TensorError> {
            let id = r.u32()? as usize;
            if id >= index {
                return Err(TensorError::MalformedModel("forward reference"));
            }
            Ok(NodeId(id))
        };
        let op = match tag {
            0 => Op::Placeholder {
                shape: r.shape(MAX_RANK)?.0,
            },
            1 => Op::Variable {
                init: read_tensor(&mut r)?,
            },
            2 => Op::Constant(read_tensor(&mut r)?),
            3 => Op::MatMul(node_ref(&mut r)?, node_ref(&mut r)?),
            4 => Op::AddBias(node_ref(&mut r)?, node_ref(&mut r)?),
            5 => Op::Add(node_ref(&mut r)?, node_ref(&mut r)?),
            6 => Op::Mul(node_ref(&mut r)?, node_ref(&mut r)?),
            7 => Op::Relu(node_ref(&mut r)?),
            8 => Op::Softmax(node_ref(&mut r)?),
            9 => {
                let input = node_ref(&mut r)?;
                let filter = node_ref(&mut r)?;
                let padding = read_padding(&mut r)?;
                Op::Conv2d {
                    input,
                    filter,
                    padding,
                }
            }
            10 => Op::MaxPool2(node_ref(&mut r)?),
            11 => Op::Flatten(node_ref(&mut r)?),
            12 => {
                let a = node_ref(&mut r)?;
                Op::Reshape(a, r.shape(MAX_RANK)?.0)
            }
            13 => Op::SoftmaxCrossEntropy {
                logits: node_ref(&mut r)?,
                labels: node_ref(&mut r)?,
            },
            14 => Op::MseLoss(node_ref(&mut r)?, node_ref(&mut r)?),
            15 => Op::Sub(node_ref(&mut r)?, node_ref(&mut r)?),
            16 => {
                let a = node_ref(&mut r)?;
                Op::Scale(a, r.f32()?)
            }
            17 => Op::Sigmoid(node_ref(&mut r)?),
            18 => Op::Tanh(node_ref(&mut r)?),
            19 => Op::AvgPool2(node_ref(&mut r)?),
            20 => Op::ConcatCols(node_ref(&mut r)?, node_ref(&mut r)?),
            21 => {
                let lhs = node_ref(&mut r)?;
                let rhs = node_ref(&mut r)?;
                let bias = node_ref(&mut r)?;
                let relu = read_flag(&mut r, "bad relu flag")?;
                Op::FusedMatMul {
                    lhs,
                    rhs,
                    bias,
                    relu,
                }
            }
            22 => {
                let input = node_ref(&mut r)?;
                let filter = node_ref(&mut r)?;
                let bias = node_ref(&mut r)?;
                let padding = read_padding(&mut r)?;
                let relu = read_flag(&mut r, "bad relu flag")?;
                Op::FusedConv2d {
                    input,
                    filter,
                    bias,
                    padding,
                    relu,
                }
            }
            _ => return Err(TensorError::MalformedModel("unknown op tag")),
        };
        graph.push_node(Node { op, name });
    }
    r.finish()?;
    Ok(graph)
}

/// Renders the graph in Graphviz dot format (debugging/documentation).
pub fn to_dot(graph: &Graph) -> String {
    let mut out = String::from("digraph model {\n  rankdir=LR;\n  node [shape=box];\n");
    for (index, node) in graph.nodes().iter().enumerate() {
        let label = match &node.op {
            Op::Constant(t) => format!("{} {:?}", node.name, t.shape()),
            Op::PackedConstant(panels) => format!("{} {:?}", node.name, panels.shape()),
            Op::Variable { init } => format!("var {} {:?}", node.name, init.shape()),
            Op::Placeholder { shape } => format!("{} {:?}", node.name, shape),
            other => format!("{} ({})", node.name, other.kind()),
        };
        out.push_str(&format!("  n{index} [label=\"{label}\"];\n"));
        for input in node.op.inputs() {
            out.push_str(&format!("  n{} -> n{index};\n", input.index()));
        }
    }
    out.push_str("}\n");
    out
}

/// Serializes the current variable values of `session` for `graph`.
pub fn save_checkpoint(graph: &Graph, session: &Session) -> Vec<u8> {
    let vars = graph.variables();
    let untracked = Tensor::zeros(&[0]);
    let values: Vec<&Tensor> = vars
        .iter()
        .map(|&var| session.variable(var).unwrap_or(&untracked))
        .collect();
    // Sized exactly: a checkpoint is as large as the model, and a buffer
    // grown by doubling would hold up to twice that at its peak.
    let entries: usize = values.iter().map(|t| 4 + tensor_len(t.shape())).sum();
    let mut out = Vec::with_capacity(CKPT_MAGIC.len() + 4 + entries);
    out.extend_from_slice(CKPT_MAGIC);
    put_u32(&mut out, vars.len() as u32);
    for (var, value) in vars.iter().zip(values) {
        put_u32(&mut out, var.0 as u32);
        put_tensor(&mut out, value);
    }
    out
}

/// Restores variable values saved by [`save_checkpoint`] into `session`.
///
/// The whole checkpoint is decoded and checked before any variable is
/// installed, so a rejected checkpoint leaves `session` as it was.
///
/// # Errors
///
/// Returns [`TensorError::MalformedModel`] on format violations (bad
/// magic, an id that is not a variable of `graph` or appears twice, a
/// missing variable, trailing bytes), or [`TensorError::ShapeMismatch`]
/// if a value's shape does not match the variable (checkpoint from a
/// different graph).
pub fn restore_checkpoint(
    graph: &Graph,
    session: &mut Session,
    bytes: &[u8],
) -> Result<(), TensorError> {
    let mut r = Reader::new(bytes);
    if &r.array::<5>()? != CKPT_MAGIC {
        return Err(TensorError::MalformedModel("bad magic"));
    }
    let vars = graph.variables();
    let mut values: Vec<Option<Tensor>> = vars.iter().map(|_| None).collect();
    for _ in 0..r.u32()? {
        let id = NodeId(r.u32()? as usize);
        let value = read_tensor(&mut r)?;
        let slot = vars
            .binary_search(&id)
            .map_err(|_| TensorError::MalformedModel("unknown variable id"))?;
        let current = session.variable(id).ok_or(TensorError::UnknownNode)?;
        if current.shape() != value.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "restore_checkpoint",
                detail: format!("{:?} vs {:?}", current.shape(), value.shape()),
            });
        }
        if values[slot].replace(value).is_some() {
            return Err(TensorError::MalformedModel("duplicate variable id"));
        }
    }
    r.finish()?;
    let values = Option::<Vec<Tensor>>::from_iter(values)
        .ok_or(TensorError::MalformedModel("missing variable"))?;
    for (id, value) in vars.into_iter().zip(values) {
        session.set_variable(id, value)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Sgd;

    fn sample_graph() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 2]);
        let w = g.variable(
            "w",
            Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]).unwrap(),
        );
        let b = g.variable("b", Tensor::from_vec(&[2], vec![0.5, -0.5]).unwrap());
        let mm = g.matmul(x, w).unwrap();
        let y = g.add_bias(mm, b).unwrap();
        let s = g.softmax(y).unwrap();
        (g, x, s)
    }

    #[test]
    fn export_import_roundtrip_preserves_outputs() {
        let (g, x, s) = sample_graph();
        let bytes = export_graph(&g);
        let g2 = import_graph(&bytes).unwrap();
        let input = Tensor::from_vec(&[1, 2], vec![0.3, -0.7]).unwrap();
        let mut s1 = Session::new(&g);
        let mut s2 = Session::new(&g2);
        let out1 = s1.run(&g, &[(x, input.clone())], &[s]).unwrap();
        let out2 = s2.run(&g2, &[(x, input)], &[s]).unwrap();
        assert_eq!(out1[0].data(), out2[0].data());
    }

    #[test]
    fn export_import_roundtrip_preserves_fused_graphs() {
        use crate::graph::Padding;
        use crate::passes::Pipeline;
        use std::collections::HashMap;

        // Fuse a conv → bias → relu → flatten → matmul → bias → softmax
        // chain through the inference pipeline, then round-trip the fused
        // graph through the GraphDef bytes.
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 4, 4, 2]);
        let f = g.constant(
            "f",
            Tensor::from_vec(
                &[3, 3, 2, 3],
                (0..54).map(|i| i as f32 * 0.01 - 0.2).collect(),
            )
            .unwrap(),
        );
        let cb = g.constant("cb", Tensor::from_vec(&[3], vec![0.1, -0.2, 0.3]).unwrap());
        let conv = g.conv2d(x, f, Padding::Same).unwrap();
        let biased = g.add_bias(conv, cb).unwrap();
        let act = g.relu(biased).unwrap();
        let flat = g.flatten(act).unwrap();
        let w = g.constant(
            "w",
            Tensor::from_vec(
                &[48, 2],
                (0..96).map(|i| (i % 7) as f32 * 0.1 - 0.3).collect(),
            )
            .unwrap(),
        );
        let b = g.constant("b", Tensor::from_vec(&[2], vec![0.05, -0.05]).unwrap());
        let mm = g.matmul(flat, w).unwrap();
        let logits = g.add_bias(mm, b).unwrap();
        let out = g.softmax(logits).unwrap();

        let optimized = Pipeline::lowering().run(g.clone(), &[x, out]).unwrap();
        assert!(optimized.report.nodes_fused() >= 2);
        let fused_out = optimized.target(out).unwrap();
        let fused_x = optimized.target(x).unwrap();
        assert!(optimized
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.op, Op::FusedConv2d { relu: true, .. })));
        assert!(optimized
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.op, Op::FusedMatMul { relu: false, .. })));

        let bytes = export_graph(&optimized.graph);
        let imported = import_graph(&bytes).unwrap();
        assert_eq!(imported.len(), optimized.graph.len());
        for (a, b) in imported.nodes().iter().zip(optimized.graph.nodes()) {
            assert_eq!(a.op.kind(), b.op.kind());
            assert_eq!(a.name, b.name);
        }

        let input = Tensor::from_vec(
            &[2, 4, 4, 2],
            (0..64).map(|i| (i % 9) as f32 * 0.2 - 0.8).collect(),
        )
        .unwrap();
        let feeds = HashMap::from([(fused_x, input.clone())]);
        let vars = HashMap::new();
        let run = |graph: &Graph| {
            crate::memory::PlannedExecutor::new()
                .run(
                    graph,
                    &feeds,
                    &vars,
                    &[fused_out],
                    &crate::kernels::WorkerPool::serial(),
                )
                .unwrap()
                .0
        };
        let (out_a, out_b) = (run(&optimized.graph), run(&imported));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out_a[0]), bits(&out_b[0]));
        // And the fused graph computes the same values the unfused one did.
        let mut unfused = Session::new(&g);
        let plain = unfused.run(&g, &[(x, input)], &[out]).unwrap();
        assert_eq!(bits(&plain[0]), bits(&out_a[0]));
    }

    #[test]
    fn freeze_folds_variables() {
        let (g, x, s) = sample_graph();
        let session = Session::new(&g);
        let frozen = freeze(&g, &session).unwrap();
        assert!(frozen.variables().is_empty());
        // Frozen graph still evaluates identically without a variable store.
        let input = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]).unwrap();
        let mut live = Session::new(&g);
        let mut froze = Session::new(&frozen);
        assert_eq!(
            live.run(&g, &[(x, input.clone())], &[s]).unwrap()[0].data(),
            froze.run(&frozen, &[(x, input)], &[s]).unwrap()[0].data()
        );
    }

    #[test]
    fn freeze_captures_trained_state_not_initial() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 1]);
        let w = g.variable("w", Tensor::zeros(&[1, 1]));
        let y = g.matmul(x, w).unwrap();
        let t = g.placeholder("t", &[0, 1]);
        let loss = g.mse_loss(y, t).unwrap();
        let mut session = Session::new(&g);
        let mut sgd = Sgd::new(0.5);
        for _ in 0..100 {
            session
                .train_step(
                    &g,
                    &[
                        (x, Tensor::from_vec(&[1, 1], vec![1.0]).unwrap()),
                        (t, Tensor::from_vec(&[1, 1], vec![2.0]).unwrap()),
                    ],
                    loss,
                    &mut sgd,
                )
                .unwrap();
        }
        let frozen = freeze(&g, &session).unwrap();
        let Op::Constant(c) = &frozen.nodes()[w.0].op else {
            panic!("variable not folded");
        };
        assert!((c.data()[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn import_rejects_corruption() {
        let (g, ..) = sample_graph();
        let bytes = export_graph(&g);
        assert!(import_graph(&bytes[..bytes.len() - 1]).is_err());
        assert!(import_graph(b"JUNK!").is_err());
        let mut extended = bytes.clone();
        extended.push(7);
        assert!(import_graph(&extended).is_err());
        let mut bad_magic = bytes;
        bad_magic[0] = b'X';
        assert!(import_graph(&bad_magic).is_err());
    }

    #[test]
    fn import_rejects_forward_references() {
        // Hand-craft: one relu node referencing node 5 (doesn't exist yet).
        let mut bytes = GRAPH_MAGIC.to_vec();
        put_u32(&mut bytes, 1);
        put_len_prefixed(&mut bytes, b"r");
        bytes.push(7); // relu
        put_u32(&mut bytes, 5);
        assert_eq!(
            import_graph(&bytes).unwrap_err(),
            TensorError::MalformedModel("forward reference")
        );
    }

    #[test]
    fn overflowing_shape_product_is_rejected() {
        // One constant of shape [256; 8]: 2^64 elements, which a wrapping
        // product turns into 0 (release) or a panic (debug). The frame
        // claims 0 elements and carries none, so only a checked product
        // sees that the shape is impossible.
        let mut bytes = GRAPH_MAGIC.to_vec();
        put_u32(&mut bytes, 1);
        put_len_prefixed(&mut bytes, b"c");
        bytes.push(2); // constant
        put_shape(&mut bytes, &[256; 8]);
        put_u32(&mut bytes, 0);
        assert_eq!(
            import_graph(&bytes).unwrap_err(),
            TensorError::MalformedModel("element count overflows")
        );
        assert!(Tensor::from_vec(&[256; 8], Vec::new()).is_err());
    }

    #[test]
    fn checkpoint_roundtrip() {
        let (g, ..) = sample_graph();
        let mut session = Session::new(&g);
        let w = g.by_name("w").unwrap();
        session
            .set_variable(w, Tensor::from_vec(&[2, 2], vec![9., 8., 7., 6.]).unwrap())
            .unwrap();
        let ckpt = save_checkpoint(&g, &session);
        let mut fresh = Session::new(&g);
        restore_checkpoint(&g, &mut fresh, &ckpt).unwrap();
        assert_eq!(fresh.variable(w).unwrap().data(), &[9., 8., 7., 6.]);
    }

    #[test]
    fn checkpoint_from_wrong_graph_rejected() {
        let (g, ..) = sample_graph();
        let session = Session::new(&g);
        let ckpt = save_checkpoint(&g, &session);
        // A graph whose variable has a different shape.
        let mut other = Graph::new();
        other.placeholder("x", &[0, 2]);
        other.variable("w", Tensor::zeros(&[3, 3]));
        let mut other_session = Session::new(&other);
        assert!(restore_checkpoint(&other, &mut other_session, &ckpt).is_err());
    }

    /// `STFC1 | count | (id tensor)*` from hand-picked entries.
    fn checkpoint_of(entries: &[(NodeId, Tensor)]) -> Vec<u8> {
        let mut out = CKPT_MAGIC.to_vec();
        put_u32(&mut out, entries.len() as u32);
        for (id, value) in entries {
            put_u32(&mut out, id.0 as u32);
            put_tensor(&mut out, value);
        }
        out
    }

    fn variable_bits(g: &Graph, session: &Session) -> Vec<Vec<u32>> {
        g.variables()
            .into_iter()
            .map(|id| {
                let value = session.variable(id).unwrap();
                value.data().iter().map(|x| x.to_bits()).collect()
            })
            .collect()
    }

    /// Each checkpoint is rejected, and not one variable moves.
    fn rejected_without_a_trace(g: &Graph, checkpoints: &[(&str, Vec<u8>)]) {
        for (what, bytes) in checkpoints {
            let mut session = Session::new(g);
            let before = variable_bits(g, &session);
            assert!(
                restore_checkpoint(g, &mut session, bytes).is_err(),
                "{what} accepted"
            );
            assert_eq!(
                variable_bits(g, &session),
                before,
                "{what} moved a variable"
            );
        }
    }

    fn trained_values(g: &Graph) -> (NodeId, Tensor, NodeId, Tensor) {
        let w = Tensor::from_vec(&[2, 2], vec![9., 8., 7., 6.]).unwrap();
        let b = Tensor::from_vec(&[2], vec![5., 4.]).unwrap();
        (g.by_name("w").unwrap(), w, g.by_name("b").unwrap(), b)
    }

    #[test]
    fn a_checkpoint_with_a_trailing_byte_restores_nothing() {
        let (g, ..) = sample_graph();
        let (w, wv, b, bv) = trained_values(&g);
        let mut bytes = checkpoint_of(&[(w, wv), (b, bv)]);
        bytes.push(0);
        rejected_without_a_trace(&g, &[("a trailing byte", bytes)]);
    }

    #[test]
    fn a_checkpoint_listing_a_variable_twice_restores_nothing() {
        let (g, ..) = sample_graph();
        let (w, wv, b, bv) = trained_values(&g);
        let twice = [(w, wv.clone()), (b, bv.clone()), (w, wv), (b, bv)];
        rejected_without_a_trace(
            &g,
            &[
                ("every entry twice", checkpoint_of(&twice)),
                (
                    "w twice, b missing",
                    checkpoint_of(&[twice[0].clone(), twice[2].clone()]),
                ),
            ],
        );
    }

    #[test]
    fn a_checkpoint_missing_a_variable_restores_nothing() {
        let (g, ..) = sample_graph();
        let (w, wv, b, bv) = trained_values(&g);
        rejected_without_a_trace(
            &g,
            &[
                ("no b", checkpoint_of(&[(w, wv)])),
                ("no w", checkpoint_of(&[(b, bv)])),
                ("no entries", checkpoint_of(&[])),
            ],
        );
    }

    #[test]
    fn a_shape_mismatch_mid_checkpoint_restores_nothing() {
        let (g, ..) = sample_graph();
        let (w, wv, b, _) = trained_values(&g);
        let wide_b = Tensor::from_vec(&[3], vec![5., 4., 3.]).unwrap();
        rejected_without_a_trace(
            &g,
            &[(
                "b of the wrong shape",
                checkpoint_of(&[(w, wv), (b, wide_b)]),
            )],
        );
    }

    #[test]
    fn dot_export_mentions_every_node_and_edge() {
        let (g, x, s) = sample_graph();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("matmul"));
        // One node line per graph node.
        assert_eq!(dot.matches("label=").count(), g.len(), "{dot}");
        // The input feeds the matmul.
        assert!(dot.contains(&format!("n{} -> ", x.index())));
        let _ = s;
    }

    #[test]
    fn exported_graph_size_tracks_parameters() {
        let mut g = Graph::new();
        g.variable("big", Tensor::zeros(&[1000]));
        let bytes = export_graph(&g);
        assert!(
            bytes.len() > 4000,
            "exported size {} too small",
            bytes.len()
        );
    }
}
