//! Liveness-driven memory planning shared by training and inference
//! (DESIGN.md §12).
//!
//! The paper's central performance observation is that enclave throughput
//! is dominated by EPC paging, which is why secureTF serves inference
//! through TF Lite's statically planned arena. This module generalizes
//! that planner to *training*: it computes the lifetime of every forward
//! value and every gradient on one unified timeline (forward steps, then
//! backward steps, then the optimizer), assigns each buffer an offset in
//! a shared arena via first-fit over non-overlapping lifetime intervals,
//! and drives execution so forward intermediates are recycled as soon as
//! their last gradient consumer has fired.
//!
//! Three layers consume the plan:
//!
//! * [`PlannedExecutor`] runs forward/backward passes against a reusable
//!   arena ([`crate::session::Session`] owns one per session),
//! * `securetf-tflite` builds its inference [`plan_inference`] arena from
//!   the same first-fit planner, and
//! * the TEE layer sizes one EPC region to [`MemoryPlan::peak_bytes`] and
//!   replays [`SlotWrite`]s as page touches, so the simulated hardware
//!   sees planned execution touch strictly fewer pages than the
//!   size-of-everything baseline.
//!
//! Planning never changes results: buffers are owned, every kernel
//! writes the whole of a buffer it takes before anything reads it (a
//! recycled buffer is handed out as it is — §11 "A buffer is written
//! once"), and a value dropped too early surfaces as a typed error, never
//! as a different number. A graph that cannot be planned (missing feed,
//! operand shape mismatch) cannot be executed either, so the planner's
//! typed error is returned to the caller.
//!
//! A steady-state run moves no model-sized data and allocates none:
//! leaves (constants, variables, feeds) are read where they live, and
//! every tensor the executor creates is `take`n from the [`Arena`] and
//! `put` back when it dies, so the pool never holds more than one run's
//! buffers. Only what is handed to the caller — fetched outputs and
//! variable gradients — leaves the pool (pinned by `tests/no_alloc.rs`).

use crate::autodiff::{self, Leaves, RunStats};
use crate::graph::{Graph, NodeId, Op};
use crate::kernels::{conv, WorkerPool, Workspace};
use crate::tensor::Tensor;
use crate::TensorError;
use std::collections::HashMap;

/// One planned buffer: an offset range in the arena plus the half-open
/// lifetime interval (in unified timeline steps) during which it is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Byte offset of the buffer within the arena.
    pub offset: u64,
    /// Buffer size in bytes.
    pub bytes: u64,
    /// First timeline step at which the buffer holds live data.
    pub live_from: usize,
    /// Last timeline step at which the buffer may be read.
    pub live_to: usize,
}

/// A complete memory plan for one graph execution (inference or one
/// training step).
#[derive(Debug, Clone, Default)]
pub struct MemoryPlan {
    /// Size of the arena: the high-water mark of the first-fit layout.
    /// Every live set fits below this offset at every step.
    pub peak_bytes: u64,
    /// What the same buffers would cost without sharing (the per-node
    /// `Vec` baseline): the sum of all planned buffer sizes.
    pub unshared_bytes: u64,
    steps: usize,
    shapes: Vec<Vec<usize>>,
    value_slots: Vec<Option<Slot>>,
    grad_slots: Vec<Option<Slot>>,
    /// Per node: whether the backward pass computes its gradient.
    wants_grad: Vec<bool>,
    /// Nodes the loss reaches whose gradient is not computed because no
    /// variable is upstream of them.
    grads_pruned: usize,
    /// For each timeline step, the nodes whose forward value dies there.
    value_drops: Vec<Vec<usize>>,
}

impl MemoryPlan {
    /// The arena slot of node `index`'s forward value, if planned.
    pub fn value_slot(&self, index: usize) -> Option<&Slot> {
        self.value_slots.get(index).and_then(Option::as_ref)
    }

    /// The arena slot of node `index`'s gradient, if planned.
    pub fn grad_slot(&self, index: usize) -> Option<&Slot> {
        self.grad_slots.get(index).and_then(Option::as_ref)
    }

    /// Whether the backward pass computes node `index`'s gradient: the
    /// loss depends on the node *and* the node depends on a variable.
    /// The plan is the one owner of this answer — a gradient slot exists
    /// only where it is `true`, and `autodiff::backward` asks here before
    /// it computes an operand's gradient.
    pub fn wants_grad(&self, index: usize) -> bool {
        self.wants_grad.get(index).copied().unwrap_or(false)
    }

    /// The statically inferred shape of node `index` (empty for scalars
    /// and for nodes outside the needed set).
    pub fn shape(&self, index: usize) -> &[usize] {
        self.shapes.get(index).map_or(&[], Vec::as_slice)
    }

    /// Number of steps on the unified timeline.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

/// Placeholder feeds, looked up by node id. The executor reads a fed
/// tensor in place — it never copies one — so callers lend whatever they
/// hold: a map of owned tensors, or a slice of borrowed ones.
pub trait Feeds {
    /// The tensor fed to placeholder `id`, if any.
    fn feed(&self, id: NodeId) -> Option<&Tensor>;
}

impl Feeds for HashMap<NodeId, Tensor> {
    fn feed(&self, id: NodeId) -> Option<&Tensor> {
        self.get(&id)
    }
}

/// Later entries win, as if the pairs were inserted into a map in order.
impl Feeds for [(NodeId, &Tensor)] {
    fn feed(&self, id: NodeId) -> Option<&Tensor> {
        self.iter()
            .rev()
            .find(|(fed, _)| *fed == id)
            .map(|(_, t)| *t)
    }
}

/// Element count of an *inferred* shape: a product of dimensions that
/// came out of feeds, variables and graph attributes, so it is checked —
/// together with the byte count the planner derives from it.
fn checked_elems(shape: &[usize]) -> Result<usize, TensorError> {
    crate::tensor::checked_elements(shape)
        .filter(|&count| count.checked_mul(4).is_some())
        .ok_or_else(|| TensorError::ShapeMismatch {
            op: "memory_plan",
            detail: format!("element count of {shape:?} overflows"),
        })
}

/// Element count of a shape [`infer_shapes_from_leaves`] returned (it
/// has checked every one of them) or of a tensor that exists.
fn elems(shape: &[usize]) -> usize {
    shape.iter().product()
}

fn bytes_of(shape: &[usize]) -> u64 {
    elems(shape) as u64 * 4
}

/// Statically infers the shape of every needed node from the graph
/// structure plus the shapes of the feeds and variables.
///
/// # Errors
///
/// Returns the same [`TensorError`] variants the executor raises for the
/// same condition:
///
/// * [`TensorError::BadFeed`] for missing or mis-shaped placeholder feeds.
/// * [`TensorError::InvalidGraph`] for a variable with no session value.
/// * [`TensorError::ShapeMismatch`] for incompatible operand shapes.
pub fn infer_shapes<F: Feeds + ?Sized>(
    graph: &Graph,
    needed: &[bool],
    feeds: &F,
    vars: &HashMap<NodeId, Tensor>,
) -> Result<Vec<Vec<usize>>, TensorError> {
    infer_shapes_from_leaves(
        graph,
        needed,
        |id, name, template| {
            autodiff::checked_feed(feeds, id, name, template).map(|fed| fed.shape().to_vec())
        },
        |id, _init| {
            vars.get(&id)
                .map(|value| value.shape().to_vec())
                .ok_or(TensorError::InvalidGraph("variable without session value"))
        },
    )
}

/// [`infer_shapes`] with the leaf shapes supplied by the caller:
/// `placeholder(id, name, template)` and `variable(id, init)` return the
/// concrete shape of each needed placeholder and variable; every other
/// node's shape follows from its op's shape rule. This is the one place
/// the per-op shape rules are written down.
///
/// # Errors
///
/// Propagates leaf errors; [`TensorError::ShapeMismatch`] for
/// incompatible operand shapes.
pub fn infer_shapes_from_leaves(
    graph: &Graph,
    needed: &[bool],
    placeholder: impl Fn(NodeId, &str, &[usize]) -> Result<Vec<usize>, TensorError>,
    variable: impl Fn(NodeId, &Tensor) -> Result<Vec<usize>, TensorError>,
) -> Result<Vec<Vec<usize>>, TensorError> {
    let mut shapes: Vec<Vec<usize>> = vec![Vec::new(); graph.len()];
    for (index, node) in graph.nodes().iter().enumerate() {
        if !needed.get(index).copied().unwrap_or(false) {
            continue;
        }
        let id = NodeId(index);
        let of = |nid: &NodeId| shapes[nid.0].clone();
        let mismatch = |detail: String| TensorError::ShapeMismatch {
            op: "memory_plan",
            detail,
        };
        let shape = match &node.op {
            Op::Placeholder { shape } => placeholder(id, &node.name, shape)?,
            Op::Variable { init } => variable(id, init)?,
            Op::Constant(t) => t.shape().to_vec(),
            Op::PackedConstant(panels) => panels.shape().to_vec(),
            Op::MatMul(a, b) => {
                let (sa, sb) = (of(a), of(b));
                let (&[m, k1], &[k2, n]) = (sa.as_slice(), sb.as_slice()) else {
                    return Err(mismatch(format!("matmul {sa:?} × {sb:?}")));
                };
                if k1 != k2 {
                    return Err(mismatch(format!("matmul inner dims {k1} vs {k2}")));
                }
                vec![m, n]
            }
            Op::AddBias(x, bias) => {
                let (sx, sb) = (of(x), of(bias));
                if sx.last().is_none_or(|&n| sb != [n]) {
                    return Err(mismatch(format!("add_bias x {sx:?} bias {sb:?}")));
                }
                sx
            }
            Op::Softmax(x) => {
                let sx = of(x);
                if sx.len() != 2 {
                    return Err(mismatch(format!("softmax {sx:?} (need rank 2)")));
                }
                sx
            }
            Op::Relu(x) | Op::Sigmoid(x) | Op::Tanh(x) => of(x),
            Op::Add(a, b) | Op::Mul(a, b) | Op::Sub(a, b) => {
                let (sa, sb) = (of(a), of(b));
                if sa != sb {
                    return Err(mismatch(format!("elementwise {sa:?} vs {sb:?}")));
                }
                sa
            }
            Op::Scale(x, _) => of(x),
            Op::Conv2d {
                input,
                filter,
                padding,
            } => {
                let g = conv::geometry(&of(input), &of(filter), *padding)?;
                vec![g.b, g.oh, g.ow, g.cout]
            }
            Op::MaxPool2(x) | Op::AvgPool2(x) => {
                let sx = of(x);
                let &[b, h, w, c] = sx.as_slice() else {
                    return Err(mismatch(format!("pool2 {sx:?} (need NHWC)")));
                };
                vec![b, h / 2, w / 2, c]
            }
            Op::Flatten(x) => {
                let sx = of(x);
                let batch = *sx.first().unwrap_or(&1);
                let rest = elems(&sx) / batch.max(1);
                vec![batch, rest]
            }
            Op::Reshape(x, shape) => {
                if elems(&of(x)) != checked_elems(shape)? {
                    return Err(mismatch(format!("reshape {:?} -> {shape:?}", of(x))));
                }
                shape.clone()
            }
            Op::SoftmaxCrossEntropy { logits, labels } => {
                let (sl, sy) = (of(logits), of(labels));
                if sl != sy || sl.len() != 2 {
                    return Err(mismatch(format!("softmax_xent {sl:?} vs {sy:?}")));
                }
                Vec::new()
            }
            Op::MseLoss(p, t) => {
                let (sp, st) = (of(p), of(t));
                if sp != st {
                    return Err(mismatch(format!("mse_loss {sp:?} vs {st:?}")));
                }
                Vec::new()
            }
            Op::ConcatCols(a, b) => {
                let (sa, sb) = (of(a), of(b));
                let (&[m1, n1], &[m2, n2]) = (sa.as_slice(), sb.as_slice()) else {
                    return Err(mismatch(format!("concat_cols {sa:?} ++ {sb:?}")));
                };
                if m1 != m2 {
                    return Err(mismatch(format!("concat_cols rows {m1} vs {m2}")));
                }
                let columns = n1
                    .checked_add(n2)
                    .ok_or_else(|| mismatch(format!("concat_cols columns {n1} + {n2} overflow")))?;
                vec![m1, columns]
            }
            Op::FusedMatMul { lhs, rhs, bias, .. } => {
                let (sa, sb, sc) = (of(lhs), of(rhs), of(bias));
                let (&[m, k1], &[k2, n]) = (sa.as_slice(), sb.as_slice()) else {
                    return Err(mismatch(format!("fused_matmul {sa:?} × {sb:?}")));
                };
                if k1 != k2 {
                    return Err(mismatch(format!("fused_matmul inner dims {k1} vs {k2}")));
                }
                if sc != [n] {
                    return Err(mismatch(format!("fused_matmul bias {sc:?} vs columns {n}")));
                }
                vec![m, n]
            }
            Op::FusedConv2d {
                input,
                filter,
                bias,
                padding,
                ..
            } => {
                let g = conv::geometry(&of(input), &of(filter), *padding)?;
                let sc = of(bias);
                if sc != [g.cout] {
                    return Err(mismatch(format!(
                        "fused_conv2d bias {sc:?} vs channels {}",
                        g.cout
                    )));
                }
                vec![g.b, g.oh, g.ow, g.cout]
            }
        };
        checked_elems(&shape)?;
        shapes[index] = shape;
    }
    Ok(shapes)
}

/// Whether the backward rule of `op` reads the forward *value* of the
/// given input position (as opposed to only its shape, which the plan
/// provides statically).
fn backward_reads_input(op: &Op, position: usize) -> bool {
    match op {
        // ga = grad × bᵀ and gb = aᵀ × grad read both operands.
        Op::MatMul(..) | Op::Mul(..) => true,
        // Relu masks on its input; pooling argmax recomputes from it.
        Op::Relu(_) | Op::MaxPool2(_) => true,
        // The filter gradient reads the input's values (through its
        // padded copy), the input gradient the filter's.
        Op::Conv2d { .. } => true,
        // The loss gradients re-read both operands.
        Op::SoftmaxCrossEntropy { .. } | Op::MseLoss(..) => true,
        // Fused epilogue ops read their data operands (positions 0/1)
        // like the unfused MatMul/Conv2d; the bias gradient is a column
        // sum of the incoming gradient, so the bias *value* (position 2)
        // is never read — only its plan shape.
        Op::FusedMatMul { .. } | Op::FusedConv2d { .. } => position < 2,
        // Shape-only (AddBias, Flatten, Reshape, AvgPool2, ConcatCols)
        // or nothing at all (Add, Sub, Scale); the self-output readers
        // (Softmax, Sigmoid, Tanh) are handled by the caller.
        _ => false,
    }
}

/// Whether the backward rule of `op` reads the node's *own* forward
/// output (the s·(1-s)-style activations, and the fused-relu mask).
fn backward_reads_output(op: &Op) -> bool {
    match op {
        Op::Softmax(_) | Op::Sigmoid(_) | Op::Tanh(_) => true,
        // A fused relu masks the backward pass on the fused output
        // (`y > 0 ⟺ pre-activation > 0`, exactly); without relu the
        // epilogue is linear and nothing re-reads the output.
        Op::FusedMatMul { relu, .. } | Op::FusedConv2d { relu, .. } => *relu,
        _ => false,
    }
}

/// The input positions of `op` that receive gradient contributions.
fn grad_inputs(op: &Op) -> Vec<NodeId> {
    match op {
        // Losses propagate only through their prediction operand.
        Op::SoftmaxCrossEntropy { logits, .. } => vec![*logits],
        Op::MseLoss(p, _) => vec![*p],
        _ => op.inputs(),
    }
}

/// Nodes that never live in the arena: variable and constant storage is
/// owned by the session/graph (the EPC "params" region), not the
/// activation arena.
fn is_param(op: &Op) -> bool {
    matches!(
        op,
        Op::Variable { .. } | Op::Constant(_) | Op::PackedConstant(_)
    )
}

struct Request {
    /// 0 = forward value, 1 = gradient (tie-break only).
    kind: u8,
    node: usize,
    bytes: u64,
    from: usize,
    to: usize,
}

/// First-fit offset assignment over non-overlapping lifetime intervals —
/// the TF Lite arena algorithm. Requests are placed in (birth, node,
/// kind) order; each goes at the lowest offset whose gap clears every
/// already-placed, lifetime-overlapping slot. Returns `(peak, offsets)`.
fn first_fit(requests: &[Request]) -> (u64, Vec<u64>) {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| (requests[i].from, requests[i].node, requests[i].kind));
    let mut offsets = vec![0u64; requests.len()];
    let mut placed: Vec<usize> = Vec::new();
    let mut peak = 0u64;
    for &i in &order {
        let req = &requests[i];
        let mut conflicts: Vec<(u64, u64)> = placed
            .iter()
            .map(|&j| &requests[j])
            .zip(placed.iter().map(|&j| offsets[j]))
            .filter(|(other, _)| other.from <= req.to && req.from <= other.to)
            .map(|(other, off)| (off, off + other.bytes))
            .collect();
        conflicts.sort_unstable();
        let mut offset = 0u64;
        for (start, end) in conflicts {
            if offset + req.bytes <= start {
                break;
            }
            offset = offset.max(end);
        }
        offsets[i] = offset;
        peak = peak.max(offset + req.bytes);
        placed.push(i);
    }
    (peak, offsets)
}

fn build_plan(
    graph: &Graph,
    shapes: Vec<Vec<usize>>,
    steps: usize,
    value_lives: &[Option<(usize, usize)>],
    grad_lives: &[Option<(usize, usize)>],
) -> MemoryPlan {
    let mut requests = Vec::new();
    let mut owners: Vec<(u8, usize)> = Vec::new();
    for (index, live) in value_lives.iter().enumerate() {
        let Some(&(from, to)) = live.as_ref() else {
            continue;
        };
        let bytes = bytes_of(&shapes[index]);
        if bytes == 0 || is_param(&graph.nodes()[index].op) {
            continue;
        }
        requests.push(Request {
            kind: 0,
            node: index,
            bytes,
            from,
            to,
        });
        owners.push((0, index));
    }
    for (index, live) in grad_lives.iter().enumerate() {
        let Some(&(from, to)) = live.as_ref() else {
            continue;
        };
        let bytes = bytes_of(&shapes[index]);
        if bytes == 0 {
            continue;
        }
        requests.push(Request {
            kind: 1,
            node: index,
            bytes,
            from,
            to,
        });
        owners.push((1, index));
    }
    let (peak_bytes, offsets) = first_fit(&requests);
    let unshared_bytes = requests.iter().map(|r| r.bytes).sum();
    let mut value_slots: Vec<Option<Slot>> = vec![None; graph.len()];
    let mut grad_slots: Vec<Option<Slot>> = vec![None; graph.len()];
    let mut value_drops: Vec<Vec<usize>> = vec![Vec::new(); steps];
    for ((req, &offset), &(kind, node)) in requests.iter().zip(&offsets).zip(&owners) {
        let slot = Slot {
            offset,
            bytes: req.bytes,
            live_from: req.from,
            live_to: req.to,
        };
        if kind == 0 {
            value_slots[node] = Some(slot);
            // Values living to the final step are fetch targets (or
            // optimizer inputs); the end-of-run sweep reclaims them.
            if req.to + 1 < steps {
                value_drops[req.to].push(node);
            }
        } else {
            grad_slots[node] = Some(slot);
        }
    }
    for drops in &mut value_drops {
        drops.sort_unstable();
    }
    MemoryPlan {
        peak_bytes,
        unshared_bytes,
        steps,
        shapes,
        value_slots,
        grad_slots,
        // An inference plan's answer; `plan_training` fills in its own.
        wants_grad: Vec::new(),
        grads_pruned: 0,
        value_drops,
    }
}

/// Plans an inference pass: node `i` is computed at step `i` and dies at
/// its last consumer; `targets` survive to the end of the run.
///
/// # Errors
///
/// Returns [`TensorError::UnknownNode`] for out-of-range targets.
pub fn plan_inference(
    graph: &Graph,
    shapes: Vec<Vec<usize>>,
    needed: &[bool],
    targets: &[NodeId],
) -> Result<MemoryPlan, TensorError> {
    let steps = graph.len() + 1;
    let mut value_lives: Vec<Option<(usize, usize)>> = vec![None; graph.len()];
    for index in 0..graph.len() {
        if !needed.get(index).copied().unwrap_or(false) {
            continue;
        }
        value_lives[index] = Some((index, index));
        for input in graph.nodes()[index].op.inputs() {
            if let Some(live) = value_lives[input.0].as_mut() {
                live.1 = live.1.max(index);
            }
        }
    }
    for target in targets {
        let live = value_lives
            .get_mut(target.0)
            .ok_or(TensorError::UnknownNode)?;
        if let Some(live) = live.as_mut() {
            live.1 = graph.len();
        }
    }
    let grad_lives = vec![None; graph.len()];
    Ok(build_plan(graph, shapes, steps, &value_lives, &grad_lives))
}

/// Plans one training step on the unified timeline: node `i`'s forward
/// value is born at step `i`; the backward pass visits node `i` at step
/// `2L+1-i` (`L` = the loss index); step `2L+2` is the optimizer update.
/// A forward value lives until its last consumer — forward *or* backward
/// (per `backward_reads_input`) — has fired; gradients are born at
/// their first contribution and die when their node's backward rule runs
/// (variables' gradients survive to the optimizer step).
///
/// Only the gradients [`MemoryPlan::wants_grad`] names exist: a node the
/// loss reaches but no variable feeds (a placeholder, a constant,
/// anything computed from those alone) gets no slot and no backward
/// rule. Value lifetimes stay conservative about *operands*: a rule that
/// fires keeps every operand it could read, also one that only a pruned
/// operand's gradient would have read.
///
/// # Errors
///
/// Returns [`TensorError::UnknownNode`] if `loss` is out of range.
pub fn plan_training(
    graph: &Graph,
    shapes: Vec<Vec<usize>>,
    needed: &[bool],
    loss: NodeId,
) -> Result<MemoryPlan, TensorError> {
    let l = loss.0;
    if l >= graph.len() {
        return Err(TensorError::UnknownNode);
    }
    let steps = 2 * l + 3;
    let bstep = |i: usize| 2 * l + 1 - i;

    let is_needed = |index: usize| needed.get(index).copied().unwrap_or(false);

    // Which nodes the loss sends a gradient to: walk contributions down
    // from the loss.
    let mut has_grad = vec![false; graph.len()];
    has_grad[l] = true;
    for index in (0..=l).rev() {
        if !has_grad[index] || !is_needed(index) {
            continue;
        }
        for input in grad_inputs(&graph.nodes()[index].op) {
            has_grad[input.0] = true;
        }
    }
    // Which of those gradients anything consumes. The optimizer takes the
    // variables' gradients and a backward rule only hands its node's
    // gradient on to the node's inputs, so a gradient is worth computing
    // iff a variable is upstream: the node is a variable or any input is
    // trainable (one forward sweep — inputs precede nodes).
    let mut trainable = vec![false; graph.len()];
    for index in 0..=l {
        let op = &graph.nodes()[index].op;
        trainable[index] = is_needed(index)
            && (is_var(graph, index) || op.inputs().iter().any(|input| trainable[input.0]));
    }
    let wants_grad: Vec<bool> = (0..graph.len())
        .map(|index| has_grad[index] && trainable[index])
        .collect();
    let grads_pruned = (0..graph.len())
        .filter(|&index| has_grad[index] && is_needed(index) && !trainable[index])
        .count();

    let mut value_lives: Vec<Option<(usize, usize)>> = vec![None; graph.len()];
    for index in 0..=l {
        if !is_needed(index) {
            continue;
        }
        let op = &graph.nodes()[index].op;
        let mut death = index;
        if wants_grad[index] && backward_reads_output(op) {
            death = death.max(bstep(index));
        }
        value_lives[index] = Some((index, death));
        for (position, input) in op.inputs().into_iter().enumerate() {
            let Some(live) = value_lives[input.0].as_mut() else {
                continue;
            };
            live.1 = live.1.max(index);
            if wants_grad[index] && backward_reads_input(op, position) {
                live.1 = live.1.max(bstep(index));
            }
        }
    }
    // The gradient seed reads the loss value's shape at the first
    // backward step.
    if let Some(live) = value_lives[l].as_mut() {
        live.1 = live.1.max(l + 1);
    }

    let mut grad_lives: Vec<Option<(usize, usize)>> = vec![None; graph.len()];
    for index in (0..=l).rev() {
        if !wants_grad[index] {
            continue;
        }
        let death = if is_var(graph, index) {
            2 * l + 2
        } else {
            bstep(index)
        };
        if index == l {
            grad_lives[index] = Some((l + 1, death));
        } else {
            // Born when the highest-index contributing consumer runs.
            let birth = (index + 1..=l)
                .rev()
                .find(|&j| {
                    wants_grad[j] && grad_inputs(&graph.nodes()[j].op).contains(&NodeId(index))
                })
                .map(bstep);
            if let Some(birth) = birth {
                grad_lives[index] = Some((birth, death));
            }
        }
    }

    let mut plan = build_plan(graph, shapes, steps, &value_lives, &grad_lives);
    plan.wants_grad = wants_grad;
    plan.grads_pruned = grads_pruned;
    Ok(plan)
}

fn is_var(graph: &Graph, index: usize) -> bool {
    matches!(graph.nodes()[index].op, Op::Variable { .. })
}

/// A recycling pool of exact-length `f32` buffers backing arena slots.
///
/// The simulated arena is virtual: the *plan* assigns byte offsets (which
/// the TEE layer replays as EPC page touches), while execution backs each
/// live slot with a recycled `Vec<f32>`. `take` hands a recycled buffer
/// out as it is — holding some earlier intermediate of the same executor,
/// never anyone else's data — because whoever takes a buffer writes all
/// of it (DESIGN.md §11 "A buffer is written once"). Builds with debug
/// assertions (every `cargo test`) overwrite it with NaN first, so a
/// kernel that reads what it did not write fails its bit-identity tests
/// instead of passing on a lucky zero.
///
/// The pool has no size cap because it needs none: the executor `put`s
/// only buffers it `take`s, so the free lists can never hold more than
/// the buffers one run had out at once.
#[derive(Debug, Clone, Default)]
pub struct Arena {
    free: HashMap<usize, Vec<Vec<f32>>>,
    pooled_bytes: u64,
}

impl Arena {
    /// A buffer of exactly `len` elements, recycled if available; its
    /// contents are unspecified.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = match self.free.get_mut(&len).and_then(Vec::pop) {
            Some(buf) => {
                self.pooled_bytes -= bytes_of(&[len]);
                buf
            }
            None => vec![0.0f32; len],
        };
        if cfg!(debug_assertions) {
            buf.fill(f32::NAN);
        }
        buf
    }

    /// Returns a buffer to the pool.
    pub fn put(&mut self, buf: Vec<f32>) {
        if !buf.is_empty() {
            self.pooled_bytes += bytes_of(&[buf.len()]);
            self.free.entry(buf.len()).or_default().push(buf);
        }
    }

    /// Bytes currently parked in the free lists.
    pub fn pooled_bytes(&self) -> u64 {
        self.pooled_bytes
    }
}

/// One write into the planned arena, for the TEE layer to replay as an
/// EPC page touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotWrite {
    /// Byte offset of the written slot within the arena.
    pub offset: u64,
    /// Bytes written.
    pub bytes: u64,
}

/// Point-in-time memory statistics of a planned executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Arena size the current plan requires (0 before the first run).
    pub planned_peak_bytes: u64,
    /// Sum of all planned buffer sizes — the no-sharing baseline.
    pub unshared_bytes: u64,
    /// Slot bytes live right now.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` during the last run.
    pub peak_resident_bytes: u64,
    /// Bytes parked in the [`Arena`] free lists — real heap the executor
    /// holds between runs. Constant from run to run in steady state.
    pub pooled_bytes: u64,
    /// Gradients the plan has a slot for (0 for an inference plan).
    pub grad_slots: u64,
    /// Nodes the loss reaches whose gradient the backward pass skips
    /// because no variable is upstream of them.
    pub grads_pruned: u64,
    /// Capacity of the executor's kernel scratch
    /// ([`Workspace::capacity_bytes`]: the conv kernels' padded image,
    /// `gcol` and `filter_t`) — enclave heap the plan does not see.
    pub workspace_bytes: u64,
}

/// Runtime state of one planned execution: the plan, the backing arena,
/// resident accounting, and the slot-write log.
#[derive(Debug, Clone, Default)]
pub struct ExecMemory {
    plan: MemoryPlan,
    arena: Arena,
    resident_bytes: u64,
    peak_resident_bytes: u64,
    writes: Vec<SlotWrite>,
}

impl ExecMemory {
    fn new(plan: MemoryPlan) -> ExecMemory {
        ExecMemory {
            plan,
            ..ExecMemory::default()
        }
    }

    /// The plan this execution follows.
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    pub(crate) fn begin_run(&mut self) {
        self.resident_bytes = 0;
        self.peak_resident_bytes = 0;
        // Bound the log when no one drains it between runs.
        self.writes.clear();
    }

    /// An arena buffer of `len` elements, contents unspecified: for a
    /// kernel that writes all of it.
    pub(crate) fn take(&mut self, len: usize) -> Vec<f32> {
        self.arena.take(len)
    }

    /// A tensor of `shape` backed by an arena buffer, contents
    /// unspecified: for a producer that writes every element.
    pub(crate) fn tensor(&mut self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(shape, self.arena.take(elems(shape)))
            .expect("buffer taken at the shape's element count")
    }

    /// A zeroed tensor of `shape` backed by an arena buffer: for a
    /// producer that accumulates into it.
    pub(crate) fn zeros(&mut self, shape: &[usize]) -> Tensor {
        let mut out = self.tensor(shape);
        out.data_mut().fill(0.0);
        out
    }

    pub(crate) fn recycle(&mut self, tensor: Tensor) {
        self.arena.put(tensor.into_data());
    }

    /// Marks `slot` live and logs its write — after checking that the
    /// tensor about to occupy it is the size the plan gave it: replaying
    /// a drifted plan would charge EPC touches for the wrong pages.
    fn note_live(&mut self, slot: Slot, tensor: &Tensor) -> Result<(), TensorError> {
        if slot.bytes != tensor.byte_len() {
            return Err(TensorError::InvalidGraph("planned shape drift"));
        }
        self.resident_bytes += slot.bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        self.writes.push(SlotWrite {
            offset: slot.offset,
            bytes: slot.bytes,
        });
        Ok(())
    }

    /// Accounts node `index`'s forward value against its planned slot.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidGraph`] if the value is not the planned size.
    pub(crate) fn on_value(&mut self, index: usize, value: &Tensor) -> Result<(), TensorError> {
        match self.plan.value_slot(index) {
            Some(&slot) => self.note_live(slot, value),
            None => Ok(()),
        }
    }

    /// Accounts node `index`'s gradient against its planned slot.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidGraph`] if the gradient is not the planned
    /// size, or if the plan has no slot for it: the plan decides which
    /// gradients exist, so a gradient it did not plan is the executor
    /// and the plan disagreeing (a zero-byte gradient needs no slot).
    pub(crate) fn on_grad(&mut self, index: usize, grad: &Tensor) -> Result<(), TensorError> {
        match self.plan.grad_slot(index) {
            Some(&slot) => self.note_live(slot, grad),
            None if grad.byte_len() == 0 => Ok(()),
            None => Err(TensorError::InvalidGraph("gradient without a planned slot")),
        }
    }

    /// Ends the planned lifetime of node `index`'s gradient. `grad` is
    /// its buffer, unless the node's backward rule handed that on to an
    /// operand's gradient (then only the slot is released).
    pub(crate) fn release_grad(&mut self, index: usize, grad: Option<Tensor>) {
        if let Some(slot) = self.plan.grad_slot(index) {
            self.resident_bytes = self.resident_bytes.saturating_sub(slot.bytes);
        }
        if let Some(grad) = grad {
            self.recycle(grad);
        }
    }

    /// Ends the planned lifetime of every forward value that dies at
    /// `step`: its slot leaves the resident set and, if the run computed
    /// it (a fed placeholder occupies a slot but stays with the caller),
    /// its buffer goes back to the pool.
    pub(crate) fn drop_dead_values(&mut self, step: usize, values: &mut [Option<Tensor>]) {
        // The drop list borrows the plan; move it out while recycling.
        let Some(entry) = self.plan.value_drops.get_mut(step) else {
            return;
        };
        let dead = std::mem::take(entry);
        for &index in &dead {
            if let Some(slot) = self.plan.value_slot(index) {
                self.resident_bytes = self.resident_bytes.saturating_sub(slot.bytes);
            }
            if let Some(value) = values[index].take() {
                self.arena.put(value.into_data());
            }
        }
        self.plan.value_drops[step] = dead;
    }

    /// Recycles everything left alive at the end of a run and zeroes the
    /// resident gauge.
    pub(crate) fn end_run(&mut self, values: &mut [Option<Tensor>]) {
        for value in values.iter_mut() {
            if let Some(t) = value.take() {
                self.arena.put(t.into_data());
            }
        }
        self.resident_bytes = 0;
    }

    /// Drains the slot writes recorded since the last call.
    pub fn take_writes(&mut self) -> Vec<SlotWrite> {
        std::mem::take(&mut self.writes)
    }
}

/// What a memory plan was made for. A later run may reuse the plan when
/// it asks for the same graph version, targets and mode, and its needed
/// feeds and variables have the shapes the plan recorded: everything
/// else a shape depends on is a node, and an edited node is a new
/// version.
#[derive(Debug, Clone)]
struct PlanFor {
    version: u64,
    targets: Vec<NodeId>,
    train: bool,
}

/// The graph executor: caches the memory plan, the arena, and the values
/// vector across runs of the same configuration (shape change →
/// transparent replan). This is the only way a graph reaches
/// [`crate::kernels`].
#[derive(Debug, Clone, Default)]
pub struct PlannedExecutor {
    ws: Workspace,
    values: Vec<Option<Tensor>>,
    /// The configuration `mem` was planned for.
    planned: Option<PlanFor>,
    /// [`autodiff::needed_set`] of that configuration: which nodes a run
    /// evaluates.
    needed: Vec<bool>,
    mem: ExecMemory,
}

impl PlannedExecutor {
    /// Creates an executor with no cached plan.
    pub fn new() -> PlannedExecutor {
        PlannedExecutor::default()
    }

    /// The arena size of the current plan, if any run has planned.
    pub fn planned_peak_bytes(&self) -> Option<u64> {
        self.planned.as_ref().map(|_| self.mem.plan.peak_bytes)
    }

    /// Current memory statistics (zeros before the first run).
    pub fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            planned_peak_bytes: self.mem.plan.peak_bytes,
            unshared_bytes: self.mem.plan.unshared_bytes,
            resident_bytes: self.mem.resident_bytes,
            peak_resident_bytes: self.mem.peak_resident_bytes,
            pooled_bytes: self.mem.arena.pooled_bytes(),
            grad_slots: self.mem.plan.grad_slots.iter().flatten().count() as u64,
            grads_pruned: self.mem.plan.grads_pruned as u64,
            workspace_bytes: self.ws.capacity_bytes(),
        }
    }

    /// Drains the arena slot writes recorded by runs since the last call.
    pub fn take_slot_writes(&mut self) -> Vec<SlotWrite> {
        self.mem.take_writes()
    }

    /// Replans unless the cached plan was made for this configuration
    /// (see [`PlanFor`]). A configuration that cannot be planned leaves
    /// the cache as it was.
    fn ensure_plan<F: Feeds + ?Sized>(
        &mut self,
        leaves: &Leaves<'_, F>,
        targets: &[NodeId],
        loss: Option<NodeId>,
    ) -> Result<(), TensorError> {
        let Leaves { graph, feeds, vars } = *leaves;
        let (plan, needed) = (&self.mem.plan, &self.needed);
        let reusable = self.planned.as_ref().is_some_and(|p| {
            p.version == graph.version()
                && p.targets == targets
                && p.train == loss.is_some()
                && graph.nodes().iter().enumerate().all(|(index, node)| {
                    let id = NodeId(index);
                    let leaf = match &node.op {
                        Op::Placeholder { .. } => feeds.feed(id),
                        Op::Variable { .. } => vars.get(&id),
                        _ => return true,
                    };
                    !needed[index] || leaf.map(Tensor::shape) == Some(plan.shape(index))
                })
        });
        if !reusable {
            let needed = autodiff::needed_set(graph, targets)?;
            let shapes = infer_shapes(graph, &needed, feeds, vars)?;
            let plan = match loss {
                Some(loss) => plan_training(graph, shapes, &needed, loss)?,
                None => plan_inference(graph, shapes, &needed, targets)?,
            };
            self.mem = ExecMemory::new(plan);
            self.planned = Some(PlanFor {
                version: graph.version(),
                targets: targets.to_vec(),
                train: loss.is_some(),
            });
            self.needed = needed;
        }
        Ok(())
    }

    /// Evaluates `targets`. Results and [`RunStats`] are bit-identical for
    /// every worker count. Feeds, variables and the graph's constants are
    /// read in place; a target that is itself a leaf is copied once, into
    /// the returned output.
    ///
    /// # Errors
    ///
    /// * [`TensorError::UnknownNode`] for ids outside the graph.
    /// * [`TensorError::BadFeed`] for missing or mis-shaped placeholder feeds.
    /// * [`TensorError::ShapeMismatch`] for incompatible operand shapes.
    /// * [`TensorError::InvalidGraph`] for a variable with no session value.
    pub fn run<F: Feeds + ?Sized>(
        &mut self,
        graph: &Graph,
        feeds: &F,
        vars: &HashMap<NodeId, Tensor>,
        targets: &[NodeId],
        pool: &WorkerPool,
    ) -> Result<(Vec<Tensor>, RunStats), TensorError> {
        let leaves = Leaves { graph, feeds, vars };
        self.ensure_plan(&leaves, targets, None)?;
        let (needed, mem) = (&self.needed, &mut self.mem);
        mem.begin_run();
        self.values.clear();
        self.values.resize(graph.len(), None);
        let result = autodiff::forward(&leaves, needed, pool, &mut self.ws, mem, &mut self.values)
            .and_then(|stats| {
                let outs = targets
                    .iter()
                    .map(|&id| {
                        leaves
                            .operand(&self.values, id)
                            .cloned()
                            .ok_or(TensorError::UnknownNode)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((outs, stats))
            });
        mem.end_run(&mut self.values);
        result
    }

    /// Runs forward + backward for one training step. Returns the loss
    /// value, the gradients of every variable, and the forward-pass stats.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PlannedExecutor::run`]; additionally
    /// [`TensorError::InvalidGraph`] if `loss` is not a scalar.
    pub fn train<F: Feeds + ?Sized>(
        &mut self,
        graph: &Graph,
        feeds: &F,
        vars: &HashMap<NodeId, Tensor>,
        loss: NodeId,
        pool: &WorkerPool,
    ) -> Result<(f32, HashMap<NodeId, Tensor>, RunStats), TensorError> {
        let leaves = Leaves { graph, feeds, vars };
        let targets = [loss];
        self.ensure_plan(&leaves, &targets, Some(loss))?;
        let (needed, mem) = (&self.needed, &mut self.mem);
        mem.begin_run();
        self.values.clear();
        self.values.resize(graph.len(), None);
        let result = autodiff::forward(&leaves, needed, pool, &mut self.ws, mem, &mut self.values)
            .and_then(|stats| {
                let loss_value = leaves
                    .operand(&self.values, loss)
                    .ok_or(TensorError::UnknownNode)?
                    .data()[0];
                let grads =
                    autodiff::backward(&leaves, &mut self.values, loss, pool, &mut self.ws, mem)?;
                Ok((loss_value, grads, stats))
            });
        mem.end_run(&mut self.values);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Padding;

    #[test]
    fn slice_feeds_resolve_like_a_map_built_from_the_pairs() {
        let (a, b) = (Tensor::scalar(1.0), Tensor::scalar(2.0));
        let feeds: &[(NodeId, &Tensor)] = &[(NodeId(3), &a), (NodeId(5), &a), (NodeId(3), &b)];
        assert_eq!(feeds.feed(NodeId(3)), Some(&b));
        assert_eq!(feeds.feed(NodeId(5)), Some(&a));
        assert_eq!(feeds.feed(NodeId(4)), None);
    }

    #[test]
    fn arena_counts_what_it_parks() {
        let mut arena = Arena::default();
        let (small, large) = (arena.take(3), arena.take(10));
        assert_eq!(arena.pooled_bytes(), 0);
        arena.put(small);
        arena.put(large);
        arena.put(Vec::new());
        assert_eq!(arena.pooled_bytes(), 52);
        // A hit hands the parked buffer out as it is: the length is all
        // a taker may rely on.
        assert_eq!(arena.take(10).len(), 10);
        assert_eq!(arena.pooled_bytes(), 12);
        // A miss allocates and leaves the pool alone.
        assert_eq!(arena.take(7).len(), 7);
        assert_eq!(arena.pooled_bytes(), 12);
    }

    /// `conv2d(x, f)` over a fed `[1, 4, 4, 1]` image and a constant 3×3
    /// filter with two output channels.
    fn one_conv(padding: Padding) -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 4, 4, 1]);
        let f = g.constant("f", Tensor::full(&[3, 3, 1, 2], 0.5));
        let y = g.conv2d(x, f, padding).unwrap();
        (g, x, y)
    }

    #[test]
    fn a_value_that_outgrew_its_planned_slot_is_a_typed_error() {
        // Replaying a plan whose slots are not the size of what runs
        // would touch the wrong EPC pages; the executor refuses instead
        // (in release builds too). A plan is reused only for the graph
        // version and leaf shapes it was made for, so the drift is made
        // by hand: shrink the slot the cached plan gave the conv output.
        let (graph, x, y) = one_conv(Padding::Valid);
        let feeds = HashMap::from([(x, Tensor::full(&[1, 4, 4, 1], 1.0))]);
        let (vars, pool) = (HashMap::new(), WorkerPool::serial());

        let mut executor = PlannedExecutor::new();
        let (out, _) = executor.run(&graph, &feeds, &vars, &[y], &pool).unwrap();
        assert_eq!(out[0].shape(), &[1, 2, 2, 2]);
        let slot = executor.mem.plan.value_slots[y.0].as_mut().unwrap();
        let planned = std::mem::replace(&mut slot.bytes, 4);
        assert_eq!(
            executor.run(&graph, &feeds, &vars, &[y], &pool),
            Err(TensorError::InvalidGraph("planned shape drift"))
        );
        assert_eq!(executor.memory_stats().resident_bytes, 0);
        // The plan as it was made still runs.
        executor.mem.plan.value_slots[y.0].as_mut().unwrap().bytes = planned;
        executor.run(&graph, &feeds, &vars, &[y], &pool).unwrap();
    }

    #[test]
    fn the_same_graph_with_the_other_padding_replans() {
        // Same op kinds, wiring, leaf shapes and targets: only the conv's
        // padding — and with it the output's shape — differs. Each graph
        // has its own version, so the executor replans on every switch.
        let (valid, x, y) = one_conv(Padding::Valid);
        let (same, ..) = one_conv(Padding::Same);
        let feeds = HashMap::from([(x, Tensor::full(&[1, 4, 4, 1], 1.0))]);
        let (vars, pool) = (HashMap::new(), WorkerPool::serial());

        let mut executor = PlannedExecutor::new();
        let mut planned = Vec::new();
        for (graph, shape) in [
            (&valid, [1, 2, 2, 2]),
            (&same, [1, 4, 4, 2]),
            (&valid, [1, 2, 2, 2]),
        ] {
            let (out, _) = executor.run(graph, &feeds, &vars, &[y], &pool).unwrap();
            assert_eq!(out[0].shape(), &shape);
            planned.push(executor.planned_peak_bytes().unwrap());
            let fresh = PlannedExecutor::new()
                .run(graph, &feeds, &vars, &[y], &pool)
                .unwrap();
            assert_eq!(out, fresh.0);
        }
        assert!(
            planned[0] < planned[1] && planned[0] == planned[2],
            "{planned:?}"
        );
    }

    /// `reshape(x, a) × reshape(y, b)` over two fed 12-vectors.
    fn reshaped_matmul(a: [usize; 2], b: [usize; 2]) -> (Graph, [NodeId; 3]) {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[12]);
        let y = g.placeholder("y", &[12]);
        let xr = g.reshape(x, &a).unwrap();
        let yr = g.reshape(y, &b).unwrap();
        let out = g.matmul(xr, yr).unwrap();
        (g, [x, y, out])
    }

    #[test]
    fn the_same_graph_with_other_reshape_targets_replans() {
        // Same op kinds, wiring, leaf shapes and targets: only the
        // reshapes' target shapes differ, and with them the matmul's.
        let ramp12 = |seed| Tensor::from_vec(&[12], (0..12).map(|i| (i * seed) as f32).collect());
        let (vars, pool) = (HashMap::new(), WorkerPool::serial());
        let mut executor = PlannedExecutor::new();
        for (a, b, shape) in [
            ([3, 4], [4, 3], [3, 3]),
            ([6, 2], [2, 6], [6, 6]),
            ([3, 4], [4, 3], [3, 3]),
        ] {
            let (graph, [x, y, out]) = reshaped_matmul(a, b);
            let feeds = HashMap::from([(x, ramp12(1).unwrap()), (y, ramp12(3).unwrap())]);
            let warm = executor.run(&graph, &feeds, &vars, &[out], &pool);
            let fresh = PlannedExecutor::new().run(&graph, &feeds, &vars, &[out], &pool);
            assert_eq!(warm, fresh, "{a:?} x {b:?}");
            assert_eq!(warm.unwrap().0[0].shape(), &shape);
        }
    }

    #[test]
    fn overflowing_shape_product_of_an_inferred_shape_is_a_typed_error() {
        // Every operand exists — they are all empty — but the shape
        // inferred from two of them is not: `[rows, 0] × [0, 2]` has
        // `rows * 2` elements.
        let quarter = usize::MAX / 4 + 1;
        let mut g = Graph::new();
        let tall = g.placeholder("tall", &[usize::MAX, 0]);
        let quarter_tall = g.placeholder("quarter_tall", &[quarter, 0]);
        let b = g.placeholder("b", &[0, 2]);
        let wide = g.placeholder("wide", &[0, usize::MAX]);
        let c = g.constant("c", Tensor::zeros(&[2, 3]));
        let feeds = HashMap::from([
            (tall, Tensor::zeros(&[usize::MAX, 0])),
            (quarter_tall, Tensor::zeros(&[quarter, 0])),
            (b, Tensor::zeros(&[0, 2])),
            (wide, Tensor::zeros(&[0, usize::MAX])),
        ]);
        let cases = [
            // More elements than a `usize` counts,
            (g.matmul(tall, b).unwrap(), "overflows"),
            // a count that fits whose byte size does not,
            (g.matmul(quarter_tall, b).unwrap(), "overflows"),
            // and column counts, which are added, not multiplied.
            (g.concat_cols(wide, wide).unwrap(), "concat_cols"),
        ];
        let (vars, pool) = (HashMap::new(), WorkerPool::serial());
        let mut executor = PlannedExecutor::new();
        for (target, what) in cases {
            match executor.run(&g, &feeds, &vars, &[target], &pool) {
                Err(TensorError::ShapeMismatch {
                    op: "memory_plan",
                    detail,
                }) => {
                    assert!(detail.contains(what), "{detail}");
                }
                other => panic!("{other:?}"),
            }
        }
        // The executor is still usable.
        let small = g.matmul(b, c).unwrap();
        assert_eq!(
            executor.run(&g, &feeds, &vars, &[small], &pool).unwrap().0[0].shape(),
            &[0, 3]
        );
    }

    /// Deterministic, sign-mixed test data.
    fn ramp(shape: &[usize], seed: u32) -> Tensor {
        let len: usize = shape.iter().product();
        let data = (0..len as u32)
            .map(|i| {
                ((i.wrapping_mul(2_654_435_761).wrapping_add(seed) >> 8) % 2001) as f32 * 1e-3 - 1.0
            })
            .collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    fn one_hot(batch: usize, classes: usize) -> Tensor {
        let mut labels = Tensor::zeros(&[batch, classes]);
        for row in 0..batch {
            labels.data_mut()[row * classes + (row * 7 + 3) % classes] = 1.0;
        }
        labels
    }

    /// `conv + bias → relu → max-pool → flatten → dense → xent` over the
    /// image `x`, which is a variable (nothing pruned) or a placeholder.
    fn conv_net(x_value: &Tensor, x_is_variable: bool) -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let x = if x_is_variable {
            g.variable("x", x_value.clone())
        } else {
            g.placeholder("x", x_value.shape())
        };
        let labels = g.placeholder("labels", &[0, 3]);
        let f = g.variable("f", ramp(&[3, 3, 2, 4], 1));
        let fb = g.variable("fb", ramp(&[4], 2));
        let conv = g.conv2d(x, f, Padding::Same).unwrap();
        let conv = g.add_bias(conv, fb).unwrap();
        let act = g.relu(conv).unwrap();
        let pooled = g.max_pool2(act).unwrap();
        let flat = g.flatten(pooled).unwrap();
        let w = g.variable("w", ramp(&[3 * 2 * 4, 3], 3));
        let b = g.variable("b", ramp(&[3], 4));
        let logits = g.matmul(flat, w).unwrap();
        let logits = g.add_bias(logits, b).unwrap();
        let loss = g.softmax_cross_entropy(logits, labels).unwrap();
        (g, x, labels, loss)
    }

    /// A two-layer MLP over `x`, likewise.
    fn mlp(x_value: &Tensor, x_is_variable: bool) -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let x = if x_is_variable {
            g.variable("x", x_value.clone())
        } else {
            g.placeholder("x", x_value.shape())
        };
        let labels = g.placeholder("labels", &[0, 3]);
        let w0 = g.variable("w0", ramp(&[9, 5], 5));
        let b0 = g.variable("b0", ramp(&[5], 6));
        let w1 = g.variable("w1", ramp(&[5, 3], 7));
        let h = g.matmul(x, w0).unwrap();
        let h = g.add_bias(h, b0).unwrap();
        let h = g.relu(h).unwrap();
        let logits = g.matmul(h, w1).unwrap();
        let loss = g.softmax_cross_entropy(logits, labels).unwrap();
        (g, x, labels, loss)
    }

    #[test]
    fn pruning_the_input_gradient_does_not_change_any_variable_gradient() {
        use crate::session::Session;
        type Build = fn(&Tensor, bool) -> (Graph, NodeId, NodeId, NodeId);
        let cases: [(&str, Build, Tensor); 2] = [
            ("conv", conv_net, ramp(&[4, 6, 4, 2], 8)),
            ("mlp", mlp, ramp(&[4, 9], 9)),
        ];
        for (what, build, x_value) in cases {
            let (pruned_graph, x, labels, loss) = build(&x_value, false);
            let (full_graph, ..) = build(&x_value, true);
            let labels_value = one_hot(4, 3);
            for workers in 1..=3 {
                // Through the session, so the fused rules run too.
                let gradients = |graph: &Graph, feeds: &[(NodeId, Tensor)]| {
                    let mut session = Session::new(graph);
                    session.set_worker_pool(WorkerPool::new(workers));
                    let out = session.gradients(graph, feeds, loss).unwrap();
                    (out, session.memory_stats())
                };
                let ((full_loss, full), full_stats) =
                    gradients(&full_graph, &[(labels, labels_value.clone())]);
                let ((pruned_loss, pruned), pruned_stats) = gradients(
                    &pruned_graph,
                    &[(x, x_value.clone()), (labels, labels_value.clone())],
                );
                assert_eq!(
                    full_loss.to_bits(),
                    pruned_loss.to_bits(),
                    "{what}, {workers} workers"
                );
                assert_eq!(
                    full.len(),
                    pruned.len() + 1,
                    "{what}: only x's gradient is gone"
                );
                assert!(full.contains_key(&x) && !pruned.contains_key(&x));
                for (var, grad) in &pruned {
                    let bits =
                        |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(grad),
                        bits(&full[var]),
                        "{what}, {workers} workers, {var:?}"
                    );
                }
                // The labels never had a gradient; x is pruned where it is a placeholder.
                assert_eq!(
                    (full_stats.grads_pruned, pruned_stats.grads_pruned),
                    (0, 1),
                    "{what}"
                );
                assert_eq!(full_stats.grad_slots, pruned_stats.grad_slots + 1, "{what}");
            }
        }
    }

    #[test]
    fn a_gradient_flows_into_the_trainable_side_of_an_add_only() {
        // loss = mse(relu(x) + a * w, t): the Add has a branch fed by a
        // placeholder alone and one with a variable upstream.
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 3]);
        let a = g.placeholder("a", &[0, 3]);
        let t = g.placeholder("t", &[0, 3]);
        let w = g.variable("w", ramp(&[2, 3], 1));
        let frozen = g.relu(x).unwrap();
        let scaled = g.mul(a, w).unwrap();
        let sum = g.add(frozen, scaled).unwrap();
        let loss = g.mse_loss(sum, t).unwrap();
        let feeds = HashMap::from([
            (x, ramp(&[2, 3], 2)),
            (a, ramp(&[2, 3], 3)),
            (t, ramp(&[2, 3], 4)),
        ]);
        let vars = HashMap::from([(w, ramp(&[2, 3], 1))]);
        let mut executor = PlannedExecutor::new();
        let (_, grads, _) = executor
            .train(&g, &feeds, &vars, loss, &WorkerPool::serial())
            .unwrap();

        let plan = executor.mem.plan();
        for (node, wanted) in [
            (x, false),
            (a, false),
            (t, false),
            (frozen, false),
            (w, true),
            (scaled, true),
            (sum, true),
            (loss, true),
        ] {
            assert_eq!(plan.wants_grad(node.0), wanted, "{node:?}");
            assert_eq!(plan.grad_slot(node.0).is_some(), wanted, "{node:?}");
        }
        // x, a and relu(x); the target never had a gradient.
        assert_eq!(executor.memory_stats().grads_pruned, 3);
        assert_eq!(executor.memory_stats().grad_slots, 4);
        // d/dw mean((relu(x) + a*w - t)^2) = 2 * (sum - t) * a / n.
        let (xv, av, tv, wv) = (&feeds[&x], &feeds[&a], &feeds[&t], &vars[&w]);
        assert_eq!(grads.len(), 1);
        for i in 0..6 {
            let sum = xv.data()[i].max(0.0) + av.data()[i] * wv.data()[i];
            let want = (sum - tv.data()[i]) * (2.0 * 1.0 / 6.0) * av.data()[i];
            assert_eq!(grads[&w].data()[i].to_bits(), want.to_bits(), "element {i}");
        }
    }

    #[test]
    fn a_graph_without_variables_has_no_gradients_and_runs_no_backward_kernel() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 4, 4, 1]);
        let t = g.placeholder("t", &[0, 32]);
        let f = g.constant("f", ramp(&[3, 3, 1, 2], 1));
        let conv = g.conv2d(x, f, Padding::Same).unwrap();
        let flat = g.flatten(conv).unwrap();
        let loss = g.mse_loss(flat, t).unwrap();
        let feeds = HashMap::from([(x, ramp(&[1, 4, 4, 1], 2)), (t, ramp(&[1, 32], 3))]);
        let mut executor = PlannedExecutor::new();
        let (loss_value, grads, _) = executor
            .train(&g, &feeds, &HashMap::new(), loss, &WorkerPool::new(2))
            .unwrap();
        assert!(loss_value.is_finite());
        assert!(grads.is_empty());
        let stats = executor.memory_stats();
        // Pruned: loss, flat, conv, x, f.
        assert_eq!((stats.grad_slots, stats.grads_pruned), (0, 5));
        // The forward conv padded its image; neither backward kernel ran.
        assert_eq!(executor.ws.padded.len(), 6 * 6);
        assert!(executor.ws.gcol.is_empty() && executor.ws.filter_t.is_empty());
        // One slot write per forward value (x, t, conv, flat, loss) and
        // none for a gradient, the seed included.
        assert_eq!(executor.take_slot_writes().len(), 5);
    }

    #[test]
    fn a_gradient_the_plan_has_no_slot_for_is_a_typed_error() {
        let x_value = ramp(&[2, 9], 1);
        let (g, x, labels, loss) = mlp(&x_value, false);
        let feeds = HashMap::from([(x, x_value), (labels, one_hot(2, 3))]);
        let session = crate::session::Session::new(&g);
        let vars: HashMap<NodeId, Tensor> = session
            .variables()
            .into_iter()
            .map(|(id, value)| (id, value.clone()))
            .collect();
        let pool = WorkerPool::serial();
        let mut executor = PlannedExecutor::new();
        executor.train(&g, &feeds, &vars, loss, &pool).unwrap();

        // Break the cached plan by hand: it still asks for w0's gradient
        // but no longer has a slot to account it against.
        let w0 = g.by_name("w0").unwrap();
        assert!(executor.mem.plan.wants_grad(w0.0));
        executor.mem.plan.grad_slots[w0.0] = None;
        assert_eq!(
            executor.train(&g, &feeds, &vars, loss, &pool).map(|_| ()),
            Err(TensorError::InvalidGraph("gradient without a planned slot"))
        );
        assert_eq!(executor.memory_stats().resident_bytes, 0);
    }
}
