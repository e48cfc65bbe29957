//! Graph execution: forward evaluation and reverse-mode differentiation.
//!
//! The executor walks the graph in topological order (node order), then —
//! for training — propagates gradients in reverse. Both passes run against
//! a memory plan ([`crate::memory::PlannedExecutor`] is the only entry
//! point): leaves (constants, variables, feeds) are read where they live
//! and never copied, every tensor the passes create draws its buffer from
//! the session arena (as it is: whoever takes a buffer writes all of it),
//! shape-only operands are read from the plan instead of keeping tensors
//! alive, and each value is recycled the moment its planned lifetime
//! ends. A backward rule whose last contribution is an elementwise
//! function of the node's own gradient rewrites that buffer and hands it
//! on (`flow_owned`). Gradients are verified against numerical
//! differentiation in this module's tests.

use crate::graph::{Graph, Node, NodeId, Op, Padding};
use crate::kernels::{self, KernelCost, Panels, TakeBuffer, WorkerPool, Workspace};
use crate::memory::{ExecMemory, Feeds};
use crate::tensor::Tensor;
use crate::TensorError;
use std::collections::HashMap;

/// Per-kernel-family flop attribution within a [`RunStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelFlops {
    /// Flops spent in matrix products.
    pub matmul: f64,
    /// Flops spent in convolution forward/backward kernels.
    pub conv2d: f64,
    /// Flops spent in everything else (element-wise ops, losses, pools).
    pub other: f64,
}

impl KernelFlops {
    fn merge(&mut self, other: KernelFlops) {
        self.matmul += other.matmul;
        self.conv2d += other.conv2d;
        self.other += other.other;
    }

    fn scale(&mut self, factor: f64) {
        self.matmul *= factor;
        self.conv2d *= factor;
        self.other *= factor;
    }
}

/// Resource usage of one graph execution, consumed by the TEE cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Floating-point operations performed (all workers summed).
    pub flops: f64,
    /// Flops on the longest worker chain — what the run costs in
    /// (virtual) time when pooled kernels split the work. Equals `flops`
    /// for serial execution.
    pub critical_flops: f64,
    /// Attribution of `flops` to kernel families.
    pub kernel_flops: KernelFlops,
    /// Bytes of activations produced.
    pub activation_bytes: u64,
}

impl RunStats {
    /// Merges another run's stats into this one.
    pub fn merge(&mut self, other: RunStats) {
        self.flops += other.flops;
        self.critical_flops += other.critical_flops;
        self.kernel_flops.merge(other.kernel_flops);
        self.activation_bytes += other.activation_bytes;
    }

    /// Multiplies every compute field by `factor` — e.g. the usual
    /// "backward ≈ 2× forward" training heuristic.
    pub fn scale_compute(&mut self, factor: f64) {
        self.flops *= factor;
        self.critical_flops *= factor;
        self.kernel_flops.scale(factor);
    }

    /// Rescales the compute fields so `flops == target`, preserving the
    /// critical-path ratio and per-kernel attribution (used when a model
    /// declares authoritative flop counts).
    pub fn rescale_flops(&mut self, target: f64) {
        if self.flops > 0.0 {
            self.scale_compute(target / self.flops);
        } else {
            self.critical_flops = target;
            self.kernel_flops.other = target;
        }
        self.flops = target;
    }

    /// The difference `self - earlier` — the usage accrued since the
    /// `earlier` snapshot was taken.
    #[must_use]
    pub fn since(&self, earlier: &RunStats) -> RunStats {
        RunStats {
            flops: self.flops - earlier.flops,
            critical_flops: self.critical_flops - earlier.critical_flops,
            kernel_flops: KernelFlops {
                matmul: self.kernel_flops.matmul - earlier.kernel_flops.matmul,
                conv2d: self.kernel_flops.conv2d - earlier.kernel_flops.conv2d,
                other: self.kernel_flops.other - earlier.kernel_flops.other,
            },
            activation_bytes: self
                .activation_bytes
                .saturating_sub(earlier.activation_bytes),
        }
    }

    /// A serial op: total and critical flops coincide.
    pub(crate) fn charge_serial(&mut self, flops: f64) {
        self.flops += flops;
        self.critical_flops += flops;
        self.kernel_flops.other += flops;
    }

    pub(crate) fn charge_matmul(&mut self, cost: KernelCost) {
        self.flops += cost.flops;
        self.critical_flops += cost.critical_flops;
        self.kernel_flops.matmul += cost.flops;
    }

    pub(crate) fn charge_conv(&mut self, cost: KernelCost) {
        self.flops += cost.flops;
        self.critical_flops += cost.critical_flops;
        self.kernel_flops.conv2d += cost.flops;
    }
}

pub(crate) fn needed_set(graph: &Graph, targets: &[NodeId]) -> Result<Vec<bool>, TensorError> {
    let mut needed = vec![false; graph.len()];
    let mut stack: Vec<NodeId> = targets.to_vec();
    while let Some(id) = stack.pop() {
        if id.0 >= graph.len() {
            return Err(TensorError::UnknownNode);
        }
        if needed[id.0] {
            continue;
        }
        needed[id.0] = true;
        stack.extend(graph.node(id)?.op.inputs());
    }
    Ok(needed)
}

pub(crate) fn feed_matches_template(template: &[usize], shape: &[usize]) -> bool {
    template.len() == shape.len()
        && template
            .iter()
            .zip(shape.iter())
            .all(|(&t, &s)| t == 0 || t == s)
}

/// The tensor fed to placeholder `id`, checked against its shape
/// `template` (the one place the two [`TensorError::BadFeed`] conditions
/// are written down; the planner and the executor both call it).
pub(crate) fn checked_feed<'f, F: Feeds + ?Sized>(
    feeds: &'f F,
    id: NodeId,
    name: &str,
    template: &[usize],
) -> Result<&'f Tensor, TensorError> {
    let fed = feeds
        .feed(id)
        .ok_or_else(|| TensorError::BadFeed(format!("placeholder '{name}' not fed")))?;
    if !feed_matches_template(template, fed.shape()) {
        return Err(TensorError::BadFeed(format!(
            "placeholder '{name}' expects {template:?}, fed {:?}",
            fed.shape()
        )));
    }
    Ok(fed)
}

/// The tensors a run reads but does not own: constants live in the
/// graph, variables with the session, feeds with the caller. Both passes
/// resolve leaf operands through this, by reference; nothing model-sized
/// is ever copied into the run.
pub(crate) struct Leaves<'a, F: Feeds + ?Sized> {
    pub graph: &'a Graph,
    pub feeds: &'a F,
    pub vars: &'a HashMap<NodeId, Tensor>,
}

impl<'a, F: Feeds + ?Sized> Leaves<'a, F> {
    /// The tensor leaf `id` stands for; `None` for computed nodes and
    /// for leaves nobody supplied.
    fn get(&self, id: NodeId) -> Option<&'a Tensor> {
        match &self.graph.nodes().get(id.0)?.op {
            Op::Constant(t) => Some(t),
            Op::Variable { .. } => self.vars.get(&id),
            Op::Placeholder { .. } => self.feeds.feed(id),
            _ => None,
        }
    }

    /// The panels of [`Op::PackedConstant`] `id`, which only a matmul's
    /// right operand reads, and only through here ([`Leaves::get`] has no
    /// tensor for it).
    fn panels(&self, id: NodeId) -> Option<&'a Panels> {
        match &self.graph.nodes().get(id.0)?.op {
            Op::PackedConstant(panels) => Some(panels),
            _ => None,
        }
    }

    /// [`Leaves::get`] with the checks that belong to the leaf's own
    /// forward step.
    fn checked(&self, id: NodeId, node: &'a Node) -> Result<&'a Tensor, TensorError> {
        match &node.op {
            Op::Placeholder { shape } => checked_feed(self.feeds, id, &node.name, shape),
            // A constant is always there; only a variable can be missing.
            _ => self
                .get(id)
                .ok_or(TensorError::InvalidGraph("variable without session value")),
        }
    }

    /// The value of node `id` during a run: the computed intermediate in
    /// `values`, or the leaf read in place.
    pub(crate) fn operand<'v>(&self, values: &'v [Option<Tensor>], id: NodeId) -> Option<&'v Tensor>
    where
        'a: 'v,
    {
        match values.get(id.0)? {
            Some(value) => Some(value),
            None => self.get(id),
        }
    }
}

/// Evaluates every `needed` node, executing into planned arena slots.
/// `values` must be cleared and resized to the graph's length by the
/// caller; computed intermediates land there so the backward pass (and
/// fetch cloning) can read them. Leaves are checked and accounted at
/// their own step but stay where they live.
///
/// # Errors
///
/// * [`TensorError::BadFeed`] for missing or mis-shaped placeholder feeds.
/// * [`TensorError::ShapeMismatch`] for incompatible operand shapes.
/// * [`TensorError::InvalidGraph`] for a variable with no session value.
pub(crate) fn forward<F: Feeds + ?Sized>(
    leaves: &Leaves<'_, F>,
    needed: &[bool],
    pool: &WorkerPool,
    ws: &mut Workspace,
    mem: &mut ExecMemory,
    values: &mut [Option<Tensor>],
) -> Result<RunStats, TensorError> {
    let mut stats = RunStats::default();
    for (index, node) in leaves.graph.nodes().iter().enumerate() {
        if !needed[index] {
            continue;
        }
        let id = NodeId(index);
        let get = |nid: NodeId| -> &Tensor {
            leaves
                .operand(values, nid)
                .expect("inputs precede node in topological order")
        };
        let value = match &node.op {
            Op::Placeholder { .. } | Op::Variable { .. } | Op::Constant(_) => {
                let leaf = leaves.checked(id, node)?;
                stats.activation_bytes += leaf.byte_len();
                mem.on_value(index, leaf)?;
                mem.drop_dead_values(index, values);
                continue;
            }
            Op::PackedConstant(panels) => {
                // Read in place by its one consumer, below; no slot.
                stats.activation_bytes += panels.byte_len();
                mem.drop_dead_values(index, values);
                continue;
            }
            Op::MatMul(a, b) => {
                let ta = get(*a);
                let take = &mut |len| mem.take(len);
                let (out, cost) = match leaves.panels(*b) {
                    Some(panels) => kernels::matmul_panels_with(pool, ta, panels, None, take)?,
                    None => kernels::matmul_with(pool, ta, get(*b), take)?,
                };
                stats.charge_matmul(cost);
                out
            }
            Op::AddBias(x, bias) => {
                let (tx, tb) = (get(*x), get(*bias));
                add_bias(mem, tx, tb)?
            }
            Op::Add(a, b) => {
                stats.charge_serial(get(*a).len() as f64);
                zip(mem, get(*a), get(*b), |x, y| x + y)?
            }
            Op::Mul(a, b) => {
                stats.charge_serial(get(*a).len() as f64);
                zip(mem, get(*a), get(*b), |x, y| x * y)?
            }
            Op::Relu(x) => {
                stats.charge_serial(get(*x).len() as f64);
                map(mem, get(*x), |v| v.max(0.0))
            }
            Op::Softmax(x) => {
                let t = get(*x);
                stats.charge_serial(5.0 * t.len() as f64);
                softmax(mem, t)?
            }
            Op::Conv2d {
                input,
                filter,
                padding,
            } => {
                let (ti, tf) = (get(*input), get(*filter));
                let (out, cost) =
                    kernels::conv2d_with(pool, ws, ti, tf, *padding, &mut |len| mem.take(len))?;
                stats.charge_conv(cost);
                out
            }
            Op::MaxPool2(x) => {
                stats.charge_serial(get(*x).len() as f64);
                kernels::max_pool2_with(get(*x), &mut |len| mem.take(len))?
            }
            Op::Flatten(x) => {
                let t = get(*x);
                let batch = *t.shape().first().unwrap_or(&1);
                let rest = t.len() / batch.max(1);
                reshaped(mem, t, &[batch, rest])?
            }
            Op::Reshape(x, shape) => reshaped(mem, get(*x), shape)?,
            Op::SoftmaxCrossEntropy { logits, labels } => {
                let (tl, ty) = (get(*logits), get(*labels));
                stats.charge_serial(8.0 * tl.len() as f64);
                softmax_cross_entropy(mem, tl, ty)?
            }
            Op::MseLoss(p, t) => {
                let (tp, tt) = (get(*p), get(*t));
                stats.charge_serial(3.0 * tp.len() as f64);
                mse_loss(mem, tp, tt)?
            }
            Op::Sub(a, b) => {
                stats.charge_serial(get(*a).len() as f64);
                zip(mem, get(*a), get(*b), |x, y| x - y)?
            }
            Op::Scale(x, factor) => {
                let f = *factor;
                stats.charge_serial(get(*x).len() as f64);
                map(mem, get(*x), |v| v * f)
            }
            Op::Sigmoid(x) => {
                stats.charge_serial(4.0 * get(*x).len() as f64);
                map(mem, get(*x), |v| 1.0 / (1.0 + (-v).exp()))
            }
            Op::Tanh(x) => {
                stats.charge_serial(4.0 * get(*x).len() as f64);
                map(mem, get(*x), f32::tanh)
            }
            Op::AvgPool2(x) => {
                stats.charge_serial(get(*x).len() as f64);
                avg_pool2(mem, get(*x))?
            }
            Op::ConcatCols(a, b) => concat_cols(mem, get(*a), get(*b))?,
            Op::FusedMatMul {
                lhs,
                rhs,
                bias,
                relu,
            } => {
                let (tl, tb) = (get(*lhs), get(*bias));
                let take = &mut |len| mem.take(len);
                let (out, cost) = match leaves.panels(*rhs) {
                    Some(panels) => {
                        kernels::matmul_panels_with(pool, tl, panels, Some((tb, *relu)), take)?
                    }
                    None => kernels::matmul_bias_relu_with(pool, tl, get(*rhs), tb, *relu, take)?,
                };
                stats.charge_matmul(cost);
                out
            }
            Op::FusedConv2d {
                input,
                filter,
                bias,
                padding,
                relu,
            } => {
                let (ti, tf, tb) = (get(*input), get(*filter), get(*bias));
                let (out, cost) = kernels::conv2d_bias_relu_with(
                    pool,
                    ws,
                    ti,
                    tf,
                    tb,
                    *padding,
                    *relu,
                    &mut |len| mem.take(len),
                )?;
                stats.charge_conv(cost);
                out
            }
        };
        stats.activation_bytes += value.byte_len();
        mem.on_value(index, &value)?;
        values[index] = Some(value);
        mem.drop_dead_values(index, values);
    }
    Ok(stats)
}

/// Accumulates gradient `g` into `nid`'s entry: in-place add on merge
/// (recycling `g`'s buffer), arena bookkeeping on first insert.
fn accumulate(
    grads: &mut HashMap<NodeId, Tensor>,
    mem: &mut ExecMemory,
    nid: NodeId,
    g: Tensor,
) -> Result<(), TensorError> {
    match grads.get_mut(&nid) {
        Some(existing) => {
            same_shape(existing, &g)?;
            for (a, &b) in existing.data_mut().iter_mut().zip(g.data()) {
                *a += b;
            }
            mem.recycle(g);
        }
        None => {
            mem.on_grad(nid.0, &g)?;
            grads.insert(nid, g);
        }
    }
    Ok(())
}

/// One operand's share of a backward rule: computes the contribution and
/// accumulates it into `nid` — if the plan wants `nid`'s gradient at all
/// ([`crate::memory::MemoryPlan::wants_grad`]). A contribution nothing
/// would consume is never computed.
fn flow(
    grads: &mut HashMap<NodeId, Tensor>,
    mem: &mut ExecMemory,
    nid: NodeId,
    contribution: impl FnOnce(&mut ExecMemory) -> Result<Tensor, TensorError>,
) -> Result<(), TensorError> {
    if mem.plan().wants_grad(nid.0) {
        let g = contribution(mem)?;
        accumulate(grads, mem, nid, g)?;
    }
    Ok(())
}

/// [`flow`] for a rule's *last* contribution when it is an elementwise
/// function of the node's own gradient: `rewrite` turns `grad`'s buffer
/// into the contribution in place and the buffer itself is handed on to
/// `nid`. Returns the gradient if the plan does not want `nid`'s. Only
/// the buffer changes hands: `nid`'s slot goes live in [`accumulate`],
/// the node's own is released by the caller, as if it had been a copy.
fn flow_owned(
    grads: &mut HashMap<NodeId, Tensor>,
    mem: &mut ExecMemory,
    nid: NodeId,
    mut grad: Tensor,
    rewrite: impl FnOnce(&mut Tensor) -> Result<(), TensorError>,
) -> Result<Option<Tensor>, TensorError> {
    if !mem.plan().wants_grad(nid.0) {
        return Ok(Some(grad));
    }
    rewrite(&mut grad)?;
    accumulate(grads, mem, nid, grad)?;
    Ok(None)
}

/// Computes gradients of the scalar `loss` over a completed forward pass:
/// gradients and every temporary draw buffers from the arena, leaf
/// operands are read in place, shape-only operands come from the plan,
/// forward values are recycled at their last backward reader, and
/// non-variable gradients are recycled right after their node's rule
/// fires. Only the gradients the plan wants are computed — those with a
/// variable upstream — so a graph without variables runs no rule at all.
/// Returns exactly the variable gradients (what the optimizer consumes)
/// — the only buffers that leave the arena.
///
/// # Errors
///
/// * [`TensorError::InvalidGraph`] if `loss` is not a scalar or was not
///   computed by the forward pass.
pub(crate) fn backward<F: Feeds + ?Sized>(
    leaves: &Leaves<'_, F>,
    values: &mut [Option<Tensor>],
    loss: NodeId,
    pool: &WorkerPool,
    ws: &mut Workspace,
    mem: &mut ExecMemory,
) -> Result<HashMap<NodeId, Tensor>, TensorError> {
    let loss_value = leaves
        .operand(values, loss)
        .ok_or(TensorError::InvalidGraph("loss not computed by forward"))?;
    if loss_value.len() != 1 {
        return Err(TensorError::InvalidGraph("loss must be scalar"));
    }
    let mut grads: HashMap<NodeId, Tensor> = HashMap::new();
    let loss_shape = loss_value.shape().to_vec();
    flow(&mut grads, mem, loss, |mem| {
        let mut seed = mem.tensor(&loss_shape);
        seed.data_mut().fill(1.0);
        Ok(seed)
    })?;

    for index in (0..=loss.0).rev() {
        let id = NodeId(index);
        let node = leaves.graph.node(id)?;
        // Variable gradients stay in the map for the optimizer; everything
        // else is removed (not cloned), used, and recycled below.
        let grad = if matches!(node.op, Op::Variable { .. }) {
            None
        } else {
            grads.remove(&id)
        };
        if let Some(grad) = grad {
            let grads = &mut grads;
            let value_of = |nid: NodeId| -> Result<&Tensor, TensorError> {
                leaves
                    .operand(values, nid)
                    .ok_or(TensorError::InvalidGraph("missing forward value"))
            };
            // The node's own forward output (the s·(1-s)-style rules and
            // the fused-relu mask read it).
            let output = || {
                values
                    .get(index)
                    .and_then(Option::as_ref)
                    .ok_or(TensorError::InvalidGraph("missing forward output"))
            };
            let shape_of = |mem: &ExecMemory, nid: NodeId| mem.plan().shape(nid.0).to_vec();
            // Each rule evaluates to the gradient buffer it still owns,
            // or `None` once `flow_owned` has handed it on.
            let left = match &node.op {
                Op::Placeholder { .. }
                | Op::Variable { .. }
                | Op::Constant(_)
                | Op::PackedConstant(_) => Some(grad),
                Op::MatMul(a, b) => {
                    flow(grads, mem, *a, |mem| {
                        matmul_grad_lhs(pool, mem, &grad, value_of(*b)?)
                    })?;
                    flow(grads, mem, *b, |mem| {
                        matmul_grad_rhs(pool, mem, value_of(*a)?, &grad)
                    })?;
                    Some(grad)
                }
                Op::AddBias(x, bias) => {
                    // The column sum reads the gradient before `x` takes
                    // the buffer over, and lands after it, as it always did.
                    let bias_grad = mem.plan().wants_grad(bias.0).then(|| {
                        let bias_shape = shape_of(mem, *bias);
                        column_sum(mem, &grad, &bias_shape)
                    });
                    let left = flow_owned(grads, mem, *x, grad, |_| Ok(()))?;
                    if let Some(bias_grad) = bias_grad {
                        accumulate(grads, mem, *bias, bias_grad)?;
                    }
                    left
                }
                Op::Add(a, b) => {
                    flow(grads, mem, *a, |mem| Ok(copy(mem, &grad)))?;
                    flow_owned(grads, mem, *b, grad, |_| Ok(()))?
                }
                Op::Mul(a, b) => {
                    flow(grads, mem, *a, |mem| {
                        zip(mem, &grad, value_of(*b)?, |g, v| g * v)
                    })?;
                    flow(grads, mem, *b, |mem| {
                        zip(mem, &grad, value_of(*a)?, |g, v| g * v)
                    })?;
                    Some(grad)
                }
                Op::Relu(x) => flow_owned(grads, mem, *x, grad, |g| {
                    zip_in_place(g, value_of(*x)?, relu_mask)
                })?,
                Op::Softmax(x) => {
                    flow(grads, mem, *x, |mem| softmax_grad(mem, output()?, &grad))?;
                    Some(grad)
                }
                Op::Conv2d {
                    input,
                    filter,
                    padding,
                } => {
                    conv2d_backward(
                        grads,
                        mem,
                        pool,
                        ws,
                        (*input, *filter),
                        &grad,
                        *padding,
                        &value_of,
                    )?;
                    Some(grad)
                }
                Op::MaxPool2(x) => {
                    flow(grads, mem, *x, |mem| {
                        kernels::max_pool2_grad_with(value_of(*x)?, &grad, &mut |len| mem.take(len))
                    })?;
                    Some(grad)
                }
                Op::Flatten(x) | Op::Reshape(x, _) => {
                    let x_shape = shape_of(mem, *x);
                    flow_owned(grads, mem, *x, grad, |g| reshape_in_place(g, &x_shape))?
                }
                Op::SoftmaxCrossEntropy { logits, labels } => {
                    flow(grads, mem, *logits, |mem| {
                        let (tl, ty) = (value_of(*logits)?, value_of(*labels)?);
                        let scale = grad.data()[0] / tl.shape()[0] as f32;
                        let mut gl = softmax(mem, tl)?;
                        zip_in_place(&mut gl, ty, |p, y| (p - y) * scale)?;
                        Ok(gl)
                    })?;
                    Some(grad)
                }
                Op::MseLoss(p, t) => {
                    flow(grads, mem, *p, |mem| {
                        let (tp, tt) = (value_of(*p)?, value_of(*t)?);
                        let n = tp.len() as f32;
                        let scale = 2.0 * grad.data()[0] / n;
                        zip(mem, tp, tt, |a, b| (a - b) * scale)
                    })?;
                    Some(grad)
                }
                Op::Sub(a, b) => {
                    flow(grads, mem, *a, |mem| Ok(copy(mem, &grad)))?;
                    flow_owned(grads, mem, *b, grad, |g| map_in_place(g, |g| -g))?
                }
                Op::Scale(x, factor) => {
                    let f = *factor;
                    flow_owned(grads, mem, *x, grad, |g| map_in_place(g, |g| g * f))?
                }
                Op::Sigmoid(x) => flow_owned(grads, mem, *x, grad, |g| {
                    zip_in_place(g, output()?, |g, sv| g * sv * (1.0 - sv))
                })?,
                Op::Tanh(x) => flow_owned(grads, mem, *x, grad, |g| {
                    zip_in_place(g, output()?, |g, tv| g * (1.0 - tv * tv))
                })?,
                Op::AvgPool2(x) => {
                    flow(grads, mem, *x, |mem| {
                        let x_shape = shape_of(mem, *x);
                        avg_pool2_grad(mem, &x_shape, &grad)
                    })?;
                    Some(grad)
                }
                Op::ConcatCols(a, b) => {
                    let a_cols = mem.plan().shape(a.0).get(1).copied().unwrap_or(0);
                    flow(grads, mem, *a, |mem| {
                        let a_shape = shape_of(mem, *a);
                        column_range(mem, &grad, 0, &a_shape)
                    })?;
                    flow(grads, mem, *b, |mem| {
                        let b_shape = shape_of(mem, *b);
                        column_range(mem, &grad, a_cols, &b_shape)
                    })?;
                    Some(grad)
                }
                Op::FusedMatMul {
                    lhs,
                    rhs,
                    bias,
                    relu,
                } => {
                    // `relu(pre) > 0 ⟺ pre > 0`, so masking on the fused
                    // output is bit-identical to the unfused relu backward's
                    // mask on the never-materialized pre-activation. The
                    // node's own gradient becomes `dpre` where it lies.
                    let mut dpre = grad;
                    if *relu {
                        zip_in_place(&mut dpre, output()?, relu_mask)?;
                    }
                    // Unfused order: add_bias's bias grad lands before the
                    // matmul grads, so aliased inputs accumulate identically.
                    flow(grads, mem, *bias, |mem| {
                        let bias_shape = shape_of(mem, *bias);
                        Ok(column_sum(mem, &dpre, &bias_shape))
                    })?;
                    flow(grads, mem, *lhs, |mem| {
                        matmul_grad_lhs(pool, mem, &dpre, value_of(*rhs)?)
                    })?;
                    flow(grads, mem, *rhs, |mem| {
                        matmul_grad_rhs(pool, mem, value_of(*lhs)?, &dpre)
                    })?;
                    Some(dpre)
                }
                Op::FusedConv2d {
                    input,
                    filter,
                    bias,
                    padding,
                    relu,
                } => {
                    let mut dpre = grad;
                    if *relu {
                        zip_in_place(&mut dpre, output()?, relu_mask)?;
                    }
                    flow(grads, mem, *bias, |mem| {
                        let bias_shape = shape_of(mem, *bias);
                        Ok(column_sum(mem, &dpre, &bias_shape))
                    })?;
                    conv2d_backward(
                        grads,
                        mem,
                        pool,
                        ws,
                        (*input, *filter),
                        &dpre,
                        *padding,
                        &value_of,
                    )?;
                    Some(dpre)
                }
            };
            mem.release_grad(index, left);
        }
        mem.drop_dead_values(2 * loss.0 + 1 - index, values);
    }
    Ok(grads)
}

/// The conv rules' two operand gradients, each its own kernel: the input
/// gradient reads the filter's values and the filter gradient the
/// input's, so a pruned side costs nothing.
#[allow(clippy::too_many_arguments)]
fn conv2d_backward<'v>(
    grads: &mut HashMap<NodeId, Tensor>,
    mem: &mut ExecMemory,
    pool: &WorkerPool,
    ws: &mut Workspace,
    (input, filter): (NodeId, NodeId),
    grad: &Tensor,
    padding: Padding,
    value_of: &impl Fn(NodeId) -> Result<&'v Tensor, TensorError>,
) -> Result<(), TensorError> {
    flow(grads, mem, input, |mem| {
        let input_shape = mem.plan().shape(input.0).to_vec();
        let tf = value_of(filter)?;
        let take: TakeBuffer<'_> = &mut |len| mem.take(len);
        Ok(kernels::conv2d_grad_input(pool, ws, &input_shape, tf, grad, padding, take)?.0)
    })?;
    flow(grads, mem, filter, |mem| {
        let filter_shape = mem.plan().shape(filter.0).to_vec();
        let ti = value_of(input)?;
        let take: TakeBuffer<'_> = &mut |len| mem.take(len);
        Ok(kernels::conv2d_grad_filter(pool, ws, ti, &filter_shape, grad, padding, take)?.0)
    })
}

// ---- kernels ---------------------------------------------------------------
//
// Every tensor created below draws its buffer from the arena, so every
// buffer the passes recycle was taken from the pool first and the pool
// cannot grow from run to run. A producer that writes every element of
// its output takes the buffer as it is (`ExecMemory::tensor`); the few
// that accumulate start from `ExecMemory::zeros`.

/// `f` applied elementwise.
fn map(mem: &mut ExecMemory, x: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = mem.tensor(x.shape());
    for (o, &v) in out.data_mut().iter_mut().zip(x.data()) {
        *o = f(v);
    }
    out
}

/// `x = f(x)` elementwise (infallible; a `Result` to fit [`flow_owned`]).
fn map_in_place(x: &mut Tensor, f: impl Fn(f32) -> f32) -> Result<(), TensorError> {
    for v in x.data_mut() {
        *v = f(*v);
    }
    Ok(())
}

/// The elementwise ops' operand check.
fn same_shape(a: &Tensor, b: &Tensor) -> Result<(), TensorError> {
    if a.shape() == b.shape() {
        Ok(())
    } else {
        Err(TensorError::ShapeMismatch {
            op: "zip",
            detail: format!("{:?} vs {:?}", a.shape(), b.shape()),
        })
    }
}

/// `f` applied elementwise to two same-shape tensors.
fn zip(
    mem: &mut ExecMemory,
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor, TensorError> {
    same_shape(a, b)?;
    let mut out = mem.tensor(a.shape());
    for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = f(x, y);
    }
    Ok(out)
}

/// `a = f(a, b)` elementwise for two same-shape tensors.
fn zip_in_place(
    a: &mut Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Result<(), TensorError> {
    same_shape(a, b)?;
    for (x, &y) in a.data_mut().iter_mut().zip(b.data()) {
        *x = f(*x, y);
    }
    Ok(())
}

/// The relu backward rule: the gradient passes where the forward value
/// was positive.
fn relu_mask(g: f32, v: f32) -> f32 {
    if v > 0.0 {
        g
    } else {
        0.0
    }
}

/// `x`'s data under a new shape of equal element count.
fn reshaped(mem: &mut ExecMemory, x: &Tensor, shape: &[usize]) -> Result<Tensor, TensorError> {
    let mut out = copy(mem, x);
    reshape_in_place(&mut out, shape)?;
    Ok(out)
}

/// `x`'s own buffer under a new shape of equal element count.
fn reshape_in_place(x: &mut Tensor, shape: &[usize]) -> Result<(), TensorError> {
    if crate::tensor::checked_elements(shape) != Some(x.len()) {
        return Err(TensorError::ShapeMismatch {
            op: "reshape",
            detail: format!("{:?} -> {shape:?}", x.shape()),
        });
    }
    *x = Tensor::from_vec(shape, std::mem::take(x).into_data())?;
    Ok(())
}

fn copy(mem: &mut ExecMemory, x: &Tensor) -> Tensor {
    let mut out = mem.tensor(x.shape());
    out.data_mut().copy_from_slice(x.data());
    out
}

/// Transpose of a rank-2 tensor.
fn transposed(mem: &mut ExecMemory, x: &Tensor) -> Result<Tensor, TensorError> {
    let &[m, n] = x.shape() else {
        return Err(TensorError::ShapeMismatch {
            op: "transpose",
            detail: format!("{:?} (need rank 2)", x.shape()),
        });
    };
    let mut out = mem.tensor(&[n, m]);
    let (od, xd) = (out.data_mut(), x.data());
    for i in 0..m {
        for j in 0..n {
            od[j * m + i] = xd[i * n + j];
        }
    }
    Ok(out)
}

/// `grad × rhsᵀ`: a product's gradient with respect to its left operand.
fn matmul_grad_lhs(
    pool: &WorkerPool,
    mem: &mut ExecMemory,
    grad: &Tensor,
    rhs: &Tensor,
) -> Result<Tensor, TensorError> {
    let rhs_t = transposed(mem, rhs)?;
    let product = kernels::matmul_with(pool, grad, &rhs_t, &mut |len| mem.take(len));
    mem.recycle(rhs_t);
    Ok(product?.0)
}

/// `lhsᵀ × grad`: a product's gradient with respect to its right operand.
/// `lhs` is `lhsᵀ` stored transposed, which the GEMM packs as it lies.
fn matmul_grad_rhs(
    pool: &WorkerPool,
    mem: &mut ExecMemory,
    lhs: &Tensor,
    grad: &Tensor,
) -> Result<Tensor, TensorError> {
    Ok(kernels::matmul_lhs_t_with(pool, lhs, grad, &mut |len| mem.take(len))?.0)
}

fn add_bias(mem: &mut ExecMemory, x: &Tensor, bias: &Tensor) -> Result<Tensor, TensorError> {
    let n = *x.shape().last().ok_or(TensorError::ShapeMismatch {
        op: "add_bias",
        detail: "scalar input".to_string(),
    })?;
    if bias.shape() != [n] {
        return Err(TensorError::ShapeMismatch {
            op: "add_bias",
            detail: format!("x {:?} bias {:?}", x.shape(), bias.shape()),
        });
    }
    let mut out = mem.tensor(x.shape());
    for (i, (o, &v)) in out.data_mut().iter_mut().zip(x.data()).enumerate() {
        *o = v + bias.data()[i % n];
    }
    Ok(out)
}

fn column_sum(mem: &mut ExecMemory, grad: &Tensor, bias_shape: &[usize]) -> Tensor {
    let n = bias_shape[0];
    let mut out = mem.zeros(bias_shape);
    for (i, &g) in grad.data().iter().enumerate() {
        out.data_mut()[i % n] += g;
    }
    out
}

fn softmax(mem: &mut ExecMemory, x: &Tensor) -> Result<Tensor, TensorError> {
    let &[m, n] = x.shape() else {
        return Err(TensorError::ShapeMismatch {
            op: "softmax",
            detail: format!("{:?} (need rank 2)", x.shape()),
        });
    };
    let mut out = copy(mem, x);
    for i in 0..m {
        let row = &mut out.data_mut()[i * n..(i + 1) * n];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    Ok(out)
}

fn softmax_grad(mem: &mut ExecMemory, s: &Tensor, grad: &Tensor) -> Result<Tensor, TensorError> {
    let &[m, n] = s.shape() else {
        return Err(TensorError::ShapeMismatch {
            op: "softmax_grad",
            detail: format!("{:?}", s.shape()),
        });
    };
    let mut out = mem.tensor(s.shape());
    for i in 0..m {
        let srow = &s.data()[i * n..(i + 1) * n];
        let grow = &grad.data()[i * n..(i + 1) * n];
        let dot: f32 = srow.iter().zip(grow.iter()).map(|(&a, &b)| a * b).sum();
        let orow = &mut out.data_mut()[i * n..(i + 1) * n];
        for j in 0..n {
            orow[j] = srow[j] * (grow[j] - dot);
        }
    }
    Ok(out)
}

/// A scalar (`[]`-shaped) tensor holding `value`.
fn scalar(mem: &mut ExecMemory, value: f32) -> Tensor {
    let mut out = mem.tensor(&[]);
    out.data_mut()[0] = value;
    out
}

fn softmax_cross_entropy(
    mem: &mut ExecMemory,
    logits: &Tensor,
    labels: &Tensor,
) -> Result<Tensor, TensorError> {
    if logits.shape() != labels.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "softmax_xent",
            detail: format!("{:?} vs {:?}", logits.shape(), labels.shape()),
        });
    }
    let &[m, n] = logits.shape() else {
        return Err(TensorError::ShapeMismatch {
            op: "softmax_xent",
            detail: format!("{:?} (need rank 2)", logits.shape()),
        });
    };
    let mut total = 0.0f32;
    for i in 0..m {
        let row = &logits.data()[i * n..(i + 1) * n];
        let yrow = &labels.data()[i * n..(i + 1) * n];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
        for j in 0..n {
            if yrow[j] != 0.0 {
                total += yrow[j] * (log_sum - row[j]);
            }
        }
    }
    Ok(scalar(mem, total / m as f32))
}

/// Mean squared difference; the squares are summed in element order
/// without materializing the difference.
fn mse_loss(mem: &mut ExecMemory, p: &Tensor, t: &Tensor) -> Result<Tensor, TensorError> {
    same_shape(p, t)?;
    let squares = p.data().iter().zip(t.data()).map(|(&a, &b)| {
        let d = a - b;
        d * d
    });
    Ok(scalar(mem, squares.sum::<f32>() / p.len() as f32))
}

fn avg_pool2(mem: &mut ExecMemory, x: &Tensor) -> Result<Tensor, TensorError> {
    let &[b, h, w, c] = x.shape() else {
        return Err(TensorError::ShapeMismatch {
            op: "avg_pool2",
            detail: format!("{:?} (need NHWC)", x.shape()),
        });
    };
    let (oh, ow) = (h / 2, w / 2);
    let mut out = mem.tensor(&[b, oh, ow, c]);
    let xd = x.data();
    for bi in 0..b {
        for oy in 0..oh {
            for ox in 0..ow {
                for ci in 0..c {
                    let mut sum = 0.0f32;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            sum += xd[((bi * h + oy * 2 + dy) * w + ox * 2 + dx) * c + ci];
                        }
                    }
                    out.data_mut()[((bi * oh + oy) * ow + ox) * c + ci] = sum / 4.0;
                }
            }
        }
    }
    Ok(out)
}

fn avg_pool2_grad(
    mem: &mut ExecMemory,
    in_shape: &[usize],
    grad: &Tensor,
) -> Result<Tensor, TensorError> {
    let &[b, h, w, c] = in_shape else {
        return Err(TensorError::ShapeMismatch {
            op: "avg_pool2_grad",
            detail: format!("{in_shape:?}"),
        });
    };
    let (oh, ow) = (h / 2, w / 2);
    let mut gx = mem.zeros(in_shape);
    for bi in 0..b {
        for oy in 0..oh {
            for ox in 0..ow {
                for ci in 0..c {
                    let g = grad.data()[((bi * oh + oy) * ow + ox) * c + ci] / 4.0;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            gx.data_mut()[((bi * h + oy * 2 + dy) * w + ox * 2 + dx) * c + ci] += g;
                        }
                    }
                }
            }
        }
    }
    Ok(gx)
}

fn concat_cols(mem: &mut ExecMemory, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (&[m1, n1], &[m2, n2]) = (a.shape(), b.shape()) else {
        return Err(TensorError::ShapeMismatch {
            op: "concat_cols",
            detail: format!("{:?} ++ {:?} (need rank 2)", a.shape(), b.shape()),
        });
    };
    if m1 != m2 {
        return Err(TensorError::ShapeMismatch {
            op: "concat_cols",
            detail: format!("row counts {m1} vs {m2}"),
        });
    }
    let mut out = mem.tensor(&[m1, n1 + n2]);
    for i in 0..m1 {
        out.data_mut()[i * (n1 + n2)..i * (n1 + n2) + n1]
            .copy_from_slice(&a.data()[i * n1..(i + 1) * n1]);
        out.data_mut()[i * (n1 + n2) + n1..(i + 1) * (n1 + n2)]
            .copy_from_slice(&b.data()[i * n2..(i + 1) * n2]);
    }
    Ok(out)
}

/// `grad`'s columns `first..first + shape[1]` as a tensor of `shape`: one
/// operand's share of a `ConcatCols` gradient.
fn column_range(
    mem: &mut ExecMemory,
    grad: &Tensor,
    first: usize,
    shape: &[usize],
) -> Result<Tensor, TensorError> {
    let (&[m, n], &[gm, total]) = (shape, grad.shape()) else {
        return Err(TensorError::ShapeMismatch {
            op: "concat_cols_grad",
            detail: format!("{shape:?} of {:?}", grad.shape()),
        });
    };
    if m != gm || first + n > total {
        return Err(TensorError::ShapeMismatch {
            op: "concat_cols_grad",
            detail: format!("columns {first}..{} of {:?}", first + n, grad.shape()),
        });
    }
    let mut out = mem.tensor(shape);
    for i in 0..m {
        out.data_mut()[i * n..(i + 1) * n]
            .copy_from_slice(&grad.data()[i * total + first..i * total + first + n]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, Padding};
    use crate::memory::PlannedExecutor;

    /// Evaluates `targets` on a fresh executor with serial kernels.
    fn run(
        graph: &Graph,
        feeds: &HashMap<NodeId, Tensor>,
        vars: &HashMap<NodeId, Tensor>,
        targets: &[NodeId],
    ) -> Result<(Vec<Tensor>, RunStats), TensorError> {
        PlannedExecutor::new().run(graph, feeds, vars, targets, &WorkerPool::serial())
    }

    fn feeds(pairs: &[(NodeId, Tensor)]) -> HashMap<NodeId, Tensor> {
        pairs.iter().cloned().collect()
    }

    fn vars_of(graph: &Graph) -> HashMap<NodeId, Tensor> {
        graph
            .variables()
            .into_iter()
            .map(|id| {
                let Op::Variable { init } = &graph.node(id).unwrap().op else {
                    unreachable!()
                };
                (id, init.clone())
            })
            .collect()
    }

    /// Numerically checks d(loss)/d(var) for every variable element, with
    /// serial and with pooled kernels.
    fn gradient_check(
        graph: &Graph,
        feeds: &HashMap<NodeId, Tensor>,
        vars: HashMap<NodeId, Tensor>,
        loss: NodeId,
        tolerance: f32,
    ) {
        for pool in [WorkerPool::serial(), WorkerPool::new(3)] {
            gradient_check_on(&pool, graph, feeds, vars.clone(), loss, tolerance);
        }
    }

    fn gradient_check_on(
        pool: &WorkerPool,
        graph: &Graph,
        feeds: &HashMap<NodeId, Tensor>,
        mut vars: HashMap<NodeId, Tensor>,
        loss: NodeId,
        tolerance: f32,
    ) {
        let (_, grads, _) = PlannedExecutor::new()
            .train(graph, feeds, &vars, loss, pool)
            .unwrap();
        let mut executor = PlannedExecutor::new();
        let mut loss_at = |vars: &HashMap<NodeId, Tensor>| {
            executor.run(graph, feeds, vars, &[loss], pool).unwrap().0[0].data()[0]
        };
        let eps = 1e-3f32;
        for var in graph.variables() {
            let analytic = grads
                .get(&var)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(vars[&var].shape()));
            for i in 0..vars[&var].len() {
                let orig = vars[&var].data()[i];
                vars.get_mut(&var).unwrap().data_mut()[i] = orig + eps;
                let up = loss_at(&vars);
                vars.get_mut(&var).unwrap().data_mut()[i] = orig - eps;
                let down = loss_at(&vars);
                vars.get_mut(&var).unwrap().data_mut()[i] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let a = analytic.data()[i];
                assert!(
                    (a - numeric).abs() <= tolerance * (1.0 + numeric.abs()),
                    "var {var:?} elem {i}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn forward_matmul_bias_relu() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 2]);
        let w = g.variable(
            "w",
            Tensor::from_vec(&[2, 2], vec![1., -1., 0.5, 2.]).unwrap(),
        );
        let b = g.variable("b", Tensor::from_vec(&[2], vec![0.1, -0.2]).unwrap());
        let mm = g.matmul(x, w).unwrap();
        let biased = g.add_bias(mm, b).unwrap();
        let y = g.relu(biased).unwrap();
        let vars = vars_of(&g);
        let (out, stats) = run(
            &g,
            &feeds(&[(x, Tensor::from_vec(&[1, 2], vec![1.0, 2.0]).unwrap())]),
            &vars,
            &[y],
        )
        .unwrap();
        // x·W = [1*1+2*0.5, 1*-1+2*2] = [2, 3]; +b = [2.1, 2.8]; relu same.
        assert_eq!(out[0].data(), &[2.1, 2.8]);
        assert!(stats.flops > 0.0);
    }

    #[test]
    fn missing_feed_is_error() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 2]);
        let y = g.relu(x).unwrap();
        assert!(matches!(
            run(&g, &HashMap::new(), &HashMap::new(), &[y]),
            Err(TensorError::BadFeed(_))
        ));
    }

    #[test]
    fn wrong_shape_feed_is_error() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 2]);
        let y = g.relu(x).unwrap();
        let result = run(
            &g,
            &feeds(&[(x, Tensor::zeros(&[1, 3]))]),
            &HashMap::new(),
            &[y],
        );
        assert!(matches!(result, Err(TensorError::BadFeed(_))));
    }

    #[test]
    fn unneeded_placeholders_not_required() {
        let mut g = Graph::new();
        let _unused = g.placeholder("unused", &[1]);
        let c = g.constant("c", Tensor::scalar(3.0));
        let (out, _) = run(&g, &HashMap::new(), &HashMap::new(), &[c]).unwrap();
        assert_eq!(out[0].data(), &[3.0]);
    }

    #[test]
    fn fetching_leaves_directly_returns_their_values() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 2]);
        let w = g.variable("w", Tensor::from_vec(&[2], vec![3.0, 4.0]).unwrap());
        let c = g.constant("c", Tensor::scalar(5.0));
        let fed = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]).unwrap();
        // The session's value wins over the graph's initial one.
        let vars = HashMap::from([(w, Tensor::from_vec(&[2], vec![6.0, 7.0]).unwrap())]);
        let (out, stats) = run(&g, &feeds(&[(x, fed.clone())]), &vars, &[c, w, x, w]).unwrap();
        assert_eq!(
            out,
            vec![Tensor::scalar(5.0), vars[&w].clone(), fed, vars[&w].clone()]
        );
        assert_eq!(stats.activation_bytes, 4 + 8 + 8);
        // A fetched leaf is still checked at its own step.
        assert!(matches!(
            run(&g, &HashMap::new(), &vars, &[x]),
            Err(TensorError::BadFeed(_))
        ));
        assert!(matches!(
            run(&g, &HashMap::new(), &HashMap::new(), &[w]),
            Err(TensorError::InvalidGraph("variable without session value"))
        ));
    }

    #[test]
    fn gradcheck_leaf_read_twice_by_one_op_and_shared_between_layers() {
        // `a` feeds both operands of a Mul and of a MatMul and is the
        // weight of two layers; `x` is squared in place. Every read
        // resolves the same borrowed tensor.
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 2]);
        let t = g.placeholder("t", &[0, 2]);
        let a = g.variable(
            "a",
            Tensor::from_vec(&[2, 2], vec![0.4, -0.7, 0.2, 0.9]).unwrap(),
        );
        let b = g.variable("b", Tensor::from_vec(&[2], vec![0.05, -0.1]).unwrap());
        let squared = g.mul(a, a).unwrap();
        let product = g.matmul(a, a).unwrap();
        let mixed = g.add(squared, product).unwrap();
        let xx = g.mul(x, x).unwrap();
        let h = g.matmul(xx, mixed).unwrap();
        let h = g.add_bias(h, b).unwrap();
        let h = g.tanh(h).unwrap();
        let y = g.matmul(h, a).unwrap();
        let y = g.add_bias(y, b).unwrap();
        let loss = g.mse_loss(y, t).unwrap();
        gradient_check(
            &g,
            &feeds(&[
                (
                    x,
                    Tensor::from_vec(&[2, 2], vec![1.0, -0.5, 0.3, 0.8]).unwrap(),
                ),
                (
                    t,
                    Tensor::from_vec(&[2, 2], vec![0.5, 0.5, 0.1, 0.9]).unwrap(),
                ),
            ]),
            vars_of(&g),
            loss,
            2e-2,
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., -1., 0., 100.]).unwrap();
        let s = softmax(&mut ExecMemory::default(), &t).unwrap();
        for i in 0..2 {
            let sum: f32 = s.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large logits don't overflow (stability).
        assert!(s.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(&[1, 3], vec![20.0, 0.0, 0.0]).unwrap();
        let labels = Tensor::from_vec(&[1, 3], vec![1.0, 0.0, 0.0]).unwrap();
        let mem = &mut ExecMemory::default();
        let loss = softmax_cross_entropy(mem, &logits, &labels).unwrap();
        assert!(loss.data()[0] < 1e-3);
        // Wrong prediction has high loss.
        let wrong = Tensor::from_vec(&[1, 3], vec![0.0, 20.0, 0.0]).unwrap();
        assert!(softmax_cross_entropy(mem, &wrong, &labels).unwrap().data()[0] > 5.0);
    }

    #[test]
    fn gradcheck_linear_mse() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 3]);
        let w = g.variable(
            "w",
            Tensor::from_vec(&[3, 2], vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6]).unwrap(),
        );
        let b = g.variable("b", Tensor::from_vec(&[2], vec![0.05, -0.07]).unwrap());
        let t = g.placeholder("t", &[0, 2]);
        let mm = g.matmul(x, w).unwrap();
        let y = g.add_bias(mm, b).unwrap();
        let loss = g.mse_loss(y, t).unwrap();
        gradient_check(
            &g,
            &feeds(&[
                (
                    x,
                    Tensor::from_vec(&[2, 3], vec![1., 2., 3., -1., 0.5, 2.]).unwrap(),
                ),
                (t, Tensor::from_vec(&[2, 2], vec![1., 0., 0., 1.]).unwrap()),
            ]),
            vars_of(&g),
            loss,
            2e-2,
        );
    }

    #[test]
    fn gradcheck_relu_softmax_xent() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 4]);
        let w = g.variable(
            "w",
            Tensor::from_vec(
                &[4, 3],
                vec![
                    0.3, -0.1, 0.2, 0.5, 0.4, -0.3, -0.2, 0.1, 0.6, 0.15, -0.25, 0.35,
                ],
            )
            .unwrap(),
        );
        let labels = g.placeholder("y", &[0, 3]);
        let mm = g.matmul(x, w).unwrap();
        let h = g.relu(mm).unwrap();
        let loss = g.softmax_cross_entropy(h, labels).unwrap();
        gradient_check(
            &g,
            &feeds(&[
                (
                    x,
                    Tensor::from_vec(&[2, 4], vec![1., -2., 0.5, 3., 2., 1., -1., 0.5]).unwrap(),
                ),
                (
                    labels,
                    Tensor::from_vec(&[2, 3], vec![1., 0., 0., 0., 0., 1.]).unwrap(),
                ),
            ]),
            vars_of(&g),
            loss,
            2e-2,
        );
    }

    #[test]
    fn gradcheck_conv_pool_network() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 4, 4, 1]);
        let f = g.variable(
            "f",
            Tensor::from_vec(
                &[3, 3, 1, 2],
                (0..18).map(|i| (i as f32 - 9.0) * 0.05).collect(),
            )
            .unwrap(),
        );
        let labels = g.placeholder("y", &[0, 8]);
        let conv = g.conv2d(x, f, Padding::Same).unwrap();
        let act = g.relu(conv).unwrap();
        let pool = g.max_pool2(act).unwrap();
        let flat = g.flatten(pool).unwrap();
        let loss = g.softmax_cross_entropy(flat, labels).unwrap();
        let x_data: Vec<f32> = (0..16).map(|i| ((i * 7) % 11) as f32 * 0.1 - 0.5).collect();
        let mut y_data = vec![0.0f32; 8];
        y_data[3] = 1.0;
        gradient_check(
            &g,
            &feeds(&[
                (x, Tensor::from_vec(&[1, 4, 4, 1], x_data).unwrap()),
                (labels, Tensor::from_vec(&[1, 8], y_data).unwrap()),
            ]),
            vars_of(&g),
            loss,
            3e-2,
        );
    }

    #[test]
    fn gradcheck_mul_and_softmax() {
        let mut g = Graph::new();
        let a = g.variable(
            "a",
            Tensor::from_vec(&[1, 3], vec![0.2, -0.4, 0.6]).unwrap(),
        );
        let b = g.variable(
            "b",
            Tensor::from_vec(&[1, 3], vec![1.0, 0.5, -0.5]).unwrap(),
        );
        let t = g.placeholder("t", &[0, 3]);
        let prod = g.mul(a, b).unwrap();
        let s = g.softmax(prod).unwrap();
        let loss = g.mse_loss(s, t).unwrap();
        gradient_check(
            &g,
            &feeds(&[(t, Tensor::from_vec(&[1, 3], vec![0.1, 0.7, 0.2]).unwrap())]),
            vars_of(&g),
            loss,
            2e-2,
        );
    }

    #[test]
    fn conv_valid_output_shape() {
        let pool = WorkerPool::serial();
        let input = Tensor::zeros(&[2, 5, 6, 3]);
        let filter = Tensor::zeros(&[3, 3, 3, 4]);
        let (out, _) = kernels::conv2d(&pool, &input, &filter, Padding::Valid).unwrap();
        assert_eq!(out.shape(), &[2, 3, 4, 4]);
        let (same, _) = kernels::conv2d(&pool, &input, &filter, Padding::Same).unwrap();
        assert_eq!(same.shape(), &[2, 5, 6, 4]);
    }

    #[test]
    fn conv_channel_mismatch_rejected() {
        let input = Tensor::zeros(&[1, 5, 5, 3]);
        let filter = Tensor::zeros(&[3, 3, 2, 4]);
        assert!(kernels::conv2d(&WorkerPool::serial(), &input, &filter, Padding::Same).is_err());
    }

    #[test]
    fn conv_known_value() {
        // 1x3x3x1 input, 3x3 all-ones filter, Same padding: center output
        // is the sum of all inputs.
        let input = Tensor::from_vec(&[1, 3, 3, 1], (1..=9).map(|v| v as f32).collect()).unwrap();
        let filter = Tensor::full(&[3, 3, 1, 1], 1.0);
        let (out, cost) =
            kernels::conv2d(&WorkerPool::serial(), &input, &filter, Padding::Same).unwrap();
        assert_eq!(out.data()[4], 45.0);
        // Corner output sums the 2x2 corner: 1+2+4+5 = 12.
        assert_eq!(out.data()[0], 12.0);
        assert!(cost.flops > 0.0);
        assert_eq!(cost.critical_flops, cost.flops);
    }

    #[test]
    fn max_pool_takes_maxima_and_routes_gradient() {
        let x = Tensor::from_vec(&[1, 2, 2, 1], vec![1.0, 5.0, 3.0, 2.0]).unwrap();
        let out = kernels::max_pool2_with(&x, &mut |len| vec![f32::NAN; len]).unwrap();
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        assert_eq!(out.data(), &[5.0]);
        let gx = kernels::max_pool2_grad_with(&x, &Tensor::full(&[1, 1, 1, 1], 2.0), &mut |len| {
            vec![f32::NAN; len]
        });
        assert_eq!(gx.unwrap().data(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_window_without_a_maximum_routes_its_gradient_inside_its_own_sample() {
        // Sample 1's one window is all NaN: no tap compares greater than
        // the -inf the search starts from. Its gradient still belongs to
        // sample 1, not to element 0 of the whole tensor.
        let nan = f32::NAN;
        let mut g = Graph::new();
        let x = g.variable(
            "x",
            Tensor::from_vec(&[2, 2, 2, 1], vec![1.0, 5.0, 3.0, 2.0, nan, nan, nan, nan]).unwrap(),
        );
        let t = g.placeholder("t", &[0, 1]);
        let pooled = g.max_pool2(x).unwrap();
        let flat = g.flatten(pooled).unwrap();
        let loss = g.mse_loss(flat, t).unwrap();
        let (_, grads, _) = PlannedExecutor::new()
            .train(
                &g,
                &feeds(&[(t, Tensor::from_vec(&[2, 1], vec![4.0, 0.0]).unwrap())]),
                &vars_of(&g),
                loss,
                &WorkerPool::serial(),
            )
            .unwrap();
        let gx = grads[&x].data();
        // d/dx mean((pool - t)^2): sample 0's maximum (5.0 at element 1)
        // gets 2 * (5 - 4) / 2, the rest of sample 0 nothing.
        assert_eq!(gx[..4], [0.0, 1.0, 0.0, 0.0]);
        // The dead window pools to -inf; its gradient sits on its first tap.
        assert_eq!(gx[4], f32::NEG_INFINITY);
        assert_eq!(gx[5..], [0.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_requires_scalar_loss() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 2]);
        let y = g.relu(x).unwrap();
        let result = PlannedExecutor::new().train(
            &g,
            &feeds(&[(x, Tensor::zeros(&[1, 2]))]),
            &HashMap::new(),
            y,
            &WorkerPool::serial(),
        );
        assert!(matches!(result, Err(TensorError::InvalidGraph(_))));
    }

    #[test]
    fn gradcheck_sub_scale() {
        let mut g = Graph::new();
        let a = g.variable(
            "a",
            Tensor::from_vec(&[1, 3], vec![0.5, -0.3, 0.8]).unwrap(),
        );
        let b = g.variable(
            "b",
            Tensor::from_vec(&[1, 3], vec![0.1, 0.9, -0.4]).unwrap(),
        );
        let t = g.placeholder("t", &[0, 3]);
        let diff = g.sub(a, b).unwrap();
        let scaled = g.scale(diff, 2.5).unwrap();
        let loss = g.mse_loss(scaled, t).unwrap();
        gradient_check(
            &g,
            &feeds(&[(t, Tensor::from_vec(&[1, 3], vec![0.2, -0.1, 0.6]).unwrap())]),
            vars_of(&g),
            loss,
            2e-2,
        );
    }

    #[test]
    fn gradcheck_sigmoid_tanh() {
        let mut g = Graph::new();
        let w = g.variable(
            "w",
            Tensor::from_vec(&[2, 2], vec![0.4, -0.7, 0.2, 0.9]).unwrap(),
        );
        let x = g.placeholder("x", &[0, 2]);
        let t = g.placeholder("t", &[0, 2]);
        let mm = g.matmul(x, w).unwrap();
        let sig = g.sigmoid(mm).unwrap();
        let th = g.tanh(sig).unwrap();
        let loss = g.mse_loss(th, t).unwrap();
        gradient_check(
            &g,
            &feeds(&[
                (
                    x,
                    Tensor::from_vec(&[2, 2], vec![1.0, -0.5, 0.3, 2.0]).unwrap(),
                ),
                (
                    t,
                    Tensor::from_vec(&[2, 2], vec![0.5, 0.5, 0.1, 0.9]).unwrap(),
                ),
            ]),
            vars_of(&g),
            loss,
            2e-2,
        );
    }

    #[test]
    fn gradcheck_avg_pool_and_concat() {
        let mut g = Graph::new();
        let f = g.variable(
            "f",
            Tensor::from_vec(
                &[4, 4, 1, 1],
                (0..16).map(|i| i as f32 * 0.03 - 0.2).collect(),
            )
            .unwrap(),
        );
        let extra = g.variable("extra", Tensor::from_vec(&[1, 2], vec![0.5, -0.5]).unwrap());
        let t = g.placeholder("t", &[0, 6]);
        let rect = g.reshape(f, &[1, 4, 4, 1]).unwrap();
        let pooled = g.avg_pool2(rect).unwrap();
        let flat = g.flatten(pooled).unwrap();
        let both = g.concat_cols(flat, extra).unwrap();
        let loss = g.mse_loss(both, t).unwrap();
        gradient_check(
            &g,
            &feeds(&[(
                t,
                Tensor::from_vec(&[1, 6], vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]).unwrap(),
            )]),
            vars_of(&g),
            loss,
            2e-2,
        );
    }

    #[test]
    fn avg_pool_forward_values() {
        let x = Tensor::from_vec(&[1, 2, 2, 1], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = avg_pool2(&mut ExecMemory::default(), &x).unwrap();
        assert_eq!(out.data(), &[2.5]);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 3]);
        let s = g.sigmoid(x).unwrap();
        let (out, _) = run(
            &g,
            &feeds(&[(
                x,
                Tensor::from_vec(&[1, 3], vec![-100.0, 0.0, 100.0]).unwrap(),
            )]),
            &HashMap::new(),
            &[s],
        )
        .unwrap();
        let v = out[0].data();
        assert!(v[0] < 1e-6);
        assert!((v[1] - 0.5).abs() < 1e-6);
        assert!(v[2] > 1.0 - 1e-6);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]).unwrap();
        let b = Tensor::from_vec(&[2, 1], vec![9., 8.]).unwrap();
        let mem = &mut ExecMemory::default();
        let out = concat_cols(mem, &a, &b).unwrap();
        assert_eq!(out.shape(), &[2, 3]);
        assert_eq!(out.data(), &[1., 2., 9., 3., 4., 8.]);
        assert!(concat_cols(mem, &a, &Tensor::zeros(&[3, 1])).is_err());
    }

    #[test]
    fn in_place_rules_accumulate_into_a_gradient_with_several_consumers() {
        // `h` feeds a relu, a scale, a sub (both sides), a sigmoid and a
        // reshape. Each of those rules rewrites its own gradient buffer
        // and hands it to `h`: the first becomes `h`'s gradient, the
        // others are added into it and go back to the arena.
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 3]);
        let t = g.placeholder("t", &[0, 2]);
        let w = g.variable(
            "w",
            Tensor::from_vec(&[3, 2], vec![0.3, -0.6, 0.8, 0.1, -0.4, 0.7]).unwrap(),
        );
        let b = g.variable("b", Tensor::from_vec(&[2], vec![0.05, -0.15]).unwrap());
        let h = g.matmul(x, w).unwrap();
        let h = g.add_bias(h, b).unwrap();
        let relu = g.relu(h).unwrap();
        let scaled = g.scale(h, -1.5).unwrap();
        let squashed = g.sigmoid(h).unwrap();
        let diff = g.sub(squashed, h).unwrap();
        let flat = g.reshape(h, &[4]).unwrap();
        let back = g.reshape(flat, &[2, 2]).unwrap();
        let sum = g.add(relu, scaled).unwrap();
        let sum = g.add(sum, diff).unwrap();
        let sum = g.add(sum, back).unwrap();
        let loss = g.mse_loss(sum, t).unwrap();
        let feeds = feeds(&[
            (
                x,
                Tensor::from_vec(&[2, 3], vec![1.0, -0.5, 0.3, -0.8, 0.9, 0.4]).unwrap(),
            ),
            (
                t,
                Tensor::from_vec(&[2, 2], vec![0.5, -0.5, 0.1, 0.9]).unwrap(),
            ),
        ]);
        let vars = vars_of(&g);
        gradient_check(&g, &feeds, vars.clone(), loss, 2e-2);

        // Handing buffers on neither leaks one nor parks one twice, and
        // what a recycled buffer held never shows in a gradient.
        let mut executor = PlannedExecutor::new();
        let mut step = || {
            let (_, grads, _) = executor
                .train(&g, &feeds, &vars, loss, &WorkerPool::serial())
                .unwrap();
            let bits = |id| {
                grads[&id]
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            (bits(w), bits(b), executor.memory_stats())
        };
        let (first, second, third) = (step(), step(), step());
        assert_eq!((&first.0, &first.1), (&second.0, &second.1));
        assert_eq!(second, third);
        assert_eq!(third.2.resident_bytes, 0);
    }

    #[test]
    fn fanout_gradients_accumulate() {
        // loss = mse(a + a, t): d(loss)/da flows through both Add inputs.
        let mut g = Graph::new();
        let a = g.variable("a", Tensor::from_vec(&[1, 1], vec![1.0]).unwrap());
        let t = g.placeholder("t", &[0, 1]);
        let double = g.add(a, a).unwrap();
        let loss = g.mse_loss(double, t).unwrap();
        let vars = vars_of(&g);
        let (_, grads, _) = PlannedExecutor::new()
            .train(
                &g,
                &feeds(&[(t, Tensor::from_vec(&[1, 1], vec![0.0]).unwrap())]),
                &vars,
                loss,
                &WorkerPool::serial(),
            )
            .unwrap();
        // loss = (2a)^2, d/da = 8a = 8.
        assert!((grads[&a].data()[0] - 8.0).abs() < 1e-5);
    }
}
