//! Static shape inference and arena memory planning.
//!
//! TensorFlow Lite famously pre-plans a single tensor *arena*: because
//! the graph is static, every activation's size and lifetime is known
//! ahead of time, and buffers whose lifetimes do not overlap can share
//! memory. Inside an enclave this matters doubly — the arena's peak is
//! exactly the EPC working set an inference adds on top of the weights.
//!
//! * [`infer_shapes`] — static shape checking for a concrete batch size
//!   (catches model/input mismatches before execution),
//! * [`plan_memory`] — liveness analysis + first-fit offset assignment,
//!   producing the peak activation footprint.
//!
//! The per-op shape rules, the liveness analysis and the first-fit layout
//! live in [`securetf_tensor::memory`], shared with the training executor;
//! this module resolves a Lite graph's leaf shapes for a batch size and
//! keeps the [`ArenaPlan`] surface.

use crate::model::LiteModel;
use crate::LiteError;
use securetf_tensor::graph::Graph;
use securetf_tensor::memory;

pub use securetf_tensor::memory::Slot;

/// The outcome of memory planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaPlan {
    /// Peak arena size in bytes (what the enclave must reserve).
    pub peak_bytes: u64,
    /// Sum of all activation buffers if none shared memory.
    pub unshared_bytes: u64,
    /// Per-node slots (None for constants/placeholder-free nodes).
    pub slots: Vec<Option<Slot>>,
}

/// Infers the output shape of every node for the given batch size: each
/// placeholder's `0` (batch) dimensions become `batch`, variables take
/// their initial value's shape.
///
/// # Errors
///
/// Returns [`LiteError::Exec`] carrying the
/// [`securetf_tensor::TensorError::ShapeMismatch`] the executor would
/// raise when operands are incompatible — this is the static analogue of
/// runtime shape checks.
pub fn infer_shapes(graph: &Graph, batch: usize) -> Result<Vec<Vec<usize>>, LiteError> {
    let every_node = vec![true; graph.len()];
    Ok(memory::infer_shapes_from_leaves(
        graph,
        &every_node,
        |_, _, template| {
            Ok(template
                .iter()
                .map(|&d| if d == 0 { batch } else { d })
                .collect())
        },
        |_, init| Ok(init.shape().to_vec()),
    )?)
}

/// Plans the activation arena for one inference of `model` at `batch`.
///
/// Constants (weights) are not part of the arena; placeholders are
/// (the input must be staged into protected memory too).
///
/// # Errors
///
/// Propagates [`infer_shapes`] errors.
pub fn plan_memory(model: &LiteModel, batch: usize) -> Result<ArenaPlan, LiteError> {
    let graph = model.graph();
    let shapes = infer_shapes(graph, batch)?;
    // Lite models plan every node: the converter already pruned the graph
    // to the output's ancestors.
    let needed = vec![true; graph.len()];
    let plan = memory::plan_inference(graph, shapes, &needed, &[model.output()])?;
    let slots = (0..graph.len())
        .map(|index| plan.value_slot(index).copied())
        .collect();
    Ok(ArenaPlan {
        peak_bytes: plan.peak_bytes,
        unshared_bytes: plan.unshared_bytes,
        slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use securetf_tensor::graph::{Op, Padding};
    use securetf_tensor::tensor::Tensor;
    use securetf_tensor::TensorError;

    fn chain_model(layers: usize) -> LiteModel {
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 64]);
        let mut cur = x;
        for i in 0..layers {
            let w = g.constant(&format!("w{i}"), Tensor::full(&[64, 64], 0.01));
            cur = g.matmul(cur, w).unwrap();
            cur = g.relu(cur).unwrap();
        }
        let name = g.nodes()[cur.index()].name.clone();
        LiteModel::convert(&g, "input", &name).unwrap()
    }

    #[test]
    fn shapes_infer_through_a_cnn() {
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 28, 28, 1]);
        let f = g.constant("f", Tensor::full(&[3, 3, 1, 8], 0.1));
        let conv = g.conv2d(x, f, Padding::Same).unwrap();
        let act = g.relu(conv).unwrap();
        let pool = g.max_pool2(act).unwrap();
        let flat = g.flatten(pool).unwrap();
        let shapes = infer_shapes(&g, 5).unwrap();
        assert_eq!(shapes[conv.index()], vec![5, 28, 28, 8]);
        assert_eq!(shapes[pool.index()], vec![5, 14, 14, 8]);
        assert_eq!(shapes[flat.index()], vec![5, 14 * 14 * 8]);
    }

    #[test]
    fn shape_mismatch_caught_statically() {
        let mut g = Graph::new();
        let a = g.placeholder("input", &[0, 4]);
        let w = g.constant("w", Tensor::full(&[5, 2], 0.1)); // 4 != 5
        g.matmul(a, w).unwrap();
        assert!(matches!(
            infer_shapes(&g, 1),
            Err(LiteError::Exec(TensorError::ShapeMismatch { .. }))
        ));
    }

    #[test]
    fn arena_reuses_dead_buffers() {
        // A deep chain: only ~2 activations are ever live at once, so the
        // plan must be far below the unshared total.
        let model = chain_model(10);
        let plan = plan_memory(&model, 8).unwrap();
        assert!(
            plan.peak_bytes <= plan.unshared_bytes / 4,
            "peak {} vs unshared {}",
            plan.peak_bytes,
            plan.unshared_bytes
        );
        // Peak must still hold at least two live buffers (input + output
        // of one matmul).
        assert!(plan.peak_bytes >= 2 * 8 * 64 * 4);
    }

    #[test]
    fn overlapping_lifetimes_never_alias() {
        let model = chain_model(6);
        let plan = plan_memory(&model, 4).unwrap();
        let live: Vec<&Slot> = plan.slots.iter().flatten().collect();
        for (i, a) in live.iter().enumerate() {
            for b in live.iter().skip(i + 1) {
                let lifetimes_overlap = a.live_from <= b.live_to && b.live_from <= a.live_to;
                let memory_overlaps =
                    a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
                assert!(
                    !(lifetimes_overlap && memory_overlaps),
                    "aliasing slots {a:?} and {b:?}"
                );
            }
        }
    }

    #[test]
    fn plan_scales_with_batch() {
        let model = chain_model(4);
        let small = plan_memory(&model, 1).unwrap();
        let large = plan_memory(&model, 16).unwrap();
        assert_eq!(large.peak_bytes, 16 * small.peak_bytes);
    }

    #[test]
    fn paper_model_plans_are_pinned() {
        // (peak_bytes, unshared_bytes) of the un-lowered paper models as
        // planned before shape inference moved to `tensor::memory`.
        use crate::models::{self, DENSENET, INCEPTION_V4};
        let plan_of = |model: &LiteModel, batch| {
            let plan = plan_memory(model, batch).unwrap();
            (plan.peak_bytes, plan.unshared_bytes)
        };
        let densenet = models::build(DENSENET);
        assert_eq!(plan_of(&densenet, 1), (8_192, 132_988));
        assert_eq!(plan_of(&densenet, 8), (65_536, 1_063_904));
        let inception = models::build(INCEPTION_V4);
        assert_eq!(plan_of(&inception, 1), (8_192, 504_340));
        assert_eq!(plan_of(&inception, 8), (65_536, 4_034_720));

        // What the serving enclave plans is the lowered graph: strictly
        // fewer nodes, so strictly fewer buffers to place.
        let (lowered, report) = crate::optimize::optimize_for_inference(inception).unwrap();
        assert!(report.nodes_after() < report.nodes_before());
        assert_eq!(lowered.graph().len(), report.nodes_after());
        let lowered_plan = plan_memory(&lowered, 1).unwrap();
        assert!(lowered_plan.unshared_bytes < 504_340);
        assert!(lowered_plan.peak_bytes <= 8_192);
    }

    #[test]
    fn constants_are_not_in_the_arena() {
        let model = chain_model(3);
        let plan = plan_memory(&model, 1).unwrap();
        for (index, node) in model.graph().nodes().iter().enumerate() {
            if matches!(node.op, Op::Constant(_)) {
                assert!(plan.slots[index].is_none());
            }
        }
    }
}
