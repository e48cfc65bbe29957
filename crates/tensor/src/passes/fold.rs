//! Constant folding: bake operations whose inputs are all constants.

use super::{Pass, PassOutcome};
use crate::graph::{Graph, NodeId, Op};
use crate::kernels::WorkerPool;
use crate::memory::PlannedExecutor;
use crate::TensorError;
use std::collections::HashMap;

/// Folds every operation whose inputs are all constants into a constant,
/// in place. Returns the number of nodes folded. Node ids are unchanged
/// (folded nodes keep their position; orphaned input constants become
/// dead code for [`super::DeadCodeElimination`] to sweep).
///
/// Each fold runs the executor on `graph` itself with the folded node as
/// its one target, so its inputs are read where they live, as in any
/// run, and no constant is copied.
///
/// Bit-identity: the fold evaluates each op with the same kernels the
/// runtime uses, and kernels are bit-identical for every worker count
/// (the kernel module's cardinal rule), so the baked value equals what
/// the runtime would have computed exactly. Constants receive no
/// gradients, and an op folds only when *no* placeholder or variable
/// feeds it, so the backward pass is unaffected.
fn fold_graph(graph: &mut Graph) -> usize {
    let mut folded = 0usize;
    let mut executor = PlannedExecutor::new();
    let (no_feeds, no_vars) = (HashMap::new(), HashMap::new());
    for index in 0..graph.len() {
        let op = &graph.nodes()[index].op;
        if matches!(
            op,
            Op::Constant(_) | Op::Placeholder { .. } | Op::Variable { .. }
        ) {
            continue;
        }
        let inputs = op.inputs();
        let constant = |id: &NodeId| matches!(graph.nodes()[id.index()].op, Op::Constant(_));
        if inputs.is_empty() || !inputs.iter().all(constant) {
            continue;
        }
        let id = NodeId(index);
        let Ok((mut values, _)) =
            executor.run(graph, &no_feeds, &no_vars, &[id], &WorkerPool::serial())
        else {
            continue;
        };
        let Some(value) = values.pop() else {
            continue;
        };
        graph.replace_with_constant(id, value).expect("id in range");
        folded += 1;
    }
    folded
}

/// Constant folding as a pipeline [`Pass`] (identity remap: folded nodes
/// keep their ids, only their op changes).
pub struct ConstantFolding;

impl Pass for ConstantFolding {
    fn name(&self) -> &'static str {
        "fold"
    }

    fn run(&self, mut graph: Graph, roots: &[NodeId]) -> Result<PassOutcome, TensorError> {
        for &root in roots {
            graph.node(root)?;
        }
        let folded = fold_graph(&mut graph);
        let mut outcome = PassOutcome::unchanged(graph);
        outcome.eliminated = folded as u64;
        Ok(outcome)
    }
}
