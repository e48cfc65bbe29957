//! Constant folding: bake operations whose inputs are all constants.

use super::{Pass, PassOutcome};
use crate::graph::{Graph, Node, Op};
use crate::kernels::WorkerPool;
use crate::memory::PlannedExecutor;
use crate::tensor::Tensor;
use crate::TensorError;
use std::collections::HashMap;

/// Folds every operation whose inputs are all constants into a constant,
/// in place. Returns the number of nodes folded. Node ids are unchanged
/// (folded nodes keep their position; orphaned input constants become
/// dead code for [`super::DeadCodeElimination`] to sweep).
///
/// Bit-identity: the fold evaluates each op with the same kernels the
/// runtime uses, and kernels are bit-identical for every worker count
/// (the kernel module's cardinal rule), so the baked value equals what
/// the runtime would have computed exactly. Constants receive no
/// gradients, and an op folds only when *no* placeholder or variable
/// feeds it, so the backward pass is unaffected.
fn fold_graph(graph: &mut Graph) -> usize {
    let mut known: HashMap<usize, Tensor> = graph
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(i, n)| match &n.op {
            Op::Constant(t) => Some((i, t.clone())),
            _ => None,
        })
        .collect();
    let mut folded = 0usize;
    let mut executor = PlannedExecutor::new();
    let (no_feeds, no_vars) = (HashMap::new(), HashMap::new());
    for index in 0..graph.len() {
        let node = &graph.nodes()[index];
        if matches!(
            node.op,
            Op::Constant(_) | Op::Placeholder { .. } | Op::Variable { .. }
        ) {
            continue;
        }
        let inputs = node.op.inputs();
        if inputs.is_empty() || !inputs.iter().all(|i| known.contains_key(&i.index())) {
            continue;
        }
        // Evaluate the op in a scratch graph fed by the known constants.
        let mut scratch = Graph::new();
        let mut remap = HashMap::new();
        for input in &inputs {
            remap
                .entry(input.index())
                .or_insert_with(|| scratch.constant("in", known[&input.index()].clone()));
        }
        let op = node.op.map_inputs(|old| remap[&old.index()]);
        let name = node.name.clone();
        let Ok(target) = scratch.append_node(Node { op, name }) else {
            continue;
        };
        let Ok((mut values, _)) =
            executor.run(&scratch, &no_feeds, &no_vars, &[target], &WorkerPool::serial())
        else {
            continue;
        };
        let Some(value) = values.pop() else {
            continue;
        };
        let id = graph.node_id(index).expect("in range");
        graph
            .replace_with_constant(id, value.clone())
            .expect("id in range");
        known.insert(index, value);
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

    fn run(&self, graph: &Graph, roots: &[crate::graph::NodeId]) -> Result<PassOutcome, TensorError> {
        for &root in roots {
            graph.node(root)?;
        }
        let mut out = graph.clone();
        let folded = fold_graph(&mut out);
        let mut outcome = PassOutcome::unchanged(graph);
        outcome.graph = out;
        outcome.eliminated = folded as u64;
        Ok(outcome)
    }
}
