//! Dead-code elimination: drop every node unreachable from the roots.

use super::{Pass, PassOutcome};
use crate::graph::{Graph, Node, NodeId};
use crate::TensorError;

/// Removes nodes that do not contribute to any root (dead training
/// heads, unused branches, constants orphaned by folding).
///
/// Bit-identity: the executors already restrict work to the needed set
/// of the requested fetches, so eliminated nodes were never executed in
/// the unoptimized run either — results *and* run statistics are
/// untouched. What DCE buys is a smaller graph for planning, export,
/// and the EPC params region (dead constants stop counting against
/// [`Graph::param_bytes`]).
pub struct DeadCodeElimination;

impl Pass for DeadCodeElimination {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, graph: Graph, roots: &[NodeId]) -> Result<PassOutcome, TensorError> {
        let mut needed = vec![false; graph.len()];
        let mut stack: Vec<NodeId> = Vec::with_capacity(roots.len());
        for &root in roots {
            graph.node(root)?;
            stack.push(root);
        }
        while let Some(id) = stack.pop() {
            if needed[id.index()] {
                continue;
            }
            needed[id.index()] = true;
            stack.extend(graph.nodes()[id.index()].op.inputs());
        }
        let before = graph.len();
        let mut out = Graph::new();
        let mut remap: Vec<Option<NodeId>> = vec![None; before];
        // A dead node is dropped here, its tensor with it.
        for (index, node) in graph.into_nodes().into_iter().enumerate() {
            if !needed[index] {
                continue;
            }
            let op = node
                .op
                .map_inputs(|old| remap[old.index()].expect("inputs precede node in topo order"));
            let new_id = out
                .append_node(Node {
                    op,
                    name: node.name,
                })
                .expect("remapped inputs exist");
            remap[index] = Some(new_id);
        }
        let eliminated = (before - out.len()) as u64;
        Ok(PassOutcome {
            graph: out,
            remap,
            eliminated,
            fused: 0,
        })
    }
}
