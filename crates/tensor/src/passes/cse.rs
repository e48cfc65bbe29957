//! Common-subexpression elimination via structural hashing.

use super::{Pass, PassOutcome};
use crate::graph::{Graph, Node, NodeId, Op, Padding};
use crate::TensorError;
use std::collections::HashMap;

/// Merges structurally identical pure subexpressions: two nodes with the
/// same operation, same attribute payload, and same (already-merged)
/// inputs compute the same value, so the later one is rewritten to
/// reference the earlier.
///
/// Placeholders and variables are never merged — they are *identities*
/// (fed and updated separately), not expressions. Constants merge only
/// when their data is bit-for-bit equal.
///
/// Forward values are bit-identical after CSE (the surviving node runs
/// the exact computation the duplicate would have). Gradients are NOT:
/// merging reroutes float gradient accumulation through one node, and
/// `f'·(g₁+g₂)` is not bitwise `f'·g₁ + f'·g₂`. This pass therefore
/// belongs to inference pipelines only — see
/// [`super::Pipeline::training`].
pub struct CommonSubexpressionElimination;

/// Structural key: op kind, attribute payload, and remapped input ids.
fn structural_key(op: &Op) -> Option<Vec<u8>> {
    match op {
        // Identities, never expressions.
        Op::Placeholder { .. } | Op::Variable { .. } => return None,
        _ => {}
    }
    let mut key = Vec::new();
    key.extend_from_slice(op.kind().as_bytes());
    key.push(0xFF);
    // Attribute payloads that `kind()` does not encode.
    match op {
        Op::Constant(t) => {
            for &d in t.shape() {
                key.extend_from_slice(&(d as u32).to_le_bytes());
            }
            key.push(0xFE);
            for &v in t.data() {
                key.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        Op::PackedConstant(panels) => {
            for &d in panels.shape() {
                key.extend_from_slice(&(d as u32).to_le_bytes());
            }
            key.push(0xFE);
            for &v in panels.panel_data() {
                key.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        Op::Scale(_, factor) => key.extend_from_slice(&factor.to_bits().to_le_bytes()),
        Op::Reshape(_, shape) => {
            for &d in shape {
                key.extend_from_slice(&(d as u32).to_le_bytes());
            }
        }
        Op::Conv2d { padding, .. } | Op::FusedConv2d { padding, .. } => {
            key.push(match padding {
                Padding::Same => 0,
                Padding::Valid => 1,
            });
        }
        _ => {}
    }
    key.push(0xFF);
    for input in op.inputs() {
        key.extend_from_slice(&(input.index() as u32).to_le_bytes());
    }
    Some(key)
}

impl Pass for CommonSubexpressionElimination {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, graph: &Graph, roots: &[NodeId]) -> Result<PassOutcome, TensorError> {
        for &root in roots {
            graph.node(root)?;
        }
        let mut out = Graph::new();
        let mut remap: Vec<Option<NodeId>> = vec![None; graph.len()];
        let mut seen: HashMap<Vec<u8>, NodeId> = HashMap::new();
        let mut eliminated = 0u64;
        for (index, node) in graph.nodes().iter().enumerate() {
            let op = node
                .op
                .map_inputs(|old| remap[old.index()].expect("inputs precede node in topo order"));
            if let Some(key) = structural_key(&op) {
                if let Some(&canonical) = seen.get(&key) {
                    remap[index] = Some(canonical);
                    eliminated += 1;
                    continue;
                }
                let new_id = out
                    .append_node(Node {
                        op,
                        name: node.name.clone(),
                    })
                    .expect("remapped inputs exist");
                seen.insert(key, new_id);
                remap[index] = Some(new_id);
            } else {
                let new_id = out
                    .append_node(Node {
                        op,
                        name: node.name.clone(),
                    })
                    .expect("remapped inputs exist");
                remap[index] = Some(new_id);
            }
        }
        Ok(PassOutcome {
            graph: out,
            remap,
            eliminated,
            fused: 0,
        })
    }
}
