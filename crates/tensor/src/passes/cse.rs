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
/// when their data is bit-for-bit equal: a constant's key is its shape
/// and a 64-bit hash of its bits, and a constant whose key is taken is
/// compared with the holder(s) bit by bit before it merges, so a hash
/// collision costs one comparison, never a merge.
///
/// Forward values are bit-identical after CSE (the surviving node runs
/// the exact computation the duplicate would have). Gradients are NOT:
/// merging reroutes float gradient accumulation through one node, and
/// `f'·(g₁+g₂)` is not bitwise `f'·g₁ + f'·g₂`. This pass therefore
/// belongs to inference pipelines only — see
/// [`super::Pipeline::training`].
pub struct CommonSubexpressionElimination;

/// A 64-bit hash of `values`' bit patterns (so `+0.0` and `-0.0`, and
/// NaNs with different payloads, hash apart). Four independent
/// rotate-xor-multiply lanes take two floats each per step, so the
/// multiplies overlap and a 42 MB weight hashes at close to memory
/// speed; the length, the lanes and the tail then go through one lane
/// and a finalizer.
fn content_hash(values: &[f32]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, word: u64| (h.rotate_left(23) ^ word).wrapping_mul(K);
    let mut lanes = [
        0x243f_6a88_85a3_08d3u64,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let (blocks, tail) = values.as_chunks::<8>();
    for block in blocks {
        for (lane, pair) in lanes.iter_mut().zip(block.as_chunks::<2>().0) {
            let word = u64::from(pair[0].to_bits()) | u64::from(pair[1].to_bits()) << 32;
            *lane = step(*lane, word);
        }
    }
    let mut h = step(0, values.len() as u64);
    for lane in lanes {
        h = step(h, lane);
    }
    for v in tail {
        h = step(h, u64::from(v.to_bits()));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

fn put_dims(key: &mut Vec<u8>, shape: &[usize]) {
    for &d in shape {
        key.extend_from_slice(&(d as u32).to_le_bytes());
    }
}

/// Structural key: op kind, attribute payload (for a constant: its shape
/// and [`content_hash`]), and remapped input ids. Equal keys mean equal
/// values, except for constants, which [`same_data`] then confirms.
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
            put_dims(&mut key, t.shape());
            key.push(0xFE);
            key.extend_from_slice(&content_hash(t.data()).to_le_bytes());
        }
        Op::PackedConstant(panels) => {
            put_dims(&mut key, panels.shape());
            key.push(0xFE);
            key.extend_from_slice(&content_hash(panels.panel_data()).to_le_bytes());
        }
        Op::Scale(_, factor) => key.extend_from_slice(&factor.to_bits().to_le_bytes()),
        Op::Reshape(_, shape) => put_dims(&mut key, shape),
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

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two ops of equal [`structural_key`] hold the same data: a
/// constant's key has only a hash of it. Every other op's key is its
/// whole identity.
fn same_data(a: &Op, b: &Op) -> bool {
    match (a, b) {
        (Op::Constant(a), Op::Constant(b)) => same_bits(a.data(), b.data()),
        (Op::PackedConstant(a), Op::PackedConstant(b)) => same_bits(a.panel_data(), b.panel_data()),
        _ => true,
    }
}

impl Pass for CommonSubexpressionElimination {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, graph: Graph, roots: &[NodeId]) -> Result<PassOutcome, TensorError> {
        for &root in roots {
            graph.node(root)?;
        }
        let mut out = Graph::new();
        let mut remap: Vec<Option<NodeId>> = vec![None; graph.len()];
        // Key → the surviving nodes holding it (more than one only when
        // distinct constants collide on their hash).
        let mut seen: HashMap<Vec<u8>, Vec<NodeId>> = HashMap::new();
        let mut eliminated = 0u64;
        for (index, node) in graph.into_nodes().into_iter().enumerate() {
            let op = node
                .op
                .map_inputs(|old| remap[old.index()].expect("inputs precede node in topo order"));
            let key = structural_key(&op);
            if let Some(holders) = key.as_ref().and_then(|key| seen.get(key)) {
                let canonical = holders
                    .iter()
                    .find(|holder| same_data(&out.nodes()[holder.index()].op, &op));
                if let Some(&canonical) = canonical {
                    // The duplicate, and its tensor, are dropped here.
                    remap[index] = Some(canonical);
                    eliminated += 1;
                    continue;
                }
            }
            let new_id = out
                .append_node(Node {
                    op,
                    name: node.name,
                })
                .expect("remapped inputs exist");
            if let Some(key) = key {
                seen.entry(key).or_default().push(new_id);
            }
            remap[index] = Some(new_id);
        }
        Ok(PassOutcome {
            graph: out,
            remap,
            eliminated,
            fused: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hash_reads_every_bit_and_the_length() {
        let base: Vec<f32> = (0..37).map(|i| i as f32 * 0.25 - 3.0).collect();
        let h = content_hash(&base);
        for i in 0..base.len() {
            for bit in [0, 17, 31] {
                let mut flipped = base.clone();
                flipped[i] = f32::from_bits(flipped[i].to_bits() ^ (1 << bit));
                assert_ne!(content_hash(&flipped), h, "element {i}, bit {bit}");
            }
        }
        assert_ne!(content_hash(&base[..36]), h);
        assert_ne!(content_hash(&[0.0; 8]), content_hash(&[0.0; 9]));
        assert_ne!(content_hash(&[0.0]), content_hash(&[-0.0]));
    }
}
