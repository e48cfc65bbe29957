//! The graph compiler: one deterministic pass pipeline shared by the
//! training executor and Lite inference (DESIGN.md §16).
//!
//! secureTF's cost driver is what the enclave executes: every node a
//! compile-time pass eliminates or fuses removes kernel flops, EPC page
//! touches, and shield-charged memory traffic at once. This module is
//! the shared optimization layer both engines run through:
//!
//! * [`Pass`] — one graph-to-graph rewrite that takes the graph by
//!   value and returns the new graph plus an old-id → new-id remap,
//! * [`Pipeline`] — a fixed, deterministic pass sequence that composes
//!   the remaps and produces a [`PipelineReport`]; every caller lowers
//!   through [`Pipeline::lowering`],
//! * the three shipped passes: [`DeadCodeElimination`],
//!   [`ConstantFolding`], and [`OperatorFusion`],
//! * and, after them, for serving only, [`pack_matmul_constants`]: the
//!   weights in the GEMM's panel order (DESIGN.md §11).
//!
//! **Bit-identity is the contract.** Every pipeline output must evaluate
//! bit-for-bit identically to the input graph — forward values,
//! gradients, and whole training trajectories — for every worker count.
//! The per-pass arguments:
//!
//! * DCE only removes nodes the executor's own needed-set walk would
//!   never run, so results *and* run statistics are untouched.
//! * Constant folding evaluates the folded subgraph with the same
//!   kernels the runtime uses, and kernels are bit-identical across
//!   worker counts (the kernel module's cardinal rule), so the baked
//!   constant equals the runtime value exactly; constants receive no
//!   gradients, so backward is unaffected.
//! * Fusion replaces `matmul → add_bias[ → relu]` chains with kernels
//!   that apply the same per-element epilogue in the same order, and the
//!   fused backward uses the identical kernels and accumulation order as
//!   the unfused sequence (see [`crate::kernels::matmul_bias_relu_with`]).
//!
//! Every pass is gradient-safe, so training and inference lower through
//! the same pipeline.
//!
//! Pass timing is *virtual*: [`PassStats::virtual_ns`] is derived from
//! node counts alone (never wall clock), so same-seed telemetry digests
//! stay deterministic.
//!
//! **A pass consumes its graph.** Nodes move from the input into the
//! output; a surviving constant keeps its buffer, an eliminated one is
//! dropped where the pass skips it, and nothing copies or reads a
//! weight that folding does not evaluate. So a lowering costs time and
//! memory in node count on top of the graph it was handed. A caller
//! that still needs the graph it lowers clones it at the call site.

mod dce;
mod fold;
mod fuse;
mod pack;

pub use dce::DeadCodeElimination;
pub use fold::ConstantFolding;
pub use fuse::OperatorFusion;
pub use pack::pack_matmul_constants;

use crate::graph::{Graph, NodeId};
use crate::TensorError;

/// Deterministic virtual cost of examining one node in a pass.
const PASS_NODE_NS: u64 = 240;
/// Deterministic virtual cost of one graph rewrite (a node eliminated,
/// folded, or absorbed into a fused op).
const PASS_REWRITE_NS: u64 = 960;

/// The result of running one [`Pass`].
#[derive(Debug, Clone)]
pub struct PassOutcome {
    /// The rewritten graph.
    pub graph: Graph,
    /// `remap[old.index()]` is the surviving id in `graph`, or `None`
    /// if the node was eliminated/absorbed.
    pub remap: Vec<Option<NodeId>>,
    /// Nodes whose computation the pass removed (DCE'd or
    /// constant-folded).
    pub eliminated: u64,
    /// Nodes absorbed into fused operators.
    pub fused: u64,
}

impl PassOutcome {
    /// An outcome that leaves `graph` untouched (identity remap).
    pub fn unchanged(graph: Graph) -> PassOutcome {
        PassOutcome {
            remap: (0..graph.len()).map(|i| Some(NodeId(i))).collect(),
            graph,
            eliminated: 0,
            fused: 0,
        }
    }
}

/// One deterministic graph-to-graph rewrite.
///
/// A pass must be pure (same input graph + roots → same output), must
/// keep every root alive (roots may be remapped but never dropped), and
/// must preserve bit-identical evaluation as described in the module
/// docs. It takes the graph by value and moves the nodes it keeps into
/// its output ([`Graph::into_nodes`], [`crate::graph::Op::map_inputs`]),
/// so no weight is copied on the way through.
pub trait Pass {
    /// Short name used in reports and telemetry span attribution.
    fn name(&self) -> &'static str;

    /// Rewrites `graph`, consuming it; `roots` are the ids that must
    /// survive (fetches, the loss, exported outputs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for out-of-range roots.
    fn run(&self, graph: Graph, roots: &[NodeId]) -> Result<PassOutcome, TensorError>;
}

/// Per-pass statistics of one pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStats {
    /// The pass's [`Pass::name`].
    pub name: &'static str,
    /// Node count entering the pass.
    pub nodes_before: usize,
    /// Node count leaving the pass.
    pub nodes_after: usize,
    /// Nodes whose computation the pass removed.
    pub eliminated: u64,
    /// Nodes absorbed into fused operators.
    pub fused: u64,
    /// Deterministic virtual cost of the pass, derived from node counts
    /// only — never wall clock — so telemetry digests stay reproducible.
    pub virtual_ns: u64,
}

/// What a whole [`Pipeline`] run did, pass by pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// One entry per executed pass, in order.
    pub passes: Vec<PassStats>,
}

impl PipelineReport {
    /// Total nodes eliminated (DCE + folded) across all passes.
    pub fn nodes_eliminated(&self) -> u64 {
        self.passes.iter().map(|p| p.eliminated).sum()
    }

    /// Total nodes absorbed into fused operators.
    pub fn nodes_fused(&self) -> u64 {
        self.passes.iter().map(|p| p.fused).sum()
    }

    /// Total deterministic virtual time of the pipeline.
    pub fn virtual_ns(&self) -> u64 {
        self.passes.iter().map(|p| p.virtual_ns).sum()
    }

    /// Node count entering the first pass (0 for an empty report).
    pub fn nodes_before(&self) -> usize {
        self.passes.first().map_or(0, |p| p.nodes_before)
    }

    /// Node count leaving the last pass (0 for an empty report).
    pub fn nodes_after(&self) -> usize {
        self.passes.last().map_or(0, |p| p.nodes_after)
    }

    /// Whether any pass changed the graph at all.
    pub fn changed(&self) -> bool {
        self.passes.iter().any(|p| p.eliminated + p.fused > 0)
    }
}

/// An optimized graph plus the bookkeeping callers need to translate
/// between the original and optimized id spaces.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The optimized graph.
    pub graph: Graph,
    /// Composed old-id → new-id map over every pass.
    pub remap: Vec<Option<NodeId>>,
    /// Per-pass statistics.
    pub report: PipelineReport,
}

impl Optimized {
    /// The optimized id of `original`, if the node survived.
    pub fn target(&self, original: NodeId) -> Option<NodeId> {
        self.remap.get(original.index()).copied().flatten()
    }
}

/// A deterministic, ordered pass sequence.
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// A pipeline running exactly `passes`, in order.
    fn new(passes: Vec<Box<dyn Pass>>) -> Pipeline {
        Pipeline { passes }
    }

    /// The pipeline every caller lowers through, training and inference
    /// alike: DCE → constant folding → fusion.
    pub fn lowering() -> Pipeline {
        Pipeline::new(vec![
            Box::new(DeadCodeElimination),
            Box::new(ConstantFolding),
            Box::new(OperatorFusion),
        ])
    }

    /// Runs every pass in order on `graph`, which each hands on to the
    /// next by value, composing the id remaps.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for out-of-range roots.
    pub fn run(&self, graph: Graph, roots: &[NodeId]) -> Result<Optimized, TensorError> {
        for &root in roots {
            graph.node(root)?;
        }
        let mut remap: Vec<Option<NodeId>> = (0..graph.len()).map(|i| Some(NodeId(i))).collect();
        let mut current = graph;
        let mut live_roots: Vec<NodeId> = roots.to_vec();
        let mut report = PipelineReport::default();
        for pass in &self.passes {
            let before = current.len();
            let outcome = pass.run(current, &live_roots)?;
            for slot in &mut remap {
                *slot = slot.and_then(|mid| outcome.remap.get(mid.index()).copied().flatten());
            }
            live_roots = live_roots
                .iter()
                .filter_map(|r| outcome.remap.get(r.index()).copied().flatten())
                .collect();
            report.passes.push(PassStats {
                name: pass.name(),
                nodes_before: before,
                nodes_after: outcome.graph.len(),
                eliminated: outcome.eliminated,
                fused: outcome.fused,
                virtual_ns: before as u64 * PASS_NODE_NS
                    + (outcome.eliminated + outcome.fused) * PASS_REWRITE_NS,
            });
            current = outcome.graph;
        }
        Ok(Optimized {
            graph: current,
            remap,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Op, Padding};
    use crate::tensor::Tensor;

    fn mlp_graph() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 4]);
        let w1 = g.variable("w1", Tensor::full(&[4, 8], 0.1));
        let b1 = g.variable("b1", Tensor::full(&[8], 0.05));
        let h = g.matmul(x, w1).unwrap();
        let h = g.add_bias(h, b1).unwrap();
        let h = g.relu(h).unwrap();
        let w2 = g.variable("w2", Tensor::full(&[8, 2], 0.2));
        let b2 = g.variable("b2", Tensor::zeros(&[2]));
        let o = g.matmul(h, w2).unwrap();
        let o = g.add_bias(o, b2).unwrap();
        (g, x, o)
    }

    #[test]
    fn dce_drops_dead_branches_and_keeps_roots() {
        let (mut g, _x, o) = mlp_graph();
        // A dead head: never reachable from the output.
        let dead_w = g.constant("dead_w", Tensor::full(&[4, 16], 0.3));
        let _ = dead_w;
        let before = g.len();
        let outcome = DeadCodeElimination.run(g, &[o]).unwrap();
        assert_eq!(outcome.eliminated, 1);
        assert_eq!(outcome.graph.len(), before - 1);
        assert!(outcome.remap[o.index()].is_some());
        assert!(outcome.remap[dead_w.index()].is_none());
    }

    #[test]
    fn dce_rejects_foreign_roots() {
        let (g, ..) = mlp_graph();
        assert!(matches!(
            DeadCodeElimination.run(g.clone(), &[NodeId(g.len() + 3)]),
            Err(TensorError::UnknownNode)
        ));
    }

    #[test]
    fn fusion_rewrites_matmul_bias_relu_chains() {
        let (g, _x, o) = mlp_graph();
        let outcome = OperatorFusion.run(g, &[o]).unwrap();
        // Layer 1 (matmul+bias+relu) absorbs 2 nodes, layer 2
        // (matmul+bias, no relu) absorbs 1.
        assert_eq!(outcome.fused, 3);
        let kinds: Vec<&str> = outcome.graph.nodes().iter().map(|n| n.op.kind()).collect();
        assert!(kinds.contains(&"fused_matmul_bias_relu"));
        assert!(kinds.contains(&"fused_matmul_bias"));
        assert!(!kinds.contains(&"matmul"));
        assert!(!kinds.contains(&"add_bias"));
    }

    #[test]
    fn fusion_respects_roots_and_fanout() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 4]);
        let w = g.variable("w", Tensor::full(&[4, 4], 0.1));
        let b = g.variable("b", Tensor::zeros(&[4]));
        let mm = g.matmul(x, w).unwrap();
        let ab = g.add_bias(mm, b).unwrap();
        let _r = g.relu(ab).unwrap();
        // The matmul intermediate is itself fetched: fusing it away
        // would lose the fetch, so the chain must stay unfused.
        let outcome = OperatorFusion.run(g, &[_r, mm]).unwrap();
        assert_eq!(outcome.fused, 0);

        // Fan-out blocks fusion too: the bias output feeds two readers,
        // so only matmul+bias may fuse (relu stays separate).
        let mut g2 = Graph::new();
        let x2 = g2.placeholder("x", &[0, 4]);
        let w2 = g2.variable("w", Tensor::full(&[4, 4], 0.1));
        let b2 = g2.variable("b", Tensor::zeros(&[4]));
        let mm2 = g2.matmul(x2, w2).unwrap();
        let ab2 = g2.add_bias(mm2, b2).unwrap();
        let r2 = g2.relu(ab2).unwrap();
        let s2 = g2.sigmoid(ab2).unwrap();
        let outcome2 = OperatorFusion.run(g2, &[r2, s2]).unwrap();
        assert_eq!(outcome2.fused, 1, "matmul absorbs; relu must not");
        let kinds: Vec<&str> = outcome2.graph.nodes().iter().map(|n| n.op.kind()).collect();
        assert!(kinds.contains(&"fused_matmul_bias"));
        assert!(kinds.contains(&"relu"));
    }

    #[test]
    fn fusion_handles_conv_chains() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 8, 8, 3]);
        let f = g.variable("f", Tensor::full(&[3, 3, 3, 4], 0.1));
        let b = g.variable("b", Tensor::zeros(&[4]));
        let c = g.conv2d(x, f, Padding::Same).unwrap();
        let c = g.add_bias(c, b).unwrap();
        let c = g.relu(c).unwrap();
        let outcome = OperatorFusion.run(g, &[c]).unwrap();
        assert_eq!(outcome.fused, 2);
        assert!(outcome
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.op, Op::FusedConv2d { relu: true, .. })));
    }

    #[test]
    fn folding_collapses_constant_subgraphs() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 4]);
        let c1 = g.constant("c1", Tensor::full(&[4, 3], 0.5));
        let c2 = g.constant("c2", Tensor::full(&[4, 3], -0.2));
        let sum = g.add(c1, c2).unwrap();
        let w = g.relu(sum).unwrap();
        let out = g.matmul(x, w).unwrap();
        let outcome = ConstantFolding.run(g, &[out]).unwrap();
        assert_eq!(outcome.eliminated, 2, "add and relu fold");
        assert!(matches!(
            outcome.graph.nodes()[w.index()].op,
            Op::Constant(_)
        ));
        // In-place pass: identity remap.
        assert_eq!(outcome.remap[out.index()], Some(out));
    }

    #[test]
    fn pipeline_composes_remaps_and_reports() {
        let (mut g, _x, o) = mlp_graph();
        g.constant("dead", Tensor::zeros(&[64]));
        let optimized = Pipeline::lowering().run(g.clone(), &[o]).unwrap();
        // dead constant DCE'd; both layers fused.
        assert_eq!(optimized.report.nodes_eliminated(), 1);
        assert_eq!(optimized.report.nodes_fused(), 3);
        assert!(optimized.report.changed());
        assert_eq!(optimized.report.nodes_before(), g.len());
        assert_eq!(optimized.report.nodes_after(), optimized.graph.len());
        assert!(optimized.report.virtual_ns() > 0);
        // The output survives and its remap is in range.
        let new_o = optimized.target(o).unwrap();
        assert!(new_o.index() < optimized.graph.len());
        // The report's virtual time is a pure function of node counts:
        // running again gives the identical report.
        let again = Pipeline::lowering().run(g, &[o]).unwrap();
        assert_eq!(optimized.report, again.report);
    }

    #[test]
    fn the_pipeline_keeps_equal_subexpressions() {
        // Equal computations and bit-equal constants are distinct nodes
        // after lowering: the lowered graph holds every weight it was
        // built with.
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 2]);
        let w = g.variable("w", Tensor::full(&[2, 2], 0.5));
        let c1 = g.constant("c1", Tensor::full(&[2], 1.5));
        let c2 = g.constant("c2", Tensor::full(&[2], 1.5));
        let m1 = g.matmul(x, w).unwrap();
        let m2 = g.matmul(x, w).unwrap();
        let s = g.add(m1, m2).unwrap();
        let s = g.add_bias(s, c1).unwrap();
        let s = g.add_bias(s, c2).unwrap();
        let lowered = Pipeline::lowering().run(g.clone(), &[s]).unwrap();
        assert_eq!(lowered.graph.len(), g.len());
        assert_eq!(lowered.graph.param_bytes(), g.param_bytes());
        assert_ne!(lowered.target(m1), lowered.target(m2));
        assert_ne!(lowered.target(c1), lowered.target(c2));
    }
}
