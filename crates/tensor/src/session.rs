//! Sessions: stateful graph execution (TensorFlow's `tf.Session`).

use crate::autodiff::RunStats;
use crate::graph::{Graph, NodeId, Op};
use crate::kernels::WorkerPool;
use crate::memory::{MemoryStats, PlannedExecutor, SlotWrite};
use crate::optimizer::Optimizer;
use crate::passes::{Pipeline, PipelineReport};
use crate::tensor::Tensor;
use crate::TensorError;
use std::collections::HashMap;

/// A pipeline-optimized graph cached by the session, for the caller's
/// graph at `version` lowered for `roots`.
#[derive(Debug, Clone)]
struct CompiledGraph {
    version: u64,
    roots: Vec<NodeId>,
    graph: Graph,
    /// Original-id → optimized-id map; `None` for eliminated nodes.
    remap: Vec<Option<NodeId>>,
    report: PipelineReport,
}

impl CompiledGraph {
    /// The compiled id of `original`, if the node survived lowering.
    fn target(&self, original: NodeId) -> Option<NodeId> {
        self.remap.get(original.index()).copied().flatten()
    }

    /// `feeds` keyed by compiled ids, still borrowed from the caller;
    /// feeds of eliminated nodes drop out.
    fn translate_feeds<'t>(&self, feeds: &'t [(NodeId, Tensor)]) -> Vec<(NodeId, &'t Tensor)> {
        feeds
            .iter()
            .filter_map(|(id, t)| self.target(*id).map(|new_id| (new_id, t)))
            .collect()
    }
}

/// The session's compiled graphs. An entry serves a request when the
/// caller's graph has the version it was lowered from and the roots
/// are the same, compared exactly: a graph's version changes with every
/// edit of a node, so nothing that shapes the lowering can slip past
/// the comparison. `run` and `train` lower through the same pipeline,
/// so one compiled graph serves both for the same roots. Variable
/// values are not part of the lowering — folding never evaluates them
/// and execution reads them from the session's own state.
#[derive(Debug, Clone, Default)]
struct CompileCache {
    entries: Vec<CompiledGraph>,
    /// Index of the most recently used entry.
    last: Option<usize>,
    /// Reports of the lowerings since the last drain.
    fresh_reports: Vec<PipelineReport>,
}

impl CompileCache {
    /// The compiled form of `graph` for `roots`, lowered now if no entry
    /// has it.
    fn get(&mut self, graph: &Graph, roots: &[NodeId]) -> Result<&CompiledGraph, TensorError> {
        let version = graph.version();
        let hit = self
            .entries
            .iter()
            .position(|c| c.version == version && c.roots == roots);
        let index = match hit {
            Some(index) => index,
            None => {
                // The graph is the caller's: the pipeline lowers a copy.
                let optimized = Pipeline::lowering().run(graph.clone(), roots)?;
                // Bound the cache: sessions normally see a handful of
                // distinct (graph, fetch-set) pairs; a runaway caller
                // resets rather than grows without limit.
                if self.entries.len() >= 16 {
                    self.entries.clear();
                }
                self.fresh_reports.push(optimized.report.clone());
                self.entries.push(CompiledGraph {
                    version,
                    roots: roots.to_vec(),
                    graph: optimized.graph,
                    remap: optimized.remap,
                    report: optimized.report,
                });
                self.entries.len() - 1
            }
        };
        self.last = Some(index);
        Ok(&self.entries[index])
    }
}

/// Owns variable state and runs graphs.
#[derive(Debug, Clone)]
pub struct Session {
    vars: HashMap<NodeId, Tensor>,
    stats: RunStats,
    pool: WorkerPool,
    planner: PlannedExecutor,
    compiled: CompileCache,
}

impl Session {
    /// Creates a session with variables at their initial values.
    pub fn new(graph: &Graph) -> Self {
        let vars = graph
            .variables()
            .into_iter()
            .filter_map(|id| match &graph.nodes()[id.0].op {
                Op::Variable { init } => Some((id, init.clone())),
                _ => None,
            })
            .collect();
        Session {
            vars,
            stats: RunStats::default(),
            pool: WorkerPool::serial(),
            planner: PlannedExecutor::new(),
            compiled: CompileCache::default(),
        }
    }

    /// The pipeline report of the most recently used compiled graph,
    /// if the session has optimized anything yet.
    pub fn pipeline_report(&self) -> Option<&PipelineReport> {
        let compiled = &self.compiled;
        compiled.last.map(|index| &compiled.entries[index].report)
    }

    /// Drains the reports of pipeline runs performed since the last
    /// call (one per newly compiled graph; cache hits produce none).
    /// The TEE layer turns these into `compiler.*` telemetry.
    pub fn take_pipeline_reports(&mut self) -> Vec<PipelineReport> {
        std::mem::take(&mut self.compiled.fresh_reports)
    }

    /// Moves the session's variable values into the optimized graph's
    /// id space (zero-copy). Returns the translated map and the
    /// `(new_id, old_id)` pairs needed to move them back.
    fn translate_vars(
        vars: &mut HashMap<NodeId, Tensor>,
        graph: &Graph,
        remap: &[Option<NodeId>],
    ) -> (HashMap<NodeId, Tensor>, Vec<(NodeId, NodeId)>) {
        let mut translated = HashMap::with_capacity(vars.len());
        let mut back = Vec::with_capacity(vars.len());
        for old in graph.variables() {
            if let Some(new_id) = remap.get(old.index()).copied().flatten() {
                if let Some(value) = vars.remove(&old) {
                    translated.insert(new_id, value);
                    back.push((new_id, old));
                }
            }
        }
        (translated, back)
    }

    /// Moves translated variable values back under their original ids.
    fn restore_vars(
        vars: &mut HashMap<NodeId, Tensor>,
        translated: &mut HashMap<NodeId, Tensor>,
        back: &[(NodeId, NodeId)],
    ) {
        for &(new_id, old) in back {
            if let Some(value) = translated.remove(&new_id) {
                vars.insert(old, value);
            }
        }
    }

    /// Sets the worker pool used by the compute kernels. Results are
    /// bit-identical for any pool; only the critical-path cost changes.
    pub fn set_worker_pool(&mut self, pool: WorkerPool) {
        self.pool = pool;
    }

    /// The worker pool kernels currently run on.
    pub fn worker_pool(&self) -> WorkerPool {
        self.pool
    }

    /// Arena size required by the current execution plan, if any run
    /// has planned.
    pub fn planned_peak_bytes(&self) -> Option<u64> {
        self.planner.planned_peak_bytes()
    }

    /// Memory-planner statistics (zeros before the first run).
    pub fn memory_stats(&self) -> MemoryStats {
        self.planner.memory_stats()
    }

    /// Drains the arena slot writes recorded since the last call; the
    /// TEE layer replays them as EPC page touches.
    pub fn take_slot_writes(&mut self) -> Vec<SlotWrite> {
        self.planner.take_slot_writes()
    }

    /// Evaluates `fetches` with the given placeholder feeds.
    ///
    /// # Errors
    ///
    /// Propagates [`PlannedExecutor::run`] errors.
    pub fn run(
        &mut self,
        graph: &Graph,
        feeds: &[(NodeId, Tensor)],
        fetches: &[NodeId],
    ) -> Result<Vec<Tensor>, TensorError> {
        for &fetch in fetches {
            graph.node(fetch)?;
        }
        let compiled = self.compiled.get(graph, fetches)?;
        let feed_map = compiled.translate_feeds(feeds);
        let new_fetches: Vec<NodeId> = fetches
            .iter()
            .map(|&f| compiled.target(f).ok_or(TensorError::UnknownNode))
            .collect::<Result<_, _>>()?;
        let (mut tvars, back) = Self::translate_vars(&mut self.vars, graph, &compiled.remap);
        let result = self.planner.run(
            &compiled.graph,
            &feed_map[..],
            &tvars,
            &new_fetches,
            &self.pool,
        );
        Self::restore_vars(&mut self.vars, &mut tvars, &back);
        let (outs, stats) = result?;
        self.stats.merge(stats);
        Ok(outs)
    }

    /// Runs one training step: forward, backward, optimizer update.
    /// Returns the loss value.
    ///
    /// # Errors
    ///
    /// Propagates executor errors; additionally
    /// [`TensorError::InvalidGraph`] if `loss` is not scalar.
    pub fn train_step(
        &mut self,
        graph: &Graph,
        feeds: &[(NodeId, Tensor)],
        loss: NodeId,
        optimizer: &mut dyn Optimizer,
    ) -> Result<f32, TensorError> {
        let (loss_value, grads, fwd_stats) = self.forward_backward(graph, feeds, loss)?;
        // Backward costs roughly 2x forward compute.
        let mut stats = fwd_stats;
        stats.scale_compute(3.0);
        stats.activation_bytes *= 2;
        self.stats.merge(stats);
        for var in graph.variables() {
            if let Some(grad) = grads.get(&var) {
                let value = self
                    .vars
                    .get_mut(&var)
                    .ok_or(TensorError::InvalidGraph("untracked variable"))?;
                optimizer.apply(var, value, grad)?;
            }
        }
        Ok(loss_value)
    }

    /// Forward + backward on the compiled graph. Returns the loss value,
    /// the gradient of every variable, and the forward stats.
    fn forward_backward(
        &mut self,
        graph: &Graph,
        feeds: &[(NodeId, Tensor)],
        loss: NodeId,
    ) -> Result<(f32, HashMap<NodeId, Tensor>, RunStats), TensorError> {
        graph.node(loss)?;
        let compiled = self.compiled.get(graph, &[loss])?;
        let new_loss = compiled.target(loss).ok_or(TensorError::UnknownNode)?;
        let new_feeds = compiled.translate_feeds(feeds);
        let (mut tvars, back) = Self::translate_vars(&mut self.vars, graph, &compiled.remap);
        let result = self.planner.train(
            &compiled.graph,
            &new_feeds[..],
            &tvars,
            new_loss,
            &self.pool,
        );
        Self::restore_vars(&mut self.vars, &mut tvars, &back);
        let (loss_value, mut grads, stats) = result?;
        // Gradients come back in the optimized id space; translate
        // to the caller's original variable ids.
        let var_grads = back
            .iter()
            .filter_map(|&(new_id, old)| grads.remove(&new_id).map(|g| (old, g)))
            .collect();
        Ok((loss_value, var_grads, stats))
    }

    /// Computes gradients without applying them (used by the
    /// parameter-server workers, which ship gradients over the network).
    ///
    /// # Errors
    ///
    /// Propagates executor errors.
    pub fn gradients(
        &mut self,
        graph: &Graph,
        feeds: &[(NodeId, Tensor)],
        loss: NodeId,
    ) -> Result<(f32, HashMap<NodeId, Tensor>), TensorError> {
        let (loss_value, var_grads, fwd_stats) = self.forward_backward(graph, feeds, loss)?;
        let mut stats = fwd_stats;
        stats.scale_compute(3.0);
        stats.activation_bytes *= 2;
        self.stats.merge(stats);
        Ok((loss_value, var_grads))
    }

    /// Current value of a variable.
    pub fn variable(&self, id: NodeId) -> Option<&Tensor> {
        self.vars.get(&id)
    }

    /// Overwrites a variable's value (parameter-server weight install).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] if the variable is untracked,
    /// or [`TensorError::ShapeMismatch`] if the shape differs.
    pub fn set_variable(&mut self, id: NodeId, value: Tensor) -> Result<(), TensorError> {
        let existing = self.vars.get_mut(&id).ok_or(TensorError::UnknownNode)?;
        if existing.shape() != value.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "set_variable",
                detail: format!("{:?} vs {:?}", existing.shape(), value.shape()),
            });
        }
        *existing = value;
        Ok(())
    }

    /// All variables and their current values, ordered by id.
    pub fn variables(&self) -> Vec<(NodeId, &Tensor)> {
        let mut v: Vec<_> = self.vars.iter().map(|(id, t)| (*id, t)).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    /// Accumulated execution statistics (FLOPs and activation bytes) of
    /// every run so far; the TEE layer converts these into virtual time.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Resets accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = RunStats::default();
    }

    /// Total bytes of variable state (the trainable model size).
    pub fn param_bytes(&self) -> u64 {
        self.vars.values().map(Tensor::byte_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Sgd;

    fn xor_setup() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
        // A 2-4-2 MLP for XOR: genuinely needs the hidden layer.
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 2]);
        let labels = g.placeholder("y", &[0, 2]);
        let mut rng = seeded_rng();
        let w1 = g.variable("w1", Tensor::glorot(&[2, 8], &mut rng));
        let b1 = g.variable("b1", Tensor::zeros(&[8]));
        let w2 = g.variable("w2", Tensor::glorot(&[8, 2], &mut rng));
        let b2 = g.variable("b2", Tensor::zeros(&[2]));
        let h = g.matmul(x, w1).unwrap();
        let h = g.add_bias(h, b1).unwrap();
        let h = g.relu(h).unwrap();
        let logits = g.matmul(h, w2).unwrap();
        let logits = g.add_bias(logits, b2).unwrap();
        let loss = g.softmax_cross_entropy(logits, labels).unwrap();
        (g, x, labels, logits, loss)
    }

    fn seeded_rng() -> impl rand::Rng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(42)
    }

    fn xor_batch() -> (Tensor, Tensor) {
        let x = Tensor::from_vec(&[4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap();
        let y = Tensor::from_vec(&[4, 2], vec![1., 0., 0., 1., 0., 1., 1., 0.]).unwrap();
        (x, y)
    }

    #[test]
    fn training_learns_xor() {
        let (g, x, labels, logits, loss) = xor_setup();
        let mut session = Session::new(&g);
        let mut sgd = Sgd::new(0.5);
        let (xd, yd) = xor_batch();
        let mut last = f32::INFINITY;
        for _ in 0..500 {
            last = session
                .train_step(&g, &[(x, xd.clone()), (labels, yd.clone())], loss, &mut sgd)
                .unwrap();
        }
        assert!(last < 0.05, "loss did not converge: {last}");
        let out = session.run(&g, &[(x, xd)], &[logits]).unwrap();
        let preds = out[0].argmax_rows().unwrap();
        assert_eq!(preds, vec![0, 1, 1, 0]);
    }

    #[test]
    fn loss_decreases_monotonically_at_start() {
        let (g, x, labels, _logits, loss) = xor_setup();
        let mut session = Session::new(&g);
        let mut sgd = Sgd::new(0.1);
        let (xd, yd) = xor_batch();
        let l1 = session
            .train_step(&g, &[(x, xd.clone()), (labels, yd.clone())], loss, &mut sgd)
            .unwrap();
        let mut l_final = l1;
        for _ in 0..20 {
            l_final = session
                .train_step(&g, &[(x, xd.clone()), (labels, yd.clone())], loss, &mut sgd)
                .unwrap();
        }
        assert!(l_final < l1, "{l_final} >= {l1}");
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let (g, x, labels, _logits, loss) = xor_setup();
        let mut session = Session::new(&g);
        let mut sgd = Sgd::new(0.1);
        let (xd, yd) = xor_batch();
        session
            .train_step(&g, &[(x, xd), (labels, yd)], loss, &mut sgd)
            .unwrap();
        assert!(session.stats().flops > 0.0);
        session.reset_stats();
        assert_eq!(session.stats().flops, 0.0);
    }

    #[test]
    fn set_variable_validates_shape() {
        let (g, ..) = xor_setup();
        let mut session = Session::new(&g);
        let w1 = g.by_name("w1").unwrap();
        assert!(session.set_variable(w1, Tensor::zeros(&[2, 8])).is_ok());
        assert!(session.set_variable(w1, Tensor::zeros(&[3, 8])).is_err());
        let foreign = NodeId(999);
        assert!(session.set_variable(foreign, Tensor::zeros(&[1])).is_err());
    }

    #[test]
    fn gradients_match_train_step_effect() {
        let (g, x, labels, _logits, loss) = xor_setup();
        let mut s1 = Session::new(&g);
        let mut s2 = Session::new(&g);
        let (xd, yd) = xor_batch();
        // s1: manual gradient application must equal s2's train_step.
        let (l1, grads) = s1
            .gradients(&g, &[(x, xd.clone()), (labels, yd.clone())], loss)
            .unwrap();
        for (var, grad) in &grads {
            let updated = s1
                .variable(*var)
                .unwrap()
                .zip(grad, |v, g| v - 0.5 * g)
                .unwrap();
            s1.set_variable(*var, updated).unwrap();
        }
        let mut sgd = Sgd::new(0.5);
        let l2 = s2
            .train_step(&g, &[(x, xd), (labels, yd)], loss, &mut sgd)
            .unwrap();
        assert_eq!(l1, l2);
        for v in g.variables() {
            assert_eq!(
                s1.variable(v).unwrap().data(),
                s2.variable(v).unwrap().data()
            );
        }
    }

    #[test]
    fn multiple_fetches_and_variable_fetch() {
        let (g, x, _labels, logits, _loss) = xor_setup();
        let mut session = Session::new(&g);
        let w1 = g.by_name("w1").unwrap();
        let (xd, _) = xor_batch();
        let out = session.run(&g, &[(x, xd)], &[logits, w1]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].shape(), &[4, 2]);
        assert_eq!(out[1].shape(), &[2, 8]);
        // Fetching only a variable needs no placeholder feeds at all.
        let only_var = session.run(&g, &[], &[w1]).unwrap();
        assert_eq!(only_var[0].shape(), &[2, 8]);
    }

    #[test]
    fn fetching_foreign_node_errors() {
        let (g, ..) = xor_setup();
        let mut session = Session::new(&g);
        let mut other = Graph::new();
        let foreign = other.placeholder("f", &[1]);
        let _ = foreign;
        // An id beyond this graph's length.
        let bad = NodeId(g.len() + 5);
        assert!(matches!(
            session.run(&g, &[], &[bad]),
            Err(TensorError::UnknownNode)
        ));
    }

    #[test]
    fn adam_trains_xor_too() {
        use crate::optimizer::Adam;
        let (g, x, labels, logits, loss) = xor_setup();
        let mut session = Session::new(&g);
        let mut adam = Adam::new(0.02);
        let (xd, yd) = xor_batch();
        for _ in 0..400 {
            session
                .train_step(
                    &g,
                    &[(x, xd.clone()), (labels, yd.clone())],
                    loss,
                    &mut adam,
                )
                .unwrap();
        }
        let out = session.run(&g, &[(x, xd)], &[logits]).unwrap();
        assert_eq!(out[0].argmax_rows().unwrap(), vec![0, 1, 1, 0]);
    }

    #[test]
    fn pooled_training_is_bit_identical_to_serial() {
        let (g, x, labels, logits, loss) = xor_setup();
        let mut serial = Session::new(&g);
        let mut pooled = Session::new(&g);
        pooled.set_worker_pool(WorkerPool::new(4));
        assert_eq!(pooled.worker_pool().workers(), 4);
        let (xd, yd) = xor_batch();
        let mut sgd_a = Sgd::new(0.5);
        let mut sgd_b = Sgd::new(0.5);
        for _ in 0..25 {
            let la = serial
                .train_step(
                    &g,
                    &[(x, xd.clone()), (labels, yd.clone())],
                    loss,
                    &mut sgd_a,
                )
                .unwrap();
            let lb = pooled
                .train_step(
                    &g,
                    &[(x, xd.clone()), (labels, yd.clone())],
                    loss,
                    &mut sgd_b,
                )
                .unwrap();
            assert_eq!(la.to_bits(), lb.to_bits());
        }
        let oa = serial.run(&g, &[(x, xd.clone())], &[logits]).unwrap();
        let ob = pooled.run(&g, &[(x, xd)], &[logits]).unwrap();
        assert_eq!(oa[0].data(), ob[0].data());
        assert_eq!(serial.stats().flops, pooled.stats().flops);
        assert!(pooled.stats().critical_flops <= serial.stats().critical_flops);
    }

    #[test]
    fn execution_errors_are_typed_and_leave_the_session_usable() {
        // `a` accepts any [rows, cols], so a feed can reach the matmul
        // with the wrong inner dimension.
        let mut g = Graph::new();
        let a = g.placeholder("a", &[0, 0]);
        let t = g.placeholder("t", &[0, 2]);
        let w = g.variable("w", Tensor::full(&[3, 2], 0.1));
        let y = g.matmul(a, w).unwrap();
        let loss = g.mse_loss(y, t).unwrap();
        let mut session = Session::new(&g);
        // The graph grows a variable the session never saw.
        let mut grown = g.clone();
        let late = grown.variable("late", Tensor::zeros(&[3, 2]));
        let late_y = grown.matmul(a, late).unwrap();
        let late_loss = grown.mse_loss(late_y, t).unwrap();

        let good = [
            (a, Tensor::full(&[4, 3], 0.5)),
            (t, Tensor::full(&[4, 2], 1.0)),
        ];
        // (what, graph, fetch, loss, feeds, an error of the expected variant)
        let bad_feed = TensorError::BadFeed(String::new());
        let shape_mismatch = TensorError::ShapeMismatch {
            op: "",
            detail: String::new(),
        };
        let cases = [
            (
                "missing feed",
                &g,
                y,
                loss,
                vec![good[1].clone()],
                bad_feed.clone(),
            ),
            (
                "mis-shaped feed",
                &g,
                y,
                loss,
                vec![(a, Tensor::zeros(&[4, 3, 1])), good[1].clone()],
                bad_feed,
            ),
            (
                "variable without value",
                &grown,
                late_y,
                late_loss,
                good.to_vec(),
                TensorError::InvalidGraph(""),
            ),
            (
                "operand shape mismatch",
                &g,
                y,
                loss,
                vec![(a, Tensor::zeros(&[4, 5])), good[1].clone()],
                shape_mismatch,
            ),
        ];
        let variant = std::mem::discriminant::<TensorError>;
        let mut sgd = Sgd::new(0.1);
        for (what, graph, fetch, loss_node, feeds, like) in cases {
            let err = session.run(graph, &feeds, &[fetch]).unwrap_err();
            assert_eq!(variant(&err), variant(&like), "run, {what}: {err:?}");
            session.run(&g, &good, &[y]).unwrap();
            assert_eq!(session.memory_stats().resident_bytes, 0, "run, {what}");

            let err = session
                .train_step(graph, &feeds, loss_node, &mut sgd)
                .unwrap_err();
            assert_eq!(variant(&err), variant(&like), "train_step, {what}: {err:?}");
            session.train_step(&g, &good, loss, &mut sgd).unwrap();
            assert_eq!(
                session.memory_stats().resident_bytes,
                0,
                "train_step, {what}"
            );
        }
    }

    #[test]
    fn new_batch_size_replans_and_matches_a_fresh_session() {
        let (g, x, labels, logits, loss) = xor_setup();
        let batch_of = |rows: usize| {
            let x = Tensor::from_vec(
                &[rows, 2],
                (0..rows * 2).map(|i| (i % 5) as f32 * 0.3).collect(),
            );
            let mut y = vec![0.0f32; rows * 2];
            for row in 0..rows {
                y[row * 2 + row % 2] = 1.0;
            }
            (x.unwrap(), Tensor::from_vec(&[rows, 2], y).unwrap())
        };
        let observe = |session: &mut Session, rows: usize| {
            let (xd, yd) = batch_of(rows);
            let out = session.run(&g, &[(x, xd.clone())], &[logits]).unwrap();
            let run_peak = session.planned_peak_bytes();
            let (loss_value, grads) = session
                .gradients(&g, &[(x, xd), (labels, yd)], loss)
                .unwrap();
            let mut grads: Vec<_> = grads.into_iter().collect();
            grads.sort_by_key(|(id, _)| *id);
            (out, run_peak, loss_value.to_bits(), grads)
        };
        let mut long_lived = Session::new(&g);
        let small = observe(&mut long_lived, 4);
        let large = observe(&mut long_lived, 7);
        assert!(large.1 > small.1, "plan did not grow with the batch");
        assert_eq!(large, observe(&mut Session::new(&g), 7));
        assert_eq!(small, observe(&mut long_lived, 4));
    }

    #[test]
    fn a_warm_session_runs_a_reshaped_graph_like_a_fresh_one() {
        // Two graphs alike but for the reshapes' target shapes, through
        // one session: the second lowers and plans on its own.
        let reshaped = |a: &[usize], b: &[usize]| {
            let mut g = Graph::new();
            let x = g.placeholder("x", &[12]);
            let y = g.placeholder("y", &[12]);
            let xr = g.reshape(x, a).unwrap();
            let yr = g.reshape(y, b).unwrap();
            let out = g.matmul(xr, yr).unwrap();
            let ramp = |step| (0..12).map(|i| (i * step) as f32).collect();
            let feeds = vec![
                (x, Tensor::from_vec(&[12], ramp(1)).unwrap()),
                (y, Tensor::from_vec(&[12], ramp(3)).unwrap()),
            ];
            (g, feeds, out)
        };
        let (square, square_feeds, square_out) = reshaped(&[3, 4], &[4, 3]);
        let (wide, wide_feeds, wide_out) = reshaped(&[6, 2], &[2, 6]);
        let mut session = Session::new(&square);
        let out = session.run(&square, &square_feeds, &[square_out]).unwrap();
        assert_eq!(out[0].shape(), &[3, 3]);
        let warm = session.run(&wide, &wide_feeds, &[wide_out]);
        let fresh = Session::new(&wide).run(&wide, &wide_feeds, &[wide_out]);
        assert_eq!(warm, fresh);
        assert_eq!(warm.unwrap()[0].shape(), &[6, 6]);
    }

    #[test]
    fn a_constant_replaced_in_place_is_seen_by_the_next_run() {
        // `x + 2c`: lowering folds `2c` into a new constant, so a stale
        // compiled graph would keep the old values.
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 3]);
        let c = g.constant("c", Tensor::full(&[3], 1.0));
        let doubled = g.scale(c, 2.0).unwrap();
        let y = g.add_bias(x, doubled).unwrap();
        let feeds = [(x, Tensor::full(&[2, 3], 0.5))];
        let mut session = Session::new(&g);
        assert_eq!(session.run(&g, &feeds, &[y]).unwrap()[0].data(), &[2.5; 6]);

        g.replace_constant(c, Tensor::from_vec(&[3], vec![1.0, -1.0, 4.0]).unwrap())
            .unwrap();
        let warm = session.run(&g, &feeds, &[y]).unwrap();
        assert_eq!(warm, Session::new(&g).run(&g, &feeds, &[y]).unwrap());
        assert_eq!(warm[0].data(), &[2.5, -1.5, 8.5, 2.5, -1.5, 8.5]);
    }

    #[test]
    fn param_bytes_counts_all_variables() {
        let (g, ..) = xor_setup();
        let session = Session::new(&g);
        // w1 2x8 + b1 8 + w2 8x2 + b2 2 = 42 floats = 168 bytes.
        assert_eq!(session.param_bytes(), 168);
    }
}
