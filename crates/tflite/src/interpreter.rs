//! The Lite interpreter: single-input, single-output inference.

use crate::model::LiteModel;
use crate::optimize::optimize_for_inference;
use crate::LiteError;
use securetf_tensor::autodiff::RunStats;
use securetf_tensor::kernels::WorkerPool;
use securetf_tensor::memory::{MemoryStats, PlannedExecutor};
use securetf_tensor::passes::PipelineReport;
use securetf_tensor::tensor::Tensor;
use securetf_tensor::TensorError;
use std::collections::HashMap;

/// [`Interpreter::classify`]'s error for an input or output that is not
/// exactly one row.
fn not_one_row(detail: String) -> LiteError {
    LiteError::Exec(TensorError::ShapeMismatch {
        op: "classify",
        detail: format!("{detail}, not one row"),
    })
}

/// The argmax label of each row of `output`, the model's answer to
/// `input`: one label per input row. An output with another row count
/// (a model whose output does not follow its input's rows) is a typed
/// error, never a shorter or longer list that a caller would index by
/// request.
///
/// # Errors
///
/// [`LiteError::Exec`] with a shape mismatch if the row counts differ,
/// or if `output` is not rank 2.
pub fn row_labels(input: &Tensor, output: &Tensor) -> Result<Vec<usize>, LiteError> {
    let rows = |t: &Tensor| t.shape().first().copied();
    if rows(input) != rows(output) {
        return Err(LiteError::Exec(TensorError::ShapeMismatch {
            op: "classify_batch",
            detail: format!(
                "input {:?} answered by output {:?}, not one row each",
                input.shape(),
                output.shape()
            ),
        }));
    }
    output.argmax_rows().map_err(LiteError::Exec)
}

/// Runs inference over a [`LiteModel`].
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Interpreter {
    model: LiteModel,
    /// The construction-time lowering: its report, or why the pipeline
    /// rejected the model (every `run` then returns that error).
    lowering: Result<PipelineReport, LiteError>,
    stats: RunStats,
    runs: u64,
    pool: WorkerPool,
    planner: PlannedExecutor,
}

impl Interpreter {
    /// Creates an interpreter for `model` with serial kernels.
    pub fn new(model: LiteModel) -> Self {
        Interpreter::with_pool(model, WorkerPool::serial())
    }

    /// Creates an interpreter whose kernels run on `pool`. Outputs are
    /// bit-identical for any pool; only the critical-path cost changes.
    ///
    /// The model is lowered through the compiler's one pipeline
    /// (DCE → fold → fuse) once, at construction, where it lies:
    /// [`optimize_for_inference`] consumes it and moves every weight into
    /// the lowered graph. Every weight whose one reader is a matmul's
    /// right operand is then stored in the GEMM's panel order, in its
    /// own buffer ([`securetf_tensor::passes::pack_matmul_constants`],
    /// the one step that rewrites weights, through one scratch). So
    /// construction holds one copy of the weights plus that scratch, and
    /// takes time in node count plus the pack's one pass over the matmul
    /// weights, the only step that reads them. Every run
    /// executes that graph, whose outputs are bit-identical to the model
    /// as given.
    ///
    /// Construction is infallible: if the pipeline rejects the model the
    /// rejection is stored and returned by every [`Interpreter::run`] —
    /// an un-lowered graph is never executed, and [`Interpreter::model`]
    /// is then a lone placeholder. No [`LiteModel`] that the public API
    /// can build is rejected today (`convert`, `rebound` and `from_bytes`
    /// all validate the input/output bindings and the op set, which is
    /// everything the pipeline checks), so this is a guard for future
    /// passes rather than a reachable path.
    pub fn with_pool(model: LiteModel, pool: WorkerPool) -> Self {
        let shell = model.shell();
        let (model, lowering) = match optimize_for_inference(model) {
            Ok((lowered, report)) => (lowered.with_packed_weights(), Ok(report)),
            Err(rejection) => (shell, Err(rejection)),
        };
        Interpreter {
            model,
            lowering,
            stats: RunStats::default(),
            runs: 0,
            pool,
            planner: PlannedExecutor::new(),
        }
    }

    /// The pass-pipeline report of the construction-time lowering
    /// (`None` if the pipeline rejected the model).
    pub fn pipeline_report(&self) -> Option<&PipelineReport> {
        self.lowering.as_ref().ok()
    }

    /// Replaces the worker pool used by subsequent runs.
    pub fn set_worker_pool(&mut self, pool: WorkerPool) {
        self.pool = pool;
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

    /// Drains the arena slot writes of the last run, for EPC
    /// page-touch replay by a hosting enclave.
    pub fn take_slot_writes(&mut self) -> Vec<securetf_tensor::memory::SlotWrite> {
        self.planner.take_slot_writes()
    }

    /// Runs one inference.
    ///
    /// # Errors
    ///
    /// Returns [`LiteError::Exec`] on shape or graph errors, and the
    /// stored rejection if the pipeline could not lower the model.
    pub fn run(&mut self, input: &Tensor) -> Result<Tensor, LiteError> {
        if let Err(rejection) = &self.lowering {
            return Err(rejection.clone());
        }
        let feeds = [(self.model.input(), input)];
        let (mut outs, mut stats) = self.planner.run(
            self.model.graph(),
            &feeds[..],
            &HashMap::new(),
            &[self.model.output()],
            &self.pool,
        )?;
        let out = outs
            .pop()
            .ok_or(LiteError::MalformedModel("output not computed"))?;
        if self.model.declared_flops() > 0.0 {
            // Synthetic stand-ins execute a reduced spatial extent; charge
            // the original model's declared compute instead.
            stats.rescale_flops(self.model.declared_flops());
        }
        self.stats.merge(stats);
        self.runs += 1;
        Ok(out)
    }

    /// Classifies one `[1, …]` row, `label_image`-style: the one-row case
    /// of [`Interpreter::classify_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`LiteError::Exec`] with a shape mismatch, before running
    /// anything, if `input` is not exactly one row, and on shape or graph
    /// errors.
    pub fn classify(&mut self, input: &Tensor) -> Result<usize, LiteError> {
        if input.shape().first() != Some(&1) {
            return Err(not_one_row(format!("input {:?}", input.shape())));
        }
        let labels = self.classify_batch(input)?;
        match labels[..] {
            [label] => Ok(label),
            _ => Err(not_one_row(format!("{} output rows", labels.len()))),
        }
    }

    /// Classifies a stacked `[batch, …]` input in one pass, returning one
    /// argmax label per input row ([`row_labels`]). Every kernel computes
    /// each output row from its own input row with a fixed reduction
    /// order, so per-row labels are bit-identical to running the rows one
    /// at a time.
    ///
    /// # Errors
    ///
    /// Returns [`LiteError::Exec`] on shape or graph errors, and with a
    /// shape mismatch if the output's row count is not the input's.
    pub fn classify_batch(&mut self, input: &Tensor) -> Result<Vec<usize>, LiteError> {
        let out = self.run(input)?;
        row_labels(input, &out)
    }

    /// The model being interpreted: lowered, its matmul weights packed.
    /// Readers of its constants see no panel order: quantization,
    /// pruning, [`LiteModel::to_bytes`] and the memory plan read the
    /// weights row-major or by shape ([`LiteModel::unpacked`]).
    pub fn model(&self) -> &LiteModel {
        &self.model
    }

    /// Accumulated execution statistics across runs.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// FLOPs of one inference (declared, or measured from the last run).
    pub fn flops_per_run(&self) -> f64 {
        if self.runs == 0 {
            self.model.declared_flops()
        } else {
            self.stats.flops / self.runs as f64
        }
    }

    /// Number of runs so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::plan_memory;
    use crate::optimize::{prune_magnitude, quantize};
    use securetf_tensor::graph::{Graph, Op};

    fn tiny_model(declared: f64) -> LiteModel {
        let mut g = Graph::new();
        let _x = g.placeholder("input", &[0, 4]);
        let w = g.constant(
            "w",
            Tensor::from_vec(&[4, 3], (0..12).map(|i| i as f32 * 0.1).collect()).unwrap(),
        );
        let x = g.by_name("input").unwrap();
        let mm = g.matmul(x, w).unwrap();
        let out = g.softmax(mm).unwrap();
        let name = g.nodes()[out.index()].name.clone();
        LiteModel::convert(&g, "input", &name)
            .unwrap()
            .with_declared_flops(declared)
    }

    /// A frozen dense stack, `matmul → bias → relu` per layer of `dims`
    /// and a softmax head: every weight is a matmul's right operand.
    fn dense_stack(dims: &[usize]) -> LiteModel {
        let mut g = Graph::new();
        let mut x = g.placeholder("input", &[0, dims[0]]);
        for (l, pair) in dims.windows(2).enumerate() {
            let (k, n) = (pair[0], pair[1]);
            let values = (0..k * n).map(|i| ((i * 7 + l) % 19) as f32 * 0.05 - 0.45);
            let w = g.constant(
                &format!("w{l}"),
                Tensor::from_vec(&[k, n], values.collect()).unwrap(),
            );
            let b = g.constant(&format!("b{l}"), Tensor::full(&[n], 0.01 * l as f32));
            x = g.matmul(x, w).unwrap();
            x = g.add_bias(x, b).unwrap();
            x = g.relu(x).unwrap();
        }
        let out = g.softmax(x).unwrap();
        let name = g.nodes()[out.index()].name.clone();
        LiteModel::convert(&g, "input", &name).unwrap()
    }

    fn packed_count(model: &LiteModel) -> usize {
        model
            .graph()
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::PackedConstant(_)))
            .count()
    }

    fn stack_input(rows: usize, width: usize) -> Tensor {
        let data = (0..rows * width).map(|i| (i % 23) as f32 * 0.1 - 1.0);
        Tensor::from_vec(&[rows, width], data.collect()).unwrap()
    }

    #[test]
    fn readers_of_constants_see_the_lowered_model_row_major() {
        let model = dense_stack(&[37, 70, 29, 13]);
        let interp = Interpreter::new(model.clone());
        let (lowered, _) = optimize_for_inference(model).unwrap();
        // Every weight is packed; the biases are not matmul operands.
        assert_eq!(packed_count(interp.model()), 3);
        assert_eq!(packed_count(&lowered), 0);
        assert_eq!(
            quantize(interp.model()).to_bytes(),
            quantize(&lowered).to_bytes()
        );
        let (pruned, report) = prune_magnitude(interp.model(), 0.4);
        let (want, want_report) = prune_magnitude(&lowered, 0.4);
        assert_eq!(report, want_report);
        assert_eq!(pruned.to_bytes(), want.to_bytes());
        assert_eq!(interp.model().to_bytes(), lowered.to_bytes());
        assert_eq!(interp.model().unpacked().to_bytes(), lowered.to_bytes());
        assert_eq!(interp.model().param_bytes(), lowered.param_bytes());
        assert_eq!(
            plan_memory(interp.model(), 9).unwrap(),
            plan_memory(&lowered, 9).unwrap()
        );
        // The debug print names packed weights by shape, never by value.
        let printed = format!("{interp:?}");
        assert!(
            printed.contains("PackedConstant(Panels[37, 70])"),
            "{printed}"
        );
    }

    #[test]
    fn a_weight_with_a_second_reader_stays_row_major() {
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 4]);
        let values = (0..16).map(|i| i as f32 * 0.1 - 0.7).collect();
        let shared = g.constant("shared", Tensor::from_vec(&[4, 4], values).unwrap());
        let sole = g.constant("sole", Tensor::full(&[4, 3], 0.2));
        let h = g.matmul(x, shared).unwrap();
        let h = g.matmul(h, shared).unwrap();
        let out = g.matmul(h, sole).unwrap();
        // Bound by name, and "softmax" is the only one.
        let out = g.softmax(out).unwrap();
        let name = g.nodes()[out.index()].name.clone();
        let model = LiteModel::convert(&g, "input", &name).unwrap();
        let mut interp = Interpreter::new(model.clone());
        let op_of = |name: &str| {
            let id = interp.model().graph().by_name(name).unwrap();
            interp.model().graph().nodes()[id.index()].op.clone()
        };
        assert!(matches!(op_of("shared"), Op::Constant(_)));
        assert!(matches!(op_of("sole"), Op::PackedConstant(_)));
        // A constant that is the model's output is the caller's, too.
        let mut g = Graph::new();
        g.placeholder("input", &[0, 4]);
        g.constant("w", Tensor::full(&[4, 4], 0.5));
        let bound = Interpreter::new(LiteModel::convert(&g, "input", "w").unwrap());
        assert_eq!(packed_count(bound.model()), 0);

        let x = stack_input(5, 4);
        let mut unpacked = PlannedExecutor::new();
        let (want, _) = unpacked
            .run(
                model.graph(),
                &[(model.input(), &x)][..],
                &HashMap::new(),
                &[model.output()],
                &WorkerPool::serial(),
            )
            .unwrap();
        assert_eq!(interp.run(&x).unwrap().data(), want[0].data());
    }

    #[test]
    fn the_lite_bytes_of_a_packed_model_serve_bit_identical_logits() {
        let model = dense_stack(&[19, 1030, 21, 10]);
        let x = stack_input(9, 19);
        let mut interp = Interpreter::with_pool(model, WorkerPool::new(2));
        let want = interp.run(&x).unwrap();
        let bytes = interp.model().to_bytes();
        let mut reloaded =
            Interpreter::with_pool(LiteModel::from_bytes(&bytes).unwrap(), WorkerPool::new(2));
        assert_eq!(packed_count(reloaded.model()), 3);
        let got = reloaded.run(&x).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(reloaded.stats(), interp.stats());
    }

    #[test]
    fn run_produces_probabilities() {
        let mut interp = Interpreter::new(tiny_model(0.0));
        let out = interp
            .run(&Tensor::from_vec(&[1, 4], vec![1.0, 0.0, -1.0, 2.0]).unwrap())
            .unwrap();
        assert_eq!(out.shape(), &[1, 3]);
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn classify_is_argmax() {
        let mut interp = Interpreter::new(tiny_model(0.0));
        // Weights grow with the column index, so a positive input favors
        // the last class.
        let label = interp
            .classify(&Tensor::from_vec(&[1, 4], vec![1.0, 1.0, 1.0, 1.0]).unwrap())
            .unwrap();
        assert_eq!(label, 2);
        // Two rows are not a class query: no flattened index comes back,
        // and nothing runs.
        assert!(matches!(
            interp.classify(&Tensor::zeros(&[2, 4])),
            Err(LiteError::Exec(TensorError::ShapeMismatch { .. }))
        ));
        assert_eq!(interp.runs(), 1);
    }

    #[test]
    fn a_batch_must_come_back_one_row_per_input_row() {
        // The output is a constant row, whatever is fed.
        let mut g = Graph::new();
        g.placeholder("input", &[0, 4]);
        g.constant("w", Tensor::from_vec(&[1, 3], vec![0.1, 0.9, 0.3]).unwrap());
        let mut interp = Interpreter::new(LiteModel::convert(&g, "input", "w").unwrap());
        assert_eq!(
            interp.classify_batch(&Tensor::zeros(&[1, 4])).unwrap(),
            vec![1]
        );
        assert!(matches!(
            interp.classify_batch(&Tensor::zeros(&[3, 4])),
            Err(LiteError::Exec(TensorError::ShapeMismatch {
                op: "classify_batch",
                ..
            }))
        ));
    }

    #[test]
    fn measured_flops_accumulate() {
        let mut interp = Interpreter::new(tiny_model(0.0));
        let x = Tensor::full(&[1, 4], 1.0);
        interp.run(&x).unwrap();
        let one = interp.stats().flops;
        interp.run(&x).unwrap();
        assert_eq!(interp.stats().flops, 2.0 * one);
        assert_eq!(interp.runs(), 2);
        assert_eq!(interp.flops_per_run(), one);
    }

    #[test]
    fn declared_flops_override_measured() {
        let mut interp = Interpreter::new(tiny_model(1e9));
        interp.run(&Tensor::full(&[1, 4], 1.0)).unwrap();
        assert_eq!(interp.stats().flops, 1e9);
        assert_eq!(interp.flops_per_run(), 1e9);
    }

    #[test]
    fn bad_input_shape_errors() {
        let mut interp = Interpreter::new(tiny_model(0.0));
        assert!(matches!(
            interp.run(&Tensor::zeros(&[1, 5])),
            Err(LiteError::Exec(TensorError::BadFeed(_)))
        ));
        // The failed run leaves the interpreter usable, nothing resident
        // and nothing parked in the buffer pool.
        assert_eq!(interp.memory_stats().pooled_bytes, 0);
        interp.run(&Tensor::zeros(&[1, 4])).unwrap();
        assert_eq!(interp.memory_stats().resident_bytes, 0);
    }

    #[test]
    fn unfed_placeholder_errors() {
        // Only the model's input is ever fed; a second placeholder on
        // the output's path is a missing feed, found at its own step.
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 4]);
        let side = g.placeholder("side", &[0, 4]);
        let out = g.add(x, side).unwrap();
        let name = g.nodes()[out.index()].name.clone();
        let mut interp = Interpreter::new(LiteModel::convert(&g, "input", &name).unwrap());
        assert!(matches!(
            interp.run(&Tensor::zeros(&[1, 4])),
            Err(LiteError::Exec(TensorError::BadFeed(_)))
        ));
        assert_eq!(interp.memory_stats().resident_bytes, 0);
        assert_eq!(interp.memory_stats().pooled_bytes, 0);
    }

    #[test]
    fn operand_shape_mismatch_errors() {
        // The graph builder does not check shapes: 4 columns meet 5 rows.
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 4]);
        let w = g.constant("w", Tensor::full(&[5, 2], 0.1));
        let out = g.matmul(x, w).unwrap();
        let name = g.nodes()[out.index()].name.clone();
        let mut interp = Interpreter::new(LiteModel::convert(&g, "input", &name).unwrap());
        for _ in 0..2 {
            assert!(matches!(
                interp.run(&Tensor::zeros(&[1, 4])),
                Err(LiteError::Exec(TensorError::ShapeMismatch { .. }))
            ));
            assert_eq!(interp.memory_stats().resident_bytes, 0);
        }
    }

    #[test]
    fn deterministic_outputs() {
        let mut a = Interpreter::new(tiny_model(0.0));
        let mut b = Interpreter::new(tiny_model(0.0));
        let x = Tensor::from_vec(&[2, 4], vec![0.5; 8]).unwrap();
        assert_eq!(a.run(&x).unwrap().data(), b.run(&x).unwrap().data());
    }

    #[test]
    fn batched_classify_matches_single_rows_bitwise() {
        let mut batched = Interpreter::new(tiny_model(0.0));
        let mut single = Interpreter::new(tiny_model(0.0));
        let rows = 9usize;
        let data: Vec<f32> = (0..rows * 4).map(|i| (i % 13) as f32 * 0.3 - 1.5).collect();
        let stacked = Tensor::from_vec(&[rows, 4], data.clone()).unwrap();
        let labels = batched.classify_batch(&stacked).unwrap();
        assert_eq!(labels.len(), rows);
        for (r, &label) in labels.iter().enumerate() {
            let row = Tensor::from_vec(&[1, 4], data[r * 4..(r + 1) * 4].to_vec()).unwrap();
            assert_eq!(single.classify(&row).unwrap(), label, "row {r}");
        }
    }

    #[test]
    fn pooled_interpreter_matches_serial_bitwise() {
        let mut serial = Interpreter::new(tiny_model(0.0));
        let mut pooled = Interpreter::with_pool(tiny_model(0.0), WorkerPool::new(4));
        // A batch tall enough to span several row blocks.
        let x = Tensor::from_vec(
            &[130, 4],
            (0..520).map(|i| (i % 23) as f32 * 0.1 - 1.0).collect(),
        )
        .unwrap();
        let a = serial.run(&x).unwrap();
        let b = pooled.run(&x).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(serial.stats().flops, pooled.stats().flops);
        assert!(pooled.stats().critical_flops < serial.stats().critical_flops);

        // A serving batch on a Densenet-shaped stack (two 1024-wide
        // matmul → bias → relu layers and a 10-column tail): 8 rows are
        // one row block, so the kernels split the columns and the
        // critical path is a worker's share — all but the narrow tail
        // and the softmax, which stay on one worker.
        let slice = crate::models::ModelSpec {
            name: "densenet_slice",
            bytes: 4 * (2 * (1024 * 1024 + 1024) + 10 * (1024 + 1)),
            flops: 0.0,
        };
        let x = crate::models::input_for(8);
        let workers = 2;
        let mut serial = Interpreter::new(crate::models::build(slice));
        let mut pooled =
            Interpreter::with_pool(crate::models::build(slice), WorkerPool::new(workers));
        assert_eq!(
            bits(&serial.run(&x).unwrap()),
            bits(&pooled.run(&x).unwrap())
        );
        assert_eq!(serial.stats().flops, pooled.stats().flops);
        assert_eq!(serial.stats().critical_flops, serial.stats().flops);
        let share = pooled.stats().critical_flops / (pooled.stats().flops / workers as f64);
        assert!(
            (1.0..1.02).contains(&share),
            "critical path is {share} of flops / workers"
        );
    }
}
