//! Single-node secure training/inference sessions.
//!
//! A [`SecureSession`] wraps a `securetf-tensor` session inside an
//! enclave: variable state and activations are accounted against the
//! EPC, compute is charged at the mode's rate, and checkpoints reach
//! untrusted storage only through the fs shield. This is the building
//! block the quickstart example and the accuracy-parity tests use.

use crate::SecureTfError;
use securetf_shield::fs::FsShield;
use securetf_tee::{Enclave, RegionId};
use securetf_tensor::freeze;
use securetf_tensor::graph::NodeId;
use securetf_tensor::layers::Classifier;
use securetf_tensor::optimizer::Optimizer;
use securetf_tensor::session::Session;
use securetf_tensor::tensor::Tensor;
use std::sync::Arc;

/// A training/inference session running inside an enclave.
pub struct SecureSession {
    enclave: Arc<Enclave>,
    model: Classifier,
    session: Session,
    params_region: RegionId,
    activations_region: RegionId,
    activations_bytes: u64,
}

impl std::fmt::Debug for SecureSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureSession")
            .field("mode", &self.enclave.mode())
            .finish_non_exhaustive()
    }
}

impl SecureSession {
    /// Creates a session for `model` inside `enclave`.
    pub fn new(enclave: Arc<Enclave>, model: Classifier) -> SecureSession {
        let session = Session::new(&model.graph);
        let params_region = enclave.alloc("params", session.param_bytes());
        let activations_region = enclave.alloc("activations", 1);
        SecureSession {
            enclave,
            model,
            session,
            params_region,
            activations_region,
            activations_bytes: 1,
        }
    }

    /// Sets the worker pool used by the compute kernels. Results are
    /// bit-identical for any pool; only virtual compute time shrinks.
    pub fn set_worker_pool(&mut self, pool: securetf_tensor::kernels::WorkerPool) {
        self.session.set_worker_pool(pool);
    }

    /// Charges the compiler's work for every graph compiled since the
    /// last charge ([`crate::charge_compiler_report`]).
    fn charge_compiler_reports(&mut self) {
        for report in self.session.take_pipeline_reports() {
            crate::charge_compiler_report(&self.enclave, &report);
        }
    }

    fn charge(&mut self) -> Result<(), SecureTfError> {
        self.charge_compiler_reports();
        let stats = self.session.stats();
        self.session.reset_stats();
        self.enclave
            .charge_parallel_compute(stats.flops, stats.critical_flops);
        crate::attribute_kernel_flops(&self.enclave, &stats);
        self.enclave.touch_all(self.params_region)?;
        // One persistent region sized to the planned arena peak:
        // resident pages survive across steps, so steady-state
        // training faults only when the plan (and the region) grows.
        let mem = self.session.memory_stats();
        let peak = mem.planned_peak_bytes.max(1);
        if peak != self.activations_bytes {
            self.enclave.free(self.activations_region)?;
            self.activations_region = self.enclave.alloc("activations", peak);
            self.activations_bytes = peak;
        }
        for w in self.session.take_slot_writes() {
            self.enclave
                .touch(self.activations_region, w.offset, w.bytes)?;
        }
        crate::export_memory_gauges(&self.enclave, &mem);
        Ok(())
    }

    /// Runs one training step, returning the loss.
    ///
    /// # Errors
    ///
    /// Propagates execution and TEE errors.
    pub fn train_step(
        &mut self,
        images: Tensor,
        labels: Tensor,
        optimizer: &mut dyn Optimizer,
    ) -> Result<f32, SecureTfError> {
        self.enclave.charge_syscall();
        self.session.reset_stats();
        let loss = self.session.train_step(
            &self.model.graph,
            &[(self.model.input, images), (self.model.labels, labels)],
            self.model.loss,
            optimizer,
        )?;
        self.charge()?;
        Ok(loss)
    }

    /// Classifies a batch, returning predicted labels.
    ///
    /// # Errors
    ///
    /// Propagates execution and TEE errors.
    pub fn classify(&mut self, images: Tensor) -> Result<Vec<usize>, SecureTfError> {
        self.session.reset_stats();
        let out = self.session.run(
            &self.model.graph,
            &[(self.model.input, images)],
            &[self.model.logits],
        )?;
        self.charge()?;
        Ok(out[0].argmax_rows()?)
    }

    /// Classification accuracy over a dataset.
    ///
    /// # Errors
    ///
    /// Propagates execution and TEE errors.
    pub fn accuracy(&mut self, data: &securetf_data::Dataset) -> Result<f64, SecureTfError> {
        let (x, _) = data.batch(0, data.len())?;
        let preds = self.classify(x)?;
        let correct = preds
            .iter()
            .enumerate()
            .filter(|(i, &p)| data.label(*i) == Some(p))
            .count();
        Ok(correct as f64 / data.len() as f64)
    }

    /// Saves a checkpoint to `path` through `shield`: a journaled,
    /// encrypted and authenticated write.
    ///
    /// # Errors
    ///
    /// [`SecureTfError::Shield`] if the host crashes mid-write.
    pub fn save_checkpoint(&self, shield: &mut FsShield, path: &str) -> Result<(), SecureTfError> {
        let plaintext = freeze::save_checkpoint(&self.model.graph, &self.session);
        shield.write(path, &plaintext)?;
        Ok(())
    }

    /// Restores a checkpoint saved through `shield` or through an earlier
    /// mount of its store ([`FsShield::recover`]).
    ///
    /// # Errors
    ///
    /// * [`SecureTfError::Shield`] if the checkpoint is missing, tampered
    ///   with or stale (an older checkpoint, or an older image of the
    ///   whole store, replayed by the host).
    /// * [`SecureTfError::Tensor`] if it does not fit this model.
    pub fn restore_checkpoint(
        &mut self,
        shield: &FsShield,
        path: &str,
    ) -> Result<(), SecureTfError> {
        let plaintext = shield.read(path)?;
        freeze::restore_checkpoint(&self.model.graph, &mut self.session, &plaintext)?;
        Ok(())
    }

    /// Exports the trained model as a frozen Lite model.
    ///
    /// # Errors
    ///
    /// Propagates conversion errors.
    pub fn export_lite(&self) -> Result<securetf_tflite::model::LiteModel, SecureTfError> {
        let frozen = freeze::freeze(&self.model.graph, &self.session)?;
        // Export only the inference prefix (up to the probabilities node):
        // the loss head references the labels placeholder and is not part
        // of the served model.
        let mut inference = securetf_tensor::graph::Graph::new();
        for node in frozen
            .nodes()
            .iter()
            .take(self.model.probabilities.index() + 1)
        {
            inference.append_node(node.clone())?;
        }
        let input_name = inference.nodes()[self.model.input.index()].name.clone();
        let output_name = inference.nodes()[self.model.probabilities.index()]
            .name
            .clone();
        let converted =
            securetf_tflite::model::LiteModel::from_graph(inference, &input_name, &output_name)?;
        // Lower through the compiler's pipeline (DCE + fold + fuse): the
        // exported artifact is what the serving enclave keeps
        // resident in EPC, so every eliminated node shrinks that region.
        let before_peak = securetf_tflite::arena::plan_memory(&converted, 1)
            .map(|p| p.peak_bytes)
            .unwrap_or(0);
        let (optimized, report) = securetf_tflite::optimize::optimize_for_inference(converted)?;
        let after_peak = securetf_tflite::arena::plan_memory(&optimized, 1)
            .map(|p| p.peak_bytes)
            .unwrap_or(0);
        let telemetry = self.enclave.telemetry();
        telemetry
            .counter("compiler.export.nodes_eliminated")
            .add(report.nodes_eliminated());
        telemetry
            .counter("compiler.export.nodes_fused")
            .add(report.nodes_fused());
        telemetry
            .gauge("compiler.export.planned_peak_bytes_before")
            .set(before_peak as i64);
        telemetry
            .gauge("compiler.export.planned_peak_bytes_after")
            .set(after_peak as i64);
        Ok(optimized)
    }

    /// The enclave hosting the session.
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// The model being trained.
    pub fn model(&self) -> &Classifier {
        &self.model
    }

    /// Raw access to the underlying session (variables, stats).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Overwrites one variable's value (federated-learning install path).
    ///
    /// # Errors
    ///
    /// Propagates [`Session::set_variable`] errors.
    pub fn set_variable(&mut self, id: NodeId, value: Tensor) -> Result<(), SecureTfError> {
        self.session.set_variable(id, value)?;
        Ok(())
    }

    /// Looks up a graph node id by raw index.
    pub fn node_id(&self, index: usize) -> Option<NodeId> {
        self.model.graph.node_id(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use securetf_tee::{EnclaveImage, ExecutionMode, Platform};
    use securetf_tensor::layers;
    use securetf_tensor::optimizer::Sgd;

    fn session(mode: ExecutionMode) -> SecureSession {
        let platform = Platform::builder().build();
        let enclave = platform
            .create_enclave(&EnclaveImage::builder().code(b"trainer").build(), mode)
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let model = layers::mlp_classifier(784, &[32], 10, &mut rng).unwrap();
        SecureSession::new(enclave, model)
    }

    #[test]
    fn secure_training_converges() {
        let mut s = session(ExecutionMode::Hardware);
        let data = securetf_data::synthetic_mnist(200, 4);
        let mut sgd = Sgd::new(0.05);
        let mut loss = f32::INFINITY;
        for epoch in 0..15 {
            for start in (0..200).step_by(50) {
                let (x, y) = data.batch(start, 50).unwrap();
                loss = s.train_step(x, y, &mut sgd).unwrap();
            }
            let _ = epoch;
        }
        assert!(loss < 0.5, "loss {loss}");
        let acc = s.accuracy(&data).unwrap();
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn accuracy_parity_native_vs_hardware() {
        // The paper's core "accuracy" goal: protection changes latency,
        // never results. Train identically in both modes and compare.
        let data = securetf_data::synthetic_mnist(100, 8);
        let run = |mode| {
            let mut s = session(mode);
            let mut sgd = Sgd::new(0.05);
            for _ in 0..10 {
                let (x, y) = data.batch(0, 100).unwrap();
                s.train_step(x, y, &mut sgd).unwrap();
            }
            let (x, _) = data.batch(0, 100).unwrap();
            s.classify(x).unwrap()
        };
        assert_eq!(run(ExecutionMode::Native), run(ExecutionMode::Hardware));
    }

    #[test]
    fn checkpoint_seal_roundtrip_and_tamper() {
        use securetf_shield::fs::UntrustedStore;
        use securetf_shield::ShieldError;

        let store = UntrustedStore::new();
        let mut s = session(ExecutionMode::Hardware);
        let mut shield = FsShield::new(s.enclave().clone(), store.clone());
        let data = securetf_data::synthetic_mnist(50, 4);
        let mut sgd = Sgd::new(0.3);
        let (x, y) = data.batch(0, 50).unwrap();
        s.train_step(x, y, &mut sgd).unwrap();
        s.save_checkpoint(&mut shield, "/ckpt/m").unwrap();
        // Restores cleanly.
        s.restore_checkpoint(&shield, "/ckpt/m").unwrap();
        // Tampered checkpoint rejected.
        store.corrupt("/ckpt/m", 40);
        assert!(matches!(
            s.restore_checkpoint(&shield, "/ckpt/m"),
            Err(SecureTfError::Shield(ShieldError::FileTampered(_)))
        ));
    }

    #[test]
    fn export_lite_serves_same_predictions() {
        let mut s = session(ExecutionMode::Hardware);
        let data = securetf_data::synthetic_mnist(100, 4);
        let mut sgd = Sgd::new(0.3);
        for _ in 0..10 {
            let (x, y) = data.batch(0, 100).unwrap();
            s.train_step(x, y, &mut sgd).unwrap();
        }
        let (x, _) = data.batch(0, 20).unwrap();
        let train_preds = s.classify(x.clone()).unwrap();
        let lite = s.export_lite().unwrap();
        let mut interp = securetf_tflite::interpreter::Interpreter::new(lite);
        let out = interp.run(&x).unwrap();
        let lite_preds = out.argmax_rows().unwrap();
        assert_eq!(train_preds, lite_preds);
    }

    #[test]
    fn pooled_session_matches_serial_and_is_faster_in_virtual_time() {
        use securetf_tensor::kernels::WorkerPool;
        let data = securetf_data::synthetic_mnist(128, 4);
        let run = |workers: usize| {
            let mut s = session(ExecutionMode::Hardware);
            if workers > 1 {
                s.set_worker_pool(WorkerPool::new(workers));
            }
            let clock = s.enclave().clock().clone();
            let t0 = clock.now_ns();
            let mut sgd = Sgd::new(0.05);
            let mut loss = 0.0f32;
            for _ in 0..3 {
                let (x, y) = data.batch(0, 128).unwrap();
                loss = s.train_step(x, y, &mut sgd).unwrap();
            }
            let (x, _) = data.batch(0, 128).unwrap();
            let preds = s.classify(x).unwrap();
            (loss.to_bits(), preds, clock.now_ns() - t0)
        };
        let (serial_loss, serial_preds, serial_ns) = run(1);
        let (pooled_loss, pooled_preds, pooled_ns) = run(4);
        // Deterministic pool: numerically identical results...
        assert_eq!(serial_loss, pooled_loss);
        assert_eq!(serial_preds, pooled_preds);
        // ...but the critical path — and so virtual time — shrinks.
        assert!(
            pooled_ns < serial_ns,
            "pooled {pooled_ns} vs serial {serial_ns}"
        );
    }

    #[test]
    fn hardware_training_slower_than_native() {
        let native = session(ExecutionMode::Native);
        let hw = session(ExecutionMode::Hardware);
        let data = securetf_data::synthetic_mnist(100, 4);
        let run = |mut s: SecureSession| {
            let clock = s.enclave().clock().clone();
            let t0 = clock.now_ns();
            let mut sgd = Sgd::new(0.3);
            let (x, y) = data.batch(0, 100).unwrap();
            s.train_step(x, y, &mut sgd).unwrap();
            clock.now_ns() - t0
        };
        assert!(run(hw) > run(native));
    }
}
