//! The secure classification service (paper §4.2, Figures 5–7).
//!
//! A [`SecureClassifier`] is the paper's `label_image`-style service: an
//! enclave that attests to CAS, receives the model-decryption key, loads
//! the encrypted model into enclave memory, and serves classification
//! requests. Every request's virtual latency reflects the runtime
//! profile: compute (with the mode's slowdown), EPC traffic over model +
//! workspace, and the syscall/threading model.

use crate::deployment::{service_image, MODEL_DIGEST_SECRET, MODEL_KEY_SECRET};
use crate::model_blob;
use crate::profile::RuntimeProfile;
use crate::SecureTfError;
use securetf_cas::service::CasService;
use securetf_crypto::aead::Key;
use securetf_shield::fs::UntrustedStore;
use securetf_tee::{Enclave, ExecutionMode, Platform, RegionId, SimClock, Telemetry};
use securetf_tensor::tensor::Tensor;
use securetf_tensor::TensorError;
use securetf_tflite::interpreter::{row_labels, Interpreter};
use securetf_tflite::model::LiteModel;
use securetf_tflite::LiteError;
use std::sync::Arc;

/// [`SecureClassifier::classify`]'s error for an input or output that
/// is not exactly one row.
fn not_one_row(detail: String) -> SecureTfError {
    SecureTfError::Lite(LiteError::Exec(TensorError::ShapeMismatch {
        op: "classify",
        detail: format!("{detail}, not one row"),
    }))
}

/// A deployed, attested classification service.
pub struct SecureClassifier {
    platform: Platform,
    enclave: Arc<Enclave>,
    interpreter: Interpreter,
    profile: RuntimeProfile,
    model_region: RegionId,
    workspace_region: RegionId,
    workspace_bytes: u64,
    workspace_rows: usize,
    inferences: u64,
}

impl std::fmt::Debug for SecureClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureClassifier")
            .field("profile", &self.profile.name)
            .field("model", &self.interpreter.model().name())
            .field("inferences", &self.inferences)
            .finish_non_exhaustive()
    }
}

impl SecureClassifier {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn deploy(
        cas: &mut CasService,
        store: &UntrustedStore,
        mode: ExecutionMode,
        service: &str,
        path: &str,
        profile: RuntimeProfile,
        clock: Option<SimClock>,
        telemetry: Telemetry,
    ) -> Result<SecureClassifier, SecureTfError> {
        // A fresh machine with this profile's cost model.
        let mut builder = Platform::builder()
            .cost_model(profile.cost_model())
            .telemetry(telemetry);
        if let Some(clock) = clock {
            builder = builder.clock(clock);
        }
        let platform = builder.build();
        let image = service_image(profile.runtime_bytes);
        let enclave = platform.create_enclave(&image, mode)?;

        // Attest and fetch the model key (skipped when run natively — the
        // baseline has no protection at all, so the model is used as-is).
        let (key, expected_digest) = if mode.has_runtime() {
            let quote = enclave.quote(format!("classifier:{service}").as_bytes())?;
            let provision = cas.attest_and_provision(&quote, service)?;
            let key_bytes: [u8; 32] = provision
                .secret(MODEL_KEY_SECRET)
                .ok_or(SecureTfError::ModelIntegrity("policy missing model key"))?
                .try_into()
                .map_err(|_| SecureTfError::ModelIntegrity("bad key length"))?;
            let digest: [u8; 32] = provision
                .secret(MODEL_DIGEST_SECRET)
                .ok_or(SecureTfError::ModelIntegrity("policy missing digest"))?
                .try_into()
                .map_err(|_| SecureTfError::ModelIntegrity("bad digest length"))?;
            (Key::from_bytes(key_bytes), Some(digest))
        } else {
            // Native baseline still needs the key to read the stored file.
            (model_blob::owner_key(service, path), None)
        };

        // Load the encrypted model from untrusted storage: copied, opened
        // and hashed in one pass, and parsed only once the tag and the
        // digest both match.
        enclave.charge_syscall();
        let len = store
            .raw_len(path)
            .ok_or(SecureTfError::ModelIntegrity("model file missing"))?;
        enclave.charge_shield_crypto(len as u64);
        let (plaintext, digest) = model_blob::open(store, &key, path, len)?;
        if expected_digest.is_some_and(|expected| expected != digest) {
            return Err(SecureTfError::ModelIntegrity("digest mismatch"));
        }
        let model = LiteModel::from_bytes(&plaintext)?;
        // The parsed model holds the weights now: the plaintext goes
        // before the lowering, so that deploy never holds two copies.
        drop(plaintext);

        // The interpreter lowers the model through the shared compiler
        // pipeline at construction; size every region from the graph it
        // will actually execute, so the plan, the slot-write replay, and
        // the resident regions all describe the same (optimized) model.
        let interpreter = Interpreter::new(model);
        if let Some(report) = interpreter.pipeline_report() {
            crate::charge_compiler_report(&enclave, report);
        }

        // Model and workspace live in enclave memory. Single-pass
        // runtimes (the Lite interpreter) execute out of the planned
        // arena, so the workspace is exactly the plan's peak, and a model
        // that cannot be planned cannot run: deploy refuses it. The full
        // framework's executor has no planner and keeps the
        // fraction-of-model heuristic.
        let model_bytes = interpreter.model().param_bytes();
        let workspace_bytes = if profile.memory_passes == 1 {
            securetf_tflite::arena::plan_memory(interpreter.model(), 1)?.peak_bytes
        } else {
            (model_bytes as f64 * profile.workspace_fraction) as u64
        }
        .max(512 * 1024);
        let model_region = enclave.alloc("model", model_bytes);
        let workspace_region = enclave.alloc("workspace", workspace_bytes);
        // Cold load: fault the whole model in once (the paper warms up
        // before measuring).
        enclave.touch_all(model_region)?;

        Ok(SecureClassifier {
            platform,
            enclave,
            interpreter,
            profile,
            model_region,
            workspace_region,
            workspace_bytes,
            workspace_rows: 1,
            inferences: 0,
        })
    }

    /// Classifies one `[1, …]` row, returning `(label, virtual latency in
    /// ns)`: the one-row case of [`classify_batch`].
    ///
    /// [`classify_batch`]: SecureClassifier::classify_batch
    ///
    /// # Errors
    ///
    /// Returns [`SecureTfError::Lite`] with a shape mismatch, before
    /// anything is charged, if `input` is not exactly one row, and on
    /// execution failure.
    pub fn classify(&mut self, input: &Tensor) -> Result<(usize, u64), SecureTfError> {
        if input.shape().first() != Some(&1) {
            return Err(not_one_row(format!("input {:?}", input.shape())));
        }
        let (labels, ns) = self.classify_batch(input)?;
        match labels[..] {
            [label] => Ok((label, ns)),
            _ => Err(not_one_row(format!("{} output rows", labels.len()))),
        }
    }

    /// Classifies a stacked `[batch, …]` input in one pass, returning one
    /// label per row plus the batch's virtual latency.
    ///
    /// Per-row labels are bit-identical to classifying each row alone:
    /// every kernel computes an output row from its own input row with a
    /// fixed reduction order, so batch composition cannot leak into
    /// results. The win is amortization — the shielded ingress syscalls
    /// and the model/workspace memory passes are charged once per batch
    /// rather than once per request.
    ///
    /// # Errors
    ///
    /// Returns [`SecureTfError::Lite`] on execution failure, and with a
    /// shape mismatch if the model answers with another number of rows
    /// than `batch` has ([`row_labels`]).
    pub fn classify_batch(&mut self, batch: &Tensor) -> Result<(Vec<usize>, u64), SecureTfError> {
        let (out, ns) = self.charged_run(batch)?;
        let labels = row_labels(batch, &out)?;
        self.inferences += labels.len() as u64;
        Ok((labels, ns))
    }

    /// Runs the interpreter on `input` (one row or a stacked batch) with
    /// the profile's full cost charged once, returning the output tensor
    /// and the virtual latency in ns.
    fn charged_run(&mut self, input: &Tensor) -> Result<(Tensor, u64), SecureTfError> {
        let clock = self.platform.clock().clone();
        let t0 = clock.now_ns();

        // Input arrives via the (shielded) network/file system, the whole
        // batch in one ingress round.
        for _ in 0..self.profile.syscalls_per_inference {
            self.profile.threading.charge_syscall(&self.enclave);
        }

        self.ensure_workspace_rows(input.shape().first().copied().unwrap_or(1))?;
        // The interpreter traverses model memory; heuristic (multi-pass)
        // runtimes also sweep the whole workspace each pass.
        for _ in 0..self.profile.memory_passes {
            self.enclave.touch_all(self.model_region)?;
            if self.profile.memory_passes != 1 {
                self.enclave.touch_all(self.workspace_region)?;
            }
        }

        // Real inference math (reduced extent), charged at declared FLOPs
        // along the kernel critical path.
        let before = self.interpreter.stats();
        let out = self.interpreter.run(input)?;
        let delta = self.interpreter.stats().since(&before);
        self.enclave
            .charge_parallel_compute(delta.flops, delta.critical_flops);
        crate::attribute_kernel_flops(&self.enclave, &delta);

        // Single-pass runtimes replay the arena slot writes the
        // interpreter actually performed as workspace EPC traffic — so a
        // fused graph, which writes fewer intermediates, faults fewer
        // workspace pages.
        let writes = self.interpreter.take_slot_writes();
        if self.profile.memory_passes == 1 {
            for w in writes {
                self.enclave
                    .touch(self.workspace_region, w.offset, w.bytes)?;
            }
        }
        crate::export_memory_gauges(&self.enclave, &self.interpreter.memory_stats());
        Ok((out, clock.now_ns() - t0))
    }

    /// Grows the planned workspace when a batch needs more rows than any
    /// seen so far. No-op for the heuristic (full-framework) workspace.
    ///
    /// # Errors
    ///
    /// Returns [`SecureTfError::Lite`] if the model cannot be planned
    /// for `rows`; the workspace is unchanged then.
    fn ensure_workspace_rows(&mut self, rows: usize) -> Result<(), SecureTfError> {
        let rows = rows.max(1);
        if self.profile.memory_passes != 1 || rows <= self.workspace_rows {
            return Ok(());
        }
        let plan = securetf_tflite::arena::plan_memory(self.interpreter.model(), rows)?;
        self.workspace_rows = rows;
        if plan.peak_bytes > self.workspace_bytes {
            self.enclave.free(self.workspace_region)?;
            self.workspace_region = self.enclave.alloc("workspace", plan.peak_bytes);
            self.workspace_bytes = plan.peak_bytes;
        }
        Ok(())
    }

    /// Sets the worker pool the interpreter's kernels run on. Labels are
    /// bit-identical for any pool; only virtual compute time shrinks.
    pub fn set_worker_pool(&mut self, pool: securetf_tensor::kernels::WorkerPool) {
        self.interpreter.set_worker_pool(pool);
    }

    /// Mean virtual latency of `runs` classifications of `input` (one row
    /// or a stacked batch).
    ///
    /// # Errors
    ///
    /// Propagates [`SecureClassifier::classify_batch`] errors.
    pub fn mean_latency_ns(&mut self, input: &Tensor, runs: u32) -> Result<u64, SecureTfError> {
        let mut total = 0u64;
        for _ in 0..runs {
            total += self.classify_batch(input)?.1;
        }
        Ok(total / runs.max(1) as u64)
    }

    /// The enclave serving this classifier.
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// The runtime profile in use.
    pub fn profile(&self) -> &RuntimeProfile {
        &self.profile
    }

    /// The loaded model as the Lite format holds it, every weight
    /// row-major ([`LiteModel::unpacked`]): a copy, because the
    /// interpreter keeps its matmul weights in panel order and no second
    /// copy of them.
    pub fn model(&self) -> LiteModel {
        self.interpreter.model().unpacked()
    }

    /// Inferences served so far.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use securetf_tensor::graph::Graph;

    fn tiny_model() -> LiteModel {
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 8]);
        let w = g.constant(
            "w",
            Tensor::from_vec(&[8, 3], (0..24).map(|i| (i % 5) as f32 * 0.1).collect()).unwrap(),
        );
        let y = g.matmul(x, w).unwrap();
        let name = g.nodes()[y.index()].name.clone();
        LiteModel::convert(&g, "input", &name).unwrap()
    }

    fn deployed(mode: ExecutionMode, profile: RuntimeProfile) -> SecureClassifier {
        let mut d = Deployment::new(mode);
        d.publish_model("svc", "/m", &tiny_model()).unwrap();
        d.deploy_classifier("svc", "/m", profile).unwrap()
    }

    #[test]
    fn classification_is_mode_independent() {
        // Accuracy parity: the same input classifies identically in every
        // mode (the paper's "accuracy" design goal).
        let input = Tensor::full(&[1, 8], 0.5);
        let mut native = deployed(ExecutionMode::Native, RuntimeProfile::scone_lite());
        let mut sim = deployed(ExecutionMode::Simulation, RuntimeProfile::scone_lite());
        let mut hw = deployed(ExecutionMode::Hardware, RuntimeProfile::scone_lite());
        let l_native = native.classify(&input).unwrap().0;
        let l_sim = sim.classify(&input).unwrap().0;
        let l_hw = hw.classify(&input).unwrap().0;
        assert_eq!(l_native, l_sim);
        assert_eq!(l_sim, l_hw);
    }

    #[test]
    fn latency_ordering_native_sim_hw() {
        let input = Tensor::full(&[1, 8], 0.5);
        let native = deployed(ExecutionMode::Native, RuntimeProfile::scone_lite())
            .mean_latency_ns(&input, 5)
            .unwrap();
        let sim = deployed(ExecutionMode::Simulation, RuntimeProfile::scone_lite())
            .mean_latency_ns(&input, 5)
            .unwrap();
        let hw = deployed(ExecutionMode::Hardware, RuntimeProfile::scone_lite())
            .mean_latency_ns(&input, 5)
            .unwrap();
        assert!(native <= sim, "native {native} > sim {sim}");
        assert!(sim < hw, "sim {sim} >= hw {hw}");
    }

    #[test]
    fn inference_counter_increments() {
        let input = Tensor::full(&[1, 8], 0.5);
        let mut c = deployed(ExecutionMode::Hardware, RuntimeProfile::scone_lite());
        assert_eq!(c.inferences(), 0);
        c.classify(&input).unwrap();
        c.classify(&input).unwrap();
        assert_eq!(c.inferences(), 2);
    }

    #[test]
    fn classify_rejects_anything_but_one_row_before_charging() {
        let mut c = deployed(ExecutionMode::Hardware, RuntimeProfile::scone_lite());
        let t0 = c.enclave().clock().now_ns();
        for shape in [&[2, 8][..], &[0, 8], &[8]] {
            assert!(matches!(
                c.classify(&Tensor::zeros(shape)),
                Err(SecureTfError::Lite(LiteError::Exec(
                    TensorError::ShapeMismatch { .. }
                )))
            ));
        }
        assert_eq!(c.enclave().clock().now_ns(), t0, "nothing charged");
        assert_eq!(c.inferences(), 0);
    }

    #[test]
    fn batched_classify_matches_serial_and_amortizes_overhead() {
        let rows = 8usize;
        let data: Vec<f32> = (0..rows * 8).map(|i| (i % 11) as f32 * 0.2 - 1.0).collect();
        let stacked = Tensor::from_vec(&[rows, 8], data.clone()).unwrap();

        let mut batched = deployed(ExecutionMode::Hardware, RuntimeProfile::scone_lite());
        let (labels, batch_ns) = batched.classify_batch(&stacked).unwrap();
        assert_eq!(labels.len(), rows);
        assert_eq!(batched.inferences(), rows as u64);

        let mut serial = deployed(ExecutionMode::Hardware, RuntimeProfile::scone_lite());
        let mut serial_ns = 0u64;
        for (r, &label) in labels.iter().enumerate() {
            let row = Tensor::from_vec(&[1, 8], data[r * 8..(r + 1) * 8].to_vec()).unwrap();
            let (l, ns) = serial.classify(&row).unwrap();
            assert_eq!(l, label, "row {r}");
            serial_ns += ns;
        }
        // Syscalls + memory passes are charged once per batch, not per
        // request, so the batch is strictly cheaper in virtual time.
        assert!(
            batch_ns < serial_ns,
            "batch {batch_ns} >= serial {serial_ns}"
        );
    }

    #[test]
    fn full_tf_profile_is_slower_than_lite_in_hw() {
        let input = Tensor::full(&[1, 8], 0.5);
        let lite = deployed(ExecutionMode::Hardware, RuntimeProfile::scone_lite())
            .mean_latency_ns(&input, 3)
            .unwrap();
        let full = deployed(ExecutionMode::Hardware, RuntimeProfile::scone_full_tf())
            .mean_latency_ns(&input, 3)
            .unwrap();
        assert!(full > lite, "full {full} <= lite {lite}");
    }
}
