//! The `securetf` command-line tool.
//!
//! A small operational surface over the library, mirroring how the
//! paper's platform is driven in production:
//!
//! ```console
//! securetf train --out model.stfl --epochs 10 --mode hw
//! securetf inspect --model model.stfl
//! securetf optimize --model model.stfl --quantize --out model.stfq
//! securetf classify --model model.stfl --samples 10 --mode hw
//! securetf attest-demo
//! ```
//!
//! Training and classification run on the synthetic MNIST dataset (this
//! reproduction ships no real data); model files are real files on disk.

use rand::SeedableRng;
use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf::secure_session::SecureSession;
use securetf_tee::{EnclaveImage, ExecutionMode, Platform};
use securetf_tensor::layers;
use securetf_tensor::optimizer::Sgd;
use securetf_tflite::model::LiteModel;
use securetf_tflite::optimize;
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         securetf train    --out <file> [--epochs N] [--samples N] [--mode native|sim|hw]\n  \
         securetf classify --model <file> [--samples N] [--mode native|sim|hw]\n  \
         securetf optimize --model <file> --out <file> [--prune F] [--quantize]\n  \
         securetf inspect  --model <file> [--dot]\n  \
         securetf attest-demo"
    );
    ExitCode::from(2)
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{}'", args[i]))?;
        if let Some(value) = args.get(i + 1).filter(|v| !v.starts_with("--")) {
            flags.insert(key.to_string(), value.clone());
            i += 2;
        } else {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
        }
    }
    Ok(flags)
}

fn mode_of(flags: &HashMap<String, String>) -> Result<ExecutionMode, String> {
    match flags.get("mode").map(String::as_str).unwrap_or("hw") {
        "native" => Ok(ExecutionMode::Native),
        "sim" => Ok(ExecutionMode::Simulation),
        "hw" => Ok(ExecutionMode::Hardware),
        other => Err(format!("unknown mode '{other}' (native|sim|hw)")),
    }
}

fn number<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad --{key} value '{v}'")),
    }
}

fn cmd_train(flags: HashMap<String, String>) -> Result<(), String> {
    let out = flags.get("out").ok_or("--out is required")?.clone();
    let epochs: usize = number(&flags, "epochs", 10)?;
    let samples: usize = number(&flags, "samples", 500)?;
    let mode = mode_of(&flags)?;

    let platform = Platform::builder().build();
    let enclave = platform
        .create_enclave(
            &EnclaveImage::builder()
                .code(b"securetf-cli-trainer")
                .build(),
            mode,
        )
        .map_err(|e| e.to_string())?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let model = layers::mlp_classifier(784, &[64], 10, &mut rng).map_err(|e| e.to_string())?;
    let mut session = SecureSession::new(enclave, model);

    let data = securetf_data::synthetic_mnist(samples, 2);
    let (train, test) = data.split(samples * 4 / 5);
    let mut sgd = Sgd::new(0.05);
    eprintln!(
        "training on {} samples, {epochs} epochs, mode {mode}…",
        train.len()
    );
    for epoch in 0..epochs {
        let mut loss = 0.0;
        for start in (0..train.len()).step_by(100) {
            let n = 100.min(train.len() - start);
            let (x, y) = train.batch(start, n).map_err(|e| e.to_string())?;
            loss = session
                .train_step(x, y, &mut sgd)
                .map_err(|e| e.to_string())?;
        }
        eprintln!("  epoch {epoch}: loss {loss:.4}");
    }
    let accuracy = session.accuracy(&test).map_err(|e| e.to_string())?;
    let lite = session.export_lite().map_err(|e| e.to_string())?;
    std::fs::write(&out, lite.to_bytes()).map_err(|e| e.to_string())?;
    println!(
        "wrote {out} ({} bytes), held-out accuracy {:.1}%, virtual time {:.2} s",
        lite.to_bytes().len(),
        accuracy * 100.0,
        session.enclave().clock().now_secs(),
    );
    Ok(())
}

fn load_model(flags: &HashMap<String, String>) -> Result<LiteModel, String> {
    let path = flags.get("model").ok_or("--model is required")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if let Ok(q) = optimize::QuantizedModel::from_bytes(&bytes) {
        return q.dequantize().map_err(|e| e.to_string());
    }
    LiteModel::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn cmd_classify(flags: HashMap<String, String>) -> Result<(), String> {
    let samples: usize = number(&flags, "samples", 10)?;
    let mode = mode_of(&flags)?;
    let lite = load_model(&flags)?;

    let mut deployment = Deployment::new(mode);
    deployment
        .publish_model("cli", "/models/cli", &lite)
        .map_err(|e| e.to_string())?;
    let mut classifier = deployment
        .deploy_classifier("cli", "/models/cli", RuntimeProfile::scone_lite())
        .map_err(|e| e.to_string())?;

    let data = securetf_data::synthetic_mnist(samples, 99);
    let mut correct = 0;
    for i in 0..samples {
        let (x, _) = data.batch(i, 1).map_err(|e| e.to_string())?;
        let (label, latency) = classifier.classify(&x).map_err(|e| e.to_string())?;
        let truth = data.label(i).expect("in range");
        if label == truth {
            correct += 1;
        }
        println!(
            "sample {i}: predicted {label}, truth {truth}, latency {:.2} ms",
            latency as f64 / 1e6
        );
    }
    println!("{correct}/{samples} correct through the attested service (mode {mode})");
    Ok(())
}

fn cmd_optimize(flags: HashMap<String, String>) -> Result<(), String> {
    let out = flags.get("out").ok_or("--out is required")?.clone();
    let lite = load_model(&flags)?;
    let original = lite.to_bytes().len();

    let pruned = if let Some(fraction) = flags.get("prune") {
        let fraction: f32 = fraction
            .parse()
            .map_err(|_| format!("bad --prune value '{fraction}'"))?;
        if !(0.0..=1.0).contains(&fraction) {
            return Err("--prune must be within 0..=1".to_string());
        }
        let (pruned, report) = optimize::prune_magnitude(&lite, fraction);
        println!("pruned to {:.0}% sparsity", report.sparsity() * 100.0);
        pruned
    } else {
        lite
    };

    if flags.contains_key("quantize") {
        let quantized = optimize::quantize(&pruned);
        std::fs::write(&out, quantized.to_bytes()).map_err(|e| e.to_string())?;
        println!(
            "wrote {out}: {} -> {} bytes ({:.1}x smaller, int8)",
            original,
            quantized.byte_len(),
            original as f64 / quantized.byte_len() as f64
        );
    } else {
        std::fs::write(&out, pruned.to_bytes()).map_err(|e| e.to_string())?;
        println!("wrote {out}: {} bytes (f32)", pruned.to_bytes().len());
    }
    Ok(())
}

fn cmd_inspect(flags: HashMap<String, String>) -> Result<(), String> {
    let lite = load_model(&flags)?;
    if flags.contains_key("dot") {
        print!("{}", securetf_tensor::freeze::to_dot(lite.graph()));
        return Ok(());
    }
    println!("name:            {}", lite.name());
    println!("nodes:           {}", lite.graph().len());
    println!("parameter bytes: {}", lite.param_bytes());
    println!("declared flops:  {:.3e}", lite.declared_flops());
    let mut kinds: Vec<(&str, usize)> = Vec::new();
    for node in lite.graph().nodes() {
        match kinds.iter_mut().find(|(k, _)| *k == node.op.kind()) {
            Some((_, n)) => *n += 1,
            None => kinds.push((node.op.kind(), 1)),
        }
    }
    kinds.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("ops:");
    for (kind, count) in kinds {
        println!("  {kind:<14} x{count}");
    }
    match securetf_tflite::arena::plan_memory(&lite, 1) {
        Ok(plan) => println!(
            "arena (batch 1):  {} bytes peak ({} unshared)",
            plan.peak_bytes, plan.unshared_bytes
        ),
        Err(e) => println!("arena:           unplannable ({e})"),
    }
    Ok(())
}

fn cmd_attest_demo() -> Result<(), String> {
    use securetf_cas::ias::IasAttestor;
    use securetf_cas::policy::ServicePolicy;
    use securetf_cas::service::CasService;

    let platform = Platform::builder().build();
    let image = EnclaveImage::builder().code(b"demo worker").build();
    let worker = platform
        .create_enclave(&image, ExecutionMode::Hardware)
        .map_err(|e| e.to_string())?;
    let policy = ServicePolicy::new("demo")
        .allow_measurement(image.measurement())
        .with_secret("k", b"v");
    let cas_enclave = platform
        .create_enclave(
            &EnclaveImage::builder().code(b"cas").build(),
            ExecutionMode::Hardware,
        )
        .map_err(|e| e.to_string())?;
    let mut cas = CasService::new(cas_enclave, platform.fleet_verifier());
    cas.register_policy(policy.clone())
        .map_err(|e| e.to_string())?;
    let mut ias = IasAttestor::new(&platform);
    ias.register_policy(policy);

    let quote = worker.quote(b"demo").map_err(|e| e.to_string())?;
    let cas_ns = cas
        .attest_and_provision(&quote, "demo")
        .map_err(|e| e.to_string())?
        .breakdown()
        .total_ns();
    let quote = worker.quote(b"demo2").map_err(|e| e.to_string())?;
    let ias_ns = ias
        .attest_and_provision(&quote, "demo")
        .map_err(|e| e.to_string())?
        .breakdown()
        .total_ns();
    println!("enclave measurement: {}", worker.measurement());
    println!("CAS attestation:     {:.1} ms", cas_ns as f64 / 1e6);
    println!("IAS attestation:     {:.1} ms", ias_ns as f64 / 1e6);
    println!("speedup:             {:.1}x", ias_ns as f64 / cas_ns as f64);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match command.as_str() {
        "train" => cmd_train(flags),
        "classify" => cmd_classify(flags),
        "optimize" => cmd_optimize(flags),
        "inspect" => cmd_inspect(flags),
        "attest-demo" => cmd_attest_demo(),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
