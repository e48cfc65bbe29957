//! Synthetic stand-ins for the paper's pre-trained models.
//!
//! The paper evaluates classification with Densenet (42 MB),
//! Inception-v3 (91 MB) and Inception-v4 (163 MB). The trained weights
//! are not reproducible here, and for the paper's performance questions
//! they don't need to be: what matters is (a) the model's **parameter
//! bytes** — which determine EPC behaviour — and (b) its **per-inference
//! FLOPs** — which determine compute time. These builders produce dense
//! networks whose parameter bytes match the paper's models and whose
//! declared FLOPs follow the real architectures, while executing a
//! reduced spatial extent so wall-clock stays reasonable (the virtual
//! clock uses the declared FLOPs; see `DESIGN.md`).

use crate::model::LiteModel;
use securetf_tensor::graph::Graph;
use securetf_tensor::tensor::Tensor;

/// Internal layer width of the synthetic models.
const WIDTH: usize = 1024;

/// Descriptor of one of the paper's evaluation models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpec {
    /// Model name as used in the paper.
    pub name: &'static str,
    /// On-disk model size the paper reports.
    pub bytes: u64,
    /// Per-inference FLOPs of the real architecture (approximate,
    /// 2 × multiply-accumulates).
    pub flops: f64,
}

/// Densenet, 42 MB (paper Figure 5a).
pub const DENSENET: ModelSpec = ModelSpec {
    name: "densenet",
    bytes: 42 * 1024 * 1024,
    flops: 6.0e9,
};

/// Inception-v3, 91 MB (paper Figure 5b).
pub const INCEPTION_V3: ModelSpec = ModelSpec {
    name: "inception_v3",
    bytes: 91 * 1024 * 1024,
    flops: 11.5e9,
};

/// Inception-v4, 163 MB (paper Figure 5c).
pub const INCEPTION_V4: ModelSpec = ModelSpec {
    name: "inception_v4",
    bytes: 163 * 1024 * 1024,
    flops: 24.6e9,
};

/// The three models of Figure 5, smallest first.
pub const PAPER_MODELS: [ModelSpec; 3] = [DENSENET, INCEPTION_V3, INCEPTION_V4];

fn pattern_weights(rows: usize, cols: usize, seed: usize) -> Tensor {
    // Deterministic mixed-sign weights with ~unit spectral scale; cheap to
    // generate at tens of MB.
    let scale = 1.0 / (rows as f32).sqrt();
    // The offset alone repeats every 13 layers, so the multiplier moves
    // with `seed / 13`: no two layers are bit-equal.
    let mul = 2654435761 + seed / 13;
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let v = ((i.wrapping_mul(mul).wrapping_add(seed * 97)) % 13) as f32 - 6.0;
            v * scale / 6.0
        })
        .collect();
    Tensor::from_vec(&[rows, cols], data).expect("sized to shape")
}

fn pattern_bias(cols: usize, seed: usize) -> Tensor {
    let data: Vec<f32> = (0..cols)
        .map(|i| ((i.wrapping_mul(40503).wrapping_add(seed * 131)) % 7) as f32 * 0.01 - 0.03)
        .collect();
    Tensor::from_vec(&[cols], data).expect("sized to shape")
}

/// Builds a synthetic model matching `spec`'s parameter bytes and FLOPs.
///
/// Each hidden layer is the real architectures' `matmul → bias → relu`
/// block (so the graph compiler's fusion pass sees the same chains it
/// would in Inception/Densenet); the tail layer is `matmul → bias`.
///
/// The input placeholder is `[0, 1024]`; feed `[positions, 1024]` rows
/// (use [`input_for`] for a ready-made input).
pub fn build(spec: ModelSpec) -> LiteModel {
    let mut g = Graph::new();
    let input = g.placeholder("input", &[0, WIDTH]);
    let mut params_left = (spec.bytes / 4) as usize;
    let mut x = input;
    let mut layer = 0usize;
    while params_left >= WIDTH * WIDTH + WIDTH {
        let w = g.constant(
            &format!("layer{layer}/w"),
            pattern_weights(WIDTH, WIDTH, layer),
        );
        let b = g.constant(&format!("layer{layer}/b"), pattern_bias(WIDTH, layer));
        x = g.matmul(x, w).expect("nodes from this graph");
        x = g.add_bias(x, b).expect("nodes from this graph");
        x = g.relu(x).expect("nodes from this graph");
        params_left -= WIDTH * WIDTH + WIDTH;
        layer += 1;
    }
    let tail_cols = (params_left / (WIDTH + 1)).max(1);
    let w = g.constant(
        &format!("layer{layer}/w"),
        pattern_weights(WIDTH, tail_cols, layer),
    );
    let b = g.constant(&format!("layer{layer}/b"), pattern_bias(tail_cols, layer));
    x = g.matmul(x, w).expect("nodes from this graph");
    x = g.add_bias(x, b).expect("nodes from this graph");

    let out = g.softmax(x).expect("nodes from this graph");
    let name_of_out = g.nodes()[out.index()].name.clone();
    // The model takes the graph by move: its weights are not copied.
    LiteModel::from_graph(g, "input", &name_of_out)
        .expect("inference-only by construction")
        .with_name(spec.name)
        .with_declared_flops(spec.flops)
}

/// A deterministic `[positions, 1024]` input for the synthetic models.
pub fn input_for(positions: usize) -> Tensor {
    let data: Vec<f32> = (0..positions * WIDTH)
        .map(|i| ((i % 11) as f32 - 5.0) * 0.1)
        .collect();
    Tensor::from_vec(&[positions, WIDTH], data).expect("sized to shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::Interpreter;

    #[test]
    fn specs_are_ordered_by_size() {
        let specs = [DENSENET, INCEPTION_V3, INCEPTION_V4];
        assert!(specs.windows(2).all(|w| w[0].bytes < w[1].bytes));
    }

    #[test]
    fn built_model_matches_spec_bytes() {
        // Use a small custom spec to keep the test fast.
        let spec = ModelSpec {
            name: "tiny",
            bytes: 9 * 1024 * 1024,
            flops: 1e9,
        };
        let m = build(spec);
        let err = (m.param_bytes() as i64 - spec.bytes as i64).abs();
        assert!(
            err <= ((WIDTH + 1) * 4) as i64,
            "param bytes {} vs spec {} (err {err})",
            m.param_bytes(),
            spec.bytes
        );
        assert_eq!(m.declared_flops(), 1e9);
        assert_eq!(m.name(), "tiny");
    }

    #[test]
    fn built_model_runs_and_is_finite() {
        let spec = ModelSpec {
            name: "tiny",
            bytes: 5 * 1024 * 1024,
            flops: 1e9,
        };
        let mut interp = Interpreter::new(build(spec));
        let out = interp.run(&input_for(2)).unwrap();
        assert_eq!(out.shape()[0], 2);
        assert!(out.data().iter().all(|v| v.is_finite()));
        // Softmax output: rows sum to one.
        let cols = out.shape()[1];
        let s: f32 = out.data()[..cols].iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    fn the_lowered_inception_v4_keeps_its_weights() {
        // The lowering eliminates no weight of any paper model (their
        // biases repeat every seven layers, and each stays its own
        // constant): the model the enclave holds, and its EPC pages, are
        // the size it was built at. Inception-v4 is the model that does
        // not fit the EPC.
        for spec in PAPER_MODELS {
            let model = build(spec);
            let built = model.param_bytes();
            let interp = Interpreter::new(model);
            assert_eq!(interp.model().param_bytes(), built, "{}", spec.name);
        }
    }

    #[test]
    fn declared_flops_drive_stats() {
        let spec = ModelSpec {
            name: "tiny",
            bytes: 2 * 1024 * 1024,
            flops: 7.5e9,
        };
        let mut interp = Interpreter::new(build(spec));
        interp.run(&input_for(1)).unwrap();
        assert_eq!(interp.stats().flops, 7.5e9);
    }
}
