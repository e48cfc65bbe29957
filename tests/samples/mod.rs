//! Fixed inputs for every byte format the workspace encodes, shared by
//! `golden_encodings.rs` (pins the encoders' output) and
//! `hostile_input.rs` (mutates that output and feeds it to the decoders).

use std::sync::Arc;

use securetf::serving::{encode_request, encode_response, Request, Response};
use securetf_data::{resize, synthetic_mnist};
use securetf_distrib::wire::{self, Codec};
use securetf_shield::fs::{FsShield, UntrustedStore, CHUNK_SIZE};
use securetf_tee::{Enclave, EnclaveImage, ExecutionMode, Platform};
use securetf_tensor::freeze::{export_graph, save_checkpoint};
use securetf_tensor::graph::{Graph, Padding};
use securetf_tensor::session::Session;
use securetf_tensor::tensor::Tensor;
use securetf_tflite::model::LiteModel;
use securetf_tflite::optimize::quantize;

fn ramp(shape: &[usize], step: f32) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..n).map(|i| (i % 23) as f32 * step - 1.0).collect(),
    )
    .expect("ramp shape")
}

/// A graph with one node of each of the 23 op tags `export_graph` writes.
/// The builders check ids, not shapes, and so does `import_graph`.
pub fn graph() -> Vec<u8> {
    let mut g = Graph::new();
    let x = g.placeholder("x", &[0, 4, 4, 2]);
    let v = g.variable("v", ramp(&[3, 2], 0.25));
    let c = g.constant("c", ramp(&[2, 3], 0.5));
    let mm = g.matmul(v, c).unwrap();
    let ab = g.add_bias(mm, c).unwrap();
    let add = g.add(mm, ab).unwrap();
    let mul = g.mul(add, ab).unwrap();
    let relu = g.relu(mul).unwrap();
    let sm = g.softmax(relu).unwrap();
    let conv = g.conv2d(x, c, Padding::Valid).unwrap();
    let mp = g.max_pool2(conv).unwrap();
    let flat = g.flatten(mp).unwrap();
    let rs = g.reshape(flat, &[2, 8]).unwrap();
    g.softmax_cross_entropy(rs, sm).unwrap();
    g.mse_loss(rs, sm).unwrap();
    let sub = g.sub(rs, sm).unwrap();
    let sc = g.scale(sub, -0.75).unwrap();
    let sg = g.sigmoid(sc).unwrap();
    let th = g.tanh(sg).unwrap();
    let ap = g.avg_pool2(x).unwrap();
    g.concat_cols(th, sg).unwrap();
    g.fused_matmul(v, c, c, true).unwrap();
    g.fused_conv2d(ap, c, c, Padding::Same, false).unwrap();
    export_graph(&g)
}

/// An inference-only model with one weight tensor large enough (>= 65
/// elements) for `quantize` to move into an int8 buffer.
pub fn lite_model() -> LiteModel {
    let mut g = Graph::new();
    let x = g.placeholder("input", &[0, 12]);
    let w = g.constant("w", ramp(&[12, 6], 0.125));
    let b = g.constant("b", ramp(&[6], 0.5));
    let mm = g.matmul(x, w).unwrap();
    let biased = g.add_bias(mm, b).unwrap();
    g.softmax(biased).unwrap();
    LiteModel::convert(&g, "input", "softmax")
        .unwrap()
        .with_name("sample")
        .with_declared_flops(1.5e6)
}

pub fn lite() -> Vec<u8> {
    lite_model().to_bytes()
}

pub fn quantized() -> Vec<u8> {
    quantize(&lite_model()).to_bytes()
}

/// Three 4x4x1 images: small enough to flip every bit of.
pub fn dataset() -> Vec<u8> {
    resize(&synthetic_mnist(3, 7), 4, 4).to_bytes()
}

pub fn request_q() -> Vec<u8> {
    encode_request(&Request::new(0x0102_0304_0506_0708, ramp(&[2, 5], 0.25)))
}

pub fn request_d() -> Vec<u8> {
    encode_request(&Request::with_deadline(
        9,
        ramp(&[1, 3, 2], 0.5),
        123_456_789,
    ))
}

pub fn response_r() -> Vec<u8> {
    encode_response(&Response::Label { id: 77, label: 3 })
}

pub fn response_e() -> Vec<u8> {
    encode_response(&Response::Error {
        id: 78,
        message: "bad input shape".to_string(),
    })
}

pub fn response_u() -> Vec<u8> {
    encode_response(&Response::Unavailable {
        id: 79,
        retry_after_ns: 5_000_000,
    })
}

fn entries() -> Vec<(u32, Tensor)> {
    vec![
        (7, ramp(&[2, 3], 0.25)),
        (2, ramp(&[5], 0.5)),
        (0, Tensor::zeros(&[0])),
    ]
}

pub fn dense_frame() -> Vec<u8> {
    wire::encode_frame(&entries(), Codec::Dense)
}

pub fn quantized_frame() -> Vec<u8> {
    wire::encode_frame(&entries(), Codec::Quantized)
}

/// The graph behind [`checkpoint`]: two variables and a placeholder,
/// which a checkpoint skips.
pub fn checkpoint_graph() -> Graph {
    let mut g = Graph::new();
    g.placeholder("x", &[0, 2]);
    g.variable("w", ramp(&[2, 3], 0.25));
    g.variable("b", ramp(&[5], 0.5));
    g
}

/// A training checkpoint, as the distributed trainer and `SecureSession`
/// hand it to the fs shield.
pub fn checkpoint() -> Vec<u8> {
    let g = checkpoint_graph();
    save_checkpoint(&g, &Session::new(&g))
}

/// Path of the one file [`fs_image`] writes.
pub const FS_PATH: &str = "/data/sample";

/// Plaintext of that file: two full chunks and a partial third.
pub fn fs_plaintext() -> Vec<u8> {
    (0..2 * CHUNK_SIZE + 1000)
        .map(|i| (i % 251) as u8)
        .collect()
}

/// An enclave of the one identity every fs sample runs as.
pub fn fs_enclave(platform: &Platform) -> Arc<Enclave> {
    platform
        .create_enclave(
            &EnclaveImage::builder().code(b"byte-format samples").build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave")
}

/// A pinned platform: its id fixes the platform secret, hence every
/// derived key and every sealed byte.
pub fn fs_platform() -> Platform {
    Platform::builder().id(0x5ec0_7e7f).build()
}

/// One journaled write of [`fs_plaintext`] on a fresh pinned platform;
/// returns the platform (to remount on), the shield and the host-visible
/// store.
pub fn fs_image() -> (Platform, FsShield, UntrustedStore) {
    let platform = fs_platform();
    let store = UntrustedStore::new();
    let mut shield = FsShield::new(fs_enclave(&platform), store.clone());
    shield.write(FS_PATH, &fs_plaintext()).expect("write");
    (platform, shield, store)
}
