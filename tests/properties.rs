//! Property-based tests of cross-crate invariants (proptest).

use proptest::prelude::*;
use securetf_crypto::aead::{self, Key, Nonce};
use securetf_crypto::hkdf;
use securetf_crypto::x25519::{PublicKey, StaticSecret};
use securetf_shield::fs::{FsShield, UntrustedStore};
use securetf_tee::sealing::SealPolicy;
use securetf_tee::{EnclaveImage, ExecutionMode, Platform};
use securetf_tensor::freeze;
use securetf_tensor::graph::Graph;
use securetf_tensor::tensor::Tensor;
use std::sync::Arc;

fn enclave(code: &[u8]) -> Arc<securetf_tee::Enclave> {
    let platform = Platform::builder().build();
    platform
        .create_enclave(
            &EnclaveImage::builder().code(code).build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn aead_roundtrip_any_payload(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        payload in prop::collection::vec(any::<u8>(), 0..2048),
        aad in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let key = Key::from_bytes(key);
        let nonce = Nonce::from_bytes(nonce);
        let sealed = aead::seal(&key, &nonce, &payload, &aad);
        prop_assert_eq!(aead::open(&key, &nonce, &sealed, &aad).unwrap(), payload);
    }

    #[test]
    fn aead_detects_any_single_corruption(
        payload in prop::collection::vec(any::<u8>(), 1..512),
        position in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let key = Key::from_bytes([9; 32]);
        let nonce = Nonce::from_bytes([3; 12]);
        let mut sealed = aead::seal(&key, &nonce, &payload, b"");
        let idx = position.index(sealed.len());
        sealed[idx] ^= 1 << bit;
        prop_assert!(aead::open(&key, &nonce, &sealed, b"").is_err());
    }

    #[test]
    fn x25519_agreement_for_any_keys(
        a in prop::array::uniform32(any::<u8>()),
        b in prop::array::uniform32(any::<u8>()),
    ) {
        let sa = StaticSecret::from_bytes(a);
        let sb = StaticSecret::from_bytes(b);
        prop_assert_eq!(
            sa.diffie_hellman(&PublicKey::from(&sb)),
            sb.diffie_hellman(&PublicKey::from(&sa))
        );
    }

    #[test]
    fn hkdf_output_deterministic_and_length_exact(
        salt in prop::collection::vec(any::<u8>(), 0..32),
        ikm in prop::collection::vec(any::<u8>(), 1..64),
        info in prop::collection::vec(any::<u8>(), 0..32),
        len in 1usize..256,
    ) {
        let a = hkdf::derive(&salt, &ikm, &info, len).unwrap();
        let b = hkdf::derive(&salt, &ikm, &info, len).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), len);
    }

    #[test]
    fn sealing_roundtrip_any_payload(
        payload in prop::collection::vec(any::<u8>(), 0..1024),
        aad in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let e = enclave(b"prop sealing");
        let sealed = e.seal(SealPolicy::Measurement, &payload, &aad);
        prop_assert_eq!(e.unseal(SealPolicy::Measurement, &sealed, &aad).unwrap(), payload);
    }

    #[test]
    fn fs_shield_roundtrip_any_contents(
        contents in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let store = UntrustedStore::new();
        let mut shield = FsShield::new(enclave(b"prop fs"), store);
        shield.write("/f", &contents).unwrap();
        prop_assert_eq!(shield.read("/f").unwrap(), contents);
    }

    #[test]
    fn fs_shield_detects_any_corruption(
        contents in prop::collection::vec(any::<u8>(), 1..1024),
        position in any::<prop::sample::Index>(),
    ) {
        let store = UntrustedStore::new();
        let mut shield = FsShield::new(enclave(b"prop fs tamper"), store.clone());
        shield.write("/f", &contents).unwrap();
        let stored_len = store.raw_contents("/f").unwrap().len();
        store.corrupt("/f", position.index(stored_len));
        prop_assert!(shield.read("/f").is_err());
    }

    #[test]
    fn graph_export_import_preserves_eval(
        weights in prop::collection::vec(-2.0f32..2.0, 6),
        input in prop::collection::vec(-2.0f32..2.0, 3),
    ) {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 3]);
        let w = g.constant("w", Tensor::from_vec(&[3, 2], weights).unwrap());
        let y = g.matmul(x, w).unwrap();
        let bytes = freeze::export_graph(&g);
        let g2 = freeze::import_graph(&bytes).unwrap();
        let feed = Tensor::from_vec(&[1, 3], input).unwrap();
        let mut s1 = securetf_tensor::session::Session::new(&g);
        let mut s2 = securetf_tensor::session::Session::new(&g2);
        let o1 = s1.run(&g, &[(x, feed.clone())], &[y]).unwrap();
        let o2 = s2.run(&g2, &[(x, feed)], &[y]).unwrap();
        prop_assert_eq!(o1[0].data(), o2[0].data());
    }

    #[test]
    fn epc_resident_never_exceeds_budget(
        sizes in prop::collection::vec(1u64..60, 1..12),
        touch_order in prop::collection::vec(any::<prop::sample::Index>(), 1..40),
    ) {
        use securetf_tee::epc::{EpcManager, PAGE_SIZE};
        use securetf_tee::{CostModel, SimClock};
        let model = CostModel {
            epc_bytes: 128 * PAGE_SIZE as u64,
            ..CostModel::default()
        };
        let budget = model.epc_pages();
        let clock = SimClock::new();
        let telemetry = clock.telemetry();
        let mut epc = EpcManager::new(model, clock, true, &telemetry, "p");
        let regions: Vec<_> = sizes
            .iter()
            .map(|&pages| epc.alloc("r", pages * PAGE_SIZE as u64))
            .collect();
        for idx in touch_order {
            let region = regions[idx.index(regions.len())];
            epc.touch_all(region).unwrap();
        }
        // The gauge's high-water mark covers every intermediate value.
        let peak = telemetry
            .metrics()
            .into_iter()
            .find_map(|(name, value)| match value {
                securetf_tee::telemetry::MetricValue::Gauge { peak, .. }
                    if name == "p.epc.resident_pages" => Some(peak),
                _ => None,
            })
            .expect("the resident-pages gauge is registered");
        prop_assert!(peak as u64 <= budget);
    }

    #[test]
    fn arena_plan_never_aliases_live_buffers(
        widths in prop::collection::vec(1usize..40, 2..8),
        batch in 1usize..6,
    ) {
        use securetf_tflite::arena;
        use securetf_tflite::model::LiteModel;
        use securetf_tensor::graph::Graph;

        let mut g = Graph::new();
        let mut prev_width = widths[0];
        let x = g.placeholder("input", &[0, prev_width]);
        let mut cur = x;
        for (i, &w) in widths.iter().skip(1).enumerate() {
            let c = g.constant(&format!("w{i}"), Tensor::full(&[prev_width, w], 0.01));
            cur = g.matmul(cur, c).unwrap();
            if i % 2 == 0 {
                cur = g.relu(cur).unwrap();
            }
            prev_width = w;
        }
        let name = g.nodes()[cur.index()].name.clone();
        let model = LiteModel::convert(&g, "input", &name).unwrap();
        let plan = arena::plan_memory(&model, batch).unwrap();
        prop_assert!(plan.peak_bytes <= plan.unshared_bytes);
        let live: Vec<_> = plan.slots.iter().flatten().collect();
        for (i, a) in live.iter().enumerate() {
            for b in live.iter().skip(i + 1) {
                let lifetimes = a.live_from <= b.live_to && b.live_from <= a.live_to;
                let memory = a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
                prop_assert!(!(lifetimes && memory));
            }
        }
    }

    #[test]
    fn certificates_survive_serialization_and_detect_tamper(
        subject in "[a-z]{1,20}",
        key in prop::array::uniform32(any::<u8>()),
        flip in any::<prop::sample::Index>(),
    ) {
        use securetf_cas::ca::{Certificate, CertificateAuthority};
        let mut ca = CertificateAuthority::new(enclave(b"prop ca"));
        let cert = ca.issue(&subject, key, securetf_tee::MrEnclave([9; 32]));
        let bytes = cert.to_bytes();
        let restored = Certificate::from_bytes(&bytes).unwrap();
        prop_assert!(ca.verify(&restored).is_ok());
        // Any single bit flip is either a parse error or a signature error.
        let mut bad = bytes.clone();
        let idx = flip.index(bad.len());
        bad[idx] ^= 1;
        if let Ok(forged) = Certificate::from_bytes(&bad) {
            prop_assert!(ca.verify(&forged).is_err());
        }
    }

    #[test]
    fn dataset_serialization_roundtrip(count in 1usize..30, seed in any::<u64>()) {
        let d = securetf_data::synthetic_mnist(count, seed);
        let d2 = securetf_data::Dataset::from_bytes(&d.to_bytes()).unwrap();
        prop_assert_eq!(d2.len(), d.len());
        prop_assert_eq!(d2.dims(), d.dims());
        for i in 0..count {
            prop_assert_eq!(d2.label(i), d.label(i));
        }
    }

    #[test]
    fn federated_average_of_identical_parties_is_identity(
        values in prop::collection::vec(-10.0f32..10.0, 1..32),
        parties in 1usize..5,
    ) {
        use securetf_distrib::{federated, wire};
        let msg = wire::encode_frame(
            &[(0, Tensor::from_vec(&[values.len()], values.clone()).unwrap())],
            wire::Codec::Dense,
        );
        let avg = federated::federated_average(&vec![msg; parties]).unwrap();
        let decoded = wire::decode_frame(&avg).unwrap();
        for (got, want) in decoded[0].1.data().iter().zip(values.iter()) {
            prop_assert!((got - want).abs() < 1e-4);
        }
    }
}

/// Deterministic test-data fill: LCG-driven values in roughly [-1, 1]
/// with exact zeros sprinkled in, so the kernels' no-zero-skip contract
/// (0 × x must still execute) is exercised alongside ordinary values.
fn lcg_fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if s.is_multiple_of(13) {
                0.0
            } else {
                ((s >> 33) as i32 % 2000) as f32 * 1e-3 - 1.0
            }
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// [`lcg_fill`] with about one element in seven replaced by NaN, ±Inf or
/// a signed zero — the operands a vectorised kernel body, a padded lane
/// or a fused `max(0.0)` could treat differently from the scalar loop.
fn lcg_fill_special(seed: u64, len: usize) -> Vec<f32> {
    const SPECIAL: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
    let mut data = lcg_fill(seed, len);
    for (i, v) in data.iter_mut().enumerate() {
        let h = (seed ^ i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
        if h.is_multiple_of(7) {
            *v = SPECIAL[(h / 7) as usize % SPECIAL.len()];
        }
    }
    data
}

/// The first element where `got` and `want` differ, `None` if there is
/// none. Non-NaN values must agree in every bit (so in sign, for zeros
/// and infinities); a NaN must meet a NaN, of any payload — which
/// operand's payload an add or multiply of two NaNs keeps depends on the
/// operand order the compiler chose for that loop.
fn first_difference(got: &[f32], want: &[f32]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} elements, want {}", got.len(), want.len()));
    }
    got.iter().zip(want).enumerate().find_map(|(i, (g, w))| {
        let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        (!same).then(|| {
            format!(
                "element {i}: {g:?} ({:#x}), want {w:?} ({:#x})",
                g.to_bits(),
                w.to_bits()
            )
        })
    })
}

/// What the raw, un-lowered graph computes for `target` — the unfused op
/// sequence, one kernel call and one elementwise op per node.
fn run_raw_graph(
    graph: &Graph,
    target: securetf_tensor::graph::NodeId,
    pool: &securetf_tensor::kernels::WorkerPool,
) -> Tensor {
    use std::collections::HashMap;
    let feeds: HashMap<securetf_tensor::graph::NodeId, Tensor> = HashMap::new();
    let (mut out, _) = securetf_tensor::memory::PlannedExecutor::new()
        .run(graph, &feeds, &HashMap::new(), &[target], pool)
        .unwrap();
    out.remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // DESIGN.md §11 cardinal rule: blocking and pooling change memory
    // order only, never arithmetic order — for ANY shape and ANY worker
    // count the blocked/parallel kernels are bit-for-bit identical to the
    // naive serial references.

    #[test]
    fn pooled_matmul_is_bit_identical_to_naive(
        m in 1usize..140,
        k in 1usize..48,
        n in 1usize..24,
        workers in 1usize..8,
        seed in any::<u64>(),
    ) {
        use securetf_tensor::kernels::{self, reference, WorkerPool};
        let a = lcg_fill(seed, m * k);
        let b = lcg_fill(seed ^ 0x9E3779B97F4A7C15, k * n);
        let naive = reference::naive_matmul(m, k, n, &a, &b);
        let ta = Tensor::from_vec(&[m, k], a).unwrap();
        let tb = Tensor::from_vec(&[k, n], b).unwrap();
        let (out, cost) = kernels::matmul(&WorkerPool::new(workers), &ta, &tb).unwrap();
        let naive_bits: Vec<u32> = naive.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(bits(&out), naive_bits);
        prop_assert_eq!(cost.flops, 2.0 * (m * k * n) as f64);
        prop_assert!(cost.critical_flops <= cost.flops);
        prop_assert!(cost.critical_flops > 0.0);
    }

    // The tiled kernel's edges: strip remainders and row-block
    // boundaries in m, k-unroll remainders and k-panel boundaries in k,
    // lane remainders and column-split boundaries in n — with NaN, ±Inf
    // and signed zeros among the operands, and the fused bias/relu
    // epilogue against the unfused op sequence on the same draws.
    #[test]
    fn pooled_matmul_edges_and_fused_epilogue_are_bit_identical(
        mi in any::<prop::sample::Index>(),
        ki in any::<prop::sample::Index>(),
        ni in any::<prop::sample::Index>(),
        workers in 1usize..8,
        relu in any::<bool>(),
        special in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use securetf_tensor::kernels::{self, reference, WorkerPool};
        let ms: Vec<usize> = (1..=17).chain(63..=65).chain(127..=130).collect();
        let ks: Vec<usize> = (1..=20).chain(255..=258).chain(511..=520).collect();
        let ns: Vec<usize> = (1..=40).chain(1023..=1025).collect();
        let (m, k, n) = (ms[mi.index(ms.len())], ks[ki.index(ks.len())], ns[ni.index(ns.len())]);
        let fill = if special { lcg_fill_special } else { lcg_fill };
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0x9E3779B97F4A7C15, k * n);
        let naive = reference::naive_matmul(m, k, n, &a, &b);
        let ta = Tensor::from_vec(&[m, k], a).unwrap();
        let tb = Tensor::from_vec(&[k, n], b).unwrap();
        let tbias = Tensor::from_vec(&[n], fill(seed ^ 0xB1A5, n)).unwrap();
        let pool = WorkerPool::new(workers);

        let (out, cost) = kernels::matmul(&pool, &ta, &tb).unwrap();
        prop_assert_eq!(first_difference(out.data(), &naive), None, "m={} k={} n={}", m, k, n);
        prop_assert_eq!(cost.flops, 2.0 * (m * k * n) as f64);
        prop_assert!(cost.critical_flops <= cost.flops);
        prop_assert!(cost.critical_flops * workers as f64 >= cost.flops);

        let mut g = Graph::new();
        let (x, w, bias) = (g.constant("x", ta.clone()), g.constant("w", tb.clone()), g.constant("b", tbias.clone()));
        let product = g.matmul(x, w).unwrap();
        let mut unfused = g.add_bias(product, bias).unwrap();
        if relu {
            unfused = g.relu(unfused).unwrap();
        }
        let want = run_raw_graph(&g, unfused, &pool);
        let (fused, fused_cost) = kernels::matmul_bias_relu(&pool, &ta, &tb, &tbias, relu).unwrap();
        prop_assert_eq!(first_difference(fused.data(), want.data()), None, "fused m={} k={} n={}", m, k, n);
        prop_assert_eq!(fused_cost.flops, cost.flops + if relu { (m * n) as f64 } else { 0.0 });
        prop_assert!(fused_cost.critical_flops <= fused_cost.flops);
    }

    #[test]
    fn pooled_fused_conv2d_is_bit_identical_to_the_unfused_ops(
        b in 1usize..3,
        h in 1usize..20,
        w in 1usize..20,
        cin in 1usize..4,
        cout in 1usize..40,
        kh in 1usize..4,
        kw in 1usize..4,
        same in any::<bool>(),
        relu in any::<bool>(),
        special in any::<bool>(),
        workers in 1usize..8,
        seed in any::<u64>(),
    ) {
        use securetf_tensor::graph::Padding;
        use securetf_tensor::kernels::{self, WorkerPool, Workspace};
        let (padding, kh, kw) = if same {
            (Padding::Same, kh, kw)
        } else {
            (Padding::Valid, kh.min(h), kw.min(w))
        };
        let fill = if special { lcg_fill_special } else { lcg_fill };
        let input = Tensor::from_vec(&[b, h, w, cin], fill(seed, b * h * w * cin)).unwrap();
        let filter =
            Tensor::from_vec(&[kh, kw, cin, cout], fill(seed ^ 0xABCD, kh * kw * cin * cout)).unwrap();
        let bias = Tensor::from_vec(&[cout], fill(seed ^ 0xB1A5, cout)).unwrap();
        let pool = WorkerPool::new(workers);

        let mut g = Graph::new();
        let (x, f, bv) = (g.constant("x", input.clone()), g.constant("f", filter.clone()), g.constant("b", bias.clone()));
        let conv = g.conv2d(x, f, padding).unwrap();
        let mut unfused = g.add_bias(conv, bv).unwrap();
        if relu {
            unfused = g.relu(unfused).unwrap();
        }
        let want = run_raw_graph(&g, unfused, &pool);
        let (fused, cost) = kernels::conv2d_bias_relu_with(
            &pool,
            &mut Workspace::new(),
            &input,
            &filter,
            &bias,
            padding,
            relu,
            &mut |len| vec![f32::NAN; len],
        )
        .unwrap();
        prop_assert_eq!(fused.shape(), want.shape());
        prop_assert_eq!(first_difference(fused.data(), want.data()), None);
        // Priced as the fused GEMM it replaced, `[positions, patch] ×
        // [patch, cout]`.
        let (positions, patch) = (fused.len() / cout, kh * kw * cin);
        let cols = Tensor::zeros(&[positions, patch]);
        let product = kernels::matmul_bias_relu(&pool, &cols, &filter.reshape(&[patch, cout]).unwrap(), &bias, relu).unwrap().1;
        prop_assert_eq!(cost, product);
    }

    #[test]
    fn pooled_conv2d_forward_and_backward_are_bit_identical_to_naive(
        b in 1usize..3,
        h in 1usize..20,
        w in 1usize..20,
        cin in 1usize..4,
        cout in 1usize..4,
        kh in 1usize..4,
        kw in 1usize..4,
        same in any::<bool>(),
        special in any::<bool>(),
        workers in 1usize..8,
        seed in any::<u64>(),
    ) {
        use securetf_tensor::graph::Padding;
        use securetf_tensor::kernels::{self, reference, WorkerPool};
        // Valid padding requires the kernel to fit inside the input.
        let (padding, kh, kw) = if same {
            (Padding::Same, kh, kw)
        } else {
            (Padding::Valid, kh.min(h), kw.min(w))
        };
        let fill = if special { lcg_fill_special } else { lcg_fill };
        let input = Tensor::from_vec(&[b, h, w, cin], fill(seed, b * h * w * cin)).unwrap();
        let filter =
            Tensor::from_vec(&[kh, kw, cin, cout], fill(seed ^ 0xABCD, kh * kw * cin * cout))
                .unwrap();
        let pool = WorkerPool::new(workers);

        let naive_out = reference::naive_conv2d(&input, &filter, padding).unwrap();
        let (out, cost) = kernels::conv2d(&pool, &input, &filter, padding).unwrap();
        prop_assert_eq!(out.shape(), naive_out.shape());
        prop_assert_eq!(first_difference(out.data(), naive_out.data()), None);
        prop_assert!(cost.flops > 0.0);

        let grad =
            Tensor::from_vec(out.shape(), fill(seed ^ 0x5A5A, out.len())).unwrap();
        let (naive_gi, naive_gf) =
            reference::naive_conv2d_grad(&input, &filter, &grad, padding).unwrap();
        let (gi, gf, gcost) =
            kernels::conv2d_grad(&pool, &input, &filter, &grad, padding).unwrap();
        prop_assert_eq!(first_difference(gi.data(), naive_gi.data()), None);
        prop_assert_eq!(first_difference(gf.data(), naive_gf.data()), None);
        prop_assert!(gcost.critical_flops <= gcost.flops);

        // Priced, for every worker count, exactly as the GEMM it replaced,
        // `[positions, patch] × [patch, cout]`.
        let (positions, patch) = (out.len() / cout, kh * kw * cin);
        let (cols, taps) = (Tensor::zeros(&[positions, patch]), Tensor::zeros(&[patch, cout]));
        for workers in 1..=8 {
            let pool = WorkerPool::new(workers);
            let forward = kernels::conv2d(&pool, &input, &filter, padding).unwrap().1;
            prop_assert_eq!(forward, kernels::matmul(&pool, &cols, &taps).unwrap().1, "workers={}", workers);
        }
    }

    #[test]
    fn pooled_conv2d_grad_filter_and_input_each_match_their_half_of_naive(
        b in 1usize..3,
        h in 1usize..20,
        w in 1usize..20,
        cin_pick in 0usize..2,
        cout in 1usize..20,
        kernel_pick in 0usize..4,
        same in any::<bool>(),
        special in any::<bool>(),
        input_first in any::<bool>(),
        workers_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        use securetf_tensor::graph::Padding;
        use securetf_tensor::kernels::{self, reference, WorkerPool, Workspace};
        let cin = [1usize, 3][cin_pick];
        let kernel = [1usize, 2, 3, 5][kernel_pick];
        let workers = [1usize, 2, 3, 8][workers_pick];
        // Under Same padding the kernel may be wider than the image (taps
        // that only ever read padding); Valid requires it to fit.
        let (padding, kh, kw) = if same {
            (Padding::Same, kernel, kernel)
        } else {
            (Padding::Valid, kernel.min(h), kernel.min(w))
        };
        let fill = if special { lcg_fill_special } else { lcg_fill };
        let input = Tensor::from_vec(&[b, h, w, cin], fill(seed, b * h * w * cin)).unwrap();
        let filter =
            Tensor::from_vec(&[kh, kw, cin, cout], fill(seed ^ 0xABCD, kh * kw * cin * cout)).unwrap();
        let (oh, ow) = if same { (h, w) } else { (h - kh + 1, w - kw + 1) };
        let grad = Tensor::from_vec(&[b, oh, ow, cout], fill(seed ^ 0x5A5A, b * oh * ow * cout)).unwrap();
        let (naive_gi, naive_gf) = reference::naive_conv2d_grad(&input, &filter, &grad, padding).unwrap();

        // Each kernel alone, on one workspace, in either order: neither
        // depends on what the other left behind.
        let pool = WorkerPool::new(workers);
        let mut ws = Workspace::new();
        let mut gi = None;
        let mut gf = None;
        for input_half in [input_first, !input_first] {
            if input_half {
                gi = Some(kernels::conv2d_grad_input(
                    &pool, &mut ws, input.shape(), &filter, &grad, padding, &mut |len| vec![f32::NAN; len],
                ).unwrap());
            } else {
                gf = Some(kernels::conv2d_grad_filter(
                    &pool, &mut ws, &input, filter.shape(), &grad, padding, &mut |len| vec![f32::NAN; len],
                ).unwrap());
            }
        }
        let ((gi, gi_cost), (gf, gf_cost)) = (gi.unwrap(), gf.unwrap());
        prop_assert_eq!(gi.shape(), input.shape());
        prop_assert_eq!(gf.shape(), filter.shape());
        prop_assert_eq!(first_difference(gi.data(), naive_gi.data()), None, "input gradient");
        prop_assert_eq!(first_difference(gf.data(), naive_gf.data()), None, "filter gradient");
        let product = 2.0 * (b * oh * ow * kh * kw * cin * cout) as f64;
        prop_assert_eq!(gf_cost.flops, product);
        prop_assert_eq!(gi_cost.flops, product + (b * oh * ow * kh * kw * cin) as f64);
        for cost in [gi_cost, gf_cost] {
            prop_assert!(cost.critical_flops <= cost.flops);
            prop_assert!(cost.critical_flops * workers as f64 >= cost.flops);
        }
        // The filter gradient is priced, for every worker count, exactly
        // as the GEMM it replaced, `[patch, positions] × [positions,
        // cout]` (up to 75 taps and 19 channels: row blocks and panels).
        let (patch, positions) = (kh * kw * cin, b * oh * ow);
        let cols_t = Tensor::zeros(&[patch, positions]);
        let grad_rows = grad.reshape(&[positions, cout]).unwrap();
        for workers in 1..=8 {
            let pool = WorkerPool::new(workers);
            let filter_grad = kernels::conv2d_grad_filter(
                &pool, &mut ws, &input, filter.shape(), &grad, padding, &mut |len| vec![f32::NAN; len],
            ).unwrap().1;
            prop_assert_eq!(filter_grad, kernels::matmul(&pool, &cols_t, &grad_rows).unwrap().1, "workers={}", workers);
        }
    }

    #[test]
    fn full_graph_training_is_pool_invariant(
        workers in 2usize..8,
        lr_millis in 1usize..500,
        seed in any::<u64>(),
    ) {
        use securetf_tensor::kernels::WorkerPool;
        use securetf_tensor::layers;
        use securetf_tensor::optimizer::Sgd;
        use securetf_tensor::session::Session;

        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let model = layers::mlp_classifier(784, &[9], 10, &mut rng).unwrap();
        let data = securetf_data::synthetic_mnist(40, seed);
        let lr = lr_millis as f32 * 1e-3;

        let run = |pool: WorkerPool| {
            let mut session = Session::new(&model.graph);
            session.set_worker_pool(pool);
            let mut sgd = Sgd::new(lr);
            let (x, y) = data.batch(0, 40).unwrap();
            let mut loss = 0.0f32;
            for _ in 0..3 {
                loss = session
                    .train_step(
                        &model.graph,
                        &[(model.input, x.clone()), (model.labels, y.clone())],
                        model.loss,
                        &mut sgd,
                    )
                    .unwrap();
            }
            let out = session.run(&model.graph, &[(model.input, x)], &[model.logits]).unwrap();
            (loss.to_bits(), bits(&out[0]))
        };
        let (serial_loss, serial_logits) = run(WorkerPool::serial());
        let (pooled_loss, pooled_logits) = run(WorkerPool::new(workers));
        prop_assert_eq!(serial_loss, pooled_loss);
        prop_assert_eq!(serial_logits, pooled_logits);
    }
}

fn one_hot_labels(batch: usize, classes: usize, seed: u64) -> Tensor {
    let mut data = vec![0.0f32; batch * classes];
    for row in 0..batch {
        let class = (seed as usize + row * 7) % classes;
        data[row * classes + class] = 1.0;
    }
    Tensor::from_vec(&[batch, classes], data).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The unified memory planner (DESIGN.md §12): liveness-derived slots
    // must never alias while both are live, the runtime must never hold
    // more bytes than the planned peak, and execution must be bit-for-bit
    // identical for any shape, batch size, and worker count.

    #[test]
    fn training_plan_never_aliases_overlapping_lifetimes(
        widths in prop::collection::vec(2usize..12, 1..3),
        inputs in 2usize..10,
        classes in 2usize..5,
        batch in 1usize..5,
        seed in any::<u64>(),
    ) {
        use securetf_tensor::layers;
        use securetf_tensor::memory;
        use securetf_tensor::session::Session;
        use std::collections::HashMap;

        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let model = layers::mlp_classifier(inputs, &widths, classes, &mut rng).unwrap();
        let session = Session::new(&model.graph);
        let vars: HashMap<_, _> = session
            .variables()
            .into_iter()
            .map(|(id, t)| (id, t.clone()))
            .collect();
        let mut feeds = HashMap::new();
        feeds.insert(model.input, Tensor::zeros(&[batch, inputs]));
        feeds.insert(model.labels, one_hot_labels(batch, classes, seed));
        let needed = vec![true; model.graph.len()];
        let shapes = memory::infer_shapes(&model.graph, &needed, &feeds, &vars).unwrap();
        let plan = memory::plan_training(&model.graph, shapes, &needed, model.loss).unwrap();

        prop_assert!(plan.peak_bytes <= plan.unshared_bytes);
        let mut slots = Vec::new();
        for index in 0..model.graph.len() {
            if let Some(s) = plan.value_slot(index) {
                slots.push(*s);
            }
            if let Some(s) = plan.grad_slot(index) {
                slots.push(*s);
            }
        }
        for slot in &slots {
            prop_assert!(slot.offset + slot.bytes <= plan.peak_bytes);
        }
        for (i, a) in slots.iter().enumerate() {
            for b in slots.iter().skip(i + 1) {
                let lifetimes = a.live_from <= b.live_to && b.live_from <= a.live_to;
                let memory = a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
                prop_assert!(
                    !(lifetimes && memory),
                    "aliasing slots {:?} and {:?}",
                    a,
                    b
                );
            }
        }
    }

    #[test]
    fn planned_training_is_bit_identical_and_bounded(
        hidden in 2usize..16,
        inputs in 2usize..12,
        classes in 2usize..5,
        batch in 1usize..6,
        workers in 1usize..5,
        steps in 1usize..4,
        seed in any::<u64>(),
    ) {
        use securetf_tensor::kernels::WorkerPool;
        use securetf_tensor::layers;
        use securetf_tensor::optimizer::Sgd;
        use securetf_tensor::session::Session;

        let x = Tensor::from_vec(&[batch, inputs], lcg_fill(seed, batch * inputs)).unwrap();
        let y = one_hot_labels(batch, classes, seed);
        let run = |workers: usize| {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
            let model = layers::mlp_classifier(inputs, &[hidden], classes, &mut rng).unwrap();
            let mut session = Session::new(&model.graph);
            if workers > 1 {
                session.set_worker_pool(WorkerPool::new(workers));
            }
            let mut sgd = Sgd::new(0.05);
            let mut losses = Vec::new();
            let mut bounds = Vec::new();
            for _ in 0..steps {
                let loss = session
                    .train_step(
                        &model.graph,
                        &[(model.input, x.clone()), (model.labels, y.clone())],
                        model.loss,
                        &mut sgd,
                    )
                    .unwrap();
                losses.push(loss.to_bits());
                bounds.push(session.memory_stats());
            }
            let out = session
                .run(&model.graph, &[(model.input, x.clone())], &[model.logits])
                .unwrap();
            (losses, bits(&out[0]), bounds)
        };

        let (pooled_losses, pooled_logits, bounds) = run(workers);
        let (serial_losses, serial_logits, _) = run(1);
        prop_assert_eq!(pooled_losses, serial_losses);
        prop_assert_eq!(pooled_logits, serial_logits);
        for stats in bounds {
            prop_assert!(stats.planned_peak_bytes > 0);
            prop_assert!(
                stats.peak_resident_bytes <= stats.planned_peak_bytes,
                "resident {} exceeds planned peak {}",
                stats.peak_resident_bytes,
                stats.planned_peak_bytes
            );
        }
    }

    #[test]
    fn planned_conv_training_is_bit_identical_for_any_worker_count(
        batch in 1usize..4,
        filters in 1usize..5,
        classes in 2usize..5,
        workers in 1usize..5,
        seed in any::<u64>(),
    ) {
        use securetf_tensor::kernels::WorkerPool;
        use securetf_tensor::layers;
        use securetf_tensor::optimizer::Sgd;
        use securetf_tensor::session::Session;

        let x = Tensor::from_vec(&[batch, 8, 8, 1], lcg_fill(seed, batch * 64)).unwrap();
        let y = one_hot_labels(batch, classes, seed);
        let run = |workers: usize| {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
            let model = layers::conv_classifier(8, 8, 1, filters, classes, &mut rng).unwrap();
            let mut session = Session::new(&model.graph);
            if workers > 1 {
                session.set_worker_pool(WorkerPool::new(workers));
            }
            let mut sgd = Sgd::new(0.05);
            let mut losses = Vec::new();
            for _ in 0..2 {
                let loss = session
                    .train_step(
                        &model.graph,
                        &[(model.input, x.clone()), (model.labels, y.clone())],
                        model.loss,
                        &mut sgd,
                    )
                    .unwrap();
                losses.push(loss.to_bits());
            }
            let out = session
                .run(&model.graph, &[(model.input, x.clone())], &[model.logits])
                .unwrap();
            (losses, bits(&out[0]))
        };

        prop_assert_eq!(run(workers), run(1));
    }
}

/// Loss bits per step, first-step gradient bits by variable index, and
/// final logits bits of one training run.
type Trajectory = (Vec<u32>, Vec<(usize, Vec<u32>)>, Vec<u32>);

fn sorted_grad_bits(
    grads: &std::collections::HashMap<securetf_tensor::graph::NodeId, Tensor>,
) -> Vec<(usize, Vec<u32>)> {
    let mut grad_bits: Vec<(usize, Vec<u32>)> =
        grads.iter().map(|(id, g)| (id.index(), bits(g))).collect();
    grad_bits.sort_by_key(|(id, _)| *id);
    grad_bits
}

/// What a `Session` (which always lowers through the pass pipeline)
/// computes: first-step gradients, then `steps` SGD steps, then logits.
fn compiled_training(
    model: &securetf_tensor::layers::Classifier,
    feeds: &[(securetf_tensor::graph::NodeId, Tensor)],
    lr: f32,
    steps: usize,
    workers: usize,
) -> Trajectory {
    use securetf_tensor::kernels::WorkerPool;
    use securetf_tensor::optimizer::Sgd;
    use securetf_tensor::session::Session;

    let mut session = Session::new(&model.graph);
    if workers > 1 {
        session.set_worker_pool(WorkerPool::new(workers));
    }
    let (first_loss, grads) = session.gradients(&model.graph, feeds, model.loss).unwrap();
    let grad_bits = sorted_grad_bits(&grads);
    let mut sgd = Sgd::new(lr);
    let mut losses = vec![first_loss.to_bits()];
    for _ in 0..steps {
        let loss = session
            .train_step(&model.graph, feeds, model.loss, &mut sgd)
            .unwrap();
        losses.push(loss.to_bits());
    }
    let out = session
        .run(&model.graph, &feeds[..1], &[model.logits])
        .unwrap();
    (losses, grad_bits, bits(&out[0]))
}

/// The compiler's oracle: the same run on the raw, un-lowered graph,
/// driven through the public `PlannedExecutor` with the optimizer applied
/// by hand. `feeds[0]` must be the input feed.
fn raw_graph_training(
    model: &securetf_tensor::layers::Classifier,
    feeds: &[(securetf_tensor::graph::NodeId, Tensor)],
    lr: f32,
    steps: usize,
    workers: usize,
) -> Trajectory {
    use securetf_tensor::kernels::WorkerPool;
    use securetf_tensor::memory::PlannedExecutor;
    use securetf_tensor::optimizer::{Optimizer, Sgd};
    use securetf_tensor::session::Session;
    use std::collections::HashMap;

    let graph = &model.graph;
    let pool = if workers > 1 {
        WorkerPool::new(workers)
    } else {
        WorkerPool::serial()
    };
    let mut vars: HashMap<_, _> = Session::new(graph)
        .variables()
        .into_iter()
        .map(|(id, t)| (id, t.clone()))
        .collect();
    let feed_map: HashMap<_, _> = feeds.iter().cloned().collect();
    let mut executor = PlannedExecutor::new();
    let (first_loss, grads, _) = executor
        .train(graph, &feed_map, &vars, model.loss, &pool)
        .unwrap();
    let grad_bits = sorted_grad_bits(&grads);
    let mut sgd = Sgd::new(lr);
    let mut losses = vec![first_loss.to_bits()];
    for _ in 0..steps {
        let (loss, grads, _) = executor
            .train(graph, &feed_map, &vars, model.loss, &pool)
            .unwrap();
        for var in graph.variables() {
            if let Some(grad) = grads.get(&var) {
                sgd.apply(var, vars.get_mut(&var).unwrap(), grad).unwrap();
            }
        }
        losses.push(loss.to_bits());
    }
    let input: HashMap<_, _> = feeds[..1].iter().cloned().collect();
    let (out, _) = executor
        .run(graph, &input, &vars, &[model.logits], &pool)
        .unwrap();
    (losses, grad_bits, bits(&out[0]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The graph-compiler pass pipeline (DESIGN.md §16): optimizing a
    // graph (DCE, constant folding, fusion) must be invisible in the
    // numbers. For any model shape, batch size
    // and worker count, the lowered execution is bit-for-bit identical
    // to the raw graph on the same executor: same outputs, same
    // gradients, same loss trajectory.

    #[test]
    fn compiled_mlp_training_is_bit_identical_to_unoptimized(
        widths in prop::collection::vec(2usize..12, 1..3),
        inputs in 2usize..10,
        classes in 2usize..5,
        batch in 1usize..5,
        workers in 1usize..6,
        seed in any::<u64>(),
    ) {
        use securetf_tensor::layers;

        let x = Tensor::from_vec(&[batch, inputs], lcg_fill(seed, batch * inputs)).unwrap();
        let y = one_hot_labels(batch, classes, seed);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let model = layers::mlp_classifier(inputs, &widths, classes, &mut rng).unwrap();
        let feeds = [(model.input, x), (model.labels, y)];
        prop_assert_eq!(
            compiled_training(&model, &feeds, 0.05, 3, workers),
            raw_graph_training(&model, &feeds, 0.05, 3, workers)
        );
    }

    // Borrowed leaves (DESIGN.md §12): the executor reads constants,
    // variables and feeds where they live. The oracle is the graph an
    // executor that *copied* every leaf into the run would have seen —
    // each leaf routed through one explicit `scale(leaf, 1.0)` copy. A
    // leaf read twice by one op, a variable shared by two layers and a
    // constant squared in place must give the same losses, gradients and
    // logits either way, raw and compiled, for any worker count.
    #[test]
    fn borrowed_leaves_train_bit_identically_to_copied_leaves(
        dim in 2usize..7,
        batch in 1usize..5,
        workers in 1usize..5,
        seed in any::<u64>(),
    ) {
        use securetf_tensor::graph::Graph;
        use securetf_tensor::layers::Classifier;

        let build = |copy_leaves: bool| {
            let mut g = Graph::new();
            let square = |salt: u64| {
                Tensor::from_vec(&[dim, dim], lcg_fill(seed ^ salt, dim * dim)).unwrap()
            };
            let input = g.placeholder("input", &[0, dim]);
            let labels = g.placeholder("labels", &[0, dim]);
            let w = g.variable("w", square(0xA1));
            let b = g.variable("b", Tensor::from_vec(&[dim], lcg_fill(seed ^ 0xB2, dim)).unwrap());
            let c = g.constant("c", square(0xC3));
            let [x, y, wv, bv, cv] = [input, labels, w, b, c].map(|leaf| {
                if copy_leaves { g.scale(leaf, 1.0).unwrap() } else { leaf }
            });
            let xx = g.mul(x, x).unwrap();
            let ww = g.matmul(wv, wv).unwrap();
            let cc = g.mul(cv, cv).unwrap();
            let mixed = g.add(ww, cc).unwrap();
            let h = g.matmul(xx, mixed).unwrap();
            let h = g.add_bias(h, bv).unwrap();
            let h = g.relu(h).unwrap();
            let logits = g.matmul(h, wv).unwrap();
            let logits = g.add_bias(logits, bv).unwrap();
            let loss = g.softmax_cross_entropy(logits, y).unwrap();
            Classifier { graph: g, input, labels, logits, probabilities: logits, loss }
        };
        let (borrowed, copied) = (build(false), build(true));
        let feeds = [
            (borrowed.input, Tensor::from_vec(&[batch, dim], lcg_fill(seed, batch * dim)).unwrap()),
            (borrowed.labels, one_hot_labels(batch, dim, seed)),
        ];
        let raw = raw_graph_training(&borrowed, &feeds, 0.05, 3, workers);
        prop_assert_eq!(&raw, &raw_graph_training(&copied, &feeds, 0.05, 3, 1));
        prop_assert_eq!(&raw, &compiled_training(&borrowed, &feeds, 0.05, 3, workers));
    }

    #[test]
    fn compiled_conv_bias_relu_training_is_bit_identical_to_unoptimized(
        h in 4usize..8,
        w in 4usize..8,
        cin in 1usize..3,
        cout in 1usize..4,
        classes in 2usize..5,
        batch in 1usize..4,
        workers in 1usize..6,
        seed in any::<u64>(),
    ) {
        use securetf_tensor::graph::{Graph, Padding};
        use securetf_tensor::layers::Classifier;

        // A conv → bias → relu head the fusion pass rewrites into
        // FusedConv2d, followed by a dense layer it rewrites into
        // FusedMatMul; the raw-graph baseline runs the original ops.
        let model = {
            let mut g = Graph::new();
            let input = g.placeholder("input", &[0, h, w, cin]);
            let labels = g.placeholder("labels", &[0, classes]);
            let f = g.variable(
                "conv/f",
                Tensor::from_vec(&[3, 3, cin, cout], lcg_fill(seed ^ 0xF1, 9 * cin * cout))
                    .unwrap(),
            );
            let cb = g.variable(
                "conv/b",
                Tensor::from_vec(&[cout], lcg_fill(seed ^ 0xB2, cout)).unwrap(),
            );
            let conv = g.conv2d(input, f, Padding::Same).unwrap();
            let biased = g.add_bias(conv, cb).unwrap();
            let act = g.relu(biased).unwrap();
            let flat = g.flatten(act).unwrap();
            let dim = h * w * cout;
            let wv = g.variable(
                "fc/w",
                Tensor::from_vec(&[dim, classes], lcg_fill(seed ^ 0xC3, dim * classes))
                    .unwrap(),
            );
            let bv = g.variable(
                "fc/b",
                Tensor::from_vec(&[classes], lcg_fill(seed ^ 0xD4, classes)).unwrap(),
            );
            let mm = g.matmul(flat, wv).unwrap();
            let logits = g.add_bias(mm, bv).unwrap();
            let loss = g.softmax_cross_entropy(logits, labels).unwrap();
            Classifier { graph: g, input, labels, logits, probabilities: logits, loss }
        };
        let x = Tensor::from_vec(&[batch, h, w, cin], lcg_fill(seed, batch * h * w * cin))
            .unwrap();
        let y = one_hot_labels(batch, classes, seed);
        let feeds = [(model.input, x), (model.labels, y)];
        prop_assert_eq!(
            compiled_training(&model, &feeds, 0.02, 2, workers),
            raw_graph_training(&model, &feeds, 0.02, 2, workers)
        );
    }

    #[test]
    fn compiled_lite_inference_is_bit_identical_to_unoptimized(
        widths in prop::collection::vec(2usize..10, 1..4),
        inputs in 2usize..8,
        classes in 2usize..5,
        rows in 1usize..6,
        workers in 1usize..6,
        seed in any::<u64>(),
    ) {
        use securetf_tensor::kernels::WorkerPool;
        use securetf_tensor::memory::PlannedExecutor;
        use securetf_tflite::interpreter::Interpreter;
        use securetf_tflite::model::LiteModel;
        use std::collections::HashMap;

        // A frozen dense classifier: matmul → bias → relu per hidden
        // layer, matmul → bias → softmax head. Every layer is a fusion
        // candidate for the inference pipeline.
        let mut g = Graph::new();
        let mut x = g.placeholder("input", &[0, inputs]);
        let mut dim = inputs;
        for (i, &width) in widths.iter().enumerate() {
            let w = g.constant(
                &format!("l{i}/w"),
                Tensor::from_vec(&[dim, width], lcg_fill(seed ^ i as u64, dim * width))
                    .unwrap(),
            );
            let b = g.constant(
                &format!("l{i}/b"),
                Tensor::from_vec(&[width], lcg_fill(seed ^ (0x77 + i as u64), width)).unwrap(),
            );
            x = g.matmul(x, w).unwrap();
            x = g.add_bias(x, b).unwrap();
            x = g.relu(x).unwrap();
            dim = width;
        }
        let w = g.constant(
            "head/w",
            Tensor::from_vec(&[dim, classes], lcg_fill(seed ^ 0xE5, dim * classes)).unwrap(),
        );
        let b = g.constant(
            "head/b",
            Tensor::from_vec(&[classes], lcg_fill(seed ^ 0xF6, classes)).unwrap(),
        );
        x = g.matmul(x, w).unwrap();
        x = g.add_bias(x, b).unwrap();
        let out = g.softmax(x).unwrap();
        let out_name = g.nodes()[out.index()].name.clone();
        let lite = LiteModel::convert(&g, "input", &out_name).unwrap();
        let x = Tensor::from_vec(&[rows, inputs], lcg_fill(seed, rows * inputs)).unwrap();

        // Baseline: the model's graph exactly as converted, on the same
        // executor the interpreter uses.
        let (expect, _) = PlannedExecutor::new()
            .run(
                lite.graph(),
                &HashMap::from([(lite.input(), x.clone())]),
                &HashMap::new(),
                &[lite.output()],
                &WorkerPool::serial(),
            )
            .unwrap();
        let expect = &expect[0];

        let mut optimized = Interpreter::with_pool(lite.clone(), WorkerPool::new(workers));
        let got = optimized.run(&x).unwrap();
        prop_assert_eq!(bits(&got), bits(expect));
        // The pipeline ran and fused every dense layer's matmul chain.
        let report = optimized.pipeline_report().expect("pipeline ran");
        prop_assert!(report.nodes_fused() > widths.len() as u64);
        prop_assert!(optimized.model().graph().len() < lite.graph().len());
    }

    // The interpreter packs every weight of a fused stack into panels;
    // its logits and its charged cost are the unpacked executor's, bit
    // for bit, at any batch up to three row blocks, across the narrow
    // last panel, the k-panel boundaries and the column split.
    #[test]
    fn pooled_packed_interpreter_is_bit_identical_to_the_unpacked_executor(
        m in 1usize..=130,
        dims in prop::collection::vec(any::<prop::sample::Index>(), 2..4),
        workers in 1usize..6,
        special in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use securetf_tensor::graph::Op;
        use securetf_tensor::kernels::WorkerPool;
        use securetf_tensor::memory::PlannedExecutor;
        use securetf_tflite::interpreter::Interpreter;
        use securetf_tflite::model::LiteModel;
        use securetf_tflite::optimize::optimize_for_inference;
        use std::collections::HashMap;

        let sizes: Vec<usize> = (1..=20).chain(255..=258).chain(511..=514).collect();
        let dims: Vec<usize> = dims.iter().map(|i| sizes[i.index(sizes.len())]).collect();
        let fill = if special { lcg_fill_special } else { lcg_fill };
        let mut g = Graph::new();
        let mut x = g.placeholder("input", &[0, dims[0]]);
        for (l, pair) in dims.windows(2).enumerate() {
            let (k, n) = (pair[0], pair[1]);
            let w = g.constant(
                &format!("l{l}/w"),
                // Distinct above bit 0 (the fill ignores it), so no two
                // layers' weights are equal.
                Tensor::from_vec(&[k, n], fill(seed ^ ((l as u64 + 1) << 8), k * n)).unwrap(),
            );
            let b = g.constant(
                &format!("l{l}/b"),
                Tensor::from_vec(&[n], fill(seed ^ ((l as u64 + 1) << 16), n)).unwrap(),
            );
            x = g.matmul(x, w).unwrap();
            x = g.add_bias(x, b).unwrap();
            x = g.relu(x).unwrap();
        }
        // The one node named "softmax": the output binding is by name.
        let out = g.softmax(x).unwrap();
        let out_name = g.nodes()[out.index()].name.clone();
        let lite = LiteModel::convert(&g, "input", &out_name).unwrap();
        let input = Tensor::from_vec(&[m, dims[0]], fill(seed, m * dims[0])).unwrap();
        let mut interpreter = Interpreter::with_pool(lite.clone(), WorkerPool::new(workers));
        let packed = interpreter
            .model()
            .graph()
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::PackedConstant(_)))
            .count();
        prop_assert_eq!(packed, dims.len() - 1);
        let got = interpreter.run(&input).unwrap();

        let (lowered, _) = optimize_for_inference(lite).unwrap();
        let feeds = HashMap::from([(lowered.input(), input.clone())]);
        let (want, stats) = PlannedExecutor::new()
            .run(lowered.graph(), &feeds, &HashMap::new(), &[lowered.output()], &WorkerPool::new(workers))
            .unwrap();
        prop_assert_eq!(first_difference(got.data(), want[0].data()), None, "dims={:?} m={}", &dims, m);
        prop_assert_eq!(interpreter.stats(), stats);
    }
}

// ---- parallel-sealing worker-count parity ---------------------------------

/// Test transport for cross-thread handshakes: retries empty receives (the
/// two handshake halves run on different threads) and logs every record it
/// sends so wire bytes can be compared across configurations.
struct LoggedPipe {
    inner: securetf_shield::net::PipeEnd,
    sent: Arc<std::sync::Mutex<Vec<Vec<u8>>>>,
}

impl securetf_shield::net::Transport for LoggedPipe {
    fn send(&self, message: Vec<u8>) {
        self.sent.lock().unwrap().push(message.clone());
        self.inner.send(message);
    }

    fn recv(&self) -> Option<Vec<u8>> {
        for _ in 0..200_000 {
            if let Some(m) = self.inner.recv() {
                return Some(m);
            }
            std::thread::yield_now();
        }
        None
    }
}

/// Builds an enclave on a platform with a *pinned* id so repeated runs
/// derive identical platform secrets — required for comparing sealed
/// bytes across configurations.
fn pinned_enclave(platform_id: u64, code: &[u8]) -> Arc<securetf_tee::Enclave> {
    let platform = Platform::builder().id(platform_id).build();
    platform
        .create_enclave(
            &EnclaveImage::builder().code(code).build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave")
}

/// Writes `data` through a fresh fs shield sealing with `workers` threads
/// and returns the resulting host disk image plus the read-back bytes.
fn shielded_disk_image(workers: usize, data: &[u8]) -> (Vec<(String, Vec<u8>)>, Vec<u8>) {
    let store = UntrustedStore::new();
    let mut shield = FsShield::with_key(
        pinned_enclave(0x5f70_0001, b"fs-worker-parity"),
        store.clone(),
        Key::from_bytes([0x21; 32]),
    );
    shield.set_worker_pool(securetf_tensor::kernels::WorkerPool::new(workers));
    shield.write("/model/weights.bin", data).expect("write");
    let image = store
        .paths()
        .into_iter()
        .map(|p| {
            let contents = store.raw_contents(&p).expect("listed path exists");
            (p, contents)
        })
        .collect();
    let back = shield.read("/model/weights.bin").expect("read");
    (image, back)
}

/// Sends `chunks` over a fresh secure channel sealing with `workers`
/// threads and returns the initiator's wire records plus what the peer
/// decrypted.
fn vectored_wire(workers: usize, chunks: &[Vec<u8>]) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    use securetf_shield::net::{duplex, Role, SecureChannel};

    let (pa, pb) = duplex(None);
    let sent = Arc::new(std::sync::Mutex::new(Vec::new()));
    let la = LoggedPipe {
        inner: pa,
        sent: sent.clone(),
    };
    let lb = LoggedPipe {
        inner: pb,
        sent: Arc::new(std::sync::Mutex::new(Vec::new())),
    };
    let ea = pinned_enclave(0x5f70_0002, b"net-worker-parity-a");
    let eb = pinned_enclave(0x5f70_0003, b"net-worker-parity-b");
    let init = std::thread::spawn(move || {
        SecureChannel::handshake(la, ea, Role::Initiator).expect("initiator handshake")
    });
    let mut b = SecureChannel::handshake(lb, eb, Role::Responder).expect("responder handshake");
    let mut a = init.join().expect("initiator thread");

    a.set_worker_pool(securetf_tensor::kernels::WorkerPool::new(workers));
    let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
    a.send_vectored(&refs).expect("send_vectored");
    let received: Vec<Vec<u8>> = chunks.iter().map(|_| b.recv().expect("recv")).collect();
    let wire = sent.lock().unwrap().clone();
    (wire, received)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Parallel in-place chunk sealing in the fs shield is bit-identical to
    // the serial path: the *entire* host disk image (the ciphertext object,
    // sealed manifest) matches for every worker count, and every image
    // reads back to the original payload.
    #[test]
    fn pooled_fs_disk_image_identical_for_any_worker_count(
        len in 0usize..(3 * securetf_shield::fs::CHUNK_SIZE + 700),
        seed in any::<u8>(),
    ) {
        let data: Vec<u8> = (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect();
        let (serial_image, serial_back) = shielded_disk_image(1, &data);
        prop_assert_eq!(&serial_back, &data);
        for workers in [2usize, 4, 7] {
            let (image, back) = shielded_disk_image(workers, &data);
            prop_assert_eq!(&back, &data);
            prop_assert_eq!(&image, &serial_image, "disk image diverged at {} workers", workers);
        }
    }

    // Parallel vectored sends put byte-identical records on the wire for
    // every worker count, and the peer decrypts them in order.
    #[test]
    fn vectored_send_wire_bytes_identical_for_any_worker_count(
        sizes in prop::collection::vec(0usize..5000, 1..7),
        seed in any::<u8>(),
    ) {
        let chunks: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                (0..n).map(|j| (j as u8) ^ seed.wrapping_add(i as u8)).collect()
            })
            .collect();
        let (serial_wire, serial_recv) = vectored_wire(1, &chunks);
        prop_assert_eq!(&serial_recv, &chunks);
        for workers in [2usize, 5] {
            let (wire, received) = vectored_wire(workers, &chunks);
            prop_assert_eq!(&received, &chunks);
            prop_assert_eq!(&wire, &serial_wire, "wire bytes diverged at {} workers", workers);
        }
    }
}

// ---------------------------------------------------------------------------
// One crew: whichever thread runs a region, nothing a caller can read moves.
// ---------------------------------------------------------------------------

use securetf_distrib::cluster::{Cluster, ClusterConfig};
use securetf_distrib::comm::{Codec, CommConfig, CommStats};
use securetf_distrib::trainer::DistributedTrainer;
use securetf_tensor::kernels::{self, WorkerPool};

/// Everything a short distributed run hands back.
#[derive(Debug, PartialEq)]
struct TrainerTrace {
    loss_bits: Vec<u32>,
    checkpoint: Vec<u8>,
    elapsed_ns: u64,
    comm: CommStats,
}

/// Three steps of two conv workers over two shards, their gradient
/// phases side by side on a `pool`-worker pool.
fn trainer_trace(pool: usize, comm: CommConfig) -> TrainerTrace {
    let cluster = Cluster::new(ClusterConfig {
        workers: 2,
        parameter_servers: 2,
        ..ClusterConfig::default()
    })
    .expect("cluster");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(21);
    let model =
        securetf_tensor::layers::conv_classifier(28, 28, 1, 4, 10, &mut rng).expect("model");
    let data = securetf_data::synthetic_mnist(48, 9);
    let mut trainer = DistributedTrainer::new(cluster, model, data, 16, 0.05).expect("trainer");
    trainer.set_comm_config(comm);
    trainer.set_worker_pool(WorkerPool::new(pool));
    let loss_bits = (0..3)
        .map(|_| trainer.step().expect("step").to_bits())
        .collect();
    // The three steps' time: the checkpoint below is charged to the PS
    // clock and so would join the trainer's composed time.
    let elapsed_ns = trainer.elapsed_ns();
    TrainerTrace {
        loss_bits,
        checkpoint: trainer.checkpoint_bytes("/ckpt/crew").expect("checkpoint"),
        elapsed_ns,
        comm: trainer.comm_stats(),
    }
}

/// What the parent commit — whose workers ran one after another, on a
/// thread per kernel call — produced: `(codec, overlap, bytes sent, bytes
/// saved)`, then `(elapsed, exposed comm, hidden comm)` in ns for pools of
/// 1, 2 and 4. A wider pool shortens a worker's critical path, which
/// moves virtual time and, with overlap, when a chunk is ready; it moves
/// nothing else.
type PoolTimes = (u64, u64, u64);
const PARENT_TRAINER_TRACES: [(Codec, bool, u64, u64, [PoolTimes; 3]); 4] = [
    (
        Codec::Dense,
        false,
        379_416,
        0,
        [
            (20_403_227, 6_737_160, 1_247_937),
            (18_942_635, 6_737_160, 1_247_937),
            (18_212_339, 6_737_160, 1_247_937),
        ],
    ),
    (
        Codec::Dense,
        true,
        379_446,
        0,
        [
            (20_334_546, 6_668_479, 1_917_254),
            (18_880_622, 6_675_147, 1_910_586),
            (18_153_659, 6_678_480, 1_907_253),
        ],
    ),
    (
        Codec::Quantized,
        false,
        237_540,
        141_876,
        [
            (17_858_609, 4_192_542, 765_867),
            (16_398_017, 4_192_542, 765_867),
            (15_667_721, 4_192_542, 765_867),
        ],
    ),
    (
        Codec::Quantized,
        true,
        237_570,
        141_876,
        [
            (17_794_821, 4_128_754, 1_430_291),
            (16_340_897, 4_135_422, 1_423_623),
            (15_613_934, 4_138_755, 1_420_290),
        ],
    ),
];

#[test]
fn crew_pool_size_moves_nothing_in_a_trainer_run_but_the_critical_path() {
    for (codec, overlap, bytes_sent, bytes_saved, times) in PARENT_TRAINER_TRACES {
        let comm = CommConfig { codec, overlap };
        let serial = trainer_trace(1, comm);
        for (pool, (elapsed_ns, comm_ns, overlap_hidden_ns)) in
            [1usize, 2, 4].into_iter().zip(times)
        {
            let what = format!("{codec:?} overlap={overlap} pool={pool}");
            let trace = trainer_trace(pool, comm);
            assert_eq!(trace, trainer_trace(pool, comm), "{what}: two runs differ");
            assert_eq!(trace.loss_bits, serial.loss_bits, "{what}: losses");
            assert_eq!(trace.checkpoint, serial.checkpoint, "{what}: checkpoint");
            assert_eq!(trace.elapsed_ns, elapsed_ns, "{what}: virtual time");
            let recorded = CommStats {
                bytes_sent,
                bytes_saved,
                comm_ns,
                overlap_hidden_ns,
            };
            assert_eq!(trace.comm, recorded, "{what}: comm accounting");
        }
    }
}

#[test]
fn crew_contention_keeps_every_result_bit_identical_to_the_serial_pool() {
    use securetf_tensor::graph::Padding;
    const THREADS: usize = 8;
    const ROUNDS: usize = 6;

    let lhs = Tensor::from_vec(&[70, 33], lcg_fill(1, 70 * 33)).unwrap();
    let rhs = Tensor::from_vec(&[33, 40], lcg_fill(2, 33 * 40)).unwrap();
    let image = Tensor::from_vec(&[4, 9, 9, 3], lcg_fill(3, 4 * 9 * 9 * 3)).unwrap();
    let filter = Tensor::from_vec(&[3, 3, 3, 5], lcg_fill(4, 3 * 3 * 3 * 5)).unwrap();
    let file: Vec<u8> = (0..1usize << 20)
        .map(|i| (i * 31 + i / 4096) as u8)
        .collect();

    let work = |pool: usize| {
        let workers = WorkerPool::new(pool);
        let product = kernels::matmul(&workers, &lhs, &rhs).unwrap().0;
        let conv = kernels::conv2d(&workers, &image, &filter, Padding::Same)
            .unwrap()
            .0;
        (
            bits(&product),
            bits(&conv),
            shielded_disk_image(pool, &file),
        )
    };
    let serial = work(1);
    assert_eq!(serial.2 .1, file);

    // Leases are exclusive: of eight callers starting together at most
    // `crew` get a member each, the others run every region themselves,
    // and nobody waits on anybody else's.
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (work, serial, start) = (&work, &serial, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let pool = 2 + (thread + round) % 3;
                    assert_eq!(
                        &work(pool),
                        serial,
                        "thread {thread} round {round} pool {pool}"
                    );
                }
            });
        }
    });
}
