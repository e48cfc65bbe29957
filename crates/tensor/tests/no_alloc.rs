//! Counting-allocator proof of the executor's steady-state memory
//! contract (DESIGN.md §12): a run reads constants, variables and feeds
//! where they live, every tensor it creates is taken from the arena and
//! put back, and so a warmed-up run allocates only what it hands to the
//! caller — fetched outputs and variable gradients — however large the
//! model is, and the buffer pool holds the same bytes after run 50 as
//! after run 3 — on the calling thread alone and on a two-worker pool,
//! whose dispatch onto the crew allocates nothing at all. This file holds
//! exactly one test so allocations from other tests in the same process
//! can never pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::SeedableRng;
use securetf_tensor::graph::{Graph, NodeId};
use securetf_tensor::kernels::WorkerPool;
use securetf_tensor::layers;
use securetf_tensor::optimizer::Sgd;
use securetf_tensor::session::Session;
use securetf_tensor::tensor::Tensor;
use securetf_tensor::TensorError;
use securetf_tflite::interpreter::Interpreter;
use securetf_tflite::model::LiteModel;
use securetf_tflite::LiteError;

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Ordering::SeqCst);
    CALLS.fetch_add(1, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `f`'s result plus the `(bytes, calls)` it requested from the heap.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (bytes, calls) = (BYTES.load(Ordering::SeqCst), CALLS.load(Ordering::SeqCst));
    let out = f();
    (
        out,
        BYTES.load(Ordering::SeqCst) - bytes,
        CALLS.load(Ordering::SeqCst) - calls,
    )
}

/// What a run may allocate beyond the tensors it hands to the caller:
/// shape vectors, the needed-set, the slot-write log, small maps.
const SLACK_BYTES: u64 = 64 * 1024;
const SLACK_CALLS: u64 = 256;
const WIDTH: usize = 768;

/// A frozen `matmul → bias → relu` stack of `layers` square layers.
fn dense_stack(layers: usize) -> LiteModel {
    let mut g = Graph::new();
    let input = g.placeholder("input", &[0, WIDTH]);
    let mut x = input;
    for i in 0..layers {
        let fill = |n: usize, salt: usize| -> Vec<f32> {
            (0..n)
                .map(|j| ((j * 31 + salt * 17 + i) % 23) as f32 * 0.004 - 0.04)
                .collect()
        };
        let w = g.constant(
            &format!("l{i}/w"),
            Tensor::from_vec(&[WIDTH, WIDTH], fill(WIDTH * WIDTH, 1)).unwrap(),
        );
        let b = g.constant(
            &format!("l{i}/b"),
            Tensor::from_vec(&[WIDTH], fill(WIDTH, 2)).unwrap(),
        );
        x = g.matmul(x, w).unwrap();
        x = g.add_bias(x, b).unwrap();
        x = g.relu(x).unwrap();
    }
    // Op nodes share their kind's name, so bind the output by id.
    let name = g.nodes()[x.index()].name.clone();
    let by_name = LiteModel::convert(&g, "input", &name).unwrap();
    by_name.rebound(g, input, x).unwrap()
}

#[test]
fn steady_state_runs_allocate_only_what_they_hand_out() {
    // A dispatch itself — cut, lease, hand-over, join — touches the heap
    // only on the call that starts the crew.
    let two = WorkerPool::new(2);
    let mut items = [0u64; 64];
    two.run_items(&mut items, &|i, v| *v += i as u64);
    let ((), bytes, calls) = allocated(|| {
        for _ in 0..100 {
            two.run_items(&mut items, &|i, v| *v += i as u64);
        }
    });
    assert_eq!((bytes, calls), (0, 0), "a warmed-up dispatch allocated");
    assert_eq!(items[63], 63 * 101);

    for pool in [WorkerPool::serial(), two] {
        steady_state_on(pool);
    }
}

fn steady_state_on(pool: WorkerPool) {
    // (a) Inference: per-run heap traffic is independent of model size.
    for layers in [2usize, 8] {
        let model = dense_stack(layers);
        let param_bytes = model.param_bytes();
        assert!(
            param_bytes >= 4 << 20,
            "{layers} layers: only {param_bytes} parameter bytes"
        );
        let mut interpreter = Interpreter::new(model);
        interpreter.set_worker_pool(pool);
        assert_eq!(
            interpreter.model().graph().len(),
            1 + 3 * layers,
            "layers were not fused"
        );
        let input = Tensor::full(&[4, WIDTH], 0.25);
        let mut expect = None;
        let mut pooled_at_3 = 0;
        for run in 1..=50 {
            let (out, bytes, calls) = allocated(|| interpreter.run(&input).unwrap());
            let bits: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                expect.get_or_insert(bits.clone()),
                &bits,
                "run {run} changed the output"
            );
            if run > 2 {
                assert!(
                    bytes < SLACK_BYTES && calls < SLACK_CALLS,
                    "{pool:?}, {layers} layers ({param_bytes} parameter bytes), run {run}: \
                     {bytes} bytes in {calls} allocations"
                );
            }
            if run == 3 {
                pooled_at_3 = interpreter.memory_stats().pooled_bytes;
                assert!(pooled_at_3 > 0, "nothing was recycled");
            }
        }
        assert_eq!(
            interpreter.memory_stats().pooled_bytes,
            pooled_at_3,
            "pool grew"
        );

        // A failed run parks nothing extra and leaves nothing resident.
        assert!(matches!(
            interpreter.run(&Tensor::zeros(&[4, WIDTH + 1])),
            Err(LiteError::Exec(TensorError::BadFeed(_)))
        ));
        assert_eq!(interpreter.memory_stats().resident_bytes, 0);
        assert!(interpreter.memory_stats().pooled_bytes <= pooled_at_3);
        interpreter.run(&input).unwrap();
        assert_eq!(interpreter.memory_stats().pooled_bytes, pooled_at_3);
    }

    // (b) Training: a step allocates the variable gradients it returns
    // (the optimizer consumes them) and nothing activation-sized.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let model = layers::conv_classifier(28, 28, 1, 16, 10, &mut rng).unwrap();
    let batch = 32usize;
    let images: Vec<f32> = (0..batch * 28 * 28)
        .map(|i| (i % 29) as f32 * 0.03 - 0.4)
        .collect();
    let mut labels = Tensor::zeros(&[batch, 10]);
    for row in 0..batch {
        labels.data_mut()[row * 10 + row % 10] = 1.0;
    }
    let feeds: [(NodeId, Tensor); 2] = [
        (
            model.input,
            Tensor::from_vec(&[batch, 28, 28, 1], images).unwrap(),
        ),
        (model.labels, labels),
    ];
    let mut session = Session::new(&model.graph);
    session.set_worker_pool(pool);
    let gradient_bytes = session.param_bytes();
    let mut sgd = Sgd::new(0.01);
    let mut pooled_at_3 = 0;
    for step in 1..=50 {
        let (loss, bytes, calls) = allocated(|| {
            session
                .train_step(&model.graph, &feeds, model.loss, &mut sgd)
                .unwrap()
        });
        assert!(loss.is_finite());
        if step > 2 {
            assert!(
                bytes < gradient_bytes + SLACK_BYTES && calls < SLACK_CALLS,
                "{pool:?}, step {step}: {bytes} bytes in {calls} allocations \
                 ({gradient_bytes} gradient bytes)"
            );
        }
        if step == 3 {
            pooled_at_3 = session.memory_stats().pooled_bytes;
            assert!(pooled_at_3 > 0, "nothing was recycled");
        }
    }
    assert_eq!(
        session.memory_stats().pooled_bytes,
        pooled_at_3,
        "pool grew"
    );

    let misshaped = [
        (model.input, Tensor::zeros(&[batch, 28, 28, 2])),
        feeds[1].clone(),
    ];
    assert!(matches!(
        session.train_step(&model.graph, &misshaped, model.loss, &mut sgd),
        Err(TensorError::BadFeed(_))
    ));
    assert_eq!(session.memory_stats().resident_bytes, 0);
    assert!(session.memory_stats().pooled_bytes <= pooled_at_3);
    session
        .train_step(&model.graph, &feeds, model.loss, &mut sgd)
        .unwrap();
    assert_eq!(session.memory_stats().pooled_bytes, pooled_at_3);
}
