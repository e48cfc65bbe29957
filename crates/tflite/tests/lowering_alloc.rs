//! Counting-allocator proof that building and loading a model cost
//! memory in nodes, not in weights: `models::build` hands the graph it
//! built to the model by move, so it allocates the weights once plus
//! O(nodes) bytes; `Interpreter::new` lowers the model where it lies —
//! the pass pipeline moves every weight from the model it is handed into
//! the lowered graph — and packs the matmul weights through one scratch,
//! so it allocates at most the largest weight plus O(nodes) bytes; and
//! `LiteModel::to_bytes` writes once into a buffer of its exact length,
//! so it allocates that length plus O(nodes) bytes. A pipeline that
//! copied the graph, or an export into a growing buffer, allocates a
//! multiple of the model instead.
//! This file holds exactly one test so allocations from other tests in
//! the same process can never pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use securetf_tensor::graph::Op;
use securetf_tflite::interpreter::Interpreter;
use securetf_tflite::models::{self, ModelSpec};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes `f` allocates (a reallocation counts its new size).
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::SeqCst);
    let value = f();
    (value, BYTES.load(Ordering::SeqCst) - before)
}

/// Allowance per node for everything a pass or an export keeps per node:
/// remaps, keys, node records, names.
const PER_NODE: u64 = 4096;

#[test]
fn loading_and_exporting_a_model_allocate_no_copy_of_its_weights() {
    // Two 1024 x 1024 weights and a 1024 x 1021 tail, 12 MiB in all.
    let spec = ModelSpec {
        name: "alloc",
        bytes: 12 << 20,
        flops: 0.0,
    };
    let (model, bytes) = allocated(|| models::build(spec));
    let nodes = model.graph().len() as u64;
    assert!(
        bytes <= model.param_bytes() + nodes * PER_NODE,
        "models::build allocated {bytes} bytes for {nodes} nodes and {} bytes of weights",
        model.param_bytes()
    );
    let largest = model
        .graph()
        .nodes()
        .iter()
        .map(|node| match &node.op {
            Op::Constant(t) => t.byte_len(),
            _ => 0,
        })
        .max()
        .unwrap();
    assert!(model.param_bytes() > 2 * largest, "several weights");
    let (interpreter, bytes) = allocated(|| Interpreter::new(model));
    assert!(
        bytes <= largest + nodes * PER_NODE,
        "Interpreter::new allocated {bytes} bytes for {nodes} nodes, largest weight {largest}"
    );

    // The lowered model holds packed weights, which are written row-major
    // straight from their panels.
    let lowered = interpreter.model();
    assert!(lowered
        .graph()
        .nodes()
        .iter()
        .any(|node| matches!(node.op, Op::PackedConstant(_))));
    let nodes = lowered.graph().len() as u64;
    let (written, bytes) = allocated(|| lowered.to_bytes());
    let len = written.len() as u64;
    assert!(
        bytes <= len + nodes * PER_NODE,
        "to_bytes allocated {bytes} bytes for a {len}-byte model of {nodes} nodes"
    );
    assert_eq!(written, lowered.unpacked().to_bytes());
}
