//! Counting-allocator proof of the zero-allocation steady-state contract:
//! in-place detached seal/open on a reusable [`AeadCtx`] — chunks and
//! short records alike — and the append variants on a warmed scratch
//! `Vec` must not touch the heap. This file holds exactly one test so allocations from other
//! tests running in the same process can never pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use securetf_crypto::aead::{AeadCtx, Key, Nonce};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_in_place_seal_open_allocates_nothing() {
    let ctx = AeadCtx::new(Key::from_bytes([7u8; 32]));
    // A chunk of the fs shield, and the reply and request records of the
    // net shield (the one-engine-call path).
    let mut chunk = vec![0xabu8; 64 * 1024];
    let mut reply = [0x17u8; 13];
    let mut request = [0x2cu8; 280];
    let aad = [0x5au8; 13];
    // Scratch for the append variants, warmed to its high-water mark.
    let mut sealed = Vec::with_capacity(request.len() + 16);
    let mut opened = Vec::with_capacity(request.len());

    let before = ALLOCS.load(Ordering::SeqCst);
    for seq in 0..32u64 {
        let nonce = Nonce::from_counter(9, seq);
        for buf in [&mut chunk[..], &mut reply[..], &mut request[..]] {
            let tag = ctx.seal_in_place_detached(&nonce, buf, &aad);
            ctx.open_in_place_detached(&nonce, buf, &tag, &aad)
                .expect("roundtrip authenticates");
        }
        for record in [&reply[..], &request[..]] {
            sealed.clear();
            opened.clear();
            ctx.seal_append(&nonce, record, &aad, &mut sealed);
            ctx.open_append(&nonce, &sealed, &aad, &mut opened)
                .expect("roundtrip authenticates");
            assert_eq!(opened, record);
        }
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "in-place detached seal/open and warmed append must not allocate in steady state"
    );
}
