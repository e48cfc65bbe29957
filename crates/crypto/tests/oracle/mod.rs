//! The crypto crate's test oracles: the original, correctness-first
//! implementations its fast paths replaced, kept out of `src` so the
//! product carries one implementation of each algorithm. The crate's
//! unit tests, `tests/aead_parity.rs` and the `crypto` bench binary each
//! include this one copy with `#[path]`; it names the crate's types as
//! `securetf_crypto::..` (the unit tests alias the crate to that name).
//! A subdirectory, so it is no test target of its own.

pub mod aead;
pub mod poly1305;
