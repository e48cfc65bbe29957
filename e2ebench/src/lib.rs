//! Wall-clock end-to-end benchmark of the secureTF stack.
//!
//! See `README.md` in this directory for the metric and workload
//! definitions; `src/main.rs` is the command line.

pub mod check;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod store;
pub mod train;

use harness::{Cfg, Workload};

/// Reference outputs the parent computes once per run and hands to every
/// epoch: the serving workloads' labels from a stand-alone interpreter.
/// The other workloads check themselves (bytes read against bytes
/// written, loss finiteness) and need none.
pub fn workload_oracle(cfg: &Cfg) -> Option<String> {
    match cfg.workload.as_str() {
        "serve_small" => Some(serve::Serve::oracle(cfg, false)),
        "serve_large" => Some(serve::Serve::oracle(cfg, true)),
        _ => None,
    }
}

/// Prepares the workload `cfg` names, or `None` for an unknown name.
pub fn prepare_workload(cfg: &Cfg, oracle: Option<&str>) -> Option<Box<dyn Workload>> {
    Some(match cfg.workload.as_str() {
        "serve_small" => Box::new(serve::Serve::prepare(cfg, false, oracle)),
        "serve_large" => Box::new(serve::Serve::prepare(cfg, true, oracle)),
        "train_dist" => Box::new(train::Train::prepare(cfg)),
        "store_write" => Box::new(store::Store::prepare(cfg, false)),
        "store_read" => Box::new(store::Store::prepare(cfg, true)),
        _ => return None,
    })
}
