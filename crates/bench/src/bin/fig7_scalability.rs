//! Figure 7: scalability — classifying 800 CIFAR-10 images.
//!
//! Scale-up: 1 → 8 CPU cores on one node. SIM mode scales through 8
//! cores; HW mode scales to 4 and then *degrades*, because eight
//! concurrent per-core working sets no longer fit the ~94 MiB EPC and
//! classification starts paging (paper §5.3 #3).
//!
//! Scale-out: 1 → 3 nodes at 4 cores each; both modes scale nearly
//! linearly (paper: 1180 s → 403 s in HW mode).
//!
//! The process exits non-zero unless the figure keeps that shape
//! ([`Figure::shape`]).

use securetf_bench::{fmt_ns, fmt_ratio, header};
use securetf_tee::{EnclaveImage, ExecutionMode, Platform};
use securetf_tensor::kernels::pool::critical_units;
use securetf_tflite::models::DENSENET;
use std::ops::RangeInclusive;

const IMAGES: usize = 800;
/// Per-core interpreter workspace (activations, scratch): ~12.8 MB, so
/// 4 cores fit beside the 42 MiB model but 8 cores exceed the EPC (and
/// the cores' arenas then evict each other between images).
const PER_CORE_WS: u64 = 12_800_000;
/// Per-image FLOPs: the Densenet backbone on 32×32 CIFAR-10 inputs
/// (far fewer spatial positions than ImageNet-sized inputs).
const PER_IMAGE_FLOPS: f64 = 2.0e9;
/// Per-image system calls (input reads, logging), exit-less.
const SYSCALLS_PER_IMAGE: u64 = 40;
const CORES: [usize; 4] = [1, 2, 4, 8];
const NODES: [usize; 3] = [1, 2, 3];

/// Virtual time for one node of `cores` cores to classify `images`.
///
/// Memory touches and syscalls serialize (paging is kernel-mediated),
/// interleaved across the cores' working sets the way concurrent threads
/// interleave, so the EPC's LRU sees what it would under real
/// concurrency. Compute runs along the worker crew's critical path.
fn run_node(mode: ExecutionMode, cores: usize, images: usize) -> u64 {
    let platform = Platform::builder().build();
    let enclave = platform
        .create_enclave(
            &EnclaveImage::builder()
                .code(b"fig7 classifier")
                .runtime_bytes(securetf_tflite::LITE_RUNTIME_BYTES)
                .build(),
            mode,
        )
        .expect("enclave");
    let model_region = enclave.alloc("model", DENSENET.bytes);
    let ws: Vec<_> = (0..cores)
        .map(|_| enclave.alloc("workspace", PER_CORE_WS))
        .collect();
    let t0 = enclave.clock().now_ns();
    for i in 0..images {
        enclave
            .touch(model_region, 0, DENSENET.bytes)
            .expect("model region");
        enclave
            .touch(ws[i % cores], 0, PER_CORE_WS)
            .expect("workspace region");
        for _ in 0..SYSCALLS_PER_IMAGE {
            enclave.charge_syscall();
        }
    }
    enclave.charge_parallel_compute(
        images as f64 * PER_IMAGE_FLOPS,
        critical_units(images, cores) as f64 * PER_IMAGE_FLOPS,
    );
    enclave.clock().now_ns() - t0
}

fn speedup(slow: u64, fast: u64) -> f64 {
    slow as f64 / fast as f64
}

/// Both panels of the figure, in virtual ns.
struct Figure {
    /// One node at each of [`CORES`]: (SIM, HW).
    scale_up: Vec<(u64, u64)>,
    /// [`NODES`] nodes of 4 cores, `IMAGES` split evenly: (SIM, HW).
    scale_out: Vec<(u64, u64)>,
}

impl Figure {
    fn measure() -> Figure {
        let both = |cores, images| {
            (
                run_node(ExecutionMode::Simulation, cores, images),
                run_node(ExecutionMode::Hardware, cores, images),
            )
        };
        Figure {
            scale_up: CORES.iter().map(|&cores| both(cores, IMAGES)).collect(),
            // Nodes run in parallel; total time = slowest node.
            scale_out: NODES.iter().map(|&nodes| both(4, IMAGES / nodes)).collect(),
        }
    }

    /// The paper's shape as `(what, speedup, bounds it must stay in)`.
    fn shape(&self) -> [(&'static str, f64, RangeInclusive<f64>); 4] {
        let (sim1, hw1) = self.scale_up[0];
        let (_, hw4) = self.scale_up[2];
        let (sim8, hw8) = self.scale_up[3];
        let hw_one_node = self.scale_out[0].1;
        let hw_three_nodes = self.scale_out[2].1;
        [
            ("SIM 1->8 cores", speedup(sim1, sim8), 7.5..=f64::INFINITY),
            ("HW 1->4 cores", speedup(hw1, hw4), 3.5..=f64::INFINITY),
            // Eight per-core working sets overflow the EPC.
            ("HW 4->8 cores", speedup(hw4, hw8), 0.0..=1.25),
            (
                "HW 1->3 nodes",
                speedup(hw_one_node, hw_three_nodes),
                2.8..=3.0,
            ),
        ]
    }
}

fn main() {
    let figure = Figure::measure();
    header(
        "Figure 7a: scale-up (1 node, 800 CIFAR-10 images, Densenet)",
        &["cores", "securetf-sim", "securetf-hw"],
    );
    for (cores, &(sim, hw)) in CORES.iter().zip(&figure.scale_up) {
        println!("{cores:>5} | {:>12} | {:>12}", fmt_ns(sim), fmt_ns(hw));
    }
    println!(
        "\nHW 8-core vs 4-core: {} (paper: HW does NOT scale from 4 to 8 cores — EPC paging)",
        fmt_ratio(figure.scale_up[3].1, figure.scale_up[2].1)
    );

    header(
        "Figure 7b: scale-out (4 cores per node)",
        &["nodes", "securetf-sim", "securetf-hw"],
    );
    for (nodes, &(sim, hw)) in NODES.iter().zip(&figure.scale_out) {
        println!("{nodes:>5} | {:>12} | {:>12}", fmt_ns(sim), fmt_ns(hw));
    }
    println!(
        "\nHW 1-node/3-node speedup: {} (paper: 1180 s / 403 s = 2.93x)",
        fmt_ratio(figure.scale_out[0].1, figure.scale_out[2].1)
    );

    let mut holds = true;
    for (what, value, bounds) in figure.shape() {
        if !bounds.contains(&value) {
            holds = false;
            eprintln!("SHAPE VIOLATION: {what} speedup {value:.2}x is outside {bounds:?}");
        }
    }
    assert!(holds, "figure 7 must keep the paper's shape");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_keeps_the_papers_shape() {
        for (what, value, bounds) in Figure::measure().shape() {
            assert!(
                bounds.contains(&value),
                "{what}: {value:.2}x outside {bounds:?}"
            );
        }
    }
}
