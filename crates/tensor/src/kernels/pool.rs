//! The deterministic in-enclave worker pool.
//!
//! SCONE-style enclaves cannot rely on OS work-stealing runtimes: thread
//! creation is expensive, and — more importantly for this reproduction —
//! the result of a kernel must not depend on scheduling. The pool
//! therefore parallelizes only over **disjoint contiguous blocks of the
//! output**: each output element is computed entirely by one worker, in
//! the same per-element reduction order the serial kernel uses, so the
//! parallel result is bit-for-bit identical to the serial one for any
//! worker count.
//!
//! Workers are plain `std::thread::scope` threads (the workspace builds
//! offline; no rayon). Worker 0 runs on the calling thread, so a
//! one-worker pool spawns nothing; the caller waits for the others by
//! yielding (`fork_join`).

use std::ops::Range;
use std::thread::ScopedJoinHandle;

/// Upper bound on workers; far above any EPC-resident core count.
const MAX_WORKERS: usize = 64;

/// A fixed-size deterministic worker pool.
///
/// The pool is a *policy* object (how many ways to split a kernel), not a
/// set of live threads: threads are scoped to each kernel invocation, so
/// the pool is trivially `Copy` and can be embedded in sessions and
/// interpreters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::serial()
    }
}

impl WorkerPool {
    /// Creates a pool with `workers` workers (clamped to `1..=64`).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.clamp(1, MAX_WORKERS),
        }
    }

    /// A single-worker pool: kernels run serially on the calling thread.
    pub const fn serial() -> Self {
        WorkerPool { workers: 1 }
    }

    /// The number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Splits `out` into consecutive blocks of `block_len` elements (the
    /// last block may be shorter) and calls `f(block_index, block)` for
    /// every block, distributing contiguous block ranges over the
    /// workers.
    ///
    /// Because block ranges are disjoint and `f` receives the global
    /// block index, the writes — and therefore the results — are
    /// identical whether the blocks run serially or on threads.
    pub fn run_on_blocks(&self, out: &mut [f32], block_len: usize, f: &(impl Fn(usize, &mut [f32]) + Sync)) {
        if out.is_empty() {
            return;
        }
        let block_len = block_len.clamp(1, out.len());
        let nblocks = out.len().div_ceil(block_len);
        let ranges = partition(nblocks, self.workers);
        if ranges.len() <= 1 {
            for (i, block) in out.chunks_mut(block_len).enumerate() {
                f(i, block);
            }
            return;
        }
        let mut rest: &mut [f32] = out;
        let mut regions = Vec::with_capacity(ranges.len());
        for r in &ranges {
            let elems = ((r.end - r.start) * block_len).min(rest.len());
            let (head, tail) = rest.split_at_mut(elems);
            regions.push((r.start, head));
            rest = tail;
        }
        fork_join(regions, &|(first_block, region): (usize, &mut [f32])| {
            for (j, block) in region.chunks_mut(block_len).enumerate() {
                f(first_block + j, block);
            }
        });
    }

    /// Calls `f(item_index, &mut items[item_index])` for every item,
    /// distributing contiguous index ranges over the workers.
    ///
    /// This is the generic (non-`f32`) sibling of
    /// [`WorkerPool::run_on_blocks`], used by the shields to seal
    /// independently-nonced chunks in parallel: each slot is written by
    /// exactly one worker and `f` sees the global item index, so filling
    /// a pre-sized slot vector produces bit-identical output for any
    /// worker count. Worker 0 runs on the calling thread.
    pub fn run_items<T: Send>(&self, items: &mut [T], f: &(impl Fn(usize, &mut T) + Sync)) {
        if items.is_empty() {
            return;
        }
        let ranges = partition(items.len(), self.workers);
        if ranges.len() <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let mut rest: &mut [T] = items;
        let mut regions = Vec::with_capacity(ranges.len());
        for r in &ranges {
            let (head, tail) = rest.split_at_mut(r.end - r.start);
            regions.push((r.start, head));
            rest = tail;
        }
        fork_join(regions, &|(first, region): (usize, &mut [T])| {
            for (j, item) in region.iter_mut().enumerate() {
                f(first + j, item);
            }
        });
    }
}

/// Runs `work` on every region: the first on the calling thread, each of
/// the others on a scoped thread of its own, started before the caller
/// begins its own region.
///
/// Once its own region is done the caller waits for the workers by
/// yielding, not by blocking in `join`. A kernel call lasts a fraction of
/// a millisecond, so a caller that blocks is put to sleep and woken once
/// per call (inside an enclave that is an exit and a re-entry, which is
/// why SCONE's threads spin as well); over the sixteen calls of a small
/// training step that was 3 % of the step. A yielding caller also stays
/// runnable: a worker that has to share the caller's CPU gets it at the
/// yield, and a scheduler that spreads threads over CPUs only while it
/// sees more runnable threads than busy CPUs sees the two the pool
/// asked for, not two that take turns sleeping. On such a host a
/// blocking join left the second CPU unused for 2 to 7 s after every
/// idle spell, a different length each time (EXPERIMENTS.md,
/// "Run-to-run steadiness of `train_dist`").
fn fork_join<R: Send>(regions: Vec<R>, work: &(impl Fn(R) + Sync)) {
    std::thread::scope(|scope| {
        let mut regions = regions.into_iter();
        let local = regions.next();
        let workers: Vec<_> = regions.map(|region| scope.spawn(move || work(region))).collect();
        if let Some(region) = local {
            work(region);
        }
        // `is_finished` also turns true when a worker panics; the scope
        // then re-raises the panic on the caller.
        while !workers.iter().all(ScopedJoinHandle::is_finished) {
            std::thread::yield_now();
        }
    });
}

/// Splits `items` work units into at most `workers` contiguous ranges.
///
/// The first `items % workers` ranges get one extra unit, so the first
/// range is always a longest one — the parallel critical path in units.
/// Deterministic: depends only on the two arguments.
pub fn partition(items: usize, workers: usize) -> Vec<Range<usize>> {
    if items == 0 {
        return Vec::new();
    }
    let w = workers.clamp(1, items);
    let base = items / w;
    let extra = items % w;
    let mut ranges = Vec::with_capacity(w);
    let mut start = 0usize;
    for i in 0..w {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// The largest number of work units any single worker receives — the
/// critical path of a [`partition`] in units.
pub fn critical_units(items: usize, workers: usize) -> usize {
    partition(items, workers)
        .first()
        .map(|r| r.end - r.start)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly_once() {
        for items in 0..40 {
            for workers in 1..9 {
                let ranges = partition(items, workers);
                let mut covered = 0usize;
                let mut expect_start = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, expect_start, "gap at {items}/{workers}");
                    assert!(r.end > r.start, "empty range at {items}/{workers}");
                    covered += r.end - r.start;
                    expect_start = r.end;
                }
                assert_eq!(covered, items);
                assert!(ranges.len() <= workers.max(1));
                assert_eq!(critical_units(items, workers), ranges.first().map(|r| r.end - r.start).unwrap_or(0));
            }
        }
    }

    #[test]
    fn first_range_is_longest() {
        for items in 1..50 {
            for workers in 1..8 {
                let ranges = partition(items, workers);
                let first = ranges[0].end - ranges[0].start;
                for r in &ranges {
                    assert!(r.end - r.start <= first);
                }
            }
        }
    }

    #[test]
    fn run_on_blocks_visits_every_block_once() {
        for (len, block_len, workers) in [(10usize, 3usize, 1usize), (10, 3, 4), (64, 8, 3), (7, 100, 2), (5, 1, 5)] {
            let mut out = vec![0.0f32; len];
            WorkerPool::new(workers).run_on_blocks(&mut out, block_len, &|blk, block| {
                for (j, v) in block.iter_mut().enumerate() {
                    *v += (blk * block_len + j) as f32 + 1.0;
                }
            });
            let expect: Vec<f32> = (0..len).map(|i| i as f32 + 1.0).collect();
            assert_eq!(out, expect, "len={len} block_len={block_len} workers={workers}");
        }
    }

    #[test]
    fn run_on_blocks_empty_output_is_noop() {
        let mut out: Vec<f32> = Vec::new();
        WorkerPool::new(4).run_on_blocks(&mut out, 8, &|_, _| panic!("no blocks expected"));
    }

    #[test]
    fn worker_panic_reaches_the_caller_instead_of_hanging_it() {
        let mut out = vec![0.0f32; 8];
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            WorkerPool::new(2).run_on_blocks(&mut out, 4, &|blk, _| assert_eq!(blk, 0, "the spawned worker fails"));
        }));
        assert!(outcome.is_err());
    }

    #[test]
    fn run_items_visits_every_item_once() {
        for (len, workers) in [(0usize, 3usize), (1, 1), (1, 4), (7, 3), (16, 4), (5, 8)] {
            let mut items: Vec<Vec<u8>> = vec![Vec::new(); len];
            WorkerPool::new(workers).run_items(&mut items, &|i, slot| {
                slot.push(i as u8);
            });
            for (i, slot) in items.iter().enumerate() {
                assert_eq!(slot[..], [i as u8], "len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn run_items_matches_serial_for_any_worker_count() {
        let build = |workers: usize| {
            let mut items: Vec<u64> = (0..23).collect();
            WorkerPool::new(workers).run_items(&mut items, &|i, v| {
                *v = v.wrapping_mul(31).wrapping_add(i as u64);
            });
            items
        };
        let serial = build(1);
        for workers in 2..8 {
            assert_eq!(build(workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
        assert_eq!(WorkerPool::new(1000).workers(), MAX_WORKERS);
        assert_eq!(WorkerPool::serial().workers(), 1);
        assert_eq!(WorkerPool::default(), WorkerPool::serial());
    }
}
