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
//! [`WorkerPool`] says how many regions a call is cut into; the threads
//! that run them are one process-wide **crew** of parked threads, at most
//! `available_parallelism() - 1` of them, started by the first call that
//! has more than one region (the workspace builds offline; no rayon). A
//! call **leases** an idle crew member for each region after the first
//! and runs region 0 — and, in index order, every region it found no
//! idle member for — on the calling thread. A lease is exclusive: a call
//! made while the crew is busy (another thread's kernel, or a kernel
//! nested inside a leased region, such as a trainer worker's GEMM) runs
//! all of its regions inline. Which thread ran a region is the only thing
//! that varies: the cut, the unit grids and every `KernelCost` are
//! functions of the shape and [`WorkerPool::workers`] alone, so results,
//! flop counts and virtual time are the same whether the crew was idle,
//! busy or absent (a one-CPU host has no crew).

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};

/// Upper bound on workers; far above any EPC-resident core count.
const MAX_WORKERS: usize = 64;

/// A fixed-size deterministic worker pool.
///
/// The pool is a *policy* object (how many ways to split a kernel), not a
/// set of threads: every pool dispatches onto the one process-wide crew
/// (see the module docs), so the pool is trivially `Copy` and can be
/// embedded in sessions and interpreters.
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
        self.run_units(out, block_len, f);
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
        self.run_units(items, 1, &|i, unit: &mut [T]| f(i, &mut unit[0]));
    }

    /// Cuts `data` into units of `unit_len` elements (the last may be
    /// shorter), deals worker `w` the units of [`unit_range`]`(.., w)` and
    /// calls `f(unit_index, unit)` for each. Nothing here allocates: a
    /// region is a sub-slice in a cell on this frame.
    fn run_units<T: Send>(&self, data: &mut [T], unit_len: usize, f: &(impl Fn(usize, &mut [T]) + Sync)) {
        if data.is_empty() {
            return;
        }
        let unit_len = unit_len.clamp(1, data.len());
        let units = data.len().div_ceil(unit_len);
        let regions = self.workers.min(units);
        if regions == 1 {
            for (i, unit) in data.chunks_mut(unit_len).enumerate() {
                f(i, unit);
            }
            return;
        }
        let mut rest = data;
        let cells: [Mutex<Option<&mut [T]>>; MAX_WORKERS] = std::array::from_fn(|region| {
            (region < regions).then(|| {
                let elems = (unit_range(units, regions, region).len() * unit_len).min(rest.len());
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(elems);
                rest = tail;
                head
            })
            .into()
        });
        fork_join(regions, &|region| {
            let taken = unpoisoned(&cells[region]).take();
            let first = unit_range(units, regions, region).start;
            for (j, unit) in taken.expect("a region runs once").chunks_mut(unit_len).enumerate() {
                f(first + j, unit);
            }
        });
    }
}

/// The units worker `index` of `workers` receives out of `items`, for
/// `workers <= items`: contiguous, in worker order, the first
/// `items % workers` workers one unit longer than the rest.
fn unit_range(items: usize, workers: usize, index: usize) -> Range<usize> {
    let (base, extra) = (items / workers, items % workers);
    let start = index * base + index.min(extra);
    start..start + base + usize::from(index < extra)
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
    (0..w).map(|i| unit_range(items, w, i)).collect()
}

/// The largest number of work units any single worker receives — the
/// critical path of a [`partition`] in units.
pub fn critical_units(items: usize, workers: usize) -> usize {
    if items == 0 {
        return 0;
    }
    unit_range(items, workers.clamp(1, items), 0).len()
}

/// A mutex whose holders cannot panic: every critical section below is a
/// `take` or a store, and regions run outside it.
fn unpoisoned<T>(cell: &Mutex<T>) -> MutexGuard<'_, T> {
    cell.lock().expect("no region runs under a crew lock")
}

/// What a crew member polls for before it parks, in `yield_now` calls: a
/// few tens of microseconds, longer than the serial stretch between two
/// kernels of one graph run and far shorter than the gap between two
/// requests, so a run wakes its members once and an idle process leaves
/// the CPUs alone. Yielding (not spinning) because a member may share its
/// CPU with the very caller it waits for.
const IDLE_YIELDS: u32 = 128;

/// A crew slot's life cycle. The lessee moves it `IDLE -> LEASED ->
/// POSTED` (claim, then publish the task), the member `POSTED -> DONE`,
/// and the lessee `DONE -> IDLE` once it has collected the outcome — so
/// `hand` has one writer at a time and a member is never re-leased while
/// its last caller may still be looking at it. Every hand-over is a
/// `Release` store met by an `Acquire` load (or the claiming
/// compare-exchange), so what one side wrote before it — the task, the
/// region's output, a panic — is visible to the other side after it.
const IDLE: u8 = 0;
const LEASED: u8 = 1;
const POSTED: u8 = 2;
const DONE: u8 = 3;

type Panic = Box<dyn Any + Send + 'static>;
type Work<'a> = &'a (dyn Fn(usize) + Sync + 'a);

/// What passes between a lessee and a member.
enum Hand {
    Empty,
    /// Run `work(region)`.
    Task(Work<'static>, usize),
    /// The region panicked with this payload.
    Panicked(Panic),
}

struct Slot {
    state: AtomicU8,
    hand: Mutex<Hand>,
}

impl Slot {
    fn take_hand(&self) -> Hand {
        std::mem::replace(&mut *unpoisoned(&self.hand), Hand::Empty)
    }

    /// A member's whole life: poll, park, run what is posted.
    fn serve(&self) {
        let mut idle = 0;
        loop {
            if self.state.load(Ordering::Acquire) != POSTED {
                if idle < IDLE_YIELDS {
                    idle += 1;
                    thread::yield_now();
                } else {
                    // An `unpark` that came first makes this return at
                    // once, so a task posted in between is not missed.
                    thread::park();
                }
                continue;
            }
            idle = 0;
            if let Hand::Task(work, region) = self.take_hand() {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(region))) {
                    *unpoisoned(&self.hand) = Hand::Panicked(payload);
                }
            }
            // `work` is not touched after this store: it lets the caller
            // return.
            self.state.store(DONE, Ordering::Release);
        }
    }
}

struct Member {
    slot: Arc<Slot>,
    thread: Thread,
}

/// The process-wide crew, started on first use and never joined: its
/// members are parked whenever no call is in flight, and hold nothing
/// that outlives a call.
fn crew() -> &'static [Member] {
    static CREW: OnceLock<Vec<Member>> = OnceLock::new();
    CREW.get_or_init(|| {
        // One region of every call runs on its caller, and a `u64` of
        // lease bits covers the rest.
        let members = thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_WORKERS) - 1;
        (0..members)
            .filter_map(|i| {
                let slot = Arc::new(Slot {
                    state: AtomicU8::new(IDLE),
                    hand: Mutex::new(Hand::Empty),
                });
                let theirs = Arc::clone(&slot);
                let spawned = thread::Builder::new().name(format!("securetf-crew-{i}")).spawn(move || theirs.serve());
                // A host that refuses a thread gets a smaller crew.
                spawned.ok().map(|handle| Member {
                    slot,
                    thread: handle.thread().clone(),
                })
            })
            .collect()
    })
}

/// The members one call holds. Dropping it waits for every one of them,
/// on the normal path and on unwinding alike.
struct Leases {
    crew: &'static [Member],
    /// Members before this index have been offered to this call.
    cursor: usize,
    /// Bit `m`: member `m` runs, or has run, a region of this call.
    held: u64,
}

impl Leases {
    /// Hands `work(region)` to the next idle member, if there is one.
    fn lease(&mut self, work: Work<'static>, region: usize) -> bool {
        while let Some(member) = self.crew.get(self.cursor) {
            let state = &member.slot.state;
            // The plain load keeps a busy member's cache line shared; the
            // compare-exchange behind it is what decides.
            let claimed = state.load(Ordering::Relaxed) == IDLE
                && state.compare_exchange(IDLE, LEASED, Ordering::Acquire, Ordering::Relaxed).is_ok();
            if claimed {
                *unpoisoned(&member.slot.hand) = Hand::Task(work, region);
                state.store(POSTED, Ordering::Release);
                member.thread.unpark();
                self.held |= 1 << self.cursor;
            }
            self.cursor += 1;
            if claimed {
                return true;
            }
        }
        false
    }

    /// Waits until every held member is done, frees them, and returns the
    /// panic of the lowest region that had one.
    ///
    /// The wait yields instead of blocking. A kernel call lasts a
    /// fraction of a millisecond, so a caller that blocks is put to sleep
    /// and woken once per call (inside an enclave that is an exit and a
    /// re-entry, which is why SCONE's threads spin as well); over the
    /// sixteen calls of a small training step that was 3 % of the step. A
    /// yielding caller also stays runnable: a member that has to share
    /// the caller's CPU gets it at the yield, and a scheduler that
    /// spreads threads over CPUs only while it sees more runnable threads
    /// than busy CPUs sees the two the pool asked for, not two that take
    /// turns sleeping. On such a host a blocking join left the second CPU
    /// unused for 2 to 7 s after every idle spell, a different length
    /// each time (EXPERIMENTS.md, "Run-to-run steadiness of
    /// `train_dist`").
    fn wait(&mut self) -> Option<Panic> {
        let mut first = None;
        for (m, member) in self.crew[..self.cursor].iter().enumerate() {
            if self.held >> m & 1 == 0 {
                continue;
            }
            while member.slot.state.load(Ordering::Acquire) != DONE {
                thread::yield_now();
            }
            if let Hand::Panicked(payload) = member.slot.take_hand() {
                first.get_or_insert(payload);
            }
            member.slot.state.store(IDLE, Ordering::Release);
        }
        self.held = 0;
        first
    }
}

impl Drop for Leases {
    fn drop(&mut self) {
        drop(self.wait());
    }
}

/// Runs `work(region)` for every region below `regions` (at least two):
/// region 0 on the calling thread, each later one on a crew member leased
/// for it, or — when no member is idle — on the calling thread after
/// region 0, in index order. A panic in any region is re-raised here once
/// every region has finished.
fn fork_join(regions: usize, work: Work<'_>) {
    let mut leases = Leases {
        crew: crew(),
        cursor: 0,
        held: 0,
    };
    // SAFETY: only the lifetime changes. The reference reaches members
    // through `Leases::lease` alone, a member uses it only before it
    // stores `DONE`, and `leases` — declared before the first lease, so
    // dropped after everything below on return and on unwinding — does
    // not let this frame go until every member it holds has stored
    // `DONE`. The caller therefore neither returns nor unwinds out of
    // `work`'s real lifetime while a leased region can still run.
    let lent: Work<'static> = unsafe { std::mem::transmute::<Work<'_>, Work<'static>>(work) };
    // Members are offered in order, so the leased regions are a prefix.
    let leased = (1..regions).take_while(|&region| leases.lease(lent, region)).count();
    work(0);
    for region in leased + 1..regions {
        work(region);
    }
    if let Some(payload) = leases.wait() {
        resume_unwind(payload);
    }
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
    fn critical_units_is_the_lpt_makespan_of_equal_tasks() {
        // Longest-processing-time greedy: each task to the least-loaded
        // core. On equal tasks its makespan is the crew's critical path,
        // so one charge along that path prices a batch on `cores` cores.
        for tasks in 0..40 {
            for cores in 1..9 {
                let mut loads = vec![0usize; cores];
                for _ in 0..tasks {
                    *loads.iter_mut().min().expect("cores > 0") += 1;
                }
                let makespan = loads.into_iter().max().unwrap_or(0);
                assert_eq!(critical_units(tasks, cores), makespan, "{tasks} on {cores}");
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

    /// Other tests of this process lease members too, so a call is retried
    /// until one of its regions lands on one.
    const TRIES: usize = 100_000;

    #[test]
    fn a_member_survives_a_panicking_region_and_is_leased_again() {
        if crew().is_empty() {
            return; // A one-CPU host: every region runs on its caller.
        }
        let pool = WorkerPool::new(2);
        let caller = thread::current().id();
        let failed_on = Mutex::new(None);
        for _ in 0..TRIES {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.run_items(&mut [0u8; 2], &|_, _| {
                    let here = thread::current().id();
                    if here != caller {
                        *failed_on.lock().unwrap() = Some(here);
                        panic!("the region on the crew member fails");
                    }
                });
            }));
            if outcome.is_err() {
                break;
            }
            thread::yield_now();
        }
        let member = failed_on.lock().unwrap().expect("no region reached a crew member");
        // The lease was released and the member still serves.
        let leased_again = (0..TRIES).any(|_| {
            let mut ran_on = [caller; 2];
            pool.run_items(&mut ran_on, &|_, slot| *slot = thread::current().id());
            thread::yield_now();
            ran_on.contains(&member)
        });
        assert!(leased_again, "the member that ran the panicking region was never leased again");
    }

    #[test]
    fn nested_calls_find_the_crew_leased_and_still_match_serial() {
        let build = |outer: usize, inner: usize| {
            let mut rows = vec![vec![0u64; 9]; 5];
            WorkerPool::new(outer).run_items(&mut rows, &|r, row| {
                WorkerPool::new(inner).run_items(row, &|c, v| *v = (r * 100 + c) as u64);
            });
            rows
        };
        let serial = build(1, 1);
        for (outer, inner) in [(2, 2), (4, 3), (3, 64)] {
            assert_eq!(build(outer, inner), serial, "outer={outer} inner={inner}");
        }
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
