//! A persistent worker pool for frame-parallel work.
//!
//! The seed renderer re-spawned every worker thread on every frame with
//! `std::thread::scope`, in both `gs-render` and `gs-voxel`. For a streaming
//! renderer targeting real-time rates that is measurable per-frame overhead
//! and — worse — it forces the per-tile output buffers to be reallocated per
//! frame because nothing outlives the scope. [`WorkerPool`] keeps the
//! threads alive across frames: a frame dispatches `jobs` indexed closures
//! (`f(0) … f(jobs-1)`), the workers claim indices from a shared counter,
//! and [`WorkerPool::run`] blocks until every index has finished.
//!
//! ## Disjoint parallel writes
//!
//! Nearly every parallel stage writes disjoint parts of shared buffers:
//! chunk `c` of the tile raster owns a contiguous tile range of the pixel
//! and outcome buffers plus scratch slot `c`. [`WorkerPool::run_split`] is
//! the one way to express that. Each buffer is cut by [`split`] (a
//! `job -> Range` window function) or [`per_job`] (element `job`), and
//! every job receives `&mut` views of its own windows only. The windows
//! are checked in bounds, ascending and non-overlapping before any job
//! runs, so callers stay in safe code: this module holds the workspace's
//! only `unsafe` besides the binning scatter (gs-lint rule D007).
//!
//! Determinism: a job index always maps to the same windows, so the render
//! result is independent of which worker executes which index.
//!
//! No allocation happens per `run`/`run_split` call: job dispatch is a
//! shared `(closure pointer, index counter)` guarded by a mutex/condvar
//! pair, and the window check walks the window functions in place.

use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Locks `state`, recovering the payload if a previous holder panicked.
/// Every critical section in this module is panic-free (job closures run
/// *outside* the lock behind `catch_unwind`), so a poisoned `PoolState` is
/// never mid-update and is safe to keep using — recovery is what lets the
/// pool survive a panicking job (see `job_panic_propagates_and_pool_survives`).
fn lock_unpoisoned<T>(state: &Mutex<T>) -> MutexGuard<'_, T> {
    match state.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// `Condvar::wait` with the same poison-recovery rationale as
/// [`lock_unpoisoned`].
fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Resolves a `threads` config value (0 = all available cores) to a
/// concrete worker count.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// One buffer cut into per-job windows by a `job -> Range` function; built
/// by [`split`], consumed by [`WorkerPool::run_split`].
pub struct Split<'a, T, W> {
    ptr: *mut T,
    len: usize,
    window: W,
    /// End of the last window handed out; claims only move it forward.
    claimed: AtomicUsize,
    _buf: PhantomData<&'a mut [T]>,
}

// SAFETY: jobs on other threads receive disjoint `&mut` windows of the
// buffer (so `T` must be `Send`) and call `window` concurrently (`Sync`).
unsafe impl<T: Send, W: Sync> Sync for Split<'_, T, W> {}

/// One buffer element per job (per-worker scratch); built by [`per_job`].
pub struct PerJob<'a, T>(Split<'a, T, fn(usize) -> Range<usize>>);

/// Cuts `buf` for [`WorkerPool::run_split`]: job `j` receives
/// `&mut buf[window(j)]`.
pub fn split<T, W: Fn(usize) -> Range<usize>>(buf: &mut [T], window: W) -> Split<'_, T, W> {
    Split {
        ptr: buf.as_mut_ptr(),
        len: buf.len(),
        window,
        claimed: AtomicUsize::new(0),
        _buf: PhantomData,
    }
}

/// Hands job `j` of [`WorkerPool::run_split`] the element `&mut buf[j]`.
pub fn per_job<T>(buf: &mut [T]) -> PerJob<'_, T> {
    PerJob(split::<T, fn(usize) -> Range<usize>>(buf, |j| j..j + 1))
}

mod sealed {
    /// The window machinery behind [`super::Parts`]. Unnameable outside
    /// this module, so claims only ever come from `run_split`, one at a
    /// time and in ascending job order.
    pub trait Claim: Sync {
        type Window;
        /// Panics unless jobs `0..jobs` get in-bounds, ascending,
        /// non-overlapping windows.
        fn check(&self, jobs: usize);
        /// Job `job`'s windows; panics if one overlaps an earlier claim.
        fn claim(&self, job: usize) -> Self::Window;
    }
}
use sealed::Claim;

/// What [`WorkerPool::run_split`] cuts into per-job windows: a [`split`],
/// a [`per_job`], or a tuple of up to four of them.
pub trait Parts: Claim {}
impl<P: Claim> Parts for P {}

/// Job `job`'s window `w` of a buffer of length `len`, checked to lie in
/// bounds and to start at or after `prev_end` (where the previous job's
/// window ends).
fn checked(job: usize, w: Range<usize>, prev_end: usize, len: usize) -> Range<usize> {
    assert!(
        prev_end <= w.start && w.start <= w.end && w.end <= len,
        "run_split: job {job}'s window {w:?} leaves the buffer (len {len}) or \
         overlaps the previous window (which ends at {prev_end})"
    );
    w
}

impl<'a, T: Send, W: Fn(usize) -> Range<usize> + Sync> Claim for Split<'a, T, W> {
    type Window = &'a mut [T];
    fn check(&self, jobs: usize) {
        (0..jobs).fold(0, |end, job| {
            checked(job, (self.window)(job), end, self.len).end
        });
    }
    fn claim(&self, job: usize) -> &'a mut [T] {
        // The window is re-checked against the previous claim, so the
        // views stay disjoint even if `window` is not a pure function.
        let end = self.claimed.load(Ordering::Relaxed);
        let w = checked(job, (self.window)(job), end, self.len);
        self.claimed.store(w.end, Ordering::Relaxed);
        // SAFETY: claims are serialized (see `Claim`), and `w` is in bounds
        // and starts at or after the end of every earlier claim, so it
        // aliases no other window; `self` holds the `&'a mut` borrow.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(w.start), w.len()) }
    }
}

impl<'a, T: Send> Claim for PerJob<'a, T> {
    type Window = &'a mut T;
    fn check(&self, jobs: usize) {
        self.0.check(jobs);
    }
    fn claim(&self, job: usize) -> &'a mut T {
        &mut self.0.claim(job)[0]
    }
}

macro_rules! tuple_parts {
    ($($p:ident . $i:tt),+) => {
        impl<$($p: Claim),+> Claim for ($($p,)+) {
            type Window = ($($p::Window,)+);
            fn check(&self, jobs: usize) {
                $(self.$i.check(jobs);)+
            }
            fn claim(&self, job: usize) -> Self::Window {
                ($(self.$i.claim(job),)+)
            }
        }
    };
}
tuple_parts!(A.0, B.1);
tuple_parts!(A.0, B.1, C.2);
tuple_parts!(A.0, B.1, C.2, D.3);

/// Type-erased pointer to the frame's job closure plus its call shim.
#[derive(Copy, Clone)]
struct Task {
    /// Calls `*data` (a `&F` where `F: Fn(usize)`) with the job index.
    call: unsafe fn(*const (), usize),
    /// Borrow of the closure living in [`WorkerPool::run`]'s frame.
    data: *const (),
}

// SAFETY: `data` points at an `F: Fn(usize) + Sync` that outlives the frame
// (run() does not return until all jobs finished), and `Sync` makes the
// shared borrow sound across threads.
unsafe impl Send for Task {}

struct PoolState {
    /// The active frame's task, if any.
    task: Option<Task>,
    /// Next job index to hand out.
    next: usize,
    /// Total jobs in the active frame.
    jobs: usize,
    /// Jobs not yet finished (claimed or unclaimed).
    unfinished: usize,
    /// A job panicked during this frame.
    panicked: bool,
    /// The pool is being dropped.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers that work (or shutdown) is available.
    work: Condvar,
    /// Signals [`WorkerPool::run`] that the frame completed.
    done: Condvar,
}

/// A fixed-size pool of persistent worker threads (see module docs).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

unsafe fn call_shim<F: Fn(usize)>(data: *const (), index: usize) {
    // SAFETY: `data` was created from `&F` in `run` and is still borrowed
    // there while any worker can reach this shim.
    unsafe { (*(data as *const F))(index) }
}

impl WorkerPool {
    /// Spawns `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                task: None,
                next: 0,
                jobs: 0,
                unfinished: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    /// Returns the pool in `slot`, (re)creating it when absent or smaller
    /// than `threads`. Frame sizes vary per camera, so a renderer's first
    /// (possibly small) frame must not cap parallelism for later, larger
    /// frames.
    pub fn ensure(slot: &mut Option<WorkerPool>, threads: usize) -> &mut WorkerPool {
        if slot.as_ref().is_none_or(|p| p.size() < threads) {
            return slot.insert(WorkerPool::new(threads));
        }
        match slot.as_mut() {
            Some(pool) => pool,
            None => unreachable!("non-empty checked above"),
        }
    }

    /// Runs `f(0) … f(jobs-1)` across the workers and blocks until all
    /// indices completed. Takes `&mut self`, so frames never overlap on
    /// one pool.
    ///
    /// # Panics
    ///
    /// After the frame fully drains, if any job panicked (the panic is
    /// re-raised on the dispatching thread; the pool itself survives).
    ///
    /// The calling thread **participates**: instead of sleeping on the
    /// completion condvar while the workers drain the index counter, it
    /// claims indices like any worker and only waits once the counter is
    /// exhausted. Job results are a function of the index alone, so which
    /// thread runs an index never affects the output — this is purely one
    /// more executor (the dispatch thread used to idle through every
    /// frame).
    pub fn run<F: Fn(usize) + Sync>(&mut self, jobs: usize, f: F) {
        if jobs == 0 {
            return;
        }
        let task = Task {
            call: call_shim::<F>,
            data: &f as *const F as *const (),
        };
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            debug_assert!(st.task.is_none(), "WorkerPool::run re-entered");
            st.task = Some(task);
            st.next = 0;
            st.jobs = jobs;
            st.unfinished = jobs;
            st.panicked = false;
            self.shared.work.notify_all();
        }
        // Claim and execute indices alongside the workers. Panics are
        // caught exactly like in `worker_loop`: the frame must fully drain
        // before `f` can be dropped (workers may still hold `task.data`).
        loop {
            let index = {
                let mut st = lock_unpoisoned(&self.shared.state);
                if st.next >= st.jobs {
                    break;
                }
                let i = st.next;
                st.next += 1;
                i
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: see `Task` — the closure outlives the frame.
                unsafe { (task.call)(task.data, index) }
            }));
            let mut st = lock_unpoisoned(&self.shared.state);
            if result.is_err() {
                st.panicked = true;
            }
            st.unfinished -= 1;
        }
        let mut st = lock_unpoisoned(&self.shared.state);
        while st.unfinished > 0 {
            st = wait_unpoisoned(&self.shared.done, st);
        }
        st.task = None;
        let panicked = st.panicked;
        drop(st);
        // `f` is only dropped after every worker finished using it.
        if panicked {
            panic!("a WorkerPool job panicked");
        }
    }

    /// Runs `f(job, windows)` for every `job` in `0..jobs` like
    /// [`WorkerPool::run`], where `windows` are `&mut` views of the job's
    /// own windows of `parts` (one view per part, as a tuple when `parts`
    /// is one). See the module docs.
    ///
    /// # Panics
    ///
    /// Before any job runs, if a job's window of some part leaves the
    /// buffer, ends before it starts, or starts before the previous job's
    /// window of that part ends. After the frame drains, if a job
    /// panicked (as [`WorkerPool::run`]).
    pub fn run_split<P: Parts, F: Fn(usize, P::Window) + Sync>(
        &mut self,
        jobs: usize,
        parts: P,
        f: F,
    ) {
        parts.check(jobs);
        // Jobs claim their windows one at a time, in ascending job order.
        let next = Mutex::new(0usize);
        self.run(jobs, |_| {
            let mut next = lock_unpoisoned(&next);
            let job = *next;
            *next += 1;
            let windows = parts.claim(job);
            drop(next);
            f(job, windows);
        });
    }

    /// [`WorkerPool::run_split`] for a renderer that owns its pool lazily:
    /// a single job runs inline on the calling thread and leaves `slot`
    /// untouched, more jobs run on the pool in `slot`, made to have at
    /// least `jobs` workers by [`WorkerPool::ensure`].
    ///
    /// # Panics
    ///
    /// As [`WorkerPool::run_split`].
    pub fn run_split_in<P: Parts, F: Fn(usize, P::Window) + Sync>(
        slot: &mut Option<WorkerPool>,
        jobs: usize,
        parts: P,
        f: F,
    ) {
        if jobs <= 1 {
            parts.check(jobs);
            (0..jobs).for_each(|job| f(job, parts.claim(job)));
        } else {
            WorkerPool::ensure(slot, jobs).run_split(jobs, parts, f);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_unpoisoned(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .finish()
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let (task, index) = {
            let mut st = lock_unpoisoned(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(task) = st.task {
                    if st.next < st.jobs {
                        let index = st.next;
                        st.next += 1;
                        break (task, index);
                    }
                }
                st = wait_unpoisoned(&shared.work, st);
            }
        };

        // Execute outside the lock; never lose the `unfinished` decrement.
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: see `Task` — the closure outlives the frame.
            unsafe { (task.call)(task.data, index) }
        }));

        let mut st = lock_unpoisoned(&shared.state);
        if result.is_err() {
            st.panicked = true;
        }
        st.unfinished -= 1;
        if st.unfinished == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_index_exactly_once() {
        let mut pool = WorkerPool::new(4);
        let mut hits = [
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        ];
        for _ in 0..50 {
            pool.run(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in hits.iter_mut() {
            assert_eq!(*h.get_mut(), 50);
        }
    }

    #[test]
    fn more_jobs_than_workers() {
        let mut pool = WorkerPool::new(2);
        let hits: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn borrows_stack_data_mutably_through_disjoint_chunks() {
        let mut pool = WorkerPool::new(3);
        let mut data = vec![0u64; 300];
        let window = |w: usize| 100 * w..100 * w + 100;
        pool.run_split(3, split(&mut data, window), |w, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (100 * w + k) as u64;
            }
        });
        assert!(data.iter().enumerate().all(|(i, v)| *v == i as u64));
        drop(pool);
    }

    /// Runs `run_split` with `windows` over a 10-element buffer and
    /// returns whether it panicked plus how many jobs ran.
    fn try_windows(windows: &'static [Range<usize>]) -> (bool, usize) {
        let mut pool = WorkerPool::new(2);
        let mut data = [0u8; 10];
        let ran = AtomicUsize::new(0);
        let parts = split(&mut data, |j: usize| windows[j].clone());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_split(windows.len(), parts, |_, _| {
                _ = ran.fetch_add(1, Ordering::Relaxed)
            })
        }));
        (caught.is_err(), ran.load(Ordering::Relaxed))
    }

    #[test]
    fn run_split_rejects_bad_windows_before_any_job_runs() {
        // Overlapping, out of bounds, backwards, descending.
        for bad in [
            &[0..4, 3..6][..],
            &[0..4, 4..11],
            &[0..4, Range { start: 6, end: 5 }],
            &[5..8, 0..2],
        ] {
            assert_eq!(try_windows(bad), (true, 0), "{bad:?}");
        }
        assert_eq!(try_windows(&[0..4, 4..10]), (false, 2));
    }

    #[test]
    fn run_split_handles_empty_windows_tuples_and_zero_jobs() {
        let mut pool = WorkerPool::new(2);
        // 3 items over 4 jobs: windows 0..1, 1..2, 2..3 and an empty 3..3.
        let (mut items, mut seen) = ([0u32; 3], [9usize; 4]);
        let parts = (
            split(&mut items, |j| j.min(3)..(j + 1).min(3)),
            per_job(&mut seen),
        );
        pool.run_split(4, parts, |j, (items, seen)| {
            *seen = items.len();
            items.iter_mut().for_each(|v| *v = 10 + j as u32);
        });
        assert_eq!((items, seen), ([10, 11, 12], [1, 1, 1, 0]));
        pool.run_split(0, per_job(&mut seen), |_, _| panic!("never"));
        // One job runs inline without creating a pool.
        let mut slot = None;
        WorkerPool::run_split_in(&mut slot, 1, per_job(&mut seen), |_, s| *s = 7);
        assert!(slot.is_none() && seen[0] == 7);
    }

    #[test]
    fn job_panic_propagates_and_pool_survives() {
        let mut pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |i| {
                if i == 2 {
                    panic!("boom");
                }
            })
        }));
        assert!(caught.is_err());
        // The pool still works afterwards.
        let count = AtomicUsize::new(0);
        pool.run(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn zero_jobs_is_a_noop() {
        let mut pool = WorkerPool::new(2);
        pool.run(0, |_| panic!("must not run"));
    }
}
