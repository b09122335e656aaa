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
//! tile `t` of the raster owns its windows of the pixel and outcome
//! buffers. [`WorkerPool::run_split`] is the one way to express that.
//! Each buffer is cut by [`split`] (a `job -> Range` window function) or
//! [`per_job`] (element `job`), and every job receives `&mut` views of
//! its own windows only. The windows are checked in bounds, ascending and
//! non-overlapping before any job runs, so callers stay in safe code:
//! this module holds the workspace's only `unsafe` besides the binning
//! scatter (gs-lint rule D007).
//!
//! ## Claimed jobs on per-executor scratch
//!
//! The renderers' main loops have many small jobs of uneven cost (one
//! per pixel group or tile) that also need reusable working buffers.
//! [`WorkerPool::run_claimed`] runs them on a fixed set of executors,
//! one per scratch slot: each executor claims the next job index, in
//! ascending order, as soon as it is free, and lends its own slot to
//! that job. A heavy job then delays only itself, where static
//! `lo..hi` chunks made the frame wait for the heaviest chunk.
//!
//! Determinism: a job index always maps to the same windows, so the render
//! result is independent of which worker executes which index. Under
//! `run_claimed` the scratch slot is timing-dependent too, so whatever a
//! job leaves there must either be keyed by job index (the streaming
//! renderer's per-group trace spans) or merge order-independently.
//!
//! No allocation happens per `run`/`run_split`/`run_claimed` call: job
//! dispatch is a shared `(closure pointer, index counter)` guarded by a
//! mutex/condvar pair, and the window check walks the window functions in
//! place.

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
/// a [`per_job`], or a tuple of up to five of them.
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
tuple_parts!(A.0, B.1, C.2, D.3, E.4);

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

    /// Runs `f(job, scratch, windows)` for every `job` in `0..jobs`, one
    /// job per claim, on at most `scratch.len()` executors: each executor
    /// (the calling thread is one of them) borrows its own scratch slot
    /// and claims jobs one at a time in ascending order until none are
    /// left, so a heavy job holds up only itself, never a pre-cut chunk
    /// of lighter ones. `windows` are job `job`'s `&mut` views of `parts`,
    /// as in [`WorkerPool::run_split`]; the scratch borrow lasts one call.
    ///
    /// With one executor (a single scratch slot or a single job) the jobs
    /// run inline on the calling thread and `slot` is left untouched;
    /// otherwise they run on the pool in `slot`, made to have at least
    /// one worker per executor by [`WorkerPool::ensure`]. Which slot
    /// runs a job depends on timing, so a job's results must depend on
    /// its index and windows only (see the module docs).
    ///
    /// # Panics
    ///
    /// Before any job runs, if `jobs > 0` and `scratch` is empty, or if
    /// the windows of `parts` are bad (as [`WorkerPool::run_split`]).
    /// After the jobs drain, if one panicked (as [`WorkerPool::run`]).
    pub fn run_claimed<S: Send, P: Parts, F: Fn(usize, &mut S, P::Window) + Sync>(
        slot: &mut Option<WorkerPool>,
        scratch: &mut [S],
        jobs: usize,
        parts: P,
        f: F,
    ) {
        parts.check(jobs);
        let executors = scratch.len().min(jobs);
        assert!(
            executors > 0 || jobs == 0,
            "run_claimed: {jobs} jobs but no scratch slot"
        );
        if executors <= 1 {
            if let Some(s) = scratch.first_mut() {
                (0..jobs).for_each(|job| f(job, s, parts.claim(job)));
            }
            return;
        }
        // Claims are serialized, so windows are taken in ascending job
        // order (the `Claim` contract).
        let next_job = Mutex::new(0usize);
        let claim = || {
            let mut next = lock_unpoisoned(&next_job);
            let job = *next;
            (job < jobs).then(|| {
                *next += 1;
                (job, parts.claim(job))
            })
        };
        let executor_slots = per_job(&mut scratch[..executors]);
        WorkerPool::ensure(slot, executors).run_split(executors, executor_slots, |_, s| {
            while let Some((job, windows)) = claim() {
                f(job, s, windows);
            }
        });
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
        WorkerPool::run_claimed(&mut slot, &mut [(); 4], 1, per_job(&mut seen), |_, _, s| {
            *s = 7
        });
        assert!(slot.is_none() && seen[0] == 7);
    }

    #[test]
    fn run_claimed_runs_each_job_once_on_an_exclusive_slot() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        for threads in [2usize, 3, 7] {
            // The first `threads` jobs meet at a barrier, so that many
            // executors must hold a slot at once; an extra executor would
            // run job `threads` meanwhile and push the peak over.
            let all_busy = Barrier::new(threads);
            let mut slot = None;
            let mut slots: Vec<usize> = (0..threads).collect();
            let in_use: Vec<AtomicBool> = (0..threads).map(|_| AtomicBool::new(false)).collect();
            let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            // Recorded, not asserted, inside the job: a panicking job would
            // leave the others waiting at the barrier.
            let shared = AtomicBool::new(false);
            let mut out = vec![0usize; 40];
            let mut runs = vec![0u32; 20];
            let parts = (split(&mut out, |j| 2 * j..2 * j + 2), per_job(&mut runs));
            WorkerPool::run_claimed(&mut slot, &mut slots[..], 20, parts, |j, s, (w, n)| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                if in_use[*s].swap(true, Ordering::SeqCst) {
                    shared.store(true, Ordering::SeqCst);
                }
                if j < threads {
                    all_busy.wait();
                }
                w.fill(j + 1);
                *n += 1;
                in_use[*s].store(false, Ordering::SeqCst);
                running.fetch_sub(1, Ordering::SeqCst);
            });
            assert!(!shared.into_inner(), "two running jobs held one slot");
            assert!(runs.iter().all(|&n| n == 1), "threads={threads}");
            assert!(out.iter().enumerate().all(|(i, &v)| v == i / 2 + 1));
            let peak = peak.load(Ordering::SeqCst);
            assert_eq!(peak, threads, "executors running at once");
        }
    }

    #[test]
    fn run_claimed_with_one_slot_runs_inline_without_a_pool() {
        let caller = std::thread::current().id();
        let mut slot = None;
        let mut order = [Vec::new()];
        let mut hits = [0u8; 9];
        WorkerPool::run_claimed(&mut slot, &mut order, 9, per_job(&mut hits), |j, o, h| {
            assert_eq!(std::thread::current().id(), caller);
            o.push(j);
            *h += 1;
        });
        assert!(slot.is_none());
        assert_eq!(hits, [1; 9]);
        // Jobs are claimed in ascending order.
        assert_eq!(order[0], (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn run_claimed_zero_jobs_is_a_noop_and_bad_windows_panic_first() {
        let mut slot = None;
        let never = |_: usize, _: &mut u8, _: &mut [u8]| panic!("must not run");
        let mut data = [0u8; 10];
        WorkerPool::run_claimed(
            &mut slot,
            &mut [0u8; 3],
            0,
            split(&mut data, |_| 0..0),
            never,
        );
        WorkerPool::run_claimed(&mut slot, &mut [], 0, split(&mut data, |_| 0..0), never);
        assert!(slot.is_none());
        let ran = AtomicUsize::new(0);
        for (slots, window) in [(3, 4), (1, 4), (3, 6)] {
            let parts = split(&mut data, move |j: usize| j * window..j * window + 5);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                WorkerPool::run_claimed(&mut slot, &mut vec![0u8; slots], 2, parts, |_, _, _| {
                    _ = ran.fetch_add(1, Ordering::Relaxed)
                })
            }));
            assert!(caught.is_err(), "slots={slots} window={window}");
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0);
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
