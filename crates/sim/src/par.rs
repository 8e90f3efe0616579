//! The workspace's one order-preserving host fan-out.
//!
//! Simulations are deterministic and independent once their inputs are
//! fixed, so every parallel loop in the workspace has the same shape: run
//! tasks `0..n` on a few host threads and hand the results back in task
//! order. [`fan_out`] is that loop, for the experiment grid
//! ([`par_map`]) and the cluster's request executor
//! (`smallfloat_cluster`). Results come back in task-index order, so
//! whatever a caller folds from them — rendered figure text, `f64` energy
//! sums — is byte-identical to a serial run: parallelism is a wall-clock
//! optimization, never an observable one.
//!
//! Fan-outs of sub-millisecond tasks (a conv layer's per-sample launches,
//! `smallfloat_kernels::launch_each`) cannot pay a thread spawn and join
//! per call, nor wait for a helper the host has not scheduled yet. They
//! borrow the calling thread's persistent helpers through [`assist`]
//! instead: the caller works through its own tasks and waits only for
//! tasks a helper has already claimed.
//!
//! How many workers a fan-out gets is decided in one place,
//! [`workers`]: a count forced by [`set_workers`], else 1 under
//! `SMALLFLOAT_SERIAL` or inside another fan-out's worker or an
//! [`assist`] helper (so nested fan-outs run serially instead of
//! oversubscribing the host), else one per available core.

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Process-wide worker override: 0 = the [`workers`] rule, n = exactly n
/// workers.
static FORCE_WORKERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is running a task of a parallel [`fan_out`]
    /// (as a spawned worker, or as the calling thread while it is
    /// worker 0).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };

    /// This thread's persistent [`assist`] helpers, ended and joined
    /// when the thread exits.
    static HELPERS: RefCell<Vec<Helper>> = const { RefCell::new(Vec::new()) };
}

/// One persistent [`assist`] helper: its job channel, whether it has
/// finished (and dropped) every job sent to it, and its thread.
struct Helper {
    jobs: Option<mpsc::Sender<Job>>,
    idle: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Helper {
    /// Close the channel and wait for the helper to end, so a thread's
    /// helpers (and what their allocations hold) are gone when it exits.
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A job handed to [`assist`] helpers.
pub type Job = Arc<dyn Fn() + Send + Sync>;

/// Force every subsequent fan-out that asks [`workers`] onto exactly `n`
/// workers, nested ones included (`0` restores the rule). The
/// worker-count independence tests use this; end users can set
/// `SMALLFLOAT_SERIAL=1` in the environment to pin everything to the
/// calling thread instead.
pub fn set_workers(n: usize) {
    FORCE_WORKERS.store(n, Ordering::SeqCst);
}

/// Workers for a fan-out of `tasks` tasks: the [`set_workers`] count if
/// one is forced; otherwise 1 under `SMALLFLOAT_SERIAL` or when called
/// from inside a parallel fan-out's task or an [`assist`] helper;
/// otherwise one per available core. Never more than `tasks`, never less
/// than 1.
pub fn workers(tasks: usize) -> usize {
    let n = match FORCE_WORKERS.load(Ordering::SeqCst) {
        0 if crate::env::serial() || IN_WORKER.with(Cell::get) => 1,
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        forced => forced,
    };
    n.min(tasks).max(1)
}

/// Marks the current thread as a fan-out worker until dropped, restoring
/// the previous mark (the calling thread is worker 0 only for the
/// duration of its fan-out).
struct WorkerMark(bool);

impl WorkerMark {
    fn enter() -> WorkerMark {
        WorkerMark(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// Run `f(state, i)` for every `i` in `0..tasks` on up to `states.len()`
/// workers, one state each, and return the results in index order.
///
/// Worker 0 is the calling thread with `states[0]`; each further worker
/// is a scoped thread with its own state, so a state (a simulator, a
/// pool of them) is never shared. Tasks are claimed from a shared
/// counter, so which state runs which task is not deterministic — `f`'s
/// result must not depend on it. With one state or one task everything
/// runs on the calling thread and no thread is spawned.
///
/// # Panics
///
/// Panics if `tasks > 0` and `states` is empty. A panicking task's own
/// payload is re-raised on the caller once every worker has stopped (the
/// lowest-numbered panicking worker's), so its message survives.
pub fn fan_out<S, T, F>(states: &mut [S], tasks: usize, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let n = states.len().min(tasks);
    if n <= 1 {
        if tasks == 0 {
            return Vec::new();
        }
        let state = states.first_mut().expect("a fan-out needs a state");
        return (0..tasks).map(|i| f(state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let work = |state: &mut S| {
        let _mark = WorkerMark::enter();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                return done;
            }
            done.push((i, f(state, i)));
        }
    };
    let (own, helpers) = states[..n].split_first_mut().expect("n > 1");
    let parts: Vec<std::thread::Result<Vec<(usize, T)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = helpers
            .iter_mut()
            .map(|state| scope.spawn(|| work(state)))
            .collect();
        let mine = panic::catch_unwind(AssertUnwindSafe(|| work(own)));
        std::iter::once(mine)
            .chain(handles.into_iter().map(|h| h.join()))
            .collect()
    });
    let mut out: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    for part in parts {
        match part {
            Ok(done) => done.into_iter().for_each(|(i, v)| out[i] = Some(v)),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
    out.into_iter()
        .map(|v| v.expect("every task index was claimed exactly once"))
        .collect()
}

/// Run `job` once on each idle one of the calling thread's first
/// `helpers` persistent helper threads, and return at once: the job
/// itself shares out the work (e.g. off an atomic counter) and tells the
/// caller when it is done, so a caller never waits for a helper that finds
/// nothing left. A helper still busy with an earlier job — one the host
/// has not scheduled yet — is skipped rather than queued, so a lagging
/// helper never holds more than one job (and what it keeps alive).
///
/// The helpers are started on first use and kept for the calling
/// thread's lifetime (its exit waits for them to end); they count as
/// fan-out workers, so a fan-out inside a job runs serially. A panic that
/// escapes `job` is swallowed (the helper lives on): catch and report
/// task panics inside the job.
pub fn assist(helpers: usize, job: &Job) {
    HELPERS.with(|crew| {
        let mut crew = crew.borrow_mut();
        while crew.len() < helpers {
            let (jobs, rx) = mpsc::channel::<Job>();
            let idle = Arc::new(AtomicBool::new(true));
            let done = Arc::clone(&idle);
            let thread = std::thread::spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                for job in rx {
                    let _ = panic::catch_unwind(AssertUnwindSafe(|| job()));
                    drop(job);
                    done.store(true, Ordering::Release);
                }
            });
            crew.push(Helper {
                jobs: Some(jobs),
                idle,
                thread: Some(thread),
            });
        }
        for h in &crew[..helpers] {
            if h.idle.swap(false, Ordering::Acquire) {
                let jobs = h.jobs.as_ref().expect("open until the helper is dropped");
                jobs.send(Arc::clone(job))
                    .expect("a helper runs until its channel closes");
            }
        }
    });
}

/// Evaluate `f(0..tasks)` on [`workers`]`(tasks)` workers, returning
/// results in index order — [`fan_out`] for stateless tasks (workloads
/// are not `Send`, so tasks receive only their index and reconstruct
/// what they need inside the worker).
///
/// # Panics
///
/// Re-raises a panicking task's payload, as [`fan_out`].
pub fn par_map<T, F>(tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fan_out(&mut vec![(); workers(tasks)], tasks, |_, i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that force a worker count: the override is
    /// process-wide.
    static FORCED: Mutex<()> = Mutex::new(());

    fn forced<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = FORCED.lock().unwrap_or_else(|e| e.into_inner());
        set_workers(n);
        let r = panic::catch_unwind(AssertUnwindSafe(f));
        set_workers(0);
        r.unwrap_or_else(|p| panic::resume_unwind(p))
    }

    #[test]
    fn preserves_order_across_real_threads() {
        // Force several workers even on single-core machines so the
        // threaded path is genuinely exercised.
        let got = forced(4, || par_map(97, |i| i * i));
        assert_eq!(got, (0..97).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_toggle_matches_parallel() {
        let par = forced(3, || par_map(23, |i| (i, i as u64 * 3)));
        let ser = forced(1, || par_map(23, |i| (i, i as u64 * 3)));
        assert_eq!(par, ser);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
        assert_eq!(
            fan_out(&mut Vec::<()>::new(), 0, |_, i| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn each_worker_keeps_its_own_state() {
        // Every task lands on exactly one state, and the calling thread
        // is worker 0.
        let mut states = vec![Vec::new(); 3];
        let caller = std::thread::current().id();
        let on_caller = fan_out(&mut states, 40, |seen: &mut Vec<usize>, i| {
            seen.push(i);
            std::thread::current().id() == caller
        });
        let mut all: Vec<usize> = states.concat();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
        for (i, caller_ran) in on_caller.into_iter().enumerate() {
            assert_eq!(caller_ran, states[0].contains(&i), "task {i}");
        }
    }

    #[test]
    fn nested_fan_outs_run_serially() {
        let _guard = FORCED.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!IN_WORKER.with(Cell::get));
        let inner = fan_out(&mut [(), ()], 4, |_, _| workers(8));
        assert_eq!(
            inner,
            vec![1; 4],
            "a worker's nested fan-out gets one worker"
        );
        assert!(!IN_WORKER.with(Cell::get), "the caller's mark is restored");
    }

    /// `assist` runs the job once on each of `n` helper threads of the
    /// caller — the same threads on every call — and they count as
    /// fan-out workers.
    #[test]
    fn assist_reuses_its_helpers() {
        std::thread::spawn(|| {
            let mut crews = Vec::new();
            for _ in 0..3 {
                let (tx, rx) = mpsc::channel();
                let tx = Mutex::new(tx);
                let job: Job = Arc::new(move || {
                    let me = (std::thread::current().id(), IN_WORKER.with(Cell::get));
                    tx.lock().unwrap().send(me).unwrap();
                });
                assist(2, &job);
                let mut ran: Vec<_> = rx.iter().take(2).collect();
                assert!(ran.iter().all(|&(_, worker)| worker), "{ran:?}");
                ran.sort_by_key(|&(id, _)| format!("{id:?}"));
                ran.dedup();
                assert_eq!(ran.len(), 2, "two distinct helpers");
                assert!(ran.iter().all(|&(id, _)| id != std::thread::current().id()));
                crews.push(ran);
                // Both have sent; wait until both have also turned idle.
                while !HELPERS.with(|c| c.borrow().iter().all(|h| h.idle.load(Ordering::Acquire))) {
                    std::thread::yield_now();
                }
            }
            assert!(crews.windows(2).all(|w| w[0] == w[1]), "{crews:?}");
        })
        .join()
        .unwrap();
    }

    /// A helper still running an earlier job is skipped, not queued: the
    /// skipped job never runs on it.
    #[test]
    fn assist_skips_a_busy_helper() {
        std::thread::spawn(|| {
            let (release, blocked) = mpsc::channel::<()>();
            let blocked = Mutex::new(blocked);
            let (started, first) = mpsc::channel();
            let started = Mutex::new(started);
            let hold: Job = Arc::new(move || {
                started.lock().unwrap().send(()).unwrap();
                blocked.lock().unwrap().recv().unwrap();
            });
            assist(1, &hold);
            first.recv().unwrap();
            let skipped = Arc::new(AtomicUsize::new(0));
            let count = Arc::clone(&skipped);
            assist(
                1,
                &(Arc::new(move || {
                    count.fetch_add(1, Ordering::SeqCst);
                }) as Job),
            );
            release.send(()).unwrap();
            // The helper turns idle once `hold` returns; the next job runs
            // on it, and a queued `skipped` would have run before it.
            let (ran, next) = mpsc::channel();
            let ran = Mutex::new(ran);
            let probe: Job = Arc::new(move || ran.lock().unwrap().send(()).unwrap());
            loop {
                assist(1, &probe);
                if next
                    .recv_timeout(std::time::Duration::from_millis(10))
                    .is_ok()
                {
                    break;
                }
            }
            assert_eq!(skipped.load(Ordering::SeqCst), 0);
        })
        .join()
        .unwrap();
    }

    /// The payload of a panic in a spawned worker (and in worker 0, the
    /// calling thread) reaches the caller, not std's generic "a scoped
    /// thread panicked".
    #[test]
    fn a_panicking_task_keeps_its_message() {
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        for on_caller in [false, true] {
            // Each worker's first task waits until the other worker has
            // claimed one too, so both run a task and the side under test
            // is the one that panics.
            let ran = [AtomicBool::new(false), AtomicBool::new(false)];
            let err = panic::catch_unwind(AssertUnwindSafe(|| {
                fan_out(&mut [(), ()], 8, |_, i| {
                    let mine = std::thread::current().id() == caller;
                    ran[usize::from(mine)].store(true, Ordering::SeqCst);
                    while !ran[usize::from(!mine)].load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    if mine == on_caller {
                        panic!("task {i} failed on purpose");
                    }
                    i
                })
            }))
            .expect_err("a task panicked");
            let msg = err
                .downcast_ref::<String>()
                .expect("the task's own formatted payload");
            assert!(
                msg.starts_with("task ") && msg.ends_with(" failed on purpose"),
                "{msg}"
            );
        }
        assert!(!IN_WORKER.with(Cell::get), "the mark survives the unwind");
    }
}
