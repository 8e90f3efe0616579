//! Order-preserving parallel fan-out for the experiment grid.
//!
//! Every figure/table driver walks a kernel × precision × vec-mode grid of
//! independent simulations. [`par_map`] runs those tasks on scoped worker
//! threads and returns results in task-index order, so rendered figure text
//! is byte-identical to a serial run — parallelism is purely a wall-clock
//! optimization and never an observable one.
//!
//! Workloads are not `Send`, so tasks receive only their index and
//! reconstruct whatever they need (e.g. `bench::suite()`) inside the
//! worker; simulation itself is deterministic, which is what makes this
//! sound.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker override: 0 = auto (one worker per available
/// core), 1 = serial, n = exactly n workers.
static FORCE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Force every subsequent [`par_map`] onto exactly `n` workers (`0`
/// restores auto-detection). The serial/parallel equivalence tests use
/// this; end users can set `SMALLFLOAT_SERIAL=1` in the environment to
/// pin everything to the calling thread instead.
pub fn set_workers(n: usize) {
    FORCE_WORKERS.store(n, Ordering::SeqCst);
}

fn worker_count(tasks: usize) -> usize {
    let forced = FORCE_WORKERS.load(Ordering::SeqCst);
    if forced != 0 {
        return forced.min(tasks.max(1));
    }
    if smallfloat_sim::env::serial() {
        return 1;
    }
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(tasks)
}

/// Evaluate `f(0..tasks)` across worker threads, returning results in
/// index order. Panics in any task propagate to the caller once all
/// workers have stopped.
pub fn par_map<T, F>(tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = worker_count(tasks);
    if workers <= 1 {
        return (0..tasks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<T>>> = Mutex::new((0..tasks).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                let v = f(i);
                out.lock().expect("no poisoned result slots")[i] = Some(v);
            });
        }
    });
    out.into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|v| v.expect("every task index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_real_threads() {
        // Force several workers even on single-core machines so the
        // threaded path is genuinely exercised.
        set_workers(4);
        let got = par_map(97, |i| i * i);
        set_workers(0);
        assert_eq!(got, (0..97).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_toggle_matches_parallel() {
        set_workers(3);
        let par = par_map(23, |i| (i, i as u64 * 3));
        set_workers(1);
        let ser = par_map(23, |i| (i, i as u64 * 3));
        set_workers(0);
        assert_eq!(par, ser);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
    }
}
