//! Host-time spans and counters recorded from the benchmark's own files,
//! around its calls into each crate. Nothing here reaches inside the
//! program: a span is the wall time of one public call (or of a replayed
//! stretch of a crate's orchestration code), accumulated per name on the
//! calling thread. Traced passes run on a thread of their own and hand the
//! [`Recorder`] back with [`take`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated span seconds and event counts, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    pub secs: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn secs(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Run `f` and add its wall time to span `name`. Spans may nest; each
/// name accumulates the full duration of its own calls.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    add_secs(name, t0.elapsed().as_secs_f64());
    out
}

pub fn add_secs(name: &'static str, secs: f64) {
    RECORDER.with(|r| *r.borrow_mut().secs.entry(name).or_default() += secs);
}

pub fn count(name: &'static str, n: u64) {
    RECORDER.with(|r| *r.borrow_mut().counts.entry(name).or_default() += n);
}

/// Take this thread's recorder, leaving an empty one.
pub fn take() -> Recorder {
    RECORDER.with(|r| std::mem::take(&mut *r.borrow_mut()))
}
