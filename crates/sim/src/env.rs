//! The `SMALLFLOAT_*` environment escape hatches, in one place.
//!
//! Every knob the workspace reads from the environment goes through this
//! module (the full table lives in README.md). A *flag* variable is
//! enabled when it is set to anything other than `0` or the empty string
//! — `SMALLFLOAT_NOBLOCKS=1` and `SMALLFLOAT_NOBLOCKS=yes` both count,
//! `SMALLFLOAT_NOBLOCKS=0` and an unset variable do not. Value variables
//! (`SMALLFLOAT_BENCH_JSON`, a path) are read with [`value`].
//!
//! The engine-tier kill switch ([`noblocks`]) sits on the simulator's
//! hottest dispatch path, so its first read is cached for the life of
//! the process; everything else is read live at each call.

use std::sync::OnceLock;

/// Live read of one flag variable: set and neither `0` nor empty.
pub fn flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| !v.is_empty() && v != "0")
}

/// Live read of one value variable (`None` when unset or empty).
pub fn value(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

/// `SMALLFLOAT_NOBLOCKS`: disable the basic-block micro-op cache — every
/// `Cpu::run` takes the per-instruction reference path. Cached at first
/// read.
pub fn noblocks() -> bool {
    static CACHE: OnceLock<bool> = OnceLock::new();
    *CACHE.get_or_init(|| flag("SMALLFLOAT_NOBLOCKS"))
}

/// `SMALLFLOAT_HOT_BLOCKS`: print the hot-block profile after every
/// simulated kernel launch. Cached at first read, so a launch that nobody
/// profiles pays one load.
pub fn hot_blocks() -> bool {
    static CACHE: OnceLock<bool> = OnceLock::new();
    *CACHE.get_or_init(|| flag("SMALLFLOAT_HOT_BLOCKS"))
}

/// `SMALLFLOAT_SERIAL`: pin every parallel fan-out (`bench::par`, the
/// cluster's host threads) to the calling thread.
pub fn serial() -> bool {
    flag("SMALLFLOAT_SERIAL")
}

/// `SMALLFLOAT_BLESS`: regenerate golden files under `tests/data/`
/// instead of comparing against them.
pub fn bless() -> bool {
    flag("SMALLFLOAT_BLESS")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `flag` semantics: unset → off, `0`/empty → off, anything else → on.
    /// (Uses a variable nothing else reads; tests in this binary run
    /// single-threaded with respect to it.)
    #[test]
    fn flag_semantics() {
        let name = "SMALLFLOAT_ENV_SELFTEST";
        std::env::remove_var(name);
        assert!(!flag(name));
        for (val, want) in [("0", false), ("", false), ("1", true), ("yes", true)] {
            std::env::set_var(name, val);
            assert_eq!(flag(name), want, "value {val:?}");
        }
        std::env::remove_var(name);
        assert_eq!(value(name), None);
        std::env::set_var(name, "out.json");
        assert_eq!(value(name).as_deref(), Some("out.json"));
        std::env::remove_var(name);
    }
}
