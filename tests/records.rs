//! Workspace-level records and knobs stay honest: every root
//! `BENCH_*.json` names, in its `"methodology"`, the bin that regenerates
//! it (`--bin <b> -- --json <its own file name>`) and is a `cmp` target
//! of `scripts/check.sh --full`'s regenerate step, and README's
//! "Environment variables" table lists exactly the `SMALLFLOAT_*` string
//! literals in `crates/*/src`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// File names of the root `BENCH_*.json` records.
fn records() -> Vec<String> {
    entries(&root())
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect()
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    paths
}

#[test]
fn committed_records_name_their_generator() {
    for name in records() {
        let text = read(&root().join(&name));
        let Some(method) = text.split("\"methodology\": \"").nth(1) else {
            panic!("{name}: no \"methodology\"");
        };
        // Up to the first quote: an escaped one can only shorten it, and fail.
        let method = method.split('"').next().unwrap();
        let Some(end) = method.find(&format!(" -- --json {name}")) else {
            panic!("{name}: methodology does not name `--bin <b> -- --json {name}`");
        };
        let bin = method[..end].rsplit("--bin ").next().unwrap();
        let src = root().join(format!("crates/bench/src/bin/{bin}.rs"));
        assert!(src.is_file(), "{name}: no generator {}", src.display());
    }
}

/// A record that is regenerated but never compared can drift from its
/// generator unnoticed: `check.sh --full` must `cmp` every record.
#[test]
fn every_record_is_compared_by_the_full_gate() {
    let check = read(&root().join("scripts/check.sh"));
    let compared: BTreeSet<&str> = check
        .lines()
        .filter_map(|l| l.trim().strip_prefix("cmp ")?.split_whitespace().last())
        .collect();
    for name in records() {
        assert!(
            compared.contains(name.as_str()),
            "{name}: scripts/check.sh --full has no `cmp <regenerated> {name}`"
        );
    }
}

/// Adds the `"SMALLFLOAT_…"` string literals of the `.rs` files under `dir`.
fn knobs(dir: &Path, out: &mut BTreeSet<String>) {
    for path in entries(dir) {
        if path.is_dir() {
            knobs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = read(&path);
            for (i, _) in text.match_indices("\"SMALLFLOAT_") {
                let lit = &text[i + 1..];
                let len = lit
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap();
                if lit[len..].starts_with('"') {
                    out.insert(lit[..len].to_string());
                }
            }
        }
    }
}

#[test]
fn readme_env_table_matches_knobs_in_source() {
    let mut read_by_code = BTreeSet::new();
    for krate in entries(&root().join("crates")) {
        if krate.join("src").is_dir() {
            knobs(&krate.join("src"), &mut read_by_code);
        }
    }
    // The env module's own self-test variable; nothing else reads it.
    read_by_code.remove("SMALLFLOAT_ENV_SELFTEST");
    let readme = read(&root().join("README.md"));
    let section = readme.split("\n## Environment variables\n").nth(1).unwrap();
    let listed: BTreeSet<String> = (section.split("\n## ").next().unwrap().lines())
        .filter_map(|l| l.strip_prefix("| `SMALLFLOAT_")?.split('`').next())
        .map(|k| format!("SMALLFLOAT_{k}"))
        .collect();
    assert_eq!(
        listed, read_by_code,
        "README env table (left) vs crates/*/src (right)"
    );
}
