//! Guard: one post-run audit and one fault-cell builder.
//!
//! Chaos cells, adversary evaluations, litmus `--sim` runs and guest
//! replays are all judged by the same audit, `ise_sim::invariants`, and
//! the three fault campaigns build their injected system through the same
//! `ise_sim::fault_cell`, so a new standing check or a change to a gate
//! is one edit that every run kind sees. This test scans every crate's
//! `src/` tree and fails when
//!
//! * an audit violation text appears outside `crates/sim/src/invariants.rs`,
//! * the injector seed salt appears anywhere but inside `fault_cell`,
//! * `invariants.rs` exposes a free function other than the two entry
//!   points, or
//! * one of the four run kinds stops reaching the audit.

use std::fs;
use std::path::{Path, PathBuf};

/// Where the audit lives.
const AUDIT: &str = "crates/sim/src/invariants.rs";
/// Texts only the audit may produce.
const AUDIT_TEXTS: &[&str] = &["stores retired but", "FSB ring ended"];
/// Where the fault-cell builder lives, and the salt only it may apply.
const CELL: &str = "crates/sim/src/chaos.rs";
const SALT: &str = "0xF417";
/// The four run kinds, each of which must call into the audit.
const CALLERS: &[&str] = &[
    "crates/sim/src/chaos.rs",
    "crates/adversary/src/eval.rs",
    "crates/sim/src/litmus.rs",
    "crates/sim/src/guest.rs",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `crates/*/src` file as (repo-relative path, contents).
fn sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let src = krate.expect("readable crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 20, "scanned too few files: {}", files.len());
    files
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .expect("under the repo root")
                .to_string_lossy()
                .replace('\\', "/");
            (rel, fs::read_to_string(path).expect("readable source file"))
        })
        .collect()
}

fn source(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

#[test]
fn audit_texts_live_only_in_the_audit() {
    let mut offenders = Vec::new();
    for (rel, text) in sources() {
        if rel == AUDIT {
            continue;
        }
        for (n, line) in text.lines().enumerate() {
            if AUDIT_TEXTS.iter().any(|t| line.contains(t)) {
                offenders.push(format!("{rel}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a second copy of an audit check; call `ise_sim::invariants` \
         instead:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn one_helper_builds_the_fault_cell() {
    let mut hits = Vec::new();
    for (rel, text) in sources() {
        for (n, line) in text.lines().enumerate() {
            if line.contains(SALT) {
                hits.push((rel.clone(), n));
            }
        }
    }
    let cell = source(CELL);
    let lines: Vec<&str> = cell.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.starts_with("pub fn fault_cell("))
        .expect("fault_cell is defined in the cell module");
    let end = start
        + lines[start..]
            .iter()
            .position(|l| *l == "}")
            .expect("fault_cell has a closing brace");
    assert_eq!(
        hits.len(),
        1,
        "the injector salt must appear once, inside `fault_cell`: {hits:?}"
    );
    let (rel, n) = &hits[0];
    assert!(
        rel == CELL && (start..end).contains(n),
        "the injector salt is applied outside `fault_cell`: {rel}:{}",
        n + 1
    );
}

#[test]
fn the_audit_has_two_entry_points_and_four_callers() {
    let audit = source(AUDIT);
    let free: Vec<&str> = audit
        .lines()
        .filter_map(|l| l.strip_prefix("pub fn "))
        .map(|l| l.split('(').next().unwrap_or(l))
        .collect();
    assert_eq!(
        free,
        ["run_audited", "audit"],
        "the audit's layers must stay private to it"
    );
    for caller in CALLERS {
        let text = source(caller);
        assert!(
            text.contains("invariants::run_audited(") || text.contains("invariants::audit("),
            "{caller} no longer reaches the shared audit"
        );
    }
}
