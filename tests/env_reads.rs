//! Guard: no library code reads the process environment.
//!
//! A library result must depend only on its arguments, so a run can be
//! replayed from its inputs (or its snapshot) alone. The `ISE_*` pins
//! are read once, at the top of a binary's or example's `main`, through
//! `ise_types::env`, and passed down. This test scans every crate's
//! `src/` tree and fails on any environment read outside that module and
//! the binaries in `crates/bench/src/bin/`.

use std::fs;
use std::path::{Path, PathBuf};

/// Files and directories (relative to the repo root, `/`-separated)
/// allowed to read the environment.
const ALLOWED: &[&str] = &["crates/types/src/env.rs", "crates/bench/src/bin/"];

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

#[test]
fn no_environment_reads_below_main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let src = krate.expect("readable crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 20, "scanned too few files: {}", files.len());

    let mut offenders = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .expect("under the repo root")
            .to_string_lossy()
            .replace('\\', "/");
        if ALLOWED.iter().any(|a| rel.starts_with(a)) {
            continue;
        }
        let text = fs::read_to_string(path).expect("readable source file");
        for (n, line) in text.lines().enumerate() {
            if line.contains("env::var") {
                offenders.push(format!("{rel}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "library code reads the environment; read it in `main` and pass \
         it down instead:\n{}",
        offenders.join("\n")
    );
}
