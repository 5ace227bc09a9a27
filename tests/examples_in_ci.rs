//! Guard: every example is run by CI.
//!
//! An example nothing runs rots silently, or repeats a `paper` experiment
//! or the crate doctest under a second name. This test fails when a file
//! under `examples/` is not named in a `cargo run … --example <name>`
//! step of `.github/workflows/ci.yml`.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The example names passed to `cargo run … --example` in `ci`.
fn examples_run_by(ci: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in ci.lines().filter(|l| l.contains("cargo run")) {
        let mut words = line.split_whitespace();
        while let Some(word) = words.next() {
            if word == "--example" {
                names.extend(words.next().map(str::to_string));
            }
        }
    }
    names
}

#[test]
fn every_example_runs_in_ci() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("readable ci.yml");
    let run = examples_run_by(&ci);
    assert!(!run.is_empty(), "ci.yml runs no example");

    let mut unrun = Vec::new();
    for entry in fs::read_dir(root.join("examples")).expect("examples/ exists") {
        let path = entry.expect("readable directory entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let name = path.file_stem().expect("file name").to_string_lossy();
            if !run.contains(name.as_ref()) {
                unrun.push(format!("examples/{name}.rs"));
            }
        }
    }
    unrun.sort();
    assert!(
        unrun.is_empty(),
        "examples no CI step runs; run each in .github/workflows/ci.yml \
         with `cargo run … --example <name>`, or delete it:\n{}",
        unrun.join("\n")
    );
}
