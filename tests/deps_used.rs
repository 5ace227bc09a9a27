//! Guard: every in-tree dependency edge is used.
//!
//! An edge no source file names still orders the build and widens what a
//! change in the depended-on crate rebuilds, and it claims a layering the
//! code does not have. This test fails when an `ise-*` or `quickprop`
//! entry in a package's `[dependencies]` or `[dev-dependencies]` is not
//! named (as `ise_*` / `quickprop`) in any `.rs` file under that
//! package's `src/`, `tests/` or `examples/`. It checks the root package
//! and every workspace member under `crates/`.

use std::fs;
use std::path::{Path, PathBuf};

/// The in-tree dependencies a manifest declares, as crate names
/// (`ise-mem` becomes `ise_mem`).
fn in_tree_deps(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]" || line == "[dev-dependencies]";
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or("").trim();
        if in_deps && (key.starts_with("ise-") || key == "quickprop") {
            deps.push(key.replace('-', "_"));
        }
    }
    deps
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `text` holds `name` as a whole identifier.
fn names(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + name.len()..].starts_with(ident))
}

#[test]
fn every_in_tree_dependency_is_named_in_its_package() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.to_path_buf()];
    for krate in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let dir = krate.expect("readable crate entry").path();
        if dir.join("Cargo.toml").is_file() {
            packages.push(dir);
        }
    }
    assert!(
        packages.len() > 10,
        "found too few packages: {}",
        packages.len()
    );

    let mut unused = Vec::new();
    for dir in &packages {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("readable Cargo.toml");
        let mut files = Vec::new();
        for sub in ["src", "tests", "examples"] {
            rust_files(&dir.join(sub), &mut files);
        }
        // This file names `quickprop` in its own text; it must not
        // vouch for the root package's edge.
        files.retain(|f| !f.ends_with(file!()));
        let sources: Vec<String> = files
            .iter()
            .map(|f| fs::read_to_string(f).expect("readable source file"))
            .collect();
        for dep in in_tree_deps(&manifest) {
            if !sources.iter().any(|text| names(text, &dep)) {
                let rel = dir.strip_prefix(root).expect("under the repo root");
                unused.push(format!("{}: {dep}", rel.join("Cargo.toml").display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "dependencies no source file of the package names; drop them:\n{}",
        unused.join("\n")
    );
}
