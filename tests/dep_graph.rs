//! Structural lint, lexical like `api_surface.rs`: the dependency graph
//! says what the code says, and no module grows back into a monolith.
//!
//! * Every `[dependencies]` entry of a workspace crate must be named by
//!   some non-comment line under that crate's `src/` — an edge no source
//!   file uses is a lie about the architecture and a needless rebuild
//!   trigger. (`[dev-dependencies]` are out of scope: tests, benches and
//!   examples live outside `src/`.)
//! * No `crates/*/src/**/*.rs` may exceed [`MAX_SOURCE_LINES`].

use std::path::{Path, PathBuf};

/// The largest source file allowed. `ext4/src/fs.rs` (1 678 lines) is the
/// current maximum and next on the split list; the engine's 2 064-line
/// `db/mod.rs` is what this keeps from coming back unnoticed.
const MAX_SOURCE_LINES: usize = 1_700;

fn crate_dirs() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("crates/ exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    assert!(dirs.len() >= 10, "the scan must see the workspace crates, saw {}", dirs.len());
    dirs
}

/// All `.rs` files under `dir`, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

/// The package names listed under `[dependencies]` in a manifest.
fn dependencies(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split(['.', '=', ' ']).next())
        .map(str::to_string)
        .collect()
}

/// Whether `ident` occurs in `line` as a whole identifier.
fn names(line: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices(ident).any(|(i, _)| {
        !line[..i].chars().next_back().is_some_and(is_ident)
            && !line[i + ident.len()..].chars().next().is_some_and(is_ident)
    })
}

#[test]
fn every_dependency_edge_is_named_by_the_source() {
    let mut unused = Vec::new();
    for dir in crate_dirs() {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest reads");
        let code: String = rust_files(&dir.join("src"))
            .iter()
            .map(|f| std::fs::read_to_string(f).expect("source reads"))
            .collect();
        for dep in dependencies(&manifest) {
            let ident = dep.replace('-', "_");
            let named = code.lines().any(|l| !l.trim_start().starts_with("//") && names(l, &ident));
            if !named {
                unused.push(format!("{}: `{dep}`", dir.display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "[dependencies] entries no source file under src/ names (delete them, or move them to \
         [dev-dependencies] if only tests use them):\n  {}",
        unused.join("\n  ")
    );
}

#[test]
fn dependency_scan_reads_manifests_and_identifiers() {
    // Self-check, so the lint cannot go blind silently.
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nnob-sim.workspace = true\n# note\n\
                    rand = { path = \"r\" }\n\n[dev-dependencies]\nproptest.workspace = true\n";
    assert_eq!(dependencies(manifest), ["nob-sim", "rand"]);
    assert!(names("use nob_sim::Nanos;", "nob_sim"));
    assert!(!names("use nob_simulator::Nanos;", "nob_sim"));
    assert!(!names("let my_rand = 1;", "rand"));
}

#[test]
fn no_source_file_outgrows_the_line_budget() {
    let mut over = Vec::new();
    for dir in crate_dirs() {
        for file in rust_files(&dir.join("src")) {
            let lines = std::fs::read_to_string(&file).expect("source reads").lines().count();
            if lines > MAX_SOURCE_LINES {
                over.push(format!("{}: {lines} lines", file.display()));
            }
        }
    }
    assert!(
        over.is_empty(),
        "source files over {MAX_SOURCE_LINES} lines — split them by concern:\n  {}",
        over.join("\n  ")
    );
}
