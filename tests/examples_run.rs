//! Every example runs to completion. `cargo test` builds `examples/*.rs`
//! but runs none of them, so an example that panics — as
//! `crash_recovery` would if it cut power below an unpinned crash horizon —
//! would merge unseen. This runs each built binary from
//! `target/<profile>/examples/` and requires exit 0.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// `target/<profile>/examples/`: the sibling of this test binary's `deps/`.
fn built_examples() -> PathBuf {
    let exe = std::env::current_exe().expect("the test binary has a path");
    exe.parent().and_then(Path::parent).expect("target/<profile>/deps/<test>").join("examples")
}

/// The stem of every `examples/*.rs`, sorted.
fn example_names() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{} reads: {e}", dir.display()))
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .filter_map(|p| Some(p.file_stem()?.to_str()?.to_string()))
        .collect();
    names.sort();
    names
}

#[test]
fn every_example_exits_zero() {
    let dir = built_examples();
    let names = example_names();
    assert!(names.len() >= 4, "the scan must see the examples, saw {names:?}");
    // Spawn all, then wait for each: the slowest sets the wall time.
    let children: Vec<_> = names
        .iter()
        .map(|name| {
            let bin = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
            assert!(
                bin.is_file(),
                "{} is missing: `cargo test` builds every example, a filtered run needs \
                 `cargo build --examples` first",
                bin.display()
            );
            let child = Command::new(&bin)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("{} starts: {e}", bin.display()));
            (name, child)
        })
        .collect();
    for (name, child) in children {
        let out = child.wait_with_output().expect("the example runs");
        assert!(
            out.status.success(),
            "example `{name}` failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
