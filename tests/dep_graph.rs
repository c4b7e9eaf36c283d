//! Structural lint, on the lexical scanner `api_surface.rs` shares
//! (`lex`): the dependency graph says what the code says, no module grows
//! back into a monolith, and the public surface only shrinks.
//!
//! * Every `[dependencies]` entry of a workspace crate, the root package
//!   included, must be named by some non-comment line under that
//!   package's `src/` — an edge no source file uses is a lie about the
//!   architecture and a needless rebuild trigger. (`[dev-dependencies]`
//!   are out of scope: tests and examples live outside `src/`.)
//! * Every root `[workspace.dependencies]` entry must be depended on by some
//!   member's manifest, and every `shims/*` stand-in by some *other*
//!   member's: an entry or a vendored crate nobody depends on is dead
//!   weight that still builds, still tests and still reads as architecture.
//! * No `crates/*/src/**/*.rs` may exceed [`MAX_SOURCE_LINES`].
//! * `tests/golden/api_surface.txt`, and the surface it pins, may not
//!   exceed [`MAX_SURFACE_LINES`].
//! * The `pub` fields of the `*Options` / `*Config` structs (and
//!   `CpuCosts`) under `crates/*/src` may not exceed [`MAX_KNOBS`].
//! * One JSON writer: outside `crates/sim/src/json.rs` and `#[cfg(test)]`
//!   items, no `crates/*/src` line may hold a string literal with an
//!   escaped JSON key (`\"name\": `) — a document is a `nob_sim::json`
//!   value printed by its one layout rule, never hand-assembled text.

mod lex;

use lex::{names, non_test_lines, root, rust_files};
use std::path::{Path, PathBuf};

/// The settable values of the config structs under `crates/*/src` (see
/// [`lex::knobs`]). Each one doubles the configurations tests and
/// benchmarks must cover; lower it whenever a knob becomes a constant.
/// Last lowered from 46 when `ReadOptions.max_staleness`, which the
/// engine never read, went: a follower read takes its staleness bound as
/// an argument of `FollowerLink::get`. Before that from 47 when `SsdConfig::host_mem_bw`, which only
/// `SsdConfig::pm883` sets, became crate-private. Before that from 49
/// when the two engine options only tests set went:
/// `Options.max_levels` became the constant `NUM_LEVELS` and
/// `Options.paranoid_checks` was deleted. Before that from 50 when scans
/// became ascending only and `ScanOptions.reverse` went.
const MAX_KNOBS: usize = 45;

/// The largest source file allowed: `store/src/lib.rs` (1 267 lines, since
/// `StoreStats` and its instrument table moved to `store/src/stats.rs`) is
/// the current maximum, `cli/src/lib.rs` (1 116) the next. Lower it as the largest file shrinks; the
/// engine's 2 064-line `db/mod.rs` is what this keeps from coming back
/// unnoticed.
const MAX_SOURCE_LINES: usize = 1_267;

/// The length of `tests/golden/api_surface.txt`: a new `pub` item grows
/// it and fails here. Lower it whenever the surface shrinks — never raise
/// it without saying in the PR which new item is API and why. Last
/// lowered by two, from 988, when a causal span became one scope:
/// `TraceSink::{mint_root, push_ctx, pop_ctx, begin_span,
/// begin_span_with_parent, end_span}` went into `TraceSink::open` and
/// `SpanScope` with its `ctx` and `close` (a re-export line changed but
/// stayed). Before that lowered by two, from 990, when replication's staleness bound left the
/// engine's read options: `ReadOptions::{max_staleness,
/// with_max_staleness}` went (`FollowerLink::get` takes the bound as an
/// argument, a line that changed but stayed). Before that lowered by
/// two, from 992, when every value reached the metrics hub
/// through a registered probe and INFO's `# compaction` section went:
/// `Db::l0_pressure`, whose last outside caller that section was, became
/// crate-private, and `Store::compaction_lanes`, which only it and one
/// test read, went (`MetricsHub::sample_due` lost its pushed values, a
/// line that changed but stayed). Last raised by eleven, from 981, for the instrument tables, one per layer, which
/// the hub, INFO and `noblsm.stats` read and `tests/instrument_tables.rs`
/// checks across crates: `noblsm::db::METRICS`, `nob_ext4::METRICS`,
/// `nob_store::METRICS` and `nob_server::core::{Stat, STATS}` (five
/// items, four re-export lines, and the headers of the two files the
/// store's and server's tables live in), net of
/// `ServerCore::{conn_count, open_cursors}`, which went as second
/// spellings of the `conns` and `cursors_open` rows. Before that lowered
/// by four, from 985, when four methods only their own tests called went:
/// `Db::approximate_size`, `FileHandle::inode`, `MetricsHub::reset` and
/// `TraceSink::reset`. Before that by eight, from 993, when the SSD took one command per operation with
/// the service class as an argument: `Ssd::{write_checked, flush_checked,
/// write_background_checked, flush_background_checked, write_background}`
/// went into `Ssd::{write, flush}`, `IoStats::since`, `FsStats::since` and
/// the `pub` of `SsdConfig::host_mem_bw` went. Before that by two, from
/// 995, when `Options::max_levels` and `Options::paranoid_checks` went.
/// Before that by thirteen, from 1 008,
/// when replication moved onto the serving
/// crate's RESP codec and the server stopped carrying a replication
/// posture: `ReplRole`, `ReplStatus` with its six fields (`role`, `epoch`,
/// `lag_nanos`, `shipped_records`, `acked_seq`, `applied_records`),
/// `ServerCore::set_repl_status` and `nob_repl::wire::Frame` (with
/// `pub mod wire` and its file header) went, and the two types left
/// `nob_server`'s re-export line. Before that by six, from 1 014, when iteration became
/// forward-only: `DbIterator::{seek_to_last, prev}`,
/// `ScanOptions::{reverse, reversed}` and `BlockIter::{seek_to_last, prev}`
/// went. Last raised
/// by one, from 1 013, for `ServerCore::new`: it serves a `Store` that is
/// already open, which `noblsm-cli` needs to put its store behind the
/// wire, and `ServerCore::open` delegates to it. Before that by two, from
/// 1 011, for `nob_ext4::Extent` and its `truncate`: a read returns a view
/// of the file's bytes instead of a copy, and a block narrows that view to
/// its payload. Narrowing `BlockIter` or `TableIter` instead would leave
/// `Block::iter` / `Table::iter` returning a private type (a
/// `private_interfaces` warning).
const MAX_SURFACE_LINES: usize = 986;

/// The package directories under `<root>/<sub>`, sorted.
fn package_dirs(sub: &str) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root().join(sub))
        .unwrap_or_else(|e| panic!("{sub}/ exists: {e}"))
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

fn crate_dirs() -> Vec<PathBuf> {
    let dirs = package_dirs("crates");
    assert!(dirs.len() >= 10, "the scan must see the workspace crates, saw {}", dirs.len());
    dirs
}

fn manifest_of(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest reads")
}

/// The keys listed under the table `header` (`[dependencies]`, …) in a
/// manifest.
fn table_keys(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split(['.', '=', ' ']).next())
        .map(str::to_string)
        .collect()
}

/// The package names listed under `[dependencies]` in a manifest.
fn dependencies(manifest: &str) -> Vec<String> {
    table_keys(manifest, "[dependencies]")
}

/// Every package a manifest depends on, whatever for.
fn all_dependencies(manifest: &str) -> Vec<String> {
    ["[dependencies]", "[dev-dependencies]", "[build-dependencies]"]
        .iter()
        .flat_map(|header| table_keys(manifest, header))
        .collect()
}

#[test]
fn every_dependency_edge_is_named_by_the_source() {
    let mut unused = Vec::new();
    for dir in crate_dirs().into_iter().chain([root().to_path_buf()]) {
        let manifest = manifest_of(&dir);
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
fn every_workspace_dependency_and_shim_has_a_dependent() {
    // Every member — the root package too — with what its manifest depends on.
    let shims = package_dirs("shims");
    assert!(!shims.is_empty(), "the scan must see the vendored stand-ins");
    let members: Vec<(PathBuf, Vec<String>)> = crate_dirs()
        .into_iter()
        .chain(shims.iter().cloned())
        .chain([root().to_path_buf()])
        .map(|dir| {
            let deps = all_dependencies(&manifest_of(&dir));
            (dir, deps)
        })
        .collect();
    let mut orphans = Vec::new();
    for dep in table_keys(&manifest_of(root()), "[workspace.dependencies]") {
        if !members.iter().any(|(_, deps)| deps.contains(&dep)) {
            orphans.push(format!("[workspace.dependencies] `{dep}`: no member depends on it"));
        }
    }
    for shim in &shims {
        // A stand-in is published under its directory's name.
        let name = shim.file_name().and_then(|n| n.to_str()).expect("utf-8 directory name");
        if !members.iter().any(|(dir, deps)| dir != shim && deps.iter().any(|d| d == name)) {
            orphans.push(format!("{}: no other member depends on it", shim.display()));
        }
    }
    assert!(
        orphans.is_empty(),
        "dead weight in the workspace — delete it:\n  {}",
        orphans.join("\n  ")
    );
}

#[test]
fn dependency_scan_reads_manifests_and_identifiers() {
    // Self-check, so the lint cannot go blind silently.
    let manifest =
        "[workspace.dependencies]\nnob-sim = { path = \"s\" }\n\n[package]\nname = \"x\"\n\n\
                    [dependencies]\nnob-sim.workspace = true\n# note\n\
                    rand = { path = \"r\" }\n\n[dev-dependencies]\nproptest.workspace = true\n";
    assert_eq!(dependencies(manifest), ["nob-sim", "rand"]);
    assert_eq!(all_dependencies(manifest), ["nob-sim", "rand", "proptest"]);
    assert_eq!(table_keys(manifest, "[workspace.dependencies]"), ["nob-sim"]);
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

/// Whether `line` holds an escaped JSON key, `\"key\": `, as the text of a
/// hand-assembled document does.
fn escaped_json_key(line: &str) -> bool {
    line.match_indices("\\\": ").any(|(end, _)| {
        let before = &line[..end];
        before.rfind("\\\"").is_some_and(|start| {
            let key = &before[start + 2..];
            !key.is_empty() && !key.contains(['"', '\\', ' '])
        })
    })
}

#[test]
fn json_documents_have_one_writer() {
    // Self-check, so the lint cannot go blind silently.
    assert!(escaped_json_key(r#"out.push_str(&format!("  \"{key}\": {value},\n"));"#));
    assert!(escaped_json_key(r#"s.push_str(&format!("\"seed\": {}, ", r.seed));"#));
    assert!(!escaped_json_key(r#"assert!(text.contains("\"demo.queue_ns\""));"#));
    let gated = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {\n    }\n}\nfn c() {}\n";
    assert_eq!(non_test_lines(gated), [(1, "fn a() {}"), (7, "fn c() {}")]);
    let writer = root().join("crates/sim/src/json.rs");
    let mut emitters = Vec::new();
    for dir in crate_dirs() {
        for file in rust_files(&dir.join("src")).into_iter().filter(|f| *f != writer) {
            let source = std::fs::read_to_string(&file).expect("source reads");
            for (n, line) in non_test_lines(&source) {
                if escaped_json_key(line) {
                    emitters.push(format!("{}:{n}: {}", file.display(), line.trim()));
                }
            }
        }
    }
    assert!(
        emitters.is_empty(),
        "hand-assembled JSON — build a `nob_sim::json::Json` value and print it instead:\n  {}",
        emitters.join("\n  ")
    );
}

#[test]
fn the_public_surface_stays_within_its_ratchet() {
    let golden = root().join("tests/golden/api_surface.txt");
    let pinned = std::fs::read_to_string(golden).expect("golden reads").lines().count();
    let current = lex::surface().lines().count();
    for (what, lines) in
        [("tests/golden/api_surface.txt", pinned), ("the current surface", current)]
    {
        assert!(
            lines <= MAX_SURFACE_LINES,
            "{what} is {lines} lines, over MAX_SURFACE_LINES = {MAX_SURFACE_LINES}: make the new \
             items pub(crate) (scripts/api-unused.sh lists the candidates)"
        );
    }
}

#[test]
fn the_config_structs_stay_within_their_knob_ratchet() {
    // Self-check, so the count cannot go blind silently.
    let fixture = "pub struct FooOptions<'a> {\n    /// Doc.\n    pub a: &'a str,\n    \
                   pub(crate) b: u64,\n    pub c: Option<u8>,\n}\n\
                   pub struct Bar {\n    pub d: u8,\n}\n\
                   #[cfg(test)]\nmod tests {\n    pub struct TestConfig {\n        pub e: u8,\n    \
                   }\n}\npub struct CpuCosts {\n    pub f: u8,\n}\n";
    assert_eq!(lex::knobs(fixture), ["FooOptions.a", "FooOptions.c", "CpuCosts.f"]);
    let knobs: Vec<String> = crate_dirs()
        .iter()
        .flat_map(|dir| rust_files(&dir.join("src")))
        .flat_map(|file| lex::knobs(&std::fs::read_to_string(file).expect("source reads")))
        .collect();
    assert!(
        knobs.iter().any(|k| k == "Options.table_size"),
        "the scan must see the engine options"
    );
    assert!(
        knobs.len() <= MAX_KNOBS,
        "{} settable config values, over MAX_KNOBS = {MAX_KNOBS}: a new knob needs two non-test \
         callers that set it to different values; with one value in use it is a constant \
         beside its reader:\n  {}",
        knobs.len(),
        knobs.join("\n  ")
    );
}
