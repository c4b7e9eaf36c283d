//! The one lexical scanner behind the repository's structural tests
//! (`api_surface.rs`, `dep_graph.rs`) and `scripts/api-unused.sh`: which
//! files there are, which of their lines are not test code, what a crate
//! declares `pub`, and which of those declarations no file outside the
//! crate names. It reads text, not the compiler's view — a drift detector
//! and a search for candidates, never a proof.

// Each test crate that includes this module uses part of it.
#![allow(dead_code)]

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The crates other crates build on, whose surface
/// `tests/golden/api_surface.txt` pins, as (package name, package
/// directory).
pub const CRATES: [(&str, &str); 9] = [
    ("nob-core", "crates/core"),
    ("nob-store", "crates/store"),
    ("nob-server", "crates/server"),
    ("nob-repl", "crates/repl"),
    ("nob-ext4", "crates/ext4"),
    ("nob-sim", "crates/sim"),
    ("nob-trace", "crates/trace"),
    ("nob-metrics", "crates/metrics"),
    ("nob-ssd", "crates/ssd"),
];

/// The pinned crates' names as prose: "a, b and c".
pub fn crate_list() -> String {
    let names: Vec<&str> = CRATES.iter().map(|(name, _)| *name).collect();
    match names.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} and {last}", rest.join(", ")),
        _ => names.concat(),
    }
}

pub fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// All `.rs` files under `dir`, sorted (stable) order.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|x| x == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

fn brace_delta(line: &str) -> i64 {
    line.matches('{').count() as i64 - line.matches('}').count() as i64
}

/// The numbered lines of `source` outside `#[cfg(test)]` items and `//`
/// comments: the attribute skips the item after it (further attributes
/// may sit between the two), to the `;` or the brace that closes it.
pub fn non_test_lines(source: &str) -> Vec<(usize, &str)> {
    let (mut out, mut skipping, mut depth) = (Vec::new(), false, 0);
    for (n, line) in source.lines().enumerate() {
        let mut trimmed = line.trim();
        if !skipping {
            match trimmed.strip_prefix("#[cfg(test)]") {
                Some(rest) => (skipping, depth, trimmed) = (true, 0, rest.trim()),
                None => {
                    if !trimmed.starts_with("//") {
                        out.push((n + 1, line));
                    }
                    continue;
                }
            }
            if trimmed.is_empty() {
                continue;
            }
        }
        depth += brace_delta(trimmed);
        skipping = depth > 0 || !(trimmed.ends_with(';') || trimmed.ends_with('}'));
    }
    out
}

/// Whether `ident` occurs in `line` as a whole identifier.
pub fn names(line: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices(ident).any(|(i, _)| {
        !line[..i].chars().next_back().is_some_and(is_ident)
            && !line[i + ident.len()..].chars().next().is_some_and(is_ident)
    })
}

/// The identifiers of `text`, in order.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// What kind of declaration a trimmed line begins, if any. `pub(…)`
/// restricted visibility is excluded — it is not part of the external
/// surface.
#[derive(PartialEq)]
enum Decl {
    /// An item (`pub fn` …): the signature may span lines and ends at
    /// its body brace or semicolon.
    Item,
    /// A public struct field: always one line, ends with the line.
    Field,
}

const ITEM_KEYWORDS: [&str; 10] = [
    "fn ",
    "struct ",
    "enum ",
    "trait ",
    "const ",
    "static ",
    "type ",
    "mod ",
    "use ",
    "unsafe fn ",
];

fn classify(line: &str) -> Option<Decl> {
    let rest = line.strip_prefix("pub ")?;
    if ITEM_KEYWORDS.iter().any(|kw| rest.starts_with(kw)) {
        return Some(Decl::Item);
    }
    // A public struct field: `pub name: Type,` — the ident directly
    // followed by a colon (never the case for item keywords above).
    let ident: String =
        rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    (!ident.is_empty()
        && rest[ident.len()..].starts_with(':')
        && !rest[ident.len()..].starts_with("::"))
    .then_some(Decl::Field)
}

/// Collapses runs of whitespace so a reformat alone never shows as drift.
fn normalize(sig: &str) -> String {
    let mut out = String::with_capacity(sig.len());
    let mut last_space = false;
    for c in sig.chars() {
        if c.is_whitespace() {
            if !last_space && !out.is_empty() {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out.trim_end_matches([',', ' ']).to_string()
}

/// The `pub` declarations of one source file outside `#[cfg(test)]`
/// items, each signature truncated at its body.
pub fn declarations(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut sig: Option<String> = None;
    for (_, raw) in non_test_lines(src) {
        let line = raw.trim();
        if sig.is_none() {
            match classify(line) {
                Some(Decl::Field) => {
                    out.push(normalize(line));
                    continue;
                }
                Some(Decl::Item) => sig = Some(String::new()),
                None => continue,
            }
        }
        if let Some(acc) = sig.as_mut() {
            if !acc.is_empty() {
                acc.push(' ');
            }
            acc.push_str(line);
            // A signature ends at its body brace or semicolon; `pub use`
            // lists contain braces and end at the semicolon instead.
            let is_use = acc.starts_with("pub use ");
            let done =
                if is_use { acc.contains(';') } else { acc.contains('{') || acc.contains(';') };
            if done {
                let cut = if is_use {
                    acc.find(';').map(|i| i + 1).unwrap_or(acc.len())
                } else {
                    acc.find(['{', ';']).unwrap_or(acc.len())
                };
                out.push(normalize(&acc[..cut]));
                sig = None;
            }
        }
    }
    out
}

/// The names a declaration line makes public: the item's or field's
/// identifier, or each leaf (or alias) a `pub use` re-exports. A glob
/// re-export names nothing.
pub fn declared_names(decl: &str) -> Vec<&str> {
    let rest = decl.strip_prefix("pub ").unwrap_or(decl);
    if let Some(path) = rest.strip_prefix("use ") {
        let leaves = path.trim_end_matches(';').split(['{', '}', ',']).map(str::trim);
        return leaves
            .filter(|leaf| !leaf.ends_with("::"))
            .filter_map(|leaf| identifiers(leaf).last())
            .filter(|name| *name != "self")
            .collect();
    }
    const QUALIFIERS: [&str; 10] =
        ["fn", "struct", "enum", "trait", "const", "static", "type", "mod", "unsafe", "mut"];
    identifiers(rest).find(|w| !QUALIFIERS.contains(w)).into_iter().collect()
}

/// The settable values `source` declares outside test code, as
/// `Struct.field`: every `pub` field of a `pub struct` named `*Options` or
/// `*Config`, or of `CpuCosts`.
pub fn knobs(source: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut within: Option<&str> = None;
    for (_, raw) in non_test_lines(source) {
        let line = raw.trim();
        if let Some(name) = within {
            if line.starts_with('}') {
                within = None;
            } else if classify(line) == Some(Decl::Field) {
                out.extend(declared_names(line).first().map(|field| format!("{name}.{field}")));
            }
            continue;
        }
        let Some(name) = line.strip_prefix("pub struct ").and_then(|r| identifiers(r).next())
        else {
            continue;
        };
        let config = name.ends_with("Options") || name.ends_with("Config") || name == "CpuCosts";
        if config && line.ends_with('{') {
            within = Some(name);
        }
    }
    out
}

/// Lines of the doc-comment code blocks in `src`: the crate's doctests,
/// which exercise its public surface from outside the crate.
fn doctest_lines(src: &str) -> String {
    let mut code = String::new();
    let mut fenced = false;
    for line in src.lines() {
        let trimmed = line.trim_start();
        let Some(doc) = trimmed.strip_prefix("///").or_else(|| trimmed.strip_prefix("//!")) else {
            fenced = false;
            continue;
        };
        if doc.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            code.push_str(doc);
            code.push('\n');
        }
    }
    code
}

/// One source file, by its path relative to the repository root.
pub struct Source {
    pub path: PathBuf,
    pub text: String,
}

impl Source {
    fn read(path: &Path) -> Self {
        let text = std::fs::read_to_string(path).expect("source reads");
        Source { path: path.strip_prefix(root()).unwrap_or(path).to_path_buf(), text }
    }
}

/// The surface of one crate: its `pub` declarations as
/// `(file, declaration)`, in file order.
pub fn crate_surface(own: &[Source]) -> Vec<(&Path, String)> {
    own.iter()
        .flat_map(|s| declarations(&s.text).into_iter().map(move |d| (s.path.as_path(), d)))
        .collect()
}

/// The declarations of a crate (its `src/` files, `own`) that make public
/// a name no outside file and none of the crate's doctests mention — the
/// candidates for `pub(crate)` or deletion. Every line counts, comments and
/// strings too, so the search errs towards keeping a name.
pub fn unused(own: &[Source], outside: &[Source]) -> Vec<String> {
    let mut named: HashSet<&str> = outside.iter().flat_map(|s| identifiers(&s.text)).collect();
    let doctests: Vec<String> = own.iter().map(|s| doctest_lines(&s.text)).collect();
    named.extend(doctests.iter().flat_map(|d| identifiers(d)));
    let mut out = Vec::new();
    for (path, decl) in crate_surface(own) {
        for name in declared_names(&decl) {
            if !named.contains(name) {
                out.push(format!("{}: {decl}  [`{name}`]", path.display()));
            }
        }
    }
    out
}

/// Every Rust file a crate's users write: the other workspace crates (all
/// of them, tests included), the root package, `bench/ledger`, and the
/// crate's own integration tests, examples and benches.
fn outside_of(crate_dir: &str) -> Vec<Source> {
    let own_src = root().join(crate_dir).join("src");
    ["crates", "shims", "src", "tests", "examples", "bench"]
        .iter()
        .flat_map(|d| rust_files(&root().join(d)))
        .filter(|f| !f.starts_with(&own_src))
        .map(|f| Source::read(&f))
        .collect()
}

/// The `src/` files of a crate.
pub fn sources_of(crate_dir: &str) -> Vec<Source> {
    rust_files(&root().join(crate_dir).join("src")).iter().map(|f| Source::read(f)).collect()
}

/// The candidates of every pinned crate, under a `== crate ==` heading
/// each; an empty crate prints its heading only.
pub fn unused_candidates() -> String {
    let mut doc = String::new();
    for (label, dir) in CRATES {
        let found = unused(&sources_of(dir), &outside_of(dir));
        let _ = writeln!(doc, "== {label} ({} candidates) ==", found.len());
        for line in &found {
            let _ = writeln!(doc, "{line}");
        }
    }
    doc
}

/// The full surface document of the pinned crates.
pub fn surface() -> String {
    let mut doc = format!(
        "# Rustdoc-visible surface of {}.\n\
         # Regenerate with: NOB_BLESS=1 cargo test --test api_surface\n",
        crate_list()
    );
    for (label, dir) in CRATES {
        let _ = writeln!(doc, "\n== {label} ==");
        let own = sources_of(dir);
        let mut current: Option<&Path> = None;
        for (path, decl) in crate_surface(&own) {
            if current != Some(path) {
                let _ = writeln!(doc, "\n-- {} --", path.display());
                current = Some(path);
            }
            let _ = writeln!(doc, "{decl}");
        }
    }
    doc
}
