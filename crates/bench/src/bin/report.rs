//! Consolidates every result JSON under `target/nob-results/` into one
//! markdown report (`target/nob-results/REPORT.md`): the tables of every
//! sweep document `fig` wrote there — the paper's figures, the
//! extensions, and the crash and failover sweeps.
//!
//! Usage: run `fig` first, then `report`. Exits 1 if any file could not
//! be rendered — a renderer that fell behind a schema must fail CI, not
//! shrink the report.

fn main() {
    let dir = std::path::Path::new("target/nob-results");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_else(|_| Vec::new());
    paths.sort();
    if paths.is_empty() {
        eprintln!("no results in {}; run the figure binaries first", dir.display());
        std::process::exit(1);
    }
    let mut out = String::from("# NobLSM reproduction — consolidated results\n\n");
    let mut skipped = 0;
    for path in &paths {
        let section = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| nob_sim::json::Json::parse(&text).ok_or("unparseable".to_string()))
            .and_then(|doc| nob_bench::report::render(&doc).ok_or("unexpected schema".into()));
        match section {
            Ok(section) => out.push_str(&section),
            Err(why) => {
                skipped += 1;
                eprintln!("cannot render {} ({why})", path.display());
            }
        }
    }
    let target = dir.join("REPORT.md");
    std::fs::write(&target, &out).expect("write report");
    println!("wrote {} ({} experiments)", target.display(), paths.len() - skipped);
    if skipped > 0 {
        eprintln!("report: {skipped} file(s) could not be rendered");
        std::process::exit(1);
    }
}
