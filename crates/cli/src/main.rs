//! `noblsm-cli` — an interactive shell (or script runner) over the NobLSM
//! simulation, plus the network subcommands.
//!
//! ```sh
//! noblsm-cli                 # interactive
//! noblsm-cli script.txt      # run a command script; one that starts with
//!                            # `connect <addr>` is a client of a `serve`
//! noblsm-cli serve --addr 127.0.0.1:6380 --shards 4
//! noblsm-cli bench-net --clients 8 --ops 4000 [--addr host:port]
//! ```

use std::io::{BufRead, Write};

use nob_cli::Session;

/// Reads `--flag value` from an argument list, `None` if the flag is
/// absent. A missing or unparsable value is a usage error (exit 2).
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let value = args.get(args.iter().position(|a| a == name)? + 1);
    if let Some(parsed) = value.and_then(|v| v.parse().ok()) {
        return Some(parsed);
    }
    eprintln!("bad value for {name}: `{}`", value.map_or("", String::as_str));
    std::process::exit(2);
}

fn serve_cmd(args: &[String]) {
    let addr: String = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:6380".to_string());
    let shards: usize = flag(args, "--shards").unwrap_or(2);
    let server = nob_cli::net::serve(&addr, shards).unwrap_or_else(|e| {
        eprintln!("cannot serve on {addr}: {e}");
        std::process::exit(1);
    });
    println!("serving {shards} shard(s) on {}; press Enter to stop", server.local_addr());
    let mut line = String::new();
    let _ = std::io::stdin().lock().read_line(&mut line);
    match server.shutdown() {
        Ok(core) => {
            let stats = core.store().stats();
            println!("drained: {} groups for {} batches; goodbye", stats.groups, stats.batches);
        }
        Err(e) => {
            eprintln!("shutdown error: {e}");
            std::process::exit(1);
        }
    }
}

fn bench_net_cmd(args: &[String]) {
    let clients: usize = flag(args, "--clients").unwrap_or(8);
    let ops: u64 = flag(args, "--ops").unwrap_or(4_000);
    let value_size: usize = flag(args, "--value-size").unwrap_or(100);
    let addr: Option<String> = flag(args, "--addr");
    match nob_cli::net::bench_net(addr.as_deref(), clients, ops, value_size) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("bench-net failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut session = Session::new();
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("serve") => return serve_cmd(&args[2..]),
        Some("bench-net") => return bench_net_cmd(&args[2..]),
        _ => {}
    }
    if let Some(path) = args.get(1) {
        let script = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        print!("{}", session.run_script(&script));
        return;
    }
    println!("noblsm-cli — type `help` for commands, `quit` to exit");
    let stdin = std::io::stdin();
    loop {
        print!("> ");
        std::io::stdout().flush().expect("stdout");
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let trimmed = line.trim();
        if trimmed == "quit" || trimmed == "exit" {
            break;
        }
        print!("{}", session.run_line(trimmed));
    }
}
