//! `noblsm-cli` as a process: `serve` on a real loopback socket, a script
//! that `connect`s to it, and the usage errors of its flags.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_noblsm-cli");

#[test]
fn a_script_connects_to_a_served_store() {
    let mut server = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0", "--shards", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("start the server");
    let mut stdout = BufReader::new(server.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("the serving banner");
    // "serving 2 shard(s) on <addr>; press Enter to stop"
    let addr = banner
        .split_once(" on ")
        .and_then(|(_, rest)| rest.split_once(';'))
        .map(|(addr, _)| addr.to_string())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));

    let dir = std::env::temp_dir().join(format!("nob-cli-binary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("client.txt");
    std::fs::write(
        &script,
        format!("connect {addr}\nset a 1\nset b 2\nget a\nscan \"\" \"\" 10\ninfo\n"),
    )
    .unwrap();
    let run = Command::new(BIN).arg(&script).output().expect("run the script");
    let _ = std::fs::remove_dir_all(&dir);
    let out = String::from_utf8_lossy(&run.stdout);
    println!("{out}");
    assert!(run.status.success(), "{out}");
    assert!(!out.contains("error:"), "{out}");
    assert!(out.starts_with(&format!("connected to {addr}\nOK\nOK\n\"1\"\n")), "{out}");
    assert!(out.contains("1) (integer) 0\n2) 1) \"a\"\n   2) \"1\"\n   3) \"b\"\n"), "{out}");
    assert!(out.contains("requests_write:2\n"), "the server counted both SETs: {out}");
    assert!(out.contains("# shard1\n"), "{out}");

    server.stdin.take().expect("piped stdin").write_all(b"\n").expect("stop the server");
    let mut rest = String::new();
    for line in stdout.lines() {
        rest.push_str(&line.expect("server output"));
        rest.push('\n');
    }
    assert!(server.wait().expect("server exit").success(), "{rest}");
    assert!(rest.contains("drained: 2 groups for 2 batches"), "{rest}");
}

#[test]
fn a_bad_flag_value_is_a_usage_error() {
    for args in
        [&["serve", "--shards", "many"][..], &["bench-net", "--ops", "4k"], &["serve", "--addr"]]
    {
        let run = Command::new(BIN).args(args).stdin(Stdio::null()).output().expect("run");
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(args[1]), "the message names the flag: {err}");
    }
}
