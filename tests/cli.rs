//! `ned-cli` as a process: flag checking and a closed stdout.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const CLI: &str = env!("CARGO_BIN_EXE_ned-cli");

/// Fresh scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ned-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A path graph on `n` nodes as an edge list.
fn path_graph(dir: &Path, n: usize) -> PathBuf {
    let edges: String = (1..n).map(|v| format!("{} {v}\n", v - 1)).collect();
    let path = dir.join("path.edges");
    std::fs::write(&path, edges).expect("write graph");
    path
}

#[test]
fn an_unknown_flag_fails_before_any_side_effect() {
    let dir = scratch("flags");
    let graph = path_graph(&dir, 20);
    let out = dir.join("x.idx");
    let run = |args: &[&str]| Command::new(CLI).args(args).output().expect("run ned-cli");

    let bogus = run(&[
        "index",
        "build",
        out.to_str().unwrap(),
        graph.to_str().unwrap(),
        "--bogus",
        "1",
    ]);
    assert!(!bogus.status.success());
    let stderr = String::from_utf8_lossy(&bogus.stderr);
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
    assert!(!out.exists(), "the index must not be built");

    // A retired flag no longer swallows the positional after it.
    let retired = run(&[
        "index",
        "build",
        "--per-node",
        out.to_str().unwrap(),
        graph.to_str().unwrap(),
    ]);
    assert!(!retired.status.success());
    let stderr = String::from_utf8_lossy(&retired.stderr);
    assert!(stderr.contains("unknown flag --per-node"), "{stderr}");
    assert!(!out.exists());

    let ok = run(&[
        "index",
        "build",
        out.to_str().unwrap(),
        graph.to_str().unwrap(),
        "--k",
        "2",
    ]);
    assert!(ok.status.success(), "{ok:?}");
    assert!(out.exists());

    // The retired sketch-mode flag: refused before a query runs or a
    // server boots (no WAL created, no checkpoint rewriting the index).
    let before = std::fs::read(&out).expect("read index");
    let wal = dir.join("x.wal");
    let (idx, g) = (out.to_str().unwrap(), graph.to_str().unwrap());
    for args in [
        &["index", "query", idx, g, "0", "--sketch", "approx"][..],
        &[
            "serve",
            idx,
            "--wal",
            wal.to_str().unwrap(),
            "--sketch",
            "exact",
        ][..],
    ] {
        let refused = run(args);
        assert!(!refused.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(
            stderr.contains("unknown flag --sketch"),
            "{args:?}: {stderr}"
        );
        assert!(refused.stdout.is_empty(), "{args:?}: {refused:?}");
        assert!(!wal.exists(), "{args:?}");
        assert_eq!(std::fs::read(&out).expect("read index"), before, "{args:?}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_closed_stdout_ends_a_command_quietly() {
    let dir = scratch("pipe");
    let graph = path_graph(&dir, 6000);
    let g = graph.to_str().unwrap();
    // Thousands of result lines: far more than a pipe buffer holds, so
    // the command writes into the closed pipe whatever the timing.
    let mut child = Command::new(CLI)
        .args(["knn", g, "0", g, "--k", "1", "--top", "6000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ned-cli");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait");
    assert_ne!(out.status.code(), Some(101), "panicked: {out:?}");
    assert!(out.status.success(), "{out:?}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_closed_stdout_ends_the_repl_and_serve_still_checkpoints() {
    let dir = scratch("repl");
    let graph = path_graph(&dir, 30);
    let idx = dir.join("g.idx");
    let wal = dir.join("g.wal");
    let build = Command::new(CLI)
        .args([
            "index",
            "build",
            idx.to_str().unwrap(),
            graph.to_str().unwrap(),
        ])
        .output()
        .expect("build");
    assert!(build.status.success(), "{build:?}");

    let mut child = Command::new(CLI)
        .args([
            "serve",
            idx.to_str().unwrap(),
            "--wal",
            wal.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    drop(child.stdout.take());
    // The write is journaled, then its reply cannot be written: the
    // REPL ends as on `quit`, and the final checkpoint folds the write
    // into the index file.
    let mut stdin = child.stdin.take().expect("stdin");
    stdin
        .write_all(b"addsig (()())\nstats\n")
        .expect("send commands");
    drop(stdin);
    let out = child.wait_with_output().expect("wait");
    assert_ne!(out.status.code(), Some(101), "panicked: {out:?}");
    assert!(out.status.success(), "{out:?}");
    let index = ned::index::SignatureIndex::load(&idx).expect("load checkpoint");
    assert_eq!(
        index.len(),
        31,
        "the acknowledged write reached the checkpoint"
    );
    let _ = std::fs::remove_dir_all(dir);
}
