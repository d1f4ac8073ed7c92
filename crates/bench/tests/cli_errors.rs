//! Malformed command lines must fail cleanly: the `experiments`,
//! `shard` and `trace-tool` binaries print their usage line to stderr and
//! exit with code 2, and never panic. A malformed trace file is a typed
//! parse error with exit code 1.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("could not run {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} should exit 2; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?} printed no usage line:\n{stderr}"
    );
}

#[test]
fn experiments_rejects_bad_flags_without_panicking() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    for args in [
        &["fig11", "--shards", "abc"][..],
        &["fig11", "--shards", "0"],
        &["fig11", "--shards", "-3"],
        &["fig11", "--shards", "1025"],
        &["fig11", "--shards", "18446744073709551615"],
        &["fig11", "--shards"],
        &["fig11", "--out"],
        &["fig11", "--threads", "2"],
        &["--bogus"],
        &[],
    ] {
        assert_usage_error(bin, args);
    }
}

#[test]
fn experiments_usage_lists_shards() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .output()
        .expect("experiments runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--shards N"),
        "usage omits --shards:\n{stderr}"
    );
}

#[test]
fn shard_rejects_bad_flags_without_panicking() {
    let bin = env!("CARGO_BIN_EXE_shard");
    for args in [
        &["--out"][..],
        &["--quick", "--out"],
        &["--shards", "2"],
        &["--hist", "h.json"],
        &["--bogus"],
    ] {
        assert_usage_error(bin, args);
    }
}

#[test]
fn trace_tool_rejects_bad_flags_without_panicking() {
    let bin = env!("CARGO_BIN_EXE_trace-tool");
    for args in [
        &["gen", "campus", "--seed", "abc"][..],
        &["gen", "campus", "--seed", "-1"],
        &["gen", "campus", "--seed"],
        &["gen", "campus", "--out"],
        &["predict", "campus", "--max-k", "abc"],
        &["predict", "campus", "--max-k", "0"],
        &["predict", "campus", "--max-k", "99"],
        &["predict", "campus", "--max-k"],
        &["validate"],
        &["bogus"],
        &[],
    ] {
        assert_usage_error(bin, args);
    }
}

#[test]
fn trace_tool_validate_reports_bad_files_without_panicking() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_errors_traces");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let bin = env!("CARGO_BIN_EXE_trace-tool");
    for (i, text) in [
        "not a trace\n",
        "dtn-trace v1\nnodes 1\nlandmarks 1\npos 0 0 0\nv 0 70000 0 10\n",
        "dtn-trace v1\nnodes 1\nlandmarks 1\npos 0 0 0\nv 8589934592 0 0 10\n",
        "dtn-trace v1\nlandmarks 18446744073709551615\n",
        "dtn-trace v1\nnodes 99999999999\n",
        "dtn-trace v1\nnodes 1\nlandmarks 2\npos 0 0 0\n",
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("bad{i}.trace"));
        std::fs::write(&path, text).expect("write bad trace");
        for sub in ["validate", "stats"] {
            let out = Command::new(bin)
                .arg(sub)
                .arg(&path)
                .output()
                .expect("trace-tool runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{sub} {text:?}: {stderr}");
            assert!(
                !stderr.contains("panicked"),
                "{sub} {text:?} panicked:\n{stderr}"
            );
        }
    }
}
