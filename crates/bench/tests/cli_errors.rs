//! Malformed command lines must fail cleanly: the `experiments` and
//! `shard` binaries print their usage line to stderr and exit with code
//! 2, and never panic.

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
