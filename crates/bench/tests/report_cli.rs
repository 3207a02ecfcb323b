//! Command-line handling of the `report` binary: a malformed invocation
//! exits 2 with the usage line before any workload runs, instead of
//! silently falling back to a default.

use std::process::Command;

/// Runs `report` with `args`; returns the exit code, stdout and stderr.
fn report(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str], message: &str) {
    let (code, stdout, stderr) = report(args);
    assert_eq!(code, 2, "{args:?}: stderr was {stderr}");
    assert!(stdout.is_empty(), "{args:?}: stdout was {stdout}");
    assert!(stderr.contains(message), "{args:?}: stderr was {stderr}");
    assert!(
        stderr.contains("usage: report"),
        "{args:?}: stderr was {stderr}"
    );
}

#[test]
fn flag_without_value_exits_2_with_usage() {
    assert_usage_error(&["--smoke", "--tolerance"], "`--tolerance` expects a value");
    assert_usage_error(&["--smoke", "--baseline"], "`--baseline` expects a value");
    assert_usage_error(&["--smoke", "--only"], "`--only` expects a value");
    assert_usage_error(
        &["--smoke", "--baseline", "--tolerance", "0.1"],
        "`--baseline` expects a value",
    );
    assert_usage_error(&["--bench5", "--out"], "`--out` expects a value");
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    assert_usage_error(
        &["--smoke", "--tolerence", "0.1"],
        "unknown argument `--tolerence` after `--smoke`",
    );
    assert_usage_error(
        &["--smoke", "BENCH_5.json"],
        "unknown argument `BENCH_5.json`",
    );
    assert_usage_error(&["--bench5", "--only", "x"], "unknown argument `--only`");
    assert_usage_error(&["--full"], "unknown flag `--full`");
}

#[test]
fn repeated_flag_exits_2_with_usage() {
    assert_usage_error(
        &["--bench5", "--out", "a", "--out", "b"],
        "`--out` given twice",
    );
}
