//! Argument errors exit 2 before any kernel runs.
//!
//! Both binaries reject a malformed command line up front with a
//! diagnostic that names the offending flag and exit code 2, distinct
//! from exit 1 for a failed check or measurement. Report cases add
//! `--list-scenarios` and serve cases get an empty stdin, so a
//! regression that accepts the arguments finishes fast (exit 0)
//! instead of running a campaign.

use std::process::{Command, Stdio};

/// Run a binary with `args` and no stdin; require exit 2, empty
/// stdout, and a stderr diagnostic containing `needle`.
fn assert_rejected(bin: &str, args: &[&str], needle: &str) {
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} must exit 2:\n{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} must print nothing on stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains(needle),
        "{bin} {args:?}: diagnostic must mention `{needle}`:\n{stderr}"
    );
}

const REPORT: &str = env!("CARGO_BIN_EXE_swan-report");
const SERVE: &str = env!("CARGO_BIN_EXE_swan-serve");

#[test]
fn scale_must_be_finite_and_positive() {
    for bad in ["inf", "nan", "0", "-1"] {
        assert_rejected(REPORT, &["--scale", bad, "--list-scenarios"], "--scale");
        assert_rejected(SERVE, &["--scale", bad], "--scale");
    }
}

#[test]
fn resume_without_checkpoint_is_rejected() {
    assert_rejected(
        REPORT,
        &["--resume", "--list-scenarios"],
        "unrecognized flag `--resume`",
    );
}

#[test]
fn worker_index_must_be_below_shard_count() {
    assert_rejected(
        REPORT,
        &[
            "--checkpoint",
            "unused",
            "--worker",
            "3/3",
            "--list-scenarios",
        ],
        "invalid --worker spec",
    );
}

#[test]
fn serve_pipe_and_socket_are_exclusive() {
    assert_rejected(SERVE, &["--pipe", "--socket", "x"], "mutually exclusive");
}
