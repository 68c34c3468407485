//! CLI smoke tests for the `qbf2_solve` front-end, pinning the
//! `--max-iters` argument validation (a bad or missing value must be a
//! usage error, not a silently uncapped solve).

use std::process::Command;

fn qbf2_solve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qbf2_solve"))
}

/// `∀x ∃y. (x ∨ y) ∧ (¬x ∨ y)` — true (y = 1).
fn tmp_qdimacs(tag: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let path = dir.join(format!("qbf2_cli_{tag}.qdimacs"));
    std::fs::write(&path, "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 2 0\n").expect("write qdimacs");
    path
}

#[test]
fn bad_max_iters_value_is_a_usage_error() {
    let path = tmp_qdimacs("bad");
    for bad in ["abc", "-3", "1.5", ""] {
        let out = qbf2_solve()
            .arg(&path)
            .args(["--max-iters", bad])
            .output()
            .expect("spawn qbf2_solve");
        assert_eq!(out.status.code(), Some(2), "--max-iters {bad:?}");
        assert!(out.stdout.is_empty(), "no verdict for {bad:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("--max-iters") && err.contains("usage:"),
            "stderr for {bad:?}: {err}"
        );
    }
}

#[test]
fn missing_max_iters_value_is_a_usage_error() {
    let path = tmp_qdimacs("missing");
    let out = qbf2_solve()
        .arg(&path)
        .arg("--max-iters")
        .output()
        .expect("spawn qbf2_solve");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no verdict");
}

#[test]
fn good_max_iters_value_still_solves() {
    let path = tmp_qdimacs("good");
    let out = qbf2_solve()
        .arg(&path)
        .args(["--max-iters", "100"])
        .output()
        .expect("spawn qbf2_solve");
    // Exit 10 = true, the QDIMACS convention.
    assert_eq!(out.status.code(), Some(10), "stderr: {:?}", out.stderr);
    assert_eq!(String::from_utf8(out.stdout).unwrap(), "s cnf 1\n");
}
