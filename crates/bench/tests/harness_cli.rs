//! CLI smoke test for the harness binaries' `--help`: the option list
//! goes to stdout with exit 0, like every other front end's usage.

use std::process::Command;

#[test]
fn help_prints_the_options_on_stdout() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_table3"))
            .arg(flag)
            .output()
            .expect("spawn table3");
        assert_eq!(out.status.code(), Some(0), "table3 {flag}");
        let usage = String::from_utf8(out.stdout).unwrap();
        assert!(
            usage.starts_with("options: --scale") && usage.contains("--cache-dir <path>"),
            "usage on stdout: {usage:?}"
        );
        assert!(out.stderr.is_empty(), "nothing on stderr");
    }
}
