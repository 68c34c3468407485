//! Smoke tests pinning the `step` binary's command-line surface: the
//! usage text, a basic end-to-end decomposition run, and the QDIMACS
//! emission mode.

use std::path::PathBuf;
use std::process::{Command, Output};

use qbf_bidec::aig::bench_io;
use qbf_bidec::circuits::{registry_table1, Scale};

fn step() -> Command {
    Command::new(env!("CARGO_BIN_EXE_step"))
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("spawn step binary")
}

/// `(a & b) | (c & d)`: disjointly OR-decomposable, written to a
/// uniquely-named BENCH file under the target tmp dir.
fn write_or_of_ands(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let path = dir.join(format!("cli_smoke_{tag}.bench"));
    std::fs::write(
        &path,
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\n\
         OUTPUT(f)\n\
         t1 = AND(a, b)\nt2 = AND(c, d)\nf = OR(t1, t2)\n",
    )
    .expect("write bench file");
    path
}

#[test]
fn help_prints_usage_to_stdout_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = run(step().arg(flag));
        assert_eq!(out.status.code(), Some(0), "step {flag} exit code");
        let usage = String::from_utf8(out.stdout).unwrap();
        assert!(usage.contains("usage: step"), "usage header: {usage}");
        // Pin the advertised option surface.
        for opt in [
            "--model",
            "--op",
            "--weights",
            "--output",
            "--jobs",
            "--progress",
            "--seed",
            "--cache",
            "--no-cache",
            "--cache-cap",
            "--cache-dir",
            "cache stats",
            "--no-timing",
            "--emit-qdimacs",
            "--emit-blif",
            "--budget",
            "--circuit-budget",
            "--qbf-budget",
            "work:",
        ] {
            assert!(usage.contains(opt), "usage must mention {opt}: {usage}");
        }
    }
}

#[test]
fn no_arguments_is_an_error() {
    let out = run(&mut step());
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flag_is_an_error() {
    let out = run(step().arg("--frobnicate"));
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_file_reports_error() {
    let out = run(step().arg("/nonexistent/not_here.bench"));
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error"), "stderr: {err}");
}

#[test]
fn decomposes_a_bench_circuit() {
    let path = write_or_of_ands("decompose");
    let out = run(step().arg(&path).args(["--model", "qd", "--op", "or"]));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("4 inputs, 1 outputs"),
        "circuit banner: {text}"
    );
    // (a&b)|(c&d) splits {a,b} | {c,d} with an empty shared set.
    assert!(text.contains("output"), "table header: {text}");
    let row = text
        .lines()
        .find(|l| l.starts_with('f') || l.contains("f "))
        .unwrap_or_else(|| panic!("row for output f in: {text}"));
    assert!(row.contains('2'), "|XA|=|XB|=2 in: {row}");
}

/// A two-output circuit: `f = (a&b)|(c&d)` and `g = (a&c)|(b&d)`.
fn write_two_outputs(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let path = dir.join(format!("cli_smoke_{tag}.bench"));
    std::fs::write(
        &path,
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\n\
         OUTPUT(f)\nOUTPUT(g)\n\
         t1 = AND(a, b)\nt2 = AND(c, d)\nf = OR(t1, t2)\n\
         u1 = AND(a, c)\nu2 = AND(b, d)\ng = OR(u1, u2)\n",
    )
    .expect("write bench file");
    path
}

#[test]
fn jobs_flag_is_output_stable() {
    let path = write_two_outputs("jobs");
    let run_with = |jobs: &str| -> String {
        let out = run(step()
            .arg(&path)
            .args(["--model", "qd", "--no-timing", "--jobs", jobs]));
        assert!(out.status.success(), "stderr: {:?}", out.stderr);
        String::from_utf8(out.stdout).unwrap()
    };
    let one = run_with("1");
    let four = run_with("4");
    assert_eq!(one, four, "--jobs must not change per-output results");
    assert!(
        one.contains("decomposed 2 output function(s)"),
        "both outputs decompose: {one}"
    );
    // --no-timing replaces the cpu cell with `-`.
    assert!(one.contains(" -"), "stable cpu cell: {one}");
}

#[test]
fn progress_streams_on_stderr_and_leaves_stdout_identical() {
    // --progress narrates one line per output on stderr (completion
    // order) through the service handle; the stdout table must stay
    // byte-identical to a non-progress run under --no-timing.
    let path = write_two_outputs("progress");
    let plain = run(step().arg(&path).args(["--model", "qd", "--no-timing"]));
    assert!(plain.status.success(), "stderr: {:?}", plain.stderr);
    let streamed =
        run(step()
            .arg(&path)
            .args(["--model", "qd", "--no-timing", "--jobs", "2", "--progress"]));
    assert!(streamed.status.success(), "stderr: {:?}", streamed.stderr);
    assert_eq!(
        String::from_utf8(plain.stdout).unwrap(),
        String::from_utf8(streamed.stdout).unwrap(),
        "--progress must not change the stdout table"
    );
    let err = String::from_utf8(streamed.stderr).unwrap();
    let progress: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("progress: "))
        .collect();
    assert_eq!(progress.len(), 2, "one line per output: {err}");
    assert!(
        progress.iter().any(|l| l.contains("/2 f decomposed"))
            && progress.iter().any(|l| l.contains("/2 g decomposed")),
        "named verdict lines: {err}"
    );
}

#[test]
fn bad_jobs_value_is_an_error() {
    let path = write_two_outputs("badjobs");
    for bad in ["0", "many", ""] {
        let out = run(step().arg(&path).args(["--jobs", bad]));
        assert_eq!(out.status.code(), Some(2), "--jobs {bad:?}");
    }
}

/// Every front end follows one exit convention: `--help` prints its own
/// usage on stdout and exits 0; a bad `--jobs` value, or a bare
/// trailing `--jobs`, prints `--jobs: <why>` and its own usage on
/// stderr and exits 2 (`step client` has no `--jobs`, so there the why
/// is "unknown option").
#[test]
fn front_ends_share_the_help_and_usage_error_convention() {
    let path = write_two_outputs("frontends");
    let path = path.to_str().unwrap();
    let front_ends: [(&[&str], &str); 4] = [
        (&[path], "usage: step <circuit"),
        (&["synthesize", path], "usage: step synthesize "),
        (&["serve"], "usage: step serve "),
        (&["client", "127.0.0.1:9", path], "usage: step client "),
    ];
    for (prefix, usage) in front_ends {
        for help in ["--help", "-h"] {
            let out = run(step().args(prefix).arg(help));
            assert_eq!(out.status.code(), Some(0), "{prefix:?} {help}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(stdout.starts_with(usage), "{prefix:?} {help}: {stdout}");
        }
        // A bad value is refused before any work starts: `step client`
        // checks the budget specs it forwards before it connects.
        for bad in [&["--jobs", "0"][..], &["--jobs"], &["--budget", "60"]] {
            let out = run(step().args(prefix).args(bad));
            assert_eq!(out.status.code(), Some(2), "{prefix:?} {bad:?}");
            assert!(
                out.stdout.is_empty(),
                "{prefix:?} {bad:?}: nothing on stdout"
            );
            let stderr = String::from_utf8(out.stderr).unwrap();
            let mut lines = stderr.lines();
            let why = lines.next().unwrap_or_default();
            assert!(
                why.starts_with(&format!("{}: ", bad[0])),
                "{prefix:?} {bad:?}: {stderr}"
            );
            assert!(
                lines.next().is_some_and(|l| l.starts_with(usage)),
                "{prefix:?} {bad:?}: {stderr}"
            );
        }
    }
}

#[test]
fn seed_flag_parses_and_runs() {
    let path = write_two_outputs("seed");
    let out = run(step().arg(&path).args(["--model", "mg", "--seed", "12345"]));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let out = run(step().arg(&path).args(["--seed", "nope"]));
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cache_flags_report_stats_and_never_change_output() {
    // f and g in the fixture are permuted-input twins, so the default
    // cache serves g from f's entry and says so on the stats line.
    let path = write_two_outputs("cache");
    let out = run(step().arg(&path).args(["--model", "qd"]));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("cache: 1 hits, 1 misses, 1 inserts"),
        "twin cones must hit: {text}"
    );

    // The stats line hides with the timing cells, and the cache can
    // only change work done, never answers: --cache and --no-cache are
    // byte-identical under --no-timing.
    let stable = |flag: &str| -> String {
        let out = run(step()
            .arg(&path)
            .args(["--model", "qd", "--no-timing", flag]));
        assert!(out.status.success(), "stderr: {:?}", out.stderr);
        String::from_utf8(out.stdout).unwrap()
    };
    let cached = stable("--cache");
    let cold = stable("--no-cache");
    assert!(!cached.contains("cache:"), "stats hidden: {cached}");
    assert_eq!(cached, cold, "--cache must not change per-output results");

    // --cache-cap parses (and bad values are usage errors).
    let out = run(step()
        .arg(&path)
        .args(["--model", "qd", "--cache-cap", "64"]));
    assert!(out.status.success());
    let out = run(step().arg(&path).args(["--cache-cap", "0"]));
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn budget_flags_parse_and_malformed_values_exit_2_with_usage() {
    let path = write_two_outputs("budget");
    // Well-formed specs in every shape run fine.
    for spec in ["wall:60s", "work:200k", "both:60s,200k", "unlimited"] {
        let out = run(step().arg(&path).args(["--model", "mg", "--budget", spec]));
        assert!(out.status.success(), "--budget {spec}: {:?}", out.stderr);
    }
    let out = run(step()
        .arg(&path)
        .args(["--model", "mg", "--circuit-budget", "work:1m"]));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let out = run(step()
        .arg(&path)
        .args(["--model", "qd", "--qbf-budget", "both:500ms,10k"]));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);

    // Malformed values exit 2 with the usage message — never a panic.
    for (flag, bad) in [
        ("--budget", "60"),
        ("--budget", "wall:"),
        ("--budget", "work:abc"),
        ("--budget", "both:4s"),
        ("--circuit-budget", "secs:4"),
        ("--qbf-budget", ""),
        ("--cache-cap", "lots"),
        ("--jobs", "-3"),
    ] {
        let out = run(step().arg(&path).args([flag, bad]));
        assert_eq!(out.status.code(), Some(2), "{flag} {bad:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("usage: step"),
            "{flag} {bad:?} must print usage: {err}"
        );
    }
    // A trailing flag with no value at all is the same usage error.
    for flag in ["--budget", "--circuit-budget", "--cache-cap", "--jobs"] {
        let out = run(step().arg(&path).arg(flag));
        assert_eq!(out.status.code(), Some(2), "bare {flag}");
    }
}

#[test]
fn work_budget_runs_are_byte_identical_across_jobs() {
    // The new determinism guarantee at the CLI surface: under a pure
    // work budget, stdout (with --no-timing) is byte-identical for any
    // --jobs value and cache mode — including which outputs truncate.
    let path = write_two_outputs("workdet");
    let run_with = |extra: &[&str]| -> String {
        let mut cmd = step();
        cmd.arg(&path)
            .args(["--model", "qd", "--no-timing", "--budget", "work:1"]);
        cmd.args(extra);
        let out = run(&mut cmd);
        assert!(out.status.success(), "stderr: {:?}", out.stderr);
        String::from_utf8(out.stdout).unwrap()
    };
    let base = run_with(&["--jobs", "1"]);
    assert_eq!(base, run_with(&["--jobs", "2"]), "jobs=2");
    assert_eq!(base, run_with(&["--jobs", "3"]), "jobs=3");
    assert_eq!(base, run_with(&["--jobs", "2", "--no-cache"]), "no-cache");
}

/// `--weights` runs STEP-QDB through the service like every other
/// model: the work budget binds (a row times out), `--jobs` changes
/// nothing, and the footer names the model that ran. An explicit other
/// `--model` is a usage error.
#[test]
fn weighted_runs_obey_the_work_budget_and_jobs() {
    let aig = registry_table1()[2].build(Scale::Default); // s38584.1
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_smoke_weights.bench");
    std::fs::write(&path, bench_io::write(&aig)).expect("write bench file");
    let run_with = |jobs: &str| -> String {
        let out = run(step().arg(&path).args([
            "--weights",
            "2",
            "1",
            "--budget",
            "work:10",
            "--no-timing",
            "--jobs",
            jobs,
        ]));
        assert!(out.status.success(), "stderr: {:?}", out.stderr);
        String::from_utf8(out.stdout).unwrap()
    };
    let base = run_with("1");
    assert!(base.contains(" timeout"), "the budget must bind: {base}");
    assert!(base.contains("with STEP-QDB"), "footer: {base}");
    assert_eq!(base, run_with("2"), "jobs=2");

    let out = run(step()
        .arg(&path)
        .args(["--weights", "2", "1", "--model", "qd"]));
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.lines().any(|l| l.starts_with("--weights:")),
        "one --weights: line: {err}"
    );
}

/// A fresh, empty directory under the target tmp dir.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_smoke_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

#[test]
fn bad_cache_dir_is_an_upfront_usage_error() {
    let path = write_two_outputs("badcachedir");
    let dir = tmp_dir("badcachedir");

    // A regular file where the directory should be.
    let file = dir.join("occupied");
    std::fs::write(&file, "not a directory").expect("write blocker file");
    let out = run(step()
        .arg(&path)
        .args(["--cache-dir", file.to_str().unwrap()]));
    assert_eq!(out.status.code(), Some(2), "regular file");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("not a directory") && err.contains("usage: step"),
        "why + usage on stderr: {err}"
    );
    // The run must not have started: an up-front check, not a
    // post-solve surprise.
    assert!(
        String::from_utf8(out.stdout).unwrap().is_empty(),
        "no output before the validation error"
    );

    // A path whose parent is a regular file cannot be created.
    let nested = file.join("sub");
    let out = run(step()
        .arg(&path)
        .args(["--cache-dir", nested.to_str().unwrap()]));
    assert_eq!(out.status.code(), Some(2), "uncreatable path");

    // A bare --cache-dir with no value is the usual usage error.
    let out = run(step().arg(&path).arg("--cache-dir"));
    assert_eq!(out.status.code(), Some(2), "bare --cache-dir");
}

#[test]
fn cache_subcommand_usage_errors_exit_2() {
    for bad in [
        vec!["cache"],
        vec!["cache", "frobnicate"],
        vec!["cache", "stats"],
        vec!["cache", "merge"],
        vec!["cache", "merge", "only-out"],
        vec!["cache", "verify"],
    ] {
        let out = run(step().args(&bad));
        assert_eq!(out.status.code(), Some(2), "step {bad:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("usage: step"), "step {bad:?}: {err}");
    }
}

#[test]
fn cache_dir_warms_a_second_run_byte_identically() {
    let path = write_two_outputs("warm");
    let dir = tmp_dir("warm");
    let run_with = |extra: &[&str]| -> String {
        let mut cmd = step();
        cmd.arg(&path).args([
            "--model",
            "qd",
            "--no-timing",
            "--cache-dir",
            dir.to_str().unwrap(),
        ]);
        cmd.args(extra);
        let out = run(&mut cmd);
        assert!(out.status.success(), "stderr: {:?}", out.stderr);
        String::from_utf8(out.stdout).unwrap()
    };
    let cold = run_with(&[]);
    let warm = run_with(&[]);
    assert_eq!(cold, warm, "a warm run must answer byte-identically");
    assert!(!warm.contains("store:"), "stats hidden under --no-timing");

    // With timing on, the warm run reports nonzero disk hits.
    let out = run(step()
        .arg(&path)
        .args(["--model", "qd", "--cache-dir", dir.to_str().unwrap()]));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = String::from_utf8(out.stdout).unwrap();
    let store_line = text
        .lines()
        .find(|l| l.starts_with("store:"))
        .unwrap_or_else(|| panic!("store stats line in: {text}"));
    assert!(
        !store_line.contains("disk hits 0 results"),
        "warm run serves results from disk: {store_line}"
    );

    // `step cache verify` agrees the store is healthy.
    let out = run(step().args(["cache", "verify", dir.to_str().unwrap()]));
    assert_eq!(out.status.code(), Some(0), "verify: {:?}", out.stderr);
    let ok = String::from_utf8(out.stdout).unwrap();
    assert!(ok.contains("ok"), "verify verdict: {ok}");
}

#[test]
fn cache_merge_pools_stores_and_serves_both_histories() {
    // Two runs with *different* result-relevant configs populate two
    // separate stores; the merged store warm-starts both configs.
    let path = write_two_outputs("merge");
    let a = tmp_dir("merge_a");
    let b = tmp_dir("merge_b");
    let pooled = tmp_dir("merge_pooled");
    let solve = |dir: &PathBuf, seed: &str| -> Output {
        run(step().arg(&path).args([
            "--model",
            "qd",
            "--seed",
            seed,
            "--cache-dir",
            dir.to_str().unwrap(),
        ]))
    };
    assert!(solve(&a, "1").status.success());
    assert!(solve(&b, "2").status.success());

    let out = run(step().args([
        "cache",
        "merge",
        pooled.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]));
    assert!(out.status.success(), "merge: {:?}", out.stderr);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("2 adopted"), "both inputs adopted: {text}");

    // Merging the same inputs again adopts nothing new (dedup by key).
    let out = run(step().args([
        "cache",
        "merge",
        pooled.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]));
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("0 adopted"), "idempotent merge: {text}");

    // The pooled store serves both seeds from disk.
    for seed in ["1", "2"] {
        let out = solve(&pooled, seed);
        assert!(out.status.success(), "seed {seed}: {:?}", out.stderr);
        let text = String::from_utf8(out.stdout).unwrap();
        let store_line = text
            .lines()
            .find(|l| l.starts_with("store:"))
            .unwrap_or_else(|| panic!("store stats line in: {text}"));
        assert!(
            !store_line.contains("disk hits 0 results"),
            "seed {seed} warm from the pooled store: {store_line}"
        );
    }
}

#[test]
fn emit_qdimacs_prints_a_3qbf_prefix() {
    let path = write_or_of_ands("qdimacs");
    let out = run(step().arg(&path).arg("--emit-qdimacs"));
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("p cnf "), "QDIMACS header in: {text}");
    assert!(text.contains("e ") && text.contains("a "), "prefix: {text}");
}
