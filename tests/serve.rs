//! End-to-end tests for the `step serve` network front-end: a served
//! run must print the same table an in-process run does, tenants must
//! be admitted or refused per their quotas, and a `shutdown` frame
//! must stop the server cleanly.
//!
//! Each test spawns the real `step` binary twice — once as the server
//! (`--addr 127.0.0.1:0`, port scraped from the contractual
//! `listening on <addr>` stdout line) and once per client request —
//! so the whole wire path (framing, admission, forwarding, reprint)
//! is exercised, not a shortcut through the library.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn step() -> Command {
    Command::new(env!("CARGO_BIN_EXE_step"))
}

/// A running `step serve` child whose port we scraped; killed on drop
/// so a failing test cannot leak the process.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns `step serve --addr 127.0.0.1:0 <extra>` and blocks until
    /// it prints the address it bound.
    fn spawn(extra: &[&str]) -> Server {
        let mut child = step()
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn step serve");
        let stdout = child.stdout.take().expect("server stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .to_owned();
        Server { child, addr }
    }

    /// Runs `step client <addr> <args>` against this server.
    fn client(&self, args: &[&str]) -> Output {
        step()
            .args(["client", &self.addr])
            .args(args)
            .output()
            .expect("spawn step client")
    }

    /// Sends the shutdown frame and waits for the server to exit 0.
    fn shutdown(mut self) {
        let out = self.client(&["--shutdown"]);
        assert_eq!(out.status.code(), Some(0), "shutdown client");
        let status = self.child.wait().expect("wait for server");
        assert_eq!(status.code(), Some(0), "server exit after shutdown");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Backstop for failing tests; `shutdown` already reaped it on
        // the happy path (kill on a reaped child is a no-op error).
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A two-output BENCH circuit (permuted-input twins), written under
/// the target tmp dir.
fn write_two_outputs(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let path = dir.join(format!("serve_{tag}.bench"));
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

/// Stdout of an in-process `step` run over the same file and flags.
fn local_run(path: &PathBuf, args: &[&str]) -> String {
    let out = step().arg(path).args(args).output().expect("local step");
    assert!(out.status.success(), "local run: {:?}", out.stderr);
    String::from_utf8(out.stdout).expect("local stdout")
}

#[test]
fn served_table_is_byte_identical_to_in_process() {
    let path = write_two_outputs("parity");
    let server = Server::spawn(&[]);
    let out = server.client(&[path.to_str().unwrap(), "--model", "qd", "--no-timing"]);
    assert!(out.status.success(), "client: {:?}", out.stderr);
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        local_run(&path, &["--model", "qd", "--no-timing"]),
        "served and in-process tables must match byte for byte"
    );
    server.shutdown();
}

#[test]
fn budget_truncation_travels_over_the_wire() {
    // A fresh server and the tight-budget request FIRST: the shared
    // result cache serves definitive answers under any budget, so a
    // warm server would (correctly) answer where a cold run truncates.
    let path = write_two_outputs("budget");
    let tight = &["--model", "qd", "--no-timing", "--budget", "work:1"];
    let server = Server::spawn(&[]);
    let out = server.client(&[&[path.to_str().unwrap()], &tight[..]].concat());
    assert!(out.status.success(), "client: {:?}", out.stderr);
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        local_run(&path, tight),
        "budget-induced timeouts must reproduce over the wire"
    );
    // The now-warm server still matches an unbudgeted local run.
    let full = &["--model", "qd", "--no-timing"];
    let out = server.client(&[&[path.to_str().unwrap()], &full[..]].concat());
    assert!(out.status.success(), "warm client: {:?}", out.stderr);
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        local_run(&path, full),
        "a warm cache changes cost, never answers"
    );
    server.shutdown();
}

#[test]
fn quotas_admit_and_refuse_per_tenant() {
    let path = write_two_outputs("quota");
    let circuit = path.to_str().unwrap();
    // Default quota 0; alice alone has headroom.
    let server = Server::spawn(&["--quota", "0", "--tenant-quota", "alice=1000000000"]);

    // Bob must go first: on the cold server the cost model still
    // prices these cones at its support-bucket prior, which a zero
    // quota cannot cover. (Once a run commits the actual — here zero —
    // conflict cost, repeat fingerprints are predicted free and a zero
    // quota admits them; charging what work costs is the point.)
    let out = server.client(&[circuit, "--tenant", "bob", "--model", "qd", "--no-timing"]);
    assert_eq!(out.status.code(), Some(3), "bob is refused, exit 3");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("over_quota"), "typed refusal: {err}");
    assert!(
        String::from_utf8(out.stdout).unwrap().is_empty(),
        "no table for a refused request"
    );

    let out = server.client(&[circuit, "--tenant", "alice", "--model", "qd", "--no-timing"]);
    assert!(out.status.success(), "alice: {:?}", out.stderr);
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        local_run(&path, &["--model", "qd", "--no-timing"]),
        "admission must not change results"
    );

    // Committing actual (tiny) conflicts left alice headroom for more.
    let out = server.client(&[circuit, "--tenant", "alice", "--model", "qd", "--no-timing"]);
    assert!(out.status.success(), "alice again: {:?}", out.stderr);
    server.shutdown();
}

#[test]
fn two_tenants_run_concurrently_and_identically() {
    let path = write_two_outputs("tenants");
    let server = Server::spawn(&["--jobs", "2"]);
    let reference = local_run(&path, &["--model", "qd", "--no-timing"]);

    let spawn = |tenant: &str| {
        step()
            .args(["client", &server.addr])
            .args([
                path.to_str().unwrap(),
                "--tenant",
                tenant,
                "--model",
                "qd",
                "--no-timing",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn client")
    };
    let clients = [spawn("alice"), spawn("bob")];
    for client in clients {
        let out = client.wait_with_output().expect("client output");
        assert!(out.status.success(), "concurrent client: {:?}", out.stderr);
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            reference,
            "concurrent tenants see identical tables"
        );
    }
    server.shutdown();
}

#[test]
fn malformed_uploads_get_typed_errors_not_dead_connections() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let garbage = dir.join("serve_garbage.bench");
    std::fs::write(&garbage, "INPUT(a\nthis is not bench\n").expect("write garbage");
    let server = Server::spawn(&[]);

    let out = server.client(&[garbage.to_str().unwrap(), "--no-timing"]);
    assert_eq!(out.status.code(), Some(1), "bad circuit is a failure");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("bad_circuit"), "typed error code: {err}");

    // Binary AIGER is refused client-side, before any bytes travel.
    let aig = dir.join("serve_binary.aig");
    std::fs::write(&aig, b"aig 0 0 0 0 0\n").expect("write aig");
    let out = server.client(&[aig.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "binary AIGER is a usage error");

    // The server survived both and still serves good circuits.
    let path = write_two_outputs("after_errors");
    let out = server.client(&[path.to_str().unwrap(), "--model", "qd", "--no-timing"]);
    assert!(out.status.success(), "after errors: {:?}", out.stderr);
    server.shutdown();
}

#[test]
fn bad_cache_dir_is_refused_before_listening() {
    // A regular file where the store directory should be: a usage
    // error (exit 2) before anything binds, so no harness ever scrapes
    // a port from a server that is about to exit.
    let file = write_two_outputs("badcachedir");
    let out = step()
        .args(["serve", "--addr", "127.0.0.1:0", "--cache-dir"])
        .arg(&file)
        .output()
        .expect("spawn step serve");
    assert_eq!(out.status.code(), Some(2), "regular-file --cache-dir");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        !stdout.contains("listening on"),
        "no port announced: {stdout}"
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("not a directory") && err.contains("usage: step serve"),
        "why + usage on stderr: {err}"
    );
}
