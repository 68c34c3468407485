//! The client side: `step client <addr> <circuit> [options]` submits
//! one circuit to a running `step serve` and reprints the result table
//! **byte-identically** to an in-process `step` run (under
//! `--no-timing`; with timing on, the cpu cells are the server's
//! measurements).
//!
//! The client uploads the circuit file's original text plus a format
//! tag — the server parses it with the same readers the CLI uses — and
//! buffers `output` frames (which arrive in completion order) until
//! `done`, then prints rows in output order, exactly as the CLI's
//! join-then-print path does.
//!
//! Exit codes: `0` success, `1` connection/server failure, `2` usage,
//! `3` admission refused (`over_quota` / `queue_full`).

use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;

use step_core::{GateOp, Model, RestartPolicy};

use crate::flag::{parsed_or_exit, Args};
use crate::frame::{read_frame, write_frame};
use crate::proto::{ClientFrame, ErrorCode, OutputRow, ServerFrame, SubmitRequest, PROTO_VERSION};
use crate::table;

const CLIENT_USAGE: &str = "usage: step client <host:port> <circuit.{bench,blif,aag}> \
                            [--tenant name] [--model ljh|mg|qd|qb|qdb] [--op or|and|xor] \
                            [--seed n] [--sat-restarts luby|ema] [--sat-preprocess] \
                            [--budget spec] [--circuit-budget spec] [--qbf-budget spec] \
                            [--deadline-ms n] [--no-timing]\n\
                            or:    step client <host:port> --shutdown\n\
                            submits a circuit to a running `step serve` and prints the \
                            same result table an in-process run would (binary .aig does \
                            not travel; convert to .aag first)";

struct ClientCli {
    addr: String,
    path: String,
    tenant: Option<String>,
    model: Model,
    op: GateOp,
    seed: Option<u64>,
    sat_restarts: Option<String>,
    sat_preprocess: bool,
    budget: Option<String>,
    circuit_budget: Option<String>,
    qbf_budget: Option<String>,
    deadline_ms: Option<u64>,
    no_timing: bool,
    shutdown: bool,
}

/// The `step client` flags; `Ok(None)` on `--help`. Restart policies
/// and budget specs are checked here, as `step` checks them, and travel
/// as written.
fn parse_args(args: &[String]) -> Result<Option<ClientCli>, String> {
    let mut cli = ClientCli {
        addr: String::new(),
        path: String::new(),
        tenant: None,
        model: Model::QbfDisjoint,
        op: GateOp::Or,
        seed: None,
        sat_restarts: None,
        sat_preprocess: false,
        budget: None,
        circuit_budget: None,
        qbf_budget: None,
        deadline_ms: None,
        no_timing: false,
        shutdown: false,
    };
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg() {
        match arg {
            "--tenant" => cli.tenant = Some(args.value()?.to_owned()),
            "--model" => cli.model = args.model()?,
            "--op" => cli.op = args.op()?,
            "--seed" => cli.seed = Some(args.parse()?),
            "--sat-restarts" => {
                let policy = args.vetted(Args::parse::<RestartPolicy>)?;
                cli.sat_restarts = Some(policy.to_owned());
            }
            "--sat-preprocess" => cli.sat_preprocess = true,
            "--budget" => cli.budget = Some(args.vetted(Args::budget)?.to_owned()),
            "--circuit-budget" => cli.circuit_budget = Some(args.vetted(Args::budget)?.to_owned()),
            "--qbf-budget" => cli.qbf_budget = Some(args.vetted(Args::budget)?.to_owned()),
            "--deadline-ms" => cli.deadline_ms = Some(args.parse()?),
            "--no-timing" => cli.no_timing = true,
            "--shutdown" => cli.shutdown = true,
            "--help" | "-h" => return Ok(None),
            other if !other.starts_with('-') && cli.addr.is_empty() => cli.addr = other.to_owned(),
            other if !other.starts_with('-') && cli.path.is_empty() => cli.path = other.to_owned(),
            _ => return Err(args.error("unknown option")),
        }
    }
    if cli.addr.is_empty() {
        return Err("<host:port>: missing argument".to_owned());
    }
    if cli.path.is_empty() && !cli.shutdown {
        return Err("<circuit>: missing argument".to_owned());
    }
    Ok(Some(cli))
}

/// The wire format tag for a circuit path, by extension. Binary AIGER
/// is refused up front: the protocol carries text.
fn format_of(path: &str) -> Result<&'static str, String> {
    match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some("bench") => Ok("bench"),
        Some("blif") => Ok("blif"),
        Some("aag") => Ok("aag"),
        Some("aig") => {
            Err("binary AIGER does not travel over the wire; convert to .aag".to_owned())
        }
        _ => Err(format!("unrecognized circuit extension in {path:?}")),
    }
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1)
}

/// `step client ...` entry point: parses flags, runs one request,
/// exits with the documented code.
pub fn main(args: &[String]) -> ! {
    let cli = parsed_or_exit(parse_args(args), CLIENT_USAGE);
    let stream = match TcpStream::connect(&cli.addr) {
        Ok(s) => s,
        Err(e) => fail(&format!("connect {}: {e}", cli.addr)),
    };
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(e) => fail(&format!("{e}")),
    };
    let mut writer = stream;
    let send = |writer: &mut TcpStream, frame: &ClientFrame| {
        if let Err(e) = write_frame(writer, &frame.render()) {
            fail(&format!("send: {e}"));
        }
    };
    let recv = |reader: &mut BufReader<TcpStream>| -> ServerFrame {
        match read_frame(reader) {
            Ok(Some(text)) => match ServerFrame::parse(&text) {
                Ok(frame) => frame,
                Err(e) => fail(&format!("bad frame from server: {e}")),
            },
            Ok(None) => fail("server closed the connection"),
            Err(e) => fail(&format!("recv: {e}")),
        }
    };

    send(
        &mut writer,
        &ClientFrame::Hello {
            proto: PROTO_VERSION,
            tenant: cli.tenant.clone(),
        },
    );
    match recv(&mut reader) {
        ServerFrame::HelloOk => {}
        ServerFrame::Error { message, .. } => fail(&message),
        other => fail(&format!("expected hello_ok, got {other:?}")),
    }

    if cli.shutdown {
        send(&mut writer, &ClientFrame::Shutdown);
        std::process::exit(0)
    }

    let format = match format_of(&cli.path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2)
        }
    };
    let circuit = match std::fs::read_to_string(&cli.path) {
        Ok(text) => text,
        Err(e) => fail(&format!("{}: {e}", cli.path)),
    };
    send(
        &mut writer,
        &ClientFrame::Submit(Box::new(SubmitRequest {
            req: 1,
            format: format.to_owned(),
            circuit,
            op: cli.op.name().to_owned(),
            model: cli.model.name().to_owned(),
            budget: cli.budget.clone(),
            circuit_budget: cli.circuit_budget.clone(),
            qbf_budget: cli.qbf_budget.clone(),
            seed: cli.seed,
            sat_restarts: cli.sat_restarts.clone(),
            sat_preprocess: cli.sat_preprocess,
            deadline_ms: cli.deadline_ms,
        })),
    );

    // Output frames arrive in completion order; buffer and reorder by
    // index at `done` so stdout matches the CLI's join-then-print path
    // byte for byte.
    let mut rows: Vec<OutputRow> = Vec::new();
    loop {
        match recv(&mut reader) {
            ServerFrame::Accepted {
                inputs,
                outputs,
                ands,
                ..
            } => {
                println!("{}", table::circuit_line(&cli.path, inputs, outputs, ands));
                println!("{}", table::header());
            }
            ServerFrame::Output(row) => rows.push(row),
            ServerFrame::Done { .. } => {
                rows.sort_by_key(|r| r.index);
                let mut decomposed = 0usize;
                for row in &rows {
                    match &row.partition {
                        Some(p) => {
                            decomposed += 1;
                            println!(
                                "{}",
                                table::partition_row(
                                    &row.name,
                                    row.support,
                                    p.num_a,
                                    p.num_b,
                                    p.num_shared,
                                    p.disjointness,
                                    p.balancedness,
                                    row.proved_optimal,
                                    &table::cpu_cell(row.cpu_ms, cli.no_timing),
                                )
                            );
                        }
                        None => {
                            println!(
                                "{}",
                                table::failure_row(&row.name, row.support, row.timed_out)
                            );
                        }
                    }
                }
                println!("{}", table::footer(decomposed, &cli.model.to_string()));
                std::process::exit(0)
            }
            ServerFrame::Error { code, message, .. } => {
                eprintln!("error: {}: {message}", code.label());
                let rejected = matches!(code, ErrorCode::OverQuota | ErrorCode::QueueFull);
                std::process::exit(if rejected { 3 } else { 1 })
            }
            ServerFrame::HelloOk => fail("unexpected hello_ok"),
        }
    }
}
