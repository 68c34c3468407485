//! The server side of `step serve`: a TCP accept loop feeding one
//! shared [`StepService`] + [`TieredStore`](step_core::TieredStore),
//! with per-tenant admission control in front of it.
//!
//! ## Shape
//!
//! One thread per connection reads frames; each admitted submission
//! gets a **forwarder** thread that drains the submission handle and
//! streams `output` frames back (completion order — the client
//! reorders by index). All frames of a connection funnel through one
//! mutexed writer, so concurrent requests interleave at frame
//! granularity, never mid-frame. The connection thread keeps each
//! request's [`Canceller`], so `cancel` frames work even while the
//! forwarder is blocked on the next result.
//!
//! ## Admission
//!
//! A submission is refused (typed `error` frame, nothing queued) when
//! the service queue is deeper than `--max-queue`, or when the
//! connection's tenant cannot cover the request's **charge** under its
//! quota. The charge is the work ceiling the request could consume:
//! an explicit work budget when the client set one, else the cost
//! model's per-output conflict predictions (fingerprint history first,
//! support-bucket EWMA else). Quota accounting is two-phase — reserve
//! the charge at admission, commit the *actual* conflicts at
//! completion — so long-running requests cannot be double-admitted
//! against the same headroom.
//!
//! Admission never touches the engine's budgets: an admitted request
//! runs exactly the configuration the client sent, which is what keeps
//! served results byte-identical to in-process runs.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use step_aig::{aiger, bench_io, blif, canonicalize, Aig};
use step_core::{
    Budget, Canceller, CostModel, DecompConfig, GateOp, Model, StepError, StepService,
    SubmitOptions, TenantLedger, WorkReservation,
};

use crate::flag::{parsed_or_exit, Args, ReuseOpts};
use crate::frame::{read_frame, write_frame};
use crate::proto::{
    ClientFrame, ErrorCode, OutputRow, PartitionRow, ServerFrame, SubmitRequest, PROTO_VERSION,
};

/// Server configuration (the `step serve` flag set).
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Bind address (`127.0.0.1:0` picks a free port; the chosen
    /// address is printed as `listening on <addr>`).
    pub addr: String,
    /// Worker threads in the shared service pool.
    pub jobs: usize,
    /// Default per-tenant conflict quota.
    pub default_quota: u64,
    /// Per-tenant quota overrides.
    pub tenant_quotas: Vec<(String, u64)>,
    /// Refuse submissions once this many are queued unstarted.
    pub max_queue: usize,
    /// Persistent artifact store directory (warm starts across server
    /// restarts).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:3737".to_owned(),
            jobs: 1,
            default_quota: u64::MAX,
            tenant_quotas: Vec::new(),
            max_queue: 64,
            cache_dir: None,
        }
    }
}

const SERVE_USAGE: &str = "usage: step serve [--addr host:port] [--jobs n] [--quota conflicts] \
                           [--tenant-quota name=conflicts] [--max-queue n] [--cache-dir path]\n\
                           binds a framed-JSON decomposition service (see README \
                           \"Network service\"); --addr 127.0.0.1:0 picks a free port \
                           and prints it as `listening on <addr>`";

/// `step serve ...` entry point: parses flags, runs the server, exits.
pub fn main(args: &[String]) -> ! {
    let opts = parsed_or_exit(parse_args(args), SERVE_USAGE);
    match run(&opts) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1)
        }
    }
}

/// The `step serve` flags; `Ok(None)` on `--help`.
fn parse_args(args: &[String]) -> Result<Option<ServerOptions>, String> {
    let mut opts = ServerOptions::default();
    let mut args = Args::new(args);
    while let Some(flag) = args.next_arg() {
        match flag {
            "--addr" => opts.addr = args.value()?.to_owned(),
            "--jobs" => opts.jobs = args.count()?,
            "--quota" => opts.default_quota = args.parse()?,
            "--tenant-quota" => {
                let spec = args.value()?;
                let quota = spec
                    .split_once('=')
                    .and_then(|(name, q)| Some((name.to_owned(), q.parse().ok()?)))
                    .ok_or_else(|| args.error(format!("`{spec}` is not name=conflicts")))?;
                opts.tenant_quotas.push(quota);
            }
            "--max-queue" => opts.max_queue = args.parse()?,
            "--cache-dir" => opts.cache_dir = Some(args.cache_dir()?),
            "--help" | "-h" => return Ok(None),
            _ => return Err(args.error("unknown option")),
        }
    }
    Ok(Some(opts))
}

/// Everything a connection thread needs, shared by all of them.
struct ServerCtx {
    service: StepService,
    tenants: Arc<TenantLedger>,
    max_queue: usize,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// Opens the store, then binds and runs the server until a `shutdown`
/// frame arrives.
///
/// # Errors
///
/// [`std::io::Error`] when the cache directory cannot be opened
/// (before anything binds) or the bind fails; per-connection I/O
/// errors only drop that connection.
pub fn run(opts: &ServerOptions) -> std::io::Result<()> {
    // Same reuse defaults as the CLI: result cache on, clause bank
    // off, disk tier when asked. One store serves every connection —
    // cross-request reuse changes conflict counts, never answers.
    let store = ReuseOpts {
        cache_dir: opts.cache_dir.clone(),
        ..ReuseOpts::default()
    }
    .build_store()?;

    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    // The one contractual stdout line: harnesses scrape the port from
    // it (`--addr 127.0.0.1:0`), so print-and-flush before accepting.
    println!("listening on {addr}");
    std::io::stdout().flush()?;

    let tenants = Arc::new(TenantLedger::new(opts.default_quota));
    for (tenant, quota) in &opts.tenant_quotas {
        tenants.set_quota(tenant, *quota);
    }
    let ctx = Arc::new(ServerCtx {
        service: StepService::spawn_with_store(opts.jobs.max(1), store),
        tenants,
        max_queue: opts.max_queue,
        shutdown: AtomicBool::new(false),
        addr,
    });

    let mut connections = Vec::new();
    for stream in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let ctx = Arc::clone(&ctx);
        connections.push(std::thread::spawn(move || handle_connection(stream, &ctx)));
    }
    for conn in connections {
        let _ = conn.join();
    }
    // Persist what the run learnt; losing the flush costs the next
    // server's warm start, not any answer already streamed.
    if let Err(e) = ctx.service.flush() {
        eprintln!("warning: cache flush failed: {e}");
    }
    Ok(())
}

/// A connection's shared frame writer (forwarder threads and the
/// reader interleave on it at frame granularity).
type SharedWriter = Arc<Mutex<BufWriter<TcpStream>>>;

fn send(writer: &SharedWriter, frame: &ServerFrame) -> std::io::Result<()> {
    let mut w = writer.lock().expect("serve writer lock");
    write_frame(&mut *w, &frame.render())
}

fn send_error(writer: &SharedWriter, req: Option<u64>, code: ErrorCode, message: String) {
    let _ = send(writer, &ServerFrame::Error { req, code, message });
}

fn handle_connection(stream: TcpStream, ctx: &Arc<ServerCtx>) {
    // Frames are small and interactive; never Nagle-delay them.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let writer: SharedWriter = Arc::new(Mutex::new(BufWriter::new(stream)));
    let mut tenant: Option<String> = None;
    let cancellers: Arc<Mutex<HashMap<u64, Canceller>>> = Arc::default();
    let mut forwarders = Vec::new();

    // A clean close, a half-read frame, or a vanished peer all end
    // the connection the same way; in-flight submissions finish and
    // their forwarders notice the dead socket.
    while let Ok(Some(text)) = read_frame(&mut reader) {
        match ClientFrame::parse(&text) {
            Err(e) => send_error(&writer, None, ErrorCode::BadRequest, e.to_string()),
            Ok(ClientFrame::Hello { proto, tenant: t }) => {
                if proto != PROTO_VERSION {
                    send_error(
                        &writer,
                        None,
                        ErrorCode::Unsupported,
                        format!(
                            "protocol version {proto} unsupported (server speaks {PROTO_VERSION})"
                        ),
                    );
                    continue;
                }
                tenant = t;
                let _ = send(&writer, &ServerFrame::HelloOk);
            }
            Ok(ClientFrame::Cancel { req }) => {
                if let Some(c) = cancellers.lock().expect("canceller map lock").get(&req) {
                    c.cancel();
                }
            }
            Ok(ClientFrame::Shutdown) => {
                ctx.shutdown.store(true, Ordering::SeqCst);
                // The accept loop is blocked in `accept`; a throwaway
                // self-connection wakes it to observe the flag.
                let _ = TcpStream::connect(ctx.addr);
                break;
            }
            Ok(ClientFrame::Submit(request)) => {
                if let Some(forwarder) =
                    handle_submit(*request, tenant.as_deref(), ctx, &writer, &cancellers)
                {
                    forwarders.push(forwarder);
                }
            }
        }
    }
    for forwarder in forwarders {
        let _ = forwarder.join();
    }
}

/// Parses the uploaded circuit text with the same readers the CLI's
/// file loader dispatches to.
fn parse_circuit(format: &str, text: &str) -> Result<Result<Aig, String>, String> {
    Ok(match format {
        "bench" => bench_io::parse(text).map_err(|e| e.to_string()),
        "blif" => blif::parse(text).map_err(|e| e.to_string()),
        "aag" => aiger::parse(text).map_err(|e| e.to_string()),
        other => return Err(format!("unknown circuit format {other:?}")),
    })
}

/// Builds the engine configuration from a submit frame, applying the
/// same defaulting rules as the CLI (including the pure-work
/// wall-lift), so remote and local runs are configured identically.
fn build_config(request: &SubmitRequest) -> Result<(GateOp, DecompConfig), String> {
    let op =
        GateOp::from_name(&request.op).ok_or_else(|| format!("unknown op {:?}", request.op))?;
    let model = Model::from_name(&request.model)
        .ok_or_else(|| format!("unknown model {:?}", request.model))?;
    let mut config = DecompConfig::new(model);
    let mut qbf_set = false;
    let mut circuit_set = false;
    if let Some(spec) = &request.budget {
        config.budget.per_output = Budget::parse(spec).map_err(|e| format!("budget: {e}"))?;
    }
    if let Some(spec) = &request.circuit_budget {
        config.budget.per_circuit =
            Budget::parse(spec).map_err(|e| format!("circuit_budget: {e}"))?;
        circuit_set = true;
    }
    if let Some(spec) = &request.qbf_budget {
        config.budget.per_qbf_call = Budget::parse(spec).map_err(|e| format!("qbf_budget: {e}"))?;
        qbf_set = true;
    }
    config
        .budget
        .lift_unset_walls_for_pure_work(qbf_set, circuit_set);
    if let Some(seed) = request.seed {
        config.seed = seed;
    }
    if let Some(policy) = &request.sat_restarts {
        config.sat_restarts = policy
            .parse()
            .map_err(|_| format!("unknown restart policy {policy:?}"))?;
    }
    config.sat_preprocess = request.sat_preprocess;
    Ok((op, config))
}

/// The quota charge of a request: its work ceiling when one is
/// configured, else the cost model's prediction over the circuit's
/// output cones (canonicalized, so repeat fingerprints price at their
/// observed cost).
fn estimate_charge(comb: &Aig, config: &DecompConfig, model: &Arc<CostModel>) -> u64 {
    if let Some(work) = config.budget.per_circuit.work() {
        return work;
    }
    if let Some(per_output) = config.budget.per_output.work() {
        return per_output.saturating_mul(comb.num_outputs() as u64);
    }
    comb.outputs()
        .iter()
        .map(|out| {
            let cone = comb.cone(out.lit());
            let canon = canonicalize(&cone.aig, cone.root);
            model.predict(Some(canon.fingerprint.hash), cone.support_size())
        })
        .sum()
}

/// Admits and submits one request; returns the forwarder thread that
/// streams its results, or `None` if it was refused (an `error` frame
/// has been sent).
fn handle_submit(
    request: SubmitRequest,
    tenant: Option<&str>,
    ctx: &Arc<ServerCtx>,
    writer: &SharedWriter,
    cancellers: &Arc<Mutex<HashMap<u64, Canceller>>>,
) -> Option<std::thread::JoinHandle<()>> {
    let rid = request.req;
    let circuit = match parse_circuit(&request.format, &request.circuit) {
        Err(e) => {
            send_error(writer, Some(rid), ErrorCode::BadRequest, e);
            return None;
        }
        Ok(Err(e)) => {
            send_error(writer, Some(rid), ErrorCode::BadCircuit, e);
            return None;
        }
        Ok(Ok(circuit)) => circuit,
    };
    let comb = if circuit.is_comb() {
        circuit
    } else {
        match circuit.comb() {
            Ok(comb) => comb,
            Err(e) => {
                send_error(writer, Some(rid), ErrorCode::BadCircuit, e.to_string());
                return None;
            }
        }
    };
    let (op, config) = match build_config(&request) {
        Ok(parsed) => parsed,
        Err(e) => {
            send_error(writer, Some(rid), ErrorCode::BadRequest, e);
            return None;
        }
    };
    let depth = ctx.service.queue_depth();
    if depth >= ctx.max_queue {
        send_error(
            writer,
            Some(rid),
            ErrorCode::QueueFull,
            format!("{depth} submissions queued (limit {})", ctx.max_queue),
        );
        return None;
    }
    let comb = Arc::new(comb);
    let charge = estimate_charge(&comb, &config, ctx.service.cost_model());
    let reservation: Option<WorkReservation> = match tenant {
        Some(tenant) => match ctx.tenants.reserve(tenant, charge) {
            Ok(reservation) => Some(reservation),
            Err(over) => {
                send_error(writer, Some(rid), ErrorCode::OverQuota, over.to_string());
                return None;
            }
        },
        None => None,
    };
    let options = SubmitOptions {
        deadline: request
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms)),
        tenant: tenant.map(Arc::from),
        cost_hint: Some(charge),
    };
    let handle = match ctx
        .service
        .submit_with(Arc::clone(&comb), op, config, options)
    {
        Ok(handle) => handle,
        Err(e) => {
            // The dropped `reservation` rolls itself back.
            send_error(writer, Some(rid), ErrorCode::Internal, e.to_string());
            return None;
        }
    };
    let _ = send(
        writer,
        &ServerFrame::Accepted {
            req: rid,
            inputs: comb.num_inputs() as u64,
            outputs: comb.num_outputs() as u64,
            ands: comb.and_count() as u64,
            charge,
        },
    );
    cancellers
        .lock()
        .expect("canceller map lock")
        .insert(rid, handle.canceller());

    let writer = Arc::clone(writer);
    let cancellers = Arc::clone(cancellers);
    Some(std::thread::spawn(move || {
        let mut handle = handle;
        while let Some(event) = handle.recv() {
            // Per-output errors surface once, through join's
            // lowest-index-error rule, as the request's error frame.
            if let Ok(out) = &event.result {
                let row = OutputRow {
                    req: rid,
                    index: event.output_index as u64,
                    name: out.name.clone(),
                    support: out.support as u64,
                    partition: out.partition.as_ref().map(|p| PartitionRow {
                        num_a: p.num_a() as u64,
                        num_b: p.num_b() as u64,
                        num_shared: p.num_shared() as u64,
                        disjointness: p.disjointness(),
                        balancedness: p.balancedness(),
                    }),
                    proved_optimal: out.proved_optimal,
                    timed_out: out.timed_out,
                    cpu_ms: out.cpu.as_millis() as u64,
                };
                if send(&writer, &ServerFrame::Output(row)).is_err() {
                    // The client is gone; stop burning effort on it.
                    handle.cancel();
                }
            }
        }
        match handle.join() {
            Ok(result) => {
                // Two-phase quota accounting resolves: the reservation
                // held the *estimate*, the quota is charged the actual
                // conflicts the request cost.
                let spent: u64 = result.outputs.iter().map(|o| o.effort.conflicts).sum();
                if let Some(reservation) = reservation {
                    reservation.commit(spent);
                }
                let _ = send(
                    &writer,
                    &ServerFrame::Done {
                        req: rid,
                        queue_wait_ms: result.queue_wait.as_millis() as u64,
                    },
                );
            }
            Err(e) => {
                if let Some(reservation) = reservation {
                    reservation.rollback();
                }
                let code = match e {
                    StepError::Cancelled => ErrorCode::Cancelled,
                    _ => ErrorCode::Internal,
                };
                send_error(&writer, Some(rid), code, e.to_string());
            }
        }
        cancellers.lock().expect("canceller map lock").remove(&rid);
    }))
}
