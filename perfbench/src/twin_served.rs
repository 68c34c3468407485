//! twin_served: open-loop requests over one client connection to a
//! `step serve --jobs 1` subprocess on loopback — the mirror image of
//! paper_cones. Nearly every requested cone is a permuted-input twin
//! of one seen earlier and the server's store starts primed with most
//! of them, so parsing, canonicalization, store reads, extraction and
//! verification on cache hits, the service queue and the frame
//! protocol do the work, and the solver does little.
//!
//! The stream is consumed in order: a closed-loop warm-up, rounds of a
//! closed-loop segment, a segment at the fixed low rate and one at the
//! fixed high rate, then the `max_rps` search. Each request is timed
//! from when it was due. Every served row is checked against an
//! in-process replay of the same stream over a store loaded from the
//! same primed directory.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use step_aig::Aig;
use step_core::{DecompConfig, ResultCache, StepService, TieredStore};
use step_serve::frame::{read_frame, write_frame};
use step_serve::proto::{
    ClientFrame, ErrorCode, OutputRow, ServerFrame, SubmitRequest, PROTO_VERSION,
};

use crate::paper_cones::{config, OP};
use crate::replay::{replay_output, Replayed};
use crate::trace::Tracer;
use crate::util::{cpu_seconds, mean, median, peak_rss_mb, quantile};
use crate::{gen, EndToEnd, Layers, Opts, Outcome};

/// Shares of the registry library and of the tail primed into the
/// store; the rest are solved when first sighted. With a tail cone in
/// every second request, 8% of the tail unprimed makes about 4% of
/// measured requests solve a fresh cone, well beyond the p90; near 10%
/// the p90 would sit on the boundary between requests that solve and
/// requests that do not.
const HOT_PRIMED: f64 = 0.85;
const TAIL_PRIMED: f64 = 0.92;
/// The fixed offered rates, in requests per second.
const RATE_LOW: f64 = 25.0;
const RATE_HIGH: f64 = 60.0;
/// The latency limit `max_rps` holds the p90 to.
const LATENCY_LIMIT_S: f64 = 0.100;
/// `max_rps` ladder: rates grow by this factor from [`RATE_HIGH`]
/// until one misses the limit (at most [`LADDER_MAX`] steps), then the
/// gap is bisected geometrically [`BISECTIONS`] times. A rate misses
/// only if it misses twice in a row, so one scheduling hiccup of the
/// machine does not end the climb.
const LADDER: f64 = 1.25;
const LADDER_MAX: usize = 10;
const BISECTIONS: usize = 3;
/// Server spawns per run; the median is `setup_s`.
const SETUP_REPS: usize = 15;
/// Rounds of the measured phases. Each round runs a closed-loop
/// segment, then one at the low and one at the high rate, so a slow
/// stretch of the machine touches every metric alike. Each latency is
/// the lower quartile of its per-round values, which a stall of the
/// machine in a few rounds does not reach; the closed-loop throughput
/// is the median over rounds.
const ROUNDS: usize = 8;

/// Sizes of each phase for a measured time of `seconds`.
struct Plan {
    /// Closed-loop warm-up requests (not measured).
    warmup: usize,
    /// Requests of one round's closed-loop, low and high segments.
    closed: usize,
    low: usize,
    high: usize,
    /// Duration of one `max_rps` search step.
    step_s: f64,
}

impl Plan {
    fn for_seconds(seconds: f64) -> Plan {
        let round = 0.05 * seconds;
        Plan {
            warmup: (0.5 * seconds).round().max(10.0) as usize,
            closed: (3.0 * seconds).round().max(10.0) as usize,
            low: (RATE_LOW * round).round().max(10.0) as usize,
            high: (RATE_HIGH * round).round().max(10.0) as usize,
            step_s: 0.1 * seconds,
        }
    }

    /// Requests whose counts are reported (every phase before the
    /// `max_rps` search, whose length varies).
    fn fixed(&self) -> usize {
        self.warmup + ROUNDS * (self.closed + self.low + self.high)
    }
}

/// One request's life as the client saw it.
#[derive(Clone, Debug)]
struct Timing {
    due: Instant,
    sent: Instant,
    accepted: Option<Instant>,
    outputs: Vec<(Instant, OutputRow)>,
    done: Option<Instant>,
    queue_wait_s: f64,
    error: Option<(ErrorCode, String)>,
}

impl Timing {
    fn latency(&self) -> f64 {
        match (self.done, &self.error) {
            (Some(done), None) => (done - self.due).as_secs_f64(),
            // A refused or failed request misses any limit.
            _ => f64::INFINITY,
        }
    }
}

/// A client connection to the server.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    frames: u64,
}

impl Conn {
    fn send(&mut self, frame: &str) -> Result<(), String> {
        write_frame(&mut self.writer, frame)
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<ServerFrame, String> {
        let text = read_frame(&mut self.reader)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("server closed the connection")?;
        self.frames += 1;
        ServerFrame::parse(&text).map_err(|e| format!("bad server frame: {e}"))
    }
}

/// A running `step serve` subprocess with its connection.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    conn: Conn,
}

impl Server {
    /// Spawns the server and completes the hello; returns it with the
    /// set-up time (spawn to `hello_ok`, store load included).
    fn spawn(bin: &Path, store: &Path) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "1"])
            .args(["--max-queue", "1000000", "--cache-dir"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line.trim().strip_prefix("listening on ").map(str::to_owned),
            Err(_) => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not report its address (got {line:?})"));
        };
        let connected = TcpStream::connect(&addr).and_then(|s| {
            s.set_nodelay(true)?;
            Ok((s.try_clone()?, s))
        });
        let (read_half, write_half) = match connected {
            Ok(halves) => halves,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("connect {addr}: {e}"));
            }
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            conn: Conn {
                reader: BufReader::new(read_half),
                writer: BufWriter::new(write_half),
                frames: 0,
            },
        };
        let hello = ClientFrame::Hello {
            proto: PROTO_VERSION,
            tenant: None,
        };
        let answered = server
            .conn
            .send(&hello.render())
            .and_then(|()| server.conn.recv());
        match answered {
            Ok(ServerFrame::HelloOk) => {}
            other => {
                server.stop();
                return Err(format!("hello refused: {other:?}"));
            }
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown` and waits for the process to end (killing it
    /// if it does not within ten seconds).
    fn stop(mut self) {
        let _ = self.conn.send(&ClientFrame::Shutdown.render());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if !matches!(self.child.try_wait(), Ok(None)) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    /// Never leaves the server running, whatever path drops it.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn submit_frame(req: u64, text: &str) -> String {
    ClientFrame::Submit(Box::new(SubmitRequest {
        req,
        format: "bench".into(),
        circuit: text.into(),
        op: "or".into(),
        model: "qdb".into(),
        // Every scope set explicitly: the server's defaults are wall-clock.
        budget: Some("work:20k".into()),
        circuit_budget: Some("unlimited".into()),
        qbf_budget: Some("unlimited".into()),
        seed: None,
        sat_restarts: None,
        sat_preprocess: false,
        deadline_ms: None,
    }))
    .render()
}

/// Folds one server frame into the timings; returns whether it ended
/// a request.
fn absorb(frame: ServerFrame, at: Instant, timings: &mut HashMap<u64, Timing>) -> bool {
    match frame {
        ServerFrame::Accepted { req, .. } => {
            if let Some(t) = timings.get_mut(&req) {
                t.accepted = Some(at);
            }
            false
        }
        ServerFrame::Output(row) => {
            if let Some(t) = timings.get_mut(&row.req) {
                t.outputs.push((at, row));
            }
            false
        }
        ServerFrame::Done { req, queue_wait_ms } => match timings.get_mut(&req) {
            Some(t) => {
                t.done = Some(at);
                t.queue_wait_s = queue_wait_ms as f64 / 1000.0;
                true
            }
            None => false,
        },
        ServerFrame::Error { req, code, message } => match req.and_then(|r| timings.get_mut(&r)) {
            Some(t) => {
                t.error = Some((code, message));
                true
            }
            None => false,
        },
        ServerFrame::HelloOk => false,
    }
}

/// Sends `frames[range]` — at `rate` requests per second from `start`
/// (open loop), or each after the previous one finished (`None`,
/// closed loop) — and collects every request's timing.
fn run_segment(
    conn: &mut Conn,
    frames: &[String],
    range: std::ops::Range<usize>,
    rate: Option<f64>,
) -> Result<Vec<Timing>, String> {
    let n = range.len();
    let first = range.start;
    let mut timings: HashMap<u64, Timing> = HashMap::with_capacity(n);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| match rate {
        Some(r) => start + Duration::from_secs_f64((i - first) as f64 / r),
        None => Instant::now(),
    };
    let placeholder = |due: Instant| Timing {
        due,
        sent: due,
        accepted: None,
        outputs: Vec::new(),
        done: None,
        queue_wait_s: 0.0,
        error: None,
    };
    match rate {
        None => {
            for i in range {
                let d = due(i);
                timings.insert(i as u64, placeholder(d));
                conn.send(&frames[i])?;
                timings.get_mut(&(i as u64)).expect("just inserted").sent = Instant::now();
                loop {
                    let frame = conn.recv()?;
                    if absorb(frame, Instant::now(), &mut timings) {
                        break;
                    }
                }
            }
        }
        Some(_) => {
            for i in range.clone() {
                timings.insert(i as u64, placeholder(due(i)));
            }
            // The sender runs on its own thread so a slow reply never
            // delays a due request; it reports when each was sent.
            let writer = &mut conn.writer;
            let reader = &mut conn.reader;
            let mut received = 0u64;
            let sent = std::thread::scope(|s| -> Result<Vec<Instant>, String> {
                let sender = s.spawn(move || -> Result<Vec<Instant>, String> {
                    let mut sent = Vec::with_capacity(n);
                    for i in range.clone() {
                        let d = due(i);
                        let now = Instant::now();
                        if d > now {
                            std::thread::sleep(d - now);
                        }
                        write_frame(writer, &frames[i])
                            .and_then(|()| writer.flush())
                            .map_err(|e| format!("send: {e}"))?;
                        sent.push(Instant::now());
                    }
                    Ok(sent)
                });
                let mut finished = 0;
                let mut failure = None;
                while finished < n {
                    let text = match read_frame(reader) {
                        Ok(Some(text)) => text,
                        Ok(None) => {
                            failure = Some("server closed the connection".to_owned());
                            break;
                        }
                        Err(e) => {
                            failure = Some(format!("receive: {e}"));
                            break;
                        }
                    };
                    received += 1;
                    match ServerFrame::parse(&text) {
                        Ok(frame) => {
                            if absorb(frame, Instant::now(), &mut timings) {
                                finished += 1;
                            }
                        }
                        Err(e) => {
                            failure = Some(format!("bad server frame: {e}"));
                            break;
                        }
                    }
                }
                let sent = sender.join().expect("sender thread")?;
                match failure {
                    Some(e) => Err(e),
                    None => Ok(sent),
                }
            })?;
            conn.frames += received;
            for (k, at) in sent.into_iter().enumerate() {
                timings
                    .get_mut(&((first + k) as u64))
                    .expect("every sent request has a timing")
                    .sent = at;
            }
        }
    }
    let mut out: Vec<(u64, Timing)> = timings.into_iter().collect();
    out.sort_by_key(|(i, _)| *i);
    Ok(out.into_iter().map(|(_, t)| t).collect())
}

/// Whether a segment at some rate met the latency limit without a
/// growing backlog: p90 within the limit, and the median of its last
/// quarter within a quarter of the limit of its first quarter's. A rate
/// just above capacity builds its backlog slowly and can keep the p90
/// under the limit for a whole step; its later requests still wait
/// longer than its first.
fn meets_limit(timings: &[Timing]) -> bool {
    let lat: Vec<f64> = timings.iter().map(Timing::latency).collect();
    let quarter = (lat.len() / 4).max(1);
    let head = median(&lat[..quarter]);
    let tail = median(&lat[lat.len() - quarter..]);
    quantile(&lat, 0.9) <= LATENCY_LIMIT_S && tail <= head + LATENCY_LIMIT_S / 4.0
}

/// The in-process answer for every request of a stream prefix, over
/// `store`; also each request's engine time (parse plus outputs).
/// Requests from `full` on skip extraction and verification: their
/// rows are checked on partition sizes and flags, which those steps
/// leave alone, and the search phase that sent them varies in length.
fn reference(
    texts: &[String],
    full: usize,
    store: &TieredStore,
    t: &mut Tracer,
) -> (Vec<Vec<Replayed>>, Vec<f64>, f64) {
    let config = config();
    let light = DecompConfig {
        extract: false,
        verify: false,
        ..config.clone()
    };
    let start = Instant::now();
    let mut answers = Vec::with_capacity(texts.len());
    let mut engine = Vec::with_capacity(texts.len());
    for (i, text) in texts.iter().enumerate() {
        let config = if i < full { &config } else { &light };
        let began = Instant::now();
        let aig = t.span("aig.parse", i as u64, |_| gen::parse(text));
        let outs: Vec<Replayed> = (0..aig.num_outputs())
            .map(|o| replay_output(&aig, o, OP, config, Some(store), t, i as u64))
            .collect();
        engine.push(began.elapsed().as_secs_f64());
        answers.push(outs);
    }
    (answers, engine, start.elapsed().as_secs_f64())
}

/// Checks one served request against its in-process answer.
fn check(i: usize, timing: &Timing, answer: &[Replayed]) -> Option<String> {
    if let Some((code, message)) = &timing.error {
        return Some(format!("request {i}: {} {message}", code.label()));
    }
    if timing.done.is_none() || timing.outputs.len() != answer.len() {
        return Some(format!(
            "request {i}: {} of {} outputs served",
            timing.outputs.len(),
            answer.len()
        ));
    }
    for (_, row) in &timing.outputs {
        let Some(want) = answer.get(row.index as usize) else {
            return Some(format!("request {i}: unknown output {}", row.index));
        };
        let sizes = |p: &step_core::VarPartition| {
            (p.num_a() as u64, p.num_b() as u64, p.num_shared() as u64)
        };
        let served = row
            .partition
            .as_ref()
            .map(|p| (p.num_a, p.num_b, p.num_shared));
        if served != want.partition.as_ref().map(sizes)
            || row.proved_optimal != want.proved_optimal
            || row.timed_out != want.timed_out
            || row.support != want.support as u64
        {
            return Some(format!(
                "request {i} output {} ({}): served {:?} optimal={} timed_out={}, \
                 in-process {:?} optimal={} timed_out={}",
                row.index,
                row.name,
                served,
                row.proved_optimal,
                row.timed_out,
                want.partition.as_ref().map(sizes),
                want.proved_optimal,
                want.timed_out
            ));
        }
    }
    None
}

/// Primes `dir` with the library cones `primed`, through a one-worker
/// service over a disk-backed store; returns the conflicts the priming
/// solves cost and the flush time.
fn prime(dir: &Path, library: &[step_aig::Cone], primed: &[usize]) -> Result<(u64, f64), String> {
    let width = primed
        .iter()
        .map(|&i| library[i].support_size())
        .max()
        .unwrap_or(0);
    let mut aig = Aig::new();
    let ins: Vec<_> = (0..width).map(|i| aig.add_input(format!("p{i}"))).collect();
    for &i in primed {
        let cone = &library[i];
        let mut map: HashMap<_, _> = (0..cone.support_size())
            .map(|k| (cone.aig.input_node(k), ins[k]))
            .collect();
        let root = aig.import(&cone.aig, cone.root, &mut map);
        aig.add_output(format!("p{i}"), root);
    }
    let store = TieredStore::with_disk(Some(Arc::new(ResultCache::new())), None, dir)
        .map_err(|e| format!("store {}: {e}", dir.display()))?;
    let service = StepService::spawn_with_store(1, Arc::new(store));
    let solved = service
        .submit(&aig, OP, config())
        .and_then(|h| h.join())
        .map_err(|e| format!("priming: {e}"))?;
    let start = Instant::now();
    service.flush().map_err(|e| format!("flush: {e}"))?;
    let flush = start.elapsed().as_secs_f64();
    service.shutdown();
    Ok((solved.total_effort().conflicts, flush))
}

fn open_store(dir: &Path) -> Result<(TieredStore, f64), String> {
    let start = Instant::now();
    let store = TieredStore::with_disk(Some(Arc::new(ResultCache::new())), None, dir)
        .map_err(|e| format!("store {}: {e}", dir.display()))?;
    Ok((store, start.elapsed().as_secs_f64()))
}

/// The request stream as drawn so far: netlists and their rendered
/// submit frames (rendered before the segment that sends them).
struct Drawn {
    stream: gen::TwinStream,
    texts: Vec<String>,
    frames: Vec<String>,
}

impl Drawn {
    fn extend_to(&mut self, n: usize) {
        while self.texts.len() < n {
            let text = self.stream.next_request();
            self.frames
                .push(submit_frame(self.texts.len() as u64, &text));
            self.texts.push(text);
        }
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let bin = opts
        .step_bin
        .clone()
        .ok_or("twin_served needs --step-bin <path to the step executable>")?;
    let plan = Plan::for_seconds(opts.seconds);
    let tail = plan.fixed().div_ceil(gen::TWIN_TAIL_EVERY);
    let mut drawn = Drawn {
        stream: gen::TwinStream::new(opts.family, opts.seed, tail, HOT_PRIMED, TAIL_PRIMED),
        texts: Vec::new(),
        frames: Vec::new(),
    };
    drawn.extend_to(plan.fixed());

    let dir: PathBuf = opts
        .work_dir
        .join(format!("twin-{}-{}", opts.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run_in(opts, &bin, &dir, &plan, &mut drawn);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    opts: &Opts,
    bin: &Path,
    dir: &Path,
    plan: &Plan,
    drawn: &mut Drawn,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let store_dir = dir.join("store");
    let primed = drawn.stream.primed.clone();
    let (priming_conflicts, flush_s) = prime(&store_dir, &drawn.stream.library, &primed)?;
    // The reference stores load the primed directory before the server
    // ever writes to it.
    let (reference_store, load_s) = open_store(&store_dir)?;
    let traced_store = if opts.trace {
        Some(open_store(&store_dir)?.0)
    } else {
        None
    };

    // Set-up: spawn to hello, several times; the last server stays.
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let (s, secs) = Server::spawn(bin, &store_dir)?;
        setups.push(secs);
        if rep + 1 < SETUP_REPS {
            s.stop();
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one set-up");
    let result = phases(&mut server, drawn, plan);
    server.stop();
    let ph = result?;
    let timings = &ph.timings;

    // Correctness: every served request against the in-process answer.
    let consumed = timings.len();
    let mut untraced = Tracer::new(false);
    let (answers, engine, reference_wall) = reference(
        &drawn.texts[..consumed],
        plan.fixed(),
        &reference_store,
        &mut untraced,
    );
    for (i, timing) in timings.iter().enumerate() {
        out.attempted += 1;
        if let Some(m) = check(i, timing, &answers[i]) {
            out.failed += 1;
            out.mismatch(m);
        }
    }

    // Counts over the fixed prefix, from the (checked) answers.
    let fixed: Vec<&Replayed> = answers[..plan.fixed()].iter().flatten().collect();
    let n = fixed.len() as f64;
    let ks: Vec<f64> = fixed
        .iter()
        .filter_map(|r| r.partition.as_ref().map(|p| p.k_combined() as f64))
        .collect();
    let gates: usize = fixed
        .iter()
        .filter_map(|r| r.decomposition.as_ref())
        .map(|d| d.aig.cone(d.fa).aig.and_count() + d.aig.cone(d.fb).aig.and_count())
        .sum();
    let cones = |range: &std::ops::Range<usize>| -> f64 {
        timings[range.clone()]
            .iter()
            .map(|t| t.outputs.len())
            .sum::<usize>() as f64
    };
    // Each latency is the lower quartile over rounds of the round's
    // quantile (see [`ROUNDS`]).
    let latency = |ranges: &[std::ops::Range<usize>], q: f64| -> f64 {
        let per_round: Vec<f64> = ranges
            .iter()
            .map(|r| {
                let lat: Vec<f64> = timings[r.clone()].iter().map(Timing::latency).collect();
                quantile(&lat, q)
            })
            .collect();
        eprintln!(
            "twin_served rounds q{q}: {}",
            per_round
                .iter()
                .map(|v| format!("{:.2}", v * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        );
        quantile(&per_round, 0.25)
    };
    let throughput: Vec<f64> = ph.closed.iter().map(|(r, wall)| cones(r) / wall).collect();
    let round_cones: f64 = ph
        .closed
        .iter()
        .map(|(r, _)| r)
        .chain(&ph.lows)
        .chain(&ph.highs)
        .map(cones)
        .sum();
    let e2e = EndToEnd {
        setup_s: median(&setups),
        peak_rss_mb: ph.rss,
        ok_share: (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        cones_per_s: median(&throughput),
        cones_per_cpu_s: round_cones / ph.cpu,
        solved_share: fixed.iter().filter(|r| r.solved).count() as f64 / n,
        optimal_share: fixed.iter().filter(|r| r.proved_optimal).count() as f64 / n,
        k_mean: mean(&ks),
        conflicts: (priming_conflicts + fixed.iter().map(|r| r.effort.conflicts).sum::<u64>())
            as f64,
        and_gates: gates as f64,
        latency_p50_low: latency(&ph.lows, 0.5),
        latency_p90_low: latency(&ph.lows, 0.9),
        latency_p50_high: latency(&ph.highs, 0.5),
        latency_p90_high: latency(&ph.highs, 0.9),
        max_rps: ph.max_rps,
    };
    eprintln!(
        "twin_served: {consumed} requests served ({ROUNDS} rounds of {} at {RATE_LOW}/s and {} \
         at {RATE_HIGH}/s), {} library cones, {} primed, max_rps {:.1}",
        plan.low,
        plan.high,
        drawn.stream.library.len(),
        primed.len(),
        ph.max_rps
    );
    if !opts.trace {
        e2e.report(&mut out.report);
        return Ok(out);
    }

    let mut t = Tracer::new(true);
    let store = traced_store.expect("opened for the traced run");
    let (_, _, traced_wall) = reference(&drawn.texts[..consumed], plan.fixed(), &store, &mut t);
    let flat: Vec<&Replayed> = answers.iter().flatten().collect();
    let mut layers = Layers::from_replays(&t, &flat);
    layers.parse_busy_s = t.busy("aig.parse");
    layers.store_load_s = load_s;
    layers.store_flush_s = flush_s;
    layers.trace_overhead_s = traced_wall - reference_wall;
    let waits: Vec<f64> = ph
        .lows
        .iter()
        .chain(&ph.highs)
        .flat_map(|r| &timings[r.clone()])
        .map(|t| t.queue_wait_s)
        .collect();
    layers.queue_wait_p50_s = median(&waits);
    layers.queue_wait_p90_s = quantile(&waits, 0.9);
    let overhead: Vec<f64> = ph
        .lows
        .iter()
        .flat_map(|r| r.clone())
        .map(|i| timings[i].latency() - engine[i])
        .collect();
    layers.serve_overhead_p50_s = median(&overhead);
    layers.serve_frames = server_frames(timings) as f64;
    layers.serve_refused = timings
        .iter()
        .filter(|t| {
            matches!(
                t.error,
                Some((ErrorCode::QueueFull | ErrorCode::OverQuota, _))
            )
        })
        .count() as f64;
    let late: Vec<f64> = timings[plan.warmup..]
        .iter()
        .map(|t| (t.sent - t.due).as_secs_f64().max(0.0))
        .collect();
    layers.loadgen_late_p99_s = quantile(&late, 0.99);
    if layers.solver_self_share >= 0.5 {
        out.mismatch(format!(
            "purpose check: core::mg + core::optimum hold {:.3} of twin_served self time \
             (need a minority)",
            layers.solver_self_share
        ));
    }
    let mut client = Tracer::new(true);
    for (i, timing) in timings.iter().enumerate().skip(plan.warmup) {
        let Some(done) = timing.done else { continue };
        let req = i as u64;
        let root = client.record("request", req, (timing.due, done), None);
        client.record("loadgen.wait", req, (timing.due, timing.sent), Some(root));
        let accepted = timing.accepted.unwrap_or(timing.sent);
        client.record("serve.admit", req, (timing.sent, accepted), Some(root));
        let last = timing.outputs.last().map_or(accepted, |(at, _)| *at);
        client.record("serve.outputs", req, (accepted, last), Some(root));
        client.record("serve.done", req, (last, done), Some(root));
    }
    for (tracer, name) in [(&t, "replay"), (&client, "client")] {
        let path = opts
            .work_dir
            .join(format!("trace-twin_served-{name}-{}.jsonl", opts.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    eprintln!(
        "twin_served traced: in-process replay {reference_wall:.3} s untraced, \
         {traced_wall:.3} s traced"
    );
    layers.report(&mut out.report);
    Ok(out)
}

/// Frames the client received: every request's accepted, output and
/// done (or error) frames.
fn server_frames(timings: &[Timing]) -> u64 {
    timings
        .iter()
        .map(|t| {
            u64::from(t.accepted.is_some())
                + t.outputs.len() as u64
                + u64::from(t.done.is_some() || t.error.is_some())
        })
        .sum()
}

/// What the fixed phases and the search measured.
struct Phases {
    timings: Vec<Timing>,
    /// Each round's closed-loop segment with its wall seconds, and its
    /// low and high segments.
    closed: Vec<(std::ops::Range<usize>, f64)>,
    lows: Vec<std::ops::Range<usize>>,
    highs: Vec<std::ops::Range<usize>>,
    /// Server CPU seconds over the rounds.
    cpu: f64,
    /// Server peak RSS after the fixed phases, in MiB.
    rss: f64,
    max_rps: f64,
}

/// Runs the warm-up, the rounds and the `max_rps` search on one server.
fn phases(server: &mut Server, drawn: &mut Drawn, plan: &Plan) -> Result<Phases, String> {
    let pid = server.pid();
    let conn = &mut server.conn;
    let mut timings = run_segment(conn, &drawn.frames, 0..plan.warmup, None)?;
    let cpu0 = cpu_seconds(&pid);
    let (mut closed, mut lows, mut highs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let range = timings.len()..timings.len() + plan.closed;
        let started = Instant::now();
        timings.extend(run_segment(conn, &drawn.frames, range.clone(), None)?);
        closed.push((range, started.elapsed().as_secs_f64()));
        for (rate, len, ranges) in [
            (RATE_LOW, plan.low, &mut lows),
            (RATE_HIGH, plan.high, &mut highs),
        ] {
            let range = timings.len()..timings.len() + len;
            timings.extend(run_segment(conn, &drawn.frames, range.clone(), Some(rate))?);
            ranges.push(range);
        }
    }
    let cpu = cpu_seconds(&pid) - cpu0;
    // Peak memory over the fixed phases (the search's length varies).
    let rss = peak_rss_mb(&pid);

    // One search step: `rate` for `plan.step_s` seconds, tried again
    // when it misses; returns whether it met the limit.
    let mut step = |rate: f64, timings: &mut Vec<Timing>| -> Result<bool, String> {
        for _ in 0..2 {
            let start = timings.len();
            let range = start..start + (rate * plan.step_s).round().max(10.0) as usize;
            drawn.extend_to(range.end);
            let seg = run_segment(conn, &drawn.frames, range, Some(rate))?;
            let ok = meets_limit(&seg);
            timings.extend(seg);
            if ok {
                return Ok(true);
            }
        }
        Ok(false)
    };
    // Climb the ladder until a rate misses the limit, then bisect
    // between the last rate that met it and the first that did not.
    let (mut pass, mut fail) = (0.0, None);
    let mut rate = RATE_HIGH;
    for _ in 0..LADDER_MAX {
        if step(rate, &mut timings)? {
            pass = rate;
            rate *= LADDER;
        } else {
            fail = Some(rate);
            break;
        }
    }
    if let Some(mut hi) = fail {
        let mut lo = if pass > 0.0 { pass } else { RATE_LOW };
        for _ in 0..BISECTIONS {
            let mid = (lo * hi).sqrt();
            if step(mid, &mut timings)? {
                pass = mid;
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    Ok(Phases {
        timings,
        closed,
        lows,
        highs,
        cpu,
        rss,
        max_rps: pass,
    })
}
