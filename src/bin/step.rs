//! `step` — the command-line front-end of the reproduction, mirroring
//! the original STEP tool's usage (and the `bi_dec circuit.blif or 0 1`
//! interface of the Bi-dec baseline).
//!
//! ```text
//! step <circuit.{bench,blif,aag}> [options]
//! step cache stats|merge|verify ...
//! step serve [--addr host:port] [--jobs n] [--quota n] ...
//! step client <host:port> <circuit> [options]
//! step synthesize <circuit> [options]
//!   --model ljh|mg|qd|qb|qdb    engine (default qd)
//!   --op or|and|xor             root operator (default or)
//!   --weights <wd> <wb>         STEP-QDB with the paper's Definition 4 cost
//!                               wd·|XC| + wb·(|XA| − |XB|) (selects qdb; any
//!                               other --model is a usage error). Budgets,
//!                               --jobs, the store and verification apply as
//!                               for every model
//!   --output <index>            decompose a single PO
//!   --jobs <n>                  worker threads for whole-circuit runs (default 1)
//!   --progress                  stream one line per output to stderr as results
//!                               land (whole-circuit runs; completion order)
//!   --seed <n>                  engine base seed (default 0x5DEECE66D)
//!   --sat-restarts luby|ema     SAT restart policy (default luby); ema is the
//!                               Glucose-style LBD-EMA dynamic policy
//!   --sat-preprocess            bounded root-level SAT preprocessing (off by
//!                               default; charged in conflict-equivalents)
//!   --cache / --no-cache        per-op result cache keyed by canonical cone
//!                               fingerprints (default on)
//!   --cache-cap <n>             bound the cache to n entries (second-chance
//!                               eviction; default unbounded)
//!   --clause-reuse              cross-output clause reuse: completed outputs
//!                               donate pinned learnt clauses to a bank keyed by
//!                               canonical fingerprint, and structural
//!                               (near-)twins start pre-seeded (off by default)
//!   --no-clause-reuse           disable it explicitly
//!   --clause-bank-cap <n>       bound the bank's exact channel to n entries
//!                               (second-chance eviction; implies --clause-reuse)
//!   --cache-dir <path>          persistent artifact store: solved results,
//!                               donated clauses and search transcripts load from
//!                               <path> at startup and flush back at exit, so a
//!                               later run (or another replica) starts warm —
//!                               byte-identical answers, fewer conflicts
//!   --no-timing                 suppress wall-clock cells and the cache,
//!                               clause-bank and store stats lines (stable output)
//!   --emit-qdimacs              print the 3QCNF of formulation (4) and exit
//!   --emit-blif                 print decomposed netlists as BLIF
//!   --budget <spec>             per-output budget (default wall:60s)
//!   --circuit-budget <spec>     per-circuit budget (default wall:6000s)
//!   --qbf-budget <spec>         per-QBF-call budget (default wall:4s, paper)
//! ```
//!
//! A budget `<spec>` is `wall:<dur>`, `work:<conflicts>`,
//! `both:<dur>,<conflicts>` or `unlimited`
//! ([`Budget::parse`](qbf_bidec::step::Budget::parse)). A pure-work
//! `--budget work:<n>` makes the run deterministic — byte-identical
//! results (timeouts included) across machines and `--jobs` values —
//! and therefore lifts the default *wall* limits on the per-call and
//! per-circuit scopes unless those are set explicitly.
//!
//! Every subcommand parses its flags with [`qbf_bidec::serve::flag`],
//! the layer all front ends share: `--help` prints the subcommand's
//! usage on stdout and exits 0; a bad invocation prints one
//! `<flag>: <why>` line and the usage on stderr and exits 2.
//!
//! Whole-circuit runs submit to a [`StepService`] worker pool and
//! stream per-output events off the submission handle (`--progress`
//! narrates them on stderr in completion order; the stdout table stays
//! output-ordered). Per-output results are identical for any `--jobs`
//! value, so `--no-timing` stdout can be diffed across worker counts
//! and against `--progress` runs (the CI smoke steps do exactly that).
//! The engine solves every cone in canonical input order whether or
//! not the cache is on, so `--cache` and `--no-cache` are
//! byte-identical under `--no-timing` too — the cache changes how much
//! work a run does, never what it answers. The same contract covers
//! `--clause-reuse`: imported clauses are implied by each oracle's own
//! CNF, so verdicts and partitions match a reuse-off run byte for byte
//! (the CI clause-reuse smoke step diffs exactly that); only the work
//! counters move. `--cache-dir` extends all three reuse surfaces across
//! processes under the same contract — a warm run is byte-identical to
//! a cold one under `--no-timing` (the CI warm-start smoke step diffs
//! that too).
//!
//! The `step cache` subcommand manages store directories:
//!
//! ```text
//! step cache stats  <dir>           per-namespace entry counts + load health
//! step cache merge  <out> <in>...   pool many stores into one (dedup by key)
//! step cache verify <dir>           exit 1 if any record failed to load
//! ```
//!
//! The `step serve` / `step client` subcommands put the same engine
//! behind a TCP front-end (framed JSON, per-tenant quotas, admission
//! control — see the [`qbf_bidec::serve`] crate and the README's
//! "Network service" section). A circuit decomposed through
//! `step client` prints byte-identically to an in-process run under
//! `--no-timing`: both front-ends print through
//! [`qbf_bidec::serve::table`], and the engine's answers are
//! scheduling-independent.
//!
//! The `step synthesize` subcommand recursively bi-decomposes every
//! primary output into a network of two-input OR/AND/XOR gates over
//! small leaf functions (the [`qbf_bidec::synth`] crate): every
//! frontier cone is submitted through the same service worker pool, so
//! the recursion parallelizes across `--jobs` workers and hits every
//! reuse surface above. Each emitted network is SAT-verified
//! equivalent to its cone, and the subcommand's default budgets are
//! pure work, so its stdout under `--no-timing` is byte-identical
//! across `--jobs` values (the CI synthesize smoke step diffs that).
//! See `step synthesize --help`.
//!
//! [`StepService`]: qbf_bidec::step::StepService

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use qbf_bidec::aig::Aig;
use qbf_bidec::circuits::load_file;
use qbf_bidec::serve::flag::{finish_store, parsed_or_exit, usage_error, Args, ReuseOpts};
use qbf_bidec::serve::table;
use qbf_bidec::step::optimum::Metric;
use qbf_bidec::step::oracle::CoreFormula;
use qbf_bidec::step::qbf_model::{ModelOptions, Target};
use qbf_bidec::step::qdimacs_export::export_qdimacs;
use qbf_bidec::step::{
    BiDecomposer, Budget, BudgetPolicy, DecompConfig, DiskTier, GateOp, Model, OutputResult,
    RestartPolicy, StepService, TieredStore,
};
use qbf_bidec::synth::{SynthDriver, SynthOptions, SynthOutput};

struct Cli {
    path: String,
    model: Model,
    op: GateOp,
    weights: Option<(u32, u32)>,
    output: Option<usize>,
    jobs: usize,
    progress: bool,
    seed: Option<u64>,
    sat_restarts: RestartPolicy,
    sat_preprocess: bool,
    reuse: ReuseOpts,
    no_timing: bool,
    emit_qdimacs: bool,
    emit_blif: bool,
    budget: BudgetPolicy,
}

const USAGE: &str = "usage: step <circuit.{bench,blif,aag}> [--model ljh|mg|qd|qb|qdb] \
                     [--op or|and|xor] [--weights wd wb] [--output idx] [--jobs n] \
                     [--progress] [--seed n] [--sat-restarts luby|ema] [--sat-preprocess] \
                     [--cache] [--no-cache] [--cache-cap n] \
                     [--clause-reuse] [--no-clause-reuse] [--clause-bank-cap n] \
                     [--cache-dir path] \
                     [--no-timing] [--emit-qdimacs] [--emit-blif] \
                     [--budget spec] [--circuit-budget spec] [--qbf-budget spec]\n\
                     or:    step cache stats <dir> | merge <out> <in>... | verify <dir>\n\
                     or:    step serve [--addr host:port] ... (see step serve --help)\n\
                     or:    step client <host:port> <circuit> ... (see step client --help)\n\
                     or:    step synthesize <circuit> ... (see step synthesize --help)\n\
                     budget spec: wall:<dur> | work:<conflicts> | both:<dur>,<conflicts> \
                     | unlimited (e.g. --budget work:200k for deterministic truncation)";

/// The plain `step` flags; `Ok(None)` on `--help`.
fn parse_cli(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        path: String::new(),
        model: Model::QbfDisjoint,
        op: GateOp::Or,
        weights: None,
        output: None,
        jobs: 1,
        progress: false,
        seed: None,
        sat_restarts: RestartPolicy::default(),
        sat_preprocess: false,
        reuse: ReuseOpts::default(),
        no_timing: false,
        emit_qdimacs: false,
        emit_blif: false,
        budget: BudgetPolicy::default(),
    };
    // Whether the user explicitly chose per-call/per-circuit budgets:
    // a pure-work `--budget` lifts unset wall defaults below so the
    // determinism promise holds.
    let mut qbf_budget_set = false;
    let mut circuit_budget_set = false;
    let mut model_set = false;
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg() {
        match arg {
            "--model" => {
                cli.model = args.model()?;
                model_set = true;
            }
            "--op" => cli.op = args.op()?,
            "--weights" => cli.weights = Some((args.parse()?, args.parse()?)),
            "--output" => cli.output = Some(args.parse()?),
            "--jobs" => cli.jobs = args.count()?,
            "--progress" => cli.progress = true,
            "--seed" => cli.seed = Some(args.parse()?),
            "--sat-restarts" => cli.sat_restarts = args.parse()?,
            "--sat-preprocess" => cli.sat_preprocess = true,
            "--no-timing" => cli.no_timing = true,
            "--emit-qdimacs" => cli.emit_qdimacs = true,
            "--emit-blif" => cli.emit_blif = true,
            // `--budget` is the per-output limit, the paper's central
            // truncation knob.
            "--budget" => cli.budget.per_output = args.budget()?,
            "--circuit-budget" => {
                cli.budget.per_circuit = args.budget()?;
                circuit_budget_set = true;
            }
            "--qbf-budget" => {
                cli.budget.per_qbf_call = args.budget()?;
                qbf_budget_set = true;
            }
            "--help" | "-h" => return Ok(None),
            _ if cli.reuse.parse_flag(&mut args)? => {}
            other if cli.path.is_empty() && !other.starts_with('-') => {
                cli.path = other.to_owned();
            }
            _ => return Err(args.error("unknown option")),
        }
    }
    if cli.path.is_empty() {
        return Err("<circuit>: missing argument".to_owned());
    }
    // The weights are STEP-QDB's cost function (Definition 4).
    if cli.weights.is_some() {
        if model_set && cli.model != Model::QbfCombined {
            return Err(format!(
                "--weights: applies to --model qdb only, not --model {}",
                cli.model.name()
            ));
        }
        cli.model = Model::QbfCombined;
    }
    cli.budget
        .lift_unset_walls_for_pure_work(qbf_budget_set, circuit_budget_set);
    Ok(Some(cli))
}

/// `step cache <verb> ...` — persistent-store management. Always exits.
fn cache_command(args: &[String]) -> ! {
    let open = |dir: &str| match DiskTier::open(Path::new(dir)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cache dir {dir}: {e}");
            std::process::exit(1);
        }
    };
    match (args.first().map(String::as_str), args.len()) {
        (Some("stats"), 2) => {
            let tier = open(&args[1]);
            println!("store: {} — {} entries", args[1], tier.len());
            for (kind, config, n) in tier.summaries() {
                println!("  {:<8} {n:>8}  [{config}]", kind.label());
            }
            println!(
                "  loaded {} record(s), {} corrupt, {} flushed",
                tier.loaded_records(),
                tier.corrupt_records(),
                tier.flushed_records()
            );
            std::process::exit(0);
        }
        (Some("merge"), n) if n >= 3 => {
            let out = open(&args[1]);
            let mut adopted = 0u64;
            for src in &args[2..] {
                adopted += out.merge_from(&open(src));
            }
            match out.flush() {
                Ok(written) => {
                    println!(
                        "merged {} store(s) into {}: {adopted} adopted, \
                         {written} written, {} entries total",
                        args.len() - 2,
                        args[1],
                        out.len()
                    );
                    std::process::exit(0);
                }
                Err(e) => {
                    eprintln!("error: flush {}: {e}", args[1]);
                    std::process::exit(1);
                }
            }
        }
        (Some("verify"), 2) => {
            let tier = open(&args[1]);
            if tier.corrupt_records() > 0 {
                eprintln!(
                    "{}: {} corrupt record(s) skipped, {} loaded",
                    args[1],
                    tier.corrupt_records(),
                    tier.loaded_records()
                );
                std::process::exit(1);
            }
            println!(
                "{}: ok — {} record(s) loaded cleanly",
                args[1],
                tier.loaded_records()
            );
            std::process::exit(0);
        }
        _ => usage_error(
            "cache: expected stats <dir>, merge <out> <in>... or verify <dir>",
            USAGE,
        ),
    }
}

/// Loads the circuit at `path`, converted to combinational, and prints
/// its summary line. Exits 1 if it cannot be loaded or converted.
fn load_circuit(path: &str) -> Aig {
    fn fail(e: impl std::fmt::Display) -> ! {
        eprintln!("error: {e}");
        std::process::exit(1)
    }
    let circuit = load_file(Path::new(path)).unwrap_or_else(|e| fail(e));
    let comb = if circuit.is_comb() {
        circuit
    } else {
        eprintln!("note: sequential circuit, applying comb conversion");
        circuit.comb().unwrap_or_else(|e| fail(e))
    };
    println!(
        "{}",
        table::circuit_line(
            path,
            comb.num_inputs() as u64,
            comb.num_outputs() as u64,
            comb.and_count() as u64
        )
    );
    comb
}

/// The run's tiered store. The directory was vetted at parse time, so
/// a load failure here means it changed under us and is worth an exit.
fn build_store(reuse: &ReuseOpts) -> Arc<TieredStore> {
    reuse.build_store().unwrap_or_else(|e| {
        let dir = reuse.cache_dir.as_deref().unwrap_or(Path::new(""));
        eprintln!("error: cache dir {}: {e}", dir.display());
        std::process::exit(1)
    })
}

/// The wall-clock cell: milliseconds, or `-` under `--no-timing` so
/// output is byte-identical across runs and `--jobs` values.
fn cpu_cell(cpu: Duration, no_timing: bool) -> String {
    table::cpu_cell(cpu.as_millis() as u64, no_timing)
}

/// Prints one per-output row; returns whether the output decomposed.
/// The row formats live in [`table`], shared with the network client
/// so `step client` output is byte-identical by construction.
fn print_result(cli: &Cli, out: &OutputResult) -> bool {
    match &out.partition {
        Some(p) => {
            println!(
                "{}",
                table::partition_row(
                    &out.name,
                    out.support as u64,
                    p.num_a() as u64,
                    p.num_b() as u64,
                    p.num_shared() as u64,
                    p.disjointness(),
                    p.balancedness(),
                    out.proved_optimal,
                    &cpu_cell(out.cpu, cli.no_timing)
                )
            );
            if cli.emit_blif {
                if let Some(d) = &out.decomposition {
                    let mut d = d.clone();
                    let combined = d.combine();
                    let mut net = d.aig.clone();
                    net.add_output(format!("{}_rebuilt", out.name), combined);
                    net.add_output(format!("{}_fA", out.name), d.fa);
                    net.add_output(format!("{}_fB", out.name), d.fb);
                    println!(
                        "{}",
                        qbf_bidec::aig::blif::write(
                            &net.compact(),
                            &format!("{}_decomposed", out.name)
                        )
                    );
                }
            }
            true
        }
        None => {
            println!(
                "{}",
                table::failure_row(&out.name, out.support as u64, out.timed_out)
            );
            false
        }
    }
}

const SYNTH_USAGE: &str = "usage: step synthesize <circuit.{bench,blif,aag}> \
    [--model ljh|mg|qd|qb|qdb] [--output idx] [--jobs n] [--seed n] \
    [--target-support n] [--max-depth n] [--budget spec] [--synth-budget spec] \
    [--qbf-budget spec] [--no-bdd-fallback] [--bdd-max-support n] [--no-verify] \
    [--render] [--sat-restarts luby|ema] [--sat-preprocess] \
    [--cache] [--no-cache] [--cache-cap n] \
    [--clause-reuse] [--no-clause-reuse] [--clause-bank-cap n] \
    [--cache-dir path] [--no-timing]\n\
    recursively bi-decomposes every output into a network of two-input \
    OR/AND/XOR gates over small leaves, SAT-verified equivalent.\n\
    --budget is the per-node scope (default work:20k), --synth-budget the \
    whole-synthesis pool (default unlimited), --qbf-budget the per-QBF-call \
    scope (default unlimited here, unlike plain step): every default is pure \
    work, so stdout under --no-timing is byte-identical across --jobs values";

struct SynthCli {
    path: String,
    model: Model,
    output: Option<usize>,
    jobs: usize,
    seed: Option<u64>,
    sat_restarts: RestartPolicy,
    sat_preprocess: bool,
    reuse: ReuseOpts,
    no_timing: bool,
    render: bool,
    opts: SynthOptions,
    qbf_budget: Budget,
}

/// The `step synthesize` flags; `Ok(None)` on `--help`.
fn parse_synth_cli(args: &[String]) -> Result<Option<SynthCli>, String> {
    let mut cli = SynthCli {
        path: String::new(),
        model: Model::QbfDisjoint,
        output: None,
        jobs: 1,
        seed: None,
        sat_restarts: RestartPolicy::default(),
        sat_preprocess: false,
        reuse: ReuseOpts::default(),
        no_timing: false,
        render: false,
        opts: SynthOptions {
            // Deterministic defaults: a pure-work per-node scope keeps
            // the emitted network independent of machine and --jobs.
            per_node: Budget::Work(20_000),
            ..SynthOptions::default()
        },
        qbf_budget: Budget::Unlimited,
    };
    let mut args = Args::new(args);
    while let Some(arg) = args.next_arg() {
        match arg {
            "--model" => cli.model = args.model()?,
            "--output" => cli.output = Some(args.parse()?),
            "--jobs" => cli.jobs = args.count()?,
            "--seed" => cli.seed = Some(args.parse()?),
            "--sat-restarts" => cli.sat_restarts = args.parse()?,
            "--sat-preprocess" => cli.sat_preprocess = true,
            "--target-support" => cli.opts.target_support = args.count()?,
            "--max-depth" => cli.opts.max_depth = Some(args.parse()?),
            "--no-bdd-fallback" => cli.opts.bdd_fallback = false,
            "--bdd-max-support" => cli.opts.bdd_max_support = args.parse()?,
            "--no-verify" => cli.opts.verify = false,
            "--render" => cli.render = true,
            "--no-timing" => cli.no_timing = true,
            // `--budget` here is the per-node scope of the recursion.
            "--budget" => cli.opts.per_node = args.budget()?,
            "--synth-budget" => cli.opts.synthesis = args.budget()?,
            "--qbf-budget" => cli.qbf_budget = args.budget()?,
            "--help" | "-h" => return Ok(None),
            _ if cli.reuse.parse_flag(&mut args)? => {}
            other if cli.path.is_empty() && !other.starts_with('-') => {
                cli.path = other.to_owned();
            }
            _ => return Err(args.error("unknown option")),
        }
    }
    if cli.path.is_empty() {
        return Err("<circuit>: missing argument".to_owned());
    }
    Ok(Some(cli))
}

/// One deterministic row of the synthesis table: network metrics and
/// expansion counters are pure functions of `(circuit, config,
/// options)` under deterministic budgets; only the cpu cell moves (and
/// `--no-timing` blanks it).
fn synth_row(out: &SynthOutput, no_timing: bool) -> String {
    format!(
        "{:<16} {:>4} {:>6} {:>7} {:>6} {:>8} {:>7} {:>4} {:>4}  {:<6} {:>8}",
        out.name,
        out.support,
        out.tree.num_gates(),
        out.tree.num_leaves(),
        out.tree.depth(),
        out.tree.max_leaf_support(),
        out.stats.nodes_expanded,
        out.stats.qbf_gates,
        out.stats.bdd_splits,
        if out.stats.truncated { "trunc" } else { "ok" },
        cpu_cell(out.stats.cpu, no_timing)
    )
}

/// `step synthesize <circuit> ...` — the multi-level synthesis
/// front-end over [`qbf_bidec::synth`]. Always exits.
fn synthesize_command(args: &[String]) -> ! {
    let cli = parsed_or_exit(parse_synth_cli(args), SYNTH_USAGE);
    let comb = load_circuit(&cli.path);

    let mut config = DecompConfig::new(cli.model);
    config.sat_restarts = cli.sat_restarts;
    config.sat_preprocess = cli.sat_preprocess;
    config.clause_reuse = cli.reuse.clause_reuse;
    config.budget.per_qbf_call = cli.qbf_budget;
    if let Some(seed) = cli.seed {
        config.seed = seed;
    }
    let store = build_store(&cli.reuse);
    // The recursion fans out well past the output count, so the pool
    // is NOT clamped to num_outputs here (unlike plain decomposition).
    let service = StepService::spawn_with_store(cli.jobs.max(1), Arc::clone(&store));
    let driver = SynthDriver::new(&service, config, cli.opts.clone());

    let indices: Vec<usize> = match cli.output {
        Some(i) => vec![i],
        None => (0..comb.num_outputs()).collect(),
    };
    println!(
        "{:<16} {:>4} {:>6} {:>7} {:>6} {:>8} {:>7} {:>4} {:>4}  {:<6} {:>8}",
        "output",
        "sup",
        "gates",
        "leaves",
        "depth",
        "leafsup",
        "expand",
        "qbf",
        "bdd",
        "status",
        "cpu"
    );
    let total = indices.len();
    let mut gates = 0usize;
    let mut complete = 0usize;
    for idx in indices {
        match driver.synthesize(&comb, idx) {
            Ok(out) => {
                println!("{}", synth_row(&out, cli.no_timing));
                if cli.render {
                    print!("{}", out.tree.render());
                }
                gates += out.tree.num_gates();
                if !out.stats.truncated {
                    complete += 1;
                }
            }
            Err(e) => {
                eprintln!("error on output {idx}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "synthesized {complete}/{total} output(s) to target support {}, {gates} gate(s) ({})",
        driver.options().target_support.max(1),
        cli.model
    );
    let stats = finish_store(&store);
    if !cli.no_timing {
        print!("{stats}");
    }
    std::process::exit(0)
}

fn main() {
    // `step cache ...` is a subcommand, not a circuit path; dispatch on
    // the raw argument list before flag parsing would swallow `cache`
    // as the positional circuit argument.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("cache") => cache_command(&raw[1..]),
        Some("serve") => qbf_bidec::serve::server::main(&raw[1..]),
        Some("client") => qbf_bidec::serve::client::main(&raw[1..]),
        Some("synthesize") => synthesize_command(&raw[1..]),
        _ => {}
    }
    let cli = parsed_or_exit(parse_cli(&raw), USAGE);
    let comb = load_circuit(&cli.path);

    if cli.emit_qdimacs {
        let idx = cli.output.unwrap_or(0);
        let Some(out) = comb.outputs().get(idx) else {
            eprintln!("error: output {idx} out of range");
            std::process::exit(1);
        };
        let cone = comb.cone(out.lit());
        let core = CoreFormula::build(&cone.aig, cone.root, cli.op);
        // The loosest weighted bound: every non-trivial partition meets it.
        let target = match cli.weights {
            Some((wd, wb)) => Target::Weighted {
                wd,
                wb,
                k: Metric::Weighted { wd, wb }.k_max(core.n),
            },
            None => Target::Any,
        };
        let model = export_qdimacs(&core, target, &ModelOptions::default());
        print!("{}", model.text);
        return;
    }

    let mut config = DecompConfig::new(cli.model);
    config.weights = cli.weights;
    config.budget = cli.budget;
    config.jobs = cli.jobs;
    config.sat_restarts = cli.sat_restarts;
    config.sat_preprocess = cli.sat_preprocess;
    config.clause_reuse = cli.reuse.clause_reuse;
    if let Some(seed) = cli.seed {
        config.seed = seed;
    }
    // One tiered store serves the whole run: the cache/bank as tier 0,
    // plus the persistent tier when --cache-dir was given.
    let store = build_store(&cli.reuse);

    println!("{}", table::header());
    let mut decomposed = 0usize;
    match cli.output {
        // Single output: one session, no queue.
        Some(idx) => {
            let mut engine = BiDecomposer::new(config);
            engine.set_store(Arc::clone(&store));
            match engine.decompose_output(&comb, idx, cli.op) {
                Ok(out) => {
                    if print_result(&cli, &out) {
                        decomposed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("error on output {idx}: {e}");
                    std::process::exit(1);
                }
            }
        }
        // Whole circuit: submit to a service worker pool and stream
        // per-output events off the handle (`--progress` narrates them
        // on stderr in completion order; the stdout table is printed
        // output-ordered at join, so stdout stays byte-identical to a
        // non-progress run).
        None => {
            // Clamp the pool to the output count — extra workers would
            // only idle on the queue.
            let workers = cli.jobs.min(comb.num_outputs()).max(1);
            let service = StepService::spawn_with_store(workers, Arc::clone(&store));
            let mut handle = match service.submit(&comb, cli.op, config) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            };
            let total = handle.num_outputs();
            let mut done = 0usize;
            while let Some(event) = handle.recv() {
                done += 1;
                if cli.progress {
                    match &event.result {
                        Ok(out) => eprintln!(
                            "progress: {done}/{total} {} {}",
                            out.name,
                            if out.partition.is_some() {
                                "decomposed"
                            } else if out.timed_out {
                                "timeout"
                            } else {
                                "not decomposable"
                            }
                        ),
                        Err(e) => {
                            eprintln!(
                                "progress: {done}/{total} output {}: {e}",
                                event.output_index
                            )
                        }
                    }
                }
            }
            match handle.join() {
                Ok(result) => {
                    for out in &result.outputs {
                        if print_result(&cli, out) {
                            decomposed += 1;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    println!("{}", table::footer(decomposed, &cli.model.to_string()));
    // Persist whatever the run learnt; the stats lines vary with
    // scheduling, so they hide with the wall clocks.
    let stats = finish_store(&store);
    if !cli.no_timing {
        print!("{stats}");
    }
}
