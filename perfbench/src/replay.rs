//! The per-layer replay of one output: the same public calls, in the
//! same order and with the same arguments, that a QBF-model solve
//! session makes (cone, canonicalization, store lookup, simulation
//! filter, core formula and oracle, STEP-MG bootstrap, optimum
//! search, store insert, extraction, verification) — each wrapped in
//! a span, and the solver calls each charged to one budget meter whose
//! spent effort is snapshotted around them.
//!
//! Clause reuse is not replayed: the workloads that replay run it off.

use std::time::Instant;

use step_aig::{canonicalize, Aig};
use step_core::extract::Decomposition;
use step_core::mg::{self, MgOutcome};
use step_core::optimum::{self, Metric};
use step_core::oracle::{sim_filter_pairs, CoreFormula, PartitionOracle};
use step_core::qbf_model::ModelOptions;
use step_core::{
    cone_seed, extract, verify, CachedResult, CircuitBudget, DecompConfig, EffortMeter,
    EffortStats, GateOp, Model, Namespace, TieredStore, VarPartition,
};

use crate::trace::Tracer;

/// What the replay of one output concluded, plus its layer counters.
#[derive(Clone, Debug, Default)]
pub struct Replayed {
    pub support: usize,
    pub partition: Option<VarPartition>,
    pub decomposition: Option<Decomposition>,
    pub solved: bool,
    pub proved_optimal: bool,
    pub timed_out: bool,
    /// Effort of the whole solve (bootstrap plus search).
    pub effort: EffortStats,
    pub mg_effort: EffortStats,
    pub mg_sat_calls: u64,
    pub optimum_effort: EffortStats,
    pub qbf_calls: u64,
    pub timeouts: u64,
    pub cegar_iterations: u64,
    /// Whether the store was consulted, and what it answered.
    pub store_lookup: bool,
    pub store_hit: bool,
    pub disk_hit: bool,
    pub store_insert: bool,
    /// Seed pairs examined and refuted by the simulation filter.
    pub pairs: u64,
    pub pairs_refuted: u64,
    /// A decomposition that failed extraction or verification.
    pub error: Option<String>,
}

fn minus(a: EffortStats, b: EffortStats) -> EffortStats {
    EffortStats {
        conflicts: a.conflicts - b.conflicts,
        decisions: a.decisions - b.decisions,
        propagations: a.propagations - b.propagations,
    }
}

fn metric_of(model: Model) -> Metric {
    match model {
        Model::QbfDisjoint => Metric::Disjointness,
        Model::QbfBalanced => Metric::Balancedness,
        _ => Metric::Combined,
    }
}

/// Replays output `out_idx` of `aig` under `op` and `config` (a QBF
/// model, clause reuse off), consulting and filling `store` when it
/// serves results. Spans go to `t` under request id `req`.
pub fn replay_output(
    aig: &Aig,
    out_idx: usize,
    op: GateOp,
    config: &DecompConfig,
    store: Option<&TieredStore>,
    t: &mut Tracer,
    req: u64,
) -> Replayed {
    t.span("output", req, |t| {
        solve(aig, out_idx, op, config, store, t, req)
    })
}

fn solve(
    aig: &Aig,
    out_idx: usize,
    op: GateOp,
    config: &DecompConfig,
    store: Option<&TieredStore>,
    t: &mut Tracer,
    req: u64,
) -> Replayed {
    let mut r = Replayed::default();
    let start = Instant::now();
    let mut meter = EffortMeter::new(start, config.budget.per_output, &CircuitBudget::default());
    let lit = aig.outputs()[out_idx].lit();
    let cone = t.span("aig.cone", req, |_| aig.cone(lit));
    r.support = cone.support_size();
    if r.support < 2 {
        r.solved = true;
        return r;
    }
    let canon = t.span("aig.canonicalize", req, |_| {
        canonicalize(&cone.aig, cone.root)
    });
    let translate = |classes: &[step_core::VarClass]| {
        VarPartition::new(
            (0..cone.support_size())
                .map(|i| classes[canon.perm[i]])
                .collect(),
        )
    };
    let store = store.filter(|s| s.serves_results());
    let ns = Namespace::results(config);

    let mut found: Option<VarPartition> = None;
    let cached = store.and_then(|s| {
        r.store_lookup = true;
        t.span("core.store.lookup", req, |_| {
            s.lookup_result(&ns, canon.fingerprint, op)
        })
    });
    if let Some((hit, from_disk)) = cached {
        r.store_hit = true;
        r.disk_hit = from_disk;
        r.solved = true;
        r.proved_optimal = hit.proved_optimal;
        found = hit.partition.as_deref().map(translate);
    } else {
        let candidates = config.sim_filter.then(|| {
            t.span("core.oracle.sim_filter", req, |_| {
                sim_filter_pairs(
                    &canon.aig,
                    canon.root,
                    op,
                    config.sim_rounds,
                    cone_seed(config.seed, canon.fingerprint.hash),
                )
            })
        });
        if let Some(c) = &candidates {
            let n = c.len() as u64;
            r.pairs = n * n.saturating_sub(1);
            r.pairs_refuted = c
                .iter()
                .enumerate()
                .flat_map(|(i, row)| row.iter().enumerate().filter(move |&(j, _)| i != j))
                .filter(|&(_, &alive)| !alive)
                .count() as u64;
        }
        let mut oracle = t.span("core.oracle.build", req, |_| {
            let core = CoreFormula::build(&canon.aig, canon.root, op);
            PartitionOracle::with_options(core, config.sat_restarts, config.sat_preprocess)
        });

        let before = meter.spent();
        let calls = oracle.sat_calls;
        let bootstrap = t.span("core.mg", req, |_| {
            mg::decompose(&mut oracle, candidates.as_deref(), &mut meter)
        });
        r.mg_effort = minus(meter.spent(), before);
        r.mg_sat_calls = oracle.sat_calls - calls;
        let bootstrap = match bootstrap {
            MgOutcome::Partition(p) | MgOutcome::TruncatedPartition(p) => Some(p),
            MgOutcome::NotDecomposable => {
                r.solved = true;
                r.proved_optimal = true;
                None
            }
            MgOutcome::Timeout => {
                r.timed_out = true;
                None
            }
        };
        if let Some(bootstrap) = bootstrap {
            let opts = ModelOptions {
                symmetry_breaking: config.symmetry_breaking,
                allow_both: config.allow_both,
                per_call: config.budget.per_qbf_call,
                restarts: config.sat_restarts,
                preprocess: config.sat_preprocess,
            };
            let before = meter.spent();
            let search = t.span("core.optimum", req, |_| {
                optimum::search(
                    oracle.core(),
                    metric_of(config.model),
                    Some(&bootstrap),
                    config.effective_strategy(),
                    &opts,
                    &mut meter,
                )
            });
            r.optimum_effort = minus(meter.spent(), before);
            r.qbf_calls = u64::from(search.qbf_calls);
            r.timeouts = u64::from(search.timeouts);
            r.cegar_iterations = search.cegar_iterations;
            r.proved_optimal = search.proved_optimal;
            r.solved = search.proved_optimal;
            r.timed_out = search.truncated;
            found = Some(search.partition.unwrap_or(bootstrap));
        }
        r.effort = meter.spent();
        if let Some(s) = store {
            if r.solved && !r.timed_out {
                r.store_insert = true;
                let value = CachedResult {
                    partition: found.as_ref().map(|p| p.classes().to_vec()),
                    proved_optimal: r.proved_optimal,
                };
                t.span("core.store.insert", req, |_| {
                    s.insert_result(&ns, canon.fingerprint, op, value)
                });
            }
        }
        found = found.map(|p| translate(p.classes()));
    }

    if let Some(p) = found {
        if config.extract {
            let d = t.span("core.extract", req, |_| {
                extract(&cone.aig, cone.root, op, &p, meter.deadline())
            });
            match d {
                Ok(d) => {
                    if config.verify {
                        let ok = t.span("core.verify", req, |_| verify(&d, meter.deadline()));
                        if let Err(e) = ok {
                            r.error = Some(format!("decomposition failed verification: {e}"));
                        }
                    }
                    r.decomposition = Some(d);
                }
                Err(step_core::ExtractError::Budget) => r.timed_out = true,
                Err(e) => r.error = Some(format!("extraction failed on a valid partition: {e}")),
            }
        }
        r.partition = Some(p);
    }
    r
}
