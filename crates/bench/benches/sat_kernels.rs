//! Criterion kernels for the CDCL SAT solver substrate.
//!
//! Besides the shim's wall-clock line, every kernel prints its
//! propagation rate (`<group>/<kernel>: N propagations/s`), the
//! machine-level speed of the inner solver independent of how much
//! search a kernel needs.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use step_cnf::{Lit, Var};
use step_sat::{RestartPolicy, SolveResult, Solver};

/// Runs one kernel under the shim's timer and prints its propagation
/// rate over all iterations; `run` returns the propagations one
/// iteration performed.
fn kernel(group: &str, g: &mut BenchmarkGroup<'_>, id: &str, mut run: impl FnMut() -> u64) {
    let mut propagations = 0u64;
    let start = Instant::now();
    g.bench_function(id, |b| b.iter(|| propagations += run()));
    let rate = propagations as f64 / start.elapsed().as_secs_f64();
    println!("{group}/{id}: {rate:.0} propagations/s");
}

fn pigeonhole(n: usize) -> (usize, Vec<Vec<Lit>>) {
    let pigeons = n + 1;
    let var = |p: usize, h: usize| Lit::pos(Var::new(p * n + h));
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..n).map(|h| var(p, h)).collect());
    }
    for h in 0..n {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![!var(p1, h), !var(p2, h)]);
            }
        }
    }
    (pigeons * n, clauses)
}

fn random_3sat(nvars: usize, nclauses: usize, seed: u64) -> Vec<Vec<Lit>> {
    let mut rnd = xorshift(seed);
    (0..nclauses)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let v = (rnd() % nvars as u64) as usize;
                    Lit::new(Var::new(v), rnd() & 1 == 0)
                })
                .collect()
        })
        .collect()
}

fn bench_sat(c: &mut Criterion) {
    const GROUP: &str = "sat_kernels";
    let mut g = c.benchmark_group(GROUP);
    g.sample_size(10);

    let (nv, clauses) = pigeonhole(6);
    kernel(GROUP, &mut g, "php6_unsat", || {
        let mut s = Solver::new();
        s.ensure_vars(nv);
        for cl in &clauses {
            s.add_clause(cl.iter().copied());
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        s.effort().propagations
    });

    // Clause ratio 3.5: almost surely satisfiable.
    let clauses = random_3sat(120, 420, 42);
    kernel(GROUP, &mut g, "random3sat_sat_phase", || {
        let mut s = Solver::new();
        s.ensure_vars(120);
        for cl in &clauses {
            s.add_clause(cl.iter().copied());
        }
        let _ = s.solve();
        s.effort().propagations
    });

    let (nv, clauses) = pigeonhole(4);
    kernel(GROUP, &mut g, "php4_with_proof", || {
        let mut s = Solver::new();
        s.enable_proof();
        s.ensure_vars(nv);
        for cl in &clauses {
            s.add_clause(cl.iter().copied());
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.proof().unwrap().empty_clause().is_some());
        s.effort().propagations
    });

    let cone = WideCone::new(64, 600, 11);
    kernel(GROUP, &mut g, "cegar_check_loop", || {
        cone.cegar_check_loop(300)
    });

    g.finish();
}

/// A seeded wide cone, Tseitin-encoded: `inputs` primary inputs
/// feeding random AND/XOR gates, with the negated root asserted — the
/// shape of the QBF models' CEGAR check solver, which looks for an input
/// assignment falsifying the cone under a candidate partition.
struct WideCone {
    inputs: usize,
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
    seed: u64,
}

impl WideCone {
    fn new(inputs: usize, gates: usize, seed: u64) -> Self {
        let mut rnd = xorshift(seed);
        let mut clauses = Vec::new();
        for g in inputs..inputs + gates {
            // Draw fanins mostly from recent signals so the cone is deep
            // as well as wide.
            let pick = |r: u64| Var::new(g - 1 - (r as usize % g.min(48)));
            let a = Lit::new(pick(rnd()), rnd() & 1 == 0);
            let b = Lit::new(pick(rnd()), rnd() & 1 == 0);
            let y = Lit::pos(Var::new(g));
            if rnd().is_multiple_of(3) {
                // y = a XOR b
                clauses.push(vec![!y, a, b]);
                clauses.push(vec![!y, !a, !b]);
                clauses.push(vec![y, !a, b]);
                clauses.push(vec![y, a, !b]);
            } else {
                // y = a AND b
                clauses.push(vec![!y, a]);
                clauses.push(vec![!y, b]);
                clauses.push(vec![y, !a, !b]);
            }
        }
        let root = Lit::pos(Var::new(inputs + gates - 1));
        clauses.push(vec![!root]);
        WideCone {
            inputs,
            num_vars: inputs + gates,
            clauses,
            seed,
        }
    }

    /// The CEGAR loop's call shape on one long-lived solver: solve
    /// under a fresh candidate (assumptions on a third of the inputs),
    /// then grow the formula with a refinement clause — the negated
    /// core on UNSAT, a blocking clause over the model on SAT. Returns
    /// the propagations performed.
    fn cegar_check_loop(&self, rounds: usize) -> u64 {
        let mut rnd = xorshift(self.seed ^ 0xCE6A);
        let mut s = Solver::new();
        s.ensure_vars(self.num_vars);
        for cl in &self.clauses {
            s.add_clause(cl.iter().copied());
        }
        for _ in 0..rounds {
            let mut assumptions: Vec<Lit> = Vec::new();
            while assumptions.len() < self.inputs / 3 {
                let v = Var::new(rnd() as usize % self.inputs);
                if !assumptions.iter().any(|l| l.var() == v) {
                    assumptions.push(Lit::new(v, rnd() & 1 == 0));
                }
            }
            match s.solve_with_assumptions(&assumptions) {
                SolveResult::Sat => {
                    let block: Vec<Lit> = (0..8)
                        .map(|_| {
                            let l = Lit::pos(Var::new(rnd() as usize % self.inputs));
                            if s.model_value(l) == Some(true) {
                                !l
                            } else {
                                l
                            }
                        })
                        .collect();
                    s.add_clause(block);
                }
                SolveResult::Unsat => {
                    let core: Vec<Lit> = s.failed_assumptions().iter().map(|&l| !l).collect();
                    if core.is_empty() {
                        break;
                    }
                    s.add_clause(core);
                }
                SolveResult::Unknown => unreachable!("unbudgeted solve"),
            }
        }
        s.effort().propagations
    }
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Builds a solver with the given kernel knobs over a clause list.
fn configured(
    nv: usize,
    clauses: &[Vec<Lit>],
    restarts: RestartPolicy,
    preprocess: bool,
) -> Solver {
    let mut s = Solver::new();
    s.set_restart_policy(restarts);
    s.set_preprocess(preprocess);
    s.ensure_vars(nv);
    for cl in clauses {
        s.add_clause(cl.iter().copied());
    }
    s
}

/// One ablation group per kernel heuristic, on a shared hard-UNSAT +
/// phase-transition workload: flip exactly one knob against the
/// defaults so a regression names the heuristic that caused it.
fn bench_kernel_ablations(c: &mut Criterion) {
    let (php_nv, php) = pigeonhole(6);
    // Ratio ~4.2: near the phase transition, where restarts matter.
    let hard = random_3sat(110, 462, 7);

    const RESTARTS: &str = "sat_restart_policy";
    let mut g = c.benchmark_group(RESTARTS);
    g.sample_size(10);
    for policy in [RestartPolicy::Luby, RestartPolicy::Ema] {
        kernel(RESTARTS, &mut g, &format!("php6/{policy}"), || {
            let mut s = configured(php_nv, &php, policy, false);
            assert_eq!(s.solve(), SolveResult::Unsat);
            s.effort().propagations
        });
        kernel(
            RESTARTS,
            &mut g,
            &format!("random3sat_hard/{policy}"),
            || {
                let mut s = configured(110, &hard, policy, false);
                let _ = s.solve();
                s.effort().propagations
            },
        );
    }
    g.finish();

    const PREPROCESS: &str = "sat_preprocess";
    let mut g = c.benchmark_group(PREPROCESS);
    g.sample_size(10);
    for preprocess in [false, true] {
        kernel(PREPROCESS, &mut g, &format!("php6/pp={preprocess}"), || {
            let mut s = configured(php_nv, &php, RestartPolicy::Luby, preprocess);
            assert_eq!(s.solve(), SolveResult::Unsat);
            s.effort().propagations
        });
        kernel(
            PREPROCESS,
            &mut g,
            &format!("random3sat_hard/pp={preprocess}"),
            || {
                let mut s = configured(110, &hard, RestartPolicy::Luby, preprocess);
                let _ = s.solve();
                s.effort().propagations
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_sat, bench_kernel_ablations);
criterion_main!(benches);
