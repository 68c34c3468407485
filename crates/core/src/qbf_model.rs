//! The QBF formulations (Section IV) and their CEGAR solving.
//!
//! Formulation (4) of the paper:
//!
//! ```text
//!   ∃α,β ∀X,X',X''. ¬core(α,β,X,X',X'') ∧ fN(α,β) ∧ fT(α,β)
//! ```
//!
//! where `core` is [`crate::oracle::CoreFormula`], `fN` enforces
//! non-triviality (`AtLeast1(α) ∧ AtLeast1(β)`) and `fT` the metric
//! target:
//!
//! * disjointness (5):  `Σ ᾱᵢβ̄ᵢ ≤ k`
//! * balancedness (6):  `0 ≤ Σ αᵢβ̄ᵢ − Σ ᾱᵢβᵢ ≤ k`
//! * combined (8):      `0 ≤ Σ ᾱᵢβ̄ᵢ + Σ αᵢβ̄ᵢ − Σ ᾱᵢβᵢ ≤ k`
//!
//! plus the `|XA| ≥ |XB|` symmetry-breaking constraint (Section
//! IV-A-2). The paper hands the *negated* prenex form (9) to AReQS and
//! reads the partition from the counterexample; [`solve_partition`]
//! runs the same CEGAR scheme on the ∃∀ form directly and returns the
//! witness, which is the same object.
//!
//! # The CEGAR loop
//!
//! [`solve_partition`] specializes AReQS-style CEGAR to this formula.
//! It alternates two SAT solvers:
//!
//! * **Abstraction:** `α`, `β` and the ∃-side of [`encode_exists`],
//!   with the target's bound stated as assumptions (`Abstraction`).
//!   A model is a candidate partition. One optimum search keeps one
//!   abstraction warm across all its probes: fN and the counters are
//!   built once, and the refinements and learnt clauses of earlier
//!   probes carry over, since neither depends on `k`.
//! * **Check:** the core formula Tseitin-encoded once per probe, solved
//!   under the candidate's `α`/`β` as assumptions. UNSAT proves the
//!   candidate (Proposition 1): it is the witness. SAT yields a
//!   counterexample: circuit copies `X, X', X''` (and `X'''` for XOR)
//!   that make the core true under the candidate.
//! * **Refinement:** the cofactor of `¬core` at a counterexample is one
//!   clause over `α`/`β`, and the loop adds it to the abstraction
//!   directly: `∨{¬αᵢ : xᵢ≠x′ᵢ} ∨ ∨{¬βᵢ : xᵢ≠x″ᵢ}`. For XOR the
//!   `α`-part also covers `x″ᵢ≠x‴ᵢ` and the `β`-part `x′ᵢ≠x‴ᵢ`. No
//!   copy of the matrix and no auxiliary variable enters the
//!   abstraction.
//!
//! For OR and AND the counterexample is generalized first, so the
//! clause cuts off more candidates. The positions are walked in index
//! order: `X'` moves back toward `X` one position at a time, and each
//! flip is kept while the core body stays true; then `X''` does the
//! same. A test is one simulation of the core under `α = β = 1`, where
//! every equality holds, and one `sim64` word tests 64 candidate flips.
//! Taking the first success in index order gives the clause the
//! one-flip-at-a-time walk gives. XOR counterexamples are refined as
//! found, since the body's parity couples all four copies.
//!
//! The check does not reuse the session's
//! [`PartitionOracle`](crate::oracle::PartitionOracle), although it
//! encodes the same CNF.
//! That oracle's state depends on its query history (STEP-MG) and on
//! clause-bank imports, and so its counterexamples,
//! and with them the witness, would vary across reuse settings. The
//! check is fresh per probe and the abstraction belongs to one search,
//! so a whole search is a pure function of (cone, operator, metric,
//! strategy, starting bound, solver knobs), which the probe ledger's
//! replay and the determinism of `--jobs`, cache, reuse and store
//! settings rely on. (A check kept warm across probes as well spent
//! more conflicts end to end on the benchmark's wide cones.)
//!
//! # The ∃-side encoding
//!
//! [`encode_exists`] builds `fN ∧ fT` once, for both the CEGAR solve and
//! the QDIMACS export. Unless `allow_both` is set, `(αᵢ, βᵢ) = (1,1)`
//! is forbidden, so `XA`, `XB` and `XC` partition the `n` support
//! variables and `|XC| = n − |XA| − |XB|`. Every metric is then linear
//! in `(|XA|, |XB|)`:
//!
//! | metric | value in (\|XA\|, \|XB\|) |
//! |---|---|
//! | disjointness (5) | n − \|XA\| − \|XB\| |
//! | balancedness (6) | \|XA\| − \|XB\| |
//! | combined (8) | n − 2·\|XB\| |
//! | weighted (Definition 4) | wd·n + (wb−wd)·\|XA\| − (wd+wb)·\|XB\| |
//!
//! Two totalizers, `ta` over `α` and `tb` over `β`, therefore carry the
//! symmetry breaking and every windowed target: balancedness, combined
//! and weighted are each one `assert_linear_le` over them, and
//! combined collapses to the unit `|XB| ≥ ⌈(n−k)/2⌉`.
//!
//! Disjointness keeps its own totalizer `tc` over the products
//! `ᾱᵢ∧β̄ᵢ` and bounds it with one unit (in the solve, the assumption
//! `¬tc.count_ge(k+1)`). Stating `|XA| + |XB| ≥ n−k` instead is
//! equivalent but slower: summed over the effort golden's STEP-QD rows
//! (`tests/golden/effort.txt`, measured with one fresh abstraction per
//! probe), `tc` took 1 527 conflicts, `assert_linear_le` clauses over
//! `ta`/`tb` 2 420, and one totalizer over all of `α` and `β` 3 378.
//! The other bounds are `assert_linear_le` clauses, which the solve
//! adds guarded by a fresh activation literal: the probe assumes it,
//! and a unit retires it after the probe.
//!
//! Under `allow_both` a `(1,1)` pair belongs to neither block during
//! the solve (the witness assigns it afterwards), so `ta`/`tb` count
//! the products `αᵢ∧β̄ᵢ` and `ᾱᵢ∧βᵢ`, and the windowed targets count
//! such a pair as shared.

use std::time::Instant;
use step_cnf::card::{assert_count_dominates, assert_linear_le, at_least_one, Totalizer};

use step_cnf::{Cnf, Lit};
use step_sat::{SolveResult, Solver};

use crate::effort::EffortMeter;
use crate::oracle::{CoreFormula, CoreSolver};
use crate::partition::{VarClass, VarPartition};
use crate::spec::{Budget, DecompConfig, GateOp};

/// The `fT` target constraint attached to formulation (4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Target {
    /// No target — plain existence, formulation (3) + `fN`.
    Any,
    /// Equation (5): at most `k` shared variables.
    DisjointAtMost(usize),
    /// Equation (6): `0 ≤ |XA| − |XB| ≤ k`.
    BalancedWindow(usize),
    /// Equation (8): `0 ≤ |XC| + |XA| − |XB| ≤ k`.
    CombinedAtMost(usize),
    /// The general cost function of Definition 4 with integer weights:
    /// `0 ≤ wd·|XC| + wb·(|XA| − |XB|) ≤ k` under `|XA| ≥ |XB|`.
    /// `Weighted { wd: 1, wb: 1, .. }` coincides with
    /// [`Target::CombinedAtMost`]; other weights trade the two metrics
    /// off (the paper's "user-specified cost functions").
    Weighted {
        /// Weight `ϖD` of the disjointness count.
        wd: u32,
        /// Weight `ϖB` of the balance difference.
        wb: u32,
        /// The bound.
        k: usize,
    },
}

/// Options shared by all QBF model solves. Run-scope limits (the
/// per-output deadline and work budget) live in the
/// [`EffortMeter`] handed to [`solve_partition`]; the options only
/// carry the per-call budget.
#[derive(Clone, Copy, Debug)]
pub struct ModelOptions {
    /// Add `|XA| ≥ |XB|` (implied by the balanced/combined windows).
    pub symmetry_breaking: bool,
    /// Allow `(αᵢ, βᵢ) = (1,1)` (see DESIGN.md §3.3).
    pub allow_both: bool,
    /// Budget for one QBF solve — the paper's 4-second per-call
    /// timeout, or its deterministic [`Budget::Work`] analogue (total
    /// inner-SAT conflicts of the CEGAR call).
    pub per_call: Budget,
    /// Restart policy for the CEGAR engine's inner SAT solvers.
    pub restarts: step_sat::RestartPolicy,
    /// Bounded root-level preprocessing in the inner SAT solvers.
    pub preprocess: bool,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            symmetry_breaking: true,
            allow_both: false,
            per_call: Budget::Unlimited,
            restarts: step_sat::RestartPolicy::default(),
            preprocess: false,
        }
    }
}

impl From<&DecompConfig> for ModelOptions {
    /// The options a configuration's QBF solves run under.
    fn from(config: &DecompConfig) -> Self {
        ModelOptions {
            symmetry_breaking: config.symmetry_breaking,
            allow_both: config.allow_both,
            per_call: config.budget.per_qbf_call,
            restarts: config.sat_restarts,
            preprocess: config.sat_preprocess,
        }
    }
}

/// Outcome of one QBF model solve (one point of the `k` search).
#[derive(Clone, Debug, PartialEq)]
pub enum QbfModelOutcome {
    /// A partition meeting the target.
    Partition(VarPartition),
    /// No partition meets the target.
    NoPartition,
    /// Budget expired.
    Timeout,
}

/// Statistics of a QBF model solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct QbfModelStats {
    /// CEGAR iterations of the underlying 2QBF engine.
    pub cegar_iterations: u64,
}

/// Solves formulation (4) for the given target on a fresh
/// `Abstraction` (one probe; [`crate::optimum`] keeps one abstraction
/// warm across a search's probes instead). The call's limits are
/// the per-call budget in `opts` capped by what remains of `meter`
/// (deadline and work alike), and the whole CEGAR run's inner-SAT
/// effort is charged to `meter` afterwards — so per-output work
/// budgets account QBF solving exactly like oracle SAT calls.
pub fn solve_partition(
    core: &CoreFormula,
    target: Target,
    opts: &ModelOptions,
    meter: &mut EffortMeter,
) -> (QbfModelOutcome, QbfModelStats) {
    solve_partition_observed(core, target, opts, meter, &mut |_, _, _| {})
}

/// An observer of the CEGAR loop's refinements, called with the
/// refuted candidate `[α, β]`, the generalized counterexample's circuit
/// copies (in [`CoreFormula::y_pis`] order) and the clause added to the
/// abstraction. In the clause `αᵢ` is variable `i` and `βᵢ` variable
/// `n + i`, so [`Lit::eval`] evaluates it on an `[α, β]` vector.
pub(crate) type OnRefine<'a> = dyn FnMut(&[bool], &[bool], &[Lit]) + 'a;

/// [`solve_partition`], calling `on_refine` at every refinement.
pub(crate) fn solve_partition_observed(
    core: &CoreFormula,
    target: Target,
    opts: &ModelOptions,
    meter: &mut EffortMeter,
    on_refine: &mut OnRefine<'_>,
) -> (QbfModelOutcome, QbfModelStats) {
    Abstraction::new(core.n, target, opts).probe(core, target, opts, meter, on_refine)
}

/// The ∃-side of one `k`-search, kept warm across its probes: a SAT
/// solver over `α`, `β`, `fN`, the symmetry breaking and the counters
/// a bound on `k` is stated over, all built once. A probe states its
/// bound as assumptions and nothing else, so every clause the solver
/// holds or learns stays valid for every later probe: refinements are
/// cofactors of `¬core`, which no `k` enters.
pub(crate) struct Abstraction {
    solver: Solver,
    alpha: Vec<Lit>,
    beta: Vec<Lit>,
    bound: Bound,
}

impl Abstraction {
    /// The ∃-side for the targets of `target`'s metric over `n`
    /// support variables (the bound `k` of `target` is not used).
    pub(crate) fn new(n: usize, target: Target, opts: &ModelOptions) -> Self {
        let mut cnf = Cnf::new();
        let alpha: Vec<Lit> = (0..n).map(|_| Lit::pos(cnf.new_var())).collect();
        let beta: Vec<Lit> = (0..n).map(|_| Lit::pos(cnf.new_var())).collect();
        let bound = encode_unbounded(
            &mut cnf,
            &alpha,
            &beta,
            target,
            opts.symmetry_breaking,
            opts.allow_both,
        );
        let mut solver = Solver::new();
        solver.set_restart_policy(opts.restarts);
        solver.set_preprocess(opts.preprocess);
        solver.add_cnf(&cnf);
        Abstraction {
            solver,
            alpha,
            beta,
            bound,
        }
    }

    /// The assumptions that bound the metric by `target`'s `k` for one
    /// probe, and the activation literal to retire after it. The
    /// disjointness bound is the assumption `¬tc.count_ge(k+1)`; a
    /// linear bound's clauses are added guarded by a fresh activation
    /// literal, which is assumed.
    fn assume(&mut self, target: Target) -> (Vec<Lit>, Option<Lit>) {
        let n = self.alpha.len();
        match &self.bound {
            Bound::Nothing => (Vec::new(), None),
            Bound::Shared(tc) => {
                let over = tc.count_ge(target_k(target) + 1);
                (over.map(|l| !l).into_iter().collect(), None)
            }
            linear => {
                let mut cnf = Cnf::with_vars(self.solver.num_vars());
                linear.assert(&mut cnf, target, n);
                let act = Lit::pos(self.solver.new_var());
                for clause in cnf.clauses() {
                    self.solver.add_clause(clause.iter().copied().chain([!act]));
                }
                (vec![act], Some(act))
            }
        }
    }

    /// One probe of the CEGAR loop at `target`, which must be of the
    /// metric this abstraction was built for. The check is a fresh
    /// encoding of `core`; refinements stay in the abstraction. The
    /// probe's limits are the per-call budget in `opts` capped by what
    /// remains of `meter`, and count only this probe's own effort,
    /// which is charged to `meter` at the end.
    pub(crate) fn probe(
        &mut self,
        core: &CoreFormula,
        target: Target,
        opts: &ModelOptions,
        meter: &mut EffortMeter,
        on_refine: &mut OnRefine<'_>,
    ) -> (QbfModelOutcome, QbfModelStats) {
        let mut stats = QbfModelStats::default();
        if meter.exhausted() {
            return (QbfModelOutcome::Timeout, stats);
        }
        let n = core.n;
        let limits = meter.call_limits(opts.per_call);
        let (assumptions, act) = self.assume(target);
        let abs = &mut self.solver;
        abs.set_deadline(limits.deadline);
        let abs_start = abs.effort();

        // Check: a fresh encoding of the core, asserted under the candidate.
        let mut check = CoreSolver::new(core, opts.restarts, opts.preprocess);
        check.solver.set_deadline(limits.deadline);

        let spent = |abs: &Solver, check: &CoreSolver| {
            abs.effort().since(abs_start) + check.solver.effort()
        };
        // What is left of the probe's conflict budget for the next
        // inner solve.
        let remaining = |abs: &Solver, check: &CoreSolver| {
            limits
                .conflicts
                .map(|b| b.saturating_sub(spent(abs, check).conflicts))
        };
        let outcome = loop {
            if limits.deadline.is_some_and(|d| Instant::now() >= d)
                || remaining(abs, &check) == Some(0)
            {
                break QbfModelOutcome::Timeout;
            }
            stats.cegar_iterations += 1;

            abs.set_effort_budget(remaining(abs, &check));
            let candidate: Vec<bool> = match abs.solve_with_assumptions(&assumptions) {
                SolveResult::Unsat => break QbfModelOutcome::NoPartition,
                SolveResult::Unknown => break QbfModelOutcome::Timeout,
                SolveResult::Sat => self
                    .alpha
                    .iter()
                    .chain(&self.beta)
                    .map(|&l| abs.model_value(l).unwrap_or(false))
                    .collect(),
            };

            check.solver.set_effort_budget(remaining(abs, &check));
            match check.solve(&candidate[..n], &candidate[n..]) {
                SolveResult::Unsat => {
                    break QbfModelOutcome::Partition(witness_to_partition(&candidate, n))
                }
                SolveResult::Unknown => break QbfModelOutcome::Timeout,
                SolveResult::Sat => {
                    let mut copies = check.copies_model();
                    if core.op != GateOp::Xor {
                        generalize(core, &mut copies);
                    }
                    let clause = refinement(core, &copies, &self.alpha, &self.beta);
                    on_refine(&candidate, &copies, &clause);
                    abs.add_clause(clause);
                }
            }
        };
        if let Some(act) = act {
            abs.add_clause([!act]);
        }
        meter.charge(spent(abs, &check));
        (outcome, stats)
    }
}

/// The refinement for a counterexample with circuit copies `copies`
/// (in [`CoreFormula::y_pis`] order): the cofactor of `¬core` at them,
/// which is the one clause
/// `∨{¬αᵢ : xᵢ≠x′ᵢ} ∨ ∨{¬βᵢ : xᵢ≠x″ᵢ}`. Under XOR the `α`-part also
/// covers `x″ᵢ≠x‴ᵢ` and the `β`-part `x′ᵢ≠x‴ᵢ`: these are exactly the
/// equalities of the core that the `α`/`β` relax.
fn refinement(core: &CoreFormula, copies: &[bool], alpha: &[Lit], beta: &[Lit]) -> Vec<Lit> {
    let n = core.n;
    let (x, xp, xpp) = (&copies[..n], &copies[n..2 * n], &copies[2 * n..3 * n]);
    let xppp = (core.op == GateOp::Xor).then(|| &copies[3 * n..4 * n]);
    let relaxed_a = (0..n).filter(|&i| x[i] != xp[i] || xppp.is_some_and(|w| xpp[i] != w[i]));
    let relaxed_b = (0..n).filter(|&i| x[i] != xpp[i] || xppp.is_some_and(|w| xp[i] != w[i]));
    relaxed_a
        .map(|i| !alpha[i])
        .chain(relaxed_b.map(|i| !beta[i]))
        .collect()
}

/// Shrinks an OR/AND counterexample before it is refined: walking the
/// positions in index order, moves `X'` back toward `X` one position at
/// a time and keeps each flip while the core body stays true; then does
/// the same for `X''`. Each test simulates the core under `α = β = 1`,
/// where every equality holds and the core is its body. One `sim64`
/// word tests up to 64 candidate flips against the current copies;
/// taking the first success in index order and resuming after it gives
/// the clause the one-flip-at-a-time loop would give.
fn generalize(core: &CoreFormula, copies: &mut [bool]) {
    let n = core.n;
    let y = core.y_pis();
    let broadcast = |b: bool| if b { !0u64 } else { 0 };
    let mut words = vec![0u64; core.aig.num_inputs()];
    for &pi in core.alpha.iter().chain(&core.beta) {
        words[pi] = !0;
    }
    for (&pi, &v) in y.iter().zip(copies.iter()) {
        words[pi] = broadcast(v);
    }
    for block in [1, 2] {
        let at = |i: usize| block * n + i;
        let differing: Vec<usize> = (0..n).filter(|&i| copies[at(i)] != copies[i]).collect();
        let mut next = 0;
        while next < differing.len() {
            let batch = &differing[next..differing.len().min(next + 64)];
            // Pattern k flips position batch[k] back to its X value.
            for (k, &i) in batch.iter().enumerate() {
                words[y[at(i)]] ^= 1 << k;
            }
            let sim = core.aig.sim64(&words);
            let holds = core.aig.sim_word(core.root, &sim) & (u64::MAX >> (64 - batch.len()));
            for &i in batch {
                words[y[at(i)]] = broadcast(copies[at(i)]);
            }
            if holds == 0 {
                next += batch.len();
            } else {
                let k = holds.trailing_zeros() as usize;
                let i = batch[k];
                copies[at(i)] = copies[i];
                words[y[at(i)]] = broadcast(copies[i]);
                next += k + 1;
            }
        }
    }
}

/// Adds the ∃-side of formulation (4) over the control literals
/// `alpha`/`beta`: `fN`, the `fT` bound of `target`, and `|XA| ≥ |XB|`
/// (always for the windowed targets, under `symmetry` for
/// [`Target::Any`] and [`Target::DisjointAtMost`]). The CEGAR solve and
/// the QDIMACS export both build their ∃-side here, so the exported
/// matrix is the CNF that is solved; the solve states the bound itself
/// per probe (see `Abstraction`).
pub fn encode_exists(
    cnf: &mut Cnf,
    alpha: &[Lit],
    beta: &[Lit],
    target: Target,
    symmetry: bool,
    allow_both: bool,
) {
    encode_unbounded(cnf, alpha, beta, target, symmetry, allow_both).assert(
        cnf,
        target,
        alpha.len(),
    );
}

/// What a bound on a target's `k` is stated over.
enum Bound {
    /// [`Target::Any`]: no bound.
    Nothing,
    /// Disjointness: the totalizer `tc` over the products `ᾱᵢ∧β̄ᵢ`.
    Shared(Totalizer),
    /// The targets linear in `(|XA|, |XB|)`, with weights `(wd, wb)`.
    Linear {
        ta: Totalizer,
        tb: Totalizer,
        wd: i64,
        wb: i64,
    },
}

impl Bound {
    /// Adds the clauses bounding the metric by `target`'s `k`, for `n`
    /// support variables.
    fn assert(&self, cnf: &mut Cnf, target: Target, n: usize) {
        let k = target_k(target);
        match self {
            Bound::Nothing => {}
            Bound::Shared(tc) => tc.assert_le(cnf, k),
            // wd·|XC| + wb·(|XA| − |XB|) ≤ k with |XC| = n − |XA| − |XB|.
            Bound::Linear { ta, tb, wd, wb } => {
                assert_linear_le(cnf, ta, tb, wb - wd, wd + wb, k as i64 - wd * n as i64)
            }
        }
    }
}

/// The bound `k` of a target (0 for [`Target::Any`]).
fn target_k(target: Target) -> usize {
    match target {
        Target::Any => 0,
        Target::DisjointAtMost(k)
        | Target::BalancedWindow(k)
        | Target::CombinedAtMost(k)
        | Target::Weighted { k, .. } => k,
    }
}

/// [`encode_exists`] without the bound: `fN`, the symmetry breaking and
/// the counters of `target`'s metric, which the returned [`Bound`]
/// states a `k` over.
fn encode_unbounded(
    cnf: &mut Cnf,
    alpha: &[Lit],
    beta: &[Lit],
    target: Target,
    symmetry: bool,
    allow_both: bool,
) -> Bound {
    let n = alpha.len();
    // fN: non-trivial partition.
    at_least_one(cnf, alpha);
    at_least_one(cnf, beta);
    if !allow_both {
        for i in 0..n {
            cnf.add_clause([!alpha[i], !beta[i]]);
        }
    }
    // (wd, wb) of the targets linear in (|XA|, |XB|).
    let (shared, weights) = match target {
        Target::Any => (None, None),
        Target::DisjointAtMost(_) => {
            let products: Vec<Lit> = (0..n)
                .map(|i| define_and(cnf, !alpha[i], !beta[i]))
                .collect();
            (Some(Totalizer::new(cnf, &products)), None)
        }
        Target::BalancedWindow(_) => (None, Some((0, 1))),
        Target::CombinedAtMost(_) => (None, Some((1, 1))),
        Target::Weighted { wd, wb, .. } => (None, Some((i64::from(wd), i64::from(wb)))),
    };
    if weights.is_none() && !symmetry {
        return shared.map_or(Bound::Nothing, Bound::Shared);
    }
    // A (1,1) pair is in neither block, so under `allow_both` the
    // counters see the products α∧¬β and ¬α∧β.
    let (in_a, in_b): (Vec<Lit>, Vec<Lit>) = if allow_both {
        (0..n)
            .map(|i| {
                let a = define_and(cnf, alpha[i], !beta[i]);
                (a, define_and(cnf, !alpha[i], beta[i]))
            })
            .unzip()
    } else {
        (alpha.to_vec(), beta.to_vec())
    };
    let ta = Totalizer::new(cnf, &in_a);
    let tb = Totalizer::new(cnf, &in_b);
    assert_count_dominates(cnf, &ta, &tb);
    match (shared, weights) {
        (Some(tc), _) => Bound::Shared(tc),
        (None, Some((wd, wb))) => Bound::Linear { ta, tb, wd, wb },
        (None, None) => Bound::Nothing,
    }
}

/// Defines `t ↔ a ∧ b` with a fresh variable; returns `t`.
fn define_and(cnf: &mut Cnf, a: Lit, b: Lit) -> Lit {
    let t = Lit::pos(cnf.new_var());
    cnf.add_clause([!t, a]);
    cnf.add_clause([!t, b]);
    cnf.add_clause([t, !a, !b]);
    t
}

/// Maps a QBF witness over `[α₀..αₙ₋₁, β₀..βₙ₋₁]` to a partition.
/// `(1,1)` variables (possible only with `allow_both`) are assigned
/// greedily to the smaller block.
fn witness_to_partition(witness: &[bool], n: usize) -> VarPartition {
    let mut classes = Vec::with_capacity(n);
    let mut num_a = 0usize;
    let mut num_b = 0usize;
    let mut both = Vec::new();
    for i in 0..n {
        let (a, b) = (witness[i], witness[n + i]);
        classes.push(match (a, b) {
            (true, false) => {
                num_a += 1;
                VarClass::A
            }
            (false, true) => {
                num_b += 1;
                VarClass::B
            }
            (false, false) => VarClass::C,
            (true, true) => {
                both.push(i);
                VarClass::C // placeholder, fixed below
            }
        });
    }
    for i in both {
        if num_a <= num_b {
            classes[i] = VarClass::A;
            num_a += 1;
        } else {
            classes[i] = VarClass::B;
            num_b += 1;
        }
    }
    VarPartition::new(classes)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use step_aig::{Aig, AigLit};
    use step_sat::{SolveResult, Solver};

    /// The word-parallel generalization returns the copies of the scalar
    /// walk: flip one differing position of `X'` (then `X''`) back to
    /// `X` at a time, in index order, keeping the flip while the core
    /// body holds. `f` is an OR of 35 input pairs, so a walk over 70
    /// positions spans two `sim64` words and keeps every other flip.
    #[test]
    fn generalize_matches_the_scalar_walk() {
        let n = 70;
        let mut cone = Aig::new();
        let ins: Vec<AigLit> = (0..n).map(|i| cone.add_input(format!("x{i}"))).collect();
        let pairs: Vec<AigLit> = ins.chunks(2).map(|p| cone.and(p[0], p[1])).collect();
        let f = cone.or_many(&pairs);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut bit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        };
        for op in [GateOp::Or, GateOp::And] {
            let core = CoreFormula::build(&cone, f, op);
            let y = core.y_pis();
            let body = |copies: &[bool]| {
                let mut inputs = vec![true; core.aig.num_inputs()];
                for (&pi, &v) in y.iter().zip(copies) {
                    inputs[pi] = v;
                }
                core.aig.eval_lit(core.root, &inputs)
            };
            let mut checked = 0;
            for round in 0..40 {
                // f = 0 on the copies without a (1,1) pair, and f = 1 on
                // the others but for rare draws. Every fourth round
                // makes them all-zero and all-one: 70 differing positions.
                let zero_copies = if op == GateOp::Or { [1, 2] } else { [0, 0] };
                let mut copies: Vec<bool> = (0..3 * n)
                    .map(|j| match round % 4 {
                        0 => !zero_copies.contains(&(j / n)),
                        _ => bit() || bit(),
                    })
                    .collect();
                for c in zero_copies {
                    for i in (0..n).step_by(2) {
                        if copies[c * n + i] && copies[c * n + i + 1] {
                            copies[c * n + i + round % 2] = false;
                        }
                    }
                }
                if !body(&copies) {
                    continue;
                }
                checked += 1;
                let mut want = copies.clone();
                for block in [1, 2] {
                    for i in 0..n {
                        let j = block * n + i;
                        if want[j] != want[i] {
                            want[j] = want[i];
                            if !body(&want) {
                                want[j] = !want[j];
                            }
                        }
                    }
                }
                generalize(&core, &mut copies);
                assert_eq!(copies, want, "{op} round {round}");
            }
            assert!(checked >= 30, "{op}: only {checked} counterexamples drawn");
        }
    }

    /// Whether block sizes `(a, b, c)` = `(|XA|, |XB|, |XC|)` meet `fT` and
    /// the symmetry breaking that [`encode_exists`] asserts for `target`:
    /// the arithmetic the encoding must match.
    pub(crate) fn target_admits(
        target: Target,
        symmetry: bool,
        a: usize,
        b: usize,
        c: usize,
    ) -> bool {
        let dominance = symmetry || !matches!(target, Target::Any | Target::DisjointAtMost(_));
        let (a, b, c) = (a as i64, b as i64, c as i64);
        let within = |value: i64, k: usize| value <= k as i64;
        (!dominance || a >= b)
            && match target {
                Target::Any => true,
                Target::DisjointAtMost(k) => within(c, k),
                Target::BalancedWindow(k) => within(a - b, k),
                Target::CombinedAtMost(k) => within(c + a - b, k),
                Target::Weighted { wd, wb, k } => {
                    within(i64::from(wd) * c + i64::from(wb) * (a - b), k)
                }
            }
    }

    /// Every target at every `k ≤ 2n+2`, symmetry and `allow_both` on
    /// and off, for `n ≤ 5`: the ∃-side CNF is satisfiable under an
    /// (α, β) assignment exactly when `fN`, the symmetry breaking and
    /// the metric bound hold for it. Under `allow_both` a `(1,1)` pair
    /// is in neither block, and the windowed targets count it as shared.
    #[test]
    fn encode_exists_matches_arithmetic() {
        for n in 1..=5usize {
            let mut targets = vec![Target::Any];
            for k in 0..=2 * n + 2 {
                targets.extend([
                    Target::DisjointAtMost(k),
                    Target::BalancedWindow(k),
                    Target::CombinedAtMost(k),
                    Target::Weighted { wd: 2, wb: 1, k },
                    Target::Weighted { wd: 1, wb: 3, k },
                    Target::Weighted { wd: 3, wb: 1, k },
                ]);
            }
            for target in targets {
                for (symmetry, allow_both) in [(false, false), (true, false), (true, true)] {
                    let mut cnf = Cnf::new();
                    let alpha: Vec<Lit> = (0..n).map(|_| Lit::pos(cnf.new_var())).collect();
                    let beta: Vec<Lit> = (0..n).map(|_| Lit::pos(cnf.new_var())).collect();
                    encode_exists(&mut cnf, &alpha, &beta, target, symmetry, allow_both);
                    let mut solver = Solver::new();
                    solver.add_cnf(&cnf);
                    for m in 0..1usize << (2 * n) {
                        let (am, bm) = (m & ((1 << n) - 1), m >> n);
                        let assumptions: Vec<Lit> = (0..n)
                            .flat_map(|i| {
                                [
                                    Lit::new(alpha[i].var(), am >> i & 1 == 0),
                                    Lit::new(beta[i].var(), bm >> i & 1 == 0),
                                ]
                            })
                            .collect();
                        let a = (am & !bm).count_ones() as usize;
                        let b = (bm & !am).count_ones() as usize;
                        let c = match target {
                            Target::DisjointAtMost(_) => n - (am | bm).count_ones() as usize,
                            _ => n - a - b,
                        };
                        let want = (allow_both || am & bm == 0)
                            && am != 0
                            && bm != 0
                            && target_admits(target, symmetry, a, b, c);
                        let got = solver.solve_with_assumptions(&assumptions) == SolveResult::Sat;
                        assert_eq!(
                            got, want,
                            "n={n} {target:?} symmetry={symmetry} allow_both={allow_both} \
                             α={am:b} β={bm:b}"
                        );
                    }
                }
            }
        }
    }
}
