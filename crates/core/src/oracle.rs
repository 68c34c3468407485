//! The *core formula* of the paper's formulations and the incremental
//! SAT oracle built on it.
//!
//! For a completely specified function `f` (an AIG cone) and operator
//! `<OP>`, [`CoreFormula::build`] constructs, as one AIG:
//!
//! * OR (formulation (2)):
//!   `f(X) ∧ ¬f(X') ∧ ∧ᵢ((xᵢ≡x'ᵢ)∨αᵢ) ∧ ¬f(X'') ∧ ∧ᵢ((xᵢ≡x''ᵢ)∨βᵢ)`
//! * AND: the OR core of `¬f` (duality, Section IV-B);
//! * XOR: the four-copy rectangle-parity core
//!   `(f(X)⊕f(X')⊕f(X'')⊕f(X''')) ∧ equalities`, with `X'''` tied to
//!   `X''` modulo `α` and to `X'` modulo `β`.
//!
//! An assignment of the `α`/`β` control inputs encodes a variable
//! partition (`(1,0)→XA`, `(0,1)→XB`, `(0,0)→XC`); the partition yields
//! a valid bi-decomposition iff the core is **unsatisfiable** under it
//! (Proposition 1 and its AND/XOR analogues).
//!
//! [`PartitionOracle`] Tseitin-encodes the core once into an
//! incremental SAT solver and answers per-partition queries through
//! assumptions — the engine behind the LJH baseline, seed-pair search
//! and decomposability checks. Every query runs under an
//! [`EffortMeter`]: the oracle derives the call's deadline and
//! conflict budget from it and charges the work the call spent, so
//! truncation under a [`Work`](crate::spec::Budget::Work) budget is
//! deterministic. [`sim_filter_pairs`] is the 64-bit
//! random-simulation pre-filter that discards seed pairs with a
//! simulated counterexample before any SAT call.

use step_aig::{Aig, AigLit};
use step_cnf::{tseitin::AigCnf, Cnf, Lit};
use step_sat::{LearntExport, SolveResult, Solver};

use crate::effort::EffortMeter;
use crate::partition::{VarClass, VarPartition};
use crate::spec::{Budget, GateOp};

/// Cap on clauses one oracle donates to the clause bank.
const BANK_MAX_CLAUSES: usize = 512;
/// Cap on variable activities carried in one donation.
const BANK_MAX_ACTIVITIES: usize = 256;
/// Per-clause conflict budget when vetting a near-twin donation
/// ([`PartitionOracle::import_vetted`]). A clause the recipient's unit
/// propagation (plus a few conflicts) cannot refute the negation of is
/// discarded, never trusted.
const VET_CONFLICTS: u64 = 8;

/// The paper's core formula as an AIG with designated control inputs.
#[derive(Clone, Debug)]
pub struct CoreFormula {
    /// The formula graph.
    pub aig: Aig,
    /// The core: satisfiable under `(α,β)` iff that partition fails.
    pub root: AigLit,
    /// Support size of the decomposed function.
    pub n: usize,
    /// The operator this core tests.
    pub op: GateOp,
    /// Primary-input indices of the `X` copy.
    pub x: Vec<usize>,
    /// Primary-input indices of the `X'` copy (α-relaxed).
    pub xp: Vec<usize>,
    /// Primary-input indices of the `X''` copy (β-relaxed).
    pub xpp: Vec<usize>,
    /// Primary-input indices of the `X'''` copy (XOR only; empty
    /// otherwise).
    pub xppp: Vec<usize>,
    /// Primary-input indices of the `α` controls.
    pub alpha: Vec<usize>,
    /// Primary-input indices of the `β` controls.
    pub beta: Vec<usize>,
}

impl CoreFormula {
    /// Builds the core for `root` of `cone` under `op`.
    ///
    /// `cone` must be a combinational AIG whose inputs are exactly the
    /// support of `root` (use [`step_aig::Aig::cone`]).
    pub fn build(cone: &Aig, root: AigLit, op: GateOp) -> Self {
        let n = cone.num_inputs();
        let mut aig = Aig::new();
        let add_block = |aig: &mut Aig, tag: &str| -> Vec<usize> {
            (0..n)
                .map(|i| {
                    aig.add_input(format!("{tag}{i}"));
                    aig.num_inputs() - 1
                })
                .collect()
        };
        let x = add_block(&mut aig, "x");
        let xp = add_block(&mut aig, "xp");
        let xpp = add_block(&mut aig, "xpp");
        let xppp = if op == GateOp::Xor {
            add_block(&mut aig, "xppp")
        } else {
            Vec::new()
        };
        let alpha = add_block(&mut aig, "a");
        let beta = add_block(&mut aig, "b");

        let import_copy = |aig: &mut Aig, block: &[usize]| -> AigLit {
            let mut map = std::collections::HashMap::new();
            for i in 0..n {
                map.insert(cone.input_node(i), aig.input(block[i]));
            }
            aig.import(cone, root, &mut map)
        };
        let f1 = import_copy(&mut aig, &x);
        let f2 = import_copy(&mut aig, &xp);
        let f3 = import_copy(&mut aig, &xpp);

        let body = match op {
            GateOp::Or => {
                let t = aig.and(f1, !f2);
                aig.and(t, !f3)
            }
            GateOp::And => {
                // OR core of ¬f.
                let t = aig.and(!f1, f2);
                aig.and(t, f3)
            }
            GateOp::Xor => {
                let f4 = import_copy(&mut aig, &xppp);
                let t = aig.xor(f1, f2);
                let u = aig.xor(f3, f4);
                aig.xor(t, u)
            }
        };

        let mut eqs = Vec::with_capacity(2 * n + 2 * xppp.len());
        for i in 0..n {
            let xi = aig.input(x[i]);
            let xpi = aig.input(xp[i]);
            let xppi = aig.input(xpp[i]);
            let ai = aig.input(alpha[i]);
            let bi = aig.input(beta[i]);
            let e1 = aig.xnor(xi, xpi);
            eqs.push(aig.or(e1, ai));
            let e2 = aig.xnor(xi, xppi);
            eqs.push(aig.or(e2, bi));
            if op == GateOp::Xor {
                let x3 = aig.input(xppp[i]);
                let e3 = aig.xnor(x3, xppi);
                eqs.push(aig.or(e3, ai));
                let e4 = aig.xnor(x3, xpi);
                eqs.push(aig.or(e4, bi));
            }
        }
        let eq_all = aig.and_many(&eqs);
        let core = aig.and(body, eq_all);

        CoreFormula {
            aig,
            root: core,
            n,
            op,
            x,
            xp,
            xpp,
            xppp,
            alpha,
            beta,
        }
    }

    /// All universal (`Y`) inputs: the circuit copies.
    pub fn y_pis(&self) -> Vec<usize> {
        let mut v = Vec::with_capacity(4 * self.n);
        v.extend_from_slice(&self.x);
        v.extend_from_slice(&self.xp);
        v.extend_from_slice(&self.xpp);
        v.extend_from_slice(&self.xppp);
        v
    }
}

/// The core's Tseitin encoding in one incremental solver, asserted
/// true and queried under assumptions on `α`/`β`. The CNF is a pure
/// function of the core: `α` variables first, then `β`, then the
/// auxiliaries in deterministic AIG order.
///
/// [`PartitionOracle`] keeps one warm across a session's queries; the
/// QBF models' counterexample check builds a fresh one per probe (see
/// [`crate::qbf_model`]).
pub(crate) struct CoreSolver {
    pub(crate) solver: Solver,
    alpha_lits: Vec<Lit>,
    beta_lits: Vec<Lit>,
    /// Literals of the circuit-copy inputs, in [`CoreFormula::y_pis`]
    /// order (`None` for an input the encoding never reached).
    copy_lits: Vec<Option<Lit>>,
}

impl CoreSolver {
    /// Encodes `core` into a fresh solver with the given kernel knobs.
    pub(crate) fn new(
        core: &CoreFormula,
        restarts: step_sat::RestartPolicy,
        preprocess: bool,
    ) -> Self {
        let mut cnf = Cnf::new();
        let mut enc = AigCnf::new();
        let mut bind = |pis: &[usize]| -> Vec<Lit> {
            pis.iter()
                .map(|&pi| {
                    let l = Lit::pos(cnf.new_var());
                    enc.bind(core.aig.input_node(pi), l);
                    l
                })
                .collect()
        };
        let alpha_lits = bind(&core.alpha);
        let beta_lits = bind(&core.beta);
        let r = enc.encode(&mut cnf, &core.aig, core.root);
        cnf.add_unit(r);
        let copy_lits = core
            .y_pis()
            .iter()
            .map(|&pi| enc.lookup(core.aig.input_node(pi)))
            .collect();
        let mut solver = Solver::new();
        solver.set_restart_policy(restarts);
        solver.set_preprocess(preprocess);
        solver.add_cnf(&cnf);
        CoreSolver {
            solver,
            alpha_lits,
            beta_lits,
            copy_lits,
        }
    }

    /// Solves under `α`/`β` fixed to the given vectors. The caller sets
    /// the solver's limits.
    pub(crate) fn solve(&mut self, alpha: &[bool], beta: &[bool]) -> SolveResult {
        let assumptions: Vec<Lit> = self
            .alpha_lits
            .iter()
            .zip(alpha)
            .map(|(&l, &v)| l.xor_sign(!v))
            .chain(
                self.beta_lits
                    .iter()
                    .zip(beta)
                    .map(|(&l, &v)| l.xor_sign(!v)),
            )
            .collect();
        self.solver.solve_with_assumptions(&assumptions)
    }

    /// After a SAT answer: the values of `X`, `X'`, `X''` (and `X'''`)
    /// in the model, in [`CoreFormula::y_pis`] order — the circuit
    /// copies of a counterexample to the queried partition.
    pub(crate) fn copies_model(&self) -> Vec<bool> {
        self.copy_lits
            .iter()
            .map(|l| l.and_then(|l| self.solver.model_value(l)).unwrap_or(false))
            .collect()
    }
}

/// Incremental SAT oracle answering "is partition `p` a valid
/// bi-decomposition partition?" through assumptions on the `α`/`β`
/// literals of one persistent CNF.
pub struct PartitionOracle {
    core: CoreFormula,
    enc: CoreSolver,
    /// SAT calls made so far (statistics for the evaluation tables).
    pub sat_calls: u64,
}

impl PartitionOracle {
    /// Encodes `core` into a fresh incremental solver with the default
    /// kernel knobs (Luby restarts, no preprocessing).
    pub fn new(core: CoreFormula) -> Self {
        Self::with_options(core, step_sat::RestartPolicy::default(), false)
    }

    /// Encodes `core` into a fresh incremental solver with the given
    /// restart policy and preprocessing flag.
    pub fn with_options(
        core: CoreFormula,
        restarts: step_sat::RestartPolicy,
        preprocess: bool,
    ) -> Self {
        PartitionOracle {
            enc: CoreSolver::new(&core, restarts, preprocess),
            core,
            sat_calls: 0,
        }
    }

    /// The underlying core formula.
    pub fn core(&self) -> &CoreFormula {
        &self.core
    }

    /// Checks a full partition. `Some(true)` = valid bi-decomposition
    /// partition (core UNSAT), `Some(false)` = invalid, `None` = budget
    /// expired.
    pub fn check(&mut self, p: &VarPartition, meter: &mut EffortMeter) -> Option<bool> {
        debug_assert_eq!(p.len(), self.core.n);
        let alpha: Vec<bool> = p.classes().iter().map(|&c| c == VarClass::A).collect();
        let beta: Vec<bool> = p.classes().iter().map(|&c| c == VarClass::B).collect();
        self.check_raw(&alpha, &beta, meter)
    }

    /// Checks raw `α`/`β` vectors (a variable may be relaxed in both
    /// copies). The call runs under `meter`'s limits and charges the
    /// effort it spent; an exhausted meter short-circuits to `None`
    /// without touching the solver.
    pub fn check_raw(
        &mut self,
        alpha: &[bool],
        beta: &[bool],
        meter: &mut EffortMeter,
    ) -> Option<bool> {
        if meter.exhausted() {
            return None;
        }
        let limits = meter.call_limits(Budget::Unlimited);
        self.enc.solver.set_deadline(limits.deadline);
        self.enc.solver.set_effort_budget(limits.conflicts);
        self.sat_calls += 1;
        let before = self.enc.solver.effort();
        let result = self.enc.solve(alpha, beta);
        meter.charge(self.enc.solver.effort().since(before));
        match result {
            SolveResult::Unsat => Some(true),
            SolveResult::Sat => Some(false),
            SolveResult::Unknown => None,
        }
    }

    /// Checks the seed partition `XA = {i}`, `XB = {j}`, rest shared.
    pub fn check_seed(&mut self, i: usize, j: usize, meter: &mut EffortMeter) -> Option<bool> {
        let mut alpha = vec![false; self.core.n];
        let mut beta = vec![false; self.core.n];
        alpha[i] = true;
        beta[j] = true;
        self.check_raw(&alpha, &beta, meter)
    }

    /// Snapshots this oracle's pinned (tier-core) learnt clauses and
    /// hottest variable activities for donation to the clause bank.
    ///
    /// Because the oracle CNF is a pure function of the *canonical*
    /// cone and the operator — `α` variables first, then `β`, then
    /// Tseitin auxiliaries in deterministic AIG order — the snapshot is
    /// already expressed in canonical-cone variable space: any oracle
    /// built for the same `(fingerprint, op)` has the identical CNF
    /// var-for-var, and the export needs no further mapping.
    pub fn export_learnts(&self) -> LearntExport {
        self.enc
            .solver
            .export_learnts(BANK_MAX_CLAUSES, BANK_MAX_ACTIVITIES)
    }

    /// Seeds this oracle verbatim from a donor built over the
    /// *identical* CNF (same canonical fingerprint, same operator).
    ///
    /// Learnt clauses are implied by the donor's clause database alone
    /// (assumption literals persist in clauses learnt under them), so
    /// replaying them into an identical database adds only implied
    /// clauses: verdicts and partitions cannot change, only the work
    /// needed to reach them. Returns the number of clauses added.
    pub fn import_learnts(&mut self, export: &LearntExport) -> u64 {
        self.enc.solver.import_learnts(export)
    }

    /// Seeds this oracle from a *near-twin* donor (same operator and
    /// support size, different fingerprint), vetting every clause.
    ///
    /// The donor's CNF is not identical, so its clauses carry no
    /// implication guarantee here. Each candidate `C` is probed by
    /// solving under the assumptions `¬C` with a tiny conflict budget:
    /// UNSAT proves the recipient's own clauses imply `C`, so adding it
    /// is answer-preserving; SAT or an exhausted probe discards it.
    /// Probes run under `meter` and charge the effort they spend; they
    /// are bookkeeping, not partition queries, so [`sat_calls`] is not
    /// incremented. Returns the number of clauses that survived vetting
    /// and were added.
    ///
    /// [`sat_calls`]: PartitionOracle::sat_calls
    pub fn import_vetted(&mut self, export: &LearntExport, meter: &mut EffortMeter) -> u64 {
        let nvars = self.enc.solver.num_vars();
        let mut kept = LearntExport::default();
        for clause in &export.clauses {
            if meter.exhausted() {
                break;
            }
            if clause.iter().any(|l| l.var().index() >= nvars) {
                continue;
            }
            let limits = meter.call_limits(Budget::Work(VET_CONFLICTS));
            self.enc.solver.set_deadline(limits.deadline);
            self.enc.solver.set_effort_budget(limits.conflicts);
            let before = self.enc.solver.effort();
            let negated: Vec<Lit> = clause.iter().map(|&l| !l).collect();
            let result = self.enc.solver.solve_with_assumptions(&negated);
            meter.charge(self.enc.solver.effort().since(before));
            if result == SolveResult::Unsat {
                kept.clauses.push(clause.clone());
            }
        }
        // Activity hints only steer branching order; merging them is
        // heuristically useful and needs no vetting.
        kept.activities = export.activities.clone();
        self.enc.solver.import_learnts(&kept)
    }
}

/// 64-bit random-simulation pre-filter: returns an `n×n` matrix where
/// `m[i][j] == false` means the seed pair `(i ∈ XA, j ∈ XB)` was
/// refuted by a simulated counterexample (the pair cannot seed a valid
/// partition). Surviving pairs still need the SAT oracle.
pub fn sim_filter_pairs(
    cone: &Aig,
    root: AigLit,
    op: GateOp,
    rounds: usize,
    seed: u64,
) -> Vec<Vec<bool>> {
    let n = cone.num_inputs();
    let mut alive = vec![vec![true; n]; n];
    let mut state = seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..rounds {
        let base: Vec<u64> = (0..n).map(|_| rnd()).collect();
        let base_words = cone.sim64(&base);
        let f0 = cone.sim_word(root, &base_words);
        // f with input i flipped, for every i.
        let mut flips = Vec::with_capacity(n);
        for i in 0..n {
            let mut w = base.clone();
            w[i] = !w[i];
            let words = cone.sim64(&w);
            flips.push(cone.sim_word(root, &words));
        }
        match op {
            GateOp::Or => {
                // Kill (i,j) when ∃ pattern: f=1 ∧ f^i=0 ∧ f^j=0.
                for i in 0..n {
                    let wi = f0 & !flips[i];
                    if wi == 0 {
                        continue;
                    }
                    for j in 0..n {
                        if i != j && alive[i][j] && wi & !flips[j] != 0 {
                            alive[i][j] = false;
                        }
                    }
                }
            }
            GateOp::And => {
                // Dual: f=0 ∧ f^i=1 ∧ f^j=1.
                for i in 0..n {
                    let wi = !f0 & flips[i];
                    if wi == 0 {
                        continue;
                    }
                    for j in 0..n {
                        if i != j && alive[i][j] && wi & flips[j] != 0 {
                            alive[i][j] = false;
                        }
                    }
                }
            }
            GateOp::Xor => {
                // Rectangle parity: f ⊕ f^i ⊕ f^j ⊕ f^{ij} = 1 kills.
                for i in 0..n {
                    for j in i + 1..n {
                        if !alive[i][j] && !alive[j][i] {
                            continue;
                        }
                        let mut w = base.clone();
                        w[i] = !w[i];
                        w[j] = !w[j];
                        let words = cone.sim64(&w);
                        let fij = cone.sim_word(root, &words);
                        if (f0 ^ flips[i] ^ flips[j] ^ fij) != 0 {
                            alive[i][j] = false;
                            alive[j][i] = false;
                        }
                    }
                }
            }
        }
    }
    for i in 0..n {
        alive[i][i] = false;
    }
    alive
}
