use std::time::Instant;

use step_aig::{Aig, AigLit};
use step_cnf::{tseitin::AigCnf, Cnf, Lit, Var};
use step_sat::{EffortStats, RestartPolicy, SolveResult, Solver};

/// Result of a 2QBF solve.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Qbf2Result {
    /// `∃E ∀U. φ` holds; the witness assigns the existential block
    /// (indexed like the `e_pis` passed to [`ExistsForall::new`]).
    Valid(Vec<bool>),
    /// No assignment of the existential block works.
    Invalid,
    /// A budget expired first.
    Unknown,
}

/// Budgets for a 2QBF solve, mirroring the paper's per-QBF-call limits.
#[derive(Clone, Copy, Debug, Default)]
pub struct Qbf2Config {
    /// Maximum CEGAR iterations (`None` = unlimited).
    pub max_iterations: Option<u64>,
    /// Wall-clock deadline (`None` = unlimited).
    pub deadline: Option<Instant>,
    /// Total conflict budget for the whole QBF call (`None` =
    /// unlimited): every CEGAR iteration's inner-SAT work — candidate
    /// *and* counterexample solves — is charged against it, and the
    /// solve returns [`Qbf2Result::Unknown`] once it is spent. Unlike
    /// `deadline`, the cut-off is deterministic (conflicts, not wall
    /// clock), so a budgeted `Unknown` falls in the same place on
    /// every machine.
    pub effort_budget: Option<u64>,
    /// Restart policy for both inner SAT solvers (candidate and
    /// counterexample). Deterministic either way.
    pub restarts: RestartPolicy,
    /// Enables the inner solvers' bounded root-level preprocessing
    /// pass. Off by default: CEGAR re-solves the same formulas
    /// incrementally, where re-preprocessing rarely pays for itself.
    pub preprocess: bool,
}

/// Counters from a CEGAR run.
#[derive(Clone, Copy, Default, Debug)]
pub struct Qbf2Stats {
    /// Candidate/counterexample iterations performed.
    pub iterations: u64,
}

/// CEGAR solver for `∃E ∀U. φ(E,U)` with an AIG matrix.
///
/// See the [crate docs](crate) for the algorithm and an example.
pub struct ExistsForall {
    aig: Aig,
    matrix: AigLit,
    u_pis: Vec<usize>,
    abs: Solver,
    abs_cnf: Cnf,
    abs_sent: usize,
    abs_enc: AigCnf,
    e_vars: Vec<Var>,
    check: Solver,
    check_e_vars: Vec<Var>,
    check_u_vars: Vec<Var>,
    config: Qbf2Config,
    stats: Qbf2Stats,
}

impl ExistsForall {
    /// Creates a solver for `∃E ∀U. φ` where `matrix` = φ is a literal
    /// of `aig`, and `e_pis`/`u_pis` are the primary-input indices of
    /// the existential and universal blocks.
    ///
    /// # Panics
    ///
    /// Panics if the blocks overlap or do not cover the structural
    /// support of `matrix`.
    pub fn new(aig: Aig, matrix: AigLit, e_pis: Vec<usize>, u_pis: Vec<usize>) -> Self {
        let mut covered = vec![false; aig.num_inputs()];
        for &p in &e_pis {
            assert!(!covered[p], "input {p} in both blocks");
            covered[p] = true;
        }
        for &p in &u_pis {
            assert!(!covered[p], "input {p} in both blocks");
            covered[p] = true;
        }
        for p in aig.support(matrix) {
            assert!(covered[p], "matrix support input {p} not quantified");
        }

        // Abstraction solver: one stable variable per existential input.
        let mut abs = Solver::new();
        let mut abs_cnf = Cnf::new();
        let mut abs_enc = AigCnf::new();
        let e_vars: Vec<Var> = e_pis
            .iter()
            .map(|&p| {
                let v = abs_cnf.new_var();
                abs.ensure_vars(abs_cnf.num_vars());
                abs_enc.bind(aig.input_node(p), Lit::pos(v));
                v
            })
            .collect();

        // Check solver: ¬φ(E,U), solved under assumptions E = candidate.
        let mut check_cnf = Cnf::new();
        let mut check_enc = AigCnf::new();
        let mut bind = |pis: &[usize]| -> Vec<Var> {
            pis.iter()
                .map(|&p| {
                    let v = check_cnf.new_var();
                    check_enc.bind(aig.input_node(p), Lit::pos(v));
                    v
                })
                .collect()
        };
        let check_e_vars = bind(&e_pis);
        let check_u_vars = bind(&u_pis);
        let r = check_enc.encode(&mut check_cnf, &aig, matrix);
        check_cnf.add_unit(!r);
        let mut check = Solver::new();
        check.add_cnf(&check_cnf);

        ExistsForall {
            aig,
            matrix,
            u_pis,
            abs,
            abs_cnf,
            abs_sent: 0,
            abs_enc,
            e_vars,
            check,
            check_e_vars,
            check_u_vars,
            config: Qbf2Config::default(),
            stats: Qbf2Stats::default(),
        }
    }

    /// Replaces the solve budgets.
    pub fn set_config(&mut self, config: Qbf2Config) {
        self.config = config;
    }

    /// Counters from the CEGAR run so far.
    pub fn stats(&self) -> Qbf2Stats {
        self.stats
    }

    /// A monotone snapshot of the inner-SAT effort expended so far,
    /// summed over the abstraction and counterexample solvers — the
    /// per-QBF-call analogue of [`Solver::effort`](step_sat::Solver::effort).
    /// This is the quantity [`Qbf2Config::effort_budget`] bounds:
    /// CEGAR iterations charge their inner-SAT work to the QBF call.
    pub fn effort(&self) -> EffortStats {
        self.abs.effort() + self.check.effort()
    }

    /// Sets the total conflict budget for subsequent
    /// [`solve`](ExistsForall::solve) work (the deterministic analogue
    /// of a per-call wall-clock timeout; see
    /// [`Qbf2Config::effort_budget`]).
    pub fn set_effort_budget(&mut self, conflicts: Option<u64>) {
        self.config.effort_budget = conflicts;
    }

    /// The conflict budget for the next inner SAT call: what is left of
    /// the whole-call effort budget.
    fn inner_budget(&self, effort_start: u64) -> Option<u64> {
        self.config
            .effort_budget
            .map(|b| b.saturating_sub(self.effort().conflicts - effort_start))
    }

    /// Runs CEGAR to completion (or budget exhaustion).
    pub fn solve(&mut self) -> Qbf2Result {
        self.abs.set_deadline(self.config.deadline);
        self.check.set_deadline(self.config.deadline);
        self.abs.set_restart_policy(self.config.restarts);
        self.check.set_restart_policy(self.config.restarts);
        self.abs.set_preprocess(self.config.preprocess);
        self.check.set_preprocess(self.config.preprocess);
        // Baseline for the whole-call effort budget: every inner SAT
        // call below is capped by what remains of it, so the solve
        // stops at a deterministic, machine-independent conflict count.
        let effort_start = self.effort().conflicts;
        loop {
            if let Some(max) = self.config.max_iterations {
                if self.stats.iterations >= max {
                    return Qbf2Result::Unknown;
                }
            }
            if let Some(d) = self.config.deadline {
                if Instant::now() >= d {
                    return Qbf2Result::Unknown;
                }
            }
            if let Some(b) = self.config.effort_budget {
                if self.effort().conflicts - effort_start >= b {
                    return Qbf2Result::Unknown;
                }
            }
            self.stats.iterations += 1;

            // 1. Candidate from the abstraction.
            let budget = self.inner_budget(effort_start);
            self.abs.set_effort_budget(budget);
            let candidate = match self.abs.solve() {
                SolveResult::Unsat => return Qbf2Result::Invalid,
                SolveResult::Unknown => return Qbf2Result::Unknown,
                SolveResult::Sat => {
                    let m: Vec<bool> = self
                        .e_vars
                        .iter()
                        .map(|&v| self.abs.model_value(Lit::pos(v)).unwrap_or(false))
                        .collect();
                    m
                }
            };

            // 2. Counterexample check: ∃U. ¬φ(candidate, U)?
            let budget = self.inner_budget(effort_start);
            self.check.set_effort_budget(budget);
            let assumptions: Vec<Lit> = self
                .check_e_vars
                .iter()
                .zip(&candidate)
                .map(|(&v, &val)| Lit::new(v, !val))
                .collect();
            match self.check.solve_with_assumptions(&assumptions) {
                SolveResult::Unsat => return Qbf2Result::Valid(candidate),
                SolveResult::Unknown => return Qbf2Result::Unknown,
                SolveResult::Sat => {
                    let u_star: Vec<(usize, bool)> = self
                        .u_pis
                        .iter()
                        .zip(&self.check_u_vars)
                        .map(|(&pi, &v)| (pi, self.check.model_value(Lit::pos(v)).unwrap_or(false)))
                        .collect();
                    self.refine(&u_star);
                }
            }
        }
    }

    /// Adds the expansion copy `φ(E, u★)` to the abstraction.
    fn refine(&mut self, u_star: &[(usize, bool)]) {
        let cof = self.aig.cofactor_many(self.matrix, u_star);
        let lit = self.abs_enc.encode(&mut self.abs_cnf, &self.aig, cof);
        self.abs_cnf.add_unit(lit);
        self.abs.ensure_vars(self.abs_cnf.num_vars());
        for i in self.abs_sent..self.abs_cnf.num_clauses() {
            self.abs
                .add_clause(self.abs_cnf.clauses()[i].iter().copied());
        }
        self.abs_sent = self.abs_cnf.num_clauses();
    }
}
