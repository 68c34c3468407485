//! A CDCL SAT solver.
//!
//! This crate plays the role of the MiniSat-class engine underneath the
//! original STEP tool: conflict-driven clause learning with two-watched
//! literals, VSIDS branching with phase saving, selectable restart
//! policies ([`RestartPolicy`]: Luby, or Glucose-style LBD-EMA dynamic
//! restarts with trail-size blocking), three-tier LBD-based
//! learnt-clause database management (core clauses kept, the rest
//! reduced on a linear schedule) and an
//! optional bounded root-level preprocessing pass (subsumption,
//! self-subsuming resolution, failed-literal probing) charged in
//! conflict-equivalents ([`Solver::set_preprocess`]).
//!
//! Features the rest of the workspace builds on:
//!
//! * **incremental solving under assumptions** with failed-assumption
//!   cores ([`Solver::solve_with_assumptions`],
//!   [`Solver::failed_assumptions`]) — the engine behind the paper's
//!   LJH baseline, the group-MUS bootstrap and the CEGAR 2QBF loop;
//! * **resolution proof logging** ([`Solver::enable_proof`],
//!   [`Proof`]) — the input to Craig interpolation (`step-itp`),
//!   which extracts the decomposition functions `fA`/`fB`;
//! * **learnt-clause export/import** ([`Solver::export_learnts`],
//!   [`Solver::import_learnts`], [`LearntExport`]) — a `Send + Clone`
//!   snapshot of the pinned core-tier clauses and hottest activities,
//!   replayable into another solver over the same clause set — the
//!   kernel surface behind `step-core`'s cross-output clause reuse;
//! * **budgets** — wall-clock deadlines mirroring the paper's 4-second
//!   per-QBF-call and 6000-second per-circuit limits, plus
//!   deterministic *effort* budgets ([`Solver::set_effort_budget`],
//!   [`EffortStats`]) that truncate at an exact conflict count — the
//!   machine-independent currency `step-core`'s `Work` budgets meter.
//!
//! # Data layout
//!
//! All clauses live in one flat arena, a `Vec<u32>`. Each clause is a
//! six-word header followed by its literals inline. The header holds
//! the LBD, the proof id, the activity as exact `f64` bits, the flags
//! (learnt, deleted, tier, use credit) and the length. Watchers,
//! reasons and the learnt list hold arena offsets. Propagation compacts
//! each watch list in place. Conflict analysis walks reason clauses in
//! the arena and reuses solver-owned buffers. LBDs are counted with
//! per-level stamps, and proof mode reuses one cleared mark buffer. So
//! once its buffers have grown, the search loop does not allocate.
//!
//! Deleting a clause only flags it. After a database reduction or a
//! preprocessing pass, once dead words exceed a fifth of the arena, the
//! live clauses are copied, in their current order, into a fresh arena.
//! Watchers, reasons and the learnt list are then rewritten to the new
//! offsets, and watchers of dead clauses are dropped. The order is kept
//! because offsets are the last tie-break of clause-database reduction.
//! A long-lived incremental solver thus stays within a constant factor
//! of its live clauses.
//!
//! **Contract: layout changes never change the search.** The effort
//! trajectory (conflicts, decisions, propagations, restarts, learnts)
//! is pinned by `tests/trajectory.rs`. Above this crate, the workspace
//! effort golden pins per-model conflicts and propagations. A layout
//! change must leave both unchanged.
//!
//! # Example
//!
//! ```
//! use step_cnf::{Lit, Var};
//! use step_sat::{SolveResult, Solver};
//!
//! let mut s = Solver::new();
//! let x = s.new_var();
//! let y = s.new_var();
//! s.add_clause([Lit::pos(x), Lit::pos(y)]);
//! s.add_clause([Lit::neg(x)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.model_value(Lit::pos(y)), Some(true));
//! ```

mod arena;
mod heap;
mod solver;

pub mod proof;

pub use proof::{ClauseId, Proof, ProofStep};
pub use solver::{EffortStats, LearntExport, RestartPolicy, SolveResult, Solver, SolverStats};

// Compile-time audit: solver instances are created and driven inside
// worker threads of the parallel circuit driver (step-core), so they
// must stay `Send + Sync` — no `Rc`, raw pointers or thread-bound
// interior mutability may creep onto the solve path.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Solver>();
    assert_send_sync::<Proof>();
    // Learnt-clause exports travel between worker threads through the
    // clause bank in step-core.
    assert_send_sync::<LearntExport>();
};

#[cfg(test)]
mod tests;
