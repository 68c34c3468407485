//! A 2QBF solver based on counterexample-guided abstraction refinement
//! (CEGAR) — the algorithm of AReQS (Janota & Marques-Silva, SAT 2011),
//! which the paper uses to solve its bi-decomposition models.
//!
//! The central object is [`ExistsForall`], which decides formulas
//!
//! ```text
//!   ∃E ∀U . φ(E, U)
//! ```
//!
//! where the matrix `φ` is an AIG over two disjoint sets of primary
//! inputs. The paper's formulation (9) is the negation of its model
//! (4); instead of negating, this solver works on (4) directly and
//! returns the *witness* for the existential block — exactly the
//! variable partition STEP needs (the counterexample AReQS would report
//! for (9)).
//!
//! Each [`ExistsForall`] owns two incremental SAT solvers, the
//! abstraction (candidates for `E`) and the counterexample check
//! (`¬φ` under the candidate), and nothing outlives it:
//! [`ExistsForall::effort`] is the whole cost of a solve.
//!
//! A QDIMACS front-end ([`solve_qdimacs`]) handles standard 2QBF
//! instances for testing and interoperability.
//!
//! # Example
//!
//! ```
//! use step_aig::Aig;
//! use step_qbf::{ExistsForall, Qbf2Result};
//!
//! // ∃x ∀y . (x ∨ y) — valid with witness x = 1.
//! let mut aig = Aig::new();
//! let x = aig.add_input("x");
//! let y = aig.add_input("y");
//! let m = aig.or(x, y);
//! let mut solver = ExistsForall::new(aig, m, vec![0], vec![1]);
//! match solver.solve() {
//!     Qbf2Result::Valid(witness) => assert!(witness[0]),
//!     other => panic!("expected Valid, got {other:?}"),
//! }
//! ```

mod cegar;
mod qdimacs;

pub use cegar::{ExistsForall, Qbf2Config, Qbf2Result, Qbf2Stats};
pub use qdimacs::{solve_qdimacs, QbfOutcome, QdimacsError};
// The effort-counter vocabulary is shared with the SAT layer: a QBF
// call's effort is the sum of its inner solvers' (`ExistsForall::effort`).
// Likewise the restart-policy knob, which `Qbf2Config` forwards to the
// inner candidate and counterexample solvers.
pub use step_sat::{EffortStats, RestartPolicy};

// Compile-time audit: CEGAR solvers run inside worker threads of the
// parallel circuit driver (step-core), so they must stay
// `Send + Sync` — no `Rc` or thread-bound state on the solve path.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExistsForall>();
};

#[cfg(test)]
mod tests;
