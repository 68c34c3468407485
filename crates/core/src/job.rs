//! [`OutputJob`] — the pure, immutable description of one unit of
//! decomposition work.
//!
//! A job carries everything a worker needs to decompose one primary
//! output — the output index, the root operator and the budgets (its
//! own per-output [`Budget`] plus the shared circuit-scope
//! [`CircuitBudget`]) — and nothing else. Jobs contain no solver
//! state and are safe to hand to any thread: they are the unit of
//! work a [`StepService`](crate::service::StepService) worker claims
//! from a submission's queue. The mutable solving machinery lives in
//! [`crate::session::SolveSession`], which turns the job's budgets
//! into an [`EffortMeter`](crate::effort::EffortMeter).

use crate::effort::CircuitBudget;
use crate::spec::{Budget, DecompConfig, GateOp};

/// Derives the simulation seed for a cone from the engine's base seed
/// and the cone's canonical fingerprint hash.
///
/// The seed is a pure function `hash(base, fingerprint)` (a SplitMix64
/// finalizer folding both 64-bit halves of the fingerprint), so a given
/// cone always simulates the same random patterns regardless of which
/// output, circuit, thread or visitation order it was reached through —
/// and two structurally identical cones simulate *identical* patterns.
/// This is what makes [`crate::BiDecomposer::decompose_circuit`]
/// deterministic under `jobs > 1` *and* makes solved outcomes a pure
/// function of the result namespace's key
/// ([`crate::store::ConfigKey::results`]) and the canonical cone.
pub fn cone_seed(base: u64, fingerprint: u128) -> u64 {
    let mut z = base
        ^ (fingerprint as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((fingerprint >> 64) as u64).rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A unit of work for the circuit driver: decompose one primary output.
///
/// Pure description only — no cone, no formulas, no solvers. Workers
/// turn a job into a [`crate::session::SolveSession`] when they claim
/// it from the queue. Cloning is cheap: the circuit budget shares its
/// work pool rather than copying it.
#[derive(Clone, Debug)]
pub struct OutputJob {
    /// Index of the primary output to decompose.
    pub output_index: usize,
    /// Root operator of the bi-decomposition.
    pub op: GateOp,
    /// Budget for this output (the session anchors the wall component
    /// at construction time, before cone extraction; the work
    /// component meters solver conflicts).
    pub per_output: Budget,
    /// Shared circuit-scope limits, if the job is part of a circuit
    /// run: the shared deadline caps the per-output one, and the
    /// shared work pool is debited by every sibling output.
    pub circuit: CircuitBudget,
}

impl OutputJob {
    /// Builds the job for output `output_index` under `config` (no
    /// circuit-scope limits; attach them with
    /// [`with_circuit`](OutputJob::with_circuit)).
    pub fn new(config: &DecompConfig, output_index: usize, op: GateOp) -> Self {
        OutputJob {
            output_index,
            op,
            per_output: config.budget.per_output,
            circuit: CircuitBudget::default(),
        }
    }

    /// Caps the job by the shared circuit-scope budget.
    pub fn with_circuit(mut self, circuit: CircuitBudget) -> Self {
        self.circuit = circuit;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cone_seed_is_a_pure_spread_function() {
        let fp = 0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233u128;
        let a = cone_seed(42, fp);
        assert_eq!(a, cone_seed(42, fp), "pure function of (base, fingerprint)");
        assert_ne!(
            a,
            cone_seed(42, fp ^ 1),
            "distinct cones get distinct seeds"
        );
        assert_ne!(a, cone_seed(43, fp), "distinct bases get distinct seeds");
        assert_ne!(
            cone_seed(0, 1u128 << 64),
            cone_seed(0, 1),
            "both fingerprint halves feed the seed"
        );
    }

    #[test]
    fn job_carries_its_budgets() {
        use crate::spec::Model;
        let mut config = DecompConfig::new(Model::QbfDisjoint);
        config.budget.per_output = Budget::Work(123);
        let start = std::time::Instant::now();
        let circuit =
            CircuitBudget::anchored(Budget::Wall(std::time::Duration::from_secs(1)), start);
        let job = OutputJob::new(&config, 3, GateOp::Or).with_circuit(circuit);
        assert_eq!(job.output_index, 3);
        assert_eq!(job.per_output, Budget::Work(123));
        assert_eq!(
            job.circuit.deadline,
            Some(start + std::time::Duration::from_secs(1))
        );
    }
}
