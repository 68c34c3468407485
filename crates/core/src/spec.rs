//! Configuration types: gate operators, models, targets, budgets and
//! search strategies.
//!
//! Budgets are expressed with the [`Budget`] type at three scopes
//! ([`BudgetPolicy`]): per QBF call, per primary output and per
//! circuit. A budget limits **wall clock**, **work** (solver
//! conflicts, the machine-independent unit), or both (whichever trips
//! first). Under a pure [`Budget::Work`] policy a run is fully
//! deterministic — which outputs time out, and with what partial
//! results, is byte-identical across machines, `--jobs` values and
//! background load — because no decision anywhere consults a clock.

use std::fmt;
use std::time::Duration;

use step_sat::RestartPolicy;

/// The two-input gate at the root of the bi-decomposition.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum GateOp {
    /// `f = fA ∨ fB`.
    Or,
    /// `f = fA ∧ fB` (the dual of OR, Section IV-B).
    And,
    /// `f = fA ⊕ fB`.
    Xor,
}

impl GateOp {
    /// All three operators, in the paper's order.
    pub const ALL: [GateOp; 3] = [GateOp::Or, GateOp::And, GateOp::Xor];

    /// The operator's name on the command line and on the wire
    /// (`or`, `and`, `xor`).
    pub fn name(self) -> &'static str {
        match self {
            GateOp::Or => "or",
            GateOp::And => "and",
            GateOp::Xor => "xor",
        }
    }

    /// The operator called `name` (the inverse of [`GateOp::name`]).
    pub fn from_name(name: &str) -> Option<GateOp> {
        GateOp::ALL.into_iter().find(|op| op.name() == name)
    }
}

impl std::fmt::Display for GateOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateOp::Or => write!(f, "OR"),
            GateOp::And => write!(f, "AND"),
            GateOp::Xor => write!(f, "XOR"),
        }
    }
}

/// Which bi-decomposition engine to run — the tools compared in the
/// paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Model {
    /// `LJH` — the SAT-based enumeration of Lee–Jiang–Hung (DAC'08),
    /// reimplementing the `Bi-dec` tool's best-quality mode.
    Ljh,
    /// `STEP-MG` — group-oriented MUS-based partitioning.
    MusGroup,
    /// `STEP-QD` — QBF model targeting optimum disjointness (5).
    QbfDisjoint,
    /// `STEP-QB` — QBF model targeting optimum balancedness (6).
    QbfBalanced,
    /// `STEP-QDB` — QBF model with the combined cost function (8),
    /// `1·disjointness + 1·balancedness`.
    QbfCombined,
}

impl Model {
    /// The full roster of the paper's evaluation, in table order.
    pub const ALL: [Model; 5] = [
        Model::Ljh,
        Model::MusGroup,
        Model::QbfDisjoint,
        Model::QbfBalanced,
        Model::QbfCombined,
    ];

    /// The model's name on the command line, on the wire and in store
    /// keys (`ljh`, `mg`, `qd`, `qb`, `qdb`).
    pub fn name(self) -> &'static str {
        match self {
            Model::Ljh => "ljh",
            Model::MusGroup => "mg",
            Model::QbfDisjoint => "qd",
            Model::QbfBalanced => "qb",
            Model::QbfCombined => "qdb",
        }
    }

    /// The model called `name` (the inverse of [`Model::name`]).
    pub fn from_name(name: &str) -> Option<Model> {
        Model::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Model::Ljh => write!(f, "LJH"),
            Model::MusGroup => write!(f, "STEP-MG"),
            Model::QbfDisjoint => write!(f, "STEP-QD"),
            Model::QbfBalanced => write!(f, "STEP-QB"),
            Model::QbfCombined => write!(f, "STEP-QDB"),
        }
    }
}

/// Strategy for searching the optimum bound `k` (Section IV-A-6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SearchStrategy {
    /// Monotonically increasing `k` (the paper's best for
    /// balancedness).
    MonotoneIncreasing,
    /// Monotonically decreasing `k`.
    MonotoneDecreasing,
    /// Dichotomic divide-and-conquer (binary search).
    Binary,
    /// The paper's best pipeline for disjointness: a few MD steps, a
    /// binary-search phase, then MI to close the interval.
    MdBinMi,
}

/// One budget: how much a unit of solving (a QBF call, an output, a
/// circuit) may cost before it is truncated.
///
/// * [`Budget::Wall`] — elapsed wall-clock time, the paper's setup.
///   Fast to check but machine- and load-dependent: the same run can
///   time out on one host and finish on another.
/// * [`Budget::Work`] — solver **conflicts**, the portable currency of
///   SAT/QBF effort (see [`step_sat::EffortStats`]). Deterministic:
///   truncation falls on the same solver call at the same conflict
///   count everywhere.
/// * [`Budget::Both`] — whichever trips first (a wall-clock safety net
///   over a deterministic work budget).
/// * [`Budget::Unlimited`] — no truncation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Budget {
    /// No limit.
    Unlimited,
    /// Wall-clock limit.
    Wall(Duration),
    /// Work limit, in solver conflicts.
    Work(u64),
    /// Both limits; whichever trips first truncates.
    Both {
        /// The wall-clock component.
        wall: Duration,
        /// The work component, in solver conflicts.
        work: u64,
    },
}

impl Budget {
    /// The wall-clock component, if any.
    pub fn wall(&self) -> Option<Duration> {
        match *self {
            Budget::Wall(d) | Budget::Both { wall: d, .. } => Some(d),
            _ => None,
        }
    }

    /// The work component (conflicts), if any.
    pub fn work(&self) -> Option<u64> {
        match *self {
            Budget::Work(w) | Budget::Both { work: w, .. } => Some(w),
            _ => None,
        }
    }

    /// Whether results under this budget are machine-independent: the
    /// budget never consults a clock (`Work` or `Unlimited`).
    pub fn is_deterministic(&self) -> bool {
        matches!(self, Budget::Work(_) | Budget::Unlimited)
    }

    /// This budget with its work component set to `work`, keeping any
    /// wall component (synthesis uses it to cap a probe by its node's
    /// share of the work pool).
    pub fn with_work(self, work: u64) -> Budget {
        match self {
            Budget::Wall(wall) | Budget::Both { wall, .. } => Budget::Both { wall, work },
            Budget::Work(_) | Budget::Unlimited => Budget::Work(work),
        }
    }

    /// Parses a budget specification:
    ///
    /// * `unlimited` (or `none`);
    /// * `wall:<n><ms|s|m|h>` — e.g. `wall:60s`, `wall:500ms`;
    /// * `work:<n>[k|m|g]` — conflicts, e.g. `work:200k`;
    /// * `both:<dur>,<n>` — e.g. `both:60s,200k`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed component.
    pub fn parse(s: &str) -> Result<Budget, String> {
        fn duration(s: &str) -> Result<Duration, String> {
            let (num, mul_ms) = if let Some(n) = s.strip_suffix("ms") {
                (n, 1u64)
            } else if let Some(n) = s.strip_suffix('s') {
                (n, 1000)
            } else if let Some(n) = s.strip_suffix('m') {
                (n, 60_000)
            } else if let Some(n) = s.strip_suffix('h') {
                (n, 3_600_000)
            } else {
                return Err(format!("duration `{s}` needs a unit (ms, s, m, h)"));
            };
            let n: u64 = num
                .parse()
                .map_err(|_| format!("bad duration value `{s}`"))?;
            Ok(Duration::from_millis(n.saturating_mul(mul_ms)))
        }
        fn work(s: &str) -> Result<u64, String> {
            let (num, mul) = if let Some(n) = s.strip_suffix(['k', 'K']) {
                (n, 1_000u64)
            } else if let Some(n) = s.strip_suffix(['m', 'M']) {
                (n, 1_000_000)
            } else if let Some(n) = s.strip_suffix(['g', 'G']) {
                (n, 1_000_000_000)
            } else {
                (s, 1)
            };
            let n: u64 = num
                .parse()
                .map_err(|_| format!("bad work (conflict) count `{s}`"))?;
            Ok(n.saturating_mul(mul))
        }
        match s {
            "unlimited" | "none" => Ok(Budget::Unlimited),
            _ => match s.split_once(':') {
                Some(("wall", d)) => Ok(Budget::Wall(duration(d)?)),
                Some(("work", w)) => Ok(Budget::Work(work(w)?)),
                Some(("both", rest)) => {
                    let (d, w) = rest
                        .split_once(',')
                        .ok_or_else(|| format!("`both:{rest}` needs `<duration>,<work>`"))?;
                    Ok(Budget::Both {
                        wall: duration(d)?,
                        work: work(w)?,
                    })
                }
                _ => Err(format!(
                    "bad budget `{s}` (expected wall:<dur>, work:<n>, both:<dur>,<n> \
                     or unlimited)"
                )),
            },
        }
    }
}

/// Round-trips through [`Budget::parse`].
impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn dur(f: &mut fmt::Formatter<'_>, d: Duration) -> fmt::Result {
            let ms = d.as_millis();
            if ms.is_multiple_of(1000) {
                write!(f, "{}s", ms / 1000)
            } else {
                write!(f, "{ms}ms")
            }
        }
        match *self {
            Budget::Unlimited => write!(f, "unlimited"),
            Budget::Wall(d) => {
                write!(f, "wall:")?;
                dur(f, d)
            }
            Budget::Work(w) => write!(f, "work:{w}"),
            Budget::Both { wall, work } => {
                write!(f, "both:")?;
                dur(f, wall)?;
                write!(f, ",{work}")
            }
        }
    }
}

/// Budgets at the three scopes of a run, mirroring the paper's
/// experimental setup (4 s per QBF call, 6000 s per circuit on their
/// hardware; scaled wall-clock defaults here). Any scope can instead
/// carry a deterministic [`Budget::Work`] limit — see the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BudgetPolicy {
    /// Limit per QBF (CEGAR) solve; the work component bounds the
    /// total inner-SAT conflicts of the call (CEGAR iterations charge
    /// their inner-SAT work to the QBF call).
    pub per_qbf_call: Budget,
    /// Limit per primary output.
    pub per_output: Budget,
    /// Limit per circuit. The wall component anchors when the
    /// circuit's first output starts; the work component is a shared
    /// pool every output of the circuit debits.
    pub per_circuit: Budget,
}

impl Default for BudgetPolicy {
    fn default() -> Self {
        BudgetPolicy {
            per_qbf_call: Budget::Wall(Duration::from_secs(4)),
            per_output: Budget::Wall(Duration::from_secs(60)),
            per_circuit: Budget::Wall(Duration::from_secs(6000)),
        }
    }
}

impl BudgetPolicy {
    /// The paper's exact setup.
    pub fn paper() -> Self {
        BudgetPolicy {
            per_qbf_call: Budget::Wall(Duration::from_secs(4)),
            per_output: Budget::Wall(Duration::from_secs(6000)),
            per_circuit: Budget::Wall(Duration::from_secs(6000)),
        }
    }

    /// A tight budget for smoke tests and CI.
    pub fn quick() -> Self {
        BudgetPolicy {
            per_qbf_call: Budget::Wall(Duration::from_millis(500)),
            per_output: Budget::Wall(Duration::from_secs(5)),
            per_circuit: Budget::Wall(Duration::from_secs(60)),
        }
    }

    /// A pure-work policy: `per_output` conflicts per output, no
    /// wall-clock or per-call/per-circuit limits — the fully
    /// deterministic configuration (results are byte-identical across
    /// machines and worker counts).
    pub fn work(per_output: u64) -> Self {
        BudgetPolicy {
            per_qbf_call: Budget::Unlimited,
            per_output: Budget::Work(per_output),
            per_circuit: Budget::Unlimited,
        }
    }

    /// Whether every scope is deterministic (no wall-clock component
    /// anywhere): the precondition for the byte-identical-results
    /// guarantee.
    pub fn is_deterministic(&self) -> bool {
        self.per_qbf_call.is_deterministic()
            && self.per_output.is_deterministic()
            && self.per_circuit.is_deterministic()
    }

    /// The command-line rule shared by the `step` CLI and the harness
    /// binaries: a pure-work per-output budget promises
    /// machine-independent results, which the default *wall* limits on
    /// the other scopes would silently break (a slow host trips the
    /// per-call wall inside a QBF solve where a fast one finishes).
    /// So when `per_output` is pure [`Budget::Work`], lift any wall
    /// default the user did not explicitly override (`qbf_set` /
    /// `circuit_set` say which scopes were set on the command line).
    pub fn lift_unset_walls_for_pure_work(&mut self, qbf_set: bool, circuit_set: bool) {
        if !matches!(self.per_output, Budget::Work(_)) {
            return;
        }
        if !qbf_set {
            self.per_qbf_call = Budget::Unlimited;
        }
        if !circuit_set {
            self.per_circuit = Budget::Unlimited;
        }
    }
}

/// `call=…;output=…;circuit=…` — the provenance string recorded in
/// `BENCH_*.json` (each component round-trips [`Budget::parse`]).
impl fmt::Display for BudgetPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "call={};output={};circuit={}",
            self.per_qbf_call, self.per_output, self.per_circuit
        )
    }
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct DecompConfig {
    /// Which engine/model to run.
    pub model: Model,
    /// Budgets.
    pub budget: BudgetPolicy,
    /// `k`-search strategy for the QBF models. Defaults to the paper's
    /// best choice per metric (MD→Bin→MI for disjointness, MI for
    /// balancedness and combined).
    pub strategy: Option<SearchStrategy>,
    /// STEP-QDB's cost weights `(ϖD, ϖB)` of the paper's Definition 4:
    /// with `Some((wd, wb))` the QDB search minimizes
    /// `wd·|XC| + wb·(|XA| − |XB|)`
    /// ([`Metric::Weighted`](crate::optimum::Metric::Weighted)); `None`
    /// keeps the combined cost (8). Read by [`Model::QbfCombined`]
    /// only; part of the result-cache key when set.
    pub weights: Option<(u32, u32)>,
    /// Add the `|XA| ≥ |XB|` symmetry-breaking constraint (paper
    /// Section IV-A-2). Always implied by the balancedness window.
    pub symmetry_breaking: bool,
    /// Permit `(αx, βx) = (1,1)` assignments (a variable usable in
    /// either block). Off by default: it never enables an otherwise
    /// impossible partition and shrinks the search space (see
    /// DESIGN.md §3.3).
    pub allow_both: bool,
    /// Extract `fA`/`fB` (interpolation / cofactoring) after
    /// partitioning.
    pub extract: bool,
    /// Verify extracted decompositions by SAT equivalence checking.
    pub verify: bool,
    /// Use 64-bit random simulation to pre-filter candidate seed pairs.
    pub sim_filter: bool,
    /// Random-simulation rounds for the pre-filter.
    pub sim_rounds: usize,
    /// Restart policy for every underlying SAT solver (the QBF models'
    /// inner CEGAR solvers and the LJH/MUS oracles). Both choices are
    /// deterministic; part of the result-cache key.
    pub sat_restarts: RestartPolicy,
    /// Enable the SAT solvers' bounded root-level preprocessing pass
    /// (subsumption, self-subsuming resolution, failed-literal
    /// probing). Off by default: the CEGAR loop's incremental re-solves
    /// usually lose more to re-preprocessing than they gain. Charged in
    /// conflict-equivalents, so `Work` budgets stay exact; part of the
    /// result-cache key.
    pub sat_preprocess: bool,
    /// Cross-output clause reuse: completed sessions donate their
    /// oracle's pinned learnt clauses to a shared
    /// [`ClauseBank`](crate::clause_bank::ClauseBank), which seeds the
    /// oracles of later sessions, and record search transcripts. Only *implied* clauses ever flow (exact donors share an
    /// identical CNF; near-twin donations are vetted per clause), so
    /// verdicts and partitions are byte-identical with this on or off;
    /// conflict counts drop, and at `jobs > 1` may vary with sibling
    /// completion order (see [`crate::clause_bank`]). Off by default;
    /// excluded from the result-cache key (it never changes answers).
    pub clause_reuse: bool,
    /// Worker threads for [`decompose_circuit`]: the ephemeral
    /// [`StepService`](crate::service::StepService) it spins up gets
    /// `jobs` persistent workers claiming outputs from the submission
    /// queue. Per-output results are identical for any value (see
    /// [`crate::session::cone_seed`]).
    ///
    /// [`decompose_circuit`]: crate::BiDecomposer::decompose_circuit
    pub jobs: usize,
    /// Base seed of the engine. Per-cone simulation seeds derive as
    /// `hash(seed, cone fingerprint)` ([`crate::session::cone_seed`]), so
    /// results depend neither on the order (or thread) in which outputs
    /// are visited nor on where in a circuit a cone appears —
    /// structurally identical cones always simulate the same patterns.
    pub seed: u64,
    /// Fault injection for the service's panic-containment regression
    /// tests: a worker panics right before solving this output index,
    /// exercising the pool-boundary `catch_unwind`. Always `None` in
    /// real configurations; excluded from the result-cache key.
    #[doc(hidden)]
    pub panic_on_output: Option<usize>,
}

impl DecompConfig {
    /// A configuration for `model` with defaults matching the paper's
    /// experimental setup (scaled budgets).
    pub fn new(model: Model) -> Self {
        DecompConfig {
            model,
            budget: BudgetPolicy::default(),
            strategy: None,
            weights: None,
            symmetry_breaking: true,
            allow_both: false,
            extract: true,
            verify: true,
            sim_filter: true,
            sim_rounds: 4,
            sat_restarts: RestartPolicy::default(),
            sat_preprocess: false,
            clause_reuse: false,
            jobs: 1,
            seed: 0x5DEECE66D,
            panic_on_output: None,
        }
    }

    /// The effective `k`-search strategy for this configuration.
    pub fn effective_strategy(&self) -> SearchStrategy {
        if let Some(s) = self.strategy {
            return s;
        }
        match self.model {
            Model::QbfDisjoint => SearchStrategy::MdBinMi,
            _ => SearchStrategy::MonotoneIncreasing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_tables_round_trip() {
        for model in Model::ALL {
            assert_eq!(Model::from_name(model.name()), Some(model));
        }
        for op in GateOp::ALL {
            assert_eq!(GateOp::from_name(op.name()), Some(op));
        }
        let models: Vec<&str> = Model::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(models, ["ljh", "mg", "qd", "qb", "qdb"]);
        let ops: Vec<&str> = GateOp::ALL.iter().map(|op| op.name()).collect();
        assert_eq!(ops, ["or", "and", "xor"]);
        for bad in ["", "QD", "STEP-QD", "nand", "OR"] {
            assert_eq!(Model::from_name(bad), None, "{bad:?}");
            assert_eq!(GateOp::from_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn budget_parse_accepts_the_documented_grammar() {
        assert_eq!(Budget::parse("unlimited"), Ok(Budget::Unlimited));
        assert_eq!(Budget::parse("none"), Ok(Budget::Unlimited));
        assert_eq!(
            Budget::parse("wall:60s"),
            Ok(Budget::Wall(Duration::from_secs(60)))
        );
        assert_eq!(
            Budget::parse("wall:500ms"),
            Ok(Budget::Wall(Duration::from_millis(500)))
        );
        assert_eq!(
            Budget::parse("wall:2m"),
            Ok(Budget::Wall(Duration::from_secs(120)))
        );
        assert_eq!(Budget::parse("work:200k"), Ok(Budget::Work(200_000)));
        assert_eq!(Budget::parse("work:1500"), Ok(Budget::Work(1500)));
        assert_eq!(Budget::parse("work:2M"), Ok(Budget::Work(2_000_000)));
        assert_eq!(
            Budget::parse("both:4s,10k"),
            Ok(Budget::Both {
                wall: Duration::from_secs(4),
                work: 10_000
            })
        );
    }

    #[test]
    fn budget_parse_rejects_malformed_specs() {
        for bad in [
            "", "wall:", "wall:60", "wall:xs", "work:", "work:abc", "both:4s", "both:,5", "secs:4",
            "60s",
        ] {
            assert!(Budget::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn budget_display_round_trips_through_parse() {
        for b in [
            Budget::Unlimited,
            Budget::Wall(Duration::from_secs(60)),
            Budget::Wall(Duration::from_millis(1500)),
            Budget::Work(200_000),
            Budget::Both {
                wall: Duration::from_millis(500),
                work: 123,
            },
        ] {
            assert_eq!(Budget::parse(&b.to_string()), Ok(b), "{b}");
        }
    }

    #[test]
    fn budget_components_and_determinism() {
        let both = Budget::Both {
            wall: Duration::from_secs(1),
            work: 5,
        };
        assert_eq!(both.wall(), Some(Duration::from_secs(1)));
        assert_eq!(both.work(), Some(5));
        assert_eq!(Budget::Unlimited.wall(), None);
        assert_eq!(Budget::Work(7).work(), Some(7));
        assert!(Budget::Work(7).is_deterministic());
        assert!(Budget::Unlimited.is_deterministic());
        assert!(!both.is_deterministic());
        assert!(!Budget::Wall(Duration::ZERO).is_deterministic());
        assert_eq!(
            Budget::Wall(Duration::from_secs(1)).with_work(9),
            Budget::Both {
                wall: Duration::from_secs(1),
                work: 9
            }
        );
        assert_eq!(Budget::Unlimited.with_work(9), Budget::Work(9));
        assert!(BudgetPolicy::work(100).is_deterministic());
        assert!(!BudgetPolicy::default().is_deterministic());
    }

    #[test]
    fn budget_policy_display_names_every_scope() {
        let p = BudgetPolicy::work(200_000);
        assert_eq!(
            p.to_string(),
            "call=unlimited;output=work:200000;circuit=unlimited"
        );
        assert_eq!(
            BudgetPolicy::default().to_string(),
            "call=wall:4s;output=wall:60s;circuit=wall:6000s"
        );
    }
}
