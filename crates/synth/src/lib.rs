//! Multi-level synthesis: recursive bi-decomposition as a first-class
//! workload on top of the [`StepService`].
//!
//! The paper motivates bi-decomposition as the inner step of
//! multi-level logic synthesis: recursively split each primary output
//! until the leaves are primitive, yielding a network of two-input
//! OR/AND/XOR gates. This crate runs that flow and emits a
//! [`DecompTree`]:
//!
//! * [`SynthDriver`] submits every frontier cone through a shared
//!   [`StepService`], so the recursion parallelizes across the
//!   service's workers and hits every reuse surface (result cache,
//!   clause bank, persistent store) like any other submission —
//!   recursion floods the engine with thousands of *related*
//!   sub-cones, which is exactly where those surfaces compound;
//! * expansion is scheduled in deterministic rounds: the frontier is
//!   ordered by canonical fingerprint then monotone node id, and
//!   same-fingerprint twins are held back until their leader's result
//!   is committed, so the emitted network (and, under a pure `Work`
//!   budget, the truncation frontier) is byte-identical at any
//!   `--jobs` count;
//! * per-node model selection falls back: the configured QBF/SAT model
//!   probes every operator first, and leaves that resist
//!   bi-decomposition are split by a BDD-guided Shannon cofactor step
//!   ([`step_bdd`]) that strictly shrinks support, so synthesis always
//!   reaches the target leaf size;
//! * stopping rules are [`Budget`]-integrated ([`SynthOptions`]): a
//!   per-node scope enforced by each session's
//!   [`EffortMeter`](step_core::EffortMeter), and a whole-synthesis
//!   scope sliced across expansions through the two-phase
//!   [`WorkLedger`] — the same mechanism that makes per-circuit work
//!   budgets deterministic in the engine;
//! * every emitted network is re-verified equivalent to the original
//!   cone by a single SAT miter check ([`network_equivalent`]), never
//!   by exhaustive simulation.
//!
//! # Determinism contract
//!
//! The emitted network is a pure function of `(circuit, config,
//! options)` whenever every budget in play is deterministic
//! ([`Budget::is_deterministic`]): rounds are barriered, the frontier
//! order is canonical, and the synthesis work pool is sliced by the
//! ledger in node order, so `--jobs N` reproduces `--jobs 1` byte for
//! byte. With clause reuse enabled, answers (and therefore the
//! network) are still identical while the pool does not bind, but the
//! *conflict counts* charged to a binding pool may shift with sibling
//! completion order — the engine's existing reuse contract. Run reuse
//! off (the default) when a binding synthesis pool must truncate
//! reproducibly.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use step_aig::{canonicalize, Aig, AigLit};
use step_bdd::Manager;
use step_cnf::tseitin::encode_standalone;
use step_core::{
    Budget, DecompConfig, DecompTree, EffortStats, GateOp, LeafFn, OutputResult, StepError,
    StepService, SubmitOptions, TreeNode, WorkLedger,
};
use step_sat::{SolveResult, Solver};

/// Stopping rules and fallback policy for one synthesis run.
#[derive(Clone, Debug)]
pub struct SynthOptions {
    /// Operators probed at every node, in preference order. All three
    /// are submitted concurrently; the first in this order whose probe
    /// decomposes wins (the result is order-, not timing-, dependent).
    pub ops: [GateOp; 3],
    /// Stop recursing once a node's support is at or below this size
    /// (clamped to at least 1).
    pub target_support: usize,
    /// Maximum gate depth (`None` = until the target support).
    pub max_depth: Option<usize>,
    /// Per-node budget: each operator probe of a frontier cone runs
    /// under this scope (enforced by the session's `EffortMeter`).
    pub per_node: Budget,
    /// Whole-synthesis budget. The work component is a single pool
    /// sliced across expansions by the [`WorkLedger`]; the wall
    /// component is a shared deadline. Nodes reached after either is
    /// exhausted become (truncated) leaves.
    pub synthesis: Budget,
    /// Split leaves that resist bi-decomposition with a BDD-guided
    /// Shannon cofactor step instead of giving up on them.
    pub bdd_fallback: bool,
    /// Largest support the BDD fallback will build a BDD for; bigger
    /// resistant cones become leaves as-is.
    pub bdd_max_support: usize,
    /// Re-verify every emitted network against its cone by a SAT
    /// miter check before returning it.
    pub verify: bool,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            ops: [GateOp::Or, GateOp::And, GateOp::Xor],
            target_support: 2,
            max_depth: None,
            per_node: Budget::Unlimited,
            synthesis: Budget::Unlimited,
            bdd_fallback: true,
            bdd_max_support: 24,
            verify: true,
        }
    }
}

/// Counters accumulated while synthesizing one output.
#[derive(Clone, Copy, Debug, Default)]
pub struct SynthStats {
    /// Frontier cones submitted to the engine (operator probes count
    /// as one expansion). Deterministic under deterministic budgets.
    pub nodes_expanded: u64,
    /// Gates contributed by engine bi-decompositions.
    pub qbf_gates: u64,
    /// Gates contributed by the BDD Shannon fallback (each split adds
    /// one OR over two ANDs plus two literal leaves).
    pub bdd_splits: u64,
    /// Whether the synthesis budget truncated any subtree.
    pub truncated: bool,
    /// Whether the emitted network passed the SAT equivalence check
    /// (`false` only when [`SynthOptions::verify`] is off).
    pub verified: bool,
    /// Total engine effort across all probes.
    pub effort: EffortStats,
    /// Total SAT calls across all probes.
    pub sat_calls: u64,
    /// Result-cache hits observed by the probes. Scheduling-dependent
    /// at `jobs > 1`; never affects the emitted network.
    pub cache_hits: u64,
    /// Result-cache misses observed by the probes.
    pub cache_misses: u64,
    /// Clause-bank hits (exact + cluster) observed by the probes.
    pub bank_hits: u64,
    /// Persistent-tier hits observed by the probes.
    pub disk_hits: u64,
    /// Clauses donated back to the bank by the probes.
    pub donated_clauses: u64,
    /// Wall-clock time for this output.
    pub cpu: Duration,
}

/// One synthesized primary output: the gate network plus its metrics.
#[derive(Clone, Debug)]
pub struct SynthOutput {
    /// Output name (from the source circuit).
    pub name: String,
    /// Output index in the source circuit.
    pub output_index: usize,
    /// Support size of the output cone.
    pub support: usize,
    /// The emitted gate network.
    pub tree: DecompTree,
    /// Counters for this output.
    pub stats: SynthStats,
}

/// Why a synthesized network failed the SAT equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkVerifyError {
    /// The network and the cone differ (a counterexample exists).
    NotEquivalent,
    /// The SAT check hit its deadline.
    Budget,
}

impl fmt::Display for NetworkVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkVerifyError::NotEquivalent => {
                write!(f, "network differs from the original cone")
            }
            NetworkVerifyError::Budget => write!(f, "equivalence-check budget expired"),
        }
    }
}

impl Error for NetworkVerifyError {}

/// Checks `tree ≡` output `out_idx` of `original` with one SAT call
/// on the miter `f ⊕ network` — the scalable replacement for the
/// exhaustive `2^n` simulation loop.
///
/// # Errors
///
/// See [`NetworkVerifyError`].
///
/// # Panics
///
/// Panics if `out_idx` is out of range or the tree indexes inputs the
/// circuit does not have (i.e. it was synthesized from a different
/// circuit).
pub fn network_equivalent(
    original: &Aig,
    out_idx: usize,
    tree: &DecompTree,
    deadline: Option<Instant>,
) -> Result<(), NetworkVerifyError> {
    let mut scratch = original.clone();
    let inputs: Vec<AigLit> = (0..scratch.num_inputs())
        .map(|i| scratch.input(i))
        .collect();
    let net = tree.root.import(&mut scratch, &inputs);
    let f = scratch.outputs()[out_idx].lit();
    let miter = scratch.xor(f, net);
    let (mut cnf, _inputs, root) = encode_standalone(&scratch, miter);
    cnf.add_unit(root);
    let mut solver = Solver::new();
    solver.set_deadline(deadline);
    solver.add_cnf(&cnf);
    match solver.solve() {
        SolveResult::Unsat => Ok(()),
        SolveResult::Sat => Err(NetworkVerifyError::NotEquivalent),
        SolveResult::Unknown => Err(NetworkVerifyError::Budget),
    }
}

/// A frontier cone awaiting expansion.
struct Node {
    /// Monotone id (assignment order is deterministic).
    id: u64,
    /// Standalone single-output cone circuit.
    sub: Aig,
    /// Original-circuit input index per `sub` input.
    orig_inputs: Vec<usize>,
    /// Gate depth of this node in the emitted network.
    depth: usize,
    /// Canonical fingerprint key (hash, support, ands) — the frontier
    /// sort key and twin detector.
    fp: (u128, u32, u32),
}

/// What one frontier node became.
enum Outcome {
    /// A leaf function over original inputs.
    Leaf(LeafFn, Vec<usize>),
    /// An engine bi-decomposition: `left <op> right` by child id.
    Gate(GateOp, u64, u64),
    /// A Shannon split on original input `var`:
    /// `(var ∧ hi) ∨ (¬var ∧ lo)` by child id.
    Split { var: usize, hi: u64, lo: u64 },
}

/// The recursive synthesis driver. See the crate docs.
pub struct SynthDriver<'a> {
    service: &'a StepService,
    config: DecompConfig,
    opts: SynthOptions,
}

impl<'a> SynthDriver<'a> {
    /// A driver submitting through `service` with the engine `config`
    /// (extraction is forced on — recursion needs `fA`/`fB`; the
    /// per-output and per-circuit scopes are overridden by `opts`).
    pub fn new(service: &'a StepService, config: DecompConfig, opts: SynthOptions) -> Self {
        let mut config = config;
        config.extract = true;
        config.budget.per_circuit = Budget::Unlimited;
        SynthDriver {
            service,
            config,
            opts,
        }
    }

    /// The options this driver runs under.
    pub fn options(&self) -> &SynthOptions {
        &self.opts
    }

    /// Synthesizes every primary output, sequentially (each output's
    /// recursion parallelizes internally across the service workers;
    /// sequential outputs keep the reuse surfaces' state — and hence
    /// the work charged against the pool — reproducible).
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from the engine, and reports a failed
    /// equivalence check as [`StepError::Internal`].
    pub fn synthesize_circuit(&self, circuit: &Aig) -> Result<Vec<SynthOutput>, StepError> {
        let comb;
        let circuit = if circuit.is_comb() {
            circuit
        } else {
            comb = circuit
                .comb()
                .map_err(|e| StepError::Internal(e.to_string()))?;
            &comb
        };
        (0..circuit.num_outputs())
            .map(|i| self.synthesize(circuit, i))
            .collect()
    }

    /// Synthesizes output `out_idx` of `aig` into a gate network.
    ///
    /// # Errors
    ///
    /// [`StepError::NotCombinational`] for latched circuits (convert
    /// with [`Aig::comb`] first), [`StepError::OutputOutOfRange`], any
    /// engine error, and [`StepError::Internal`] if the emitted
    /// network fails its SAT equivalence check (a bug).
    pub fn synthesize(&self, aig: &Aig, out_idx: usize) -> Result<SynthOutput, StepError> {
        if !aig.is_comb() {
            return Err(StepError::NotCombinational);
        }
        let output = aig
            .outputs()
            .get(out_idx)
            .ok_or(StepError::OutputOutOfRange(out_idx))?;
        let start = Instant::now();
        let deadline = self.opts.synthesis.wall().map(|d| start + d);
        let mut pool_left = self.opts.synthesis.work();
        let target = self.opts.target_support.max(1);

        let cone = aig.cone(output.lit());
        let support = cone.leaves.len();
        let root_node = self.make_node(0, &cone.aig, cone.root, &cone.leaves, 0);

        let mut stats = SynthStats::default();
        let mut outcomes: HashMap<u64, Outcome> = HashMap::new();
        let mut next_id: u64 = 1;
        let mut frontier = vec![root_node];

        while !frontier.is_empty() {
            // Deterministic round order: canonical fingerprint groups
            // twins together, the monotone id breaks ties.
            frontier.sort_by_key(|n| (n.fp, n.id));
            let round = std::mem::take(&mut frontier);

            // Leaf rules first — they cost nothing and hold no slot.
            let mut expand: Vec<Node> = Vec::new();
            for n in round {
                if n.orig_inputs.len() <= target
                    || self.opts.max_depth.is_some_and(|d| n.depth >= d)
                {
                    outcomes.insert(n.id, leaf_outcome(&n));
                    continue;
                }
                expand.push(n);
            }
            if expand.is_empty() {
                continue;
            }

            self.run_round(
                expand,
                &mut pool_left,
                deadline,
                &mut stats,
                &mut outcomes,
                &mut next_id,
                &mut frontier,
            )?;
        }

        let tree = DecompTree {
            root: build_tree(0, &mut outcomes),
            num_inputs: aig.num_inputs(),
        };
        if self.opts.verify {
            network_equivalent(aig, out_idx, &tree, None).map_err(|e| {
                StepError::Internal(format!(
                    "synthesized network for output {out_idx} failed verification: {e}"
                ))
            })?;
            stats.verified = true;
        }
        stats.cpu = start.elapsed();
        Ok(SynthOutput {
            name: output.name().to_owned(),
            output_index: out_idx,
            support,
            tree,
            stats,
        })
    }

    /// Expands one round of frontier nodes: reserves each node's slice
    /// of the synthesis work pool through the [`WorkLedger`], submits
    /// all operator probes, then folds results in slot order.
    #[allow(clippy::too_many_arguments)]
    fn run_round(
        &self,
        expand: Vec<Node>,
        pool_left: &mut Option<u64>,
        deadline: Option<Instant>,
        stats: &mut SynthStats,
        outcomes: &mut HashMap<u64, Outcome>,
        next_id: &mut u64,
        frontier: &mut Vec<Node>,
    ) -> Result<(), StepError> {
        let n_ops = self.opts.ops.len() as u64;
        let slot_cap = self.opts.per_node.work().map(|w| w.saturating_mul(n_ops));
        let ledger = pool_left.map(|limit| WorkLedger::new(limit, slot_cap, expand.len()));

        // Probes in flight, in slot order. A slot is drained by
        // joining its handles, committing its spend to the ledger and
        // resolving the node — always in slot order, so folding (and
        // child-id assignment) is scheduling-independent.
        let mut pending: Vec<(usize, Node, Vec<step_core::SubmissionHandle>)> = Vec::new();
        let mut in_flight: HashSet<(u128, u32, u32)> = HashSet::new();

        let drain = |pending: &mut Vec<(usize, Node, Vec<step_core::SubmissionHandle>)>,
                     in_flight: &mut HashSet<(u128, u32, u32)>,
                     outcomes: &mut HashMap<u64, Outcome>,
                     next_id: &mut u64,
                     frontier: &mut Vec<Node>,
                     stats: &mut SynthStats|
         -> Result<(), StepError> {
            for (slot, node, handles) in pending.drain(..) {
                let mut spent: u64 = 0;
                let mut probes: Vec<OutputResult> = Vec::with_capacity(handles.len());
                for h in handles {
                    let r = h.join()?;
                    stats.effort += r.total_effort();
                    stats.sat_calls += r.total_sat_calls();
                    stats.cache_hits += r.cache_hits();
                    stats.cache_misses += r.cache_misses();
                    stats.bank_hits += r.clause_bank_hits();
                    stats.disk_hits += r.disk_hits();
                    stats.donated_clauses += r.donated_clauses();
                    let out = r
                        .outputs
                        .into_iter()
                        .next()
                        .ok_or_else(|| StepError::Internal("probe lost its output".into()))?;
                    spent += out.effort.conflicts;
                    probes.push(out);
                }
                if let Some(l) = &ledger {
                    l.commit(slot, spent);
                }
                self.resolve(node, probes, outcomes, next_id, frontier, stats);
            }
            in_flight.clear();
            Ok(())
        };

        for (slot, node) in expand.into_iter().enumerate() {
            // Past the ledger's independent prefix a reservation needs
            // every earlier commit, so drain first (reserve then
            // returns without blocking). Twins also wait for their
            // leader's commit, which makes the round replay the
            // sequential run: the leader solves, twins are served from
            // the (now warm) cache — at any worker count.
            let blocks = ledger.as_ref().is_some_and(|l| l.would_block(slot));
            if (blocks || in_flight.contains(&node.fp)) && !pending.is_empty() {
                drain(
                    &mut pending,
                    &mut in_flight,
                    outcomes,
                    next_id,
                    frontier,
                    stats,
                )?;
            }
            let slice = ledger.as_ref().map(|l| l.reserve(slot));
            let exhausted = slice == Some(0) || deadline.is_some_and(|d| Instant::now() >= d);
            if exhausted {
                stats.truncated = true;
                outcomes.insert(node.id, leaf_outcome(&node));
                if let Some(l) = &ledger {
                    l.commit(slot, 0);
                }
                continue;
            }
            let budget = probe_budget(self.opts.per_node, slice);
            let mut handles = Vec::with_capacity(self.opts.ops.len());
            let sub = StepService::comb_arc(&node.sub)?;
            for &op in &self.opts.ops {
                let mut config = self.config.clone();
                config.budget.per_output = budget;
                let options = SubmitOptions {
                    deadline,
                    ..SubmitOptions::default()
                };
                handles.push(
                    self.service
                        .submit_with(Arc::clone(&sub), op, config, options)?,
                );
            }
            stats.nodes_expanded += 1;
            in_flight.insert(node.fp);
            pending.push((slot, node, handles));
        }
        drain(
            &mut pending,
            &mut in_flight,
            outcomes,
            next_id,
            frontier,
            stats,
        )?;

        if let (Some(left), Some(l)) = (pool_left.as_mut(), &ledger) {
            *left = left.saturating_sub(l.committed());
        }
        Ok(())
    }

    /// Folds one node's probe results: the first operator (in
    /// preference order) that decomposed wins; otherwise the BDD
    /// Shannon fallback; otherwise a leaf.
    fn resolve(
        &self,
        node: Node,
        probes: Vec<OutputResult>,
        outcomes: &mut HashMap<u64, Outcome>,
        next_id: &mut u64,
        frontier: &mut Vec<Node>,
        stats: &mut SynthStats,
    ) {
        if let Some(d) = probes.into_iter().find_map(|p| p.decomposition) {
            let lid = *next_id;
            let rid = *next_id + 1;
            *next_id += 2;
            frontier.push(self.child_node(lid, &d.aig, d.fa, &node.orig_inputs, node.depth + 1));
            frontier.push(self.child_node(rid, &d.aig, d.fb, &node.orig_inputs, node.depth + 1));
            outcomes.insert(node.id, Outcome::Gate(d.op, lid, rid));
            stats.qbf_gates += 1;
            return;
        }
        if self.opts.bdd_fallback && node.orig_inputs.len() <= self.opts.bdd_max_support {
            if let Some(outcome) = self.shannon_split(&node, next_id, frontier) {
                outcomes.insert(node.id, outcome);
                stats.bdd_splits += 1;
                return;
            }
        }
        outcomes.insert(node.id, leaf_outcome(&node));
    }

    /// Shannon-splits a resistant cone on the support variable whose
    /// cofactor BDDs are jointly smallest (ties to the lowest index —
    /// deterministic). Cofactors are exported from the BDD, which
    /// canonically simplifies them; both strictly lose the split
    /// variable, so the recursion always terminates.
    fn shannon_split(
        &self,
        node: &Node,
        next_id: &mut u64,
        frontier: &mut Vec<Node>,
    ) -> Option<Outcome> {
        let root = node.sub.outputs()[0].lit();
        let mut m = Manager::new(node.sub.num_inputs());
        let f = m.from_aig(&node.sub, root);
        let mut best: Option<(usize, usize)> = None;
        for v in 0..node.sub.num_inputs() {
            let lo = m.restrict(f, v, false);
            let hi = m.restrict(f, v, true);
            if lo == hi {
                continue;
            }
            let cost = m.size(lo) + m.size(hi);
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, v));
            }
        }
        let (_, v) = best?;
        let lo = m.restrict(f, v, false);
        let hi = m.restrict(f, v, true);
        let hid = *next_id;
        let lid = *next_id + 1;
        *next_id += 2;
        for (id, cofactor) in [(hid, hi), (lid, lo)] {
            let mut caig = Aig::new();
            let ins: Vec<AigLit> = (0..node.sub.num_inputs())
                .map(|i| caig.add_input(format!("x{i}")))
                .collect();
            let r = m.export_aig(cofactor, &mut caig, &ins);
            frontier.push(self.child_node(id, &caig, r, &node.orig_inputs, node.depth + 2));
        }
        Some(Outcome::Split {
            var: node.orig_inputs[v],
            hi: hid,
            lo: lid,
        })
    }

    /// A frontier node for the cone of `root` in `func`, whose inputs
    /// read original inputs through `orig_inputs`.
    fn child_node(
        &self,
        id: u64,
        func: &Aig,
        root: AigLit,
        orig_inputs: &[usize],
        depth: usize,
    ) -> Node {
        let cone = func.cone(root);
        let mapped: Vec<usize> = cone.leaves.iter().map(|&l| orig_inputs[l]).collect();
        self.make_node(id, &cone.aig, cone.root, &mapped, depth)
    }

    fn make_node(
        &self,
        id: u64,
        cone: &Aig,
        root: AigLit,
        orig_inputs: &[usize],
        depth: usize,
    ) -> Node {
        let fp = if root.node().index() == 0 {
            // A constant cone: no structure to canonicalize.
            (root.is_complement() as u128, 0, 0)
        } else {
            let c = canonicalize(cone, root).fingerprint;
            (c.hash, c.inputs, c.ands)
        };
        let mut sub = cone.clone();
        sub.add_output("f", root);
        Node {
            id,
            sub,
            orig_inputs: orig_inputs.to_vec(),
            depth,
            fp,
        }
    }
}

/// The per-probe budget: the per-node scope tightened by the node's
/// pool slice (`None` = unlimited pool).
fn probe_budget(per_node: Budget, slice: Option<u64>) -> Budget {
    match slice {
        None => per_node,
        Some(s) => {
            let w = per_node.work().map_or(s, |w| w.min(s));
            per_node.with_work(w)
        }
    }
}

/// A leaf over original inputs.
fn leaf_outcome(node: &Node) -> Outcome {
    let root = node.sub.outputs()[0].lit();
    Outcome::Leaf(LeafFn::from_cone(&node.sub, root), node.orig_inputs.clone())
}

/// A leaf computing the (possibly negated) literal of original input
/// `var`.
fn literal_leaf(var: usize, negated: bool) -> TreeNode {
    TreeNode::Leaf {
        func: LeafFn::literal(negated),
        inputs: vec![var],
    }
}

/// Assembles the final tree from per-node outcomes.
fn build_tree(id: u64, outcomes: &mut HashMap<u64, Outcome>) -> TreeNode {
    match outcomes.remove(&id).expect("every node has an outcome") {
        Outcome::Leaf(func, inputs) => TreeNode::Leaf { func, inputs },
        Outcome::Gate(op, l, r) => TreeNode::Gate {
            op,
            left: Box::new(build_tree(l, outcomes)),
            right: Box::new(build_tree(r, outcomes)),
        },
        Outcome::Split { var, hi, lo } => TreeNode::Gate {
            op: GateOp::Or,
            left: Box::new(TreeNode::Gate {
                op: GateOp::And,
                left: Box::new(literal_leaf(var, false)),
                right: Box::new(build_tree(hi, outcomes)),
            }),
            right: Box::new(TreeNode::Gate {
                op: GateOp::And,
                left: Box::new(literal_leaf(var, true)),
                right: Box::new(build_tree(lo, outcomes)),
            }),
        },
    }
}

// The driver is shared state only through the service; its outputs
// travel to consumers.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SynthOutput>();
    assert_send::<SynthOptions>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use step_core::Model;

    fn service() -> StepService {
        let cache = std::sync::Arc::new(step_core::ResultCache::default());
        StepService::spawn_with_store(
            2,
            std::sync::Arc::new(step_core::TieredStore::memory(Some(cache), None)),
        )
    }

    /// The network rebuilt by [`DecompTree::to_aig`] evaluates like
    /// output 0 of `aig` on every assignment.
    fn assert_rebuilds(aig: &Aig, tree: &DecompTree) {
        let net = tree.to_aig();
        let n = aig.num_inputs();
        for m in 0..1usize << n {
            let v: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(
                net.eval(&v)[0],
                aig.eval(&v)[0],
                "at {v:?}\n{}",
                tree.render()
            );
        }
    }

    fn driver_opts() -> (DecompConfig, SynthOptions) {
        (
            DecompConfig::new(Model::QbfDisjoint),
            SynthOptions::default(),
        )
    }

    fn dnf_circuit() -> Aig {
        // f = (x0 x1) | (x2 x3) | (x4 x5) — fully decomposable.
        let mut aig = Aig::new();
        let xs: Vec<AigLit> = (0..6).map(|i| aig.add_input(format!("x{i}"))).collect();
        let c0 = aig.and(xs[0], xs[1]);
        let c1 = aig.and(xs[2], xs[3]);
        let c2 = aig.and(xs[4], xs[5]);
        let t = aig.or(c0, c1);
        let f = aig.or(t, c2);
        aig.add_output("f", f);
        aig
    }

    #[test]
    fn dnf_synthesizes_and_verifies() {
        let svc = service();
        let (config, opts) = driver_opts();
        let drv = SynthDriver::new(&svc, config, opts);
        let aig = dnf_circuit();
        let out = drv.synthesize(&aig, 0).unwrap();
        assert!(out.stats.verified);
        // The two OR joins become gates; the 2-var cubes are already
        // at the target support and stay leaves.
        assert!(out.tree.num_gates() >= 2, "\n{}", out.tree.render());
        assert!(out.tree.max_leaf_support() <= 2);
        assert!(network_equivalent(&aig, 0, &out.tree, None).is_ok());
        assert_rebuilds(&aig, &out.tree);
    }

    #[test]
    fn majority_falls_back_to_shannon_split() {
        // maj3 resists every bi-decomposition; the BDD fallback must
        // still drive leaves down to the target support.
        let mut aig = Aig::new();
        let xs: Vec<AigLit> = (0..3).map(|i| aig.add_input(format!("x{i}"))).collect();
        let ab = aig.and(xs[0], xs[1]);
        let ac = aig.and(xs[0], xs[2]);
        let bc = aig.and(xs[1], xs[2]);
        let t = aig.or(ab, ac);
        let f = aig.or(t, bc);
        aig.add_output("maj", f);

        let svc = service();
        let (config, opts) = driver_opts();
        let drv = SynthDriver::new(&svc, config, opts);
        let out = drv.synthesize(&aig, 0).unwrap();
        assert!(out.stats.bdd_splits >= 1, "\n{}", out.tree.render());
        assert!(out.tree.max_leaf_support() <= 2);
        assert!(out.stats.verified);
        assert_rebuilds(&aig, &out.tree);
    }

    #[test]
    fn fallback_off_leaves_resistant_cone_whole() {
        let mut aig = Aig::new();
        let xs: Vec<AigLit> = (0..3).map(|i| aig.add_input(format!("x{i}"))).collect();
        let ab = aig.and(xs[0], xs[1]);
        let ac = aig.and(xs[0], xs[2]);
        let bc = aig.and(xs[1], xs[2]);
        let t = aig.or(ab, ac);
        let f = aig.or(t, bc);
        aig.add_output("maj", f);

        let svc = service();
        let (config, mut opts) = driver_opts();
        opts.bdd_fallback = false;
        let drv = SynthDriver::new(&svc, config, opts);
        let out = drv.synthesize(&aig, 0).unwrap();
        assert_eq!(out.tree.num_gates(), 0);
        assert_eq!(out.tree.max_leaf_support(), 3);
    }

    #[test]
    fn zero_synthesis_pool_truncates_at_the_root() {
        let svc = service();
        let (config, mut opts) = driver_opts();
        opts.synthesis = Budget::Work(0);
        opts.per_node = Budget::Work(100);
        let drv = SynthDriver::new(&svc, config, opts);
        let out = drv.synthesize(&dnf_circuit(), 0).unwrap();
        assert!(out.stats.truncated);
        assert_eq!(out.stats.nodes_expanded, 0);
        assert_eq!(out.tree.num_gates(), 0);
        // The truncated network is the cone itself — still equivalent.
        assert!(out.stats.verified);
    }

    #[test]
    fn max_depth_stops_the_recursion() {
        let svc = service();
        let (config, mut opts) = driver_opts();
        opts.max_depth = Some(1);
        let drv = SynthDriver::new(&svc, config, opts);
        let out = drv.synthesize(&dnf_circuit(), 0).unwrap();
        assert!(out.tree.depth() <= 2, "\n{}", out.tree.render());
        assert!(out.stats.verified);
    }

    #[test]
    fn constant_output_synthesizes_to_a_constant_leaf() {
        let mut aig = Aig::new();
        let x = aig.add_input("x");
        let f = aig.and(x, !x);
        aig.add_output("zero", f);
        let svc = service();
        let (config, opts) = driver_opts();
        let drv = SynthDriver::new(&svc, config, opts);
        let out = drv.synthesize(&aig, 0).unwrap();
        assert_eq!(out.support, 0);
        assert!(out.stats.verified);
        assert!(!out.tree.eval(&[false]));
        assert!(!out.tree.eval(&[true]));
    }
}
