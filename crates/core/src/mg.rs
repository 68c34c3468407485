//! STEP-MG: group-oriented MUS-based variable partitioning (the
//! paper's reference \[7\], Chen & Marques-Silva, VLSI-SoC 2011).
//!
//! The core formula with *all* equality constraints asserted is
//! trivially unsatisfiable. Each variable contributes two clause
//! groups — its `X≡X'` equalities (dropping them puts the variable in
//! `XA`) and its `X≡X''` equalities (`XB`). After fixing a seed pair to
//! rule out trivial partitions, a **group MUS** of the equality groups
//! yields a minimal set of equalities that keep the core UNSAT; every
//! dropped group frees its variable from one copy, giving a partition
//! with heuristically good disjointness in a single MUS extraction —
//! which is why STEP-MG is the fastest model in the paper's Table III
//! and is used to bootstrap the QBF search bounds.

use step_cnf::{tseitin::AigCnf, Cnf, Lit};
use step_mus::{group_mus_with_effort, MusConfig};

use crate::effort::EffortMeter;
use crate::oracle::{CoreFormula, PartitionOracle};
use crate::partition::{VarClass, VarPartition};
use crate::spec::GateOp;

/// Outcome of a STEP-MG run.
#[derive(Clone, Debug, PartialEq)]
pub enum MgOutcome {
    /// A partition was found by a complete MUS refinement — the
    /// definitive STEP-MG answer for this cone (a pure function of the
    /// core, cacheable).
    Partition(VarPartition),
    /// A budget truncated the MUS refinement: the partition is valid
    /// but possibly cruder than an unbudgeted run's (the bare seed
    /// pair in the worst case). Budget-dependent — callers must report
    /// it as a timeout and never cache it as the cone's answer.
    TruncatedPartition(VarPartition),
    /// No non-trivial partition exists for this operator.
    NotDecomposable,
    /// The budget expired before any partition was found.
    Timeout,
}

/// Runs STEP-MG, charging every SAT call (seed search and MUS
/// extraction alike) to `meter`. `oracle` supplies the seed search
/// (and must wrap the same core the groups are built from);
/// `candidates` optionally pre-filters seed pairs.
pub fn decompose(
    oracle: &mut PartitionOracle,
    candidates: Option<&[Vec<bool>]>,
    meter: &mut EffortMeter,
) -> MgOutcome {
    let n = oracle.core().n;
    if n < 2 {
        return MgOutcome::NotDecomposable;
    }
    // Seed pair (complete for existence: a valid partition restricted
    // to single representatives stays valid by monotonicity).
    let mut seed = None;
    'seeds: for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if let Some(c) = candidates {
                if !c[i][j] {
                    continue;
                }
            }
            match oracle.check_seed(i, j, meter) {
                Some(true) => {
                    seed = Some((i, j));
                    break 'seeds;
                }
                Some(false) => {}
                None => return MgOutcome::Timeout,
            }
        }
    }
    let Some((si, sj)) = seed else {
        return MgOutcome::NotDecomposable;
    };

    match partition_from_mus(oracle.core(), si, sj, meter) {
        Some((p, true)) => MgOutcome::Partition(p),
        // Non-minimal MUS: sound, but a budget cut the refinement
        // short — a different budget would refine further.
        Some((p, false)) => MgOutcome::TruncatedPartition(p),
        None => {
            // Even the initial MUS solve was truncated (the instance is
            // UNSAT by construction once a seed validates, so `None`
            // can only mean budget); the seed partition is still valid.
            let mut classes = vec![VarClass::C; n];
            classes[si] = VarClass::A;
            classes[sj] = VarClass::B;
            MgOutcome::TruncatedPartition(VarPartition::new(classes))
        }
    }
}

/// Builds the group-MUS instance and maps its result to a partition
/// plus whether minimality was fully established (budgets may cut the
/// refinement short — such partitions are budget-dependent). The
/// extraction runs under `meter`'s limits (deadline plus remaining
/// work) and charges the effort it spent.
fn partition_from_mus(
    core: &CoreFormula,
    seed_a: usize,
    seed_b: usize,
    meter: &mut EffortMeter,
) -> Option<(VarPartition, bool)> {
    let n = core.n;
    // Hard part: the operator body (copies of f), *without* the
    // equality constraints — those become the groups.
    let mut cnf = Cnf::new();
    let mut enc = AigCnf::new();
    // Bind every circuit-copy input to a fresh CNF variable.
    let bind_block = |cnf: &mut Cnf, enc: &mut AigCnf, block: &[usize]| -> Vec<Lit> {
        block
            .iter()
            .map(|&pi| {
                let l = Lit::pos(cnf.new_var());
                enc.bind(core.aig.input_node(pi), l);
                l
            })
            .collect()
    };
    let x = bind_block(&mut cnf, &mut enc, &core.x);
    let xp = bind_block(&mut cnf, &mut enc, &core.xp);
    let xpp = bind_block(&mut cnf, &mut enc, &core.xpp);
    let xppp = bind_block(&mut cnf, &mut enc, &core.xppp);

    // The body is the core with all α/β forced true (equalities off).
    let mut aig = core.aig.clone();
    let forced: std::collections::HashMap<_, _> = core
        .alpha
        .iter()
        .chain(core.beta.iter())
        .map(|&pi| (aig.input_node(pi), step_aig::Aig::constant(true)))
        .collect();
    let body = aig.substitute(core.root, &forced);
    let body_lit = enc.encode(&mut cnf, &aig, body);
    cnf.add_unit(body_lit);

    // Equality groups: group 2i = α-equalities of var i, 2i+1 = β.
    let eq = |a: Lit, b: Lit| -> Vec<Vec<Lit>> { vec![vec![!a, b], vec![a, !b]] };
    let mut groups: Vec<Vec<Vec<Lit>>> = Vec::with_capacity(2 * n);
    let mut group_of: Vec<(usize, VarClass)> = Vec::new();
    for i in 0..n {
        if i != seed_a {
            let mut g = eq(x[i], xp[i]);
            if core.op == GateOp::Xor {
                g.extend(eq(xppp[i], xpp[i]));
            }
            group_of.push((i, VarClass::A));
            groups.push(g);
        }
        if i != seed_b {
            let mut g = eq(x[i], xpp[i]);
            if core.op == GateOp::Xor {
                g.extend(eq(xppp[i], xp[i]));
            }
            group_of.push((i, VarClass::B));
            groups.push(g);
        }
    }

    let config = MusConfig {
        deadline: meter.deadline(),
        effort_budget: meter.remaining_work(),
    };
    let (mus, effort) = group_mus_with_effort(&cnf, &groups, &config);
    meter.charge(effort);
    let mus = mus?;
    let minimal = mus.minimal;

    // Kept group ⇒ the equality stays ⇒ the variable is NOT freed on
    // that side. Dropped α-group ⇒ variable may join XA, etc.
    let mut free_a = vec![false; n];
    let mut free_b = vec![false; n];
    free_a[seed_a] = true;
    free_b[seed_b] = true;
    let kept: std::collections::HashSet<usize> = mus.groups.iter().copied().collect();
    for (g, &(var, side)) in group_of.iter().enumerate() {
        if !kept.contains(&g) {
            match side {
                VarClass::A => free_a[var] = true,
                VarClass::B => free_b[var] = true,
                VarClass::C => unreachable!(),
            }
        }
    }
    // Assemble: freed on one side → that block; freed on both → assign
    // to the smaller block; freed on none → shared.
    let mut classes = vec![VarClass::C; n];
    classes[seed_a] = VarClass::A;
    classes[seed_b] = VarClass::B;
    let mut num_a = 1usize;
    let mut num_b = 1usize;
    for i in 0..n {
        if i == seed_a || i == seed_b {
            continue;
        }
        classes[i] = match (free_a[i], free_b[i]) {
            (true, false) => {
                num_a += 1;
                VarClass::A
            }
            (false, true) => {
                num_b += 1;
                VarClass::B
            }
            (true, true) => {
                if num_a <= num_b {
                    num_a += 1;
                    VarClass::A
                } else {
                    num_b += 1;
                    VarClass::B
                }
            }
            (false, false) => VarClass::C,
        };
    }
    Some((VarPartition::new(classes), minimal))
}
