//! Minimal Unsatisfiable Subformula (MUS) extraction.
//!
//! This crate plays the role of MUSer in the original STEP pipeline:
//! the paper bootstraps the QBF search bounds from the group-oriented
//! MUS-based bi-decomposition of \[7\] (`STEP-MG`), and that model maps
//! each candidate variable's equality constraints to a *group* of
//! clauses whose minimal unsatisfiable subset yields a good variable
//! partition.
//!
//! The algorithm is deletion-based with core-guided trimming: every
//! group gets a selector literal, an initial solve under all selectors
//! returns an unsat core (a subset of groups), and each remaining group
//! is then tested for necessity, re-trimming with every new core.
//!
//! # Example
//!
//! ```
//! use step_cnf::{Cnf, Lit};
//! use step_mus::{group_mus, MusConfig};
//!
//! // hard: (x), groups: {(¬x)}, {(y)} — the MUS is just group 0.
//! let mut hard = Cnf::new();
//! let x = Lit::pos(hard.new_var());
//! let y = Lit::pos(hard.new_var());
//! hard.add_unit(x);
//! let groups = vec![vec![vec![!x]], vec![vec![y]]];
//! let mus = group_mus(&hard, &groups, &MusConfig::default()).unwrap();
//! assert_eq!(mus.groups, vec![0]);
//! assert!(mus.minimal);
//! ```

use std::time::Instant;

use step_cnf::{Cnf, Lit};
use step_sat::{EffortStats, SolveResult, Solver};

/// Budgets for MUS extraction.
#[derive(Clone, Copy, Debug, Default)]
pub struct MusConfig {
    /// Wall-clock deadline; when hit, the current (sound but possibly
    /// non-minimal) over-approximation is returned with
    /// `minimal = false`.
    pub deadline: Option<Instant>,
    /// Total conflict budget for the whole extraction (`None` =
    /// unlimited): each SAT call is capped by what remains of it, and
    /// the deletion loop stops (soundly, `minimal = false`) once it is
    /// spent. The deterministic analogue of `deadline` — the cut-off
    /// falls on the same call on every machine.
    pub effort_budget: Option<u64>,
}

/// Result of a group-MUS extraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MusResult {
    /// Indices of the kept groups (sorted); the hard clauses together
    /// with these groups are unsatisfiable.
    pub groups: Vec<usize>,
    /// Whether minimality was fully established (budgets may cut the
    /// minimization short).
    pub minimal: bool,
}

/// Extracts a minimal subset of `groups` (each a set of clauses) whose
/// union with the `hard` clauses is unsatisfiable.
///
/// Returns `None` if `hard ∧ ⋃ groups` is satisfiable (no MUS exists)
/// or a budget expired before the initial solve finished.
pub fn group_mus(hard: &Cnf, groups: &[Vec<Vec<Lit>>], config: &MusConfig) -> Option<MusResult> {
    group_mus_with_effort(hard, groups, config).0
}

/// The conflict budget for the next SAT call: what remains of the
/// whole-extraction effort budget.
fn call_budget(config: &MusConfig, solver: &Solver) -> Option<u64> {
    config
        .effort_budget
        .map(|b| b.saturating_sub(solver.effort().conflicts))
}

/// Whether a budget (wall or effort) is spent.
fn out_of_budget(config: &MusConfig, solver: &Solver) -> bool {
    if let Some(d) = config.deadline {
        if Instant::now() >= d {
            return true;
        }
    }
    if let Some(b) = config.effort_budget {
        if solver.effort().conflicts >= b {
            return true;
        }
    }
    false
}

/// [`group_mus`] plus the effort the extraction expended, so callers
/// charging solver work to an external budget can account it even when
/// no MUS exists. The effort counters start at zero for each call (the
/// extraction owns a fresh solver).
pub fn group_mus_with_effort(
    hard: &Cnf,
    groups: &[Vec<Vec<Lit>>],
    config: &MusConfig,
) -> (Option<MusResult>, EffortStats) {
    let mut solver = Solver::new();
    solver.add_cnf(hard);
    solver.set_deadline(config.deadline);
    // One selector per group: clauses become (¬s_g ∨ clause).
    let selectors: Vec<Lit> = groups
        .iter()
        .map(|clauses| {
            let s = Lit::pos(solver.new_var());
            for c in clauses {
                for l in c {
                    solver.ensure_vars(l.var().index() + 1);
                }
                let mut cl = Vec::with_capacity(c.len() + 1);
                cl.push(!s);
                cl.extend_from_slice(c);
                solver.add_clause(cl);
            }
            s
        })
        .collect();

    let all: Vec<Lit> = selectors.clone();
    solver.set_effort_budget(call_budget(config, &solver));
    let mut current: Vec<usize> = match solver.solve_with_assumptions(&all) {
        SolveResult::Sat | SolveResult::Unknown => return (None, solver.effort()),
        SolveResult::Unsat => {
            // Trim to the initial core.
            core_groups(&solver, &selectors)
        }
    };
    current.sort_unstable();

    // Deletion loop with core-based re-trimming.
    let mut minimal = true;
    let mut i = 0;
    while i < current.len() {
        if out_of_budget(config, &solver) {
            minimal = false;
            break;
        }
        let candidate = current[i];
        let assumptions: Vec<Lit> = current
            .iter()
            .filter(|&&g| g != candidate)
            .map(|&g| selectors[g])
            .collect();
        solver.set_effort_budget(call_budget(config, &solver));
        match solver.solve_with_assumptions(&assumptions) {
            SolveResult::Sat => {
                // Necessary: keep it, move on.
                i += 1;
            }
            SolveResult::Unknown => {
                // Cannot prove redundancy within budget: keep (sound).
                minimal = false;
                i += 1;
            }
            SolveResult::Unsat => {
                // Redundant; re-trim with the new core.
                let mut next = core_groups(&solver, &selectors);
                next.sort_unstable();
                // Preserve position: groups before `i` were proven
                // necessary and stay; the core may only shrink the rest.
                let head: Vec<usize> = current[..i].to_vec();
                let tail: Vec<usize> = next
                    .into_iter()
                    .filter(|g| !head.contains(g) && *g != candidate)
                    .collect();
                current = head;
                current.extend(tail);
            }
        }
    }
    (
        Some(MusResult {
            groups: current,
            minimal,
        }),
        solver.effort(),
    )
}

fn core_groups(solver: &Solver, selectors: &[Lit]) -> Vec<usize> {
    let core = solver.failed_assumptions();
    if core.is_empty() {
        // Hard clauses alone are UNSAT: the empty group set is the MUS.
        return Vec::new();
    }
    selectors
        .iter()
        .enumerate()
        .filter(|(_, s)| core.contains(s))
        .map(|(g, _)| g)
        .collect()
}

/// Extracts a plain clause-level MUS of `cnf` (every clause its own
/// group). Returns the indices of a minimal unsatisfiable clause
/// subset, or `None` if `cnf` is satisfiable.
pub fn mus(cnf: &Cnf, config: &MusConfig) -> Option<MusResult> {
    let hard = Cnf::with_vars(cnf.num_vars());
    let groups: Vec<Vec<Vec<Lit>>> = cnf.clauses().iter().map(|c| vec![c.clone()]).collect();
    group_mus(&hard, &groups, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i64) -> Lit {
        Lit::from_dimacs(v)
    }

    fn is_unsat(hard: &Cnf, groups: &[Vec<Vec<Lit>>], keep: &[usize]) -> bool {
        let mut s = Solver::new();
        s.add_cnf(hard);
        for &g in keep {
            for c in &groups[g] {
                for l in c {
                    s.ensure_vars(l.var().index() + 1);
                }
                s.add_clause(c.iter().copied());
            }
        }
        s.solve() == SolveResult::Unsat
    }

    /// Checks the MUS contract: unsat as returned, and removing any
    /// single group restores satisfiability.
    fn assert_is_mus(hard: &Cnf, groups: &[Vec<Vec<Lit>>], result: &MusResult) {
        assert!(
            is_unsat(hard, groups, &result.groups),
            "kept groups must be UNSAT"
        );
        assert!(result.minimal);
        for &g in &result.groups {
            let rest: Vec<usize> = result.groups.iter().copied().filter(|&x| x != g).collect();
            assert!(
                !is_unsat(hard, groups, &rest),
                "dropping group {g} must make it SAT"
            );
        }
    }

    #[test]
    fn sat_input_returns_none() {
        let mut hard = Cnf::new();
        let x = Lit::pos(hard.new_var());
        let groups = vec![vec![vec![x]]];
        assert!(group_mus(&hard, &groups, &MusConfig::default()).is_none());
    }

    #[test]
    fn hard_clauses_alone_unsat_gives_empty_mus() {
        let mut hard = Cnf::new();
        let x = Lit::pos(hard.new_var());
        hard.add_unit(x);
        hard.add_unit(!x);
        let groups = vec![vec![vec![x]]];
        let r = group_mus(&hard, &groups, &MusConfig::default()).unwrap();
        assert!(r.groups.is_empty());
    }

    #[test]
    fn single_necessary_group() {
        let mut hard = Cnf::new();
        let x = Lit::pos(hard.new_var());
        let y = Lit::pos(hard.new_var());
        hard.add_unit(x);
        let groups = vec![vec![vec![!x]], vec![vec![y]]];
        let r = group_mus(&hard, &groups, &MusConfig::default()).unwrap();
        assert_eq!(r.groups, vec![0]);
        assert_is_mus(&hard, &groups, &r);
    }

    #[test]
    fn chain_mus() {
        // x1, x1->x2, x2->x3, ¬x3 plus an irrelevant group.
        let mut hard = Cnf::new();
        let n = 4;
        hard.ensure_vars(n);
        let groups = vec![
            vec![vec![lit(1)]],
            vec![vec![lit(-1), lit(2)]],
            vec![vec![lit(-2), lit(3)]],
            vec![vec![lit(-3)]],
            vec![vec![lit(4)]], // irrelevant
        ];
        let r = group_mus(&hard, &groups, &MusConfig::default()).unwrap();
        assert_eq!(r.groups, vec![0, 1, 2, 3]);
        assert_is_mus(&hard, &groups, &r);
    }

    #[test]
    fn picks_some_minimal_subset_when_overlapping() {
        // Two independent contradictions; a MUS contains exactly one.
        let mut hard = Cnf::new();
        hard.ensure_vars(2);
        let groups = vec![
            vec![vec![lit(1)]],
            vec![vec![lit(-1)]],
            vec![vec![lit(2)]],
            vec![vec![lit(-2)]],
        ];
        let r = group_mus(&hard, &groups, &MusConfig::default()).unwrap();
        assert_eq!(r.groups.len(), 2);
        assert_is_mus(&hard, &groups, &r);
    }

    #[test]
    fn multi_clause_groups() {
        // Group 0 carries two clauses that together with hard are unsat.
        let mut hard = Cnf::new();
        hard.ensure_vars(3);
        hard.add_clause([lit(1), lit(2)]);
        let groups = vec![vec![vec![lit(-1)], vec![lit(-2)]], vec![vec![lit(3)]]];
        let r = group_mus(&hard, &groups, &MusConfig::default()).unwrap();
        assert_eq!(r.groups, vec![0]);
        assert_is_mus(&hard, &groups, &r);
    }

    #[test]
    fn plain_mus_on_clauses() {
        let mut cnf = Cnf::new();
        cnf.ensure_vars(3);
        cnf.add_clause([lit(1)]);
        cnf.add_clause([lit(-1), lit(2)]);
        cnf.add_clause([lit(-2)]);
        cnf.add_clause([lit(3)]); // irrelevant
        let r = mus(&cnf, &MusConfig::default()).unwrap();
        assert_eq!(r.groups, vec![0, 1, 2]);
    }

    #[test]
    fn deadline_gives_sound_overapproximation() {
        let mut hard = Cnf::new();
        hard.ensure_vars(4);
        let groups: Vec<Vec<Vec<Lit>>> = vec![
            vec![vec![lit(1)]],
            vec![vec![lit(-1), lit(2)]],
            vec![vec![lit(-2), lit(3)]],
            vec![vec![lit(-3)]],
            vec![vec![lit(4)]],
        ];
        let config = MusConfig {
            deadline: Some(Instant::now()),
            ..MusConfig::default()
        };
        // Deadline hits after the initial UNSAT call: either None (if
        // even that was cut) or a sound over-approximation.
        if let Some(r) = group_mus(&hard, &groups, &config) {
            assert!(is_unsat(&hard, &groups, &r.groups));
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_groups() -> impl Strategy<Value = Vec<Vec<Vec<Lit>>>> {
            let clause = proptest::collection::vec(
                (0usize..5, proptest::bool::ANY)
                    .prop_map(|(v, n)| Lit::new(step_cnf::Var::new(v), n)),
                1..3,
            );
            let group = proptest::collection::vec(clause, 1..3);
            proptest::collection::vec(group, 1..8)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn mus_contract_holds(groups in arb_groups()) {
                let mut hard = Cnf::new();
                hard.ensure_vars(5);
                match group_mus(&hard, &groups, &MusConfig::default()) {
                    None => {
                        let all: Vec<usize> = (0..groups.len()).collect();
                        prop_assert!(!is_unsat(&hard, &groups, &all));
                    }
                    Some(r) => {
                        prop_assert!(is_unsat(&hard, &groups, &r.groups));
                        for &g in &r.groups {
                            let rest: Vec<usize> = r
                                .groups
                                .iter()
                                .copied()
                                .filter(|&x| x != g)
                                .collect();
                            prop_assert!(!is_unsat(&hard, &groups, &rest));
                        }
                    }
                }
            }
        }
    }
}
