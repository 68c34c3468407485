//! Cardinality constraints.
//!
//! The paper's target constraints `fT` (equations (5), (6), (8)) are
//! cardinality bounds over products of the `α`/`β` control variables:
//! `Σ ᾱx·β̄x ≤ k` for disjointness and two-sided difference bounds for
//! balancedness. This module provides:
//!
//! * simple clause-level constraints ([`at_least_one`],
//!   [`at_most_one`], [`at_most_k`], …) with selectable encodings;
//! * a [`Totalizer`] with *exact* sorted unary outputs
//!   (`outputs[i] ⇔ count ≥ i+1`);
//! * constraints between two totalizers: [`assert_count_dominates`]
//!   for the `|XA| ≥ |XB|` symmetry breaking, and [`assert_linear_le`]
//!   for `ca·count(a) − cb·count(b) ≤ r`. Once `XA`, `XB` and `XC`
//!   partition the support, the balancedness, combined and weighted
//!   targets are all linear in `(|XA|, |XB|)`, so each is one
//!   [`assert_linear_le`] over the `α` and `β` counters.
//!
//! ```
//! use step_cnf::{card::{at_most_k, CardEncoding}, Cnf, Lit};
//!
//! let mut cnf = Cnf::new();
//! let xs: Vec<Lit> = (0..4).map(|_| Lit::pos(cnf.new_var())).collect();
//! at_most_k(&mut cnf, &xs, 2, CardEncoding::Totalizer);
//! ```

use crate::cnf::Cnf;
use crate::lit::Lit;

/// Which clause encoding to use for `at_most_k`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CardEncoding {
    /// Naive: one clause per (k+1)-subset. Only sensible for tiny n.
    Pairwise,
    /// Sinz sequential counter (LTseq): O(n·k) clauses and variables.
    SequentialCounter,
    /// Totalizer with exact sorted outputs: O(n log n · k) clauses.
    #[default]
    Totalizer,
}

/// Adds `x1 ∨ … ∨ xn` (the paper's `AtLeast1` in `fN`).
///
/// An empty `lits` makes the formula unsatisfiable (empty clause).
pub fn at_least_one(cnf: &mut Cnf, lits: &[Lit]) {
    cnf.add_clause(lits.iter().copied());
}

/// Adds pairwise at-most-one over `lits`.
pub fn at_most_one(cnf: &mut Cnf, lits: &[Lit]) {
    for i in 0..lits.len() {
        for j in i + 1..lits.len() {
            cnf.add_clause([!lits[i], !lits[j]]);
        }
    }
}

/// Adds `Σ lits ≤ k` with the chosen encoding.
pub fn at_most_k(cnf: &mut Cnf, lits: &[Lit], k: usize, enc: CardEncoding) {
    if k >= lits.len() {
        return; // trivially true
    }
    if k == 0 {
        for &l in lits {
            cnf.add_unit(!l);
        }
        return;
    }
    match enc {
        CardEncoding::Pairwise => {
            // Every (k+1)-subset has a false literal.
            let mut idx: Vec<usize> = (0..=k).collect();
            loop {
                cnf.add_clause(idx.iter().map(|&i| !lits[i]));
                // Next combination.
                let mut i = k + 1;
                loop {
                    if i == 0 {
                        return;
                    }
                    i -= 1;
                    if idx[i] != i + lits.len() - (k + 1) {
                        break;
                    }
                    if i == 0 {
                        return;
                    }
                }
                idx[i] += 1;
                for j in i + 1..=k {
                    idx[j] = idx[j - 1] + 1;
                }
            }
        }
        CardEncoding::SequentialCounter => sequential_counter_amk(cnf, lits, k),
        CardEncoding::Totalizer => {
            let tot = Totalizer::new(cnf, lits);
            tot.assert_le(cnf, k);
        }
    }
}

/// Adds `Σ lits ≥ k` (via `at_most (n−k)` over the negations).
pub fn at_least_k(cnf: &mut Cnf, lits: &[Lit], k: usize, enc: CardEncoding) {
    if k == 0 {
        return;
    }
    if k > lits.len() {
        cnf.add_clause([]); // unsatisfiable
        return;
    }
    let negs: Vec<Lit> = lits.iter().map(|&l| !l).collect();
    at_most_k(cnf, &negs, lits.len() - k, enc);
}

/// Adds `Σ lits = k`.
pub fn exactly_k(cnf: &mut Cnf, lits: &[Lit], k: usize, enc: CardEncoding) {
    at_most_k(cnf, lits, k, enc);
    at_least_k(cnf, lits, k, enc);
}

fn sequential_counter_amk(cnf: &mut Cnf, lits: &[Lit], k: usize) {
    let n = lits.len();
    debug_assert!(k >= 1 && k < n);
    // s[i][j]: among lits[0..=i] at least j+1 are true (registers).
    let mut s = vec![vec![Lit::pos(crate::lit::Var::new(0)); k]; n];
    for row in s.iter_mut().take(n) {
        for cell in row.iter_mut() {
            *cell = Lit::pos(cnf.new_var());
        }
    }
    cnf.add_clause([!lits[0], s[0][0]]);
    for j in 1..k {
        cnf.add_unit(!s[0][j]);
    }
    for i in 1..n {
        cnf.add_clause([!lits[i], s[i][0]]);
        cnf.add_clause([!s[i - 1][0], s[i][0]]);
        for j in 1..k {
            cnf.add_clause([!lits[i], !s[i - 1][j - 1], s[i][j]]);
            cnf.add_clause([!s[i - 1][j], s[i][j]]);
        }
        cnf.add_clause([!lits[i], !s[i - 1][k - 1]]);
    }
}

/// A totalizer: sorted unary outputs exactly equivalent to the count of
/// true input literals (`outputs()[i] ⇔ count ≥ i+1`).
///
/// Exactness (both implication directions are encoded) is required for
/// the difference constraints used by the balancedness target.
#[derive(Clone, Debug)]
pub struct Totalizer {
    outputs: Vec<Lit>,
}

impl Totalizer {
    /// Builds the totalizer tree over `lits` inside `cnf`.
    pub fn new(cnf: &mut Cnf, lits: &[Lit]) -> Self {
        let outputs = build_tree(cnf, lits);
        Totalizer { outputs }
    }

    /// The sorted unary outputs (`outputs()[i] ⇔ count ≥ i+1`).
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Number of input literals.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether the totalizer has no inputs.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// The literal equivalent to `count ≥ k` (`None` for `k == 0`,
    /// which is trivially true, and for `k > n`, trivially false).
    pub fn count_ge(&self, k: usize) -> Option<Lit> {
        if k == 0 || k > self.outputs.len() {
            None
        } else {
            Some(self.outputs[k - 1])
        }
    }

    /// Asserts `count ≤ k`.
    pub fn assert_le(&self, cnf: &mut Cnf, k: usize) {
        if let Some(l) = self.count_ge(k + 1) {
            cnf.add_unit(!l);
        }
    }

    /// Asserts `count ≥ k`; unsatisfiable if `k > n`.
    pub fn assert_ge(&self, cnf: &mut Cnf, k: usize) {
        if k == 0 {
            return;
        }
        match self.count_ge(k) {
            Some(l) => cnf.add_unit(l),
            None => cnf.add_clause([]),
        }
    }
}

fn build_tree(cnf: &mut Cnf, lits: &[Lit]) -> Vec<Lit> {
    match lits.len() {
        0 => Vec::new(),
        1 => vec![lits[0]],
        n => {
            let mid = n / 2;
            let left = build_tree(cnf, &lits[..mid]);
            let right = build_tree(cnf, &lits[mid..]);
            merge(cnf, &left, &right)
        }
    }
}

fn merge(cnf: &mut Cnf, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let (la, lb) = (a.len(), b.len());
    let r: Vec<Lit> = (0..la + lb).map(|_| Lit::pos(cnf.new_var())).collect();
    for i in 0..=la {
        for j in 0..=lb {
            // C1: count(a) ≥ i ∧ count(b) ≥ j → count(r) ≥ i+j.
            if i + j >= 1 {
                let mut c = Vec::with_capacity(3);
                if i >= 1 {
                    c.push(!a[i - 1]);
                }
                if j >= 1 {
                    c.push(!b[j - 1]);
                }
                c.push(r[i + j - 1]);
                cnf.add_clause(c);
            }
            // C2: count(r) ≥ i+j+1 → count(a) ≥ i+1 ∨ count(b) ≥ j+1.
            if i + j < la + lb {
                let mut c = Vec::with_capacity(3);
                c.push(!r[i + j]);
                if i < la {
                    c.push(a[i]);
                }
                if j < lb {
                    c.push(b[j]);
                }
                cnf.add_clause(c);
            }
        }
    }
    r
}

/// Asserts `count(a) ≥ count(b)` over two *exact* totalizers — the
/// paper's `|XA| ≥ |XB|` symmetry-breaking constraint.
pub fn assert_count_dominates(cnf: &mut Cnf, a: &Totalizer, b: &Totalizer) {
    for i in 0..b.len() {
        match a.count_ge(i + 1) {
            Some(al) => cnf.add_clause([!b.outputs[i], al]),
            None => cnf.add_unit(!b.outputs[i]),
        }
    }
}

/// Asserts `ca·count(a) − cb·count(b) ≤ r` over two *exact*
/// totalizers, for `cb ≥ 0`.
///
/// At `count(a) = v` the least admissible `count(b)` is
/// `need(v) = ⌈(ca·v − r)/cb⌉` (or none at all when `cb = 0` and
/// `ca·v > r`). `need` is monotone in `v`, so one binary clause per
/// step of `need` is exact: `count(a) ≥ v → count(b) ≥ need(v)` when
/// `ca > 0`, and `count(a) ≤ v → count(b) ≥ need(v)` when `ca ≤ 0`.
/// A `need` above `b.len()` drops the conclusion, and a premise that
/// always holds drops out too, so a bound can come out as a single
/// unit. With `ca = cb = 1` this is the balancedness window
/// `count(a) − count(b) ≤ r` of equation (6).
///
/// # Panics
///
/// If `cb < 0`.
pub fn assert_linear_le(cnf: &mut Cnf, a: &Totalizer, b: &Totalizer, ca: i64, cb: i64, r: i64) {
    assert!(cb >= 0, "assert_linear_le needs cb ≥ 0, got {cb}");
    let need = |v: usize| match ca * v as i64 - r {
        excess if excess <= 0 => 0,
        _ if cb == 0 => i64::MAX,
        excess => (excess + cb - 1) / cb,
    };
    let na = a.len();
    for v in 0..=na {
        // The clause is `¬premise ∨ conclusion`. It is implied by its
        // neighbour on the premise's weaker side unless `need` steps.
        let (not_premise, neighbour) = if ca > 0 {
            (a.count_ge(v).map(|l| !l), v.checked_sub(1).map_or(0, need))
        } else {
            (a.count_ge(v + 1), if v < na { need(v + 1) } else { 0 })
        };
        let m = need(v);
        if m > neighbour {
            let conclusion = usize::try_from(m).ok().and_then(|m| b.count_ge(m));
            cnf.add_clause(not_premise.into_iter().chain(conclusion));
        }
    }
}
