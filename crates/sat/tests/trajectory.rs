//! Kernel trajectory golden.
//!
//! The CDCL kernel's search is part of its contract: `step-core`'s
//! `Work` budgets truncate at exact conflict counts, and every
//! benchmark count and golden above this crate follows from the exact
//! sequence of decisions, propagations and conflicts. Changes to the
//! kernel's *data layout* (clause storage, watch lists, buffers) must
//! therefore leave that sequence bit-identical.
//!
//! This test pins the full effort trajectory — [`EffortStats`]
//! (conflicts, decisions, propagations) plus restarts, live learnts,
//! the verdict and a fingerprint of every model, core and export — for
//! a fixed set of cases: pigeonhole php7/php8, seeded random 3-SAT at
//! clause/variable ratio 4.26 (SAT and UNSAT seeds), a CEGAR-shaped
//! incremental sequence under assumptions with `import_learnts`, proof
//! mode, and every `RestartPolicy` × preprocessing combination on the
//! tiered clause database (the `Tiered` in those case names).
//!
//! A layout change must leave this table unchanged. An *intended*
//! search change updates the table in the same change, with the reason
//! recorded in `CHANGES.md`.

use step_cnf::{Lit, Var};
use step_sat::{LearntExport, RestartPolicy, SolveResult, Solver};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random 3-CNF over `nvars` variables with `round(4.26 * nvars)`
/// clauses of three distinct variables each.
fn random_3sat(seed: u64, nvars: usize) -> Vec<Vec<Lit>> {
    let mut rng = XorShift(seed);
    let nclauses = (nvars * 426).div_ceil(100);
    (0..nclauses)
        .map(|_| {
            let mut vars: Vec<usize> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.below(nvars as u64) as usize;
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| Lit::new(Var::new(v), rng.below(2) == 0))
                .collect()
        })
        .collect()
}

/// n+1 pigeons into n holes.
fn pigeonhole(n: usize) -> (usize, Vec<Vec<Lit>>) {
    let pigeons = n + 1;
    let var = |p: usize, h: usize| Lit::pos(Var::new(p * n + h));
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..n).map(|h| var(p, h)).collect());
    }
    for h in 0..n {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![!var(p1, h), !var(p2, h)]);
            }
        }
    }
    (pigeons * n, clauses)
}

/// FNV-1a over a stream of words: a compact, platform-independent
/// fingerprint of models, cores and exports.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn lits(&mut self, lits: &[Lit]) {
        self.word(lits.len() as u64);
        for l in lits {
            self.word(l.code() as u64);
        }
    }

    fn export(&mut self, e: &LearntExport) {
        self.word(e.clauses.len() as u64);
        for c in &e.clauses {
            self.lits(c);
        }
        for &(v, a) in &e.activities {
            self.word(v.index() as u64);
            self.word(a.to_bits());
        }
    }
}

fn configured(restarts: RestartPolicy, preprocess: bool, proof: bool) -> Solver {
    let mut s = Solver::new();
    if proof {
        s.enable_proof();
    }
    s.set_restart_policy(restarts);
    s.set_preprocess(preprocess);
    s
}

fn verdict(r: SolveResult) -> &'static str {
    match r {
        SolveResult::Sat => "sat",
        SolveResult::Unsat => "unsat",
        SolveResult::Unknown => "unknown",
    }
}

/// Folds the observable outcome of one solve call into `h`: the
/// verdict, the model on SAT, the failed-assumption core on UNSAT.
fn fold_outcome(h: &mut Fnv, s: &Solver, r: SolveResult) {
    h.word(r as u64);
    match r {
        SolveResult::Sat => {
            for (i, b) in s.model().into_iter().enumerate() {
                if b {
                    h.word(i as u64);
                }
            }
        }
        SolveResult::Unsat => h.lits(s.failed_assumptions()),
        SolveResult::Unknown => {}
    }
}

/// One golden line: the case name, the last verdict, the effort and
/// DB counters, and the outcome fingerprint.
fn line(name: &str, s: &Solver, last: SolveResult, h: Fnv) -> String {
    let e = s.effort();
    let st = s.stats();
    format!(
        "{name} {} conflicts={} decisions={} propagations={} restarts={} learnts={} fp={:016x}",
        verdict(last),
        e.conflicts,
        e.decisions,
        e.propagations,
        st.restarts,
        st.learnts,
        h.0
    )
}

/// Solves one formula from scratch under a knob combination.
fn one_shot(
    name: &str,
    nvars: usize,
    clauses: &[Vec<Lit>],
    restarts: RestartPolicy,
    preprocess: bool,
) -> String {
    let mut s = configured(restarts, preprocess, false);
    s.ensure_vars(nvars);
    for c in clauses {
        s.add_clause(c.iter().copied());
    }
    let r = s.solve();
    let mut h = Fnv::new();
    fold_outcome(&mut h, &s, r);
    h.export(&s.export_learnts(64, 16));
    line(name, &s, r, h)
}

/// Proof mode: the trajectory with minimization and level-0
/// strengthening off, plus the proof's length; the proof must replay.
fn with_proof(name: &str, nvars: usize, clauses: &[Vec<Lit>], preprocess: bool) -> String {
    let mut s = configured(RestartPolicy::Luby, preprocess, true);
    s.ensure_vars(nvars);
    for c in clauses {
        s.add_clause(c.iter().copied());
    }
    let r = s.solve();
    let proof = s.proof().expect("proof logging is on");
    assert!(proof.check(), "{name}: proof must replay");
    let mut h = Fnv::new();
    fold_outcome(&mut h, &s, r);
    h.word(proof.steps().len() as u64);
    for step in proof.steps() {
        h.lits(step.lits());
    }
    line(name, &s, r, h)
}

/// The CEGAR loop's call shape: one long-lived solver over a growing
/// formula, re-solved under fresh assumptions after every batch of
/// refinement clauses, with a donor's core-tier learnts spliced in
/// every few rounds.
fn cegar_shaped(name: &str, seed: u64, restarts: RestartPolicy, preprocess: bool) -> String {
    const NVARS: usize = 250;
    let mut rng = XorShift(seed);
    let mut s = configured(restarts, preprocess, false);
    s.ensure_vars(NVARS);
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    let mut h = Fnv::new();
    let mut last = SolveResult::Unknown;
    for round in 0..42u64 {
        for _ in 0..25 {
            let mut c: Vec<Lit> = Vec::new();
            while c.len() < 3 {
                let v = rng.below(NVARS as u64) as usize;
                if !c.iter().any(|l| l.var().index() == v) {
                    c.push(Lit::new(Var::new(v), rng.below(2) == 0));
                }
            }
            s.add_clause(c.iter().copied());
            clauses.push(c);
        }
        if round % 8 == 7 {
            let mut donor = configured(restarts, false, false);
            donor.ensure_vars(NVARS);
            for c in &clauses {
                donor.add_clause(c.iter().copied());
            }
            donor.solve();
            let export = donor.export_learnts(64, 16);
            h.export(&export);
            h.word(s.import_learnts(&export));
        }
        let mut assumptions: Vec<Lit> = Vec::new();
        for _ in 0..6 {
            let v = rng.below(NVARS as u64) as usize;
            if !assumptions.iter().any(|l| l.var().index() == v) {
                assumptions.push(Lit::new(Var::new(v), rng.below(2) == 0));
            }
        }
        last = s.solve_with_assumptions(&assumptions);
        fold_outcome(&mut h, &s, last);
        if !s.is_ok() {
            break;
        }
    }
    line(name, &s, last, h)
}

fn trajectory() -> Vec<String> {
    let mut out = Vec::new();
    let (luby, ema) = (RestartPolicy::Luby, RestartPolicy::Ema);

    let (nv7, php7) = pigeonhole(7);
    let (nv8, php8) = pigeonhole(8);
    out.push(one_shot("php7", nv7, &php7, luby, false));
    out.push(one_shot("php8", nv8, &php8, luby, false));

    // Seeds chosen so the instance is SAT resp. UNSAT.
    let sat = random_3sat(0x5EED_0001, 120);
    let unsat = random_3sat(0x5EED_0002, 120);
    out.push(one_shot("r3sat-120-sat", 120, &sat, luby, false));
    out.push(one_shot("r3sat-120-unsat", 120, &unsat, luby, false));

    out.push(cegar_shaped("cegar-luby", 0xCE6A_0001, luby, false));
    out.push(cegar_shaped("cegar-ema-pp", 0xCE6A_0002, ema, true));

    let (nv6, php6) = pigeonhole(6);
    out.push(with_proof("proof-php6", nv6, &php6, false));
    out.push(with_proof("proof-php6-pp", nv6, &php6, true));
    let small = random_3sat(0x5EED_0003, 60);
    out.push(with_proof("proof-r3sat-60", 60, &small, true));

    for restarts in [luby, ema] {
        for pp in [false, true] {
            let tag = format!("{restarts}-Tiered-pp{}", pp as u8);
            out.push(one_shot(&format!("php7-{tag}"), nv7, &php7, restarts, pp));
            out.push(one_shot(
                &format!("r3sat-unsat-{tag}"),
                120,
                &unsat,
                restarts,
                pp,
            ));
        }
    }
    out
}

const GOLDEN: &str = "\
php7 unsat conflicts=3163 decisions=3843 propagations=38677 restarts=14 learnts=2330 fp=f168d47cfc2faf0f
php8 unsat conflicts=20474 decisions=24775 propagations=251817 restarts=70 learnts=4245 fp=34e5ff5cac78b715
r3sat-120-sat sat conflicts=697 decisions=839 propagations=18605 restarts=5 learnts=697 fp=d899569b50b05759
r3sat-120-unsat unsat conflicts=1034 decisions=1215 propagations=25728 restarts=6 learnts=1033 fp=38a53d02a1a3d2af
cegar-luby unsat conflicts=30235 decisions=42914 propagations=1355336 restarts=139 learnts=8325 fp=3f1ada975c0ee13e
cegar-ema-pp unsat conflicts=10777 decisions=17596 propagations=471755 restarts=39 learnts=4343 fp=2b7d4f0922008d97
proof-php6 unsat conflicts=816 decisions=976 propagations=10659 restarts=6 learnts=815 fp=3d4d60d6d150d733
proof-php6-pp unsat conflicts=826 decisions=976 propagations=10995 restarts=6 learnts=815 fp=3d4d60d6d150d733
proof-r3sat-60 sat conflicts=134 decisions=89 propagations=1251 restarts=0 learnts=62 fp=150ae9cc04f54cb9
php7-luby-Tiered-pp0 unsat conflicts=3163 decisions=3843 propagations=38677 restarts=14 learnts=2330 fp=f168d47cfc2faf0f
r3sat-unsat-luby-Tiered-pp0 unsat conflicts=1034 decisions=1215 propagations=25728 restarts=6 learnts=1033 fp=38a53d02a1a3d2af
php7-luby-Tiered-pp1 unsat conflicts=3181 decisions=3843 propagations=39181 restarts=14 learnts=2330 fp=f168d47cfc2faf0f
r3sat-unsat-luby-Tiered-pp1 unsat conflicts=1289 decisions=1355 propagations=29291 restarts=6 learnts=1143 fp=68d5e199e32881d8
php7-ema-Tiered-pp0 unsat conflicts=2937 decisions=3726 propagations=35120 restarts=22 learnts=2126 fp=d754e60a199fa3d1
r3sat-unsat-ema-Tiered-pp0 unsat conflicts=1133 decisions=1315 propagations=29051 restarts=0 learnts=1132 fp=9e4f0ae39840608c
php7-ema-Tiered-pp1 unsat conflicts=2955 decisions=3726 propagations=35624 restarts=22 learnts=2126 fp=d754e60a199fa3d1
r3sat-unsat-ema-Tiered-pp1 unsat conflicts=1080 decisions=1095 propagations=25086 restarts=0 learnts=934 fp=44c54ebeae029d00
";

#[test]
fn kernel_trajectory_matches_golden() {
    let got = trajectory().join("\n") + "\n";
    assert_eq!(
        got, GOLDEN,
        "kernel trajectory moved: a layout change must not change the search"
    );
}
