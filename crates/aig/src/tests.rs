use crate::{aiger, bench_io, blif, Aig, AigLit};

fn all_inputs(n: usize) -> impl Iterator<Item = Vec<bool>> {
    (0..1usize << n).map(move |m| (0..n).map(|i| m >> i & 1 == 1).collect())
}

#[test]
fn lit_basics() {
    assert_eq!(!AigLit::TRUE, AigLit::FALSE);
    assert_eq!(!AigLit::FALSE, AigLit::TRUE);
    assert!(AigLit::TRUE.is_const());
    assert!(AigLit::TRUE.is_const_val(true));
    assert!(!AigLit::TRUE.is_const_val(false));
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    assert!(!a.is_const());
    assert!(!a.is_complement());
    assert!((!a).is_complement());
    assert_eq!((!a).abs(), a);
    assert_eq!(a.xor_complement(true), !a);
    assert_eq!(a.xor_complement(false), a);
    assert_eq!(a.with_complement(true), !a);
}

#[test]
fn and_constant_folding() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    assert_eq!(aig.and(a, AigLit::FALSE), AigLit::FALSE);
    assert_eq!(aig.and(AigLit::FALSE, a), AigLit::FALSE);
    assert_eq!(aig.and(a, AigLit::TRUE), a);
    assert_eq!(aig.and(AigLit::TRUE, a), a);
    assert_eq!(aig.and(a, a), a);
    assert_eq!(aig.and(a, !a), AigLit::FALSE);
    assert_eq!(aig.and_count(), 0, "folding must not allocate nodes");
}

#[test]
fn and_structural_hashing() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let g1 = aig.and(a, b);
    let g2 = aig.and(b, a);
    let g3 = aig.and(!a, b);
    assert_eq!(g1, g2, "commuted operands must hash to the same node");
    assert_ne!(g1, g3);
    assert_eq!(aig.and_count(), 2);
}

#[test]
fn gate_semantics_truth_tables() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let and = aig.and(a, b);
    let or = aig.or(a, b);
    let xor = aig.xor(a, b);
    let xnor = aig.xnor(a, b);
    let imp = aig.implies(a, b);
    let mux = aig.mux(c, a, b);
    aig.add_output("and", and);
    aig.add_output("or", or);
    aig.add_output("xor", xor);
    aig.add_output("xnor", xnor);
    aig.add_output("imp", imp);
    aig.add_output("mux", mux);
    for v in all_inputs(3) {
        let (a, b, c) = (v[0], v[1], v[2]);
        let got = aig.eval(&v);
        assert_eq!(got[0], a && b);
        assert_eq!(got[1], a || b);
        assert_eq!(got[2], a ^ b);
        assert_eq!(got[3], !(a ^ b));
        assert_eq!(got[4], !a || b);
        assert_eq!(got[5], if c { a } else { b });
    }
}

#[test]
fn nary_trees() {
    let mut aig = Aig::new();
    let lits: Vec<AigLit> = (0..7).map(|i| aig.add_input(format!("x{i}"))).collect();
    let and = aig.and_many(&lits);
    let or = aig.or_many(&lits);
    let xor = aig.xor_many(&lits);
    aig.add_output("and", and);
    aig.add_output("or", or);
    aig.add_output("xor", xor);
    assert_eq!(aig.and_many(&[]), AigLit::TRUE);
    assert_eq!(aig.or_many(&[]), AigLit::FALSE);
    assert_eq!(aig.xor_many(&[]), AigLit::FALSE);
    for v in all_inputs(7) {
        let got = aig.eval(&v);
        assert_eq!(got[0], v.iter().all(|&x| x));
        assert_eq!(got[1], v.iter().any(|&x| x));
        assert_eq!(got[2], v.iter().filter(|&&x| x).count() % 2 == 1);
    }
}

#[test]
fn eval_matches_sim64() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let t = aig.xor(a, b);
    let f = aig.mux(c, t, a);
    aig.add_output("f", f);
    // Exhaustive patterns packed into one word.
    let words: Vec<u64> = (0..3)
        .map(|i| {
            let mut w = 0u64;
            for m in 0..8u64 {
                if m >> i & 1 == 1 {
                    w |= 1 << m;
                }
            }
            w
        })
        .collect();
    let node_words = aig.sim64(&words);
    let fw = aig.sim_word(f, &node_words);
    for (m, v) in all_inputs(3).enumerate() {
        assert_eq!(fw >> m & 1 == 1, aig.eval(&v)[0], "pattern {m}");
    }
}

#[test]
fn support_and_cone() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let _b = aig.add_input("b");
    let c = aig.add_input("c");
    let f = aig.and(a, c);
    aig.add_output("f", f);
    assert_eq!(aig.support(f), vec![0, 2]);
    let cone = aig.cone(f);
    assert_eq!(cone.leaves, vec![0, 2]);
    assert_eq!(cone.aig.num_inputs(), 2);
    assert_eq!(cone.aig.input_name(0), "a");
    assert_eq!(cone.aig.input_name(1), "c");
    for v in all_inputs(2) {
        assert_eq!(cone.aig.eval_lit(cone.root, &v), v[0] && v[1]);
    }
    assert_eq!(aig.support(AigLit::TRUE), Vec::<usize>::new());
}

#[test]
fn substitution_and_cofactors() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let f = aig.xor(a, b);
    let f_a1 = aig.cofactor(f, 0, true);
    let f_a0 = aig.cofactor(f, 0, false);
    for v in all_inputs(2) {
        assert_eq!(aig.eval_lit(f_a1, &v), !v[1]);
        assert_eq!(aig.eval_lit(f_a0, &v), v[1]);
    }
    // Composing b := a turns XOR into constant 0.
    let mut subs = std::collections::HashMap::new();
    subs.insert(aig.input_node(1), a);
    let g = aig.substitute(f, &subs);
    assert_eq!(g, AigLit::FALSE);
}

#[test]
fn quantification() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let f = aig.and(a, b);
    let ex = aig.exists(f, &[1]);
    let fa = aig.forall(f, &[1]);
    for v in all_inputs(2) {
        assert_eq!(aig.eval_lit(ex, &v), v[0], "∃b. a∧b = a");
        assert!(!aig.eval_lit(fa, &v), "∀b. a∧b = 0");
    }
    let or = aig.or(a, b);
    let fa_or = aig.forall(or, &[1]);
    for v in all_inputs(2) {
        assert_eq!(aig.eval_lit(fa_or, &v), v[0], "∀b. a∨b = a");
    }
}

#[test]
fn comb_conversion() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let q = aig.add_latch("q", false);
    let n = aig.xor(a, q);
    aig.set_latch_next(0, n).unwrap();
    aig.add_output("f", q);
    let comb = aig.comb().unwrap();
    assert!(comb.is_comb());
    assert_eq!(comb.num_inputs(), 2, "latch became an input");
    assert_eq!(comb.num_outputs(), 2, "next-state became an output");
    assert_eq!(comb.outputs()[1].name(), "q$next");
    // f = q, q$next = a XOR q.
    for v in all_inputs(2) {
        let got = comb.eval(&v);
        assert_eq!(got[0], v[1]);
        assert_eq!(got[1], v[0] ^ v[1]);
    }
}

#[test]
fn comb_rejects_dangling_latch() {
    let mut aig = Aig::new();
    let _ = aig.add_input("a");
    let q = aig.add_latch("q", false);
    aig.add_output("f", q);
    assert!(aig.comb().is_err());
}

#[test]
fn sequential_step_eval() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let q = aig.add_latch("q", false);
    let n = aig.xor(a, q);
    aig.set_latch_next(0, n).unwrap();
    aig.add_output("f", q);
    let (outs, next) = aig.eval_seq_step(&[true], &[false]);
    assert_eq!(outs, vec![false]);
    assert_eq!(next, vec![true]);
    let (outs, next) = aig.eval_seq_step(&[true], &next);
    assert_eq!(outs, vec![true]);
    assert_eq!(next, vec![false]);
}

#[test]
fn compact_drops_dead_nodes_and_preserves_semantics() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let keep = aig.xor(a, b);
    // Dead logic: a large unused cone.
    let mut dead = c;
    for _ in 0..10 {
        dead = aig.and(dead, keep);
        dead = aig.xor(dead, a);
    }
    aig.add_output("f", keep);
    let before = aig.and_count();
    let compacted = aig.compact();
    assert!(compacted.and_count() < before, "dead cone must be dropped");
    assert_eq!(compacted.num_inputs(), 3, "inputs stay, even unused ones");
    for v in all_inputs(3) {
        assert_eq!(compacted.eval(&v), aig.eval(&v));
    }
}

#[test]
fn compact_keeps_latches() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let q = aig.add_latch("q", true);
    let n = aig.xor(a, q);
    aig.set_latch_next(0, n).unwrap();
    let _dead = aig.and(a, q);
    aig.add_output("f", q);
    let compacted = aig.compact();
    assert_eq!(compacted.latches().len(), 1);
    assert!(compacted.latches()[0].init());
    let c1 = aig.comb().unwrap();
    let c2 = compacted.comb().unwrap();
    for v in all_inputs(2) {
        assert_eq!(c1.eval(&v), c2.eval(&v));
    }
}

#[test]
fn level_and_cone_size() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let t = aig.and(a, b);
    let f = aig.and(t, c);
    assert_eq!(aig.level(f), 2);
    assert_eq!(aig.level(a), 0);
    assert_eq!(aig.cone_size(f), 2);
    assert_eq!(aig.cone_size(t), 1);
}

// ---------------------------------------------------------------------
// I/O round trips
// ---------------------------------------------------------------------

#[test]
fn bench_parse_c17_like() {
    let text = "\
# c17-style netlist
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";
    let aig = bench_io::parse(text).unwrap();
    assert_eq!(aig.num_inputs(), 5);
    assert_eq!(aig.num_outputs(), 2);
    // Spot-check against hand evaluation.
    let v = [true, false, true, true, false];
    let g10 = !(v[0] && v[2]);
    let g11 = !(v[2] && v[3]);
    let g16 = !(v[1] && g11);
    let g19 = !(g11 && v[4]);
    let got = aig.eval(&v);
    assert_eq!(got[0], !(g10 && g16));
    assert_eq!(got[1], !(g16 && g19));
}

#[test]
fn bench_round_trip() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let t = aig.xor(a, b);
    let f = aig.mux(c, t, !a);
    aig.add_output("f", f);
    let text = bench_io::write(&aig);
    let back = bench_io::parse(&text).unwrap();
    assert_eq!(back.num_inputs(), 3);
    for v in all_inputs(3) {
        assert_eq!(back.eval(&v), aig.eval(&v), "mismatch at {v:?}");
    }
}

#[test]
fn bench_round_trip_sequential() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let q = aig.add_latch("q", false);
    let n = aig.xor(a, q);
    aig.set_latch_next(0, n).unwrap();
    aig.add_output("f", q);
    let text = bench_io::write(&aig);
    let back = bench_io::parse(&text).unwrap();
    assert_eq!(back.latches().len(), 1);
    let c1 = aig.comb().unwrap();
    let c2 = back.comb().unwrap();
    for v in all_inputs(2) {
        assert_eq!(c1.eval(&v), c2.eval(&v));
    }
}

/// The writer is a pure function of the AIG: two writes of one AIG
/// give the same text, with the `NOT` lines in literal-code order.
#[test]
fn bench_write_is_deterministic() {
    let mut aig = Aig::new();
    let ins: Vec<AigLit> = (0..12).map(|i| aig.add_input(format!("x{i}"))).collect();
    let mut acc = ins[0];
    for (i, &x) in ins.iter().enumerate().skip(1) {
        acc = if i % 2 == 0 {
            aig.or(acc, !x)
        } else {
            aig.xor(acc, x)
        };
    }
    aig.add_output("f", !acc);
    let text = bench_io::write(&aig);
    assert_eq!(text, bench_io::write(&aig));
    let inverted: Vec<u32> = text
        .lines()
        .filter(|l| l.contains("= NOT("))
        .map(|l| match l.split("_inv").next().unwrap().split_at(1) {
            // Node 0 is the constant, so input `xi` is node i + 1.
            ("x", i) => i.parse::<u32>().unwrap() + 1,
            (_, id) => id.parse().unwrap(),
        })
        .collect();
    assert!(inverted.len() > 10, "only {} NOT lines", inverted.len());
    assert!(inverted.windows(2).all(|w| w[0] < w[1]), "{inverted:?}");
}

#[test]
fn bench_rejects_garbage() {
    assert!(bench_io::parse("WHAT(a)").is_err());
    assert!(bench_io::parse("f = NAND(a").is_err());
    assert!(bench_io::parse("INPUT(a)\nf = FROB(a)\nOUTPUT(f)").is_err());
    assert!(bench_io::parse("OUTPUT(f)").is_err(), "undefined output");
    // Combinational cycle.
    assert!(bench_io::parse("INPUT(a)\nx = AND(a, y)\ny = AND(a, x)\nOUTPUT(x)").is_err());
}

#[test]
fn blif_parse_and_semantics() {
    let text = "\
.model maj
.inputs a b c
.outputs f g
.names a b c f
11- 1
1-1 1
-11 1
.names f g
0 1
.end
";
    let aig = blif::parse(text).unwrap();
    for v in all_inputs(3) {
        let maj = (v[0] && v[1]) || (v[0] && v[2]) || (v[1] && v[2]);
        let got = aig.eval(&v);
        assert_eq!(got[0], maj);
        assert_eq!(got[1], !maj);
    }
}

#[test]
fn blif_offset_cover_and_constants() {
    let text = "\
.model k
.inputs a b
.outputs f t z
.names a b f
11 0
.names t
1
.names z
.end
";
    let aig = blif::parse(text).unwrap();
    for v in all_inputs(2) {
        let got = aig.eval(&v);
        assert_eq!(got[0], !(v[0] && v[1]), "off-set cover");
        assert!(got[1], "constant one");
        assert!(!got[2], "empty cover is constant zero");
    }
}

#[test]
fn blif_round_trip() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let t = aig.xor(a, b);
    let f = aig.mux(c, t, b);
    aig.add_output("f", f);
    aig.add_output("g", !t);
    let text = blif::write(&aig, "rt");
    let back = blif::parse(&text).unwrap();
    for v in all_inputs(3) {
        assert_eq!(back.eval(&v), aig.eval(&v));
    }
}

#[test]
fn blif_latch_round_trip() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let q = aig.add_latch("q", true);
    let n = aig.or(a, q);
    aig.set_latch_next(0, n).unwrap();
    aig.add_output("f", !q);
    let text = blif::write(&aig, "seq");
    let back = blif::parse(&text).unwrap();
    assert_eq!(back.latches().len(), 1);
    assert!(back.latches()[0].init());
    let c1 = aig.comb().unwrap();
    let c2 = back.comb().unwrap();
    for v in all_inputs(2) {
        assert_eq!(c1.eval(&v), c2.eval(&v));
    }
}

#[test]
fn blif_rejects_malformed() {
    assert!(blif::parse(".model m\n.inputs a\n.outputs f\n.names a f\n1\n.end").is_err());
    assert!(blif::parse(".model m\n.inputs a\n.outputs f\n.names a f\n11 1\n.end").is_err());
    assert!(blif::parse(".model m\n.inputs a\n.outputs f\n.names a f\n1 2\n.end").is_err());
    assert!(
        blif::parse(".model m\n.outputs f\n.end").is_err(),
        "undefined output"
    );
    // Mixed polarity cover.
    assert!(blif::parse(".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n0 0\n.end").is_err());
}

#[test]
fn aiger_round_trip() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let f = aig.xor(a, b);
    aig.add_output("f", f);
    aig.add_output("nb", !b);
    let text = aiger::write(&aig);
    let back = aiger::parse(&text).unwrap();
    assert_eq!(back.num_inputs(), 2);
    assert_eq!(back.outputs()[0].name(), "f");
    for v in all_inputs(2) {
        assert_eq!(back.eval(&v), aig.eval(&v));
    }
}

#[test]
fn aiger_round_trip_sequential() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let q = aig.add_latch("q", false);
    let n = aig.xor(a, q);
    aig.set_latch_next(0, n).unwrap();
    aig.add_output("f", q);
    let text = aiger::write(&aig);
    let back = aiger::parse(&text).unwrap();
    assert_eq!(back.latches().len(), 1);
    let c1 = aig.comb().unwrap();
    let c2 = back.comb().unwrap();
    for v in all_inputs(2) {
        assert_eq!(c1.eval(&v), c2.eval(&v));
    }
}

#[test]
fn aiger_binary_round_trip() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let t = aig.xor(a, b);
    let f = aig.mux(c, t, !a);
    aig.add_output("f", f);
    aig.add_output("g", !t);
    let bytes = aiger::write_binary(&aig);
    let back = aiger::parse_binary(&bytes).unwrap();
    assert_eq!(back.num_inputs(), 3);
    assert_eq!(back.outputs()[0].name(), "f");
    for v in all_inputs(3) {
        assert_eq!(back.eval(&v), aig.eval(&v));
    }
}

#[test]
fn aiger_binary_round_trip_sequential() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let q = aig.add_latch("q", false);
    let n = aig.xor(a, q);
    aig.set_latch_next(0, n).unwrap();
    aig.add_output("f", q);
    let bytes = aiger::write_binary(&aig);
    let back = aiger::parse_binary(&bytes).unwrap();
    assert_eq!(back.latches().len(), 1);
    let c1 = aig.comb().unwrap();
    let c2 = back.comb().unwrap();
    for v in all_inputs(2) {
        assert_eq!(c1.eval(&v), c2.eval(&v));
    }
}

#[test]
fn aiger_binary_rejects_malformed() {
    assert!(aiger::parse_binary(b"").is_err());
    assert!(
        aiger::parse_binary(b"aag 1 1 0 1 0\n2\n").is_err(),
        "ascii header"
    );
    assert!(
        aiger::parse_binary(b"aig 2 1 0 1 1\n4\n\xff").is_err(),
        "truncated varint"
    );
}

#[test]
fn aiger_rejects_malformed() {
    assert!(aiger::parse("").is_err());
    assert!(aiger::parse("aig 1 1 0 0 0").is_err(), "binary header");
    assert!(aiger::parse("aag 1 1 0").is_err(), "short header");
    assert!(
        aiger::parse("aag 1 1 0 1 0\n3\n2").is_err(),
        "odd input literal"
    );
}

#[test]
fn dot_export_mentions_every_node() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let f = aig.and(a, !b);
    aig.add_output("f", !f);
    let dot = aig.to_dot("t");
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("label=\"a\""));
    assert!(dot.contains("label=\"∧\""));
    assert!(
        dot.contains("style=dashed"),
        "complement edges must be dashed"
    );
    assert!(dot.contains("invtriangle"), "outputs rendered");
}

#[test]
fn import_merges_structure() {
    let mut src = Aig::new();
    let a = src.add_input("a");
    let b = src.add_input("b");
    let f = src.and(a, b);
    src.add_output("f", f);

    let mut dst = Aig::new();
    let x = dst.add_input("x");
    let mut map = std::collections::HashMap::new();
    map.insert(src.input_node(0), x);
    map.insert(src.input_node(1), x);
    let g = dst.import(&src, f, &mut map);
    // a∧b with both mapped to x collapses to x.
    assert_eq!(g, x);
}

mod props {
    use super::*;
    use proptest::prelude::*;

    /// A random combinational AIG recipe: sequence of gate picks.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
        proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..40)
    }

    proptest! {
        #[test]
        fn random_aig_eval_matches_sim64(ops in arb_ops(), seed in 0u64..u64::MAX) {
            let n_in = 5usize;
            let mut aig = Aig::new();
            let mut pool: Vec<AigLit> =
                (0..n_in).map(|i| aig.add_input(format!("x{i}"))).collect();
            for (op, i, j) in ops {
                let a = pool[i % pool.len()];
                let b = pool[j % pool.len()];
                let v = match op {
                    0 => aig.and(a, b),
                    1 => aig.or(a, b),
                    2 => aig.xor(a, b),
                    _ => !a,
                };
                pool.push(v);
            }
            let f = *pool.last().unwrap();
            aig.add_output("f", f);
            // 64 random patterns via sim64 vs scalar eval.
            let mut s = seed | 1;
            let mut rnd = || {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17; s
            };
            let words: Vec<u64> = (0..n_in).map(|_| rnd()).collect();
            let node_words = aig.sim64(&words);
            let fw = aig.sim_word(f, &node_words);
            for k in [0usize, 1, 13, 63] {
                let v: Vec<bool> = (0..n_in).map(|i| words[i] >> k & 1 == 1).collect();
                prop_assert_eq!(fw >> k & 1 == 1, aig.eval(&v)[0]);
            }
        }

        #[test]
        fn random_aig_io_round_trips(ops in arb_ops()) {
            let n_in = 4usize;
            let mut aig = Aig::new();
            let mut pool: Vec<AigLit> =
                (0..n_in).map(|i| aig.add_input(format!("x{i}"))).collect();
            for (op, i, j) in ops {
                let a = pool[i % pool.len()];
                let b = pool[j % pool.len()];
                let v = match op {
                    0 => aig.and(a, b),
                    1 => aig.or(a, b),
                    2 => aig.xor(a, b),
                    _ => !a,
                };
                pool.push(v);
            }
            let f = *pool.last().unwrap();
            aig.add_output("f", f);
            let via_blif = blif::parse(&blif::write(&aig, "m")).unwrap();
            let via_bench = bench_io::parse(&bench_io::write(&aig)).unwrap();
            let via_aiger = aiger::parse(&aiger::write(&aig)).unwrap();
            for v in all_inputs(n_in) {
                let want = aig.eval(&v);
                prop_assert_eq!(&via_blif.eval(&v), &want);
                prop_assert_eq!(&via_bench.eval(&v), &want);
                prop_assert_eq!(&via_aiger.eval(&v), &want);
            }
        }

        #[test]
        fn quantification_is_sound(ops in arb_ops()) {
            let n_in = 4usize;
            let mut aig = Aig::new();
            let mut pool: Vec<AigLit> =
                (0..n_in).map(|i| aig.add_input(format!("x{i}"))).collect();
            for (op, i, j) in ops {
                let a = pool[i % pool.len()];
                let b = pool[j % pool.len()];
                let v = match op {
                    0 => aig.and(a, b),
                    1 => aig.or(a, b),
                    2 => aig.xor(a, b),
                    _ => !a,
                };
                pool.push(v);
            }
            let f = *pool.last().unwrap();
            let ex = aig.exists(f, &[1, 2]);
            let fa = aig.forall(f, &[1, 2]);
            // ∀x1x2.f ≤ f ≤ ∃x1x2.f and quantified results do not
            // depend on x1/x2.
            for v in all_inputs(n_in) {
                let vf = aig.eval_lit(f, &v);
                let ve = aig.eval_lit(ex, &v);
                let va = aig.eval_lit(fa, &v);
                prop_assert!(!vf || ve);
                prop_assert!(!va || vf);
                let mut v2 = v.clone();
                v2[1] = !v2[1];
                v2[2] = !v2[2];
                prop_assert_eq!(ve, aig.eval_lit(ex, &v2));
                prop_assert_eq!(va, aig.eval_lit(fa, &v2));
            }
        }
    }
}
