//! Input generators. Every workload's netlists come from here, as
//! `.bench` text derived from the seed and the input family alone; the
//! program under test only ever sees that text.

use std::collections::{HashMap, HashSet};

use step_aig::{bench_io, canonicalize, Aig, AigLit, Cone};
use step_circuits::{registry_all, registry_table1, Scale};

use crate::util::Rng;

/// One chain of a wide cone: its inputs folded left to right by
/// random AND/OR/XOR/NAND gates.
fn chain(aig: &mut Aig, inputs: &[AigLit], rng: &mut Rng) -> AigLit {
    let mut acc = inputs[0];
    for &x in &inputs[1..] {
        acc = match rng.range(0, 3) {
            0 => aig.and(acc, x),
            1 => aig.or(acc, x),
            2 => aig.xor(acc, x),
            _ => !aig.and(acc, x),
        };
    }
    acc
}

/// A wide cone over `support` inputs of `pool`: the OR of `chains`
/// chains that share `shared` inputs and split the rest between them.
fn wide_cone(
    aig: &mut Aig,
    pool: &[AigLit],
    (support, chains, shared): (usize, usize, usize),
    rng: &mut Rng,
) -> AigLit {
    let mut picked = pool.to_vec();
    rng.shuffle(&mut picked);
    picked.truncate(support);
    let (common, private) = picked.split_at(shared);
    let mut roots = Vec::with_capacity(chains);
    for c in 0..chains {
        let mut ins: Vec<AigLit> = common.to_vec();
        ins.extend(private.iter().skip(c).step_by(chains));
        rng.shuffle(&mut ins);
        roots.push(chain(aig, &ins, rng));
    }
    aig.or_many(&roots)
}

/// Supports of the paper_cones population, one per cone: a fixed mix
/// of narrow cones (support 20–26, which mostly prove optimal within
/// budget) and wide ones (33–64, which truncate), so a family changes
/// which functions are drawn but not how many of each regime.
pub const PAPER_NARROW: (usize, usize) = (20, 26);
pub const PAPER_WIDE: (usize, usize) = (33, 64);

/// The shapes `(support, chains, shared)` of `n` cones: half narrow,
/// half wide, supports spread evenly over each range and chain and
/// sharing counts cycling through 2–4, so every family draws the same
/// mix of shapes and only the gates and wiring differ.
fn paper_shapes(n: usize) -> Vec<(usize, usize, usize)> {
    let half = n.div_ceil(2);
    (0..n)
        .map(|i| {
            let j = i / 2;
            let (lo, hi) = if i % 2 == 0 { PAPER_NARROW } else { PAPER_WIDE };
            let support = lo + (hi - lo) * j / half.saturating_sub(1).max(1);
            (support, 2 + j % 3, 2 + (j / 3) % 3)
        })
        .collect()
}

/// The paper_cones netlists: `circuits` circuits of `per_circuit`
/// outputs over 64 inputs each.
///
/// `family` draws the cone functions (gates and chain structure) and
/// their order; `seed` draws which of the 64 inputs each cone reads.
/// The engine canonicalizes every cone before solving, so a seed
/// changes the netlists the program parses but not the work each cone
/// costs, nor the order (which sets the allocator's high-water mark):
/// figures compare across seeds, and a fresh `family` is the held-out
/// input set.
pub fn paper_cones(family: u64, seed: u64, circuits: usize, per_circuit: usize) -> Vec<String> {
    let mut fam = Rng::new(family ^ 0xC0DE);
    let mut rng = Rng::new(seed);
    let n = circuits * per_circuit;
    let mut cones: Vec<((usize, usize, usize), Rng)> = paper_shapes(n)
        .into_iter()
        .map(|shape| (shape, fam.fork()))
        .collect();
    fam.shuffle(&mut cones);
    let mut cones = cones.into_iter();
    (0..circuits)
        .map(|c| {
            let mut aig = Aig::new();
            let inputs: Vec<AigLit> = (0..64).map(|i| aig.add_input(format!("x{i}"))).collect();
            for o in 0..per_circuit {
                let (shape, mut structure) = cones.next().expect("one shape per cone");
                // The seed picks which inputs the cone reads, in their
                // order, so the extracted halves keep their shape too.
                let mut chosen: Vec<usize> = (0..inputs.len()).collect();
                rng.shuffle(&mut chosen);
                chosen.truncate(shape.0);
                chosen.sort_unstable();
                let pool: Vec<AigLit> = chosen.iter().map(|&i| inputs[i]).collect();
                let root = wide_cone(&mut aig, &pool, shape, &mut structure);
                aig.add_output(format!("c{c}_o{o}"), root);
            }
            bench_io::write(&aig)
        })
        .collect()
}

/// A small fixed circuit (one support-8 cone) the in-process set-ups
/// solve once as their warm-up; the same for every seed.
pub fn warmup() -> String {
    let mut rng = Rng::new(0x5EED);
    let mut aig = Aig::new();
    let pool: Vec<AigLit> = (0..8).map(|i| aig.add_input(format!("w{i}"))).collect();
    let root = wide_cone(&mut aig, &pool, (8, 2, 2), &mut rng);
    aig.add_output("w", root);
    bench_io::write(&aig)
}

/// The library of distinct small cones twin_served draws from: every
/// output cone of support 3 or more of the default-scale registry
/// stand-ins, deduplicated by canonical fingerprint, in registry order.
pub fn twin_library() -> Vec<Cone> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for entry in registry_all() {
        let aig = entry.build(Scale::Default);
        for o in aig.outputs() {
            let cone = aig.cone(o.lit());
            if cone.support_size() >= 3
                && seen.insert(canonicalize(&cone.aig, cone.root).fingerprint.hash)
            {
                out.push(cone);
            }
        }
    }
    out
}

/// Inputs of every twin_served request circuit.
pub const TWIN_INPUTS: usize = 32;
/// Outputs of every twin_served request circuit.
pub const TWIN_OUTPUTS: usize = 24;
/// Every this many requests, one output is a tail cone.
pub const TWIN_TAIL_EVERY: usize = 2;

/// A seeded twin_served request stream: requests of [`TWIN_OUTPUTS`]
/// outputs over [`TWIN_INPUTS`] inputs (one size, so latencies form one
/// mode and their quantiles do not jump between request sizes).
/// Outputs are permuted-input twins of the fixed registry library
/// ([`twin_library`], visited in rounds, each round in a seeded order),
/// except that every [`TWIN_TAIL_EVERY`]th request carries one cone of
/// a tail library in place of its first output, cycling through it —
/// so nearly every cone repeats one seen earlier, first sightings keep
/// arriving, and a stream prefix of `tail × TWIN_TAIL_EVERY` requests
/// sights every library cone. Every seed draws each library cone
/// equally often; the sequence depends on the seed alone, however much
/// of it is drawn.
pub struct TwinStream {
    /// The registry library followed by the tail library.
    pub library: Vec<Cone>,
    hot: usize,
    /// Library indices of the tail, in the order the stream sights them.
    tail_order: Vec<usize>,
    /// Registry library indices still to visit this round.
    round: Vec<usize>,
    rng: Rng,
    drawn: usize,
    /// Library cones primed into the server's store before it starts.
    pub primed: Vec<usize>,
}

impl TwinStream {
    /// The stream with a tail of `tail` cones; `hot_primed` of the
    /// registry library and `tail_primed` of the tail are primed. The
    /// tail cones themselves depend on `family` alone, so the set of
    /// distinct functions a stream prefix sights is the same for every
    /// seed; the seed orders, wires and primes them.
    pub fn new(family: u64, seed: u64, tail: usize, hot_primed: f64, tail_primed: f64) -> Self {
        let mut library = twin_library();
        let hot = library.len();
        let mut fixed = Rng::new(0x7A11 ^ family);
        for _ in 0..tail {
            let mut aig = Aig::new();
            let support = fixed.range(5, 8);
            let pool: Vec<AigLit> = (0..support)
                .map(|i| aig.add_input(format!("t{i}")))
                .collect();
            let shape = (support, fixed.range(2, 3), fixed.range(1, 2));
            let root = wide_cone(&mut aig, &pool, shape, &mut fixed);
            library.push(aig.cone(root));
        }
        let mut rng = Rng::new(seed);
        let mut tail_order: Vec<usize> = (hot..library.len()).collect();
        rng.shuffle(&mut tail_order);
        let mut primed = Vec::new();
        for (mut part, share) in [
            ((0..hot).collect::<Vec<_>>(), hot_primed),
            (tail_order.clone(), tail_primed),
        ] {
            rng.shuffle(&mut part);
            part.truncate((part.len() as f64 * share).round() as usize);
            primed.extend(part);
        }
        primed.sort_unstable();
        TwinStream {
            library,
            hot,
            tail_order,
            round: Vec::new(),
            rng,
            drawn: 0,
            primed,
        }
    }

    /// The next request's netlist.
    pub fn next_request(&mut self) -> String {
        let k = self.drawn;
        self.drawn += 1;
        let tail = self.tail_order.len();
        let rng = &mut self.rng;
        let mut aig = Aig::new();
        let ins: Vec<AigLit> = (0..TWIN_INPUTS)
            .map(|i| aig.add_input(format!("i{i}")))
            .collect();
        for o in 0..TWIN_OUTPUTS {
            let pick = if o == 0 && tail > 0 && k.is_multiple_of(TWIN_TAIL_EVERY) {
                self.tail_order[(k / TWIN_TAIL_EVERY) % tail]
            } else {
                if self.round.is_empty() {
                    self.round = (0..self.hot).collect();
                    rng.shuffle(&mut self.round);
                }
                self.round.pop().expect("refilled")
            };
            let base = &self.library[pick];
            let mut slots = ins.clone();
            rng.shuffle(&mut slots);
            let mut map: HashMap<_, _> = (0..base.support_size())
                .map(|k| (base.aig.input_node(k), slots[k]))
                .collect();
            let root = aig.import(&base.aig, base.root, &mut map);
            aig.add_output(format!("o{o}"), root);
        }
        bench_io::write(&aig)
    }
}

/// The synth_recursion netlists: the full-scale registry stand-ins of
/// Table I except C7552 (whose widest output alone takes minutes), in
/// registry order; the first `count` of them.
///
/// The seed renames every internal signal of each netlist; nothing
/// else changes. Synthesis follows the circuit's structure closely:
/// it probes frontier cones in output order through a shared result
/// cache, latches become inputs and outputs in definition order, and
/// the AIG's node order (set by the line order) shapes the extracted
/// halves. Reordering any of these made the recursion expand 3% more
/// or fewer cones between seeds, for reasons of order alone.
pub fn synth_circuits(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed);
    registry_table1()
        .into_iter()
        .filter(|e| e.name != "C7552")
        .take(count)
        .map(|entry| scramble(&bench_io::write(&entry.build(Scale::Full)), &mut rng))
        .collect()
}

/// `text` with every gate-defined signal that is neither an output nor
/// a latch renamed to a seeded `s<k>`, lines in their order.
fn scramble(text: &str, rng: &mut Rng) -> String {
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let kept: HashSet<&str> = lines
        .iter()
        .filter_map(|l| match l.split_once('=') {
            Some((latch, def)) if def.trim_start().starts_with("DFF(") => Some(latch.trim()),
            Some(_) => None,
            None => l
                .strip_prefix("OUTPUT(")
                .map(|o| o.trim_end_matches(')').trim()),
        })
        .collect();
    let defined: Vec<&str> = lines
        .iter()
        .filter_map(|l| l.split_once('=').map(|(name, _)| name.trim()))
        .filter(|name| !kept.contains(name))
        .collect();
    let mut ids: Vec<usize> = (0..defined.len()).collect();
    rng.shuffle(&mut ids);
    let names: HashMap<&str, String> = defined
        .iter()
        .zip(ids)
        .map(|(&name, k)| (name, format!("s{k}")))
        .collect();
    let mut out = String::with_capacity(text.len());
    for line in lines {
        let mut word = String::new();
        for ch in line.chars().chain(std::iter::once('\n')) {
            if "(),= \t\n".contains(ch) {
                out.push_str(names.get(word.as_str()).map_or(&word, |n| n));
                word.clear();
                out.push(ch);
            } else {
                word.push(ch);
            }
        }
    }
    out
}

/// Parses generated text; generated netlists always parse.
pub fn parse(text: &str) -> Aig {
    bench_io::parse(text).expect("generated netlists parse")
}
