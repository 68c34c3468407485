//! Reader/writer for the ISCAS `.bench` netlist format used by the
//! ISCAS'85/'89 and ITC'99 benchmark suites the paper evaluates on.
//!
//! Supported gates: `AND`, `NAND`, `OR`, `NOR`, `XOR`, `XNOR`, `NOT`,
//! `BUF`/`BUFF`, `DFF` (latch), plus `INPUT(..)`/`OUTPUT(..)`
//! declarations and `#` comments.
//!
//! ```
//! let text = "\
//! INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = NAND(a, b)\n";
//! let aig = step_aig::bench_io::parse(text)?;
//! assert_eq!(aig.num_inputs(), 2);
//! assert_eq!(aig.eval(&[true, true]), vec![false]);
//! # Ok::<(), step_aig::ParseError>(())
//! ```

use std::collections::HashMap;
use std::ops::Range;

use crate::error::ParseError;
use crate::graph::Aig;
use crate::lit::AigLit;

/// A gate's operator, read case-insensitively.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
    Not,
    Buf,
    Dff,
    Unknown,
}

impl Op {
    fn of(kind: &str) -> Op {
        const OPS: [(&str, Op); 10] = [
            ("AND", Op::And),
            ("NAND", Op::Nand),
            ("OR", Op::Or),
            ("NOR", Op::Nor),
            ("XOR", Op::Xor),
            ("XNOR", Op::Xnor),
            ("NOT", Op::Not),
            ("BUF", Op::Buf),
            ("BUFF", Op::Buf),
            ("DFF", Op::Dff),
        ];
        OPS.iter()
            .find(|(name, _)| kind.eq_ignore_ascii_case(name))
            .map_or(Op::Unknown, |&(_, op)| op)
    }
}

/// One `name = KIND(args)` line: the defined signal, the operator (and
/// its spelling, for messages) and its operands' range in
/// [`Netlist::operands`].
struct Gate<'a> {
    line: usize,
    out: u32,
    kind: &'a str,
    op: Op,
    args: Range<usize>,
}

/// No gate defines the signal.
const UNDEFINED: u32 = u32::MAX;

/// Every signal name of a netlist, interned once: names borrow the
/// text, and signal `i` is `names[i]`.
#[derive(Default)]
struct Netlist<'a> {
    ids: HashMap<&'a str, u32>,
    names: Vec<&'a str>,
    /// The gate defining each signal, or [`UNDEFINED`].
    gate_of: Vec<u32>,
    gates: Vec<Gate<'a>>,
    operands: Vec<u32>,
}

impl<'a> Netlist<'a> {
    fn id(&mut self, name: &'a str) -> u32 {
        *self.ids.entry(name).or_insert_with(|| {
            self.names.push(name);
            self.gate_of.push(UNDEFINED);
            (self.names.len() - 1) as u32
        })
    }
}

/// Parses `.bench` text into an [`Aig`].
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed lines, undefined signals,
/// combinational cycles or arity violations.
pub fn parse(text: &str) -> Result<Aig, ParseError> {
    let mut net = Netlist::default();
    let mut inputs: Vec<(usize, u32)> = Vec::new();
    let mut outputs: Vec<(usize, &str)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = strip_decl(line, "INPUT") {
            inputs.push((lineno, net.id(rest)));
        } else if let Some(rest) = strip_decl(line, "OUTPUT") {
            outputs.push((lineno, rest));
        } else if let Some(eq) = line.find('=') {
            let name = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| ParseError::new(lineno, "expected `gate(args)`"))?;
            if !rhs.ends_with(')') {
                return Err(ParseError::new(lineno, "missing `)`"));
            }
            let kind = rhs[..open].trim();
            let start = net.operands.len();
            for arg in rhs[open + 1..rhs.len() - 1].split(',') {
                let arg = arg.trim();
                if !arg.is_empty() {
                    let id = net.id(arg);
                    net.operands.push(id);
                }
            }
            if net.operands.len() == start {
                return Err(ParseError::new(lineno, "gate with no operands"));
            }
            let out = net.id(name);
            if net.gate_of[out as usize] != UNDEFINED {
                return Err(ParseError::new(
                    lineno,
                    format!("signal `{name}` redefined"),
                ));
            }
            net.gate_of[out as usize] = net.gates.len() as u32;
            net.gates.push(Gate {
                line: lineno,
                out,
                kind,
                op: Op::of(kind),
                args: start..net.operands.len(),
            });
        } else {
            return Err(ParseError::new(
                lineno,
                format!("unrecognized line `{line}`"),
            ));
        }
    }

    let mut aig = Aig::new();
    let mut sig: Vec<Option<AigLit>> = vec![None; net.names.len()];
    for &(lineno, id) in &inputs {
        let name = net.names[id as usize];
        if sig[id as usize].is_some() {
            return Err(ParseError::new(lineno, format!("input `{name}` redefined")));
        }
        sig[id as usize] = Some(aig.add_input(name));
    }
    // DFF outputs are leaves; create them before resolving gates so that
    // definition order does not matter and latch cycles are legal.
    let mut latch_next: Vec<(usize, u32)> = Vec::new(); // (latch idx, source)
    for gate in net.gates.iter().filter(|g| g.op == Op::Dff) {
        if gate.args.len() != 1 {
            return Err(ParseError::new(gate.line, "DFF takes exactly one operand"));
        }
        let idx = aig.latches().len();
        let lit = aig.add_latch(net.names[gate.out as usize], false);
        sig[gate.out as usize] = Some(lit);
        latch_next.push((idx, net.operands[gate.args.start]));
    }

    // Resolve combinational gates in definition order, each by an
    // iterative DFS over its unresolved operands.
    let mut dfs = Dfs {
        stack: Vec::new(),
        visiting: vec![false; net.names.len()],
        lits: Vec::new(),
    };
    for gate in &net.gates {
        dfs.resolve(gate.out, &net, &mut sig, &mut aig)?;
    }
    let undefined = |id: u32| format!("undefined signal `{}`", net.names[id as usize]);
    for (idx, src) in latch_next {
        let lit = sig[src as usize].ok_or_else(|| ParseError::new(0, undefined(src)))?;
        aig.set_latch_next(idx, lit)
            .map_err(|e| ParseError::new(0, e.to_string()))?;
    }
    for &(lineno, name) in &outputs {
        let lit = net
            .ids
            .get(name)
            .and_then(|&id| sig[id as usize])
            .ok_or_else(|| ParseError::new(lineno, format!("undefined output `{name}`")))?;
        aig.add_output(name, lit);
    }
    Ok(aig)
}

fn strip_decl<'a>(line: &'a str, kw: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(kw)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

/// The resolution DFS's buffers, reused across gates: the work stack,
/// the on-stack marks that detect combinational cycles, and the
/// operand literals of the gate being built.
struct Dfs {
    stack: Vec<u32>,
    visiting: Vec<bool>,
    lits: Vec<AigLit>,
}

impl Dfs {
    /// Builds signal `target` and every unresolved signal it depends
    /// on. A gate is built once all its operands are; until then its
    /// unresolved operands go on the stack in operand order, so the
    /// last one is built first.
    fn resolve(
        &mut self,
        target: u32,
        net: &Netlist<'_>,
        sig: &mut [Option<AigLit>],
        aig: &mut Aig,
    ) -> Result<(), ParseError> {
        self.stack.clear();
        self.stack.push(target);
        while let Some(&id) = self.stack.last() {
            let at = id as usize;
            if sig[at].is_some() {
                self.stack.pop();
                continue;
            }
            let Some(gate) = net.gates.get(net.gate_of[at] as usize) else {
                return Err(ParseError::new(
                    0,
                    format!("undefined signal `{}`", net.names[at]),
                ));
            };
            let args = &net.operands[gate.args.clone()];
            if args.iter().all(|&a| sig[a as usize].is_some()) {
                self.lits.clear();
                self.lits
                    .extend(args.iter().filter_map(|&a| sig[a as usize]));
                sig[at] = Some(build_gate(aig, gate, &self.lits)?);
                self.visiting[at] = false;
                self.stack.pop();
            } else {
                if self.visiting[at] {
                    return Err(ParseError::new(
                        gate.line,
                        format!("combinational cycle through `{}`", net.names[at]),
                    ));
                }
                self.visiting[at] = true;
                self.stack
                    .extend(args.iter().copied().filter(|&a| sig[a as usize].is_none()));
            }
        }
        Ok(())
    }
}

fn build_gate(aig: &mut Aig, gate: &Gate<'_>, args: &[AigLit]) -> Result<AigLit, ParseError> {
    let unary = || -> Result<(), ParseError> {
        if args.len() == 1 {
            Ok(())
        } else {
            Err(ParseError::new(
                gate.line,
                format!("{} expects 1 operand(s)", gate.kind.to_ascii_uppercase()),
            ))
        }
    };
    Ok(match gate.op {
        Op::And => aig.and_many(args),
        Op::Nand => !aig.and_many(args),
        Op::Or => aig.or_many(args),
        Op::Nor => !aig.or_many(args),
        Op::Xor => aig.xor_many(args),
        Op::Xnor => !aig.xor_many(args),
        Op::Not => {
            unary()?;
            !args[0]
        }
        Op::Buf => {
            unary()?;
            args[0]
        }
        Op::Dff => unreachable!("latches are handled separately"),
        Op::Unknown => {
            return Err(ParseError::new(
                gate.line,
                format!("unknown gate `{}`", gate.kind.to_ascii_uppercase()),
            ))
        }
    })
}

/// Serializes an [`Aig`] in `.bench` format.
///
/// AND nodes become `AND` gates, complemented edges become `NOT` gates
/// and latches become `DFF`s. Internal node names are `n<id>`. Constant
/// edges are expressed as `XOR(x, x)` over the first available leaf; a
/// tie-off input `__tie0` is added for constant functions of zero inputs.
pub fn write(aig: &Aig) -> String {
    use crate::graph::AigNode;
    use std::collections::BTreeSet;
    use std::fmt::Write as _;

    let mut out = String::new();
    let mut body = String::new();
    let mut need_tie_input = false;

    let base_name = |id: crate::graph::NodeId| -> String {
        match aig.node(id) {
            AigNode::Const => "__gnd".to_owned(),
            AigNode::Input { pi } => aig.input_name(pi as usize).to_owned(),
            AigNode::Latch { idx } => aig.latches()[idx as usize].name().to_owned(),
            AigNode::And { .. } => format!("n{}", id.index()),
        }
    };
    // Sorted by literal code, so the `NOT` lines come out in the same
    // order on every run.
    let mut inverters: BTreeSet<u32> = BTreeSet::new();
    let mut used_const = false;
    let ref_name = |lit: AigLit, inverters: &mut BTreeSet<u32>, used_const: &mut bool| {
        if lit.is_const() {
            *used_const = true;
        }
        if lit.is_complement() && lit != AigLit::TRUE {
            inverters.insert(lit.code());
            format!("{}_inv", base_name(lit.node()))
        } else if lit == AigLit::TRUE {
            "__vdd".to_owned()
        } else {
            base_name(lit.node())
        }
    };

    for (id, node) in aig.iter_nodes() {
        if let AigNode::And { f0, f1 } = node {
            let a = ref_name(f0, &mut inverters, &mut used_const);
            let b = ref_name(f1, &mut inverters, &mut used_const);
            let _ = writeln!(body, "n{} = AND({}, {})", id.index(), a, b);
        }
    }
    for l in aig.latches() {
        if let Some(next) = l.next() {
            let src = ref_name(next, &mut inverters, &mut used_const);
            let _ = writeln!(body, "{} = DFF({})", l.name(), src);
        }
    }
    for o in aig.outputs() {
        let src = ref_name(o.lit(), &mut inverters, &mut used_const);
        if src != o.name() {
            let _ = writeln!(body, "{} = BUFF({})", o.name(), src);
        }
    }
    for code in &inverters {
        let lit = AigLit::from_code(*code);
        let _ = writeln!(
            body,
            "{}_inv = NOT({})",
            base_name(lit.node()),
            base_name(lit.node())
        );
    }
    if used_const {
        // `.bench` has no constants: derive 0/1 from any leaf.
        let tie = if aig.num_inputs() > 0 {
            aig.input_name(0).to_owned()
        } else if !aig.latches().is_empty() {
            aig.latches()[0].name().to_owned()
        } else {
            need_tie_input = true;
            "__tie0".to_owned()
        };
        let _ = writeln!(body, "__gnd = XOR({tie}, {tie})");
        let _ = writeln!(body, "__vdd = NOT(__gnd)");
    }

    for pi in 0..aig.num_inputs() {
        let _ = writeln!(out, "INPUT({})", aig.input_name(pi));
    }
    if need_tie_input {
        let _ = writeln!(out, "INPUT(__tie0)");
    }
    for o in aig.outputs() {
        let _ = writeln!(out, "OUTPUT({})", o.name());
    }
    out.push_str(&body);
    out
}
