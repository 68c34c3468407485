//! Multi-level bi-decomposition networks.
//!
//! The paper's introduction motivates bi-decomposition as the engine of
//! multi-level logic synthesis: a complex `f(X)` is split into two
//! simpler sub-functions, which are split again, until the leaves are
//! simple — producing a network of two-input OR/AND/XOR gates over
//! small leaf functions. The recursion itself lives in the
//! `step-synth` crate (`SynthDriver`); this module holds the network it
//! produces:
//!
//! * a [`DecompTree`] whose internal nodes are the chosen gates and
//!   whose leaves are (small) undecomposable functions with their own
//!   input supports, each stored as a flat [`LeafFn`];
//! * [`DecompTree::to_aig`] rebuilds the network as an AIG for
//!   verification (through [`TreeNode::import`], which network checks
//!   share) and [`DecompTree::render`] pretty-prints the structure.

use std::collections::HashMap;

use step_aig::{Aig, AigLit, AigNode, NodeId};

use crate::spec::GateOp;

/// A node of a multi-level decomposition tree.
#[derive(Clone, Debug)]
pub enum TreeNode {
    /// An undecomposable (or depth-limited) leaf function.
    Leaf {
        /// The leaf function over its own inputs.
        func: LeafFn,
        /// For each input of `func`: the index of the original input
        /// it reads.
        inputs: Vec<usize>,
    },
    /// A two-input gate over two sub-trees.
    Gate {
        /// The gate operator chosen at this level.
        op: GateOp,
        /// Left child (`fA`).
        left: Box<TreeNode>,
        /// Right child (`fB`).
        right: Box<TreeNode>,
    },
}

/// A single-output function stored as a flat list of AND gates — the
/// compact form a network keeps for each of its many small leaves.
///
/// Literal codes follow AIGER: code `2v + c` is variable `v`,
/// complemented when `c = 1`. Variable 0 is constant false, variables
/// `1..=n` are the function's inputs, and variable `n + 1 + g` is gate
/// `g`, whose fanins are codes of earlier variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeafFn {
    num_inputs: u32,
    ands: Vec<[u32; 2]>,
    out: u32,
}

impl LeafFn {
    /// Flattens the cone of `root` in `aig`, reading input `i` of `aig`
    /// as input `i` of the leaf. Gates are listed in the post-order
    /// [`Aig::import`] visits them, so [`LeafFn::import`] rebuilds the
    /// cone exactly as importing it from `aig` would.
    ///
    /// # Panics
    ///
    /// Panics if the cone reaches a latch.
    pub fn from_cone(aig: &Aig, root: AigLit) -> Self {
        let num_inputs = aig.num_inputs() as u32;
        let mut ands = Vec::new();
        let mut var: HashMap<NodeId, u32> = HashMap::new();
        let mut stack = vec![root.node()];
        while let Some(&id) = stack.last() {
            if var.contains_key(&id) {
                stack.pop();
                continue;
            }
            match aig.node(id) {
                AigNode::Const => {
                    var.insert(id, 0);
                    stack.pop();
                }
                AigNode::Input { pi } => {
                    var.insert(id, pi + 1);
                    stack.pop();
                }
                AigNode::Latch { .. } => panic!("leaf cones are combinational"),
                AigNode::And { f0, f1 } => match (var.get(&f0.node()), var.get(&f1.node())) {
                    (Some(&v0), Some(&v1)) => {
                        let code = |v: u32, l: AigLit| 2 * v + u32::from(l.is_complement());
                        ands.push([code(v0, f0), code(v1, f1)]);
                        var.insert(id, num_inputs + ands.len() as u32);
                        stack.pop();
                    }
                    (m0, m1) => {
                        if m0.is_none() {
                            stack.push(f0.node());
                        }
                        if m1.is_none() {
                            stack.push(f1.node());
                        }
                    }
                },
            }
        }
        let out = 2 * var[&root.node()] + u32::from(root.is_complement());
        LeafFn {
            num_inputs,
            ands,
            out,
        }
    }

    /// The one-input function `x` (or `¬x` when `negated`).
    pub fn literal(negated: bool) -> Self {
        LeafFn {
            num_inputs: 1,
            ands: Vec::new(),
            out: 2 + u32::from(negated),
        }
    }

    /// Number of AND gates.
    pub fn and_count(&self) -> usize {
        self.ands.len()
    }

    /// The value under an assignment of the leaf's inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than the leaf's input count.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        let mut values = vec![false; 1 + self.num_inputs as usize + self.ands.len()];
        values[1..=self.num_inputs as usize].copy_from_slice(&inputs[..self.num_inputs as usize]);
        let value = |values: &[bool], code: u32| values[code as usize / 2] ^ (code & 1 == 1);
        for (g, &[a, b]) in self.ands.iter().enumerate() {
            values[self.num_inputs as usize + 1 + g] = value(&values, a) && value(&values, b);
        }
        value(&values, self.out)
    }

    /// Builds the function inside `dst`, reading leaf input `k` from
    /// `inputs[k]`; returns its literal.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than the leaf's input count.
    pub fn import(&self, dst: &mut Aig, inputs: &[AigLit]) -> AigLit {
        let mut lits = Vec::with_capacity(1 + self.num_inputs as usize + self.ands.len());
        lits.push(AigLit::FALSE);
        lits.extend_from_slice(&inputs[..self.num_inputs as usize]);
        let lit =
            |lits: &[AigLit], code: u32| lits[code as usize / 2].xor_complement(code & 1 == 1);
        for &[a, b] in &self.ands {
            let g = dst.and(lit(&lits, a), lit(&lits, b));
            lits.push(g);
        }
        lit(&lits, self.out)
    }
}

impl TreeNode {
    /// Builds the subtree inside `dst`, reading original input `i` from
    /// `inputs[i]`; returns its literal.
    pub fn import(&self, dst: &mut Aig, inputs: &[AigLit]) -> AigLit {
        match self {
            TreeNode::Leaf {
                func,
                inputs: leaf_ins,
            } => {
                let ins: Vec<AigLit> = leaf_ins.iter().map(|&i| inputs[i]).collect();
                func.import(dst, &ins)
            }
            TreeNode::Gate { op, left, right } => {
                let l = left.import(dst, inputs);
                let r = right.import(dst, inputs);
                match op {
                    GateOp::Or => dst.or(l, r),
                    GateOp::And => dst.and(l, r),
                    GateOp::Xor => dst.xor(l, r),
                }
            }
        }
    }
}

/// A multi-level bi-decomposition of one output function.
#[derive(Clone, Debug)]
pub struct DecompTree {
    /// The tree root.
    pub root: TreeNode,
    /// Number of original circuit inputs (leaf `inputs` index these).
    pub num_inputs: usize,
}

impl DecompTree {
    /// Number of gate (internal) nodes.
    pub fn num_gates(&self) -> usize {
        fn rec(n: &TreeNode) -> usize {
            match n {
                TreeNode::Leaf { .. } => 0,
                TreeNode::Gate { left, right, .. } => 1 + rec(left) + rec(right),
            }
        }
        rec(&self.root)
    }

    /// Number of leaf functions.
    pub fn num_leaves(&self) -> usize {
        fn rec(n: &TreeNode) -> usize {
            match n {
                TreeNode::Leaf { .. } => 1,
                TreeNode::Gate { left, right, .. } => rec(left) + rec(right),
            }
        }
        rec(&self.root)
    }

    /// Depth of the gate tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn rec(n: &TreeNode) -> usize {
            match n {
                TreeNode::Leaf { .. } => 0,
                TreeNode::Gate { left, right, .. } => 1 + rec(left).max(rec(right)),
            }
        }
        rec(&self.root)
    }

    /// The maximum leaf support size — the "simplicity" measure the
    /// decomposition drives down.
    pub fn max_leaf_support(&self) -> usize {
        fn rec(n: &TreeNode) -> usize {
            match n {
                TreeNode::Leaf { inputs, .. } => inputs.len(),
                TreeNode::Gate { left, right, .. } => rec(left).max(rec(right)),
            }
        }
        rec(&self.root)
    }

    /// Evaluates the tree under an assignment of the original inputs.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        fn rec(n: &TreeNode, a: &[bool]) -> bool {
            match n {
                TreeNode::Leaf { func, inputs } => {
                    let ins: Vec<bool> = inputs.iter().map(|&i| a[i]).collect();
                    func.eval(&ins)
                }
                TreeNode::Gate { op, left, right } => {
                    let l = rec(left, a);
                    let r = rec(right, a);
                    match op {
                        GateOp::Or => l || r,
                        GateOp::And => l && r,
                        GateOp::Xor => l ^ r,
                    }
                }
            }
        }
        rec(&self.root, assignment)
    }

    /// Rebuilds the whole network as a single-output AIG over
    /// `num_inputs` inputs (named `x<i>`).
    pub fn to_aig(&self) -> Aig {
        let mut aig = Aig::new();
        let inputs: Vec<AigLit> = (0..self.num_inputs)
            .map(|i| aig.add_input(format!("x{i}")))
            .collect();
        let root = self.root.import(&mut aig, &inputs);
        aig.add_output("f", root);
        aig
    }

    /// Pretty-prints the tree structure.
    pub fn render(&self) -> String {
        let mut out = String::new();
        fn rec(n: &TreeNode, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match n {
                TreeNode::Leaf { inputs, func } => {
                    out.push_str(&format!(
                        "{pad}leaf({} vars: {:?}, {} ands)\n",
                        inputs.len(),
                        inputs,
                        func.and_count()
                    ));
                }
                TreeNode::Gate { op, left, right } => {
                    out.push_str(&format!("{pad}{op}\n"));
                    rec(left, indent + 1, out);
                    rec(right, indent + 1, out);
                }
            }
        }
        rec(&self.root, 0, &mut out);
        out
    }
}
