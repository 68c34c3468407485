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
//!   input supports;
//! * [`DecompTree::to_aig`] rebuilds the network as an AIG for
//!   verification and [`DecompTree::render`] pretty-prints the
//!   structure.

use step_aig::{Aig, AigLit};

use crate::spec::GateOp;

/// A node of a multi-level decomposition tree.
#[derive(Clone, Debug)]
pub enum TreeNode {
    /// An undecomposable (or depth-limited) leaf function.
    Leaf {
        /// Single-output AIG computing the leaf.
        func: Aig,
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
                    func.eval(&ins)[0]
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
        fn rec(n: &TreeNode, aig: &mut Aig, inputs: &[AigLit]) -> AigLit {
            match n {
                TreeNode::Leaf {
                    func,
                    inputs: leaf_ins,
                } => {
                    let mut map = std::collections::HashMap::new();
                    for (k, &orig) in leaf_ins.iter().enumerate() {
                        map.insert(func.input_node(k), inputs[orig]);
                    }
                    let root = func.outputs()[0].lit();
                    aig.import(func, root, &mut map)
                }
                TreeNode::Gate { op, left, right } => {
                    let l = rec(left, aig, inputs);
                    let r = rec(right, aig, inputs);
                    match op {
                        GateOp::Or => aig.or(l, r),
                        GateOp::And => aig.and(l, r),
                        GateOp::Xor => aig.xor(l, r),
                    }
                }
            }
        }
        let root = rec(&self.root, &mut aig, &inputs);
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
