//! # qbf-bidec — QBF-Based Boolean Function Bi-Decomposition
//!
//! A full Rust reproduction of *"QBF-Based Boolean Function
//! Bi-Decomposition"* (Chen, Janota, Marques-Silva — DATE 2012),
//! including the STEP tool and every substrate it depends on.
//!
//! This meta-crate re-exports the workspace crates:
//!
//! * [`aig`] — And-Inverter Graphs (the role of ABC)
//! * [`cnf`] — CNF, Tseitin encoding, cardinality constraints
//! * [`sat`] — CDCL SAT solver with assumptions and proof logging
//! * [`mus`] — (group-)MUS extraction (the role of MUSer)
//! * [`itp`] — Craig interpolation for function extraction
//! * [`bdd`] — BDD package (verification oracle / related work)
//! * [`step`] — the STEP bi-decomposition engine itself, including the
//!   CEGAR loop that solves its QBF models (the role of AReQS)
//! * [`circuits`] — benchmark circuit generators and registry
//! * [`serve`] — the framed-JSON network front-end (`step serve` /
//!   `step client`) with per-tenant quotas and admission control
//! * [`synth`] — multi-level synthesis: recursive bi-decomposition
//!   over the service (`step synthesize`)
//!
//! # Quickstart
//!
//! ```
//! use qbf_bidec::step::{BiDecomposer, DecompConfig, GateOp, Model};
//!
//! // f = (a & b) | (c & d) is OR-decomposable with a disjoint partition.
//! let mut aig = qbf_bidec::aig::Aig::new();
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let c = aig.add_input("c");
//! let d = aig.add_input("d");
//! let ab = aig.and(a, b);
//! let cd = aig.and(c, d);
//! let f = aig.or(ab, cd);
//! aig.add_output("f", f);
//!
//! let config = DecompConfig::new(Model::QbfDisjoint);
//! let engine = BiDecomposer::new(config);
//! let result = engine.decompose_output(&aig, 0, GateOp::Or).unwrap();
//! let decomp = result.decomposition.expect("decomposable");
//! assert_eq!(decomp.partition.num_shared(), 0, "optimally disjoint");
//! ```

pub use step_aig as aig;
pub use step_bdd as bdd;
pub use step_circuits as circuits;
pub use step_cnf as cnf;
pub use step_core as step;
pub use step_itp as itp;
pub use step_mus as mus;
pub use step_sat as sat;
pub use step_serve as serve;
pub use step_synth as synth;
