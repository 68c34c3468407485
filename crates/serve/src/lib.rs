//! # step-serve — the network front-end
//!
//! A TCP service (`step serve`) and matching client (`step client`)
//! over the [`step_core::StepService`] engine: circuits travel as
//! their original BENCH/BLIF/ASCII-AIGER file text inside
//! length-prefixed JSON frames, per-output results stream back as they
//! complete, and the client reprints the CLI's result table
//! byte-identically (under `--no-timing`) to an in-process run.
//!
//! Everything is `std`-only — the repo's dependency policy bars
//! crates.io, so the crate carries its own minimal [`json`] module and
//! [`frame`] codec rather than serde + tokio.
//!
//! ## Module map
//!
//! * [`json`] — a tiny JSON value reader/writer (raw number lexemes
//!   for exact `u64`/`f64` round-trips), also the codec of the
//!   harness's `BENCH_*.json` files;
//! * [`frame`] — 4-byte big-endian length-prefixed UTF-8 frames with a
//!   hostile-length cap;
//! * [`proto`] — the typed frames: `hello`/`submit`/`cancel`/
//!   `shutdown` in, `hello_ok`/`accepted`/`output`/`done`/`error` out;
//! * [`table`] — the pinned result-table format both the CLI and the
//!   client print (parity is structural, not a convention);
//! * [`flag`] — the one flag layer of every front end (`step`, `step
//!   synthesize`, `step serve`, `step client` and the harness
//!   binaries): an argument cursor whose value readers return
//!   `<flag>: <why>` errors, the reuse flag group with its one store
//!   builder and statistics printer, and the usage/exit convention;
//! * [`server`] — accept loop, per-tenant admission (quota ledger +
//!   queue-depth bound) and result forwarding;
//! * [`client`] — the one-request client.
//!
//! ## Determinism over the wire
//!
//! The served engine honours the same contract as the CLI: per-output
//! answers are pure functions of (cone fingerprint, op, config), so a
//! remote run with the same circuit, op and config prints the same
//! table as a local one — including budget-induced timeouts under
//! pure-work budgets. Admission (quotas, queue bounds) and fair-share
//! scheduling only decide *when* and *whether* a request runs, never
//! what it answers; the serve smoke test in CI diffs exactly that.

pub mod client;
pub mod flag;
pub mod frame;
pub mod json;
pub mod proto;
pub mod server;
pub mod table;
