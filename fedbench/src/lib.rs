//! Benchmark of the QCC federation, built outside the program: it drives
//! the public API, times layers only at public seams, checks every
//! answer, and reports end-to-end metrics (untraced runs) or a per-layer
//! ledger (traced runs). See `README.md` beside this crate.

pub mod check;
pub mod probe;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
