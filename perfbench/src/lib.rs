//! The seqwm benchmark: one named workload per process, deterministic
//! work budgets, a known-answer gate, and a separate traced run that
//! attributes time to the workspace's layers from outside.
//!
//! Three workloads, one per user-facing job of the paper's toolchain:
//!
//! * [`opt_validate`] — the validated optimizer end to end (SEQ
//!   refinement dominates);
//! * [`psna_litmus`] — PS^na exploration of the concurrent litmus
//!   corpus (promise certification dominates);
//! * [`serve_mixed`] — a closed loop of clients against an in-process
//!   verification daemon (framing, queue, result cache, DRF-gated
//!   planner).
//!
//! See `perfbench/README.md` for the metric definitions, the
//! layer-to-metric map, and the measured run-to-run spread.

pub mod common;
pub mod opt_validate;
pub mod psna_litmus;
pub mod report;
pub mod serve_mixed;
pub mod trace;

pub use report::{Outcome, Workload};
