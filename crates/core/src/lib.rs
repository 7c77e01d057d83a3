#![warn(missing_docs)]

//! # seqwm-seq
//!
//! The **sequential permission machine SEQ** of *Sequential Reasoning for
//! Optimizing Compilers under Weak Memory Concurrency* (PLDI 2022) — the
//! paper's primary contribution — together with executable checkers for its
//! two refinement notions:
//!
//! * [`machine`] — SEQ states `⟨σ, P, F, M⟩` and the transition rules of
//!   Fig. 1 (plus the Coq-development extensions: fences and RMWs).
//! * [`label`] — transition labels and the label refinement order
//!   (Def. 2.3, item 1).
//! * [`behavior`] — behaviors `⟨tr, trm(v,F,M) | prt(F) | ⊥⟩` (Def. 2.1)
//!   and bounded-exhaustive behavior enumeration.
//! * [`refine`] — the **simple** behavioral refinement `⊑` (Def. 2.4),
//!   decided over all initial configurations drawn from a finite
//!   footprint/value domain by a memoized product walk of the two
//!   programs, with behavior-set inclusion kept as the reference oracle.
//! * [`advanced`] — the **advanced** behavioral refinement `⊑_w`
//!   (Def. 3.3), checked as the simulation game of App. A (Fig. 6) with
//!   late UB and commitment sets.
//!
//! By the paper's adequacy theorem (Thm. 6.2), refinement in SEQ of a
//! deterministic source entails contextual refinement in the promising
//! semantics with non-atomics (PS^na, crate `seqwm-promising`) under any
//! concurrent context. This workspace cannot re-prove the theorem (the Coq
//! certification is the part of the artifact that is out of scope for a
//! Rust reproduction), but it *tests* it differentially — see
//! `tests/adequacy.rs` at the workspace root.
//!
//! ## Example: validating store-to-load forwarding (Example 1.1)
//!
//! ```
//! use seqwm_lang::parser::parse_program;
//! use seqwm_seq::refine::check_simple;
//!
//! let src = parse_program("store[na](x, 1); b := load[na](x); return b;")?;
//! let tgt = parse_program("store[na](x, 1); b := 1;        return b;")?;
//! assert!(check_simple(&src, &tgt).holds);
//! # Ok::<(), seqwm_lang::parser::ParseError>(())
//! ```

pub mod advanced;
pub mod behavior;
pub mod label;
pub mod machine;
pub mod oracle;
mod product;
pub mod refine;
pub mod search;

pub use advanced::{check_advanced, refines_advanced, AdvancedChecker, AdvancedOutcome};
pub use behavior::{enumerate_behaviors, enumerate_behaviors_fuel, Behavior, BehaviorEnd};
pub use label::{LocSet, SeqLabel, SyncInfo, Valuation};
pub use machine::{EnumDomain, Memory, SeqState};
pub use oracle::{check_under_oracle, FreeOracle, NoGainOracle, Oracle, PinReadsOracle};
pub use refine::{
    check_simple, refines_advanced_or_simple_config, refines_advanced_or_simple_outcome,
    refines_simple, refines_simple_by_enumeration, RefineCheckError, RefineConfig, RefineError,
    RefineOutcome,
};
pub use search::{explore_seq, seq_engine_config, SeqExploration, SeqSystem};
