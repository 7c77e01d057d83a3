//! The *simple* behavioral refinement checker (Def. 2.4).
//!
//! `σ_tgt ⊑ σ_src` holds iff for **every** initial permission set `P`,
//! written set `F`, and memory `M`, every behavior of
//! `⟨σ_tgt, P, F, M⟩` is matched (up to `⊑`, Def. 2.3) by a behavior of
//! `⟨σ_src, P, F, M⟩`.
//!
//! The checker quantifies `P`, `F`, `M` over the finite footprint/value
//! domain derived from the two programs (see [`EnumDomain::for_pair`]) and
//! decides each configuration within a step budget by a memoized product
//! walk over the two programs (`crate::product`), which never builds a
//! behavior set. [`refines_simple_by_enumeration`] keeps the definition's
//! enumerate-then-compare form as the reference oracle. A returned
//! counterexample is a concrete initial configuration plus an unmatched
//! target behavior — exactly the shape of the paper's `{̸` arguments
//! (e.g. Examples 2.5–2.12).

use std::fmt;

use seqwm_lang::{Loc, Program, Value};

use crate::behavior::{behaviors_refine, enumerate_behaviors_fuel, Behavior};
use crate::label::{LocSet, Valuation};
use crate::machine::{subsets, EnumDomain, Memory, SeqState};
use crate::product::ProductWalk;

/// How to quantify the initial written-locations set `F`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WrittenQuant {
    /// Only `F = ∅` (fast; sufficient for all corpus examples).
    Empty,
    /// `F ∈ {∅, Loc^na}` (default: catches reset-sensitivity cheaply).
    #[default]
    EmptyAndFull,
    /// All subsets (full Def. 2.4 quantification over the footprint).
    AllSubsets,
}

/// Configuration of the refinement checkers.
#[derive(Clone, Debug)]
pub struct RefineConfig {
    /// Step budget per execution path.
    pub max_steps: usize,
    /// Quantification of the initial `F`.
    pub written_quant: WrittenQuant,
    /// Extra integer values to add to the enumeration domain.
    pub extra_values: Vec<i64>,
    /// Global work budget across *all* configurations of one check, or
    /// `None` for unbounded: product positions solved plus silent steps
    /// settled for [`refines_simple`], states explored for the enumeration
    /// oracle and the advanced checker. `max_steps` bounds each path but
    /// not the path *count*, which is exponential in the number of atomic
    /// reads; this bounds the whole check deterministically. Exhaustion
    /// yields [`RefineError::Truncated`] rather than a verdict.
    pub max_fuel: Option<u64>,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            max_steps: 96,
            written_quant: WrittenQuant::default(),
            extra_values: Vec::new(),
            max_fuel: None,
        }
    }
}

/// Errors preventing a refinement check from running.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RefineError {
    /// A location is accessed both atomically and non-atomically; SEQ
    /// forbids such mixing (§2, "Concurrency constructs").
    MixedAtomicity(Loc),
    /// The global [`RefineConfig::max_fuel`] budget ran out before every
    /// configuration was decided. No verdict: refinement may or may not
    /// hold for the unexplored part.
    Truncated {
        /// Configurations fully decided before exhaustion.
        configs: usize,
    },
}

impl fmt::Display for RefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineError::MixedAtomicity(x) => {
                write!(
                    f,
                    "location {x} is accessed both atomically and non-atomically"
                )
            }
            RefineError::Truncated { configs } => {
                write!(
                    f,
                    "refinement check truncated: fuel budget exhausted after \
                     {configs} fully-decided configuration(s)"
                )
            }
        }
    }
}

impl std::error::Error for RefineError {}

/// A refutation of refinement: an initial configuration and a target
/// behavior with no matching source behavior.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Initial permission set.
    pub perm: LocSet,
    /// Initial written-locations set.
    pub written: LocSet,
    /// Initial memory (restricted to the footprint).
    pub mem: Valuation,
    /// The unmatched target behavior.
    pub target_behavior: Behavior,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let set = |s: &LocSet| {
            s.iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mem = self
            .mem
            .iter()
            .map(|(x, v)| format!("{x}↦{v}"))
            .collect::<Vec<_>>()
            .join(",");
        write!(
            f,
            "P={{{}}} F={{{}}} M=[{mem}]: unmatched target behavior {}",
            set(&self.perm),
            set(&self.written),
            self.target_behavior,
        )
    }
}

/// The verdict of a refinement check.
#[derive(Clone, Debug)]
pub struct RefineOutcome {
    /// `true` iff refinement held for every checked configuration.
    pub holds: bool,
    /// A refutation, when `holds` is `false`.
    pub counterexample: Option<Counterexample>,
    /// Number of initial configurations `(P, F, M)` checked.
    pub configs: usize,
    /// Product positions solved (a target end against the set of source
    /// ends it must be matched by); `0` from the enumeration oracle.
    pub positions: usize,
}

/// Builds the enumeration domain for a program pair under a config.
///
/// # Errors
///
/// Fails with [`RefineError::MixedAtomicity`] if either program mixes
/// atomic and non-atomic accesses to the same location.
pub fn domain_for(
    src: &Program,
    tgt: &Program,
    cfg: &RefineConfig,
) -> Result<EnumDomain, RefineError> {
    EnumDomain::check_no_mixing(src, tgt).map_err(RefineError::MixedAtomicity)?;
    let mut dom = EnumDomain::for_pair(src, tgt);
    for &v in &cfg.extra_values {
        if !dom.values.contains(&Value::Int(v)) {
            dom.values.push(Value::Int(v));
        }
        if !dom.choose_values.contains(&v) {
            dom.choose_values.push(v);
        }
    }
    dom.max_steps = cfg.max_steps;
    Ok(dom)
}

fn written_options(dom: &EnumDomain, quant: WrittenQuant) -> Vec<LocSet> {
    match quant {
        WrittenQuant::Empty => vec![LocSet::new()],
        WrittenQuant::EmptyAndFull => {
            let full: LocSet = dom.na_locs.iter().copied().collect();
            if full.is_empty() {
                vec![LocSet::new()]
            } else {
                vec![LocSet::new(), full]
            }
        }
        WrittenQuant::AllSubsets => subsets(&dom.na_locs),
    }
}

/// Checks the simple behavioral refinement `tgt ⊑ src` (Def. 2.4) between
/// two whole programs.
///
/// Each configuration is decided by the memoized product walk; its memo
/// lives for one `(P, F)` group of configurations (every memory `M`).
///
/// # Errors
///
/// Fails with [`RefineError`] if the programs cannot be checked in SEQ.
pub fn refines_simple(
    src: &Program,
    tgt: &Program,
    cfg: &RefineConfig,
) -> Result<RefineOutcome, RefineError> {
    let dom = domain_for(src, tgt, cfg)?;
    let budget = cfg.max_fuel.unwrap_or(u64::MAX);
    let mut fuel = budget;
    let out = walk_configs(src, tgt, cfg, &dom, &mut fuel);
    seqwm_explore::counters::add(&seqwm_explore::counters::REFINE_FUEL_SPENT, budget - fuel);
    out
}

fn walk_configs(
    src: &Program,
    tgt: &Program,
    cfg: &RefineConfig,
    dom: &EnumDomain,
    fuel: &mut u64,
) -> Result<RefineOutcome, RefineError> {
    let mut configs = 0;
    let mut positions = 0;
    for perm in dom.loc_subsets() {
        for written in written_options(dom, cfg.written_quant) {
            let mut walk = ProductWalk::new(dom, fuel);
            for mem in dom.valuations(&dom.na_locs) {
                let memory = Memory::from_pairs(mem.iter().map(|(&l, &v)| (l, v)));
                let src_state = SeqState::new(src, perm.clone(), written.clone(), memory.clone());
                let tgt_state = SeqState::new(tgt, perm.clone(), written.clone(), memory);
                let unmatched = walk
                    .check(src_state, tgt_state)
                    .map_err(|_| RefineError::Truncated { configs })?;
                configs += 1;
                if let Some(target_behavior) = unmatched {
                    return Ok(RefineOutcome {
                        holds: false,
                        counterexample: Some(Counterexample {
                            perm,
                            written,
                            mem,
                            target_behavior,
                        }),
                        configs,
                        positions: positions + walk.positions(),
                    });
                }
            }
            positions += walk.positions();
        }
    }
    Ok(RefineOutcome {
        holds: true,
        counterexample: None,
        configs,
        positions,
    })
}

/// The reference oracle for [`refines_simple`]: decides the same relation
/// the way Def. 2.4 states it, by enumerating both behavior sets of every
/// configuration and matching them pairwise. Exponentially slower; kept
/// for differential tests.
///
/// # Errors
///
/// Fails with [`RefineError`] if the programs cannot be checked in SEQ.
pub fn refines_simple_by_enumeration(
    src: &Program,
    tgt: &Program,
    cfg: &RefineConfig,
) -> Result<RefineOutcome, RefineError> {
    let dom = domain_for(src, tgt, cfg)?;
    let mut fuel = cfg.max_fuel.unwrap_or(u64::MAX);
    let mut configs = 0;
    for perm in dom.loc_subsets() {
        for written in written_options(&dom, cfg.written_quant) {
            for mem in dom.valuations(&dom.na_locs) {
                let memory = Memory::from_pairs(mem.iter().map(|(&l, &v)| (l, v)));
                let src_state = SeqState::new(src, perm.clone(), written.clone(), memory.clone());
                let tgt_state = SeqState::new(tgt, perm.clone(), written.clone(), memory);
                let src_behs = enumerate_behaviors_fuel(&src_state, &dom, &mut fuel)
                    .ok_or(RefineError::Truncated { configs })?;
                let tgt_behs = enumerate_behaviors_fuel(&tgt_state, &dom, &mut fuel)
                    .ok_or(RefineError::Truncated { configs })?;
                configs += 1;
                if let Err(unmatched) = behaviors_refine(&tgt_behs, &src_behs) {
                    return Ok(RefineOutcome {
                        holds: false,
                        counterexample: Some(Counterexample {
                            perm,
                            written,
                            mem,
                            target_behavior: unmatched,
                        }),
                        configs,
                        positions: 0,
                    });
                }
            }
        }
    }
    Ok(RefineOutcome {
        holds: true,
        counterexample: None,
        configs,
        positions: 0,
    })
}

/// Convenience wrapper asserting the verdict (used pervasively in tests).
///
/// # Panics
///
/// Panics if the check cannot run ([`RefineError`]).
pub fn check_simple(src: &Program, tgt: &Program) -> RefineOutcome {
    refines_simple(src, tgt, &RefineConfig::default()).expect("programs checkable in SEQ")
}

/// Why a combined simple-then-advanced check produced no positive verdict.
///
/// Separates *inconclusive* outcomes (the check could not run, or ran out
/// of budget) from a genuine *refutation* — callers that act on verdicts
/// (CI gates, fuzzing oracles) must not conflate the two.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RefineCheckError {
    /// The check could not be completed ([`RefineError`]): mixed atomicity
    /// or an exhausted fuel budget. Inconclusive, not a refutation.
    Inconclusive(RefineError),
    /// Neither the simple nor the advanced notion holds; the string carries
    /// the failing configuration for diagnostics.
    Refuted(String),
}

impl fmt::Display for RefineCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineCheckError::Inconclusive(e) => write!(f, "{e}"),
            RefineCheckError::Refuted(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RefineCheckError {}

/// Checks the simple refinement first (cheaper) and falls back to the
/// advanced one (strictly more permissive, Prop. 3.4). Returns `Ok(true)`
/// if the simple notion sufficed and `Ok(false)` if the advanced one was
/// needed.
///
/// A simple-checker fuel exhaustion still falls through to the advanced
/// checker (whose memoization often copes where raw enumeration cannot);
/// only the advanced verdict is authoritative for the error.
///
/// # Errors
///
/// [`RefineCheckError::Refuted`] when neither notion validates the pair;
/// [`RefineCheckError::Inconclusive`] when the check cannot run or runs
/// out of fuel.
pub fn refines_advanced_or_simple_outcome(
    src: &Program,
    tgt: &Program,
    cfg: &RefineConfig,
) -> Result<bool, RefineCheckError> {
    match refines_simple(src, tgt, cfg) {
        Err(e @ RefineError::MixedAtomicity(_)) => {
            return Err(RefineCheckError::Inconclusive(e));
        }
        Err(RefineError::Truncated { .. }) => {} // advanced may still decide
        Ok(out) if out.holds => return Ok(true),
        Ok(_) => {}
    }
    match crate::advanced::refines_advanced(src, tgt, cfg) {
        Err(e) => Err(RefineCheckError::Inconclusive(e)),
        Ok(out) if out.holds => Ok(false),
        Ok(out) => Err(RefineCheckError::Refuted(format!(
            "neither simple nor advanced refinement holds (advanced failed at {})",
            out.failed_config
                .map(|c| c.to_string())
                .unwrap_or_else(|| "<unknown>".to_owned())
        ))),
    }
}

/// String-typed wrapper around [`refines_advanced_or_simple_outcome`],
/// kept for callers that only report the diagnostic.
///
/// # Errors
///
/// Returns a human-readable diagnostic when neither notion validates the
/// pair or the check cannot run (see [`RefineCheckError`]).
pub fn refines_advanced_or_simple_config(
    src: &Program,
    tgt: &Program,
    cfg: &RefineConfig,
) -> Result<bool, String> {
    refines_advanced_or_simple_outcome(src, tgt, cfg).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqwm_lang::parser::parse_program;

    fn p(src: &str) -> Program {
        parse_program(src).unwrap()
    }

    #[track_caller]
    fn assert_refines(src: &str, tgt: &str) {
        let out = check_simple(&p(src), &p(tgt));
        assert!(
            out.holds,
            "expected refinement to hold, counterexample: {}",
            out.counterexample.unwrap()
        );
    }

    #[track_caller]
    fn assert_not_refines(src: &str, tgt: &str) {
        let out = check_simple(&p(src), &p(tgt));
        assert!(!out.holds, "expected refinement to fail");
        assert!(out.counterexample.is_some());
    }

    #[test]
    fn identity_refines() {
        let s = "store[na](rfx, 1); a := load[na](rfx); return a;";
        assert_refines(s, s);
    }

    #[test]
    fn example_1_1_store_to_load_forwarding() {
        // x_na := v ; b := x_na  {  x_na := v ; b := v
        assert_refines(
            "store[na](slf_x, 1); b := load[na](slf_x); return b;",
            "store[na](slf_x, 1); b := 1; return b;",
        );
    }

    #[test]
    fn value_change_does_not_refine() {
        assert_not_refines("return 1;", "return 2;");
    }

    #[test]
    fn mixing_is_rejected() {
        let prog = p("store[na](mix_w, 1); a := load[rlx](mix_w);");
        assert_eq!(
            refines_simple(&prog, &prog, &RefineConfig::default()).unwrap_err(),
            RefineError::MixedAtomicity(Loc::new("mix_w"))
        );
    }

    #[test]
    fn unused_store_introduction_is_refuted() {
        // skip {̸ x_na := v — store introduction is unsound.
        assert_not_refines("skip;", "store[na](usi_x, 1);");
    }

    #[test]
    fn unused_load_introduction_is_validated() {
        // skip { a := x_na (Example 2.8) — needs a racy na read to not UB.
        assert_refines("skip;", "a := load[na](uli_x);");
    }

    #[test]
    fn fuel_exhaustion_is_truncated_not_a_verdict() {
        let s = p("a := load[acq](fuel_x); b := load[acq](fuel_y); return a;");
        let starved = RefineConfig {
            max_fuel: Some(5),
            ..RefineConfig::default()
        };
        match refines_simple(&s, &s, &starved) {
            Err(RefineError::Truncated { .. }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
        // The combined check stays inconclusive (the advanced checker is
        // equally starved), never refuted.
        assert!(matches!(
            refines_advanced_or_simple_outcome(&s, &s, &starved),
            Err(RefineCheckError::Inconclusive(
                RefineError::Truncated { .. }
            ))
        ));
        // With enough fuel the same pair is decided.
        let fed = RefineConfig {
            max_fuel: Some(1_000_000),
            ..RefineConfig::default()
        };
        assert_eq!(refines_advanced_or_simple_outcome(&s, &s, &fed), Ok(true));
    }

    #[test]
    fn refutation_is_distinguished_from_truncation() {
        let cfg = RefineConfig {
            max_fuel: Some(1_000_000),
            ..RefineConfig::default()
        };
        assert!(matches!(
            refines_advanced_or_simple_outcome(&p("return 1;"), &p("return 2;"), &cfg),
            Err(RefineCheckError::Refuted(_))
        ));
    }

    #[test]
    fn product_walk_matches_the_enumeration_oracle() {
        let progs = [
            "store[na](pw_x, 1); store[rel](pw_f, 1); return 0;",
            "store[rel](pw_f, 1); store[na](pw_x, 1); return 0;",
            "a := load[acq](pw_f); b := load[na](pw_x); return b;",
            "a := load[acq](pw_f); store[na](pw_x, a); return a;",
            "a := load[rlx](pw_f); if (a == 1) { abort; } return a;",
            "while 1 { store[rlx](pw_f, 1); }",
        ];
        for max_steps in [96, 3] {
            let cfg = RefineConfig {
                max_steps,
                written_quant: WrittenQuant::AllSubsets,
                ..RefineConfig::default()
            };
            for s in progs {
                for t in progs {
                    let (s, t) = (p(s), p(t));
                    let walk = refines_simple(&s, &t, &cfg).unwrap();
                    let oracle = refines_simple_by_enumeration(&s, &t, &cfg).unwrap();
                    assert_eq!(
                        (walk.holds, walk.configs),
                        (oracle.holds, oracle.configs),
                        "{t} ⊑ {s} at max_steps {max_steps}"
                    );
                    assert!(walk.positions > 0 && oracle.positions == 0);
                }
            }
        }
    }

    #[test]
    fn config_written_quantification() {
        let cfg = RefineConfig {
            written_quant: WrittenQuant::AllSubsets,
            ..RefineConfig::default()
        };
        let s = p("store[na](wq_x, 1);");
        let out = refines_simple(&s, &s, &cfg).unwrap();
        assert!(out.holds);
        // 1 loc: 2 perms × 2 written × |values| memories.
        assert!(out.configs >= 4);
    }
}
