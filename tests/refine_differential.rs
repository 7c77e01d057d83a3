//! Differential check of the simple-refinement product walk
//! ([`refines_simple`]) against its reference oracle, the
//! enumerate-then-compare checker ([`refines_simple_by_enumeration`]).
//!
//! Inputs:
//!
//! 1. **Corpus.** Every `transform_corpus()` pair in both directions,
//!    under every `WrittenQuant` and at `max_steps` 96, 12 and 7 (the
//!    short budgets cut paths mid-program, so budget-0 ends and partial
//!    behaviors at the horizon are exercised).
//! 2. **Generated.** `GenConfig::fuzzing()` programs of stream 11 and
//!    `GenConfig::default()` programs of stream 5, each paired with
//!    itself and with the output of every single extended pass that
//!    changes it, in both directions, plus random pairs of unrelated
//!    programs at `max_steps` 7 (mostly refutations).
//!
//! For each check, under one shared `max_fuel`:
//!
//! * when both decide, the verdicts are equal;
//! * when the enumerator decides, so does the product walk (it never
//!   spends more fuel than the enumeration of the same configurations);
//! * every product counterexample is a behavior of the target at its
//!   configuration that matches no enumerated source behavior.
//!
//! Run in release: `cargo test --release --test refine_differential`.
//! An unoptimized build checks a prefix of the generated inputs.

use std::collections::HashSet;

use seqwm_explore::{mix64, SplitMix64};
use seqwm_lang::Program;
use seqwm_litmus::gen::{random_program, GenConfig};
use seqwm_litmus::transform::transform_corpus;
use seqwm_opt::PassKind;
use seqwm_seq::behavior::{enumerate_behaviors_fuel, Behavior};
use seqwm_seq::machine::{Memory, SeqState};
use seqwm_seq::refine::{
    domain_for, refines_simple, refines_simple_by_enumeration, Counterexample, RefineConfig,
    RefineError, WrittenQuant,
};

/// Fuel shared by both checkers on every check.
const MAX_FUEL: u64 = 2_000_000;

/// Programs drawn from each generator stream. An unoptimized build (the
/// workspace-wide `cargo test`) takes a prefix; the release leg of
/// `scripts/ci.sh` runs all of them.
const GENERATED: u64 = if cfg!(debug_assertions) { 12 } else { 64 };

/// Random unrelated pairs drawn from the fuzzing stream (a prefix in an
/// unoptimized build, as for [`GENERATED`]).
const RANDOM_PAIRS: u64 = if cfg!(debug_assertions) { 8 } else { 48 };

#[derive(Default)]
struct Tally {
    checks: usize,
    both_decided: usize,
    refuted: usize,
    only_product_decided: usize,
    disagreements: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, src: &Program, tgt: &Program, cfg: &RefineConfig) {
        self.checks += 1;
        let product = refines_simple(src, tgt, cfg);
        let oracle = refines_simple_by_enumeration(src, tgt, cfg);
        let mut fail = |why: String| {
            self.disagreements
                .push(format!("{what}: {why}\n  src: {src}\n  tgt: {tgt}"))
        };
        match (&product, &oracle) {
            (Ok(p), Ok(o)) => {
                self.both_decided += 1;
                if p.holds != o.holds {
                    fail(format!(
                        "verdicts differ: product {} vs enumeration {}",
                        p.holds, o.holds
                    ));
                } else if !p.holds {
                    self.refuted += 1;
                }
                if p.configs != o.configs {
                    fail(format!(
                        "decided at different configurations: {} vs {}",
                        p.configs, o.configs
                    ));
                }
            }
            (Err(RefineError::Truncated { .. }), Ok(_)) => {
                fail("the enumerator decided, the product walk ran out of fuel".into())
            }
            (Ok(_), Err(RefineError::Truncated { .. })) => self.only_product_decided += 1,
            (Err(RefineError::Truncated { .. }), Err(RefineError::Truncated { .. })) => {}
            (Err(a), Err(b)) if a == b => {}
            (p, o) => fail(format!("outcomes differ: {p:?} vs {o:?}")),
        }
        if let Ok(out) = &product {
            if let Some(ce) = &out.counterexample {
                if let Err(why) = genuine(src, tgt, cfg, ce) {
                    fail(format!("counterexample {ce}: {why}"));
                }
            }
        }
    }

    fn assert_clean(&self, leg: &str) {
        eprintln!(
            "{leg}: {} checks, {} decided by both ({} refuted), {} decided only by the product walk",
            self.checks, self.both_decided, self.refuted, self.only_product_decided
        );
        assert!(
            self.disagreements.is_empty(),
            "{} disagreement(s):\n{}",
            self.disagreements.len(),
            self.disagreements.join("\n")
        );
    }
}

/// Checks that `ce` names a target behavior at its configuration that no
/// source behavior there matches.
fn genuine(
    src: &Program,
    tgt: &Program,
    cfg: &RefineConfig,
    ce: &Counterexample,
) -> Result<(), String> {
    let dom = domain_for(src, tgt, cfg).map_err(|e| e.to_string())?;
    let behaviors = |p: &Program| -> Result<HashSet<Behavior>, String> {
        let mem = Memory::from_pairs(ce.mem.iter().map(|(&x, &v)| (x, v)));
        let init = SeqState::new(p, ce.perm.clone(), ce.written.clone(), mem);
        let mut fuel = MAX_FUEL;
        enumerate_behaviors_fuel(&init, &dom, &mut fuel)
            .ok_or_else(|| "its configuration does not enumerate within the fuel".to_string())
    };
    let tb = &ce.target_behavior;
    if !behaviors(tgt)?.contains(tb) {
        return Err("not a behavior of the target".into());
    }
    if let Some(sb) = behaviors(src)?.iter().find(|sb| tb.refines(sb)) {
        return Err(format!("matched by source behavior {sb}"));
    }
    Ok(())
}

fn config(quant: WrittenQuant, max_steps: usize) -> RefineConfig {
    RefineConfig {
        max_steps,
        written_quant: quant,
        max_fuel: Some(MAX_FUEL),
        ..RefineConfig::default()
    }
}

fn generated(stream: u64, gen: &GenConfig, i: u64) -> Program {
    random_program(&mut SplitMix64::new(mix64(stream ^ i)), gen)
}

#[test]
fn product_walk_agrees_with_enumeration_on_the_corpus() {
    let mut tally = Tally::default();
    for case in transform_corpus() {
        let (src, tgt) = (case.src_program(), case.tgt_program());
        for quant in [
            WrittenQuant::Empty,
            WrittenQuant::EmptyAndFull,
            WrittenQuant::AllSubsets,
        ] {
            for max_steps in [96, 12, 7] {
                let cfg = config(quant, max_steps);
                let what = format!("{} {quant:?} max_steps={max_steps}", case.name);
                tally.check(&format!("{what} tgt⊑src"), &src, &tgt, &cfg);
                tally.check(&format!("{what} src⊑tgt"), &tgt, &src, &cfg);
            }
        }
    }
    tally.assert_clean("corpus");
}

#[test]
fn product_walk_agrees_with_enumeration_on_generated_programs() {
    let mut tally = Tally::default();
    let default_cfg = config(WrittenQuant::default(), 96);
    for (stream, gen) in [(11, GenConfig::fuzzing()), (5, GenConfig::default())] {
        for i in 0..GENERATED {
            let p = generated(stream, &gen, i);
            tally.check(
                &format!("stream {stream} #{i} identity"),
                &p,
                &p,
                &default_cfg,
            );
            for pass in PassKind::extended() {
                let (q, _) = pass.run(&p);
                if q == p {
                    continue;
                }
                let what = format!("stream {stream} #{i} {pass}");
                tally.check(&format!("{what} tgt⊑src"), &p, &q, &default_cfg);
                tally.check(&format!("{what} src⊑tgt"), &q, &p, &default_cfg);
            }
        }
    }
    let short = config(WrittenQuant::default(), 7);
    let gen = GenConfig::fuzzing();
    for i in 0..RANDOM_PAIRS {
        let (a, b) = (
            generated(11, &gen, 100 + 2 * i),
            generated(11, &gen, 101 + 2 * i),
        );
        tally.check(&format!("random pair {i}"), &a, &b, &short);
    }
    tally.assert_clean("generated");
}
