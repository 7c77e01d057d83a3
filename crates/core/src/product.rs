//! The memoized product walk that decides simple refinement (Def. 2.4)
//! without enumerating behavior sets.
//!
//! The walk runs the target and the source side by side, one labeled step
//! at a time, over *stable ends*:
//!
//! * Unlabeled transitions (silent steps and non-atomic accesses) are
//!   deterministic, so every state is followed along its unlabeled path to
//!   the path's end: a labeled, terminated, `⊥`, or budget-0 state. The end
//!   is interned by `(state, steps left)`.
//! * Along an unlabeled path `F` only grows, `⊥` keeps `F`, and a `return`
//!   is itself a silent step that keeps `F`. The end's `F` therefore covers
//!   every partial behavior on the path, and `⊥`/`trm` can only appear at
//!   the end — collapsing a path to its end loses nothing.
//!
//! A *position* is a target end plus the sorted set of source ends reached
//! by every source trace that the target's trace refines, label by label.
//! It is won when some source end is `⊥` (source UB matches every
//! continuation); otherwise when the target is not `⊥`, its `F` is covered
//! by some source end's `F`, and the target has terminated with a matching
//! source `trm`, or has no steps left, or every labeled successor leads —
//! with the source successors whose labels it refines — to a won position.
//! A lost position records why, so a refutation is read back as the
//! target's trace plus the unmatched end.
//!
//! Work is charged against the caller's fuel: one unit per silent step
//! settled and one per position solved. Positions, ends and labels are
//! memoized for the lifetime of one walk, i.e. one `(P, F)` group of
//! initial configurations (every memory `M`).
//! [`crate::refine::refines_simple_by_enumeration`] keeps the
//! enumerate-then-compare definition as the reference oracle.

use std::collections::HashMap;
use std::rc::Rc;

use crate::behavior::{Behavior, BehaviorEnd};
use crate::label::{LocSet, SeqLabel};
use crate::machine::{EnumDomain, SeqState};

/// The fuel budget ran out before the walk decided its position.
pub(crate) struct Exhausted;

/// The id the next interned item gets.
fn next_id(len: usize) -> u32 {
    u32::try_from(len).expect("fewer than 2^32 interned items")
}

/// A labeled successor of an end: interned label, its refinement class,
/// and the settled end it leads to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Succ {
    class: u32,
    label: u32,
    end: u32,
}

struct End {
    state: Rc<SeqState>,
    steps: usize,
    succ: Option<Rc<[Succ]>>,
}

/// A target end and the sorted, deduplicated source ends it is matched
/// against.
type Position = (u32, Box<[u32]>);

enum Verdict {
    Won,
    /// The unmatched target behavior ends here.
    LostHere(BehaviorEnd),
    /// The target's step along this label leads to a lost position.
    LostBelow(u32, Position),
}

/// One memoized walk over a `(P, F)` group of initial configurations.
pub(crate) struct ProductWalk<'a> {
    dom: &'a EnumDomain,
    footprint: LocSet,
    fuel: &'a mut u64,
    ends: Vec<End>,
    end_ids: HashMap<(Rc<SeqState>, usize), u32>,
    /// Interned labels with their refinement-class ids.
    labels: Vec<(Rc<SeqLabel>, u32)>,
    label_ids: HashMap<Rc<SeqLabel>, u32>,
    class_ids: HashMap<SeqLabel, u32>,
    label_order: HashMap<(u32, u32), bool>,
    memo: HashMap<Position, Verdict>,
}

impl<'a> ProductWalk<'a> {
    /// A fresh walk drawing on `fuel`.
    pub(crate) fn new(dom: &'a EnumDomain, fuel: &'a mut u64) -> Self {
        ProductWalk {
            dom,
            footprint: dom.na_locs.iter().copied().collect(),
            fuel,
            ends: Vec::new(),
            end_ids: HashMap::new(),
            labels: Vec::new(),
            label_ids: HashMap::new(),
            class_ids: HashMap::new(),
            label_order: HashMap::new(),
            memo: HashMap::new(),
        }
    }

    /// Positions solved so far.
    pub(crate) fn positions(&self) -> usize {
        self.memo.len()
    }

    /// Decides whether every behavior of `tgt` is matched by a behavior
    /// of `src`, each run for `dom.max_steps` steps. Returns the unmatched
    /// target behavior on failure.
    pub(crate) fn check(
        &mut self,
        src: SeqState,
        tgt: SeqState,
    ) -> Result<Option<Behavior>, Exhausted> {
        let steps = self.dom.max_steps;
        let s = self.settle(src, steps)?;
        let t = self.settle(tgt, steps)?;
        let root: Position = (t, Box::new([s]));
        if self.solve(&root)? {
            return Ok(None);
        }
        let mut trace = Vec::new();
        let mut at = &root;
        loop {
            match &self.memo[at] {
                Verdict::LostHere(end) => {
                    return Ok(Some(Behavior {
                        trace,
                        end: end.clone(),
                    }))
                }
                Verdict::LostBelow(label, next) => {
                    trace.push(SeqLabel::clone(&self.labels[*label as usize].0));
                    at = next;
                }
                Verdict::Won => unreachable!("a lost position only leads to lost ones"),
            }
        }
    }

    fn charge(&mut self) -> Result<(), Exhausted> {
        if *self.fuel == 0 {
            return Err(Exhausted);
        }
        *self.fuel -= 1;
        Ok(())
    }

    /// Follows the unlabeled path from `s` with `steps` left to its end
    /// (`⊥` and terminated states have no unlabeled step).
    fn settle(&mut self, mut s: SeqState, mut steps: usize) -> Result<u32, Exhausted> {
        while steps > 0 && s.step_unlabeled() {
            self.charge()?;
            steps -= 1;
        }
        let key = (Rc::new(s), steps);
        if let Some(&id) = self.end_ids.get(&key) {
            return Ok(id);
        }
        let id = next_id(self.ends.len());
        self.ends.push(End {
            state: Rc::clone(&key.0),
            steps,
            succ: None,
        });
        self.end_ids.insert(key, id);
        Ok(id)
    }

    /// Interns `label`; returns its id and its refinement-class id.
    fn intern_label(&mut self, label: SeqLabel) -> (u32, u32) {
        if let Some(&id) = self.label_ids.get(&label) {
            return (id, self.labels[id as usize].1);
        }
        let next_class = next_id(self.class_ids.len());
        let class = *self
            .class_ids
            .entry(label.refinement_class())
            .or_insert(next_class);
        let id = next_id(self.labels.len());
        let label = Rc::new(label);
        self.labels.push((Rc::clone(&label), class));
        self.label_ids.insert(label, id);
        (id, class)
    }

    /// `labels[t] ⊑ labels[s]`, cached per pair.
    fn label_refines(&mut self, t: u32, s: u32) -> bool {
        if t == s {
            return true;
        }
        let labels = &self.labels;
        *self
            .label_order
            .entry((t, s))
            .or_insert_with(|| labels[t as usize].0.refines(&labels[s as usize].0))
    }

    /// The labeled successors of an end with steps left, settled; empty
    /// for a final end or one without steps.
    fn successors(&mut self, e: u32) -> Result<Rc<[Succ]>, Exhausted> {
        let end = &self.ends[e as usize];
        if let Some(succ) = &end.succ {
            return Ok(Rc::clone(succ));
        }
        let mut succ = Vec::new();
        if end.steps > 0 {
            let (state, steps) = (Rc::clone(&end.state), end.steps - 1);
            for (label, next) in state.transitions(self.dom) {
                let label = label.expect("an end's transitions are labeled");
                let (label, class) = self.intern_label(label);
                let end = self.settle(next, steps)?;
                succ.push(Succ { class, label, end });
            }
        }
        let succ: Rc<[Succ]> = succ.into();
        self.ends[e as usize].succ = Some(Rc::clone(&succ));
        Ok(succ)
    }

    fn solve(&mut self, pos: &Position) -> Result<bool, Exhausted> {
        if let Some(v) = self.memo.get(pos) {
            return Ok(matches!(v, Verdict::Won));
        }
        self.charge()?;
        let verdict = self.decide(pos)?;
        let won = matches!(verdict, Verdict::Won);
        self.memo.insert(pos.clone(), verdict);
        Ok(won)
    }

    fn decide(&mut self, (t, srcs): &Position) -> Result<Verdict, Exhausted> {
        let ends = &self.ends;
        if srcs.iter().any(|&s| ends[s as usize].state.is_bottom()) {
            return Ok(Verdict::Won);
        }
        let tgt = &ends[*t as usize].state;
        if tgt.is_bottom() {
            return Ok(Verdict::LostHere(BehaviorEnd::Bottom));
        }
        if !srcs
            .iter()
            .any(|&s| tgt.written.is_subset(&ends[s as usize].state.written))
        {
            return Ok(Verdict::LostHere(BehaviorEnd::Partial {
                written: tgt.written.clone(),
            }));
        }
        if let Some(val) = tgt.returned() {
            let matched = srcs.iter().any(|&s| {
                let src = &ends[s as usize].state;
                src.returned().is_some_and(|v| val.refines(v))
                    && tgt.written.is_subset(&src.written)
                    && tgt.mem.refines_on(&src.mem, &self.footprint)
            });
            return Ok(if matched {
                Verdict::Won
            } else {
                Verdict::LostHere(BehaviorEnd::Term {
                    val,
                    written: tgt.written.clone(),
                    mem: tgt.mem.restrict(&self.footprint),
                })
            });
        }
        // An open target with no steps left, or a stuck one, has no
        // behavior beyond the partial one just covered.
        let tgt_succ = self.successors(*t)?;
        if tgt_succ.is_empty() {
            return Ok(Verdict::Won);
        }
        let mut src_succ = Vec::new();
        for &s in srcs.iter() {
            src_succ.extend_from_slice(&self.successors(s)?);
        }
        src_succ.sort_unstable();
        src_succ.dedup();
        for step in tgt_succ.iter() {
            let from = src_succ.partition_point(|s| s.class < step.class);
            let mut next = Vec::new();
            for s in src_succ[from..]
                .iter()
                .take_while(|s| s.class == step.class)
            {
                if self.label_refines(step.label, s.label) {
                    next.push(s.end);
                }
            }
            next.sort_unstable();
            next.dedup();
            let child: Position = (step.end, next.into());
            if !self.solve(&child)? {
                return Ok(Verdict::LostBelow(step.label, child));
            }
        }
        Ok(Verdict::Won)
    }
}
