//! The sequential permission machine **SEQ** (§2, Fig. 1).
//!
//! A SEQ state `⟨σ, P, F, M⟩` instruments a program state `σ` with
//!
//! * the *permission set* `P ⊆ Loc^na` of non-atomic locations that may be
//!   safely accessed,
//! * the *written-locations set* `F ⊆ Loc^na` of non-atomic locations
//!   written since the last release, and
//! * the non-atomic *memory* `M : Loc^na → Val`.
//!
//! Acquire transitions non-deterministically *gain* permissions (with fresh
//! values), release transitions non-deterministically *lose* them — this is
//! how SEQ abstracts all possible interference by other threads while
//! remaining a sequential machine.
//!
//! [`SeqState::transitions`] enumerates all machine transitions with their
//! labels, bounding the inherent non-determinism by an [`EnumDomain`]
//! (footprint locations and a finite value domain), which is sound for
//! refinement between two concrete programs (a standard framing argument —
//! see DESIGN.md §1).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use seqwm_lang::{
    ChoiceSet, FenceMode, Loc, ProgState, Program, ReadMode, Step, Stmt, Value, WriteMode,
};

use crate::label::{LocSet, SeqLabel, SyncInfo, Valuation};

/// The non-atomic memory `M : Loc^na → Val`, total with default `0`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Memory {
    map: BTreeMap<Loc, Value>,
}

impl Memory {
    /// The all-zero memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Builds a memory from explicit assignments.
    pub fn from_pairs<I: IntoIterator<Item = (Loc, Value)>>(pairs: I) -> Self {
        Memory {
            map: pairs.into_iter().collect(),
        }
    }

    /// Reads `M(x)` (default `0`).
    pub fn get(&self, x: Loc) -> Value {
        self.map.get(&x).copied().unwrap_or_default()
    }

    /// Writes `M[x ↦ v]`.
    pub fn set(&mut self, x: Loc, v: Value) {
        self.map.insert(x, v);
    }

    /// Restriction `M|_P` as a partial valuation.
    pub fn restrict(&self, p: &LocSet) -> Valuation {
        p.iter().map(|&x| (x, self.get(x))).collect()
    }

    /// Applies the updates in `v` (acquire-gained values).
    pub fn update(&mut self, v: &Valuation) {
        for (&x, &val) in v {
            self.set(x, val);
        }
    }

    /// The memory refinement `M_tgt ⊑ M_src` pointwise over `locs`.
    pub fn refines_on(&self, src: &Memory, locs: &LocSet) -> bool {
        locs.iter().all(|&x| self.get(x).refines(src.get(x)))
    }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (x, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x}={v}")?;
        }
        write!(f, "]")
    }
}

/// The finite enumeration domain for SEQ's environment non-determinism.
///
/// The footprint restriction is sound for checking refinement between two
/// concrete programs: environment transitions touching locations outside
/// both programs' footprints commute with every program step.
#[derive(Clone, Debug)]
pub struct EnumDomain {
    /// Non-atomic footprint: locations `P`/`F`/`M` range over.
    pub na_locs: Vec<Loc>,
    /// Values used for atomic-read results, acquire-gained memory values,
    /// and initial memories. Includes `undef` unless configured otherwise.
    pub values: Vec<Value>,
    /// Defined values used to resolve `freeze` of `undef`.
    pub choose_values: Vec<i64>,
    /// Maximum machine steps explored per execution path.
    pub max_steps: usize,
}

impl EnumDomain {
    /// Builds the domain for checking `tgt` against `src`: footprint and
    /// constants are the union of both programs', one fresh value is added
    /// so that "the environment writes something the program never
    /// mentions" is representable, and `undef` is included.
    pub fn for_pair(src: &Program, tgt: &Program) -> Self {
        let mut na: BTreeSet<Loc> = src.na_locs();
        na.extend(tgt.na_locs());
        let mut consts: BTreeSet<i64> = src.constants();
        consts.extend(tgt.constants());
        consts.insert(0);
        let fresh = consts.iter().max().copied().unwrap_or(0) + 1;
        consts.insert(fresh);
        let mut values: Vec<Value> = consts.iter().map(|&n| Value::Int(n)).collect();
        values.push(Value::Undef);
        EnumDomain {
            na_locs: na.into_iter().collect(),
            choose_values: consts.into_iter().collect(),
            values,
            max_steps: 256,
        }
    }

    /// Domain for a single program (running it in isolation).
    pub fn for_program(p: &Program) -> Self {
        Self::for_pair(p, p)
    }

    /// Checks the paper's no-mixing discipline: no location is accessed
    /// both atomically and non-atomically by either program.
    pub fn check_no_mixing(src: &Program, tgt: &Program) -> Result<(), Loc> {
        let mut na: BTreeSet<Loc> = src.na_locs();
        na.extend(tgt.na_locs());
        let mut at: BTreeSet<Loc> = src.atomic_locs();
        at.extend(tgt.atomic_locs());
        match na.intersection(&at).next() {
            Some(&x) => Err(x),
            None => Ok(()),
        }
    }

    /// All subsets of the non-atomic footprint.
    pub fn loc_subsets(&self) -> Vec<LocSet> {
        subsets(&self.na_locs)
    }

    /// All valuations of `locs` into the value domain.
    pub fn valuations(&self, locs: &[Loc]) -> Vec<Valuation> {
        let mut out = vec![Valuation::new()];
        for &x in locs {
            let mut next = Vec::with_capacity(out.len() * self.values.len());
            for v in &self.values {
                for m in &out {
                    let mut m = m.clone();
                    m.insert(x, *v);
                    next.push(m);
                }
            }
            out = next;
        }
        out
    }
}

/// All subsets of a slice of locations.
pub fn subsets(locs: &[Loc]) -> Vec<LocSet> {
    let mut out = vec![LocSet::new()];
    for &x in locs {
        let mut more = Vec::with_capacity(out.len());
        for s in &out {
            let mut s = s.clone();
            s.insert(x);
            more.push(s);
        }
        out.extend(more);
    }
    out
}

/// A SEQ machine state `⟨σ, P, F, M⟩`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SeqState {
    /// The program state `σ`.
    pub prog: ProgState,
    /// The permission set `P`.
    pub perm: LocSet,
    /// The written-locations set `F`.
    pub written: LocSet,
    /// The non-atomic memory `M`.
    pub mem: Memory,
}

impl SeqState {
    /// Builds the initial SEQ state for a program.
    pub fn new(prog: &Program, perm: LocSet, written: LocSet, mem: Memory) -> Self {
        SeqState {
            prog: ProgState::new(prog),
            perm,
            written,
            mem,
        }
    }

    /// Is the program at the error state `⊥`?
    pub fn is_bottom(&self) -> bool {
        self.prog.is_failed()
    }

    /// Has the program terminated normally?
    pub fn returned(&self) -> Option<Value> {
        self.prog.returned()
    }

    fn with_prog(&self, prog: ProgState) -> SeqState {
        SeqState {
            prog,
            perm: self.perm.clone(),
            written: self.written.clone(),
            mem: self.mem.clone(),
        }
    }

    /// The racy-na-write rule: the machine moves to `⟨⊥, P, F, M⟩`.
    fn to_bottom(&self) -> SeqState {
        self.with_prog(ProgState::bottom())
    }

    /// Enumerates the acquire choices `(P′, V)` with `P ⊆ P′` and
    /// `dom(V) = P′ ∖ P` over the domain.
    fn acq_choices(&self, dom: &EnumDomain) -> Vec<(LocSet, Valuation)> {
        let gains: Vec<Loc> = dom
            .na_locs
            .iter()
            .copied()
            .filter(|x| !self.perm.contains(x))
            .collect();
        let mut out = Vec::new();
        for gained in subsets(&gains) {
            let gained_vec: Vec<Loc> = gained.iter().copied().collect();
            for vals in dom.valuations(&gained_vec) {
                let mut p_after = self.perm.clone();
                p_after.extend(gained.iter().copied());
                out.push((p_after, vals));
            }
        }
        out
    }

    /// Enumerates the release choices `P′ ⊆ P`.
    fn rel_choices(&self) -> Vec<LocSet> {
        let p: Vec<Loc> = self.perm.iter().copied().collect();
        subsets(&p)
    }

    /// Takes the *unlabeled* transition — a silent step or a non-atomic
    /// access — in place and returns `true`, or returns `false` (leaving
    /// the state unchanged) when the next transition is labeled or the
    /// state is final. Unlabeled transitions are deterministic: a state
    /// that has one has no other.
    pub(crate) fn step_unlabeled(&mut self) -> bool {
        let step = self.prog.step();
        self.take_unlabeled(step).is_ok()
    }

    /// Takes `step` in place if it is unlabeled, or hands it back.
    fn take_unlabeled(&mut self, step: Step) -> Result<(), Step> {
        match step {
            // (silent)
            Step::Silent(next) => self.prog = next,
            // (na-read) / (racy-na-read)
            Step::Read {
                loc,
                mode: ReadMode::Na,
            } => {
                let v = if self.perm.contains(&loc) {
                    self.mem.get(loc)
                } else {
                    Value::Undef
                };
                self.prog = self.prog.resume_read(v);
            }
            // (na-write) / (racy-na-write)
            Step::Write {
                loc,
                mode: WriteMode::Na,
                val,
                next,
            } => {
                if self.perm.contains(&loc) {
                    self.prog = next;
                    self.mem.set(loc, val);
                    self.written.insert(loc);
                } else {
                    self.prog = ProgState::bottom();
                }
            }
            labeled => return Err(labeled),
        }
        Ok(())
    }

    /// Enumerates every machine transition `S → S′` (with its label, if
    /// labeled) under the given enumeration domain.
    ///
    /// Terminated and `⊥` states have no transitions; use
    /// [`SeqState::is_bottom`] / [`SeqState::returned`] to classify them.
    pub fn transitions(&self, dom: &EnumDomain) -> Vec<(Option<SeqLabel>, SeqState)> {
        let mut next = self.clone();
        let step = match next.take_unlabeled(self.prog.step()) {
            Ok(()) => return vec![(None, next)],
            Err(labeled) => labeled,
        };
        let mut out = Vec::new();
        match step {
            Step::Terminated(_) | Step::Fail => {}
            Step::Silent(_) => unreachable!("silent steps are unlabeled"),
            // (choice)
            Step::Choose(cs) => {
                let choices = match &cs {
                    ChoiceSet::Explicit(vs) => vs.clone(),
                    ChoiceSet::AnyDefined => {
                        dom.choose_values.iter().map(|&n| Value::Int(n)).collect()
                    }
                };
                for v in choices {
                    out.push((
                        Some(SeqLabel::Choose(v)),
                        self.with_prog(self.prog.resume_choose(v)),
                    ));
                }
            }
            Step::Read { loc, mode } => match mode {
                ReadMode::Na => unreachable!("non-atomic reads are unlabeled"),
                // (relaxed read): value unconstrained, recorded in trace.
                ReadMode::Rlx => {
                    for &v in &dom.values {
                        out.push((
                            Some(SeqLabel::ReadRlx(loc, v)),
                            self.with_prog(self.prog.resume_read(v)),
                        ));
                    }
                }
                // (acq-read)
                ReadMode::Acq => {
                    for &v in &dom.values {
                        for (p_after, vals) in self.acq_choices(dom) {
                            let info = SyncInfo {
                                p_before: self.perm.clone(),
                                p_after: p_after.clone(),
                                written: self.written.clone(),
                                vals: vals.clone(),
                            };
                            let mut next = self.with_prog(self.prog.resume_read(v));
                            next.perm = p_after;
                            next.mem.update(&vals);
                            out.push((Some(SeqLabel::AcqRead { loc, val: v, info }), next));
                        }
                    }
                }
            },
            Step::Write {
                loc,
                mode,
                val,
                next,
            } => match mode {
                WriteMode::Na => unreachable!("non-atomic writes are unlabeled"),
                // (relaxed write)
                WriteMode::Rlx => {
                    out.push((Some(SeqLabel::WriteRlx(loc, val)), self.with_prog(next)));
                }
                // (rel-write)
                WriteMode::Rel => {
                    for p_after in self.rel_choices() {
                        let info = SyncInfo {
                            p_before: self.perm.clone(),
                            p_after: p_after.clone(),
                            written: self.written.clone(),
                            vals: self.mem.restrict(&self.perm),
                        };
                        let mut s = self.with_prog(next.clone());
                        s.perm = p_after;
                        s.written = LocSet::new();
                        out.push((Some(SeqLabel::RelWrite { loc, val, info }), s));
                    }
                }
            },
            Step::Fence { mode, next } => match mode {
                FenceMode::Acq => {
                    for (p_after, vals) in self.acq_choices(dom) {
                        let info = SyncInfo {
                            p_before: self.perm.clone(),
                            p_after: p_after.clone(),
                            written: self.written.clone(),
                            vals: vals.clone(),
                        };
                        let mut s = self.with_prog(next.clone());
                        s.perm = p_after;
                        s.mem.update(&vals);
                        out.push((Some(SeqLabel::AcqFence { info }), s));
                    }
                }
                FenceMode::Rel => {
                    for p_after in self.rel_choices() {
                        let info = SyncInfo {
                            p_before: self.perm.clone(),
                            p_after: p_after.clone(),
                            written: self.written.clone(),
                            vals: self.mem.restrict(&self.perm),
                        };
                        let mut s = self.with_prog(next.clone());
                        s.perm = p_after;
                        s.written = LocSet::new();
                        out.push((Some(SeqLabel::RelFence { info }), s));
                    }
                }
                // Composite fences decompose into a release part now,
                // leaving the acquire part in the continuation.
                FenceMode::AcqRel | FenceMode::Sc => {
                    let cont = next.prefixed(Stmt::Fence(FenceMode::Acq));
                    for p_after in self.rel_choices() {
                        let info = SyncInfo {
                            p_before: self.perm.clone(),
                            p_after: p_after.clone(),
                            written: self.written.clone(),
                            vals: self.mem.restrict(&self.perm),
                        };
                        let mut s = self.with_prog(cont.clone());
                        s.perm = p_after;
                        s.written = LocSet::new();
                        out.push((Some(SeqLabel::RelFence { info }), s));
                    }
                }
            },
            Step::Rmw { loc, mode } => {
                for &read in &dom.values {
                    let res = self.prog.resume_rmw(read);
                    if res.next.is_failed() {
                        // UB during the update (e.g. CAS comparison on
                        // undef): the read still happened.
                        let acq = mode.read_mode().is_atomic().then(|| SyncInfo {
                            p_before: self.perm.clone(),
                            p_after: self.perm.clone(),
                            written: self.written.clone(),
                            vals: Valuation::new(),
                        });
                        out.push((
                            Some(SeqLabel::Rmw {
                                loc,
                                mode,
                                read,
                                write: None,
                                acq: if mode.read_mode() == ReadMode::Acq {
                                    acq
                                } else {
                                    None
                                },
                                rel: None,
                            }),
                            self.to_bottom(),
                        ));
                        continue;
                    }
                    // Acquire side choices (if the mode acquires).
                    let acq_opts: Vec<Option<(LocSet, Valuation)>> =
                        if mode.read_mode() == ReadMode::Acq {
                            self.acq_choices(dom).into_iter().map(Some).collect()
                        } else {
                            vec![None]
                        };
                    for acq_choice in acq_opts {
                        let mut mid = self.with_prog(res.next.clone());
                        let acq_info = acq_choice.as_ref().map(|(p_after, vals)| {
                            let info = SyncInfo {
                                p_before: self.perm.clone(),
                                p_after: p_after.clone(),
                                written: self.written.clone(),
                                vals: vals.clone(),
                            };
                            mid.perm = p_after.clone();
                            mid.mem.update(vals);
                            info
                        });
                        // Release side (only if the update writes).
                        if res.write.is_some() && mode.write_mode() == WriteMode::Rel {
                            let rel_perm: Vec<Loc> = mid.perm.iter().copied().collect();
                            for p_after in subsets(&rel_perm) {
                                let rel_info = SyncInfo {
                                    p_before: mid.perm.clone(),
                                    p_after: p_after.clone(),
                                    written: mid.written.clone(),
                                    vals: mid.mem.restrict(&mid.perm),
                                };
                                let mut s = mid.clone();
                                s.perm = p_after;
                                s.written = LocSet::new();
                                out.push((
                                    Some(SeqLabel::Rmw {
                                        loc,
                                        mode,
                                        read,
                                        write: res.write,
                                        acq: acq_info.clone(),
                                        rel: Some(rel_info),
                                    }),
                                    s,
                                ));
                            }
                        } else {
                            out.push((
                                Some(SeqLabel::Rmw {
                                    loc,
                                    mode,
                                    read,
                                    write: res.write,
                                    acq: acq_info,
                                    rel: None,
                                }),
                                mid,
                            ));
                        }
                    }
                }
            }
            Step::Syscall { val, next } => {
                out.push((Some(SeqLabel::Syscall(val)), self.with_prog(next)));
            }
        }
        out
    }

    /// The maximal sequence of states reachable via *unlabeled* transitions
    /// (silent steps and non-atomic accesses), starting with `self`.
    ///
    /// Unlabeled transitions are deterministic, so this is a path; it stops
    /// at the first labeled, terminated, or `⊥` state (inclusive), or when
    /// `max_steps` is exhausted (e.g. a silent infinite loop).
    pub fn unlabeled_path(&self, dom: &EnumDomain) -> Vec<SeqState> {
        let mut path = vec![self.clone()];
        let mut seen: std::collections::HashSet<SeqState> = std::collections::HashSet::new();
        seen.insert(self.clone());
        for _ in 0..dom.max_steps {
            let cur = path.last().expect("non-empty path");
            if cur.is_bottom() || cur.returned().is_some() {
                break;
            }
            let trans = cur.transitions(dom);
            match trans.as_slice() {
                [(None, next)] => {
                    if !seen.insert(next.clone()) {
                        break; // silent cycle
                    }
                    path.push(next.clone());
                }
                _ => break, // labeled or stuck
            }
        }
        path
    }
}

impl fmt::Display for SeqState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let set = |s: &LocSet| {
            s.iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        write!(
            f,
            "⟨{}, P={{{}}}, F={{{}}}, M={}⟩",
            self.prog,
            set(&self.perm),
            set(&self.written),
            self.mem
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqwm_lang::parser::parse_program;

    fn dom_for(src: &str) -> (Program, EnumDomain) {
        let p = parse_program(src).unwrap();
        let d = EnumDomain::for_program(&p);
        (p, d)
    }

    fn full_perm(d: &EnumDomain) -> LocSet {
        d.na_locs.iter().copied().collect()
    }

    #[test]
    fn na_read_with_permission_reads_memory() {
        let (p, d) = dom_for("a := load[na](mx); return a;");
        let x = Loc::new("mx");
        let st = SeqState::new(
            &p,
            full_perm(&d),
            LocSet::new(),
            Memory::from_pairs([(x, Value::Int(7))]),
        );
        let path = st.unlabeled_path(&d);
        let last = path.last().unwrap();
        assert_eq!(last.returned(), Some(Value::Int(7)));
    }

    #[test]
    fn racy_na_read_returns_undef() {
        let (p, d) = dom_for("a := load[na](mrx); return a;");
        let st = SeqState::new(&p, LocSet::new(), LocSet::new(), Memory::new());
        let last = st.unlabeled_path(&d).last().unwrap().clone();
        assert_eq!(last.returned(), Some(Value::Undef));
    }

    #[test]
    fn na_write_updates_memory_and_written_set() {
        let (p, d) = dom_for("store[na](mwx, 3);");
        let x = Loc::new("mwx");
        let st = SeqState::new(&p, full_perm(&d), LocSet::new(), Memory::new());
        let last = st.unlabeled_path(&d).last().unwrap().clone();
        assert_eq!(last.returned(), Some(Value::ZERO));
        assert_eq!(last.mem.get(x), Value::Int(3));
        assert!(last.written.contains(&x));
    }

    #[test]
    fn racy_na_write_is_ub() {
        let (p, d) = dom_for("store[na](mbx, 3);");
        let st = SeqState::new(&p, LocSet::new(), LocSet::new(), Memory::new());
        let last = st.unlabeled_path(&d).last().unwrap().clone();
        assert!(last.is_bottom(), "write without permission must reach ⊥");
        // P, F, M are preserved at ⊥ (Fig. 1 racy-na-write).
        assert_eq!(last.perm, LocSet::new());
    }

    #[test]
    fn rlx_read_branches_over_domain() {
        let (p, d) = dom_for("a := load[rlx](arx); return a;");
        let st = SeqState::new(&p, LocSet::new(), LocSet::new(), Memory::new());
        let at_read = st.unlabeled_path(&d).last().unwrap().clone();
        let trans = at_read.transitions(&d);
        // One branch per domain value, each labeled Rrlx.
        assert_eq!(trans.len(), d.values.len());
        assert!(trans
            .iter()
            .all(|(l, _)| matches!(l, Some(SeqLabel::ReadRlx(_, _)))));
    }

    #[test]
    fn acq_read_gains_permissions_and_values() {
        // One na loc (may) + one atomic loc (may not be gained).
        let (p, d) = dom_for("a := load[acq](aax); b := load[na](may); return b;");
        let may = Loc::new("may");
        let st = SeqState::new(&p, LocSet::new(), LocSet::new(), Memory::new());
        let at_acq = st.unlabeled_path(&d).last().unwrap().clone();
        let trans = at_acq.transitions(&d);
        // values × (gain nothing | gain `may` with each domain value).
        let per_value = 1 + d.values.len();
        assert_eq!(trans.len(), d.values.len() * per_value);
        // Some branch gains permission on `may` with value 1.
        assert!(trans.iter().any(|(l, s)| {
            matches!(l, Some(SeqLabel::AcqRead { .. }))
                && s.perm.contains(&may)
                && s.mem.get(may) == Value::Int(1)
        }));
        // No branch ever gains permission on the *atomic* location.
        assert!(trans
            .iter()
            .all(|(_, s)| !s.perm.contains(&Loc::new("aax"))));
    }

    #[test]
    fn rel_write_loses_permissions_and_resets_written() {
        let (p, d) = dom_for("store[na](rwy, 1); store[rel](rwx, 1);");
        let y = Loc::new("rwy");
        let st = SeqState::new(&p, full_perm(&d), LocSet::new(), Memory::new());
        // Run the na write first.
        let at_rel = st.unlabeled_path(&d).last().unwrap().clone();
        assert!(at_rel.written.contains(&y));
        let trans = at_rel.transitions(&d);
        // P = {rwy} so the release may keep or drop it: 2 choices.
        assert_eq!(trans.len(), 2);
        for (l, s) in &trans {
            let Some(SeqLabel::RelWrite { info, .. }) = l else {
                panic!("expected release label");
            };
            assert!(info.written.contains(&y), "label records F before reset");
            assert_eq!(info.vals.get(&y), Some(&Value::Int(1)), "V = M|P");
            assert!(s.written.is_empty(), "release resets F");
        }
        assert!(trans.iter().any(|(_, s)| s.perm.contains(&y)));
        assert!(trans.iter().any(|(_, s)| !s.perm.contains(&y)));
    }

    #[test]
    fn choose_is_labeled() {
        let (p, d) = dom_for("c := choose(1, 2); return c;");
        let st = SeqState::new(&p, LocSet::new(), LocSet::new(), Memory::new());
        let at_choose = st.unlabeled_path(&d).last().unwrap().clone();
        let trans = at_choose.transitions(&d);
        assert_eq!(trans.len(), 2);
        assert!(trans
            .iter()
            .all(|(l, _)| matches!(l, Some(SeqLabel::Choose(_)))));
    }

    #[test]
    fn composite_fence_decomposes() {
        let (p, d) = dom_for("fence[sc];");
        let st = SeqState::new(&p, LocSet::new(), LocSet::new(), Memory::new());
        let at_fence = st.unlabeled_path(&d).last().unwrap().clone();
        let trans = at_fence.transitions(&d);
        assert!(trans
            .iter()
            .all(|(l, _)| matches!(l, Some(SeqLabel::RelFence { .. }))));
        // The follow-up step is the acquire part.
        let (_, after_rel) = &trans[0];
        let t2 = after_rel.transitions(&d);
        assert!(t2
            .iter()
            .all(|(l, _)| matches!(l, Some(SeqLabel::AcqFence { .. }))));
    }

    #[test]
    fn rmw_reads_and_writes() {
        let (p, d) = dom_for("r := fadd[rlx](frx, 1); return r;");
        let st = SeqState::new(&p, LocSet::new(), LocSet::new(), Memory::new());
        let at_rmw = st.unlabeled_path(&d).last().unwrap().clone();
        let trans = at_rmw.transitions(&d);
        assert_eq!(trans.len(), d.values.len());
        for (l, _) in &trans {
            let Some(SeqLabel::Rmw { read, write, .. }) = l else {
                panic!("expected RMW label");
            };
            match read {
                Value::Int(n) => assert_eq!(*write, Some(Value::Int(n + 1))),
                Value::Undef => assert_eq!(*write, Some(Value::Undef)),
            }
        }
    }

    #[test]
    fn footprint_and_domain_construction() {
        let src = parse_program("store[na](fp_a, 2); b := load[rlx](fp_b);").unwrap();
        let tgt = parse_program("store[na](fp_c, 5);").unwrap();
        let d = EnumDomain::for_pair(&src, &tgt);
        assert_eq!(d.na_locs.len(), 2); // fp_a, fp_c (fp_b is atomic)
        assert!(d.values.contains(&Value::Int(0)));
        assert!(d.values.contains(&Value::Int(2)));
        assert!(d.values.contains(&Value::Int(5)));
        assert!(d.values.contains(&Value::Int(6))); // fresh = max + 1
        assert!(d.values.contains(&Value::Undef));
    }

    #[test]
    fn no_mixing_check() {
        let ok_src = parse_program("store[na](nm_x, 1);").unwrap();
        let ok_tgt = parse_program("a := load[rlx](nm_y);").unwrap();
        assert!(EnumDomain::check_no_mixing(&ok_src, &ok_tgt).is_ok());
        let bad = parse_program("store[na](nm_z, 1); a := load[rlx](nm_z);").unwrap();
        assert_eq!(
            EnumDomain::check_no_mixing(&bad, &bad),
            Err(Loc::new("nm_z"))
        );
    }

    #[test]
    fn subsets_enumeration() {
        let locs = [Loc::new("ss_a"), Loc::new("ss_b")];
        let ss = subsets(&locs);
        assert_eq!(ss.len(), 4);
    }

    #[test]
    fn unlabeled_path_handles_silent_divergence() {
        let (p, d) = dom_for("while 1 { skip; }");
        let st = SeqState::new(&p, LocSet::new(), LocSet::new(), Memory::new());
        // Must terminate (cycle detection), not hang.
        let path = st.unlabeled_path(&d);
        assert!(!path.is_empty());
    }
}
