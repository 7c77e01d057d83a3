//! SEQ transition labels and the refinement order on them (Def. 2.3).
//!
//! Non-atomic accesses leave *no* label (they are invisible in traces,
//! allowing the source and target to perform different sequences of
//! non-atomic accesses). Atomic accesses, `choose`, and system calls are
//! recorded; acquire and release transitions additionally record the
//! permission sets before/after, the written-locations set, and the
//! relevant memory fragment (`V`), which is what makes traces expressive
//! enough for an adequate refinement notion (§2).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use seqwm_lang::{Loc, RmwMode, Value};

/// A set of non-atomic locations (used for permission sets `P` and
/// written-locations sets `F`).
pub type LocSet = BTreeSet<Loc>;

/// A partial valuation `V : Loc^na ⇀ Val`.
pub type Valuation = BTreeMap<Loc, Value>;

/// The bookkeeping attached to acquire/release transitions:
/// `(P, P′, F, V)` of the labels `Racq(x,v,P,P′,F,V)` / `Wrel(x,v,P,P′,F,V)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SyncInfo {
    /// Permission set before the transition (`P`).
    pub p_before: LocSet,
    /// Permission set after the transition (`P′`).
    pub p_after: LocSet,
    /// Written-locations set at the transition (`F`).
    pub written: LocSet,
    /// For acquires: the new values of gained locations
    /// (`dom(V) = P′ ∖ P`). For releases: the released memory `M|_P`.
    pub vals: Valuation,
}

impl SyncInfo {
    /// Label refinement on the acquire flavour: everything equal except
    /// `F_tgt ⊆ F_src`.
    fn acq_refines(&self, src: &SyncInfo) -> bool {
        self.p_before == src.p_before
            && self.p_after == src.p_after
            && self.vals == src.vals
            && self.written.is_subset(&src.written)
    }

    /// Label refinement on the release flavour: permission sets equal,
    /// `F_tgt ⊆ F_src`, and `V_tgt ⊑ V_src` pointwise.
    fn rel_refines(&self, src: &SyncInfo) -> bool {
        self.p_before == src.p_before
            && self.p_after == src.p_after
            && self.written.is_subset(&src.written)
            && valuation_refines(&self.vals, &src.vals)
    }
}

/// Pointwise lifting of the value order `⊑` to partial valuations with the
/// same domain.
pub fn valuation_refines(tgt: &Valuation, src: &Valuation) -> bool {
    tgt.len() == src.len()
        && tgt
            .iter()
            .all(|(x, v)| src.get(x).is_some_and(|sv| v.refines(*sv)))
}

/// A SEQ transition label (trace symbol).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SeqLabel {
    /// `choose(v)`.
    Choose(Value),
    /// `Rrlx(x, v)`.
    ReadRlx(Loc, Value),
    /// `Wrlx(x, v)`.
    WriteRlx(Loc, Value),
    /// `Racq(x, v, P, P′, F, V)`.
    AcqRead {
        /// Location read.
        loc: Loc,
        /// Value read.
        val: Value,
        /// Permission bookkeeping.
        info: SyncInfo,
    },
    /// `Wrel(x, v, P, P′, F, V)`.
    RelWrite {
        /// Location written.
        loc: Loc,
        /// Value written.
        val: Value,
        /// Permission bookkeeping.
        info: SyncInfo,
    },
    /// Acquire fence (Coq-development extension): an acquire transition
    /// without a read.
    AcqFence {
        /// Permission bookkeeping.
        info: SyncInfo,
    },
    /// Release fence (Coq-development extension): a release transition
    /// without a write.
    RelFence {
        /// Permission bookkeeping.
        info: SyncInfo,
    },
    /// Atomic read-modify-write (Coq-development extension). Combines an
    /// acquire-read side (if the mode acquires) and a release-write side
    /// (if the mode releases and the update writes).
    Rmw {
        /// Location updated.
        loc: Loc,
        /// RMW mode.
        mode: RmwMode,
        /// Value read.
        read: Value,
        /// Value written (`None` for a failed CAS, which acts as a read).
        write: Option<Value>,
        /// Acquire-side bookkeeping (present iff the mode acquires).
        acq: Option<SyncInfo>,
        /// Release-side bookkeeping (present iff the mode releases and a
        /// write happened).
        rel: Option<SyncInfo>,
    },
    /// An observable system call (`print(v)`).
    Syscall(Value),
}

impl SeqLabel {
    /// Does this label have acquire semantics? Such labels are forbidden in
    /// the "late UB" and "commitment fulfilment" suffixes of advanced
    /// refinement (§3, Fig. 2 `beh-failure` / `beh-partial`).
    pub fn is_acquire(&self) -> bool {
        match self {
            SeqLabel::AcqRead { .. } | SeqLabel::AcqFence { .. } => true,
            SeqLabel::Rmw { acq, .. } => acq.is_some(),
            _ => false,
        }
    }

    /// The written-locations set recorded on a release transition, if any
    /// (used for the `⋃{F | Wrel(...,F,_) ∈ tr}` side condition of
    /// `beh-partial`).
    pub fn release_written(&self) -> Option<&LocSet> {
        match self {
            SeqLabel::RelWrite { info, .. } | SeqLabel::RelFence { info } => Some(&info.written),
            SeqLabel::Rmw {
                rel: Some(info), ..
            } => Some(&info.written),
            _ => None,
        }
    }

    /// A coarsening of the label that [`SeqLabel::refines`] preserves:
    /// `l ⊑ l′` implies `l.refinement_class() == l′.refinement_class()`.
    /// It erases the components the order compares by `⊑` or `⊆` (written
    /// values, written sets, released memory values) and keeps those it
    /// compares by equality, so a checker can bucket candidate source
    /// labels by class and compare only within a bucket.
    pub(crate) fn refinement_class(&self) -> SeqLabel {
        fn acq(info: &SyncInfo) -> SyncInfo {
            SyncInfo {
                written: LocSet::new(),
                ..info.clone()
            }
        }
        fn rel(info: &SyncInfo) -> SyncInfo {
            SyncInfo {
                p_before: info.p_before.clone(),
                p_after: info.p_after.clone(),
                written: LocSet::new(),
                vals: info.vals.keys().map(|&x| (x, Value::Undef)).collect(),
            }
        }
        use SeqLabel::*;
        match self {
            Choose(_) | ReadRlx(..) => self.clone(),
            WriteRlx(x, _) => WriteRlx(*x, Value::Undef),
            AcqRead { loc, val, info } => AcqRead {
                loc: *loc,
                val: *val,
                info: acq(info),
            },
            RelWrite { loc, info, .. } => RelWrite {
                loc: *loc,
                val: Value::Undef,
                info: rel(info),
            },
            AcqFence { info } => AcqFence { info: acq(info) },
            RelFence { info } => RelFence { info: rel(info) },
            Rmw {
                loc,
                mode,
                read,
                write,
                acq: a,
                rel: r,
            } => Rmw {
                loc: *loc,
                mode: *mode,
                read: *read,
                write: write.map(|_| Value::Undef),
                acq: a.as_ref().map(acq),
                rel: r.as_ref().map(rel),
            },
            Syscall(_) => Syscall(Value::Undef),
        }
    }

    /// The label refinement order `e_tgt ⊑ e_src` of Def. 2.3 (extended to
    /// fences, RMWs, and system calls in the natural way).
    pub fn refines(&self, src: &SeqLabel) -> bool {
        use SeqLabel::*;
        match (self, src) {
            (Choose(a), Choose(b)) => a == b,
            (ReadRlx(x, a), ReadRlx(y, b)) => x == y && a == b,
            // Wrlx(x, v_tgt) ⊑ Wrlx(x, v_src) iff v_tgt ⊑ v_src.
            (WriteRlx(x, a), WriteRlx(y, b)) => x == y && a.refines(*b),
            (
                AcqRead {
                    loc: x,
                    val: a,
                    info: it,
                },
                AcqRead {
                    loc: y,
                    val: b,
                    info: is,
                },
            ) => x == y && a == b && it.acq_refines(is),
            (
                RelWrite {
                    loc: x,
                    val: a,
                    info: it,
                },
                RelWrite {
                    loc: y,
                    val: b,
                    info: is,
                },
            ) => x == y && a.refines(*b) && it.rel_refines(is),
            (AcqFence { info: it }, AcqFence { info: is }) => it.acq_refines(is),
            (RelFence { info: it }, RelFence { info: is }) => it.rel_refines(is),
            (
                Rmw {
                    loc: x,
                    mode: mt,
                    read: rt,
                    write: wt,
                    acq: at,
                    rel: lt,
                },
                Rmw {
                    loc: y,
                    mode: ms,
                    read: rs,
                    write: ws,
                    acq: asrc,
                    rel: lsrc,
                },
            ) => {
                x == y
                    && mt == ms
                    && rt == rs
                    && match (wt, ws) {
                        (None, None) => true,
                        (Some(t), Some(s)) => t.refines(*s),
                        _ => false,
                    }
                    && match (at, asrc) {
                        (None, None) => true,
                        (Some(t), Some(s)) => t.acq_refines(s),
                        _ => false,
                    }
                    && match (lt, lsrc) {
                        (None, None) => true,
                        (Some(t), Some(s)) => t.rel_refines(s),
                        _ => false,
                    }
            }
            (Syscall(a), Syscall(b)) => a.refines(*b),
            _ => false,
        }
    }
}

impl fmt::Display for SeqLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn set(s: &LocSet) -> String {
            let inner = s
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(",");
            format!("{{{inner}}}")
        }
        fn val(v: &Valuation) -> String {
            let inner = v
                .iter()
                .map(|(l, x)| format!("{l}↦{x}"))
                .collect::<Vec<_>>()
                .join(",");
            format!("[{inner}]")
        }
        match self {
            SeqLabel::Choose(v) => write!(f, "choose({v})"),
            SeqLabel::ReadRlx(x, v) => write!(f, "Rrlx({x},{v})"),
            SeqLabel::WriteRlx(x, v) => write!(f, "Wrlx({x},{v})"),
            SeqLabel::AcqRead { loc, val: v, info } => write!(
                f,
                "Racq({loc},{v},{},{},{},{})",
                set(&info.p_before),
                set(&info.p_after),
                set(&info.written),
                val(&info.vals)
            ),
            SeqLabel::RelWrite { loc, val: v, info } => write!(
                f,
                "Wrel({loc},{v},{},{},{},{})",
                set(&info.p_before),
                set(&info.p_after),
                set(&info.written),
                val(&info.vals)
            ),
            SeqLabel::AcqFence { info } => write!(
                f,
                "Facq({},{},{})",
                set(&info.p_before),
                set(&info.p_after),
                set(&info.written)
            ),
            SeqLabel::RelFence { info } => write!(
                f,
                "Frel({},{},{})",
                set(&info.p_before),
                set(&info.p_after),
                set(&info.written)
            ),
            SeqLabel::Rmw {
                loc,
                mode,
                read,
                write,
                ..
            } => match write {
                Some(w) => write!(f, "U{mode}({loc},{read},{w})"),
                None => write!(f, "U{mode}({loc},{read},⊥w)"),
            },
            SeqLabel::Syscall(v) => write!(f, "sys({v})"),
        }
    }
}

/// The trace refinement order: equal length, pointwise label refinement
/// (Def. 2.3, item 2).
pub fn trace_refines(tgt: &[SeqLabel], src: &[SeqLabel]) -> bool {
    tgt.len() == src.len() && tgt.iter().zip(src).all(|(t, s)| t.refines(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Loc {
        Loc::new("lbl_x")
    }

    fn info(written: &[Loc]) -> SyncInfo {
        SyncInfo {
            p_before: LocSet::new(),
            p_after: LocSet::new(),
            written: written.iter().copied().collect(),
            vals: Valuation::new(),
        }
    }

    #[test]
    fn reflexivity() {
        let labels = [
            SeqLabel::Choose(Value::Int(1)),
            SeqLabel::ReadRlx(x(), Value::Int(2)),
            SeqLabel::WriteRlx(x(), Value::Undef),
            SeqLabel::AcqRead {
                loc: x(),
                val: Value::Int(0),
                info: info(&[]),
            },
            SeqLabel::RelWrite {
                loc: x(),
                val: Value::Int(0),
                info: info(&[x()]),
            },
            SeqLabel::Syscall(Value::Int(3)),
        ];
        for l in &labels {
            assert!(l.refines(l), "label not reflexive: {l}");
        }
    }

    #[test]
    fn wrlx_value_refinement() {
        let t = SeqLabel::WriteRlx(x(), Value::Int(1));
        let s = SeqLabel::WriteRlx(x(), Value::Undef);
        assert!(t.refines(&s), "defined write refines undef write");
        assert!(!s.refines(&t), "undef write does not refine defined write");
    }

    #[test]
    fn rrlx_requires_equal_values() {
        let t = SeqLabel::ReadRlx(x(), Value::Int(1));
        let s = SeqLabel::ReadRlx(x(), Value::Undef);
        assert!(!t.refines(&s), "read labels must match exactly");
    }

    #[test]
    fn acquire_allows_larger_source_written_set() {
        let y = Loc::new("lbl_y");
        let t = SeqLabel::AcqRead {
            loc: x(),
            val: Value::Int(0),
            info: info(&[]),
        };
        let s = SeqLabel::AcqRead {
            loc: x(),
            val: Value::Int(0),
            info: info(&[y]),
        };
        assert!(t.refines(&s), "F_tgt ⊆ F_src is allowed");
        assert!(!s.refines(&t), "F_src ⊂ F_tgt is not");
    }

    #[test]
    fn release_value_map_refinement() {
        let y = Loc::new("lbl_relv");
        let mk = |v: Value| SeqLabel::RelWrite {
            loc: x(),
            val: Value::Int(0),
            info: SyncInfo {
                p_before: [y].into_iter().collect(),
                p_after: LocSet::new(),
                written: LocSet::new(),
                vals: [(y, v)].into_iter().collect(),
            },
        };
        assert!(mk(Value::Int(3)).refines(&mk(Value::Undef)));
        assert!(!mk(Value::Undef).refines(&mk(Value::Int(3))));
    }

    #[test]
    fn acquire_value_map_must_match_exactly() {
        let y = Loc::new("lbl_acqv");
        let mk = |v: Value| SeqLabel::AcqRead {
            loc: x(),
            val: Value::Int(0),
            info: SyncInfo {
                p_before: LocSet::new(),
                p_after: [y].into_iter().collect(),
                written: LocSet::new(),
                vals: [(y, v)].into_iter().collect(),
            },
        };
        assert!(!mk(Value::Int(3)).refines(&mk(Value::Undef)));
        assert!(mk(Value::Int(3)).refines(&mk(Value::Int(3))));
    }

    #[test]
    fn trace_refinement_is_pointwise_and_length_strict() {
        let t = vec![SeqLabel::WriteRlx(x(), Value::Int(1))];
        let s = vec![SeqLabel::WriteRlx(x(), Value::Undef)];
        assert!(trace_refines(&t, &s));
        assert!(!trace_refines(&t, &[]));
        assert!(!trace_refines(&[], &s));
        assert!(trace_refines(&[], &[]));
    }

    #[test]
    fn acquire_detection() {
        assert!(SeqLabel::AcqRead {
            loc: x(),
            val: Value::Int(0),
            info: info(&[]),
        }
        .is_acquire());
        assert!(SeqLabel::AcqFence { info: info(&[]) }.is_acquire());
        assert!(!SeqLabel::RelWrite {
            loc: x(),
            val: Value::Int(0),
            info: info(&[]),
        }
        .is_acquire());
        assert!(!SeqLabel::ReadRlx(x(), Value::Int(0)).is_acquire());
        assert!(SeqLabel::Rmw {
            loc: x(),
            mode: RmwMode::Acq,
            read: Value::Int(0),
            write: Some(Value::Int(1)),
            acq: Some(info(&[])),
            rel: None,
        }
        .is_acquire());
    }

    #[test]
    fn release_written_extraction() {
        let y = Loc::new("lbl_relw");
        let l = SeqLabel::RelWrite {
            loc: x(),
            val: Value::Int(0),
            info: info(&[y]),
        };
        assert_eq!(
            l.release_written().cloned(),
            Some([y].into_iter().collect::<LocSet>())
        );
        assert_eq!(SeqLabel::Choose(Value::Int(0)).release_written(), None);
    }

    #[test]
    fn syscall_refinement_uses_value_order() {
        assert!(SeqLabel::Syscall(Value::Int(1)).refines(&SeqLabel::Syscall(Value::Undef)));
        assert!(!SeqLabel::Syscall(Value::Undef).refines(&SeqLabel::Syscall(Value::Int(1))));
    }

    #[test]
    fn refinement_never_crosses_classes() {
        let y = Loc::new("lbl_y");
        let vals = [Value::Int(0), Value::Int(1), Value::Undef];
        let mut infos = Vec::new();
        for written in [vec![], vec![x()], vec![x(), y]] {
            for p_after in [vec![], vec![y]] {
                for v in vals {
                    infos.push(SyncInfo {
                        p_before: LocSet::new(),
                        p_after: p_after.iter().copied().collect(),
                        written: written.iter().copied().collect(),
                        vals: [(y, v)].into_iter().collect(),
                    });
                }
            }
        }
        let mut labels = Vec::new();
        for v in vals {
            labels.push(SeqLabel::Choose(v));
            labels.push(SeqLabel::ReadRlx(x(), v));
            labels.push(SeqLabel::WriteRlx(x(), v));
            labels.push(SeqLabel::Syscall(v));
            for i in &infos {
                labels.push(SeqLabel::AcqRead {
                    loc: x(),
                    val: v,
                    info: i.clone(),
                });
                labels.push(SeqLabel::RelWrite {
                    loc: x(),
                    val: v,
                    info: i.clone(),
                });
                labels.push(SeqLabel::AcqFence { info: i.clone() });
                labels.push(SeqLabel::RelFence { info: i.clone() });
                for write in [None, Some(v)] {
                    labels.push(SeqLabel::Rmw {
                        loc: x(),
                        mode: RmwMode::AcqRel,
                        read: Value::Int(0),
                        write,
                        acq: Some(i.clone()),
                        rel: write.map(|_| i.clone()),
                    });
                }
            }
        }
        let mut refining_pairs = 0;
        for t in &labels {
            for s in &labels {
                if t.refines(s) {
                    refining_pairs += 1;
                    assert_eq!(
                        t.refinement_class(),
                        s.refinement_class(),
                        "{t} ⊑ {s} across classes"
                    );
                }
            }
        }
        assert!(refining_pairs > labels.len(), "the grid has strict pairs");
        // The class still tells apart what the order compares exactly.
        assert_ne!(
            SeqLabel::ReadRlx(x(), Value::Int(0)).refinement_class(),
            SeqLabel::ReadRlx(x(), Value::Int(1)).refinement_class()
        );
    }
}
