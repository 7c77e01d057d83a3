//! `psna-litmus`: PS^na exploration of the concurrent litmus corpus.
//!
//! Each case is explored with `promising::search::explore_engine` at one
//! worker and checked against its hand-written expectations (Example
//! 5.1, App. B, App. C, the classic litmus shapes). Almost all of the
//! time is promise certification in `seqwm-promising`; no SEQ
//! refinement runs. The promise-free cases (about 10 µs per state) stay
//! in the batch as the contrast to the promise-bearing ones (0.5–1.3 ms
//! per state).
//!
//! The batch is fixed: every promise-free case plus the promise-bearing
//! cases of [`PROMISE_CASES`] that fit the run length. The benchmark
//! seed only shuffles the order (see `schedule`).

use std::collections::BTreeSet;
use std::time::Instant;

use seqwm_explore::counters::CounterSnapshot;
use seqwm_explore::{mix64, ExploreConfig, ExploreStats, SplitMix64, StopReason};
use seqwm_json::Json;
use seqwm_lang::{Program, Value};
use seqwm_litmus::{concurrent_corpus, find_concurrent, ConcurrentCase};
use seqwm_promising::machine::PsBehavior;
use seqwm_promising::search::{engine_config, explore_engine};
use seqwm_promising::PsConfig;

use crate::common::{fastest, ms_since, samples, shuffle, SetupClock, SETUP_REPS};
use crate::report::{Outcome, Pass};
use crate::trace::Tracer;

/// Promise-bearing cases kept in the batch, with their cost in
/// milliseconds at one worker on a 2-vCPU x86-64 host. A case joins the
/// batch while the running total stays within `--seconds` (at most
/// 10 s); from 10 s on all five fit. The corpus's `appendix-b-multi-message` (about 18 s) and
/// `appendix-c-choose-release-target` (about 4 s) do not.
pub const PROMISE_CASES: [(&str, u64); 5] = [
    ("lb-data-no-thin-air", 70),
    ("lb-rlx-promises", 390),
    ("example-5-1", 1_240),
    ("appendix-c-choose-release-source", 2_780),
    ("appendix-b-single-message-ablation", 5_100),
];

/// How many times each promise-free case is explored in a pass; its
/// latency is the fastest. One such exploration takes milliseconds, and
/// on a shared host a share of them run up to twice as long, a share
/// that changes from run to run; the fastest repeat does not.
pub const CHEAP_REPEATS: usize = 9;

/// Seconds of `--seconds` per round over the batch (a round takes about
/// 9 s on a 2-vCPU x86-64 host); at least two rounds run.
pub const SECONDS_PER_ROUND: u64 = 8;

/// The warm-up case: promise-bearing and tens of milliseconds long.
const WARMUP_CASE: &str = "lb-data-no-thin-air";

struct Case {
    case: ConcurrentCase,
    programs: Vec<Program>,
    ps: PsConfig,
    ecfg: ExploreConfig,
}

fn prepare(case: ConcurrentCase, tracer: &mut Tracer, id: u64) -> Case {
    let programs = tracer.span("lang.parse", id, || case.programs());
    let ps = case.config();
    // One worker and no wall-clock deadline: only `max_states` and the
    // machine-step bounds limit the work.
    let ecfg = ExploreConfig {
        workers: 1,
        deadline: None,
        ..engine_config(&ps)
    };
    Case {
        case,
        programs,
        ps,
        ecfg,
    }
}

/// The batch for a run of `seconds`.
pub fn batch_names(seconds: u64) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = concurrent_corpus()
        .into_iter()
        .filter(|c| !c.promises)
        .map(|c| c.name)
        .collect();
    let mut budget_ms = 0;
    for (name, ms) in PROMISE_CASES {
        budget_ms += ms;
        if budget_ms > seconds.min(10) * 1_000 {
            break;
        }
        names.push(name);
    }
    names
}

struct Setup {
    cases: Vec<Case>,
    /// Indices into `cases`, in exploration order.
    order: Vec<usize>,
    tracer: Tracer,
}

fn setup(seed: u64, seconds: u64, trace: bool) -> Result<Setup, String> {
    let mut tracer = Tracer::new(Instant::now(), 0, trace);
    let mut cases = Vec::new();
    for (id, name) in batch_names(seconds).into_iter().enumerate() {
        let case = find_concurrent(name).ok_or_else(|| format!("no corpus case {name}"))?;
        cases.push(prepare(case, &mut tracer, id as u64));
    }
    let order = schedule(seed, &cases);
    let warm = find_concurrent(WARMUP_CASE).ok_or("no warm-up case")?;
    let warm = prepare(warm, &mut Tracer::off(), 0);
    let e = explore_engine(&warm.programs, &warm.ps, &warm.ecfg);
    check_expectations(&warm.case, &e.behaviors, &e.stats)?;
    Ok(Setup {
        cases,
        order,
        tracer,
    })
}

/// Checks a case's behaviors against its hand-written expectations.
///
/// # Errors
///
/// The first violated expectation.
pub fn check_expectations(
    case: &ConcurrentCase,
    behaviors: &BTreeSet<PsBehavior>,
    stats: &ExploreStats,
) -> Result<(), String> {
    let name = case.name;
    if stats.truncated {
        return Err(format!(
            "{name}: exploration stopped early ({})",
            stats.stop
        ));
    }
    let returns: Vec<&Vec<Value>> = behaviors
        .iter()
        .filter_map(|b| match b {
            PsBehavior::Returns { returns, .. } => Some(returns),
            PsBehavior::Ub => None,
        })
        .collect();
    if let Some(want) = case.returns_present.iter().find(|w| !returns.contains(w)) {
        return Err(format!("{name}: expected outcome {want:?} not observed"));
    }
    if let Some(banned) = case.returns_absent.iter().find(|b| returns.contains(b)) {
        return Err(format!("{name}: forbidden outcome {banned:?} observed"));
    }
    if let Some(want_ub) = case.ub {
        if behaviors.contains(&PsBehavior::Ub) != want_ub {
            return Err(format!("{name}: UB reachable should be {want_ub}"));
        }
    }
    let printed = |tid: usize, vals: &Vec<Value>| {
        behaviors.iter().any(|b| match b {
            PsBehavior::Returns { prints, .. } => prints.get(tid) == Some(vals),
            PsBehavior::Ub => false,
        })
    };
    if let Some((tid, vals)) = case.prints_present.iter().find(|(t, v)| !printed(*t, v)) {
        return Err(format!(
            "{name}: thread {tid} should be able to print {vals:?}"
        ));
    }
    if let Some((tid, vals)) = case.prints_absent.iter().find(|(t, v)| printed(*t, v)) {
        return Err(format!("{name}: thread {tid} must not print {vals:?}"));
    }
    Ok(())
}

struct Verdict {
    /// Duration of each of the case's explorations, in milliseconds.
    times: Vec<f64>,
    /// Whether every repeat found the same behaviors and states.
    repeatable: bool,
    behaviors: BTreeSet<PsBehavior>,
    stats: ExploreStats,
}

impl Verdict {
    /// The case's latency: its fastest exploration.
    fn ms(&self) -> f64 {
        fastest(&self.times)
    }

    /// Folds another round's explorations of the same case in.
    fn absorb(&mut self, other: Verdict) {
        self.repeatable &= other.repeatable
            && other.behaviors == self.behaviors
            && other.stats.states == self.stats.states;
        self.times.extend(other.times);
    }
}

/// The pass's exploration order: every promise-free case
/// [`CHEAP_REPEATS`] times and every promise-bearing case once, mixed by
/// the seed, so a cheap case's repeats are spread over the whole pass.
fn schedule(seed: u64, cases: &[Case]) -> Vec<usize> {
    let mut order: Vec<usize> = cases
        .iter()
        .enumerate()
        .flat_map(|(i, c)| {
            let reps = if c.case.promises { 1 } else { CHEAP_REPEATS };
            std::iter::repeat_n(i, reps)
        })
        .collect();
    shuffle(&mut SplitMix64::new(seed), &mut order);
    order
}

fn run_pass(s: &Setup, tracer: &mut Tracer) -> (Vec<Verdict>, f64) {
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); s.cases.len()];
    let mut found: Vec<Option<(BTreeSet<PsBehavior>, ExploreStats)>> = vec![None; s.cases.len()];
    let mut repeatable = vec![true; s.cases.len()];
    let t0 = Instant::now();
    for &i in &s.order {
        let c = &s.cases[i];
        let t = Instant::now();
        let e = tracer.span("promising.explore", i as u64, || {
            explore_engine(&c.programs, &c.ps, &c.ecfg)
        });
        times[i].push(ms_since(t));
        match &found[i] {
            Some((b, st)) => repeatable[i] &= *b == e.behaviors && st.states == e.stats.states,
            None => found[i] = Some((e.behaviors, e.stats)),
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let verdicts = times
        .into_iter()
        .zip(found)
        .zip(repeatable)
        .map(|((ms, f), repeatable)| {
            let (behaviors, stats) = f.expect("every case is scheduled");
            Verdict {
                times: ms,
                repeatable,
                behaviors,
                stats,
            }
        })
        .collect();
    (verdicts, secs)
}

fn score(s: &Setup, verdicts: &[Verdict], run_s: f64, mismatches: &mut Vec<String>) -> Pass {
    let mut pass = Pass {
        run_s,
        attempted: verdicts.len() as u64,
        ..Pass::default()
    };
    for (c, v) in s.cases.iter().zip(verdicts) {
        pass.latencies_ms.push(v.ms());
        pass.stop(v.stats.stop.to_string());
        if !v.stats.truncated {
            pass.decided += 1;
        }
        let deadline = v.stats.stop == StopReason::DeadlineExpired || v.stats.deadline_hit;
        if let Err(e) = check_expectations(&c.case, &v.behaviors, &v.stats) {
            pass.errors += 1;
            mismatches.push(e);
        } else if !v.repeatable {
            pass.errors += 1;
            mismatches.push(format!("{}: repeated explorations differ", c.case.name));
        } else if deadline {
            pass.errors += 1;
            mismatches.push(format!("{}: deadline stop", c.case.name));
        }
    }
    pass
}

fn rows(s: &Setup, verdicts: &[Verdict], mismatches: &[String]) -> Vec<Json> {
    s.cases
        .iter()
        .zip(verdicts)
        .map(|(c, v)| {
            let name = c.case.name;
            let ok = !mismatches
                .iter()
                .any(|m| m.starts_with(&format!("{name}:")));
            Json::obj(vec![
                ("name", Json::str(name)),
                ("ms", Json::Num(v.ms())),
                ("states", Json::num(v.stats.states as u64)),
                ("transitions", Json::num(v.stats.transitions as u64)),
                ("promise_steps", Json::num(v.stats.promise_steps as u64)),
                ("promises", Json::Bool(c.case.promises)),
                ("explorations", Json::num(v.times.len() as u64)),
                ("stop", Json::str(v.stats.stop.to_string())),
                (
                    "verdict",
                    Json::str(if ok { "expected" } else { "mismatch" }),
                ),
            ])
        })
        .collect()
}

/// Runs the workload.
///
/// # Errors
///
/// When set-up fails (unknown case, warm-up mismatch).
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let rounds = (seconds / SECONDS_PER_ROUND).max(2) as usize;
    let mut clock = SetupClock::default();
    let mut out = Outcome::default();
    let mut first: Option<(Setup, Vec<Verdict>)> = None;
    let mut round_secs = Vec::with_capacity(rounds);
    for r in 0..rounds as u64 {
        let order_seed = mix64(seed ^ r.rotate_left(32));
        let s = clock.time(|| setup(order_seed, seconds, trace && r == 0))?;
        let (verdicts, secs) = run_pass(&s, &mut Tracer::off());
        round_secs.push(secs);
        match &mut first {
            Some((_, all)) => {
                for (a, v) in all.iter_mut().zip(verdicts) {
                    a.absorb(v);
                }
            }
            None => first = Some((s, verdicts)),
        }
    }
    clock.extra(SETUP_REPS.saturating_sub(rounds), || {
        setup(seed, seconds, false)
    })?;
    out.setup_s = clock.secs;
    let (s, verdicts) = first.expect("at least two rounds");
    let run_s = fastest(&round_secs);
    out.notes
        .push(("round_samples_s".to_string(), samples(&round_secs)));
    out.pass = score(&s, &verdicts, run_s, &mut out.mismatches);
    out.rows = rows(&s, &verdicts, &out.mismatches);
    // There is no memo store to warm: `warm_s` stands in with the
    // fastest of the later rounds, the batch explored again in a process
    // whose allocator and caches the first round warmed.
    out.warm_s = fastest(&round_secs[1..]);

    if trace {
        let mut tracer = Tracer::new(Instant::now(), 0, true);
        let before = CounterSnapshot::capture();
        let (verdicts, traced_s) = run_pass(&s, &mut tracer);
        let d = CounterSnapshot::capture().since(&before);
        // Work summed over every exploration, repeats included, to match
        // the span time it is divided by.
        let sum = |f: fn(&ExploreStats) -> usize| -> f64 {
            verdicts
                .iter()
                .map(|v| f(&v.stats) * v.times.len())
                .sum::<usize>() as f64
        };
        let case_ms = |promises: bool| -> f64 {
            s.cases
                .iter()
                .zip(&verdicts)
                .filter(|(c, _)| c.case.promises == promises)
                .map(|(_, v)| v.times.iter().sum::<f64>())
                .sum()
        };
        let explore_ms = tracer.total_ms("promising.explore");
        let states = sum(|st| st.states);
        let dedup = sum(|st| st.dedup_hits);
        let by_layer = tracer.self_ms_by_layer();
        let parse_ms = s.tracer.total_ms("lang.parse");
        let l = &mut out.layers;
        l.insert("core.refine_fuel", d.refine_fuel_spent as f64);
        l.insert("core.refine_enumerations", d.refine_enumerations as f64);
        l.insert("promising.explore_ms", explore_ms);
        l.insert("promising.states", states);
        l.insert("promising.transitions", sum(|st| st.transitions));
        l.insert("promising.promise_steps", sum(|st| st.promise_steps));
        l.insert("promising.us_per_state", explore_ms * 1e3 / states.max(1.0));
        l.insert("promising.promise_case_ms", case_ms(true));
        l.insert("promising.promise_free_ms", case_ms(false));
        l.insert(
            "promising.self_ms",
            by_layer.get("promising").copied().unwrap_or(0.0),
        );
        l.insert("explore.dedup_hits", dedup);
        l.insert("explore.dedup_hit_rate", dedup / (dedup + states).max(1.0));
        l.insert("explore.sleep_skips", sum(|st| st.sleep_skips));
        l.insert("explore.ample_commits", sum(|st| st.ample_commits));
        l.insert("explore.truncated", sum(|st| usize::from(st.truncated)));
        l.insert("lang.parse_ms", parse_ms);
        l.insert("trace.run_s", traced_s);
        l.insert("trace.overhead_ms", (traced_s - run_s) * 1e3);
        l.insert(
            "trace.attributed_share",
            by_layer.values().sum::<f64>() / (traced_s * 1e3),
        );
        l.insert("trace.spans", tracer.spans().len() as f64);
        out.spans = Some(tracer.to_json());
    }
    Ok(out)
}
