//! `seqwm` — the command-line front end of the workspace.
//!
//! ```text
//! seqwm parse <file>                  parse + pretty-print a program
//! seqwm optimize [flags] <file>       run the optimizer (§4 + atomics/promotion)
//! seqwm optimize --batch N [flags]    validated batch-corpus optimization
//! seqwm validate <file>               optimize + SEQ-only validation
//! seqwm refine <src> <tgt>            check both refinement notions (§2/§3)
//! seqwm explore [flags] <file>...     PS^na behaviors of a parallel program
//! seqwm sc <file> [<file>...]         SC behaviors (baseline)
//! seqwm drf <file> [<file>...]        race report + model comparison
//! seqwm litmus [name|--all]           run corpus cases
//! seqwm fuzz [flags]                  differential fuzz campaign
//! seqwm fuzz --replay <file>          re-run a persisted failure
//! seqwm bench [flags]                 deterministic benchmark suite
//! seqwm serve [flags]                 long-lived verification daemon
//! ```
//!
//! `explore` accepts `--model <auto|psna|pf|ra|scf|sc>` to pick a
//! memory-model backend (`auto` runs the DRF-gated planner: LDRF-SC →
//! LDRF-RA/PF checker ladder, downgrading the exploration model as far
//! as the race verdicts allow, falling back to full PS^na), plus the
//! engine flags: `--workers N`, `--strategy
//! dfs|bfs|iddfs|random`, `--no-reduction`, `--exact` (exact visited
//! set instead of 64-bit fingerprints), `--max-states N`, `--stats`
//! (print engine statistics), plus the durability/robustness knobs
//! `--checkpoint <file>`, `--resume <file>`,
//! `--checkpoint-every-ms N`, `--deadline-ms N`, `--max-memory-mb N`,
//! and the out-of-core knobs `--spill-dir <dir>` (spill cold
//! visited/frontier shards to disk before any lossy downgrade) and
//! `--spill-budget-mb N` (in-RAM trigger; requires `--spill-dir`).
//!
//! `optimize` accepts `--passes <p1,p2,…|all>` (pass names as printed
//! by the pipeline: `slf`, `llf`, `dse`, `licm`, `constprop`, `modes`,
//! `fence`, `rmw`, `promote`; default is the paper's four, `all` is the
//! extended nine), `--rounds N`, `--validate` (discharge every stage's
//! translation-validation obligation — SEQ refinement for the paper's
//! passes, the PS^na differential check with synthesized prober
//! contexts for the atomics/promotion families), `--ctx <file>`
//! (declare a context thread for the PS^na obligations; repeatable;
//! implies `--validate`), `--cache-dir <dir>` + `--cache-capacity N`
//! (fingerprint-keyed validation memo cache; implies `--validate`),
//! and batch mode `--batch N --seed S [--json]`, which generates a
//! deterministic corpus and reports throughput (programs/sec) plus the
//! cache hit/miss split. A refuted or inconclusive obligation exits 11
//! (`SeqwmError::Validate`): the optimized output must not be used.
//!
//! `fuzz` runs a differential campaign over the optimizer (see the
//! `seqwm-fuzz` crate): `--cases N`, `--seed S`, `--workers N`,
//! `--target <pipeline|slf|llf|dse|licm|constprop|modes|fence|rmw|promote>`
//! (repeatable),
//! `--inject-bug <name>` (planted-bug targets, for exercising the
//! fuzzer), `--corpus <dir>`, `--resume`, `--checkpoint-every N`,
//! `--max-failures N`, `--max-stmts N`, `--ctx-percent P`,
//! `--shrink-evals N`, `--deadline-ms N`, `--max-memory-mb N`,
//! `--seq-fuel N` (global SEQ-checker state budget; 0 = unbounded),
//! `--json`. With the `fault-injection` feature, `--fault-panic-per-mille`,
//! `--fault-permanent-per-mille` and `--fault-seed` drive a deterministic
//! [`FaultPlan`](promising_seq::explore::FaultPlan) through the engine to
//! exercise the fuzzer's own crash resilience. A campaign that finds an
//! oracle violation exits 8; quarantined resource incidents never change
//! the exit code.
//!
//! `bench` runs the `seqwm-bench` suite (exploration, scaling
//! families, refinement, optimizer, fuzz slice) and writes a
//! schema-versioned `BENCH_<name>.json` report: `--quick`,
//! `--filter <substr>`, `--iters N`, `--warmup N`, `--max-workers N`,
//! `--name <name>`, `--out <dir>`, `--json` (print the report to
//! stdout), `--list` (print bench ids without running),
//! `--compare <baseline.json>` (regression gate; exits 9 when a bench
//! slows beyond `--threshold <pct>` *and* `--min-delta-us <µs>`), and
//! `--current <report.json>` (compare a previously written report
//! instead of re-running the suite).
//!
//! `serve` starts the `seqwm-serve` daemon (newline-delimited
//! JSON-RPC 2.0 over TCP): `--host H`, `--port P` (0 = ephemeral; the
//! bound address is printed to stdout), `--workers N` (≥ 1),
//! `--queue-depth N`, `--state-dir <dir>` (job journal, checkpoints,
//! result cache, fuzz corpora; default `.seqwm-serve`),
//! `--cache-capacity N`, `--checkpoint-every-ms N`, plus the
//! hostile-client knobs `--max-conns N` (connection cap; excess
//! connections are rejected at the door with `-32007`),
//! `--max-frame-bytes N` (request-line size cap, `-32005`),
//! `--read-timeout-ms N` (per-frame deadline evicting slow-loris
//! clients with `-32006`) and `--drain-timeout-ms N` (grace period
//! for running jobs under `server.shutdown {"drain": true}`).
//! `--probe <host:port>` (with `--timeout-ms N` and
//! `--probe-attempts N`) instead connects to a running daemon, issues
//! `server.stats`, and exits 0 iff a round trip succeeds within the
//! attempt budget — failed attempts back off exponentially with
//! deterministic jitter, making the probe a robust CI liveness check.
//!
//! Failures exit with a per-class code (see
//! [`promising_seq::SeqwmError::exit_code`]): 2 usage, 3 parse,
//! 4 I/O, 5 engine configuration, 6 corpus, 7 refinement, 8 fuzz
//! violation found, 9 bench regression, 10 serve (bind or probe
//! failure), 11 validation refuted an optimizer rewrite. Engine
//! warnings (corrupt resume file, visited-set downgrade, …) are
//! printed to stderr but never change the exit code: a degraded run
//! that completes is still a successful run.

use std::fs;
use std::process::ExitCode;
use std::time::Duration;

use promising_seq::bench::report::{compare, BenchReport, CompareConfig};
use promising_seq::bench::suite::{list_suite, run_suite, SuiteConfig};
use promising_seq::explore::{CheckpointSpec, ExploreConfig, SpillSpec, Strategy, VisitedMode};
use promising_seq::fuzz::{
    run_batch, run_campaign, BatchConfig, CheckVerdict, Corpus, FuzzConfig, FuzzTarget,
};
use promising_seq::json::Json;
use promising_seq::lang::parser::parse_program;
use promising_seq::lang::Program;
use promising_seq::litmus::concurrent::concurrent_corpus;
use promising_seq::litmus::transform::transform_corpus;
use promising_seq::models::{plan_explore, ModelChoice, ModelKind, ModelOpts};
use promising_seq::opt::pipeline::{PassKind, Pipeline, PipelineConfig};
use promising_seq::opt::validate::{optimize_validated, optimize_validated_with, ValidationConfig};
use promising_seq::opt::ValidationCache;
use promising_seq::promising::drf::drf_check;
use promising_seq::promising::sc::{explore_sc, ScConfig};
use promising_seq::promising::search::{engine_config, explore_engine, try_explore_engine};
use promising_seq::promising::PsConfig;
use promising_seq::seq::advanced::refines_advanced;
use promising_seq::seq::refine::{refines_simple, RefineConfig};
use promising_seq::serve::{ServeConfig, Server};
use promising_seq::SeqwmError;

fn load(path: &str) -> Result<Program, SeqwmError> {
    let src = fs::read_to_string(path).map_err(|e| SeqwmError::Io {
        path: path.to_owned(),
        message: e.to_string(),
    })?;
    parse_program(&src).map_err(|e| SeqwmError::Parse {
        path: path.to_owned(),
        message: e.to_string(),
    })
}

fn load_all(paths: &[String]) -> Result<Vec<Program>, SeqwmError> {
    if paths.is_empty() {
        return Err(SeqwmError::Usage(
            "expected at least one program file".to_owned(),
        ));
    }
    paths.iter().map(|p| load(p)).collect()
}

fn usage_err(msg: impl Into<String>) -> SeqwmError {
    SeqwmError::Usage(msg.into())
}

/// Engine knobs accepted by `seqwm explore`.
#[derive(Default)]
struct EngineOpts {
    model: Option<String>,
    workers: Option<usize>,
    strategy: Option<Strategy>,
    no_reduction: bool,
    exact: bool,
    max_states: Option<usize>,
    stats: bool,
    checkpoint: Option<String>,
    checkpoint_every_ms: Option<u64>,
    resume: Option<String>,
    deadline_ms: Option<u64>,
    max_memory_mb: Option<usize>,
    spill_dir: Option<String>,
    spill_budget_mb: Option<usize>,
}

impl EngineOpts {
    fn apply(&self, mut ecfg: ExploreConfig) -> ExploreConfig {
        if let Some(w) = self.workers {
            ecfg.workers = w.max(1);
        }
        if let Some(s) = &self.strategy {
            ecfg.strategy = s.clone();
        }
        if self.no_reduction {
            ecfg.reduction = false;
        }
        if self.exact {
            ecfg.visited = VisitedMode::Exact;
        }
        if let Some(n) = self.max_states {
            ecfg.max_states = n;
        }
        if let Some(ms) = self.deadline_ms {
            ecfg.deadline = Some(Duration::from_millis(ms));
        }
        if let Some(mb) = self.max_memory_mb {
            ecfg.max_memory = Some(mb.saturating_mul(1 << 20));
        }
        if let Some(path) = &self.checkpoint {
            let mut spec = CheckpointSpec::new(path);
            if let Some(ms) = self.checkpoint_every_ms {
                spec = spec.every(Duration::from_millis(ms));
            }
            ecfg.checkpoint = Some(spec);
        }
        if let Some(path) = &self.resume {
            ecfg.resume = Some(path.into());
        }
        if let Some(dir) = &self.spill_dir {
            let mut spec = SpillSpec::new(dir);
            if let Some(mb) = self.spill_budget_mb {
                spec = spec.budget_bytes(mb.saturating_mul(1 << 20));
            }
            ecfg.spill = Some(spec);
        }
        ecfg
    }

    /// Whether the user asked for durability explicitly — if so,
    /// misconfigurations are hard errors rather than warnings.
    fn durable(&self) -> bool {
        self.checkpoint.is_some() || self.resume.is_some() || self.spill_dir.is_some()
    }
}

fn parse_engine_flags(args: &[String]) -> Result<(EngineOpts, Vec<String>), SeqwmError> {
    fn value<'a>(
        it: &mut std::slice::Iter<'a, String>,
        flag: &str,
        what: &str,
    ) -> Result<&'a String, SeqwmError> {
        it.next()
            .ok_or_else(|| usage_err(format!("{flag} needs {what}")))
    }
    fn number<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, SeqwmError> {
        v.parse()
            .map_err(|_| usage_err(format!("bad {what} `{v}`")))
    }
    let mut opts = EngineOpts::default();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => {
                let v = value(&mut it, a, "a model name")?;
                opts.model = Some(v.clone());
            }
            "--workers" => {
                let v = value(&mut it, a, "a number")?;
                opts.workers = Some(number(v, "worker count")?);
            }
            "--strategy" => {
                let v = value(&mut it, a, "a name")?;
                opts.strategy = Some(match v.as_str() {
                    "dfs" => Strategy::Dfs,
                    "bfs" => Strategy::Bfs,
                    "iddfs" => Strategy::IterativeDeepening {
                        initial: 8,
                        step: 8,
                    },
                    "random" => Strategy::RandomWalk {
                        walks: 4096,
                        seed: 0xC0FFEE,
                    },
                    other => return Err(usage_err(format!("unknown strategy `{other}`"))),
                });
            }
            "--max-states" => {
                let v = value(&mut it, a, "a number")?;
                opts.max_states = Some(number(v, "state bound")?);
            }
            "--checkpoint" => {
                let v = value(&mut it, a, "a file path")?;
                opts.checkpoint = Some(v.clone());
            }
            "--checkpoint-every-ms" => {
                let v = value(&mut it, a, "a period in ms")?;
                opts.checkpoint_every_ms = Some(number(v, "checkpoint period")?);
            }
            "--resume" => {
                let v = value(&mut it, a, "a file path")?;
                opts.resume = Some(v.clone());
            }
            "--deadline-ms" => {
                let v = value(&mut it, a, "a duration in ms")?;
                opts.deadline_ms = Some(number(v, "deadline")?);
            }
            "--max-memory-mb" => {
                let v = value(&mut it, a, "a size in MiB")?;
                opts.max_memory_mb = Some(number(v, "memory budget")?);
            }
            "--spill-dir" => {
                let v = value(&mut it, a, "a directory path")?;
                opts.spill_dir = Some(v.clone());
            }
            "--spill-budget-mb" => {
                let v = value(&mut it, a, "a size in MiB")?;
                opts.spill_budget_mb = Some(number(v, "spill budget")?);
            }
            "--no-reduction" => opts.no_reduction = true,
            "--exact" => opts.exact = true,
            "--stats" => opts.stats = true,
            other if other.starts_with("--") => {
                return Err(usage_err(format!("unknown flag `{other}`")));
            }
            _ => files.push(a.clone()),
        }
    }
    if opts.spill_budget_mb.is_some() && opts.spill_dir.is_none() {
        return Err(usage_err("--spill-budget-mb requires --spill-dir"));
    }
    Ok((opts, files))
}

/// `seqwm explore --model <name>`: route through the DRF-gated planner
/// (`seqwm-models`) instead of the raw PS^na engine path. Durability
/// and strategy knobs belong to the raw path only.
fn explore_with_model(opts: &EngineOpts, progs: &[Program]) -> Result<(), SeqwmError> {
    let Some(name) = &opts.model else {
        return Err(usage_err("--model missing"));
    };
    if opts.durable() {
        return Err(usage_err(
            "--model is incompatible with --checkpoint/--resume/--spill-dir",
        ));
    }
    if opts.strategy.is_some() || opts.exact {
        return Err(usage_err("--model is incompatible with --strategy/--exact"));
    }
    let choice = ModelChoice::parse(name).ok_or_else(|| {
        let known: Vec<&str> = ModelKind::all().iter().map(|k| k.name()).collect();
        usage_err(format!(
            "unknown model `{name}` (expected auto or one of: {})",
            known.join(", ")
        ))
    })?;
    let mut mopts = ModelOpts::default();
    if let Some(w) = opts.workers {
        mopts.workers = w.max(1);
    }
    if let Some(n) = opts.max_states {
        mopts.ps.max_states = n;
        mopts.sc.max_states = n;
    }
    if opts.no_reduction {
        mopts.reduction = Some(false);
    }
    if let Some(ms) = opts.deadline_ms {
        eprintln!("seqwm: warning: --deadline-ms {ms} is ignored under --model");
    }
    if let Some(mb) = opts.max_memory_mb {
        eprintln!("seqwm: warning: --max-memory-mb {mb} is ignored under --model");
    }
    let r = plan_explore(progs, choice, &mopts);
    println!("model: requested {} → chosen {}", r.requested, r.chosen);
    for c in &r.checks {
        println!("  {c}");
    }
    println!(
        "{}: {} states ({} incl. checker scans{}){}{}",
        r.chosen,
        r.exploration.states,
        r.total_states(),
        if r.reused_scan { ", scan reused" } else { "" },
        if r.exploration.racy { ", racy" } else { "" },
        if r.complete() { "" } else { ", TRUNCATED" },
    );
    for b in &r.exploration.behaviors {
        println!("  {b}");
    }
    Ok(())
}

fn usage() -> SeqwmError {
    usage_err(
        "usage: seqwm <parse|optimize|validate|refine|explore|sc|drf|litmus|fuzz|bench|serve> [args…]\n\
         run `seqwm litmus` with no arguments to list corpus cases",
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("seqwm: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run() -> Result<(), SeqwmError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().ok_or_else(usage)?;
    match cmd.as_str() {
        "parse" => {
            let [path] = rest else {
                return Err(usage_err("usage: seqwm parse <file>"));
            };
            print!("{}", load(path)?);
            Ok(())
        }
        "optimize" => run_optimize(rest),
        "validate" => {
            let [path] = rest else {
                return Err(usage_err("usage: seqwm validate <file>"));
            };
            let p = load(path)?;
            let v = optimize_validated(&p, PipelineConfig::default(), &RefineConfig::default())
                .map_err(|e| SeqwmError::Refine(e.to_string()))?;
            print!("{}", v.result.program);
            for stage in &v.validations {
                eprintln!("// {:?} validated via {:?}", stage.pass, stage.by);
            }
            Ok(())
        }
        "refine" => {
            let [src_path, tgt_path] = rest else {
                return Err(usage_err("usage: seqwm refine <src-file> <tgt-file>"));
            };
            let src = load(src_path)?;
            let tgt = load(tgt_path)?;
            let cfg = RefineConfig::default();
            let simple =
                refines_simple(&src, &tgt, &cfg).map_err(|e| SeqwmError::Refine(e.to_string()))?;
            println!(
                "simple   (Def. 2.4): {}  [{} configs, {} positions]",
                if simple.holds { "HOLDS" } else { "fails" },
                simple.configs,
                simple.positions
            );
            if let Some(ce) = &simple.counterexample {
                println!("  counterexample: {ce}");
            }
            let adv = refines_advanced(&src, &tgt, &cfg)
                .map_err(|e| SeqwmError::Refine(e.to_string()))?;
            println!(
                "advanced (Def. 3.3): {}  [{} configs]",
                if adv.holds { "HOLDS" } else { "fails" },
                adv.configs
            );
            if let Some(fc) = &adv.failed_config {
                println!("  failed at {fc}");
            }
            Ok(())
        }
        "explore" => {
            let (opts, files) = parse_engine_flags(rest)?;
            let progs = load_all(&files)?;
            if opts.model.is_some() {
                return explore_with_model(&opts, &progs);
            }
            let refs: Vec<&Program> = progs.iter().collect();
            let cfg = PsConfig::with_promises(&refs);
            let ecfg = opts.apply(engine_config(&cfg));
            // With explicit durability flags, misconfigurations (an
            // iddfs/random strategy, an empty path) are hard errors;
            // otherwise the infallible entry point is fine.
            let e = if opts.durable() {
                try_explore_engine(&progs, &cfg, &ecfg)?
            } else {
                explore_engine(&progs, &cfg, &ecfg)
            };
            for w in &e.stats.warnings {
                eprintln!("seqwm: warning: {w}");
            }
            for i in &e.stats.incidents {
                eprintln!("seqwm: incident: {i}");
            }
            let result = e.to_exploration();
            println!(
                "PS^na: {} states{}{}",
                result.states,
                if result.racy { ", racy" } else { "" },
                if result.truncated { ", TRUNCATED" } else { "" }
            );
            for b in &result.behaviors {
                println!("  {b}");
            }
            if opts.stats {
                println!("{}", e.stats);
            }
            Ok(())
        }
        "sc" => {
            let progs = load_all(rest)?;
            let result = explore_sc(&progs, &ScConfig::default());
            println!("SC: {} states", result.states);
            for b in &result.behaviors {
                println!("  {b}");
            }
            Ok(())
        }
        "drf" => {
            let progs = load_all(rest)?;
            let report = drf_check(&progs, true);
            println!("racy:          {}", report.racy);
            if report.truncated {
                println!("truncated:     true (equalities may be inconclusive)");
            }
            println!("PS^na vs RA:   {}", report.ps_vs_ra);
            println!("RA vs SC:      {}", report.ra_vs_sc);
            println!("PS^na behaviors:");
            for b in &report.ps_behaviors {
                println!("  {b}");
            }
            Ok(())
        }
        "litmus" => match rest {
            [] => {
                println!("transformation cases:");
                for c in transform_corpus() {
                    println!("  {:36} {} ({:?})", c.name, c.paper_ref, c.expectation);
                }
                println!("concurrent cases:");
                for c in concurrent_corpus() {
                    println!("  {:36} {}", c.name, c.paper_ref);
                }
                Ok(())
            }
            [flag] if flag == "--all" => {
                let cfg = RefineConfig::default();
                let mut failures = 0;
                for c in transform_corpus() {
                    match c.check(&cfg) {
                        Ok(()) => println!("✓ {}", c.name),
                        Err(e) => {
                            failures += 1;
                            println!("✗ {e}");
                        }
                    }
                }
                for c in concurrent_corpus() {
                    match c.check() {
                        Ok(()) => println!("✓ {}", c.name),
                        Err(e) => {
                            failures += 1;
                            println!("✗ {e}");
                        }
                    }
                }
                if failures == 0 {
                    Ok(())
                } else {
                    Err(SeqwmError::Corpus { failures })
                }
            }
            [name] => {
                if let Some(c) = transform_corpus().into_iter().find(|c| c.name == *name) {
                    c.check(&RefineConfig::default())
                        .map(|()| println!("✓ {} matches the paper", c.name))
                        .map_err(|e| SeqwmError::Refine(e.to_string()))
                } else if let Some(c) = concurrent_corpus().into_iter().find(|c| c.name == *name) {
                    c.check()
                        .map(|()| println!("✓ {} matches the paper", c.name))
                        .map_err(|e| SeqwmError::Refine(e.to_string()))
                } else {
                    Err(usage_err(format!("unknown litmus case `{name}`")))
                }
            }
            _ => Err(usage_err("usage: seqwm litmus [name|--all]")),
        },
        "fuzz" => run_fuzz(rest),
        "bench" => run_bench(rest),
        "serve" => run_serve(rest),
        _ => Err(usage()),
    }
}

/// The `seqwm optimize` subcommand: single-file or batch-corpus
/// optimization, optionally validated with a shared memo cache.
fn run_optimize(args: &[String]) -> Result<(), SeqwmError> {
    fn value<'a>(
        it: &mut std::slice::Iter<'a, String>,
        flag: &str,
        what: &str,
    ) -> Result<&'a String, SeqwmError> {
        it.next()
            .ok_or_else(|| usage_err(format!("{flag} needs {what}")))
    }
    fn number<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, SeqwmError> {
        v.parse()
            .map_err(|_| usage_err(format!("bad {what} `{v}`")))
    }
    let mut passes: Option<Vec<PassKind>> = None;
    let mut rounds = 1usize;
    let mut validate = false;
    let mut cache_dir: Option<String> = None;
    let mut cache_capacity = 4096usize;
    let mut ctx_files: Vec<String> = Vec::new();
    let mut batch: Option<usize> = None;
    let mut seed = 0xBA7C_4022u64;
    let mut json = false;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--passes" => {
                let v = value(&mut it, a, "a comma-separated pass list")?;
                let list = if v == "all" {
                    PassKind::extended()
                } else {
                    v.split(',')
                        .map(|name| {
                            PassKind::parse(name.trim())
                                .ok_or_else(|| usage_err(format!("unknown pass `{name}`")))
                        })
                        .collect::<Result<Vec<_>, _>>()?
                };
                if list.is_empty() {
                    return Err(usage_err("--passes needs at least one pass"));
                }
                passes = Some(list);
            }
            "--rounds" => rounds = number(value(&mut it, a, "a round count")?, "round count")?,
            "--validate" => validate = true,
            "--cache-dir" => cache_dir = Some(value(&mut it, a, "a directory")?.clone()),
            "--cache-capacity" => {
                cache_capacity = number(value(&mut it, a, "an entry count")?, "cache capacity")?
            }
            "--ctx" => ctx_files.push(value(&mut it, a, "a context program file")?.clone()),
            "--batch" => batch = Some(number(value(&mut it, a, "a program count")?, "batch size")?),
            "--seed" => seed = number(value(&mut it, a, "a number")?, "seed")?,
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                return Err(usage_err(format!("unknown flag `{flag}`")))
            }
            path => files.push(path.to_owned()),
        }
    }
    // Declared contexts and a memo cache only make sense when the
    // rewrites are actually being validated.
    validate = validate || !ctx_files.is_empty() || cache_dir.is_some();
    let pipeline = PipelineConfig {
        passes: passes.unwrap_or_else(|| PassKind::all().to_vec()),
        rounds: rounds.max(1),
    };
    let vcfg = ValidationConfig {
        contexts: load_all_optional(&ctx_files)?,
        ..ValidationConfig::default()
    };
    let cache = match &cache_dir {
        Some(dir) => {
            Some(
                ValidationCache::open(dir, cache_capacity).map_err(|e| SeqwmError::Io {
                    path: dir.clone(),
                    message: e.to_string(),
                })?,
            )
        }
        None => None,
    };

    if let Some(programs) = batch {
        if !files.is_empty() {
            return Err(usage_err(
                "--batch generates its corpus; drop the file operand",
            ));
        }
        let cfg = BatchConfig {
            programs,
            seed,
            pipeline,
            validate: vcfg,
            cache_dir: cache_dir.map(Into::into),
            cache_capacity,
            ..BatchConfig::default()
        };
        drop(cache); // run_batch opens its own handle on the same dir
        let sum = run_batch(&cfg).map_err(|e| SeqwmError::Io {
            path: cfg
                .cache_dir
                .as_ref()
                .map(|d| d.display().to_string())
                .unwrap_or_default(),
            message: e.to_string(),
        })?;
        if json {
            println!("{}", sum.to_json());
        } else {
            println!(
                "optimize: {} program(s), {} optimized, {} rewrite(s), \
                 {} stage(s) validated ({} cached), {:.1} programs/sec",
                sum.programs,
                sum.optimized,
                sum.rewrites,
                sum.stages_validated,
                sum.stages_cached,
                sum.programs_per_sec()
            );
            if let Some(c) = &sum.cache {
                println!(
                    "cache: {} entries, {} hit(s), {} miss(es), {} evicted, {} quarantined",
                    c.entries, c.hits, c.misses, c.evictions, c.quarantined
                );
            }
            for f in sum.failures.iter().take(8) {
                eprintln!("  ✗ case {} pass {}: {}", f.index, f.pass, f.detail);
            }
        }
        return if sum.failures.is_empty() {
            Ok(())
        } else {
            Err(SeqwmError::Validate {
                failures: sum.failures.len(),
                detail: sum.failures[0].detail.clone(),
            })
        };
    }

    let [path] = &files[..] else {
        return Err(usage_err(
            "usage: seqwm optimize [--passes p1,p2|all] [--rounds N] [--validate] \
             [--cache-dir D] [--cache-capacity N] [--ctx <file>]… \
             (<file> | --batch N [--seed S] [--json])",
        ));
    };
    let p = load(path)?;
    if validate {
        let v = optimize_validated_with(&p, pipeline, &vcfg, cache.as_ref()).map_err(|e| {
            SeqwmError::Validate {
                failures: 1,
                detail: e.to_string(),
            }
        })?;
        print!("{}", v.result.program);
        for stage in &v.validations {
            eprintln!(
                "// {} validated via {:?}{}",
                stage.pass,
                stage.by,
                if stage.cached { " (cached)" } else { "" }
            );
        }
    } else {
        let out = Pipeline::new(pipeline).optimize(&p);
        print!("{}", out.program);
        for s in &out.stats {
            eprintln!("// {s}");
        }
    }
    Ok(())
}

/// Like [`load_all`] but an empty list is fine (no declared contexts).
fn load_all_optional(paths: &[String]) -> Result<Vec<Program>, SeqwmError> {
    paths.iter().map(|p| load(p)).collect()
}

/// The `seqwm fuzz` subcommand: campaign driver or failure replay.
fn run_fuzz(args: &[String]) -> Result<(), SeqwmError> {
    fn value<'a>(
        it: &mut std::slice::Iter<'a, String>,
        flag: &str,
        what: &str,
    ) -> Result<&'a String, SeqwmError> {
        it.next()
            .ok_or_else(|| usage_err(format!("{flag} needs {what}")))
    }
    fn number<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, SeqwmError> {
        v.parse()
            .map_err(|_| usage_err(format!("bad {what} `{v}`")))
    }

    let mut cfg = FuzzConfig::default();
    let mut targets: Vec<FuzzTarget> = Vec::new();
    let mut json = false;
    let mut replay_path: Option<String> = None;
    #[cfg(feature = "fault-injection")]
    let mut fault_per_mille: Option<u16> = None;
    #[cfg(feature = "fault-injection")]
    let mut fault_permanent_per_mille: Option<u16> = None;
    #[cfg(feature = "fault-injection")]
    let mut fault_seed: u64 = 0xFA_017;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cases" => cfg.cases = number(value(&mut it, a, "a number")?, "case count")?,
            "--seed" => cfg.seed = number(value(&mut it, a, "a number")?, "seed")?,
            "--workers" => {
                cfg.workers =
                    number::<usize>(value(&mut it, a, "a number")?, "worker count")?.max(1)
            }
            "--max-stmts" => {
                cfg.gen.max_stmts = number(value(&mut it, a, "a number")?, "statement bound")?
            }
            "--ctx-percent" => {
                cfg.ctx_percent = number(value(&mut it, a, "a percentage")?, "context chance")?
            }
            "--shrink-evals" => {
                cfg.shrink_evals = number(value(&mut it, a, "a number")?, "shrink budget")?
            }
            "--max-failures" => {
                cfg.max_failures = number(value(&mut it, a, "a number")?, "failure bound")?
            }
            "--checkpoint-every" => {
                cfg.checkpoint_every =
                    number(value(&mut it, a, "a case count")?, "checkpoint period")?
            }
            "--deadline-ms" => {
                let ms: u64 = number(value(&mut it, a, "a duration in ms")?, "deadline")?;
                cfg.budgets.deadline = Some(Duration::from_millis(ms));
            }
            "--max-memory-mb" => {
                let mb: usize = number(value(&mut it, a, "a size in MiB")?, "memory budget")?;
                cfg.budgets.max_memory = Some(mb.saturating_mul(1 << 20));
            }
            "--seq-fuel" => {
                let fuel: u64 = number(value(&mut it, a, "a state count")?, "SEQ fuel")?;
                cfg.budgets.refine.max_fuel = (fuel > 0).then_some(fuel);
            }
            "--corpus" => cfg.corpus_dir = value(&mut it, a, "a directory")?.into(),
            "--resume" => cfg.resume = true,
            "--target" | "--inject-bug" => {
                let v = value(&mut it, a, "a target name")?;
                let t = FuzzTarget::parse(v)
                    .ok_or_else(|| usage_err(format!("unknown fuzz target `{v}`")))?;
                if a == "--inject-bug" && !matches!(t, FuzzTarget::Buggy(_)) {
                    return Err(usage_err(format!("`{v}` is not a planted bug")));
                }
                targets.push(t);
            }
            "--replay" => replay_path = Some(value(&mut it, a, "a corpus file")?.clone()),
            "--json" => json = true,
            #[cfg(feature = "fault-injection")]
            "--fault-panic-per-mille" => {
                fault_per_mille = Some(number(value(&mut it, a, "a rate")?, "fault rate")?)
            }
            #[cfg(feature = "fault-injection")]
            "--fault-permanent-per-mille" => {
                fault_permanent_per_mille =
                    Some(number(value(&mut it, a, "a rate")?, "fault rate")?)
            }
            #[cfg(feature = "fault-injection")]
            "--fault-seed" => fault_seed = number(value(&mut it, a, "a number")?, "fault seed")?,
            other => return Err(usage_err(format!("unknown flag `{other}`"))),
        }
    }
    #[cfg(feature = "fault-injection")]
    if fault_per_mille.is_some() || fault_permanent_per_mille.is_some() {
        cfg.budgets.fault = Some(promising_seq::explore::FaultPlan {
            seed: fault_seed,
            panic_per_mille: fault_per_mille.unwrap_or(0),
            permanent_panic_per_mille: fault_permanent_per_mille.unwrap_or(0),
            ..promising_seq::explore::FaultPlan::default()
        });
    }

    if let Some(path) = replay_path {
        let record =
            Corpus::load(std::path::Path::new(&path)).map_err(|message| SeqwmError::Parse {
                path: path.clone(),
                message,
            })?;
        println!(
            "replaying {} (target {}, oracle {}, {} stmt(s))",
            path, record.target, record.oracle, record.shrunk_stmts
        );
        return match promising_seq::fuzz::replay(&record, &cfg.budgets) {
            CheckVerdict::Violation { oracle, detail } => {
                println!("REPRODUCED via {oracle}: {detail}");
                Err(SeqwmError::Fuzz { failures: 1 })
            }
            CheckVerdict::Passed { states } => {
                println!("did not reproduce ({states} states explored, all oracles passed)");
                Ok(())
            }
            CheckVerdict::Unoptimized => {
                println!("did not reproduce (target no longer rewrites this program)");
                Ok(())
            }
            CheckVerdict::Incident {
                oracle,
                cause,
                message,
            } => {
                println!("inconclusive: {oracle} incident ({cause}): {message}");
                Ok(())
            }
        };
    }

    if !targets.is_empty() {
        cfg.targets = targets;
    }
    let summary = run_campaign(&cfg).map_err(SeqwmError::Refine)?;
    if json {
        println!("{}", summary.to_json());
    } else {
        println!(
            "fuzz: {} case(s) run (seed {}, {} resumed), {} check(s) passed, {} unoptimized, \
             {} violation(s), {} incident(s) quarantined, {} engine states",
            summary.cases_run,
            summary.seed,
            summary.resumed_from,
            summary.checks_passed,
            summary.unoptimized,
            summary.violations,
            summary.incident_count,
            summary.states
        );
        for f in &summary.unique_failures {
            println!(
                "  ✗ {} via {}: {} → {} stmt(s), {}",
                f.target,
                f.oracle,
                f.original_stmts,
                f.shrunk_stmts,
                f.path.display()
            );
        }
        for i in summary.incidents.iter().take(8) {
            eprintln!(
                "  quarantined case {} ({}, {}): {} — {}",
                i.case_index, i.target, i.oracle, i.cause, i.message
            );
        }
        if summary.incident_count > 8 {
            eprintln!("  … and {} more incident(s)", summary.incident_count - 8);
        }
    }
    if summary.clean() {
        Ok(())
    } else {
        Err(SeqwmError::Fuzz {
            failures: summary.unique_failures.len().max(1),
        })
    }
}

/// The `seqwm bench` subcommand: run the suite, write the report,
/// optionally gate against a baseline.
fn run_bench(args: &[String]) -> Result<(), SeqwmError> {
    fn value<'a>(
        it: &mut std::slice::Iter<'a, String>,
        flag: &str,
        what: &str,
    ) -> Result<&'a String, SeqwmError> {
        it.next()
            .ok_or_else(|| usage_err(format!("{flag} needs {what}")))
    }
    fn number<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, SeqwmError> {
        v.parse()
            .map_err(|_| usage_err(format!("bad {what} `{v}`")))
    }
    fn read_report(path: &str) -> Result<BenchReport, SeqwmError> {
        let text = fs::read_to_string(path).map_err(|e| SeqwmError::Io {
            path: path.to_owned(),
            message: e.to_string(),
        })?;
        BenchReport::from_json(&text).map_err(|e| SeqwmError::Bench(format!("{path}: {e}")))
    }

    let mut cfg = SuiteConfig::default();
    let mut name = String::from("run");
    let mut out_dir = String::from(".");
    let mut json = false;
    let mut list = false;
    let mut baseline_path: Option<String> = None;
    let mut current_path: Option<String> = None;
    let mut cmp_cfg = CompareConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg.quick = true,
            "--filter" => cfg.filter = Some(value(&mut it, a, "a substring")?.clone()),
            "--iters" => {
                cfg.iters =
                    number::<usize>(value(&mut it, a, "a number")?, "iteration count")?.max(1)
            }
            "--warmup" => cfg.warmup = number(value(&mut it, a, "a number")?, "warmup count")?,
            "--max-workers" => {
                cfg.max_workers =
                    number::<usize>(value(&mut it, a, "a number")?, "worker count")?.max(1)
            }
            "--name" => name = value(&mut it, a, "a report name")?.clone(),
            "--out" => out_dir = value(&mut it, a, "a directory")?.clone(),
            "--json" => json = true,
            "--list" => list = true,
            "--compare" => baseline_path = Some(value(&mut it, a, "a baseline report")?.clone()),
            "--current" => current_path = Some(value(&mut it, a, "a report file")?.clone()),
            "--threshold" => {
                cmp_cfg.threshold_pct =
                    number(value(&mut it, a, "a percentage")?, "regression threshold")?
            }
            "--min-delta-us" => {
                let us: u64 = number(value(&mut it, a, "a duration in µs")?, "delta floor")?;
                cmp_cfg.min_delta_ns = us.saturating_mul(1_000);
            }
            other => return Err(usage_err(format!("unknown flag `{other}`"))),
        }
    }
    if current_path.is_some() && baseline_path.is_none() {
        return Err(usage_err("--current only makes sense with --compare"));
    }

    if list {
        for id in list_suite(&cfg) {
            println!("{id}");
        }
        return Ok(());
    }

    // Obtain the current report: re-read a prior run, or measure now.
    let current = match &current_path {
        Some(path) => read_report(path)?,
        None => {
            let report = run_suite(&cfg);
            let path = std::path::Path::new(&out_dir).join(format!("BENCH_{name}.json"));
            fs::create_dir_all(&out_dir).map_err(|e| SeqwmError::Io {
                path: out_dir.clone(),
                message: e.to_string(),
            })?;
            fs::write(&path, report.to_json()).map_err(|e| SeqwmError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            if json {
                println!("{}", report.to_json());
            } else {
                for r in &report.results {
                    println!(
                        "{:<40} median {:>10.3}ms  mad {:>8.3}ms  ({} iters{})",
                        r.id(),
                        r.timing.median_ns as f64 / 1e6,
                        r.timing.mad_ns as f64 / 1e6,
                        r.iters,
                        if r.timing.rejected > 0 {
                            format!(", {} outlier(s)", r.timing.rejected)
                        } else {
                            String::new()
                        }
                    );
                }
            }
            eprintln!("bench: report written to {}", path.display());
            report
        }
    };

    let Some(baseline_path) = baseline_path else {
        return Ok(());
    };
    let baseline = read_report(&baseline_path)?;
    let cmp = compare(&baseline, &current, &cmp_cfg);
    for w in &cmp.warnings {
        eprintln!("bench: warning: {w}");
    }
    for id in &cmp.missing {
        eprintln!("bench: warning: baseline bench {id} missing from current report");
    }
    for id in &cmp.added {
        eprintln!("bench: note: new bench {id} has no baseline");
    }
    for d in &cmp.improvements {
        println!("improved  {d}");
    }
    for d in &cmp.regressions {
        println!("REGRESSED {d}");
    }
    if cmp.passed() {
        println!(
            "bench: no regressions vs {baseline_path} (threshold {:.0}%, floor {}µs)",
            cmp_cfg.threshold_pct,
            cmp_cfg.min_delta_ns / 1_000
        );
        Ok(())
    } else {
        Err(SeqwmError::Bench(format!(
            "{} bench(es) regressed beyond {:.0}% vs {baseline_path}",
            cmp.regressions.len(),
            cmp_cfg.threshold_pct
        )))
    }
}

/// The `seqwm serve` subcommand: start the verification daemon, or
/// probe a running one.
fn run_serve(args: &[String]) -> Result<(), SeqwmError> {
    fn value<'a>(
        it: &mut std::slice::Iter<'a, String>,
        flag: &str,
        what: &str,
    ) -> Result<&'a String, SeqwmError> {
        it.next()
            .ok_or_else(|| usage_err(format!("{flag} needs {what}")))
    }
    fn number<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, SeqwmError> {
        v.parse()
            .map_err(|_| usage_err(format!("bad {what} `{v}`")))
    }

    let mut cfg = ServeConfig::default();
    let mut probe: Option<String> = None;
    let mut timeout_ms: u64 = 5_000;
    let mut probe_attempts: u32 = 3;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--host" => cfg.host = value(&mut it, a, "an interface")?.clone(),
            "--port" => {
                let v = value(&mut it, a, "a port number")?;
                cfg.port = number(v, "port")?;
            }
            "--workers" => {
                let v = value(&mut it, a, "a number")?;
                let w: usize = number(v, "worker count")?;
                if w == 0 {
                    return Err(usage_err(
                        "--workers must be at least 1 (a daemon with no workers would accept jobs and never run them)",
                    ));
                }
                cfg.workers = w;
            }
            "--queue-depth" => {
                let v = value(&mut it, a, "a number")?;
                cfg.queue_depth = number(v, "queue depth")?;
            }
            "--state-dir" => {
                cfg.state_dir = value(&mut it, a, "a directory")?.into();
            }
            "--cache-capacity" => {
                let v = value(&mut it, a, "a number")?;
                cfg.cache_capacity = number(v, "cache capacity")?;
            }
            "--checkpoint-every-ms" => {
                let v = value(&mut it, a, "a period in ms")?;
                cfg.checkpoint_every = Duration::from_millis(number(v, "checkpoint period")?);
            }
            "--max-conns" => {
                let v = value(&mut it, a, "a number")?;
                let n: usize = number(v, "connection cap")?;
                if n == 0 {
                    return Err(usage_err(
                        "--max-conns must be at least 1 (a daemon that accepts no connections serves no one)",
                    ));
                }
                cfg.max_conns = n;
            }
            "--max-frame-bytes" => {
                let v = value(&mut it, a, "a size in bytes")?;
                let n: usize = number(v, "frame size cap")?;
                if n < 256 {
                    return Err(usage_err(
                        "--max-frame-bytes must be at least 256 (smaller than any valid request line)",
                    ));
                }
                cfg.max_frame_bytes = n;
            }
            "--read-timeout-ms" => {
                let v = value(&mut it, a, "a duration in ms")?;
                let ms: u64 = number(v, "read timeout")?;
                if ms == 0 {
                    return Err(usage_err(
                        "--read-timeout-ms must be at least 1 (a zero deadline evicts every client instantly)",
                    ));
                }
                cfg.read_timeout = Duration::from_millis(ms);
            }
            "--drain-timeout-ms" => {
                let v = value(&mut it, a, "a duration in ms")?;
                cfg.drain_timeout = Duration::from_millis(number(v, "drain timeout")?);
            }
            "--probe" => probe = Some(value(&mut it, a, "host:port")?.clone()),
            "--timeout-ms" => {
                let v = value(&mut it, a, "a duration in ms")?;
                timeout_ms = number(v, "probe timeout")?;
            }
            "--probe-attempts" => {
                let v = value(&mut it, a, "a count")?;
                let n: u32 = number(v, "probe attempts")?;
                if n == 0 {
                    return Err(usage_err("--probe-attempts must be at least 1"));
                }
                probe_attempts = n;
            }
            other => return Err(usage_err(format!("unknown flag `{other}`"))),
        }
    }

    if let Some(addr) = probe {
        return probe_server(&addr, Duration::from_millis(timeout_ms), probe_attempts);
    }

    let server = Server::start(cfg).map_err(SeqwmError::Serve)?;
    // The address line is the startup contract: scripts (and the smoke
    // test) parse it to find an ephemeral port.
    println!("seqwm-serve listening on {}", server.addr());
    let recovered = server.recovered_jobs();
    if recovered > 0 {
        println!("seqwm-serve recovered {recovered} interrupted job(s)");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
    Ok(())
}

/// A `server.stats` round trip against a running daemon, retried up
/// to `attempts` times with exponential backoff plus deterministic
/// SplitMix64 jitter — a daemon still binding its socket should cost
/// a CI probe a few hundred milliseconds, not a failed pipeline.
fn probe_server(addr: &str, timeout: Duration, attempts: u32) -> Result<(), SeqwmError> {
    use promising_seq::explore::mix64;

    let mut last = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            // 50ms, 100ms, 200ms, … capped at ~3.2s, each stretched
            // by up to +50% jitter. The jitter is a pure function of
            // (address, attempt) so probe timing is reproducible.
            let base = 50u64 << (attempt - 1).min(6);
            let addr_fp = addr.bytes().fold(0u64, |h, b| mix64(h ^ u64::from(b)));
            let jitter = mix64(addr_fp ^ u64::from(attempt)) % (base / 2 + 1);
            std::thread::sleep(Duration::from_millis(base + jitter));
        }
        match probe_once(addr, timeout) {
            Ok(()) => return Ok(()),
            Err(SeqwmError::Serve(m)) => last = m,
            Err(e) => return Err(e),
        }
    }
    Err(SeqwmError::Serve(format!(
        "probe failed after {attempts} attempt(s): {last}"
    )))
}

/// One `server.stats` round trip against a running daemon.
fn probe_once(addr: &str, timeout: Duration) -> Result<(), SeqwmError> {
    use std::io::{BufRead, BufReader, Write as _};
    use std::net::{TcpStream, ToSocketAddrs};

    let serve = |m: String| SeqwmError::Serve(m);
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| serve(format!("cannot resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| serve(format!("cannot resolve {addr}")))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)
        .map_err(|e| serve(format!("cannot connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| serve(format!("cannot configure probe socket: {e}")))?;
    stream
        .write_all(b"{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"server.stats\"}\n")
        .and_then(|()| stream.flush())
        .map_err(|e| serve(format!("probe write to {addr} failed: {e}")))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| serve(format!("probe read from {addr} failed: {e}")))?;
    let doc =
        Json::parse(line.trim()).map_err(|e| serve(format!("probe reply unparseable: {e}")))?;
    let stats = doc
        .get("result")
        .ok_or_else(|| serve(format!("probe reply carries no result: {}", line.trim())))?;
    let uptime = stats
        .get("uptime_ms")
        .and_then(|u| u.as_u64("uptime_ms").ok())
        .ok_or_else(|| serve("probe reply carries no uptime".to_string()))?;
    let jobs = stats
        .get("jobs")
        .and_then(|j| j.get("total"))
        .and_then(|t| t.as_u64("total").ok())
        .unwrap_or(0);
    println!("seqwm-serve at {addr}: up {uptime}ms, {jobs} job(s) on record");
    Ok(())
}
