//! `serve-mixed`: a closed loop of clients against an in-process
//! verification daemon.
//!
//! Two client connections share one seeded request list; each sends its
//! next request only after the previous reply arrived. The mix:
//!
//! * `refine.check` on every `transform_corpus()` pair — cheap SEQ
//!   checks whose cost is mostly per-request overhead;
//! * `explore.run` with `model: auto` on small concurrent cases — the
//!   DRF-gated planner (some answered by `sc`/`pf`, some by `psna`);
//! * `optimize.run` with `validate` on generated programs — the pass
//!   pipeline plus validation obligations and the daemon's memo store.
//!
//! A seeded share of requests repeats an earlier one exactly, so the
//! result cache answers them. This is the only workload that pays JSON
//! framing, the job queue, journal and cache writes, and cache reads.
//! Every request carries explicit `fuel`/`max_states` budgets.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use seqwm_explore::counters::CounterSnapshot;
use seqwm_explore::{mix64, SplitMix64};
use seqwm_json::Json;
use seqwm_lang::parser::parse_program;
use seqwm_lang::Program;
use seqwm_litmus::gen::{random_program, GenConfig};
use seqwm_litmus::{find_concurrent, mp_chain, na_disjoint, transform_corpus, Expectation};
use seqwm_opt::{PassKind, Pipeline, PipelineConfig};
use seqwm_serve::proto::codes;
use seqwm_serve::{ServeConfig, Server};

use crate::common::{median, ms_since, shuffle, Scratch, SetupClock, SETUP_REPS};
use crate::report::{Outcome, Pass};
use crate::trace::Tracer;

/// Client connections in the closed loop (the host has 2 cores).
pub const CLIENTS: usize = 2;

/// Daemon job workers.
const SERVER_WORKERS: usize = 2;

/// Share of requests (percent of the fresh ones) that repeat an
/// earlier request exactly.
pub const REPEAT_PERCENT: usize = 25;

/// Generator stream of the `optimize.run` programs
/// (`GenConfig::default()`, program `i` from `mix64(OPT_STREAM ^ i)`).
pub const OPT_STREAM: u64 = 5;

/// `optimize.run` programs per second of `--seconds`.
pub const OPT_PER_SECOND: usize = 10;

/// Stream indices left out of the `optimize.run` programs.
///
/// The daemon validates with its default `ValidationConfig`, whose 2 s
/// wall-clock deadline bounds each PS^na engine exploration (SEQ
/// obligations have refine fuel only); a request can only replace it
/// with another deadline (`deadline_ms`), which the benchmark does not
/// send, as it sets no wall-clock budget of its own. So a
/// program is left out when one of its PS^na obligations takes more than
/// a tenth of that deadline without one: 138 (0.43 s), and 186, which is
/// inconclusive within the default 20 000-state PS^na budget. Over the
/// first 700 programs of the stream the slowest PS^na obligation left is
/// 0.13 s (program 656), and over the 100 a 10 s run sends, 29 ms
/// (program 92), on a 2-vCPU x86-64 host. 116, 158, 407 and 592 are left
/// out for their SEQ obligations (0.9–2.0 s each): whichever client drew
/// one last would idle while the other finished.
pub const OPT_SKIP: [u64; 6] = [116, 138, 158, 186, 407, 592];

/// `explore.run` cases with their known behavior counts. Corpus cases
/// are named as in `concurrent_corpus()`; `na-disjoint-N` and
/// `mp-chain-N` are the `litmus::scaling` families. The counts are the
/// PS^na engine's at each case's own configuration, or the SC
/// machine's for the race-free `na-disjoint-4` (checked by the crate's
/// tests).
pub const EXPLORE_CASES: [(&str, u64); 10] = [
    ("na-disjoint-2", 1),
    ("na-disjoint-3", 1),
    ("na-disjoint-4", 1),
    ("mp-chain-2", 2),
    ("mp-chain-3", 3),
    ("mp-rel-acq", 2),
    ("corr-coherence", 1),
    ("wr-race-undef", 3),
    ("lb-data-no-thin-air", 1),
    ("sb-rlx", 4),
];

/// Refinement fuel sent with every request.
const FUEL: u64 = 5_000_000;

/// State budget sent with every `explore.run` request.
const EXPLORE_MAX_STATES: u64 = 200_000;

/// State budget sent with every `optimize.run` request (the validator's
/// default PS^na bound).
const OPT_MAX_STATES: u64 = 20_000;

/// The thread programs of an [`EXPLORE_CASES`] entry.
///
/// # Errors
///
/// When the name is neither a corpus case nor a scaling family member.
pub fn explore_threads(name: &str) -> Result<Vec<Program>, String> {
    let scaled = |prefix: &str| {
        name.strip_prefix(prefix)
            .and_then(|n| n.parse::<usize>().ok())
    };
    if let Some(n) = scaled("na-disjoint-") {
        return Ok(na_disjoint(n).programs());
    }
    if let Some(n) = scaled("mp-chain-") {
        return Ok(mp_chain(n).programs());
    }
    find_concurrent(name)
        .map(|c| c.programs())
        .ok_or_else(|| format!("unknown explore case {name}"))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Refine,
    Explore,
    Optimize,
}

impl Kind {
    fn method(self) -> &'static str {
        match self {
            Kind::Refine => "refine.check",
            Kind::Explore => "explore.run",
            Kind::Optimize => "optimize.run",
        }
    }
}

#[derive(Clone, Debug)]
enum Expect {
    /// SEQ verdict and the notion that decided it.
    Refine { holds: bool, method: &'static str },
    /// Behavior count of a complete exploration.
    Explore { behaviors: u64 },
    /// Validated; the output is the pipeline's on `program`.
    Optimize { program: Program },
}

#[derive(Clone, Debug)]
struct Request {
    kind: Kind,
    label: String,
    /// The request line, `id` = position in the list.
    line: String,
    expect: Expect,
    /// Position of the request this one repeats.
    repeat_of: Option<usize>,
}

fn request_line(id: usize, kind: Kind, params: Vec<(&str, Json)>) -> String {
    Json::obj(vec![
        ("jsonrpc", Json::str("2.0")),
        ("id", Json::num(id as u64)),
        ("method", Json::str(kind.method())),
        ("params", Json::obj(params)),
    ])
    .to_string()
}

/// Builds the fresh requests (parsing every program text on the way),
/// shuffles them with the seed, and inserts the repeats, each after the
/// request it repeats.
fn build_requests(seed: u64, seconds: u64, tracer: &mut Tracer) -> Result<Vec<Request>, String> {
    // (kind, label, params, known answer) of every distinct request.
    type Fresh = (Kind, String, Vec<(&'static str, Json)>, Expect);
    let mut fresh: Vec<Fresh> = Vec::new();
    let text = |p: &Program| Json::str(p.to_string());
    for (i, case) in transform_corpus().into_iter().enumerate() {
        let src = tracer
            .span("lang.parse", i as u64, || parse_program(case.src))
            .map_err(|e| format!("{}: {e}", case.name))?;
        let tgt = tracer
            .span("lang.parse", i as u64, || parse_program(case.tgt))
            .map_err(|e| format!("{}: {e}", case.name))?;
        let (holds, method) = match case.expectation {
            Expectation::Simple => (true, "simple"),
            Expectation::AdvancedOnly => (true, "advanced"),
            Expectation::Unsound => (false, "advanced"),
        };
        fresh.push((
            Kind::Refine,
            case.name.to_string(),
            vec![
                ("src", text(&src)),
                ("tgt", text(&tgt)),
                ("fuel", Json::num(FUEL)),
                ("max_states", Json::num(EXPLORE_MAX_STATES)),
            ],
            Expect::Refine { holds, method },
        ));
    }
    for (name, behaviors) in EXPLORE_CASES {
        let threads = explore_threads(name)?;
        fresh.push((
            Kind::Explore,
            name.to_string(),
            vec![
                ("programs", Json::Arr(threads.iter().map(text).collect())),
                ("model", Json::str("auto")),
                ("fuel", Json::num(FUEL)),
                ("max_states", Json::num(EXPLORE_MAX_STATES)),
            ],
            Expect::Explore { behaviors },
        ));
    }
    let wanted = (seconds as usize * OPT_PER_SECOND).max(1);
    let gen = GenConfig::default();
    let mut i = 0u64;
    let mut taken = 0;
    while taken < wanted {
        if !OPT_SKIP.contains(&i) {
            let src = random_program(&mut SplitMix64::new(mix64(OPT_STREAM ^ i)), &gen).to_string();
            let program = tracer
                .span("lang.parse", i, || parse_program(&src))
                .map_err(|e| format!("generated program {i}: {e}"))?;
            fresh.push((
                Kind::Optimize,
                format!("g{i}"),
                vec![
                    ("program", text(&program)),
                    ("passes", Json::str("all")),
                    ("validate", Json::Bool(true)),
                    ("fuel", Json::num(FUEL)),
                    ("max_states", Json::num(OPT_MAX_STATES)),
                ],
                Expect::Optimize { program },
            ));
            taken += 1;
        }
        i += 1;
    }

    let mut rng = SplitMix64::new(seed);
    shuffle(&mut rng, &mut fresh);
    // Each repeat goes to a random later position than its original;
    // a client only sends it once the original's reply is in.
    let repeats = fresh.len() * REPEAT_PERCENT / 100;
    let mut slots: Vec<Vec<usize>> = vec![Vec::new(); fresh.len()];
    for _ in 0..repeats {
        let orig = rng.below(fresh.len());
        let after = orig + rng.below(fresh.len() - orig);
        slots[after].push(orig);
    }
    let mut out: Vec<Request> = Vec::with_capacity(fresh.len() + repeats);
    let mut position = vec![0usize; fresh.len()];
    for j in 0..fresh.len() {
        position[j] = out.len();
        for (repeat_of, orig) in
            std::iter::once((None, j)).chain(slots[j].iter().map(|&o| (Some(position[o]), o)))
        {
            let (kind, label, params, expect) = &fresh[orig];
            out.push(Request {
                kind: *kind,
                label: label.clone(),
                line: request_line(out.len(), *kind, params.clone()),
                expect: expect.clone(),
                repeat_of,
            });
        }
    }
    Ok(out)
}

/// One client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            reader,
            writer,
            buf: String::new(),
        })
    }

    /// Sends one request line and returns the reply carrying its id
    /// (notifications in between are skipped) and the reply's size.
    fn call(&mut self, line: &str, id: usize) -> Result<(Json, usize), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        loop {
            self.buf.clear();
            let n = self
                .reader
                .read_line(&mut self.buf)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection".to_string());
            }
            let doc = Json::parse(self.buf.trim_end()).map_err(|e| format!("reply: {e}"))?;
            if doc.get("id") == Some(&Json::num(id as u64)) {
                return Ok((doc, n));
            }
        }
    }
}

/// A running daemon with its client connections; shut down on drop.
struct Daemon {
    server: Option<Server>,
    clients: Vec<Client>,
    state_dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.wait();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

fn start_daemon(state_dir: PathBuf) -> Result<Daemon, String> {
    let server = Server::start(ServeConfig {
        port: 0,
        workers: SERVER_WORKERS,
        state_dir: state_dir.clone(),
        ..ServeConfig::default()
    })?;
    let addr = server.addr();
    let mut daemon = Daemon {
        server: Some(server),
        clients: Vec::new(),
        state_dir,
    };
    for _ in 0..CLIENTS {
        daemon.clients.push(Client::connect(addr)?);
    }
    Ok(daemon)
}

/// The warm-up request: `explore.run` with `model: auto` on
/// `mp-chain-4` (outside the mix; the planner answers it with `pf` in
/// about 0.5 s). A reply can stall about 40 ms (see README); a warm-up
/// this long keeps that from deciding `setup_s`.
fn warmup_line() -> String {
    let threads = mp_chain(4).programs();
    request_line(
        0,
        Kind::Explore,
        vec![
            (
                "programs",
                Json::Arr(threads.iter().map(|p| Json::str(p.to_string())).collect()),
            ),
            ("model", Json::str("auto")),
            ("fuel", Json::num(FUEL)),
            ("max_states", Json::num(EXPLORE_MAX_STATES)),
        ],
    )
}

/// Behaviors of the warm-up exploration.
const WARMUP_BEHAVIORS: u64 = 4;

struct Setup {
    requests: Vec<Request>,
    daemon: Daemon,
    tracer: Tracer,
}

fn setup(seed: u64, seconds: u64, state_dir: PathBuf, trace: bool) -> Result<Setup, String> {
    let mut tracer = Tracer::new(Instant::now(), 0, trace);
    let requests = build_requests(seed, seconds, &mut tracer)?;
    let mut daemon = start_daemon(state_dir)?;
    let (reply, _) = daemon.clients[0].call(&warmup_line(), 0)?;
    if u64_field(inner_of(&reply), "behaviors") != Some(WARMUP_BEHAVIORS) {
        return Err(format!("warm-up request failed: {reply}"));
    }
    Ok(Setup {
        requests,
        daemon,
        tracer,
    })
}

/// One answered request.
#[derive(Clone, Debug)]
struct Reply {
    ms: f64,
    bytes: usize,
    doc: Json,
}

/// Sends every request through the clients in closed loops sharing one
/// cursor. Returns the replies (by request position) and the wall time.
fn drive(
    requests: &[Request],
    clients: &mut [Client],
    trace: Option<Instant>,
) -> (Vec<Result<Reply, String>>, f64, Tracer) {
    let cursor = AtomicUsize::new(0);
    let done = (Mutex::new(vec![false; requests.len()]), Condvar::new());
    let replies: Mutex<Vec<Result<Reply, String>>> =
        Mutex::new(vec![Err("not sent".to_string()); requests.len()]);
    let origin = trace.unwrap_or_else(Instant::now);
    let mut all = Tracer::new(origin, 0, trace.is_some());
    let t0 = Instant::now();
    let tracers: Vec<Tracer> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (cursor, done, replies) = (&cursor, &done, &replies);
                s.spawn(move || {
                    let mut tracer = Tracer::new(origin, c as u32, trace.is_some());
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else { break };
                        if let Some(orig) = req.repeat_of {
                            let mut flags = done.0.lock().expect("no client panics holding it");
                            while !flags[orig] {
                                flags = done.1.wait(flags).expect("no client panics holding it");
                            }
                        }
                        let t = Instant::now();
                        tracer.begin(i as u64);
                        let r = client.call(&req.line, i);
                        let cached = matches!(&r, Ok((d, _)) if is_cached(d));
                        tracer.end(match (cached, req.kind) {
                            (true, _) => "serve.cached",
                            (false, Kind::Refine) => "serve.refine",
                            (false, Kind::Explore) => "serve.explore",
                            (false, Kind::Optimize) => "serve.optimize",
                        });
                        let reply = r.map(|(doc, n)| Reply {
                            ms: ms_since(t),
                            bytes: n + req.line.len() + 1,
                            doc,
                        });
                        replies.lock().expect("no client panics holding it")[i] = reply;
                        done.0.lock().expect("no client panics holding it")[i] = true;
                        done.1.notify_all();
                    }
                    tracer
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    for t in tracers {
        all.absorb(t);
    }
    (
        replies.into_inner().expect("clients have finished"),
        secs,
        all,
    )
}

fn result_of(doc: &Json) -> Option<&Json> {
    doc.get("result")
}

/// Whether the daemon answered from its result cache.
fn is_cached(doc: &Json) -> bool {
    result_of(doc).and_then(|r| r.get("cached")) == Some(&Json::Bool(true))
}

fn inner_of(doc: &Json) -> Option<&Json> {
    result_of(doc).and_then(|r| r.get("result"))
}

fn str_field<'a>(v: Option<&'a Json>, key: &str) -> Option<&'a str> {
    v.and_then(|x| x.get(key)).and_then(|x| x.as_str(key).ok())
}

fn u64_field(v: Option<&Json>, key: &str) -> Option<u64> {
    v.and_then(|x| x.get(key)).and_then(|x| x.as_u64(key).ok())
}

/// Scores the replies against the known answers.
fn score(
    requests: &[Request],
    replies: &[Result<Reply, String>],
    run_s: f64,
    mismatches: &mut Vec<String>,
) -> (Pass, usize) {
    let mut pass = Pass {
        run_s,
        attempted: requests.len() as u64,
        ..Pass::default()
    };
    let mut refused = 0;
    let pipeline = Pipeline::new(PipelineConfig {
        passes: PassKind::extended(),
        rounds: 1,
    });
    for (i, (req, reply)) in requests.iter().zip(replies).enumerate() {
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                pass.errors += 1;
                pass.stop("transport error");
                mismatches.push(format!("#{i} {}: {e}", req.label));
                continue;
            }
        };
        pass.latencies_ms.push(reply.ms);
        if let Some(err) = reply.doc.get("error") {
            let code = err.get("code").and_then(|c| match c {
                Json::Num(n) => Some(*n as i64),
                _ => None,
            });
            let message = str_field(Some(err), "message").unwrap_or("");
            let stop = match code {
                Some(codes::OVERLOADED | codes::TOO_MANY_CONNS | codes::DRAINING) => {
                    refused += 1;
                    "refused"
                }
                _ if message.contains("deadline") => "deadline",
                Some(codes::BUDGET_EXHAUSTED) => "budget",
                _ => "error",
            };
            pass.errors += 1;
            pass.stop(stop);
            mismatches.push(format!("#{i} {}: {stop}: {message}", req.label));
            continue;
        }
        let inner = inner_of(&reply.doc);
        let cached = is_cached(&reply.doc);
        let verdict = str_field(inner, "verdict");
        let (decided, wrong) = match &req.expect {
            Expect::Refine { holds, method } => {
                let want = if *holds { "holds" } else { "refuted" };
                let ok = verdict == Some(want) && str_field(inner, "method") == Some(method);
                (
                    verdict.is_some(),
                    (!ok).then(|| format!("expected {want} by {method}, got {inner:?}")),
                )
            }
            Expect::Explore { behaviors } => {
                let complete = str_field(inner, "stop") == Some("completed");
                let got = u64_field(inner, "behaviors");
                let ok = complete && got == Some(*behaviors);
                (
                    complete,
                    (!ok).then(|| format!("expected {behaviors} behaviors, got {inner:?}")),
                )
            }
            Expect::Optimize { program } => {
                let want = pipeline.optimize(program).program.to_string();
                let got = str_field(inner, "program").unwrap_or("");
                let reparsed = parse_program(got).map(|p| p.to_string());
                let ok =
                    verdict == Some("validated") && got == want && reparsed.as_deref() == Ok(got);
                (
                    verdict == Some("validated"),
                    (!ok).then(|| format!("expected a validated {want:?}, got {inner:?}")),
                )
            }
        };
        if let Some(orig) = req.repeat_of {
            let first = replies[orig].as_ref().ok().and_then(|r| inner_of(&r.doc));
            if !cached || first != inner {
                mismatches.push(format!(
                    "#{i} {}: repeat was not answered from the cache",
                    req.label
                ));
                pass.errors += 1;
                continue;
            }
        }
        pass.stop(if decided { "completed" } else { "undecided" });
        if decided {
            pass.decided += 1;
        }
        if let Some(w) = wrong {
            pass.errors += 1;
            mismatches.push(format!("#{i} {}: {w}", req.label));
        }
    }
    (pass, refused)
}

fn stats(daemon: &mut Daemon) -> Result<Json, String> {
    let line = r#"{"jsonrpc":"2.0","id":0,"method":"server.stats","params":{}}"#;
    let (doc, _) = daemon.clients[0].call(line, 0)?;
    result_of(&doc)
        .cloned()
        .ok_or_else(|| format!("server.stats failed: {doc}"))
}

fn cache_counts(stats: &Json) -> (u64, u64) {
    let cache = stats.get("cache");
    (
        u64_field(cache, "hits").unwrap_or(0),
        u64_field(cache, "misses").unwrap_or(0),
    )
}

/// Runs the workload.
///
/// # Errors
///
/// When set-up fails (daemon cannot start, warm-up refused).
pub fn run(seed: u64, seconds: u64, trace: bool, scratch: &mut Scratch) -> Result<Outcome, String> {
    let mut clock = SetupClock::default();
    let mut s = clock.time(|| setup(seed, seconds, scratch.fresh("serve"), trace))?;
    let mut out = Outcome::default();
    let (replies, run_s, _) = drive(&s.requests, &mut s.daemon.clients, None);
    let (pass, _) = score(&s.requests, &replies, run_s, &mut out.mismatches);
    out.pass = pass;

    // Warm replay: the whole list again; every reply is now a cache hit.
    let (warm, warm_s) = {
        let (warm, secs, _) = drive(&s.requests, &mut s.daemon.clients, None);
        (warm, secs)
    };
    out.warm_s = warm_s;
    for (i, (a, b)) in replies.iter().zip(&warm).enumerate() {
        let same = match (a, b) {
            (Ok(a), Ok(b)) => inner_of(&a.doc) == inner_of(&b.doc) && is_cached(&b.doc),
            _ => false,
        };
        if !same {
            out.mismatches
                .push(format!("#{i} {}: warm replay differs", s.requests[i].label));
        }
    }

    clock.extra(SETUP_REPS - 1, || {
        setup(seed, seconds, scratch.fresh("serve"), false)
    })?;
    out.setup_s = clock.secs;

    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (req, r) in s.requests.iter().zip(&replies) {
        if let Ok(r) = r {
            by_kind.entry(req.kind.method()).or_default().push(r.ms);
        }
    }
    out.rows = by_kind
        .iter()
        .map(|(m, ms)| {
            Json::obj(vec![
                ("name", Json::str(*m)),
                ("requests", Json::num(ms.len() as u64)),
                ("p50_ms", Json::Num(median(ms))),
                ("total_ms", Json::Num(ms.iter().sum())),
            ])
        })
        .collect();
    out.notes.push((
        "mix".to_string(),
        Json::obj(vec![
            ("clients", Json::num(CLIENTS as u64)),
            ("server_workers", Json::num(SERVER_WORKERS as u64)),
            ("requests", Json::num(s.requests.len() as u64)),
            (
                "repeats",
                Json::num(s.requests.iter().filter(|r| r.repeat_of.is_some()).count() as u64),
            ),
        ]),
    ));

    if trace {
        traced_run(seed, seconds, scratch, run_s, &mut out, &s.tracer)?;
    }
    Ok(out)
}

/// The traced pass, on a fresh daemon so the caches start cold again.
fn traced_run(
    seed: u64,
    seconds: u64,
    scratch: &mut Scratch,
    untraced_run_s: f64,
    out: &mut Outcome,
    setup_tracer: &Tracer,
) -> Result<(), String> {
    let mut s = setup(seed, seconds, scratch.fresh("serve-traced"), false)?;
    let before_stats = stats(&mut s.daemon)?;
    let before = CounterSnapshot::capture();
    let (replies, traced_s, tracer) =
        drive(&s.requests, &mut s.daemon.clients, Some(Instant::now()));
    let d = CounterSnapshot::capture().since(&before);
    let after_stats = stats(&mut s.daemon)?;
    let mut ignored = Vec::new();
    let (traced_pass, refused) = score(&s.requests, &replies, traced_s, &mut ignored);

    let (h0, m0) = cache_counts(&before_stats);
    let (h1, m1) = cache_counts(&after_stats);
    let (hits, misses) = (h1 - h0, m1 - m0);

    let mut models: BTreeMap<String, f64> = BTreeMap::new();
    let (mut checker_states, mut explores, mut gated) = (0.0, 0.0, 0.0);
    let (mut rewrites, mut seq_obl, mut psna_obl, mut memo_hits, mut memo_lookups) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut bytes = 0usize;
    for (req, r) in s.requests.iter().zip(&replies) {
        let Ok(r) = r else { continue };
        bytes += r.bytes;
        if is_cached(&r.doc) {
            continue;
        }
        let inner = inner_of(&r.doc);
        match req.kind {
            Kind::Explore => {
                explores += 1.0;
                checker_states += u64_field(inner, "checker_states").unwrap_or(0) as f64;
                if let Some(m) = str_field(inner, "model") {
                    *models.entry(m.to_string()).or_insert(0.0) += 1.0;
                    if m != "psna" {
                        gated += 1.0;
                    }
                }
            }
            Kind::Optimize => {
                rewrites += u64_field(inner, "rewrites").unwrap_or(0) as f64;
                let stages = inner
                    .and_then(|x| x.get("stages"))
                    .and_then(|x| x.as_arr("stages").ok());
                for st in stages.unwrap_or(&[]) {
                    let by = str_field(Some(st), "by").unwrap_or("");
                    if by == "unchanged" {
                        continue;
                    }
                    memo_lookups += 1.0;
                    if st.get("cached") == Some(&Json::Bool(true)) {
                        memo_hits += 1.0;
                    } else if by == "ps-na" {
                        psna_obl += 1.0;
                    } else {
                        seq_obl += 1.0;
                    }
                }
            }
            Kind::Refine => {}
        }
    }
    let p50 = |name: &str| median(&tracer.durations_ms(name));
    let by_layer = tracer.self_ms_by_layer();
    let parse_ms = setup_tracer.total_ms("lang.parse");
    let l = &mut out.layers;
    l.insert("core.refine_fuel", d.refine_fuel_spent as f64);
    l.insert("core.refine_enumerations", d.refine_enumerations as f64);
    l.insert("promising.states", d.states as f64);
    l.insert("promising.transitions", d.transitions as f64);
    l.insert("explore.dedup_hits", d.dedup_hits as f64);
    l.insert(
        "explore.dedup_hit_rate",
        d.dedup_hits as f64 / (d.dedup_hits + d.states).max(1) as f64,
    );
    l.insert("explore.sleep_skips", d.sleep_skips as f64);
    l.insert("explore.ample_commits", d.ample_commits as f64);
    l.insert(
        "explore.truncated",
        traced_pass.stops.get("undecided").copied().unwrap_or(0) as f64,
    );
    l.insert("opt.rewrites", rewrites);
    l.insert("opt.obligations_seq", seq_obl);
    l.insert("opt.obligations_psna", psna_obl);
    l.insert(
        "opt.memo_hit_share",
        memo_hits / f64::max(memo_lookups, 1.0),
    );
    l.insert("models.checker_states", checker_states);
    l.insert("models.gated_share", gated / f64::max(explores, 1.0));
    for m in ["sc", "scf", "ra", "pf", "psna"] {
        let name: &'static str = match m {
            "sc" => "models.chosen.sc",
            "scf" => "models.chosen.scf",
            "ra" => "models.chosen.ra",
            "pf" => "models.chosen.pf",
            _ => "models.chosen.psna",
        };
        l.insert(name, models.get(m).copied().unwrap_or(0.0));
    }
    l.insert("serve.refine_p50_ms", p50("serve.refine"));
    l.insert("serve.explore_p50_ms", p50("serve.explore"));
    l.insert("serve.optimize_p50_ms", p50("serve.optimize"));
    l.insert("serve.cached_p50_ms", p50("serve.cached"));
    l.insert(
        "serve.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    l.insert("serve.refused", refused as f64);
    l.insert(
        "serve.bytes_per_req",
        bytes as f64 / s.requests.len().max(1) as f64,
    );
    l.insert(
        "serve.self_ms",
        by_layer.get("serve").copied().unwrap_or(0.0),
    );
    l.insert("lang.parse_ms", parse_ms);
    l.insert("trace.run_s", traced_s);
    l.insert("trace.overhead_ms", (traced_s - untraced_run_s) * 1e3);
    l.insert(
        "trace.attributed_share",
        by_layer.values().sum::<f64>() / (traced_s * 1e3 * CLIENTS as f64),
    );
    l.insert("trace.spans", tracer.spans().len() as f64);
    out.spans = Some(tracer.to_json());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqwm_explore::ExploreConfig;
    use seqwm_models::{backend, ModelKind, ModelOpts};
    use seqwm_promising::search::{engine_config, explore_engine};
    use seqwm_promising::PsConfig;

    /// The recorded behavior counts are the PS^na engine's, at the
    /// corpus case's own configuration or, for the scaling families,
    /// the promise-free default. `na-disjoint-4` outgrows the engine's
    /// state budget (the reason the DRF-gated planner exists); its
    /// threads write disjoint locations, so it is race-free and its
    /// count is checked on the SC machine instead.
    #[test]
    fn explore_cases_match_the_engine() {
        for (name, want) in EXPLORE_CASES {
            let progs = explore_threads(name).expect("known case");
            let got = if name == "na-disjoint-4" {
                let e = backend(ModelKind::Sc).explore(&progs, &ModelOpts::default());
                assert!(!e.truncated, "{name}");
                e.behaviors.len()
            } else {
                let ps = find_concurrent(name).map_or_else(PsConfig::default, |c| c.config());
                let ecfg = ExploreConfig {
                    workers: 1,
                    ..engine_config(&ps)
                };
                let e = explore_engine(&progs, &ps, &ecfg);
                assert!(!e.stats.truncated, "{name}");
                e.behaviors.len()
            };
            assert_eq!(got as u64, want, "{name}");
        }
    }

    #[test]
    fn repeats_follow_their_originals() {
        let reqs = build_requests(9, 1, &mut Tracer::off()).expect("requests build");
        let fresh = reqs.iter().filter(|r| r.repeat_of.is_none()).count();
        assert_eq!(reqs.len() - fresh, fresh * REPEAT_PERCENT / 100);
        for (i, r) in reqs.iter().enumerate() {
            if let Some(o) = r.repeat_of {
                assert!(o < i && reqs[o].repeat_of.is_none());
                assert_eq!(reqs[o].label, r.label);
            }
        }
    }
}
