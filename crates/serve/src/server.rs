//! The daemon: a TCP listener speaking newline-delimited JSON-RPC,
//! a bounded FIFO job queue drained by worker threads, and the glue
//! between wire requests and the verification engines.
//!
//! Fault model: every job runs under `catch_unwind`, so a panicking
//! check becomes a structured `JOB_FAILED` error on that one job, not
//! a dead daemon (the engine additionally quarantines its *internal*
//! faults per the PR 2 fault model). Explore jobs run single-worker
//! with the engine's periodic checkpointing enabled; a killed daemon
//! restarted on the same state dir re-enqueues every journaled
//! non-terminal job, and an explore job whose checkpoint survived
//! resumes its frontier instead of starting over.
//!
//! Hostile-client model: the daemon defends itself at the socket
//! edge. Every connection carries a per-frame read deadline (a
//! slow-loris client that trickles bytes is evicted with
//! `SLOW_CLIENT` and disconnected), a frame-size ceiling
//! (`FRAME_TOO_LARGE`, then disconnect), and the accept loop enforces
//! a connection cap (`TOO_MANY_CONNS`, rejected before a handler
//! thread is spawned). Overload is shed at admission: a saturated
//! queue answers `OVERLOADED` with a `retry_after_ms` hint derived
//! from queue depth and recent job latency, and a draining daemon
//! (`server.shutdown {"drain": true}`) answers `DRAINING` while it
//! finishes running jobs and journals the queued remainder.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use seqwm_explore::counters::CounterSnapshot;
use seqwm_explore::{CheckpointSpec, ExploreWarning, SpillSpec};
use seqwm_fuzz::{run_campaign_with, CampaignEvent, FuzzConfig};
use seqwm_json::Json;
use seqwm_models::{plan_explore, ModelOpts, PlanReport};
use seqwm_opt::pipeline::{Pipeline as OptPipeline, PipelineConfig as OptPipelineConfig};
use seqwm_opt::{optimize_validated_with, ValidationCache, ValidationConfig};
use seqwm_promising::machine::ps_behaviors_refine;
use seqwm_promising::search::{engine_config, try_explore_engine};
use seqwm_promising::thread::PsConfig;
use seqwm_seq::{refines_advanced, refines_simple, RefineConfig, RefineError};

use crate::cache::ResultCache;
use crate::job::{
    cache_key, canceled_error, checkpoint_path, explore_programs, load_journal, model_choice,
    optimize_params, persist, refine_programs, JobBudgets, JobError, JobKind, JobRecord, JobState,
};
use crate::proto::{
    codes, error_response, notification, opt_bool, opt_u64, parse_request, req_str, response,
    Request, RpcError,
};
use crate::state::Quarantine;

/// How long blocked waits sleep between re-checking the stop flag.
const WAIT_TICK: Duration = Duration::from_millis(100);

/// How many recent job latencies feed the `retry_after_ms` estimate.
const LATENCY_WINDOW: usize = 32;

/// Assumed per-job latency before any job has completed.
const DEFAULT_JOB_MS: u64 = 100;

/// Daemon configuration (the `seqwm serve` CLI maps onto this).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind (0 = ephemeral, reported on stdout).
    pub port: u16,
    /// Job worker threads.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before submissions shed
    /// load with [`codes::OVERLOADED`] and a `retry_after_ms` hint.
    pub queue_depth: usize,
    /// State directory: job journal, engine checkpoints, result
    /// cache, fuzz corpora.
    pub state_dir: PathBuf,
    /// Result cache capacity (entries).
    pub cache_capacity: usize,
    /// Engine checkpoint cadence for explore jobs.
    pub checkpoint_every: Duration,
    /// Maximum simultaneously open client connections; excess
    /// connections are rejected with [`codes::TOO_MANY_CONNS`].
    pub max_conns: usize,
    /// Maximum inbound frame (request line) size in bytes; larger
    /// frames draw [`codes::FRAME_TOO_LARGE`] and a disconnect.
    pub max_frame_bytes: usize,
    /// Per-frame read deadline: a client that cannot deliver a
    /// complete newline-terminated frame within this window is
    /// evicted with [`codes::SLOW_CLIENT`]. Also used as the write
    /// timeout so a non-reading client cannot wedge a handler.
    pub read_timeout: Duration,
    /// How long a drain shutdown waits for running jobs before
    /// canceling the stragglers and stopping anyway.
    pub drain_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 2,
            queue_depth: 64,
            state_dir: PathBuf::from(".seqwm-serve"),
            cache_capacity: 1024,
            checkpoint_every: Duration::from_millis(200),
            max_conns: 64,
            max_frame_bytes: 1 << 20,
            read_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// The mutable job table behind one mutex.
struct JobTable {
    next_id: u64,
    records: BTreeMap<u64, JobRecord>,
    queue: VecDeque<u64>,
}

/// Everything shared between the accept loop, connection threads, and
/// job workers.
struct Core {
    cfg: ServeConfig,
    addr: SocketAddr,
    jobs_dir: PathBuf,
    fuzz_dir: PathBuf,
    jobs: Mutex<JobTable>,
    /// Signaled when the queue gains a job (workers wait here).
    queue_cv: Condvar,
    /// Signaled on any job state/event change (waiters and streamers).
    update_cv: Condvar,
    cache: ResultCache,
    stop: AtomicBool,
    /// Set by `server.shutdown {"drain": true}`: reject new
    /// submissions, finish running jobs, then stop.
    draining: AtomicBool,
    /// Currently open client connections (accept-loop bookkeeping).
    conns: AtomicUsize,
    /// Corrupt journal entries moved aside at startup.
    journal_quarantine: Quarantine,
    /// Wall-clock latencies of recently completed jobs, feeding the
    /// `retry_after_ms` overload hint.
    latencies: Mutex<VecDeque<u64>>,
    started: Instant,
    counters_base: CounterSnapshot,
    /// Lossy visited-set downgrades taken by explore jobs since start
    /// (spilling is lossless and does not count).
    degradations: AtomicU64,
    /// Jobs served per chosen model backend (model-routed refine and
    /// explore jobs only), surfaced in `server.stats`.
    model_counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Core {
    fn lock_jobs(&self) -> MutexGuard<'_, JobTable> {
        match self.jobs.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Flips the stop flag and wakes everything, including the accept
    /// loop (via a throwaway self-connection).
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let guard = self.lock_jobs();
        self.queue_cv.notify_all();
        self.update_cv.notify_all();
        drop(guard);
        let _ = TcpStream::connect(self.addr);
    }

    fn record_latency(&self, elapsed: Duration) {
        let mut lats = match self.latencies.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        lats.push_back(elapsed.as_millis() as u64);
        while lats.len() > LATENCY_WINDOW {
            lats.pop_front();
        }
    }

    /// Bumps the served-jobs counter for a chosen model backend.
    fn record_model(&self, name: &'static str) {
        let mut counts = match self.model_counts.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *counts.entry(name).or_insert(0) += 1;
    }

    /// How long a shed client should back off before resubmitting:
    /// the queue's expected service time under the recent average job
    /// latency, spread across the worker pool, clamped to a sane
    /// range.
    fn retry_after_ms(&self, queue_len: usize) -> u64 {
        let avg = {
            let lats = match self.latencies.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            if lats.is_empty() {
                DEFAULT_JOB_MS
            } else {
                lats.iter().sum::<u64>() / lats.len() as u64
            }
        };
        let workers = self.cfg.workers.max(1) as u64;
        ((queue_len as u64 + 1) * avg.max(1) / workers).clamp(10, 60_000)
    }
}

/// A running daemon.
pub struct Server {
    core: Arc<Core>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, recovers journaled jobs from the state dir, and spawns
    /// the accept loop plus worker threads.
    ///
    /// # Errors
    ///
    /// A human-readable message when the socket cannot be bound or the
    /// state directory cannot be created.
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        let jobs_dir = cfg.state_dir.join("jobs");
        let fuzz_dir = cfg.state_dir.join("fuzz");
        for d in [&jobs_dir, &fuzz_dir] {
            fs::create_dir_all(d)
                .map_err(|e| format!("cannot create state dir {}: {e}", d.display()))?;
        }
        let quarantine_dir = cfg.state_dir.join("quarantine");
        let cache = ResultCache::open(
            cfg.state_dir.join("cache"),
            cfg.cache_capacity,
            &quarantine_dir,
        )?;
        let journal_quarantine = Quarantine::new(&quarantine_dir);
        let bind_to = (cfg.host.as_str(), cfg.port)
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {}:{}: {e}", cfg.host, cfg.port))?
            .next()
            .ok_or_else(|| format!("cannot resolve {}:{}", cfg.host, cfg.port))?;
        let listener = TcpListener::bind(bind_to)
            .map_err(|e| format!("cannot bind {}:{}: {e}", cfg.host, cfg.port))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;

        // Restart recovery: every journaled non-terminal job goes back
        // on the queue (oldest first); terminal jobs stay queryable.
        let mut table = JobTable {
            next_id: 1,
            records: BTreeMap::new(),
            queue: VecDeque::new(),
        };
        for rec in load_journal(&jobs_dir, &journal_quarantine) {
            table.next_id = table.next_id.max(rec.id + 1);
            if rec.state == JobState::Queued {
                table.queue.push_back(rec.id);
                persist(&jobs_dir, &rec);
            }
            table.records.insert(rec.id, rec);
        }

        let workers = cfg.workers.max(1);
        let core = Arc::new(Core {
            cfg,
            addr,
            jobs_dir,
            fuzz_dir,
            jobs: Mutex::new(table),
            queue_cv: Condvar::new(),
            update_cv: Condvar::new(),
            cache,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            journal_quarantine,
            latencies: Mutex::new(VecDeque::new()),
            started: Instant::now(),
            counters_base: CounterSnapshot::capture(),
            degradations: AtomicU64::new(0),
            model_counts: Mutex::new(BTreeMap::new()),
        });

        let worker_handles = (0..workers)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("seqwm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&core))
                    .map_err(|e| format!("cannot spawn worker: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let accept_core = Arc::clone(&core);
        let accept = std::thread::Builder::new()
            .name("seqwm-serve-accept".to_string())
            .spawn(move || accept_loop(&accept_core, &listener))
            .map_err(|e| format!("cannot spawn accept loop: {e}"))?;

        Ok(Server {
            core,
            accept: Some(accept),
            workers: worker_handles,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.core.addr
    }

    /// Number of jobs recovered from the journal at startup.
    pub fn recovered_jobs(&self) -> usize {
        self.core
            .lock_jobs()
            .records
            .values()
            .filter(|r| r.recovered)
            .count()
    }

    /// Asks the daemon to stop (same path as the `server.shutdown`
    /// RPC).
    pub fn shutdown(&self) {
        self.core.begin_shutdown();
    }

    /// Blocks until the daemon has stopped and all threads joined.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Accept loop and connection handling
// ---------------------------------------------------------------------

/// Decrements the open-connection count when a handler exits, however
/// it exits.
struct ConnPermit<'a> {
    core: &'a Core,
}

impl Drop for ConnPermit<'_> {
    fn drop(&mut self) {
        self.core.conns.fetch_sub(1, Ordering::Relaxed);
    }
}

fn accept_loop(core: &Arc<Core>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if core.stopping() {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // Replies are single request-sized lines: send each at once
        // rather than holding it for the client's delayed ACK.
        let _ = stream.set_nodelay(true);
        // Connection cap: reject at the door, before spending a
        // thread. The rejected client gets a structured error line so
        // it can tell "server full" from "server dead".
        let open = core.conns.fetch_add(1, Ordering::Relaxed);
        if open >= core.cfg.max_conns {
            core.conns.fetch_sub(1, Ordering::Relaxed);
            let _ = stream.set_write_timeout(Some(core.cfg.read_timeout));
            let err = RpcError::new(
                codes::TOO_MANY_CONNS,
                format!("connection cap reached ({} open)", core.cfg.max_conns),
            );
            let _ = write_line(&mut stream, &error_response(&Json::Null, &err));
            continue;
        }
        let conn_core = Arc::clone(core);
        let spawned = std::thread::Builder::new()
            .name("seqwm-serve-conn".to_string())
            .spawn(move || {
                let permit = ConnPermit { core: &conn_core };
                handle_conn(&conn_core, stream);
                drop(permit);
            });
        if spawned.is_err() {
            core.conns.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Writes `line` and its newline in one `write_all`: a reply split over
/// two writes on a Nagle socket waits for the peer's delayed ACK.
fn write_line(stream: &mut TcpStream, line: &str) -> bool {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    stream
        .write_all(&frame)
        .and_then(|()| stream.flush())
        .is_ok()
}

/// One read-side outcome of [`FrameReader::next_frame`].
enum Frame {
    /// A complete newline-terminated request line.
    Line(String),
    /// Clean EOF or an unrecoverable socket error.
    Closed,
    /// The per-frame deadline expired before a full line arrived
    /// (slow-loris, or an idle client holding a slot).
    TimedOut,
    /// The frame exceeded the configured size cap.
    TooLarge,
}

/// Deadline- and size-bounded line framing over a raw socket.
///
/// `BufReader::lines` would block forever on a client that sends half
/// a frame and stalls; this reader re-arms the socket read timeout
/// with the *remaining* deadline budget on every chunk, so the clock
/// covers the whole frame, not each byte.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    max_frame: usize,
    deadline: Duration,
}

impl FrameReader {
    fn new(stream: TcpStream, max_frame: usize, deadline: Duration) -> FrameReader {
        FrameReader {
            stream,
            buf: Vec::new(),
            max_frame,
            deadline,
        }
    }

    fn next_frame(&mut self) -> Frame {
        let started = Instant::now();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return Frame::Line(String::from_utf8_lossy(&line[..pos]).into_owned());
            }
            if self.buf.len() > self.max_frame {
                return Frame::TooLarge;
            }
            let Some(remaining) = self.deadline.checked_sub(started.elapsed()) else {
                return Frame::TimedOut;
            };
            if self
                .stream
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                .is_err()
            {
                return Frame::Closed;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Frame::Closed,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Frame::TimedOut;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Frame::Closed,
            }
        }
    }
}

/// Consumes (briefly, boundedly) whatever the evicted client already
/// sent, so closing the socket sends a clean FIN instead of an RST
/// that would destroy the structured error still in flight to them.
fn drain_input(stream: &mut TcpStream) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let mut buf = [0u8; 4096];
    let mut total = 0usize;
    while total < (1 << 20) {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => total += n,
        }
    }
}

fn handle_conn(core: &Arc<Core>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    // A client that stops reading cannot wedge this handler forever:
    // writes share the read deadline.
    let _ = writer.set_write_timeout(Some(core.cfg.read_timeout));
    let mut reader = FrameReader::new(read_half, core.cfg.max_frame_bytes, core.cfg.read_timeout);
    loop {
        let line = match reader.next_frame() {
            Frame::Line(line) => line,
            Frame::Closed => break,
            Frame::TimedOut => {
                let err = RpcError::new(
                    codes::SLOW_CLIENT,
                    format!(
                        "no complete frame within {}ms; closing connection",
                        core.cfg.read_timeout.as_millis()
                    ),
                );
                let _ = write_line(&mut writer, &error_response(&Json::Null, &err));
                drain_input(&mut reader.stream);
                break;
            }
            Frame::TooLarge => {
                let err = RpcError::new(
                    codes::FRAME_TOO_LARGE,
                    format!(
                        "frame exceeds {} bytes; closing connection",
                        core.cfg.max_frame_bytes
                    ),
                );
                let _ = write_line(&mut writer, &error_response(&Json::Null, &err));
                drain_input(&mut reader.stream);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        if core.stopping() {
            break;
        }
        let req = match parse_request(&line) {
            Ok(r) => r,
            Err((id, e)) => {
                if !write_line(&mut writer, &error_response(&id, &e)) {
                    break;
                }
                continue;
            }
        };
        // A malformed `drain` param draws INVALID_PARAMS from dispatch
        // and must NOT stop the daemon.
        let shutdown = if req.method == "server.shutdown" {
            opt_bool(&req.params, "drain")
                .ok()
                .map(|d| d.unwrap_or(false))
        } else {
            None
        };
        let reply = match dispatch(core, &req, &mut writer) {
            Ok(result) => response(&req.id, result),
            Err(e) => error_response(&req.id, &e),
        };
        let wrote = write_line(&mut writer, &reply);
        match shutdown {
            Some(true) => {
                begin_drain(core);
                break;
            }
            Some(false) => {
                core.begin_shutdown();
                break;
            }
            None => {}
        }
        if !wrote {
            break;
        }
    }
}

fn dispatch(core: &Arc<Core>, req: &Request, writer: &mut TcpStream) -> Result<Json, RpcError> {
    match req.method.as_str() {
        "refine.check" => run_sync(core, JobKind::Refine, req.params.clone()),
        "explore.run" => run_sync(core, JobKind::Explore, req.params.clone()),
        "optimize.run" => run_sync(core, JobKind::Optimize, req.params.clone()),
        "fuzz.campaign" => {
            let (id, cached) = submit(core, JobKind::Fuzz, req.params.clone())?;
            Ok(Json::obj(vec![
                ("job", Json::num(id)),
                ("cached", Json::Bool(cached)),
            ]))
        }
        "job.submit" => {
            let kind = req_str(&req.params, "kind")?;
            let kind = JobKind::parse(&kind).ok_or_else(|| {
                RpcError::invalid_params(format!(
                    "kind: expected refine|explore|fuzz|optimize, got {kind:?}"
                ))
            })?;
            let (id, cached) = submit(core, kind, req.params.clone())?;
            Ok(Json::obj(vec![
                ("job", Json::num(id)),
                ("cached", Json::Bool(cached)),
            ]))
        }
        "job.status" => {
            let id = req_job(&req.params)?;
            let table = core.lock_jobs();
            let rec = table.records.get(&id).ok_or_else(|| unknown_job(id))?;
            Ok(rec.status_json())
        }
        "job.result" => {
            let id = req_job(&req.params)?;
            if opt_bool(&req.params, "wait")?.unwrap_or(true) {
                wait_terminal(core, id)?;
            }
            terminal_reply(core, id)
        }
        "job.cancel" => cancel_job(core, req_job(&req.params)?),
        "job.events" => {
            let id = req_job(&req.params)?;
            let from = opt_u64(&req.params, "from")?.unwrap_or(0) as usize;
            stream_events(core, id, from, writer)
        }
        "server.stats" => Ok(stats_json(core)),
        "server.shutdown" => {
            let drain = opt_bool(&req.params, "drain")?.unwrap_or(false);
            let (running, queued) = {
                let table = core.lock_jobs();
                let running = table
                    .records
                    .values()
                    .filter(|r| r.state == JobState::Running)
                    .count();
                (running, table.queue.len())
            };
            Ok(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("drain", Json::Bool(drain)),
                ("running", Json::num(running as u64)),
                ("queued", Json::num(queued as u64)),
            ]))
        }
        other => Err(RpcError::new(
            codes::METHOD_NOT_FOUND,
            format!("unknown method {other:?}"),
        )),
    }
}

/// Starts a graceful drain: new submissions are rejected with
/// [`codes::DRAINING`], running jobs get up to `drain_timeout` to
/// finish (then their cancel flags flip), queued jobs stay journaled
/// as queued so the next start recovers them, and the daemon stops
/// once the running set is empty.
fn begin_drain(core: &Arc<Core>) {
    if core.draining.swap(true, Ordering::Relaxed) {
        return; // Already draining.
    }
    {
        let _guard = core.lock_jobs();
        core.queue_cv.notify_all();
        core.update_cv.notify_all();
    }
    let core = Arc::clone(core);
    let _ = std::thread::Builder::new()
        .name("seqwm-serve-drain".to_string())
        .spawn(move || {
            let deadline = Instant::now() + core.cfg.drain_timeout;
            loop {
                let running: Vec<Arc<AtomicBool>> = {
                    let table = core.lock_jobs();
                    table
                        .records
                        .values()
                        .filter(|r| r.state == JobState::Running)
                        .map(|r| Arc::clone(&r.cancel))
                        .collect()
                };
                if running.is_empty() {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    // Patience exhausted: cancel the stragglers.
                    for flag in &running {
                        flag.store(true, Ordering::Relaxed);
                    }
                }
                if now >= deadline + Duration::from_secs(5) {
                    // A job that ignores its cancel flag must not pin
                    // the process open forever.
                    break;
                }
                std::thread::sleep(WAIT_TICK);
            }
            core.begin_shutdown();
        });
}

fn req_job(params: &Json) -> Result<u64, RpcError> {
    opt_u64(params, "job")?.ok_or_else(|| RpcError::invalid_params("job: required job id"))
}

fn unknown_job(id: u64) -> RpcError {
    RpcError::new(codes::UNKNOWN_JOB, format!("no such job: {id}"))
}

// ---------------------------------------------------------------------
// Submission, waiting, cancel
// ---------------------------------------------------------------------

/// A `job.event` lifecycle marker (`queued`, `running`, `done`,
/// `failed`, `canceled`), pushed for every job kind.
fn lifecycle_event(state: JobState) -> Json {
    Json::obj(vec![
        ("type", Json::str("lifecycle")),
        ("state", Json::str(state.as_str())),
    ])
}

/// Validates, consults the result cache, and either completes the job
/// instantly (hit) or enqueues it. Returns `(id, cached)`.
///
/// Admission control happens here: a draining daemon answers
/// [`codes::DRAINING`], and a saturated queue answers
/// [`codes::OVERLOADED`] with a `retry_after_ms` hint so well-behaved
/// clients back off instead of hammering.
fn submit(core: &Arc<Core>, kind: JobKind, params: Json) -> Result<(u64, bool), RpcError> {
    if core.draining() || core.stopping() {
        return Err(RpcError::new(
            codes::DRAINING,
            "server is draining; queued work is journaled for the next start",
        ));
    }
    let key = cache_key(kind, &params)?;
    let hit = key.as_deref().and_then(|k| core.cache.get(k));
    let mut table = core.lock_jobs();
    if hit.is_none() && table.queue.len() >= core.cfg.queue_depth {
        let depth = table.queue.len();
        drop(table);
        let retry = core.retry_after_ms(depth);
        return Err(RpcError::new(
            codes::OVERLOADED,
            format!("queue full ({depth} jobs waiting); retry in {retry}ms"),
        )
        .with_data(Json::obj(vec![
            ("retry_after_ms", Json::num(retry)),
            ("queue_depth", Json::num(depth as u64)),
            ("queue_capacity", Json::num(core.cfg.queue_depth as u64)),
        ])));
    }
    let id = table.next_id;
    table.next_id += 1;
    let mut rec = JobRecord::new(id, kind, params);
    rec.events.push(lifecycle_event(JobState::Queued));
    let cached = if let Some(result) = hit {
        rec.state = JobState::Done;
        rec.result = Some(result);
        rec.cached = true;
        rec.events.push(lifecycle_event(JobState::Done));
        true
    } else {
        false
    };
    persist(&core.jobs_dir, &rec);
    table.records.insert(id, rec);
    if cached {
        core.update_cv.notify_all();
    } else {
        table.queue.push_back(id);
        core.queue_cv.notify_all();
        core.update_cv.notify_all();
    }
    drop(table);
    Ok((id, cached))
}

/// Submits and blocks until the job is terminal, then replies as if
/// `job.result` had been called.
fn run_sync(core: &Arc<Core>, kind: JobKind, params: Json) -> Result<Json, RpcError> {
    let (id, _) = submit(core, kind, params)?;
    wait_terminal(core, id)?;
    terminal_reply(core, id)
}

fn wait_terminal(core: &Arc<Core>, id: u64) -> Result<(), RpcError> {
    let mut table = core.lock_jobs();
    loop {
        match table.records.get(&id) {
            None => return Err(unknown_job(id)),
            Some(r) if r.state.is_terminal() => return Ok(()),
            Some(_) => {}
        }
        if core.stopping() {
            return Err(RpcError::new(codes::JOB_FAILED, "server shutting down"));
        }
        table = match core.update_cv.wait_timeout(table, WAIT_TICK) {
            Ok((g, _)) => g,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
}

/// The final reply for a terminal job: its result on `Done`, its
/// structured error otherwise.
fn terminal_reply(core: &Arc<Core>, id: u64) -> Result<Json, RpcError> {
    let table = core.lock_jobs();
    let rec = table.records.get(&id).ok_or_else(|| unknown_job(id))?;
    match rec.state {
        JobState::Done => {
            let mut fields = vec![
                ("job".to_string(), Json::num(id)),
                ("cached".to_string(), Json::Bool(rec.cached)),
                ("recovered".to_string(), Json::Bool(rec.recovered)),
            ];
            fields.push((
                "result".to_string(),
                rec.result.clone().unwrap_or(Json::Null),
            ));
            Ok(Json::Obj(fields))
        }
        _ => {
            let e = rec.error.clone().unwrap_or_else(canceled_error);
            let mut err = RpcError::new(e.code, e.message);
            if let Some(d) = e.data {
                err = err.with_data(d);
            }
            Err(err)
        }
    }
}

fn cancel_job(core: &Arc<Core>, id: u64) -> Result<Json, RpcError> {
    let mut table = core.lock_jobs();
    let pos = table.queue.iter().position(|&q| q == id);
    let rec = table.records.get_mut(&id).ok_or_else(|| unknown_job(id))?;
    match rec.state {
        JobState::Queued => {
            rec.state = JobState::Canceled;
            rec.error = Some(canceled_error());
            rec.cancel.store(true, Ordering::Relaxed);
            rec.events.push(lifecycle_event(JobState::Canceled));
            let snapshot = rec.status_json();
            persist(&core.jobs_dir, rec);
            if let Some(i) = pos {
                table.queue.remove(i);
            }
            core.update_cv.notify_all();
            Ok(snapshot)
        }
        JobState::Running => {
            // Cooperative: the worker observes the flag (fuzz at the
            // next case boundary) and finalizes as canceled.
            rec.cancel.store(true, Ordering::Relaxed);
            Ok(rec.status_json())
        }
        _ => Ok(rec.status_json()),
    }
}

// ---------------------------------------------------------------------
// Event streaming
// ---------------------------------------------------------------------

/// Replays recorded events from `from`, then follows live ones, each
/// as a `job.event` notification; returns the final summary once the
/// job is terminal.
fn stream_events(
    core: &Arc<Core>,
    id: u64,
    from: usize,
    writer: &mut TcpStream,
) -> Result<Json, RpcError> {
    let mut next = from;
    let mut table = core.lock_jobs();
    loop {
        let (batch, state) = {
            let rec = table.records.get(&id).ok_or_else(|| unknown_job(id))?;
            let batch: Vec<Json> = rec.events.get(next..).unwrap_or(&[]).to_vec();
            (batch, rec.state)
        };
        if !batch.is_empty() {
            drop(table);
            for ev in batch {
                let line = notification(
                    "job.event",
                    Json::obj(vec![
                        ("job", Json::num(id)),
                        ("seq", Json::num(next as u64)),
                        ("event", ev),
                    ]),
                );
                if !write_line(writer, &line) {
                    return Err(RpcError::new(codes::JOB_FAILED, "client went away"));
                }
                next += 1;
            }
            table = core.lock_jobs();
            continue;
        }
        if state.is_terminal() || core.stopping() {
            drop(table);
            return Ok(Json::obj(vec![
                ("job", Json::num(id)),
                ("state", Json::str(state.as_str())),
                ("delivered", Json::num(next.saturating_sub(from) as u64)),
            ]));
        }
        table = match core.update_cv.wait_timeout(table, WAIT_TICK) {
            Ok((g, _)) => g,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

fn stats_json(core: &Arc<Core>) -> Json {
    let table = core.lock_jobs();
    let mut by_state = [0u64; 5];
    for r in table.records.values() {
        let i = match r.state {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::Canceled => 4,
        };
        by_state[i] += 1;
    }
    let queue_len = table.queue.len();
    let total = table.records.len();
    drop(table);
    let cache = core.cache.stats();
    let models: Vec<(String, Json)> = {
        let counts = match core.model_counts.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        counts
            .iter()
            .map(|(name, n)| ((*name).to_string(), Json::num(*n)))
            .collect()
    };
    let delta = CounterSnapshot::capture().since(&core.counters_base);
    let counters = delta
        .entries()
        .iter()
        .map(|(name, v)| ((*name).to_string(), Json::num(*v)))
        .collect();
    Json::obj(vec![
        ("addr", Json::str(core.addr.to_string())),
        (
            "uptime_ms",
            Json::num(core.started.elapsed().as_millis() as u64),
        ),
        ("workers", Json::num(core.cfg.workers as u64)),
        (
            "queue",
            Json::obj(vec![
                ("depth", Json::num(queue_len as u64)),
                ("capacity", Json::num(core.cfg.queue_depth as u64)),
            ]),
        ),
        (
            "jobs",
            Json::obj(vec![
                ("total", Json::num(total as u64)),
                ("queued", Json::num(by_state[0])),
                ("running", Json::num(by_state[1])),
                ("done", Json::num(by_state[2])),
                ("failed", Json::num(by_state[3])),
                ("canceled", Json::num(by_state[4])),
            ]),
        ),
        (
            "cache",
            Json::obj(vec![
                ("hits", Json::num(cache.hits)),
                ("misses", Json::num(cache.misses)),
                ("evictions", Json::num(cache.evictions)),
                ("entries", Json::num(cache.entries as u64)),
            ]),
        ),
        (
            "quarantine",
            Json::obj(vec![
                ("journal", Json::num(core.journal_quarantine.count())),
                ("cache", Json::num(cache.quarantined)),
            ]),
        ),
        (
            "connections",
            Json::obj(vec![
                ("open", Json::num(core.conns.load(Ordering::Relaxed) as u64)),
                ("max", Json::num(core.cfg.max_conns as u64)),
            ]),
        ),
        ("draining", Json::Bool(core.draining())),
        (
            "degradations",
            Json::num(core.degradations.load(Ordering::Relaxed)),
        ),
        ("models", Json::Obj(models)),
        ("counters", Json::Obj(counters)),
    ])
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(core: &Arc<Core>) {
    loop {
        let id = {
            let mut table = core.lock_jobs();
            loop {
                if core.stopping() {
                    return;
                }
                // A draining daemon finishes what is running but
                // leaves the queue journaled for the next start.
                if !core.draining() {
                    if let Some(id) = table.queue.pop_front() {
                        break id;
                    }
                }
                table = match core.queue_cv.wait_timeout(table, WAIT_TICK) {
                    Ok((g, _)) => g,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        execute(core, id);
    }
}

fn execute(core: &Arc<Core>, id: u64) {
    let Some((kind, params, cancel)) = ({
        let mut table = core.lock_jobs();
        let picked = table.records.get_mut(&id).map(|rec| {
            rec.state = JobState::Running;
            rec.events.push(lifecycle_event(JobState::Running));
            persist(&core.jobs_dir, rec);
            (rec.kind, rec.params.clone(), Arc::clone(&rec.cancel))
        });
        drop(table);
        if picked.is_some() {
            core.update_cv.notify_all();
        }
        picked
    }) else {
        return;
    };

    let job_started = Instant::now();
    let outcome = if cancel.load(Ordering::Relaxed) {
        Err(canceled_error())
    } else {
        match catch_unwind(AssertUnwindSafe(|| {
            run_job(core, id, kind, &params, &cancel)
        })) {
            Ok(r) => r,
            Err(payload) => Err(JobError {
                code: codes::JOB_FAILED,
                message: format!("job panicked: {}", panic_text(payload.as_ref())),
                data: None,
            }),
        }
    };

    // Definitive successes feed the result cache before finalizing.
    if let Ok(result) = &outcome {
        if cacheable(kind, result) {
            if let Ok(Some(key)) = cache_key(kind, &params) {
                core.cache.put(&key, result);
            }
        }
    }

    core.record_latency(job_started.elapsed());

    let mut table = core.lock_jobs();
    if let Some(rec) = table.records.get_mut(&id) {
        match outcome {
            _ if cancel.load(Ordering::Relaxed) => {
                rec.state = JobState::Canceled;
                rec.error = Some(canceled_error());
            }
            Ok(result) => {
                rec.state = JobState::Done;
                rec.result = Some(result);
            }
            Err(e) => {
                rec.state = JobState::Failed;
                rec.error = Some(e);
            }
        }
        rec.events.push(lifecycle_event(rec.state));
        persist(&core.jobs_dir, rec);
    }
    drop(table);
    // Terminal explore jobs never resume, so their spill shards (and
    // any quarantined segments) are dead weight on disk.
    if kind == JobKind::Explore {
        let _ = fs::remove_dir_all(spill_dir(core, id));
    }
    core.update_cv.notify_all();
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Done results safe to serve to a future identical submission: any
/// refine verdict (budget trips are `Failed`, never `Done`), and
/// explore runs that completed their whole frontier in one life
/// (truncated or resumed runs carry run-specific statistics).
fn cacheable(kind: JobKind, result: &Json) -> bool {
    match kind {
        JobKind::Refine => true,
        JobKind::Explore => {
            matches!(result.get("stop"), Some(Json::Str(s)) if s == "completed")
                && matches!(result.get("resumed"), Some(Json::Bool(false)))
        }
        JobKind::Fuzz => false,
        // A "validated" verdict is budget-independent (a bigger budget
        // cannot un-discharge an obligation); refuted/inconclusive
        // verdicts surface as job errors and are never stored.
        JobKind::Optimize => {
            matches!(result.get("verdict"), Some(Json::Str(s)) if s == "validated")
        }
    }
}

fn run_job(
    core: &Arc<Core>,
    id: u64,
    kind: JobKind,
    params: &Json,
    cancel: &Arc<AtomicBool>,
) -> Result<Json, JobError> {
    let budgets = JobBudgets::from_params(params).map_err(JobError::from_rpc)?;
    match kind {
        JobKind::Refine => run_refine(core, params, &budgets),
        JobKind::Explore => run_explore(core, id, params, &budgets),
        JobKind::Fuzz => run_fuzz(core, id, params, cancel),
        JobKind::Optimize => run_optimize(core, params, &budgets),
    }
}

// ---------------------------------------------------------------------
// Model-routed execution (the `model` param)
// ---------------------------------------------------------------------

/// Maps job budgets onto the model planner's bounds. Planner runs are
/// in-memory only: checkpoint/spill durability does not apply to them
/// (the checker scans are not resumable), and they run single-worker
/// like every other job.
fn model_opts(budgets: &JobBudgets) -> ModelOpts {
    let mut opts = ModelOpts::default();
    if let Some(s) = budgets.max_states {
        opts.ps.max_states = s as usize;
        opts.sc.max_states = s as usize;
    }
    opts
}

/// One LDRF checker verdict as a result-object entry.
fn check_json(c: &seqwm_models::LdrfOutcome) -> Json {
    let mut fields = vec![
        ("level".to_string(), Json::str(c.level.name())),
        ("verdict".to_string(), Json::str(c.verdict.to_string())),
        ("states".to_string(), Json::num(c.states as u64)),
    ];
    if let Some(w) = &c.witness {
        fields.push(("witness".to_string(), Json::str(w.clone())));
    }
    Json::Obj(fields)
}

/// The shared result fields of a planner run (explore jobs extend
/// these with `stop`/`resumed` so the cacheability rule applies).
fn plan_json(requested: seqwm_models::ModelChoice, report: &PlanReport) -> Vec<(String, Json)> {
    vec![
        ("model_requested".to_string(), Json::str(requested.name())),
        ("model".to_string(), Json::str(report.chosen.name())),
        (
            "checks".to_string(),
            Json::Arr(report.checks.iter().map(check_json).collect()),
        ),
        ("scan_reused".to_string(), Json::Bool(report.reused_scan)),
        (
            "states".to_string(),
            Json::num(report.exploration.states as u64),
        ),
        (
            "checker_states".to_string(),
            Json::num(report.checker_states as u64),
        ),
        (
            "total_states".to_string(),
            Json::num(report.total_states() as u64),
        ),
        (
            "behaviors".to_string(),
            Json::num(report.exploration.behaviors.len() as u64),
        ),
        ("truncated".to_string(), Json::Bool(!report.complete())),
    ]
}

// ---------------------------------------------------------------------
// Job execution: refine
// ---------------------------------------------------------------------

fn refine_error(e: &RefineError) -> JobError {
    match e {
        RefineError::Truncated { configs } => JobError {
            code: codes::BUDGET_EXHAUSTED,
            message: "simulation fuel exhausted".to_string(),
            data: Some(Json::obj(vec![
                ("budget", Json::str("fuel")),
                ("configs", Json::num(*configs as u64)),
            ])),
        },
        other => JobError {
            code: codes::JOB_FAILED,
            message: other.to_string(),
            data: None,
        },
    }
}

fn refine_result(
    verdict: &str,
    method: &str,
    configs: usize,
    positions: usize,
    counterexample: Option<String>,
) -> Json {
    let mut fields = vec![
        ("verdict".to_string(), Json::str(verdict)),
        ("method".to_string(), Json::str(method)),
        ("configs".to_string(), Json::num(configs as u64)),
        ("positions".to_string(), Json::num(positions as u64)),
    ];
    if let Some(c) = counterexample {
        fields.push(("counterexample".to_string(), Json::str(c)));
    }
    Json::Obj(fields)
}

fn run_refine(core: &Arc<Core>, params: &Json, budgets: &JobBudgets) -> Result<Json, JobError> {
    let (src, tgt) = refine_programs(params).map_err(JobError::from_rpc)?;
    let choice = model_choice(params).map_err(JobError::from_rpc)?;
    let mut cfg = RefineConfig {
        max_fuel: budgets.fuel,
        ..RefineConfig::default()
    };
    if let Some(ms) = opt_u64(params, "max_steps").map_err(JobError::from_rpc)? {
        cfg.max_steps = ms as usize;
    }
    let simple = refines_simple(&src, &tgt, &cfg).map_err(|e| refine_error(&e))?;
    let mut result = if simple.holds {
        refine_result("holds", "simple", simple.configs, simple.positions, None)
    } else {
        // The simple check over-refutes (it quantifies over too few
        // environments); escalate to the oracle-quantified advanced
        // check before trusting the counterexample.
        let adv = refines_advanced(&src, &tgt, &cfg).map_err(|e| refine_error(&e))?;
        if adv.holds {
            refine_result("holds", "advanced", adv.configs, simple.positions, None)
        } else {
            refine_result(
                "refuted",
                "advanced",
                adv.configs,
                simple.positions,
                simple.counterexample.map(|c| c.to_string()),
            )
        }
    };
    // Model-level behavioral cross-check: enumerate both programs
    // under the requested backend (or the DRF-gated ladder) and check
    // closed-program behavioral refinement tgt ⊑ src there. This is a
    // second, independent verdict — it neither overrides nor gates
    // the SEQ verdict above.
    if let Some(choice) = choice {
        let opts = model_opts(budgets);
        let src_rep = plan_explore(std::slice::from_ref(&src), choice, &opts);
        let tgt_rep = plan_explore(std::slice::from_ref(&tgt), choice, &opts);
        core.record_model(tgt_rep.chosen.name());
        let verdict = if !src_rep.complete() || !tgt_rep.complete() {
            "inconclusive"
        } else if ps_behaviors_refine(
            &tgt_rep.exploration.behaviors,
            &src_rep.exploration.behaviors,
        )
        .is_ok()
        {
            "holds"
        } else {
            "refuted"
        };
        if let Json::Obj(fields) = &mut result {
            fields.push(("model_requested".to_string(), Json::str(choice.name())));
            fields.push(("model".to_string(), Json::str(tgt_rep.chosen.name())));
            fields.push(("model_verdict".to_string(), Json::str(verdict)));
        }
    }
    Ok(result)
}

// ---------------------------------------------------------------------
// Job execution: optimize
// ---------------------------------------------------------------------

fn run_optimize(core: &Arc<Core>, params: &Json, budgets: &JobBudgets) -> Result<Json, JobError> {
    let p = optimize_params(params).map_err(JobError::from_rpc)?;
    let pipeline = OptPipelineConfig {
        passes: p.passes.clone(),
        rounds: p.rounds as usize,
    };
    if !p.validate {
        let out = OptPipeline::new(pipeline).optimize(&p.program);
        return Ok(Json::obj(vec![
            ("verdict", Json::str("optimized")),
            ("program", Json::str(out.program.to_string())),
            ("rewrites", Json::num(out.total_rewrites() as u64)),
        ]));
    }
    let mut vcfg = ValidationConfig {
        contexts: p.contexts.clone(),
        ..ValidationConfig::default()
    };
    if let Some(s) = budgets.max_states {
        vcfg.ps.max_states = s as usize;
    }
    if let Some(ms) = budgets.deadline_ms {
        vcfg.deadline = Some(Duration::from_millis(ms));
    }
    // The daemon-wide validation memo cache lives beside the result
    // cache. Each job opens its own handle; entries are
    // content-addressed, so a lost race between concurrent jobs costs
    // one redundant check, never a wrong verdict. An unusable dir just
    // means validating uncached.
    let memo = ValidationCache::open(core.cfg.state_dir.join("opt-memo"), 4096).ok();
    match optimize_validated_with(&p.program, pipeline, &vcfg, memo.as_ref()) {
        Ok(v) => {
            let stages: Vec<Json> = v
                .validations
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("pass", Json::str(s.pass.to_string())),
                        ("by", Json::str(s.by.name())),
                        ("cached", Json::Bool(s.cached)),
                    ])
                })
                .collect();
            Ok(Json::obj(vec![
                ("verdict", Json::str("validated")),
                ("program", Json::str(v.result.program.to_string())),
                ("rewrites", Json::num(v.result.total_rewrites() as u64)),
                ("cached_stages", Json::num(v.cached_stages() as u64)),
                ("stages", Json::Arr(stages)),
            ]))
        }
        Err(fail) => Err(JobError {
            code: codes::JOB_FAILED,
            message: format!(
                "pass {} failed {} validation: {}",
                fail.pass,
                fail.pass.obligation(),
                fail.detail
            ),
            data: Some(Json::obj(vec![
                ("pass", Json::str(fail.pass.to_string())),
                ("detail", Json::str(fail.detail.clone())),
            ])),
        }),
    }
}

// ---------------------------------------------------------------------
// Job execution: explore
// ---------------------------------------------------------------------

/// Per-job spill directory: survives a daemon crash (so a resumed job
/// re-adopts its shards) and is removed once the job is terminal.
fn spill_dir(core: &Core, id: u64) -> PathBuf {
    core.cfg.state_dir.join("spill").join(format!("job-{id}"))
}

fn run_explore(
    core: &Arc<Core>,
    id: u64,
    params: &Json,
    budgets: &JobBudgets,
) -> Result<Json, JobError> {
    let progs = explore_programs(params).map_err(JobError::from_rpc)?;
    // Model-routed explore: the DRF-gated planner (or a fixed backend)
    // replaces the durable engine path. Planner runs are bounded and
    // in-memory — no checkpoint, no spill, no resume — so the result
    // carries `stop`/`resumed` to keep the cacheability rule uniform.
    if let Some(choice) = model_choice(params).map_err(JobError::from_rpc)? {
        let report = plan_explore(&progs, choice, &model_opts(budgets));
        core.record_model(report.chosen.name());
        let mut fields = plan_json(choice, &report);
        fields.push((
            "stop".to_string(),
            Json::str(if report.complete() {
                "completed"
            } else {
                "truncated"
            }),
        ));
        fields.push(("resumed".to_string(), Json::Bool(false)));
        return Ok(Json::Obj(fields));
    }
    let promises = opt_bool(params, "promises")
        .map_err(JobError::from_rpc)?
        .unwrap_or(false);
    let reduction = opt_bool(params, "reduction")
        .map_err(JobError::from_rpc)?
        .unwrap_or(true);
    let ps = if promises {
        let refs: Vec<&seqwm_lang::Program> = progs.iter().collect();
        PsConfig::with_promises(&refs)
    } else {
        PsConfig::default()
    };
    let mut ecfg = engine_config(&ps);
    ecfg.reduction = reduction;
    // Checkpoint-backed durability wants the deterministic
    // single-worker frontier (the engine requires it for periodic
    // saves); per-job parallelism comes from the daemon's worker pool.
    ecfg.workers = 1;
    if let Some(ms) = budgets.deadline_ms {
        ecfg.deadline = Some(Duration::from_millis(ms));
    }
    if let Some(mb) = budgets.max_memory_mb {
        ecfg.max_memory = Some((mb as usize).saturating_mul(1024 * 1024));
    }
    if let Some(s) = budgets.max_states {
        ecfg.max_states = s as usize;
    }
    // Out-of-core: spill cold visited/frontier shards to disk before
    // the engine takes a lossy visited-set downgrade. The budget
    // defaults to the memory ceiling (or the engine's 64 MiB floor).
    let mut spec = SpillSpec::new(spill_dir(core, id));
    if let Some(mb) = budgets.spill_budget_mb {
        spec = spec.budget_bytes((mb as usize).saturating_mul(1024 * 1024));
    }
    ecfg.spill = Some(spec);
    let ckpt = checkpoint_path(&core.jobs_dir, id);
    ecfg.checkpoint = Some(CheckpointSpec::new(ckpt.clone()).every(core.cfg.checkpoint_every));
    let resumed_from_disk = ckpt.exists();
    if resumed_from_disk {
        ecfg.resume = Some(ckpt.clone());
    }
    let e = try_explore_engine(&progs, &ps, &ecfg).map_err(|err| JobError {
        code: codes::JOB_FAILED,
        message: err.to_string(),
        data: None,
    })?;
    // The frontier is spent; drop the checkpoint so a *future* restart
    // does not resurrect a finished job's state.
    let _ = fs::remove_file(&ckpt);
    let s = &e.stats;
    core.degradations
        .fetch_add(s.downgrades as u64, Ordering::Relaxed);
    // The last rung the visited set was forced down to, if any.
    let degraded_to = s.warnings.iter().rev().find_map(|w| match w {
        ExploreWarning::MemoryDowngrade { to, .. } => Some(*to),
        _ => None,
    });
    let mut fields = vec![
        ("states".to_string(), Json::num(s.states as u64)),
        ("transitions".to_string(), Json::num(s.transitions as u64)),
        ("behaviors".to_string(), Json::num(e.behaviors.len() as u64)),
        ("truncated".to_string(), Json::Bool(s.truncated)),
        ("stop".to_string(), Json::str(s.stop.to_string())),
        ("resumed".to_string(), Json::Bool(s.resumed)),
        (
            "checkpoint_saves".to_string(),
            Json::num(s.checkpoint_saves as u64),
        ),
        ("incidents".to_string(), Json::num(s.incident_count as u64)),
        (
            "elapsed_ms".to_string(),
            Json::num(s.elapsed.as_millis() as u64),
        ),
        ("downgrades".to_string(), Json::num(s.downgrades as u64)),
        ("warnings".to_string(), Json::num(s.warnings.len() as u64)),
        (
            "spill".to_string(),
            Json::obj(vec![
                ("shards", Json::num(s.spill_shards)),
                ("bytes", Json::num(s.spill_bytes)),
                ("probes", Json::num(s.spill_probes)),
                ("hits", Json::num(s.spill_hits)),
                ("quarantined", Json::num(s.spill_quarantined)),
            ]),
        ),
    ];
    if let Some(to) = degraded_to {
        fields.push(("degraded_to".to_string(), Json::str(to)));
    }
    Ok(Json::Obj(fields))
}

// ---------------------------------------------------------------------
// Job execution: fuzz
// ---------------------------------------------------------------------

fn event_json(ev: &CampaignEvent) -> Json {
    match ev {
        CampaignEvent::Progress {
            completed,
            cases,
            violations,
            incidents,
            states,
        } => Json::obj(vec![
            ("type", Json::str("progress")),
            ("completed", Json::num(*completed as u64)),
            ("cases", Json::num(*cases as u64)),
            ("violations", Json::num(*violations as u64)),
            ("incidents", Json::num(*incidents as u64)),
            ("states", Json::num(*states as u64)),
        ]),
        CampaignEvent::Failure(f) => Json::obj(vec![
            ("type", Json::str("failure")),
            ("fingerprint", Json::str(format!("{:016x}", f.fingerprint))),
            ("target", Json::str(f.target.to_string())),
            ("oracle", Json::str(f.oracle.to_string())),
            ("path", Json::str(f.path.display().to_string())),
            ("original_stmts", Json::num(f.original_stmts as u64)),
            ("shrunk_stmts", Json::num(f.shrunk_stmts as u64)),
        ]),
    }
}

fn run_fuzz(
    core: &Arc<Core>,
    id: u64,
    params: &Json,
    cancel: &Arc<AtomicBool>,
) -> Result<Json, JobError> {
    let get = |k: &str| opt_u64(params, k).map_err(JobError::from_rpc);
    let defaults = FuzzConfig::default();
    let cfg = FuzzConfig {
        cases: get("cases")?.map_or(defaults.cases, |v| v as usize),
        seed: get("seed")?.unwrap_or(defaults.seed),
        workers: get("workers")?.map_or(1, |v| (v as usize).max(1)),
        corpus_dir: core.fuzz_dir.join(format!("job-{id}")),
        max_failures: get("max_failures")?.map_or(defaults.max_failures, |v| v as usize),
        stop: Some(Arc::clone(cancel)),
        ..defaults
    };
    let sink = |ev: &CampaignEvent| {
        let doc = event_json(ev);
        let mut table = core.lock_jobs();
        if let Some(rec) = table.records.get_mut(&id) {
            rec.events.push(doc);
        }
        drop(table);
        core.update_cv.notify_all();
    };
    let summary = run_campaign_with(&cfg, &sink).map_err(|e| JobError {
        code: codes::JOB_FAILED,
        message: e,
        data: None,
    })?;
    Json::parse(&summary.to_json()).map_err(|e| JobError {
        code: codes::JOB_FAILED,
        message: format!("summary rendering failed: {e}"),
        data: None,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A tiny blocking client for the tests: one connection, one
    /// request per call, skipping any interleaved notifications.
    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        next_id: u64,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            Client {
                reader: BufReader::new(stream.try_clone().unwrap()),
                writer: stream,
                next_id: 1,
            }
        }

        fn send_raw(&mut self, line: &str) {
            self.writer.write_all(line.as_bytes()).unwrap();
            self.writer.write_all(b"\n").unwrap();
            self.writer.flush().unwrap();
        }

        fn read_doc(&mut self) -> Json {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            assert!(!line.is_empty(), "server closed the connection");
            Json::parse(line.trim()).unwrap()
        }

        /// Sends a request and returns its response, collecting any
        /// notifications that arrive first.
        fn call_collect(&mut self, method: &str, params: Json) -> (Json, Vec<Json>) {
            let id = self.next_id;
            self.next_id += 1;
            let req = Json::obj(vec![
                ("jsonrpc", Json::str("2.0")),
                ("id", Json::num(id)),
                ("method", Json::str(method)),
                ("params", params),
            ]);
            self.send_raw(&req.to_string());
            let mut notes = Vec::new();
            loop {
                let doc = self.read_doc();
                if doc.get("id").is_some() {
                    return (doc, notes);
                }
                notes.push(doc);
            }
        }

        fn call(&mut self, method: &str, params: Json) -> Json {
            self.call_collect(method, params).0
        }
    }

    fn result_of(doc: &Json) -> &Json {
        doc.get("result")
            .unwrap_or_else(|| panic!("expected result, got {doc}"))
    }

    fn error_code(doc: &Json) -> i64 {
        let e = doc
            .get("error")
            .unwrap_or_else(|| panic!("expected error, got {doc}"));
        match e.get("code").unwrap() {
            Json::Num(n) => *n as i64,
            other => panic!("non-numeric code {other}"),
        }
    }

    fn test_server(tag: &str) -> (Server, PathBuf) {
        test_server_with(tag, |_| {})
    }

    fn test_server_with(tag: &str, tweak: impl FnOnce(&mut ServeConfig)) -> (Server, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("seqwm-serve-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut cfg = ServeConfig {
            state_dir: dir.clone(),
            ..ServeConfig::default()
        };
        tweak(&mut cfg);
        let server = Server::start(cfg).unwrap();
        (server, dir)
    }

    fn stop(server: Server, dir: &PathBuf) {
        server.shutdown();
        server.wait();
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn refine_check_round_trip_and_cache_hit() {
        let (server, dir) = test_server("refine");
        let mut c = Client::connect(server.addr());
        let params = Json::obj(vec![
            ("src", Json::str("a := load[rlx](x); return a;")),
            ("tgt", Json::str("a := load[rlx](x); return a;")),
        ]);
        let doc = c.call("refine.check", params.clone());
        let r = result_of(&doc);
        assert_eq!(
            r.get("result").unwrap().get("verdict").unwrap(),
            &Json::str("holds")
        );
        assert!(
            matches!(r.get("result").unwrap().get("positions"), Some(Json::Num(n)) if *n > 0.0),
            "the simple check reports the product positions it solved: {r}"
        );
        assert_eq!(r.get("cached").unwrap(), &Json::Bool(false));

        // Identical resubmission must be a cache hit.
        let doc = c.call("refine.check", params);
        let r = result_of(&doc);
        assert_eq!(r.get("cached").unwrap(), &Json::Bool(true));

        let stats = c.call("server.stats", Json::obj(vec![]));
        let cache = result_of(&stats).get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap(), &Json::num(1));
        stop(server, &dir);
    }

    #[test]
    fn refuted_refinement_carries_a_counterexample() {
        let (server, dir) = test_server("refuted");
        let mut c = Client::connect(server.addr());
        let doc = c.call(
            "refine.check",
            Json::obj(vec![
                // Reordering a release store past a relaxed load is
                // observable: not a refinement.
                (
                    "src",
                    Json::str("store[rel](x, 1); a := load[rlx](y); return a;"),
                ),
                (
                    "tgt",
                    Json::str("a := load[rlx](y); store[rel](x, 1); return a;"),
                ),
            ]),
        );
        let r = result_of(&doc).get("result").unwrap();
        assert_eq!(r.get("verdict").unwrap(), &Json::str("refuted"));
        assert!(
            r.get("counterexample").is_some(),
            "refutation must explain itself"
        );
        stop(server, &dir);
    }

    #[test]
    fn fuel_starved_refine_is_a_structured_budget_error() {
        let (server, dir) = test_server("fuel");
        let mut c = Client::connect(server.addr());
        let doc = c.call(
            "refine.check",
            Json::obj(vec![
                (
                    "src",
                    Json::str("a := load[rlx](x); b := load[rlx](y); return a + b;"),
                ),
                (
                    "tgt",
                    Json::str("b := load[rlx](y); a := load[rlx](x); return a + b;"),
                ),
                ("fuel", Json::num(1)),
            ]),
        );
        assert_eq!(error_code(&doc), codes::BUDGET_EXHAUSTED);
        let data = doc.get("error").unwrap().get("data").unwrap();
        assert_eq!(data.get("budget").unwrap(), &Json::str("fuel"));
        stop(server, &dir);
    }

    #[test]
    fn invalid_programs_method_and_json_are_rejected() {
        let (server, dir) = test_server("reject");
        let mut c = Client::connect(server.addr());

        let doc = c.call(
            "refine.check",
            Json::obj(vec![
                ("src", Json::str("store[")),
                ("tgt", Json::str("return 0;")),
            ]),
        );
        assert_eq!(error_code(&doc), codes::INVALID_PARAMS);

        let doc = c.call("no.such.method", Json::obj(vec![]));
        assert_eq!(error_code(&doc), codes::METHOD_NOT_FOUND);

        c.send_raw("{this is not json");
        let doc = c.read_doc();
        assert_eq!(error_code(&doc), codes::PARSE_ERROR);

        c.send_raw(r#"{"id":5,"method":"server.stats"}"#);
        let doc = c.read_doc();
        assert_eq!(error_code(&doc), codes::INVALID_REQUEST);
        assert_eq!(doc.get("id").unwrap(), &Json::num(5));
        stop(server, &dir);
    }

    #[test]
    fn optimize_run_validates_caches_and_rejects_bad_passes() {
        let (server, dir) = test_server("optimize");
        let mut c = Client::connect(server.addr());
        let params = Json::obj(vec![
            (
                "program",
                Json::str(
                    "store[na](ov_x, 42); a := load[na](ov_x); \
                     fence[acq]; fence[acq]; return a;",
                ),
            ),
            ("passes", Json::str("all")),
        ]);
        let doc = c.call("optimize.run", params.clone());
        let outer = result_of(&doc);
        assert_eq!(outer.get("cached").unwrap(), &Json::Bool(false));
        let r = outer.get("result").unwrap();
        assert_eq!(r.get("verdict").unwrap(), &Json::str("validated"));
        let text = match r.get("program").unwrap() {
            Json::Str(s) => s.clone(),
            other => panic!("program: {other}"),
        };
        assert!(text.contains("a := 42;"), "{text}");
        assert!(!text.contains("fence"), "{text}");
        assert!(matches!(r.get("stages").unwrap(), Json::Arr(s) if s.len() == 9));

        // Identical resubmission is a result-cache hit.
        let doc = c.call("optimize.run", params);
        assert_eq!(result_of(&doc).get("cached").unwrap(), &Json::Bool(true));

        let doc = c.call(
            "optimize.run",
            Json::obj(vec![
                ("program", Json::str("return 0;")),
                ("passes", Json::str("nope")),
            ]),
        );
        assert_eq!(error_code(&doc), codes::INVALID_PARAMS);
        stop(server, &dir);
    }

    #[test]
    fn explore_run_reports_engine_stats() {
        let (server, dir) = test_server("explore");
        let mut c = Client::connect(server.addr());
        let doc = c.call(
            "explore.run",
            Json::obj(vec![(
                "programs",
                Json::Arr(vec![
                    Json::str("store[rlx](x, 1); a := load[rlx](y); return a;"),
                    Json::str("store[rlx](y, 1); a := load[rlx](x); return a;"),
                ]),
            )]),
        );
        let r = result_of(&doc).get("result").unwrap();
        assert_eq!(r.get("stop").unwrap(), &Json::str("completed"));
        assert_eq!(r.get("truncated").unwrap(), &Json::Bool(false));
        // Store buffering: both threads can read 0.
        assert!(matches!(r.get("behaviors").unwrap(), Json::Num(n) if *n >= 4.0));
        stop(server, &dir);
    }

    #[test]
    fn explore_jobs_spill_and_surface_degradation_stats() {
        let (server, dir) = test_server("spill");
        let mut c = Client::connect(server.addr());
        let progs = Json::Arr(vec![
            Json::str("store[rlx](x, 1); store[rlx](x, 2); a := load[rlx](y); return a;"),
            Json::str("store[rlx](y, 1); store[rlx](y, 2); a := load[rlx](z); return a;"),
            Json::str("store[rlx](z, 1); store[rlx](z, 2); a := load[rlx](x); return a;"),
        ]);
        // Baseline: default spill budget (64 MiB) never trips. The
        // state budget keeps the runs short and (being truncated)
        // uncacheable, so the second submission really re-runs.
        let doc = c.call(
            "explore.run",
            Json::obj(vec![
                ("programs", progs.clone()),
                ("reduction", Json::Bool(false)),
                ("max_states", Json::num(4000)),
            ]),
        );
        let base = result_of(&doc).get("result").unwrap().clone();

        // Zero budget: every eligible shard spills to disk; the run
        // must stay lossless (identical state/behavior counts).
        let doc = c.call(
            "explore.run",
            Json::obj(vec![
                ("programs", progs),
                ("reduction", Json::Bool(false)),
                ("max_states", Json::num(4000)),
                ("spill_budget_mb", Json::num(0)),
            ]),
        );
        let id = result_of(&doc).get("job").unwrap().clone();
        let r = result_of(&doc).get("result").unwrap();
        assert_eq!(r.get("states").unwrap(), base.get("states").unwrap());
        assert_eq!(r.get("behaviors").unwrap(), base.get("behaviors").unwrap());
        assert_eq!(r.get("downgrades").unwrap(), &Json::num(0));
        let spill = r.get("spill").unwrap();
        assert!(
            matches!(spill.get("shards").unwrap(), Json::Num(n) if *n > 0.0),
            "zero budget must spill shards: {spill}"
        );
        assert_eq!(spill.get("quarantined").unwrap(), &Json::num(0));

        // The per-job spill directory is gone once the job is terminal.
        let job_id = match id {
            Json::Num(n) => n as u64,
            other => panic!("non-numeric job id {other}"),
        };
        assert!(!dir.join("spill").join(format!("job-{job_id}")).exists());

        let stats = c.call("server.stats", Json::obj(vec![]));
        assert!(
            matches!(result_of(&stats).get("degradations"), Some(Json::Num(_))),
            "stats must carry the degradations counter"
        );
        stop(server, &dir);
    }

    #[test]
    fn model_routed_explore_downgrades_and_counts_backends() {
        let (server, dir) = test_server("model");
        let mut c = Client::connect(server.addr());
        // Race-free MP: the auto ladder downgrades to the promise-free
        // backend and reuses its scan as the final enumeration.
        let params = Json::obj(vec![
            (
                "programs",
                Json::Arr(vec![
                    Json::str("store[na](d, 1); store[rel](f, 1); return 0;"),
                    Json::str("a := load[acq](f); if (a == 1) { b := load[na](d); } return a;"),
                ]),
            ),
            ("model", Json::str("auto")),
        ]);
        let doc = c.call("explore.run", params.clone());
        let r = result_of(&doc).get("result").unwrap();
        assert_eq!(r.get("model_requested").unwrap(), &Json::str("auto"));
        assert_eq!(r.get("model").unwrap(), &Json::str("pf"));
        assert_eq!(r.get("scan_reused").unwrap(), &Json::Bool(true));
        assert_eq!(r.get("stop").unwrap(), &Json::str("completed"));
        assert!(
            matches!(r.get("checks").unwrap(), Json::Arr(cs) if cs.len() == 3),
            "SC, RA and PF verdicts reported: {r}"
        );

        // A complete model-routed run is cacheable.
        let doc = c.call("explore.run", params);
        assert_eq!(result_of(&doc).get("cached").unwrap(), &Json::Bool(true));

        // Per-backend counters (the cache hit must not double-count).
        let stats = c.call("server.stats", Json::obj(vec![]));
        let models = result_of(&stats).get("models").unwrap();
        assert_eq!(models.get("pf").unwrap(), &Json::num(1));

        // Unknown model names are rejected at validation time.
        let doc = c.call(
            "explore.run",
            Json::obj(vec![
                ("programs", Json::Arr(vec![Json::str("return 0;")])),
                ("model", Json::str("tso")),
            ]),
        );
        assert_eq!(error_code(&doc), codes::INVALID_PARAMS);
        stop(server, &dir);
    }

    #[test]
    fn refine_with_model_adds_cross_model_verdict() {
        let (server, dir) = test_server("model-refine");
        let mut c = Client::connect(server.addr());
        let doc = c.call(
            "refine.check",
            Json::obj(vec![
                ("src", Json::str("a := load[rlx](x); return a;")),
                ("tgt", Json::str("a := load[rlx](x); return a;")),
                ("model", Json::str("auto")),
            ]),
        );
        let r = result_of(&doc).get("result").unwrap();
        assert_eq!(r.get("verdict").unwrap(), &Json::str("holds"));
        // Single-threaded closed programs are conflict-free, so the
        // ladder lands on the SC backend for the cross-check.
        assert_eq!(r.get("model").unwrap(), &Json::str("sc"));
        assert_eq!(r.get("model_verdict").unwrap(), &Json::str("holds"));
        stop(server, &dir);
    }

    #[test]
    fn fuzz_campaign_streams_events_and_completes() {
        let (server, dir) = test_server("fuzz");
        let mut c = Client::connect(server.addr());
        let doc = c.call(
            "fuzz.campaign",
            Json::obj(vec![("cases", Json::num(6)), ("seed", Json::num(7))]),
        );
        let id = result_of(&doc).get("job").unwrap().clone();
        let job = Json::obj(vec![("job", id.clone())]);

        // Follow the stream to the end; the final response arrives
        // after the terminal state.
        let (done, notes) = c.call_collect("job.events", job.clone());
        let summary = result_of(&done);
        assert_eq!(summary.get("state").unwrap(), &Json::str("done"));
        assert!(
            !notes.is_empty(),
            "at least the final progress batch must stream"
        );
        for n in &notes {
            assert_eq!(n.get("method").unwrap(), &Json::str("job.event"));
        }

        let doc = c.call("job.result", job);
        let r = result_of(&doc).get("result").unwrap();
        assert!(r.get("cases_run").is_some(), "campaign summary: {r}");
        stop(server, &dir);
    }

    #[test]
    fn cancel_a_queued_job_and_query_unknown_jobs() {
        let (server, dir) = test_server("cancel");
        let mut c = Client::connect(server.addr());
        let doc = c.call(
            "fuzz.campaign",
            Json::obj(vec![("cases", Json::num(200_000)), ("seed", Json::num(1))]),
        );
        let id = result_of(&doc).get("job").unwrap().clone();
        let job = Json::obj(vec![("job", id)]);
        let doc = c.call("job.cancel", job.clone());
        assert!(result_of(&doc).get("state").is_some());
        let doc = c.call("job.result", job);
        assert_eq!(error_code(&doc), codes::CANCELED);

        let doc = c.call("job.status", Json::obj(vec![("job", Json::num(999))]));
        assert_eq!(error_code(&doc), codes::UNKNOWN_JOB);
        stop(server, &dir);
    }

    #[test]
    fn shutdown_rpc_stops_the_daemon() {
        let (server, dir) = test_server("shutdown");
        let mut c = Client::connect(server.addr());
        let doc = c.call("server.shutdown", Json::obj(vec![]));
        assert_eq!(result_of(&doc).get("ok").unwrap(), &Json::Bool(true));
        server.wait();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_client_is_evicted_by_the_frame_deadline() {
        let (server, dir) = test_server_with("slowloris", |cfg| {
            cfg.read_timeout = Duration::from_millis(200);
        });
        let mut c = Client::connect(server.addr());
        // Half a frame, then silence: the deadline must evict us with
        // a structured error, not hang a handler thread forever.
        c.writer
            .write_all(br#"{"jsonrpc":"2.0","id":1,"met"#)
            .unwrap();
        c.writer.flush().unwrap();
        let doc = c.read_doc();
        assert_eq!(error_code(&doc), codes::SLOW_CLIENT);
        // The connection is closed after the error.
        let mut rest = String::new();
        assert_eq!(c.reader.read_line(&mut rest).unwrap(), 0, "EOF expected");
        // The daemon itself is healthy: a well-behaved client works.
        let mut c2 = Client::connect(server.addr());
        let doc = c2.call("server.stats", Json::obj(vec![]));
        assert!(doc.get("result").is_some());
        stop(server, &dir);
    }

    #[test]
    fn oversized_frames_are_rejected_with_a_structured_error() {
        let (server, dir) = test_server_with("bigframe", |cfg| {
            cfg.max_frame_bytes = 512;
        });
        let mut c = Client::connect(server.addr());
        let huge = format!(
            r#"{{"jsonrpc":"2.0","id":1,"method":"server.stats","params":{{"pad":"{}"}}}}"#,
            "x".repeat(4096)
        );
        // The server may slam the door while we are still writing;
        // EPIPE here is part of the expected behavior, not a failure.
        let _ = c.writer.write_all(huge.as_bytes());
        let _ = c.writer.write_all(b"\n");
        let _ = c.writer.flush();
        let doc = c.read_doc();
        assert_eq!(error_code(&doc), codes::FRAME_TOO_LARGE);
        let mut rest = String::new();
        assert_eq!(c.reader.read_line(&mut rest).unwrap(), 0, "EOF expected");
        stop(server, &dir);
    }

    #[test]
    fn connection_cap_rejects_at_the_door() {
        let (server, dir) = test_server_with("conncap", |cfg| {
            cfg.max_conns = 1;
        });
        let mut c1 = Client::connect(server.addr());
        // Round-trip to guarantee c1's handler holds the only slot.
        let doc = c1.call("server.stats", Json::obj(vec![]));
        let conns = result_of(&doc).get("connections").unwrap();
        assert_eq!(conns.get("open").unwrap(), &Json::num(1));
        assert_eq!(conns.get("max").unwrap(), &Json::num(1));

        let mut c2 = Client::connect(server.addr());
        let doc = c2.read_doc();
        assert_eq!(error_code(&doc), codes::TOO_MANY_CONNS);

        // The original connection is unaffected.
        let doc = c1.call("server.stats", Json::obj(vec![]));
        assert!(doc.get("result").is_some());
        stop(server, &dir);
    }

    #[test]
    fn saturated_queue_sheds_load_with_a_retry_hint() {
        let (server, dir) = test_server_with("overload", |cfg| {
            cfg.workers = 1;
            cfg.queue_depth = 1;
        });
        let mut c = Client::connect(server.addr());
        // Fill the single worker with a long campaign…
        let doc = c.call(
            "fuzz.campaign",
            Json::obj(vec![("cases", Json::num(200_000)), ("seed", Json::num(1))]),
        );
        let a = result_of(&doc).get("job").unwrap().clone();
        // …wait until it is actually running so the queue is empty…
        loop {
            let doc = c.call("job.status", Json::obj(vec![("job", a.clone())]));
            if result_of(&doc).get("state").unwrap() == &Json::str("running") {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // …then occupy the one queue slot…
        let doc = c.call(
            "fuzz.campaign",
            Json::obj(vec![("cases", Json::num(200_000)), ("seed", Json::num(2))]),
        );
        let b = result_of(&doc).get("job").unwrap().clone();
        // …and the next submission must be shed with a backoff hint.
        let doc = c.call(
            "fuzz.campaign",
            Json::obj(vec![("cases", Json::num(10)), ("seed", Json::num(3))]),
        );
        assert_eq!(error_code(&doc), codes::OVERLOADED);
        let data = doc.get("error").unwrap().get("data").unwrap();
        let retry = data.get("retry_after_ms").unwrap().as_u64("r").unwrap();
        assert!(retry >= 10, "retry_after_ms {retry} below clamp floor");
        assert_eq!(data.get("queue_capacity").unwrap(), &Json::num(1));
        for id in [a, b] {
            c.call("job.cancel", Json::obj(vec![("job", id)]));
        }
        stop(server, &dir);
    }

    #[test]
    fn lifecycle_events_stream_for_every_job_kind() {
        let (server, dir) = test_server("lifecycle");
        let mut c = Client::connect(server.addr());
        let params = Json::obj(vec![
            ("src", Json::str("return 2;")),
            ("tgt", Json::str("return 2;")),
        ]);
        let doc = c.call("refine.check", params.clone());
        let id = result_of(&doc).get("job").unwrap().clone();
        let (_, notes) = c.call_collect("job.events", Json::obj(vec![("job", id)]));
        let states: Vec<String> = notes
            .iter()
            .filter_map(|n| {
                let ev = n.get("params")?.get("event")?;
                if ev.get("type")? == &Json::str("lifecycle") {
                    Some(ev.get("state")?.as_str("s").ok()?.to_string())
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(states, ["queued", "running", "done"]);

        // A cache hit still narrates its (instant) lifecycle.
        let doc = c.call("refine.check", params);
        let id = result_of(&doc).get("job").unwrap().clone();
        let (_, notes) = c.call_collect("job.events", Json::obj(vec![("job", id)]));
        let states: Vec<String> = notes
            .iter()
            .filter_map(|n| {
                let ev = n.get("params")?.get("event")?;
                ev.get("state")
                    .and_then(|s| s.as_str("s").ok())
                    .map(str::to_string)
            })
            .collect();
        assert_eq!(states, ["queued", "done"]);
        stop(server, &dir);
    }

    #[test]
    fn drain_cancels_stragglers_and_preserves_the_queue() {
        let (server, dir) = test_server_with("drain", |cfg| {
            cfg.workers = 1;
            cfg.drain_timeout = Duration::from_millis(300);
        });
        let addr = server.addr();
        let mut c = Client::connect(addr);
        // A campaign far too long to finish inside the drain window…
        let doc = c.call(
            "fuzz.campaign",
            Json::obj(vec![("cases", Json::num(500_000)), ("seed", Json::num(1))]),
        );
        let a = result_of(&doc).get("job").unwrap().clone();
        loop {
            let doc = c.call("job.status", Json::obj(vec![("job", a.clone())]));
            if result_of(&doc).get("state").unwrap() == &Json::str("running") {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // …plus one queued behind it.
        let doc = c.call(
            "fuzz.campaign",
            Json::obj(vec![("cases", Json::num(500_000)), ("seed", Json::num(2))]),
        );
        let b = match result_of(&doc).get("job").unwrap() {
            Json::Num(n) => *n as u64,
            other => panic!("job id {other}"),
        };

        let doc = c.call(
            "server.shutdown",
            Json::obj(vec![("drain", Json::Bool(true))]),
        );
        let r = result_of(&doc);
        assert_eq!(r.get("drain").unwrap(), &Json::Bool(true));
        assert_eq!(r.get("running").unwrap(), &Json::num(1));
        assert_eq!(r.get("queued").unwrap(), &Json::num(1));

        // New submissions are refused while draining.
        let mut c2 = Client::connect(addr);
        let doc = c2.call(
            "fuzz.campaign",
            Json::obj(vec![("cases", Json::num(5)), ("seed", Json::num(9))]),
        );
        assert_eq!(error_code(&doc), codes::DRAINING);

        server.wait();
        // The straggler was canceled at the drain deadline; the
        // queued job is journaled as queued for the next start.
        let jobs_dir = dir.join("jobs");
        let rec_a = crate::state::read_record(&crate::job::journal_path(&jobs_dir, 1)).unwrap();
        assert_eq!(rec_a.get("state").unwrap(), &Json::str("canceled"));
        let rec_b = crate::state::read_record(&crate::job::journal_path(&jobs_dir, b)).unwrap();
        assert_eq!(rec_b.get("state").unwrap(), &Json::str("queued"));

        // A restarted daemon recovers the queued job.
        let server = Server::start(ServeConfig {
            state_dir: dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        assert_eq!(server.recovered_jobs(), 1);
        let mut c = Client::connect(server.addr());
        c.call("job.cancel", Json::obj(vec![("job", Json::num(b))]));
        stop(server, &dir);
    }

    #[test]
    fn deeply_nested_params_are_a_parse_error_not_a_crash() {
        let (server, dir) = test_server("nesting");
        let mut c = Client::connect(server.addr());
        let bomb = format!(
            r#"{{"jsonrpc":"2.0","id":1,"method":"server.stats","params":{{"a":{}1{}}}}}"#,
            "[".repeat(400),
            "]".repeat(400)
        );
        c.send_raw(&bomb);
        let doc = c.read_doc();
        assert_eq!(error_code(&doc), codes::PARSE_ERROR);
        // Still serving.
        let doc = c.call("server.stats", Json::obj(vec![]));
        assert!(doc.get("result").is_some());
        stop(server, &dir);
    }
}
