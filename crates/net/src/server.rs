//! The serving front-end: acceptor → bounded admission queue → connection
//! workers → micro-batch tick over a [`ShardedEngine`].
//!
//! ## Thread anatomy
//!
//! * **1 acceptor** — accepts sockets and pushes them onto a bounded
//!   connection queue. When the queue is full the socket is answered with a
//!   fast `503` *on the acceptor thread* and closed: overload costs one
//!   response write, never an unbounded backlog.
//! * **N workers** — each pops a connection and speaks keep-alive HTTP/1.1
//!   on it: parse a request (total per-request deadline), submit a job,
//!   block until the batcher fills the job's slot, write the response.
//! * **1 batcher** — owns the [`ShardedEngine`]. Each tick takes every
//!   queued job, up to `max_batch`, the moment the batcher is free, answers
//!   them with one `recommend_batch` fan-out, and wakes the waiting
//!   workers.
//!
//! Batching is natural rather than timed: a tick closes as soon as the job
//! queue is empty, so a lone request pays no linger, and under load jobs
//! pile up while the previous tick runs, so batches still grow with the
//! offered rate.
//!
//! Admission control is two-stage: the connection queue bounds sockets
//! waiting for a worker, and the job queue bounds requests waiting for a
//! tick. Both shed with `503` + the `serve.shed` counter
//! (`net.shed.conns` / `net.shed.jobs` split the cause); a request whose
//! deadline lapses while queued gets `504` and `net.timeouts`. Malformed
//! requests come back as `400` with the [`ServeError`] message — the
//! engine's typed rejections exist precisely so a stale id on the wire can
//! never panic a worker.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use imcat_ckpt::Artifact;
use imcat_obs::{knob_u64, knob_usize, Json};
use imcat_serve::{AnnDescriptor, Interaction, Recommendation, ServeConfig, ServeError};

use crate::http::{self, Conn, Request, JSON, TEXT};
use crate::shard::ShardedEngine;

static OBS_SHED: imcat_obs::Counter = imcat_obs::Counter::new("serve.shed");
static OBS_NET_REQUESTS: imcat_obs::Counter = imcat_obs::Counter::new("net.requests");
static OBS_NET_CONNS: imcat_obs::Counter = imcat_obs::Counter::new("net.connections");
static OBS_NET_TIMEOUTS: imcat_obs::Counter = imcat_obs::Counter::new("net.timeouts");
static OBS_NET_SECONDS: imcat_obs::Hist = imcat_obs::Hist::new("net.request.seconds");

/// Front-end configuration. Every knob has an `IMCAT_NET_*` environment
/// variable (see [`NetConfig::from_env`]).
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Engine replicas sharded on the item axis (`IMCAT_NET_SHARDS`).
    pub shards: usize,
    /// Connection worker threads (`IMCAT_NET_WORKERS`).
    pub workers: usize,
    /// Bounded admission queue capacity, for both connections awaiting a
    /// worker and jobs awaiting a tick (`IMCAT_NET_QUEUE`). Overflow sheds
    /// with a fast `503`.
    pub queue: usize,
    /// Maximum requests folded into one micro-batch tick
    /// (`IMCAT_NET_BATCH`).
    pub max_batch: usize,
    /// How long a tick lingers for a partial batch to fill once the first
    /// job arrives. Zero (the default, and what [`NetConfig::from_env`]
    /// sets) answers whatever is queued as soon as the batcher is free.
    /// The field stays only because `perfbench` reads it.
    pub tick_wait: Duration,
    /// Total per-request deadline on a connection: head read, queueing and
    /// the tick all included (`IMCAT_NET_DEADLINE_MS`).
    pub deadline: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            workers: 4,
            queue: 64,
            max_batch: 64,
            tick_wait: Duration::ZERO,
            deadline: Duration::from_secs(2),
        }
    }
}

impl NetConfig {
    /// Reads every knob from `IMCAT_NET_*`, defaulting to
    /// [`NetConfig::default`] for unset or malformed values.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            shards: knob_usize("IMCAT_NET_SHARDS", d.shards).max(1),
            workers: knob_usize("IMCAT_NET_WORKERS", d.workers).max(1),
            queue: knob_usize("IMCAT_NET_QUEUE", d.queue).max(1),
            max_batch: knob_usize("IMCAT_NET_BATCH", d.max_batch).max(1),
            tick_wait: d.tick_wait,
            deadline: Duration::from_millis(knob_u64(
                "IMCAT_NET_DEADLINE_MS",
                d.deadline.as_millis() as u64,
            )),
        }
    }
}

/// Front-end counters, snapshotted by [`Server::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// `/recommend` requests admitted to parsing.
    pub requests: u64,
    /// Requests answered `200`.
    pub answered: u64,
    /// Requests shed with `503` (connection- and job-queue overflow).
    pub shed: u64,
    /// Requests rejected `400` (bad parameters or a typed engine error).
    pub rejected: u64,
    /// Requests that timed out queued or in-flight (`504`/`408`).
    pub timeouts: u64,
    /// Interactions accepted through `POST /ingest`.
    pub ingested: u64,
}

/// One queued request plus the slot its answer lands in. Mutations ride
/// the same bounded queue as reads — admission control covers ingestion
/// identically, and the single batcher serializes every engine mutation.
struct Job {
    kind: JobKind,
    slot: Arc<Slot>,
}

enum JobKind {
    Recommend { user: u32, k: usize },
    Ingest(Vec<Interaction>),
    RegisterUser,
    RegisterItem,
}

/// What the batcher hands back for one job.
enum Answer {
    Recs(Result<Vec<Recommendation>, ServeError>),
    /// Per-interaction outcomes, in submission order.
    Ingested(Vec<Result<(), ServeError>>),
    /// Id assigned to the registered entity.
    Registered(u32),
}

/// Single-use rendezvous between a worker and the batcher.
struct Slot {
    state: Mutex<Option<Answer>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Self {
        Self { state: Mutex::new(None), cv: Condvar::new() }
    }

    fn fill(&self, answer: Answer) {
        *self.state.lock().unwrap() = Some(answer);
        self.cv.notify_all();
    }

    /// Blocks until the batcher fills the slot or `deadline` passes.
    fn wait(&self, deadline: Instant) -> Option<Answer> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(answer) = state.take() {
                return Some(answer);
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (guard, timeout) = self.cv.wait_timeout(state, remaining).unwrap();
            state = guard;
            if timeout.timed_out() {
                return state.take();
            }
        }
    }
}

/// Bounded MPMC queue: non-blocking bounded push (admission control),
/// blocking pop that drains remaining items after close, then yields
/// `None`.
struct Queue<T> {
    inner: Mutex<QueueState<T>>,
    cv: Condvar,
    cap: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Queue<T> {
    fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            cv: Condvar::new(),
            cap,
        }
    }

    /// Admits `item` unless the queue is full or closed; the rejected item
    /// is handed back so the caller can shed it.
    fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.inner.lock().unwrap();
        if state.closed || state.items.len() >= self.cap {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.cv.notify_one();
        Ok(())
    }

    fn pop(&self) -> Option<T> {
        let mut state = self.inner.lock().unwrap();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait(state).unwrap();
        }
    }

    /// Drains up to `max` items for one tick. Blocks for the first item,
    /// then takes everything already queued, up to `max`. Items past `max`
    /// stay queued for the next tick. Returns empty only once closed and
    /// drained. `wait` is [`NetConfig::tick_wait`], zero unless a caller
    /// builds the config by hand.
    fn pop_batch(&self, max: usize, wait: Duration) -> Vec<T> {
        let mut state = self.inner.lock().unwrap();
        loop {
            if !state.items.is_empty() {
                break;
            }
            if state.closed {
                return Vec::new();
            }
            state = self.cv.wait(state).unwrap();
        }
        if state.items.len() < max && !wait.is_zero() {
            let deadline = Instant::now() + wait;
            while state.items.len() < max && !state.closed {
                let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                    break;
                };
                let (guard, timeout) = self.cv.wait_timeout(state, remaining).unwrap();
                state = guard;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        let take = state.items.len().min(max);
        state.items.drain(..take).collect()
    }

    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }
}

struct Shared {
    cfg: NetConfig,
    conns: Queue<TcpStream>,
    jobs: Queue<Job>,
    /// Live entity counts, maintained by the batcher as registrations land
    /// (reads are advisory: the engine revalidates every job).
    n_users: AtomicU64,
    n_items: AtomicU64,
    shutdown: AtomicBool,
    /// Per-shard ANN backend descriptors captured at startup (`None` slot =
    /// that replica serves brute force without an index). Resolved build
    /// parameters are frozen per generation, so a startup snapshot is the
    /// live truth; only `n_items` can drift as cold items stream in.
    ann: Vec<Option<AnnDescriptor>>,
    requests: AtomicU64,
    answered: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    ingested: AtomicU64,
}

/// The running front-end: bound socket plus its thread complement. Dropping
/// (or calling [`Server::shutdown`]) stops every thread and joins them.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds the sharded engine, binds `addr` (e.g. `127.0.0.1:0` for an
    /// ephemeral port) and starts the acceptor, workers, and batcher.
    pub fn start(
        artifact: &Artifact,
        serve_cfg: &ServeConfig,
        cfg: NetConfig,
        addr: &str,
    ) -> io::Result<Self> {
        let engine = ShardedEngine::new(artifact, serve_cfg, cfg.shards)?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            conns: Queue::new(cfg.queue),
            jobs: Queue::new(cfg.queue),
            n_users: AtomicU64::new(engine.n_users() as u64),
            n_items: AtomicU64::new(engine.n_items() as u64),
            shutdown: AtomicBool::new(false),
            ann: engine.ann_descriptors(),
            requests: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            ingested: AtomicU64::new(0),
            cfg,
        });
        let mut handles = Vec::new();
        {
            let shared = shared.clone();
            handles.push(
                std::thread::Builder::new()
                    .name("imcat-net-accept".into())
                    .spawn(move || accept_loop(listener, &shared))?,
            );
        }
        for w in 0..shared.cfg.workers {
            let shared = shared.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("imcat-net-worker-{w}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        {
            let shared = shared.clone();
            handles.push(
                std::thread::Builder::new()
                    .name("imcat-net-batcher".into())
                    .spawn(move || batcher_loop(engine, &shared))?,
            );
        }
        Ok(Self { addr: local, shared, handles })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the front-end counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            answered: self.shared.answered.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            timeouts: self.shared.timeouts.load(Ordering::Relaxed),
            ingested: self.shared.ingested.load(Ordering::Relaxed),
        }
    }

    /// Stops every thread and joins them. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.conns.close();
        self.shared.jobs.close();
        // Unblock the acceptor's blocking `accept`.
        let _ = TcpStream::connect(self.addr);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        OBS_NET_CONNS.add(1);
        if let Err(mut stream) = shared.conns.try_push(stream) {
            // Admission queue full: shed on the acceptor thread with one
            // cheap write — the queue stays bounded no matter the offered
            // load.
            shared.shed.fetch_add(1, Ordering::Relaxed);
            OBS_SHED.add(1);
            imcat_obs::counter_add("net.shed.conns", 1);
            let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
            let _ = http::write_response(
                &mut stream,
                "503 Service Unavailable",
                JSON,
                &error_body("overloaded: connection queue full"),
                false,
            );
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(stream) = shared.conns.pop() {
        handle_conn(Conn::new(stream), shared);
    }
}

fn handle_conn(mut conn: Conn, shared: &Shared) {
    loop {
        let deadline = Instant::now() + shared.cfg.deadline;
        let request = match conn.read_request(deadline) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                shared.timeouts.fetch_add(1, Ordering::Relaxed);
                OBS_NET_TIMEOUTS.add(1);
                let _ = conn.respond("408 Request Timeout", TEXT, "timed out\n", false);
                return;
            }
            Err(_) => return,
        };
        let keep_alive = request.keep_alive;
        if serve_one(&mut conn, &request, shared, deadline).is_err() || !keep_alive {
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::Str(message.into()))]).render()
}

fn serve_one(
    conn: &mut Conn,
    request: &Request,
    shared: &Shared,
    deadline: Instant,
) -> io::Result<()> {
    let keep = request.keep_alive;
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => conn.respond("200 OK", TEXT, "ok\n", keep),
        ("GET", "/stats") => {
            // The effective `IMCAT_*` configuration rides along so a live
            // process reports the knobs it actually runs under.
            let knobs = Json::obj(
                imcat_obs::knobs::dump()
                    .into_iter()
                    .map(|(key, value)| (key, Json::Str(value)))
                    .collect(),
            );
            // One entry per shard: which ANN backend is live and the build
            // parameters it resolved to (`null` = brute force, no index).
            let ann = Json::Arr(
                shared
                    .ann
                    .iter()
                    .map(|d| match d {
                        None => Json::Null,
                        Some(d) => {
                            let mut fields = vec![
                                ("kind", Json::Str(d.kind.into())),
                                ("n_items", Json::Num(d.n_items as f64)),
                            ];
                            match d.kind {
                                "ivf" => fields.extend([
                                    ("nlist", Json::Num(d.nlist as f64)),
                                    ("nprobe", Json::Num(d.nprobe as f64)),
                                    ("quantized", Json::Bool(d.quantized)),
                                ]),
                                "hnsw" => fields.extend([
                                    ("m", Json::Num(d.m as f64)),
                                    ("ef_construction", Json::Num(d.ef_construction as f64)),
                                    ("ef_search", Json::Num(d.ef_search as f64)),
                                ]),
                                _ => {}
                            }
                            Json::obj(fields)
                        }
                    })
                    .collect(),
            );
            let body = Json::obj(vec![
                ("shards", Json::Num(shared.cfg.shards as f64)),
                ("workers", Json::Num(shared.cfg.workers as f64)),
                ("queue", Json::Num(shared.cfg.queue as f64)),
                ("ann", ann),
                ("n_users", Json::Num(shared.n_users.load(Ordering::Relaxed) as f64)),
                ("n_items", Json::Num(shared.n_items.load(Ordering::Relaxed) as f64)),
                ("requests", Json::Num(shared.requests.load(Ordering::Relaxed) as f64)),
                ("answered", Json::Num(shared.answered.load(Ordering::Relaxed) as f64)),
                ("shed", Json::Num(shared.shed.load(Ordering::Relaxed) as f64)),
                ("rejected", Json::Num(shared.rejected.load(Ordering::Relaxed) as f64)),
                ("timeouts", Json::Num(shared.timeouts.load(Ordering::Relaxed) as f64)),
                ("ingested", Json::Num(shared.ingested.load(Ordering::Relaxed) as f64)),
                ("knobs", knobs),
            ]);
            conn.respond("200 OK", JSON, &body.render(), keep)
        }
        ("GET", "/recommend") => serve_recommend(conn, request, shared, deadline),
        ("POST", "/ingest") => serve_ingest(conn, request, shared, deadline),
        ("POST", "/users") => {
            serve_register(conn, request, shared, deadline, JobKind::RegisterUser)
        }
        ("POST", "/items") => {
            serve_register(conn, request, shared, deadline, JobKind::RegisterItem)
        }
        ("GET", _) => conn.respond("404 Not Found", TEXT, "not found\n", keep),
        (_, "/recommend")
        | (_, "/healthz")
        | (_, "/stats")
        | (_, "/ingest")
        | (_, "/users")
        | (_, "/items") => {
            conn.respond("405 Method Not Allowed", TEXT, "method not allowed\n", keep)
        }
        _ => conn.respond("404 Not Found", TEXT, "not found\n", keep),
    }
}

/// Pushes `kind` through the bounded job queue and waits for the batcher.
/// `None` = shed (queue full), `Some(None)` = deadline, `Some(Some(a))` =
/// answered.
fn submit(shared: &Shared, kind: JobKind, deadline: Instant) -> Option<Option<Answer>> {
    let slot = Arc::new(Slot::new());
    if shared.jobs.try_push(Job { kind, slot: slot.clone() }).is_err() {
        shared.shed.fetch_add(1, Ordering::Relaxed);
        OBS_SHED.add(1);
        imcat_obs::counter_add("net.shed.jobs", 1);
        return None;
    }
    Some(slot.wait(deadline))
}

fn serve_recommend(
    conn: &mut Conn,
    request: &Request,
    shared: &Shared,
    deadline: Instant,
) -> io::Result<()> {
    let keep = request.keep_alive;
    shared.requests.fetch_add(1, Ordering::Relaxed);
    OBS_NET_REQUESTS.add(1);
    let user = request.query("user").and_then(|v| v.parse::<u32>().ok());
    let k = request.query("k").and_then(|v| v.parse::<usize>().ok());
    let (Some(user), Some(k)) = (user, k) else {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        return conn.respond(
            "400 Bad Request",
            JSON,
            &error_body("numeric `user` and `k` query parameters required"),
            keep,
        );
    };
    let t0 = Instant::now();
    match submit(shared, JobKind::Recommend { user, k }, deadline) {
        None => {
            // Parsed but inadmissible: the tick backlog is at capacity.
            conn.respond(
                "503 Service Unavailable",
                JSON,
                &error_body("overloaded: request queue full"),
                keep,
            )
        }
        Some(None) => {
            shared.timeouts.fetch_add(1, Ordering::Relaxed);
            OBS_NET_TIMEOUTS.add(1);
            conn.respond(
                "504 Gateway Timeout",
                JSON,
                &error_body("request deadline exceeded"),
                keep,
            )
        }
        Some(Some(Answer::Recs(Err(e)))) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            conn.respond("400 Bad Request", JSON, &error_body(&e.to_string()), keep)
        }
        Some(Some(Answer::Recs(Ok(recs)))) => {
            shared.answered.fetch_add(1, Ordering::Relaxed);
            OBS_NET_SECONDS.observe(t0.elapsed().as_secs_f64());
            // `score_bits` carries the exact f32 bit patterns (u32 < 2^53,
            // so the JSON number is lossless): clients and tests can verify
            // bit-identity without trusting a decimal round-trip.
            let body = Json::obj(vec![
                ("user", Json::Num(user as f64)),
                ("k", Json::Num(k as f64)),
                ("items", Json::Arr(recs.iter().map(|r| Json::Num(r.item as f64)).collect())),
                ("scores", Json::Arr(recs.iter().map(|r| Json::Num(r.score as f64)).collect())),
                (
                    "score_bits",
                    Json::Arr(recs.iter().map(|r| Json::Num(r.score.to_bits() as f64)).collect()),
                ),
            ]);
            conn.respond("200 OK", JSON, &body.render(), keep)
        }
        Some(Some(_)) => {
            conn.respond("500 Internal Server Error", JSON, &error_body("answer mismatch"), keep)
        }
    }
}

/// `POST /ingest`: one interaction per body line (`user item`, whitespace
/// separated), or a single `?user=U&item=I` pair with an empty body. The
/// whole batch rides one bounded-queue job; per-interaction outcomes come
/// back in order, so one stale id rejects that line and never the batch.
fn serve_ingest(
    conn: &mut Conn,
    request: &Request,
    shared: &Shared,
    deadline: Instant,
) -> io::Result<()> {
    let keep = request.keep_alive;
    shared.requests.fetch_add(1, Ordering::Relaxed);
    OBS_NET_REQUESTS.add(1);
    let batch = match parse_ingest(request) {
        Ok(batch) if batch.is_empty() => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            return conn.respond(
                "400 Bad Request",
                JSON,
                &error_body("no interactions: send `user item` lines or ?user=&item="),
                keep,
            );
        }
        Ok(batch) => batch,
        Err(msg) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            return conn.respond("400 Bad Request", JSON, &error_body(msg), keep);
        }
    };
    match submit(shared, JobKind::Ingest(batch), deadline) {
        None => conn.respond(
            "503 Service Unavailable",
            JSON,
            &error_body("overloaded: request queue full"),
            keep,
        ),
        Some(None) => {
            shared.timeouts.fetch_add(1, Ordering::Relaxed);
            OBS_NET_TIMEOUTS.add(1);
            conn.respond(
                "504 Gateway Timeout",
                JSON,
                &error_body("request deadline exceeded"),
                keep,
            )
        }
        Some(Some(Answer::Ingested(results))) => {
            let accepted = results.iter().filter(|r| r.is_ok()).count();
            let errors: Vec<Json> = results
                .iter()
                .enumerate()
                .filter_map(|(i, r)| {
                    r.as_ref().err().map(|e| {
                        Json::obj(vec![
                            ("index", Json::Num(i as f64)),
                            ("error", Json::Str(e.to_string())),
                        ])
                    })
                })
                .collect();
            shared.ingested.fetch_add(accepted as u64, Ordering::Relaxed);
            let all_rejected = accepted == 0;
            let body = Json::obj(vec![
                ("accepted", Json::Num(accepted as f64)),
                ("rejected", Json::Num(errors.len() as f64)),
                ("errors", Json::Arr(errors)),
            ]);
            if all_rejected {
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                conn.respond("400 Bad Request", JSON, &body.render(), keep)
            } else {
                shared.answered.fetch_add(1, Ordering::Relaxed);
                conn.respond("200 OK", JSON, &body.render(), keep)
            }
        }
        Some(Some(_)) => {
            conn.respond("500 Internal Server Error", JSON, &error_body("answer mismatch"), keep)
        }
    }
}

fn parse_ingest(request: &Request) -> Result<Vec<Interaction>, &'static str> {
    let mut batch = Vec::new();
    if let (Some(user), Some(item)) = (request.query("user"), request.query("item")) {
        let user = user.parse().map_err(|_| "numeric `user` required")?;
        let item = item.parse().map_err(|_| "numeric `item` required")?;
        batch.push(Interaction { user, item });
    }
    let text = std::str::from_utf8(&request.body).map_err(|_| "body must be UTF-8")?;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(u), Some(i), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err("each body line must be `user item`");
        };
        let user = u.parse().map_err(|_| "numeric `user` required")?;
        let item = i.parse().map_err(|_| "numeric `item` required")?;
        batch.push(Interaction { user, item });
    }
    Ok(batch)
}

/// `POST /users` / `POST /items`: registers one cold entity, returning the
/// assigned dense id. Serialized through the batcher like every mutation.
fn serve_register(
    conn: &mut Conn,
    request: &Request,
    shared: &Shared,
    deadline: Instant,
    kind: JobKind,
) -> io::Result<()> {
    let keep = request.keep_alive;
    shared.requests.fetch_add(1, Ordering::Relaxed);
    OBS_NET_REQUESTS.add(1);
    let field = match kind {
        JobKind::RegisterUser => "user",
        _ => "item",
    };
    match submit(shared, kind, deadline) {
        None => conn.respond(
            "503 Service Unavailable",
            JSON,
            &error_body("overloaded: request queue full"),
            keep,
        ),
        Some(None) => {
            shared.timeouts.fetch_add(1, Ordering::Relaxed);
            OBS_NET_TIMEOUTS.add(1);
            conn.respond(
                "504 Gateway Timeout",
                JSON,
                &error_body("request deadline exceeded"),
                keep,
            )
        }
        Some(Some(Answer::Registered(id))) => {
            shared.answered.fetch_add(1, Ordering::Relaxed);
            let body = Json::obj(vec![(field, Json::Num(id as f64))]);
            conn.respond("201 Created", JSON, &body.render(), keep)
        }
        Some(Some(_)) => {
            conn.respond("500 Internal Server Error", JSON, &error_body("answer mismatch"), keep)
        }
    }
}

fn batcher_loop(mut engine: ShardedEngine, shared: &Shared) {
    loop {
        let jobs = shared.jobs.pop_batch(shared.cfg.max_batch, shared.cfg.tick_wait);
        if jobs.is_empty() {
            // Empty means closed-and-drained; in-flight slots were all
            // popped before close took effect.
            return;
        }
        // Mutations first, in arrival order (ordering against reads in the
        // same tick is not contractual — the requests were concurrent), so
        // this tick's recommendations already see this tick's ingests.
        let mut mutated = false;
        let mut recommends: Vec<(usize, u32, usize)> = Vec::new();
        let mut answers: Vec<Option<Answer>> = jobs.iter().map(|_| None).collect();
        for (i, job) in jobs.iter().enumerate() {
            match &job.kind {
                JobKind::Recommend { user, k } => recommends.push((i, *user, *k)),
                JobKind::Ingest(batch) => {
                    mutated = true;
                    answers[i] = Some(Answer::Ingested(engine.ingest_batch(batch)));
                }
                JobKind::RegisterUser => {
                    mutated = true;
                    answers[i] = Some(Answer::Registered(engine.register_user()));
                }
                JobKind::RegisterItem => {
                    mutated = true;
                    answers[i] = Some(Answer::Registered(engine.register_item()));
                }
            }
        }
        if mutated {
            // Fold off the request path: cold entities become reachable at
            // the end of the tick that admitted them.
            engine.fold_pending();
            shared.n_users.store(engine.n_users() as u64, Ordering::Relaxed);
            shared.n_items.store(engine.n_items() as u64, Ordering::Relaxed);
        }
        if !recommends.is_empty() {
            let requests: Vec<(u32, usize)> = recommends.iter().map(|&(_, u, k)| (u, k)).collect();
            for (&(i, _, _), answer) in recommends.iter().zip(engine.recommend_batch(&requests)) {
                answers[i] = Some(Answer::Recs(answer));
            }
        }
        for (job, answer) in jobs.into_iter().zip(answers) {
            if let Some(answer) = answer {
                job.slot.fill(answer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue_of(n: usize) -> Queue<usize> {
        let q = Queue::new(64);
        for i in 0..n {
            q.try_push(i).unwrap();
        }
        q
    }

    #[test]
    fn zero_linger_takes_every_queued_job() {
        let q = queue_of(5);
        assert_eq!(q.pop_batch(64, Duration::ZERO), vec![0, 1, 2, 3, 4]);
        // A single queued job is answered alone rather than waiting for company.
        q.try_push(5).unwrap();
        assert_eq!(q.pop_batch(64, Duration::ZERO), vec![5]);
    }

    #[test]
    fn jobs_past_max_stay_queued_for_the_next_tick() {
        let q = queue_of(5);
        assert_eq!(q.pop_batch(2, Duration::ZERO), vec![0, 1]);
        assert_eq!(q.pop_batch(2, Duration::ZERO), vec![2, 3]);
        assert_eq!(q.pop_batch(2, Duration::ZERO), vec![4]);
    }

    #[test]
    fn closed_queue_drains_then_returns_empty() {
        let q = queue_of(3);
        q.close();
        assert!(q.try_push(9).is_err(), "a closed queue admits nothing");
        assert_eq!(q.pop_batch(64, Duration::ZERO), vec![0, 1, 2]);
        assert!(q.pop_batch(64, Duration::ZERO).is_empty());
    }
}
