//! # webqa-server
//!
//! The resident serving layer: a daemon owning long-lived
//! [`webqa::Engine`] state — and therefore its cross-request caches
//! (the feature and result tiers `webqa::CacheStats` counts)
//! — split into digest-routed **shards** and speaking two wire
//! surfaces: a line-delimited JSON protocol over TCP and/or Unix
//! domain sockets, and a minimal HTTP/1.1 facade mapping the same
//! operations onto `POST`/`GET` routes. Every transport primitive is
//! hand-rolled on `std::net` / `std::os::unix::net` (this build
//! environment has no crates.io access, so no tokio/hyper/axum — and
//! none is needed: both protocols are request/response over blocking
//! sockets).
//!
//! # Execution model: bounded worker pool
//!
//! Connection threads are cheap: they read frames, parse them, and
//! answer control ops (`ping`, `intern`, `check`, `stats`) and protocol errors
//! inline. Heavy ops (`run`, `run_batch`) instead pass through a
//! **bounded admission queue** ([`ServeOptions::backlog`]) into a
//! **fixed worker pool** ([`ServeOptions::workers`]):
//!
//! * Engine concurrency is exactly `workers`, however many sockets are
//!   open or shards configured — a connection flood cannot fork a
//!   thousand syntheses. A worker runs one task at a time (a `run_batch`
//!   runs its tasks one after another on its worker), and nothing else
//!   in the daemon runs the engine. The daemon has one queue and one
//!   pool: any idle worker takes the oldest admitted job.
//! * When the backlog is full the request is **shed immediately** with
//!   a typed `overloaded` error; load shedding never queues behind the
//!   work it refuses. The connection stays open.
//! * Each heavy op carries a latency budget — the smaller of its own
//!   `deadline_ms` field and the server's default deadline, measured
//!   from frame arrival so *queue wait counts*. The budget is enforced
//!   cooperatively inside the synthesis enumerator (a
//!   [`webqa::CancelToken`] checked every guard step): an expired run
//!   aborts promptly with a typed `deadline-exceeded` error and caches
//!   nothing — engine state is never poisoned by a cancelled run.
//!
//! # Sharding: N engines routed by content digest
//!
//! The engine is split into [`ServeOptions::shards`] independent shards
//! (default 1; `0` = one per core). Each shard owns its *own* engine —
//! page store and caches — behind its own `RwLock`; the admission queue
//! and the worker pool are the daemon's, shared by every shard. A page
//! belongs to exactly one shard, chosen by a pure function of its
//! content digest (`digest % shards`), so the same page lands on the
//! same shard on every daemon of a fleet without coordination — and
//! interning on one shard never takes another shard's write lock.
//! Within a shard, heavy ops share the read lock (synthesis runs
//! concurrently across the workers running that shard's tasks) and
//! interning takes a brief write lock; stores are append-only, so a
//! handle stays valid for the life of the daemon process.
//!
//! Wire handles interleave the shard id into the low bits
//! (`handle = local_index * shards + shard`), which keeps handles dense
//! globally and makes a 1-shard server bit-compatible with the
//! pre-shard protocol (`handle == local_index`). A task executes on its
//! **home shard** — the owner of its first page reference — and any
//! page it references from another shard is pulled in by `Arc`-sharing
//! the parsed tree (one brief write lock on the home shard,
//! content-addressed dedup making repeats free). Responses carry no
//! page handles, so sharding is observationally invisible:
//! `tests/serve_api.rs` pins 4-shard responses byte-identical to
//! 1-shard and to the cold reference.
//!
//! **Semantics guarantee.** Serving is observationally invisible: the
//! response to a `run` request is byte-identical to what a cold,
//! single-threaded [`webqa::Engine`] computes for the same task and
//! config — regardless of cache hits, evictions, interleaving with
//! other clients, or how often the query repeats. `tests/serve_api.rs`
//! (workspace root) is the harness that pins this: N concurrent clients
//! over shuffled, duplicated task streams, every response compared
//! byte-for-byte against a never-cached reference engine.
//!
//! # Wire protocol
//!
//! The line protocol's framing, envelope and operations are documented
//! on the [`protocol`] module; its `OPS` table lists the operations.
//! Every response, on either surface, leaves through one request path:
//! a parsed frame is answered at once (control ops, errors, sheds) or
//! admitted as a job whose worker hands the response back to the
//! connection, and one counted write sends it.
//!
//! # HTTP/1.1 facade
//!
//! With an HTTP endpoint bound ([`Server::listen_all`], or
//! `webqa-cli serve --http HOST:PORT`), every operation is also served
//! at its route in the `OPS` table. The request body is the line
//! protocol's request object without `"op"` (the path supplies it; an
//! empty body is `{}`), and the response **body is the line-protocol
//! envelope byte for byte** (without the trailing newline), so
//! everything about envelopes, error kinds, and byte-identical
//! semantics carries over verbatim. The status is
//! `ErrKind::http_status` of the envelope's kind, 200 for `ok`.
//!
//! * **Framing**: requests must carry exactly one `Content-Length` —
//!   the facade never parses chunked bodies, so any
//!   `Transfer-Encoding` header is refused with 411 (Length Required)
//!   and a duplicate `Content-Length` as a `bad-frame`, both closing
//!   the connection: ambiguous framing is how request smuggling works,
//!   and refusing is the only safe answer. Bodies above
//!   `max_frame_bytes` are `oversized`. A known path with the wrong
//!   method gets 405. Responses always carry
//!   `Content-Type: application/json` and `Content-Length`.
//! * **Keep-alive**: connections persist by default (HTTP/1.1
//!   semantics); `Connection: close` — or an `HTTP/1.0` request line —
//!   is honored. Requests on one connection are processed in order;
//!   there is no cross-request pipelining on the facade (use the line
//!   protocol for that). Heavy ops pass through the same admission
//!   queue, deadlines, and shedding as the line protocol.
//!
//! # Example
//!
//! ```
//! use webqa_server::{Client, ServeOptions, Server};
//!
//! let listening = Server::new(ServeOptions::default())
//!     .listen(Some("127.0.0.1:0"), None)?;
//! let addr = listening.tcp_addr().expect("tcp endpoint");
//!
//! let mut client = Client::connect_tcp(addr)?;
//! let pong = client.request_line(r#"{"id":1,"op":"ping"}"#)?;
//! assert_eq!(pong, r#"{"id":1,"ok":{"pong":true}}"#);
//!
//! listening.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
// A panicking worker must never take the daemon down with it: resident
// code recovers poisoned locks and degrades typed instead of unwrapping.
// Tests are exempt — there a panic is the assertion mechanism.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod http;
mod net;
mod pool;
pub mod protocol;
mod shard;

pub use http::HttpClient;
pub use net::{Client, Listening};
pub use protocol::{render_check, render_run_result};

use std::io;
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde_json::{Map, Value};
use webqa::{
    content_digest, CacheStats, CancelToken, Engine, Error as EngineError, PageId, PageTree,
    Program, QueryContext, Task,
};

use pool::{Admission, Job, Reply};
use protocol::{
    bad_request, bool_field, op_names, page_ref, str_field, string_list, ErrKind, PageRef,
    ProtoError, Response,
};
use shard::ShardSet;

/// Recovers a poisoned lock. Everything behind the server's locks —
/// completion counters, job/connection registries, the engines' stores
/// and caches — is valid at every intermediate step, so a worker that
/// panicked while holding one leaves usable state behind; the serving
/// loop keeps answering instead of cascading the panic into every
/// thread that touches the lock afterwards.
pub(crate) fn relock<G>(result: Result<G, std::sync::PoisonError<G>>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The resident engine's pipeline configuration (synthesis knobs,
    /// selection strategy, cache capacities).
    pub engine: webqa::Config,
    /// Maximum request-frame size in bytes (default 1 MiB). Larger
    /// frames are refused with an `oversized` error.
    pub max_frame_bytes: usize,
    /// Worker threads executing heavy ops (`run` / `run_batch`), the
    /// whole pool whatever the shard count. `0` (the default) means
    /// auto: the machine's available parallelism. This is exactly the
    /// engine concurrency: a worker runs one task at a time (a
    /// `run_batch` runs its tasks one after another), and nothing else
    /// in the daemon runs the engine.
    pub workers: usize,
    /// Admission-queue capacity (default 64; `0` is read as 1), the whole
    /// queue whatever the shard count: heavy ops waiting for a worker
    /// beyond it are shed with an `overloaded` error.
    pub backlog: usize,
    /// Engine shards, routed by page content digest (see the module docs
    /// of `shard.rs`); each holds only its engine. `1` (the default)
    /// reproduces the single-engine server exactly — wire handles
    /// included; `0` means auto: one shard per unit of available
    /// parallelism.
    pub shards: usize,
    /// Default per-request latency budget, measured from frame arrival
    /// (queue wait included). `None` (the default) = no deadline unless
    /// a request carries `deadline_ms`; when both are present the
    /// *smaller* budget wins.
    pub default_deadline: Option<Duration>,
    /// Hard cap on responses ever written (default `None` = unlimited).
    /// Enforced by write permits, so "serve exactly N" is exact under
    /// any concurrency; [`Listening::wait_for_responses`] blocks until
    /// the cap (or any count) is reached.
    pub max_responses: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            engine: webqa::Config::default(),
            max_frame_bytes: 1 << 20,
            workers: 0,
            backlog: 64,
            shards: 1,
            default_deadline: None,
            max_responses: None,
        }
    }
}

/// `n`, with `0` (auto) resolved to the machine's available
/// parallelism: the reading of [`ServeOptions::workers`] and
/// [`ServeOptions::shards`].
fn or_auto(n: usize) -> usize {
    if n > 0 {
        return n;
    }
    std::thread::available_parallelism().map_or(4, |p| p.get())
}

/// State shared by every connection of one daemon.
pub(crate) struct Shared {
    /// The engine shards: each owns its engine (store + caches); pages
    /// route to shards by content digest.
    pub(crate) shards: ShardSet,
    /// The bounded admission queue feeding the worker pool.
    pub(crate) queue: Admission,
    /// Worker threads in the pool.
    pub(crate) workers: usize,
    pub(crate) max_frame_bytes: usize,
    pub(crate) started: Instant,
    /// Frames received (counted at read time).
    pub(crate) requests: AtomicU64,
    pub(crate) errors: AtomicU64,
    /// Requests shed by the admission queue (`overloaded` responses;
    /// also counted in `errors`).
    pub(crate) shed: AtomicU64,
    /// Requests that returned `deadline-exceeded` (also in `errors`).
    pub(crate) deadline_hits: AtomicU64,
    /// Requests whose execution panicked, on a worker or on the
    /// connection thread (also in `errors`).
    pub(crate) panics: AtomicU64,
    pub(crate) shutdown: AtomicBool,
    /// Server-side default latency budget (see
    /// [`ServeOptions::default_deadline`]).
    pub(crate) default_deadline: Option<Duration>,
    /// Write-permit cap: when set, at most this many responses are ever
    /// written, totalled across all connections.
    pub(crate) max_responses: Option<u64>,
    /// Permits claimed (compared against `max_responses` before every
    /// write; a failed write returns its permit).
    pub(crate) write_permits: AtomicU64,
    /// Responses fully written, guarded by a mutex so
    /// [`Listening::wait_for_responses`] can condvar-wait on it.
    pub(crate) completions: Mutex<u64>,
    pub(crate) completion_cv: Condvar,
    /// Cancel tokens of in-flight heavy ops, so shutdown can abort
    /// long-running syntheses instead of waiting them out; its length is
    /// the `inflight` of `stats`.
    pub(crate) inflight: Mutex<std::collections::HashMap<u64, CancelToken>>,
    pub(crate) next_job: AtomicU64,
    /// Live-connection close handles, so shutdown can unblock idle
    /// readers instead of leaking their threads.
    pub(crate) conns: Mutex<std::collections::HashMap<u64, net::CloseFn>>,
    pub(crate) next_conn: AtomicU64,
}

impl Shared {
    /// Sends one response through `write`, the transport's write of a
    /// whole response, under the write-permit cap, and counts the
    /// completion. Every response on every transport leaves through
    /// here. Returns `false` when the response was suppressed (cap
    /// reached) or the connection is gone.
    pub(crate) fn write_counted(&self, write: impl FnOnce() -> io::Result<()>) -> bool {
        if let Some(max) = self.max_responses {
            let n = self.write_permits.fetch_add(1, Ordering::SeqCst);
            if n >= max {
                return false;
            }
        }
        let ok = write().is_ok();
        if ok {
            let mut done = relock(self.completions.lock());
            *done += 1;
            self.completion_cv.notify_all();
        } else if self.max_responses.is_some() {
            // The permit was claimed but no response reached a client;
            // return it so the cap still yields exactly N deliveries.
            self.write_permits.fetch_sub(1, Ordering::SeqCst);
        }
        ok
    }

    /// Registers an in-flight heavy op's token (shutdown cancels them).
    pub(crate) fn track_job(&self, token: &CancelToken) -> u64 {
        let job = self.next_job.fetch_add(1, Ordering::Relaxed);
        relock(self.inflight.lock()).insert(job, token.clone());
        job
    }

    pub(crate) fn untrack_job(&self, job: u64) {
        relock(self.inflight.lock()).remove(&job);
    }
}

/// A classified request: either answered inline by the connection
/// thread (control ops, parse errors) or handed to the worker pool.
pub(crate) enum Action {
    /// The `ok` body, already computed.
    Immediate(Value),
    /// A parsed heavy op for the admission queue.
    Heavy(HeavyOp),
}

/// A fully parsed heavy operation: pages resolved onto their home
/// shard's store, deadline fixed at admission time (so queue wait counts
/// against the budget).
pub(crate) struct HeavyOp {
    kind: HeavyKind,
    deadline: Option<Instant>,
}

/// A page reference resolved onto its owning shard: the shared parsed
/// tree, the owner shard, and the page's id *in the owner's store*.
/// [`Server::localize`] turns this into a home-shard id when the task
/// runs elsewhere.
struct ResolvedPage {
    tree: Arc<PageTree>,
    owner: usize,
    id_in_owner: PageId,
}

/// A heavy op's work: each task beside its home shard, under whose read
/// lock it runs.
enum HeavyKind {
    Run(usize, Task),
    /// Each entry runs on its own home shard, in input order.
    Batch(Vec<(usize, Task)>),
    /// Panics when executed: the planted fault of the containment tests.
    #[cfg(test)]
    Panic,
    /// Holds its worker until [`PLANTED_GATE`] opens, so a test can
    /// fill the pool and the backlog at will.
    #[cfg(test)]
    Block,
}

/// The gate of [`HeavyKind::Block`]: `true` once a test opens it.
#[cfg(test)]
static PLANTED_GATE: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());

impl HeavyOp {
    #[cfg(test)]
    pub(crate) fn noop_for_tests() -> Self {
        HeavyOp {
            kind: HeavyKind::Batch(Vec::new()),
            deadline: None,
        }
    }
}

/// The `ok` body of the `stats` op: serving counters plus the per-shard
/// breakdown. Serialized in field order; `pages` and `cache` are derived
/// from [`StatsSnapshot::shards`], so the breakdown sums to them exactly.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StatsSnapshot {
    /// Frames received, error responses included.
    pub requests: u64,
    /// Error responses, `shed`, `deadline_exceeded` and `panics` included.
    pub errors: u64,
    /// Requests refused by a full admission queue (`overloaded`).
    pub shed: u64,
    /// Runs aborted by an expired latency budget (`deadline-exceeded`).
    pub deadline_exceeded: u64,
    /// Requests whose execution panicked: each was answered `internal`,
    /// and its worker or connection kept serving.
    pub panics: u64,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Admission-queue capacity.
    pub backlog: usize,
    /// Heavy ops waiting for a worker.
    pub queue_depth: usize,
    /// Heavy ops executing.
    pub inflight: u64,
    /// Interned pages: the sum of the `shards` entries' `pages`.
    pub pages: usize,
    /// Milliseconds since the server was built.
    pub uptime_ms: u64,
    /// The engines' two cache tiers, merged over the shards
    /// ([`CacheStats::merged`]): query-keyed feature tables (`feature_*`)
    /// and the completed-run LRU (`result_*`). A disabled tier counts
    /// nothing and has its `*_enabled` flag off.
    pub cache: CacheStats,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

/// One shard's entry in [`StatsSnapshot::shards`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Pages interned in the shard's store.
    pub pages: usize,
    /// The shard engine's cache counters.
    pub cache: CacheStats,
}

/// The resident WebQA server. Construct with [`Server::new`], then
/// either bind endpoints with [`Server::listen`] or drive the protocol
/// in-process with [`Server::handle_line`] (what the tests of pure
/// protocol behavior do).
pub struct Server {
    pub(crate) shared: Arc<Shared>,
}

impl Server {
    /// A server owning fresh engine shards built from `opts`.
    pub fn new(opts: ServeOptions) -> Server {
        Server {
            shared: Arc::new(Shared {
                shards: ShardSet::new(&opts.engine, or_auto(opts.shards)),
                queue: Admission::new(opts.backlog),
                workers: or_auto(opts.workers),
                max_frame_bytes: opts.max_frame_bytes,
                started: Instant::now(),
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                deadline_hits: AtomicU64::new(0),
                panics: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                default_deadline: opts.default_deadline,
                max_responses: opts.max_responses,
                write_permits: AtomicU64::new(0),
                completions: Mutex::new(0),
                completion_cv: Condvar::new(),
                inflight: Mutex::new(std::collections::HashMap::new()),
                next_job: AtomicU64::new(0),
                conns: Mutex::new(std::collections::HashMap::new()),
                next_conn: AtomicU64::new(0),
            }),
        }
    }

    /// Binds line-protocol endpoints (at least one) and spawns their
    /// accept threads. TCP addresses are standard `host:port` strings
    /// (`port 0` = OS-assigned, readable back from
    /// [`Listening::tcp_addr`]). Shorthand for [`Server::listen_all`]
    /// with no HTTP endpoint.
    ///
    /// # Errors
    ///
    /// Bind failures, or [`io::ErrorKind::InvalidInput`] when no
    /// endpoint was requested.
    pub fn listen(self, tcp: Option<&str>, unix: Option<&Path>) -> io::Result<Listening> {
        self.listen_all(tcp, unix, None)
    }

    /// Binds the requested endpoints (at least one) and spawns their
    /// accept threads: line-protocol TCP and/or Unix socket, and/or the
    /// HTTP/1.1 facade (`http`, a `host:port` string; the bound address
    /// is readable back from [`Listening::http_addr`]).
    ///
    /// # Errors
    ///
    /// Bind failures, or [`io::ErrorKind::InvalidInput`] when no
    /// endpoint was requested.
    pub fn listen_all(
        self,
        tcp: Option<&str>,
        unix: Option<&Path>,
        http: Option<&str>,
    ) -> io::Result<Listening> {
        if tcp.is_none() && unix.is_none() && http.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no endpoint requested: pass a TCP address, a Unix socket path, and/or an HTTP address",
            ));
        }
        let mut accept_threads = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = tcp {
            let listener = TcpListener::bind(addr)?;
            tcp_addr = Some(listener.local_addr()?);
            accept_threads.push(net::accept_tcp(Arc::clone(&self.shared), listener));
        }
        let mut unix_path = None;
        #[cfg(unix)]
        if let Some(path) = unix {
            // A stale socket file from a crashed predecessor would make
            // bind fail; remove it (connecting to a live one would fail
            // the bind anyway, which is the behavior we want).
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            unix_path = Some(path.to_path_buf());
            accept_threads.push(net::accept_unix(Arc::clone(&self.shared), listener));
        }
        #[cfg(not(unix))]
        if unix.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ));
        }
        let mut http_addr = None;
        if let Some(addr) = http {
            let listener = TcpListener::bind(addr)?;
            http_addr = Some(listener.local_addr()?);
            accept_threads.push(http::accept_http(Arc::clone(&self.shared), listener));
        }
        let worker_threads = pool::spawn_workers(&self.shared);
        Ok(Listening {
            shared: self.shared,
            tcp_addr,
            unix_path,
            http_addr,
            accept_threads,
            worker_threads,
        })
    }

    /// Handles one complete frame and renders the one-line response —
    /// the entire protocol, transport-free and synchronous (heavy ops
    /// execute inline on the calling thread). Tests of pure protocol
    /// behavior drive this directly; connection loops instead pass each
    /// classified frame to the crate-private `submit`, so heavy ops go
    /// through the worker pool.
    pub fn handle_line(&self, line: &str) -> String {
        let (id, classified) = self.classify_line(line);
        let outcome = match classified {
            Ok(Action::Immediate(body)) => Ok(body),
            Ok(Action::Heavy(op)) => self.execute_heavy(op),
            Err(e) => Err(e),
        };
        self.render_outcome(id, outcome).envelope
    }

    /// The one request path of both transports: a classified frame
    /// becomes either a response to write now (`ok` or error, or the
    /// `overloaded` shed when the backlog is full — refused in constant
    /// time on the connection thread, never queued behind the backlog it
    /// refuses) or a job admitted to the queue, whose worker answers
    /// through `reply` (`None`). A response returned here drops `reply`
    /// unused.
    pub(crate) fn submit(
        &self,
        id: Value,
        classified: Result<Action, ProtoError>,
        reply: Reply,
    ) -> Option<Response> {
        let op = match classified {
            Ok(Action::Heavy(op)) => op,
            Ok(Action::Immediate(body)) => return Some(self.render_outcome(id, Ok(body))),
            Err(e) => return Some(self.render_outcome(id, Err(e))),
        };
        let queue = &self.shared.queue;
        let job = Job {
            id: id.clone(),
            op,
            reply,
        };
        if queue.try_push(job) {
            return None;
        }
        self.shared.shed.fetch_add(1, Ordering::Relaxed);
        let message = format!(
            "admission queue full (backlog {}); request shed",
            queue.capacity()
        );
        Some(self.render_outcome(id, Err(ProtoError::new(ErrKind::Overloaded, message))))
    }

    /// Parses one frame into its echo id and either an immediate result
    /// or a pool-ready heavy op. Counts the request; the deadline (if
    /// any) is anchored *here*, so time spent queued counts against the
    /// request's latency budget.
    pub(crate) fn classify_line(&self, line: &str) -> (Value, Result<Action, ProtoError>) {
        match serde_json::from_str::<Value>(line) {
            Err(_) => {
                self.shared.requests.fetch_add(1, Ordering::Relaxed);
                (
                    Value::Null,
                    Err(ProtoError::new(
                        ErrKind::BadFrame,
                        "frame is not valid JSON",
                    )),
                )
            }
            Ok(v) => self.classify_value(v),
        }
    }

    /// [`Server::classify_line`] for an already-parsed frame — the HTTP
    /// facade's entry point (its body arrives pre-parsed, with the op
    /// injected from the request path). Counts the request. The light
    /// ops (`intern`, `check`, `stats`, and the parse-and-intern step of
    /// `run` and `run_batch`) execute here, on the connection thread; a
    /// panic among them is contained as in [`Server::execute_heavy`].
    pub(crate) fn classify_value(&self, v: Value) -> (Value, Result<Action, ProtoError>) {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        if v.as_object().is_none() {
            return (
                Value::Null,
                Err(ProtoError::new(
                    ErrKind::BadFrame,
                    "frame must be a JSON object",
                )),
            );
        }
        let id = v["id"].clone();
        let action = catch_unwind(AssertUnwindSafe(|| self.dispatch(&v)))
            .unwrap_or_else(|_| Err(self.panicked()));
        (id, action)
    }

    /// Counts a contained panic and answers it `internal`.
    fn panicked(&self) -> ProtoError {
        self.shared.panics.fetch_add(1, Ordering::Relaxed);
        ProtoError::new(
            ErrKind::Internal,
            "the operation panicked; the server recovered",
        )
    }

    /// Renders the response and maintains the error counter — the
    /// single exit point for every response, wherever it executed.
    pub(crate) fn render_outcome(&self, id: Value, outcome: Result<Value, ProtoError>) -> Response {
        if outcome.is_err() {
            self.shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        Response::new(id, outcome)
    }

    /// The response to a frame that never reached `classify_line` — an
    /// oversized or non-UTF-8 frame, an HTTP framing or routing failure —
    /// counted as one request and one error, with a `null` id.
    pub(crate) fn frame_error(&self, kind: ErrKind, message: impl Into<String>) -> Response {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        self.render_outcome(Value::Null, Err(ProtoError::new(kind, message)))
    }

    /// Executes a parsed heavy op under its deadline token. Runs on a
    /// worker thread in the daemon, inline in [`Server::handle_line`].
    /// A panic is contained to its request: it is answered `internal`
    /// and counted, and the job registry is restored, so the worker
    /// keeps serving.
    pub(crate) fn execute_heavy(&self, op: HeavyOp) -> Result<Value, ProtoError> {
        let token = match op.deadline {
            Some(at) => CancelToken::with_deadline(at),
            None => CancelToken::never(),
        };
        let job = self.shared.track_job(&token);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run_heavy(op.kind, &token)))
            .unwrap_or_else(|_| Err(self.panicked()));
        self.shared.untrack_job(job);
        outcome
    }

    fn run_heavy(&self, kind: HeavyKind, token: &CancelToken) -> Result<Value, ProtoError> {
        match kind {
            HeavyKind::Run(home, task) => self.run_task(home, &task, token),
            HeavyKind::Batch(tasks) => {
                // In input order, each task exactly as a separate `run`;
                // the first error ends the batch.
                let results = tasks
                    .iter()
                    .map(|(shard, task)| self.run_task(*shard, task, token))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut map = Map::new();
                map.insert("results".to_string(), Value::Array(results));
                Ok(Value::Object(map))
            }
            #[cfg(test)]
            HeavyKind::Panic => panic!("planted panic"),
            #[cfg(test)]
            HeavyKind::Block => {
                let (open, opened) = &PLANTED_GATE;
                let mut guard = relock(open.lock());
                while !*guard {
                    guard = relock(opened.wait(guard));
                }
                Ok(Value::Bool(true))
            }
        }
    }

    /// Runs one task on its home shard and renders its `ok` body. The
    /// run shares that shard's read lock: concurrent workers proceed in
    /// parallel, and only *this shard's* interns serialize against them.
    fn run_task(&self, home: usize, task: &Task, token: &CancelToken) -> Result<Value, ProtoError> {
        let engine = relock(self.shared.shards.get(home).read());
        let result = engine
            .run_with_cancel(task, token)
            .map_err(|e| self.engine_err(e))?;
        Ok(render_run_result(&result))
    }

    /// Maps engine failures onto the wire vocabulary (and counts
    /// deadline trips).
    fn engine_err(&self, e: EngineError) -> ProtoError {
        match e {
            EngineError::UnknownPage(id) => ProtoError::new(
                ErrKind::UnknownPage,
                format!("page handle {} is unknown to this server", id.index()),
            ),
            EngineError::Cancelled => {
                self.shared.deadline_hits.fetch_add(1, Ordering::Relaxed);
                ProtoError::new(
                    ErrKind::DeadlineExceeded,
                    "latency budget expired before the run finished",
                )
            }
            other => ProtoError::new(ErrKind::Internal, other.to_string()),
        }
    }

    fn dispatch(&self, request: &Value) -> Result<Action, ProtoError> {
        match request["op"].as_str() {
            Some("ping") => {
                let mut map = Map::new();
                map.insert("pong".to_string(), Value::Bool(true));
                Ok(Action::Immediate(Value::Object(map)))
            }
            Some("intern") => self.op_intern(request).map(Action::Immediate),
            Some("run") => {
                let deadline = self.deadline_of(request)?;
                let (task, home) = self.parse_run_task(request)?;
                Ok(Action::Heavy(HeavyOp {
                    kind: HeavyKind::Run(home, task),
                    deadline,
                }))
            }
            Some("run_batch") => {
                let deadline = self.deadline_of(request)?;
                let tasks = match &request["tasks"] {
                    Value::Array(items) => items
                        .iter()
                        .map(|item| self.parse_run_task(item).map(|(t, h)| (h, t)))
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return bad_request("field \"tasks\" must be an array"),
                };
                Ok(Action::Heavy(HeavyOp {
                    kind: HeavyKind::Batch(tasks),
                    deadline,
                }))
            }
            Some("check") => self.op_check(request).map(Action::Immediate),
            Some("stats") => self.op_stats().map(Action::Immediate),
            #[cfg(test)]
            Some("panic") => Ok(Action::Heavy(HeavyOp {
                kind: HeavyKind::Panic,
                deadline: None,
            })),
            #[cfg(test)]
            Some("panic_inline") => {
                // Panics on the connection thread, holding shard 0's
                // engine lock as an intern would.
                let _engine = relock(self.shared.shards.get(0).write());
                panic!("planted inline panic")
            }
            #[cfg(test)]
            Some("block") => Ok(Action::Heavy(HeavyOp {
                kind: HeavyKind::Block,
                deadline: None,
            })),
            Some(other) => Err(ProtoError::new(
                ErrKind::UnknownOp,
                format!("unknown op {other:?} (expected {})", op_names()),
            )),
            None => bad_request("field \"op\" must be a string"),
        }
    }

    /// The request's effective latency budget: the smaller of its
    /// `deadline_ms` and the server default, anchored now (= at frame
    /// arrival).
    fn deadline_of(&self, request: &Value) -> Result<Option<Instant>, ProtoError> {
        let requested = match &request["deadline_ms"] {
            Value::Null => None,
            v => match v.as_u64() {
                Some(ms) => Some(Duration::from_millis(ms)),
                None => {
                    return bad_request(
                        "field \"deadline_ms\" must be a non-negative integer (milliseconds)",
                    )
                }
            },
        };
        let budget = match (requested, self.shared.default_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Ok(budget.map(|d| Instant::now() + d))
    }

    /// Parses inline HTML and interns it onto its owning shard (parse
    /// happens *before* any lock; the owner's write lock is held only
    /// for the content-addressed insert). Returns the resolved page
    /// plus the parsed tree's node count. `lenient` selects browser-style
    /// recovery ([`PageTree::parse`], never fails) over the strict
    /// damage-rejecting parse.
    fn intern_html(&self, html: &str, lenient: bool) -> Result<(ResolvedPage, usize), ProtoError> {
        let tree = if lenient {
            PageTree::parse(html)
        } else {
            PageTree::try_parse(html)
                .map_err(|e| ProtoError::new(ErrKind::Page, EngineError::from(e).to_string()))?
        };
        let nodes = tree.len();
        let tree = Arc::new(tree);
        let owner = self.shared.shards.owner_of(content_digest(&tree));
        let id = {
            let mut engine = relock(self.shared.shards.get(owner).write());
            engine.store_mut().insert_shared(Arc::clone(&tree))
        };
        Ok((
            ResolvedPage {
                tree,
                owner,
                id_in_owner: id,
            },
            nodes,
        ))
    }

    fn op_intern(&self, request: &Value) -> Result<Value, ProtoError> {
        let html = str_field(request, "html")?;
        let lenient = bool_field(request, "lenient", false)?;
        let (page, nodes) = self.intern_html(html, lenient)?;
        let handle = self
            .shared
            .shards
            .encode_handle(page.owner, page.id_in_owner.index());
        let mut map = Map::new();
        map.insert("page".to_string(), serde_json::json!(handle));
        map.insert("nodes".to_string(), serde_json::json!(nodes));
        // Hex string: the digest is a full u64 and JSON numbers cannot
        // carry it faithfully. Matches the CLI's `import` output, so
        // client-side and server-side ingestion can be diffed directly.
        map.insert(
            "digest".to_string(),
            serde_json::json!(format!("{:016x}", content_digest(&page.tree))),
        );
        Ok(Value::Object(map))
    }

    /// Resolves one page reference onto its owning shard, interning
    /// inline HTML on the fly. Handles only take the owner's read lock.
    fn resolve(&self, r: PageRef) -> Result<ResolvedPage, ProtoError> {
        match r {
            PageRef::Handle(h) => {
                let (owner, local) = self.shared.shards.decode_handle(h);
                let engine = relock(self.shared.shards.get(owner).read());
                let id = engine.store().id_at(local as usize).ok_or_else(|| {
                    ProtoError::new(
                        ErrKind::UnknownPage,
                        format!("page handle {h} is unknown to this server"),
                    )
                })?;
                // `id_at` just resolved this id under the same read
                // lock, so `get` can only miss if the store is corrupt —
                // degrade typed rather than panic the connection thread.
                let tree = match engine.store().get(id) {
                    Ok(tree) => Arc::clone(tree),
                    Err(_) => {
                        return Err(ProtoError::new(
                            ErrKind::Internal,
                            format!("page handle {h} resolved to a missing store slot"),
                        ))
                    }
                };
                Ok(ResolvedPage {
                    tree,
                    owner,
                    id_in_owner: id,
                })
            }
            // Inline pages inside run/run_batch stay strict: only the
            // dedicated `intern` op takes the lenient opt-out.
            PageRef::Html(html) => self.intern_html(&html, false).map(|(page, _)| page),
        }
    }

    /// The home-shard-local id of a resolved page: its own id when it
    /// already lives on `home`, else the id of its `Arc`-shared copy
    /// pulled into the home shard's store. `home_engine` lazily caches
    /// the home shard's write lock so a task with many foreign pages
    /// pays for one acquisition — and a task with none (always the case
    /// at one shard) never takes a write lock at all.
    fn localize<'a>(
        &'a self,
        home_engine: &mut Option<std::sync::RwLockWriteGuard<'a, Engine>>,
        home: usize,
        page: &ResolvedPage,
    ) -> PageId {
        if page.owner == home {
            return page.id_in_owner;
        }
        let engine =
            home_engine.get_or_insert_with(|| relock(self.shared.shards.get(home).write()));
        engine.store_mut().insert_shared(Arc::clone(&page.tree))
    }

    /// Parses and fully resolves one run spec (the body of a `run`
    /// request, or one `tasks[]` entry of `run_batch`) into an engine
    /// [`Task`] plus its home shard (the owner of its first page
    /// reference; a pageless task runs on shard 0). Inline pages are
    /// interned here, on the connection thread — workers only ever
    /// synthesize. Foreign pages are pulled into the home shard so the
    /// run executes against a single store.
    fn parse_run_task(&self, request: &Value) -> Result<(Task, usize), ProtoError> {
        let question = str_field(request, "question")?.to_string();
        let keywords = string_list(request, "keywords")?;

        // Parse both page lists fully before touching the engine, so a
        // malformed tail can never leave a half-interned request behind.
        let labeled_specs: Vec<(PageRef, Vec<String>)> = match &request["labeled"] {
            Value::Null => Vec::new(),
            Value::Array(items) => items
                .iter()
                .map(|item| {
                    let r = page_ref(item, "labeled[] entry")?;
                    let gold = string_list(item, "gold")?;
                    Ok((r, gold))
                })
                .collect::<Result<_, ProtoError>>()?,
            _ => return bad_request("field \"labeled\" must be an array"),
        };
        let target_specs: Vec<PageRef> = match &request["targets"] {
            Value::Null => Vec::new(),
            Value::Array(items) => items
                .iter()
                .map(|item| page_ref(item, "targets[] entry"))
                .collect::<Result<_, ProtoError>>()?,
            _ => return bad_request("field \"targets\" must be an array"),
        };

        // Resolve every reference onto its owning shard, then pick the
        // home shard and localize: pages already home use their own id,
        // foreign pages are Arc-copied in under one write lock.
        let labeled: Vec<(ResolvedPage, Vec<String>)> = labeled_specs
            .into_iter()
            .map(|(r, gold)| self.resolve(r).map(|p| (p, gold)))
            .collect::<Result<_, _>>()?;
        let targets: Vec<ResolvedPage> = target_specs
            .into_iter()
            .map(|r| self.resolve(r))
            .collect::<Result<_, _>>()?;
        let home = labeled
            .first()
            .map(|(p, _)| p.owner)
            .or_else(|| targets.first().map(|p| p.owner))
            .unwrap_or(0);

        let mut task = Task::new(question, keywords);
        let mut home_engine = None;
        for (p, gold) in &labeled {
            let id = self.localize(&mut home_engine, home, p);
            task.labeled.push((id, gold.clone()));
        }
        for p in &targets {
            let id = self.localize(&mut home_engine, home, p);
            task.unlabeled.push(id);
        }
        Ok((task, home))
    }

    /// `check`: [`render_check`] of a program against an (optional)
    /// query context. Pure static analysis, answered inline like `ping`.
    fn op_check(&self, request: &Value) -> Result<Value, ProtoError> {
        let src = str_field(request, "program")?;
        let program: Program = src.parse().map_err(|e| {
            ProtoError::new(
                ErrKind::BadRequest,
                format!("field \"program\" does not parse: {e}"),
            )
        })?;
        let question = match &request["question"] {
            Value::Null => "",
            v => match v.as_str() {
                Some(q) => q,
                None => return bad_request("field \"question\" must be a string"),
            },
        };
        let ctx = QueryContext::new(question, string_list(request, "keywords")?);
        Ok(Value::Object(render_check(&program, &ctx)))
    }

    /// `stats`: one pass over the shards fills a [`ShardStats`] each,
    /// and the page and cache totals are derived from those entries, so
    /// the breakdown sums to them in every response.
    fn op_stats(&self) -> Result<Value, ProtoError> {
        let shared = &self.shared;
        let shards: Vec<ShardStats> = shared
            .shards
            .iter()
            .enumerate()
            .map(|(i, engine)| {
                let engine = relock(engine.read());
                ShardStats {
                    shard: i,
                    pages: engine.store().len(),
                    cache: engine.cache_stats(),
                }
            })
            .collect();
        let stats = StatsSnapshot {
            requests: shared.requests.load(Ordering::Relaxed),
            errors: shared.errors.load(Ordering::Relaxed),
            shed: shared.shed.load(Ordering::Relaxed),
            deadline_exceeded: shared.deadline_hits.load(Ordering::Relaxed),
            panics: shared.panics.load(Ordering::Relaxed),
            workers: shared.workers,
            backlog: shared.queue.capacity(),
            queue_depth: shared.queue.depth(),
            inflight: relock(shared.inflight.lock()).len() as u64,
            pages: shards.iter().map(|s| s.pages).sum(),
            uptime_ms: shared.started.elapsed().as_millis() as u64,
            cache: shards
                .iter()
                .fold(CacheStats::default(), |total, s| total.merged(s.cache)),
            shards,
        };
        serde_json::to_value(&stats).map_err(|e| ProtoError::new(ErrKind::Internal, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The typed `ok` body of a `stats` request.
    fn stats(s: &Server) -> StatsSnapshot {
        let v: Value = serde_json::from_str(&s.handle_line(r#"{"op":"stats"}"#)).expect("JSON");
        serde_json::from_value(v["ok"].clone()).expect("a stats body")
    }

    fn options() -> ServeOptions {
        ServeOptions {
            engine: webqa::Config {
                synth: webqa::SynthConfig::fast(),
                ..webqa::Config::default()
            },
            max_frame_bytes: 1 << 16,
            ..ServeOptions::default()
        }
    }

    fn server() -> Server {
        Server::new(options())
    }

    #[test]
    fn ping_echoes_the_id() {
        let s = server();
        assert_eq!(
            s.handle_line(r#"{"id":42,"op":"ping"}"#),
            r#"{"id":42,"ok":{"pong":true}}"#
        );
        // Ids are arbitrary JSON, echoed verbatim.
        assert_eq!(
            s.handle_line(r#"{"id":"abc","op":"ping"}"#),
            r#"{"id":"abc","ok":{"pong":true}}"#
        );
    }

    #[test]
    fn malformed_and_unknown_frames_are_typed_errors() {
        let s = server();
        let r = s.handle_line("this is not json");
        assert!(r.contains(r#""kind":"bad-frame""#), "{r}");
        let r = s.handle_line("[1,2,3]");
        assert!(r.contains(r#""kind":"bad-frame""#), "{r}");
        let r = s.handle_line(r#"{"op":"frobnicate"}"#);
        assert!(r.contains(r#""kind":"unknown-op""#), "{r}");
        let r = s.handle_line(r#"{"op":"run"}"#);
        assert!(r.contains(r#""kind":"bad-request""#), "{r}");
        // The server still works after every error.
        assert!(s.handle_line(r#"{"op":"ping"}"#).contains("pong"));
    }

    #[test]
    fn intern_is_content_addressed() {
        let s = server();
        let a = s.handle_line(r#"{"op":"intern","html":"<h1>A</h1><p>x</p>"}"#);
        let b = s.handle_line(r#"{"op":"intern","html":"<h1>A</h1><p>x</p>"}"#);
        assert_eq!(a, b);
        assert!(a.contains(r#""page":0"#), "{a}");
        let damaged = s.handle_line(r#"{"op":"intern","html":"<p>50&bogus;mg</p>"}"#);
        assert!(damaged.contains(r#""kind":"page""#), "{damaged}");
    }

    #[test]
    fn intern_lenient_flag_and_digest() {
        let s = server();
        // The strict default rejects this page; lenient interning
        // recovers it browser-style.
        let strict = s.handle_line(r#"{"op":"intern","html":"<p>50&bogus;mg</p>"}"#);
        assert!(strict.contains(r#""kind":"page""#), "{strict}");
        let lenient =
            s.handle_line(r#"{"op":"intern","html":"<p>50&bogus;mg</p>","lenient":true}"#);
        let v: Value = serde_json::from_str(&lenient).expect("valid JSON");
        assert!(v["ok"]["page"].as_u64().is_some(), "{lenient}");

        // The digest is the tree's content digest as 16 hex digits, and
        // it matches what the CLI computes for the same page.
        let digest = v["ok"]["digest"].as_str().expect("digest string");
        assert_eq!(digest.len(), 16, "{lenient}");
        let expected = format!(
            "{:016x}",
            content_digest(&PageTree::parse("<p>50&bogus;mg</p>"))
        );
        assert_eq!(digest, expected);

        // An explicit false behaves like the default; junk is typed.
        let explicit = s.handle_line(r#"{"op":"intern","html":"<p>x</p>","lenient":false}"#);
        assert!(explicit.contains(r#""digest":""#), "{explicit}");
        let junk = s.handle_line(r#"{"op":"intern","html":"<p>x</p>","lenient":"yes"}"#);
        assert!(junk.contains(r#""kind":"bad-request""#), "{junk}");
    }

    #[test]
    fn run_with_inline_pages_answers() {
        let s = server();
        let req = r#"{"id":1,"op":"run","question":"Who are the PhD students?","keywords":["Students"],"labeled":[{"html":"<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>","gold":["Jane Doe"]}],"targets":[{"html":"<h1>B</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>"}]}"#;
        let resp = s.handle_line(req);
        assert!(resp.contains(r#""answers":[["Wei Chen"]]"#), "{resp}");
        assert!(resp.contains(r#""train_f1":1.0"#), "{resp}");

        // Unknown handles are typed errors, and the engine survives.
        let bad = s.handle_line(
            r#"{"op":"run","question":"Q","keywords":[],"labeled":[{"page":999,"gold":["x"]}],"targets":[]}"#,
        );
        assert!(bad.contains(r#""kind":"unknown-page""#), "{bad}");
        let resp2 = s.handle_line(req);
        assert_eq!(
            resp2, resp,
            "repeat after an error must be byte-identical (and a cache hit)"
        );
    }

    #[test]
    fn run_batch_matches_individual_runs() {
        let s = server();
        let run_a = r#""question":"Who are the PhD students?","keywords":["Students"],"labeled":[{"html":"<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>","gold":["Jane Doe"]}],"targets":[{"html":"<h1>B</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>"}]"#;
        let batch = s.handle_line(&format!(
            r#"{{"id":9,"op":"run_batch","tasks":[{{{run_a}}},{{{run_a}}}]}}"#
        ));
        let v: Value = serde_json::from_str(&batch).expect("valid JSON");
        let results = v["ok"]["results"].as_array().expect("results array");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0], results[1], "identical tasks, identical bodies");

        // Each entry is exactly what a separate `run` would say.
        let single = s.handle_line(&format!(r#"{{"op":"run",{run_a}}}"#));
        let sv: Value = serde_json::from_str(&single).expect("valid JSON");
        assert_eq!(results[0], sv["ok"]);

        // A malformed task fails the whole batch before anything runs.
        let bad = s.handle_line(&format!(
            r#"{{"op":"run_batch","tasks":[{{{run_a}}},{{"keywords":[]}}]}}"#
        ));
        assert!(bad.contains(r#""kind":"bad-request""#), "{bad}");
        let not_array = s.handle_line(r#"{"op":"run_batch","tasks":7}"#);
        assert!(not_array.contains(r#""kind":"bad-request""#), "{not_array}");
    }

    /// `run` fields whose labeled page lives on shard `shard` of a
    /// two-shard server (digest mod 2), found by varying its heading,
    /// and whose one target lists `person`.
    fn fields_homed_on(shard: u64, person: &str) -> String {
        let labeled = (0..)
            .map(|i| format!("<h1>Lab {i}</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>"))
            .find(|html| content_digest(&PageTree::parse(html)) % 2 == shard)
            .expect("some heading lands on each shard");
        format!(
            r#""question":"Who are the PhD students?","keywords":["Students"],"labeled":[{{"html":"{labeled}","gold":["Jane Doe"]}}],"targets":[{{"html":"<h1>T</h1><h2>Advisees</h2><ul><li>{person}</li></ul>"}}]"#
        )
    }

    /// The `ok` body of a response line.
    fn ok_body(line: &str) -> Value {
        let v: Value = serde_json::from_str(line).expect("valid JSON");
        v["ok"].clone()
    }

    #[test]
    fn an_empty_run_batch_answers_no_results() {
        assert_eq!(
            server().handle_line(r#"{"id":4,"op":"run_batch","tasks":[]}"#),
            r#"{"id":4,"ok":{"results":[]}}"#
        );
    }

    #[test]
    fn a_batch_alternating_between_two_shards_answers_in_input_order() {
        let s = Server::new(ServeOptions {
            workers: 2,
            shards: 2,
            ..options()
        });
        let tasks = [
            fields_homed_on(0, "Wei Chen"),
            fields_homed_on(1, "Elena Petrov"),
        ];
        let order = [0, 1, 0, 1];
        let specs: Vec<String> = order.iter().map(|&i| format!("{{{}}}", tasks[i])).collect();
        let batch = ok_body(&s.handle_line(&format!(
            r#"{{"op":"run_batch","tasks":[{}]}}"#,
            specs.join(",")
        )));
        // Each task ran on its own home shard: one miss, then one hit.
        for shard in &stats(&s).shards {
            let c = shard.cache;
            assert_eq!((c.result_misses, c.result_hits), (1, 1), "{shard:?}");
        }
        let runs: Vec<Value> = tasks
            .iter()
            .map(|f| ok_body(&s.handle_line(&format!(r#"{{"op":"run",{f}}}"#))))
            .collect();
        assert_ne!(runs[0], runs[1], "the two tasks must be told apart");
        let results = batch["results"].as_array().expect("results array");
        assert_eq!(results.len(), order.len());
        for (entry, &i) in results.iter().zip(&order) {
            assert_eq!(entry, &runs[i]);
        }
    }

    #[test]
    fn a_run_after_a_run_batch_of_the_same_task_is_a_result_hit() {
        let s = server();
        let fields = fields_homed_on(0, "Wei Chen");
        let batch =
            ok_body(&s.handle_line(&format!(r#"{{"op":"run_batch","tasks":[{{{fields}}}]}}"#)));
        let before = stats(&s).cache;
        let run = ok_body(&s.handle_line(&format!(r#"{{"op":"run",{fields}}}"#)));
        let after = stats(&s).cache;
        assert_eq!(
            (after.result_hits, after.result_misses),
            (before.result_hits + 1, before.result_misses)
        );
        assert_eq!(batch["results"][0], run);
    }

    #[test]
    fn an_expired_batch_ends_with_one_deadline_error() {
        let s = server();
        let tasks = [
            fields_homed_on(0, "Wei Chen"),
            fields_homed_on(0, "Elena Petrov"),
        ];
        let specs = format!("{{{}}},{{{}}}", tasks[0], tasks[1]);
        let dead = s.handle_line(&format!(
            r#"{{"id":5,"op":"run_batch","deadline_ms":0,"tasks":[{specs}]}}"#
        ));
        assert!(
            dead.starts_with(r#"{"id":5,"err":{"kind":"deadline-exceeded","#),
            "{dead}"
        );
        // One trip for the whole batch, and the expired token let no
        // task reach the engine's caches.
        let st = stats(&s);
        assert_eq!(st.deadline_exceeded, 1);
        assert_eq!(st.cache.result_misses, 0, "{st:?}");
        let ok = ok_body(&s.handle_line(&format!(r#"{{"op":"run_batch","tasks":[{specs}]}}"#)));
        assert_eq!(ok["results"].as_array().map(Vec::len), Some(2));
    }

    #[test]
    fn deadline_ms_must_be_a_nonnegative_integer() {
        let s = server();
        let r = s.handle_line(
            r#"{"op":"run","deadline_ms":"soon","question":"Q","keywords":[],"labeled":[],"targets":[]}"#,
        );
        assert!(r.contains(r#""kind":"bad-request""#), "{r}");
        assert!(r.contains("deadline_ms"), "{r}");
    }

    #[test]
    fn expired_deadline_is_typed_and_the_engine_survives() {
        let s = server();
        let fields = r#""question":"Who are the PhD students?","keywords":["Students"],"labeled":[{"html":"<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>","gold":["Jane Doe"]}],"targets":[]"#;
        let dead = s.handle_line(&format!(r#"{{"op":"run","deadline_ms":0,{fields}}}"#));
        assert!(dead.contains(r#""kind":"deadline-exceeded""#), "{dead}");

        // The same task without a deadline runs fine afterwards: the
        // cancelled attempt cached nothing and poisoned nothing.
        let ok = s.handle_line(&format!(r#"{{"op":"run",{fields}}}"#));
        assert!(ok.contains(r#""train_f1":1.0"#), "{ok}");

        assert_eq!(stats(&s).deadline_exceeded, 1);
    }

    #[test]
    fn check_reports_verdicts_without_touching_the_engine() {
        let s = server();
        let resp = s.handle_line(
            r#"{"id":3,"op":"check","program":"sat(root, kw(0.60)) -> content; sat(root, true) -> content","keywords":["Students"]}"#,
        );
        let v: Value = serde_json::from_str(&resp).expect("valid JSON");
        assert_eq!(v["id"].as_u64(), Some(3));
        assert_eq!(v["ok"]["branches"].as_u64(), Some(2));
        assert_eq!(v["ok"]["clean"].as_bool(), Some(true));
        assert_eq!(v["ok"]["verdicts"].as_array().map(Vec::len), Some(0));
        assert!(v["ok"]["canonical_key"].as_str().is_some(), "{resp}");

        // Without keywords the kw-guard is provably false: findings are
        // the op's *output*, still an `ok` response.
        let dirty = s.handle_line(
            r#"{"op":"check","program":"sat(root, kw(0.60)) -> content; sat(root, true) -> content"}"#,
        );
        let v: Value = serde_json::from_str(&dirty).expect("valid JSON");
        assert_eq!(v["ok"]["clean"].as_bool(), Some(false));
        let verdicts = v["ok"]["verdicts"].as_array().expect("verdicts array");
        assert!(
            verdicts
                .iter()
                .any(|x| x.as_str() == Some("branch 0: guard is provably false")),
            "{dirty}"
        );

        // An unparsable program is a protocol error, not a finding —
        // and the op consumed no engine state: the store stays empty.
        let bad = s.handle_line(r#"{"op":"check","program":"sat(root,"}"#);
        assert!(bad.contains(r#""kind":"bad-request""#), "{bad}");
        assert_eq!(stats(&s).pages, 0);
    }

    /// An HTTP-only daemon on a loopback port.
    fn http_daemon(opts: ServeOptions) -> Listening {
        Server::new(opts)
            .listen_all(None, None, Some("127.0.0.1:0"))
            .expect("bind loopback")
    }

    /// `responses_sent` once it reaches `n` (a client can read its
    /// response just before the server counts it), or after 10 s.
    fn sent_after(listening: &Listening, n: u64) -> u64 {
        let t0 = Instant::now();
        while listening.responses_sent() < n && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        listening.responses_sent()
    }

    #[test]
    fn http_responses_are_counted_writes() {
        let listening = http_daemon(options());
        let addr = listening.http_addr().expect("http endpoint");
        let mut client = HttpClient::connect(addr).expect("connect");
        for _ in 0..2 {
            let (status, body) = client.get("/v1/ping").expect("ping");
            assert_eq!(
                (status, body.as_str()),
                (200, r#"{"id":null,"ok":{"pong":true}}"#)
            );
        }
        assert_eq!(sent_after(&listening, 2), 2);
        // Routing failures leave through the same counted write.
        let (status, _) = client.get("/v1/nope").expect("unknown path");
        assert_eq!(status, 404);
        assert_eq!(sent_after(&listening, 3), 3);
    }

    #[test]
    fn response_cap_covers_http_responses() {
        let listening = http_daemon(ServeOptions {
            max_responses: Some(2),
            ..options()
        });
        let addr = listening.http_addr().expect("http endpoint");
        let mut client = HttpClient::connect(addr).expect("connect");
        for _ in 0..2 {
            assert_eq!(client.get("/v1/ping").expect("ping").0, 200);
        }
        // `wait_for_responses` blocks until the count is reached, so
        // check the count first: a miscount fails instead of hanging.
        assert_eq!(sent_after(&listening, 2), 2);
        assert_eq!(listening.wait_for_responses(2), 2);
        // The cap is spent: a third request gets no response.
        assert!(client.get("/v1/ping").is_err());
    }

    /// Opens [`PLANTED_GATE`] when dropped, so a failing test releases
    /// its blocked workers and fails instead of hanging in shutdown.
    struct OpenGate;

    impl Drop for OpenGate {
        fn drop(&mut self) {
            let (open, opened) = &PLANTED_GATE;
            *relock(open.lock()) = true;
            opened.notify_all();
        }
    }

    #[test]
    fn an_http_request_shed_by_a_full_backlog_is_counted() {
        let listening = Server::new(ServeOptions {
            workers: 2,
            backlog: 2,
            shards: 2,
            ..options()
        })
        .listen_all(Some("127.0.0.1:0"), None, Some("127.0.0.1:0"))
        .expect("bind loopback");
        let gate = OpenGate;
        let settle = |done: &dyn Fn(&StatsSnapshot) -> bool| {
            let t0 = Instant::now();
            while !done(&stats(&listening.server())) {
                assert!(t0.elapsed() < Duration::from_secs(10), "never settled");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // Both blocked ops run on shard 0, and both workers take one:
        // the pool is the daemon's, not a shard's. Then fill both backlog
        // slots. (In-process `stats` calls write nothing, so they leave
        // the count alone.)
        let mut line = Client::connect_tcp(listening.tcp_addr().expect("tcp")).expect("connect");
        for id in 1..=2 {
            line.send_line(&format!(r#"{{"id":{id},"op":"block"}}"#))
                .expect("send");
        }
        settle(&|s| s.inflight == 2 && s.queue_depth == 0);
        for id in 3..=4 {
            line.send_line(&format!(r#"{{"id":{id},"op":"block"}}"#))
                .expect("send");
        }
        settle(&|s| s.queue_depth == 2);

        let addr = listening.http_addr().expect("http endpoint");
        let mut http = HttpClient::connect(addr).expect("connect");
        let (status, body) = http
            .post("/v1/run", r#"{"id":5,"question":"Q"}"#)
            .expect("a shed");
        assert_eq!(status, 503, "{body}");
        assert_eq!(
            body,
            r#"{"id":5,"err":{"kind":"overloaded","message":"admission queue full (backlog 2); request shed"}}"#
        );
        assert_eq!(sent_after(&listening, 1), 1);
        assert_eq!(stats(&listening.server()).shed, 1);

        // Open the gate: every blocked op answers on the line connection.
        drop(gate);
        for _ in 0..4 {
            let resp = line.read_response_line().expect("released");
            assert!(resp.ends_with(r#""ok":true}"#), "{resp}");
        }
        assert_eq!(sent_after(&listening, 5), 5);
    }

    #[test]
    fn one_worker_serves_four_shards_and_an_empty_backlog_admits_one_job() {
        let listening = Server::new(ServeOptions {
            workers: 1,
            backlog: 0,
            shards: 4,
            ..options()
        })
        .listen(Some("127.0.0.1:0"), None)
        .expect("bind loopback");
        let st = stats(&listening.server());
        assert_eq!((st.workers, st.backlog, st.shards.len()), (1, 1, 4));

        // A labeled page and two targets, each on its own shard.
        let on = |shard: u64, page: &dyn Fn(usize) -> String| {
            (0..)
                .map(page)
                .find(|html| content_digest(&PageTree::parse(html)) % 4 == shard)
                .expect("some heading lands on each shard")
        };
        let labeled = on(1, &|i| {
            format!("<h1>Lab {i}</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>")
        });
        let targets = [
            on(2, &|i| {
                format!("<h1>T{i}</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>")
            }),
            on(3, &|i| {
                format!("<h1>U{i}</h1><h2>Advisees</h2><ul><li>Elena Petrov</li></ul>")
            }),
        ];
        let mut client = Client::connect_tcp(listening.tcp_addr().expect("tcp")).expect("connect");
        let mut intern = |html: &str| {
            let frame = format!(r#"{{"op":"intern","html":"{html}"}}"#);
            ok_body(&client.request_line(&frame).expect("intern"))["page"]
                .as_u64()
                .expect("a handle")
        };
        let (lab, t0, t1) = (intern(&labeled), intern(&targets[0]), intern(&targets[1]));
        assert_eq!((lab % 4, t0 % 4, t1 % 4), (1, 2, 3));

        let question = r#""question":"Who are the PhD students?","keywords":["Students"]"#;
        let by_handle = format!(
            r#"{{"id":1,"op":"run",{question},"labeled":[{{"page":{lab},"gold":["Jane Doe"]}}],"targets":[{t0},{t1}]}}"#
        );
        let inline = format!(
            r#"{{"id":1,"op":"run",{question},"labeled":[{{"html":"{labeled}","gold":["Jane Doe"]}}],"targets":[{{"html":"{}"}},{{"html":"{}"}}]}}"#,
            targets[0], targets[1]
        );
        let resp = client.request_line(&by_handle).expect("run");
        assert_eq!(resp, server().handle_line(&inline));
        assert!(
            resp.contains(r#""answers":[["Wei Chen"],["Elena Petrov"]]"#),
            "{resp}"
        );
    }

    #[test]
    fn a_panicking_op_is_contained_and_its_worker_keeps_serving() {
        let run = r#"{"id":2,"op":"run","question":"Who are the PhD students?","keywords":["Students"],"labeled":[{"html":"<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>","gold":["Jane Doe"]}],"targets":[{"html":"<h1>B</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>"}]}"#;
        let want = server().handle_line(run);
        let listening = Server::new(ServeOptions {
            workers: 1,
            ..options()
        })
        .listen(Some("127.0.0.1:0"), None)
        .expect("bind loopback");
        let mut client = Client::connect_tcp(listening.tcp_addr().expect("tcp")).expect("connect");
        let resp = client
            .request_line(r#"{"id":1,"op":"panic"}"#)
            .expect("a response");
        assert!(
            resp.starts_with(r#"{"id":1,"err":{"kind":"internal","#),
            "{resp}"
        );
        // The one worker survived and serves the same bytes as a
        // reference server that never panicked.
        assert_eq!(client.request_line(run).expect("run"), want);
        let s = stats(&listening.server());
        assert_eq!((s.panics, s.errors, s.inflight), (1, 1, 0), "{s:?}");
        assert!(relock(listening.shared.inflight.lock()).is_empty());
    }

    /// `f`'s result, failing instead of hanging when it has not returned
    /// after 10 s (a request the server neither answers nor closes).
    fn within_10s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("no response within 10 s")
    }

    #[test]
    fn a_panicking_light_op_is_contained_and_its_connection_keeps_serving() {
        let run = r#"{"id":2,"op":"run","question":"Who are the PhD students?","keywords":["Students"],"labeled":[{"html":"<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>","gold":["Jane Doe"]}],"targets":[{"html":"<h1>B</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>"}]}"#;
        let want = server().handle_line(run);
        let listening = Server::new(options())
            .listen_all(Some("127.0.0.1:0"), None, Some("127.0.0.1:0"))
            .expect("bind loopback");
        let internal = r#"{"id":1,"err":{"kind":"internal","#;

        // The planted panic runs on the connection thread, holding a
        // shard's engine lock; the same connection then serves the same
        // bytes as a reference server that never panicked.
        let mut line = Client::connect_tcp(listening.tcp_addr().expect("tcp")).expect("connect");
        let (mut line, resp) = within_10s(move || {
            let resp = line.request_line(r#"{"id":1,"op":"panic_inline"}"#);
            (line, resp)
        });
        let resp = resp.expect("a response");
        assert!(resp.starts_with(internal), "{resp}");
        assert_eq!(line.request_line(run).expect("run"), want);

        let mut http = HttpClient::connect(listening.http_addr().expect("http")).expect("connect");
        let (mut http, resp) = within_10s(move || {
            let resp = http.post("/v1/panic_inline", r#"{"id":1}"#);
            (http, resp)
        });
        let (status, body) = resp.expect("a response");
        assert_eq!(status, 500, "{body}");
        assert!(body.starts_with(internal), "{body}");
        assert_eq!(http.post("/v1/run", run).expect("run"), (200, want));

        let s = stats(&listening.server());
        assert_eq!((s.panics, s.errors, s.inflight), (2, 2, 0), "{s:?}");
    }

    #[test]
    fn stats_body_is_pinned() {
        let s = Server::new(ServeOptions {
            workers: 2,
            backlog: 4,
            shards: 2,
            ..options()
        });
        let run = r#"{"op":"run","question":"Who are the PhD students?","keywords":["Students"],"labeled":[{"html":"<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>","gold":["Jane Doe"]}],"targets":[{"html":"<h1>B</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>"}]}"#;
        for line in [run, run, r#"{"op":"nope"}"#] {
            let _ = s.handle_line(line);
        }
        // Every key in order, and every value but the uptime.
        let body = s.handle_line(r#"{"op":"stats"}"#);
        let (head, tail) = body.split_once(r#""uptime_ms":"#).expect("uptime");
        let tail = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        assert_eq!(
            format!(r#"{head}"uptime_ms":0{tail}"#),
            r#"{"id":null,"ok":{"requests":4,"errors":1,"shed":0,"deadline_exceeded":0,"panics":0,"workers":2,"backlog":4,"queue_depth":0,"inflight":0,"pages":2,"uptime_ms":0,"cache":{"feature_hits":0,"feature_misses":1,"feature_evictions":0,"result_hits":1,"result_misses":1,"result_evictions":0,"features_enabled":true,"results_enabled":true},"shards":[{"shard":0,"pages":2,"cache":{"feature_hits":0,"feature_misses":1,"feature_evictions":0,"result_hits":1,"result_misses":1,"result_evictions":0,"features_enabled":true,"results_enabled":true}},{"shard":1,"pages":0,"cache":{"feature_hits":0,"feature_misses":0,"feature_evictions":0,"result_hits":0,"result_misses":0,"result_evictions":0,"features_enabled":true,"results_enabled":true}}]}}"#
        );
    }
}
