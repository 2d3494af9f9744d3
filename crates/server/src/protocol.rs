//! The wire protocol, and the pure machinery behind it: typed error
//! kinds, the response envelope, the op table, field extraction from
//! parsed frames, and the canonical renderings of a [`RunResult`] and
//! of a `check` report.
//!
//! Everything here is a function from values to values — no sockets —
//! so the whole protocol surface is unit-testable without a listener,
//! and the determinism harness (`tests/serve_api.rs`) can render its
//! *expected* responses through the very same code path the server uses.
//!
//! # Framing
//!
//! * One request per line: a UTF-8 JSON **object** terminated by `\n`
//!   (a trailing `\r` is tolerated and stripped). Blank lines are
//!   ignored.
//! * One response per line, **in completion order** — *not* request
//!   order. Clients may pipeline: send many requests without waiting,
//!   and correlate responses by the echoed `id`. Control ops and
//!   errors answer immediately; heavy ops answer whenever a worker
//!   finishes them, so a fast request overtakes a slow one on the same
//!   connection. Clients that never pipeline still see request order.
//! * Frames larger than the server's `max_frame_bytes` (default 1 MiB)
//!   get an `oversized` error response and the connection is then
//!   closed — framing cannot resync past an unread tail.
//! * A line that is not valid JSON (or not an object, or not UTF-8, or
//!   nested more than 128 levels deep) gets a `bad-frame` error; the
//!   connection stays open.
//! * EOF before a newline discards the partial frame and closes the
//!   connection quietly — a mid-request disconnect is never executed as
//!   a request and never poisons the shared engine.
//!
//! # Envelope
//!
//! Requests carry an operation (one of the `OPS` table) and an optional
//! correlation id (any JSON value, echoed verbatim; `null` when absent
//! or unparsable):
//!
//! ```text
//! → {"id": 1, "op": "<name>", ...op fields...}
//! ← {"id": 1, "ok": {...}}
//! ← {"id": 1, "err": {"kind": "<kind>", "message": "..."}}
//! ```
//!
//! The error kinds are the variants of `ErrKind`, whose docs say when
//! each is sent. Errors are responses like any other — the engine and
//! the connection remain fully usable afterwards (except `oversized`,
//! which closes). Over HTTP, an `ok` response is 200 and an error
//! carries its kind's status:
//!
//! | Error kind | HTTP status |
//! |---|---|
//! | `bad-frame` | 400 |
//! | `oversized` | 413 |
//! | `bad-request` | 400 |
//! | `unknown-op` | 404 |
//! | `page` | 422 |
//! | `unknown-page` | 404 |
//! | `overloaded` | 503 |
//! | `deadline-exceeded` | 504 |
//! | `internal` | 500 |
//!
//! # Operations
//!
//! | Op | HTTP method | HTTP route |
//! |---|---|---|
//! | `ping` | `GET` | `/v1/ping` |
//! | `intern` | `POST` | `/v1/intern` |
//! | `run` | `POST` | `/v1/run` |
//! | `run_batch` | `POST` | `/v1/run_batch` |
//! | `check` | `POST` | `/v1/check` |
//! | `stats` | `GET` | `/v1/stats` |
//!
//! `ping` answers `{"pong":true}`.
//!
//! `intern` parses and stores a page, returning its handle:
//!
//! ```text
//! → {"op":"intern","html":"<h1>A</h1>...","lenient":false}
//! ← {"id":null,"ok":{"page":0,"nodes":7,"digest":"91c5a6d2e03b7f14"}}
//! ```
//!
//! Interning is content-addressed (the store deduplicates): the same
//! HTML always yields the same handle, however many clients send it.
//! A handle is valid only within one daemon process: a restarted
//! daemon — even one warm-started from a snapshot, which reloads pages
//! in digest order — may give the same handle to a different page.
//! Clients re-intern after a restart to get a handle; the page and its
//! `"digest"` are the same as before.
//! Damaged HTML is rejected with `kind:"page"`. The optional `"lenient"`
//! flag (default `false`) parses with browser-style recovery instead —
//! the same opt-out `webqa-cli import --lenient` uses. `"digest"` is the
//! interned tree's content digest as a 16-hex-digit string (a u64 does
//! not survive JSON numbers); it equals the digest `import` prints for
//! the same page.
//!
//! `run` synthesizes and answers one task; its `ok` body is
//! [`render_run_result`]:
//!
//! ```text
//! → {"op":"run",
//!    "question": "Who are the PhD students?",
//!    "keywords": ["Students"],
//!    "labeled":  [{"page": 0, "gold": ["Jane Doe"]},
//!                 {"html": "<h1>B</h1>...", "gold": ["Mary"]}],
//!    "targets":  [1, {"html": "<h1>C</h1>..."}]}
//! ```
//!
//! Pages are referenced by handle (from `intern` on this daemon process
//! — handles do not survive a restart) or supplied inline as
//! `{"html": ...}`; inline pages are interned first, strictly. Unknown
//! handles yield `kind:"unknown-page"`. An optional `"deadline_ms": N`
//! bounds the request's latency from frame arrival (queue wait
//! included); when the server also has a default deadline, the smaller
//! budget wins.
//!
//! `run_batch` takes `"tasks": [{...run fields...}, ...]` and one
//! optional `deadline_ms`, and answers `{"results":[...]}` aligned with
//! `tasks`, every entry byte-identical to what a separate `run` would
//! have produced. The batch occupies **one** worker slot and runs its
//! tasks there one after another, in input order, each on its own home
//! shard. It is all-or-nothing: a malformed task fails the whole batch
//! before anything executes, and the first task that fails to run (a
//! deadline trip) ends the batch with that task's error.
//!
//! `stats` answers a serialized [`StatsSnapshot`](crate::StatsSnapshot),
//! whose field docs are the schema.
//!
//! `check` takes a `"program"` and an optional `"question"` and
//! `"keywords"`, and answers [`render_check`]: pure static analysis
//! against the query context, answered inline without an engine lock or
//! a worker slot. An unparsable program (including one nesting
//! parentheses more than 256 levels deep) is a `bad-request`; findings
//! are the op's *output* (`"clean": false`), not a protocol failure.

use serde_json::{Map, Value};
use webqa::{lint, Analyzer, Program, QueryContext, RunResult};

/// The typed error kinds of the wire protocol (the `err.kind` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ErrKind {
    /// The frame was not a valid JSON object (unparsable bytes, non-UTF-8
    /// content, or a non-object top level). The connection stays open.
    BadFrame,
    /// The frame exceeded the server's `max_frame_bytes`. The connection
    /// is closed after the response — framing cannot resync past an
    /// unread tail.
    Oversized,
    /// The request was a well-formed frame with missing or ill-typed
    /// fields for its `op`.
    BadRequest,
    /// The `op` field named no operation this server implements.
    UnknownOp,
    /// Page ingestion failed (damaged HTML rejected by the strict
    /// parser).
    Page,
    /// A page handle that this server never issued.
    UnknownPage,
    /// The admission queue was full when the request arrived: the server
    /// shed it without executing anything. The connection stays open;
    /// retrying later (or against a server with a larger `backlog`) is
    /// the client's call.
    Overloaded,
    /// The request's latency budget (its `deadline_ms`, the server's
    /// default deadline, or both) expired before the run finished — in
    /// the queue or mid-synthesis. The engine state is untouched: a
    /// cancelled run caches nothing and poisons nothing.
    DeadlineExceeded,
    /// Anything else — the engine failed in a way the protocol does not
    /// classify, or the operation panicked (the panic is contained to
    /// its request; the server keeps serving).
    Internal,
}

impl ErrKind {
    /// The wire spelling of the kind.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ErrKind::BadFrame => "bad-frame",
            ErrKind::Oversized => "oversized",
            ErrKind::BadRequest => "bad-request",
            ErrKind::UnknownOp => "unknown-op",
            ErrKind::Page => "page",
            ErrKind::UnknownPage => "unknown-page",
            ErrKind::Overloaded => "overloaded",
            ErrKind::DeadlineExceeded => "deadline-exceeded",
            ErrKind::Internal => "internal",
        }
    }

    /// The HTTP status of a response carrying this kind; an `ok`
    /// response is 200. The HTTP facade adds only two statuses of its
    /// own: 405 for a known path with the wrong method, and 411 for a
    /// request framed by `Transfer-Encoding`.
    pub(crate) fn http_status(self) -> u16 {
        match self {
            ErrKind::BadFrame | ErrKind::BadRequest => 400,
            ErrKind::UnknownOp | ErrKind::UnknownPage => 404,
            ErrKind::Oversized => 413,
            ErrKind::Page => 422,
            ErrKind::Overloaded => 503,
            ErrKind::DeadlineExceeded => 504,
            ErrKind::Internal => 500,
        }
    }
}

/// One operation of the wire protocol and its HTTP/1.1 route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// The request's `op` field.
    pub name: &'static str,
    /// The method of the op's HTTP route.
    pub method: &'static str,
    /// The path of the op's HTTP route.
    pub path: &'static str,
}

/// Every operation the server implements, with its HTTP route. The
/// line protocol's unknown-op error, the HTTP facade's router and the
/// CLI's `client --http` all read this table.
pub(crate) const OPS: [Op; 6] = [
    Op {
        name: "ping",
        method: "GET",
        path: "/v1/ping",
    },
    Op {
        name: "intern",
        method: "POST",
        path: "/v1/intern",
    },
    Op {
        name: "run",
        method: "POST",
        path: "/v1/run",
    },
    Op {
        name: "run_batch",
        method: "POST",
        path: "/v1/run_batch",
    },
    Op {
        name: "check",
        method: "POST",
        path: "/v1/check",
    },
    Op {
        name: "stats",
        method: "GET",
        path: "/v1/stats",
    },
];

/// The `OPS` entry named `name`.
pub fn op_named(name: &str) -> Option<Op> {
    OPS.iter().copied().find(|op| op.name == name)
}

/// The op names as error messages list them: `ping|intern|...`.
pub fn op_names() -> String {
    OPS.map(|op| op.name).join("|")
}

/// A typed protocol error: kind plus a human-readable message.
#[derive(Debug, Clone)]
pub(crate) struct ProtoError {
    /// The typed kind (stable wire vocabulary).
    pub kind: ErrKind,
    /// Human-readable detail, not part of the stable surface.
    pub message: String,
}

impl ProtoError {
    /// Builds an error.
    pub(crate) fn new(kind: ErrKind, message: impl Into<String>) -> Self {
        ProtoError {
            kind,
            message: message.into(),
        }
    }
}

/// Shorthand for `Err(ProtoError::new(..))` in extraction helpers.
pub(crate) fn bad_request<T>(message: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError::new(ErrKind::BadRequest, message))
}

/// A rendered response: the one-line envelope plus the kind of the
/// error it carries (`None` for `ok`), so a transport can pick its
/// status without re-reading the envelope.
#[derive(Debug, Clone)]
pub(crate) struct Response {
    pub(crate) envelope: String,
    pub(crate) kind: Option<ErrKind>,
}

impl Response {
    pub(crate) fn new(id: Value, outcome: Result<Value, ProtoError>) -> Response {
        Response {
            kind: outcome.as_ref().err().map(|e| e.kind),
            envelope: envelope(id, outcome),
        }
    }

    /// The HTTP status: 200 for `ok`, else [`ErrKind::http_status`].
    pub(crate) fn http_status(&self) -> u16 {
        self.kind.map_or(200, ErrKind::http_status)
    }
}

/// Renders the one-line response envelope: `{"id":…,"ok":…}` on success,
/// `{"id":…,"err":{"kind":…,"message":…}}` on failure. `id` is the
/// request's `id` field echoed verbatim (JSON `null` when absent or when
/// the frame never parsed).
pub(crate) fn envelope(id: Value, outcome: Result<Value, ProtoError>) -> String {
    let mut map = Map::new();
    map.insert("id".to_string(), id);
    match outcome {
        Ok(body) => {
            map.insert("ok".to_string(), body);
        }
        Err(e) => {
            let mut err = Map::new();
            err.insert(
                "kind".to_string(),
                Value::String(e.kind.as_str().to_string()),
            );
            err.insert("message".to_string(), Value::String(e.message));
            map.insert("err".to_string(), Value::Object(err));
        }
    }
    serde_json::to_string(&Value::Object(map)).unwrap_or_else(|_| {
        // Unreachable for tree-shaped `Value`s, but a worker thread must
        // answer *something* rather than panic while holding shared
        // state — degrade to a well-formed internal error.
        r#"{"id":null,"err":{"kind":"internal","message":"response serialization failed"}}"#
            .to_string()
    })
}

/// The canonical rendering of a completed run — the `ok` body of a `run`
/// response:
///
/// ```text
/// {"program": "sat(...) -> ...",        // null when nothing found
///  "train_f1": 1.0,
///  "counts": {"matched":3,"predicted":3,"gold":3},
///  "total_optimal": 12,
///  "answers": [["Wei Chen"], ["..."]]}  // aligned with targets
/// ```
///
/// Public so test harnesses can render the *expected* body
/// from a reference engine's [`RunResult`] through the identical code
/// path and compare responses byte for byte.
pub fn render_run_result(result: &RunResult) -> Value {
    let mut map = Map::new();
    map.insert(
        "program".to_string(),
        match &result.program {
            Some(p) => Value::String(p.to_string()),
            None => Value::Null,
        },
    );
    map.insert(
        "train_f1".to_string(),
        serde_json::json!(result.synthesis.f1),
    );
    let mut counts = Map::new();
    counts.insert(
        "matched".to_string(),
        serde_json::json!(result.synthesis.counts.matched),
    );
    counts.insert(
        "predicted".to_string(),
        serde_json::json!(result.synthesis.counts.predicted),
    );
    counts.insert(
        "gold".to_string(),
        serde_json::json!(result.synthesis.counts.gold),
    );
    map.insert("counts".to_string(), Value::Object(counts));
    map.insert(
        "total_optimal".to_string(),
        serde_json::json!(result.synthesis.total_optimal),
    );
    map.insert("answers".to_string(), serde_json::json!(result.answers));
    Value::Object(map)
}

/// The `ok` body of a `check`: the program's canonical text, size and
/// branch count, its [`lint`] issues, the [`Analyzer`]'s verdicts, its
/// canonical key, and `clean` (no issue and no verdict). Public so
/// `webqa-cli check --json` prints the very same object.
pub fn render_check(program: &Program, ctx: &QueryContext) -> Map<String, Value> {
    let report = lint(program, ctx);
    let analysis = Analyzer::new(ctx).analyze(program);
    let verdicts = analysis.verdicts();
    let clean = report.is_clean() && verdicts.is_empty();
    let strings = |items: Vec<String>| Value::Array(items.into_iter().map(Value::String).collect());
    let mut map = Map::new();
    map.insert("program".to_string(), Value::String(program.to_string()));
    map.insert("size".to_string(), serde_json::json!(program.size()));
    map.insert(
        "branches".to_string(),
        serde_json::json!(program.branches.len()),
    );
    map.insert(
        "lint".to_string(),
        strings(report.issues.iter().map(|i| i.to_string()).collect()),
    );
    map.insert("verdicts".to_string(), strings(verdicts));
    map.insert(
        "canonical_key".to_string(),
        Value::String(analysis.canonical_key),
    );
    map.insert("clean".to_string(), Value::Bool(clean));
    map
}

/// Extracts a required string field.
pub(crate) fn str_field<'v>(obj: &'v Value, name: &str) -> Result<&'v str, ProtoError> {
    match obj[name].as_str() {
        Some(s) => Ok(s),
        None => bad_request(format!("field {name:?} must be a string")),
    }
}

/// Extracts an optional boolean field (absent = `default`).
pub(crate) fn bool_field(obj: &Value, name: &str, default: bool) -> Result<bool, ProtoError> {
    match &obj[name] {
        Value::Null => Ok(default),
        Value::Bool(b) => Ok(*b),
        _ => bad_request(format!("field {name:?} must be a boolean")),
    }
}

/// Extracts an optional array-of-strings field (absent = empty).
pub(crate) fn string_list(obj: &Value, name: &str) -> Result<Vec<String>, ProtoError> {
    match &obj[name] {
        Value::Null => Ok(Vec::new()),
        Value::Array(items) => items
            .iter()
            .map(|v| match v.as_str() {
                Some(s) => Ok(s.to_string()),
                None => bad_request(format!("field {name:?} must contain only strings")),
            })
            .collect(),
        _ => bad_request(format!("field {name:?} must be an array of strings")),
    }
}

/// A page reference in a request: either a handle issued by `intern` or
/// inline HTML to be interned on the fly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PageRef {
    Handle(u64),
    Html(String),
}

/// Parses a page reference: a bare number, or an object with exactly one
/// of `"page"` (handle) / `"html"` (inline source).
pub(crate) fn page_ref(v: &Value, what: &str) -> Result<PageRef, ProtoError> {
    if let Some(n) = v.as_u64() {
        return Ok(PageRef::Handle(n));
    }
    if v.as_object().is_some() {
        match (v["page"].as_u64(), v["html"].as_str()) {
            (Some(n), None) => return Ok(PageRef::Handle(n)),
            (None, Some(h)) => return Ok(PageRef::Html(h.to_string())),
            _ => {}
        }
    }
    bad_request(format!(
        "{what} must be a page handle or an object with exactly one of \"page\" / \"html\""
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_shapes() {
        let ok = envelope(serde_json::json!(7u64), Ok(Value::Bool(true)));
        assert_eq!(ok, r#"{"id":7,"ok":true}"#);
        let err = envelope(Value::Null, Err(ProtoError::new(ErrKind::BadFrame, "nope")));
        assert_eq!(
            err,
            r#"{"id":null,"err":{"kind":"bad-frame","message":"nope"}}"#
        );
    }

    #[test]
    fn page_refs_parse_both_spellings() {
        assert_eq!(
            page_ref(&serde_json::json!(3u64), "target").unwrap(),
            PageRef::Handle(3)
        );
        let v: Value = serde_json::from_str(r#"{"html":"<p>x</p>"}"#).unwrap();
        assert_eq!(
            page_ref(&v, "target").unwrap(),
            PageRef::Html("<p>x</p>".to_string())
        );
        let both: Value = serde_json::from_str(r#"{"html":"x","page":1}"#).unwrap();
        assert!(page_ref(&both, "target").is_err());
        assert!(page_ref(&Value::String("x".into()), "target").is_err());
    }

    #[test]
    fn bool_fields_default_and_reject_junk() {
        let v: Value = serde_json::from_str(r#"{"lenient":true}"#).unwrap();
        assert!(bool_field(&v, "lenient", false).unwrap());
        assert!(!bool_field(&v, "absent", false).unwrap());
        assert!(bool_field(&v, "absent", true).unwrap());
        let junk: Value = serde_json::from_str(r#"{"lenient":"yes"}"#).unwrap();
        assert!(bool_field(&junk, "lenient", false).is_err());
    }

    #[test]
    fn error_kinds_have_stable_spellings() {
        for (k, s) in [
            (ErrKind::BadFrame, "bad-frame"),
            (ErrKind::Oversized, "oversized"),
            (ErrKind::BadRequest, "bad-request"),
            (ErrKind::UnknownOp, "unknown-op"),
            (ErrKind::Page, "page"),
            (ErrKind::UnknownPage, "unknown-page"),
            (ErrKind::Overloaded, "overloaded"),
            (ErrKind::DeadlineExceeded, "deadline-exceeded"),
            (ErrKind::Internal, "internal"),
        ] {
            assert_eq!(k.as_str(), s);
        }
    }

    #[test]
    fn error_kinds_map_to_http_statuses() {
        for (k, status) in [
            (ErrKind::BadFrame, 400),
            (ErrKind::Oversized, 413),
            (ErrKind::BadRequest, 400),
            (ErrKind::UnknownOp, 404),
            (ErrKind::Page, 422),
            (ErrKind::UnknownPage, 404),
            (ErrKind::Overloaded, 503),
            (ErrKind::DeadlineExceeded, 504),
            (ErrKind::Internal, 500),
        ] {
            assert_eq!(k.http_status(), status, "{k:?}");
            let err = Response::new(Value::Null, Err(ProtoError::new(k, "x")));
            assert_eq!(err.http_status(), status, "{k:?}");
        }
        assert_eq!(
            Response::new(Value::Null, Ok(Value::Bool(true))).http_status(),
            200
        );
    }

    /// The module doc's two tables spell out exactly what `ErrKind` and
    /// `OPS` define, row for row.
    #[test]
    fn module_doc_tables_match_the_wire_vocabulary() {
        let doc: String = include_str!("protocol.rs")
            .lines()
            .take_while(|line| line.starts_with("//!"))
            .map(|line| format!("{line}\n"))
            .collect();
        let kinds = [
            ErrKind::BadFrame,
            ErrKind::Oversized,
            ErrKind::BadRequest,
            ErrKind::UnknownOp,
            ErrKind::Page,
            ErrKind::UnknownPage,
            ErrKind::Overloaded,
            ErrKind::DeadlineExceeded,
            ErrKind::Internal,
        ];
        let kind_rows = kinds.map(|k| format!("| `{}` | {} |", k.as_str(), k.http_status()));
        let op_rows = OPS.map(|op| format!("| `{}` | `{}` | `{}` |", op.name, op.method, op.path));
        for row in kind_rows.iter().chain(&op_rows) {
            assert!(
                doc.contains(&format!("//! {row}\n")),
                "module doc lacks {row}"
            );
        }
        // One row per kind and per op, and no stale extras.
        let rows = doc.lines().filter(|l| l.starts_with("//! | `")).count();
        assert_eq!(rows, kind_rows.len() + op_rows.len());
    }

    #[test]
    fn op_table_names_each_op_and_route_once() {
        assert_eq!(op_names(), "ping|intern|run|run_batch|check|stats");
        for op in OPS {
            assert_eq!(op.path, format!("/v1/{}", op.name), "{op:?}");
            assert_eq!(op_named(op.name), Some(op));
            let heavy_or_bodied = !matches!(op.name, "ping" | "stats");
            assert_eq!(op.method, if heavy_or_bodied { "POST" } else { "GET" });
        }
        assert_eq!(op_named("launch-missiles"), None);
    }
}
