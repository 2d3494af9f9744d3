//! The HTTP/1.1 facade's framing: reading a request head and its
//! `Content-Length` body, routing the path through [`OPS`], and writing
//! the status line. The facade's contract (routes, body, status codes,
//! keep-alive) is in the crate docs; what a request means is the line
//! protocol's business — each request goes through the same
//! [`Server::submit`] as a line frame, and a heavy op's worker hands its
//! response back over a channel made for that one request.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use serde_json::Value;

use crate::net::{accept_loop, read_frame, Frame};
use crate::pool::Reply;
use crate::protocol::{ErrKind, Response, OPS};
use crate::{Server, Shared};

/// Maximum header lines per request — far above any legitimate client,
/// low enough that a drip-feed of garbage headers cannot pin a thread.
const MAX_HEADERS: usize = 100;

/// Spawns the accept thread for the HTTP facade's listener.
pub(crate) fn accept_http(shared: Arc<Shared>, listener: TcpListener) -> JoinHandle<()> {
    accept_loop(
        shared,
        listener,
        |l: &TcpListener| l.accept().map(|(s, _)| s),
        serve_http_conn,
    )
}

/// One parsed request head plus its (already consumed) body.
struct HttpRequest {
    method: String,
    path: String,
    /// Close after responding: `Connection: close`, or HTTP/1.0.
    close: bool,
    body: String,
}

/// How a request attempt ends when no well-formed request was read.
enum ReadOutcome {
    /// A complete request (body consumed — keep-alive stays in sync).
    Request(HttpRequest),
    /// Clean end of the connection (EOF between requests, transport
    /// error, or shutdown).
    Closed,
    /// A protocol-level failure to respond to, then close: the status
    /// when the kind's own does not fit, the error kind, and a message.
    Fail(Option<u16>, ErrKind, String),
}

fn fail(kind: ErrKind, message: impl Into<String>) -> ReadOutcome {
    ReadOutcome::Fail(None, kind, message.into())
}

/// Reads one HTTP/1.1 request (head + `Content-Length` body) from the
/// connection. Never leaves the stream mid-request: every `Fail` is
/// followed by a close.
fn read_request(reader: &mut BufReader<TcpStream>, max: usize) -> ReadOutcome {
    // Request line (tolerating blank lines before it, as HTTP allows).
    let line = loop {
        match read_frame(reader, max) {
            Frame::Line(l) if l.is_empty() => continue,
            Frame::Line(l) => break l,
            Frame::Eof | Frame::Io => return ReadOutcome::Closed,
            Frame::Oversized => {
                return fail(
                    ErrKind::Oversized,
                    format!("request line exceeds max_frame_bytes ({max})"),
                )
            }
            Frame::BadUtf8 => return fail(ErrKind::BadFrame, "request line is not UTF-8"),
        }
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
        _ => {
            return fail(
                ErrKind::BadFrame,
                "malformed request line (expected \"METHOD PATH VERSION\")",
            )
        }
    };
    let mut close = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        other => {
            return fail(
                ErrKind::BadFrame,
                format!("unsupported protocol version {other:?}"),
            )
        }
    };

    // Headers: only Content-Length and Connection matter to the facade.
    let mut content_length: Option<usize> = None;
    for n in 0.. {
        if n >= MAX_HEADERS {
            return fail(ErrKind::BadFrame, "too many headers");
        }
        let header = match read_frame(reader, max) {
            Frame::Line(l) if l.is_empty() => break,
            Frame::Line(l) => l,
            Frame::Eof | Frame::Io => return ReadOutcome::Closed,
            Frame::Oversized => {
                return fail(
                    ErrKind::Oversized,
                    format!("header exceeds max_frame_bytes ({max})"),
                )
            }
            Frame::BadUtf8 => return fail(ErrKind::BadFrame, "header is not UTF-8"),
        };
        let Some((name, value)) = header.split_once(':') else {
            return fail(
                ErrKind::BadFrame,
                format!("malformed header line {header:?}"),
            );
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                // Framing is the one thing a facade must never guess at:
                // a second Content-Length (even an equal one) means the
                // sender and this parser may disagree on where the body
                // ends, and on a keep-alive connection the leftover body
                // bytes would be parsed as the next request's head
                // (request smuggling). Refuse and close.
                Ok(n) if content_length.is_some() => {
                    return fail(
                        ErrKind::BadFrame,
                        format!("duplicate Content-Length header ({n})"),
                    )
                }
                Ok(n) => content_length = Some(n),
                Err(_) => {
                    return fail(
                        ErrKind::BadFrame,
                        format!("unparsable Content-Length {value:?}"),
                    )
                }
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Same smuggling hazard, worse: this facade frames by
            // Content-Length only, so a chunked body would be read as
            // zero-length and its bytes replayed as subsequent requests.
            // 411: the client must resend with a Content-Length.
            return ReadOutcome::Fail(
                Some(411),
                ErrKind::BadFrame,
                format!("Transfer-Encoding {value:?} unsupported: this endpoint frames by Content-Length only"),
            );
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }

    // Body: Content-Length framing only, under the frame-size cap.
    let body = match content_length {
        None | Some(0) => String::new(),
        Some(n) if n > max => {
            return fail(
                ErrKind::Oversized,
                format!("body of {n} bytes exceeds max_frame_bytes ({max})"),
            )
        }
        Some(n) => {
            let mut buf = vec![0u8; n];
            if reader.read_exact(&mut buf).is_err() {
                return ReadOutcome::Closed;
            }
            match String::from_utf8(buf) {
                Ok(s) => s,
                Err(_) => return fail(ErrKind::BadFrame, "body is not UTF-8"),
            }
        }
    };

    ReadOutcome::Request(HttpRequest {
        method,
        path,
        close,
        body,
    })
}

/// The op a route maps to, or why it maps to nothing.
enum Route {
    Op(&'static str),
    /// Known path, wrong method: the method it wanted.
    WrongMethod(&'static str),
    Unknown,
}

fn route(method: &str, path: &str) -> Route {
    // The planted light-op panic of the containment tests, which no
    // `OPS` route reaches.
    #[cfg(test)]
    if path == "/v1/panic_inline" {
        return Route::Op("panic_inline");
    }
    match OPS.iter().find(|op| op.path == path) {
        None => Route::Unknown,
        Some(op) if op.method == method => Route::Op(op.name),
        Some(op) => Route::WrongMethod(op.method),
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one response: the head, then the body, then a flush.
fn write_http(stream: &mut TcpStream, status: u16, body: &str, close: bool) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}\r\n",
        reason(status),
        body.len(),
        if close { "Connection: close\r\n" } else { "" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Serves one HTTP connection until close, EOF, a framing error, or
/// shutdown — one request at a time, keep-alive between them.
pub(crate) fn serve_http_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let server = Server {
        shared: Arc::clone(shared),
    };
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut write = |status: Option<u16>, response: &Response, close: bool| {
        let status = status.unwrap_or_else(|| response.http_status());
        shared.write_counted(|| write_http(&mut stream, status, &response.envelope, close))
    };
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let request = match read_request(&mut reader, shared.max_frame_bytes) {
            ReadOutcome::Request(r) => r,
            ReadOutcome::Closed => return,
            ReadOutcome::Fail(status, kind, message) => {
                // The stream may be out of sync past the failure, so
                // this is always a closing response.
                let _ = write(status, &server.frame_error(kind, message), true);
                return;
            }
        };

        let (status, response) = match route(&request.method, &request.path) {
            Route::Unknown => {
                let [rest @ .., last] = OPS.map(|op| op.path);
                let message = format!(
                    "unknown path {} (expected {}, or {last})",
                    request.path,
                    rest.join(", ")
                );
                (None, server.frame_error(ErrKind::UnknownOp, message))
            }
            Route::WrongMethod(expected) => {
                let message = format!(
                    "method {} not allowed for {} (expected {expected})",
                    request.method, request.path
                );
                (Some(405), server.frame_error(ErrKind::BadRequest, message))
            }
            Route::Op(op) => {
                // The body is the line protocol's request object with
                // the op injected from the path (an empty body means an
                // empty object — the GET ops take no fields).
                let parsed = if request.body.is_empty() {
                    Ok(Value::Object(serde_json::Map::new()))
                } else {
                    serde_json::from_str::<Value>(&request.body)
                };
                match parsed {
                    Err(_) => (
                        None,
                        server.frame_error(ErrKind::BadFrame, "body is not valid JSON"),
                    ),
                    Ok(mut v) => {
                        if let Value::Object(obj) = &mut v {
                            obj.insert("op".to_string(), Value::String(op.to_string()));
                        }
                        let (id, classified) = server.classify_value(v);
                        // One channel per request, its only sender moved
                        // into the job: shutdown drops a queued job, and
                        // with it the sender, which ends this `recv`.
                        let (reply_to, reply) = mpsc::channel();
                        match server.submit(id, classified, Reply::Http(reply_to)) {
                            Some(response) => (None, response),
                            None => match reply.recv() {
                                Ok(response) => (None, response),
                                // Shut down before the response landed:
                                // close without one.
                                Err(_) => return,
                            },
                        }
                    }
                }
            }
        };

        if !write(status, &response, request.close) || request.close {
            return;
        }
    }
}

/// A thin blocking client for the HTTP/1.1 facade: one request out, one
/// response back, keep-alive across calls. Suitable for scripting and
/// test harnesses; open several clients for concurrency.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connects to a facade endpoint.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient {
            reader,
            writer: stream,
        })
    }

    /// Sends one request and reads its response, returning the status
    /// code and the body (the line protocol's response envelope).
    ///
    /// # Errors
    ///
    /// Transport errors, or [`io::ErrorKind::InvalidData`] when the
    /// server's response cannot be parsed.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let head = if body.is_empty() {
            format!("{method} {path} HTTP/1.1\r\n\r\n")
        } else {
            format!(
                "{method} {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
        };
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// `POST` with a JSON body — the shape of `run`, `run_batch`, and
    /// `intern` calls.
    ///
    /// # Errors
    ///
    /// As [`HttpClient::request`].
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request("POST", path, body)
    }

    /// Bodyless `GET` — the shape of `ping` and `stats` calls.
    ///
    /// # Errors
    ///
    /// As [`HttpClient::request`].
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request("GET", path, "")
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        let status_line = self.read_line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed status line {status_line:?}"),
                )
            })?;
        let mut content_length = 0usize;
        loop {
            let header = self.read_line()?;
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().map_err(|_| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unparsable Content-Length {value:?}"),
                        )
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}
