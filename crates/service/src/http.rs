//! The HTTP/1.1 gateway: browsers and `curl` as first-class clients.
//!
//! A thin, std-only translation of the HTTP verbs onto the exact same
//! job layer the NDJSON protocol drives: the routes for loads, submits,
//! cancels and stats become the protocol's [`Request`]s and go through
//! the one dispatcher both front-ends share, whose reply event maps onto
//! a status code. So admission control, the FIFO-fair gate, the pinned
//! LRU cache, the [`run_job`](crate::job::run_job) drive and the `load`
//! span are the same, and a step-budgeted job yields a byte-identical
//! partition on either transport:
//!
//! | request | effect | response |
//! |---|---|---|
//! | `PUT /instances/:key?format=metis` | load body as the instance | `200` `loaded` JSON |
//! | `POST /jobs` | submit (body = the NDJSON `submit` object) | `202` `accepted`, `429` `rejected` (+ `Retry-After`), or `400` `error` |
//! | `GET /jobs/:id/events` | stream the job's events | `200` chunked NDJSON (`improvement`* then `done`) |
//! | `DELETE /jobs/:id` | cancel | `200` `cancelling` JSON |
//! | `GET /stats` | statistics snapshot | `200` `stats` JSON |
//! | `GET /metrics` | Prometheus scrape | `200` text exposition (v0.0.4) |
//!
//! Response bodies are the protocol's event objects, so an HTTP client
//! and an NDJSON client parse the same schema. Unlike an NDJSON
//! connection, an HTTP job's events are buffered server-side (bounded
//! retention after completion) and replayed to any number of
//! `GET /jobs/:id/events` readers — closing the browser tab does not
//! cancel the job; `DELETE` does.

use crate::cache::{GraphFormat, GraphSource};
use crate::protocol::{Event, JobRequest, Request};
use crate::server::{dispatch, read_line_capped, LineRead, ServerState, MAX_LINE_BYTES};
use crate::sync::{lock, wait};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Condvar, Mutex};

/// Hard cap on one request head (request line + all headers).
const MAX_HEAD_BYTES: usize = 16 << 10;

/// Per-header-line cap (within [`MAX_HEAD_BYTES`]).
const MAX_HEADER_LINE: usize = 8 << 10;

/// A job's buffered event stream: NDJSON lines appended as the driver
/// thread emits them, replayable from the start by any number of
/// readers, with a condvar wakeup for live tailing.
pub(crate) struct EventLog {
    state: Mutex<LogState>,
    cv: Condvar,
}

struct LogState {
    lines: Vec<String>,
    done: bool,
}

impl EventLog {
    pub(crate) fn new() -> Arc<EventLog> {
        Arc::new(EventLog {
            state: Mutex::new(LogState {
                lines: Vec::new(),
                done: false,
            }),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn push_line(&self, line: String) {
        let mut st = lock(&self.state);
        st.lines.push(line);
        drop(st);
        self.cv.notify_all();
    }

    /// Marks the stream complete (the job's `done` event is in the log).
    pub(crate) fn finish(&self) {
        lock(&self.state).done = true;
        self.cv.notify_all();
    }

    /// Blocks until there are lines past `from` (or the log is done),
    /// then returns them plus the done flag.
    fn wait_since(&self, from: usize) -> (Vec<String>, bool) {
        let mut st = lock(&self.state);
        while st.lines.len() <= from && !st.done {
            st = wait(&self.cv, st);
        }
        (st.lines[from.min(st.lines.len())..].to_vec(), st.done)
    }
}

/// One parsed request head plus its body.
struct HttpRequest {
    method: String,
    /// Path without the query string.
    path: String,
    /// Raw query string (no leading `?`), possibly empty.
    query: String,
    body: Vec<u8>,
    keep_alive: bool,
}

enum HeadError {
    /// Clean EOF before a request line: the client is done.
    Eof,
    /// Malformed/oversized request: respond `status` and close.
    Bad(u16, String),
}

/// Decodes `%XX` escapes (instance keys may be path-like).
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 3 <= bytes.len() {
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
            if let Some(b) = hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                out.push(b);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// First `format=` value in a query string, if any.
fn query_param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then_some(v)
    })
}

/// Reads one request (head + body) off the connection. `writer` is only
/// used for the `100 Continue` interim response.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
) -> Result<HttpRequest, HeadError> {
    let mut line = Vec::new();
    let request_line = loop {
        match read_line_capped(reader, &mut line, MAX_HEADER_LINE) {
            Ok(LineRead::Eof) => return Err(HeadError::Eof),
            Ok(LineRead::TooLong) => {
                return Err(HeadError::Bad(431, "request line too long".into()))
            }
            Ok(LineRead::Line) => {
                let text = String::from_utf8_lossy(&line)
                    .trim_end_matches('\r')
                    .to_string();
                if text.is_empty() {
                    continue; // tolerate leading blank lines (RFC 9112 §2.2)
                }
                break text;
            }
            Err(_) => return Err(HeadError::Eof),
        }
    };
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m.to_string(), t.to_string(), v),
        _ => {
            return Err(HeadError::Bad(
                400,
                format!("malformed request line `{request_line}`"),
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HeadError::Bad(505, format!("unsupported `{version}`")));
    }
    // Headers: we only act on Content-Length, Connection and Expect.
    let mut content_length: Option<usize> = None;
    // HTTP/1.0 defaults to one request per connection — a 1.0 client
    // (curl --http1.0, read-to-EOF std clients) delimits the response by
    // the close, so keeping its connection alive would hang it.
    let mut keep_alive = version != "HTTP/1.0";
    let mut expects_continue = false;
    let mut head_bytes = request_line.len();
    loop {
        match read_line_capped(reader, &mut line, MAX_HEADER_LINE) {
            Ok(LineRead::Eof) | Err(_) => {
                return Err(HeadError::Bad(400, "truncated request head".into()))
            }
            Ok(LineRead::TooLong) => return Err(HeadError::Bad(431, "header too long".into())),
            Ok(LineRead::Line) => {
                let text = String::from_utf8_lossy(&line)
                    .trim_end_matches('\r')
                    .to_string();
                if text.is_empty() {
                    break;
                }
                head_bytes += text.len();
                if head_bytes > MAX_HEAD_BYTES {
                    return Err(HeadError::Bad(431, "request head too large".into()));
                }
                let Some((name, value)) = text.split_once(':') else {
                    return Err(HeadError::Bad(400, format!("malformed header `{text}`")));
                };
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    match value.parse::<usize>() {
                        Ok(n) => content_length = Some(n),
                        Err(_) => {
                            return Err(HeadError::Bad(
                                400,
                                format!("bad Content-Length `{value}`"),
                            ))
                        }
                    }
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    return Err(HeadError::Bad(
                        501,
                        "chunked request bodies are not supported; send Content-Length".into(),
                    ));
                } else if name.eq_ignore_ascii_case("connection") {
                    if value.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if value.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                } else if name.eq_ignore_ascii_case("expect")
                    && value.to_ascii_lowercase().contains("100-continue")
                {
                    expects_continue = true;
                }
            }
        }
    }
    let body_len = match content_length {
        Some(n) => n,
        // A bodied method without Content-Length used to fall through as
        // "no body" and parse an empty string into a confusing JSON
        // error; refuse it by name instead (chunked bodies are already
        // answered 501 above).
        None if matches!(method.as_str(), "POST" | "PUT") => {
            return Err(HeadError::Bad(
                411,
                format!("{method} requires a Content-Length header"),
            ))
        }
        None => 0,
    };
    if body_len > MAX_LINE_BYTES {
        return Err(HeadError::Bad(
            413,
            format!("body exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    // `curl -T bigfile` sends `Expect: 100-continue` and stalls ~1 s
    // waiting for this interim response before transmitting the body.
    if expects_continue
        && body_len > 0
        && writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n").is_err()
    {
        return Err(HeadError::Eof);
    }
    // Read incrementally (`take` + `read_to_end` grows with the bytes
    // actually received) — pre-allocating `body_len` would let a client
    // pin `Content-Length` worth of memory per connection without ever
    // sending a byte.
    let mut body = Vec::new();
    match reader.by_ref().take(body_len as u64).read_to_end(&mut body) {
        Ok(n) if n == body_len => {}
        _ => return Err(HeadError::Bad(400, "truncated request body".into())),
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Ok(HttpRequest {
        method,
        path: percent_decode(&path),
        query,
        body,
        keep_alive,
    })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    }
}

/// Writes a complete non-streaming response with an exact body and
/// content type. `extra` lines (e.g. `Retry-After`) are injected
/// verbatim into the head.
fn respond_raw(
    out: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra: &[String],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status_text(code),
        body.len()
    );
    for line in extra {
        head.push_str(line);
        head.push_str("\r\n");
    }
    if !keep_alive {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    out.write_all(head.as_bytes())?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

/// [`respond_raw`] for the JSON routes: one event object, `\n`-terminated
/// like its NDJSON twin.
fn respond_event(
    out: &mut TcpStream,
    code: u16,
    event: &Event,
    keep_alive: bool,
    extra: &[String],
) -> std::io::Result<()> {
    let body = format!("{}\n", event.to_value());
    respond_raw(out, code, "application/json", &body, keep_alive, extra)
}

fn error_body(
    code: u16,
    message: &str,
    out: &mut TcpStream,
    keep_alive: bool,
) -> std::io::Result<()> {
    respond_event(
        out,
        code,
        &Event::Error {
            message: message.to_string(),
            job: None,
        },
        keep_alive,
        &[],
    )
}

/// Streams a job's event log as chunked NDJSON until the job is done.
/// Always closes the connection afterwards (the stream is the response).
fn stream_events(out: &mut TcpStream, log: &EventLog) -> std::io::Result<()> {
    out.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
          Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )?;
    out.flush()?;
    let mut cursor = 0usize;
    loop {
        // The driver pushes every line *before* marking done, so a
        // `done = true` return already carries the complete tail.
        let (lines, done) = log.wait_since(cursor);
        cursor += lines.len();
        for line in &lines {
            write!(out, "{:x}\r\n{line}\n\r\n", line.len() + 1)?;
        }
        out.flush()?;
        if done {
            break;
        }
    }
    out.write_all(b"0\r\n\r\n")?;
    out.flush()
}

/// Serves one HTTP connection: requests are handled sequentially
/// (HTTP/1.1 keep-alive) until the client closes, sends
/// `Connection: close`, or reads an event stream.
pub(crate) fn handle_http_client(state: Arc<ServerState>, stream: TcpStream) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let _conn = state.metrics.connection("http");
    let mut reader = BufReader::new(stream);
    let conn_jobs = Arc::new(AtomicUsize::new(0));
    loop {
        let request = match read_request(&mut reader, &mut writer) {
            Ok(r) => r,
            Err(HeadError::Eof) => return,
            Err(HeadError::Bad(code, message)) => {
                let _ = error_body(code, &message, &mut writer, false);
                return;
            }
        };
        let keep_alive = request.keep_alive;
        let result = handle_request(&state, &request, &conn_jobs, &mut writer);
        match result {
            Ok(true) if keep_alive => continue,
            _ => return,
        }
    }
}

/// Routes one request. `Ok(true)` = response sent, connection reusable;
/// `Ok(false)` = the response consumed the connection (event stream).
fn handle_request(
    state: &Arc<ServerState>,
    req: &HttpRequest,
    conn_jobs: &Arc<AtomicUsize>,
    out: &mut TcpStream,
) -> std::io::Result<bool> {
    let keep = req.keep_alive;
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["jobs", id, "events"]) => {
            let log = job_id(id).and_then(|id| {
                state
                    .event_log(id)
                    .ok_or_else(|| (404, format!("no event log for job {id}")))
            });
            match log {
                Ok(log) => {
                    stream_events(out, &log)?;
                    return Ok(false);
                }
                Err((code, message)) => error_body(code, &message, out, keep)?,
            }
        }
        ("GET", ["metrics"]) => {
            // The `stats` snapshot sets the point-in-time gauges; every
            // counter is already current.
            let _ = state.stats();
            let page = state.metrics.registry.render();
            respond_raw(out, 200, ff_obs::EXPOSITION_CONTENT_TYPE, &page, keep, &[])?;
        }
        (method, route) => match shared_request(req, method, route) {
            Ok(request) => {
                let reply = dispatch(state, request, None, conn_jobs);
                let (code, extra) = match &reply {
                    Event::Accepted { .. } => (202, vec![]),
                    Event::Rejected { retry_after_ms, .. } => (
                        429,
                        vec![format!(
                            "Retry-After: {}",
                            retry_after_ms.div_ceil(1000).max(1)
                        )],
                    ),
                    Event::Error { .. } => (400, vec![]),
                    _ => (200, vec![]),
                };
                respond_event(out, code, &reply, keep, &extra)?;
            }
            Err((code, message)) => error_body(code, &message, out, keep)?,
        },
    }
    Ok(true)
}

/// The shared [`Request`] a load, submit, cancel or stats route stands
/// for, or the status and message that refuse the request.
fn shared_request(
    req: &HttpRequest,
    method: &str,
    route: &[&str],
) -> Result<Request, (u16, String)> {
    match (method, route) {
        ("PUT", ["instances", key @ ..]) if !key.is_empty() => {
            let name = query_param(&req.query, "format").unwrap_or("metis");
            let format = GraphFormat::parse(name)
                .ok_or_else(|| (400, format!("unknown format `{name}` (metis|edgelist)")))?;
            Ok(Request::Load {
                instance: key.join("/"),
                source: GraphSource::Data(String::from_utf8_lossy(&req.body).into_owned()),
                format,
            })
        }
        ("POST", ["jobs"]) => serde_json::from_str(&String::from_utf8_lossy(&req.body))
            .map_err(|e| format!("bad JSON body: {e}"))
            .and_then(|v| JobRequest::from_value(&v))
            .map(Request::Submit)
            .map_err(|message| (400, message)),
        ("DELETE", ["jobs", id]) => Ok(Request::Cancel { job: job_id(id)? }),
        ("GET", ["stats"]) => Ok(Request::Stats),
        (_, ["jobs", ..] | ["instances", ..] | ["stats"] | ["metrics"]) => {
            Err((405, format!("{method} not allowed here")))
        }
        _ => Err((404, format!("no route for {method} {}", req.path))),
    }
}

fn job_id(id: &str) -> Result<u64, (u16, String)> {
    id.parse().map_err(|_| (400, format!("bad job id `{id}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_handles_escapes_and_garbage() {
        assert_eq!(percent_decode("/instances/a%2Fb"), "/instances/a/b");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trail%2"), "trail%2");
        assert_eq!(percent_decode("%41%42"), "AB");
    }

    #[test]
    fn query_params_are_found_by_name() {
        assert_eq!(query_param("format=edgelist", "format"), Some("edgelist"));
        assert_eq!(query_param("a=1&format=metis&b=2", "format"), Some("metis"));
        assert_eq!(query_param("formats=x", "format"), None);
        assert_eq!(query_param("", "format"), None);
    }
}
