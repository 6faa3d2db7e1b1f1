//! Sans-io incremental HTTP/1.1 request parser.
//!
//! The parser owns no socket: callers feed it whatever bytes they have
//! (`feed`), and it answers [`Parse::Partial`] (need more),
//! [`Parse::Request`] (one complete request), or [`Parse::Error`]
//! (terminal — answer with [`HttpError::status`] and close). The epoll
//! event loop feeds it from non-blocking reads, and the property tests
//! feed it the same bytes split at every boundary.
//!
//! Hardening rules, enforced *during* buffering rather than between
//! reads:
//!
//! * The request head (request line + headers + terminator) must fit in
//!   [`MAX_HEAD_BYTES`]. The parser never retains more than that many
//!   unparsed head bytes, so a header dribbled forever without a
//!   terminating blank line costs a bounded buffer and gets
//!   [`HttpError::HeadTooLarge`] (→ 431) the moment the bound is hit —
//!   not after a `read_line` that never returns.
//! * The head is parsed as *bytes*. Only the request line itself must be
//!   UTF-8 (it becomes `method`/`path`); a junk byte anywhere in the
//!   head is a clean [`HttpError::Malformed`] (→ 400), never an I/O
//!   error that silently drops the connection.
//! * `Content-Length` must be pure ASCII digits (no `+`-signed values,
//!   no lists) and duplicate headers must agree — conflicting duplicates
//!   are the classic request-smuggling shape and get a 400.
//! * `Transfer-Encoding` is not supported and is rejected outright
//!   rather than ignored (ignoring it is the other half of the
//!   smuggling shape).
//! * `Connection` values are comma-tokenized, so `keep-alive, upgrade`
//!   keeps the connection alive just like a bare `keep-alive`.
//!
//! After an error the parser is *sticky*: every subsequent call returns
//! the same error, so callers cannot accidentally resynchronize into the
//! middle of a rejected byte stream.

/// Maximum request-head (request line + headers + blank line) bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open
    /// (HTTP/1.1 default, `Connection` header honored, comma lists
    /// tokenized).
    pub keep_alive: bool,
    /// Per-request deadline budget from the `x-sqlan-deadline-ms`
    /// header, in milliseconds from request arrival. Lenient: a missing
    /// or non-numeric value is `None` (no deadline), never a parse
    /// error — deadlines are an optimization hint, not a correctness
    /// input.
    pub deadline_ms: Option<u64>,
}

/// Why a byte stream could not be parsed into a request. Terminal: the
/// connection should be answered with [`HttpError::status`] and closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request head exceeded [`MAX_HEAD_BYTES`] → 431.
    HeadTooLarge,
    /// `Content-Length` exceeded the configured body bound → 413.
    BodyTooLarge,
    /// Anything structurally wrong with the head → 400.
    Malformed(&'static str),
}

impl HttpError {
    /// The HTTP status code this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::Malformed(_) => 400,
        }
    }

    /// Short human-readable description for the error body.
    pub fn describe(&self) -> String {
        match self {
            HttpError::HeadTooLarge => "request head too large".to_string(),
            HttpError::BodyTooLarge => "request body too large".to_string(),
            HttpError::Malformed(what) => format!("malformed request: {what}"),
        }
    }
}

/// The outcome of feeding bytes to the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// Need more bytes.
    Partial,
    /// One complete request. Bytes beyond it (pipelined) stay buffered;
    /// call [`HttpParser::poll`] after responding.
    Request(Request),
    /// Terminal parse failure; sticky.
    Error(HttpError),
}

/// Fields extracted from a parsed head.
#[derive(Debug)]
struct Head {
    method: String,
    path: String,
    keep_alive: bool,
    content_length: usize,
    deadline_ms: Option<u64>,
}

#[derive(Debug)]
enum State {
    /// Accumulating head bytes in `buf` (bounded by [`MAX_HEAD_BYTES`]).
    Head,
    /// Head parsed; accumulating `need` body bytes into `body`.
    Body { head: Head, body: Vec<u8> },
    /// Sticky terminal error.
    Failed(HttpError),
}

/// Incremental request parser for one connection. Reusable across
/// keep-alive requests: after [`Parse::Request`], the parser returns to
/// the head state with any pipelined leftover bytes retained.
#[derive(Debug)]
pub struct HttpParser {
    max_body: usize,
    state: State,
    /// Unparsed head-stream bytes. In the head state its length never
    /// exceeds [`MAX_HEAD_BYTES`].
    buf: Vec<u8>,
    /// Scan cursor into `buf`: bytes before it are known not to contain
    /// the head terminator, so repeated 1-byte feeds stay O(n) total.
    scanned: usize,
}

impl HttpParser {
    /// A fresh parser; `max_body` bounds the accepted `Content-Length`.
    pub fn new(max_body: usize) -> HttpParser {
        HttpParser {
            max_body,
            state: State::Head,
            buf: Vec::new(),
            scanned: 0,
        }
    }

    /// Bytes currently buffered (head remainder + partial body). The
    /// head-state component is bounded by [`MAX_HEAD_BYTES`]; the body
    /// component by `max_body` (already rejected if over).
    pub fn buffered(&self) -> usize {
        let body = match &self.state {
            State::Body { body, .. } => body.len(),
            _ => 0,
        };
        self.buf.len() + body
    }

    /// Try to advance using only already-buffered bytes (call after a
    /// response is written, to pick up a pipelined next request).
    pub fn poll(&mut self) -> Parse {
        self.feed(&[])
    }

    /// Feed bytes and advance the state machine. Returns after at most
    /// one completed request; excess bytes stay buffered for [`poll`].
    ///
    /// [`poll`]: HttpParser::poll
    pub fn feed(&mut self, mut input: &[u8]) -> Parse {
        loop {
            match &mut self.state {
                State::Failed(e) => return Parse::Error(e.clone()),
                State::Head => {
                    // Absorb input under the hard head bound: never let
                    // `buf` grow past MAX_HEAD_BYTES. If the bound fills
                    // without a terminator the request head is too large
                    // no matter what arrives later.
                    let room = MAX_HEAD_BYTES - self.buf.len();
                    let take = input.len().min(room);
                    self.buf.extend_from_slice(&input[..take]);
                    input = &input[take..];
                    // Tolerate blank line(s) before the request line
                    // (RFC 7230 §3.5).
                    self.trim_leading_crlf();
                    match find_head_end(&self.buf, &mut self.scanned) {
                        Some(end) => {
                            let head = match parse_head(&self.buf[..end], self.max_body) {
                                Ok(head) => head,
                                Err(e) => return self.fail(e),
                            };
                            // Bytes past the head belong to the body (or
                            // a pipelined next request).
                            self.buf.drain(..end);
                            self.scanned = 0;
                            let body = Vec::with_capacity(head.content_length.min(64 * 1024));
                            self.state = State::Body { head, body };
                        }
                        None => {
                            if self.buf.len() == MAX_HEAD_BYTES {
                                return self.fail(HttpError::HeadTooLarge);
                            }
                            debug_assert!(input.is_empty(), "room covered all input");
                            return Parse::Partial;
                        }
                    }
                }
                State::Body { head, body } => {
                    let need = head.content_length - body.len();
                    // Body bytes arrive first from the head-stream
                    // leftover, then straight from input.
                    let from_buf = need.min(self.buf.len());
                    body.extend_from_slice(&self.buf[..from_buf]);
                    self.buf.drain(..from_buf);
                    let need = need - from_buf;
                    let from_input = need.min(input.len());
                    body.extend_from_slice(&input[..from_input]);
                    input = &input[from_input..];
                    if body.len() < head.content_length {
                        debug_assert!(input.is_empty());
                        return Parse::Partial;
                    }
                    let State::Body { head, body } =
                        std::mem::replace(&mut self.state, State::Head)
                    else {
                        unreachable!("matched Body above")
                    };
                    // Pipelined bytes after the body re-enter the head
                    // stream; `input` is empty or small (callers feed
                    // chunks ≤ MAX_HEAD_BYTES and stop after a request),
                    // but absorb defensively under the same bound.
                    if !input.is_empty() {
                        if input.len() > MAX_HEAD_BYTES - self.buf.len() {
                            self.buf = Vec::new();
                            self.state = State::Failed(HttpError::HeadTooLarge);
                        } else {
                            self.buf.extend_from_slice(input);
                        }
                    }
                    return Parse::Request(Request {
                        method: head.method,
                        path: head.path,
                        body,
                        keep_alive: head.keep_alive,
                        deadline_ms: head.deadline_ms,
                    });
                }
            }
        }
    }

    fn trim_leading_crlf(&mut self) {
        let mut skip = 0;
        while skip < self.buf.len() {
            match self.buf[skip] {
                b'\r' if self.buf.get(skip + 1) == Some(&b'\n') => skip += 2,
                b'\n' => skip += 1,
                _ => break,
            }
        }
        if skip > 0 {
            self.buf.drain(..skip);
            self.scanned = self.scanned.saturating_sub(skip);
        }
    }

    fn fail(&mut self, e: HttpError) -> Parse {
        // Drop buffered bytes — the connection is dead, keep no memory.
        self.buf = Vec::new();
        self.state = State::Failed(e.clone());
        Parse::Error(e)
    }
}

/// Find the end of the head: the index one past the blank line
/// (`\r\n\r\n` or `\n\n`, with the lone-`\n` tolerance the previous
/// `read_line`-based parser had). `scanned` persists progress across
/// calls so repeated small feeds never rescan.
fn find_head_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    // Back up enough to re-see a terminator straddling the last feed.
    let mut i = scanned.saturating_sub(3);
    while i < buf.len() {
        if buf[i] == b'\n' {
            match (buf.get(i + 1), buf.get(i + 2)) {
                (Some(b'\n'), _) => return Some(i + 2),
                (Some(b'\r'), Some(b'\n')) => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    *scanned = buf.len();
    None
}

/// Parse a complete head (everything before the terminating blank line,
/// terminator included) into its fields. Pure bytes in; the request line
/// alone must be UTF-8.
fn parse_head(head: &[u8], max_body: usize) -> Result<Head, HttpError> {
    let mut lines = head
        .split(|&b| b == b'\n')
        .map(|line| line.strip_suffix(b"\r").unwrap_or(line));

    let request_line = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or(HttpError::Malformed("empty request line"))?;
    let request_line = std::str::from_utf8(request_line)
        .map_err(|_| HttpError::Malformed("request line is not valid UTF-8"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("missing path"))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut keep_alive = !version.ends_with("1.0");

    let mut content_length: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    for line in lines {
        if line.is_empty() {
            break; // the head terminator's blank line
        }
        let colon = line
            .iter()
            .position(|&b| b == b':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        let name = trim_ascii(&line[..colon]);
        let value = trim_ascii(&line[colon + 1..]);
        if eq_ignore_case(name, b"content-length") {
            let n = parse_content_length(value)?;
            match content_length {
                Some(prev) if prev != n => {
                    return Err(HttpError::Malformed("conflicting content-length headers"))
                }
                _ => content_length = Some(n),
            }
        } else if eq_ignore_case(name, b"connection") {
            // A list value: `Connection: keep-alive, upgrade` must honor
            // the keep-alive token, not fall through unmatched.
            for token in value.split(|&b| b == b',') {
                let token = trim_ascii(token);
                if eq_ignore_case(token, b"close") {
                    keep_alive = false;
                } else if eq_ignore_case(token, b"keep-alive") {
                    keep_alive = true;
                }
            }
        } else if eq_ignore_case(name, b"x-sqlan-deadline-ms") {
            // Deadline propagation hint. Digits-only like
            // content-length, but lenient: junk means "no deadline",
            // not a 400 — a broken client clock must not break the
            // request.
            if !value.is_empty() && value.iter().all(|b| b.is_ascii_digit()) {
                let mut n: u64 = 0;
                let mut ok = true;
                for &b in value {
                    match n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add((b - b'0') as u64))
                    {
                        Some(next) => n = next,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    deadline_ms = Some(n);
                }
            }
        } else if eq_ignore_case(name, b"transfer-encoding") {
            // Not implemented; silently ignoring it while honoring
            // content-length is the request-smuggling shape, so reject.
            return Err(HttpError::Malformed("transfer-encoding not supported"));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge);
    }
    Ok(Head {
        method,
        path,
        keep_alive,
        content_length,
        deadline_ms,
    })
}

/// `Content-Length` hygiene: pure ASCII digits only. `+5`, `5, 5`,
/// hex, or empty values are malformed, and overflow is rejected rather
/// than wrapped.
fn parse_content_length(value: &[u8]) -> Result<usize, HttpError> {
    if value.is_empty() || !value.iter().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Malformed("bad content-length"));
    }
    let mut n: usize = 0;
    for &b in value {
        n = n
            .checked_mul(10)
            .and_then(|n| n.checked_add((b - b'0') as usize))
            .ok_or(HttpError::Malformed("bad content-length"))?;
    }
    Ok(n)
}

fn trim_ascii(mut bytes: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = bytes {
        if first.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., last] = bytes {
        if last.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    bytes
}

fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.eq_ignore_ascii_case(y))
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// One application-layer answer: status, content type, and body. The
/// event loop renders it with [`Answer::render`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub status: u16,
    /// `content-type` header value; static because routes pick from a
    /// fixed set (JSON, Prometheus text).
    pub content_type: &'static str,
    pub body: String,
}

impl Answer {
    /// The JSON answer every pre-existing route returns.
    pub fn json(status: u16, body: String) -> Answer {
        Answer {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A plain-text answer under an explicit content type.
    pub fn text(status: u16, content_type: &'static str, body: String) -> Answer {
        Answer {
            status,
            content_type,
            body,
        }
    }

    /// Render to wire bytes.
    pub fn render(&self, keep_alive: bool) -> Vec<u8> {
        render_response(self.status, self.content_type, &self.body, keep_alive)
    }
}

/// Render a response to bytes — head and body in one buffer so a single
/// write can never straddle a Nagle + delayed-ACK stall.
pub fn render_response(status: u16, content_type: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status_text(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    response.push_str(body);
    response.into_bytes()
}

/// [`render_response`] with the `application/json` content type every
/// JSON route shares.
pub fn render_json_response(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    render_response(status, "application/json", body, keep_alive)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(raw: &[u8], max_body: usize) -> Parse {
        HttpParser::new(max_body).feed(raw)
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /predict HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
        let Parse::Request(r) = parse_all(raw, 1 << 20) else {
            panic!("expected request");
        };
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/predict");
        assert_eq!(r.body, b"abcd");
        assert!(r.keep_alive);
    }

    #[test]
    fn one_byte_feeds_reach_the_same_request() {
        let raw = b"POST /p HTTP/1.1\r\nx-junk: stuff\r\ncontent-length: 3\r\n\r\nxyz";
        let mut p = HttpParser::new(1 << 20);
        let mut got = None;
        for &b in raw.iter() {
            match p.feed(&[b]) {
                Parse::Partial => {}
                Parse::Request(r) => got = Some(r),
                Parse::Error(e) => panic!("unexpected error {e:?}"),
            }
        }
        let r = got.expect("completed");
        assert_eq!(r.path, "/p");
        assert_eq!(r.body, b"xyz");
        // Back at a clean request boundary with nothing buffered.
        assert!(matches!(p.state, State::Head));
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn keep_alive_defaults_and_connection_header() {
        let cases: &[(&[u8], bool)] = &[
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
            // The list forms the old parser ignored entirely.
            (
                b"GET / HTTP/1.0\r\nConnection: keep-alive, upgrade\r\n\r\n",
                true,
            ),
            (b"GET / HTTP/1.1\r\nConnection: x-opt, Close\r\n\r\n", false),
        ];
        for (raw, expect) in cases {
            let Parse::Request(r) = parse_all(raw, 0) else {
                panic!("expected request for {raw:?}");
            };
            assert_eq!(r.keep_alive, *expect, "{:?}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn content_length_hygiene() {
        // Signed, non-digit, list, and empty values are all 400s.
        for bad in [
            "content-length: +5",
            "content-length: -5",
            "content-length: 5 5",
            "content-length: 5,5",
            "content-length: 0x5",
            "content-length:",
            "content-length: 99999999999999999999999999",
        ] {
            let raw = format!("POST / HTTP/1.1\r\n{bad}\r\n\r\n");
            assert_eq!(
                parse_all(raw.as_bytes(), 1 << 20),
                Parse::Error(HttpError::Malformed("bad content-length")),
                "{bad}"
            );
        }
        // Conflicting duplicates are rejected; agreeing ones are fine.
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\n";
        assert_eq!(
            parse_all(raw, 1 << 20),
            Parse::Error(HttpError::Malformed("conflicting content-length headers"))
        );
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nok";
        assert!(matches!(parse_all(raw, 1 << 20), Parse::Request(_)));
    }

    #[test]
    fn transfer_encoding_rejected() {
        let raw = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        assert_eq!(
            parse_all(raw, 1 << 20),
            Parse::Error(HttpError::Malformed("transfer-encoding not supported"))
        );
    }

    #[test]
    fn non_utf8_request_line_is_malformed_not_io() {
        let raw = b"GET /\xff\xfe HTTP/1.1\r\n\r\n";
        assert_eq!(
            parse_all(raw, 0),
            Parse::Error(HttpError::Malformed("request line is not valid UTF-8"))
        );
        // Junk bytes in an unrelated header value are tolerated — only
        // the request line must be UTF-8.
        let raw = b"GET / HTTP/1.1\r\nx-junk: \xff\xfe\xfd\r\n\r\n";
        assert!(matches!(parse_all(raw, 0), Parse::Request(_)));
    }

    #[test]
    fn head_bound_enforced_during_buffering() {
        // One endless header line without a newline: the old parser
        // buffered this unboundedly inside `read_line`. Now the bound
        // trips the moment MAX_HEAD_BYTES are buffered, and the buffer
        // never exceeds the bound.
        let mut p = HttpParser::new(1 << 20);
        assert_eq!(p.feed(b"GET / HTTP/1.1\r\nx-a: "), Parse::Partial);
        let chunk = [b'a'; 1024];
        let mut fed = 21;
        let mut tripped = false;
        for _ in 0..64 {
            match p.feed(&chunk) {
                Parse::Partial => {
                    fed += chunk.len();
                    assert!(p.buffered() <= MAX_HEAD_BYTES);
                }
                Parse::Error(HttpError::HeadTooLarge) => {
                    tripped = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(tripped, "bound never tripped after {fed} bytes");
        assert!(fed < MAX_HEAD_BYTES + chunk.len());
        assert_eq!(p.buffered(), 0, "failed parser keeps no memory");
        // Sticky: more bytes keep answering the same error.
        assert_eq!(p.feed(b"more"), Parse::Error(HttpError::HeadTooLarge));
    }

    #[test]
    fn oversized_body_rejected_from_the_header() {
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n";
        assert_eq!(parse_all(raw, 1024), Parse::Error(HttpError::BodyTooLarge));
    }

    #[test]
    fn pipelined_requests_come_out_one_at_a_time() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi";
        let mut p = HttpParser::new(1 << 20);
        let Parse::Request(a) = p.feed(raw) else {
            panic!("first request");
        };
        assert_eq!(a.path, "/a");
        let Parse::Request(b) = p.poll() else {
            panic!("second request");
        };
        assert_eq!(b.path, "/b");
        assert_eq!(b.body, b"hi");
        // Back at a clean request boundary with nothing buffered.
        assert!(matches!(p.state, State::Head));
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn deadline_header_parsed_leniently() {
        let cases: &[(&str, Option<u64>)] = &[
            ("x-sqlan-deadline-ms: 250", Some(250)),
            ("X-Sqlan-Deadline-Ms: 0", Some(0)),
            ("x-sqlan-deadline-ms: -5", None),
            ("x-sqlan-deadline-ms: abc", None),
            ("x-sqlan-deadline-ms:", None),
            ("x-sqlan-deadline-ms: 99999999999999999999999", None),
        ];
        for (header, expect) in cases {
            let raw = format!("GET / HTTP/1.1\r\n{header}\r\n\r\n");
            let Parse::Request(r) = parse_all(raw.as_bytes(), 0) else {
                panic!("expected request for {header}");
            };
            assert_eq!(r.deadline_ms, *expect, "{header}");
        }
        let Parse::Request(r) = parse_all(b"GET / HTTP/1.1\r\n\r\n", 0) else {
            panic!("expected request");
        };
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn leading_blank_lines_tolerated() {
        let raw = b"\r\n\r\nGET / HTTP/1.1\r\n\r\n";
        assert!(matches!(parse_all(raw, 0), Parse::Request(_)));
    }

    #[test]
    fn bare_lf_line_endings_tolerated() {
        let raw = b"POST /p HTTP/1.1\ncontent-length: 2\n\nok";
        let Parse::Request(r) = parse_all(raw, 16) else {
            panic!("expected request");
        };
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn render_matches_expected_shape() {
        let bytes = render_json_response(200, "{}", true);
        let text = String::from_utf8(bytes).expect("utf8");
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\n{}"
        );
    }
}
