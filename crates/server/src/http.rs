//! Minimal incremental HTTP/1.1 wire protocol.
//!
//! The gateway hand-rolls its HTTP layer because the workspace builds
//! without crates.io access: no hyper, no tokio. The surface is exactly
//! what a serving front end needs — an incremental request parser that
//! survives `read()` boundaries and pipelined requests, response-head
//! builders, and chunked-transfer / Server-Sent-Events encoders with the
//! matching decoders used by the test client.
//!
//! Every parse failure maps to a concrete 4xx/5xx status via
//! [`ParseError::status`]; malformed input must never panic (the proptest
//! suite in `tests/http_proptest.rs` holds the parser to that).

use std::fmt;

/// Default cap on the request head (request line + headers) in bytes.
pub const DEFAULT_MAX_HEAD_BYTES: usize = 16 * 1024;
/// Default cap on the request body in bytes.
pub const DEFAULT_MAX_BODY_BYTES: usize = 1024 * 1024;

/// A fully parsed HTTP/1.1 request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method, verbatim (methods are case-sensitive).
    pub method: String,
    /// The request target, e.g. `/api/generate`.
    pub target: String,
    /// `true` when the request line said `HTTP/1.0` (no keep-alive).
    pub http_10: bool,
    /// Header name/value pairs in arrival order, names verbatim.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive lookup of the first header with the given name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => self.http_10,
        }
    }
}

/// A request-parse failure, each variant carrying the HTTP status the
/// gateway answers with before closing the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request line, header, or body framing → 400.
    BadRequest(String),
    /// Declared body exceeds the configured cap → 413.
    BodyTooLarge {
        /// Bytes the client declared via `Content-Length`.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// Request head grew past the configured cap → 431.
    HeadTooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// A framing mechanism the gateway does not speak (e.g. chunked
    /// request bodies) → 501.
    Unsupported(String),
    /// An HTTP version other than 1.0/1.1 → 505.
    UnsupportedVersion(String),
}

impl ParseError {
    /// The HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BadRequest(_) => 400,
            ParseError::BodyTooLarge { .. } => 413,
            ParseError::HeadTooLarge { .. } => 431,
            ParseError::Unsupported(_) => 501,
            ParseError::UnsupportedVersion(_) => 505,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadRequest(m) => write!(f, "bad request: {m}"),
            ParseError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            ParseError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds the {limit}-byte limit")
            }
            ParseError::Unsupported(m) => write!(f, "not implemented: {m}"),
            ParseError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version {v:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Incremental HTTP/1.1 request parser.
///
/// Feed raw socket bytes with [`RequestParser::push`] in whatever pieces
/// the kernel hands them over, then drain complete requests with
/// [`RequestParser::next_request`]. Bytes beyond the first request stay
/// buffered, so pipelined requests parse one call at a time. Line endings
/// are lenient (`\r\n` or bare `\n`); limits on head and body size turn
/// oversized input into typed errors instead of unbounded buffering.
#[derive(Debug)]
pub struct RequestParser {
    buffer: Vec<u8>,
    max_head: usize,
    max_body: usize,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser with the default head/body limits.
    pub fn new() -> Self {
        Self::with_limits(DEFAULT_MAX_HEAD_BYTES, DEFAULT_MAX_BODY_BYTES)
    }

    /// A parser with explicit head/body byte limits.
    pub fn with_limits(max_head: usize, max_body: usize) -> Self {
        Self {
            buffer: Vec::new(),
            max_head,
            max_body,
        }
    }

    /// Appends raw bytes read from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Number of bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Tries to parse the next complete request out of the buffer.
    ///
    /// Returns `Ok(None)` when more bytes are needed. On success the
    /// request's bytes are consumed and any pipelined remainder stays
    /// buffered for the next call.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed or oversized input; the
    /// buffer contents are unspecified afterwards, so callers should
    /// answer with [`ParseError::status`] and close the connection.
    pub fn next_request(&mut self) -> Result<Option<Request>, ParseError> {
        let Some((head_end, body_start)) = find_head_end(&self.buffer) else {
            if self.buffer.len() > self.max_head {
                return Err(ParseError::HeadTooLarge {
                    limit: self.max_head,
                });
            }
            return Ok(None);
        };
        if head_end > self.max_head {
            return Err(ParseError::HeadTooLarge {
                limit: self.max_head,
            });
        }
        let head = std::str::from_utf8(&self.buffer[..head_end])
            .map_err(|_| ParseError::BadRequest("request head is not valid UTF-8".into()))?;
        let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
        let request_line = lines
            .next()
            .ok_or_else(|| ParseError::BadRequest("empty request head".into()))?;
        let (method, target, http_10) = parse_request_line(request_line)?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if line.starts_with(' ') || line.starts_with('\t') {
                return Err(ParseError::BadRequest(
                    "obsolete header line folding is not accepted".into(),
                ));
            }
            let (name, value) = line.split_once(':').ok_or_else(|| {
                ParseError::BadRequest(format!("header line {line:?} has no ':'"))
            })?;
            if name.is_empty() || name.contains(' ') || name.contains('\t') {
                return Err(ParseError::BadRequest(format!(
                    "malformed header name {name:?}"
                )));
            }
            headers.push((name.to_string(), value.trim().to_string()));
        }
        let body_len = body_length(&headers)?;
        if body_len > self.max_body {
            return Err(ParseError::BodyTooLarge {
                declared: body_len,
                limit: self.max_body,
            });
        }
        if self.buffer.len() < body_start + body_len {
            return Ok(None);
        }
        let body = self.buffer[body_start..body_start + body_len].to_vec();
        self.buffer.drain(..body_start + body_len);
        Ok(Some(Request {
            method,
            target,
            http_10,
            headers,
            body,
        }))
    }
}

/// Finds the blank line terminating the request head. Returns the length
/// of the head *including* the final line's newline but excluding the
/// blank line itself, plus the offset where the body begins. Line endings
/// may be `\r\n` or bare `\n` independently per line.
fn find_head_end(buffer: &[u8]) -> Option<(usize, usize)> {
    for (i, &byte) in buffer.iter().enumerate() {
        if byte != b'\n' {
            continue;
        }
        match buffer.get(i + 1) {
            Some(b'\n') => return Some((i + 1, i + 2)),
            Some(b'\r') if buffer.get(i + 2) == Some(&b'\n') => return Some((i + 1, i + 3)),
            _ => {}
        }
    }
    None
}

fn parse_request_line(line: &str) -> Result<(String, String, bool), ParseError> {
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| ParseError::BadRequest("missing method".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| ParseError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::BadRequest("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(ParseError::BadRequest(format!(
            "malformed request line {line:?}"
        )));
    }
    if !method.chars().all(|c| c.is_ascii_alphabetic()) {
        return Err(ParseError::BadRequest(format!(
            "malformed method {method:?}"
        )));
    }
    let http_10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        other => return Err(ParseError::UnsupportedVersion(other.to_string())),
    };
    Ok((method.to_string(), target.to_string(), http_10))
}

fn body_length(headers: &[(String, String)]) -> Result<usize, ParseError> {
    if let Some((_, value)) = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("transfer-encoding"))
    {
        return Err(ParseError::Unsupported(format!(
            "transfer-encoding {value:?} request bodies"
        )));
    }
    let mut declared = None;
    for (name, value) in headers {
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value.parse().map_err(|_| {
                ParseError::BadRequest(format!("unparseable Content-Length {value:?}"))
            })?;
            if declared.is_some_and(|prior| prior != parsed) {
                return Err(ParseError::BadRequest(
                    "conflicting Content-Length headers".into(),
                ));
            }
            declared = Some(parsed);
        }
    }
    Ok(declared.unwrap_or(0))
}

/// The standard reason phrase for the status codes the gateway emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Builds a response head (status line + headers + blank line).
pub fn response_head(status: u16, headers: &[(&str, &str)]) -> Vec<u8> {
    let mut out = format!("HTTP/1.1 {status} {}\r\n", reason_phrase(status));
    for (name, value) in headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.into_bytes()
}

/// Builds a complete fixed-length response (head + body).
pub fn simple_response(status: u16, content_type: &str, body: &[u8]) -> Vec<u8> {
    let length = body.len().to_string();
    let mut out = response_head(
        status,
        &[("Content-Type", content_type), ("Content-Length", &length)],
    );
    out.extend_from_slice(body);
    out
}

/// Encodes one chunk of a chunked-transfer body. Empty input yields an
/// empty encoding (the zero-length chunk is reserved for [`last_chunk`]).
pub fn chunk(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

/// The terminating zero-length chunk of a chunked-transfer body.
pub fn last_chunk() -> &'static [u8] {
    b"0\r\n\r\n"
}

/// Encodes one Server-Sent-Events message carrying `data` (one `data:`
/// line per input line, blank-line terminated).
pub fn sse_event(data: &str) -> String {
    let mut out = String::new();
    for line in data.split('\n') {
        out.push_str("data: ");
        out.push_str(line);
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Incremental decoder for a chunked-transfer body — the client half of
/// [`chunk`]/[`last_chunk`], also used by the encoder round-trip proptest.
#[derive(Debug, Default)]
pub struct ChunkedDecoder {
    buffer: Vec<u8>,
    output: Vec<u8>,
    finished: bool,
}

impl ChunkedDecoder {
    /// A decoder with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds encoded bytes into the decoder.
    ///
    /// # Errors
    ///
    /// Returns a message when the chunk framing is malformed.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.buffer.extend_from_slice(bytes);
        loop {
            if self.finished {
                return Ok(());
            }
            let Some(line_end) = self.buffer.iter().position(|&b| b == b'\n') else {
                return Ok(());
            };
            let size_line = std::str::from_utf8(&self.buffer[..line_end])
                .map_err(|_| "chunk size line is not UTF-8".to_string())?
                .trim();
            // Chunk extensions (";ext=...") are tolerated and ignored.
            let size_text = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_text, 16)
                .map_err(|_| format!("unparseable chunk size {size_line:?}"))?;
            let data_start = line_end + 1;
            if size == 0 {
                // The trailer section is a blank line (no trailers sent).
                if self.buffer.len() < data_start + 1 {
                    return Ok(());
                }
                self.finished = true;
                return Ok(());
            }
            // Data plus its trailing CRLF (tolerate bare LF).
            if self.buffer.len() < data_start + size + 1 {
                return Ok(());
            }
            let after = data_start + size;
            let terminator = if self.buffer[after..].starts_with(b"\r\n") {
                2
            } else if self.buffer[after..].starts_with(b"\n") {
                1
            } else if self.buffer.len() >= after + 2 {
                return Err("chunk data not followed by CRLF".to_string());
            } else {
                return Ok(());
            };
            self.output
                .extend_from_slice(&self.buffer[data_start..after]);
            self.buffer.drain(..after + terminator);
        }
    }

    /// Takes the decoded bytes accumulated so far.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.output)
    }

    /// Whether the terminating zero-length chunk has been seen.
    pub fn finished(&self) -> bool {
        self.finished
    }
}

/// Incremental Server-Sent-Events parser: feed decoded body text, pop
/// complete event payloads (the concatenated `data:` lines).
#[derive(Debug, Default)]
pub struct SseParser {
    buffer: String,
}

impl SseParser {
    /// A parser with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds decoded body text into the parser.
    pub fn push(&mut self, text: &str) {
        self.buffer.push_str(text);
    }

    /// Pops the next complete event's data payload, if one is buffered.
    pub fn next_event(&mut self) -> Option<String> {
        let end = self.buffer.find("\n\n")?;
        let raw: String = self.buffer.drain(..end + 2).collect();
        let mut data = String::new();
        for line in raw.lines() {
            if let Some(rest) = line.strip_prefix("data:") {
                if !data.is_empty() {
                    data.push('\n');
                }
                data.push_str(rest.strip_prefix(' ').unwrap_or(rest));
            }
        }
        Some(data)
    }
}

/// A parsed response head, as seen by the test client.
#[derive(Debug, Clone)]
pub struct ResponseHead {
    /// The numeric status code.
    pub status: u16,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
}

impl ResponseHead {
    /// Case-insensitive lookup of the first header with the given name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Parses a response head out of a raw buffer, returning the head and the
/// number of bytes it consumed (including the blank line). `None` means
/// the head is still incomplete.
///
/// # Errors
///
/// Returns a message when the status line or a header is malformed.
pub fn parse_response_head(buffer: &[u8]) -> Result<Option<(ResponseHead, usize)>, String> {
    let Some((head_end, consumed)) = find_head_end(buffer) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buffer[..head_end])
        .map_err(|_| "response head is not valid UTF-8".to_string())?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let status_line = lines.next().ok_or("empty response head")?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed response header {line:?}"))?;
        headers.push((name.to_string(), value.trim().to_string()));
    }
    Ok(Some((ResponseHead { status, headers }, consumed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_simple_request_in_one_push() {
        let mut parser = RequestParser::new();
        parser.push(b"POST /api/generate HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi");
        let req = parser.next_request().unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/api/generate");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hi");
        assert!(parser.next_request().unwrap().is_none());
    }

    #[test]
    fn parses_across_arbitrary_read_boundaries() {
        let raw = b"GET /api/stats HTTP/1.1\r\nAccept: */*\r\n\r\n";
        for split in 0..raw.len() {
            let mut parser = RequestParser::new();
            parser.push(&raw[..split]);
            let early = parser.next_request().unwrap();
            assert!(early.is_none(), "complete at split {split}?");
            parser.push(&raw[split..]);
            let req = parser.next_request().unwrap().unwrap();
            assert_eq!(req.target, "/api/stats");
        }
    }

    #[test]
    fn pipelined_requests_come_out_one_at_a_time() {
        let mut parser = RequestParser::new();
        parser.push(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(parser.next_request().unwrap().unwrap().target, "/a");
        assert_eq!(parser.next_request().unwrap().unwrap().target, "/b");
        assert!(parser.next_request().unwrap().is_none());
    }

    #[test]
    fn errors_map_to_the_documented_statuses() {
        let cases: Vec<(&[u8], u16)> = vec![
            (b"BROKEN\r\n\r\n", 400),
            (b"GET /x HTTP/2.0\r\n\r\n", 505),
            (b"GET /x HTTP/1.1\r\nBad Header\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: oops\r\n\r\n", 400),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
            ),
        ];
        for (raw, status) in cases {
            let mut parser = RequestParser::new();
            parser.push(raw);
            let err = parser.next_request().unwrap_err();
            assert_eq!(err.status(), status, "{raw:?}");
        }
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let mut parser = RequestParser::with_limits(32, 16);
        parser.push(b"GET /this-target-alone-overflows-the-head-limit HTTP/1.1\r\n");
        assert_eq!(parser.next_request().unwrap_err().status(), 431);
        let mut parser = RequestParser::with_limits(1024, 16);
        parser.push(b"POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
        assert_eq!(parser.next_request().unwrap_err().status(), 413);
    }

    #[test]
    fn chunked_round_trip_through_the_decoder() {
        let mut encoded = Vec::new();
        for piece in ["hello ", "wor", "", "ld"] {
            encoded.extend_from_slice(&chunk(piece.as_bytes()));
        }
        encoded.extend_from_slice(last_chunk());
        let mut decoder = ChunkedDecoder::new();
        for byte in encoded {
            decoder.push(&[byte]).unwrap();
        }
        assert!(decoder.finished());
        assert_eq!(decoder.take_output(), b"hello world");
    }

    #[test]
    fn sse_events_round_trip() {
        let mut parser = SseParser::new();
        parser.push(&sse_event("{\"a\":1}"));
        parser.push(&sse_event("two\nlines"));
        assert_eq!(parser.next_event().unwrap(), "{\"a\":1}");
        assert_eq!(parser.next_event().unwrap(), "two\nlines");
        assert!(parser.next_event().is_none());
    }

    #[test]
    fn response_head_round_trips() {
        let head = response_head(429, &[("Content-Type", "application/json")]);
        let (parsed, consumed) = parse_response_head(&head).unwrap().unwrap();
        assert_eq!(consumed, head.len());
        assert_eq!(parsed.status, 429);
        assert_eq!(parsed.header("content-type"), Some("application/json"));
    }
}
