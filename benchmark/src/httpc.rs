//! The load generator's own HTTP/1.1 client: keep-alive JSON posts and
//! chunked Server-Sent-Events streams over `std::net`.
//!
//! Deliberately not `cocktail_server::client`: the load must not change
//! when the product's client does. Parsing is split into pure, incremental
//! decoders so it can be tested against canned byte streams.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// No single read may stall longer than this; a stalled request fails.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A parsed response head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// The status code.
    pub status: u16,
    /// Header pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
}

impl Head {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn content_length(&self) -> Option<usize> {
        self.header("content-length")?.parse().ok()
    }

    fn is_chunked(&self) -> bool {
        self.header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Parses a response head from the front of `buffer`. `Ok(None)` means the
/// blank line has not arrived yet; on success also returns the bytes the
/// head occupied.
pub fn parse_head(buffer: &[u8]) -> io::Result<Option<(Head, usize)>> {
    let Some(end) = buffer.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let text =
        std::str::from_utf8(&buffer[..end]).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid(format!("malformed status line {status_line:?}")))?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Some((Head { status, headers }, end + 4)))
}

/// Incremental decoder of a chunked transfer body.
#[derive(Debug, Default)]
pub struct ChunkedDecoder {
    pending: Vec<u8>,
    finished: bool,
}

impl ChunkedDecoder {
    /// Feeds raw body bytes; appends every completed chunk's data to `out`.
    pub fn push(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
        self.pending.extend_from_slice(bytes);
        while !self.finished {
            let Some(line_end) = self.pending.windows(2).position(|w| w == b"\r\n") else {
                return Ok(());
            };
            let size_text = std::str::from_utf8(&self.pending[..line_end])
                .map_err(|_| invalid("chunk size line is not UTF-8"))?;
            let size_text = size_text.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_text, 16)
                .map_err(|_| invalid(format!("unparseable chunk size {size_text:?}")))?;
            let data_start = line_end + 2;
            if size == 0 {
                // Last chunk: wait for the blank line closing the (empty)
                // trailer section.
                if self.pending.len() < data_start + 2 {
                    return Ok(());
                }
                self.finished = true;
                return Ok(());
            }
            let data_end = data_start + size;
            if self.pending.len() < data_end + 2 {
                return Ok(());
            }
            if &self.pending[data_end..data_end + 2] != b"\r\n" {
                return Err(invalid("chunk data is not followed by CRLF"));
            }
            out.extend_from_slice(&self.pending[data_start..data_end]);
            self.pending.drain(..data_end + 2);
        }
        Ok(())
    }

    /// Whether the terminating zero-length chunk has been seen.
    pub fn finished(&self) -> bool {
        self.finished
    }
}

/// Incremental splitter of an SSE body into `data:` payloads.
#[derive(Debug, Default)]
pub struct SseSplitter {
    buffer: Vec<u8>,
}

impl SseSplitter {
    /// Feeds decoded body bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Pops the next complete event's payload (its `data:` lines joined by
    /// newlines), if one is buffered.
    pub fn next_event(&mut self) -> io::Result<Option<String>> {
        let Some(end) = self.buffer.windows(2).position(|w| w == b"\n\n") else {
            return Ok(None);
        };
        let raw: Vec<u8> = self.buffer.drain(..end + 2).collect();
        let text = std::str::from_utf8(&raw[..end]).map_err(|_| invalid("SSE is not UTF-8"))?;
        let data: Vec<&str> = text
            .split('\n')
            .filter_map(|line| line.strip_prefix("data:"))
            .map(|rest| rest.strip_prefix(' ').unwrap_or(rest))
            .collect();
        Ok(Some(data.join("\n")))
    }
}

fn request_bytes(path: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Connection: {}\r\nContent-Length: {}\r\n\r\n{body}",
        if keep_alive { "keep-alive" } else { "close" },
        body.len()
    )
    .into_bytes()
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

fn read_some(stream: &mut TcpStream, into: &mut Vec<u8>) -> io::Result<usize> {
    let mut buf = [0u8; 16 * 1024];
    let n = stream.read(&mut buf)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection mid-response",
        ));
    }
    into.extend_from_slice(&buf[..n]);
    Ok(n)
}

/// One keep-alive connection for fixed-length JSON exchanges.
#[derive(Debug)]
pub struct JsonConnection {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl JsonConnection {
    /// Connects to the gateway.
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        Ok(Self {
            stream: connect(addr)?,
            buffer: Vec::new(),
        })
    }

    /// Posts `body` and reads one `Content-Length` response off the same
    /// connection.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(Head, String)> {
        self.stream.write_all(&request_bytes(path, body, true))?;
        let (head, consumed) = loop {
            if let Some(parsed) = parse_head(&self.buffer)? {
                break parsed;
            }
            read_some(&mut self.stream, &mut self.buffer)?;
        };
        self.buffer.drain(..consumed);
        let length = head
            .content_length()
            .ok_or_else(|| invalid("response carries no Content-Length"))?;
        while self.buffer.len() < length {
            read_some(&mut self.stream, &mut self.buffer)?;
        }
        let body: Vec<u8> = self.buffer.drain(..length).collect();
        let body = String::from_utf8(body).map_err(|_| invalid("response body is not UTF-8"))?;
        Ok((head, body))
    }
}

/// One streaming exchange: its own connection (the gateway closes SSE
/// connections by design), events popped as their bytes arrive.
#[derive(Debug)]
pub struct SseStream {
    stream: TcpStream,
    /// The response head.
    pub head: Head,
    /// When the first request byte was handed to the socket.
    pub sent_at: Instant,
    chunked: ChunkedDecoder,
    events: SseSplitter,
    /// Body of a non-streaming (error) answer, when the gateway sent one.
    pub plain_body: Option<String>,
}

impl SseStream {
    /// Connects, posts `body`, and reads the response head.
    pub fn open(addr: SocketAddr, path: &str, body: &str) -> io::Result<Self> {
        let mut stream = connect(addr)?;
        let sent_at = Instant::now();
        stream.write_all(&request_bytes(path, body, false))?;
        let mut buffer = Vec::new();
        let (head, consumed) = loop {
            if let Some(parsed) = parse_head(&buffer)? {
                break parsed;
            }
            read_some(&mut stream, &mut buffer)?;
        };
        buffer.drain(..consumed);
        let mut this = Self {
            stream,
            head,
            sent_at,
            chunked: ChunkedDecoder::default(),
            events: SseSplitter::default(),
            plain_body: None,
        };
        if this.head.is_chunked() {
            this.feed(&buffer)?;
        } else {
            // A refusal (429) or error: a plain fixed-length body.
            let length = this.head.content_length().unwrap_or(0);
            while buffer.len() < length {
                read_some(&mut this.stream, &mut buffer)?;
            }
            this.plain_body = Some(String::from_utf8_lossy(&buffer[..length]).into_owned());
        }
        Ok(this)
    }

    fn feed(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut decoded = Vec::new();
        self.chunked.push(bytes, &mut decoded)?;
        self.events.push(&decoded);
        Ok(())
    }

    /// Blocks until the next event payload arrives; `None` once the body
    /// has ended.
    pub fn next_event(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(event) = self.events.next_event()? {
                return Ok(Some(event));
            }
            if self.chunked.finished() || self.plain_body.is_some() {
                return Ok(None);
            }
            let mut raw = Vec::new();
            read_some(&mut self.stream, &mut raw)?;
            self.feed(&raw)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(data: &str) -> String {
        format!("{:x}\r\n{data}\r\n", data.len())
    }

    /// What the gateway puts on the wire for a two-token stream.
    fn canned_sse_response() -> Vec<u8> {
        let mut raw = String::from(
            "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        );
        raw.push_str(&chunk("data: {\"index\":0,\"piece\":\"a\"}\n\n"));
        raw.push_str(&chunk("data: {\"index\":1,\"piece\":\" b\"}\n\n"));
        raw.push_str("0\r\n\r\n");
        raw.into_bytes()
    }

    /// Drives head parser, chunked decoder and SSE splitter the way
    /// `SseStream` does, feeding the canned stream in `step`-byte reads.
    fn decode_in_steps(raw: &[u8], step: usize) -> (Head, Vec<String>, bool) {
        let mut buffer = Vec::new();
        let mut head = None;
        let mut chunked = ChunkedDecoder::default();
        let mut events = SseSplitter::default();
        let mut seen = Vec::new();
        for piece in raw.chunks(step) {
            let mut body = Vec::new();
            if head.is_none() {
                buffer.extend_from_slice(piece);
                if let Some((parsed, consumed)) = parse_head(&buffer).unwrap() {
                    head = Some(parsed);
                    body = buffer.split_off(consumed);
                }
            } else {
                body = piece.to_vec();
            }
            let mut decoded = Vec::new();
            chunked.push(&body, &mut decoded).unwrap();
            events.push(&decoded);
            while let Some(event) = events.next_event().unwrap() {
                seen.push(event);
            }
        }
        (head.expect("head parsed"), seen, chunked.finished())
    }

    #[test]
    fn canned_sse_stream_decodes_at_every_read_size() {
        let raw = canned_sse_response();
        for step in [1, 2, 3, 7, 16, 64, raw.len()] {
            let (head, events, finished) = decode_in_steps(&raw, step);
            assert_eq!(head.status, 200, "step {step}");
            assert!(head.is_chunked());
            assert_eq!(head.header("connection"), Some("close"));
            assert_eq!(
                events,
                vec![
                    "{\"index\":0,\"piece\":\"a\"}".to_string(),
                    "{\"index\":1,\"piece\":\" b\"}".to_string()
                ],
                "step {step}"
            );
            assert!(finished, "step {step}");
        }
    }

    #[test]
    fn two_events_in_one_chunk_and_one_event_across_chunks() {
        let mut chunked = ChunkedDecoder::default();
        let mut events = SseSplitter::default();
        let mut out = Vec::new();
        // One chunk carrying two events, then an event split over two.
        chunked
            .push(b"12\r\ndata: x\n\ndata: y\n\n\r\n", &mut out)
            .unwrap();
        chunked
            .push(b"4\r\ndata\r\n5\r\n: z\n\n\r\n", &mut out)
            .unwrap();
        events.push(&out);
        assert_eq!(events.next_event().unwrap().as_deref(), Some("x"));
        assert_eq!(events.next_event().unwrap().as_deref(), Some("y"));
        assert_eq!(events.next_event().unwrap().as_deref(), Some("z"));
        assert_eq!(events.next_event().unwrap(), None);
        assert!(!chunked.finished());
        chunked.push(b"0\r\n\r\n", &mut out).unwrap();
        assert!(chunked.finished());
    }

    #[test]
    fn fixed_length_head_and_errors() {
        let raw =
            b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\nRetry-After: 1\r\n\r\n{}";
        let (head, consumed) = parse_head(raw).unwrap().unwrap();
        assert_eq!(head.status, 429);
        assert_eq!(head.content_length(), Some(2));
        assert!(!head.is_chunked());
        assert_eq!(&raw[consumed..], b"{}");
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Le")
            .unwrap()
            .is_none());
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
        let mut out = Vec::new();
        assert!(ChunkedDecoder::default().push(b"zz\r\n", &mut out).is_err());
        assert!(ChunkedDecoder::default()
            .push(b"1\r\nabcd", &mut out)
            .is_err());
    }

    #[test]
    fn multi_line_data_joins_with_newlines() {
        let mut events = SseSplitter::default();
        events.push(b"data: first\ndata: second\n\n");
        assert_eq!(
            events.next_event().unwrap().as_deref(),
            Some("first\nsecond")
        );
    }
}
