//! Minimal HTTP/1.1 framing over blocking `TcpStream`s.
//!
//! The server faces untrusted bytes, so everything here is defensive: the
//! request head is capped, a single `1*DIGIT` `Content-Length` is the only
//! body framing accepted (any `Transfer-Encoding` or a duplicate length is
//! malformed, per RFC 9112 §6.1 and §6.3), and every parse failure is an
//! error value rather than a panic. The same framing is reused by the blocking
//! [`crate::Client`], which keeps the wire format covered from both ends
//! by the protocol tests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest request/response head (request line + headers) we will buffer.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Read-timeout granularity; the connection handler re-checks the drain
/// flag between slices, so this bounds drain latency for idle keep-alives.
pub const READ_SLICE: Duration = Duration::from_millis(250);

/// A parsed request or response head plus its body.
#[derive(Debug, Clone, Default)]
pub struct Message {
    /// Request line or status line, verbatim (without CRLF).
    pub start_line: String,
    /// Header pairs; names are lowercased at parse time.
    pub headers: Vec<(String, String)>,
    /// The framed body (empty when no `Content-Length` was present).
    pub body: Vec<u8>,
}

impl Message {
    /// First header value for `name` (lowercase), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body length the head declares: its one `Content-Length`, or 0
    /// when there is none.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] for framing the reader cannot trust (RFC
    /// 9112 §6.1, §6.3): any `Transfer-Encoding`, more than one
    /// `Content-Length`, or a value that is not `1*DIGIT` (Rust's integer
    /// parser alone would accept `+5`).
    pub fn content_length(&self) -> Result<usize, HttpError> {
        if self.header("transfer-encoding").is_some() {
            return Err(HttpError::Malformed("transfer-encoding is not supported".to_string()));
        }
        let mut lengths =
            self.headers.iter().filter(|(k, _)| k == "content-length").map(|(_, v)| v.as_str());
        let Some(raw) = lengths.next() else {
            return Ok(0);
        };
        if lengths.next().is_some() {
            return Err(HttpError::Malformed("duplicate content-length".to_string()));
        }
        let bad = || HttpError::Malformed(format!("bad content-length '{raw}'"));
        if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad());
        }
        raw.parse().map_err(|_| bad())
    }
}

/// Why reading a message off the wire failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before a complete message arrived
    /// (clean close at a message boundary is `Ok(None)`, not this).
    Truncated,
    /// The head or body violates the protocol.
    Malformed(String),
    /// `Content-Length` exceeds the caller's limit; the value is carried so
    /// the server can mention it in the 413 body.
    TooLarge(usize),
    /// The socket itself failed.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Truncated => write!(f, "connection closed mid-message"),
            HttpError::Malformed(why) => write!(f, "malformed message: {why}"),
            HttpError::TooLarge(n) => write!(f, "declared body of {n} bytes exceeds limit"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one HTTP/1.1 message (head + `Content-Length` body).
///
/// Returns `Ok(None)` when the peer closes cleanly before sending anything,
/// or when `give_up()` turns true while the connection is idle (used by the
/// server to retire keep-alive connections during drain). Once the first
/// byte of a message has arrived the read commits: timeouts keep polling
/// until `overall` expires, which then reports [`HttpError::Truncated`].
///
/// Bodies larger than `max_body` are rejected as [`HttpError::TooLarge`]
/// without reading the payload.
///
/// # Errors
///
/// [`HttpError`] on protocol violations, truncation or socket failure.
pub fn read_message(
    stream: &mut TcpStream,
    max_body: usize,
    overall: Duration,
    give_up: &dyn Fn() -> bool,
) -> Result<Option<Message>, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let started = Instant::now();
    // Phase 1: accumulate the head until CRLFCRLF.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed(format!(
                "head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(HttpError::Truncated)
                };
            }
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(e) if is_timeout(&e) => {
                if buf.is_empty() && give_up() {
                    return Ok(None);
                }
                if started.elapsed() > overall {
                    return if buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(HttpError::Truncated)
                    };
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    };
    let head = parse_head(buf.get(..head_end).unwrap_or(&[]))?;
    let mut body: Vec<u8> = buf.get(head_end + 4..).unwrap_or(&[]).to_vec();
    let declared = head.content_length()?;
    if declared > max_body {
        return Err(HttpError::TooLarge(declared));
    }
    // Phase 2: read the declared body.
    while body.len() < declared {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Truncated),
            Ok(n) => body.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(e) if is_timeout(&e) => {
                if started.elapsed() > overall {
                    return Err(HttpError::Truncated);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    body.truncate(declared);
    Ok(Some(Message {
        start_line: head.start_line,
        headers: head.headers,
        body,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &[u8]) -> Result<Message, HttpError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("head is not UTF-8".to_string()))?;
    let mut lines = text.split("\r\n");
    let start_line = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or_else(|| HttpError::Malformed("empty start line".to_string()))?
        .to_string();
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without colon: '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Message {
        start_line,
        headers,
        body: Vec::new(),
    })
}

/// The method and target of a request start line, validated as HTTP/1.x.
///
/// # Errors
///
/// [`HttpError::Malformed`] when the line is not `METHOD SP TARGET SP
/// HTTP/1.<x>`.
pub fn parse_request_line(start_line: &str) -> Result<(&str, &str), HttpError> {
    let mut parts = start_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("missing method".to_string()))?;
    let target = parts
        .next()
        .filter(|t| t.starts_with('/'))
        .ok_or_else(|| HttpError::Malformed("missing request target".to_string()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".to_string()))?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(HttpError::Malformed(format!(
            "unsupported start line '{start_line}'"
        )));
    }
    Ok((method, target))
}

/// The numeric status of a response start line (`HTTP/1.1 200 OK`).
///
/// # Errors
///
/// [`HttpError::Malformed`] when no parseable status code is present.
pub fn parse_status_line(start_line: &str) -> Result<u16, HttpError> {
    start_line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line '{start_line}'")))
}

/// Serialise and send one response with a `Content-Length` body.
///
/// `extra_headers` are emitted verbatim after the standard set; pass
/// `close` to advertise `Connection: close`.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Serialise and send one request with a `Content-Length` body.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!("{method} {target} HTTP/1.1\r\nhost: dcdiff\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parses_and_rejects() {
        assert!(matches!(
            parse_request_line("POST /recover HTTP/1.1"),
            Ok(("POST", "/recover"))
        ));
        assert!(parse_request_line("GET/ HTTP/1.1").is_err());
        assert!(parse_request_line("GET / SPDY/3").is_err());
        assert!(parse_request_line("GET / HTTP/1.1 extra").is_err());
        assert!(parse_request_line("").is_err());
    }

    #[test]
    fn status_line_parses() {
        assert!(matches!(parse_status_line("HTTP/1.1 200 OK"), Ok(200)));
        assert!(matches!(parse_status_line("HTTP/1.1 503 Busy"), Ok(503)));
        assert!(parse_status_line("HTTP/1.1").is_err());
        assert!(parse_status_line("HTTP/1.1 abc OK").is_err());
    }

    #[test]
    fn head_parsing_lowercases_names() {
        let head = b"POST /r HTTP/1.1\r\nContent-Length: 3\r\nX-Deadline-Class: bulk\r\n";
        let msg = parse_head(head).expect("valid head");
        assert_eq!(msg.header("content-length"), Some("3"));
        assert_eq!(msg.header("x-deadline-class"), Some("bulk"));
        assert!(matches!(msg.content_length(), Ok(3)));
    }

    #[test]
    fn untrustworthy_framing_is_malformed() {
        for head in [
            &b"POST /r HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 4\r\n"[..],
            b"POST /r HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n",
            b"POST /r HTTP/1.1\r\nContent-Length: +5\r\n",
            b"POST /r HTTP/1.1\r\nContent-Length: \r\n",
            b"POST /r HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n",
            b"POST /r HTTP/1.1\r\nTransfer-Encoding: chunked\r\n",
            b"POST /r HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n",
        ] {
            let msg = parse_head(head).expect("well-formed head");
            assert!(
                matches!(msg.content_length(), Err(HttpError::Malformed(_))),
                "{}",
                String::from_utf8_lossy(head)
            );
        }
        let none = parse_head(b"GET /healthz HTTP/1.1\r\n").expect("well-formed head");
        assert!(matches!(none.content_length(), Ok(0)));
    }

    #[test]
    fn malformed_heads_are_rejected() {
        assert!(parse_head(b"GET / HTTP/1.1\r\nno colon here\r\n").is_err());
        assert!(parse_head(&[0xFF, 0xFE, 0x0D, 0x0A]).is_err());
        assert!(parse_head(b"").is_err());
    }
}
