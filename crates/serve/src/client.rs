//! A std-only blocking client for `dcdiff serve`, used by the CLI
//! (`dcdiff submit`), the protocol tests and `serve_bench`.

use std::net::TcpStream;
use std::time::Duration;

use crate::http::{
    parse_status_line, read_message, write_request, HttpError, Message, MAX_HEAD_BYTES,
};

/// A decoded HTTP response.
#[derive(Debug, Clone, Default)]
pub struct HttpResponse {
    /// Numeric status code.
    pub status: u16,
    /// Lowercased header pairs.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header value for `name` (lowercase), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the status is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

fn http_to_io(err: HttpError) -> std::io::Error {
    match err {
        HttpError::Io(e) => e,
        other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// Blocking one-request-per-connection client.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
}

impl Client {
    /// Client for `addr` (`host:port`) with a 60 s response timeout.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(60),
        }
    }

    /// Replace the response timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// The server address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn round_trip(
        &self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<HttpResponse> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(250)))?;
        stream.set_nodelay(true)?;
        write_request(&mut stream, method, target, headers, body)?;
        let message = read_message(
            &mut stream,
            usize::MAX - MAX_HEAD_BYTES,
            self.timeout,
            &|| false,
        )
        .map_err(http_to_io)?;
        let Some(Message {
            start_line,
            headers,
            body,
        }) = message
        else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed without responding",
            ));
        };
        let status = parse_status_line(&start_line).map_err(http_to_io)?;
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }

    /// Submit a JPEG stream for DC recovery.
    ///
    /// `class` selects a deadline class (server default when `None`);
    /// `dc_plane` negotiates the block-mean PGM instead of the full
    /// recovered PPM.
    ///
    /// # Errors
    ///
    /// Connection and framing failures; HTTP-level rejections are returned
    /// as non-2xx [`HttpResponse`]s, not errors.
    pub fn recover(
        &self,
        jpeg: &[u8],
        class: Option<&str>,
        dc_plane: bool,
    ) -> std::io::Result<HttpResponse> {
        let mut headers: Vec<(&str, &str)> = Vec::new();
        if let Some(class) = class {
            headers.push(("x-deadline-class", class));
        }
        if dc_plane {
            headers.push(("accept", "image/x-portable-graymap"));
        }
        self.round_trip("POST", "/recover", &headers, jpeg)
    }

    /// [`Client::recover`] with a caller-supplied W3C `traceparent` header,
    /// so the server's spans for this request join an existing trace. The
    /// response's `x-dcdiff-trace-id` echoes the propagated trace id.
    ///
    /// # Errors
    ///
    /// Connection and framing failures.
    pub fn recover_traced(
        &self,
        jpeg: &[u8],
        class: Option<&str>,
        traceparent: &str,
    ) -> std::io::Result<HttpResponse> {
        let mut headers: Vec<(&str, &str)> = vec![("traceparent", traceparent)];
        if let Some(class) = class {
            headers.push(("x-deadline-class", class));
        }
        self.round_trip("POST", "/recover", &headers, jpeg)
    }

    /// GET an endpoint (`/healthz`, `/metrics`).
    ///
    /// # Errors
    ///
    /// Connection and framing failures.
    pub fn get(&self, target: &str) -> std::io::Result<HttpResponse> {
        self.round_trip("GET", target, &[], &[])
    }

    /// [`Client::get`] with explicit request headers (`Accept: text/plain`
    /// negotiates the Prometheus exposition on `/metrics`).
    ///
    /// # Errors
    ///
    /// Connection and framing failures.
    pub fn get_with(
        &self,
        target: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        self.round_trip("GET", target, headers, &[])
    }

    /// Ask the server to drain (`POST /admin/drain`).
    ///
    /// # Errors
    ///
    /// Connection and framing failures.
    pub fn drain(&self) -> std::io::Result<HttpResponse> {
        self.round_trip("POST", "/admin/drain", &[], &[])
    }
}
