//! A deliberately small HTTP/1.1 subset over `std::net::TcpStream`: enough
//! for JSON request/response bodies, chunked streaming responses, and the
//! tiny client the tests and benches use. Hand-rolled because the
//! workspace vendors every dependency (see `vendor/README.md`) and a full
//! HTTP stack is far more surface than the service needs.
//!
//! Supported: request line + headers + `Content-Length` bodies,
//! `Connection: close` semantics (one request per connection), fixed and
//! chunked (`Transfer-Encoding: chunked`) responses. Not supported:
//! keep-alive pipelining, trailers, compression, TLS.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Maximum accepted header block (request line + headers, line
/// terminators included) in bytes.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read and parse one request from `stream`, capping the body at
/// `max_body` bytes. Errors map to a 400 at the call site.
pub fn read_request<R: Read>(stream: &mut R, max_body: usize) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let mut head = Vec::new();
    // Read up to the blank line separating headers from the body, through
    // a cap: a line that never ends stops at the limit instead of growing
    // the buffer for as long as the client keeps sending.
    let mut capped = (&mut reader).take(MAX_HEADER_BYTES as u64 + 1);
    loop {
        let mut line = Vec::new();
        let n = read_crlf_line(&mut capped, &mut line)?;
        if capped.limit() == 0 {
            return Err(bad("request header block too large"));
        }
        if n == 0 {
            return Err(bad("connection closed mid-request"));
        }
        if line.is_empty() {
            break;
        }
        head.extend_from_slice(&line);
        head.push(b'\n');
    }
    let head = String::from_utf8(head).map_err(|_| bad("non-UTF-8 request head"))?;
    let mut lines = head.lines();
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().map_err(|_| bad("bad Content-Length")))
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(bad("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Read one `\r\n`-terminated line (terminator stripped) into `out`.
/// Returns bytes consumed including the terminator (0 = EOF).
fn read_crlf_line<R: BufRead>(reader: &mut R, out: &mut Vec<u8>) -> io::Result<usize> {
    let n = reader.read_until(b'\n', out)?;
    while out.last() == Some(&b'\n') || out.last() == Some(&b'\r') {
        out.pop();
    }
    Ok(n)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Canonical reason phrases for the status codes the service emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A fixed (non-streaming) response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond Content-Type/Content-Length/Connection.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error body `{"error": msg}` with the given status.
    pub fn error(status: u16, msg: &str) -> Response {
        let escaped = serde_json::to_string(msg).expect("string serializes");
        Response::json(status, format!("{{\"error\":{escaped}}}"))
    }

    /// Attach an extra header.
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serialize onto `stream` with `Connection: close`.
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_text(self.status),
            self.body.len()
        );
        for (k, v) in &self.headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// A chunked (`Transfer-Encoding: chunked`) response in progress: the
/// status line goes out at construction, each [`ChunkedWriter::chunk`]
/// flushes immediately (streamed progress must not sit in a buffer), and
/// [`ChunkedWriter::finish`] terminates the stream.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Start a chunked response with `status` and optional extra headers.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        headers: &[(String, String)],
    ) -> io::Result<ChunkedWriter<'a>> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
            status,
            status_text(status)
        );
        for (k, v) in headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Emit one chunk (a full ndjson line including its newline).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminate the chunked stream.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A parsed client-side response (testing / benchmarking helper).
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body, chunked transfer decoding already applied.
    pub body: String,
}

impl ClientResponse {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Minimal blocking HTTP client: one request, `Connection: close`, fixed
/// or chunked response. The integration tests and the `serve-mix`
/// benchmark workload go through this, so they see the same byte stream
/// a real client sees.
pub fn client_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    read_crlf_line(&mut reader, &mut line)?;
    let status_line = String::from_utf8(line).map_err(|_| bad("non-UTF-8 status line"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    loop {
        let mut line = Vec::new();
        let n = read_crlf_line(&mut reader, &mut line)?;
        if n == 0 || line.is_empty() {
            break;
        }
        let text = String::from_utf8(line).map_err(|_| bad("non-UTF-8 header"))?;
        if let Some((k, v)) = text.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = Vec::new();
            read_crlf_line(&mut reader, &mut size_line)?;
            let text = String::from_utf8(size_line).map_err(|_| bad("non-UTF-8 chunk size"))?;
            let size = usize::from_str_radix(text.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                break;
            }
            let mut chunk = vec![0u8; size];
            reader.read_exact(&mut chunk)?;
            body.extend_from_slice(&chunk);
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
        }
    } else if let Some(len) = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        body = vec![0u8; len];
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }
    Ok(ClientResponse {
        status,
        headers,
        body: String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_round_trips_through_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream, 1 << 20).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/run");
            assert_eq!(req.body, b"{\"n\":64}");
            Response::json(200, "{\"ok\":true}")
                .header("X-Cache", "miss")
                .write_to(&mut stream)
                .unwrap();
        });
        let resp = client_request(
            addr,
            "POST",
            "/run?verbose=1",
            "{\"n\":64}",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"ok\":true}");
        assert_eq!(resp.header("x-cache"), Some("miss"));
        server.join().unwrap();
    }

    #[test]
    fn chunked_response_decodes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_request(&mut stream, 1 << 20).unwrap();
            let mut w = ChunkedWriter::start(&mut stream, 200, &[]).unwrap();
            w.chunk(b"{\"event\":\"progress\"}\n").unwrap();
            w.chunk(b"{\"event\":\"result\"}\n").unwrap();
            w.finish().unwrap();
        });
        let resp = client_request(addr, "GET", "/x", "", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body,
            "{\"event\":\"progress\"}\n{\"event\":\"result\"}\n"
        );
        server.join().unwrap();
    }

    #[test]
    fn a_head_without_newlines_is_refused_without_buffering_it() {
        /// 64 MiB of `a`, counting what the parser pulls.
        struct Endless {
            served: usize,
        }

        impl Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min((64 << 20) - self.served);
                buf[..n].fill(b'a');
                self.served += n;
                Ok(n)
            }
        }

        let mut stream = Endless { served: 0 };
        let err = read_request(&mut stream, 1 << 20).unwrap_err();
        assert_eq!(err.to_string(), "request header block too large");
        assert!(
            stream.served <= 2 * MAX_HEADER_BYTES,
            "{} bytes pulled",
            stream.served
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2_000))]

        /// A valid request with head-significant bytes written over it, a
        /// run of one byte spliced in, and then truncated parses or fails,
        /// but never panics; a parsed body has its declared length.
        #[test]
        fn request_read_never_panics(
            edits in proptest::prop::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>()),
                0..8,
            ),
            splice in (proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>(), 0usize..20_000),
            cut in proptest::prelude::any::<usize>(),
        ) {
            const BYTES: &[u8] = b"\r\n: \t09-+?/aZ\xff\xc3";
            let mut bytes = b"POST /run?verbose=1 HTTP/1.1\r\nHost: localhost\r\n\
                Content-Length: 8\r\nX-Request: a:b\r\n\r\n{\"n\":64}"
                .to_vec();
            for (at, b) in edits {
                let at = at % bytes.len();
                bytes[at] = BYTES[b % BYTES.len()];
            }
            let (at, b, len) = splice;
            let at = at % (bytes.len() + 1);
            bytes.splice(at..at, std::iter::repeat_n(BYTES[b % BYTES.len()], len));
            bytes.truncate(cut % (bytes.len() + 1));
            if let Ok(req) = read_request(&mut &bytes[..], 1 << 10) {
                let declared = req.header("content-length").map_or(0, |v| v.parse().unwrap());
                proptest::prop_assert_eq!(req.body.len(), declared);
            }
        }
    }

    #[test]
    fn oversized_body_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert!(read_request(&mut stream, 4).is_err());
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789")
            .unwrap();
        server.join().unwrap();
    }
}
