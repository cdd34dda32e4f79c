//! Minimal HTTP/1.1 on `std::net::TcpStream`: request parsing, fixed and
//! chunked responses, and a tiny client (`coaxial http ...`) so scripts
//! work on hosts without `curl`. Every response is `Connection: close` —
//! one request per connection keeps the server loop trivial and is plenty
//! for a simulation gateway whose requests run for seconds.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Cap on request bodies: a sweep over every workload × config is ~4 KB;
/// anything near this limit is abuse, not simulation.
const MAX_BODY_BYTES: u64 = 1 << 20;

/// Cap on the request line and on each header line, CRLF included.
const MAX_LINE_BYTES: u64 = 8 * 1024;

/// Cap on header lines per request.
const MAX_HEADERS: usize = 64;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path only (any `?query` is split off and ignored).
    pub path: String,
    /// Header names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Read one line of at most [`MAX_LINE_BYTES`]; longer is `InvalidData`.
fn read_capped_line(stream: &mut impl BufRead) -> std::io::Result<String> {
    let mut line = String::new();
    stream.take(MAX_LINE_BYTES + 1).read_line(&mut line)?;
    if line.len() as u64 > MAX_LINE_BYTES {
        return Err(invalid("request line or header too long"));
    }
    Ok(line)
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Read one request from the stream (no keep-alive). A stream that
    /// ends before the first byte is `UnexpectedEof`; a request past the
    /// line, header or body caps is `InvalidData`.
    pub fn read_from<R: BufRead>(stream: &mut R) -> std::io::Result<Request> {
        let line = read_capped_line(stream)?;
        if line.is_empty() {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let mut parts = line.split_whitespace();
        let method = parts.next().ok_or_else(|| invalid("empty request line"))?.to_string();
        let target = parts.next().ok_or_else(|| invalid("missing request target"))?;
        let path = target.split('?').next().unwrap_or(target).to_string();

        let mut headers = Vec::new();
        for n in 0.. {
            let h = read_capped_line(stream)?;
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if n == MAX_HEADERS {
                return Err(invalid("too many headers"));
            }
            if let Some((k, v)) = h.split_once(':') {
                headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
            }
        }

        let len: u64 = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        if len > MAX_BODY_BYTES {
            return Err(invalid("request body too large"));
        }
        let mut body = vec![0u8; coaxial_sim::idx(len)];
        stream.read_exact(&mut body)?;
        Ok(Request { method, path, headers, body })
    }
}

/// Write a complete fixed-length response and flush.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        status_text(status),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Streaming response writer (`Transfer-Encoding: chunked`), used by the
/// job-progress endpoint to push newline-delimited JSON as work proceeds.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
            status_text(status)
        );
        stream.write_all(head.as_bytes())?;
        Ok(Self { stream })
    }

    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        self.stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A client response: status line code, headers (lowercased names), and
/// the body with any chunked transfer coding already decoded.
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// Issue one `METHOD path` request against `host:port` and read the full
/// response. `url` accepts `http://host:port/path` or `host:port/path`.
pub fn client_request(method: &str, url: &str, body: &[u8]) -> std::io::Result<ClientResponse> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (host, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    let mut stream = TcpStream::connect(host).map_err(|e| bad(format!("connect {host}: {e}")))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;

    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        reader.read_line(&mut h)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }

    let chunked =
        headers.iter().any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        let mut out = Vec::new();
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|e| bad(format!("bad chunk size {size_line:?}: {e}")))?;
            if size == 0 {
                let mut trailer = String::new();
                reader.read_line(&mut trailer)?;
                break;
            }
            let mut chunk = vec![0u8; size];
            reader.read_exact(&mut chunk)?;
            out.extend_from_slice(&chunk);
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
        }
        out
    } else {
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let mut out = vec![0u8; len];
        reader.read_exact(&mut out)?;
        out
    };
    Ok(ClientResponse { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coaxial_sim::SplitMix64;
    use std::io::ErrorKind;

    fn parse(bytes: &[u8]) -> std::io::Result<Request> {
        Request::read_from(&mut &bytes[..])
    }

    /// `GET` with `n` headers, ended by the blank line.
    fn with_headers(n: usize) -> Vec<u8> {
        let mut r = b"GET /healthz HTTP/1.1\r\n".to_vec();
        for i in 0..n {
            r.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
        }
        r.extend_from_slice(b"\r\n");
        r
    }

    /// A request line of exactly `len` bytes, CRLF included.
    fn line_of(len: usize) -> Vec<u8> {
        let mut r = b"GET /".to_vec();
        r.resize(len - 2, b'a');
        r.extend_from_slice(b"\r\n\r\n");
        r
    }

    #[test]
    fn caps_hold_at_their_bounds() {
        let max_line = coaxial_sim::idx(MAX_LINE_BYTES);
        assert!(parse(&with_headers(MAX_HEADERS)).is_ok());
        assert_eq!(
            parse(&with_headers(MAX_HEADERS + 1)).unwrap_err().kind(),
            ErrorKind::InvalidData
        );
        assert!(parse(&line_of(max_line)).is_ok());
        assert_eq!(parse(&line_of(max_line + 1)).unwrap_err().kind(), ErrorKind::InvalidData);
        let body_cap = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert_eq!(parse(body_cap.as_bytes()).unwrap_err().kind(), ErrorKind::InvalidData);
        // A client that hangs up before its first byte sent no request.
        assert_eq!(parse(b"").unwrap_err().kind(), ErrorKind::UnexpectedEof);
    }

    /// Seeded byte fuzzer over `read_from`: HTTP-shaped fragments, raw
    /// bytes and near-cap runs in random order. No input may panic or get
    /// a body past the cap, and no suffix may rescue an over-long line or
    /// a 65th header.
    #[test]
    fn seeded_fuzz_never_panics_and_never_passes_a_cap() {
        let mut rng = SplitMix64::new(0x4854_5450);
        let max_line = coaxial_sim::idx(MAX_LINE_BYTES);
        let lengths = [0, 1, 3, 8, MAX_BODY_BYTES, MAX_BODY_BYTES + 1, u64::MAX];
        let (mut parsed, mut with_body) = (0, 0);
        for case in 0..3000 {
            let mut input = Vec::new();
            for _ in 0..=rng.next_below(12) {
                match rng.next_below(7) {
                    0 => input.extend_from_slice(b"POST /v1/run?x=1 HTTP/1.1\r\n"),
                    1 => {
                        let n = lengths[coaxial_sim::idx(rng.next_below(lengths.len() as u64))];
                        input.extend_from_slice(format!("Content-Length: {n}\r\n\r\n").as_bytes());
                    }
                    2 => input.extend_from_slice(b"x-h: v\r\n"),
                    3 => input.extend_from_slice(b"\r\n"),
                    4 => {
                        let len = max_line - 16 + coaxial_sim::idx(rng.next_below(32));
                        input.resize(input.len() + len, b'a');
                    }
                    _ => {
                        for _ in 0..rng.next_below(64) {
                            input.push(rng.next_u64().to_le_bytes()[0]);
                        }
                    }
                }
            }
            let tail = &input[coaxial_sim::idx(rng.next_below(input.len() as u64 + 1))..];
            if let Ok(req) = parse(tail) {
                assert!(req.body.len() as u64 <= MAX_BODY_BYTES, "case {case}: body over the cap");
                parsed += 1;
                with_body += usize::from(!req.body.is_empty());
            }
            for mut bad in [line_of(max_line + 1 + case % 64), with_headers(MAX_HEADERS + 1)] {
                bad.truncate(bad.len() - 2); // the blank line; the caps fire before it
                bad.extend_from_slice(tail);
                let err = parse(&bad).expect_err("a suffix rescued a capped request");
                assert_eq!(err.kind(), ErrorKind::InvalidData, "case {case}");
            }
        }
        assert!(parsed > 0 && with_body > 0, "the fuzzer must reach the body path");
    }
}
