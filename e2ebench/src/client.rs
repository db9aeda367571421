//! A raw-`TcpStream` HTTP/1.1 client: one request per connection, timed
//! from `connect` to the last byte, and a strict response decoder in which
//! a non-200 status or a truncated chunked body is a failure.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// Client-side timings of one exchange, in milliseconds from the start of
/// `connect`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Until `connect` returned.
    pub connect_ms: f64,
    /// Until the first response byte arrived.
    pub ttfb_ms: f64,
    /// Until the last response byte (the server closes the connection).
    pub total_ms: f64,
}

/// The raw HTTP request bytes of a `POST`.
pub fn post_request(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// The raw HTTP request bytes of a `GET`.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n").into_bytes()
}

/// Sends `request` on a new connection and reads the response to EOF.
/// With an enabled tracer the exchange is one `client.request` span with
/// `client.connect`, `client.write`, `client.wait` (until the first byte)
/// and `client.read` children.
pub fn exchange(
    addr: SocketAddr,
    request: &[u8],
    tracer: &mut Tracer,
) -> std::io::Result<(Vec<u8>, Timing)> {
    let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
    tracer.begin("client.request");
    let result = (|| {
        let start = Instant::now();
        let mut stream = tracer.span("client.connect", || TcpStream::connect(addr))?;
        let connected = Instant::now();
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        tracer.span("client.write", || stream.write_all(request))?;
        let mut raw = Vec::with_capacity(4096);
        let mut buf = [0u8; 16 * 1024];
        tracer.begin("client.wait");
        let first = stream.read(&mut buf);
        tracer.end();
        let n = first?;
        let first_byte = Instant::now();
        raw.extend_from_slice(&buf[..n]);
        if n > 0 {
            tracer.span("client.read", || -> std::io::Result<()> {
                loop {
                    let n = stream.read(&mut buf)?;
                    if n == 0 {
                        return Ok(());
                    }
                    raw.extend_from_slice(&buf[..n]);
                }
            })?;
        }
        let done = Instant::now();
        Ok((
            raw,
            Timing {
                connect_ms: ms(start, connected),
                ttfb_ms: ms(start, first_byte),
                total_ms: ms(start, done),
            },
        ))
    })();
    tracer.end();
    result
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body (de-chunked when the response was chunked).
    pub body: Vec<u8>,
}

/// Decodes a complete response read to EOF.
///
/// # Errors
///
/// A message for a malformed head, a body shorter than its
/// `Content-Length`, or a chunked body that ends before its terminating
/// zero-length chunk.
pub fn decode_response(raw: &[u8]) -> Result<Response, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response ended inside the head")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut chunked = false;
    let mut length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        } else if name == "content-length" {
            length = Some(
                value
                    .parse()
                    .map_err(|_| format!("bad content-length {value:?}"))?,
            );
        }
    }
    let rest = &raw[head_end + 4..];
    let body = if chunked {
        decode_chunked(rest)?
    } else if let Some(length) = length {
        if rest.len() < length {
            return Err(format!(
                "body truncated at {} of {length} bytes",
                rest.len()
            ));
        }
        rest[..length].to_vec()
    } else {
        rest.to_vec()
    };
    Ok(Response { status, body })
}

/// Decodes a chunked transfer-encoded body.
///
/// # Errors
///
/// A message when a size line is malformed or the data ends before the
/// terminating zero-length chunk.
pub fn decode_chunked(mut data: &[u8]) -> Result<Vec<u8>, String> {
    let mut body = Vec::with_capacity(data.len());
    loop {
        let line_end = data
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("chunked body truncated in a size line")?;
        let size_text = std::str::from_utf8(&data[..line_end]).map_err(|_| "bad chunk size")?;
        let size_text = size_text.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| format!("bad chunk size {size_text:?}"))?;
        data = &data[line_end + 2..];
        if size == 0 {
            return if data.starts_with(b"\r\n") {
                Ok(body)
            } else {
                Err("chunked body truncated after the last chunk".to_string())
            };
        }
        if data.len() < size + 2 {
            return Err(format!("chunk of {size} bytes truncated at {}", data.len()));
        }
        if &data[size..size + 2] != b"\r\n" {
            return Err("chunk not followed by CRLF".to_string());
        }
        body.extend_from_slice(&data[..size]);
        data = &data[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                        Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";

    #[test]
    fn decodes_a_complete_chunked_response() {
        let raw = format!("{HEAD}5\r\nhello\r\n7\r\n world\n\r\n0\r\n\r\n");
        let r = decode_response(raw.as_bytes()).expect("complete");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"hello world\n");
    }

    #[test]
    fn truncated_chunked_bodies_are_failures() {
        for cut in [
            format!("{HEAD}5\r\nhello\r\n"),
            format!("{HEAD}5\r\nhel"),
            format!("{HEAD}5\r\nhello\r\n0\r\n"),
            format!("{HEAD}a"),
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked".to_string(),
        ] {
            assert!(
                decode_response(cut.as_bytes()).is_err(),
                "{cut:?} must fail"
            );
        }
    }

    #[test]
    fn non_200_status_is_reported() {
        let raw = "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 5\r\n\r\nretry";
        let r = decode_response(raw.as_bytes()).expect("well formed");
        assert_eq!((r.status, r.body.as_slice()), (429, b"retry".as_slice()));
        let short = "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort";
        assert!(decode_response(short.as_bytes()).is_err());
    }

    #[test]
    fn decodes_what_the_daemon_writes() {
        let mut raw = Vec::new();
        let mut w = snoop_serve::http::ChunkedWriter::start(&mut raw, 200, "application/x-ndjson")
            .expect("vec sink");
        w.chunk(b"{\"a\":1}\n").expect("vec sink");
        w.chunk(b"{\"done\":true}\n").expect("vec sink");
        w.finish().expect("vec sink");
        let r = decode_response(&raw).expect("complete");
        assert_eq!(r.body, b"{\"a\":1}\n{\"done\":true}\n");
        assert!(decode_response(&raw[..raw.len() - 3]).is_err());
    }
}
