//! A minimal keep-alive HTTP/1.1 client for the load generator.
//! Requests are pre-rendered to bytes before a phase starts, so the
//! timed loop only writes and reads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket timeout: a reply slower than this counts as a failure.
pub const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// A full `POST` request, ready to write.
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// A `GET` request, ready to write.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

/// `{"bytecode":"0x…"}`
pub fn predict_body(hex: &str) -> Vec<u8> {
    format!("{{\"bytecode\":\"{hex}\"}}").into_bytes()
}

/// `{"contracts":["0x…",…]}`
pub fn batch_body<'a>(hexes: impl IntoIterator<Item = &'a str>) -> Vec<u8> {
    let mut body = b"{\"contracts\":[".to_vec();
    for (i, hex) in hexes.into_iter().enumerate() {
        if i > 0 {
            body.push(b',');
        }
        body.push(b'"');
        body.extend_from_slice(hex.as_bytes());
        body.push(b'"');
    }
    body.extend_from_slice(b"]}");
    body
}

/// One keep-alive connection. After any I/O error the connection is
/// dropped and the next exchange reconnects.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn { addr, stream: None }
    }

    fn open(&mut self) -> std::io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            let reader = BufReader::new(s.try_clone()?);
            self.stream = Some((s, reader));
        }
        Ok(self.stream.as_mut().expect("just opened"))
    }

    /// Sends one pre-rendered request; returns the status and body.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let result = self.try_exchange(request);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn try_exchange(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let (writer, reader) = self.open()?;
        writer.write_all(request)?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((name, value)) = l.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad("bad length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }
}

/// Reads the live `generation` from a `GET /healthz` reply body.
pub fn generation_of(body: &[u8]) -> Option<u64> {
    // The body is small and flat; avoid a full JSON parse per poll.
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"generation\":")? + "\"generation\":".len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse::<f64>().ok().map(|g| g as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_and_generation_parse() {
        assert_eq!(predict_body("0x60"), b"{\"bytecode\":\"0x60\"}".to_vec());
        assert_eq!(
            batch_body(["0x60", "0x61"]),
            b"{\"contracts\":[\"0x60\",\"0x61\"]}".to_vec()
        );
        assert_eq!(
            generation_of(b"{\"status\":\"ok\",\"model\":\"rf\",\"generation\":12,\"x\":1}"),
            Some(12)
        );
        assert_eq!(generation_of(b"{\"status\":\"ok\"}"), None);
    }
}
