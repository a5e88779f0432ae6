//! A minimal HTTP/1.1 keep-alive client: one request in flight per
//! connection, `Content-Length` framing only (all the gateway emits).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One keep-alive connection to the gateway.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

/// A decoded response.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
        })
    }

    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Reply> {
        self.request("POST", path, body)
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.request("GET", path, "")
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.out.extend_from_slice(body.as_bytes());
        self.writer.write_all(&self.out)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length".into()))?;
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|e| bad(e.to_string()))?;
        Ok(Reply { status, body })
    }
}
