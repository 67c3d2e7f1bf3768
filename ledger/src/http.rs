//! A minimal blocking HTTP/1.1 keep-alive client: one request in one write,
//! fixed-length or chunked response bodies.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(request.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let status_line = self.read_line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let (mut chunked, mut length) = (false, 0usize);
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                let (k, v) = (k.trim(), v.trim());
                if k.eq_ignore_ascii_case("transfer-encoding") && v == "chunked" {
                    chunked = true;
                } else if k.eq_ignore_ascii_case("content-length") {
                    length = v.parse().map_err(|_| bad(format!("bad length {v:?}")))?;
                }
            }
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                let size_line = self.read_line()?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
                let mut chunk = vec![0u8; size + 2];
                self.reader.read_exact(&mut chunk)?;
                if size == 0 {
                    break;
                }
                body.extend_from_slice(&chunk[..size]);
            }
        } else {
            body = vec![0u8; length];
            self.reader.read_exact(&mut body)?;
        }
        let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8".to_string()))?;
        Ok(Response { status, body })
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}
