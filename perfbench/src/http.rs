//! A minimal HTTP/1.1 client: one keep-alive connection for plain
//! request/response exchanges, and a streaming reader for chunked
//! NDJSON bodies (`GET /jobs/:id/events`).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// A complete response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

struct Head {
    status: u16,
    chunked: bool,
    content_length: Option<usize>,
    close: bool,
}

fn write_request(
    out: &mut TcpStream,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if !body.is_empty() || matches!(method, "POST" | "PUT") {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    if !keep_alive {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    out.write_all(head.as_bytes())?;
    out.write_all(body)?;
    out.flush()
}

fn read_line(r: &mut impl BufRead) -> std::io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

fn read_head(r: &mut impl BufRead) -> std::io::Result<Head> {
    let status_line = read_line(r)?;
    let mut parts = status_line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| bad(format!("bad status line `{status_line}`")))?,
        _ => return Err(bad(format!("bad status line `{status_line}`"))),
    };
    let mut head = Head {
        status,
        chunked: false,
        content_length: None,
        close: false,
    };
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            return Ok(head);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("bad header `{line}`")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            head.content_length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            head.chunked = value.eq_ignore_ascii_case("chunked");
        } else if name.eq_ignore_ascii_case("connection") {
            head.close = value.eq_ignore_ascii_case("close");
        }
    }
}

/// Reads the body `head` announces, handing each piece to `sink` as it
/// arrives (one call per chunk for chunked bodies).
fn read_body(
    r: &mut impl BufRead,
    head: &Head,
    sink: &mut dyn FnMut(&[u8]),
) -> std::io::Result<()> {
    if head.chunked {
        loop {
            let size_line = read_line(r)?;
            let size_hex = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_hex, 16)
                .map_err(|_| bad(format!("bad chunk size `{size_line}`")))?;
            if size == 0 {
                // Trailers (none expected) end with an empty line.
                while !read_line(r)?.is_empty() {}
                return Ok(());
            }
            let mut chunk = vec![0; size];
            r.read_exact(&mut chunk)?;
            if !read_line(r)?.is_empty() {
                return Err(bad("chunk not followed by CRLF"));
            }
            sink(&chunk);
        }
    } else if let Some(n) = head.content_length {
        let mut body = vec![0; n];
        r.read_exact(&mut body)?;
        sink(&body);
        Ok(())
    } else {
        let mut body = Vec::new();
        r.read_to_end(&mut body)?;
        sink(&body);
        Ok(())
    }
}

/// One keep-alive connection to an HTTP/1.1 server, reopened when the
/// server closes it.
pub struct HttpClient {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl HttpClient {
    pub fn new(addr: SocketAddr) -> HttpClient {
        HttpClient { addr, conn: None }
    }

    /// Sends one request and reads the whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        let mut conn = match self.conn.take() {
            Some(c) => c,
            None => BufReader::new(TcpStream::connect(self.addr)?),
        };
        write_request(conn.get_mut(), self.addr, method, path, body, true)?;
        let head = read_head(&mut conn)?;
        let mut out = Vec::new();
        read_body(&mut conn, &head, &mut |b| out.extend_from_slice(b))?;
        if !head.close {
            self.conn = Some(conn);
        }
        Ok(Response {
            status: head.status,
            body: out,
        })
    }
}

/// `GET path` on a fresh connection, handing each complete body line to
/// `on_line` as soon as it arrives. Returns the status code.
pub fn stream_lines(
    addr: SocketAddr,
    path: &str,
    on_line: &mut dyn FnMut(&str),
) -> std::io::Result<u16> {
    let mut conn = BufReader::new(TcpStream::connect(addr)?);
    write_request(conn.get_mut(), addr, "GET", path, b"", false)?;
    let head = read_head(&mut conn)?;
    let mut pending = Vec::new();
    read_body(&mut conn, &head, &mut |bytes| {
        pending.extend_from_slice(bytes);
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..pos]);
            if !text.trim().is_empty() {
                on_line(text.trim_end_matches('\r'));
            }
        }
    })?;
    if !pending.is_empty() {
        on_line(String::from_utf8_lossy(&pending).trim_end());
    }
    Ok(head.status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Serves each canned response to one request, in order, on one
    /// connection, then closes it.
    fn canned(responses: Vec<&'static str>) -> (SocketAddr, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut out = stream;
            let mut seen = Vec::new();
            for resp in responses {
                let line = read_line(&mut reader).unwrap();
                let mut len = 0;
                loop {
                    let h = read_line(&mut reader).unwrap();
                    if h.is_empty() {
                        break;
                    }
                    if let Some(v) = h.strip_prefix("Content-Length: ") {
                        len = v.parse().unwrap();
                    }
                }
                let mut body = vec![0; len];
                reader.read_exact(&mut body).unwrap();
                seen.push(format!("{line} {}", String::from_utf8(body).unwrap()));
                out.write_all(resp.as_bytes()).unwrap();
            }
            seen
        });
        (addr, handle)
    }

    #[test]
    fn keep_alive_requests_share_one_connection() {
        let (addr, server) = canned(vec![
            "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
            "HTTP/1.1 202 Accepted\r\nContent-Type: x\r\nContent-Length: 0\r\n\r\n",
        ]);
        let mut c = HttpClient::new(addr);
        let a = c.request("PUT", "/instances/g", b"abc").unwrap();
        assert_eq!((a.status, a.text().as_str()), (200, "hello"));
        let b = c.request("POST", "/jobs", b"{}").unwrap();
        assert_eq!((b.status, b.body.len()), (202, 0));
        assert_eq!(
            server.join().unwrap(),
            vec!["PUT /instances/g HTTP/1.1 abc", "POST /jobs HTTP/1.1 {}"]
        );
    }

    #[test]
    fn chunked_lines_are_reassembled_across_chunks() {
        let (addr, server) = canned(vec![
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
             4\r\n{\"a\"\r\n6\r\n:1}\n{\"\r\n7\r\nb\":2}\n\n\r\n0\r\n\r\n",
        ]);
        let mut lines = Vec::new();
        let status =
            stream_lines(addr, "/jobs/1/events", &mut |l| lines.push(l.to_string())).unwrap();
        assert_eq!(status, 200);
        assert_eq!(lines, vec!["{\"a\":1}", "{\"b\":2}"]);
        server.join().unwrap();
    }

    #[test]
    fn malformed_chunk_size_is_an_error() {
        let (addr, server) = canned(vec![
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
        ]);
        assert!(stream_lines(addr, "/x", &mut |_| ()).is_err());
        server.join().unwrap();
    }

    #[test]
    fn streams_a_real_job_over_the_gateway() {
        use ff_service::{Event, JobRequest, JobStatus, Server, ServerConfig};
        let handle = Server::bind_with(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                http: Some("127.0.0.1:0".into()),
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let http = handle.http_addr().unwrap();
        let mut c = HttpClient::new(http);
        let put = c
            .request("PUT", "/instances/tri", b"4 4\n2 3\n1 3\n1 2 4\n3\n")
            .unwrap();
        assert_eq!(put.status, 200, "{}", put.text());
        let job = JobRequest {
            steps: Some(500),
            ..JobRequest::new("tri", 2)
        };
        let post = c
            .request("POST", "/jobs", job.to_value().to_string().as_bytes())
            .unwrap();
        assert_eq!(post.status, 202, "{}", post.text());
        let id = match Event::parse(post.text().trim()).unwrap() {
            Event::Accepted { job, .. } => job,
            other => panic!("unexpected {other:?}"),
        };
        let mut done = None;
        let status = stream_lines(http, &format!("/jobs/{id}/events"), &mut |line| {
            if let Ok(Event::Done(d)) = Event::parse(line) {
                done = Some(d);
            }
        })
        .unwrap();
        assert_eq!(status, 200);
        let done = done.expect("done event streamed");
        assert_eq!(done.status, JobStatus::Completed);
        assert_eq!(done.assignment.unwrap().len(), 4);
        ff_service::Client::connect(handle.addr())
            .unwrap()
            .shutdown()
            .unwrap();
        handle.join().unwrap();
    }
}
