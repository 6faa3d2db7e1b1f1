//! Event-loop integration: boot the epoll server with a tiny echo-ish
//! service and drive it with plain blocking sockets — keep-alive reuse,
//! parse-error responses, idle-timeout sweep, and many concurrent idle
//! connections.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlan_net::{serve, Answer, HttpError, NetConfig, Request, Service};

#[derive(Debug, Default)]
struct Echo {
    calls: AtomicU64,
    parse_errors: AtomicU64,
}

impl Service for Echo {
    fn call(&self, req: &Request) -> Answer {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Answer::json(
            200,
            format!(
                "{{\"path\":\"{}\",\"body_len\":{}}}",
                req.path,
                req.body.len()
            ),
        )
    }

    fn on_parse_error(&self, _err: &HttpError) {
        self.parse_errors.fetch_add(1, Ordering::Relaxed);
    }
}

fn boot(cfg: NetConfig) -> (sqlan_net::EventLoopHandle, Arc<Echo>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let service = Arc::new(Echo::default());
    let handle = serve(listener, Arc::clone(&service), cfg).expect("serve");
    (handle, service)
}

/// Send raw bytes, read one full response (status line + headers +
/// content-length body). Returns (status, body).
fn roundtrip(reader: &mut BufReader<TcpStream>, raw: &[u8]) -> (u16, String) {
    reader.get_ref().write_all(raw).expect("write");
    read_response(reader)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header");
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

#[test]
fn keep_alive_requests_on_one_connection() {
    let (handle, service) = boot(NetConfig::default());
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for i in 0..5 {
        let (status, body) = roundtrip(
            &mut reader,
            format!("POST /r{i} HTTP/1.1\r\ncontent-length: 2\r\n\r\nok").as_bytes(),
        );
        assert_eq!(status, 200);
        assert!(body.contains(&format!("/r{i}")), "{body}");
    }
    assert_eq!(service.calls.load(Ordering::Relaxed), 5);
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (handle, service) = boot(NetConfig::default());
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // Both requests in a single write; responses must come back in order.
    let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
    reader.get_ref().write_all(raw).expect("write");
    let (s1, b1) = read_response(&mut reader);
    let (s2, b2) = read_response(&mut reader);
    assert_eq!((s1, s2), (200, 200));
    assert!(b1.contains("/a"), "{b1}");
    assert!(b2.contains("/b"), "{b2}");
    assert_eq!(service.calls.load(Ordering::Relaxed), 2);
    handle.shutdown();
}

#[test]
fn malformed_head_gets_400_and_close() {
    let (handle, service) = boot(NetConfig::default());
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (status, body) = roundtrip(&mut reader, b"GET / HTTP/1.1\r\nbroken header\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    assert_eq!(service.parse_errors.load(Ordering::Relaxed), 1);
    // Server closes after an error response.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty());
    handle.shutdown();
}

#[test]
fn oversized_head_gets_431_mid_stream() {
    let (handle, service) = boot(NetConfig::default());
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = reader.get_ref();
    w.write_all(b"GET / HTTP/1.1\r\nx-a: ").expect("start");
    // Dribble an endless header; the server must answer 431 without
    // waiting for a line terminator that never comes.
    let chunk = [b'a'; 1024];
    for _ in 0..20 {
        if w.write_all(&chunk).is_err() {
            break; // server already closed on us — fine
        }
    }
    let (status, _) = read_response(&mut reader);
    assert_eq!(status, 431);
    assert_eq!(service.parse_errors.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn idle_connections_are_swept() {
    let (handle, _service) = boot(NetConfig {
        idle_timeout: Duration::from_millis(200),
        ..NetConfig::default()
    });
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (status, _) = roundtrip(&mut reader, b"GET /x HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    // Sit idle past the timeout: the sweep closes us (EOF on read).
    let start = Instant::now();
    let mut buf = [0u8; 16];
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let n = reader.read(&mut buf).expect("swept close reads as EOF");
    assert_eq!(n, 0, "expected EOF from idle sweep");
    assert!(start.elapsed() < Duration::from_secs(5));
    assert_eq!(handle.connections(), 0);
    handle.shutdown();
}

#[test]
fn hundreds_of_idle_keep_alive_connections_coexist() {
    let (handle, service) = boot(NetConfig {
        idle_timeout: Duration::from_secs(60),
        ..NetConfig::default()
    });
    let mut conns: Vec<BufReader<TcpStream>> = Vec::new();
    for _ in 0..300 {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        conns.push(BufReader::new(stream));
    }
    // Every connection works, in reverse order, while the rest idle.
    for reader in conns.iter_mut().rev() {
        reader
            .get_ref()
            .write_all(b"GET /ping HTTP/1.1\r\n\r\n")
            .expect("write");
        let (status, _) = read_response(reader);
        assert_eq!(status, 200);
    }
    assert_eq!(service.calls.load(Ordering::Relaxed), 300);
    assert_eq!(handle.connections(), 300);
    drop(conns);
    handle.shutdown();
}
