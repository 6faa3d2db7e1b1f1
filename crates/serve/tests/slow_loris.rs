//! Slow-loris regression, end to end against the real server: a client
//! that dribbles a never-ending header must be answered with `431` as
//! soon as the 16 KiB head bound fills — the server must not buffer
//! without limit waiting for a line terminator that never comes — a
//! client that stalls mid-request must be disconnected by the idle
//! timeout, not hold its slot forever, and a client that never reads its
//! responses must not keep the server from serving anyone else.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlan_core::{train_model, Dataset, Labels, ModelKind, Problem, Task, TrainConfig, TrainData};
use sqlan_serve::{save_bundle, ModelRegistry, ScoringConfig, ServeConfig, ServerHandle};
use sqlan_workload::{build_sdss, Scale, SdssConfig};

fn boot(tag: &str) -> (ServerHandle, std::path::PathBuf) {
    let w = build_sdss(SdssConfig {
        n_sessions: 40,
        scale: Scale(0.02),
        seed: 7,
    });
    let ds = Dataset::build(&w, Problem::ErrorClassification);
    let cut = ds.len() * 4 / 5;
    let model = train_model(
        ModelKind::MFreq,
        Task::Classify(Problem::ErrorClassification.n_classes()),
        &TrainData {
            statements: &ds.statements[..cut],
            labels: Labels::Classes(&ds.class_labels[..cut]),
            valid_statements: &ds.statements[cut..],
            valid_labels: Labels::Classes(&ds.class_labels[cut..]),
        },
        &TrainConfig {
            epochs: 1,
            ..TrainConfig::tiny()
        },
        None,
    );
    let dir = std::env::temp_dir().join(format!("sqlan-loris-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    save_bundle(&dir, "loris", 7, &[(Problem::ErrorClassification, &model)]).expect("save");
    let registry = Arc::new(ModelRegistry::open(&dir).expect("open"));
    let handle = sqlan_serve::start(
        registry,
        ServeConfig {
            http_workers: 1,
            idle_timeout: Duration::from_millis(400),
            scoring: ScoringConfig {
                workers: 1,
                ..ScoringConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("start");
    (handle, dir)
}

/// Dribble an endless header in small chunks. The server must answer
/// `431` once `MAX_HEAD_BYTES` (16 KiB) have been buffered — well before
/// the dribble would ever finish — and then close.
#[test]
fn endless_header_dribble_gets_431_within_the_head_bound() {
    let (handle, dir) = boot("dribble");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nx-loris: ")
        .expect("head start");
    // 64 dribbles * 512 B ≈ 2 * MAX_HEAD_BYTES, never a terminator.
    // The server must answer midway (431 at the 16 KiB mark) — it
    // must NOT absorb all of it silently. Poll for the response
    // between dribbles and stop writing once it appears, so the
    // server's close cannot RST the answer out of our receive queue.
    stream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("poll timeout");
    let chunk = [b'z'; 512];
    let mut sent = 32usize;
    let mut response = Vec::new();
    let mut probe = [0u8; 1024];
    for _ in 0..64 {
        if stream.write_all(&chunk).is_err() {
            break; // already rejected and closed — fine
        }
        sent += chunk.len();
        match stream.read(&mut probe) {
            Ok(0) => break,
            Ok(n) => {
                response.extend_from_slice(&probe[..n]);
                break;
            }
            Err(_) => {} // nothing yet: keep dribbling
        }
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("drain timeout");
    let _ = stream.read_to_end(&mut response); // tolerate RST tail
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 431 "),
        "expected 431, got {text:?} after {sent} dribbled bytes"
    );
    assert!(text.contains("request head too large"), "body: {text:?}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The write-path mirror of slow-loris: a client that pipelines a pile
/// of requests and never reads a byte of the responses must not block
/// the server on its unsendable output. The event loop never blocks on a
/// write, so a second client gets served promptly, and the idle sweep
/// drops the hog.
#[test]
fn slow_reader_cannot_pin_the_server_past_the_idle_timeout() {
    let (handle, dir) = boot("slowreader");
    let mut hog = TcpStream::connect(handle.addr()).expect("connect hog");
    hog.set_write_timeout(Some(Duration::from_secs(2)))
        .expect("hog write timeout");
    hog.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("hog read timeout");
    // ~8000 pipelined /metrics requests → several MB of responses, far
    // past what loopback socket buffers absorb with nobody reading.
    // The single handler (boot uses http_workers: 1) answers until the
    // hog's socket buffers fill; from then on its output only waits,
    // and the 400 ms idle timeout must drop the connection. Ignore write
    // errors: the server may drop us mid-pile.
    let pile = "GET /metrics HTTP/1.1\r\n\r\n".repeat(8000);
    let _ = hog.write_all(pile.as_bytes());

    // The server must serve someone else promptly.
    let start = Instant::now();
    let mut client = TcpStream::connect(handle.addr()).expect("connect second");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    client
        .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .expect("healthz");
    let mut response = Vec::new();
    client.read_to_end(&mut response).expect("read healthz");
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 200 "),
        "second client not served: {text:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "server pinned by the slow reader for {:?}",
        start.elapsed()
    );

    // And the hog itself was disconnected by the idle timeout, not
    // parked: draining our backlog of responses must hit EOF/reset in
    // bounded time.
    let mut sink = [0u8; 64 * 1024];
    let drained = Instant::now();
    loop {
        match hog.read(&mut sink) {
            Ok(0) => break,  // FIN
            Err(_) => break, // reset or timeout
            Ok(_) if drained.elapsed() > Duration::from_secs(20) => {
                panic!("hog connection still alive and streaming after 20s")
            }
            Ok(_) => {}
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that sends half a request and then stalls is dropped by the
/// idle timeout — the connection cannot be parked forever.
#[test]
fn stalled_mid_request_connection_is_dropped_by_idle_timeout() {
    let (handle, dir) = boot("stall");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(b"GET /healthz HT").expect("partial head");
    let start = Instant::now();
    let mut buf = [0u8; 64];
    // The server closes (EOF or reset) without ever getting a full
    // request; it must happen on the idle-timeout scale, not ours.
    let n = stream.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "expected close, got data");
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "connection held too long"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
