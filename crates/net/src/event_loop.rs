//! The readiness-driven HTTP front end: one epoll event-loop thread
//! owning every connection, plus a small pool of handler threads that
//! run the application callback ([`Service::call`]) so a slow handler
//! (e.g. one blocking on the scoring queue) never stalls I/O on the
//! other connections.
//!
//! ## Readiness model
//!
//! Level-triggered epoll. Each connection is interested in at most one
//! direction at a time:
//!
//! * **Reading** (`EPOLLIN`) while parsing a request. Bytes feed the
//!   sans-io [`HttpParser`], whose head bound is enforced *during*
//!   buffering — a slow-loris connection costs at most
//!   [`MAX_HEAD_BYTES`](crate::MAX_HEAD_BYTES) plus one read chunk.
//! * **Nothing** while a request is in flight with a handler thread.
//!   Deregistering read interest is the edge-level backpressure: a
//!   client that pipelines requests faster than handlers answer them
//!   accumulates bytes in its own socket buffer, not in server memory.
//! * **Writing** (`EPOLLOUT`) while a response is partially flushed.
//!   Further reads stay off until the response drains.
//!
//! Completions travel back from handler threads through a mutexed queue
//! plus a wake pipe (a `UnixStream` pair registered in the epoll set),
//! so the loop never polls for handler results.
//!
//! An idle sweep walks connections on a coarse tick and closes those
//! idle past the configured timeout. In-flight connections are exempt
//! (the handler will answer); half-parsed ones are not, so a stalled
//! client mid-head is dropped rather than held forever.
//!
//! ## Fault injection
//!
//! Four `sqlan-fault` points sit on the syscall edges, all free when no
//! fault plane is installed (one relaxed atomic load):
//!
//! * `net.read.eagain` — a ready connection's read pass returns early,
//!   as if the kernel reported `EAGAIN` (level-triggered epoll retries).
//! * `net.write.short` — a response flush writes a single byte and
//!   defers the rest to `EPOLLOUT`, forcing the partial-write path.
//! * `net.write.reset` — a flush behaves as if the peer reset the
//!   connection mid-write.
//! * `net.accept.emfile` — an accept pass fails as if the process were
//!   out of file descriptors, exercising the listener backoff.
//!
//! Handler threads additionally wrap [`Service::call`] in
//! `catch_unwind`: a panicking handler answers 500 and the thread keeps
//! serving, so one poisoned request cannot shrink the pool.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::parser::{render_json_response, Answer, HttpError, HttpParser, Parse, Request};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// The application side of the event loop: turns one parsed request into
/// an [`Answer`]. Called on a handler thread, so it may block (the
/// scoring queue does).
pub trait Service: Send + Sync + 'static {
    fn call(&self, req: &Request) -> Answer;
    /// A connection produced unparseable bytes (already answered with
    /// the right status by the loop) — hook for error counters.
    fn on_parse_error(&self, _err: &HttpError) {}
}

/// Event-loop configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Handler threads running [`Service::call`] (bounds concurrent
    /// in-flight requests).
    pub handler_threads: usize,
    /// Largest accepted `Content-Length`.
    pub max_body_bytes: usize,
    /// Idle connections are closed after this long without traffic.
    pub idle_timeout: Duration,
    /// Accept stops above this many open connections (new ones are
    /// closed immediately) — fd-exhaustion protection.
    pub max_connections: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            handler_threads: 4,
            max_body_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(5),
            max_connections: 120_000,
        }
    }
}

/// Reserved epoll tokens (connection slots use their slab index).
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Read chunk size. Must stay ≤ [`crate::parser::MAX_HEAD_BYTES`] so the
/// parser's bounded-absorb contract holds.
const READ_CHUNK: usize = 8 * 1024;

/// One request handed to a handler thread.
struct Work {
    token: usize,
    generation: u64,
    request: Request,
}

/// One finished response traveling back to the loop.
struct Completion {
    token: usize,
    generation: u64,
    answer: Answer,
    keep_alive: bool,
}

/// State shared between the loop, the handler threads, and the handle.
struct Shared {
    completions: Mutex<Vec<Completion>>,
    /// Open connections (loop-maintained, read through the handle).
    connections: AtomicU64,
    stop: AtomicBool,
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    parser: HttpParser,
    /// Pending response bytes ([`out_pos`] already written).
    out: Vec<u8>,
    out_pos: usize,
    last_activity: Instant,
    /// Request dispatched, waiting on a handler thread.
    in_flight: bool,
    /// Close once `out` drains.
    closing: bool,
    /// Readiness interest currently registered with epoll.
    interest: u32,
    /// Slot-reuse guard: completions carry the generation they were
    /// dispatched under and are dropped on mismatch.
    generation: u64,
}

/// A running epoll server. Call [`EventLoopHandle::shutdown`] to stop;
/// dropping the handle does not.
#[derive(Debug)]
pub struct EventLoopHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    wake_tx: UnixStream,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    handler_threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("connections", &self.connections.load(Ordering::Relaxed))
            .field("stop", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventLoopHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open on the loop.
    pub fn connections(&self) -> u64 {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Stop accepting, flush in-flight responses, close every
    /// connection, join the loop and handler threads.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        let _ = (&self.wake_tx).write(&[1]);
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        for t in self.handler_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Start the event loop on an already-bound listener and return
/// immediately.
pub fn serve<S: Service>(
    listener: TcpListener,
    service: Arc<S>,
    cfg: NetConfig,
) -> io::Result<EventLoopHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;

    let shared = Arc::new(Shared {
        completions: Mutex::new(Vec::new()),
        connections: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    });

    let (work_tx, work_rx) = mpsc::channel::<Work>();
    let work_rx = Arc::new(Mutex::new(work_rx));
    let mut handler_threads = Vec::with_capacity(cfg.handler_threads.max(1));
    for i in 0..cfg.handler_threads.max(1) {
        let work_rx = Arc::clone(&work_rx);
        let service = Arc::clone(&service);
        let shared = Arc::clone(&shared);
        let wake = wake_tx.try_clone()?;
        handler_threads.push(
            std::thread::Builder::new()
                .name(format!("sqlan-net-handler-{i}"))
                .spawn(move || loop {
                    let work = match work_rx.lock().expect("work queue").recv() {
                        Ok(w) => w,
                        Err(_) => return, // loop exited, channel closed
                    };
                    // Panic isolation: a handler that panics answers 500
                    // and the thread survives — otherwise one poisoned
                    // request would permanently shrink the handler pool.
                    let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        service.call(&work.request)
                    }))
                    .unwrap_or_else(|_| {
                        Answer::json(500, "{\"error\":\"internal server error\"}".to_string())
                    });
                    shared
                        .completions
                        .lock()
                        .expect("completions")
                        .push(Completion {
                            token: work.token,
                            generation: work.generation,
                            answer,
                            keep_alive: work.request.keep_alive,
                        });
                    // A full wake pipe already has a pending wakeup.
                    let _ = (&wake).write(&[1]);
                })
                .expect("spawn net handler"),
        );
    }

    let loop_shared = Arc::clone(&shared);
    let loop_service = Arc::clone(&service);
    let loop_thread = std::thread::Builder::new()
        .name("sqlan-net-loop".to_string())
        .spawn(move || {
            let mut lp = EventLoop {
                epoll: Epoll::new().expect("epoll_create1"),
                listener,
                wake_rx,
                conns: Vec::new(),
                free: Vec::new(),
                next_generation: 1,
                work_tx,
                shared: loop_shared,
                cfg,
                accept_paused_until: None,
                on_parse_error: move |e: &HttpError| loop_service.on_parse_error(e),
            };
            lp.run();
        })
        .expect("spawn net loop");

    Ok(EventLoopHandle {
        addr,
        shared,
        wake_tx,
        loop_thread: Some(loop_thread),
        handler_threads,
    })
}

struct EventLoop<F: FnMut(&HttpError)> {
    epoll: Epoll,
    listener: TcpListener,
    wake_rx: UnixStream,
    /// Connection slab indexed by epoll token.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    work_tx: mpsc::Sender<Work>,
    shared: Arc<Shared>,
    cfg: NetConfig,
    /// Backoff window after an accept error (e.g. EMFILE): the listener
    /// stays deregistered until this instant so level-triggered epoll
    /// cannot busy-spin the loop on a persistent error.
    accept_paused_until: Option<Instant>,
    on_parse_error: F,
}

impl<F: FnMut(&HttpError)> EventLoop<F> {
    fn run(&mut self) {
        self.epoll
            .add(self.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .expect("register listener");
        self.epoll
            .add(self.wake_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKE)
            .expect("register wake pipe");

        let sweep_every = (self.cfg.idle_timeout / 4)
            .max(Duration::from_millis(10))
            .min(Duration::from_millis(500));
        let mut last_sweep = Instant::now();
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 1024];
        let mut stop_deadline: Option<Instant> = None;

        loop {
            let timeout_ms = sweep_every.as_millis() as i32;
            let n = self.epoll.wait(&mut events, timeout_ms).unwrap_or_default();
            let now = Instant::now();
            for ev in &events[..n] {
                let (bits, token) = (ev.events, ev.data);
                match token {
                    TOKEN_LISTENER => self.accept_burst(now),
                    TOKEN_WAKE => self.drain_wake(),
                    t => self.conn_event(t as usize, bits, now),
                }
            }
            // Completions may land without a wake edge in the same
            // batch; draining unconditionally is cheap (one swap).
            self.drain_completions(now);

            if let Some(until) = self.accept_paused_until {
                if now >= until {
                    self.accept_paused_until = None;
                    let _ = self
                        .epoll
                        .add(self.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER);
                }
            }

            if now.duration_since(last_sweep) >= sweep_every {
                last_sweep = now;
                self.sweep_idle(now);
            }

            if self.shared.stop.load(Ordering::Acquire) {
                // First pass: stop accepting, close everything not
                // waiting on a handler; then give in-flight requests a
                // grace period to flush before forcing the exit.
                if stop_deadline.is_none() {
                    stop_deadline = Some(now + Duration::from_secs(5));
                    let _ = self.epoll.del(self.listener.as_raw_fd());
                    self.accept_paused_until = None;
                    for token in 0..self.conns.len() {
                        let close = matches!(&self.conns[token], Some(c) if !c.in_flight);
                        if close {
                            self.close(token);
                        }
                    }
                }
                let live = self.conns.iter().flatten().count();
                if live == 0 || now >= stop_deadline.expect("set above") {
                    return;
                }
            }
        }
    }

    fn accept_burst(&mut self, now: Instant) {
        if self.accept_paused_until.is_some() {
            return;
        }
        if sqlan_fault::fires("net.accept.emfile") {
            // Injected fd exhaustion: take the same backoff path a real
            // EMFILE would, without consuming the pending connection.
            let _ = self.epoll.del(self.listener.as_raw_fd());
            self.accept_paused_until = Some(now + Duration::from_millis(50));
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let open = self.shared.connections.load(Ordering::Relaxed) as usize;
                    if open >= self.cfg.max_connections {
                        drop(stream); // shed at the edge
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let generation = self.next_generation;
                    self.next_generation += 1;
                    let fd = stream.as_raw_fd();
                    let conn = Conn {
                        stream,
                        parser: HttpParser::new(self.cfg.max_body_bytes),
                        out: Vec::new(),
                        out_pos: 0,
                        last_activity: now,
                        in_flight: false,
                        closing: false,
                        interest: EPOLLIN | EPOLLRDHUP,
                        generation,
                    };
                    if self.epoll.add(fd, conn.interest, token as u64).is_err() {
                        self.free.push(token);
                        continue;
                    }
                    self.conns[token] = Some(conn);
                    self.shared.connections.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Persistent accept errors (EMFILE under fd
                    // exhaustion) must not busy-spin a level-triggered
                    // loop: deregister the listener and retry shortly.
                    let _ = self.epoll.del(self.listener.as_raw_fd());
                    self.accept_paused_until = Some(now + Duration::from_millis(50));
                    return;
                }
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 256];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    fn drain_completions(&mut self, now: Instant) {
        let done: Vec<Completion> =
            std::mem::take(&mut *self.shared.completions.lock().expect("completions"));
        let stopping = self.shared.stop.load(Ordering::Acquire);
        for c in done {
            let Some(conn) = self.conns.get_mut(c.token).and_then(Option::as_mut) else {
                continue; // connection died while the handler ran
            };
            if conn.generation != c.generation || !conn.in_flight {
                continue; // slot was reused
            }
            conn.in_flight = false;
            conn.last_activity = now;
            let keep_alive = c.keep_alive && !stopping;
            conn.out = c.answer.render(keep_alive);
            conn.out_pos = 0;
            if !keep_alive {
                conn.closing = true;
            }
            self.flush(c.token, now);
        }
    }

    fn conn_event(&mut self, token: usize, bits: u32, now: Instant) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            // Hard error / full close. In-flight connections stay until
            // their completion arrives (it will fail to write and close).
            if !conn.in_flight {
                self.close(token);
            }
            return;
        }
        if bits & EPOLLOUT != 0 && !conn.out.is_empty() {
            self.flush(token, now);
        }
        // Re-borrow: flush may have closed the slot.
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 && !conn.in_flight && conn.out.is_empty() {
            self.read_and_parse(token, now);
        }
    }

    /// Read until `WouldBlock` (or a request completes / fails), feeding
    /// the parser.
    fn read_and_parse(&mut self, token: usize, now: Instant) {
        if sqlan_fault::fires("net.read.eagain") {
            // Injected EAGAIN: pretend the kernel had nothing for us.
            // Level-triggered epoll re-reports readiness next tick.
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            if conn.in_flight || conn.closing || !conn.out.is_empty() {
                return;
            }
            // A pipelined request may already be buffered in full.
            match conn.parser.poll() {
                Parse::Partial => {}
                outcome => {
                    self.handle_parse_outcome(token, outcome, now);
                    continue;
                }
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = now;
                    let outcome = conn.parser.feed(&chunk[..n]);
                    self.handle_parse_outcome(token, outcome, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
    }

    fn handle_parse_outcome(&mut self, token: usize, outcome: Parse, now: Instant) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        match outcome {
            Parse::Partial => {}
            Parse::Request(request) => {
                // Backpressure: no reads while the handler works — the
                // socket buffer, not the server, absorbs a pushy client.
                let generation = conn.generation;
                conn.in_flight = true;
                self.set_interest(token, 0);
                if self
                    .work_tx
                    .send(Work {
                        token,
                        generation,
                        request,
                    })
                    .is_err()
                {
                    self.close(token); // handlers are gone (shutdown race)
                }
            }
            Parse::Error(e) => {
                (self.on_parse_error)(&e);
                // The same compact `{"error": ...}` envelope the
                // application's routes write with serde_json.
                let body = format!("{{\"error\":\"{}\"}}", e.describe());
                conn.out = render_json_response(e.status(), &body, false);
                conn.out_pos = 0;
                conn.closing = true;
                self.flush(token, now);
            }
        }
    }

    /// Write pending response bytes; register `EPOLLOUT` on a short
    /// write, close or resume reading when drained.
    fn flush(&mut self, token: usize, now: Instant) {
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            if conn.out_pos == conn.out.len() {
                break;
            }
            if sqlan_fault::fires("net.write.reset") {
                // Injected mid-write reset: the peer is gone.
                self.close(token);
                return;
            }
            let cap = if sqlan_fault::fires("net.write.short") {
                // Injected short write: one byte, then wait for
                // `EPOLLOUT` like a genuinely full socket buffer.
                1
            } else {
                conn.out.len() - conn.out_pos
            };
            match conn
                .stream
                .write(&conn.out[conn.out_pos..conn.out_pos + cap])
            {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = now;
                    if cap == 1 && conn.out_pos < conn.out.len() {
                        self.set_interest(token, EPOLLOUT);
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.set_interest(token, EPOLLOUT);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        conn.out = Vec::new();
        conn.out_pos = 0;
        if conn.closing {
            self.drain_and_close(token);
            return;
        }
        self.set_interest(token, EPOLLIN | EPOLLRDHUP);
        // A pipelined next request may already be buffered; serve it
        // without waiting for another readiness edge.
        self.read_and_parse(token, now);
    }

    fn set_interest(&mut self, token: usize, interest: u32) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        if conn.interest != interest {
            conn.interest = interest;
            let fd = conn.stream.as_raw_fd();
            let _ = self.epoll.modify(fd, interest, token as u64);
        }
    }

    fn sweep_idle(&mut self, now: Instant) {
        let timeout = self.cfg.idle_timeout;
        for token in 0..self.conns.len() {
            let expired = match &self.conns[token] {
                Some(c) => !c.in_flight && now.duration_since(c.last_activity) > timeout,
                None => false,
            };
            if expired {
                self.close(token);
            }
        }
    }

    /// Lingering close for error responses: the client's unread bytes
    /// (e.g. the body after a rejected head) may still sit in our
    /// receive queue, and closing then makes the kernel RST — which can
    /// destroy the just-sent response before the client reads it. Drain
    /// what has already arrived (bounded) so the close sends a clean FIN.
    fn drain_and_close(&mut self, token: usize) {
        if let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) {
            let mut scrap = [0u8; READ_CHUNK];
            for _ in 0..64 {
                match conn.stream.read(&mut scrap) {
                    Ok(n) if n > 0 => continue,
                    _ => break, // EOF, WouldBlock, or error: queue is empty
                }
            }
        }
        self.close(token);
    }

    fn close(&mut self, token: usize) {
        if let Some(conn) = self.conns.get_mut(token).and_then(Option::take) {
            let _ = self.epoll.del(conn.stream.as_raw_fd());
            // Decrement before the fd closes: the close sends FIN, and a
            // client observing that EOF must not still read a stale count.
            self.shared.connections.fetch_sub(1, Ordering::Release);
            drop(conn); // closes the fd
            self.free.push(token);
        }
    }
}
