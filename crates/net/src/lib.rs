//! # sqlan-net
//!
//! The network tier under `sqlan-serve`: a **sans-io incremental
//! HTTP/1.1 request parser** with hard byte bounds, and a
//! **readiness-driven epoll event loop** built on raw Linux syscalls (no
//! external dependencies, per the workspace's offline compat policy).
//!
//! The split matters: the parser ([`HttpParser`]) owns no socket, so its
//! hardening rules (head bound enforced *during* buffering, byte-level
//! head parse, `Content-Length` hygiene, `Connection` list tokenization)
//! are property-tested byte by byte, apart from any I/O.
//!
//! The event loop ([`serve`]) keeps one thread for all I/O (non-blocking
//! accept, per-connection read/write buffering, idle-timeout sweep) and
//! hands parsed requests to a small handler pool, so tens of thousands
//! of idle keep-alive connections cost one fd plus a parser each — not a
//! thread each. See `README.md` for the readiness model and the
//! backpressure contract.
//!
//! The crate builds on Linux only: the event loop is raw epoll.

#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(not(target_os = "linux"))]
compile_error!("sqlan-net (and so sqlan-serve) supports Linux only: its event loop is raw epoll");

pub mod event_loop;
pub mod parser;
pub mod sys;

pub use event_loop::{serve, EventLoopHandle, NetConfig, Service};
pub use parser::{
    render_json_response, render_response, Answer, HttpError, HttpParser, Parse, Request,
    MAX_HEAD_BYTES,
};
