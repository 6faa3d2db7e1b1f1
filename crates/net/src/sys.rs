//! Raw Linux syscalls for the event loop (`epoll`), declared directly
//! against the C library that `std` already links — no external
//! crates, per the workspace's offline compat policy. This module is the
//! crate's entire unsafe surface; everything above it is safe Rust over
//! owned file descriptors.

#![allow(clippy::upper_case_acronyms)]

use std::io;
use std::os::raw::c_int;
use std::os::unix::io::RawFd;

/// `struct epoll_event`. On x86-64 the kernel ABI packs it (no padding
/// between `events` and `data`), hence `repr(packed)`.
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    /// User token: the connection slot (or a reserved sentinel).
    pub data: u64,
}

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// An owned epoll instance; closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with the given readiness interest.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the readiness interest of a registered `fd` (0 = none).
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregister `fd`. Closing the fd does this implicitly; explicit
    /// removal keeps the interest list tight when fds are kept open.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` (-1 = forever) and fill `events`.
    /// Returns the number of ready entries; `EINTR` reads as zero.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a valid, writable slice for the whole call.
        let rc = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms as c_int,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this instance and closed exactly once.
        unsafe { close(self.fd) };
    }
}

impl std::fmt::Debug for EpollEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Copy out of the packed struct before taking references.
        let (events, data) = (self.events, self.data);
        f.debug_struct("EpollEvent")
            .field("events", &events)
            .field("data", &data)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_listener_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let ep = Epoll::new().expect("epoll");
        ep.add(listener.as_raw_fd(), EPOLLIN, 7).expect("add");
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing pending: times out empty.
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
        // A pending connection flips the listener readable.
        let _client = std::net::TcpStream::connect(listener.local_addr().expect("addr"));
        let n = ep.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 7);
        ep.del(listener.as_raw_fd()).expect("del");
    }
}
