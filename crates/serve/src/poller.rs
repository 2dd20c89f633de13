//! Dependency-free readiness polling: `epoll` on linux, `poll(2)` on
//! other unix — the substrate of the event-loop server (and of the
//! `loadgen` bench client).
//!
//! The workspace is crate-dependency-free by design, so instead of `libc`
//! or `mio` this module declares the three syscall wrappers it needs as
//! `extern "C"` items; the symbols resolve from the C library every Rust
//! binary on unix already links through `std`. The surface is the minimal
//! level-triggered readiness API the server needs:
//!
//! * [`Poller::register`] / [`Poller::modify`] / [`Poller::deregister`]
//!   associate a raw fd with a caller-chosen `usize` token and an
//!   [`Interest`] (readable / writable);
//! * [`Poller::wait`] blocks until readiness or a timeout and fills a
//!   caller-owned event buffer (no allocation per tick);
//! * [`Waker`] is a cloneable, thread-safe handle that makes `wait`
//!   return early — a `UnixStream` self-pipe registered like any other
//!   fd, so worker threads can hand completions to the loop.
//!
//! Both backends are level-triggered: a fd with buffered readable bytes
//! keeps reporting readable, which lets the server cap per-tick work per
//! connection (fairness) without losing wakeups.

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// What readiness a registration cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Report when the fd is readable (or closed by the peer).
    pub readable: bool,
    /// Report when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// Readable (includes EOF — a read will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Peer hung up or the fd errored; the connection is dead either way.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw `epoll` bindings (no `libc` crate; symbols come from the C
    //! library `std` links).

    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// `struct epoll_event`; packed on x86-64 exactly as the kernel ABI
    /// demands (and unpacked everywhere else).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub struct Backend {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    impl Backend {
        pub fn new() -> io::Result<Backend> {
            let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Backend {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token as u64,
            };
            check(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
        }

        pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token as u64,
            };
            check(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            check(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let timeout_ms = match timeout {
                // Round up so a 100µs deadline does not busy-spin at 0ms.
                Some(d) => i32::try_from(d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128))
                    .unwrap_or(i32::MAX),
                None => -1,
            };
            let n = loop {
                let ret = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        timeout_ms,
                    )
                };
                match check(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for raw in &self.buf[..n] {
                let (events, data) = (raw.events, raw.data);
                out.push(Event {
                    token: data as usize,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Backend {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portable `poll(2)` fallback for non-linux unix.

    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    pub struct Backend {
        fds: Vec<PollFd>,
        tokens: Vec<usize>,
    }

    fn mask(interest: Interest) -> i16 {
        let mut m = 0;
        if interest.readable {
            m |= POLLIN;
        }
        if interest.writable {
            m |= POLLOUT;
        }
        m
    }

    impl Backend {
        pub fn new() -> io::Result<Backend> {
            Ok(Backend {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        fn position(&self, fd: RawFd) -> io::Result<usize> {
            self.fds
                .iter()
                .position(|p| p.fd == fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            if self.position(fd).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.fds.push(PollFd {
                fd,
                events: mask(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let i = self.position(fd)?;
            self.fds[i].events = mask(interest);
            self.tokens[i] = token;
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self.position(fd)?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let timeout_ms = match timeout {
                // Round up so a sub-millisecond deadline does not busy-spin.
                Some(d) => i32::try_from(d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128))
                    .unwrap_or(i32::MAX),
                None => -1,
            };
            let n = loop {
                let ret = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u64, timeout_ms) };
                if ret >= 0 {
                    break ret as usize;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for (p, &token) in self.fds.iter().zip(&self.tokens) {
                let r = p.revents;
                if r != 0 {
                    out.push(Event {
                        token,
                        readable: r & (POLLIN | POLLHUP) != 0,
                        writable: r & POLLOUT != 0,
                        hangup: r & (POLLERR | POLLHUP) != 0,
                    });
                }
            }
            Ok(())
        }
    }
}

/// A level-triggered readiness poller over raw fds.
pub struct Poller {
    backend: sys::Backend,
}

impl Poller {
    /// Creates an empty poller.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            backend: sys::Backend::new()?,
        })
    }

    /// Starts watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.backend.register(fd, token, interest)
    }

    /// Changes the interest (and token) of a watched fd.
    pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.backend.modify(fd, token, interest)
    }

    /// Stops watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.backend.deregister(fd)
    }

    /// Blocks until readiness, wake-up, or `timeout`; appends events to
    /// `out` (which the caller should clear between ticks).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.backend.wait(out, timeout)
    }
}

/// Wakes a [`Poller`] from another thread: a nonblocking `UnixStream`
/// self-pipe. Register [`WakeReceiver::fd`] with the poller; any clone of
/// the [`Waker`] end makes `wait` return.
pub struct Waker {
    tx: std::os::unix::net::UnixStream,
}

impl Clone for Waker {
    fn clone(&self) -> Self {
        Waker {
            tx: self.tx.try_clone().expect("clone waker stream"),
        }
    }
}

impl Waker {
    /// Makes the paired poller's `wait` return. A full pipe already wakes
    /// the receiver, so `WouldBlock` is success.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// The poller-side end of a [`Waker`] pair.
pub struct WakeReceiver {
    rx: std::os::unix::net::UnixStream,
}

impl WakeReceiver {
    /// The fd to register (readable interest) with the poller.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Drains pending wake bytes so level-triggered polling goes quiet.
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Creates a connected waker pair (both ends nonblocking).
pub fn waker() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn waker_unblocks_wait() {
        let mut poller = Poller::new().unwrap();
        let (wake, rx) = waker().unwrap();
        poller.register(rx.fd(), 7, Interest::READ).unwrap();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            wake.wake();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        rx.drain();
        t.join().unwrap();
    }

    #[test]
    fn wait_times_out_without_events() {
        let mut poller = Poller::new().unwrap();
        let (_wake, rx) = waker().unwrap();
        poller.register(rx.fd(), 1, Interest::READ).unwrap();
        let mut events = Vec::new();
        let t0 = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(25)))
            .unwrap();
        assert!(events.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn tcp_readable_and_writable_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 2, Interest::BOTH)
            .unwrap();

        // A fresh socket with an empty send buffer is writable, not readable.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 2).expect("server event");
        assert!(ev.writable && !ev.readable);

        // After the client writes, readable readiness appears.
        (&client).write_all(b"hello\n").unwrap();
        let mut events = Vec::new();
        poller
            .modify(server.as_raw_fd(), 2, Interest::READ)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        let mut buf = [0u8; 16];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello\n");

        // Peer close reports readable (EOF) and eventually hangup.
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        poller.deregister(server.as_raw_fd()).unwrap();
    }
}
