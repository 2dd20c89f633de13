//! Per-connection read/write state machine for the event-loop server:
//! partial-read NDJSON framing, bounded buffers, and the bookkeeping the
//! loop's fairness and timeout policies decide from.
//!
//! A [`Conn`] never blocks: the server calls [`Conn::fill`] when the
//! socket reports readable, pulls complete frames with
//! [`Conn::next_frame`] (at most as many as the per-connection in-flight
//! cap allows), queues response lines with [`Conn::queue_write`], and
//! flushes with [`Conn::flush`] when the socket reports writable.
//!
//! # Bounded memory
//!
//! The read buffer never holds more than `max_line_bytes` + one read
//! chunk: a line that grows past the limit flips the connection into
//! *discard mode* — the buffered prefix is dropped, one
//! [`Frame::Oversized`] is reported (the server answers it with a typed
//! `LineTooLong` error), and every byte up to the next newline is
//! consumed without being stored. The write buffer is bounded by
//! `max_write_buf`; when a client stops reading long enough for it to
//! fill, the server stops reading from that client (backpressure) and
//! eventually closes it (slow-consumer timeout).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Read syscall granularity; also the slack allowed above
/// `max_line_bytes` in the read buffer.
pub(crate) const READ_CHUNK: usize = 8 << 10;

/// Per-connection resource limits (the server's backpressure tiers).
#[derive(Debug, Clone, Copy)]
pub struct ConnLimits {
    /// Longest accepted request line, in bytes; longer lines are answered
    /// with a `LineTooLong` error and discarded without buffering.
    pub max_line_bytes: usize,
    /// Requests a single connection may have in flight (submitted,
    /// response not yet queued); further frames wait in the read buffer.
    pub max_inflight: usize,
    /// Response bytes buffered for a client before the server stops
    /// reading from it.
    pub max_write_buf: usize,
    /// A connection making no read/write progress for this long is
    /// closed (idle *or* stalled-writer *or* unread-response).
    pub idle_timeout: Duration,
}

/// One unit pulled out of the read buffer.
#[derive(Debug)]
pub enum Frame {
    /// A complete newline-terminated line (newline stripped, may be
    /// empty or non-UTF-8 — the wire layer decides).
    Line(Vec<u8>),
    /// A line exceeded `max_line_bytes`; `buffered` bytes were dropped
    /// and the rest of the line is being discarded unbuffered.
    Oversized {
        /// Bytes dropped when discard mode engaged.
        buffered: usize,
    },
}

/// Why the server timed a connection out (counted per reason in metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// No read/write progress within `idle_timeout`.
    IdleTimeout,
    /// Write buffer stayed full past `idle_timeout` (client not reading).
    SlowConsumer,
}

/// A non-blocking connection and its framing/flow-control state.
pub struct Conn {
    pub(crate) stream: TcpStream,
    /// Buffered request bytes not yet framed.
    read_buf: Vec<u8>,
    /// How far `read_buf` has been scanned for a newline already.
    scanned: usize,
    /// Discard mode: consuming an oversized line without buffering.
    discarding: bool,
    /// Response bytes not yet accepted by the kernel.
    pub(crate) write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    write_pos: usize,
    /// Requests submitted to the service, response not yet queued.
    pub(crate) inflight: usize,
    /// Last moment this connection made read or write progress.
    pub(crate) last_progress: Instant,
    /// Peer sent EOF: frame out what is buffered, then close.
    pub(crate) peer_closed: bool,
    /// Drain mode: no new frames are parsed; close once quiescent.
    pub(crate) draining: bool,
    /// Close as soon as the write buffer flushes (shutdown ack, or a
    /// connection-level rejection).
    pub(crate) close_after_flush: bool,
}

impl Conn {
    /// Wraps an accepted stream (made non-blocking here).
    pub fn new(stream: TcpStream, now: Instant) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            read_buf: Vec::new(),
            scanned: 0,
            discarding: false,
            write_buf: Vec::new(),
            write_pos: 0,
            inflight: 0,
            last_progress: now,
            peer_closed: false,
            draining: false,
            close_after_flush: false,
        })
    }

    /// Reads whatever the socket has, up to one fairness budget
    /// (`READ_CHUNK * 8` per tick) and the buffer cap. Returns the bytes
    /// read; sets [`Conn::peer_closed`] on EOF. `Err` means a hard I/O
    /// error (the caller closes the connection).
    pub fn fill(&mut self, limits: &ConnLimits, now: Instant) -> io::Result<usize> {
        let mut total = 0usize;
        let budget = READ_CHUNK * 8;
        let mut chunk = [0u8; READ_CHUNK];
        while total < budget {
            // Backpressure: never buffer more than one oversized line's
            // worth. In discard mode bytes are consumed and dropped, so
            // reading stays safe at any rate.
            if !self.discarding && self.read_buf.len() >= limits.max_line_bytes + READ_CHUNK {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    total += n;
                    if self.discarding {
                        // Keep only what follows the terminating newline.
                        if let Some(nl) = chunk[..n].iter().position(|&b| b == b'\n') {
                            self.discarding = false;
                            self.read_buf.extend_from_slice(&chunk[nl + 1..n]);
                        }
                    } else {
                        self.read_buf.extend_from_slice(&chunk[..n]);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if total > 0 {
            self.last_progress = now;
        }
        Ok(total)
    }

    /// Pulls the next complete frame out of the read buffer, or detects
    /// an oversized line. Returns `None` when more bytes are needed.
    pub fn next_frame(&mut self, limits: &ConnLimits) -> Option<Frame> {
        if self.draining {
            return None;
        }
        if let Some(nl) = self.read_buf[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
        {
            let end = self.scanned + nl;
            let mut line: Vec<u8> = self.read_buf.drain(..=end).collect();
            line.pop(); // the newline
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            self.scanned = 0;
            return Some(Frame::Line(line));
        }
        self.scanned = self.read_buf.len();
        if self.read_buf.len() > limits.max_line_bytes {
            let buffered = self.read_buf.len();
            self.read_buf.clear();
            self.read_buf.shrink_to(limits.max_line_bytes.min(1 << 16));
            self.scanned = 0;
            self.discarding = true;
            return Some(Frame::Oversized { buffered });
        }
        None
    }

    /// Whether undecoded request bytes remain buffered (frames may still
    /// be parseable once in-flight slots free up).
    pub fn has_buffered_input(&self) -> bool {
        !self.draining && self.read_buf[self.scanned..].contains(&b'\n')
    }

    /// Queues one response line (caller includes the trailing newline).
    pub fn queue_write(&mut self, bytes: &[u8]) {
        self.write_buf.extend_from_slice(bytes);
    }

    /// Bytes queued but not yet written.
    pub fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Writes as much of the write buffer as the socket accepts. Returns
    /// `true` when the buffer is fully flushed.
    pub fn flush(&mut self, now: Instant) -> io::Result<bool> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_pos += n;
                    self.last_progress = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
            Ok(true)
        } else {
            // Reclaim the flushed prefix once it dominates the buffer.
            if self.write_pos > 64 << 10 && self.write_pos * 2 > self.write_buf.len() {
                self.write_buf.drain(..self.write_pos);
                self.write_pos = 0;
            }
            Ok(false)
        }
    }

    /// The readiness this connection currently needs. Reading pauses at
    /// the in-flight cap, when the write buffer is over its bound
    /// (backpressure), and during drain.
    pub fn interest(&self, limits: &ConnLimits) -> crate::poller::Interest {
        let want_read = !self.draining
            && !self.peer_closed
            && !self.close_after_flush
            && self.inflight < limits.max_inflight
            && self.pending_write() < limits.max_write_buf
            && (self.discarding || self.read_buf.len() < limits.max_line_bytes + READ_CHUNK);
        crate::poller::Interest {
            readable: want_read,
            writable: self.pending_write() > 0,
        }
    }

    /// Timeout check: `Some(reason)` when the connection ran out of
    /// `idle_timeout` without progress.
    pub fn timed_out(&self, limits: &ConnLimits, now: Instant) -> Option<CloseReason> {
        if now.duration_since(self.last_progress) < limits.idle_timeout {
            return None;
        }
        if self.pending_write() > 0 {
            Some(CloseReason::SlowConsumer)
        } else {
            Some(CloseReason::IdleTimeout)
        }
    }

    /// True when nothing is pending on this connection (drain can close
    /// it): no in-flight requests and nothing left to write.
    pub fn quiescent(&self) -> bool {
        self.inflight == 0 && self.pending_write() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, Conn::new(server, Instant::now()).unwrap())
    }

    fn limits() -> ConnLimits {
        ConnLimits {
            max_line_bytes: 64,
            max_inflight: 4,
            max_write_buf: 128,
            idle_timeout: Duration::from_millis(50),
        }
    }

    #[test]
    fn frames_partial_reads_and_crlf() {
        let (client, mut conn) = pair();
        let l = limits();
        (&client).write_all(b"hello").unwrap();
        std::thread::sleep(Duration::from_millis(10));
        conn.fill(&l, Instant::now()).unwrap();
        assert!(conn.next_frame(&l).is_none(), "no newline yet");
        (&client).write_all(b" world\r\nnext\n").unwrap();
        std::thread::sleep(Duration::from_millis(10));
        conn.fill(&l, Instant::now()).unwrap();
        let Some(Frame::Line(a)) = conn.next_frame(&l) else {
            panic!("expected first frame");
        };
        assert_eq!(a, b"hello world");
        let Some(Frame::Line(b)) = conn.next_frame(&l) else {
            panic!("expected second frame");
        };
        assert_eq!(b, b"next");
        assert!(conn.next_frame(&l).is_none());
    }

    #[test]
    fn oversized_line_is_discarded_with_bounded_memory() {
        let (client, mut conn) = pair();
        let l = limits();
        // 4× the limit, no newline: must flip to discard mode and never
        // buffer more than max_line_bytes + READ_CHUNK.
        let big = vec![b'x'; 256];
        (&client).write_all(&big).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        conn.fill(&l, Instant::now()).unwrap();
        let Some(Frame::Oversized { buffered }) = conn.next_frame(&l) else {
            panic!("expected oversize report");
        };
        assert!(buffered > l.max_line_bytes);
        assert!(conn.next_frame(&l).is_none());
        // The line's tail and terminator arrive; then a normal line works.
        (&client).write_all(b"yyy\n{\"ok\":1}\n").unwrap();
        std::thread::sleep(Duration::from_millis(10));
        conn.fill(&l, Instant::now()).unwrap();
        let Some(Frame::Line(line)) = conn.next_frame(&l) else {
            panic!("expected post-discard frame");
        };
        assert_eq!(line, b"{\"ok\":1}");
    }

    #[test]
    fn interest_reflects_backpressure() {
        let (_client, mut conn) = pair();
        let l = limits();
        assert!(conn.interest(&l).readable);
        conn.inflight = l.max_inflight;
        assert!(!conn.interest(&l).readable, "in-flight cap pauses reads");
        conn.inflight = 0;
        conn.queue_write(&vec![b'z'; 256]);
        assert!(
            !conn.interest(&l).readable,
            "full write buffer pauses reads"
        );
        assert!(conn.interest(&l).writable);
    }

    #[test]
    fn timeout_classifies_idle_vs_slow_consumer() {
        let (_client, mut conn) = pair();
        let l = limits();
        assert!(conn.timed_out(&l, Instant::now()).is_none());
        let later = Instant::now() + Duration::from_millis(100);
        assert_eq!(conn.timed_out(&l, later), Some(CloseReason::IdleTimeout));
        conn.queue_write(b"unread response\n");
        assert_eq!(conn.timed_out(&l, later), Some(CloseReason::SlowConsumer));
    }
}
