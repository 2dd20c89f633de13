//! The client side of the wire: request lines rendered from generated
//! tables, a single-threaded non-blocking client over a fixed number of
//! connections, and a scanner for the reply fields the checks read.
//!
//! Requests are rendered and replies scanned here, not with the server's
//! own JSON code, so the benchmark reads the wire as a client would.

use crate::api::{Interest, Poller, Table};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `"columns": [...], "rows": [[...], ...]}`: the part of a request line
/// that depends only on the table, rendered once per table.
pub fn table_tail(t: &Table) -> String {
    let mut out = String::from("\"columns\": [");
    for (c, col) in t.columns().iter().enumerate() {
        if c > 0 {
            out.push_str(", ");
        }
        push_json_str(&mut out, &col.name);
    }
    out.push_str("], \"rows\": [");
    for r in 0..t.n_rows() {
        if r > 0 {
            out.push_str(", ");
        }
        out.push('[');
        for c in 0..t.n_cols() {
            if c > 0 {
                out.push_str(", ");
            }
            push_json_str(&mut out, &t.cell(r, c).raw);
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Everything of a request line after the id: `head` names the verb, model
/// and precision, then come the context and the table.
pub fn request_body(head: &str, context: &str, tail: &str) -> String {
    let mut out = String::with_capacity(head.len() + context.len() + tail.len() + 16);
    out.push_str(head);
    out.push_str("\"context\": ");
    push_json_str(&mut out, context);
    out.push_str(", ");
    out.push_str(tail);
    out
}

pub const TEACHER_HEAD: &str = "\"model\": \"tapas\", ";
pub const STUDENT_INT8_HEAD: &str = "\"model\": \"row-student\", \"precision\": \"int8\", ";
pub const SEARCH_HEAD: &str = "\"cmd\": \"search\", \"k\": 10, ";

pub fn request_line(out: &mut Vec<u8>, id: u64, body: &str) {
    out.clear();
    write!(out, "{{\"id\": {id}, ").expect("writing to a Vec cannot fail");
    out.extend_from_slice(body.as_bytes());
    out.push(b'\n');
}

/// The raw text of a top-level scalar field, whatever the spacing.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The fields of a reply every check reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    pub id: u64,
    pub ok: bool,
    pub cached: bool,
}

pub fn scan_reply(line: &str) -> Option<Reply> {
    Some(Reply {
        id: field(line, "id")?.parse().ok()?,
        ok: field(line, "ok")? == "true",
        cached: field(line, "cached") == Some("true"),
    })
}

/// The `embedding` array of an encode reply, as bit patterns.
pub fn reply_embedding_bits(line: &str) -> Option<Vec<u32>> {
    let rest = &line[line.find("\"embedding\"")?..];
    let inner = &rest[rest.find('[')? + 1..rest.find(']')?];
    inner
        .split(',')
        .map(|v| v.trim().parse::<f32>().ok().map(f32::to_bits))
        .collect()
}

/// The `table_id` of a search reply's rank-0 result (the first in the line).
pub fn reply_top_table_id(line: &str) -> Option<&str> {
    field(line, "table_id")?
        .strip_prefix('"')?
        .strip_suffix('"')
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// Request bytes the kernel has not taken yet.
    outbuf: Vec<u8>,
    wants_write: bool,
}

/// A fixed set of non-blocking connections driven by one thread.
pub struct Client {
    poller: Poller,
    conns: Vec<Conn>,
    events: Vec<crate::api::PollEvent>,
}

impl Client {
    pub fn connect(addr: SocketAddr, n_conns: usize) -> io::Result<Client> {
        let mut poller = Poller::new()?;
        let mut conns = Vec::with_capacity(n_conns);
        for token in 0..n_conns {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.register(stream.as_raw_fd(), token, Interest::READ)?;
            conns.push(Conn {
                stream,
                inbuf: Vec::with_capacity(1 << 16),
                outbuf: Vec::new(),
                wants_write: false,
            });
        }
        Ok(Client {
            poller,
            conns,
            events: Vec::new(),
        })
    }

    pub fn n_conns(&self) -> usize {
        self.conns.len()
    }

    /// Queues one request line on a connection and writes what the kernel
    /// takes now.
    pub fn send(&mut self, conn: usize, line: &[u8]) -> io::Result<()> {
        self.conns[conn].outbuf.extend_from_slice(line);
        self.flush(conn)
    }

    fn flush(&mut self, conn: usize) -> io::Result<()> {
        let c = &mut self.conns[conn];
        let mut off = 0;
        while off < c.outbuf.len() {
            match (&c.stream).write(&c.outbuf[off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        c.outbuf.drain(..off);
        let wants_write = !c.outbuf.is_empty();
        if wants_write != c.wants_write {
            let interest = if wants_write {
                Interest::BOTH
            } else {
                Interest::READ
            };
            self.poller.modify(c.stream.as_raw_fd(), conn, interest)?;
            c.wants_write = wants_write;
        }
        Ok(())
    }

    /// Waits up to `timeout` for replies and hands every complete line to
    /// `on_line` with its connection and the instant its bytes were read.
    pub fn poll(
        &mut self,
        timeout: Duration,
        on_line: &mut dyn FnMut(usize, &str, Instant),
    ) -> io::Result<()> {
        self.events.clear();
        self.poller.wait(&mut self.events, Some(timeout))?;
        for i in 0..self.events.len() {
            let ev = self.events[i];
            if ev.writable {
                self.flush(ev.token)?;
            }
            if ev.readable || ev.hangup {
                self.read_lines(ev.token, on_line)?;
            }
        }
        Ok(())
    }

    fn read_lines(
        &mut self,
        conn: usize,
        on_line: &mut dyn FnMut(usize, &str, Instant),
    ) -> io::Result<()> {
        let c = &mut self.conns[conn];
        let mut chunk = [0u8; 1 << 16];
        loop {
            match (&c.stream).read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => c.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let read_at = Instant::now();
        let mut start = 0;
        while let Some(nl) = c.inbuf[start..].iter().position(|&b| b == b'\n') {
            let line = std::str::from_utf8(&c.inbuf[start..start + nl])
                .map_err(|_| io::Error::from(io::ErrorKind::InvalidData))?;
            on_line(conn, line, read_at);
            start += nl + 1;
        }
        c.inbuf.drain(..start);
        Ok(())
    }

    /// One blocking-style round trip on connection 0, for set-up probes.
    pub fn round_trip(&mut self, line: &[u8], limit: Duration) -> io::Result<String> {
        self.send(0, line)?;
        let deadline = Instant::now() + limit;
        let mut reply = None;
        while reply.is_none() {
            if Instant::now() > deadline {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.poll(Duration::from_millis(100), &mut |_, l, _| {
                reply = Some(l.to_string())
            })?;
        }
        Ok(reply.expect("loop ends on a reply"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_fields_are_found_whatever_the_spacing() {
        let spaced = "{\"id\": 42, \"ok\": true, \"cached\": false, \"seq_len\": 3, \
                      \"d_model\": 2, \"embedding\": [0.5, -1.25e-3]}";
        let compact = "{\"id\":42,\"ok\":true,\"cached\":false,\"embedding\":[0.5,-1.25e-3]}";
        for line in [spaced, compact] {
            assert_eq!(
                scan_reply(line),
                Some(Reply {
                    id: 42,
                    ok: true,
                    cached: false
                })
            );
            assert_eq!(
                reply_embedding_bits(line),
                Some(vec![0.5f32.to_bits(), (-1.25e-3f32).to_bits()])
            );
        }
        let err = "{\"id\": 7, \"ok\": false, \"error\": {\"kind\": \"Overloaded\"}}";
        assert_eq!(scan_reply(err).map(|r| (r.id, r.ok)), Some((7, false)));
        let search = "{\"id\": 2, \"ok\": true, \"cached\": false, \"k\": 1, \"scanned\": 9, \
                      \"results\": [{\"rank\": 0, \"table_id\": \"film_12\", \"distance\": 0}]}";
        assert_eq!(reply_top_table_id(search), Some("film_12"));
        assert_eq!(scan_reply("not json"), None);
    }

    #[test]
    fn request_strings_are_escaped() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\n");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000a\"");
    }
}
