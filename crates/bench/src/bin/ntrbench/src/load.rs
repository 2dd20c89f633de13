//! The load generator: one thread, a fixed number of connections, closed or
//! open loop, replies matched to requests by wire id.

use crate::client::{self, Client};
use crate::spans::{SpanId, Trace};
use crate::stats::{Arrival, Class};
use std::io;
use std::time::{Duration, Instant};

/// Pre-warmed keys of the hot class.
pub const HOT_KEYS: usize = 64;
/// Every 64th encode reply is kept and later compared bit for bit with a
/// benchmark-side encode.
const ENCODE_SAMPLE_EVERY: u64 = 64;
/// Every 16th search asks for a table that is in the index.
const SELF_SEARCH_EVERY: u64 = 16;
/// How long the generator waits for outstanding replies after the window.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// Renders request bodies over a pool of generated tables. Hot requests
/// repeat [`HOT_KEYS`] fixed (table, caption) pairs; every other request
/// carries a context no earlier request had, so it cannot hit the cache.
pub struct Requests {
    tails: Vec<String>,
    captions: Vec<String>,
    table_ids: Vec<String>,
    hot: Vec<String>,
    fresh: u64,
    hot_sent: usize,
    searches: u64,
}

impl Requests {
    pub fn new(tables: &[crate::api::Table]) -> Self {
        let tails: Vec<String> = tables.iter().map(client::table_tail).collect();
        let captions: Vec<String> = tables.iter().map(|t| t.caption.clone()).collect();
        let hot = (0..HOT_KEYS.min(tables.len()))
            .map(|i| client::request_body(client::TEACHER_HEAD, &captions[i], &tails[i]))
            .collect();
        Requests {
            tails,
            captions,
            table_ids: tables.iter().map(|t| t.id.clone()).collect(),
            hot,
            fresh: 0,
            hot_sent: 0,
            searches: 0,
        }
    }

    pub fn hot_bodies(&self) -> &[String] {
        &self.hot
    }

    /// Writes the next body of `class` into `out`; for a search that must
    /// find its own table, also returns that table's id.
    fn next_body(&mut self, class: Class, out: &mut String) -> Option<&str> {
        out.clear();
        if class == Class::Hot {
            out.push_str(&self.hot[self.hot_sent % self.hot.len()]);
            self.hot_sent += 1;
            return None;
        }
        let n = self.fresh;
        self.fresh += 1;
        let table = n as usize % self.tails.len();
        let head = match class {
            Class::Search => client::SEARCH_HEAD,
            Class::StudentMiss => client::STUDENT_INT8_HEAD,
            _ => client::TEACHER_HEAD,
        };
        if class == Class::Search {
            self.searches += 1;
            if self.searches.is_multiple_of(SELF_SEARCH_EVERY) {
                // A table of the index under its own caption, each used once,
                // taken from the far end of the pool so that it is never one
                // of the hot keys (same table, same caption: a cache hit).
                let nth = (self.searches / SELF_SEARCH_EVERY) as usize;
                let own = self.tails.len() - 1 - nth % (self.tails.len() - HOT_KEYS);
                *out = client::request_body(head, &self.captions[own], &self.tails[own]);
                return Some(&self.table_ids[own]);
            }
        }
        let context = format!("{} #{n}", self.captions[table]);
        *out = client::request_body(head, &context, &self.tails[table]);
        None
    }
}

pub enum Shape<'a> {
    /// Every connection keeps `depth` requests of `class` outstanding.
    Closed { class: Class, depth: usize },
    /// Requests leave at their due times whatever the server does; the
    /// schedule spans warm-up and window.
    Open { schedule: &'a [Arrival] },
}

pub struct Plan {
    pub warmup: Duration,
    pub window: Duration,
    pub n_windows: usize,
    /// Record spans in the odd-numbered windows (the traced run alternates
    /// untraced and traced windows to price the tracing itself).
    pub trace_odd_windows: bool,
}

#[derive(Default)]
pub struct WindowStats {
    /// Latencies in ms, by [`Class`] in declaration order.
    pub lat_ms: [Vec<f64>; 4],
    /// Requests that were due inside the window.
    pub offered: u64,
    /// Replies that arrived inside the window.
    pub completed: u64,
    pub cached: u64,
}

impl WindowStats {
    pub fn all_ms(&self) -> Vec<f64> {
        self.lat_ms.iter().flatten().copied().collect()
    }
}

pub struct EncodeSample {
    pub body: String,
    pub reply: String,
}

pub struct SearchSample {
    pub expect_table: String,
    pub reply: String,
}

#[derive(Default)]
pub struct LoadResult {
    pub windows: Vec<WindowStats>,
    pub window_s: f64,
    pub sent: u64,
    pub ok: u64,
    /// Typed errors, unreadable replies and replies that never came.
    pub failed: u64,
    /// How late each open-loop request left, in µs.
    pub late_us: Vec<f64>,
    pub encode_samples: Vec<EncodeSample>,
    pub search_samples: Vec<SearchSample>,
}

struct Sent {
    at: Instant,
    class: Class,
    span: Option<SpanId>,
    replied: bool,
}

struct State<'t> {
    t0: Instant,
    plan: Plan,
    trace: &'t mut Trace,
    sent: Vec<Sent>,
    outstanding: Vec<usize>,
    kept_bodies: Vec<(u64, String)>,
    expected_tables: Vec<(u64, String)>,
    result: LoadResult,
}

impl State<'_> {
    fn window_of(&self, t: Instant) -> Option<usize> {
        let since = t.checked_duration_since(self.t0)?;
        Some((since.as_nanos() / self.plan.window.as_nanos()) as usize)
    }

    fn on_reply(&mut self, conn: usize, line: &str, at: Instant) {
        self.outstanding[conn] = self.outstanding[conn].saturating_sub(1);
        let reply = client::scan_reply(line);
        let Some((reply, sent)) = reply.and_then(|r| {
            let s = self.sent.get_mut(r.id as usize).filter(|s| !s.replied)?;
            Some((r, s))
        }) else {
            self.result.failed += 1;
            return;
        };
        sent.replied = true;
        let (class, span, sent_at) = (sent.class, sent.span, sent.at);
        if reply.ok {
            self.result.ok += 1;
        } else {
            self.result.failed += 1;
        }
        if let Some(w) = self.window_of(at) {
            let in_window = w < self.plan.n_windows;
            let stats = &mut self.result.windows[w.min(self.plan.n_windows - 1)];
            stats.lat_ms[class as usize].push((at - sent_at).as_secs_f64() * 1e3);
            if in_window {
                stats.completed += 1;
                stats.cached += u64::from(reply.cached);
            }
        }
        if let Some(i) = self.kept_bodies.iter().position(|(id, _)| *id == reply.id) {
            let (_, body) = self.kept_bodies.swap_remove(i);
            self.result.encode_samples.push(EncodeSample {
                body,
                reply: line.to_string(),
            });
        }
        if let Some(i) = self
            .expected_tables
            .iter()
            .position(|(id, _)| *id == reply.id)
        {
            let (_, expect_table) = self.expected_tables.swap_remove(i);
            self.result.search_samples.push(SearchSample {
                expect_table,
                reply: line.to_string(),
            });
        }
        self.trace.close(span, at);
        self.trace
            .record("client.recv", at, Instant::now(), span, reply.id);
    }
}

/// Runs warm-up and `n_windows` windows of one traffic shape.
pub fn run(
    client: &mut Client,
    requests: &mut Requests,
    shape: Shape,
    plan: Plan,
    trace: &mut Trace,
) -> io::Result<LoadResult> {
    let start = Instant::now();
    let t0 = start + plan.warmup;
    let end = t0 + plan.window * plan.n_windows as u32;
    let n_conns = client.n_conns();
    let mut st = State {
        t0,
        trace,
        sent: Vec::new(),
        outstanding: vec![0; n_conns],
        kept_bodies: Vec::new(),
        expected_tables: Vec::new(),
        result: LoadResult {
            windows: (0..plan.n_windows)
                .map(|_| WindowStats::default())
                .collect(),
            window_s: plan.window.as_secs_f64(),
            ..LoadResult::default()
        },
        plan,
    };
    let mut body = String::new();
    let mut line = Vec::new();
    let mut next_arrival = 0;
    let mut encodes = 0u64;
    let mut due: Vec<(usize, Class, Instant)> = Vec::new();

    loop {
        let now = Instant::now();
        let traced_now = st.plan.trace_odd_windows
            && st
                .window_of(now)
                .is_some_and(|w| w < st.plan.n_windows && w % 2 == 1);
        st.trace.set_on(traced_now);

        // What is due now: (connection, class, the instant latency counts from).
        due.clear();
        match &shape {
            Shape::Closed { class, depth } if now < end => {
                for conn in 0..n_conns {
                    for _ in st.outstanding[conn]..*depth {
                        due.push((conn, *class, now));
                    }
                }
            }
            Shape::Closed { .. } => {}
            Shape::Open { schedule } => {
                while let Some(a) = schedule.get(next_arrival) {
                    let due_at = start + Duration::from_nanos(a.due_ns);
                    if due_at > now {
                        break;
                    }
                    due.push((next_arrival % n_conns, a.class, due_at));
                    st.result.late_us.push((now - due_at).as_secs_f64() * 1e6);
                    next_arrival += 1;
                }
            }
        }
        for &(conn, class, at) in &due {
            let id = st.sent.len() as u64;
            let expect = requests.next_body(class, &mut body).map(str::to_string);
            if let Some(table) = expect {
                st.expected_tables.push((id, table));
            }
            if class != Class::Search {
                encodes += 1;
                if encodes.is_multiple_of(ENCODE_SAMPLE_EVERY) {
                    st.kept_bodies.push((id, body.clone()));
                }
            }
            client::request_line(&mut line, id, &body);
            let send_start = Instant::now();
            let span = st.trace.record("request", at, at, None, id);
            client.send(conn, &line)?;
            st.trace
                .record("client.send", send_start, Instant::now(), span, id);
            st.sent.push(Sent {
                at,
                class,
                span,
                replied: false,
            });
            st.outstanding[conn] += 1;
            st.result.sent += 1;
            if let Some(w) = st.window_of(at).filter(|&w| w < st.plan.n_windows) {
                st.result.windows[w].offered += 1;
            }
        }

        let all_sent = match &shape {
            Shape::Closed { .. } => now >= end,
            Shape::Open { schedule } => next_arrival == schedule.len(),
        };
        if all_sent && (st.outstanding.iter().all(|&n| n == 0) || now >= end + DRAIN_LIMIT) {
            break;
        }

        let timeout = match &shape {
            Shape::Open { schedule } if !all_sent => {
                let due_at = start + Duration::from_nanos(schedule[next_arrival].due_ns);
                // The poller rounds a timeout up to whole milliseconds, so
                // sleep to within a millisecond of the due time and poll
                // without blocking from there: a request leaves on time and
                // a reply is still read the moment it arrives.
                due_at
                    .saturating_duration_since(now)
                    .saturating_sub(Duration::from_millis(1))
            }
            _ => Duration::from_millis(50),
        };
        client.poll(timeout, &mut |conn, reply, at| st.on_reply(conn, reply, at))?;
    }
    st.trace.set_on(false);
    let missing = st.sent.iter().filter(|s| !s.replied).count() as u64;
    st.result.failed += missing;
    Ok(st.result)
}
