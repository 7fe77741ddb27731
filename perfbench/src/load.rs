//! The open-loop query generator.
//!
//! Requests are due on a fixed schedule (`rate` per second) whether or
//! not earlier answers have come back, as from independent users. One
//! persistent line-protocol connection carries them: a sender thread
//! writes each request when it falls due (every overdue request in one
//! write when it runs late) and the calling thread reads the in-order
//! answers. Latency runs from when a request was *due*, so a stall in the
//! server also charges the requests queued behind it; how late the sender
//! itself ran is reported separately as lag.

use crate::proc::parse_answer;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one open-loop phase observed.
pub struct LoadRun {
    /// When request 0 was due; request `i` was due `i / rate` later.
    pub start: Instant,
    /// The schedule's request rate, per second.
    pub rate: f64,
    /// Requests written.
    pub sent: usize,
    /// Latency of each answered request in µs, in send order.
    pub latency_us: Vec<f64>,
    /// How late the sender wrote each request, in µs.
    pub lag_us: Vec<f64>,
    /// Answers that echoed the wrong pair, failed to parse, or (when
    /// expected answers were given) carried the wrong distance.
    pub wrong: usize,
    /// Wall time from the first due time to the last answer, in s.
    pub elapsed_s: f64,
}

impl LoadRun {
    /// Requests sent but never answered.
    pub fn missing(&self) -> usize {
        self.sent - self.latency_us.len()
    }

    /// Answers per second over the phase.
    pub fn achieved_rate(&self) -> f64 {
        self.latency_us.len() as f64 / self.elapsed_s
    }
}

/// How long the reader waits for the next answer before giving up.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// Waits until `t` by yielding in a loop. A sleeping thread on a
/// virtual CPU can wake milliseconds late; a yielding one keeps its CPU
/// awake yet gives way to any runnable thread.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

/// Runs one open-loop phase against `addr`: requests cycle through
/// `pairs` starting at `first`, due at `rate` per second, until
/// `seconds` have passed or `stop` is raised. When `expect` is given
/// (aligned with `pairs`), every distance is checked against it.
pub fn open_loop(
    addr: &str,
    pairs: &[(u32, u32)],
    first: usize,
    rate: f64,
    seconds: f64,
    stop: Option<&AtomicBool>,
    expect: Option<&[Option<u32>]>,
) -> io::Result<LoadRun> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(1 << 16, &stream);
    // The server accepts on a polling tick: one unscheduled round trip
    // first, so the schedule starts on a connection already being served.
    let (u, v) = pairs[first % pairs.len()];
    writer.write_all(format!("{u} {v}\n").as_bytes())?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "no warm-up answer",
        ));
    }
    let period = 1.0 / rate;
    let cap = ((seconds * rate).ceil() as usize).max(1);
    let start = Instant::now() + Duration::from_millis(1);
    let pair_at = |i: usize| pairs[(first + i) % pairs.len()];

    std::thread::scope(|s| {
        let sender = s.spawn(move || -> io::Result<(usize, Vec<f64>)> {
            let mut lag_us = Vec::with_capacity(cap);
            let mut buf = String::new();
            let mut sent = 0;
            while sent < cap && !stop.is_some_and(|f| f.load(Ordering::Acquire)) {
                wait_until(start + Duration::from_secs_f64(sent as f64 * period));
                let late = Instant::now().duration_since(start).as_secs_f64();
                let due = ((late / period) as usize + 1).min(cap);
                buf.clear();
                for i in sent..due {
                    let (u, v) = pair_at(i);
                    buf.push_str(&format!("{u} {v}\n"));
                    lag_us.push((late - i as f64 * period) * 1e6);
                }
                writer.write_all(buf.as_bytes())?;
                sent = due;
            }
            // EOF lets the server answer the backlog and then close.
            writer.shutdown(Shutdown::Write)?;
            Ok((sent, lag_us))
        });

        let mut latency_us = Vec::with_capacity(cap);
        let mut wrong = 0;
        let mut last = start;
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            last = Instant::now();
            let i = latency_us.len();
            let due = start + Duration::from_secs_f64(i as f64 * period);
            latency_us.push(last.saturating_duration_since(due).as_secs_f64() * 1e6);
            let ok = match parse_answer(&line) {
                Some((u, v, d)) => {
                    (u, v) == pair_at(i) && expect.is_none_or(|e| e[(first + i) % pairs.len()] == d)
                }
                None => false,
            };
            wrong += usize::from(!ok);
        }
        let (sent, lag_us) = sender.join().expect("sender thread panicked")?;
        latency_us.truncate(sent);
        Ok(LoadRun {
            start,
            rate,
            sent,
            latency_us,
            lag_us,
            wrong,
            elapsed_s: last
                .saturating_duration_since(start)
                .as_secs_f64()
                .max(1e-9),
        })
    })
}
