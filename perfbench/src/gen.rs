//! The load generator: one connection, a writer thread sending on a fixed
//! schedule (open loop) and a reader thread collecting answers.
//!
//! Request lines are encoded before a phase starts, so the writer does no
//! serialization on the schedule. Latency is taken from each request's
//! *intended* send time, which charges a stall to every request it delays;
//! how late the writer itself ran is reported separately as lag.

use crate::report::Rng;
use ktudc_serve::{Request, RequestKind, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

/// One request of an open-loop phase, after the phase.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Which population entry (or caller-chosen tag) the request carried.
    pub key: usize,
    /// When the schedule wanted it sent.
    pub intended: Instant,
    /// When the writer actually sent it.
    pub sent: Instant,
    /// When its answer arrived, with the raw response line.
    pub answer: Option<(Instant, String)>,
}

impl Sample {
    /// Milliseconds from intended send to answer; `None` if unanswered.
    #[must_use]
    pub fn latency_ms(&self) -> Option<f64> {
        self.answer
            .as_ref()
            .map(|(at, _)| at.duration_since(self.intended).as_secs_f64() * 1e3)
    }

    /// Milliseconds from actual send to answer; `None` if unanswered.
    #[must_use]
    pub fn rtt_us(&self) -> Option<f64> {
        self.answer
            .as_ref()
            .map(|(at, _)| at.duration_since(self.sent).as_secs_f64() * 1e6)
    }

    /// How late the writer sent it, milliseconds.
    #[must_use]
    pub fn lag_ms(&self) -> f64 {
        self.sent.duration_since(self.intended).as_secs_f64() * 1e3
    }
}

/// Encodes one request line (newline-terminated).
///
/// # Panics
///
/// Panics if the request does not encode (the wire types always do).
#[must_use]
pub fn encode(id: u64, kind: &RequestKind) -> String {
    let mut line = serde_json::to_string(&Request::new(id, kind.clone())).expect("encode");
    line.push('\n');
    line
}

/// The request id inside a response line, without a full decode.
fn line_id(line: &str) -> Option<u64> {
    let at = line.find("\"id\":")? + 5;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Poisson arrival offsets at `rate` per second for `seconds`.
#[must_use]
pub fn poisson_offsets(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.unit()).ln() / rate;
        if at >= seconds {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_millis(200)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            next_id: 1,
        })
    }

    /// Reserves `n` request ids; returns the first.
    pub fn ids(&mut self, n: usize) -> u64 {
        let first = self.next_id;
        self.next_id += n as u64;
        first
    }

    /// Reads one response line, waiting at most `deadline`.
    fn read_line(&mut self, deadline: Instant) -> Option<String> {
        let mut line = String::new();
        loop {
            match self.reader.read_line(&mut line) {
                Ok(0) => return None,
                Ok(_) if line.ends_with('\n') => return Some(line),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => return None,
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    /// One request, answered before the next is sent.
    ///
    /// # Errors
    ///
    /// Transport failures, timeouts, and undecodable answers.
    pub fn call(&mut self, kind: &RequestKind) -> Result<Response, String> {
        let id = self.ids(1);
        self.writer
            .write_all(encode(id, kind).as_bytes())
            .map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let line = self.read_line(deadline).ok_or("no answer")?;
            if line_id(&line) == Some(id) {
                return serde_json::from_str(line.trim_end()).map_err(|e| e.to_string());
            }
        }
    }

    /// Sends pre-encoded `lines` (ids `first..`) keeping at most `window`
    /// unanswered; returns the answers by request index.
    ///
    /// # Errors
    ///
    /// Transport failures and answers that never arrive.
    pub fn windowed(
        &mut self,
        first: u64,
        lines: &[String],
        window: usize,
    ) -> Result<Vec<String>, String> {
        let mut answers = vec![String::new(); lines.len()];
        let mut received = 0;
        let deadline = Instant::now() + Duration::from_secs(120);
        for (i, line) in lines.iter().enumerate() {
            while i - received >= window {
                self.take_answer(first, &mut answers, deadline)?;
                received += 1;
            }
            self.writer
                .write_all(line.as_bytes())
                .map_err(|e| e.to_string())?;
        }
        while received < lines.len() {
            self.take_answer(first, &mut answers, deadline)?;
            received += 1;
        }
        Ok(answers)
    }

    fn take_answer(
        &mut self,
        first: u64,
        answers: &mut [String],
        deadline: Instant,
    ) -> Result<(), String> {
        loop {
            let line = self.read_line(deadline).ok_or("answer never arrived")?;
            if let Some(slot) = line_id(&line)
                .and_then(|id| id.checked_sub(first))
                .and_then(|i| answers.get_mut(i as usize))
            {
                *slot = line;
                return Ok(());
            }
        }
    }

    /// Runs an open-loop phase: `plan[i] = (offset, key, line)` with ids
    /// `first + i`, sent at `start + offset` whatever the answers do.
    /// Waits for answers until `drain` past the last send.
    #[must_use]
    pub fn open_loop(
        &mut self,
        first: u64,
        plan: &[(Duration, usize, String)],
        drain: Duration,
    ) -> Vec<Sample> {
        let start = Instant::now() + Duration::from_millis(5);
        let n = plan.len();
        let writer = &mut self.writer;
        let reader = &mut self.reader;
        let (sent, answers) = std::thread::scope(|s| {
            let write = s.spawn(move || {
                let mut sent = Vec::with_capacity(n);
                for (offset, _, line) in plan {
                    let due = start + *offset;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let at = Instant::now();
                    if writer.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                    sent.push(at);
                }
                sent
            });
            let read = s.spawn(move || {
                let end = start + plan.last().map_or(Duration::ZERO, |p| p.0) + drain;
                let mut answers: Vec<Option<(Instant, String)>> = vec![None; n];
                let mut got = 0;
                let mut line = String::new();
                while got < n && Instant::now() < end {
                    match reader.read_line(&mut line) {
                        Ok(0) => break,
                        Ok(_) if line.ends_with('\n') => {
                            let at = Instant::now();
                            let slot = line_id(&line)
                                .and_then(|id| id.checked_sub(first))
                                .and_then(|i| answers.get_mut(i as usize));
                            if let Some(slot @ None) = slot {
                                *slot = Some((at, std::mem::take(&mut line)));
                                got += 1;
                            }
                            line.clear();
                        }
                        Ok(_) => {}
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) => {}
                        Err(_) => break,
                    }
                }
                answers
            });
            (
                write.join().expect("writer thread"),
                read.join().expect("reader thread"),
            )
        });
        plan.iter()
            .zip(answers)
            .enumerate()
            .map(|(i, ((offset, key, _), answer))| Sample {
                key: *key,
                intended: start + *offset,
                sent: sent.get(i).copied().unwrap_or(start + *offset),
                answer,
            })
            .collect()
    }
}
