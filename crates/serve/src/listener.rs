//! The listener shell shared by the worker daemon and the router.
//!
//! Both front ends accept the same newline-JSON protocol on the same
//! kind of socket, so the parts that do not depend on what sits behind
//! the socket live here once: the nonblocking accept loop, the
//! per-connection reader with its idle deadline and frame cap, the
//! decode and schema-version preamble, and the inline endpoints (`Ping`,
//! `Shutdown`, and the three reports). A [`Frontend`] supplies the
//! reports, the compute dispatch, the reply writer and the drain.

use crate::metrics::{Metrics, StatsReport};
use crate::wire::{
    ClusterHealthReport, ErrorCode, HealthReport, Request, RequestKind, Response, ResponseKind,
    MAX_REQUEST_LINE_BYTES, MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
use ktudc_par::{Pool, PoolStats};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// What the shared listener needs from the process behind it.
pub(crate) trait Frontend: Send + Sync + Sized + 'static {
    /// What the version-mismatch error calls this process.
    const NAME: &'static str;
    /// Set by a `Shutdown` request or the handle; ends the accept loop.
    fn shutdown_flag(&self) -> &AtomicBool;
    /// Per-endpoint latency and failure counters.
    fn metrics(&self) -> &Metrics;
    /// Per-connection idle read deadline; `None` disables reaping.
    fn idle_timeout(&self) -> Option<Duration>;
    /// The `Stats` answer.
    fn stats(&self) -> StatsReport;
    /// The `Health` answer.
    fn health(&self) -> HealthReport;
    /// The `ClusterHealth` answer.
    fn cluster_health(&self) -> ClusterHealthReport;
    /// Writes one response line, stamped with the requester's version.
    fn write_response(&self, out: &Mutex<TcpStream>, version: u32, response: Response);
    /// Takes a compute request (cell, check, explore, classify) off the
    /// connection thread; the answer is written when it lands.
    fn dispatch(shared: &Arc<Self>, request: Request, start: Instant, out: &Arc<Mutex<TcpStream>>);
    /// Runs once the accept loop has stopped: finish accepted work.
    fn drain(&self);
}

/// Accepts connections until shutdown, one reader thread each, then
/// drains the front end.
pub(crate) fn accept_loop<F: Frontend>(listener: &TcpListener, shared: &Arc<F>) {
    while !shared.shutdown_flag().load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Responses are small sequential lines; leaving Nagle on
                // makes each one wait out the peer's delayed ACK.
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || connection_loop(&shared, stream));
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    shared.drain();
}

fn connection_loop<F: Frontend>(shared: &Arc<F>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(stream));
    let Ok(mut reader) =
        BoundedLineReader::new(read_half, shared.idle_timeout(), MAX_REQUEST_LINE_BYTES)
    else {
        return;
    };
    loop {
        match reader.next_line() {
            LineEvent::Line(line) => {
                if !line.trim().is_empty() {
                    handle_line(shared, &line, &out);
                }
            }
            LineEvent::Oversized => {
                shared.metrics().record_oversized();
                shared.write_response(
                    &out,
                    SCHEMA_VERSION,
                    Response::error(
                        0,
                        ErrorCode::BadRequest,
                        format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
                    ),
                );
                break;
            }
            LineEvent::IdleTimeout => {
                if !shared.shutdown_flag().load(Ordering::SeqCst) {
                    shared.metrics().record_idle_reap();
                }
                break;
            }
            LineEvent::Eof => break,
        }
    }
}

fn handle_line<F: Frontend>(shared: &Arc<F>, line: &str, out: &Arc<Mutex<TcpStream>>) {
    let request: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            // No recoverable id: 0 marks an unattributable failure.
            shared.metrics().record_malformed();
            shared.write_response(
                out,
                SCHEMA_VERSION,
                Response::error(0, ErrorCode::BadRequest, e.to_string()),
            );
            return;
        }
    };
    let version = request.schema_version;
    if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
        shared.write_response(
            out,
            SCHEMA_VERSION,
            Response::error(
                request.id,
                ErrorCode::UnsupportedVersion,
                format!(
                    "request schema_version {version} but this {} speaks \
                     {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}",
                    F::NAME
                ),
            ),
        );
        return;
    }
    let start = Instant::now();
    let endpoint = request.kind.endpoint();
    let result = match &request.kind {
        // Heartbeat probe: answered inline on the connection thread,
        // never queued behind compute — a busy process must still prove
        // liveness, otherwise queue pressure would read as death to the
        // detector plane. The envelope carries the generation.
        RequestKind::Ping => ResponseKind::Pong,
        RequestKind::Shutdown => {
            shared.shutdown_flag().store(true, Ordering::SeqCst);
            ResponseKind::Shutdown
        }
        RequestKind::Stats => ResponseKind::Stats(shared.stats()),
        RequestKind::Health => ResponseKind::Health(shared.health()),
        RequestKind::ClusterHealth => ResponseKind::ClusterHealth(shared.cluster_health()),
        RequestKind::Cell(_)
        | RequestKind::Check(_)
        | RequestKind::Explore(_)
        | RequestKind::Classify(_) => return F::dispatch(shared, request, start, out),
    };
    let micros = elapsed_micros(start);
    shared.metrics().record(endpoint, micros, false);
    shared.write_response(
        out,
        version,
        Response::new(request.id, false, micros, result),
    );
}

/// What [`BoundedLineReader::next_line`] observed on the socket.
enum LineEvent {
    /// A complete newline-terminated line (lossy UTF-8; the delimiter
    /// stripped). Invalid bytes surface as replacement characters and
    /// fail JSON parsing downstream — a typed `BadRequest`, never a
    /// stall.
    Line(String),
    /// The peer accumulated more than the frame cap without a newline.
    Oversized,
    /// No bytes arrived within the idle deadline (a half-open or merely
    /// silent peer — this includes a partial frame followed by
    /// silence).
    IdleTimeout,
    /// Clean close, or an unrecoverable read error.
    Eof,
}

/// A line reader with the two bounds a hostile or broken peer forces on
/// a production accept loop: a per-read idle deadline (so a half-open
/// connection is reaped instead of pinning its thread forever) and a
/// frame-size cap (so a newline-less firehose cannot grow memory
/// without limit).
struct BoundedLineReader {
    stream: TcpStream,
    pending: Vec<u8>,
    max_line: usize,
}

impl BoundedLineReader {
    /// Arms `stream` with the idle deadline (`None` = block forever)
    /// and wraps it. Fails only if the socket rejects the timeout.
    fn new(
        stream: TcpStream,
        idle_timeout: Option<Duration>,
        max_line: usize,
    ) -> std::io::Result<Self> {
        stream.set_read_timeout(idle_timeout)?;
        Ok(BoundedLineReader {
            stream,
            pending: Vec::new(),
            max_line,
        })
    }

    /// Blocks (up to the idle deadline) for the next complete line.
    fn next_line(&mut self) -> LineEvent {
        use std::io::Read;
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return LineEvent::Line(String::from_utf8_lossy(&line).into_owned());
            }
            if self.pending.len() > self.max_line {
                return LineEvent::Oversized;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return LineEvent::Eof,
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return LineEvent::IdleTimeout;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return LineEvent::Eof,
            }
        }
    }
}

/// Microseconds since `start`, saturating.
pub(crate) fn elapsed_micros(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One coherent snapshot of a front end's compute or forwarding pool;
/// zeros once shutdown has taken the pool for draining.
pub(crate) fn pool_stats(pool: &Mutex<Option<Pool>>) -> PoolStats {
    let pool = pool.lock().expect("pool lock poisoned");
    pool.as_ref().map_or_else(PoolStats::default, Pool::stats)
}
