//! The serve side of the benchmark: answer checking, open-loop phase
//! evaluation, closed batches and the request-path layer split.

use crate::gen::{encode, poisson_offsets, Conn, Sample};
use crate::report::{mean, median, quantile, Report, Rng};
use ktudc_core::harness::{run_cell, CellSpec};
use ktudc_serve::cache::LruCache;
use ktudc_serve::{Request, RequestKind, Response, ResponseKind};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Every answer, checked against the first answer seen for its key: a
/// cached answer must be byte-identical to the computation that filled
/// the cache, and a recomputation identical to the first computation.
#[derive(Default)]
pub struct Verifier {
    truth: HashMap<usize, String>,
    /// Answers that disagreed with the first answer for their key.
    pub wrong: u64,
}

/// One answer, classified.
pub enum Verdict {
    /// A correct payload.
    Ok(Box<Response>),
    /// A typed error (shed, overload, shutdown) or no answer at all.
    Failed,
    /// A payload that disagrees with the key's first answer.
    Wrong,
}

impl Verifier {
    /// Checks the raw answer line for `key`.
    pub fn check(&mut self, key: usize, line: Option<&str>) -> Verdict {
        let Some(Ok(response)) = line.map(|l| serde_json::from_str::<Response>(l.trim_end()))
        else {
            return Verdict::Failed;
        };
        if matches!(
            response.result,
            ResponseKind::Error(_) | ResponseKind::Aborted(_)
        ) {
            return Verdict::Failed;
        }
        let payload = serde_json::to_string(&response.result).expect("encode payload");
        match self.truth.get(&key) {
            Some(first) if *first != payload => {
                self.wrong += 1;
                Verdict::Wrong
            }
            Some(_) => Verdict::Ok(Box::new(response)),
            None => {
                self.truth.insert(key, payload);
                Verdict::Ok(Box::new(response))
            }
        }
    }
}

/// One correct answer of a phase.
pub struct Answer {
    /// The request's key.
    pub key: usize,
    /// The decoded response.
    pub response: Response,
    /// Round trip from actual send to answer, µs.
    pub rtt_us: f64,
    /// When the answer arrived.
    pub at: Instant,
}

/// A phase's checked samples.
#[derive(Default)]
pub struct Phase {
    /// Latency from intended send, ms; failures count as infinite.
    pub latency_ms: Vec<f64>,
    /// Intended send time of each `latency_ms` entry.
    pub intended: Vec<Instant>,
    /// Requests sent.
    pub attempted: u64,
    /// Failed, shed, unanswered or wrong.
    pub failed: u64,
    /// Wrong answers among `failed`.
    pub wrong: u64,
    /// Writer lag per request, ms.
    pub lag_ms: Vec<f64>,
    /// Correct answers.
    pub answered: Vec<Answer>,
}

impl Phase {
    /// Checks every sample of an open-loop phase.
    pub fn evaluate(samples: &[Sample], verifier: &mut Verifier) -> Phase {
        let mut phase = Phase::default();
        for s in samples {
            phase.attempted += 1;
            phase.intended.push(s.intended);
            phase.lag_ms.push(s.lag_ms());
            match verifier.check(s.key, s.answer.as_ref().map(|a| a.1.as_str())) {
                Verdict::Ok(response) => {
                    phase
                        .latency_ms
                        .push(s.latency_ms().unwrap_or(f64::INFINITY));
                    phase.answered.push(Answer {
                        key: s.key,
                        response: *response,
                        rtt_us: s.rtt_us().unwrap_or(0.0),
                        at: s.answer.as_ref().map_or(s.intended, |a| a.0),
                    });
                }
                verdict => {
                    phase.failed += 1;
                    phase.wrong += u64::from(matches!(verdict, Verdict::Wrong));
                    phase.latency_ms.push(f64::INFINITY);
                }
            }
        }
        phase
    }

    /// The `q`-quantile latency over the whole phase, ms.
    #[must_use]
    pub fn latency(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }

    /// The median over consecutive `window`s of each window's
    /// `q`-quantile latency, ms: a burst of outside interference moves
    /// one window, not the figure. Windows with fewer than 100 requests
    /// are skipped; with none left this is the whole-phase quantile.
    #[must_use]
    pub fn windowed_latency(&self, q: f64, window: Duration) -> f64 {
        let Some(&start) = self.intended.first() else {
            return 0.0;
        };
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for (at, ms) in self.intended.iter().zip(&self.latency_ms) {
            let w = (at.duration_since(start).as_secs_f64() / window.as_secs_f64()) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(*ms);
        }
        let per_window: Vec<f64> = windows
            .iter()
            .filter(|w| w.len() >= 100)
            .map(|w| quantile(w, q))
            .collect();
        if per_window.is_empty() {
            self.latency(q)
        } else {
            median(&per_window)
        }
    }
}

/// The request mix: one in five requests a warm key drawn uniformly, four
/// in five the next never-seen cold key (wrapping around when the cold
/// range runs out). Keys index `specs`.
pub struct KeyMix<'a> {
    /// The population.
    pub specs: &'a [CellSpec],
    /// Keys cached during set-up.
    pub warm: Vec<usize>,
    /// Keys never requested before the measured phases.
    pub cold: std::ops::Range<usize>,
    next_cold: usize,
}

impl<'a> KeyMix<'a> {
    /// A mix over `specs`.
    #[must_use]
    pub fn new(specs: &'a [CellSpec], warm: Vec<usize>, cold: std::ops::Range<usize>) -> Self {
        let next_cold = cold.start;
        KeyMix {
            specs,
            warm,
            cold,
            next_cold,
        }
    }

    /// The next key to request.
    pub fn next_key(&mut self, rng: &mut Rng) -> usize {
        if rng.below(5) == 0 {
            self.warm[rng.below(self.warm.len())]
        } else {
            let key = self.next_cold;
            self.next_cold += 1;
            if self.next_cold == self.cold.end {
                self.next_cold = self.cold.start;
            }
            key
        }
    }

    /// The body for `key`.
    #[must_use]
    pub fn kind(&self, key: usize) -> RequestKind {
        crate::population::kind(&self.specs[key])
    }
}

/// An open-loop plan at `rate` for `seconds`, ids from `first`.
fn plan(
    keys: &mut KeyMix,
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    conn: &mut Conn,
) -> (u64, Vec<(Duration, usize, String)>) {
    let offsets = poisson_offsets(rng, rate, seconds);
    let first = conn.ids(offsets.len());
    let plan = offsets
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            let key = keys.next_key(rng);
            (at, key, encode(first + i as u64, &keys.kind(key)))
        })
        .collect();
    (first, plan)
}

/// Runs one open-loop phase at `rate` for `seconds`.
pub fn open_samples(
    conn: &mut Conn,
    keys: &mut KeyMix,
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
) -> Vec<Sample> {
    let (first, plan) = plan(keys, rng, rate, seconds, conn);
    conn.open_loop(first, &plan, Duration::from_secs(2))
}

/// Times `count` closed pipelined batches of `size` requests (at most
/// `window` unanswered) drawn from `keys`, checking every answer into
/// `report`. Returns each batch's seconds.
#[allow(clippy::too_many_arguments)]
pub fn closed_batches(
    conn: &mut Conn,
    keys: &mut KeyMix,
    rng: &mut Rng,
    verifier: &mut Verifier,
    report: &mut Report,
    count: usize,
    size: usize,
    window: usize,
) -> Vec<f64> {
    (0..count)
        .map(|_| {
            let batch: Vec<usize> = (0..size).map(|_| keys.next_key(rng)).collect();
            let first = conn.ids(batch.len());
            let lines: Vec<String> = batch
                .iter()
                .enumerate()
                .map(|(i, &k)| encode(first + i as u64, &keys.kind(k)))
                .collect();
            let t0 = Instant::now();
            let answers = conn
                .windowed(first, &lines, window)
                .expect("batch answered");
            let secs = t0.elapsed().as_secs_f64();
            report.attempted += batch.len() as u64;
            for (k, a) in batch.iter().zip(&answers) {
                if !matches!(verifier.check(*k, Some(a)), Verdict::Ok(_)) {
                    report.failed += 1;
                }
            }
            secs
        })
        .collect()
}

/// Microseconds per call of `f` over `0..n`.
fn per_op_us(n: usize, f: &mut dyn FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

/// The request-path layers seen from outside, over a traced phase:
/// wire encode/decode and cache-key cost timed around the public calls
/// on the phase's own requests and answers, the hit and miss round trips
/// split by the server's `micros`/`queue_wait_ms`/`compute_ms` stamps,
/// and `run_cell` called directly on a sample of the missed cells. Also
/// checks that the splits add up.
pub fn request_path_layers(
    report: &mut Report,
    specs: &[CellSpec],
    untraced: &Phase,
    traced: &Phase,
    direct_calls: usize,
) {
    let (hits, misses): (Vec<&Answer>, Vec<&Answer>) =
        traced.answered.iter().partition(|a| a.response.cached);
    let col = |xs: &[&Answer], f: &dyn Fn(&Response, f64) -> f64| -> Vec<f64> {
        xs.iter().map(|a| f(&a.response, a.rtt_us)).collect()
    };

    let sample: Vec<RequestKind> = traced
        .answered
        .iter()
        .take(2_000)
        .map(|a| RequestKind::Cell(specs[a.key].clone()))
        .collect();
    let answers: Vec<String> = traced
        .answered
        .iter()
        .take(sample.len())
        .map(|a| serde_json::to_string(&a.response).expect("encode"))
        .collect();
    report.metric(
        "serve.wire.encode_us",
        per_op_us(sample.len(), &mut |i| {
            std::hint::black_box(
                serde_json::to_string(&Request::new(i as u64, sample[i].clone())).ok(),
            );
        }),
        "us",
    );
    report.metric(
        "serve.wire.decode_us",
        per_op_us(answers.len(), &mut |i| {
            std::hint::black_box(serde_json::from_str::<Response>(&answers[i]).ok());
        }),
        "us",
    );
    report.metric(
        "serve.cache.key_us",
        per_op_us(sample.len(), &mut |i| {
            let canon = serde_json::to_string(&sample[i]).expect("encode");
            std::hint::black_box(LruCache::key_of(&canon));
        }),
        "us",
    );

    let hit_rtt = col(&hits, &|_, rtt| rtt);
    let hit_server = col(&hits, &|r, _| r.micros as f64);
    let hit_transport = col(&hits, &|r, rtt| rtt - r.micros as f64);
    report.metric("serve.hit.rtt_us", median(&hit_rtt), "us");
    report.metric("serve.hit.server_us", median(&hit_server), "us");
    report.metric("serve.hit.transport_us", median(&hit_transport), "us");

    let miss_rtt = col(&misses, &|_, rtt| rtt);
    let miss_server = col(&misses, &|r, _| r.micros as f64);
    let queue = col(&misses, &|r, _| r.queue_wait_ms);
    let compute = col(&misses, &|r, _| r.compute_ms);
    let overhead = col(&misses, &|r, _| {
        r.micros as f64 - (r.queue_wait_ms + r.compute_ms) * 1e3
    });
    report.metric("serve.miss.rtt_us", median(&miss_rtt), "us");
    report.metric("serve.miss.queue_wait_ms", median(&queue), "ms");
    report.metric("serve.miss.compute_ms", median(&compute), "ms");
    report.metric("serve.miss.overhead_us", median(&overhead), "us");

    // transport + server = rtt for hits and queue + compute + overhead =
    // server for misses, in means (where the parts add), to within the
    // end-to-end latency bound.
    let close = |parts: f64, whole: f64| (parts - whole).abs() <= 0.1 * whole.abs().max(1e-9);
    let hit_sum = mean(&hit_transport) + mean(&hit_server);
    let miss_sum = (mean(&queue) + mean(&compute)) * 1e3 + mean(&overhead);
    report.check(close(hit_sum, mean(&hit_rtt)), || {
        format!(
            "hit transport + server {hit_sum:.1}us != rtt {:.1}us",
            mean(&hit_rtt)
        )
    });
    report.check(close(miss_sum, mean(&miss_server)), || {
        format!(
            "miss queue + compute + overhead {miss_sum:.1}us != server {:.1}us",
            mean(&miss_server)
        )
    });

    let run_cell_us: Vec<f64> = misses
        .iter()
        .take(direct_calls)
        .map(|a| {
            let t0 = Instant::now();
            std::hint::black_box(run_cell(&specs[a.key]));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.metric("core.harness.run_cell_us", median(&run_cell_us), "us");
    report.metric("gen.lag_ms", quantile(&traced.lag_ms, 0.99), "ms");
    report.metric(
        "trace.overhead_ms",
        traced.latency(0.5) - untraced.latency(0.5),
        "ms",
    );
}
