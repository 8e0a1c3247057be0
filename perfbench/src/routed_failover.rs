//! `routed_failover`: `serve_router` with the live detector plane over
//! three in-process single-worker shards, fed by the open-loop generator
//! with a warm/cold key mix ([`KeyMix`]). On a seeded schedule one shard
//! is black-holed several times — a `Toxic::Partition` chaos proxy is
//! swapped in front of it for a bounded window — and healed each time.
//! The router hop, ring failover and the φ detector run only here.

use crate::gen::{encode, Conn, Sample};
use crate::population::{cells, kind, LIGHT, PROTOCOLS};
use crate::report::{median, Report, Rng};
use crate::serving::{
    closed_batches, open_samples, request_path_layers, KeyMix, Phase, Verdict, Verifier,
};
use ktudc_core::harness::{run_cell, CellSpec, ProtocolChoice};
use ktudc_serve::{
    chaos_proxy, serve, serve_router, Auditor, ChaosProxy, ClusterClient, HashRing, Membership,
    RequestKind, Response, ResponseKind, RetryPolicy, RouterConfig, RouterHandle, ServeConfig,
    ServerHandle, StatsReport, Toxic, ToxicPlan,
};
use ktudc_serve::{DetectorConfig, SuspicionStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload sizing.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Distinct cells in the population.
    pub population: usize,
    /// Cold cells each shard computes while warming.
    pub warm_per_shard: usize,
    /// Warm keys (cached on their owner during set-up).
    pub warm_keys: usize,
    /// Fixed offered rate, requests per second.
    pub rate: f64,
    /// Healthy gap before each black-hole, seconds (uniform in range).
    pub gap_s: (f64, f64),
    /// Requests in each of the nine closed `wall_s` batches.
    pub batch: usize,
    /// Warm keys timed routed and direct for `router.hop_us`.
    pub hop_sample: usize,
}

/// Full size (measured) or smoke size (the benchmark's own tests).
#[must_use]
pub fn params(smoke: bool) -> Params {
    if smoke {
        Params {
            population: 3_000,
            warm_per_shard: 150,
            warm_keys: 60,
            rate: 60.0,
            gap_s: (0.4, 0.6),
            batch: 50,
            hop_sample: 20,
        }
    } else {
        Params {
            population: 6_000,
            warm_per_shard: 4_200,
            warm_keys: 200,
            rate: 120.0,
            gap_s: (0.6, 0.9),
            batch: 250,
            hop_sample: 300,
        }
    }
}

const SHARDS: usize = 3;

/// How long each black-hole lasts: detection (≈ 0.3 s) plus failover
/// with room to spare.
const BLACKHOLE: Duration = Duration::from_millis(700);

/// Horizons of the measured cells: ≈ 3 ms of compute at the median, so a
/// request's latency is mostly the service's work rather than the
/// scheduler wake-ups of the five thread hops between generator, router
/// and shard.
const HEAVY: std::ops::Range<usize> = 6_000..12_001;

/// The router's forwarding policy: one attempt per replica, with a
/// deadline far above any healthy answer (a healthy shard that missed it
/// would have its answer recomputed by a replica), so a black-holed
/// request moves on after 1 s unless suspicion reroutes it first.
fn policy() -> RetryPolicy {
    RetryPolicy {
        request_timeout: Duration::from_secs(1),
        max_retries: 0,
        circuit_threshold: 0,
        ..RetryPolicy::default()
    }
}

/// A running cluster: shards, the victim's clean front proxy and the
/// router.
struct Cluster {
    shards: Vec<ServerHandle>,
    real: Vec<String>,
    front: Option<ChaosProxy>,
    membership: Arc<Membership>,
    router: RouterHandle,
}

impl Cluster {
    fn stop(self) {
        self.router.shutdown();
        self.router.join();
        drop(self.front);
        for s in self.shards {
            s.shutdown();
            s.join();
        }
    }
}

fn shard_stats(addr: &str) -> Result<StatsReport, String> {
    let mut conn =
        Conn::connect(addr.parse().map_err(|e| format!("{e}"))?).map_err(|e| e.to_string())?;
    match conn.call(&RequestKind::Stats)?.result {
        ResponseKind::Stats(s) => Ok(s),
        other => Err(format!("stats answered {other:?}")),
    }
}

/// Cells a shard has computed: cell requests neither cached nor refused.
fn computed(s: &StatsReport) -> u64 {
    s.endpoints
        .iter()
        .find(|e| e.endpoint == "cell")
        .map_or(0, |e| e.requests - e.cache_hits - e.errors)
}

/// Boots three shards, the victim's front proxy and the router, then
/// warms every shard past 4096 computed outcomes and caches the warm
/// keys on their owners. Returns the cluster, the generator's connection
/// to the router, the warm-up answers and the set-up seconds.
fn boot(
    keys: &KeyMix,
    warmup: &[usize],
    victim: usize,
    seed: u64,
    verifier: &mut Verifier,
) -> Result<(Cluster, Conn, Vec<String>, f64), String> {
    let t0 = Instant::now();
    let shard_cfg = ServeConfig {
        workers: 1,
        cache_capacity: 32_768,
        ..ServeConfig::default()
    };
    let shards = (0..SHARDS)
        .map(|_| serve(&shard_cfg))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let real: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let front =
        chaos_proxy(real[victim].clone(), ToxicPlan::none(), seed).map_err(|e| e.to_string())?;
    let mut addrs = real.clone();
    addrs[victim] = front.addr().to_string();
    let membership = Arc::new(Membership::new(addrs));
    let router = serve_router(
        &RouterConfig {
            policy: policy(),
            workers: 32,
            queue_capacity: 256,
            detector: Some(DetectorConfig::fast()),
            ..RouterConfig::default()
        },
        Arc::clone(&membership),
    )
    .map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(router.addr()).map_err(|e| e.to_string())?;
    let first = conn.ids(warmup.len());
    let lines: Vec<String> = warmup
        .iter()
        .enumerate()
        .map(|(i, &k)| encode(first + i as u64, &keys.kind(k)))
        .collect();
    let answers = conn.windowed(first, &lines, 6)?;
    let secs = t0.elapsed().as_secs_f64();
    for (k, a) in warmup.iter().zip(&answers) {
        if !matches!(verifier.check(*k, Some(a)), Verdict::Ok(_)) {
            return Err(format!("warm-up request for key {k} failed: {a}"));
        }
    }
    let cluster = Cluster {
        shards,
        real,
        front: Some(front),
        membership,
        router,
    };
    Ok((cluster, conn, answers, secs))
}

/// One black-hole cycle as observed.
#[derive(Clone, Debug)]
struct Cycle {
    /// When the victim stopped receiving traffic.
    start: Instant,
    /// Black-hole → suspicion raised, ms (`None`: never suspected).
    detect_ms: Option<f64>,
    /// Heal → suspicion cleared, ms.
    readmit_ms: Option<f64>,
    /// Whether `cluster_health` showed the victim suspected.
    visible: bool,
}

fn suspicion(router: &RouterHandle) -> SuspicionStats {
    router.suspicion_stats().unwrap_or_default()
}

/// Polls the router's suspicion counters until `pred` holds or `limit`
/// passes; returns the elapsed ms since `since`.
fn wait_for(
    router: &RouterHandle,
    since: Instant,
    limit: Duration,
    pred: &dyn Fn(&SuspicionStats) -> bool,
) -> Option<f64> {
    while since.elapsed() < limit {
        if pred(&suspicion(router)) {
            return Some(since.elapsed().as_secs_f64() * 1e3);
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    None
}

/// Waits (until `deadline`) for a shard to have had nothing queued or
/// running for `quiet` — long enough for a request still crossing the old
/// path to have arrived and been answered.
fn drain(shard: &mut Conn, quiet: Duration, deadline: Instant) {
    let mut idle_since: Option<Instant> = None;
    while Instant::now() < deadline {
        match shard.call(&RequestKind::Health).map(|r| r.result) {
            Ok(ResponseKind::Health(h)) if h.queue_depth + h.in_flight == 0 => {
                let since = *idle_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= quiet {
                    return;
                }
            }
            _ => idle_since = None,
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs black-hole cycles against `victim` until `until`.
fn chaos_schedule(
    cluster: &mut Cluster,
    victim: usize,
    p: &Params,
    rng: &mut Rng,
    until: Instant,
    seed: u64,
) -> Vec<Cycle> {
    let grace = Duration::from_millis(50);
    let mut cycles = Vec::new();
    let mut health = Conn::connect(cluster.router.addr()).expect("connect health probe");
    let mut victim_direct =
        Conn::connect(cluster.real[victim].parse().expect("shard addr")).expect("connect victim");
    loop {
        let gap = p.gap_s.0 + rng.unit() * (p.gap_s.1 - p.gap_s.0);
        std::thread::sleep(Duration::from_secs_f64(gap));
        if Instant::now() + BLACKHOLE + Duration::from_millis(300) > until {
            return cycles;
        }
        let blackhole = ToxicPlan::none()
            .upstream(Toxic::Partition {
                start: 0,
                until: None,
            })
            .downstream(Toxic::Partition {
                start: 0,
                until: None,
            });
        let hole = chaos_proxy(cluster.real[victim].clone(), blackhole, seed).expect("proxy");
        let raised = suspicion(&cluster.router).suspects_raised;
        let start = Instant::now();
        cluster.membership.set_addr(victim, hole.addr().to_string());
        // Let the victim finish what reached it over the old path, then
        // cut that path: an answer lost in flight would be recomputed by a
        // replica, and the audit requires every scenario computed once.
        drain(
            &mut victim_direct,
            grace,
            start + Duration::from_millis(500),
        );
        drop(cluster.front.take());
        let detect_ms = wait_for(&cluster.router, start, BLACKHOLE, &|s| {
            s.suspects_raised > raised
        });
        let visible = detect_ms.is_some()
            && matches!(
                health.call(&RequestKind::ClusterHealth).map(|r| r.result),
                Ok(ResponseKind::ClusterHealth(h)) if h.shards[victim].suspected
            );
        if let Some(rest) = BLACKHOLE.checked_sub(start.elapsed()) {
            std::thread::sleep(rest);
        }
        let cleared = suspicion(&cluster.router).suspects_cleared;
        let front =
            chaos_proxy(cluster.real[victim].clone(), ToxicPlan::none(), seed).expect("proxy");
        let heal = Instant::now();
        cluster
            .membership
            .set_addr(victim, front.addr().to_string());
        cluster.front = Some(front);
        std::thread::sleep(grace);
        drop(hole);
        let readmit_ms = wait_for(&cluster.router, heal, Duration::from_secs(1), &|s| {
            s.suspects_cleared > cleared
        });
        cycles.push(Cycle {
            start,
            detect_ms,
            readmit_ms,
            visible,
        });
    }
}

/// What one open-loop phase with black-hole cycles produced.
struct FailoverPhase {
    samples: Vec<Sample>,
    phase: Phase,
    cycles: Vec<Cycle>,
    outage_ms: Vec<f64>,
    raised: u64,
    proactive: u64,
    failovers: u64,
}

#[allow(clippy::too_many_arguments)]
fn failover_phase(
    cluster: &mut Cluster,
    conn: &mut Conn,
    keys: &mut KeyMix,
    owner: &[usize],
    victim: usize,
    p: &Params,
    rng: &mut Rng,
    seconds: f64,
    seed: u64,
    verifier: &mut Verifier,
    scrape: bool,
) -> FailoverPhase {
    let before = suspicion(&cluster.router);
    let failovers = cluster.router.failovers();
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut chaos_rng = Rng::new(rng.next_u64(), 0xb1ac);
    let router_addr = cluster.router.addr();
    let stop = AtomicBool::new(false);
    let (samples, cycles) = std::thread::scope(|s| {
        if scrape {
            s.spawn(|| {
                let mut scraper = Conn::connect(router_addr).expect("connect scraper");
                while !stop.load(Ordering::Relaxed) {
                    let _ = scraper.call(&RequestKind::Stats);
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
        }
        let chaos = s.spawn(|| chaos_schedule(cluster, victim, p, &mut chaos_rng, until, seed));
        let samples = open_samples(conn, keys, rng, p.rate, seconds);
        let cycles = chaos.join().expect("chaos schedule");
        stop.store(true, Ordering::Relaxed);
        (samples, cycles)
    });
    let phase = Phase::evaluate(&samples, verifier);
    let outage_ms = cycles
        .iter()
        .filter_map(|c| {
            phase
                .answered
                .iter()
                .filter(|a| {
                    owner[a.key] == victim && a.response.shard != Some(victim) && a.at >= c.start
                })
                .map(|a| a.at.duration_since(c.start).as_secs_f64() * 1e3)
                .reduce(f64::min)
        })
        .collect();
    let after = suspicion(&cluster.router);
    FailoverPhase {
        samples,
        phase,
        cycles,
        outage_ms,
        raised: after.suspects_raised - before.suspects_raised,
        proactive: after.proactive_failovers - before.proactive_failovers,
        failovers: cluster.router.failovers() - failovers,
    }
}

/// Records a phase's outcomes in the auditor, with direct `run_cell`
/// ground truth (computed in parallel) for every scenario not seen before.
fn audit_phase(auditor: &Auditor, specs: &[CellSpec], known: &mut [bool], samples: &[Sample]) {
    let mut fresh: Vec<usize> = samples
        .iter()
        .map(|s| s.key)
        .filter(|&k| !known[k])
        .collect();
    fresh.sort_unstable();
    fresh.dedup();
    let truths = ktudc_par::par_map(fresh.clone(), |k| run_cell(&specs[k]));
    for (k, truth) in fresh.into_iter().zip(truths) {
        known[k] = true;
        auditor.expect(&kind(&specs[k]), &ResponseKind::Cell(truth));
    }
    for s in samples {
        let body = kind(&specs[s.key]);
        let latency = s
            .answer
            .as_ref()
            .map_or(Duration::ZERO, |a| a.0.duration_since(s.intended));
        match s
            .answer
            .as_ref()
            .map(|a| serde_json::from_str::<Response>(a.1.trim_end()))
        {
            Some(Ok(response)) => auditor.record_response(&body, &response, latency),
            _ => auditor.record_untyped(&body, "no answer", latency),
        }
    }
}

/// Runs the workload.
///
/// # Panics
///
/// Panics if the cluster cannot be booted or reached.
pub fn run(smoke: bool, seed: u64, seconds: f64, trace: bool) -> Report {
    let p = params(smoke);
    // Population layout: light cells for the per-shard warm-up, then
    // heavy cells — warm keys owned by healthy shards, then fresh cold
    // cells.
    let light = cells(
        seed ^ 0x7075_7465,
        SHARDS * p.warm_per_shard * 3 / 2,
        LIGHT,
        &PROTOCOLS,
    );
    let heavy_from = light.len();
    let mut specs = light;
    specs.extend(cells(
        seed ^ 0x6865_6176,
        p.population,
        HEAVY,
        &[ProtocolChoice::Reliable],
    ));
    let ring = HashRing::new(SHARDS);
    let shard_keys: Vec<u64> = specs
        .iter()
        .map(|s| ClusterClient::shard_key(&kind(s)))
        .collect();
    let owner: Vec<usize> = shard_keys.iter().map(|&k| ring.shard_for(k)).collect();
    let mut rng = Rng::new(seed, 0xf0e1);
    let victim = rng.below(SHARDS);

    let mut per_shard = [0usize; SHARDS];
    let mut warmup = Vec::new();
    for k in 0..heavy_from {
        if per_shard[owner[k]] < p.warm_per_shard {
            per_shard[owner[k]] += 1;
            warmup.push(k);
        }
    }
    let mut cursor = heavy_from;
    let mut warm = Vec::new();
    while warm.len() < p.warm_keys {
        if owner[cursor] != victim {
            warm.push(cursor);
        }
        cursor += 1;
    }
    warmup.extend(&warm);
    let mut keys = KeyMix::new(&specs, warm, cursor..specs.len());

    let mut report = Report::default();
    let mut verifier = Verifier::default();
    let mut setups = Vec::new();
    for _ in 0..2 {
        let (cluster, conn, _, secs) =
            boot(&keys, &warmup, victim, seed, &mut verifier).expect("boot cluster");
        setups.push(secs);
        drop(conn);
        cluster.stop();
    }
    let (mut cluster, mut conn, answers, secs) =
        boot(&keys, &warmup, victim, seed, &mut verifier).expect("boot cluster");
    setups.push(secs);

    // The audited campaign: the measured cluster's warm-up (registered
    // with its served answers, which the verifier has held to the first
    // cluster's) plus every failover phase (registered with direct
    // run_cell answers).
    let auditor = Auditor::new();
    let mut known = vec![false; specs.len()];
    for (&k, line) in warmup.iter().zip(&answers) {
        known[k] = true;
        let response: Response = serde_json::from_str(line.trim_end()).expect("checked answer");
        auditor.expect(&keys.kind(k), &response.result);
        auditor.record_response(&keys.kind(k), &response, Duration::ZERO);
    }
    let steals_before: u64 = cluster
        .real
        .iter()
        .map(|a| shard_stats(a).map_or(0, |s| s.steals))
        .sum();

    let halves = if trace { 2 } else { 1 };
    let phase_s = if trace { seconds / 2.0 } else { seconds * 0.8 };
    let mut phases = Vec::new();
    for half in 0..halves {
        let fp = failover_phase(
            &mut cluster,
            &mut conn,
            &mut keys,
            &owner,
            victim,
            &p,
            &mut rng,
            phase_s,
            seed,
            &mut verifier,
            half == 1,
        );
        report.attempted += fp.phase.attempted;
        report.failed += fp.phase.failed;
        phases.push(fp);
    }

    // Exactly-once over the audited campaign: every scenario computed by
    // exactly one shard, exactly once.
    let stats: Vec<StatsReport> = cluster
        .real
        .iter()
        .map(|a| shard_stats(a).expect("shard stats"))
        .collect();
    for fp in &phases {
        audit_phase(&auditor, &specs, &mut known, &fp.samples);
    }
    auditor.note_computed(stats.iter().map(computed).sum());
    let hedges = suspicion(&cluster.router).hedges_fired;
    auditor.note_hedges(hedges);
    let audit = auditor.report();
    report.check(audit.passed && audit.exactly_once == Some(true), || {
        format!("audit failed: {audit:?}")
    });
    report.check(audit.hedges_never_double_compute == Some(true), || {
        "hedges double-computed".to_string()
    });
    for fp in &phases {
        let blind = fp
            .cycles
            .iter()
            .filter(|c| c.detect_ms.is_none() || !c.visible)
            .count();
        report.check(blind == 0 && !fp.cycles.is_empty(), || {
            format!(
                "{blind} of {} black-holes never showed as suspected",
                fp.cycles.len()
            )
        });
        report.check(fp.outage_ms.len() == fp.cycles.len(), || {
            format!(
                "{} of {} black-holes had no victim-owned request answered by a replica",
                fp.cycles.len() - fp.outage_ms.len(),
                fp.cycles.len()
            )
        });
    }

    let first = &phases[0];
    if trace {
        let traced = &phases[1];
        request_path_layers(&mut report, &specs, &first.phase, &traced.phase, 200);
        let answered = traced.phase.answered.len().max(1) as f64;
        let cached = traced
            .phase
            .answered
            .iter()
            .filter(|a| a.response.cached)
            .count();
        report.metric("serve.cache.hit_ratio", cached as f64 / answered, "ratio");
        report.metric(
            "serve.shed_ratio",
            traced.phase.failed as f64 / traced.phase.attempted.max(1) as f64,
            "ratio",
        );
        report.metric(
            "serve.pool.deepest_queue",
            stats.iter().map(|s| s.deepest_queue).max().unwrap_or(0) as f64,
            "count",
        );
        let steals: u64 = stats.iter().map(|s| s.steals).sum();
        report.metric(
            "par.steals",
            steals.saturating_sub(steals_before) as f64,
            "count",
        );

        // Router hop: the same warm keys routed and sent to their owner.
        let sample: Vec<usize> = keys.warm.iter().copied().take(p.hop_sample).collect();
        let mut direct: Vec<Conn> = cluster
            .real
            .iter()
            .map(|a| Conn::connect(a.parse().expect("shard addr")).expect("connect shard"))
            .collect();
        let mut routed_us = Vec::new();
        let mut direct_us = Vec::new();
        for &k in &sample {
            let body = keys.kind(k);
            let t0 = Instant::now();
            let ok = conn.call(&body).is_ok();
            routed_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            let ok = ok && direct[owner[k]].call(&body).is_ok();
            direct_us.push(t0.elapsed().as_secs_f64() * 1e6);
            report.check(ok, || format!("hop probe for key {k} failed"));
        }
        report.metric(
            "router.hop_us",
            median(&routed_us) - median(&direct_us),
            "us",
        );
        let t0 = Instant::now();
        let mut acc = 0usize;
        for &k in &shard_keys {
            acc ^= ring.shard_for(std::hint::black_box(k));
        }
        std::hint::black_box(acc);
        report.metric(
            "serve.ring.shard_for_ns",
            t0.elapsed().as_secs_f64() * 1e9 / shard_keys.len() as f64,
            "ns",
        );

        let detect: Vec<f64> = traced.cycles.iter().filter_map(|c| c.detect_ms).collect();
        let readmit: Vec<f64> = traced.cycles.iter().filter_map(|c| c.readmit_ms).collect();
        report.metric("detector.detect_ms", median(&detect), "ms");
        report.metric("detector.readmit_ms", median(&readmit), "ms");
        report.metric(
            "detector.false_suspicions",
            traced.raised.saturating_sub(detect.len() as u64) as f64,
            "count",
        );
        report.metric("router.failovers", traced.failovers as f64, "count");
        report.metric(
            "router.proactive_failovers",
            traced.proactive as f64,
            "count",
        );
    } else {
        let p50 = first.phase.windowed_latency(0.5, Duration::from_secs(1));
        let p99 = first.phase.latency(0.99);
        let outage = median(&first.outage_ms);
        let batches = closed_batches(
            &mut conn,
            &mut keys,
            &mut rng,
            &mut verifier,
            &mut report,
            9,
            p.batch,
            16,
        );
        report.metric("setup_s", median(&setups), "s");
        report.metric("wall_s", median(&batches), "s");
        report.metric("p50_ms", p50, "ms");
        report.metric("p99_ms", p99, "ms");
        report.metric("outage_ms", outage, "ms");
    }
    drop(conn);
    cluster.stop();
    report.check(verifier.wrong == 0, || {
        format!(
            "{} answers differ from the first answer for their key",
            verifier.wrong
        )
    });
    report
}
