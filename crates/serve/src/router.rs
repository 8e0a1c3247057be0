//! The cluster router: a front-end process that consistent-hashes
//! requests onto worker shards.
//!
//! The router is one [`ClusterClient`] behind the worker's own listener
//! shell. It speaks the worker's newline-JSON protocol, so any client
//! (plain, hardened, `ctl`) can point at it unchanged, and every
//! forwarded request takes the client's one failover path: ring order,
//! detector demotion, then replica after replica, with a typed
//! `Overloaded`/`DeadlineExceeded` shed kept as the answer of last
//! resort. The client's per-shard connection pool keeps several
//! forwards in flight to each shard. Forwarded responses keep the
//! *worker's* generation and gain a `shard` stamp, so clients track
//! restarts per worker rather than per connection.
//!
//! The router answers `Stats` (its own forwarding metrics, plus live
//! suspicion counters), `Health` (its own non-durable report),
//! `ClusterHealth` (the client's per-shard probes, annotated with φ),
//! `Ping` and `Shutdown` itself. Shutdown drains the router, never the
//! workers: they belong to their supervisor.
//!
//! With a [`DetectorConfig`] (the default), suspected shards are
//! demoted to the back of the replica order. The router deliberately
//! does *not* hedge: a fan-in point duplicating every soft-suspect
//! request would multiply fleet load exactly when the fleet is
//! struggling.

use crate::client::RetryPolicy;
use crate::cluster::{ClusterClient, Membership};
use crate::detector::DetectorConfig;
use crate::listener::{accept_loop, elapsed_micros, pool_stats, Frontend};
use crate::metrics::{Metrics, PoolCounters, StatsReport};
use crate::wire::{ClusterHealthReport, ErrorCode, HealthReport, Request, Response};
use ktudc_par::{Pool, SubmitError};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address; port 0 for an ephemeral port (resolved address on
    /// [`RouterHandle::addr`]).
    pub addr: String,
    /// Retry/backoff policy for each forwarding connection. One
    /// worker-side exchange per forwarded request rides on this.
    pub policy: RetryPolicy,
    /// Forwarding threads: how many requests the router relays
    /// concurrently. 0 means one per available core.
    pub workers: usize,
    /// Forwarding jobs queued beyond the active ones before the router
    /// sheds with `Overloaded` (its own backpressure, in front of the
    /// workers' per-shard admission control).
    pub queue_capacity: usize,
    /// Per-connection idle read deadline on the client side, in
    /// milliseconds; 0 disables it. Same semantics as
    /// [`ServeConfig::idle_timeout_ms`](crate::server::ServeConfig::idle_timeout_ms).
    pub idle_timeout_ms: u64,
    /// Live failure-detector plane tuning; `None` disables the plane
    /// (no heartbeats, reactive failover only). On by default: suspected
    /// shards are demoted at forward time before any request has to eat
    /// their timeout.
    pub detector: Option<DetectorConfig>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: RetryPolicy::default(),
            workers: 0,
            queue_capacity: 128,
            idle_timeout_ms: 60_000,
            detector: Some(DetectorConfig::default()),
        }
    }
}

struct RouterShared {
    /// The failover engine every forward goes through.
    cluster: ClusterClient,
    /// `None` once shutdown has taken the pool for draining.
    pool: Mutex<Option<Pool>>,
    metrics: Metrics,
    workers: usize,
    queue_capacity: usize,
    /// Per-connection idle read deadline; `None` disables reaping.
    idle_timeout: Option<Duration>,
    shutdown: AtomicBool,
}

impl Frontend for RouterShared {
    const NAME: &'static str = "router";

    fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn idle_timeout(&self) -> Option<Duration> {
        self.idle_timeout
    }

    fn stats(&self) -> StatsReport {
        let pool = pool_stats(&self.pool);
        let counters = PoolCounters {
            workers: self.workers,
            queue_depth: pool.queued,
            queue_capacity: self.queue_capacity,
            steals: pool.steals,
            deepest_queue: pool.deepest_queue,
        };
        let mut report = self.metrics.report(counters, 0, 0);
        report.suspicion = self.cluster.detector().map(|plane| plane.stats());
        report
    }

    /// The router's own (non-durable) health report: its forwarding
    /// queue and uptime.
    fn health(&self) -> HealthReport {
        let pool = pool_stats(&self.pool);
        HealthReport {
            queue_depth: pool.queued,
            in_flight: pool.in_flight,
            uptime_micros: self.metrics.uptime_micros(),
            ..HealthReport::default()
        }
    }

    fn cluster_health(&self) -> ClusterHealthReport {
        self.cluster.shard_health()
    }

    /// Unlike the worker's writer this never overwrites `generation` — a
    /// forwarded response carries the answering *worker's* generation,
    /// which is the whole point of per-shard restart tracking.
    fn write_response(&self, out: &Mutex<TcpStream>, version: u32, mut response: Response) {
        response.schema_version = version;
        let Ok(mut line) = serde_json::to_string(&response) else {
            return;
        };
        line.push('\n');
        let mut stream = out.lock().expect("stream lock poisoned");
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.flush();
    }

    /// Queues one forwarding job on the router's bounded pool, shedding
    /// typed `Overloaded` when it is full — the router's own
    /// backpressure, in front of each worker's admission control.
    fn dispatch(shared: &Arc<Self>, request: Request, start: Instant, out: &Arc<Mutex<TcpStream>>) {
        let (id, version, options) = (request.id, request.schema_version, request.options);
        let (endpoint, kind) = (request.kind.endpoint(), request.kind);
        let job = {
            let shared = Arc::clone(shared);
            let out = Arc::clone(out);
            move || {
                let response = match shared.cluster.forward(&kind, options) {
                    Ok(mut resp) => {
                        resp.id = id;
                        shared
                            .metrics
                            .record(endpoint, elapsed_micros(start), resp.cached);
                        resp
                    }
                    Err(e) => {
                        shared.metrics.record_error(endpoint);
                        Response::error(
                            id,
                            ErrorCode::Internal,
                            format!("every replica failed: {e}"),
                        )
                    }
                };
                shared.write_response(&out, version, response);
            }
        };
        let submitted = shared
            .pool
            .lock()
            .expect("pool lock poisoned")
            .as_ref()
            .map_or(Err(SubmitError::Closed), |pool| pool.try_execute(job));
        let refusal = match submitted {
            Ok(()) => return,
            Err(SubmitError::Full) => {
                shared.metrics.record_overload(endpoint);
                Response::error_with_retry(
                    id,
                    ErrorCode::Overloaded,
                    "router forwarding queue is full",
                    1,
                )
            }
            Err(SubmitError::Closed) => {
                shared.metrics.record_error(endpoint);
                Response::error(id, ErrorCode::ShuttingDown, "router is draining")
            }
        };
        shared.write_response(out, version, refusal);
    }

    fn drain(&self) {
        // Take the pool so late submitters see ShuttingDown, then let
        // every accepted forward finish and answer before returning.
        let pool = self.pool.lock().expect("pool lock poisoned").take();
        if let Some(pool) = pool {
            pool.shutdown();
        }
        // Connection threads hold the shared state (and so the client)
        // past the handle, so its plane is stopped here, not on drop.
        if let Some(plane) = self.cluster.detector() {
            plane.stop();
        }
    }
}

/// A handle to a running router.
///
/// Dropping the handle shuts the router down (and drains in-flight
/// forwards) if it is still running. Workers are never shut down by the
/// router — they belong to their supervisor or operator.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    accept: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown: stop accepting, drain forwards, exit. Returns
    /// immediately; use [`RouterHandle::join`] to wait.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested (locally or by a client).
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests answered by a replica other than their owner shard.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.shared.cluster.metrics().failovers
    }

    /// Worker restarts the router has observed via generation changes.
    #[must_use]
    pub fn restarts_observed(&self) -> u64 {
        self.shared.cluster.metrics().worker_restarts
    }

    /// The router's live suspicion counters; `None` when the detector
    /// plane is disabled.
    #[must_use]
    pub fn suspicion_stats(&self) -> Option<crate::metrics::SuspicionStats> {
        self.shared.cluster.detector().map(|p| p.stats())
    }

    /// Blocks until the router has stopped accepting and drained every
    /// in-flight forward. Waits for a shutdown request if none was made.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("router accept thread panicked");
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.shutdown();
            let _ = accept.join();
        }
    }
}

/// Binds and starts a router over `membership`.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_router(
    config: &RouterConfig,
    membership: Arc<Membership>,
) -> std::io::Result<RouterHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = if config.workers == 0 {
        ktudc_par::thread_count()
    } else {
        config.workers
    };
    let cluster = ClusterClient::new(membership, config.policy);
    let shared = Arc::new(RouterShared {
        cluster: match config.detector {
            Some(detector) => cluster.with_detector(detector),
            None => cluster,
        },
        pool: Mutex::new(Some(Pool::new(workers, config.queue_capacity))),
        metrics: Metrics::new(),
        workers,
        queue_capacity: config.queue_capacity,
        idle_timeout: (config.idle_timeout_ms > 0)
            .then(|| Duration::from_millis(config.idle_timeout_ms)),
        shutdown: AtomicBool::new(false),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    Ok(RouterHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Endpoints};
    use crate::ring::HashRing;
    use crate::server::{serve, ServeConfig};
    use crate::wire::{RequestKind, ResponseKind, SCHEMA_VERSION};
    use ktudc_core::harness::{run_cell, CellSpec, FdChoice, ProtocolChoice};
    use std::io::{BufRead, BufReader};
    use std::sync::atomic::AtomicU64;

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            ..RetryPolicy::default()
        }
    }

    fn start_workers(n: usize) -> (Vec<crate::server::ServerHandle>, Arc<Membership>) {
        let servers: Vec<_> = (0..n)
            .map(|_| {
                serve(&ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                })
                .expect("serve worker")
            })
            .collect();
        let membership = Arc::new(Membership::new(
            servers.iter().map(|s| s.addr().to_string()).collect(),
        ));
        (servers, membership)
    }

    #[test]
    fn router_answers_are_identical_to_direct_computation() {
        let (workers, membership) = start_workers(2);
        let router = serve_router(
            &RouterConfig {
                policy: quick_policy(),
                workers: 4,
                ..RouterConfig::default()
            },
            membership,
        )
        .expect("router");

        let mut client = Client::connect(router.addr()).expect("connect");
        for i in 0..4u64 {
            let spec = CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                .trials(1)
                .horizon(40 + i);
            let resp = client
                .request(RequestKind::Cell(spec.clone()))
                .expect("routed cell");
            let ResponseKind::Cell(outcome) = resp.result else {
                panic!("expected a cell payload, got {:?}", resp.result);
            };
            assert_eq!(outcome, run_cell(&spec), "routed answer must equal direct");
            assert!(resp.shard.is_some(), "router must stamp the shard");
        }
        // A repeated spec hits the owning worker's cache through the
        // router (same key -> same shard).
        let spec = CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
            .trials(1)
            .horizon(40);
        let resp = client
            .request(RequestKind::Cell(spec))
            .expect("warm routed cell");
        assert!(resp.cached, "resent spec must be a shard cache hit");
        drop(client);
        router.shutdown();
        for w in workers {
            w.shutdown();
        }
    }

    #[test]
    fn router_fails_over_when_a_shard_is_down_and_reports_cluster_health() {
        let (workers, membership) = start_workers(2);
        // Kill shard 1 by pointing it at a dead address.
        membership.set_addr(1, "127.0.0.1:1");
        let router = serve_router(
            &RouterConfig {
                policy: quick_policy(),
                workers: 2,
                ..RouterConfig::default()
            },
            Arc::clone(&membership),
        )
        .expect("router");

        let mut client = Client::connect(router.addr()).expect("connect");
        for i in 0..8u64 {
            let spec = CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                .trials(1)
                .horizon(40 + i);
            let resp = client
                .request(RequestKind::Cell(spec.clone()))
                .expect("routed cell");
            let ResponseKind::Cell(outcome) = resp.result else {
                panic!("expected a cell payload, got {:?}", resp.result);
            };
            assert_eq!(outcome, run_cell(&spec), "failover must not change answers");
            assert_eq!(resp.shard, Some(0), "only shard 0 is alive");
        }
        assert!(
            router.failovers() > 0,
            "some keys belonged to the dead shard"
        );

        let report = client.cluster_health().expect("cluster health");
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.reachable_shards, 1);
        assert!(report.shards[0].reachable);
        assert!(!report.shards[1].reachable);
        drop(client);
        router.shutdown();
        for w in workers {
            w.shutdown();
        }
    }

    #[test]
    fn router_serves_its_own_stats_and_health() {
        let (workers, membership) = start_workers(1);
        let router = serve_router(
            &RouterConfig {
                policy: quick_policy(),
                workers: 2,
                queue_capacity: 16,
                ..RouterConfig::default()
            },
            membership,
        )
        .expect("router");
        let mut client = Client::connect(router.addr()).expect("connect");
        let stats = client.stats().expect("stats");
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.queue_capacity, 16);
        let health = client.health().expect("health");
        assert!(!health.durable);
        assert_eq!(health.generation, 0);
        // A ClusterClient pointed at the router alone sees the fleet
        // view, not one row about the router: `ctl --cluster <router>`
        // must report every worker.
        let through_router = ClusterClient::new(
            Arc::new(Membership::new(vec![router.addr().to_string()])),
            quick_policy(),
        );
        let report = through_router.cluster_health();
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.reachable_shards, 1);
        assert_eq!(report.shards[0].addr, workers[0].addr().to_string());
        // Shutdown over the wire drains the router, not the workers.
        client.shutdown_server().expect("shutdown ack");
        router.join();
        let mut direct = Client::connect(workers[0].addr()).expect("worker still up");
        assert!(direct.health().is_ok());
        for w in workers {
            w.shutdown();
        }
    }

    #[test]
    fn router_over_one_shard_reports_the_membership_address() {
        // The worker sits behind a relay, so the address it reports for
        // itself differs from the one the router's membership holds.
        let worker = serve(&ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("serve worker");
        let mut relay = crate::chaosnet::chaos_proxy(
            worker.addr().to_string(),
            crate::chaosnet::ToxicPlan::none(),
            0,
        )
        .expect("relay");
        let member = relay.addr().to_string();
        let router = serve_router(
            &RouterConfig {
                policy: quick_policy(),
                workers: 1,
                ..RouterConfig::default()
            },
            Arc::new(Membership::new(vec![member.clone()])),
        )
        .expect("router");
        let mut client = Client::connect(router.addr()).expect("connect");
        let report = client.cluster_health().expect("cluster health");
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.reachable_shards, 1);
        assert_eq!(report.shards[0].addr, member, "one Health probe per member");
        drop(client);
        router.shutdown();
        relay.shutdown();
        worker.shutdown();
    }

    /// A stand-in shard that answers every request line with a typed
    /// `Overloaded` shed and counts the lines it was sent.
    fn shedding_shard() -> (String, Arc<AtomicU64>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind shedder");
        let addr = listener.local_addr().expect("shedder addr").to_string();
        let seen = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&seen);
        std::thread::spawn(move || {
            for stream in listener.incoming().map_while(Result::ok) {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let mut out = stream.try_clone().expect("clone shedder stream");
                    for line in BufReader::new(stream).lines().map_while(Result::ok) {
                        let Ok(request) = serde_json::from_str::<Request>(&line) else {
                            break;
                        };
                        counter.fetch_add(1, Ordering::SeqCst);
                        let mut shed = Response::error_with_retry(
                            request.id,
                            ErrorCode::Overloaded,
                            "this shard always sheds",
                            1,
                        );
                        shed.schema_version = SCHEMA_VERSION;
                        let line = serde_json::to_string(&shed).expect("encode shed");
                        if writeln!(out, "{line}").is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, seen)
    }

    /// A breaker that stays open for the whole test once tripped.
    fn breaker_policy() -> RetryPolicy {
        RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            circuit_cooldown: Duration::from_secs(60),
            ..RetryPolicy::default()
        }
    }

    /// A router with `workers` forwarding threads over a shedding shard 0
    /// and a live shard 1, the shedder's line counter, the live worker,
    /// and five cells owned by shard 0.
    fn breaker_setup(
        workers: usize,
    ) -> (
        RouterHandle,
        Arc<AtomicU64>,
        Vec<crate::server::ServerHandle>,
        Vec<CellSpec>,
    ) {
        let (shedder, sent_to_shedder) = shedding_shard();
        let (live_workers, live) = start_workers(1);
        let router = serve_router(
            &RouterConfig {
                policy: breaker_policy(),
                workers,
                detector: None,
                ..RouterConfig::default()
            },
            Arc::new(Membership::new(vec![shedder, live.addr(0)])),
        )
        .expect("router");
        let ring = HashRing::new(2);
        let owned: Vec<CellSpec> = (0..64u64)
            .map(|i| {
                CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                    .trials(1)
                    .horizon(40 + i)
            })
            .filter(|spec| {
                ring.shard_for(ClusterClient::shard_key(&RequestKind::Cell(spec.clone()))) == 0
            })
            .take(5)
            .collect();
        assert_eq!(owned.len(), 5, "test needs cells owned by shard 0");
        (router, sent_to_shedder, live_workers, owned)
    }

    #[test]
    fn router_breaker_opens_on_a_shedding_shard_and_stops_sending_to_it() {
        let (router, sent_to_shedder, workers, owned) = breaker_setup(1);
        let mut client = Client::connect(router.addr()).expect("connect");
        for spec in &owned {
            let resp = client
                .request(RequestKind::Cell(spec.clone()))
                .expect("routed cell");
            let ResponseKind::Cell(outcome) = resp.result else {
                panic!("expected a cell payload, got {:?}", resp.result);
            };
            assert_eq!(outcome, run_cell(spec), "failover must not change answers");
            assert_eq!(resp.shard, Some(1));
        }
        // One call spends `max_retries + 1` sheds, the next reaches the
        // threshold and opens the breaker; every later call fails over
        // without sending to the shedding shard at all.
        assert_eq!(
            sent_to_shedder.load(Ordering::SeqCst),
            u64::from(breaker_policy().circuit_threshold),
            "the pooled breaker must open and then keep the router off the shard"
        );
        assert!(router.failovers() >= 5);
        drop(client);
        router.shutdown();
        for w in workers {
            w.shutdown();
        }
    }

    #[test]
    fn router_breakers_bound_the_sheds_under_concurrent_forwards() {
        // Breakers are kept per pooled connection. With at most
        // `workers` forwards in flight, and no more than the pool keeps,
        // no more than `workers` connections to the shard are ever
        // opened, and each sheds at most `circuit_threshold` times before
        // its breaker opens — however many requests follow.
        let workers = 4;
        assert!(workers <= crate::cluster::POOL_PER_SHARD);
        let (router, sent_to_shedder, live_workers, owned) = breaker_setup(workers);
        let callers = 2 * workers;
        let rounds = 4;
        std::thread::scope(|scope| {
            for _ in 0..callers {
                scope.spawn(|| {
                    let mut client = Client::connect(router.addr()).expect("connect");
                    for spec in owned.iter().cycle().take(rounds * owned.len()) {
                        let resp = client
                            .request(RequestKind::Cell(spec.clone()))
                            .expect("routed cell");
                        assert_eq!(resp.shard, Some(1));
                    }
                });
            }
        });
        let sheds = sent_to_shedder.load(Ordering::SeqCst);
        let bound = workers as u64 * u64::from(breaker_policy().circuit_threshold);
        assert!(
            sheds <= bound,
            "{sheds} sheds for {} forwards; breakers must bound them at {bound}",
            callers * rounds * owned.len()
        );
        router.shutdown();
        for w in live_workers {
            w.shutdown();
        }
    }
}
