//! Chaos soak of the `ktudc-serve` daemon: the server injects response
//! faults (delays, severed connections, short writes) and sheds load
//! from a deliberately tiny queue, while [`HardenedClient`]s hammer it
//! with overlapping workloads. The assertions are the exactly-once
//! contract: every request gets exactly one response whose payload
//! equals the direct library call, and every distinct request body is
//! computed exactly once on the server, no matter how many times the
//! clients had to resend it.

use ktudc::core::harness::{run_cell, CellSpec, FdChoice, ProtocolChoice};
use ktudc::epistemic::Formula;
use ktudc::model::ProcessId;
use ktudc::sim::{run_explore_spec, ExploreSpec};
use ktudc_serve::{
    serve, CheckSpec, ClientError, Endpoints, HardenedClient, RequestKind, Response, ResponseKind,
    RetryPolicy, ServeConfig, ServerFaults,
};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::Duration;

fn faulty_server(
    workers: usize,
    queue: usize,
    faults: ServerFaults,
) -> (ktudc_serve::ServerHandle, SocketAddr) {
    let handle = serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: queue,
        cache_capacity: 256,
        faults,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();
    (handle, addr)
}

/// A cheap, always-valid cell, distinct per `i`.
fn cell(i: usize) -> CellSpec {
    CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
        .trials(2)
        .horizon(100 + (i as u64) * 10)
}

/// A tiny exploration scenario, distinct per `i`.
fn scenario(i: usize) -> ExploreSpec {
    let mut spec = ExploreSpec::new(2, 2);
    spec.max_failures = i % 2;
    spec
}

fn check(i: usize) -> CheckSpec {
    let p0 = ProcessId::new(0);
    CheckSpec {
        scenario: scenario(i),
        formula: Formula::or(vec![
            Formula::crashed(p0),
            Formula::not(Formula::crashed(p0)),
        ]),
    }
}

/// The workload one soak thread submits per round. Threads overlap on
/// purpose: identical bodies racing from different connections is what
/// exercises the server's single-flight dedup.
fn soak_batch(thread: usize) -> Vec<RequestKind> {
    vec![
        RequestKind::Cell(cell(thread % 3)),
        RequestKind::Explore(scenario(thread % 2)),
        RequestKind::Check(check(thread % 2)),
        RequestKind::Cell(cell((thread + 1) % 3)),
    ]
}

/// Asserts a served payload equals what the library computes directly.
fn assert_matches_direct(kind: &RequestKind, response: &Response) {
    match (kind, &response.result) {
        (RequestKind::Cell(spec), ResponseKind::Cell(outcome)) => {
            assert_eq!(*outcome, run_cell(spec), "cell mismatch for {spec:?}");
        }
        (RequestKind::Explore(spec), ResponseKind::Explore(outcome)) => {
            assert_eq!(
                *outcome,
                run_explore_spec(spec).expect("valid scenario"),
                "explore mismatch for {spec:?}"
            );
        }
        (RequestKind::Check(spec), ResponseKind::Check(outcome)) => {
            // The soak checks tautologies only, so the verdict is fixed.
            assert!(outcome.valid, "check mismatch for {spec:?}");
            assert_eq!(outcome.counterexample, None);
            assert!(outcome.complete);
        }
        (kind, other) => panic!("response kind mismatch: {kind:?} answered by {other:?}"),
    }
}

#[test]
fn soak_under_server_faults_is_exactly_once() {
    // Every kind of fault armed at once, on a server small enough to
    // shed load: responses are delayed (7th), severed (5th), and torn
    // (11th), globally across all connections.
    let (handle, addr) = faulty_server(
        2,
        2,
        ServerFaults {
            delay_every: Some((7, Duration::from_millis(20))),
            sever_every: Some(5),
            short_write_every: Some(11),
        },
    );

    const THREADS: usize = 6;
    const ROUNDS: usize = 3;
    let soakers: Vec<_> = (0..THREADS)
        .map(|thread| {
            std::thread::spawn(move || {
                let mut client = HardenedClient::new(
                    addr.to_string(),
                    RetryPolicy {
                        request_timeout: Duration::from_secs(5),
                        max_retries: 12,
                        base_backoff: Duration::from_millis(5),
                        max_backoff: Duration::from_millis(200),
                        jitter_seed: 1000 + thread as u64,
                        ..RetryPolicy::default()
                    },
                );
                let mut rounds = Vec::new();
                for _ in 0..ROUNDS {
                    let kinds = soak_batch(thread);
                    let responses = client.batch(kinds.clone()).expect("soak batch");
                    rounds.push((kinds, responses));
                }
                rounds
            })
        })
        .collect();

    // Exactly one response per request, each with the right payload.
    let mut unique: HashSet<String> = HashSet::new();
    for soaker in soakers {
        for (kinds, responses) in soaker.join().expect("soak thread") {
            assert_eq!(responses.len(), kinds.len(), "a request was lost");
            for (kind, response) in kinds.iter().zip(&responses) {
                assert_matches_direct(kind, response);
                unique.insert(serde_json::to_string(kind).expect("encodable"));
            }
        }
    }

    // Warm phase: the same bodies again must be answered from the cache
    // even though the faults are still firing.
    let mut client = HardenedClient::new(addr.to_string(), RetryPolicy::default());
    for thread in 0..THREADS {
        let kinds = soak_batch(thread);
        let responses = client.batch(kinds.clone()).expect("warm batch");
        for (kind, response) in kinds.iter().zip(&responses) {
            assert!(response.cached, "warm response not cached for {kind:?}");
            assert_matches_direct(kind, response);
        }
    }

    // Exactly-once compute: on the compute endpoints, every record is a
    // computation (cached=false), a cache hit, or a typed error (the
    // overload sheds). The computations must number exactly the distinct
    // bodies submitted — resends and races never re-computed anything.
    let stats = client.stats().expect("stats");
    let computed: u64 = stats
        .endpoints
        .iter()
        .filter(|e| ["cell", "check", "explore"].contains(&e.endpoint.as_str()))
        .map(|e| e.requests - e.cache_hits - e.errors)
        .sum();
    assert_eq!(
        computed,
        unique.len() as u64,
        "single-flight violated: {stats:?}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn request_deadline_expires_and_retry_budget_is_bounded() {
    // Every response delayed far past the client deadline: each attempt
    // times out, and the client gives up with a typed exhaustion error
    // after exactly its budget (1 initial + 2 retries).
    let (handle, addr) = faulty_server(
        1,
        4,
        ServerFaults {
            delay_every: Some((1, Duration::from_millis(300))),
            sever_every: None,
            short_write_every: None,
        },
    );
    let mut client = HardenedClient::new(
        addr.to_string(),
        RetryPolicy {
            request_timeout: Duration::from_millis(50),
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            jitter_seed: 7,
            ..RetryPolicy::default()
        },
    );
    match client.request(RequestKind::Cell(cell(0))) {
        Err(ClientError::RetriesExhausted { attempts, last }) => {
            assert_eq!(attempts, 3, "budget is initial try + max_retries");
            assert!(!last.is_empty());
        }
        other => panic!("expected retries to exhaust, got {other:?}"),
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn hardened_client_reconnects_across_severed_connections() {
    // Sever every second response: no single connection survives long,
    // but the hardened client must still land every request.
    let (handle, addr) = faulty_server(
        2,
        8,
        ServerFaults {
            delay_every: None,
            sever_every: Some(2),
            short_write_every: None,
        },
    );
    let mut client = HardenedClient::new(
        addr.to_string(),
        RetryPolicy {
            max_retries: 20,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            ..RetryPolicy::default()
        },
    );
    for round in 0..4 {
        let kinds = soak_batch(round);
        let responses = client.batch(kinds.clone()).expect("batch despite severs");
        assert_eq!(responses.len(), kinds.len());
        for (kind, response) in kinds.iter().zip(&responses) {
            assert_matches_direct(kind, response);
        }
    }
    handle.shutdown();
    handle.join();
}
