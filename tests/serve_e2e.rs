//! End-to-end exercise of the `ktudc-serve` daemon: an in-process server
//! on an ephemeral port, hit by concurrent clients with a mixed workload,
//! with every response checked against the direct library call it is
//! supposed to equal. Backpressure and graceful shutdown are driven to
//! their specified behavior, not just smoke-tested.

use ktudc::core::harness::{run_cell, CellSpec, FdChoice, ProtocolChoice};
use ktudc::epistemic::{Formula, ModelChecker};
use ktudc::model::ProcessId;
use ktudc::sim::{explore_spec, run_explore_spec, ExploreSpec, WireProtocol};
use ktudc_serve::{
    serve, CheckSpec, Client, Endpoints, ErrorCode, RequestKind, Response, ResponseKind,
    ServeConfig,
};
use std::net::SocketAddr;
use std::time::Duration;

fn server(workers: usize, queue: usize, cache: usize) -> (ktudc_serve::ServerHandle, SocketAddr) {
    let handle = serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: queue,
        cache_capacity: cache,
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
    spec.protocol = if i.is_multiple_of(2) {
        WireProtocol::Idle
    } else {
        WireProtocol::OneShot {
            from: 0,
            to: 1,
            msg: (i % 250) as u8,
        }
    };
    spec
}

fn check(i: usize) -> CheckSpec {
    let p0 = ProcessId::new(0);
    CheckSpec {
        scenario: scenario(i),
        // Alternate a tautology with a falsifiable formula so both check
        // verdict shapes travel the wire.
        formula: if i.is_multiple_of(2) {
            Formula::or(vec![
                Formula::crashed(p0),
                Formula::not(Formula::crashed(p0)),
            ])
        } else {
            Formula::crashed(p0)
        },
    }
}

/// The mixed workload one client thread submits, distinct per thread.
fn mixed_batch(thread: usize) -> Vec<RequestKind> {
    vec![
        RequestKind::Cell(cell(thread)),
        RequestKind::Check(check(thread)),
        RequestKind::Explore(scenario(thread)),
        RequestKind::Cell(cell(thread + 100)),
    ]
}

/// Asserts a served response equals what the library computes directly.
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
            let explored = explore_spec(&spec.scenario).expect("valid scenario");
            let mut checker = ModelChecker::new(&explored.system);
            match checker.valid(&spec.formula) {
                Ok(()) => {
                    assert!(outcome.valid, "check mismatch for {spec:?}");
                    assert_eq!(outcome.counterexample, None);
                }
                Err(point) => {
                    assert!(!outcome.valid, "check mismatch for {spec:?}");
                    assert_eq!(outcome.counterexample, Some(point));
                }
            }
            assert_eq!(outcome.runs, explored.system.len());
            assert!(outcome.complete);
        }
        (kind, other) => panic!("response kind mismatch: {kind:?} answered by {other:?}"),
    }
}

#[test]
fn mixed_concurrent_workload_matches_direct_calls_and_caches() {
    let (handle, addr) = server(4, 64, 256);

    // Eight client threads, each with its own connection and a pipelined
    // mixed batch of cell + check + explore requests.
    let clients: Vec<_> = (0..8)
        .map(|thread| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let kinds = mixed_batch(thread);
                let responses = client.batch(kinds.clone()).expect("batch");
                (kinds, responses)
            })
        })
        .collect();
    for join in clients {
        let (kinds, responses) = join.join().expect("client thread");
        assert_eq!(responses.len(), kinds.len());
        for (kind, response) in kinds.iter().zip(&responses) {
            assert_matches_direct(kind, response);
        }
    }

    // The identical sweep again, from a fresh connection: every response
    // must now come from the scenario cache, byte-identical.
    let mut client = Client::connect(addr).expect("connect");
    for thread in 0..8 {
        let kinds = mixed_batch(thread);
        let responses = client.batch(kinds.clone()).expect("warm batch");
        for (kind, response) in kinds.iter().zip(&responses) {
            assert!(response.cached, "warm response not cached for {kind:?}");
            assert_matches_direct(kind, response);
        }
    }

    let stats = client.stats().expect("stats");
    let hits: u64 = stats.endpoints.iter().map(|e| e.cache_hits).sum();
    assert!(hits > 0, "second sweep reported no cache hits: {stats:?}");
    assert!(stats.cache_hit_rate > 0.0);
    assert!(stats.cache_entries > 0);
    assert_eq!(stats.overloaded, 0);

    client.shutdown_server().expect("shutdown ack");
    handle.join();
}

#[test]
fn oversized_burst_is_shed_with_typed_overloaded_errors() {
    // One worker, one queue slot: a pipelined burst must mostly shed.
    let (handle, addr) = server(1, 1, 256);
    let mut client = Client::connect(addr).expect("connect");
    let kinds: Vec<RequestKind> = (0..16)
        .map(|i| {
            RequestKind::Cell(
                CellSpec::new(4, 1, Some(0.2), FdChoice::None, ProtocolChoice::Reliable)
                    .trials(6)
                    .horizon(600 + i as u64),
            )
        })
        .collect();
    let responses = client.batch(kinds).expect("burst batch");

    let served = responses
        .iter()
        .filter(|r| matches!(r.result, ResponseKind::Cell(_)))
        .count();
    let shed = responses
        .iter()
        .filter(|r| matches!(&r.result, ResponseKind::Error(e) if e.code == ErrorCode::Overloaded))
        .count();
    assert_eq!(
        served + shed,
        responses.len(),
        "unexpected payloads: {responses:?}"
    );
    assert!(served >= 1, "nothing was served");
    assert!(shed >= 1, "nothing was shed: {responses:?}");

    // The server survived the burst: stats still answers and accounts
    // for every shed request.
    let stats = client.stats().expect("stats after burst");
    assert_eq!(stats.overloaded as usize, shed);

    client.shutdown_server().expect("shutdown ack");
    handle.join();
}

#[test]
fn shutdown_drains_accepted_work_before_exiting() {
    let (handle, addr) = server(2, 16, 16);
    // A batch slow enough to still be in flight when shutdown arrives.
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let kinds: Vec<RequestKind> = (0..4)
            .map(|i| {
                RequestKind::Cell(
                    CellSpec::new(4, 2, Some(0.25), FdChoice::Strong, ProtocolChoice::StrongFd)
                        .trials(8)
                        .horizon(700 + i as u64),
                )
            })
            .collect();
        client.batch(kinds).expect("draining batch")
    });
    // Let the batch reach the pool, then ask for shutdown from a second
    // connection while the work is queued/in flight.
    std::thread::sleep(Duration::from_millis(150));
    let mut controller = Client::connect(addr).expect("connect controller");
    controller.shutdown_server().expect("shutdown ack");
    handle.join(); // returns only after the drain

    // Every accepted request was answered with a real result, not an
    // error — the drain finished the work.
    let responses = worker.join().expect("batch thread");
    assert_eq!(responses.len(), 4);
    for response in &responses {
        assert!(
            matches!(response.result, ResponseKind::Cell(_)),
            "drained request answered with {:?}",
            response.result
        );
    }
}

#[test]
fn malformed_and_mismatched_requests_get_typed_errors() {
    use std::io::{BufRead, BufReader, Write};

    let (handle, addr) = server(1, 4, 4);
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Not JSON at all: BadRequest with id 0.
    stream.write_all(b"this is not json\n").expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let response: Response = serde_json::from_str(line.trim_end()).expect("parse");
    assert_eq!(response.id, 0);
    assert!(
        matches!(&response.result, ResponseKind::Error(e) if e.code == ErrorCode::BadRequest),
        "{response:?}"
    );

    // Wrong schema version: UnsupportedVersion, id echoed.
    stream
        .write_all(b"{\"schema_version\":999,\"id\":42,\"kind\":\"Stats\"}\n")
        .expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let response: Response = serde_json::from_str(line.trim_end()).expect("parse");
    assert_eq!(response.id, 42);
    assert!(
        matches!(&response.result, ResponseKind::Error(e) if e.code == ErrorCode::UnsupportedVersion),
        "{response:?}"
    );

    // An invalid scenario: BadRequest from the worker, not a hang.
    let mut client = Client::connect(addr).expect("connect");
    let response = client
        .request(RequestKind::Explore(ExploreSpec::new(0, 2)))
        .expect("request");
    assert!(
        matches!(&response.result, ResponseKind::Error(e) if e.code == ErrorCode::BadRequest),
        "{response:?}"
    );

    client.shutdown_server().expect("shutdown ack");
    handle.join();
}
