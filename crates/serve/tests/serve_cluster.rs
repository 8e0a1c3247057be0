//! Cluster soaks: a router over a supervised fleet of real
//! `ktudc-serve` worker processes, SIGKILLed mid-sweep; a partitioned
//! shard failed over by the cluster client; a saturated fleet shedding
//! with typed errors only; and the supervisor's give-up budget spent
//! end-to-end on a child that can never boot.
//!
//! The invariant everywhere is **zero wrong answers**: whatever dies or
//! sheds, every payload a client actually receives is byte-identical to
//! the direct library computation, or a *typed* shed — never silently
//! wrong, never invented.

#![cfg(unix)]

use ktudc_core::harness::{run_cell, CellSpec, FdChoice, ProtocolChoice};
use ktudc_serve::{
    launch_fleet, serve, serve_router, supervise, Client, ClientError, ClusterClient, Endpoints,
    ErrorCode, Membership, RequestKind, ResponseKind, RetryPolicy, RouterConfig, ServeConfig,
    SupervisorPolicy,
};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("ktudc-cluster-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create temp dir");
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn quick_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        ..RetryPolicy::default()
    }
}

/// A cheap, distinct harness cell; identical inputs are byte-identical
/// across processes, which is what every assertion below leans on.
fn cheap_cell(i: u64) -> CellSpec {
    CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
        .trials(1)
        .horizon(40 + i)
}

#[test]
fn worker_kill_soak_reroutes_and_generations_strictly_increase() {
    const SHARDS: usize = 3;
    const CYCLES: usize = 12;
    let tmp = TempDir::new("kill");
    let base = tmp.0.clone();
    // Restarts must stay rapid under repeated kills without spending the
    // give-up budget: short stability window, generous crash allowance.
    let fleet = launch_fleet(
        SHARDS,
        SupervisorPolicy {
            stable_after: Duration::from_millis(200),
            max_rapid_crashes: 100,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(200),
        },
        move |shard| {
            let dir = ktudc_store::shard_data_dir(&base, shard);
            std::fs::create_dir_all(&dir)?;
            Command::new(env!("CARGO_BIN_EXE_ktudc-serve"))
                .args([
                    "--addr",
                    "127.0.0.1:0",
                    "--workers",
                    "2",
                    "--snapshot-every",
                    "1",
                ])
                .arg("--data-dir")
                .arg(dir)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
        },
    );
    assert!(
        fleet.wait_ready(Duration::from_secs(30)),
        "fleet did not announce all shards"
    );
    let router = serve_router(
        &RouterConfig {
            policy: quick_policy(),
            workers: 4,
            ..RouterConfig::default()
        },
        fleet.membership(),
    )
    .expect("router");
    let mut client = Client::connect(router.addr()).expect("connect to router");

    // The sweep and its ground truth, computed directly once.
    let sweep: Vec<CellSpec> = (0..6).map(cheap_cell).collect();
    let direct: Vec<ResponseKind> = sweep
        .iter()
        .map(|spec| ResponseKind::Cell(run_cell(spec)))
        .collect();

    let shard_gen = |client: &mut Client, shard: usize| -> (bool, u64) {
        let report = client.cluster_health().expect("cluster health");
        let row = &report.shards[shard];
        (row.reachable, row.generation)
    };

    let mut last_gen = [0u64; SHARDS];
    for cycle in 0..CYCLES {
        let victim = cycle % SHARDS;
        let (_, pre_gen) = shard_gen(&mut client, victim);
        assert!(
            pre_gen >= last_gen[victim],
            "cycle {cycle}: shard {victim} generation went backwards \
             ({pre_gen} after {})",
            last_gen[victim]
        );
        let pid = fleet.pid(victim).expect("victim announced a pid");

        // SIGKILL the victim a moment into the sweep, so some cycles
        // catch it mid-forward and the router must reroute live.
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(3));
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        });
        let responses = client
            .batch(sweep.iter().map(|s| RequestKind::Cell(s.clone())).collect())
            .expect("routed sweep must survive a worker kill");
        killer.join().expect("killer thread");
        assert_eq!(responses.len(), sweep.len());
        for (i, response) in responses.iter().enumerate() {
            assert_eq!(
                response.result, direct[i],
                "cycle {cycle}: routed payload {i} diverged from direct computation"
            );
            assert!(response.shard.is_some(), "router must stamp the shard");
        }

        // Recovery: the victim comes back with a strictly higher
        // generation (durable restart), within the supervisor's backoff.
        let deadline = Instant::now() + Duration::from_secs(20);
        let new_gen = loop {
            let (reachable, gen) = shard_gen(&mut client, victim);
            if reachable && gen > pre_gen {
                break gen;
            }
            assert!(
                Instant::now() < deadline,
                "cycle {cycle}: shard {victim} did not recover past \
                 generation {pre_gen}"
            );
            std::thread::sleep(Duration::from_millis(50));
        };
        last_gen[victim] = new_gen;
    }

    // The router itself never crashed and saw the churn it masked.
    assert!(client.health().is_ok(), "router must still answer");
    assert!(
        router.restarts_observed() > 0,
        "router must have observed worker restarts via generations"
    );
    router.shutdown();
    drop(router);
    for (shard, report) in fleet.stop_and_join().into_iter().enumerate() {
        let report = report.expect("supervision io");
        assert!(
            !report.gave_up,
            "shard {shard} supervisor spent its give-up budget during the soak"
        );
    }
}

#[test]
fn partitioned_shard_fails_over_with_zero_wrong_answers() {
    let live: Vec<_> = (0..2)
        .map(|_| {
            serve(&ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            })
            .expect("serve")
        })
        .collect();
    // Shard 1 is partitioned away: a port nothing listens on.
    let membership = Arc::new(Membership::new(vec![
        live[0].addr().to_string(),
        "127.0.0.1:1".to_string(),
        live[1].addr().to_string(),
    ]));
    let client = ClusterClient::new(Arc::clone(&membership), quick_policy());

    let cells: Vec<CellSpec> = (0..16).map(cheap_cell).collect();
    let mut owned_by_dead = 0usize;
    for spec in &cells {
        if client.route(&RequestKind::Cell(spec.clone())) == 1 {
            owned_by_dead += 1;
        }
    }
    assert!(
        owned_by_dead > 0,
        "some keys must belong to the partitioned shard"
    );

    // Two passes: cold, then warm (the failover targets cached the
    // rerouted keys, so the second pass exercises the same routing).
    for pass in 0..2 {
        let responses = client
            .batch(cells.iter().map(|s| RequestKind::Cell(s.clone())).collect())
            .expect("cluster batch");
        for (i, response) in responses.iter().enumerate() {
            assert_eq!(
                response.result,
                ResponseKind::Cell(run_cell(&cells[i])),
                "pass {pass}: payload {i} diverged — a failover changed an answer"
            );
            assert_ne!(
                response.shard,
                Some(1),
                "pass {pass}: the partitioned shard cannot have answered"
            );
        }
    }
    let metrics = client.metrics();
    assert!(
        metrics.failovers as usize >= owned_by_dead,
        "every dead-owned key must have failed over (got {} failovers for \
         {owned_by_dead} dead-owned keys)",
        metrics.failovers
    );
    let report = client.cluster_health();
    assert_eq!(report.reachable_shards, 2);
    assert!(!report.shards[1].reachable);
    for handle in live {
        handle.shutdown();
    }
}

#[test]
fn saturated_cluster_sheds_typed_and_admitted_work_stays_correct() {
    // Tiny workers with AIMD admission armed: one thread, a two-slot
    // queue, and a 5 ms p99 target the workload deliberately exceeds.
    let servers: Vec<_> = (0..3)
        .map(|_| {
            serve(&ServeConfig {
                workers: 1,
                queue_capacity: 2,
                target_p99_ms: 5,
                ..ServeConfig::default()
            })
            .expect("serve")
        })
        .collect();
    let membership = Arc::new(Membership::new(
        servers.iter().map(|s| s.addr().to_string()).collect(),
    ));
    // Breaker opted out: this test *wants* to keep hammering through
    // persistent sheds to observe them typed, not fail fast.
    let client = Arc::new(ClusterClient::new(
        membership,
        RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            circuit_threshold: 0,
            ..RetryPolicy::default()
        },
    ));

    let specs: Vec<CellSpec> = (0..48)
        .map(|i| {
            CellSpec::new(4, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                .trials(2)
                .horizon(300 + i)
        })
        .collect();
    let mut correct = 0usize;
    let mut shed = 0usize;
    let mut exhausted = 0usize;
    let mut admitted_latencies: Vec<Duration> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .chunks(12)
            .map(|chunk| {
                let client = Arc::clone(&client);
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    for spec in chunk {
                        let started = Instant::now();
                        let result = client.request(RequestKind::Cell(spec.clone()));
                        outcomes.push((spec.clone(), result, started.elapsed()));
                    }
                    outcomes
                })
            })
            .collect();
        for handle in handles {
            for (spec, result, elapsed) in handle.join().expect("load thread") {
                match result {
                    Ok(response) => match &response.result {
                        ResponseKind::Cell(outcome) => {
                            assert_eq!(
                                *outcome,
                                run_cell(&spec),
                                "admitted answer diverged under saturation"
                            );
                            correct += 1;
                            admitted_latencies.push(elapsed);
                        }
                        ResponseKind::Error(e)
                            if matches!(
                                e.code,
                                ErrorCode::Overloaded | ErrorCode::DeadlineExceeded
                            ) =>
                        {
                            shed += 1;
                        }
                        other => panic!("untyped result under saturation: {other:?}"),
                    },
                    // The retry budget running out against a persistently
                    // shedding fleet is a typed client-side outcome, not
                    // a wrong answer.
                    Err(ClientError::RetriesExhausted { .. }) => exhausted += 1,
                    Err(e) => panic!("non-retry failure under saturation: {e}"),
                }
            }
        }
    });
    assert_eq!(correct + shed + exhausted, specs.len());
    assert!(correct > 0, "saturation must not starve everything");
    // Admission control keeps the *admitted* tail bounded: what got in,
    // finished; the excess was shed instead of queued indefinitely.
    admitted_latencies.sort_unstable();
    let p99 = admitted_latencies[(admitted_latencies.len() * 99)
        .div_euclid(100)
        .min(admitted_latencies.len() - 1)];
    assert!(
        p99 < Duration::from_secs(10),
        "admitted p99 {p99:?} is unbounded under saturation"
    );
    for handle in servers {
        handle.shutdown();
    }
}

#[test]
fn supervisor_gives_up_loudly_on_a_worker_that_can_never_boot() {
    use std::sync::atomic::AtomicBool;

    // A real worker binary with a flag it rejects: exits 2 immediately,
    // forever. The supervisor must spend its budget and give up with
    // the exit status propagated — not spin silently.
    let stop = AtomicBool::new(false);
    let report = supervise(
        || {
            Command::new(env!("CARGO_BIN_EXE_ktudc-serve"))
                .arg("--definitely-not-a-flag")
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
        },
        SupervisorPolicy {
            stable_after: Duration::from_secs(60),
            max_rapid_crashes: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        },
        &stop,
    )
    .expect("supervision io");
    assert!(report.gave_up, "a crash loop must spend the give-up budget");
    assert_eq!(
        report.restarts, 2,
        "restarted exactly max_rapid_crashes times"
    );
    assert_eq!(
        report.last_status.expect("a child exited").code(),
        Some(2),
        "the usage-error exit status must be propagated"
    );
}
