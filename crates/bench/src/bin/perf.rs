//! Fixed performance workloads for the bitset/parallel machinery, emitting
//! `BENCH_ktudc.json` in the working directory.
//!
//! Five workloads run, each pinned so results are comparable across
//! commits:
//!
//! 1. **checker** — an exhaustively explored n = 3 system (horizon 24,
//!    capped at 4000 runs) checked against a knowledge-heavy formula set
//!    of ~150 distinct knowledge/temporal shapes, once with the scalar
//!    [`ReferenceChecker`] and once with the bitset-backed
//!    [`ModelChecker`]. Verdicts are asserted identical point-for-point;
//!    the JSON records both wall times, the speedup, throughput in
//!    points/sec, and the fast checker's peak table footprint.
//! 2. **explorer** — exhaustive run enumeration with the copy-light
//!    parallel [`explore`] vs. the clone-per-branch
//!    [`explore_reference`], asserted to produce the same run set.
//! 3. **cell** — one positive Table 1 cell through the (parallel) harness,
//!    timed end to end.
//! 4. **chaos** — the standard fault-injection campaign
//!    ([`ktudc_core::chaos`]) at fixed seeds, asserted clean (zero false
//!    alarms) and lethal (every out-of-model mutant detected), with
//!    campaign throughput in plans/sec and the R3 structural-detection
//!    latency in ticks recorded under the `chaos` key.
//! 5. **recovery** — the durability tax and recovery speed: a pinned
//!    exploration run plain vs. checkpoint-journaled (fsync per entry),
//!    resumed from a torn journal (all three digest-identical), plus a
//!    durable `ktudc-serve` reboot over a populated cache snapshot,
//!    timed bind-to-ready. Recorded under the `recovery` key.
//!
//! `--smoke` shrinks every workload to a few seconds total for CI; the
//! schema of the emitted JSON is unchanged (`"mode"` records which ran).
//!
//! `--via-serve` additionally routes a batch of cell requests through an
//! in-process `ktudc-serve` daemon (ephemeral port, pipelined client) and
//! records the service-path throughput — cold (computed) and warm
//! (scenario-cache) — under the `via_serve` key. The key is `null` when
//! the flag is absent, keeping the `ktudc-bench-perf/1` schema additive.
//!
//! `--overload` runs the degradation soak: a one-worker daemon with
//! adaptive admission is saturated from several connections with a mix
//! of plain, deadline-carrying, and partial-accepting requests. Recorded
//! under the `overload` key (additively, like `via_serve`): shed counts
//! by type, the admitted-vs-uncontended p99 ratio, whether every shed
//! was typed, whether the watchdog saw a stuck worker, and whether a
//! budget-aborted checkpointed exploration resumed to the digest of the
//! uninterrupted run.
//!
//! `--cluster` runs the sharding workload: the same cold batch through
//! one single-worker daemon and through a 3-shard cluster of them
//! (consistent-hashed by the cluster client), recording the throughput
//! ratio, then downs a shard and prices failover on warm requests.
//! Every cluster answer is asserted byte-identical to the single
//! daemon's, so `zero_wrong_answers` is an invariant, not a metric.
//! Recorded under the `cluster` key (additively, like `via_serve`).
//!
//! `--fd-zoo` sweeps every empirical failure detector (heartbeat,
//! φ-accrual, gossip) across every fault regime through
//! [`ktudc_fd::classify_detector`] and records the full classification
//! matrix under the `fd_zoo` key (additively, like `via_serve`): one row
//! per (detector, regime) with the earned class, false-suspicion count,
//! and crash-detection latency, plus two grep-stable invariants asserted
//! inline — `clean_zero_false_suspicions` (no detector falsely suspects
//! anyone on clean reliable channels) and
//! `detection_latency_within_bound` (every in-model regime detects the
//! crash within the bound).
//!
//! `--fd-live` classifies the **live** detector plane (`serve::detector`)
//! per wire regime: a 3-shard cluster with one shard black-holed from
//! frame zero (the "crash") and the live links carrying the regime's
//! toxic, the φ-accrual plane's suspicion states sampled into the same
//! completeness/accuracy booleans the simulated zoo uses and condensed
//! through `ktudc_fd::condense_class`. Recorded under the `fd_live` key
//! (additively, like `via_serve`) with per-regime achieved class,
//! suspects raised/cleared, hedge win rate, and the proactive-failover
//! count, plus the grep-stable audited invariants `zero_wrong_answers`,
//! `exactly_once`, and `hedges_never_double_compute`.
//!
//! `--chaos-net` runs the wire-plane chaos soak: a fresh daemon behind a
//! seeded `chaos_proxy` per toxic regime (latency spikes, throttled
//! writes, torn frames, corrupted bytes, resets, half-open stalls, a
//! bounded one-way partition), a fixed scenario batch stormed through a
//! `HardenedClient`, and an `Auditor` asserting the uniform invariants.
//! Recorded under the `chaos_net` key (additively, like `via_serve`)
//! with the grep-stable booleans `zero_wrong_answers`,
//! `no_unTyped_failures`, and `exactly_once`.

use ktudc_core::harness::{run_cell, CellSpec, FdChoice, ProtocolChoice};
use ktudc_epistemic::{Formula, ModelChecker, ReferenceChecker};
use ktudc_model::{ActionId, Event, ProcessId, System, Time};
use ktudc_sim::{
    canonical_run_digests, explore, explore_reference, explore_with_stats, ExploreConfig,
    ProtoAction, Protocol,
};
use serde::Serialize;
use std::collections::BTreeSet;
use std::time::Instant;

#[derive(Serialize)]
struct CheckerReport {
    n: usize,
    horizon: Time,
    runs: usize,
    points: usize,
    formulas: usize,
    reference_secs: f64,
    fast_secs: f64,
    speedup: f64,
    points_per_sec_reference: f64,
    points_per_sec_fast: f64,
    peak_table_bytes: usize,
    verdicts_equal: bool,
}

#[derive(Serialize)]
struct ExplorerReport {
    n: usize,
    horizon: Time,
    runs_explored: usize,
    complete: bool,
    reference_secs: f64,
    fast_secs: f64,
    speedup: f64,
    runs_equal: bool,
    reduced: ReducedExplorerReport,
}

/// The same workload with state-space reduction on: clients declared
/// symmetric, sleep sets pruning commuting deliveries. The headline
/// explorer speedup — this is the path n = 4–5 cells actually use.
#[derive(Serialize)]
struct ReducedExplorerReport {
    runs: usize,
    complete: bool,
    secs: f64,
    /// Reduced wall time vs the clone-per-branch reference.
    speedup_vs_reference: f64,
    states_canonicalized: u64,
    sleep_set_pruned: u64,
    steals: u64,
    workers: usize,
    /// The reference's canonical (untimed, relabeling-minimized) run
    /// digest set equals the reduced one's: every reference behavior is
    /// covered by a kept representative, and nothing new appeared.
    cover_ok: bool,
    /// A symmetric formula battery gets identical verdicts from the
    /// model checker on the reduced and the reference system.
    reduced_verdicts_equal: bool,
    /// Full mode: `speedup_vs_reference >= 4`. Smoke mode: trivially
    /// true (sub-10ms timings are noise; the bound is asserted on the
    /// full run that produces the committed BENCH_ktudc.json).
    speedup_ok: bool,
}

#[derive(Serialize)]
struct CellReport {
    spec: String,
    trials: u64,
    achieved: bool,
    secs: f64,
    trials_per_sec: f64,
}

#[derive(Serialize)]
struct ViaServeReport {
    requests: usize,
    workers: usize,
    cold_secs: f64,
    warm_secs: f64,
    cold_requests_per_sec: f64,
    warm_requests_per_sec: f64,
    cache_hits: u64,
    results_identical: bool,
}

#[derive(Serialize)]
struct ClusterReport {
    shards: usize,
    requests: usize,
    /// Cold throughput of one single-worker daemon over the workload.
    requests_per_sec_single: f64,
    /// Cold throughput of the same workload consistent-hashed across
    /// the shards (each a single-worker daemon) by the cluster client.
    requests_per_sec_cluster: f64,
    /// Cluster over single — sharding's parallelism win on cold compute.
    speedup_vs_single: f64,
    /// Mean per-request latency added by failover: warm requests owned
    /// by a downed shard (answered by a replica's cache) vs the same
    /// requests warm with every shard up. The price of losing a shard,
    /// separated from compute.
    failover_added_latency_ms: f64,
    /// Requests the cluster client rerouted to a replica.
    failovers: u64,
    /// Every cluster answer — including every failover answer — was
    /// byte-identical to the single-daemon answer for the same request.
    zero_wrong_answers: bool,
}

#[derive(Serialize)]
struct ChaosReportSummary {
    cells: usize,
    plans: usize,
    seeds: Vec<u64>,
    rows: usize,
    clean: usize,
    false_alarms: usize,
    detected: usize,
    survived: usize,
    all_mutants_killed: bool,
    secs: f64,
    plans_per_sec: f64,
    /// Mean tick of the first structural (R3) detection, over the rows
    /// that produced one — how long a corrupt receive goes unnoticed.
    detection_latency_ticks_mean: f64,
    detection_latency_ticks_max: u64,
    digest: String,
}

#[derive(Serialize)]
struct RecoveryBench {
    n: usize,
    horizon: Time,
    runs: usize,
    /// Wall time of the plain (journal-free) exploration.
    plain_secs: f64,
    /// Wall time of the same exploration with a fresh checkpoint
    /// journal (fsync on every entry).
    checkpointed_secs: f64,
    /// What journaling costs, as a percentage of the plain time.
    checkpoint_overhead_percent: f64,
    /// Group-commit keeps the journaling tax within bounds: overhead is
    /// at most 200% of plain, or (on workloads too small to measure a
    /// ratio against) the absolute tax is under a quarter second.
    overhead_within_bound: bool,
    /// Journal entries replayed when resuming the torn journal.
    replayed_entries: u64,
    replay_secs: f64,
    replay_entries_per_sec: f64,
    /// Whether plain, checkpointed, and torn-then-resumed explorations
    /// all produced the same run-set digest.
    digest_identical: bool,
    /// A durable `ktudc-serve` reboot: bind → cache recovered → boot
    /// snapshot persisted → accepting.
    restart_to_ready_ms: f64,
    recovered_cache_entries: usize,
}

#[derive(Serialize)]
struct OverloadReport {
    /// Total requests submitted during the storm.
    requests: usize,
    workers: usize,
    queue_capacity: usize,
    /// Requests that produced a successful (or typed-partial) payload.
    admitted: usize,
    /// Admitted requests that resolved as a typed `Aborted` partial.
    aborted_partial: usize,
    shed_overloaded: u64,
    shed_deadline: u64,
    shed_rate: f64,
    uncontended_p99_ms: f64,
    admitted_p99_ms: f64,
    /// Admitted p99 over uncontended p99 — the overload tax on the work
    /// the server chose to accept.
    admitted_over_uncontended: f64,
    /// Every non-success resolution was a typed shed or typed abort.
    all_sheds_typed: bool,
    /// The watchdog never latched a stuck worker during the storm.
    zero_stuck_workers: bool,
    /// A step-budget-aborted checkpointed exploration, resumed with a
    /// fresh budget, reproduced the uninterrupted run's digest.
    digest_identical_after_resume: bool,
}

#[derive(Serialize)]
struct FdZooRow {
    detector: String,
    regime: String,
    /// Whether the regime stays inside the paper's model (R1–R5).
    in_model: bool,
    /// The empirical class this detector earned in this regime.
    class: String,
    false_suspicions: u64,
    /// `None` when some crash arm never detected the crash.
    detection_latency_mean: Option<f64>,
    detection_latency_max: Option<u64>,
    latency_samples: u64,
}

#[derive(Serialize)]
struct FdZooReport {
    detectors: usize,
    regimes: usize,
    n: usize,
    trials: u64,
    horizon: Time,
    rows: Vec<FdZooRow>,
    secs: f64,
    cells_per_sec: f64,
    /// On clean reliable channels, every detector reported zero false
    /// suspicions across every trial.
    clean_zero_false_suspicions: bool,
    /// The latency bound the in-model invariant is checked against.
    detection_latency_bound_ticks: u64,
    /// In every in-model regime, every detector detected the crash in
    /// every crash arm, with worst-case latency within the bound.
    detection_latency_within_bound: bool,
}

#[derive(Serialize)]
struct ChaosNetRegimeRow {
    regime: String,
    requests: u64,
    /// Requests that resolved to a payload (however many resends it took).
    payloads: u64,
    /// Typed wire + typed client errors — the only failures allowed.
    typed_errors: u64,
    /// Faults the proxy actually injected in this regime.
    injections: u64,
    /// p99 storm latency through the proxy, retries included.
    p99_ms: f64,
}

/// The wire-plane chaos soak: every toxic regime through a seeded
/// [`chaos_proxy`](ktudc_serve::chaos_proxy), audited end to end by
/// [`ktudc_serve::Auditor`]. The booleans are the uniform invariants —
/// grep-stable, asserted inline, a violation is a bench failure.
#[derive(Serialize)]
#[allow(non_snake_case)]
struct ChaosNetReport {
    seed: u64,
    regimes: Vec<ChaosNetRegimeRow>,
    scenarios_per_regime: usize,
    requests: u64,
    wrong_answers: u64,
    untyped_failures: u64,
    generation_regressions: u64,
    stuck_connections: u64,
    /// After every storm, the scenario cache held exactly one outcome per
    /// distinct scenario and a clean second pass was all cache hits.
    exactly_once: bool,
    /// Every payload, in every regime, was byte-identical to the direct
    /// library computation.
    zero_wrong_answers: bool,
    /// Every failure in every regime was a typed wire or client error.
    no_unTyped_failures: bool,
    secs: f64,
}

#[derive(Serialize)]
struct FdLiveRegimeRow {
    regime: String,
    /// The empirical class the live plane earned in this wire regime,
    /// condensed through the same hierarchy the simulated zoo uses.
    class: String,
    /// The black-holed shard was suspected by the end of the watch.
    strong_completeness: bool,
    /// Live shards that were (transiently) suspected during the watch.
    false_suspicions: u64,
    suspects_raised: u64,
    suspects_cleared: u64,
    /// Requests routed away from the suspected primary at routing time —
    /// failovers that engaged before any request had to burn a timeout.
    proactive_failovers: u64,
    hedges_fired: u64,
    hedges_won: u64,
    hedge_win_rate: f64,
    requests: u64,
    payloads: u64,
    probes_sent: u64,
}

/// The live failure-detector plane (`serve::detector`) classified per
/// wire regime against the paper's hierarchy, plus the audited payoff
/// of acting on suspicion. The booleans are grep-stable invariants —
/// asserted inline, a violation is a bench failure.
#[derive(Serialize)]
struct FdLiveReport {
    seed: u64,
    shards: usize,
    scenarios_per_regime: usize,
    probe_period_ms: u64,
    suspect_threshold: f64,
    hedge_threshold: f64,
    regimes: Vec<FdLiveRegimeRow>,
    /// Every regime detected the black-holed shard (strong completeness
    /// held live, so no regime fell to `unclassified`).
    all_regimes_classified: bool,
    /// Every payload in every regime was byte-identical to the direct
    /// library computation.
    zero_wrong_answers: bool,
    /// After every campaign the fleet's caches held exactly one outcome
    /// per distinct scenario — failover and hedging added zero
    /// duplicate computations.
    exactly_once: bool,
    /// With hedges fired, compute still matched distinct scenarios
    /// one-for-one (the hedge bought a race, never a second compute).
    hedges_never_double_compute: bool,
    secs: f64,
}

#[derive(Serialize)]
struct Report {
    schema: String,
    mode: String,
    threads: usize,
    checker: CheckerReport,
    explorer: ExplorerReport,
    cell: CellReport,
    chaos: ChaosReportSummary,
    recovery: RecoveryBench,
    via_serve: Option<ViaServeReport>,
    overload: Option<OverloadReport>,
    fd_zoo: Option<FdZooReport>,
    fd_live: Option<FdLiveReport>,
    cluster: Option<ClusterReport>,
    chaos_net: Option<ChaosNetReport>,
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// The checker workload's system: an exhaustively explored n = 3 system.
/// Explored runs share long prefixes, so the per-process
/// indistinguishability classes are *large* — exactly the regime the
/// epistemic checker is built for (and where the scalar reference's
/// per-point `K_p` evaluation pays quadratically per class).
fn checker_system(horizon: Time, cap: usize) -> System<u8> {
    let alpha = ActionId::new(p(0), 0);
    let cfg = ExploreConfig::new(3, horizon)
        .max_failures(1)
        .initiate(1, alpha)
        .optional_initiations()
        .max_runs(cap);
    explore(&cfg, |_| OneShot {
        me: p(0),
        sent: false,
    })
    .system
}

/// Knowledge-heavy formula set over the explored system's vocabulary.
/// Every shape the checker optimizes is represented: plain prims, boolean
/// connectives, both temporal operators, and (nested) knowledge.
fn checker_formulas() -> Vec<Formula<u8>> {
    let alpha = ActionId::new(p(0), 0);
    let crashed2 = Formula::crashed(p(2));
    let sent = Formula::sent(p(0), p(1), 7);
    let received = Formula::received(p(1), p(0), 7);
    let mut out = vec![
        crashed2.clone(),
        Formula::not(crashed2.clone()),
        sent.clone(),
        Formula::initiated(alpha),
        Formula::eventually(crashed2.clone()),
        Formula::always(Formula::not(crashed2.clone())),
        Formula::knows(p(0), crashed2.clone()),
        Formula::knows(p(1), sent.clone()),
        Formula::knows(p(0), Formula::knows(p(1), crashed2.clone())),
        Formula::knows(p(0), Formula::eventually(crashed2.clone())),
        Formula::always(Formula::implies(
            received.clone(),
            Formula::eventually(Formula::knows(p(0), received.clone())),
        )),
        Formula::or(vec![
            Formula::knows(p(0), crashed2.clone()),
            Formula::knows(p(1), crashed2.clone()),
        ]),
        Formula::eventually(Formula::and(vec![
            Formula::knows(p(0), Formula::initiated(alpha)),
            Formula::not(Formula::knows(p(1), crashed2.clone())),
        ])),
    ];
    // Many small, pairwise-distinct knowledge formulas over the prim
    // vocabulary. Prim and temporal subtables are shared through the cache;
    // each formula's marginal cost is one or two fresh `K_p` passes over
    // every indistinguishability class — the checker's dominant operation
    // in real condition-checking (locality, stability, Theorem 3.4).
    let base = [crashed2, sent, received, Formula::initiated(alpha)];
    for proc in 0..3 {
        for (i, x) in base.iter().enumerate() {
            out.push(Formula::knows(p(proc), x.clone()));
            out.push(Formula::knows(p(proc), Formula::eventually(x.clone())));
            out.push(Formula::knows(
                p(proc),
                Formula::always(Formula::not(x.clone())),
            ));
            for (j, y) in base.iter().enumerate() {
                if i == j {
                    continue;
                }
                out.push(Formula::knows(
                    p(proc),
                    Formula::or(vec![x.clone(), y.clone()]),
                ));
                out.push(Formula::eventually(Formula::knows(
                    p(proc),
                    Formula::and(vec![x.clone(), Formula::not(y.clone())]),
                )));
            }
            for q in 0..3 {
                if q != proc {
                    out.push(Formula::knows(p(proc), Formula::knows(p(q), x.clone())));
                }
            }
        }
    }
    out
}

fn checker_workload(smoke: bool) -> CheckerReport {
    let (horizon, cap) = if smoke { (8, 300) } else { (24, 4_000) };
    let system = checker_system(horizon, cap);
    let formulas = checker_formulas();

    let t0 = Instant::now();
    let mut reference = ReferenceChecker::new(&system);
    let slow: Vec<bool> = formulas
        .iter()
        .map(|f| reference.valid(f).is_ok())
        .collect();
    let reference_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut fast = ModelChecker::new(&system);
    let quick: Vec<bool> = formulas.iter().map(|f| fast.valid(f).is_ok()).collect();
    let fast_secs = t0.elapsed().as_secs_f64();

    // Verdict equality down to individual points, checked outside the timed
    // region (the Vec<Point> materialization costs the same on both sides
    // and would only dilute the comparison).
    let verdicts_equal = slow == quick
        && formulas
            .iter()
            .all(|f| reference.satisfying_points(f) == fast.satisfying_points(f));
    assert!(verdicts_equal, "checker verdict mismatch vs reference");

    let work = (system.point_count() * formulas.len()) as f64;
    CheckerReport {
        n: 3,
        horizon,
        runs: system.len(),
        points: system.point_count(),
        formulas: formulas.len(),
        reference_secs,
        fast_secs,
        speedup: reference_secs / fast_secs,
        points_per_sec_reference: work / reference_secs,
        points_per_sec_fast: work / fast_secs,
        peak_table_bytes: fast.table_bytes(),
        verdicts_equal,
    }
}

/// The explorer workload's protocol: p0 sends one message to p1; the
/// explorer branches over crash timing, delivery timing, and initiations.
#[derive(Clone, Debug)]
struct OneShot {
    me: ProcessId,
    sent: bool,
}

impl Protocol<u8> for OneShot {
    fn start(&mut self, me: ProcessId, _n: usize) {
        self.me = me;
    }
    fn observe(&mut self, _t: Time, e: &Event<u8>) {
        if matches!(e, Event::Send { .. }) {
            self.sent = true;
        }
    }
    fn next_action(&mut self, _t: Time) -> Option<ProtoAction<u8>> {
        (self.me == ProcessId::new(0) && !self.sent).then_some(ProtoAction::Send {
            to: ProcessId::new(1),
            msg: 7,
        })
    }
    fn quiescent(&self) -> bool {
        self.sent
    }
}

/// The explorer workload's protocol: an echo server. Every client
/// (process 1..n) sends one message to process 0; process 0 acks each
/// message back to its source, in order of receipt. The clients are
/// interchangeable *and* nobody — the server included — ever names a
/// client by index (ack targets come from the `from` of the observed
/// `Recv`), so behavior is equivariant under relabeling the client
/// class: exactly the hypothesis the symmetry reduction needs. (A
/// fan-out that sends "to p1 first, then p2" would violate it.)
#[derive(Clone, Debug)]
struct Echo {
    me: ProcessId,
    inbox: Vec<ProcessId>,
    acked: usize,
    sent: bool,
}

impl Protocol<u8> for Echo {
    fn start(&mut self, me: ProcessId, _n: usize) {
        self.me = me;
    }
    fn observe(&mut self, _t: Time, e: &Event<u8>) {
        match e {
            Event::Recv { from, .. } if self.me.index() == 0 => self.inbox.push(*from),
            Event::Send { .. } => {
                if self.me.index() == 0 {
                    self.acked += 1;
                } else {
                    self.sent = true;
                }
            }
            _ => {}
        }
    }
    fn next_action(&mut self, _t: Time) -> Option<ProtoAction<u8>> {
        if self.me.index() == 0 {
            (self.acked < self.inbox.len()).then(|| ProtoAction::Send {
                to: self.inbox[self.acked],
                msg: 1,
            })
        } else {
            (!self.sent).then_some(ProtoAction::Send {
                to: ProcessId::new(0),
                msg: 9,
            })
        }
    }
    fn quiescent(&self) -> bool {
        if self.me.index() == 0 {
            self.acked == self.inbox.len()
        } else {
            self.sent
        }
    }
}

/// Formulas symmetric under relabeling of the client class `1..n` —
/// the shape for which the reduced explorer preserves verdicts. Mixed
/// expected verdicts on the echo workload (delivery is optional, so the
/// `eventually` shapes are invalid; the knowledge/safety shapes hold).
fn symmetric_battery(n: usize) -> Vec<Formula<u8>> {
    let everyone = |f: &dyn Fn(usize) -> Formula<u8>| Formula::and((1..n).map(f).collect());
    let someone = |f: &dyn Fn(usize) -> Formula<u8>| Formula::or((1..n).map(f).collect());
    vec![
        Formula::eventually(someone(&|i| Formula::received(p(0), p(i), 9))),
        everyone(&|i| {
            Formula::always(Formula::implies(
                Formula::received(p(0), p(i), 9),
                Formula::knows(p(0), Formula::sent(p(i), p(0), 9)),
            ))
        }),
        Formula::eventually(someone(&|i| Formula::knows(p(0), Formula::crashed(p(i))))),
        Formula::always(Formula::not(everyone(&|i| Formula::crashed(p(i))))),
    ]
}

fn explorer_workload(smoke: bool) -> ExplorerReport {
    // Full mode is the n = 4 exhaustive cell: ~511k runs, multi-second
    // for the reference, complete (the cap is raised above the space so
    // nothing truncates).
    let (n, horizon) = if smoke { (3, 5) } else { (4, 6) };
    let cfg = ExploreConfig::new(n, horizon)
        .max_failures(1)
        .max_runs(600_000);
    let make = move |_| Echo {
        me: p(0),
        inbox: Vec::new(),
        acked: 0,
        sent: false,
    };

    // Measure the copy-light explorer first: at ~511k retained runs the
    // resident system from whichever pass goes first inflates the other
    // pass's allocator work, and the reference is the one expected to
    // pay for cloning.
    let t0 = Instant::now();
    let fast = explore(&cfg, make);
    let fast_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let slow = explore_reference(&cfg, make);
    let reference_secs = t0.elapsed().as_secs_f64();

    let runs_equal = fast.system.runs() == slow.system.runs() && fast.complete == slow.complete;
    assert!(runs_equal, "explorer run-set mismatch vs reference");

    // The reduced pass: clients symmetric, sleep sets on.
    let reduced_cfg = cfg.symmetric((1..n).collect()).with_sleep_sets();
    let t0 = Instant::now();
    let (red, stats) = explore_with_stats(&reduced_cfg, make);
    let reduced_secs = t0.elapsed().as_secs_f64();
    assert!(
        red.complete == slow.complete,
        "reduced completeness diverged"
    );

    // Cover: the canonical untimed digest sets must be equal (sleep sets
    // shift delivery times, so the timed comparison does not apply).
    let orbit = |system: &System<u8>| -> BTreeSet<u64> {
        canonical_run_digests(&reduced_cfg, system, false)
            .into_iter()
            .collect()
    };
    let cover_ok = orbit(&slow.system) == orbit(&red.system);
    assert!(cover_ok, "reduced explorer lost or invented behaviors");

    let battery = symmetric_battery(n);
    let verdicts = |system: &System<u8>| -> Vec<bool> {
        let mut checker = ModelChecker::new(system);
        battery.iter().map(|f| checker.valid(f).is_ok()).collect()
    };
    let reduced_verdicts_equal = verdicts(&red.system) == verdicts(&slow.system);
    assert!(reduced_verdicts_equal, "reduced verdicts diverged");

    let speedup_vs_reference = reference_secs / reduced_secs;
    let speedup_ok = smoke || speedup_vs_reference >= 4.0;
    assert!(
        speedup_ok,
        "reduced speedup below 4x: {speedup_vs_reference:.2}"
    );

    ExplorerReport {
        n,
        horizon,
        runs_explored: fast.system.len(),
        complete: fast.complete,
        reference_secs,
        fast_secs,
        speedup: reference_secs / fast_secs,
        runs_equal,
        reduced: ReducedExplorerReport {
            runs: red.system.len(),
            complete: red.complete,
            secs: reduced_secs,
            speedup_vs_reference,
            states_canonicalized: stats.states_canonicalized,
            sleep_set_pruned: stats.sleep_set_pruned,
            steals: stats.steals,
            workers: stats.workers,
            cover_ok,
            reduced_verdicts_equal,
            speedup_ok,
        },
    }
}

fn cell_workload(smoke: bool) -> CellReport {
    let spec = if smoke {
        CellSpec::new(4, 3, None, FdChoice::None, ProtocolChoice::Reliable)
            .trials(4)
            .horizon(400)
    } else {
        CellSpec::new(
            5,
            3,
            Some(0.3),
            FdChoice::TUseful,
            ProtocolChoice::Generalized,
        )
        .trials(16)
        .horizon(900)
    };
    let t0 = Instant::now();
    let out = run_cell(&spec);
    let secs = t0.elapsed().as_secs_f64();
    CellReport {
        spec: format!(
            "n={} t={} drop={:?} fd={} protocol={}",
            spec.n, spec.t, spec.drop_prob, spec.fd, spec.protocol
        ),
        trials: spec.trials,
        achieved: out.achieved(),
        secs,
        trials_per_sec: spec.trials as f64 / secs,
    }
}

/// The standard fault-injection campaign at fixed seeds: every standard
/// plan against the chaos grid, asserting the detection matrix (zero
/// false alarms from in-model plans, every out-of-model mutant killed)
/// and recording campaign throughput and structural-detection latency.
fn chaos_workload(smoke: bool) -> ChaosReportSummary {
    use ktudc_core::chaos::{chaos_cells, run_chaos_campaign, standard_plans};

    let cells = chaos_cells(smoke);
    let n = cells.first().expect("nonempty grid").1.n;
    let plans = standard_plans(n);
    let seeds = vec![1u64, 2, 5];
    let t0 = Instant::now();
    let report = run_chaos_campaign(&cells, &plans, &seeds);
    let secs = t0.elapsed().as_secs_f64();

    assert!(
        report.zero_false_alarms(),
        "in-model fault plans raised alarms: {:?}",
        report.offending_rows()
    );
    assert!(
        report.all_mutants_killed(),
        "an out-of-model mutant was never detected"
    );

    let latencies: Vec<u64> = report
        .rows
        .iter()
        .filter_map(|r| r.detection_tick)
        .collect();
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    ChaosReportSummary {
        cells: cells.len(),
        plans: plans.len(),
        seeds,
        rows: report.rows.len(),
        clean: report.clean,
        false_alarms: report.false_alarms,
        detected: report.detected,
        survived: report.survived,
        all_mutants_killed: report.all_mutants_killed(),
        secs,
        plans_per_sec: report.rows.len() as f64 / secs,
        detection_latency_ticks_mean: mean,
        detection_latency_ticks_max: latencies.iter().copied().max().unwrap_or(0),
        digest: report.digest.clone(),
    }
}

/// The durability tax and the recovery speed, both sides of the
/// checkpoint/restart subsystem:
///
/// * an exploration run plain, then with a checkpoint journal (fsync
///   per entry — the worst case), then resumed from a deliberately torn
///   journal, all three asserted digest-identical;
/// * a durable `ktudc-serve` reboot over a populated cache snapshot,
///   timed bind-to-ready.
fn recovery_workload(smoke: bool) -> RecoveryBench {
    use ktudc_serve::{serve, Client, RequestKind, ServeConfig};
    use ktudc_sim::{
        explore_spec_checkpointed, resume_checkpoint, run_explore_spec, system_digest, ExploreSpec,
    };
    use ktudc_store::SyncPolicy;

    let mut tmp = std::env::temp_dir();
    tmp.push(format!("ktudc-perf-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create scratch dir");

    // Full mode uses a spec big enough (≈18k runs, ≈50 ms plain) that
    // the overhead ratio measures the group-commit journal path rather
    // than constant setup cost on a sub-millisecond baseline.
    let mut spec = if smoke {
        ExploreSpec::new(3, 6)
    } else {
        ExploreSpec::new(4, 16)
    };
    spec.max_failures = if smoke { 2 } else { 3 };

    let t0 = Instant::now();
    let plain = run_explore_spec(&spec).expect("valid spec");
    let plain_secs = t0.elapsed().as_secs_f64();

    let journal = tmp.join("explore.ckpt");
    let t0 = Instant::now();
    let (checkpointed, _) = explore_spec_checkpointed(&spec, &journal, SyncPolicy::Always)
        .expect("checkpointed exploration");
    let checkpointed_secs = t0.elapsed().as_secs_f64();
    let checkpointed_digest = system_digest(&checkpointed.system);

    // Tear the journal's tail, then resume: the lost subtrees are
    // recomputed, the surviving ones replayed.
    let len = std::fs::metadata(&journal).expect("stat journal").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&journal)
        .expect("open journal")
        .set_len(len.saturating_sub(37))
        .expect("tear journal tail");
    let t0 = Instant::now();
    let (_, resumed, stats) =
        resume_checkpoint(&journal, SyncPolicy::Always).expect("resume torn journal");
    let replay_secs = t0.elapsed().as_secs_f64();
    let resumed_digest = system_digest(&resumed.system);
    let digest_identical = plain.digest == checkpointed_digest && plain.digest == resumed_digest;
    assert!(digest_identical, "resume diverged from uninterrupted run");

    // Durable serve reboot: populate, drain (snapshots), boot again.
    let data_dir = tmp.join("serve");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: Some(data_dir),
        snapshot_every: 1,
        ..ServeConfig::default()
    };
    let handle = serve(&config).expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let kinds: Vec<RequestKind> = (0..4)
        .map(|i| {
            RequestKind::Cell(
                CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                    .trials(2)
                    .horizon(80 + i),
            )
        })
        .collect();
    client.batch(kinds).expect("populate cache");
    handle.shutdown();
    handle.join();

    let handle = serve(&config).expect("rebind");
    let recovery = handle.recovery();
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&tmp);

    let checkpoint_overhead_percent = (checkpointed_secs / plain_secs - 1.0) * 100.0;
    let overhead_within_bound =
        checkpoint_overhead_percent <= 200.0 || (checkpointed_secs - plain_secs) < 0.25;
    assert!(
        overhead_within_bound,
        "checkpoint overhead out of bounds: {checkpoint_overhead_percent:.0}% \
         ({checkpointed_secs:.3}s vs {plain_secs:.3}s plain)"
    );

    RecoveryBench {
        n: spec.n,
        horizon: spec.horizon,
        runs: resumed.system.len(),
        plain_secs,
        checkpointed_secs,
        checkpoint_overhead_percent,
        overhead_within_bound,
        replayed_entries: stats.replayed_entries,
        replay_secs,
        replay_entries_per_sec: stats.replayed_entries as f64 / replay_secs,
        digest_identical,
        restart_to_ready_ms: recovery.restart_to_ready_micros as f64 / 1_000.0,
        recovered_cache_entries: recovery.recovered_cache_entries,
    }
}

/// The same cell workload, emitted through an in-process `ktudc-serve`
/// daemon as one pipelined batch — cold (every request computed), then
/// warm (every request answered from the scenario cache).
fn via_serve_workload(smoke: bool) -> ViaServeReport {
    use ktudc_serve::{serve, Client, Endpoints, RequestKind, ServeConfig};

    let count = if smoke { 4 } else { 8 };
    let kinds: Vec<RequestKind> = (0..count)
        .map(|i| {
            let spec = if smoke {
                CellSpec::new(4, 3, None, FdChoice::None, ProtocolChoice::Reliable)
                    .trials(4)
                    .horizon(400 + i as u64)
            } else {
                CellSpec::new(
                    5,
                    3,
                    Some(0.3),
                    FdChoice::TUseful,
                    ProtocolChoice::Generalized,
                )
                .trials(8)
                .horizon(900 + i as u64)
            };
            RequestKind::Cell(spec)
        })
        .collect();

    let handle = serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_capacity: count.max(16),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let t0 = Instant::now();
    let cold = client.batch(kinds.clone()).expect("cold batch");
    let cold_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let warm = client.batch(kinds).expect("warm batch");
    let warm_secs = t0.elapsed().as_secs_f64();

    let results_identical = cold
        .iter()
        .zip(&warm)
        .all(|(a, b)| a.result == b.result && b.cached);
    assert!(results_identical, "warm sweep diverged from cold sweep");
    let stats = client.stats().expect("stats");
    let cache_hits: u64 = stats.endpoints.iter().map(|e| e.cache_hits).sum();
    client.shutdown_server().expect("shutdown");
    handle.join();

    ViaServeReport {
        requests: count,
        workers: stats.workers,
        cold_secs,
        warm_secs,
        cold_requests_per_sec: count as f64 / cold_secs,
        warm_requests_per_sec: count as f64 / warm_secs,
        cache_hits,
        results_identical,
    }
}

/// The sharded-cluster workload: the same cold batch through one
/// single-worker daemon and through a 3-shard cluster of single-worker
/// daemons, then a shard outage to price failover on warm requests.
/// Correctness is asserted inline: every cluster answer must be
/// byte-identical to the single daemon's.
fn cluster_workload(smoke: bool) -> ClusterReport {
    use ktudc_serve::{
        serve, Client, ClusterClient, Endpoints, Membership, RequestKind, RetryPolicy, ServeConfig,
    };
    use std::sync::Arc;
    use std::time::Duration;

    const SHARDS: usize = 3;
    let count = if smoke { 9 } else { 18 };
    let kinds: Vec<RequestKind> = (0..count)
        .map(|i| {
            // Compute-bound on purpose, in both modes: sharding's win is
            // parallel *compute*; with trivial cells the wire overhead
            // dominates and the ratio measures nothing.
            let spec = if smoke {
                CellSpec::new(
                    5,
                    2,
                    Some(0.25),
                    FdChoice::Cycling,
                    ProtocolChoice::Generalized,
                )
                .trials(4)
                .horizon(500 + i as u64)
            } else {
                CellSpec::new(
                    5,
                    3,
                    Some(0.3),
                    FdChoice::TUseful,
                    ProtocolChoice::Generalized,
                )
                .trials(8)
                .horizon(900 + i as u64)
            };
            RequestKind::Cell(spec)
        })
        .collect();
    let single_config = ServeConfig {
        workers: 1,
        queue_capacity: count.max(16),
        ..ServeConfig::default()
    };

    // Baseline: one single-worker daemon computes the whole batch cold.
    // Its payloads are the ground truth every cluster answer is held to.
    let single = serve(&single_config).expect("bind single daemon");
    let mut client = Client::connect(single.addr()).expect("connect single");
    let t0 = Instant::now();
    let truth = client.batch(kinds.clone()).expect("single cold batch");
    let single_secs = t0.elapsed().as_secs_f64();
    client.shutdown_server().expect("shutdown single");
    single.join();

    // The same batch, consistent-hashed across a cold 3-shard cluster of
    // identical single-worker daemons.
    let shards: Vec<_> = (0..SHARDS)
        .map(|_| serve(&single_config).expect("bind shard"))
        .collect();
    let membership = Arc::new(Membership::new(
        shards.iter().map(|s| s.addr().to_string()).collect(),
    ));
    let policy = RetryPolicy {
        max_retries: 1,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
        ..RetryPolicy::default()
    };
    let cluster = ClusterClient::new(Arc::clone(&membership), policy);
    let t0 = Instant::now();
    let cold = cluster.batch(kinds.clone()).expect("cluster cold batch");
    let cluster_secs = t0.elapsed().as_secs_f64();
    let mut zero_wrong_answers = cold.iter().zip(&truth).all(|(c, t)| c.result == t.result);
    assert!(
        zero_wrong_answers,
        "cluster cold batch diverged from single daemon"
    );

    // Failover pricing on warm requests: time the shard-0-owned subset
    // warm with every shard up, then take shard 0 down, re-warm the
    // replicas once, and time the same subset again. The difference is
    // what rerouting costs once compute is out of the picture.
    let owned: Vec<(usize, RequestKind)> = kinds
        .iter()
        .cloned()
        .enumerate()
        .filter(|(_, kind)| cluster.route(kind) == 0)
        .collect();
    // Times one warm pass over the shard-0-owned subset; also re-checks
    // every answer against the ground truth.
    let time_each = |cluster: &ClusterClient| -> (f64, bool) {
        let t0 = Instant::now();
        let mut ok = true;
        for (i, kind) in &owned {
            let response = cluster.request(kind.clone()).expect("warm request");
            ok &= response.result == truth[*i].result;
        }
        let per_request_ms = t0.elapsed().as_secs_f64() * 1000.0 / owned.len().max(1) as f64;
        (per_request_ms, ok)
    };
    let (warm_direct_ms, direct_ok) = time_each(&cluster);
    membership.set_addr(0, "127.0.0.1:1");
    // First failover pass warms the replicas' caches.
    let mut failover_ok = true;
    for (i, kind) in &owned {
        let response = cluster.request(kind.clone()).expect("failover request");
        failover_ok &= response.result == truth[*i].result;
    }
    let (warm_failover_ms, refailover_ok) = time_each(&cluster);
    zero_wrong_answers &= direct_ok && failover_ok && refailover_ok;
    assert!(
        zero_wrong_answers,
        "a failover answer diverged from the single daemon"
    );
    let failovers = cluster.metrics().failovers;
    assert!(failovers > 0, "shard 0 owned keys must have failed over");

    for handle in shards {
        handle.shutdown();
    }
    ClusterReport {
        shards: SHARDS,
        requests: count,
        requests_per_sec_single: count as f64 / single_secs,
        requests_per_sec_cluster: count as f64 / cluster_secs,
        speedup_vs_single: single_secs / cluster_secs,
        failover_added_latency_ms: (warm_failover_ms - warm_direct_ms).max(0.0),
        failovers,
        zero_wrong_answers,
    }
}

/// The degradation soak: saturate a deliberately tiny daemon and record
/// how it sheds. Every assertion here is part of the overload contract —
/// a violation is a bench *failure*, not a slow result.
fn overload_workload(smoke: bool) -> OverloadReport {
    use ktudc_model::Budget;
    use ktudc_serve::{
        serve, Client, Endpoints, ErrorCode, RequestKind, RequestOptions, ResponseKind, ServeConfig,
    };
    use ktudc_sim::{
        explore_spec_checkpointed, explore_spec_checkpointed_budgeted, run_explore_spec,
        system_digest, CheckpointOutcome, ExploreSpec, WireProtocol,
    };
    use ktudc_store::SyncPolicy;

    let workers = 1;
    let queue_capacity = 4;
    let handle = serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity,
        cache_capacity: 512,
        target_p99_ms: 50,
        watchdog_tick_ms: 5,
        stuck_after_ticks: 400,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();

    let cell = |i: usize| {
        RequestKind::Cell(
            CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                .trials(2)
                .horizon(100 + i as u64),
        )
    };
    // An exploration demonstrably too large for a millisecond deadline
    // on *this* machine: grow the horizon until the uninterrupted walk
    // takes ≥ 50 ms, so the deadline budget is guaranteed to trip.
    let oneshot = |horizon| {
        let mut spec = ExploreSpec::new(3, horizon);
        spec.protocol = WireProtocol::OneShot {
            from: 0,
            to: 1,
            msg: 7,
        };
        spec
    };
    let big_spec = (6..=30)
        .map(oneshot)
        .find(|spec| {
            let t0 = Instant::now();
            run_explore_spec(spec).expect("valid spec");
            t0.elapsed().as_millis() >= 50
        })
        .expect("no horizon produced a 50ms exploration");

    // Uncontended baseline: distinct cells, one at a time.
    let mut probe = Client::connect(addr).expect("connect");
    let mut uncontended: Vec<u64> = (0..8)
        .map(|i| {
            probe
                .request(cell(10_000 + i))
                .expect("uncontended request")
                .micros
        })
        .collect();
    uncontended.sort_unstable();
    let uncontended_p99 = uncontended[(uncontended.len() - 1) * 99 / 100];

    // The storm: parallel connections pipelining mixed batches.
    let threads = if smoke { 3 } else { 6 };
    let per_thread = if smoke { 12 } else { 32 };
    let stormers: Vec<_> = (0..threads)
        .map(|thread| {
            let big_spec = big_spec.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let kinds: Vec<(RequestKind, RequestOptions)> = (0..per_thread)
                    .map(|i| match i % 3 {
                        0 => (cell(thread * per_thread + i), RequestOptions::default()),
                        1 => (
                            cell(thread * per_thread + i),
                            RequestOptions {
                                deadline_ms: Some(100),
                                ..RequestOptions::default()
                            },
                        ),
                        _ => (
                            RequestKind::Explore(big_spec.clone()),
                            RequestOptions {
                                deadline_ms: Some(2),
                                accept_partial: true,
                                ..RequestOptions::default()
                            },
                        ),
                    })
                    .collect();
                client.batch_with_options(kinds).expect("storm batch")
            })
        })
        .collect();

    let mut admitted_micros = Vec::new();
    let mut aborted_partial = 0usize;
    let mut shed_overloaded = 0u64;
    let mut shed_deadline = 0u64;
    let mut all_sheds_typed = true;
    let mut requests = 0usize;
    for stormer in stormers {
        for response in stormer.join().expect("storm thread") {
            requests += 1;
            match &response.result {
                ResponseKind::Cell(_) | ResponseKind::Explore(_) | ResponseKind::Check(_) => {
                    admitted_micros.push(response.micros);
                }
                ResponseKind::Aborted(_) => {
                    aborted_partial += 1;
                    admitted_micros.push(response.micros);
                }
                ResponseKind::Error(e) => match e.code {
                    ErrorCode::Overloaded => shed_overloaded += 1,
                    ErrorCode::DeadlineExceeded => shed_deadline += 1,
                    _ => all_sheds_typed = false,
                },
                _ => all_sheds_typed = false,
            }
        }
    }
    assert!(all_sheds_typed, "an overload resolution was not typed");
    assert!(!admitted_micros.is_empty(), "the storm admitted nothing");
    admitted_micros.sort_unstable();
    let admitted_p99 = admitted_micros[(admitted_micros.len() - 1) * 99 / 100];

    let health = probe.health().expect("health");
    let zero_stuck_workers = health.stuck_workers == 0;
    assert!(zero_stuck_workers, "watchdog latched a stuck worker");
    handle.shutdown();
    handle.join();

    // Budget-abort + resume digest identity, through the checkpoint
    // journal: probe the walk's step count, cap at half, resume clean.
    let baseline = run_explore_spec(&big_spec).expect("valid spec");
    let mut journal = std::env::temp_dir();
    journal.push(format!("ktudc-perf-overload-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let steps_probe = Budget::unlimited();
    {
        let mut scratch = std::env::temp_dir();
        scratch.push(format!(
            "ktudc-perf-overload-probe-{}.ckpt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&scratch);
        explore_spec_checkpointed_budgeted(
            &big_spec,
            &scratch,
            SyncPolicy::Never,
            Some(&steps_probe),
        )
        .expect("probe walk");
        let _ = std::fs::remove_file(&scratch);
    }
    let budget = Budget::unlimited().with_max_steps(steps_probe.steps() / 2);
    let (outcome, _) =
        explore_spec_checkpointed_budgeted(&big_spec, &journal, SyncPolicy::Never, Some(&budget))
            .expect("budgeted walk");
    assert!(
        matches!(outcome, CheckpointOutcome::Aborted { .. }),
        "a half-walk step cap must abort"
    );
    let (resumed, _) =
        explore_spec_checkpointed(&big_spec, &journal, SyncPolicy::Never).expect("resume");
    let digest_identical_after_resume = system_digest(&resumed.system) == baseline.digest;
    assert!(digest_identical_after_resume, "resume diverged");
    let _ = std::fs::remove_file(&journal);

    let sheds = shed_overloaded + shed_deadline;
    OverloadReport {
        requests,
        workers,
        queue_capacity,
        admitted: admitted_micros.len(),
        aborted_partial,
        shed_overloaded,
        shed_deadline,
        shed_rate: sheds as f64 / requests as f64,
        uncontended_p99_ms: uncontended_p99 as f64 / 1_000.0,
        admitted_p99_ms: admitted_p99 as f64 / 1_000.0,
        admitted_over_uncontended: admitted_p99 as f64 / uncontended_p99.max(1) as f64,
        all_sheds_typed,
        zero_stuck_workers,
        digest_identical_after_resume,
    }
}

/// The empirical failure-detector zoo: every detector × every fault
/// regime, through the same classification harness `ctl classify` and the
/// fd test suite use. Two invariants are asserted inline (and recorded as
/// grep-stable JSON booleans for CI):
///
/// * clean reliable channels produce **zero** false suspicions from every
///   detector — a detector that suspects a live process on a quiet
///   network is mistuned, full stop;
/// * every **in-model** regime detects the injected crash in every arm,
///   with worst-case detection latency within a fixed tick bound. The
///   out-of-model severed link is exempt (the paper's R5 no longer
///   holds), though its rows are still recorded.
fn fd_zoo_workload(smoke: bool) -> FdZooReport {
    use ktudc_fd::{classify_detector, ClassifySpec, DetectorKind, FaultRegime};

    // Worst-case in-model path: gossip's 60-tick fail timeout plus an
    // 18–25-tick loss/delay window before the suspicion propagates, with
    // slack for the staggered report cadence.
    const LATENCY_BOUND_TICKS: u64 = 120;

    let (trials, horizon): (u64, Time) = if smoke { (2, 200) } else { (6, 240) };
    let cells: Vec<ClassifySpec> = DetectorKind::ALL
        .iter()
        .flat_map(|&detector| {
            FaultRegime::ALL.iter().map(move |&regime| {
                ClassifySpec::new(detector, regime)
                    .trials(trials)
                    .horizon(horizon)
            })
        })
        .collect();

    let t0 = Instant::now();
    let verdicts = ktudc_par::par_map(cells.clone(), |spec| classify_detector(&spec));
    let secs = t0.elapsed().as_secs_f64();

    let mut clean_zero_false_suspicions = true;
    let mut detection_latency_within_bound = true;
    let rows: Vec<FdZooRow> = cells
        .iter()
        .zip(&verdicts)
        .map(|(spec, v)| {
            if spec.regime == FaultRegime::Clean && v.false_suspicion_events > 0 {
                clean_zero_false_suspicions = false;
            }
            if spec.regime.in_model() {
                match &v.detection_latency {
                    Some(lat) if lat.max <= LATENCY_BOUND_TICKS => {}
                    _ => detection_latency_within_bound = false,
                }
            }
            FdZooRow {
                detector: spec.detector.to_string(),
                regime: spec.regime.to_string(),
                in_model: spec.regime.in_model(),
                class: v.class.to_string(),
                false_suspicions: v.false_suspicion_events,
                detection_latency_mean: v.detection_latency.as_ref().map(|l| l.mean),
                detection_latency_max: v.detection_latency.as_ref().map(|l| l.max),
                latency_samples: v.detection_latency.as_ref().map_or(0, |l| l.samples),
            }
        })
        .collect();

    assert!(
        clean_zero_false_suspicions,
        "a detector falsely suspected a live process on clean channels"
    );
    assert!(
        detection_latency_within_bound,
        "an in-model regime missed the crash or exceeded {LATENCY_BOUND_TICKS} ticks"
    );

    FdZooReport {
        detectors: DetectorKind::ALL.len(),
        regimes: FaultRegime::ALL.len(),
        n: cells[0].n,
        trials,
        horizon,
        secs,
        cells_per_sec: rows.len() as f64 / secs,
        rows,
        clean_zero_false_suspicions,
        detection_latency_bound_ticks: LATENCY_BOUND_TICKS,
        detection_latency_within_bound,
    }
}

/// The live failure-detector classification: the `serve::detector`
/// φ-accrual plane measured against the paper's detector hierarchy on a
/// real cluster, one wire regime at a time.
///
/// In every regime one shard (the owner of scenario 0) is black-holed
/// from frame zero — the "crash" — while the live shards' links carry
/// the regime's toxic. The plane's per-shard suspicion states are
/// sampled into the same completeness/accuracy booleans the simulated
/// zoo derives from run transcripts and condensed through
/// [`ktudc_fd::condense_class`]: the live plane *earns* a class per
/// wire regime exactly like a simulated detector earns one per fault
/// regime. Alongside classification, an audited request campaign prices
/// the payoff of acting on suspicion — proactive failovers (engaged at
/// routing time, before any request burns a timeout), hedge win rate,
/// and the uniform invariants (zero wrong answers, exactly-once
/// compute, hedges never double-compute), all asserted inline.
fn fd_live_workload(smoke: bool) -> FdLiveReport {
    use ktudc_fd::{condense_class, EmpiricalClass};
    use ktudc_serve::{
        chaos_proxy, serve, Auditor, ChaosProxy, Client, ClusterClient, DetectorConfig, Endpoints,
        HashRing, Membership, RequestKind, RetryPolicy, ServeConfig, Toxic, ToxicPlan,
    };
    use std::sync::Arc;
    use std::time::Duration;

    const SEED: u64 = 0x0fd1_1fe5;
    const SHARDS: usize = 3;
    let scenarios = if smoke { 6 } else { 10 };
    let scenario = |i: usize| {
        RequestKind::Cell(
            CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                .trials(2)
                .horizon(150 + i as u64 * 10),
        )
    };
    // Fast test cadence with the hedge band raised to φ ≥ 2 (~115ms
    // silence on a learned 25ms cadence): a scheduler hiccup on a
    // healthy shard must not fire a hedge into a cold replica — that
    // would compute the scenario a second time and fail the
    // exactly-once audit — while the victim's φ still crosses the band
    // on its way to suspicion, where the hedge is provably
    // duplicate-free (a partitioned primary never computes).
    let config = DetectorConfig {
        hedge_threshold: 2.0,
        ..DetectorConfig::fast()
    };
    // One short exchange deadline per leg, no retry ladder: failover
    // latency is the detector's to win, not the retry budget's.
    let policy = RetryPolicy {
        request_timeout: Duration::from_millis(150),
        max_retries: 0,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        ..RetryPolicy::default()
    };

    let t0 = Instant::now();
    let mut rows = Vec::new();
    let mut all_regimes_classified = true;
    let mut zero_wrong_answers = true;
    let mut exactly_once = true;
    let mut hedges_never_double_compute = true;
    for regime in ["clean", "delay_spikes", "flaky_partition"] {
        let workers: Vec<_> = (0..SHARDS)
            .map(|_| {
                serve(&ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    workers: 2,
                    queue_capacity: 32,
                    cache_capacity: 256,
                    watchdog_tick_ms: 5,
                    ..ServeConfig::default()
                })
                .expect("bind ephemeral port")
            })
            .collect();
        let ring = HashRing::new(SHARDS);
        let victim = ring.shard_for(ClusterClient::shard_key(&scenario(0)));
        let flaky = (0..SHARDS).find(|&s| s != victim).expect("three shards");
        let mut proxies: Vec<ChaosProxy> = Vec::new();
        let addrs: Vec<String> = (0..SHARDS)
            .map(|s| {
                let plan = if s == victim {
                    // The crash: requests and heartbeats vanish from
                    // frame zero; the worker never even hears them.
                    Some(ToxicPlan::none().upstream(Toxic::Partition {
                        start: 0,
                        until: None,
                    }))
                } else if regime == "delay_spikes" {
                    // Heartbeat pongs stalled 30ms every 4th frame —
                    // well under the ~230ms suspicion silence, so a
                    // well-tuned φ should ride it out.
                    Some(ToxicPlan::none().downstream(Toxic::DelaySpike {
                        period: 4,
                        width: 1,
                        extra: Duration::from_millis(30),
                    }))
                } else if regime == "flaky_partition" && s == flaky {
                    // A bounded black hole on a *live* shard's probe
                    // path (~20 beats): long enough to force a false
                    // suspicion, which must then clear through
                    // probation once frames flow again.
                    Some(ToxicPlan::none().upstream(Toxic::Partition {
                        start: 10,
                        until: Some(30),
                    }))
                } else {
                    None
                };
                match plan {
                    Some(plan) => {
                        let proxy = chaos_proxy(workers[s].addr().to_string(), plan, SEED)
                            .expect("proxy binds");
                        let addr = proxy.addr().to_string();
                        proxies.push(proxy);
                        addr
                    }
                    None => workers[s].addr().to_string(),
                }
            })
            .collect();
        let cluster =
            ClusterClient::new(Arc::new(Membership::new(addrs)), policy).with_detector(config);
        let plane = Arc::clone(cluster.detector().expect("plane attached"));

        let audit = Auditor::new().with_latency_bound_ms(20_000);
        let kinds: Vec<RequestKind> = (0..scenarios).map(scenario).collect();
        for kind in &kinds {
            let RequestKind::Cell(spec) = kind else {
                unreachable!()
            };
            audit.expect(kind, &ktudc_serve::ResponseKind::Cell(run_cell(spec)));
        }

        // Soft-band sweep, clean wire only: requests issued while the
        // victim's φ climbs through the hedge band exercise live
        // hedging. On regimes that drop frames on *live* links a sweep
        // here could land a computation on a replica mid-window and
        // muddy the exactly-once ledger, so those regimes campaign only
        // after the plane settles.
        if regime == "clean" {
            for kind in &kinds {
                let t = Instant::now();
                match cluster.request_with_options(kind.clone(), Default::default()) {
                    Ok(r) => audit.record_response(kind, &r, t.elapsed()),
                    Err(e) => audit.record_client_error(kind, &e, t.elapsed()),
                }
            }
        }

        // The classification watch: sample every shard's suspicion
        // until the crash is detected — and, on the flaky regime, the
        // false suspicion has come *and* gone.
        let mut ever = [false; SHARDS];
        let hard_deadline = Instant::now() + Duration::from_secs(20);
        let settle_deadline = Instant::now() + Duration::from_secs(8);
        loop {
            for (s, seen) in ever.iter_mut().enumerate() {
                *seen |= plane.suspicion(s).suspected;
            }
            let crash_detected = plane.suspicion(victim).suspected;
            let flaky_settled = regime != "flaky_partition" || {
                let s = plane.suspicion(flaky);
                (ever[flaky] && !s.suspected && !s.probation) || Instant::now() > settle_deadline
            };
            if (crash_detected && flaky_settled) || Instant::now() > hard_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let live = |s: usize| s != victim;
        let strong_completeness = plane.suspicion(victim).suspected;
        assert!(
            strong_completeness,
            "fd-live regime `{regime}`: the black-holed shard was never suspected: {:?}",
            plane.stats()
        );
        let false_suspicions = (0..SHARDS).filter(|&s| live(s) && ever[s]).count() as u64;
        let class = condense_class(
            strong_completeness,
            false_suspicions == 0,
            (0..SHARDS).any(|s| live(s) && !ever[s]),
            (0..SHARDS).all(|s| !live(s) || !plane.suspicion(s).suspected),
            (0..SHARDS).any(|s| live(s) && !plane.suspicion(s).suspected),
        );
        all_regimes_classified &= class != EmpiricalClass::Unclassified;

        // The audited campaign under active suspicion: the victim's
        // keys fail over proactively, everything is answered.
        for kind in &kinds {
            let t = Instant::now();
            let resp = cluster
                .request_with_options(kind.clone(), Default::default())
                .expect("campaign request under suspicion");
            assert_ne!(resp.shard, Some(victim), "a suspected shard answered");
            audit.record_response(kind, &resp, t.elapsed());
        }

        // Exactly-once, summed across the fleet by direct probes: the
        // victim computed nothing, each scenario landed exactly once.
        let mut computed = 0u64;
        let mut stuck = 0u64;
        for handle in &workers {
            let mut probe = Client::connect(handle.addr()).expect("direct probe");
            let health = probe.health().expect("health");
            computed += health.cache_entries as u64;
            stuck += health.stuck_workers;
        }
        let stats = plane.stats();
        audit.note_computed(computed);
        audit.note_stuck_connections(stuck);
        audit.note_hedges(stats.hedges_fired);
        let report = audit.report();
        assert!(
            report.passed,
            "fd-live regime `{regime}` failed its audit: {report:?}"
        );
        zero_wrong_answers &= report.wrong_answers == 0;
        exactly_once &= report.exactly_once == Some(true);
        hedges_never_double_compute &= report.hedges_never_double_compute == Some(true);
        rows.push(FdLiveRegimeRow {
            regime: regime.to_string(),
            class: class.to_string(),
            strong_completeness,
            false_suspicions,
            suspects_raised: stats.suspects_raised,
            suspects_cleared: stats.suspects_cleared,
            proactive_failovers: stats.proactive_failovers,
            hedges_fired: stats.hedges_fired,
            hedges_won: stats.hedges_won,
            hedge_win_rate: if stats.hedges_fired == 0 {
                0.0
            } else {
                stats.hedges_won as f64 / stats.hedges_fired as f64
            },
            requests: report.requests,
            payloads: report.payloads,
            probes_sent: stats.probes_sent,
        });

        drop(cluster);
        for mut proxy in proxies {
            proxy.shutdown();
        }
        for handle in workers {
            handle.shutdown();
            handle.join();
        }
    }
    assert!(
        all_regimes_classified,
        "a wire regime left the live detector unclassified"
    );

    FdLiveReport {
        seed: SEED,
        shards: SHARDS,
        scenarios_per_regime: scenarios,
        probe_period_ms: config.probe_period.as_millis() as u64,
        suspect_threshold: config.suspect_threshold,
        hedge_threshold: config.hedge_threshold,
        regimes: rows,
        all_regimes_classified,
        zero_wrong_answers,
        exactly_once,
        hedges_never_double_compute,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// The wire-plane chaos soak: a fresh daemon behind a seeded
/// [`ktudc_serve::chaos_proxy`] per toxic regime, a fixed scenario batch
/// stormed through a `HardenedClient`, and an [`ktudc_serve::Auditor`]
/// holding the whole campaign to the uniform invariants — byte-identical
/// answers vs direct computation, typed-error-only degradation,
/// exactly-once compute (clean second pass all cache hits), zero stuck
/// workers. Any regime failing its audit is a bench failure.
fn chaos_net_workload(smoke: bool) -> ChaosNetReport {
    use ktudc_serve::{
        chaos_proxy, serve, Auditor, Client, Endpoints, HardenedClient, RequestKind, RetryPolicy,
        ServeConfig, Toxic, ToxicPlan,
    };
    use std::time::Duration;

    const SEED: u64 = 0x5eed_cab1;
    // Even smoke mode needs enough frames per direction for every
    // every-k-th toxic (k up to 6) to actually fire at least once.
    let scenarios = if smoke { 8 } else { 12 };
    let regimes: Vec<(&str, ToxicPlan)> = vec![
        ("baseline", ToxicPlan::none()),
        (
            "delay_spikes",
            ToxicPlan::none().downstream(Toxic::DelaySpike {
                period: 4,
                width: 1,
                extra: Duration::from_millis(30),
            }),
        ),
        (
            "throttle",
            ToxicPlan::none().downstream(Toxic::Throttle {
                chunk: 7,
                pause: Duration::from_millis(1),
            }),
        ),
        (
            "truncate",
            ToxicPlan::none().downstream(Toxic::TruncateEvery(5)),
        ),
        (
            "corrupt",
            ToxicPlan::none().downstream(Toxic::CorruptEvery(5)),
        ),
        ("reset", ToxicPlan::none().downstream(Toxic::ResetEvery(6))),
        (
            "stall_half_open",
            ToxicPlan::none().downstream(Toxic::StallEvery(6)),
        ),
        (
            "partition_one_way",
            ToxicPlan::none().upstream(Toxic::Partition {
                start: 3,
                until: Some(6),
            }),
        ),
    ];
    let scenario = |i: usize| {
        RequestKind::Cell(
            CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                .trials(2)
                .horizon(200 + i as u64 * 10),
        )
    };

    let t0 = Instant::now();
    let mut rows = Vec::new();
    let mut requests = 0u64;
    let mut wrong_answers = 0u64;
    let mut untyped_failures = 0u64;
    let mut generation_regressions = 0u64;
    let mut stuck_connections = 0u64;
    let mut exactly_once = true;
    for (name, plan) in regimes {
        let handle = serve(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 256,
            watchdog_tick_ms: 5,
            stuck_after_ticks: 400,
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let mut proxy = chaos_proxy(handle.addr().to_string(), plan, SEED).expect("proxy");
        let auditor = Auditor::new().with_latency_bound_ms(30_000);
        let kinds: Vec<RequestKind> = (0..scenarios).map(scenario).collect();
        for kind in &kinds {
            let RequestKind::Cell(spec) = kind else {
                unreachable!()
            };
            auditor.expect(kind, &ktudc_serve::ResponseKind::Cell(run_cell(spec)));
        }
        // Storm pass: through the proxy, salvaged by the hardened client.
        let mut client = HardenedClient::new(
            proxy.addr().to_string(),
            RetryPolicy {
                request_timeout: Duration::from_millis(800),
                max_retries: 5,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(20),
                ..RetryPolicy::default()
            },
        );
        let mut latencies: Vec<u64> = Vec::new();
        for kind in &kinds {
            let t = Instant::now();
            let result = client.request(kind.clone());
            let latency = t.elapsed();
            latencies.push(latency.as_micros() as u64);
            match &result {
                Ok(response) => auditor.record_response(kind, response, latency),
                Err(err) => auditor.record_client_error(kind, err, latency),
            }
        }
        // Clean second pass, direct: every scenario must be a cache hit.
        let mut direct = Client::connect(handle.addr()).expect("direct connect");
        for kind in &kinds {
            let t = Instant::now();
            let response = direct.request(kind.clone()).expect("direct request");
            assert!(response.cached, "post-storm scenario was recomputed");
            auditor.record_response(kind, &response, t.elapsed());
        }
        let health = direct.health().expect("health");
        auditor.note_stuck_connections(health.stuck_workers);
        auditor.note_computed(health.cache_entries as u64);
        let report = auditor.report();
        assert!(
            report.passed,
            "chaos-net regime `{name}` failed its audit: {report:?}"
        );
        let stats = proxy.stats();
        if name != "baseline" {
            assert!(stats.injections() > 0, "regime `{name}` injected nothing");
        }
        requests += report.requests;
        wrong_answers += report.wrong_answers;
        untyped_failures += report.untyped_failures;
        generation_regressions += report.generation_regressions;
        stuck_connections += report.stuck_connections;
        exactly_once &= report.exactly_once == Some(true);
        latencies.sort_unstable();
        rows.push(ChaosNetRegimeRow {
            regime: name.to_string(),
            requests: report.requests,
            payloads: report.payloads,
            typed_errors: report.typed_wire_errors + report.typed_client_errors,
            injections: stats.injections(),
            p99_ms: latencies[(latencies.len() - 1) * 99 / 100] as f64 / 1_000.0,
        });
        proxy.shutdown();
        handle.shutdown();
        handle.join();
    }
    assert!(
        exactly_once,
        "a chaos-net regime recomputed or lost a scenario"
    );
    ChaosNetReport {
        seed: SEED,
        regimes: rows,
        scenarios_per_regime: scenarios,
        requests,
        wrong_answers,
        untyped_failures,
        generation_regressions,
        stuck_connections,
        exactly_once,
        zero_wrong_answers: wrong_answers == 0,
        no_unTyped_failures: untyped_failures == 0,
        secs: t0.elapsed().as_secs_f64(),
    }
}

fn main() {
    let mut smoke = false;
    let mut via_serve = false;
    let mut overload = false;
    let mut fd_zoo = false;
    let mut fd_live = false;
    let mut cluster = false;
    let mut chaos_net = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--via-serve" => via_serve = true,
            "--overload" => overload = true,
            "--fd-zoo" => fd_zoo = true,
            "--fd-live" => fd_live = true,
            "--cluster" => cluster = true,
            "--chaos-net" => chaos_net = true,
            other => {
                eprintln!(
                    "perf: unknown argument `{other}` (accepted: --smoke, --via-serve, --overload, --fd-zoo, --fd-live, --cluster, --chaos-net)"
                );
                std::process::exit(2);
            }
        }
    }
    let mode = if smoke { "smoke" } else { "full" };
    eprintln!("perf: mode={mode} threads={}", ktudc_par::thread_count());

    let checker = checker_workload(smoke);
    eprintln!(
        "perf: checker {} points x {} formulas: reference {:.3}s, fast {:.3}s ({:.1}x), {} table bytes",
        checker.points,
        checker.formulas,
        checker.reference_secs,
        checker.fast_secs,
        checker.speedup,
        checker.peak_table_bytes,
    );

    let explorer = explorer_workload(smoke);
    eprintln!(
        "perf: explorer n={} {} runs (complete={}): reference {:.3}s, fast {:.3}s ({:.1}x)",
        explorer.n,
        explorer.runs_explored,
        explorer.complete,
        explorer.reference_secs,
        explorer.fast_secs,
        explorer.speedup,
    );
    eprintln!(
        "perf: explorer reduced {} runs in {:.3}s ({:.1}x vs reference): {} canonicalized, {} sleep-pruned, {} steals on {} workers, cover={} verdicts={}",
        explorer.reduced.runs,
        explorer.reduced.secs,
        explorer.reduced.speedup_vs_reference,
        explorer.reduced.states_canonicalized,
        explorer.reduced.sleep_set_pruned,
        explorer.reduced.steals,
        explorer.reduced.workers,
        explorer.reduced.cover_ok,
        explorer.reduced.reduced_verdicts_equal,
    );

    let cell = cell_workload(smoke);
    eprintln!(
        "perf: cell [{}] {} trials in {:.3}s (achieved={})",
        cell.spec, cell.trials, cell.secs, cell.achieved,
    );

    let chaos = chaos_workload(smoke);
    eprintln!(
        "perf: chaos {} rows in {:.3}s ({:.1} plans/s): {} clean, {} false alarms, {} detected, {} survived, mean R3 latency {:.1} ticks",
        chaos.rows,
        chaos.secs,
        chaos.plans_per_sec,
        chaos.clean,
        chaos.false_alarms,
        chaos.detected,
        chaos.survived,
        chaos.detection_latency_ticks_mean,
    );

    let recovery = recovery_workload(smoke);
    eprintln!(
        "perf: recovery {} runs: checkpoint overhead {:.1}% ({:.3}s vs {:.3}s), replay {} entries in {:.3}s ({:.0}/s), restart-to-ready {:.2} ms ({} entries recovered)",
        recovery.runs,
        recovery.checkpoint_overhead_percent,
        recovery.checkpointed_secs,
        recovery.plain_secs,
        recovery.replayed_entries,
        recovery.replay_secs,
        recovery.replay_entries_per_sec,
        recovery.restart_to_ready_ms,
        recovery.recovered_cache_entries,
    );

    let via_serve = via_serve.then(|| {
        let r = via_serve_workload(smoke);
        eprintln!(
            "perf: via-serve {} requests: cold {:.3}s ({:.1} req/s), warm {:.3}s ({:.1} req/s), {} cache hits",
            r.requests,
            r.cold_secs,
            r.cold_requests_per_sec,
            r.warm_secs,
            r.warm_requests_per_sec,
            r.cache_hits,
        );
        r
    });

    let overload = overload.then(|| {
        let r = overload_workload(smoke);
        eprintln!(
            "perf: overload {} requests ({} admitted, {} aborted-partial, {} overloaded, {} deadline sheds, shed rate {:.2}): admitted p99 {:.2}ms vs uncontended {:.2}ms ({:.1}x), typed={} stuck-free={} resume-digest-ok={}",
            r.requests,
            r.admitted,
            r.aborted_partial,
            r.shed_overloaded,
            r.shed_deadline,
            r.shed_rate,
            r.admitted_p99_ms,
            r.uncontended_p99_ms,
            r.admitted_over_uncontended,
            r.all_sheds_typed,
            r.zero_stuck_workers,
            r.digest_identical_after_resume,
        );
        r
    });

    let fd_zoo = fd_zoo.then(|| {
        let r = fd_zoo_workload(smoke);
        let perfect = r.rows.iter().filter(|row| row.class == "perfect").count();
        eprintln!(
            "perf: fd-zoo {} detectors x {} regimes ({} cells, {:.1}/s) in {:.3}s: {} perfect, clean-zero-false={} latency<=({} ticks)={}",
            r.detectors,
            r.regimes,
            r.rows.len(),
            r.cells_per_sec,
            r.secs,
            perfect,
            r.clean_zero_false_suspicions,
            r.detection_latency_bound_ticks,
            r.detection_latency_within_bound,
        );
        r
    });

    let fd_live = fd_live.then(|| {
        let r = fd_live_workload(smoke);
        for row in &r.regimes {
            eprintln!(
                "perf: fd-live [{}] class={} false-suspicions={} proactive-failovers={} hedges {}/{} won (win rate {:.2})",
                row.regime,
                row.class,
                row.false_suspicions,
                row.proactive_failovers,
                row.hedges_won,
                row.hedges_fired,
                row.hedge_win_rate,
            );
        }
        eprintln!(
            "perf: fd-live {} regimes x {} scenarios in {:.3}s: classified={} zero-wrong={} exactly-once={} hedges-clean={}",
            r.regimes.len(),
            r.scenarios_per_regime,
            r.secs,
            r.all_regimes_classified,
            r.zero_wrong_answers,
            r.exactly_once,
            r.hedges_never_double_compute,
        );
        r
    });

    let chaos_net = chaos_net.then(|| {
        let r = chaos_net_workload(smoke);
        eprintln!(
            "perf: chaos-net {} regimes x {} scenarios ({} requests) in {:.3}s: wrong-answers={} untyped={} stuck={} exactly-once={}",
            r.regimes.len(),
            r.scenarios_per_regime,
            r.requests,
            r.secs,
            r.wrong_answers,
            r.untyped_failures,
            r.stuck_connections,
            r.exactly_once,
        );
        r
    });

    let cluster = cluster.then(|| {
        let r = cluster_workload(smoke);
        eprintln!(
            "perf: cluster {} requests over {} shards: single {:.1} req/s, cluster {:.1} req/s ({:.2}x), failover adds {:.2} ms/request warm ({} failovers), zero-wrong-answers={}",
            r.requests,
            r.shards,
            r.requests_per_sec_single,
            r.requests_per_sec_cluster,
            r.speedup_vs_single,
            r.failover_added_latency_ms,
            r.failovers,
            r.zero_wrong_answers,
        );
        r
    });

    let report = Report {
        schema: "ktudc-bench-perf/1".to_string(),
        mode: mode.to_string(),
        threads: ktudc_par::thread_count(),
        checker,
        explorer,
        cell,
        chaos,
        recovery,
        via_serve,
        overload,
        fd_zoo,
        fd_live,
        cluster,
        chaos_net,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_ktudc.json", &json).expect("write BENCH_ktudc.json");
    println!("{json}");
}
