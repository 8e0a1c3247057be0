//! `explore_check`: library calls only, no sockets.
//!
//! One iteration of the suite explores the n = 4, h = 6 Echo system plain
//! and reduced (client symmetry plus sleep sets); explores a wire-nameable
//! n = 4 one-shot spec — the only kind checkpointing accepts — plain, then
//! checkpointed, then resumed from a torn journal; and asks an epistemic
//! battery of the plain Echo system, weighted toward "K_p crashed(q)"
//! (does anyone ever know who is faulty?). Every iteration's outputs are
//! checked against pinned digests and verdicts.

use crate::report::{median, quantile, Report};
use ktudc_epistemic::{Formula, ModelChecker};
use ktudc_model::hashing::StableHasher;
use ktudc_model::{Event, ProcessId, System, Time};
use ktudc_sim::{
    canonical_run_digests, explore_spec, explore_spec_checkpointed, explore_with_stats,
    resume_checkpoint, system_digest, ExploreConfig, ExploreSpec, ProtoAction, Protocol,
    WireProtocol,
};
use ktudc_store::SyncPolicy;
use std::hash::Hasher;
use std::path::Path;
use std::time::Instant;

/// Suite size: the full n = 4 cell, or a seconds-scale smoke variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// n = 4, h = 6: the workload the benchmark measures.
    Full,
    /// n = 3, h = 5: for the benchmark's own tests.
    Smoke,
}

/// What the suite is pinned to produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pinned {
    /// Runs in the plain Echo system.
    pub plain_runs: usize,
    /// [`system_digest`] of the plain Echo system.
    pub plain_digest: u64,
    /// Runs in the reduced Echo system.
    pub reduced_runs: usize,
    /// [`set_digest`] of the reduced system's untimed canonical digests.
    pub reduced_canon: u64,
    /// [`system_digest`] of the one-shot spec's system (plain,
    /// checkpointed and resumed alike).
    pub spec_digest: u64,
    /// Battery verdicts over the plain Echo system, in battery order.
    pub verdicts: Vec<bool>,
}

/// The pinned outputs for `size`. The benchmark's own tests prove the
/// run sets against `explore_reference` and under one and many threads.
#[must_use]
pub fn pinned(size: Size) -> Pinned {
    match size {
        Size::Full => Pinned {
            plain_runs: 510_814,
            plain_digest: 2_052_032_084_222_933_097,
            reduced_runs: 56_745,
            reduced_canon: 16_482_965_076_417_952_533,
            spec_digest: 2_996_352_046_507_240_727,
            // No one ever knows of a crash; receipts carry knowledge of
            // sends, but a client never learns its message arrived.
            verdicts: [
                [false; 12].as_slice(),
                &[true, false, true, false, true, false, true],
            ]
            .concat(),
        },
        Size::Smoke => Pinned {
            plain_runs: 4_920,
            plain_digest: 15_646_935_689_503_866_075,
            reduced_runs: 1_350,
            reduced_canon: 2_619_559_588_411_336_935,
            spec_digest: 5_566_215_254_809_090_284,
            verdicts: [[false; 6].as_slice(), &[true, false, true, false, true]].concat(),
        },
    }
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// An echo server: every client (1..n) sends one message to process 0,
/// which acks each back to its source in order of receipt. Nobody names
/// a client by index, so behaviour is equivariant under relabeling the
/// clients — the hypothesis the symmetry reduction needs.
#[derive(Clone, Debug)]
pub struct Echo {
    me: ProcessId,
    inbox: Vec<ProcessId>,
    acked: usize,
    sent: bool,
}

impl Echo {
    /// A fresh process (identity assigned at `start`).
    #[must_use]
    pub fn new() -> Self {
        Echo {
            me: p(0),
            inbox: Vec::new(),
            acked: 0,
            sent: false,
        }
    }
}

impl Default for Echo {
    fn default() -> Self {
        Echo::new()
    }
}

impl Protocol<u8> for Echo {
    fn start(&mut self, me: ProcessId, _n: usize) {
        self.me = me;
    }
    fn observe(&mut self, _t: Time, e: &Event<u8>) {
        match e {
            Event::Recv { from, .. } if self.me.index() == 0 => self.inbox.push(*from),
            Event::Send { .. } if self.me.index() == 0 => self.acked += 1,
            Event::Send { .. } => self.sent = true,
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
            (!self.sent).then_some(ProtoAction::Send { to: p(0), msg: 9 })
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

/// `(n, horizon)` of the suite.
#[must_use]
pub fn shape(size: Size) -> (usize, Time) {
    match size {
        Size::Full => (4, 6),
        Size::Smoke => (3, 5),
    }
}

/// The plain Echo exploration config.
#[must_use]
pub fn plain_config(size: Size) -> ExploreConfig {
    let (n, horizon) = shape(size);
    ExploreConfig::new(n, horizon)
        .max_failures(1)
        .max_runs(600_000)
}

/// The reduced Echo exploration config: clients symmetric, sleep sets on.
#[must_use]
pub fn reduced_config(size: Size) -> ExploreConfig {
    let (n, _) = shape(size);
    plain_config(size)
        .symmetric((1..n).collect())
        .with_sleep_sets()
}

/// The checkpointable spec: a client's one-shot send to the server, over
/// a longer horizon with two crashes so the journal carries real work
/// (≈ 72k runs at full size).
#[must_use]
pub fn checkpoint_spec(size: Size) -> ExploreSpec {
    let (n, horizon) = match size {
        Size::Full => (4, 14),
        Size::Smoke => (3, 8),
    };
    let mut spec = ExploreSpec::new(n, horizon);
    spec.max_failures = 2;
    spec.max_runs = 600_000;
    spec.protocol = WireProtocol::OneShot {
        from: 1,
        to: 0,
        msg: 9,
    };
    spec
}

/// One 64-bit digest of a digest *set* (order-free, duplicates collapse).
#[must_use]
pub fn set_digest(mut digests: Vec<u64>) -> u64 {
    digests.sort_unstable();
    digests.dedup();
    let mut h = StableHasher::new();
    h.write_u64(digests.len() as u64);
    for d in digests {
        h.write_u64(d);
    }
    h.finish()
}

/// The untimed canonical digest set of `system` under the reduced
/// config's symmetry — equal for the reduced and the plain systems.
#[must_use]
pub fn canonical_set(size: Size, system: &System<u8>) -> u64 {
    set_digest(canonical_run_digests(&reduced_config(size), system, false))
}

/// The epistemic battery over the Echo system, weighted toward
/// "K_p crashed(q)": one `◇ K_k crashed(q)` per ordered pair — without a
/// failure detector nobody ever learns that a process crashed — then
/// knowledge of sends, which rides on receipts. The crash-knowledge block
/// is most of the battery and of one shape, so the median query sits
/// inside it rather than at the edge between two query costs.
#[must_use]
pub fn battery(size: Size) -> Vec<Formula<u8>> {
    let (n, _) = shape(size);
    let mut out = Vec::new();
    for q in 0..n {
        for k in (0..n).filter(|&k| k != q) {
            out.push(Formula::eventually(Formula::knows(
                p(k),
                Formula::crashed(p(q)),
            )));
        }
    }
    for i in 1..n {
        out.push(Formula::always(Formula::implies(
            Formula::received(p(0), p(i), 9),
            Formula::knows(p(0), Formula::sent(p(i), p(0), 9)),
        )));
        out.push(Formula::eventually(Formula::knows(
            p(i),
            Formula::received(p(0), p(i), 9),
        )));
    }
    out.push(Formula::always(Formula::not(Formula::and(
        (1..n).map(|i| Formula::crashed(p(i))).collect(),
    ))));
    out
}

/// Per-iteration measurements.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    /// Plain Echo exploration, seconds.
    pub plain_s: f64,
    /// Runs the plain exploration produced.
    pub plain_runs: usize,
    /// Reduced Echo exploration, seconds.
    pub reduced_s: f64,
    /// Runs the reduced exploration produced.
    pub reduced_runs: usize,
    /// `states_canonicalized + sleep_set_pruned` of the reduced pass.
    pub pruned: u64,
    /// Work-stealing steals across both Echo passes.
    pub steals: u64,
    /// One-shot spec explored plain, seconds.
    pub spec_plain_s: f64,
    /// One-shot spec explored with a checkpoint journal, seconds.
    pub spec_checkpointed_s: f64,
    /// Torn-journal resume to a complete system, milliseconds.
    pub resume_ms: f64,
    /// `ModelChecker::new` over the plain system, seconds.
    pub build_s: f64,
    /// Each battery formula's `valid` call, milliseconds.
    pub query_ms: Vec<f64>,
    /// Points of the plain system.
    pub points: usize,
    /// Checker table footprint after the battery, bytes.
    pub table_bytes: usize,
    /// Output checks of this iteration.
    pub outputs: Outputs,
}

/// What an iteration produced, for comparison against [`Pinned`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outputs {
    /// Plain runs and digest.
    pub plain: (usize, u64),
    /// Reduced runs and canonical set digest.
    pub reduced: (usize, u64),
    /// Digests of the spec explored plain, checkpointed and resumed.
    pub spec: [u64; 3],
    /// Whether all three spec explorations were complete.
    pub spec_complete: bool,
    /// Battery verdicts.
    pub verdicts: Vec<bool>,
}

impl Outputs {
    /// Mismatches against `pin`, one line each.
    #[must_use]
    pub fn mismatches(&self, pin: &Pinned) -> Vec<String> {
        let mut out = Vec::new();
        if self.plain != (pin.plain_runs, pin.plain_digest) {
            out.push(format!("plain system {:?} != pinned", self.plain));
        }
        if self.reduced != (pin.reduced_runs, pin.reduced_canon) {
            out.push(format!("reduced system {:?} != pinned", self.reduced));
        }
        if self.spec != [pin.spec_digest; 3] || !self.spec_complete {
            out.push(format!(
                "checkpointed spec digests {:?} != pinned",
                self.spec
            ));
        }
        if self.verdicts != pin.verdicts {
            out.push(format!("battery verdicts {:?} != pinned", self.verdicts));
        }
        out
    }
}

/// Runs one suite iteration, journaling under `work_dir`. Only the layer
/// calls are timed; output digests are taken between them.
///
/// # Panics
///
/// Panics when the journal cannot be written or read back.
pub fn iteration(size: Size, work_dir: &Path) -> Iteration {
    let mut it = Iteration::default();

    let t0 = Instant::now();
    let (reduced, reduced_stats) = explore_with_stats(&reduced_config(size), |_| Echo::new());
    it.reduced_s = t0.elapsed().as_secs_f64();
    it.reduced_runs = reduced.system.len();
    it.pruned = reduced_stats.states_canonicalized + reduced_stats.sleep_set_pruned;
    it.outputs.reduced = (reduced.system.len(), canonical_set(size, &reduced.system));
    drop(reduced);

    let spec = checkpoint_spec(size);
    let t0 = Instant::now();
    let spec_plain = explore_spec(&spec).expect("valid spec");
    it.spec_plain_s = t0.elapsed().as_secs_f64();
    let journal = work_dir.join("explore_check.ckpt");
    let _ = std::fs::remove_file(&journal);
    let t0 = Instant::now();
    let (checkpointed, _) =
        explore_spec_checkpointed(&spec, &journal, SyncPolicy::Never).expect("checkpoint");
    it.spec_checkpointed_s = t0.elapsed().as_secs_f64();
    tear(&journal);
    let t0 = Instant::now();
    let (_, resumed, _) = resume_checkpoint(&journal, SyncPolicy::Never).expect("resume");
    it.resume_ms = t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&journal);
    it.outputs.spec = [
        system_digest(&spec_plain.system),
        system_digest(&checkpointed.system),
        system_digest(&resumed.system),
    ];
    it.outputs.spec_complete = spec_plain.complete && checkpointed.complete && resumed.complete;
    drop((spec_plain, checkpointed, resumed));

    let t0 = Instant::now();
    let (plain, plain_stats) = explore_with_stats(&plain_config(size), |_| Echo::new());
    it.plain_s = t0.elapsed().as_secs_f64();
    it.plain_runs = plain.system.len();
    it.steals = plain_stats.steals + reduced_stats.steals;
    it.outputs.plain = (plain.system.len(), system_digest(&plain.system));
    it.outputs.spec_complete &= plain.complete;

    let formulas = battery(size);
    let t0 = Instant::now();
    let mut checker = ModelChecker::new(&plain.system);
    it.build_s = t0.elapsed().as_secs_f64();
    for f in &formulas {
        let t0 = Instant::now();
        let verdict = checker.valid(f).is_ok();
        it.query_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        it.outputs.verdicts.push(verdict);
    }
    it.table_bytes = checker.table_bytes();
    it.points = plain.system.point_count();
    it
}

/// Cuts the journal's tail mid-entry, as a crash during an append would.
fn tear(journal: &Path) {
    let len = std::fs::metadata(journal).expect("stat journal").len();
    let keep = len - len / 3;
    std::fs::OpenOptions::new()
        .write(true)
        .open(journal)
        .expect("open journal")
        .set_len(keep)
        .expect("tear journal");
}

/// Set-up: one smoke-size suite iteration, which spins the worker pool,
/// the allocator and the journal directory up. Returns seconds.
#[must_use]
pub fn setup(work_dir: &Path) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(iteration(Size::Smoke, work_dir));
    t0.elapsed().as_secs_f64()
}

/// Runs the workload: set-up three times, then suite iterations until
/// `seconds` have passed (at least two).
pub fn run(size: Size, seconds: f64, trace: bool, work_dir: &Path) -> Report {
    let setups: Vec<f64> = (0..3).map(|_| setup(work_dir)).collect();
    let pin = pinned(size);
    let mut report = Report::default();
    let mut iters = Vec::new();
    let start = Instant::now();
    while iters.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let it = iteration(size, work_dir);
        report.attempted += 5 + it.query_ms.len() as u64;
        let bad = it.outputs.mismatches(&pin);
        if !bad.is_empty() {
            report.failed += 1;
        }
        report.mismatches.extend(bad);
        iters.push(it);
    }
    // Each layer call and each battery query is summarized by its median
    // over the iterations, so a slow iteration moves no figure by itself.
    let med = |f: &dyn Fn(&Iteration) -> f64| median(&iters.iter().map(f).collect::<Vec<_>>());
    let queries: Vec<f64> = (0..iters[0].query_ms.len())
        .map(|q| med(&|i| i.query_ms[q]))
        .collect();
    if trace {
        let valid_s = queries.iter().sum::<f64>() / 1e3;
        let last = iters.last().expect("at least two iterations");
        report.metric("sim.explorer.plain_s", med(&|i| i.plain_s), "s");
        report.metric("sim.explorer.reduced_s", med(&|i| i.reduced_s), "s");
        report.metric("sim.explorer.runs", last.plain_runs as f64, "count");
        report.metric("sim.explorer.pruned", last.pruned as f64, "count");
        report.metric(
            "sim.checkpoint.overhead_frac",
            med(&|i| i.spec_checkpointed_s / i.spec_plain_s - 1.0),
            "ratio",
        );
        report.metric("epistemic.build_s", med(&|i| i.build_s), "s");
        report.metric("epistemic.valid_s", valid_s, "s");
        report.metric(
            "epistemic.points_per_s",
            (last.points * last.query_ms.len()) as f64 / valid_s,
            "1/s",
        );
        report.metric("epistemic.table_bytes", last.table_bytes as f64, "bytes");
        report.metric("par.steals", med(&|i| i.steals as f64), "count");
    } else {
        report.metric("setup_s", median(&setups), "s");
        let wall_s = med(&|i| i.plain_s)
            + med(&|i| i.reduced_s)
            + med(&|i| i.spec_plain_s)
            + med(&|i| i.spec_checkpointed_s)
            + med(&|i| i.resume_ms) / 1e3
            + med(&|i| i.build_s)
            + queries.iter().sum::<f64>() / 1e3;
        report.metric("wall_s", wall_s, "s");
        report.metric("p50_ms", quantile(&queries, 0.5), "ms");
        report.metric("p99_ms", quantile(&queries, 0.99), "ms");
        report.metric("outage_ms", med(&|i| i.resume_ms), "ms");
    }
    report
}
