//! Systems: sets of runs, with an index for indistinguishability.
//!
//! A *system* `R` is a set of runs (§2.1); knowledge is defined relative to a
//! system: `(R, r, m) ⊨ K_p φ` iff `φ` holds at **every** point `(r′, m′)` of
//! `R` with `r′_p(m′) = r_p(m)`. Evaluating `K_p` therefore needs, given a
//! local history, all points of the system sharing it.
//!
//! [`System`] resolves the whole `~_p` relation at construction. Each
//! process's local histories form a prefix trie: the class of a prefix is
//! the child of its parent prefix's class along the next event, looked up
//! exactly by `(parent class, event)`, so no history is ever hashed or
//! compared as a whole and two distinct histories can never share a class.
//! One pass over the runs advances every process's trie, cutting each
//! `(run, process)` timeline into contiguous blocks of constant history and
//! recording each block's class in a flat per-process table. The blocks are
//! then gathered into *equivalence classes*, one process per task. A query
//! is a binary search plus a slice borrow: no hashing, no history
//! comparison, no allocation. The epistemic checker leans on this heavily —
//! it evaluates `K_p` once per class instead of once per point.

use crate::hashing::StableHasher;
use crate::{Event, Point, ProcessId, Run, Time};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};
use std::ops::Range;

/// A contiguous block of points of one run sharing a local history for some
/// process: ticks `from ..= to` of run `run`, at which the process's history
/// prefix has length `len`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndistinguishableBlock {
    /// Run index within the system.
    pub run: usize,
    /// First tick of the block.
    pub from: Time,
    /// Last tick of the block (inclusive).
    pub to: Time,
    /// Length of the local history prefix throughout the block.
    pub len: usize,
}

impl IndistinguishableBlock {
    /// Iterates the points of the block.
    pub fn points(self) -> impl Iterator<Item = Point> {
        (self.from..=self.to).map(move |t| Point::new(self.run, t))
    }

    /// Number of points in the block.
    #[must_use]
    pub fn point_count(self) -> usize {
        (self.to - self.from) as usize + 1
    }
}

/// A finite system of runs over a common process set, indexed for the
/// indistinguishability relation `~_p`.
///
/// # Example
///
/// ```
/// use ktudc_model::{Event, ProcessId, RunBuilder, System};
///
/// let p0 = ProcessId::new(0);
/// let p1 = ProcessId::new(1);
/// let mut b = RunBuilder::<&str>::new(2);
/// b.append(p0, 1, Event::Send { to: p1, msg: "m" })?;
/// let r0 = b.finish(3);
///
/// let mut b = RunBuilder::<&str>::new(2);
/// b.append(p0, 2, Event::Send { to: p1, msg: "m" })?;
/// b.append(p1, 3, Event::Recv { from: p0, msg: "m" })?;
/// let r1 = b.finish(3);
///
/// let sys = System::new(vec![r0, r1]);
/// // After sending, p0 cannot tell the two runs apart at any tick:
/// let blocks = sys.indistinguishable_blocks(p0, 0, 1);
/// assert_eq!(blocks.iter().map(|b| b.run).collect::<Vec<_>>(), vec![0, 1]);
/// # Ok::<(), ktudc_model::ModelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct System<M> {
    runs: Vec<Run<M>>,
    n: usize,
    /// `classes[cid]` = the blocks of one `~_p` equivalence class, in run
    /// order. Class ids are grouped by process (see `class_offsets`) and
    /// assigned in first-encounter order over (process, run, tick), so they
    /// are deterministic for a given run list.
    classes: Vec<Vec<IndistinguishableBlock>>,
    /// `class_offsets[p] .. class_offsets[p + 1]` is the id range of
    /// process `p`'s classes. Length `n + 1`.
    class_offsets: Vec<u32>,
    /// `timelines[p]` = process `p`'s blocks in every run.
    timelines: Vec<Timelines>,
}

/// One process's blocks over all runs, flat: run `ri`'s blocks are
/// `blocks[starts[ri] .. starts[ri + 1]]`, ascending `(block_start,
/// class)` pairs partitioning `[0, horizon]`. Classes are numbered from 0
/// within the process (add `class_offsets[p]` for the global id), and
/// the `k`-th block of a run holds the history prefix of length `k`.
#[derive(Clone, Debug)]
struct Timelines {
    blocks: Vec<(Time, u32)>,
    starts: Vec<usize>,
}

impl Timelines {
    fn run(&self, ri: usize) -> &[(Time, u32)] {
        &self.blocks[self.starts[ri]..self.starts[ri + 1]]
    }
}

/// Below this many blocks in all, the class gather runs on the calling
/// thread: spawning workers would cost more than the gather itself.
const PARALLEL_GATHER_MIN_BLOCKS: usize = 1 << 16;

impl<M: Eq + Hash> System<M> {
    /// Builds a system from runs, resolving the full indistinguishability
    /// relation up front.
    ///
    /// # Panics
    ///
    /// Panics if the runs disagree on the number of processes, or if `runs`
    /// is empty (a system must be nonempty for knowledge to be well
    /// defined).
    #[must_use]
    pub fn new(runs: Vec<Run<M>>) -> Self {
        assert!(!runs.is_empty(), "a system must contain at least one run");
        let n = runs[0].n();
        assert!(
            runs.iter().all(|r| r.n() == n),
            "all runs of a system must share the same process set"
        );
        let (timelines, class_counts) = walk(&runs, n);
        let mut class_offsets = Vec::with_capacity(n + 1);
        class_offsets.push(0u32);
        for &count in &class_counts {
            let end = class_offsets[class_offsets.len() - 1] as usize + count;
            class_offsets.push(u32::try_from(end).expect("more than u32::MAX history classes"));
        }
        let horizons: Vec<Time> = runs.iter().map(Run::horizon).collect();
        let gather_process = |p: usize| gather(&timelines[p], &horizons, class_counts[p]);
        let blocks: usize = timelines.iter().map(|t| t.blocks.len()).sum();
        let per_process = if blocks < PARALLEL_GATHER_MIN_BLOCKS {
            (0..n).map(gather_process).collect()
        } else {
            ktudc_par::par_map((0..n).collect(), gather_process)
        };
        let classes = per_process.into_iter().flatten().collect();
        System {
            runs,
            n,
            classes,
            class_offsets,
            timelines,
        }
    }
}

/// A process's prefix trie and where the previous run left it.
struct Cursor<'a, M> {
    /// `(parent class, next event) → child class`; class 0, the empty
    /// history, is the implicit root.
    trie: HashMap<(u32, &'a Event<M>), u32, BuildHasherDefault<StableHasher>>,
    /// The previous run's history of this process.
    prev: &'a [Event<M>],
    /// `path[k]` = the class of `prev[..k]`.
    path: Vec<u32>,
}

impl<'a, M: Eq + Hash> Cursor<'a, M> {
    /// Moves to `history`, resolving the class of every prefix into
    /// `path`. Explored runs arrive in depth-first order, so most of a
    /// history is usually shared with the previous run's and needs no
    /// lookup.
    fn advance(&mut self, history: &'a [Event<M>]) {
        let shared = self
            .prev
            .iter()
            .zip(history)
            .take_while(|(a, b)| a == b)
            .count();
        self.path.truncate(shared + 1);
        for event in &history[shared..] {
            let parent = self.path[self.path.len() - 1];
            let next = self.trie.len() + 1;
            let class = *self.trie.entry((parent, event)).or_insert_with(|| {
                u32::try_from(next).expect("more than u32::MAX history classes")
            });
            self.path.push(class);
        }
        self.prev = history;
    }
}

/// One pass over the runs, advancing every process's prefix trie in step:
/// each run's logs are read once, and class ids come out in first-encounter
/// order over (run, tick) within each process. Returns the per-process
/// block tables and class counts.
fn walk<M: Eq + Hash>(runs: &[Run<M>], n: usize) -> (Vec<Timelines>, Vec<usize>) {
    let mut cursors: Vec<Cursor<'_, M>> = (0..n)
        .map(|_| Cursor {
            trie: HashMap::default(),
            prev: &[],
            path: vec![0],
        })
        .collect();
    let mut timelines: Vec<Timelines> = (0..n)
        .map(|_| Timelines {
            blocks: Vec::new(),
            starts: vec![0],
        })
        .collect();
    for run in runs {
        for (p, (c, t)) in ProcessId::all(n).zip(cursors.iter_mut().zip(&mut timelines)) {
            c.advance(run.history(p));
            // Event ticks partition [0, horizon] into blocks of constant
            // history. By R1/R2 they are >= 1 and strictly increasing, so
            // every prefix owns a nonempty block and its trie node is its
            // class.
            t.blocks.push((0, 0));
            for ((tick, _), &class) in run.timed_history(p).zip(&c.path[1..]) {
                debug_assert!(
                    tick > t.blocks[t.blocks.len() - 1].0,
                    "event ticks must be >= 1 and strictly increasing"
                );
                t.blocks.push((tick, class));
            }
            debug_assert!(
                t.blocks[t.blocks.len() - 1].0 <= run.horizon(),
                "event beyond the horizon"
            );
            t.starts.push(t.blocks.len());
        }
    }
    let counts = cursors.iter().map(|c| c.trie.len() + 1).collect();
    (timelines, counts)
}

/// Gathers one process's block table into its `count` classes, each block
/// list allocated at its exact size. Class ids here are the process-local
/// ones, so the result is that process's slice of the global class list.
fn gather(t: &Timelines, horizons: &[Time], count: usize) -> Vec<Vec<IndistinguishableBlock>> {
    let mut sizes = vec![0usize; count];
    for &(_, class) in &t.blocks {
        sizes[class as usize] += 1;
    }
    let mut classes: Vec<Vec<IndistinguishableBlock>> =
        sizes.into_iter().map(Vec::with_capacity).collect();
    for (run, &horizon) in horizons.iter().enumerate() {
        let blocks = t.run(run);
        for (len, &(from, class)) in blocks.iter().enumerate() {
            let to = blocks.get(len + 1).map_or(horizon, |&(next, _)| next - 1);
            classes[class as usize].push(IndistinguishableBlock { run, from, to, len });
        }
    }
    classes
}

impl<M> System<M> {
    /// All blocks of points of the system whose `p`-history equals the
    /// `p`-history at `(run, m)` — i.e. the equivalence class of `(run, m)`
    /// under `~_p`, as contiguous blocks in run order. Always includes a
    /// block containing `(run, m)` itself (reflexivity).
    ///
    /// # Panics
    ///
    /// Panics if `run` is out of range or `m` exceeds that run's horizon.
    #[must_use]
    pub fn indistinguishable_blocks(
        &self,
        p: ProcessId,
        run: usize,
        m: Time,
    ) -> &[IndistinguishableBlock] {
        &self.classes[self.class_id(p, run, m) as usize]
    }

    /// The equivalence-class id of point `(run, m)` under `~_p`. Ids are
    /// global across processes; use [`System::class_range`] for a process's
    /// id range.
    ///
    /// # Panics
    ///
    /// Panics if `run` is out of range or `m` exceeds that run's horizon.
    #[must_use]
    pub fn class_id(&self, p: ProcessId, run: usize, m: Time) -> u32 {
        let r = &self.runs[run];
        assert!(m <= r.horizon(), "tick {m} beyond horizon {}", r.horizon());
        let blocks = self.timelines[p.index()].run(run);
        let i = blocks.partition_point(|&(from, _)| from <= m) - 1;
        self.class_offsets[p.index()] + blocks[i].1
    }

    /// The blocks of equivalence class `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a class id of this system.
    #[must_use]
    pub fn class_blocks(&self, id: u32) -> &[IndistinguishableBlock] {
        &self.classes[id as usize]
    }

    /// The id range of process `p`'s equivalence classes; together with
    /// [`System::class_blocks`] this iterates the whole `~_p` partition
    /// without touching individual points.
    #[must_use]
    pub fn class_range(&self, p: ProcessId) -> Range<u32> {
        self.class_offsets[p.index()]..self.class_offsets[p.index() + 1]
    }

    /// Total number of equivalence classes over all processes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The number of processes shared by every run.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The runs of the system.
    #[must_use]
    pub fn runs(&self) -> &[Run<M>] {
        &self.runs
    }

    /// The run at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn run(&self, index: usize) -> &Run<M> {
        &self.runs[index]
    }

    /// Number of runs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Always `false`: systems are nonempty by construction. Provided for
    /// API completeness alongside [`System::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterates over every point `(r, m)` of the system, `m` ranging over
    /// `0 ..= horizon` of each run.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.runs
            .iter()
            .enumerate()
            .flat_map(|(ri, r)| (0..=r.horizon()).map(move |m| Point::new(ri, m)))
    }

    /// Total number of points.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.runs.iter().map(|r| r.horizon() as usize + 1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::hash_history;
    use crate::{Event, ProcSet, RunBuilder, SuspectReport};
    use proptest::prelude::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn send_run(tick: Time, horizon: Time) -> Run<&'static str> {
        let mut b = RunBuilder::new(2);
        b.append(p(0), tick, Event::Send { to: p(1), msg: "m" })
            .unwrap();
        b.finish(horizon)
    }

    /// One run's ascending `(block_start, class_id)` pairs for a process.
    type BlockTable = Vec<(Time, u32)>;

    /// A run's append script: `(process, tick gap, event kind)` entries.
    type Script = Vec<(usize, u64, u8)>;

    /// The index as `System::new` built it before the prefix trie: process
    /// by process, every history prefix is hashed whole and compared
    /// against the representatives of its hash bucket. Kept as the oracle
    /// the trie build is tested against. Returns the classes, the class
    /// offsets, and per process and run the ascending `(block_start,
    /// class_id)` pairs.
    fn reference_index<M: Eq + Hash>(
        runs: &[Run<M>],
    ) -> (
        Vec<Vec<IndistinguishableBlock>>,
        Vec<usize>,
        Vec<Vec<BlockTable>>,
    ) {
        let n = runs[0].n();
        let mut classes: Vec<Vec<IndistinguishableBlock>> = Vec::new();
        let mut class_offsets = vec![0];
        let mut run_blocks = Vec::new();
        for p in ProcessId::all(n) {
            let mut by_hash: HashMap<u64, Vec<u32>> = HashMap::new();
            let mut per_run = Vec::new();
            for (ri, run) in runs.iter().enumerate() {
                let mut table = Vec::new();
                let ticks: Vec<Time> = run.timed_history(p).map(|(t, _)| t).collect();
                let mut block_start: Time = 0;
                for (len, boundary) in ticks
                    .iter()
                    .copied()
                    .chain(std::iter::once(run.horizon() + 1))
                    .enumerate()
                {
                    if boundary > block_start {
                        let history = &run.history(p)[..len];
                        let candidates = by_hash.entry(hash_history(history)).or_default();
                        let cid = candidates
                            .iter()
                            .copied()
                            .find(|&c| {
                                let rep = classes[c as usize][0];
                                runs[rep.run].history(p)[..rep.len] == *history
                            })
                            .unwrap_or_else(|| {
                                let c = u32::try_from(classes.len()).unwrap();
                                classes.push(Vec::new());
                                candidates.push(c);
                                c
                            });
                        classes[cid as usize].push(IndistinguishableBlock {
                            run: ri,
                            from: block_start,
                            to: boundary - 1,
                            len,
                        });
                        table.push((block_start, cid));
                    }
                    block_start = boundary;
                }
                per_run.push(table);
            }
            run_blocks.push(per_run);
            class_offsets.push(classes.len());
        }
        (classes, class_offsets, run_blocks)
    }

    /// A run over `n` processes from a tiny event alphabet (sends of one of
    /// two payloads, and suspicions), so that histories in different runs
    /// often coincide. Each script entry is `(process, tick gap, kind)`;
    /// appends the builder rejects are skipped.
    fn small_alphabet_run(n: usize, script: &[(usize, u64, u8)], slack: u64) -> Run<u8> {
        let mut b = RunBuilder::new(n);
        let mut last = vec![0; n];
        for &(pi, gap, kind) in script {
            let (p, q) = (ProcessId::new(pi % n), ProcessId::new((pi + 1) % n));
            let event = match kind {
                0 | 1 => Event::Send { to: q, msg: kind },
                _ => Event::Suspect(SuspectReport::Standard(ProcSet::singleton(q))),
            };
            let tick = last[p.index()] + gap;
            if b.append(p, tick, event).is_ok() {
                last[p.index()] = tick;
            }
        }
        b.finish(last.iter().copied().max().unwrap_or(0) + slack)
    }

    fn runs_strategy() -> impl Strategy<Value = (usize, Vec<(Script, u64)>)> {
        (
            2usize..4,
            proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..3, 1u64..3, 0u8..3), 0..8),
                    0u64..3,
                ),
                2..9,
            ),
        )
    }

    /// Checks that the trie build and the hash-bucket reference agree
    /// exactly: same class count and ranges, the same blocks under every
    /// id, and the same class id at every point.
    fn check_against_reference(runs: Vec<Run<u8>>) -> Result<(), TestCaseError> {
        let n = runs[0].n();
        let (classes, offsets, run_blocks) = reference_index(&runs);
        let sys = System::new(runs);
        prop_assert_eq!(sys.class_count(), classes.len());
        for q in ProcessId::all(n) {
            let range = sys.class_range(q);
            prop_assert_eq!(
                (range.start as usize, range.end as usize),
                (offsets[q.index()], offsets[q.index() + 1])
            );
        }
        for (id, blocks) in classes.iter().enumerate() {
            prop_assert_eq!(sys.class_blocks(id as u32), blocks.as_slice());
        }
        for pt in sys.points() {
            for q in ProcessId::all(n) {
                let table = &run_blocks[q.index()][pt.run];
                let i = table.partition_point(|&(from, _)| from <= pt.time) - 1;
                prop_assert_eq!(sys.class_id(q, pt.run, pt.time), table[i].1);
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn trie_index_matches_the_hash_bucket_reference(input in runs_strategy()) {
            let (n, scripts) = input;
            let runs: Vec<Run<u8>> = scripts
                .iter()
                .map(|(script, slack)| small_alphabet_run(n, script, *slack))
                .collect();
            check_against_reference(runs)?;
        }
    }

    #[test]
    fn parallel_gather_matches_the_hash_bucket_reference() {
        // Enough runs that the class gather fans out across workers.
        let runs: Vec<Run<u8>> = (0..20_000u64)
            .map(|i| {
                let script: Script = (0..6)
                    .map(|k| {
                        (
                            (i >> k) as usize % 3,
                            1 + (i >> (2 * k)) % 2,
                            ((i / 7) >> k) as u8 % 3,
                        )
                    })
                    .collect();
                small_alphabet_run(3, &script, i % 3)
            })
            .collect();
        let blocks: usize = runs
            .iter()
            .flat_map(|r| ProcessId::all(3).map(move |q| r.history(q).len() + 1))
            .sum();
        assert!(blocks >= PARALLEL_GATHER_MIN_BLOCKS);
        check_against_reference(runs).unwrap();
    }

    #[test]
    fn blocks_partition_the_timeline() {
        let sys = System::new(vec![send_run(2, 5)]);
        // p0's history is empty on [0,1] and has one event on [2,5].
        let empty_blocks = sys.indistinguishable_blocks(p(0), 0, 0);
        assert_eq!(empty_blocks.len(), 1);
        assert_eq!((empty_blocks[0].from, empty_blocks[0].to), (0, 1));
        assert_eq!(empty_blocks[0].len, 0);
        let sent_blocks = sys.indistinguishable_blocks(p(0), 0, 3);
        assert_eq!(sent_blocks.len(), 1);
        assert_eq!((sent_blocks[0].from, sent_blocks[0].to), (2, 5));
        // p1 never observes anything: one block covering everything.
        let p1_blocks = sys.indistinguishable_blocks(p(1), 0, 4);
        assert_eq!((p1_blocks[0].from, p1_blocks[0].to), (0, 5));
    }

    #[test]
    fn cross_run_indistinguishability() {
        // Two runs where p0 sends at different ticks: after the send the
        // histories coincide, so the classes span both runs.
        let sys = System::new(vec![send_run(1, 4), send_run(3, 4)]);
        let blocks = sys.indistinguishable_blocks(p(0), 0, 2);
        let runs: Vec<usize> = blocks.iter().map(|b| b.run).collect();
        assert_eq!(runs, vec![0, 1]);
        // Point expansion covers the right ticks.
        let pts: Vec<Point> = blocks.iter().flat_map(|b| b.points()).collect();
        assert!(pts.contains(&Point::new(0, 1)));
        assert!(pts.contains(&Point::new(1, 3)));
        assert!(!pts.contains(&Point::new(1, 2))); // history still empty there
    }

    #[test]
    fn reflexivity() {
        let sys = System::new(vec![send_run(1, 3)]);
        for pt in sys.points() {
            for q in ProcessId::all(2) {
                let blocks = sys.indistinguishable_blocks(q, pt.run, pt.time);
                assert!(
                    blocks
                        .iter()
                        .any(|b| b.run == pt.run && b.from <= pt.time && pt.time <= b.to),
                    "point {pt} missing from its own ~_{q} class"
                );
            }
        }
    }

    #[test]
    fn distinguishable_histories_are_separated() {
        let mut b = RunBuilder::<&str>::new(2);
        b.append(p(0), 1, Event::Send { to: p(1), msg: "x" })
            .unwrap();
        let rx = b.finish(3);
        let sys = System::new(vec![send_run(1, 3), rx]);
        // At tick 1, p0 sent "m" in run 0 and "x" in run 1: different classes.
        let blocks = sys.indistinguishable_blocks(p(0), 0, 1);
        assert!(blocks.iter().all(|b| b.run == 0));
        // p1 saw nothing in either: same class.
        let blocks = sys.indistinguishable_blocks(p(1), 0, 1);
        assert_eq!(blocks.len(), 2);
    }

    #[test]
    fn points_enumeration_and_count() {
        let sys = System::new(vec![send_run(1, 2), send_run(1, 4)]);
        assert_eq!(sys.point_count(), 3 + 5);
        assert_eq!(sys.points().count(), 8);
        assert_eq!(sys.len(), 2);
        assert!(!sys.is_empty());
        assert_eq!(sys.n(), 2);
        assert_eq!(sys.run(1).horizon(), 4);
    }

    #[test]
    fn class_index_is_consistent() {
        let sys = System::new(vec![send_run(1, 4), send_run(3, 4), send_run(1, 4)]);
        for q in ProcessId::all(2) {
            let range = sys.class_range(q);
            // Every point's class id is in its process's range, and the
            // class's blocks contain the point.
            for pt in sys.points() {
                let cid = sys.class_id(q, pt.run, pt.time);
                assert!(range.contains(&cid));
                assert!(sys
                    .class_blocks(cid)
                    .iter()
                    .any(|b| b.run == pt.run && b.from <= pt.time && pt.time <= b.to));
                assert_eq!(
                    sys.class_blocks(cid),
                    sys.indistinguishable_blocks(q, pt.run, pt.time)
                );
            }
            // Each class's blocks are disjoint, in run order, and their
            // union over the range partitions all points.
            let mut covered = 0;
            for cid in range {
                let blocks = sys.class_blocks(cid);
                assert!(!blocks.is_empty());
                for w in blocks.windows(2) {
                    assert!(w[0].run < w[1].run || (w[0].run == w[1].run && w[0].to < w[1].from));
                }
                covered += blocks.iter().map(|b| b.point_count()).sum::<usize>();
            }
            assert_eq!(covered, sys.point_count());
        }
        assert_eq!(
            sys.class_count(),
            (0..2).map(|q| sys.class_range(p(q)).len()).sum::<usize>()
        );
    }

    #[test]
    fn class_ids_are_deterministic() {
        let build = || System::new(vec![send_run(1, 4), send_run(3, 4)]);
        let a = build();
        let b = build();
        for pt in a.points() {
            for q in ProcessId::all(2) {
                assert_eq!(
                    a.class_id(q, pt.run, pt.time),
                    b.class_id(q, pt.run, pt.time)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_system_panics() {
        let _ = System::<u8>::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "same process set")]
    fn mismatched_process_counts_panic() {
        let r2 = send_run(1, 2);
        let mut b = RunBuilder::<&str>::new(3);
        b.append(p(0), 1, Event::Crash).unwrap();
        let r3 = b.finish(2);
        let _ = System::new(vec![r2, r3]);
    }
}
