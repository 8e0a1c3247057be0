//! Compact binary codec for the hot checkpoint-journal entries.
//!
//! Measured on the perf recovery workload, JSON encoding of `Subtree`
//! entries costs several times the exploration itself — the journaling
//! tax was ~97% serialization. This codec writes the same information in
//! a dense little-endian form (tag bytes for event variants, raw
//! integers for times and process indices), an order of magnitude
//! smaller and faster than the JSON path.
//!
//! Only the run-carrying entries (`Subtree`, `Leaves`) use it; the
//! `Header` entry stays JSON so `resume` can keep reading the pinned
//! [`ExploreSpec`](crate::wire::ExploreSpec) with serde. The two formats
//! coexist in one journal and are distinguished by the first byte: JSON
//! entries start with `{` (0x7B), binary entries with a tag in
//! `0x01..=0x02`. Journals written before this codec existed are pure
//! JSON and still decode.
//!
//! Decoding does not trust the bytes: runs are rebuilt through
//! [`RunBuilder`] in slot order (tick-ascending, process-ascending —
//! exactly how the explorer generated them), so every model-level
//! validity rule (R2 one-event-per-tick, R4 crash-finality, channel
//! send/receive matching) is re-checked. A corrupted-but-checksummed
//! entry surfaces as a decode error, never as an inconsistent run.

use crate::wire::WireMsg;
use ktudc_model::{ActionId, Event, ProcSet, ProcessId, Run, RunBuilder, SuspectReport, Time};

/// Entry tag for a `Subtree` payload.
pub const TAG_SUBTREE: u8 = 0x01;
/// Entry tag for a `Leaves` payload.
pub const TAG_LEAVES: u8 = 0x02;

const EV_SEND: u8 = 0x00;
const EV_RECV: u8 = 0x01;
const EV_INIT: u8 = 0x02;
const EV_DO: u8 = 0x03;
const EV_CRASH: u8 = 0x04;
const EV_SUSPECT: u8 = 0x05;
const SUSPECT_STANDARD: u8 = 0x00;
const SUSPECT_GENERALIZED: u8 = 0x01;

/// A decoded run-carrying entry.
#[derive(Debug, PartialEq, Eq)]
pub enum RunsEntry {
    /// A completed subtree: frontier index plus its capped DFS output.
    Subtree {
        /// The subtree's frontier index.
        index: usize,
        /// The subtree's runs.
        runs: Vec<Run<WireMsg>>,
        /// Whether the subtree hit no run cap.
        complete: bool,
    },
    /// A whole exploration's assembled result (written by older
    /// versions for trees that fit inside the frontier; still decoded).
    Leaves {
        /// The assembled runs.
        runs: Vec<Run<WireMsg>>,
        /// Whether the exploration hit no run cap.
        complete: bool,
    },
}

/// Encodes a `Subtree` entry from borrowed runs (no intermediate clone).
#[must_use]
pub fn encode_subtree(index: usize, runs: &[Run<WireMsg>], complete: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + runs.iter().map(run_size_hint).sum::<usize>());
    out.push(TAG_SUBTREE);
    out.extend_from_slice(
        &u32::try_from(index)
            .expect("subtree index fits u32")
            .to_le_bytes(),
    );
    push_runs(&mut out, runs, complete);
    out
}

/// Encodes a `Leaves` entry from borrowed runs. Current versions only
/// read such entries; tests use this to build older-format journals.
#[cfg(test)]
#[must_use]
pub fn encode_leaves(runs: &[Run<WireMsg>], complete: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + runs.iter().map(run_size_hint).sum::<usize>());
    out.push(TAG_LEAVES);
    push_runs(&mut out, runs, complete);
    out
}

/// Whether an entry's bytes are in this binary format (as opposed to the
/// legacy/Header JSON form, which always starts with `{`).
#[must_use]
pub fn is_binary(bytes: &[u8]) -> bool {
    matches!(bytes.first(), Some(&TAG_SUBTREE | &TAG_LEAVES))
}

/// Decodes a binary entry, revalidating every run through [`RunBuilder`].
///
/// # Errors
///
/// Returns a description of the first malformed byte range or
/// model-validity violation.
pub fn decode(bytes: &[u8]) -> Result<RunsEntry, String> {
    let mut r = Reader { bytes, at: 0 };
    let tag = r.u8()?;
    match tag {
        TAG_SUBTREE => {
            let index = r.u32()? as usize;
            let (runs, complete) = read_runs(&mut r)?;
            r.done()?;
            Ok(RunsEntry::Subtree {
                index,
                runs,
                complete,
            })
        }
        TAG_LEAVES => {
            let (runs, complete) = read_runs(&mut r)?;
            r.done()?;
            Ok(RunsEntry::Leaves { runs, complete })
        }
        other => Err(format!("unknown checkpoint entry tag {other:#04x}")),
    }
}

fn run_size_hint(run: &Run<WireMsg>) -> usize {
    // ~12 bytes per event plus fixed run framing; an estimate, only used
    // to seed the Vec capacity.
    16 + (0..run.n())
        .map(|p| 4 + run.history(ProcessId::new(p)).len() * 12)
        .sum::<usize>()
}

fn push_runs(out: &mut Vec<u8>, runs: &[Run<WireMsg>], complete: bool) {
    out.push(u8::from(complete));
    out.extend_from_slice(
        &u32::try_from(runs.len())
            .expect("run count fits u32")
            .to_le_bytes(),
    );
    for run in runs {
        push_run(out, run);
    }
}

fn push_run(out: &mut Vec<u8>, run: &Run<WireMsg>) {
    out.push(u8::try_from(run.n()).expect("process count fits u8"));
    out.extend_from_slice(&run.horizon().to_le_bytes());
    for p in 0..run.n() {
        let p = ProcessId::new(p);
        let count = run.history(p).len();
        out.extend_from_slice(
            &u32::try_from(count)
                .expect("event count fits u32")
                .to_le_bytes(),
        );
        for (time, event) in run.timed_history(p) {
            out.extend_from_slice(&time.to_le_bytes());
            push_event(out, event);
        }
    }
}

fn push_event(out: &mut Vec<u8>, event: &Event<WireMsg>) {
    match event {
        Event::Send { to, msg } => {
            out.push(EV_SEND);
            out.push(u8::try_from(to.index()).expect("process fits u8"));
            out.push(*msg);
        }
        Event::Recv { from, msg } => {
            out.push(EV_RECV);
            out.push(u8::try_from(from.index()).expect("process fits u8"));
            out.push(*msg);
        }
        Event::Init { action } => {
            out.push(EV_INIT);
            push_action(out, *action);
        }
        Event::Do { action } => {
            out.push(EV_DO);
            push_action(out, *action);
        }
        Event::Crash => out.push(EV_CRASH),
        Event::Suspect(report) => {
            out.push(EV_SUSPECT);
            match report {
                SuspectReport::Standard(set) => {
                    out.push(SUSPECT_STANDARD);
                    push_set(out, *set);
                }
                SuspectReport::Generalized { set, min_faulty } => {
                    out.push(SUSPECT_GENERALIZED);
                    push_set(out, *set);
                    out.extend_from_slice(
                        &u32::try_from(*min_faulty)
                            .expect("bound fits u32")
                            .to_le_bytes(),
                    );
                }
            }
        }
    }
}

fn push_action(out: &mut Vec<u8>, action: ActionId) {
    out.push(u8::try_from(action.initiator().index()).expect("process fits u8"));
    out.extend_from_slice(&action.seq().to_le_bytes());
}

fn push_set(out: &mut Vec<u8>, set: ProcSet) {
    let bits = set.iter().fold(0u128, |acc, p| acc | (1 << p.index()));
    out.extend_from_slice(&bits.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, len: usize) -> Result<&[u8], String> {
        let end = self.at.checked_add(len).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(format!(
                "checkpoint entry truncated at byte {} (wanted {len} more of {})",
                self.at,
                self.bytes.len()
            ));
        };
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn u128(&mut self) -> Result<u128, String> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 bytes"),
        ))
    }

    fn done(&self) -> Result<(), String> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "checkpoint entry has {} trailing bytes",
                self.bytes.len() - self.at
            ))
        }
    }
}

fn read_runs(r: &mut Reader) -> Result<(Vec<Run<WireMsg>>, bool), String> {
    let complete = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(format!("bad completeness byte {other:#04x}")),
    };
    let count = r.u32()? as usize;
    let mut runs = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        runs.push(read_run(r)?);
    }
    Ok((runs, complete))
}

fn read_run(r: &mut Reader) -> Result<Run<WireMsg>, String> {
    let n = r.u8()? as usize;
    if n == 0 || n > ProcessId::MAX_PROCESSES {
        return Err(format!("bad process count {n}"));
    }
    let horizon: Time = r.u64()?;
    let mut logs: Vec<Vec<(Time, Event<WireMsg>)>> = Vec::with_capacity(n);
    for _ in 0..n {
        let count = r.u32()? as usize;
        let mut log = Vec::with_capacity(count.min(1 << 20));
        let mut last: Time = 0;
        for _ in 0..count {
            let time = r.u64()?;
            if time < last || time > horizon {
                return Err(format!(
                    "event time {time} out of order or past horizon {horizon}"
                ));
            }
            last = time;
            log.push((time, read_event(r)?));
        }
        logs.push(log);
    }
    // Replay in slot order (tick-ascending, process-ascending — the
    // explorer's own generation order), so same-tick sends land before
    // the receives that consume them and the builder's validation holds.
    // Iterate only the ticks that carry events: a corrupted horizon is
    // bounded-checked above per event, but must not drive the loop
    // count (2^63 empty ticks would spin forever).
    let mut times: Vec<Time> = logs.iter().flatten().map(|&(t, _)| t).collect();
    times.sort_unstable();
    times.dedup();
    let mut builder = RunBuilder::new(n);
    let mut cursors = vec![0usize; n];
    for &t in &times {
        for (p, log) in logs.iter().enumerate() {
            let at = &mut cursors[p];
            while *at < log.len() && log[*at].0 == t {
                builder
                    .append(ProcessId::new(p), t, log[*at].1.clone())
                    .map_err(|e| format!("journaled run fails validation: {e}"))?;
                *at += 1;
            }
        }
    }
    Ok(builder.finish(horizon))
}

fn read_event(r: &mut Reader) -> Result<Event<WireMsg>, String> {
    match r.u8()? {
        EV_SEND => Ok(Event::Send {
            to: read_process(r)?,
            msg: r.u8()?,
        }),
        EV_RECV => Ok(Event::Recv {
            from: read_process(r)?,
            msg: r.u8()?,
        }),
        EV_INIT => Ok(Event::Init {
            action: read_action(r)?,
        }),
        EV_DO => Ok(Event::Do {
            action: read_action(r)?,
        }),
        EV_CRASH => Ok(Event::Crash),
        EV_SUSPECT => match r.u8()? {
            SUSPECT_STANDARD => Ok(Event::Suspect(SuspectReport::Standard(read_set(r)?))),
            SUSPECT_GENERALIZED => {
                let set = read_set(r)?;
                let min_faulty = r.u32()? as usize;
                Ok(Event::Suspect(SuspectReport::Generalized {
                    set,
                    min_faulty,
                }))
            }
            other => Err(format!("bad suspect-report tag {other:#04x}")),
        },
        other => Err(format!("bad event tag {other:#04x}")),
    }
}

fn read_process(r: &mut Reader) -> Result<ProcessId, String> {
    let i = r.u8()? as usize;
    if i >= ProcessId::MAX_PROCESSES {
        return Err(format!("process index {i} out of range"));
    }
    Ok(ProcessId::new(i))
}

fn read_action(r: &mut Reader) -> Result<ActionId, String> {
    let initiator = read_process(r)?;
    let seq = r.u32()?;
    Ok(ActionId::new(initiator, seq))
}

fn read_set(r: &mut Reader) -> Result<ProcSet, String> {
    let bits = r.u128()?;
    let mut set = ProcSet::new();
    for i in 0..ProcessId::MAX_PROCESSES {
        if bits & (1 << i) != 0 {
            set.insert(ProcessId::new(i));
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_runs() -> Vec<Run<WireMsg>> {
        // One run exercising every event variant, one trivial run.
        let mut b = RunBuilder::new(3);
        let alpha = ActionId::new(ProcessId::new(0), 0);
        b.append(ProcessId::new(0), 1, Event::Init { action: alpha })
            .unwrap();
        b.append(
            ProcessId::new(0),
            2,
            Event::Send {
                to: ProcessId::new(1),
                msg: 7,
            },
        )
        .unwrap();
        b.append(
            ProcessId::new(1),
            2,
            Event::Recv {
                from: ProcessId::new(0),
                msg: 7,
            },
        )
        .unwrap();
        b.append(
            ProcessId::new(1),
            3,
            Event::Suspect(SuspectReport::Standard(ProcSet::singleton(ProcessId::new(
                2,
            )))),
        )
        .unwrap();
        b.append(ProcessId::new(2), 3, Event::Crash).unwrap();
        b.append(ProcessId::new(0), 4, Event::Do { action: alpha })
            .unwrap();
        b.append(
            ProcessId::new(1),
            5,
            Event::Suspect(SuspectReport::Generalized {
                set: ProcSet::singleton(ProcessId::new(2)),
                min_faulty: 1,
            }),
        )
        .unwrap();
        let full = b.finish(6);
        let empty = RunBuilder::new(3).finish(6);
        vec![full, empty]
    }

    #[test]
    fn subtree_roundtrips_every_event_variant() {
        let runs = sample_runs();
        let bytes = encode_subtree(42, &runs, false);
        assert!(is_binary(&bytes));
        match decode(&bytes).expect("roundtrip") {
            RunsEntry::Subtree {
                index,
                runs: back,
                complete,
            } => {
                assert_eq!(index, 42);
                assert!(!complete);
                assert_eq!(back, runs);
            }
            other => panic!("wrong entry kind: {other:?}"),
        }
    }

    #[test]
    fn leaves_roundtrip() {
        let runs = sample_runs();
        let bytes = encode_leaves(&runs, true);
        match decode(&bytes).expect("roundtrip") {
            RunsEntry::Leaves {
                runs: back,
                complete,
            } => {
                assert!(complete);
                assert_eq!(back, runs);
            }
            other => panic!("wrong entry kind: {other:?}"),
        }
    }

    #[test]
    fn truncation_anywhere_is_an_error_never_a_panic() {
        let bytes = encode_subtree(7, &sample_runs(), true);
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "a {len}-byte prefix of a {}-byte entry must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn corrupt_interior_bytes_cannot_smuggle_an_invalid_run() {
        // Flip every byte in turn; each mutation must either fail to
        // decode or still decode to *model-valid* runs (the builder
        // replay re-checks validity; equality with the original is not
        // required — e.g. a flipped message byte is a different but
        // valid run).
        let runs = sample_runs();
        let bytes = encode_subtree(3, &runs, true);
        for at in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[at] ^= 0x40;
            if let Ok(RunsEntry::Subtree { runs, .. } | RunsEntry::Leaves { runs, .. }) =
                decode(&mutated)
            {
                for run in runs {
                    run.check_conditions(run.n())
                        .expect("decoded run must be valid");
                }
            }
        }
    }

    #[test]
    fn json_is_never_mistaken_for_binary() {
        assert!(!is_binary(b"{\"Header\":{}}"));
        assert!(!is_binary(b""));
    }
}
