//! Seeded request populations: distinct, cacheable Table-1 cells.

use crate::report::Rng;
use ktudc_core::harness::{CellSpec, FdChoice, ProtocolChoice};
use ktudc_serve::RequestKind;
use std::collections::HashSet;

/// Oracle failure detectors a cell may use. `Cycling` is left out because
/// it refuses `t ≥ n/2` and every population cell must compute;
/// `TUseful` because its cells cost 5–20× the median one, so which few of
/// them land among the popular keys would set the tail latency by seed.
const FDS: [FdChoice; 5] = [
    FdChoice::None,
    FdChoice::Weak,
    FdChoice::ImpermanentStrong,
    FdChoice::Strong,
    FdChoice::Perfect,
];

/// Every protocol of Table 1.
pub const PROTOCOLS: [ProtocolChoice; 3] = [
    ProtocolChoice::Reliable,
    ProtocolChoice::StrongFd,
    ProtocolChoice::Generalized,
];

/// Horizons of the cheap cells that warm a daemon up (≈ 0.1 ms each).
pub const LIGHT: std::ops::Range<usize> = 60..150;

/// `count` distinct cells (n 3–5, any t, reliable or lossy channel, oracle
/// FD, one of `protocols`, one trial, horizon in `horizons`), in seeded
/// order. One trial keeps each computation on the worker that admitted
/// it; cells drawn from disjoint horizon ranges never coincide.
#[must_use]
pub fn cells(
    seed: u64,
    count: usize,
    horizons: std::ops::Range<usize>,
    protocols: &[ProtocolChoice],
) -> Vec<CellSpec> {
    let mut rng = Rng::new(seed, 0xce11);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let n = 3 + rng.below(3);
        let t = 1 + rng.below(n - 1);
        let drop_prob = match rng.below(4) {
            0 => None,
            k => Some(k as f64 / 10.0),
        };
        let spec = CellSpec::new(
            n,
            t,
            drop_prob,
            FDS[rng.below(FDS.len())],
            protocols[rng.below(protocols.len())],
        )
        .trials(1)
        .horizon((horizons.start + rng.below(horizons.len())) as u64);
        if seen.insert(serde_json::to_string(&spec).expect("encode")) {
            out.push(spec);
        }
    }
    out
}

/// The request body for a cell.
#[must_use]
pub fn kind(spec: &CellSpec) -> RequestKind {
    RequestKind::Cell(spec.clone())
}
