//! The ktudc repository benchmark: two workloads, each reporting
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! separate traced run. See `README.md` in this directory for the
//! workload and metric catalogue.

pub mod catalogue;
pub mod explore_check;
pub mod gen;
pub mod population;
pub mod report;
pub mod routed_failover;
pub mod serving;
