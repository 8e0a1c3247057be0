//! The benchmark's own tests: every workload at smoke size with its output
//! checks, the pinned `explore_check` outputs proven against
//! `explore_reference` and across thread counts, and the metric catalogue
//! kept in step with `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the full-size proof explores 510,814 runs twice and peaks near 1.1 GB.

use ktudc_epistemic::ModelChecker;
use ktudc_model::ProcessId;
use ktudc_perfbench::catalogue;
use ktudc_perfbench::explore_check::{self, Echo, Outputs, Size};
use ktudc_perfbench::report::Report;
use ktudc_perfbench::routed_failover;
use ktudc_sim::wire::WireProto;
use ktudc_sim::{explore_reference, system_digest, WireProtocol};
use std::path::PathBuf;
use std::sync::Mutex;

/// The tests share two cores and time-sensitive daemons, so they run one
/// at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ktudc-perfbench-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn assert_clean(report: &Report, trace: bool) {
    assert!(
        report.correct(),
        "output checks failed: {:?}",
        report.mismatches
    );
    assert_eq!(report.failed, 0, "failed operations");
    assert!(report.attempted > 0);
    let report = catalogue::complete(report.clone(), trace);
    assert!(
        report.correct(),
        "catalogue mismatch: {:?}",
        report.mismatches
    );
}

#[test]
fn explore_check_smoke_passes_its_output_checks() {
    let _serial = serial();
    let dir = work_dir("explore");
    for trace in [false, true] {
        let report = explore_check::run(Size::Smoke, 0.0, trace, &dir);
        assert_clean(&report, trace);
    }
    let report = explore_check::run(Size::Smoke, 0.0, false, &dir);
    for (name, _) in catalogue::END_TO_END {
        assert!(report.get(name).unwrap_or(0.0) > 0.0, "{name} not measured");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn routed_failover_smoke_passes_its_output_checks() {
    let _serial = serial();
    for trace in [false, true] {
        let report = routed_failover::run(true, 5, 4.0, trace);
        assert_clean(&report, trace);
        if trace {
            assert!(report.get("detector.detect_ms").unwrap_or(0.0) > 0.0);
            assert!(report.get("router.failovers").unwrap_or(0.0) > 0.0);
        } else {
            for (name, _) in catalogue::END_TO_END {
                assert!(report.get(name).unwrap_or(0.0) > 0.0, "{name} not measured");
            }
        }
    }
}

/// The outputs `pinned(size)` promises, in `--print-outputs` form.
fn promised(size: Size) -> Outputs {
    let pin = explore_check::pinned(size);
    Outputs {
        plain: (pin.plain_runs, pin.plain_digest),
        reduced: (pin.reduced_runs, pin.reduced_canon),
        spec: [pin.spec_digest; 3],
        spec_complete: true,
        verdicts: pin.verdicts,
    }
}

/// The pins, recomputed from the clone-per-branch reference explorer:
/// the plain system's digest, the reduced system's canonical cover (the
/// reference's full system has the same untimed orbits), the one-shot
/// spec's digest, and the battery verdicts.
fn prove_against_reference(size: Size) {
    let pin = explore_check::pinned(size);
    let reference = explore_reference(&explore_check::plain_config(size), |_| Echo::new());
    assert!(reference.complete);
    assert_eq!(reference.system.len(), pin.plain_runs, "plain run count");
    assert_eq!(
        system_digest(&reference.system),
        pin.plain_digest,
        "plain digest"
    );
    assert_eq!(
        explore_check::canonical_set(size, &reference.system),
        pin.reduced_canon,
        "reduced system's canonical cover"
    );
    let mut checker = ModelChecker::new(&reference.system);
    let verdicts: Vec<bool> = explore_check::battery(size)
        .iter()
        .map(|f| checker.valid(f).is_ok())
        .collect();
    assert_eq!(verdicts, pin.verdicts, "battery verdicts");
    drop(checker);
    drop(reference);

    let spec = explore_check::checkpoint_spec(size);
    let config = spec.to_config().expect("valid spec");
    let WireProtocol::OneShot { from, to, msg } = spec.protocol else {
        panic!("the checkpointed spec is a one-shot send");
    };
    let spec_reference = explore_reference(&config, move |me| WireProto::OneShot {
        me,
        from: ProcessId::new(from),
        to: ProcessId::new(to),
        msg,
        sent: false,
    });
    assert_eq!(
        system_digest(&spec_reference.system),
        pin.spec_digest,
        "spec digest"
    );
}

/// `--print-outputs` of the built benchmark under `threads` (None: the
/// default thread count).
fn printed_outputs(size: Size, threads: Option<&str>) -> String {
    let dir = work_dir("threads");
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_ktudc-perfbench"));
    cmd.arg("--print-outputs").current_dir(&dir);
    if size == Size::Smoke {
        cmd.arg("--smoke");
    }
    match threads {
        Some(n) => cmd.env("KTUDC_THREADS", n),
        None => cmd.env_remove("KTUDC_THREADS"),
    };
    let out = cmd.output().expect("run benchmark binary");
    let _ = std::fs::remove_dir_all(dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .trim()
        .to_string()
}

#[test]
fn smoke_pins_hold_against_reference_and_across_thread_counts() {
    let _serial = serial();
    prove_against_reference(Size::Smoke);
    let want = format!("{:?}", promised(Size::Smoke));
    assert_eq!(printed_outputs(Size::Smoke, Some("1")), want);
    assert_eq!(printed_outputs(Size::Smoke, None), want);
}

#[test]
fn full_pins_hold_against_reference_and_across_thread_counts() {
    let _serial = serial();
    prove_against_reference(Size::Full);
    let want = format!("{:?}", promised(Size::Full));
    assert_eq!(printed_outputs(Size::Full, Some("1")), want);
    assert_eq!(printed_outputs(Size::Full, None), want);
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let json: serde::Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
    let names = |key: &str| -> Vec<(String, String)> {
        let Some(serde::Value::Array(items)) = json.get(key) else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|item| {
                let field = |f: &str| match item.get(f) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&catalogue::END_TO_END));
    assert_eq!(names("per_layer"), own(&catalogue::PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, catalogue::WORKLOADS);
}
