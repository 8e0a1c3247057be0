//! `ktudc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with exactly `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. A provenance line (commit, rustc, cores, thread count,
//! seed) precedes it. Exits 1 when an output check failed, 2 on bad usage.
//!
//! `--smoke` shrinks every workload for the benchmark's own tests;
//! `--print-outputs` prints the pinned `explore_check` outputs instead of
//! running a workload.

use ktudc_perfbench::explore_check::{self, Size};
use ktudc_perfbench::report::Report;
use ktudc_perfbench::{catalogue, routed_failover};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    print_outputs: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        print_outputs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--print-outputs" => args.print_outputs = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.print_outputs && !catalogue::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, not {:?}",
            catalogue::WORKLOADS,
            args.workload
        ));
    }
    Ok(args)
}

/// First line of a command's stdout, or `unknown`.
fn probe(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args) -> String {
    let fields = vec![
        ("workload", serde::Value::Str(args.workload.clone())),
        ("seed", serde::Value::UInt(u128::from(args.seed))),
        ("trace", serde::Value::Bool(args.trace)),
        (
            "commit",
            serde::Value::Str(probe("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", serde::Value::Str(probe("rustc", &["--version"]))),
        (
            "nproc",
            serde::Value::UInt(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u128,
            ),
        ),
        (
            "threads",
            serde::Value::UInt(ktudc_par::thread_count() as u128),
        ),
    ];
    let object = serde::Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    serde_json::to_string(&serde::Value::Object(vec![(
        "provenance".to_string(),
        object,
    )]))
    .expect("provenance encodes")
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ktudc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let size = if args.smoke { Size::Smoke } else { Size::Full };
    let work_dir = Path::new(".bench_work");
    if let Err(e) = std::fs::create_dir_all(work_dir) {
        eprintln!("ktudc-perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    if args.print_outputs {
        let it = explore_check::iteration(size, work_dir);
        let _ = std::fs::remove_dir_all(work_dir);
        println!("{:?}", it.outputs);
        return ExitCode::SUCCESS;
    }
    let report: Report = match args.workload.as_str() {
        "explore_check" => explore_check::run(size, args.seconds, args.trace, work_dir),
        _ => routed_failover::run(args.smoke, args.seed, args.seconds, args.trace),
    };
    let _ = std::fs::remove_dir_all(work_dir);
    let report = catalogue::complete(report, args.trace);
    for m in &report.mismatches {
        eprintln!("ktudc-perfbench: output check failed: {m}");
    }
    println!("{}", provenance(&args));
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
