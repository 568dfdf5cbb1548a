//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Workloads: `netsim_storm`, `netsim_lossy`, `rt_churn`, `mck_verify`
//! (see README.md for why each was chosen). Every run checks its outputs
//! against a correctness oracle. The last stdout line is the result:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics untraced (`--trace 0`) or the per-layer split (`--trace 1`).
//! The line before it is a detail record with the workload's own named
//! metrics, their units and sample counts, and the run's provenance. The
//! exit code is 0 only when every oracle held.

mod layers;
mod mck_wl;
mod netsim_wl;
mod report;
mod rt_wl;
mod stats;
mod sys;

use report::{per_layer, Outcome};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 0x5704_0001;
/// Seed kept out of tuning, for confirming a claimed gain.
const HELD_OUT_SEED: u64 = 20_261_017;

const WORKLOADS: [&str; 4] = ["netsim_storm", "netsim_lossy", "rt_churn", "mck_verify"];

/// Per-layer name prefixes a workload measures; the other layers do no
/// work on it and report 0.
fn measured_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "rt_churn" => &[
            "cpu.",
            "alloc.",
            "core.signals_per_call.",
            "latency_p99_ms",
            "trace.",
        ],
        "mck_verify" => &["mck.", "alloc.peak_bytes", "cpu.", "trace."],
        _ => &[
            "storm.",
            "netsim.",
            "core.",
            "obs.",
            "alloc.",
            "cpu.",
            "latency_p99_ms",
            "trace.",
        ],
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        let i = argv.iter().position(|a| a == name)?;
        argv.get(i + 1).map(String::as_str)
    };
    let workload = flag("--workload").ok_or("missing --workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = match flag("--seed") {
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}"))?,
        None => DEFAULT_SEED,
    };
    let seconds: f64 = match flag("--seconds") {
        Some(s) => s.parse().map_err(|_| format!("bad --seconds {s:?}"))?,
        None => 10.0,
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(a: &Args) -> Outcome {
    let mut out = match a.workload.as_str() {
        "netsim_storm" => netsim_wl::run(
            netsim_wl::Config {
                calls: netsim_wl::STORM_CALLS,
                lossy: false,
            },
            a.seed,
            a.seconds,
            a.trace,
        ),
        "netsim_lossy" => netsim_wl::run(
            netsim_wl::Config {
                calls: netsim_wl::LOSSY_CALLS,
                lossy: true,
            },
            a.seed,
            a.seconds,
            a.trace,
        ),
        "rt_churn" => rt_wl::run(a.seconds, a.trace),
        _ => mck_wl::run(a.seconds, a.trace),
    };
    if a.trace {
        let measured = measured_layers(&a.workload);
        for (name, _) in per_layer() {
            if !measured.iter().any(|p| name.starts_with(p)) {
                out.layers.entry(name).or_insert(0.0);
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = run(&args);
    out.fact("nproc", sys::nproc());
    out.fact(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    out.fact("commit", sys::commit());
    out.fact("default_seed", DEFAULT_SEED);
    out.fact("held_out_seed", HELD_OUT_SEED);
    println!("{}", out.detail_line(&args.workload, args.seed, args.trace));
    println!("{}", out.result_line(args.trace));
    if out.correct(args.trace) {
        ExitCode::SUCCESS
    } else {
        for m in &out.mismatches {
            eprintln!("perfbench: oracle mismatch: {m}");
        }
        for m in out.missing(args.trace) {
            eprintln!("perfbench: no figure for {m}");
        }
        ExitCode::FAILURE
    }
}
