//! `vaerperf` — the VAER benchmark.
//!
//! ```text
//! vaerperf --workload <learn|supervised> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's tables from `--seed` with `vaer-data`, drives
//! VAER through its public API in a closed loop with one caller, checks
//! every op, and prints the end-to-end metrics (`--trace 0`, telemetry
//! off) or the per-layer metrics of a traced run (`--trace 1`, telemetry
//! at `summary` so the allocator counts). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is 0 only when every op passed its checks.
//! See `README.md` beside this crate for every metric.

mod metrics;
mod ops;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str =
    "usage: vaerperf --workload <learn|supervised> --seed <n> --seconds <s> --trace <0|1>";

/// Environment knobs that would change what is measured: injected
/// faults, deadlines, checkpoint I/O, a telemetry level other than the
/// one each run sets, a scoring lane other than the configured one, or
/// a worker width other than the default.
const REFUSED_ENV: &[&str] = &[
    "VAER_FAILPOINTS",
    "VAER_DEADLINE_MS",
    "VAER_CKPT_DIR",
    "VAER_OBS",
    "VAER_SCORE_PRECISION",
    "VAER_THREADS",
];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The set environment knobs of [`REFUSED_ENV`].
fn refused_env() -> Vec<&'static str> {
    REFUSED_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

/// The kernel tiers this CPU dispatches to, detected the way the
/// kernels detect them: f32 matmul/distance (AVX2 or scalar) and int8
/// GEMM (AVX-512 VNNI, AVX2 or scalar).
fn simd_tiers() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let vnni = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vnni");
        let f32_tier = if avx2 { "avx2" } else { "scalar" };
        let i8_tier = if vnni {
            "avx512vnni"
        } else if avx2 {
            "avx2"
        } else {
            "scalar"
        };
        format!("f32={f32_tier} int8={i8_tier}")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "f32=scalar int8=scalar".to_string()
    }
}

/// The commit of the working directory, read from `.git` without
/// leaving it; `None` outside a git checkout.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(PathBuf::from(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vaerperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let refused = refused_env();
    if !refused.is_empty() {
        eprintln!(
            "vaerperf: refusing to run with {} set; unset it to measure the default path",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }
    let level = if args.trace {
        vaer_obs::Level::Summary
    } else {
        vaer_obs::Level::Off
    };
    vaer_obs::set_level(level);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "vaerperf workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env nproc={nproc} workers={} simd={} obs={} commit={} load=closed-loop,1-client",
        vaer_linalg::runtime::threads(),
        simd_tiers(),
        vaer_obs::level().name(),
        commit().unwrap_or_else(|| "unknown(no .git)".into())
    );

    let outcome = match workloads::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vaerperf: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    for line in outcome.ledger.lines() {
        println!("{line}");
    }
    println!(
        "ops attempted={} failed={} error_rate={}",
        outcome.ledger.attempted,
        outcome.ledger.failed,
        outcome.ledger.error_rate()
    );
    let catalogue = if args.trace {
        let path = PathBuf::from(".bench_out").join(format!(
            "vaerperf-{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
        match outcome.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans {} ({} spans)",
                path.display(),
                outcome.tracer.spans().len()
            ),
            Err(e) => {
                eprintln!("vaerperf: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    print!("{}", outcome.report.table(catalogue));
    match outcome
        .report
        .result_line(catalogue, outcome.ledger.attempted, outcome.ledger.failed)
    {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("vaerperf: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.ledger.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_a_full_command_line() {
        assert_eq!(
            parse("--workload supervised --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: Workload::Supervised,
                seed: 7,
                seconds: 10.0,
                trace: true
            })
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload learn --seed x --seconds 1 --trace 0",
            "--workload learn --seed 1 --seconds 0 --trace 0",
            "--workload learn --seed 1 --seconds 1 --trace 2",
            "--workload learn --seed 1 --seconds 1",
            "--workload learn --seed",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad} accepted");
        }
    }
}
