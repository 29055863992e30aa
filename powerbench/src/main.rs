//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path powerbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host fingerprint and every metric with its unit and
//! sample count as `#` lines, then one JSON result object as the last
//! line: the end-to-end metrics with `--trace 0`, the per-layer and
//! exact metrics with `--trace 1`. A failed output check exits non-zero
//! without a result line. A traced run writes its spans to
//! `powerbench/out/spans-<workload>-<seed>.jsonl`.

use fluxpm_powerbench::report;
use fluxpm_powerbench::{run_workload, Size};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"",
        env!("POWERBENCH_RUSTC")
    )
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("powerbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# host: {}", fingerprint());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (out, tracer) = match run_workload(
        &args.workload,
        Size::Standard,
        args.seed,
        args.seconds as f64,
        args.trace,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("powerbench: check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let end_to_end = report::canonical(report::END_TO_END, &out.end_to_end);
    let exact = report::canonical(report::EXACT, &out.exact);
    print!(
        "{}",
        report::table("end-to-end (reference seconds)", &end_to_end)
    );
    print!("{}", report::table("host (raw host seconds)", &out.host));
    print!("{}", report::table("end-to-end (exact)", &exact));
    println!(
        "# iterations={} attempted={} failed={} digest={:016x}",
        out.iterations, out.attempted, out.failed, out.digest
    );
    let metrics = if args.trace {
        let layers = report::canonical(report::PER_LAYER, &out.layers);
        print!("{}", report::table("per-layer (traced run)", &layers));
        let path = std::path::Path::new("powerbench/out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("powerbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans: {} -> {}", tracer.spans().len(), path.display());
        layers.into_iter().chain(exact).collect()
    } else {
        end_to_end
    };
    println!(
        "{}",
        report::result_json(true, out.attempted, out.failed, &metrics)
    );
    ExitCode::SUCCESS
}
