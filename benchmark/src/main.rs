//! Command line of the benchmark.
//!
//! ```text
//! csds-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! csds-benchmark run --seed <u64> [--smoke]
//! csds-benchmark compare <A.json> <B.json>
//! ```

use std::path::Path;
use std::process::ExitCode;

use csds_benchmark::{execute_segment, run_one, suite, workloads::NAMES, RunSpec};

const USAGE: &str = "usage:
  csds-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
      one run of one workload; the last output line is its result as JSON
  csds-benchmark run --seed <u64> [--smoke]
      every workload, repeated; writes out/results.json
  csds-benchmark compare <A.json> <B.json>
      judge B against A by the bounds in BENCHMARK.json";

/// Value of `--flag` in `args`.
fn flag<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {flag} <value>"))
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name)?;
    raw.parse()
        .map_err(|_| format!("bad value for {name}: {raw:?}"))
}

/// The flags a run and each of its segments share.
fn run_flags(args: &[String]) -> Result<RunSpec<'_>, String> {
    let seconds: f64 = parse(args, "--seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(RunSpec {
        workload: flag(args, "--workload")?,
        seed: parse(args, "--seed")?,
        seconds,
        trace: match flag(args, "--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
    })
}

/// One run: every metric by name with its unit, then the result line.
/// `Ok(false)` when the program's outputs were wrong.
fn one_run(args: &[String]) -> Result<bool, String> {
    let spec = run_flags(args)?;
    let workload = spec.workload;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = run_one(&exe, spec)?;
    for (name, value, unit) in &out.metrics {
        println!("{name} = {value} {unit}");
    }
    for e in &out.errors {
        eprintln!("{workload}: check failed: {e}");
    }
    println!("{}", out.to_json().render());
    Ok(out.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("run") => parse(&args, "--seed")
            .and_then(|seed| suite::run_suite(seed, args.iter().any(|a| a == "--smoke")))
            .map(|()| true),
        // What a run starts for each of its segments; not for people.
        Some("segment") => run_flags(&args).and_then(|spec| {
            let segment = execute_segment(spec, parse(&args, "--index")?)?;
            println!("{}", segment.render());
            Ok(true)
        }),
        Some("compare") if args.len() == 3 => {
            suite::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some(first) if first.starts_with("--") => one_run(&args),
        _ => Err(format!("{USAGE}\nworkloads: {}", NAMES.join(", "))),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("csds-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
