//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list                 # show every experiment
//! repro run <id> [--full]    # run one experiment (quick by default)
//! repro all [--full]         # run everything, in paper order
//! repro watch [--secs N] [--threads N] [--prom]
//!                            # live dashboard over the metrics registry
//! repro trace [--out FILE]   # event-tour -> chrome://tracing JSON
//! ```

use csds_harness::experiments;
use csds_harness::obs;
use csds_harness::Scale;

fn usage() -> ! {
    eprintln!(
        "usage:\n  repro list\n  repro run <experiment> [--full]\n  repro all [--full]\n  \
         repro watch [--secs N] [--threads N] [--prom]\n  \
         repro trace [--out FILE]\n\
         \nexperiments:"
    );
    for e in experiments::registry() {
        eprintln!("  {:10} {}", e.id, e.description);
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = Scale { quick: !full };
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    match positional.first().map(|s| s.as_str()) {
        Some("list") => {
            for e in experiments::registry() {
                println!("{:10} {}", e.id, e.description);
            }
        }
        Some("run") => {
            let Some(id) = positional.get(1) else { usage() };
            let Some(exp) = experiments::find(id) else {
                eprintln!("unknown experiment '{id}'");
                usage()
            };
            println!("# {} — {}", exp.id, exp.description);
            println!(
                "# scale: {} (duration {:?}/point, {} rep(s))",
                if scale.quick { "quick" } else { "full" },
                scale.duration(),
                scale.reps()
            );
            (exp.run)(scale);
        }
        Some("watch") => {
            let secs = args
                .iter()
                .position(|a| a == "--secs")
                .and_then(|i| args.get(i + 1))
                .and_then(|s| s.parse::<f64>().ok())
                .unwrap_or(5.0);
            let threads = args
                .iter()
                .position(|a| a == "--threads")
                .and_then(|i| args.get(i + 1))
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(4);
            let cfg = obs::WatchConfig {
                duration: std::time::Duration::from_secs_f64(secs),
                threads,
                prom: args.iter().any(|a| a == "--prom"),
                ..obs::WatchConfig::default()
            };
            obs::watch(&cfg);
        }
        Some("trace") => {
            let out = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .filter(|p| !p.starts_with("--"))
                .cloned();
            let report = obs::trace_tour();
            eprintln!("event coverage:");
            for (kind, n) in &report.counts {
                eprintln!("  {:22} {:>8}  [{}]", kind.name(), n, kind.category());
            }
            if report.dropped > 0 {
                eprintln!("  ({} events dropped to ring overflow)", report.dropped);
            }
            match out {
                Some(path) => {
                    std::fs::write(&path, &report.json)
                        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                    eprintln!("wrote {path} (load via chrome://tracing or ui.perfetto.dev)");
                }
                None => print!("{}", report.json),
            }
            let missing = report.missing();
            if !missing.is_empty() {
                eprintln!("error: tour left event kinds unexercised: {missing:?}");
                std::process::exit(1);
            }
        }
        Some("all") => {
            for exp in experiments::registry() {
                println!("\n################ {} ################", exp.id);
                println!("# {}", exp.description);
                (exp.run)(scale);
            }
        }
        _ => usage(),
    }
}
