//! `run`: the full set of workloads as repeated child runs, written to
//! `out/results.json`; and `compare`: two such files judged against the
//! bounds `BENCHMARK.json` fixes.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::stats::{median, spread};
use crate::workloads::{derive_seed, NAMES};
use crate::{child, manifest_dir, RunSpec, END_TO_END};

pub const SCHEMA: &str = "csds-benchmark-results/1";
/// Untraced runs per workload in a full set.
const REPS: usize = 5;
/// `--seconds` of the runs of a `--smoke` set (tests only).
const SMOKE_SECONDS: f64 = 0.1;

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The repo's `BENCHMARK.json`, one directory above this crate.
pub fn benchmark_json() -> Result<Json, String> {
    read_json(&manifest_dir().join("..").join("BENCHMARK.json"))
}

/// First line of `program args…`'s standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(manifest_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Where, on what and from what the numbers were taken.
fn provenance(seed: u64, seconds: f64) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let dirty = first_line("git", &["status", "--porcelain"]);
    Json::obj([
        (
            "git_sha",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "git_dirty",
            Json::Bool(dirty != "unknown" && !dirty.is_empty()),
        ),
        (
            "available_parallelism",
            Json::num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::str(cpu_model)),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        (
            "optimistic_fast_paths",
            Json::Bool(csds_sync::optimistic_fast_paths()),
        ),
        ("seed", Json::str(seed.to_string())),
        ("run_seconds", Json::num(seconds)),
        ("reps", Json::num(REPS as f64)),
    ])
}

fn metric_value(run: &Json, name: &str) -> f64 {
    run.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Run every workload: `REPS` untraced runs each, interleaved round-robin
/// so drift hits all workloads alike, then one traced run each. Prints
/// every metric by name with its unit and writes `out/results.json`.
pub fn run_suite(seed: u64, smoke: bool) -> Result<(), String> {
    let manifest = benchmark_json()?;
    let seconds = if smoke {
        SMOKE_SECONDS
    } else {
        manifest
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut untraced: Vec<Vec<Json>> = vec![Vec::new(); NAMES.len()];
    for rep in 0..REPS {
        for (w, name) in NAMES.iter().enumerate() {
            eprintln!("[{}/{REPS}] {name}", rep + 1);
            let spec = RunSpec {
                workload: name,
                seed: derive_seed(seed, (rep * NAMES.len() + w) as u64),
                seconds,
                trace: false,
            };
            untraced[w].push(child(&exe, spec, None)?);
        }
    }
    let mut workloads = Vec::new();
    for (w, name) in NAMES.iter().enumerate() {
        eprintln!("[traced] {name}");
        let spec = RunSpec {
            workload: name,
            seed: derive_seed(seed, 10_000 + w as u64),
            seconds,
            trace: true,
        };
        let traced = child(&exe, spec, None)?;
        let count = |key: &str| -> f64 {
            untraced[w]
                .iter()
                .map(|r| r.get(key).and_then(Json::as_f64).unwrap_or(0.0))
                .sum()
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        println!("{name}");
        let end_to_end = Json::obj(END_TO_END.iter().map(|&(metric, unit, _)| {
            let values: Vec<f64> = untraced[w]
                .iter()
                .map(|r| metric_value(r, metric))
                .collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            println!(
                "  {metric:<34} {:>16.4} {unit:<6} (median of {}; min {lo:.4}, max {hi:.4})",
                median(&values),
                values.len()
            );
            (
                metric,
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("median", Json::num(median(&values))),
                    ("min", Json::num(lo)),
                    ("max", Json::num(hi)),
                    (
                        "values",
                        Json::Arr(values.iter().map(|&v| Json::num(v)).collect()),
                    ),
                ]),
            )
        }));
        let failed_share = if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        };
        println!(
            "  {:<34} {failed_share:>16.4} ratio  ({failed} of {attempted})",
            "failed_share"
        );
        let per_layer = traced.get("metrics").cloned().unwrap_or(Json::Obj(vec![]));
        for (metric, m) in per_layer.members() {
            println!(
                "  {metric:<34} {:>16.4} {}",
                m.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                m.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
        workloads.push((
            *name,
            Json::obj([
                ("attempted", Json::num(attempted)),
                ("failed", Json::num(failed)),
                ("failed_share", Json::num(failed_share)),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
            ]),
        ));
    }
    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("provenance", provenance(seed, seconds)),
        ("workloads", Json::obj(workloads)),
    ]);
    let dir = manifest_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("results.json");
    std::fs::write(&path, doc.render_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// The verdict on one (workload, end-to-end metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    /// The spread between the runs of either set is wider than the bound,
    /// so neither "same" nor "worse" can be said.
    Unresolved,
}

/// Judge `b` against `a`: how much worse `b`'s median is as a share of
/// `a`'s, and the verdict under `bound`.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let verdict = if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

/// Compare two result files of the same benchmark; `Ok(true)` when no pair
/// is worse.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    for doc in [&a, &b] {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} file"));
        }
    }
    let manifest = benchmark_json()?;
    let bounds = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let values = |doc: &Json, workload: &str, metric: &str| -> Vec<f64> {
        doc.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("values"))
            .and_then(Json::as_arr)
            .map(|v| v.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let mut any_worse = false;
    for name in NAMES {
        for m in bounds {
            let metric = m.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let (va, vb) = (values(&a, name, metric), values(&b, name, metric));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name}/{metric} is missing from a result file"));
            }
            let (worse_by, verdict) = judge(&va, &vb, higher, bound);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{name:<18} {metric:<12} {:>14.4} {:>14.4} {:>7.1}% {:>5.0}%  {}",
                median(&va),
                median(&vb),
                worse_by * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Failures have no bound: any increase of the failed share is worse.
        let share = |doc: &Json| {
            doc.get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get("failed_share"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let (fa, fb) = (share(&a), share(&b));
        any_worse |= fb > fa;
        println!(
            "{name:<18} {:<12} {fa:>14.6} {fb:>14.6} {:>8} {:>6}  {}",
            "failed_share",
            "",
            "any",
            if fb > fa { "worse" } else { "same" }
        );
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_same_worse_and_unresolved() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput 3 % lower: inside a 7 % bound.
        let b: Vec<f64> = a.iter().map(|v| v * 0.97).collect();
        let (by, v) = judge(&a, &b, true, 0.07);
        assert!((by - 0.03).abs() < 1e-9);
        assert_eq!(v, Verdict::Same);
        // 10 % lower: worse. A gain is never worse.
        let c: Vec<f64> = a.iter().map(|v| v * 0.90).collect();
        assert_eq!(judge(&a, &c, true, 0.07).1, Verdict::Worse);
        assert_eq!(judge(&c, &a, true, 0.07).1, Verdict::Same);
        // For a lower-is-better metric the direction flips.
        assert_eq!(judge(&a, &c, false, 0.07).1, Verdict::Same);
        assert_eq!(judge(&c, &a, false, 0.07).1, Verdict::Worse);
        // Runs that disagree among themselves by more than the bound
        // resolve nothing, whatever the medians say.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&a, &noisy, true, 0.07).1, Verdict::Unresolved);
        assert_eq!(judge(&noisy, &c, true, 0.07).1, Verdict::Unresolved);
    }
}
