//! The repo's benchmark: seven workloads, five end-to-end metrics, and an
//! outside-in cost ladder for every layer between a raw structure
//! operation and a service reply. See `README.md` next to this crate.
//!
//! One run (`--workload W --seed N --seconds S --trace 0|1`) is several
//! **segments**, each a child process with a fresh set-up, a short warm-up
//! and a measured window; every reported value is the median over the
//! segments, which is what keeps a run steady on a shared two-core host. A
//! traced run alternates untraced and traced segments, so the tracing
//! overhead is measured inside the run.

pub mod json;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use json::Json;
use stats::median;
use workloads::{derive_seed, run_segment, LatRing, Plan, Segment, SegmentCtx};

/// Segments of an untraced run.
const SEGMENTS: usize = 10;
/// Extra set-ups of an untraced run, each followed by an empty window: a
/// set-up takes about a millisecond, so its median needs more samples than
/// the measured segments alone give.
const SETUP_REPS: usize = 90;
/// Untraced/traced segment pairs of a traced run.
const TRACE_PAIRS: usize = 3;

/// `(name, unit, better)` of the end-to-end metrics, as `BENCHMARK.json`
/// lists them.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("ops_per_s", "ops/s", "higher"),
    ("lat_ns_p50", "ns", "lower"),
    ("lat_ns_p90", "ns", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of the per-layer metrics, as `BENCHMARK.json`
/// lists them. A workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, &str); 67] = [
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.clock_ns", "ns", "lower"),
    ("trace.span_coverage_share", "ratio", "higher"),
    ("trace.requests_dropped", "count", "lower"),
    ("trace.events_dropped", "count", "lower"),
    ("workload.sample_ns", "ns", "lower"),
    ("harness.dyn_dispatch_ns", "ns", "lower"),
    ("ebr.pin_ns", "ns", "lower"),
    ("ebr.repin_ns", "ns", "lower"),
    ("ebr.defer_ns", "ns", "lower"),
    ("ebr.retires_per_op", "ratio", "lower"),
    ("ebr.epoch_advances", "count", "higher"),
    ("ebr.collects", "count", "lower"),
    ("ebr.collect_ns_total", "ns", "lower"),
    ("ebr.garbage_items_end", "count", "lower"),
    ("ebr.max_epoch_lag", "count", "lower"),
    ("ebr.repin_stalls", "count", "lower"),
    ("sync.optik_lock_ns", "ns", "lower"),
    ("sync.ring_ns", "ns", "lower"),
    ("sync.lock_acquires_per_op", "ratio", "lower"),
    ("sync.contended_share", "ratio", "lower"),
    ("sync.lock_wait_ns_per_op", "ns", "lower"),
    ("metrics.op_boundary_ns", "ns", "lower"),
    ("core.get_ns_p50", "ns", "lower"),
    ("core.insert_ns_p50", "ns", "lower"),
    ("core.remove_ns_p50", "ns", "lower"),
    ("core.op_ns_p99", "ns", "lower"),
    ("core.raw_get_ns", "ns", "lower"),
    ("core.handle_get_ns", "ns", "lower"),
    ("core.pinned_get_ns", "ns", "lower"),
    ("core.restarts_per_op", "ratio", "lower"),
    ("core.ops_waited_share", "ratio", "lower"),
    ("core.optimistic_attempts_per_op", "ratio", "lower"),
    ("core.optimistic_fail_share", "ratio", "lower"),
    ("core.optimistic_fallback_share", "ratio", "lower"),
    ("elastic.get_ns_p50", "ns", "lower"),
    ("elastic.migrations", "count", "lower"),
    ("elastic.buckets_moved", "count", "lower"),
    ("elastic.tables_retired", "count", "lower"),
    ("pq.push_ns_p50", "ns", "lower"),
    ("pq.pop_ns_p50", "ns", "lower"),
    ("pq.peek_ns_p50", "ns", "lower"),
    ("pq.pop_contention_per_pop", "ratio", "lower"),
    ("pq.empty_pop_share", "ratio", "lower"),
    ("service.submit_ns_p50", "ns", "lower"),
    ("service.submit_ns_p99", "ns", "lower"),
    ("service.inflight_ns_p50", "ns", "lower"),
    ("service.reap_ns_p50", "ns", "lower"),
    ("service.rtt_ns_p50", "ns", "lower"),
    ("service.rtt_ns_p99", "ns", "lower"),
    ("service.request_cost_ns", "ns", "lower"),
    ("service.overhead_ns", "ns", "lower"),
    ("service.worker_lat_ns_p50_ub", "ns", "lower"),
    ("service.worker_lat_ns_p99_ub", "ns", "lower"),
    ("service.mean_batch", "count", "higher"),
    ("service.batch_target_max", "count", "higher"),
    ("service.max_depth", "count", "lower"),
    ("service.busy_rejects", "count", "lower"),
    ("service.quota_rejects", "count", "lower"),
    ("service.ns_created", "count", "lower"),
    ("service.ns_retired", "count", "lower"),
    ("service.ns_ops_share", "ratio", "higher"),
    ("service.gen_late_ns_max", "ns", "lower"),
    ("service.outstanding_max", "count", "lower"),
    ("service.rate10k.rtt_ns_p50", "ns", "lower"),
    ("service.rate400k.rtt_ns_p50", "ns", "lower"),
    ("service.rate_ok_per_s", "1/s", "higher"),
];

/// The result of one run.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub errors: Vec<String>,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunOutput {
    /// The one-line JSON object a run ends its standard output with.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
    }
}

/// The benchmark's own directory: where `cargo run` says the manifest is,
/// else where it was when this was compiled.
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` does
/// not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run, as the command line gives it.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunSpec<'_> {
    fn segments(&self) -> usize {
        if self.trace {
            2 * TRACE_PAIRS
        } else {
            SEGMENTS
        }
    }

    /// A traced run alternates untraced and traced segments.
    fn traced(&self, index: usize) -> bool {
        self.trace && index % 2 == 1
    }
}

/// Child side: execute segment `index` of `spec` in this process and
/// describe it as JSON. The last traced segment also runs the probes and
/// writes the trace file to `out/<workload>.trace.json`.
pub fn execute_segment(spec: RunSpec<'_>, index: usize) -> Result<Json, String> {
    let plan = Plan::new(spec.seconds, spec.segments());
    let traced = spec.traced(index);
    let probes = traced && index + 1 == spec.segments();
    let clock_ns = if traced {
        probes::clock_ns(plan.probe_len)
    } else {
        0.0
    };
    let mut rings = [LatRing::new(), LatRing::new()];
    let ctx = SegmentCtx {
        seed: derive_seed(spec.seed, 1000 + index as u64),
        plan,
        traced,
        probes,
        clock_ns,
        rings: &mut rings,
    };
    let mut seg = run_segment(spec.workload, ctx)?;
    seg.peak_rss_mb = peak_rss_mb();
    if traced {
        seg.layer.push(("trace.clock_ns", clock_ns));
    }
    if probes {
        let threads: Vec<&[spans::Span]> = seg.spans.iter().map(Vec::as_slice).collect();
        let dir = manifest_dir().join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.trace.json", spec.workload));
        std::fs::write(&path, spans::chrome_trace_json(spec.workload, &threads))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Json::obj([
        ("setup_s", Json::num(seg.setup_s)),
        ("peak_rss_mb", Json::num(seg.peak_rss_mb)),
        ("ops_per_s", Json::num(seg.ops_per_s)),
        ("lat_p50", Json::num(seg.lat_p50)),
        ("lat_p90", Json::num(seg.lat_p90)),
        ("attempted", Json::num(seg.attempted as f64)),
        ("failed", Json::num(seg.failed as f64)),
        (
            "errors",
            Json::Arr(seg.errors.iter().map(Json::str).collect()),
        ),
        (
            "layer",
            Json::obj(seg.layer.iter().map(|&(n, v)| (n, Json::num(v)))),
        ),
    ]))
}

/// Run `spec` (one whole run, or with `segment` that one segment of it) as
/// a child process of `exe` (this program); the last line of its standard
/// output, parsed. An exit code other than 0 is an error.
pub fn child(exe: &Path, spec: RunSpec<'_>, segment: Option<usize>) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    if let Some(index) = segment {
        cmd.args(["segment", "--index", &index.to_string()]);
    }
    let out = cmd
        .args(["--workload", spec.workload])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", if spec.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child for {}: {e}", spec.workload))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().unwrap_or(""))
        .ok()
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("{} (segment {segment:?}): {}", spec.workload, out.status))
}

/// Parent side: run one segment as a child process, so that every segment
/// starts from a fresh address space and its peak resident set is its own.
fn spawn_segment(exe: &Path, spec: RunSpec<'_>, index: usize) -> Result<Segment, String> {
    let doc = child(exe, spec, Some(index))?;
    let num = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(Segment {
        setup_s: num("setup_s"),
        peak_rss_mb: num("peak_rss_mb"),
        ops_per_s: num("ops_per_s"),
        lat_p50: num("lat_p50"),
        lat_p90: num("lat_p90"),
        attempted: num("attempted") as u64,
        failed: num("failed") as u64,
        errors: doc
            .get("errors")
            .and_then(Json::as_arr)
            .map(|e| {
                e.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_owned)
                    .collect()
            })
            .unwrap_or_default(),
        layer: doc
            .get("layer")
            .map(|l| {
                l.members()
                    .iter()
                    .filter_map(|(name, v)| {
                        let known = PER_LAYER.iter().find(|m| m.0 == name)?;
                        Some((known.0, v.as_f64()?))
                    })
                    .collect()
            })
            .unwrap_or_default(),
        ..Segment::default()
    })
}

/// One run: `spec.seconds` of measured windows in total, each segment a
/// child process of `exe` (this program). With `spec.trace`, spans are
/// recorded, the probes run, and `out/<workload>.trace.json` is written.
pub fn run_one(exe: &Path, spec: RunSpec<'_>) -> Result<RunOutput, String> {
    let RunSpec {
        workload: name,
        seed,
        seconds,
        trace,
    } = spec;
    let mut setups = Vec::new();
    if !trace {
        let mut rings = [LatRing::new(), LatRing::new()];
        for i in 0..SETUP_REPS {
            let ctx = SegmentCtx {
                seed: derive_seed(seed, 2000 + i as u64),
                plan: Plan {
                    warmup: Duration::ZERO,
                    seg_len: Duration::ZERO,
                    ..Plan::new(seconds, SEGMENTS)
                },
                traced: false,
                probes: false,
                clock_ns: 0.0,
                rings: &mut rings,
            };
            setups.push(run_segment(name, ctx)?.setup_s);
        }
    }
    let segs = (0..spec.segments())
        .map(|index| Ok((spec.traced(index), spawn_segment(exe, spec, index)?)))
        .collect::<Result<Vec<(bool, Segment)>, String>>()?;

    let over = |traced: bool, f: fn(&Segment) -> f64| {
        let v: Vec<f64> = segs
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, s)| f(s))
            .collect();
        median(&v)
    };
    let mut out = RunOutput {
        correct: segs.iter().all(|(_, s)| s.errors.is_empty()),
        attempted: segs.iter().map(|(_, s)| s.attempted).sum(),
        failed: segs.iter().map(|(_, s)| s.failed).sum(),
        errors: segs.iter().flat_map(|(_, s)| s.errors.clone()).collect(),
        metrics: Vec::new(),
    };
    if !trace {
        setups.extend(segs.iter().map(|(_, s)| s.setup_s));
        let values = [
            over(false, |s| s.ops_per_s),
            over(false, |s| s.lat_p50),
            over(false, |s| s.lat_p90),
            median(&setups),
            over(false, |s| s.peak_rss_mb),
        ];
        out.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| (name, v, unit))
            .collect();
        return Ok(out);
    }

    // Per layer: the median over the traced segments that report the
    // value (the probes run once), 0 where the workload bypasses the layer.
    let layer = |name: &str| {
        let v: Vec<f64> = segs
            .iter()
            .flat_map(|(_, s)| s.layer.iter())
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect();
        median(&v)
    };
    let untraced = over(false, |s| s.ops_per_s);
    out.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "trace.overhead_share" if untraced > 0.0 => {
                    1.0 - over(true, |s| s.ops_per_s) / untraced
                }
                // The whole distance between a structure operation and a
                // service reply, as one number.
                "service.overhead_ns" if layer("service.rtt_ns_p50") > 0.0 => {
                    layer("service.rtt_ns_p50") - layer("elastic.get_ns_p50")
                }
                _ => layer(name),
            };
            (name, value, unit)
        })
        .collect();
    Ok(out)
}
