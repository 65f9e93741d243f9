//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A sampled operation gets one root `request` span and contiguous child
//! spans, all sharing the request's id. Spans live in a preallocated
//! per-thread buffer and are written out when the run ends.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span names: `<layer>.<what>`, the layer being a crate name without
/// `csds_` (or `request`, the root).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    Request,
    WorkloadSample,
    CoreOp,
    PqOp,
    MetricsOpBoundary,
    ServiceSubmit,
    ServiceInflight,
    ServiceReap,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::WorkloadSample => "workload.sample",
            Name::CoreOp => "core.op",
            Name::PqOp => "pq.op",
            Name::MetricsOpBoundary => "metrics.op_boundary",
            Name::ServiceSubmit => "service.submit",
            Name::ServiceInflight => "service.inflight",
            Name::ServiceReap => "service.reap",
        }
    }
}

/// Operation type carried by `core.op` / `pq.op` spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    None,
    Get,
    Insert,
    Remove,
    Push,
    Pop,
    Peek,
}

impl Tag {
    fn as_str(self) -> &'static str {
        match self {
            Tag::None => "",
            Tag::Get => "get",
            Tag::Insert => "insert",
            Tag::Remove => "remove",
            Tag::Push => "push",
            Tag::Pop => "pop",
            Tag::Peek => "peek",
        }
    }
}

/// One span. Every non-root span's parent is the `request` span with the
/// same `req`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u32,
    pub name: Name,
    pub tag: Tag,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span buffer: allocated once, never grows; once full, further
/// requests are not recorded (and counted in `dropped`).
pub struct SpanBuf {
    spans: Vec<Span>,
    next_req: u32,
    pub dropped: u64,
}

/// Spans one thread may hold per segment.
const SPAN_CAPACITY: usize = 1 << 20;

impl SpanBuf {
    /// `thread` keeps request ids distinct across threads.
    pub fn new(thread: usize) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(SPAN_CAPACITY),
            next_req: (thread as u32) << 28,
            dropped: 0,
        }
    }

    /// Record one request: `bounds` are the `n + 1` timestamps delimiting
    /// its `n` contiguous children, named by `children`.
    pub fn record(&mut self, bounds: &[u64], children: &[(Name, Tag)]) {
        debug_assert_eq!(bounds.len(), children.len() + 1);
        if self.spans.len() + children.len() + 1 > SPAN_CAPACITY {
            self.dropped += 1;
            return;
        }
        let req = self.next_req;
        self.next_req += 1;
        self.spans.push(Span {
            start_ns: bounds[0],
            end_ns: bounds[children.len()],
            req,
            name: Name::Request,
            tag: Tag::None,
        });
        for (i, &(name, tag)) in children.iter().enumerate() {
            self.spans.push(Span {
                start_ns: bounds[i],
                end_ns: bounds[i + 1],
                req,
                name,
                tag,
            });
        }
    }

    pub fn clear(&mut self) {
        self.spans.clear();
        self.dropped = 0;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Part of `parent` not covered by any of `children` (intervals may
/// overlap, touch, or stick out of the parent).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = ps;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    pe.saturating_sub(ps) - covered
}

/// A span's duration with the one clock read it encloses taken off.
pub fn net_ns(dur: u64, clock_ns: f64) -> f64 {
    (dur as f64 - clock_ns).max(0.0)
}

/// Share of total `request` time that lies inside named child spans: 1
/// means no time is left unattributed in the root's self time.
pub fn child_coverage(threads: &[&[Span]]) -> f64 {
    let mut total = 0u64;
    let mut own = 0u64;
    for spans in threads {
        let mut i = 0;
        while i < spans.len() {
            let root = spans[i];
            debug_assert_eq!(root.name, Name::Request);
            let mut j = i + 1;
            while j < spans.len() && spans[j].req == root.req {
                j += 1;
            }
            let kids: Vec<(u64, u64)> = spans[i + 1..j]
                .iter()
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            total += root.dur();
            own += self_time((root.start_ns, root.end_ns), &kids);
            i = j;
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - own as f64 / total as f64
    }
}

/// Ascending durations of the spans matching `name` (and `tag`, unless
/// `Tag::None`), as `u32` nanoseconds.
pub fn durations(threads: &[&[Span]], name: Name, tag: Tag) -> Vec<u32> {
    let mut out: Vec<u32> = threads
        .iter()
        .flat_map(|t| t.iter())
        .filter(|s| s.name == name && (tag == Tag::None || s.tag == tag))
        .map(|s| s.dur().min(u32::MAX as u64) as u32)
        .collect();
    out.sort_unstable();
    out
}

/// Requests written per thread: keeps a trace file a few MB, which
/// Perfetto loads instantly.
const TRACE_FILE_REQUESTS: usize = 5_000;

/// Chrome-trace ("Trace Event Format") JSON: one complete (`"ph":"X"`)
/// event per span, one track per thread, timestamps in µs. Opens in
/// <https://ui.perfetto.dev> and `chrome://tracing`.
pub fn chrome_trace_json(workload: &str, threads: &[&[Span]]) -> String {
    let mut s = String::with_capacity(1 << 20);
    let _ = write!(
        s,
        "{{\"traceEvents\":[{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"csds-benchmark {workload}\"}}}}"
    );
    for (tid, spans) in threads.iter().enumerate() {
        let mut requests = 0;
        for sp in spans.iter() {
            if sp.name == Name::Request {
                requests += 1;
                if requests > TRACE_FILE_REQUESTS {
                    break;
                }
            }
            let _ = write!(
                s,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"req\":{}",
                sp.name.as_str(),
                sp.name.as_str().split('.').next().unwrap_or(""),
                sp.start_ns / 1000,
                sp.start_ns % 1000,
                sp.dur() / 1000,
                sp.dur() % 1000,
                tid + 1,
                sp.req,
            );
            if sp.name != Name::Request {
                s.push_str(",\"parent\":\"request\"");
            }
            if sp.tag != Tag::None {
                let _ = write!(s, ",\"op\":\"{}\"", sp.tag.as_str());
            }
            s.push_str("}}");
        }
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Contiguous children cover everything.
        assert_eq!(self_time((10, 100), &[(10, 40), (40, 100)]), 0);
        // A gap and a tail are the parent's own.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 90)]), 50);
        // Overlapping children are not counted twice.
        assert_eq!(self_time((0, 100), &[(10, 60), (40, 80)]), 30);
        // Children sticking out are clipped; empty ones ignored.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200), (70, 70)]), 30);
        assert_eq!(self_time((0, 100), &[]), 100);
    }

    #[test]
    fn clock_overhead_is_subtracted_and_clamped() {
        assert_eq!(net_ns(100, 22.5), 77.5);
        assert_eq!(net_ns(10, 22.5), 0.0);
    }

    #[test]
    fn recorded_requests_are_fully_covered_and_share_an_id() {
        let mut buf = SpanBuf::new(1);
        buf.record(
            &[100, 130, 180, 200],
            &[
                (Name::WorkloadSample, Tag::None),
                (Name::CoreOp, Tag::Get),
                (Name::MetricsOpBoundary, Tag::None),
            ],
        );
        buf.record(&[300, 350], &[(Name::PqOp, Tag::Pop)]);
        let spans = buf.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (100, 200));
        assert!(spans[..4].iter().all(|s| s.req == spans[0].req));
        assert_ne!(spans[4].req, spans[0].req);
        assert_eq!(child_coverage(&[spans]), 1.0);
        assert_eq!(durations(&[spans], Name::CoreOp, Tag::Get), vec![50]);
        assert_eq!(
            durations(&[spans], Name::CoreOp, Tag::Insert),
            Vec::<u32>::new()
        );
        assert_eq!(durations(&[spans], Name::Request, Tag::None), vec![50, 100]);
    }

    #[test]
    fn trace_file_is_valid_json_with_one_event_per_span() {
        let mut buf = SpanBuf::new(0);
        buf.record(
            &[1_000, 2_500, 4_000],
            &[
                (Name::ServiceSubmit, Tag::None),
                (Name::ServiceReap, Tag::None),
            ],
        );
        let text = chrome_trace_json("svc_pipelined", &[buf.spans()]);
        let doc = Json::parse(&text).expect("valid json");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1 + 3);
        let submit = &events[2];
        assert_eq!(
            submit.get("name").and_then(Json::as_str),
            Some("service.submit")
        );
        assert_eq!(submit.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(submit.get("dur").and_then(Json::as_f64), Some(1.5));
        assert_eq!(
            submit
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_str),
            Some("request")
        );
    }
}
