//! Spans recorded from the benchmark's side of each public-API call.
//!
//! A span has a name (`<crate>.<call>`), start, end, its parent span and
//! the id of the op it belongs to. Spans are buffered per thread, gathered
//! when the thread finishes ([`flush`]) and written out as JSONL at the
//! end of a traced run. With tracing off, [`span`] is one relaxed load and
//! a direct call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// 0 outside any op (set-up and probe calls).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The layer a span is charged to: the crate prefix of its name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct ThreadState {
    stack: Vec<u64>,
    op: u64,
    spans: Vec<Span>,
}

thread_local! {
    static STATE: RefCell<ThreadState> = const {
        RefCell::new(ThreadState { stack: Vec::new(), op: 0, spans: Vec::new() })
    };
}

pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name` (a no-op wrapper when tracing is
/// off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = STATE.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.stack.last().copied().unwrap_or(0);
        s.stack.push(id);
        (parent, s.op)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.stack.pop();
        s.spans.push(Span {
            name,
            id,
            parent,
            op,
            start_ns,
            end_ns,
        });
    });
    out
}

/// Name of the root span of an op: its duration is the op's latency.
pub const OP_ROOT: &str = "bench.op";

/// Runs one op under an [`OP_ROOT`] span charged to op `op`.
pub fn op<R>(op: u64, f: impl FnOnce() -> R) -> R {
    in_op(op, OP_ROOT, f)
}

/// A fresh op id, for spans that must share an op across several roots.
pub fn new_op() -> u64 {
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

/// Runs `f` under a root span `name` charged to op `op`.
pub fn in_op<R>(op: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let saved = STATE.with(|s| std::mem::replace(&mut s.borrow_mut().op, op));
    let out = span(name, f);
    STATE.with(|s| s.borrow_mut().op = saved);
    out
}

/// Moves this thread's spans to the shared sink. Every thread that opened
/// spans calls it before it ends.
pub fn flush() {
    let spans = STATE.with(|s| std::mem::take(&mut s.borrow_mut().spans));
    if !spans.is_empty() {
        SINK.lock().expect("span sink poisoned").extend(spans);
    }
}

/// All spans recorded so far, in start order.
pub fn collect() -> Vec<Span> {
    flush();
    let mut spans = SINK.lock().expect("span sink poisoned").clone();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Writes one JSON object per span.
pub fn dump_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.name,
            s.id,
            s.parent,
            s.op,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        )?;
    }
    out.flush()
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e6)
        })
        .collect()
}

/// Durations in ms of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}
