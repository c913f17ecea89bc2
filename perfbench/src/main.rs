//! The repository benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <serve_mix|serve_ingest|grain_par|datalog_fixpoint> \
//!           --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Every workload reports the same seven end-to-end metrics (set-up time,
//! throughput, p50/p99/geomean latency, error rate, peak RSS) and checks
//! every op's answer against a reference computed before the timed window.
//! With `--trace 1` the same run also wraps each public-API call in a span,
//! derives the per-layer metrics from the spans and a deterministic count
//! pass, writes the spans as JSONL into the work dir, and checks that the
//! layers' self times account for each op's latency. The last stdout line
//! is one JSON object (see `report.rs`); `run.py` drives this binary.

mod datalog_wl;
mod grain;
mod probe;
mod programs;
mod report;
mod serve_wl;
mod stats;
mod trace;

use report::{Report, Sample, MIN_SAMPLES};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Threads and clients a workload may use: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub work_dir: PathBuf,
}

/// How long a closed loop runs.
#[derive(Clone, Copy)]
pub enum Window {
    /// Until this many seconds have passed and at least [`MIN_SAMPLES`]
    /// ops have completed.
    Seconds(f64),
    /// Exactly this many ops, shared among the clients.
    Ops(usize),
}

/// Runs one closed-loop client per element of `clients` for `window`.
/// `op(client, client_index, op_index)` issues one op and waits for it.
/// Returns the samples, the wall time of the window, and the clients.
pub fn closed_loop<C: Send>(
    clients: Vec<C>,
    window: Window,
    op: impl Fn(&mut C, usize, u64) -> Sample + Sync,
) -> (Vec<Sample>, f64, Vec<C>) {
    let claimed = AtomicUsize::new(0);
    let start = Instant::now();
    let more = || {
        let n = claimed.fetch_add(1, Ordering::Relaxed);
        match window {
            Window::Seconds(s) => start.elapsed().as_secs_f64() < s || n < MIN_SAMPLES,
            Window::Ops(total) => n < total,
        }
    };
    let results: Vec<(Vec<Sample>, C)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(index, mut client)| {
                let (op, more) = (&op, &more);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut i = 0u64;
                    while more() {
                        let mut sample = op(&mut client, index, i);
                        sample.end_s = start.elapsed().as_secs_f64();
                        samples.push(sample);
                        i += 1;
                    }
                    trace::flush();
                    (samples, client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut clients = Vec::new();
    for (s, c) in results {
        samples.extend(s);
        clients.push(c);
    }
    (samples, elapsed, clients)
}

/// Times `setup` once per repetition in `reps` (the repetition number is
/// passed in) and returns the times in seconds and the last result; the
/// other results go to `discard` outside the timing. Workloads call it
/// for half their repetitions before the timed window and half after, and
/// report the median of all, so a slow spell on the host moves only some.
pub fn timed_setup<T>(
    reps: std::ops::Range<usize>,
    setup: &mut impl FnMut(usize) -> T,
    discard: &mut impl FnMut(T),
) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps.len());
    let mut last = None;
    for rep in reps {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let start = Instant::now();
        let value = setup(rep);
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    eprintln!(
        "[perfbench] set-up repetitions (ms): {:?}",
        times
            .iter()
            .map(|t| (t * 1e5).round() / 1e2)
            .collect::<Vec<_>>()
    );
    (times, last.expect("at least one set-up repetition"))
}

/// Per-layer self time of the traced ops, and the check that it accounts
/// for each op's latency: the self times of an op's spans must sum to the
/// op's root span within [`ACCOUNTING_TOLERANCE`].
const ACCOUNTING_TOLERANCE: f64 = 0.01;

fn account_spans(report: &mut Report, spans: &[trace::Span]) {
    let self_ms = trace::self_times(spans);
    // Only the subtrees of op roots are an op's latency; other roots of
    // the same op (shadow calls made after it) are not. Spans are in start
    // order, so a parent is always seen before its children.
    let mut under_op = std::collections::BTreeSet::new();
    let mut per_layer: std::collections::BTreeMap<&str, f64> = Default::default();
    // op id -> (root duration, sum of self times in its subtree)
    let mut roots: std::collections::BTreeMap<u64, (f64, f64)> = Default::default();
    for s in spans {
        if s.parent == 0 && s.name == trace::OP_ROOT {
            roots.entry(s.op).or_default().0 += s.ms();
        } else if !under_op.contains(&s.parent) {
            continue;
        }
        under_op.insert(s.id);
        *per_layer.entry(s.layer()).or_default() += self_ms[&s.id];
        roots.entry(s.op).or_default().1 += self_ms[&s.id];
    }
    let ops = roots.len().max(1);
    let worst = roots
        .values()
        .map(|(root_ms, sum_ms)| (sum_ms - root_ms).abs() / root_ms.max(1e-9))
        .fold(0.0f64, f64::max);
    for (layer, total) in &per_layer {
        report.note(format!(
            "self time per op: {layer:<10} {:.4} ms",
            total / ops as f64
        ));
    }
    report.note(format!(
        "layer self times account for op latency within {:.4}% over {ops} ops \
         (tolerance {:.1}%)",
        worst * 100.0,
        ACCOUNTING_TOLERANCE * 100.0
    ));
    if worst > ACCOUNTING_TOLERANCE {
        report.error(format!(
            "layer self times miss an op's latency by {:.2}%",
            worst * 100.0
        ));
    }
}

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <serve_mix|serve_ingest|grain_par|datalog_fixpoint> \
         --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>"
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let workload = arg(&argv, "--workload").unwrap_or_else(|| usage("--workload is required"));
    fn parse<T: std::str::FromStr>(argv: &[String], flag: &str, default: &str) -> T {
        arg(argv, flag)
            .unwrap_or_else(|| default.to_string())
            .parse()
            .unwrap_or_else(|_| usage(&format!("{flag} takes a number")))
    }
    let args = Args {
        seed: parse(&argv, "--seed", "1"),
        seconds: parse(&argv, "--seconds", "10"),
        traced: parse::<u8>(&argv, "--trace", "0") != 0,
        work_dir: PathBuf::from(
            arg(&argv, "--work-dir").unwrap_or_else(|| usage("--work-dir is required")),
        ),
    };
    std::fs::create_dir_all(&args.work_dir)
        .unwrap_or_else(|e| usage(&format!("cannot create the work dir: {e}")));
    if args.traced {
        trace::enable();
    }
    eprintln!(
        "[perfbench] {workload}: seed {}, {} s, trace {}, available_parallelism {}",
        args.seed,
        args.seconds,
        u8::from(args.traced),
        nproc()
    );
    let mut report = match workload.as_str() {
        "serve_mix" => serve_wl::serve_mix(&args),
        "serve_ingest" => serve_wl::serve_ingest(&args),
        "grain_par" => grain::grain_par(&args),
        "datalog_fixpoint" => datalog_wl::datalog_fixpoint(&args),
        other => usage(&format!("unknown workload {other}")),
    };
    if args.traced {
        let spans = trace::collect();
        let path = args
            .work_dir
            .join(format!("spans-{workload}-{}.jsonl", args.seed));
        match trace::dump_jsonl(&spans, &path) {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => report.error(format!("cannot write {}: {e}", path.display())),
        }
        account_spans(&mut report, &spans);
    }
    println!("{}", report.to_json(&workload, args.seed, args.traced));
}
