//! `serve_mix` and `serve_ingest`: closed loops of `nproc` TCP clients
//! against an in-process `Server`, one op being a `load` plus a `query`.
//!
//! `serve_mix` re-loads the fifteen suite programs (every load after
//! warm-up is a cache hit): the read path. `serve_ingest` loads a text the
//! server has never seen on every op, against a durable server whose cache
//! is smaller than the working set: WAL append and fsync, cache misses,
//! compilation and eviction. Its set-up boots on a pre-populated data dir,
//! so it measures recovery replay.

use crate::probe::engine_probe;
use crate::programs::{self, Bindings, Spec, SUITE};
use crate::report::{Report, Sample};
use crate::stats::{median, mix, ms_since, shuffled};
use crate::trace::{self, span};
use crate::{closed_loop, nproc, timed_setup, Args, Window};
use granlog_engine::MachineConfig;
use granlog_ir::parser::parse_program;
use granlog_serve::{
    PoolConfig, ServeClient, ServeConfig, Server, Session, SessionBudget, TemplateCache,
};
use granlog_store::{FsyncPolicy, ProgramStore, StoreConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// `serve_mix` cache capacity: above the fifteen programs.
const MIX_CACHE: usize = 64;
/// `serve_ingest` cache capacity: below the working set (every op's text
/// is new, and the pre-populated corpus alone is larger).
const INGEST_CACHE: usize = 32;
/// Programs in the pre-populated data dir: `PREPOP_SNAPSHOT` compacted
/// into the snapshot, then `PREPOP_WAL` more left in the WAL, as after a
/// crash past the last compaction.
const PREPOP_SNAPSHOT: usize = 150;
const PREPOP_WAL: usize = 50;
/// Ops per second of `--seconds` in a `serve_ingest` window. Every op
/// adds a program the durable store keeps, so peak memory grows with the
/// op count: the window is a fixed number of ops, which keeps
/// `peak_rss_mb` a measure of memory per ingested program rather than of
/// throughput. At 1500 per second it lasts about `--seconds` on a
/// 2-vCPU x86-64 VM.
const INGEST_OPS_PER_SECOND: f64 = 1500.0;
/// Unique loads in the ingest count pass.
const COUNT_LOADS: usize = 20;
/// Tolerance of the `serve_mix` reconciliation check: session plus
/// outside-session time must match the client query round trip within
/// this share of the round trip.
const RECONCILE_TOLERANCE: f64 = 0.25;

struct Suite {
    specs: Vec<Spec>,
    references: Vec<Bindings>,
}

fn suite(seed: u64) -> Suite {
    let specs: Vec<Spec> = SUITE
        .iter()
        .map(|&name| {
            let size = granlog_benchmarks::benchmark(name)
                .expect("suite program")
                .default_size;
            programs::spec(name, size, seed)
        })
        .collect();
    let references = specs
        .iter()
        .map(|spec| programs::reference(spec, &programs::program(spec)))
        .collect();
    Suite { specs, references }
}

/// One op's answer check: the load was accepted (with the expected cache
/// outcome, when one is expected) and the query answered the reference.
fn answer_ok(
    load: &std::io::Result<Result<(String, u64, bool), String>>,
    expect_hit: Option<bool>,
    query: &std::io::Result<Result<granlog_serve::ClientReply, String>>,
    reference: &Bindings,
) -> bool {
    let load_ok = matches!(load, Ok(Ok((_, _, hit))) if expect_hit.is_none_or(|e| e == *hit));
    let query_ok =
        matches!(query, Ok(Ok(reply)) if reply.succeeded && reply.bindings == *reference);
    load_ok && query_ok
}

fn connect(server: &granlog_serve::ServerHandle, n: usize) -> Vec<ServeClient> {
    (0..n)
        .map(|_| ServeClient::connect(server.addr()).expect("client connects"))
        .collect()
}

fn close(server: granlog_serve::ServerHandle, clients: Vec<ServeClient>) {
    for client in clients {
        client.quit().expect("clean quit");
    }
    server.shutdown();
}

/// `mean` of a registry histogram from a Prometheus exposition.
fn exposition_mean(text: &str, metric: &str) -> f64 {
    let value = |suffix: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{metric}_{suffix} ")))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    value("sum") / value("count").max(1.0)
}

fn registry_mean(server: &granlog_serve::ServerHandle, name: &str) -> (f64, u64) {
    server
        .obs()
        .registry
        .histogram_snapshot(name)
        .map_or((0.0, 0), |h| (h.sum / h.count.max(1) as f64, h.count))
}

/// Per-client state of the closed loop.
struct Client {
    conn: ServeClient,
    order: Vec<usize>,
    slices: u64,
    /// In-process shadow of the served calls (traced run only).
    shadow: Option<Session>,
}

impl Client {
    /// The program of this client's op `i`: a fresh seeded shuffle of the
    /// suite on every pass.
    fn program(&mut self, seed: u64, client: usize, i: u64) -> usize {
        let pass = i / SUITE.len() as u64;
        if i.is_multiple_of(SUITE.len() as u64) {
            self.order = shuffled(SUITE.len(), mix(seed, ((client as u64) << 32) | pass));
        }
        self.order[(i % SUITE.len() as u64) as usize]
    }
}

/// Duration of the span named `name` in each op, by op id.
fn per_op(spans: &[trace::Span], name: &str) -> BTreeMap<u64, f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.op, s.ms()))
        .collect()
}

fn pool_and_cache_layers(report: &mut Report, server: &granlog_serve::ServerHandle) {
    let cache = server.cache().stats();
    let loads = cache.hits + cache.misses;
    report.layer(
        "serve.cache.hit_ratio",
        cache.hits as f64 / loads.max(1) as f64,
        "ratio",
    );
    report.layer("serve.cache.evictions", cache.evictions as f64, "count");
    report.layer("serve.pool.retired", cache.retired as f64, "count");
    report.layer("serve.pool.quarantined", cache.quarantined as f64, "count");
    report.note(format!(
        "cache: {} hits / {loads} loads, {} evictions; pool: {} retired, {} quarantined",
        cache.hits, cache.evictions, cache.retired, cache.quarantined
    ));
}

fn client_layers(report: &mut Report, spans: &[trace::Span], queries: u64, slices: u64) {
    report.layer(
        "serve.client.load_rtt_ms",
        median(&trace::durations(spans, "serve.client.load")),
        "ms",
    );
    report.layer(
        "serve.client.query_rtt_ms",
        median(&trace::durations(spans, "serve.client.query")),
        "ms",
    );
    report.layer(
        "ir.parse_ms",
        median(&trace::durations(spans, "ir.parse_program")),
        "ms",
    );
    report.layer(
        "serve.slices_per_query",
        slices as f64 / queries.max(1) as f64,
        "ratio",
    );
}

pub fn serve_mix(args: &Args) -> Report {
    let mut report = Report {
        threads: nproc(),
        clients: nproc(),
        ..Report::default()
    };
    let Suite { specs, references } = suite(args.seed);
    let config = || ServeConfig {
        cache_capacity: MIX_CACHE,
        ..ServeConfig::default()
    };
    let n_clients = report.clients;
    let mut setup = |_| {
        let server = Server::start(config()).expect("server boots");
        let mut conns = connect(&server, n_clients);
        for spec in &specs {
            conns[0]
                .load(spec.bench.source)
                .expect("io")
                .expect("suite programs load");
        }
        (server, conns)
    };
    let mut discard = |(server, conns)| close(server, conns);
    let (mut setup_times, (server, conns)) = timed_setup(0..SETUP_REPS, &mut setup, &mut discard);

    let shadow_cache = Arc::new(TemplateCache::new(
        MIX_CACHE,
        MachineConfig::default(),
        PoolConfig::default(),
    ));
    if args.traced {
        for spec in &specs {
            shadow_cache
                .load(spec.bench.source)
                .expect("suite programs load");
        }
    }
    let clients: Vec<Client> = conns
        .into_iter()
        .map(|conn| Client {
            conn,
            order: Vec::new(),
            slices: 0,
            shadow: args
                .traced
                .then(|| Session::new(Arc::clone(&shadow_cache), SessionBudget::default())),
        })
        .collect();
    let (samples, elapsed, mut clients) =
        closed_loop(clients, Window::Seconds(args.seconds), |c, index, i| {
            let p = c.program(args.seed, index, i);
            let (source, goal) = (specs[p].bench.source, specs[p].query.as_str());
            let op = trace::new_op();
            let start = Instant::now();
            let (load, query) = trace::op(op, || {
                let load = span("serve.client.load", || c.conn.load(source));
                let query = span("serve.client.query", || c.conn.query(goal));
                (load, query)
            });
            let ms = ms_since(start);
            if let Ok(Ok(reply)) = &query {
                c.slices += reply.slices;
            }
            if let Some(session) = c.shadow.as_mut() {
                trace::in_op(op, "bench.shadow", || {
                    span("ir.parse_program", || parse_program(source))
                        .expect("suite programs parse");
                    span("serve.cache.load", || shadow_cache.load(source)).expect("cached");
                    session.load(source).expect("cached");
                    span("serve.session.query", || session.query(goal)).expect("query runs");
                });
            }
            Sample {
                program: p,
                ms,
                end_s: 0.0,
                ok: answer_ok(&load, Some(true), &query, &references[p]),
            }
        });
    let (after, last) = timed_setup(SETUP_REPS..2 * SETUP_REPS, &mut setup, &mut discard);
    discard(last);
    setup_times.extend(after);
    report.set_end_to_end(
        median(&setup_times),
        &samples,
        elapsed,
        &specs.iter().map(Spec::label).collect::<Vec<_>>(),
    );

    // After warm-up, every load must have hit the cache.
    let cache = server.cache().stats();
    if cache.misses != specs.len() as u64 || cache.quarantined != 0 {
        report.error(format!(
            "cache saw {} misses (expected {}) and {} quarantined machines",
            cache.misses,
            specs.len(),
            cache.quarantined
        ));
    }
    let exposition = clients[0].conn.metrics().expect("metrics verb");
    let slices: u64 = clients.iter().map(|c| c.slices).sum();
    if args.traced {
        pool_and_cache_layers(&mut report, &server);
        report.layer(
            "serve.server.query_ms",
            exposition_mean(&exposition, "granlog_query_latency_ms"),
            "ms",
        );
    }
    close(server, clients.into_iter().map(|c| c.conn).collect());

    let programs: Vec<_> = specs.iter().map(programs::program).collect();
    engine_probe(&specs, &programs, args.traced, &mut report);
    mix_count_pass(args.seed, &specs, &mut report);
    if args.traced {
        let spans = trace::collect();
        client_layers(&mut report, &spans, samples.len() as u64, slices);
        report.layer(
            "serve.cache.load_hit_ms",
            median(&trace::durations(&spans, "serve.cache.load")),
            "ms",
        );
        let session = per_op(&spans, "serve.session.query");
        let rtt = per_op(&spans, "serve.client.query");
        let outside: Vec<f64> = rtt
            .iter()
            .filter_map(|(op, rtt)| session.get(op).map(|s| rtt - s))
            .collect();
        let session_ms = median(&session.values().copied().collect::<Vec<_>>());
        let rtt_ms = median(&rtt.values().copied().collect::<Vec<_>>());
        let outside_ms = median(&outside);
        report.layer("serve.session.query_ms", session_ms, "ms");
        report.layer("serve.outside_session_ms", outside_ms, "ms");
        let gap = (session_ms + outside_ms - rtt_ms).abs() / rtt_ms.max(1e-9);
        report.note(format!(
            "reconciliation: session {session_ms:.4} ms + outside {outside_ms:.4} ms vs query \
             round trip {rtt_ms:.4} ms: off by {:.1}% (tolerance {:.0}%)",
            gap * 100.0,
            RECONCILE_TOLERANCE * 100.0
        ));
        if gap > RECONCILE_TOLERANCE {
            report.error(format!(
                "session + outside-session time misses the query round trip by {:.1}%",
                gap * 100.0
            ));
        }
    }
    report
}

/// Deterministic counts: one client loads and queries every program twice
/// on a fresh server, in a seeded order.
fn mix_count_pass(seed: u64, specs: &[Spec], report: &mut Report) {
    let server = Server::start(ServeConfig {
        cache_capacity: MIX_CACHE,
        ..ServeConfig::default()
    })
    .expect("server boots");
    let mut conn = ServeClient::connect(server.addr()).expect("client connects");
    let mut steps = 0;
    for pass in 0..2 {
        for p in shuffled(specs.len(), mix(seed, 0xC0 + pass)) {
            conn.load(specs[p].bench.source)
                .expect("io")
                .expect("loads");
            steps += conn
                .query(&specs[p].query)
                .expect("io")
                .expect("answers")
                .steps;
        }
    }
    let cache = server.cache().stats();
    report.count("serve.cache.hits", cache.hits);
    report.count("serve.cache.misses", cache.misses);
    report.count("serve.query_steps", steps);
    close(server, vec![conn]);
}

/// A suite program made new by a seeded fact block unique to `tag`.
fn unique_text(source: &str, seed: u64, tag: &str) -> String {
    let mut rng = granlog_benchmarks::generate::Lcg::new(mix(seed, tag.len() as u64));
    let mut text = String::with_capacity(source.len() + 256);
    text.push_str(source);
    text.push('\n');
    for k in 0..8 {
        text.push_str(&format!(
            "ingest_fact({tag}, {k}, {}).\n",
            rng.below(1_000_000)
        ));
    }
    text
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("data dir copy");
    for entry in std::fs::read_dir(from).expect("template dir") {
        let entry = entry.expect("template dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("data file copy");
    }
}

/// Writes the pre-populated data dir the ingest server boots on.
fn prepopulate(dir: &Path, specs: &[Spec], seed: u64) {
    let _ = std::fs::remove_dir_all(dir);
    let store = ProgramStore::open(StoreConfig {
        fsync: FsyncPolicy::Never,
        ..StoreConfig::new(dir)
    })
    .expect("template store opens");
    let keys = TemplateCache::new(1, MachineConfig::default(), PoolConfig::default());
    for i in 0..PREPOP_SNAPSHOT + PREPOP_WAL {
        if i == PREPOP_SNAPSHOT {
            store.snapshot().expect("template snapshot");
        }
        let text = unique_text(specs[i % specs.len()].bench.source, seed, &format!("p{i}"));
        let (entry, _) = keys.load(&text).expect("suite programs load");
        store
            .record_load(entry.normalized_text(), &text)
            .expect("template record");
    }
    store.flush().expect("template flush");
}

fn ingest_window(seconds: f64) -> Window {
    Window::Ops(((seconds * INGEST_OPS_PER_SECOND) as usize).max(crate::report::MIN_SAMPLES))
}

pub fn serve_ingest(args: &Args) -> Report {
    let mut report = Report {
        threads: nproc(),
        clients: nproc(),
        ..Report::default()
    };
    let Suite { specs, references } = suite(args.seed);
    let root: PathBuf = args.work_dir.join(format!("ingest-{}", std::process::id()));
    let template = root.join("template");
    prepopulate(&template, &specs, args.seed);
    let boot_dirs: Vec<PathBuf> = (0..2 * SETUP_REPS)
        .map(|rep| {
            let dir = root.join(format!("boot-{rep}"));
            copy_dir(&template, &dir);
            dir
        })
        .collect();
    let config = |dir: &Path| ServeConfig {
        cache_capacity: INGEST_CACHE,
        store: Some(StoreConfig::new(dir)),
        ..ServeConfig::default()
    };
    let n_clients = report.clients;
    let mut setup = |rep: usize| {
        let server = Server::start(config(&boot_dirs[rep])).expect("server boots");
        let conns = connect(&server, n_clients);
        (server, conns)
    };
    let mut discard = |(server, conns)| close(server, conns);
    let (mut setup_times, (server, conns)) = timed_setup(0..SETUP_REPS, &mut setup, &mut discard);
    let recovered = server.recovered_programs();
    if recovered != (PREPOP_SNAPSHOT + PREPOP_WAL) as u64 {
        report.error(format!(
            "boot recovered {recovered} programs, expected {}",
            PREPOP_SNAPSHOT + PREPOP_WAL
        ));
    }
    let boot_misses = server.cache().stats().misses;

    // Traced run only: in-process shadows of the cache and the store.
    let shadow = args.traced.then(|| {
        let cache = TemplateCache::new(
            INGEST_CACHE,
            MachineConfig::default(),
            PoolConfig::default(),
        );
        let store =
            ProgramStore::open(StoreConfig::new(root.join("shadow"))).expect("shadow store");
        (cache, store)
    });
    let clients: Vec<Client> = conns
        .into_iter()
        .map(|conn| Client {
            conn,
            order: Vec::new(),
            slices: 0,
            shadow: None,
        })
        .collect();
    let (samples, elapsed, clients) =
        closed_loop(clients, ingest_window(args.seconds), |c, index, i| {
            let p = c.program(args.seed, index, i);
            let text = unique_text(specs[p].bench.source, args.seed, &format!("c{index}_{i}"));
            let goal = specs[p].query.as_str();
            let op = trace::new_op();
            let start = Instant::now();
            let (load, query) = trace::op(op, || {
                let load = span("serve.client.load", || c.conn.load(&text));
                let query = span("serve.client.query", || c.conn.query(goal));
                (load, query)
            });
            let ms = ms_since(start);
            if let Ok(Ok(reply)) = &query {
                c.slices += reply.slices;
            }
            if let Some((cache, store)) = &shadow {
                trace::in_op(op, "bench.shadow", || {
                    span("ir.parse_program", || parse_program(&text)).expect("parses");
                    let (entry, _) = span("serve.cache.load", || cache.load(&text)).expect("loads");
                    span("store.record_load", || {
                        store.record_load(entry.normalized_text(), &text)
                    })
                    .expect("journaled");
                });
            }
            Sample {
                program: p,
                ms,
                end_s: 0.0,
                ok: answer_ok(&load, Some(false), &query, &references[p]),
            }
        });
    let (after, last) = timed_setup(SETUP_REPS..2 * SETUP_REPS, &mut setup, &mut discard);
    discard(last);
    setup_times.extend(after);
    report.set_end_to_end(
        median(&setup_times),
        &samples,
        elapsed,
        &specs.iter().map(Spec::label).collect::<Vec<_>>(),
    );

    let cache = server.cache().stats();
    if cache.hits != 0 || cache.misses != boot_misses + samples.len() as u64 {
        report.error(format!(
            "ingest cache saw {} hits and {} misses, expected 0 and {}",
            cache.hits,
            cache.misses,
            boot_misses + samples.len() as u64
        ));
    }
    let slices: u64 = clients.iter().map(|c| c.slices).sum();
    if args.traced {
        pool_and_cache_layers(&mut report, &server);
        let (append_ms, appends) = registry_mean(&server, "granlog_wal_append_ms");
        let (fsync_ms, fsyncs) = registry_mean(&server, "granlog_wal_fsync_ms");
        let (_, snapshots) = registry_mean(&server, "granlog_store_snapshot_ms");
        report.layer("store.wal_append_ms", append_ms, "ms");
        report.layer("store.wal_fsync_ms", fsync_ms, "ms");
        report.layer("store.snapshots", snapshots as f64, "count");
        report.note(format!(
            "store: {appends} WAL appends, {fsyncs} fsyncs, {snapshots} compactions in the window"
        ));
    }
    close(server, clients.into_iter().map(|c| c.conn).collect());

    // The probe runs the suite programs as ingested: with a fact block.
    let ingest_programs: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(p, s)| {
            parse_program(&unique_text(s.bench.source, args.seed, &format!("e{p}")))
                .expect("parses")
        })
        .collect();
    engine_probe(&specs, &ingest_programs, args.traced, &mut report);
    ingest_count_pass(args.seed, &specs, &root, &mut report);
    if args.traced {
        let replay: Vec<f64> = (0..3)
            .map(|rep| {
                let dir = root.join(format!("replay-{rep}"));
                copy_dir(&template, &dir);
                let start = Instant::now();
                let store = span("store.open", || ProgramStore::open(StoreConfig::new(&dir)))
                    .expect("store opens");
                let ms = ms_since(start);
                std::hint::black_box(store.programs().len());
                ms
            })
            .collect();
        report.layer("store.replay_ms", median(&replay), "ms");
        let spans = trace::collect();
        client_layers(&mut report, &spans, samples.len() as u64, slices);
        report.layer(
            "serve.cache.load_miss_ms",
            median(&trace::durations(&spans, "serve.cache.load")),
            "ms",
        );
        report.layer(
            "store.record_load_ms",
            median(&trace::durations(&spans, "store.record_load")),
            "ms",
        );
    }
    let _ = std::fs::remove_dir_all(&root);
    report
}

/// Deterministic counts: one client loads `COUNT_LOADS` new texts into a
/// durable server on an empty data dir.
fn ingest_count_pass(seed: u64, specs: &[Spec], root: &Path, report: &mut Report) {
    let dir = root.join("count");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        cache_capacity: INGEST_CACHE,
        store: Some(StoreConfig::new(&dir)),
        ..ServeConfig::default()
    })
    .expect("server boots");
    let mut conn = ServeClient::connect(server.addr()).expect("client connects");
    for i in 0..COUNT_LOADS {
        let spec = &specs[i % specs.len()];
        let text = unique_text(spec.bench.source, seed, &format!("n{i}"));
        conn.load(&text).expect("io").expect("loads");
        conn.query(&spec.query).expect("io").expect("answers");
    }
    let stats = conn.stats().expect("stats verb");
    report.count("serve.cache.hits", stats.hits);
    report.count("serve.cache.misses", stats.misses);
    report.count("store.wal_records", stats.wal_records);
    report.count("store.wal_bytes", stats.wal_bytes);
    report.layer(
        "store.wal_bytes_per_load",
        stats.wal_bytes as f64 / COUNT_LOADS as f64,
        "bytes",
    );
    close(server, vec![conn]);
}
