//! `datalog_fixpoint`: the bottom-up engine alone. Each topology is
//! compiled once; each op is a full semi-naive `evaluate` plus one
//! conjunctive `Database::query`. Chain topologies run many tiny-delta
//! rounds and star topologies a few wide ones, which separates per-round
//! overhead from join throughput.

use crate::report::{Report, Sample};
use crate::stats::{median, mix, ms_since, shuffled};
use crate::trace::{self, span};
use crate::{closed_loop, nproc, timed_setup, Args, Window};
use granlog_benchmarks::datalog_benchmark;
use granlog_datalog::{CompiledDatalog, FixpointStats, QueryAnswers};
use granlog_engine::Machine;
use granlog_ir::parser::{parse_program, parse_term};
use granlog_ir::Program;
use std::collections::BTreeSet;
use std::time::Instant;

/// Topologies and host counts. Chain is quadratic in its host count (one
/// round per hop), so it runs smaller to keep every op in milliseconds.
/// Each topology comes from its family's fixed generator seed: rounds and
/// fact counts, and with them the cost of an op, vary widely between
/// generator seeds, so the workload seed drives the op order only.
const TOPOLOGIES: [(&str, usize); 3] = [
    ("attack_star", 2000),
    ("attack_chain", 300),
    ("attack_cut", 1500),
];
/// The conjunctive query of every op: hosts one move from the owned
/// territory, with the owned host they would be attacked from.
const QUERY: &str = "link(X, Y), owned(X), \\+ owned(Y)";
const SETUP_REPS: usize = 9;

struct Reference {
    stats: FixpointStats,
    answers: BTreeSet<Vec<String>>,
}

/// An answer set rendered order-insensitively.
fn render(answers: &QueryAnswers) -> BTreeSet<Vec<String>> {
    (0..answers.rows.len())
        .map(|i| {
            answers
                .bindings(i)
                .iter()
                .map(|(_, t)| t.to_string())
                .collect()
        })
        .collect()
}

/// Checks the bottom-up answer set against SLD resolution on the same
/// query: every row must succeed as a ground SLD query (soundness), and
/// no SLD solution may lie outside the set (completeness, by asking SLD
/// for a solution that is not one of the listed answers).
fn check_against_sld(source: &str, rendered: &BTreeSet<Vec<String>>, label: &str) {
    let mut listed = String::from(source);
    for row in rendered {
        listed.push_str(&format!("\nbench_answer({}, {}).", row[0], row[1]));
    }
    let program = parse_program(&listed).expect("answer facts parse");
    let mut machine = Machine::new(&program);
    for row in rendered {
        let ground = QUERY.replace('X', &row[0]).replace('Y', &row[1]);
        let out = machine.run_query(&ground).expect("ground SLD query runs");
        assert!(
            out.succeeded,
            "{label}: bottom-up answer {row:?} fails under SLD"
        );
    }
    let out = machine
        .run_query(&format!("{QUERY}, \\+ bench_answer(X, Y)"))
        .expect("completeness query runs");
    assert!(
        !out.succeeded,
        "{label}: SLD finds an answer the fixpoint missed: {:?}",
        crate::programs::render(&out.bindings)
    );
}

pub fn datalog_fixpoint(args: &Args) -> Report {
    let mut report = Report {
        threads: nproc(),
        clients: nproc(),
        ..Report::default()
    };
    let sources: Vec<String> = TOPOLOGIES
        .iter()
        .map(|&(name, n)| datalog_benchmark(name).expect("attack family").source(n))
        .collect();
    let labels: Vec<String> = TOPOLOGIES
        .iter()
        .map(|(name, n)| format!("{name}({n})"))
        .collect();
    let (goal, names) = parse_term(QUERY).expect("query parses");

    let mut setup = |_| {
        let programs: Vec<Program> = sources
            .iter()
            .map(|s| span("ir.parse_program", || parse_program(s)).expect("topologies parse"))
            .collect();
        programs
            .iter()
            .map(|p| {
                span("datalog.compile", || CompiledDatalog::compile(p)).expect("Datalog subset")
            })
            .collect::<Vec<CompiledDatalog>>()
    };
    let (mut setup_times, compiled) = timed_setup(0..SETUP_REPS, &mut setup, &mut drop);

    let references: Vec<Reference> = compiled
        .iter()
        .zip(&sources)
        .zip(&labels)
        .map(|((c, source), label)| {
            let db = c.evaluate().expect("fixpoint evaluates");
            let answers = render(
                &db.query(&goal, &names)
                    .expect("query is in the Datalog subset"),
            );
            check_against_sld(source, &answers, label);
            Reference {
                stats: *db.stats(),
                answers,
            }
        })
        .collect();
    for (label, r) in labels.iter().zip(&references) {
        report.note(format!(
            "datalog: {label:<20} {} rounds, {} derived facts, {} answers",
            r.stats.rounds,
            r.stats.derived_facts,
            r.answers.len()
        ));
    }

    let n = TOPOLOGIES.len() as u64;
    let clients: Vec<Vec<usize>> = vec![Vec::new(); report.clients];
    let (samples, elapsed, _) =
        closed_loop(clients, Window::Seconds(args.seconds), |order, index, i| {
            if i % n == 0 {
                *order = shuffled(n as usize, mix(args.seed, ((index as u64) << 32) | (i / n)));
            }
            let p = order[(i % n) as usize];
            let start = Instant::now();
            let result = trace::op(trace::new_op(), || {
                let db = span("datalog.evaluate", || compiled[p].evaluate())
                    .expect("fixpoint evaluates");
                let answers = span("datalog.query", || db.query(&goal, &names));
                (db, answers)
            });
            let ms = ms_since(start);
            let (db, answers) = result;
            let reference = &references[p];
            let ok = *db.stats() == reference.stats
                && answers.is_ok_and(|a| render(&a) == reference.answers);
            Sample {
                program: p,
                ms,
                ok,
                end_s: 0.0,
            }
        });
    let (after, _) = timed_setup(SETUP_REPS..2 * SETUP_REPS, &mut setup, &mut drop);
    setup_times.extend(after);
    report.set_end_to_end(median(&setup_times), &samples, elapsed, &labels);

    let total = references.iter().fold([0u64; 3], |acc, r| {
        [
            acc[0] + r.stats.rounds,
            acc[1] + r.stats.derived_facts,
            acc[2] + r.stats.join_batches,
        ]
    });
    report.count("datalog.rounds", total[0]);
    report.count("datalog.derived_facts", total[1]);
    report.count("datalog.join_batches", total[2]);
    if args.traced {
        let spans = trace::collect();
        let evaluate = trace::durations(&spans, "datalog.evaluate");
        report.layer(
            "datalog.compile_ms",
            median(&trace::durations(&spans, "datalog.compile")),
            "ms",
        );
        report.layer("datalog.evaluate_ms", median(&evaluate), "ms");
        report.layer(
            "datalog.query_ms",
            median(&trace::durations(&spans, "datalog.query")),
            "ms",
        );
        // Per round: total evaluate time over the rounds those evaluations
        // ran (each op's rounds are its topology's reference rounds).
        let rounds: u64 = samples
            .iter()
            .map(|s| references[s.program].stats.rounds)
            .sum();
        report.layer(
            "datalog.us_per_round",
            evaluate.iter().sum::<f64>() * 1e3 / rounds.max(1) as f64,
            "us",
        );
        report.layer("datalog.rounds", total[0] as f64, "count");
        report.layer("datalog.derived_facts", total[1] as f64, "count");
        report.layer("datalog.join_batches", total[2] as f64, "count");
        report.layer(
            "ir.parse_ms",
            median(&trace::durations(&spans, "ir.parse_program")),
            "ms",
        );
    }
    report
}
