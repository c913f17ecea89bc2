//! `grain_par`: the paper's claim in process. Eight programs are analysed
//! and annotated, then a closed loop of queries runs on `ParExecutor` with
//! `threads = nproc` and `Granularity::On`. Sizes are scaled up so one
//! sequential query takes milliseconds. The set holds finite-cost
//! thresholds (fib, hanoi) and the unbounded "always spawn" fallback
//! (tree_traversal, poly_inclusion).

use crate::probe::engine_probe;
use crate::programs::{self, Bindings, Spec};
use crate::report::{Report, Sample};
use crate::stats::{geomean, median, mix, ms_since, shuffled};
use crate::trace::{self, span};
use crate::{closed_loop, nproc, timed_setup, Args, Window};
use granlog_analysis::{
    analyze_program, apply_granularity_control, AnalysisOptions, AnnotateOptions,
};
use granlog_engine::Machine;
use granlog_ir::parser::parse_term;
use granlog_ir::{PredId, Program, Symbol, Term};
use granlog_obs::{Registry, Tracer};
use granlog_par::{Granularity, ParConfig, ParExecutor, ParObs};
use granlog_sim::{simulate, OverheadModel, SimConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The programs and their sizes: each query takes milliseconds at two
/// threads, so a ten-second window holds the thousand ops a p99 needs.
const PROGRAMS: [(&str, usize); 8] = [
    ("fib", 19),
    ("hanoi", 10),
    ("quick_sort", 1000),
    ("merge_sort", 1000),
    ("fft", 512),
    ("matrix_mult", 16),
    ("poly_inclusion", 100),
    ("tree_traversal", 10),
];
const SETUP_REPS: usize = 7;
/// Repetitions of each probe timing; their median is reported.
const PROBE_REPS: usize = 5;
/// Query of the fixed-cost probe: too small for any conjunction to run.
const TINY_QUERY: &str = "fib(1, X)";

fn config(granularity: Granularity) -> ParConfig {
    ParConfig {
        threads: nproc(),
        granularity,
        ..ParConfig::default()
    }
}

struct Goal {
    term: Term,
    names: Vec<Symbol>,
}

fn goal(query: &str) -> Goal {
    let (term, names) = parse_term(query).expect("generated queries parse");
    Goal { term, names }
}

/// Median wall time (ms) of `reps` runs of `goal` on `exec`, and the
/// spawns of one run.
fn par_wall(exec: &mut ParExecutor<'_>, goal: &Goal, reps: usize) -> (f64, usize) {
    let mut spawned = 0;
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let out = exec
                .run_goal(&goal.term, &goal.names)
                .expect("probe query runs");
            spawned = out.spawned_tasks;
            ms_since(start)
        })
        .collect();
    (median(&times), spawned)
}

pub fn grain_par(args: &Args) -> Report {
    let mut report = Report {
        threads: nproc(),
        clients: 1,
        ..Report::default()
    };
    let specs: Vec<Spec> = PROGRAMS
        .iter()
        .map(|&(name, size)| programs::spec(name, size, args.seed))
        .collect();
    let sources: Vec<Program> = specs
        .iter()
        .map(|spec| span("ir.parse_program", || programs::program(spec)))
        .collect();
    let references: Vec<Bindings> = specs
        .iter()
        .zip(&sources)
        .map(|(spec, program)| programs::reference(spec, program))
        .collect();
    let goals: Vec<Goal> = specs.iter().map(|s| goal(&s.query)).collect();

    let mut setup = |_| {
        let analyses: Vec<_> = sources
            .iter()
            .map(|p| {
                span("analysis.analyze", || {
                    analyze_program(p, &AnalysisOptions::default())
                })
            })
            .collect();
        let annotated: Vec<Program> = sources
            .iter()
            .zip(&analyses)
            .map(|(p, a)| {
                span("analysis.annotate", || {
                    apply_granularity_control(p, a, &AnnotateOptions::default()).program
                })
            })
            .collect();
        let executors: Vec<ParExecutor<'_>> = sources
            .iter()
            .map(|p| {
                span("par.executor_new", || {
                    ParExecutor::new(p, config(Granularity::On))
                })
            })
            .collect();
        (analyses, annotated, executors)
    };
    let (mut setup_times, (analyses, annotated, executors)) =
        timed_setup(0..SETUP_REPS, &mut setup, &mut drop);

    let registry = Registry::new();
    let obs = args
        .traced
        .then(|| Arc::new(ParObs::register(&registry, Arc::new(Tracer::disabled(16)))));
    let mut executors = executors;
    for exec in &mut executors {
        exec.set_obs(obs.clone());
    }
    struct Runner<'p> {
        executors: Vec<ParExecutor<'p>>,
        order: Vec<usize>,
    }
    let n = specs.len() as u64;
    let (samples, elapsed, runners) = closed_loop(
        vec![Runner {
            executors,
            order: Vec::new(),
        }],
        Window::Seconds(args.seconds),
        |d, _, i| {
            if i % n == 0 {
                d.order = shuffled(n as usize, mix(args.seed, i / n));
            }
            let p = d.order[(i % n) as usize];
            let start = Instant::now();
            let out = trace::op(trace::new_op(), || {
                span("par.run_goal", || {
                    d.executors[p].run_goal(&goals[p].term, &goals[p].names)
                })
            });
            let ms = ms_since(start);
            Sample {
                program: p,
                ms,
                end_s: 0.0,
                ok: matches!(&out, Ok(o) if o.succeeded && programs::render(&o.bindings) == references[p]),
            }
        },
    );
    let (after, _) = timed_setup(SETUP_REPS..2 * SETUP_REPS, &mut setup, &mut drop);
    setup_times.extend(after);
    report.set_end_to_end(
        median(&setup_times),
        &samples,
        elapsed,
        &specs.iter().map(Spec::label).collect::<Vec<_>>(),
    );
    let mut executors = runners.into_iter().next().expect("one runner").executors;

    // Exact counts: one more query per program, twice; the two must agree.
    let mut counts = [0u64; 3];
    for (exec, g) in executors.iter_mut().zip(&goals) {
        let runs: Vec<[u64; 3]> = (0..2)
            .map(|_| {
                let out = exec.run_goal(&g.term, &g.names).expect("count query runs");
                [
                    out.spawned_tasks as u64,
                    out.inlined_conjunctions as u64,
                    out.counters.resolutions,
                ]
            })
            .collect();
        if runs[0] != runs[1] {
            report.error(format!(
                "par counts differ between two identical queries: {runs:?}"
            ));
        }
        for (total, v) in counts.iter_mut().zip(runs[0]) {
            *total += v;
        }
    }
    let [spawned, inlined, par_resolutions] = counts;
    report.count("par.spawned", spawned);
    report.count("par.inlined", inlined);
    report.count("par.resolutions", par_resolutions);

    let solve_ms = engine_probe(&specs, &sources, args.traced, &mut report);
    if !args.traced {
        return report;
    }
    if let Some(obs) = &obs {
        report.layer("par.steals", obs.steals.get() as f64, "count");
        report.layer(
            "par.join_wait_ms",
            obs.join_wait_ms.snapshot().sum / obs.join_wait_ms.count().max(1) as f64,
            "ms",
        );
        report.layer(
            "par.arm_ms",
            obs.arm_ms.snapshot().sum / obs.arm_ms.count().max(1) as f64,
            "ms",
        );
    }
    report.layer("par.spawned", spawned as f64, "count");
    report.layer("par.inlined", inlined as f64, "count");
    report.layer(
        "par.spawn_ratio",
        spawned as f64 / (spawned + inlined).max(1) as f64,
        "ratio",
    );
    let mut par_ms: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in &samples {
        par_ms.entry(s.program).or_default().push(s.ms);
    }
    let speedups: Vec<f64> = solve_ms
        .iter()
        .enumerate()
        .map(|(p, seq)| seq / median(&par_ms[&p]).max(1e-9))
        .collect();
    report.layer("par.speedup", geomean(&speedups), "ratio");

    // Spawn cost: always-spawn minus inline wall for the same query, per
    // spawn.
    let (mut extra_ms, mut spawns) = (0.0, 0usize);
    for (program, g) in sources.iter().zip(&goals) {
        let mut always = ParExecutor::new(program, config(Granularity::AlwaysSpawn));
        let mut off = ParExecutor::new(program, config(Granularity::Off));
        let (always_ms, n) = span("par.probe_always", || par_wall(&mut always, g, PROBE_REPS));
        let (off_ms, _) = span("par.probe_off", || par_wall(&mut off, g, PROBE_REPS));
        extra_ms += always_ms - off_ms;
        spawns += n;
    }
    report.layer(
        "par.spawn_cost_us",
        extra_ms * 1e3 / spawns.max(1) as f64,
        "us",
    );

    // Fixed cost: a query too small to reach a conjunction, on the
    // executor (which still starts its workers) and on a bare machine.
    let fib = &sources[0];
    let tiny = goal(TINY_QUERY);
    let mut exec = ParExecutor::new(fib, config(Granularity::On));
    let mut machine = Machine::new(fib);
    let par_tiny: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            exec.run_goal(&tiny.term, &tiny.names).expect("tiny query");
            ms_since(start)
        })
        .collect();
    let seq_tiny: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            machine
                .run_goal(&tiny.term, &tiny.names)
                .expect("tiny query");
            ms_since(start)
        })
        .collect();
    report.layer(
        "par.fixed_cost_us",
        (median(&par_tiny) - median(&seq_tiny)) * 1e3,
        "us",
    );

    analysis_layers(&mut report, &specs, &analyses, &goals, &sources);

    // The simulator's prediction at P = nproc, from the annotated
    // programs' sequential task trees.
    let base = OverheadModel::rolog_like();
    let overhead = base.scaled(ParConfig::default().overhead / base.per_task_overhead().max(1e-9));
    let predicted: Vec<f64> = annotated
        .iter()
        .zip(&goals)
        .map(|(program, g)| {
            let out = Machine::new(program)
                .run_goal(&g.term, &g.names)
                .expect("annotated query runs");
            span("sim.simulate", || {
                simulate(&out.task_tree, &SimConfig::new(nproc(), overhead))
            })
            .speedup_vs_sequential
        })
        .collect();
    report.layer("sim.predicted_speedup", geomean(&predicted), "ratio");
    for (p, spec) in specs.iter().enumerate() {
        report.note(format!(
            "par: {:<22} speedup {:.2} (simulated {:.2}) at {} threads",
            spec.label(),
            speedups[p],
            predicted[p],
            nproc()
        ));
    }
    let spans = trace::collect();
    let setup_reps = (2 * SETUP_REPS) as f64;
    // Set-up ran every analysis `2 * SETUP_REPS` times: report one pass
    // over the eight programs.
    report.layer(
        "analysis.analyze_ms",
        trace::durations(&spans, "analysis.analyze")
            .iter()
            .sum::<f64>()
            / setup_reps,
        "ms",
    );
    report.layer(
        "analysis.annotate_ms",
        trace::durations(&spans, "analysis.annotate")
            .iter()
            .sum::<f64>()
            / setup_reps,
        "ms",
    );
    report.layer(
        "ir.parse_ms",
        median(&trace::durations(&spans, "ir.parse_program")),
        "ms",
    );
    report
}

/// `analysis.unbounded_preds` and `analysis.bound_ratio`: how many
/// predicates solve to an infinite cost, and the predicted entry cost over
/// the observed resolutions for the rest (an upper bound must give >= 1).
fn analysis_layers(
    report: &mut Report,
    specs: &[Spec],
    analyses: &[granlog_analysis::ProgramAnalysis],
    goals: &[Goal],
    programs: &[Program],
) {
    let (mut unbounded, mut analysed) = (0usize, 0usize);
    let mut ratios = Vec::new();
    for (((spec, analysis), g), program) in specs.iter().zip(analyses).zip(goals).zip(programs) {
        analysed += analysis.preds.len();
        unbounded += analysis
            .preds
            .values()
            .filter(|pa| pa.cost.is_infinite())
            .count();
        let Some((name, arity)) = g.term.functor() else {
            continue;
        };
        let Some(pa) = analysis.pred(PredId::new(name, arity)) else {
            continue;
        };
        let sizes: Option<Vec<f64>> = pa
            .input_positions
            .iter()
            .map(|&i| {
                pa.measures
                    .get(i)?
                    .size(&g.term.args()[i])
                    .map(|v| v as f64)
            })
            .collect();
        let Some(predicted) = sizes.and_then(|s| pa.cost_at(&s)).filter(|c| c.is_finite()) else {
            report.note(format!(
                "analysis: {:<22} entry cost unbounded",
                spec.label()
            ));
            continue;
        };
        let observed = Machine::new(program)
            .run_goal(&g.term, &g.names)
            .expect("reference query runs")
            .counters
            .resolutions as f64;
        let ratio = predicted / observed.max(1.0);
        report.note(format!(
            "analysis: {:<22} predicted {predicted:.0} / observed {observed:.0} resolutions = {ratio:.3}",
            spec.label()
        ));
        if ratio < 1.0 {
            report.note(format!(
                "WARNING: {}: observed work exceeds the analysis' upper bound",
                spec.label()
            ));
        }
        ratios.push(ratio);
    }
    report.note(format!(
        "analysis: {unbounded} of {analysed} analysed predicates unbounded"
    ));
    report.layer("analysis.unbounded_preds", unbounded as f64, "count");
    report.layer(
        "analysis.bound_ratio",
        ratios.iter().copied().fold(f64::INFINITY, f64::min),
        "ratio",
    );
}
