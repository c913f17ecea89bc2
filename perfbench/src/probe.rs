//! The sequential engine probe shared by the SLD workloads: per program,
//! the exact operation counts of one query (both runs) and, in the traced
//! run, warm `Machine::run_goal` and template-compile timings.

use crate::programs::Spec;
use crate::report::Report;
use crate::stats::{geomean, median, ms_since};
use crate::trace::span;
use granlog_engine::Machine;
use granlog_ir::parser::parse_term;
use granlog_ir::Program;
use std::time::Instant;

/// Timed repetitions per program, bounded by [`PROBE_MS`] of solving.
const PROBE_REPS: usize = 30;
const PROBE_MS: f64 = 150.0;

/// Returns the sequential solve time of each program (ms, median of warm
/// runs) in the order of `specs`; empty when untraced.
pub fn engine_probe(
    specs: &[Spec],
    programs: &[Program],
    traced: bool,
    report: &mut Report,
) -> Vec<f64> {
    let (mut resolutions, mut head_attempts, mut allocs, mut heap_high_water) =
        (0u64, 0u64, 0u64, 0usize);
    let (mut solve_ms, mut compile_ms) = (Vec::new(), Vec::new());
    for (spec, program) in specs.iter().zip(programs) {
        let (goal, names) = parse_term(&spec.query).expect("generated queries parse");
        let mut machine = Machine::new(program);
        let out = machine
            .run_goal(&goal, &names)
            .expect("reference run succeeded");
        resolutions += out.counters.resolutions;
        head_attempts += out.counters.head_attempts;
        if !traced {
            continue;
        }
        // One warm query under the counting allocator.
        let before = granlog_bench::allocations_now().unwrap_or(0);
        let out = machine.run_goal(&goal, &names).expect("warm run");
        allocs += granlog_bench::allocations_now().unwrap_or(0) - before;
        std::hint::black_box(out.succeeded);
        heap_high_water = heap_high_water.max(machine.stats().heap_high_water);
        let mut times = Vec::new();
        let probe_start = Instant::now();
        while times.len() < PROBE_REPS && (times.len() < 3 || ms_since(probe_start) < PROBE_MS) {
            let start = Instant::now();
            let out =
                span("engine.run_goal", || machine.run_goal(&goal, &names)).expect("warm run");
            times.push(ms_since(start));
            std::hint::black_box(out.succeeded);
        }
        solve_ms.push(median(&times));
        let compiles: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                let templates = span("engine.compile_program", || {
                    granlog_engine::template::compile_program(program)
                });
                std::hint::black_box(templates.len());
                ms_since(start)
            })
            .collect();
        compile_ms.push(median(&compiles));
    }
    report.count("engine.resolutions", resolutions);
    report.count("engine.head_attempts", head_attempts);
    if traced {
        let total_solve_s: f64 = solve_ms.iter().sum::<f64>() / 1e3;
        report.layer("engine.solve_ms", geomean(&solve_ms), "ms");
        report.layer(
            "engine.lips",
            resolutions as f64 / total_solve_s.max(1e-12),
            "1/s",
        );
        report.layer("engine.resolutions", resolutions as f64, "count");
        report.layer(
            "engine.head_attempts_per_resolution",
            head_attempts as f64 / resolutions.max(1) as f64,
            "ratio",
        );
        report.layer(
            "engine.allocs_per_resolution",
            allocs as f64 / resolutions.max(1) as f64,
            "ratio",
        );
        report.layer(
            "engine.heap_high_water_cells",
            heap_high_water as f64,
            "cells",
        );
        report.layer("engine.template_compile_ms", geomean(&compile_ms), "ms");
        for (spec, ms) in specs.iter().zip(&solve_ms) {
            report.note(format!(
                "engine: {:<22} sequential solve {ms:.4} ms",
                spec.label()
            ));
        }
    }
    solve_ms
}
