//! What one workload run measured, and its rendering as the one JSON line
//! `run.py` reads.

use crate::stats::{geomean, median, quantile};
use granlog_obs::push_json_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index of the op's program in the workload's program list.
    pub program: usize,
    pub ms: f64,
    pub ok: bool,
    /// Completion time, seconds since the window opened.
    pub end_s: f64,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ops needed for a p99 with at least ten samples beyond it.
pub const MIN_SAMPLES: usize = 1000;
/// Most sub-windows a run is cut into for throughput, p50 and p99.
const MAX_SUB_WINDOWS: usize = 5;

#[derive(Debug, Default)]
pub struct Report {
    pub threads: usize,
    pub clients: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks other than per-op answer mismatches (reconciliation,
    /// count invariants). Any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Exact counts from the deterministic count pass; they must repeat
    /// exactly between runs at the same seed.
    pub counts: BTreeMap<String, u64>,
}

impl Report {
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    /// Prints a human-readable line beside the metrics.
    pub fn note(&self, line: String) {
        eprintln!("[perfbench] {line}");
    }

    pub fn error(&mut self, line: String) {
        eprintln!("[perfbench] CHECK FAILED: {line}");
        self.errors.push(line);
    }

    /// Fills the seven end-to-end metrics from the timed window's samples.
    /// `labels` names the programs `Sample::program` indexes.
    pub fn set_end_to_end(
        &mut self,
        setup_s: f64,
        samples: &[Sample],
        elapsed_s: f64,
        labels: &[String],
    ) {
        // Throughput, p50 and p99 are medians over consecutive
        // sub-windows of the run, as many as keep a thousand samples in
        // each, so a passing stall on the host moves one sub-window only.
        let windows = (samples.len() / MIN_SAMPLES).clamp(1, MAX_SUB_WINDOWS);
        let mut sub: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for s in samples {
            let w = ((s.end_s / elapsed_s.max(1e-9)) * windows as f64) as usize;
            sub[w.min(windows - 1)].push(s.ms);
        }
        let sub_median =
            |f: &dyn Fn(&Vec<f64>) -> f64| median(&sub.iter().map(f).collect::<Vec<_>>());
        let window_s = elapsed_s / windows as f64;
        let throughput = sub_median(&|v| v.len() as f64 / window_s.max(1e-9));
        let p50 = sub_median(&|v| quantile(v, 0.50));
        let p99 = sub_median(&|v| quantile(v, 0.99));
        let mut per_program: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in samples {
            per_program.entry(s.program).or_default().push(s.ms);
        }
        let program_medians: Vec<f64> = per_program.values().map(|v| median(v)).collect();
        for ((p, ms), med) in per_program.iter().zip(&program_medians) {
            self.note(format!(
                "op latency {:<22} median {med:.4} ms over {} ops",
                labels[*p],
                ms.len()
            ));
        }
        self.attempted = samples.len() as u64;
        self.failed = samples.iter().filter(|s| !s.ok).count() as u64;
        let metrics = [
            ("setup_s", setup_s, "s"),
            ("throughput_ops_s", throughput, "1/s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p99_ms", p99, "ms"),
            ("latency_geomean_ms", geomean(&program_medians), "ms"),
            (
                "error_rate",
                self.failed as f64 / self.attempted.max(1) as f64,
                "ratio",
            ),
            ("peak_rss_mb", crate::stats::peak_rss_mb(), "MB"),
        ];
        self.end_to_end = metrics
            .into_iter()
            .map(|(name, value, unit)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect();
        self.note(format!(
            "{} ops in {elapsed_s:.3} s ({} failed), {windows} sub-windows; \
             each sub-window's p99 rests on {} samples beyond it",
            samples.len(),
            self.failed,
            samples.len() / windows / 100
        ));
        if samples.len() < MIN_SAMPLES {
            self.error(format!(
                "only {} samples: a p99 needs {MIN_SAMPLES}",
                samples.len()
            ));
        }
    }

    pub fn to_json(&self, workload: &str, seed: u64, traced: bool) -> String {
        fn metrics(out: &mut String, list: &[Metric]) {
            out.push('{');
            for (i, m) in list.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_string(out, &m.name);
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                let _ = write!(out, ":{{\"value\":{value},\"unit\":");
                push_json_string(out, m.unit);
                out.push('}');
            }
            out.push('}');
        }
        let mut out = String::new();
        out.push_str("{\"workload\":");
        push_json_string(&mut out, workload);
        let _ = write!(
            out,
            ",\"seed\":{seed},\"traced\":{traced},\"threads\":{},\"clients\":{},\
             \"available_parallelism\":{},\"attempted\":{},\"failed\":{},\"errors\":[",
            self.threads,
            self.clients,
            crate::nproc(),
            self.attempted,
            self.failed
        );
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, e);
        }
        out.push_str("],\"end_to_end\":");
        metrics(&mut out, &self.end_to_end);
        out.push_str(",\"per_layer\":");
        metrics(&mut out, &self.per_layer);
        out.push_str(",\"counts\":{");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("}}");
        out
    }
}
