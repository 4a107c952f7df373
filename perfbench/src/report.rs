//! The run's result: checks, notes, metrics, and the final JSON line.
//!
//! Every run prints every metric of its mode, in the order of the tables
//! below (which mirror `BENCHMARK.json`). An end-to-end metric a workload
//! fails to set is a bug and fails the run; a per-layer metric a workload
//! never reaches reads 0 — that layer is not on the workload's path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use crate::trace::Tracer;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("txs_per_s", "tx/s"),
    ("setup_s", "s"),
    ("recovery_s", "s"),
    ("admitted_tx_share", "share"),
    ("final_wait_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("daemon.ingest.ms", "ms"),
    ("dataset.adversary.ms", "ms"),
    ("core.defense.screen_ms", "ms"),
    ("core.defense.settle_ms", "ms"),
    ("core.defense.quarantined_share", "share"),
    ("core.problem.build_ms", "ms"),
    ("core.se.init_ms", "ms"),
    ("core.se.chains", "count"),
    ("core.se.step_ms", "ms"),
    ("core.se.iterations", "count"),
    ("core.se.step_us_per_iter", "us"),
    ("core.se.converged_share", "share"),
    ("core.se.checkpoint_ms", "ms"),
    ("core.se.finish_ms", "ms"),
    ("daemon.history.append_ms", "ms"),
    ("daemon.history.record_bytes", "bytes"),
    ("daemon.history.se_checkpoint_share", "share"),
    ("daemon.history.read_ms", "ms"),
    ("daemon.ingest.fast_forward_ms", "ms"),
    ("daemon.recovery.first_epoch_ms", "ms"),
    ("obs.metrics.render_ms", "ms"),
    ("elastico.stages_ms", "ms"),
    ("elastico.select_ms", "ms"),
    ("elastico.final_ms", "ms"),
    ("pbft.messages", "count"),
    ("pbft.view_changes", "count"),
    ("pbft.failed_share", "share"),
    ("elastico.stages_ns_per_message", "ns"),
    ("bench.trace_overhead_ms", "ms"),
    ("bench.unattributed_share", "share"),
];

/// Largest share of traced op time that may fall outside every layer
/// span before the traced run fails its coverage check.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.03;

#[derive(Debug)]
pub struct Report {
    trace: bool,
    /// Ops attempted (measured ops plus recoveries).
    pub attempted: u64,
    /// Ops that errored, fell back, or did not commit.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    failures: Vec<String>,
    spans: String,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            failures: Vec::new(),
            spans: String::new(),
        }
    }

    /// Sets a metric declared in [`END_TO_END`] or [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// On an undeclared name: the tables and the workloads disagree.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.metrics.insert(name, value);
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.notes.push(format!("check passed: {what}"));
        } else {
            self.failures.push(what);
        }
    }

    /// Records the traced run's coverage: the share of op time no layer
    /// span covers must stay within [`MAX_UNATTRIBUTED_SHARE`].
    pub fn check_coverage(&mut self, what: &str, layers: &crate::trace::Layers) {
        let share = layers.unattributed_share();
        self.check(
            share <= MAX_UNATTRIBUTED_SHARE,
            format!(
                "{what}: layer self times cover the traced op time within {:.0}% \
                 (unattributed {:.3}% of {:.1} ms over {} ops)",
                MAX_UNATTRIBUTED_SHARE * 100.0,
                share * 100.0,
                layers.op_ns / 1e6,
                layers.ops
            ),
        );
    }

    /// Keeps `tracer`'s spans for [`Report::write_spans`].
    pub fn add_spans(&mut self, source: &str, tracer: &Tracer) {
        tracer.write_jsonl(source, &mut self.spans);
    }

    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, &self.spans)
    }

    /// Prints the notes and the result line; the exit code says whether
    /// every check passed.
    pub fn print(mut self) -> ExitCode {
        let table = if self.trace { PER_LAYER } else { END_TO_END };
        let mut body = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if self.trace => 0.0,
                None => {
                    self.failures
                        .push(format!("metric {name} was not measured"));
                    continue;
                }
            };
            if !value.is_finite() {
                self.failures
                    .push(format!("metric {name} is not finite: {value}"));
                continue;
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        for note in &self.notes {
            println!("# {note}");
        }
        if self.attempted == 0 {
            self.failures.push("no op was attempted".into());
        }
        let correct = self.failures.is_empty();
        for failure in &self.failures {
            println!("# CHECK FAILED: {failure}");
        }
        if !correct {
            body.clear();
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted, self.failed
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables are the benchmark's contract with `BENCHMARK.json`.
    #[test]
    fn tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares metrics the benchmark does not print"
        );
    }
}
