//! Sustained-ingest benchmark for the `mvcom-daemon` service loop:
//! steady-state throughput (txs/sec, reports/sec), exact-percentile
//! epoch-close latency over ≥ 60 epochs, and an in-process re-check of
//! the kill/resume byte-identity guarantee. Writes `BENCH_daemon.json`
//! (workspace root by default; override with `MVCOM_BENCH_OUT`). Set
//! `MVCOM_BENCH_QUICK=1` for a reduced smoke run.
//!
//! The sustained loop runs twice, with each epoch's SE replica fan-out
//! at 1 and at 2 threads. The two histories must be byte-identical, and
//! on a host with ≥ 2 cores the 2-thread p50 epoch close must be at
//! least [`THREAD_SPEEDUP_GATE`]× faster. The kill/resume check resumes
//! the 2-thread history at 1 thread.
//!
//! This is the only place the daemon is measured against the wall
//! clock — the daemon itself is fully logical-clocked (lint D1), so
//! `Instant` lives here, in the bench harness.

// Test/example code: unwrap is fine here (the workspace-level
// `clippy::unwrap_used` warning targets library code; see mvcom-lint P1).
#![allow(clippy::unwrap_used)]
use std::path::{Path, PathBuf};
use std::time::Instant;

use mvcom_daemon::{AlertConfig, AlertEngine, Daemon, DaemonConfig, SeededSource};
use mvcom_obs::Obs;

/// Wall-clock ceiling for the full sustained run (release build).
const WALL_CLOCK_GATE_SECS: f64 = 120.0;

/// Epochs discarded before throughput is considered steady-state.
const WARMUP_EPOCHS: usize = 8;

/// Minimum p50 epoch-close speedup of 2 SE threads over 1, gated only
/// where at least 2 cores are available.
const THREAD_SPEEDUP_GATE: f64 = 1.3;

#[derive(serde::Serialize)]
struct BenchConfig {
    seed: u64,
    population: u32,
    batch_size: u32,
    reports_per_epoch: u32,
    se_iterations: u64,
    defense: bool,
    adv_fraction: f64,
    epochs: u64,
    /// SE fan-out of the run behind `sustained`/`epoch_close_latency`.
    threads: usize,
}

#[derive(serde::Serialize)]
struct Sustained {
    epochs: usize,
    warmup_epochs: usize,
    steady_epochs: usize,
    steady_reports: u64,
    steady_offered_txs: u64,
    steady_admitted_txs: u64,
    total_secs: f64,
    steady_secs: f64,
    txs_per_sec: f64,
    reports_per_sec: f64,
}

#[derive(serde::Serialize)]
struct CloseLatency {
    /// Exact percentiles over per-epoch `step_epoch` wall times
    /// (ingest + schedule + defend + persist), milliseconds.
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

#[derive(serde::Serialize)]
struct ThreadRun {
    threads: usize,
    total_secs: f64,
    p50_ms: f64,
    p99_ms: f64,
}

#[derive(serde::Serialize)]
struct ThreadScaling {
    cores_available: usize,
    runs: Vec<ThreadRun>,
    /// 1-thread p50 ÷ 2-thread p50.
    p50_speedup: f64,
    speedup_gate: f64,
    /// `false` on a 1-core host, where the gate is waived.
    gated: bool,
    histories_identical: bool,
}

#[derive(serde::Serialize)]
struct Recovery {
    reference_bytes: u64,
    killed_at_bytes: u64,
    resumed_epochs: u64,
    recovery_identical: bool,
}

#[derive(serde::Serialize)]
struct Acceptance {
    criterion: String,
    epochs: usize,
    min_epochs: usize,
    total_secs: f64,
    wall_clock_gate_secs: f64,
    p99_epoch_close_ms: f64,
    recovery_identical: bool,
    p50_thread_speedup: f64,
    pass: bool,
}

#[derive(serde::Serialize)]
struct Report {
    bench: String,
    mode: String,
    config: BenchConfig,
    sustained: Sustained,
    epoch_close_latency: CloseLatency,
    thread_scaling: ThreadScaling,
    recovery: Recovery,
    acceptance: Acceptance,
}

fn daemon_config(quick: bool, threads: usize) -> (DaemonConfig, u64) {
    let epochs: u64 = if quick { 12 } else { 72 };
    let config = DaemonConfig {
        seed: 42,
        population: 96,
        batch_size: 8,
        reports_per_epoch: 48,
        batch_interval_s: 0.5,
        se_iterations: if quick { 150 } else { 600 },
        defense: true,
        adv_fraction: 0.2,
        adv_strategy: "misreport".to_string(),
        max_epochs: epochs,
        threads,
        ..DaemonConfig::default()
    };
    (config, epochs)
}

fn open(config: &DaemonConfig, history: &Path, resume: bool) -> Daemon {
    let source = SeededSource::new(config.seed, config.population).unwrap();
    Daemon::open(
        config.clone(),
        Box::new(source),
        history,
        resume,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    )
    .unwrap()
}

/// Exact percentile (nearest-rank) over an unsorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Drives the sustained run one `step_epoch` at a time, timing each.
fn sustained_run(config: &DaemonConfig, dir: &Path) -> (Sustained, CloseLatency, f64, Vec<u8>) {
    let history = dir.join(format!("sustained-t{}.log", config.threads));
    let mut daemon = open(config, &history, false);
    let mut step_secs: Vec<f64> = Vec::new();
    let mut summaries = Vec::new();
    let total_start = Instant::now();
    loop {
        let start = Instant::now();
        match daemon.step_epoch().unwrap() {
            Some(summary) => {
                step_secs.push(start.elapsed().as_secs_f64());
                summaries.push(summary);
            }
            None => break,
        }
        if summaries.len() as u64 >= config.max_epochs {
            break;
        }
    }
    let total_secs = total_start.elapsed().as_secs_f64();
    drop(daemon);
    let bytes = std::fs::read(&history).unwrap();

    let warmup = WARMUP_EPOCHS.min(summaries.len() / 2);
    let steady = &summaries[warmup..];
    let steady_secs: f64 = step_secs[warmup..].iter().sum();
    let steady_reports: u64 = steady.iter().map(|s| s.reports).sum();
    let steady_offered: u64 = steady.iter().map(|s| s.offered_txs).sum();
    let steady_admitted: u64 = steady.iter().map(|s| s.admitted_txs).sum();
    let sustained = Sustained {
        epochs: summaries.len(),
        warmup_epochs: warmup,
        steady_epochs: steady.len(),
        steady_reports,
        steady_offered_txs: steady_offered,
        steady_admitted_txs: steady_admitted,
        total_secs,
        steady_secs,
        txs_per_sec: steady_offered as f64 / steady_secs.max(1e-9),
        reports_per_sec: steady_reports as f64 / steady_secs.max(1e-9),
    };
    let mut sorted = step_secs.clone();
    sorted.sort_by(f64::total_cmp);
    let latency = CloseLatency {
        p50_ms: percentile(&sorted, 0.50) * 1e3,
        p90_ms: percentile(&sorted, 0.90) * 1e3,
        p99_ms: percentile(&sorted, 0.99) * 1e3,
        max_ms: sorted.last().copied().unwrap_or(0.0) * 1e3,
    };
    (sustained, latency, total_secs, bytes)
}

/// Re-checks the crash-recovery guarantee in-process: truncate the
/// reference history mid-way into its final record (the `kill -9`
/// artifact), resume, and byte-compare.
fn check_recovery(config: &DaemonConfig, dir: &Path, reference: &[u8]) -> Recovery {
    // Find the start of the last frame.
    let mut at = 0usize;
    let mut last_start = 0usize;
    while at + 8 <= reference.len() {
        last_start = at;
        let len = u32::from_le_bytes(reference[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
    }
    let killed_at = last_start + (reference.len() - last_start) / 2;
    let history = dir.join("killed.log");
    std::fs::write(&history, &reference[..killed_at]).unwrap();
    let mut daemon = open(config, &history, true);
    let resumed_epochs = daemon.run(|_| {}).unwrap();
    drop(daemon);
    let resumed = std::fs::read(&history).unwrap();
    Recovery {
        reference_bytes: reference.len() as u64,
        killed_at_bytes: killed_at as u64,
        resumed_epochs,
        recovery_identical: resumed == reference,
    }
}

fn main() {
    let quick = std::env::var("MVCOM_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let (serial_config, _) = daemon_config(quick, 1);
    let (config, epochs) = daemon_config(quick, 2);
    let dir = std::env::temp_dir().join(format!("mvcom-bench-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let (_, serial_latency, serial_secs, serial_history) = sustained_run(&serial_config, &dir);
    let (sustained, latency, total_secs, reference) = sustained_run(&config, &dir);
    eprintln!(
        "  daemon/sustained: {} epochs ({} steady) in {:.2}s — {:.0} txs/s, {:.0} reports/s",
        sustained.epochs,
        sustained.steady_epochs,
        total_secs,
        sustained.txs_per_sec,
        sustained.reports_per_sec
    );
    eprintln!(
        "  daemon/close_latency: p50 {:.2}ms, p90 {:.2}ms, p99 {:.2}ms, max {:.2}ms",
        latency.p50_ms, latency.p90_ms, latency.p99_ms, latency.max_ms
    );
    let histories_identical = serial_history == reference;
    assert!(
        histories_identical,
        "the 1- and 2-thread histories differ: the SE fan-out changed the schedule"
    );
    let cores_available = std::thread::available_parallelism().map_or(1, |p| p.get());
    let p50_speedup = serial_latency.p50_ms / latency.p50_ms.max(1e-9);
    let thread_scaling = ThreadScaling {
        cores_available,
        runs: vec![
            ThreadRun {
                threads: 1,
                total_secs: serial_secs,
                p50_ms: serial_latency.p50_ms,
                p99_ms: serial_latency.p99_ms,
            },
            ThreadRun {
                threads: 2,
                total_secs,
                p50_ms: latency.p50_ms,
                p99_ms: latency.p99_ms,
            },
        ],
        p50_speedup,
        speedup_gate: THREAD_SPEEDUP_GATE,
        gated: cores_available >= 2,
        histories_identical,
    };
    eprintln!(
        "  daemon/threads: p50 {:.2}ms at 1 thread, {:.2}ms at 2 — {p50_speedup:.2}x on a \
         {cores_available}-core host (gate {THREAD_SPEEDUP_GATE}x{})",
        serial_latency.p50_ms,
        latency.p50_ms,
        if thread_scaling.gated { "" } else { ", waived" }
    );

    let recovery = check_recovery(&serial_config, &dir, &reference);
    assert!(
        recovery.recovery_identical,
        "resumed history diverged from the uninterrupted reference"
    );
    eprintln!(
        "  daemon/recovery: killed at byte {}/{} — resumed {} epoch(s), identical={}",
        recovery.killed_at_bytes,
        recovery.reference_bytes,
        recovery.resumed_epochs,
        recovery.recovery_identical
    );

    let min_epochs = if quick { 12 } else { 60 };
    let run_epochs = sustained.epochs;
    let epochs_ok = run_epochs >= min_epochs;
    let gate_ok = total_secs.max(serial_secs) <= WALL_CLOCK_GATE_SECS;
    let speedup_ok = !thread_scaling.gated || p50_speedup >= THREAD_SPEEDUP_GATE;
    let p99 = latency.p99_ms;
    let report = Report {
        bench: "daemon".into(),
        mode: if quick { "quick" } else { "full" }.into(),
        config: BenchConfig {
            seed: config.seed,
            population: config.population,
            batch_size: config.batch_size,
            reports_per_epoch: config.reports_per_epoch,
            se_iterations: config.se_iterations,
            defense: config.defense,
            adv_fraction: config.adv_fraction,
            epochs,
            threads: config.threads,
        },
        sustained,
        epoch_close_latency: latency,
        thread_scaling,
        recovery,
        acceptance: Acceptance {
            criterion: format!(
                "sustained ingest over >= {min_epochs} epochs (defense + misreport adversary) \
                 completes within {WALL_CLOCK_GATE_SECS}s wall clock at 1 and at 2 SE threads, \
                 reporting steady-state txs/sec and exact-percentile p99 epoch-close latency; \
                 both histories are byte-identical; with >= 2 cores, 2 threads close epochs \
                 >= {THREAD_SPEEDUP_GATE}x faster at p50; a mid-record kill at 2 threads \
                 resumes at 1 thread to a byte-identical history"
            ),
            epochs: run_epochs,
            min_epochs,
            total_secs,
            wall_clock_gate_secs: WALL_CLOCK_GATE_SECS,
            p99_epoch_close_ms: p99,
            recovery_identical: true,
            p50_thread_speedup: p50_speedup,
            pass: epochs_ok && gate_ok && speedup_ok,
        },
    };

    let out = std::env::var("MVCOM_BENCH_OUT").map_or_else(
        |_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_daemon.json")
        },
        PathBuf::from,
    );
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, text).expect("writing bench report");
    eprintln!(
        "  daemon report: {} (acceptance {}: {:.1}s/{:.0}s, p99 {:.2}ms)",
        out.display(),
        if report.acceptance.pass {
            "PASS"
        } else {
            "FAIL"
        },
        total_secs,
        WALL_CLOCK_GATE_SECS,
        p99
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.acceptance.pass, "daemon bench acceptance failed");
}
