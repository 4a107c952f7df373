//! `solve-scale`: one-shot SE schedules of fresh instances at
//! |I| = [`SHARDS`], in a closed loop.
//!
//! Each op is `InstanceBuilder::build` → `SeEngine::new` → step loop →
//! `finish`, with the `fig_scale` configuration (`Γ = 10`,
//! `max_chains = 4`, no early stop) at a budget of [`ITERATIONS`] and the
//! replica fan-out on up to two threads. The shards are streamed from a
//! trace generated from the workload seed before the op starts. This
//! workload never touches ingest, defense or history.

use std::time::{Duration, Instant};

use mvcom_core::problem::{Instance, InstanceBuilder};
use mvcom_core::se::{SeCheckpoint, SeConfig, SeEngine, SeOutcome};
use mvcom_dataset::{LatencyConfig, ShardStream, StreamConfig, Trace, TraceConfig};
use mvcom_types::ShardInfo;

use crate::report::Report;
use crate::speed::Probe;
use crate::stats::{self, ms};
use crate::trace::{Off, Spans, Tracer};

/// Committees per instance.
const SHARDS: usize = 20_000;
/// SE iteration budget per solve.
const ITERATIONS: u64 = 1_000;
/// Solves per second of `--seconds` (the host's fast phase solves a
/// little over one a second): sizes the fixed op sequence.
const OPS_PER_SECOND: f64 = 0.55;
/// Solves torn at [`KILL_AT`] and resumed from their checkpoint.
const KILL_OPS: usize = 7;
/// The iteration at which a torn solve's checkpoint is taken.
const KILL_AT: u64 = 750;

fn se_config(seed: u64) -> SeConfig {
    SeConfig {
        gamma: 10,
        max_iterations: ITERATIONS,
        convergence_window: 0,
        record_every: 1,
        max_chains: 4,
        ..SeConfig::paper(seed)
    }
}

fn op_seed(seed: u64, op: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (op as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The shards of op `op`: streamed as `fig_scale` streams them.
fn shards(trace: &Trace, seed: u64, op: usize) -> Result<Vec<ShardInfo>, String> {
    let config = StreamConfig {
        shards: SHARDS,
        blocks_per_shard: 1,
    };
    let mut stream = ShardStream::new(trace, LatencyConfig::paper(), op_seed(seed, op), config)
        .map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(SHARDS);
    let mut chunk = Vec::new();
    while stream.next_chunk(&mut chunk, 4096) > 0 {
        out.append(&mut chunk);
    }
    Ok(out)
}

fn build(shards: Vec<ShardInfo>) -> mvcom_types::Result<Instance> {
    let n = shards.len();
    InstanceBuilder::new()
        .alpha(1.5)
        .capacity(1_000 * n as u64)
        .n_min(n / 2)
        .shards(shards)
        .build()
}

/// One solve's products.
struct Solved {
    /// Wall time of the op, less the pause to take a checkpoint.
    op: Duration,
    /// Build plus `SeEngine::new`.
    setup: Duration,
    digest: u64,
    feasible: bool,
    selected: usize,
    selected_txs: u64,
    total_txs: u64,
    /// Largest two-phase latency among the selected shards, s.
    wait_s: f64,
    chains: usize,
    iterations: u64,
    converged: bool,
    checkpoint: Option<SeCheckpoint>,
}

/// Solves the instance of `shards` on `threads` workers; with `kill_at`
/// set, also takes the checkpoint a killed solver would leave behind
/// (outside the op's time).
fn solve<S: Spans>(
    shards: Vec<ShardInfo>,
    se_seed: u64,
    threads: usize,
    kill_at: Option<u64>,
    s: &mut S,
) -> Result<Solved, String> {
    let start = Instant::now();
    let root = s.begin("solve");
    let instance = s
        .time("core.problem.build", || build(shards))
        .map_err(|e| e.to_string())?;
    let (mut engine, chains) = s
        .time("core.se.init", || {
            SeEngine::new(&instance, se_config(se_seed)).map(|e| {
                let e = e.with_threads(threads);
                let chains = e.chain_utilities().len();
                (e, chains)
            })
        })
        .map_err(|e| e.to_string())?;
    let setup = start.elapsed();
    let mut paused = Duration::ZERO;
    let mut checkpoint = None;
    s.time("core.se.step", || {
        while engine.iteration() < ITERATIONS && !engine.is_converged() {
            engine.step();
            if kill_at == Some(engine.iteration()) {
                let pause = Instant::now();
                checkpoint = Some(engine.checkpoint());
                paused += pause.elapsed();
            }
        }
    });
    let (iterations, converged) = (engine.iteration(), engine.is_converged());
    let outcome = s.time("core.se.finish", || engine.finish());
    s.end(root);
    let op = start.elapsed() - paused;
    let solution = &outcome.best_solution;
    let mut bytes = outcome.best_utility.to_bits().to_le_bytes().to_vec();
    for i in solution.iter_selected() {
        bytes.extend_from_slice(&(i as u64).to_le_bytes());
    }
    let selected: Vec<&ShardInfo> = solution
        .iter_selected()
        .map(|i| &instance.shards()[i])
        .collect();
    Ok(Solved {
        op,
        setup,
        digest: stats::fnv1a(&bytes),
        feasible: instance.is_feasible(solution),
        selected: selected.len(),
        selected_txs: selected.iter().map(|s| s.tx_count()).sum(),
        total_txs: instance.total_txs(),
        wait_s: selected
            .iter()
            .map(|s| s.two_phase_latency().as_secs())
            .fold(0.0, f64::max),
        chains,
        iterations,
        converged,
        checkpoint,
    })
}

/// Resumes a torn solve from its checkpoint: rebuild the instance,
/// restore the engine, run out the budget, finish.
fn resume(
    shards: Vec<ShardInfo>,
    se_seed: u64,
    threads: usize,
    ckpt: &SeCheckpoint,
) -> Result<(Instance, SeOutcome), String> {
    let instance = build(shards).map_err(|e| e.to_string())?;
    let mut engine = SeEngine::from_checkpoint(&instance, se_config(se_seed), ckpt)
        .map_err(|e| e.to_string())?
        .with_threads(threads);
    while engine.iteration() < ITERATIONS && !engine.is_converged() {
        engine.step();
    }
    Ok((instance, engine.finish()))
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let ops = ((seconds as f64 * OPS_PER_SECOND).round() as usize).max(KILL_OPS + 1);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = cores.min(2);
    let tx_trace = Trace::generate(TraceConfig::jan_2016(), seed);
    let mut report = Report::new(trace);
    report.note(format!(
        "input: {ops} instances of |I| = {SHARDS}, capacity 1000·|I|, N_min = |I|/2; SE Γ = 10, \
         max_chains = 4, {ITERATIONS} iterations on {threads} threads ({cores} cores available)"
    ));

    let (solves, pairs) = if trace {
        traced(&tx_trace, seed, ops / 2, threads, &mut report)?
    } else {
        untraced(&tx_trace, seed, ops, threads, &mut report)?
    };
    // The fan-out must be byte-identical to a serial solve.
    let serial = solve(
        shards(&tx_trace, seed, 0)?,
        op_seed(seed, 0),
        1,
        None,
        &mut Off,
    )?;
    report.check(
        serial.digest == solves[0].digest,
        format!(
            "solution digest at {threads} threads equals the 1-thread digest ({:016x})",
            serial.digest
        ),
    );
    let infeasible = solves.iter().filter(|s| !s.feasible).count();
    report.check(
        infeasible == 0,
        format!(
            "{} solutions are capacity-feasible with at least N_min shards",
            solves.len()
        ),
    );
    let selected: usize = solves.iter().map(|s| s.selected).sum();
    let density = selected as f64 / (solves.len() * SHARDS) as f64;
    report.note(format!(
        "selection density {density:.5} ({selected} selected of {} offered committees over {} solves)",
        solves.len() * SHARDS,
        solves.len()
    ));
    report.attempted = (solves.len() + pairs + 1) as u64;
    Ok(report)
}

/// Returns the measured solves and the count of extra ops (recoveries).
fn untraced(
    tx_trace: &Trace,
    seed: u64,
    ops: usize,
    threads: usize,
    report: &mut Report,
) -> Result<(Vec<Solved>, usize), String> {
    // The torn solves are spread over the run and resumed right away, so
    // the recovery median samples the same host-speed phases as the
    // solves do.
    let kill_ops: Vec<usize> = (0..KILL_OPS).map(|i| i * ops / KILL_OPS).collect();
    let mut solves = Vec::with_capacity(ops);
    let mut recovery = Vec::with_capacity(KILL_OPS);
    let mut resumed_ok = true;
    let mut probe = Probe::new();
    for op in 0..ops {
        let input = shards(tx_trace, seed, op)?;
        let torn = kill_ops.contains(&op);
        let resume_input = torn.then(|| input.clone());
        let (solved, _) = probe.time(|| {
            solve(
                input,
                op_seed(seed, op),
                threads,
                torn.then_some(KILL_AT),
                &mut Off,
            )
        });
        let solved = solved?;
        if let Some(input) = resume_input {
            let ckpt = solved
                .checkpoint
                .as_ref()
                .ok_or("a torn solve left no checkpoint")?;
            let (resumed, elapsed) = probe.time(|| resume(input, op_seed(seed, op), threads, ckpt));
            let (instance, outcome) = resumed?;
            recovery.push(elapsed);
            resumed_ok &= instance.is_feasible(&outcome.best_solution)
                && outcome.best_utility >= ckpt.best_utility;
        }
        solves.push(solved);
    }
    // A solve's own times leave out the checkpoint pause.
    let ops_raw: Vec<_> = solves.iter().map(|s| s.op).collect();
    report.note(probe.summary("solve", &ops_raw));
    let lat: Vec<f64> = ops_raw.iter().map(|d| probe.seconds(*d) * 1e3).collect();
    let setup: Vec<f64> = solves.iter().map(|s| probe.seconds(s.setup)).collect();
    let recovery: Vec<f64> = recovery.iter().map(|s| probe.seconds(*s)).collect();
    report.check(
        resumed_ok,
        format!(
            "{KILL_OPS} solves resumed from their iteration-{KILL_AT} checkpoints finish feasible and \
             no worse than the checkpoint's best"
        ),
    );

    let offered: u64 = solves.iter().map(|s| s.total_txs).sum();
    let admitted: u64 = solves.iter().map(|s| s.selected_txs).sum();
    let waits: Vec<f64> = solves.iter().map(|s| s.wait_s).collect();
    let (tail, pct) = stats::tail(&lat);
    report.note(format!(
        "op = build + SeEngine::new + {ITERATIONS} steps + finish; {ops} solves; op_tail_ms is p{pct:.1}; \
         setup_s is the median build + SeEngine::new of the {ops} solves; recovery_s is the median of \
         {KILL_OPS} resumes (build + from_checkpoint + {} steps + finish); failed_op_share 0 (a solve \
         that errors ends the run)",
        ITERATIONS - KILL_AT
    ));
    report.metric("op_p50_ms", stats::median(&lat));
    report.metric("op_tail_ms", tail);
    report.metric(
        "txs_per_s",
        offered as f64 / (lat.iter().sum::<f64>() / 1e3),
    );
    report.metric("setup_s", stats::median(&setup));
    report.metric("recovery_s", stats::median(&recovery));
    report.metric("admitted_tx_share", admitted as f64 / offered as f64);
    report.metric("final_wait_s", stats::mean(&waits));
    Ok((solves, KILL_OPS))
}

/// Solves each instance untraced and traced, back to back; the two must
/// agree. Returns the traced solves and the count of untraced twins.
fn traced(
    tx_trace: &Trace,
    seed: u64,
    ops: usize,
    threads: usize,
    report: &mut Report,
) -> Result<(Vec<Solved>, usize), String> {
    let mut t = Tracer::new();
    let mut solves = Vec::with_capacity(ops);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut agree = true;
    let mut probe = Probe::new();
    for op in 0..ops {
        let input = shards(tx_trace, seed, op)?;
        let twin = input.clone();
        let (plain, _) = probe.time(|| solve(twin, op_seed(seed, op), threads, None, &mut Off));
        let plain = plain?;
        plain_ms.push(ms(plain.op));
        let (traced, _) = probe.time(|| solve(input, op_seed(seed, op), threads, None, &mut t));
        let traced = traced?;
        traced_ms.push(ms(traced.op));
        agree &= plain.digest == traced.digest;
        solves.push(traced);
    }
    report.check(
        agree,
        format!("{ops} traced solves match their untraced twins"),
    );
    let plain_ms: Vec<f64> = plain_ms.iter().map(|m| m / probe.factor()).collect();
    let traced_ms: Vec<f64> = traced_ms.iter().map(|m| m / probe.factor()).collect();
    let layers = t.layers("solve").scaled(probe.factor());
    report.check_coverage("solve", &layers);
    let overhead = stats::mean(&traced_ms) - stats::mean(&plain_ms);
    report.note(format!(
        "tracing overhead {overhead:.3} ms per solve ({:.2}% of the untraced {:.1} ms mean, {ops} pairs)",
        100.0 * overhead / stats::mean(&plain_ms),
        stats::mean(&plain_ms)
    ));
    let n = solves.len() as f64;
    let iterations: u64 = solves.iter().map(|s| s.iterations).sum();
    for (metric, span) in [
        ("core.problem.build_ms", "core.problem.build"),
        ("core.se.init_ms", "core.se.init"),
        ("core.se.step_ms", "core.se.step"),
        ("core.se.finish_ms", "core.se.finish"),
    ] {
        report.metric(metric, layers.per_op_ms(span));
    }
    report.metric(
        "core.se.chains",
        solves.iter().map(|s| s.chains).sum::<usize>() as f64 / n,
    );
    report.metric("core.se.iterations", iterations as f64 / n);
    report.metric(
        "core.se.step_us_per_iter",
        layers.self_ns.get("core.se.step").copied().unwrap_or(0.0) / 1e3 / iterations.max(1) as f64,
    );
    report.metric(
        "core.se.converged_share",
        solves.iter().filter(|s| s.converged).count() as f64 / n,
    );
    report.metric("bench.trace_overhead_ms", overhead);
    report.metric("bench.unattributed_share", layers.unattributed_share());
    report.add_spans("solve", &t);
    Ok((solves, ops))
}
