//! `epoch-sim`: the Elastico simulator running consecutive epochs in a
//! closed loop, configured as `mvcom simulate` configures it
//! (`ElasticoConfig::with_nodes(2000, 12)`: 128 committees, serial
//! stage 3). The simulator seed is the workload seed.
//!
//! The stage-4 selector is [`Timed`], a wrapper around `WaitForAll` that
//! notes when the simulator invokes it and when it returns, splitting an
//! epoch into the stages before selection (PoW, formation,
//! intra-committee PBFT), the selection, and the final consensus after
//! it. SE is never called.

use std::time::Instant;

use mvcom_elastico::epoch::{ShardSelector, WaitForAll};
use mvcom_elastico::{ElasticoConfig, ElasticoSim, EpochReport};
use mvcom_types::{CommitteeId, ShardInfo};

use crate::report::Report;
use crate::speed::Probe;
use crate::stats;
use crate::trace::{Off, Spans, Tracer};

const NODES: u32 = 2_000;
const COMMITTEE_SIZE: u32 = 12;
/// Simulated epochs per second of `--seconds` (the host's fast phase
/// runs about sixty): sizes the fixed op sequence.
const EPOCHS_PER_SECOND: f64 = 48.0;
/// The epoch count after which a killed simulation is restarted from its
/// seed and replayed until the next epoch closes.
const KILL_EPOCH: usize = 16;
/// Restarts per run; each replays the same epochs, so their median
/// varies only with the host.
const RESTARTS: usize = 7;
/// One `ElasticoSim::new` behind `setup_s` before every this many epochs.
const SETUP_EVERY: usize = 4;

/// `WaitForAll`, noting when stage 4 starts and ends.
struct Timed {
    invoked: Option<Instant>,
    returned: Option<Instant>,
}

impl ShardSelector for Timed {
    fn select(&mut self, shards: &[ShardInfo]) -> Vec<CommitteeId> {
        self.invoked = Some(Instant::now());
        let out = WaitForAll.select(shards);
        self.returned = Some(Instant::now());
        out
    }
}

fn new_sim(seed: u64) -> Result<ElasticoSim, String> {
    ElasticoSim::new(ElasticoConfig::with_nodes(NODES, COMMITTEE_SIZE), seed)
        .map_err(|e| format!("ElasticoSim::new: {e}"))
}

/// One simulated epoch's products.
struct Epoch {
    digest: u64,
    committed: bool,
    offered_txs: u64,
    admitted_txs: u64,
    /// The straggler's two-phase latency: how long wait-for-all waits, s.
    wait_s: f64,
    messages: u64,
    view_changes: u64,
    consensus_runs: usize,
    consensus_failed: usize,
    committee_sizes: Vec<f64>,
}

/// Runs the next epoch of `sim`, recording the stage split in `s`.
fn run_epoch<S: Spans>(sim: &mut ElasticoSim, s: &mut S) -> Result<EpochReport, String> {
    let mut selector = Timed {
        invoked: None,
        returned: None,
    };
    let root = s.begin("epoch");
    let start = Instant::now();
    let report = sim
        .run_epoch_with(&mut selector)
        .map_err(|e| format!("run_epoch_with: {e}"))?;
    let end = Instant::now();
    let invoked = selector.invoked.ok_or("the epoch never reached stage 4")?;
    let returned = selector.returned.ok_or("the selector never returned")?;
    s.record("elastico.stages", start, invoked);
    s.record("elastico.select", invoked, returned);
    s.record("elastico.final", returned, end);
    s.end(root);
    Ok(report)
}

fn summarize(report: &EpochReport) -> Result<Epoch, String> {
    let json =
        serde_json::to_string(report).map_err(|e| format!("serialize EpochReport: {e:?}"))?;
    let committed = report.final_block.committed;
    Ok(Epoch {
        digest: stats::fnv1a(json.as_bytes()),
        committed,
        offered_txs: report.shards.iter().map(ShardInfo::tx_count).sum(),
        admitted_txs: if committed {
            report.final_block.total_txs
        } else {
            0
        },
        wait_s: report.straggler_latency().as_secs(),
        messages: report
            .consensus
            .iter()
            .map(|(_, r)| r.messages_delivered)
            .sum(),
        view_changes: report.consensus.iter().map(|(_, r)| r.final_view).sum(),
        consensus_runs: report.consensus.len(),
        consensus_failed: report
            .consensus
            .iter()
            .filter(|(_, r)| !r.committed)
            .count(),
        committee_sizes: report
            .formed
            .iter()
            .map(|c| c.members.len() as f64)
            .collect(),
    })
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let epochs = ((seconds as f64 * EPOCHS_PER_SECOND).round() as usize).max(2 * KILL_EPOCH);
    let mut report = Report::new(trace);
    report.note(format!(
        "input: ElasticoConfig::with_nodes({NODES}, {COMMITTEE_SIZE}), seed {seed}, {epochs} epochs, \
         wait-for-all stage 4, 1 thread"
    ));
    let run = if trace {
        traced(seed, epochs / 2, &mut report)?
    } else {
        untraced(seed, epochs, &mut report)?
    };
    let sizes: Vec<f64> = run.iter().flat_map(|e| e.committee_sizes.clone()).collect();
    let cv = stats::cv(&sizes);
    report.note(format!(
        "committee-size spread: {} committees formed over {} epochs, size min {} / mean {:.2} / max {}, \
         cv {cv:.4}",
        sizes.len(),
        run.len(),
        sizes.iter().copied().fold(f64::INFINITY, f64::min),
        stats::mean(&sizes),
        sizes.iter().copied().fold(0.0, f64::max)
    ));
    let failed = run.iter().filter(|e| !e.committed).count() as u64;
    report.failed = failed;
    report.note(format!(
        "failed_op_share {:.4} ({failed} of {} final blocks did not commit)",
        failed as f64 / run.len() as f64,
        run.len()
    ));
    Ok(report)
}

fn untraced(seed: u64, epochs: usize, report: &mut Report) -> Result<Vec<Epoch>, String> {
    // Set-ups and restarts are spread over the run, between epochs, so
    // their medians sample the same host-speed phases as the epochs do.
    let restart_at: Vec<usize> = (1..=RESTARTS)
        .map(|i| (i * epochs / (RESTARTS + 1)).max(KILL_EPOCH))
        .collect();
    let mut sim = new_sim(seed)?;
    let mut run = Vec::with_capacity(epochs);
    let mut lat = Vec::with_capacity(epochs);
    let mut setup = Vec::new();
    let mut recovery = Vec::new();
    let mut identical = true;
    let mut probe = Probe::new();
    for e in 0..epochs {
        if e % SETUP_EVERY == 0 {
            let (fresh, elapsed) = probe.time(|| new_sim(seed));
            setup.push(elapsed);
            drop(fresh?);
        }
        let (epoch, elapsed) = probe.time(|| run_epoch(&mut sim, &mut Off));
        let epoch = summarize(&epoch?)?;
        lat.push(elapsed);
        run.push(epoch);
        // Recovery: the simulator keeps no durable state, so a killed run
        // restarts from its seed and replays; the replayed epoch must
        // equal the original.
        for _ in restart_at.iter().filter(|&&at| at == e) {
            let (next, elapsed) = probe.time(|| -> Result<EpochReport, String> {
                let mut restarted = new_sim(seed)?;
                for _ in 0..KILL_EPOCH {
                    restarted
                        .run_epoch_with(&mut WaitForAll)
                        .map_err(|e| format!("replay: {e}"))?;
                }
                restarted
                    .run_epoch_with(&mut WaitForAll)
                    .map_err(|e| format!("replay: {e}"))
            });
            recovery.push(elapsed);
            identical &= summarize(&next?)?.digest == run[KILL_EPOCH].digest;
        }
    }
    report.note(probe.summary("epoch", &lat));
    let lat: Vec<f64> = lat.iter().map(|s| probe.seconds(*s) * 1e3).collect();
    let setup: Vec<f64> = setup.iter().map(|s| probe.seconds(*s)).collect();
    let recovery: Vec<f64> = recovery.iter().map(|s| probe.seconds(*s)).collect();
    report.check(
        identical,
        format!(
            "{} restarts replay to a byte-identical next epoch report",
            recovery.len()
        ),
    );
    report.attempted = (epochs + recovery.len()) as u64;
    let offered: u64 = run.iter().map(|e| e.offered_txs).sum();
    let admitted: u64 = run.iter().map(|e| e.admitted_txs).sum();
    let waits: Vec<f64> = run.iter().map(|e| e.wait_s).collect();
    let (tail, pct) = stats::tail(&lat);
    report.note(format!(
        "op = ElasticoSim::run_epoch_with; {epochs} epochs; op_tail_ms is p{pct:.2}; setup_s is the \
         median of {} ElasticoSim::new; recovery_s is the median of {} restarts \
         (new + replay of {KILL_EPOCH} epochs + epoch {KILL_EPOCH})",
        setup.len(),
        recovery.len()
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
    Ok(run)
}

/// Runs two simulators of the same seed side by side, one untraced and
/// one traced; their epoch reports must agree.
fn traced(seed: u64, epochs: usize, report: &mut Report) -> Result<Vec<Epoch>, String> {
    let mut plain_sim = new_sim(seed)?;
    let mut traced_sim = new_sim(seed)?;
    let mut t = Tracer::new();
    let mut run = Vec::with_capacity(epochs);
    let (mut plain_ms, mut traced_ms) = (Vec::with_capacity(epochs), Vec::with_capacity(epochs));
    let mut agree = true;
    let mut probe = Probe::new();
    for _ in 0..epochs {
        let (plain, elapsed) = probe.time(|| run_epoch(&mut plain_sim, &mut Off));
        let plain = summarize(&plain?)?;
        plain_ms.push(elapsed);
        let (traced, elapsed) = probe.time(|| run_epoch(&mut traced_sim, &mut t));
        let traced = summarize(&traced?)?;
        traced_ms.push(elapsed);
        agree &= plain.digest == traced.digest;
        run.push(traced);
    }
    report.check(
        agree,
        format!("{epochs} traced epoch reports match the untraced simulator's"),
    );
    report.attempted = 2 * epochs as u64;
    let plain_ms: Vec<f64> = plain_ms.iter().map(|s| probe.seconds(*s) * 1e3).collect();
    let traced_ms: Vec<f64> = traced_ms.iter().map(|s| probe.seconds(*s) * 1e3).collect();
    let layers = t.layers("epoch").scaled(probe.factor());
    report.check_coverage("epoch", &layers);
    let overhead = stats::mean(&traced_ms) - stats::mean(&plain_ms);
    report.note(format!(
        "tracing overhead {overhead:.4} ms per epoch ({:.2}% of the untraced {:.2} ms mean, {epochs} \
         interleaved epochs each)",
        100.0 * overhead / stats::mean(&plain_ms),
        stats::mean(&plain_ms)
    ));
    let n = run.len() as f64;
    let messages: u64 = run.iter().map(|e| e.messages).sum();
    let runs: usize = run.iter().map(|e| e.consensus_runs).sum();
    let failed: usize = run.iter().map(|e| e.consensus_failed).sum();
    report.metric("elastico.stages_ms", layers.per_op_ms("elastico.stages"));
    report.metric("elastico.select_ms", layers.per_op_ms("elastico.select"));
    report.metric("elastico.final_ms", layers.per_op_ms("elastico.final"));
    report.metric("pbft.messages", messages as f64 / n);
    report.metric(
        "pbft.view_changes",
        run.iter().map(|e| e.view_changes).sum::<u64>() as f64 / n,
    );
    report.metric("pbft.failed_share", failed as f64 / runs.max(1) as f64);
    report.metric(
        "elastico.stages_ns_per_message",
        layers
            .self_ns
            .get("elastico.stages")
            .copied()
            .unwrap_or(0.0)
            / messages.max(1) as f64,
    );
    report.metric("bench.trace_overhead_ms", overhead);
    report.metric("bench.unattributed_share", layers.unattributed_share());
    report.add_spans("epoch", &t);
    Ok(run)
}
