//! `daemon-steady`: the scheduler daemon closing epochs in a closed loop.
//!
//! A fixed population of [`POPULATION`] committees each reports once per
//! epoch, so every epoch's committees also reported in the previous one.
//! The reports are generated here from the workload seed and handed to
//! the daemon as a JSONL feed read by `JsonlSource` from memory; the
//! daemon never sees the seed. Defense is on against a 20% `misreport`
//! adversary and SE runs 600 iterations per epoch.
//!
//! The untraced run times `Daemon::step_epoch`. The traced run re-creates
//! `Daemon::close_epoch` from public calls so it can put a span around
//! each layer, and interleaves it epoch by epoch with an untraced
//! `Daemon` over the same feed: the two histories must be byte-identical.

use std::collections::BTreeSet;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mvcom_core::defense::{DefenseConfig, DefenseEngine, DefenseObservation};
use mvcom_core::problem::{Instance, InstanceBuilder};
use mvcom_core::se::{SeCheckpoint, SeConfig, SeEngine};
use mvcom_daemon::{
    crc32, read_history, AlertConfig, AlertEngine, Daemon, DaemonCheckpoint, DaemonConfig,
    EpochClock, EpochRecord, EpochSummary, HistoryRecord, HistoryWriter, IngestSource, JsonlSource,
    SeededSource, Startup,
};
use mvcom_dataset::adversary::{build_adversary, Adversary, AdversaryConfig, CommitteeReport};
use mvcom_obs::{MetricsRegistry, Obs};
use mvcom_types::{CommitteeId, ShardInfo};

use crate::report::Report;
use crate::speed::Probe;
use crate::stats;
use crate::trace::{Spans, Tracer};

/// Committees in the fixed population; also the reports per epoch.
const POPULATION: u32 = 48;
/// Epoch closes per second of `--seconds` (the host's fast phase closes
/// about three a second): sizes the fixed op sequence.
const EPOCHS_PER_SECOND: f64 = 2.0;
/// Torn-history recoveries per run.
const KILL_POINTS: usize = 15;
/// `Daemon::open` repetitions before each epoch, behind `setup_s`.
const SETUP_PER_EPOCH: usize = 5;
/// The daemon's per-epoch SE seed mixer (`seed ^ epoch·MIX`). If the
/// daemon changes it, the traced run's byte-identity check fails.
const EPOCH_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

type Feed = Cursor<Arc<[u8]>>;

fn config() -> DaemonConfig {
    DaemonConfig {
        seed: 42,
        population: POPULATION,
        batch_size: 8,
        reports_per_epoch: POPULATION,
        defense: true,
        adv_fraction: 0.2,
        adv_strategy: "misreport".to_string(),
        se_iterations: 600,
        ..DaemonConfig::default()
    }
}

fn source(feed: &Arc<[u8]>) -> JsonlSource<Feed> {
    JsonlSource::new(Cursor::new(Arc::clone(feed)))
}

fn open(cfg: &DaemonConfig, feed: &Arc<[u8]>, path: &Path, resume: bool) -> Result<Daemon, String> {
    Daemon::open(
        cfg.clone(),
        Box::new(source(feed)),
        path,
        resume,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    )
    .map_err(|e| format!("Daemon::open: {e}"))
}

fn step(daemon: &mut Daemon) -> Result<EpochSummary, String> {
    daemon
        .step_epoch()
        .map_err(|e| format!("step_epoch: {e}"))?
        .ok_or_else(|| "the feed drained before the epoch filled".to_string())
}

fn adversary(cfg: &DaemonConfig) -> Result<Box<dyn Adversary>, String> {
    let ac = AdversaryConfig::new(cfg.adv_fraction, cfg.seed).map_err(|e| e.to_string())?;
    build_adversary(&cfg.adv_strategy, ac).map_err(|e| e.to_string())
}

fn se_config(cfg: &DaemonConfig, epoch: u64) -> SeConfig {
    SeConfig::paper(cfg.seed ^ epoch.wrapping_mul(EPOCH_SEED_MIX))
        .with_max_iterations(cfg.se_iterations)
}

fn build_instance(
    cfg: &DaemonConfig,
    screened: &[ShardInfo],
    n_min: usize,
    capacity: u64,
) -> mvcom_types::Result<Instance> {
    InstanceBuilder::new()
        .alpha(cfg.alpha)
        .capacity(capacity)
        .n_min(n_min)
        .shards(screened.to_vec())
        .build()
}

/// The generated input: the JSONL feed and the reports as the daemon
/// parses them back.
struct Input {
    feed: Arc<[u8]>,
    truth: Vec<ShardInfo>,
}

impl Input {
    fn generate(seed: u64, epochs: usize) -> Result<Input, String> {
        let mut gen = SeededSource::new(seed, POPULATION).map_err(|e| e.to_string())?;
        let mut reports = Vec::new();
        gen.next_batch(&mut reports, epochs * POPULATION as usize)
            .map_err(|e| e.to_string())?;
        let mut text = String::new();
        for r in &reports {
            text.push_str(&format!(
                "{{\"committee\":{},\"txs\":{},\"latency_s\":{}}}\n",
                r.committee().value(),
                r.tx_count(),
                r.two_phase_latency().as_secs()
            ));
        }
        let feed: Arc<[u8]> = Arc::from(text.into_bytes());
        let mut truth = Vec::new();
        source(&feed)
            .next_batch(&mut truth, usize::MAX)
            .map_err(|e| e.to_string())?;
        Ok(Input { feed, truth })
    }

    fn epoch(&self, e: usize) -> &[ShardInfo] {
        let n = POPULATION as usize;
        &self.truth[e * n..(e + 1) * n]
    }

    /// Reports in epochs 1.. whose committee also reported in the
    /// previous epoch, and the reports in epochs 1...
    fn carryover(&self) -> (usize, usize) {
        let epochs = self.truth.len() / POPULATION as usize;
        let mut carried = 0;
        let mut reports = 0;
        for e in 1..epochs {
            let prev: BTreeSet<CommitteeId> =
                self.epoch(e - 1).iter().map(ShardInfo::committee).collect();
            reports += self.epoch(e).len();
            carried += self
                .epoch(e)
                .iter()
                .filter(|s| prev.contains(&s.committee()))
                .count();
        }
        (carried, reports)
    }
}

/// End offsets of every frame of a history file: `ends[k]` is where the
/// file stands after the header and `k` epoch records.
fn record_ends(bytes: &[u8]) -> Result<Vec<usize>, String> {
    let mut ends = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let len = bytes
            .get(at..at + 4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
            .ok_or("history ends inside a frame header")?;
        at += 8 + len;
        if at > bytes.len() {
            return Err("history ends inside a frame".into());
        }
        ends.push(at);
    }
    Ok(ends)
}

/// Evenly spaced epoch counts in `1..n` at which the history is torn.
fn kill_points(n: usize) -> Vec<usize> {
    let mut points: Vec<usize> = (1..=KILL_POINTS)
        .map(|i| (i * n / (KILL_POINTS + 1)).clamp(1, n.saturating_sub(1).max(1)))
        .collect();
    points.dedup();
    points
}

/// Writes a copy of `bytes` torn halfway through the record that follows
/// the first `k` epochs.
fn tear(bytes: &[u8], ends: &[usize], k: usize, path: &Path) -> Result<usize, String> {
    let torn = ends[k] + (ends[k + 1] - ends[k]) / 2;
    std::fs::write(path, &bytes[..torn]).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(torn)
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))
}

pub fn run(seed: u64, seconds: u64, trace: bool, work: &Path) -> Result<Report, String> {
    let epochs = ((seconds as f64 * EPOCHS_PER_SECOND).round() as usize).max(8);
    let cfg = config();
    let input = Input::generate(seed, epochs)?;
    let mut report = Report::new(trace);
    let (carried, reports) = input.carryover();
    let carry_share = carried as f64 / reports as f64;
    report.note(format!(
        "input: {POPULATION} committees, {epochs} epochs of {POPULATION} reports; carry-over share \
         {carry_share:.4} ({carried} of {reports} reports in epochs 1.. were also in epoch e-1)"
    ));
    if trace {
        traced(&cfg, &input, epochs / 2, work, &mut report)?;
    } else {
        untraced(&cfg, &input, epochs, work, &mut report)?;
    }
    Ok(report)
}

fn untraced(
    cfg: &DaemonConfig,
    input: &Input,
    epochs: usize,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // Set-ups and recoveries are spread over the run, between epochs,
    // so each of their medians samples the same host-speed phases as the
    // epoch closes do.
    let main = work.join("main.log");
    let mut daemon = open(cfg, &input.feed, &main, false)?;
    let kills = kill_points(epochs);
    let mut lat = Vec::with_capacity(epochs);
    let mut summaries = Vec::with_capacity(epochs);
    let mut setup = Vec::with_capacity(epochs * SETUP_PER_EPOCH);
    let mut recovery = Vec::with_capacity(kills.len());
    let mut identical = true;
    let mut probe = Probe::new();
    for e in 0..epochs {
        for i in 0..SETUP_PER_EPOCH {
            let path = work.join(format!("setup-{i}.log"));
            let (fresh, elapsed) = probe.time(|| open(cfg, &input.feed, &path, false));
            setup.push(elapsed);
            drop(fresh?);
        }
        let (summary, elapsed) = probe.time(|| step(&mut daemon));
        lat.push(elapsed);
        summaries.push(summary?);
        // Recovery: once epoch k is on disk, tear a copy of the history
        // halfway through its record, reopen it with resume and close one
        // epoch; the copy must then equal the uninterrupted history.
        if kills.contains(&e) {
            let k = e;
            let bytes = read(&main)?;
            let ends = record_ends(&bytes)?;
            let path = work.join(format!("recover-{k}.log"));
            let torn = tear(&bytes, &ends, k, &path)?;
            let (resumed, elapsed) = probe.time(|| -> Result<_, String> {
                let mut resumed = open(cfg, &input.feed, &path, true)?;
                let summary = step(&mut resumed)?;
                Ok((resumed.startup(), summary))
            });
            recovery.push(elapsed);
            let (startup, summary) = resumed?;
            identical &= startup
                == Startup::Resumed {
                    epochs: k as u64,
                    cursor: k as u64 * u64::from(POPULATION),
                    dropped_bytes: (torn - ends[k]) as u64,
                };
            identical &= summary == summaries[k] && read(&path)? == bytes[..ends[k + 1]];
        }
    }
    drop(daemon);
    report.note(probe.summary("epoch close", &lat));
    let lat: Vec<f64> = lat.iter().map(|s| probe.seconds(*s) * 1e3).collect();
    let setup: Vec<f64> = setup.iter().map(|s| probe.seconds(*s)).collect();
    let recovery: Vec<f64> = recovery.iter().map(|s| probe.seconds(*s)).collect();
    let bytes = read(&main)?;
    report.check(
        record_ends(&bytes)?.len() == epochs + 1,
        format!("history holds a header and {epochs} epoch records"),
    );
    report.check(
        identical,
        format!(
            "{} resumes from torn histories continue byte-identically",
            recovery.len()
        ),
    );

    // Every recorded schedule must be reproducible from its epoch's
    // checkpoints; the admitted set also gives the straggler wait.
    let (mismatches, fallbacks, waits) = replay_schedules(cfg, input, &main)?;
    report.check(
        mismatches == 0,
        format!(
            "{epochs} recorded schedules re-derive from their checkpoints ({mismatches} differ)"
        ),
    );

    let offered: u64 = summaries.iter().map(|s| s.offered_txs).sum();
    let admitted: u64 = summaries.iter().map(|s| s.admitted_txs).sum();
    let busy_s: f64 = lat.iter().sum::<f64>() / 1e3;
    report.attempted = (epochs + recovery.len()) as u64;
    report.failed = fallbacks;
    let (tail, pct) = stats::tail(&lat);
    report.note(format!(
        "op = Daemon::step_epoch; {epochs} epochs; op_tail_ms is p{pct:.1}; {fallbacks} admit-all fallbacks; \
         failed_op_share {:.4}",
        fallbacks as f64 / epochs as f64
    ));
    report.note(format!(
        "history_bytes_per_epoch {:.0} ({} bytes after {epochs} epochs, header included)",
        bytes.len() as f64 / epochs as f64,
        bytes.len()
    ));
    report.note(format!(
        "setup_s is the median of {} Daemon::open on a fresh history; recovery_s is the median of {} \
         resumes",
        setup.len(),
        recovery.len()
    ));
    report.metric("op_p50_ms", stats::median(&lat));
    report.metric("op_tail_ms", tail);
    report.metric("txs_per_s", offered as f64 / busy_s);
    report.metric("setup_s", stats::median(&setup));
    report.metric("recovery_s", stats::median(&recovery));
    report.metric("admitted_tx_share", admitted as f64 / offered as f64);
    report.metric("final_wait_s", stats::mean(&waits));
    Ok(())
}

/// Re-derives every epoch's admitted set from the history: the defense
/// state of the previous record screens the epoch's reports, and the
/// epoch's SE checkpoint is finished against the screened instance.
/// Returns (schedules that differ from the record, admit-all fallbacks,
/// per-epoch straggler wait of the admitted set in simulated seconds).
fn replay_schedules(
    cfg: &DaemonConfig,
    input: &Input,
    path: &Path,
) -> Result<(usize, u64, Vec<f64>), String> {
    let loaded = read_history(path).map_err(|e| format!("read_history: {e}"))?;
    let records: Vec<&EpochRecord> = loaded
        .records
        .iter()
        .filter_map(|r| match r {
            HistoryRecord::Epoch(e) => Some(&**e),
            HistoryRecord::Header(_) => None,
        })
        .collect();
    let adversary = adversary(cfg)?;
    let mut mismatches = 0;
    let mut fallbacks = 0;
    let mut waits = Vec::with_capacity(records.len());
    for (e, record) in records.iter().enumerate() {
        let mut defense = match e {
            0 => DefenseEngine::new(DefenseConfig::paper()),
            _ => DefenseEngine::from_checkpoint(
                records[e - 1]
                    .checkpoint
                    .defense
                    .as_ref()
                    .ok_or("a defended run's checkpoint lacks defense state")?,
            ),
        }
        .map_err(|e| e.to_string())?;
        let truth = input.epoch(e);
        let reports = adversary.act(e as u64, truth);
        let reported: Vec<ShardInfo> = reports.iter().map(|r| r.reported).collect();
        let n_min = (reported.len() as f64 * cfg.n_min_fraction).round() as usize;
        let screened = defense.admissible(e as u64, &reported, n_min);
        let n_min = n_min.min(screened.len());
        let capacity = cfg
            .capacity_per_committee
            .saturating_mul(screened.len() as u64);
        let admitted: BTreeSet<CommitteeId> = match &record.checkpoint.se {
            None => {
                fallbacks += 1;
                screened.iter().map(ShardInfo::committee).collect()
            }
            Some(ckpt) => {
                let instance =
                    build_instance(cfg, &screened, n_min, capacity).map_err(|e| e.to_string())?;
                let outcome = SeEngine::from_checkpoint(&instance, se_config(cfg, e as u64), ckpt)
                    .map_err(|e| e.to_string())?
                    .finish();
                outcome
                    .best_solution
                    .iter_selected()
                    .map(|i| instance.shards()[i].committee())
                    .collect()
            }
        };
        let mut id_bytes = Vec::with_capacity(admitted.len() * 4);
        for id in &admitted {
            id_bytes.extend_from_slice(&id.value().to_le_bytes());
        }
        let admitted_truth = truth.iter().filter(|s| admitted.contains(&s.committee()));
        let txs: u64 = admitted_truth.clone().map(ShardInfo::tx_count).sum();
        if crc32(&id_bytes) != record.summary.schedule_crc || txs != record.summary.admitted_txs {
            mismatches += 1;
        }
        waits.push(
            admitted_truth
                .map(|s| s.two_phase_latency().as_secs())
                .fold(0.0, f64::max),
        );
    }
    Ok((mismatches, fallbacks, waits))
}

/// Lifetime totals, as the daemon mirrors them into checkpoints.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    epochs: u64,
    reports: u64,
    admitted_txs: u64,
}

/// What one traced epoch close produced, for the per-layer counts.
struct Closed {
    record: HistoryRecord,
    record_bytes: u64,
    reports: u64,
    chains: usize,
    iterations: u64,
    converged: bool,
    fallback: bool,
}

/// `Daemon` re-created from public calls, with a span around each layer.
/// Mirrors `Daemon::open` and `Daemon::step_epoch` for the configuration
/// above (defense on, adversary present, telemetry off).
struct Recreated {
    cfg: DaemonConfig,
    source: JsonlSource<Feed>,
    clock: EpochClock,
    defense: DefenseEngine,
    adversary: Box<dyn Adversary>,
    history: HistoryWriter,
    alerts: AlertEngine,
    metrics: MetricsRegistry,
    totals: Totals,
}

fn metrics_registry() -> MetricsRegistry {
    let metrics = MetricsRegistry::new();
    metrics.register_histogram(
        "daemon.epoch_admitted_txs",
        &[100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0],
    );
    metrics
}

impl Recreated {
    fn open_fresh(cfg: &DaemonConfig, feed: &Arc<[u8]>, path: &Path) -> Result<Recreated, String> {
        let mut history = HistoryWriter::create(path).map_err(|e| e.to_string())?;
        history
            .append(&HistoryRecord::Header(cfg.header()))
            .map_err(|e| e.to_string())?;
        let metrics = metrics_registry();
        let _ = metrics.snapshot_json();
        Ok(Recreated {
            cfg: cfg.clone(),
            source: source(feed),
            clock: EpochClock::new(u64::from(cfg.reports_per_epoch), cfg.batch_interval_s)
                .map_err(|e| e.to_string())?,
            defense: DefenseEngine::new(DefenseConfig::paper()).map_err(|e| e.to_string())?,
            adversary: adversary(cfg)?,
            history,
            alerts: AlertEngine::new(AlertConfig::default()),
            metrics,
            totals: Totals::default(),
        })
    }

    /// `Daemon::open` with resume over a non-empty history.
    fn open_resume(
        cfg: &DaemonConfig,
        feed: &Arc<[u8]>,
        path: &Path,
        t: &mut Tracer,
    ) -> Result<Recreated, String> {
        let loaded = t
            .time("daemon.history.read", || read_history(path))
            .map_err(|e| e.to_string())?;
        match loaded.records.first() {
            Some(HistoryRecord::Header(h)) if *h == cfg.header() => {}
            _ => return Err("history header does not match the configuration".into()),
        }
        let ckpt: &DaemonCheckpoint = loaded
            .records
            .iter()
            .rev()
            .find_map(|r| match r {
                HistoryRecord::Epoch(e) => Some(&e.checkpoint),
                HistoryRecord::Header(_) => None,
            })
            .ok_or("a torn history holds at least one epoch")?;
        let defense = t
            .time("core.defense.restore", || {
                DefenseEngine::from_checkpoint(ckpt.defense.as_ref()?).ok()
            })
            .ok_or("checkpoint defense state does not restore")?;
        let mut source = source(feed);
        t.time("daemon.ingest.fast_forward", || {
            source.fast_forward(ckpt.cursor)
        })
        .map_err(|e| e.to_string())?;
        let metrics = metrics_registry();
        metrics.incr("daemon.recoveries");
        let history = t
            .time("daemon.history.reopen", || {
                HistoryWriter::append_existing(path, loaded.valid_bytes)
            })
            .map_err(|e| e.to_string())?;
        let _ = metrics.snapshot_json();
        Ok(Recreated {
            cfg: cfg.clone(),
            source,
            clock: ckpt.clock,
            defense,
            adversary: adversary(cfg)?,
            history,
            alerts: AlertEngine::new(AlertConfig::default()),
            metrics,
            totals: Totals {
                epochs: ckpt.total_epochs,
                reports: ckpt.total_reports,
                admitted_txs: ckpt.total_admitted_txs,
            },
        })
    }

    /// `Daemon::step_epoch` → `close_epoch`, one span per layer call.
    fn step_epoch(&mut self, t: &mut Tracer) -> Result<Closed, String> {
        let root = t.begin("epoch");
        let epoch = self.clock.epoch();
        let t_open = self.clock.now();
        let ingest = t.begin("daemon.ingest");
        let mut truth: Vec<ShardInfo> = Vec::with_capacity(self.clock.remaining() as usize);
        let mut batch: Vec<ShardInfo> = Vec::new();
        while !self.clock.is_full() {
            let want = self.clock.remaining().min(u64::from(self.cfg.batch_size)) as usize;
            let got = self
                .source
                .next_batch(&mut batch, want)
                .map_err(|e| e.to_string())?;
            if got == 0 {
                return Err("the feed drained before the epoch filled".into());
            }
            self.clock.note_batch(got as u64);
            let txs: u64 = batch.iter().map(ShardInfo::tx_count).sum();
            self.metrics.add("daemon.reports", got as u64);
            self.metrics.add("daemon.offered_txs", txs);
            truth.append(&mut batch);
        }
        t.end(ingest);
        let t_close = self.clock.now();

        let adversary = &self.adversary;
        let reports: Vec<CommitteeReport> =
            t.time("dataset.adversary", || adversary.act(epoch, &truth));
        let adversarial = reports.iter().filter(|r| r.adversarial).count() as u64;
        let reported: Vec<ShardInfo> = reports.iter().map(|r| r.reported).collect();
        let n_min = (reported.len() as f64 * self.cfg.n_min_fraction).round() as usize;
        let defense = &mut self.defense;
        let screened = t.time("core.defense.screen", || {
            defense.admissible(epoch, &reported, n_min)
        });
        let quarantined = (reported.len() - screened.len()) as u64;
        let n_min = n_min.min(screened.len());
        let capacity = self
            .cfg
            .capacity_per_committee
            .saturating_mul(screened.len() as u64);
        let (outcome, se) = schedule(&self.cfg, epoch, &screened, n_min, capacity, t);
        let admitted_set: BTreeSet<CommitteeId> = outcome.admitted.iter().copied().collect();

        let defense = &mut self.defense;
        t.time("core.defense.settle", || {
            let observations: Vec<DefenseObservation> = reports
                .iter()
                .map(|r| DefenseObservation {
                    committee: r.committee(),
                    reported_size: r.reported.tx_count(),
                    reported_latency: r.reported.two_phase_latency(),
                    observed_latency: r.truth.two_phase_latency(),
                    observed_size: admitted_set
                        .contains(&r.committee())
                        .then_some(r.truth.tx_count()),
                })
                .collect();
            defense.end_epoch(epoch, &observations);
        });

        self.clock.close_epoch();
        let offered_txs: u64 = truth.iter().map(ShardInfo::tx_count).sum();
        let admitted_txs: u64 = truth
            .iter()
            .filter(|s| admitted_set.contains(&s.committee()))
            .map(ShardInfo::tx_count)
            .sum();
        self.totals.epochs += 1;
        self.totals.reports += truth.len() as u64;
        self.totals.admitted_txs += admitted_txs;
        let mut id_bytes = Vec::with_capacity(admitted_set.len() * 4);
        for id in &admitted_set {
            id_bytes.extend_from_slice(&id.value().to_le_bytes());
        }
        let summary = EpochSummary {
            epoch,
            t_open,
            t_close,
            reports: truth.len() as u64,
            offered_txs,
            quarantined,
            adversarial,
            admitted: admitted_set.len() as u64,
            admitted_txs,
            utility: outcome.utility,
            ddl_s: outcome.ddl_s,
            capacity,
            n_min: n_min as u64,
            schedule_crc: crc32(&id_bytes),
        };
        let alerts = self.alerts.evaluate(&summary);
        let alert_count = alerts.len() as u64;

        let append = t.begin("daemon.history.append");
        let record = HistoryRecord::Epoch(Box::new(EpochRecord {
            summary: summary.clone(),
            alerts,
            checkpoint: DaemonCheckpoint {
                cursor: self.source.cursor(),
                clock: self.clock,
                defense: Some(self.defense.checkpoint()),
                total_epochs: self.totals.epochs,
                total_reports: self.totals.reports,
                total_admitted_txs: self.totals.admitted_txs,
                se,
            },
        }));
        let record_bytes = self.history.append(&record).map_err(|e| e.to_string())?;
        t.end(append);

        let render = t.begin("obs.metrics.render");
        self.metrics.incr("daemon.epochs");
        self.metrics.add("daemon.admitted_txs", admitted_txs);
        self.metrics.add("daemon.quarantined", quarantined);
        self.metrics.add("daemon.alerts", alert_count);
        self.metrics
            .set_gauge("daemon.epoch", self.clock.epoch() as f64);
        self.metrics.set_gauge("daemon.clock_s", self.clock.now());
        self.metrics.set_gauge("daemon.utility", summary.utility);
        self.metrics
            .set_gauge("daemon.cursor", self.source.cursor() as f64);
        self.metrics
            .set_gauge("daemon.history_bytes", self.history.bytes() as f64);
        self.metrics
            .observe("daemon.epoch_admitted_txs", admitted_txs as f64);
        let snapshot = self.metrics.snapshot_json();
        t.end(render);
        drop(snapshot);
        t.end(root);
        Ok(Closed {
            record,
            record_bytes,
            reports: truth.len() as u64,
            chains: outcome.chains,
            iterations: outcome.iterations,
            converged: outcome.converged,
            fallback: outcome.fallback,
        })
    }
}

/// What `schedule` decided, plus the SE counts the traced run reports.
struct Outcome {
    admitted: Vec<CommitteeId>,
    utility: f64,
    ddl_s: f64,
    chains: usize,
    iterations: u64,
    converged: bool,
    fallback: bool,
}

impl Outcome {
    /// The daemon's admit-everything fallback for degenerate epochs.
    fn admit_all(alpha: f64, screened: &[ShardInfo]) -> Outcome {
        let ddl_s = screened
            .iter()
            .map(|s| s.two_phase_latency().as_secs())
            .fold(0.0_f64, f64::max);
        let utility = screened
            .iter()
            .map(|s| alpha * s.tx_count() as f64 - (ddl_s - s.two_phase_latency().as_secs()))
            .sum();
        Outcome {
            admitted: screened.iter().map(ShardInfo::committee).collect(),
            utility,
            ddl_s,
            chains: 0,
            iterations: 0,
            converged: false,
            fallback: true,
        }
    }
}

/// `Daemon::schedule`: SE over the screened reports, traced per layer.
fn schedule(
    cfg: &DaemonConfig,
    epoch: u64,
    screened: &[ShardInfo],
    n_min: usize,
    capacity: u64,
    t: &mut Tracer,
) -> (Outcome, Option<SeCheckpoint>) {
    let fallback = || (Outcome::admit_all(cfg.alpha, screened), None);
    if screened.len() < 2 {
        return fallback();
    }
    let Ok(instance) = t.time("core.problem.build", || {
        build_instance(cfg, screened, n_min, capacity)
    }) else {
        return fallback();
    };
    let se_config = se_config(cfg, epoch);
    let budget = se_config.max_iterations;
    let Ok(mut engine) = t.time("core.se.init", || SeEngine::new(&instance, se_config)) else {
        return fallback();
    };
    t.time("core.se.step", || {
        while engine.iteration() < budget && !engine.is_converged() {
            engine.step();
        }
    });
    let se = t.time("core.se.checkpoint", || engine.checkpoint());
    let (iterations, converged, chains) =
        (engine.iteration(), engine.is_converged(), se.chain_count());
    let outcome = t.time("core.se.finish", || engine.finish());
    let admitted = outcome
        .best_solution
        .iter_selected()
        .map(|i| instance.shards()[i].committee())
        .collect();
    (
        Outcome {
            admitted,
            utility: outcome.best_utility,
            ddl_s: instance.ddl().as_secs(),
            chains,
            iterations,
            converged,
            fallback: false,
        },
        Some(se),
    )
}

fn traced(
    cfg: &DaemonConfig,
    input: &Input,
    epochs: usize,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let plain_path = work.join("untraced.log");
    let traced_path = work.join("traced.log");
    let mut plain = open(cfg, &input.feed, &plain_path, false)?;
    let mut recreated = Recreated::open_fresh(cfg, &input.feed, &traced_path)?;
    let mut t = Tracer::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut reports, mut quarantined, mut chains, mut iterations) = (0u64, 0u64, 0usize, 0u64);
    let (mut converged, mut fallbacks, mut se_epochs) = (0usize, 0u64, 0usize);
    let (mut record_bytes, mut se_bytes) = (0u64, 0u64);
    let mut probe = Probe::new();
    for _ in 0..epochs {
        let (closed, elapsed) = probe.time(|| step(&mut plain));
        closed?;
        plain_ms.push(elapsed);
        let (closed, elapsed) = probe.time(|| recreated.step_epoch(&mut t));
        let closed = closed?;
        traced_ms.push(elapsed);
        let HistoryRecord::Epoch(record) = &closed.record else {
            return Err("an epoch close appended a non-epoch record".into());
        };
        reports += closed.reports;
        quarantined += record.summary.quarantined;
        record_bytes += closed.record_bytes;
        if let Some(se) = &record.checkpoint.se {
            se_bytes += serde_json::to_string(se)
                .map_err(|e| format!("serialize SeCheckpoint: {e:?}"))?
                .len() as u64;
        }
        if closed.fallback {
            fallbacks += 1;
        } else {
            se_epochs += 1;
            chains += closed.chains;
            iterations += closed.iterations;
            converged += usize::from(closed.converged);
        }
    }
    drop(plain);
    drop(recreated);
    let bytes = read(&traced_path)?;
    report.check(
        read(&plain_path)? == bytes,
        format!(
            "{epochs} traced epoch closes write a history byte-identical to Daemon::step_epoch"
        ),
    );
    let ends = record_ends(&bytes)?;

    let mut rt = Tracer::new();
    let mut first_epoch_ms = Vec::new();
    let mut identical = true;
    let kills = kill_points(epochs);
    for &k in &kills {
        let path = work.join(format!("recover-{k}.log"));
        tear(&bytes, &ends, k, &path)?;
        let (first, _) = probe.time(|| -> Result<_, String> {
            let root = rt.begin("recovery");
            let mut resumed = Recreated::open_resume(cfg, &input.feed, &path, &mut rt)?;
            let start = Instant::now();
            resumed.step_epoch(&mut rt)?;
            let first = start.elapsed();
            rt.end(root);
            Ok(first)
        });
        first_epoch_ms.push(first?);
        identical &= read(&path)? == bytes[..ends[k + 1]];
    }
    report.check(
        identical,
        format!("{} traced resumes continue byte-identically", kills.len()),
    );

    let first_epoch_ms: Vec<f64> = first_epoch_ms
        .iter()
        .map(|first| probe.seconds(*first) * 1e3)
        .collect();
    let plain_ms: Vec<f64> = plain_ms.iter().map(|s| probe.seconds(*s) * 1e3).collect();
    let traced_ms: Vec<f64> = traced_ms.iter().map(|s| probe.seconds(*s) * 1e3).collect();
    let layers = t.layers("epoch").scaled(probe.factor());
    let rec = rt.layers("recovery").scaled(probe.factor());
    report.check_coverage("epoch close", &layers);
    report.check_coverage("recovery", &rec);
    report.attempted = (2 * epochs + kills.len()) as u64;
    report.failed = fallbacks;
    let overhead = stats::mean(&traced_ms) - stats::mean(&plain_ms);
    report.note(format!(
        "tracing overhead {overhead:.3} ms per epoch ({:.2}% of the untraced {:.1} ms mean, {epochs} \
         interleaved epochs each)",
        100.0 * overhead / stats::mean(&plain_ms),
        stats::mean(&plain_ms)
    ));
    for (metric, span) in [
        ("daemon.ingest.ms", "daemon.ingest"),
        ("dataset.adversary.ms", "dataset.adversary"),
        ("core.defense.screen_ms", "core.defense.screen"),
        ("core.defense.settle_ms", "core.defense.settle"),
        ("core.problem.build_ms", "core.problem.build"),
        ("core.se.init_ms", "core.se.init"),
        ("core.se.step_ms", "core.se.step"),
        ("core.se.checkpoint_ms", "core.se.checkpoint"),
        ("core.se.finish_ms", "core.se.finish"),
        ("daemon.history.append_ms", "daemon.history.append"),
        ("obs.metrics.render_ms", "obs.metrics.render"),
    ] {
        report.metric(metric, layers.per_op_ms(span));
    }
    report.metric(
        "daemon.history.read_ms",
        rec.per_op_ms("daemon.history.read"),
    );
    report.metric(
        "daemon.ingest.fast_forward_ms",
        rec.per_op_ms("daemon.ingest.fast_forward"),
    );
    report.metric(
        "daemon.recovery.first_epoch_ms",
        stats::mean(&first_epoch_ms),
    );
    report.metric(
        "core.defense.quarantined_share",
        quarantined as f64 / reports as f64,
    );
    let se_epochs_f = se_epochs.max(1) as f64;
    report.metric("core.se.chains", chains as f64 / se_epochs_f);
    report.metric("core.se.iterations", iterations as f64 / se_epochs_f);
    report.metric(
        "core.se.step_us_per_iter",
        layers.self_ns.get("core.se.step").copied().unwrap_or(0.0) / 1e3 / iterations.max(1) as f64,
    );
    report.metric("core.se.converged_share", converged as f64 / se_epochs_f);
    report.metric(
        "daemon.history.record_bytes",
        record_bytes as f64 / epochs as f64,
    );
    report.metric(
        "daemon.history.se_checkpoint_share",
        se_bytes as f64 / record_bytes as f64,
    );
    report.metric("bench.trace_overhead_ms", overhead);
    report.metric("bench.unattributed_share", layers.unattributed_share());
    report.add_spans("epoch", &t);
    report.add_spans("recovery", &rt);
    Ok(())
}
