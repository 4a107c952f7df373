//! Engine identity under the persistent race pool: the replica fan-out of
//! `SeEngine::with_threads` must not move one bit of a run at any thread
//! count — neither the outcome, nor the solver checkpoints, nor the
//! telemetry — across the three ways an engine is driven: a plain run,
//! a run whose instance changes mid-flight (join + leave, both dynamics
//! policies), and a resume from a checkpoint.
//!
//! The dynamics case is the one that catches a pool racing a stale
//! instance: a join grows every solution by one slot and a leave shrinks
//! it, so chains raced against the old instance diverge at once.

// Test code: unwrap is fine here (see mvcom-lint P1).
#![allow(clippy::unwrap_used)]

use mvcom_core::dynamics::DynamicsPolicy;
use mvcom_core::problem::{Instance, InstanceBuilder};
use mvcom_core::se::{SeCheckpoint, SeConfig, SeEngine, SeOutcome};
use mvcom_obs::{Obs, ObsLevel};
use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};

/// Thread counts under test: serial, the 2-core default, an uneven
/// split of Γ = 10 replicas (4/4/2), and more threads than replicas.
const THREADS: [usize; 4] = [1, 2, 3, 16];
const GAMMA: usize = 10;
const STEPS: usize = 60;

fn shard(id: u32) -> ShardInfo {
    ShardInfo::new(
        CommitteeId(id),
        80 + (u64::from(id) * 13) % 90,
        TwoPhaseLatency::from_total(SimTime::from_secs(400.0 + (f64::from(id) * 71.0) % 500.0)),
    )
}

fn instance() -> Instance {
    InstanceBuilder::new()
        .alpha(1.5)
        .capacity(30 * 120)
        .n_min(10)
        .shards((0..30).map(shard).collect())
        .build()
        .unwrap()
}

fn config(seed: u64) -> SeConfig {
    SeConfig::paper(seed)
        .with_gamma(GAMMA)
        .with_max_iterations(10 * STEPS as u64)
}

fn steps(engine: &mut SeEngine, n: usize) {
    for _ in 0..n {
        engine.step();
    }
}

/// What one driven run leaves behind: its checkpoints, in order, and
/// the final outcome.
type Run = (Vec<SeCheckpoint>, SeOutcome);

/// Asserts every thread count reproduces the serial run, and that the
/// pool never grows past `min(threads, Γ) − 1` workers (none at 1).
fn assert_thread_invariant(label: &str, drive: impl Fn(usize) -> (Run, usize)) {
    let (serial, serial_workers) = drive(1);
    assert_eq!(
        serial_workers, 0,
        "{label}: a serial engine spawned workers"
    );
    for threads in THREADS {
        let (fanned, workers) = drive(threads);
        assert_eq!(
            serial.0, fanned.0,
            "{label}: checkpoints at {threads} threads"
        );
        assert_eq!(serial.1, fanned.1, "{label}: outcome at {threads} threads");
        assert!(
            workers < threads.min(GAMMA),
            "{label}: {workers} workers at {threads} threads"
        );
        if threads > 1 {
            assert!(workers > 0, "{label}: {threads} threads never fanned out");
        }
    }
}

#[test]
fn plain_run_is_identical_at_any_thread_count() {
    for seed in [5, 23] {
        assert_thread_invariant("plain", |threads| {
            let mut engine = SeEngine::new(&instance(), config(seed))
                .unwrap()
                .with_threads(threads);
            steps(&mut engine, STEPS);
            let mid = engine.checkpoint();
            steps(&mut engine, STEPS);
            let end = engine.checkpoint();
            let workers = engine.race_workers();
            ((vec![mid, end], engine.finish()), workers)
        });
    }
}

#[test]
fn dynamics_follow_the_new_instance_at_any_thread_count() {
    for policy in [DynamicsPolicy::Trim, DynamicsPolicy::Reinitialize] {
        assert_thread_invariant(&format!("{policy:?}"), |threads| {
            let mut engine = SeEngine::new(&instance(), config(7))
                .unwrap()
                .with_threads(threads);
            // Fan out before the first change, so the pool already holds
            // the old instance when the engine swaps it.
            steps(&mut engine, STEPS);
            engine.handle_join(shard(100), policy).unwrap();
            steps(&mut engine, STEPS);
            let after_join = engine.checkpoint();
            engine.handle_leave(CommitteeId(4), policy).unwrap();
            steps(&mut engine, STEPS);
            let after_leave = engine.checkpoint();
            assert_eq!(engine.instance().len(), 30);
            let workers = engine.race_workers();
            ((vec![after_join, after_leave], engine.finish()), workers)
        });
    }
}

#[test]
fn checkpoint_resume_is_identical_at_any_thread_count() {
    let inst = instance();
    // The snapshot is taken by a serial engine; every resume fans out
    // at its own count.
    let mut origin = SeEngine::new(&inst, config(31)).unwrap();
    steps(&mut origin, STEPS);
    let ckpt = origin.checkpoint();
    assert_thread_invariant("resume", |threads| {
        let mut engine = SeEngine::from_checkpoint(&inst, config(31), &ckpt)
            .unwrap()
            .with_threads(threads);
        steps(&mut engine, STEPS);
        let end = engine.checkpoint();
        let workers = engine.race_workers();
        ((vec![end], engine.finish()), workers)
    });
}

#[test]
fn telemetry_is_identical_at_any_thread_count() {
    let events = |threads: usize| {
        let (obs, buffer) = Obs::memory(ObsLevel::Trace);
        let mut engine = SeEngine::new(&instance(), config(11))
            .unwrap()
            .with_threads(threads)
            .with_obs(obs);
        steps(&mut engine, STEPS);
        engine
            .handle_leave(CommitteeId(9), DynamicsPolicy::Trim)
            .unwrap();
        steps(&mut engine, STEPS);
        let _ = engine.checkpoint();
        engine.finish();
        buffer.contents()
    };
    let serial = events(1);
    assert!(
        serial.contains("\"se_commit\""),
        "trace level must record commits"
    );
    for threads in THREADS {
        assert_eq!(serial, events(threads), "events at {threads} threads");
    }
}
