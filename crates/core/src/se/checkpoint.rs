//! Serializable snapshots of the SE engine's solver state.
//!
//! The paper's SE threads "can run in either one single machine or
//! multiple distributed machines" (§IV-D); a distributed solver process
//! can therefore be killed mid-run. A [`SeCheckpoint`] captures everything
//! needed to resume — every chain's current solution per replica, the best
//! solution so far and both clocks — as plain data (`serde`-serializable,
//! so it survives a process boundary as JSON). Restoring through
//! [`SeEngine::from_checkpoint`](crate::se::SeEngine::from_checkpoint)
//! rebuilds the chains from their recorded solutions and re-derives fresh
//! deterministic RNG streams keyed by the checkpoint version, so a resumed
//! run is reproducible without serializing RNG internals.
//!
//! Checkpoints are *version-stamped* with the iteration they were taken
//! at; a recovery manager holding several can always prefer the newest and
//! discard stale ones.
//!
//! # Example: kill → JSON → resume
//!
//! ```
//! use mvcom_core::problem::InstanceBuilder;
//! use mvcom_core::se::{SeCheckpoint, SeConfig, SeEngine};
//! use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
//!
//! # fn main() -> Result<(), mvcom_types::Error> {
//! let shards = (0..10).map(|i| ShardInfo::new(
//!     CommitteeId(i),
//!     100 + 10 * u64::from(i),
//!     TwoPhaseLatency::from_total(SimTime::from_secs(500.0 + 10.0 * f64::from(i))),
//! )).collect();
//! let instance = InstanceBuilder::new()
//!     .alpha(2.0).capacity(2_000).n_min(2).shards(shards).build()?;
//! let mut engine = SeEngine::new(&instance, SeConfig::fast_test(3))?;
//! for _ in 0..40 { engine.step(); }
//! let ckpt = engine.checkpoint();
//! assert_eq!(ckpt.version, 40);
//! drop(engine); // the solver process dies here
//!
//! // The snapshot survives a process boundary as JSON…
//! let json = serde_json::to_string(&ckpt).expect("checkpoints serialize");
//! let ckpt: SeCheckpoint = serde_json::from_str(&json).expect("and parse back");
//! // …and a replacement solver resumes where the original stood.
//! let restored = SeEngine::from_checkpoint(&instance, SeConfig::fast_test(3), &ckpt)?;
//! assert_eq!(restored.iteration(), 40);
//! assert_eq!(restored.restored_chains(), ckpt.chain_count());
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use mvcom_types::{Error, Result};

/// One chain's position in the solution space: the selected shard indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainSnapshot {
    /// The chain's cardinality (must equal `selected.len()`).
    pub cardinality: usize,
    /// Indices of the selected shards, in the instance's shard order.
    pub selected: Vec<usize>,
}

/// A full snapshot of a running [`SeEngine`](crate::se::SeEngine).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeCheckpoint {
    /// Version stamp: the iteration the snapshot was taken at. Recovery
    /// managers keep the largest version and drop stale snapshots.
    pub version: u64,
    /// The seed of the run that produced the snapshot (restore refuses a
    /// mismatched configuration).
    pub seed: u64,
    /// Iterations executed when the snapshot was taken.
    pub iteration: u64,
    /// Accumulated virtual time.
    pub vtime: f64,
    /// Selected indices of the best feasible solution so far.
    pub best_selected: Vec<usize>,
    /// Utility of that best solution.
    pub best_utility: f64,
    /// Per replica, per chain: the current solution.
    pub replicas: Vec<Vec<ChainSnapshot>>,
}

impl SeCheckpoint {
    /// Total chains recorded across all replicas.
    pub fn chain_count(&self) -> usize {
        self.replicas.iter().map(Vec::len).sum()
    }

    /// Checks internal consistency against an instance of `instance_len`
    /// shards: indices in range and duplicate-free, cardinalities honest.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] describing the corruption.
    pub fn validate(&self, instance_len: usize) -> Result<()> {
        let check = |name: &'static str, selected: &[usize]| -> Result<()> {
            let mut seen = BTreeSet::new();
            for &i in selected {
                if i >= instance_len {
                    return Err(Error::invalid_config(
                        name,
                        format!("shard index {i} out of range for {instance_len} shards"),
                    ));
                }
                if !seen.insert(i) {
                    return Err(Error::invalid_config(
                        name,
                        format!("shard index {i} selected twice"),
                    ));
                }
            }
            Ok(())
        };
        check("best_selected", &self.best_selected)?;
        for chains in &self.replicas {
            for snap in chains {
                check("replicas", &snap.selected)?;
                if snap.cardinality != snap.selected.len() {
                    return Err(Error::invalid_config(
                        "replicas",
                        format!(
                            "chain claims cardinality {} but selects {} shards",
                            snap.cardinality,
                            snap.selected.len()
                        ),
                    ));
                }
            }
        }
        if !self.vtime.is_finite() || self.vtime < 0.0 {
            return Err(Error::invalid_config(
                "vtime",
                format!("must be finite and non-negative, got {}", self.vtime),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkpoint() -> SeCheckpoint {
        SeCheckpoint {
            version: 120,
            seed: 7,
            iteration: 120,
            vtime: 3.5,
            best_selected: vec![0, 2, 5],
            best_utility: 123.4,
            replicas: vec![vec![
                ChainSnapshot {
                    cardinality: 2,
                    selected: vec![1, 3],
                },
                ChainSnapshot {
                    cardinality: 3,
                    selected: vec![0, 2, 5],
                },
            ]],
        }
    }

    #[test]
    fn valid_checkpoint_passes_and_counts_chains() {
        let ckpt = checkpoint();
        assert!(ckpt.validate(6).is_ok());
        assert_eq!(ckpt.chain_count(), 2);
    }

    #[test]
    fn out_of_range_duplicate_and_dishonest_cardinality_are_rejected() {
        let ckpt = checkpoint();
        assert!(ckpt.validate(4).is_err(), "index 5 out of range for 4");
        let mut ckpt = checkpoint();
        ckpt.best_selected = vec![1, 1];
        assert!(ckpt.validate(6).is_err());
        let mut ckpt = checkpoint();
        ckpt.replicas[0][0].cardinality = 9;
        assert!(ckpt.validate(6).is_err());
        let mut ckpt = checkpoint();
        ckpt.vtime = f64::NAN;
        assert!(ckpt.validate(6).is_err());
    }

    #[test]
    fn serde_round_trip_preserves_the_snapshot() {
        let ckpt = checkpoint();
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: SeCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ckpt);
    }
}
