//! Host-speed calibration.
//!
//! The shared host this benchmark was built on drifts between speed
//! phases set by other tenants: for seconds to minutes at a time the same
//! op runs up to about 1.5× slower, and thread CPU time slows with wall
//! time, so it is not steal. Runs a few minutes apart therefore differ by
//! far more than any change worth measuring. The slowdown follows memory
//! latency: a walk over a table in L3 slows with the ops, while
//! register-only arithmetic does not. So the benchmark walks such a table
//! between its ops, and divides every time it reports by the run's
//! host-speed factor, the median walk time over [`REFERENCE_WALK_NS`]:
//! times read in reference-host seconds. The raw op median and the
//! factor's quartiles are printed beside them.
//!
//! Each walk first sweeps its table twice, untimed, so the walk always
//! starts from the same cache state whatever ran before it: measured after
//! an SE solve and after a small file write, the walk times agreed within
//! 1% (with a single sweep they differed up to 2×), so a change to the
//! program's memory footprint does not move the factor.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The walk's time on the reference host in a fast phase, ns. A unit
/// only: comparisons between runs never depend on its value.
const REFERENCE_WALK_NS: f64 = 80_000.0;
/// Table the walk covers: 8 MiB, four times L2 and well within L3.
const TABLE_WORDS: usize = 1 << 20;
/// Random read-modify-writes per walk.
const STEPS: usize = 12_000;
/// Untimed sequential sweeps before each walk.
const SWEEPS: usize = 2;
/// At most one walk per this much time, so short ops do not pay a walk
/// each.
const WALK_EVERY: Duration = Duration::from_millis(50);

/// The reference walk, its table, and every walk it has timed.
pub struct Probe {
    table: Vec<u64>,
    state: u64,
    last: Option<Instant>,
    /// Every walk's time, ns.
    walks: Vec<f64>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut probe = Probe {
            table: (0..TABLE_WORDS as u64).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            last: None,
            walks: Vec::new(),
        };
        probe.walk();
        probe
    }

    /// Sweeps the table, then times xorshift-driven loads and stores.
    fn walk(&mut self) {
        for _ in 0..SWEEPS {
            let sum = self.table.iter().fold(0u64, |a, &w| a.wrapping_add(w));
            self.state ^= black_box(sum) & 1;
        }
        let start = Instant::now();
        let mask = TABLE_WORDS - 1;
        let mut x = self.state;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize ^ self.table[x as usize & mask] as usize) & mask;
            self.table[i] = self.table[i].wrapping_add(x);
        }
        self.state = black_box(x);
        self.walks.push(start.elapsed().as_nanos() as f64);
        self.last = Some(Instant::now());
    }

    /// Runs `op`, then walks if the last walk is [`WALK_EVERY`] old;
    /// returns the op's result and raw wall time.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = op();
        let raw = start.elapsed();
        if self.last.is_none_or(|at| at.elapsed() >= WALK_EVERY) {
            self.walk();
        }
        (out, raw)
    }

    /// The run's host-speed factor: median walk time over the reference.
    pub fn factor(&self) -> f64 {
        crate::stats::median(&self.walks) / REFERENCE_WALK_NS
    }

    /// `raw` in reference-host seconds.
    pub fn seconds(&self, raw: Duration) -> f64 {
        raw.as_secs_f64() / self.factor()
    }

    /// The factor's quartiles and the raw median of `ops`, for a `#` line.
    pub fn summary(&self, what: &str, ops: &[Duration]) -> String {
        let factors: Vec<f64> = self.walks.iter().map(|ns| ns / REFERENCE_WALK_NS).collect();
        let q = crate::stats::quartiles(&factors);
        let raw: Vec<f64> = ops.iter().map(|d| crate::stats::ms(*d)).collect();
        format!(
            "host-speed factor (walk time ÷ reference) over {} walks: q1 {:.3}, median {:.3}, q3 \
             {:.3}; raw wall-clock {what} p50 {:.3} ms",
            factors.len(),
            q.0,
            q.1,
            q.2,
            crate::stats::median(&raw)
        )
    }
}
