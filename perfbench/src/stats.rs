//! Sample statistics the benchmark reports.
//!
//! Two rules from the benchmark's design live here:
//!
//! * a tail percentile is only reported where at least
//!   [`TAIL_MIN_BEYOND`] samples lie beyond it, and always together
//!   with its sample count, so a "p99" over 40 samples cannot pass for
//!   one over 4,000;
//! * a stream of unlike operations is summarised as a throughput
//!   ([`throughput`]), never as a per-operation median whose rank could
//!   fall on the boundary between two kinds of operation.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// One reported percentile: which rank was taken, its value, and the
/// sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile actually reported, in `(0, 1)`.
    pub q: f64,
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// Nearest-rank index of percentile `q` in `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile `want` by nearest rank, if at least [`TAIL_MIN_BEYOND`]
/// samples lie beyond that rank; `None` when the sample is too small.
pub fn tail(samples: &[f64], want: f64) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let i = rank(want, n);
    let beyond = n - 1 - i;
    (beyond >= TAIL_MIN_BEYOND).then(|| Percentile {
        q: want,
        value: sorted(samples)[i],
        n,
        beyond,
    })
}

/// Completed operations per second of wall time. A mixed stream (say,
/// four datasets of very different sizes) is summarised this way: the
/// value moves with every operation's cost, with no rank to land on a
/// boundary between kinds.
pub fn throughput(ops: usize, wall_s: f64) -> f64 {
    assert!(wall_s > 0.0, "throughput over an empty interval");
    ops as f64 / wall_s
}
