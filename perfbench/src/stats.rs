//! Small numeric helpers: medians, percentiles and the FNV-1a fold the
//! `BENCH_*.json` rows use for their output digests.

use cloudsched_sim::RunReport;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64 state, folded one little-endian `u64` at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Folds one word, byte by byte.
    pub fn fold(self, word: u64) -> Fnv {
        let mut h = self.0;
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        Fnv(h)
    }

    /// Folds a run report's observables: value bits, completed, events,
    /// preemptions, dispatches.
    pub fn report(self, r: &RunReport) -> Fnv {
        [
            r.value.to_bits(),
            r.completed as u64,
            r.events as u64,
            r.preemptions as u64,
            r.dispatches as u64,
        ]
        .into_iter()
        .fold(self, Fnv::fold)
    }
}

/// Digest of several run reports, in order (one sweep instance's panel).
pub fn reports_digest(reports: &[RunReport]) -> u64 {
    reports.iter().fold(Fnv::default(), |h, r| h.report(r)).0
}

/// Folds per-unit digests in order into one digest.
pub fn combine(digests: &[u64]) -> u64 {
    digests.iter().fold(Fnv::default(), |h, d| h.fold(*d)).0
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of `values`, after a
/// quarter (rounded down) is dropped from each end; 0 when empty. It is
/// as robust to stray values as the median and uses more of the samples.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank percentile `p` ∈ (0, 100] of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, -50.0]), 2.5);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }
}
