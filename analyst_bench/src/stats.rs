//! Percentiles with the sample-count rule, medians, and the output digest.

use lte_core::pipeline::UirOutcome;

/// Samples a high percentile must leave strictly above its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice, `p` in `(0, 100]`,
/// plus the number of samples ranked beyond it. `None` for no samples.
pub fn percentile_with_beyond(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // The smallest rank r with 100·r/n ≥ p; multiplying first keeps
    // integer-valued products exact.
    let rank = ((p * n as f64) / 100.0).ceil() as usize;
    let rank = rank.clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Every output bit of a completed session that does not depend on time:
/// confusion counts, per-subspace F1 bits, and each round's predictions,
/// score bits and labels. Two sessions with equal digests agree bitwise
/// (up to a 64-bit hash collision).
pub fn digest(o: &UirOutcome) -> u64 {
    let mut h = Fnv::default();
    let c = &o.confusion;
    for v in [c.tp, c.fp, c.fn_, c.tn, o.labels_used] {
        h.write(v as u64);
    }
    for f in &o.per_subspace_f1 {
        h.write(f.to_bits());
    }
    for sub in &o.subspace_outcomes {
        h.write(sub.labels_used as u64);
        for &p in &sub.predictions {
            h.write(p as u64);
        }
        for s in &sub.scores {
            h.write(s.to_bits());
        }
        for &l in &sub.cs_labels {
            h.write(l as u64);
        }
    }
    h.0
}

/// 64-bit FNV-1a over u64 words.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        // n = 1000: rank 990, ten samples above it.
        assert_eq!(percentile_with_beyond(&ramp(1000), 99.0), Some((990.0, 10)));
        // n = 999: rank ⌈989.01⌉ = 990, one short of MIN_BEYOND.
        assert_eq!(percentile_with_beyond(&ramp(999), 99.0), Some((990.0, 9)));
        assert_eq!(MIN_BEYOND, 10);
        // n = 1001: rank ⌈990.99⌉ = 991, ten above it.
        assert_eq!(percentile_with_beyond(&ramp(1001), 99.0), Some((991.0, 10)));
    }

    #[test]
    fn median_rank_and_edges() {
        assert_eq!(percentile_with_beyond(&ramp(20), 50.0), Some((10.0, 10)));
        assert_eq!(percentile_with_beyond(&ramp(1), 99.0), Some((1.0, 0)));
        assert_eq!(percentile_with_beyond(&[], 50.0), None);
        assert_eq!(percentile_with_beyond(&ramp(5), 100.0), Some((5.0, 0)));
    }

    #[test]
    fn repeated_samples_count_by_rank() {
        // One tick's wall is one sample per round it advanced: 64 equal
        // values still rank one above another.
        let mut samples = vec![1.0; 64 * 20];
        samples.extend(vec![2.0; 64]);
        let (v, beyond) = percentile_with_beyond(&samples, 99.0).unwrap();
        assert_eq!(v, 2.0);
        assert_eq!(beyond, 13);
    }

    #[test]
    fn digest_sees_every_output_bit_but_not_timing() {
        use lte_core::explore::ExploreOutcome;
        let base = UirOutcome {
            confusion: Default::default(),
            per_subspace_f1: vec![0.5, 0.25],
            online_seconds: 1.0,
            labels_used: 30,
            subspace_outcomes: vec![ExploreOutcome {
                predictions: vec![true, false],
                scores: vec![0.75, -1.5],
                labels_used: 30,
                online_seconds: 1.0,
                cs_labels: vec![true],
            }],
        };
        let d = digest(&base);
        let mut timing = base.clone();
        timing.online_seconds = 2.0;
        timing.subspace_outcomes[0].online_seconds = 2.0;
        assert_eq!(digest(&timing), d);
        let mut score = base.clone();
        score.subspace_outcomes[0].scores[1] = f64::from_bits((-1.5f64).to_bits() ^ 1);
        assert_ne!(digest(&score), d);
        let mut pred = base.clone();
        pred.subspace_outcomes[0].predictions[1] = true;
        assert_ne!(digest(&pred), d);
        let mut conf = base;
        conf.confusion.fp = 1;
        assert_ne!(digest(&conf), d);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
