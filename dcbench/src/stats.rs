//! Summary statistics: medians, the tail-percentile rule, and the
//! spread figures the benchmark reports.

/// A tail latency: the highest percentile (capped at p99) that still has at
/// least [`TAIL_BEYOND`] samples above it, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile actually reported, in `0..=99`.
    pub percentile: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank quantile (`q` in `[0, 1]`) of an already sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The tail rule: p99 when at least [`TAIL_BEYOND`] samples lie beyond it,
/// otherwise the highest percentile that still has that many beyond it.
/// `None` with [`TAIL_BEYOND`] or fewer samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p99_rank = (0.99 * (n - 1) as f64).round() as usize;
    let rank = p99_rank.min(n - 1 - TAIL_BEYOND);
    Some(Tail {
        percentile: if rank == p99_rank {
            99.0
        } else {
            100.0 * rank as f64 / (n - 1) as f64
        },
        value: v[rank],
        samples: n,
    })
}

/// The tail rule applied to `parts` consecutive, equal parts of a
/// time-ordered sample, reported as the median part's figure with the total
/// sample count. On a shared host a burst of stolen CPU time lands in one
/// part; it moves that part's tail, not the reported one. `None` when a
/// part has too few samples for the rule.
pub fn split_tail(values: &[f64], parts: usize) -> Option<Tail> {
    let parts = parts.max(1);
    let len = values.len() / parts;
    let tails: Vec<Tail> = (0..parts)
        .map(|p| {
            tail(
                &values[p * len..if p + 1 == parts {
                    values.len()
                } else {
                    (p + 1) * len
                }],
            )
        })
        .collect::<Option<_>>()?;
    let mid = |f: fn(&Tail) -> f64| median(&tails.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    Some(Tail {
        percentile: mid(|t| t.percentile),
        value: mid(|t| t.value),
        samples: values.len(),
    })
}

/// The quiet-share rule: cut a time-ordered series of per-round costs into
/// consecutive blocks of `block` rounds (a short last block is dropped) and
/// return the `share` of blocks with the lowest total cost, at least one,
/// as index ranges in time order. Other tenants of a shared host load its
/// memory system for seconds at a time; figures taken over the least
/// contended blocks follow the program, not them. Every block holds the
/// same mix of rounds, so a slower kind of round still counts.
pub fn quiet_blocks(costs: &[f64], block: usize, share: f64) -> Vec<std::ops::Range<usize>> {
    let block = block.max(1);
    let mut blocks: Vec<(f64, std::ops::Range<usize>)> = (0..costs.len() / block)
        .map(|b| {
            let r = b * block..(b + 1) * block;
            (costs[r.clone()].iter().sum(), r)
        })
        .collect();
    let keep = ((blocks.len() as f64 * share).round() as usize).clamp(1, blocks.len().max(1));
    blocks.sort_by(|a, b| a.0.total_cmp(&b.0));
    blocks.truncate(keep);
    let mut ranges: Vec<_> = blocks.into_iter().map(|(_, r)| r).collect();
    ranges.sort_by_key(|r| r.start);
    ranges
}

/// A sample set with the usual read-outs.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Record one observation.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Append every observation of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The observations in recording order.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Median, 0 when empty.
    pub fn p50(&self) -> f64 {
        median(&self.0).unwrap_or(0.0)
    }

    /// Nearest-rank quantile, 0 when empty.
    pub fn q(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        quantile_sorted(&v, q)
    }

    /// The tail rule over the recorded values.
    pub fn tail(&self) -> Option<Tail> {
        tail(&self.0)
    }

    /// Largest observation, 0 when empty.
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_p99_when_enough_samples_lie_beyond() {
        let v: Vec<f64> = (0..10_000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 9_899.0);
        assert_eq!(t.samples, 10_000);
        let beyond = v.iter().filter(|&&x| x > t.value).count();
        assert!(beyond >= TAIL_BEYOND);
    }

    #[test]
    fn tail_backs_off_to_keep_ten_samples_beyond() {
        // 100 samples: p99 would leave one sample beyond it.
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 89.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!(t.percentile < 99.0 && t.percentile > 89.0);
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&v).is_none());
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.percentile), (0.0, 0.0));
    }

    #[test]
    fn split_tail_ignores_a_burst_in_one_part() {
        let mut v: Vec<f64> = (0..5000).map(|i| f64::from(i % 100)).collect();
        let calm = split_tail(&v, 5).unwrap();
        assert_eq!(calm.value, 98.0);
        assert_eq!(calm.samples, 5000);
        // A burst of 200 slow samples inside the second part.
        for x in &mut v[1200..1400] {
            *x = 10_000.0;
        }
        assert_eq!(tail(&v).unwrap().value, 10_000.0);
        assert_eq!(split_tail(&v, 5).unwrap().value, 98.0);
        // Too few samples per part.
        assert!(split_tail(&v[..50], 5).is_none());
    }

    #[test]
    fn quiet_blocks_skip_contended_blocks_and_keep_every_kind_of_round() {
        // Every fourth round is a heavy one; blocks 1 and 3 are contended.
        let mut costs: Vec<f64> = (0..32).map(|i| if i % 4 == 3 { 5.0 } else { 1.0 }).collect();
        for c in &mut costs[8..16] {
            *c *= 2.0;
        }
        for c in &mut costs[24..32] {
            *c *= 3.0;
        }
        let q = quiet_blocks(&costs, 8, 0.5);
        assert_eq!(q, vec![0..8, 16..24]);
        // The heavy rounds are in the chosen blocks.
        assert!(q.iter().all(|r| costs[r.clone()].contains(&5.0)));
        // At least one block; a short tail is dropped.
        assert_eq!(quiet_blocks(&costs[..12], 8, 0.1), vec![0..8]);
        assert!(quiet_blocks(&costs[..5], 8, 0.5).is_empty());
    }

    #[test]
    fn tail_is_order_independent() {
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from((i * 7919) % 1000)).collect();
        let a = tail(&v).unwrap();
        v.sort_by(f64::total_cmp);
        assert_eq!(tail(&v).unwrap(), a);
    }
}
