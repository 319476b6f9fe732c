//! The benchmark's own metric arithmetic: percentiles that refuse to
//! report a tail the sample cannot support, the backlog-growth test, the
//! fixed-grid search for the highest rate meeting the latency limit, and
//! the failure accounting behind `attempted`/`failed`.

/// A percentile must have at least this many samples strictly beyond it.
pub const MIN_BEYOND: u64 = 10;

/// One reported percentile with the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    /// Samples in the population.
    pub n: u64,
    /// Samples ranked strictly after the percentile's nearest rank.
    pub beyond: u64,
}

impl std::fmt::Display for Pct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} (n={}, beyond={})",
            self.value, self.n, self.beyond
        )
    }
}

/// Percentile `p` of ascending `sorted`, refused (with the reason) when
/// fewer than [`MIN_BEYOND`] samples lie beyond its nearest rank: such a
/// "p999" is just one of the largest few samples.
///
/// Modelled latencies take few distinct values, so a nearest-rank
/// percentile jumps a whole cost level when the share of ops at one
/// level crosses `p`. The value reported is the mid-distribution
/// quantile instead: each distinct value sits at the middle of its run
/// of ties in cumulative share, and `p` is interpolated linearly between
/// the two values around it. It moves smoothly with the shares, and
/// equals the ordinary interpolated quantile on untied data.
pub fn percentile(sorted: &[u64], p: f64) -> Result<Pct, String> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} out of (0, 1)");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples not sorted"
    );
    let n = sorted.len() as u64;
    if n == 0 {
        return Err(format!("p{} of an empty sample", p * 100.0));
    }
    // Integer rank arithmetic: `0.999 * 10_000.0` is 9990.000000000002
    // in floating point, whose ceiling is one rank too high.
    let ppm = (p * 1e6).round() as u64;
    let rank = (ppm * n).div_ceil(1_000_000).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            p * 100.0
        ));
    }
    // The run of ties holding the nearest rank, as `[lo, hi)`, and its
    // middle in cumulative count.
    let tie = |v: u64| {
        let lo = sorted.partition_point(|&x| x < v);
        let hi = sorted.partition_point(|&x| x <= v);
        (v as f64, (lo + hi) as f64 / 2.0, lo, hi)
    };
    let here = tie(sorted[rank as usize - 1]);
    let at = p * n as f64;
    let (a, b) = if at >= here.1 {
        if here.3 == sorted.len() {
            return Ok(Pct {
                value: here.0,
                n,
                beyond,
            });
        }
        (here, tie(sorted[here.3]))
    } else {
        if here.2 == 0 {
            return Ok(Pct {
                value: here.0,
                n,
                beyond,
            });
        }
        (tie(sorted[here.2 - 1]), here)
    };
    let f = ((at - a.1) / (b.1 - a.1)).clamp(0.0, 1.0);
    Ok(Pct {
        value: a.0 + f * (b.0 - a.0),
        n,
        beyond,
    })
}

/// Median of unsorted host-time samples (mean of the middle pair).
pub fn median_f64(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The backlog test: requests queue ever longer when the median queue
/// wait of the last tenth (in arrival order) is more than twice that of
/// the first tenth. `floor_ns` keeps an idle system, whose waits are a
/// few ns either way, from counting as growing.
pub fn backlog_grows(waits_in_arrival_order: &[u64], floor_ns: u64) -> bool {
    let n = waits_in_arrival_order.len();
    let tenth = n / 10;
    if tenth == 0 {
        return false;
    }
    let med = |s: &[u64]| {
        let mut v = s.to_vec();
        let mid = (v.len() - 1) / 2;
        *v.select_nth_unstable(mid).1
    };
    let first = med(&waits_in_arrival_order[..tenth]);
    let last = med(&waits_in_arrival_order[n - tenth..]);
    last > floor_ns && last > 2 * first
}

/// What one offered rate produced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RatePoint {
    pub rate_mops: f64,
    /// p999 latency, ns; `None` when the sample is too small to have one.
    pub p999_ns: Option<f64>,
    pub backlog: bool,
}

impl RatePoint {
    pub fn meets(&self, limit_ns: f64) -> bool {
        !self.backlog && self.p999_ns.is_some_and(|p| p <= limit_ns)
    }
}

/// The highest rate that meets `limit_ns` without a growing backlog,
/// given every rate of a fixed ascending grid, measured in order.
///
/// The result is refined between the highest passing grid rate and the
/// next one by linear interpolation of p999 to the limit, when that next
/// rate's p999 is over the limit (not when it fails on backlog alone): a
/// grid value by itself would move only in whole grid steps. Returns 0 if
/// no rate passes and the top grid rate if all do.
pub fn max_rate(points: &[RatePoint], limit_ns: f64) -> f64 {
    assert!(
        points.windows(2).all(|w| w[0].rate_mops < w[1].rate_mops),
        "grid must ascend"
    );
    let Some(best) = points.iter().rposition(|p| p.meets(limit_ns)) else {
        return 0.0;
    };
    let lo = points[best];
    match points.get(best + 1).map(|hi| (hi, lo.p999_ns, hi.p999_ns)) {
        Some((hi, Some(pl), Some(ph))) if ph > limit_ns && ph > pl => {
            let f = (limit_ns - pl) / (ph - pl);
            lo.rate_mops + f * (hi.rate_mops - lo.rate_mops)
        }
        _ => lo.rate_mops,
    }
}

/// Per-run failure accounting. Every attempted op lands in exactly one
/// bucket; `error_frac` is everything but `ok` over `attempted`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub attempted: u64,
    /// The index returned an error.
    pub failed: u64,
    /// The index returned a result other than the expected one.
    pub wrong: u64,
    /// Enqueued but never acked.
    pub unacked: u64,
    /// Served by a shard that does not own the key.
    pub misrouted: u64,
}

impl Outcomes {
    pub fn errors(&self) -> u64 {
        self.failed + self.wrong + self.unacked + self.misrouted
    }

    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.errors() as f64 / self.attempted as f64
        }
    }

    pub fn add(&mut self, o: &Outcomes) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.unacked += o.unacked;
        self.misrouted += o.misrouted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=10_000).collect();
        let p = percentile(&v, 0.999).unwrap();
        assert_eq!((p.n, p.beyond), (10_000, 10));
        assert!((p.value - 9_990.0).abs() < 1.0, "{p}");
        // One sample fewer and p999 is refused.
        assert!(percentile(&v[..9_999], 0.999).is_err());
        // The old service rows: 1,500 samples, p999 = second largest.
        let small: Vec<u64> = (1..=1_500).collect();
        let err = percentile(&small, 0.999).unwrap_err();
        assert!(err.contains("only 1 beyond"), "{err}");
        assert!(percentile(&[], 0.5).is_err());
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.9).unwrap().beyond, 10);
        assert!(percentile(&v, 0.95).is_err());
    }

    #[test]
    fn percentile_interpolates_between_runs_of_ties() {
        // 40 samples at 100, 60 at 200: shares' midpoints are 0.2 and 0.7.
        let mut v = vec![100u64; 40];
        v.extend([200u64; 60]);
        let at = |p| percentile(&v, p).unwrap().value;
        assert_eq!(at(0.2), 100.0);
        assert!((at(0.45) - 150.0).abs() < 1e-9);
        assert_eq!(at(0.7), 200.0);
        // Moving one sample between levels moves p50 a little, not a level.
        let mut w = vec![100u64; 41];
        w.extend([200u64; 59]);
        let (a, b) = (at(0.5), percentile(&w, 0.5).unwrap().value);
        assert!(b < a && a - b < 2.0, "{a} {b}");
        // Untied data: the ordinary interpolated quantile.
        let u: Vec<u64> = (0..=100).map(|i| i * 10).collect();
        assert!((percentile(&u, 0.5).unwrap().value - 500.0).abs() < 10.0);
        // Past the last run's midpoint the largest value is returned.
        let mut e = vec![7u64; 980];
        e.extend([9u64; 20]);
        assert!((percentile(&e, 0.98).unwrap().value - 8.96).abs() < 1e-9);
        assert_eq!(percentile(&e, 0.99).unwrap().value, 9.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn backlog_test_compares_first_and_last_tenth() {
        let steady = vec![500u64; 1_000];
        assert!(!backlog_grows(&steady, 1_000));
        let growing: Vec<u64> = (0..1_000).map(|i| 100 + i * 50).collect();
        assert!(backlog_grows(&growing, 1_000));
        // Doubling from 10 ns to 30 ns is noise below the floor.
        let idle: Vec<u64> = (0..1_000).map(|i| if i < 500 { 10 } else { 30 }).collect();
        assert!(!backlog_grows(&idle, 1_000));
        // Exactly twice is not "more than twice".
        let twice: Vec<u64> = (0..1_000)
            .map(|i| if i < 500 { 2_000 } else { 4_000 })
            .collect();
        assert!(!backlog_grows(&twice, 1_000));
        assert!(!backlog_grows(&[1, 2, 3], 0));
    }

    fn synthetic(grid: &[f64], backlog_above: f64) -> Vec<RatePoint> {
        // p999 grows linearly with rate: 20 µs per Mops/s.
        grid.iter()
            .map(|&rate| RatePoint {
                rate_mops: rate,
                p999_ns: Some(rate * 20_000.0),
                backlog: rate > backlog_above,
            })
            .collect()
    }

    #[test]
    fn max_rate_grid_search_is_deterministic_and_interpolates() {
        let points = synthetic(&[0.5, 1.0, 2.0, 3.0, 4.0], 3.0);
        let a = max_rate(&points, 50_000.0);
        assert_eq!(a.to_bits(), max_rate(&points.clone(), 50_000.0).to_bits());
        // 2.0 passes (40 µs), 3.0 fails (60 µs): crossing at 2.5.
        assert!((a - 2.5).abs() < 1e-12, "{a}");
        // A passing rate above a failing one still counts: the search
        // takes the highest passing grid rate, not the first failure.
        let mut holes = points.clone();
        holes[1].backlog = true;
        assert_eq!(max_rate(&holes, 50_000.0).to_bits(), a.to_bits());
    }

    #[test]
    fn max_rate_edges() {
        let grid = [1.0, 2.0];
        assert_eq!(max_rate(&synthetic(&grid, 9.0), 1.0), 0.0);
        assert_eq!(max_rate(&synthetic(&grid, 9.0), 1e6), 2.0);
        // A next rate that fails only on backlog is not interpolated.
        let mut flat = synthetic(&grid, 1.5);
        for p in &mut flat {
            p.p999_ns = Some(1_000.0);
        }
        assert_eq!(max_rate(&flat, 50_000.0), 1.0);
        // A point without a p999 (too few samples) never passes.
        for p in &mut flat {
            p.p999_ns = None;
        }
        assert_eq!(max_rate(&flat, 50_000.0), 0.0);
    }

    #[test]
    fn error_frac_counts_every_kind_of_failure() {
        let mut o = Outcomes {
            attempted: 1_000,
            failed: 1,
            wrong: 2,
            unacked: 3,
            misrouted: 4,
        };
        assert_eq!(o.errors(), 10);
        assert!((o.error_frac() - 0.01).abs() < 1e-12);
        o.add(&Outcomes {
            attempted: 1_000,
            ..Outcomes::default()
        });
        assert!((o.error_frac() - 0.005).abs() < 1e-12);
        assert_eq!(Outcomes::default().error_frac(), 0.0);
    }
}
