//! Sample statistics: the median, the tail-percentile rule, and the
//! choice of a run's quietest windows.

/// Percentiles the tail rule may pick, highest last. The ladder stops at
/// p95: on a shared 2-core machine the p99 of a few thousand ops is set
/// by bursts of steal time (it rose from 6.8 to 15.6 ms on edit-loop as
/// steal ticks rose from 47 to 409) while p95 held within a few percent.
/// The cap also keeps a faster program, which fits more ops into a run,
/// from being reported at a stricter percentile than a slower one.
pub const TAIL_LADDER: [f64; 4] = [50.0, 75.0, 90.0, 95.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples:
/// the `ceil(p/100 * n)`-th smallest.
pub fn rank_index(p: f64, n: usize) -> usize {
    assert!(n > 0, "rank of an empty sample set");
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    s[rank_index(50.0, s.len())]
}

/// The tail: the highest ladder percentile that leaves at least
/// [`TAIL_BEYOND`] samples strictly beyond its rank. Returns
/// `(percentile, value)`; with too few samples for any ladder
/// percentile, the maximum is reported as p100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    let best = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && n - 1 - rank_index(p, n) >= TAIL_BEYOND);
    match best {
        Some(p) => (p, s[rank_index(p, n)]),
        None => (100.0, s.last().copied().unwrap_or(0.0)),
    }
}

/// One window of a run: a set-up, then a block of ops.
#[derive(Default)]
pub struct Window {
    pub setup_s: f64,
    /// One latency per op, in ms; a failed op is `INFINITY`.
    pub latencies_ms: Vec<f64>,
    /// Modules (or round trips) served by successful ops.
    pub units: u64,
    /// Summed latency of every op, in seconds.
    pub busy_s: f64,
}

/// The quietest `share` of the windows that ran ops: those with the
/// lowest median op latency, at least one, in run order. Interference
/// from a shared host (steal time, a neighbour's cache traffic) only
/// ever slows ops down and comes in bursts, so the quietest windows of a
/// run show the program's own speed; a slower program slows every window,
/// the quietest too.
pub fn quiet(windows: &[Window], share: f64) -> Vec<&Window> {
    let mut ranked: Vec<(f64, usize)> = windows
        .iter()
        .enumerate()
        .filter(|(_, w)| !w.latencies_ms.is_empty())
        .map(|(i, w)| (median(&w.latencies_ms), i))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let keep = ((ranked.len() as f64 * share).ceil() as usize).clamp(1, ranked.len().max(1));
    let mut kept: Vec<usize> = ranked.iter().take(keep).map(|&(_, i)| i).collect();
    kept.sort_unstable();
    kept.into_iter().map(|i| &windows[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p95 is rank 950, leaving 50 beyond.
        assert_eq!(tail(&ramp(1000)), (95.0, 950.0));
        // 200 samples: p95 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(200)), (95.0, 190.0));
        // 100 samples: p90 leaves 10 beyond; p95 would leave 5.
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        // 199 samples: p95 would leave 9, so p90 (rank 180, 19 beyond).
        assert_eq!(tail(&ramp(199)), (90.0, 180.0));
        // 40 samples: p75 leaves 10 beyond.
        assert_eq!(tail(&ramp(40)), (75.0, 30.0));
        // 20 samples: only p50 (rank 10, 10 beyond).
        assert_eq!(tail(&ramp(20)), (50.0, 10.0));
        // 19 samples: nothing qualifies, report the maximum.
        assert_eq!(tail(&ramp(19)), (100.0, 19.0));
    }

    #[test]
    fn tail_never_exceeds_p95() {
        assert_eq!(tail(&ramp(100_000)).0, 95.0);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut v = ramp(500);
        v.reverse();
        assert_eq!(tail(&v), tail(&ramp(500)));
    }

    #[test]
    fn failed_ops_count_as_missing_the_tail() {
        // 90 good ops and 10 failures (infinite latency): p90 still sits
        // on a good op, but one more failure would push it past.
        let mut v = ramp(90);
        v.extend(std::iter::repeat_n(f64::INFINITY, 10));
        assert_eq!(tail(&v), (90.0, 90.0));
        v.push(f64::INFINITY);
        assert_eq!(tail(&v).1, f64::INFINITY);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
    }
    fn window(setup_s: f64, latencies_ms: &[f64]) -> Window {
        Window {
            setup_s,
            latencies_ms: latencies_ms.to_vec(),
            units: latencies_ms.len() as u64,
            busy_s: latencies_ms.iter().sum::<f64>() / 1e3,
        }
    }

    #[test]
    fn quiet_keeps_the_windows_with_the_lowest_median_in_run_order() {
        let ws = [
            window(0.1, &[5.0, 5.0, 50.0]),
            window(0.2, &[9.0, 9.0, 1.0]),
            window(0.3, &[]),
            window(0.4, &[4.0, 6.0, 7.0]),
            window(0.5, &[1.0, 2.0, 3.0]),
        ];
        // Medians 5, 9, -, 6, 2: the empty window is never kept.
        let setups = |share| -> Vec<f64> { quiet(&ws, share).iter().map(|w| w.setup_s).collect() };
        assert_eq!(setups(0.25), vec![0.5]);
        assert_eq!(setups(0.5), vec![0.1, 0.5]);
        assert_eq!(setups(0.75), vec![0.1, 0.4, 0.5]);
        assert_eq!(setups(1.0), vec![0.1, 0.2, 0.4, 0.5]);
        // Never fewer than one window.
        assert_eq!(setups(0.0), vec![0.5]);
    }

    #[test]
    fn a_window_with_a_failed_op_ranks_by_its_median() {
        let ws = [
            window(0.1, &[3.0, f64::INFINITY, f64::INFINITY]),
            window(0.2, &[4.0, 4.0, 4.0]),
        ];
        assert_eq!(quiet(&ws, 0.5)[0].setup_s, 0.2);
        assert!(quiet(&[], 0.5).is_empty());
    }
}
