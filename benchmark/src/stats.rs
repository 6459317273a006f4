//! Sample statistics: percentiles, medians and the windowed throughput the
//! end-to-end metrics are built from.

/// Sorts samples in place and answers percentile queries on them.
pub struct Sorted<'a>(&'a [f64]);

impl<'a> Sorted<'a> {
    /// Sorts `samples` (NaN-free by construction: they are durations and
    /// counts) and wraps them.
    pub fn new(samples: &'a mut [f64]) -> Self {
        samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        Sorted(samples)
    }

    /// Nearest-rank percentile (`q` in 0..=1): the smallest sample with at
    /// least `q` of the samples at or below it. 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    /// Median as the mean of the two middle samples for an even count.
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.0[n / 2],
            _ => (self.0[n / 2 - 1] + self.0[n / 2]) / 2.0,
        }
    }
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    Sorted::new(&mut v).median()
}

/// Completions in each whole window of `window_ns` of a phase of
/// `phase_ns`; `done_ns` are completion times relative to the phase start.
pub fn window_counts(done_ns: &[u64], phase_ns: u64, window_ns: u64) -> Vec<u64> {
    let mut counts = vec![0u64; (phase_ns / window_ns) as usize];
    for &t in done_ns {
        if let Some(c) = counts.get_mut((t / window_ns) as usize) {
            *c += 1;
        }
    }
    counts
}

/// Completions per second as the median over whole windows of
/// `window_ns`, with the first and the last window of the phase dropped:
/// the first holds the ramp, the last is cut short by the phase end. A
/// stall that empties one window moves the median far less than it would
/// move a mean. Falls back to the plain rate when the phase is shorter
/// than three windows.
pub fn windowed_rate(done_ns: &[u64], phase_ns: u64, window_ns: u64) -> f64 {
    let counts = window_counts(done_ns, phase_ns, window_ns);
    if counts.len() < 3 {
        let secs = phase_ns as f64 / 1e9;
        let inside = done_ns.iter().filter(|&&t| t < phase_ns).count();
        return if secs > 0.0 {
            inside as f64 / secs
        } else {
            0.0
        };
    }
    let per_s: Vec<f64> = counts[1..counts.len() - 1]
        .iter()
        .map(|&c| c as f64 * 1e9 / window_ns as f64)
        .collect();
    median(&per_s)
}

/// Medians of the even-numbered and of the odd-numbered interior windows
/// (first and last dropped): the two interleaved halves of a phase whose
/// tracing alternates per window.
pub fn alternating_rates(done_ns: &[u64], phase_ns: u64, window_ns: u64) -> (f64, f64) {
    let counts = window_counts(done_ns, phase_ns, window_ns);
    let interior = 1..counts.len().saturating_sub(1);
    let pick = |parity: usize| {
        let v: Vec<f64> = interior
            .clone()
            .filter(|w| w % 2 == parity)
            .map(|w| counts[w] as f64 * 1e9 / window_ns as f64)
            .collect();
        median(&v)
    };
    (pick(0), pick(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        let s = Sorted::new(&mut v);
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.median(), 50.5);
        let mut empty: Vec<f64> = Vec::new();
        assert_eq!(Sorted::new(&mut empty).quantile(0.5), 0.0);
    }

    #[test]
    fn windowed_rate_drops_edge_windows_and_takes_the_median() {
        let sec = 1_000_000_000u64;
        let mut done = Vec::new();
        // Window 0: 5 (ramp), windows 1..=3: 100, 100, 0 (a stall), window 4: 7.
        for (w, n) in [(0u64, 5u64), (1, 100), (2, 100), (3, 0), (4, 7)] {
            for i in 0..n {
                done.push(w * sec + i);
            }
        }
        done.push(5 * sec + 10); // after the phase: ignored
        assert_eq!(windowed_rate(&done, 5 * sec, sec), 100.0);
        // Too short for edge dropping: plain rate.
        assert_eq!(windowed_rate(&[1, 2, 3, 4], 2 * sec, sec), 2.0);
        // Interior windows 1..=3: even {2} -> 100, odd {1, 3} -> 50.
        assert_eq!(alternating_rates(&done, 5 * sec, sec), (100.0, 50.0));
    }
}
