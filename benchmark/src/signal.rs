//! The seeded sensor signal and the seeded random numbers behind every
//! workload input.
//!
//! A point's value is a pure function of `(seed, channel, ts)`, so any
//! point the system returns can be checked without remembering what was
//! sent. The stream is a quantized 10 Hz signal (fixed-step ADC values on
//! a slow triangle wave plus one dither bit), the class of input the
//! tseries compressor is built for.

use aodb_shm::types::DataPoint;

/// Timestamp of point 0 of every channel (ms since the Unix epoch).
pub const T0_MS: u64 = 1_700_000_000_000;
/// Sampling period: 10 Hz.
pub const SAMPLE_MS: u64 = 100;
/// Points per channel per sensor request (one second of samples).
pub const BATCH_POINTS: u64 = 10;
/// Data time covered by one batch.
pub const BATCH_MS: u64 = SAMPLE_MS * BATCH_POINTS;

/// SplitMix64 finalizer: a stateless 64-bit mixer.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// SplitMix64 sequence generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated per `stream` so that two uses of
    /// one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(seed ^ mix64(stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform draw from `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// First timestamp of a channel's batch number `batch`.
pub fn batch_first_ts(batch: u64) -> u64 {
    T0_MS + batch * BATCH_MS
}

/// Last timestamp of a channel that has sent `batches` batches.
pub fn last_ts_after(batches: u64) -> Option<u64> {
    (batches > 0).then(|| batch_first_ts(batches) - SAMPLE_MS)
}

/// The signal: value of `channel` at `ts_ms`.
pub fn value(seed: u64, channel: u32, ts_ms: u64) -> f64 {
    let k = ts_ms.wrapping_sub(T0_MS) / SAMPLE_MS;
    let c = mix64(seed ^ (u64::from(channel) << 32));
    let base = 20.0 + (c % 64) as f64 * 0.25;
    let q = (k + (c >> 8) % 32) % 32;
    let tri = if q < 16 { q } else { 32 - q };
    let dither = mix64(c ^ k) & 1;
    base + (tri + dither) as f64 * 0.25
}

/// The points of `channel`'s batch number `batch`.
pub fn batch(seed: u64, channel: u32, batch: u64) -> Vec<DataPoint> {
    let first = batch_first_ts(batch);
    (0..BATCH_POINTS)
        .map(|i| {
            let ts_ms = first + i * SAMPLE_MS;
            DataPoint {
                ts_ms,
                value: value(seed, channel, ts_ms),
            }
        })
        .collect()
}

/// True when `points` is exactly the signal of `channel` on consecutive
/// grid timestamps starting at `first_ts`.
pub fn matches_signal(seed: u64, channel: u32, first_ts: u64, points: &[DataPoint]) -> bool {
    points.iter().enumerate().all(|(i, p)| {
        let ts = first_ts + i as u64 * SAMPLE_MS;
        p.ts_ms == ts && p.value == value(seed, channel, ts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_is_a_pure_function_of_seed_channel_ts() {
        let a = value(7, 3, T0_MS + 1200);
        assert_eq!(a, value(7, 3, T0_MS + 1200));
        let differs = (0..64u64)
            .any(|k| value(7, 3, T0_MS + k * SAMPLE_MS) != value(8, 3, T0_MS + k * SAMPLE_MS));
        assert!(differs, "another seed must give another stream");
    }

    #[test]
    fn values_are_quantized_to_quarter_steps() {
        for k in 0..200u64 {
            let v = value(1, 5, T0_MS + k * SAMPLE_MS);
            assert_eq!((v * 4.0).fract(), 0.0);
            assert!((20.0..=40.5).contains(&v));
        }
    }

    #[test]
    fn batches_tile_the_timeline() {
        let b0 = batch(1, 0, 0);
        let b1 = batch(1, 0, 1);
        assert_eq!(b0.len() as u64, BATCH_POINTS);
        assert_eq!(b0[0].ts_ms, T0_MS);
        assert_eq!(b1[0].ts_ms, b0[9].ts_ms + SAMPLE_MS);
        assert_eq!(last_ts_after(2), Some(b1[9].ts_ms));
        assert_eq!(last_ts_after(0), None);
        let mut both = b0;
        both.extend(b1);
        assert!(matches_signal(1, 0, T0_MS, &both));
        assert!(!matches_signal(1, 1, T0_MS, &both));
    }
}
