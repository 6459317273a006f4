//! A reference [`SeriesStore`]: the plainest store that meets the seam's
//! contract, for differential tests of the real engine.
//!
//! Per series it keeps every appended point in append order and the
//! metadata of the last append. An append commits before it returns and
//! nothing is ever lost, so a reopen is just the same value again. A
//! range scan filters the points in append order, as the seam documents:
//! no index, no sort, and duplicate timestamps are kept, because the
//! engine keeps them too.

use std::collections::HashMap;

use aodb_store::tseries::{AppendOutcome, SeriesRecovery, SeriesStore};
use aodb_store::{Bytes, StoreResult};
use parking_lot::Mutex;

/// The reference series store (see the module docs).
#[derive(Default)]
pub struct ReferenceSeries {
    series: Mutex<HashMap<String, Series>>,
}

#[derive(Default)]
struct Series {
    points: Vec<(u64, f64)>,
    meta: Bytes,
}

impl ReferenceSeries {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SeriesStore for ReferenceSeries {
    fn append_batch(
        &self,
        series: &str,
        points: &[(u64, f64)],
        meta: &[u8],
    ) -> StoreResult<AppendOutcome> {
        let mut all = self.series.lock();
        let s = all.entry(series.to_string()).or_default();
        s.points.extend_from_slice(points);
        s.meta = Bytes::copy_from_slice(meta);
        Ok(AppendOutcome {
            appended: points.len() as u32,
            sealed: 0,
        })
    }

    fn scan_range(
        &self,
        series: &str,
        from_ms: u64,
        to_ms: u64,
        limit: usize,
    ) -> StoreResult<Vec<(u64, f64)>> {
        let all = self.series.lock();
        let Some(s) = all.get(series) else {
            return Ok(Vec::new());
        };
        let hits = s
            .points
            .iter()
            .filter(|(ts, _)| (from_ms..=to_ms).contains(ts))
            .copied();
        Ok(match limit {
            0 => hits.collect(),
            n => hits.take(n).collect(),
        })
    }

    fn seal(&self, _series: &str) -> StoreResult<()> {
        Ok(())
    }

    fn recover(&self, series: &str) -> StoreResult<SeriesRecovery> {
        let all = self.series.lock();
        Ok(all
            .get(series)
            .map(|s| SeriesRecovery {
                meta: s.meta.clone(),
                points: s.points.len() as u64,
            })
            .unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_keeps_append_order_and_duplicate_timestamps() {
        let store = ReferenceSeries::new();
        store
            .append_batch("s", &[(0, 1.0), (300, 2.0), (100, 3.0)], b"m1")
            .unwrap();
        store
            .append_batch("s", &[(100, 4.0), (200, 5.0)], b"m2")
            .unwrap();
        assert_eq!(
            store.scan_range("s", 100, 200, 0).unwrap(),
            [(100, 3.0), (100, 4.0), (200, 5.0)]
        );
        assert_eq!(
            store.scan_range("s", 0, u64::MAX, 2).unwrap(),
            [(0, 1.0), (300, 2.0)]
        );
        let rec = store.recover("s").unwrap();
        assert_eq!((rec.points, rec.meta.as_ref()), (5, &b"m2"[..]));
        assert_eq!(store.recover("other").unwrap().points, 0);
    }
}
