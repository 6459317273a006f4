//! The `Aggregator` actor: one channel's statistical buckets at one
//! granularity (hour, day or month), a cache of the channel's series.
//!
//! Figure 4 introduces aggregator actors because aggregation across levels
//! of detail is parallelizable. Here each level reads the channel's
//! series itself: on [`QueryAggregates`] it folds the points appended
//! since its last read, in append order, into its buckets, then answers.
//! No channel pushes to it and no level feeds another, so a bucket always
//! counts every point the series has applied in its range — the still-open
//! hour included — and no message can be lost between levels. Nothing is
//! persisted: a fresh activation folds the series from its start.
//!
//! The aggregator's identity encodes channel and level
//! (`"{channel}#hour"`), so the factory derives its role from its own key
//! — no configuration message needed, which keeps provisioning cheap.

use std::collections::BTreeMap;
use std::sync::Arc;

use aodb_runtime::{Actor, ActorContext, Handler};
use aodb_store::tseries::SeriesStore;
use aodb_store::StoreResult;

use crate::env::ShmEnv;
use crate::messages::QueryAggregates;
use crate::physical::{abort_reply, series_key, PhysicalSensorChannel};
use crate::types::{Aggregate, AggregateLevel};
use crate::virtual_channel::VirtualSensorChannel;

/// Bounded bucket retention per aggregator (oldest evicted first).
const MAX_BUCKETS: usize = 4096;
/// Points one series read returns at most, so a cold fold of a long
/// series holds a bounded batch in memory.
const READ_POINTS: usize = 65_536;

/// Builds the aggregator actor key for a channel and level.
pub fn aggregator_key(channel: &str, level: AggregateLevel) -> String {
    format!("{channel}#{}", level.suffix())
}

/// Splits an aggregator key back into `(channel, level)`.
pub fn parse_aggregator_key(key: &str) -> Option<(&str, AggregateLevel)> {
    let (channel, suffix) = key.rsplit_once('#')?;
    Some((channel, AggregateLevel::from_suffix(suffix)?))
}

/// One channel × one granularity of statistical buckets.
pub struct Aggregator {
    series: Arc<dyn SeriesStore>,
    /// The series a channel with this key may have — physical and virtual
    /// (series names are type-prefixed) — each with the count of its
    /// points folded so far.
    sources: [(String, u64); 2],
    level: AggregateLevel,
    buckets: BTreeMap<u64, Aggregate>,
}

impl Aggregator {
    /// Registers the actor type. Keys must follow [`aggregator_key`].
    pub fn register(rt: &aodb_runtime::Runtime, env: ShmEnv) {
        rt.register(move |id| {
            let key = id.key.as_display();
            let (channel, level) = parse_aggregator_key(&key)
                .unwrap_or_else(|| panic!("malformed aggregator key `{key}`"));
            let source = |type_name| {
                let mut name = String::new();
                series_key(&mut name, type_name, channel);
                (name, 0)
            };
            Aggregator {
                series: Arc::clone(&env.series),
                sources: [
                    source(PhysicalSensorChannel::TYPE_NAME),
                    source(VirtualSensorChannel::TYPE_NAME),
                ],
                level,
                buckets: BTreeMap::new(),
            }
        });
    }

    /// Folds every point appended to the channel's series since the last
    /// catch-up into the buckets. A failed read leaves that series'
    /// position where it was, after whatever the reads before it folded.
    fn catch_up(&mut self) -> StoreResult<()> {
        let Aggregator {
            series,
            sources,
            level,
            buckets,
        } = self;
        for (name, folded) in sources {
            loop {
                let points = series.scan_from(name, *folded, READ_POINTS)?;
                for &(ts_ms, value) in &points {
                    buckets
                        .entry(level.bucket_start(ts_ms))
                        .or_default()
                        .record(value);
                }
                while buckets.len() > MAX_BUCKETS {
                    buckets.pop_first();
                }
                *folded += points.len() as u64;
                if points.len() < READ_POINTS {
                    break;
                }
            }
        }
        Ok(())
    }
}

impl Actor for Aggregator {
    const TYPE_NAME: &'static str = "shm.aggregator";
}

impl Handler<QueryAggregates> for Aggregator {
    fn handle(
        &mut self,
        msg: QueryAggregates,
        ctx: &mut ActorContext<'_>,
    ) -> Vec<(u64, Aggregate)> {
        if self.catch_up().is_err() {
            return abort_reply(ctx);
        }
        self.buckets
            .range(self.level.bucket_start(msg.from_ms)..=msg.to_ms)
            .map(|(k, v)| (*k, *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        let key = aggregator_key("org-1/s-2/c-0", AggregateLevel::Day);
        assert_eq!(
            parse_aggregator_key(&key),
            Some(("org-1/s-2/c-0", AggregateLevel::Day))
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_aggregator_key("no-suffix"), None);
        assert_eq!(parse_aggregator_key("chan#fortnight"), None);
    }
}
