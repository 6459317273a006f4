//! The `Aggregator` actor cascade: hour → day → month statistical buckets.
//!
//! Figure 4 introduces aggregator actors because aggregation across levels
//! of detail is parallelizable ("hourly aggregates serving as input to
//! daily aggregates"). Each aggregator owns the buckets of one channel at
//! one granularity; when a bucket closes (time moves past it), its summary
//! is rolled up to the parent level with a single message.
//!
//! The aggregator's identity encodes channel and level
//! (`"{channel}#hour"`), so the factory derives its role from its own key
//! — no configuration message needed, which keeps provisioning cheap.

use std::collections::BTreeMap;

use aodb_runtime::{Actor, ActorContext, Handler};
use serde::{Deserialize, Serialize};

use crate::env::ShmEnv;
use crate::messages::{MergeBucket, QueryAggregates, RecordSamples};
use crate::types::{Aggregate, AggregateLevel};
use aodb_core::Persisted;

/// Bounded bucket retention per aggregator (oldest evicted first).
const MAX_BUCKETS: usize = 4096;

/// Builds the aggregator actor key for a channel and level.
pub fn aggregator_key(channel: &str, level: AggregateLevel) -> String {
    format!("{channel}#{}", level.suffix())
}

/// Splits an aggregator key back into `(channel, level)`.
pub fn parse_aggregator_key(key: &str) -> Option<(&str, AggregateLevel)> {
    let (channel, suffix) = key.rsplit_once('#')?;
    Some((channel, AggregateLevel::from_suffix(suffix)?))
}

#[derive(Default, Serialize, Deserialize)]
struct AggregatorState {
    buckets: BTreeMap<u64, Aggregate>,
    /// Buckets strictly below this start have been rolled up already.
    forwarded_until: u64,
}

/// One channel × one granularity of statistical buckets.
pub struct Aggregator {
    state: Persisted<AggregatorState>,
    channel: String,
    level: AggregateLevel,
}

impl Aggregator {
    /// Registers the actor type. Keys must follow [`aggregator_key`].
    pub fn register(rt: &aodb_runtime::Runtime, env: ShmEnv) {
        rt.register(move |id| {
            let key = id.key.as_display();
            let (channel, level) = parse_aggregator_key(&key)
                .unwrap_or_else(|| panic!("malformed aggregator key `{key}`"));
            Aggregator {
                state: env.persisted_data(Self::TYPE_NAME, &id.key),
                channel: channel.to_string(),
                level,
            }
        });
    }

    /// Merges a value-summary into the bucket containing `ts_ms`, then
    /// rolls up any buckets that the advancing clock has closed.
    fn absorb(&mut self, bucket_start: u64, agg: Aggregate, ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| {
            s.buckets.entry(bucket_start).or_default().merge(&agg);
            while s.buckets.len() > MAX_BUCKETS {
                let oldest = *s.buckets.keys().next().expect("non-empty");
                s.buckets.remove(&oldest);
            }
        });
        self.roll_up_closed(bucket_start, ctx);
    }

    /// Forwards every bucket strictly older than `open_bucket` that has
    /// not been forwarded yet to the parent level.
    fn roll_up_closed(&mut self, open_bucket: u64, ctx: &mut ActorContext<'_>) {
        let Some(parent_level) = self.level.parent() else {
            return;
        };
        let to_forward: Vec<(u64, Aggregate)> = {
            let s = self.state.get();
            if open_bucket <= s.forwarded_until {
                return;
            }
            s.buckets
                .range(s.forwarded_until..open_bucket)
                .map(|(k, v)| (*k, *v))
                .collect()
        };
        if to_forward.is_empty() {
            // Still advance the watermark so later out-of-order arrivals
            // below it do not retrigger forwarding of unseen buckets.
            self.state
                .mutate(|s| s.forwarded_until = s.forwarded_until.max(open_bucket));
            return;
        }
        let parent = ctx.actor_ref::<Aggregator>(aggregator_key(&self.channel, parent_level));
        for (child_start, agg) in &to_forward {
            let _ = parent.tell(MergeBucket {
                bucket_start_ms: parent_level.bucket_start(*child_start),
                agg: *agg,
            });
        }
        self.state.mutate(|s| s.forwarded_until = open_bucket);
    }
}

impl Actor for Aggregator {
    const TYPE_NAME: &'static str = "shm.aggregator";
    fn declared_calls() -> &'static [aodb_runtime::CallDecl] {
        // Closed buckets roll up to the parent-level aggregator (same
        // type, different key — exempt from runtime enforcement but part
        // of the extracted graph).
        const CALLS: &[aodb_runtime::CallDecl] = &[aodb_runtime::CallDecl::send("shm.aggregator")];
        CALLS
    }

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.load_or_default();
    }

    fn on_deactivate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.flush();
    }
}

impl Handler<RecordSamples> for Aggregator {
    fn handle(&mut self, msg: RecordSamples, ctx: &mut ActorContext<'_>) {
        // Group the batch by bucket first: one state mutation + one
        // roll-up check per bucket touched, not per point. Devices
        // stream in time order, so a batch is normally one run per
        // bucket, in ascending order — exactly what a map would yield.
        // Fold those runs in place; only a batch that steps back to an
        // earlier bucket needs the map to merge and order them.
        let level = self.level;
        let bucket_sorted = msg
            .points
            .windows(2)
            .all(|w| level.bucket_start(w[0].ts_ms) <= level.bucket_start(w[1].ts_ms));
        if !bucket_sorted {
            let mut per_bucket: BTreeMap<u64, Aggregate> = BTreeMap::new();
            for p in &msg.points {
                per_bucket
                    .entry(level.bucket_start(p.ts_ms))
                    .or_default()
                    .record(p.value);
            }
            for (bucket_start, agg) in per_bucket {
                self.absorb(bucket_start, agg, ctx);
            }
            return;
        }
        let mut run: Option<(u64, Aggregate)> = None;
        for p in &msg.points {
            let bucket_start = level.bucket_start(p.ts_ms);
            match &mut run {
                Some((start, agg)) if *start == bucket_start => agg.record(p.value),
                _ => {
                    if let Some((start, agg)) = run.take() {
                        self.absorb(start, agg, ctx);
                    }
                    let mut agg = Aggregate::default();
                    agg.record(p.value);
                    run = Some((bucket_start, agg));
                }
            }
        }
        if let Some((start, agg)) = run {
            self.absorb(start, agg, ctx);
        }
    }
}

impl Handler<MergeBucket> for Aggregator {
    fn handle(&mut self, msg: MergeBucket, ctx: &mut ActorContext<'_>) {
        self.absorb(msg.bucket_start_ms, msg.agg, ctx);
    }
}

impl Handler<QueryAggregates> for Aggregator {
    fn handle(
        &mut self,
        msg: QueryAggregates,
        _ctx: &mut ActorContext<'_>,
    ) -> Vec<(u64, Aggregate)> {
        self.state
            .get()
            .buckets
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

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::test_props::{aggregate, assert_codec_roundtrip};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any aggregator state survives the persistence codec unchanged
        /// (u64 bucket keys included — integer map keys are part of the
        /// codec's contract).
        #[test]
        fn aggregator_state_roundtrips(
            buckets in proptest::collection::vec((any::<u64>(), aggregate()), 0..8),
            forwarded_until in any::<u64>(),
        ) {
            assert_codec_roundtrip(&AggregatorState {
                buckets: buckets.into_iter().collect(),
                forwarded_until,
            });
        }
    }
}
