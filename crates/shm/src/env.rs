//! Shared construction environment for the SHM actor factories.

use std::sync::Arc;

use aodb_core::{Persisted, PersistentState, WritePolicy};
use aodb_runtime::ActorKey;
use aodb_store::tseries::{SeriesStore, TsConfig, TsStore};
use aodb_store::StateStore;

/// Everything an SHM actor factory needs: the state store and the series
/// store that holds every channel's data.
///
/// Every SHM state blob is saved on every change
/// ([`WritePolicy::EveryChange`]). None of them changes per ingest: a
/// channel's points, stats and dedup watermarks commit through
/// [`ShmEnv::series`], and aggregate buckets are a cache of the series.
/// What is left — structure, channel configuration, alert logs — changes
/// rarely, so the paper's deactivation-time saving (Section 5) would buy
/// nothing and lose it all to a silo kill.
#[derive(Clone)]
pub struct ShmEnv {
    /// The grain-state store (the DynamoDB role).
    pub store: Arc<dyn StateStore>,
    /// Simulated per-ingest service time.
    ///
    /// The reproduction's stand-in for server CPU capacity: the paper's
    /// silos run on m5 instances whose vCPUs bound ingest throughput at
    /// ~1,800 requests/s. On arbitrary (possibly single-core) reproduction
    /// hardware we model that budget by having the worker *sleep* this
    /// long inside each `Ingest` turn — occupying the worker exactly as
    /// CPU work would, without consuming host CPU, so multi-silo scaling
    /// behaves like the paper's cluster. `None` (the default) disables the
    /// simulation; the benchmark harness enables it.
    pub ingest_service_time: Option<std::time::Duration>,
    /// The one home of every channel's data: each `Ingest` (and each
    /// derived batch of a virtual channel) appends its points together
    /// with the channel's side-car — running stats, alert hysteresis,
    /// dedup watermarks — as series metadata, and range queries scan the
    /// series. Physical channels hand their `Ingest` reply to the engine
    /// ([`SeriesStore::append_batch_async`]), which resolves it when the
    /// append is durable: inside the call for an engine that commits on
    /// append, on the WAL committer thread for a [`TsStore::with_wal`]
    /// instance.
    pub series: Arc<dyn SeriesStore>,
    /// Read by nothing: whether acks are deferred is the engine's
    /// decision (see [`ShmEnv::series`]). The field survives only
    /// because `benchmark/src/system.rs` assigns it; delete both
    /// together.
    #[doc(hidden)]
    pub deferred_acks: bool,
}

impl ShmEnv {
    /// The configuration used by the paper's experiments: channel data
    /// in a [`TsStore`] over the same store that commits every append as
    /// it is made (see [`TsStore::new`]).
    pub fn paper_default(store: Arc<dyn StateStore>) -> Self {
        ShmEnv {
            series: Arc::new(TsStore::new(Arc::clone(&store), TsConfig::default())),
            store,
            ingest_service_time: None,
            deferred_acks: false,
        }
    }

    /// Keeps channel data in `series` (see [`ShmEnv::series`]), e.g. a
    /// [`TsStore::with_wal`] instance for acks on the group-commit clock.
    pub fn with_series_store(mut self, series: Arc<dyn SeriesStore>) -> Self {
        self.series = series;
        self
    }

    /// Sets the simulated per-ingest service time (see
    /// [`ShmEnv::ingest_service_time`]).
    pub fn with_service_time(mut self, d: std::time::Duration) -> Self {
        self.ingest_service_time = Some(d);
        self
    }

    /// The state cell of actor `key` of type `type_name`, saved on every
    /// change.
    pub fn persisted<S: PersistentState>(&self, type_name: &str, key: &ActorKey) -> Persisted<S> {
        Persisted::for_actor(
            Arc::clone(&self.store),
            type_name,
            key,
            WritePolicy::EveryChange,
        )
    }
}
