//! Persistent actor state: the AODB analogue of Orleans' grain state
//! storage (`WriteStateAsync`, write-on-deactivate, read-on-activate).
//!
//! An actor embeds a [`Persisted<S>`] field wrapping its durable state.
//! `load()` (from `on_activate`) pulls the latest state from the store;
//! mutations go through [`Persisted::mutate`], which applies the configured
//! [`WritePolicy`]; `flush()` (from `on_deactivate`) writes back dirty
//! state. The paper discusses exactly this policy space in Section 5:
//! structural entities want immediate durability, sensor data collects a
//! window of updates before forcing them to storage (200 writes/s to the
//! cloud store otherwise).

use std::sync::Arc;

use aodb_runtime::{ActorId, ActorKey};
use aodb_store::{codec, Key, StateStore, StoreError, StoreResult};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Marker for state types storable by [`Persisted`].
pub trait PersistentState: Serialize + DeserializeOwned + Default + Send + 'static {}

impl<T: Serialize + DeserializeOwned + Default + Send + 'static> PersistentState for T {}

/// When dirty state is written back to the store.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WritePolicy {
    /// Write after every mutation (structural entities: organizations,
    /// sensors, projects — the paper's "immediately durable" class).
    EveryChange,
    /// Write after every `n` mutations (windowed sensor ingest).
    EveryN(u32),
    /// Write only when the activation deactivates (the paper's benchmark
    /// configuration: "upload ... only ... when the Orleans silo service
    /// is shut down").
    #[default]
    OnDeactivate,
}

/// Bounded retry/backoff for persistence writes.
///
/// The default stays **single-attempt** — every failed save is recorded,
/// never amplified — matching the paper's "failed cloud write, retry at
/// the next policy trigger" stance. Chaos configurations opt into retries
/// to ride out seeded error bursts; retries never apply to
/// [`StoreError::Codec`] failures (deterministic — retrying cannot help).
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per save (1 = no retry).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub initial_backoff: std::time::Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: std::time::Duration,
    /// Shared counter bumped once per *retry* (attempts beyond the first),
    /// typically the runtime's `persist_retries` metric.
    pub counter: Option<Arc<std::sync::atomic::AtomicU64>>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// Single attempt, no retries (the default).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            initial_backoff: std::time::Duration::ZERO,
            max_backoff: std::time::Duration::ZERO,
            counter: None,
        }
    }

    /// `max_attempts` total attempts with `initial_backoff` doubling up to
    /// 16× between them.
    pub fn attempts(max_attempts: u32, initial_backoff: std::time::Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            initial_backoff,
            max_backoff: initial_backoff * 16,
            counter: None,
        }
    }

    /// Reports retries into `counter` (e.g. the runtime's `persist_retries`
    /// metric).
    pub fn with_counter(mut self, counter: Arc<std::sync::atomic::AtomicU64>) -> Self {
        self.counter = Some(counter);
        self
    }
}

/// Storage key namespace for actor state blobs.
const STATE_NAMESPACE: &str = "actor-state";

/// Builds the storage key for an actor's state blob.
pub fn state_key(type_name: &str, key: &ActorKey) -> Key {
    Key::with_sort(STATE_NAMESPACE, type_name, &key.as_display())
}

/// Builds the storage key from a full [`ActorId`] using the registered
/// type name.
pub fn state_key_for(type_name: &str, id: &ActorId) -> Key {
    state_key(type_name, &id.key)
}

/// A durable state cell embedded in an actor.
pub struct Persisted<S: PersistentState> {
    state: S,
    key: Key,
    store: Arc<dyn StateStore>,
    policy: WritePolicy,
    dirty: bool,
    mutations_since_save: u32,
    /// Save attempts that failed (throttling, I/O); the actor keeps running
    /// on in-memory state, mirroring a failed cloud write with retry left
    /// to the next policy trigger.
    save_errors: u64,
    last_error: Option<StoreError>,
    retry: RetryPolicy,
}

impl<S: PersistentState> Persisted<S> {
    /// Creates the cell with `S::default()` state. Call
    /// [`Persisted::load`] from `on_activate` before first use.
    pub fn new(store: Arc<dyn StateStore>, key: Key, policy: WritePolicy) -> Self {
        Persisted {
            state: S::default(),
            key,
            store,
            policy,
            dirty: false,
            mutations_since_save: 0,
            save_errors: 0,
            last_error: None,
            retry: RetryPolicy::none(),
        }
    }

    /// Installs a bounded retry/backoff policy for saves. The default is
    /// single-attempt; see [`RetryPolicy`].
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Convenience: cell keyed by actor type name + key.
    pub fn for_actor(
        store: Arc<dyn StateStore>,
        type_name: &str,
        key: &ActorKey,
        policy: WritePolicy,
    ) -> Self {
        Persisted::new(store, state_key(type_name, key), policy)
    }

    /// Loads existing state from the store, replacing the in-memory value.
    /// Returns `true` when stored state existed.
    pub fn load(&mut self) -> StoreResult<bool> {
        match self.store.get(&self.key)? {
            Some(bytes) => {
                self.state = codec::decode_state(&bytes)?;
                self.dirty = false;
                self.mutations_since_save = 0;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Like [`Persisted::load`] but records failures instead of
    /// propagating them, for use in `on_activate` hooks that cannot fail.
    pub fn load_or_default(&mut self) -> bool {
        match self.load() {
            Ok(found) => found,
            Err(e) => {
                self.save_errors += 1;
                self.last_error = Some(e);
                false
            }
        }
    }

    /// Read access to the state.
    pub fn get(&self) -> &S {
        &self.state
    }

    /// Mutates the state, then applies the write policy.
    pub fn mutate<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        let out = f(&mut self.state);
        self.dirty = true;
        self.mutations_since_save += 1;
        self.apply_policy();
        out
    }

    fn apply_policy(&mut self) {
        let should_save = match self.policy {
            WritePolicy::EveryChange => true,
            WritePolicy::EveryN(n) => self.mutations_since_save >= n.max(1),
            WritePolicy::OnDeactivate => false,
        };
        if should_save {
            if let Err(e) = self.save() {
                self.save_errors += 1;
                self.last_error = Some(e);
            }
        }
    }

    /// Forces a write of the current state (Orleans `WriteStateAsync`),
    /// applying the configured [`RetryPolicy`] on transient failures.
    pub fn save(&mut self) -> StoreResult<()> {
        self.save_impl(false)
    }

    fn save_impl(&mut self, deferred: bool) -> StoreResult<()> {
        let bytes = codec::encode_state(&self.state)?;
        let mut backoff = self.retry.initial_backoff;
        let mut attempt = 1u32;
        loop {
            let res = if deferred {
                self.store.put_deferred(&self.key, bytes.clone())
            } else {
                self.store.put(&self.key, bytes.clone())
            };
            match res {
                Ok(()) => {
                    self.dirty = false;
                    self.mutations_since_save = 0;
                    return Ok(());
                }
                // Codec errors are deterministic; retrying cannot help.
                Err(e @ StoreError::Codec(_)) => return Err(e),
                Err(e) => {
                    if attempt >= self.retry.max_attempts {
                        return Err(e);
                    }
                    attempt += 1;
                    if let Some(counter) = &self.retry.counter {
                        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff.min(self.retry.max_backoff));
                        backoff = backoff.saturating_mul(2);
                    }
                }
            }
        }
    }

    /// Writes back dirty state, recording (not propagating) failures. The
    /// `on_deactivate` entry point.
    ///
    /// Uses [`StateStore::put_deferred`], the write-coalescing half of the
    /// deactivation sweep: the put skips its individual durability barrier
    /// and the runtime's `on_deactivation_sweep` hook issues one `sync()`
    /// covering the whole batch of flushed actors. On plain stores
    /// `put_deferred` degrades to `put`, so `flush` is never *less*
    /// durable than before — only cheaper when sweeps are wired up.
    pub fn flush(&mut self) {
        if !self.dirty {
            return;
        }
        if let Err(e) = self.save_impl(true) {
            self.save_errors += 1;
            self.last_error = Some(e);
        }
    }

    /// Deletes the stored state (entity removal).
    pub fn clear_storage(&mut self) -> StoreResult<()> {
        self.store.delete(&self.key)?;
        self.dirty = false;
        Ok(())
    }

    /// Whether in-memory state has unsaved mutations.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Number of failed save/load attempts.
    pub fn save_errors(&self) -> u64 {
        self.save_errors
    }

    /// Last storage error, if any.
    pub fn last_error(&self) -> Option<&StoreError> {
        self.last_error.as_ref()
    }

    /// The storage key of this cell.
    pub fn storage_key(&self) -> &Key {
        &self.key
    }

    /// The configured write policy.
    pub fn policy(&self) -> WritePolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aodb_store::{ExhaustionBehavior, MemStore, ProvisionedConfig, ProvisionedStore};
    use serde::Deserialize;
    use std::time::Duration;

    #[derive(Serialize, Deserialize, Default, PartialEq, Debug)]
    struct Temperature {
        readings: Vec<f64>,
        alerts: u32,
    }

    fn cell(store: &Arc<dyn StateStore>, policy: WritePolicy) -> Persisted<Temperature> {
        Persisted::new(Arc::clone(store), Key::new("test", "t1"), policy)
    }

    #[test]
    fn load_before_any_save_returns_default() {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let mut p = cell(&store, WritePolicy::OnDeactivate);
        assert!(!p.load().unwrap());
        assert_eq!(p.get(), &Temperature::default());
    }

    #[test]
    fn every_change_policy_saves_immediately() {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let mut p = cell(&store, WritePolicy::EveryChange);
        p.mutate(|s| s.readings.push(21.5));
        assert!(!p.is_dirty());

        let mut fresh = cell(&store, WritePolicy::EveryChange);
        assert!(fresh.load().unwrap());
        assert_eq!(fresh.get().readings, vec![21.5]);
    }

    #[test]
    fn on_deactivate_policy_saves_only_on_flush() {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let mut p = cell(&store, WritePolicy::OnDeactivate);
        p.mutate(|s| s.alerts = 3);
        assert!(p.is_dirty());

        let mut fresh = cell(&store, WritePolicy::OnDeactivate);
        assert!(!fresh.load().unwrap(), "nothing saved yet");

        p.flush();
        assert!(!p.is_dirty());
        assert!(fresh.load().unwrap());
        assert_eq!(fresh.get().alerts, 3);
    }

    #[test]
    fn every_n_policy_batches_writes() {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let mut p = cell(&store, WritePolicy::EveryN(5));
        for i in 0..4 {
            p.mutate(|s| s.readings.push(i as f64));
        }
        let mut fresh = cell(&store, WritePolicy::OnDeactivate);
        assert!(!fresh.load().unwrap(), "4 < 5: no write yet");
        p.mutate(|s| s.readings.push(4.0));
        assert!(fresh.load().unwrap(), "5th mutation triggers the write");
        assert_eq!(fresh.get().readings.len(), 5);
    }

    #[test]
    fn flush_is_noop_when_clean() {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let mut p = cell(&store, WritePolicy::OnDeactivate);
        p.flush();
        let mut fresh = cell(&store, WritePolicy::OnDeactivate);
        assert!(!fresh.load().unwrap());
    }

    #[test]
    fn throttled_save_is_recorded_not_fatal() {
        let throttling = ProvisionedStore::new(
            MemStore::new(),
            ProvisionedConfig {
                read_units: 100,
                write_units: 1,
                burst_seconds: 1.0,
                on_exhausted: ExhaustionBehavior::Throttle,
                request_latency: Duration::ZERO,
            },
        );
        let store: Arc<dyn StateStore> = Arc::new(throttling);
        let mut p = cell(&store, WritePolicy::EveryChange);
        // Burn the burst, then keep mutating: saves fail but state advances.
        for i in 0..30 {
            p.mutate(|s| s.readings.push(i as f64));
        }
        assert_eq!(p.get().readings.len(), 30);
        assert!(p.save_errors() > 0);
        assert!(matches!(p.last_error(), Some(StoreError::Throttled)));
    }

    #[test]
    fn clear_storage_removes_blob() {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let mut p = cell(&store, WritePolicy::EveryChange);
        p.mutate(|s| s.alerts = 1);
        p.clear_storage().unwrap();
        let mut fresh = cell(&store, WritePolicy::OnDeactivate);
        assert!(!fresh.load().unwrap());
    }

    #[test]
    fn retry_policy_rides_out_transient_failures() {
        use aodb_store::ChaosStore;
        use std::sync::atomic::{AtomicU64, Ordering};

        // Fails exactly the first N attempts, then heals.
        struct FlakyUntil {
            inner: MemStore,
            remaining: AtomicU64,
        }
        impl StateStore for FlakyUntil {
            fn get(&self, key: &Key) -> aodb_store::StoreResult<Option<aodb_store::Bytes>> {
                self.inner.get(key)
            }
            fn put(&self, key: &Key, value: aodb_store::Bytes) -> StoreResult<()> {
                if self
                    .remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    return Err(StoreError::Io("transient".into()));
                }
                self.inner.put(key, value)
            }
            fn delete(&self, key: &Key) -> StoreResult<()> {
                self.inner.delete(key)
            }
            fn scan_prefix(&self, prefix: &[u8]) -> StoreResult<Vec<(Key, aodb_store::Bytes)>> {
                self.inner.scan_prefix(prefix)
            }
        }

        let store: Arc<dyn StateStore> = Arc::new(FlakyUntil {
            inner: MemStore::new(),
            remaining: AtomicU64::new(2),
        });
        let retries = Arc::new(AtomicU64::new(0));
        let mut p = cell(&store, WritePolicy::EveryChange).with_retry(
            RetryPolicy::attempts(3, Duration::ZERO).with_counter(Arc::clone(&retries)),
        );
        p.mutate(|s| s.alerts = 7);
        // Two failures absorbed by retries; the third attempt landed.
        assert_eq!(p.save_errors(), 0);
        assert_eq!(retries.load(Ordering::SeqCst), 2);
        let mut fresh = cell(&store, WritePolicy::OnDeactivate);
        assert!(fresh.load().unwrap());
        assert_eq!(fresh.get().alerts, 7);

        // Exhausted retries surface as a recorded error, not a panic, and
        // the attempt count is bounded by the policy.
        let chaos = Arc::new(ChaosStore::manual(MemStore::new()));
        chaos.fail_writes(true);
        let chaos_dyn: Arc<dyn StateStore> = Arc::clone(&chaos) as Arc<dyn StateStore>;
        let mut q: Persisted<Temperature> = Persisted::new(
            Arc::clone(&chaos_dyn),
            Key::new("test", "t2"),
            WritePolicy::EveryChange,
        )
        .with_retry(RetryPolicy::attempts(3, Duration::ZERO));
        q.mutate(|s| s.alerts = 1);
        assert_eq!(q.save_errors(), 1);
        assert_eq!(chaos.write_attempts(), 3, "bounded by max_attempts");
    }

    #[test]
    fn state_keys_isolate_types_and_keys() {
        let k1 = state_key("shm.sensor", &ActorKey::from(1u64));
        let k2 = state_key("shm.sensor", &ActorKey::from(2u64));
        let k3 = state_key("shm.channel", &ActorKey::from(1u64));
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
    }
}
