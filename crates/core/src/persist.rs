//! Persistent actor state: the AODB analogue of Orleans' grain state
//! storage (`WriteStateAsync`, write-on-deactivate, read-on-activate).
//!
//! An actor embeds a [`Persisted<S>`] field wrapping its durable state.
//! `load()` (from `on_activate`) pulls the latest state from the store;
//! mutations go through [`Persisted::mutate`], which applies the configured
//! [`WritePolicy`]; `flush()` (from `on_deactivate`) writes back dirty
//! state. The paper discusses exactly this policy space in Section 5:
//! structural entities want immediate durability, data-bearing state is
//! written when the activation deactivates (200 writes/s to the cloud
//! store otherwise). Channel points do not pass through here: they go to
//! the series engine.

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
    /// Write only when the activation deactivates (the paper's benchmark
    /// configuration: "upload ... only ... when the Orleans silo service
    /// is shut down").
    #[default]
    OnDeactivate,
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
    /// Save attempts that failed (throttling, I/O); the actor keeps running
    /// on in-memory state, mirroring a failed cloud write with retry left
    /// to the next policy trigger.
    save_errors: u64,
    last_error: Option<StoreError>,
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
            save_errors: 0,
            last_error: None,
        }
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
        if self.policy == WritePolicy::EveryChange {
            if let Err(e) = self.save() {
                self.save_errors += 1;
                self.last_error = Some(e);
            }
        }
        out
    }

    /// Forces a write of the current state (Orleans `WriteStateAsync`).
    /// One attempt: a failure is returned, and the next policy trigger
    /// writes again.
    pub fn save(&mut self) -> StoreResult<()> {
        self.save_impl(false)
    }

    fn save_impl(&mut self, deferred: bool) -> StoreResult<()> {
        let bytes = codec::encode_state(&self.state)?;
        if deferred {
            self.store.put_deferred(&self.key, bytes)?;
        } else {
            self.store.put(&self.key, bytes)?;
        }
        self.dirty = false;
        Ok(())
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
    fn state_keys_isolate_types_and_keys() {
        let k1 = state_key("shm.sensor", &ActorKey::from(1u64));
        let k2 = state_key("shm.sensor", &ActorKey::from(2u64));
        let k3 = state_key("shm.channel", &ActorKey::from(1u64));
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
    }
}
