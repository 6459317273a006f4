//! Shared construction environment for the cattle actor factories.

use std::sync::Arc;

use aodb_core::{Persisted, PersistentState, WritePolicy};
use aodb_runtime::ActorKey;
use aodb_store::StateStore;

/// The store handed to every cattle actor factory. Registry data
/// (ownership, provenance) is written on every change; a cow's collar
/// stream, the one high-rate class, is written when the cow deactivates.
#[derive(Clone)]
pub struct CattleEnv {
    /// The grain-state store.
    pub store: Arc<dyn StateStore>,
}

impl CattleEnv {
    /// The environment over `store`.
    pub fn new(store: Arc<dyn StateStore>) -> Self {
        CattleEnv { store }
    }

    /// Persisted cell for registry/provenance state, written on every
    /// change.
    pub fn persisted_registry<S: PersistentState>(
        &self,
        type_name: &str,
        key: &ActorKey,
    ) -> Persisted<S> {
        Persisted::for_actor(
            Arc::clone(&self.store),
            type_name,
            key,
            WritePolicy::EveryChange,
        )
    }

    /// Persisted cell for collar-stream state, written on deactivation.
    pub fn persisted_stream<S: PersistentState>(
        &self,
        type_name: &str,
        key: &ActorKey,
    ) -> Persisted<S> {
        Persisted::for_actor(
            Arc::clone(&self.store),
            type_name,
            key,
            WritePolicy::OnDeactivate,
        )
    }
}
