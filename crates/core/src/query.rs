//! Multi-actor queries: key registries and scatter/gather broadcasts.
//!
//! AODBs lack full declarative multi-actor querying (the paper is explicit
//! about this, deferring complex analytics to a warehouse); what the online
//! platform needs is (a) knowing *which* actors of a type exist — the
//! runtime directory only tracks currently-active ones — and (b) fanning a
//! query out over a set of actors and gathering the replies. [`KeyRegistry`]
//! actors provide (a) as persistent membership lists; [`broadcast`]
//! provides (b) on top of [`aodb_runtime::Collector`].

use std::collections::BTreeSet;
use std::sync::Arc;

use aodb_runtime::{
    gather, Actor, ActorContext, Handler, Message, Promise, Recipient, Runtime, SendError,
};
use aodb_store::StateStore;
use serde::{Deserialize, Serialize};

use crate::persist::{Persisted, WritePolicy};

/// Adds a key to the registry.
#[derive(Clone, Debug)]
pub struct RegisterKey(pub String);
impl Message for RegisterKey {
    type Reply = ();
}

/// Removes a key from the registry.
#[derive(Clone, Debug)]
pub struct UnregisterKey(pub String);
impl Message for UnregisterKey {
    type Reply = ();
}

/// Lists all registered keys.
#[derive(Clone, Copy, Debug)]
pub struct ListKeys;
impl Message for ListKeys {
    type Reply = Vec<String>;
}

/// Number of registered keys.
#[derive(Clone, Copy, Debug)]
pub struct CountKeys;
impl Message for CountKeys {
    type Reply = usize;
}

#[derive(Default, Serialize, Deserialize)]
struct RegistryState {
    keys: BTreeSet<String>,
}

/// A persistent membership list, typically one per actor type or per
/// tenant-scoped collection (e.g. `"cows-of:farm-12"`).
pub struct KeyRegistry {
    state: Persisted<RegistryState>,
}

impl KeyRegistry {
    /// Registers the registry actor type backed by `store`.
    pub fn register(rt: &Runtime, store: Arc<dyn StateStore>) {
        rt.register(move |id| KeyRegistry {
            state: Persisted::for_actor(
                Arc::clone(&store),
                Self::TYPE_NAME,
                &id.key,
                WritePolicy::EveryChange,
            ),
        });
    }
}

impl Actor for KeyRegistry {
    const TYPE_NAME: &'static str = "aodb.key-registry";

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.load_or_default();
    }

    fn on_deactivate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.flush();
    }
}

impl Handler<RegisterKey> for KeyRegistry {
    fn handle(&mut self, msg: RegisterKey, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| s.keys.insert(msg.0));
    }
}

impl Handler<UnregisterKey> for KeyRegistry {
    fn handle(&mut self, msg: UnregisterKey, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| s.keys.remove(&msg.0));
    }
}

impl Handler<ListKeys> for KeyRegistry {
    fn handle(&mut self, _msg: ListKeys, _ctx: &mut ActorContext<'_>) -> Vec<String> {
        self.state.get().keys.iter().cloned().collect()
    }
}

impl Handler<CountKeys> for KeyRegistry {
    fn handle(&mut self, _msg: CountKeys, _ctx: &mut ActorContext<'_>) -> usize {
        self.state.get().keys.len()
    }
}

/// Sends `msg` to every recipient and gathers all replies (unordered).
///
/// External clients `wait()` on the promise; actors pass a collector slot
/// of their own instead — see [`aodb_runtime::Collector`].
pub fn broadcast<M>(
    recipients: &[Recipient<M>],
    msg: M,
) -> Result<Promise<Vec<M::Reply>>, SendError>
where
    M: Message + Clone,
{
    let (collector, promise) = gather(recipients.len());
    for recipient in recipients {
        recipient.ask_with(msg.clone(), collector.slot())?;
    }
    Ok(promise)
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::test_props::{assert_codec_roundtrip, key};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any key-registry state survives the persistence codec
        /// unchanged.
        #[test]
        fn registry_state_roundtrips(
            keys in proptest::collection::vec(key(), 0..8),
        ) {
            assert_codec_roundtrip(&RegistryState {
                keys: keys.into_iter().collect(),
            });
        }
    }
}
