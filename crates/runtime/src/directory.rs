//! Cluster-wide actor directory.
//!
//! Maps each [`ActorId`] to its single current activation, guaranteeing the
//! virtual-actor invariant that at most one activation exists per identity.
//! This is our stand-in for Orleans' distributed directory plus the RDS
//! membership tables from the paper's deployment (Section 6.1); being
//! in-process it is strongly consistent by construction.
//!
//! The map is sharded by identity hash to keep lock contention negligible
//! under the benchmark's multi-million-dispatch load. An identity is
//! hashed once per operation: [`ActorId::stable_hash`] picks the shard,
//! and the shard's map is keyed by that same value through a pass-through
//! hasher instead of hashing the key a second time with SipHash. Equality
//! is still decided on the full [`ActorId`], so colliding hashes only
//! share a bucket.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::identity::ActorId;
use crate::silo::Activation;

const SHARD_COUNT: usize = 64;

/// A stored key: the identity and its stable hash, computed at insert.
struct Slot {
    hash: u64,
    id: ActorId,
}

/// What a lookup presents: the same pair, borrowed, so probing the map
/// clones nothing. `Slot` borrows as this (the `Borrow` contract: both
/// forms hash and compare alike).
trait Probe {
    fn stable_hash(&self) -> u64;
    fn id(&self) -> &ActorId;
}

impl Probe for Slot {
    fn stable_hash(&self) -> u64 {
        self.hash
    }
    fn id(&self) -> &ActorId {
        &self.id
    }
}

impl Probe for (u64, &ActorId) {
    fn stable_hash(&self) -> u64 {
        self.0
    }
    fn id(&self) -> &ActorId {
        self.1
    }
}

impl<'a> Borrow<dyn Probe + 'a> for Slot {
    fn borrow(&self) -> &(dyn Probe + 'a) {
        self
    }
}

impl Hash for dyn Probe + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.stable_hash());
    }
}

impl PartialEq for dyn Probe + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.id() == other.id()
    }
}

impl Eq for dyn Probe + '_ {}

impl Hash for Slot {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Slot {}

/// Hands the map the `u64` it is given: the keys arrive hashed.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("directory keys hash as one u64");
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type Shard = RwLock<HashMap<Slot, Arc<Activation>, BuildHasherDefault<PassThrough>>>;

/// Sharded `ActorId → Arc<Activation>` map.
pub(crate) struct Directory {
    shards: Vec<Shard>,
}

impl Directory {
    pub fn new() -> Self {
        Directory {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::default()))
                .collect(),
        }
    }

    /// The shard of `id` and the hash to probe it with.
    fn shard(&self, id: &ActorId) -> (&Shard, u64) {
        // Use bits 48.. for the shard: the lower bits drive placement
        // modulo (and the map's bucket index), the top seven its control
        // bytes; reusing either would correlate them with the shard.
        let h = id.stable_hash();
        (&self.shards[(h >> 48) as usize % SHARD_COUNT], h)
    }

    /// Fast-path lookup.
    pub fn get(&self, id: &ActorId) -> Option<Arc<Activation>> {
        let (shard, hash) = self.shard(id);
        let found = shard.read().get(&(hash, id) as &dyn Probe).cloned();
        found
    }

    /// Returns the existing activation or inserts the one produced by
    /// `create`. The boolean is `true` when `create` ran and its result was
    /// inserted (the caller must then schedule the fresh activation).
    pub fn get_or_insert_with(
        &self,
        id: &ActorId,
        create: impl FnOnce() -> Arc<Activation>,
    ) -> (Arc<Activation>, bool) {
        let (shard, hash) = self.shard(id);
        let probe = &(hash, id) as &dyn Probe;
        if let Some(existing) = shard.read().get(probe) {
            return (Arc::clone(existing), false);
        }
        let mut guard = shard.write();
        if let Some(existing) = guard.get(probe) {
            return (Arc::clone(existing), false);
        }
        let act = create();
        let slot = Slot {
            hash,
            id: id.clone(),
        };
        guard.insert(slot, Arc::clone(&act));
        (act, true)
    }

    /// Removes the mapping for `id` only if it still points at `act`.
    ///
    /// The pointer check matters: between a sender observing a retired
    /// mailbox and calling this, a fresh activation may already have been
    /// installed, and blindly removing it would orphan live state.
    ///
    /// Only a retired activation leaves the directory. References rely on
    /// it: an activation they remember is current for as long as its
    /// mailbox takes pushes.
    pub fn remove_entry(&self, id: &ActorId, act: &Arc<Activation>) {
        debug_assert!(
            act.mailbox.is_retired(),
            "activation {id} unlinked before its mailbox retired"
        );
        let (shard, hash) = self.shard(id);
        let probe = &(hash, id) as &dyn Probe;
        let mut guard = shard.write();
        if guard
            .get(probe)
            .is_some_and(|current| Arc::ptr_eq(current, act))
        {
            guard.remove(probe);
        }
    }

    /// Number of live activations.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when any activation's mailbox is non-quiescent (queued work or
    /// a turn in flight). Early-exits per shard without allocating — this
    /// is the quiesce loop's poll, which previously cloned every `Arc` in
    /// the directory every 2 ms via [`Directory::collect_all`].
    pub fn any_busy(&self) -> bool {
        self.shards
            .iter()
            .any(|shard| shard.read().values().any(|act| !act.mailbox.is_quiescent()))
    }

    /// Snapshot of all activations (janitor scans, shutdown draining).
    pub fn collect_all(&self) -> Vec<Arc<Activation>> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(shard.read().values().cloned());
        }
        out
    }

    /// Snapshot of all activations hosted on `silo` (crash eviction).
    pub fn collect_on_silo(&self, silo: crate::identity::SiloId) -> Vec<Arc<Activation>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .read()
                    .values()
                    .filter(|act| act.silo == silo)
                    .cloned(),
            );
        }
        out
    }

    /// Activations whose last activity predates `cutoff_ms` (runtime-relative
    /// milliseconds), i.e. candidates for idle deactivation.
    pub fn collect_idle(&self, cutoff_ms: u64) -> Vec<Arc<Activation>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for act in shard.read().values() {
                if act.last_activity_ms() <= cutoff_ms {
                    out.push(Arc::clone(act));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::{ActorKey, ActorTypeId};

    #[test]
    fn equal_hashes_still_compare_by_identity() {
        let id = |k: &str| ActorId::new(ActorTypeId::from_raw(1), ActorKey::from(k));
        let mut map: HashMap<Slot, u32, BuildHasherDefault<PassThrough>> = HashMap::default();
        // Two identities forced onto one hash value share a bucket and
        // nothing else.
        for (n, key) in ["a", "b"].into_iter().enumerate() {
            let slot = Slot {
                hash: 7,
                id: id(key),
            };
            assert!(map.insert(slot, n as u32).is_none());
        }
        assert_eq!(map.get(&(7u64, &id("a")) as &dyn Probe), Some(&0));
        assert_eq!(map.get(&(7u64, &id("b")) as &dyn Probe), Some(&1));
        assert_eq!(map.get(&(7u64, &id("c")) as &dyn Probe), None);
        assert_eq!(map.remove(&(7u64, &id("a")) as &dyn Probe), Some(0));
        assert_eq!(map.len(), 1);
    }
}
