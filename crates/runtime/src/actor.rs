//! The actor programming model: [`Actor`], [`Message`], [`Handler`], and the
//! per-turn [`ActorContext`].
//!
//! Actors are the unit of modularity in an actor-oriented database: they
//! encapsulate private state and interact only through asynchronous
//! messages. The runtime guarantees *turn-based* execution — at most one
//! message handler runs for a given activation at any time — which is the
//! property that lets application state live in plain (non-`Sync`) Rust
//! structs with no further synchronization.

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use crate::envelope::Envelope;
use crate::error::SendError;
use crate::identity::{ActorId, ActorKey, Origin, SiloId};
use crate::promise::ReplyTo;
use crate::runtime::{ActorRef, Recipient, RuntimeCore};

/// A virtual actor type.
///
/// Implementations hold the actor's encapsulated state as plain fields.
/// The runtime constructs instances on demand through the factory passed to
/// [`crate::Runtime::register`], calls [`Actor::on_activate`] before
/// the first message, and [`Actor::on_deactivate`] when the activation is
/// reclaimed (idle timeout, explicit request, or shutdown) — the hook where
/// persistent actors flush state to storage.
pub trait Actor: Sized + Send + 'static {
    /// Unique registered name of this actor type (e.g. `"shm.channel"`).
    const TYPE_NAME: &'static str;

    /// Statically declared outbound edges: every actor type this one
    /// sends messages to from inside its turns (handlers and lifecycle
    /// hooks), and whether each edge is a blocking
    /// [`CallKind::Call`](crate::CallKind) or an asynchronous
    /// [`CallKind::Send`](crate::CallKind).
    ///
    /// The declarations are the input to the `aodb-analysis` call graph
    /// (which statically rejects synchronous-call cycles — they deadlock
    /// under turn-based execution). The analyser reads them from source,
    /// so each entry is a `CallDecl` constructor with a string-literal
    /// target; an edge it cannot read leaves the matching send site
    /// undeclared, which its drift check reports. In debug builds the
    /// runtime panics when a turn dispatches to an actor type not listed
    /// here. Self-sends need no declaration. The default is no outbound
    /// edges, which suits leaf actors.
    fn declared_calls() -> &'static [crate::CallDecl] {
        &[]
    }

    /// Runs once, as the first turn of a fresh activation.
    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {}

    /// Runs when the activation is reclaimed. State that must survive goes
    /// to the state store here (Orleans' write-on-deactivate policy).
    fn on_deactivate(&mut self, _ctx: &mut ActorContext<'_>) {}
}

/// A message understood by one or more actor types.
pub trait Message: Send + 'static {
    /// The reply produced by handling this message. Use `()` for one-way
    /// notifications.
    type Reply: Send + 'static;
}

/// Handling of message `M` by actor `A`.
pub trait Handler<M: Message>: Actor {
    /// Processes one message as a single turn. Returning the reply value
    /// completes the request; the runtime routes it to the caller's
    /// [`ReplyTo`] sink.
    fn handle(&mut self, msg: M, ctx: &mut ActorContext<'_>) -> M::Reply;
}

/// Object-safe view of an activation's actor instance, so the scheduler can
/// store heterogeneous actors and run lifecycle hooks without knowing the
/// concrete type.
pub(crate) trait AnyActor: Send {
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn activate(&mut self, ctx: &mut ActorContext<'_>);
    fn deactivate(&mut self, ctx: &mut ActorContext<'_>);
}

impl<A: Actor> AnyActor for A {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn activate(&mut self, ctx: &mut ActorContext<'_>) {
        Actor::on_activate(self, ctx);
    }

    fn deactivate(&mut self, ctx: &mut ActorContext<'_>) {
        Actor::on_deactivate(self, ctx);
    }
}

/// Per-turn execution context handed to every handler and lifecycle hook.
///
/// The context is how an actor reaches the rest of the system: it mints
/// references to other actors (messages sent through them originate from
/// this silo, so co-located targets are delivered without simulated network
/// latency), requests its own deactivation, and schedules timers.
pub struct ActorContext<'a> {
    pub(crate) core: &'a Arc<RuntimeCore>,
    pub(crate) id: &'a ActorId,
    pub(crate) silo: SiloId,
    /// The scheduler's flag for this turn, written through so a request
    /// made before a handler panics still counts.
    pub(crate) deactivate_requested: &'a mut bool,
    /// The current turn's reply sink, lent (type-erased) by the envelope
    /// for the duration of the handler so the handler can *take* it via
    /// [`ActorContext::defer_reply`] and resolve it after the turn — the
    /// seam that lets an ingest ack ride a group-commit WAL callback
    /// instead of blocking the turn on an fsync. Points at the
    /// `Option<ReplyTo<M::Reply>>` inside the envelope's own closure: a
    /// turn that replies normally costs no allocation for it.
    pub(crate) reply_slot: Option<&'a mut dyn Any>,
}

impl<'a> ActorContext<'a> {
    pub(crate) fn new(
        core: &'a Arc<RuntimeCore>,
        id: &'a ActorId,
        silo: SiloId,
        deactivate_requested: &'a mut bool,
    ) -> Self {
        ActorContext {
            core,
            id,
            silo,
            deactivate_requested,
            reply_slot: None,
        }
    }

    /// Identity of the actor currently executing.
    pub fn actor_id(&self) -> &ActorId {
        self.id
    }

    /// Key of the actor currently executing.
    pub fn key(&self) -> &ActorKey {
        &self.id.key
    }

    /// The silo this activation lives on.
    pub fn silo(&self) -> SiloId {
        self.silo
    }

    /// Milliseconds since the runtime started — the sanctioned time
    /// source for actor code.
    ///
    /// Turn determinism (DESIGN.md §12) forbids `Instant::now()` /
    /// `SystemTime::now()` inside handlers: replaying a history must
    /// observe the same clock reads, and a runtime-owned clock is the
    /// single point where a future deterministic-replay mode can
    /// substitute recorded timestamps. The `ambient-clock` lint enforces
    /// this; route handler time reads through here.
    pub fn now(&self) -> u64 {
        self.core.now_ms()
    }

    /// Returns a typed reference to actor `key` of type `A`.
    ///
    /// # Panics
    /// Panics if `A` was never registered — that is a wiring bug, not a
    /// runtime condition. Use [`ActorContext::try_actor_ref`] to probe.
    pub fn actor_ref<A: Actor>(&self, key: impl Into<ActorKey>) -> ActorRef<A> {
        self.try_actor_ref(key).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ActorContext::actor_ref`].
    pub fn try_actor_ref<A: Actor>(
        &self,
        key: impl Into<ActorKey>,
    ) -> Result<ActorRef<A>, SendError> {
        self.core
            .typed_ref::<A>(key.into(), Origin::Silo(self.silo))
    }

    /// Type-erased recipient for message `M` (see [`Recipient`]).
    pub fn recipient<A: Actor + Handler<M>, M: Message>(
        &self,
        key: impl Into<ActorKey>,
    ) -> Result<Recipient<M>, SendError> {
        Ok(self.try_actor_ref::<A>(key)?.recipient())
    }

    /// Takes ownership of the current turn's reply sink, deferring the
    /// reply past the end of the turn.
    ///
    /// Normally the runtime delivers the handler's return value to the
    /// caller the moment the turn finishes. A handler that calls
    /// `defer_reply` receives the [`ReplyTo`] itself and the runtime
    /// *discards* the returned value — the actor now owns the ack and
    /// resolves (or drops) it from wherever the real completion happens,
    /// e.g. a group-commit WAL durability callback. The taken sink may
    /// outlive the turn and be resolved from any thread.
    ///
    /// A one-way message still yields `Some(ReplyTo::Ignore)` — deferred
    /// delivery into it is a no-op, so handlers need no special case.
    /// Returns `None` when the turn has no sink of type `R`: the reply
    /// was already taken this turn, this is a lifecycle turn, or `R`
    /// does not match the message's declared `Reply` type (the slot is
    /// left intact in that last case).
    pub fn defer_reply<R: Send + 'static>(&mut self) -> Option<ReplyTo<R>> {
        // A wrong `R` fails the downcast and leaves the sink where it
        // is, so the turn still replies normally.
        self.reply_slot
            .as_mut()?
            .downcast_mut::<Option<ReplyTo<R>>>()?
            .take()
    }

    /// Requests deactivation of this activation once its mailbox drains.
    ///
    /// Mirrors Orleans' `DeactivateOnIdle`: the request takes effect at the
    /// end of a turn with an empty mailbox, at which point
    /// [`Actor::on_deactivate`] runs and the activation is dropped. The next
    /// message to this identity transparently creates a fresh activation.
    pub fn deactivate(&mut self) {
        *self.deactivate_requested = true;
    }

    /// Schedules `msg` to be delivered to this actor after `delay`.
    ///
    /// The delivery counts as a local message (no simulated network hop).
    pub fn notify_self_after<A, M>(&self, msg: M, delay: Duration)
    where
        A: Actor + Handler<M>,
        M: Message,
    {
        let env = Envelope::of::<A, M>(msg, ReplyTo::Ignore);
        self.core.schedule_delayed(self.id.clone(), env, delay);
    }
}
