//! Type-erased message envelopes.
//!
//! An [`Envelope`] packages a typed message, the knowledge of which
//! `Handler` impl processes it, and the reply sink, into a single boxed
//! closure the scheduler can run against a `dyn` actor. The typed-to-erased
//! boundary lives entirely here; everything downstream (mailboxes, silos,
//! the simulated network) moves opaque envelopes.
//!
//! The closure takes a [`Turn`], not the actor directly, so the runtime can
//! consume an envelope in one of two ways without a second allocation:
//! *run* it against the activation, or *abort* it with a typed error (a
//! crashed silo resolving queued requests as
//! [`PromiseError::SiloLost`][crate::PromiseError::SiloLost]).
//!
//! The reply sink never leaves that closure's state. While the turn runs
//! the closure lends it to the [`ActorContext`], so a handler can take it
//! ([`ActorContext::defer_reply`]) without the sink having been boxed a
//! second time for the purpose; and because the envelope itself outlives
//! the scheduler's `catch_unwind`, a sink stranded by a handler panic is
//! dropped only after the scheduler has counted the panic — a caller that
//! sees `Lost` can already see the counter.

use crate::actor::{ActorContext, AnyActor, Handler, Message};
use crate::error::PromiseError;
use crate::promise::ReplyTo;

/// How an envelope is consumed: executed as a turn, or aborted with the
/// reason delivered to its reply sink.
pub(crate) enum Turn<'a> {
    /// Execute the handler against the activation, with this context.
    /// The context is handed over by value so the envelope can lend it
    /// the reply sink for exactly as long as the handler runs.
    Run(&'a mut dyn AnyActor, ActorContext<'a>),
    /// The turn will never run; resolve the reply sink with this error.
    Abort(PromiseError),
}

/// Called once (`FnMut` only so that the sink can stay behind in the
/// closure when a handler unwinds through it).
type RunFn = Box<dyn FnMut(Turn<'_>) + Send>;

/// What kind of turn an envelope triggers; used for scheduling bookkeeping
/// and metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum EnvelopeKind {
    /// The synthetic first turn of a fresh activation (`on_activate`).
    Lifecycle,
    /// An application message.
    User,
}

/// A message on its way to an activation.
pub struct Envelope {
    run: RunFn,
    kind: EnvelopeKind,
    /// Rebuilds a reply-less copy of this envelope, for chaos
    /// duplicate-delivery injection. Only present for envelopes built via
    /// [`Envelope::replayable`] (requires `M: Clone`); the chaos layer
    /// falls back to delivering non-replayable envelopes exactly once.
    replay: Option<Box<dyn Fn() -> Envelope + Send>>,
}

impl Envelope {
    /// Wraps message `msg` for actor type `A`.
    pub fn of<A, M>(msg: M, reply: ReplyTo<M::Reply>) -> Envelope
    where
        A: Handler<M>,
        M: Message,
    {
        let mut msg = Some(msg);
        let mut sink = Some(reply);
        Envelope {
            run: Box::new(move |turn| match turn {
                Turn::Run(actor, mut ctx) => {
                    let Some(msg) = msg.take() else {
                        return; // already ran
                    };
                    let actor = actor
                        .as_any_mut()
                        .downcast_mut::<A>()
                        .expect("envelope executed against wrong actor type");
                    // Lend the sink to the context so the handler may
                    // take it via `ActorContext::defer_reply` and resolve
                    // it after the turn (e.g. from a WAL durability
                    // callback).
                    ctx.reply_slot = Some(&mut sink);
                    let out = actor.handle(msg, &mut ctx);
                    if let Some(reply) = sink.take() {
                        reply.deliver(out);
                    }
                    // Sink gone: the handler deferred the reply; its
                    // returned value is deliberately discarded.
                }
                Turn::Abort(err) => {
                    if let Some(reply) = sink.take() {
                        reply.abort(err);
                    }
                }
            }),
            kind: EnvelopeKind::User,
            replay: None,
        }
    }

    /// Like [`Envelope::of`], but also carries a factory that can rebuild
    /// the envelope from a clone of the message, letting the chaos layer
    /// inject duplicate deliveries. The duplicate is delivered one-way
    /// (its reply is ignored) — at-least-once delivery duplicates the
    /// *effect*, not the response channel.
    pub fn replayable<A, M>(msg: M, reply: ReplyTo<M::Reply>) -> Envelope
    where
        A: Handler<M>,
        M: Message + Clone,
    {
        let copy = msg.clone();
        let mut env = Envelope::of::<A, M>(msg, reply);
        env.replay = Some(Box::new(move || {
            Envelope::of::<A, M>(copy.clone(), ReplyTo::Ignore)
        }));
        env
    }

    /// The synthetic `on_activate` turn enqueued as the first message of
    /// every fresh activation.
    pub(crate) fn lifecycle_activate() -> Envelope {
        Envelope {
            run: Box::new(|turn| {
                if let Turn::Run(actor, mut ctx) = turn {
                    actor.activate(&mut ctx);
                }
            }),
            kind: EnvelopeKind::Lifecycle,
            replay: None,
        }
    }

    pub(crate) fn kind(&self) -> EnvelopeKind {
        self.kind
    }

    /// A reply-less copy of this envelope, when it was built replayable.
    pub(crate) fn try_replay(&self) -> Option<Envelope> {
        self.replay.as_ref().map(|f| f())
    }

    /// Executes the turn. If the handler panics the envelope is left
    /// holding the undelivered sink; dropping the envelope drops it.
    pub(crate) fn run(&mut self, actor: &mut dyn AnyActor, ctx: ActorContext<'_>) {
        (self.run)(Turn::Run(actor, ctx));
    }

    /// Resolves the envelope's reply sink with `err` without running the
    /// handler (crashed silo, dropped message).
    pub(crate) fn abort(mut self, err: PromiseError) {
        (self.run)(Turn::Abort(err));
    }
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("kind", &self.kind)
            .field("replayable", &self.replay.is_some())
            .finish()
    }
}
