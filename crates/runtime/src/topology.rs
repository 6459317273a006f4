//! Static call-topology declarations.
//!
//! Every actor type declares its outbound message edges up front via
//! [`crate::Actor::declared_calls`]: which actor types it sends to, and
//! whether an edge is a *synchronous* call (the sender blocks its turn on
//! the reply) or an *asynchronous* send (`tell` / `ask_with` into a
//! [`crate::Collector`] slot — the turn completes without waiting).
//!
//! The distinction matters because turn-based execution makes cycles of
//! synchronous calls deadlock: if actor A blocks its only turn waiting on
//! B, and B (transitively) calls back into A, the reply can never be
//! processed — the classic reentrancy deadlock of non-reentrant actor
//! systems. Declarations make the call graph a static artifact: the
//! `aodb-analysis` crate parses them out of the source and checks the
//! graph (Tarjan SCC over `Call` edges) without compiling or running the
//! system, and debug builds enforce them at dispatch time (see
//! [`TurnGuard`] and the check in `runtime.rs`).

use std::cell::Cell;

use crate::identity::ActorTypeId;

/// How an outbound edge is driven.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CallKind {
    /// Synchronous request/response: the sending turn blocks on the
    /// reply (`call`, or `ask` + immediate `wait`). Cycles of `Call`
    /// edges deadlock and are rejected by `aodb-lint`.
    Call,
    /// Asynchronous send: `tell`, or `ask_with` routing the reply to a
    /// [`crate::Collector`] slot or another mailbox. Never blocks the
    /// sending turn, so cycles of `Send` edges are safe.
    Send,
}

/// One declared outbound edge: this actor type messages `to`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CallDecl {
    /// `TYPE_NAME` of the target actor type.
    pub to: &'static str,
    /// Whether the edge blocks the sending turn.
    pub kind: CallKind,
}

impl CallDecl {
    /// Wildcard target for infrastructure actors that message
    /// caller-supplied [`crate::Recipient`]s (2PC coordinators, workflow
    /// engines): the concrete actor type is chosen by whoever built the
    /// recipient, so it cannot be named statically. Wildcard edges show up
    /// as a synthetic `(any)` node in the extracted call graph, and a
    /// wildcard `Call` edge is treated as potentially cyclic by the lint.
    pub const ANY: &'static str = "*";

    /// A synchronous-call edge to actor type `to`.
    pub const fn call(to: &'static str) -> Self {
        CallDecl {
            to,
            kind: CallKind::Call,
        }
    }

    /// An asynchronous-send edge to actor type `to`.
    pub const fn send(to: &'static str) -> Self {
        CallDecl {
            to,
            kind: CallKind::Send,
        }
    }

    /// An asynchronous-send edge to a dynamically chosen target
    /// ([`CallDecl::ANY`]).
    pub const fn send_any() -> Self {
        CallDecl {
            to: CallDecl::ANY,
            kind: CallKind::Send,
        }
    }

    /// Whether this declaration covers a dispatch to `target_type`.
    pub fn covers(&self, target_type: &str) -> bool {
        self.to == CallDecl::ANY || self.to == target_type
    }
}

thread_local! {
    /// The actor type whose turn is running on this thread, if any.
    /// `None` on client / clock / janitor threads.
    static CURRENT_TURN: Cell<Option<ActorTypeId>> = const { Cell::new(None) };
}

/// RAII marker that a turn of `type_id` is executing on this thread.
/// Dispatches issued while the guard is live are checked (in debug
/// builds) against the running actor's declared edges.
pub(crate) struct TurnGuard {
    prev: Option<ActorTypeId>,
}

impl TurnGuard {
    pub(crate) fn enter(type_id: ActorTypeId) -> Self {
        TurnGuard {
            prev: CURRENT_TURN.replace(Some(type_id)),
        }
    }

    /// Clears the turn marker for the guard's lifetime. Used around reply
    /// delivery: a reply callback (a continuation closure or a collector's
    /// completion) belongs to the *requesting* actor but runs on the
    /// replier's worker thread, so dispatches it issues must not be charged
    /// against the replier's declared edges. Reply routing is runtime
    /// machinery, not a request edge — it never blocks and cannot deadlock.
    pub(crate) fn suspend() -> Self {
        TurnGuard {
            prev: CURRENT_TURN.replace(None),
        }
    }
}

impl Drop for TurnGuard {
    fn drop(&mut self) {
        CURRENT_TURN.set(self.prev);
    }
}

/// The actor type currently executing a turn on this thread, if any.
/// Read by the debug-build edge check (and this module's tests).
#[cfg(any(debug_assertions, test))]
pub(crate) fn current_turn_actor() -> Option<ActorTypeId> {
    CURRENT_TURN.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turn_guard_nests_and_restores() {
        assert_eq!(current_turn_actor(), None);
        {
            let _outer = TurnGuard::enter(ActorTypeId::from_raw(1));
            assert_eq!(current_turn_actor(), Some(ActorTypeId::from_raw(1)));
            {
                let _inner = TurnGuard::enter(ActorTypeId::from_raw(2));
                assert_eq!(current_turn_actor(), Some(ActorTypeId::from_raw(2)));
            }
            assert_eq!(current_turn_actor(), Some(ActorTypeId::from_raw(1)));
        }
        assert_eq!(current_turn_actor(), None);
    }

    #[test]
    fn decl_constructors() {
        let c = CallDecl::call("a.b");
        let s = CallDecl::send("a.b");
        assert_eq!(c.kind, CallKind::Call);
        assert_eq!(s.kind, CallKind::Send);
        assert_eq!(c.to, s.to);
    }
}
