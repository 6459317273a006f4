//! Request/response plumbing: reply sinks, promises, and scatter/gather
//! collectors.
//!
//! The runtime's core reply primitive is a *callback* ([`ReplyTo`]): the
//! worker thread that finishes handling a request invokes the callback with
//! the reply value. [`Promise`] layers a blocking wait on top of that for
//! external clients, and [`Collector`] provides deadlock-free fan-in for
//! multi-actor scatter/gather (an actor must never block its turn waiting
//! for another actor — see the paper's discussion of non-blocking
//! interactions in Section 3).

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::error::PromiseError;

/// Destination for a reply value.
pub enum ReplyTo<R> {
    /// The sender does not care about the reply (one-way `tell`).
    Ignore,
    /// Invoke this callback with the reply, on the worker thread that
    /// produced it. Callbacks must be cheap and non-blocking.
    Callback(Box<dyn FnOnce(R) + Send>),
    /// Store the reply in one numbered slot of a [`Collector`] (from
    /// [`Collector::slot`]): the collector's shared handle and an index,
    /// so a fan-out allocates nothing per target. Delivered like a
    /// callback; dropped or aborted undelivered, its gather can only
    /// resolve as [`PromiseError::Lost`].
    Slot(SlotRef<R>),
    /// Resolve a [`Promise`]. A dedicated variant (rather than a callback
    /// closing over the sender) so the runtime can *abort* the promise with
    /// a typed error — e.g. [`PromiseError::SiloLost`] when the hosting
    /// silo crashes with the request still queued.
    Promise(Sender<Result<R, PromiseError>>),
}

impl<R> ReplyTo<R> {
    /// Delivers the reply, consuming the sink.
    pub fn deliver(self, value: R) {
        match self {
            ReplyTo::Ignore => {}
            ReplyTo::Callback(f) => {
                // The callback continues the *requesting* actor's logic on
                // this (replier's) thread; don't attribute its dispatches
                // to the replier's declared call edges.
                let _not_a_turn = crate::topology::TurnGuard::suspend();
                f(value)
            }
            ReplyTo::Slot(slot) => {
                // As for a callback: the last slot runs the gatherer's
                // completion closure on this thread.
                let _not_a_turn = crate::topology::TurnGuard::suspend();
                slot.sink.fill(slot.index, value)
            }
            ReplyTo::Promise(tx) => {
                let _ = tx.send(Ok(value));
            }
        }
    }

    /// Resolves the sink with an error instead of a value. Promise waiters
    /// observe the error; callbacks (collector slots, continuations) cannot
    /// carry an error value, so they are dropped — their collector then
    /// resolves as [`PromiseError::Lost`] once all slots are gone.
    pub fn abort(self, err: PromiseError) {
        match self {
            ReplyTo::Ignore => {}
            ReplyTo::Callback(f) => drop(f),
            ReplyTo::Slot(slot) => drop(slot),
            ReplyTo::Promise(tx) => {
                let _ = tx.send(Err(err));
            }
        }
    }

    /// True when a reply is actually wanted; lets handlers skip building
    /// expensive reply values for one-way messages.
    pub fn is_wanted(&self) -> bool {
        !matches!(self, ReplyTo::Ignore)
    }
}

impl<R: Send + 'static> ReplyTo<R> {
    /// Creates a promise/reply pair. The promise resolves when the reply
    /// sink is delivered, and fails with [`PromiseError::Lost`] if the sink
    /// is dropped undelivered (e.g. the target actor panicked), or with the
    /// given error if the runtime aborts it via [`ReplyTo::abort`].
    pub fn promise() -> (ReplyTo<R>, Promise<R>) {
        let (tx, rx) = bounded(1);
        (ReplyTo::Promise(tx), Promise { rx })
    }
}

/// A value that will arrive later, produced by an actor turn.
///
/// Only external clients should block on promises. Actors must use
/// [`Collector`] or continuation messages instead; blocking a worker thread
/// inside an actor turn can starve the scheduler.
#[derive(Debug)]
pub struct Promise<T> {
    rx: Receiver<Result<T, PromiseError>>,
}

impl<T> Promise<T> {
    /// Blocks until the reply arrives.
    pub fn wait(self) -> Result<T, PromiseError> {
        self.rx.recv().map_err(|_| PromiseError::Lost)?
    }

    /// Blocks up to `timeout` for the reply.
    pub fn wait_for(self, timeout: Duration) -> Result<T, PromiseError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => PromiseError::Timeout,
            RecvTimeoutError::Disconnected => PromiseError::Lost,
        })?
    }

    /// Non-blocking poll. An aborted promise reads as `None` here; use
    /// [`Promise::wait`] to observe the error.
    pub fn try_take(&self) -> Option<T> {
        self.rx.try_recv().ok().and_then(Result::ok)
    }
}

/// Creates a promise resolved immediately with `value`; useful in tests and
/// for code paths that sometimes answer locally.
pub fn resolved<T: Send + 'static>(value: T) -> Promise<T> {
    let (sink, promise) = ReplyTo::promise();
    sink.deliver(value);
    promise
}

/// The type-erased face of a collector's shared state: what a
/// [`ReplyTo::Slot`] needs of it, whatever its completion closure is.
trait SlotSink<T>: Send + Sync {
    fn fill(&self, index: usize, value: T);
}

/// One numbered slot of a [`Collector`]; only [`Collector::slot`] makes
/// them, one per index.
pub struct SlotRef<T> {
    sink: Arc<dyn SlotSink<T>>,
    index: usize,
}

struct Slots<T, F: FnOnce(Vec<T>)> {
    /// Replies by slot number, `None` until delivered; its length is the
    /// number of replies expected.
    items: Vec<Option<T>>,
    /// Slots handed out so far — the next slot's number.
    issued: usize,
    /// Slots not yet delivered.
    missing: usize,
    on_complete: Option<F>,
}

impl<T: Send, F: FnOnce(Vec<T>) + Send> SlotSink<T> for Mutex<Slots<T, F>> {
    fn fill(&self, index: usize, value: T) {
        let complete = {
            let mut guard = self.lock();
            // A slot is consumed by its one delivery, so this is always
            // `None` -> `Some`.
            guard.items[index] = Some(value);
            guard.missing -= 1;
            if guard.missing == 0 {
                guard
                    .on_complete
                    .take()
                    .map(|f| (f, std::mem::take(&mut guard.items)))
            } else {
                None
            }
        };
        if let Some((f, items)) = complete {
            f(items.into_iter().flatten().collect());
        }
    }
}

/// Deadlock-free fan-in for scatter/gather queries.
///
/// Create a collector expecting `n` replies with a completion closure, hand
/// each target a [`ReplyTo`] obtained from [`Collector::slot`], and the
/// closure runs (exactly once, on whichever worker thread delivers the
/// final reply) once all `n` replies have arrived. Slots are numbered in
/// the order they are handed out and the closure receives the replies in
/// that order, whatever order they arrived in. A slot costs no allocation:
/// it is this collector's shared handle and an index.
///
/// A slot dropped undelivered (its target panicked, or the runtime aborted
/// the request) means the closure never runs; it is dropped with the last
/// slot, so a [`gather`] promise resolves as [`PromiseError::Lost`].
///
/// The canonical use, from the cattle platform's geo query: `cows_near`
/// holds the caller's reply sink, creates a collector over the index
/// shards of the covered cells whose completion closure merges their
/// postings into that sink, and asks every shard with a collector slot as
/// its reply sink. No actor ever blocks.
pub struct Collector<T, F: FnOnce(Vec<T>)> {
    inner: Arc<Mutex<Slots<T, F>>>,
}

impl<T, F: FnOnce(Vec<T>)> Clone for Collector<T, F> {
    fn clone(&self) -> Self {
        Collector {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send + 'static, F: FnOnce(Vec<T>) + Send + 'static> Collector<T, F> {
    /// Creates a collector expecting `expected` replies.
    ///
    /// If `expected` is zero the completion closure runs immediately with an
    /// empty vector (an organization with no sensors still answers live-data
    /// queries).
    pub fn new(expected: usize, on_complete: F) -> Self {
        let on_complete = if expected == 0 {
            on_complete(Vec::new());
            None
        } else {
            Some(on_complete)
        };
        Collector {
            inner: Arc::new(Mutex::new(Slots {
                items: std::iter::repeat_with(|| None).take(expected).collect(),
                issued: 0,
                missing: expected,
                on_complete,
            })),
        }
    }

    /// Produces the reply sink of the next slot. Asking for more slots
    /// than the collector expects is a bug in the caller: a debug build
    /// panics, a release build hands out a sink that discards its
    /// delivery (the expected slots still complete the gather).
    pub fn slot(&self) -> ReplyTo<T> {
        let index = {
            let mut guard = self.inner.lock();
            let index = guard.issued;
            // (`items` is empty once the gather completed.)
            if index >= guard.items.len() {
                debug_assert!(false, "collector asked for more slots than it expects");
                return ReplyTo::Ignore;
            }
            guard.issued += 1;
            index
        };
        ReplyTo::Slot(SlotRef {
            sink: Arc::clone(&self.inner) as Arc<dyn SlotSink<T>>,
            index,
        })
    }

    /// Feeds a value directly into the next slot (for mixed local/remote
    /// gathers).
    pub fn push(&self, value: T) {
        self.slot().deliver(value);
    }
}

/// Convenience: a collector that resolves a [`Promise`] with all replies.
#[allow(clippy::type_complexity)]
pub fn gather<T: Send + 'static>(
    expected: usize,
) -> (
    Collector<T, impl FnOnce(Vec<T>) + Send + 'static>,
    Promise<Vec<T>>,
) {
    let (tx, rx) = bounded(1);
    let collector = Collector::new(expected, move |items: Vec<T>| {
        let _ = tx.send(Ok(items));
    });
    (collector, Promise { rx })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promise_resolves() {
        let (sink, promise) = ReplyTo::<u32>::promise();
        sink.deliver(7);
        assert_eq!(promise.wait(), Ok(7));
    }

    #[test]
    fn dropped_sink_is_lost() {
        let (sink, promise) = ReplyTo::<u32>::promise();
        drop(sink);
        assert_eq!(promise.wait(), Err(PromiseError::Lost));
    }

    #[test]
    fn aborted_sink_reports_typed_error() {
        let (sink, promise) = ReplyTo::<u32>::promise();
        sink.abort(PromiseError::SiloLost);
        assert_eq!(promise.wait(), Err(PromiseError::SiloLost));
        // try_take on an aborted promise reads as None.
        let (sink, promise) = ReplyTo::<u32>::promise();
        sink.abort(PromiseError::SiloLost);
        assert!(promise.try_take().is_none());
    }

    #[test]
    fn wait_for_times_out() {
        let (_sink, promise) = ReplyTo::<u32>::promise();
        assert_eq!(
            promise.wait_for(Duration::from_millis(10)),
            Err(PromiseError::Timeout)
        );
    }

    #[test]
    fn ignore_discards() {
        ReplyTo::<String>::Ignore.deliver("dropped".into());
    }

    #[test]
    fn collector_completes_on_last_reply() {
        let (collector, promise) = gather::<u32>(3);
        collector.slot().deliver(1);
        collector.slot().deliver(2);
        assert!(promise.try_take().is_none());
        collector.slot().deliver(3);
        assert_eq!(promise.wait().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn empty_collector_completes_immediately() {
        let (_collector, promise) = gather::<u32>(0);
        assert_eq!(promise.wait().unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn collector_from_many_threads() {
        let n = 64;
        let (collector, promise) = gather::<usize>(n);
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let slot = collector.slot();
                std::thread::spawn(move || slot.deliver(i))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got = promise.wait().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn completion_is_in_slot_order_whatever_the_arrival_order() {
        let n = 48;
        let (collector, promise) = gather::<usize>(n);
        let slots: Vec<_> = (0..n).map(|_| collector.slot()).collect();
        drop(collector);
        // Four threads, each delivering an interleaved quarter of the
        // slots from the highest number down.
        let mut quarters: Vec<Vec<(usize, ReplyTo<usize>)>> = (0..4).map(|_| Vec::new()).collect();
        for (i, slot) in slots.into_iter().enumerate().rev() {
            quarters[i % 4].push((i, slot));
        }
        let handles: Vec<_> = quarters
            .into_iter()
            .map(|quarter| {
                std::thread::spawn(move || {
                    for (i, slot) in quarter {
                        slot.deliver(i * 10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected: Vec<usize> = (0..n).map(|i| i * 10).collect();
        assert_eq!(promise.wait().unwrap(), expected);
    }

    #[test]
    fn dropped_slot_loses_the_gather() {
        let (collector, promise) = gather::<u32>(2);
        collector.slot().deliver(1);
        collector.slot().abort(PromiseError::SiloLost);
        drop(collector);
        assert_eq!(promise.wait(), Err(PromiseError::Lost));
    }

    /// A slot beyond `expected`: a caller bug, so a debug build panics.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "more slots than it expects")]
    fn over_subscribed_slot_panics_in_debug() {
        let (collector, _promise) = gather::<u32>(1);
        let _first = collector.slot();
        let _second = collector.slot();
    }

    /// In a release build the extra slot is a sink that discards its
    /// delivery, before and after the gather completed; the expected
    /// slots complete it as if the extra ones had never been asked for.
    #[test]
    #[cfg(not(debug_assertions))]
    fn over_subscribed_slot_discards_its_delivery_in_release() {
        let (collector, promise) = gather::<u32>(2);
        let first = collector.slot();
        let second = collector.slot();
        let extra = collector.slot();
        assert!(!extra.is_wanted());
        extra.deliver(99);
        assert!(promise.try_take().is_none());
        second.deliver(2);
        first.deliver(1);
        collector.push(98);
        assert_eq!(promise.wait().unwrap(), vec![1, 2]);
    }

    #[test]
    fn resolved_promise() {
        assert_eq!(resolved(42).wait(), Ok(42));
    }
}
