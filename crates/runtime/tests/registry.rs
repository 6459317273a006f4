//! Registration-surface regressions: re-registering an actor type must
//! keep its `ActorTypeId` stable (outstanding `ActorRef`s embed the id)
//! while replacing the factory for future activations.

use std::time::Duration;

use aodb_runtime::{Actor, ActorContext, Handler, Message, Runtime};

struct Greeter {
    greeting: &'static str,
}

impl Actor for Greeter {
    const TYPE_NAME: &'static str = "registry-test.greeter";
}

struct Greet;
impl Message for Greet {
    type Reply = &'static str;
}

impl Handler<Greet> for Greeter {
    fn handle(&mut self, _msg: Greet, _ctx: &mut ActorContext<'_>) -> &'static str {
        self.greeting
    }
}

struct Other;
impl Actor for Other {
    const TYPE_NAME: &'static str = "registry-test.other";
}
impl Handler<Greet> for Other {
    fn handle(&mut self, _msg: Greet, _ctx: &mut ActorContext<'_>) -> &'static str {
        "other"
    }
}

#[test]
fn reregistration_keeps_type_id_and_replaces_factory() {
    let rt = Runtime::single(2);
    let first = rt.register(|_| Greeter { greeting: "v1" });
    // A reference minted against the first registration.
    let early_ref = rt.actor_ref::<Greeter>("g");

    // Interleave another type so a naive "next slot" scheme would drift.
    let other = rt.register(|_| Other);
    assert_ne!(first, other);

    let second = rt.register(|_| Greeter { greeting: "v2" });
    assert_eq!(
        first, second,
        "re-registration must keep the ActorTypeId stable"
    );

    // No activation existed yet, so the first message runs the replacement
    // factory — and the pre-re-registration reference still routes to it.
    let got = early_ref
        .call_timeout(Greet, Duration::from_secs(5))
        .expect("stale ActorRef must stay routable");
    assert_eq!(got, "v2");
    rt.shutdown();
}

#[test]
fn thread_local_type_cache_survives_reregistration() {
    // `typed_ref` memoizes (registry, Rust type) → ActorTypeId in a
    // thread-local cache. That is only sound because re-registration
    // keeps the id stable; this pins the interaction: a thread that
    // cached the resolution *before* a re-registration must keep
    // dispatching correctly — and reach the replacement factory — using
    // its stale-but-valid cache entry afterwards.
    let rt = Runtime::single(2);
    rt.register(|_| Greeter { greeting: "v1" });

    let (warmed_tx, warmed_rx) = std::sync::mpsc::channel::<()>();
    let (rereg_tx, rereg_rx) = std::sync::mpsc::channel::<()>();

    std::thread::scope(|s| {
        let rt_ref = &rt;
        s.spawn(move || {
            // Warm this thread's cache and activate one instance under
            // the original factory.
            let got = rt_ref
                .actor_ref::<Greeter>("warm")
                .call_timeout(Greet, Duration::from_secs(5))
                .expect("warm-up call");
            assert_eq!(got, "v1");
            warmed_tx.send(()).unwrap();
            rereg_rx.recv().unwrap();

            // Pure cache-hit mint after the re-registration: a fresh key
            // must activate through the *replacement* factory, and the
            // already-active instance must stay reachable.
            let fresh = rt_ref
                .actor_ref::<Greeter>("fresh")
                .call_timeout(Greet, Duration::from_secs(5))
                .expect("post-re-registration dispatch from caching thread");
            assert_eq!(fresh, "v2", "cached ActorTypeId routed to a stale factory");
            let warm = rt_ref
                .actor_ref::<Greeter>("warm")
                .call_timeout(Greet, Duration::from_secs(5))
                .expect("existing activation stays reachable");
            assert_eq!(warm, "v1", "live activation must not be rebuilt");
        });

        warmed_rx.recv().unwrap();
        // Re-register from the main thread (whose own cache state is
        // irrelevant to the spawned thread's).
        rt.register(|_| Greeter { greeting: "v2" });
        rereg_tx.send(()).unwrap();
    });
    rt.shutdown();
}

#[test]
fn distinct_types_get_distinct_ids_and_names() {
    let rt = Runtime::single(1);
    let a = rt.register(|_| Greeter { greeting: "hi" });
    let b = rt.register(|_| Other);
    assert_ne!(a, b);
    assert_eq!(rt.type_name(a), Some("registry-test.greeter"));
    assert_eq!(rt.type_name(b), Some("registry-test.other"));
    rt.shutdown();
}
