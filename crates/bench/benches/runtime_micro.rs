//! Criterion micro-benchmarks of the virtual-actor runtime: dispatch
//! throughput from clients and from inside turns, request/response round
//! trips, activation costs, and scatter/gather fan-in.

use std::time::Duration;

use aodb_runtime::{gather, Actor, ActorContext, ActorKey, Handler, Message, Runtime};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

struct Echo {
    value: u64,
}

impl Actor for Echo {
    const TYPE_NAME: &'static str = "bench.echo";
}

struct Bump(u64);
impl Message for Bump {
    type Reply = u64;
}
impl Handler<Bump> for Echo {
    fn handle(&mut self, msg: Bump, _ctx: &mut ActorContext<'_>) -> u64 {
        self.value = self.value.wrapping_add(msg.0);
        self.value
    }
}

struct Die;
impl Message for Die {
    type Reply = ();
}
impl Handler<Die> for Echo {
    fn handle(&mut self, _msg: Die, ctx: &mut ActorContext<'_>) {
        ctx.deactivate();
    }
}

/// One member of a relay ring: forwards each hop to the next key of its
/// ring, so every hop after the first is dispatched from inside a turn
/// (the worker-local deque path). Keys are `ring * RING_LEN + index`.
struct Relay {
    next: u64,
}

impl Actor for Relay {
    const TYPE_NAME: &'static str = "bench.relay";
}

const RING_LEN: u64 = 64;

/// Hops left to travel; the last hop replies to whoever sent the first.
struct Hop(u64);
impl Message for Hop {
    type Reply = ();
}
impl Handler<Hop> for Relay {
    fn handle(&mut self, msg: Hop, ctx: &mut ActorContext<'_>) {
        if msg.0 > 1 {
            let reply = ctx.defer_reply::<()>().expect("hop reply sink");
            ctx.actor_ref::<Relay>(self.next)
                .ask_with(Hop(msg.0 - 1), reply)
                .unwrap();
        }
    }
}

fn runtime_fixture() -> Runtime {
    let rt = Runtime::single(2);
    rt.register(|_id| Echo { value: 0 });
    rt.register(|id| {
        let ActorKey::U64(key) = id.key else {
            unreachable!("relay keys are numeric")
        };
        Relay {
            next: key - key % RING_LEN + (key + 1) % RING_LEN,
        }
    });
    rt
}

fn bench_dispatch(c: &mut Criterion) {
    let rt = runtime_fixture();
    let actor = rt.actor_ref::<Echo>("hot");
    actor.call(Bump(1)).unwrap(); // warm activation

    let mut group = c.benchmark_group("runtime");

    group.throughput(Throughput::Elements(1));
    group.bench_function("call_roundtrip_warm", |b| {
        b.iter(|| actor.call(Bump(1)).unwrap())
    });

    group.throughput(Throughput::Elements(1000));
    group.bench_function("tell_1000_one_actor", |b| {
        b.iter(|| {
            for _ in 0..999 {
                actor.tell(Bump(1)).unwrap();
            }
            // Fence on the 1000th message so the batch is fully processed.
            actor.call(Bump(1)).unwrap();
        })
    });

    group.throughput(Throughput::Elements(1000));
    group.bench_function("tell_1000_spread_100_actors", |b| {
        let actors: Vec<_> = (0..100u64).map(|k| rt.actor_ref::<Echo>(k)).collect();
        for a in &actors {
            a.call(Bump(0)).unwrap();
        }
        b.iter(|| {
            for i in 0..900 {
                actors[i % 100].tell(Bump(1)).unwrap();
            }
            for a in &actors {
                a.call(Bump(1)).unwrap();
            }
        })
    });

    // Two rings, so both workers have a chain to run, each carrying one
    // 500-hop chain; the iteration ends when both last hops have replied.
    group.throughput(Throughput::Elements(1000));
    group.bench_function("ring_1000_hops_in_turn_2_rings", |b| {
        let heads: Vec<_> = (0..2)
            .map(|r| rt.actor_ref::<Relay>(r * RING_LEN))
            .collect();
        for head in &heads {
            head.call(Hop(RING_LEN)).unwrap(); // activate the whole ring
        }
        b.iter(|| {
            let (collector, promise) = gather::<()>(heads.len());
            for head in &heads {
                head.ask_with(Hop(500), collector.slot()).unwrap();
            }
            promise.wait_for(Duration::from_secs(10)).unwrap()
        })
    });

    group.throughput(Throughput::Elements(64));
    group.bench_function("scatter_gather_64", |b| {
        let actors: Vec<_> = (1000..1064u64).map(|k| rt.actor_ref::<Echo>(k)).collect();
        for a in &actors {
            a.call(Bump(0)).unwrap();
        }
        b.iter(|| {
            let (collector, promise) = gather::<u64>(actors.len());
            for a in &actors {
                a.ask_with(Bump(1), collector.slot()).unwrap();
            }
            promise.wait_for(Duration::from_secs(10)).unwrap()
        })
    });

    group.finish();
    rt.shutdown();
}

fn bench_activation(c: &mut Criterion) {
    let rt = runtime_fixture();
    let mut group = c.benchmark_group("activation");
    let mut key = 1_000_000u64;

    group.bench_function("cold_activation_call", |b| {
        b.iter_batched(
            || {
                key += 1;
                rt.actor_ref::<Echo>(key)
            },
            |fresh| fresh.call(Bump(1)).unwrap(),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("activate_then_deactivate", |b| {
        b.iter_batched(
            || {
                key += 1;
                rt.actor_ref::<Echo>(key)
            },
            |fresh| {
                fresh.call(Bump(1)).unwrap();
                fresh.call(Die).unwrap();
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
    rt.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1))
        .sample_size(20);
    targets = bench_dispatch, bench_activation
}
criterion_main!(benches);
