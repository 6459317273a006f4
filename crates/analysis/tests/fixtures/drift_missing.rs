//! Seeded drift bug: `Producer` sends to `Sink` but the edge was
//! "removed" from `declared_calls()` — aodb-lint must flag the site; and
//! `Broadcaster` sends to `Sink` through references minted once and a
//! loop, which must be flagged as a send to `fix.sink` too.

impl Actor for Sink {
    const TYPE_NAME: &'static str = "fix.sink";
}

impl Actor for Producer {
    const TYPE_NAME: &'static str = "fix.producer";
    fn declared_calls() -> &'static [CallDecl] {
        // The send("fix.sink") entry was dropped here.
        const CALLS: &[CallDecl] = &[];
        CALLS
    }
}

impl Handler<Emit> for Producer {
    fn handle(&mut self, msg: Emit, ctx: &mut ActorContext<'_>) {
        let _ = ctx.actor_ref::<Sink>("s").tell(Emit { n: msg.n });
    }
}

impl Actor for Broadcaster {
    const TYPE_NAME: &'static str = "fix.broadcaster";
}

impl Handler<Emit> for Broadcaster {
    fn handle(&mut self, msg: Emit, ctx: &mut ActorContext<'_>) {
        let sinks = self.sinks.get_or_init(|| {
            self.keys
                .iter()
                .map(|key| ctx.actor_ref::<Sink>(key.as_str()))
                .collect()
        });
        for sink in sinks {
            let _ = sink.tell(Emit { n: msg.n });
        }
    }
}
