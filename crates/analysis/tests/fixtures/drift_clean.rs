//! Clean counterpart: every send site is declared, every declaration has
//! a site (including a let-bound ref, a self-send, a dynamic send
//! covered by `send_any()`, and a loop over references minted once — in
//! an actor without `send_any()`, so the loop variable must resolve).

impl Actor for Sink {
    const TYPE_NAME: &'static str = "fix.sink";
}

impl Actor for Producer {
    const TYPE_NAME: &'static str = "fix.producer";
    fn declared_calls() -> &'static [CallDecl] {
        const CALLS: &[CallDecl] = &[
            CallDecl::send("fix.sink"),
            CallDecl::call("fix.sink"),
            CallDecl::send_any(),
        ];
        CALLS
    }
}

impl Handler<Emit> for Producer {
    fn handle(&mut self, msg: Emit, ctx: &mut ActorContext<'_>) {
        let sink = ctx.actor_ref::<Sink>("s");
        let _ = sink.tell(Emit { n: msg.n });
        let _ = ctx.actor_ref::<Sink>("s").call(Emit { n: msg.n });
        // Self-send: exempt from declaration.
        let _ = ctx.actor_ref::<Producer>("peer").tell(Emit { n: msg.n });
        // Dynamic recipient carried in the message: covered by send_any.
        let _ = msg.listener.tell(Emit { n: msg.n });
    }
}

impl Actor for Broadcaster {
    const TYPE_NAME: &'static str = "fix.broadcaster";
    fn declared_calls() -> &'static [CallDecl] {
        const CALLS: &[CallDecl] = &[CallDecl::send("fix.sink")];
        CALLS
    }
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
