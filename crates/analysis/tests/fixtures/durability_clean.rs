//! Clean ack-durability fixture: the commit-point write happens before
//! the reply resolves on every path — including the columnar seam,
//! where `append_batch` (points + side-car in one atomic tail record) is
//! the commit point rather than a KV `mutate`.

impl Actor for Gauge {
    const TYPE_NAME: &'static str = "fix.gauge";
}

impl Handler<Record> for Gauge {
    fn handle(&mut self, msg: Record, _ctx: &mut ActorContext<'_>) {
        self.data.total += msg.points.len() as u64;
        self.data.encode(&mut self.meta);
        let _ = self.series.append_batch(&self.key, &msg.points, &self.meta);
        msg.reply.deliver(self.data.total);
    }
}

impl Handler<Reset> for Gauge {
    fn handle(&mut self, msg: Reset, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| s.total = 0);
        msg.reply.deliver(true);
    }
}
