//! Known-dirty fixture for the three turn-discipline rules. Must
//! produce exactly: one `std-sync-primitive` (no enclosing item), two
//! `guard-across-wait` (items `lookup_under_guard`, `await_under_guard`)
//! and one `blocking-in-collector` (item `fan_in`).

use std::sync::Mutex;

impl Registry {
    /// The guard bound on the first line is still live at the
    /// synchronous call: the table stays locked while this thread sleeps
    /// on the peer's turn.
    fn lookup_under_guard(&self, peer: &Peer) -> Result<usize, CallError> {
        let table = self.table.lock();
        let extra = peer.call(CountRows)?;
        Ok(table.len() + extra)
    }

    /// Same shape with a read guard and a promise wait.
    fn await_under_guard(&self, pending: Promise<usize>) -> usize {
        let table = self.table.read();
        let extra = pending.wait().unwrap_or(0);
        table.len() + extra
    }

    /// The completion closure runs on whichever worker delivers the last
    /// reply; a blocking call there stalls that worker.
    fn fan_in(&self, n: usize, peer: Peer) -> Collector<usize> {
        Collector::new(n, move |replies| {
            let total: usize = replies.iter().sum();
            let _ = peer.call(Summarize { total });
        })
    }
}
