//! Known-clean fixture for the three turn-discipline rules: guards
//! released before blocking requests, non-blocking collector closures,
//! reasoned `allow` markers on the line and on the line above, and
//! rule-shaped text inside a raw string and a nested block comment.
//! Must produce zero turn findings.

impl Registry {
    /// Scope exit releases the guard before the call.
    fn lookup_then_call(&self, peer: &Peer) -> Result<usize, CallError> {
        let rows = {
            let table = self.table.lock();
            table.len()
        };
        let extra = peer.call(CountRows)?;
        Ok(rows + extra)
    }

    /// Explicit `drop` ends liveness before the wait.
    fn snapshot_then_wait(&self, pending: Promise<usize>) -> usize {
        let table = self.table.read();
        let rows = table.len();
        drop(table);
        rows + pending.wait().unwrap_or(0)
    }

    /// A fan-in that posts a continuation message instead of blocking,
    /// and a wait *after* the collector's argument list has closed.
    fn fan_in(&self, n: usize, me: Recipient<Done>, pending: Promise<usize>) -> usize {
        let _done = Collector::new(n, move |replies| {
            let _ = me.tell(Done { replies });
        });
        pending.wait().unwrap_or(0)
    }

    /// Marker on the offending line.
    fn allowed_on_the_line(&self, peer: &Peer) -> Result<usize, CallError> {
        let table = self.table.lock();
        let extra = peer.call(CountRows)?; // aodb-lint: allow(guard-across-wait)
        Ok(table.len() + extra)
    }

    /// Marker on the line above.
    fn allowed_on_the_line_above(&self, n: usize, peer: Peer) -> Collector<usize> {
        Collector::new(n, move |replies| {
            // test harness only — aodb-lint: allow(blocking-in-collector)
            let _ = peer.call(Summarize { total: replies.len() });
        })
    }

    /// The rules' own vocabulary as *text*: inside a raw string the
    /// inner quotes do not end the literal, and `*/` closes only the
    /// innermost block comment.
    fn documented(&self) -> &'static str {
        let table = self.table.lock();
        /* never /* e.g. peer.call(CountRows) under a guard, or */ use
           std::sync::Mutex where parking_lot is the convention */
        let text = r#"never "peer.call(CountRows)" under a guard, nor "std::sync::RwLock""#;
        drop(table);
        text
    }
}

// aodb-lint: allow(std-sync-primitive)
use std::sync::Barrier;
