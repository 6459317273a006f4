//! Known-clean lockcheck fixture for the two refinements of the
//! blocking taxonomy: a condvar wait that takes its guard *by value*
//! hands the guard off (the wait releases the mutex while parked), and
//! `.append(..)` only blocks on a receiver named `wal` — an in-memory
//! `append` under a guard is not the group-commit seam. Must produce
//! zero lockcheck findings.

use std::sync::{Condvar, Mutex};

pub struct Inbox {
    queue: Mutex<Vec<u64>>,
    ready: Condvar,
    tail: Mutex<Compressor>,
}

impl Inbox {
    /// The std-style wait loop: `ready.wait(q)` consumes the guard and
    /// returns it re-acquired, so `q` is never held *across* the park.
    pub fn next(&self) -> u64 {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(v) = q.pop() {
                return v;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    /// `Compressor::append` is bit packing in memory; it shares a name
    /// with `GroupWal::append` and nothing else.
    pub fn pack(&self, v: u64) {
        let mut tail = self.tail.lock().unwrap();
        tail.append(v);
    }
}
