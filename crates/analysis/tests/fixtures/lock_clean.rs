//! Known-clean lockcheck fixture: locks used with correct discipline —
//! guards scoped tight, dropped before blocking work, nested
//! acquisitions always in one order. Must produce zero lockcheck
//! findings.

use std::time::Duration;

use parking_lot::{Mutex, RwLock};

pub struct Ledger {
    entries: Mutex<Vec<u64>>,
    totals: RwLock<u64>,
    backing: Store,
}

impl Ledger {
    /// Temporary guard: dies at the end of the statement, well before
    /// the sleep.
    pub fn record_then_settle(&self, v: u64) {
        self.entries.lock().push(v);
        std::thread::sleep(Duration::from_millis(1));
    }

    /// Let-bound guard released by scope exit before the blocking work.
    pub fn drain_then_settle(&self) -> usize {
        let n = {
            let entries = self.entries.lock();
            entries.len()
        };
        std::thread::sleep(Duration::from_millis(1));
        n
    }

    /// Explicit `drop` ends liveness before the sleep.
    pub fn total_then_settle(&self) -> u64 {
        let totals = self.totals.read();
        let t = *totals;
        drop(totals);
        std::thread::sleep(Duration::from_millis(1));
        t
    }

    /// Temporary guard feeding a further call: `n` binds the length, not
    /// the guard, which dies at the `;`.
    pub fn count_then_settle(&self) -> usize {
        let n = self.entries.lock().len();
        std::thread::sleep(Duration::from_millis(1));
        n
    }

    /// Temporary guard passed as an argument: it dies with its
    /// statement, before the sleep.
    pub fn copy_then_settle(&self) -> Vec<u64> {
        let copy = copy_of(&self.entries.lock());
        std::thread::sleep(Duration::from_millis(1));
        copy
    }

    /// Temporary guard inside a closure body: it dies at the body's own
    /// `;`, before the put.
    pub fn stage_then_put(&self, k: u64) -> Result<(), Error> {
        let entry = &self.entries;
        self.write_staged(k).and_then(|()| {
            let r = encode(&entry.lock());
            self.backing.put(k, r)
        })
    }

    /// Guard bound inside a closure body: it dies at the body's `}`,
    /// before the put that follows the statement.
    pub fn count_then_put(&self, k: u64) -> Result<(), Error> {
        let n: usize = [k]
            .iter()
            .map(|_| {
                let entries = self.entries.lock();
                entries.len()
            })
            .sum();
        self.backing.put(k, n)
    }

    fn write_staged(&self, _k: u64) -> Result<(), Error> {
        Ok(())
    }

    /// Nested acquisition, but always entries-then-totals: a consistent
    /// order contributes an edge without forming a cycle.
    pub fn settle(&self) {
        let entries = self.entries.lock();
        let mut totals = self.totals.write();
        *totals += entries.iter().sum::<u64>();
    }
}

fn copy_of(entries: &[u64]) -> Vec<u64> {
    entries.to_vec()
}

fn encode(entries: &[u64]) -> Vec<u8> {
    entries.iter().map(|&e| e as u8).collect()
}
