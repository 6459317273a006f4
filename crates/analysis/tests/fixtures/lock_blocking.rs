//! Known-dirty lockcheck fixture: a guard held across a thread sleep —
//! every other thread touching the class stalls for the full latency —
//! and one bound inside a closure body and held across a store put.
//! Must produce exactly two `lock-across-blocking` findings.

use std::time::Duration;

use parking_lot::Mutex;

pub struct Cache {
    slots: Mutex<Vec<u64>>,
    backing: Store,
}

impl Cache {
    /// The guard bound on the first line is still live at the sleep.
    pub fn refresh(&self) -> usize {
        let slots = self.slots.lock();
        std::thread::sleep(Duration::from_millis(5));
        slots.len()
    }

    /// The guard a closure body binds is live at that body's put.
    pub fn refresh_staged(&self, k: u64) -> Result<(), Error> {
        self.write_staged(k).and_then(|()| {
            let slots = self.slots.lock();
            self.backing.put(k, slots.len())
        })
    }

    fn write_staged(&self, _k: u64) -> Result<(), Error> {
        Ok(())
    }
}
