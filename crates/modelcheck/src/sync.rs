//! Instrumented `Mutex` / `RwLock` / `Condvar` with the same API surface as
//! the vendored `parking_lot` shim (non-poisoning, `wait` consumes the
//! guard, `wait_for` returns `(guard, timed_out)`).
//!
//! Every operation first checks whether the calling OS thread is a virtual
//! thread of a live model execution. If not (production code, ordinary
//! tests), the primitive behaves exactly like the plain shim on top of
//! `std::sync` — zero behavioral difference, one thread-local read of
//! overhead. Inside a model execution every acquire/release/wait/notify is
//! routed through the model's explorer, which decides the interleaving.
//!
//! Model objects must stay *closed*: a primitive touched by a virtual
//! thread must not be concurrently touched by non-model threads.

use std::fmt;
use std::sync::{self, Arc};
use std::time::Duration;

use crate::explorer::{self, ExecShared, LazyId};

type Ctx = (Arc<ExecShared>, usize);

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion lock with `parking_lot`'s non-poisoning API, routed
/// through the explorer inside model executions.
pub struct Mutex<T: ?Sized> {
    id: LazyId,
    real: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            id: LazyId::new(),
            real: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.real.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    fn real_lock(&self) -> sync::MutexGuard<'_, T> {
        self.real.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the lock, blocking until available. Never poisons.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match explorer::sched_ctx() {
            None => MutexGuard {
                real: Some(self.real_lock()),
                lock: self,
                model: None,
            },
            Some((ex, vid)) => {
                explorer::mutex_lock(&ex, vid, self.id.get());
                let real = match self.real.try_lock() {
                    Ok(g) => g,
                    // A vthread that panicked while holding the lock poisons
                    // it; the model never poisons, so strip it here too.
                    Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
                    Err(sync::TryLockError::WouldBlock) => {
                        panic!("model mutex integrity: real lock held")
                    }
                };
                MutexGuard {
                    real: Some(real),
                    lock: self,
                    model: Some((ex, vid)),
                }
            }
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Guard for [`Mutex`]; releases through the explorer inside models.
pub struct MutexGuard<'a, T: ?Sized> {
    real: Option<sync::MutexGuard<'a, T>>,
    lock: &'a Mutex<T>,
    model: Option<Ctx>,
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Take the guard apart without running `Drop` (condvar handoff).
    fn into_parts(mut self) -> (sync::MutexGuard<'a, T>, &'a Mutex<T>, Option<Ctx>) {
        let real = self.real.take().expect("guard intact");
        let lock = self.lock;
        let model = self.model.take();
        std::mem::forget(self);
        (real, lock, model)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard intact")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.real.as_mut().expect("guard intact")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before telling the explorer: the next
        // scheduled thread may immediately try_lock it.
        drop(self.real.take());
        if let Some((ex, vid)) = self.model.take() {
            explorer::mutex_unlock(&ex, vid, self.lock.id.get());
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable for use with [`Mutex`]. `wait` consumes and returns
/// the guard (`std::sync::Condvar` style), like the vendored shim.
pub struct Condvar {
    id: LazyId,
    real: sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            id: LazyId::new(),
            real: sync::Condvar::new(),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        if let Some((ex, vid)) = explorer::ctx() {
            explorer::condvar_notify(&ex, vid, self.id.get(), false);
        }
        self.real.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if let Some((ex, vid)) = explorer::ctx() {
            explorer::condvar_notify(&ex, vid, self.id.get(), true);
        }
        self.real.notify_all();
    }

    /// Atomically releases `guard` and blocks until notified; reacquires
    /// the lock before returning. Spurious wakeups are possible — always
    /// wait in a predicate loop.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let (real, lock, model) = guard.into_parts();
        match model {
            None => {
                let real = self.real.wait(real).unwrap_or_else(|e| e.into_inner());
                MutexGuard {
                    real: Some(real),
                    lock,
                    model: None,
                }
            }
            Some((ex, vid)) => {
                drop(real);
                explorer::condvar_wait(&ex, vid, self.id.get(), lock.id.get(), false);
                Self::model_relock(lock, ex, vid)
            }
        }
    }

    /// Like [`Condvar::wait`] with a timeout; the boolean is `true` when
    /// the wait timed out rather than being notified. Inside a model the
    /// timeout is virtual: the explorer may fire it at any decision point.
    pub fn wait_for<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (real, lock, model) = guard.into_parts();
        match model {
            None => match self.real.wait_timeout(real, timeout) {
                Ok((g, r)) => (
                    MutexGuard {
                        real: Some(g),
                        lock,
                        model: None,
                    },
                    r.timed_out(),
                ),
                Err(e) => {
                    let (g, r) = e.into_inner();
                    (
                        MutexGuard {
                            real: Some(g),
                            lock,
                            model: None,
                        },
                        r.timed_out(),
                    )
                }
            },
            Some((ex, vid)) => {
                drop(real);
                let timed_out =
                    explorer::condvar_wait(&ex, vid, self.id.get(), lock.id.get(), true);
                (Self::model_relock(lock, ex, vid), timed_out)
            }
        }
    }

    fn model_relock<T>(lock: &Mutex<T>, ex: Arc<ExecShared>, vid: usize) -> MutexGuard<'_, T> {
        explorer::mutex_lock(&ex, vid, lock.id.get());
        let real = match lock.real.try_lock() {
            Ok(g) => g,
            // See `Mutex::lock`: poison is stripped, only contention is a bug.
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => {
                panic!("model mutex integrity: real lock held")
            }
        };
        MutexGuard {
            real: Some(real),
            lock,
            model: Some((ex, vid)),
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A reader-writer lock with `parking_lot`'s non-poisoning API, routed
/// through the explorer inside model executions.
pub struct RwLock<T: ?Sized> {
    id: LazyId,
    real: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            id: LazyId::new(),
            real: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.real.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard. Never poisons.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match explorer::sched_ctx() {
            None => {
                let real = self.real.read().unwrap_or_else(|e| e.into_inner());
                RwLockReadGuard {
                    real: Some(real),
                    lock: self,
                    model: None,
                }
            }
            Some((ex, vid)) => {
                explorer::rw_lock(&ex, vid, self.id.get(), false);
                let real = match self.real.try_read() {
                    Ok(g) => g,
                    // See `Mutex::lock`: strip poison, only contention is a bug.
                    Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
                    Err(sync::TryLockError::WouldBlock) => {
                        panic!("model rwlock integrity: writer held")
                    }
                };
                RwLockReadGuard {
                    real: Some(real),
                    lock: self,
                    model: Some((ex, vid)),
                }
            }
        }
    }

    /// Acquires an exclusive write guard. Never poisons.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match explorer::sched_ctx() {
            None => {
                let real = self.real.write().unwrap_or_else(|e| e.into_inner());
                RwLockWriteGuard {
                    real: Some(real),
                    lock: self,
                    model: None,
                }
            }
            Some((ex, vid)) => {
                explorer::rw_lock(&ex, vid, self.id.get(), true);
                let real = match self.real.try_write() {
                    Ok(g) => g,
                    // See `Mutex::lock`: strip poison, only contention is a bug.
                    Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
                    Err(sync::TryLockError::WouldBlock) => {
                        panic!("model rwlock integrity: lock held")
                    }
                };
                RwLockWriteGuard {
                    real: Some(real),
                    lock: self,
                    model: Some((ex, vid)),
                }
            }
        }
    }

    /// Attempts to acquire a write guard without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match explorer::sched_ctx() {
            None => match self.real.try_write() {
                Ok(g) => Some(RwLockWriteGuard {
                    real: Some(g),
                    lock: self,
                    model: None,
                }),
                Err(sync::TryLockError::Poisoned(e)) => Some(RwLockWriteGuard {
                    real: Some(e.into_inner()),
                    lock: self,
                    model: None,
                }),
                Err(sync::TryLockError::WouldBlock) => None,
            },
            Some((ex, vid)) => {
                if explorer::rw_try_lock(&ex, vid, self.id.get(), true) {
                    let real = match self.real.try_write() {
                        Ok(g) => g,
                        // See `Mutex::lock`: strip poison, only contention is a bug.
                        Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
                        Err(sync::TryLockError::WouldBlock) => {
                            panic!("model rwlock integrity: lock held")
                        }
                    };
                    Some(RwLockWriteGuard {
                        real: Some(real),
                        lock: self,
                        model: Some((ex, vid)),
                    })
                } else {
                    None
                }
            }
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    real: Option<sync::RwLockReadGuard<'a, T>>,
    lock: &'a RwLock<T>,
    model: Option<Ctx>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard intact")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.real.take());
        if let Some((ex, vid)) = self.model.take() {
            explorer::rw_unlock(&ex, vid, self.lock.id.get(), false);
        }
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    real: Option<sync::RwLockWriteGuard<'a, T>>,
    lock: &'a RwLock<T>,
    model: Option<Ctx>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard intact")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.real.as_mut().expect("guard intact")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.real.take());
        if let Some((ex, vid)) = self.model.take() {
            explorer::rw_unlock(&ex, vid, self.lock.id.get(), true);
        }
    }
}
