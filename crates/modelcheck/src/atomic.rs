//! Atomic shims: every operation is a scheduling point inside a model
//! execution (and is observed sequentially consistently there — exclusive
//! virtual-thread execution erases weaker orderings, a documented soundness
//! limit). Outside a model they are the plain `std` atomics. Only the
//! types and operations the instrumented crates call are here.

use std::sync::atomic::Ordering;

use crate::explorer;

fn point() {
    if let Some((ex, vid)) = explorer::sched_ctx() {
        explorer::schedule_point(&ex, vid);
    }
}

macro_rules! int_atomic {
    ($name:ident, $real:ty, $prim:ty) => {
        /// Instrumented integer atomic; see the module docs.
        #[derive(Debug, Default)]
        pub struct $name($real);

        impl $name {
            /// Creates a new atomic.
            pub const fn new(v: $prim) -> Self {
                Self(<$real>::new(v))
            }

            /// Loads the value.
            pub fn load(&self, o: Ordering) -> $prim {
                point();
                self.0.load(o)
            }

            /// Stores `v`.
            pub fn store(&self, v: $prim, o: Ordering) {
                point();
                self.0.store(v, o)
            }

            /// Adds `v`, returning the previous value.
            pub fn fetch_add(&self, v: $prim, o: Ordering) -> $prim {
                point();
                self.0.fetch_add(v, o)
            }

            /// Subtracts `v`, returning the previous value.
            pub fn fetch_sub(&self, v: $prim, o: Ordering) -> $prim {
                point();
                self.0.fetch_sub(v, o)
            }
        }
    };
}

int_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
int_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
