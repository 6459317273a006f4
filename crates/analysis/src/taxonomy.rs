//! The analyser's vocabulary: what blocks, what sends, what commits.
//!
//! Every pass classifies source by *name* — there is no type inference —
//! so the names are the analysis. They live here, and only here, so a
//! new blocking seam, send method or commit point is taught to every
//! pass in one edit. A name is a blocker wherever it appears: there is
//! no per-receiver exception, so a blocking seam must not share its
//! name with an in-memory method (the WAL has no `append` for that
//! reason; `s.tail.append` is bit packing). Tables only: the walks
//! that consume them are in [`crate::locks`], [`crate::effects`],
//! [`crate::durability`], [`crate::sendsites`] and [`crate::lint`].

// ------------------------------------------------------- locks and guards

/// Type identifiers that make a field, static or parameter a lock site.
pub(crate) const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Zero-argument acquisition methods on lock types (`file.write(buf)` /
/// `stream.read(&mut b)` take arguments and are I/O, not locks).
pub(crate) const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Calls on an acquisition's result that still yield its guard
/// (`m.lock().unwrap()` on a `std::sync` mutex): a `let` ending in them
/// binds the guard. Any other call after the acquisition leaves the
/// guard a temporary.
pub(crate) const GUARD_UNWRAPS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// `std::sync` primitives that are off-convention where `parking_lot`
/// is used (atomics, `Arc` and channels are fine — only the poisonable
/// locks are flagged).
pub(crate) const STD_SYNC_PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier"];

// ---------------------------------------------------------- what blocks

/// Method calls (`.name(..)`) that block or dispatch into user code,
/// with the label a finding shows.
pub(crate) const METHOD_BLOCKERS: &[(&str, &str)] = &[
    ("wait", "condvar/promise wait"),
    ("wait_for", "bounded promise wait"),
    ("wait_timeout", "condvar wait"),
    ("wait_while", "condvar wait"),
    ("recv", "channel receive"),
    ("recv_timeout", "channel receive"),
    ("send", "channel send"),
    ("call", "synchronous actor call"),
    ("call_timeout", "synchronous actor call"),
    ("join", "thread join"),
    ("write_all", "file I/O"),
    ("sync_data", "file sync"),
    ("sync_all", "file sync"),
    ("flush", "file flush"),
    ("read_exact", "file I/O"),
    ("read_to_end", "file I/O"),
    ("read_to_string", "file I/O"),
    ("put", "store I/O"),
    ("delete", "store I/O"),
    ("scan_prefix", "store I/O"),
    ("sync", "store sync"),
    ("run", "dispatch into actor code"),
    ("activate", "actor lifecycle dispatch"),
    ("deactivate", "actor lifecycle dispatch"),
    ("deliver", "reply dispatch"),
    // Group-commit WAL seams (DESIGN.md §15). Every `submit*` entry
    // point takes the committer's queue mutex (a cross-thread handoff:
    // holding another lock across it creates a lock-order edge against
    // the committer); `reset` additionally blocks the caller until the
    // committer has truncated the log. Waiting for a group's fsync is
    // the ticket's `.wait()`, listed above.
    ("submit", "wal queue handoff"),
    ("submit_with", "wal queue handoff"),
    ("submit_framed", "wal queue handoff"),
    ("submit_append", "wal queue handoff"),
    ("reset", "wal reset barrier"),
];

/// Blockers that only block in their zero-argument form: `handle.join()`
/// waits for a thread, `path.join(x)` builds a path.
pub(crate) const ZERO_ARG_BLOCKERS: &[&str] = &["join"];

/// Condvar waits that take the guard *by value* (`q = cv.wait(q)`,
/// `cv.wait_for(g, d)`): the wait consumes the guard and releases its
/// mutex for the whole sleep, so the guard named as first argument is
/// handed off, not held across the wait.
pub(crate) const GUARD_HANDOFF_WAITS: &[&str] = &["wait", "wait_for", "wait_timeout", "wait_while"];

/// Free/path calls (`sleep(..)`, `std::thread::park()`) that block.
pub(crate) const FREE_BLOCKERS: &[(&str, &str)] = &[
    ("sleep", "thread sleep"),
    ("park", "thread park"),
    ("park_timeout", "thread park"),
];

/// `File::create` / `fs::rename`-style path calls that do file I/O:
/// the method names, and the owners they must be called on.
pub(crate) const FS_BLOCKERS: &[&str] = &["create", "rename", "remove_file", "copy"];
pub(crate) const FS_OWNERS: &[&str] = &["File", "fs", "OpenOptions"];

/// The blocking *requests* of the turn discipline — the subset of
/// [`METHOD_BLOCKERS`] that parks a thread on another actor's turn —
/// with the pattern a finding shows. A pattern ending in `()` matches
/// the zero-argument form only: `promise.wait()` is a request,
/// `cv.wait(&mut g)` is a condvar wait and lockcheck's business.
pub(crate) const TURN_BLOCKERS: &[(&str, &str)] = &[
    ("call", ".call("),
    ("wait", ".wait()"),
    ("wait_for", ".wait_for("),
];

// ---------------------------------------------- what sends, what replies

/// Consuming methods on an actor ref / recipient, and whether they are a
/// synchronous `Call` (true) or a `Send` (false). Drift detection reads
/// the kind; the replaycheck effect walk treats all of them as "send
/// payload" sinks.
pub(crate) const SITE_METHODS: &[(&str, bool)] = &[
    ("tell", false),
    ("ask", false),
    ("ask_with", false),
    ("call", true),
    ("call_timeout", true),
];

/// Send methods that are sinks for the effect walk but not declared
/// edges (the chaos-replay variant used by retry loops).
pub(crate) const EXTRA_SEND_METHODS: &[&str] = &["ask_replayable"];

/// True when `name` is a send-site method (including the replayable
/// variant).
pub(crate) fn is_send_method(name: &str) -> bool {
    SITE_METHODS.iter().any(|(m, _)| *m == name) || EXTRA_SEND_METHODS.contains(&name)
}

/// Methods that resolve a `ReplyTo` sink.
pub(crate) const REPLY_METHODS: &[&str] = &["deliver"];

// --------------------------------------------------------- what commits

/// Method names that mark `Persisted` state as durably captured — and
/// the "persisted write" sinks a tainted value must not reach.
pub(crate) const PERSIST_METHODS: &[&str] = &["mutate", "save", "flush"];

/// Store-write methods that commit state durably beyond the `Persisted`
/// capture methods: the tseries seam commits points + side-car in one
/// atomic tail record. `append_batch_async` is the group-commit form of
/// the same seam — the side-car rides the WAL frame and the deferred
/// reply resolves only after the group fsyncs (the ack is gated on the
/// durability of exactly this write).
pub(crate) const COMMIT_METHODS: &[&str] = &["append_batch", "append_batch_async"];

/// True when a method name is a commit-point store write.
pub(crate) fn is_commit_method(name: &str) -> bool {
    PERSIST_METHODS.contains(&name) || COMMIT_METHODS.contains(&name)
}

// ------------------------------------------------- what is nondeterministic

/// Type identifiers whose iteration (and serde serialization) order is
/// arbitrary.
pub(crate) const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Iteration methods whose visit order leaks the collection's internal
/// order. Keyed accessors (`get`, `insert`, `remove`, `contains_key`,
/// `entry`, `len`) are deterministic and deliberately absent.
pub(crate) const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

// ------------------------------------------------------ what is not a call

/// Idents that look like calls but are control flow or constructors, so
/// one-level call propagation must not try to resolve them.
pub(crate) fn is_keywordish(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "match"
            | "for"
            | "return"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
            | "assert"
            | "debug_assert"
            | "panic"
            | "vec"
            | "format"
            | "new"
    ) || name.chars().next().is_some_and(char::is_uppercase)
}
