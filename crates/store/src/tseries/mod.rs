//! Columnar time-series storage for the ingest hot path.
//!
//! The paper's SHM workload is ~98 % sensor-point inserts (Fig 5), but
//! the generic KV path pays full record framing, CRC, and whole-state
//! re-serialization per mutation. This module gives point streams a
//! native format instead:
//!
//! * [`bits`] — packed bit I/O (MSB-first) + ZigZag, the substrate for
//!   the variable-width codes.
//! * [`codec`] — delta-of-delta timestamps and Gorilla-style XOR float
//!   compression, sealed into immutable `TSB1` blocks that carry a
//!   sparse index (count, min/max timestamp, min/max value) readable
//!   without decompressing the payload.
//! * [`engine`] — [`TsStore`]: per-series sealed blocks + a mutable
//!   tail, durable through any [`StateStore`](crate::api::StateStore)
//!   backing via an atomic tail-record commit protocol, exposed through
//!   the [`SeriesStore`] seam.
//!
//! `StateStore` remains the seam for actor *state blobs*; `SeriesStore`
//! is the seam for high-rate *point streams*. The single-writer-per-
//! actor guarantee is what makes the per-series append-only layout safe.

pub mod bits;
pub mod codec;
pub mod engine;

pub use codec::{decode_block, decode_index, BlockIndex, PointCompressor};
pub use engine::{AppendOutcome, SeriesRecovery, SeriesStats, SeriesStore, TsConfig, TsStore};

use crate::api::StoreError;

/// Typed decode failures of the tseries on-disk formats.
///
/// Every format carries a version digit as the last magic byte (`TSB1`,
/// `TST1`, `TSW1`). Decoders dispatch on it *before* the CRC check
/// ([`crate::codec::Reader::magic`], the one gate): a record
/// written by a newer layout has its CRC in a different place, so
/// without the dispatch a version bump could only ever surface as
/// "crc mismatch" — indistinguishable from real corruption, and
/// inviting exactly the wrong operator response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeriesError {
    /// The record's magic names a known format at an unknown version.
    UnsupportedVersion {
        /// Format family (`"TSB"` sealed block, `"TST"` tail record,
        /// `"TSW"` WAL delta).
        format: &'static str,
        /// The version byte found in the record.
        found: u8,
        /// The highest version this build decodes.
        supported: u8,
    },
}

impl std::fmt::Display for SeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeriesError::UnsupportedVersion {
                format,
                found,
                supported,
            } => write!(
                f,
                "tseries {format} record has format version {} but this build \
                 supports up to version {} — upgrade before reading this store",
                char::from(*found),
                char::from(*supported),
            ),
        }
    }
}

impl std::error::Error for SeriesError {}

impl From<SeriesError> for StoreError {
    fn from(e: SeriesError) -> Self {
        StoreError::UnsupportedVersion(e.to_string())
    }
}
