//! The channel side-cars' binary layout.
//!
//! A side-car is a channel's data plane — running stats, alert
//! hysteresis, dedup watermarks — and rides *every* append as series
//! metadata (see `ChannelSideCar`), which puts its encoding on the ingest
//! hot path — at WAL group-commit rates the JSON state codec's ~2 µs per
//! encode is a measurable slice of the turn. This fixed-layout
//! little-endian codec encodes the same fields in ~100 ns and a third of
//! the bytes.
//!
//! Layout: one format byte (`FORMAT`), then the struct's fields in
//! declaration order — integers and floats as little-endian, `bool` as
//! one byte, `Option<T>` as a presence byte + payload, `Vec<T>` as a
//! `u64` length + elements. Each side-car's encoder and decoder is that
//! field list over `aodb_store::codec::{Writer, Reader}`, which own every
//! check: decoders reject an unknown format byte, a short buffer, a list
//! length larger than the bytes left, and trailing bytes. A channel whose
//! side-car does not decode treats its data plane as unrecovered, as it
//! does a failed series recovery: an empty meta blob is the only fresh
//! state.

/// Format byte of the current side-car layout. Bump on any field
/// change; a channel then refuses old blobs rather than misparsing them.
pub(crate) const FORMAT: u8 = 1;
