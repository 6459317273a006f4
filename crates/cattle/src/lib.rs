//! # aodb-cattle — the beef-cattle tracking & tracing data platform
//!
//! Case study 2 of the EDBT 2019 paper: a multi-tenant supply-chain
//! platform connecting farmers, slaughterhouses, distributors, retailers,
//! and consumers, built on the AODB layer. It implements **both** actor
//! models the paper contrasts:
//!
//! * **Model A (Figure 3)** — every entity an actor: [`Farmer`], [`Cow`]
//!   (collar readings encapsulated inside), [`Slaughterhouse`],
//!   [`MeatCut`], [`Distributor`], [`Delivery`], [`Retailer`],
//!   [`MeatProduct`]. Tracing is a graph walk across actors
//!   ([`trace_product`]).
//! * **Model B (Figure 5)** — meat cuts as *versioned non-actor objects*
//!   ([`CutHolder`] + [`aodb_core::Versioned`]): transfers copy the
//!   object, reads are local, provenance travels with the object.
//!
//! Ownership transfer (the Section 4.4 constraint example) is implemented
//! twice: atomically via 2PC ([`transfer_cow_txn`]) and eventually via a
//! retried idempotent workflow ([`transfer_cow_workflow`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cow;
pub mod distribution;
mod env;
pub mod farmer;
pub mod geo;
pub mod meatcut;
pub mod model_b;
pub mod retail;
pub mod slaughterhouse;
pub mod tracing;
pub mod transfer;
pub mod types;

mod platform;

pub use cow::{Cow, CowInfo};
pub use distribution::{Delivery, DeliveryStatus, Distributor};
pub use env::CattleEnv;
pub use farmer::Farmer;
pub use meatcut::{CutInfo, MeatCut};
pub use model_b::CutHolder;
pub use platform::{register_all, CattleClient};
pub use retail::{MeatProduct, ProductInfo, Retailer};
pub use slaughterhouse::{Slaughterhouse, CUT_TYPES};
pub use tracing::{trace_product, track_cut, CutTrace, TraceError, TraceReport};
pub use transfer::{transfer_cow_txn, transfer_cow_workflow};

#[cfg(test)]
pub(crate) mod test_props;
