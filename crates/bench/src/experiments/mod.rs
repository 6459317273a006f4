//! Experiment drivers reproducing the paper's evaluation (Figures 6–9)
//! and the design-choice ablations from DESIGN.md.

pub mod ablations;
pub mod common;
pub mod fig6;
pub mod fig7;
pub mod fig89;

pub use common::{build_single_silo, build_testbed, teardown, SimHw, Testbed};
