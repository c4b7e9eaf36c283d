//! Workspace umbrella crate: integration tests and examples live here.

#![forbid(unsafe_code)]

pub use nob_store;
pub use noblsm;
