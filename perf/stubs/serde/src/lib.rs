//! Offline stand-in for `serde`: the two trait names and derives that expand
//! to nothing. See `serde_derive` beside this crate.

pub use serde_derive::{Deserialize, Serialize};

/// Marker with the name of `serde::Serialize`; no type implements it.
pub trait Serialize {}

/// Marker with the name of `serde::Deserialize`; no type implements it.
pub trait Deserialize<'de> {}
