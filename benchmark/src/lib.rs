//! Seeded end-to-end and per-layer benchmark of the sgmap compile, map and
//! simulate flow. See `README.md` for the workloads, the metrics and how to
//! run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod jobs;
pub mod meta;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;
