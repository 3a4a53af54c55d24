//! The repository's benchmark: five workloads over both lifetimes the paper
//! is about — a subscription's and an alert's — with an output oracle, a
//! seed, and a fixed table of end-to-end metrics and bounds.
//!
//! This library and the `benchmark` binary name the monitor only through
//! the narrow surface README.md freezes; everything deeper lives under
//! `trace/`, in the `benchmark_trace` binary.

pub mod cli;
pub mod driver;
pub mod json;
pub mod oracle;
pub mod quiet;
pub mod report;
pub mod stats;
pub mod suite;
pub mod workloads;
