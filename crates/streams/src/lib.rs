//! # p2pmon-streams
//!
//! Streams, channels and the stateful stream processors of the P2P Monitor.
//!
//! In the paper, a *stream* is a possibly infinite sequence of (Active)XML
//! trees, and a *channel* is a published stream `(peerID, streamID,
//! subscribers)` that other peers can subscribe to.  Monitoring plans are
//! trees of operators over such streams.  Every operator runs as an arm of
//! `p2pmon-core`'s `RuntimeOperator`: Select (σ), Restructure (Π) and
//! Union (∪) are evaluated there directly, while Join (⋈) and
//! Duplicate-removal wrap the two stateful processors of [`ops`], which keep
//! bounded histories and report their memory footprint.
//!
//! Beyond those two operators, this crate holds the shared vocabulary the
//! rest of the system speaks:
//!
//! * [`StreamItem`] — one tree in a stream, with a logical timestamp and a
//!   sequence number ([`item`]),
//! * [`ChannelId`] and [`normalize_peer`] ([`channel`]),
//! * [`Bindings`] — the tuple of named trees and derived values flowing
//!   between compiled P2PML clauses ([`binding`]),
//! * [`Condition`] / [`Operand`] — WHERE-clause conditions evaluated over
//!   bindings, including the *simple conditions* on root attributes that the
//!   two-stage Filter exploits ([`condition`]),
//! * [`Template`] — RETURN-clause templates with `{…}` placeholders
//!   ([`template`]),
//! * [`StreamStats`] / [`RateTable`] — per-stream EWMA rates and the
//!   per-monitor rate table that drives load-aware placement ([`stats`]),
//! * [`Sketch`] summaries ([`TopKSketch`], [`QuantileSummary`]) —
//!   bounded-size mergeable state behind the aggregate operators (`TopK`
//!   and `Entropy` share the Misra–Gries key counts; `Quantile`), which
//!   ship partials up a merge tree instead of whole items ([`sketch`]).

#![warn(missing_docs)]

pub mod binding;
pub mod channel;
pub mod condition;
pub mod item;
pub mod ops;
pub mod sketch;
pub mod stats;
pub mod template;

pub use binding::Bindings;
pub use channel::{normalize_peer, ChannelId};
pub use condition::{AttrCondition, Condition, Operand};
pub use item::StreamItem;
pub use sketch::{AggregateKind, AggregateSpec, AnySketch, QuantileSummary, Sketch, TopKSketch};
pub use stats::{RateTable, StreamStats};
pub use template::Template;
