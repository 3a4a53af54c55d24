//! # p2pmon-streams
//!
//! Streams, channels and the stream-algebra operators of the P2P Monitor.
//!
//! In the paper, a *stream* is a possibly infinite sequence of (Active)XML
//! trees terminated by an optional `eos` marker, and a *channel* is a
//! published stream `(peerID, streamID, subscribers)` that other peers can
//! subscribe to.  Monitoring plans are trees of operators over such streams:
//!
//! * **stateless** processors — Filter (σ), Restructure (Π), Union (∪);
//! * **stateful** processors — Join (⋈), Duplicate-removal, Group;
//! * **publishers** — exposing a stream as a channel, a file/RSS document or
//!   an e-mail digest (the publishers themselves live in `p2pmon-core`
//!   because they need the network; their sink-side formatting helpers are
//!   here).
//!
//! Beyond the operators, this crate holds the shared vocabulary the rest of
//! the system speaks:
//!
//! * [`StreamItem`] / [`StreamEvent`] — one tree in a stream, with logical
//!   timestamps and sequence numbers ([`item`]),
//! * [`ChannelId`] and channel metadata ([`channel`]),
//! * [`Bindings`] — the tuple of named trees and derived values flowing
//!   between compiled P2PML clauses ([`binding`]),
//! * [`Condition`] / [`Operand`] — WHERE-clause conditions evaluated over
//!   bindings, including the *simple conditions* on root attributes that the
//!   two-stage Filter exploits ([`condition`]),
//! * [`Template`] — RETURN-clause templates with `{…}` placeholders
//!   ([`template`]),
//! * [`StreamStats`] / [`RateTable`] — per-stream EWMA rates and the
//!   per-monitor rate table that drives load-aware placement ([`stats`]),
//! * [`Sketch`] summaries ([`CountMinSketch`], [`TopKSketch`],
//!   [`EntropySketch`], [`QuantileSummary`]) — bounded-size mergeable state
//!   behind the aggregate operators (`TopK`, `Entropy`, `Quantile`), which
//!   ship serialized partials up a merge tree instead of whole items
//!   ([`sketch`]).

#![warn(missing_docs)]

pub mod binding;
pub mod channel;
pub mod condition;
pub mod item;
pub mod operator;
pub mod ops;
pub mod sketch;
pub mod stats;
pub mod template;

pub use binding::Bindings;
pub use channel::{normalize_peer, ChannelId, ChannelSpec};
pub use condition::{AttrCondition, Condition, Operand};
pub use item::{StreamEvent, StreamItem};
pub use operator::{Operator, OperatorOutput};
pub use sketch::{
    AggregateKind, AggregateSpec, AnySketch, CountMinSketch, EntropySketch, QuantileSummary,
    Sketch, TopKSketch,
};
pub use stats::{RateTable, StreamStats};
pub use template::Template;

#[cfg(test)]
mod lib_tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    #[test]
    fn select_then_restructure_pipeline() {
        use crate::ops::restructure::Restructure;
        use crate::ops::select::Select;
        use p2pmon_xmlkit::path::CompareOp;

        let mut select = Select::new(
            "c1",
            vec![AttrCondition::new(
                "callMethod",
                CompareOp::Eq,
                "GetTemperature",
            )],
            vec![],
        );
        let mut restructure = Restructure::new(
            Template::parse(
                r#"<incident type="slowAnswer"><client>{$c1.caller}</client></incident>"#,
            )
            .unwrap(),
        );

        let item = StreamItem::new(
            0,
            10,
            parse(r#"<alert callMethod="GetTemperature" caller="http://a.com"/>"#).unwrap(),
        );
        let passed = select.on_item(0, &item);
        assert_eq!(passed.items.len(), 1);
        let out = restructure.on_item(0, &StreamItem::new(1, 11, passed.items[0].clone()));
        assert_eq!(out.items[0].child("client").unwrap().text(), "http://a.com");
    }
}
