//! # p2pmon-dht
//!
//! The distributed index substrate of Section 5.
//!
//! The paper stores its *Stream Definition Database* — the XML descriptions
//! of every stream available in the system — in KadoP, "a P2P XML index and
//! repository over a DHT system", so that discovering reusable streams scales
//! to "millions of streams declared by tens of thousands of peers" without a
//! central bottleneck.  Neither KadoP nor its underlying DHT exists for Rust,
//! so this crate rebuilds the stack:
//!
//! * [`chord`] — a Chord-style DHT simulation: a ring of nodes with finger
//!   tables, iterative key lookup (counting hops and messages, which is what
//!   experiment E8 measures), node join/leave with key hand-off.
//! * [`index`] — a KadoP-like distributed inverted index: XML descriptors are
//!   decomposed into index terms (element names, attribute/value pairs,
//!   parent/child paths), each term's posting list lives at the DHT node
//!   responsible for the term's key.
//! * [`streamdef`] — the stream descriptions themselves: the
//!   `<Stream PeerId … StreamId … >` documents of Section 5, with operator,
//!   operands, statistics and channel flag, plus `<InChannel>` replica
//!   declarations.
//! * [`StreamDefinitionDatabase`] — publish / query / replica-selection API
//!   on top of the index: it answers the discovery queries of the Reuse
//!   algorithm (which streams an alerter or an operator over given operands
//!   already produces) and selects, for a discovered stream, the closest
//!   provider among its origin and replicas.  The algorithm's walk of the
//!   monitoring plan is `p2pmon-core`'s.

pub mod chord;
pub mod index;
pub mod streamdef;

pub use chord::{ChordNetwork, LookupResult, NodeId};
pub use index::{DistributedIndex, IndexStats, Posting};
pub use streamdef::{ReplicaDeclaration, StreamDefinition, StreamDefinitionDatabase};

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn publish_and_discover_a_stream() {
        let mut db = StreamDefinitionDatabase::new(ChordNetwork::with_nodes(16, 42));
        let def = StreamDefinition::source("p1", "s1", "inCOM");
        db.publish(def);
        let found = db.find_alerter_streams("p1", "inCOM");
        assert_eq!(found, vec![p2pmon_streams::ChannelId::new("p1", "s1")]);
    }
}
