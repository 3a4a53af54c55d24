//! Channels: published streams.
//!
//! A channel is a tuple *(peerID, streamID, subscribers)*: `peerID` published
//! the stream under `streamID`, and `subscribers` is the set of peers that
//! asked to receive it.  Subscribing to a channel is a *continuous service*
//! call in ActiveXML terms — the subscriber keeps receiving trees
//! asynchronously.  Channels are also the unit of *stream reuse*: a replica
//! subscriber may itself re-publish the channel (Section 5).

use std::fmt;

use p2pmon_xmlkit::{Element, ElementBuilder, Name};

/// Strips the URL scheme and trailing slash from a peer reference so that
/// `http://a.com` and `a.com` denote the same peer throughout the system
/// (subscriptions use URLs, the network and the alerters use bare names).
pub fn normalize_peer(raw: &str) -> String {
    let s = raw.trim();
    let s = s.strip_prefix("http://").unwrap_or(s);
    let s = s.strip_prefix("https://").unwrap_or(s);
    s.trim_end_matches('/').to_string()
}

/// Identifies a stream system-wide: the pair `(PeerId, StreamId)`.
///
/// Both halves are interned [`Name`]s, so a `ChannelId` is `Copy`, hashes as
/// two integers (the routing tables and per-round target caches key on it
/// constantly).  It still collates alphabetically in `BTreeMap`s, at
/// [`Name`]'s price — each comparison resolves names through the interner's
/// lock — so order it for listings, never on a per-message path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId {
    /// The peer that published (or produces) the stream.
    pub peer: Name,
    /// The stream identifier, unique at that peer.
    pub stream: Name,
}

impl ChannelId {
    /// Creates a channel identifier (interning both halves).
    pub fn new(peer: impl Into<Name>, stream: impl Into<Name>) -> Self {
        ChannelId {
            peer: peer.into(),
            stream: stream.into(),
        }
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}@{}", self.stream, self.peer)
    }
}

/// The state of a published channel at its publishing peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSpec {
    /// The channel identifier.
    pub id: ChannelId,
    /// Peers currently subscribed.
    pub subscribers: Vec<String>,
    /// Items published so far (for statistics, not retained content).
    pub published_items: u64,
    /// Bytes published so far.
    pub published_bytes: u64,
}

impl ChannelSpec {
    /// Creates a channel with no subscribers yet.
    pub fn new(id: ChannelId) -> Self {
        ChannelSpec {
            id,
            subscribers: Vec::new(),
            published_items: 0,
            published_bytes: 0,
        }
    }

    /// Adds a subscriber; returns `false` if it was already subscribed.
    pub fn subscribe(&mut self, peer: impl Into<String>) -> bool {
        let peer = peer.into();
        if self.subscribers.contains(&peer) {
            false
        } else {
            self.subscribers.push(peer);
            true
        }
    }

    /// Removes a subscriber; returns `false` if it was not subscribed.
    pub fn unsubscribe(&mut self, peer: &str) -> bool {
        let before = self.subscribers.len();
        self.subscribers.retain(|p| p != peer);
        self.subscribers.len() != before
    }

    /// Records the publication of one item of `bytes` size.
    pub fn record_publication(&mut self, bytes: usize) {
        self.published_items += 1;
        self.published_bytes += bytes as u64;
    }

    /// Renders the `<InChannel>` replica declaration of Section 5: peer
    /// `replica_peer` announces it can also provide this channel under the
    /// local id `replica_stream`.
    pub fn replica_declaration(&self, replica_peer: &str, replica_stream: &str) -> Element {
        ElementBuilder::new("InChannel")
            .attr("PeerId", self.id.peer)
            .attr("StreamId", self.id.stream)
            .attr("ReplicaPeerId", replica_peer)
            .attr("ReplicaStreamId", replica_stream)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_unsubscribe() {
        let mut ch = ChannelSpec::new(ChannelId::new("a.com", "X"));
        assert!(ch.subscribe("b.com"));
        assert!(!ch.subscribe("b.com"), "double subscribe is a no-op");
        assert!(ch.subscribe("c.com"));
        assert!(ch.unsubscribe("b.com"));
        assert!(!ch.unsubscribe("b.com"));
        assert_eq!(ch.subscribers, vec!["c.com"]);
    }

    #[test]
    fn publication_accounting() {
        let mut ch = ChannelSpec::new(ChannelId::new("p", "s"));
        ch.record_publication(100);
        ch.record_publication(50);
        assert_eq!(ch.published_items, 2);
        assert_eq!(ch.published_bytes, 150);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(ChannelId::new("b.com", "X").to_string(), "#X@b.com");
    }

    #[test]
    fn replica_declaration_xml() {
        let ch = ChannelSpec::new(ChannelId::new("p", "s"));
        let decl = ch.replica_declaration("p2", "s2");
        assert_eq!(decl.name, "InChannel");
        assert_eq!(decl.attr("PeerId"), Some("p"));
        assert_eq!(decl.attr("ReplicaPeerId"), Some("p2"));
        assert_eq!(decl.attr("ReplicaStreamId"), Some("s2"));
    }
}
