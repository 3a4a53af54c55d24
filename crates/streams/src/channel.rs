//! Channels: published streams.
//!
//! A channel is a tuple *(peerID, streamID, subscribers)*: `peerID` published
//! the stream under `streamID`, and `subscribers` is the set of peers that
//! asked to receive it.  Subscribing to a channel is a *continuous service*
//! call in ActiveXML terms — the subscriber keeps receiving trees
//! asynchronously.  Channels are also the unit of *stream reuse*: a replica
//! subscriber may itself re-publish the channel (Section 5).
//!
//! The subscriber sets live in `p2pmon-core`'s routing table; this module
//! holds the identifiers both ends agree on.

use std::fmt;

use p2pmon_xmlkit::Name;

/// Strips the URL scheme and trailing slash from a peer reference so that
/// `http://a.com` and `a.com` denote the same peer throughout the system
/// (subscriptions use URLs, the network and the alerters use bare names).
pub fn normalize_peer(raw: &str) -> &str {
    let s = raw.trim();
    let s = s.strip_prefix("http://").unwrap_or(s);
    let s = s.strip_prefix("https://").unwrap_or(s);
    s.trim_end_matches('/')
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(ChannelId::new("b.com", "X").to_string(), "#X@b.com");
    }
}
