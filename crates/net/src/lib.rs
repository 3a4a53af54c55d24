//! # p2pmon-net
//!
//! The network substrate of the reproduction.
//!
//! The paper's P2PM runs over real HTTP/SOAP connections between Web
//! application servers.  Reproducing the *evaluation claims* (how many
//! messages and bytes cross the network under different plans, how stream
//! reuse reduces traffic, how the DHT lookup cost grows) does not need real
//! sockets — it needs a transport whose message counts, byte counts, latencies
//! and failures are observable and reproducible.  This crate is that
//! substrate: a deterministic, discrete-event simulated network.
//!
//! * [`Network`] — the simulator: peers, in-flight messages ordered by
//!   delivery time, a logical clock in milliseconds, per-link statistics and
//!   failure injection.
//! * [`Message`] — an envelope carrying one [`Payload`] — an XML tree or a
//!   sketch partial addressed to a merge-tree stage ([`StageId`]) — between
//!   two peers, optionally tagged with the channel it belongs to.
//! * [`LatencyModel`] — constant, per-link or seeded-random latencies.
//! * [`NetworkStats`] — message/byte counters, total and per link, used by
//!   experiments E6–E8.
//!
//! Substitution note: replacing Axis/Tomcat with this simulator preserves
//! the quantities the paper reasons about (who talks to whom, how often,
//! with how many bytes) while making every run reproducible on a laptop.

pub mod latency;
pub mod message;
pub mod network;
pub mod stats;

pub use latency::LatencyModel;
pub use message::{Message, Payload, StageId};
pub use network::{Network, NetworkConfig};
pub use stats::{DropBreakdown, DropCause, LinkStats, NetworkStats, PeerTraffic};

/// Peers are identified by their DNS-like name, as in the paper
/// (`a.com`, `meteo.com`, …).  The name is interned ([`p2pmon_xmlkit::Name`]):
/// a `PeerId` is `Copy`, and *equality and hashing* are single-integer
/// operations — the delivery hot path never allocates or reads a peer-name
/// string.  *Ordering* is not: `<` resolves both names through the
/// interner's lock and compares the strings, which is what makes a
/// `BTreeMap<PeerId, _>` iterate alphabetically and what makes it the wrong
/// table for a per-message lookup.  So the simulator hashes
/// ([`Network`]'s inboxes, [`NetworkStats::per_link`]) and sorts where a
/// listing is read ([`Network::peers`], [`NetworkStats::per_peer`]).
pub type PeerId = p2pmon_xmlkit::Name;

#[cfg(test)]
mod lib_tests {
    use super::*;
    use p2pmon_xmlkit::Element;

    #[test]
    fn send_and_deliver_round_trip() {
        let mut net = Network::new(NetworkConfig::default());
        net.add_peer("a.com");
        net.add_peer("b.com");
        net.send("a.com", "b.com", None, Element::new("ping"));
        net.run_until_idle();
        let delivered = net.take_inbox("b.com");
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].payload, Element::new("ping").into());
        assert_eq!(net.stats().total_messages, 1);
    }
}
