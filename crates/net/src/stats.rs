//! Network traffic accounting.
//!
//! Experiments E6 (selection pushdown saves communications) and E7 (stream
//! reuse saves traffic) are stated by the paper as qualitative claims; the
//! benches measure them with these counters.

use std::collections::{BTreeMap, HashMap};

use crate::PeerId;

/// Counters for one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages delivered on the link.
    pub messages: u64,
    /// Payload bytes delivered on the link.
    pub bytes: u64,
    /// Messages dropped on the link (failure injection, downed endpoints,
    /// partitions).
    pub dropped: u64,
}

/// Why a message was dropped.  Every drop the simulator records carries one
/// of these causes, so fault harnesses can reconcile losses against the
/// fault that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropCause {
    /// Sender or destination was never registered.
    UnknownPeer,
    /// Sender or destination was failed (`fail_peer`) at send or delivery.
    PeerDown,
    /// Sender and destination were in different partition groups at send or
    /// delivery.
    Partition,
    /// Seeded random loss (`drop_probability`).
    Random,
}

/// Dropped messages broken down by [`DropCause`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropBreakdown {
    /// Drops to or from unregistered peers.
    pub unknown_peer: u64,
    /// Drops caused by a failed peer.
    pub peer_down: u64,
    /// Drops caused by a network partition.
    pub partition: u64,
    /// Seeded random losses.
    pub random: u64,
}

impl DropBreakdown {
    /// All drops in the breakdown.  Always equals the owning
    /// [`NetworkStats::dropped_messages`] — conservation harnesses assert
    /// this identity.
    pub fn total(&self) -> u64 {
        self.unknown_peer + self.peer_down + self.partition + self.random
    }

    fn record(&mut self, cause: DropCause) {
        match cause {
            DropCause::UnknownPeer => self.unknown_peer += 1,
            DropCause::PeerDown => self.peer_down += 1,
            DropCause::Partition => self.partition += 1,
            DropCause::Random => self.random += 1,
        }
    }
}

/// Per-peer traffic rollup (both directions of every link touching the peer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerTraffic {
    /// Messages delivered to the peer.
    pub messages_in: u64,
    /// Messages sent by the peer.
    pub messages_out: u64,
    /// Payload bytes delivered to the peer.
    pub bytes_in: u64,
    /// Payload bytes sent by the peer.
    pub bytes_out: u64,
    /// Messages lost on the way to the peer.
    pub dropped_in: u64,
    /// Messages the peer sent that were lost.
    pub dropped_out: u64,
    /// Of the peer's lost traffic (either direction), how much each fault
    /// class caused — `attributed_drops.total()` counts each loss once even
    /// when both endpoints belong to the peer (a local send).
    pub attributed_drops: DropBreakdown,
}

/// Aggregate traffic statistics.
///
/// The per-link and per-peer tables are written once or twice per message,
/// so they are hashed on the interned ids and iterate in no particular
/// order: sum over them freely, but sort (or go through
/// [`NetworkStats::per_peer`], which is ordered) before printing or
/// digesting their entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// All messages delivered.
    pub total_messages: u64,
    /// All payload bytes delivered.
    pub total_bytes: u64,
    /// Messages dropped by failure injection.
    pub dropped_messages: u64,
    /// The same drops broken down by cause.  `dropped_by_cause.total()` is
    /// always `dropped_messages` — the accounting identity chaos invariants
    /// check.
    pub dropped_by_cause: DropBreakdown,
    /// Per-peer drop attribution: every loss is charged to both endpoints
    /// (once when sender and destination coincide), so a fault harness can
    /// ask "who lost traffic, and to which fault".
    pub dropped_per_peer: HashMap<PeerId, DropBreakdown>,
    /// Channel (data-plane) messages delivered.
    pub channel_messages: u64,
    /// Control-plane messages delivered (DHT lookups, deployment, …).
    pub control_messages: u64,
    /// Messages *avoided* by true channel multicast: when a published stream
    /// has several subscribers behind the same destination peer (or on the
    /// producing peer itself), one physical message serves all of them
    /// instead of one unicast per subscriber.  The E7 "traffic saved by
    /// stream reuse" counter — compare against `total_messages` or a
    /// reuse-off baseline.
    pub multicast_saved_messages: u64,
    /// Messages a *replica* peer sent on the original publisher's behalf:
    /// a subscriber of a hot channel re-publishes it (Section 5's
    /// `<InChannel>` declarations), later consumers attach to the replica,
    /// and the replica forwards the multicast hop the origin would otherwise
    /// have sent itself.  Every message counted here is origin-peer load
    /// moved onto a consumer — the replica-re-publication saving.
    pub replica_forwarded_messages: u64,
    /// Per-link counters, keyed by (from, to).
    pub per_link: HashMap<(PeerId, PeerId), LinkStats>,
}

impl NetworkStats {
    /// Records the delivery of one message.
    ///
    /// `bytes` is the serialized payload size captured at *send* time: when
    /// several deliveries share one `Arc`-ed payload (channel multicast),
    /// each delivery still charges the full serialized size — the simulated
    /// wire does not share reference counts.
    pub fn record_delivery(
        &mut self,
        from: impl Into<PeerId>,
        to: impl Into<PeerId>,
        bytes: usize,
        is_channel: bool,
    ) {
        self.total_messages += 1;
        self.total_bytes += bytes as u64;
        if is_channel {
            self.channel_messages += 1;
        } else {
            self.control_messages += 1;
        }
        let link = self.per_link.entry((from.into(), to.into())).or_default();
        link.messages += 1;
        link.bytes += bytes as u64;
    }

    /// Records a dropped message, attributing it to the link it would have
    /// crossed and to the fault class that killed it.
    pub fn record_drop(
        &mut self,
        from: impl Into<PeerId>,
        to: impl Into<PeerId>,
        cause: DropCause,
    ) {
        let (from, to) = (from.into(), to.into());
        self.dropped_messages += 1;
        self.dropped_by_cause.record(cause);
        self.per_link.entry((from, to)).or_default().dropped += 1;
        self.dropped_per_peer.entry(from).or_default().record(cause);
        if from != to {
            self.dropped_per_peer.entry(to).or_default().record(cause);
        }
    }

    /// Records messages avoided by sharing one physical stream between
    /// several subscribers (per-destination-peer multicast dedup and local
    /// attachment).
    pub fn record_multicast_saving(&mut self, saved: u64) {
        self.multicast_saved_messages += saved;
    }

    /// Records messages a replica peer forwarded on the origin's behalf (see
    /// [`NetworkStats::replica_forwarded_messages`]).
    pub fn record_replica_forward(&mut self, forwarded: u64) {
        self.replica_forwarded_messages += forwarded;
    }

    /// Counters for one directed link.
    pub fn link(&self, from: &str, to: &str) -> LinkStats {
        self.per_link
            .get(&(PeerId::from(from), PeerId::from(to)))
            .copied()
            .unwrap_or_default()
    }

    /// Total bytes that crossed links *into* the given peer.
    pub fn bytes_into(&self, peer: &str) -> u64 {
        let peer = PeerId::from(peer);
        self.per_link
            .iter()
            .filter(|((_, to), _)| *to == peer)
            .map(|(_, s)| s.bytes)
            .sum()
    }

    /// Total bytes that crossed links *out of* the given peer.
    pub fn bytes_out_of(&self, peer: &str) -> u64 {
        let peer = PeerId::from(peer);
        self.per_link
            .iter()
            .filter(|((from, _), _)| *from == peer)
            .map(|(_, s)| s.bytes)
            .sum()
    }

    /// Per-peer traffic rollup over every link, keyed by peer — the summary
    /// the monitoring plane surfaces per [`crate::PeerId`] (e.g. to find the
    /// busiest hosts of a deployment).  Ordered by peer name: this is where
    /// the hashed per-message tables become a listing.
    pub fn per_peer(&self) -> BTreeMap<PeerId, PeerTraffic> {
        let mut out: BTreeMap<PeerId, PeerTraffic> = BTreeMap::new();
        for (&(from, to), link) in &self.per_link {
            let sender = out.entry(from).or_default();
            sender.messages_out += link.messages;
            sender.bytes_out += link.bytes;
            sender.dropped_out += link.dropped;
            let receiver = out.entry(to).or_default();
            receiver.messages_in += link.messages;
            receiver.bytes_in += link.bytes;
            receiver.dropped_in += link.dropped;
        }
        for (&peer, &drops) in &self.dropped_per_peer {
            out.entry(peer).or_default().attributed_drops = drops;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_accounting() {
        let mut s = NetworkStats::default();
        s.record_delivery("a", "b", 100, true);
        s.record_delivery("a", "b", 50, false);
        s.record_delivery("b", "c", 10, true);
        s.record_drop("a", "b", DropCause::Random);
        assert_eq!(s.total_messages, 3);
        assert_eq!(s.total_bytes, 160);
        assert_eq!(s.channel_messages, 2);
        assert_eq!(s.control_messages, 1);
        assert_eq!(s.dropped_messages, 1);
        assert_eq!(s.dropped_by_cause.total(), 1);
        assert_eq!(s.link("a", "b").messages, 2);
        assert_eq!(s.link("a", "b").bytes, 150);
        assert_eq!(s.link("a", "b").dropped, 1);
        assert_eq!(s.link("c", "a"), LinkStats::default());
        assert_eq!(s.bytes_into("b"), 150);
        assert_eq!(s.bytes_out_of("b"), 10);
        assert_eq!(s.bytes_into("a"), 0);
    }

    #[test]
    fn multicast_savings_accumulate() {
        let mut s = NetworkStats::default();
        s.record_multicast_saving(3);
        s.record_multicast_saving(1);
        assert_eq!(s.multicast_saved_messages, 4);
        // Savings are not deliveries: the delivered counters stay untouched.
        assert_eq!(s.total_messages, 0);
    }

    #[test]
    fn replica_forwards_accumulate_without_touching_deliveries() {
        let mut s = NetworkStats::default();
        s.record_replica_forward(2);
        s.record_replica_forward(5);
        assert_eq!(s.replica_forwarded_messages, 7);
        assert_eq!(s.total_messages, 0);
        assert_eq!(s.multicast_saved_messages, 0);
    }

    #[test]
    fn per_peer_rollup_sums_both_directions() {
        let mut s = NetworkStats::default();
        s.record_delivery("a", "b", 100, true);
        s.record_delivery("b", "a", 30, true);
        s.record_delivery("b", "c", 10, false);
        let rollup = s.per_peer();
        let peer = |p: &str| rollup[&PeerId::from(p)];
        assert_eq!(peer("a").bytes_out, 100);
        assert_eq!(peer("a").bytes_in, 30);
        assert_eq!(peer("b").messages_out, 2);
        assert_eq!(peer("b").messages_in, 1);
        assert_eq!(peer("c").messages_in, 1);
        assert_eq!(peer("c").messages_out, 0);
    }

    #[test]
    fn drop_attribution_reconciles_causes_links_and_peers() {
        let mut s = NetworkStats::default();
        s.record_drop("a", "b", DropCause::PeerDown);
        s.record_drop("a", "b", DropCause::Partition);
        s.record_drop("b", "c", DropCause::Random);
        s.record_drop("x", "a", DropCause::UnknownPeer);
        s.record_drop("a", "a", DropCause::PeerDown);
        // The accounting identity: totals, causes and per-link counters all
        // name the same five losses.
        assert_eq!(s.dropped_messages, 5);
        assert_eq!(s.dropped_by_cause.total(), 5);
        assert_eq!(
            s.dropped_by_cause,
            DropBreakdown {
                unknown_peer: 1,
                peer_down: 2,
                partition: 1,
                random: 1,
            }
        );
        let link_drops: u64 = s.per_link.values().map(|l| l.dropped).sum();
        assert_eq!(link_drops, 5);
        // Per-peer attribution charges both endpoints, once on a self-send.
        let rollup = s.per_peer();
        let a = rollup[&PeerId::from("a")];
        assert_eq!(a.dropped_out, 3);
        assert_eq!(a.dropped_in, 2);
        assert_eq!(a.attributed_drops.peer_down, 2);
        assert_eq!(a.attributed_drops.partition, 1);
        assert_eq!(a.attributed_drops.unknown_peer, 1);
        assert_eq!(a.attributed_drops.total(), 4);
        assert_eq!(rollup[&PeerId::from("b")].attributed_drops.random, 1);
        assert_eq!(rollup[&PeerId::from("c")].attributed_drops.random, 1);
        // Dropped-only links deliver nothing.
        assert_eq!(s.total_messages, 0);
        assert_eq!(s.link("a", "b").messages, 0);
        assert_eq!(s.link("a", "b").dropped, 2);
    }
}
