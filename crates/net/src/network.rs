//! The discrete-event network simulator.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p2pmon_streams::ChannelId;
use p2pmon_xmlkit::intern::lookup;

use crate::latency::{LatencyModel, LatencySampler};
use crate::message::{Message, Payload};
use crate::stats::{DropCause, NetworkStats};
use crate::PeerId;

/// Configuration of a simulated network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Latency model for all links.
    pub latency: LatencyModel,
    /// Probability in `[0, 1]` that any message is silently dropped
    /// (failure injection; 0 by default).  Values outside the range are
    /// clamped into it, and NaN means 0.
    pub drop_probability: f64,
    /// Seed for the drop-decision generator.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency: LatencyModel::default(),
            drop_probability: 0.0,
            seed: 0,
        }
    }
}

/// One peer's delivered-but-unread messages.
#[derive(Debug, Default)]
struct Inbox {
    queue: VecDeque<Message>,
    /// True while the peer sits on [`Network::woken`]: a delivery lists the
    /// peer once, however many messages follow, so the list stays bounded by
    /// the peer count even for a caller that only ever polls
    /// [`Network::take_inbox`] by name.
    listed: bool,
}

/// The simulated network: peers, in-flight messages and a logical clock.
///
/// Every table a message consults is hashed on the peer's interned id — an
/// integer — so `send` and `step` cost the same among five peers and among
/// ten thousand; the alphabetical order listings need is produced when
/// [`Network::peers`] is read.  Nothing here iterates a hash table to decide
/// behaviour.
#[derive(Debug)]
pub struct Network {
    /// One inbox per registered peer: the keys *are* the peer set.
    inboxes: HashMap<PeerId, Inbox>,
    down: HashSet<PeerId>,
    /// Peers that received a message since [`Network::take_woken_inboxes`]
    /// last ran, each listed once ([`Inbox::listed`]) in delivery order.
    woken: Vec<PeerId>,
    /// In-flight messages keyed by delivery time, then message id (total
    /// order ⇒ deterministic delivery order).
    in_flight: BTreeMap<(u64, u64), Message>,
    clock: u64,
    next_message_id: u64,
    latency: LatencySampler,
    drop_probability: f64,
    /// Active partition: peer → group index.  Peers in different groups
    /// cannot exchange messages; peers not named by any group share an
    /// implicit extra group (they stay connected to each other, and are cut
    /// off from every explicit group).  Empty = fully connected.
    partition: HashMap<PeerId, usize>,
    rng: StdRng,
    stats: NetworkStats,
}

/// A requested loss probability as the network stores it: clamped into
/// `[0, 1]`, NaN (which `clamp` passes through) read as no loss.
fn loss_probability(requested: f64) -> f64 {
    if requested.is_nan() {
        0.0
    } else {
        requested.clamp(0.0, 1.0)
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            inboxes: HashMap::new(),
            down: HashSet::new(),
            woken: Vec::new(),
            in_flight: BTreeMap::new(),
            clock: 0,
            next_message_id: 0,
            latency: LatencySampler::new(config.latency),
            drop_probability: loss_probability(config.drop_probability),
            partition: HashMap::new(),
            rng: StdRng::seed_from_u64(config.seed),
            stats: NetworkStats::default(),
        }
    }

    /// Registers a peer.  Registering an existing peer is a no-op.
    pub fn add_peer(&mut self, peer: impl Into<PeerId>) {
        self.inboxes.entry(peer.into()).or_default();
    }

    /// All registered peers, sorted.
    pub fn peers(&self) -> Vec<&str> {
        let mut peers: Vec<&str> = self.inboxes.keys().map(|p| p.as_str()).collect();
        peers.sort_unstable();
        peers
    }

    /// True when the peer is registered.  Takes a name or an id.
    pub fn has_peer(&self, peer: impl Into<PeerId>) -> bool {
        self.inboxes.contains_key(&peer.into())
    }

    /// Marks a peer as failed: messages to it are dropped until it recovers.
    /// An unknown name is ignored and not interned.
    pub fn fail_peer(&mut self, peer: &str) {
        if let Some(peer) = lookup(peer).map(PeerId::from) {
            if self.inboxes.contains_key(&peer) {
                self.down.insert(peer);
            }
        }
    }

    /// Recovers a failed peer.  An unknown name is ignored and not interned.
    pub fn recover_peer(&mut self, peer: &str) {
        if let Some(peer) = lookup(peer).map(PeerId::from) {
            self.down.remove(&peer);
        }
    }

    /// True when the peer is currently failed.  Takes a name or an id; a
    /// name is only interned while some peer is down.
    pub fn is_down(&self, peer: impl Into<PeerId>) -> bool {
        !self.down.is_empty() && self.down.contains(&peer.into())
    }

    /// True when any peer is currently failed (lets dispatch skip its
    /// per-round downed-peer sweep on the healthy fast path).
    pub fn any_down(&self) -> bool {
        !self.down.is_empty()
    }

    /// Splits the network into isolated groups: messages between peers of
    /// different groups are dropped (and counted, with cause
    /// [`DropCause::Partition`]) at send time and — for messages already in
    /// flight when the partition lands — at delivery time, exactly like
    /// traffic toward a peer that fails mid-flight.  Peers not named by any
    /// group form one implicit extra group of their own.  Partitions compose
    /// with `fail_peer` and `drop_probability`; calling `partition` again
    /// replaces the previous grouping, [`Network::heal`] removes it.
    pub fn partition(&mut self, groups: &[Vec<&str>]) {
        self.partition.clear();
        for (index, group) in groups.iter().enumerate() {
            for peer in group {
                self.partition.insert(PeerId::from(*peer), index);
            }
        }
    }

    /// Removes the active partition: all groups can reach each other again.
    /// Messages dropped while it was active stay dropped (there is no
    /// retransmission in the simulator).
    pub fn heal(&mut self) {
        self.partition.clear();
    }

    /// True when a partition is currently active.
    pub fn is_partitioned(&self) -> bool {
        !self.partition.is_empty()
    }

    fn blocked(&self, from: PeerId, to: PeerId) -> bool {
        if self.partition.is_empty() || from == to {
            return false;
        }
        // Unlisted peers map to the same implicit group (`None`).
        self.partition.get(&from) != self.partition.get(&to)
    }

    /// The logical clock (ms).
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advances the logical clock without delivering anything (alerters use
    /// this to space out the events they generate).
    pub fn advance_clock(&mut self, delta_ms: u64) {
        self.clock += delta_ms;
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Changes the random-loss probability mid-run (drop-burst fault
    /// injection).  The seeded drop-decision generator is only consulted —
    /// and only advanced — while the probability is above zero, so a burst
    /// window's decisions replay bit-identically from the network seed.
    /// Clamped and NaN-mapped like [`NetworkConfig::drop_probability`].
    pub fn set_drop_probability(&mut self, probability: f64) {
        self.drop_probability = loss_probability(probability);
    }

    /// Records messages avoided by channel multicast (see
    /// [`NetworkStats::multicast_saved_messages`]).
    pub fn record_multicast_saving(&mut self, saved: u64) {
        if saved > 0 {
            self.stats.record_multicast_saving(saved);
        }
    }

    /// Records messages a replica peer forwarded on the origin's behalf (see
    /// [`NetworkStats::replica_forwarded_messages`]).
    pub fn record_replica_forward(&mut self, forwarded: u64) {
        if forwarded > 0 {
            self.stats.record_replica_forward(forwarded);
        }
    }

    /// Expected latency of a link — the proximity measure used by replica
    /// selection.  Either end may be a name or an already interned id.
    pub fn expected_latency(&self, from: impl Into<PeerId>, to: impl Into<PeerId>) -> u64 {
        self.latency.expected(from, to)
    }

    /// Sends a payload from `from` to `to`.  Returns the message id, or
    /// `None` when the message was dropped (failure injection, unknown or
    /// failed destination).
    ///
    /// An XML payload may be owned (wrapped once) or already shared — a
    /// channel multicast passes the same `Arc` to every destination, so
    /// enqueuing is a reference-count bump, not a tree copy.
    pub fn send(
        &mut self,
        from: impl Into<PeerId>,
        to: impl Into<PeerId>,
        channel: Option<ChannelId>,
        payload: impl Into<Payload>,
    ) -> Option<u64> {
        let payload = payload.into();
        let bytes = payload.byte_size();
        self.send_sized(from.into(), to.into(), channel, payload, bytes)
    }

    /// [`Network::send`] for a caller that already sized the payload: one
    /// emission is sized once, however many destinations, rate tables and
    /// counters are charged with the number.  `bytes` must be the payload's
    /// [`Payload::byte_size`], so the wire ledger cannot drift from what it
    /// charges.  Debug builds check that, and check a sketch's charge against
    /// the byte size of its built XML form: the tree is the formula's oracle.
    pub fn send_sized(
        &mut self,
        from: PeerId,
        to: PeerId,
        channel: Option<ChannelId>,
        payload: impl Into<Payload>,
        bytes: usize,
    ) -> Option<u64> {
        let payload = payload.into();
        debug_assert_eq!(bytes, payload.byte_size(), "a message is charged its size");
        debug_assert!(
            match &payload {
                Payload::Sketch { partial, .. } => bytes == partial.to_element().byte_size(),
                Payload::Xml(_) => true,
            },
            "a sketch partial is charged the byte size of its XML form"
        );
        if !self.inboxes.contains_key(&from) || !self.inboxes.contains_key(&to) {
            self.stats.record_drop(from, to, DropCause::UnknownPeer);
            return None;
        }
        if !self.down.is_empty() && (self.down.contains(&from) || self.down.contains(&to)) {
            self.stats.record_drop(from, to, DropCause::PeerDown);
            return None;
        }
        if self.blocked(from, to) {
            self.stats.record_drop(from, to, DropCause::Partition);
            return None;
        }
        if self.drop_probability > 0.0 && self.rng.gen::<f64>() < self.drop_probability {
            self.stats.record_drop(from, to, DropCause::Random);
            return None;
        }
        let latency = if from == to {
            0
        } else {
            self.latency.sample_ids(from, to)
        };
        let id = self.next_message_id;
        self.next_message_id += 1;
        let message = Message {
            id,
            from,
            to,
            channel,
            payload,
            bytes,
            sent_at: self.clock,
            deliver_at: self.clock + latency,
        };
        self.in_flight.insert((message.deliver_at, id), message);
        Some(id)
    }

    /// Delivers the next in-flight message (advancing the clock to its
    /// delivery time).  Returns the recipient, or `None` when nothing is in
    /// flight.
    pub fn step(&mut self) -> Option<PeerId> {
        let (_, message) = self.in_flight.pop_first()?;
        self.clock = self.clock.max(message.deliver_at);
        if !self.down.is_empty() && self.down.contains(&message.to) {
            self.stats
                .record_drop(message.from, message.to, DropCause::PeerDown);
            return Some(message.to);
        }
        // A partition that landed while the message was in flight kills it
        // at the boundary, like a failed destination would.
        if self.blocked(message.from, message.to) {
            self.stats
                .record_drop(message.from, message.to, DropCause::Partition);
            return Some(message.to);
        }
        self.stats.record_delivery(
            message.from,
            message.to,
            message.bytes,
            message.is_channel_traffic(),
        );
        let to = message.to;
        let inbox = self
            .inboxes
            .get_mut(&to)
            .expect("only registered peers are sent to");
        if !inbox.listed {
            inbox.listed = true;
            self.woken.push(to);
        }
        inbox.queue.push_back(message);
        Some(to)
    }

    /// Delivers every message currently in flight (and any that those
    /// deliveries do not generate — the caller's runtime loop is responsible
    /// for reacting and sending more).  Returns the number delivered.
    pub fn run_until_idle(&mut self) -> usize {
        let mut delivered = 0;
        while !self.in_flight.is_empty() {
            self.step();
            delivered += 1;
        }
        delivered
    }

    /// Drains and returns the inbox of a peer.
    pub fn take_inbox(&mut self, peer: &str) -> Vec<Message> {
        self.inboxes
            .get_mut(&PeerId::from(peer))
            .map(|inbox| inbox.queue.drain(..).collect())
            .unwrap_or_default()
    }

    /// Drains the inbox of every peer that received a message since the last
    /// call, in first-delivery order: the cost follows the peers that were
    /// written to, not the peers that exist.  Inboxes already emptied through
    /// [`Network::take_inbox`] are skipped.
    pub fn take_woken_inboxes(&mut self) -> Vec<(PeerId, Vec<Message>)> {
        let mut drained = Vec::with_capacity(self.woken.len());
        for peer in self.woken.drain(..) {
            let inbox = self
                .inboxes
                .get_mut(&peer)
                .expect("a listed peer has an inbox");
            inbox.listed = false;
            if !inbox.queue.is_empty() {
                drained.push((peer, inbox.queue.drain(..).collect()));
            }
        }
        drained
    }

    /// The peers holding delivered-but-unread messages, sorted.  A walk over
    /// every inbox that resolves no name unless it has one to report.
    pub fn unread_peers(&self) -> Vec<&str> {
        let mut unread: Vec<&str> = self
            .inboxes
            .iter()
            .filter(|(_, inbox)| !inbox.queue.is_empty())
            .map(|(peer, _)| peer.as_str())
            .collect();
        unread.sort_unstable();
        unread
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::Element;
    use std::sync::Arc;

    fn net() -> Network {
        let mut n = Network::new(NetworkConfig::default());
        for p in ["a.com", "b.com", "meteo.com", "p"] {
            n.add_peer(p);
        }
        n
    }

    #[test]
    fn messages_are_delivered_in_time_order() {
        let mut n = Network::new(NetworkConfig {
            latency: LatencyModel::PerLink {
                links: [
                    (("a.com".into(), "p".into()), 100),
                    (("b.com".into(), "p".into()), 10),
                ]
                .into_iter()
                .collect(),
                default: 50,
            },
            ..NetworkConfig::default()
        });
        n.add_peer("a.com");
        n.add_peer("b.com");
        n.add_peer("p");
        n.send("a.com", "p", None, Element::new("slow"));
        n.send("b.com", "p", None, Element::new("fast"));
        n.run_until_idle();
        let inbox = n.take_inbox("p");
        assert_eq!(inbox[0].payload, Element::new("fast").into());
        assert_eq!(inbox[1].payload, Element::new("slow").into());
        assert_eq!(n.now(), 100);
    }

    #[test]
    fn local_delivery_is_instant() {
        let mut n = net();
        n.send("p", "p", None, Element::new("loop"));
        n.step();
        assert_eq!(n.now(), 0);
        assert_eq!(n.take_inbox("p").len(), 1);
    }

    #[test]
    fn woken_inboxes_are_the_ones_written_to_each_listed_once() {
        let mut n = net();
        n.send("a.com", "p", None, Element::new("one"));
        n.send("b.com", "p", None, Element::new("two"));
        n.send("a.com", "meteo.com", None, Element::new("three"));
        n.send("a.com", "b.com", None, Element::new("four"));
        n.run_until_idle();
        // Polling by name empties an inbox without unlisting its peer.
        assert_eq!(n.take_inbox("b.com").len(), 1);
        let woken = n.take_woken_inboxes();
        let summary: Vec<(&str, usize)> = woken
            .iter()
            .map(|(peer, inbox)| (peer.as_str(), inbox.len()))
            .collect();
        assert_eq!(summary, vec![("p", 2), ("meteo.com", 1)]);
        assert!(n.take_woken_inboxes().is_empty(), "nothing new arrived");
        assert!(n.unread_peers().is_empty());
        // A peer is listed again by its next delivery.
        n.send("a.com", "b.com", None, Element::new("five"));
        n.run_until_idle();
        assert_eq!(n.take_woken_inboxes().len(), 1);
    }

    #[test]
    fn unknown_peer_messages_are_dropped() {
        let mut n = net();
        assert!(n
            .send("a.com", "nowhere.com", None, Element::new("x"))
            .is_none());
        assert_eq!(n.stats().dropped_messages, 1);
    }

    #[test]
    fn failed_peer_drops_traffic_until_recovery() {
        let mut n = net();
        n.fail_peer("meteo.com");
        assert!(n.is_down("meteo.com"));
        assert!(n
            .send("a.com", "meteo.com", None, Element::new("x"))
            .is_none());
        n.recover_peer("meteo.com");
        assert!(n
            .send("a.com", "meteo.com", None, Element::new("x"))
            .is_some());
        n.run_until_idle();
        assert_eq!(n.take_inbox("meteo.com").len(), 1);
    }

    #[test]
    fn messages_in_flight_to_a_peer_that_fails_are_dropped_at_delivery() {
        let mut n = net();
        n.send("a.com", "meteo.com", None, Element::new("x"));
        n.fail_peer("meteo.com");
        n.run_until_idle();
        assert!(n.take_inbox("meteo.com").is_empty());
        assert_eq!(n.stats().dropped_messages, 1);
    }

    #[test]
    fn multicast_counts_and_channel_accounting() {
        let mut n = net();
        // A channel publication sends one message per subscriber.
        let ch = ChannelId::new("a.com", "X");
        let item = Arc::new(Element::new("item"));
        for to in ["b.com", "meteo.com"] {
            assert!(n.send("a.com", to, Some(ch), Arc::clone(&item)).is_some());
        }
        assert_eq!(n.run_until_idle(), 2);
        assert_eq!(n.stats().channel_messages, 2);
        assert_eq!(n.stats().control_messages, 0);
    }

    #[test]
    fn multicast_of_one_shared_tree_charges_the_serialized_size_per_delivery() {
        // Zero-copy regression guard: the zero-copy send path shares ONE
        // `Arc<Element>` across every recipient, but the traffic model is
        // about what would cross real links — each delivered message must
        // still be charged the payload's full serialized size, not the Arc
        // clone's (zero) cost and not the tree's size only once.
        let mut n = net();
        let payload = Arc::new(Element::text_element("alert", "meteo.com says rain"));
        let per_message = payload.byte_size() as u64;
        for to in ["b.com", "meteo.com", "p"] {
            assert!(n.send("a.com", to, None, Arc::clone(&payload)).is_some());
        }
        assert_eq!(n.run_until_idle(), 3);
        assert_eq!(
            n.stats().total_bytes,
            3 * per_message,
            "every delivery of a shared tree must be charged its serialized size"
        );
    }

    #[test]
    fn drop_probability_drops_roughly_that_fraction() {
        let mut n = Network::new(NetworkConfig {
            drop_probability: 0.5,
            seed: 7,
            ..NetworkConfig::default()
        });
        n.add_peer("a");
        n.add_peer("b");
        for _ in 0..200 {
            n.send("a", "b", None, Element::new("x"));
        }
        let dropped = n.stats().dropped_messages;
        assert!(dropped > 60 && dropped < 140, "dropped {dropped} of 200");
    }

    #[test]
    fn a_nan_drop_probability_means_no_loss() {
        let mut n = Network::new(NetworkConfig {
            drop_probability: f64::NAN,
            ..NetworkConfig::default()
        });
        n.add_peer("a");
        n.add_peer("b");
        // Sends 100 messages and returns how many were dropped.
        let dropped_of_100 = |n: &mut Network| {
            let before = n.stats().dropped_by_cause.random;
            for _ in 0..100 {
                n.send("a", "b", None, Element::new("x"));
            }
            n.stats().dropped_by_cause.random - before
        };
        assert_eq!(dropped_of_100(&mut n), 0);
        // Above 1 is clamped to certain loss, below 0 to none.
        n.set_drop_probability(2.0);
        assert_eq!(dropped_of_100(&mut n), 100);
        n.set_drop_probability(-1.0);
        assert_eq!(dropped_of_100(&mut n), 0);
        n.set_drop_probability(1.0);
        n.set_drop_probability(f64::NAN);
        assert_eq!(dropped_of_100(&mut n), 0);
    }

    #[test]
    fn a_delivery_never_moves_the_clock_back() {
        let mut n = net(); // constant 10ms latency
        n.send("a.com", "p", None, Element::new("one"));
        n.advance_clock(100);
        n.send("a.com", "p", None, Element::new("two"));
        // "one" was due at 10, but the clock had already been advanced to
        // 100; "two" is due at 110.
        assert_eq!(n.step(), Some(PeerId::from("p")));
        assert_eq!(n.now(), 100);
        assert_eq!(n.step(), Some(PeerId::from("p")));
        assert_eq!(n.now(), 110);
        assert_eq!(n.step(), None);
        let inbox = n.take_inbox("p");
        assert_eq!(inbox[0].payload, Element::new("one").into());
        assert_eq!(inbox[1].payload, Element::new("two").into());
    }

    #[test]
    fn partition_blocks_cross_group_delivery_and_heals() {
        let mut n = net();
        n.partition(&[vec!["a.com", "b.com"], vec!["meteo.com", "p"]]);
        assert!(n.is_partitioned());
        // Intra-group traffic flows, cross-group traffic is dropped and
        // attributed to the partition.
        assert!(n.send("a.com", "b.com", None, Element::new("in")).is_some());
        assert!(n.send("a.com", "p", None, Element::new("out")).is_none());
        assert!(n.send("meteo.com", "p", None, Element::new("in")).is_some());
        assert_eq!(n.stats().dropped_messages, 1);
        assert_eq!(n.stats().dropped_by_cause.partition, 1);
        n.run_until_idle();
        assert_eq!(n.take_inbox("b.com").len(), 1);
        assert_eq!(n.take_inbox("p").len(), 1);
        n.heal();
        assert!(!n.is_partitioned());
        assert!(n.send("a.com", "p", None, Element::new("late")).is_some());
        n.run_until_idle();
        assert_eq!(n.take_inbox("p").len(), 1);
    }

    #[test]
    fn messages_in_flight_across_a_new_partition_drop_at_delivery() {
        let mut n = net();
        n.send("a.com", "p", None, Element::new("doomed"));
        n.partition(&[vec!["a.com"], vec!["p"]]);
        n.run_until_idle();
        assert!(n.take_inbox("p").is_empty());
        assert_eq!(n.stats().dropped_messages, 1);
        assert_eq!(n.stats().dropped_by_cause.partition, 1);
        let rollup = n.stats().per_peer();
        assert_eq!(rollup[&PeerId::from("p")].dropped_in, 1);
        assert_eq!(rollup[&PeerId::from("a.com")].dropped_out, 1);
    }

    #[test]
    fn unlisted_peers_share_the_implicit_group() {
        let mut n = net();
        n.partition(&[vec!["a.com"]]);
        // b.com and p are unlisted: connected to each other, cut from a.com.
        assert!(n.send("b.com", "p", None, Element::new("ok")).is_some());
        assert!(n.send("a.com", "b.com", None, Element::new("no")).is_none());
        assert!(n.send("a.com", "p", None, Element::new("no")).is_none());
        assert_eq!(n.stats().dropped_by_cause.partition, 2);
    }

    #[test]
    fn partition_composes_with_failed_peers_and_random_loss() {
        let mut n = Network::new(NetworkConfig {
            drop_probability: 1.0,
            ..NetworkConfig::default()
        });
        for p in ["a", "b", "c"] {
            n.add_peer(p);
        }
        n.partition(&[vec!["a", "b"], vec!["c"]]);
        n.fail_peer("b");
        // Down beats partition beats random loss in attribution order.
        assert!(n.send("a", "b", None, Element::new("x")).is_none());
        assert!(n.send("a", "c", None, Element::new("x")).is_none());
        assert!(n.send("a", "a", None, Element::new("x")).is_none());
        let causes = n.stats().dropped_by_cause;
        assert_eq!(causes.peer_down, 1);
        assert_eq!(causes.partition, 1);
        assert_eq!(causes.random, 1);
        assert_eq!(causes.total(), n.stats().dropped_messages);
        // Recover + heal: only the seeded random loss remains in effect.
        n.recover_peer("b");
        n.heal();
        n.set_drop_probability(0.0);
        assert!(n.send("a", "b", None, Element::new("x")).is_some());
    }

    #[test]
    fn partitioned_replay_is_deterministic() {
        let run = || {
            let mut n = Network::new(NetworkConfig {
                latency: LatencyModel::Uniform {
                    min: 1,
                    max: 30,
                    seed: 11,
                },
                drop_probability: 0.2,
                seed: 11,
            });
            for p in ["a", "b", "c", "d"] {
                n.add_peer(p);
            }
            for i in 0..60 {
                if i == 20 {
                    n.partition(&[vec!["a", "b"], vec!["c", "d"]]);
                }
                if i == 40 {
                    n.heal();
                }
                n.send("a", "c", None, Element::text_element("m", i.to_string()));
                n.send("a", "b", None, Element::text_element("m", i.to_string()));
            }
            n.run_until_idle();
            (n.stats().clone(), n.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unread_peers_lists_the_undrained_inboxes_in_name_order() {
        let mut n = net();
        n.send("a.com", "p", None, Element::new("one"));
        n.send("a.com", "b.com", None, Element::new("two"));
        n.send("a.com", "meteo.com", None, Element::new("three"));
        assert!(n.unread_peers().is_empty(), "in flight is not unread");
        n.run_until_idle();
        n.take_inbox("meteo.com");
        assert_eq!(n.unread_peers(), vec!["b.com", "p"]);
        n.take_woken_inboxes();
        assert!(n.unread_peers().is_empty());
    }

    /// The complexity pin of the per-message path: with the endpoints' ids in
    /// hand, sending and delivering a message never reaches for the
    /// interner's lock — no name is resolved, interned again or ordered —
    /// however many peers are registered.  (An ordered table keyed by
    /// `PeerId` takes two acquisitions per comparison, at every level.)
    #[test]
    #[cfg(debug_assertions)]
    fn a_message_between_known_ids_never_takes_the_interner_lock() {
        use p2pmon_xmlkit::intern::lock_acquisitions;
        for registered in [16usize, 4096] {
            let ids: Vec<PeerId> = (0..registered)
                .map(|i| PeerId::from(format!("peer{i}.net")))
                .collect();
            let mut n = Network::new(NetworkConfig {
                latency: LatencyModel::PerLink {
                    links: [((ids[0], ids[1]), 3), ((ids[1], ids[8]), 40)]
                        .into_iter()
                        .collect(),
                    default: 15,
                },
                ..NetworkConfig::default()
            });
            for &id in &ids {
                n.add_peer(id);
            }
            n.fail_peer("peer2.net");
            n.partition(&[vec!["peer3.net"]]);
            let channel = Some(ChannelId::new("peer0.net", "s"));
            let payload = Arc::new(Element::text_element("alert", "rain"));
            let before = lock_acquisitions();
            for i in 0..1000 {
                let (from, to) = (ids[i % registered], ids[(7 * i + 1) % registered]);
                n.send(from, to, channel, Arc::clone(&payload));
                n.step();
            }
            assert_eq!(
                lock_acquisitions() - before,
                0,
                "1 000 send + step among {registered} peers"
            );
            let stats = n.stats();
            assert_eq!(stats.total_messages + stats.dropped_messages, 1000);
            assert!(stats.dropped_by_cause.peer_down > 0 && stats.dropped_by_cause.partition > 0);
        }
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut n = Network::new(NetworkConfig {
                latency: LatencyModel::Uniform {
                    min: 1,
                    max: 30,
                    seed: 9,
                },
                drop_probability: 0.1,
                seed: 9,
            });
            n.add_peer("a");
            n.add_peer("b");
            for i in 0..50 {
                n.send("a", "b", None, Element::text_element("m", i.to_string()));
            }
            n.run_until_idle();
            (
                n.stats().total_messages,
                n.stats().dropped_messages,
                n.now(),
            )
        };
        assert_eq!(run(), run());
    }
}
